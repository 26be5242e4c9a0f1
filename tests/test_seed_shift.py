"""Stencil nodes get their seeds from the centre's by the exact parameter shift.

Every node a suite's stencil builds is checked against the quadrature
oracle (``moments``); where the shift's error bound is too wide the node
falls back to quadrature, and its table is the plain build bit for bit.
"""

import itertools
import json
import random
import weakref
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from laguerre_lab import calculus as ca
from laguerre_lab import quadrature
from laguerre_lab.cache import cached_recurrence_table, clear_memo, table_key
from laguerre_lab.params import PrecisionContext, WeightParams, to_mpf
from laguerre_lab.quadrature import clear_memos, seed_moments, shift_seeds
from laguerre_lab.suites import _LCG_SEED, _lcg_uniform

P120 = PrecisionContext(digits=120)
P60 = PrecisionContext(digits=60)


def _stencil_nodes(point, prec, levels, axes):
    """Every node that first, second and mixed derivatives on axes touch."""
    seen = []
    grid = ca.StencilGrid(point, prec, lambda p, anchor: seen.append(p) or mpf(0), levels)
    with mp.workdps(prec.work_dps):
        for a in axes:
            grid.second(lambda v: v, a)  # its nodes include those of first
        for a, b in itertools.combinations(axes, 2):
            grid.mixed(lambda v: v, a, b)
    return [p for p in seen if p != point]


def _grid(axes, levels=3):
    """(point, prec) -> the nodes of a grid of levels levels there, on axes."""
    return lambda point, prec: _stencil_nodes(point, prec, levels, axes)


def _t1_nodes(*t1):
    """(point, prec) -> the nodes at each t1 given, the rest of t the point's."""
    return lambda point, prec: [point.with_t((Fraction(v),) + point.t[1:]) for v in t1]


def _first_lcg_point():
    state = _LCG_SEED
    u = []
    for _ in range(4):
        state, v = _lcg_uniform(state)
        u.append(v)
    alpha = Fraction(-9, 10) + Fraction(round(u[0] * 3900), 1000)
    t1 = (Fraction(1, 20) + Fraction(round(u[1] * 950), 1000)) * (1 if u[3] < Fraction(1, 2) else -1)
    t2 = Fraction(1, 20) + Fraction(round(u[2] * 950), 1000)
    return WeightParams(alpha, (t1, t2))


CASES = [
    # the calculus suite's main grid at the four cold-stencil points
    *[(WeightParams(a, (t1, t2)), P120, _grid((0, 1)))
      for a, t1, t2 in (("1/2", "3/10", "1/5"), ("1/2", "-3/10", "1/5"),
                        ("-1/2", "9/10", "1/20"), ("3/2", "1/2", "2/5"))],
    # wide shifts on t1, accepted: +-1e-4 and +-5e-5 of t1 = 3/10,
    # about 10^20 production steps at P = 120
    (WeightParams("1/2", ("3/10", "1/5")), P120, _t1_nodes("30003/100000", "29997/100000")),
    (WeightParams("1/2", ("3/10", "1/5")), P120, _t1_nodes("60003/200000", "59997/200000")),
    # rode-reduction centres, on t1
    (WeightParams("1/2", ("1/2", Fraction(1, 10 ** 4))), P120, _grid((0,))),
    (WeightParams("1/2", ("1/2", Fraction(1, 10 ** 6))), P120, _grid((0,))),
    # the multitime m = 3 grid
    (WeightParams("1/2", ("3/10", "1/5", "1/10")), P120, _grid((0, 1, 2))),
    # the first delta-random point, at P = 60, on delta-random's one-level grid
    (_first_lcg_point(), P60, _grid((0, 1), levels=1)),
]


IDS = ["cold-0", "cold-1", "cold-2", "cold-3", "fd-1e-4", "fd-5e-5", "rode-1e-4", "rode-1e-6",
       "m3", "delta-random"]
#: sigma-pde-reduction's grid at t2 = 1e-5, on t1
SIGMA_REDUCTION = (WeightParams("1/2", ("3/10", Fraction(1, 10 ** 5))), P120, _grid((0,)))
#: at t2 = 1e-20 and P = 50 no shift of the two-axis grid settles: every
#: one of its 24 nodes is rejected
REJECTED = (WeightParams("1/2", ("3/10", Fraction(1, 10 ** 20))), PrecisionContext(digits=50),
            _grid((0, 1)))


def _bits(seeds):
    return None if seeds is None else {k: v._mpf_ for k, v in seeds.items()}


@pytest.mark.parametrize("point, prec, nodes", CASES, ids=IDS)
def test_shifted_seeds_match_quadrature(point, prec, nodes):
    seeds = seed_moments(point, prec)
    nodes = nodes(point, prec)
    assert nodes
    for node in nodes:
        shifted = shift_seeds(point, seeds, node, prec)
        assert shifted is not None, node
        direct = seed_moments(node, prec)
        assert list(shifted) == list(direct)
        with mp.workdps(prec.work_dps):
            tol = to_mpf(prec.quad_tol)
            for k, v in direct.items():
                assert abs(shifted[k] - v) <= tol * abs(v), (node, k)


def _count_contexts(monkeypatch) -> list:
    """A list that records the seed bits of every shift context made from now on."""
    made = []
    real = quadrature._ShiftContext.__init__

    def init(ctx, point, seeds, prec):
        made.append(tuple((k, v._mpf_) for k, v in sorted(seeds.items())))
        real(ctx, point, seeds, prec)

    monkeypatch.setattr(quadrature._ShiftContext, "__init__", init)
    return made


@pytest.mark.parametrize("point, prec, nodes", [*CASES, SIGMA_REDUCTION, REJECTED],
                         ids=[*IDS, "sigma-reduction", "rejected"])
def test_shift_context_is_order_free(point, prec, nodes, monkeypatch):
    # the nodes shifted one by one from a plain dict of the seeds, each call
    # in a fresh context, and all from the seed set in a shuffled order, in
    # the one context its first shift stores: the same seeds bit for bit,
    # the same Nones
    seeds = seed_moments(point, prec)
    rejected = nodes is REJECTED[2]
    nodes = nodes(point, prec)
    made = _count_contexts(monkeypatch)
    before = seeds.context
    alone = [_bits(shift_seeds(point, dict(seeds), node, prec)) for node in nodes]
    assert len(made) == len(nodes) and seeds.context is before
    clear_memos()
    del made[:]
    first, *rest = random.Random(27).sample(range(len(nodes)), len(nodes))
    shared = {first: _bits(shift_seeds(point, seeds, nodes[first], prec))}
    ctx = seeds.context
    assert ctx is not None
    for i in rest:
        shared[i] = _bits(shift_seeds(point, seeds, nodes[i], prec))
        assert seeds.context is ctx
    assert len(made) == 1
    assert [shared[i] for i in range(len(nodes))] == alone
    assert alone == [None] * len(nodes) if rejected else None not in alone


def test_clear_memos_drops_every_shift_context(monkeypatch):
    # the seed sets, held here, hold their shift contexts; clear_memos
    # forgets the seed sets and drops the contexts of those still held, so
    # the next shift makes a fresh one; a context lives as long as its seeds
    clear_memos()
    held = []
    for point, prec, nodes in (CASES[0], CASES[-1]):
        node = nodes(point, prec)[0]
        held.append(seed_moments(point, prec))
        shift_seeds(point, held[-1], node, prec)
    contexts = [seeds.context for seeds in held]
    assert None not in contexts
    assert len(quadrature._seed_memo) == 2
    clear_memos()
    assert quadrature._seed_memo == {}
    assert [seeds.context for seeds in held] == [None, None]
    made = _count_contexts(monkeypatch)
    shift_seeds(point, held[-1], node, prec)
    assert len(made) == 1 and held[-1].context not in contexts
    # the seed set is no longer memoized, yet its new context is dropped too
    clear_memo()
    assert held[-1].context is None
    shift_seeds(point, held[-1], node, prec)
    assert len(made) == 2 and held[-1].context is not None
    shift_seeds(point, held[-1], node, prec)
    assert len(made) == 2
    alive = weakref.ref(held[-1].context)
    del held[:], contexts[:]
    assert alive() is None


def test_seed_shift_check_keys_its_own_context(tmp_path, monkeypatch):
    # verify_seed_shift hands in the centre table's moments, rounded to
    # work_dps, as a plain dict: another context than the one its nodes were
    # shifted in, which the centre's seed set holds (and the grid's builder
    # holds the seed set); each check makes its own, and gets the same result
    centre = WeightParams("1/2", ("3/10", "1/5"))
    grid = ca.StencilGrid(centre, P60, ca.table_bundle_builder(3, P60, tmp_path))
    clear_memo()
    grid.bundle(((0, grid.steps_per_h), (1, grid.steps_per_h)))
    seeds = seed_moments(centre, P60)
    built = seeds.context
    assert built is not None
    made = _count_contexts(monkeypatch)
    check = ca.verify_seed_shift(grid)
    assert seeds.context is built
    table = grid.bundle()
    assert made == [tuple((k, table.moments[k]._mpf_) for k in range(-2, 1))]
    assert made[0] != tuple((k, v._mpf_) for k, v in sorted(seeds.items()))
    assert ca.verify_seed_shift(grid) == check
    assert made == [made[0]] * 2
    assert seeds.context is built


def test_rejected_two_axis_shift_stops_at_its_first_infinite_bound(monkeypatch):
    # at t2 = 1e-20 the t2 series of the (+h, +h) corner runs to its cap of
    # 4 work_dps terms without settling: its bound is infinite, and the
    # shift stops there, with the t1 series at its first term
    centre = WeightParams("1/2", ("3/10", Fraction(1, 10 ** 20)))
    prec = PrecisionContext(digits=50)
    grid = ca.StencilGrid(centre, prec, None)
    corner = grid.params_at(((0, grid.steps_per_h), (1, grid.steps_per_h)))
    seeds = seed_moments(centre, prec)
    calls = []
    real = quadrature._ShiftContext.series

    def counted(ctx, k, axes):
        calls.append((k, len(axes)))
        return real(ctx, k, axes)

    monkeypatch.setattr(quadrature._ShiftContext, "series", counted)
    clear_memos()
    assert shift_seeds(centre, seeds, corner, prec) is None
    cap = 4 * prec.work_dps
    assert calls == [(-2, 2), (-2, 1)] + [(-2 - 2 * a, 0) for a in range(cap)]


def test_anchor_hands_out_its_own_seeds_at_the_centre(tmp_path):
    # at its own anchor a table is the plain one: same key, same stored bits
    point = WeightParams("1/2", ("3/10", "1/5"))
    name = f"table-{table_key(point, 3, P60)}.json"
    clear_memo()
    cached_recurrence_table(point, 3, P60, cache_dir=tmp_path / "anchored", anchor=point)
    clear_memo()
    cached_recurrence_table(point, 3, P60, cache_dir=tmp_path / "plain")
    assert (tmp_path / "anchored" / name).read_text() == (tmp_path / "plain" / name).read_text()


def test_rejected_shift_falls_back_to_quadrature(tmp_path):
    centre, prec, _ = REJECTED
    grid = ca.StencilGrid(centre, prec, ca.table_bundle_builder(3, prec, tmp_path))
    node = grid.params_at(((0, 1),))
    assert shift_seeds(centre, seed_moments(centre, prec), node, prec) is None
    clear_memo()
    anchored = grid.bundle(((0, 1),))
    plain = cached_recurrence_table(node, 3, prec, cache_dir=tmp_path)
    for field in ("h", "alpha_rc", "coeffs", "moments"):
        assert getattr(anchored, field) == getattr(plain, field), field
    for n in range(4):
        assert (anchored.beta(n), anchored.p(n)) == (plain.beta(n), plain.p(n)), n


def test_node_key_and_document_cover_the_anchor(tmp_path):
    centre = WeightParams("1/2", ("3/10", "1/5"))
    grid = ca.StencilGrid(centre, P60, ca.table_bundle_builder(3, P60, tmp_path))
    node = grid.params_at(((1, 1),))
    assert table_key(node, 3, P60, centre) != table_key(node, 3, P60)
    assert table_key(centre, 3, P60) == table_key(centre, 3, P60, None)

    clear_memo()
    good = grid.bundle(((1, 1),))
    path = tmp_path / f"table-{table_key(node, 3, P60, centre)}.json"
    text = path.read_text()
    doc = json.loads(text)
    assert doc["anchor"] == {"alpha": "1/2", "t": ["3/10", "1/5"]}
    # the same node stored under another anchor is a miss and is rebuilt
    doc["anchor"]["t"] = ["3/10", "1/4"]
    path.write_text(json.dumps(doc))
    clear_memo()
    again = cached_recurrence_table(node, 3, P60, cache_dir=tmp_path, anchor=centre)
    assert (again.h, again.coeffs, again.moments) == (good.h, good.coeffs, good.moments)
    assert path.read_text() == text
    # a centre's key and document have no anchor in them
    grid.bundle()
    centre_doc = json.loads((tmp_path / f"table-{table_key(centre, 3, P60)}.json").read_text())
    assert "anchor" not in centre_doc
