import gc
import types
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from laguerre_lab import cache, suites
from laguerre_lab import calculus as ca
from laguerre_lab import scaling as sc
from laguerre_lab.config import parse_config
from laguerre_lab.errors import DomainError
from laguerre_lab.orthopoly import RecurrenceTable
from laguerre_lab.params import PrecisionContext, to_mpf


@pytest.fixture(scope="module")
def prec():
    return PrecisionContext(digits=60)


@pytest.fixture(scope="module")
def grid11(prec):
    return sc.ScaledGrid(1, 1, (8, 12, 16, 24), prec)


def test_grid_precision_is_the_table_rule(prec):
    n_list = (4, 8, 12, 24)
    grid = sc.ScaledGrid(1, 1, n_list, prec)
    assert [grid.grids[n].prec.digits for n in n_list] == [max(50, 20 + 4 * n) for n in n_list]


def test_scaling_point_invariants(prec):
    # the grid at n sits at t = (s1/2n, s2/4n^2); s1 = 0 and s2 <= 0 are
    # rejected, s1 = s2 = 0 too, though WeightParams takes t = 0 as the
    # classical mode
    grid = sc.ScaledGrid(1, 1, (8, 12), prec)
    assert grid.grids[8].params.t == (Fraction(1, 16), Fraction(1, 256))
    for s1, s2 in ((0, 1), (1, -1), (1, 0), (0, 0)):
        with pytest.raises(DomainError):
            sc.ScaledGrid(s1, s2, (8, 12), prec)


def test_n_list_validation(prec):
    with pytest.raises(DomainError):
        sc.ScaledGrid(1, 1, (8, 8), prec)
    with pytest.raises(DomainError):
        sc.ScaledGrid(1, 1, (2, 8), prec)
    with pytest.raises(DomainError):
        sc.ScaledGrid(1, 1, (0, 8), prec)


def test_sequences_finite_and_signed(grid11):
    s = grid11.at()
    with mp.workdps(60):
        R, Rs, r, rs = (s[q] for q in ("R", "Rstar", "r", "rstar"))
        for x in R.seq:
            assert mp.isfinite(x) and x > 0  # same sign as s1
        # R + r -> 0 within extrapolation error
        assert abs(R.limit + r.limit) <= R.err + r.err
        assert abs(Rs.limit + rs.limit) <= Rs.err + rs.err
        assert Rs.limit / R.limit > 0


def test_limit_identities(grid11):
    for c in sc.verify_limit_identities(grid11):
        assert c.ok, (c.id, c.residual, c.tol)


def test_limit_identities_negative_s1(prec):
    grid = sc.ScaledGrid(-1, 1, (8, 12, 16, 24), prec)
    checks = sc.verify_limit_identities(grid)
    for c in checks:
        assert c.ok, (c.id, c.residual, c.tol)
    s = grid.at()
    with mp.workdps(60):
        assert s["R"].limit < 0  # R keeps the sign of s1


def test_limiting_pdes(grid11):
    # the tolerances are propagated from the derivative errors, not
    # divided by the s-step: well below 1e-3 at (1, 1)
    for c in sc.verify_limiting_pdes(grid11):
        assert c.ok, (c.id, c.residual, c.tol)
        assert c.tol < mpf("1e-3"), (c.id, c.tol)


def test_convergence_slope(grid11):
    with mp.workdps(60):
        slope = sc.convergence_slope(grid11)
        assert abs(slope + 1) < mpf("0.3")


def test_tail_invariance(prec, grid11):
    # dropping the smallest n moves the limit by less than the combined
    # reported errors
    s_full = grid11.at()
    s_tail = sc.ScaledGrid(1, 1, (12, 16, 24), prec).at()
    with mp.workdps(60):
        full, tail = s_full["R"], s_tail["R"]
        assert abs(full.limit - tail.limit) <= 2 * (full.err + tail.err)


def cubic(s1, s2):
    return 1 + 2 * s1 - 3 * s2 + s1 ** 2 * s2 - s1 ** 3 / 5 + s2 ** 3 / 2 + s1 * s2 ** 2 / 3


def cubic_derivatives(s1, s2):
    """The s-partials of cubic, by ``calculus.partials`` key."""
    return {
        "1": 2 + 2 * s1 * s2 - Fraction(3, 5) * s1 ** 2 + s2 ** 2 / 3,
        "2": -3 + s1 ** 2 + Fraction(3, 2) * s2 ** 2 + Fraction(2, 3) * s1 * s2,
        "11": 2 * s2 - Fraction(6, 5) * s1,
        "22": 3 * s2 + Fraction(2, 3) * s1,
        "12": 2 * s1 + Fraction(2, 3) * s2,
    }


CUBIC_POINTS = [(Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1, 2))]


class CubicNode:
    """A stencil node table whose H_n and U_n = n (R_n + R_n*) are
    cubic(s1, s2) + 7 (1 + s1)/n at s1 = 2n t1, s2 = 4n^2 t2; its aux row
    sits in the row memo that ``ladder.aux_row`` reads."""

    def __init__(self, params, n):
        t1, t2 = params.t
        s1, s2 = 2 * n * t1, 4 * n * n * t2
        self.v = cubic(s1, s2) + Fraction(7, n) * (1 + s1)
        half = to_mpf(self.v / (2 * n))
        self.rows = {n: SimpleNamespace(R=(half, half))}

    def p(self, n):
        return to_mpf(self.v)


@pytest.mark.parametrize("s1,s2", CUBIC_POINTS)
def test_scaled_t_derivatives_are_exact_on_a_cubic(prec, s1, s2, monkeypatch):
    # each node's t-differences (order 2, one Richardson step) give the
    # s-derivatives exactly; d/ds1 carries a 7/n term, which the 1/n
    # extrapolation removes exactly
    monkeypatch.setattr(sc, "table_bundle_builder",
                        lambda N, prec, cache_dir: lambda params, anchor: CubicNode(params, N))
    grid = sc.ScaledGrid(s1, s2, (8, 16), prec)
    with mp.workdps(prec.work_dps):
        half = to_mpf(prec.half_eps)
        want = cubic_derivatives(s1, s2)
        for q in ("H", "U"):
            got = ca.partials(grid, q, want)
            assert list(got) == list(want)
            for key, (val, _) in got.items():
                assert abs(val - to_mpf(want[key])) <= half, (key, q)


def reachable_tables(root) -> list:
    """The tables reachable from root by references, not through a module,
    a class or a function's globals."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, RecurrenceTable):
            found.append(obj)
        if isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return found


def test_scaled_grid_holds_no_table_once_its_rows_are_read(tmp_path, monkeypatch):
    # a node of a scaled grid keeps p(n) and its aux row, not its depth-n
    # table: once the sequences and the U partials are read, no table can
    # be reached from the grid, and once the run's objects are released
    # the table memo is empty
    cfg = parse_config(None, {"digits": "60", "suites": "scaling", "n_list": "8,10,12",
                              "cache_dir": str(tmp_path / "cache")})
    cache.clear_memo()
    suites.run_suite(cfg)
    cache.clear_memo()
    grids, reached = [], []
    real = sc.verify_limiting_pdes

    def checked(grid):
        out = real(grid)
        grids.append(grid)
        reached.append(len(reachable_tables(grid)))
        return out

    monkeypatch.setattr(sc, "verify_limiting_pdes", checked)
    reports = suites.run_suite(cfg)
    assert reached == [0] and reports[0].n_failed == 0
    del grids[:]
    gc.collect()
    assert len(cache._memo) == 0


def test_reduced_limit_residual(prec):
    with mp.workdps(60):
        r_small = sc.reduced_limit_residual(sc.ScaledGrid(1, Fraction(1, 50), (8, 12, 16), prec))
        r_big = sc.reduced_limit_residual(sc.ScaledGrid(1, Fraction(1, 5), (8, 12, 16), prec))
        assert r_small < r_big
        assert r_small < mpf("0.01")


@settings(max_examples=5, deadline=None)
@given(n=st.integers(min_value=4, max_value=20),
       s1num=st.integers(min_value=-8, max_value=8).filter(lambda v: v != 0),
       s2num=st.integers(min_value=1, max_value=8))
def test_scaling_point_params_property(n, s1num, s2num):
    # building a grid builds no table, so this costs nothing per example
    grid = sc.ScaledGrid(Fraction(s1num, 4), Fraction(s2num, 4), (n, n + 1),
                         PrecisionContext(digits=60))
    params = grid.grids[n].params
    assert params.alpha == Fraction(1, 2)
    assert params.t1 == Fraction(s1num, 4) / (2 * n)
    assert params.t2 == Fraction(s2num, 4) / (4 * n * n)
    assert params.is_deformed
