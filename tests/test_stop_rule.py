"""The oracle trapezoids' predicted-error stop against the confirm-only rule.

``quadrature.level_settled`` lets a pass of ``integrate_weighted``,
``integrate_finite`` or the equilibrium theta rule stop on the level that
two agreeing levels would only confirm one level later.  The confirm-only
rule below, stop when two levels agree to quad_tol, is the oracle it is
held to: every oracle pass of every golden run, run again one integrand at
a time under that rule, must agree with the pass to quad_tol / 10 of the
integrand's L1 mass.  The seed sweeps of ``moments`` run the same rule;
test_quadrature.py holds them to the mpf reference and to their node count.
"""

import json
from fractions import Fraction
from types import SimpleNamespace

import pytest
from mpmath import mp, mpf
from mpmath.libmp import fone

from laguerre_lab import cli, quadrature, suites
from laguerre_lab import equilibrium as eq
from laguerre_lab.cache import clear_memo
from laguerre_lab.config import parse_config
from laguerre_lab.ladder import ladder_A_direct
from laguerre_lab.orthopoly import recurrence_table
from laguerre_lab.params import PrecisionContext, WeightParams, to_mpf
from laguerre_lab.quadrature import integrate_finite, integrate_weighted, level_settled

from test_golden import RUNS
from test_quadrature import FINITE_PANELS

#: the oracle passes each suite makes: f = 1 on both maps; orthogonality;
#: ladder-coeff-integral; ladder-coeff-m; the two supplementary conditions
#: and the closed forms at two (a, b)
ORACLE_PASSES = {"moments": 2, "recurrence": 1, "ladder": 1, "equilibrium": 3, "multitime": 1}


def confirm_only(diff, norm, tol, prev):
    """The stop rule before the predicted-error stop: two levels agree."""
    return diff <= to_mpf(tol) * norm, diff / norm


def under_rule(rule, run):
    """run() with ``rule`` in place of ``level_settled`` in both oracle rules."""
    saved = quadrature.level_settled, eq.level_settled
    quadrature.level_settled = eq.level_settled = rule
    try:
        return run()
    finally:
        quadrature.level_settled, eq.level_settled = saved


def confirmed(run):
    """(value, L1 mass at the stop) of a lone pass under the confirm-only rule."""
    norms = []

    def rule(diff, norm, tol, prev):
        norms.append(norm)
        return confirm_only(diff, norm, tol, prev)

    (value,) = under_rule(rule, run)
    return value, norms[-1]


@pytest.fixture
def compared(monkeypatch):
    """Hold every later oracle pass of the two kernels (not the seed sweeps
    of ``moments``) to the confirm-only rule, integrand by integrand;
    returns the list of passes checked, as (kernel, number of integrands)."""
    passes = []
    real_levels, real_theta = quadrature._trapezoid_levels, eq._theta_trapezoid

    def check(kernel, got, lone, prec):
        for i, value in enumerate(got):
            want, norm = confirmed(lambda: lone(i))
            assert abs(value - want) <= to_mpf(prec.quad_tol) / 10 * norm, (kernel, i)
        passes.append((kernel, len(got)))

    def levels(g, prec, what):
        got = real_levels(g, prec, what)
        if what == "moments":
            return got
        check(what, got, lambda i: real_levels(lambda u, live: g(u, [i]), prec, what), prec)
        return got

    def theta(g, prec):
        got = real_theta(g, prec)
        check("theta", got, lambda i: real_theta(lambda th: (g(th)[i],), prec), prec)
        return got

    monkeypatch.setattr(quadrature, "_trapezoid_levels", levels)
    monkeypatch.setattr(eq, "_theta_trapezoid", theta)
    return passes


def oracle_runs():
    """(name, lab arguments) of each golden run cut to its suites with oracle
    passes, without repeats."""
    runs = {}
    for path in RUNS:
        args = json.loads(path.read_text())["args"]
        cfg = cli.config_from_args(cli.build_parser().parse_args(args))
        names = [s for s in cfg.active_suites if s in ORACLE_PASSES]
        if names:
            runs.setdefault((",".join(names),) + tuple(args[1:]), path.stem)
    return [pytest.param(list(args), id=name) for args, name in runs.items()]


@pytest.mark.parametrize("args", oracle_runs())
def test_golden_oracle_passes_match_the_confirm_only_rule(args, compared):
    cfg = cli.config_from_args(cli.build_parser().parse_args(args))
    suites.run_suite(cfg)
    assert len(compared) == sum(ORACLE_PASSES[s] for s in cfg.active_suites)


@pytest.mark.parametrize("digits", [60, 120])
def test_bimodal_t1_negative_point_matches_the_confirm_only_rule(digits, compared):
    # two humps of the weight at alpha = 0.51, t = (-0.515, 0.0025)
    cfg = parse_config(None, {"alpha": "0.51", "t1": "-0.515", "t2": "0.0025",
                              "digits": str(digits), "suites": "moments,recurrence,ladder"})
    suites.run_suite(cfg)
    assert len(compared) == 4


def test_direct_oracles_match_the_confirm_only_rule(compared):
    # ladder_A_direct at m = 2, 3, 4 and the integrate_finite panels.  The
    # golden recurrence run at alpha = -1/2, P = 60 holds the orthogonality
    # pair (6, 6), which a rule without the r <= sqrt(tol) bound and the
    # upper ratio bound stopped at h = 1/16, 3.6e-36 from its value
    prec = PrecisionContext(digits=60)
    t = ("3/10", "1/5", "1/10", "1/20")
    for m in (2, 3, 4):
        ladder_A_direct(recurrence_table(WeightParams("1/2", t[:m]), 3, prec), 2, ("0.9", "3"))
    integrate_finite(FINITE_PANELS, prec)
    assert compared == [("integrate_weighted", 2)] * 3 + [("integrate_finite", 5)]


def recorded(run):
    """(value, [r_L]) of a lone pass under ``level_settled``, with the
    relative level differences r_L it saw."""
    rs = []

    def rule(diff, norm, tol, prev):
        rs.append(diff / norm)
        return level_settled(diff, norm, tol, prev)

    (value,) = under_rule(rule, run)
    return value, rs


def predicted_stop_vetoed_by_ratio(rs, tol):
    """Whether some level had r <= sqrt(tol) and a predicted error below
    tol / 10 but a digit ratio D_L / D_(L-1) above 2.5."""
    for last, r in zip(rs, rs[1:]):
        ratio = mp.log10(r) / mp.log10(last)
        if r * r <= tol and mp.log10(r) * ratio <= mp.log10(tol) - 1 and ratio > 2.5:
            return True
    return False


def geometric(rs):
    """Whether the later levels shrink r by one factor (to 5 %)."""
    steps = [b / a for a, b in zip(rs[2:], rs[3:])]
    return len(steps) >= 3 and max(steps) <= min(steps) * mpf("1.05")


def test_real_line_kernel_runs_synthetic_sequences_to_confirmation():
    # a kink at u = 0 converges like h^2, r shrinking by 4 per level; a
    # Gaussian's error e^(-pi^2/h^2) gains digits fourfold per level, a jump
    # that the upper ratio bound alone keeps from stopping the pass
    cases = [(lambda u: (1 + abs(u)) * mp.exp(-u * u), Fraction(1, 10 ** 6), "geometric"),
             (lambda u: mp.exp(-u * u), Fraction(1, 10 ** 30), "jump")]
    with mp.workdps(50):
        for f, tol, kind in cases:
            prec = SimpleNamespace(digits=40, quad_tol=tol)
            nodes = []

            def g(u, live, f=f):
                nodes.append(u)
                return [f(mp.make_mpf(u))._mpf_]

            run = lambda: quadrature._trapezoid_levels(g, prec, "test")
            want, _ = confirmed(run)
            sampled = len(nodes)
            got, rs = recorded(run)
            assert got._mpf_ == want._mpf_ and len(nodes) == 2 * sampled, kind
            assert geometric(rs) if kind == "geometric" else \
                predicted_stop_vetoed_by_ratio(rs, to_mpf(tol))


def theta_sequence(c):
    """g(theta) = c_0 + sum_j c_(j+1) cos(16 2^j theta): on M = 8 2^L
    intervals the trapezoid integrates cos(k theta) to pi when 2M divides k
    and to 0 otherwise, so the level that doubles 8 2^l intervals moves
    the sum by -pi c_(l+1) exactly."""
    return lambda th: (c[0] + mp.fsum(cj * mp.cos(16 * 2 ** j * th)
                                      for j, cj in enumerate(c[1:])),)


def test_theta_kernel_runs_synthetic_sequences_to_confirmation():
    prec = SimpleNamespace(work_dps=40, quad_tol=Fraction(1, 10 ** 30))
    tenth = lambda e: mpf(10) ** e
    cases = {
        # r shrinks by 10^4 per level
        "geometric": [mpf(1)] + [tenth(-3 - 4 * l) for l in range(9)],
        # the digits jump from 6 to 16 past the fifth doubling, then 33
        "jump": [mpf(1)] + [tenth(-1)] * 4 + [tenth(-6), tenth(-16), tenth(-33)],
    }
    with mp.workdps(prec.work_dps):
        for kind, c in cases.items():
            nodes = []
            g = theta_sequence(c)
            run = lambda: eq._theta_trapezoid(lambda th: (nodes.append(th), g(th)[0])[1:], prec)
            want, _ = confirmed(run)
            sampled = len(nodes)
            got, rs = recorded(run)
            assert got == want and len(nodes) == 2 * sampled, kind
            assert abs(got - mp.pi * c[0]) <= tenth(-30), kind
            assert geometric(rs) if kind == "geometric" else \
                predicted_stop_vetoed_by_ratio(rs, to_mpf(prec.quad_tol))


def test_warm_oracle_passes_take_half_the_nodes(tmp_path, monkeypatch):
    # orthogonality and ladder-coeff-integral of a warm recurrence,ladder run
    # at P = 120 sampled 1288 + 1277 integrand nodes under the confirm-only rule
    from laguerre_lab import ladder, orthopoly

    cfg = parse_config(None, {"digits": "120", "suites": "recurrence,ladder",
                              "cache_dir": str(tmp_path / "cache")})
    clear_memo()
    suites.run_suite(cfg)
    nodes = []

    def counted(f, *args, **kwargs):
        return integrate_weighted(lambda x: (nodes.append(x), f(x))[1], *args, **kwargs)

    for module in (orthopoly, ladder):
        monkeypatch.setattr(module, "integrate_weighted", counted)
    clear_memo()
    suites.run_suite(cfg)
    assert 0 < len(nodes) <= 0.55 * (1288 + 1277)


def test_unit_integrand_stops_a_level_early():
    # f = 1 at the default point, P = 120: 651 nodes, against the 1267 of
    # the confirm-only rule, which are the nodes the rule sampled before
    # the predicted-error stop
    params, prec = WeightParams("1/2", ("3/10", "1/5")), PrecisionContext(digits=120)
    counts = []
    for rule in (level_settled, confirm_only):
        nodes = []
        clear_memo()
        under_rule(rule, lambda: integrate_weighted(lambda x: (nodes.append(x), (fone,))[1],
                                                    params, prec))
        counts.append(len(nodes))
    assert counts == [651, 1267]
