from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from laguerre_lab import equilibrium as eq
from laguerre_lab.errors import DomainError, NonConvergence, OutOfSupport
from laguerre_lab.params import PrecisionContext, WeightParams, to_mpf
from laguerre_lab.quadrature import integrate_finite


@pytest.fixture(scope="module")
def prec():
    return PrecisionContext(digits=120)


@pytest.fixture(scope="module")
def params_eq():
    return WeightParams("1", ("0.3", "0.2"))


@pytest.fixture(scope="module")
def sol(params_eq, prec):
    return eq.solve_support(10, params_eq, prec=prec)


def test_support_solution(sol):
    with mp.workdps(sol.prec.work_dps):
        assert 0 < sol.a < sol.b
        assert abs(sol.X ** 2 - sol.a * sol.b) < mpf(10) ** -90
        assert abs(sol.Y - (sol.a + sol.b) / 2) < mpf(10) ** -90
        assert sol.X <= sol.Y  # AM-GM


def test_support_preconditions(prec):
    with pytest.raises(DomainError):
        eq.solve_support(10, WeightParams("1", ("-0.3", "0.2")), prec=prec)
    with pytest.raises(DomainError):
        eq.solve_support(0, WeightParams("1", ("0.3", "0.2")), prec=prec)
    # the endpoint system is the m = 2 one; t3 is not dropped silently
    with pytest.raises(DomainError):
        eq.solve_support(10, WeightParams("1", ("0.3", "0.2", "0.1")), prec=prec)


def test_verified_point():
    # alpha >= 1, (t1, t2) of the configuration when both are > 0, t3 dropped
    assert eq.verified_point(WeightParams("0.5", ("0.3", "0.2", "0.1"))) == \
        WeightParams("1", ("0.3", "0.2"))
    assert eq.verified_point(WeightParams("2", ("0.4", "0.1"))) == \
        WeightParams("2", ("0.4", "0.1"))
    for t in (("-0.3", "0.2"), ("0", "0"), ("0.3", "-0.2", "0.1")):
        assert eq.verified_point(WeightParams("1", t)) == WeightParams("1", ("0.3", "0.2"))


def test_density_boundary_and_normalization(sol):
    with mp.workdps(sol.prec.work_dps):
        edge = eq.density(sol, sol.a + (sol.b - sol.a) / mpf(10 ** 12))
        closer = eq.density(sol, sol.a + (sol.b - sol.a) / mpf(10 ** 16))
        assert 0 <= closer < edge < mpf(10) ** -3  # vanishing sqrt factor
        assert abs(eq.density_normalization(sol) - 10) < mpf(10) ** -10
        r1, r2 = eq.supplementary_residual(sol)
        assert r1 < mpf(10) ** -10 and r2 < mpf(10) ** -10
    with pytest.raises(OutOfSupport):
        eq.density(sol, sol.b + 1)


def test_density_nonnegative_grid(sol):
    with mp.workdps(sol.prec.work_dps):
        for k in range(1, 102):
            x = sol.a + (sol.b - sol.a) * k / mpf(102)
            assert eq.density(sol, x) >= 0


def _probes(sol):
    return [sol.a + mpf(q) * (sol.b - sol.a) for q in ("0.25", "0.5", "0.75")]


def test_equilibrium_condition(sol):
    with mp.workdps(sol.prec.work_dps):
        for res in eq.equilibrium_condition_residual(sol, _probes(sol)):
            assert res < mpf(10) ** -93
    with pytest.raises(OutOfSupport):
        eq.equilibrium_condition_residual(sol, [sol.b + 1])


def test_log_potential_series_matches_tanh_sinh_and_mp_quad():
    # two quadrature routes: the log kernel split at its singularity into
    # two theta panels, through integrate_finite and through mp.quad
    p60 = PrecisionContext(digits=60)
    sol = eq.solve_support(10, WeightParams("1", ("0.3", "0.2")), prec=p60)
    with mp.workdps(p60.work_dps):
        xs = _probes(sol)
        series = eq.log_potential(sol, xs)
        mid, W = (sol.a + sol.b) / 2, (sol.b - sol.a) / 2
        coeffs = eq._bracket_coeffs(sol)

        def kernel(x):
            def g(th):
                y = mid + W * mp.cos(th)
                d = abs(x - y)
                if d == 0:  # a node that rounds onto the probe; its weight is negligible
                    return mpf(0)
                return mp.log(d) * (W * mp.sin(th)) ** 2 * eq._density_bracket(coeffs, y) \
                    / (mp.pi * sol.X)
            return g

        cuts = [mp.acos((x - mid) / W) for x in xs]
        panels = [(kernel(x), lo, hi) for x, c in zip(xs, cuts) for lo, hi in ((0, c), (c, mp.pi))]
        tanh_sinh = integrate_finite(panels, p60)
        for x, c, s, left, right in zip(xs, cuts, series, tanh_sinh[0::2], tanh_sinh[1::2]):
            assert abs(s - (left + right)) < mpf(10) ** -50
            assert abs(s - mp.quad(kernel(x), [0, c, mp.pi])) < mpf(10) ** -50


def test_normalization_series_matches_theta_trapezoid(sol):
    with mp.workdps(sol.prec.work_dps):
        coeffs = eq._bracket_coeffs(sol)
        (theta,) = eq.support_integral(sol, lambda x: (
            (sol.b - x) * (x - sol.a) * eq._density_bracket(coeffs, x) / (2 * mp.pi * sol.X),))
        assert abs(eq.density_normalization(sol) - theta) < mpf(10) ** -110


def test_log_potential_tail_bound_holds(monkeypatch):
    # summing twice the terms moves the potential by at most the bound
    # series_terms guarantees: 10^-(P+5) of the charge term 2n
    p60 = PrecisionContext(digits=60)
    sol = eq.solve_support(10, WeightParams("1", ("0.3", "0.2")), prec=p60)
    with mp.workdps(p60.work_dps):
        cut = eq.log_potential(sol, _probes(sol))
        J = eq.series_terms(sol)
        monkeypatch.setattr(eq, "series_terms", lambda s: 2 * J)
        for short, long in zip(cut, eq.log_potential(sol, _probes(sol))):
            assert abs(short - long) <= 20 * mpf(10) ** -65


def test_series_term_cap_raises_nonconvergence(sol, monkeypatch):
    # the default point needs 1805 terms; a cap of 8 * 2^(-5 + 8) = 64 is too few
    monkeypatch.setattr(eq, "QUAD_MAX_LEVEL", -5)
    with pytest.raises(NonConvergence):
        eq.equilibrium_condition_residual(sol, _probes(sol))


def test_condition_probes_batch_is_bit_identical_to_lone(sol):
    with mp.workdps(sol.prec.work_dps):
        xs = [sol.a + mpf(q) * (sol.b - sol.a) for q in ("0.3", "0.6")]
        assert eq.equilibrium_condition_residual(sol, xs) == [
            eq.equilibrium_condition_residual(sol, [x])[0] for x in xs]


def test_theta_batch_is_bit_identical_to_lone(prec):
    integrands = (
        lambda th: mpf(1),
        lambda th: mp.exp(mp.cos(th)),
        lambda th: mp.log(3 + mp.cos(th)),
        lambda th: 1 / (mpf("1.01") + mp.cos(th)),  # near a pole: three more levels
    )
    lone, samples = [], []
    for g in integrands:
        nodes = []
        lone.append(eq._theta_trapezoid(
            lambda th, g=g: (nodes.append(th), g(th))[1:], prec)[0])
        samples.append(len(nodes))
    assert len(set(samples)) > 1  # they stop at different levels
    assert eq._theta_trapezoid(lambda th: tuple(g(th) for g in integrands), prec) == lone


def test_theta_level_cap_raises_nonconvergence(monkeypatch):
    # a jump converges like O(h) and never meets the tolerance.  The rule
    # reads only these two fields; a cap of 0 keeps the test to
    # QUAD_MAX_LEVEL + 8 = 8 levels
    monkeypatch.setattr(eq, "QUAD_MAX_LEVEL", 0)
    prec = SimpleNamespace(work_dps=40, quad_tol=Fraction(1, 10 ** 30))
    with pytest.raises(NonConvergence):
        eq._theta_trapezoid(lambda th: (mpf(1), mpf(1) if th < 1 else mpf(0)), prec)


def test_lagrange_limit_value(prec):
    sol0 = eq.solve_support(10, WeightParams("1"), prec=prec)
    with mp.workdps(prec.work_dps):
        n, am = 10, mpf(1)
        want = 2 * n + am - (n + am) * mp.log(n + am) - n * mp.log(n)
        assert abs(sol0.A - want) < mpf(10) ** -90
        assert abs(sol0.X - 1) < mpf(10) ** -90
        assert abs(sol0.Y - 21) < mpf(10) ** -90


def test_degree9_matches_newton(params_eq, prec, sol):
    x9, x5 = eq.solve_X_equations(sol)
    with mp.workdps(prec.work_dps):
        assert abs(x9 - sol.X) < mpf(10) ** -10
        alpha, t = params_eq.materialize()
        # the degree-5 root satisfies its polynomial
        c5 = eq.degree5_coeffs(2 * 10 * t[0], 4 * 100 * t[1], alpha)
        assert abs(eq._poly_eval(c5, x5)) < mpf(10) ** -60
        assert x5 > 0


def test_degenerate_polynomials(prec):
    # t = 0 factorizations: X^8 (X - alpha) and X^4 (X - alpha)
    x9, x5 = eq.solve_X_equations(eq.solve_support(10, WeightParams("1.5"), prec=prec))
    with mp.workdps(60):
        assert x9 == to_mpf("1.5") and x5 == to_mpf("1.5")


def test_sturm_isolation_on_known_roots(prec):
    # (x-1)(x-2)(x-4) = x^3 - 7x^2 + 14x - 8
    with mp.workdps(prec.work_dps):
        coeffs = [mpf(1), mpf(-7), mpf(14), mpf(-8)]
        roots = eq.positive_roots(coeffs, mpf(10), mpf(10) ** -40)
        assert len(roots) == 3
        for r, want in zip(roots, (1, 2, 4)):
            assert abs(r - want) < mpf(10) ** -35


def test_mp_limit(prec):
    p60 = PrecisionContext(digits=60)
    with mp.workdps(70):
        dens, mpv, gap = eq.mp_limit_check(Fraction(1, 2), 200, "1", p60)
        # MP value at y = 1/2 is 1/(2 pi)
        assert abs(mpv - 1 / (2 * mp.pi)) < mpf(10) ** -50
        _, _, gap200 = eq.mp_limit_check(Fraction(1, 4), 200, "1", p60)
        _, _, gap400 = eq.mp_limit_check(Fraction(1, 4), 400, "1", p60)
        assert gap200 < mpf("0.01")
        assert mpf("0.35") < gap400 / gap200 < mpf("0.65")
    with pytest.raises(DomainError):
        eq.mp_limit_check(Fraction(3, 2), 200, "1", p60)


def test_appendix_identities(prec):
    with mp.workdps(prec.work_dps):
        for (a, b) in (("1", "4"), ("0.5", "2.5")):
            out = eq.appendix_integrals(a, b, prec)
            assert len(out) == 6
            for cid, res in out:
                assert res < mpf(10) ** -60, cid
    with pytest.raises(DomainError):
        eq.appendix_integrals("4", "1", prec)


def test_appendix_specific_values(prec):
    # plain integral is pi; the 1/x variant is pi/sqrt(ab) = pi/2 at (1,4)
    with mp.workdps(prec.work_dps):
        sol = eq.solve_support(10, WeightParams("1", ("0.3", "0.2")), prec=prec)
        (v,) = eq.support_integral(sol, lambda x: (mpf(1),))
        assert abs(v - mp.pi) < mpf(10) ** -90


@settings(max_examples=5, deadline=None)
@given(n=st.integers(min_value=1, max_value=40),
       a10=st.integers(min_value=2, max_value=30),
       t110=st.integers(min_value=1, max_value=12),
       t210=st.integers(min_value=1, max_value=12))
def test_support_property(n, a10, t110, t210):
    params = WeightParams(Fraction(a10, 10), (Fraction(t110, 10), Fraction(t210, 10)))
    prec = PrecisionContext(digits=60)
    sol = eq.solve_support(n, params, prec=prec)
    with mp.workdps(70):
        assert 0 < sol.a < sol.b
        assert sol.X <= sol.Y
        # consistency triangle: degree-9 root agrees with the Newton X
        x9, _ = eq.solve_X_equations(sol)
        assert abs(x9 - sol.X) < mpf(10) ** -8
