import weakref
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from laguerre_lab import cli, suites
from laguerre_lab import equilibrium as eq
from laguerre_lab.config import parse_config
from laguerre_lab.errors import (
    DomainError,
    NonConvergence,
    NoPositiveRoot,
    OutOfSupport,
    RootSelectionAmbiguous,
)
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


@pytest.mark.parametrize("n,t", [(1, (10, 10)), (1, (1000, 1000)), (1, ("1e-6", 1000)),
                                 (1, (1000, "1e-6")), (2, (1000, 1000))])
def test_support_solve_starts_inside_y_above_x(n, t):
    # here X0 is above 2n + alpha: the solve starts from Y0 = X0 + 2n + alpha
    sol = eq.solve_support(n, WeightParams("0.5", t), prec=PrecisionContext(digits=50))
    with mp.workdps(sol.prec.work_dps):
        assert 0 < sol.a < sol.b
        assert abs(eq.density_normalization(sol) - n) < mpf(10) ** -25


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
        edge = eq.densities(sol, [sol.a + (sol.b - sol.a) / mpf(10 ** 12)])[0]
        closer = eq.densities(sol, [sol.a + (sol.b - sol.a) / mpf(10 ** 16)])[0]
        assert 0 <= closer < edge < mpf(10) ** -3  # vanishing sqrt factor
        assert abs(eq.density_normalization(sol) - 10) < mpf(10) ** -10
        r1, r2 = eq.supplementary_residual(sol)
        assert r1 < mpf(10) ** -10 and r2 < mpf(10) ** -10
    with pytest.raises(OutOfSupport):
        eq.densities(sol, [sol.b + 1])


def test_density_nonnegative_grid(sol):
    with mp.workdps(sol.prec.work_dps):
        xs = [sol.a + (sol.b - sol.a) * k / mpf(102) for k in range(1, 102)]
        grid = eq.densities(sol, xs)
        assert all(d >= 0 for d in grid)
        # the grid forms its coefficients once; each value has a lone call's bits
        assert grid == [eq.densities(sol, [x])[0] for x in xs]


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
    # two theta panels, through integrate_finite and through mp.quad; at
    # t = (1/1000, 1/10000), rho = 0.949
    p60 = PrecisionContext(digits=60)
    for t in (("0.3", "0.2"), ("1/1000", "1/10000")):
        sol = eq.solve_support(10, WeightParams("1", t), prec=p60)
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
            panels = [(kernel(x), lo, hi)
                      for x, c in zip(xs, cuts) for lo, hi in ((0, c), (c, mp.pi))]
            tanh_sinh = integrate_finite(panels, p60)
            for x, c, s, left, right in zip(xs, cuts, series, tanh_sinh[0::2], tanh_sinh[1::2]):
                assert abs(s - (left + right)) < mpf(10) ** -50, t
                assert abs(s - mp.quad(kernel(x), [0, c, mp.pi])) < mpf(10) ** -50, t


def cosine_partial_sum(sol, xs, J):
    """(W^2/X) (g_0 ln(W/2) - sum_{k=1}^{J} g_k cos(k phi) / k) at each x,
    from the beta_j of the bracket and the Chebyshev recurrence."""
    W, q, (p0, p1, p2) = eq._bracket_series(sol)
    beta, qj = [], mpf(1)
    for j in range(J + 3):
        beta.append(qj * (p0 + j * (p1 + j * p2)))
        qj *= q
    g = [(2 * beta[k] - beta[abs(k - 2)] - beta[k + 2]) / 2 for k in range(J + 1)]
    out = []
    for x in xs:
        cos1 = (x - sol.Y) / W
        c_prev, c, acc = mpf(1), cos1, g[1] * cos1
        for k in range(2, J + 1):
            c_prev, c = c, 2 * cos1 * c - c_prev
            acc += g[k] / k * c
        out.append(W ** 2 / sol.X * (eq._g0(q, (p0, p1, p2)) * mp.log(W / 2) - acc))
    return out


@pytest.mark.parametrize("digits", [60, 120])
@pytest.mark.parametrize("t", [("0.3", "0.2"), ("1/1000", "1/10000")],
                         ids=["rho0.849", "rho0.949"])
def test_log_potential_closed_form_matches_cosine_partial_sum(t, digits):
    # rho^J <= 10^-(P+20), so the cut tail (rho^J times a quadratic in J,
    # over 1 - rho) is far below 10^-(P+5) of the charge term 2n, the bound
    # the closed form is held to
    prec = PrecisionContext(digits=digits)
    sol = eq.solve_support(10, WeightParams("1", t), prec=prec)
    with mp.workdps(prec.work_dps):
        rho = -eq._bracket_series(sol)[1]
        J = int(mp.ceil((digits + 20) / -mp.log10(rho)))
        want = cosine_partial_sum(sol, _probes(sol), J)
        for got, ref in zip(eq.log_potential(sol, _probes(sol)), want):
            assert abs(got - ref) <= mpf(10) ** -(digits + 5) * 2 * sol.n


def test_normalization_series_matches_theta_trapezoid(sol):
    with mp.workdps(sol.prec.work_dps):
        coeffs = eq._bracket_coeffs(sol)
        (theta,) = eq.support_integral(sol.a, sol.b, lambda x: (
            (sol.b - x) * (x - sol.a) * eq._density_bracket(coeffs, x) / (2 * mp.pi * sol.X),),
            sol.prec)
        assert abs(eq.density_normalization(sol) - theta) < mpf(10) ** -110


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


def test_theta_cosine_memo_is_exact(sol, prec, monkeypatch):
    # the suite's three theta passes give the same bits with the memo cold
    # (each pass forms its own nodes' cosines) and warm (one memo held
    # across them: the appendix passes read theirs from the supplementary pass)
    formed = []
    real = eq.mpf_cos
    monkeypatch.setattr(eq, "mpf_cos", lambda th, *rest: (formed.append(th), real(th, *rest))[1])

    def passes():
        return [eq.supplementary_residual(sol)] + [
            eq.appendix_integrals(a, b, prec) for a, b in (("1", "4"), ("0.5", "2.5"))]

    with mp.workdps(prec.work_dps):
        assert len(eq._cosines) == 0
        cold, cold_formed = passes(), len(formed)
        formed.clear()
        cos_th = eq.theta_cosines()
        warm = passes()
        del cos_th
    assert warm == cold
    assert len(formed) == len(set(formed)) < cold_formed
    assert len(eq._cosines) == 0


def test_run_suite_holds_theta_cosines_while_the_suite_runs(tmp_path, monkeypatch):
    # both appendix passes read the memo the supplementary pass filled;
    # when run_suite returns, nothing holds it
    held, shared = [], []
    real = eq.appendix_integrals

    def appendix(a, b, prec):
        cos_th = eq.theta_cosines()
        shared.append(all(ref() is cos_th for ref in held))
        held.append(weakref.ref(cos_th))
        return real(a, b, prec)

    monkeypatch.setattr(eq, "appendix_integrals", appendix)
    suites.run_suite(parse_config(None, {"digits": "60", "suites": "equilibrium",
                                         "cache_dir": str(tmp_path / "cache")}))
    assert shared == [True, True]
    assert held[0]() is None and len(eq._cosines) == 0


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
        alpha, t = to_mpf(params_eq.alpha), params_eq.t_mpf()
        # the degree-5 root satisfies its polynomial
        c5 = eq.degree5_coeffs(2 * 10 * t[0], 4 * 100 * t[1], alpha)
        assert abs(eq._poly_eval(c5, x5)) < mpf(10) ** -60
        assert x5 > 0
        # x5 is a sign change of p5, not a near miss of a double root
        assert eq._poly_eval(c5, x5 * (1 - mpf(10) ** -30)) < 0
        assert eq._poly_eval(c5, x5 * (1 + mpf(10) ** -30)) > 0


def test_root_solve_evaluation_budget(sol, monkeypatch):
    # two evaluations per Newton step from the endpoint solve's X: 50 here,
    # 16 of the 25 steps polishing
    calls = []
    poly_eval = eq._poly_eval
    monkeypatch.setattr(eq, "_poly_eval", lambda c, x: calls.append(x) or poly_eval(c, x))
    eq.solve_X_equations(sol)
    assert 0 < len(calls) <= 100


def test_degenerate_polynomials(prec):
    # t = 0 factorizations: X^8 (X - alpha) and X^4 (X - alpha)
    x9, x5 = eq.solve_X_equations(eq.solve_support(10, WeightParams("1.5"), prec=prec))
    with mp.workdps(60):
        assert x9 == to_mpf("1.5") and x5 == to_mpf("1.5")


def test_newton_root_on_known_roots(prec):
    # (x-1)(x-2)(x-4) = x^3 - 7x^2 + 14x - 8
    with mp.workdps(prec.work_dps):
        coeffs = [mpf(1), mpf(-7), mpf(14), mpf(-8)]
        for start, want in (("1.2", 1), ("1.9", 2), ("4.3", 4)):
            root = eq.newton_root(coeffs, mpf(start), mpf(10) ** -40)
            assert abs(root - want) < mpf(10) ** -35


def test_newton_root_failures(prec):
    with mp.workdps(prec.work_dps):
        tol = mpf(10) ** -40
        # x^2 - 4x + 3 has a zero derivative at x = 2
        with pytest.raises(RootSelectionAmbiguous):
            eq.newton_root([mpf(1), mpf(-4), mpf(3)], mpf(2), tol)
        # x^2 + 1 has no real root, so Newton never settles
        with pytest.raises(NonConvergence):
            eq.newton_root([mpf(1), mpf(0), mpf(1)], mpf("0.5"), tol)


def test_degree5_root_must_be_positive(sol, monkeypatch):
    # the degree-5 equation has one positive root for alpha, s1, s2 > 0; a
    # Newton run that ends at a root <= 0 is a breakdown (here x + 1)
    monkeypatch.setattr(eq, "degree5_coeffs", lambda s1, s2, alpha: [mpf(1), mpf(1)])
    with pytest.raises(NoPositiveRoot):
        eq.solve_X_equations(sol)


def test_far_degree9_root_fails_its_check(tmp_path, monkeypatch, capsys):
    # a root Newton finds far from the endpoint solve's X (here x - 100)
    # fails degree9-root: exit 1, not a breakdown
    monkeypatch.setattr(eq, "degree9_coeffs", lambda n, alpha, t1, t2: [mpf(1), mpf(-100)])
    code = cli.main(["equilibrium", "--digits", "60", "--cache-dir", str(tmp_path)])
    assert code == 1
    assert "FAIL degree9-root" in capsys.readouterr().out


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
        (v,) = eq.support_integral(sol.a, sol.b, lambda x: (mpf(1),), sol.prec)
        assert abs(v - mp.pi) < mpf(10) ** -90
        one, inv = eq.support_integral(mpf(1), mpf(4), lambda x: (mpf(1), 1 / x), prec)
        assert abs(one - mp.pi) < mpf(10) ** -90
        assert abs(inv - mp.pi / 2) < mpf(10) ** -90


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
