"""Coulomb-fluid layer: support endpoints, equilibrium density, Lagrange
multiplier, the degree-9/degree-5 algebraic equations for sqrt(ab), the
Marchenko-Pastur limit, and the closed-form integral identities.

The support endpoints come from a damped Newton solve for
(X, Y) = (sqrt(ab), (a+b)/2):

    -alpha/X + 1 - t1 Y/X^3 - (3Y^2 - X^2) t2/X^5 = 0
    2n + alpha + t1/X + (2 t2/X^3 - 1) Y = 0

valid for alpha > 0, t1 > 0, t2 > 0 (convex potential, single cut); the
degenerate t = 0 limit mode gives X = alpha, Y = 2n + alpha exactly.
The density is sigma(x) = sqrt((b-x)(x-a)) (c1/x + c2/x^2 + c3/x^3) / (2 pi X).
On x = Y + W cos(theta), W = (b-a)/2, the bracket has the closed-form
cosine series (eps_0 = 1, eps_j = 2; rho = (Y-X)/W = (sqrt b - sqrt a) /
(sqrt b + sqrt a) < 1, q = -rho)

    1/x   = sum_j eps_j q^j cos(j theta) / X
    1/x^2 = sum_j eps_j q^j (jX + Y) cos(j theta) / X^3
    1/x^3 = sum_j eps_j q^j ((j^2-1) X^2 + 3jXY + 3Y^2) cos(j theta) / (2 X^5)

(1/x^2 = -d/dY 1/x and 1/x^3 = -1/2 d/dY 1/x^2 at fixed W).  Times
sin^2(theta) = (1 - cos 2 theta)/2 it gives g(theta) = sum_k g_k cos(k theta),
and with ln|cos phi - cos theta| = -ln 2 - 2 sum_k cos(k phi) cos(k theta) / k
(Mason & Handscomb, Chebyshev Polynomials, 2003) the two density
integrals the suite checks are, at x = Y + W cos(phi),

    2 int sigma(y) ln|x-y| dy = (W^2/X) (g_0 ln(W/2) - sum_{k>=1} g_k cos(k phi) / k)
    int sigma = W^2 g_0 / (2X).

The bracket's coefficients are beta_j = q^j (p0 + p1 j + p2 j^2), so the
log-potential series sums in closed form through -ln(1-z), z/(1-z) and
z/(1-z)^2 at z = q e^(i phi) (``log_potential``).  The other integrals
over the support (the endpoint conditions, the closed-form identities)
use the same substitution, under which 1/sqrt((b-x)(x-a)) weights become
trapezoid sums of smooth periodic functions (spectral accuracy); both
take it from ``support_integral``, the one theta pass.  The trapezoid
takes a batch: the integrals of one check share one pass, each
bit-identical to its lone value.  The passes read cos(theta) at their
nodes through one memo per precision (``theta_cosines``), which lives
while some reader holds it.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import fzero, mpf_add, mpf_cos, mpf_mul

from .errors import (
    DomainError,
    NonConvergence,
    NonPhysical,
    NoPositiveRoot,
    OutOfSupport,
    RootSelectionAmbiguous,
)
from .params import PrecisionContext, WeightParams, to_fraction, to_mpf
from .quadrature import QUAD_MAX_LEVEL, level_settled


class EquilibriumSolution(NamedTuple):
    """Support endpoints and derived data of the equilibrium measure."""

    n: int
    params: WeightParams
    a: mpf
    b: mpf
    A: mpf
    X: mpf
    Y: mpf
    prec: PrecisionContext


def _support_system(X, Y, n, alpha, t1, t2):
    f1 = -alpha / X + 1 - t1 * Y / X ** 3 - (3 * Y ** 2 - X ** 2) * t2 / X ** 5
    f2 = 2 * n + alpha + t1 / X + (2 * t2 / X ** 3 - 1) * Y
    return f1, f2


def verified_point(params: WeightParams) -> WeightParams:
    """The m = 2 point the equilibrium layer verifies for a configured one:
    alpha raised to at least 1, and (t1, t2) when t1 > 0 and t2 > 0, else
    (3/10, 1/5); t3 and beyond are dropped."""
    t = params.t[:2] if params.t1 > 0 and params.t2 > 0 else ("0.3", "0.2")
    return WeightParams(max(params.alpha, Fraction(1)), t)


def solve_support(n: int, params: WeightParams,
                  prec: PrecisionContext) -> EquilibriumSolution:
    """Damped Newton solve of the endpoint system in (X, Y), to a residual
    norm of 10^-(P-20).

    Initial guess X0 = alpha + (2n t1)^(1/3) + (12 n^2 t2)^(1/5),
    Y0 = 2n + alpha (exact in the t -> 0 limit, dominant-balance
    corrections otherwise), raised to X0 + 2n + alpha where it is not
    above X0; steps are halved until the residual norm decreases and the
    iterate stays in X > 0, Y > X.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    deformed = params.is_deformed
    if deformed and params.m != 2:
        raise DomainError(f"the endpoint system is written for m = 2, not m = {params.m}")
    if deformed and not (params.alpha > 0 and params.t1 > 0 and params.t2 > 0):
        raise DomainError("single-cut solve needs alpha > 0, t1 > 0, t2 > 0")
    with mp.workdps(prec.work_dps):
        alpha, t = params.materialize()
        t1 = t[0] if deformed else mpf(0)
        t2 = t[1] if deformed else mpf(0)
        tol = mpf(10) ** (-(prec.digits - 20))

        Y = mpf(2 * n) + alpha
        X = alpha + (2 * n * t1) ** mpf("1/3") + (12 * n * n * t2) ** mpf("0.2") \
            if deformed else alpha
        if X <= 0:
            X = mpf("0.5")
        if Y <= X:
            # every backtracked step stays in Y > X; so must the start
            Y = X + 2 * n + alpha

        f1, f2 = _support_system(X, Y, n, alpha, t1, t2)
        norm = abs(f1) + abs(f2)
        for _ in range(200):
            if norm <= tol:
                break
            j11 = alpha / X ** 2 + 3 * t1 * Y / X ** 4 + 15 * t2 * Y ** 2 / X ** 6 - 3 * t2 / X ** 4
            j12 = -t1 / X ** 3 - 6 * t2 * Y / X ** 5
            j21 = -t1 / X ** 2 - 6 * t2 * Y / X ** 4
            j22 = 2 * t2 / X ** 3 - 1
            det = j11 * j22 - j12 * j21
            if det == 0:
                raise NonConvergence("singular Jacobian in the endpoint solve")
            dX = (f1 * j22 - f2 * j12) / det
            dY = (f2 * j11 - f1 * j21) / det
            lam = mpf(1)
            for _ in range(60):
                Xn, Yn = X - lam * dX, Y - lam * dY
                if Xn > 0 and Yn > Xn:
                    g1, g2 = _support_system(Xn, Yn, n, alpha, t1, t2)
                    if abs(g1) + abs(g2) < norm:
                        break
                lam /= 2
            else:
                raise NonConvergence("backtracking stalled in the endpoint solve")
            X, Y, f1, f2 = Xn, Yn, g1, g2
            norm = abs(f1) + abs(f2)
        else:
            raise NonConvergence(f"Newton did not reach tol {tol}")

        gap = mp.sqrt(Y ** 2 - X ** 2)
        a, b = Y - gap, Y + gap
        if a <= 0 or not a < b:
            raise NonPhysical(f"endpoints ({a}, {b}) invalid")
        A = lagrange_closed_form(n, alpha, t1, t2, X, Y)
        return EquilibriumSolution(n=n, params=params, a=a, b=b, A=A, X=X, Y=Y, prec=prec)


def lagrange_closed_form(n, alpha, t1, t2, X, Y) -> mpf:
    """A = Y - alpha ln((X+Y)/2) - 2n ln(sqrt(Y^2-X^2)/2) + t1/X + Y t2/X^3."""
    return (Y - alpha * mp.log((X + Y) / 2)
            - 2 * n * mp.log(mp.sqrt(Y ** 2 - X ** 2) / 2)
            + t1 / X + Y * t2 / X ** 3)


def densities(sol: EquilibriumSolution, xs) -> list:
    """The equilibrium density sigma(x) at each x in xs, all in (a, b)."""
    with mp.workdps(sol.prec.work_dps):
        coeffs, scale = _bracket_coeffs(sol), 2 * mp.pi * sol.X
        out = []
        for x in map(to_mpf, xs):
            if not sol.a < x < sol.b:
                raise OutOfSupport(f"x = {x} outside ({sol.a}, {sol.b})")
            out.append(mp.sqrt((sol.b - x) * (x - sol.a)) * _density_bracket(coeffs, x) / scale)
        return out


def _bracket_coeffs(sol: EquilibriumSolution):
    """(c1, c2, c3) of the density bracket at the working precision."""
    alpha, t = sol.params.materialize()
    t1 = t[0] if sol.params.is_deformed else mpf(0)
    t2 = t[1] if sol.params.is_deformed else mpf(0)
    X, Y = sol.X, sol.Y
    c1 = alpha + Y * t1 / X ** 2 + (3 * Y ** 2 - X ** 2) * t2 / X ** 4
    c2 = t1 + 2 * Y * t2 / X ** 2
    return c1, c2, 2 * t2


def _density_bracket(coeffs, x) -> mpf:
    """2 pi sqrt(ab) sigma(x) / sqrt((b-x)(x-a)) = c1/x + c2/x^2 + c3/x^3,
    from the ``_bracket_coeffs`` of the solution."""
    c1, c2, c3 = coeffs
    return c1 / x + c2 / x ** 2 + c3 / x ** 3


def _theta_trapezoid(g, prec: PrecisionContext) -> list:
    """int_0^pi g_i(theta) dtheta for g(theta) = (g_1(theta), g_2(theta), ...)
    by trapezoid doubling (spectral for the even periodic extensions
    produced by the cosine substitution).

    The integrands share the nodes and whatever g computes once per node.
    Each keeps its own sums and stop test, ``level_settled`` normalised by
    |total| + 1: the error of a smooth periodic integrand falls like
    e^(-cN), so each doubling about doubles its digits and a pass stops on
    the predicted error of the last level once that shows.  Each stops at
    the level where a lone pass would, so its value is bit-identical to
    that pass; none stops before the fifth doubling (256 intervals).
    """
    with mp.workdps(prec.work_dps):
        N = 8
        vals = list(zip(*[g(mp.pi * k / N) for k in range(N + 1)]))
        total = [mp.pi / N * (v[0] / 2 + mp.fsum(v[1:-1]) + v[-1] / 2) for v in vals]
        live = list(range(len(total)))
        rel = [None] * len(total)
        for level in range(QUAD_MAX_LEVEL + 8):
            mids = list(zip(*[g(mp.pi * (2 * k + 1) / (2 * N)) for k in range(N)]))
            running = []
            for i in live:
                new_total = total[i] / 2 + mp.pi / (2 * N) * mp.fsum(mids[i])
                done, rel[i] = level_settled(abs(new_total - total[i]), abs(new_total) + 1,
                                             prec.quad_tol, rel[i])
                total[i] = new_total
                if not (done and level >= 4):
                    running.append(i)
            live, N = running, 2 * N
            if not live:
                return total
        raise NonConvergence(f"theta trapezoid: no convergence in {QUAD_MAX_LEVEL + 8} levels")


#: the theta-node cosines some reader holds, by binary precision
_cosines = weakref.WeakValueDictionary()


def theta_cosines():
    """cos_th(theta): mp.cos of a theta node at the working precision, bit
    for bit, memoized by node.  A pass holds cos_th while it runs; a caller
    that holds it across passes at one precision lets them share the
    cosines of their common nodes (the equilibrium suite does while it runs)."""
    wp, rnd = mp._prec_rounding
    cos_th = _cosines.get(wp)
    if cos_th is None:
        memo = {}

        def cos_th(th):
            c = memo.get(th._mpf_)
            if c is None:
                c = memo[th._mpf_] = mp.make_mpf(mpf_cos(th._mpf_, wp, rnd))
            return c

        _cosines[wp] = cos_th
    return cos_th


def support_integral(a, b, f, prec: PrecisionContext) -> list:
    """int_a^b f_i(x) / sqrt((b-x)(x-a)) dx for f(x) = (f_1(x), f_2(x), ...)
    via the cosine substitution x = (a+b)/2 + (b-a)/2 cos(theta), in one
    theta pass at prec."""
    with mp.workdps(prec.work_dps):
        mid = (a + b) / 2
        W = (b - a) / 2
        cos_th = theta_cosines()
        return _theta_trapezoid(lambda th: f(mid + W * cos_th(th)), prec)


def _bracket_series(sol: EquilibriumSolution):
    """(W, q, (p0, p1, p2)): on y = Y + W cos(theta) the density bracket is
    sum_j eps_j beta_j cos(j theta) with beta_j = q^j (p0 + p1 j + p2 j^2),
    the cosine series of c1/y + c2/y^2 + c3/y^3."""
    c1, c2, c3 = _bracket_coeffs(sol)
    X, Y = sol.X, sol.Y
    W = (sol.b - sol.a) / 2
    p0 = c1 / X + c2 * Y / X ** 3 + c3 * (3 * Y ** 2 - X ** 2) / (2 * X ** 5)
    p1 = c2 / X ** 2 + 3 * c3 * Y / (2 * X ** 4)
    p2 = c3 / (2 * X ** 3)
    return W, -(Y - X) / W, (p0, p1, p2)


def _g0(q, p) -> mpf:
    """g_0 = (beta_0 - beta_2) / 2 of g(theta) = sin^2(theta) * bracket."""
    p0, p1, p2 = p
    return (p0 - q ** 2 * (p0 + 2 * p1 + 4 * p2)) / 2


def density_normalization(sol: EquilibriumSolution) -> mpf:
    """int_a^b sigma(x) dx = W^2 g_0 / (2X), which the multiplier pins to n."""
    with mp.workdps(sol.prec.work_dps):
        W, q, p = _bracket_series(sol)
        return W ** 2 * _g0(q, p) / (2 * sol.X)


def supplementary_residual(sol: EquilibriumSolution):
    """(|int v'/sqrt|, |int x v'/sqrt - 2 pi n|): the two endpoint conditions."""
    with mp.workdps(sol.prec.work_dps):
        vprime = sol.params.potential_derivative_raw()

        def g(x):
            v = mp.make_mpf(vprime(x._mpf_))
            return v, x * v

        r1, r2 = support_integral(sol.a, sol.b, g, sol.prec)
        return abs(r1), abs(r2 - 2 * mp.pi * sol.n)


def log_potential(sol: EquilibriumSolution, xs) -> list:
    """2 int_a^b sigma(y) ln|x-y| dy at each interior x in xs: the cosine
    series of the module docstring, summed in closed form.

    With beta_j = q^j P(j), g_k = (2 beta_k - beta_(k-2) - beta_(k+2)) / 2
    = q^k Q(k) / 2 for k >= 2, Q(k) = 2 P(k) - P(k-2)/q^2 - q^2 P(k+2) =
    Q0 + Q1 k + Q2 k^2, and g_1 = (beta_1 - beta_3)/2.  So the series is
    Re (Q0 (-ln(1-z)) + Q1 z/(1-z) + Q2 z/(1-z)^2) / 2 at z = q e^(i phi),
    cos phi = (x - Y)/W, plus (g_1 - q Q(1)/2) cos phi.
    """
    with mp.workdps(sol.prec.work_dps):
        xs = [to_mpf(x) for x in xs]
        for x in xs:
            if not sol.a < x < sol.b:
                raise OutOfSupport(f"probe {x} outside the support")
        W, q, (p0, p1, p2) = _bracket_series(sol)
        q2 = q * q
        Q0 = 2 * p0 - (p0 - 2 * p1 + 4 * p2) / q2 - q2 * (p0 + 2 * p1 + 4 * p2)
        Q1 = 2 * p1 - (p1 - 4 * p2) / q2 - q2 * (p1 + 4 * p2)
        Q2 = p2 * (2 - 1 / q2 - q2)
        first = ((p0 - p1 + p2) / q - q * (p0 + p1 + p2)) / 2  # g_1 - q Q(1)/2
        charge = _g0(q, (p0, p1, p2)) * mp.log(W / 2)
        out = []
        for x in xs:
            c = (x - sol.Y) / W
            qc = q * c  # Re z
            m = 1 - 2 * qc + q2  # |1 - z|^2
            series = (-Q0 * mp.log(m) / 2 + Q1 * (qc - q2) / m
                      + Q2 * (qc * (1 + q2) - 2 * q2) / m ** 2) / 2 + first * c
            out.append(W ** 2 / sol.X * (charge - series))
        return out


def equilibrium_condition_residual(sol: EquilibriumSolution, xs) -> list:
    """|v(x) - 2 int sigma(y) ln|x-y| dy - A| at each interior probe x in xs.

    The log potential is the cosine series of the module docstring
    (``log_potential``), from the kernel expansion
    ln|cos phi - cos theta| = -ln 2 - 2 sum_k cos(k phi) cos(k theta) / k
    (Mason & Handscomb, Chebyshev Polynomials, 2003), summed in closed
    form: no term is cut.
    """
    with mp.workdps(sol.prec.work_dps):
        xs = [to_mpf(x) for x in xs]
        return [abs(-sol.params.log_weight(x) - pot - sol.A)
                for x, pot in zip(xs, log_potential(sol, xs))]


# --------------------------------------------------------------------------
# polynomial route for X = sqrt(ab)
# --------------------------------------------------------------------------

def degree9_coeffs(n, alpha, t1, t2):
    """Descending coefficients of the degree-9 equation for X."""
    return [
        mpf(1),
        -alpha,
        mpf(0),
        -((2 * n + alpha) * t1 + 3 * t2),
        4 * alpha * t2 - t1 ** 2,
        -3 * t2 * (2 * n + alpha) ** 2,
        -4 * t1 * t2 * (2 * n + alpha),
        -t2 * (t1 ** 2 + 4 * alpha * t2),
        mpf(0),
        4 * t2 ** 3,
    ]


def degree5_coeffs(s1, s2, alpha):
    """Descending coefficients of the double-scaled degree-5 equation."""
    return [mpf(1), -alpha, mpf(0), -s1, mpf(0), -3 * s2]


def _poly_eval(coeffs, x):
    """Horner's rule for descending mpf coefficients at mpf x, on raw tuples."""
    wp, rnd = mp._prec_rounding
    x, acc = x._mpf_, fzero
    for c in coeffs:
        acc = mpf_add(mpf_mul(acc, x, wp, rnd), c._mpf_, wp, rnd)
    return mp.make_mpf(acc)


def _poly_derivative(coeffs):
    d = len(coeffs) - 1
    return [c * (d - i) for i, c in enumerate(coeffs[:-1])]


#: Newton steps a root may take before it settles
NEWTON_CAP = 100


def newton_root(coeffs, x, tol):
    """The root Newton's method reaches from x: it steps until a step is
    at most tol max(1, |x|), then takes 8 polish steps.  A zero
    derivative (a multiple root) raises RootSelectionAmbiguous; a run
    that does not settle within NEWTON_CAP steps raises NonConvergence."""
    dp = _poly_derivative(coeffs)

    def step(x):
        d = _poly_eval(dp, x)
        if d == 0:
            raise RootSelectionAmbiguous(f"zero derivative at {x}: a multiple root")
        return _poly_eval(coeffs, x) / d

    for _ in range(NEWTON_CAP):
        dx = step(x)
        x -= dx
        if abs(dx) <= tol * max(1, abs(x)):
            break
    else:
        raise NonConvergence(f"Newton did not settle within {NEWTON_CAP} steps")
    for _ in range(8):
        x -= step(x)
    return x


def solve_X_equations(sol: EquilibriumSolution):
    """(X from the degree-9 equation, X from the double-scaled degree-5)
    at the solution's n, point and precision.

    Each root is ``newton_root`` from the endpoint solve's X, to
    tol = 10^-(P-30).  sol.X lies within 10^-(P-20) of a simple root of
    the degree-9 equation, so Newton lands on the root nearest sol.X.
    The degree-5 equation takes s1 = 2n t1, s2 = 4 n^2 t2; for
    alpha > 0, s1 > 0, s2 > 0 (the domain ``solve_support`` admits) its
    coefficients 1, -alpha, 0, -s1, 0, -3 s2 change sign once, so by
    Descartes' rule of signs it has exactly one positive root, which is
    therefore its largest.  A degree-5 root x5 <= 0 raises NoPositiveRoot.
    """
    n, params, prec = sol.n, sol.params, sol.prec
    with mp.workdps(prec.work_dps):
        alpha, t = params.materialize()
        tol = mpf(10) ** (-(prec.digits - 30))
        if not params.is_deformed:
            return alpha, alpha  # X^8 (X - alpha) and X^4 (X - alpha)
        t1, t2 = t[0], t[1]
        x9 = newton_root(degree9_coeffs(n, alpha, t1, t2), sol.X, tol)
        x5 = newton_root(degree5_coeffs(2 * n * t1, 4 * n * n * t2, alpha), sol.X, tol)
        if x5 <= 0:
            raise NoPositiveRoot(f"the degree-5 equation's Newton root {x5} is not positive")
        return x9, x5


# --------------------------------------------------------------------------
# Marchenko-Pastur limit and the closed-form integral identities
# --------------------------------------------------------------------------

def mp_limit_check(y, n: int, alpha, prec: PrecisionContext):
    """(sigma(4 n y) at finite n in the t -> 0 limit mode, the
    Marchenko-Pastur value (1/2pi) sqrt((1-y)/y), their gap)."""
    y = to_fraction(y)
    if not Fraction(0) < y < Fraction(1):
        raise DomainError("y must be in (0, 1)")
    params = WeightParams(alpha, ())
    sol = solve_support(n, params, prec=prec)
    with mp.workdps(prec.work_dps):
        x = 4 * n * to_mpf(y)
        (dens,) = densities(sol, [x])
        mpv = mp.sqrt((1 - to_mpf(y)) / to_mpf(y)) / (2 * mp.pi)
        return dens, mpv, abs(dens - mpv)


def appendix_integrals(a, b, prec: PrecisionContext):
    """Residuals of the six closed forms of int_a^b g(x)/sqrt((b-x)(x-a)) dx
    for g = 1, ln x, x, 1/x, 1/x^2, 1/x^3, against the quadrature route."""
    a, b = to_mpf(a), to_mpf(b)
    if not 0 < a < b:
        raise DomainError("need 0 < a < b")
    with mp.workdps(prec.work_dps):
        ab = a * b
        closed = [
            ("appendix-1", mp.pi),
            ("appendix-lnx", 2 * mp.pi * mp.log((mp.sqrt(a) + mp.sqrt(b)) / 2)),
            ("appendix-x", (a + b) / 2 * mp.pi),
            ("appendix-xinv1", mp.pi / mp.sqrt(ab)),
            ("appendix-xinv2", (a + b) * mp.pi / (2 * ab ** mpf("1.5"))),
            ("appendix-xinv3", (3 * (a + b) ** 2 - 4 * ab) * mp.pi / (8 * ab ** mpf("2.5"))),
        ]
        nums = support_integral(
            a, b, lambda x: (mpf(1), mp.log(x), x, 1 / x, 1 / x ** 2, 1 / x ** 3), prec)
        return [(cid, abs(num - value)) for (cid, value), num in zip(closed, nums)]
