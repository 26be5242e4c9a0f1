"""Suite orchestration: wire every verification into residual reports.

Each suite function takes a RunConfig and returns a ResidualReport whose
entry ids exactly match the registry for that suite.  Tables are pulled
through the exact-binary table cache so a warm rerun skips quadrature and
reproduces values (and therefore serialized reports) bit for bit.

The cache's memo holds a table only while a reader does, so ``run_suite``
holds what a later reader reads again (``_hold``): the tables the suites
read through ``_table``, with the seeds their builds read, and the
configured point's stencil grid, whose nodes calculus, sigma-pde and
multitime share.  It lets them go when it returns.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import fone

from . import calculus as ca
from . import equilibrium as eq
from . import ladder as ld
from . import multitime as mt
from . import scaling as sc
from .cache import cached_recurrence_table
from .config import RunConfig
from .errors import DomainError
from .orthopoly import (
    christoffel_darboux_residual,
    hankel_determinant,
    moment_determinant,
    orthogonality_residual,
)
from .params import PrecisionContext, WeightParams, to_mpf
from .quadrature import integrate_weighted, moment, moments
from .reports import Check, ResidualReport, floored, sign_check

#: deterministic seed data for the random admissible points of the
#: discriminant sign check (simple LCG so no library RNG is involved)
_LCG_SEED = 20240917


def _lcg_uniform(state):
    state = (6364136223846793005 * state + 1442695040888963407) % (1 << 64)
    return state, Fraction(state >> 11, 1 << 53)


def _point_meta(params: WeightParams) -> str:
    return f"alpha={params.alpha};t={','.join(str(v) for v in params.t)}"


def _meta(config: RunConfig, **extra) -> dict:
    meta = {
        "point": _point_meta(config.params),
        "digits": config.prec.digits,
        "n_max": config.n_max,
    }
    meta.update(extra)
    return meta


#: the depth of the configured point's grid tables and multitime's row (moments,
#: recurrence and ladder read it 12 deep at the default n_max); a table's first
#: rows have the same bits at any depth of one precision
_POINT_DEPTH = 5


#: what the running ``run_suite`` holds for its later readers; None outside a run
_held = None


def _hold(obj):
    """obj, held until the running ``run_suite`` returns (outside a run, by
    no one but the caller)."""
    if _held is not None:
        _held.append(obj)
    return obj


def _table(config: RunConfig, params: WeightParams, N: int):
    """The depth-N table at params through the configured cache, held for
    the run with the seeds its build read."""
    return _hold(cached_recurrence_table(params, N, config.prec, cache_dir=config.cache_dir,
                                         keep=_held))


def _stencil_grid(config: RunConfig, point: WeightParams, depth: int, levels: int = 3,
                  prec: PrecisionContext = None):
    """The stencil grid of ``levels`` levels at point whose nodes are
    depth-``depth`` tables through the configured cache, at the configured
    precision unless prec is given."""
    prec = config.prec if prec is None else prec
    return ca.StencilGrid(point, prec, ca.table_bundle_builder(depth, prec, config.cache_dir),
                          levels)


#: the scaled grids some reader holds, by their arguments
_scaled = weakref.WeakValueDictionary()


def scaled_grid(config: RunConfig, s1, s2) -> sc.ScaledGrid:
    """The scaled grid at (s1, s2) over the configured n_list, alpha,
    precision and cache; while a reader holds one, the same grid."""
    key = (s1, s2, config.n_list, config.prec, config.params.alpha, config.cache_dir)
    grid = _scaled.get(key)
    if grid is None:
        grid = _scaled[key] = sc.ScaledGrid(s1, s2, config.n_list, config.prec,
                                            alpha=config.params.alpha,
                                            cache_dir=config.cache_dir)
    return grid


def equilibrium_solution(config: RunConfig) -> eq.EquilibriumSolution:
    """The n = 10 equilibrium solution at the verified point of config."""
    return eq.solve_support(10, eq.verified_point(config.params), prec=config.prec)


def moments_suite(config: RunConfig) -> ResidualReport:
    rep = ResidualReport("moments", metadata=_meta(config))
    params, prec = config.params, config.prec
    tab = _table(config, params, 12)
    with mp.workdps(prec.work_dps):
        half = to_mpf(prec.half_eps)
        kmin = -params.m if params.is_deformed else 0
        quad = moments(params, kmin, 11, prec)
        rep.add(sign_check("moment-positive", [v for k, v in quad.items() if k <= 6],
                           half, f"k={kmin}..6"))
        # the table's moments (Pearson recurrence) against the full sweep
        dev = max(abs(tab.moments[k] - v) / abs(v) for k, v in quad.items())
        rep.add(Check("moment-pearson", dev, 10 * to_mpf(prec.quad_tol), f"k={kmin}..11"))
        rep.add(sign_check("hankel-positive-definite",
                           [moment_determinant(tab, nn) for nn in range(1, 13)], half, "N<=12"))
        # relative where |mu_0| > 1: mu_0 is 1.35e40 at t = (-4, 1/25)
        lo = moment(0, params, PrecisionContext(digits=max(50, prec.digits // 2)))
        rep.add(Check("precision-doubling", abs(lo - quad[0]) / max(1, abs(quad[0])),
                      mpf(10) ** (-(max(50, prec.digits // 2) - 10)), "k=0"))
        (a,) = integrate_weighted(lambda x: (fone,), params, prec)
        (b,) = integrate_weighted(lambda x: (fone,), params, prec, mapping="expsinh")
        rep.add(Check("map-invariance", abs(a - b), floored(10 * to_mpf(prec.quad_tol) * abs(a)),
                      "f=1"))
    return rep


def recurrence_suite(config: RunConfig) -> ResidualReport:
    rep = ResidualReport("recurrence", metadata=_meta(config))
    params, prec = config.params, config.prec
    N = max(config.n_max + 2, 8)
    tab = _table(config, params, N)
    with mp.workdps(prec.work_dps):
        half = to_mpf(prec.half_eps)
        worst = max(orthogonality_residual(tab, ((1, 0), (4, 2), (8, 3), (6, 6))))
        rep.add(Check("orthogonality", worst, half, "pairs<=8"))
        worst = max(
            abs(mp.fsum(tab.alpha(j) for j in range(nn)) + tab.p(nn))
            for nn in range(1, config.n_max + 1)
        )
        rep.add(Check("alpha-sum-rule", worst, half, f"n<={config.n_max}"))
        rep.add(sign_check("beta-positive", [tab.beta(nn) for nn in range(1, N + 1)],
                           half, f"n<={N}"))
        d4 = hankel_determinant(tab, 4)
        rep.add(Check("hankel-product", abs(d4 - moment_determinant(tab, 4)),
                      floored(mpf(10) ** (-(prec.digits - 50)) * abs(d4)), "n=4"))
        worst = max(
            christoffel_darboux_residual(tab, 6, "0.5", "2.0"),
            christoffel_darboux_residual(tab, 6, mpf(2) + mpf(10) ** (-prec.digits // 4), 2),
        )
        rep.add(Check("christoffel-darboux", worst, half, "n=6"))
    # the deformation moves alpha_n, beta_n by O(t1^min(1, alpha+1)); hold that to 1e-6
    e = math.ceil(Fraction(6) / min(1, params.alpha + 1))
    t1 = Fraction(1, 10 ** e)
    ctab = cached_recurrence_table(WeightParams(params.alpha, (t1, t1 * t1)), 4,
                                   PrecisionContext(digits=60), cache_dir=config.cache_dir)
    with mp.workdps(70):
        am = to_mpf(params.alpha)
        worst = max(abs(ctab.alpha(nn) - (2 * nn + 1 + am)) for nn in range(4))
        worst = max(worst, max(abs(ctab.beta(nn) - nn * (nn + am)) for nn in range(1, 5)))
        rep.add(Check("classical-limit", worst, mpf(10) ** -4, f"t1=1e-{e},t2=t1^2"))
    return rep


def ladder_suite(config: RunConfig) -> ResidualReport:
    rep = ResidualReport("ladder", metadata=_meta(config))
    params, prec = config.params, config.prec
    if params.m != 2:
        raise DomainError("ladder suite needs m = 2")
    n_top = min(config.n_max, 10)
    tab = _table(config, params, n_top + 2)
    aux = ld.aux_rows(tab, n_top + 2)
    iterated = ld.iterate_difference_system(tab, n_top, prec)
    with mp.workdps(prec.work_dps):
        half = to_mpf(prec.half_eps)
        triple = half * mpf(10) ** 10
        t1 = to_mpf(params.t1)

        rep.add(Check("aux-initial-r", abs(aux[0].r[0]) + abs(aux[0].r[1]), half, "n=0"))
        mu = tab.moments
        rep.add(Check("aux-initial-R",
                      abs(aux[0].R[0] - t1 * mu[-1] / mu[0])
                      + abs(aux[0].R[1] - 2 * to_mpf(params.t2) * mu[-2] / mu[0]),
                      half, "n=0"))
        rows = aux[:n_top + 1]
        rep.add(sign_check("aux-sign-R", [mp.sign(t1) * a.R[0] for a in rows],
                           half, f"n<={n_top}"))
        rep.add(sign_check("aux-sign-Rstar", [a.R[1] for a in rows], half, f"n<={n_top}"))

        res = [ld.row_residuals(tab, aux, nn, prec) for nn in range(n_top + 1)]
        rep.add(Check("alpha-aux", max(r.alpha for r in res), triple, f"n<={n_top}"))
        rep.add(Check("beta-aux", max(r.beta for r in res[1:]), triple, f"n<={n_top}"))
        rep.add(Check("iteration-agree", ld.iteration_deviation(aux, iterated),
                      triple, f"n<={n_top}"))

        zs = ("0.7", "2", "5")
        lo = ro = s1r = s2r = s2pr = mpf(0)
        for nn in range(min(6, n_top) + 1):
            for z in zs:
                a, b = ld.ladder_residuals(tab, aux, nn, z)
                lo, ro = max(lo, a), max(ro, b)
                c1, c2, c3 = ld.compatibility_residuals(tab, aux, nn, z)
                s1r, s2r, s2pr = max(s1r, c1), max(s2r, c2), max(s2pr, c3)
        ptz = f"n<=6;z={{{','.join(zs)}}}"
        rep.add(Check("ladder-lower", lo, half, ptz))
        rep.add(Check("ladder-raise", ro, half, ptz))
        rep.add(Check("compat-s1", s1r, half, ptz))
        rep.add(Check("compat-s2", s2r, half, ptz))
        rep.add(Check("compat-s2p", s2pr, half, ptz))

        rep.add(Check("s1-r-advance", max(r.s1[0] for r in res), half, f"n<={n_top}"))
        rep.add(Check("s2p-product", max(r.s2p for r in res[1:]), half, f"n<={n_top}"))

        w1 = w2 = w3 = mpf(0)
        for nn in range(n_top + 1):
            r1, r2, r3 = ld.sum_rules(tab, aux, nn)
            w1, w2, w3 = max(w1, r1), max(w2, r2), max(w3, r3)
        rep.add(Check("sum-p-R", w1, half, f"n<={n_top}"))
        rep.add(Check("sum-p-r-beta", w2, half, f"n<={n_top}"))
        rep.add(Check("beta-det-ratio", w3, half, f"n<={n_top}"))

        rep.add(Check("ladder-coeff-integral", ld.ladder_coeff_deviation(tab, 2, (5,)),
                      half, "n=2;z=5"))
    return rep


def calculus_suite(config: RunConfig) -> ResidualReport:
    rep = ResidualReport("calculus", metadata=_meta(config))
    params, prec = config.params, config.prec
    if params.m != 2:
        raise DomainError("calculus suite needs m = 2")
    grid = _hold(_stencil_grid(config, params, _POINT_DEPTH))
    with mp.workdps(prec.work_dps):
        rep.extend(ca.derivative_relations(3, grid, ("dlnh", "dp", "dlnbeta", "dalpha")))
        rep.extend(ca.verify_toda(2, grid))
        for checks in ca.riccati_checks(2, grid):
            rep.extend(checks)
    for nn in (1, 2, 3):
        rep.extend(ca.verify_coupled_pdes(nn, grid))

    # FD convergence order: an exact identity's order-2 difference at the
    # grid's h and h/2 levels, before Richardson, is truncation error, so
    # halving the step must shrink its residual by 2^2
    with mp.workdps(prec.work_dps):
        t1, R = to_mpf(params.t1), ld.aux_row(grid.bundle(), 3).R[0]
        levels, _ = grid.quotients(ca.FIRST, lambda v: mp.log(v.h[3]), (0,))
        coarse, fine = (abs(t1 * d + R) for d in levels[-2:])
        ratio = coarse / fine
        rep.add(Check("fd-convergence-order",
                      mpf(0) if ratio > mpf("3.5") else abs(ratio - 4),
                      mpf("0.5"), "order2;h,h/2"))

    # the t2 -> 0+ continuation on frozen t2 = eps, eps = 1e-4, 1e-5, 1e-6
    frozen = [_stencil_grid(config, WeightParams(params.alpha, ("0.5", eps)), 2)
              for eps in ("1e-4", "1e-5", "1e-6")]
    rode = [ca.verify_t2_zero_reduction(1, g) for g in frozen]
    with mp.workdps(prec.work_dps):
        eps_last = frozen[-1].params.t2
        res_last, err_last = rode[-1]
        rep.add(Check("rode-reduction", res_last,
                      floored(max(mpf(10) ** -8, 10 * to_mpf(eps_last), 10 * err_last)),
                      f"n=1;t1=0.5;eps={eps_last}"))
        ratios = [a / b for (a, _), (b, _) in zip(rode, rode[1:])]
        bad = max(abs(r - 10) for r in ratios)
        rep.add(Check("rode-decay", bad, mpf(4), "eps=1e-4..1e-6"))
    rep.add(ca.verify_seed_shift(grid))
    return rep


def sigma_suite(config: RunConfig) -> ResidualReport:
    rep = ResidualReport("sigma-pde", metadata=_meta(config))
    params, prec = config.params, config.prec
    if params.m != 2:
        raise DomainError("sigma suite needs m = 2")
    grid = _hold(_stencil_grid(config, params, _POINT_DEPTH))
    collected = {}
    for nn in (1, 2, 3):
        for c in ca.verify_sigma_pde(nn, grid):
            prev = collected.get(c.id)
            if prev is None or c.residual / c.tol > prev.residual / prev.tol:
                collected[c.id] = c
    # in verify_sigma_pde's order, which is the registry's
    rep.extend(collected.values())

    with mp.workdps(prec.work_dps):
        r5, r4 = [ca.sigma_reduction_residual(
            2, _stencil_grid(config, WeightParams(params.alpha, ("0.3", eps)), 3))
            for eps in ("1e-5", "1e-4")]
        rep.add(Check("sigma-pde-reduction", r5,
                      floored(min(r4, mpf(10) ** -3)), "n=2;t1=0.3;eps=1e-5"))

    rep.add(delta_random(config))
    return rep


def delta_random(config: RunConfig) -> Check:
    """Delta > 0 at 20 deterministic admissible points (desk precision;
    a one-level grid is plenty for a sign with Delta of order one)."""
    small = PrecisionContext(digits=60)
    state = _LCG_SEED
    deltas = []
    for _ in range(20):
        state, u1 = _lcg_uniform(state)
        state, u2 = _lcg_uniform(state)
        state, u3 = _lcg_uniform(state)
        state, u4 = _lcg_uniform(state)
        alpha = Fraction(-9, 10) + Fraction(round(u1 * 3900), 1000)
        t1 = (Fraction(1, 20) + Fraction(round(u2 * 950), 1000)) * (1 if u4 < Fraction(1, 2) else -1)
        t2 = Fraction(1, 20) + Fraction(round(u3 * 950), 1000)
        point = WeightParams(alpha, (t1, t2))
        deltas.append(ca.hankel_sigma(2, _stencil_grid(config, point, 3, 1, small)).Delta)
    with mp.workdps(small.work_dps):
        return sign_check("delta-random", deltas, to_mpf(small.half_eps), "20 LCG points")


def scaling_suite(config: RunConfig) -> ResidualReport:
    rep = ResidualReport(
        "scaling",
        metadata=_meta(config, s1=str(config.s1), s2=str(config.s2),
                       n_list=",".join(str(n) for n in config.n_list)),
    )
    prec = config.prec
    grid = scaled_grid(config, config.s1, config.s2)
    # the limiting PDEs read the U partials, and so each node's aux row,
    # first: a node then drops its table as soon as it is built, where the
    # identities' H partials alone would keep it until the PDEs read its row
    pdes = sc.verify_limiting_pdes(grid)
    rep.extend(sc.verify_limit_identities(grid))
    rep.extend(pdes)
    with mp.workdps(prec.work_dps):
        slope = sc.convergence_slope(grid)
        rep.add(Check("convergence-slope", abs(slope + 1), mpf("0.3"),
                      f"n={config.n_list}"))
        # the s2 -> 0 reduction has a limit only at s1 > 0: check it at |s1|
        s1 = abs(config.s1)
        red = sc.reduced_limit_residual(scaled_grid(config, s1, Fraction(1, 20)))
        rep.add(Check("reduced-limit", red, mpf("0.01"),
                      "s2=1/20" if config.s1 > 0 else f"s1={s1};s2=1/20"))
    return rep


def equilibrium_suite(config: RunConfig) -> ResidualReport:
    prec = config.prec
    sol = equilibrium_solution(config)
    n, params = sol.n, sol.params
    rep = ResidualReport("equilibrium",
                         metadata=_meta(config, verified_point=_point_meta(params)))
    with mp.workdps(prec.work_dps):
        # held while the suite runs: its three theta passes share their nodes' cosines
        cosines = eq.theta_cosines()
        alpha, t = params.materialize()
        f1, f2 = eq._support_system(sol.X, sol.Y, n, alpha, t[0], t[1])
        tolN = mpf(10) ** (-(prec.digits - 25))
        rep.add(Check("support-eq1", abs(f1), tolN, f"n={n}"))
        rep.add(Check("support-eq2", abs(f2), tolN, f"n={n}"))
        # the series identities hold to the endpoint solve, like limit-A
        rep.add(Check("density-normalization", abs(eq.density_normalization(sol) - n),
                      tolN * 100, f"n={n}"))
        rep.add(sign_check("density-nonneg",
                           eq.densities(sol, [sol.a + (sol.b - sol.a) * k / mpf(102)
                                              for k in range(1, 102)]),
                           to_mpf(prec.half_eps), "101-point grid"))
        r1, r2 = eq.supplementary_residual(sol)
        rep.add(Check("supplementary-v1", r1, mpf(10) ** -10, f"n={n}"))
        rep.add(Check("supplementary-v2", r2, mpf(10) ** -10, f"n={n}"))
        worst = max(eq.equilibrium_condition_residual(
            sol, [sol.a + q * (sol.b - sol.a) for q in (mpf("0.25"), mpf("0.5"), mpf("0.75"))]))
        rep.add(Check("lagrange-eq", worst, tolN * 100, "3 probes"))
        x9, x5 = eq.solve_X_equations(sol)
        rep.add(Check("degree9-root", abs(x9 - sol.X), mpf(10) ** -10, f"n={n}"))
        rep.add(Check("degree5-root",
                      abs(eq._poly_eval(eq.degree5_coeffs(
                          2 * n * t[0], 4 * n * n * t[1], alpha), x5)),
                      floored(mpf(10) ** -20 * (1 + abs(x5)) ** 5), f"n={n}"))

        limit = eq.solve_support(n, WeightParams(params.alpha), prec=prec)
        am = to_mpf(params.alpha)
        rep.add(Check("limit-X", abs(limit.X - am), tolN, "t=0"))
        a_exp = (2 * n + am - (n + am) * mp.log(n + am) - n * mp.log(n))
        rep.add(Check("limit-A", abs(limit.A - a_exp), tolN * 100, "t=0"))

        p60 = PrecisionContext(digits=60)
        _, _, gap2 = eq.mp_limit_check(Fraction(1, 4), 200, params.alpha, p60)
        _, _, gap4 = eq.mp_limit_check(Fraction(1, 4), 400, params.alpha, p60)
        rep.add(Check("mp-gap", gap2, mpf("0.01"), "y=1/4;n=200"))
        rep.add(Check("mp-rate", abs(gap4 / gap2 - mpf("0.5")), mpf("0.15"), "n=200,400"))

        half = to_mpf(prec.half_eps)
        for (a, b) in (("1", "4"), ("0.5", "2.5")):
            for cid, res in eq.appendix_integrals(a, b, prec):
                rep.add(Check(cid, res, half, f"(a,b)=({a},{b})"))
    return rep


def multitime_suite(config: RunConfig) -> ResidualReport:
    prec = config.prec
    base_t = config.params.t if config.params.m >= 2 else ("0.3", "0.2")
    p3 = WeightParams(config.params.alpha, tuple(base_t[:2]) + (Fraction(1, 10),))
    m4 = WeightParams(config.params.alpha, ("0.3", "0.2", "0.1", "0.05"))
    m5 = WeightParams(config.params.alpha, ("0.3", "0.2", "0.1", "0.05", "0.02"))
    rep = ResidualReport("multitime", metadata=_meta(
        config, verified_point=_point_meta(p3), verified_point_m4=_point_meta(m4),
        verified_point_m5=_point_meta(m5)))

    n_top = min(config.n_max, 8)
    tab3 = _table(config, p3, n_top)
    rows = ld.aux_rows(tab3, n_top)
    iterated = ld.iterate_difference_system(tab3, n_top, prec)
    with mp.workdps(prec.work_dps):
        triple = to_mpf(prec.half_eps) * mpf(10) ** 10
        rep.add(Check("iteration-agree-3", ld.iteration_deviation(rows, iterated),
                      triple, f"n<={n_top}"))

    grid3 = _stencil_grid(config, p3, 3)
    rep.extend(mt.verify_identities_3(2, grid3))
    rep.extend(mt.h3_reconstruction(2, grid3))

    # t3 -> 0+ continuity: the m = 3 row collapses onto the m = 2 row
    with mp.workdps(prec.work_dps):
        p3eps = WeightParams(p3.alpha, (p3.t[0], p3.t[1], Fraction(1, 10 ** 6)))
        tab_eps = _table(config, p3eps, 3)
        s_eps = ld.aux_row(tab_eps, 2)
        p2 = WeightParams(p3.alpha, p3.t[:2])
        tab2 = _table(config, p2, _POINT_DEPTH)
        q2 = ld.aux_row(tab2, 2)
        drift = max(
            abs(s_eps.R[0] - q2.R[0]), abs(s_eps.R[1] - q2.R[1]),
            abs(s_eps.r[0] - q2.r[0]), abs(s_eps.r[1] - q2.r[1]),
            abs(s_eps.R[2]), abs(s_eps.r[2]),
        )
        rep.add(Check("t3-continuity", drift, mpf("0.001"), "t3=1e-6"))

    # held here: its centre is ladder-coeff-m's table
    grid4 = _stencil_grid(config, m4, 3)
    rep.extend(mt.verify_S1_S2_general_m(2, grid4))
    rep.extend(mt.verify_S1_S2_general_m(1, _stencil_grid(config, m5, 2)))

    with mp.workdps(prec.work_dps):
        rep.add(Check("ladder-coeff-m",
                      ld.ladder_coeff_deviation(_table(config, m4, 3), 2, ("0.9", "3")),
                      to_mpf(prec.half_eps), "m=4;n=2"))
    return rep


SUITE_RUNNERS = {
    "moments": moments_suite,
    "recurrence": recurrence_suite,
    "ladder": ladder_suite,
    "calculus": calculus_suite,
    "sigma-pde": sigma_suite,
    "scaling": scaling_suite,
    "equilibrium": equilibrium_suite,
    "multitime": multitime_suite,
}


def run_suite(config: RunConfig) -> list:
    """Run the configured suites in the order given, each once;
    deterministic.  What a suite holds by ``_hold`` is held until the last
    suite returns."""
    global _held
    _held = []
    try:
        return [SUITE_RUNNERS[name](config) for name in config.active_suites]
    finally:
        _held = None
