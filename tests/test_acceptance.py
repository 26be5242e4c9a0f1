"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing one pass/fail line.

Default point (alpha, t1, t2) = (0.5, 0.3, 0.2) at 120 working digits;
the m = 2 cross-representation block repeats at the mirrored point
(0.5, -0.3, 0.2).  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from laguerre_lab import calculus as ca
from laguerre_lab import cli
from laguerre_lab import equilibrium as eq
from laguerre_lab import ladder as ld
from laguerre_lab import multitime as mt
from laguerre_lab import scaling as sc
from laguerre_lab import suites
from laguerre_lab.errors import PrecisionExhausted
from laguerre_lab.orthopoly import recurrence_table
from laguerre_lab.params import PrecisionContext, WeightParams, to_mpf
from laguerre_lab.reports import Check, ResidualReport

TOL40 = mpf(10) ** -40
TOL12 = mpf(10) ** -12
TOL10 = mpf(10) ** -10
TOL8 = mpf(10) ** -8

PREC = PrecisionContext(digits=120)


def _line(num, name, ok, detail=""):
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} [{name}] {detail}"


@pytest.fixture(scope="module")
def point():
    return WeightParams("0.5", ("0.3", "0.2"))


@pytest.fixture(scope="module")
def mirror():
    return WeightParams("0.5", ("-0.3", "0.2"))


@pytest.fixture(scope="module")
def tables(point, mirror):
    return {
        "default": recurrence_table(point, 12, PREC),
        "mirror": recurrence_table(mirror, 12, PREC),
    }


@pytest.fixture(scope="module")
def grid(point):
    return ca.StencilGrid(point, PREC, ca.table_bundle_builder(5, PREC))


def test_criterion_01_cross_representation(point, mirror, tables):
    worst = mpf(0)
    with mp.workdps(PREC.work_dps):
        for name, params in (("default", point), ("mirror", mirror)):
            tab = tables[name]
            aux = ld.aux_rows(tab, 11)
            iterated = ld.iterate_difference_system(tab, 10, PREC)
            for n in range(11):
                for a, b in zip(aux[n].R + aux[n].r, iterated[n].R + iterated[n].r):
                    worst = max(worst, abs(a - b))
                worst = max(worst, abs(
                    ld.alpha_from_aux(aux[n], n, params.alpha) - tab.alpha(n)))
                worst = max(worst, abs(
                    ld.alpha_from_aux(iterated[n], n, params.alpha) - tab.alpha(n)))
                if n >= 1:
                    worst = max(worst, abs(
                        ld.beta_from_aux(aux[n], n, params, PREC) - tab.beta(n)))
                    worst = max(worst, abs(
                        ld.beta_from_aux(iterated[n], n, params, PREC) - tab.beta(n)))
    _line(1, "cross-representation m=2", worst <= TOL40, f"worst={mp.nstr(worst, 3)}")


def test_criterion_02_ladder_compatibility(point, tables):
    worst = mpf(0)
    with mp.workdps(PREC.work_dps):
        tab = tables["default"]
        aux = ld.aux_rows(tab, 12)
        for n in range(7):
            for z in ("0.7", "2", "5"):
                worst = max(worst, *ld.ladder_residuals(tab, aux, n, z))
                worst = max(worst, *ld.compatibility_residuals(tab, aux, n, z))
    _line(2, "ladder and S1/S2/S2'", worst <= TOL40, f"worst={mp.nstr(worst, 3)}")


def test_criterion_03_derivative_relations_toda(point, grid):
    worst = mpf(0)
    with mp.workdps(PREC.work_dps):
        for c in ca.derivative_relations(3, grid, ("dlnh", "dp", "dlnbeta", "dalpha")):
            worst = max(worst, c.residual)
        for c in ca.verify_toda(2, grid):
            worst = max(worst, c.residual)
        # order >= 2 decay under step halving: the order-2 difference at the
        # grid's h and h/2 levels, before Richardson
        levels, _ = grid.quotients(ca.FIRST, lambda v: mp.log(v.h[3]), (0,))
        R = ld.aux_row(grid.bundle(), 3).R[0]
        coarse, fine = (abs(to_mpf(point.t1) * d + R) for d in levels[-2:])
        ratio = coarse / fine
    ok = worst <= TOL12 and ratio >= mpf("3.5")
    _line(3, "derivative relations + Toda", ok,
          f"worst={mp.nstr(worst, 3)} halving-ratio={mp.nstr(ratio, 4)}")


def test_criterion_04_coupled_and_sigma_pdes(point, grid):
    worst = mpf(0)
    with mp.workdps(PREC.work_dps):
        for n in (1, 2, 3):
            worst = max(worst, *(c.residual for c in ca.verify_coupled_pdes(n, grid)))
            worst = max(worst, abs(ca.sigma_pde_residual(ca.hankel_sigma(n, grid))))
    # Delta >= 0 at the 20 deterministic admissible points of the sigma suite
    from laguerre_lab.config import parse_config

    rep = suites.sigma_suite(parse_config(None, {"digits": "120"}))
    delta = {c.id: c for c in rep.entries}["delta-random"]
    ok = worst <= TOL8 and delta.ok
    _line(4, "coupled PDEs + sixth-degree PDE", ok, f"worst={mp.nstr(worst, 3)}")


def test_criterion_05_rode_reduction(point):
    eps_list = ("1e-4", "1e-5", "1e-6")
    out = [ca.verify_t2_zero_reduction(1, ca.StencilGrid(
        WeightParams(point.alpha, ("0.5", eps)), PREC, ca.table_bundle_builder(2, PREC)))
        for eps in eps_list]
    with mp.workdps(60):
        res, _ = out[-1]
        bound = max(TOL8, 10 * to_mpf(eps_list[-1]))
        ratios = [out[i][0] / out[i + 1][0] for i in range(len(out) - 1)]
        ok = res <= bound and all(mpf(5) < r < mpf(20) for r in ratios)
        _line(5, "t2->0 reduction", ok,
              f"res={mp.nstr(res, 3)} ratios={[mp.nstr(r, 4) for r in ratios]}")


def test_criterion_06_double_scaling():
    grid = sc.ScaledGrid(1, 1, (8, 12, 16, 24), PREC)
    with mp.workdps(PREC.work_dps):
        s = grid.at()
        R, Rs, r, rs = (s[q] for q in ("R", "Rstar", "r", "rstar"))
        ok = abs(R.limit + r.limit) <= R.err + r.err
        ok &= abs(Rs.limit + rs.limit) <= Rs.err + rs.err
        ident = sc.verify_limit_identities(grid)
        byid = {c.id: c for c in ident}
        ok &= byid["dH-ds1-sign"].ok
        pdes = sc.verify_limiting_pdes(grid)
        ok &= all(c.ok for c in pdes)  # tolerances are 10x propagated error
        slope = sc.convergence_slope(grid)
        ok &= abs(slope + 1) <= mpf("0.3")
    _line(6, "double scaling at (1,1)", bool(ok),
          f"|R+r|={mp.nstr(abs(R.limit + r.limit), 3)} slope={mp.nstr(slope, 4)}")


def test_criterion_07_equilibrium():
    params = WeightParams("1", ("0.3", "0.2"))
    sol = eq.solve_support(10, params, prec=PREC)
    with mp.workdps(PREC.work_dps):
        ok = abs(eq.density_normalization(sol) - 10) <= TOL10
        xs = [sol.a + mpf(q) * (sol.b - sol.a) for q in ("0.25", "0.5", "0.75")]
        ok &= max(eq.equilibrium_condition_residual(sol, xs)) <= TOL8
        x9, _ = eq.solve_X_equations(sol)
        ok &= abs(x9 - sol.X) <= TOL10
        limit = eq.solve_support(10, WeightParams("1"), prec=PREC)
        solver_tol = mpf(10) ** (-(PREC.digits - 25))
        ok &= abs(limit.X - 1) <= solver_tol
        want = 21 - 11 * mp.log(11) - 10 * mp.log(10)
        ok &= abs(limit.A - want) <= 100 * solver_tol
        p60 = PrecisionContext(digits=60)
        _, _, gap2 = eq.mp_limit_check(Fraction(1, 4), 200, "1", p60)
        _, _, gap4 = eq.mp_limit_check(Fraction(1, 4), 400, "1", p60)
        ok &= gap2 <= mpf("0.01") and mpf("0.35") < gap4 / gap2 < mpf("0.65")
    _line(7, "equilibrium", bool(ok),
          f"gap200={mp.nstr(gap2, 3)} ratio={mp.nstr(gap4 / gap2, 3)}")


def test_criterion_08_appendix_integrals():
    worst = mpf(0)
    with mp.workdps(PREC.work_dps):
        for a, b in (("1", "4"), ("0.5", "2.5")):
            for _, res in eq.appendix_integrals(a, b, PREC):
                worst = max(worst, res)
    _line(8, "closed-form integrals", worst <= TOL40, f"worst={mp.nstr(worst, 3)}")


def test_criterion_09_m3():
    p3 = WeightParams("0.5", ("0.3", "0.2", "0.1"))
    with mp.workdps(PREC.work_dps):
        tab = recurrence_table(p3, 9, PREC)
        rows = ld.aux_rows(tab, 8)
        iterated = ld.iterate_difference_system(tab, 8, PREC)
        worst_cross = mpf(0)
        for n in range(9):
            for a, b in zip(rows[n].R + rows[n].r, iterated[n].R + iterated[n].r):
                worst_cross = max(worst_cross, abs(a - b))
            worst_cross = max(worst_cross, abs(
                ld.alpha_from_aux(rows[n], n, p3.alpha) - tab.alpha(n)))
            if n >= 1:
                worst_cross = max(worst_cross, abs(
                    ld.beta_from_aux(rows[n], n, p3, PREC) - tab.beta(n)))
    grid3 = ca.StencilGrid(p3, PREC, ca.table_bundle_builder(3, PREC))
    ricc = [c for c in mt.verify_identities_3(2, grid3)
            if c.id.startswith("riccati")]
    recon = mt.h3_reconstruction(2, grid3)
    with mp.workdps(PREC.work_dps):
        worst_ricc = max(c.residual for c in ricc)
        worst_rec = max(c.residual for c in recon)
        ok = (worst_cross <= TOL40 and len(ricc) == 6
              and worst_ricc <= TOL12 and worst_rec <= TOL10)
    _line(9, "m=3 analog", bool(ok),
          f"cross={mp.nstr(worst_cross, 3)} riccati={mp.nstr(worst_ricc, 3)} "
          f"recon={mp.nstr(worst_rec, 3)}")


def test_criterion_10_general_m():
    ok = True
    detail = []
    for tvec, ns in ((("0.3", "0.2", "0.1", "0.05"), (1, 2, 3)),
                     (("0.3", "0.2", "0.1", "0.05", "0.02"), (1, 2))):
        params = WeightParams("0.5", tvec)
        g = ca.StencilGrid(params, PREC, ca.table_bundle_builder(max(ns) + 1, PREC))
        with mp.workdps(PREC.work_dps):
            for n in ns:
                for c in mt.verify_S1_S2_general_m(n, g):
                    lim = TOL12 if c.id.startswith("dH-") else TOL40
                    if c.residual > lim:
                        ok = False
                        detail.append(f"m={params.m},n={n},{c.id}")
    _line(10, "general m in {4,5}", ok, ";".join(detail) or "all within bounds")


def test_criterion_11_determinism_and_exit_codes(tmp_path, monkeypatch, capsys):
    docs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        code = cli.main(["ladder", "--digits", "60", "--n-max", "4",
                         "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        doc["metadata"].pop("timestamp")
        docs.append(json.dumps(doc, sort_keys=True))
    identical = docs[0] == docs[1]

    code_pass = cli.main(["moments", "--digits", "60"]) == 0
    code_cfg = cli.main(["moments", "--t2", "0"]) == 2

    def failing(config):
        rep = ResidualReport("moments")
        rep.add(Check("moment-positive", mpf(1), mpf(0), "forced"))
        return rep

    monkeypatch.setitem(suites.SUITE_RUNNERS, "moments", failing)
    code_fail = cli.main(["moments", "--digits", "60"]) == 1

    def broken(config):
        raise PrecisionExhausted("forced")

    monkeypatch.setitem(suites.SUITE_RUNNERS, "moments", broken)
    code_num = cli.main(["moments", "--digits", "60"]) == 3
    capsys.readouterr()

    ok = identical and code_pass and code_cfg and code_fail and code_num
    _line(11, "determinism + exit codes", ok,
          f"identical={identical} codes={{0:{code_pass},2:{code_cfg},"
          f"1:{code_fail},3:{code_num}}}")
