from fractions import Fraction

import pytest
from mpmath import mp, mpf
from mpmath.libmp import fone

from laguerre_lab import calculus as ca
from laguerre_lab import ladder as ld
from laguerre_lab import quadrature
from laguerre_lab.cache import clear_memo
from laguerre_lab.errors import DegenerateBracket, DegenerateInput, DomainError, SingularAux
from laguerre_lab.ladder import (
    AuxRow,
    _R_step,
    alpha_from_aux,
    aux_integrals,
    aux_rows,
    beta_from_aux,
    compatibility_residuals,
    eval_laurent,
    iterate_difference_system,
    ladder_A_direct,
    ladder_coeffs,
    ladder_residuals,
    row_residuals,
    sum_rules,
)
from laguerre_lab.orthopoly import recurrence_table
from laguerre_lab.params import PrecisionContext, WeightParams, to_mpf
from laguerre_lab.quadrature import integrate_weighted, moments, sample_dps

from conftest import eval_polynomials, mpf_integrand

HALF = mpf(10) ** -60  # 10^(-P/2) at the 120-digit default
TRIPLE = mpf(10) ** -50  # 10^(-P/2+10) cross-representation contract


def _ref_ladder_kernel(table, n, z):
    """The integrand (z v'(z) - x v'(x)) / (z - x) P_n(x)^2 of A_n(z) in mpf
    arithmetic, at mpf x."""
    params = table.params
    z = mpf(z)
    with mp.workdps(table.prec.work_dps):
        zvz = z * params.potential_derivative(z)

    def f(x):
        kern = (zvz - x * params.potential_derivative(x)) / (z - x)
        return kern * eval_polynomials(table, n, x)[n] ** 2

    return f


def direct_ladder_A(table, n, z):
    """A_n(z) straight from its integral definition (divided-difference kernel)."""
    z = mpf(z)
    f = _ref_ladder_kernel(table, n, z)
    with mp.workdps(table.prec.work_dps):
        integral = integrate_weighted(mpf_integrand(lambda x: (f(x),)), table.params, table.prec)
        return integral[0] / (z * table.h[n])


def test_ladder_A_direct_matches_mpf_form(oracle_point, monkeypatch):
    # the raw integrand against its mpf form bit for bit at m = 2, 3, 4, at
    # nodes of the x = e^u map and in the value: with the memos empty, then
    # with the weight slot filled by another pass at the same point
    alpha, t1, prec = oracle_point
    integrands = []
    real = ld.integrate_weighted
    monkeypatch.setattr(ld, "integrate_weighted",
                        lambda f, *args: (integrands.append(f), real(f, *args))[1])
    for m, z in ((2, 5), (3, "0.9"), (4, "3")):
        table = recurrence_table(WeightParams(alpha, (t1, "0.2", "0.1", "0.05")[:m]), 3, prec)
        want = direct_ladder_A(table, 2, z)._mpf_
        clear_memo()
        assert ladder_A_direct(table, 2, (z,))[0]._mpf_ == want
        kernel = _ref_ladder_kernel(table, 2, z)
        ref = mpf_integrand(lambda x: (kernel(x),))
        with mp.workdps(sample_dps(prec)):
            for k in range(-96, 97, 7):
                x = mp.exp(mpf(k) / 16)._mpf_
                assert list(integrands[-1](x)) == list(ref(x)), k
        clear_memo()
        integrate_weighted(lambda x: (fone,), table.params, prec)
        assert quadrature._node_weight[1]
        assert ladder_A_direct(table, 2, (z,))[0]._mpf_ == want


def test_ladder_A_direct_at_a_node(table12, aux12):
    # z = 1 is the u = 0 node of the x = e^u map, where the divided
    # difference is 0/0: the kernel takes its limit there
    with mp.workdps(table12.prec.work_dps):
        a2, _ = ladder_coeffs(aux12[2], 2, table12.params)
        (direct,) = ladder_A_direct(table12, 2, (1,))
        assert abs(eval_laurent(a2, 1) - direct) < HALF
    for z in (0, "-0.5"):
        with pytest.raises(DegenerateInput):
            ladder_A_direct(table12, 2, (z,))


def test_initial_conditions(params_default, prec120, table12):
    # the iteration starts from the integral route's row 0, which is
    # R_{0,i} = i t_i mu_{-i}/mu_0 from a direct moment sweep
    a0 = iterate_difference_system(table12, 0, prec120)[0]
    assert a0 == aux_integrals(table12, 0)
    assert a0.r == (0, 0)
    mu = moments(params_default, -2, 0, prec120)
    with mp.workdps(prec120.work_dps):
        assert abs(a0.R[0] - to_mpf(params_default.t1) * mu[-1] / mu[0]) < HALF
        assert abs(a0.R[1] - 2 * to_mpf(params_default.t2) * mu[-2] / mu[0]) < HALF


def test_aux_signs(aux12, aux12_neg):
    for n in range(10):
        assert aux12[n].R[0] > 0 and aux12[n].R[1] > 0
        assert aux12_neg[n].R[0] < 0 and aux12_neg[n].R[1] > 0


def test_closed_forms_stop_at_m3(prec60):
    # beta_n from the row, the R-solve of the difference system, the
    # Riccati system and the row from H_n are closed forms for m = 2 and 3 only
    p4 = WeightParams("0.5", ("0.3", "0.2", "0.1", "0.05"))
    row = AuxRow(R=(mpf("0.1"),) * 4, r=(mpf("0.1"),) * 4)
    with pytest.raises(DomainError):
        beta_from_aux(row, 2, p4, prec60)
    with pytest.raises(DomainError):
        iterate_difference_system(recurrence_table(p4, 0, prec60), 2, prec60)
    grid = ca.StencilGrid(p4, prec60, lambda p, anchor: None)
    with pytest.raises(DomainError):
        ca.riccati_checks(2, grid)
    state = ca.SigmaState(n=2, params=p4, prec=prec60, Hn=mpf(0), d={}, r=row.r,
                          beta=mpf(1), dbeta=row.R, Delta=mpf(1), fd_error=mpf(0))
    with pytest.raises(DomainError):
        ca.reconstruct_aux_from_H(state)


def test_triple_representation_agreement(params_default, table12, aux12, prec120):
    iterated = iterate_difference_system(table12, 10, prec120)
    with mp.workdps(prec120.work_dps):
        for n in range(11):
            for a, b in zip(aux12[n].R + aux12[n].r, iterated[n].R + iterated[n].r):
                assert abs(a - b) < TRIPLE
        for n in range(11):
            assert abs(alpha_from_aux(aux12[n], n, params_default.alpha) - table12.alpha(n)) < TRIPLE
        for n in range(1, 11):
            assert abs(beta_from_aux(aux12[n], n, params_default, prec120) - table12.beta(n)) < TRIPLE


def test_triple_representation_negative_t1(params_neg_t1, table12_neg, aux12_neg, prec120):
    iterated = iterate_difference_system(table12_neg, 10, prec120)
    with mp.workdps(prec120.work_dps):
        for n in range(11):
            for a, b in zip(aux12_neg[n].R + aux12_neg[n].r, iterated[n].R + iterated[n].r):
                assert abs(a - b) < TRIPLE
            assert iterated[n].R[0] < 0


def test_first_step_closed_form(params_default, prec120, table12):
    it = iterate_difference_system(table12, 1, prec120)
    with mp.workdps(prec120.work_dps):
        a0 = it[0]
        t1, alpha = to_mpf(params_default.t1), to_mpf(params_default.alpha)
        r1 = t1 - (1 + alpha + a0.R[0] + a0.R[1]) * a0.R[0]
        assert abs(r1 - it[1].r[0]) < HALF


def test_ladder_coeff_invariants(params_default, aux12):
    with mp.workdps(150):
        a0, b0 = ladder_coeffs(aux12[0], 0, params_default)
        assert a0[0] == 1
        assert b0[0] == 0  # -n at n = 0
        a3, b3 = ladder_coeffs(aux12[3], 3, params_default)
        assert a3[0] == 1 and b3[0] == -3


def test_ladder_coeffs_vs_integral_definition(table12, aux12):
    with mp.workdps(table12.prec.work_dps):
        a2, _ = ladder_coeffs(aux12[2], 2, table12.params)
        direct = direct_ladder_A(table12, 2, 5)
        assert abs(eval_laurent(a2, 5) - direct) < HALF


def test_ladder_residuals(table12, aux12):
    for n, z in ((1, "3"), (4, "0.7"), (6, "5")):
        lo, ro = ladder_residuals(table12, aux12, n, z)
        assert lo < HALF and ro < HALF
    lo0, ro0 = ladder_residuals(table12, aux12, 0, "2")
    assert lo0 < HALF and ro0 == 0
    with pytest.raises(DegenerateInput):
        ladder_residuals(table12, aux12, 1, 0)


def test_compatibility_residuals(table12, aux12):
    for n in (0, 3, 6):
        for z in ("0.7", "2", "5"):
            s1, s2, s2p = compatibility_residuals(table12, aux12, n, z)
            assert s1 < HALF and s2 < HALF and s2p < HALF


def test_s1_family_and_s2p_product(table12, aux12):
    params = table12.params
    with mp.workdps(table12.prec.work_dps):
        for n in range(10):
            # r_{n+1} + r_n + alpha_n R_n - t1 = 0
            res = (aux12[n + 1].r[0] + aux12[n].r[0] + table12.alpha(n) * aux12[n].R[0]
                   - to_mpf(params.t1))
            assert abs(res) < HALF
        for n in range(1, 10):
            # beta_n R_n R_{n-1} = r_n (r_n - t1)
            res = table12.beta(n) * aux12[n].R[0] * aux12[n - 1].R[0] - aux12[n].r[0] * (
                aux12[n].r[0] - to_mpf(params.t1)
            )
            assert abs(res) < HALF


@pytest.mark.parametrize("tvec", [("0.3", "0.2"), ("0.3", "0.2", "0.1"),
                                  ("0.3", "0.2", "0.1", "0.05")], ids=["m2", "m3", "m4"])
def test_row_residuals_are_the_written_out_identities(tvec, prec60):
    # row_residuals is the one copy of alpha_n from the row, the S1 family
    # and the S2' product for every m: bit for bit the formulas below
    params = WeightParams("0.5", tvec)
    tab = recurrence_table(params, 3, prec60)
    rows = aux_rows(tab, 3)
    for n in (0, 1, 2):
        res = row_residuals(tab, rows, n, prec60)
        with mp.workdps(prec60.work_dps):
            t1 = to_mpf(params.t1)
            row, nxt, an = rows[n], rows[n + 1], tab.alpha(n)
            alpha = 2 * n + 1 + to_mpf(params.alpha)
            for R in row.R:
                alpha = alpha + R
            s1 = [abs(nxt.r[0] + row.r[0] + an * row.R[0] - t1)]
            for j in range(2, params.m + 1):
                c = to_mpf(Fraction(j) * params.t[j - 1] / ((j - 1) * params.t[j - 2]))
                s1.append(abs(nxt.r[j - 1] + row.r[j - 1] + an * row.R[j - 1]
                              - c * row.R[j - 2]))
            assert res.alpha == abs(alpha - an)
            assert res.s1 == tuple(s1)
            if n == 0:
                assert res.s2p is None and res.beta is None
            else:
                assert res.s2p == abs(row.r[0] * (row.r[0] - t1)
                                      - tab.beta(n) * row.R[0] * rows[n - 1].R[0])
                assert res.beta == (abs(beta_from_aux(row, n, params, prec60) - tab.beta(n))
                                    if params.m <= 3 else None)
        checked = [v for v in (res.alpha, res.beta, res.s2p, *res.s1) if v is not None]
        assert max(checked) < mpf(10) ** -(prec60.digits // 2)


def test_sum_rules(table12, aux12):
    r1, r2, r3 = sum_rules(table12, aux12, 0)
    assert r1 == 0 and r2 < HALF and r3 == 0
    for n in (1, 2, 5):
        r1, r2, r3 = sum_rules(table12, aux12, n)
        assert r1 < HALF and r2 < HALF and r3 < HALF


def test_t2_to_zero_star_ratio():
    # R*/tau and r*/tau approach finite positive limits as t2 -> 0+
    prec = PrecisionContext(digits=60)
    vals = []
    for t2 in ("1e-6", "1e-8"):
        params = WeightParams("0.5", ("0.3", t2))
        tab = recurrence_table(params, 4, prec)
        with mp.workdps(prec.work_dps):
            a3 = aux_integrals(tab, 3)
            vals.append((a3.R[1] / params.tau, a3.r[1] / params.tau))
    with mp.workdps(70):
        for a, b in zip(vals[0], vals[1]):
            assert abs(a - b) <= mpf("0.01") * max(abs(a), abs(b))
        assert vals[1][0] > 0


@pytest.mark.parametrize("tvec", [("0.3", "0.2"), ("0.3", "0.2", "0.1")], ids=["m2", "m3"])
def test_vanishing_bracket_names_its_equation(tvec, prec60):
    # r_n = t1 zeroes the coefficient r_n (r_n - t1) R_{n-1} of the R* solve
    params = WeightParams("0.5", tvec)
    prev = aux_integrals(recurrence_table(params, 2, prec60), 1)
    with mp.workdps(prec60.work_dps):
        r_row = (to_mpf(params.t1),) + prev.r[1:]
        with pytest.raises(DegenerateBracket, match="Rstar-step coefficient vanished at n = 2"):
            _R_step(2, r_row, prev, params, to_mpf(prec60.half_eps))


def test_singular_aux_guard(params_default, prec120):
    bad = AuxRow(R=(mpf(10) ** -80, mpf("0.1")), r=(mpf("0.1"), mpf("0.1")))
    with pytest.raises(SingularAux):
        beta_from_aux(bad, 2, params_default, prec120)
