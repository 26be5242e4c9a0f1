from fractions import Fraction

import pytest
from mpmath import mp, mpf

from laguerre_lab import multitime as mt
from laguerre_lab.calculus import StencilGrid, table_bundle_builder
from laguerre_lab.errors import DomainError
from laguerre_lab.ladder import (
    alpha_from_aux,
    aux_integrals,
    aux_rows,
    beta_from_aux,
    eval_laurent,
    iterate_difference_system,
    ladder_A_direct,
    ladder_coeffs,
)
from laguerre_lab.orthopoly import recurrence_table
from laguerre_lab.params import PrecisionContext, WeightParams, to_mpf
from laguerre_lab.quadrature import moments

TRIPLE = mpf(10) ** -50


@pytest.fixture(scope="module")
def prec():
    return PrecisionContext(digits=120)


@pytest.fixture(scope="module")
def params3():
    return WeightParams("0.5", ("0.3", "0.2", "0.1"))


@pytest.fixture(scope="module")
def table3(params3, prec):
    return recurrence_table(params3, 10, prec)


@pytest.fixture(scope="module")
def rows3(table3):
    return aux_rows(table3, 10)


@pytest.fixture(scope="module")
def grid3(params3, prec):
    return StencilGrid(params3, prec, table_bundle_builder(3, prec))


def test_initial_conditions(params3, prec, table3):
    # the iteration starts from the integral route's row 0, which is
    # R_{0,i} = i t_i mu_{-i}/mu_0 from a direct moment sweep
    s0 = iterate_difference_system(table3, 0, prec)[0]
    assert s0 == aux_integrals(table3, 0)
    assert s0.r == (0, 0, 0)
    mu = moments(params3, -3, 0, prec)
    with mp.workdps(prec.work_dps):
        for i, (got, t) in enumerate(zip(s0.R, params3.t), start=1):
            assert abs(got - i * to_mpf(t) * mu[-i] / mu[0]) < TRIPLE
        assert s0.R[2] > 0  # t3 > 0 makes the integrand positive


def test_identification_with_m2_quantities(params3, table3, rows3):
    # R_{n,1} = R_n = t1 <P_n, x^-1 P_n>/h_n, R_{n,2} = R_n* = 2 t2 <P_n, x^-2 P_n>/h_n,
    # R_{n,3} = R^_n = 3 t3 <P_n, x^-3 P_n>/h_n by definition, with
    # <P_n, x^-i P_n> the explicit double sum over both coefficient vectors
    c, mu = table3.coeffs[2], table3.moments
    with mp.workdps(table3.prec.work_dps):
        t1, t2, t3 = (to_mpf(v) for v in params3.t)
        inner = [mp.fsum(a * b * mu[ia + ib - i] for ia, a in enumerate(c)
                         for ib, b in enumerate(c)) for i in (1, 2, 3)]
        for got, scale, value in zip(rows3[2].R, (t1, 2 * t2, 3 * t3), inner):
            assert abs(got - scale * value / table3.h[2]) < TRIPLE


def test_triple_representation_m3(params3, prec, table3, rows3):
    iterated = iterate_difference_system(table3, 8, prec)
    with mp.workdps(prec.work_dps):
        for n in range(9):
            for a, b in zip(rows3[n].R + rows3[n].r, iterated[n].R + iterated[n].r):
                assert abs(a - b) < TRIPLE
        for n in range(9):
            got = alpha_from_aux(rows3[n], n, params3.alpha)
            assert abs(got - table3.alpha(n)) < TRIPLE
        for n in range(1, 9):
            got = beta_from_aux(rows3[n], n, params3, prec)
            assert abs(got - table3.beta(n)) < TRIPLE


def test_first_step_closed_form(params3, prec, table3):
    it = iterate_difference_system(table3, 1, prec)
    with mp.workdps(prec.work_dps):
        s0 = it[0]
        t1 = to_mpf(params3.t1)
        alpha = to_mpf(params3.alpha)
        r1 = t1 - (1 + alpha + s0.R[0] + s0.R[1] + s0.R[2]) * s0.R[0]
        assert abs(r1 - it[1].r[0]) < TRIPLE


def test_negative_t2_sweep(prec):
    params = WeightParams("0.5", ("0.3", "-0.2", "0.1"))
    tab = recurrence_table(params, 5, prec)
    rows = aux_rows(tab, 5)
    iterated = iterate_difference_system(tab, 5, prec)
    with mp.workdps(prec.work_dps):
        for n in range(6):
            for a, b in zip(rows[n].R + rows[n].r, iterated[n].R + iterated[n].r):
                assert abs(a - b) < TRIPLE
            assert rows[n].R[1] < 0  # sign of R_{n,2} tracks sign(t2)


def test_ladder_coeffs_m3_structure(params3, prec, rows3):
    with mp.workdps(prec.work_dps):
        a, b = ladder_coeffs(rows3[1], 1, params3)
        assert len(a) == 4 and len(b) == 4
        assert a[0] == 1 and b[0] == -1
        # z^-4 coefficient of A_1 is tau*rho*R_{1,1} = (3 t3/t1) R_{1,1}
        want = to_mpf(Fraction(3) * params3.t3 / params3.t1) * rows3[1].R[0]
        assert abs(a[3] - want) < TRIPLE


def test_ladder_coeffs_m2_reduction(prec):
    # at m = 2 the general-m coefficients are the closed form
    # A_n = 1/z + (R+R*)/z^2 + tau R/z^3, B_n = -n/z + (r+r*)/z^2 + tau r/z^3
    p2 = WeightParams("0.5", ("0.3", "0.2"))
    tab = recurrence_table(p2, 4, prec)
    with mp.workdps(prec.work_dps):
        row = aux_integrals(tab, 3)
        a_m, b_m = ladder_coeffs(row, 3, p2)
        tau = to_mpf(p2.tau)
        assert a_m == (mpf(1), row.R[0] + row.R[1], tau * row.R[0])
        assert b_m == (mpf(-3), row.r[0] + row.r[1], tau * row.r[0])


def test_ladder_coeffs_m4_integral_oracle(prec):
    # the assembled A_1(4) against its integral definition, at m = 2, 3, 4
    for tvec in (("0.3", "0.2"), ("0.3", "0.2", "0.1"), ("0.3", "0.2", "0.1", "0.05")):
        params = WeightParams("0.5", tvec)
        tab = recurrence_table(params, 3, prec)
        with mp.workdps(prec.work_dps):
            a, _ = ladder_coeffs(aux_integrals(tab, 1), 1, params)
            (direct,) = ladder_A_direct(tab, 1, (4,))
            assert abs(eval_laurent(a, 4) - direct) < TRIPLE, params.m


def test_identities_3(grid3):
    checks = mt.verify_identities_3(2, grid3)
    assert len(checks) == 17
    for c in checks:
        assert c.ok, (c.id, c.residual, c.tol)
        if c.id.startswith("riccati"):
            assert c.residual < mpf(10) ** -12


def test_h3_reconstruction(grid3):
    checks = mt.h3_reconstruction(2, grid3)
    assert len(checks) == 6
    for c in checks:
        assert c.ok
        assert c.residual < mpf(10) ** -10
        # r components read first partials of H_n only; R components also second
        ceiling = -90 if c.id[len("h3-reconstruct-")] == "r" else -65
        assert c.tol < mpf(10) ** ceiling, (c.id, c.tol)


def test_h3_reconstruction_negative_t1(prec):
    p = WeightParams("0.5", ("-0.3", "0.2", "0.1"))
    g = StencilGrid(p, prec, table_bundle_builder(3, prec))
    for c in mt.h3_reconstruction(2, g):
        assert c.ok, (c.id, c.residual, c.tol)


def test_t3_continuity(prec):
    # the m = 3 row -> (the m = 2 row, 0) as t3 -> 0+
    p2 = WeightParams("0.5", ("0.3", "0.2"))
    tab2 = recurrence_table(p2, 4, prec)
    with mp.workdps(prec.work_dps):
        q = aux_integrals(tab2, 2)
        drift_prev = None
        for t3 in (Fraction(1, 10 ** 4), Fraction(1, 10 ** 6)):
            p3 = WeightParams("0.5", ("0.3", "0.2", t3))
            tab3 = recurrence_table(p3, 4, prec)
            s = aux_integrals(tab3, 2)
            drift = max(abs(s.R[0] - q.R[0]), abs(s.R[1] - q.R[1]), abs(s.R[2]),
                        abs(s.r[0] - q.r[0]), abs(s.r[1] - q.r[1]), abs(s.r[2]))
            if drift_prev is not None:
                assert drift < drift_prev / 10
            drift_prev = drift
        assert drift < mpf(10) ** -5


def test_general_m_requires_range(prec):
    g = StencilGrid(WeightParams("0.5", ("0.3",)), prec, table_bundle_builder(2, prec))
    with pytest.raises(DomainError):
        mt.verify_S1_S2_general_m(1, g)


def test_general_m4_m5(prec):
    for tvec, n in ((("0.3", "0.2", "0.1", "0.05"), 2),
                    (("0.3", "0.2", "0.1", "0.05", "0.02"), 1)):
        params = WeightParams("0.5", tvec)
        g = StencilGrid(params, prec, table_bundle_builder(n + 1, prec))
        for c in mt.verify_S1_S2_general_m(n, g):
            assert c.ok, (params.m, c.id, c.residual, c.tol)
            if c.id.startswith("dH-"):
                assert c.residual < mpf(10) ** -12
            else:
                assert c.residual < mpf(10) ** -40
