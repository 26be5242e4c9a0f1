import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import fone

from laguerre_lab import orthopoly, quadrature
from laguerre_lab.cache import clear_memo
from laguerre_lab.errors import DegenerateInput, DomainError, PrecisionExhausted
from laguerre_lab.orthopoly import (
    RecurrenceTable,
    christoffel_darboux_residual,
    hankel_determinant,
    moment_determinant,
    orthogonality_residual,
    recurrence_table,
)
from laguerre_lab.params import PrecisionContext, WeightParams, to_mpf
from laguerre_lab.quadrature import integrate_weighted

from conftest import eval_polynomials, mpf_integrand


def eval_by_coeffs(table, n: int, x) -> mpf:
    """Horner evaluation of the stored monic coefficient vector (oracle route)."""
    x = to_mpf(x)
    with mp.workdps(table.prec.work_dps):
        acc = mpf(0)
        for c in reversed(table.coeffs[n]):
            acc = acc * x + c
        return acc


def test_classical_laguerre_trivials():
    prec = PrecisionContext(digits=60)
    t0 = recurrence_table(WeightParams("0", ("0", "0")), 3, prec)
    with mp.workdps(70):
        assert abs(t0.alpha(0) - 1) < mpf(10) ** -50  # mu_1/mu_0 = 1
    t5 = recurrence_table(WeightParams("0.5", ("0", "0")), 3, prec)
    with mp.workdps(70):
        # classical alpha_n = 2n+1+alpha, beta_n = n(n+alpha)
        assert abs(t5.alpha(2) - mpf("5.5")) < mpf(10) ** -50
        assert abs(t5.beta(2) - 5) < mpf(10) ** -50


def test_structural_identities(table12):
    tab = table12
    assert tab.p(0) == 0
    with mp.workdps(tab.prec.work_dps):
        for n in range(1, 11):
            assert tab.h[n] > 0
            assert abs(tab.beta(n) - tab.h[n] / tab.h[n - 1]) < mpf(10) ** -125
        for n in range(10):
            assert abs(tab.alpha(n) - (tab.p(n) - tab.p(n + 1))) < mpf(10) ** -100
        # sum rule: sum_{j<n} alpha_j = -p(n)
        for n in range(1, 11):
            s = mp.fsum(tab.alpha(j) for j in range(n))
            assert abs(s + tab.p(n)) < mpf(10) ** -100


def test_determinant_ratio_oracle(params_default):
    # h_n = D_{n+1}/D_n from explicit minors, desk scale at 200 digits
    tab = recurrence_table(params_default, 8, PrecisionContext(digits=200))
    with mp.workdps(220):
        for n in range(7):
            dn = moment_determinant(tab, n)
            dn1 = moment_determinant(tab, n + 1)
            assert abs(dn1 / dn - tab.h[n]) <= mpf(10) ** -100 * tab.h[n]


def test_hankel_determinant(table12):
    with mp.workdps(table12.prec.work_dps):
        assert hankel_determinant(table12, 0) == 1
        assert abs(hankel_determinant(table12, 1) - table12.moments[0]) < mpf(10) ** -120
        d4 = hankel_determinant(table12, 4)
        m4 = moment_determinant(table12, 4)
        assert abs(d4 - m4) <= mpf(10) ** -90 * abs(m4)
    with pytest.raises(DomainError):
        hankel_determinant(table12, 20)


def test_eval_polynomial(table12):
    with mp.workdps(table12.prec.work_dps):
        assert eval_polynomials(table12, 0, "1.7") == [1]
        x = mpf("1.7")
        p = eval_polynomials(table12, 5, x)
        assert abs(p[1] - (x - table12.alpha(0))) < mpf(10) ** -125
        # recurrence route vs Horner on the Gram-Schmidt coefficient vector
        for n in (4, 5):
            assert abs(p[n] - eval_by_coeffs(table12, n, x)) < mpf(10) ** -110
        # a shorter run is a prefix of a longer one
        assert eval_polynomials(table12, 4, x) == p[:5]


def test_christoffel_darboux(table12):
    half = mpf(10) ** -60
    with mp.workdps(table12.prec.work_dps):
        # n=1: both sides collapse to 1/h_0
        assert christoffel_darboux_residual(table12, 1, "0.4", "1.9") < half
        assert christoffel_darboux_residual(table12, 6, "0.5", "2.0") < half
        # stability just off the diagonal
        y = mpf("2.0")
        x = y + mpf(10) ** -30
        assert christoffel_darboux_residual(table12, 6, x, y) < half
    with pytest.raises(DegenerateInput):
        christoffel_darboux_residual(table12, 6, 2, 2)


def _ref_orthogonality(table, pairs):
    """orthogonality_residual with its integrand in mpf arithmetic."""
    top = max(max(pair) for pair in pairs)

    def products(x):
        values = eval_polynomials(table, top, x)
        return tuple(values[j] * values[k] for j, k in pairs)

    with mp.workdps(table.prec.work_dps):
        vals = integrate_weighted(mpf_integrand(products), table.params, table.prec)
        out = []
        for (j, k), val in zip(pairs, vals):
            if j == k:
                val -= table.h[j]
            out.append(abs(val) / mp.sqrt(table.h[j] * table.h[k]))
        return out


def test_orthogonality_matches_mpf_form(oracle_point):
    # the raw integrand against its mpf form bit for bit: with the memos
    # empty, then with the weight slot filled by another pass at the point
    alpha, t1, prec = oracle_point
    table = recurrence_table(WeightParams(alpha, (t1, "0.2")), 8, prec)
    pairs = ((1, 0), (4, 2), (8, 3), (6, 6))
    want = [v._mpf_ for v in _ref_orthogonality(table, pairs)]
    clear_memo()
    assert [v._mpf_ for v in orthogonality_residual(table, pairs)] == want
    clear_memo()
    integrate_weighted(lambda x: (fone,), table.params, prec)
    assert quadrature._node_weight[1]
    assert [v._mpf_ for v in orthogonality_residual(table, pairs)] == want


def test_orthogonality_independent_quadrature(table12):
    half = mpf(10) ** -60
    with mp.workdps(table12.prec.work_dps):
        for res in orthogonality_residual(table12, ((6, 3), (8, 0), (5, 4), (4, 4))):
            assert res < half


def test_classical_limit_along_t2_eq_t1sq():
    t1 = mpf(10) ** -6
    params = WeightParams("0.5", (t1, t1 * t1))
    tab = recurrence_table(params, 5, PrecisionContext(digits=60))
    with mp.workdps(70):
        for n in range(4):
            assert abs(tab.alpha(n) - (2 * n + 1 + mpf("0.5"))) < mpf(10) ** -4
        for n in range(1, 5):
            assert abs(tab.beta(n) - n * (n + mpf("0.5"))) < mpf(10) ** -4


def test_deep_table_matches_a_higher_precision_build():
    # the n = 24 scaling point at its own precision, P = 116: alpha_n from
    # one inner product, <P_n, x^(n+1)> / h_n + p(n), keeps about 112
    # digits of alpha_n, beta_n and h_n; the O(N^3) double sum of
    # <x P_n, P_n> kept about 95
    point = WeightParams("1/2", ("1/48", "1/2304"))
    tab = recurrence_table(point, 24, PrecisionContext(digits=116))
    ref = recurrence_table(point, 24, PrecisionContext(digits=160))
    tol = mpf(10) ** -105
    with mp.workdps(ref.prec.work_dps):
        for n in range(25):
            assert abs(tab.h[n] / ref.h[n] - 1) < tol, ("h", n)
            if n < 24:
                assert abs(tab.alpha(n) / ref.alpha(n) - 1) < tol, ("alpha", n)
            if n >= 1:
                assert abs(tab.beta(n) / ref.beta(n) - 1) < tol, ("beta", n)


def test_precision_exhausted(monkeypatch):
    # held at 50 digits, Gram-Schmidt keeps a positive h_n through N = 40
    # and loses every digit by h_73
    monkeypatch.setattr(orthopoly, "digits_for", lambda N: 50)
    params = WeightParams("0.5", ("0.3", "0.2"))
    with pytest.raises(PrecisionExhausted):
        recurrence_table(params, 80, PrecisionContext(digits=50))


@settings(max_examples=6, deadline=None)
@given(
    a10=st.integers(min_value=-5, max_value=25),
    t110=st.integers(min_value=-10, max_value=10).filter(lambda v: v != 0),
    t210=st.integers(min_value=1, max_value=10),
)
def test_table_positivity_property(a10, t110, t210):
    params = WeightParams(mpf(a10) / 10, (mpf(t110) / 10, mpf(t210) / 10))
    tab = recurrence_table(params, 4, PrecisionContext(digits=50))
    assert all(h > 0 for h in tab.h)
    assert all(tab.beta(n) > 0 for n in range(1, tab.N + 1))


def _fsum_inner(table, j, k, shift):
    """<P_j, P_k>_w shifted by x^shift, as one mp.fsum over every product
    c_{j,a} c_{k,b} mu_{a+b+shift}: the double sum, kept as the oracle."""
    cj, ck, mu = table.coeffs[j], table.coeffs[k], table.moments
    with mp.workdps(table.prec.work_dps):
        return mp.fsum(
            a * b * mu[ia + ib + shift] for ia, a in enumerate(cj) for ib, b in enumerate(ck)
        )


def _surviving_fsum_inner(table, j, k, shift):
    """The same value as one mp.fsum over the terms orthogonality leaves:
    j <= k, and only the a with a + shift < 0 or a + shift >= k."""
    j, k = min(j, k), max(j, k)
    cj, ck, mu = table.coeffs[j], table.coeffs[k], table.moments
    with mp.workdps(table.prec.work_dps):
        return mp.fsum(
            a * b * mu[ia + ib + shift] for ia, a in enumerate(cj)
            if ia + shift < 0 or ia + shift >= k for ib, b in enumerate(ck)
        )


#: (alpha, t, N, P) of the inner-product tables: m = 2, 3, 5, and the
#: n = 24 scaling point, the deepest table a default run builds
INNER_POINTS = {
    "m2": ("0.5", ("0.3", "0.2"), 12, 60),
    "m3": ("0.5", ("0.3", "0.2", "0.1"), 12, 60),
    "m5": ("0.5", ("-0.3", "0.2", "0.1", "0.05", "0.02"), 12, 60),
    "scaling-n24": ("1/2", ("1/48", "1/2304"), 24, 116),
}


def _inner_table(name, extra_digits=0):
    alpha, t, N, P = INNER_POINTS[name]
    return recurrence_table(WeightParams(alpha, t), N, PrecisionContext(digits=P + extra_digits))


def _aux_pairs(table):
    """(n, k, shifts) of every aux-row inner product of the table."""
    shifts = tuple(range(-1, -table.params.m - 1, -1))
    return [(n, k, shifts) for n in range(table.N + 1) for k in ((n, n - 1) if n else (n,))]


@pytest.mark.parametrize("name", sorted(INNER_POINTS))
def test_inner_xk_agrees_with_the_double_sum(name):
    # the orthogonality route against the double sum it replaces: both
    # within 10^-(P-10) relative of a P + 60 build, and the route's worst
    # error at most twice the double sum's
    table, ref = _inner_table(name), _inner_table(name, 60)
    worst_new = worst_old = mpf(0)
    for n, k, shifts in _aux_pairs(table):
        got = table.inner_xk(n, k, shifts)
        with mp.workdps(ref.prec.work_dps):
            for value, shift in zip(got, shifts):
                exact = _fsum_inner(ref, n, k, shift)
                worst_new = max(worst_new, abs(value - exact) / abs(exact))
                worst_old = max(worst_old,
                                abs(_fsum_inner(table, n, k, shift) - exact) / abs(exact))
    assert worst_new < mpf(10) ** -(table.prec.digits - 10), (name, worst_new)
    assert worst_new <= 2 * worst_old, (name, worst_new, worst_old)


@pytest.mark.parametrize("name", ["m2", "m3", "m5"])
def test_inner_xk_has_the_bits_of_one_fsum(name):
    # one pass over the surviving coefficient products for all shifts
    # must give, bit for bit, the per-shift fsum over those terms, with
    # (j, k) in either order
    table = _inner_table(name)
    for n, k, shifts in _aux_pairs(table):
        for j, kk in ((n, k), (k, n)):
            got = table.inner_xk(j, kk, shifts)
            assert len(got) == len(shifts)
            for value, shift in zip(got, shifts):
                assert value._mpf_ == _surviving_fsum_inner(table, n, k, shift)._mpf_, (n, k, shift)


def test_inner_xk_reads_o_of_m_n_moments():
    # an aux row at n = 24 reads sum over shifts of min(n+1, -s) (n+1)
    # moments: 1 + 2 outer terms of 25 for s = -1, -2 (the double sum
    # read 2 * 25^2 = 1250)
    reads = []

    class Counting(dict):
        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

    table = _inner_table("scaling-n24")
    counted = RecurrenceTable(table.params, table.prec, table.N, table.h, table.alpha_rc,
                              table.coeffs, Counting(table.moments))
    value = counted.inner_xk(24, 24, (-1, -2))
    assert len(reads) <= 3 * 25
    assert value == table.inner_xk(24, 24, (-1, -2))
