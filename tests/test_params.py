from fractions import Fraction

import pytest
from mpmath import mp, mpf

from laguerre_lab.errors import DomainError
from laguerre_lab.params import PrecisionContext, WeightParams, to_fraction, to_mpf


def test_valid_default_point():
    p = WeightParams("0.5", ("0.3", "0.2"))
    assert p.m == 2
    assert p.is_deformed
    assert p.t1 == Fraction(3, 10) and p.t2 == Fraction(1, 5)


def test_negative_t1_accepted():
    p = WeightParams("0.5", ("-0.3", "0.2"))
    assert p.t1 < 0 and p.t2 > 0


def test_alpha_bound():
    with pytest.raises(DomainError):
        WeightParams("-1", ("0.3", "0.2"))
    with pytest.raises(DomainError):
        WeightParams("-1.5", ("0.3", "0.2"))


def test_tm_positive_required():
    with pytest.raises(DomainError):
        WeightParams("0.5", ("0.3", "-0.2"))
    with pytest.raises(DomainError):
        WeightParams("0.5", ("0.3", "0"))


def test_interior_t_nonzero():
    with pytest.raises(DomainError):
        WeightParams("0.5", ("0", "0.2"))
    with pytest.raises(DomainError):
        WeightParams("0.5", ("0.3", "0", "0.1"))


def test_classical_limit_mode():
    p = WeightParams("0.5", ("0", "0"))
    assert not p.is_deformed
    q = WeightParams("0.5")
    assert not q.is_deformed and q.m == 0


def test_tau_rho_accessors():
    p = WeightParams("0.5", ("0.3", "0.2", "0.1"))
    assert p.tau == Fraction(4, 3)
    assert p.rho == Fraction(3, 4)
    assert WeightParams("0.5", ("0.3", "0.2")).rho == 0
    with pytest.raises(DomainError):
        WeightParams("0.5", ("0", "0")).tau


def test_potential_derivative():
    p = WeightParams("1", ("2", "3"))
    with mp.workdps(40):
        z = mpf(2)
        # -alpha/z + 1 - t1/z^2 - 2 t2/z^3
        want = -mpf(1) / 2 + 1 - mpf(2) / 4 - mpf(6) / 8
        assert abs(p.potential_derivative(z) - want) < mpf(10) ** -35
    # alpha and k t_k are held per precision: a call at 40 digits does
    # not leave 40-digit coefficients for a call at 100
    p = WeightParams("1/3", ("1/7", "2/9"))
    exact = -Fraction(1, 3) / 2 + 1 - Fraction(1, 7) / 4 - 2 * Fraction(2, 9) / 8
    for digits in (40, 100):
        with mp.workdps(digits):
            got = p.potential_derivative(2)
        with mp.workdps(digits + 20):
            assert abs(got - to_mpf(exact)) < mpf(10) ** (5 - digits)


def test_potential_derivative_raw_has_the_bits_of_the_exact_coefficients():
    # -alpha and k t_k rounded from the exact rationals at each precision,
    # in mpf arithmetic on -alpha/z + 1 - sum_k k t_k / z^(k+1)
    for t in (("1/7", "2/9"), ("1/7", "2/9", "5/13")):
        p = WeightParams("1/3", t)
        for digits in (40, 135):
            with mp.workdps(digits):
                vprime = p.potential_derivative_raw()
                neg_alpha = -to_mpf(p.alpha)
                ktk = [k * to_mpf(tk) for k, tk in enumerate(p.t, start=1)]
                for z in (mpf(1) / 3, mpf("0.7"), mpf(2), mpf(11) / 3):
                    want, zp = neg_alpha / z + 1, z
                    for c in ktk:
                        zp *= z
                        want -= c / zp
                    assert vprime(z._mpf_) == want._mpf_, (t, digits, z)


def test_to_fraction_decimal_faithful():
    assert to_fraction(0.3) == Fraction(3, 10)
    assert to_fraction("1e-6") == Fraction(1, 10**6)
    assert to_fraction(mpf("0.25")) == Fraction(1, 4)  # binary-exact round trip
    with mp.workdps(60):
        assert abs(to_mpf(0.3) - mpf("0.3")) < mpf(10) ** -55


def test_params_precision_independent():
    # the same point converts to mpf consistently at any working precision
    with mp.workdps(15):
        p = WeightParams("0.5", ("0.3", "0.2"))
    with mp.workdps(200):
        t = p.t_mpf()
        assert abs(t[0] - mpf(3) / 10) < mpf(10) ** -195


def test_precision_context_invariants():
    with pytest.raises(DomainError):
        PrecisionContext(digits=40)
    prec = PrecisionContext(digits=120)
    assert prec.quad_tol == Fraction(1, 10**110)
    assert prec.fd_rel_step == Fraction(1, 10**24)
    # table keys are built from this token; quad_tol follows from P
    assert prec.cache_token() == "P=120"


def test_cache_tokens_distinguish_points():
    a = WeightParams("0.5", ("0.3", "0.2"))
    b = WeightParams("0.5", ("0.3", "0.200001"))
    assert a.cache_token() != b.cache_token()
