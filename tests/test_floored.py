"""``reports.floored`` in integers keeps the bits of its Fraction form."""

import random
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_floor

from laguerre_lab.reports import REPORT_DIGITS, TOL_DIGITS, floored


def floored_by_fractions(tol) -> mpf:
    """The Fraction and ``mp.log10`` form of ``floored``, kept as its oracle."""
    tol = mpf(tol)
    if not (tol > 0 and mp.isfinite(tol)):
        return tol
    exact = Fraction(int(tol.man)) * Fraction(2) ** int(tol.exp)
    e = int(mp.floor(mp.log10(tol))) - TOL_DIGITS + 1
    while exact >= Fraction(10) ** (e + TOL_DIGITS):
        e += 1
    while exact < Fraction(10) ** (e + TOL_DIGITS - 1):
        e -= 1
    q = int(exact / Fraction(10) ** e)
    with mp.workdps(REPORT_DIGITS + 10):
        return mp.make_mpf(from_rational(q * 10 ** max(e, 0), 10 ** max(-e, 0),
                                         mp.prec, round_floor))


def _values():
    """(dps, value): powers of ten and their neighbours 10^k (1 +- 2^-150)
    at 200 digits, then random 30 to 200 digit mantissas at exponents
    -420..60."""
    for k in range(-420, 61):
        with mp.workdps(200):
            x = mpf(10) ** k
            for v in (x, x + mp.ldexp(x, -150), x - mp.ldexp(x, -150)):
                yield 200, v
    rng = random.Random(55)
    for _ in range(2000):
        dps = rng.randint(30, 200)
        digits = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789")
                                                  for _ in range(dps - 1))
        with mp.workdps(dps):
            yield dps, mpf(f"{digits}e{rng.randint(-420, 60) - dps + 1}")


def test_floored_keeps_the_bits_of_its_fraction_form():
    count = 0
    for dps, v in _values():
        with mp.workdps(dps):
            got, want = floored(v), floored_by_fractions(v)
        assert got._mpf_ == want._mpf_, (dps, v)
        count += 1
    assert count == 3 * 481 + 2000


def test_floored_passes_non_positive_and_non_finite_values_through():
    with mp.workdps(130):
        for v in (mpf(0), mpf(-1), mpf("-1e-300"), mp.inf, -mp.inf):
            assert floored(v)._mpf_ == v._mpf_ == floored_by_fractions(v)._mpf_
        assert mp.isnan(floored(mp.nan))
