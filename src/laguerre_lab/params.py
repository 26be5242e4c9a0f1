"""Weight parameters and precision policy.

``WeightParams`` is the single source of truth for the deformed Laguerre
weight

    w(x) = x^alpha * exp(-x - sum_{k=1}^m t_k / x^k),   x in (0, inf),

with alpha > -1, t_m > 0 and t_i != 0 for i < m.  The fully degenerate
vector t = 0 is accepted as a classical-Laguerre limit mode used by limit
tests only; mixed zero/nonzero vectors are rejected.

Parameters are stored as exact rationals and are converted to mpf at the
precision active where they are used (alpha by ``to_mpf``, t through the
point's per-precision ``t_mpf`` memo), so a point like t1 = 0.3 means the
decimal 3/10 at every working precision, and derived ratios such as
tau = 2 t2/t1 are exact.  Numerical code must do its arithmetic inside
``mp.workdps(...)`` blocks; everything here follows that convention.

``PrecisionContext`` carries the working decimal precision together with
the quadrature and finite-difference step policy derived from it.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import fone, mpf_add, mpf_div, mpf_mul, mpf_sub

from .errors import DomainError

#: extra guard digits used internally by quadrature / linear algebra
GUARD_DIGITS = 15


def to_fraction(value) -> Fraction:
    """Exact rational from str / int / float / Fraction / mpf.

    Floats go through ``repr`` so that 0.3 means the decimal 3/10, not
    the nearest double; mpf values convert exactly (they are binary
    rationals).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, mpf) or hasattr(value, "_mpf_"):
        sign, man, exp, _ = value._mpf_
        if man == 0 and exp != 0:
            raise DomainError(f"cannot convert special value {value!r}")
        num = -man if sign else man
        return Fraction(num) * Fraction(2) ** exp
    raise DomainError(f"cannot interpret {value!r} as an exact parameter")


def to_mpf(value) -> mpf:
    """mpf at the current working precision, decimal-faithful for floats."""
    if isinstance(value, mpf):
        return value
    if isinstance(value, (int, str)):
        return mpf(value)
    q = to_fraction(value)
    return mpf(q.numerator) / q.denominator


def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


class WeightParams:
    """Parameters (alpha, t_1..t_m) of the deformed Laguerre weight.

    Immutable; two points are equal, and hash alike, when their exact
    (alpha, t) are, so a point keys the table and seed memos.  The
    per-precision ``t_mpf`` memo is not part of the value.
    """

    __slots__ = ("alpha", "t", "m", "_mpf")

    def __init__(self, alpha, t=()):
        object.__setattr__(self, "alpha", to_fraction(alpha))
        object.__setattr__(self, "t", tuple(to_fraction(v) for v in t))
        object.__setattr__(self, "m", len(self.t))
        object.__setattr__(self, "_mpf", {})  # ``t_mpf`` by (precision, scaled)
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError(f"WeightParams is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not WeightParams:
            return NotImplemented
        return self.alpha == other.alpha and self.t == other.t

    def __hash__(self):
        return hash((self.alpha, self.t))

    def __repr__(self):
        return f"WeightParams(alpha={self.alpha!r}, t={self.t!r})"

    def _validate(self):
        if not self.alpha > -1:
            raise DomainError(f"alpha must be > -1, got {self.alpha}")
        if self.m == 0 or all(v == 0 for v in self.t):
            return  # classical limit mode
        if not self.t[-1] > 0:
            raise DomainError(f"t_m must be > 0, got t_{self.m} = {self.t[-1]}")
        for i, v in enumerate(self.t[:-1], start=1):
            if v == 0:
                raise DomainError(f"t_{i} must be nonzero (only t = 0 entirely is allowed)")

    @property
    def is_deformed(self) -> bool:
        """False only in the classical-Laguerre limit mode t = 0."""
        return self.m > 0 and any(v != 0 for v in self.t)

    @property
    def t1(self) -> Fraction:
        return self.t[0] if self.m >= 1 else Fraction(0)

    @property
    def t2(self) -> Fraction:
        return self.t[1] if self.m >= 2 else Fraction(0)

    @property
    def t3(self) -> Fraction:
        return self.t[2] if self.m >= 3 else Fraction(0)

    @property
    def tau(self) -> Fraction:
        """2 t2 / t1, exact; requires t1 != 0."""
        if self.m < 2 or self.t1 == 0:
            raise DomainError("tau = 2 t2 / t1 needs m >= 2 and t1 != 0")
        return 2 * self.t2 / self.t1

    @property
    def rho(self) -> Fraction:
        """3 t3 / (2 t2), exact: 0 at m = 2, where t3 = 0; requires t2 != 0."""
        if self.t2 == 0:
            raise DomainError("rho = 3 t3 / (2 t2) needs t2 != 0")
        return Fraction(3, 2) * self.t3 / self.t2

    def with_t(self, t) -> "WeightParams":
        """Same alpha, new deformation vector."""
        return WeightParams(self.alpha, t)

    def t_mpf(self, scaled: bool = False) -> tuple:
        """(t_1, .., t_m), or with scaled (1 t_1, .., m t_m) each rounded
        once, as mpf at the current working precision: converted once per
        precision and kept on the point."""
        key = (mp.prec, scaled)
        out = self._mpf.get(key)
        if out is None:
            out = self._mpf[key] = tuple(to_mpf(i * t if scaled else t)
                                         for i, t in enumerate(self.t, start=1))
        return out

    def potential_derivative(self, z) -> mpf:
        """v'(z) for v = -ln w:  -alpha/z + 1 - sum_k k t_k z^(-k-1)."""
        return mp.make_mpf(self.potential_derivative_raw()(to_mpf(z)._mpf_))

    def potential_derivative_raw(self):
        """v' on raw mpf tuples: vprime(z) at the raw mpf z (``mpf._mpf_``).

        Build it inside the working-precision block: alpha and k t_k are
        looked up once, at that precision.  Each operation is the one, in
        the order, that mpf arithmetic on -alpha/z + 1 - sum_k k t_k / z^(k+1)
        would make, with z^(k+1) formed by repeated multiplication.
        """
        prec, rnd = mp._prec_rounding
        neg_alpha = (-to_mpf(self.alpha))._mpf_
        ktk = [(k * tk)._mpf_ for k, tk in enumerate(self.t_mpf(), start=1)]

        def vprime(z):
            out = mpf_add(mpf_div(neg_alpha, z, prec, rnd), fone, prec, rnd)
            zp = z
            for c in ktk:
                zp = mpf_mul(zp, z, prec, rnd)
                out = mpf_sub(out, mpf_div(c, zp, prec, rnd), prec, rnd)
            return out

        return vprime

    def log_weight(self, x) -> mpf:
        """ln w(x) = alpha ln x - x - sum_k t_k x^(-k)."""
        x = to_mpf(x)
        out = to_mpf(self.alpha) * mp.log(x) - x
        xp = mpf(1)
        for tk in self.t:
            xp *= x
            out -= to_mpf(tk) / xp
        return out

    def cache_token(self) -> str:
        return "a=%s;t=%s" % (frac_str(self.alpha), ",".join(frac_str(v) for v in self.t))


class PrecisionContext:
    """Working precision P plus the quadrature / FD step policy derived
    from it; P is the only setting.

    digits     -- working decimal precision P (>= 50)
    quad_tol   -- relative quadrature target 10^(-P+10)

    The FD relative step is 10^(-round(P/5)), balancing truncation
    against roundoff.  digits has no default of its own: a run takes it
    from ``config.DEFAULTS``.  Immutable, equal and hashed by digits.
    """

    __slots__ = ("digits",)

    def __init__(self, digits: int):
        if digits < 50:
            raise DomainError(f"digits must be >= 50, got {digits}")
        object.__setattr__(self, "digits", digits)

    def __setattr__(self, name, value):
        raise AttributeError(f"PrecisionContext is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not PrecisionContext:
            return NotImplemented
        return self.digits == other.digits

    def __hash__(self):
        return hash(self.digits)

    def __repr__(self):
        return f"PrecisionContext(digits={self.digits!r})"

    @property
    def quad_tol(self) -> Fraction:
        return Fraction(1, 10 ** (self.digits - 10))

    @property
    def work_dps(self) -> int:
        return self.digits + GUARD_DIGITS

    @property
    def fd_rel_step(self) -> Fraction:
        return Fraction(1, 10 ** round(Fraction(self.digits, 5)))

    @property
    def eps(self) -> Fraction:
        """10^(-digits): nominal resolution of stored quantities."""
        return Fraction(1, 10 ** self.digits)

    @property
    def half_eps(self) -> Fraction:
        """10^(-digits/2): default residual contract for exact identities."""
        return Fraction(1, 10 ** (self.digits // 2))

    def cache_token(self) -> str:
        # every other setting follows from the digits
        return f"P={self.digits}"
