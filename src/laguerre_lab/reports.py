"""Residual bookkeeping shared by the verification layers and the CLI.

A ``Check`` is one verified identity at one point: an id from the
registry, the absolute (or normalized) residual, and the tolerance it
was held to.  Suites collect checks into ``ResidualReport`` objects that
serialize to the JSON/CSV formats of the command-line surface.
"""

from __future__ import annotations

from typing import NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, from_rational, round_floor

#: significant digits used when rendering numbers into reports
REPORT_DIGITS = 30
#: significant digits a computed tolerance keeps (``floored``)
TOL_DIGITS = 12
#: the binary precision a floored tolerance is rounded to
_TOL_PREC = dps_to_prec(REPORT_DIGITS + 10)


def render(x) -> str:
    """Decimal-string rendering used in all reports (never binary floats)."""
    if x is None:
        return ""
    with mp.workdps(REPORT_DIGITS + 10):
        return mp.nstr(mpf(x) if not isinstance(x, mpf) else x, REPORT_DIGITS)


def floored(tol) -> mpf:
    """A computed tolerance rounded down to TOL_DIGITS significant digits.

    An error estimate read off finite differences or propagated through a
    residual, or a bound scaled by a computed value, has only about 16 good
    digits of the REPORT_DIGITS a report prints: the rest is the noise of
    the table bits under it.  Its check is built with the floored value,
    so the printed tolerance is the one the check is held to, and a change
    of table bits moves it only where it moves the estimate's 12th digit.
    Fixed bounds are not floored.  A tolerance that is not finite and
    positive comes back as it is.
    """
    tol = mpf(tol)
    if not (tol > 0 and mp.isfinite(tol)):
        return tol
    man, exp = int(tol.man), int(tol.exp)
    num, den = man << max(exp, 0), 1 << max(-exp, 0)
    # q = floor(tol / 10^e) with TOL_DIGITS digits, e from a bit-length guess
    e = (num.bit_length() - den.bit_length()) * 30103 // 100000 - TOL_DIGITS + 1
    while True:
        q = num * 10 ** -e // den if e < 0 else num // (den * 10 ** e)
        if q >= 10 ** TOL_DIGITS:
            e += 1
        elif q < 10 ** (TOL_DIGITS - 1):
            e -= 1
        else:
            return mp.make_mpf(from_rational(q * 10 ** max(e, 0), 10 ** max(-e, 0),
                                             _TOL_PREC, round_floor))


class Check(NamedTuple):
    """One identity residual at one evaluation point."""

    id: str
    residual: mpf
    tol: mpf
    point: str = ""

    @property
    def ok(self) -> bool:
        return bool(self.residual <= self.tol)

    def entry(self) -> dict:
        return {
            "id": self.id,
            "point": self.point,
            "residual": render(self.residual),
            "tolerance": render(self.tol),
            "pass": self.ok,
        }


def sign_check(cid: str, values, tol, point: str, errors=None) -> Check:
    """A sign fact: each value, already multiplied by its expected sign,
    must exceed 10 times its error (0 for exact values, the default; 10 is
    ``calculus.propagated_check``'s factor).  The residual is 0 when every
    value does, else 1 plus the worst shortfall, above any tol < 1."""
    values = list(values)
    errors = [0] * len(values) if errors is None else errors
    short = max(10 * e - v for v, e in zip(values, errors))
    return Check(cid, mpf(0) if short < 0 else 1 + short, tol, point)


class ResidualReport:
    """All checks of one suite plus run metadata."""

    def __init__(self, suite: str, metadata: dict = None):
        self.suite = suite
        self.entries = []
        self.metadata = {} if metadata is None else metadata

    def add(self, check: Check):
        self.entries.append(check)

    def extend(self, checks):
        self.entries.extend(checks)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.entries if not c.ok)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "entries": [c.entry() for c in self.entries],
            "metadata": dict(sorted(self.metadata.items())),
        }

    def csv_rows(self):
        yield ["suite", "id", "point", "residual", "tolerance", "pass"]
        for c in self.entries:
            e = c.entry()
            yield [self.suite, e["id"], e["point"], e["residual"], e["tolerance"], str(e["pass"])]
