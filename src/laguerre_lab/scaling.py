"""Double-scaling sweeps s1 = 2n t1, s2 = 4n^2 t2 and their limits.

Per-n recurrence tables are built at the exactly-rational points
(t1, t2) = (s1/2n, s2/4n^2) with per-n precision 20 + 4n digits, the
sequences n R_n, n R_n*, r_n, r_n*, H_n are Richardson-extrapolated in
1/n (Neville at 0), and the limiting identities and PDEs are checked on
a small s-stencil of extrapolated values, differenced by the tap tables
of ``calculus``.  Reported errors are the last
Neville correction; finite-difference noise in s adds the propagated
extrapolation errors, and every residual contract scales with that
combined estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from mpmath import mp, mpf

from .calculus import CROSS, FIRST, SECOND, Difference, _richardson
from .errors import DomainError, SingularAux
from .ladder import aux_integrals
from .params import PrecisionContext, WeightParams, to_fraction, to_mpf
from .reports import Check

#: relative s-step for first derivatives of extrapolated quantities
FIRST_DELTA = Fraction(1, 32)
#: relative s-step for second derivatives (noise/curvature balance)
SECOND_DELTA = Fraction(1, 8)
#: the scaled quantities: n R_n, n R_n*, r_n, r_n*, H_n
QUANTITIES = ("R", "Rstar", "r", "rstar", "H")


@dataclass(frozen=True)
class ScalingPoint:
    """One (n, s1, s2) node with the induced finite-n parameters."""

    n: int
    s1: Fraction
    s2: Fraction

    def __post_init__(self):
        if self.n < 1 or self.s1 == 0 or not self.s2 > 0:
            raise DomainError("need n >= 1, s1 != 0, s2 > 0")

    @property
    def t1(self) -> Fraction:
        return self.s1 / (2 * self.n)

    @property
    def t2(self) -> Fraction:
        return self.s2 / (4 * self.n * self.n)

    def params(self, alpha) -> WeightParams:
        return WeightParams(alpha, (self.t1, self.t2))


class Scaled(NamedTuple):
    """One scaled quantity: its per-n sequence, 1/n limit and error."""

    seq: tuple
    limit: mpf
    err: mpf


@dataclass(frozen=True)
class ScaledSequences:
    """Per-n scaled values plus their 1/n-extrapolated limits, by quantity
    (``QUANTITIES``): ``seqs["R"].limit``."""

    alpha: Fraction
    s1: Fraction
    s2: Fraction
    n_list: tuple
    quantities: dict

    def __getitem__(self, quantity: str) -> Scaled:
        return self.quantities[quantity]


def _neville_at_zero(ns, vals):
    """Polynomial extrapolation of (1/n, v_n) to 1/n = 0.

    Returns (limit, error estimate = last correction size).
    """
    xs = [mpf(1) / n for n in ns]
    P = {(i, 0): vals[i] for i in range(len(ns))}
    for k in range(1, len(ns)):
        for i in range(k, len(ns)):
            P[(i, k)] = (xs[i] * P[(i - 1, k - 1)] - xs[i - k] * P[(i, k - 1)]) / (
                xs[i] - xs[i - k])
    L = len(ns) - 1
    err = abs(P[(L, L)] - P[(L, L - 1)]) if L >= 1 else mpf("inf")
    return P[(L, L)], err


def digits_for_scaling(n: int) -> int:
    """Table digits at scaling index n: 20 + 4n, at least the 50-digit floor."""
    return max(50, 20 + 4 * n)


def scaled_sequences(s1, s2, n_list, prec: PrecisionContext,
                     alpha="0.5", cache_dir=None) -> ScaledSequences:
    """Build the scaled sequences and their extrapolated limits.

    n_list must be increasing with min >= 4; per-n tables are built at
    digits 20 + 4n (through the table cache) so the shrinking t-values
    stay resolved.
    """
    s1, s2 = to_fraction(s1), to_fraction(s2)
    alpha = to_fraction(alpha)
    n_list = tuple(n_list)
    if len(n_list) < 2 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise DomainError("n_list must be increasing with at least two entries")
    if n_list[0] < 4:
        raise DomainError("n_list entries must be >= 4")

    from .cache import cached_recurrence_table

    seqs = {q: [] for q in QUANTITIES}
    for n in n_list:
        pt = ScalingPoint(n, s1, s2)
        params = pt.params(alpha)
        prec_n = PrecisionContext(digits=digits_for_scaling(n))
        tab = cached_recurrence_table(params, n, prec_n, cache_dir=cache_dir)
        with mp.workdps(prec_n.work_dps):
            a = aux_integrals(tab, n)
            H = n * (n + to_mpf(alpha)) + tab.p(n)
            for q, v in zip(QUANTITIES, (n * a.R[0], n * a.R[1], a.r[0], a.r[1], H)):
                seqs[q].append(v)

    with mp.workdps(prec.work_dps):
        quantities = {q: Scaled(tuple(v), *_neville_at_zero(n_list, v))
                      for q, v in seqs.items()}
    return ScaledSequences(alpha=alpha, s1=s1, s2=s2, n_list=n_list, quantities=quantities)


def convergence_slope(seqs: ScaledSequences) -> mpf:
    """Least-squares log-log slope of |x_n - R| against n, x_n = n R_n
    (expect ~ -1)."""
    R = seqs["R"]
    with mp.workdps(60):
        pts = [
            (mp.log(n), mp.log(abs(x - R.limit)))
            for n, x in zip(seqs.n_list, R.seq)
            if abs(x - R.limit) > 0
        ]
        k = len(pts)
        sx = mp.fsum(p[0] for p in pts)
        sy = mp.fsum(p[1] for p in pts)
        sxx = mp.fsum(p[0] ** 2 for p in pts)
        sxy = mp.fsum(p[0] * p[1] for p in pts)
        return (k * sxy - sx * sy) / (k * sxx - sx ** 2)


class ScaledGrid:
    """Memoized extrapolated limits on an (s1, s2) stencil."""

    def __init__(self, s1, s2, n_list, prec: PrecisionContext, alpha="0.5",
                 cache_dir=None):
        self.s1, self.s2 = to_fraction(s1), to_fraction(s2)
        self.alpha = to_fraction(alpha)
        self.n_list = tuple(n_list)
        self.prec = prec
        self.cache_dir = cache_dir
        self._memo = {}

    def at(self, j1=Fraction(0), j2=Fraction(0)) -> ScaledSequences:
        key = (j1, j2)
        if key not in self._memo:
            self._memo[key] = scaled_sequences(
                self.s1 * (1 + j1), self.s2 * (1 + j2),
                self.n_list, self.prec, alpha=self.alpha,
                cache_dir=self.cache_dir)
        return self._memo[key]

    def value(self, quantity: str, j1=Fraction(0), j2=Fraction(0)):
        """(limit, extrapolation error) of a quantity or of U = R + R*."""
        s = self.at(j1, j2)
        if quantity == "U":
            return s["R"].limit + s["Rstar"].limit, s["R"].err + s["Rstar"].err
        return s[quantity].limit, s[quantity].err

    def _derivative(self, diff: Difference, quantity: str, axes, delta: Fraction):
        """(diff of the extrapolated quantity in s on the axes, error).

        Two levels, relative steps delta and delta/2, Richardson-
        extrapolated; the error is the spread plus the largest propagated
        1/n-extrapolation error of a level.
        """
        with mp.workdps(self.prec.work_dps):
            bases = [to_mpf(self.s1 if ax == 0 else self.s2) for ax in axes]
            vals = {}
            levels = []
            emax = mpf(0)
            for q in (Fraction(1), Fraction(1, 2)):
                d = delta * q

                def at(offsets):
                    key = [Fraction(0), Fraction(0)]
                    for ax, j in zip(axes, offsets):
                        key[ax] = j * d
                    key = tuple(key)
                    if key not in vals:
                        vals[key] = self.value(quantity, *key)
                    return vals[key]

                steps = [b * to_mpf(d) for b in bases]  # signed: offsets are relative
                levels.append(diff.quotient(lambda o: at(o)[0], steps))
                prop = sum(abs(w) * at(o)[1] for o, w in diff.taps)
                emax = max(emax, prop / abs(diff.denominator(steps)))
            val, spread = _richardson(levels, diff.order)
            return val, spread + emax

    def first(self, quantity: str, axis: int):
        """d/ds_axis of the extrapolated quantity, with combined error."""
        return self._derivative(FIRST[2], quantity, (axis,), FIRST_DELTA)

    def second(self, quantity: str, axis: int):
        return self._derivative(SECOND[2], quantity, (axis,), SECOND_DELTA)

    def mixed(self, quantity: str):
        return self._derivative(CROSS, quantity, (0, 1), SECOND_DELTA)


def verify_limit_identities(grid: ScaledGrid):
    """R = -s1 dH/ds1, R* = -2 s2 dH/ds2, R = -r, R* = -r*, and the
    sign of dH/ds1; contracts are 10x the combined error."""
    out = []
    ps = f"(s1,s2)=({grid.s1},{grid.s2})"
    with mp.workdps(grid.prec.work_dps):
        s = grid.at()
        s1m, s2m = to_mpf(grid.s1), to_mpf(grid.s2)
        dH1, e1 = grid.first("H", 0)
        dH2, e2 = grid.first("H", 1)
        R, Rs, r, rs = (s[q] for q in ("R", "Rstar", "r", "rstar"))
        out.append(Check("scaled-R-plus-r", abs(R.limit + r.limit),
                         10 * (R.err + r.err), ps))
        out.append(Check("scaled-Rstar-plus-rstar", abs(Rs.limit + rs.limit),
                         10 * (Rs.err + rs.err), ps))
        out.append(Check("limit-R-identity", abs(R.limit + s1m * dH1),
                         10 * (R.err + abs(s1m) * e1), ps))
        out.append(Check("limit-Rstar-identity", abs(Rs.limit + 2 * s2m * dH2),
                         10 * (Rs.err + 2 * s2m * e2), ps))
        # sgn(dH/ds1) = -1: require dH1 negative beyond its error bar
        out.append(Check("dH-ds1-sign", mpf(0) if dH1 < -e1 else abs(dH1) + e1,
                         max(10 * e1, mpf(10) ** -10), ps))
        V = Rs.limit / R.limit
        out.append(Check("scaled-V-sign",
                         mpf(0) if V * mp.sign(s1m) > 0 else abs(V),
                         Rs.err + R.err, ps))
    return out


def verify_limiting_pdes(grid: ScaledGrid):
    """Residuals of the two limiting coupled PDEs for U = R + R*, the
    closed H(R, R*) form, its H-derivative substitution variant, and
    the limiting second-order second-degree PDE for H."""
    out = []
    ps = f"(s1,s2)=({grid.s1},{grid.s2})"
    with mp.workdps(grid.prec.work_dps):
        s = grid.at()
        alpha = to_mpf(to_mpf(grid.alpha))
        s1, s2 = to_mpf(grid.s1), to_mpf(grid.s2)
        R, Rs, H = (s[q].limit for q in ("R", "Rstar", "H"))
        err_RRs, err_H = s["R"].err + s["Rstar"].err, s["H"].err
        if abs(R) < mpf(10) ** -8:
            raise SingularAux("extrapolated R too small on the grid")
        U = R + Rs
        V = Rs / R

        dU1, eU1 = grid.first("U", 0)
        dU2, eU2 = grid.first("U", 1)
        dU11, eU11 = grid.second("U", 0)
        dU22, eU22 = grid.second("U", 1)
        dU12, eU12 = grid.mixed("U")
        dH1, eH1 = grid.first("H", 0)
        dH2, eH2 = grid.first("H", 1)
        dH11, eH11 = grid.second("H", 0)
        dH22, eH22 = grid.second("H", 1)
        dH12, eH12 = grid.mixed("H")

        terms1 = [
            s1 ** 2 * dU11,
            2 * s1 * s2 * dU12,
            2 * s1 * s2 * ((s1 * Rs / (2 * s2 * R)) * s1 * dU1 - dU2) ** 2,
            s1 * dU1 * (1 - s1 * dU1 / R),
            -2 * R * U,
            -(s1 ** 3 / (8 * s2)) * (Rs / R) ** 2,
            -alpha / 2 * s1,
            s1 ** 2 / (4 * R),
        ]
        scale1 = 1 + max(abs(v) for v in terms1)
        err1 = (s1 ** 2 * eU11 + 2 * abs(s1) * s2 * eU12
                + (abs(s1) * (1 + 2 * abs(s1 * dU1 / R)) + 2 * s2 * (1 + abs(s1 * Rs / s2 / R) ** 2 * abs(s1 * dU1) + abs(dU2))) * (eU1 + eU2)
                + (2 * abs(U) + abs(s1 ** 2 / R ** 2) + 1) * err_RRs)
        out.append(Check("limit-pde-1", abs(mp.fsum(terms1)) / scale1,
                         10 * err1 / scale1, ps))

        terms2 = [
            4 * s2 ** 2 * dU22,
            2 * s1 * s2 * dU12,
            (s1 / (2 * s2)) * V * (V * s1 * dU1 - 2 * s2 * dU2) ** 2,
            -(2 * s1 * s2 / R) * dU1 * dU2,
            V * s1 * dU1,
            2 * s2 * dU2,
            -2 * Rs * U,
            (2 * s2 / s1) * R,
            -s1 * V * ((s1 ** 2 / (8 * s2)) * V ** 2 + alpha / 2),
        ]
        scale2 = 1 + max(abs(v) for v in terms2)
        err2 = (4 * s2 ** 2 * eU22 + 2 * abs(s1) * s2 * eU12
                + (abs(s1 / s2) * abs(V) * (abs(V * s1) + 2 * s2) * (abs(V * s1 * dU1) + abs(2 * s2 * dU2))
                   + abs(2 * s1 * s2 / R) * (abs(dU1) + abs(dU2))
                   + abs(V * s1) + 2 * s2) * (eU1 + eU2)
                + (2 * abs(U) + 2 * abs(Rs) + abs(2 * s2 / s1) + 1
                   + abs(s1 ** 3 / s2) * V ** 2 / abs(R)) * err_RRs)
        out.append(Check("limit-pde-2", abs(mp.fsum(terms2)) / scale2,
                         10 * err2 / scale2, ps))

        def h_expr(Rv, Rsv, dUa, dUb):
            return (
                -(s1 * s2 / Rv) * ((s1 * Rsv / (2 * s2 * Rv)) * dUa - dUb) ** 2
                + (s1 * dUa / Rv - 1) ** 2 / 4
                - (Rv + Rsv)
                + s1 ** 3 * Rsv ** 2 / (16 * s2 * Rv ** 3)
                - (s1 / (2 * Rv) - alpha) ** 2 / 4
            )

        expr = h_expr(R, Rs, dU1, dU2)
        errH = (abs(s1 * s2 / R) * (1 + abs(s1 * Rs / s2 / R)) ** 2 * (abs(dU1) + abs(dU2) + 1) * (eU1 + eU2)
                + (1 + abs(s1 / R) ** 2 + abs(s1 ** 3 / s2) * abs(Rs) / R ** 2) * err_RRs
                + err_H)
        out.append(Check("limit-H-expr", abs(expr - H), 10 * errH, ps))

        # substitution route: R -> -s1 dH1, R* -> -2 s2 dH2, with
        # d(U)/ds from second derivatives of H
        Rh = -s1 * dH1
        Rsh = -2 * s2 * dH2
        dU1h = -(dH1 + s1 * dH11 + 2 * s2 * dH12)
        dU2h = -(s1 * dH12 + 2 * dH2 + 2 * s2 * dH22)
        expr_sub = h_expr(Rh, Rsh, dU1h, dU2h)
        errsub = (abs(s1) * eH1 + 2 * s2 * eH2
                  + (abs(s1) + 1) ** 2 * (eH11 + eH12 + eH22 + eH1 + eH2)
                  * (1 + abs(s1 * dU1h / Rh) + abs(s1 * Rsh / (s2 * Rh)) ** 2)
                  + err_H)
        out.append(Check("limit-H-subst", abs(expr_sub - H), 10 * errsub, ps))

        terms3 = [
            4 * s2 * (dH2 * (s1 * dH11 + 2 * s2 * dH12)
                      - dH1 * (2 * s2 * dH22 + s1 * dH12 + dH2)) ** 2,
            dH1 * (s1 * dH11 + 2 * s2 * dH12) ** 2,
            4 * dH1 ** 3 * (s1 * dH1 + 2 * s2 * dH2 - H),
            -dH1 * (alpha * dH1 + mpf(1) / 2) ** 2,
            -s2 * dH2 ** 2,
        ]
        scale3 = 1 + max(abs(v) for v in terms3)
        mag = (1 + abs(dH1) + abs(dH2)) * (1 + abs(s1 * dH11) + abs(2 * s2 * dH12) + abs(2 * s2 * dH22))
        err3 = (8 * s2 * mag ** 2 * (eH11 + eH12 + eH22)
                + mag ** 2 * (eH1 + eH2 + err_H))
        out.append(Check("limit-H-pde", abs(mp.fsum(terms3)) / scale3,
                         10 * err3 / scale3, ps))
    return out


def reduced_limit_residual(s1, s2_small, n_list, prec: PrecisionContext,
                           alpha="0.5", cache_dir=None):
    """Residual of the s2 -> 0 reduction
    (s1 H'')^2 + 4 (H')^2 (s1 H' - H) - (alpha H' + 1/2)^2 with ' = d/ds1,
    normalized by (1 + max term); decays as s2 -> 0+.
    """
    grid = ScaledGrid(s1, s2_small, n_list, prec, alpha=alpha, cache_dir=cache_dir)
    with mp.workdps(prec.work_dps):
        s1m = to_mpf(grid.s1)
        am = to_mpf(to_mpf(grid.alpha))
        H, _ = grid.value("H")
        dH1, _ = grid.first("H", 0)
        dH11, _ = grid.second("H", 0)
        terms = [
            (s1m * dH11) ** 2,
            4 * dH1 ** 2 * (s1m * dH1 - H),
            -(am * dH1 + mpf(1) / 2) ** 2,
        ]
        return abs(mp.fsum(terms)) / (1 + max(abs(v) for v in terms))
