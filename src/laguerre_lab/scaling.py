"""Double-scaling sweeps s1 = 2n t1, s2 = 4n^2 t2 and their limits.

Per-n recurrence tables are built at the exactly-rational points
(t1, t2) = (s1/2n, s2/4n^2) with per-n precision 20 + 4n digits, the
sequences n R_n, n R_n*, r_n, r_n*, H_n are Richardson-extrapolated in
1/n (Neville at 0), and the limiting identities and PDEs are checked on
a small s-stencil of extrapolated values.  Reported errors are the last
Neville correction; finite-difference noise in s adds the propagated
extrapolation errors, and every residual contract scales with that
combined estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .errors import DomainError, SingularAux
from .ladder import aux_integrals
from .params import PrecisionContext, WeightParams, to_fraction, to_mpf
from .reports import Check

#: relative s-step for first derivatives of extrapolated quantities
FIRST_DELTA = Fraction(1, 32)
#: relative s-step for second derivatives (noise/curvature balance)
SECOND_DELTA = Fraction(1, 8)


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


@dataclass(frozen=True)
class ScaledSequences:
    """Per-n scaled values plus their 1/n-extrapolated limits."""

    alpha: Fraction
    s1: Fraction
    s2: Fraction
    n_list: tuple
    x_seq: tuple      # n R_n
    y_seq: tuple      # n R_n*
    r_seq: tuple
    rstar_seq: tuple
    H_seq: tuple
    R: mpf
    Rstar: mpf
    r: mpf
    rstar: mpf
    H: mpf
    err_R: mpf
    err_Rstar: mpf
    err_r: mpf
    err_rstar: mpf
    err_H: mpf

    @property
    def U(self) -> mpf:
        return self.R + self.Rstar

    @property
    def V(self) -> mpf:
        return self.Rstar / self.R


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

    xs, ys, rs, rss, Hs = [], [], [], [], []
    for n in n_list:
        pt = ScalingPoint(n, s1, s2)
        params = pt.params(alpha)
        prec_n = prec.scaled(digits_for_scaling(n))
        tab = cached_recurrence_table(params, n, prec_n, cache_dir=cache_dir)
        with mp.workdps(prec_n.work_dps):
            a = aux_integrals(tab, n)
            am = to_mpf(alpha)
            xs.append(n * a.R[0])
            ys.append(n * a.R[1])
            rs.append(a.r[0])
            rss.append(a.r[1])
            Hs.append(n * (n + am) + tab.p(n))

    with mp.workdps(prec.work_dps):
        R, eR = _neville_at_zero(n_list, xs)
        Rstar, eRs = _neville_at_zero(n_list, ys)
        r, er = _neville_at_zero(n_list, rs)
        rstar, ers = _neville_at_zero(n_list, rss)
        H, eH = _neville_at_zero(n_list, Hs)
    return ScaledSequences(
        alpha=alpha, s1=s1, s2=s2, n_list=n_list,
        x_seq=tuple(xs), y_seq=tuple(ys), r_seq=tuple(rs),
        rstar_seq=tuple(rss), H_seq=tuple(Hs),
        R=R, Rstar=Rstar, r=r, rstar=rstar, H=H,
        err_R=eR, err_Rstar=eRs, err_r=er, err_rstar=ers, err_H=eH,
    )


def convergence_slope(seqs: ScaledSequences) -> mpf:
    """Least-squares log-log slope of |x_n - R| against n (expect ~ -1)."""
    with mp.workdps(60):
        pts = [
            (mp.log(n), mp.log(abs(x - seqs.R)))
            for n, x in zip(seqs.n_list, seqs.x_seq)
            if abs(x - seqs.R) > 0
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
        """(value, extrapolation error) of 'R'|'Rstar'|'r'|'rstar'|'H'|'U'."""
        s = self.at(j1, j2)
        if quantity == "U":
            return s.R + s.Rstar, s.err_R + s.err_Rstar
        v = getattr(s, quantity)
        return v, getattr(s, "err_" + quantity)

    def first(self, quantity: str, axis: int, delta: Fraction = FIRST_DELTA):
        """d/ds_axis of the extrapolated quantity, with combined error."""
        with mp.workdps(self.prec.work_dps):
            base = to_mpf(self.s1 if axis == 0 else self.s2)
            ests = []
            emax = mpf(0)
            for lev in (Fraction(1), Fraction(1, 2)):
                d = delta * lev
                off = lambda j: (j, Fraction(0)) if axis == 0 else (Fraction(0), j)
                vp, ep = self.value(quantity, *off(d))
                vm, em = self.value(quantity, *off(-d))
                h = base * to_mpf(d)  # signed: offsets are relative
                ests.append((vp - vm) / (2 * h))
                emax = max(emax, (ep + em) / (2 * abs(h)))
            val = (4 * ests[1] - ests[0]) / 3
            err = abs(ests[1] - ests[0]) / 3 + emax
            return val, err

    def second(self, quantity: str, axis: int, delta: Fraction = SECOND_DELTA):
        with mp.workdps(self.prec.work_dps):
            base = to_mpf(self.s1 if axis == 0 else self.s2)
            v0, e0 = self.value(quantity)
            ests = []
            emax = mpf(0)
            for lev in (Fraction(1), Fraction(1, 2)):
                d = delta * lev
                off = lambda j: (j, Fraction(0)) if axis == 0 else (Fraction(0), j)
                vp, ep = self.value(quantity, *off(d))
                vm, em = self.value(quantity, *off(-d))
                h = base * to_mpf(d)
                ests.append((vp - 2 * v0 + vm) / (h * h))
                emax = max(emax, (ep + em + 2 * e0) / (h * h))
            val = (4 * ests[1] - ests[0]) / 3
            err = abs(ests[1] - ests[0]) / 3 + emax
            return val, err

    def mixed(self, quantity: str, delta: Fraction = SECOND_DELTA):
        with mp.workdps(self.prec.work_dps):
            b1, b2 = to_mpf(self.s1), to_mpf(self.s2)
            ests = []
            emax = mpf(0)
            for lev in (Fraction(1), Fraction(1, 2)):
                d = delta * lev
                tot = mpf(0)
                etot = mpf(0)
                for u in (d, -d):
                    for w in (d, -d):
                        v, e = self.value(quantity, u, w)
                        sgn = 1 if (u > 0) == (w > 0) else -1
                        tot += sgn * v
                        etot += e
                h1 = b1 * to_mpf(d)  # signed steps
                h2 = b2 * to_mpf(d)
                ests.append(tot / (4 * h1 * h2))
                emax = max(emax, etot / (4 * abs(h1 * h2)))
            val = (4 * ests[1] - ests[0]) / 3
            err = abs(ests[1] - ests[0]) / 3 + emax
            return val, err


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
        out.append(Check("scaled-R-plus-r", abs(s.R + s.r),
                         10 * (s.err_R + s.err_r), ps))
        out.append(Check("scaled-Rstar-plus-rstar", abs(s.Rstar + s.rstar),
                         10 * (s.err_Rstar + s.err_rstar), ps))
        out.append(Check("limit-R-identity", abs(s.R + s1m * dH1),
                         10 * (s.err_R + abs(s1m) * e1), ps))
        out.append(Check("limit-Rstar-identity", abs(s.Rstar + 2 * s2m * dH2),
                         10 * (s.err_Rstar + 2 * s2m * e2), ps))
        # sgn(dH/ds1) = -1: require dH1 negative beyond its error bar
        out.append(Check("dH-ds1-sign", mpf(0) if dH1 < -e1 else abs(dH1) + e1,
                         max(10 * e1, mpf(10) ** -10), ps))
        out.append(Check("scaled-V-sign",
                         mpf(0) if s.V * mp.sign(s1m) > 0 else abs(s.V),
                         s.err_Rstar + s.err_R, ps))
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
        R, Rs, H = s.R, s.Rstar, s.H
        if abs(R) < mpf(10) ** -8:
            raise SingularAux("extrapolated R too small on the grid")
        U = R + Rs
        V = Rs / R

        dU1, eU1 = grid.first("U", 0)
        dU2, eU2 = grid.first("U", 1)
        dU11, eU11 = grid.second("U", 0)
        dU22, eU22 = grid.second("U", 1)
        dU12, eU12 = grid.mixed("U")
        dR1, eR1 = grid.first("R", 0)
        dR2, eR2 = grid.first("R", 1)
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
                + (2 * abs(U) + abs(s1 ** 2 / R ** 2) + 1) * (s.err_R + s.err_Rstar))
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
                   + abs(s1 ** 3 / s2) * V ** 2 / abs(R)) * (s.err_R + s.err_Rstar))
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
                + (1 + abs(s1 / R) ** 2 + abs(s1 ** 3 / s2) * abs(Rs) / R ** 2) * (s.err_R + s.err_Rstar)
                + s.err_H)
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
                  + s.err_H)
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
                + mag ** 2 * (eH1 + eH2 + s.err_H))
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
