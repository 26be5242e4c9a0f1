"""Three-parameter analog and general-m ladder layer.

For m = 3 the auxiliary sextuple (R, R*, R^, r, r*, r^) replaces the
quadruple: the same machinery yields the recurrence coefficients in
closed form, an iterable difference system (solved in the order
R-step, R*-step, R^-step, then the three r-advances), six derivative
relations, Toda-like equations, a six-equation Riccati system, and the
reconstruction of all six auxiliaries from H_n derivative data, which
numerically certifies the pipeline behind the (unwritten) m = 3 PDE.

For general m the 1/z-coefficients of A_n, B_n come from the double
sum over (l, i) with exact rational prefactors (l-2+i) t_{l-2+i}/(i t_i),
and the S1 family, the two stated S2' coefficient identities, and the
H_n derivative relations are checked for m <= 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .calculus import DerivativeStencil, StencilGrid, _point_str
from .errors import (
    BranchAmbiguity,
    DegenerateBracket,
    DomainError,
    NegativeDiscriminant,
    SingularAux,
)
from .orthopoly import RecurrenceTable
from .params import PrecisionContext, WeightParams, to_mpf
from .quadrature import integrate_weighted, moments
from .reports import Check


@dataclass(frozen=True)
class AuxRow:
    """R_{n,i} and r_{n,i} for i = 1..m at one index n (1-based access)."""

    R: tuple
    r: tuple

    def Ri(self, i: int) -> mpf:
        return self.R[i - 1]

    def ri(self, i: int) -> mpf:
        return self.r[i - 1]

    @property
    def Rsum(self) -> mpf:
        return sum(self.R)

    @property
    def rsum(self) -> mpf:
        return sum(self.r)


@dataclass(frozen=True)
class AuxSextuple:
    """m = 3 auxiliaries at one index n."""

    R: mpf
    Rstar: mpf
    Rhat: mpf
    r: mpf
    rstar: mpf
    rhat: mpf

    def as_tuple(self):
        return (self.R, self.Rstar, self.Rhat, self.r, self.rstar, self.rhat)

    @classmethod
    def from_row(cls, row: AuxRow) -> "AuxSextuple":
        return cls(R=row.R[0], Rstar=row.R[1], Rhat=row.R[2],
                   r=row.r[0], rstar=row.r[1], rhat=row.r[2])


def aux_integrals_m(table: RecurrenceTable, n: int) -> AuxRow:
    """All weighted auxiliary integrals at index n via the moment table."""
    params = table.params
    if not params.is_deformed:
        raise DomainError("auxiliaries need a deformed weight")
    with mp.workdps(table.prec.work_dps):
        R, r = [], []
        for i in range(1, params.m + 1):
            iti = to_mpf(i * params.t[i - 1])
            R.append(iti * table.inner_xk(n, n, -i) / table.h[n])
            if n == 0:
                r.append(mpf(0))
            else:
                r.append(iti * table.inner_xk(n, n - 1, -i) / table.h[n - 1])
        return AuxRow(R=tuple(R), r=tuple(r))


def aux_integrals_3(table: RecurrenceTable, n: int) -> AuxSextuple:
    if table.params.m != 3:
        raise DomainError("sextuple route needs the three-parameter weight")
    return AuxSextuple.from_row(aux_integrals_m(table, n))


def aux_rows(table: RecurrenceTable, N: int):
    return [aux_integrals_m(table, n) for n in range(N + 1)]


def ladder_coeffs_m(row: AuxRow, n: int, params: WeightParams):
    """(a_coeffs, b_coeffs): 1/z..1/z^(m+1) coefficients of A_n and B_n."""
    m = params.m
    if any(t == 0 for t in params.t):
        raise DomainError("ladder coefficients need all t_i nonzero")
    a = [mpf(1)]
    b = [mpf(-n)]
    for ell in range(2, m + 2):
        ca = mpf(0)
        cb = mpf(0)
        for i in range(1, m + 3 - ell):
            pref = to_mpf(Fraction(ell - 2 + i) * params.t[ell - 3 + i] /
                          (i * params.t[i - 1]))
            ca += pref * row.Ri(i)
            cb += pref * row.ri(i)
        a.append(ca)
        b.append(cb)
    return tuple(a), tuple(b)


def eval_laurent(coeffs, z) -> mpf:
    z = to_mpf(z)
    return sum(c / z ** (k + 1) for k, c in enumerate(coeffs))


def ladder_A_direct(table: RecurrenceTable, n: int, z) -> mpf:
    """A_n(z) from its integral definition with the divided-difference
    kernel (the oracle route for the assembled coefficients)."""
    from .orthopoly import eval_polynomial

    params, prec = table.params, table.prec
    z = to_mpf(z)
    with mp.workdps(prec.work_dps):
        zvz = z * params.potential_derivative(z)

        def f(x):
            kern = (zvz - x * params.potential_derivative(x)) / (z - x)
            return kern * eval_polynomial(table, n, x) ** 2

        return integrate_weighted(f, params, prec) / (z * table.h[n])


def initial_sextuple(params: WeightParams, prec: PrecisionContext) -> AuxSextuple:
    if params.m != 3:
        raise DomainError("need m = 3")
    mu = moments(params, -3, 0, prec)
    with mp.workdps(prec.work_dps):
        t1, t2, t3 = (to_mpf(v) for v in params.t)
        return AuxSextuple(
            R=t1 * mu[-1] / mu[0],
            Rstar=2 * t2 * mu[-2] / mu[0],
            Rhat=3 * t3 * mu[-3] / mu[0],
            r=mpf(0), rstar=mpf(0), rhat=mpf(0),
        )


def iterate_difference_3(params: WeightParams, N: int,
                         prec: PrecisionContext) -> list:
    """Advance the sextuple by the m = 3 difference system for n = 0..N.

    Order per step: advance the r-triple through the S1 family, then the
    three remaining equations are linear in R_n, R_n*, R_n^ in turn.
    """
    if params.m != 3:
        raise DomainError("need m = 3")
    out = [initial_sextuple(params, prec)]
    with mp.workdps(prec.work_dps):
        thresh = to_mpf(prec.half_eps)
        t1, t2, t3 = (to_mpf(v) for v in params.t)
        alpha = to_mpf(params.alpha)
        tau = to_mpf(params.tau)
        rho = to_mpf(params.rho)
        for n in range(1, N + 1):
            p = out[-1]
            Rm, Rms, Rmh = p.R, p.Rstar, p.Rhat
            a_prev = 2 * (n - 1) + 1 + alpha + Rm + Rms + Rmh
            r = t1 - p.r - a_prev * Rm
            rs = tau * Rm - p.rstar - a_prev * Rms
            rh = rho * Rms - p.rhat - a_prev * Rmh

            br5 = (
                (rs * Rm - r * Rms) * (rs * Rm - (r - t1) * Rms) * (rho / tau * Rms - Rm)
                + (2 * r - t1) * (rh * Rms + rs * Rmh) * Rm ** 2
                + r * (r - t1) * (tau * Rm - 2 * Rms * Rmh) * Rm
                + ((2 * n + alpha) * tau * r - 2 * n * t2 - 2 * rh * rs) * Rm ** 3
            )
            if abs(br5) < thresh:
                raise DegenerateBracket("R step bracket vanished",
                                        index=n, equation="R-step")
            R = tau * r * (t1 - r) * Rm ** 3 / br5

            br6 = r * (r - t1) * Rm
            if abs(br6) < thresh:
                raise DegenerateBracket("R* step bracket vanished",
                                        index=n, equation="Rstar-step")
            Rs = (rs * (2 * r - t1) * Rm + r * (t1 - r) * Rms) * R / br6

            br4 = tau * r * (r - t1) * Rm ** 2
            if abs(br4) < thresh:
                raise DegenerateBracket("R^ step bracket vanished",
                                        index=n, equation="Rhat-step")
            Rh = R * (
                rho * (rs * Rm - r * Rms) * (rs * Rm + (t1 - r) * Rms)
                + tau * Rm * (r * (t1 - r) * Rmh + (2 * r - t1) * rh * Rm)
            ) / br4
            out.append(AuxSextuple(R=R, Rstar=Rs, Rhat=Rh, r=r, rstar=rs, rhat=rh))
    return out


def alpha_from_sextuple(s: AuxSextuple, n: int, alpha) -> mpf:
    return 2 * n + 1 + to_mpf(alpha) + s.R + s.Rstar + s.Rhat


def beta_from_sextuple(s: AuxSextuple, n: int, params: WeightParams,
                       prec: PrecisionContext) -> mpf:
    """beta_n from the sextuple alone (closed form)."""
    with mp.workdps(prec.work_dps):
        if abs(s.R) < to_mpf(prec.half_eps):
            raise SingularAux(f"|R_{n}| below 10^-P/2")
        t1 = to_mpf(params.t1)
        tau = to_mpf(params.tau)
        rho = to_mpf(params.rho)
        alpha = to_mpf(params.alpha)
        R, Rs, Rh, r, rs, rh = s.as_tuple()
        T = Rs / R
        return (
            (1 - rho * Rs / (tau * R)) * (rs - r * T) * (rs + (t1 - r) * T) / (tau * R)
            + 2 * rh * rs / (tau * R)
            + r * (t1 - r) / R ** 2 * (1 - 2 * Rs * Rh / (tau * R))
            + (t1 - 2 * r) / (tau * R ** 2) * (rh * Rs + Rh * rs)
            + (n * t1 - (2 * n + alpha) * r) / R
        )


# --------------------------------------------------------------------------
# m = 3 differential checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RowBundle:
    table: object
    rows: tuple


def row_bundle_builder(N: int, prec: PrecisionContext, cache_dir=None):
    """Builder for stencil grids: (params, anchor) -> RowBundle of depth N."""

    def build(params: WeightParams, anchor) -> RowBundle:
        from .cache import cached_recurrence_table

        tab = cached_recurrence_table(params, N, prec, cache_dir=cache_dir, anchor=anchor)
        return RowBundle(tab, tuple(aux_rows(tab, N)))

    return build


def _grid_rows(point, prec, stencil, n_max, grid=None):
    if grid is not None:
        return grid
    return StencilGrid(point, prec, stencil, row_bundle_builder(n_max + 1, prec))


def _xi_kappa(s: AuxSextuple, n, t1, tau, rho, alpha):
    R, Rs, Rh, r, rs, rh = s.as_tuple()
    kappa = (rho / tau) * (rs / R - r * Rs / R ** 2) * (rs - (r - t1) * Rs / R)
    xi = (
        kappa * (Rs / tau - R / rho)
        + 2 * r * (t1 - r) * Rs * Rh / (tau * R ** 2)
        + (2 * r - t1) / (tau * R) * (rh * Rs + Rh * rs)
        - 2 * rh * rs / tau
        + (2 * n + alpha) * r - n * t1
    )
    return xi, kappa


def verify_identities_3(n: int, point: WeightParams, stencil: DerivativeStencil,
                        prec: PrecisionContext, grid=None):
    """m = 3 checks at index n: closed-form alpha_n/beta_n, the six
    derivative relations, the Toda family, and the six Riccati equations."""
    if point.m != 3:
        raise DomainError("need m = 3")
    grid = _grid_rows(point, prec, stencil, n, grid)
    out = []
    ps = _point_str(point, f"n={n}")
    with mp.workdps(prec.work_dps):
        t1, t2, t3 = (to_mpf(v) for v in point.t)
        tau, rho = to_mpf(point.tau), to_mpf(point.rho)
        alpha = to_mpf(point.alpha)
        b = grid.bundle()
        tab = b.table
        s = AuxSextuple.from_row(b.rows[n])

        out.append(Check("alpha-aux-3",
                         abs(alpha_from_sextuple(s, n, alpha) - tab.alpha(n)),
                         to_mpf(prec.half_eps), ps))
        if n >= 1:
            out.append(Check("beta-aux-3",
                             abs(beta_from_sextuple(s, n, point, prec) - tab.beta(n)),
                             to_mpf(prec.half_eps), ps))

        scales = (t1, 2 * t2, 3 * t3)
        for i in range(3):
            d, e = grid.first(lambda v: mp.log(v.table.h[n]), i)
            out.append(Check(f"dlnh-t{i + 1}-3", abs(scales[i] * d + b.rows[n].R[i]),
                             10 * abs(scales[i]) * e, ps))
            d, e = grid.first(lambda v: v.table.p(n), i)
            out.append(Check(f"dp-t{i + 1}-3", abs(scales[i] * d - b.rows[n].r[i]),
                             10 * abs(scales[i]) * e, ps))

        # Toda family
        da = [grid.first(lambda v: v.table.alpha(n), i) for i in range(3)]
        lhs = mp.fsum(scales[i] * da[i][0] for i in range(3))
        err = mp.fsum(abs(scales[i]) * da[i][1] for i in range(3))
        out.append(Check("toda-3-alpha",
                         abs(lhs - (tab.beta(n) - tab.beta(n + 1) + tab.alpha(n))),
                         10 * err, ps))
        if n >= 1:
            lb = lambda v: mp.log(v.table.beta(n))
            db = [grid.first(lb, i) for i in range(3)]
            lhs = mp.fsum(scales[i] * db[i][0] for i in range(3))
            err = mp.fsum(abs(scales[i]) * db[i][1] for i in range(3))
            out.append(Check("toda-3-beta",
                             abs(lhs - (tab.alpha(n - 1) - tab.alpha(n) + 2)),
                             10 * err, ps))
            # second-order molecule equation
            val = mpf(0)
            err = mpf(0)
            for i in range(3):
                d2, e2 = grid.second(lb, i)
                val += scales[i] ** 2 * d2
                err += scales[i] ** 2 * e2
                d1, e1 = grid.first(lb, i)
                val += (i + 1) * i * to_mpf(point.t[i]) * d1
                err += (i + 1) * i * abs(to_mpf(point.t[i])) * e1
                for j in range(i + 1, 3):
                    dm, em = grid.mixed(lb, i, j)
                    val += 2 * scales[i] * scales[j] * dm
                    err += 2 * abs(scales[i] * scales[j]) * em
            rhs = tab.beta(n - 1) - 2 * tab.beta(n) + tab.beta(n + 1) - 2
            out.append(Check("toda-3-molecule", abs(val - rhs), 10 * err, ps))

        # Riccati system
        xi, kappa = _xi_kappa(s, n, t1, tau, rho, alpha)
        R, Rs, Rh, r, rs, rh = s.as_tuple()
        big = 2 * n + 1 + alpha + R + Rs + Rh
        Ssum = lambda v: v.rows[n].Rsum
        rsum = lambda v: v.rows[n].rsum
        rhs_R = (2 * r + big * R - t1,
                 2 * rs + big * Rs - tau * R,
                 2 * rh + big * Rh - rho * Rs)
        rhs_r = (xi + r + 2 * r * (r - t1) / R,
                 Rs / R * xi + rs + rs * (2 * r - t1) / R,
                 Rh / R * xi + rh + rh * (2 * r - t1) / R + kappa)
        for i in range(3):
            d, e = grid.first(Ssum, i)
            out.append(Check(f"riccati-3-S-t{i + 1}", abs(scales[i] * d - rhs_R[i]),
                             10 * abs(scales[i]) * e, ps))
            d, e = grid.first(rsum, i)
            out.append(Check(f"riccati-3-r-t{i + 1}", abs(scales[i] * d - rhs_r[i]),
                             10 * abs(scales[i]) * e, ps))
    return out


def h3_reconstruction(n: int, point: WeightParams, stencil: DerivativeStencil,
                      prec: PrecisionContext, grid=None):
    """Reconstruct the whole sextuple from H_n derivative data and compare
    with the integral route; certifies the substitution pipeline that
    would produce the (undisplayed) m = 3 PDE for H_n."""
    if point.m != 3:
        raise DomainError("need m = 3")
    grid = _grid_rows(point, prec, stencil, n, grid)
    out = []
    ps = _point_str(point, f"n={n}")
    with mp.workdps(prec.work_dps):
        t1, t2, t3 = (to_mpf(v) for v in point.t)
        tau, rho = to_mpf(point.tau), to_mpf(point.rho)
        alpha = to_mpf(point.alpha)
        nn = n * (n + alpha)
        H = lambda v: nn + v.table.p(n)
        Hn = grid.scalar(H)
        scales = (t1, 2 * t2, 3 * t3)

        d1 = [grid.first(H, i) for i in range(3)]
        d2 = {}
        for i in range(3):
            d2[(i, i)] = grid.second(H, i)
            for j in range(i + 1, 3):
                d2[(i, j)] = grid.mixed(H, i, j)
                d2[(j, i)] = d2[(i, j)]
        ferr = mp.fsum(e for _, e in d1) + mp.fsum(e for _, e in d2.values())

        rvec = [scales[i] * d1[i][0] for i in range(3)]
        beta = mp.fsum(rvec) - Hn + nn
        # d beta/d t_i = sum_j j t_j H_{ij} + (i-1) H_i  (i, j 1-based)
        dbeta = []
        for i in range(3):
            v = mp.fsum((j + 1) * to_mpf(point.t[j]) * d2[(i, j)][0] for j in range(3))
            v += i * d1[i][0]
            dbeta.append(v)

        Delta = (t1 * dbeta[0]) ** 2 + 4 * beta * rvec[0] * (rvec[0] - t1)
        if Delta < -to_mpf(prec.half_eps):
            raise NegativeDiscriminant(f"Delta = {Delta}")
        root = mp.sqrt(abs(Delta))
        if root <= ferr:
            raise BranchAmbiguity("sqrt(Delta) below FD noise")
        sgn = 1 if point.t1 > 0 else -1
        r, rs, rh = rvec
        R = (-t1 * dbeta[0] + sgn * root) / (2 * beta)
        Rs = (rs * (2 * r - t1) + t1 * t2 * dbeta[0] * dbeta[1] / beta) / (sgn * root) \
            - t2 * dbeta[1] / beta
        denom = r * (r - t1) / R + beta * R
        Rh = (rh * (2 * r - t1)
              + (rho / tau) * (rs - r * Rs / R) * (rs + (t1 - r) * Rs / R)
              - 3 * t3 * dbeta[2] * R) / denom

        s_int = AuxSextuple.from_row(grid.bundle().rows[n])
        tol = 10 * (ferr + to_mpf(prec.half_eps))
        for cid, got, want in (
            ("h3-reconstruct-R", R, s_int.R),
            ("h3-reconstruct-Rstar", Rs, s_int.Rstar),
            ("h3-reconstruct-Rhat", Rh, s_int.Rhat),
            ("h3-reconstruct-r", r, s_int.r),
            ("h3-reconstruct-rstar", rs, s_int.rstar),
            ("h3-reconstruct-rhat", rh, s_int.rhat),
        ):
            out.append(Check(cid, abs(got - want), tol, ps))
    return out


# --------------------------------------------------------------------------
# general m
# --------------------------------------------------------------------------

def verify_S1_S2_general_m(n: int, point: WeightParams,
                           stencil: DerivativeStencil, prec: PrecisionContext,
                           z_samples=("0.7", "2", "5"), grid=None):
    """S1-family and the stated S2' coefficient identities for general m,
    plus the H_n derivative relations and pointwise S1/S2' residuals of
    the assembled ladder coefficients."""
    m = point.m
    if m < 2 or m > 5:
        raise DomainError("general-m checks cover 2 <= m <= 5")
    grid = _grid_rows(point, prec, stencil, n, grid)
    out = []
    ps = _point_str(point, f"n={n}")
    half = None
    with mp.workdps(prec.work_dps):
        half = to_mpf(prec.half_eps)
        alpha = to_mpf(point.alpha)
        t1 = to_mpf(point.t1)
        b = grid.bundle()
        tab = b.table
        rows = b.rows

        out.append(Check("alpha-aux-m",
                         abs(tab.alpha(n) - (2 * n + 1 + alpha + rows[n].Rsum)),
                         half, ps))
        out.append(Check("s1-anchor-m",
                         abs(rows[n + 1].r[0] + rows[n].r[0]
                             + tab.alpha(n) * rows[n].R[0] - t1),
                         half, ps))
        for j in range(2, m + 1):
            pref = to_mpf(Fraction(j) * point.t[j - 1] / ((j - 1) * point.t[j - 2]))
            res = abs(rows[n + 1].r[j - 1] + rows[n].r[j - 1]
                      + tab.alpha(n) * rows[n].R[j - 1] - pref * rows[n].R[j - 2])
            out.append(Check(f"s1-chain-m-{j}", res, half, ps))

        srr = mp.fsum(rows[k].Rsum for k in range(n))
        out.append(Check("beta-sum-m",
                         abs(tab.beta(n) - (n * (n + alpha) + srr + rows[n].rsum)),
                         half, ps))
        if n >= 1:
            res = abs(rows[n].r[0] * (rows[n].r[0] - t1)
                      - tab.beta(n) * rows[n].R[0] * rows[n - 1].R[0])
            out.append(Check("s2p-product-m", res, half, ps))

        nn = n * (n + alpha)
        H = lambda v: nn + v.table.p(n)
        for i in range(m):
            scale = (i + 1) * to_mpf(point.t[i])
            d, e = grid.first(H, i)
            out.append(Check(f"dH-t{i + 1}-m", abs(scale * d - rows[n].r[i]),
                             10 * abs(scale) * e, ps))

        # pointwise compatibility of the assembled coefficients
        coeffs = [ladder_coeffs_m(rows[k], k, point) for k in range(n + 2)]
        for zs in z_samples:
            z = to_mpf(zs)
            vp = point.potential_derivative(z)
            an = tab.alpha(n)
            bnow = eval_laurent(coeffs[n][1], z)
            bnext = eval_laurent(coeffs[n + 1][1], z)
            s1 = bnext + bnow - (z - an) * eval_laurent(coeffs[n][0], z) + vp
            out.append(Check("s1-point-m", abs(s1), half, f"{ps};z={zs}"))
            a_prev = eval_laurent(coeffs[n - 1][0], z) if n >= 1 else mpf(0)
            asum = mp.fsum(eval_laurent(coeffs[k][0], z) for k in range(n))
            s2p = ((bnow + vp) * bnow + asum
                   - tab.beta(n) * eval_laurent(coeffs[n][0], z) * a_prev)
            out.append(Check("s2p-point-m", abs(s2p), half, f"{ps};z={zs}"))
    return out
