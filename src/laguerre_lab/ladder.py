"""Ladder-operator layer for the deformed weight, any pole order m.

For w(x) = x^alpha exp(-x - sum_i t_i x^-i), i = 1..m, the ladder
coefficients A_n(z), B_n(z) are Laurent polynomials in 1/z whose
coefficients are linear in the auxiliary row at index n,

    R_{n,i} = i t_i <P_n, x^-i P_n> / h_n,
    r_{n,i} = i t_i <P_n, x^-i P_{n-1}> / h_{n-1},      i = 1..m

(R_n, R_n*, r_n, r_n* for m = 2; m = 3 adds R^_n, r^_n).  Held here:
the row from the moment table (``aux_integrals``; every reader goes
through ``aux_row``, one memo per table), the 1/z-coefficients of A_n,
B_n and the integral definition of A_n as their oracle, pointwise
residuals of the lowering/raising operators and of the compatibility
conditions S1/S2/S2', alpha_n from the row, the sum rules, and the difference
system iterated in n from the integral route's row 0.  The r-advance of
that system is the S1 family for every m.  Solving for R and assembling
beta_n from the row are closed forms written once, for m = 3; m = 2
runs them with rho = 3 t3/(2 t2), R^_n and r^_n set to 0 (``pad3``).
The suites' identities on the row are written once for every m:
``row_residuals`` (alpha_n, beta_n, S1, S2'), ``iteration_deviation``
and ``ladder_coeff_deviation`` (A_n from the row against its integral).

Route naming used throughout tests and suites:
  integral  -- the row from the moment table: <P_n, x^-i P_n> and
               <P_n, x^-i P_{n-1}>, each reduced by orthogonality to
               the O(m n) terms that survive (``inner_xk``)
  identity  -- alpha_n, beta_n reassembled from the row
  iteration -- the row advanced by the difference system alone, from
               the integral route's row 0
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import mpf_div, mpf_mul, mpf_pow_int, mpf_sub

from .errors import DegenerateBracket, DegenerateInput, DomainError, SingularAux
from .orthopoly import RecurrenceTable, eval_polynomial_derivative, polynomials_raw
from .params import PrecisionContext, WeightParams, to_mpf
from .quadrature import integrate_weighted, sample_dps


class AuxRow(NamedTuple):
    """R_{n,i} and r_{n,i} for i = 1..m at one index n and one point."""

    R: tuple
    r: tuple

    @property
    def Rsum(self) -> mpf:
        return sum(self.R)

    @property
    def rsum(self) -> mpf:
        return sum(self.r)


def aux_integrals(table: RecurrenceTable, n: int) -> AuxRow:
    """The auxiliary row at index n, via the moment table: R_{n,i} and
    r_{n,i} from ``RecurrenceTable.inner_xk`` at the shifts -1..-m, which
    sums only the terms orthogonality leaves, O(m n) moment reads a row."""
    params = table.params
    if not params.is_deformed:
        raise DomainError("auxiliaries need a deformed weight")
    if n > table.N:
        raise DomainError(f"n = {n} exceeds table depth {table.N}")
    shifts = range(-1, -params.m - 1, -1)
    with mp.workdps(table.prec.work_dps):
        diag = table.inner_xk(n, n, shifts)
        off = table.inner_xk(n, n - 1, shifts) if n else None
        R, r = [], []
        for i, iti in enumerate(params.t_mpf(scaled=True), start=1):
            R.append(iti * diag[i - 1] / table.h[n])
            r.append(iti * off[i - 1] / table.h[n - 1] if n else mpf(0))
        return AuxRow(R=tuple(R), r=tuple(r))


def aux_row(table: RecurrenceTable, n: int) -> AuxRow:
    """The auxiliary row at index n, computed (``aux_integrals``) on the
    first read and memoized on the table, so every reader shares it."""
    rows = table.rows
    if n not in rows:
        rows[n] = aux_integrals(table, n)
    return rows[n]


def aux_rows(table: RecurrenceTable, N: int) -> list:
    """The rows n = 0..N (``aux_row``)."""
    return [aux_row(table, n) for n in range(N + 1)]


def s1_coeff(params: WeightParams, j: int) -> mpf:
    """j t_j / ((j-1) t_{j-1}), the coefficient of R_{n,j-1} in the S1 family
    (tau = 2 t2/t1 for j = 2, rho = 3 t3/(2 t2) for j = 3)."""
    return to_mpf(Fraction(j) * params.t[j - 1] / ((j - 1) * params.t[j - 2]))


def ladder_coeffs(row: AuxRow, n: int, params: WeightParams):
    """(a, b): the 1/z..1/z^(m+1) coefficients of A_n and B_n.

    a_1 = 1, b_1 = -n and, for l = 2..m+1,
    a_l = sum_{i=1..m+2-l} (l-2+i) t_{l-2+i} / (i t_i) R_{n,i}, b_l the
    same with r_{n,i}.  For m = 2: A_n = 1/z + (R+R*)/z^2 + tau R/z^3,
    B_n = -n/z + (r+r*)/z^2 + tau r/z^3.
    """
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
            ca += pref * row.R[i - 1]
            cb += pref * row.r[i - 1]
        a.append(ca)
        b.append(cb)
    return tuple(a), tuple(b)


def eval_laurent(coeffs, z) -> mpf:
    """sum_k coeffs[k] / z^(k+1)."""
    z = to_mpf(z)
    return sum(c / z ** (k + 1) for k, c in enumerate(coeffs))


def _ladder_at(row: AuxRow, n: int, params: WeightParams, z):
    """(A_n(z), B_n(z)) from the row."""
    a, b = ladder_coeffs(row, n, params)
    return eval_laurent(a, z), eval_laurent(b, z)


def ladder_A_direct(table: RecurrenceTable, n: int, zs) -> list:
    """A_n(z) at each z > 0 in zs from its integral definition with the
    divided-difference kernel (the oracle route for the assembled
    coefficients).  All z share one pass: x v'(x) and P_n(x)^2 are formed
    once per node, on raw mpf tuples at the sampling precision.  At a node
    x == z the kernel takes its limit d/dz[z v'(z)] = 1 + sum_k k^2 t_k z^(-k-1)."""
    params, prec = table.params, table.prec
    zs = [to_mpf(z) for z in zs]
    if not all(z > 0 for z in zs):
        raise DegenerateInput("z must be > 0")
    values = polynomials_raw(table, n)
    with mp.workdps(prec.work_dps):
        zvz = [(z * params.potential_derivative(z))._mpf_ for z in zs]
    with mp.workdps(sample_dps(prec)):
        wp, rnd = mp._prec_rounding
        vprime = params.potential_derivative_raw()
        limits = [(1 + mp.fsum(k * k * to_mpf(tk) / z ** (k + 1)
                               for k, tk in enumerate(params.t, start=1)))._mpf_ for z in zs]
    kernels = list(zip([z._mpf_ for z in zs], zvz, limits))

    def f(x):
        xvx = mpf_mul(x, vprime(x), wp, rnd)
        p2 = mpf_pow_int(values(x)[n], 2, wp, rnd)
        return [mpf_mul(lim if x == z else
                        mpf_div(mpf_sub(c, xvx, wp, rnd), mpf_sub(z, x, wp, rnd), wp, rnd),
                        p2, wp, rnd)
                for z, c, lim in kernels]

    with mp.workdps(prec.work_dps):
        return [v / (z * table.h[n])
                for z, v in zip(zs, integrate_weighted(f, params, prec))]


def ladder_residuals(table: RecurrenceTable, aux: list, n: int, z):
    """Pointwise residuals of the lowering and raising operators at z > 0.

    lowering: (d/dz + B_n) P_n - beta_n A_n P_{n-1}
    raising:  (d/dz - B_n - v') P_{n-1} + A_{n-1} P_n
    """
    z = to_mpf(z)
    if z <= 0:
        raise DegenerateInput("z must be > 0")
    params = table.params
    with mp.workdps(table.prec.work_dps):
        pn, dpn, pn1, dpn1 = eval_polynomial_derivative(table, n, z)
        A, B = _ladder_at(aux[n], n, params, z)
        vprime = params.potential_derivative(z)
        lowering = dpn + B * pn - table.beta(n) * A * pn1
        if n == 0:
            raising = mpf(0)  # P_{-1} = 0 and A_{-1} = 0
        else:
            a_prev, _ = _ladder_at(aux[n - 1], n - 1, params, z)
            raising = dpn1 - (B + vprime) * pn1 + a_prev * pn
        return abs(lowering), abs(raising)


def compatibility_residuals(table: RecurrenceTable, aux: list, n: int, z):
    """Pointwise residuals of S1, S2 and S2' at z.

    Needs the rows for j <= n+1 (partial sums of A_j are accumulated
    from the stored per-j coefficients, not re-integrated).
    """
    z = to_mpf(z)
    params = table.params
    with mp.workdps(table.prec.work_dps):
        A, B = zip(*(_ladder_at(aux[j], j, params, z) for j in range(n + 2)))
        vprime = params.potential_derivative(z)
        an = table.alpha(n)
        s1 = B[n + 1] + B[n] - (z - an) * A[n] + vprime
        a_prev = A[n - 1] if n >= 1 else mpf(0)
        s2 = (
            1 + (z - an) * (B[n + 1] - B[n])
            - table.beta(n + 1) * A[n + 1]
            + table.beta(n) * a_prev
        )
        s2p = (B[n] + vprime) * B[n] + mp.fsum(A[:n]) - table.beta(n) * A[n] * a_prev
        return abs(s1), abs(s2), abs(s2p)


def alpha_from_aux(row: AuxRow, n: int, alpha) -> mpf:
    """alpha_n = 2n + 1 + alpha + sum_i R_{n,i}."""
    return sum(row.R, 2 * n + 1 + to_mpf(alpha))


def pad3(values) -> tuple:
    """values padded with zeros to three components: the m = 3 closed
    forms read an m = 2 row as one with R^_n = r^_n = 0."""
    return tuple(values) + (mpf(0),) * (3 - len(values))


def beta_from_aux(row: AuxRow, n: int, params: WeightParams,
                  prec: PrecisionContext) -> mpf:
    """beta_n assembled from the row alone: the m = 3 closed form, which
    at m = 2 (rho = R^_n = r^_n = 0) is the m = 2 one."""
    if params.m not in (2, 3):
        raise DomainError("beta_n from the aux row has closed forms for m = 2 and 3 only")
    with mp.workdps(prec.work_dps):
        if abs(row.R[0]) < to_mpf(prec.half_eps):
            raise SingularAux(f"|R_{n}| below 10^-P/2")
        t1 = to_mpf(params.t1)
        tau = to_mpf(params.tau)
        rho = to_mpf(params.rho)
        alpha = to_mpf(params.alpha)
        (R, Rs, Rh), (r, rs, rh) = pad3(row.R), pad3(row.r)
        T = Rs / R
        return (
            (1 - rho * Rs / (tau * R)) * (rs - r * T) * (rs + (t1 - r) * T) / (tau * R)
            + 2 * rh * rs / (tau * R)
            + r * (t1 - r) / R ** 2 * (1 - 2 * Rs * Rh / (tau * R))
            + (t1 - 2 * r) / (tau * R ** 2) * (rh * Rs + Rh * rs)
            + (n * t1 - (2 * n + alpha) * r) / R
        )


class RowResiduals(NamedTuple):
    """|residual| of each identity between the recurrence coefficients and
    the aux row at one index n (``row_residuals``)."""

    alpha: mpf   # alpha_n from the row
    beta: mpf    # beta_n from the row; None at n = 0 or m > 3
    s1: tuple    # the S1 family, j = 1..m
    s2p: mpf     # the S2' product; None at n = 0


def row_residuals(tab: RecurrenceTable, rows, n: int, prec: PrecisionContext) -> RowResiduals:
    """The identities at index n between tab's alpha_n, beta_n and its aux
    rows (rows[k] at index k, for k = n-1..n+1), at prec:

        alpha  alpha_n = 2n + 1 + alpha + sum_i R_{n,i}     (``alpha_from_aux``)
        beta   beta_n  = ``beta_from_aux``                 (n >= 1, m <= 3)
        S1     r_{n+1,j} + r_{n,j} + alpha_n R_{n,j} = c_j,  j = 1..m,
               c_1 = t1, c_j = j t_j / ((j-1) t_{j-1}) R_{n,j-1}
        S2'    beta_n R_{n,1} R_{n-1,1} = r_{n,1} (r_{n,1} - t1)   (n >= 1)
    """
    params = tab.params
    with mp.workdps(prec.work_dps):
        t1 = to_mpf(params.t1)
        row, an = rows[n], tab.alpha(n)
        s1 = tuple(abs(rows[n + 1].r[j - 1] + row.r[j - 1] + an * row.R[j - 1]
                       - (t1 if j == 1 else s1_coeff(params, j) * row.R[j - 2]))
                   for j in range(1, params.m + 1))
        beta = s2p = None
        if n >= 1:
            if params.m <= 3:
                beta = abs(beta_from_aux(row, n, params, prec) - tab.beta(n))
            s2p = abs(tab.beta(n) * row.R[0] * rows[n - 1].R[0] - row.r[0] * (row.r[0] - t1))
        return RowResiduals(abs(alpha_from_aux(row, n, params.alpha) - tab.alpha(n)),
                            beta, s1, s2p)


def iteration_deviation(rows, iterated) -> mpf:
    """max |integral - iteration| over every component of the rows that
    iterated covers (``iterate_difference_system``), at the caller's precision."""
    return max(abs(a - b) for row, it in zip(rows, iterated)
               for a, b in zip(row.R + row.r, it.R + it.r))


def ladder_coeff_deviation(table: RecurrenceTable, n: int, zs) -> mpf:
    """max over z in zs of |A_n(z) from the row - A_n(z) from its integral
    (``ladder_A_direct``)|, at the caller's precision."""
    a, _ = ladder_coeffs(aux_row(table, n), n, table.params)
    return max(abs(eval_laurent(a, z) - direct)
               for z, direct in zip(zs, ladder_A_direct(table, n, zs)))


def _bracket(value, thresh, n, equation):
    if abs(value) < thresh:
        raise DegenerateBracket(f"{equation} coefficient vanished at n = {n}")
    return value


def _R_step(n, r_row, prev, params, thresh):
    """(R_{n,1}, ..., R_{n,m}) from the r-row at n and the row at n-1.

    The m = 3 solve; at m = 2 it runs with rho, r^_n and R^_{n-1} set
    to 0, and the R^ solve is left out.
    """
    t1, t2 = to_mpf(params.t1), to_mpf(params.t2)
    alpha = to_mpf(params.alpha)
    tau = to_mpf(params.tau)
    rho = to_mpf(params.rho)
    r, rs, rh = pad3(r_row)
    Rm, Rms, Rmh = pad3(prev.R)
    br5 = _bracket(
        (rs * Rm - r * Rms) * (rs * Rm - (r - t1) * Rms) * (rho / tau * Rms - Rm)
        + (2 * r - t1) * (rh * Rms + rs * Rmh) * Rm ** 2
        + r * (r - t1) * (tau * Rm - 2 * Rms * Rmh) * Rm
        + ((2 * n + alpha) * tau * r - 2 * n * t2 - 2 * rh * rs) * Rm ** 3,
        thresh, n, "R-step")
    R = tau * r * (t1 - r) * Rm ** 3 / br5
    br6 = _bracket(r * (r - t1) * Rm, thresh, n, "Rstar-step")
    Rs = (rs * (2 * r - t1) * Rm + r * (t1 - r) * Rms) * R / br6
    out = (R, Rs)
    if params.m == 3:
        br4 = _bracket(tau * r * (r - t1) * Rm ** 2, thresh, n, "Rhat-step")
        out += (R * (
            rho * (rs * Rm - r * Rms) * (rs * Rm + (t1 - r) * Rms)
            + tau * Rm * (r * (t1 - r) * Rmh + (2 * r - t1) * rh * Rm)
        ) / br4,)
    return out


def iterate_difference_system(table: RecurrenceTable, N: int,
                              prec: PrecisionContext) -> list:
    """Advance the aux row by the difference system for n = 0..N.

    The start is the integral route's row 0 of table,
    R_{0,i} = i t_i mu_{-i} / mu_0 and r_{0,i} = 0.  Each step advances r
    through the S1 family,

        r_{n,1} = t1 - r_{n-1,1} - alpha_{n-1} R_{n-1,1},
        r_{n,j} = j t_j / ((j-1) t_{j-1}) R_{n-1,j-1} - r_{n-1,j} - alpha_{n-1} R_{n-1,j},

    with alpha_{n-1} from the row at n-1.  The remaining difference
    equations are then linear in R_{n,1}, R_{n,2}, ... in turn; that
    solve is the m = 3 closed form, run at m = 2 with the third
    components 0 (``_R_step``).  The steps run at prec, which may lie
    below the table's own precision.
    """
    params = table.params
    if params.m not in (2, 3) or not params.is_deformed:
        raise DomainError("the difference system is solved for m = 2 and m = 3 only")
    out = [aux_row(table, 0)]
    with mp.workdps(prec.work_dps):
        thresh = to_mpf(prec.half_eps)
        t1 = to_mpf(params.t1)
        alpha = to_mpf(params.alpha)
        coeffs = [s1_coeff(params, j) for j in range(2, params.m + 1)]
        for n in range(1, N + 1):
            prev = out[-1]
            a_prev = alpha_from_aux(prev, n - 1, alpha)
            r = [t1 - prev.r[0] - a_prev * prev.R[0]]
            for j, c in enumerate(coeffs, start=1):
                r.append(c * prev.R[j - 1] - prev.r[j] - a_prev * prev.R[j])
            out.append(AuxRow(R=_R_step(n, r, prev, params, thresh), r=tuple(r)))
    return out


def sum_rules(table: RecurrenceTable, aux: list, n: int):
    """Residuals of the three p(n)/beta_n sum rules.

    (p + sum R)    p(n) = -n(n+alpha) - sum_{j<n} sum_i R_{j,i}
    (p - r + beta) p(n) = sum_i r_{n,i} - beta_n
    (det ratio)    beta_n = D_{n+1} D_{n-1} / D_n^2          (n >= 1)
    """
    with mp.workdps(table.prec.work_dps):
        alpha = to_mpf(table.params.alpha)
        srr = mp.fsum(aux[j].Rsum for j in range(n))
        res1 = abs(table.p(n) + n * (n + alpha) + srr)
        res2 = abs(table.p(n) - (aux[n].rsum - table.beta(n)))
        if n >= 1:
            # D_{n+1} D_{n-1} / D_n^2 = h_n / h_{n-1} in product form
            logratio = table.log_hankel(n + 1) + table.log_hankel(n - 1) - 2 * table.log_hankel(n)
            res3 = abs(table.beta(n) - mp.exp(logratio))
        else:
            res3 = mpf(0)
        return res1, res2, res3
