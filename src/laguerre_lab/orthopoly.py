"""Monic orthogonal polynomials, norms, recurrence data, Hankel determinants.

Construction is moment-based Gram-Schmidt (the Stieltjes procedure run
against the moment functional): monic coefficient vectors are advanced
through the three-term recurrence

    x P_n = P_{n+1} + alpha_n P_n + beta_n P_{n-1},

with h_n = <P_n, x^n>, beta_n = h_n / h_{n-1} and alpha_n = <P_n,
x^(n+1)> / h_n + p(n), p(n) the x^(n-1) coefficient of P_n (Gautschi
2004, 2.1.7), each one sum over the moment table: seeds k = -m..0
(integrated, or shifted from a nearby anchor's seeds) plus the exact
Pearson recurrence (``quadrature.table_moments``).  Hankel
conditioning grows exponentially in the degree, so the working
precision is auto-raised to at least 20 + 4 N digits.  Determinant
ratios of explicit minors serve only as a desk-scale oracle (see
``moment_determinant``).
"""

from __future__ import annotations

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, fone, fzero, mpf_mul, mpf_sub, mpf_sum

from .errors import DegenerateInput, DomainError, PrecisionExhausted
from .params import PrecisionContext, WeightParams, to_mpf
from .quadrature import integrate_weighted, sample_dps, table_moments

#: heuristic floor on digits needed for a table of depth N
def digits_for(N: int) -> int:
    return 20 + 4 * N


def table_precision(prec: PrecisionContext, N: int) -> PrecisionContext:
    """The precision of a depth-N table: prec, raised to digits_for(N)."""
    return prec if prec.digits >= digits_for(N) else PrecisionContext(digits=digits_for(N))


class RecurrenceTable:
    """Recurrence data h_n, alpha_n, beta_n, p(n) for n = 0..N at one point.

    ``coeffs[n]`` is the monic coefficient vector of P_n (degree order),
    ``moments[k]`` holds mu_k for k = -m..2N+1 (k >= 0 in the t = 0
    limit mode); beta_n and p(n) = ``coeffs[n][n-1]`` are not stored.
    Every value is at the table's precision, ``prec.work_dps``.
    Tables are not modified after they are built and are safe to share;
    two tables are equal only if they are the same object, and the cache
    memo holds them by weak reference.  ``rows`` is the memo of aux rows
    by index (``ladder.aux_row``), shared by every reader of the table
    and not stored in the cache.
    """

    def __init__(self, params: WeightParams, prec: PrecisionContext, N: int,
                 h: tuple, alpha_rc: tuple, coeffs: tuple, moments: dict):
        self.params = params
        self.prec = prec
        self.N = N
        self.h = h
        self.alpha_rc = alpha_rc
        self.coeffs = coeffs
        self.moments = moments
        self.rows = {}

    def alpha(self, n: int) -> mpf:
        return self.alpha_rc[n]

    def beta(self, n: int) -> mpf:
        """h_n / h_{n-1} at the table's work_dps; 0 at n = 0."""
        if n == 0:
            return mpf(0)
        with mp.workdps(self.prec.work_dps):
            return self.h[n] / self.h[n - 1]

    def p(self, n: int) -> mpf:
        return self.coeffs[n][n - 1] if n else mpf(0)

    def log_hankel(self, n: int) -> mpf:
        """ln D_n = sum_{j<n} ln h_j."""
        with mp.workdps(self.prec.work_dps):
            return mp.fsum(mp.log(hj) for hj in self.h[:n])

    def inner_xk(self, j: int, k: int, shifts) -> tuple:
        """<P_j, P_k>_w with the measure shifted by x^s, for each s in shifts.

        The form is symmetric, so j <= k after a swap, and
        <P_j, x^s P_k> = sum_a c_{j,a} <x^(a+s), P_k>.  Orthogonality,
        <x^i, P_k> = 0 for 0 <= i < k, leaves only the a with a + s < 0
        or a + s >= k (min(j + 1, -s) of them for s < 0), each
        sum_b c_{k,b} mu_{a+b+s}: O(m n) moment reads per aux row, not
        (n + 1)^2.  On raw mpf tuples, each product c_{j,a} c_{k,b} is
        rounded once and reused for every shift, and the terms
        (c_{j,a} c_{k,b}) mu_{a+b+s}, a then b ascending, are rounded and
        summed exactly in the order of one ``mp.fsum`` over them.
        """
        if j > k:
            j, k = k, j
        mu, cj = self.moments, self.coeffs[j]
        with mp.workdps(self.prec.work_dps):
            prec, rnd = mp._prec_rounding
            ck = [b._mpf_ for b in self.coeffs[k]]
            products = {}

            def terms(a, s):
                if a not in products:
                    products[a] = [mpf_mul(cj[a]._mpf_, b, prec, rnd) for b in ck]
                return [mpf_mul(ab, mu[a + b + s]._mpf_, prec, rnd)
                        for b, ab in enumerate(products[a])]

            return tuple(
                mp.make_mpf(mpf_sum(
                    [term for a in range(j + 1) if a + s < 0 or a + s >= k
                     for term in terms(a, s)],
                    prec, rnd))
                for s in shifts
            )


def recurrence_table(params: WeightParams, N: int, prec: PrecisionContext,
                     seeds: dict = None) -> RecurrenceTable:
    """Build the recurrence table for n <= N, at ``table_precision``.

    alpha_n and h_{n+1} are one ``mp.fsum`` each over mu_{n+1} and up.
    ``seeds`` may hand in the seed moments k = -m..0 at the table's
    precision; without them they are integrated.
    Raises PrecisionExhausted if a squared norm comes out non-positive,
    which signals lost significance rather than a true negative norm.
    """
    if N < 0:
        raise DomainError("N must be >= 0")
    eff = table_precision(prec, N)
    mu = table_moments(params, 2 * N + 1, eff, seeds)

    with mp.workdps(eff.work_dps):
        coeffs = [[mpf(1)]]
        h = [mu[0]]
        alpha_rc = []
        if h[0] <= 0:
            raise PrecisionExhausted("h_0 <= 0")
        for n in range(N):
            cn = coeffs[n]
            a_n = (mp.fsum(ci * mu[i + n + 1] for i, ci in enumerate(cn)) / h[n]
                   + (cn[n - 1] if n else 0))
            alpha_rc.append(a_n)
            # c_{n+1} = shift(c_n) - a_n c_n - beta_n c_{n-1}
            nxt = [mpf(0)] + list(cn)
            for i, ci in enumerate(cn):
                nxt[i] -= a_n * ci
            if n >= 1:
                b_n = h[n] / h[n - 1]
                for i, ci in enumerate(coeffs[n - 1]):
                    nxt[i] -= b_n * ci
            hn1 = mp.fsum(ci * mu[i + n + 1] for i, ci in enumerate(nxt))
            if hn1 <= 0:
                raise PrecisionExhausted(
                    f"h_{n + 1} <= 0 at {eff.digits} digits; raise the precision"
                )
            coeffs.append(nxt)
            h.append(hn1)
        # the loop reads the sample-precision moments and h_0; the table
        # keeps them rounded once to its own precision
        return RecurrenceTable(
            params=params,
            prec=eff,
            N=N,
            h=tuple(+v for v in h),
            alpha_rc=tuple(alpha_rc),
            coeffs=tuple(tuple(c) for c in coeffs),
            moments={k: +v for k, v in mu.items()},
        )


def hankel_determinant(table: RecurrenceTable, n: int) -> mpf:
    """D_n = prod_{j<n} h_j; D_0 = 1 by the empty product."""
    if n < 0 or n > table.N + 1:
        raise DomainError(f"n = {n} outside 0..N+1")
    with mp.workdps(table.prec.work_dps):
        out = mpf(1)
        for hj in table.h[:n]:
            out *= hj
        return out


def moment_determinant(table: RecurrenceTable, n: int) -> mpf:
    """det(mu_{i+j})_{i,j<n} by direct elimination on the explicit minors.

    Desk-scale oracle for hankel_determinant; O(n^3) and numerically
    rough, so keep n <= ~12.
    """
    if n == 0:
        return mpf(1)
    with mp.workdps(table.prec.work_dps):
        mat = mp.matrix([[table.moments[i + j] for j in range(n)] for i in range(n)])
        return mp.det(mat)


def polynomials_raw(table: RecurrenceTable, n: int):
    """The forward three-term recurrence on raw mpf tuples: values(x) is
    [P_0(x), ..., P_n(x)] at the raw mpf x (``mpf._mpf_``).

    It runs at the table's work_dps, with alpha_j and beta_j looked up
    once.  Each operation is the one, in the order, that mpf arithmetic on
    (x - alpha_j) P_j - beta_j P_{j-1} would make.
    """
    if n > table.N:
        raise DomainError(f"n = {n} exceeds table depth {table.N}")
    prec, rnd = dps_to_prec(table.prec.work_dps), mp._prec_rounding[1]
    coefs = [(table.alpha(j)._mpf_, table.beta(j)._mpf_) for j in range(n)]

    def values(x):
        prev, cur = fzero, fone
        out = [cur]
        for a, b in coefs:
            prev, cur = cur, mpf_sub(mpf_mul(mpf_sub(x, a, prec, rnd), cur, prec, rnd),
                                     mpf_mul(b, prev, prec, rnd), prec, rnd)
            out.append(cur)
        return out

    return values


def eval_polynomial_derivative(table: RecurrenceTable, n: int, x):
    """(P_n(x), P_n'(x), P_{n-1}(x), P_{n-1}'(x)) by differentiating the recurrence."""
    if n > table.N:
        raise DomainError(f"n = {n} exceeds table depth {table.N}")
    x = to_mpf(x)
    with mp.workdps(table.prec.work_dps):
        prev, cur = mpf(0), mpf(1)
        dprev, dcur = mpf(0), mpf(0)
        for j in range(n):
            shifted = (x - table.alpha(j))
            prev, cur, dprev, dcur = (
                cur,
                shifted * cur - table.beta(j) * prev,
                dcur,
                cur + shifted * dcur - table.beta(j) * dprev,
            )
        return cur, dcur, prev, dprev


def christoffel_darboux_residual(table: RecurrenceTable, n: int, x, y) -> mpf:
    """|sum_{j<n} P_j(x)P_j(y)/h_j - [P_n(x)P_{n-1}(y)-P_n(y)P_{n-1}(x)] / (h_{n-1}(x-y))|."""
    x, y = to_mpf(x), to_mpf(y)
    if abs(x - y) < to_mpf(table.prec.half_eps):
        raise DegenerateInput("x and y too close for the divided difference")
    with mp.workdps(table.prec.work_dps):
        values = polynomials_raw(table, n)
        px, py = ([mp.make_mpf(v) for v in values(z._mpf_)] for z in (x, y))
        lhs = mp.fsum(px[j] * py[j] / table.h[j] for j in range(n))
        rhs = (px[n] * py[n - 1] - py[n] * px[n - 1]) / (table.h[n - 1] * (x - y))
        return abs(lhs - rhs)


def orthogonality_residual(table: RecurrenceTable, pairs) -> list:
    """|int P_j P_k w dx - h_j delta_jk| / sqrt(h_j h_k) for each (j, k) in pairs.

    The integrals are recomputed by independent quadrature of the
    recurrence-evaluated polynomials, all pairs in one pass: P_0..P_top
    come from one recurrence run per node.
    """
    top = max(max(pair) for pair in pairs)
    values = polynomials_raw(table, top)
    prec, rnd = dps_to_prec(sample_dps(table.prec)), mp._prec_rounding[1]

    def products(x):
        v = values(x)
        return [mpf_mul(v[j], v[k], prec, rnd) for j, k in pairs]

    with mp.workdps(table.prec.work_dps):
        vals = integrate_weighted(products, table.params, table.prec)
        out = []
        for (j, k), val in zip(pairs, vals):
            if j == k:
                val -= table.h[j]
            out.append(abs(val) / mp.sqrt(table.h[j] * table.h[k]))
        return out
