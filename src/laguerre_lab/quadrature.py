"""Adaptive high-precision quadrature of weighted integrals on (0, inf).

The substitution x = e^u maps (0, inf) to the whole real line.  With
t_m > 0 the transformed integrand decays double-exponentially at both
ends (the essential zero at the origin on the left, e^{-x} on the
right), so the plain trapezoid rule with level doubling converges like
a tanh-sinh rule.  An alternative composed map x = exp(sinh(v)) is kept
around as an independent route for invariance checks.

Table moments come from quadrature only for the m + 1 seeds k = -m..0;
the rest follow from the exact Pearson recurrence of the semi-classical
weight (``table_moments``).  Near a point whose seeds are known, a node's
seeds come without quadrature from the exact parameter Taylor series
d mu_k / d t_i = -mu_{k-i} (``shift_seeds``), with quadrature as the
fallback where the shift's error bound is too wide.  The nodes of one
centre share one shift context, owned by the centre's seed set: the
downward centre moments, the Taylor weights of each axis step and every
series sum, each a pure function of its key, computed once on raw mpf
tuples (``clear_memos`` forgets them).
A shift stops at its first infinite error bound, a series that ran to
its cap, since that bound rejects it.
Seeds are integrated once per point and precision while some reader
holds them (``seed_moments``), so grids and tables that share a centre
share its sweep; a seed set holds the shift context made from it, and
both go when no reader holds the seeds (the table cache's rule).
The full quadrature sweep ``moments`` stays as the independent oracle
for both routes.

One trapezoid engine, ``_trapezoid_levels``, serves every rule on the
real line: ``moments``, ``integrate_weighted`` and ``integrate_finite`` each
hand it a batch of integrands for one pass.  The nodes and the per-node
work are shared, while each integrand keeps its own sums, tail cut-off, L1
mass and level-convergence test in the order of a lone pass, so every value
is bit-identical to integrating it alone.  A lone integral is a batch of
one.  Each integrand stops on ``level_settled``, which the theta trapezoid
of ``equilibrium`` shares: where the level differences show the digits
doubling, a pass stops on the level whose predicted error is within
quad_tol / 10 of the integrand's L1 mass, one level before two levels agree
to quad_tol and confirm it.  The L1 mass of a positive integrand, such as
every moment's, is |T|, so a seed is held to quad_tol |mu_k|, the error
``shift_seeds`` takes for it.

All arithmetic is mpmath with guard digits on top of the caller's
working precision; results are deterministic functions of the inputs.
The node loop of ``_trapezoid_levels`` and the node terms of ``moments``
and ``integrate_weighted`` (the log weight, the sums, the tail cut-off and
the finiteness test) run on raw mpf tuples through ``mpmath.libmp``, each
operation correctly rounded at the working precision in the order mpf
arithmetic would take, so their bits are those of plain mpf code; the tail
threshold trunc * scale is formed only when a scale grows.  x = e^u at a
node of the x = e^u map is memoized by u at one binary precision at a time
(a pass at another precision starts a new memo; ``clear_memos`` empties
it), so sweeps at different points share the exponentials of their common
nodes.  ``integrate_weighted`` hands its integrands the raw node x and
takes their raw factors; on the x = e^u map it also memoizes the node
weight w(x) e^u by u, for one point and precision at a time
(``clear_memos`` empties it too), so the oracle passes at one point
evaluate each weight once.
"""

from __future__ import annotations

import weakref

from mpmath import mp, mpf
from mpmath.libmp import (finf, fone, from_int, fzero, mpf_abs, mpf_add, mpf_cosh_sinh, mpf_div,
                          mpf_exp, mpf_gt, mpf_le, mpf_lt, mpf_mul, mpf_mul_int, mpf_neg,
                          mpf_pos, mpf_rdiv_int, mpf_sub)

from .errors import DomainError, NonConvergence
from .params import PrecisionContext, WeightParams, to_mpf

#: truncation threshold exponent below working digits for tail cut-off
_TRUNC_EXTRA = 25
#: quadrature-internal guard digits beyond the context's work_dps
_QUAD_GUARD = 10
#: cap on trapezoid level doubling
QUAD_MAX_LEVEL = 12


def level_settled(diff, norm, tol, prev):
    """(stop, r): whether a trapezoid pass stops at its level T_L.

    diff = |T_L - T_{L-1}|, norm the integrand's L1 mass (or the fixed
    scale a rule normalises by), tol the pass's quad_tol and
    prev the r of the level before (None on the first refinement).  The
    pass stops when diff <= tol * norm.  It also stops on the predicted
    error of T_L, with r = diff / norm and D = log10 r, when
      - r <= sqrt(tol);
      - the digits were seen to double, 1.5 <= D_L / D_{L-1} <= 2.5;
      - the double-exponential estimate of the next level's difference,
        10^(D_L^2 / D_{L-1}) (Bailey, Jeyabalan & Li, Exp. Math. 14,
        2005), is at most tol / 10, and so is 10^(1.75 D_L).
    The digit ratio can fall from one level to the next (ladder_A_direct
    at m = 3, P = 60: 2.08, then 1.89), so the estimate assumes at most
    a 1.75-fold gain.  The bounds on r and on the ratio keep a
    pre-asymptotic jump from stopping the pass; then it runs to the level
    that confirms the value.  r comes back as the next level's prev.
    """
    tol, r = to_mpf(tol), diff / norm
    if diff <= tol * norm:
        return True, r
    if prev is None or not 0 < prev < 1 or not r * r <= tol:
        return False, r
    d = mp.log10(r)
    ratio = d / mp.log10(prev)
    return 1.5 <= ratio <= 2.5 and d * min(ratio, 1.75) <= mp.log10(tol) - 1, r


def _trapezoid_levels(g, prec: PrecisionContext, what: str) -> list:
    """Trapezoid sums over the real line with level doubling, for a batch
    of integrands in one pass.

    g(u, live) returns the terms at the raw mpf u (``mpf._mpf_``) of the
    integrands whose indices are in ``live``, in that order, as raw mpf
    tuples at the working precision (every integrand when ``live`` is None;
    the first node tells the rule how many there are).  Each integrand must
    decay at least exponentially in both directions.  Each keeps its own
    sums, tail cut-off, L1 mass and convergence test, and leaves the pass
    where a lone pass of its own would stop, so its sum is bit-identical
    to that lone pass.  Each stops on ``level_settled``, normalised by its
    L1 mass.  Returns the converged sums in integrand order.
    A sample that is not finite, or that divides by zero, raises
    NonConvergence.
    """
    wp, rnd = mp._prec_rounding
    trunc = (mpf(10) ** (-(prec.digits + _TRUNC_EXTRA)))._mpf_
    h = mpf(1)

    def sweep(start, step, live):
        """Sum each live integrand over start, start+step, ... until its own
        terms are negligible: {index: (sum, L1 mass)}."""
        # index -> [sum, L1 mass, scale, trunc * scale, idle]; the mass is
        # None, meaning the sum, while every term so far is its own |term|
        acc = {}
        u, step = start._mpf_, step._mpf_
        for _ in range(2_000_000):
            try:
                terms = g(u, live)
            except ZeroDivisionError as exc:
                raise NonConvergence(
                    f"{what}: integrand sample at u = {mp.make_mpf(u)} divides by zero") from exc
            running = []
            for i, term in zip(range(len(terms)) if live is None else live, terms):
                a = mpf_abs(term, wp, rnd)
                if not a[1] and a[2]:  # inf or nan
                    raise NonConvergence(
                        f"{what}: non-finite integrand sample at u = {mp.make_mpf(u)}")
                s = acc.get(i)
                if s is None:
                    s = acc[i] = [fzero, None, fzero, fzero, 0]
                if s[1] is None and (term[0] or term[3] > wp):
                    s[1] = s[0]  # a negative term, or one mpf_abs rounds
                s[0] = mpf_add(s[0], term, wp, rnd)
                if s[1] is not None:
                    s[1] = mpf_add(s[1], a, wp, rnd)
                if mpf_gt(a, s[2]):
                    s[2] = a
                    s[3] = mpf_mul(trunc, a, wp, rnd)
                    s[4] = 0
                elif mpf_lt(a, s[3]):
                    s[4] += 1
                    if s[4] >= 3:
                        continue
                running.append(i)
            if not running:
                return {i: (mp.make_mpf(s[0]), mp.make_mpf(s[0] if s[1] is None else s[1]))
                        for i, s in acc.items()}
            live = running
            u = mpf_add(u, step, wp, rnd)
        raise NonConvergence(f"{what}: tail did not decay")  # pragma: no cover

    right = sweep(mpf(0), h, None)
    live = list(right)
    left = sweep(-h, -h, live)
    total = [h * (right[i][0] + left[i][0]) for i in live]
    mass = [h * (right[i][1] + left[i][1]) for i in live]
    rel = [None] * len(live)

    for _ in range(QUAD_MAX_LEVEL):
        # refine: add midpoints (odd multiples of h/2) on both sides
        h2 = h / 2
        mid_r = sweep(h2, h, live)
        mid_l = sweep(-h2, -h, live)
        running = []
        for i in live:
            new_total = total[i] / 2 + h2 * (mid_r[i][0] + mid_l[i][0])
            mass[i] = mass[i] / 2 + h2 * (mid_r[i][1] + mid_l[i][1])
            prev, total[i] = total[i], new_total
            stop, rel[i] = level_settled(abs(new_total - prev), mass[i], prec.quad_tol, rel[i])
            if not stop:
                running.append(i)
        live, h = running, h2
        if not live:
            return total
    raise NonConvergence(f"{what}: level cap {QUAD_MAX_LEVEL} reached before tolerance")


def sample_dps(prec: PrecisionContext) -> int:
    """The working precision at which the rules sample their integrands."""
    return prec.work_dps + _QUAD_GUARD


def _live(items, live):
    """The items of the integrands in ``live`` (all of them when None)."""
    return items if live is None else [items[i] for i in live]


def _log_weight_u_fn(params: WeightParams):
    """ln[x w(x)] at x = e^u as a closure over the point's mpf parameters, on
    raw mpf tuples: logw(u, x) with x = e^u.

    Must be built inside the working-precision block; the e^u factor is
    the Jacobian of the log map.  Each operation is the one, in the order,
    that mpf arithmetic on a1 u - x - sum_k t_k x^-k would make.
    """
    wp, rnd = mp._prec_rounding
    a1 = (to_mpf(params.alpha) + 1)._mpf_
    t = [tk._mpf_ for tk in params.t_mpf()] if params.is_deformed else []

    def logw(u, x):
        acc = mpf_sub(mpf_mul(a1, u, wp, rnd), x, wp, rnd)
        if t:
            inv = mpf_rdiv_int(1, x, wp, rnd)
            p = inv
            for j, tk in enumerate(t):
                if j:
                    p = mpf_mul(p, inv, wp, rnd)
                acc = mpf_sub(acc, mpf_mul(tk, p, wp, rnd), wp, rnd)
        return acc

    return logw


#: (binary precision, {u: e^u}): x at the raw trapezoid nodes u sampled so
#: far, at one precision; a pass at another precision starts a new memo
_node_exp = (0, {})

#: ((point, binary precision), {u: w(x) x at x = e^u}): the node weights of
#: the x = e^u map at one point and precision; a pass at another point or
#: precision starts a new memo
_node_weight = (None, {})


def _node_exp_fn():
    """exp_u(u): e^u of a raw mpf node u at the working precision, through
    the memo of that precision."""
    global _node_exp
    wp, rnd = mp._prec_rounding
    if _node_exp[0] != wp:
        _node_exp = (wp, {})
    memo = _node_exp[1]

    def exp_u(u):
        x = memo.get(u)
        if x is None:
            x = memo[u] = mpf_exp(u, wp, rnd)
        return x

    return exp_u


def _node_weight_fn(params: WeightParams):
    """weight_u(u, x): exp(ln[x w(x)]) at the raw node u with x = e^u, at the
    working precision, through the memo of this point and precision."""
    global _node_weight
    wp, rnd = mp._prec_rounding
    if _node_weight[0] != (params, wp):
        _node_weight = ((params, wp), {})
    memo = _node_weight[1]
    logw = _log_weight_u_fn(params)

    def weight_u(u, x):
        w = memo.get(u)
        if w is None:
            w = memo[u] = mpf_exp(logw(u, x), wp, rnd)
        return w

    return weight_u


def integrate_weighted(f, params: WeightParams, prec: PrecisionContext, mapping="exp") -> list:
    """Integrals of f_i(x) w(x) dx over (0, inf) to relative accuracy quad_tol.

    Parameters
    ----------
    f : callable
        f(x) returns the integrand factors (f_1(x), f_2(x), ...) at the raw
        mpf x > 0 (``mpf._mpf_``) as raw mpf tuples, each rounded as the
        caller wants it: the rule takes them as they are.  Each f_i(x) w(x)
        must be absolutely integrable.  The batch shares one pass: the
        nodes, the weight and whatever f computes once per node; a lone
        integral is a batch of one.  f runs at the sampling precision
        (``sample_dps``).
    params, prec : weight and precision contexts.
    mapping : "exp" for x = e^u (default) or "expsinh" for the composed
        x = exp(sinh(v)) route used by invariance checks.

    Each term is w(x) e^u f_i(x) (times cosh v on the composed map), rounded
    once per product at the sampling precision.  On the x = e^u map the
    weight factor w(x) e^u at each node is memoized by u for the point and
    sampling precision of the last such pass, so passes at one point share
    it.  Each integrand stops on ``level_settled``: on its predicted error
    where the digits are seen to double, else where two levels agree.
    Returns the list of integrals, each bit-identical to a pass of its own.
    """
    if mapping not in ("exp", "expsinh"):
        raise DomainError(f"unknown mapping {mapping!r}")
    with mp.workdps(sample_dps(prec)):
        wp, rnd = mp._prec_rounding

        if mapping == "exp":
            exp_u = _node_exp_fn()
            weight_u = _node_weight_fn(params)

            def g(u, live):
                x = exp_u(u)
                w = weight_u(u, x)
                return [mpf_mul(w, v, wp, rnd) for v in _live(f(x), live)]
        else:
            logw = _log_weight_u_fn(params)

            def g(v, live):
                c, u = mpf_cosh_sinh(v, wp, rnd)
                x = mpf_exp(u, wp, rnd)
                w = mpf_exp(logw(u, x), wp, rnd)
                return [mpf_mul(mpf_mul(w, fx, wp, rnd), c, wp, rnd) for fx in _live(f(x), live)]
        result = _trapezoid_levels(g, prec, "integrate_weighted")
    return [+v for v in result]


def moments(params: WeightParams, kmin: int, kmax: int, prec: PrecisionContext) -> dict:
    """All moments mu_k = int x^(alpha+k) w(x) dx for k = kmin..kmax in one pass.

    A batch of ``_trapezoid_levels``: at each node the terms
    x^(alpha+k) w(x) e^u come from one exponential, at k = kmin, and one
    product by x per further k, so any range of moments costs one sweep.
    With t_m > 0 any integer k is admissible; in the degenerate t = 0 mode
    only alpha + k > -1 converges.
    """
    if kmax < kmin:
        raise DomainError("kmax < kmin")
    if not params.is_deformed and params.alpha + kmin <= -1:
        raise DomainError(
            f"moment k={kmin} diverges for t = 0 (needs alpha + k > -1, alpha={params.alpha})"
        )
    with mp.workdps(sample_dps(prec)):
        wp, rnd = mp._prec_rounding
        logw = _log_weight_u_fn(params)
        exp_u = _node_exp_fn()

        def g(u, live):
            x = exp_u(u)
            term = mpf_exp(mpf_add(logw(u, x), mpf_mul_int(u, kmin, wp, rnd), wp, rnd), wp, rnd)
            terms = [term]
            for _ in range(kmax - kmin):
                term = mpf_mul(term, x, wp, rnd)
                terms.append(term)
            return _live(terms, live)

        return dict(enumerate(_trapezoid_levels(g, prec, "moments"), start=kmin))


def seed_depth(params: WeightParams) -> int:
    """m, the depth of the seeds k = -m..0 (0 in the t = 0 mode)."""
    return params.m if params.is_deformed else 0


class _Seeds(dict):
    """A point's seeds {k: mu_k} from ``seed_moments``; ``context`` is the
    shift context made from them on their first shift, which lives as long
    as they do."""

    context = None


#: the seed sets some reader holds, by (point, precision)
_seed_memo = weakref.WeakValueDictionary()

#: the seed sets that hold a shift context, by id (an entry goes with its
#: seed set, so a reused id finds none)
_with_context = weakref.WeakValueDictionary()


def seed_moments(params: WeightParams, prec: PrecisionContext) -> dict:
    """The seeds mu_k, k = -m..0, of a point: one ``moments`` sweep per
    point and precision while some reader holds the result.  The dict is
    shared; do not modify it.
    """
    key = (params, prec)
    seeds = _seed_memo.get(key)
    if seeds is None:
        seeds = _seed_memo[key] = _Seeds(moments(params, -seed_depth(params), 0, prec))
    return seeds


def clear_memos():
    """Forget the seeds and their shift contexts, the node exponentials e^u
    and the node weights of this process: a seed set still held keeps its
    moments but not its context."""
    global _node_exp, _node_weight
    for seeds in list(_with_context.values()):
        seeds.context = None
    _with_context.clear()
    _seed_memo.clear()
    _node_exp = (0, {})
    _node_weight = (None, {})


def table_moments(params: WeightParams, kmax: int, prec: PrecisionContext,
                  seeds: dict = None) -> dict:
    """mu_k for k = -m..kmax (k = 0..kmax in the t = 0 mode): the moments of a table.

    Only the seeds k = -m..0 (k = 0 alone at t = 0) are integrated, in one
    ``moments`` sweep, unless ``seeds`` hands them in (at this precision).
    Integrating (x^(alpha+k) w)' by parts over (0, inf), where
    v' = -alpha/x + 1 - sum_j j t_j x^(-j-1) is rational, gives the exact
    Pearson recurrence

        mu_k = (k + alpha) mu_{k-1} + sum_{j=1..m} j t_j mu_{k-1-j},

    which yields k = 1..kmax.  Moments grow factorially, so they are the
    dominant solution and the upward recursion is stable; it runs at the
    sweep's working precision.
    """
    m = seed_depth(params)
    mu = dict(seeds if seeds is not None else seed_moments(params, prec))
    with mp.workdps(sample_dps(prec)):
        coef = params.t_mpf(scaled=True)[:m]
        for k in range(1, kmax + 1):
            acc = to_mpf(k + params.alpha) * mu[k - 1]
            for j, c in enumerate(coef, start=1):
                acc += c * mu[k - 1 - j]
            mu[k] = acc
        return {k: +v for k, v in mu.items()}


class _ShiftContext:
    """What ``shift_seeds`` shares among the nodes of one centre, as raw mpf
    tuples at the sampling precision: the downward centre moments with their
    error bounds (``moment``), each axis step's Taylor weights and every
    series sum (``series``).  Built inside the sampling-precision block.
    """

    def __init__(self, centre: WeightParams, seeds: dict, prec: PrecisionContext):
        wp, rnd = self.wp, self.rnd = mp._prec_rounding
        self.m = seed_depth(centre)
        self.ulp = (0, 1, 1 - wp, 1)
        self.tol = to_mpf(prec.quad_tol)._mpf_
        self.alpha = to_mpf(centre.alpha)._mpf_
        *self.coef, self.mtm = (c._mpf_ for c in centre.t_mpf(scaled=True))
        self.mu = {k: v._mpf_ for k, v in seeds.items()}
        self.err = {k: mpf_mul(self.tol, mpf_abs(v, wp, rnd), wp, rnd) for k, v in self.mu.items()}
        self.low = min(self.mu)
        # a series stops once a term is below the rounding of its sum; the
        # cap only ends a shift too wide to pay (then the bound rejects it)
        self.cap = 4 * prec.work_dps
        self.weights = {}  # raw step -> [((step)^a / a!, its abs), ...]
        self.sums = {}  # axes -> {k: (sum, bound)}

    def moment(self, j: int) -> tuple:
        """(mu_j, its error bound) of the centre, running the recurrence down
        to j where it has not been yet."""
        mu, err, m, wp, rnd = self.mu, self.err, self.m, self.wp, self.rnd
        for new in range(self.low - 1, j - 1, -1):
            k = new + 1 + m
            ka = mpf_add(self.alpha, from_int(k), wp, rnd)
            prod = mpf_mul(ka, mu[k - 1], wp, rnd)
            acc = mpf_sub(mu[k], prod, wp, rnd)
            bound = mpf_add(err[k], mpf_mul(mpf_abs(ka, wp, rnd), err[k - 1], wp, rnd), wp, rnd)
            size = mpf_add(mpf_abs(mu[k], wp, rnd), mpf_abs(prod, wp, rnd), wp, rnd)
            for jj, c in enumerate(self.coef, start=1):
                term = mpf_mul(c, mu[k - 1 - jj], wp, rnd)
                acc = mpf_sub(acc, term, wp, rnd)
                bound = mpf_add(bound, mpf_mul(mpf_abs(c, wp, rnd), err[k - 1 - jj], wp, rnd),
                                wp, rnd)
                size = mpf_add(size, mpf_abs(term, wp, rnd), wp, rnd)
            rounding = mpf_mul(mpf_mul_int(self.ulp, m + 2, wp, rnd), size, wp, rnd)
            mu[new] = mpf_div(acc, self.mtm, wp, rnd)
            err[new] = mpf_div(mpf_add(bound, rounding, wp, rnd), self.mtm, wp, rnd)
            self.low = new
        return mu[j], err[j]

    def series(self, k: int, axes: tuple) -> tuple:
        """(mu_k shifted along axes, its error bound); axes is ((i, -delta_i),
        ...) with raw steps.  The first axis is summed here, the rest inside
        each of its terms.  The bound is +inf where a series runs to the cap;
        a sum stops at the first term whose bound is +inf, since the shift is
        rejected whatever the rest would add."""
        if not axes:
            return self.moment(k)
        memo = self.sums.get(axes)
        if memo is None:
            memo = self.sums[axes] = {}
        found = memo.get(k)
        if found is not None:
            return found
        wp, rnd, ulp = self.wp, self.rnd, self.ulp
        (i, step), rest = axes[0], axes[1:]
        weights = self.weights.get(step)
        if weights is None:
            weights = self.weights[step] = [(fone, fone)]
        total = bound = fzero
        for a in range(self.cap):
            v, e = self.series(k - i * a, rest)
            if e == finf:
                bound = finf
                break
            if a == len(weights):
                w = mpf_div(mpf_mul(weights[-1][0], step, wp, rnd), from_int(a), wp, rnd)
                weights.append((w, mpf_abs(w, wp, rnd)))
            w, aw = weights[a]
            term = mpf_mul(w, v, wp, rnd)
            total = mpf_add(total, term, wp, rnd)
            floor = mpf_mul(ulp, mpf_abs(total, wp, rnd), wp, rnd)
            bound = mpf_add(bound, mpf_add(mpf_mul(aw, e, wp, rnd), floor, wp, rnd), wp, rnd)
            term = mpf_abs(term, wp, rnd)
            if a and mpf_le(term, floor):
                bound = mpf_add(bound, term, wp, rnd)
                break
        else:
            bound = finf
        memo[k] = total, bound
        return memo[k]


def shift_seeds(centre: WeightParams, seeds: dict, node: WeightParams,
                prec: PrecisionContext):
    """The seeds of node from the seeds of centre, or None if not accurate enough.

    ``seeds`` are the centre's mu_k, k = -m..0, at this precision; node
    differs from centre only in t, by delta.  Since d mu_k / d t_i = -mu_{k-i},

        mu_k(t + delta) = sum_a prod_i (-delta_i)^(a_i) / a_i! mu_{k - sum_i i a_i}(t),

    summed over the axes where delta_i != 0.  The deeper centre moments
    come from the Pearson recurrence run downward,

        mu_{k-1-m} = (mu_k - (k + alpha) mu_{k-1} - sum_{j<m} j t_j mu_{k-1-j}) / (m t_m),

    which loses accuracy when t_m is small.  So an absolute error bound
    rides along: quad_tol |mu_k| for each seed, then every recurrence step,
    series term and rounding at the sweep precision.  The shifted seeds are
    returned only when every bound is within 10 quad_tol |value|, the
    tolerance of the ``moment-pearson`` check; otherwise None, and the node
    is integrated.  A series that runs to its cap of 4 work_dps terms
    without settling has an infinite bound, so the shift stops there and
    returns None: the rest of the sums could not change the verdict.

    A shift context holds the downward moments, the Taylor weights of each
    axis step and every series sum.  A seed set from ``seed_moments`` makes
    its context on its first shift and keeps it, so the nodes of one grid
    share it (``clear_memos`` drops it); other seeds, such as a plain dict,
    get a fresh context on each call.  Every entry is a pure function of
    its key and every operation is rounded at the sweep precision in the
    order mpf arithmetic takes, so a node's seeds and its rejection do not
    depend on the nodes shifted before it.
    """
    m = seed_depth(centre)
    if not m or node.alpha != centre.alpha or node.m != centre.m:
        return None
    with mp.workdps(sample_dps(prec)):
        wp, rnd = mp._prec_rounding
        ctx = getattr(seeds, "context", None)
        if ctx is None:
            ctx = _ShiftContext(centre, seeds, prec)
            if isinstance(seeds, _Seeds):
                seeds.context = ctx
                _with_context[id(seeds)] = seeds
        axes = tuple((i, mpf_neg(to_mpf(b - a)._mpf_, wp, rnd))
                     for i, (a, b) in enumerate(zip(centre.t, node.t), start=1) if b != a)
        limit = mpf_mul_int(ctx.tol, 10, wp, rnd)
        out = {}
        for k in range(-m, 1):
            value, bound = ctx.series(k, axes)
            if not mpf_le(bound, mpf_mul(limit, mpf_abs(value, wp, rnd), wp, rnd)):
                return None
            out[k] = mp.make_mpf(mpf_pos(value, wp, rnd))
        return out


def moment(k: int, params: WeightParams, prec: PrecisionContext) -> mpf:
    """mu_k = int_0^inf x^(alpha+k) w(x) dx at full precision."""
    return moments(params, k, k, prec)[k]


def integrate_finite(panels, prec: PrecisionContext) -> list:
    """Tanh-sinh integrals of f over [a, b] for each panel (f, a, b), in one pass.

    Handles integrable endpoint singularities (log, inverse square
    root) at full accuracy only at an endpoint at 0: the distance to the
    near endpoint keeps its relative accuracy, but x = b - dist (or
    a + dist with a != 0) rounds to the endpoint once dist is below its
    ulp, and a sample there that divides by zero raises NonConvergence.
    No suite calls it: it is the test oracle that the equilibrium log
    potential's closed form is checked against.  The panels share the
    nodes t and every factor that does not depend on the interval (sinh t,
    e^{-2|w|}, cosh t, cosh^2 w; the half-width scales them), and each
    result is bit-identical to a pass of its panel alone.
    """
    ends = [(f, to_mpf(a), to_mpf(b)) for f, a, b in panels]
    if not all(b > a for _, a, b in ends):
        raise DomainError("need b > a")
    with mp.workdps(sample_dps(prec)):
        pihalf = mp.pi / 2
        # per panel the products half * 2 and half * pi/2 of the half-width,
        # rounded as a lone pass rounds them
        spans = [(f, a, b, (b - a) / 2 * 2, (b - a) / 2 * pihalf) for f, a, b in ends]

        def g(t, live):
            cht, sht = (mp.make_mpf(v) for v in mpf_cosh_sinh(t, *mp._prec_rounding))
            w = pihalf * sht
            # distance to the near endpoint via 1 + tanh(w) = 2e^{2w}/(1+e^{2w}),
            # which keeps full relative accuracy for endpoint singularities
            e2 = mp.exp(-2 * abs(w))
            e2p1 = 1 + e2
            chw2 = mp.cosh(w) ** 2
            out = []
            for f, a, b, width, scale in _live(spans, live):
                dist = width * e2 / e2p1
                if dist == 0:
                    out.append(fzero)
                    continue
                x = a + dist if t[0] else b - dist
                out.append((f(x) * (scale * cht / chw2))._mpf_)
            return out

        result = _trapezoid_levels(g, prec, "integrate_finite")
    return [+v for v in result]
