"""Finite-difference calculus in (t1, t2) and the differential identity checks.

Derivatives of table/auxiliary quantities are central differences on a
dyadic stencil with Richardson extrapolation in h^2 (``extrapolate``, the
lab's one Neville extrapolation to 0, which ``scaling`` runs in 1/n).
Each derivative kind has one order-2 difference, written once as a table
of taps (``FIRST``, ``SECOND``, ``CROSS``); ``StencilGrid`` is their only
reader, and ``scaling`` differentiates on the same grids.  A grid's
relative step h is the precision's (``PrecisionContext.fd_rel_step``),
and its one setting is the number of levels of the difference, at dyadic
steps down to h / 2^(levels // 2): h alone, h and h/2, or (the default)
2h, h and h/2, Richardson-extrapolated.  Every stencil node is the recurrence
table at an exactly-rational shifted parameter point, read through the
table cache, so grids that share a node share its table.  Only the
grid's centre is integrated: its seed moments (the grid's anchor) are
shifted to each node by the exact parameter Taylor series, and a node
is integrated only where that shift's error bound is too wide
(``quadrature.shift_seeds``); the Pearson recurrence and Gram-Schmidt
then run per node as before.
Each derivative carries an error estimate (extrapolation spread plus a
roundoff floor).  Every derivative check, linear or not, reads one
dict of (value, error) pairs, gathered by ``partials`` under the keys
"1", "2", "11", "12", "22" (1-based axes, lower first); it evaluates its
signed residual once on each of ``moved``'s inputs and is held to 10
times the sum of the changes (``propagated_check``).  A node's aux rows
are read through ``ladder.aux_row``, each computed once per table.

Every check takes (n, grid), or the grid alone, the seed shift and the
small-t2 reductions included: its point, precision, levels and table
depth are the grid's, and its point string names the grid's point.  No
check builds a grid; the suites build each one, the frozen-t2 grids of
the reductions among them.

Checked here (m = 2): the shifted seeds against quadrature; the
log-derivative relations of h_n, beta_n, p(n), alpha_n; the Toda
equations, the second-order molecule equation and its ln D_n form; the
Riccati system; the coupled second-order PDEs for S_n = R_n + R_n*; the
sigma-function layer H_n (definition consistency, auxiliary
reconstruction with the sgn(t1) branch, the second-order sixth-degree
PDE); and the small-t2 continuation onto the one-variable ordinary
differential equation for R_n.  The derivative relations, the Toda
family and the H_n derivative data (``hankel_sigma``: H_n = D ln D_n,
its partials, beta_n, d beta_n/dt_i, Delta) are written for any m, over
the axes i = 1..m with the scale i t_i of D = sum_i i t_i d/dt_i.  The
Riccati system (``riccati_checks``) and the row reconstruction from H_n
(``reconstruct_aux_from_H``) are closed forms written once, for m = 3,
and run at m = 2 with rho, R^_n and r^_n set to 0.  The m = 3 checks use
all of these too.
"""

from __future__ import annotations

from typing import NamedTuple

from mpmath import mp, mpf

from .errors import (
    BranchAmbiguity,
    DomainError,
    NegativeDiscriminant,
    StencilOutOfDomain,
)
from .ladder import AuxRow, aux_row, pad3
from .params import PrecisionContext, WeightParams, to_mpf
from .quadrature import shift_seeds
from .reports import Check, floored, sign_check


def table_bundle_builder(N: int, prec: PrecisionContext, cache_dir=None):
    """Builder for stencil grids: (params, anchor) -> the node's table of depth N.

    Tables come through the table cache, so repeated stencil
    evaluations at the same exact rational nodes are read, not rebuilt;
    a build takes its seeds from the anchor point, the grid's centre, and
    integrates them at a point that is its own anchor.  The builder keeps
    the seeds its builds read, and with them their shift context, so they
    live as long as it, and its grid, does.
    """
    kept = []

    def build(params: WeightParams, anchor: WeightParams):
        from .cache import cached_recurrence_table

        return cached_recurrence_table(params, N, prec, cache_dir=cache_dir, anchor=anchor,
                                       keep=kept)

    return build


class Difference(NamedTuple):
    """An order-2 central difference sum_j w_j f(x + o_j h) / (c h_1^k_1 ...).

    taps    -- (o_j, w_j): the offsets in steps, one per axis varied, and
               the weight
    c       -- the denominator factor
    powers  -- the power k_i of each axis step in the denominator
    """

    taps: tuple
    c: int
    powers: tuple

    def denominator(self, steps):
        """c h_1^k_1 h_2^k_2 ..., multiplied left to right."""
        den = self.c
        for h, k in zip(steps, self.powers):
            for _ in range(k):
                den = den * h
        return den

    def quotient(self, value, steps):
        """The difference of value(offsets) at the steps.

        Terms are added in tap order as +-|w| value, so each quotient has
        the bits of the formula written out by hand.
        """
        total = None
        for offsets, w in self.taps:
            term = value(offsets) if abs(w) == 1 else abs(w) * value(offsets)
            if total is None:
                total = term if w > 0 else -term
            else:
                total = total + term if w > 0 else total - term
        return total / self.denominator(steps)


#: the first and second difference along one axis, and the 4-corner cross
#: difference in two axes
FIRST = Difference((((1,), 1), ((-1,), -1)), 2, (1,))
SECOND = Difference((((1,), 1), ((0,), -2), ((-1,), 1)), 1, (2,))
CROSS = Difference((((1, 1), 1), ((1, -1), -1), ((-1, 1), -1), ((-1, -1), 1)), 4, (1, 1))


def extrapolate(xs, vals):
    """Neville extrapolation of (x_i, vals_i) to x = 0, xs exact (ints or
    Fractions): (value, last correction |P(L,L) - P(L,L-1)|, 0 for one value).

    Each step is b + (b - a) / (x_{i-k}/x_i - 1), the ratio exact: an integer
    divisor stays an int, any other num/den divides the exact (b - a) * den
    by num, rounded once.  On x = 4^-level (step-halved estimates with error
    h^2, h^4, ..) the divisors are Richardson's 3, 15, 63; ``scaling`` takes
    x = 1/n.
    """
    exact = [(x.numerator, x.denominator) for x in xs]
    prev = col = list(vals)
    for k in range(1, len(col)):
        prev, col = col, []
        for (pf, qf), (pn, qn), a, b in zip(exact, exact[k:], prev, prev[1:]):
            # x_{i-k}/x_i - 1 = num / den
            num, den = pf * qn - qf * pn, qf * pn
            q, r = divmod(num, den)
            col.append(b + (mp.fmul(b - a, den, exact=True) / num if r else (b - a) / q))
    return col[0], (abs(col[0] - prev[-1]) if len(prev) > 1 else mpf(0))


class StencilGrid:
    """Memoized node tables on the FD stencil around one point.

    The relative step h is the precision's ``fd_rel_step``; ``levels``
    (at least 1) sets the steps of the difference: h alone (1), h and h/2
    (2), or 2h, h and h/2 (3, the default).  Offsets are integers
    counting finest steps (``steps_per_h`` to one h), so the shifted
    parameter points are exact and reproducible; nodes that would leave
    the admissible region raise StencilOutOfDomain.

    The grid's centre is the anchor of every node: its seed moments are
    integrated once per precision, when a table is first built, and
    shifted to the nodes.  The builder is called as builder(params,
    centre); ``table_bundle_builder`` hands the centre to the table cache.
    ``bundle(offsets)`` is the node's table.
    """

    def __init__(self, params: WeightParams, prec: PrecisionContext, builder, levels: int = 3):
        if levels < 1:
            raise DomainError("a stencil grid needs levels >= 1")
        if not params.is_deformed:
            raise DomainError("a stencil grid needs a deformed point (its steps are 0 at t = 0)")
        self.params = params
        self.prec = prec
        self.levels = levels
        self._builder = builder
        self._h = tuple(prec.fd_rel_step * abs(t) for t in params.t)
        self.steps_per_h = 2 ** (levels // 2)
        self._fine = tuple(h / self.steps_per_h for h in self._h)
        self._xs = tuple(4 ** lev for lev in range(levels - 1, -1, -1))  # squared steps
        self._mpf = {}
        self._memo = {}

    def params_at(self, offsets) -> WeightParams:
        t = list(self.params.t)
        for ax, j in offsets:
            t[ax] = t[ax] + j * self._fine[ax]
            if (self.params.t[ax] > 0) != (t[ax] > 0):
                raise StencilOutOfDomain(
                    f"node t_{ax + 1} = {t[ax]} leaves the admissible region")
        return self.params.with_t(t)

    def bundle(self, offsets=()):
        key = tuple(sorted(offsets))
        if key not in self._memo:
            self._memo[key] = self._builder(self.params_at(key), self.params)
        return self._memo[key]

    # -- derivative estimators (inside the caller's working precision) --

    def _steps(self):
        """(each axis's level steps, coarsest first, and eps) as mpf at the
        working precision, made once per precision; a level step is h
        times a power of two, so exact in h's mpf."""
        if mp.prec not in self._mpf:
            n = self.levels
            self._mpf[mp.prec] = ([[mp.ldexp(h, (n - 1) // 2 - lev) for lev in range(n)]
                                   for h in map(to_mpf, self._h)], to_mpf(self.prec.eps))
        return self._mpf[mp.prec]

    def quotients(self, diff: Difference, extract, axes):
        """(diff of extract on the axes at each level step, coarsest first,
        and the largest |extract| the differences read)."""
        steps = self._steps()[0]
        vals = {}
        out = []
        for lev in range(self.levels):
            scale = 1 << (self.levels - 1 - lev)

            def at(offsets):
                key = tuple((ax, j * scale) for ax, j in zip(axes, offsets) if j)
                if key not in vals:
                    vals[key] = extract(self.bundle(key))
                return vals[key]

            out.append(diff.quotient(at, [steps[ax][lev] for ax in axes]))
        return out, max(abs(v) for v in vals.values())

    def _derivative(self, diff: Difference, extract, axes):
        """(diff of extract on the axes, error estimate).

        The level quotients are extrapolated in h^2 (``extrapolate``); the
        error is the last correction plus the eps noise of the values carried
        through the taps of the finest difference, sum_j |w_j| over its
        denominator.
        """
        quots, largest = self.quotients(diff, extract, axes)
        val, spread = extrapolate(self._xs, quots)
        steps, eps = self._steps()
        noise = eps * (largest + 1) * sum(abs(w) for _, w in diff.taps)
        return val, spread + noise / diff.denominator([steps[ax][-1] for ax in axes])

    def first(self, extract, axis: int):
        """(d/dt_axis extract, error estimate)."""
        return self._derivative(FIRST, extract, (axis,))

    def second(self, extract, axis: int):
        """(d^2/dt_axis^2 extract, error estimate)."""
        return self._derivative(SECOND, extract, (axis,))

    def mixed(self, extract, ax1: int, ax2: int):
        """(d^2/dt_ax1 dt_ax2 extract, error estimate)."""
        return self._derivative(CROSS, extract, (ax1, ax2))


def partials(grid, f, keys) -> dict:
    """{key: (value, error)} of the partials of f on grid: key "i" is
    d/dt_i, "ii" d^2/dt_i^2 and "ij" (i < j) the mixed partial, axes
    1-based.  grid is a ``StencilGrid`` (f extracts a scalar from a
    node) or a ``scaling.ScaledGrid`` (f names a scaled quantity)."""
    out = {}
    for key in keys:
        kind = "first" if len(key) == 1 else "second" if key[0] == key[1] else "mixed"
        out[key] = getattr(grid, kind)(f, *sorted({int(c) - 1 for c in key}))
    return out


# --------------------------------------------------------------------------
# identity checks; each returns a list of Check entries
# --------------------------------------------------------------------------

def verify_seed_shift(grid: StencilGrid) -> Check:
    """seed-shift: the centre's seeds shifted to the (+h, +h) corner against
    a direct ``moments`` sweep there.

    The centre's seeds are those of the grid's centre table; the direct
    sweep is the seeds of the corner's table built by the grid's own node
    builder with the corner as its own anchor, so integrated.  Both come
    through the builder, so a warm run integrates nothing.  Max relative
    deviation over k = -m..0, held to 10 quad_tol like ``moment-pearson``;
    a rejected shift fails the check.
    """
    centre = grid.bundle()
    prec = centre.prec
    corner = grid.params_at(((0, grid.steps_per_h), (1, grid.steps_per_h)))
    direct = grid._builder(corner, corner).moments
    seeds = {k: centre.moments[k] for k in range(-grid.params.m, 1)}
    shifted = shift_seeds(grid.params, seeds, corner, prec)
    with mp.workdps(prec.work_dps):
        dev = mp.inf if shifted is None else max(
            abs(v - direct[k]) / abs(direct[k]) for k, v in shifted.items())
        return Check("seed-shift", dev, 10 * to_mpf(prec.quad_tol),
                     _point_str(grid.params, "node=+h,+h"))


def _point_str(params, extra=""):
    vals = ",".join(str(v) for v in (params.alpha,) + params.t)
    return f"({vals})" + (f";{extra}" if extra else "")


def _label(grid: StencilGrid, n: int) -> str:
    """The point string of a check at index n on grid: the grid's own point."""
    return _point_str(grid.params, f"n={n}")


def moved(x: dict) -> list:
    """The values of x ({name: (value, error)}), then the values with each
    input in turn moved by its error."""
    values = {k: v for k, (v, _) in x.items()}
    return [values] + [{**values, k: v + e} for k, (v, e) in x.items()]


def propagated(values):
    """First-order propagated error of a residual from its values on
    ``moved`` inputs: the sum of the changes from values[0]."""
    return mp.fsum(abs(v - values[0]) for v in values[1:])


def normalized(terms):
    """The sum of terms over 1 + the largest term magnitude."""
    return mp.fsum(terms) / (1 + max(abs(v) for v in terms))


def propagated_check(cid: str, values, point: str) -> Check:
    """|values[0]| held to 10 times its propagated error; values are the
    signed residual of a nonlinear identity on ``moved`` inputs."""
    return Check(cid, abs(values[0]), floored(10 * propagated(values)), point)


def axis_scales(point: WeightParams) -> list:
    """i t_i for the axes i = 1..m, the weights of D = sum_i i t_i d/dt_i."""
    return [i * t for i, t in enumerate(point.t_mpf(), start=1)]


def first_keys(m: int) -> list:
    """The ``partials`` keys of the first partials on m axes."""
    return [str(i) for i in range(1, m + 1)]


def second_keys(m: int) -> list:
    """The ``partials`` keys of every first and second partial on m axes,
    each mixed partial once."""
    axes = range(1, m + 1)
    return first_keys(m) + [f"{i}{j}" for i in axes for j in axes if i <= j]


def axis_checks(n: int, grid: StencilGrid, cid: str, extract, exact) -> list:
    """One check per axis i = 1..m of i t_i d/dt_i extract = exact[i-1],
    read off one ``partials`` dict of the first partials and held by
    ``propagated_check``.  The id is cid formatted with i."""
    scales = axis_scales(grid.params)
    values = moved(partials(grid, extract, first_keys(len(scales))))
    return [propagated_check(cid.format(i), [s * v[str(i)] - want for v in values],
                             _label(grid, n))
            for i, (s, want) in enumerate(zip(scales, exact), start=1)]


def derivative_relations(n: int, grid: StencilGrid, names, suffix="") -> list:
    """First-order derivative relations at index n, by name, each on the axes.

        dlnh     i t_i d/dt_i ln h_n    = -R_{n,i}
        dp       i t_i d/dt_i p(n)      =  r_{n,i}
        dlnbeta  i t_i d/dt_i ln beta_n =  R_{n-1,i} - R_{n,i}     (n >= 1)
        dalpha   i t_i d/dt_i alpha_n   =  r_{n,i} - r_{n+1,i}

    Check ids are ``{name}-t{i}{suffix}``.
    """
    b = grid.bundle()
    relations = {
        "dlnh": (lambda v: mp.log(v.h[n]), lambda: [-x for x in aux_row(b, n).R]),
        "dp": (lambda v: v.p(n), lambda: aux_row(b, n).r),
        "dlnbeta": (lambda v: mp.log(v.beta(n)),
                    lambda: [x - y for x, y in zip(aux_row(b, n - 1).R, aux_row(b, n).R)]),
        "dalpha": (lambda v: v.alpha(n),
                   lambda: [x - y for x, y in zip(aux_row(b, n).r, aux_row(b, n + 1).r)]),
    }
    out = []
    for name in names:
        extract, exact = relations[name]
        out += axis_checks(n, grid, f"{name}-t{{}}{suffix}", extract, exact())
    return out


def _euler(point: WeightParams, v: dict):
    """D f = sum_i i t_i f_i, from f's partials v by ``partials`` key."""
    return mp.fsum(s * v[str(i)] for i, s in enumerate(axis_scales(point), start=1))


def _euler_second(point: WeightParams, v: dict):
    """D(D - 1) f = sum_i (i t_i)^2 f_ii + 2 sum_{i<j} (i t_i)(j t_j) f_ij
    + sum_i i(i-1) t_i f_i, from f's partials v by ``partials`` key."""
    scales = axis_scales(point)
    t = point.t_mpf()
    val = mpf(0)
    for i, s in enumerate(scales):
        val += s ** 2 * v[f"{i + 1}{i + 1}"]
        val += (i + 1) * i * t[i] * v[str(i + 1)]
        for j in range(i + 1, len(scales)):
            val += 2 * s * scales[j] * v[f"{i + 1}{j + 1}"]
    return val


def toda_checks(n: int, grid: StencilGrid, tag="") -> list:
    """The Toda family at index n, for any m (ids ``toda{tag}-...``):

        alpha     D alpha_n       = beta_n - beta_{n+1} + alpha_n
        beta      D ln beta_n     = alpha_{n-1} - alpha_n + 2                 (n >= 1)
        molecule  D(D-1) ln beta_n = beta_{n-1} - 2 beta_n + beta_{n+1} - 2   (n >= 1)

    Each residual reads alpha_n's or ln beta_n's ``partials``, each taken
    once, and is held by ``propagated_check``.
    """
    point = grid.params
    ps = _label(grid, n)
    tab = grid.bundle()
    rhs = tab.beta(n) - tab.beta(n + 1) + tab.alpha(n)
    out = [propagated_check(f"toda{tag}-alpha", [_euler(point, v) - rhs for v in moved(
        partials(grid, lambda v: v.alpha(n), first_keys(point.m)))], ps)]
    if n >= 1:
        lb = moved(partials(grid, lambda v: mp.log(v.beta(n)), second_keys(point.m)))
        rhs = tab.alpha(n - 1) - tab.alpha(n) + 2
        out.append(propagated_check(f"toda{tag}-beta", [_euler(point, v) - rhs for v in lb], ps))
        rhs = tab.beta(n - 1) - 2 * tab.beta(n) + tab.beta(n + 1) - 2
        out.append(propagated_check(f"toda{tag}-molecule",
                                    [_euler_second(point, v) - rhs for v in lb], ps))
    return out


def verify_toda(n: int, grid: StencilGrid):
    """The Toda family at index n >= 1 and the ln D_n form of the
    molecule equation, D(D-1) ln D_n = beta_n - n(n + alpha)."""
    if n < 1:
        raise DomainError("Toda checks need n >= 1")
    point = grid.params
    with mp.workdps(grid.prec.work_dps):
        out = toda_checks(n, grid)
        rhs = grid.bundle().beta(n) - n * (n + to_mpf(point.alpha))
        lnd = moved(partials(grid, lambda v: v.log_hankel(n), second_keys(point.m)))
        out.append(propagated_check("toda-lndn", [_euler_second(point, v) - rhs for v in lnd],
                                    _label(grid, n)))
    return out


def riccati_checks(n: int, grid: StencilGrid, tag="") -> tuple:
    """The first-order Riccati system at index n: the axis components of
    D sum_i R_{n,i} and of D sum_i r_{n,i}, as (S checks, r checks) with
    ids ``riccati{tag}-{S,r}-t{i}``.  Written for m = 3; at m = 2 rho,
    R^_n and r^_n are 0."""
    point = grid.params
    if point.m not in (2, 3):
        raise DomainError("the Riccati system is written for m = 2 and 3 only")
    t1 = to_mpf(point.t1)
    tau = to_mpf(point.tau)
    rho = to_mpf(point.rho)
    alpha = to_mpf(point.alpha)
    row = aux_row(grid.bundle(), n)
    (R, Rs, Rh), (r, rs, rh) = pad3(row.R), pad3(row.r)
    K = (rs / R - r * Rs / R ** 2) * (rs - (r - t1) * Rs / R)
    xi = (
        K * (rho * Rs / tau - R) / tau
        + 2 * r * (t1 - r) * Rs * Rh / (tau * R ** 2)
        + (2 * r - t1) / (tau * R) * (rh * Rs + Rh * rs)
        - 2 * rh * rs / tau
        + (2 * n + alpha) * r - n * t1
    )
    big = 2 * n + 1 + alpha + R + Rs + Rh
    # axis_checks stops at the m-th entry
    rhs_S = (2 * r + big * R - t1,
             2 * rs + big * Rs - tau * R,
             2 * rh + big * Rh - rho * Rs)
    rhs_r = (xi + r + 2 * r * (r - t1) / R,
             Rs / R * xi + rs + rs * (2 * r - t1) / R,
             Rh / R * xi + rh + rh * (2 * r - t1) / R + rho * K / tau)
    return (axis_checks(n, grid, f"riccati{tag}-S-t{{}}", lambda v: aux_row(v, n).Rsum, rhs_S),
            axis_checks(n, grid, f"riccati{tag}-r-t{{}}", lambda v: aux_row(v, n).rsum, rhs_r))


def verify_coupled_pdes(n: int, grid: StencilGrid):
    """The coupled second-order PDE pair for S_n = R_n + R_n*: residuals
    normalized by (1 + max term magnitude), each held to 10 times its
    error propagated from the S_n and R_n partials it reads."""
    point = grid.params
    ps = _label(grid, n)
    with mp.workdps(grid.prec.work_dps):
        t1, t2 = to_mpf(point.t1), to_mpf(point.t2)
        alpha = to_mpf(point.alpha)
        R, Rs = aux_row(grid.bundle(), n).R
        S = R + Rs
        T = Rs / R

        x = {"S" + k: p for k, p in partials(
            grid, lambda v: aux_row(v, n).Rsum, ("1", "2", "11", "12", "22")).items()}
        x.update(("R" + k, p) for k, p in partials(
            grid, lambda v: aux_row(v, n).R[0], ("1", "2")).items())

        # every factor that does not read a partial is formed once, as the
        # written-out term forms it, since each PDE runs on every moved input
        a = (t1 ** 2, 2 * t1 * t2, t1 * t2, T / (2 * t2) * t1, -(t1 ** 2 / R), (1 - Rs) * t1,
             2 * t2)
        rest1 = [
            -R * S * (S + 2 * n + 1 + alpha),
            t2 / t1 * R * (R - 2),
            -alpha * t1,
            t1 ** 2 / R,
            -(t1 ** 3 / (4 * t2)) * T ** 2,
        ]

        def pde1(v):
            dS1, dS2, dS11, dS12, dR1 = (v[k] for k in "S1 S2 S11 S12 R1".split())
            return normalized([
                a[0] * dS11,
                a[1] * dS12,
                a[2] * (a[3] * dS1 - dS2) ** 2,
                a[4] * dS1 ** 2,
                a[5] * dS1,
                a[6] * (R * dS2 + dR1),
                *rest1,
            ])

        b = (4 * t2 ** 2, (t1 / (4 * t2)) * T, T * t1, 2 * t2, -(2 * t1 * t2 / R),
             t1 * (T + Rs) - 2 * t2, (1 - R) * 2 * t2, 4 * t2 ** 2 / t1)
        rest2 = [
            ((2 * t2 / t1) * R - Rs * S) * (S + 2 * n + 1 + alpha),
            t2 / t1 * R * (Rs + 2),
            -alpha * t1 * T,
            -(t1 ** 3 / (4 * t2)) * T ** 3,
        ]

        def pde2(v):
            dS1, dS2, dS22, dS12, dR2 = (v[k] for k in "S1 S2 S22 S12 R2".split())
            return normalized([
                b[0] * dS22,
                a[1] * dS12,
                b[1] * (b[2] * dS1 - b[3] * dS2) ** 2,
                b[4] * dS1 * dS2,
                dS1 * b[5],
                b[6] * dS2,
                b[7] * dR2,
                *rest2,
            ])

        values = moved(x)
        return [propagated_check(cid, [f(v) for v in values], ps)
                for cid, f in (("pde-S-1", pde1), ("pde-S-2", pde2))]


# --------------------------------------------------------------------------
# sigma-function layer
# --------------------------------------------------------------------------

class SigmaState(NamedTuple):
    """H_n = D ln D_n at a grid's point, its partials and the sigma-layer
    quantities assembled from them, for any m.

    d holds every first and second partial of H_n as a (value, error
    estimate) pair under its ``partials`` key ("1", "12", ...; a mixed
    partial once).  fd_error, the sum of the estimates with each mixed
    partial counted once per order, is the noise level of the branch
    guard of ``branch_aux``; check tolerances propagate the estimates
    through the states of ``moved_states`` instead.
    """

    n: int
    params: WeightParams
    prec: PrecisionContext
    Hn: mpf
    d: dict
    r: tuple
    beta: mpf
    dbeta: tuple
    Delta: mpf
    fd_error: mpf


def hankel_sigma(n: int, grid: StencilGrid) -> SigmaState:
    """H_n = n(n+alpha) + p(n) and its first and second partials on grid,
    for any m, assembled by ``sigma_state``."""
    point, prec = grid.params, grid.prec
    with mp.workdps(prec.work_dps):
        nn = n * (n + to_mpf(point.alpha))
        H = lambda v: nn + v.p(n)
        return sigma_state(n, point, prec, H(grid.bundle()),
                           partials(grid, H, second_keys(point.m)))


def sigma_state(n: int, point: WeightParams, prec: PrecisionContext, Hn, d: dict) -> SigmaState:
    """The sigma state assembled from H_n and its partials d, by
    ``partials`` key, each a (value, error) pair:

        r_i          = i t_i dH_n/dt_i
        beta_n       = sum_i r_i - H_n + n(n+alpha)
        dbeta_n/dt_i = sum_j j t_j d^2H_n/dt_i dt_j + (i-1) dH_n/dt_i
        Delta        = (t1 dbeta_n/dt1)^2 + 4 beta_n r_1 (r_1 - t1)

    (i, j = 1..m), a pure function of H_n data.  fd_error sums the error
    estimates of every partial, each mixed partial once per order.
    """
    with mp.workdps(prec.work_dps):
        nn = n * (n + to_mpf(point.alpha))
        scales = axis_scales(point)
        H = lambda *axes: d["".join(str(i + 1) for i in sorted(axes))][0]
        r = tuple(s * H(i) for i, s in enumerate(scales))
        beta = mp.fsum(r) - Hn + nn
        dbeta = tuple(mp.fsum(s * H(i, j) for j, s in enumerate(scales)) + i * H(i)
                      for i in range(point.m))
        t1 = to_mpf(point.t1)
        Delta = (t1 * dbeta[0]) ** 2 + 4 * beta * r[0] * (r[0] - t1)
        fd_error = (mp.fsum(e for k, (_, e) in d.items() if len(k) == 1)
                    + mp.fsum(e * len(set(k)) for k, (_, e) in d.items() if len(k) == 2))
        return SigmaState(n=n, params=point, prec=prec, Hn=Hn, d=d, r=r,
                          beta=beta, dbeta=dbeta, Delta=Delta, fd_error=fd_error)


def moved_states(state: SigmaState) -> list:
    """The state re-assembled on each of ``moved(state.d)``: unmoved, then
    with each H_n partial in turn moved by its error."""
    with mp.workdps(state.prec.work_dps):
        return [sigma_state(state.n, state.params, state.prec, state.Hn,
                            {k: (v, state.d[k][1]) for k, v in values.items()})
                for values in moved(state.d)]


def branch_aux(state: SigmaState):
    """(R_n, R_n*) from H_n derivative data: beta_n, its t1 and t2
    partials, r_n, r_n* and the discriminant Delta.

    R_n takes the sgn(t1) square-root branch; R_n* follows from the
    mixed-derivative relation.  The same formulas hold for m = 2 and
    m = 3.  Raises NegativeDiscriminant if Delta is below the negative
    noise threshold, BranchAmbiguity if sqrt(Delta) is not above the
    state's fd_error.
    """
    point, prec = state.params, state.prec
    beta, Delta = state.beta, state.Delta
    dbeta1, dbeta2 = state.dbeta[:2]
    r, rstar = state.r[:2]
    with mp.workdps(prec.work_dps):
        t1, t2 = to_mpf(point.t1), to_mpf(point.t2)
        if Delta < -to_mpf(prec.half_eps):
            raise NegativeDiscriminant(f"Delta = {Delta}")
        root = mp.sqrt(abs(Delta))
        if root <= state.fd_error:
            raise BranchAmbiguity("sqrt(Delta) is below the FD noise level")
        sgn = 1 if point.t1 > 0 else -1
        R = (-t1 * dbeta1 + sgn * root) / (2 * beta)
        Rstar = (rstar * (2 * r - t1) + t1 * t2 * dbeta1 * dbeta2 / beta) / (sgn * root) \
            - t2 * dbeta2 / beta
        return R, Rstar


def reconstruct_aux_from_H(state: SigmaState) -> AuxRow:
    """Invert the sigma layer: the aux row from H_n derivative data alone,
    for m = 2 and 3.  R_n, R_n* take the branch formulas (``branch_aux``)
    and R^_n follows from d beta_n/dt3; written for m = 3, so at m = 2
    R^_n comes out 0 and is left off the row."""
    point = state.params
    if point.m not in (2, 3):
        raise DomainError("the row is reconstructed from H_n for m = 2 and 3 only")
    R, Rs = branch_aux(state)
    with mp.workdps(state.prec.work_dps):
        t1, t3 = to_mpf(point.t1), to_mpf(point.t3)
        tau, rho = to_mpf(point.tau), to_mpf(point.rho)
        r, rs, rh = pad3(state.r)
        denom = r * (r - t1) / R + state.beta * R
        Rh = (rh * (2 * r - t1)
              + (rho / tau) * (rs - r * Rs / R) * (rs + (t1 - r) * Rs / R)
              - 3 * t3 * pad3(state.dbeta)[2] * R) / denom
    return AuxRow(R=(R, Rs, Rh)[:point.m], r=state.r)


def sigma_pde_residual(state: SigmaState):
    """Signed normalized residual of the second-order sixth-degree PDE for
    H_n (m = 2)."""
    with mp.workdps(state.prec.work_dps):
        t2 = to_mpf(state.params.t2)
        alpha = to_mpf(state.params.alpha)
        n = state.n
        b, (db1, db2) = state.beta, state.dbeta
        H1, H2 = state.d["1"][0], state.d["2"][0]
        lhs = (db1 ** 2 + 4 * b * H1 * (H1 - 1)) ** 3
        inner = (
            db1 ** 2 * (-2 * t2 * H2 ** 2 + (2 * n + alpha) * H1 - n)
            + 2 * t2 * db2 * (db1 * H2 * (2 * H1 - 1) - db2 * H1 * (H1 - 1))
            + 2 * b * (2 * H1 * (H1 - 1) * ((2 * n + alpha) * H1 - n) + t2 * H2 ** 2)
        )
        rhs = inner ** 2
        return (lhs - rhs) / (1 + max(abs(lhs), abs(rhs)))


def h_from_aux_residual(state: SigmaState, row: AuxRow, dS):
    """Signed residual of the closed form of H_n (m = 2) in terms of R_n,
    R_n* and the first derivatives dS = (dS_n/dt1, dS_n/dt2) of
    S_n = R_n + R_n* (integral-route auxiliaries in row)."""
    with mp.workdps(state.prec.work_dps):
        t1, t2 = to_mpf(state.params.t1), to_mpf(state.params.t2)
        alpha = to_mpf(state.params.alpha)
        n = state.n
        S = row.R[0] + row.R[1]
        T = row.R[1] / row.R[0]
        R = S / (1 + T)  # S = R(1+T)
        Rs = S - R
        dS1, dS2 = dS
        expr = (
            -t1 / (8 * t2 * R) * (Rs / R * t1 * dS1 - 2 * t2 * dS2) ** 2
            + (t1 * dS1 / R - 1) ** 2 / 4
            - S ** 2 / 4
            - (n + alpha / 2) * S
            + t2 / (2 * t1) * R
            + t1 / 2
            - (t1 / R - alpha) ** 2 / 4
            + t1 ** 3 / (8 * t2) * Rs ** 2 / R ** 3
        )
        return expr - state.Hn


def verify_sigma_pde(n: int, grid: StencilGrid):
    """Checks of the m = 2 sigma layer at index n: definition consistency,
    H derivative relations, discriminant sign/identity, reconstruction,
    the closed H(R, R*) form, and the sixth-degree PDE.

    Each derivative check is evaluated on the states of ``moved_states``
    (one row reconstruction each) and held to its propagated error,
    except ``H-def`` and ``H-from-aux``, which read the ln D_n and S_n
    first partials; ``delta-nonneg`` asks Delta to exceed 10 times that
    error (``reports.sign_check``).
    """
    point, prec = grid.params, grid.prec
    state = hankel_sigma(n, grid)
    ps = _label(grid, n)
    with mp.workdps(prec.work_dps):
        t1, t2 = to_mpf(point.t1), to_mpf(point.t2)
        tab = grid.bundle()
        row = aux_row(tab, n)
        (R, Rs), (r, rs) = row.R, row.r
        # Delta = (r(r-t1)/R + beta R)^2 >= 0, from integral-route data
        ident = (r * (r - t1) / R + tab.beta(n) * R) ** 2
        D = partials(grid, lambda v: v.log_hankel(n), ("1", "2"))
        S = partials(grid, lambda v: aux_row(v, n).Rsum, ("1", "2"))
        states = moved_states(state)
        recs = [reconstruct_aux_from_H(s) for s in states]

        nn = n * (n + to_mpf(point.alpha))
        return [
            # independent definition route: (t1 d1 + 2 t2 d2) ln D_n
            propagated_check("H-def", [state.Hn - (t1 * v["1"] + 2 * t2 * v["2"])
                                       for v in moved(D)], ps),
            Check("H-p-shift", abs(state.Hn - nn - tab.p(n)), to_mpf(prec.half_eps), ps),
            propagated_check("dH-t1", [s.r[0] - r for s in states], ps),
            propagated_check("dH-t2", [s.r[1] - rs for s in states], ps),
            propagated_check("delta-identity", [s.Delta - ident for s in states], ps),
            sign_check("delta-nonneg", [state.Delta], to_mpf(prec.half_eps), ps,
                       [propagated([s.Delta for s in states])]),
            propagated_check("reconstruct-R", [rec.R[0] - R for rec in recs], ps),
            propagated_check("reconstruct-Rstar", [rec.R[1] - Rs for rec in recs], ps),
            propagated_check("reconstruct-r", [rec.r[0] - r for rec in recs], ps),
            propagated_check("reconstruct-rstar", [rec.r[1] - rs for rec in recs], ps),
            propagated_check("H-from-aux", [h_from_aux_residual(state, row, (v["1"], v["2"]))
                                            for v in moved(S)], ps),
            propagated_check("sigma-pde", [sigma_pde_residual(s) for s in states], ps),
        ]


# --------------------------------------------------------------------------
# small-t2 continuations
# --------------------------------------------------------------------------

def verify_t2_zero_reduction(n: int, grid: StencilGrid):
    """Continuation of the coupled system onto the single-variable ODE

    R'' = (R')^2/R - R'/t1 + R^3/t1^2 + (2n+1+alpha) R^2/t1^2
          + alpha/t1 - 1/R,   derivatives in t1 at frozen small t2.

    On grid, whose point has a small t2 = eps, computes the residual of the
    reduced ODE with R_n', R_n'' taken by FD in t1 only, normalized by
    (1 + max term magnitude) like the other PDE checks, as (residual,
    error propagated from R_n', R_n'').  Residuals decay like O(eps);
    callers assert the decay rate over a sequence of grids.
    """
    with mp.workdps(grid.prec.work_dps):
        t1m = to_mpf(grid.params.t1)
        am = to_mpf(grid.params.alpha)
        Rx = lambda v: aux_row(v, n).R[0]
        R = Rx(grid.bundle())

        def ode(v):
            dR, d2R = v["1"], v["11"]
            return normalized([
                d2R,
                -dR ** 2 / R,
                dR / t1m,
                -R ** 3 / t1m ** 2,
                -(2 * n + 1 + am) * R ** 2 / t1m ** 2,
                -am / t1m,
                1 / R,
            ])

        values = [ode(v) for v in moved(partials(grid, Rx, ("1", "11")))]
        return abs(values[0]), propagated(values)


def sigma_reduction_residual(n: int, grid: StencilGrid):
    """Residual of the t2-independent reduction of the sixth-degree PDE.

    With ' = d/dt1 on grid, whose point has a small t2 = eps, the
    curly-bracket factor
    (t1 H'')^2 + 4 (t1 H' - H + n(n+alpha)) H'(H'-1) - ((2n+alpha)H' - n)^2
    tends to 0 as eps -> 0+.
    """
    with mp.workdps(grid.prec.work_dps):
        t1m = to_mpf(grid.params.t1)
        am = to_mpf(grid.params.alpha)
        nn = n * (n + am)
        H = lambda v: nn + v.p(n)
        Hn = H(grid.bundle())
        (dH, _), (d2H, _) = partials(grid, H, ("1", "11")).values()
        val = ((t1m * d2H) ** 2
               + 4 * (t1m * dH - Hn + nn) * dH * (dH - 1)
               - ((2 * n + am) * dH - n) ** 2)
        scale = 1 + abs((t1m * d2H) ** 2) + abs(((2 * n + am) * dH - n) ** 2)
        return abs(val) / scale
