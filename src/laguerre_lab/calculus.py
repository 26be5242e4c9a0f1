"""Finite-difference calculus in (t1, t2) and the differential identity checks.

Derivatives of table/auxiliary quantities are central differences on a
dyadic stencil with Richardson extrapolation; every stencil node is a
recurrence table at an exactly-rational shifted parameter point,
memoized per grid.  Only the grid's centre is integrated: its seed
moments (the grid's anchor) are shifted to each node by the exact
parameter Taylor series, and a node is integrated only where that
shift's error bound is too wide (``quadrature.shift_seeds``); the
Pearson recurrence and Gram-Schmidt then run per node as before.
Estimated derivative errors (extrapolation spread plus a roundoff floor)
propagate into each check's tolerance, so the residual contracts below
are self-calibrating: an identity passes when its residual is at the
noise level of the derivatives that enter it.

Checked here (m = 2): the shifted seeds against quadrature; the
log-derivative relations of h_n, beta_n, p(n), alpha_n; the
two-variable Toda equations and the second-order molecule equation; the
Riccati system; the coupled second-order PDEs for S_n = R_n + R_n*; the
sigma-function layer H_n (definition consistency, auxiliary
reconstruction with the sgn(t1) branch, the second-order sixth-degree
PDE); and the small-t2 continuation onto the one-variable ordinary
differential equation for R_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .errors import (
    BranchAmbiguity,
    DomainError,
    NegativeDiscriminant,
    StencilOutOfDomain,
)
from .ladder import AuxQuadruple, aux_array
from .params import PrecisionContext, WeightParams, to_mpf
from .quadrature import SeedAnchor, shift_seeds
from .reports import Check

AXES = {"t1": 0, "t2": 1, "t3": 2}


@dataclass(frozen=True)
class DerivativeStencil:
    """Central-difference policy: accuracy order, relative step, levels."""

    order: int = 4
    rel_step: Fraction = None
    richardson_levels: int = 2

    def __post_init__(self):
        if self.order not in (2, 4):
            raise DomainError("stencil order must be 2 or 4")
        if self.richardson_levels < 1:
            raise DomainError("richardson_levels must be >= 1")
        if self.rel_step is not None:
            from .params import to_fraction

            object.__setattr__(self, "rel_step", to_fraction(self.rel_step))

    def step(self, prec: PrecisionContext) -> Fraction:
        rel = self.rel_step if self.rel_step is not None else prec.fd_rel_step
        if not Fraction(1, 10 ** (prec.digits // 2)) < rel < Fraction(1, 1000):
            raise DomainError(f"rel_step {rel} outside (10^-P/2, 10^-3)")
        return rel


@dataclass(frozen=True)
class TableBundle:
    """Recurrence table plus the auxiliary quadruples at one point."""

    table: object
    aux: tuple


def table_bundle_builder(N: int, prec: PrecisionContext, cache_dir=None):
    """Builder for stencil grids: (params, anchor) -> TableBundle of depth N.

    Tables come through the decimal-string cache, so repeated stencil
    evaluations at the same exact rational nodes are read, not rebuilt;
    a build takes its seeds from the grid's anchor.
    """

    def build(params: WeightParams, anchor: SeedAnchor) -> TableBundle:
        from .cache import cached_recurrence_table

        tab = cached_recurrence_table(params, N, prec, cache_dir=cache_dir, anchor=anchor)
        return TableBundle(tab, tuple(aux_array(tab, N)))

    return build


def _richardson(seq, p, gain=2):
    """Neville extrapolation of step-halved estimates with error h^p, h^(p+gain), ...

    Returns (value, spread); spread is the last correction size, the
    usual a-posteriori error estimate.
    """
    rows = [list(seq)]
    k = 1
    while len(rows[-1]) > 1:
        prev = rows[-1]
        fac = mpf(2) ** (p + gain * (k - 1)) - 1
        rows.append([prev[i + 1] + (prev[i + 1] - prev[i]) / fac for i in range(len(prev) - 1)])
        k += 1
    best = rows[-1][0]
    if len(rows) >= 2:
        spread = abs(best - rows[-2][-1])
    else:
        spread = mpf(0)
    return best, spread


class StencilGrid:
    """Memoized bundle evaluations on the FD stencil around one point.

    Offsets are exact rationals (multiples of the per-axis step), so the
    shifted parameter points are exact and reproducible; nodes that
    would leave the admissible region raise StencilOutOfDomain.

    The grid owns the anchor: its centre point, whose seed moments are
    integrated once per precision, when a table is first built.  The
    builder is called as builder(params, anchor); the bundle builders
    hand the anchor to the table cache.
    """

    def __init__(self, params: WeightParams, prec: PrecisionContext,
                 stencil: DerivativeStencil, builder):
        self.params = params
        self.prec = prec
        self.stencil = stencil
        self.anchor = SeedAnchor(params)
        self._builder = builder
        rel = stencil.step(prec)
        self._h = tuple(rel * abs(t) for t in params.t)
        self._memo = {}

    def step(self, axis: int) -> Fraction:
        h = self._h[axis]
        if h == 0:
            raise DomainError(f"axis {axis} has zero parameter; no relative step")
        return h

    def params_at(self, offsets) -> WeightParams:
        t = list(self.params.t)
        for ax, j in offsets:
            t[ax] = t[ax] + j * self._h[ax]
            if (self.params.t[ax] > 0) != (t[ax] > 0):
                raise StencilOutOfDomain(
                    f"node t_{ax + 1} = {t[ax]} leaves the admissible region")
        return self.params.with_t(t)

    def bundle(self, offsets=()):
        key = tuple(sorted(offsets))
        if key not in self._memo:
            self._memo[key] = self._builder(self.params_at(key), self.anchor)
        return self._memo[key]

    def scalar(self, extract, offsets=()) -> mpf:
        return extract(self.bundle(offsets))

    # -- derivative estimators (inside the caller's working precision) --

    def _vals(self, extract, axis, js):
        return {j: self.scalar(extract, ((axis, j),) if j else ()) for j in js}

    def _noise(self, vals):
        scale = max(abs(v) for v in vals.values())
        return to_mpf(self.prec.eps) * (scale + 1)

    def first(self, extract, axis: int):
        """(d/dt_axis extract, error estimate)."""
        st = self.stencil
        h0 = self.step(axis)
        levels = []
        js_all = set()
        for lev in range(st.richardson_levels):
            s = Fraction(h0, 2 ** lev)
            if st.order == 2:
                js = [Fraction(j) * s / h0 for j in (-1, 1)]
            else:
                js = [Fraction(j) * s / h0 for j in (-2, -1, 1, 2)]
            js_all.update(js)
        vals = self._vals(extract, axis, sorted(js_all))
        hm = to_mpf(h0)
        for lev in range(st.richardson_levels):
            q = Fraction(1, 2 ** lev)
            s = hm * to_mpf(q)
            if st.order == 2:
                d = (vals[q] - vals[-q]) / (2 * s)
            else:
                d = (-vals[2 * q] + 8 * vals[q] - 8 * vals[-q] + vals[-2 * q]) / (12 * s)
            levels.append(d)
        val, spread = _richardson(levels, st.order)
        err = spread + self._noise(vals) / (hm / 2 ** (st.richardson_levels - 1))
        return val, err

    def second(self, extract, axis: int):
        """(d^2/dt_axis^2 extract, error estimate)."""
        st = self.stencil
        h0 = self.step(axis)
        js_all = {Fraction(0)}
        for lev in range(st.richardson_levels):
            q = Fraction(1, 2 ** lev)
            js_all.update([-2 * q, -q, q, 2 * q] if st.order == 4 else [-q, q])
        vals = self._vals(extract, axis, sorted(js_all))
        hm = to_mpf(h0)
        levels = []
        for lev in range(st.richardson_levels):
            q = Fraction(1, 2 ** lev)
            s = hm * to_mpf(q)
            if st.order == 2:
                d = (vals[q] - 2 * vals[Fraction(0)] + vals[-q]) / (s * s)
            else:
                d = (-vals[2 * q] + 16 * vals[q] - 30 * vals[Fraction(0)]
                     + 16 * vals[-q] - vals[-2 * q]) / (12 * s * s)
            levels.append(d)
        val, spread = _richardson(levels, st.order)
        smin = hm / 2 ** (st.richardson_levels - 1)
        err = spread + 4 * self._noise(vals) / (smin * smin)
        return val, err

    def mixed(self, extract, ax1: int, ax2: int):
        """(d^2/dt_ax1 dt_ax2 extract, error estimate); 4-point cross base."""
        st = self.stencil
        h1, h2 = self.step(ax1), self.step(ax2)
        levels = []
        scale = mpf(0)
        for lev in range(st.richardson_levels):
            q = Fraction(1, 2 ** lev)
            corner = {}
            for s1 in (q, -q):
                for s2 in (q, -q):
                    v = self.scalar(extract, ((ax1, s1), (ax2, s2)))
                    corner[(s1, s2)] = v
                    scale = max(scale, abs(v))
            s1m, s2m = to_mpf(h1) * to_mpf(q), to_mpf(h2) * to_mpf(q)
            d = (corner[(q, q)] - corner[(q, -q)] - corner[(-q, q)] + corner[(-q, -q)]) / (
                4 * s1m * s2m)
            levels.append(d)
        val, spread = _richardson(levels, 2)
        s1m = to_mpf(h1) / 2 ** (st.richardson_levels - 1)
        s2m = to_mpf(h2) / 2 ** (st.richardson_levels - 1)
        err = spread + to_mpf(self.prec.eps) * (scale + 1) / (s1m * s2m)
        return val, err


def fd_partial(quantity, wrt, point: WeightParams, stencil: DerivativeStencil,
               prec: PrecisionContext):
    """Generic partial derivative of quantity(params) -> mpf at point.

    wrt is an axis name ("t1", "t2", "t3") for a first partial or a pair
    of names for a second/mixed partial.  Returns (value, error estimate).
    """
    grid = StencilGrid(point, prec, stencil, lambda p, anchor: quantity(p))
    with mp.workdps(prec.work_dps):
        ex = lambda v: v  # builder already returns the scalar
        if isinstance(wrt, str):
            return grid.first(ex, AXES[wrt])
        a, b = wrt
        if a == b:
            return grid.second(ex, AXES[a])
        return grid.mixed(ex, AXES[a], AXES[b])


# --------------------------------------------------------------------------
# identity checks; each returns a list of Check entries
# --------------------------------------------------------------------------

def verify_seed_shift(grid: StencilGrid, cache_dir=None) -> Check:
    """seed-shift: the centre's seeds shifted to the (+h, +h) corner against
    a direct ``moments`` sweep there.

    The centre's seeds are those of the grid's centre table; the direct
    sweep is the seeds of an integrated depth-0 table at the corner.  Both
    come through the cache, so a warm run integrates nothing.  Max
    relative deviation over k = -m..0, held to 10 quad_tol like
    ``moment-pearson``; a rejected shift fails the check.
    """
    from .cache import cached_recurrence_table

    centre = grid.bundle().table
    prec = centre.prec
    corner = grid.params_at(((0, 1), (1, 1)))
    direct = cached_recurrence_table(corner, 0, prec, cache_dir=cache_dir).moments
    seeds = {k: centre.moments[k] for k in range(-grid.params.m, 1)}
    shifted = shift_seeds(grid.params, seeds, corner, prec)
    with mp.workdps(prec.work_dps):
        dev = mp.inf if shifted is None else max(
            abs(v - direct[k]) / abs(direct[k]) for k, v in shifted.items())
        return Check("seed-shift", dev, 10 * to_mpf(prec.quad_tol),
                     _point_str(grid.params, "node=+h,+h"))


def _grid_m2(point, prec, stencil, n_max, grid=None):
    if grid is not None:
        return grid
    return StencilGrid(point, prec, stencil, table_bundle_builder(n_max + 1, prec))


def _point_str(params, extra=""):
    vals = ",".join(str(v) for v in (params.alpha,) + params.t)
    return f"({vals})" + (f";{extra}" if extra else "")


def verify_derivative_relations(n: int, point: WeightParams,
                                stencil: DerivativeStencil,
                                prec: PrecisionContext, grid=None):
    """Residuals of the first-order derivative relations at index n.

    t1 d/dt1 ln h_n = -R_n      2t2 d/dt2 ln h_n = -R_n*
    t1 d/dt1 p(n)   =  r_n      2t2 d/dt2 p(n)   =  r_n*
    plus the ln beta_n and alpha_n difference variants.
    """
    grid = _grid_m2(point, prec, stencil, n, grid)
    out = []
    ps = _point_str(point, f"n={n}")
    with mp.workdps(prec.work_dps):
        t1, t2 = to_mpf(point.t1), to_mpf(point.t2)
        b = grid.bundle()
        ax = b.aux

        def check(cid, deriv_scale, fd, exact):
            val, err = fd
            res = abs(deriv_scale * val - exact)
            tol = 10 * abs(deriv_scale) * err
            out.append(Check(cid, res, tol, ps))

        check("dlnh-t1", t1, grid.first(lambda v: mp.log(v.table.h[n]), 0), -ax[n].R)
        check("dlnh-t2", 2 * t2, grid.first(lambda v: mp.log(v.table.h[n]), 1), -ax[n].Rstar)
        check("dp-t1", t1, grid.first(lambda v: v.table.p(n), 0), ax[n].r)
        check("dp-t2", 2 * t2, grid.first(lambda v: v.table.p(n), 1), ax[n].rstar)
        if n >= 1:
            check("dlnbeta-t1", t1, grid.first(lambda v: mp.log(v.table.beta(n)), 0),
                  ax[n - 1].R - ax[n].R)
            check("dlnbeta-t2", 2 * t2, grid.first(lambda v: mp.log(v.table.beta(n)), 1),
                  ax[n - 1].Rstar - ax[n].Rstar)
        check("dalpha-t1", t1, grid.first(lambda v: v.table.alpha(n), 0),
              ax[n].r - ax[n + 1].r)
        check("dalpha-t2", 2 * t2, grid.first(lambda v: v.table.alpha(n), 1),
              ax[n].rstar - ax[n + 1].rstar)
    return out


def verify_toda(n: int, point: WeightParams, stencil: DerivativeStencil,
                prec: PrecisionContext, grid=None):
    """The two first-order Toda relations, the second-order molecule
    equation, and the ln D_n form of the beta_n identity."""
    if n < 1:
        raise DomainError("Toda checks need n >= 1")
    grid = _grid_m2(point, prec, stencil, n, grid)
    out = []
    ps = _point_str(point, f"n={n}")
    with mp.workdps(prec.work_dps):
        t1, t2 = to_mpf(point.t1), to_mpf(point.t2)
        tab = grid.bundle().table
        alpha = to_mpf(point.alpha)

        da1, e1 = grid.first(lambda v: v.table.alpha(n), 0)
        da2, e2 = grid.first(lambda v: v.table.alpha(n), 1)
        res = abs(t1 * da1 + 2 * t2 * da2 - (tab.beta(n) - tab.beta(n + 1) + tab.alpha(n)))
        out.append(Check("toda-alpha", res, 10 * (abs(t1) * e1 + 2 * t2 * e2), ps))

        lb = lambda v: mp.log(v.table.beta(n))
        db1, f1 = grid.first(lb, 0)
        db2, f2 = grid.first(lb, 1)
        res = abs(t1 * db1 + 2 * t2 * db2 - (tab.alpha(n - 1) - tab.alpha(n) + 2))
        out.append(Check("toda-beta", res, 10 * (abs(t1) * f1 + 2 * t2 * f2), ps))

        def second_order_operator(extract):
            d11, g11 = grid.second(extract, 0)
            d22, g22 = grid.second(extract, 1)
            d12, g12 = grid.mixed(extract, 0, 1)
            d2, g2 = grid.first(extract, 1)
            val = t1 ** 2 * d11 + 4 * t1 * t2 * d12 + 4 * t2 ** 2 * d22 + 2 * t2 * d2
            err = (t1 ** 2 * g11 + 4 * abs(t1) * t2 * g12 + 4 * t2 ** 2 * g22 + 2 * t2 * g2)
            return val, err

        lhs, err = second_order_operator(lb)
        rhs = tab.beta(n - 1) - 2 * tab.beta(n) + tab.beta(n + 1) - 2
        out.append(Check("toda-molecule", abs(lhs - rhs), 10 * err, ps))

        lhs, err = second_order_operator(lambda v: v.table.log_hankel(n))
        rhs = tab.beta(n) - n * (n + alpha)
        out.append(Check("toda-lndn", abs(lhs - rhs), 10 * err, ps))
    return out


def verify_riccati(n: int, point: WeightParams, stencil: DerivativeStencil,
                   prec: PrecisionContext, grid=None):
    """The four first-order Riccati-like equations for the quadruple."""
    grid = _grid_m2(point, prec, stencil, n, grid)
    out = []
    ps = _point_str(point, f"n={n}")
    with mp.workdps(prec.work_dps):
        t1, t2 = to_mpf(point.t1), to_mpf(point.t2)
        tau = to_mpf(point.tau)
        alpha = to_mpf(point.alpha)
        a = grid.bundle().aux[n]
        R, Rs, r, rs = a.as_tuple()

        S = lambda v: v.aux[n].R + v.aux[n].Rstar
        dS1, e1 = grid.first(S, 0)
        dS2, e2 = grid.first(S, 1)
        res = abs(t1 * dS1 - (2 * r + (2 * n + 1 + alpha + R + Rs) * R - t1))
        out.append(Check("riccati-S-t1", res, 10 * abs(t1) * e1, ps))
        res = abs(2 * t2 * dS2 - (2 * rs + (2 * n + 1 + alpha + R + Rs) * Rs - tau * R))
        out.append(Check("riccati-S-t2", res, 10 * 2 * t2 * e2, ps))

        theta = ((Rs / R * r - rs) * (Rs / R * (t1 - r) + rs) / tau
                 + (2 * n + alpha) * r - n * t1)
        low = lambda v: v.aux[n].r + v.aux[n].rstar
        dr1, f1 = grid.first(low, 0)
        dr2, f2 = grid.first(low, 1)
        res = abs(t1 * dr1 - (theta + r + 2 * r * (r - t1) / R))
        out.append(Check("riccati-r-t1", res, 10 * abs(t1) * f1, ps))
        res = abs(2 * t2 * dr2 - (Rs / R * theta + rs + rs * (2 * r - t1) / R))
        out.append(Check("riccati-r-t2", res, 10 * 2 * t2 * f2, ps))
    return out


def coupled_pde_residuals(n: int, point: WeightParams, stencil: DerivativeStencil,
                          prec: PrecisionContext, grid=None):
    """Normalized residuals of the coupled second-order PDE pair for
    S_n = R_n + R_n*, plus the propagated error bound.

    Returns (res1, res2, bound) with residuals normalized by
    (1 + max term magnitude).
    """
    grid = _grid_m2(point, prec, stencil, n, grid)
    with mp.workdps(prec.work_dps):
        t1, t2 = to_mpf(point.t1), to_mpf(point.t2)
        alpha = to_mpf(point.alpha)
        a = grid.bundle().aux[n]
        R, Rs = a.R, a.Rstar
        S = R + Rs
        T = Rs / R

        Sx = lambda v: v.aux[n].R + v.aux[n].Rstar
        Rx = lambda v: v.aux[n].R
        dS1, e1 = grid.first(Sx, 0)
        dS2, e2 = grid.first(Sx, 1)
        dS11, e11 = grid.second(Sx, 0)
        dS12, e12 = grid.mixed(Sx, 0, 1)
        dS22, e22 = grid.second(Sx, 1)
        dR1, g1 = grid.first(Rx, 0)
        dR2, g2 = grid.first(Rx, 1)

        terms1 = [
            t1 ** 2 * dS11,
            2 * t1 * t2 * dS12,
            t1 * t2 * (T / (2 * t2) * t1 * dS1 - dS2) ** 2,
            -(t1 ** 2 / R) * dS1 ** 2,
            (1 - Rs) * t1 * dS1,
            2 * t2 * (R * dS2 + dR1),
            -R * S * (S + 2 * n + 1 + alpha),
            t2 / t1 * R * (R - 2),
            -alpha * t1,
            t1 ** 2 / R,
            -(t1 ** 3 / (4 * t2)) * T ** 2,
        ]
        scale1 = 1 + max(abs(v) for v in terms1)
        res1 = abs(mp.fsum(terms1)) / scale1

        terms2 = [
            4 * t2 ** 2 * dS22,
            2 * t1 * t2 * dS12,
            (t1 / (4 * t2)) * T * (T * t1 * dS1 - 2 * t2 * dS2) ** 2,
            -(2 * t1 * t2 / R) * dS1 * dS2,
            dS1 * (t1 * (T + Rs) - 2 * t2),
            (1 - R) * 2 * t2 * dS2,
            (4 * t2 ** 2 / t1) * dR2,
            ((2 * t2 / t1) * R - Rs * S) * (S + 2 * n + 1 + alpha),
            t2 / t1 * R * (Rs + 2),
            -alpha * t1 * T,
            -(t1 ** 3 / (4 * t2)) * T ** 3,
        ]
        scale2 = 1 + max(abs(v) for v in terms2)
        res2 = abs(mp.fsum(terms2)) / scale2

        # first-derivative errors enter squared terms; keep a crude but
        # honest envelope dominated by the second-derivative spreads
        envelope = mp.fsum([
            t1 ** 2 * e11, 4 * abs(t1) * t2 * e12, 4 * t2 ** 2 * e22,
            (abs(t1) + 2 * t2) ** 2 * (e1 + e2) * (1 + abs(dS1) + abs(dS2)),
            2 * t2 * (g1 + abs(R) * e2), 4 * t2 ** 2 / abs(t1) * g2,
        ])
        bound = envelope / min(scale1, scale2)
        return res1, res2, bound


def verify_coupled_pdes(n, point, stencil, prec, grid=None):
    res1, res2, bound = coupled_pde_residuals(n, point, stencil, prec, grid)
    ps = _point_str(point, f"n={n}")
    tol = 100 * bound
    return [Check("pde-S-1", res1, tol, ps), Check("pde-S-2", res2, tol, ps)]


# --------------------------------------------------------------------------
# sigma-function layer
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaState:
    """H_n with its FD partials and the derived sigma-layer quantities."""

    n: int
    Hn: mpf
    S: mpf
    T: mpf
    Delta: mpf
    Theta: mpf
    Gamma: mpf
    dH1: mpf
    dH2: mpf
    dH11: mpf
    dH12: mpf
    dH22: mpf
    dS1: mpf
    dS2: mpf
    dS11: mpf
    dS12: mpf
    dS22: mpf
    beta: mpf
    dbeta1: mpf
    dbeta2: mpf
    r: mpf
    rstar: mpf
    fd_error: mpf
    def_residual: mpf  # |H_n - (t1 d1 + 2 t2 d2) ln D_n| by independent FD


def hankel_sigma(n: int, point: WeightParams, stencil: DerivativeStencil,
                 prec: PrecisionContext, grid=None) -> SigmaState:
    """Assemble H_n = n(n+alpha) + p(n) and its derivative data at point.

    beta_n and its t-partials come from the H_n derivative identities
    (so the state is a pure function of H_n data); the quadruple-based
    S, T, Theta ride along for cross-checks.
    """
    grid = _grid_m2(point, prec, stencil, n, grid)
    with mp.workdps(prec.work_dps):
        t1, t2 = to_mpf(point.t1), to_mpf(point.t2)
        alpha = to_mpf(point.alpha)
        tau = to_mpf(point.tau)
        nn = n * (n + alpha)

        H = lambda v: nn + v.table.p(n)
        b = grid.bundle()
        Hn = H(b)
        dH1, e1 = grid.first(H, 0)
        dH2, e2 = grid.first(H, 1)
        dH11, e11 = grid.second(H, 0)
        dH12, e12 = grid.mixed(H, 0, 1)
        dH22, e22 = grid.second(H, 1)

        # independent definition route: (t1 d1 + 2 t2 d2) ln D_n
        lnD = lambda v: v.table.log_hankel(n)
        dD1, q1 = grid.first(lnD, 0)
        dD2, q2 = grid.first(lnD, 1)
        def_res = abs(Hn - (t1 * dD1 + 2 * t2 * dD2))

        Sx = lambda v: v.aux[n].R + v.aux[n].Rstar
        dS1, f1 = grid.first(Sx, 0)
        dS2, f2 = grid.first(Sx, 1)
        dS11, f11 = grid.second(Sx, 0)
        dS12, f12 = grid.mixed(Sx, 0, 1)
        dS22, f22 = grid.second(Sx, 1)

        a = b.aux[n]
        R, Rs, r_int, rs_int = a.as_tuple()
        S = R + Rs
        T = Rs / R
        theta = ((Rs / R * r_int - rs_int) * (Rs / R * (t1 - r_int) + rs_int) / tau
                 + (2 * n + alpha) * r_int - n * t1)

        beta = t1 * dH1 + 2 * t2 * dH2 - Hn + nn
        dbeta1 = t1 * dH11 + 2 * t2 * dH12
        dbeta2 = t1 * dH12 + 2 * t2 * dH22 + dH2
        r = t1 * dH1
        rstar = 2 * t2 * dH2
        Delta = (t1 * dbeta1) ** 2 + 4 * beta * r * (r - t1)
        Gamma = dH1 * (dH1 - 1)

        fd_error = mp.fsum([e1, e2, e11, e12, e22, f1, f2, f11, f12, f22, q1, q2])
        return SigmaState(
            n=n, Hn=Hn, S=S, T=T, Delta=Delta, Theta=theta, Gamma=Gamma,
            dH1=dH1, dH2=dH2, dH11=dH11, dH12=dH12, dH22=dH22,
            dS1=dS1, dS2=dS2, dS11=dS11, dS12=dS12, dS22=dS22,
            beta=beta, dbeta1=dbeta1, dbeta2=dbeta2, r=r, rstar=rstar,
            fd_error=fd_error, def_residual=def_res,
        )


def reconstruct_aux_from_H(state: SigmaState, point: WeightParams,
                           prec: PrecisionContext) -> AuxQuadruple:
    """Invert the sigma layer: quadruple from H_n derivative data alone.

    R_n takes the sgn(t1) square-root branch; R_n* follows from the
    mixed-derivative relation.  Raises NegativeDiscriminant if the
    discriminant is below the negative noise threshold, BranchAmbiguity
    if it is too small to resolve the branch.
    """
    with mp.workdps(prec.work_dps):
        t1, t2 = to_mpf(point.t1), to_mpf(point.t2)
        if state.Delta < -to_mpf(prec.half_eps):
            raise NegativeDiscriminant(f"Delta = {state.Delta}")
        root = mp.sqrt(abs(state.Delta))
        if root <= state.fd_error:
            raise BranchAmbiguity("sqrt(Delta) is below the FD noise level")
        sgn = 1 if point.t1 > 0 else -1
        R = (-t1 * state.dbeta1 + sgn * root) / (2 * state.beta)
        Rstar = (
            state.rstar * (2 * state.r - t1)
            + t1 * t2 * state.dbeta1 * state.dbeta2 / state.beta
        ) / (sgn * root) - t2 * state.dbeta2 / state.beta
        return AuxQuadruple(R=R, Rstar=Rstar, r=state.r, rstar=state.rstar)


def sigma_pde_residual(state: SigmaState, point: WeightParams,
                       prec: PrecisionContext):
    """Normalized residual of the second-order sixth-degree PDE for H_n.

    Returns (residual, scale-free error bound).
    """
    with mp.workdps(prec.work_dps):
        t2 = to_mpf(point.t2)
        alpha = to_mpf(point.alpha)
        n = state.n
        b, db1, db2 = state.beta, state.dbeta1, state.dbeta2
        H1, H2 = state.dH1, state.dH2
        lhs = (db1 ** 2 + 4 * b * H1 * (H1 - 1)) ** 3
        inner = (
            db1 ** 2 * (-2 * t2 * H2 ** 2 + (2 * n + alpha) * H1 - n)
            + 2 * t2 * db2 * (db1 * H2 * (2 * H1 - 1) - db2 * H1 * (H1 - 1))
            + 2 * b * (2 * H1 * (H1 - 1) * ((2 * n + alpha) * H1 - n) + t2 * H2 ** 2)
        )
        rhs = inner ** 2
        scale = 1 + max(abs(lhs), abs(rhs))
        res = abs(lhs - rhs) / scale
        # the PDE is polynomial of combined degree six in the derivative
        # data; propagate the first-order perturbation of the dominant terms
        mag = 1 + max(abs(b), abs(db1), abs(db2), abs(H1), abs(H2), abs(t2))
        bound = 50 * mag ** 5 * state.fd_error / scale
        return res, bound


def h_from_aux_residual(n: int, state: SigmaState, point: WeightParams,
                        prec: PrecisionContext):
    """Residual of the closed form of H_n in terms of R_n, R_n* and the
    first derivatives of S_n (integral-route auxiliaries)."""
    with mp.workdps(prec.work_dps):
        t1, t2 = to_mpf(point.t1), to_mpf(point.t2)
        alpha = to_mpf(point.alpha)
        R = state.S / (1 + state.T)  # S = R(1+T)
        Rs = state.S - R
        S, dS1, dS2 = state.S, state.dS1, state.dS2
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
        res = abs(expr - state.Hn)
        mag = 1 + (abs(t1) ** 3 / t2) * (1 + abs(Rs / R)) ** 2 / abs(R)
        return res, 10 * mag * state.fd_error * (1 + abs(dS1) + abs(dS2))


def verify_sigma_pde(n: int, point: WeightParams, stencil: DerivativeStencil,
                     prec: PrecisionContext, grid=None):
    """Checks of the sigma layer at index n: definition consistency,
    H derivative relations, discriminant sign/identity, reconstruction,
    the closed H(R, R*) form, and the sixth-degree PDE."""
    grid = _grid_m2(point, prec, stencil, n, grid)
    state = hankel_sigma(n, point, stencil, prec, grid)
    out = []
    ps = _point_str(point, f"n={n}")
    with mp.workdps(prec.work_dps):
        t1 = to_mpf(point.t1)
        a = grid.bundle().aux[n]
        tab = grid.bundle().table
        ferr = 10 * state.fd_error

        out.append(Check("H-def", state.def_residual,
                         ferr * (abs(t1) + 2 * to_mpf(point.t2)), ps))
        nn = n * (n + to_mpf(point.alpha))
        out.append(Check("H-p-shift", abs(state.Hn - nn - tab.p(n)),
                         to_mpf(prec.half_eps), ps))
        out.append(Check("dH-t1", abs(state.r - a.r), ferr, ps))
        out.append(Check("dH-t2", abs(state.rstar - a.rstar), ferr, ps))

        # Delta = (r(r-t1)/R + beta R)^2 >= 0, from integral-route data
        ident = (a.r * (a.r - t1) / a.R + tab.beta(n) * a.R) ** 2
        out.append(Check("delta-identity", abs(state.Delta - ident),
                         ferr * (1 + abs(state.dbeta1) + abs(state.beta)) ** 2, ps))
        out.append(Check("delta-nonneg",
                         -state.Delta if state.Delta < 0 else mpf(0),
                         to_mpf(prec.half_eps) + ferr, ps))

        rec = reconstruct_aux_from_H(state, point, prec)
        out.append(Check("reconstruct-R", abs(rec.R - a.R), ferr, ps))
        out.append(Check("reconstruct-Rstar", abs(rec.Rstar - a.Rstar), ferr, ps))
        out.append(Check("reconstruct-r", abs(rec.r - a.r), ferr, ps))
        out.append(Check("reconstruct-rstar", abs(rec.rstar - a.rstar), ferr, ps))

        res, bound = h_from_aux_residual(n, state, point, prec)
        out.append(Check("H-from-aux", res, bound, ps))
        res, bound = sigma_pde_residual(state, point, prec)
        out.append(Check("sigma-pde", res, 100 * bound, ps))
    return out


# --------------------------------------------------------------------------
# small-t2 continuations
# --------------------------------------------------------------------------

def verify_t2_zero_reduction(n: int, t1, alpha, eps_list, prec: PrecisionContext,
                             stencil: DerivativeStencil = None, cache_dir=None):
    """Continuation of the coupled system onto the single-variable ODE

    R'' = (R')^2/R - R'/t1 + R^3/t1^2 + (2n+1+alpha) R^2/t1^2
          + alpha/t1 - 1/R,   derivatives in t1 at frozen small t2.

    For each eps in eps_list (frozen t2 = eps), computes the residual of
    the reduced ODE with R_n', R_n'' taken by FD in t1 only, normalized
    by (1 + max term magnitude) like the other PDE checks.  Residuals
    decay like O(eps); callers assert the decay rate.
    """
    stencil = stencil or DerivativeStencil()
    from .params import to_fraction

    results = []
    for eps in eps_list:
        eps = to_fraction(eps)
        if eps <= 0:
            raise DomainError("t2 continuation needs eps > 0")
        point = WeightParams(alpha, (to_fraction(t1), eps))
        grid = StencilGrid(point, prec, stencil, table_bundle_builder(n + 1, prec, cache_dir))
        with mp.workdps(prec.work_dps):
            t1m = to_mpf(point.t1)
            am = to_mpf(point.alpha)
            Rx = lambda v: v.aux[n].R
            R = grid.scalar(Rx)
            dR, e1 = grid.first(Rx, 0)
            d2R, e2 = grid.second(Rx, 0)
            terms = [
                d2R,
                -dR ** 2 / R,
                dR / t1m,
                -R ** 3 / t1m ** 2,
                -(2 * n + 1 + am) * R ** 2 / t1m ** 2,
                -am / t1m,
                1 / R,
            ]
            scale = 1 + max(abs(v) for v in terms)
            res = abs(mp.fsum(terms)) / scale
            err = (e2 + e1 * (1 + 2 * abs(dR / R) + 1 / abs(t1m))) / scale
            results.append((eps, res, err))
    return results


def sigma_reduction_residual(n: int, t1, alpha, eps, prec: PrecisionContext,
                             stencil: DerivativeStencil = None, cache_dir=None):
    """Residual of the t2-independent reduction of the sixth-degree PDE.

    With ' = d/dt1 at frozen t2 = eps, the curly-bracket factor
    (t1 H'')^2 + 4 (t1 H' - H + n(n+alpha)) H'(H'-1) - ((2n+alpha)H' - n)^2
    tends to 0 as eps -> 0+.
    """
    stencil = stencil or DerivativeStencil()
    from .params import to_fraction

    point = WeightParams(alpha, (to_fraction(t1), to_fraction(eps)))
    grid = StencilGrid(point, prec, stencil, table_bundle_builder(n + 1, prec, cache_dir))
    with mp.workdps(prec.work_dps):
        t1m = to_mpf(point.t1)
        am = to_mpf(point.alpha)
        nn = n * (n + am)
        H = lambda v: nn + v.table.p(n)
        Hn = grid.scalar(H)
        dH, _ = grid.first(H, 0)
        d2H, _ = grid.second(H, 0)
        val = ((t1m * d2H) ** 2
               + 4 * (t1m * dH - Hn + nn) * dH * (dH - 1)
               - ((2 * n + am) * dH - n) ** 2)
        scale = 1 + abs((t1m * d2H) ** 2) + abs(((2 * n + am) * dH - n) ** 2)
        return abs(val) / scale
