"""Double-scaling sweeps s1 = 2n t1, s2 = 4n^2 t2 and their limits.

A ``ScaledGrid`` holds one t-stencil grid (``calculus.StencilGrid``) per
n, centred at the exactly-rational point (t1, t2) = (s1/2n, s2/4n^2)
with per-n precision 20 + 4n digits.  The sequences n R_n, n R_n*, r_n,
r_n*, H_n are read from each grid's centre node, whose aux row
(``ladder.aux_row``) the stencil derivatives share, and
extrapolated to 1/n = 0 by the stencil's Neville step
(``calculus.extrapolate`` on x = 1/n), one ``Scaled`` per quantity; the
limiting identities and PDEs are checked on the extrapolated values.
Derivatives in s are taken at finite n on the same grids and
extrapolated in 1/n the same way (``_extrapolated``); this is the only
derivative route.  Reported errors are the last Neville correction plus
the stencil error.  The limiting identities and PDEs read one dict of
(value, error) pairs, limits and the ``calculus.partials`` of U and H
("dU1", .., "dH12"), and are held to 10 times their error propagated
over ``calculus.moved`` inputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from mpmath import mp, mpf

from .calculus import (StencilGrid, extrapolate, moved, normalized, partials, propagated,
                       propagated_check, table_bundle_builder)
from .errors import DomainError, SingularAux
from .ladder import aux_row
from .orthopoly import digits_for
from .params import PrecisionContext, WeightParams, to_fraction, to_mpf
from .reports import sign_check

#: the scaled quantities: n R_n, n R_n*, r_n, r_n*, H_n
QUANTITIES = ("R", "Rstar", "r", "rstar", "H")


class Scaled(NamedTuple):
    """One scaled quantity: its per-n sequence, 1/n limit and error."""

    seq: tuple
    limit: mpf
    err: mpf


def digits_for_scaling(n: int) -> int:
    """Table digits at scaling index n: ``orthopoly.digits_for(n)``, at
    least the 50-digit floor."""
    return max(50, digits_for(n))


def _extrapolated(grid: "ScaledGrid", at_n) -> list:
    """The 1/n limits, one ``Scaled`` per entry of the tuple at_n(n, g)
    returns for each n of grid and its stencil grid g there: at_n runs at
    g's precision, the extrapolation at grid's."""
    per_n = []
    for n, g in grid.grids.items():
        with mp.workdps(g.prec.work_dps):
            per_n.append(at_n(n, g))
    xs = [Fraction(1, n) for n in grid.n_list]
    with mp.workdps(grid.prec.work_dps):
        return [Scaled(seq, *extrapolate(xs, seq)) for seq in zip(*per_n)]


def scaled_sequences(grid: "ScaledGrid") -> dict:
    """{quantity: ``Scaled``} of grid, by ``QUANTITIES``: n R_n, n R_n*,
    r_n, r_n* and H_n read from the centre node of each per-n stencil
    grid, then extrapolated in 1/n."""
    def at_n(n, g):
        node = g.bundle()
        a = node.row
        return (n * a.R[0], n * a.R[1], a.r[0], a.r[1], n * (n + to_mpf(grid.alpha)) + node.p)

    return dict(zip(QUANTITIES, _extrapolated(grid, at_n)))


def convergence_slope(grid: "ScaledGrid") -> mpf:
    """Least-squares log-log slope of |x_n - R| against n, x_n = n R_n
    (expect ~ -1), over grid's n_list."""
    R = grid.at()["R"]
    with mp.workdps(60):
        pts = [
            (mp.log(n), mp.log(abs(x - R.limit)))
            for n, x in zip(grid.n_list, R.seq)
            if abs(x - R.limit) > 0
        ]
        k = len(pts)
        sx = mp.fsum(p[0] for p in pts)
        sy = mp.fsum(p[1] for p in pts)
        sxx = mp.fsum(p[0] ** 2 for p in pts)
        sxy = mp.fsum(p[0] * p[1] for p in pts)
        return (k * sxy - sx * sy) / (k * sxx - sx ** 2)


class _Node:
    """A stencil node of a ``ScaledGrid`` at index n: ``p``, p(n) taken
    when the node is built, and ``row``, the aux row at n, read on first
    use.  The node holds its depth-n table only until the row is read; a
    node whose row is never read computes none."""

    def __init__(self, table, n: int):
        self.p = table.p(n)
        self._table, self._n, self._row = table, n, None

    @property
    def row(self):
        if self._row is None:
            self._row = aux_row(self._table, self._n)
            self._table = None
        return self._row


class ScaledGrid:
    """Extrapolated limits at one (s1, s2) (``at``, memoized) and their
    derivatives in s, taken at finite n on one t-stencil grid per n and
    extrapolated in 1/n like the values.  Needs s1 != 0, s2 > 0 and an
    increasing n_list with min >= 4; the grid at n, ``grids[n]``, sits at
    (alpha, (s1/2n, s2/4n^2)) with ``digits_for_scaling(n)`` digits, so
    the shrinking t stay resolved.  Its nodes are ``_Node``s: the grid
    reads p(n) and the aux row at n from each, and keeps no table once
    the rows are read."""

    def __init__(self, s1, s2, n_list, prec: PrecisionContext, alpha="0.5",
                 cache_dir=None):
        self.s1, self.s2 = to_fraction(s1), to_fraction(s2)
        self.alpha = to_fraction(alpha)
        self.n_list = tuple(n_list)
        if self.s1 == 0 or not self.s2 > 0:
            raise DomainError("need s1 != 0, s2 > 0")
        if len(self.n_list) < 2 or any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise DomainError("n_list must be increasing with at least two entries")
        if self.n_list[0] < 4:
            raise DomainError("n_list entries must be >= 4")
        self.prec = prec
        self._seqs = None
        self.grids = {}
        for n in self.n_list:
            prec_n = PrecisionContext(digits=digits_for_scaling(n))
            build = table_bundle_builder(n, prec_n, cache_dir)
            self.grids[n] = StencilGrid(
                WeightParams(self.alpha, (self.s1 / (2 * n), self.s2 / (4 * n * n))), prec_n,
                lambda params, anchor, build=build, n=n: _Node(build(params, anchor), n), 2)

    def at(self) -> dict:
        """``scaled_sequences`` of the grid."""
        if self._seqs is None:
            self._seqs = scaled_sequences(self)
        return self._seqs

    def _derivative(self, kind: str, quantity: str, axes):
        """(1/n limit of the scaled t-derivative of H_n or U_n, error): the
        ``StencilGrid`` method kind, one axis per differentiation; the
        error is the Neville correction plus the largest scaled stencil error."""
        errors = []

        def at_n(n, g):
            # H_n = n(n + alpha) + p(n), whose constant has no t-derivative
            extract = ((lambda v: v.p) if quantity == "H"
                       else (lambda v: n * (v.row.R[0] + v.row.R[1])))
            d, e = getattr(g, kind)(extract, *sorted(set(axes)))
            # d/ds1 = (2n)^-1 d/dt1, d/ds2 = (2n)^-2 d/dt2
            scale = mpf(1) / (2 * n) ** (len(axes) + sum(axes))
            errors.append(scale * e)
            return (scale * d,)

        (value,) = _extrapolated(self, at_n)
        with mp.workdps(self.prec.work_dps):
            return value.limit, value.err + max(errors)

    def first(self, quantity: str, axis: int):
        """d/ds_axis of quantity ("H" or "U"), with its error."""
        return self._derivative("first", quantity, (axis,))

    def second(self, quantity: str, axis: int):
        return self._derivative("second", quantity, (axis, axis))

    def mixed(self, quantity: str, ax1: int, ax2: int):
        return self._derivative("mixed", quantity, (ax1, ax2))


def verify_limit_identities(grid: ScaledGrid):
    """R = -r, R* = -r*, R = -s1 dH/ds1, R* = -2 s2 dH/ds2 by
    ``propagated_check``; dH/ds1 < 0 and sgn(R*/R) = sgn(s1) by
    ``reports.sign_check``, with dH/ds1's error and the error of R*/R
    propagated from R and R*."""
    ps = f"(s1,s2)=({grid.s1},{grid.s2})"
    with mp.workdps(grid.prec.work_dps):
        s = grid.at()
        s1m, s2m = to_mpf(grid.s1), to_mpf(grid.s2)
        x = {q: (s[q].limit, s[q].err) for q in ("R", "Rstar", "r", "rstar")}
        x.update(("dH" + k, p) for k, p in partials(grid, "H", ("1", "2")).items())
        out = [propagated_check(cid, [f(v) for v in moved(x)], ps) for cid, f in (
            ("scaled-R-plus-r", lambda v: v["R"] + v["r"]),
            ("scaled-Rstar-plus-rstar", lambda v: v["Rstar"] + v["rstar"]),
            ("limit-R-identity", lambda v: v["R"] + s1m * v["dH1"]),
            ("limit-Rstar-identity", lambda v: v["Rstar"] + 2 * s2m * v["dH2"]))]
        half = to_mpf(grid.prec.half_eps)
        dH1, e1 = x["dH1"]
        out.append(sign_check("dH-ds1-sign", [-dH1], half, ps, [e1]))
        V = [v["Rstar"] / v["R"] for v in moved({q: x[q] for q in ("R", "Rstar")})]
        out.append(sign_check("scaled-V-sign", [mp.sign(s1m) * V[0]], half, ps, [propagated(V)]))
    return out


def verify_limiting_pdes(grid: ScaledGrid):
    """Residuals of the two limiting coupled PDEs for U = R + R*, the
    closed H(R, R*) form, its H-derivative substitution variant, and
    the limiting second-order second-degree PDE for H.

    Each residual is a function of R, R*, H and the ten first and second
    partials of U and H, held to 10x its propagated error.
    """
    ps = f"(s1,s2)=({grid.s1},{grid.s2})"
    with mp.workdps(grid.prec.work_dps):
        s = grid.at()
        alpha = to_mpf(grid.alpha)
        s1, s2 = to_mpf(grid.s1), to_mpf(grid.s2)
        if abs(s["R"].limit) < mpf(10) ** -8:
            raise SingularAux("extrapolated R too small on the grid")
        x = {q: (s[q].limit, s[q].err) for q in ("R", "Rstar", "H")}
        for q in ("U", "H"):
            x.update((f"d{q}{k}", p)
                     for k, p in partials(grid, q, ("1", "2", "11", "22", "12")).items())

        def pde1(v):
            R, Rstar, dU1, dU2, dU11, dU12 = (v[k] for k in "R Rstar dU1 dU2 dU11 dU12".split())
            return normalized([
                s1 ** 2 * dU11,
                2 * s1 * s2 * dU12,
                2 * s1 * s2 * ((s1 * Rstar / (2 * s2 * R)) * dU1 - dU2) ** 2,
                s1 * dU1 * (1 - s1 * dU1 / R),
                -2 * R * (R + Rstar),
                -(s1 ** 3 / (8 * s2)) * (Rstar / R) ** 2,
                -alpha / 2 * s1,
                s1 ** 2 / (4 * R),
            ])

        def pde2(v):
            R, Rstar, dU1, dU2, dU22, dU12 = (v[k] for k in "R Rstar dU1 dU2 dU22 dU12".split())
            V = Rstar / R
            return normalized([
                4 * s2 ** 2 * dU22,
                2 * s1 * s2 * dU12,
                (s1 / (2 * s2)) * V * (V * s1 * dU1 - 2 * s2 * dU2) ** 2,
                -(2 * s1 * s2 / R) * dU1 * dU2,
                V * s1 * dU1,
                2 * s2 * dU2,
                -2 * Rstar * (R + Rstar),
                (2 * s2 / s1) * R,
                -s1 * V * ((s1 ** 2 / (8 * s2)) * V ** 2 + alpha / 2),
            ])

        def expr(v):
            R, Rstar, dU1, dU2, H = (v[k] for k in "R Rstar dU1 dU2 H".split())
            return (
                -(s1 * s2 / R) * ((s1 * Rstar / (2 * s2 * R)) * dU1 - dU2) ** 2
                + (s1 * dU1 / R - 1) ** 2 / 4
                - (R + Rstar)
                + s1 ** 3 * Rstar ** 2 / (16 * s2 * R ** 3)
                - (s1 / (2 * R) - alpha) ** 2 / 4
                - H
            )

        def subst(v):
            # R -> -s1 dH1, R* -> -2 s2 dH2, with d(U)/ds from second
            # derivatives of H
            H, dH1, dH2, dH11, dH22, dH12 = (v[k] for k in "H dH1 dH2 dH11 dH22 dH12".split())
            return expr({"R": -s1 * dH1, "Rstar": -2 * s2 * dH2, "H": H,
                         "dU1": -(dH1 + s1 * dH11 + 2 * s2 * dH12),
                         "dU2": -(s1 * dH12 + 2 * dH2 + 2 * s2 * dH22)})

        def h_pde(v):
            H, dH1, dH2, dH11, dH22, dH12 = (v[k] for k in "H dH1 dH2 dH11 dH22 dH12".split())
            return normalized([
                4 * s2 * (dH2 * (s1 * dH11 + 2 * s2 * dH12)
                          - dH1 * (2 * s2 * dH22 + s1 * dH12 + dH2)) ** 2,
                dH1 * (s1 * dH11 + 2 * s2 * dH12) ** 2,
                4 * dH1 ** 3 * (s1 * dH1 + 2 * s2 * dH2 - H),
                -dH1 * (alpha * dH1 + mpf(1) / 2) ** 2,
                -s2 * dH2 ** 2,
            ])

        values = moved(x)
        return [propagated_check(cid, [f(v) for v in values], ps)
                for cid, f in (("limit-pde-1", pde1), ("limit-pde-2", pde2),
                               ("limit-H-expr", expr), ("limit-H-subst", subst),
                               ("limit-H-pde", h_pde))]


def reduced_limit_residual(grid: ScaledGrid):
    """Residual of the s2 -> 0 reduction
    (s1 H'')^2 + 4 (H')^2 (s1 H' - H) - (alpha H' + 1/2)^2 with ' = d/ds1
    on grid, a ``ScaledGrid`` at small s2, normalized by (1 + max term);
    decays as s2 -> 0+ at s1 > 0.  At s1 < 0 it has no limit: the weight
    x^alpha e^(-x + |t1|/x) is not integrable at 0 once t2 -> 0.
    """
    with mp.workdps(grid.prec.work_dps):
        s1m = to_mpf(grid.s1)
        am = to_mpf(grid.alpha)
        H = grid.at()["H"].limit
        (dH1, _), (dH11, _) = partials(grid, "H", ("1", "11")).values()
        return abs(normalized([
            (s1m * dH11) ** 2,
            4 * dH1 ** 2 * (s1m * dH1 - H),
            -(am * dH1 + mpf(1) / 2) ** 2,
        ]))
