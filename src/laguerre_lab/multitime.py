"""Three-parameter analog and general-m checks on the one ladder layer.

The auxiliaries, ladder coefficients, difference system and closed-form
recurrence coefficients live in ``ladder`` for every m; for m = 3 the
row is (R, R*, R^; r, r*, r^).  Checked here for m = 3: alpha_n and
beta_n from the row, the six derivative relations and the Toda family
(written once for any m in ``calculus``), the six-equation Riccati
system and the reconstruction of the whole row from H_n derivative data
(closed forms written once, for m = 3, in ``calculus``, where m = 2
runs them with rho, R^_n and r^_n set to 0); the reconstruction
numerically certifies the pipeline behind the (unwritten) m = 3 PDE.
Each check takes (n, grid) and reads its point and precision from the
grid.

For general m (2 <= m <= 5) the S1 family, the two stated S2'
coefficient identities, the H_n derivative relations and the pointwise
S1/S2' residuals of the assembled ladder coefficients are checked.  The
row identities (alpha_n, beta_n, S1, S2') come from
``ladder.row_residuals``, the same copy the m = 2 ladder suite reads.
"""

from __future__ import annotations

from mpmath import mp

from .calculus import (
    StencilGrid,
    _label,
    axis_checks,
    derivative_relations,
    hankel_sigma,
    moved_states,
    propagated_check,
    reconstruct_aux_from_H,
    riccati_checks,
    table_bundle_builder,
    toda_checks,
)
from .errors import DomainError
from .ladder import (
    aux_integrals,
    aux_row,
    compatibility_residuals,
    ladder_A_direct,  # noqa: F401  (looked up here by perfbench/tracer.py)
    row_residuals,
)
from .params import to_mpf
from .reports import Check

# earlier names of the merged functions, looked up here by perfbench/tracer.py
aux_integrals_m = aux_integrals
row_bundle_builder = table_bundle_builder


def verify_identities_3(n: int, grid: StencilGrid):
    """m = 3 checks at index n: closed-form alpha_n/beta_n, the six
    derivative relations, the Toda family, and the six Riccati equations."""
    point, prec = grid.params, grid.prec
    if point.m != 3:
        raise DomainError("need m = 3")
    out = []
    ps = _label(grid, n)
    with mp.workdps(prec.work_dps):
        tab = grid.bundle()
        res = row_residuals(tab, [aux_row(tab, k) for k in range(n + 2)], n, prec)
        out.append(Check("alpha-aux-3", res.alpha, to_mpf(prec.half_eps), ps))
        if n >= 1:
            out.append(Check("beta-aux-3", res.beta, to_mpf(prec.half_eps), ps))

        rel = derivative_relations(n, grid, ("dlnh", "dp"), "-3")
        for pair in zip(rel[:3], rel[3:]):
            out.extend(pair)
        out.extend(toda_checks(n, grid, "-3"))

        for pair in zip(*riccati_checks(n, grid, "-3")):
            out.extend(pair)
    return out


def h3_reconstruction(n: int, grid: StencilGrid):
    """Reconstruct the whole m = 3 row from H_n derivative data
    (``calculus.reconstruct_aux_from_H``, the same inversion as m = 2)
    and compare with the integral route, each component held to 10 times
    its error propagated from the H_n partials; certifies the substitution
    pipeline that would produce the (undisplayed) m = 3 PDE for H_n."""
    point, prec = grid.params, grid.prec
    if point.m != 3:
        raise DomainError("need m = 3")
    ps = _label(grid, n)
    recs = [reconstruct_aux_from_H(s) for s in moved_states(hankel_sigma(n, grid))]
    with mp.workdps(prec.work_dps):
        want = aux_row(grid.bundle(), n)
        return [propagated_check(cid, [(rec.R + rec.r)[k] - (want.R + want.r)[k]
                                       for rec in recs], ps)
                for k, cid in enumerate(("h3-reconstruct-R", "h3-reconstruct-Rstar",
                                         "h3-reconstruct-Rhat", "h3-reconstruct-r",
                                         "h3-reconstruct-rstar", "h3-reconstruct-rhat"))]


# --------------------------------------------------------------------------
# general m
# --------------------------------------------------------------------------

def verify_S1_S2_general_m(n: int, grid: StencilGrid):
    """S1-family and the stated S2' coefficient identities for general m,
    plus the H_n derivative relations and pointwise S1/S2' residuals of
    the assembled ladder coefficients at z = 0.7, 2, 5."""
    point, prec = grid.params, grid.prec
    m = point.m
    if m < 2 or m > 5:
        raise DomainError("general-m checks cover 2 <= m <= 5")
    out = []
    ps = _label(grid, n)
    with mp.workdps(prec.work_dps):
        half = to_mpf(prec.half_eps)
        alpha = to_mpf(point.alpha)
        tab = grid.bundle()
        rows = [aux_row(tab, k) for k in range(n + 2)]
        res = row_residuals(tab, rows, n, prec)

        out.append(Check("alpha-aux-m", res.alpha, half, ps))
        out.append(Check("s1-anchor-m", res.s1[0], half, ps))
        out.extend(Check(f"s1-chain-m-{j}", v, half, ps)
                   for j, v in enumerate(res.s1[1:], start=2))

        srr = mp.fsum(rows[k].Rsum for k in range(n))
        out.append(Check("beta-sum-m",
                         abs(tab.beta(n) - (n * (n + alpha) + srr + rows[n].rsum)),
                         half, ps))
        if n >= 1:
            out.append(Check("s2p-product-m", res.s2p, half, ps))

        nn = n * (n + alpha)
        out.extend(axis_checks(n, grid, "dH-t{}-m", lambda v: nn + v.p(n), rows[n].r))

        # pointwise compatibility of the assembled coefficients
        for zs in ("0.7", "2", "5"):
            s1, _, s2p = compatibility_residuals(tab, rows, n, zs)
            out.append(Check("s1-point-m", s1, half, f"{ps};z={zs}"))
            out.append(Check("s2p-point-m", s2p, half, f"{ps};z={zs}"))
    return out
