import pytest
from mpmath import mp, mpf

from laguerre_lab import calculus as ca
from laguerre_lab import ladder
from laguerre_lab import multitime as mt
from laguerre_lab.errors import BranchAmbiguity, NegativeDiscriminant
from laguerre_lab.ladder import AuxRow, aux_row
from laguerre_lab.params import PrecisionContext, WeightParams


@pytest.fixture(scope="module")
def prec():
    return PrecisionContext(digits=120)


@pytest.fixture(scope="module")
def grid(params_default, prec):
    return ca.StencilGrid(params_default, prec, ca.table_bundle_builder(4, prec))


@pytest.fixture(scope="module")
def grid_neg(params_neg_t1, prec):
    return ca.StencilGrid(params_neg_t1, prec, ca.table_bundle_builder(4, prec))


def test_sigma_state_basics(grid):
    st = ca.hankel_sigma(2, grid)
    byid = {c.id: c for c in ca.verify_sigma_pde(2, grid)}
    with mp.workdps(grid.prec.work_dps):
        # H_n = n(n+alpha) + p(n) held exactly in table arithmetic
        tab = grid.bundle()
        assert abs(st.Hn - 2 * (2 + mpf("0.5")) - tab.p(2)) < mpf(10) ** -100
        assert st.Delta >= 0
        assert byid["H-def"].residual < mpf(10) ** -50
        # T = R*/R has the sign of t1
        R, Rs = aux_row(grid.bundle(), 2).R
        assert Rs / R > 0


def test_sigma_state_general_m(grid):
    # the m = 2 state is the general-m assembly: r_i = i t_i dH_i,
    # beta_n = sum_i r_i - H_n + n(n+alpha), and d beta/dt_i from H_ij
    st = ca.hankel_sigma(2, grid)
    with mp.workdps(grid.prec.work_dps):
        t1, t2 = mpf("0.3"), mpf("0.2")
        assert list(st.d) == ["1", "2", "11", "12", "22"]  # a mixed partial once
        H1, H2, H11, H12, H22 = (v for v, _ in st.d.values())
        assert st.r == (t1 * H1, 2 * t2 * H2)
        assert st.beta == t1 * H1 + 2 * t2 * H2 - st.Hn + 2 * (2 + mpf("0.5"))
        assert st.dbeta == (t1 * H11 + 2 * t2 * H12, t1 * H12 + 2 * t2 * H22 + H2)
        assert abs(st.beta - grid.bundle().beta(2)) < mpf(10) ** -12


#: sigma-layer checks that read only first derivatives
FIRST_ORDER = ("H-def", "dH-t1", "dH-t2", "H-from-aux", "reconstruct-r", "reconstruct-rstar")
#: sigma-layer checks held to the fixed bound half_eps = 1e-60
FIXED = ("H-p-shift", "delta-nonneg")


def test_sigma_layer_full(grid):
    for c in ca.verify_sigma_pde(2, grid):
        assert c.ok, (c.id, c.residual, c.tol)
        ceiling = -90 if c.id in FIRST_ORDER else -59 if c.id in FIXED else -65
        assert c.tol < mpf(10) ** ceiling, (c.id, c.tol)


def test_sigma_layer_catches_aux_fault(params_default, prec, monkeypatch, fresh_memo):
    # a relative error of 1e-80 in every aux row, far inside the working
    # precision, must fail the checks that compare H_n partials with the row
    real = ladder.aux_integrals

    def faulty(table, n):
        row = real(table, n)
        with mp.workdps(prec.work_dps):
            f = 1 + mpf(10) ** -80
            return AuxRow(R=tuple(f * v for v in row.R), r=tuple(f * v for v in row.r))

    monkeypatch.setattr(ladder, "aux_integrals", faulty)
    # rows are memoized on each table and never cached on disk: fresh_memo
    # empties the table memo, so this grid's tables (read from disk) hold
    # no row yet, and drops them, faulted rows and all, after the test
    fresh = ca.StencilGrid(params_default, prec, ca.table_bundle_builder(4, prec))
    byid = {c.id: c for c in ca.verify_sigma_pde(3, fresh)}
    for cid in ("dH-t1", "dH-t2", "H-from-aux"):
        assert not byid[cid].ok, (cid, byid[cid].residual, byid[cid].tol)


def test_sigma_layer_assembles_each_moved_state_once(grid, prec, count_calls):
    # the hankel_sigma state, then the unmoved state and one per moved H_n
    # partial: 5 at m = 2, 9 at m = 3; one reconstruction per moved state
    grid3 = ca.StencilGrid(WeightParams("0.5", ("0.3", "0.2", "0.1")), prec,
                           ca.table_bundle_builder(3, prec))
    runs = ((lambda: ca.verify_sigma_pde(2, grid), (7, 6)),
            (lambda: mt.h3_reconstruction(2, grid3), (11, 10)))
    for run, _ in runs:
        run()  # warm: every node table and aux row is read, not built
    states = count_calls(ca, "sigma_state")
    recs = count_calls(ca, "reconstruct_aux_from_H")
    for run, want in runs:
        states.clear()
        recs.clear()
        run()
        assert (len(states), len(recs)) == want


def test_sigma_layer_negative_t1(grid_neg):
    checks = ca.verify_sigma_pde(3, grid_neg)
    byid = {c.id: c for c in checks}
    # branch must flip with sgn(t1) and reproduce the negative R
    assert byid["reconstruct-R"].ok
    st = ca.hankel_sigma(3, grid_neg)
    with mp.workdps(grid_neg.prec.work_dps):
        rec = ca.reconstruct_aux_from_H(st)
        assert rec.R[0] < 0
        R, Rs = aux_row(grid_neg.bundle(), 3).R
        assert Rs / R < 0


def test_sigma_pde_small_n(grid):
    # n = 1 keeps every quantity finite and the PDE balanced
    for c in ca.verify_sigma_pde(1, grid):
        assert c.ok, c.id


def test_reconstruction_guards(grid):
    st = ca.hankel_sigma(2, grid)
    bad = st._replace(Delta=mpf(-1))
    with pytest.raises(NegativeDiscriminant):
        ca.reconstruct_aux_from_H(bad)
    tiny = st._replace(Delta=mpf(10) ** -200, fd_error=mpf(10) ** -50)
    with pytest.raises(BranchAmbiguity):
        ca.reconstruct_aux_from_H(tiny)


def test_sigma_reduction_decays(params_default, prec):
    r4, r5 = (ca.sigma_reduction_residual(2, ca.StencilGrid(
        WeightParams(params_default.alpha, ("0.3", eps)), prec,
        ca.table_bundle_builder(3, prec))) for eps in ("1e-4", "1e-5"))
    with mp.workdps(60):
        assert r5 < r4
        assert r5 < mpf(10) ** -4
