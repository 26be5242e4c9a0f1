import pytest
from mpmath import mp, mpf

from laguerre_lab import calculus as ca
from laguerre_lab.errors import BranchAmbiguity, NegativeDiscriminant
from laguerre_lab.params import PrecisionContext


@pytest.fixture(scope="module")
def prec():
    return PrecisionContext(digits=120)


@pytest.fixture(scope="module")
def stencil():
    return ca.DerivativeStencil()


@pytest.fixture(scope="module")
def grid(params_default, prec, stencil):
    return ca.StencilGrid(params_default, prec, stencil,
                          ca.table_bundle_builder(4, prec))


@pytest.fixture(scope="module")
def grid_neg(params_neg_t1, prec, stencil):
    return ca.StencilGrid(params_neg_t1, prec, stencil,
                          ca.table_bundle_builder(4, prec))


def test_sigma_state_basics(params_default, prec, stencil, grid):
    st = ca.hankel_sigma(2, params_default, stencil, prec, grid)
    with mp.workdps(prec.work_dps):
        # H_n = n(n+alpha) + p(n) held exactly in table arithmetic
        tab = grid.bundle().table
        assert abs(st.Hn - 2 * (2 + mpf("0.5")) - tab.p(2)) < mpf(10) ** -100
        assert st.Delta >= 0
        assert st.def_residual < mpf(10) ** -50
        # T has the sign of t1
        assert st.T > 0


def test_sigma_layer_full(params_default, prec, stencil, grid):
    for c in ca.verify_sigma_pde(2, params_default, stencil, prec, grid):
        assert c.ok, (c.id, c.residual, c.tol)


def test_sigma_layer_negative_t1(params_neg_t1, prec, stencil, grid_neg):
    checks = ca.verify_sigma_pde(3, params_neg_t1, stencil, prec, grid_neg)
    byid = {c.id: c for c in checks}
    # branch must flip with sgn(t1) and reproduce the negative R
    assert byid["reconstruct-R"].ok
    st = ca.hankel_sigma(3, params_neg_t1, stencil, prec, grid_neg)
    with mp.workdps(prec.work_dps):
        rec = ca.reconstruct_aux_from_H(st, params_neg_t1, prec)
        assert rec.R[0] < 0
        assert st.T < 0


def test_sigma_pde_small_n(params_default, prec, stencil, grid):
    # n = 1 keeps every quantity finite and the PDE balanced
    for c in ca.verify_sigma_pde(1, params_default, stencil, prec, grid):
        assert c.ok, c.id


def test_reconstruction_guards(params_default, prec, stencil, grid):
    st = ca.hankel_sigma(2, params_default, stencil, prec, grid)
    bad = ca.SigmaState(**{**st.__dict__, "Delta": mpf(-1)})
    with pytest.raises(NegativeDiscriminant):
        ca.reconstruct_aux_from_H(bad, params_default, prec)
    tiny = ca.SigmaState(**{**st.__dict__, "Delta": mpf(10) ** -200,
                            "fd_error": mpf(10) ** -50})
    with pytest.raises(BranchAmbiguity):
        ca.reconstruct_aux_from_H(tiny, params_default, prec)


def test_sigma_reduction_decays(params_default, prec):
    r4 = ca.sigma_reduction_residual(2, "0.3", params_default.alpha, "1e-4", prec)
    r5 = ca.sigma_reduction_residual(2, "0.3", params_default.alpha, "1e-5", prec)
    with mp.workdps(60):
        assert r5 < r4
        assert r5 < mpf(10) ** -4
