import json
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from laguerre_lab import calculus as ca
from laguerre_lab.errors import DomainError, StencilOutOfDomain
from laguerre_lab.ladder import aux_row
from laguerre_lab.params import PrecisionContext, WeightParams, to_mpf
from laguerre_lab.reports import floored, render


@pytest.fixture(scope="module")
def prec():
    return PrecisionContext(digits=120)


@pytest.fixture(scope="module")
def grid(params_default, prec):
    return ca.StencilGrid(params_default, prec, ca.table_bundle_builder(5, prec))


def test_stencil_invariants(params_default, prec):
    with pytest.raises(DomainError):
        ca.StencilGrid(params_default, prec, None, levels=0)
    # h alone, h and h/2, or 2h, h and h/2: one or two finest steps to h
    assert [ca.StencilGrid(params_default, prec, None, n).steps_per_h
            for n in (1, 2, 3)] == [1, 2, 2]


def _richardson_reference(seq):
    """The stencil's former extrapolation loop, divisors 4^k - 1."""
    rows = [list(seq)]
    while len(rows[-1]) > 1:
        fac = 4 ** len(rows) - 1
        rows.append([b + (b - a) / fac for a, b in zip(rows[-1], rows[-1][1:])])
    best = rows[-1][0]
    return best, (abs(best - rows[-2][-1]) if len(rows) > 1 else mpf(0))


def _neville_reference(ns, vals):
    """The scaling module's former Neville loop at 0, on mpf abscissae 1/n."""
    xs = [mpf(1) / n for n in ns]
    P = {(i, 0): vals[i] for i in range(len(ns))}
    for k in range(1, len(ns)):
        for i in range(k, len(ns)):
            P[(i, k)] = (xs[i] * P[(i - 1, k - 1)] - xs[i - k] * P[(i, k - 1)]) / (
                xs[i] - xs[i - k])
    L = len(ns) - 1
    return P[(L, L)], abs(P[(L, L)] - P[(L, L - 1)])


def test_extrapolate_matches_the_former_loops():
    with mp.workdps(130):
        # step-halved estimates on x = 4^-level: Richardson's rows bit for
        # bit, and the same bits on the grid's integer abscissae 4^(L-level)
        for count in (1, 2, 3):
            vals = [mp.pi + mp.e * mpf(4) ** -i / 7 + mpf(16) ** -i / 3 + mpf(64) ** -i / 11
                    for i in range(count)]
            got = ca.extrapolate([Fraction(1, 4 ** i) for i in range(count)], vals)
            assert [v._mpf_ for v in got] == [v._mpf_ for v in _richardson_reference(vals)]
            assert ca.extrapolate([4 ** (count - 1 - i) for i in range(count)], vals) == got
        # sequences in 1/n: within 10 ulps of the mpf-abscissa loop, and the
        # error is the last correction |P(L,L) - P(L,L-1)|, P(L,L-1) being
        # the extrapolation of the last L values
        for ns in ((8, 10), (8, 10, 12), (8, 12, 16, 24)):
            vals = [mp.euler + mp.pi / n - mp.e / n ** 2 + mpf(1) / (3 * n ** 3) + mpf(2) / n ** 4
                    for n in ns]
            xs = [Fraction(1, n) for n in ns]
            value, err = ca.extrapolate(xs, vals)
            ref, ref_err = _neville_reference(ns, vals)
            ulp = mp.ldexp(1, mp.mag(ref) - mp.prec)
            assert abs(value - ref) <= 10 * ulp, ns
            assert err == abs(value - ca.extrapolate(xs[1:], vals[1:])[0])
            assert abs(err - ref_err) <= 10 * ulp, ns


def _scalar_grid(quantity, point, prec):
    """A stencil grid whose nodes hold quantity(params) itself."""
    return ca.StencilGrid(point, prec, lambda p, anchor: quantity(p))


def _value(v):
    return v


def test_fd_partial_trivials(params_default, prec):
    with mp.workdps(prec.work_dps):
        g = _scalar_grid(lambda p: to_mpf(p.t1) * to_mpf(p.t2), params_default, prec)
        v, e = g.mixed(_value, 0, 1)
        assert abs(v - 1) < 10 * e + mpf(10) ** -60
        g = _scalar_grid(lambda p: mpf(3), params_default, prec)
        v, e = g.first(_value, 0)
        assert abs(v) <= e


def test_fd_partial_matches_exact_derivative(params_default, prec):
    # d/dt1 of t1^2 t2 = 2 t1 t2, second derivative = 2 t2
    q = lambda p: to_mpf(p.t1) ** 2 * to_mpf(p.t2)
    with mp.workdps(prec.work_dps):
        g = _scalar_grid(q, params_default, prec)
        v, e = g.first(_value, 0)
        want = 2 * mpf("0.3") * mpf("0.2")
        assert abs(v - want) < 10 * e + mpf(10) ** -60
        v2, e2 = g.second(_value, 0)
        assert abs(v2 - 2 * mpf("0.2")) < 10 * e2 + mpf(10) ** -50
        # the same partials by key; the mixed one is d^2/dt1 dt2 = 2 t1
        d = ca.partials(g, _value, ("1", "11", "12"))
        assert (d["1"], d["11"]) == ((v, e), (v2, e2))
        v12, e12 = d["12"]
        assert abs(v12 - 2 * mpf("0.3")) < 10 * e12 + mpf(10) ** -50


def _nodes(point, prec, kind, *axes):
    """The t vectors of the nodes one partial of kind reads on a fresh grid."""
    seen = set()
    g = ca.StencilGrid(point, prec, lambda p, anchor: seen.add(p.t) or mpf(0))
    with mp.workdps(prec.work_dps):
        getattr(g, kind)(_value, *axes)
    return seen


def test_three_levels_read_the_order4_nodes_and_the_cross_corners(params_default, prec):
    # first and second partials read the nodes of the retired five-point
    # taps at h and h/2: +-2h, +-h, +-h/2 (and the centre); the mixed one
    # reads the corners at 2h, h and h/2
    (t1, t2), (h1, h2) = params_default.t, [prec.fd_rel_step * abs(t) for t in params_default.t]
    steps = (-2, -1, -Fraction(1, 2), Fraction(1, 2), 1, 2)
    along = {(t1 + j * h1, t2) for j in steps}
    assert _nodes(params_default, prec, "first", 0) == along
    assert _nodes(params_default, prec, "second", 0) == along | {(t1, t2)}
    corners = {(t1 + a * j * h1, t2 + b * j * h2)
               for j in (2, 1, Fraction(1, 2)) for a in (1, -1) for b in (1, -1)}
    assert _nodes(params_default, prec, "mixed", 0, 1) == corners


def test_three_levels_extrapolate_the_order4_taps(params_default, prec):
    # the first Richardson column of the order-2 levels at 2h, h, h/2 is the
    # five-point order-4 formula at h and h/2, so the partials equal the
    # order-4 taps extrapolated once, up to the rounding of the work digits
    f = lambda x: mp.exp(x) * mp.sin(3 * x)
    with mp.workdps(prec.work_dps):
        x = to_mpf(params_default.t1)
        h = to_mpf(prec.fd_rel_step * abs(params_default.t1))
        g = ca.StencilGrid(params_default, prec, lambda p, anchor: f(to_mpf(p.t1)))
        at = lambda k, s: f(x + k * s)
        first = [(-at(2, s) + 8 * at(1, s) - 8 * at(-1, s) + at(-2, s)) / (12 * s)
                 for s in (h, h / 2)]
        second = [(-at(2, s) + 16 * at(1, s) - 30 * at(0, s) + 16 * at(-1, s) - at(-2, s))
                  / (12 * s ** 2) for s in (h, h / 2)]
        for (v, e), (coarse, fine) in ((g.first(_value, 0), first),
                                       (g.second(_value, 0), second)):
            assert abs(v - (fine + (fine - coarse) / 15)) < e / 10 ** 6, (v, e)


def test_mixed_partial_estimate_reaches_the_noise_floor(grid):
    # three levels carry the cross difference to its h^4 correction: the
    # estimate of d^2 p(2)/dt1 dt2 at the default point, the h^2
    # correction of two levels (6.9e-50) before, is below 1e-65
    with mp.workdps(grid.prec.work_dps):
        _, err = grid.mixed(lambda v: v.p(2), 0, 1)
    assert err < mpf(10) ** -65, err


def test_stencil_out_of_domain(prec):
    # a relative step cannot leave the region, so force it via huge offset
    point = WeightParams("0.5", ("0.3", "0.2"))
    g = ca.StencilGrid(point, prec, lambda p: mpf(1))
    with pytest.raises(StencilOutOfDomain):
        g.params_at(((1, -Fraction(10 ** 25)),))


def _relations(grid):
    """The m = 2 derivative relations at n = 3, as the calculus suite runs them."""
    with mp.workdps(grid.prec.work_dps):
        return ca.derivative_relations(3, grid, ("dlnh", "dp", "dlnbeta", "dalpha"))


def test_derivative_relations(grid):
    checks = _relations(grid)
    assert len(checks) == 8
    for c in checks:
        assert c.ok, c.id
        assert c.residual < mpf(10) ** -12
        assert c.point == "(1/2,3/10,1/5);n=3"  # the grid's own point


def test_derivative_relations_negative_t1(params_neg_t1, prec):
    g = ca.StencilGrid(params_neg_t1, prec, ca.table_bundle_builder(4, prec))
    for c in _relations(g):
        assert c.ok, c.id


def test_toda(grid):
    checks = ca.verify_toda(2, grid)
    ids = {c.id for c in checks}
    assert ids == {"toda-alpha", "toda-beta", "toda-molecule", "toda-lndn"}
    for c in checks:
        assert c.ok, c.id
        assert c.residual < mpf(10) ** -12
    with pytest.raises(DomainError):
        ca.verify_toda(0, grid)


@pytest.mark.parametrize("point", ["default", "neg-t1"])
def test_riccati(point, grid, params_neg_t1, prec):
    if point == "neg-t1":
        grid = ca.StencilGrid(params_neg_t1, prec, ca.table_bundle_builder(3, prec))
    with mp.workdps(grid.prec.work_dps):
        ric_S, ric_r = ca.riccati_checks(2, grid)
    checks = ric_S + ric_r
    assert [c.id for c in checks] == ["riccati-S-t1", "riccati-S-t2",
                                      "riccati-r-t1", "riccati-r-t2"]
    for c in checks:
        assert c.ok, c.id
        assert c.residual < mpf(10) ** -12


@pytest.fixture(scope="module")
def grid3():
    """An m = 3 grid away from the golden points, depth-3 tables at P = 50."""
    prec = PrecisionContext(digits=50)
    return ca.StencilGrid(WeightParams("3/2", ("1/5", "1/7", "1/11")), prec,
                          ca.table_bundle_builder(3, prec))


def _closed_form_tolerances(grid, n):
    """{check id: 10 sum |c| e} of the linear derivative checks at index n,
    summed in closed form from the grid's own first/second/mixed estimates
    in the order the hand-written rule used: per axis, the second, first
    and then the mixed partials of D(D - 1)."""
    scales = ca.axis_scales(grid.params)
    t = [to_mpf(v) for v in grid.params.t]

    def axes(cid, f):
        return {cid.format(i + 1): 10 * abs(s) * grid.first(f, i)[1]
                for i, s in enumerate(scales)}

    def euler(f):
        return 10 * mp.fsum(abs(s) * grid.first(f, i)[1] for i, s in enumerate(scales))

    def euler_second(f):
        err = mpf(0)
        for i, s in enumerate(scales):
            err += s ** 2 * grid.second(f, i)[1]
            err += (i + 1) * i * abs(t[i]) * grid.first(f, i)[1]
            for j in range(i + 1, len(scales)):
                err += 2 * abs(s * scales[j]) * grid.mixed(f, i, j)[1]
        return 10 * err

    lnbeta = lambda v: mp.log(v.beta(n))
    return {**axes("dlnh-t{}", lambda v: mp.log(v.h[n])),
            **axes("dp-t{}", lambda v: v.p(n)),
            **axes("riccati-S-t{}", lambda v: aux_row(v, n).Rsum),
            **axes("riccati-r-t{}", lambda v: aux_row(v, n).rsum),
            "toda-alpha": euler(lambda v: v.alpha(n)),
            "toda-beta": euler(lnbeta),
            "toda-molecule": euler_second(lnbeta),
            "toda-lndn": euler_second(lambda v: v.log_hankel(n))}


@pytest.mark.parametrize("which", ["m3", "t1-neg"])
def test_linear_checks_keep_closed_form_tolerances(which, grid3, params_neg_t1, prec):
    # a linear residual's propagated error is |coef| times the error up to
    # rounding far below the 12 digits a tolerance keeps
    grid = grid3 if which == "m3" else ca.StencilGrid(params_neg_t1, prec,
                                                       ca.table_bundle_builder(4, prec))
    n = 2
    with mp.workdps(grid.prec.work_dps):
        checks = (ca.derivative_relations(n, grid, ("dlnh", "dp"))
                  + sum(ca.riccati_checks(n, grid), []) + ca.verify_toda(n, grid))
        want = _closed_form_tolerances(grid, n)
        assert sorted(c.id for c in checks) == sorted(want)
        for c in checks:
            assert c.ok, c.id
            assert render(c.tol) == render(floored(want[c.id])), c.id


def test_toda_differentiates_each_quantity_once(grid, grid3, monkeypatch):
    # alpha_n's first partials and ln beta_n's first and second partials,
    # each taken once: 2 + 5 at m = 2 and 3 + 9 at m = 3
    calls = []
    real = ca.StencilGrid._derivative

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(ca.StencilGrid, "_derivative", counted)
    for g, most in ((grid, 7), (grid3, 12)):
        calls.clear()
        with mp.workdps(g.prec.work_dps):
            ca.toda_checks(2, g)
        assert len(calls) <= most, (g.params.m, len(calls))


def test_coupled_pdes(grid):
    for n in (1, 2, 3):
        for c in ca.verify_coupled_pdes(n, grid):
            assert c.residual < mpf(10) ** -8
            assert c.ok, c.id
            assert c.tol < mpf(10) ** -65, (c.id, c.tol)


def _level_residuals(grid):
    """|t1 q + R_3| for each level quotient q of d/dt1 ln h_3 on grid,
    coarsest first: an exact identity's residual, so truncation error."""
    levels, _ = grid.quotients(ca.FIRST, lambda v: mp.log(v.h[3]), (0,))
    R = aux_row(grid.bundle(), 3).R[0]
    return [abs(to_mpf(grid.params.t1) * d + R) for d in levels]


def test_fd_convergence_order(grid):
    # the order-2 difference's residual at 2h, h and h/2 shrinks by 2^2
    # at each halving of the step
    with mp.workdps(grid.prec.work_dps):
        res = _level_residuals(grid)
        ratios = [a / b for a, b in zip(res, res[1:])]
    assert len(ratios) == 2
    for ratio in ratios:
        assert abs(ratio - 4) < mpf(10) ** -6, ratio


def test_fd_convergence_order_fails_on_a_one_sided_difference(tmp_path, monkeypatch, capsys):
    # a first difference of order 1 halves its residual when the step
    # halves: the check reads |2 - 4| = 2 against 0.5, and the run exits 1
    from laguerre_lab import cli
    from laguerre_lab.cache import clear_memo

    monkeypatch.setattr(ca, "FIRST", ca.Difference((((1,), 1), ((0,), -1)), 1, (1,)))
    out = tmp_path / "calculus.json"
    clear_memo()
    assert cli.main(["calculus", "--digits", "60", "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(out), "--format", "json"]) == 1
    capsys.readouterr()
    entry = next(e for e in json.loads(out.read_text())["reports"][0]["entries"]
                 if e["id"] == "fd-convergence-order")
    assert not entry["pass"]
    assert abs(mpf(entry["residual"]) - 2) < mpf(10) ** -6, entry["residual"]


def _frozen_t2_grid(alpha, t1, eps, depth, prec):
    """The three-level grid at (alpha; t1, eps), tables of the given depth."""
    return ca.StencilGrid(WeightParams(alpha, (t1, eps)), prec,
                          ca.table_bundle_builder(depth, prec))


def test_rode_reduction_decay(params_default, prec):
    eps_list = ("1e-4", "1e-5", "1e-6")
    out = [ca.verify_t2_zero_reduction(1, _frozen_t2_grid(params_default.alpha, "0.5",
                                                           eps, 2, prec))
           for eps in eps_list]
    with mp.workdps(60):
        res_last, _ = out[-1]
        assert res_last <= max(mpf(10) ** -8, 10 * to_mpf(eps_list[-1]))
        for (r0, _), (r1, _) in zip(out, out[1:]):
            assert mpf(5) < r0 / r1 < mpf(20)
    # t2 = eps = 0 is no admissible m = 2 point
    with pytest.raises(DomainError):
        _frozen_t2_grid("0.5", "0.5", "0", 2, prec)
