"""The sign rule, ``reports.sign_check``: a value, multiplied by its
expected sign, passes only when it clears zero by ten times its error.

Each tightened sign check is fed, through its own data, one value inside
the band its former hand-written form let pass, and then exactly 0; it
must fail on both.
"""

from types import SimpleNamespace

import pytest
from mpmath import mp, mpf

from laguerre_lab import calculus as ca
from laguerre_lab import suites
from laguerre_lab.config import parse_config
from laguerre_lab.ladder import AuxRow
from laguerre_lab.params import PrecisionContext, WeightParams
from laguerre_lab.reports import sign_check
from laguerre_lab.scaling import Scaled, ScaledGrid, verify_limit_identities


def _entry(checks, cid):
    (check,) = [c for c in checks if c.id == cid]
    return check


def aux_sign_R(monkeypatch, value):
    # R_0 = value at t1 > 0: a wrong-sign R_n below half_eps passed
    real = suites.ld.aux_rows

    def rows(tab, N):
        out = real(tab, N)
        out[0] = AuxRow(R=(value,) + out[0].R[1:], r=out[0].r)
        return out

    monkeypatch.setattr(suites.ld, "aux_rows", rows)
    cfg = parse_config(None, {"digits": "50", "suites": "ladder", "n_max": "2"})
    return _entry(suites.ladder_suite(cfg).entries, "aux-sign-R")


def density_nonneg(monkeypatch, value):
    # sigma >= -half_eps passed
    real, calls = suites.eq.densities, []

    def densities(sol, xs):
        calls.append(xs)
        out = real(sol, xs)
        if len(calls) == 1:  # the 101-point grid; mp-gap's points come later
            out[49] = value
        return out

    monkeypatch.setattr(suites.eq, "densities", densities)
    cfg = parse_config(None, {"digits": "60", "suites": "equilibrium"})
    return _entry(suites.equilibrium_suite(cfg).entries, "density-nonneg")


def delta_random(monkeypatch, value):
    # Delta >= -1e-30 passed
    deltas = iter([mpf(1)] * 9 + [value] + [mpf(1)] * 10)
    monkeypatch.setattr(suites.ca, "hankel_sigma",
                        lambda n, grid: SimpleNamespace(Delta=next(deltas)))
    return suites.delta_random(parse_config(None, {"digits": "60"}))


def delta_nonneg(monkeypatch, value):
    # Delta >= -(half_eps + 10 e) passed, e its propagated error
    real = ca.hankel_sigma
    monkeypatch.setattr(ca, "hankel_sigma", lambda n, grid: real(n, grid)._replace(Delta=value))
    prec = PrecisionContext(digits=60)
    grid = ca.StencilGrid(WeightParams("0.5", ("0.3", "0.2")), prec,
                          ca.table_bundle_builder(5, prec))
    return _entry(ca.verify_sigma_pde(1, grid), "delta-nonneg")


def _scaled_grid(monkeypatch, limits, dH1):
    """A scaled grid at s = (1, 1) whose limits ({name: (value, error)})
    and dH/ds are given; dH/ds1 = dH1, dH/ds2 = -1, each with error 1e-3."""
    grid = ScaledGrid(1, 1, (4, 6), PrecisionContext(digits=60))
    e = mpf("1e-3")
    monkeypatch.setattr(grid, "at", lambda: {q: Scaled((), v, err) for q, (v, err) in limits.items()})
    monkeypatch.setattr(grid, "first", lambda quantity, axis: (dH1, e) if axis == 0 else (mpf(-1), e))
    return grid


_LIMITS = {"R": (mpf(1), mpf("1e-3")), "Rstar": (mpf(1), mpf("1e-3")),
           "r": (mpf(-1), mpf("1e-3")), "rstar": (mpf(-1), mpf("1e-3"))}


def dH_ds1_sign(monkeypatch, value):
    # dH/ds1 up to +9 e1 passed; value is -dH/ds1, e1 = 1e-3
    grid = _scaled_grid(monkeypatch, _LIMITS, -value)
    return _entry(verify_limit_identities(grid), "dH-ds1-sign")


def scaled_V_sign(monkeypatch, value):
    # a wrong-sign V = R*/R with |V| <= eR + eRs passed; here R = 1, s1 > 0
    grid = _scaled_grid(monkeypatch, {**_LIMITS, "Rstar": (value, mpf("1e-3"))}, mpf(-1))
    return _entry(verify_limit_identities(grid), "scaled-V-sign")


#: (check, value times its expected sign, inside the former pass band)
IN_BAND = [(aux_sign_R, mpf("-1e-70")), (density_nonneg, mpf("-1e-70")),
           (delta_random, mpf("-1e-70")), (delta_nonneg, mpf("-1e-70")),
           (dH_ds1_sign, mpf("-1e-3")), (scaled_V_sign, mpf("-1e-3"))]


@pytest.mark.parametrize("value", ["in-band", "zero"])
@pytest.mark.parametrize("feed, band", IN_BAND, ids=[f.__name__ for f, _ in IN_BAND])
def test_sign_check_fails_inside_the_old_band(feed, band, value, monkeypatch):
    check = feed(monkeypatch, band if value == "in-band" else mpf(0))
    assert not check.ok, (check.residual, check.tol)
    assert check.residual >= 1


def test_sign_check_rule():
    half = mpf(10) ** -30
    with mp.workdps(40):
        # exact values: strictly positive passes, 0 fails
        assert sign_check("x", [mpf(1), mpf("1e-100")], half, "").residual == 0
        assert sign_check("x", [mpf(1), mpf(0)], half, "").residual == 1
        assert sign_check("x", [mpf(-2)], half, "").residual == 3
        # estimates: the value must exceed 10 times its error
        e = mpf(1) / 16
        assert sign_check("x", [10 * e + mpf("1e-30")], half, "", [e]).ok
        assert sign_check("x", [10 * e], half, "", [e]).residual == 1
