import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from laguerre_lab import cli, quadrature, suites
from laguerre_lab.errors import DomainError, NonConvergence
from laguerre_lab.ladder import ladder_A_direct
from laguerre_lab.orthopoly import eval_polynomials, orthogonality_residual, recurrence_table
from laguerre_lab.params import PrecisionContext, WeightParams, to_mpf
from laguerre_lab.quadrature import (
    _trapezoid_levels,
    integrate_finite,
    integrate_weighted,
    moment,
    moments,
    table_moments,
)
from laguerre_lab.scaling import ScalingPoint

# Self-validated 200-digit oracle values at (alpha, t1, t2) = (0.5, 0.3, 0.2):
# recomputed at 210 digits with doubled node density, the two runs agree
# beyond 150 digits.
MU0_GOLDEN = (
    "0.50742406932265168028055761207445500888262131247622691067262039271647"
    "16660661946934824590033023847723138379919671752183637980649585241743388782533436418951715143"
)
MUM1_GOLDEN = (
    "0.36374042241576455589535214422858426093448801598933866942509868776381"
    "46192798816977940759760294383858735579691583330691942907033087381225474091857710036901866350"
)


def test_gamma_trivials():
    prec = PrecisionContext(digits=60)
    p = WeightParams("0", ("0", "0"))
    with mp.workdps(80):
        one, two = integrate_weighted(lambda x: (1, x * x), p, prec)
        assert abs(one - 1) < mpf(10) ** -55
        assert abs(two - 2) < mpf(10) ** -55
        assert abs(moment(3, p, prec) - 6) < mpf(10) ** -54


def test_golden_values(params_default, prec120):
    with mp.workdps(150):
        (v,) = integrate_weighted(lambda x: (1,), params_default, prec120)
        assert abs(v - mpf(MU0_GOLDEN)) < mpf(10) ** -105
        w = moment(-1, params_default, prec120)
        assert abs(w - mpf(MUM1_GOLDEN)) < mpf(10) ** -105
        assert w > 0


def test_moment_zero_positive(params_default, params_neg_t1, prec60):
    assert moment(0, params_default, prec60) > 0
    assert moment(0, params_neg_t1, prec60) > 0


def test_degenerate_negative_moment_rejected():
    prec = PrecisionContext(digits=60)
    p = WeightParams("0.5", ("0", "0"))
    with pytest.raises(DomainError):
        moment(-2, p, prec)
    # integrable case still fine: alpha + k = -0.5 > -1
    assert moment(-1, p, prec) > 0


def test_vectorized_matches_single(params_default, prec60):
    ms = moments(params_default, -2, 3, prec60)
    with mp.workdps(80):
        for k in (-2, 0, 3):
            single = moment(k, params_default, prec60)
            assert abs(ms[k] - single) <= mpf(10) ** -55 * abs(single)


def test_hankel_positivity(table12):
    # leading principal minors of (mu_{i+j}) up to 12x12 are positive
    with mp.workdps(table12.prec.work_dps):
        for n in range(1, 13):
            mat = mp.matrix([[table12.moments[i + j] for j in range(n)] for i in range(n)])
            assert mp.det(mat) > 0


def test_doubling_check(params_default):
    v60 = moment(0, params_default, PrecisionContext(digits=60))
    v120 = moment(0, params_default, PrecisionContext(digits=120))
    with mp.workdps(140):
        assert abs(v60 - v120) < mpf(10) ** -50


def test_mapping_invariance(params_default, prec120):
    with mp.workdps(150):
        (a,) = integrate_weighted(lambda x: (1,), params_default, prec120)
        (b,) = integrate_weighted(lambda x: (1,), params_default, prec120, mapping="expsinh")
        assert abs(a - b) <= prec120.quad_tol * abs(a) * 10
    with pytest.raises(DomainError):
        integrate_weighted(lambda x: (1,), params_default, prec120, mapping="bogus")


def test_negative_t1_supported(params_neg_t1, prec60):
    # e^{-t2/x^2} dominates near 0, so the weight stays integrable
    assert moment(-1, params_neg_t1, prec60) < 0 or True  # finite, no raise
    v = moment(0, params_neg_t1, prec60)
    assert v > 0


@settings(max_examples=8, deadline=None)
@given(
    k=st.integers(min_value=-3, max_value=6),
    a10=st.integers(min_value=-9, max_value=30),
    t1_sign=st.sampled_from([1, -1]),
    t110=st.integers(min_value=1, max_value=10),
    t210=st.integers(min_value=1, max_value=10),
)
def test_moment_positive_property(k, a10, t1_sign, t110, t210):
    params = WeightParams(
        mpf(a10) / 10, (t1_sign * mpf(t110) / 10, mpf(t210) / 10)
    )
    prec = PrecisionContext(digits=50)
    assert moment(k, params, prec) > 0


def test_finite_interval_log_singularity():
    prec = PrecisionContext(digits=60)
    with mp.workdps(80):
        # int_0^1 ln(x) dx = -1
        (v,) = integrate_finite([(mp.log, 0, 1)], prec)
        assert abs(v + 1) < mpf(10) ** -55
        # inverse square-root endpoint: int_0^1 dx/sqrt(x) = 2
        (w,) = integrate_finite([(lambda x: 1 / mp.sqrt(x), 0, 1)], prec)
        assert abs(w - 2) < mpf(10) ** -55


def test_singular_sample_at_a_nonzero_endpoint_raises_nonconvergence():
    # near b = 3 the node b - dist rounds to b, where 1/sqrt(3 - x) divides
    # by zero: a numerical breakdown (exit 3), not a bare ZeroDivisionError
    with pytest.raises(NonConvergence, match="divides by zero"):
        integrate_finite([(lambda x: 1 / mp.sqrt(3 - x), 1, 3)], PrecisionContext(digits=60))


def test_level_cap_raises(monkeypatch):
    # a pole very close to the real axis defeats the level cap
    monkeypatch.setattr(quadrature, "QUAD_MAX_LEVEL", 8)
    prec = PrecisionContext(digits=60)
    with mp.workdps(80):
        def g(u, live):
            return [mp.exp(-(u * u)) / (u * u + mpf(10) ** -8)]
        with pytest.raises(NonConvergence):
            _trapezoid_levels(g, prec, "test")


@pytest.fixture(scope="module")
def table8():
    return recurrence_table(WeightParams("0.5", ("0.3", "0.2")), 8, PrecisionContext(digits=60))


@pytest.mark.parametrize("mapping", ["exp", "expsinh"])
def test_weighted_batch_is_bit_identical_to_lone(table8, mapping):
    params, prec = table8.params, table8.prec
    integrands = (
        lambda x: mpf(1),
        lambda x: x ** 8,
        lambda x: (lambda P: P[8] * P[3])(eval_polynomials(table8, 8, x)),
    )
    lone, samples = [], []
    for f in integrands:
        nodes = []
        lone.append(integrate_weighted(lambda x, f=f: (nodes.append(x), f(x))[1:],
                                       params, prec, mapping)[0])
        samples.append(len(nodes))
    # they stop at different tails or levels: a batch that stopped them
    # together would change the bits of some
    assert len(set(samples)) > 1
    batch = integrate_weighted(lambda x: tuple(f(x) for f in integrands), params, prec, mapping)
    assert batch == lone


def test_finite_batch_is_bit_identical_to_lone():
    prec = PrecisionContext(digits=60)
    with mp.workdps(80):
        panels = [
            (mp.log, 0, 1),  # log endpoint singularity
            (lambda x: 1 / mp.sqrt(x), 0, 1),  # inverse square root
            (lambda x: 1 / mp.sqrt(x), 0, 4),
            (lambda x: mp.log(x) * mp.cos(x), 0, mpf(7) / 2),
            (mp.exp, -1, 2),  # smooth
        ]
        lone = [integrate_finite([panel], prec)[0] for panel in panels]
        assert integrate_finite(panels, prec) == lone
        assert abs(lone[0] + 1) < mpf(10) ** -55 and abs(lone[2] - 4) < mpf(10) ** -55


def test_orthogonality_pairs_and_ladder_z_batch_match_lone(table8):
    pairs = ((1, 0), (4, 2), (8, 3), (6, 6))
    assert orthogonality_residual(table8, pairs) == [
        orthogonality_residual(table8, (pair,))[0] for pair in pairs]
    zs = ("0.9", "3")
    assert ladder_A_direct(table8, 2, zs) == [ladder_A_direct(table8, 2, (z,))[0] for z in zs]


def test_batch_with_non_finite_sample_raises_like_lone(params_default, prec60, monkeypatch):
    def blows_up(x):
        return mp.inf if x > 2 else x

    with pytest.raises(NonConvergence):
        integrate_weighted(lambda x: (blows_up(x),), params_default, prec60)
    with pytest.raises(NonConvergence):
        integrate_weighted(lambda x: (1, blows_up(x)), params_default, prec60)
    with pytest.raises(NonConvergence):
        integrate_finite([(mp.exp, 0, 1), (lambda x: blows_up(4 * x), 0, 1)], prec60)

    # a numerical breakdown: the CLI exits 3
    def oracle_suite(config):
        integrate_weighted(lambda x: (1, blows_up(x)), config.params, config.prec)

    monkeypatch.setitem(suites.SUITE_RUNNERS, "moments", oracle_suite)
    assert cli.main(["moments", "--digits", "60"]) == 3


@pytest.mark.parametrize("params, N, digits", [
    (WeightParams("1/2", ("3/10", "1/5")), 12, 120),
    (WeightParams("1/2", ("-3/10", "1/5")), 12, 120),
    (WeightParams("-1/2", ("9/10", "1/20")), 12, 120),
    (WeightParams("1/2", ("3/10", "1/5", "1/10")), 12, 120),
    # the deepest scaling table: n = N = 24 at s1 = s2 = 1, P = 20 + 4 N
    (ScalingPoint(24, 1, 1).params("1/2"), 24, 116),
], ids=["default", "neg-t1", "neg-alpha", "m3", "scaling-n24"])
def test_pearson_moments_match_quadrature(params, N, digits):
    # the whole table range k = -m..2N+1, against the full quadrature sweep
    prec = PrecisionContext(digits=digits)
    rec = table_moments(params, 2 * N + 1, prec)
    quad = moments(params, -params.m, 2 * N + 1, prec)
    assert list(rec) == list(quad)
    with mp.workdps(prec.work_dps):
        tol = 10 * to_mpf(prec.quad_tol)
        for k, v in quad.items():
            assert abs(rec[k] - v) <= tol * abs(v), k


def test_pearson_moments_classical_mode(prec120):
    # t = 0: mu_k = Gamma(alpha + k + 1) exactly
    params = WeightParams("1/2", ("0", "0"))
    rec = table_moments(params, 25, prec120)
    assert list(rec) == list(range(26))
    with mp.workdps(prec120.work_dps):
        tol = 10 * to_mpf(prec120.quad_tol)
        for k, v in rec.items():
            exact = mp.gamma(to_mpf(params.alpha) + k + 1)
            assert abs(v - exact) <= tol * exact, k
