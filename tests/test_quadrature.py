from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, finf, fnan, fone, from_int, mpf_mul, mpf_neg, mpf_sub

from laguerre_lab import cli, quadrature, suites
from laguerre_lab.cache import clear_memo
from laguerre_lab.config import parse_config
from laguerre_lab.errors import DomainError, NonConvergence
from laguerre_lab.ladder import ladder_A_direct
from laguerre_lab.orthopoly import orthogonality_residual, recurrence_table
from laguerre_lab.params import PrecisionContext, WeightParams, to_mpf
from laguerre_lab.quadrature import (
    _TRUNC_EXTRA,
    _live,
    _trapezoid_levels,
    integrate_finite,
    integrate_weighted,
    moment,
    moments,
    sample_dps,
    seed_moments,
    table_moments,
)

from conftest import eval_polynomials, mpf_integrand

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
        one, two = integrate_weighted(mpf_integrand(lambda x: (1, x * x)), p, prec)
        assert abs(one - 1) < mpf(10) ** -55
        assert abs(two - 2) < mpf(10) ** -55
        assert abs(moment(3, p, prec) - 6) < mpf(10) ** -54


def test_golden_values(params_default, prec120):
    with mp.workdps(150):
        (v,) = integrate_weighted(mpf_integrand(lambda x: (1,)), params_default, prec120)
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
        (a,) = integrate_weighted(mpf_integrand(lambda x: (1,)), params_default, prec120)
        (b,) = integrate_weighted(mpf_integrand(lambda x: (1,)), params_default, prec120,
                                  mapping="expsinh")
        assert abs(a - b) <= prec120.quad_tol * abs(a) * 10
    with pytest.raises(DomainError):
        integrate_weighted(mpf_integrand(lambda x: (1,)), params_default, prec120,
                           mapping="bogus")


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
            u = mp.make_mpf(u)
            return [(mp.exp(-(u * u)) / (u * u + mpf(10) ** -8))._mpf_]
        with pytest.raises(NonConvergence):
            _trapezoid_levels(g, prec, "test")


@pytest.fixture(scope="module")
def table8():
    return recurrence_table(WeightParams("0.5", ("0.3", "0.2")), 8, PrecisionContext(digits=60))


def weighted_integrands(table):
    """Three integrands that a lone pass stops at different tails or levels."""
    return (
        lambda x: mpf(1),
        lambda x: x ** 8,
        lambda x: (lambda P: P[8] * P[3])(eval_polynomials(table, 8, x)),
    )


#: panels (f, a, b) with endpoint singularities and a smooth one
FINITE_PANELS = [
    (mp.log, 0, 1),  # log endpoint singularity
    (lambda x: 1 / mp.sqrt(x), 0, 1),  # inverse square root
    (lambda x: 1 / mp.sqrt(x), 0, 4),
    (lambda x: mp.log(x) * mp.cos(x), 0, mpf(7) / 2),
    (mp.exp, -1, 2),  # smooth
]


@pytest.mark.parametrize("mapping", ["exp", "expsinh"])
def test_weighted_batch_is_bit_identical_to_lone(table8, mapping):
    params, prec = table8.params, table8.prec
    integrands = weighted_integrands(table8)
    lone, samples = [], []
    for f in integrands:
        nodes = []
        lone.append(integrate_weighted(mpf_integrand(lambda x, f=f: (nodes.append(x), f(x))[1:]),
                                       params, prec, mapping)[0])
        samples.append(len(nodes))
    # they stop at different tails or levels: a batch that stopped them
    # together would change the bits of some
    assert len(set(samples)) > 1
    batch = integrate_weighted(mpf_integrand(lambda x: tuple(f(x) for f in integrands)),
                               params, prec, mapping)
    assert batch == lone


#: raw (sign, mantissa, exponent, bitcount) of the integrals of x, -x^2 and
#: 8 - x against w at (1/2, 3/10, 1/5), P = 50, as the rule summed each
#: term into the L1 mass with its own mpf_add
SIGN_BATCH_BITS = [
    (0, 0x20a64172ac54ca5ba81e7ae3ec4a8c672334f7b05ec0d4e3d328b6e1d5eea41, -249, 250),
    (1, 0x2d934b693c00a50651c1b769679fa827c0dea5aa40e6984c851e1b339c07d7b, -248, 250),
    (0, 0x614049c44556e30c965b9f4a98d44c9fd9b4b45a3935ad1c2193284d766d821, -249, 251),
]


def test_sign_batch_keeps_its_bits():
    # a positive integrand sums its L1 mass in its sum's accumulator, a
    # negative one splits them at its first term and 8 - x only where a
    # sweep passes x = 8
    prec = PrecisionContext(digits=50)
    params = WeightParams("1/2", ("3/10", "1/5"))
    with mp.workdps(quadrature.sample_dps(prec)):
        wp, rnd = mp._prec_rounding
        integrands = (lambda x: x, lambda x: mpf_neg(mpf_mul(x, x, wp, rnd)),
                      lambda x: mpf_sub(from_int(8), x, wp, rnd))
        lone = [integrate_weighted(lambda x, f=f: (f(x),), params, prec)[0]._mpf_
                for f in integrands]
        batch = integrate_weighted(lambda x: tuple(f(x) for f in integrands), params, prec)
    assert [v._mpf_ for v in batch] == lone == SIGN_BATCH_BITS


def test_finite_batch_is_bit_identical_to_lone():
    prec = PrecisionContext(digits=60)
    with mp.workdps(80):
        lone = [integrate_finite([panel], prec)[0] for panel in FINITE_PANELS]
        assert integrate_finite(FINITE_PANELS, prec) == lone
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
        integrate_weighted(mpf_integrand(lambda x: (blows_up(x),)), params_default, prec60)
    with pytest.raises(NonConvergence):
        integrate_weighted(mpf_integrand(lambda x: (1, blows_up(x))), params_default, prec60)
    with pytest.raises(NonConvergence):
        integrate_finite([(mp.exp, 0, 1), (lambda x: blows_up(4 * x), 0, 1)], prec60)

    # a numerical breakdown: the CLI exits 3
    def oracle_suite(config):
        integrate_weighted(mpf_integrand(lambda x: (1, blows_up(x))), config.params, config.prec)

    monkeypatch.setitem(suites.SUITE_RUNNERS, "moments", oracle_suite)
    assert cli.main(["moments", "--digits", "60"]) == 3


@pytest.mark.parametrize("params, N, digits", [
    (WeightParams("1/2", ("3/10", "1/5")), 12, 120),
    (WeightParams("1/2", ("-3/10", "1/5")), 12, 120),
    (WeightParams("-1/2", ("9/10", "1/20")), 12, 120),
    (WeightParams("1/2", ("3/10", "1/5", "1/10")), 12, 120),
    # the deepest scaling table: n = N = 24 at s1 = s2 = 1, P = 20 + 4 N
    (WeightParams("1/2", (Fraction(1, 48), Fraction(1, 2304))), 24, 116),
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


# The sweeps as plain mpf-object loops, before the raw-tuple node kernel:
# the reference that the kernel must match bit for bit.

def _ref_predicted(r, last, tol):
    """The predicted-error stop of the oracle trapezoid, in Bailey's form:
    r and last are the relative differences of this level and the one
    before; the digits doubled, and the next level's difference
    10^(D^2 / D_prev), and 10^(1.75 D) too, is at most tol / 10."""
    if not (0 < last < 1 and r <= mp.sqrt(tol)):
        return False
    d, dp = mp.log10(r), mp.log10(last)
    return 1.5 <= d / dp <= 2.5 and max(mpf(10) ** (d * d / dp),
                                        mpf(10) ** (mpf("1.75") * d)) <= tol / 10


def _ref_trapezoid_levels(g, prec, what):
    trunc = mpf(10) ** (-(prec.digits + _TRUNC_EXTRA))
    h = mpf(1)

    def sweep(start, step, live):
        acc = {}
        u = start
        for _ in range(2_000_000):
            terms = g(u, live)
            running = []
            for i, term in zip(range(len(terms)) if live is None else live, terms):
                a = abs(term)
                assert mp.isfinite(a)
                s = acc.setdefault(i, [mpf(0), mpf(0), mpf(0), 0])
                s[0] += term
                s[1] += a
                if a > s[2]:
                    s[2] = a
                    s[3] = 0
                elif a < trunc * s[2]:
                    s[3] += 1
                    if s[3] >= 3:
                        continue
                running.append(i)
            if not running:
                return acc
            live = running
            u += step

    right = sweep(mpf(0), h, None)
    live = list(right)
    left = sweep(-h, -h, live)
    total = [h * (right[i][0] + left[i][0]) for i in live]
    mass = [h * (right[i][1] + left[i][1]) for i in live]
    rel = [None] * len(live)
    for _ in range(quadrature.QUAD_MAX_LEVEL):
        h2 = h / 2
        mid_r = sweep(h2, h, live)
        mid_l = sweep(-h2, -h, live)
        running = []
        for i in live:
            new_total = total[i] / 2 + h2 * (mid_r[i][0] + mid_l[i][0])
            mass[i] = mass[i] / 2 + h2 * (mid_r[i][1] + mid_l[i][1])
            prev, total[i] = total[i], new_total
            r, last = abs(new_total - prev) / mass[i], rel[i]
            rel[i] = r
            if r <= to_mpf(prec.quad_tol):
                continue
            if last is not None and _ref_predicted(r, last, to_mpf(prec.quad_tol)):
                continue
            running.append(i)
        live, h = running, h2
        if not live:
            return total
    raise NonConvergence(what)


def _ref_log_weight_u_fn(params):
    alpha, t = params.materialize()
    a1 = alpha + 1

    def logw(u, expu):
        acc = a1 * u - expu
        if params.is_deformed:
            inv = 1 / expu
            p = mpf(1)
            for tk in t:
                p *= inv
                acc -= tk * p
        return acc

    return logw


def _ref_integrate_weighted(f, params, prec, mapping="exp"):
    with mp.workdps(sample_dps(prec)):
        logw = _ref_log_weight_u_fn(params)
        if mapping == "exp":
            def g(u, live):
                x = mp.exp(u)
                w = mp.exp(logw(u, x))
                return [w * v for v in _live(f(x), live)]
        else:
            def g(v, live):
                u = mp.sinh(v)
                x = mp.exp(u)
                w = mp.exp(logw(u, x))
                c = mp.cosh(v)
                return [w * fx * c for fx in _live(f(x), live)]
        result = _ref_trapezoid_levels(g, prec, "integrate_weighted")
    return [+v for v in result]


def _ref_moment_batch(params, kmin, kmax, prec):
    """The moments batch x^(alpha+k) w(x) e^u, k = kmin..kmax, through the
    reference trapezoid."""
    with mp.workdps(sample_dps(prec)):
        logw = _ref_log_weight_u_fn(params)

        def g(u, live):
            x = mp.exp(u)
            term = mp.exp(logw(u, x) + kmin * u)
            terms = [term]
            for _ in range(kmax - kmin):
                term *= x
                terms.append(term)
            return _live(terms, live)

        return dict(enumerate(_ref_trapezoid_levels(g, prec, "moments"), start=kmin))


def _ref_integrate_finite(panels, prec):
    ends = [(f, to_mpf(a), to_mpf(b)) for f, a, b in panels]
    with mp.workdps(sample_dps(prec)):
        pihalf = mp.pi / 2
        spans = [(f, a, b, (b - a) / 2 * 2, (b - a) / 2 * pihalf) for f, a, b in ends]

        def g(t, live):
            w = pihalf * mp.sinh(t)
            e2 = mp.exp(-2 * abs(w))
            e2p1 = 1 + e2
            cht = mp.cosh(t)
            chw2 = mp.cosh(w) ** 2
            out = []
            for f, a, b, width, scale in _live(spans, live):
                dist = width * e2 / e2p1
                if dist == 0:
                    out.append(mpf(0))
                    continue
                x = a + dist if t < 0 else b - dist
                out.append(f(x) * (scale * cht / chw2))
            return out

        result = _ref_trapezoid_levels(g, prec, "integrate_finite")
    return [+v for v in result]


def _kernel_cases(table8, default, p120, p60):
    """{case: (kernel run, reference run)}."""
    # the rode-reduction point: t2 = 1e-6 gives the deepest left tail
    rode = WeightParams("1/2", ("1/2", "1/1000000"))
    batch = lambda x: tuple(f(x) for f in weighted_integrands(table8))
    tp, tq = table8.params, table8.prec
    return {
        "moments-d120": (lambda: moments(default, -2, 11, p120),
                         lambda: _ref_moment_batch(default, -2, 11, p120)),
        "seeds-rode": (lambda: moments(rode, -2, 0, p120),
                       lambda: _ref_moment_batch(rode, -2, 0, p120)),
        "moment0-d60": (lambda: moment(0, default, p60),
                        lambda: _ref_moment_batch(default, 0, 0, p60)[0]),
        "weighted-exp": (lambda: integrate_weighted(mpf_integrand(batch), tp, tq),
                         lambda: _ref_integrate_weighted(batch, tp, tq)),
        "weighted-expsinh": (lambda: integrate_weighted(mpf_integrand(batch), tp, tq, "expsinh"),
                             lambda: _ref_integrate_weighted(batch, tp, tq, "expsinh")),
        "finite-panels": (lambda: integrate_finite(FINITE_PANELS, p60),
                          lambda: _ref_integrate_finite(FINITE_PANELS, p60)),
    }


@pytest.mark.parametrize("case", ["moments-d120", "seeds-rode", "moment0-d60", "weighted-exp",
                                  "weighted-expsinh", "finite-panels"])
def test_node_kernel_matches_mpf_reference(table8, params_default, prec120, prec60, case):
    kernel, reference = _kernel_cases(table8, params_default, prec120, prec60)[case]
    want = reference()
    clear_memo()
    assert kernel() == want  # node memo empty
    warm = dict(quadrature._node_exp[1])
    assert bool(warm) == (case not in ("weighted-expsinh", "finite-panels"))
    assert kernel() == want  # node memo warm
    assert quadrature._node_exp[1] == warm  # every e^u came from the memo


def test_default_seed_sweep_stops_each_seed_on_its_predicted_error(monkeypatch, params_default,
                                                                   prec120):
    # the seeds k = -2..0 at P = 120 stop on level_settled at h = 1/64, on
    # 652 nodes; a shared stop that only confirmed at h = 1/128 took 1269
    nodes = []
    real = quadrature._log_weight_u_fn

    def counted_logw(params):
        logw = real(params)
        return lambda u, x: (nodes.append(u), logw(u, x))[1]

    monkeypatch.setattr(quadrature, "_log_weight_u_fn", counted_logw)
    clear_memo()
    seed_moments(params_default, prec120)
    assert 0 < len(nodes) <= 660


def test_node_exp_memo_holds_one_precision(monkeypatch, prec120, prec60):
    exps, nodes = [], []
    real_exp, real_logw = quadrature.mpf_exp, quadrature._log_weight_u_fn

    def counted_logw(params):
        logw = real_logw(params)
        return lambda u, x: (nodes.append(u), logw(u, x))[1]

    monkeypatch.setattr(quadrature, "mpf_exp", lambda x, *a: (exps.append(x), real_exp(x, *a))[1])
    monkeypatch.setattr(quadrature, "_log_weight_u_fn", counted_logw)

    def sweep(params, prec):
        """(e^u evaluated, nodes sampled) by a seed sweep; every node also
        takes one e^ for its weight."""
        exps.clear()
        nodes.clear()
        seed_moments(params, prec)
        return len(exps) - len(nodes), len(nodes)

    memo = lambda: set(quadrature._node_exp[1])
    a = WeightParams("1/2", ("3/10", "1/5"))
    b = WeightParams("1/2", ("-3/10", "1/5"))
    clear_memo()
    assert sweep(a, prec120) == (len(memo()),) * 2
    first = memo()
    # another point at the same precision: e^u only at the nodes a did not reach
    computed, sampled = sweep(b, prec120)
    assert first < memo() and computed == len(memo() - first) and 0 < computed < sampled
    # a pass at another precision drops the old entries
    assert sweep(a, prec60) == (len(memo()),) * 2
    assert quadrature._node_exp[0] == dps_to_prec(sample_dps(prec60))
    clear_memo()
    assert memo() == set()
    assert sweep(a, prec120) == (len(first),) * 2 and memo() == first


@pytest.mark.parametrize("mapping", ["exp", "expsinh"])
def test_unit_integrand_matches_mpf_reference(oracle_point, mapping):
    # f = 1 against the mpf rule bit for bit: with the memos empty, then
    # with the weight slot filled by another pass at the same point
    alpha, t1, prec = oracle_point
    params = WeightParams(alpha, (t1, "1/5"))
    want = _ref_integrate_weighted(lambda x: (1,), params, prec, mapping)[0]._mpf_
    clear_memo()
    assert integrate_weighted(lambda x: (fone,), params, prec, mapping)[0]._mpf_ == want
    clear_memo()
    integrate_weighted(mpf_integrand(lambda x: (x,)), params, prec)
    assert quadrature._node_weight[1]
    assert integrate_weighted(lambda x: (fone,), params, prec, mapping)[0]._mpf_ == want


def test_node_weight_memo_holds_one_point(tmp_path, monkeypatch, count_calls, prec60):
    # orthogonality and ladder-coeff-integral of a warm recurrence,ladder run
    # sample one point at one precision, and evaluate each weight once
    weighed, sampled = [], []
    real_logw, real_weight = quadrature._log_weight_u_fn, quadrature._node_weight_fn

    def counted_logw(params):
        logw = real_logw(params)
        return lambda u, x: (weighed.append(u), logw(u, x))[1]

    def counted_weight(params):
        weight_u = real_weight(params)
        nodes = set()
        sampled.append(nodes)
        return lambda u, x: (nodes.add(u), weight_u(u, x))[1]

    cfg = parse_config(None, {"digits": "60", "suites": "recurrence,ladder",
                              "cache_dir": str(tmp_path / "cache")})
    clear_memo()
    suites.run_suite(cfg)
    monkeypatch.setattr(quadrature, "_log_weight_u_fn", counted_logw)
    monkeypatch.setattr(quadrature, "_node_weight_fn", counted_weight)
    passes = count_calls(quadrature, "integrate_weighted")
    clear_memo()
    suites.run_suite(cfg)
    assert len(passes) == len(sampled) == 2
    assert passes[0]["params"] == passes[1]["params"] == cfg.params
    (point, _), memo = quadrature._node_weight
    assert point == cfg.params and set(memo) == sampled[0] | sampled[1]
    assert len(weighed) == len(memo) < len(sampled[0]) + len(sampled[1])

    # a pass at another point, or at another precision, replaces the slot
    other = WeightParams("1/2", ("-3/10", "1/5"))
    integrate_weighted(lambda x: (fone,), other, prec60)
    assert quadrature._node_weight[0] == (other, dps_to_prec(sample_dps(prec60)))
    assert quadrature._node_weight[1] is not memo
    memo = quadrature._node_weight[1]
    integrate_weighted(lambda x: (fone,), other, PrecisionContext(digits=50))
    assert quadrature._node_weight[0] == (other, dps_to_prec(sample_dps(PrecisionContext(50))))
    assert quadrature._node_weight[1] is not memo
    clear_memo()
    assert quadrature._node_weight == (None, {})


@pytest.mark.parametrize("bad", [finf, fnan], ids=["inf", "nan"])
def test_non_finite_sample_through_the_kernel(bad, params_default, prec60, monkeypatch):
    real = quadrature._log_weight_u_fn

    def poisoned(params):
        logw = real(params)
        return lambda u, x: bad if mp.make_mpf(u) > 2 else logw(u, x)

    monkeypatch.setattr(quadrature, "_log_weight_u_fn", poisoned)
    with pytest.raises(NonConvergence, match="moments: non-finite integrand sample"):
        moments(params_default, -2, 3, prec60)
    assert cli.main(["moments", "--digits", "60"]) == 3

    with mp.workdps(80):
        def g(u, live):
            u = mp.make_mpf(u)
            return _live([(mp.exp(-(u * u)))._mpf_, bad if u > 2 else mpf(1)._mpf_], live)
        with pytest.raises(NonConvergence, match="test: non-finite integrand sample"):
            _trapezoid_levels(g, prec60, "test")
