"""Samplers: exact tails, moving maxima, power-law integers, diagnostics."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank_extremes.errors import ParameterError
from rank_extremes.rng import STREAMS, child_rng
from rank_extremes.estimators import (
    intervals_theta,
    mean_cluster_size,
    nearest_rank_quantile,
)
from rank_extremes.heavytail import (
    DependenceSpec,
    InDegreeSpec,
    SequenceSpec,
    SequenceStream,
    GUIDE_BUCKETS,
    TailSpec,
    _frechet,
    _power_law_guide,
    _power_law_lookup,
    _power_law_tables,
    gen_moving_maxima,
    power_law_survival,
    sample_pareto,
    sample_power_law_int,
    sample_sequence,
    theoretical_mm_theta,
    von_mises_check,
)

SEED = 918273


def binom_se(p, n):
    return math.sqrt(p * (1.0 - p) / n)


class TestSamplePareto:
    def test_survival_binomial_ci(self):
        spec = TailSpec(1.5, 1.0)
        x = sample_pareto(spec, 10**6, SEED)
        target = 10.0**-1.5
        emp = np.mean(x > 10.0)
        assert abs(emp - target) <= 3 * binom_se(target, 10**6)

    @pytest.mark.parametrize("k,c", [(1.0, 1.0), (2.0, 1.0), (1.5, 3.0)])
    def test_survival_at_reference_points(self, k, c):
        spec = TailSpec(k, c)
        x = sample_pareto(spec, 10**6, SEED + int(10 * k))
        for mult in (2.0, 5.0, 10.0):
            pt = mult * spec.support_left
            target = float(spec.survival(pt))
            emp = np.mean(x > pt)
            assert abs(emp - target) <= 4 * binom_se(target, 10**6)

    def test_support_left(self):
        x = sample_pareto(TailSpec(2.0, 4.0), 10**5, SEED)
        assert x.min() >= 2.0  # c^(1/k) = 4^0.5

    def test_seed_determinism(self):
        a = sample_pareto(TailSpec(1.5), 1000, SEED)
        b = sample_pareto(TailSpec(1.5), 1000, SEED)
        c = sample_pareto(TailSpec(1.5), 1000, SEED + 1)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            TailSpec(0.0)
        with pytest.raises(ParameterError):
            TailSpec(1.0, -1.0)
        with pytest.raises(ParameterError):
            sample_pareto(TailSpec(1.0), 0, SEED)


class TestMovingMaxima:
    def test_single_coefficient_is_iid_pareto(self):
        seq = SequenceSpec(TailSpec(2.0), DependenceSpec.iid())
        path = gen_moving_maxima(seq, 5000, SEED)
        assert np.array_equal(path, sample_pareto(seq.tail, 5000, SEED))

    def test_theta_closed_forms(self):
        assert theoretical_mm_theta(DependenceSpec.iid(), 3.0) == 1.0
        assert theoretical_mm_theta(DependenceSpec.moving_maxima(1, 1, 1, 1), 1.0) == 0.25
        assert theoretical_mm_theta(DependenceSpec.moving_maxima(3, 1), 1.0) == 0.75
        assert theoretical_mm_theta(DependenceSpec.moving_maxima(2, 1, 1), 2.0) == pytest.approx(2 / 3)
        assert theoretical_mm_theta(DependenceSpec.moving_maxima(1, 1), 1.0) == 0.5

    def test_theta_equals_one_iff_single_positive_coefficient(self):
        assert theoretical_mm_theta(DependenceSpec.moving_maxima(0, 2, 0), 1.5) == 1.0
        assert theoretical_mm_theta(DependenceSpec.moving_maxima(2, 1), 1.5) < 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        coeffs=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=6),
        t=st.floats(0.01, 100.0),
        k=st.floats(0.2, 8.0),
    )
    def test_theta_rescaling_invariance(self, coeffs, t, k):
        dep = DependenceSpec.moving_maxima(*coeffs)
        scaled = DependenceSpec.moving_maxima(*(t * a for a in coeffs))
        assert theoretical_mm_theta(dep, k) == pytest.approx(
            theoretical_mm_theta(scaled, k), rel=1e-9
        )

    def test_all_zero_coefficients_rejected(self):
        with pytest.raises(ParameterError):
            DependenceSpec.moving_maxima(0.0, 0.0)

    def test_marginal_tail_matches_spec(self):
        seq = SequenceSpec(TailSpec(1.0, 1.0), DependenceSpec.moving_maxima(1, 1))
        path = gen_moving_maxima(seq, 10**6, SEED)
        # high quantiles only: the Frechet tail matches the Pareto tail
        # at leading order, with O(target^2) curvature below them
        for mult in (100.0, 200.0, 500.0):
            target = float(seq.tail.survival(mult))
            emp = np.mean(path > mult)
            assert abs(emp - target) <= 4 * binom_se(target, 10**6) + target**2

    def test_theta_half_via_runs_declustering(self):
        # independent oracle for theta = 1/2: runs declustering at 99%
        seq = SequenceSpec(TailSpec(1.0), DependenceSpec.moving_maxima(1, 1))
        path = gen_moving_maxima(seq, 10**6, SEED)
        u = nearest_rank_quantile(path, 0.99)
        stats = mean_cluster_size(path, u)
        assert 0.4 <= stats.theta_runs <= 0.6

    def test_theta_two_thirds_via_intervals(self):
        seq = SequenceSpec(TailSpec(2.0), DependenceSpec.moving_maxima(2, 1, 1))
        path = gen_moving_maxima(seq, 10**6, SEED)
        u = nearest_rank_quantile(path, 0.995)
        est = intervals_theta(path, u)
        assert 0.58 <= est.estimate <= 0.76

    def test_sequence_spec_theta_property(self):
        seq = SequenceSpec(TailSpec(2.0), DependenceSpec.moving_maxima(2, 1, 1))
        assert seq.theta == pytest.approx(2 / 3)
        assert SequenceSpec(TailSpec(1.0)).theta == 1.0

    def test_sample_sequence_deterministic(self):
        seq = SequenceSpec(TailSpec(1.5), DependenceSpec.moving_maxima(1, 2))
        assert np.array_equal(
            sample_sequence(seq, 500, SEED), sample_sequence(seq, 500, SEED)
        )


class TestPowerLawInt:
    def test_degenerate_support(self):
        out = sample_power_law_int(InDegreeSpec(alpha=0.7, n_max=1), 1000, SEED)
        assert np.all(out == 1)

    def test_hand_normalized_pmf(self):
        # alpha=2, n_max=3: weights (1, 1/8, 1/27); P{N=1} = 1/(1+0.125+1/27)
        spec = InDegreeSpec(alpha=2.0, n_max=3)
        z = 1.0 + 2.0**-3 + 3.0**-3
        p1 = 1.0 / z
        assert p1 == pytest.approx(0.8606, abs=5e-4)
        surv = power_law_survival(spec, 1)
        assert float(surv) == pytest.approx(1.0 - p1, rel=1e-12)
        draws = sample_power_law_int(spec, 10**6, SEED)
        emp = np.mean(draws == 1)
        assert abs(emp - p1) <= 3 * binom_se(p1, 10**6)

    def test_tail_ratio_against_direct_summation(self):
        spec = InDegreeSpec(alpha=1.5, n_max=10**4)
        # direct-summation oracle, independent of the library tables
        weights = [l ** -2.5 for l in range(1, spec.n_max + 1)]
        z = sum(weights)
        surv100 = sum(weights[100:]) / z
        surv10 = sum(weights[10:]) / z
        target = surv100 / surv10
        draws = sample_power_law_int(spec, 10**6, SEED)
        e100 = np.mean(draws > 100)
        e10 = np.mean(draws > 10)
        ratio = e100 / e10
        # delta-method standard error of the ratio of two proportions
        se = target * math.sqrt(
            (1 - surv100) / (surv100 * 10**6) + (1 - surv10) / (surv10 * 10**6)
        )
        assert abs(ratio - target) <= 3 * se

    def test_range_and_determinism(self):
        spec = InDegreeSpec(alpha=1.2, n_max=50)
        a = sample_power_law_int(spec, 10**4, SEED)
        assert a.min() >= 1 and a.max() <= 50
        assert np.array_equal(a, sample_power_law_int(spec, 10**4, SEED))

    def test_invalid_spec(self):
        with pytest.raises(ParameterError):
            InDegreeSpec(alpha=-1.0, n_max=10)
        with pytest.raises(ParameterError):
            InDegreeSpec(alpha=1.0, n_max=0)


class TestVonMises:
    def test_ratio_approaches_alpha_inside_support(self):
        diag = von_mises_check(InDegreeSpec(alpha=2.0, n_max=10**5), [1000])
        assert diag.n.tolist() == [1000]
        assert abs(diag.ratio[0] - 2.0) / 2.0 < 0.01
        assert not diag.truncated[0]

    def test_ratio_heavy_alpha_needs_wide_support(self):
        # With alpha = 0.5 the truncation bias decays slowly; at n_max = 1e5
        # the ratio at n = 1e3 is still ~11% off and the point is flagged.
        narrow = von_mises_check(InDegreeSpec(alpha=0.5, n_max=10**5), [1000])
        assert abs(narrow.ratio[0] - 0.5) / 0.5 > 0.02
        assert narrow.truncated[0]
        wide = von_mises_check(InDegreeSpec(alpha=0.5, n_max=10**7), [1000])
        assert abs(wide.ratio[0] - 0.5) / 0.5 < 0.02

    def test_divergence_near_truncation_flagged(self):
        diag = von_mises_check(InDegreeSpec(alpha=2.0, n_max=1000), [999])
        assert diag.truncated[-1]
        assert abs(diag.ratio[-1] - 2.0) > 1.0  # ratio blows up at the edge

    def test_small_support_rejected(self):
        with pytest.raises(ParameterError):
            von_mises_check(InDegreeSpec(alpha=1.0, n_max=5), [2])

    @pytest.mark.parametrize("n", [0, 1000, -3])
    def test_points_outside_the_support_rejected(self, n):
        with pytest.raises(ParameterError):
            von_mises_check(InDegreeSpec(alpha=1.0, n_max=1000), [5, n])

    def test_last_point_at_alpha_2(self):
        # 1 - cdf cancelled here: the ratio read -1 855 and the survival
        # function was <= 0 at 51 points of n_max = 1e5
        spec = InDegreeSpec(alpha=2.0, n_max=10**5)
        ns = np.arange(1, spec.n_max)
        diag = von_mises_check(spec, ns)
        # at n = n_max - 1 the tail is the single point n_max
        assert diag.ratio[-1] == pytest.approx(ns[-1] ** -2.0 / spec.n_max ** -3.0, rel=1e-9)
        assert diag.ratio[-1] == pytest.approx(100_002, rel=1e-4)
        assert np.all(diag.ratio > 0)
        surv = power_law_survival(spec, ns)
        assert np.all((surv > 0) & (surv <= 1))


def reverse_fsum_tails(alpha, n_max, points):
    """``sum_{l > n} l**-(alpha+1)`` at each point and the total, each one a
    correctly rounded sum of the terms (independent of the library)."""
    weights = [l ** -(alpha + 1.0) for l in range(1, n_max + 1)]
    return [math.fsum(weights[n:]) for n in points], math.fsum(weights)


class TestClosedFormSurvival:
    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.1, 3.0), n_max=st.integers(10, 2 * 10**4), data=st.data())
    def test_matches_reverse_fsum(self, alpha, n_max, data):
        spec = InDegreeSpec(alpha=alpha, n_max=n_max)
        inner = data.draw(st.lists(st.integers(1, n_max - 1), max_size=5))
        # always the last 100 points, where 1 - cdf cancelled
        points = sorted(set(range(max(1, n_max - 100), n_max)) | set(inner))
        tails, total = reverse_fsum_tails(alpha, n_max, points)
        tails = np.array(tails)
        ns = np.array(points)
        surv = power_law_survival(spec, ns)
        np.testing.assert_allclose(surv, tails / total, rtol=1e-8)
        assert np.all((surv > 0) & (surv <= 1))
        diag = von_mises_check(spec, ns)
        np.testing.assert_allclose(diag.ratio, ns * ns ** -(alpha + 1.0) / tails, rtol=1e-8)
        assert np.all(diag.ratio > 0)

    @pytest.mark.parametrize("x,want", [(-2.0, 1.0), (0.0, 1.0), (0.99, 1.0), (1000, 0.0),
                                        (5000.5, 0.0)])
    def test_outside_the_support(self, x, want):
        assert float(power_law_survival(InDegreeSpec(alpha=1.5, n_max=1000), x)) == want

    def test_real_points_floor(self):
        spec = InDegreeSpec(alpha=1.5, n_max=1000)
        assert power_law_survival(spec, 7.9) == power_law_survival(spec, 7)


# The samplers transform their draws in place; these are the expressions
# they replaced, which allocated a temporary per operation.
def expression_pareto(spec, n, rng):
    u = 1.0 - rng.random(n)
    return (spec.c / u) ** (1.0 / spec.k)


def expression_frechet(rng, scale, k, n):
    e = rng.exponential(size=n)
    return (scale / e) ** (1.0 / k)


def expression_moving_maxima(seq, n, rng):
    a = np.asarray(seq.dep.coeffs, dtype=float)
    m = len(a)
    if m == 1:
        return expression_pareto(seq.tail, n, rng)
    k = seq.tail.k
    z = expression_frechet(rng, seq.tail.c / float(np.sum(a**k)), k, n + m - 1)
    path = a[0] * z[m - 1 : m - 1 + n]
    for j in range(1, m):
        if a[j] == 0.0:
            continue
        np.maximum(path, a[j] * z[m - 1 - j : m - 1 - j + n], out=path)
    return path


def expression_power_law_int(spec, n, rng):
    _, cdf = _power_law_tables(spec)
    return np.searchsorted(cdf, rng.random(n), side="right").astype(np.int64) + 1


def stream(seed):
    return child_rng(seed, STREAMS["column"], 3)


# tail indices include 1/k in {2, 1, 0.5}, where NumPy's scalar power
# takes its square, copy and square-root fast paths
TAIL_K = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.2, 8.0))
SEEDS = st.integers(0, 2**32 - 1)


class TestInPlaceSamplers:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, k=TAIL_K, c=st.floats(0.1, 10.0), n=st.integers(1, 300))
    def test_pareto_matches_expression_bit_for_bit(self, seed, k, c, n):
        spec = TailSpec(k, c)
        want = expression_pareto(spec, n, stream(seed))
        assert sample_pareto(spec, n, stream(seed)).tobytes() == want.tobytes()
        out = np.full(n, np.nan)
        got = sample_pareto(spec, n, stream(seed), out=out)
        assert got is out and out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_standard_exponential_is_the_exponential_stream(self, seed):
        a = np.random.default_rng(seed).exponential(size=1000)
        b = np.random.default_rng(seed).standard_exponential(1000)
        assert a.tobytes() == b.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, k=TAIL_K, scale=st.floats(0.01, 10.0), n=st.integers(1, 300))
    def test_frechet_matches_expression_bit_for_bit(self, seed, k, scale, n):
        want = expression_frechet(stream(seed), scale, k, n)
        assert _frechet(stream(seed), scale, k, n).tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, k=TAIL_K,
           coeffs=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=1, max_size=5)
           .filter(lambda a: any(a)),
           n=st.integers(1, 300), into_buffer=st.booleans())
    def test_moving_maxima_matches_expression_bit_for_bit(self, seed, k, coeffs, n,
                                                          into_buffer):
        seq = SequenceSpec(TailSpec(k), DependenceSpec.moving_maxima(*coeffs))
        want = expression_moving_maxima(seq, n, stream(seed))
        out = np.full(n, np.nan) if into_buffer else None
        got = gen_moving_maxima(seq, n, stream(seed), out=out)
        assert got.tobytes() == want.tobytes()
        if into_buffer:
            assert got is out

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, alpha=st.floats(0.1, 4.0), n_max=st.integers(1, 500),
           n=st.integers(1, 300))
    def test_power_law_int_matches_expression_bit_for_bit(self, seed, alpha, n_max, n):
        spec = InDegreeSpec(alpha=alpha, n_max=n_max)
        want = expression_power_law_int(spec, n, stream(seed))
        got = sample_power_law_int(spec, n, stream(seed))
        assert got.dtype == np.int64
        assert got.tobytes() == want.tobytes()


def split(n, sizes):
    """Consecutive block lengths covering ``n`` rows, cycling ``sizes``."""
    out, i = [], 0
    while n > 0:
        out.append(min(sizes[i % len(sizes)], n))
        n -= out[-1]
        i += 1
    return out


class TestSequenceStream:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, k=TAIL_K,
           coeffs=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=1, max_size=4)
           .filter(any),
           n=st.integers(1, 200), sizes=st.lists(st.integers(1, 70), min_size=1, max_size=4),
           with_work=st.booleans())
    def test_blocks_concatenate_to_the_whole_path(self, seed, k, coeffs, n, sizes, with_work):
        seq = SequenceSpec(TailSpec(k, 1.5), DependenceSpec.moving_maxima(*coeffs))
        want = sample_sequence(seq, n, stream(seed))
        source = SequenceStream(seq, stream(seed))
        blocks = []
        for rows in split(n, sizes):
            out = np.full(rows, np.nan)
            work = np.full(rows + source.lag + 3, np.nan) if with_work else None
            got = source.fill(out, work)
            assert got is out
            blocks.append(got.copy())
        assert np.concatenate(blocks).tobytes() == want.tobytes()

    def test_integer_seed_picks_the_column_stream(self):
        seq = SequenceSpec(TailSpec(2.0), DependenceSpec.moving_maxima(1, 1))
        got = SequenceStream(seq, SEED).fill(np.empty(300))
        assert got.tobytes() == sample_sequence(seq, 300, SEED).tobytes()

    # the property the block source relies on: a stream drawn in consecutive
    # chunks gives the values of one draw
    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, n=st.integers(1, 500),
           sizes=st.lists(st.integers(1, 200), min_size=1, max_size=4),
           method=st.sampled_from(["random", "standard_exponential"]))
    def test_chunked_draws_equal_one_draw(self, seed, n, sizes, method):
        want = getattr(np.random.default_rng(seed), method)(n)
        rng, got = np.random.default_rng(seed), np.empty(n)
        start = 0
        for rows in split(n, sizes):
            getattr(rng, method)(out=got[start : start + rows])
            start += rows
        assert got.tobytes() == want.tobytes()


# sampler, spec, the stream an integer root seed selects, and the draws the
# sampler takes from its generator for n values
SAMPLERS = {
    "pareto": (sample_pareto, TailSpec(1.5, 2.0), "column", lambda g, n: g.random(n)),
    "moving_maxima": (gen_moving_maxima,
                      SequenceSpec(TailSpec(2.0), DependenceSpec.moving_maxima(1, 0.5)),
                      "column", lambda g, n: g.standard_exponential(n + 1)),
    "iid_sequence": (sample_sequence, SequenceSpec(TailSpec(0.8)), "column",
                     lambda g, n: g.random(n)),
    "power_law_int": (sample_power_law_int, InDegreeSpec(alpha=1.5, n_max=50), "in_degree",
                      lambda g, n: g.random(n)),
}


class TestRngArgument:
    # integer seeds stay in use: the acceptance criteria and the benchmark
    # self-test call the samplers with them
    @pytest.mark.parametrize("seed", [0, SEED, 2**32 - 1])
    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_integer_seed_picks_the_default_stream(self, name, seed):
        sampler, spec, stream_name, _ = SAMPLERS[name]
        want = sampler(spec, 500, child_rng(seed, STREAMS[stream_name], 0))
        assert sampler(spec, 500, seed).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_generator_is_used_as_given(self, name):
        sampler, spec, _, draws = SAMPLERS[name]
        rng, ref = np.random.default_rng(SEED), np.random.default_rng(SEED)
        got = sampler(spec, 500, rng)
        draws(ref, 500)
        # the sampler drew exactly its values from rng itself
        assert rng.bit_generator.state == ref.bit_generator.state
        assert got.tobytes() == sampler(spec, 500, np.random.default_rng(SEED)).tobytes()
        assert got.tobytes() != sampler(spec, 500, SEED).tobytes()


# every bucket edge b / 2^12 with both neighbours, 0 and the largest double below 1
EDGES = np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS
GUIDE_CASES = np.unique(np.concatenate([
    EDGES, np.nextafter(EDGES, 1.0), np.nextafter(EDGES[1:], 0.0),
    [0.0, np.nextafter(1.0, 0.0)],
]))


class TestGuideTable:
    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(0.1, 3.0),
           n_max=st.one_of(st.integers(1, 12), st.integers(1, 10**5)),
           extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50))
    def test_lookup_equals_the_search(self, alpha, n_max, extra):
        spec = InDegreeSpec(alpha=alpha, n_max=n_max)
        _, cdf = _power_law_tables(spec)
        # the cdf entries and their neighbours split buckets, at both ends
        below_one = cdf[cdf < 1.0]
        near = np.concatenate([below_one[:100], below_one[-100:]])
        u = np.concatenate([GUIDE_CASES, extra, near, np.nextafter(near, 0.0),
                            np.nextafter(near, 1.0)])
        want = np.searchsorted(cdf, u, side="right") + 1
        got = _power_law_lookup(spec, u.copy())
        assert got.dtype == np.int64
        assert got.tobytes() == want.astype(np.int64).tobytes()

    def test_lookup_leaves_its_input(self):
        u = np.random.default_rng(SEED).random(1000)
        before = u.copy()
        _power_law_lookup(InDegreeSpec(alpha=1.5, n_max=1000), u)
        assert u.tobytes() == before.tobytes()

    @pytest.mark.parametrize("n_max", [1, 100, 10**5, 10**6])
    def test_table_size_is_fixed(self, n_max):
        guide, split = _power_law_guide(InDegreeSpec(alpha=1.5, n_max=n_max))
        assert guide.shape == split.shape == (GUIDE_BUCKETS,)
        # few buckets hold a cdf entry, so few draws need the search
        assert split.mean() < 0.02

    # sha256 prefixes of 10^4 draws from an integer root seed, as the binary
    # search over the cdf drew them
    @pytest.mark.parametrize("alpha,n_max,seed,digest", [
        (1.5, 50, 0, "bb08f865a333918c"),
        (2.0, 100, 918273, "4de77c7a45cdcab3"),
        (0.5, 10**5, 2**32 - 1, "fc115eb1f0637325"),
        (0.1, 10**5, 7, "dafd18a4be08fe52"),
        (2.0, 1, 3, "e9b3b2b9bdbffa83"),
    ])
    def test_integer_seed_stream_is_pinned(self, alpha, n_max, seed, digest):
        draws = sample_power_law_int(InDegreeSpec(alpha=alpha, n_max=n_max), 10**4, seed)
        assert draws.dtype == np.int64
        assert hashlib.sha256(draws.tobytes()).hexdigest()[:16] == digest
