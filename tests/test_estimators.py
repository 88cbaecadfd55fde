"""Tail-index and extremal-index estimators against known oracles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank_extremes.errors import DataError, ParameterError
from rank_extremes.estimators import (
    EstimateReport,
    ThresholdRule,
    blocks_theta,
    definition_theta,
    definition_theta_from_maxima,
    definition_top_count,
    hill,
    intervals_theta,
    mean_cluster_size,
    nearest_rank_quantile,
    upper_order_statistics,
)
from rank_extremes.heavytail import (
    DependenceSpec,
    SequenceSpec,
    TailSpec,
    gen_moving_maxima,
    sample_pareto,
)
from rank_extremes.rng import replication_seed

SEED = 424242

MM_HALF = SequenceSpec(TailSpec(1.0), DependenceSpec.moving_maxima(1, 1))


class TestNearestRankQuantile:
    def test_exact_rank_selection(self):
        data = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        assert nearest_rank_quantile(data, 0.5) == 3.0
        assert nearest_rank_quantile(data, 0.2) == 1.0
        assert nearest_rank_quantile(data, 0.81) == 5.0

    def test_no_interpolation(self):
        data = np.array([1.0, 2.0])
        assert nearest_rank_quantile(data, 0.5) == 1.0
        assert nearest_rank_quantile(data, 0.51) == 2.0

    def test_invalid_level(self):
        with pytest.raises(ParameterError):
            nearest_rank_quantile(np.arange(5.0), 1.0)


# Samples with many ties (small integers as floats), and some nonpositive
# values, so every tie-breaking and error branch of the kernel is reached.
TIED_VALUES = st.lists(st.integers(-2, 6), min_size=1, max_size=60).map(
    lambda xs: np.array(xs, dtype=float))
TIED_BLOCKS = st.tuples(st.integers(1, 6), st.integers(1, 8)).flatmap(
    lambda shape: st.lists(st.integers(0, 4), min_size=shape[0] * shape[1],
                           max_size=shape[0] * shape[1]).map(
        lambda xs: np.array(xs, dtype=float).reshape(shape)))
LEVELS = st.floats(0.001, 0.999)
RULES = st.one_of(
    st.floats(0.01, 0.99).map(ThresholdRule.top_fraction),
    st.integers(1, 70).map(ThresholdRule.top_count),
    LEVELS.map(ThresholdRule.quantile),
)


def full_sort_quantile(values, q):
    """The nearest-rank quantile read off a full sort of all values."""
    data = np.sort(values.ravel())
    idx = min(max(int(math.ceil(q * data.size)) - 1, 0), data.size - 1)
    return float(data[idx])


def full_sort_hill(path, rule):
    """Hill over a full stable sort: (estimate, threshold, exceedances)."""
    order = np.sort(path, kind="stable")[::-1]
    n = len(order)
    if rule.kind == "top_fraction":
        m = int(math.floor(rule.value * n))
    elif rule.kind == "top_count":
        m = int(rule.value)
    else:
        m = int(np.count_nonzero(order > full_sort_quantile(path, rule.value)))
    if m < 2 or m >= n:
        raise DataError("order count")
    top, ref = order[:m], order[m]
    if ref <= 0 or top[-1] <= 0:
        raise DataError("nonpositive tail")
    mean_log = float(np.mean(np.log(top / ref)))
    if mean_log == 0.0:
        raise DataError("tied tail")
    return 1.0 / mean_log, float(ref), m


class TestOrderStatisticsKernel:
    @settings(max_examples=200, deadline=None)
    @given(values=st.one_of(TIED_VALUES, TIED_BLOCKS), data=st.data())
    def test_upper_order_statistics_match_full_sort(self, values, data):
        count = data.draw(st.integers(1, values.size))
        before = values.copy()
        top = upper_order_statistics(values, count)
        assert np.array_equal(top, np.sort(values.ravel())[::-1][:count])
        assert np.array_equal(values, before)

    @settings(max_examples=200, deadline=None)
    @given(values=st.one_of(TIED_VALUES, TIED_BLOCKS), q=LEVELS)
    def test_quantile_matches_full_sort(self, values, q):
        before = values.copy()
        assert nearest_rank_quantile(values, q) == full_sort_quantile(values, q)
        assert np.array_equal(values, before)

    def test_pooled_quantile_when_count_reaches_row_width(self):
        # 3 x 2 block, level 0.2: the top 5 of 6 values are needed, more
        # than a row holds, so every value is pooled
        block = np.array([[4.0, 0.0], [2.0, 2.0], [1.0, 3.0]])
        assert nearest_rank_quantile(block, 0.2) == 1.0
        assert nearest_rank_quantile(block, 0.9) == 4.0

    @settings(max_examples=300, deadline=None)
    @given(path=TIED_VALUES, rule=RULES)
    def test_hill_matches_full_sort(self, path, rule):
        before = path.copy()
        try:
            expected = full_sort_hill(path, rule)
        except DataError:
            with pytest.raises(DataError):
                hill(path, rule)
        else:
            est = hill(path, rule)
            assert (est.estimate, est.threshold, est.exceedances) == expected
        assert np.array_equal(path, before)

    def test_bad_count_and_shape_rejected(self):
        with pytest.raises(ParameterError):
            upper_order_statistics(np.arange(5.0), 0)
        with pytest.raises(ParameterError):
            upper_order_statistics(np.arange(5.0), 6)
        with pytest.raises(ParameterError):
            upper_order_statistics(np.ones((2, 2, 2)), 1)

    def test_empty_sample_rejected(self):
        with pytest.raises(DataError):
            nearest_rank_quantile(np.array([]), 0.5)


class TestHill:
    def test_hand_computation(self):
        # top two of {e^2, e, 1, 1, 1} against the third order statistic:
        # mean log ratio = (2 + 1)/2 = 1.5, so k_hat = 2/3
        sample = np.array([math.e**2, math.e, 1.0, 1.0, 1.0])
        est = hill(sample, ThresholdRule.top_count(2))
        assert est.estimate == pytest.approx(2 / 3)
        assert est.exceedances == 2

    def test_exact_pareto_k1(self):
        path = sample_pareto(TailSpec(1.0), 10**6, SEED)
        est = hill(path, ThresholdRule.top_fraction(0.01))
        assert 0.95 <= est.estimate <= 1.05

    def test_constant_sample_rejected(self):
        with pytest.raises(DataError):
            hill(np.ones(100), ThresholdRule.top_count(5))

    def test_nonpositive_tail_rejected(self):
        with pytest.raises(DataError):
            hill(np.array([-1.0, -2.0, -3.0, -4.0]), ThresholdRule.top_count(2))

    @settings(max_examples=30, deadline=None)
    @given(t=st.floats(1e-3, 1e3))
    def test_scale_equivariance_top_count(self, t):
        path = sample_pareto(TailSpec(1.5), 5000, SEED)
        a = hill(path, ThresholdRule.top_count(100)).estimate
        b = hill(t * path, ThresholdRule.top_count(100)).estimate
        assert a == pytest.approx(b, rel=1e-9)

    def test_quantile_rule(self):
        path = sample_pareto(TailSpec(2.0), 10**5, SEED)
        est = hill(path, ThresholdRule.quantile(0.99))
        assert est.exceedances == pytest.approx(1000, abs=100)
        assert 1.8 <= est.estimate <= 2.2

    def test_threshold_rule_validation(self):
        with pytest.raises(ParameterError):
            ThresholdRule.top_fraction(1.5)
        with pytest.raises(ParameterError):
            ThresholdRule.top_count(0)
        with pytest.raises(ParameterError):
            ThresholdRule("bogus", 0.5)


class TestBlocksTheta:
    # Threshold at the 99.9% quantile so b * p_u is about 1 with the
    # default block length sqrt(n); at the 99% quantile virtually every
    # block of 1000 contains an exceedance and the estimator is undefined.
    def test_iid_pareto_near_one(self):
        path = sample_pareto(TailSpec(1.0), 10**6, SEED)
        u = nearest_rank_quantile(path, 0.999)
        est = blocks_theta(path, u)
        assert 0.9 <= est.estimate <= 1.1
        assert est.block_length == 1000

    def test_moving_maxima_half(self):
        path = gen_moving_maxima(MM_HALF, 10**6, SEED)
        u = nearest_rank_quantile(path, 0.999)
        est = blocks_theta(path, u)
        assert 0.42 <= est.estimate <= 0.58

    def test_no_exceedances_rejected(self):
        path = sample_pareto(TailSpec(1.0), 10**4, SEED)
        with pytest.raises(DataError):
            blocks_theta(path, path.max() + 1.0)

    def test_threshold_too_low_rejected(self):
        path = sample_pareto(TailSpec(1.0), 10**4, SEED)
        with pytest.raises(DataError):
            blocks_theta(path, path.min() - 0.5, b=10)

    def test_short_path_rejected(self):
        with pytest.raises(ParameterError):
            blocks_theta(np.arange(1.0, 50.0), 10.0, b=10)

    def test_estimate_clamped_to_unit_interval(self):
        path = sample_pareto(TailSpec(1.0), 10**5, SEED)
        for q in (0.995, 0.999, 0.9995):
            est = blocks_theta(path, nearest_rank_quantile(path, q))
            assert 0.0 < est.estimate <= 1.0


class TestIntervalsTheta:
    def test_equally_spaced_exceedances_give_one(self):
        path = np.zeros(1000)
        path[::10] = 5.0
        est = intervals_theta(path, 1.0)
        assert est.estimate == 1.0

    def test_iid_pareto_near_one(self):
        path = sample_pareto(TailSpec(1.0), 10**6, SEED)
        u = nearest_rank_quantile(path, 0.995)
        est = intervals_theta(path, u)
        assert 0.9 <= est.estimate <= 1.1

    def test_moving_maxima_two_thirds(self):
        seq = SequenceSpec(TailSpec(2.0), DependenceSpec.moving_maxima(2, 1, 1))
        path = gen_moving_maxima(seq, 10**6, SEED)
        u = nearest_rank_quantile(path, 0.995)
        est = intervals_theta(path, u)
        assert 0.58 <= est.estimate <= 0.76

    def test_too_few_exceedances_rejected(self):
        path = np.ones(100)
        path[3] = 10.0
        with pytest.raises(DataError):
            intervals_theta(path, 5.0)

    def test_cross_agreement_with_blocks(self):
        path = gen_moving_maxima(MM_HALF, 10**6, SEED + 1)
        b = blocks_theta(path, nearest_rank_quantile(path, 0.99)).estimate
        i = intervals_theta(path, nearest_rank_quantile(path, 0.995)).estimate
        assert abs(b - i) <= 0.12


class TestDefinitionTheta:
    def _paths(self, seq, r, n, base_seed):
        out = np.empty((r, n))
        for rep in range(r):
            out[rep] = gen_moving_maxima(seq, n, replication_seed(base_seed, rep))
        return out

    def test_iid_near_one(self):
        seq = SequenceSpec(TailSpec(1.0))
        paths = self._paths(seq, 500, 10**5, SEED)
        est = definition_theta(paths, tau=1.0)
        assert 0.85 <= est.estimate <= 1.15
        assert est.replications == 500
        assert "maxima_below" in est.details

    def test_moving_maxima_half(self):
        paths = self._paths(MM_HALF, 500, 10**5, SEED + 7)
        est = definition_theta(paths, tau=1.0)
        assert 0.4 <= est.estimate <= 0.6

    def test_small_tau_reports_metadata(self):
        seq = SequenceSpec(TailSpec(1.0))
        paths = self._paths(seq, 120, 2000, SEED)
        est = definition_theta(paths, tau=0.1)
        assert est.replications == 120
        assert est.details["tau"] == 0.1
        assert est.details["maxima_below"] >= 1

    def test_too_few_replications_rejected(self):
        with pytest.raises(ParameterError):
            definition_theta(np.ones((50, 1000)), tau=1.0)

    def test_requires_2d(self):
        with pytest.raises(ParameterError):
            definition_theta(np.ones(1000), tau=1.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), 1000.0, 5000.0])
    def test_tau_outside_path_length_rejected(self, tau):
        with pytest.raises(ParameterError):
            definition_top_count(100, 1000, tau)

    def test_top_count_at_the_defaults(self):
        # 500 x 10^5 pooled values, level 1 - 10^-5: the top 501 fix u_n
        assert definition_top_count(500, 10**5, 1.0) == 501

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), r=st.integers(100, 130),
           n=st.integers(2, 40), top=st.sampled_from([0, 1, 5, 1000]),
           calib_rows=st.integers(0, 4))
    def test_streamed_estimate_equals_block_estimate(self, data, seed, r, n, top,
                                                     calib_rows):
        # integers with many ties (a single value when top = 0); the streamed
        # form sees only each row's maximum and each calibration row's top
        # `count` values; calib_rows = 0 calibrates on the paths themselves
        # mostly small tau, where u_n sits among the row maxima
        tau = data.draw(st.one_of(st.floats(0.01, min(3.0, n - 0.01)),
                                  st.floats(0.01, n - 0.01)))
        rng = np.random.default_rng(seed)
        paths = rng.integers(0, top + 1, size=(r, n)).astype(float)
        calib = None
        if calib_rows:
            calib = rng.integers(0, top + 1, size=(calib_rows, n)).astype(float)
        pooled = paths if calib is None else calib
        count = definition_top_count(r, n, tau, pooled.size)
        tops = np.concatenate([upper_order_statistics(row, min(count, n)) for row in pooled])
        u_n = float(upper_order_statistics(tops, count)[-1])
        try:
            want = definition_theta(paths, tau, calibration_paths=calib)
        except DataError:
            with pytest.raises(DataError):
                definition_theta_from_maxima(paths.max(axis=1), n, tau, u_n)
            return
        got = definition_theta_from_maxima(paths.max(axis=1), n, tau, u_n)
        assert got.threshold == want.threshold
        assert got.estimate == want.estimate
        assert got.details == want.details and got.clamped == want.clamped
        assert want.exceedances == int(np.count_nonzero(paths > u_n))


class TestMeanClusterSize:
    def test_hand_trace(self):
        # exceedance indicator 1,0,0,1,1,0,1 with run gap 2: the single
        # non-exceedance between positions 4 and 6 does not split, so the
        # clusters are {0} and {3,4,6}
        path = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        stats = mean_cluster_size(path, 0.5, run_gap=2)
        assert stats.cluster_count == 2
        assert stats.exceedance_count == 4
        assert stats.mean_size == pytest.approx(2.0)
        assert stats.theta_runs == pytest.approx(0.5)

    def test_isolated_exceedances(self):
        path = np.zeros(100)
        path[::10] = 1.0
        stats = mean_cluster_size(path, 0.5, run_gap=3)
        assert stats.theta_runs == 1.0
        assert stats.mean_size == 1.0

    def test_reciprocal_identity(self):
        path = gen_moving_maxima(MM_HALF, 10**5, SEED)
        u = nearest_rank_quantile(path, 0.99)
        stats = mean_cluster_size(path, u)
        assert stats.mean_size * stats.theta_runs == pytest.approx(1.0, rel=1e-12)

    def test_theta_half_cluster_sizes(self):
        path = gen_moving_maxima(MM_HALF, 10**6, SEED)
        u = nearest_rank_quantile(path, 0.99)
        stats = mean_cluster_size(path, u, run_gap=math.ceil(math.log(10**6)))
        assert 1.7 <= stats.mean_size <= 2.4

    def test_no_exceedances_rejected(self):
        with pytest.raises(DataError):
            mean_cluster_size(np.zeros(100), 1.0, run_gap=2)


class TestEstimateReport:
    def test_json_field_order(self):
        est = hill(sample_pareto(TailSpec(1.0), 1000, SEED), ThresholdRule.top_count(50))
        payload = json.loads(est.to_json())
        assert list(payload)[:10] == list(EstimateReport.FIELDS)
        assert payload["method"] == "hill"
