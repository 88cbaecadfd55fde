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
    TailSample,
    ThresholdRule,
    blocks_theta,
    definition_theta,
    definition_theta_from_maxima,
    definition_top_count,
    hill,
    intervals_theta,
    mean_cluster_size,
    nearest_rank_index,
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
LEVELS = st.floats(0.001, 0.999)
RULES = st.one_of(
    st.floats(0.01, 0.99).map(ThresholdRule.top_fraction),
    st.integers(1, 70).map(ThresholdRule.top_count),
    LEVELS.map(ThresholdRule.quantile),
)


def full_sort_quantile(values, q):
    """The nearest-rank quantile read off a full sort of all values."""
    data = np.sort(values)
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
    @given(values=TIED_VALUES, data=st.data())
    def test_upper_order_statistics_match_full_sort(self, values, data):
        count = data.draw(st.integers(1, values.size))
        before = values.copy()
        top = upper_order_statistics(values, count)
        assert np.array_equal(top, np.sort(values)[::-1][:count])
        assert np.array_equal(values, before)

    @settings(max_examples=200, deadline=None)
    @given(values=TIED_VALUES, q=LEVELS)
    def test_quantile_matches_full_sort(self, values, q):
        before = values.copy()
        assert nearest_rank_quantile(values, q) == full_sort_quantile(values, q)
        assert np.array_equal(values, before)

    def test_pooled_quantile_when_count_reaches_row_width(self):
        # rows pooled as the definition stage pools its replications, each
        # handing in its top min(count, width) values.  3 x 2 block, level
        # 0.2: the top 5 of 6 values are needed, more than a row holds, so
        # every value is pooled
        block = np.array([[4.0, 0.0], [2.0, 2.0], [1.0, 3.0]])
        for level, want in ((0.2, 1.0), (0.9, 4.0)):
            count = block.size - nearest_rank_index(level, block.size)
            tops = [upper_order_statistics(row, min(count, len(row))) for row in block]
            assert upper_order_statistics(np.concatenate(tops), count)[-1] == want
            assert nearest_rank_quantile(block.ravel(), level) == want

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
        # a sample is one path: a block of paths is refused, not pooled
        with pytest.raises(ParameterError):
            upper_order_statistics(np.ones((2, 2)), 1)
        with pytest.raises(ParameterError):
            nearest_rank_quantile(np.ones((2, 2)), 0.5)

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


def block_definition_theta(paths, tau, calibration_paths=None):
    """Reference for the definition estimator on a 2-D block of replicated
    paths, from its definition: ``u_n`` is the nearest-rank ``1 - tau/n``
    quantile of the pooled calibration values (the paths by default), read
    from a full sort, and ``theta = -log(mean 1{M_n <= u_n}) / tau`` over the
    row maxima ``M_n``, clamped to (0, 1].

    Returns ``(u_n, theta, clamped, below)`` with ``below`` the number of
    maxima at or below ``u_n``; ``theta`` is None when ``below`` is 0.
    """
    r, n = paths.shape
    pooled = np.sort(paths if calibration_paths is None else calibration_paths, axis=None)
    rank = math.ceil((1.0 - tau / n) * pooled.size) - 1
    u_n = float(pooled[min(max(rank, 0), pooled.size - 1)])
    below = int(np.count_nonzero(paths.max(axis=1) <= u_n))
    if below == 0:
        return u_n, None, False, below
    theta = -math.log(below / r) / tau
    if theta > 1.0:
        return u_n, 1.0, True, below
    if theta <= 0.0:
        return u_n, float(np.nextafter(0.0, 1.0)), True, below
    return u_n, theta, False, below


class TestDefinitionTheta:
    def _paths(self, seq, r, n, base_seed):
        out = np.empty((r, n))
        for rep in range(r):
            out[rep] = gen_moving_maxima(seq, n, replication_seed(base_seed, rep))
        return out

    def _streamed(self, seq, r, n, base_seed, tau):
        """The definition estimate over ``r`` replicated paths, drawn and
        reduced path by path: each hands in its maximum and its top
        ``count`` values, which hold ``u_n``."""
        count = definition_top_count(r, n, tau)
        maxima, tops = np.empty(r), []
        for rep in range(r):
            path = gen_moving_maxima(seq, n, replication_seed(base_seed, rep))
            maxima[rep] = path.max()
            tops.append(upper_order_statistics(path, min(count, n)))
        u_n = float(upper_order_statistics(np.concatenate(tops), count)[-1])
        return definition_theta_from_maxima(maxima, n, tau, u_n)

    def test_iid_near_one(self):
        est = self._streamed(SequenceSpec(TailSpec(1.0)), 500, 10**5, SEED, tau=1.0)
        assert 0.85 <= est.estimate <= 1.15
        assert est.replications == 500
        assert "maxima_below" in est.details

    def test_moving_maxima_half(self):
        est = self._streamed(MM_HALF, 500, 10**5, SEED + 7, tau=1.0)
        assert 0.4 <= est.estimate <= 0.6

    def test_small_block_equals_the_reference(self):
        seq = SequenceSpec(TailSpec(1.0))
        paths = self._paths(seq, 120, 2000, SEED)
        u_n, theta, clamped, below = block_definition_theta(paths, 0.5)
        est = self._streamed(seq, 120, 2000, SEED, tau=0.5)
        assert (est.threshold, est.estimate, est.clamped) == (u_n, theta, clamped)
        assert est.details == {"tau": 0.5, "maxima_below": below}

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
        count = pooled.size - nearest_rank_index(1.0 - tau / n, pooled.size)
        tops = np.concatenate([upper_order_statistics(row, min(count, n)) for row in pooled])
        u_n = float(upper_order_statistics(tops, count)[-1])
        ref_u_n, theta, clamped, below = block_definition_theta(paths, tau, calib)
        assert u_n == ref_u_n
        if below == 0:
            with pytest.raises(DataError):
                definition_theta_from_maxima(paths.max(axis=1), n, tau, u_n)
            with pytest.raises(DataError):
                definition_theta(paths, tau, calibration_paths=calib)
            return
        got = definition_theta_from_maxima(paths.max(axis=1), n, tau, u_n)
        assert (got.threshold, got.estimate, got.clamped) == (u_n, theta, clamped)
        assert got.details == {"tau": tau, "maxima_below": below}
        # the 2-D adapter is the streamed form of the whole block
        block = definition_theta(paths, tau, calibration_paths=calib)
        assert (block.threshold, block.estimate, block.clamped) == (u_n, theta, clamped)
        assert block.exceedances == int(np.count_nonzero(paths > u_n))


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


def outcome(run):
    """``repr`` of what ``run()`` returns, so floats compare bit for bit, or
    the type and message of the ``DataError`` or ``ParameterError`` it raises."""
    try:
        return repr(run())
    except (DataError, ParameterError) as exc:
        return type(exc).__name__, str(exc)


def fed(values, block, top, floor_of=None):
    """A :class:`TailSample` of ``top`` fed ``values`` ``block`` at a time."""
    sample = TailSample(top, floor_of)
    for start in range(0, len(values), block):
        sample.feed(values[start : start + block])
    return sample


@st.composite
def tied_paths(draw):
    """Paths of small integers (many ties, some nonpositive) whose length is
    below, at or just past a multiple of a feeding block of 1, 2, 5 or 16."""
    block = draw(st.sampled_from([1, 2, 5, 16]))
    n = max(1, block * draw(st.integers(1, 12 if block > 2 else 60)) + draw(st.integers(-1, 1)))
    values = draw(st.lists(st.integers(-2, 40), min_size=n, max_size=n))
    return np.array(values, dtype=float), block


class TestTailSample:
    @settings(max_examples=400, deadline=None)
    @given(path=tied_paths(), rule=RULES, level=LEVELS, extra=st.integers(0, 3),
           b=st.sampled_from([None, 1, 2, 3, 7]), exceed_prob=st.none() | st.floats(0.01, 0.5),
           kept=st.integers(0, 2**16))
    def test_estimates_equal_those_of_the_array(self, path, rule, level, extra, b, exceed_prob,
                                                kept):
        values, block = path
        n = len(values)
        # the rule's Hill top m + 1, and the level's nearest-rank count
        if rule.kind == "top_fraction":
            need = math.floor(rule.value * n) + 1
        elif rule.kind == "top_count":
            need = int(rule.value) + 1
        else:
            need = n - nearest_rank_index(rule.value, n)
        count = n - nearest_rank_index(level, n)
        top = max(need, count, 1) + extra
        sample = fed(values, block, top)
        before = values.copy()
        assert outcome(lambda: hill(sample, rule)) == outcome(lambda: hill(values, rule))
        assert nearest_rank_quantile(sample, level) == nearest_rank_quantile(values, level)
        # a threshold at a quantile, and one equal to a value the sample keeps
        desc = np.sort(values)[::-1]
        for u in (nearest_rank_quantile(values, level), float(desc[kept % min(top, n)])):
            for est in (lambda p: blocks_theta(p, u, b, exceed_prob),
                        lambda p: intervals_theta(p, u),
                        lambda p: mean_cluster_size(p, u, b)):
                assert outcome(lambda: est(sample)) == outcome(lambda: est(values))
        assert np.array_equal(values, before)
        # ties at the floor may hold more than twice the top between prunes
        ties = int(np.count_nonzero(values >= sample.floor))
        assert sample._kept <= 2 * max(top, ties) + block

    @settings(max_examples=200, deadline=None)
    @given(path=tied_paths(), data=st.data(), exceed_prob=st.none() | st.floats(0.01, 0.5))
    def test_a_path_floored_by_another_sample(self, path, data, exceed_prob):
        # the preference regime: the paths keep what lies at or above the
        # running floor of q, and take their threshold from q
        values, block = path
        n = len(values)
        q = np.array(data.draw(st.lists(st.integers(-2, 40), min_size=n, max_size=n)), float)
        level = data.draw(LEVELS)
        top = n - nearest_rank_index(level, n)
        q_tail = TailSample(top)
        tail = TailSample(top, floor_of=q_tail)
        for start in range(0, n, block):
            q_tail.feed(q[start : start + block])
            tail.feed(values[start : start + block])
        u = nearest_rank_quantile(q_tail, level)
        assert u == nearest_rank_quantile(q, level)
        assert list(q_tail.above(u)) == list(np.flatnonzero(q > u))
        for est in (lambda p: blocks_theta(p, u, exceed_prob=exceed_prob),
                    lambda p: intervals_theta(p, u)):
            assert outcome(lambda: est(tail)) == outcome(lambda: est(values))

    def test_refuses_what_it_did_not_keep(self):
        values = np.arange(100.0)
        sample = fed(values, 7, 10)
        assert sample.floor > 0
        with pytest.raises(ParameterError, match="keeps its 10 largest"):
            sample.largest(11)
        with pytest.raises(ParameterError, match="below the tail sample's floor"):
            sample.above(sample.floor - 1)
        assert list(sample.largest(10)) == list(range(99, 89, -1))
        with pytest.raises(ParameterError, match="count must be in"):
            fed(values[:5], 2, 10).largest(6)
        floored = fed(values, 7, 10, floor_of=sample)
        with pytest.raises(ParameterError, match="keeps its 10 largest"):
            floored.largest(1)

    def test_holds_at_most_twice_its_top_and_a_block(self):
        values = np.random.default_rng(SEED).permutation(10**5).astype(float)
        sample = TailSample(1000)
        held = []
        for start in range(0, len(values), 4096):
            sample.feed(values[start : start + 4096])
            held.append(sample._kept)
        assert max(held) <= 2 * 1000 + 4096
        assert list(sample.largest(1000)) == list(np.sort(values)[::-1][:1000])
