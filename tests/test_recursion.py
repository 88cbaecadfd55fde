"""Random-length aggregates, branching-tree expansion, paired tail ratios."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank_extremes import recursion
from rank_extremes.errors import ConfigurationError, DataError, ParameterError, ResourceError
from rank_extremes.estimators import ThresholdRule, hill, nearest_rank_quantile
from rank_extremes.heavytail import (
    DependenceSpec,
    InDegreeSpec,
    SequenceSpec,
    TailSpec,
    sample_pareto,
    sample_power_law_int,
    sample_sequence,
)
from rank_extremes.recursion import (
    COUPLING_ADVERSARIAL,
    COUPLING_INDEPENDENT,
    MAX,
    SUM,
    AggregatePath,
    RecursionConfig,
    _column_contributions,
    _draw_in_degrees,
    _iid_pair_blocks,
    _segment_reduce,
    compare_tail_sum_max,
    expected_tree_size,
    pair_maxima,
    read_path_csv,
    sample_aggregate,
    sample_aggregate_pair,
    sample_weighted_pair,
    simulate_tbt,
)
from rank_extremes.rng import STREAMS, child_rng
from rank_extremes.textio import BLOCK_ROWS

SEED = 555001
SEEDS = st.integers(0, 2**32 - 1)


def make_config(**overrides):
    base = dict(
        damping=0.5,
        in_degree=InDegreeSpec(alpha=2.0, n_max=50),
        follower_tail=TailSpec(2.0),
        preference_tail=TailSpec(3.0),
    )
    base.update(overrides)
    return RecursionConfig(**base)


class TestAggregate:
    def test_zero_in_degree_gives_preference_only(self):
        config = make_config(fixed_in_degree=0)
        pair = sample_aggregate_pair(config, 5000, SEED)
        expected = config.z_star * pair.preference
        assert np.array_equal(pair.sum_values, expected)
        assert np.array_equal(pair.max_values, expected)

    def test_sum_dominates_max_pointwise(self):
        pair = sample_aggregate_pair(make_config(), 10**5, SEED)
        assert np.all(pair.sum_values >= pair.max_values)

    def test_single_column_aggregation_arithmetic(self):
        # with N = 1 the follower term is one draw X, so
        # max = max(c*X, (1-c)q) and sum = c*X + (1-c)q identically
        config = make_config(fixed_in_degree=1)
        pair = sample_aggregate_pair(config, 10**4, SEED)
        pref = config.z_star * pair.preference
        follower = pair.sum_values - pref
        assert np.allclose(pair.max_values, np.maximum(follower, pref))

    def test_max_never_below_preference_floor(self):
        pair = sample_aggregate_pair(make_config(), 10**4, SEED)
        assert np.all(pair.max_values >= pair.config.z_star * pair.preference)

    def test_aggregate_selection(self):
        sum_path = sample_aggregate(make_config(aggregate=SUM), 2000, SEED)
        max_path = sample_aggregate(make_config(aggregate=MAX), 2000, SEED)
        pair = sample_aggregate_pair(make_config(), 2000, SEED)
        assert np.array_equal(sum_path.values, pair.sum_values)
        assert np.array_equal(max_path.values, pair.max_values)

    def test_fast_and_explicit_paths_share_law(self):
        # the reduceat fast path and the explicit column loop must agree in
        # distribution; the explicit loop draws Frechet marginals whose tail
        # (not body) matches exact Pareto, so compare upper tail quantiles
        fast = sample_aggregate_pair(make_config(), 10**6, SEED)
        slow_cfg = make_config(
            follower_deps=(DependenceSpec.moving_maxima(1.0, 0.0),)
        )  # theta = 1, same marginal tail, forces the explicit loop
        slow = sample_aggregate_pair(slow_cfg, 10**6, SEED)
        for q in (0.99, 0.999):
            a = nearest_rank_quantile(fast.sum_values, q)
            b = nearest_rank_quantile(slow.sum_values, q)
            assert b == pytest.approx(a, rel=0.08)

    def test_stationarity_first_vs_second_half(self):
        config = make_config(follower_deps=(DependenceSpec.moving_maxima(1, 1),))
        path = sample_aggregate(config, 10**6, SEED).values
        first, second = path[: 5 * 10**5], path[5 * 10**5 :]
        for q in (0.5, 0.9, 0.99):
            u = nearest_rank_quantile(first, q)
            p1 = np.mean(first > u)
            p2 = np.mean(second > u)
            se = math.sqrt(p1 * (1 - p1) * (1 / len(first) + 1 / len(second)))
            assert abs(p1 - p2) <= 3 * se

    def test_seed_determinism(self):
        a = sample_aggregate_pair(make_config(), 5000, SEED)
        b = sample_aggregate_pair(make_config(), 5000, SEED)
        assert np.array_equal(a.sum_values, b.sum_values)
        assert np.array_equal(a.in_degrees, b.in_degrees)

    def test_adversarial_coupling_needs_explicit_columns(self):
        with pytest.raises(ConfigurationError):
            sample_aggregate_pair(
                make_config(coupling="adversarial"), 1000, SEED
            )

    def test_adversarial_coupling_runs_and_preserves_marginals(self):
        config = make_config(
            coupling="adversarial",
            follower_deps=(DependenceSpec.moving_maxima(1, 1),),
            in_degree=InDegreeSpec(alpha=2.0, n_max=10),
        )
        pair = sample_aggregate_pair(config, 10**4, SEED)
        plain = sample_aggregate_pair(
            make_config(
                follower_deps=(DependenceSpec.moving_maxima(1, 1),),
                in_degree=InDegreeSpec(alpha=2.0, n_max=10),
            ),
            10**4,
            SEED,
        )
        # the rearrangement permutes in-degrees without changing their law
        assert np.array_equal(np.sort(pair.in_degrees), np.sort(plain.in_degrees))
        assert not np.array_equal(pair.sum_values, plain.sum_values)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            make_config(damping=1.0)
        with pytest.raises(ParameterError):
            make_config(aggregate="median")
        with pytest.raises(ConfigurationError):
            make_config(fixed_in_degree=51)  # exceeds n_max columns


class TestWeightedPair:
    def test_sum_dominates_max(self):
        from rank_extremes.heavytail import SequenceSpec

        comps = [
            (1.0, SequenceSpec(TailSpec(2.0))),
            (2.0, SequenceSpec(TailSpec(2.0), DependenceSpec.moving_maxima(1, 1))),
        ]
        s, m = sample_weighted_pair(comps, 10**4, SEED)
        assert np.all(s >= m)
        assert len(s) == 10**4

    def test_validation(self):
        with pytest.raises(ParameterError):
            sample_weighted_pair([], 100, SEED)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           zs=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=4),
           n=st.integers(1, 300))
    def test_matches_expression_bit_for_bit(self, seed, zs, n):
        deps = (DependenceSpec.iid(), DependenceSpec.moving_maxima(1, 1))
        comps = [(z, SequenceSpec(TailSpec(1.5), deps[i % 2])) for i, z in enumerate(zs)]
        sums, maxes = np.zeros(n), np.zeros(n)
        for i, (z, seq) in enumerate(comps, start=1):
            col = z * sample_sequence(seq, n, child_rng(seed, STREAMS["column"], i))
            sums += col
            np.maximum(maxes, col, out=maxes)
        got = sample_weighted_pair(comps, n, seed)
        assert got[0].tobytes() == sums.tobytes()
        assert got[1].tobytes() == maxes.tobytes()


class TestAggregatePairCombination:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), damping=st.floats(0.05, 0.95),
           columns=st.sampled_from(["iid", "explicit", "adversarial"]),
           n=st.integers(1, 300))
    def test_matches_expression_bit_for_bit(self, seed, damping, columns, n):
        deps = ((DependenceSpec.iid(),) if columns == "iid"
                else (DependenceSpec.moving_maxima(1, 1), DependenceSpec.iid()))
        config = make_config(
            damping=damping, in_degree=InDegreeSpec(alpha=1.5, n_max=12),
            follower_deps=deps,
            coupling=COUPLING_ADVERSARIAL if columns == "adversarial" else COUPLING_INDEPENDENT)
        in_deg = _draw_in_degrees(config, n, child_rng(seed, STREAMS["in_degree"]))
        q = sample_pareto(config.preference_tail, n, child_rng(seed, STREAMS["preference"]))
        if columns == "iid":
            total = int(in_deg.sum())
            draws = sample_pareto(config.follower_tail, max(total, 1),
                                  child_rng(seed, STREAMS["column"]))[:total]
            f_sum, f_max = _segment_reduce(draws, in_deg, np.add, np.maximum)
        else:
            f_sum, f_max = masked_column_contributions(config, n, seed, in_deg)
        pref_term = config.z_star * q
        pair = sample_aggregate_pair(config, n, seed)
        assert pair.sum_values.tobytes() == (damping * f_sum + pref_term).tobytes()
        assert pair.max_values.tobytes() == np.maximum(damping * f_max, pref_term).tobytes()
        assert np.array_equal(pair.in_degrees, in_deg)
        assert pair.preference.tobytes() == q.tobytes()


# ties, a subnormal, huge values, both zeros, infinities and NaN
SPECIAL_VALUES = np.array([
    1.5, 1.5, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e300,
    0.0, -0.0, np.inf, -np.inf, np.nan, 0.1, 1 / 3, 123456789012345678.0,
])


def path_of(values):
    n = len(values)
    return AggregatePath(values=values, config=make_config(), seed=SEED, n=n,
                         in_degrees=np.ones(n, dtype=np.int64), preference=values)


def csv_body(path):
    return path.to_csv().split("value\n", 1)[1]


def savetxt_body(values):
    """The path CSV body as ``np.savetxt`` wrote it before block formatting."""
    buf = io.StringIO()
    np.savetxt(buf, values, fmt="%.17g")
    return buf.getvalue()


def masked_column_contributions(config, n, seed, in_deg):
    """Boolean-mask formulation of the explicit-column follower terms."""
    max_n = int(in_deg.max()) if len(in_deg) else 0
    sums = np.zeros(n)
    maxes = np.zeros(n)
    for j in range(1, max_n + 1):
        col = sample_sequence(SequenceSpec(config.follower_tail, config.column_dep(j)), n,
                              child_rng(seed, STREAMS["column"], j))
        if config.coupling == COUPLING_ADVERSARIAL and j == 1:
            order = np.argsort(col, kind="stable")
            rearranged = np.empty(n, dtype=np.int64)
            rearranged[order] = np.sort(in_deg)
            in_deg[:] = rearranged
        mask = in_deg >= j
        sums[mask] += col[mask]
        np.maximum(maxes, np.where(mask, col, 0.0), out=maxes)
    return sums, maxes


class TestCsvExport:
    def test_round_trip_and_header_order(self):
        path = sample_aggregate(make_config(), 1500, SEED)
        text = path.to_csv()
        lines = text.splitlines()
        keys = [ln.split("=")[0][2:] for ln in lines if ln.startswith("#")]
        assert keys == [
            "damping", "alpha", "n_max", "fixed_in_degree", "follower_k",
            "follower_c", "follower_deps", "beta", "preference_c",
            "aggregate", "coupling", "n", "seed",
        ]
        values = read_path_csv(io.StringIO(text))
        assert np.allclose(values, path.values)

    @pytest.mark.parametrize("length", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_body_matches_savetxt_across_block_sizes(self, length):
        values = np.resize(SPECIAL_VALUES, length)
        assert csv_body(path_of(values)) == savetxt_body(values)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(width=64), max_size=40))
    def test_body_matches_savetxt(self, values):
        values = np.array(values, dtype=float)
        assert csv_body(path_of(values)) == savetxt_body(values)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(
        st.one_of(st.floats(allow_nan=False), st.just(float("nan"))), max_size=40))
    def test_read_returns_written_values_bit_exactly(self, values):
        values = np.array(values, dtype=float)
        back = read_path_csv(io.StringIO(path_of(values).to_csv()))
        assert back.dtype == np.float64 and back.tobytes() == values.tobytes()

    def test_read_skips_blank_and_comment_lines_after_values(self):
        text = "# n=3\n\nvalue\n1.5\n\n# note\n-0\n  2e300  \n\n"
        back = read_path_csv(io.StringIO(text))
        assert back.tobytes() == np.array([1.5, -0.0, 2e300]).tobytes()

    @pytest.mark.parametrize("body, lineno", [
        ("1\nabc\n2\n", 4),
        ("1\n2 3\n", 4),
        ("1\n2\nvalue\n", 5),
        ("1\n" * 300 + "x\n" + "2\n" * 30, 303),
        ("1\n" * (BLOCK_ROWS + 5) + "x\n", BLOCK_ROWS + 8),
    ])
    def test_read_names_first_bad_line(self, body, lineno):
        text = "# n=1\nvalue\n" + body
        with pytest.raises(DataError, match=f":{lineno}: "):
            read_path_csv(io.StringIO(text))


class TestColumnContributions:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(1.1, 3.0),
           coupling=st.sampled_from([COUPLING_INDEPENDENT, COUPLING_ADVERSARIAL]),
           floor=st.integers(0, 12))
    def test_matches_mask_formulation(self, seed, alpha, coupling, floor):
        config = make_config(
            in_degree=InDegreeSpec(alpha=alpha, n_max=12),
            follower_deps=(DependenceSpec.moving_maxima(1, 1), DependenceSpec.iid()),
            coupling=coupling,
        )
        n = 400
        # power-law in-degrees; raising the smallest ones to `floor` makes
        # the first columns include every row (all 12 when floor = 12)
        in_deg = np.maximum(sample_power_law_int(config.in_degree, n, seed), floor)
        expected_deg = in_deg.copy()
        want = masked_column_contributions(config, n, seed, expected_deg)
        caller_deg = in_deg.copy()
        got = _column_contributions(config, n, seed, caller_deg)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tobytes() == expected_deg.tobytes()
        # the rearrangement is returned, never written into the caller's array
        assert np.array_equal(caller_deg, in_deg)


def looped_segment_sum_max(values, counts):
    """Reference for ``_segment_reduce`` by sum and maximum: a Python loop
    over each segment, adding left to right from its first value, 0 for an
    empty segment."""
    sums = np.zeros(len(counts))
    maxes = np.zeros(len(counts))
    start = 0
    for i, count in enumerate(counts):
        if count:
            total = top = float(values[start])
            for v in values[start + 1:start + count].tolist():
                total += v
                top = v if v > top else top
            sums[i], maxes[i] = total, top
        start += count
    return sums, maxes


class TestSegmentSumMax:
    @settings(max_examples=300, deadline=None)
    @given(lead=st.integers(0, 3), left=st.lists(st.integers(0, 20), max_size=10),
           right=st.lists(st.integers(0, 20), max_size=10), trail=st.integers(0, 3),
           data=st.data())
    def test_matches_per_segment_loop(self, lead, left, right, trail, data):
        # zero-length segments at the start, in the middle and at the end;
        # all counts are zero (no values) when left and right hold only 0
        counts = np.array([0] * lead + left + [0] + right + [0] * trail, dtype=np.int64)
        total = int(counts.sum())
        # multiples of 2^-16 below 2^30 in magnitude: every partial sum is
        # exact, so NumPy's order of addition and the loop's give equal bits
        values = np.array(data.draw(st.lists(
            st.integers(-2**46, 2**46), min_size=total, max_size=total)),
            dtype=float) / 2**16
        got = _segment_reduce(values, counts, np.add, np.maximum)
        want = looped_segment_sum_max(values, counts)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_all_zero_counts_give_zeros(self):
        sums, maxes = _segment_reduce(np.zeros(0), np.zeros(4, dtype=np.int64),
                                      np.add, np.maximum)
        assert sums.tobytes() == maxes.tobytes() == np.zeros(4).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(counts=st.lists(st.integers(1, 30), min_size=1, max_size=40),
           gaps=st.data(), seed=SEEDS)
    def test_direct_path_equals_masked_path(self, counts, gaps, seed):
        # counts >= 1 take reduceat on the offsets as they are; the same
        # segments with empty ones between them take the masked path.  The
        # values are exact partial sums, as in the test above, so the loop
        # gives the same bits too
        values = np.random.default_rng(seed).integers(-2**46, 2**46, sum(counts)) / 2**16
        direct = _segment_reduce(values, np.array(counts), np.add, np.maximum)
        zeros = gaps.draw(st.lists(st.integers(0, 2), min_size=len(counts) + 1,
                                   max_size=len(counts) + 1))
        padded = [0] * zeros[0]
        for count, gap in zip(counts, zeros[1:]):
            padded += [count] + [0] * gap
        padded = np.array(padded)
        masked = _segment_reduce(values, padded, np.add, np.maximum)
        looped = looped_segment_sum_max(values, np.array(counts))
        for got, via_mask, want in zip(direct, masked, looped):
            assert got.tobytes() == via_mask[padded > 0].tobytes() == want.tobytes()
            assert not via_mask[padded == 0].any()
        # on rounded sums the two paths still run the same reduceat segments
        draws = sample_pareto(TailSpec(1.5), sum(counts), seed)
        direct = _segment_reduce(draws, np.array(counts), np.add, np.maximum)
        masked = _segment_reduce(draws, padded, np.add, np.maximum)
        for got, via_mask in zip(direct, masked):
            assert got.tobytes() == via_mask[padded > 0].tobytes()

    @pytest.mark.parametrize("ufuncs", [(np.add,), (np.maximum,), (np.maximum, np.add)])
    @pytest.mark.parametrize("counts", [[3, 1, 2], [0, 3, 0, 3]])
    def test_each_ufunc_reduces_alone(self, ufuncs, counts):
        values = np.arange(6.0)[::-1]
        both = dict(zip((np.add, np.maximum),
                        looped_segment_sum_max(values, np.array(counts))))
        got = _segment_reduce(values, np.array(counts), *ufuncs)
        assert [g.tobytes() for g in got] == [both[u].tobytes() for u in ufuncs]


class TestTbt:
    def test_depth_zero_is_preference_draw(self):
        config = make_config()
        out = simulate_tbt(config, depth=0, n_roots=1000, seed=SEED,
                           constant_preference=1.0)
        assert np.allclose(out.root_values, config.z_star)

    def test_depth_one_hand_expansion(self):
        # N = 2 children, D = 1, q = 1: R = 2c(1-c) + (1-c)
        config = make_config(fixed_in_degree=2)
        out = simulate_tbt(config, depth=1, n_roots=500, seed=SEED,
                           constant_preference=1.0)
        c = config.damping
        expected = 2 * c * (1 - c) + (1 - c)
        assert np.allclose(out.root_values, expected)
        assert out.total_nodes == 500 + 1000

    def test_depth_one_max_hand_expansion(self):
        config = make_config(fixed_in_degree=2, aggregate=MAX)
        out = simulate_tbt(config, depth=1, n_roots=500, seed=SEED,
                           constant_preference=1.0)
        c = config.damping
        expected = max(c * (1 - c), 1 - c)
        assert np.allclose(out.root_values, expected)

    def test_depth_truncation_converges(self):
        # c = 0.5: once c^d < 1e-3 (d >= 10), deeper expansion moves the
        # 99% root quantile by < 5%
        config = make_config(in_degree=InDegreeSpec(alpha=2.0, n_max=50))
        q = {}
        for depth in (10, 11):
            out = simulate_tbt(config, depth=depth, n_roots=20000, seed=SEED)
            q[depth] = nearest_rank_quantile(out.root_values, 0.99)
        assert abs(q[11] - q[10]) / q[10] < 0.05

    def test_root_tail_index_sum_variant(self):
        # sums transfer the in-degree tail: root tail index = min(alpha, beta)
        # (needs a wide in-degree support, truncation hides the alpha tail)
        config = make_config(
            damping=0.5,
            in_degree=InDegreeSpec(alpha=1.5, n_max=10**4),
            preference_tail=TailSpec(2.0),
            aggregate=SUM,
        )
        estimates = []
        for rep in range(5):
            out = simulate_tbt(config, depth=6, n_roots=20000, seed=SEED + rep)
            est = hill(out.root_values, ThresholdRule.top_fraction(0.01))
            estimates.append(est.estimate)
        median = float(np.median(estimates))
        assert abs(median - 1.5) / 1.5 <= 0.15

    def test_root_tail_index_max_variant(self):
        # maxima do not transfer the in-degree tail when E[N] is finite: a
        # large N only multiplies the exceedance probability, so the root
        # tail index is the preference index beta
        config = make_config(
            damping=0.5,
            in_degree=InDegreeSpec(alpha=1.5, n_max=10**4),
            preference_tail=TailSpec(2.0),
            aggregate=MAX,
        )
        estimates = []
        for rep in range(5):
            out = simulate_tbt(config, depth=6, n_roots=20000, seed=SEED + rep)
            est = hill(out.root_values, ThresholdRule.top_fraction(0.01))
            estimates.append(est.estimate)
        median = float(np.median(estimates))
        assert abs(median - 2.0) / 2.0 <= 0.15

    @pytest.mark.parametrize("aggregate", [SUM, MAX])
    @pytest.mark.parametrize("out_degree", [None, InDegreeSpec(alpha=2.0, n_max=5)])
    def test_zero_in_degree_gives_bare_roots(self, aggregate, out_degree):
        config = make_config(fixed_in_degree=0, aggregate=aggregate)
        roots = simulate_tbt(config, depth=0, n_roots=50, seed=SEED)
        out = simulate_tbt(config, depth=4, n_roots=50, seed=SEED, out_degree=out_degree)
        assert out.total_nodes == 50
        assert out.root_values.tobytes() == roots.root_values.tobytes()

    def test_resource_budget_enforced(self):
        config = make_config(fixed_in_degree=5)
        with pytest.raises(ResourceError):
            simulate_tbt(config, depth=12, n_roots=1000, seed=SEED)

    def test_expected_tree_size_formula(self):
        config = make_config(fixed_in_degree=2)
        # geometric series: 1 + 2 + 4 = 7 nodes per root at depth 2
        assert expected_tree_size(config, 2, 10) == pytest.approx(70.0)


class TestCompareTailSumMax:
    def test_empty_threshold_list(self):
        assert compare_tail_sum_max(make_config(), 2000, [], SEED) == []

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ParameterError):
            compare_tail_sum_max(make_config(), 2000, [0.5], SEED)

    def test_single_column_ratio_near_one(self):
        config = make_config(fixed_in_degree=1, follower_tail=TailSpec(1.2))
        rows = compare_tail_sum_max(config, 10**7, [0.999], SEED)
        row = rows[0]
        assert row.reliable
        assert 0.9 <= row.ratio <= 1.1
        assert row.ci_low <= row.ratio <= row.ci_high

    def test_exceedance_counts_are_paired(self):
        rows = compare_tail_sum_max(make_config(), 10**5, [0.99, 0.995], SEED)
        for row in rows:
            # sum path dominates, so it must exceed at least as often
            assert row.exceed_sum >= row.exceed_max
            assert row.ratio >= 1.0

    def test_unreliable_rows_flagged(self):
        rows = compare_tail_sum_max(make_config(), 10**4, [0.9995], SEED)
        assert not rows[0].reliable


def whole_path_rows(config, n, thresholds, seed):
    """(threshold, exceed_sum, exceed_max) per quantile from the whole pair:
    a full sort of the max path and counts over the full arrays."""
    pair = sample_aggregate_pair(config, n, seed)
    ordered = np.sort(pair.max_values)
    out = []
    for qv in thresholds:
        x = float(ordered[min(math.ceil(qv * n) - 1, n - 1)])
        out.append((x, int(np.sum(pair.sum_values > x)), int(np.sum(pair.max_values > x))))
    return out


# a tail index this large puts every draw within a few hundred ulps of its
# scale, so the paths hold many tied values
TIED = TailSpec(1e15)
IN_DEGREES = {
    "none": dict(fixed_in_degree=0),
    "one": dict(fixed_in_degree=1),
    "power-law": dict(in_degree=InDegreeSpec(alpha=1.2, n_max=20)),
    "tied": dict(in_degree=InDegreeSpec(alpha=1.2, n_max=3), follower_tail=TIED,
                 preference_tail=TIED),
    "tied-none": dict(fixed_in_degree=0, preference_tail=TIED),
}


class TestPairMaxima:
    @settings(max_examples=120, deadline=None)
    @given(seed=SEEDS, damping=st.sampled_from([0.1, 0.5, 0.9]) | st.floats(0.01, 0.99),
           n=st.integers(1, 300), in_degrees=st.sampled_from(sorted(IN_DEGREES)),
           explicit=st.booleans())
    def test_equals_the_pair(self, seed, damping, n, in_degrees, explicit):
        deps = ((DependenceSpec.moving_maxima(1, 1),) if explicit
                else (DependenceSpec.iid(),))
        config = make_config(damping=damping, follower_deps=deps, **IN_DEGREES[in_degrees])
        sum_max, max_max, q = pair_maxima(config, n, seed)
        pair = sample_aggregate_pair(config, n, seed)
        assert type(sum_max) is type(max_max) is float
        assert sum_max == float(pair.sum_values.max())
        assert max_max == float(pair.max_values.max())
        assert q.tobytes() == pair.preference.tobytes()

    def test_checks_its_arguments(self):
        with pytest.raises(ParameterError):
            pair_maxima(make_config(), 0, SEED)
        with pytest.raises(ConfigurationError):
            pair_maxima(make_config(coupling=COUPLING_ADVERSARIAL), 10, SEED)


class TestStreamedComparison:
    @settings(max_examples=120, deadline=None)
    @given(seed=SEEDS, block_rows=st.sampled_from([1, 2, 5, 16]), blocks=st.integers(0, 6),
           offset=st.sampled_from([-1, 0, 1]), in_degrees=st.sampled_from(sorted(IN_DEGREES)),
           thresholds=st.lists(st.sampled_from([0.901, 0.95, 0.99, 0.999]), min_size=1,
                               max_size=3))
    def test_blocks_equal_the_whole_path(self, seed, block_rows, blocks, offset, in_degrees,
                                         thresholds):
        # n below, at and across multiples of the block size
        n = max(1, block_rows * blocks + offset)
        config = make_config(**IN_DEGREES[in_degrees])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recursion, "PAIR_BLOCK_ROWS", block_rows)
            rows = compare_tail_sum_max(config, n, thresholds, seed)
        want = whole_path_rows(config, n, thresholds, seed)
        assert [(r.threshold, r.exceed_sum, r.exceed_max) for r in rows] == want
        assert [r.quantile for r in rows] == thresholds

    def test_tied_paths_hold_ties(self):
        config = make_config(**IN_DEGREES["tied"])
        pair = sample_aggregate_pair(config, 2000, SEED)
        assert len(np.unique(pair.max_values)) < 200

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, block_rows=st.integers(1, 40), n=st.integers(1, 200),
           in_degrees=st.sampled_from(sorted(IN_DEGREES)))
    def test_concatenated_blocks_equal_the_pair(self, seed, block_rows, n, in_degrees):
        config = make_config(**IN_DEGREES[in_degrees])
        blocks = list(_iid_pair_blocks(config, n, seed, block_rows))
        assert [len(b[0]) for b in blocks[:-1]] == [block_rows] * (len(blocks) - 1)
        pair = sample_aggregate_pair(config, n, seed)
        sums, maxes, in_deg, q = (np.concatenate(parts) for parts in zip(*blocks))
        assert sums.tobytes() == pair.sum_values.tobytes()
        assert maxes.tobytes() == pair.max_values.tobytes()
        assert in_deg.tobytes() == pair.in_degrees.tobytes()
        assert q.tobytes() == pair.preference.tobytes()

    @pytest.mark.parametrize("coupling", [COUPLING_INDEPENDENT, COUPLING_ADVERSARIAL])
    def test_explicit_columns_give_the_whole_path_rows(self, coupling):
        config = make_config(follower_deps=(DependenceSpec.moving_maxima(1, 1),
                                            DependenceSpec.iid()), coupling=coupling)
        thresholds = [0.95, 0.99, 0.999]
        rows = compare_tail_sum_max(config, 20000, thresholds, SEED)
        want = whole_path_rows(config, 20000, thresholds, SEED)
        assert [(r.threshold, r.exceed_sum, r.exceed_max) for r in rows] == want

    def test_bad_length_refused(self):
        with pytest.raises(ParameterError):
            compare_tail_sum_max(make_config(), 0, [0.99], SEED)

    def test_memory_is_far_below_the_whole_path(self):
        # the whole pair at n = 4e6 peaks at about 259 MB
        tracemalloc.start()
        try:
            compare_tail_sum_max(make_config(), 4 * 10**6, [0.999], SEED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20
