"""Random-length aggregates, branching-tree expansion, paired tail ratios."""

import contextlib
import io
import itertools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank_extremes import recursion
from rank_extremes.errors import ConfigurationError, DataError, ParameterError, ResourceError
from rank_extremes.estimators import (
    ThresholdRule,
    hill,
    nearest_rank_quantile,
    upper_order_statistics,
)
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
    BlockRing,
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
from rank_extremes.rng import STREAMS, child_rng, child_rng_at
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


BLOCK_ROWS_CASES = st.sampled_from([1, 2, 5, 16, recursion.COLUMN_BLOCK_ROWS])


@contextlib.contextmanager
def column_kernel(block_rows, threads):
    """The explicit-column kernel at ``block_rows`` rows per block and at most
    ``threads`` drawing threads, for the duration of a ``with`` block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recursion, "COLUMN_BLOCK_ROWS", block_rows)
        mp.setattr(recursion, "_column_threads", lambda columns: min(threads, columns))
        yield


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
           zs=st.lists(st.one_of(st.just(1.0), st.floats(0.01, 10.0)), min_size=1, max_size=4),
           n=st.integers(1, 300), block_rows=BLOCK_ROWS_CASES, threads=st.sampled_from([1, 2]))
    def test_matches_expression_bit_for_bit(self, seed, zs, n, block_rows, threads):
        deps = (DependenceSpec.iid(), DependenceSpec.moving_maxima(1, 1))
        comps = [(z, SequenceSpec(TailSpec(1.5), deps[i % 2])) for i, z in enumerate(zs)]
        sums, maxes = np.zeros(n), np.zeros(n)
        for i, (z, seq) in enumerate(comps, start=1):
            col = z * sample_sequence(seq, n, child_rng(seed, STREAMS["column"], i))
            sums += col
            np.maximum(maxes, col, out=maxes)
        with column_kernel(block_rows, threads):
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


# dependence specs of 1 to 4 coefficients, zeros among them
DEPS = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=1, max_size=4).filter(
    any).map(lambda a: DependenceSpec.moving_maxima(*a))


class TestBlockedColumnKernel:
    N_MAX = 6

    @settings(max_examples=80, deadline=None)
    @given(seed=SEEDS, block_rows=st.sampled_from([1, 2, 5, 16]), blocks=st.integers(1, 3),
           offset=st.integers(-1, 1), threads=st.sampled_from([1, 2]),
           deps=st.lists(DEPS, min_size=1, max_size=3),
           in_degrees=st.sampled_from(["power", 0, 1, N_MAX]),
           coupling=st.sampled_from([COUPLING_INDEPENDENT, COUPLING_ADVERSARIAL]))
    def test_equals_the_whole_column_oracle(self, seed, block_rows, blocks, offset, threads,
                                            deps, in_degrees, coupling):
        # n below, at and just past a multiple of the block
        n = max(1, block_rows * blocks + offset)
        config = make_config(in_degree=InDegreeSpec(alpha=1.5, n_max=self.N_MAX),
                             follower_deps=tuple(deps), coupling=coupling)
        if in_degrees == "power":
            in_deg = sample_power_law_int(config.in_degree, n, seed)
        else:
            in_deg = np.full(n, in_degrees, dtype=np.int64)
        expected_deg = in_deg.copy()
        want = masked_column_contributions(config, n, seed, expected_deg)
        with column_kernel(block_rows, threads):
            got = _column_contributions(config, n, seed, in_deg.copy())
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tobytes() == expected_deg.tobytes()

    # up to three drawing threads, with the interpreter switching threads
    # every 10 us
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_a_column_is_never_drawn_twice_at_once(self, threads, monkeypatch):
        active, seen = set(), []
        lock = threading.Lock()
        fill = recursion.SequenceStream.fill

        def tracked(stream, out, work=None):
            with lock:
                assert stream not in active
                active.add(stream)
                seen.append(len(active))
            try:
                return fill(stream, out, work)
            finally:
                with lock:
                    active.discard(stream)

        monkeypatch.setattr(recursion.SequenceStream, "fill", tracked)
        config = make_config(follower_deps=(DependenceSpec.moving_maxima(1, 1),),
                             fixed_in_degree=5)
        in_deg = np.full(40, 5, dtype=np.int64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with column_kernel(4, threads):
                got = _column_contributions(config, 40, SEED, in_deg)
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 5 * 10 and max(seen) <= threads
        want = masked_column_contributions(config, 40, SEED, in_deg.copy())
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_failing_draw_raises_unchanged_and_joins_the_pool(self, threads, monkeypatch):
        class Boom(Exception):
            pass

        fill = recursion.SequenceStream.fill
        calls = itertools.count(1)  # next() is atomic: the GIL covers the C call

        def failing(stream, out, work=None):
            if next(calls) == 7:
                raise Boom("column draw failed")
            return fill(stream, out, work)

        monkeypatch.setattr(recursion.SequenceStream, "fill", failing)
        config = make_config(fixed_in_degree=5)
        before = threading.active_count()
        with column_kernel(4, threads), pytest.raises(Boom, match="column draw failed"):
            _column_contributions(config, 40, SEED, np.full(40, 5, dtype=np.int64))
        assert threading.active_count() == before

    def test_thread_count_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(recursion.os, "sched_getaffinity", lambda pid: {0, 3, 5})
        assert recursion._column_threads(100) == 3
        assert recursion._column_threads(2) == 2
        assert recursion._column_threads(1) == 1

    def test_thread_count_without_cpu_affinity(self, monkeypatch):
        # os.sched_getaffinity is Linux-only; elsewhere the CPU count serves
        monkeypatch.delattr(recursion.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(recursion.os, "cpu_count", lambda: 4)
        assert recursion._column_threads(100) == 4
        assert recursion._column_threads(3) == 3
        monkeypatch.setattr(recursion.os, "cpu_count", lambda: None)
        assert recursion._column_threads(100) == 1

    def test_a_pool_worker_draws_on_one_thread(self, monkeypatch):
        monkeypatch.setattr(recursion.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        with ProcessPoolExecutor(max_workers=1) as pool:
            assert pool.submit(recursion._column_threads, 100).result() == 1


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
    @given(counts=st.lists(st.integers(1, 20), max_size=21), data=st.data())
    def test_matches_per_segment_loop(self, counts, data):
        counts = np.array(counts, dtype=np.int64)
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

    @pytest.mark.parametrize("counts", [[0, 3, 0, 3], [3, 3, 0], [0, 6]])
    def test_an_empty_segment_among_values_is_refused(self, counts):
        with pytest.raises(ValueError, match="needs a value"):
            _segment_reduce(np.arange(6.0), np.array(counts), np.add)

    @pytest.mark.parametrize("ufuncs", [(np.add,), (np.maximum,), (np.maximum, np.add)])
    @pytest.mark.parametrize("counts", [[3, 1, 2], [1, 1, 4]])
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
           explicit=st.booleans(), top=st.integers(1, 400))
    def test_equals_the_pair(self, seed, damping, n, in_degrees, explicit, top):
        deps = ((DependenceSpec.moving_maxima(1, 1),) if explicit
                else (DependenceSpec.iid(),))
        config = make_config(damping=damping, follower_deps=deps, **IN_DEGREES[in_degrees])
        sum_max, max_max, q_top = pair_maxima(config, n, seed, top)
        pair = sample_aggregate_pair(config, n, seed)
        assert type(sum_max) is type(max_max) is float
        assert sum_max == float(pair.sum_values.max())
        assert max_max == float(pair.max_values.max())
        assert q_top.tobytes() == upper_order_statistics(pair.preference, min(top, n)).tobytes()

    def test_checks_its_arguments(self):
        with pytest.raises(ParameterError):
            pair_maxima(make_config(), 0, SEED, 1)
        with pytest.raises(ParameterError):
            pair_maxima(make_config(), 10, SEED, 0)
        with pytest.raises(ConfigurationError):
            pair_maxima(make_config(coupling=COUPLING_ADVERSARIAL), 10, SEED, 1)


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
        # a block's arrays are a ring's, valid until the next block is asked for
        blocks = [tuple(a.copy() for a in block)
                  for block in _iid_pair_blocks(config, n, seed, block_rows, BlockRing())]
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


def whole_iid_draws(config, n, seed):
    """The draws of an i.i.d.-column config in one serial pass over the whole
    path: the in-degrees, the raw preference draws, and the follower draws,
    row ``t`` taking the next ``in_deg[t]`` of them."""
    deg_rng = child_rng(seed, STREAMS["in_degree"])
    pref_rng = child_rng(seed, STREAMS["preference"])
    col_rng = child_rng(seed, STREAMS["column"])
    in_deg = _draw_in_degrees(config, n, deg_rng)
    q = sample_pareto(config.preference_tail, n, pref_rng)
    total = int(in_deg.sum())
    draws = sample_pareto(config.follower_tail, max(total, 1), col_rng)
    return in_deg, q, draws[:total]


def whole_iid_pair(config, n, seed):
    """``(sums, maxes, in_deg, q)`` of :func:`whole_iid_draws`, written out as
    the expressions of the two aggregates."""
    in_deg, q, draws = whole_iid_draws(config, n, seed)
    f_sum, f_max = _segment_reduce(draws, in_deg, np.add, np.maximum)
    pref_term = config.z_star * q
    c = config.damping
    return c * f_sum + pref_term, np.maximum(c * f_max, pref_term), in_deg, q


@contextlib.contextmanager
def iid_kernel(block_rows, threads):
    """The i.i.d.-column kernel at ``block_rows`` rows per block and at most
    ``threads`` drawing threads, for the duration of a ``with`` block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recursion, "PAIR_BLOCK_ROWS", block_rows)
        mp.setattr(recursion, "_column_threads", lambda tasks: min(threads, tasks))
        yield


class TestThreadedIidKernel:
    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, block_rows=st.sampled_from([1, 2, 5, 16]), blocks=st.integers(1, 4),
           offset=st.integers(-1, 1), threads=st.integers(1, 3),
           in_degrees=st.sampled_from(sorted(IN_DEGREES)),
           damping=st.sampled_from([0.1, 0.5, 0.9]) | st.floats(0.01, 0.99),
           thresholds=st.lists(st.sampled_from([0.901, 0.95, 0.99, 0.999]), min_size=1,
                               max_size=3))
    def test_all_three_callers_equal_the_whole_path_oracle(
            self, seed, block_rows, blocks, offset, threads, in_degrees, damping, thresholds):
        # n below, at and just past a multiple of the block
        n = max(1, block_rows * blocks + offset)
        config = make_config(damping=damping, **IN_DEGREES[in_degrees])
        sums, maxes, in_deg, q = whole_iid_pair(config, n, seed)
        with iid_kernel(block_rows, threads):
            pair = sample_aggregate_pair(config, n, seed)
            maxima = pair_maxima(config, n, seed, 3)
            rows = compare_tail_sum_max(config, n, thresholds, seed)
        assert pair.sum_values.tobytes() == sums.tobytes()
        assert pair.max_values.tobytes() == maxes.tobytes()
        assert pair.in_degrees.tobytes() == in_deg.tobytes()
        assert pair.preference.tobytes() == q.tobytes()
        assert maxima[:2] == (float(sums.max()), float(maxes.max()))
        assert maxima[2].tobytes() == upper_order_statistics(q, min(3, n)).tobytes()
        ordered = np.sort(maxes)
        want = []
        for qv in thresholds:
            x = float(ordered[min(math.ceil(qv * n) - 1, n - 1)])
            want.append((x, int(np.sum(sums > x)), int(np.sum(maxes > x))))
        assert [(r.threshold, r.exceed_sum, r.exceed_max) for r in rows] == want

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, head=st.integers(0, 300) | st.integers(2**16, 2**20),
           tail=st.integers(1, 300), stream=st.sampled_from(["in_degree", "preference",
                                                             "column"]))
    def test_an_advanced_stream_continues_the_stream(self, seed, head, tail, stream):
        whole = child_rng(seed, STREAMS[stream]).random(head + tail)
        rng = child_rng(seed, STREAMS[stream])
        first = rng.random(head)
        rest = child_rng_at(seed, head, STREAMS[stream]).random(tail)
        assert np.concatenate([first, rest]).tobytes() == whole.tobytes()
        # the continuation is that of the generator that drew the head
        assert rng.random(tail).tobytes() == rest.tobytes()

    @pytest.mark.parametrize("fixed_in_degree", [0, 1])
    def test_a_block_draws_exactly_its_followers(self, fixed_in_degree, monkeypatch):
        drawn = []
        pareto = recursion.sample_pareto

        def counted(spec, n, rng, **kwargs):
            drawn.append((spec, n))
            return pareto(spec, n, rng, **kwargs)

        monkeypatch.setattr(recursion, "sample_pareto", counted)
        config = make_config(fixed_in_degree=fixed_in_degree)
        with iid_kernel(16, 2):
            pair = sample_aggregate_pair(config, 40, SEED)
        sizes = {spec: [] for spec in (config.follower_tail, config.preference_tail)}
        for spec, size in drawn:
            sizes[spec].append(size)
        assert sorted(sizes[config.preference_tail]) == [8, 16, 16]
        assert sorted(sizes[config.follower_tail]) == ([8, 16, 16] if fixed_in_degree else [])
        want = whole_iid_pair(config, 40, SEED)
        assert pair.sum_values.tobytes() == want[0].tobytes()
        assert pair.max_values.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_at_most_twice_the_threads_of_blocks_are_in_flight(self, threads, monkeypatch):
        config = make_config()
        started = []  # list.append is atomic under the GIL
        pareto = recursion.sample_pareto

        def counted(spec, n, rng, **kwargs):
            if spec == config.preference_tail:  # one preference draw per block
                started.append(n)
            return pareto(spec, n, rng, **kwargs)

        monkeypatch.setattr(recursion, "sample_pareto", counted)
        monkeypatch.setattr(recursion, "_column_threads", lambda tasks: min(threads, tasks))
        ahead = []
        blocks = _iid_pair_blocks(config, 200, SEED, 5, BlockRing())
        for done, _ in enumerate(blocks, start=1):
            ahead.append(len(started) - done)
        assert len(ahead) == 40 and max(ahead) <= 2 * threads

    def test_threads_writing_adjacent_rows_lose_no_value(self):
        # three drawing threads on two-row blocks write neighbouring slices
        # of the same outputs, and the comparison's blocks take turns in the
        # six slots of its ring, with the interpreter switching every 10 us
        config = make_config(in_degree=InDegreeSpec(alpha=1.2, n_max=20))
        want = whole_iid_pair(config, 2001, SEED)
        want_rows = whole_path_rows(config, 2001, [0.95, 0.99], SEED)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with iid_kernel(2, 3):
                pair = sample_aggregate_pair(config, 2001, SEED)
                rows = compare_tail_sum_max(config, 2001, [0.95, 0.99], SEED)
        finally:
            sys.setswitchinterval(interval)
        got = (pair.sum_values, pair.max_values, pair.in_degrees, pair.preference)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert [(r.threshold, r.exceed_sum, r.exceed_max) for r in rows] == want_rows

    @pytest.mark.parametrize("caller", ["pair", "maxima", "compare"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_failing_block_raises_unchanged_and_joins_the_pool(self, caller, threads,
                                                                 monkeypatch):
        class Boom(Exception):
            pass

        pareto = recursion.sample_pareto
        calls = itertools.count(1)  # next() is atomic: the GIL covers the C call

        def failing(spec, n, rng, **kwargs):
            if next(calls) == 7:
                raise Boom("block draw failed")
            return pareto(spec, n, rng, **kwargs)

        monkeypatch.setattr(recursion, "sample_pareto", failing)
        config = make_config()
        run = {"pair": lambda: sample_aggregate_pair(config, 200, SEED),
               "maxima": lambda: pair_maxima(config, 200, SEED, 5),
               "compare": lambda: compare_tail_sum_max(config, 200, [0.95], SEED)}[caller]
        before = threading.active_count()
        with iid_kernel(10, threads), pytest.raises(Boom, match="block draw failed"):
            run()
        assert threading.active_count() == before


@pytest.fixture
def ring_records(monkeypatch):
    """Every slot array a :class:`BlockRing` of ``recursion`` hands out, with
    its slot, and every block the blocked kernels yield to their consumer."""
    handed, slots, blocks = [], [], []

    class RecordingRing(BlockRing):
        def get(self, slot, name, size, dtype=np.float64):
            slots.append(slot)
            handed.append(super().get(slot, name, size, dtype))
            return handed[-1]

    in_order = recursion._in_order

    def recording(tasks, threads, ahead):
        for result in in_order(tasks, threads, ahead):
            blocks.append(result)
            yield result

    monkeypatch.setattr(recursion, "BlockRing", RecordingRing)
    monkeypatch.setattr(recursion, "_in_order", recording)
    return handed, slots, blocks


def in_ring(array, handed):
    return any(np.shares_memory(array, a) for a in handed)


class TestOneBlockRing:
    def test_streamed_comparison_blocks_live_in_the_ring(self, ring_records):
        handed, slots, blocks = ring_records
        config = make_config()
        want = whole_path_rows(config, 40, [0.95], SEED)
        for record in ring_records:
            record.clear()
        with iid_kernel(5, 2):
            rows = compare_tail_sum_max(config, 40, [0.95], SEED)
        assert [(r.threshold, r.exceed_sum, r.exceed_max) for r in rows] == want
        # eight blocks in the four slots of two threads
        assert len(blocks) == 8 and sorted(set(slots)) == [0, 1, 2, 3]
        assert all(in_ring(a, handed) for block in blocks for a in block)
        # block i + 4 reuses the arrays of block i
        assert all(np.shares_memory(a, b)
                   for i in range(4) for a, b in zip(blocks[i], blocks[i + 4]))

    def test_pair_blocks_are_the_rows_of_its_outputs(self, ring_records):
        handed, _, blocks = ring_records
        with iid_kernel(5, 2):
            pair = sample_aggregate_pair(make_config(), 40, SEED)
        outputs = (pair.sum_values, pair.max_values, pair.in_degrees, pair.preference)
        for i, block in enumerate(blocks):
            rows = slice(5 * i, 5 * i + 5)
            assert all(np.shares_memory(a, out[rows]) for a, out in zip(block, outputs))
            assert not any(in_ring(a, handed) for a in block)

    @pytest.mark.parametrize("threads, columns", [(1, 3), (2, 3), (3, 2)])
    def test_column_blocks_live_in_the_ring(self, ring_records, threads, columns):
        handed, slots, blocks = ring_records
        specs = [SequenceSpec(TailSpec(1.5), DependenceSpec.moving_maxima(1, 0.5)),
                 SequenceSpec(TailSpec(2.0))] * 2
        with column_kernel(4, threads):
            sample_weighted_pair([(0.5, seq) for seq in specs[:columns]], 40, SEED)
        assert len(blocks) == 10 * columns and all(in_ring(a, handed) for a in blocks)
        # no more slots than columns: a column's blocks are drawn one at a time
        ring_slots = min(2 * threads, columns)
        assert max(slots) == ring_slots - 1
        assert all(np.shares_memory(a, b) for a, b in zip(blocks, blocks[ring_slots:]))


# (follower tail, preference tail) pairs: the preference dominates (k > beta,
# few rows reach the floor), heavy followers (k < beta, many do), k = beta,
# and tied draws, whose sums and bounds often equal the floor
BOUNDED_TAILS = {
    "preference": (TailSpec(3.0), TailSpec(1.0)),
    "followers": (TailSpec(1.2), TailSpec(3.0)),
    "equal": (TailSpec(2.0), TailSpec(2.0)),
    "tied": (TIED, TIED),
}
BOUNDED_DEGREES = (st.sampled_from([0, 1]).map(lambda d: dict(fixed_in_degree=d))
                   | st.builds(lambda alpha, n_max: dict(in_degree=InDegreeSpec(alpha, n_max)),
                               st.sampled_from([0.5, 1.2, 2.0]),
                               st.sampled_from([1, 3, 100, 10**4])))


def refinement_counts(monkeypatch):
    """Records, per block of the maxima kernel, the rows it refines and the
    sizes of the follower draws it transforms."""
    rows, transformed = [], []
    reduce, transform = recursion._segment_reduce, recursion.pareto_transform

    def counted_reduce(values, counts, *ufuncs):
        rows.append(len(counts))
        return reduce(values, counts, *ufuncs)

    def counted_transform(spec, x):
        transformed.append(len(x))
        return transform(spec, x)

    monkeypatch.setattr(recursion, "_segment_reduce", counted_reduce)
    monkeypatch.setattr(recursion, "pareto_transform", counted_transform)
    return rows, transformed


class TestBoundAndRefine:
    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, tails=st.sampled_from(sorted(BOUNDED_TAILS)), degrees=BOUNDED_DEGREES,
           damping=st.sampled_from([0.01, 0.5, 0.99]) | st.floats(0.01, 0.99),
           block_rows=st.sampled_from([1, 2, 5, 16]), threads=st.integers(1, 3),
           sizes=st.lists(st.integers(1, 120), min_size=1, max_size=3),
           top=st.integers(1, 150))
    def test_equals_the_whole_path_oracle(self, seed, tails, degrees, damping, block_rows,
                                          threads, sizes, top):
        follower, preference = BOUNDED_TAILS[tails]
        config = make_config(damping=damping, follower_tail=follower,
                             preference_tail=preference, **degrees)
        # one ring for calls of several lengths, as a run of replications shares it
        ring = recursion.BlockRing()
        with iid_kernel(block_rows, threads):
            got = [pair_maxima(config, n, seed + i, top, ring=ring)
                   for i, n in enumerate(sizes)]
        for i, (n, (sum_max, max_max, q_top)) in enumerate(zip(sizes, got)):
            sums, maxes, _, q = whole_iid_pair(config, n, seed + i)
            assert (sum_max, max_max) == (float(sums.max()), float(maxes.max()))
            assert q_top.tobytes() == upper_order_statistics(q, min(top, n)).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, spec=st.sampled_from([TailSpec(3.0), TailSpec(0.5, 2.0), TIED]),
           n=st.integers(1, 300))
    def test_the_draw_bound_holds_for_a_pow_off_by_a_few_ulps(self, seed, spec, n):
        transform = recursion.pareto_transform

        def inexact(spec, x):
            # errs by up to 4 ulps either way, by a rule of the value's bits
            # that is not monotone
            y = transform(spec, x)
            bits = y.view(np.int64)
            bits += bits * 2654435761 % 9 - 4
            return y

        u = np.random.default_rng(seed).random(n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recursion, "pareto_transform", inexact)
            bound = recursion._draw_bound(spec, u.max())
            draws = inexact(spec, u.copy())
        assert draws.max() <= bound

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, x=st.floats(1.0, 1e6), damping=st.floats(0.01, 0.99),
           most=st.sampled_from([1, 3, 100, 10**4]), rows=st.integers(1, 200),
           spread=st.sampled_from([0.0, 1e-12, 0.5]))
    def test_a_row_never_sums_above_its_bound(self, seed, x, damping, most, rows, spread):
        # draws at or just below their bound x, whose sums round up the most
        rng = np.random.default_rng(seed)
        in_deg = rng.integers(0, most + 1, rows)
        draws = x * (1.0 - spread * rng.random(int(in_deg.sum())))
        pref = rng.random(rows) * x
        # a row without draws sums to 0; the others reduce as the kernel does
        f_sum = np.zeros(rows)
        f_sum[in_deg > 0] = _segment_reduce(draws, in_deg[in_deg > 0], np.add)[0]
        sums = np.add(np.multiply(damping, f_sum), pref)
        bounds = recursion._sum_bounds(in_deg, pref, damping * x, most, np.empty(rows))
        assert np.all(sums <= bounds)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_preference_defaults_refine_a_few_rows(self, seed, monkeypatch):
        # the verify-thm4 preference defaults: k = 3, alpha = 2, beta = 1,
        # n_max = 100, damping 0.5, replications of 10^5 rows (two blocks)
        config = make_config(in_degree=InDegreeSpec(alpha=2.0, n_max=100),
                             follower_tail=TailSpec(3.0), preference_tail=TailSpec(1.0))
        rows, transformed = refinement_counts(monkeypatch)
        got = pair_maxima(config, 10**5, seed, 501)
        sums, maxes, _, q = whole_iid_pair(config, 10**5, seed)
        assert got[:2] == (float(sums.max()), float(maxes.max()))
        assert len(rows) == 2 and all(1 <= r <= 8 for r in rows)
        # the largest uniform of each block, then the draws of its refined
        # rows: the about 1.4 * 10^5 follower draws are never all transformed
        assert len(transformed) == 4 and max(transformed) < 1000

    def test_heavy_followers_take_the_max_path_from_the_draws(self, monkeypatch):
        config = make_config(follower_tail=TailSpec(0.5), preference_tail=TailSpec(3.0))
        _, transformed = refinement_counts(monkeypatch)
        got = pair_maxima(config, 5000, SEED, 10)
        sums, maxes, _, q = whole_iid_pair(config, 5000, SEED)
        assert got[:2] == (float(sums.max()), float(maxes.max()))
        # the largest max value is a follower term, not a preference term
        assert maxes.max() > config.z_star * q.max()
        assert sum(transformed) > 5000  # every draw of the block, for its max

    def test_threads_sharing_a_ring_lose_no_value(self):
        # three drawing threads on two-row blocks take turns in the four
        # slots of one ring over several calls, with the interpreter
        # switching every 10 us
        config = make_config(in_degree=InDegreeSpec(alpha=1.2, n_max=20),
                             follower_tail=TailSpec(1.5), preference_tail=TailSpec(1.5))
        ring = recursion.BlockRing()
        want = [whole_iid_pair(config, 501, SEED + i) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with iid_kernel(2, 3):
                got = [pair_maxima(config, 501, SEED + i, 20, ring=ring) for i in range(3)]
        finally:
            sys.setswitchinterval(interval)
        for (sum_max, max_max, q_top), (sums, maxes, _, q) in zip(got, want):
            assert (sum_max, max_max) == (float(sums.max()), float(maxes.max()))
            assert q_top.tobytes() == upper_order_statistics(q, 20).tobytes()

    def test_a_shared_ring_allocates_its_buffers_once(self):
        config = make_config(in_degree=InDegreeSpec(alpha=2.0, n_max=100),
                             follower_tail=TailSpec(3.0), preference_tail=TailSpec(1.0))
        ring = recursion.BlockRing()
        for seed in (SEED, SEED + 1):  # the follower buffer grows to a last size
            pair_maxima(config, 10**5, seed, 501, ring=ring)
        peaks = []
        for r in (None, ring):
            tracemalloc.start()
            try:
                pair_maxima(config, 10**5, SEED + 2, 501, ring=r)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a fresh ring holds several 512 KB arrays per slot; a shared one
        # leaves the 64 KB of the in-degree lookup's bucket flags
        assert peaks[0] > 4 * 2**20 and peaks[1] < 2**18
