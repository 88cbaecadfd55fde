"""Random-length aggregates, branching-tree expansion, paired tail ratios."""

import contextlib
import io
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rank_extremes import experiments, recursion, rng, textio
from rank_extremes.errors import ConfigurationError, DataError, ParameterError, ResourceError
from rank_extremes.estimators import (
    TailSample,
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
    MAX,
    SUM,
    AggregatePath,
    BlockRing,
    RecursionConfig,
    _draw_in_degrees,
    _iid_blocks,
    _iid_bounded_blocks,
    _segment_reduce,
    compare_tail_sum_max,
    expected_tree_size,
    pair_maxima,
    read_path_csv,
    sample_aggregate,
    sample_aggregate_pair,
    sample_weighted_pair,
    simulate_tbt,
    weighted_pair_blocks,
)
from rank_extremes.rng import STREAMS, child_rng, replication_seed
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
        config = make_config()
        pair = sample_aggregate_pair(config, 10**4, SEED)
        assert np.all(pair.max_values >= config.z_star * pair.preference)

    def test_aggregate_selection(self):
        sum_path = sample_aggregate(make_config(aggregate=SUM), 2000, SEED)
        max_path = sample_aggregate(make_config(aggregate=MAX), 2000, SEED)
        pair = sample_aggregate_pair(make_config(), 2000, SEED)
        assert np.array_equal(sum_path.values, pair.sum_values)
        assert np.array_equal(max_path.values, pair.max_values)

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, block_rows=st.sampled_from([1, 2, 5, 16]), n=st.integers(1, 60),
           aggregate=st.sampled_from([SUM, MAX]), explicit=st.booleans())
    def test_sample_aggregate_copies_every_block(self, seed, block_rows, n, aggregate,
                                                 explicit):
        # each block's rows are copied out before the ring reuses its arrays
        deps = ((DependenceSpec.moving_maxima(1, 1),) if explicit
                else (DependenceSpec.iid(),))
        config = make_config(in_degree=InDegreeSpec(alpha=1.5, n_max=6),
                             follower_deps=deps, aggregate=aggregate)
        in_deg = _draw_in_degrees(config, n, child_rng(seed, STREAMS["in_degree"]))
        q = sample_pareto(config.preference_tail, n, child_rng(seed, STREAMS["preference"]))
        if explicit:
            f_sum, f_max = masked_column_contributions(config, n, seed, in_deg)
            want = (config.damping * f_sum + config.z_star * q if aggregate == SUM
                    else np.maximum(config.damping * f_max, config.z_star * q))
        else:
            want = whole_iid_pair(config, n, seed)[0 if aggregate == SUM else 1]
        with iid_kernel(block_rows, 2):
            path = sample_aggregate(config, n, seed)
        assert path.values.tobytes() == want.tobytes()

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
        assert np.array_equal(a.max_values, b.max_values)
        assert np.array_equal(a.preference, b.preference)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            make_config(damping=1.0)
        with pytest.raises(ParameterError):
            make_config(aggregate="median")
        with pytest.raises(ConfigurationError):
            make_config(fixed_in_degree=51)  # exceeds n_max columns


BLOCK_ROWS_CASES = st.sampled_from([1, 2, 5, 16, recursion.STREAM_BLOCK_ROWS])


@contextlib.contextmanager
def column_kernel(block_rows):
    """The explicit-column kernel at ``block_rows`` rows per block, for the
    duration of a ``with`` block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recursion, "STREAM_BLOCK_ROWS", block_rows)
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
        # checked at the call, before any block is asked for
        for zs, n in [((), 100), ((1.0,), 0), ((1.0,), -3), ((0.0,), 100), ((-1.0,), 100)]:
            with pytest.raises(ParameterError):
                weighted_pair_blocks([(z, SequenceSpec(TailSpec(2.0))) for z in zs], n, SEED)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           zs=st.lists(st.one_of(st.just(1.0), st.floats(0.01, 10.0)), min_size=1, max_size=4),
           n=st.integers(1, 300), block_rows=BLOCK_ROWS_CASES)
    def test_matches_expression_bit_for_bit(self, seed, zs, n, block_rows):
        deps = (DependenceSpec.iid(), DependenceSpec.moving_maxima(1, 1))
        comps = [(z, SequenceSpec(TailSpec(1.5), deps[i % 2])) for i, z in enumerate(zs)]
        sums, maxes = np.zeros(n), np.zeros(n)
        for i, (z, seq) in enumerate(comps, start=1):
            col = z * sample_sequence(seq, n, child_rng(seed, STREAMS["column"], i))
            sums += col
            np.maximum(maxes, col, out=maxes)
        with column_kernel(block_rows):
            got = sample_weighted_pair(comps, n, seed)
        assert got[0].tobytes() == sums.tobytes()
        assert got[1].tobytes() == maxes.tobytes()


class TestAggregatePairCombination:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), damping=st.floats(0.05, 0.95),
           columns=st.sampled_from(["iid", "explicit"]),
           n=st.integers(1, 300))
    def test_matches_expression_bit_for_bit(self, seed, damping, columns, n):
        deps = ((DependenceSpec.iid(),) if columns == "iid"
                else (DependenceSpec.moving_maxima(1, 1), DependenceSpec.iid()))
        config = make_config(
            damping=damping, in_degree=InDegreeSpec(alpha=1.5, n_max=12),
            follower_deps=deps)
        for got, want in zip(sample_aggregate_pair(config, n, seed), whole_pair(config, n, seed),
                             strict=True):
            assert got.tobytes() == want.tobytes()


# ties, a subnormal, huge values, both zeros, infinities and NaN
SPECIAL_VALUES = np.array([
    1.5, 1.5, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e300,
    0.0, -0.0, np.inf, -np.inf, np.nan, 0.1, 1 / 3, 123456789012345678.0,
])


def path_of(values):
    n = len(values)
    return AggregatePath(values=values, config=make_config(), seed=SEED, n=n)


def csv_body(path):
    return path.to_csv().split("value\n", 1)[1]


def savetxt_body(values):
    """The path CSV body as ``np.savetxt`` wrote it before block formatting."""
    buf = io.StringIO()
    np.savetxt(buf, values, fmt="%.17g")
    return buf.getvalue()


def column_contributions(config, n, seed, in_deg):
    """The follower sum/max terms that the explicit-column kernel builds in
    row blocks, given the whole path's in-degrees: ``(sums, maxes)``."""
    max_n = int(in_deg.max()) if len(in_deg) else 0
    blocks = recursion._column_sum_max(recursion._follower_columns(config, seed, max_n), n,
                                       BlockRing(), in_deg_of=lambda rows: in_deg[rows])
    return recursion._drain(((sums, maxes) for _, sums, maxes in blocks), n)


def masked_column_contributions(config, n, seed, in_deg):
    """Boolean-mask formulation of the explicit-column follower terms."""
    max_n = int(in_deg.max()) if len(in_deg) else 0
    sums = np.zeros(n)
    maxes = np.zeros(n)
    for j in range(1, max_n + 1):
        col = sample_sequence(SequenceSpec(config.follower_tail, config.column_dep(j)), n,
                              child_rng(seed, STREAMS["column"], j))
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
            "aggregate", "n", "seed",
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


def fast_read(strings):
    """``strings`` as the fast route reads them, one a line, or ``None``
    if it declines them."""
    rows = textio._exact("".join(s + "\n" for s in strings), 1, float)
    return None if rows is None else rows.ravel()


def as_floats(strings):
    return np.array([float(s) for s in strings])


@st.composite
def decimals(draw, digits=st.integers(1, 18)):
    """``-?digits`` or ``-?digits.digits`` with ``digits`` digits in all,
    leading and trailing zeros included."""
    count = draw(digits)
    body = draw(st.text("0123456789", min_size=count, max_size=count))
    point = draw(st.integers(0, count))
    if 0 < point < count:
        body = body[:point] + "." + body[point:]
    return draw(st.sampled_from(["", "-"])) + body


needs_long_double = pytest.mark.skipif(
    not textio._EXACT_LONG_DOUBLE, reason="floats take np.loadtxt on this platform")

# Decimals whose long-double quotient lands exactly on the midpoint of two
# doubles (an x87 64-bit significand), although the decimal does not.
QUOTIENTS_ON_A_MIDPOINT = [
    "-0.242243", "-0.0051273", "-0.000619246", "-2387851.283612706",
    "48055893.87794156", "0.4480172765151684", "255.086142486220254",
]


class TestExactRead:
    @needs_long_double
    @settings(max_examples=300, deadline=None)
    @given(strings=st.lists(decimals(), min_size=1, max_size=30))
    @example(["-0", "-0.0", "0", "000", "-000.000", "0.5", "007", "-0.00000000000000001"])
    @example(["999999999999999999", "-99999999999999999.9", "0.00000000000000001",
              "123456789012345678", "1.23456789012345678"])
    def test_fast_route_equals_float(self, strings):
        values = fast_read(strings)
        assert values is not None
        assert values.tobytes() == as_floats(strings).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(strings=st.lists(decimals(st.integers(19, 24)), min_size=1, max_size=5))
    def test_19_digits_take_loadtxt(self, strings):
        assert fast_read(strings) is None
        back = read_path_csv(io.StringIO("value\n" + "\n".join(strings) + "\n"))
        assert back.tobytes() == as_floats(strings).tobytes()

    @pytest.mark.parametrize("text, expected", [
        ("9007199254740993", 2.0**53),  # 2**53 + 1: to the even 2**53
        ("9007199254740995", 2.0**53 + 4),
        ("-36028797018963972", -(2.0**55)),
        ("4503599627370497.5", 2.0**52 + 2),
        ("2251799813685248.25", 2.0**51),
        # 2**54 - 1 is half the gap below 2**54, a quarter of the gap above
        ("18014398509481983", 2.0**54),
        ("18014398509481981", 2.0**54 - 4),
    ])
    @pytest.mark.parametrize("long_double", [True, False])
    def test_midpoints_round_to_even(self, monkeypatch, text, expected, long_double):
        monkeypatch.setattr(textio, "_EXACT_LONG_DOUBLE", long_double and textio._EXACT_LONG_DOUBLE)
        assert float(text) == expected
        assert read_path_csv(io.StringIO(text + "\n")).tobytes() == np.array([expected]).tobytes()

    @needs_long_double
    @pytest.mark.parametrize("text", QUOTIENTS_ON_A_MIDPOINT)
    def test_quotient_on_a_midpoint_reads_as_float(self, text):
        assert fast_read([text]).tobytes() == as_floats([text]).tobytes()

    @pytest.mark.parametrize("long_double", [True, False])
    @settings(max_examples=200, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), max_size=40),
           plain=st.lists(st.floats(0.1, 1e16) | st.floats(-1e16, -0.1), max_size=40))
    def test_written_bit_patterns_read_back(self, bits, plain, long_double):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        # the plain range is written without an exponent: the fast route
        values = np.concatenate([values[np.isfinite(values)], plain])
        with mock.patch.object(textio, "_EXACT_LONG_DOUBLE",
                               long_double and textio._EXACT_LONG_DOUBLE):
            back = read_path_csv(io.StringIO(path_of(values).to_csv()))
        assert back.dtype == np.float64 and back.tobytes() == values.tobytes()


# Lines that only np.loadtxt reads, and lines that the fast route reads too.
LOADTXT_LINES = ["1e5", "-2.5E-3", "inf", "-inf", "nan", "# c", "", "+1.5", "7.25  ",
                 "  8", "3.0\r", "1234567890123456789", "0.0000000000000000001", "1\t",
                 "# a comment longer than a chunk" + "." * 300]
FAST_LINES = ["1.0774962788531306", "-0", "42", "0.000001", "-17.5", "0.30000000000000004"]


class TestReadRoutes:
    @pytest.mark.parametrize("long_double", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_chunks_equal_loadtxt(self, monkeypatch, chunk_routes, seed, long_double):
        rng = np.random.default_rng(seed)
        lines = [rng.choice(LOADTXT_LINES) if rng.random() < 0.1 else rng.choice(FAST_LINES)
                 for _ in range(400)]
        text = "\n".join(lines)  # no final newline
        monkeypatch.setattr(textio, "CHUNK_CHARS", 64)
        monkeypatch.setattr(textio, "_EXACT_LONG_DOUBLE", long_double and textio._EXACT_LONG_DOUBLE)
        back = read_path_csv(io.StringIO(text))
        expected = np.loadtxt(io.StringIO(text), comments="#")
        assert back.tobytes() == expected.tobytes()
        assert False in chunk_routes and (True in chunk_routes) == textio._EXACT_LONG_DOUBLE

    @pytest.mark.parametrize("long_double", [True, False])
    @pytest.mark.parametrize("bad", ["x", "1.5.2", "--1", "1 2", "1-", ".5.", "value"])
    def test_bad_line_in_third_chunk(self, monkeypatch, chunk_routes, bad, long_double):
        # an all-fast chunk after one that took np.loadtxt
        body = ["1.5", "# c", ""] + ["2.25"] * 40
        body.insert(30, bad)
        text = "# n=43\nvalue\n" + "\n".join(body) + "\n"
        lineno = 3 + 30
        monkeypatch.setattr(textio, "CHUNK_CHARS", 64)
        monkeypatch.setattr(textio, "_EXACT_LONG_DOUBLE", long_double and textio._EXACT_LONG_DOUBLE)
        message = f"<input>:{lineno}: expected 1 float64 value(s), got {bad!r}"
        with pytest.raises(DataError) as info:
            read_path_csv(io.StringIO(text))
        assert str(info.value) == message
        assert chunk_routes == [False, textio._EXACT_LONG_DOUBLE, False]


class TestColumnContributions:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(1.1, 3.0),
           floor=st.integers(0, 12))
    def test_matches_mask_formulation(self, seed, alpha, floor):
        config = make_config(
            in_degree=InDegreeSpec(alpha=alpha, n_max=12),
            follower_deps=(DependenceSpec.moving_maxima(1, 1), DependenceSpec.iid()),
        )
        n = 400
        # power-law in-degrees; raising the smallest ones to `floor` makes
        # the first columns include every row (all 12 when floor = 12)
        in_deg = np.maximum(sample_power_law_int(config.in_degree, n, seed), floor)
        want = masked_column_contributions(config, n, seed, in_deg)
        got = column_contributions(config, n, seed, in_deg)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


# dependence specs of 1 to 4 coefficients, zeros among them
DEPS = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=1, max_size=4).filter(
    any).map(lambda a: DependenceSpec.moving_maxima(*a))


class TestBlockedColumnKernel:
    N_MAX = 6

    @settings(max_examples=80, deadline=None)
    @given(seed=SEEDS, block_rows=st.sampled_from([1, 2, 5, 16]), blocks=st.integers(1, 3),
           offset=st.integers(-1, 1), deps=st.lists(DEPS, min_size=1, max_size=3),
           in_degrees=st.sampled_from(["power", 0, 1, N_MAX]))
    def test_equals_the_whole_column_oracle(self, seed, block_rows, blocks, offset, deps,
                                            in_degrees):
        # n below, at and just past a multiple of the block
        n = max(1, block_rows * blocks + offset)
        config = make_config(in_degree=InDegreeSpec(alpha=1.5, n_max=self.N_MAX),
                             follower_deps=tuple(deps))
        if in_degrees == "power":
            in_deg = sample_power_law_int(config.in_degree, n, seed)
        else:
            in_deg = np.full(n, in_degrees, dtype=np.int64)
        want = masked_column_contributions(config, n, seed, in_deg)
        with column_kernel(block_rows):
            got = column_contributions(config, n, seed, in_deg)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    # the kernel draws on its caller's thread: columns are drawn at once only
    # by the replication threads of --jobs 1, one per CPU the process may use
    def test_thread_count_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 3, 5})
        assert replication_threads(100, monkeypatch) == 3
        assert replication_threads(2, monkeypatch) == 2
        assert replication_threads(1, monkeypatch) == 1

    def test_thread_count_without_cpu_affinity(self, monkeypatch):
        # os.sched_getaffinity is Linux-only; elsewhere the CPU count serves
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        assert replication_threads(100, monkeypatch) == 4
        assert replication_threads(3, monkeypatch) == 3
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
        assert replication_threads(100, monkeypatch) == 1


def replication_threads(r, monkeypatch):
    """The threads that ``experiments._replicate`` maps ``r`` replications
    on at --jobs 1, 1 when it runs them on the calling thread."""
    threads = [1]

    class Pool(ThreadPoolExecutor):
        def __init__(self, workers):
            threads.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", Pool)
    experiments._replicate(lambda params, seed, ring: seed, "verify-thm4", {"seed": 1}, r, 0, 1)
    return threads[-1]


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


class TestPreferenceBlocks:
    @pytest.mark.parametrize("n", [0, -5])
    def test_a_bad_length_is_refused_at_the_call(self, n):
        # before any block is asked for, as every block source does
        with pytest.raises(ParameterError, match="path length"):
            recursion.preference_blocks(make_config(), n, SEED)


class TestStreamDerivation:
    @pytest.mark.parametrize("deps", ["iid", "mm:1,1"])
    @pytest.mark.parametrize("in_degrees", ["one", "power-law"])
    @pytest.mark.parametrize("source", ["pair", "maxima"])
    def test_each_stream_is_derived_once_per_call(self, source, in_degrees, deps,
                                                  monkeypatch):
        # 300 rows in blocks of 16: every stream serves 19 blocks from one
        # generator.  The explicit columns draw a power-law in-degree twice,
        # the first pass for the largest in-degree, the number of columns.
        derived = []
        derive = rng.child_seed

        def counted(seed, *path):
            derived.append(path)
            return derive(seed, *path)

        monkeypatch.setattr(rng, "child_seed", counted)
        config = make_config(follower_deps=experiments.parse_deps(deps),
                             **IN_DEGREES[in_degrees])
        with iid_kernel(16):
            if source == "pair":
                for _ in recursion.aggregate_pair_blocks(config, 300, SEED):
                    pass
            else:
                pair_maxima(config, 300, SEED, 3)
        counts = {path: derived.count(path) for path in derived}
        in_degree = (STREAMS["in_degree"],)
        explicit = deps != "iid"
        assert counts.pop(in_degree) == (2 if explicit and in_degrees == "power-law" else 1)
        assert counts.pop((STREAMS["preference"],)) == 1
        if explicit:
            assert set(counts) == {(STREAMS["column"], j) for j in range(1, len(counts) + 1)}
        else:
            assert set(counts) == {(STREAMS["column"],)}
        assert set(counts.values()) == {1}

    def test_a_negative_seed_is_refused(self):
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            rng.child_seed(-1, STREAMS["preference"])

    @pytest.mark.parametrize("deps", ["iid", "mm:1,1"])
    @pytest.mark.parametrize("source", ["pair", "preference", "maxima", "comparison",
                                        "weighted"])
    def test_a_negative_seed_is_refused_at_the_call(self, source, deps):
        # before any block is asked for, with i.i.d. and explicit columns
        dep = experiments.parse_dep(deps)
        config = make_config(follower_deps=(dep,))
        call = {
            "pair": lambda: recursion.aggregate_pair_blocks(config, 100, -1),
            "preference": lambda: recursion.preference_blocks(config, 100, -1),
            "maxima": lambda: pair_maxima(config, 100, -1, 1),
            "comparison": lambda: compare_tail_sum_max(config, 100, [0.95], -1),
            "weighted": lambda: weighted_pair_blocks([(1.0, SequenceSpec(TailSpec(2.0), dep))],
                                                     100, -1),
        }[source]
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            call()


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
            mp.setattr(recursion, "STREAM_BLOCK_ROWS", block_rows)
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
        # a block's arrays are valid until the next block is asked for; with
        # no floor every block holds every row
        blocks = []
        for sums, maxes, rows, q in _iid_bounded_blocks(config, n, seed, block_rows,
                                                        BlockRing()):
            assert rows is None
            blocks.append((sums.copy(), maxes.copy(), q.copy()))
        assert [len(b[0]) for b in blocks[:-1]] == [block_rows] * (len(blocks) - 1)
        want_sums, want_maxes, _, want_q = whole_iid_pair(config, n, seed)
        sums, maxes, q = (np.concatenate(parts) for parts in zip(*blocks))
        assert sums.tobytes() == want_sums.tobytes()
        assert maxes.tobytes() == want_maxes.tobytes()
        assert q.tobytes() == want_q.tobytes()

    def test_explicit_columns_give_the_whole_path_rows(self):
        config = make_config(follower_deps=(DependenceSpec.moving_maxima(1, 1),
                                            DependenceSpec.iid()))
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


def whole_pair(config, n, seed):
    """``(sums, maxes, q)`` of either column kind, written out as the
    expressions of the two aggregates over whole paths: those of
    :func:`whole_iid_pair`, or of :func:`masked_column_contributions`."""
    if config.all_iid_columns():
        sums, maxes, _, q = whole_iid_pair(config, n, seed)
        return sums, maxes, q
    in_deg = _draw_in_degrees(config, n, child_rng(seed, STREAMS["in_degree"]))
    q = sample_pareto(config.preference_tail, n, child_rng(seed, STREAMS["preference"]))
    f_sum, f_max = masked_column_contributions(config, n, seed, in_deg)
    pref_term = config.z_star * q
    c = config.damping
    return c * f_sum + pref_term, np.maximum(c * f_max, pref_term), q


@contextlib.contextmanager
def iid_kernel(block_rows, draws=None):
    """The i.i.d.-column kernel at ``block_rows`` rows per block (streamed
    and bound-and-refine alike) and at most ``draws`` follower draws per
    block when given, for the duration of a ``with`` block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recursion, "STREAM_BLOCK_ROWS", block_rows)
        mp.setattr(recursion, "MAXIMA_BLOCK_ROWS", block_rows)
        if draws is not None:
            mp.setattr(recursion, "BLOCK_DRAWS", draws)
        yield


# follower draws per block: cuts every block of a power-law in-degree, and
# the default
DRAW_CAPS = st.sampled_from([1, 3, 7, None])


class TestThreadedIidKernel:
    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, block_rows=st.sampled_from([1, 2, 5, 16]), blocks=st.integers(1, 4),
           offset=st.integers(-1, 1), in_degrees=st.sampled_from(sorted(IN_DEGREES)),
           damping=st.sampled_from([0.1, 0.5, 0.9]) | st.floats(0.01, 0.99),
           thresholds=st.lists(st.sampled_from([0.901, 0.95, 0.99, 0.999]), min_size=1,
                               max_size=3), draws=DRAW_CAPS)
    def test_all_three_callers_equal_the_whole_path_oracle(
            self, seed, block_rows, blocks, offset, in_degrees, damping, thresholds, draws):
        # n below, at and just past a multiple of the block
        n = max(1, block_rows * blocks + offset)
        config = make_config(damping=damping, **IN_DEGREES[in_degrees])
        sums, maxes, in_deg, q = whole_iid_pair(config, n, seed)
        with iid_kernel(block_rows, draws):
            pair = sample_aggregate_pair(config, n, seed)
            maxima = pair_maxima(config, n, seed, 3)
            rows = compare_tail_sum_max(config, n, thresholds, seed)
        assert pair.sum_values.tobytes() == sums.tobytes()
        assert pair.max_values.tobytes() == maxes.tobytes()
        assert pair.preference.tobytes() == q.tobytes()
        assert maxima[:2] == (float(sums.max()), float(maxes.max()))
        assert maxima[2].tobytes() == upper_order_statistics(q, min(3, n)).tobytes()
        ordered = np.sort(maxes)
        want = []
        for qv in thresholds:
            x = float(ordered[min(math.ceil(qv * n) - 1, n - 1)])
            want.append((x, int(np.sum(sums > x)), int(np.sum(maxes > x))))
        assert [(r.threshold, r.exceed_sum, r.exceed_max) for r in rows] == want

    @settings(max_examples=80, deadline=None)
    @given(seed=SEEDS, block_rows=st.integers(1, 40), n=st.integers(1, 200),
           in_degrees=st.sampled_from(sorted(IN_DEGREES)), draws=st.integers(1, 40))
    def test_a_block_takes_the_most_rows_within_the_draw_cap(self, seed, block_rows, n,
                                                             in_degrees, draws):
        config = make_config(**IN_DEGREES[in_degrees])
        with iid_kernel(block_rows, draws):
            # the layout alone, each block laid out as the kernel asks for it
            laid = [(in_deg.copy(), total) for in_deg, total in
                    _iid_blocks(config, n, seed, block_rows, BlockRing())]
            blocks = [(sums.copy(), maxes.copy(), q.copy()) for sums, maxes, _, q in
                      _iid_bounded_blocks(config, n, seed, block_rows, BlockRing())]
        sums, maxes, in_deg, q = whole_iid_pair(config, n, seed)
        assert [np.concatenate(parts).tobytes() for parts in zip(*blocks)] == [
            a.tobytes() for a in (sums, maxes, q)]
        assert np.concatenate([b[0] for b in laid]).tobytes() == in_deg.tobytes()
        start = 0
        for (in_deg, total), after in zip(laid, laid[1:] + [None]):
            assert total == in_deg.sum()
            end = start + len(in_deg)
            # within one draw of in-degrees, and past the cap only alone
            assert start // block_rows == (end - 1) // block_rows
            assert total <= draws or len(in_deg) == 1
            if after is not None and end % block_rows:  # cut by the cap
                assert total + after[0][0] > draws
            start = end

    @pytest.mark.parametrize("fixed_in_degree", [0, 1])
    def test_a_block_draws_exactly_its_followers(self, fixed_in_degree, monkeypatch):
        # the preference values are drawn whole, the follower draws as
        # uniforms that every row's values transform at no floor
        drawn, transformed = [], []
        pareto, transform = recursion.sample_pareto, recursion.pareto_transform

        def counted(spec, n, rng, **kwargs):
            drawn.append((spec, n))
            return pareto(spec, n, rng, **kwargs)

        def counted_transform(spec, x):
            transformed.append((spec, len(x)))
            return transform(spec, x)

        monkeypatch.setattr(recursion, "sample_pareto", counted)
        monkeypatch.setattr(recursion, "pareto_transform", counted_transform)
        config = make_config(fixed_in_degree=fixed_in_degree)
        with iid_kernel(16):
            pair = sample_aggregate_pair(config, 40, SEED)
        assert sorted(drawn) == [(config.preference_tail, size) for size in (8, 16, 16)]
        sizes = [8, 16, 16] if fixed_in_degree else [0, 0, 0]
        assert sorted(transformed) == [(config.follower_tail, size) for size in sizes]
        want = whole_iid_pair(config, 40, SEED)
        assert pair.sum_values.tobytes() == want[0].tobytes()
        assert pair.max_values.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("deps", [(DependenceSpec.iid(),),
                                      (DependenceSpec.moving_maxima(1, 1),)])
    @pytest.mark.parametrize("fixed_in_degree", [None, 3])
    def test_only_a_drawn_in_degree_takes_lookup_scratch(self, deps, fixed_in_degree):
        names = set()

        class RecordingRing(BlockRing):
            def get(self, name, size, dtype=np.float64):
                names.add(name)
                return super().get(name, size, dtype)

        config = make_config(follower_deps=deps, fixed_in_degree=fixed_in_degree)
        for _ in recursion.aggregate_pair_blocks(config, 100, SEED, RecordingRing()):
            pass
        assert ("deg_work" in names) == (fixed_in_degree is None)

    def test_only_running_blocks_hold_follower_draws(self):
        # draws of 4096 rows of 100 followers (3.1 MB), cut into blocks of at
        # most 2^17 draws (1 MB): the draws live in the ring's one buffer,
        # 1.1 MB in all measured, 2.2 MB when two drawing threads had one each
        config = make_config(in_degree=InDegreeSpec(alpha=2.0, n_max=100), fixed_in_degree=100)
        rows = 2**12
        with iid_kernel(rows):
            tracemalloc.start()
            try:
                for _ in _iid_bounded_blocks(config, 16 * rows, SEED, rows, BlockRing()):
                    pass
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 2 * recursion.BLOCK_DRAWS * 8

    def test_a_growing_draw_buffer_lets_go_of_its_old_array(self):
        # alpha = 0.5 at n_max = 10^6: 25 blocks of up to 6 MB of draws, the
        # buffer growing as they come: 7.4 MB measured, 13.3 MB when a
        # block's draws outlived the block
        config = make_config(in_degree=InDegreeSpec(alpha=0.5, n_max=10**6))
        # the layout alone, which also caches the in-degree law's cdf (8 MB)
        largest = max(total for *_, total in _iid_blocks(config, 3000, SEED, 2**15,
                                                          BlockRing()))
        tracemalloc.start()
        try:
            for _ in _iid_bounded_blocks(config, 3000, SEED, 2**15, BlockRing()):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * largest * 8 + 2**20

@pytest.fixture
def ring_records(monkeypatch):
    """Every array a :class:`BlockRing` of ``recursion`` hands out, every
    block of the i.i.d. kernel and every column block drawn."""
    handed, blocks = [], []

    class RecordingRing(BlockRing):
        def get(self, name, size, dtype=np.float64):
            handed.append(super().get(name, size, dtype))
            return handed[-1]

    iid_blocks, fill = recursion._iid_bounded_blocks, recursion.SequenceStream.fill

    def recording_blocks(*args, **kwargs):
        for block in iid_blocks(*args, **kwargs):
            blocks.append(block)
            yield block

    def recording_fill(stream, out, work=None):
        blocks.append(fill(stream, out, work))
        return blocks[-1]

    monkeypatch.setattr(recursion, "BlockRing", RecordingRing)
    monkeypatch.setattr(recursion, "_iid_bounded_blocks", recording_blocks)
    monkeypatch.setattr(recursion.SequenceStream, "fill", recording_fill)
    return handed, blocks


def in_ring(array, handed):
    return any(np.shares_memory(array, a) for a in handed)


class TestOneBlockRing:
    def test_a_growing_array_is_let_go_before_its_successor(self):
        ring = BlockRing()
        tracemalloc.start()
        try:
            ring.get("draws", 2**20)
            ring.get("draws", 2**21)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20 * 8  # 16 MB, not the 8 MB and 16 MB arrays at once

    def test_streamed_comparison_blocks_live_in_the_ring(self, ring_records):
        handed, blocks = ring_records
        config = make_config()
        want = whole_path_rows(config, 40, [0.95], SEED)
        for record in ring_records:
            record.clear()
        with iid_kernel(5):
            rows = compare_tail_sum_max(config, 40, [0.95], SEED)
        assert [(r.threshold, r.exceed_sum, r.exceed_max) for r in rows] == want
        # eight blocks, each with every row; its sums and maxima are the
        # reduction's own arrays
        assert len(blocks) == 8
        assert all(rows is None for _, _, rows, _ in blocks)
        assert all(in_ring(q, handed) for *_, q in blocks)
        # each block reuses the preference draws of the one before
        assert all(np.shares_memory(a[3], b[3]) for a, b in zip(blocks, blocks[1:]))

    @pytest.mark.parametrize("columns", [3, 2])
    def test_column_blocks_live_in_the_ring(self, ring_records, columns):
        handed, blocks = ring_records
        specs = [SequenceSpec(TailSpec(1.5), DependenceSpec.moving_maxima(1, 0.5)),
                 SequenceSpec(TailSpec(2.0))] * 2
        with column_kernel(4):
            sample_weighted_pair([(0.5, seq) for seq in specs[:columns]], 40, SEED)
        assert len(blocks) == 10 * columns and all(in_ring(a, handed) for a in blocks)
        # each column block is reduced before the next is drawn into the
        # same array
        assert all(np.shares_memory(a, b) for a, b in zip(blocks, blocks[1:]))


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
           block_rows=st.sampled_from([1, 2, 5, 16]),
           sizes=st.lists(st.integers(1, 120), min_size=1, max_size=3),
           top=st.integers(1, 150), draws=DRAW_CAPS)
    def test_equals_the_whole_path_oracle(self, seed, tails, degrees, damping, block_rows,
                                          sizes, top, draws):
        follower, preference = BOUNDED_TAILS[tails]
        config = make_config(damping=damping, follower_tail=follower,
                             preference_tail=preference, **degrees)
        # one ring for calls of several lengths, as a run of replications shares it
        ring = recursion.BlockRing()
        with iid_kernel(block_rows, draws):
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
        bounds = recursion._sum_bounds(in_deg, pref, damping * x, most)
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
        # every row's bound reaches the floor, so every draw is transformed
        assert sum(transformed) > 5000

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
        # a fresh ring holds three 512 KB arrays (in-degrees, their lookup
        # scratch and q) and the 0.7 MB follower-draw buffer; a shared one
        # leaves the 64 KB of the in-degree lookup's bucket flags
        assert peaks[0] > 2 * 2**20 and peaks[1] < 2**18


class TestPairFloor:
    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, tails=st.sampled_from(sorted(BOUNDED_TAILS)), degrees=BOUNDED_DEGREES,
           damping=st.sampled_from([0.01, 0.5, 0.99]) | st.floats(0.01, 0.99),
           block_rows=st.sampled_from([1, 5, 16]), n=st.integers(1, 120), level=st.sampled_from([None, 0.0, 0.5, 0.9, 1.0]),
           explicit=st.booleans(), draws=DRAW_CAPS)
    def test_a_floor_leaves_out_only_rows_below_it(self, seed, tails, degrees, damping,
                                                   block_rows, n, level, explicit, draws):
        follower, preference = BOUNDED_TAILS[tails]
        deps = ((DependenceSpec.moving_maxima(1, 1),) if explicit
                else (DependenceSpec.iid(),))
        config = make_config(damping=damping, follower_tail=follower,
                             preference_tail=preference, follower_deps=deps, **degrees)
        if explicit:
            pair = sample_aggregate_pair(config, n, seed)
            sums, maxes = pair.sum_values, pair.max_values
        else:
            sums, maxes, _, _ = whole_iid_pair(config, n, seed)
        # no floor, or one of the sums, which rows of equal values must reach
        floor = -math.inf if level is None else float(np.sort(sums)[int(level * (n - 1))])
        start = 0
        with iid_kernel(block_rows, draws):
            for got_sums, got_maxes, rows, q in recursion.aggregate_pair_blocks(
                    config, n, seed, floor=floor):
                size = len(q)
                if rows is None:
                    rows = np.arange(size)
                else:
                    assert not explicit and level is not None
                assert got_sums.tobytes() == sums[start:start + size][rows].tobytes()
                assert got_maxes.tobytes() == maxes[start:start + size][rows].tobytes()
                left_out = np.setdiff1d(np.arange(size), rows) + start
                assert np.all(sums[left_out] < floor) and np.all(maxes[left_out] < floor)
                start += size
        assert start == n


def full_pair_row(params, rep):
    """A preference replication's row from the whole pair of
    :func:`whole_iid_pair`: it feeds a :class:`TailSample` of q and one of
    each path, whose floor is q's, and the blocks threshold is q's."""
    regime = experiments.REGIMES["preference"]
    seed = replication_seed(params["seed"], regime.seed_offset + rep)
    n, top = params["n"], experiments._tail_count(regime, params)
    sums, maxes, _, q_whole = whole_iid_pair(experiments.recursion_config_from_params(params),
                                             n, seed)
    q = TailSample(top)
    paths = {"sum": TailSample(top, floor_of=q), "max": TailSample(top, floor_of=q)}
    q.feed(q_whole)
    paths["sum"].feed(sums)
    paths["max"].feed(maxes)
    u = nearest_rank_quantile(q, 1.0 - params["blocks_exceed_prob"])
    at = (u, float(len(q.above(u))) / n)
    row = {f"blocks_{label}": experiments._estimate("blocks", path, params, at)
           for label, path in paths.items()}
    row["pair_diff_blocks"] = abs(row["blocks_sum"] - row["blocks_max"])
    return row


def row_or_error(run):
    """``repr`` of the row ``run()`` returns, so floats compare bit for bit,
    or the type and message of the ``DataError`` it raises."""
    try:
        return repr(run())
    except DataError as exc:
        return type(exc).__name__, str(exc)


class TestBoundedReplication:
    @settings(max_examples=150, deadline=None)
    @given(rep=st.integers(0, 2**20), alpha=st.sampled_from([0.5, 1.2, 2.0]),
           beta=st.sampled_from([1.0, 1.5]), heavier=st.sampled_from([0.0, 0.5, 2.0]),
           damping=st.sampled_from([0.01, 0.5, 0.85, 0.99]) | st.floats(0.01, 0.99),
           n_max=st.sampled_from([1, 3, 100, 10**4]), fixed=st.sampled_from([-1, 0, 1]),
           block_rows=st.sampled_from([40, 64, 128]), blocks=st.integers(1, 6),
           offset=st.integers(-1, 1), exceed_prob=st.sampled_from([0.02, 0.05, 0.1]),
           draws=DRAW_CAPS)
    def test_row_equals_the_full_pair_row(self, rep, alpha, beta, heavier, damping, n_max,
                                          fixed, block_rows, blocks, offset, exceed_prob,
                                          draws):
        # n below, at and across multiples of the patched block, k >= beta
        n = max(100, block_rows * blocks + offset)
        params = dict(experiments.DEFAULTS["verify-thm4"], n=n, alpha=alpha, beta=beta,
                      k=beta + heavier, damping=damping, n_max=n_max, fixed_in_degree=fixed,
                      blocks_exceed_prob=exceed_prob)
        want = row_or_error(lambda: full_pair_row(params, rep))
        config = experiments.recursion_config_from_params(params)
        seed = replication_seed(params["seed"], 100_000 + rep)
        top = experiments._tail_count(experiments.REGIMES["preference"], params)
        with iid_kernel(block_rows, draws):
            got = row_or_error(lambda: experiments._replication(params, seed, BlockRing()))
            maxima = pair_maxima(config, n, seed, top)
        assert got == want
        sums, maxes, _, q = whole_iid_pair(config, n, seed)
        assert maxima[:2] == (float(sums.max()), float(maxes.max()))
        assert maxima[2].tobytes() == upper_order_statistics(q, top).tobytes()

    def test_the_acceptance_config_transforms_few_follower_draws(self, monkeypatch):
        # pref-05, the verify-thm4 defaults, at n = 10^5: its about 1.4 * 10^5
        # follower draws are bounded, and the rows that can pass the 0.999
        # quantile of q refined
        params = dict(experiments.DEFAULTS["verify-thm4"], n=10**5)
        config = experiments.recursion_config_from_params(params)
        seed = replication_seed(params["seed"], 100_000)
        in_deg = _draw_in_degrees(config, 10**5, child_rng(seed, STREAMS["in_degree"]))
        _, transformed = refinement_counts(monkeypatch)
        experiments._replication(params, seed, BlockRing())
        assert 0 < sum(transformed) < 0.01 * in_deg.sum()
