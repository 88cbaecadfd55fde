"""Graph generation, rank fixed points, and random-walk hitting times."""

import bisect
import io
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rank_extremes import textio
from rank_extremes.errors import ConvergenceError, DataError, ParameterError
from rank_extremes.graphrank import (
    DirectedGraph,
    RankVector,
    _fixed_point,
    gen_power_law_graph,
    max_linear_rank,
    pagerank,
    random_walk_hitting,
)
from rank_extremes.heavytail import InDegreeSpec, sample_power_law_int
from rank_extremes.rng import STREAMS, child_rng
from rank_extremes.textio import BLOCK_ROWS, read_rows

from oracles import traced

SEED = 7788
BLOCK_LENGTHS = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]


def graph_in_degrees(n, alpha, seed):
    """The in-degrees ``gen_power_law_graph`` draws first from its stream."""
    spec = InDegreeSpec(alpha=alpha, n_max=n - 1)
    return sample_power_law_int(spec, n, child_rng(seed, STREAMS["graph"]))


def cycle(n):
    nodes = np.arange(n)
    return DirectedGraph.from_edges(n, nodes, (nodes + 1) % n)


def star():
    # nodes 1..5 each link to node 0; node 0 links to node 1 (repair)
    src = [1, 2, 3, 4, 5, 0]
    dst = [0, 0, 0, 0, 0, 1]
    return DirectedGraph.from_edges(6, src, dst)


@st.composite
def rank_cases(draw):
    """``(g, c, q)``: a random multigraph of 1-12 nodes with repeated edges,
    self-loops and nodes without out-edges, c in [0.01, 0.99] and a random
    positive preference vector ``q``."""
    n = draw(st.integers(1, 12))
    c = draw(st.floats(0.01, 0.99))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=4 * n))
    g = DirectedGraph.from_edges(n, [e[0] for e in edges], [e[1] for e in edges])
    q = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    return g, c, q / q.sum()


class TestPagerank:
    def test_two_node_cycle_symmetry(self):
        r = pagerank(cycle(2), 0.85, np.array([0.5, 0.5]))
        assert np.allclose(r.scores, 0.5)

    def test_three_node_cycle_symmetry(self):
        r = pagerank(cycle(3), 0.6, np.full(3, 1 / 3))
        assert np.allclose(r.scores, 1 / 3)

    def test_star_matches_linear_solve(self):
        g = star()
        c, n = 0.5, 6
        q = np.full(n, 1 / n)
        r = pagerank(g, c, q)
        # independent oracle: solve (I - c A) r = (1-c) q directly
        a = np.zeros((n, n))
        inv_d = 1.0 / g.out_degree
        for s, d in zip(g.src, g.dst):
            a[d, s] += c * inv_d[s]
        expected = np.linalg.solve(np.eye(n) - a, (1 - c) * q)
        assert np.max(np.abs(r.scores - expected)) < 1e-8

    def test_probability_vector(self):
        g = gen_power_law_graph(2000, 1.5, SEED)
        r = pagerank(g, 0.85, np.full(2000, 1 / 2000))
        assert abs(r.scores.sum() - 1.0) < 1e-10
        assert np.all(r.scores >= 0)

    def test_residual_contraction(self):
        g = gen_power_law_graph(2000, 1.5, SEED)
        r = pagerank(g, 0.85, np.full(2000, 1 / 2000))
        floor = 100 * 1e-12
        ratios = [b / a for a, b in zip(r.residuals, r.residuals[1:]) if a > floor]
        assert max(ratios) <= 0.85 * (1 + 1e-9)

    def test_fixed_point_stability(self):
        g = star()
        q = np.full(6, 1 / 6)
        r = pagerank(g, 0.5, q, tol=1e-14)
        # one more sweep moves the result by less than the tolerance
        again = pagerank(g, 0.5, q, tol=1e-14)
        assert np.array_equal(r.scores, again.scores)

    def test_max_iter_exhausted(self):
        with pytest.raises(ConvergenceError) as exc:
            pagerank(cycle(5), 0.99, np.array([0.6, 0.1, 0.1, 0.1, 0.1]),
                     tol=1e-15, max_iter=2)
        assert exc.value.iterations == 2
        assert exc.value.residual is not None

    @staticmethod
    def assert_equals_csr_product(g, c, q):
        """``pagerank`` gives the scores, residuals and iteration count of
        the same power iteration on scipy's CSR product of ``A``."""
        sparse = pytest.importorskip("scipy.sparse")  # of the test extra alone

        a = sparse.csr_matrix((1.0 / g.out_degree[g.src], (g.dst, g.src)),
                              shape=(g.n, g.n), dtype=float)
        base = (1.0 - c) * q
        ref = _fixed_point(lambda r: c * (a @ r) + base, q, np.sum, 1e-12, 1000,
                           "power iteration")
        r = pagerank(g, c, q)
        assert r.scores.tobytes() == ref.scores.tobytes()
        assert (r.residuals, r.iterations) == (ref.residuals, ref.iterations)

    @pytest.mark.parametrize("n, alpha", [(3000, 1.5), (2000, 0.8), (500, 2.5), (50, 1.5)])
    def test_equals_the_csr_product_bit_for_bit(self, n, alpha):
        g = gen_power_law_graph(n, alpha, SEED)
        pareto = np.random.default_rng(SEED).pareto(1.5, n) + 1.0
        for c in (0.5, 0.85):
            for q in (np.full(n, 1 / n), pareto / pareto.sum()):
                self.assert_equals_csr_product(g, c, q)

    def test_multigraphs_equal_the_csr_product_bit_for_bit(self):
        # repeated edges, each one CSR entry of their summed weights, and
        # self-loops, in random order
        rng = np.random.default_rng(SEED)
        repeats = loops = 0
        for _ in range(20):
            n, m = int(rng.integers(2, 40)), int(rng.integers(1, 200))
            src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
            repeats += m - len(np.unique(dst * n + src))
            loops += int(np.sum(src == dst))
            q = rng.random(n)
            self.assert_equals_csr_product(DirectedGraph.from_edges(n, src, dst), 0.7,
                                           q / q.sum())
        assert repeats > 0 and loops > 0

    def test_memory_at_a_hundred_thousand_nodes(self):
        # 209 316 edges: the distinct-edge index is built in place, each
        # temporary dropped after its last read: 7.8 MB traced, against 10.5
        # MB with six edge-length temporaries alive at once
        g = gen_power_law_graph(10**5, 1.5, 1)
        q = np.full(g.n, 1.0 / g.n)
        r, peak = traced(lambda: pagerank(g, 0.85, q))
        assert r.iterations == 74
        assert peak < 9 * 2**20, peak

    def test_input_validation(self):
        g = cycle(3)
        with pytest.raises(ParameterError):
            pagerank(g, 1.0, np.full(3, 1 / 3))
        with pytest.raises(ParameterError):
            pagerank(g, 0.5, np.array([0.5, 0.5]))
        with pytest.raises(ParameterError):
            pagerank(g, 0.5, np.array([0.5, 0.6, -0.1]))


class TestMaxLinear:
    def test_no_edges_gives_preference_floor(self):
        g = DirectedGraph.from_edges(4, [], [])
        q = np.array([0.4, 0.3, 0.2, 0.1])
        r = max_linear_rank(g, 0.5, q)
        assert np.allclose(r.scores, 0.5 * q)
        assert r.iterations == 1

    def test_two_node_cycle_hand_fixed_point(self):
        # q = (0.8, 0.2), c = 0.5: floor (0.4, 0.1); node 1 is lifted by
        # 0.5 * 0.4 = 0.2 from node 0, node 0 stays at its floor
        g = cycle(2)
        r = max_linear_rank(g, 0.5, np.array([0.8, 0.2]))
        assert np.allclose(r.scores, [0.4, 0.2])

    def test_floor_lower_bound(self):
        g = gen_power_law_graph(1000, 1.5, SEED)
        rng = np.random.default_rng(SEED)
        q = rng.random(1000)
        q /= q.sum()
        r = max_linear_rank(g, 0.7, q)
        assert np.all(r.scores >= 0.3 * q - 1e-15)

    def test_scores_strictly_positive(self):
        g = cycle(5)
        r = max_linear_rank(g, 0.5, np.full(5, 0.2))
        assert np.all(r.scores > 0)

    @settings(max_examples=200, deadline=None)
    @given(case=rank_cases())
    def test_never_above_pagerank(self, case):
        # the paper's pairing of the two indices: PageRank is a
        # super-solution of the max-linear map, whose iteration starts at
        # the floor (1 - c) q below it
        g, c, q = case
        # a contraction by c = 0.99 takes some 3000 steps to 1e-12
        ml = max_linear_rank(g, c, q, max_iter=5000)
        pr = pagerank(g, c, q, max_iter=5000)
        assert np.all(ml.scores <= pr.scores * (1 + 1e-12))

    @settings(max_examples=200, deadline=None)
    @given(case=rank_cases())
    def test_equals_the_iteration_that_keeps_each_score_at_least_its_last(self, case):
        # every step is at least the one before it in floating point, so a
        # step that also takes the maximum with the last iterate moves nothing
        g, c, q = case
        edge_weight = c * (1.0 / g.out_degree[g.src])
        floor = (1.0 - c) * q

        def guarded_step(r):
            r_new = floor.copy()
            np.maximum.at(r_new, g.dst, edge_weight * r[g.src])
            return np.maximum(r_new, r)

        ref = _fixed_point(guarded_step, floor, np.max, 1e-12, 5000, "max-linear iteration")
        ml = max_linear_rank(g, c, q, max_iter=5000)
        assert ml.scores.tobytes() == ref.scores.tobytes()
        assert (ml.residuals, ml.iterations) == (ref.residuals, ref.iterations)


class TestGraphGeneration:
    def test_determinism(self):
        a = gen_power_law_graph(500, 1.5, SEED)
        b = gen_power_law_graph(500, 1.5, SEED)
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.dst, b.dst)

    def test_two_node_graph_repaired(self):
        g = gen_power_law_graph(2, 1.0, SEED)
        assert np.all(g.out_degree >= 1)

    def test_out_degree_always_positive(self):
        g = gen_power_law_graph(3000, 2.0, SEED)
        assert np.all(g.out_degree >= 1)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 300), alpha=st.floats(0.1, 3.0), seed=st.integers(0, 2**32 - 1))
    @example(n=300, alpha=0.1, seed=SEED)  # 22 dense targets (d > n/2)
    @example(n=2, alpha=3.0, seed=SEED)
    def test_no_duplicate_sources_per_target(self, n, alpha, seed):
        g = gen_power_law_graph(n, alpha, seed)
        degrees = graph_in_degrees(n, alpha, seed)
        edges = int(degrees.sum())
        # the non-repair edges carry exactly the drawn in-degrees
        assert np.bincount(g.dst[:edges], minlength=n).tobytes() == degrees.tobytes()
        keys = g.dst[:edges] * n + g.src[:edges]
        assert len(np.unique(keys)) == edges
        # one repair edge per node that no drawn edge leaves
        dangling = np.flatnonzero(np.bincount(g.src[:edges], minlength=n) == 0)
        assert g.src[edges:].tolist() == dangling.tolist()
        assert g.out_degree.min() >= 1
        assert g.out_degree.tobytes() == np.bincount(g.src, minlength=n).tobytes()
        again = gen_power_law_graph(n, alpha, seed)
        assert np.array_equal(g.src, again.src) and np.array_equal(g.dst, again.dst)

    def test_sources_uniform_per_degree(self):
        # each id is a source of a degree-d target with probability d/n;
        # ids are read both as they are and relative to the target, so a
        # bias towards small ids or against self-loops would show
        n, alpha, graphs = 10, 0.3, 1000
        hits = np.zeros((2, n, n))  # (absolute | relative id, degree, id)
        targets = np.zeros(n)
        for seed in range(graphs):
            g = gen_power_law_graph(n, alpha, seed)
            degrees = graph_in_degrees(n, alpha, seed)
            edges = int(degrees.sum())
            src, dst = g.src[:edges], g.dst[:edges]
            d = degrees[dst]
            np.add.at(hits[0], (d, src), 1)
            np.add.at(hits[1], (d, (src - dst) % n), 1)
            targets += np.bincount(degrees, minlength=n)
        for d in np.flatnonzero(targets >= 50):
            p = d / n
            expected = targets[d] * p
            se = math.sqrt(targets[d] * p * (1 - p))
            assert np.all(np.abs(hits[:, d] - expected) <= 4 * se), (d, hits[:, d])

    def test_dense_targets_finish_fast(self):
        # at alpha = 0.1 dozens of targets take more than half the nodes;
        # drawing their excluded ids keeps each redraw at >= 1/2 success
        n, alpha = 1000, 0.1
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            g = gen_power_law_graph(n, alpha, SEED)
            seconds.append(time.perf_counter() - start)
        degrees = graph_in_degrees(n, alpha, SEED)
        assert np.sum(2 * degrees > n) >= 50
        edges = int(degrees.sum())
        assert len(np.unique(g.dst[:edges] * n + g.src[:edges])) == edges
        assert min(seconds) < 0.5

    def test_in_degree_survival_matches_truncated_law(self):
        n = 10**5
        g = gen_power_law_graph(n, 1.5, SEED)
        spec = InDegreeSpec(alpha=1.5, n_max=n - 1)
        # oracle from an independent large sample of the same law
        ref = sample_power_law_int(spec, 10**6, SEED + 1)
        target = float(np.mean(ref > 100))
        emp = float(np.mean(np.bincount(g.dst, minlength=n) > 100))
        se = math.sqrt(target * (1 - target) / n)
        # repair edges add at most a small in-degree perturbation
        assert abs(emp - target) <= 3 * se + 0.005

    def test_edge_list_round_trip(self):
        g = gen_power_law_graph(200, 1.5, SEED)
        buf = io.StringIO()
        g.write_edge_list(buf)
        buf.seek(0)
        h = DirectedGraph.read_edge_list(buf, n=200)
        assert np.array_equal(np.sort(g.src * 200 + g.dst), np.sort(h.src * 200 + h.dst))

    @pytest.mark.parametrize("edges", BLOCK_LENGTHS)
    def test_edge_list_matches_line_loop_across_block_sizes(self, edges):
        rng = np.random.default_rng(edges)
        n = 10**6
        g = DirectedGraph.from_edges(n, rng.integers(0, n, edges), rng.integers(0, n, edges))
        assert edge_list_text(g) == loop_edge_list(g)
        h = DirectedGraph.read_edge_list(io.StringIO(edge_list_text(g)), n=n)
        assert np.array_equal(h.src, g.src) and np.array_equal(h.dst, g.dst)

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 49), st.integers(0, 49)), max_size=60))
    def test_edge_list_round_trip_in_order(self, pairs):
        src = [s for s, _ in pairs]
        dst = [d for _, d in pairs]
        g = DirectedGraph.from_edges(50, src, dst)
        text = edge_list_text(g)
        assert text == loop_edge_list(g)
        h = DirectedGraph.read_edge_list(io.StringIO(text), n=50)
        assert h.src.tolist() == src and h.dst.tolist() == dst

    def test_edge_list_skips_blank_and_comment_lines(self):
        g = DirectedGraph.read_edge_list(io.StringIO("# graph\n0 1\n\n  1 2  \n# end\n2 0\n"))
        assert g.n == 3
        assert g.src.tolist() == [0, 1, 2] and g.dst.tolist() == [1, 2, 0]

    @pytest.mark.parametrize("text, lineno", [
        ("0 1\n1 2 3\n", 2),
        ("0 1\n# c\n\n4\n", 4),
        ("0 1\n1 x\n", 2),
        ("0 1\n1 2.5\n", 2),
        ("0 1\n" * 200 + "0 99999999999999999999\n", 201),
        ("0 1\n" * (2 * BLOCK_ROWS) + "1 2 3\n", 2 * BLOCK_ROWS + 1),
    ])
    def test_edge_list_names_first_bad_line(self, text, lineno):
        with pytest.raises(DataError, match=f":{lineno}: "):
            DirectedGraph.read_edge_list(io.StringIO(text))

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_chunks_equal_loadtxt(self, monkeypatch, chunk_routes, seed):
        fast = ["3 4", "0 12", "-1 5", "-0 7", "999999999999999999 0"]
        loadtxt_only = ["1234567890123456789 2", "# c", "", "7 8 ", "  9 10", "1  2",
                        "1\t2", "5 6\r", "+3 4"]
        rng = np.random.default_rng(seed)
        text = "\n".join(rng.choice(loadtxt_only) if rng.random() < 0.1 else rng.choice(fast)
                         for _ in range(300))  # no final newline
        monkeypatch.setattr(textio, "CHUNK_CHARS", 64)
        back = read_rows(io.StringIO(text), 2, np.int64)
        expected = np.loadtxt(io.StringIO(text), dtype=np.int64, comments="#", ndmin=2)
        assert back.dtype == np.int64 and np.array_equal(back, expected)
        assert False in chunk_routes and True in chunk_routes

    @pytest.mark.parametrize("bad", ["4", "1 2 3", "1 2.0", "1 -", "1 x", "-"])
    def test_bad_line_in_third_chunk(self, monkeypatch, chunk_routes, bad):
        body = ["0 1", "# c"] + ["2 3"] * 60  # 16 lines a chunk
        body.insert(40, bad)
        monkeypatch.setattr(textio, "CHUNK_CHARS", 64)
        message = f"<input>:41: expected 2 int64 value(s), got {bad!r}"
        with pytest.raises(DataError) as info:
            DirectedGraph.read_edge_list(io.StringIO("\n".join(body) + "\n"))
        assert str(info.value) == message and chunk_routes == [False, True, False]

    def test_empty_edge_list_rejected(self):
        for text in ("", "# no edges\n\n"):
            with pytest.raises(ParameterError):
                DirectedGraph.read_edge_list(io.StringIO(text))

    def test_from_edges_validation(self):
        with pytest.raises(ParameterError):
            DirectedGraph.from_edges(2, [0, 1], [1, 2])
        with pytest.raises(ParameterError):
            DirectedGraph.from_edges(0, [], [])


def edge_list_text(g):
    buf = io.StringIO()
    g.write_edge_list(buf)
    return buf.getvalue()


def loop_edge_list(g):
    """The edge list as the per-edge f-string loop wrote it."""
    return "".join(f"{s} {d}\n" for s, d in zip(g.src, g.dst))


def rank_csv_text(rv):
    buf = io.StringIO()
    rv.write_csv(buf)
    return buf.getvalue()


def loop_rank_csv(rv):
    """The rank CSV as the per-score f-string loop wrote it."""
    return "node_id,score\n" + "".join(f"{i},{s:.17g}\n" for i, s in enumerate(rv.scores))


# ties, a subnormal, huge values, both zeros, infinities and NaN
SPECIAL_SCORES = np.array([
    0.25, 0.25, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e300,
    0.0, -0.0, np.inf, -np.inf, np.nan, 0.1, 1 / 3,
])


class TestRankVector:
    def test_top_nodes_ties_broken_by_index(self):
        from rank_extremes.graphrank import RankVector

        rv = RankVector(scores=np.array([0.2, 0.5, 0.5, 0.1]), iterations=1, residual=0.0)
        assert rv.top_nodes(3).tolist() == [1, 2, 0]

    def test_csv_export(self):
        from rank_extremes.graphrank import RankVector

        rv = RankVector(scores=np.array([0.25, 0.75]), iterations=1, residual=0.0)
        buf = io.StringIO()
        rv.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "node_id,score"
        assert lines[1].startswith("0,0.25")

    @pytest.mark.parametrize("length", BLOCK_LENGTHS)
    def test_csv_matches_line_loop_across_block_sizes(self, length):
        rv = RankVector(scores=np.resize(SPECIAL_SCORES, length), iterations=1, residual=0.0)
        assert rank_csv_text(rv) == loop_rank_csv(rv)

    @settings(max_examples=200, deadline=None)
    @given(scores=st.lists(st.floats(width=64), max_size=40))
    def test_csv_matches_line_loop(self, scores):
        rv = RankVector(scores=np.array(scores, dtype=float), iterations=1, residual=0.0)
        assert rank_csv_text(rv) == loop_rank_csv(rv)


class TestHittingTimes:
    def test_start_in_target_counts_as_zero(self):
        g = cycle(2)
        r = pagerank(g, 0.85, np.full(2, 0.5))
        # top_p = 0.5 selects one node (node with higher rank; symmetric,
        # so node 0 by index tie-break); a one-hot q starts every walk
        # there, so each hits at step 0
        ht = random_walk_hitting(g, 0.85, r, 0.5, 50, SEED, q=np.array([1.0, 0.0]))
        assert np.all(ht.times == 0)
        assert ht.mean == 0.0

    def test_deterministic_cycle_step(self):
        g = cycle(2)
        r = pagerank(g, 0.85, np.full(2, 0.5))
        # a one-hot q starts every walk at node 1 and teleports it back
        # there: each step reaches the target node 0 along the edge with
        # probability c, so every time is at least 1, and 1 with probability c
        trials = 2000
        ht = random_walk_hitting(g, 0.85, r, 0.5, trials, SEED, q=np.array([0.0, 1.0]))
        assert ht.times.min() >= 1
        ones = np.count_nonzero(ht.times == 1)
        assert abs(ones - 0.85 * trials) <= 4 * math.sqrt(trials * 0.85 * 0.15)

    def test_equals_a_walk_over_the_edge_list(self):
        # node 0 lists its out-edges out of target order, with a repeated
        # edge and a self-loop, between the edges of other nodes: a walk
        # takes the floor(u * D)-th out-edge of its node in edge-list order
        src = [0, 1, 0, 3, 0, 2, 1, 0, 4, 3, 4, 0]
        dst = [3, 4, 1, 2, 3, 0, 2, 0, 4, 1, 0, 2]
        g = DirectedGraph.from_edges(5, src, dst)
        ranks = RankVector(scores=np.array([0.1, 0.2, 0.3, 0.1, 0.9]), iterations=1,
                           residual=0.0)
        q = np.array([0.4, 0.1, 0.2, 0.2, 0.1])
        ht = random_walk_hitting(g, 0.85, ranks, 0.2, 300, SEED, q=q)
        assert ht.times.tolist() == walk_over_edge_list(src, dst, q, 0.85, {4}, 300, SEED)

    def test_empty_target_rejected(self):
        g = cycle(10)
        r = pagerank(g, 0.85, np.full(10, 0.1))
        with pytest.raises(ParameterError):
            random_walk_hitting(g, 0.85, r, 0.01, 10, SEED)

    def test_mean_decreases_with_target_size(self):
        g = gen_power_law_graph(10**4, 1.5, SEED)
        q = np.full(10**4, 1e-4)
        r = pagerank(g, 0.85, q)
        means = []
        for top_p in (0.001, 0.01, 0.1):
            ht = random_walk_hitting(g, 0.85, r, top_p, 200, SEED, q=q)
            means.append(ht.mean)
        assert means[0] >= means[1] >= means[2]

    def test_determinism(self):
        g = gen_power_law_graph(500, 1.5, SEED)
        q = np.full(500, 1 / 500)
        r = pagerank(g, 0.85, q)
        a = random_walk_hitting(g, 0.85, r, 0.1, 100, SEED, q=q)
        b = random_walk_hitting(g, 0.85, r, 0.1, 100, SEED, q=q)
        assert np.array_equal(a.times, b.times)


def walk_over_edge_list(src, dst, q, c, target, trials, seed):
    """Hitting times of ``target`` for ``trials`` walks, one Python step at a
    time, drawing as ``random_walk_hitting`` does from the walk stream: the
    start nodes, then on each step the teleport uniforms of the walks still
    out, the edge uniforms of those that follow an edge, and the nodes of
    those that teleport."""
    rng = child_rng(seed, STREAMS["walk"])
    out_edges = [[] for _ in q]
    for s, d in zip(src, dst):
        out_edges[s].append(d)
    cum_q = list(itertools.accumulate(q))
    cum_q[-1] = 1.0
    pos = [bisect.bisect_right(cum_q, u) for u in rng.random(trials)]
    times = [None] * trials
    active = list(range(trials))
    step = 0
    while True:
        for walk in active:
            if pos[walk] in target:
                times[walk] = step
        active = [walk for walk in active if times[walk] is None]
        if not active:
            return times
        teleport = rng.random(len(active)) >= c
        follow = [walk for walk, t in zip(active, teleport) if not t]
        jump = [walk for walk, t in zip(active, teleport) if t]
        for walk, u in zip(follow, rng.random(len(follow))):
            edges = out_edges[pos[walk]]
            pos[walk] = edges[int(u * len(edges))]
        for walk, u in zip(jump, rng.random(len(jump))):
            pos[walk] = bisect.bisect_right(cum_q, u)
        step += 1
