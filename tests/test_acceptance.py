"""Acceptance suite: Monte-Carlo verification of the closed-form claims.

Each criterion records one PASS/FAIL line; conftest.py echoes them in the
terminal summary so they survive output capture.  Experiment reports are
cached at module scope because the sum/max agreement criterion reuses the
configs of the others.
"""

import os

import numpy as np

from rank_extremes.estimators import (
    ThresholdRule,
    blocks_theta,
    definition_theta,
    hill,
    intervals_theta,
    mean_cluster_size,
    nearest_rank_quantile,
)
from rank_extremes.experiments import ExperimentConfig, run_experiment
from rank_extremes.graphrank import gen_power_law_graph, pagerank
from rank_extremes.heavytail import (
    DependenceSpec,
    SequenceSpec,
    TailSpec,
    gen_moving_maxima,
    sample_pareto,
)
from rank_extremes.rng import replication_seed

SEED = 20260824

# every stochastic-recursion config exercised by criteria 1-5; criterion 7
# (sum/max agreement) re-checks the same cached reports
CONFIGS = {
    "thm2": ("verify-thm2", {}),
    "thm3": ("verify-thm3", {}),
    "tail-k": ("verify-thm4", dict(regime="tail", k=1.2, alpha=2.0, beta=3.0,
                                   tol_k_rel=0.15)),
    "tail-alpha": ("verify-thm4", dict(regime="tail", k=3.0, alpha=1.2,
                                       beta=2.0, n_max=10000, tol_k_rel=0.15)),
    "tail-beta": ("verify-thm4", dict(regime="tail", k=3.0, alpha=2.0,
                                      beta=1.2, tol_k_rel=0.15)),
    "pref-05": ("verify-thm4", dict(damping=0.5, tol_theta=0.08)),
    "pref-09": ("verify-thm4", dict(damping=0.9, tol_theta=0.05)),
    "followers": ("verify-thm4", dict(regime="followers", k=1.2, beta=3.0,
                                      deps="iid;mm:1,1", fixed_in_degree=100,
                                      tol_theta=0.10)),
}

_REPORTS: dict[str, dict] = {}

# replications run on a worker pool; --jobs rows equal --jobs 1 rows
# (tests/test_cli.py), so the verdicts do not depend on it
JOBS = min(os.cpu_count() or 1, 4)


def report_for(name):
    if name not in _REPORTS:
        kind, overrides = CONFIGS[name]
        cfg = ExperimentConfig.default(kind, **overrides)
        _REPORTS[name] = run_experiment(cfg, jobs=JOBS)
    return _REPORTS[name]


# one verdict line per criterion, echoed by conftest.py after the run
CRITERION_LINES: list[str] = []


def emit(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] acceptance criterion {criterion}: {detail}"
    CRITERION_LINES.append(line)
    print(line, flush=True)
    assert passed, f"criterion {criterion}: {detail}"


# --- criterion 1: equal tails, weighted-average extremal index -------------

def test_criterion_1_equal_tails_theta():
    rep = report_for("thm2")
    est = rep["estimates"]
    target = rep["predicted"]["theta_of_z"]
    values = {
        key: est[f"{key}_median"]
        for key in ("blocks_sum", "blocks_max", "intervals_sum", "intervals_max")
    }
    worst = max(abs(v - target) for v in values.values())
    emit(1, worst <= 0.08,
         f"theta medians {['%.4f' % v for v in values.values()]} vs "
         f"{target:.5f} (worst err {worst:.4f}, tol 0.08)")


# --- criterion 2: unique minimal tail index wins ----------------------------

def test_criterion_2_min_rule():
    rep = report_for("thm3")
    est = rep["estimates"]
    k_target = rep["predicted"]["k_of_z"]
    t_target = rep["predicted"]["theta_of_z"]
    k_err = max(
        abs(est["hill_sum_median"] - k_target),
        abs(est["hill_max_median"] - k_target),
    ) / k_target
    t_err = max(
        abs(est[f"{key}_median"] - t_target)
        for key in ("blocks_sum", "blocks_max", "intervals_sum", "intervals_max")
    )
    emit(2, k_err <= 0.10 and t_err <= 0.08,
         f"hill rel err {k_err:.4f} (tol 0.10), theta err {t_err:.4f} (tol 0.08)")


# --- criterion 3: tail rule min(k, alpha, beta), three regimes --------------

def test_criterion_3_tail_rule():
    details = []
    ok = True
    for name in ("tail-k", "tail-alpha", "tail-beta"):
        rep = report_for(name)
        target = rep["predicted"]["k_of_z"]
        median = rep["estimates"]["hill_sum_median"]
        rel = abs(median - target) / target
        rows = rep["estimates"]["per_replication"]
        within = sum(abs(r["hill_sum"] - target) / target <= 0.15 for r in rows)
        ok = ok and rel <= 0.15 and within >= 45
        details.append(f"{name}: median {median:.3f} vs {target} "
                       f"(rel {rel:.3f}), {within}/50 reps within 15%")
    emit(3, ok, "; ".join(details))


# --- criterion 4: preference-dominant extremal index (z*)^beta --------------

def test_criterion_4_preference_regime():
    details = []
    ok = True
    for name, c, tol in (("pref-05", 0.5, 0.08), ("pref-09", 0.9, 0.05)):
        rep = report_for(name)
        target = rep["predicted"]["theta_of_z"]
        est = rep["estimates"]
        worst = max(
            abs(est["definition_sum"] - target),
            abs(est["definition_max"] - target),
            abs(est["blocks_sum_median"] - target),
            abs(est["blocks_max_median"] - target),
        )
        ok = ok and worst <= tol
        details.append(f"c={c}: target {target:.2f}, worst err {worst:.4f} (tol {tol})")
    emit(4, ok, "; ".join(details))


# --- criterion 5: followers-dominant truncated weighted average -------------

def test_criterion_5_followers_regime():
    rep = report_for("followers")
    target = rep["predicted"]["theta_of_z"]
    est = rep["estimates"]
    worst = max(
        abs(est[f"{key}_median"] - target)
        for key in ("blocks_sum", "blocks_max", "intervals_sum", "intervals_max")
    )
    emit(5, worst <= 0.10,
         f"target {target:.4f}, worst median err {worst:.4f} (tol 0.10)")


# --- criterion 6: sum/max tail equivalence at the 1-1e-4 quantile -----------

def test_criterion_6_tail_equivalence():
    rep = run_experiment(ExperimentConfig.default("tail-eq"))
    ratio = rep["estimates"]["ratio"]
    reliable = rep["estimates"]["reliable"]
    emit(6, 0.85 <= ratio <= 1.15 and reliable,
         f"paired exceedance ratio {ratio:.4f} in [0.85, 1.15], "
         f"exceedances {rep['estimates']['exceed_sum']}/{rep['estimates']['exceed_max']}")


# --- criterion 7: max/sum extremal-index agreement on every config ----------

def test_criterion_7_sum_max_agreement():
    diffs = {
        name: report_for(name)["estimates"]["pair_diff_blocks_median"]
        for name in CONFIGS
    }
    worst = max(diffs.values())
    emit(7, worst <= 0.06,
         "median |theta_sum - theta_max| per config: "
         + ", ".join(f"{k}={v:.4f}" for k, v in diffs.items())
         + " (tol 0.06)")


# --- criterion 8: estimator calibration on i.i.d. Pareto input --------------

def test_criterion_8_estimator_calibration():
    k_true = 1.5
    blocks, intervals, hills = [], [], []
    for rep in range(50):
        path = sample_pareto(TailSpec(k_true), 10**6, replication_seed(SEED, rep))
        blocks.append(
            blocks_theta(path, nearest_rank_quantile(path, 0.999)).estimate
        )
        intervals.append(
            intervals_theta(path, nearest_rank_quantile(path, 0.995)).estimate
        )
        hills.append(hill(path, ThresholdRule.top_count(10**4)).estimate)
    paths = np.empty((500, 10**5))
    for rep in range(500):
        paths[rep] = sample_pareto(
            TailSpec(k_true), 10**5, replication_seed(SEED, 1000 + rep)
        )
    definition = definition_theta(paths, tau=1.0).estimate
    del paths
    b, i, h = (float(np.median(v)) for v in (blocks, intervals, hills))
    hill_rel = abs(h - k_true) / k_true
    ok = (0.9 <= b <= 1.1 and 0.9 <= i <= 1.1 and 0.9 <= definition <= 1.1
          and hill_rel <= 0.05)
    emit(8, ok,
         f"theta medians blocks {b:.4f} intervals {i:.4f} definition "
         f"{definition:.4f} (target 1 +/- 0.1); hill {h:.4f} vs {k_true} "
         f"(rel {hill_rel:.4f}, tol 0.05)")


# --- criterion 9: deterministic PageRank ------------------------------------

def test_criterion_9_deterministic_pagerank():
    # star-graph linear-solve oracle
    import numpy.linalg as la
    from rank_extremes.graphrank import DirectedGraph

    g = DirectedGraph.from_edges(6, [1, 2, 3, 4, 5, 0], [0, 0, 0, 0, 0, 1])
    q = np.full(6, 1 / 6)
    r = pagerank(g, 0.5, q)
    a = np.zeros((6, 6))
    for s, d in zip(g.src, g.dst):
        a[d, s] += 0.5 / g.out_degree[s]
    oracle = la.solve(np.eye(6) - a, 0.5 * q)
    star_err = float(np.max(np.abs(r.scores - oracle)))

    big = gen_power_law_graph(10**4, 1.5, SEED)
    qb = np.full(10**4, 1e-4)
    rb = pagerank(big, 0.85, qb)
    floor = 100 * 1e-12
    ratios = [y / x for x, y in zip(rb.residuals, rb.residuals[1:]) if x > floor]
    norm_err = abs(float(rb.scores.sum()) - 1.0)
    ok = star_err < 1e-8 and max(ratios) <= 0.85 * (1 + 1e-9) and norm_err < 1e-10
    emit(9, ok,
         f"star oracle err {star_err:.2e} (tol 1e-8); residual ratio "
         f"{max(ratios):.6f} <= c=0.85; normalization err {norm_err:.2e} (tol 1e-10)")


# --- criterion 10: cluster-size link 1/theta --------------------------------

def test_criterion_10_cluster_size_link():
    seq = SequenceSpec(TailSpec(1.0), DependenceSpec.moving_maxima(1, 1))
    path = gen_moving_maxima(seq, 10**6, SEED)
    u = nearest_rank_quantile(path, 0.99)
    stats = mean_cluster_size(path, u)
    emit(10, 1.7 <= stats.mean_size <= 2.4,
         f"mean cluster size {stats.mean_size:.3f} in [1.7, 2.4] "
         f"(1/theta = 2 for the theta=1/2 path)")
