"""Checks of the program's outputs against computations made apart from it.

Every check is a pure function that returns a list of failure messages
(empty when the output is correct).  Closed forms are worked out here from
the model, not taken from ``rank_extremes.theory``; parsers read the
program's files with plain NumPy, not with the program's own readers.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import sparse

# --- closed forms -----------------------------------------------------------
#
# thm2: equal tails k = 2, weights z = (1, 1, 2), component extremal indices
#   (1, 1/2, 1/4) for iid, mm:1,1 and mm:1,1,1,1.  theta is the z**k-weighted
#   average: (1 + 1/2 + 4/4) / (1 + 1 + 4) = 5/12.
# thm3: tails (1, 2, 3); the unique heaviest component (k = 1, mm:1,1) sets
#   k = 1 and theta = 1/2.
# thm4 tail rule: k = min(k, alpha, beta) = 1.2 in each of the three configs.
# thm4 followers: 100 equally weighted columns alternating iid (theta 1) and
#   mm:1,1 (theta 1/2): theta = (1 + 1/2) / 2 = 3/4.
# thm4 preference: theta = (1 - c)**beta = (1 - 0.5)**1 = 1/2.
THETA_THM2 = 5.0 / 12.0
K_THM3, THETA_THM3 = 1.0, 0.5
K_TAIL = 1.2
THETA_FOLLOWERS = 0.75
THETA_PREFERENCE = 0.5

PREDICTION_TOL = 1e-9


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def load_strict_json(text: str):
    """Parse JSON as RFC 8259 defines it: ``NaN`` and ``Infinity`` are errors."""
    return json.loads(text, parse_constant=_reject_constant)


def strict_json_failures(text: str, label: str) -> list[str]:
    try:
        load_strict_json(text)
    except ValueError as exc:  # also json.JSONDecodeError
        return [f"strict-json: {label}: {exc}"]
    return []


# --- parsers ----------------------------------------------------------------

def read_path_csv(text: str) -> tuple[dict, np.ndarray]:
    """``# key=value`` header lines, a ``value`` line, then one float a line."""
    lines = text.splitlines()
    meta = {}
    start = 0
    for i, line in enumerate(lines):
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif line.strip() == "value":
            start = i + 1
            break
    return meta, np.array(lines[start:], dtype=float)


def read_edges(text: str) -> tuple[np.ndarray, np.ndarray]:
    pairs = np.array(text.split(), dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0].copy(), pairs[:, 1].copy()


def read_rank_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    header, _, body = text.partition("\n")
    if header.strip() != "node_id,score":
        raise ValueError(f"unexpected rank CSV header {header!r}")
    cols = np.array(body.replace(",", " ").split(), dtype=float).reshape(-1, 2)
    return cols[:, 0].astype(np.int64), cols[:, 1]


# --- experiment reports -----------------------------------------------------

def verify_report_failures(report: dict, predicted: dict, medians: list,
                           replications: int) -> list[str]:
    """Closed-form predictions and medians against one ``verify`` report.

    ``predicted`` maps report ``predicted`` keys to closed-form values;
    ``medians`` holds ``(estimate key, target, tol, relative)`` tuples.
    """
    out = []
    for key, value in predicted.items():
        got = report["predicted"].get(key)
        if got is None or abs(got - value) > PREDICTION_TOL:
            out.append(f"predicted {key}={got} differs from closed form {value}")
    est = report["estimates"]
    for key, target, tol, relative in medians:
        got = est.get(f"{key}_median")
        bound = tol * abs(target) if relative else tol
        if got is None or not abs(got - target) <= bound:
            out.append(f"{key} median {got} outside {target} +/- {bound:.4g}")
    rows = est.get("per_replication") or []
    if len(rows) != replications:
        out.append(f"{len(rows)} replication rows, expected {replications}")
    return out


def estimates_csv_failures(text: str, replications: int) -> list[str]:
    lines = [line for line in text.splitlines() if line]
    if len(lines) != replications + 1 or not lines[0].startswith("replication,"):
        return [f"estimates CSV has {len(lines)} lines, expected {replications + 1}"]
    return []


def tail_eq_failures(report: dict) -> list[str]:
    est, cfg = report["estimates"], report["config"]
    out = []
    if not cfg["ratio_low"] <= est["ratio"] <= cfg["ratio_high"]:
        out.append(f"tail ratio {est['ratio']} outside [{cfg['ratio_low']}, {cfg['ratio_high']}]")
    if est["exceed_max"] <= 0 or est["ratio"] != est["exceed_sum"] / est["exceed_max"]:
        out.append("tail ratio is not exceed_sum / exceed_max")
    if not est["reliable"]:
        out.append("fewer exceedances than the reliability floor")
    return out


# --- estimators -------------------------------------------------------------

def hill_estimate(values: np.ndarray, fraction: float) -> float:
    """Hill estimate over the top ``floor(fraction * n)`` order statistics."""
    order = np.sort(values)[::-1]
    m = int(math.floor(fraction * len(order)))
    return 1.0 / float(np.mean(np.log(order[:m] / order[m])))


def hill_failures(values: np.ndarray, estimate: dict, fraction: float) -> list[str]:
    expected = hill_estimate(values, fraction)
    got = estimate["estimate"]
    if not abs(got - expected) <= 1e-12 * abs(expected):
        return [f"hill estimate {got!r} differs from recomputed {expected!r}"]
    return []


def exceedance_failures(values: np.ndarray, estimate: dict) -> list[str]:
    out = []
    count = int(np.count_nonzero(values > estimate["threshold"]))
    if count != estimate["exceedances"]:
        out.append(f"{estimate['method']}: {estimate['exceedances']} exceedances "
                   f"reported, {count} counted")
    if estimate["method"] != "hill" and not 0 < estimate["estimate"] <= 1:
        out.append(f"{estimate['method']}: extremal index {estimate['estimate']} "
                   "outside (0, 1]")
    return out


def path_failures(meta: dict, values: np.ndarray, n: int, floor: float) -> list[str]:
    """A sum aggregate is at least its preference term ``(1 - c) q >= floor``."""
    out = []
    if len(values) != n or meta.get("n") != str(n):
        out.append(f"path has {len(values)} values, header n={meta.get('n')}, expected {n}")
    if len(values) and not (np.all(np.isfinite(values)) and values.min() >= floor):
        out.append(f"path values below the preference floor {floor} or not finite")
    return out


# --- graph layer ------------------------------------------------------------

def _transition(src, dst, n) -> sparse.csr_matrix:
    """Column-stochastic ``A`` with ``A[i, j] = 1/D_j`` for each edge ``j -> i``."""
    out_deg = np.bincount(src, minlength=n).astype(float)
    return sparse.csr_matrix((1.0 / out_deg[src], (dst, src)), shape=(n, n))


def pagerank_failures(src, dst, n, c, q, ids, scores, tol=1e-9) -> list[str]:
    """PageRank scores against the exact solution of ``(I - cA) r = (1 - c) q``.

    ``A`` is column-substochastic, so ``||(I - cA)^-1||_1 <= 1 / (1 - c)``
    and the L1 residual divided by ``1 - c`` bounds the distance to the
    exact solution in every coordinate.  (A direct ``spsolve`` is exact too,
    but its LU fill-in on a random graph of 10^5 nodes does not finish in
    minutes; the self-test compares the two on a small graph.)
    """
    if len(scores) != n or not np.array_equal(ids, np.arange(n)):
        return [f"pagerank CSV has {len(scores)} rows for {n} nodes"]
    residual = scores - c * (_transition(src, dst, n) @ scores) - (1.0 - c) * q
    bound = float(np.abs(residual).sum()) / (1.0 - c)
    if not bound <= tol:
        return [f"pagerank error bound {bound:.3g} exceeds {tol:g}"]
    return []


def max_linear_residual(src, dst, n, c, q, scores) -> float:
    """``max_i |R_i - max((1-c) q_i, max_{j->i} (c/D_j) R_j)|``."""
    out_deg = np.bincount(src, minlength=n).astype(float)
    contrib = c / out_deg[src] * scores[src]
    order = np.argsort(dst, kind="stable")
    d_sorted = dst[order]
    starts = np.flatnonzero(np.r_[True, d_sorted[1:] != d_sorted[:-1]])
    image = (1.0 - c) * np.asarray(q, dtype=float)
    if len(order):
        best = np.maximum.reduceat(contrib[order], starts)
        targets = d_sorted[starts]
        image[targets] = np.maximum(image[targets], best)
    return float(np.max(np.abs(image - scores)))


def max_linear_failures(src, dst, n, c, q, scores, tol=1e-12) -> list[str]:
    if len(scores) != n:
        return [f"max-linear vector has {len(scores)} entries for {n} nodes"]
    residual = max_linear_residual(src, dst, n, c, q, scores)
    if not residual <= tol:
        return [f"max-linear fixed-point residual {residual:.3g} exceeds {tol:g}"]
    return []


def edge_failures(src, dst, ref_src, ref_dst) -> list[str]:
    if not (np.array_equal(src, ref_src) and np.array_equal(dst, ref_dst)):
        return [f"edge list holds {len(src)} edges that differ from the "
                f"{len(ref_src)} generated"]
    return []


def hitting_failures(result: dict, nodes: int, top_p: float) -> list[str]:
    out = []
    if result.get("target_size") != int(top_p * nodes):
        out.append(f"hitting target size {result.get('target_size')}, "
                   f"expected {int(top_p * nodes)}")
    if not (math.isfinite(result.get("mean", math.nan)) and result["mean"] >= 0
            and result.get("median", -1) >= 0):
        out.append(f"hitting times {result} not finite and nonnegative")
    return out


# --- branching tree ---------------------------------------------------------

def tbt_root_value(c: float, d: int, depth: int, q: float) -> float:
    """Root of the sum recursion with in-degree ``d`` and constant ``q``:
    ``(1 - c) q * sum_{g=0..depth} (c d)**g``."""
    return (1.0 - c) * q * sum((c * d) ** g for g in range(depth + 1))


def tbt_failures(root_values: np.ndarray, c, d, depth, q, n_roots) -> list[str]:
    expected = tbt_root_value(c, d, depth, q)
    if len(root_values) != n_roots:
        return [f"{len(root_values)} root values, expected {n_roots}"]
    worst = float(np.max(np.abs(root_values - expected))) / expected
    if not worst <= 1e-9:
        return [f"tree root values off the closed form {expected} by rel {worst:.3g}"]
    return []
