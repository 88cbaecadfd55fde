"""Spans around calls into the program's public functions.

The tracer wraps functions of ``rank_extremes`` from outside: every module
attribute (or class attribute) that holds the original function object is
replaced by a wrapper that records a span, and :meth:`Tracer.uninstall`
puts the originals back.  The program's source is not edited.

Spans are kept in memory and written out once, when the run ends.  Spans
recorded in worker processes forked by the program's process pool stay in
those workers and are not collected.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "rank_extremes"


@dataclass(frozen=True)
class Target:
    """One function to wrap and the per-layer metrics its spans feed.

    ``where`` is ``module:qualname`` inside ``rank_extremes``; ``metric``
    is the ``<module>.<function>`` prefix of its metrics.  ``counters``
    maps ``(args, kwargs, result)`` to extra ``{suffix: amount}`` counts,
    and ``split`` may append a suffix to the span name from the arguments.
    """

    where: str
    metric: str
    quantities: tuple[str, ...] = ("s",)
    counters: Callable | None = None
    split: Callable | None = None


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(fileobj) -> int:
    name = getattr(fileobj, "name", None)
    return os.path.getsize(name) if isinstance(name, str) else 0


def _cli_command(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv")
    return argv[0] if argv else "none"


def _pair_path(args, kwargs):
    config = _arg(args, kwargs, 0, "config")
    return "iid" if config.all_iid_columns() else "columns"


def _definition_mb(args, kwargs, result):
    paths = _arg(args, kwargs, 0, "paths")
    calib = kwargs.get("calibration_paths", args[2] if len(args) > 2 else None)
    nbytes = paths.nbytes + (0 if calib is None else calib.nbytes)
    return {"input_mb": nbytes / 2**20}


def _report_rows(args, kwargs, result):
    return {"replications": len(result["estimates"].get("per_replication") or ())}


TARGETS = (
    Target("estimators:hill", "estimators.hill", ("s", "calls")),
    Target("estimators:nearest_rank_quantile", "estimators.nearest_rank_quantile",
           ("s", "calls")),
    Target("estimators:blocks_theta", "estimators.blocks_theta"),
    Target("estimators:intervals_theta", "estimators.intervals_theta"),
    Target("estimators:mean_cluster_size", "estimators.mean_cluster_size"),
    Target("estimators:definition_theta", "estimators.definition_theta",
           ("s", "input_mb"), counters=_definition_mb),
    Target("heavytail:sample_pareto", "heavytail.sample_pareto", ("s", "values"),
           counters=lambda a, k, r: {"values": len(r)}),
    Target("heavytail:gen_moving_maxima", "heavytail.moving_maxima"),
    Target("heavytail:sample_power_law_int", "heavytail.sample_power_law_int"),
    Target("heavytail:sample_sequence", "heavytail.sample_sequence", ("s", "calls")),
    Target("recursion:sample_weighted_pair", "recursion.sample_weighted_pair"),
    Target("recursion:sample_aggregate_pair", "recursion.sample_aggregate_pair",
           ("columns.s", "columns.calls", "iid.s", "iid.calls"), split=_pair_path),
    Target("recursion:compare_tail_sum_max", "recursion.compare_tail_sum_max"),
    Target("recursion:simulate_tbt", "recursion.simulate_tbt"),
    Target("recursion:AggregatePath.write_csv", "recursion.write_csv"),
    Target("experiments:run_experiment", "experiments.run_experiment",
           ("s", "self_s"), counters=_report_rows),
    Target("cli:main", "cli",
           tuple(f"{cmd}.s" for cmd in
                 ("simulate", "estimate", "verify", "tail-eq", "graph", "report")),
           split=_cli_command),
    Target("cli:read_path_csv", "cli.read_path_csv", ("s",),
           counters=lambda a, k, r: {"path_csv_bytes": _file_bytes(_arg(a, k, 0, "fileobj"))}),
    Target("graphrank:gen_power_law_graph", "graphrank.gen_power_law_graph",
           counters=lambda a, k, r: {"edges": r.edge_count}),
    Target("graphrank:DirectedGraph.write_edge_list", "graphrank.write_edge_list"),
    Target("graphrank:DirectedGraph.read_edge_list", "graphrank.read_edge_list"),
    Target("graphrank:RankVector.write_csv", "graphrank.write_csv"),
    Target("graphrank:pagerank", "graphrank.pagerank", ("s", "iterations"),
           counters=lambda a, k, r: {"iterations": r.iterations}),
    Target("graphrank:max_linear_rank", "graphrank.max_linear_rank", ("s", "iterations"),
           counters=lambda a, k, r: {"iterations": r.iterations}),
    Target("graphrank:random_walk_hitting", "graphrank.random_walk_hitting",
           ("s", "steps"), counters=lambda a, k, r: {"steps": int(r.times.sum())}),
)

# Counters that a target adds next to its own metric prefix, by the name
# under which they are reported.
EXTRA_COUNTERS = {
    "cli.read_path_csv": {"path_csv_bytes": ("cli.path_csv_bytes", "B")},
    "graphrank.gen_power_law_graph": {"edges": ("graphrank.edges", "count")},
    "experiments.run_experiment": {"replications": ("experiments.replications", "count")},
}

UNITS = {"s": "s", "self_s": "s", "calls": "count", "values": "count",
         "iterations": "count", "steps": "count", "input_mb": "MB"}


def metric_names() -> list[tuple[str, str, str | None]]:
    """Every per-layer metric as ``(name, unit, target metric prefix)``."""
    out = []
    for target in TARGETS:
        for q in target.quantities:
            out.append((f"{target.metric}.{q}", UNITS[q.rsplit(".", 1)[-1]],
                        target.metric))
        for name, unit in EXTRA_COUNTERS.get(target.metric, {}).values():
            out.append((name, unit, target.metric))
    out.append(("trace.overhead_s", "s", None))
    return out


class Tracer:
    """Records spans while installed and ``active``; passes calls through otherwise."""

    def __init__(self):
        self.spans: list[dict] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []
        self.round = 0
        self.active = False  # spans are recorded only while True

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for target in TARGETS:
            if not self._wrap(target):
                self.absent.append(target.metric)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _wrap(self, target: Target) -> bool:
        mod_name, qualname = target.where.split(":")
        module = sys.modules.get(f"{PACKAGE}.{mod_name}")
        if module is None:
            return False
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name, None)
            raw = getattr(cls, "__dict__", {}).get(attr)
            if raw is None:
                return False
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrapper(target, raw.__func__))
            else:
                wrapped = self._wrapper(target, raw)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
            return True
        original = getattr(module, qualname, None)
        if original is None:
            return False
        wrapper = self._wrapper(target, original)
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return True

    def _wrapper(self, target: Target, func):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            name = target.metric
            if target.split is not None:
                name = f"{name}.{target.split(args, kwargs)}"
            frame = {"name": name, "start": time.perf_counter(), "child": 0.0,
                     "parent": tracer._stack[-1]["index"] if tracer._stack else None,
                     "index": len(tracer.spans)}
            tracer.spans.append(frame)
            tracer._stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._stack.pop()
                end = time.perf_counter()
                duration = end - frame["start"]
                frame.update(end=end, round=tracer.round)
                if tracer._stack:
                    tracer._stack[-1]["child"] += duration
                tracer.totals[f"{name}.s"] += duration
                tracer.totals[f"{name}.calls"] += 1
                tracer.totals[f"{name}.self_s"] += duration - frame["child"]
            if target.counters is not None:
                for key, amount in target.counters(args, kwargs, result).items():
                    alias = EXTRA_COUNTERS.get(target.metric, {}).get(key)
                    tracer.totals[alias[0] if alias else f"{name}.{key}"] += amount
            return result

        traced.__wrapped__ = func
        return traced

    # -- reporting ----------------------------------------------------------

    def metrics(self, rounds: int, overhead_s: float) -> dict:
        """Per-round averages of every per-layer metric."""
        out = {}
        for name, unit, owner in metric_names():
            if owner is None:
                value = overhead_s
            elif owner in self.absent:
                value = None
            else:
                value = self.totals.get(name, 0.0) / max(rounds, 1)
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        spans = [
            {"name": s["name"], "round": s.get("round"), "parent": s["parent"],
             "start": s["start"], "end": s.get("end")}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "spans": spans}, fh)
