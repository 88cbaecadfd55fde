"""Benchmark of rank-extremes: one workload per run, one JSON line out.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mixture --seed 1 --seconds 16 --trace 0

The run repeats rounds of the workload's operations in this process: at
least three, and more while the next one is expected to end within
``--seconds``.  Before each round of an untraced run it times the workload
process's set-up in a fresh interpreter (``setup_s`` is the median).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans (see README.md).  The last line of standard output is
the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_ROUNDS = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("mixture", "followers", "preference", "pipeline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="set up the workload, print 'ready' and exit (times setup_s)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def has_source() -> bool:
    return os.path.isfile(os.path.join(SRC, "rank_extremes", "__init__.py"))


def startup(args):
    """Everything before the first operation: imports and the workload plan."""
    sys.path.insert(0, SRC)
    import rank_extremes

    if os.path.dirname(os.path.abspath(rank_extremes.__file__)) != os.path.join(SRC, "rank_extremes"):
        raise SystemExit(f"error: imported rank_extremes from {rank_extremes.__file__}, "
                         f"not from {SRC}")
    import workloads

    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    return workloads.build(args.workload, args.seed, workdir), workdir


def probe_setup(args) -> float:
    """Time from spawning a fresh interpreter until it is ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise SystemExit(f"error: set-up probe exited {code}")
    return ready


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; for children it is the largest one's peak.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@dataclass
class Round:
    """Timed totals, failures by operation, and digest input of one round."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    failed: dict[str, list[str]] = field(default_factory=dict)
    parts: list[bytes] = field(default_factory=list)


def run_round(ops, tracer=None) -> Round:
    """Run every operation once; time only the calls into the program."""
    rnd = Round()
    for op in ops:
        fails = []
        result = None
        try:
            if op.prepare is not None:
                op.prepare()
            if tracer is not None:
                tracer.active = True
            wall0, cpu0 = time.perf_counter(), _cpu_s()
            try:
                result = op.run()
            finally:
                rnd.wall_s += time.perf_counter() - wall0
                rnd.cpu_s += _cpu_s() - cpu0
                if tracer is not None:
                    tracer.active = False
            fails = op.check(result)
            rnd.parts += [op.name.encode()] + op.digest(result)
        except Exception as exc:  # a failing operation must not end the run
            fails.append(f"{type(exc).__name__}: {exc}")
        if fails:
            rnd.failed[op.name] = fails
    return rnd


def unexpected(ops, rnd: Round) -> list[str]:
    """Failures other than a known fault's own message."""
    known = {op.name: op.known_fault for op in ops if op.known_fault}
    return [f"{name}: {msg}" for name, fails in rnd.failed.items() for msg in fails
            if name not in known or not msg.startswith(known[name])]


def environment() -> str:
    import numpy
    import scipy

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (f"python={sys.version.split()[0]} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} cpus={cpus}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not has_source():
        print(f"error: no program source at {SRC}/rank_extremes", file=sys.stderr)
        return 2
    if args.probe:
        startup(args)
        print("ready", flush=True)
        return 0
    # One unmeasured probe first, so that byte-code caches exist, as they do
    # for a user's second command.
    probe_setup(args)
    ops, workdir = startup(args)
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    rounds: list[tuple[Round, bool]] = []
    round_times = []
    # One set-up probe before each round spreads the probes over the run, so
    # that setup_s sees the same host conditions as the rounds.
    setup_times = []
    begin = time.perf_counter()
    try:
        while len(rounds) < MIN_ROUNDS or (
                time.perf_counter() - begin + statistics.median(round_times) <= args.seconds):
            if tracer is None:
                setup_times.append(probe_setup(args))
            # Traced runs alternate untraced and traced rounds, untraced first.
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                tracer.install()
                tracer.round = len(rounds)
            start = time.perf_counter()
            try:
                rnd = run_round(ops, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            round_times.append(time.perf_counter() - start)
            rounds.append((rnd, traced))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r, t in rounds if not t]
    attempted = len(ops) * len(rounds)
    failed = sum(len(r.failed) for r, _ in rounds)
    problems = [msg for r, _ in rounds for msg in unexpected(ops, r)]
    digests = {workloads.digest(r.parts) for r, _ in rounds}

    print(f"env {environment()}")
    print(f"workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"ops/round={len(ops)} round_s={[round(t, 3) for t in round_times]} "
          f"timed_s={[round(r.wall_s, 3) for r, _ in rounds]}")
    print(f"digest sha256={sorted(digests)[0]} identical_across_rounds={len(digests) == 1}")
    for r, _ in rounds[:1]:
        for name, fails in r.failed.items():
            print(f"failed op {name}: {fails[0][:200]}")
    for msg in problems[:20]:
        print(f"UNEXPECTED {msg[:300]}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(r.wall_s for r in plain), "unit": "s"},
            "cpu_s": {"value": statistics.median(r.cpu_s for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }
    else:
        traced_rounds = [r for r, t in rounds if t]
        overhead = (statistics.median(r.wall_s for r in traced_rounds)
                    - statistics.median(r.wall_s for r in plain))
        metrics = tracer.metrics(len(traced_rounds), overhead)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
        if tracer.absent:
            print(f"absent (function not found): {', '.join(tracer.absent)}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
