"""One workload in a fresh single process: set up, then run a closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode setup|measure|trace [--tiny]

``setup`` only sets up and reports how long that took; ``measure`` then
runs every input untraced, back to back, in a number of rounds fixed by
``S`` and the workload's nominal round time; ``trace`` does the same and
then runs one more round with every library call traced.  The result is
one JSON line on stdout.  No threads or pools are started; the cli
workload runs its subprocesses strictly one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")

# The reference kernel runs between tasks, about every REF_EVERY_S of task
# time, and REF_NOMINAL_S is its median time on the machine described in
# perfbench/README.md at its usual speed.  See reference_s.
REF_EVERY_S = 0.1
REF_NOMINAL_S = 1.7e-3


def latency_summary(latencies: list[float]) -> dict:
    """Median and the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n > 10:
        tail, pct = ordered[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = ordered[-1], 100.0
    return {"p50_ms": statistics.median(ordered) * 1e3, "tail_ms": tail * 1e3, "tail_pct": pct, "n": n}


def reference_s() -> float:
    """Time one pass of a fixed kernel that powerbet does not run.

    Like the library, the kernel interleaves interpreted Python with small
    NumPy calls (logs and exponentials over 2048 numbers).  The virtual
    machine this benchmark was tuned on changes speed by up to 1.5x within
    minutes, and the kernel slows with it: divided by the kernel's speed,
    the throughput of 7.5-s and 15-s windows of one workload spread 1.5 to
    3 times less than it did raw (see perfbench/README.md)."""
    import numpy as np  # already loaded by set-up

    x = np.linspace(0.01, 1.0, 2048)
    t = time.perf_counter()
    total = 0
    for i in range(12000):
        total += i * i
    for _ in range(30):
        y = np.exp(np.log(x) * 1.5 - 0.25)
        x = np.maximum(y, 0.01) / y.sum() * x.size
    return time.perf_counter() - t


def run_rounds(wl, lib, items, ctx, rounds: int, tracer=None) -> dict:
    """Closed loop: one caller, the next task starts when the last one ends.

    Runs every input once per round, for ``rounds`` rounds, so a seed always
    gives the same tasks.  ``tasks_per_s`` counts task time only, not the
    reference kernel run between tasks; ``speed`` is the reference kernel's
    nominal time over its median time in this run, and ``norm_tasks_per_s``
    is ``tasks_per_s / speed``, the throughput at the nominal speed.

    For the latency percentiles a task's latency is its input's median over
    the rounds: a pause of the virtual machine stretches a random
    sub-millisecond task 5-15 fold, and taken over raw tasks the tail would
    be such a pause, not the slowest inputs."""
    latencies: list[list[float]] = [[] for _ in items]
    counts: dict[str, int] = {}
    failed = 0
    unexplained: list[str] = []
    ref_times = [reference_s()]
    since_ref = 0.0
    for i in range(rounds * len(items)):
        item = items[i % len(items)]
        t = time.perf_counter()
        if tracer is not None:
            tracer.begin_task(i)
        try:
            fails = wl.task(lib, item, ctx)
        except Exception as exc:  # a raising task is a failed task; keep measuring
            fails = [("task.raised", False)]
            unexplained.append(f"task {i} ({item.kind}, beta={item.beta!r}) raised {exc!r}")
        if tracer is not None:
            tracer.end_task()
        latency = time.perf_counter() - t
        latencies[i % len(items)].append(latency)
        failed += bool(fails)
        for counter, explained in fails:
            counts[counter] = counts.get(counter, 0) + 1
            if not explained:
                unexplained.append(f"task {i} ({item.kind}, beta={item.beta!r}) failed {counter}")
        since_ref += latency
        if since_ref >= REF_EVERY_S:
            ref_times.append(reference_s())
            since_ref = 0.0
    tasks_per_s = rounds * len(items) / sum(map(sum, latencies))
    speed = REF_NOMINAL_S / statistics.median(ref_times)
    return {
        "attempted": rounds * len(items),
        "failed": failed,
        "fail_counts": counts,
        "unexplained": unexplained,
        "rounds": rounds,
        "tasks_per_s": tasks_per_s,
        "speed": speed,
        "norm_tasks_per_s": tasks_per_s / speed,
        **latency_summary([statistics.median(x) for x in latencies] * rounds),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np  # noqa: E402  (import time is part of set-up)

    import workloads  # noqa: E402  (imports powerbet)

    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        ctx = workloads.CliContext(ROOT, scratch, {})
        items = wl.make(np.random.default_rng(args.seed), args.tiny, ctx)
        lib = wl.bind(ctx, None)
        wl.task(lib, items[0], ctx)  # untimed warm-ups
        reference_s()
        result: dict = {"setup_s": time.perf_counter() - t0}
        # The number of rounds is fixed by --seconds and the workload's
        # nominal round time, never by the clock, so every run of a seed
        # attempts the same tasks whatever the speed of the machine.
        rounds = max(2, round(args.seconds / wl.round_s))
        if args.mode == "measure":
            result.update(run_rounds(wl, lib, items, ctx, rounds))
        elif args.mode == "trace":
            from tracing import Tracer, layer_metrics

            untraced = run_rounds(wl, lib, items, ctx, rounds)
            tracer = Tracer()
            traced = run_rounds(wl, wl.bind(ctx, tracer), items, ctx, 1, tracer=tracer)
            result.update(traced)
            result["unexplained"] = untraced["unexplained"] + traced["unexplained"]
            keys = ("p50_ms", "tail_ms", "tail_pct", "n", "rounds", "tasks_per_s", "speed")
            result["untraced"] = {key: untraced[key] for key in keys}
            result["layers"] = layer_metrics(tracer)
            result["layers"]["trace.overhead_frac"] = 1.0 - traced["norm_tasks_per_s"] / untraced["norm_tasks_per_s"]
            tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    import scipy  # noqa: E402  (already loaded by powerbet)

    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    result["versions"] = {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
