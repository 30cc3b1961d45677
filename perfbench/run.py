"""Run one powerbet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run it from the root of a powerbet checkout.  Workloads: analytic-small,
partial-wide, verify, cli (see perfbench/README.md).  With ``--trace 0``
the run reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off; with ``--trace 1`` a separate traced run reports the
per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload process is fresh and started one at a time.  ``setup_s`` is
the median over ``SETUP_REPEATS`` set-up-only processes plus the measured
one, so that one slow start does not move it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 2
PROBE_REPEATS = 5
WORKER_TIMEOUT_S = 170
FAIL_COUNTERS = (
    "strategy.optimal_partial.raised",
    "utility.decompose.residual_fail",
    "oracle.grid.check_fail",
    "oracle.kkt.check_fail",
    "oracle.mc.check_fail",
    "cli.exit_nonzero",
    "cli.output_mismatch",
)


def _worker(args, mode: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def _probe_ms(code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``, in ms."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    times = []
    for _ in range(PROBE_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3


def _commit() -> str:
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _print_environment(versions: dict) -> None:
    print("== environment ==")
    print(f"commit  {_commit()}")
    print(f"python  {versions['python']}   numpy {versions['numpy']}   scipy {versions['scipy']}")
    print(f"nproc   {len(os.sched_getaffinity(0))}   cpu {_cpu_model()}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, one set-up (smoke test)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "powerbet", "__init__.py")) or not os.path.isfile("BENCHMARK.json"):
        print("error: run from the root of a powerbet checkout (src/powerbet and BENCHMARK.json)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if args.workload not in {w["name"] for w in manifest["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    if args.trace:
        res = _worker(args, "trace")
        values = dict(res["layers"])
        values["cli.startup_ms"] = _probe_ms("pass")
        values["cli.import_ms"] = _probe_ms("import powerbet") - values["cli.startup_ms"]
        values["fail_frac"] = res["failed"] / res["attempted"]
        values["task_p50_ms"] = res["untraced"]["p50_ms"]
        values["task_tail_ms"] = res["untraced"]["tail_ms"]
        values["tasks_per_s"] = res["untraced"]["tasks_per_s"]
        values["ref.speed"] = res["untraced"]["speed"]
        for counter in FAIL_COUNTERS:
            values[counter] = res["fail_counts"].get(counter, 0)
        specs = manifest["per_layer"]
    else:
        setups = [_worker(args, "setup")["setup_s"] for _ in range(0 if args.tiny else SETUP_REPEATS)]
        res = _worker(args, "measure")
        values = {
            "norm_tasks_per_s": res["norm_tasks_per_s"],
            "setup_s": statistics.median(setups + [res["setup_s"]]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        specs = manifest["end_to_end"]

    _print_environment(res["versions"])
    print(f"== {args.workload}  seed {args.seed}  {args.seconds:g} s  trace {'on' if args.trace else 'off'} ==")
    latency = res["untraced"] if args.trace else res
    metrics = {}
    for spec in specs:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        note = ""
        if spec["name"] == "task_tail_ms":
            note = f"   (p{latency['tail_pct']:.2f} of n={latency['n']}, {latency['rounds']} rounds)"
        print(f"{spec['name']:<40} {value:>16.6g} {spec['unit']}{note}")
    if not args.trace:
        print(f"{'tasks_per_s':<40} {res['tasks_per_s']:>16.6g} 1/s   (raw, at speed {res['speed']:.4f})")
        print(f"{'task_p50_ms':<40} {res['p50_ms']:>16.6g} ms")
        print(f"{'task_tail_ms':<40} {res['tail_ms']:>16.6g} ms"
              f"   (p{latency['tail_pct']:.2f} of n={latency['n']}, {latency['rounds']} rounds)")
        print(f"{'fail_frac':<40} {res['failed'] / res['attempted']:>16.6g} frac"
              f"   ({res['failed']} of {res['attempted']} tasks)")
    for counter, n in sorted(res["fail_counts"].items()):
        print(f"  failed check {counter}: {n}")
    for line in res["unexplained"][:5]:
        print(f"  unexplained: {line}", file=sys.stderr)
    result = {
        "correct": not res["unexplained"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
