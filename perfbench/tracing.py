"""In-memory spans around the benchmark's calls into each powerbet layer.

A traced run wraps every public powerbet callable the benchmark uses, so
each call records one span: ``(name, start, end, parent, task)``.  The
parent of a call span is the span of the task that made it; task spans
have no parent.  Spans stay in memory and are written out when the run
ends.  The spans sit at the benchmark's call sites, not inside the
library, so a span's time includes whatever the called function does in
other modules (``decompose_full`` calls into ``divergence``, for one).

An untraced run binds the library module itself, so tracing off costs
nothing per call.
"""

from __future__ import annotations

import enum
import inspect
import json
import statistics
import time
from collections import Counter
from types import SimpleNamespace

LAYERS = ("market", "strategy", "utility", "divergence", "oracle", "cli")

# Extra work counters recorded at the call boundary, from the call's arguments.
_GRID = ("oracle.grid_search_full", "oracle.grid_search_partial")
_MC = ("oracle.simulate_growth", "oracle.estimate_ubeta")
_DECOMPOSE = ("utility.decompose_full", "utility.decompose_kelly", "utility.decompose_side_info")


def _work_counts(name: str, args: tuple) -> dict:
    if name == "strategy.optimal_partial":
        return {"strategy.optimal_partial.horses": args[0].m}
    if name in _GRID:
        grid = args[2]
        return {
            "oracle.grid.points": grid.n_points,
            "oracle.grid.bytes_computed": grid.n_points * grid.dimension * 8,
        }
    if name in _MC:
        return {"oracle.mc.samples": args[2] if name == "oracle.simulate_growth" else args[3]}
    return {}


class Tracer:
    """Collects spans and counters for one traced phase."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._task = -1

    def begin_task(self, task_id: int) -> None:
        self._task = task_id
        self._stack.append(len(self.spans))
        self.spans.append(("task", time.perf_counter(), 0.0, None, task_id))

    def end_task(self) -> None:
        idx = self._stack.pop()
        name, start, _, parent, task = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, task)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self._task))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self._task)
                self.counts[name] += 1
                self.counts.update(_work_counts(name, args))

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def bind_library(powerbet, tracer: Tracer | None):
    """The powerbet module itself, or a namespace of traced public callables."""
    if tracer is None:
        return powerbet
    wrapped = {}
    for name in dir(powerbet):
        obj = getattr(powerbet, name)
        plain_type = inspect.isclass(obj) and issubclass(obj, (Exception, enum.Enum))
        if callable(obj) and not plain_type and not name.startswith("_"):
            layer = obj.__module__.rsplit(".", 1)[-1]
            wrapped[name] = tracer.wrap(f"{layer}.{name}", obj)
        else:
            wrapped[name] = obj
    return SimpleNamespace(**wrapped)


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer calls, busy time, self time, call median and share of task time."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    task_total = sum(end - start for name, start, end, _, _ in spans if name == "task")

    by_layer: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    by_name: dict[str, list[float]] = {}
    harness_self = 0.0
    for i, (name, start, end, _, _) in enumerate(spans):
        if name == "task":
            harness_self += end - start - child_time[i]
            continue
        by_layer[name.split(".", 1)[0]].append(end - start)
        by_name.setdefault(name, []).append(end - start)

    out: dict[str, float] = {}
    for layer, durations in by_layer.items():
        busy = sum(durations)
        out[f"{layer}.calls"] = len(durations)
        out[f"{layer}.busy_s"] = busy
        out[f"{layer}.call_p50_us"] = _p50(durations) * 1e6
        out[f"{layer}.share"] = busy / task_total if task_total else 0.0
    out["harness.self_s"] = harness_self
    out["harness.share"] = harness_self / task_total if task_total else 0.0

    def group(names) -> list[float]:
        return [d for n in names for d in by_name.get(n, [])]

    counts = tracer.counts
    partial = by_name.get("strategy.optimal_partial", [])
    out["strategy.optimal_partial.calls"] = len(partial)
    out["strategy.optimal_partial.busy_s"] = sum(partial)
    out["strategy.optimal_partial.call_p50_ms"] = _p50(partial) * 1e3
    out["strategy.optimal_partial.horses"] = counts["strategy.optimal_partial.horses"]
    out["utility.decompose.calls"] = len(group(_DECOMPOSE))

    grid = group(_GRID)
    out["oracle.grid.calls"] = len(grid)
    out["oracle.grid.points"] = counts["oracle.grid.points"]
    out["oracle.grid.busy_s"] = sum(grid)
    out["oracle.grid.points_per_s"] = counts["oracle.grid.points"] / sum(grid) if grid else 0.0
    out["oracle.grid.bytes_computed"] = counts["oracle.grid.bytes_computed"]
    kkt = by_name.get("oracle.kkt_residual", [])
    out["oracle.kkt.calls"] = len(kkt)
    out["oracle.kkt.busy_s"] = sum(kkt)
    mc = group(_MC)
    out["oracle.mc.calls"] = len(mc)
    out["oracle.mc.samples"] = counts["oracle.mc.samples"]
    out["oracle.mc.busy_s"] = sum(mc)
    out["oracle.mc.samples_per_s"] = counts["oracle.mc.samples"] / sum(mc) if mc else 0.0

    for command in ("analyze", "optimize", "optimize_check", "simulate", "divergence"):
        out[f"cli.{command}.p50_ms"] = _p50(by_name.get(f"cli.{command}", [])) * 1e3
    return out
