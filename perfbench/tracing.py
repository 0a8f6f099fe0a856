"""Run-time tracing of the program's layers, from the benchmark's side.

:func:`install` wraps public entry points of the program with timers.
Each wrapper replaces the attribute the *caller* looks up (a name
imported into another module is patched in that module), records a span
``(name, start, end, parent, request)`` in memory and returns the
original result untouched.  Nothing under ``src/`` is edited.  A layer's
self time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


#: the request id of the benchmark's own checking work inside the timed
#: window; its spans and executions are left out of the layer metrics
CHECK = -2


class Tracer:
    """Spans plus the :class:`ExecutionStats` of every execution."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.executions: List[dict] = []
        self.request = -1
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0,
                               stack[-1] if stack else -1, self.request])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack().pop()
        self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own steps (warm-up)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str,
             on_result: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a timed wrapper."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)

    def record_execution(self, result) -> None:
        """Fold in the program's own :class:`ExecutionStats` of one run."""
        stats = getattr(result, "stats", None)
        if stats is None:
            return
        entry = {name: getattr(stats, name) for name in _STATS_FIELDS}
        entry["t"] = time.perf_counter()
        entry["request"] = self.request
        for prefix in ("probe", "filter"):
            entry[f"{prefix}_seconds"] = sum(
                seconds for label, seconds in stats.operator_seconds.items()
                if label.startswith(prefix))
        with self._lock:
            self.executions.append(entry)

    def snapshot(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "request"],
                "spans": self.spans, "executions": self.executions}

    def dump(self, path) -> None:
        """Write the spans out (called once, when the run ends)."""
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)


_STATS_FIELDS = (
    "leaf_seconds", "scan_seconds", "aggregation_seconds", "total_seconds",
    "rows_scanned", "rows_selected", "morsels", "morsels_skipped",
    "morsels_accepted", "morsels_scanned", "prune_gated",
    "used_array_aggregation")


# -- reduction ---------------------------------------------------------------


def self_times(spans, start: float = float("-inf"),
               end: float = float("inf"),
               exclude: Optional[int] = None) -> Dict[str, tuple]:
    """``{name: (calls, total seconds, self seconds)}`` over the spans
    that start inside ``[start, end]`` (those of request *exclude* left
    out)."""
    child_time: Dict[int, float] = defaultdict(float)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for index, (name, t0, t1, _, request) in enumerate(spans):
        if start <= t0 <= end and request != exclude:
            entry = out[name]
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += (t1 - t0) - child_time[index]
    return {name: tuple(v) for name, v in out.items()}


def _ratio(before: dict, after: dict, tier: str) -> float:
    hits = after[f"{tier}.hits"] - before[f"{tier}.hits"]
    misses = after[f"{tier}.misses"] - before[f"{tier}.misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(trace: dict, start: float, end: float, ops: int,
                  before: dict, after: dict) -> Dict[str, float]:
    """Per-layer metrics of the timed window ``[start, end]``.

    Times and counts are per timed operation (*ops*); ratios are over
    the window; set-up figures are the mean over the run's set-ups.
    *before*/*after* are the program's cache counters (``tier.hits``,
    ``tier.misses``) around the window.  Metrics a workload has no
    use for read 0."""
    ops = max(1, ops)
    spans = trace["spans"]
    everything = self_times(spans)
    window = self_times(spans, start, end, exclude=CHECK)

    def self_ms(name):
        return window.get(name, (0, 0.0, 0.0))[2] * 1e3 / ops

    def calls(name):
        return window.get(name, (0, 0.0, 0.0))[0] / ops

    def mean_seconds(name):
        count, seconds, _ = everything.get(name, (0, 0.0, 0.0))
        return seconds / count if count else 0.0

    execs = [e for e in trace["executions"]
             if start <= e["t"] <= end and e["request"] != CHECK]
    runs = max(1, len(execs))

    def total(field):
        return sum(e[field] for e in execs)

    blocks = (total("morsels_skipped") + total("morsels_accepted")
              + total("morsels_scanned"))
    scanned = total("rows_scanned")
    leaf, scan = total("leaf_seconds"), total("scan_seconds")
    agg = total("aggregation_seconds")
    return {
        "io.load_s": mean_seconds("io.load"),
        "engine.warmup_s": mean_seconds("engine.warmup"),
        "sqlparser.parse_ms": self_ms("sqlparser.parse"),
        "sqlparser.parse_calls": calls("sqlparser.parse"),
        "plan.bind_ms": self_ms("plan.bind"),
        "plan.optimize_ms": self_ms("plan.optimize"),
        "executor.compile_ms": self_ms("executor.compile"),
        "executor.leaf_ms": leaf * 1e3 / ops,
        "cache.plan_hit_ratio": _ratio(before, after, "plan"),
        "cache.leaf_hit_ratio": _ratio(before, after, "leaf"),
        "cache.axis_hit_ratio": _ratio(before, after, "axis"),
        "cache.result_hit_ratio": _ratio(before, after, "result"),
        "statistics.code_set_builds": calls("statistics.code_set"),
        "statistics.code_set_ms": self_ms("statistics.code_set"),
        "statistics.zone_builds": calls("statistics.zone"),
        "statistics.zone_ms": self_ms("statistics.zone"),
        "sharding.prune_ms": self_ms("sharding.prune"),
        "sharding.skip_ratio": total("morsels_skipped") / blocks if blocks else 0.0,
        "sharding.accept_ratio": total("morsels_accepted") / blocks if blocks else 0.0,
        "sharding.gated_ratio": sum(1 for e in execs if e["prune_gated"]) / runs,
        "sharding.morsels_per_read": total("morsels") / runs,
        "operators.scan_ms": scan * 1e3 / ops,
        "operators.probe_ms": total("probe_seconds") * 1e3 / ops,
        "operators.filter_ms": total("filter_seconds") * 1e3 / ops,
        "operators.rows_scanned": scanned / ops,
        "operators.selectivity": total("rows_selected") / scanned if scanned else 0.0,
        "aggregate.agg_ms": agg * 1e3 / ops,
        "aggregate.array_ratio": (sum(1 for e in execs if e["used_array_aggregation"])
                                  / runs),
        "executor.assemble_ms": (total("total_seconds") - leaf - scan - agg) * 1e3 / ops,
        "updates.insert_ms": self_ms("updates.insert"),
        "updates.delete_ms": self_ms("updates.delete"),
        "updates.update_ms": self_ms("updates.update"),
    }


def install(tracer: Tracer) -> Tracer:
    """Wrap the program's layer entry points (import-time names included)."""
    import repro
    import repro.cli
    import repro.core.statistics as statistics
    import repro.engine.executor as executor
    from repro.core import Database
    from repro.engine.sharding import BoundQuery
    from repro.updates import TransactionManager, WriteBatch

    tracer.wrap(repro, "load_database", "io.load")
    tracer.wrap(repro.cli, "load_database", "io.load")
    tracer.wrap(executor, "parse_cached", "sqlparser.parse")
    tracer.wrap(executor, "bind", "plan.bind")
    tracer.wrap(executor, "optimize", "plan.optimize")
    tracer.wrap(executor.AStoreEngine, "_compile", "executor.compile")
    tracer.wrap(executor.AStoreEngine, "run_compiled", "executor.run",
                on_result=tracer.record_execution)
    tracer.wrap(BoundQuery, "prune_base", "sharding.prune")
    tracer.wrap(statistics, "build_column_code_set_map", "statistics.code_set")
    tracer.wrap(statistics, "build_column_zone_map", "statistics.zone")
    tracer.wrap(WriteBatch, "insert", "updates.insert")
    tracer.wrap(WriteBatch, "delete", "updates.delete")
    tracer.wrap(TransactionManager, "update", "updates.update")
    tracer.wrap(Database, "compact", "compaction.compact")
    return tracer
