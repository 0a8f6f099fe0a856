"""The in-process workloads, ``adhoc`` and ``realtime``, in their own process.

    python3 perfbench/inproc.py '<json job>'

``run.py`` starts this with the program on ``PYTHONPATH`` so that the
process's peak memory is the program's, not the oracle's.  The program
runs as the CLI and ``astore serve`` default it: the ``serial`` backend
with ``workers=1``.  One closed-loop caller drives it.  The job's result
goes, as JSON, to the file the job names.
"""

from __future__ import annotations

import contextlib
import gc
import json
import sys
import time

import numpy as np

import common
import ssb
from oracle import load_tables
from tracing import CHECK, Tracer, install, layer_metrics

common.use_program_path()

import repro  # noqa: E402
from repro import AStoreEngine, EngineOptions  # noqa: E402
from repro.updates import TransactionManager, WriteBatch  # noqa: E402

OPTIONS = EngineOptions(parallel_backend="serial", workers=1)
#: realtime re-reads the pinned snapshot after every fourth write batch;
#: each re-read costs a full snapshot read outside the timed operations
STABILITY_EVERY = 4


def _engine(archive):
    db = repro.load_database(archive)
    return db, AStoreEngine(db, OPTIONS)


def _setups(build):
    """Set up SETUP_REPS times; keep the last, report every duration."""
    times, state = [], None
    for _ in range(common.SETUP_REPS):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - t0)
    return times, state


# -- adhoc --------------------------------------------------------------------


def run_adhoc(job: dict, tracer) -> dict:
    stream = common.read_json(common.stream_path("adhoc", job["seed"]))

    def build():
        db, engine = _engine(common.SF1_ARCHIVE)
        with _span(tracer, "engine.warmup"):
            for inst in stream["warmup"]:
                engine.query(inst["sql"]).rows()
        return db, engine

    setup, (db, engine) = _setups(build)
    sample_n = len(stream["expected"])
    queries = stream["stream"]
    latencies, answers, failed, errors = [], [], 0, []
    per_round = len(ssb.TEMPLATE_IDS)
    before = engine.cache.counters()
    t_start = time.perf_counter()
    deadline = t_start + job["seconds"]
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        start = i % len(queries)
        for inst in queries[start:start + per_round]:
            _set_request(tracer, i)
            t0 = time.perf_counter()
            try:
                rows = common.rows_of(engine.query(inst["sql"]))
            except Exception as exc:  # noqa: BLE001 - counted as failed
                failed += 1
                errors.append(f"{inst['template']}: {exc!r}")
                rows = None
            latencies.append(time.perf_counter() - t0)
            if i < sample_n:
                answers.append(rows)
            i += 1
    t_end = time.perf_counter()
    out = _result(setup, latencies, len(latencies), failed, t_end - t_start)
    out.update(answers=answers, errors=errors[:5])
    if tracer is not None:
        out["layers"] = _layers(tracer, t_start, t_end, len(latencies),
                                before, engine.cache.counters(), out)
    return out


# -- realtime -------------------------------------------------------------------


def run_realtime(job: dict, tracer) -> dict:
    from realtime import OpStream

    raw = load_tables(common.RT_RAW)
    rng = np.random.default_rng([job["seed"], 4])
    warm = [ssb.instance(t, rng) for t in ssb.TEMPLATE_IDS]

    def build():
        db, engine = _engine(common.RT_ARCHIVE)
        txn = TransactionManager(db)
        with _span(tracer, "engine.warmup"):
            snap = txn.snapshot()
            for query in warm:
                engine.query(query.sql, snapshot=snap).rows()
            txn.release(snap)
        return db, engine, txn

    setup, (db, engine, txn) = _setups(build)
    lo = db.table("lineorder")
    # dimension key -> array index, read from the program's own tables
    dim_pos = {fk: _positions(db.table(dim)[pk].values())
               for fk, (dim, pk) in ssb.FOREIGN_KEYS.items()}
    order_pos = _positions(lo["lo_orderkey"].values())
    ops = OpStream(job["seed"], raw)
    del raw
    gc.collect()

    reads, writes, snaps, answers, problems, errors = [], [], [], [], [], []
    free_slots, compactions = [], []
    failed = 0
    check_seconds = 0.0
    prev = None                       # (snapshot, sql, rows) pinned
    before = engine.cache.counters()
    t_start = time.perf_counter()
    deadline = t_start + job["seconds"]
    while ops.index == 0 or time.perf_counter() < deadline:
        for _ in range(len(ssb.TEMPLATE_IDS)):
            op = ops.next()
            _set_request(tracer, op.index)
            program_rows = dict(op.insert)
            for fk, pos in dim_pos.items():
                program_rows[fk] = pos[op.insert[fk]]
            try:
                t0 = time.perf_counter()
                with WriteBatch(txn) as batch:
                    placed = batch.insert("lineorder", program_rows)
                    batch.delete("lineorder", order_pos[op.delete_keys])
                t1 = time.perf_counter()
                order_pos = _grow(order_pos, op.insert["lo_orderkey"], placed)
                _set_request(tracer, CHECK)
                if prev is not None:
                    # the versioned part of the batch is invisible to a
                    # snapshot pinned before it
                    if op.index % STABILITY_EVERY == 0:
                        again = common.rows_of(
                            engine.query(prev[1], snapshot=prev[0]))
                        if again != prev[2]:
                            problems.append(
                                f"op {op.index}: snapshot {prev[0]} answered "
                                "differently after a batch")
                    txn.release(prev[0])
                _set_request(tracer, op.index)
                t2 = time.perf_counter()
                txn.update("lineorder", order_pos[op.correct_keys],
                           {"lo_revenue": op.correct_revenue})
                t3 = time.perf_counter()
                free_slots.append(lo.num_rows - lo.num_live)
                snap = txn.snapshot()
                sql = ssb.render(op.template, op.params).sql
                rows = common.rows_of(engine.query(sql, snapshot=snap))
                t4 = time.perf_counter()
                check_seconds += t2 - t1
                writes.append((t1 - t0) + (t3 - t2))
                reads.append(t4 - t3)
                snaps.append(snap)
                answers.append(rows)
                prev = (snap, sql, rows)
                if op.compact:
                    c0 = time.perf_counter()
                    info = db.compact("lineorder", store=engine.cache)
                    c1 = time.perf_counter()
                    _set_request(tracer, CHECK)
                    again = common.rows_of(engine.query(sql, snapshot=snap))
                    if again != rows:
                        problems.append(f"op {op.index}: answer changed "
                                        "across a compaction")
                    order_pos = _positions(lo["lo_orderkey"].values())
                    compactions.append((c1 - c0, info["dropped"]))
                    check_seconds += time.perf_counter() - c1
            except Exception as exc:  # noqa: BLE001 - counted as failed
                failed += 1
                errors.append(f"op {op.index}: {exc!r}")
                break
        if failed:
            break
    t_end = time.perf_counter()
    if prev is not None:
        txn.release(prev[0])
    ops_done = len(reads)
    out = _result(setup, reads, ops_done + failed, failed,
                  (t_end - t_start) - check_seconds)
    out.update(answers=answers, snapshots=snaps, problems=problems[:5],
               errors=errors,
               write_ms=[w * 1e3 for w in writes])
    if tracer is not None:
        layers = _layers(tracer, t_start, t_end, max(1, ops_done), before,
                         engine.cache.counters(), out)
        layers["updates.free_slots"] = float(np.mean(free_slots or [0]))
        layers["compaction.compact_ms"] = _mean([c[0] * 1e3 for c in compactions])
        layers["compaction.rows_dropped"] = _mean([c[1] for c in compactions])
        layers["updates.write_p50_ms"] = common.percentile(out["write_ms"], 50)
        layers["updates.write_p95_ms"] = common.percentile(out["write_ms"], 95)
        out["layers"] = layers
    return out


def _positions(keys: np.ndarray) -> np.ndarray:
    """key -> array index, for integer keys (absent keys map to -1)."""
    lookup = np.full(int(keys.max()) + 1, -1, dtype=np.int64)
    lookup[keys] = np.arange(len(keys), dtype=np.int64)
    return lookup


def _grow(lookup: np.ndarray, keys: np.ndarray, positions) -> np.ndarray:
    top = int(keys.max()) + 1
    if top > len(lookup):
        grown = np.full(max(top, 2 * len(lookup)), -1, dtype=np.int64)
        grown[:len(lookup)] = lookup
        lookup = grown
    lookup[keys] = positions
    return lookup


# -- shared -----------------------------------------------------------------------


def _set_request(tracer, request: int) -> None:
    if tracer is not None:
        tracer.request = request


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _layers(tracer, start, end, ops, before, after, out) -> dict:
    layers = layer_metrics(tracer.snapshot(), start, end, ops, before, after)
    layers["trace.ops_per_s"] = ops / out["busy_s"]
    return layers


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _result(setup, latencies, attempted, failed, busy_seconds) -> dict:
    lat_ms = [x * 1e3 for x in latencies]
    return {
        "setup_s": setup,
        "attempted": attempted,
        "failed": failed,
        "read_ms": lat_ms,
        "busy_s": busy_seconds,
        "peak_rss_mb": common.peak_rss_mb(),
    }


WORKLOADS = {"adhoc": run_adhoc, "realtime": run_realtime}


def main(argv) -> int:
    job = json.loads(argv[1])
    tracer = install(Tracer()) if job["trace"] else None
    out = WORKLOADS[job["workload"]](job, tracer)
    if tracer is not None:
        tracer.dump(job["spans"])
    common.write_json_atomic(common.Path(job["out"]), out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
