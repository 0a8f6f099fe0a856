"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload adhoc|dashboard|realtime \\
        --seed N --seconds S --trace 0|1

Prepares missing inputs first (outside every timed region), runs the
workload against the program built from this checkout's ``src``, checks
the program's answers against the oracle, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``).  The line before it describes the
host: ``nproc``, the numpy version and the hypervisor steal ticks
``/proc/stat`` counted over the run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import numpy as np

import common
import ssb
from oracle import answer, check, load_tables

WORKLOADS = ("adhoc", "dashboard", "realtime")
PREPARE_TIMEOUT = 850
RUN_TIMEOUT = 170


def _verify_adhoc(seed: int, out: dict) -> list:
    stream = common.read_json(common.stream_path("adhoc", seed))
    problems = []
    for inst, want, got in zip(stream["stream"], stream["expected"],
                               out["answers"]):
        if got is None:      # a failed operation, counted in ``failed``
            continue
        reason = check(ssb.render(inst["template"], inst["params"]), got,
                       [tuple(row) for row in want])
        if reason:
            problems.append(reason)
    if len(out["answers"]) < len(stream["expected"]):
        problems.append("the run ended before the oracle sample was read")
    return problems


def _verify_realtime(seed: int, out: dict) -> list:
    from realtime import Model, OpStream

    raw = load_tables(common.RT_RAW)
    stream = OpStream(seed, raw)
    ops = [stream.next() for _ in out["answers"]]
    model = Model(raw, ops)
    problems = list(out["problems"])
    for op, snap, got in zip(ops, out["snapshots"], out["answers"]):
        model.correct(op)
        if snap != op.read_version:
            problems.append(f"op {op.index}: snapshot {snap}, "
                            f"expected version {op.read_version}")
            continue
        query = ssb.render(op.template, op.params)
        expected = answer(model.tables, query, model.visible(snap))
        reason = check(query, got, expected)
        if reason:
            problems.append(f"op {op.index}: {reason}")
    return problems


def _end_to_end(out: dict) -> dict:
    reads = out["read_ms"]
    completed = out["attempted"] - out["failed"]
    return {
        "setup_s": (statistics.median(out["setup_s"]), "s"),
        "read_p50_ms": (common.percentile(reads, 50), "ms"),
        "read_p95_ms": (common.percentile(reads, 95), "ms"),
        "ops_per_s": (completed / out["busy_s"], "1/s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {common.SRC / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    spec = common.read_json(common.ROOT / "BENCHMARK.json")

    subprocess.run([sys.executable, str(common.HERE / "prepare.py"),
                    "--seed", str(args.seed)],
                   check=True, timeout=PREPARE_TIMEOUT, cwd=str(common.ROOT))

    nproc = len(os.sched_getaffinity(0))
    common.RUNS.mkdir(parents=True, exist_ok=True)
    job = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "out": str(common.RUNS / f"result-{os.getpid()}.json"),
           "spans": str(common.RUNS / f"trace-{args.workload}-{args.seed}.json")}
    steal = common.steal_ticks()
    if args.workload == "dashboard":
        import dashboard
        out = dashboard.run(job)
    else:
        subprocess.run([sys.executable, str(common.HERE / "inproc.py"),
                        json.dumps(job)], check=True, timeout=RUN_TIMEOUT,
                       env=common.program_env(), cwd=str(common.ROOT))
        out = common.read_json(common.Path(job["out"]))
        os.unlink(job["out"])
    steal = common.steal_ticks() - steal

    if args.workload == "adhoc":
        problems = _verify_adhoc(args.seed, out)
    elif args.workload == "realtime":
        problems = _verify_realtime(args.seed, out)
    else:
        problems = out["problems"]
    for reason in problems[:10] + out["errors"]:
        print(f"perfbench: {args.workload}: {reason}", file=sys.stderr)

    if args.trace:
        layers = out["layers"]
        metrics = {m["name"]: {"value": float(layers.get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        values = _end_to_end(out)
        metrics = {m["name"]: {"value": float(values[m["name"]][0]),
                               "unit": values[m["name"]][1]}
                   for m in spec["end_to_end"]}
    print("# host " + json.dumps({"nproc": nproc,
                                  "numpy": np.__version__,
                                  "steal_ticks": steal}))
    print(json.dumps({"correct": not problems, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
