"""Repeat a workload and compare two sets of runs against the bounds.

    python3 perfbench/compare.py repeat --workload W --runs N \\
        [--seed0 S] [--seconds X] [--trace 0|1] --out SET.json
    python3 perfbench/compare.py compare PARENT.json CHANGE.json

``repeat`` runs ``run.py`` N times with seeds S, S+1, ... and prints, per
metric, the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread ``(q3 - q1) / median`` next to the metric's bound.  It saves every
run's result line and host line to SET.json; sets of several workloads
may share one file.  ``compare`` reads two such files and reports, per
workload and end-to-end metric, how far the second median moved from the
first in the metric's worse direction, against its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import common


def _spec() -> dict:
    return common.read_json(common.ROOT / "BENCHMARK.json")


def _quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(runs: list, metric_specs: list) -> dict:
    """Per metric: median, quartiles, spread; plus the failed share."""
    out = {}
    for spec in metric_specs:
        values = [r["result"]["metrics"][spec["name"]]["value"] for r in runs]
        q1, med, q3 = _quartiles(values)
        out[spec["name"]] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0,
                             "unit": spec["unit"], "bound": spec.get("bound")}
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    out["_failed_share"] = failed / attempted if attempted else 0.0
    out["_correct"] = all(r["result"]["correct"] for r in runs)
    return out


def _print_summary(workload: str, summary: dict) -> None:
    print(f"{workload}: correct={summary['_correct']} "
          f"failed share={summary['_failed_share']:.6f}")
    print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name, s in summary.items():
        if name.startswith("_"):
            continue
        bound = "" if s["bound"] is None else f"{s['bound']:.2f}"
        print(f"  {name:28s} {s['median']:12.4f} {s['q1']:12.4f} "
              f"{s['q3']:12.4f} {s['spread']:7.3f} {bound:>6s}  {s['unit']}")


def repeat(args) -> int:
    spec = _spec()
    seconds = args.seconds or spec["run_seconds"]
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    runs = []
    for k in range(args.runs):
        seed = args.seed0 + k
        proc = subprocess.run(
            [sys.executable, str(common.HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=str(common.ROOT), capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"run with seed {seed} failed")
        host = next((json.loads(line[len("# host "):]) for line in lines
                     if line.startswith("# host ")), {})
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "host": host, "result": result})
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"steal={host.get('steal_ticks')} " + " ".join(
                  f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
                  if not args.trace), flush=True)
    path = Path(args.out)
    sets = common.read_json(path) if path.exists() else {}
    key = args.workload + (":trace" if args.trace else "")
    sets[key] = runs
    common.write_json_atomic(path, sets)
    _print_summary(key, summarize(runs, metric_specs))
    return 0


def compare(args) -> int:
    spec = _spec()
    first, second = common.read_json(Path(args.first)), common.read_json(Path(args.second))
    worse = 0
    for workload in sorted(set(first) & set(second)):
        if workload.endswith(":trace"):
            continue
        a = summarize(first[workload], spec["end_to_end"])
        b = summarize(second[workload], spec["end_to_end"])
        print(f"{workload}: failed share {a['_failed_share']:.6f} -> "
              f"{b['_failed_share']:.6f}")
        for m in spec["end_to_end"]:
            x, y = a[m["name"]], b[m["name"]]
            change = (y["median"] - x["median"]) / x["median"]
            if m["better"] == "higher":
                change = -change
            verdict = "ok" if change <= m["bound"] else "WORSE"
            worse += verdict != "ok"
            print(f"  {m['name']:14s} {x['median']:12.4f} -> {y['median']:12.4f}"
                  f"  worse by {change:+.3f} (bound {m['bound']:.2f})"
                  f"  spreads {x['spread']:.3f}/{y['spread']:.3f}  {verdict}")
        if a["_failed_share"] != b["_failed_share"]:
            worse += 1
            print("  failed share differs")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("repeat")
    rep.add_argument("--workload", required=True)
    rep.add_argument("--runs", type=int, default=10)
    rep.add_argument("--seed0", type=int, default=1)
    rep.add_argument("--seconds", type=float, default=0)
    rep.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rep.add_argument("--out", required=True)
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args(argv)
    return repeat(args) if args.command == "repeat" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
