"""Locations, sizes and small helpers shared by the benchmark's scripts."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / ".data"

#: the table data is fixed across runs; ``--seed`` picks the operation
#: streams (query parameters, panel order, write batches)
DATA_SEED = 7
ADHOC_SF = 1.0          # SSB SF1: 6,000,000 lineorder rows
REALTIME_SF = 0.1       # SSB SF0.1: 600,000 lineorder rows, all tables MVCC

SF1_ARCHIVE = DATA / "ssb_sf1.npz"
SF1_RAW = DATA / "ssb_sf1_raw"
RT_ARCHIVE = DATA / "ssb_sf0.1_mvcc.npz"
RT_RAW = DATA / "ssb_sf0.1_raw"
STREAMS = DATA / "streams"
PANELS = STREAMS / "dashboard-panels.json"
RUNS = DATA / "runs"

#: setups per run; the median is reported as ``setup_s``
SETUP_REPS = 3
#: adhoc: the first SAMPLE_ROUNDS rounds (13 instances each, one per
#: template) of the timed stream are checked against the oracle
SAMPLE_ROUNDS = 2
#: dashboard: two panels per template, all resident in the result tier
#: (26 entries; the tier holds 512)
PANELS_PER_TEMPLATE = 2


def program_env() -> dict:
    """Environment for a child process that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    return env


def use_program_path() -> None:
    """Make ``import repro`` resolve to this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def stream_path(workload: str, seed: int) -> Path:
    return STREAMS / f"{workload}-{seed}.json"


def read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def write_json_atomic(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def percentile(values, q: float) -> float:
    """The q-th percentile (linear interpolation) of *values*."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb(pid="self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def steal_ticks() -> int:
    """Hypervisor steal ticks summed over all CPUs (``/proc/stat``)."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def rows_of(result) -> list:
    """A query result's rows as JSON-ready lists."""
    return [list(row) for row in result.rows()]
