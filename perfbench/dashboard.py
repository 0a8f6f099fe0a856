"""The ``dashboard`` workload: one TCP client against ``astore serve``.

The server is the program's CLI (``python -m repro serve`` with its
defaults: serial backend, one worker, result tier on) over the SF1
archive.  Each panel is computed once during warm-up and checked against
the oracle; every timed request then asks for a panel in the seeded order
and must come back ``cached`` with the verified rows.
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import sys
import time

import common
import ssb
from oracle import check
from tracing import layer_metrics

START_TIMEOUT = 60.0


class Server:
    """One ``astore serve`` process and a client connection to it."""

    def __init__(self, spans_path=None):
        archive = str(common.SF1_ARCHIVE)
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve", archive, "--port", "0"]
        else:
            cmd = [sys.executable, str(common.HERE / "serve_traced.py"),
                   str(spans_path), "serve", archive, "--port", "0"]
        common.RUNS.mkdir(parents=True, exist_ok=True)
        self.log = open(common.RUNS / "serve.log", "ab")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=common.program_env(),
                                     stdout=subprocess.PIPE, stderr=self.log,
                                     cwd=str(common.ROOT))
        self.sock = None
        try:
            host, port = self._address()
            self.sock = socket.create_connection((host, port), timeout=60)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.reader = self.sock.makefile("rb")
            while self.request(b"PING") != b"PONG\n":
                time.sleep(0.01)
            self.ready_s = time.perf_counter() - self.t0
        except BaseException:
            self.close()
            raise

    def _address(self):
        deadline = self.t0 + START_TIMEOUT
        fd = self.proc.stdout.fileno()
        buffered = b""
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if ready:
                chunk = self.proc.stdout.read1(4096)
                if not chunk:
                    break
                buffered += chunk
                for line in buffered.decode(errors="replace").splitlines():
                    if "listening on " in line:
                        address = line.split("listening on ", 1)[1].split()[0]
                        host, port = address.rsplit(":", 1)
                        return host, int(port)
            if self.proc.poll() is not None:
                break
        raise RuntimeError(f"astore serve did not start: {buffered!r}")

    def request(self, line: bytes) -> bytes:
        self.sock.sendall(line + b"\n")
        return self.reader.readline()

    def stats(self) -> dict:
        return json.loads(self.request(b"STATS"))

    def close(self) -> None:
        """SHUTDOWN, then wait for the process; kill it if it lingers."""
        if self.sock is not None:
            try:
                self.request(b"SHUTDOWN")
            except OSError:
                pass
            self.reader.close()
            self.sock.close()
            self.sock = None
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def _counters(stats: dict) -> dict:
    out = {}
    for tier, counts in stats.get("cache", {}).items():
        out[f"{tier}.hits"] = counts["hits"]
        out[f"{tier}.misses"] = counts["misses"]
    return out


def _setup(panels, expected, lines, spans_path):
    """Start a server, warm every panel once and verify it with the oracle.

    Returns the server, each panel's verified reply (bytes) and the
    problems found."""
    server = Server(spans_path)
    try:
        verified, problems = [], []
        w0 = time.perf_counter()
        for panel, want, line in zip(panels, expected, lines):
            raw = server.request(line)
            reply = json.loads(raw)
            if "rows" not in reply:
                problems.append(f"{panel.template}: {reply.get('error')}")
            else:
                reason = check(panel, reply["rows"], [tuple(r) for r in want])
                if reason:
                    problems.append(reason)
            verified.append(raw)
        server.warmup_s = time.perf_counter() - w0
        server.setup_s = time.perf_counter() - server.t0
        return server, verified, problems
    except BaseException:
        server.close()
        raise


#: a reply ends with the server's own time, then the result-tier flag
MS_FIELD = b', "ms": '
CACHED_TAIL = b', "cached": true}\n'


def _check_reply(raw: bytes, verified: bytes, template: str,
                 problems: list, errors: list) -> bool:
    """Check one timed reply against its panel's verified reply.

    The fast path compares bytes: everything before the ``ms`` field
    must equal the verified reply, and the tail must say ``cached``.
    Otherwise the reply is decoded and compared field by field.  Returns
    False for a failed request (an error reply)."""
    head = verified[:verified.rfind(MS_FIELD)]
    if raw.startswith(head + MS_FIELD) and raw.endswith(CACHED_TAIL):
        return True
    reply, want = json.loads(raw), json.loads(verified)
    if "rows" not in reply:
        errors.append(f"{template}: {reply.get('error')}")
        return False
    if reply["rows"] != want.get("rows"):
        problems.append(f"{template}: rows differ from the verified panel")
    if not reply.get("cached"):
        problems.append(f"{template}: not served from the result tier")
    return True


def run(job: dict) -> dict:
    stream = common.read_json(common.stream_path("dashboard", job["seed"]))
    stream.update(common.read_json(common.PANELS))
    panels = [ssb.render(p["template"], p["params"]) for p in stream["panels"]]
    lines = [p.sql.encode() for p in panels]
    spans_path = job["spans"] if job["trace"] else None
    # client and server share one CPU and take turns on it, so it never
    # idles between requests: a round trip waits on no CPU wake-up, which
    # on a contended host is where the hypervisor's delays land
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    setups, ready, warmups, problems = [], [], [], []
    for rep in range(common.SETUP_REPS):
        server, verified, found = _setup(panels, stream["expected"], lines,
                                         spans_path)
        problems += found
        setups.append(server.setup_s)
        ready.append(server.ready_s)
        warmups.append(server.warmup_s)
        if rep < common.SETUP_REPS - 1:
            server.close()
    try:
        order = stream["order"]
        per_round = len(panels)
        latencies, replies, errors = [], [], []
        failed, check_seconds, i = 0, 0.0, 0
        before = _counters(server.stats()) if job["trace"] else {}
        t_start = time.perf_counter()
        deadline = t_start + job["seconds"]
        while i == 0 or time.perf_counter() < deadline:
            for _ in range(per_round):
                p = order[i % len(order)]
                i += 1
                t0 = time.perf_counter()
                raw = server.request(lines[p])
                t1 = time.perf_counter()
                latencies.append(t1 - t0)
                if not _check_reply(raw, verified[p], panels[p].template,
                                    problems, errors):
                    failed += 1
                elif job["trace"]:
                    replies.append(raw[raw.rindex(MS_FIELD) + 2:])
                check_seconds += time.perf_counter() - t1
        t_end = time.perf_counter()
        after = _counters(server.stats()) if job["trace"] else {}
        peak = common.peak_rss_mb(server.proc.pid)
    finally:
        server.close()

    busy = (t_end - t_start) - check_seconds
    lat_ms = [x * 1e3 for x in latencies]
    out = {"setup_s": setups, "attempted": len(latencies), "failed": failed,
           "read_ms": lat_ms, "busy_s": busy, "peak_rss_mb": peak,
           "problems": problems[:5], "errors": errors[:5]}
    if job["trace"]:
        trace = common.read_json(common.Path(spans_path))
        layers = layer_metrics(trace, t_start, t_end, len(latencies),
                               before, after)
        decoded = [json.loads(b"{" + tail) for tail in replies]
        server_ms = [reply["ms"] for reply in decoded]
        cached = sum(bool(reply.get("cached")) for reply in decoded)
        n = max(1, len(server_ms))
        layers.update({
            "engine.warmup_s": sum(warmups) / len(warmups),
            "serve.ready_s": sum(ready) / len(ready),
            "serve.server_ms": sum(server_ms) / n,
            "serve.wire_ms": (sum(lat_ms) - sum(server_ms)) / max(1, len(lat_ms)),
            "serve.cached_ratio": cached / max(1, len(latencies)),
            "trace.ops_per_s": len(latencies) / busy,
        })
        out["layers"] = layers
    return out
