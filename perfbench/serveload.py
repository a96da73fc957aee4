"""The serve-cold and serve-warm workloads: one closed-loop HTTP client.

Every request is a broadcast ``JobSpec`` on one shared graph
``{n: 2000, p: 2 ln n / n, seed: <workload seed>}`` with the Theorem 7
protocol.  serve-cold gives every request a fresh run seed, so each one
misses the cache and executes; serve-warm fills the cache with
``WARM_SPECS`` specs after set-up and then resubmits them round-robin,
so each one is a content-address hit.  One request is in flight at a
time over one connection.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import harness

N = 2000
WARM_SPECS = 32
#: Every SAMPLE_EVERY-th op's document is kept; the first CHECKED_DOCS
#: kept are re-derived in-process with ``execute_job``.
SAMPLE_EVERY = 97
CHECKED_DOCS = 4
PROCESS_TIMEOUT_S = 60.0
HERE = Path(__file__).resolve().parent


def job_spec(seed: int, run_seed: int) -> dict:
    return {
        "process": "broadcast",
        "graph": {"n": N, "p": 2 * math.log(N) / N, "seed": seed},
        "params": {"protocol": {"kind": "eg-randomized"}, "source": 0},
        "seed": run_seed,
    }


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


class Server:
    """One ``repro serve --cache DIR`` child (journal on, defaulting to DIR)."""

    def __init__(self, workdir: Path, *, spans: Path | None = None):
        cache = workdir / "cache"
        serve_args = ["serve", "--port", "0", "--cache", str(cache), "--drain-s", "10"]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            cmd = [sys.executable, str(HERE / "launcher.py"), "--spans", str(spans),
                   "--", *serve_args]
        self.spans = spans
        self.proc = subprocess.Popen(
            cmd,
            cwd=harness.ROOT,
            env=harness.program_env(workdir / "calibration"),
            stdout=subprocess.PIPE,
            text=True,
        )
        self._watchdog = harness.watchdog(self.proc)
        line = self.proc.stdout.readline()
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line.split("http://", 1)[1].strip().rsplit(":", 1)
        self.host, self.port = host, int(port)

    def request(self, method: str, path: str, body: bytes | None = None) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=PROCESS_TIMEOUT_S)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError(f"{method} {path}: HTTP {response.status} {payload[:200]!r}")
        return json.loads(payload)

    def submit(self, spec: dict) -> dict:
        return self.request("POST", "/v1/simulate?wait=true", json.dumps(spec).encode())

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._watchdog.cancel()
        self.proc.stdout.close()
        return self.proc.returncode


def start_ready(workdir: Path, seed: int, *, spans: Path | None = None):
    """Start a server and bring it to its first timed op: ``/v1/healthz``
    then one warm-up job (a cold execution outside the timed seed range)."""
    t0 = perf_counter()
    server = Server(workdir, spans=spans)
    try:
        if not server.request("GET", "/v1/healthz").get("ok"):
            raise RuntimeError("healthz not ok")
        warm = server.submit(job_spec(seed, warmup_seed(seed)))
        if warm["state"] != "done":
            raise RuntimeError(f"warm-up job ended {warm['state']}: {warm['error']}")
    except BaseException:
        server.stop()
        raise
    return server, perf_counter() - t0


def run_seed(seed: int, i: int) -> int:
    return seed * 10**6 + i


def warmup_seed(seed: int) -> int:
    return run_seed(seed, 10**6 - 1)


def layer_report(spans_file: Path, ops: list[tuple[str, float]]) -> dict:
    """Join the server's spans to the client's ops by job id.

    A job's spans are the tree under its ``serve.submit`` (event-loop
    thread) plus the execution thread's trees tagged with its content
    address.  Client latency not covered by the server window
    ``[first span start, last span end]`` is ``serve.outside``; the
    handoff from submit to execution is ``serve.queue_wait``.
    """
    payload = json.loads(spans_file.read_text())
    spans = payload["spans"]
    selfs = harness.self_times(spans)
    root_of = harness.roots(spans)
    latency = dict(ops)
    job_of_key = {}
    for span in spans:
        note = span["note"]
        if span["name"] == "serve.submit" and span["parent"] is None and note["job"] in latency:
            if note["cache"] == "miss":
                job_of_key[note["key"]] = note["job"]
    executions_total = sum(1 for s in spans if s["name"] == "serve.execute")

    def job_of(root: dict):
        if root["name"] == "serve.submit":
            return root["note"]["job"]
        return job_of_key.get(root["tag"])

    rows: dict[str, dict[str, float]] = {}
    counts = {"graphs.bfs": 0, "hits": 0, "serve.execute": 0}
    window: dict[str, list[float]] = {}
    submit_end: dict[str, float] = {}
    exec_start: dict[str, float] = {}
    for index, span in enumerate(spans):
        job = job_of(spans[root_of[index]])
        if job not in latency:
            continue
        rows.setdefault(job, {})
        name = span["name"]
        rows[job][name] = rows[job].get(name, 0.0) + selfs[index]
        if name in counts:
            counts[name] += 1
        if name == "serve.cache_get" and span["note"]:
            counts["hits"] += 1
        if name == "serve.submit":
            submit_end[job] = span["t1"]
        if name == "serve.execute":
            exec_start[job] = span["t0"]
        lo, hi = window.get(job, (span["t0"], span["t1"]))
        window[job] = [min(lo, span["t0"]), max(hi, span["t1"])]

    total: dict[str, float] = {}
    for job, lat in ops:
        per = dict(rows.get(job, {}))
        if job in exec_start and job in submit_end:
            per["serve.queue_wait"] = max(0.0, exec_start[job] - submit_end[job])
        lo, hi = window.get(job, (0.0, 0.0))
        per["serve.outside"] = lat - (hi - lo)
        for name, value in per.items():
            total[name] = total.get(name, 0.0) + value
    n = len(ops)
    op_ms = 1e3 * sum(lat for _, lat in ops) / n
    table = harness.layer_table(
        {f"{name}_ms": 1e3 * value / n for name, value in total.items()}, op_ms
    )
    share = counts["serve.execute"] / executions_total if executions_total else 0.0
    calls = payload["kernel_batch_calls"]
    return {
        "table": table,
        "op_ms": op_ms,
        "scatter_cost": payload["scatter_cost"],
        "counts": {
            "graphs.bfs_calls": counts["graphs.bfs"] / n,
            "backends.scatter_calls": calls["scatter"] * share / n,
            "backends.matmul_calls": calls["matmul"] * share / n,
            "serve.cache_hits": counts["hits"] / n,
            "serve.executions": counts["serve.execute"] / n,
        },
    }


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        *, setups: int, min_ops: int) -> dict:
    """Set up ``setups`` times (the last server stays up), then time ops."""
    setup_times = []
    server = None
    spans = workdir / "spans.json" if trace else None
    for k in range(setups):
        last = k == setups - 1
        server, elapsed = start_ready(
            workdir / f"server-{k}", seed, spans=spans if last else None
        )
        setup_times.append(elapsed)
        if not last:
            server.stop()
    try:
        return _timed(server, workload, seed, seconds, trace, setup_times, min_ops,
                      workdir)
    finally:
        server.stop()


def _timed(server, workload, seed, seconds, trace, setup_times, min_ops,
           workdir) -> dict:
    cold_docs = []
    if workload == "serve-warm":
        for k in range(WARM_SPECS):
            status = server.submit(job_spec(seed, run_seed(seed, k)))
            if status["state"] != "done" or status["cache"] != "miss":
                raise RuntimeError(f"warm fill job {k}: {status['state']}/{status['cache']}")
            cold_docs.append(status["result"])
    executions_before = server.request("GET", "/v1/healthz")["executions"]

    expect = "hit" if workload == "serve-warm" else "miss"
    kept: dict[int, dict] = {}
    failed: list[int] = []
    ops: list[tuple[str, float]] = []
    latencies: list[float] = []
    ends: list[float] = []
    start = perf_counter()
    i = 0
    while True:
        k = i % WARM_SPECS if workload == "serve-warm" else i
        body = json.dumps(job_spec(seed, run_seed(seed, k))).encode()
        t0 = perf_counter()
        try:
            status = server.request("POST", "/v1/simulate?wait=true", body)
        except (OSError, RuntimeError, http.client.HTTPException, ValueError):
            status = None  # refused or broken: a failed op
        end = perf_counter()
        latency = end - t0
        latencies.append(latency)
        ends.append(end - start)
        ok = (
            status is not None
            and status["state"] == "done"
            and status["cache"] == expect
            and (workload != "serve-warm" or status["result"] == cold_docs[k])
        )
        if status is not None:
            ops.append((status["id"], latency))
        if not ok:
            failed.append(i)
        if ok and i % SAMPLE_EVERY == 0:
            kept[i] = status["result"]
        i += 1
        if i == min_ops:
            peak = harness.peak_rss_mb(server.proc.pid)
        if ends[-1] >= seconds and i >= min_ops:
            break
    executions = server.request("GET", "/v1/healthz")["executions"] - executions_before
    server.stop()

    # Byte-identity gates against the program run in this process.
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "calibration-client")
    sys.path.insert(0, str(harness.SRC))
    from repro.serve.runner import execute_job
    from repro.serve.types import JobSpec

    checked = sorted(kept)[:CHECKED_DOCS]
    mismatched = []
    for index in checked:
        k = index % WARM_SPECS if workload == "serve-warm" else index
        local = execute_job(JobSpec.from_dict(job_spec(seed, run_seed(seed, k))))
        if canonical(local) != canonical(kept[index]):
            mismatched.append(index)
        if workload == "serve-warm" and canonical(kept[index]) != canonical(cold_docs[k]):
            mismatched.append(index)
    expected_executions = i if workload == "serve-cold" else 0
    report = {
        "latencies": latencies,
        "ends": ends,
        "attempted": i,
        "failed": len(set(failed) | set(mismatched)),
        "failures": {"state_or_cache": failed, "document_mismatch": mismatched},
        "gates": {"executions": executions, "expected_executions": expected_executions},
        "gates_ok": executions == expected_executions,
        "checked_ops": checked,
        "peak_rss_mb": peak,
        "setup_times": setup_times,
    }
    if trace:
        report["layers"] = layer_report(server.spans, ops)
        # The launcher resolves it as the server exits; untraced serve
        # runs never calibrate (the serial path uses only the matvec).
        report["scatter_cost"] = report["layers"]["scatter_cost"]
    return report
