"""Shared pieces of the benchmark: statistics, span accounting, environment.

Everything here is pure Python over the standard library, so the
orchestrator (``run.py``), the mc-batch worker and the traced serve
launcher can all import it without importing the program under test.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
import tempfile
import threading
from pathlib import Path
from time import monotonic

#: The repository checkout this benchmark lives in.
ROOT = Path(__file__).resolve().parent.parent
#: The program's source tree; the benchmark builds nothing, it imports it.
SRC = ROOT / "src"
#: Scratch space for per-run cache, journal and calibration directories.
#: It lives inside the checkout so a run touches nothing outside it.
TMP_ROOT = ROOT / ".perfbench_tmp"

#: Percentile reported as the latency tail, and the number of samples
#: that must lie beyond it for it to be worth reporting.
TAIL_Q = 0.95
MIN_BEYOND = 10
#: Consecutive slices of the timed phase whose median rate is ops_per_s.
SLICES = 5
#: Every process a run starts is killed once the run is this old, so a
#: hung program cannot keep the benchmark past its 180 s limit.
RUN_LIMIT_S = 170.0
_RUN_START = monotonic()


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the ``q`` rank."""
    return count - max(1, math.ceil(q * count))


def min_samples(q: float = TAIL_Q, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count with ``beyond`` samples past the ``q`` rank."""
    count = beyond
    while samples_beyond(count, q) < beyond:
        count += 1
    return count


def slice_rates(ends_s, start_s: float, slices: int = SLICES) -> list[float]:
    """Ops per second of consecutive slices of a closed loop.

    The ops are cut into ``slices`` consecutive runs of equal count; a
    slice's rate is its op count over the wall time from the end of the
    op before it to the end of its last op.
    """
    count = len(ends_s)
    slices = max(1, min(slices, count))
    rates = []
    previous = start_s
    for k in range(slices):
        last = (k + 1) * count // slices - 1
        first = k * count // slices
        rates.append((last - first + 1) / (ends_s[last] - previous))
        previous = ends_s[last]
    return rates


def latency_metrics(latencies_s, ends_s, start_s: float) -> dict:
    """The throughput and latency end-to-end metrics of one timed phase."""
    return {
        # The median slice keeps a transient slow host out of the figure;
        # on a steady host it equals ops / wall time.
        "ops_per_s": statistics.median(slice_rates(ends_s, start_s)),
        "op_p50_ms": percentile(latencies_s, 0.50) * 1e3,
        "op_p95_ms": percentile(latencies_s, TAIL_Q) * 1e3,
    }


# ----------------------------------------------------------------------
# Span accounting
# ----------------------------------------------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    ``spans`` are dicts with ``t0``, ``t1`` and ``parent`` (an index into
    ``spans`` or ``None``).  Children are clipped to their parent and
    merged, so overlapping or out-of-bounds children never drive a self
    time below zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            children.setdefault(parent, []).append((span["t0"], span["t1"]))
    out = []
    for index, span in enumerate(spans):
        t0, t1 = span["t0"], span["t1"]
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(index, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append((t1 - t0) - covered)
    return out


def roots(spans: list[dict]) -> list[int]:
    """For each span, the index of the root of its tree."""
    out: list[int] = []
    for index, span in enumerate(spans):
        parent = span["parent"]
        root = index
        while parent is not None:
            root = parent
            parent = spans[parent]["parent"]
        out.append(root)
    return out


def layer_table(rows_ms: dict[str, float], op_ms: float) -> dict[str, float]:
    """Per-op self-time rows plus the ``unattributed_ms`` remainder."""
    table = dict(rows_ms)
    table["unattributed_ms"] = op_ms - sum(rows_ms.values())
    return table


def format_table(title: str, table: dict[str, float], op_ms: float) -> str:
    lines = [title, f"  {'layer':<24}{'ms/op':>12}{'share':>9}"]
    for name, value in sorted(table.items(), key=lambda kv: -kv[1]):
        share = value / op_ms if op_ms else 0.0
        lines.append(f"  {name:<24}{value:>12.4f}{share:>8.1%}")
    lines.append(f"  {'op wall (sum of rows)':<24}{op_ms:>12.4f}{1:>8.0%}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------


def program_env(cache_dir: Path) -> dict:
    """Environment for a process that runs the program.

    The calibration cache points into the run's own scratch directory, so
    a stale host-wide ``~/.cache/repro`` entry is never read and the
    scatter/matmul calibration is paid inside ``setup_s``.  Thread pools
    of the numeric libraries are pinned to one thread: the kernels this
    benchmark drives are single-threaded, and idle pool threads only add
    scheduler noise on a small host.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_BACKEND", None)
    env.pop("REPRO_SCATTER_COST", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONUNBUFFERED"] = "1"
    return env


def watchdog(proc) -> threading.Timer:
    """Kill ``proc`` when the run reaches :data:`RUN_LIMIT_S`; cancel the
    returned timer once the process has ended."""
    timer = threading.Timer(max(0.0, RUN_LIMIT_S - (monotonic() - _RUN_START)), proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def scratch_dir() -> Path:
    TMP_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` inside the checkout only
    (``unknown`` in an export without git metadata)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(**extra) -> dict:
    """Versions and host facts recorded alongside every run."""
    versions = {}
    for name in ("numpy", "scipy"):
        try:
            module = __import__(name)
            versions[name] = module.__version__
        except ImportError:
            versions[name] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        **extra,
    }


def log(message: str) -> None:
    """Progress and reports go to stderr; stdout ends with the result."""
    print(message, file=sys.stderr, flush=True)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
