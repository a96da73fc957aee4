"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The smoke tests run each workload for about a second through ``run.py
--smoke`` (one set-up, no minimum op count), which still applies every
correctness gate.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import tracer as tracing  # noqa: E402


def test_tail_needs_ten_samples_beyond_p95():
    assert harness.min_samples(0.95, 10) == 200
    assert harness.samples_beyond(200, 0.95) == 10
    assert harness.samples_beyond(199, 0.95) == 9
    values = list(range(1, 201))
    p95 = harness.percentile(values, 0.95)
    assert p95 == 190
    assert sum(v > p95 for v in values) == 10
    assert harness.percentile(values, 0.50) == 100


def test_percentile_is_nearest_rank():
    assert harness.percentile([5.0], 0.95) == 5.0
    assert harness.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


def _span(t0, t1, parent=None, name="x"):
    return {"name": name, "t0": t0, "t1": t1, "parent": parent}


def test_self_time_of_nested_spans():
    # Spans are listed in close order, as the tracer records them.
    spans = [
        _span(2.0, 3.0, parent=1),  # 0: grandchild
        _span(1.0, 4.0, parent=3),  # 1: child a
        _span(5.0, 9.0, parent=3),  # 2: child b
        _span(0.0, 10.0),  # 3: root
    ]
    assert harness.self_times(spans) == [1.0, 2.0, 4.0, 3.0]
    assert sum(harness.self_times(spans)) == 10.0
    assert harness.roots(spans) == [3, 3, 3, 3]


def test_self_time_clips_overlapping_children():
    spans = [
        _span(0.0, 10.0),
        _span(2.0, 6.0, parent=0),
        _span(4.0, 8.0, parent=0),
        _span(9.0, 12.0, parent=0),
    ]
    assert harness.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_table_reports_the_remainder():
    table = harness.layer_table({"a_ms": 2.0, "b_ms": 5.0}, 8.5)
    assert table["unattributed_ms"] == pytest.approx(1.5)
    assert sum(table.values()) == pytest.approx(8.5)


class _Layer:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def test_tracer_wraps_and_restores():
    originals = dict(_Layer.__dict__)
    tracer = tracing.Tracer()
    tracer.wrap(_Layer, "outer", "layer.outer", note=lambda out: out)
    tracer.wrap(_Layer, "inner", "layer.inner", tag=lambda self, n: n)
    with tracer.span("op", tag=7):
        assert _Layer().outer(3) == 7
    assert _Layer.__dict__["outer"] is not originals["outer"]
    tracer.uninstall()
    assert _Layer.__dict__["outer"] is originals["outer"]
    assert _Layer.__dict__["inner"] is originals["inner"]
    spans = tracer.export()
    assert [s["name"] for s in spans] == ["layer.inner", "layer.outer", "op"]
    assert spans[0]["tag"] == 3 and spans[1]["note"] == 7 and spans[2]["tag"] == 7
    assert spans[0]["parent"] == 1 and spans[1]["parent"] == 2
    assert spans[2]["parent"] is None
    selfs = harness.self_times(spans)
    assert sum(selfs) == pytest.approx(spans[2]["t1"] - spans[2]["t0"])


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["mc-batch", "serve-cold", "serve-warm"])
def test_smoke_workload_passes_its_gates(workload):
    result = _run(workload, 0)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {
        "setup_s", "ops_per_s", "op_p50_ms", "op_p95_ms", "peak_rss_mb",
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["mc-batch", "serve-cold", "serve-warm"])
def test_smoke_traced_rows_sum_to_op_wall(workload):
    result = _run(workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    rows = sum(v for name, v in metrics.items() if name.endswith("_ms")
               and name != "trace.op_ms")
    assert rows == pytest.approx(metrics["trace.op_ms"])
    # The unattributed remainder stays a small share of the op.
    assert abs(metrics["unattributed_ms"]) < 0.1 * metrics["trace.op_ms"]
