"""K10 — engineering: kernel-backend throughput and crossover.

Measures the batched round kernel (``Adjacency.neighbor_counts_batch``)
under every *available* backend — numpy (scatter/matmul hybrid), numba
(compiled ``prange`` loop), cupy (device spmm) — at protocol-realistic
transmitter densities, up to n = 10^6 in full mode.  Reports raw kernel
calls/sec per backend and the per-density scatter-vs-matmul crossover of
the numpy hybrid, so a machine's calibrated ``scatter_cost`` can be
sanity-checked against a measured curve.

Every measurement cross-checks the counts against the default backend —
a backend that wins the benchmark by diverging fails it instead.

Also runnable as a script for the CI artifact::

    PYTHONPATH=src python benchmarks/bench_k10_backends.py --quick \\
        --out BENCH_backends.json
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np
import pytest

from repro.backends import (
    NumpyBackend,
    available_backend_names,
    get_backend,
    use_backend,
)
from repro.graphs import gnp
from repro.radio import RadioNetwork

#: Transmitter densities bracketing the scatter/matmul crossover; the
#: protocols of the paper transmit at ~1/d ≈ 1/(2 ln n).
DENSITIES = (0.01, 0.06, 0.25)


def make_adjacency(n: int, seed: int = 1):
    p = 2 * np.log(n) / n
    adj = gnp(n, p, seed=seed)
    adj.matrix()  # exclude one-off CSR assembly from every timing
    return adj


def _masks(n: int, reps: int, density: float, seed: int = 123):
    return np.random.default_rng(seed).random((n, reps)) < density


def _time_calls(fn, *, min_seconds: float = 0.05, max_calls: int = 50) -> float:
    """Best-effort per-call seconds: repeat until the clock resolves."""
    calls, elapsed = 0, 0.0
    best = float("inf")
    while elapsed < min_seconds and calls < max_calls:
        start = time.perf_counter()
        fn()
        dt = time.perf_counter() - start
        elapsed += dt
        calls += 1
        best = min(best, dt)
    return best


def measure_backend(name: str, n: int, reps: int, density: float) -> dict:
    """Per-call seconds for one backend, with a parity check vs numpy."""
    adj = make_adjacency(n)
    masks = _masks(n, reps, density)
    reference = NumpyBackend().neighbor_counts_batch(adj, masks)
    with use_backend(name):
        backend = get_backend()
        backend.calibrate()
        counts = backend.neighbor_counts_batch(adj, masks)
        if not np.array_equal(counts, reference):
            raise AssertionError(f"backend {name!r} diverged from numpy counts")
        seconds = _time_calls(lambda: backend.neighbor_counts_batch(adj, masks))
    cells = adj.indices.size * reps
    return {
        "backend": name,
        "n": n,
        "repetitions": reps,
        "density": density,
        "seconds_per_call": seconds,
        "cells_per_sec": cells / seconds if seconds else float("inf"),
        "path": backend._last_path,
    }


def measure_crossover(n: int, reps: int) -> list[dict]:
    """Scatter vs matmul timings of the numpy hybrid across densities."""
    adj = make_adjacency(n)
    backend = NumpyBackend()
    rows = []
    for density in DENSITIES:
        # Trial-major (R, n) state passed as its transpose: the layout the
        # batch engine sends, and the one calibration times.
        masks = np.ascontiguousarray(_masks(n, reps, density).T).T
        t_scatter = _time_calls(lambda: backend._scatter(adj, masks))
        t_matmul = _time_calls(lambda: backend._matmul(adj, masks))
        rows.append(
            {
                "n": n,
                "repetitions": reps,
                "density": density,
                "scatter_seconds": t_scatter,
                "matmul_seconds": t_matmul,
                "scatter_over_matmul": t_scatter / t_matmul,
            }
        )
    return rows


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------


@pytest.fixture(scope="module", params=[1_000, 10_000], ids=["n1k", "n10k"])
def kernel_case(request):
    adj = make_adjacency(request.param)
    return adj, _masks(request.param, 64, 0.06)


@pytest.mark.parametrize("name", available_backend_names())
def test_k10_backend_batch_kernel(benchmark, kernel_case, name):
    adj, masks = kernel_case
    with use_backend(name):
        backend = get_backend()
        backend.calibrate()
        counts = benchmark(backend.neighbor_counts_batch, adj, masks)
    assert np.array_equal(counts, NumpyBackend().neighbor_counts_batch(adj, masks))


def test_k10_backends_agree_at_acceptance_point():
    results = [
        measure_backend(name, 10_000, 64, 0.06)
        for name in available_backend_names()
    ]
    for row in results:
        print(
            f"\n{row['backend']:>6} n={row['n']} R={row['repetitions']} "
            f"density={row['density']}: {row['cells_per_sec']:,.0f} cells/s "
            f"({row['path']})"
        )
    assert results  # numpy is always available; parity checked inside


# ----------------------------------------------------------------------
# Script mode: emit the CI backend-throughput artifact
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kernel backend throughput bench")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes and fewer repetitions (CI budget)",
    )
    parser.add_argument("--out", default=None, help="write JSON results to this path")
    args = parser.parse_args(argv)

    sizes = (1_000, 10_000) if args.quick else (10_000, 100_000, 1_000_000)
    reps = 16 if args.quick else 64
    backends = available_backend_names()

    results = [
        measure_backend(name, n, reps, density)
        for n in sizes
        for density in DENSITIES
        for name in backends
    ]
    crossover = measure_crossover(sizes[0], reps)
    payload = {
        "benchmark": "k10_backends",
        "mode": "quick" if args.quick else "full",
        "backends": backends,
        "scatter_cost": NumpyBackend().calibrate(),
        "results": results,
        "crossover": crossover,
    }
    for row in results:
        print(
            f"n={row['n']:>8}  R={row['repetitions']}  d={row['density']:<5} "
            f"{row['backend']:>6}  {row['cells_per_sec']:>14,.0f} cells/s  "
            f"path={row['path']}"
        )
    print(f"calibrated scatter_cost: {payload['scatter_cost']:.2f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
