"""The mc-batch workload's program process.

Run by ``run.py`` (never imported by it): builds one connected
``G(n=5000, p=2 ln n / n)``, calibrates the count kernel, runs one
warm-up op, prints ``ready``, then runs ``protocol_times`` ops of R=32
Theorem 7 trials closed-loop until ``--seconds`` have passed and at
least ``--min-ops`` ops are done.  Op ``i`` uses seed ``(seed, i)``.

The last stdout line is a JSON report: per-op latencies, gate results,
peak RSS once ``--min-ops`` ops are done and, with ``--trace 1``, the
per-layer self-time table.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from time import perf_counter

import harness

N = 5000
REPETITIONS = 32
#: Ops whose per-trial rounds are re-derived with serial ``repro.simulate``.
CHECKED_OPS = 3
#: Seed-sequence words that keep the graph and warm-up streams apart from
#: every op stream ``(seed, i)``.
GRAPH_WORD, WARMUP_WORD = 2**32 - 1, 2**32 - 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=harness.min_samples())
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def layer_report(tracer, registry, ops: int, latencies) -> dict:
    """Per-op self times of the traced phase, keyed like BENCHMARK.json."""
    spans = tracer.export()
    selfs = harness.self_times(spans)
    root_of = harness.roots(spans)
    rows: dict[str, float] = {}
    counts: dict[str, float] = {}
    for index, span in enumerate(spans):
        if spans[root_of[index]]["name"] != "op" or span["name"] == "op":
            continue
        rows[span["name"]] = rows.get(span["name"], 0.0) + selfs[index]
        counts[span["name"]] = counts.get(span["name"], 0) + 1
        if span["name"] == "radio.engine":
            counts["rounds"] = counts.get("rounds", 0) + span["note"]
    op_ms = 1e3 * sum(latencies) / ops
    table = harness.layer_table(
        {f"{name}_ms": 1e3 * value / ops for name, value in rows.items()}, op_ms
    )
    calls = {
        path: registry.counter_value("kernel.batch_calls", label=f"numpy:{path}")
        for path in ("scatter", "matmul")
    }
    return {
        "table": table,
        "op_ms": op_ms,
        "counts": {
            "graphs.bfs_calls": counts.get("graphs.bfs", 0) / ops,
            "radio.lockstep_rounds": counts.get("rounds", 0) / ops,
            "backends.scatter_calls": calls["scatter"] / ops,
            "backends.matmul_calls": calls["matmul"] / ops,
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import numpy as np

    from repro.backends import get_backend
    from repro.broadcast.distributed import EGRandomizedProtocol
    from repro.experiments.runner import protocol_times
    from repro.graphs.random_graphs import gnp_connected
    from repro.radio.model import RadioNetwork

    p = 2 * math.log(N) / N
    network = RadioNetwork(
        gnp_connected(N, p, seed=np.random.SeedSequence([args.seed, GRAPH_WORD]))
    )
    scatter_cost = get_backend().scatter_cost
    protocol = EGRandomizedProtocol(N, p)

    def op(entropy):
        return protocol_times(
            network,
            protocol,
            repetitions=REPETITIONS,
            seed=np.random.SeedSequence(entropy),
            p=p,
        )

    op([args.seed, WARMUP_WORD])
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = registry = None
    if args.trace:
        import tracer as tracing
        from repro.obs import MetricsRegistry

        tracer = tracing.Tracer()
        registry = MetricsRegistry()
        tracing.install_layers(tracer, registry)

    latencies: list[float] = []
    ends: list[float] = []
    incomplete: list[int] = []
    kept: dict[int, list[float]] = {}
    start = perf_counter()
    i = 0
    while True:
        t0 = perf_counter()
        if tracer is not None:
            with tracer.span("op", tag=i):
                rounds = op([args.seed, i])
        else:
            rounds = op([args.seed, i])
        end = perf_counter()
        latencies.append(end - t0)
        ends.append(end - start)
        if not np.all(np.isfinite(rounds)):
            incomplete.append(i)
        kept[i] = rounds.tolist()
        i += 1
        if i == args.min_ops:
            peak = harness.peak_rss_mb()
        if ends[-1] >= args.seconds and i >= args.min_ops:
            break
    if tracer is not None:
        tracer.uninstall()

    # Gate: per-trial completion rounds equal serial runs on the same
    # spawned per-trial streams.
    import repro
    from repro.rng import spawn_generators

    pick = np.random.default_rng([args.seed, WARMUP_WORD]).choice(
        i, size=min(CHECKED_OPS, i), replace=False
    )
    mismatched = []
    for index in sorted(int(k) for k in pick):
        serial = []
        for rng in spawn_generators(
            np.random.SeedSequence([args.seed, index]), REPETITIONS
        ):
            trace = repro.simulate(
                "broadcast", network, protocol=protocol, source=0, p=p, seed=rng,
                check_connected=False, raise_on_incomplete=False,
            )
            serial.append(float(trace.completion_round) if trace.completed else None)
        batch = [r if math.isfinite(r) else None for r in kept[index]]
        if serial != batch:
            mismatched.append(index)
    failed = sorted(set(incomplete) | set(mismatched))
    report = {
        "latencies": latencies,
        "ends": ends,
        "attempted": i,
        "failed": len(failed),
        "failures": {"incomplete": incomplete, "serial_mismatch": mismatched},
        "checked_ops": sorted(int(k) for k in pick),
        "peak_rss_mb": peak,
        "scatter_cost": scatter_cost,
    }
    if tracer is not None:
        report["layers"] = layer_report(tracer, registry, i, latencies)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
