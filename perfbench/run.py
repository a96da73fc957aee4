"""The repository's benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload {mc-batch,serve-cold,serve-warm} \\
        --seed N --seconds S --trace {0,1}

Each workload runs uniform-size ops from one single-threaded client,
sending the next op only after the previous one returned.  With
``--trace 0`` the last stdout line reports the end-to-end metrics
(``setup_s``, ``ops_per_s``, ``op_p50_ms``, ``op_p95_ms``,
``peak_rss_mb``); with ``--trace 1`` the layers are wrapped in spans and
it reports the per-layer self times instead.  Progress, metadata and the
traced self-time table go to stderr.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import harness

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
HERE = Path(__file__).resolve().parent


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one set-up and no minimum op count: a quick run of the gates",
    )
    return parser.parse_args(argv)


def run_mc_batch(args, workdir: Path, setups: int, min_ops: int) -> dict:
    """Launch the mc-batch worker ``setups`` times; the last one is timed."""
    setup_times = []
    for k in range(setups):
        last = k == setups - 1
        cmd = [
            sys.executable, str(HERE / "mcbatch.py"),
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--min-ops", str(min_ops),
        ]
        if not last:
            cmd.append("--setup-only")
        t0 = perf_counter()
        proc = subprocess.Popen(
            cmd,
            cwd=harness.ROOT,
            env=harness.program_env(workdir / f"calibration-{k}"),
            stdout=subprocess.PIPE,
            text=True,
        )
        watchdog = harness.watchdog(proc)
        try:
            ready = proc.stdout.readline()
            setup_times.append(perf_counter() - t0)
            out = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready.strip() != "ready" or code != 0:
            raise RuntimeError(f"mc-batch worker failed (exit {code})")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_times"] = setup_times
    report["gates_ok"] = True
    return report


def main(argv=None) -> int:
    # BENCHMARK.json declares the workloads and every metric's unit.
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    # A terminated benchmark still stops the processes it started: the
    # SystemExit unwinds through their cleanup blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not harness.program_present():
        harness.log(f"no program at {harness.SRC / 'repro'}; nothing to benchmark")
        return 2
    setups = 1 if args.smoke else SETUPS
    min_ops = 1 if args.smoke else harness.min_samples()
    workdir = harness.scratch_dir()
    try:
        if args.workload == "mc-batch":
            report = run_mc_batch(args, workdir, setups, min_ops)
        else:
            import serveload

            report = serveload.run(
                args.workload, args.seed, args.seconds, bool(args.trace), workdir,
                setups=setups, min_ops=min_ops,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = report["latencies"]
    e2e = harness.latency_metrics(latencies, report["ends"], 0.0)
    harness.log(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "ops": len(latencies),
                "beyond_p95": harness.samples_beyond(len(latencies), harness.TAIL_Q),
                "slice_rates": harness.slice_rates(report["ends"], 0.0),
                "setup_times_s": report["setup_times"],
                "failures": report["failures"],
                "gates": report.get("gates"),
                "checked_ops": report["checked_ops"],
                "metadata": harness.metadata(scatter_cost=report.get("scatter_cost")),
            }
        )
    )
    correct = report["failed"] == 0 and report["gates_ok"]
    if args.trace:
        layers = report["layers"]
        table = layers["table"]
        harness.log(
            harness.format_table(
                f"{args.workload} traced self time per op "
                f"({len(latencies)} ops, {e2e['ops_per_s']:.3f} ops/s traced)",
                table,
                layers["op_ms"],
            )
        )
        values = {**table, **layers["counts"]}
        values["backends.scatter_cost"] = report["scatter_cost"]
        values["trace.op_ms"] = layers["op_ms"]
        values["trace.ops_per_s"] = e2e["ops_per_s"]
        declared = spec["per_layer"]
    else:
        values = {
            **e2e,
            "setup_s": statistics.median(report["setup_times"]),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        declared = spec["end_to_end"]
    # A per-layer row the workload never reaches reads 0.
    metrics = {m["name"]: (values.get(m["name"], 0.0), m["unit"]) for m in declared}
    print(harness.result_line(correct, report["attempted"], report["failed"], metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
