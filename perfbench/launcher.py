"""Traced ``repro serve``: the job server with layer spans installed.

Usage: ``python3 perfbench/launcher.py --spans FILE -- serve [serve args]``

Installs the layer and serve wrappers of ``tracer.py``, runs
``repro.cli.main`` with the remaining arguments, and when the server
returns after its SIGTERM drain writes every recorded span, the kernel
path counters and the resolved scatter cost to ``FILE`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

import tracer as tracing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args and serve_args[0] == "--":
        serve_args = serve_args[1:]

    from repro.backends import get_backend
    from repro.cli import main as cli_main
    from repro.obs import MetricsRegistry

    tracer = tracing.Tracer()
    registry = MetricsRegistry()
    tracing.install_layers(tracer, registry)
    tracing.install_serve(tracer)
    code = cli_main(serve_args)
    tracer.uninstall()
    payload = {
        "spans": tracer.export(),
        "kernel_batch_calls": {
            path: registry.counter_value("kernel.batch_calls", label=f"numpy:{path}")
            for path in ("scatter", "matmul")
        },
        "scatter_cost": get_backend().scatter_cost,
    }
    with open(args.spans, "w") as fh:
        json.dump(payload, fh)
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
