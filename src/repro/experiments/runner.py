"""Result containers and measurement helpers shared by all experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .._typing import SeedLike
from ..errors import BroadcastIncompleteError
from ..gossip.batch import run_gossip_batch, run_multimessage_batch
from ..obs import maybe_span
from ..gossip.multimessage import simulate_multimessage
from ..gossip.simulator import simulate_gossip
from ..radio.engine import run_broadcast_batch
from ..radio.model import RadioNetwork
from ..radio.protocol import RadioProtocol
from ..radio.simulator import simulate_broadcast
from ..rng import spawn_generators
from ..theory.fitting import FitResult
from .report import format_markdown_table, format_table

__all__ = [
    "ExperimentResult",
    "aggregate",
    "outcomes_table",
    "protocol_times",
    "gossip_times",
    "multimessage_times",
    "scheduler_rounds",
]


@dataclass
class ExperimentResult:
    """One experiment's reproduced table plus the fits that test the claim.

    Attributes
    ----------
    experiment_id: "E1" ... "E12".
    title: short description.
    claim: the paper statement being reproduced.
    columns: ordered column names of ``rows``.
    rows: the regenerated table, one dict per row.
    fits: named scaling fits supporting the claim.
    notes: free-form observations recorded during the run.
    """

    experiment_id: str
    title: str
    claim: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    fits: dict[str, FitResult] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def table(self, *, float_digits: int = 3) -> str:
        """Render the result as an aligned text table with fit footer."""
        parts = [
            format_table(
                self.rows,
                self.columns,
                title=f"[{self.experiment_id}] {self.title}",
                float_digits=float_digits,
            )
        ]
        for name, fit in self.fits.items():
            parts.append(f"fit {name}: {fit}")
        parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)

    def to_markdown(self) -> str:
        """Markdown rendering for EXPERIMENTS.md."""
        parts = [
            f"### {self.experiment_id} — {self.title}",
            "",
            f"*Claim:* {self.claim}",
            "",
            format_markdown_table(self.rows, self.columns),
        ]
        if self.fits:
            parts.append("")
            parts.extend(f"* fit `{name}`: {fit}" for name, fit in self.fits.items())
        if self.notes:
            parts.append("")
            parts.extend(f"* {note}" for note in self.notes)
        return "\n".join(parts)

    def column(self, name: str) -> np.ndarray:
        """One column of the table as a float array (NaN for missing)."""
        return np.array(
            [float(r[name]) if r.get(name) is not None else np.nan for r in self.rows]
        )


def outcomes_table(outcomes, *, title: str = "supervised sweep summary") -> str:
    """Render supervised-sweep task outcomes as an aligned text table.

    ``outcomes`` is a sequence of
    :class:`~repro.experiments.supervisor.TaskOutcome`-shaped records
    (duck-typed: ``key``/``status``/``attempts``/``elapsed``/``error``
    plus the shard-attribution fields ``host``/``requeued``/
    ``lost_leases``).  ``repro run-all --jobs N`` prints this after the
    result tables so a sweep with failed or recovered experiments says
    so explicitly; under ``--fabric`` the ``host`` column attributes
    each outcome to the executor shard that produced it, and
    ``requeued``/``lost_leases`` count recovery the statuses hide.
    """
    rows = [
        {
            "task": o.key,
            "status": o.status,
            "host": getattr(o, "host", ""),
            "attempts": o.attempts,
            "requeued": getattr(o, "requeued", 0),
            "lost_leases": getattr(o, "lost_leases", 0),
            "elapsed_s": round(o.elapsed, 2),
            "error": o.error,
        }
        for o in outcomes
    ]
    columns = [
        "task",
        "status",
        "host",
        "attempts",
        "requeued",
        "lost_leases",
        "elapsed_s",
        "error",
    ]
    return format_table(rows, columns, title=title)


def aggregate(values) -> dict[str, float]:
    """Mean/std/min/max summary of a sample of measurements.

    Non-finite entries (``inf`` for budget misses, ``NaN`` for missing
    data) are tolerated: statistics are computed over the finite subset,
    and an all-failed sample yields NaN statistics plus the counts —
    instead of raising — so a degraded sweep still aggregates.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot aggregate an empty sample")
    finite = arr[np.isfinite(arr)]
    if finite.size:
        stats = {
            "mean": float(finite.mean()),
            "std": float(finite.std(ddof=1)) if finite.size > 1 else 0.0,
            "min": float(finite.min()),
            "max": float(finite.max()),
        }
    else:
        stats = {"mean": np.nan, "std": np.nan, "min": np.nan, "max": np.nan}
    stats["count"] = int(arr.size)
    stats["num_nonfinite"] = int(arr.size - finite.size)
    return stats


def protocol_times(
    network: RadioNetwork,
    protocol: RadioProtocol,
    *,
    repetitions: int,
    seed: SeedLike,
    source: int = 0,
    max_rounds: int | None = None,
    p: float | None = None,
    check_connected: bool = True,
    with_fractions: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Completion times over repetitions; ``inf`` entries for budget misses.

    With ``with_fractions=True`` also returns the per-trial final informed
    fraction (1.0 for completed runs), so failed trials record how far the
    broadcast got instead of collapsing to an opaque ``inf``.
    ``check_connected=False`` skips the per-trial reachability BFS —
    sweeps over one fixed connected graph should verify once upfront.

    Protocols that advertise ``supports_batch`` (uniform, decay, the
    Theorem 7 randomized protocol) are measured on the batched engine
    (:func:`~repro.radio.engine.run_broadcast_batch`): all repetitions
    advance in lockstep, one batched count-kernel call per round (on
    the numpy backend a gather/bincount scatter or a CSR×dense matmul,
    whichever the transmitter density favours).  The per-trial
    streams are spawned identically in both paths, so the dispatch is
    bit-for-bit invisible in the results (pinned by
    ``tests/radio/test_batch.py``).
    """
    with maybe_span("sweep.protocol_times", label=protocol.name):
        if repetitions >= 1 and getattr(protocol, "supports_batch", False):
            batch = run_broadcast_batch(
                network,
                protocol,
                source,
                repetitions=repetitions,
                p=p,
                seed=seed,
                max_rounds=max_rounds,
                check_connected=check_connected,
            )
            if with_fractions:
                return batch.completion_rounds, batch.informed_fractions
            return batch.completion_rounds
        out = np.empty(repetitions, dtype=float)
        fractions = np.empty(repetitions, dtype=float)
        n = network.n
        for i, rng in enumerate(spawn_generators(seed, repetitions)):
            try:
                trace = simulate_broadcast(
                    network,
                    protocol,
                    source,
                    seed=rng,
                    max_rounds=max_rounds,
                    p=p,
                    check_connected=check_connected,
                )
                out[i] = trace.completion_round
                fractions[i] = 1.0
            except BroadcastIncompleteError as exc:
                out[i] = np.inf
                fractions[i] = (
                    exc.trace.num_informed / n if exc.trace is not None else 0.0
                )
        if with_fractions:
            return out, fractions
        return out


def _knowledge_times_serial(
    simulate,
    repetitions: int,
    seed: SeedLike,
    tokens: int,
    n: int,
    with_fractions: bool,
):
    out = np.empty(repetitions, dtype=float)
    fractions = np.empty(repetitions, dtype=float)
    for i, rng in enumerate(spawn_generators(seed, repetitions)):
        try:
            trace = simulate(rng)
            out[i] = trace.completion_round
            fractions[i] = 1.0
        except BroadcastIncompleteError as exc:
            out[i] = np.inf
            counts = getattr(exc.trace, "knowledge_counts", None)
            fractions[i] = (
                float(np.sum(counts)) / float(n * tokens) if counts is not None else 0.0
            )
    if with_fractions:
        return out, fractions
    return out


def gossip_times(
    network: RadioNetwork,
    protocol: RadioProtocol,
    *,
    repetitions: int,
    seed: SeedLike,
    max_rounds: int | None = None,
    p: float | None = None,
    check_connected: bool = True,
    faults=None,
    with_fractions: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Gossip completion times over repetitions; ``inf`` for budget misses.

    The gossip twin of :func:`protocol_times`, with identical dispatch:
    ``supports_batch`` protocols on fault-free runs are measured on the
    batched lockstep engine
    (:func:`~repro.gossip.batch.run_gossip_batch`), everything else —
    including any run with an active ``faults`` plan — falls back to
    serial :func:`~repro.gossip.simulator.simulate_gossip` over spawned
    per-trial streams.  The two paths are bit-for-bit identical.
    ``with_fractions=True`` additionally returns the per-trial final
    fraction of known (node, rumor) pairs.
    """
    fault_free = faults is None or getattr(faults, "is_null", False)
    with maybe_span("sweep.gossip_times", label=protocol.name):
        if (
            repetitions >= 1
            and fault_free
            and getattr(protocol, "supports_batch", False)
        ):
            batch = run_gossip_batch(
                network,
                protocol,
                repetitions=repetitions,
                p=p,
                seed=seed,
                max_rounds=max_rounds,
                check_connected=check_connected,
            )
            if with_fractions:
                return batch.completion_rounds, batch.knowledge_fractions
            return batch.completion_rounds
        return _knowledge_times_serial(
            lambda rng: simulate_gossip(
                network,
                protocol,
                p=p,
                seed=rng,
                max_rounds=max_rounds,
                check_connected=check_connected,
                faults=faults,
            ),
            repetitions,
            seed,
            network.n,
            network.n,
            with_fractions,
        )


def multimessage_times(
    network: RadioNetwork,
    protocol: RadioProtocol,
    sources,
    *,
    repetitions: int,
    seed: SeedLike,
    max_rounds: int | None = None,
    p: float | None = None,
    check_connected: bool = True,
    faults=None,
    with_fractions: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """k-token completion times over repetitions; ``inf`` for budget misses.

    Dispatch mirrors :func:`gossip_times`: fault-free ``supports_batch``
    runs use :func:`~repro.gossip.batch.run_multimessage_batch`, the rest
    serial :func:`~repro.gossip.multimessage.simulate_multimessage`.  All
    repetitions share the ``sources`` token placement.
    """
    sources = np.asarray(sources, dtype=np.int64)
    fault_free = faults is None or getattr(faults, "is_null", False)
    with maybe_span("sweep.multimessage_times", label=protocol.name):
        if (
            repetitions >= 1
            and fault_free
            and getattr(protocol, "supports_batch", False)
        ):
            batch = run_multimessage_batch(
                network,
                protocol,
                sources,
                repetitions=repetitions,
                p=p,
                seed=seed,
                max_rounds=max_rounds,
                check_connected=check_connected,
            )
            if with_fractions:
                return batch.completion_rounds, batch.knowledge_fractions
            return batch.completion_rounds
        return _knowledge_times_serial(
            lambda rng: simulate_multimessage(
                network,
                protocol,
                sources,
                p=p,
                seed=rng,
                max_rounds=max_rounds,
                check_connected=check_connected,
                faults=faults,
            ),
            repetitions,
            seed,
            int(sources.size),
            network.n,
            with_fractions,
        )


def scheduler_rounds(
    scheduler_factory,
    graphs,
    source: int = 0,
) -> np.ndarray:
    """Schedule lengths of ``scheduler_factory()`` across a list of graphs."""
    out = np.empty(len(graphs), dtype=float)
    for i, adj in enumerate(graphs):
        schedule = scheduler_factory().build(adj, source)
        out[i] = len(schedule)
    return out
