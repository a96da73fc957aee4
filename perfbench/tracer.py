"""Layer spans recorded from outside the program.

The traced runs wrap the public entry point of each layer (see
``NOTES.md`` for the table) in a span: name, start, end, the enclosing
span on the same thread, and a tag that joins the span to a benchmark
op.  Spans stay in memory and are written out once, when the run ends.
Nothing here changes what the wrapped functions compute.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span recorder plus the monkeypatches that feed it."""

    def __init__(self) -> None:
        # Each record is [name, t0, t1, parent record | None, tag, note].
        self.records: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, tag=None):
        """A span around a block of the benchmark's own code."""
        stack = self._stack()
        record = [name, 0.0, 0.0, stack[-1] if stack else None, tag, None]
        stack.append(record)
        record[1] = perf_counter()
        try:
            yield record
        finally:
            record[2] = perf_counter()
            stack.pop()
            self.records.append(record)

    def wrap(self, owner, attr: str, name: str, *, tag=None, note=None,
             context=None) -> None:
        """Replace ``owner.attr`` by a spanned call of the original.

        ``tag(*args, **kwargs)`` labels the span from the call's
        arguments; ``note(result)`` records something about its result;
        ``context()`` returns a context manager entered around the call.
        """
        original = getattr(owner, attr)
        stack_of = self._stack
        records = self.records

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stack_of()
            record = [
                name,
                0.0,
                0.0,
                stack[-1] if stack else None,
                tag(*args, **kwargs) if tag is not None else None,
                None,
            ]
            stack.append(record)
            record[1] = perf_counter()
            try:
                if context is None:
                    out = original(*args, **kwargs)
                else:
                    with context():
                        out = original(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                records.append(record)
            if note is not None:
                record[5] = note(out)
            return out

        own = attr in getattr(owner, "__dict__", {})
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def export(self) -> list[dict]:
        """The recorded spans as plain dicts with ``parent`` indices."""
        index = {id(record): i for i, record in enumerate(self.records)}
        return [
            {
                "name": name,
                "t0": t0,
                "t1": t1,
                "parent": None if parent is None else index[id(parent)],
                "tag": tag,
                "note": note,
            }
            for name, t0, t1, parent, tag, note in self.records
        ]


def install_layers(tracer: Tracer, registry) -> None:
    """Wrap the entry point of every simulation layer the workloads reach.

    ``bfs_distances`` and the other functions bound by ``from … import``
    are wrapped at each module that calls them, since patching the
    defining module would not reach those call sites.

    Batched count calls run under an observer of their own that feeds
    ``registry``, so the backend's public ``kernel.batch_calls`` series
    (labelled with the scatter or matmul path it chose) is counted there.
    The observer is ambient for the kernel call only: the engines around
    it see no observer and keep their untraced fast path.
    """
    import repro.api as api
    import repro.graphs.properties as properties
    import repro.radio.dynamics as dynamics
    import repro.radio.engine as engine
    import repro.experiments.runner as runner
    from repro.broadcast.distributed import EGRandomizedProtocol
    from repro.graphs.adjacency import Adjacency
    from repro.obs import Observer, use_observer
    from repro.radio.model import RadioNetwork
    from repro.radio.trace import BroadcastTrace

    kernel_obs = Observer(registry)
    tracer.wrap(
        Adjacency, "neighbor_counts_batch", "backends.count",
        context=lambda: use_observer(kernel_obs),
    )
    tracer.wrap(Adjacency, "neighbor_counts", "backends.count")
    tracer.wrap(EGRandomizedProtocol, "transmit_mask_batch", "radio.mask")
    tracer.wrap(EGRandomizedProtocol, "transmit_mask", "radio.mask")
    tracer.wrap(RadioNetwork, "step_batch", "radio.step")
    tracer.wrap(RadioNetwork, "step", "radio.step")
    tracer.wrap(
        runner, "run_broadcast_batch", "radio.engine",
        note=lambda result: result.num_rounds,
    )
    tracer.wrap(api, "run_dissemination", "radio.dynamics")
    tracer.wrap(api, "gnp_connected", "graphs.sample")
    for module in (properties, engine, dynamics):
        tracer.wrap(module, "bfs_distances", "graphs.bfs")
    tracer.wrap(BroadcastTrace, "to_dict", "schema.encode")


def install_serve(tracer: Tracer) -> None:
    """Wrap the job server's admission, execution, journal and cache.

    Spans on the event-loop thread hang under ``serve.submit``; the
    execution thread's spans are tagged with the job's content address,
    which the submit span maps to the job id.
    """
    import repro.serve.runner as runner
    from repro.serve.cache import ResultCache
    from repro.serve.journal import JobJournal

    def job_of(job):
        return {"job": job.id, "key": job.key, "cache": job.cache}

    tracer.wrap(runner.JobManager, "submit", "serve.submit", note=job_of)
    tracer.wrap(
        runner, "execute_spec", "serve.execute",
        tag=lambda spec: spec.cache_key(),
    )
    key_arg = lambda self, key, *rest, **kw: key  # noqa: E731
    tracer.wrap(JobJournal, "record_submit", "serve.journal", tag=key_arg)
    tracer.wrap(JobJournal, "record_terminal", "serve.journal", tag=key_arg)
    tracer.wrap(ResultCache, "put", "serve.cache_put", tag=key_arg)
    tracer.wrap(
        ResultCache, "get", "serve.cache_get", tag=key_arg,
        note=lambda result: result is not None,
    )
