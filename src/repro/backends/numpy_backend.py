"""The default pure-NumPy kernel backend: the scatter/matmul hybrid.

This is the code that historically lived inside
:class:`~repro.graphs.adjacency.Adjacency`, extracted verbatim so other
backends can slot in underneath the same dispatch sites.  It must stay
bit-for-bit: the golden-digest suites and the ``jobs=1 ≡ jobs=N ≡
fabric(N)`` byte-identity guarantees all run on this backend by default.

Two execution paths for the batched kernel, chosen by transmission
volume before either runs (the work estimate needs one per-node count
of transmitting trials, not the scatter's gather):

* **scatter** — when few nodes transmit (early rounds, before the
  message has spread), gather the transmitters' CSR rows and accumulate
  one :func:`numpy.bincount` over a flattened ``(R, n)`` index space.
  Work scales with the number of transmitting-node edge endpoints, not
  with ``nnz × R``.
* **matmul** — when transmitters are dense (flood rounds, and the
  ``1/d``-selective rounds of the paper's protocols), one CSR×dense
  product traverses the structure once for all columns.  It multiplies
  a cached CSR copy in the narrowest of int16/int32/int64 that holds
  the graph's maximum degree (a count never exceeds it): int16 on any
  ``G(n, p)`` the experiments run, a quarter of the int64 value bytes
  for the product to stream.  The mask cast goes through a cached
  scratch buffer of that dtype (``_dense_buf``) and the counts are
  widened to int64 on return.  An already-int64, already-C-contiguous
  input skips the cast and uses the int64 matrix.

Both paths return counts in the input's orientation: the batch engine's
trial-major transposes get a trial-major result back, so its
elementwise reception rule stays contiguous.

The crossover is governed by :attr:`NumpyBackend.scatter_cost` — the
estimated cost of one gathered scatter endpoint in units of one matmul
``nnz × R`` cell.  Historically a hard-coded 4; now calibrated once by
:meth:`NumpyBackend.calibrate` (a ~25 ms timing of both paths on a
synthetic circulant graph), overridable with the
``REPRO_SCATTER_COST`` environment variable.  The measured value is
**persisted** to ``~/.cache/repro/scatter_cost.json`` (override the
directory with ``REPRO_CACHE_DIR``) so fresh processes — every serve
worker, every fabric worker — skip the probe; the entry is keyed by
numpy version and kernel revision and re-measured when either changes.
Calibration affects only *which* path runs — both paths return
identical integer counts — so it never perturbs trajectories or
digests.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.sparse as sp

from .base import KernelBackend, register_backend

__all__ = ["NumpyBackend"]

#: Fallback crossover constant (the historical hard-coded value), used
#: when calibration is disabled or fails to produce a sane measurement.
_DEFAULT_SCATTER_COST = 4.0

#: Calibration results are clamped into this range: a pathological
#: timing environment must not be able to force one path forever.
_SCATTER_COST_BOUNDS = (1.0, 256.0)

#: Environment override for the on-disk calibration cache directory.
_CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_CALIBRATION_FILENAME = "scatter_cost.json"

#: Revision of the two timed kernels, recorded with every persisted
#: measurement.  Bump it whenever either path's cost changes shape: a
#: crossover measured against an older kernel would otherwise pin the
#: decision for every later process.  Revision 2 is the narrow-dtype,
#: layout-preserving matmul.
_KERNEL_REVISION = 2


def _calibration_cache_path() -> Path:
    root = os.environ.get(_CACHE_DIR_ENV)
    base = Path(root) if root else Path.home() / ".cache" / "repro"
    return base / _CALIBRATION_FILENAME


def _load_calibration() -> float | None:
    """The persisted crossover, or ``None`` when absent/stale/corrupt.

    An entry written under a different numpy version or kernel
    revision is stale — the relative cost of bincount vs CSR matmat
    shifts across releases and kernel rewrites — and is ignored,
    forcing a fresh measurement.
    """
    try:
        payload = json.loads(_calibration_cache_path().read_text())
    except (OSError, ValueError):
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("numpy") != np.__version__
        or payload.get("kernel_revision") != _KERNEL_REVISION
    ):
        return None
    cost = payload.get("scatter_cost")
    if isinstance(cost, bool) or not isinstance(cost, (int, float)):
        return None
    lo, hi = _SCATTER_COST_BOUNDS
    return min(max(float(cost), lo), hi)


def _store_calibration(cost: float) -> None:
    """Best-effort persist (atomic replace); the cache is an
    optimisation, so an unwritable directory never fails calibration."""
    path = _calibration_cache_path()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".json.tmp")
        payload = {
            "numpy": np.__version__,
            "kernel_revision": _KERNEL_REVISION,
            "scatter_cost": cost,
        }
        tmp.write_text(json.dumps(payload) + "\n")
        tmp.replace(path)
    except OSError:
        pass


def _calibration_graph():
    """A deterministic circulant CSR graph for path timing.

    Built directly in CSR form (no library RNG streams touched): every
    node connects to its 8 nearest neighbours on each side of a ring,
    so degree 16 ≈ the ``2 ln n`` of the G(n, p) workloads the kernels
    actually run on.  n = 4096 keeps both paths long enough to time but
    the whole calibration ~10 ms.
    """
    from ..graphs.adjacency import Adjacency

    n, half = 4096, 8
    offsets = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
    neigh = np.sort((np.arange(n)[:, None] + offsets) % n, axis=1)
    indptr = np.arange(0, n * 2 * half + 1, 2 * half, dtype=np.int64)
    return Adjacency(indptr, neigh.ravel().astype(np.int64), validate=False)


class NumpyBackend(KernelBackend):
    """Scatter/matmul hybrid over scipy CSR — always available."""

    name = "numpy"

    @classmethod
    def probe(cls):
        from .base import BackendProbe

        detail = f"numpy {np.__version__}, scipy CSR matmul (always available)"
        return BackendProbe(cls.name, True, np.__version__, detail)

    def __init__(self) -> None:
        super().__init__()
        self._scatter_cost: float | None = None

    @property
    def scatter_cost(self) -> float:
        """The scatter/matmul crossover constant (calibrating lazily)."""
        if self._scatter_cost is None:
            self.calibrate()
        return self._scatter_cost

    def calibrate(self, *, force: bool = False) -> float:
        """One-shot calibration of :attr:`scatter_cost`.

        ``REPRO_SCATTER_COST`` (a float) skips the measurement; else a
        persisted measurement from a previous process is reused when
        its numpy version and kernel revision still match; else both
        paths are timed on a synthetic graph at a sparse transmitter
        density, the per-unit cost ratio is taken, clamped into
        ``[1, 256]``, and persisted for the next process.
        ``force=True`` re-measures (and refreshes the persisted entry).
        """
        if self._scatter_cost is not None and not force:
            return self._scatter_cost
        env = os.environ.get("REPRO_SCATTER_COST")
        if env:
            try:
                cost = float(env)
            except ValueError:
                cost = _DEFAULT_SCATTER_COST
            lo, hi = _SCATTER_COST_BOUNDS
            self._scatter_cost = min(max(cost, lo), hi)
            return self._scatter_cost
        if not force:
            cached = _load_calibration()
            if cached is not None:
                self._scatter_cost = cached
                return cached
        self._scatter_cost = self._measure_scatter_cost()
        _store_calibration(self._scatter_cost)
        return self._scatter_cost

    def _measure_scatter_cost(self) -> float:
        adj = _calibration_graph()
        n, reps = adj.n, 32
        _count_matrix(adj)  # exclude one-off CSR construction from the timing
        # Measure near the protocols' ~1/d transmit rate (~6% density):
        # the scatter path's fixed per-call overhead (flatnonzero, divmod,
        # cumsum scale with n·R, not with work) would be misattributed
        # to per-endpoint cost at sparse densities.  The masks are laid
        # out as the batch engine sends them: trial-major (R, n) state
        # passed as its transpose.
        rng = np.random.default_rng(0)
        masks = (rng.random((reps, n)) < 0.06).T
        work = int(adj.degrees @ _transmitting_trials(masks))
        cells = adj.indices.size * reps
        if work == 0:  # degenerate draw; keep the historical constant
            return _DEFAULT_SCATTER_COST
        t_scatter = min(
            self._time(lambda: self._scatter(adj, masks)) for _ in range(5)
        )
        t_matmul = min(
            self._time(lambda: self._matmul(adj, masks)) for _ in range(5)
        )
        per_endpoint = t_scatter / work
        per_cell = t_matmul / cells
        if per_cell <= 0.0 or per_endpoint <= 0.0:
            return _DEFAULT_SCATTER_COST
        lo, hi = _SCATTER_COST_BOUNDS
        return min(max(per_endpoint / per_cell, lo), hi)

    @staticmethod
    def _time(fn) -> float:
        t0 = perf_counter()
        fn()
        return perf_counter() - t0

    # -- kernels --------------------------------------------------------

    def _neighbor_counts(self, adj, mask: np.ndarray) -> np.ndarray:
        # The bool→int cast goes through the adjacency's cached scratch
        # buffer, so the hot matvec allocates only its output.
        if adj._mask_buf is None:
            adj._mask_buf = np.empty(adj.n, dtype=np.int64)
        np.copyto(adj._mask_buf, mask, casting="unsafe")
        return adj.matrix().dot(adj._mask_buf)

    def _neighbor_counts_batch(self, adj, masks: np.ndarray) -> np.ndarray:
        # The batch engine keeps trial-major (R, n) state and hands us its
        # transpose; both paths return counts in the input's orientation,
        # so downstream elementwise ops stay contiguous either way.
        _, reps = masks.shape
        # Decide before paying for the scatter's gather: work is the
        # number of edge endpoints the scatter path would gather.
        work = int(adj.degrees @ _transmitting_trials(masks))
        if work * self.scatter_cost >= adj.indices.size * reps:
            self._last_path = "matmul"
            return self._matmul(adj, masks)
        self._last_path = "scatter"
        return self._scatter(adj, masks)

    def _scatter(self, adj, masks: np.ndarray) -> np.ndarray:
        """Sparse-transmitter path: gather rows, one flat ``bincount``.

        Works in whichever orientation is contiguous: a single
        flatnonzero over the contiguous base beats a strided 2-D nonzero
        by ~3x.
        """
        n, reps = masks.shape
        trial_major = _is_trial_major(masks)
        base = masks.T if trial_major else np.ascontiguousarray(masks)
        flat_in = np.flatnonzero(base)
        if trial_major:
            col, node = np.divmod(flat_in, n)
        else:
            node, col = np.divmod(flat_in, reps)
        lengths = adj.degrees[node]
        cumlen = np.cumsum(lengths)
        work = int(cumlen[-1]) if lengths.size else 0
        if adj._gather_arange is None or adj._gather_arange.size < work:
            adj._gather_arange = np.arange(work, dtype=np.int64)
        starts = adj.indptr[node]
        offsets = np.repeat(starts - (cumlen - lengths), lengths)
        neighbours = adj.indices[offsets + adj._gather_arange[:work]]
        if trial_major:
            flat_out = np.repeat(col * np.int64(n), lengths) + neighbours
            counts = np.bincount(flat_out, minlength=n * reps)
            return counts.reshape(reps, n).T
        flat_out = neighbours * np.int64(reps) + np.repeat(col, lengths)
        counts = np.bincount(flat_out, minlength=n * reps)
        return counts.reshape(n, reps)

    def _matmul(self, adj, masks: np.ndarray) -> np.ndarray:
        """Dense-transmitter path: one CSR×dense product for all columns.

        Already-conforming int64 C-contiguous input goes straight through
        the int64 :meth:`~repro.graphs.adjacency.Adjacency.matrix`.  Any
        other input is cast into a cached scratch buffer of the
        adjacency's narrow count dtype (:func:`_count_matrix`) — scipy's
        matmat wants a C-contiguous ``(n, R)`` operand, so the batch
        engine's trial-major transposes are re-laid out in the same
        pass — and multiplied by the narrow CSR copy.  The narrow counts
        are widened to int64 in the input's orientation.
        """
        if masks.dtype == np.int64 and masks.flags.c_contiguous:
            return adj.matrix().dot(masks)
        matrix = _count_matrix(adj)
        need = masks.size
        buf = adj._dense_buf
        if buf is None or buf.size < need:
            buf = adj._dense_buf = np.empty(need, dtype=matrix.dtype)
        dense = buf[:need].reshape(masks.shape)
        np.copyto(dense, masks, casting="unsafe")
        counts = matrix.dot(dense)
        if _is_trial_major(masks):
            out = np.empty(masks.shape[::-1], dtype=np.int64)
            np.copyto(out.T, counts)
            return out.T
        return counts.astype(np.int64)


def _is_trial_major(masks: np.ndarray) -> bool:
    """Whether ``masks`` is the transpose of a C-contiguous ``(R, n)``."""
    return masks.T.flags.c_contiguous and not masks.flags.c_contiguous


def _transmitting_trials(masks: np.ndarray) -> np.ndarray:
    """For every node (row), the number of trials in which it transmits.

    Summing a bool array's bytes into a ``uint16`` accumulator is ~4x
    faster than :func:`numpy.count_nonzero`'s ``intp`` sum, and exact
    while the trial count fits the accumulator.
    """
    if masks.dtype == np.bool_ and masks.shape[1] <= np.iinfo(np.uint16).max:
        return masks.view(np.uint8).sum(axis=1, dtype=np.uint16)
    return np.count_nonzero(masks, axis=1)


def _count_dtype(max_degree: int) -> np.dtype:
    """The narrowest of int16/int32/int64 that holds ``max_degree``.

    A neighbour count never exceeds the node's degree, so counting in
    this dtype is exact; the narrower the operands, the less memory the
    CSR×dense product streams through.
    """
    for dtype in (np.int16, np.int32):
        if max_degree <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _count_matrix(adj):
    """The adjacency's cached CSR copy in its narrow count dtype."""
    if adj._count_matrix is None:
        dtype = _count_dtype(adj.max_degree)
        adj._count_matrix = sp.csr_matrix(
            (np.ones(adj.indices.size, dtype=dtype), adj.indices, adj.indptr),
            shape=(adj.n, adj.n),
        )
    return adj._count_matrix


register_backend(NumpyBackend)
