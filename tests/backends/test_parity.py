"""Cross-backend parity: every backend returns identical integer counts.

This is the determinism contract that makes the backend choice a pure
throughput knob — trajectories are functions of the counts, so equal
counts mean equal traces, digests and tables on every backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import NumpyBackend, available_backend_names, get_backend, use_backend
from repro.backends import numpy_backend as numpy_backend_module
from repro.graphs import Adjacency, gnp
from repro.obs import MetricsRegistry, Observer, use_observer


def _reference_counts(adj, masks):
    """Per-column serial matvec: the slow, obviously-correct kernel."""
    dense = masks.astype(np.int64)
    return np.stack(
        [adj.matrix().dot(np.ascontiguousarray(dense[:, j])) for j in range(masks.shape[1])],
        axis=1,
    )


def _mask_grid(adj, rng):
    """Masks covering both crossover sides and both memory layouts."""
    n = adj.n
    for density in (0.0, 0.02, 0.5, 1.0):
        masks = rng.random((n, 8)) < density
        yield masks  # C-order (n, R)
        yield np.ascontiguousarray(masks.T).T  # trial-major view


@pytest.mark.parametrize("name", available_backend_names())
class TestBackendParity:
    def test_batch_matches_reference(self, name, rng):
        adj = gnp(120, 0.08, seed=5)
        with use_backend(name):
            backend = get_backend()
            for masks in _mask_grid(adj, rng):
                counts = backend.neighbor_counts_batch(adj, masks)
                assert counts.dtype == np.int64
                assert np.array_equal(counts, _reference_counts(adj, masks))

    def test_serial_matches_reference(self, name, rng):
        adj = gnp(90, 0.1, seed=6)
        mask = rng.random(adj.n) < 0.3
        with use_backend(name):
            counts = get_backend().neighbor_counts(adj, mask)
        assert np.array_equal(counts, adj.matrix().dot(mask.astype(np.int64)))

    def test_adjacency_dispatches_through_backend(self, name, rng):
        adj = gnp(60, 0.15, seed=7)
        masks = rng.random((adj.n, 4)) < 0.2
        baseline = adj.neighbor_counts_batch(masks)
        with use_backend(name):
            assert np.array_equal(adj.neighbor_counts_batch(masks), baseline)

    def test_batch_emits_kernel_metrics(self, name, rng):
        adj = gnp(50, 0.2, seed=8)
        masks = rng.random((adj.n, 4)) < 0.2
        registry = MetricsRegistry()
        with use_backend(name), use_observer(Observer(registry, None)):
            adj.neighbor_counts_batch(masks)
        calls = {
            key: value
            for key, value in registry.counters().items()
            if key[0] == "kernel.batch_calls"
        }
        assert sum(calls.values()) == 1
        (label,) = [label for (_, label) in calls]
        assert label.startswith(f"{name}:")
        hist = registry.histogram("kernel.batch_wall_s", label=name)
        assert hist is not None and hist.count == 1


crossover_scenario = st.tuples(
    st.integers(min_value=2, max_value=40),  # n
    st.floats(min_value=0.0, max_value=0.6),  # p
    st.integers(min_value=0, max_value=10_000),  # graph seed
    st.integers(min_value=0, max_value=10_000),  # mask seed
    st.floats(min_value=0.0, max_value=1.0),  # transmit density
    st.integers(min_value=1, max_value=9),  # repetitions
    st.booleans(),  # trial-major layout (the batch engine's transposes)
)


class TestCrossoverEquivalence:
    """Scatter and matmul are interchangeable: forcing either side of
    the crossover yields exactly equal counts on arbitrary inputs."""

    @given(crossover_scenario)
    @settings(max_examples=80, deadline=None)
    def test_both_paths_exactly_equal(self, params):
        n, p, gseed, mseed, density, reps, trial_major = params
        adj = gnp(n, p, seed=gseed)
        masks = np.random.default_rng(mseed).random((n, reps)) < density
        if trial_major:
            masks = np.ascontiguousarray(masks.T).T

        # The crossover picks matmul when work * scatter_cost >= nnz * R,
        # so a huge cost forces matmul and a zero cost forces scatter
        # (whenever there is any work / any structure to compare).
        always_matmul = NumpyBackend()
        always_matmul._scatter_cost = 1e18
        always_scatter = NumpyBackend()
        always_scatter._scatter_cost = 0.0

        via_matmul = always_matmul.neighbor_counts_batch(adj, masks)
        via_scatter = always_scatter.neighbor_counts_batch(adj, masks)
        assert via_matmul.dtype == via_scatter.dtype == np.int64
        assert np.array_equal(via_matmul, via_scatter)
        # Each path hands counts back in the input's orientation.
        for counts in (via_matmul, via_scatter):
            oriented = counts.T if trial_major else counts
            assert oriented.flags.c_contiguous
        work = int(adj.degrees[masks.any(axis=1)].sum())
        if work:
            assert always_matmul._last_path == "matmul"
        if adj.indices.size:
            assert always_scatter._last_path == "scatter"


class TestMatmulBuffer:
    def test_dense_buffer_reused_across_rounds(self, rng):
        adj = gnp(80, 0.2, seed=9)
        backend = NumpyBackend()
        backend._scatter_cost = 1e18  # force the matmul path
        masks = rng.random((adj.n, 6)) < 0.5
        assert adj._dense_buf is None
        first = backend.neighbor_counts_batch(adj, masks)
        buf = adj._dense_buf
        assert buf is not None and buf.size >= masks.size
        second = backend.neighbor_counts_batch(adj, masks)
        assert adj._dense_buf is buf  # no per-round reallocation
        assert np.array_equal(first, second)

    def test_conforming_input_skips_the_buffer(self, rng):
        adj = gnp(40, 0.3, seed=10)
        backend = NumpyBackend()
        backend._scatter_cost = 1e18
        dense = np.ascontiguousarray(
            (rng.random((adj.n, 3)) < 0.5).astype(np.int64)
        )
        counts = backend.neighbor_counts_batch(adj, dense)
        assert adj._dense_buf is None
        assert np.array_equal(counts, _reference_counts(adj, dense != 0))


class TestNarrowCountMatrix:
    """The matmul path counts in the narrowest dtype that holds the
    maximum degree, so the width must follow the graph."""

    @pytest.mark.parametrize(
        ("max_degree", "dtype"),
        [(0, np.int16), (32767, np.int16), (32768, np.int32),
         (2**31 - 1, np.int32), (2**31, np.int64)],
    )
    def test_count_dtype_holds_the_maximum_degree(self, max_degree, dtype):
        assert numpy_backend_module._count_dtype(max_degree) == dtype

    @pytest.mark.parametrize("trial_major", [False, True])
    def test_hub_over_int16_counts_exactly(self, trial_major):
        leaves = np.iinfo(np.int16).max + 2
        star = Adjacency.from_edges(
            leaves + 1, np.column_stack([np.zeros(leaves, np.int64),
                                         np.arange(1, leaves + 1)])
        )
        masks = np.zeros((star.n, 2), dtype=bool)
        masks[1:, 0] = True  # every leaf transmits: the hub hears them all
        masks[0, 1] = True  # the hub transmits: every leaf hears it once
        if trial_major:
            masks = np.ascontiguousarray(masks.T).T
        backend = NumpyBackend()
        backend._scatter_cost = 1e18  # force the matmul path
        counts = backend.neighbor_counts_batch(star, masks)
        assert backend._last_path == "matmul"
        assert star._count_matrix.dtype.itemsize > np.dtype(np.int16).itemsize
        assert counts.dtype == np.int64
        assert counts[0, 0] == leaves
        assert np.array_equal(counts, _reference_counts(star, masks))


class TestCalibration:
    @pytest.fixture(autouse=True)
    def _isolated_cache_dir(self, tmp_path, monkeypatch):
        # Keep the persisted-calibration cache out of the real home.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))

    def test_calibrate_is_one_shot(self):
        backend = NumpyBackend()
        first = backend.calibrate()
        lo, hi = numpy_backend_module._SCATTER_COST_BOUNDS
        assert lo <= first <= hi
        assert backend.calibrate() == first  # cached, not re-measured
        assert backend.scatter_cost == first

    def test_env_override_skips_measurement(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCATTER_COST", "4")
        backend = NumpyBackend()
        assert backend.calibrate() == 4.0

    def test_env_override_is_clamped(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCATTER_COST", "1e9")
        assert NumpyBackend().calibrate() == numpy_backend_module._SCATTER_COST_BOUNDS[1]

    def test_env_override_bad_value_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCATTER_COST", "not-a-float")
        backend = NumpyBackend()
        assert backend.calibrate() == numpy_backend_module._DEFAULT_SCATTER_COST

    def test_measurement_is_persisted_and_reloaded(self, tmp_path, monkeypatch):
        import json

        cache_dir = tmp_path / "repro-cache"
        first = NumpyBackend().calibrate()
        payload = json.loads((cache_dir / "scatter_cost.json").read_text())
        assert payload == {
            "numpy": np.__version__,
            "kernel_revision": numpy_backend_module._KERNEL_REVISION,
            "scatter_cost": first,
        }
        # A fresh process (instance) reuses the persisted value without
        # measuring — the probe is rigged to blow up if consulted.
        monkeypatch.setattr(
            NumpyBackend,
            "_measure_scatter_cost",
            lambda self: pytest.fail("re-measured despite a valid cache"),
        )
        assert NumpyBackend().calibrate() == first

    def test_numpy_version_mismatch_invalidates(self, tmp_path, monkeypatch):
        import json

        cache_dir = tmp_path / "repro-cache"
        cache_dir.mkdir(parents=True)
        (cache_dir / "scatter_cost.json").write_text(
            json.dumps({"numpy": "0.0.0", "scatter_cost": 9.0})
        )
        monkeypatch.setattr(
            NumpyBackend, "_measure_scatter_cost", lambda self: 5.0
        )
        assert NumpyBackend().calibrate() == 5.0
        # The stale entry was refreshed under the current version.
        payload = json.loads((cache_dir / "scatter_cost.json").read_text())
        assert payload == {
            "numpy": np.__version__,
            "kernel_revision": numpy_backend_module._KERNEL_REVISION,
            "scatter_cost": 5.0,
        }

    @pytest.mark.parametrize(
        "entry",
        [
            {"scatter_cost": 24.1},  # written before revisions were recorded
            {"kernel_revision": -1, "scatter_cost": 24.1},
        ],
        ids=["unrevisioned", "older-revision"],
    )
    def test_kernel_revision_mismatch_invalidates(self, tmp_path, monkeypatch, entry):
        import json

        cache_dir = tmp_path / "repro-cache"
        cache_dir.mkdir(parents=True)
        (cache_dir / "scatter_cost.json").write_text(
            json.dumps({"numpy": np.__version__, **entry})
        )
        monkeypatch.setattr(
            NumpyBackend, "_measure_scatter_cost", lambda self: 90.0
        )
        assert NumpyBackend().calibrate() == 90.0
        payload = json.loads((cache_dir / "scatter_cost.json").read_text())
        assert payload["kernel_revision"] == numpy_backend_module._KERNEL_REVISION
        assert payload["scatter_cost"] == 90.0

    @pytest.mark.parametrize(
        "content",
        [
            "{torn",  # crash mid-write
            '["not", "a", "dict"]',
            '{"numpy": null}',  # version mismatch
            '{"numpy": "%s", "scatter_cost": true}',  # bool is not a cost
            '{"numpy": "%s", "kernel_revision": %d, "scatter_cost": true}',
        ],
    )
    def test_corrupt_cache_entries_remeasure(
        self, tmp_path, monkeypatch, content
    ):
        cache_dir = tmp_path / "repro-cache"
        cache_dir.mkdir(parents=True)
        if "%d" in content:
            content = content % (np.__version__, numpy_backend_module._KERNEL_REVISION)
        elif "%s" in content:
            content = content % np.__version__
        (cache_dir / "scatter_cost.json").write_text(content)
        monkeypatch.setattr(
            NumpyBackend, "_measure_scatter_cost", lambda self: 6.0
        )
        assert NumpyBackend().calibrate() == 6.0

    def test_persisted_value_is_clamped(self, tmp_path):
        import json

        cache_dir = tmp_path / "repro-cache"
        cache_dir.mkdir(parents=True)
        (cache_dir / "scatter_cost.json").write_text(
            json.dumps({
                "numpy": np.__version__,
                "kernel_revision": numpy_backend_module._KERNEL_REVISION,
                "scatter_cost": 1e9,
            })
        )
        _lo, hi = numpy_backend_module._SCATTER_COST_BOUNDS
        assert NumpyBackend().calibrate() == hi

    def test_force_refreshes_the_persisted_entry(self, tmp_path, monkeypatch):
        import json

        cache_dir = tmp_path / "repro-cache"
        cache_dir.mkdir(parents=True)
        (cache_dir / "scatter_cost.json").write_text(
            json.dumps({"numpy": np.__version__, "scatter_cost": 9.0})
        )
        monkeypatch.setattr(
            NumpyBackend, "_measure_scatter_cost", lambda self: 3.0
        )
        assert NumpyBackend().calibrate(force=True) == 3.0
        payload = json.loads((cache_dir / "scatter_cost.json").read_text())
        assert payload["scatter_cost"] == 3.0

    def test_unwritable_cache_dir_is_tolerated(self, tmp_path, monkeypatch):
        # Point the cache "directory" at a file: mkdir fails, the write
        # is skipped, calibration still returns its measurement.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker))
        monkeypatch.setattr(
            NumpyBackend, "_measure_scatter_cost", lambda self: 2.0
        )
        assert NumpyBackend().calibrate() == 2.0

    def test_calibration_does_not_change_counts(self, rng):
        adj = gnp(70, 0.15, seed=11)
        masks = rng.random((adj.n, 5)) < 0.1
        cheap, dear = NumpyBackend(), NumpyBackend()
        cheap._scatter_cost = 1.0
        dear._scatter_cost = 32.0
        assert np.array_equal(
            cheap.neighbor_counts_batch(adj, masks),
            dear.neighbor_counts_batch(adj, masks),
        )
