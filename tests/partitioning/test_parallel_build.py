"""Determinism of the thread-pool build paths.

Parallel ``save_partition`` / ``build_partition_csr`` must be
*byte-identical* to the sequential path — the thread pool is a pure
latency optimisation, never a semantic one.  Growth jobs run on threads
must equal their solo runs too: the compiled kernel drops the GIL, so
concurrent ``partition()`` calls really overlap.  The
bundle checks hash every file (edge lists, sidecar, manifest) so even a
reordered manifest entry or a torn sidecar array would fail.
"""

import hashlib
import threading

import numpy as np
import pytest

from repro.core.parallel import parallel_map, resolve_workers
from repro.core.stages import ModularityStagePolicy
from repro.core.tlp import TLPPartitioner
from repro.partitioning.csr_bundle import build_partition_csr
from repro.partitioning.serialization import load_partition, save_partition
from tests.core.tlp_oracle import OracleLocalPartitioner

P = 4


@pytest.fixture(scope="module")
def graph():
    from repro.graph.generators import holme_kim

    return holme_kim(300, 4, 0.6, seed=7)


@pytest.fixture(scope="module")
def partition(graph):
    return TLPPartitioner(seed=0).partition(graph, P)


def _digests(directory):
    """sha256 of every file in a bundle directory, keyed by name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


class TestParallelMap:
    def test_order_is_input_order(self):
        barrier = threading.Barrier(4, timeout=5)

        def slow_first(x):
            barrier.wait()  # all four run concurrently; completion races
            return x * x

        assert parallel_map(slow_first, [3, 1, 2, 0], workers=4) == [9, 1, 4, 0]

    def test_sequential_when_one_worker(self):
        thread_names = set()

        def spy(x):
            thread_names.add(threading.current_thread().name)
            return x

        parallel_map(spy, [1, 2, 3], workers=1)
        assert thread_names == {threading.main_thread().name}

    def test_exception_propagates(self):
        def boom(x):
            if x == 2:
                raise RuntimeError("job 2 failed")
            return x

        with pytest.raises(RuntimeError, match="job 2 failed"):
            parallel_map(boom, [1, 2, 3], workers=2)

    def test_resolve_workers_bounds(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(10**6) == 32
        assert resolve_workers(None) >= 1


class TestParallelSave:
    def test_bundle_bytes_identical(self, partition, tmp_path):
        save_partition(partition, tmp_path / "seq", workers=1)
        save_partition(partition, tmp_path / "par", workers=4)
        assert _digests(tmp_path / "seq") == _digests(tmp_path / "par")

    def test_compressed_bundle_identical_and_loads(self, partition, tmp_path):
        save_partition(partition, tmp_path / "seq", compress=True, workers=1)
        save_partition(partition, tmp_path / "par", compress=True, workers=4)
        assert _digests(tmp_path / "seq") == _digests(tmp_path / "par")
        loaded = load_partition(tmp_path / "par")
        assert [sorted(loaded.edges_of(k)) for k in range(P)] == [
            sorted(partition.edges_of(k)) for k in range(P)
        ]

    def test_csr_arrays_identical(self, partition):
        seq = build_partition_csr(partition, workers=1)
        par = build_partition_csr(partition, workers=4)
        assert np.array_equal(seq.vertex_ids, par.vertex_ids)
        assert np.array_equal(seq.master, par.master)
        assert np.array_equal(seq.rep_indptr, par.rep_indptr)
        assert np.array_equal(seq.rep_parts, par.rep_parts)
        for (si, sp, sx), (pi, pp, px) in zip(seq.parts, par.parts):
            assert np.array_equal(si, pi)
            assert np.array_equal(sp, pp)
            assert np.array_equal(sx, px)


def _grow(job):
    partitioner, graph = job
    return partitioner.partition(graph, P)


class TestParallelGrowth:
    def test_threaded_jobs_match_sequential(self, graph):
        jobs = [(TLPPartitioner(seed=s), graph) for s in (0, 1)]
        threaded = parallel_map(_grow, jobs, workers=2)
        # Recompute each job alone and compare edge lists exactly.
        for seed, result in zip((0, 1), threaded):
            alone = TLPPartitioner(seed=seed).partition(graph, P)
            assert [result.edges_of(k) for k in range(P)] == [
                alone.edges_of(k) for k in range(P)
            ]

    def test_mixed_backends_agree_under_threads(self, graph):
        """The shipped path and the dict-of-sets oracle, side by side."""
        jobs = [
            (TLPPartitioner(seed=3), graph),
            (OracleLocalPartitioner(ModularityStagePolicy(), seed=3), graph),
        ]
        csr, ref = parallel_map(_grow, jobs, workers=2)
        assert [csr.edges_of(k) for k in range(P)] == [
            ref.edges_of(k) for k in range(P)
        ]
