"""TLP growth parity: the shipped path reproduces the dict-of-sets oracle.

The contract of :class:`~repro.core.local.LocalEdgePartitioner` is
bit-for-bit equality with :mod:`tests.core.tlp_oracle` under a fixed seed
— same edge lists in the same order, same replication factor, same
telemetry stream.  These tests pin that across dataset stand-ins, stage
policies, capacity modes and reseed modes, once on the default path (the
compiled kernel when a toolchain exists) and once with the kernel switched
off by ``REPRO_NO_NATIVE=1`` (the numpy ``CSRPartitionState`` path).
TLP-W never uses the kernel; its array mirror is pinned against the
oracle growing in the dict buffer directly.
"""

from __future__ import annotations

import pytest

from repro._native import load_kernel
from repro.core.local import LocalEdgePartitioner
from repro.core.native_grow import NativeRunner
from repro.core.stages import EdgeCountStagePolicy, ModularityStagePolicy
from repro.core.windowed import WindowedLocalPartitioner
from repro.datasets.synthetic import load_dataset
from repro.partitioning.metrics import replication_factor
from tests.core.tlp_oracle import OracleLocalPartitioner, OracleWindowedPartitioner

P = 6

POLICIES = {
    "modularity": ModularityStagePolicy,
    "ratio": lambda: EdgeCountStagePolicy(0.4),
}


@pytest.fixture(scope="module", params=["G1", "G4", "G9"])
def standin(request):
    """Small dataset stand-ins spanning the paper's graph families."""
    return load_dataset(request.param, bench=True)


def _summary(partitioner, partition, graph):
    telemetry = partitioner.last_telemetry
    return {
        "edges": [partition.edges_of(i) for i in range(P)],
        "rf": replication_factor(partition, graph),
        "records": [
            (r.partition, r.stage, r.vertex, r.degree, r.allocated)
            for r in telemetry.records
        ],
        "reseeds": telemetry.reseeds,
        "peak": telemetry.peak_local_state,
    }


def _run(graph, cls, policy, strict, reseed, seed=0):
    partitioner = cls(
        POLICIES[policy](),
        seed=seed,
        strict_capacity=strict,
        reseed_on_break=reseed,
    )
    return _summary(partitioner, partitioner.partition(graph, P), graph)


@pytest.fixture(scope="module")
def oracle(standin):
    """The oracle run of a matrix cell on ``standin``, computed once."""
    cache = {}

    def run(policy, strict, reseed):
        key = (policy, strict, reseed)
        if key not in cache:
            cache[key] = _run(standin, OracleLocalPartitioner, policy, strict, reseed)
        return cache[key]

    return run


@pytest.fixture
def grow_round_calls(monkeypatch):
    """Count kernel rounds: a spy on :meth:`NativeRunner.grow_round`."""
    calls = []
    real = NativeRunner.grow_round

    def spy(self, *args, **kwargs):
        calls.append(args[1])
        return real(self, *args, **kwargs)

    monkeypatch.setattr(NativeRunner, "grow_round", spy)
    return calls


class TestBackendParity:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("reseed", [True, False])
    def test_csr_matches_reference(self, standin, oracle, policy, strict, reseed):
        """Default path (kernel when it builds) against the oracle."""
        got = _run(standin, LocalEdgePartitioner, policy, strict, reseed)
        assert got == oracle(policy, strict, reseed)

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_numpy_path_matches_reference(self, standin, oracle, policy, monkeypatch):
        """The whole strict x reseed matrix with the kernel switched off."""
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        for strict in (True, False):
            for reseed in (True, False):
                got = _run(standin, LocalEdgePartitioner, policy, strict, reseed)
                assert got == oracle(policy, strict, reseed), (
                    f"strict={strict} reseed={reseed}"
                )

    def test_native_path_matches_reference(self, standin, oracle, grow_round_calls):
        if load_kernel() is None:
            pytest.skip("kernel unavailable: no C toolchain, or REPRO_NO_NATIVE set")
        got = _run(standin, LocalEdgePartitioner, "modularity", True, True)
        assert grow_round_calls == list(range(P))
        assert got == oracle("modularity", True, True)

    def test_unknown_backend_rejected(self):
        """The ``backend=`` option is gone; passing it is an error."""
        with pytest.raises(TypeError, match="backend"):
            LocalEdgePartitioner(ModularityStagePolicy(), backend="csr")


class TestKernelDispatch:
    def test_kernel_path_taken_when_available(self, standin, grow_round_calls):
        _run(standin, LocalEdgePartitioner, "ratio", True, True)
        expected = list(range(P)) if load_kernel() is not None else []
        assert grow_round_calls == expected

    def test_no_native_skips_kernel(self, standin, grow_round_calls, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        assert load_kernel() is None
        _run(standin, LocalEdgePartitioner, "modularity", True, True)
        assert grow_round_calls == []


class TestWindowedBackendParity:
    @pytest.mark.parametrize("window_divisor", [1, 3])
    def test_windowed_csr_matches_reference(self, standin, window_divisor):
        window = max(
            standin.num_edges // window_divisor, standin.num_edges // P + 1
        )
        results = {}
        for cls in (OracleWindowedPartitioner, WindowedLocalPartitioner):
            partitioner = cls(window_size=window, seed=0)
            partition = partitioner.partition(standin, P)
            results[cls] = _summary(partitioner, partition, standin)
        assert results[WindowedLocalPartitioner] == results[OracleWindowedPartitioner]

    def test_windowed_rejects_unknown_backend(self):
        """The ``backend=`` option is gone; passing it is an error."""
        with pytest.raises(TypeError, match="backend"):
            WindowedLocalPartitioner(window_size=100, backend="csr")
