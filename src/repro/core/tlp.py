"""TLP — the paper's Two-stage Local Partitioning algorithm.

:class:`TLPPartitioner` is :class:`~repro.core.local.LocalEdgePartitioner`
with the modularity stage rule of Table II: Stage I (Eq. 7-8, pick the close
high-degree vertex) while ``M(P_k) <= 1``, Stage II (Eq. 9-11, pick the
vertex maximising the modularity gain) once the partition is compact.
"""

from __future__ import annotations

from repro.core.local import LocalEdgePartitioner
from repro.core.stages import FixedStagePolicy, ModularityStagePolicy
from repro.utils.rng import Seed


class TLPPartitioner(LocalEdgePartitioner):
    """Two-stage local partitioning (the paper's proposed algorithm)."""

    name = "TLP"

    def __init__(
        self,
        seed: Seed = None,
        slack: float = 1.0,
        strict_capacity: bool = True,
        reseed_on_break: bool = True,
        similarity_scope: str = "residual",
        seed_strategy: str = "random",
    ) -> None:
        super().__init__(
            ModularityStagePolicy(),
            seed=seed,
            slack=slack,
            strict_capacity=strict_capacity,
            reseed_on_break=reseed_on_break,
            similarity_scope=similarity_scope,
            seed_strategy=seed_strategy,
        )


class StageOneOnlyPartitioner(LocalEdgePartitioner):
    """Pure Stage-I local partitioning (equivalent to TLP_R with R = 1)."""

    name = "TLP-S1"

    def __init__(self, seed: Seed = None, **kwargs) -> None:
        super().__init__(FixedStagePolicy(1), seed=seed, **kwargs)


class StageTwoOnlyPartitioner(LocalEdgePartitioner):
    """Pure Stage-II local partitioning (equivalent to TLP_R with R = 0)."""

    name = "TLP-S2"

    def __init__(self, seed: Seed = None, **kwargs) -> None:
        super().__init__(FixedStagePolicy(2), seed=seed, **kwargs)
