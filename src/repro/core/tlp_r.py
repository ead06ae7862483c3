"""TLP_R — the edge-count stage-division ablation (Section IV-C).

Identical machinery to TLP, but the stage boundary is the *fraction of the
capacity already filled* rather than the modularity test:

    Stage I  while |E(P_k)| <  R * C
    Stage II while |E(P_k)| >= R * C

``R = 0`` degenerates to pure Stage II and ``R = 1`` to pure Stage I — the
one-stage heuristics the paper shows are the *worst* settings, which is the
evidence that two stages help (Figs. 9-11).
"""

from __future__ import annotations

from repro.core.local import LocalEdgePartitioner
from repro.core.stages import EdgeCountStagePolicy
from repro.utils.rng import Seed


class TLPRPartitioner(LocalEdgePartitioner):
    """TLP with the edge-count two-stage division at ratio ``R``."""

    name = "TLP_R"

    def __init__(
        self,
        ratio: float,
        seed: Seed = None,
        slack: float = 1.0,
        strict_capacity: bool = True,
        reseed_on_break: bool = True,
        similarity_scope: str = "residual",
        seed_strategy: str = "random",
    ) -> None:
        super().__init__(
            EdgeCountStagePolicy(ratio),
            seed=seed,
            slack=slack,
            strict_capacity=strict_capacity,
            reseed_on_break=reseed_on_break,
            similarity_scope=similarity_scope,
            seed_strategy=seed_strategy,
        )
        self.ratio = ratio
        self.name = f"TLP_R(R={ratio:g})"
