"""Stage-division policies.

TLP's defining idea is that each partition's growth has two phases with
different optimal heuristics; *when* to switch is the policy:

* :class:`ModularityStagePolicy` — the paper's TLP rule (Table II): Stage I
  while ``M(P_k) <= 1``, Stage II afterwards.  Modularity can dip back below
  1, in which case the policy returns to Stage I, exactly as Algorithm 1's
  per-iteration test implies.
* :class:`EdgeCountStagePolicy` — the TLP_R ablation (Table V): Stage I while
  ``|E(P_k)| < R * C``.  ``R = 0`` is pure Stage II, ``R = 1`` pure Stage I.
* :class:`FixedStagePolicy` — force a single stage (one-stage ablations).
"""

from __future__ import annotations

import abc

from repro.core.state import CSRPartitionState
from repro.utils.validation import check_probability

STAGE_ONE = 1
STAGE_TWO = 2


class StagePolicy(abc.ABC):
    """Decides which stage the current step of a round belongs to.

    Policies are read-only after construction (``stage()`` must not
    mutate the policy), which makes one instance safe to share between
    growth jobs running concurrently — the native kernel encodes the policy into its own
    per-runner state anyway.  A custom subclass that accumulates state
    across calls must get its own instance per job.
    """

    @abc.abstractmethod
    def stage(self, state: CSRPartitionState, capacity: int) -> int:
        """Return ``STAGE_ONE`` or ``STAGE_TWO`` for the upcoming selection."""

    def describe(self) -> str:
        """Human-readable policy description for reports."""
        return type(self).__name__


class ModularityStagePolicy(StagePolicy):
    """Stage I iff ``M(P_k) <= 1``, i.e. ``|E(P_k)| <= |E_out(P_k)|``."""

    def stage(self, state: CSRPartitionState, capacity: int) -> int:
        return STAGE_ONE if state.internal <= state.external else STAGE_TWO

    def describe(self) -> str:
        return "modularity threshold M<=1 (TLP)"


class EdgeCountStagePolicy(StagePolicy):
    """Stage I iff ``|E(P_k)| < R * C`` (the TLP_R ablation)."""

    def __init__(self, ratio: float) -> None:
        check_probability("ratio", ratio)
        self.ratio = ratio

    def stage(self, state: CSRPartitionState, capacity: int) -> int:
        return STAGE_ONE if state.internal < self.ratio * capacity else STAGE_TWO

    def describe(self) -> str:
        return f"edge-count threshold R={self.ratio:g} (TLP_R)"


class FixedStagePolicy(StagePolicy):
    """Always the same stage — the pure one-stage heuristics."""

    def __init__(self, fixed_stage: int) -> None:
        if fixed_stage not in (STAGE_ONE, STAGE_TWO):
            raise ValueError(f"fixed_stage must be 1 or 2, got {fixed_stage}")
        self.fixed_stage = fixed_stage

    def stage(self, state: CSRPartitionState, capacity: int) -> int:
        return self.fixed_stage

    def describe(self) -> str:
        return f"fixed stage {self.fixed_stage}"
