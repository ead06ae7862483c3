"""Shared utilities: seeded randomness and argument validation."""

from repro.utils.rng import SeedSequence, make_rng, spawn_rng
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "SeedSequence",
    "make_rng",
    "spawn_rng",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
]
