"""Distinct values of an integer id array, without ``numpy.ma``.

Plain ``np.unique`` (no index, inverse or counts) takes NumPy's hash
path, which imports ``numpy.ma`` on first use: tens of milliseconds in
every short command that calls it.  :func:`distinct` sorts instead.
"""

from __future__ import annotations

import numpy as np


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``values`` (flattened)."""
    values = np.sort(values, axis=None)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]

