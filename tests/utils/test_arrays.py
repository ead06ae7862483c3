"""Unit tests for the id-array helpers."""

import numpy as np

from repro.utils.arrays import distinct


def test_distinct_sorts_and_flattens():
    values = np.array([[5, -1], [5, 3], [-1, 9]], dtype=np.int64)
    assert distinct(values).tolist() == [-1, 3, 5, 9]
    assert distinct(np.empty((0, 2), dtype=np.int64)).tolist() == []

