"""Vectorised frontier bookkeeping for local partition growth.

The frontier ``N(P_k)`` is the set of vertices adjacent to the growing
partition.  For each frontier vertex ``v`` we maintain:

* ``c(v)`` — number of residual edges between ``v`` and ``P_k`` (all of which
  would be allocated if ``v`` were selected),
* ``r(v)`` — residual degree of ``v`` at the moment it entered the frontier
  (constant for the rest of the round: only member-member edges are removed
  mid-round),
* ``mu1(v)`` — the Stage-I score of Eq. 7, maintained incrementally.

All three live in parallel numpy arrays so the per-step argmax (the inner
loop of TLP) is a vectorised scan rather than a Python loop — the naive
formulation is O(L^2 d^2) (paper §III-E); this keeps a selection step at
O(|frontier|) with C-speed constants.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def argmax_with_ties(
    primary: np.ndarray, secondary: np.ndarray, ids: np.ndarray
) -> int:
    """Index of the max of ``primary``; ties by max ``secondary``, min id.

    Fast path: a single ``argmax`` plus one equality count; the full
    tie-break machinery only runs when a genuine tie exists.
    """
    i = int(np.argmax(primary))
    best = primary[i]
    tie_count = int(np.count_nonzero(primary == best))
    if tie_count == 1:
        return i
    candidates = np.nonzero(primary == best)[0]
    sec = secondary[candidates]
    finalists = candidates[sec == sec.max()]
    if len(finalists) == 1:
        return int(finalists[0])
    return int(finalists[np.argmin(ids[finalists])])


class DenseFrontier:
    """Int-indexed frontier over a fixed vertex universe ``0..n-1``.

    Membership is a dense position array (``pos[v] == -1`` when absent),
    so every bookkeeping operation is a vectorised slice — no per-vertex
    hashing.  Compact parallel arrays (``ids``/``c``/``r``/``mu1``) are
    preallocated at full size, swap-and-pop deletion keeps them dense, and
    the per-step argmax scans only the live prefix.  ``ids`` hold dense
    vertex *indices*, whose order matches original-id order by
    construction of :class:`~repro.graph.residual_csr.CSRResidual`, so the
    min-index tie-break is the min-id tie-break.
    """

    __slots__ = ("_ids", "_c", "_r", "_mu1", "_pos", "_size")

    def __init__(self, num_vertices: int) -> None:
        self._ids = np.empty(num_vertices, dtype=np.int64)
        self._c = np.empty(num_vertices, dtype=np.int64)
        self._r = np.empty(num_vertices, dtype=np.int64)
        self._mu1 = np.empty(num_vertices, dtype=np.float64)
        self._pos = np.full(num_vertices, -1, dtype=np.int64)
        self._size = 0

    # -- structure ----------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, v: int) -> bool:
        return self._pos[v] >= 0

    def c_of(self, v: int) -> int:
        """Current ``c(v)``; 0 if ``v`` is not in the frontier."""
        p = self._pos[v]
        return int(self._c[p]) if p >= 0 else 0

    def members(self) -> np.ndarray:
        """The current frontier vertex indices (compact order)."""
        return self._ids[: self._size]

    def touch_and_increment_many(
        self, vs: np.ndarray, live_deg: np.ndarray
    ) -> None:
        """Vectorised ``touch + c += 1`` over distinct vertices ``vs``.

        New entries get ``c = 1`` and ``r`` sampled from ``live_deg`` at
        entry time (``r`` stays fixed for the rest of the round).
        """
        if len(vs) == 0:
            return
        pos = self._pos[vs]
        is_new = pos < 0
        old = pos[~is_new]
        if len(old):
            self._c[old] += 1
        new = vs[is_new]
        k = len(new)
        if k:
            i = self._size
            self._ids[i : i + k] = new
            self._c[i : i + k] = 1
            self._r[i : i + k] = live_deg[new]
            self._mu1[i : i + k] = 0.0
            self._pos[new] = np.arange(i, i + k, dtype=np.int64)
            self._size = i + k

    def raise_mu1_many(self, vs: np.ndarray, values: np.ndarray) -> None:
        """Monotone Stage-I score update for distinct frontier vertices."""
        p = self._pos[vs]
        self._mu1[p] = np.maximum(self._mu1[p], values)

    def remove(self, v: int) -> None:
        """Remove vertex index ``v`` (it became a member) via swap-and-pop."""
        p = int(self._pos[v])
        last = self._size - 1
        if p != last:
            for arr in (self._ids, self._c, self._r, self._mu1):
                arr[p] = arr[last]
            self._pos[self._ids[p]] = p
        self._pos[v] = -1
        self._size = last

    # -- selection ----------------------------------------------------------

    def select_stage1(self) -> Optional[int]:
        """Vertex index maximising ``mu_s1`` (Eq. 8); ties to higher residual degree.

        The degree tie-break implements the paper's stated intent that Stage I
        prefers the *high-degree* close vertex (§III-C discussion of Fig. 6).
        """
        n = self._size
        if n == 0:
            return None
        i = argmax_with_ties(self._mu1[:n], self._r[:n], self._ids[:n])
        return int(self._ids[i])

    def select_stage2(self, internal: int, external: int) -> Optional[int]:
        """Vertex index maximising the modularity gain ``dM`` (Eq. 9-11).

        Maximising ``mu_s2 = 1 - 1/(1 + dM)`` is equivalent to maximising the
        post-move modularity ``M' = (E_in + c) / (E_out + r - 2c)`` because
        ``M`` is fixed within a step.  A non-positive denominator means the
        partition would swallow its whole remaining component (``M' = inf``),
        the best possible move.  Ties go to larger ``c`` (more edges absorbed),
        then smaller index.
        """
        n = self._size
        if n == 0:
            return None
        c = self._c[:n]
        r = self._r[:n]
        num = (internal + c).astype(np.float64)
        den = (external + r - 2 * c).astype(np.float64)
        score = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.inf)
        i = argmax_with_ties(score, c, self._ids[:n])
        return int(self._ids[i])
