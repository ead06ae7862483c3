"""Round driver for the compiled TLP kernel.

:class:`NativeRunner` owns the per-round scratch buffers (frontier
arrays, Stage-I snapshot buffer, edge/telemetry outputs), hands them to
``tlp_grow_episode`` via a :class:`~repro._native.GrowState` struct, and
converts the raw index-space outputs back into the id-space edge rows and
:class:`~repro.core.telemetry.StageTelemetry` records the numpy
:class:`~repro.core.state.CSRPartitionState` path produces — bit-for-bit.

Only the stage policies the kernel encodes (modularity, edge-count
ratio, fixed) are supported; :meth:`NativeRunner.try_create` returns
``None`` for anything else and the caller falls back to the numpy path.

A runner is **single-threaded by construction** — it owns one
``GrowState`` and one set of scratch buffers — but *different* runners
are independent, and the ``ctypes`` episode call drops the GIL, so
independent ``partition()`` jobs grow concurrently on real cores, one
job per thread.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Optional, Tuple

import numpy as np

from repro._native import REASON_EMPTY, GrowState
from repro.core.stages import (
    STAGE_ONE,
    EdgeCountStagePolicy,
    FixedStagePolicy,
    ModularityStagePolicy,
    StagePolicy,
)
from repro.core.telemetry import StageTelemetry
from repro.graph.residual_csr import CSRResidual

_I64P = ctypes.POINTER(ctypes.c_int64)
_U8P = ctypes.POINTER(ctypes.c_uint8)
_F64P = ctypes.POINTER(ctypes.c_double)


def _encode_policy(policy: StagePolicy) -> Optional[Tuple[int, float]]:
    """Map a stage policy onto the kernel's enum, or ``None`` if unknown.

    Exact type matches only: a subclass may override ``stage()`` with
    arbitrary logic the kernel cannot reproduce.
    """
    kind = type(policy)
    if kind is ModularityStagePolicy:
        return 0, 0.0
    if kind is EdgeCountStagePolicy:
        return 1, float(policy.ratio)
    if kind is FixedStagePolicy:
        return (2, 0.0) if policy.fixed_stage == STAGE_ONE else (3, 0.0)
    return None


class NativeRunner:
    """Per-``partition()``-call workspace and round loop for the kernel."""

    def __init__(
        self,
        kernel,
        residual: CSRResidual,
        policy_code: int,
        ratio: float,
        similarity_scope: str,
        strict_capacity: bool,
    ) -> None:
        self._kernel = kernel
        self._residual = residual
        n = residual.num_vertices
        num_slots = len(residual.indices)
        num_edges = num_slots // 2
        if n:
            max_deg = int(np.max(np.diff(residual.indptr)))
        else:
            max_deg = 0
        self._static_deg = np.diff(residual.indptr)

        # Scratch buffers, reused across rounds (reset per round).
        self._f_ids = np.empty(n, dtype=np.int64)
        self._f_c = np.empty(n, dtype=np.float64)
        self._f_r = np.empty(n, dtype=np.float64)
        self._f_mu1 = np.empty(n, dtype=np.float64)
        self._f_score = np.empty(n, dtype=np.float64)
        self._f_pos = np.empty(n, dtype=np.int64)
        self._member = np.empty(n, dtype=np.uint8)
        pend_buf_cap = max(4 * max_deg + 64, 65536)
        self._pend_v = np.empty(n + 1, dtype=np.int64)
        self._pend_s = np.empty(n + 1, dtype=np.int64)
        self._pend_e = np.empty(n + 1, dtype=np.int64)
        self._pend_snap = np.empty(pend_buf_cap, dtype=np.int64)
        self._edge_u = np.empty(num_edges + 1, dtype=np.int64)
        self._edge_v = np.empty(num_edges + 1, dtype=np.int64)
        self._sel_idx = np.empty(n + 1, dtype=np.int64)
        self._sel_stage = np.empty(n + 1, dtype=np.int64)
        self._sel_alloc = np.empty(n + 1, dtype=np.int64)
        self._sel_ldeg = np.empty(n + 1, dtype=np.int64)
        self._sel_state = np.empty(n + 1, dtype=np.int64)

        st = GrowState()
        st.n = n
        st.indptr = residual.indptr.ctypes.data_as(_I64P)
        st.indices = residual.indices.ctypes.data_as(_I64P)
        st.twin = residual.twin.ctypes.data_as(_I64P)
        st.alive = residual.alive.ctypes.data_as(_U8P)
        st.live_deg = residual.live_deg.ctypes.data_as(_I64P)
        st.f_ids = self._f_ids.ctypes.data_as(_I64P)
        st.f_c = self._f_c.ctypes.data_as(_F64P)
        st.f_r = self._f_r.ctypes.data_as(_F64P)
        st.f_mu1 = self._f_mu1.ctypes.data_as(_F64P)
        st.f_score = self._f_score.ctypes.data_as(_F64P)
        st.f_pos = self._f_pos.ctypes.data_as(_I64P)
        st.member = self._member.ctypes.data_as(_U8P)
        st.pend_v = self._pend_v.ctypes.data_as(_I64P)
        st.pend_s = self._pend_s.ctypes.data_as(_I64P)
        st.pend_e = self._pend_e.ctypes.data_as(_I64P)
        st.pend_cap = n + 1
        st.pend_snap = self._pend_snap.ctypes.data_as(_I64P)
        st.pend_buf_cap = pend_buf_cap
        st.edge_u = self._edge_u.ctypes.data_as(_I64P)
        st.edge_v = self._edge_v.ctypes.data_as(_I64P)
        st.sel_idx = self._sel_idx.ctypes.data_as(_I64P)
        st.sel_stage = self._sel_stage.ctypes.data_as(_I64P)
        st.sel_alloc = self._sel_alloc.ctypes.data_as(_I64P)
        st.sel_ldeg = self._sel_ldeg.ctypes.data_as(_I64P)
        st.sel_state = self._sel_state.ctypes.data_as(_I64P)
        st.strict = 1 if strict_capacity else 0
        st.policy = policy_code
        st.ratio = ratio
        st.scope_original = 1 if similarity_scope == "original" else 0
        self._st = st

    @classmethod
    def try_create(
        cls,
        kernel,
        residual: CSRResidual,
        stage_policy: StagePolicy,
        similarity_scope: str,
        strict_capacity: bool,
    ) -> Optional["NativeRunner"]:
        """A runner for this configuration, or ``None`` if unsupported."""
        encoded = _encode_policy(stage_policy)
        if encoded is None:
            return None
        code, ratio = encoded
        return cls(
            kernel, residual, code, ratio, similarity_scope, strict_capacity
        )

    # -- one round -----------------------------------------------------------

    def grow_round(
        self,
        capacity: int,
        k: int,
        rng,
        telemetry: StageTelemetry,
        pick_seed: Callable,
        reseed_on_break: bool,
    ) -> np.ndarray:
        """Grow partition ``k``; mirrors ``LocalEdgePartitioner._grow_round``.

        Returns the partition's edges as ``(m_k, 2)`` id rows.
        """
        res = self._residual
        if capacity <= 0 or res.is_exhausted():
            return np.empty((0, 2), dtype=np.int64)
        st = self._st
        self._member[:] = 0
        self._f_pos[:] = -1
        st.f_size = 0
        st.pend_count = 0
        st.pend_len = 0
        st.edge_count = 0
        st.sel_count = 0
        st.internal_ = 0
        st.external_ = 0
        st.capacity = capacity
        st.num_live = res.num_edges
        episode = self._kernel.tlp_grow_episode
        ref = ctypes.byref(st)
        while True:
            seed_idx = res.index_of[pick_seed(res, rng)]
            reason = int(episode(ref, seed_idx))
            res._num_live = int(st.num_live)
            if (
                reason == REASON_EMPTY
                and st.internal_ < capacity
                and reseed_on_break
                and not res.is_exhausted()
            ):
                telemetry.record_reseed()
                continue
            break

        cnt = int(st.sel_count)
        if cnt:
            vidx = self._sel_idx[:cnt]
            telemetry.record_batch(
                k,
                self._sel_stage[:cnt].tolist(),
                res.ids[vidx].tolist(),
                self._static_deg[vidx].tolist(),
                self._sel_alloc[:cnt].tolist(),
            )
            telemetry.record_local_state(int(self._sel_state[:cnt].max()))
        ec = int(st.edge_count)
        return np.column_stack(
            (res.ids[self._edge_u[:ec]], res.ids[self._edge_v[:ec]])
        )
