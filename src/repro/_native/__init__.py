"""Optional compiled kernel for the package's two sequential hot loops.

One C source (``tlp_kernel.c``) holds both:

* the TLP grow episode (``tlp_grow_episode``), driven by
  :class:`~repro.core.native_grow.NativeRunner` over :class:`GrowState`;
* the out-of-core streaming passes (``oo_count``, ``oo_place``), driven
  by :func:`repro.partitioning.oocore.partition_stream` over
  :class:`StreamState`: count-min and exact degree updates, volume-capped
  label propagation and the pruned HDRF/greedy placement, on arrays over
  one dense vertex index.

The source ships with the package and is compiled lazily, once, with
whatever ``cc``/``gcc`` the host provides — no build step, no new
dependency.  The shared object is cached outside the source tree keyed
by a hash of the source and flags, so editing the kernel invalidates the
cache automatically.  Every failure mode (no compiler, sandboxed tmp,
load error) degrades silently to ``None`` and the callers fall back to
their pure Python/numpy paths, which are bit-for-bit equivalent.

**Floating point.** Both flag sets pass ``-ffp-contract=off``.  Without
it GCC fuses ``a + lam * b`` in the HDRF score into one FMA, rounding
once where Python rounds twice, and streamed placements drift from the
Python placer's at larger ``p``.  The TLP kernel's one contraction
(``fr - 2.0 * fc``) works on exact small integers, so turning it off
leaves TLP output as it was.

Set ``REPRO_NO_NATIVE=1`` to force the fallbacks (used by the test
suite to cover both paths), ``REPRO_NATIVE_CACHE`` to move the build
cache.

**Threading.** The kernel is loaded with :class:`ctypes.CDLL`, so every
``tlp_grow_episode`` call releases the GIL for its whole duration, so
growth jobs on separate threads overlap their episodes on separate
cores.  The kernel itself keeps no
global state: everything it reads or writes lives in the
:class:`GrowState` (or :class:`StreamState`) struct it is handed, so
concurrent calls are safe as long as each thread passes its own state
(each :class:`~repro.core.native_grow.NativeRunner` owns one).  Never
share a ``GrowState`` (or its backing ``NativeRunner`` buffers) between
threads.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Optional

_SOURCE = os.path.join(os.path.dirname(__file__), "tlp_kernel.c")

_lock = threading.Lock()
_kernel: Optional[ctypes.CDLL] = None
_attempted = False


class GrowState(ctypes.Structure):
    """Mirror of the ``GrowState`` struct in ``tlp_kernel.c``.

    Field order and widths must match the C definition exactly; every
    scalar is 8 bytes so there is no padding ambiguity.
    """

    _fields_ = [
        # static CSR graph
        ("n", ctypes.c_int64),
        ("indptr", ctypes.POINTER(ctypes.c_int64)),
        ("indices", ctypes.POINTER(ctypes.c_int64)),
        ("twin", ctypes.POINTER(ctypes.c_int64)),
        ("alive", ctypes.POINTER(ctypes.c_uint8)),
        ("live_deg", ctypes.POINTER(ctypes.c_int64)),
        ("num_live", ctypes.c_int64),
        # frontier
        ("f_ids", ctypes.POINTER(ctypes.c_int64)),
        ("f_c", ctypes.POINTER(ctypes.c_double)),
        ("f_r", ctypes.POINTER(ctypes.c_double)),
        ("f_mu1", ctypes.POINTER(ctypes.c_double)),
        ("f_score", ctypes.POINTER(ctypes.c_double)),
        ("f_pos", ctypes.POINTER(ctypes.c_int64)),
        ("f_size", ctypes.c_int64),
        ("member", ctypes.POINTER(ctypes.c_uint8)),
        # pending Stage-I batches
        ("pend_v", ctypes.POINTER(ctypes.c_int64)),
        ("pend_s", ctypes.POINTER(ctypes.c_int64)),
        ("pend_e", ctypes.POINTER(ctypes.c_int64)),
        ("pend_count", ctypes.c_int64),
        ("pend_cap", ctypes.c_int64),
        ("pend_snap", ctypes.POINTER(ctypes.c_int64)),
        ("pend_len", ctypes.c_int64),
        ("pend_buf_cap", ctypes.c_int64),
        # outputs
        ("edge_u", ctypes.POINTER(ctypes.c_int64)),
        ("edge_v", ctypes.POINTER(ctypes.c_int64)),
        ("edge_count", ctypes.c_int64),
        ("sel_idx", ctypes.POINTER(ctypes.c_int64)),
        ("sel_stage", ctypes.POINTER(ctypes.c_int64)),
        ("sel_alloc", ctypes.POINTER(ctypes.c_int64)),
        ("sel_ldeg", ctypes.POINTER(ctypes.c_int64)),
        ("sel_state", ctypes.POINTER(ctypes.c_int64)),
        ("sel_count", ctypes.c_int64),
        # config
        ("capacity", ctypes.c_int64),
        ("strict", ctypes.c_int64),
        ("policy", ctypes.c_int64),
        ("ratio", ctypes.c_double),
        ("scope_original", ctypes.c_int64),
        # round totals
        ("internal_", ctypes.c_int64),
        ("external_", ctypes.c_int64),
    ]


class StreamState(ctypes.Structure):
    """Mirror of the ``StreamState`` struct in ``tlp_kernel.c``.

    Every array is a numpy buffer's address (``c_void_p``) owned by
    :class:`~repro.partitioning.oocore.native.VertexIndex`; ``None``
    switches the matching feature off (clustering, affinity).
    """

    _fields_ = [
        # vertex index
        ("slots", ctypes.c_void_p),
        ("keys", ctypes.c_void_p),
        ("n", ctypes.c_int64),
        ("vcap", ctypes.c_int64),
        # degree sketch
        ("exact", ctypes.c_int64),
        ("max_exact", ctypes.c_int64),
        ("deg", ctypes.c_void_p),
        ("cm", ctypes.c_void_p),
        ("cm_width", ctypes.c_int64),
        ("cm_depth", ctypes.c_int64),
        # pass 1: label propagation
        ("cluster_of", ctypes.c_void_p),
        ("volume", ctypes.c_void_p),
        ("present", ctypes.c_void_p),
        ("total_volume", ctypes.c_int64),
        ("target_clusters", ctypes.c_int64),
        ("volume_slack", ctypes.c_double),
        # pass 2: placement
        ("p", ctypes.c_int64),
        ("words", ctypes.c_int64),
        ("greedy", ctypes.c_int64),
        ("lam", ctypes.c_double),
        ("epsilon", ctypes.c_double),
        ("gamma", ctypes.c_double),
        ("masks", ctypes.c_void_p),
        ("affinity", ctypes.c_void_p),
        ("sizes", ctypes.c_void_p),
        ("eff", ctypes.c_void_p),
        ("tree", ctypes.c_void_p),
        ("leaves", ctypes.c_int64),
        ("hi", ctypes.c_int64),
        ("replicas", ctypes.c_int64),
    ]


#: Episode end reasons returned by ``tlp_grow_episode``.
REASON_CAPACITY = 0
REASON_EMPTY = 1
REASON_TRUNCATED = 2


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    return os.path.join(tempfile.gettempdir(), "repro-native")


def _find_compiler() -> Optional[str]:
    for cc in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cc and shutil.which(cc):
            return cc
    return None


#: Tried in order; ``-march=native`` unlocks wide SIMD on the selection
#: scans but is not accepted by every toolchain/arch combination.
#: ``-ffp-contract=off`` keeps float results equal to Python's (see above).
_FLAG_SETS = (
    ["-O3", "-march=native", "-ffp-contract=off", "-fno-strict-aliasing",
     "-shared", "-fPIC"],
    ["-O3", "-ffp-contract=off", "-fno-strict-aliasing", "-shared", "-fPIC"],
)


def _compile_once(cc: str, flags: list, source: bytes) -> str:
    """Compile with ``flags`` into the cache; returns the .so path."""
    key = hashlib.sha256(source + repr(flags).encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"tlp_kernel_{key}.so")
    if os.path.exists(so_path):
        return so_path
    os.makedirs(cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        subprocess.run(
            [cc, *flags, "-o", tmp, _SOURCE],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp, so_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return so_path


def _compile_and_load() -> ctypes.CDLL:
    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    cc = _find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH")
    last_error: Optional[Exception] = None
    for flags in _FLAG_SETS:
        try:
            so_path = _compile_once(cc, flags, source)
            break
        except Exception as exc:
            last_error = exc
    else:
        raise RuntimeError(f"kernel compilation failed: {last_error}")
    lib = ctypes.CDLL(so_path)
    lib.tlp_grow_episode.argtypes = [ctypes.POINTER(GrowState), ctypes.c_int64]
    lib.tlp_grow_episode.restype = ctypes.c_int64
    state = ctypes.POINTER(StreamState)
    lib.oo_rehash.argtypes = [state]
    lib.oo_rehash.restype = None
    lib.oo_place_init.argtypes = [state]
    lib.oo_place_init.restype = None
    lib.oo_count.argtypes = [state, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64]
    lib.oo_count.restype = ctypes.c_int64
    lib.oo_place.argtypes = [
        state, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p
    ]
    lib.oo_place.restype = ctypes.c_int64
    return lib


def load_kernel() -> Optional[ctypes.CDLL]:
    """The compiled kernel, or ``None`` when it cannot be built.

    The first call pays the (cached) compile; later calls return the
    loaded library.  ``None`` also when ``REPRO_NO_NATIVE`` is set.
    """
    global _kernel, _attempted
    if os.environ.get("REPRO_NO_NATIVE"):
        return None
    with _lock:
        if not _attempted:
            _attempted = True
            try:
                _kernel = _compile_and_load()
            except Exception:  # degrade to the numpy path
                _kernel = None
        return _kernel
