"""Optional compiled kernel for the TLP hot loop.

The C source (``tlp_kernel.c``) ships with the package and is compiled
lazily, once, with whatever ``cc``/``gcc`` the host provides — no build
step, no new dependency.  The shared object is cached outside the source
tree keyed by a hash of the source, so editing the kernel invalidates the
cache automatically.  Every failure mode (no compiler, sandboxed tmp,
load error) degrades silently to ``None`` and the callers fall back to
the pure-numpy CSR path, which is bit-for-bit equivalent.

Set ``REPRO_NO_NATIVE=1`` to force the numpy fallback (used by the test
suite to cover both paths), ``REPRO_NATIVE_CACHE`` to move the build
cache.

**Threading.** The kernel is loaded with :class:`ctypes.CDLL`, so every
``tlp_grow_episode`` call releases the GIL for its whole duration —
growth jobs fanned out by :func:`repro.core.parallel.partition_many`
overlap their episodes on separate cores.  The kernel itself keeps no
global state: everything it reads or writes lives in the
:class:`GrowState` struct it is handed, so concurrent calls are safe as
long as each thread passes its own state (each
:class:`~repro.core.native_grow.NativeRunner` owns one).  Never share a
``GrowState`` (or its backing ``NativeRunner`` buffers) between threads.
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
_FLAG_SETS = (
    ["-O3", "-march=native", "-fno-strict-aliasing", "-shared", "-fPIC"],
    ["-O3", "-fno-strict-aliasing", "-shared", "-fPIC"],
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
