"""Wire protocol: length-prefixed frames over a byte stream, JSON or binary.

Every message — request or response — is one frame::

    +----------------+----------------------+
    | 4-byte big-end | frame body           |
    | payload length |                      |
    +----------------+----------------------+

The body is one of two self-identifying codecs, distinguished by the
first byte:

* **JSON** (the fallback and the executable spec): a UTF-8 JSON object.
  JSON text never starts with byte ``0xB7`` (an invalid UTF-8 lead
  byte), so the two codecs are unambiguous per frame.
* **Binary** (:data:`WIRE_BINARY`): magic byte ``0xB7``, a version byte
  (``0x01``), then exactly one value in a msgpack-style typed encoding
  restricted to the protocol's closed vocabulary — see
  :func:`encode_value` for the tag grammar.  Integer-only arrays (vertex
  ids, partition lists — the bulk of every hot response) are packed
  little-endian runs encoded and decoded at C speed via the ``array``
  module.  Binary answers are bit-identical to JSON answers
  (``tests/service/test_wire_parity.py`` pins this).

A connection may carry both codecs: the server decodes each frame by its
first byte and answers in the codec of the request that produced the
response.  A client that wants binary sends binary from its first frame;
there is nothing to negotiate.

Requests are ``{"id": <int>, "op": <str>, "args": {...}}``; responses are
``{"id": <int>, "ok": true, "result": {...}}`` or
``{"id": <int>, "ok": false, "error": {"code": <str>, "message": <str>}}``,
both optionally carrying ``"epoch": <int>`` — the serving generation of
the store that produced the answer (see ``StoreManager``); it increments
by one on every successful hot reload.
The server answers each connection's requests **in request order**, so a
blocking client can match responses positionally; the pipelined asyncio
client matches on ``id`` anyway.

Error codes are a closed set (:data:`ERROR_CODES`) so clients can switch on
them; anything a client does not recognise should be treated like
``internal``.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import sys
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

#: Frames above this size are rejected — a corrupt or hostile length prefix
#: must not make the server allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")

#: Wire codec names, as chosen by clients and recorded in benches.
WIRE_JSON = "json"
WIRE_BINARY = "binary"
WIRES = frozenset({WIRE_JSON, WIRE_BINARY})

#: First byte of every binary frame body.  0xB7 is an invalid UTF-8 lead
#: byte, so no JSON frame can start with it.
BINARY_MAGIC = 0xB7
BINARY_VERSION = 0x01
_MAGIC_PREFIX = bytes((BINARY_MAGIC,))

# -- error codes -----------------------------------------------------------

#: Request malformed (not JSON / missing fields / unknown op / bad args).
BAD_REQUEST = "bad_request"
#: Vertex, edge, or partition not present in the store.
NOT_FOUND = "not_found"
#: The bounded request queue is full — back off and retry.
OVERLOAD = "overload"
#: A hot reload could not be applied; the old epoch keeps serving.
RELOAD_FAILED = "reload_failed"
#: A reload arrived while another bundle build was in flight.
RELOAD_IN_PROGRESS = "reload_in_progress"
#: A mutation contradicts current state (duplicate insert, double delete).
CONFLICT = "conflict"
#: Every partition is at the ingest capacity bound; compact or repartition.
CAPACITY = "capacity"
#: Mutations are paused while a compaction folds the overlay — retry shortly.
INGEST_FROZEN = "ingest_frozen"
#: Handler raised; the failure is logged server-side.
INTERNAL = "internal"

ERROR_CODES = frozenset(
    {
        BAD_REQUEST,
        NOT_FOUND,
        OVERLOAD,
        RELOAD_FAILED,
        RELOAD_IN_PROGRESS,
        CONFLICT,
        CAPACITY,
        INGEST_FROZEN,
        INTERNAL,
    }
)

#: Error codes a client may transparently retry (with backoff).  A frozen
#: ingest is retryable by construction: the mutation was *not* applied and
#: the freeze lifts when the compaction's fold finishes.
RETRYABLE_CODES = frozenset({OVERLOAD, INGEST_FROZEN})


class ProtocolError(ValueError):
    """A frame violated the protocol (bad length, bad JSON, not an object)."""


# -- binary value codec ----------------------------------------------------
#
# Tag grammar (all multi-byte lengths and integers little-endian):
#
#   0x00..0x7F  positive fixint
#   0x80|n      fixmap, n < 16 entries            0xC0  nil
#   0x90|n      fixarray, n < 16 items            0xC2  false   0xC3  true
#   0xA0|n      fixstr, n < 32 bytes              0xCB  float64
#   0xC4/C5/C6  bin  8/16/32-bit length
#   0xD0/D1/D2/D3  int  8/16/32/64-bit signed
#   0xD9/DA/DB  str  8/16/32-bit length
#   0xDC/DD     array 16/32-bit count             0xDE/DF  map 16/32
#   0xE1        packed int run: u8 width (1|2|4|8), u32 count,
#               count*width bytes of signed little-endian integers
#   0xE2        bigint: u32 length, ASCII decimal (ints beyond int64)
#
# Encoding is canonical: the smallest form that fits is always chosen,
# and any non-empty list of (exactly-typed) ints becomes a packed run of
# the narrowest width holding every element — so equal payloads encode
# to equal bytes.

_MAX_DEPTH = 64

_F64 = struct.Struct("<d")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

#: array typecodes by item width — resolved from the platform so 'i'/'l'
#: size differences cannot change the wire format.
_WIDTH_CODE: Dict[int, str] = {}
for _code in ("b", "h", "i", "l", "q"):
    _WIDTH_CODE.setdefault(array(_code).itemsize, _code)

_LITTLE = sys.byteorder == "little"

#: Cache of encoded short strings — the protocol's key vocabulary is a
#: closed set ("id", "op", "ok", "result", "neighbors", ...), so almost
#: every map key hits this.
_STR_CACHE: Dict[str, bytes] = {}
_STR_CACHE_MAX = 1024


def _encode_str(text: str) -> bytes:
    cached = _STR_CACHE.get(text)
    if cached is not None:
        return cached
    raw = text.encode("utf-8")
    n = len(raw)
    if n < 32:
        encoded = bytes((0xA0 | n,)) + raw
    elif n < 256:
        encoded = bytes((0xD9, n)) + raw
    elif n < 65536:
        encoded = b"\xda" + _U16.pack(n) + raw
    else:
        encoded = b"\xdb" + _U32.pack(n) + raw
    if n < 64 and len(_STR_CACHE) < _STR_CACHE_MAX:
        _STR_CACHE[text] = encoded
    return encoded


def _encode_int(value: int, out: bytearray) -> None:
    if 0 <= value < 0x80:
        out.append(value)
    elif -0x80 <= value < 0x80:
        out.append(0xD0)
        out += value.to_bytes(1, "little", signed=True)
    elif -0x8000 <= value < 0x8000:
        out.append(0xD1)
        out += value.to_bytes(2, "little", signed=True)
    elif -0x80000000 <= value < 0x80000000:
        out.append(0xD2)
        out += value.to_bytes(4, "little", signed=True)
    elif -0x8000000000000000 <= value < 0x8000000000000000:
        out.append(0xD3)
        out += value.to_bytes(8, "little", signed=True)
    else:
        digits = str(value).encode("ascii")
        out.append(0xE2)
        out += _U32.pack(len(digits))
        out += digits


def _int_run_width(lo: int, hi: int) -> Optional[int]:
    if -0x80 <= lo and hi < 0x80:
        return 1
    if -0x8000 <= lo and hi < 0x8000:
        return 2
    if -0x80000000 <= lo and hi < 0x80000000:
        return 4
    if -0x8000000000000000 <= lo and hi < 0x8000000000000000:
        return 8
    return None


def _json_key(key: Any) -> str:
    """Coerce a non-string map key exactly the way ``json.dumps`` does,
    so both codecs agree on the decoded payload."""
    if isinstance(key, str):
        return key
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, (int, float)):
        return json.dumps(key)
    raise ProtocolError(f"unencodable map key type {type(key).__name__}")


def _enc(value: Any, out: bytearray, depth: int) -> None:
    kind = type(value)
    if kind is int:
        _encode_int(value, out)
    elif kind is str:
        encoded = _encode_str(value)
        if len(out) + len(encoded) > MAX_FRAME_BYTES + 16:
            raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
        out += encoded
    elif kind is list or kind is tuple:
        _enc_sequence(value, out, depth)
    elif kind is dict:
        _enc_map(value, out, depth)
    elif value is None:
        out.append(0xC0)
    elif kind is bool:
        out.append(0xC3 if value else 0xC2)
    elif kind is float:
        out.append(0xCB)
        out += _F64.pack(value)
    elif kind is bytes or kind is bytearray:
        n = len(value)
        if len(out) + n > MAX_FRAME_BYTES + 16:
            raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
        if n < 256:
            out.append(0xC4)
            out.append(n)
        elif n < 65536:
            out.append(0xC5)
            out += _U16.pack(n)
        else:
            out.append(0xC6)
            out += _U32.pack(n)
        out += value
    elif isinstance(value, bool):  # bool subclasses before int
        out.append(0xC3 if value else 0xC2)
    elif isinstance(value, int):
        _encode_int(int(value), out)
    elif isinstance(value, float):
        out.append(0xCB)
        out += _F64.pack(float(value))
    elif isinstance(value, str):
        out += _encode_str(str(value))
    elif isinstance(value, (list, tuple)):
        _enc_sequence(list(value), out, depth)
    elif isinstance(value, dict):
        _enc_map(value, out, depth)
    else:
        raise ProtocolError(f"unencodable value type {type(value).__name__}")


_INT_TYPE_SET = frozenset((int,))


def _enc_sequence(value: Any, out: bytearray, depth: int) -> None:
    if depth >= _MAX_DEPTH:
        raise ProtocolError("value nested too deeply")
    if len(out) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    n = len(value)
    # C-speed exact-type scan: bools are ints to ``array`` but must not
    # lose their type on the wire, so only `type(x) is int` runs pack.
    if n and type(value[0]) is int and set(map(type, value)) == _INT_TYPE_SET:
        width = _int_run_width(min(value), max(value))
        if width is not None:
            if len(out) + n * width > MAX_FRAME_BYTES + 16:
                raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
            run = array(_WIDTH_CODE[width], value)
            if not _LITTLE:  # pragma: no cover - big-endian hosts
                run.byteswap()
            out.append(0xE1)
            out.append(width)
            out += _U32.pack(n)
            out += run.tobytes()
            return
    if n < 16:
        out.append(0x90 | n)
    elif n < 65536:
        out.append(0xDC)
        out += _U16.pack(n)
    else:
        out.append(0xDD)
        out += _U32.pack(n)
    depth += 1
    for item in value:
        _enc(item, out, depth)


def _enc_map(value: Dict[Any, Any], out: bytearray, depth: int) -> None:
    if depth >= _MAX_DEPTH:
        raise ProtocolError("value nested too deeply")
    if len(out) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    n = len(value)
    if n < 16:
        out.append(0x80 | n)
    elif n < 65536:
        out.append(0xDE)
        out += _U16.pack(n)
    else:
        out.append(0xDF)
        out += _U32.pack(n)
    depth += 1
    cache_get = _STR_CACHE.get
    for key, item in value.items():
        encoded = cache_get(key) if type(key) is str else None
        if encoded is None:
            encoded = _encode_str(key if type(key) is str else _json_key(key))
        out += encoded
        _enc(item, out, depth)


def encode_value(value: Any) -> bytes:
    """Encode one value in the binary codec (no magic/version prefix)."""
    out = bytearray()
    _enc(value, out, 0)
    return bytes(out)


def _dec(buf: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    end = len(buf)
    if pos >= end:
        raise ProtocolError("truncated binary value")
    tag = buf[pos]
    pos += 1
    if tag < 0x80:
        return tag, pos
    if tag < 0x90:
        return _dec_map(buf, pos, tag & 0x0F, depth)
    if tag < 0xA0:
        return _dec_array(buf, pos, tag & 0x0F, depth)
    if tag < 0xC0:
        n = tag & 0x1F
        kend = pos + n
        if kend > end:
            raise ProtocolError("truncated binary value")
        raw = buf[pos:kend]
        cached = _KEY_CACHE.get(raw)
        if cached is not None:
            return cached, kend
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"bad UTF-8 in binary string: {exc}") from exc
        if len(_KEY_CACHE) < _KEY_CACHE_MAX:
            _KEY_CACHE[raw] = text
        return text, kend
    if tag == 0xC0:
        return None, pos
    if tag == 0xC2:
        return False, pos
    if tag == 0xC3:
        return True, pos
    if tag == 0xCB:
        if pos + 8 > end:
            raise ProtocolError("truncated binary value")
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if 0xD0 <= tag <= 0xD3:
        width = 1 << (tag - 0xD0)
        if pos + width > end:
            raise ProtocolError("truncated binary value")
        return int.from_bytes(buf[pos : pos + width], "little", signed=True), pos + width
    if 0xD9 <= tag <= 0xDB:
        n, pos = _dec_len(buf, pos, tag - 0xD9)
        return _dec_str(buf, pos, n)
    if 0xC4 <= tag <= 0xC6:
        n, pos = _dec_len(buf, pos, tag - 0xC4)
        if pos + n > end:
            raise ProtocolError("truncated binary value")
        return bytes(buf[pos : pos + n]), pos + n
    if tag == 0xDC or tag == 0xDD:
        n, pos = _dec_len(buf, pos, 1 if tag == 0xDC else 2)
        return _dec_array(buf, pos, n, depth)
    if tag == 0xDE or tag == 0xDF:
        n, pos = _dec_len(buf, pos, 1 if tag == 0xDE else 2)
        return _dec_map(buf, pos, n, depth)
    if tag == 0xE1:
        if pos + 5 > end:
            raise ProtocolError("truncated binary value")
        width = buf[pos]
        code = _WIDTH_CODE.get(width)
        if code is None:
            raise ProtocolError(f"bad packed-run width {width}")
        (count,) = _U32.unpack_from(buf, pos + 1)
        pos += 5
        nbytes = count * width
        if pos + nbytes > end:
            raise ProtocolError("truncated binary value")
        run = array(code)
        run.frombytes(buf[pos : pos + nbytes])
        if not _LITTLE:  # pragma: no cover - big-endian hosts
            run.byteswap()
        return run.tolist(), pos + nbytes
    if tag == 0xE2:
        n, pos = _dec_len(buf, pos, 2)
        if pos + n > end:
            raise ProtocolError("truncated binary value")
        try:
            return int(buf[pos : pos + n].decode("ascii")), pos + n
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(f"bad bigint: {exc}") from exc
    raise ProtocolError(f"unknown binary tag 0x{tag:02X}")


def _dec_len(buf: bytes, pos: int, size_class: int) -> Tuple[int, int]:
    width = 1 << size_class
    if pos + width > len(buf):
        raise ProtocolError("truncated binary value")
    if width == 1:
        return buf[pos], pos + 1
    if width == 2:
        return _U16.unpack_from(buf, pos)[0], pos + 2
    return _U32.unpack_from(buf, pos)[0], pos + 4


def _dec_str(buf: bytes, pos: int, n: int) -> Tuple[str, int]:
    end = pos + n
    if end > len(buf):
        raise ProtocolError("truncated binary value")
    try:
        return buf[pos:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"bad UTF-8 in binary string: {exc}") from exc


def _dec_array(buf: bytes, pos: int, n: int, depth: int) -> Tuple[List[Any], int]:
    if depth >= _MAX_DEPTH:
        raise ProtocolError("binary value nested too deeply")
    if n > len(buf) - pos:  # every element costs at least one byte
        raise ProtocolError("truncated binary value")
    depth += 1
    items: List[Any] = []
    append = items.append
    for _ in range(n):
        item, pos = _dec(buf, pos, depth)
        append(item)
    return items, pos


#: Decoded-key cache: the key vocabulary is closed, so interning the
#: (raw fixstr bytes → str) mapping skips a UTF-8 decode per map entry.
_KEY_CACHE: Dict[bytes, str] = {}
_KEY_CACHE_MAX = 1024


def _dec_map(buf: bytes, pos: int, n: int, depth: int) -> Tuple[Dict[str, Any], int]:
    if depth >= _MAX_DEPTH:
        raise ProtocolError("binary value nested too deeply")
    if 2 * n > len(buf) - pos:
        raise ProtocolError("truncated binary value")
    depth += 1
    end = len(buf)
    mapping: Dict[str, Any] = {}
    cache_get = _KEY_CACHE.get
    for _ in range(n):
        if pos >= end:
            raise ProtocolError("truncated binary value")
        tag = buf[pos]
        if 0xA0 <= tag < 0xC0:  # fixstr key — the common case
            kend = pos + 1 + (tag & 0x1F)
            if kend > end:
                raise ProtocolError("truncated binary value")
            raw = buf[pos + 1 : kend]
            key = cache_get(raw)
            if key is None:
                try:
                    key = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ProtocolError(f"bad UTF-8 in binary string: {exc}") from exc
                if len(_KEY_CACHE) < _KEY_CACHE_MAX:
                    _KEY_CACHE[raw] = key
            pos = kend
        else:
            key, pos = _dec(buf, pos, depth)
            if type(key) is not str:
                raise ProtocolError(
                    f"binary map key must be str, got {type(key).__name__}"
                )
        if pos >= end:
            raise ProtocolError("truncated binary value")
        vtag = buf[pos]
        if vtag < 0x80:  # inline fixint values — ids, counts, epochs
            mapping[key] = vtag
            pos += 1
        elif 0xD0 <= vtag <= 0xD3:
            width = 1 << (vtag - 0xD0)
            vend = pos + 1 + width
            if vend > end:
                raise ProtocolError("truncated binary value")
            mapping[key] = int.from_bytes(buf[pos + 1 : vend], "little", signed=True)
            pos = vend
        else:
            mapping[key], pos = _dec(buf, pos, depth)
    return mapping, pos


def decode_value(data: bytes) -> Any:
    """Decode one binary-codec value (inverse of :func:`encode_value`)."""
    value, pos = _dec(data, 0, 0)
    if pos != len(data):
        raise ProtocolError(f"{len(data) - pos} trailing bytes after binary value")
    return value


# -- frame encoding --------------------------------------------------------

#: Chunking granularity for the JSON encoder: lists longer than this are
#: serialised slice by slice, strings longer than ``_JSON_CHUNK_CHARS``
#: piece by piece, so an over-limit body is rejected after at most one
#: extra chunk instead of materialising the whole thing first.
_JSON_CHUNK_ITEMS = 4096
_JSON_CHUNK_CHARS = 1 << 20


#: One precompiled encoder — ``json.dumps`` with non-default arguments
#: builds a fresh ``JSONEncoder`` per call, which costs more than the
#: actual serialisation for hot-path-sized payloads.
_JSON_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def _json_scalar(value: Any) -> bytes:
    return _JSON_ENCODE(value).encode("utf-8")


def _json_walk(value: Any, emit: Callable[[bytes], None]) -> None:
    if isinstance(value, dict):
        for item in value.values():
            if (
                isinstance(item, dict)
                or (isinstance(item, (list, tuple)) and len(item) > _JSON_CHUNK_ITEMS)
                or (isinstance(item, str) and len(item) > _JSON_CHUNK_CHARS)
            ):
                break
        else:
            # Shallow dict of small values — one C-speed dumps call.
            emit(_json_scalar(value))
            return
        emit(b"{")
        first = True
        for key, item in value.items():
            prefix = b"" if first else b","
            first = False
            emit(prefix + _json_scalar(_json_key(key)) + b":")
            _json_walk(item, emit)
        emit(b"}")
    elif isinstance(value, (list, tuple)) and len(value) > _JSON_CHUNK_ITEMS:
        emit(b"[")
        for i in range(0, len(value), _JSON_CHUNK_ITEMS):
            piece = _json_scalar(list(value[i : i + _JSON_CHUNK_ITEMS]))
            emit((b"" if i == 0 else b",") + piece[1:-1])
        emit(b"]")
    elif isinstance(value, str) and len(value) > _JSON_CHUNK_CHARS:
        emit(b'"')
        for i in range(0, len(value), _JSON_CHUNK_CHARS):
            emit(_json_scalar(value[i : i + _JSON_CHUNK_CHARS])[1:-1])
        emit(b'"')
    else:
        emit(_json_scalar(value))


def encode_json_body(payload: Dict[str, Any]) -> bytes:
    """Serialise a payload as UTF-8 JSON with an incremental size check.

    Emits in chunks and rejects as soon as the running total passes
    :data:`MAX_FRAME_BYTES` — a response 10× over the limit allocates
    roughly one chunk past the limit, not 10× the limit, before raising.
    """
    pieces: List[bytes] = []
    total = 0

    def emit(piece: bytes) -> None:
        nonlocal total
        total += len(piece)
        if total > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
        pieces.append(piece)

    try:
        _json_walk(payload, emit)
    except TypeError as exc:
        raise ProtocolError(str(exc)) from exc
    return b"".join(pieces)


def encode_binary_body(payload: Dict[str, Any]) -> bytes:
    """Serialise a payload in the binary codec (magic + version + value)."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame must be an object, got {type(payload).__name__}")
    out = bytearray()
    out.append(BINARY_MAGIC)
    out.append(BINARY_VERSION)
    _enc(payload, out, 0)
    return bytes(out)


def encode_frame(payload: Dict[str, Any], wire: str = WIRE_JSON) -> bytes:
    """Serialise one message to its on-wire form in the given codec."""
    if wire == WIRE_BINARY:
        body = encode_binary_body(payload)
    else:
        body = encode_json_body(payload)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LEN.pack(len(body)) + body


def detect_wire(body: bytes) -> str:
    """Which codec a frame body uses, by its first byte."""
    return WIRE_BINARY if body[:1] == _MAGIC_PREFIX else WIRE_JSON


def decode_body(body: bytes) -> Dict[str, Any]:
    """Parse a frame body (either codec); raises :class:`ProtocolError` on
    garbage."""
    if body[:1] == _MAGIC_PREFIX:
        if len(body) < 2:
            raise ProtocolError("binary frame truncated before version byte")
        if body[1] != BINARY_VERSION:
            raise ProtocolError(f"unsupported binary protocol version {body[1]}")
        payload, pos = _dec(body, 2, 0)
        if pos != len(body):
            raise ProtocolError(f"{len(body) - pos} trailing bytes after binary frame")
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"frame must be an object, got {type(payload).__name__}"
            )
        return payload
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(payload).__name__}")
    return payload


# -- message constructors --------------------------------------------------

def request(request_id: int, op: str, args: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Build a request message."""
    return {"id": request_id, "op": op, "args": args or {}}


def ok_response(
    request_id: Any, result: Dict[str, Any], epoch: Optional[int] = None
) -> Dict[str, Any]:
    """Build a success response (``epoch`` stamps the serving generation)."""
    response = {"id": request_id, "ok": True, "result": result}
    if epoch is not None:
        response["epoch"] = epoch
    return response


def error_response(
    request_id: Any, code: str, message: str, epoch: Optional[int] = None
) -> Dict[str, Any]:
    """Build an error response with one of :data:`ERROR_CODES`."""
    response = {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if epoch is not None:
        response["epoch"] = epoch
    return response


# -- frame splitting -------------------------------------------------------


class FrameSplitter:
    """Synchronous frame splitter: feed stream bytes, get complete frames.

    :meth:`feed` yields ``(wire, body)`` for every frame the bytes fed so
    far complete, in stream order, and keeps the tail of an unfinished
    frame in a ``bytearray``, so a large frame arriving in many chunks is
    copied in linear rather than quadratic time.  Bytes fed while the
    buffer is empty are sliced directly, with no buffer copy.

    The generator :meth:`feed` returns must be exhausted before the next
    call; a :class:`ProtocolError` for an oversized length header is
    raised after the frames that precede it.  :meth:`eof` raises if the
    stream ended inside a frame.  The server's ``data_received`` and the
    client's :class:`BufferedFrameReader` both split frames this way.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> Iterator[Tuple[str, bytes]]:
        buf = self._buf
        stream: Union[bytes, bytearray] = data
        if buf:
            buf += data
            stream = buf
        header_size = _LEN.size
        pos, end = 0, len(stream)
        while end - pos >= header_size:
            (length,) = _LEN.unpack_from(stream, pos)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}"
                )
            stop = pos + header_size + length
            if stop > end:
                break
            # bytes(x) is x itself for an exact bytes slice: one copy.
            body = bytes(stream[pos + header_size : stop])
            pos = stop
            yield detect_wire(body), body
        if stream is buf:
            del buf[:pos]
        elif pos < end:
            buf += data[pos:]

    def eof(self) -> None:
        """The stream ended: raise :class:`ProtocolError` mid-frame."""
        have = len(self._buf)
        if have and have < _LEN.size:
            raise ProtocolError("connection closed mid-header")
        if have:
            raise ProtocolError("connection closed mid-frame")


# -- asyncio stream helpers ------------------------------------------------

#: Bytes pulled from the transport per refill of a BufferedFrameReader.
_READ_CHUNK = 1 << 16


class BufferedFrameReader:
    """Incremental frame decoder that amortises awaits over TCP chunks.

    :func:`read_frame` costs two ``readexactly`` awaits per frame even
    when the bytes are already buffered.  This reader instead pulls whole
    chunks with ``reader.read()`` and splits them with a
    :class:`FrameSplitter`, so a chunk carrying N pipelined frames costs
    one await, not 2N — the pipelined client's receive loop.

    Same contract as :func:`read_frame`: returns ``None`` on clean EOF at
    a frame boundary, raises :class:`ProtocolError` on a truncated or
    oversized frame.  After each successful read, :attr:`last_wire` holds
    the codec of that frame.
    """

    __slots__ = ("_reader", "_splitter", "_frames", "last_wire")

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self._splitter = FrameSplitter()
        self._frames: Iterator[Tuple[str, bytes]] = iter(())
        self.last_wire = WIRE_JSON

    async def read_frame(self) -> Optional[Dict[str, Any]]:
        while True:
            for wire, body in self._frames:
                self.last_wire = wire
                return decode_body(body)
            chunk = await self._reader.read(_READ_CHUNK)
            if not chunk:
                self._splitter.eof()
                return None
            self._frames = self._splitter.feed(chunk)


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one frame; returns ``None`` on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header") from exc
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return decode_body(body)


async def write_frame(
    writer: asyncio.StreamWriter, payload: Dict[str, Any], wire: str = WIRE_JSON
) -> None:
    """Write one frame and drain the transport."""
    writer.write(encode_frame(payload, wire))
    await writer.drain()


# -- blocking socket helpers (sync client) ---------------------------------

def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame_sync(
    sock: socket.socket, payload: Dict[str, Any], wire: str = WIRE_JSON
) -> None:
    """Blocking frame write."""
    sock.sendall(encode_frame(payload, wire))


def recv_frame_sync(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Blocking frame read; ``None`` on clean EOF at a frame boundary."""
    first = sock.recv(_LEN.size)
    if not first:
        return None
    header = first + (_recv_exactly(sock, _LEN.size - len(first)) if len(first) < _LEN.size else b"")
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return decode_body(_recv_exactly(sock, length))
