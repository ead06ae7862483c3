"""Wire protocol: length-prefixed binary frames over a byte stream.

Every message — request or response — is one frame::

    +----------------+----------------------+
    | 4-byte big-end | frame body           |
    | payload length |                      |
    +----------------+----------------------+

The body is in the one binary codec (:data:`WIRE_BINARY`): magic byte
``0xB7``, a version byte (``0x01``), then exactly one value in a
msgpack-style typed encoding restricted to the protocol's closed
vocabulary — see :func:`encode_value` for the tag grammar.  Integer-only
arrays (vertex ids, partition lists — the bulk of every hot response) are
packed little-endian runs encoded and decoded at C speed via the
``array`` module.  A body without the magic byte is a protocol error; the
server answers it with ``bad_request`` and closes the connection.
:class:`FrameSplitter` is the one place a length header is parsed.

Requests are ``{"id": <int>, "op": <str>, "args": {...}}``; responses are
``{"id": <int>, "ok": True, "result": {...}}`` or
``{"id": <int>, "ok": False, "error": {"code": <str>, "message": <str>}}``,
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
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

#: Frames above this size are rejected — a corrupt or hostile length prefix
#: must not make the server allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")

#: Name of the one wire codec, as clients and benches pass it.
WIRE_BINARY = "binary"

#: First byte of every frame body.
BINARY_MAGIC = 0xB7
BINARY_VERSION = 0x01
_MAGIC_PREFIX = bytes((BINARY_MAGIC,))

# -- error codes -----------------------------------------------------------

#: Request malformed (not a binary frame / missing fields / unknown op /
#: bad args).
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
    """A frame violated the protocol (bad length, bad body, not an object)."""


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


def _map_key(key: Any) -> str:
    """Coerce a non-string map key to the string ``json.dumps`` would
    write for it, so a decoded payload equals ``json.loads(json.dumps(x))``."""
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
            encoded = _encode_str(key if type(key) is str else _map_key(key))
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

def encode_binary_body(payload: Dict[str, Any]) -> bytes:
    """Serialise a payload in the binary codec (magic + version + value)."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame must be an object, got {type(payload).__name__}")
    out = bytearray()
    out.append(BINARY_MAGIC)
    out.append(BINARY_VERSION)
    _enc(payload, out, 0)
    return bytes(out)


def require_binary(wire: str) -> None:
    """Refuse any codec but :data:`WIRE_BINARY`.

    ``wire`` survives on :func:`encode_frame` and the clients only so that
    callers which name the codec keep working; it is not a choice.
    """
    if wire != WIRE_BINARY:
        raise ValueError(f"wire must be {WIRE_BINARY!r}, got {wire!r}")


def encode_frame(payload: Dict[str, Any], wire: str = WIRE_BINARY) -> bytes:
    """Serialise one message to its on-wire form (length header + body).

    ``wire`` is a compatibility parameter, not a knob: its one accepted
    value is :data:`WIRE_BINARY`, and any other raises ``ValueError``.
    """
    require_binary(wire)
    body = encode_binary_body(payload)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LEN.pack(len(body)) + body


def decode_body(body: bytes) -> Dict[str, Any]:
    """Parse a frame body; raises :class:`ProtocolError` on garbage,
    including any body that does not start with :data:`BINARY_MAGIC`."""
    if body[:1] != _MAGIC_PREFIX:
        raise ProtocolError(
            f"not a binary frame: body must start with 0x{BINARY_MAGIC:02X}"
        )
    if len(body) < 2:
        raise ProtocolError("binary frame truncated before version byte")
    if body[1] != BINARY_VERSION:
        raise ProtocolError(f"unsupported binary protocol version {body[1]}")
    payload, pos = _dec(body, 2, 0)
    if pos != len(body):
        raise ProtocolError(f"{len(body) - pos} trailing bytes after binary frame")
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame must be an object, got {type(payload).__name__}")
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

    :meth:`feed` yields the body of every frame the bytes fed so far
    complete, in stream order, and keeps the tail of an unfinished
    frame in a ``bytearray``, so a large frame arriving in many chunks is
    copied in linear rather than quadratic time.  Bytes fed while the
    buffer is empty are sliced directly, with no buffer copy.

    The generator :meth:`feed` returns must be exhausted before the next
    call; a :class:`ProtocolError` for an oversized length header is
    raised after the frames that precede it.  :meth:`eof` raises if the
    stream ended inside a frame.  It is the only parser of the length
    header: the server's ``data_received``, the asyncio client's
    :class:`BufferedFrameReader` and :func:`recv_frame_sync` all split
    frames through it.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> Iterator[bytes]:
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
            yield body
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


# -- stream readers --------------------------------------------------------

#: Bytes pulled from the transport or socket per refill.
_READ_CHUNK = 1 << 16


class BufferedFrameReader:
    """Incremental asyncio frame reader that amortises awaits over chunks.

    Pulls whole chunks with ``reader.read()`` and splits them with a
    :class:`FrameSplitter`, so a chunk carrying N pipelined frames costs
    one await — the pipelined client's receive loop.  :meth:`read_frame`
    returns ``None`` on clean EOF at a frame boundary and raises
    :class:`ProtocolError` on a truncated or oversized frame.
    """

    __slots__ = ("_reader", "_splitter", "_frames")

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self._splitter = FrameSplitter()
        self._frames: Iterator[bytes] = iter(())

    async def read_frame(self) -> Optional[Dict[str, Any]]:
        while True:
            for body in self._frames:
                return decode_body(body)
            chunk = await self._reader.read(_READ_CHUNK)
            if not chunk:
                self._splitter.eof()
                return None
            self._frames = self._splitter.feed(chunk)


def send_frame_sync(sock: socket.socket, payload: Dict[str, Any]) -> None:
    """Blocking frame write."""
    sock.sendall(encode_frame(payload))


def recv_frame_sync(
    sock: socket.socket, splitter: FrameSplitter
) -> Optional[Dict[str, Any]]:
    """Blocking read of one answer through the connection's splitter.

    Returns ``None`` on clean EOF at a frame boundary and raises
    :class:`ProtocolError` on EOF inside a frame.  The blocking client
    has one request in flight, so a read that completes more than one
    frame is a protocol error too.
    """
    while True:
        chunk = sock.recv(_READ_CHUNK)
        if not chunk:
            splitter.eof()
            return None
        bodies = list(splitter.feed(chunk))
        if len(bodies) > 1:
            raise ProtocolError(f"{len(bodies)} frames answered one request")
        if bodies:
            return decode_body(bodies[0])
