"""Versioned, pickle-free wire codec for the cluster worker protocol.

Every message between a :class:`~repro.serving.cluster.ShardedEngine`
parent and a shard worker -- step payloads, step results, snapshot /
restore / inject / discard, lifecycle handshakes, and error frames -- is
one self-describing binary *frame*, identical on every transport (pipe,
TCP, or the in-proc loopback when it opts into encoding):

```
+-------+---------+------------+----------------+------------------------+
| magic | version | header len |  JSON header   |  raw array segments    |
| RPWC  |  u16 BE |   u32 BE   |  (utf-8 JSON)  |  (C-order little/big   |
|  (4)  |   (2)   |    (4)     |                |   per declared dtype)  |
+-------+---------+------------+----------------+------------------------+
```

The JSON header carries the frame ``kind`` (request / reply tag), a
``meta`` object of JSON scalars (stream ids, ticks, monitor states, scope
factors), and an ``arrays`` manifest -- name, dtype string, and shape per
numpy payload -- in segment order.  Numeric payloads never round-trip
through JSON: they are appended as raw C-contiguous bytes with an
explicit-endianness dtype, so a decoded array is bitwise-identical to the
encoded one and results merged by the parent are bitwise-identical across
transports (and to the single-process engine).

Why not pickle?  Pickle couples both endpoints to identical class layouts,
executes arbitrary callables on load (unacceptable for a TCP listener),
and hides payload cost.  This codec is a closed vocabulary: JSON scalars
plus typed arrays, versioned (:data:`PROTOCOL_VERSION`) so incompatible
peers fail loudly at the first frame instead of corrupting registry state.

Layering: :func:`encode_frame` / :func:`decode_frame` know only the frame
format; :func:`encode_request` / :func:`decode_request_full` and
:func:`encode_reply` / :func:`decode_reply_full` map each worker
command's payload onto (meta, arrays) and back.  Transports move opaque
``bytes``.

Zero-copy path: :func:`encode_frame_parts` stops one step earlier than
:func:`encode_frame` -- it returns a :class:`FrameSegments` holding the
packed prefix + header plus a borrowed ``memoryview`` per C-contiguous
array segment, without materializing the joined frame.  Channels with a
vectored ``send_frame`` write those segments straight to the wire (TCP
``sendmsg``), and :class:`BufferPool` assembles them into
reusable size-classed buffers for channels that need one contiguous
send -- either way each array's payload is copied exactly once.  The
joined bytes are identical to :func:`encode_frame` output byte-for-byte.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ProtocolError, ValidationError

__all__ = [
    "PROTOCOL_VERSION",
    "TELEMETRY_META_KEY",
    "TICK_META_KEY",
    "TRACE_META_KEY",
    "WIRE_MAGIC",
    "BufferPool",
    "Frame",
    "FrameSegments",
    "PooledFrame",
    "encode_frame",
    "encode_frame_parts",
    "decode_frame",
    "encode_request",
    "encode_request_parts",
    "decode_request_full",
    "encode_reply",
    "encode_reply_parts",
    "decode_reply_full",
    "require_wire_id",
    "sanitize_wire_scope",
]

#: Wire protocol version; bumped on any frame-format or vocabulary change.
PROTOCOL_VERSION = 1

#: Leading magic of every frame ("RePro Wire Codec").
WIRE_MAGIC = b"RPWC"

#: Reserved meta key carrying a request's trace context (tick id, parent
#: span, sampling flag).  Stripped before command decoders run, so
#: payloads never see it; workers that predate it ignore it entirely.
TRACE_META_KEY = "_trace"

#: Reserved meta key carrying a reply's piggybacked worker telemetry
#: (per-request phase timings, or the worker clock on ``hello``).
#: Stripped symmetrically on decode.
TELEMETRY_META_KEY = "_telemetry"

#: Reserved meta key tagging a frame with its tick number.  Under a
#: pipelined (windowed) tick loop more than one step request can be in
#: flight per shard; the parent tags each request with the tick it
#: belongs to and the worker echoes the tag on its reply, so the parent
#: can assert that replies pair up with requests in admitted order.
#: Stripped before command decoders run; absent frames encode
#: byte-identically to a pre-windowing peer's.
TICK_META_KEY = "_tick"

_PREFIX = struct.Struct(">4sHI")  # magic, version, header length

#: Stream ids (and all other meta values) must survive a JSON round trip.
WIRE_ID_TYPES = (str, int, float, bool, type(None))


def require_wire_id(stream_id) -> None:
    """Reject stream ids that cannot cross a wire transport.

    Pipe and TCP workers receive ids through the JSON frame header, so
    they must be JSON scalars -- the same restriction snapshots already
    impose.  (The in-proc transport never serializes and tolerates any
    hashable id, but such ids forfeit snapshots and wire transports.)
    """
    if not isinstance(stream_id, WIRE_ID_TYPES):
        raise ValidationError(
            f"stream id {stream_id!r} is not wire-serializable; pipe/TCP "
            "transports and snapshots support str/int/float/bool/None ids"
        )


def sanitize_wire_scope(scope_factors, stream_id) -> dict | None:
    """Make one frame's scope-factor dict safe for the JSON frame header.

    Numpy scalars are unwrapped to their exact Python equivalents (the
    single-process engine accepts them, so the wire must too); anything
    else non-JSON is rejected here -- *before* fan-out -- so a bad frame
    can never half-execute a tick across shards.
    """
    if scope_factors is None:
        return None
    sanitized = {}
    for name, value in scope_factors.items():
        if isinstance(value, np.generic):
            value = value.item()
        if not isinstance(value, WIRE_ID_TYPES):
            raise ValidationError(
                f"stream {stream_id!r}: scope factor {name!r} value "
                f"{value!r} is not wire-serializable; pipe/TCP transports "
                "support str/int/float/bool/None scope values"
            )
        sanitized[str(name)] = value
    return sanitized


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame: kind tag, JSON meta, named numpy arrays."""

    kind: str
    meta: dict
    arrays: dict


# ---------------------------------------------------------------------------
# Frame layer
# ---------------------------------------------------------------------------

@dataclass
class FrameSegments:
    """One encoded frame as a gather list, pre-join.

    ``segments[0]`` is the owned ``bytes`` of prefix + JSON header;
    every following entry is a byte-``memoryview`` borrowed from a
    C-contiguous numpy array (or ``b""`` for empty arrays).  The views
    stay valid as long as ``_keepalive`` pins the backing arrays, so a
    ``FrameSegments`` must be consumed (sent / joined / copied into a
    pool buffer) before the tick's payload arrays are mutated.

    Joining the segments yields byte-for-byte the :func:`encode_frame`
    output for the same inputs.
    """

    segments: list
    nbytes: int
    _keepalive: tuple = field(default=(), repr=False)

    def join(self) -> bytes:
        """Materialize the frame as one owned ``bytes`` (single copy)."""
        if len(self.segments) == 1:
            return self.segments[0]
        return b"".join(self.segments)

    def copy_into(self, buffer) -> int:
        """Scatter-copy every segment into the front of ``buffer``.

        ``buffer`` is any writable bytes-like (a pooled ``bytearray``,
        a ``memoryview``).  Returns the number of bytes written;
        each segment is copied exactly once.
        """
        offset = 0
        for segment in self.segments:
            n = len(segment)
            if n:
                buffer[offset : offset + n] = segment
                offset += n
        return self.nbytes


def encode_frame_parts(
    kind: str, meta: dict | None = None, arrays: dict | None = None
) -> FrameSegments:
    """Encode one frame into a :class:`FrameSegments` gather list.

    The zero-copy core of :func:`encode_frame`: C-contiguous arrays are
    *not* copied here -- their raw memory rides along as borrowed
    memoryviews for the channel (or pool) to copy exactly once at send
    time.  Non-contiguous inputs are made contiguous first (one
    unavoidable copy, as before).
    """
    arrays = arrays or {}
    manifest = []
    segments = [b""]  # placeholder for prefix + header
    keepalive = []
    nbytes = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        manifest.append(
            {"name": name, "dtype": array.dtype.str, "shape": list(array.shape)}
        )
        if array.nbytes:
            # .cast("B") rejects zero-sized views, hence the guard; the
            # flat byte view over C-order memory is exactly .tobytes()
            # without the copy.
            segments.append(array.data.cast("B"))
            keepalive.append(array)
            nbytes += array.nbytes
    header = {"kind": kind, "meta": meta or {}, "arrays": manifest}
    try:
        header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise ValidationError(
            f"frame meta for {kind!r} is not wire-serializable ({error}); "
            "wire transports require JSON-serializable payloads "
            "(e.g. str/int/float/bool/None stream ids)"
        ) from None
    segments[0] = _PREFIX.pack(
        WIRE_MAGIC, PROTOCOL_VERSION, len(header_bytes)
    ) + header_bytes
    nbytes += len(segments[0])
    return FrameSegments(
        segments=segments, nbytes=nbytes, _keepalive=tuple(keepalive)
    )


def encode_frame(kind: str, meta: dict | None = None, arrays: dict | None = None) -> bytes:
    """Serialize one frame to bytes.

    ``meta`` must be JSON-serializable; ``arrays`` maps names to numpy
    arrays (any dtype/shape; forced C-contiguous with explicit byte
    order on the wire).  Each array's payload is copied exactly once,
    into the joined output.
    """
    return encode_frame_parts(kind, meta, arrays).join()


# ---------------------------------------------------------------------------
# Buffer pool: reusable send buffers for single-buffer channels
# ---------------------------------------------------------------------------

class PooledFrame:
    """One frame assembled into a pooled buffer, awaiting send.

    ``view`` is the frame's exact bytes as a memoryview into the pooled
    ``bytearray`` (pure-Python classes cannot implement the buffer
    protocol before 3.12, so channels consume the view).  Call
    :meth:`release` once the channel has handed the bytes to the kernel;
    the buffer then returns to the pool for reuse.  Anything decoded
    from the frame must own its memory by then (``decode_frame`` copies
    arrays out), because reuse overwrites the backing buffer.
    """

    __slots__ = ("_pool", "_buffer", "nbytes")

    def __init__(self, pool, buffer, nbytes):
        self._pool = pool
        self._buffer = buffer
        self.nbytes = nbytes

    @property
    def view(self) -> memoryview:
        return memoryview(self._buffer)[: self.nbytes]

    def release(self) -> None:
        buffer, self._buffer = self._buffer, None
        if buffer is not None:
            self._pool._release(buffer)


class BufferPool:
    """Size-classed free lists of reusable frame buffers.

    ``acquire`` hands out a ``bytearray`` at least as large as requested
    from power-of-two size classes, recycling released buffers instead
    of allocating fresh ones on every frame -- the steady-state tick
    loop reuses the same few buffers forever (``hits``) and only
    allocates when a frame outgrows everything seen so far (``misses``).
    ``bytes_copied`` counts payload bytes scatter-copied through
    :meth:`encode_into`, the codec's single copy per segment.
    """

    #: Smallest size class: small control frames (hello/stats/close)
    #: all share one class instead of fragmenting the pool.
    MIN_BUFFER_BYTES = 4096

    def __init__(self, *, max_buffers_per_class: int = 8):
        self._classes: dict[int, list[bytearray]] = {}
        self._max_per_class = max_buffers_per_class
        self.hits = 0
        self.misses = 0
        self.bytes_copied = 0

    @staticmethod
    def _class_for(nbytes: int) -> int:
        size = BufferPool.MIN_BUFFER_BYTES
        while size < nbytes:
            size <<= 1
        return size

    def acquire(self, nbytes: int) -> bytearray:
        """A buffer of at least ``nbytes``; callers use a prefix slice."""
        free = self._classes.get(self._class_for(nbytes))
        if free:
            self.hits += 1
            return free.pop()
        self.misses += 1
        return bytearray(self._class_for(nbytes))

    def _release(self, buffer: bytearray) -> None:
        free = self._classes.setdefault(len(buffer), [])
        if len(free) < self._max_per_class:
            free.append(buffer)

    def encode_into(self, parts: FrameSegments) -> PooledFrame:
        """Assemble a gather list into one pooled buffer (single copy)."""
        buffer = self.acquire(parts.nbytes)
        parts.copy_into(buffer)
        self.bytes_copied += parts.nbytes
        return PooledFrame(self, buffer, parts.nbytes)

    def stats(self) -> dict:
        """Counters for fanout stats / metrics: hits, misses, bytes."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bytes_copied": self.bytes_copied,
        }


def decode_frame(data) -> Frame:
    """Parse one frame; raises :class:`ProtocolError` on malformed input."""
    view = memoryview(data)
    if len(view) < _PREFIX.size:
        raise ProtocolError(
            f"truncated frame: {len(view)} bytes, need at least {_PREFIX.size}"
        )
    magic, version, header_len = _PREFIX.unpack_from(view, 0)
    if magic != WIRE_MAGIC:
        raise ProtocolError(f"bad frame magic {bytes(magic)!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"peer speaks protocol version {version}; this build speaks "
            f"{PROTOCOL_VERSION}"
        )
    offset = _PREFIX.size
    if len(view) < offset + header_len:
        raise ProtocolError("truncated frame: header extends past the payload")
    try:
        header = json.loads(bytes(view[offset : offset + header_len]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame header ({error})") from None
    offset += header_len
    if (
        not isinstance(header, dict)
        or not isinstance(header.get("kind"), str)
        or not isinstance(header.get("meta"), dict)
        or not isinstance(header.get("arrays"), list)
    ):
        raise ProtocolError("malformed frame header")
    arrays = {}
    for entry in header["arrays"]:
        try:
            name, dtype, shape = entry["name"], np.dtype(entry["dtype"]), entry["shape"]
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"malformed array manifest entry ({error})") from None
        # Dimensions must be non-negative ints: a negative or non-int dim
        # would rewind the read offset (or escape as a raw ValueError),
        # letting a crafted frame decode header bytes as array payload.
        if not isinstance(shape, list) or not all(
            isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0
            for dim in shape
        ):
            raise ProtocolError(
                f"malformed array manifest: shape {shape!r} of {name!r} is "
                "not a list of non-negative ints"
            )
        if dtype.hasobject or dtype.itemsize == 0:
            # Object dtypes would mean pickle-on-load (the exact thing
            # this codec exists to avoid); zero-itemsize dtypes crash
            # frombuffer with a raw ValueError.
            raise ProtocolError(
                f"malformed array manifest: dtype {entry['dtype']!r} of "
                f"{name!r} is not a fixed-size scalar dtype"
            )
        # math.prod on Python ints cannot overflow (np.prod in int64
        # silently wraps on huge crafted dims, which would bypass the
        # non-negative guard above via a wrapped-negative product).
        nbytes = int(dtype.itemsize) * math.prod(shape)
        if len(view) < offset + nbytes:
            raise ProtocolError(f"truncated frame: array {name!r} cut short")
        # Copy out of the receive buffer: decoded arrays are handed to
        # engine/registry state and must own their memory.
        arrays[name] = (
            np.frombuffer(view[offset : offset + nbytes], dtype=dtype)
            .reshape(shape)
            .copy()
        )
        offset += nbytes
    if offset != len(view):
        raise ProtocolError(
            f"frame has {len(view) - offset} trailing bytes past the manifest"
        )
    return Frame(kind=header["kind"], meta=header["meta"], arrays=arrays)


# ---------------------------------------------------------------------------
# Command vocabulary: payload <-> (meta, arrays) per worker command
# ---------------------------------------------------------------------------
#
# Requests travel as kind "req:<command>"; successful replies as
# "ok:<command>" (the command disambiguates the payload mapping); errors
# as the command-independent kind "err" carrying {name, message}.

def _snapshot_to_wire(snapshot):
    meta, arrays = snapshot.to_wire()
    return {"snapshot": meta}, arrays


def _snapshot_from_wire(meta, arrays):
    from repro.serving.state import RegistrySnapshot

    return RegistrySnapshot.from_wire(meta["snapshot"], arrays)


def _delta_to_wire(delta):
    meta, arrays = delta.to_wire()
    return {"delta": meta}, arrays


def _delta_from_wire(meta, arrays):
    from repro.serving.state import DeltaSnapshot

    return DeltaSnapshot.from_wire(meta["delta"], arrays)


def _encode_step_request(payload):
    if payload is None:  # frameless tick: time still passes on this shard
        return {"empty": True}, {}
    for stream_id in payload["ids"]:
        require_wire_id(stream_id)
    meta = {"ids": payload["ids"], "scope": payload["scope"]}
    arrays = {
        "X": payload["X"],
        "Q": payload["Q"],
        "new_series": payload["new_series"],
    }
    return meta, arrays


def _decode_step_request(meta, arrays):
    if meta.get("empty"):
        return None
    return {
        "ids": meta["ids"],
        "X": arrays["X"],
        "Q": arrays["Q"],
        "new_series": arrays["new_series"],
        "scope": meta["scope"],
    }


def _encode_step_reply(payload):
    if payload is None:
        return {"empty": True}, {}
    return {"empty": False}, payload  # the struct-of-arrays tick results


def _decode_step_reply(meta, arrays):
    return None if meta.get("empty") else arrays


def _encode_ids(ids):
    for stream_id in ids:
        require_wire_id(stream_id)
    return {"ids": list(ids)}, {}


_REQUEST_CODECS = {
    "hello": (lambda p: (p, {}), lambda m, a: m),
    "step": (_encode_step_request, _decode_step_request),
    "snapshot": (
        lambda p: ({"stream_ids": None if p is None else list(p)}, {}),
        lambda m, a: m["stream_ids"],
    ),
    "delta": (
        lambda p: ({"since_tick": int(p)}, {}),
        lambda m, a: m["since_tick"],
    ),
    "restore": (_snapshot_to_wire, _snapshot_from_wire),
    "inject": (_snapshot_to_wire, _snapshot_from_wire),
    "discard": (_encode_ids, lambda m, a: m["ids"]),
    "ids": (lambda p: ({}, {}), lambda m, a: None),
    "stats": (lambda p: ({}, {}), lambda m, a: None),
    "close": (lambda p: ({}, {}), lambda m, a: None),
}

_REPLY_CODECS = {
    "hello": (lambda p: (p, {}), lambda m, a: m),
    "step": (_encode_step_reply, _decode_step_reply),
    "snapshot": (_snapshot_to_wire, _snapshot_from_wire),
    "delta": (_delta_to_wire, _delta_from_wire),
    "restore": (lambda p: ({}, {}), lambda m, a: None),
    "inject": (lambda p: ({}, {}), lambda m, a: None),
    "discard": (lambda p: ({}, {}), lambda m, a: None),
    "ids": (_encode_ids, lambda m, a: m["ids"]),
    "stats": (lambda p: (p, {}), lambda m, a: m),
    "close": (lambda p: ({}, {}), lambda m, a: None),
}


def encode_request_parts(
    command: str, payload=None, *, trace=None, tick=None
) -> FrameSegments:
    """:func:`encode_request` stopped pre-join: a zero-copy gather list.

    Channels with a vectored ``send_frame`` (or a :class:`BufferPool`)
    consume this directly; ``.join()`` yields the exact
    :func:`encode_request` bytes.
    """
    try:
        encoder, _ = _REQUEST_CODECS[command]
    except KeyError:
        raise ProtocolError(f"unknown request command {command!r}") from None
    meta, arrays = encoder(payload)
    if trace is not None:
        meta = {**meta, TRACE_META_KEY: trace}
    if tick is not None:
        meta = {**meta, TICK_META_KEY: int(tick)}
    return encode_frame_parts(f"req:{command}", meta, arrays)


def encode_request(command: str, payload=None, *, trace=None, tick=None) -> bytes:
    """Encode one ``(command, payload)`` request into a wire frame.

    ``trace``, when given, rides in the reserved ``_trace`` meta key
    alongside the command's own meta -- invisible to command decoders on
    both ends, ignored by workers that predate it.  ``tick`` rides in
    the reserved ``_tick`` key the same way; workers echo it on the
    reply so a windowed parent can pair replies with requests.
    """
    return encode_request_parts(command, payload, trace=trace, tick=tick).join()


def decode_request_full(data) -> tuple:
    """Decode a request frame into ``(command, payload, trace, tick)``.

    The reserved ``_trace`` and ``_tick`` meta keys are popped *before*
    the command decoder runs, so payloads are byte-for-byte what an
    untagged sender would have produced; each is ``None`` when absent.
    """
    frame = decode_frame(data)
    if not frame.kind.startswith("req:"):
        raise ProtocolError(f"expected a request frame, got kind {frame.kind!r}")
    command = frame.kind[4:]
    try:
        _, decoder = _REQUEST_CODECS[command]
    except KeyError:
        raise ProtocolError(f"unknown request command {command!r}") from None
    trace = frame.meta.pop(TRACE_META_KEY, None)
    tick = frame.meta.pop(TICK_META_KEY, None)
    return command, decoder(frame.meta, frame.arrays), trace, tick


def encode_reply_parts(
    command: str, reply: tuple, *, telemetry=None, tick=None
) -> FrameSegments:
    """:func:`encode_reply` stopped pre-join: a zero-copy gather list."""
    if reply[0] == "error":
        return encode_frame_parts("err", {"name": reply[1], "message": reply[2]})
    try:
        encoder, _ = _REPLY_CODECS[command]
    except KeyError:
        raise ProtocolError(f"unknown reply command {command!r}") from None
    meta, arrays = encoder(reply[1])
    if telemetry is not None:
        meta = {**meta, TELEMETRY_META_KEY: telemetry}
    if tick is not None:
        meta = {**meta, TICK_META_KEY: int(tick)}
    return encode_frame_parts(f"ok:{command}", meta, arrays)


def encode_reply(command: str, reply: tuple, *, telemetry=None, tick=None) -> bytes:
    """Encode a worker's protocol reply tuple for ``command``.

    ``reply`` is ``("ok", payload)`` or ``("error", name, message)``;
    error frames encode identically for every command (and carry no
    tick echo -- an error aborts the whole window, so pairing it with a
    specific tick buys nothing).  ``telemetry``, when given on an ok
    reply, rides in the reserved ``_telemetry`` meta key -- the worker's
    piggybacked phase timings (or its clock reading on ``hello``),
    stripped symmetrically by the decoders.  ``tick`` echoes the
    request's ``_tick`` tag in the reserved ``_tick`` key.
    """
    return encode_reply_parts(command, reply, telemetry=telemetry, tick=tick).join()


def decode_reply_full(data, command: str) -> tuple:
    """Decode a reply frame into ``(reply_tuple, telemetry, tick)``.

    The reserved ``_telemetry`` and ``_tick`` meta keys are popped
    before the command decoder runs (``None`` when absent), so reply
    payloads -- including the whole-meta ``hello`` shape -- never see
    them.  Error frames carry neither.
    """
    frame = decode_frame(data)
    if frame.kind == "err":
        return ("error", str(frame.meta.get("name", "ClusterError")),
                str(frame.meta.get("message", ""))), None, None
    if frame.kind != f"ok:{command}":
        raise ProtocolError(
            f"reply kind {frame.kind!r} does not match in-flight command "
            f"{command!r}"
        )
    telemetry = frame.meta.pop(TELEMETRY_META_KEY, None)
    tick = frame.meta.pop(TICK_META_KEY, None)
    _, decoder = _REPLY_CODECS[command]
    return ("ok", decoder(frame.meta, frame.arrays)), telemetry, tick
