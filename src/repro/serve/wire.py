"""The admission wire protocol, shared by server, router and clients.

One protocol: length-prefixed little-endian binary frames, built for
pipelining. A client writes a run of request frames and the server
answers with one response frame per request, in order, flushed
together. Every frame is::

    u16 length   -- payload byte count (length prefix excluded)
    payload      -- one message

Request payloads start with an opcode byte:

=====================  ==================================================
request payload        meaning
=====================  ==================================================
``ACQUIRE flags key``  one admission decision; ``flags`` bit 0 is the
                       usefulness flag, ``key`` is the UTF-8 key (the
                       rest of the payload)
``ACQUIRE_BULK ...``   a run of per-key admission groups (cluster
                       router → worker only; see *Bulk admission*)
``STATS``              JSON stats document
``PING``               liveness echo
=====================  ==================================================

Bulk admission (router → worker)
--------------------------------
The cluster router (:mod:`repro.serve.cluster`) already reorders
responses back into client order, so it is free to *group* a pipelined
batch by key before fanning it out. ``ACQUIRE_BULK`` carries those
groups compactly — the opcode byte followed by repeated group records::

    u16 keylen | u8 flags | keylen bytes of UTF-8 key | u16 count

and asks for ``count`` back-to-back admission decisions per group. The
worker answers with ``RUN`` frames **and nothing else**, in group
order, so the reply stream is one fixed 20-byte stride the router reads
as columns (:data:`RUN_DTYPE`). A ``RUN`` frame (struct
:data:`RUN_STRUCT`: status, reason code, u16 admits, u16 rejects,
``i32`` pre-spend balance, ``f64`` retry-after) means "the first
``admits`` requests were admitted with balances ``balance-1 …
balance-admits``, the rest rejected at ``balance-admits`` with that
retry hint". When the limiter's strategy guarantees that admit-prefix
shape, one :meth:`~repro.serve.limiter.TokenAccountLimiter.try_acquire_runs`
call answers the whole bulk frame: one ``RUN`` per group, plus one
wherever a group's admits change reason (:func:`encode_runs_binary`).
Otherwise — randomized, overdraft and capacity-0 strategies — each
group's decisions go through ``try_acquire_frames`` and come back as
``count`` frames of one decision each (``admits=1`` at the post-spend
balance + 1, or ``rejects=1``; :func:`runs_from_decision_frames`).
Either way a group's frames cover exactly ``count`` decisions, which is
how the router knows where one batch's reply ends, and
:func:`expand_runs` turns them back into ``DECISION`` records — for the
router's scatter and for a server's grouped road, which reads a run of
same-size ``ACQUIRE`` frames as NumPy rows (:func:`acquire_rows`,
:func:`group_rows`, :func:`decode_keys`) and answers each distinct
frame with one run. The router sends only groups of ``count`` > 1 —
a request that is alone in its batch travels as the plain ``ACQUIRE``
frame the client sent and is answered by a ``DECISION`` — but a server
still accepts ``count == 1`` groups. Plain clients never speak this
opcode; it exists so a trusted aggregator can collapse per-request
framing without changing any per-key admission outcome.

Response payloads start with a status byte: ``DECISION`` responses are
a fixed 15-byte payload (struct ``<BBBid``: status, admitted, reason
code, ``i32`` balance, ``f64`` retry-after — 17 bytes on the wire with
the prefix, :data:`DECISION_FRAME_SIZE`), so a client can parse a
pipelined burst with one vectorized pass over a 17-byte stride. The
server's are written by the limiter's batch core (``try_acquire_frames``),
so :mod:`repro.serve.limiter` defines the record layout and this module
re-exports it; :func:`encode_decisions_binary` encodes ``Decision`` objects.
``STATS`` carries the JSON document, ``ERROR`` a human-readable
message, ``PONG`` is empty.

Negotiation
-----------
A client opens with the 4-byte hello :data:`MAGIC` (``ab 54 41 01``: a
non-ASCII sentinel, ``"TA"``, version 1) and the endpoint echoes it
once it is ready for frames. A connection whose first bytes are
anything else — another version, a line-oriented client — gets one
human-readable ``!`` line and a close, from the single-process server
and the cluster router alike (:mod:`repro.serve.connection`).
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.serve.limiter import (  # noqa: F401  (the record layout, re-exported)
    DECISION_FRAME_SIZE,
    DECISION_STRUCT,
    REASON_CODES,
    REASON_NAMES,
    STATUS_DECISION,
    Decision,
)

#: longest accepted key, in characters
MAX_KEY_LENGTH = 256

#: the hello: a non-ASCII sentinel byte, "TA", version
MAGIC = b"\xabTA\x01"

#: request opcodes (``OP_ACQUIRE_BULK`` is spoken only by the cluster
#: router; see *Bulk admission* in the module docstring)
OP_ACQUIRE = 1
OP_STATS = 2
OP_PING = 3
OP_ACQUIRE_BULK = 4

#: response status codes (``STATUS_RUN`` is the only answer to bulk groups;
#: ``STATUS_DECISION`` = 1 is imported with the record layout)
STATUS_ERROR = 0
STATUS_STATS = 2
STATUS_PONG = 3
STATUS_RUN = 4

#: ``ACQUIRE`` flags bit 0: Algorithm 4's usefulness flag
FLAG_USEFUL = 1

#: :data:`DECISION_STRUCT` (a whole decision response frame, length
#: prefix included; ``DECISION_FRAME_SIZE`` bytes, the client's parse
#: stride) as a packed NumPy record, so a run of pipelined decisions is
#: read (loadgen), synthesized (router) or re-framed (worker) as columns
DECISION_DTYPE = np.dtype(
    [
        ("len", "<u2"),
        ("status", "u1"),
        ("admitted", "u1"),
        ("reason", "u1"),
        ("balance", "<i4"),
        ("retry", "<f8"),
    ]
)
assert DECISION_DTYPE.itemsize == DECISION_FRAME_SIZE

#: the same frames as opaque records: reordering permutes whole frames,
#: and assigning them field by field is ~6x slower
DECISION_RECORD = np.dtype((np.void, DECISION_FRAME_SIZE))

#: a decision frame's payload alone (what :func:`split_frames` yields)
_DECISION_BODY = struct.Struct("<BBBid")

#: u16 length prefix + opcode + flags (an ACQUIRE request's fixed part)
ACQUIRE_HEADER = struct.Struct("<HBB")

#: one ``ACQUIRE_BULK`` group record's fixed head: u16 keylen, u8 flags
#: (the key bytes follow, then the u16 request count)
BULK_GROUP_HEAD = struct.Struct("<HB")
#: the group's trailing request count
BULK_GROUP_COUNT = struct.Struct("<H")

#: a whole ``RUN`` response frame, length prefix included: u16 length
#: (=18), status, reason code, u16 admits, u16 rejects, i32 pre-spend
#: balance, f64 retry-after for the rejected suffix
RUN_STRUCT = struct.Struct("<HBBHHid")
#: bytes per ``RUN`` response frame on the wire
RUN_FRAME_SIZE = RUN_STRUCT.size
#: the same frame as a packed NumPy record: a worker link's reply
#: stream is read by the router as an array of these
RUN_DTYPE = np.dtype(
    [
        ("len", "<u2"),
        ("status", "u1"),
        ("reason", "u1"),
        ("admits", "<u2"),
        ("rejects", "<u2"),
        ("balance", "<i4"),
        ("retry", "<f8"),
    ]
)
assert RUN_DTYPE.itemsize == RUN_FRAME_SIZE

#: hard ceiling on one frame's payload — fits the longest key in UTF-8
#: with generous slack, and bounds a malicious length prefix
MAX_FRAME = 4096

_LENGTH = struct.Struct("<H")


def encode_request_binary(key: str, useful: bool = True) -> bytes:
    """One ``ACQUIRE`` request frame for ``key`` (client side)."""
    if len(key) > MAX_KEY_LENGTH:
        raise ValueError(f"key longer than {MAX_KEY_LENGTH}")
    raw = key.encode()
    return ACQUIRE_HEADER.pack(
        2 + len(raw), OP_ACQUIRE, FLAG_USEFUL if useful else 0
    ) + raw


def encode_command_binary(op: int) -> bytes:
    """A bare-opcode request frame (``OP_STATS`` / ``OP_PING``)."""
    return _LENGTH.pack(1) + bytes((op,))


def parse_request_binary(
    payload: Union[bytes, bytearray, memoryview],
) -> Tuple[str, Optional[str], bool]:
    """Parse one binary request payload into ``(command, key, useful)``.

    ``command`` is ``"A"``, ``"S"`` or ``"P"``; malformed payloads raise
    ``ValueError`` with the message the server sends back in an
    ``ERROR`` frame. ``payload`` may be a ``memoryview`` into the
    connection's receive buffer — only the key bytes are copied (into
    the returned ``str``).
    """
    if not len(payload):
        raise ValueError("empty frame")
    op = payload[0]
    if op == OP_ACQUIRE:
        if len(payload) < 2:
            raise ValueError("ACQUIRE needs a flags byte and a key")
        key = bytes(payload[2:]).decode("utf-8", "replace")
        if not key:
            raise ValueError("ACQUIRE needs a key")
        if len(key) > MAX_KEY_LENGTH:
            raise ValueError(f"key longer than {MAX_KEY_LENGTH}")
        return "A", key, bool(payload[1] & FLAG_USEFUL)
    if op == OP_STATS and len(payload) == 1:
        return "S", None, True
    if op == OP_PING and len(payload) == 1:
        return "P", None, True
    raise ValueError(f"unknown opcode {op}")


def encode_decision_binary(decision: Decision) -> bytes:
    """One 17-byte ``DECISION`` response frame."""
    return encode_decisions_binary((decision,))


def encode_decisions_binary(decisions) -> bytes:
    """``DECISION`` frames for a run of ``Decision`` objects, contiguous.

    The bytes ``try_acquire_frames`` packs without the objects.
    """
    pack_into = DECISION_STRUCT.pack_into
    reason_codes = REASON_CODES
    body = DECISION_FRAME_SIZE - 2
    buf = bytearray(DECISION_FRAME_SIZE * len(decisions))
    offset = 0
    for decision in decisions:
        retry = decision.retry_after
        pack_into(
            buf,
            offset,
            body,
            STATUS_DECISION,
            1 if decision.admitted else 0,
            reason_codes.get(decision.reason, 0),
            decision.balance,
            retry if retry is not None else 0.0,
        )
        offset += DECISION_FRAME_SIZE
    return bytes(buf)


def encode_bulk_binary(groups) -> bytes:
    """One ``ACQUIRE_BULK`` request frame (cluster router side).

    ``groups`` is an iterable of ``(key_bytes, flags, count)`` records.
    The caller owns the :data:`MAX_FRAME` budget — split large batches
    across several bulk frames (group order is what carries semantics,
    not frame boundaries).
    """
    parts = [b"", bytes((OP_ACQUIRE_BULK,))]
    for raw, flags, count in groups:
        parts.append(BULK_GROUP_HEAD.pack(len(raw), flags))
        parts.append(raw)
        parts.append(BULK_GROUP_COUNT.pack(count))
    payload_len = sum(len(part) for part in parts)
    if payload_len > MAX_FRAME:
        raise ValueError(f"bulk frame payload {payload_len} exceeds {MAX_FRAME}")
    parts[0] = _LENGTH.pack(payload_len)
    return b"".join(parts)


def parse_bulk_binary(payload: Union[bytes, bytearray, memoryview]):
    """Parse an ``ACQUIRE_BULK`` payload into ``(key, useful, count)`` groups.

    ``payload`` excludes the length prefix but includes the opcode byte.
    Malformed records raise ``ValueError`` (the worker answers with an
    error frame and drops the link — only the router speaks this).
    """
    groups = []
    offset = 1  # past the opcode byte
    total = len(payload)
    head = BULK_GROUP_HEAD
    trailer = BULK_GROUP_COUNT
    while offset < total:
        if total - offset < head.size:
            raise ValueError("truncated bulk group head")
        keylen, flags = head.unpack_from(payload, offset)
        offset += head.size
        if keylen == 0 or total - offset < keylen + trailer.size:
            raise ValueError("truncated bulk group key")
        key = bytes(payload[offset : offset + keylen]).decode("utf-8", "replace")
        if len(key) > MAX_KEY_LENGTH:
            raise ValueError(f"key longer than {MAX_KEY_LENGTH}")
        offset += keylen
        (count,) = trailer.unpack_from(payload, offset)
        offset += trailer.size
        if count == 0:
            raise ValueError("bulk group with zero requests")
        groups.append((key, bool(flags & FLAG_USEFUL), count))
    if not groups:
        raise ValueError("empty bulk frame")
    return groups


def encode_run_binary(
    reason: str, admits: int, rejects: int, balance: int, retry: float
) -> bytes:
    """One ``RUN`` response frame for a bulk group (worker side).

    ``balance`` is the group's pre-spend balance: the ``admits``
    admitted requests drained it to ``balance - admits``, which is the
    balance every rejected request observed.
    """
    return RUN_STRUCT.pack(
        RUN_FRAME_SIZE - 2,
        STATUS_RUN,
        REASON_CODES.get(reason, 0),
        admits,
        rejects,
        balance,
        retry,
    )


def encode_runs_binary(records) -> bytes:
    """``RUN`` frames for ``try_acquire_runs`` records (worker side)."""
    pack, body = RUN_STRUCT.pack, RUN_FRAME_SIZE - 2
    return b"".join([pack(body, STATUS_RUN, *record) for record in records])


def runs_from_decision_frames(frames) -> bytes:
    """Packed ``DECISION`` frames re-framed as one unit ``RUN`` frame each.

    How a worker answers bulk groups it decided request by request, as
    columns: an admission is ``admits=1`` from the pre-spend balance (the
    decision's balance + 1), a rejection ``rejects=1`` at the balance it
    observed.
    """
    decisions = np.frombuffer(frames, dtype=DECISION_DTYPE)
    admitted = decisions["admitted"]
    runs = np.empty(len(decisions), dtype=RUN_DTYPE)
    runs["len"] = RUN_FRAME_SIZE - 2
    runs["status"] = STATUS_RUN
    runs["reason"] = decisions["reason"]
    runs["admits"] = admitted
    runs["rejects"] = 1 - admitted
    runs["balance"] = decisions["balance"] + admitted
    runs["retry"] = decisions["retry"]
    return runs.tobytes()


def expand_runs(records: np.ndarray) -> np.ndarray:
    """Expand RUN records into the DECISION records they stand for.

    Each run is an admit-prefix walk from a pre-spend ``balance``: the
    first ``admits`` requests are admitted at balances ``balance-1`` …
    ``balance-admits`` (retry 0), the remaining ``rejects`` are all
    identical rejects at the leftover balance — exactly what the limiter
    would have answered to ``admits + rejects`` sequential ACQUIREs.
    All runs are expanded at once, as columns: one output row per
    decision, in run order.
    """
    admits = records["admits"].astype(np.intp)
    counts = admits + records["rejects"]
    starts = counts.cumsum() - counts
    run = np.repeat(np.arange(len(records)), counts)  # each row's run
    rank = np.arange(len(run)) - starts[run]  # its place in that run
    admits = admits[run]
    admitted = rank < admits
    spent = np.minimum(rank + 1, admits)  # tokens the run had spent by then
    frames = np.empty(len(run), dtype=DECISION_DTYPE)
    frames["len"] = DECISION_FRAME_SIZE - 2
    frames["status"] = STATUS_DECISION
    frames["admitted"] = admitted
    frames["reason"] = np.where(
        admitted, records["reason"][run], REASON_CODES["exhausted"]
    )
    frames["balance"] = records["balance"][run] - spent
    frames["retry"] = np.where(admitted, 0.0, records["retry"][run])
    return frames


def decisions_from_runs(records, places: np.ndarray) -> bytes:
    """``try_acquire_runs`` records as the ``DECISION`` frames they stand for.

    Gathered into row order by :func:`group_rows`' ``places``.
    """
    runs = np.frombuffer(encode_runs_binary(records), RUN_DTYPE)
    return expand_runs(runs).view(DECISION_RECORD)[places].tobytes()


def acquire_rows(
    buffer: bytearray, start: int, end: int, length: int, least: int
) -> np.ndarray:
    """The ``ACQUIRE`` frames of payload ``length`` back to back at ``start``.

    A ``(count, 2 + length)`` uint8 view of ``buffer[start:end]``, no
    copy: the longest run of whole frames whose length prefix and opcode
    say so (the frame at ``start`` must be one). Rows past the first
    ``least`` are checked only when all of those are such frames, so a
    shorter run costs ``least`` rows at most. Column 3 is the flags byte,
    columns 4 on the key.
    """
    stride = 2 + length
    total = (end - start) // stride
    rows = np.frombuffer(buffer, np.uint8, total * stride, start).reshape(total, stride)
    checked = 0
    for upto in (least, total):
        block = rows[checked:upto]
        other = np.flatnonzero(
            (block[:, 0] != length & 0xFF)
            | (block[:, 1] != length >> 8)
            | (block[:, 2] != OP_ACQUIRE)
        )
        if len(other):
            return rows[: checked + other[0]]
        checked = upto
    return rows


def group_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group identical frames among :func:`acquire_rows` rows.

    Returns ``(last, counts, places)``: per group — groups ordered by
    their last occurrence — that occurrence's row and the group's row
    count, and per row its place when the rows are laid out group by
    group, in row order within a group (what :func:`expand_runs` of one
    run per group yields, so ``expanded[places]`` is back in row order).
    """
    total = len(rows)
    frames = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    by_bytes = np.argsort(frames, kind="stable")
    ordered = frames[by_bytes]
    change = np.ones(total, bool)  # the last of each group, in byte order
    change[:-1] = ordered[1:] != ordered[:-1]
    ends = np.flatnonzero(change)
    counts = ends + 1
    counts[1:] -= ends[:-1] + 1
    by_last = np.argsort(by_bytes[ends])
    ends, counts = ends[by_last], counts[by_last]
    # row indices group by group: each group's sorted stretch, in turn
    offsets = ends - counts.cumsum() + 1
    places = np.empty(total, np.intp)
    places[by_bytes[np.repeat(offsets, counts) + np.arange(total)]] = np.arange(total)
    return by_bytes[ends], counts, places


def decode_keys(block: np.ndarray) -> List[str]:
    """Each row of a uint8 key block as a ``str``, like an ``ACQUIRE`` key.

    UTF-8 with ``"replace"``; an ASCII block is decoded in one call.
    """
    data = block.tobytes()
    width = block.shape[1]
    cuts = range(0, len(data), width)
    if data.isascii():
        text = data.decode("ascii")
        return [text[at : at + width] for at in cuts]
    return [str(data[at : at + width], "utf-8", "replace") for at in cuts]


def encode_status_binary(status: int, body: bytes = b"") -> bytes:
    """A generic response frame (``STATS`` / ``ERROR`` / ``PONG``)."""
    return _LENGTH.pack(1 + len(body)) + bytes((status,)) + body


def decode_response_binary(
    payload: Union[bytes, bytearray, memoryview], key: str = ""
) -> Tuple[int, object]:
    """Decode one binary response payload into ``(status, value)``.

    ``value`` is a :class:`~repro.serve.limiter.Decision` for
    ``STATUS_DECISION`` (the wire does not carry the key; the caller
    supplies it, matching responses to requests by order), the raw JSON
    bytes for ``STATUS_STATS``, ``None`` for ``STATUS_PONG``. An
    ``STATUS_ERROR`` frame raises ``ValueError`` with the message.
    """
    if not len(payload):
        raise ValueError("empty frame")
    status = payload[0]
    if status == STATUS_DECISION:
        if len(payload) != _DECISION_BODY.size:
            raise ValueError(f"bad decision frame length {len(payload)}")
        _, admitted, reason, balance, retry = _DECISION_BODY.unpack(payload)
        name = (
            REASON_NAMES[reason]
            if reason < len(REASON_NAMES) and REASON_NAMES[reason]
            else "exhausted"
        )
        return status, Decision(
            bool(admitted), key, name, balance, None if admitted else retry
        )
    if status == STATUS_STATS:
        return status, bytes(payload[1:])
    if status == STATUS_PONG:
        return status, None
    if status == STATUS_ERROR:
        raise ValueError(
            "server error: " + bytes(payload[1:]).decode("utf-8", "replace")
        )
    raise ValueError(f"unknown status {status}")


def split_frames(buffer: bytearray, max_frame: int = MAX_FRAME):
    """Split complete length-prefixed frames off the front of ``buffer``.

    Returns ``(payloads, consumed)`` where ``payloads`` are *copies* of
    each complete frame's payload and ``consumed`` is the byte count to
    discard from the buffer's front (``del buffer[:consumed]``). A
    length prefix exceeding ``max_frame`` raises ``ValueError`` — the
    caller should drop the connection. Incremental: trailing partial
    frames stay in the buffer for the next read.
    """
    payloads = []
    offset = 0
    available = len(buffer)
    while available - offset >= 2:
        length = buffer[offset] | (buffer[offset + 1] << 8)
        if length > max_frame:
            raise ValueError(f"frame length {length} exceeds {max_frame}")
        if available - offset - 2 < length:
            break
        payloads.append(bytes(buffer[offset + 2:offset + 2 + length]))
        offset += 2 + length
    return payloads, offset
