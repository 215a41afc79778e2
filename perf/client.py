"""The benchmark's own load driver: closed and open loops over binary wire v1.

One process, no threads, a handful of blocking sockets. Requests are
pre-encoded ACQUIRE frames of one fixed size, so "send the next n
requests" is one slice of a byte buffer and the per-request cost of the
driver is a few hundred nanoseconds — measured, not assumed, by running
the same driver against :mod:`perf.nullserver`.

Both wire directions are strictly FIFO per connection, so the driver
keeps no per-request state: it notes ``(time, cumulative bytes)`` at
each send and each receive, and reconstructs every request's send and
response time afterwards with two ``searchsorted`` calls.
"""

from __future__ import annotations

import json
import select
import socket
from bisect import bisect_right
from time import perf_counter
from typing import Dict, List, Sequence

import numpy as np

from repro.serve import wire

#: one DECISION frame as columns (offsets of ``wire.DECISION_STRUCT``)
DECISION_DTYPE = np.dtype(
    {
        "names": ["len", "status", "admitted", "reason", "balance", "retry"],
        "formats": ["<u2", "u1", "u1", "u1", "<i4", "<f8"],
        "offsets": [0, 2, 3, 4, 5, 9],
        "itemsize": wire.DECISION_FRAME_SIZE,
    }
)

_REPLY = wire.DECISION_FRAME_SIZE

#: a connection that stays silent this long has lost a response
STALL_S = 10.0


def key_names(count: int, seed: int) -> List[str]:
    """``count`` distinct fixed-width keys; the seed moves their hash placement."""
    return [f"{seed & 0xFFFF:04x}{index:07d}" for index in range(count)]


class Connection:
    """One binary-protocol connection and the key sequence it cycles through.

    ``order`` indexes into ``keys``; request ``j`` on this connection
    asks for ``keys[order[j % len(order)]]``.
    """

    def __init__(self, port: int, keys: Sequence[str], order: np.ndarray):
        frames = [wire.encode_request_binary(key) for key in keys]
        self.frame = len(frames[0])
        if any(len(frame) != self.frame for frame in frames):
            raise ValueError("keys must encode to one frame size")
        self.order = np.asarray(order, dtype=np.int64)
        self.key_count = len(keys)
        self._cycle = len(self.order) * self.frame
        # Two copies of the cycle, so any run of up to one cycle of
        # frames starting anywhere in the cycle is one contiguous slice.
        self._stream = memoryview(b"".join(frames[i] for i in self.order) * 2)
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.sendall(wire.MAGIC)
        if self._read_exact(len(wire.MAGIC)) != wire.MAGIC:
            raise ConnectionError("server did not echo the binary hello")
        #: bytes handed to the kernel / received, over the connection's life
        self.sent_bytes = 0
        self.recv_bytes = 0
        self.admitted = np.zeros(len(keys), dtype=np.int64)
        self.decisions = 0
        self.begin_window()

    # ------------------------------------------------------------------
    def begin_window(self) -> None:
        """Forget the previous window's marks and chunks."""
        self._chunks: List[bytes] = []
        self.send_marks: List[tuple] = []
        self.recv_marks: List[tuple] = []
        self.window_start_frames = self.sent_bytes // self.frame

    @property
    def sent(self) -> int:
        return self.sent_bytes // self.frame

    @property
    def received(self) -> int:
        return self.recv_bytes // _REPLY

    def send_upto(self, target: int, now: float) -> None:
        """Hand frames to the kernel until ``target`` requests were sent.

        Never blocks: what a full socket buffer refuses stays owed, and
        the next call (with the same or a later target) retries it.
        """
        before = self.sent_bytes
        want = target * self.frame - before
        while want > 0:
            start = self.sent_bytes % self._cycle
            try:
                accepted = self.sock.send(
                    self._stream[start : start + min(want, self._cycle)],
                    socket.MSG_DONTWAIT,
                )
            except BlockingIOError:
                break
            self.sent_bytes += accepted
            want -= accepted
        if self.sent_bytes > before:
            self.send_marks.append((now, self.sent_bytes))

    def receive(self, now: float) -> None:
        chunk = self.sock.recv(1 << 18)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._chunks.append(chunk)
        self.recv_bytes += len(chunk)
        self.recv_marks.append((now, self.recv_bytes))

    # ------------------------------------------------------------------
    def settle_window(self) -> np.ndarray:
        """Check and count the window's responses; return their latencies (s).

        Every response must be a well-formed DECISION; admissions are
        tallied per key for the whole-run burst-bound check.
        """
        first = self.window_start_frames
        count = self.sent - first
        if self.recv_bytes != self.sent * _REPLY:
            raise AssertionError(
                f"{self.sent} requests but {self.recv_bytes / _REPLY} responses"
            )
        if not count:
            return np.empty(0)
        replies = np.frombuffer(b"".join(self._chunks), dtype=DECISION_DTYPE)
        if len(replies) != count or not (
            (replies["status"] == wire.STATUS_DECISION).all()
            and (replies["len"] == _REPLY - 2).all()
        ):
            raise AssertionError("malformed response run")
        which = self.order[np.arange(first, first + count) % len(self.order)]
        self.admitted += np.bincount(
            which, weights=replies["admitted"], minlength=self.key_count
        ).astype(np.int64)
        self.decisions += count
        ordinal = np.arange(first + 1, first + count + 1)
        sent_at = _mark_times(self.send_marks, ordinal * self.frame)
        answered_at = _mark_times(self.recv_marks, ordinal * _REPLY)
        self.sent_at = sent_at
        return answered_at - sent_at

    def command(self, op: int) -> bytes:
        """Send a bare-opcode frame and return the response payload."""
        self.sock.sendall(wire.encode_command_binary(op))
        (length,) = wire.BULK_GROUP_COUNT.unpack(self._read_exact(2))
        return self._read_exact(length)

    def stats(self) -> Dict[str, float]:
        status, document = wire.decode_response_binary(self.command(wire.OP_STATS))
        if status != wire.STATUS_STATS:
            raise ConnectionError(f"STATS answered with status {status}")
        return json.loads(document)

    def _read_exact(self, count: int) -> bytes:
        data = b""
        while len(data) < count:
            chunk = self.sock.recv(count - len(data))
            if not chunk:
                raise ConnectionError("server closed the connection")
            data += chunk
        return data

    def close(self) -> None:
        self.sock.close()


def _mark_times(marks: List[tuple], byte_positions: np.ndarray) -> np.ndarray:
    """When each byte position was first covered by a ``(time, total)`` mark."""
    times = np.array([mark[0] for mark in marks])
    totals = np.array([mark[1] for mark in marks])
    return times[np.searchsorted(totals, byte_positions)]


def _poller(connections: Sequence[Connection]):
    poller = select.poll()
    by_fd = {}
    for connection in connections:
        poller.register(connection.sock, select.POLLIN)
        by_fd[connection.sock.fileno()] = connection
    return poller, by_fd


def closed_loop(
    connections: Sequence[Connection], depth: int, seconds: float
) -> "tuple[int, float, np.ndarray]":
    """One closed-loop window; ``(decisions, elapsed, latencies)``.

    Each connection keeps ``depth`` requests in flight for ``seconds``,
    then stops sending and drains, so the window holds exactly as many
    responses as requests and its clock covers all of them.
    """
    poller, by_fd = _poller(connections)
    for connection in connections:
        connection.begin_window()
    started = perf_counter()
    deadline = started + seconds
    floor = [c.sent for c in connections]
    for connection in connections:
        connection.send_upto(connection.sent + depth, started)
    draining = set(by_fd)
    while draining:
        ready = poller.poll(STALL_S * 1000.0)
        if not ready:
            raise TimeoutError("closed loop stalled: a response never came")
        for fd, _ in ready:
            connection = by_fd[fd]
            now = perf_counter()
            connection.receive(now)
            if now < deadline:
                connection.send_upto(connection.received + depth, now)
            elif connection.received == connection.sent:
                draining.discard(fd)
    elapsed = perf_counter() - started
    latencies = np.concatenate([c.settle_window() for c in connections])
    decisions = sum(c.sent for c in connections) - sum(floor)
    return decisions, elapsed, latencies


def open_loop(
    connections: Sequence[Connection], due: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, float]":
    """Send request ``i`` at ``due[i]`` s whatever the server does.

    Requests go round-robin over the connections with no in-flight cap.
    Returns ``(latency from due time, lateness of the send, elapsed)``;
    the first two are per request, in seconds, in due order.
    """
    poller, by_fd = _poller(connections)
    fan = len(connections)
    for connection in connections:
        connection.begin_window()
    floor = [c.sent for c in connections]
    goals = list(floor)
    schedule = due.tolist()
    total = len(schedule)
    issued = 0
    started = perf_counter()
    last_heard = started
    while True:
        now = perf_counter()
        if issued < total:
            ripe = bisect_right(schedule, now - started, issued)
            if ripe > issued:
                issued = ripe
                # requests lane, lane + fan, ... below `issued` go to `lane`
                goals = [
                    floor[lane] + (issued - lane + fan - 1) // fan
                    for lane in range(fan)
                ]
        owed = issued < total
        for connection, goal in zip(connections, goals):
            if connection.sent_bytes < goal * connection.frame:
                connection.send_upto(goal, now)
                owed = True
        if not owed:
            if all(c.recv_bytes == c.sent * _REPLY for c in connections):
                break
            if now - last_heard > STALL_S:
                raise TimeoutError("open loop stalled: a response never came")
        # Spin while requests are owed (arrivals are tens of µs apart,
        # far below poll's millisecond grain); sleep only when draining.
        for fd, _ in poller.poll(0.0 if owed else 1.0):
            by_fd[fd].receive(perf_counter())
            last_heard = now
    elapsed = perf_counter() - started
    latency = np.empty(total)
    late = np.empty(total)
    for lane, connection in enumerate(connections):
        answered = connection.settle_window()  # response time - send time
        late[lane::fan] = connection.sent_at - (due[lane::fan] + started)
        latency[lane::fan] = answered + late[lane::fan]
    return latency, late, elapsed
