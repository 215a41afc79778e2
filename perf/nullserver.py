"""A server that does no admission work: the load driver's own ceiling.

Speaks just enough of binary wire v1 to stand in for ``repro serve``:
echoes :data:`~repro.serve.wire.MAGIC`, then answers every frame with
one canned 17-byte DECISION. What a client measures against it is the
cost of the client plus the loopback — the rate no real server row can
exceed, and the one a saturation workload must stay well below.

Run as ``python -m perf.nullserver``; announces like ``repro serve``.
"""

from __future__ import annotations

import selectors
import socket

from repro.serve import wire
from repro.serve.limiter import Decision

CANNED = wire.encode_decision_binary(Decision(False, "", "exhausted", 0, 0.0))


def count_frames(buffer: bytearray) -> "tuple[int, int]":
    """``(complete frames, bytes they occupy)`` at the front of ``buffer``."""
    frames = 0
    offset = 0
    end = len(buffer)
    while end - offset >= 2:
        step = 2 + (buffer[offset] | (buffer[offset + 1] << 8))
        if offset + step > end:
            break
        offset += step
        frames += 1
    return frames, offset


def serve(listener: socket.socket) -> None:
    """Answer connections on ``listener`` until the process is killed."""
    selector = selectors.DefaultSelector()
    selector.register(listener, selectors.EVENT_READ, None)
    while True:
        for key, _ in selector.select():
            if key.data is None:
                connection, _ = listener.accept()
                connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                selector.register(connection, selectors.EVENT_READ, bytearray())
                continue
            connection, pending = key.fileobj, key.data
            try:
                chunk = connection.recv(1 << 18)
            except ConnectionError:
                chunk = b""
            if not chunk:
                selector.unregister(connection)
                connection.close()
                continue
            pending += chunk
            reply = b""
            if pending.startswith(wire.MAGIC):
                del pending[: len(wire.MAGIC)]
                reply = wire.MAGIC
            frames, used = count_frames(pending)
            del pending[:used]
            connection.sendall(reply + CANNED * frames)


def main() -> None:
    listener = socket.create_server(("127.0.0.1", 0))
    print(f"null server on 127.0.0.1:{listener.getsockname()[1]}", flush=True)
    serve(listener)


if __name__ == "__main__":
    main()
