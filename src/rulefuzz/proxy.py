"""Transparent TCP intercept proxy for control channels.

The proxy sits as an explicit man-in-the-middle between a switch-side
client and an upstream controller.  Both directions are relayed byte for
byte; each direction is additionally segmented into messages using the
declared 16-bit length field of the common header so that the first
message of the target type in the session can be handed to a fuzz hook
and replaced with the hook's output.  Everything else, including message
types the registry does not know, is forwarded unmodified and in order.
InterceptProxy is a `reactor.TcpServer`: its sessions run on a
`reactor.Loop`, and its upstream dial waits at most `reactor.STEP_TIMEOUT`.

A session relays two legs, each with its own framing.  A step reads one
leg once and sends on what it read; while both legs are open and nothing
is queued, that is all it does, with no watch change and no clock read.
A leg that reaches EOF forwards its trailing bytes and half-closes its
destination while the other leg relays on; if that leg stays quiet for
STEP_TIMEOUT, the session ends, and once it has ended too, the session
closes both sockets, with no shutdown for a peer whose EOF was read.  A
read or send that fails on either leg, as a peer's reset or departure
makes it, and an upstream dial that fails or times out, fail the session
as every `reactor.Session` fails: with a reset on both legs, so the
switch's read fails as it would on a direct connection instead of
reading a clean close, and the record's `error` says why.  A session
that fails or is aborted logs a warning; one that ends cleanly logs
nothing.  Every socket has its own output buffer, and a leg whose
destination still holds unsent bytes stops reading until they drain, so
a peer that stops reading stalls only its own session.

One accepted connection is one independent session.  A client on the
proxy's own loop pairs its hook with its connection by address through
expect(); a client on another thread pairs through reserve(), under
one lock that makes accept order match the order of its hook queue.  A
session with no hook is relayed untouched.  Hooks run on the loop's
thread.
"""
from __future__ import annotations

import collections
import contextlib
import logging
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from . import reactor
from .codec import HEADER_BYTES, SchemaRegistry
from .reactor import Connection, Loop, Session, TcpServer

log = logging.getLogger(__name__)

_C2U, _U2C = "client->upstream", "upstream->client"

Hook = Callable[[bytes], bytes]


class LengthFieldInvalidError(Exception):
    """A framed header declares a length smaller than the header itself.

    `frames` holds the messages the same feed completed before that header.
    """

    def __init__(self, message: str, frames: list[bytes]):
        super().__init__(message)
        self.frames = frames


@dataclass(frozen=True)
class InterceptConfig:
    listen_host: str
    listen_port: int
    upstream_host: str
    upstream_port: int
    target_type: str


@dataclass
class SessionRecord:
    session_id: int
    target_seen: bool = False
    hook_fired: bool = False
    bytes_client_to_upstream: int = 0
    bytes_upstream_to_client: int = 0
    error: str | None = None


class StreamSegmenter:
    """Incremental reassembly of length-framed messages from a byte stream."""

    def __init__(self) -> None:
        self.residual = b""

    def feed(self, data: bytes) -> list[bytes]:
        """Consume a chunk, returning every message completed by it."""
        buf = self.residual + data if self.residual else data
        frames = []
        start, end = 0, len(buf)
        while end - start >= 4:
            declared = buf[start + 2] << 8 | buf[start + 3]
            if declared < HEADER_BYTES:
                self.residual = buf[start:]
                raise LengthFieldInvalidError(
                    f"declared length {declared} below header size {HEADER_BYTES}", frames
                )
            if end - start < declared:
                break
            frames.append(buf[start:start + declared])
            start += declared
        self.residual = buf[start:]
        return frames


class _Leg(StreamSegmenter):
    """One direction of a proxied session: frames read from `src` go to `dst`."""

    def __init__(self, src: Connection, dst: Connection, direction: str):
        super().__init__()
        self.src, self.dst, self.direction = src, dst, direction
        self.open = True  # src is still read


class _ProxySession(Session):
    """One client connection relayed to its own upstream connection."""

    def __init__(
        self,
        loop: Loop,
        client: socket.socket,
        upstream: tuple[str, int],
        target_code: int,
        hook: Hook | None,
        record: SessionRecord,
    ):
        dial = socket.socket(socket.AF_INET, socket.SOCK_STREAM | socket.SOCK_NONBLOCK)
        super().__init__(loop, client)
        self._target_code, self._hook, self.record = target_code, hook, record
        self.upstream = Connection(loop, dial, self._upstream_ready)
        self._c2u = _Leg(self.conn, self.upstream, _C2U)
        self._u2c = _Leg(self.upstream, self.conn, _U2C)
        # the client's bytes wait in the kernel until upstream is reached
        try:
            self.deadline = self.upstream.connect(upstream)
        except OSError as exc:
            self.fail(str(exc))

    def ready(self) -> None:
        self._step(self._c2u, self._u2c)

    def _upstream_ready(self) -> None:
        if self.upstream.connecting:
            self.upstream.connected()
            self._settle()
        else:
            self._step(self._u2c, self._c2u)

    def _step(self, reading: _Leg, writing: _Leg) -> None:
        """The socket that `reading` reads from and `writing` writes to is ready."""
        flushed = bool(writing.dst.out)
        if flushed:
            self._count(writing, writing.dst.flush())
        if reading.open and not reading.dst.out:  # what its socket is watched for
            self._relay(reading)
            if not flushed and reading.open and writing.open and not reading.dst.out:
                return  # both legs relay on and nothing is queued: nothing to settle
        self._settle()

    def expire(self) -> None:
        if self.upstream.connecting:
            self.fail("timed out")
            return
        # both legs open have no deadline: a quiet controller is the switch's timeout
        self.record.error = f"peer quiet for {reactor.STEP_TIMEOUT} s after half-close"
        self.close()

    def close(self, reset: bool = False) -> None:
        self.upstream.close(reset)
        super().close(reset)

    def fail(self, why: str) -> None:
        if self.upstream.connecting:
            why = f"upstream unreachable: {why}"
        self.record.error = why
        log.warning("session %d failed: %s", self.record.session_id, why)
        super().fail(why)  # close() resets both legs

    def _settle(self) -> None:
        """Half-close drained legs, then end the session or watch what is left."""
        c2u, u2c = self._c2u, self._u2c
        if not (c2u.open or u2c.open or self.conn.out or self.upstream.out):
            self.close()
            return
        for leg in (c2u, u2c):
            if not leg.open and not leg.dst.out and not leg.dst.shut:
                leg.dst.shut_write()
            # a leg whose destination holds unsent bytes stops reading
            leg.src.watch(leg.open and not leg.dst.out)
        self.deadline = None if c2u.open and u2c.open else time.monotonic() + reactor.STEP_TIMEOUT

    def _relay(self, leg: _Leg) -> None:
        """Relay one read of a readable leg; OSError if the read or the send failed."""
        chunk = leg.src.recv()
        if chunk is None:
            return
        ended = not chunk
        try:
            frames = leg.feed(chunk)
        except LengthFieldInvalidError as exc:
            self.record.error = f"{leg.direction}: {exc}"
            log.warning("session %d aborted: %s", self.record.session_id, exc)
            # relay the frames before the bad header; the rest of this leg
            # cannot be framed, so it is dropped
            frames, ended, leg.residual = exc.frames, True, b""
        target = self._target_code
        out = b"".join([self._intercept(f) if f[1] == target else f for f in frames])
        if ended:
            out += leg.residual  # incomplete trailing bytes go too
            # the other leg relays on; dst is half-closed once drained
            leg.open = False
        if out:
            self._count(leg, leg.dst.send(out))

    def _count(self, leg: _Leg, sent: int) -> None:
        if leg is self._c2u:
            self.record.bytes_client_to_upstream += sent
        else:
            self.record.bytes_upstream_to_client += sent

    def _intercept(self, frame: bytes) -> bytes:
        """Apply the hook if this target frame is the session's first."""
        record = self.record
        record.target_seen = True
        if record.hook_fired or self._hook is None:
            return frame
        record.hook_fired = True
        try:
            return self._hook(frame)
        except Exception as exc:  # hook bugs must not wedge the relay
            log.warning("session %d hook failed: %s", record.session_id, exc)
            record.error = f"hook: {exc}"
            return frame


class InterceptProxy(TcpServer):
    """Long-running proxy serving one session per accepted connection."""

    def __init__(
        self, config: InterceptConfig, registry: SchemaRegistry, loop: Loop | None = None
    ):
        self._target_code = registry.by_name(config.target_type).header_type_code
        self.config = config
        self.records: list[SessionRecord] = []
        # queued under the reserve lock; taken and retracted on the loop's thread only
        self._hooks: collections.deque[Hook] = collections.deque()
        self._reserve_lock = threading.Lock()
        self._expected: dict[tuple[str, int], Hook] = {}
        self._upstream = (config.upstream_host, config.upstream_port)
        super().__init__(config.listen_host, config.listen_port, loop)

    @contextlib.contextmanager
    def reserve(self, hook: Hook) -> Iterator[tuple[str, int]]:
        """Pair `hook` with the connection made inside the with block.

        For clients on other threads.  Connect attempts are serialized so
        that kernel accept order (FIFO over completed handshakes) matches
        hook queue order.  If the block raises before the loop took the
        hook, the hook is retracted, on the loop's thread, so that open()
        cannot take it meanwhile.
        """
        with self._reserve_lock:
            self._hooks.append(hook)
            try:
                yield self.endpoint
            except BaseException:
                self._loop.call(lambda: self._retract(hook))
                raise

    def _retract(self, hook: Hook) -> None:
        # nothing is queued behind it while the reserve lock is held
        if self._hooks and self._hooks[-1] is hook:
            self._hooks.pop()

    def expect(self, client: tuple[str, int], hook: Hook) -> None:
        """Pair `hook` with the connection from address `client`.

        For a client on the proxy's own loop: it calls this once its
        connect has started and before the loop runs again, so the loop
        cannot accept the connection first, and the pairing does not
        depend on the order connections are accepted in.  The pairing
        lasts until the connection is accepted or forget() drops it.
        """
        self._expected[client] = hook

    def waiting(self) -> int:
        """How many connections paired through expect() the proxy has not accepted."""
        return len(self._expected)

    def forget(self, client: tuple[str, int]) -> None:
        """Drop the pairing of `client`, if the proxy never accepted its connection."""
        self._expected.pop(client, None)

    def open(self, sock: socket.socket, peer: tuple[str, int]) -> Session:
        hook = self._expected.pop(peer, None)
        if hook is None and self._hooks:
            hook = self._hooks.popleft()
        record = SessionRecord(session_id=len(self.records) + 1)
        self.records.append(record)
        return _ProxySession(self._loop, sock, self._upstream, self._target_code, hook, record)
