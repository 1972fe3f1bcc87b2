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

A session relays two legs, each with its own framing.  A leg that
reaches EOF forwards its trailing bytes and half-closes its destination
while the other leg relays on; if that leg stays quiet for STEP_TIMEOUT,
the session ends.  A read that fails on either leg, as a peer's reset
makes it, ends the session with a reset on both legs, so the switch's
read fails as it would on a direct connection instead of reading a
clean close.  Every socket has its own output buffer, and a leg whose
destination still holds unsent bytes stops reading until they drain, so
a peer that stops reading stalls only its own session.

One accepted connection is one independent session.  A client on the
proxy's own loop pairs its hook with its connection by address through
expect(), so pairing does not depend on accept order.  A client on
another thread pairs through reserve(): under its one lock it queues
the hook and makes its connect, so accept order matches queue order.
The loop's thread alone takes hooks off the queue, and a connect that
fails inside reserve() retracts its hook on that thread too, so the
hook cannot be handed to a later session.  A session with no hook is
relayed untouched.  Hooks run on the loop's thread.
"""
from __future__ import annotations

import collections
import contextlib
import logging
import selectors
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
        self.residual += data
        frames = []
        while True:
            buf = self.residual
            if len(buf) < 4:
                break
            declared = int.from_bytes(buf[2:4], "big")
            if declared < HEADER_BYTES:
                raise LengthFieldInvalidError(
                    f"declared length {declared} below header size {HEADER_BYTES}", frames
                )
            if len(buf) < declared:
                break
            frames.append(buf[:declared])
            self.residual = buf[declared:]
        return frames


class _Leg:
    """One direction of a proxied session: frames read from `src` go to `dst`."""

    __slots__ = ("src", "dst", "direction", "segmenter", "open")

    def __init__(self, src: Connection, dst: Connection, direction: str):
        self.src, self.dst, self.direction = src, dst, direction
        self.segmenter = StreamSegmenter()
        self.open = True  # src is still read


class _ProxySession(Session):
    """One client connection relayed to its own upstream connection."""

    def __init__(
        self,
        selector: selectors.BaseSelector,
        client: socket.socket,
        upstream: tuple[str, int],
        target_code: int,
        hook: Hook | None,
        record: SessionRecord,
    ):
        super().__init__(selector, client)
        self._target_code, self._hook, self.record = target_code, hook, record
        self.upstream = Connection(socket.socket(socket.AF_INET, socket.SOCK_STREAM))
        self._legs = (_Leg(self.conn, self.upstream, _C2U), _Leg(self.upstream, self.conn, _U2C))
        # the client's bytes wait in the kernel until upstream is reached
        try:
            self.deadline = self.upstream.connect(selector, self, upstream)
        except OSError as exc:
            self._unreachable(exc)

    def _unreachable(self, why: object) -> None:
        self.record.error = f"upstream unreachable: {why}"
        log.warning("session %d: %s", self.record.session_id, self.record.error)
        self.close()

    def ready(self, sock: socket.socket, events: int) -> None:
        if self.upstream.connecting:
            try:
                self.upstream.connected()
            except OSError as exc:
                self._unreachable(exc)
                return
        else:
            # a socket is the source of one leg and the destination of the other
            c2u, u2c = self._legs
            reading, writing = (c2u, u2c) if sock is self.conn.sock else (u2c, c2u)
            if events & selectors.EVENT_WRITE:
                try:
                    self._count(writing, writing.dst.flush())
                except OSError:
                    self._broken(writing)
            if events & selectors.EVENT_READ and reading.open:
                try:
                    self._relay(reading)
                except OSError as exc:  # the read failed: the peer reset, most likely
                    self._reset(f"{reading.direction}: {exc}")
                    return
        self._settle()

    def expire(self) -> None:
        if self.upstream.connecting:
            self._unreachable("timed out")
            return
        # both legs open have no deadline: a quiet controller is the switch's timeout
        self.record.error = f"peer quiet for {reactor.STEP_TIMEOUT} s after half-close"
        self.close()

    def close(self, reset: bool = False) -> None:
        record = self.record
        log.info(
            "session %d done: target_seen=%s hook_fired=%s c2u=%d u2c=%d error=%s",
            record.session_id, record.target_seen, record.hook_fired,
            record.bytes_client_to_upstream, record.bytes_upstream_to_client, record.error,
        )
        self.upstream.close(self.selector, reset)
        super().close(reset)

    def _reset(self, why: str) -> None:
        """A read failed: end the session with a reset on both legs."""
        self.record.error = why
        log.warning("session %d reset: %s", self.record.session_id, why)
        self.close(reset=True)

    def _settle(self) -> None:
        """Half-close drained legs, then end the session or watch what is left."""
        for leg in self._legs:
            if not leg.open and not leg.dst.out and not leg.dst.shut:
                leg.dst.shut_write()
        if all(leg.dst.shut for leg in self._legs):
            self.close()
            return
        for leg in self._legs:
            # a leg whose destination holds unsent bytes stops reading
            leg.src.watch(self.selector, self, leg.open and not leg.dst.out)
        both_open = all(leg.open for leg in self._legs)
        self.deadline = None if both_open else time.monotonic() + reactor.STEP_TIMEOUT

    def _relay(self, leg: _Leg) -> None:
        """Relay one read of a readable leg; OSError if the read failed."""
        chunk = leg.src.recv()
        if chunk is None:
            return
        ended = not chunk
        try:
            frames = leg.segmenter.feed(chunk)
        except LengthFieldInvalidError as exc:
            self.record.error = f"{leg.direction}: {exc}"
            log.warning("session %d aborted: %s", self.record.session_id, exc)
            # relay the frames before the bad header; the rest of this leg
            # cannot be framed, so it is dropped
            frames, ended, leg.segmenter.residual = exc.frames, True, b""
        out = b"".join(self._intercept(frame) for frame in frames)
        if ended:
            out += leg.segmenter.residual  # incomplete trailing bytes go too
            # the other leg relays on; dst is half-closed once drained
            leg.open = False
        if out:
            try:
                self._count(leg, leg.dst.send(out))
            except OSError:
                self._broken(leg)

    def _broken(self, leg: _Leg) -> None:
        """The leg's destination failed: the leg ends, and what dst still holds is dropped."""
        leg.open = False
        leg.dst.out.clear()

    def _count(self, leg: _Leg, sent: int) -> None:
        if leg.direction == _C2U:
            self.record.bytes_client_to_upstream += sent
        else:
            self.record.bytes_upstream_to_client += sent

    def _intercept(self, frame: bytes) -> bytes:
        """Apply the hook if this frame is the session's first target frame."""
        if frame[1] != self._target_code:
            return frame
        record = self.record
        record.target_seen = True
        if record.hook_fired or self._hook is None:
            return frame
        record.hook_fired = True
        try:
            out = self._hook(frame)
        except Exception as exc:  # hook bugs must not wedge the relay
            log.warning("session %d hook failed: %s", record.session_id, exc)
            record.error = f"hook: {exc}"
            return frame
        log.debug(
            "session %d fuzzed frame (%d -> %d bytes)", record.session_id, len(frame), len(out)
        )
        return out


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

    def forget(self, client: tuple[str, int]) -> None:
        """Drop the pairing of a connection that was never accepted."""
        self._expected.pop(client, None)

    def open(self, sock: socket.socket, peer: tuple[str, int]) -> Session:
        hook = self._expected.pop(peer, None)
        if hook is None and self._hooks:
            hook = self._hooks.popleft()
        record = SessionRecord(session_id=len(self.records) + 1)
        self.records.append(record)
        upstream = (self.config.upstream_host, self.config.upstream_port)
        return _ProxySession(self._loop.selector, sock, upstream, self._target_code, hook, record)
