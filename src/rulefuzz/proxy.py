"""Transparent TCP intercept proxy for control channels.

Loop is the package's one event loop: a `selectors` loop over listeners
and the non-blocking sockets of every live session (the Reactor
pattern).  Every session step, accept, hook call and session close runs
on the thread that serves the session's loop.  A campaign share makes a
Loop of its own and serves it inline on the share's thread.  Everything
else shares process_loop(): one loop per process, served on one daemon
thread from first use until exit.  Other threads hand work to a loop
through submit() and call().  TcpServer, the one socket server, accepts
onto a loop: the one it is given, or the process loop.  The proxy and
the mock controller in `sut` are both built on it.  Every session
socket sets TCP_NODELAY: the lock-step exchanges of a control channel
send small messages and wait for the reply, so with Nagle's algorithm
each one would wait out the peer's delayed ACK.

The proxy sits as an explicit man-in-the-middle between a switch-side
client and an upstream controller.  Both directions are relayed byte for
byte; each direction is additionally segmented into messages using the
declared 16-bit length field of the common header so that the first
message of the target type in the session can be handed to a fuzz hook
and replaced with the hook's output.  Everything else, including message
types the registry does not know, is forwarded unmodified and in order.

STEP_TIMEOUT is the one session timeout: it bounds every non-blocking
connect, the upstream dial too, and each step of a session in `sut`.

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
another thread pairs through reserve(): it queues the hook and
serializes the register-then-connect step, so accept order matches
queue order, and a connect that fails inside reserve() retracts its
hook, so it cannot be handed to a later session.  A session with no
hook is relayed untouched.  Hooks run on the loop's thread.
"""
from __future__ import annotations

import atexit
import collections
import contextlib
import errno
import logging
import os
import selectors
import socket
import struct
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Iterator

from .codec import HEADER_BYTES, SchemaRegistry

log = logging.getLogger(__name__)

_RECV_CHUNK = 65536
STEP_TIMEOUT = 10.0  # seconds a connect or a session step may wait for its peer
_STOP_GRACE = 2.0  # seconds stop() lets live sessions finish
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


class Connection:
    """A non-blocking socket on a TcpServer loop, with its own output buffer."""

    __slots__ = ("sock", "out", "events", "connecting", "shut")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.out = bytearray()  # bytes queued for the peer, not yet sent
        self.events = 0  # what the loop's selector watches this socket for
        self.connecting = False  # a connect() has started and not ended
        self.shut = False  # shut down for writing: the peer has its FIN

    def watch(self, selector: selectors.BaseSelector, session: Session, read: bool) -> None:
        """Watch for reads if `read`, and for writes while output is queued."""
        events = (selectors.EVENT_READ if read else 0) | (
            selectors.EVENT_WRITE if self.out else 0
        )
        if events == self.events:
            return
        if not self.events:
            selector.register(self.sock, events, session)
        elif not events:
            selector.unregister(self.sock)
        else:
            selector.modify(self.sock, events, session)
        self.events = events

    def connect(
        self, selector: selectors.BaseSelector, session: Session, address: tuple[str, int]
    ) -> float:
        """Start a non-blocking connect, watched for the write that ends it; OSError if it fails.

        Returns the connect's deadline, STEP_TIMEOUT from now.
        """
        self.connecting = True
        sock = self.sock
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        err = sock.connect_ex(address)
        if err not in (0, errno.EINPROGRESS):
            raise OSError(err, os.strerror(err))
        selector.register(sock, selectors.EVENT_WRITE, session)
        self.events = selectors.EVENT_WRITE
        return time.monotonic() + STEP_TIMEOUT

    def connected(self) -> None:
        """Once the socket is writable: end the connect; OSError if it failed."""
        self.connecting = False
        err = self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if err:
            raise OSError(err, os.strerror(err))

    def recv(self) -> bytes | None:
        """What the peer sent: None if nothing is there, b"" at EOF; OSError if the read failed."""
        try:
            return self.sock.recv(_RECV_CHUNK)
        except BlockingIOError:
            return None

    def send(self, data: bytes) -> int:
        """Queue `data` and send what the socket takes now; OSError if it failed."""
        sent = 0
        if not self.out:
            with contextlib.suppress(BlockingIOError):
                sent = self.sock.send(data)
        self.out += data[sent:]
        return sent

    def flush(self) -> int:
        """Send what the socket takes of the queued output; OSError if it failed."""
        try:
            sent = self.sock.send(self.out)
        except BlockingIOError:
            return 0
        del self.out[:sent]
        return sent

    def shut_write(self) -> None:
        """Send the peer a FIN; the socket still reads."""
        self.shut = True
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_WR)

    def close(self, selector: selectors.BaseSelector, reset: bool = False) -> None:
        """Close with a FIN, or with a reset, which fails the peer's next read, if `reset`."""
        if self.events:
            selector.unregister(self.sock)
            self.events = 0
        if reset:
            # a zero linger time makes close() send a reset and drop unsent bytes
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        elif not self.shut:
            # shut down first so the peer gets a FIN even when bytes it sent
            # are still unread here; close() alone would send only a reset
            self.shut_write()
        self.sock.close()


class Session:
    """One connection's state on a Loop.

    The loop calls ready() when a socket of the session is ready for the
    events the session watches it for, and expire() once `deadline` (a
    time.monotonic() value, or None for no deadline) has passed.  The
    session leaves the loop once `closed` is set.  The first close()
    calls on_close(session), if it is set.
    """

    def __init__(self, selector: selectors.BaseSelector, sock: socket.socket):
        self.selector = selector
        self.conn = Connection(sock)
        self.deadline: float | None = None
        self.closed = False
        self.on_close: Callable[[Session], None] | None = None

    def ready(self, sock: socket.socket, events: int) -> None:
        raise NotImplementedError

    def expire(self) -> None:
        self.close()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.conn.close(self.selector)
        if self.on_close is not None:
            self.on_close(self)


class Loop:
    """A `selectors` loop over listeners and live sessions (the Reactor).

    Every role of a session can run on one loop: the TcpServers whose
    listeners it watches accept onto it, and a client adds its own
    sessions with add().  The thread that calls run() serves them all,
    and only that thread may touch the loop's sessions and selector;
    another thread hands it work through submit() or call().  `thread`
    is the thread that serves the loop in the background, if one does.
    A session leaves the live set when it closes, so state does not grow
    with session count.  close() closes every live session.
    """

    def __init__(self) -> None:
        self.selector = selectors.DefaultSelector()
        self.sessions: set[Session] = set()
        self.thread: threading.Thread | None = None
        self._calls: collections.deque = collections.deque()  # (fn, its future) pairs
        # a byte on the waker wakes the loop's wait to run the queued calls
        self._waker, self._wakee = socket.socketpair()
        for end in (self._waker, self._wakee):
            end.setblocking(False)
        self.selector.register(self._wakee, selectors.EVENT_READ, self)

    def add(self, session: Session) -> None:
        if not session.closed:
            self.sessions.add(session)

    def submit(self, fn: Callable[[], object]) -> Future:
        """Run fn() on the loop's thread at its next wake; safe from any thread.

        The future returned gets fn's result or exception.
        """
        future: Future = Future()
        self._calls.append((fn, future))
        with contextlib.suppress(BlockingIOError):  # a full waker wakes the loop anyway
            self._waker.send(b"\0")
        return future

    def call(self, fn: Callable[[], object]) -> object:
        """fn()'s result, run on the loop's thread; fn's exception is raised here.

        It runs inline on the loop's own thread, or when no thread
        serves the loop.
        """
        if self.thread is None or self.thread is threading.current_thread():
            return fn()
        return self.submit(fn).result()

    def run(self, step: Callable[[], bool], deadline: float | None = None) -> None:
        """Serve until step(), called before every wait, returns True, or `deadline` passes."""
        sessions = self.sessions
        while not step():
            deadlines = [s.deadline for s in sessions if s.deadline is not None]
            if deadline is not None:
                deadlines.append(deadline)
            timeout = max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
            for key, events in self.selector.select(timeout):
                handler = key.data
                if handler is self:
                    self._run_calls()
                elif isinstance(handler, TcpServer):
                    handler._accept()
                elif handler in sessions:  # not closed earlier in this batch
                    self._call(handler.ready, handler, key.fileobj, events)
            now = time.monotonic()
            for session in [s for s in sessions if s.deadline is not None and s.deadline <= now]:
                self._call(session.expire, session)
            if deadline is not None and now >= deadline:
                return

    def _run_calls(self) -> None:
        with contextlib.suppress(BlockingIOError):
            self._wakee.recv(4096)
        while self._calls:
            fn, future = self._calls.popleft()
            try:
                future.set_result(fn())
            except BaseException as exc:  # the future's reader raises it
                future.set_exception(exc)

    def _call(self, step: Callable, session: Session, *args: object) -> None:
        """Run one session step; a step that raises closes its session only."""
        try:
            step(*args)
        except Exception:
            log.exception("session step failed")
            session.close()
        if session.closed:
            self.sessions.discard(session)

    def close(self) -> None:
        for session in list(self.sessions):
            session.close()
        self.sessions.clear()
        self.selector.close()
        self._waker.close()
        self._wakee.close()

    def __enter__(self) -> Loop:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


_process_loop: Loop | None = None
_process_loop_lock = threading.Lock()


def process_loop() -> Loop:
    """The process's one background loop: served on a daemon thread from first use until exit."""
    global _process_loop
    with _process_loop_lock:
        if _process_loop is None:
            loop = Loop()
            loop.thread = threading.Thread(
                target=loop.run, args=(lambda: loop.selector.get_map() is None,),
                name="rulefuzz-loop", daemon=True,
            )
            loop.thread.start()
            atexit.register(_close_process_loop, loop)
            _process_loop = loop
        return _process_loop


def _close_process_loop(loop: Loop) -> None:
    if loop.thread.is_alive():
        loop.call(loop.close)
        loop.thread.join()


def _forget_process_loop() -> None:
    """A forked child has no thread serving its copy of the parent's loop."""
    global _process_loop, _process_loop_lock
    _process_loop, _process_loop_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_process_loop)


class TcpServer:
    """TCP server whose sessions run on a Loop.

    The listener is bound on construction, so `endpoint` is valid before
    start(), which registers it on the server's loop; each accepted
    connection then gets its Session from open(), in accept order.  The
    server keeps its own live sessions in `_sessions`.  A server made
    without a loop serves on process_loop(), which a thread serves in
    the background: stop() closes the listener, gives the server's live
    sessions _STOP_GRACE seconds to finish, and then closes them.  A
    server made on a `loop` of the caller's is served by the thread that
    runs that loop; stop() closes its listener only, and the loop's
    owner closes what is still live.
    """

    def __init__(self, host: str, port: int, loop: Loop | None = None):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, port))
            listener.listen(128)
            listener.setblocking(False)
        except OSError:
            listener.close()
            raise
        self._listener = listener
        self._loop = process_loop() if loop is None else loop
        self._sessions: set[Session] = set()
        self._idle: threading.Event | None = None  # from stop(): set once no session is live

    @property
    def endpoint(self) -> tuple[str, int]:
        host, port = self._listener.getsockname()[:2]
        return host, port

    def start(self) -> None:
        """Accept onto the server's loop."""
        self._loop.call(
            lambda: self._loop.selector.register(self._listener, selectors.EVENT_READ, self)
        )

    def stop(self) -> None:
        self._loop.call(self._close_listener)
        if self._loop.thread is not None:  # the loop serves sessions while this waits
            self._idle.wait(_STOP_GRACE)
            self._loop.call(self._close_sessions)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def open(self, sock: socket.socket, peer: tuple[str, int]) -> Session:
        """The session of a newly accepted non-blocking socket from address `peer`."""
        raise NotImplementedError

    def _close_listener(self) -> None:
        if self._listener.fileno() >= 0:
            with contextlib.suppress(KeyError):  # a server never started is not registered
                self._loop.selector.unregister(self._listener)
            self._listener.close()
        self._idle = threading.Event()
        if not self._sessions:
            self._idle.set()

    def _close_sessions(self) -> None:
        for session in list(self._sessions):
            session.close()
            self._loop.sessions.discard(session)

    def _closed(self, session: Session) -> None:
        self._sessions.discard(session)
        if not self._sessions and self._idle is not None:
            self._idle.set()

    def _accept(self) -> None:
        """Accept every pending connection."""
        while True:
            try:
                sock, peer = self._listener.accept()
            except BlockingIOError:
                return
            except OSError as exc:
                log.warning("accept failed: %s", exc)
                return
            try:
                sock.setblocking(False)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                session = self.open(sock, peer)
            except Exception:
                log.exception("session failed to open")
                sock.close()
                continue
            if not session.closed:
                session.on_close = self._closed
                self._sessions.add(session)
                self._loop.add(session)


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
        self.record.error = f"peer quiet for {STEP_TIMEOUT} s after half-close"
        self.close()

    def close(self) -> None:
        record = self.record
        log.info(
            "session %d done: target_seen=%s hook_fired=%s c2u=%d u2c=%d error=%s",
            record.session_id, record.target_seen, record.hook_fired,
            record.bytes_client_to_upstream, record.bytes_upstream_to_client, record.error,
        )
        self.upstream.close(self.selector)
        super().close()

    def _reset(self, why: str) -> None:
        """A read failed: end the session with a reset on both legs."""
        self.record.error = why
        log.warning("session %d reset: %s", self.record.session_id, why)
        for conn in (self.upstream, self.conn):
            conn.close(self.selector, reset=True)
        self.close()

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
        self.deadline = None if both_open else time.monotonic() + STEP_TIMEOUT

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
        self._hooks: collections.deque[Hook] = collections.deque()
        self._hooks_lock = threading.Lock()
        self._reserve_lock = threading.Lock()
        self._expected: dict[tuple[str, int], Hook] = {}
        super().__init__(config.listen_host, config.listen_port, loop)

    @contextlib.contextmanager
    def reserve(self, hook: Hook) -> Iterator[tuple[str, int]]:
        """Pair `hook` with the connection made inside the with block.

        For clients on other threads.  Connect attempts are serialized so
        that kernel accept order (FIFO over completed handshakes) matches
        hook queue order.  If the block raises before the loop took the
        hook, the hook is retracted.
        """
        with self._reserve_lock:
            with self._hooks_lock:
                self._hooks.append(hook)
            try:
                yield self.endpoint
            except BaseException:
                with self._hooks_lock:
                    # nothing is queued behind it while the reserve lock is held
                    if self._hooks and self._hooks[-1] is hook:
                        self._hooks.pop()
                raise

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
        if hook is None:
            with self._hooks_lock:
                hook = self._hooks.popleft() if self._hooks else None
        record = SessionRecord(session_id=len(self.records) + 1)
        self.records.append(record)
        upstream = (self.config.upstream_host, self.config.upstream_port)
        return _ProxySession(self._loop.selector, sock, upstream, self._target_code, hook, record)
