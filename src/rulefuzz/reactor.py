"""The package's one event loop and the socket server built on it.

Loop is the package's one event loop: a `selectors` loop over listeners
and the non-blocking sockets of every live session (the Reactor
pattern).  Every session step, accept, hook call and session close runs
on the thread that serves the session's loop.  A campaign share makes a
Loop of its own and serves it inline on the share's thread.  Everything
else shares process_loop(): one loop per process, served on one daemon
thread from first use until exit.  Only that loop carries a hand-off:
other threads give it work through submit() and call(), and a socketpair
waker wakes its wait; a share's Loop opens no socket of its own.
TcpServer, the one socket server, accepts onto a loop: the one it is
given, or the process loop.  Its one stop() closes the listener and the
server's live sessions at once, on either loop.  The intercept proxy in
`proxy` and the mock controller in `sut` are both built on it.
Every session socket is made non-blocking and sets TCP_NODELAY when its
Connection is made: the lock-step exchanges of a control channel send
small messages and wait for the reply, so with Nagle's algorithm each
one would wait out the peer's delayed ACK.

STEP_TIMEOUT is the one session timeout: it bounds every non-blocking
connect, the proxy's upstream dial too, and each step of a session in
`sut`.  Both read it at call time, so setting it here sets it for all.
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
from typing import Callable

log = logging.getLogger(__name__)

_RECV_CHUNK = 65536
STEP_TIMEOUT = 10.0  # seconds a connect or a session step may wait for its peer


class Connection:
    """A non-blocking TCP_NODELAY socket on a Loop, with its own output buffer."""

    __slots__ = ("sock", "out", "events", "connecting", "shut")

    def __init__(self, sock: socket.socket):
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
    closes the session's socket, with a reset if `reset`, and calls
    on_close(session), if it is set.
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

    def close(self, reset: bool = False) -> None:
        if self.closed:
            return
        self.closed = True
        self.conn.close(self.selector, reset)
        if self.on_close is not None:
            self.on_close(self)


class Loop:
    """A `selectors` loop over listeners and live sessions (the Reactor).

    Every role of a session can run on one loop: the TcpServers whose
    listeners it watches accept onto it, and a client adds its own
    sessions with add().  The thread that calls run() serves them all,
    and only that thread may touch the loop's sessions and selector.
    `thread` is the thread that serves the loop in the background, if
    one does; only such a loop has a waker, and another thread hands it
    work through submit() or call().  A session leaves the live set when
    it closes, so state does not grow with session count.  close()
    closes every live session.
    """

    def __init__(self) -> None:
        self.selector = selectors.DefaultSelector()
        self.sessions: set[Session] = set()
        self.thread: threading.Thread | None = None
        self._calls: collections.deque = collections.deque()  # (fn, its future) pairs
        # with a thread: a byte on the waker wakes the loop's wait to run the queued calls
        self._waker: tuple[socket.socket, socket.socket] | None = None

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
            self._waker[0].send(b"\0")
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
                    self._run_calls(key.fileobj)
                elif isinstance(handler, TcpServer):
                    handler._accept()
                elif handler in sessions:  # not closed earlier in this batch
                    self._call(handler.ready, handler, key.fileobj, events)
            now = time.monotonic()
            for session in [s for s in sessions if s.deadline is not None and s.deadline <= now]:
                self._call(session.expire, session)
            if deadline is not None and now >= deadline:
                return

    def _run_calls(self, wakee: socket.socket) -> None:
        with contextlib.suppress(BlockingIOError):
            wakee.recv(4096)
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
        for end in self._waker or ():
            end.close()

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
            loop._waker = socket.socketpair()
            for end in loop._waker:
                end.setblocking(False)
            loop.selector.register(loop._waker[1], selectors.EVENT_READ, loop)
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
    server keeps its own live sessions in `_sessions`.  A server made on
    a `loop` of the caller's is served by the thread that runs that
    loop; one made without serves on process_loop().  On either, stop()
    closes the listener and the server's live sessions at once, on the
    loop's thread: each peer still connected reads EOF.
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
        self._loop.call(self._close)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def open(self, sock: socket.socket, peer: tuple[str, int]) -> Session:
        """The session of a newly accepted socket from address `peer`."""
        raise NotImplementedError

    def _close(self) -> None:
        """Close the listener and every live session of the server's."""
        if self._listener.fileno() >= 0:
            with contextlib.suppress(KeyError):  # a server never started is not registered
                self._loop.selector.unregister(self._listener)
            self._listener.close()
        self._loop.sessions.difference_update(self._sessions)
        for session in list(self._sessions):
            session.close()

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
                session = self.open(sock, peer)
            except Exception:
                log.exception("session failed to open")
                sock.close()
                continue
            if not session.closed:
                session.on_close = self._sessions.discard
                self._sessions.add(session)
                self._loop.add(session)
