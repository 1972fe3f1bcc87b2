"""The package's one event loop and the socket server built on it.

Loop is the package's one event loop: an `epoll` loop, so Linux only,
over listeners and the non-blocking sockets of every live session (the
Reactor pattern).  Every session step, accept, hook call and session
close runs on the thread that serves the session's loop.  A campaign
share makes a Loop of its own and serves it inline on the share's
thread.  Everything else shares process_loop(): one loop per process,
served on one daemon thread from first use until exit.  Only that loop
carries a hand-off: other threads give it work through submit() and
call(), and a socketpair waker wakes its wait.  TcpServer, the one
socket server, accepts onto a loop: the one it is given, or the process
loop.  Its one stop() closes the listener and its live sessions at once.
The intercept proxy in `proxy` and the mock controller in `sut` are both
built on it.  Every session socket is non-blocking and sets TCP_NODELAY,
as an accepted one inherits from its listener: the lock-step exchanges
of a control channel send small messages and wait for the reply, so with
Nagle's algorithm each one would wait out the peer's delayed ACK.  A
Connection calls `epoll` only when what it is watched for changes; its
close takes it off the loop with no call, after a shutdown that gives
the peer a FIN even with its bytes unread, unless its EOF was read.

STEP_TIMEOUT is the one session timeout: it bounds every non-blocking
connect, the proxy's upstream dial too, and each step of a session in
`sut`.  Both read it at call time, so setting it here sets it for all.
A step reads the clock only to set its session's deadline.

A session fails one way: a step that raises, because a connect, read or
send failed or because the step has a bug, fails its session.
Session.fail closes it with a reset, so the peer's next read fails too
instead of reading a clean close.  Only a bug's traceback is logged.
"""
from __future__ import annotations

import atexit
import collections
import contextlib
import errno
import logging
import os
import select
import socket
import struct
import threading
import time
from concurrent.futures import Future
from typing import Callable

log = logging.getLogger(__name__)

_RECV_CHUNK = 65536
STEP_TIMEOUT = 10.0  # seconds a connect or a session step may wait for its peer

IN, OUT = select.EPOLLIN, select.EPOLLOUT


class Connection:
    """A non-blocking TCP_NODELAY socket on a Loop, with its own output buffer and ready()."""

    __slots__ = ("loop", "sock", "fd", "ready", "out", "events", "connecting", "shut", "eof")

    def __init__(self, loop: Loop, sock: socket.socket, ready: Callable[[], None]):
        self.loop, self.sock, self.fd, self.ready = loop, sock, sock.fileno(), ready
        self.out = bytearray()  # bytes queued for the peer, not yet sent
        self.events = 0  # what the loop's epoll set watches this socket for
        self.connecting = False  # a connect() has started and not ended
        self.shut = False  # shut down for writing: the peer has its FIN
        self.eof = False  # the peer's EOF was read

    def watch(self, read: bool) -> None:
        """Watch for reads if `read`, and for writes while connecting or while output is queued."""
        events = (IN if read else 0) | (OUT if self.out or self.connecting else 0)
        if events == self.events:
            return
        loop = self.loop
        if not self.events:
            loop.epoll.register(self.fd, events)
            loop.handlers[self.fd] = self.ready
        elif not events:
            loop.epoll.unregister(self.fd)
            del loop.handlers[self.fd]
        else:
            loop.epoll.modify(self.fd, events)
        self.events = events

    def connect(self, address: tuple[str, int]) -> float:
        """Start a non-blocking connect of a SOCK_NONBLOCK socket; OSError if it fails.

        It is watched for the write that ends it.  Returns its deadline, STEP_TIMEOUT from now.
        """
        self.connecting = True
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        err = self.sock.connect_ex(address)
        if err not in (0, errno.EINPROGRESS):
            raise OSError(err, os.strerror(err))
        self.watch(False)
        return time.monotonic() + STEP_TIMEOUT

    def connected(self) -> None:
        """Once the socket is writable: end the connect; OSError if it failed, still connecting."""
        err = self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if err:
            raise OSError(err, os.strerror(err))
        self.connecting = False

    def recv(self) -> bytes | None:
        """What the peer sent: None if nothing is there, b"" at EOF; OSError if the read failed."""
        try:
            data = self.sock.recv(_RECV_CHUNK)
        except BlockingIOError:
            return None
        if not data:
            self.eof = True
        return data

    def send(self, data: bytes) -> int:
        """Queue `data` and send what the socket takes now; OSError if it failed."""
        sent = 0
        if not self.out:
            try:
                sent = self.sock.send(data)
            except BlockingIOError:
                pass
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
        try:
            self.sock.shutdown(socket.SHUT_WR)
        except OSError:  # a peer already gone has nothing to read a FIN with
            pass

    def close(self, reset: bool = False) -> None:
        """Close with a FIN, or with a reset, which fails the peer's next read, if `reset`."""
        if reset:
            # a zero linger time makes close() send a reset and drop unsent bytes
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        elif not self.shut and not self.eof:
            # close() alone would send a reset if bytes the peer sent were unread
            self.shut_write()
        if self.events:
            del self.loop.handlers[self.fd]
            self.events = 0
        self.ready = None  # which refers to its session: no cycle outlives the close
        self.sock.close()


class Session:
    """One connection's state on a Loop, live on it from when it is made.

    The loop calls ready() when the session's socket is ready for what
    it is watched for, or failed (a second socket has a ready of its
    own): either way, the step flushes queued output and reads if it
    reads.  It calls expire() once `deadline` (a time.monotonic() value,
    or None) has passed.  The first close() closes the socket, with a
    reset if `reset`, takes the session off its loop and calls
    on_close(session), if set.  The loop calls fail(why) when a step
    raises: it closes with a reset, and a subclass overrides it only to
    record `why`.  What can fail in a subclass's making comes first.
    """

    def __init__(self, loop: Loop, sock: socket.socket):
        self.loop = loop
        self.conn = Connection(loop, sock, self.ready)
        self.deadline: float | None = None
        self.closed = False
        self.on_close: Callable[[Session], None] | None = None
        loop.sessions.add(self)

    def ready(self) -> None:
        raise NotImplementedError

    def expire(self) -> None:
        self.close()

    def fail(self, why: str) -> None:
        self.close(reset=True)

    def close(self, reset: bool = False) -> None:
        if self.closed:
            return
        self.closed = True
        self.conn.close(reset)
        self.loop.sessions.discard(self)
        if self.on_close is not None:
            self.on_close(self)


class Loop:
    """An `epoll` loop over listeners and live sessions (the Reactor).

    Every role of a session can run on one loop: the TcpServers whose
    listeners it watches accept onto it, and a client makes its own
    sessions on it.  The thread that calls run() serves them all, and
    only it may touch `sessions`, `epoll` and `handlers` (what a ready
    report of each watched descriptor calls).  `thread` serves the loop
    in the background, if one does; only such a loop has a waker, and
    another thread hands it work through submit() or call().  A session
    leaves `sessions` when it closes.  close() closes every live session.
    """

    def __init__(self) -> None:
        self.epoll = select.epoll()
        self.handlers: dict[int, Callable[[], None]] = {}
        self.sessions: set[Session] = set()
        self.thread: threading.Thread | None = None
        self._calls: collections.deque = collections.deque()  # (fn, its future) pairs
        # with a thread: a byte on the waker wakes the loop's wait to run the queued calls
        self._waker: tuple[socket.socket, socket.socket] | None = None

    def listen(self, sock: socket.socket, ready: Callable[[], None]) -> None:
        """Call ready() whenever `sock`, a listener or the waker, is readable."""
        self.epoll.register(sock.fileno(), IN)
        self.handlers[sock.fileno()] = ready

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
        poll, handlers, sessions = self.epoll.poll, self.handlers, self.sessions
        now = time.monotonic()
        while not step():
            soonest = deadline
            for session in sessions:
                due = session.deadline
                if due is not None and (soonest is None or due < soonest):
                    soonest = due
            timeout = -1 if soonest is None else max(0.0, soonest - now)
            # each report's handler is taken before any runs: a socket closed
            # in this batch may hand its descriptor to a new one
            for fd, ready in [(fd, handlers[fd]) for fd, _ in poll(timeout)]:
                if handlers.get(fd) is ready:  # not closed or unwatched earlier in this batch
                    try:
                        ready()
                    except Exception as exc:
                        _failed(ready.__self__, exc)
            now = time.monotonic()
            if soonest is None or now < soonest:
                continue
            for session in [s for s in sessions if s.deadline is not None and s.deadline <= now]:
                try:
                    session.expire()
                except Exception as exc:
                    _failed(session, exc)
            if deadline is not None and now >= deadline:
                return

    def _run_calls(self) -> None:
        with contextlib.suppress(BlockingIOError):
            self._waker[1].recv(4096)
        while self._calls:
            fn, future = self._calls.popleft()
            try:
                future.set_result(fn())
            except BaseException as exc:  # the future's reader raises it
                future.set_exception(exc)

    def close(self) -> None:
        for session in list(self.sessions):
            session.close()
        self.epoll.close()
        for end in self._waker or ():
            end.close()

    def __enter__(self) -> Loop:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _failed(session: Session, exc: Exception) -> None:
    """A session step raised: it fails its session only."""
    if not isinstance(exc, OSError):  # a socket error is the peer's, not a bug
        log.exception("session step failed")
    session.fail(str(exc))


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
            loop.listen(loop._waker[1], loop._run_calls)
            loop.thread = threading.Thread(
                target=loop.run, args=(lambda: loop.epoll.closed,),
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
    connection then gets its Session from open(), one per ready report
    of the listener, which the loop reports again while more are
    pending.  The server keeps its live sessions in `_sessions`.  It
    serves on the `loop` given, or on process_loop().  On either, stop()
    closes the listener and the server's live sessions at once, on the
    loop's thread: each peer still connected reads EOF.
    """

    def __init__(self, host: str, port: int, loop: Loop | None = None):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # accepts inherit it
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
        self._loop.call(lambda: self._loop.listen(self._listener, self._accept))

    def stop(self) -> None:
        self._loop.call(self._close)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def open(self, sock: socket.socket, peer: tuple[str, int]) -> Session:
        """The session of a newly accepted non-blocking socket from address `peer`."""
        raise NotImplementedError

    def _close(self) -> None:
        """Close the listener and every live session of the server's."""
        if self._listener.fileno() >= 0:
            self._loop.handlers.pop(self._listener.fileno(), None)  # none if never started
            self._listener.close()
        for session in list(self._sessions):
            session.close()

    def _accept(self) -> None:
        """Accept one pending connection."""
        try:
            # socket.accept() would also make enums of the new socket's family and type
            fd, peer = self._listener._accept()
        except OSError as exc:  # BlockingIOError too: the peer may have left already
            if not isinstance(exc, BlockingIOError):
                log.warning("accept failed: %s", exc)
            return
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM, fileno=fd)
        sock.setblocking(False)
        try:
            session = self.open(sock, peer)
        except Exception:
            log.exception("session failed to open")
            sock.close()
            return
        if not session.closed:
            session.on_close = self._sessions.discard
            self._sessions.add(session)
