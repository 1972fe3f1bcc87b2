"""Transparent TCP intercept proxy for control channels.

TcpServer is the package's one socket server: a listener, one accept
loop and one thread per live session.  The proxy and the mock
controller in `sut` are both built on it.

The proxy sits as an explicit man-in-the-middle between a switch-side
client and an upstream controller.  Both directions are relayed byte for
byte; each direction is additionally segmented into messages using the
declared 16-bit length field of the common header so that the first
message of the target type in the session can be handed to a fuzz hook
and replaced with the hook's output.  Everything else, including message
types the registry does not know, is forwarded unmodified and in order.

A session is one thread: one select loop relays both legs, each with its
own framing.  A leg that reaches EOF forwards its trailing bytes and
half-closes its destination while the other leg relays on; if that leg
stays quiet for STEP_TIMEOUT, the session ends.  Sends block,
so a peer that stops reading stalls both legs; the lock-step exchanges
of a control channel never fill a socket buffer.

One accepted connection is one independent session.  Hooks pair with
connections only through reserve(): it queues the hook and serializes
the register-then-connect step, so accept order matches queue order.  A
connect that fails inside reserve() retracts its hook, so it cannot be
handed to a later session.  A session with no queued hook is relayed
untouched.
"""
from __future__ import annotations

import collections
import contextlib
import logging
import selectors
import socket
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

from .codec import HEADER_BYTES, SchemaRegistry

log = logging.getLogger(__name__)

_RECV_CHUNK = 65536
STEP_TIMEOUT = 10.0  # seconds a session step may wait for its peer
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


class TcpServer:
    """Threaded TCP server: one accept loop, one thread per live session.

    The listener is bound on construction, so `endpoint` is valid before
    start().  admit() runs on the accept thread, in accept order; the
    arguments it returns are passed to serve() on the session's own
    thread, which closes the accepted socket when serve() returns.  A
    session thread leaves the live set when it ends, so threads do not
    grow with session count.
    """

    def __init__(self, host: str, port: int):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, port))
            listener.listen(128)
        except OSError:
            listener.close()
            raise
        self._listener = listener
        self._accept_thread: threading.Thread | None = None
        self._sessions: set[threading.Thread] = set()
        self._sessions_lock = threading.Lock()

    @property
    def endpoint(self) -> tuple[str, int]:
        host, port = self._listener.getsockname()[:2]
        return host, port

    def start(self) -> None:
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def stop(self) -> None:
        # close() alone does not wake a thread blocked in accept()
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2)
        with self._sessions_lock:
            still_open = list(self._sessions)
        for t in still_open:
            t.join(timeout=2)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def admit(self) -> tuple:
        """Per-session state that must be taken in accept order."""
        return ()

    def serve(self, sock: socket.socket, *admitted: object) -> None:
        raise NotImplementedError

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            t = threading.Thread(
                target=self._run_session, args=(sock, self.admit()), daemon=True
            )
            with self._sessions_lock:
                self._sessions.add(t)
            t.start()

    def _run_session(self, sock: socket.socket, admitted: tuple) -> None:
        try:
            self.serve(sock, *admitted)
        finally:
            # shut down first so the peer gets a FIN even when bytes it sent
            # are still unread here; close() alone would send only a reset
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_WR)
            sock.close()
            with self._sessions_lock:
                self._sessions.discard(threading.current_thread())


class InterceptProxy(TcpServer):
    """Long-running proxy serving one session per accepted connection."""

    def __init__(self, config: InterceptConfig, registry: SchemaRegistry):
        self._target_code = registry.by_name(config.target_type).header_type_code
        self.config = config
        self.records: list[SessionRecord] = []
        self._hooks: collections.deque[Hook] = collections.deque()
        self._hooks_lock = threading.Lock()
        self._reserve_lock = threading.Lock()
        super().__init__(config.listen_host, config.listen_port)

    @contextlib.contextmanager
    def reserve(self, hook: Hook) -> Iterator[tuple[str, int]]:
        """Pair `hook` with the connection made inside the with block.

        Connect attempts are serialized so that kernel accept order (FIFO
        over completed handshakes) matches hook queue order.  If the block
        raises before the accept loop took the hook, the hook is retracted.
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

    def admit(self) -> tuple[Hook | None, SessionRecord]:
        with self._hooks_lock:
            hook = self._hooks.popleft() if self._hooks else None
        record = SessionRecord(session_id=len(self.records) + 1)
        self.records.append(record)
        return hook, record

    def serve(self, client: socket.socket, hook: Hook | None, record: SessionRecord) -> None:
        try:
            upstream = socket.create_connection(
                (self.config.upstream_host, self.config.upstream_port), timeout=5
            )
        except OSError as exc:
            record.error = f"upstream unreachable: {exc}"
            log.warning("session %d: %s", record.session_id, record.error)
            return
        # the timeout bounds the connect only: a controller that goes quiet
        # must leave the switch to time out, not look like a dropped session
        upstream.settimeout(None)
        with upstream, selectors.DefaultSelector() as sel:
            # one leg per source socket; key.data is its destination,
            # its framing and its direction
            sel.register(client, selectors.EVENT_READ, (upstream, StreamSegmenter(), _C2U))
            sel.register(upstream, selectors.EVENT_READ, (client, StreamSegmenter(), _U2C))
            while sel.get_map():
                events = sel.select(None if len(sel.get_map()) == 2 else STEP_TIMEOUT)
                if not events:
                    record.error = f"peer quiet for {STEP_TIMEOUT} s after half-close"
                    break
                for key, _ in events:
                    if not self._relay(key, hook, record):
                        sel.unregister(key.fileobj)
        log.info(
            "session %d done: target_seen=%s hook_fired=%s c2u=%d u2c=%d error=%s",
            record.session_id, record.target_seen, record.hook_fired,
            record.bytes_client_to_upstream, record.bytes_upstream_to_client, record.error,
        )

    def _relay(self, key: selectors.SelectorKey, hook: Hook | None, record: SessionRecord) -> bool:
        """Relay one read of a readable leg; False once the leg has ended."""
        src, (dst, segmenter, direction) = key.fileobj, key.data
        try:
            chunk = src.recv(_RECV_CHUNK)
        except OSError:
            chunk = b""
        ended = not chunk
        try:
            frames = segmenter.feed(chunk)
        except LengthFieldInvalidError as exc:
            record.error = f"{direction}: {exc}"
            log.warning("session %d aborted: %s", record.session_id, exc)
            # relay the frames before the bad header; the rest of this leg
            # cannot be framed, so it is dropped
            frames, ended, segmenter.residual = exc.frames, True, b""
        out = b"".join(self._intercept(frame, hook, record) for frame in frames)
        if ended:
            out += segmenter.residual  # incomplete trailing bytes go too
        try:
            if out:
                dst.sendall(out)
        except OSError:
            ended = True
        else:
            if direction == _C2U:
                record.bytes_client_to_upstream += len(out)
            else:
                record.bytes_upstream_to_client += len(out)
        if ended:
            # propagate the close; the other leg relays on (half-close)
            with contextlib.suppress(OSError):
                dst.shutdown(socket.SHUT_WR)
            with contextlib.suppress(OSError):
                src.shutdown(socket.SHUT_RD)
        return not ended

    def _intercept(self, frame: bytes, hook: Hook | None, record: SessionRecord) -> bytes:
        """Apply the hook if this frame is the session's first target frame."""
        if frame[1] != self._target_code:
            return frame
        record.target_seen = True
        if record.hook_fired or hook is None:
            return frame
        record.hook_fired = True
        try:
            out = hook(frame)
        except Exception as exc:  # hook bugs must not wedge the relay
            log.warning("session %d hook failed: %s", record.session_id, exc)
            record.error = f"hook: {exc}"
            return frame
        log.debug(
            "session %d fuzzed frame (%d -> %d bytes)", record.session_id, len(frame), len(out)
        )
        return out
