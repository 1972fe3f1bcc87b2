"""Transparent TCP intercept proxy for control channels.

The proxy sits as an explicit man-in-the-middle between a switch-side
client and an upstream controller.  Both directions are relayed byte for
byte; each direction is additionally segmented into messages using the
declared 16-bit length field of the common header so that one selected
message per session (the target_ordinal-th of the target type in its
direction) can be handed to a fuzz hook and replaced with the hook's
output.  Everything else, including message types the registry does not
know, is forwarded unmodified and in order.

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
import socket
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

from .codec import HEADER_BYTES, SchemaRegistry

log = logging.getLogger(__name__)

_RECV_CHUNK = 65536

Hook = Callable[[bytes], bytes]


class LengthFieldInvalidError(Exception):
    """A framed header declares a length smaller than the header itself."""


@dataclass(frozen=True)
class InterceptConfig:
    listen_host: str
    listen_port: int
    upstream_host: str
    upstream_port: int
    target_type: str
    target_ordinal: int = 1


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
                    f"declared length {declared} below header size {HEADER_BYTES}"
                )
            if len(buf) < declared:
                break
            frames.append(buf[:declared])
            self.residual = buf[declared:]
        return frames


class _Session:
    """Relay state shared by the two pumps of one connection."""

    def __init__(
        self,
        record: SessionRecord,
        target_code: int | None,
        target_ordinal: int,
        hook: Hook | None,
    ):
        self.record = record
        self.target_code = target_code
        self.target_ordinal = target_ordinal
        self.hook = hook
        self._lock = threading.Lock()

    def process(self, frame: bytes, direction: str, seen_of_type: int) -> bytes:
        """Apply the hook if this frame is the session's target."""
        if self.target_code is None or frame[1] != self.target_code:
            return frame
        with self._lock:
            self.record.target_seen = True
            if self.record.hook_fired or self.hook is None:
                return frame
            if seen_of_type != self.target_ordinal:
                return frame
            self.record.hook_fired = True
            try:
                out = self.hook(frame)
            except Exception as exc:  # hook bugs must not wedge the relay
                log.warning("session %d hook failed: %s", self.record.session_id, exc)
                self.record.error = f"hook: {exc}"
                return frame
            log.debug(
                "session %d fuzzed %s frame (%d -> %d bytes)",
                self.record.session_id, direction, len(frame), len(out),
            )
            return out


def _pump(
    src: socket.socket,
    dst: socket.socket,
    session: _Session,
    direction: str,
    count_attr: str,
) -> None:
    """Relay one direction until EOF, framing to spot the target message."""
    segmenter = StreamSegmenter()
    seen_of_type = 0
    record = session.record
    try:
        while True:
            try:
                chunk = src.recv(_RECV_CHUNK)
            except OSError:
                break
            if not chunk:
                break
            try:
                frames = segmenter.feed(chunk)
            except LengthFieldInvalidError as exc:
                record.error = f"{direction}: {exc}"
                log.warning("session %d aborted: %s", record.session_id, exc)
                break
            out = b""
            for frame in frames:
                if session.target_code is not None and frame[1] == session.target_code:
                    seen_of_type += 1
                out += session.process(frame, direction, seen_of_type)
            if out:
                try:
                    dst.sendall(out)
                except OSError:
                    break
                setattr(record, count_attr, getattr(record, count_attr) + len(out))
    finally:
        # Forward any incomplete trailing bytes, then propagate the close.
        if segmenter.residual and record.error is None:
            with contextlib.suppress(OSError):
                dst.sendall(segmenter.residual)
                setattr(
                    record, count_attr,
                    getattr(record, count_attr) + len(segmenter.residual),
                )
        with contextlib.suppress(OSError):
            dst.shutdown(socket.SHUT_WR)
        with contextlib.suppress(OSError):
            src.shutdown(socket.SHUT_RD)


class InterceptProxy:
    """Long-running proxy serving one session per accepted connection."""

    def __init__(self, config: InterceptConfig, registry: SchemaRegistry):
        self.config = config
        self.registry = registry
        self.records: list[SessionRecord] = []
        self._hooks: collections.deque[Hook] = collections.deque()
        self._hooks_lock = threading.Lock()
        self._reserve_lock = threading.Lock()
        self._records_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._session_threads: list[threading.Thread] = []
        self._running = False
        self._next_id = 0
        code = None
        if config.target_type:
            code = registry.by_name(config.target_type).header_type_code
        self._target_code = code

    @property
    def endpoint(self) -> tuple[str, int]:
        assert self._listener is not None, "proxy not started"
        host, port = self._listener.getsockname()[:2]
        return host, port

    def start(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.listen_host, self.config.listen_port))
        listener.listen(128)
        self._listener = listener
        self._running = True
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def stop(self) -> None:
        self._running = False
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept()
            with contextlib.suppress(OSError):
                self._listener.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2)
        for t in self._session_threads:
            t.join(timeout=2)

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

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while self._running:
            try:
                client, _ = self._listener.accept()
            except OSError:
                break
            with self._hooks_lock:
                hook = self._hooks.popleft() if self._hooks else None
            with self._records_lock:
                self._next_id += 1
                record = SessionRecord(session_id=self._next_id)
                self.records.append(record)
            t = threading.Thread(
                target=self._serve, args=(client, hook, record), daemon=True
            )
            self._session_threads.append(t)
            t.start()

    def _serve(self, client: socket.socket, hook: Hook | None, record: SessionRecord) -> None:
        try:
            upstream = socket.create_connection(
                (self.config.upstream_host, self.config.upstream_port), timeout=5
            )
        except OSError as exc:
            record.error = f"upstream unreachable: {exc}"
            log.warning("session %d: %s", record.session_id, record.error)
            with contextlib.suppress(OSError):
                client.close()
            return
        session = _Session(record, self._target_code, self.config.target_ordinal, hook)
        pump = threading.Thread(
            target=_pump,
            args=(client, upstream, session, "client->upstream", "bytes_client_to_upstream"),
            daemon=True,
        )
        pump.start()
        _pump(upstream, client, session, "upstream->client", "bytes_upstream_to_client")
        pump.join()
        for sock in (client, upstream):
            with contextlib.suppress(OSError):
                sock.close()
        log.info(
            "session %d done: target_seen=%s hook_fired=%s c2u=%d u2c=%d error=%s",
            record.session_id, record.target_seen, record.hook_fired,
            record.bytes_client_to_upstream, record.bytes_upstream_to_client, record.error,
        )
