"""Intercept proxy: framing, transparency, hook pairing, and bookkeeping."""

import contextlib
import itertools
import logging
import random
import socket
import struct
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulefuzz.reactor
from rulefuzz.codec import HEADER_BYTES, builtin_registry, encode
from rulefuzz.proxy import (
    InterceptConfig,
    InterceptProxy,
    LengthFieldInvalidError,
    StreamSegmenter,
)
from rulefuzz.reactor import Loop
from rulefuzz.sut import (
    MockController,
    build_procedure,
    connect_sut,
    default_message,
    run_procedure_on,
)

REGISTRY = builtin_registry()


def frame(type_code, length=None, fill=0xAB, declared=None):
    length = HEADER_BYTES if length is None else length
    declared = length if declared is None else declared
    body = bytes([4, type_code]) + declared.to_bytes(2, "big") + (0).to_bytes(4, "big")
    return body + bytes([fill]) * (length - HEADER_BYTES)


def chunked(data, rng):
    out = []
    i = 0
    while i < len(data):
        step = rng.randint(1, 9)
        out.append(data[i : i + step])
        i += step
    return out


def test_segmenter_reassembles_across_any_chunking():
    rng = random.Random(21)
    for _ in range(200):
        frames = [
            frame(rng.randint(0, 255), rng.randint(HEADER_BYTES, 40), fill=rng.randint(0, 255))
            for _ in range(rng.randint(1, 8))
        ]
        stream = b"".join(frames)
        seg = StreamSegmenter()
        got = []
        for chunk in chunked(stream, rng):
            got.extend(seg.feed(chunk))
        assert got == frames
        assert seg.residual == b""


def test_segmenter_keeps_partial_frame_as_residual():
    f = frame(10, 20)
    seg = StreamSegmenter()
    assert seg.feed(f[:5]) == []
    assert seg.residual == f[:5]
    assert seg.feed(f[5:] + f[:3]) == [f]
    assert seg.residual == f[:3]


def test_segmenter_rejects_undersized_declared_length():
    seg = StreamSegmenter()
    with pytest.raises(LengthFieldInvalidError):
        seg.feed(frame(10, 20, declared=HEADER_BYTES - 1))
    # the frames completed before the bad header travel with the error
    good = frame(1, 12)
    with pytest.raises(LengthFieldInvalidError) as info:
        StreamSegmenter().feed(good + good + frame(10, 20, declared=4))
    assert info.value.frames == [good, good]


def test_segment_one_shot():
    a, b = frame(1, 12), frame(2, 9)
    seg = StreamSegmenter()
    assert seg.feed(a + b + a[:4]) == [a, b]
    assert seg.residual == a[:4]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_segmenter_chunking_invariance_property(seed):
    rng = random.Random(seed)
    frames = [
        frame(rng.randint(0, 255), rng.randint(HEADER_BYTES, 24))
        for _ in range(rng.randint(1, 5))
    ]
    tail = frames[0][: rng.randint(0, HEADER_BYTES - 1)]
    stream = b"".join(frames) + tail
    seg = StreamSegmenter()
    assert seg.feed(stream) == frames
    assert seg.residual == tail


class BlockingServer:
    """Test peer: one blocking thread per accepted connection runs serve()."""

    def __init__(self):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.endpoint = self._listener.getsockname()[:2]
        self.threads = set()  # the live connection threads
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)

    def start(self):
        self._accept_thread.start()

    def stop(self):
        # close() alone does not wake a thread blocked in accept()
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()
        self._accept_thread.join(timeout=2)
        for t in list(self.threads):
            t.join(timeout=2)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def serve(self, conn):
        raise NotImplementedError

    def _accept_loop(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            t = threading.Thread(target=self._run, args=(conn,), daemon=True)
            self.threads.add(t)
            t.start()

    def _run(self, conn):
        try:
            self.serve(conn)
        finally:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_WR)
            conn.close()
            self.threads.discard(threading.current_thread())


class EchoUpstream(BlockingServer):
    """Buffers each connection until client EOF, echoes it back, closes."""

    def __init__(self):
        super().__init__()
        self.port = self.endpoint[1]
        self.start()

    def serve(self, conn):
        conn.settimeout(5)
        buf = b""
        with contextlib.suppress(OSError):
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                buf += chunk
            conn.sendall(buf)


def roundtrip(proxy, payload, hook=None):
    """One session through the proxy, paired with `hook` when one is given."""
    if hook is None:
        sock = socket.create_connection(proxy.endpoint, timeout=5)
    else:
        with proxy.reserve(hook) as endpoint:
            sock = socket.create_connection(endpoint, timeout=5)
    with sock:
        sock.settimeout(5)
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        buf = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return buf
            buf += chunk


@pytest.fixture()
def upstream():
    server = EchoUpstream()
    yield server
    server.stop()


def make_proxy(upstream_port, target_type="packet_in"):
    config = InterceptConfig(
        listen_host="127.0.0.1",
        listen_port=0,
        upstream_host="127.0.0.1",
        upstream_port=upstream_port,
        target_type=target_type,
    )
    proxy = InterceptProxy(config, REGISTRY)
    proxy.start()
    return proxy


def test_relay_is_byte_transparent_without_hook(upstream):
    proxy = make_proxy(upstream.port)
    try:
        payload = frame(0, 8) + frame(21, 8) + b"\x01\x02"  # trailing junk too
        assert roundtrip(proxy, payload) == payload
        record = proxy.records[0]
        assert record.error is None
        assert not record.hook_fired  # no packet_in in the stream
        assert record.bytes_client_to_upstream == len(payload)
        assert record.bytes_upstream_to_client == len(payload)
    finally:
        proxy.stop()


def test_hook_replaces_only_first_target_frame(upstream):
    target = REGISTRY.by_name("packet_in")
    original = frame(target.header_type_code, target.total_bytes, fill=0x11)
    replacement = frame(target.header_type_code, target.total_bytes, fill=0x99)
    calls = []

    def hook(data):
        calls.append(data)
        return replacement

    proxy = make_proxy(upstream.port)
    try:
        payload = frame(0, 8) + original + original
        got = roundtrip(proxy, payload, hook)
        # first pass through the proxy replaces occurrence one only; the
        # echoed copy must not re-trigger the session's hook
        assert got == frame(0, 8) + replacement + original
        assert calls == [original]
        record = proxy.records[0]
        assert record.target_seen and record.hook_fired
    finally:
        proxy.stop()


def test_unknown_message_types_pass_through(upstream):
    # 0xEE is not in the registry; the relay must not care
    proxy = make_proxy(upstream.port)
    try:
        payload = frame(0xEE, 16, fill=0x42)
        assert roundtrip(proxy, payload, lambda data: b"") == payload
        assert not proxy.records[0].hook_fired
    finally:
        proxy.stop()


def test_hook_exception_keeps_relay_alive(upstream):
    target = REGISTRY.by_name("packet_in")
    # the failing hook must not cost either leg its incomplete trailing frame
    payload = frame(target.header_type_code, target.total_bytes) + b"\x01\x02"

    def bad_hook(_data):
        raise RuntimeError("boom")

    proxy = make_proxy(upstream.port)
    try:
        assert roundtrip(proxy, payload, bad_hook) == payload
        record = proxy.records[0]
        assert record.hook_fired
        assert "boom" in record.error
        assert record.bytes_client_to_upstream == len(payload)
        assert record.bytes_upstream_to_client == len(payload)
    finally:
        proxy.stop()


def test_invalid_length_field_ends_only_its_leg(upstream):
    # the client leg aborts at the bad header; the valid frame before it
    # still reaches upstream, and upstream's echo still reaches the client
    valid = frame(21, 8, fill=0x33)
    proxy = make_proxy(upstream.port)
    try:
        got = roundtrip(proxy, valid + frame(10, 20, declared=4))
        assert got == valid  # the echo holds exactly what upstream received
        record = proxy.records[0]
        assert record.error.startswith("client->upstream")
        assert record.bytes_client_to_upstream == len(valid)
        assert record.bytes_upstream_to_client == len(valid)
    finally:
        proxy.stop()


def test_large_multi_frame_payload_round_trips(upstream):
    # more than the socket buffers hold, so the relay's sends block on the way
    rng = random.Random(5)
    frames = []
    while sum(map(len, frames)) < 1 << 20:
        size = rng.randint(HEADER_BYTES, 65535)
        frames.append(frame(rng.randint(0, 255), size, fill=rng.randint(0, 255)))
    payload = b"".join(frames) + frames[0][:HEADER_BYTES - 1]
    proxy = make_proxy(upstream.port)
    try:
        assert roundtrip(proxy, payload) == payload
        record = proxy.records[0]
        assert record.error is None
        assert record.bytes_client_to_upstream == len(payload)
        assert record.bytes_upstream_to_client == len(payload)
    finally:
        proxy.stop()


class StreamingEcho(BlockingServer):
    """Echoes every chunk as it arrives, until EOF."""

    def serve(self, conn):
        conn.settimeout(5)
        with contextlib.suppress(OSError):
            while chunk := conn.recv(65536):
                conn.sendall(chunk)


def test_proxy_sessions_add_no_thread():
    k = 4
    with StreamingEcho() as upstream:
        proxy = make_proxy(upstream.endpoint[1])
        before = set(threading.enumerate())
        clients = []
        try:
            for tag in range(k):
                sock = socket.create_connection(proxy.endpoint, timeout=5)
                clients.append(sock)
                sock.sendall(frame(0, 8, fill=tag))
                # the echo proves both legs of this session are relaying
                assert sock.recv(8, socket.MSG_WAITALL) == frame(0, 8, fill=tag)
            started = set(threading.enumerate()) - before
            assert len(proxy._sessions) == k
            # the k live sessions are all on the process's one loop thread
            assert started == set(upstream.threads)
        finally:
            for sock in clients:
                sock.close()
            proxy.stop()


def test_reserve_pairs_hooks_with_connections(upstream):
    target = REGISTRY.by_name("packet_in")
    proxy = make_proxy(upstream.port)
    results = {}
    try:

        def one(tag):
            marker = frame(target.header_type_code, target.total_bytes, fill=tag)

            def hook(_data):
                return marker

            with proxy.reserve(hook) as endpoint:
                sock = socket.create_connection(endpoint, timeout=5)
            try:
                sock.settimeout(5)
                sock.sendall(frame(target.header_type_code, target.total_bytes))
                sock.shutdown(socket.SHUT_WR)
                buf = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    buf += chunk
                results[tag] = buf
            finally:
                sock.close()

        threads = [threading.Thread(target=one, args=(tag,)) for tag in range(1, 9)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        for tag, buf in results.items():
            assert buf == frame(target.header_type_code, target.total_bytes, fill=tag)
        assert len(results) == 8
    finally:
        proxy.stop()


def test_expect_pairs_hooks_by_client_address(upstream):
    # the clients' handshakes complete in dial order, and their hooks are
    # registered the other way round: each must still get its own, and a
    # forgotten pairing leaves its connection relayed untouched
    target = REGISTRY.by_name("packet_in")
    request = frame(target.header_type_code, target.total_bytes)
    config = InterceptConfig("127.0.0.1", 0, "127.0.0.1", upstream.port, "packet_in")
    clients = []
    with Loop() as loop, InterceptProxy(config, REGISTRY, loop=loop) as proxy:
        try:
            for _ in range(5):
                clients.append(socket.create_connection(proxy.endpoint, timeout=5))
            for tag, sock in reversed(list(enumerate(clients))):
                marker = frame(target.header_type_code, target.total_bytes, fill=tag)
                proxy.expect(sock.getsockname()[:2], lambda _data, m=marker: m)
            proxy.forget(clients[0].getsockname()[:2])
            for sock in clients:
                sock.sendall(request)
                sock.shutdown(socket.SHUT_WR)
            loop.run(
                lambda: len(proxy.records) == len(clients) and not loop.sessions,
                time.monotonic() + 5,
            )
            got = [sock.recv(65536) for sock in clients]
        finally:
            for sock in clients:
                sock.close()
    assert got[0] == request
    for tag in range(1, len(clients)):
        assert got[tag] == frame(target.header_type_code, target.total_bytes, fill=tag)
    assert not proxy._expected
    assert [r.hook_fired for r in proxy.records] == [False] + [True] * (len(clients) - 1)


def test_run_session_single_shot(upstream):
    # one session on a fresh proxy, the hook paired through reserve()
    proxy = make_proxy(upstream.port, target_type="hello")
    replacement = frame(0, 8, fill=0)
    try:
        payload = frame(0, 8, fill=7) + frame(21, 8)
        got = roundtrip(proxy, payload, lambda _d: replacement)
        assert got == replacement + frame(21, 8)
        assert [r.hook_fired for r in proxy.records] == [True]
    finally:
        proxy.stop()


def test_run_session_upstream_unreachable():
    gone = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    gone.bind(("127.0.0.1", 0))
    dead_port = gone.getsockname()[1]
    gone.close()

    proxy = make_proxy(dead_port, target_type="hello")
    try:
        # the proxy accepts, fails to reach upstream, and resets the client;
        # the reset can arrive before create_connection returns
        with pytest.raises(ConnectionResetError):
            with socket.create_connection(proxy.endpoint, timeout=5) as sock:
                sock.recv(1)
        assert proxy.records[0].error.startswith("upstream unreachable")
    finally:
        proxy.stop()


def test_failed_connect_retracts_its_hook(upstream):
    target = REGISTRY.by_name("packet_in")
    proxy = make_proxy(upstream.port)
    stale = []

    def stale_hook(data):
        stale.append(data)
        return data

    try:
        with pytest.raises(ConnectionError):
            with proxy.reserve(stale_hook):
                raise ConnectionError("connect failed")
        for tag in range(1, 5):
            marker = frame(target.header_type_code, target.total_bytes, fill=tag)
            got = roundtrip(
                proxy, frame(target.header_type_code, target.total_bytes),
                lambda _data, m=marker: m,
            )
            assert got == marker, f"session {tag} was served another session's hook"
        assert stale == []
        assert [r.hook_fired for r in proxy.records] == [True] * 4
    finally:
        proxy.stop()


def test_failed_connects_keep_concurrent_pairing(upstream):
    # more clients than cores, each failing one connect before its session,
    # with frequent thread switches to shake out races on the hook queue
    target = REGISTRY.by_name("packet_in")
    request = frame(target.header_type_code, target.total_bytes)
    proxy = make_proxy(upstream.port)
    results = {}

    def one(tag):
        try:
            with proxy.reserve(lambda data: b"stale" + data):
                raise ConnectionError("connect failed")
        except ConnectionError:
            pass
        marker = frame(target.header_type_code, target.total_bytes, fill=tag)
        results[tag] = roundtrip(proxy, request, lambda _data: marker)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=one, args=(tag,)) for tag in range(1, 9)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
        proxy.stop()
    assert results == {
        tag: frame(target.header_type_code, target.total_bytes, fill=tag)
        for tag in range(1, 9)
    }


def test_stop_is_prompt_and_servers_add_no_thread():
    before = set(threading.enumerate())
    procedure = build_procedure("ping_exchange", "packet_in")
    controller = MockController(REGISTRY, procedure, None)
    controller.start()
    proxy = make_proxy(controller.endpoint[1])
    # a session straight to the controller, then one through the proxy
    for endpoint in (controller.endpoint, proxy.endpoint):
        outcome = run_procedure_on(connect_sut(endpoint, 5.0), procedure, REGISTRY)
        assert outcome.observations["ping_ok"]
        assert outcome.error is None
    for server in (proxy, controller):
        start = time.perf_counter()
        server.stop()
        assert time.perf_counter() - start < 0.25, type(server).__name__
        assert server._listener.fileno() == -1
        assert not server._sessions
    # both servers served on the process's one loop thread, and only there
    assert set(threading.enumerate()) - before <= {rulefuzz.reactor.process_loop().thread}


def test_stop_closes_a_live_session_at_once(upstream):
    # stop() waits for no session: the peer of one still live reads EOF
    procedure = build_procedure("ping_exchange", "packet_in")
    controller = MockController(REGISTRY, procedure, None)
    controller.start()
    proxy = make_proxy(upstream.port)
    try:
        for server in (proxy, controller):
            with socket.create_connection(server.endpoint, timeout=5) as peer:
                deadline = time.monotonic() + 5
                while not server._sessions and time.monotonic() < deadline:
                    time.sleep(0.01)
                (session,) = server._sessions
                start = time.perf_counter()
                server.stop()
                assert time.perf_counter() - start < 0.25, type(server).__name__
                assert not server._sessions and session.closed
                assert peer.recv(1) == b""
    finally:
        proxy.stop()
        controller.stop()


def test_only_the_process_loop_has_a_waker():
    # a share's loop opens no socket; the process loop's thread takes work
    with Loop() as loop:
        assert not loop.handlers
    loop = rulefuzz.reactor.process_loop()
    assert loop.call(threading.current_thread) is loop.thread


def test_sequential_sessions_leave_no_live_threads():
    procedure = build_procedure("ping_exchange", "packet_in")
    with MockController(REGISTRY, procedure, None) as controller:
        proxy = make_proxy(controller.endpoint[1])
        try:
            for _ in range(50):
                with proxy.reserve(lambda data: data) as endpoint:
                    sock = connect_sut(endpoint, 5.0)
                outcome = run_procedure_on(sock, procedure, REGISTRY)
                assert outcome.observations["ping_ok"] and outcome.error is None
            deadline = time.monotonic() + 5
            while (proxy._sessions or controller._sessions) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not proxy._sessions and not controller._sessions
            assert [r.hook_fired for r in proxy.records] == [True] * 50
        finally:
            proxy.stop()



def test_sequential_sessions_do_not_wait_on_nagle():
    # with Nagle's algorithm on, every session waits out a delayed ACK
    # (40 ms on Linux); without it a session takes about 1.5 ms
    procedure = build_procedure("ping_exchange", "packet_in")
    with MockController(REGISTRY, procedure, None) as controller:
        proxy = make_proxy(controller.endpoint[1])
        try:
            start = time.perf_counter()
            for _ in range(20):
                with proxy.reserve(lambda data: data) as endpoint:
                    sock = connect_sut(endpoint)
                outcome = run_procedure_on(sock, procedure, REGISTRY)
                assert outcome.observations["ping_ok"] and outcome.error is None
            assert time.perf_counter() - start < 0.4
        finally:
            proxy.stop()


class SmallBufferServer(BlockingServer):
    def __init__(self):
        super().__init__()
        # accepted sockets inherit it; a small fixed buffer makes the proxy
        # queue output without depending on the host's buffer autotuning
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 65536)


class FirstDeafEcho(SmallBufferServer):
    """Never reads its first connection until released; echoes every later one."""

    def __init__(self):
        super().__init__()
        self.released = threading.Event()
        self._accepted = itertools.count()

    def serve(self, conn):
        if next(self._accepted) == 0:
            self.released.wait(10)
            return
        conn.settimeout(5)
        with contextlib.suppress(OSError):
            while chunk := conn.recv(65536):
                conn.sendall(chunk)


def send_until_refused(sock, data):
    with contextlib.suppress(OSError):
        sock.sendall(data)


def test_a_peer_that_stops_reading_stalls_only_its_own_session():
    payload = frame(0, 65535) * 128  # 8 MiB, more than the socket buffers hold
    with FirstDeafEcho() as upstream:
        proxy = make_proxy(upstream.endpoint[1])
        stalled = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 65536)
        sender = threading.Thread(target=send_until_refused, args=(stalled, payload))
        try:
            stalled.connect(proxy.endpoint)
            sender.start()
            deadline = time.monotonic() + 5
            while not proxy._sessions and time.monotonic() < deadline:
                time.sleep(0.01)
            (session,) = proxy._sessions
            time.sleep(0.2)  # let the stalled leg fill its buffers
            start = time.perf_counter()
            with socket.create_connection(proxy.endpoint, timeout=5) as sock:
                sock.sendall(frame(0, 8, fill=7))
                assert sock.recv(8, socket.MSG_WAITALL) == frame(0, 8, fill=7)
            assert time.perf_counter() - start < 1
            assert sender.is_alive(), "the first session never stalled"
            start = time.perf_counter()
            proxy.stop()
            assert time.perf_counter() - start < 2.5
            assert not proxy._sessions
            assert session.conn.sock.fileno() == -1 and session.upstream.sock.fileno() == -1
        finally:
            proxy.stop()
            upstream.released.set()
            sender.join(timeout=5)
            stalled.close()
        assert not sender.is_alive()


class LateEcho(SmallBufferServer):
    """Reads nothing for 0.3 s, then echoes every chunk as it arrives, until EOF."""

    def serve(self, conn):
        time.sleep(0.3)
        conn.settimeout(5)
        with contextlib.suppress(OSError):
            while chunk := conn.recv(65536):
                conn.sendall(chunk)


class ResetAfterReading(SmallBufferServer):
    """Once `reading` is set, reads `size` bytes into `got`; resets once `resetting` is set."""

    def __init__(self, size):
        super().__init__()
        self.size = size
        self.got = b""
        self.reading = threading.Event()
        self.resetting = threading.Event()

    def serve(self, conn):
        self.reading.wait(10)
        conn.settimeout(5)
        got = bytearray()
        while len(got) < self.size and (chunk := conn.recv(self.size - len(got))):
            got += chunk
        self.got = bytes(got)
        self.resetting.wait(10)
        # closing with a zero linger time sends a reset, not a FIN
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        conn.close()


def upstream_output_queued(loop):
    """Whether the loop's one proxy session holds bytes it could not yet send upstream."""
    return any(session.upstream.out for session in loop.sessions)


def serve_until(loop, done, seconds=5):
    """Serve the loop until done(), checked at least every 10 ms, or `seconds` pass."""
    limit = time.monotonic() + seconds
    while not done() and time.monotonic() < limit:
        loop.run(done, time.monotonic() + 0.01)
    return done()


def test_output_queued_for_a_slow_upstream_is_relayed_whole():
    payload = random.Random(3).randbytes(8 << 20)
    got = bytearray()

    def receive(sock):
        with contextlib.suppress(OSError):
            while chunk := sock.recv(65536):
                got.extend(chunk)

    def send(sock):
        with contextlib.suppress(OSError):
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)

    queued = []

    def step():
        queued.append(upstream_output_queued(loop))
        return bool(proxy.records) and not loop.sessions

    with LateEcho() as upstream, Loop() as loop:
        config = InterceptConfig("127.0.0.1", 0, *upstream.endpoint, "packet_in")
        with InterceptProxy(config, REGISTRY, loop=loop) as proxy:
            with socket.create_connection(proxy.endpoint, timeout=5) as client:
                peers = [threading.Thread(target=f, args=(client,)) for f in (send, receive)]
                for thread in peers:
                    thread.start()
                loop.run(step, time.monotonic() + 20)
                assert not loop.sessions
                for thread in peers:
                    thread.join(timeout=5)
    assert any(queued), "the proxy never queued output for upstream"
    assert bytes(got) == payload
    record = proxy.records[0]
    assert record.error is None
    assert record.bytes_client_to_upstream == len(payload)
    assert record.bytes_upstream_to_client == len(payload)


def test_an_upstream_reset_drops_the_output_queued_for_it(caplog):
    block = random.Random(4).randbytes(8 << 20)
    size = 6 << 20  # more than the proxy's kernel buffers pass on before it queues

    def send(sock):
        with contextlib.suppress(OSError):
            while True:
                sock.sendall(block)

    with (
        ResetAfterReading(size) as upstream,
        Loop() as loop,
        caplog.at_level(logging.ERROR, logger="rulefuzz.reactor"),
    ):
        config = InterceptConfig("127.0.0.1", 0, *upstream.endpoint, "packet_in")
        with InterceptProxy(config, REGISTRY, loop=loop) as proxy:
            with socket.create_connection(proxy.endpoint, timeout=5) as client:
                sender = threading.Thread(target=send, args=(client,))
                sender.start()
                try:
                    assert serve_until(loop, lambda: upstream_output_queued(loop))
                    upstream.reading.set()
                    assert serve_until(
                        loop, lambda: len(upstream.got) == size and upstream_output_queued(loop)
                    )
                    upstream.resetting.set()
                    start = time.monotonic()
                    loop.run(lambda: not loop.sessions, start + 5)
                    took = time.monotonic() - start
                    assert not loop.sessions
                finally:
                    with contextlib.suppress(OSError):
                        client.shutdown(socket.SHUT_RDWR)
                    sender.join(timeout=5)
    assert took < 1
    assert upstream.got == block[:size]  # what upstream read came whole and in order
    assert "session step failed" not in caplog.text


class StallingController(BlockingServer):
    """Answers hello, then reads everything and never answers again."""

    def serve(self, conn):
        conn.settimeout(30)
        hello = encode(default_message(REGISTRY.by_name("hello")))
        got = b""
        while len(got) < len(hello):
            chunk = conn.recv(len(hello) - len(got))
            if not chunk:
                return
            got += chunk
        conn.sendall(hello)
        while conn.recv(65536):
            pass


def test_stalled_controller_is_a_switch_timeout(monkeypatch):
    # the switch waits longer than the proxy's upstream connect deadline;
    # a quiet controller must not be relayed as a dropped session
    monkeypatch.setattr(rulefuzz.reactor, "STEP_TIMEOUT", 0.3)
    procedure = build_procedure("ping_exchange", "packet_in")
    with StallingController() as controller:
        proxy = make_proxy(controller.endpoint[1])
        try:
            with proxy.reserve(lambda data: data) as endpoint:
                sock = connect_sut(endpoint, 0.6)
            outcome = run_procedure_on(sock, procedure, REGISTRY)
        finally:
            proxy.stop()
    assert proxy.records[0].hook_fired
    assert outcome.error == "timeout"
    assert not outcome.observations["closed_early"]


class DeafController(BlockingServer):
    """Answers hello, then neither reads nor writes until released."""

    def __init__(self):
        super().__init__()
        self.released = threading.Event()

    def serve(self, conn):
        conn.settimeout(5)
        hello = encode(default_message(REGISTRY.by_name("hello")))
        got = b""
        while len(got) < len(hello):
            chunk = conn.recv(len(hello) - len(got))
            if not chunk:
                return
            got += chunk
        conn.sendall(hello)
        self.released.wait(10)


def test_deaf_controller_session_ends_after_the_switch_leaves(monkeypatch):
    # the switch times out and closes its leg; the controller never reads
    # that close, so only the proxy's step timeout can end the session
    monkeypatch.setattr(rulefuzz.reactor, "STEP_TIMEOUT", 0.3)
    procedure = build_procedure("ping_exchange", "packet_in")
    controller = DeafController()
    controller.start()
    proxy = make_proxy(controller.endpoint[1])
    try:
        with proxy.reserve(lambda data: data) as endpoint:
            sock = connect_sut(endpoint, 0.5)
        assert run_procedure_on(sock, procedure, REGISTRY).error == "timeout"
        deadline = time.monotonic() + 1
        while proxy._sessions and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not proxy._sessions
        start = time.perf_counter()
        proxy.stop()
        assert time.perf_counter() - start < 0.25
    finally:
        proxy.stop()
        controller.released.set()
        controller.stop()
