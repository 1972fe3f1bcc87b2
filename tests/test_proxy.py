"""Intercept proxy: framing, transparency, hook pairing, and bookkeeping."""

import contextlib
import random
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulefuzz.proxy
from rulefuzz.codec import HEADER_BYTES, builtin_registry, encode
from rulefuzz.proxy import (
    InterceptConfig,
    InterceptProxy,
    LengthFieldInvalidError,
    StreamSegmenter,
    TcpServer,
)
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


class EchoUpstream(TcpServer):
    """Buffers each connection until client EOF, echoes it back, closes."""

    def __init__(self):
        super().__init__("127.0.0.1", 0)
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


class StreamingEcho(TcpServer):
    """Echoes every chunk as it arrives, until EOF."""

    def serve(self, conn):
        conn.settimeout(5)
        with contextlib.suppress(OSError):
            while chunk := conn.recv(65536):
                conn.sendall(chunk)


def test_proxy_holds_one_thread_per_session():
    k = 4
    with StreamingEcho("127.0.0.1", 0) as upstream:
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
            assert started - upstream._sessions == proxy._sessions
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
        # the proxy accepts, fails to reach upstream, and closes the client
        with socket.create_connection(proxy.endpoint, timeout=5) as sock:
            assert sock.recv(1) == b""
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


def test_stop_ends_accept_thread(upstream):
    procedure = build_procedure("ping_exchange", "packet_in")
    controller = MockController(REGISTRY, procedure, None)
    controller.start()
    outcome = run_procedure_on(connect_sut(controller.endpoint, 5.0), procedure, REGISTRY)
    assert outcome.observations["ping_ok"]
    assert outcome.error is None
    proxy = make_proxy(upstream.port)
    assert roundtrip(proxy, frame(0, 8)) == frame(0, 8)
    for server in (proxy, controller):
        accept_thread = server._accept_thread
        start = time.perf_counter()
        server.stop()
        assert time.perf_counter() - start < 0.25, type(server).__name__
        assert not accept_thread.is_alive()


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


class StallingController(TcpServer):
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


def test_stalled_controller_is_a_switch_timeout():
    # the switch waits longer than the proxy's 5 s upstream connect timeout;
    # a quiet controller must not be relayed as a dropped session
    procedure = build_procedure("ping_exchange", "packet_in")
    with StallingController("127.0.0.1", 0) as controller:
        proxy = make_proxy(controller.endpoint[1])
        try:
            with proxy.reserve(lambda data: data) as endpoint:
                sock = connect_sut(endpoint, 6.0)
            outcome = run_procedure_on(sock, procedure, REGISTRY)
        finally:
            proxy.stop()
    assert proxy.records[0].hook_fired
    assert outcome.error == "timeout"
    assert not outcome.observations["closed_early"]


class DeafController(TcpServer):
    """Answers hello, then neither reads nor writes until released."""

    def __init__(self):
        super().__init__("127.0.0.1", 0)
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
    monkeypatch.setattr(rulefuzz.proxy, "STEP_TIMEOUT", 0.3, raising=False)
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
