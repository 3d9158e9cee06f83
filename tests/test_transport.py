"""Socket transport conformance: wire schema, framing, hostile input,
and Local/Remote client equivalence.

The acceptance bar: a 100-request mixed burst through a
:class:`RemoteClient` over loopback is *byte-identical* to the same
burst through a :class:`LocalClient`, on both engines — and no hostile
input (truncated frame, oversized frame, garbage bytes, disconnect
mid-batch, unknown schema version) may kill the dispatcher: the server
stays serviceable and the metrics record the event.

The client-conformance suite runs every test against both transports via
the ``any_client`` fixture parameter — the :class:`Client` protocol is
one surface, however work reaches the server.
"""

import io
import queue
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.apps import make_knn_service, make_vmscope_service
from repro.datacutter import EngineOptions
from repro.serve import (
    Client,
    LocalClient,
    PipelineServer,
    RemoteClient,
    Request,
    Response,
    SCHEMA_VERSION,
    SchemaVersionError,
    ServerClosed,
    ServerOptions,
    WireFormatError,
)
from repro.serve.requests import PendingResponse, decode_value, encode_value
from repro.serve.transport import (
    FRAME_VERSION,
    MAGIC,
    T_ERROR,
    T_HELLO,
    T_REQUEST,
    T_RESPONSE,
    FrameError,
    FrameTooLarge,
    FrameTruncated,
    encode_frame,
    parse_address,
    read_frame,
)

from repro.serve.gates import hold_next_batch

KNN_KW = dict(n_points=2_000, num_packets=3)
VM_KW = dict(image_w=96, image_h=96, tile=32, num_packets=3)


@pytest.fixture(scope="module")
def knn_service():
    return make_knn_service(**KNN_KW)


@pytest.fixture(scope="module")
def vm_service():
    return make_vmscope_service(**VM_KW)


@pytest.fixture()
def server(knn_service, vm_service):
    opts = ServerOptions(max_batch=16, max_queue=128)
    with PipelineServer([knn_service, vm_service], opts) as srv:
        yield srv


def _client(transport: str, server) -> Client:
    if transport == "local":
        return LocalClient(server, timeout=120.0)
    return RemoteClient(server.listen(), timeout=120.0)


@pytest.fixture(params=["local", "remote"])
def any_client(request, server):
    """The same conformance suite against either transport."""
    with _client(request.param, server) as client:
        yield client


# ---------------------------------------------------------------------------
# Wire schema: encode/decode on the types (satellite: to_wire/from_wire)
# ---------------------------------------------------------------------------


class TestWireSchema:
    def test_value_round_trip(self):
        value = {
            "f": 1.5,
            "i": 7,
            "s": "x",
            "none": None,
            "flag": True,
            "nan": float("nan"),
            "inf": float("-inf"),
            "arr": np.arange(12, dtype=np.float32).reshape(3, 4),
            "blob": b"\x00\x01\xff",
            "nested": {"t": (1, 2), "set": {3, 4}, "list": [1, [2, {"k": "v"}]]},
            5: "int-key",
        }
        segments: list[bytes] = []
        encoded = encode_value(value, segments)
        decoded = decode_value(encoded, segments)
        assert decoded["f"] == 1.5 and decoded["i"] == 7 and decoded["flag"] is True
        assert decoded["nan"] != decoded["nan"]  # NaN round-trips as NaN
        assert decoded["inf"] == float("-inf")
        assert decoded["arr"].dtype == np.float32
        assert decoded["arr"].tobytes() == value["arr"].tobytes()
        assert decoded["blob"] == b"\x00\x01\xff"
        assert decoded["nested"]["t"] == (1, 2)
        assert decoded["nested"]["set"] == {3, 4}
        assert decoded[5] == "int-key"
        # the decoded ndarray owns writable memory (not a frombuffer view)
        decoded["arr"][0, 0] = 99.0

    def test_ndarray_noncontiguous_and_scalar(self):
        segments: list[bytes] = []
        arr = np.arange(16).reshape(4, 4)[::2, ::2]  # strided view
        decoded = decode_value(encode_value(arr, segments), segments)
        assert np.array_equal(decoded, arr)
        segments = []
        scalar = np.float64(2.5)
        back = decode_value(encode_value(scalar, segments), segments)
        assert back == 2.5 and isinstance(back, np.floating)

    def test_unencodable_value_refused(self):
        with pytest.raises(WireFormatError, match="cannot encode"):
            encode_value(object(), [])

    def test_request_round_trip_reanchors_deadline(self):
        req = Request(
            kind="knn",
            body={"x": 0.5, "arr": np.ones(3)},
            deadline=time.monotonic() + 5.0,
        )
        header, segments = req.to_wire()
        assert header["schema"] == SCHEMA_VERSION
        assert 0.0 < header["deadline"] <= 5.0
        back = Request.from_wire(header, segments)
        assert back.kind == "knn"
        assert back.body["x"] == 0.5
        assert np.array_equal(back.body["arr"], np.ones(3))
        # re-anchored on the receiver's clock, still ~5s out
        assert 3.0 < back.deadline - time.monotonic() <= 5.0
        assert Request.from_wire(*Request(kind="t").to_wire()).deadline is None

    def test_response_round_trip(self):
        resp = Response(
            id=3,
            kind="knn",
            status="ok",
            value=np.linspace(0, 1, 7),
            latency=0.25,
            group_size=4,
            batch_size=8,
            cache_hit=True,
            retry_after=None,
        )
        back = Response.from_wire(*resp.to_wire())
        assert back.ok and back.value.tobytes() == resp.value.tobytes()
        assert back.group_size == 4 and back.cache_hit is True

    def test_unknown_schema_version_raises(self):
        header, segments = Request(kind="knn").to_wire()
        header["schema"] = SCHEMA_VERSION + 41
        with pytest.raises(SchemaVersionError, match="unsupported wire schema"):
            Request.from_wire(header, segments)
        header, segments = Response(id=1, kind="knn", status="ok").to_wire()
        header["schema"] = SCHEMA_VERSION + 41
        with pytest.raises(SchemaVersionError, match="unsupported wire schema"):
            Response.from_wire(header, segments)
        with pytest.raises(SchemaVersionError):
            Response.from_wire({"schema": None}, [])
        # current-schema frames still decode
        assert Request.from_wire(*Request(kind="knn").to_wire()).kind == "knn"

    def test_v2_request_refused(self):
        # schema 2 (pre-trace) is retired: a genuine v2 frame, which has
        # no ``trace`` key, is refused for its version, not as malformed
        header, segments = Request(kind="knn", body={"x": 0.1}).to_wire()
        header["schema"] = 2
        header.pop("trace")
        with pytest.raises(SchemaVersionError, match="unsupported wire schema"):
            Request.from_wire(header, segments)

    def test_v2_response_refused(self):
        header, segments = Response(id=1, kind="knn", status="ok").to_wire()
        header["schema"] = 2
        header.pop("trace")
        with pytest.raises(SchemaVersionError, match="unsupported wire schema"):
            Response.from_wire(header, segments)

    def test_trace_id_on_the_wire(self):
        req = Request(kind="knn", body={"x": 0.1})
        header, segments = req.to_wire()
        assert header["trace"] == req.trace_id
        assert Request.from_wire(header, segments).trace_id == req.trace_id
        resp = Response(id=1, kind="knn", status="ok", trace_id=req.trace_id)
        assert Response.from_wire(*resp.to_wire()).trace_id == req.trace_id

    def test_malformed_trace_id_rejected(self):
        header, segments = Request(kind="knn").to_wire()
        header["trace"] = 1234
        with pytest.raises(WireFormatError, match="trace"):
            Request.from_wire(header, segments)

    def test_segment_index_validated(self):
        # negative indices must not alias from the end of the segment list
        for bad in (-1, 2, True, "0", None):
            with pytest.raises(WireFormatError, match="segment index"):
                decode_value({"__bytes__": bad}, [b"a", b"b"])
        with pytest.raises(WireFormatError, match="segment index"):
            decode_value(
                {"__ndarray__": {"dtype": "<f8", "shape": [1], "segment": -1}},
                [b"x" * 8],
            )

    def test_malformed_header_raises_wire_error(self):
        with pytest.raises(WireFormatError, match="missing"):
            Request.from_wire({"schema": SCHEMA_VERSION}, [])
        with pytest.raises(WireFormatError):
            Request.from_wire(
                {"schema": SCHEMA_VERSION, "kind": 7, "body": {"__map__": []}}, []
            )


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


class TestFraming:
    def test_frame_round_trip(self):
        segments = [b"abc", b"", b"\x00" * 100]
        frame = encode_frame(T_REQUEST, {"k": 1}, segments)
        ftype, header, segs, nbytes = read_frame(io.BytesIO(frame))
        assert (ftype, header, segs) == (T_REQUEST, {"k": 1}, segments)
        assert nbytes == len(frame)

    def test_empty_stream_is_clean_eof(self):
        assert read_frame(io.BytesIO(b"")) is None

    def test_truncated_frame(self):
        frame = encode_frame(T_REQUEST, {"k": 1}, [b"payload"])
        with pytest.raises(FrameTruncated):
            read_frame(io.BytesIO(frame[:-3]))
        with pytest.raises(FrameTruncated):
            read_frame(io.BytesIO(frame[:7]))

    def test_bad_magic_is_desync(self):
        with pytest.raises(FrameError, match="magic"):
            read_frame(io.BytesIO(b"GARBAGE-GARBAGE-GARBAGE-"))

    def test_unknown_frame_version(self):
        frame = bytearray(encode_frame(T_REQUEST, {}))
        frame[4] = 99
        with pytest.raises(FrameError, match="frame version"):
            read_frame(io.BytesIO(bytes(frame)))

    def test_oversized_frame_consumed_and_raised(self):
        big = encode_frame(T_REQUEST, {"pad": "x" * 5000})
        tail = encode_frame(T_REQUEST, {"next": 1})
        stream = io.BytesIO(big + tail)
        with pytest.raises(FrameTooLarge):
            read_frame(stream, max_frame=1024)
        # the oversized frame was fully discarded: the stream is aligned
        ftype, header, _segs, _n = read_frame(stream, max_frame=1024)
        assert header == {"next": 1}

    def test_bad_json_header_is_recoverable(self):
        bad = struct.pack("!4sBBHI", MAGIC, FRAME_VERSION, T_REQUEST, 0, 4) + b"{{{{"
        stream = io.BytesIO(bad + encode_frame(T_REQUEST, {"ok": True}))
        with pytest.raises(WireFormatError, match="JSON"):
            read_frame(stream)
        assert read_frame(stream)[1] == {"ok": True}

    def test_parse_address(self):
        assert parse_address("10.0.0.1:7070") == ("10.0.0.1", 7070)
        assert parse_address(("h", 1)) == ("h", 1)
        with pytest.raises(ValueError):
            parse_address("7070")


# ---------------------------------------------------------------------------
# Client conformance: one suite, both transports (satellite: Client protocol)
# ---------------------------------------------------------------------------


class TestClientConformance:
    def test_satisfies_client_protocol(self, any_client):
        assert isinstance(any_client, Client)

    def test_call_and_submit(self, any_client):
        response = any_client.knn(0.3, 0.3, 0.3)
        assert response.ok and isinstance(response.value, np.ndarray)
        pending = any_client.submit("knn", {"x": 0.3, "y": 0.3, "z": 0.3})
        assert pending.result(60).value.tobytes() == response.value.tobytes()

    @pytest.mark.parametrize("transport", ["local", "remote"])
    def test_burst_coalesces(self, transport, knn_service):
        server = PipelineServer([knn_service], ServerOptions(max_batch=16))
        hold_next_batch(server, 6)
        with server, _client(transport, server) as client:
            responses = client.burst([("knn", {"x": 0.4, "y": 0.4, "z": 0.4})] * 6)
        assert all(r.ok for r in responses)
        assert {r.value.tobytes() for r in responses} == {
            responses[0].value.tobytes()
        }
        assert {r.group_size for r in responses} == {6}

    def test_stats_surface(self, any_client):
        any_client.knn(0.5, 0.5, 0.5)
        stats = any_client.stats()
        assert stats["served"] >= 1
        assert "transport" in stats and "latency" in stats

    def test_drain_collects_outstanding(self, any_client):
        for _ in range(3):
            any_client.submit("knn", {"x": 0.6, "y": 0.6, "z": 0.6})
        drained = any_client.drain(timeout=60)
        assert len(drained) == 3 and all(r.ok for r in drained)
        assert any_client.drain(timeout=1) == []

    def test_unknown_kind_raises(self, any_client):
        with pytest.raises(ValueError, match="unknown request kind"):
            any_client.submit("nope", {})

    def test_vmscope_convenience(self, any_client):
        response = any_client.vmscope("small")
        assert response.ok and isinstance(response.value, np.ndarray)


class TestRemoteClientLifecycle:
    def test_closed_client_refuses_submissions(self, server):
        client = RemoteClient(server.listen(), timeout=60.0)
        assert client.knn(0.2, 0.2, 0.2).ok
        client.close()
        with pytest.raises(ServerClosed):
            client.submit("knn", {"x": 0.1})
        client.close()  # idempotent

    def test_connect_without_listener_fails(self):
        sock = socket.create_server(("127.0.0.1", 0))
        host, port = sock.getsockname()[:2]
        sock.close()
        with pytest.raises(OSError):
            RemoteClient((host, port), connect_timeout=0.5)

    def test_server_stop_fails_inflight_remotely(self, knn_service):
        server = PipelineServer([knn_service], ServerOptions(max_batch=1)).start()
        client = RemoteClient(server.listen(), timeout=30.0)
        pending = [
            client.submit("knn", {"x": x, "y": x, "z": x})
            for x in (0.11, 0.22, 0.33)
        ]
        server.stop(drain=False)
        statuses = {p.result(20).status for p in pending}
        # whatever wasn't served resolves: shutdown relayed over the wire,
        # or a connection-loss error — never a hang
        assert statuses <= {"ok", "shutdown", "error"}
        client.close()


# ---------------------------------------------------------------------------
# Hostile input: the dispatcher must survive all of it (satellite)
# ---------------------------------------------------------------------------


def _raw_connection(address) -> tuple[socket.socket, "socket.SocketIO"]:
    sock = socket.create_connection(address, timeout=10.0)
    rfile = sock.makefile("rb")
    hello = read_frame(rfile)
    assert hello is not None and hello[0] == T_HELLO
    return sock, rfile


def _assert_serviceable(server) -> None:
    """A fresh client still gets answers — the dispatcher survived."""
    with RemoteClient(server._listener.address, timeout=60.0) as probe:
        assert probe.knn(0.25, 0.25, 0.25).ok


class TestHostileInput:
    def test_garbage_bytes_close_connection_not_server(self, server):
        addr = server.listen()
        sock, rfile = _raw_connection(addr)
        # exactly one fixed header's worth of garbage: the server reads it
        # all before closing, so the error frame arrives on an orderly FIN
        sock.sendall(b"\xde\xad\xbe\xef" * 3)
        frame = read_frame(rfile)  # structured error before the close
        assert frame is not None and frame[0] == T_ERROR
        assert "magic" in frame[1]["error"]
        assert rfile.read(1) == b""  # then EOF: desync closes the stream
        sock.close()
        _assert_serviceable(server)
        assert server.metrics.decode_errors >= 1

    def test_truncated_frame_records_disconnect(self, server):
        addr = server.listen()
        sock, _rfile = _raw_connection(addr)
        frame = encode_frame(T_REQUEST, *Request(kind="knn", body={"x": 0.1}).to_wire())
        sock.sendall(frame[: len(frame) - 4])
        sock.shutdown(socket.SHUT_RDWR)  # EOF lands mid-frame
        sock.close()
        deadline = time.monotonic() + 5
        while server.metrics.disconnects < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.metrics.disconnects >= 1
        _assert_serviceable(server)

    def test_oversized_frame_gets_error_and_connection_survives(
        self, knn_service
    ):
        opts = ServerOptions(max_frame_bytes=4096)
        with PipelineServer([knn_service], opts) as server:
            addr = server.listen()
            sock, rfile = _raw_connection(addr)
            request = Request(kind="knn", body={"blob": b"x" * 10_000})
            sock.sendall(encode_frame(T_REQUEST, *request.to_wire()))
            frame = read_frame(rfile)
            assert frame is not None and frame[0] == T_ERROR
            assert "cap" in frame[1]["error"]
            # the connection is still usable for a well-formed request
            good = Request(kind="knn", body={"x": 0.3, "y": 0.3, "z": 0.3})
            sock.sendall(encode_frame(T_REQUEST, *good.to_wire()))
            frame = read_frame(rfile)
            assert frame is not None and frame[0] == T_RESPONSE
            assert frame[1]["status"] == "ok"
            sock.close()
            assert server.metrics.decode_errors >= 1

    def test_unknown_schema_version_gets_structured_error(self, server):
        addr = server.listen()
        sock, rfile = _raw_connection(addr)
        header, segments = Request(kind="knn", body={"x": 0.1}).to_wire()
        header["schema"] = 99
        sock.sendall(encode_frame(T_REQUEST, header, segments))
        frame = read_frame(rfile)
        assert frame is not None and frame[0] == T_ERROR
        assert "schema version" in frame[1]["error"]
        assert frame[1]["cid"] == header["id"]  # attributed to the request
        # same connection still serves current-schema frames
        good = Request(kind="knn", body={"x": 0.3, "y": 0.3, "z": 0.3})
        sock.sendall(encode_frame(T_REQUEST, *good.to_wire()))
        assert read_frame(rfile)[1]["status"] == "ok"
        sock.close()
        _assert_serviceable(server)

    def test_disconnect_mid_batch_does_not_kill_dispatcher(self, server):
        addr = server.listen()
        sock, _rfile = _raw_connection(addr)
        for x in (0.15, 0.35, 0.55, 0.75):
            request = Request(kind="knn", body={"x": x, "y": x, "z": x})
            sock.sendall(encode_frame(T_REQUEST, *request.to_wire()))
        sock.shutdown(socket.SHUT_RDWR)  # vanish while the batch is in flight
        sock.close()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if server.metrics.disconnects >= 1 or server.metrics.connections_closed >= 1:
                break
            time.sleep(0.02)
        _assert_serviceable(server)
        stats = server.stats()
        assert stats["transport"]["connections_closed"] >= 1

    def test_close_with_full_inflight_queue_returns_promptly(self, server):
        # regression: close() used to do a blocking put on the bounded
        # in-flight queue — full under flow control — and hang stop()
        addr = server.listen()
        sock, _rfile = _raw_connection(addr)
        deadline = time.monotonic() + 5
        while not server._listener._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        (conn,) = list(server._listener._connections)
        # fill the window with never-resolving futures (a busy client)
        while True:
            try:
                conn.inflight.put_nowait((None, PendingResponse(Request(kind="knn"))))
            except queue.Full:
                break
        closer = threading.Thread(target=conn.close)
        closer.start()
        closer.join(timeout=5)
        assert not closer.is_alive(), "close() deadlocked on a full in-flight queue"
        sock.close()
        _assert_serviceable(server)

    def test_unframeable_response_reported_not_fatal(self, server):
        # regression: a response with >65535 segments raises struct.error
        # in the writer, which used to kill the thread and wedge the
        # connection instead of coming back as a structured error
        addr = server.listen()
        sock, rfile = _raw_connection(addr)
        deadline = time.monotonic() + 5
        while not server._listener._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        (conn,) = list(server._listener._connections)
        req = Request(kind="knn")
        pending = PendingResponse(req)
        pending.resolve(
            Response(id=req.id, kind="knn", status="ok", value=[b"x"] * 70_000)
        )
        conn.inflight.put((123, pending))
        frame = read_frame(rfile)
        assert frame is not None and frame[0] == T_ERROR
        assert "not wire-encodable" in frame[1]["error"]
        assert frame[1]["cid"] == 123
        # the writer survived: the same connection still serves requests
        good = Request(kind="knn", body={"x": 0.3, "y": 0.3, "z": 0.3})
        sock.sendall(encode_frame(T_REQUEST, *good.to_wire()))
        frame = read_frame(rfile)
        assert frame is not None and frame[0] == T_RESPONSE
        assert frame[1]["status"] == "ok"
        sock.close()

    def test_oversized_submit_fails_locally_not_inflight(self, knn_service):
        # regression: an oversized request used to reach the server, come
        # back as an unattributed T_ERROR (cid=None), and spuriously fail
        # every other request in flight on the connection
        opts = ServerOptions(max_frame_bytes=8192, max_batch=4)
        with PipelineServer([knn_service], opts) as server:
            with RemoteClient(server.listen(), timeout=60.0) as client:
                assert client.max_frame == 8192
                pending = [
                    client.submit("knn", {"x": x, "y": x, "z": x})
                    for x in (0.2, 0.4)
                ]
                with pytest.raises(WireFormatError, match="frame cap"):
                    client.submit("knn", {"blob": b"x" * 20_000})
                # concurrent in-flight requests are untouched by the failure
                assert all(p.result(60).ok for p in pending)
                assert client.knn(0.3, 0.3, 0.3).ok

    def test_connection_gauges_track_clients(self, server):
        addr = server.listen()
        with RemoteClient(addr) as a, RemoteClient(addr) as b:
            assert a.knn(0.2, 0.2, 0.2).ok and b.knn(0.2, 0.2, 0.2).ok
            assert server.metrics.connections_active == 2
        deadline = time.monotonic() + 5
        while server.metrics.connections_active > 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.metrics.connections_active == 0
        assert server.metrics.connections_opened >= 2
        trace_streams = {q.stream for q in server.metrics.trace.queue_samples}
        assert "serve.connections" in trace_streams


# ---------------------------------------------------------------------------
# Flow control
# ---------------------------------------------------------------------------


class TestFlowControl:
    def test_rejection_maps_to_wire_retry_after(self, knn_service):
        opts = ServerOptions(admission="reject", max_queue=1, max_batch=1)
        with PipelineServer([knn_service], opts) as server:
            with RemoteClient(server.listen(), timeout=60.0) as client:
                pending = [
                    client.submit("knn", {"x": x, "y": x, "z": x})
                    for x in (0.1, 0.2, 0.3, 0.4, 0.5)
                ]
                responses = [p.result(60) for p in pending]
        rejected = [r for r in responses if r.status == "rejected"]
        assert rejected, [r.status for r in responses]
        assert all(
            r.retry_after is not None and r.retry_after > 0 for r in rejected
        )
        assert any(r.ok for r in responses)

    def test_inflight_bound_backpressures_not_drops(self, knn_service):
        # tiny per-connection window; every request must still be served
        opts = ServerOptions(max_batch=8, max_inflight=2)
        with PipelineServer([knn_service], opts) as server:
            with RemoteClient(server.listen(), timeout=120.0) as client:
                responses = client.burst(
                    [("knn", {"x": 0.3, "y": 0.3, "z": 0.3})] * 12
                )
        assert len(responses) == 12 and all(r.ok for r in responses)


# ---------------------------------------------------------------------------
# Trace context across the socket
# ---------------------------------------------------------------------------


class TestSchemaCompat:
    def test_v2_client_refused_by_v3_server(self, server):
        addr = server.listen()
        sock, rfile = _raw_connection(addr)
        header, segments = Request(
            kind="knn", body={"x": 0.3, "y": 0.3, "z": 0.3}
        ).to_wire()
        header["schema"] = 2
        header.pop("trace")  # a v2 client never sends one
        sock.sendall(encode_frame(T_REQUEST, header, segments))
        frame = read_frame(rfile)
        assert frame is not None and frame[0] == T_ERROR
        assert "schema version" in frame[1]["error"]
        assert frame[1]["cid"] == header["id"]
        # the refusal costs the connection nothing: v3 frames still serve
        good = Request(kind="knn", body={"x": 0.3, "y": 0.3, "z": 0.3})
        sock.sendall(encode_frame(T_REQUEST, *good.to_wire()))
        frame = read_frame(rfile)
        assert frame is not None and frame[0] == T_RESPONSE
        assert frame[1]["status"] == "ok"
        sock.close()
        _assert_serviceable(server)

    def test_trace_id_round_trips_over_the_wire(self, server):
        with RemoteClient(server.listen(), timeout=60.0) as client:
            pending = client.submit("knn", {"x": 0.3, "y": 0.3, "z": 0.3})
            minted = pending.request.trace_id
            response = pending.result(60)
        assert response.ok and response.trace_id == minted
        # ... and the server's trace recorded stage spans under that id
        traces = {
            s.trace for s in server.metrics.trace.spans if s.trace is not None
        }
        assert minted in traces


class TestTracingModes:
    """The conformance surface with request tracing on and off."""

    @pytest.fixture(params=["traced", "untraced"])
    def mode_server(self, request, knn_service, vm_service):
        opts = ServerOptions(
            max_batch=16,
            max_queue=128,
            trace_requests=(request.param == "traced"),
        )
        with PipelineServer([knn_service, vm_service], opts) as srv:
            yield srv

    @pytest.fixture(params=["local", "remote"])
    def mode_client(self, request, mode_server):
        if request.param == "local":
            client = LocalClient(mode_server, timeout=120.0)
        else:
            client = RemoteClient(mode_server.listen(), timeout=120.0)
        with client:
            yield client

    def test_burst_and_stats_either_mode(self, mode_server, mode_client):
        responses = mode_client.burst(
            [("knn", {"x": 0.3, "y": 0.3, "z": 0.3})] * 4
            + [("vmscope", {"query": "small"})]
        )
        assert all(r.ok for r in responses)
        assert all(r.trace_id for r in responses)  # ids flow either way
        stats = mode_client.stats(deep=True)
        assert stats["served"] >= 5
        assert stats["latency"]["p95"] > 0.0  # histograms always on
        assert "windows" in stats
        # per-request stage spans are gated by trace_requests; the
        # per-execution spans (execute/request) stay on regardless
        stage_spans = [
            s
            for s in mode_server.metrics.trace.spans
            if s.phase in ("admission", "queue", "assemble", "extract", "write")
        ]
        if mode_server.options.trace_requests:
            assert stage_spans and any(s.trace for s in stage_spans)
        else:
            assert not stage_spans


# ---------------------------------------------------------------------------
# Acceptance: remote burst byte-identical to local, both engines
# ---------------------------------------------------------------------------


def _mixed_requests(n: int) -> list:
    points = [(0.2, 0.2, 0.2), (0.8, 0.3, 0.5), (0.5, 0.5, 0.5), (0.1, 0.9, 0.4)]
    out = []
    for i in range(n):
        if i % 3 == 2:
            out.append(("vmscope", {"query": ("small", "large")[i % 2]}))
        else:
            x, y, z = points[i % len(points)]
            out.append(("knn", {"x": x, "y": y, "z": z}))
    return out


class TestRemoteEqualsLocal:
    def test_threaded_100_request_burst_byte_identical(
        self, knn_service, vm_service
    ):
        requests = _mixed_requests(100)
        server = PipelineServer(
            [knn_service, vm_service], ServerOptions(max_batch=32, max_queue=128)
        )
        # the local burst's first 32 requests are one batch
        hold_next_batch(server, len(requests))
        with server:
            local = LocalClient(server, timeout=600.0)
            local_responses = local.burst(requests)
            with RemoteClient(server.listen(), timeout=600.0) as remote:
                remote_responses = remote.burst(requests)
                stats = remote.stats()
        assert all(r.ok for r in local_responses)
        assert all(r.ok for r in remote_responses), [
            (r.status, r.error) for r in remote_responses if not r.ok
        ][:1]
        for a, b in zip(local_responses, remote_responses):
            assert isinstance(b.value, np.ndarray)
            assert a.value.shape == b.value.shape
            assert a.value.tobytes() == b.value.tobytes()
        # the remote burst went through the same serving machinery
        assert stats["transport"]["frames_in"] >= 100
        assert stats["executions"] < 2 * len(requests)
        assert stats["batch_occupancy_mean"] > 1.0
        assert stats["plan_cache_hits"] > 0

    def test_process_engine_burst_byte_identical(self, knn_service, vm_service):
        requests = _mixed_requests(30)
        opts = ServerOptions(
            engine_options=EngineOptions(engine="process", timeout=120.0),
            max_batch=30,
            max_queue=64,
        )
        with PipelineServer([knn_service, vm_service], opts) as server:
            local = LocalClient(server, timeout=600.0)
            local_responses = local.burst(requests)
            with RemoteClient(server.listen(), timeout=600.0) as remote:
                remote_responses = remote.burst(requests)
        assert all(r.ok for r in local_responses)
        assert all(r.ok for r in remote_responses), [
            (r.status, r.error) for r in remote_responses if not r.ok
        ][:1]
        for a, b in zip(local_responses, remote_responses):
            assert a.value.tobytes() == b.value.tobytes()


class TestConcurrentConnections:
    def test_many_clients_one_dispatcher(self, server):
        addr = server.listen()
        results: dict[int, list] = {}
        errors: list = []

        def worker(idx: int) -> None:
            try:
                with RemoteClient(addr, timeout=120.0) as client:
                    results[idx] = client.burst(
                        [("knn", {"x": 0.3, "y": 0.3, "z": 0.3})] * 5
                    )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert len(results) == 4
        blobs = {
            r.value.tobytes() for responses in results.values() for r in responses
        }
        assert len(blobs) == 1  # every client saw the same bytes
