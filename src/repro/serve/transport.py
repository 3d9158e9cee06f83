"""Socket transport: the same serving path, reachable from other hosts.

The paper's pipelines span a *chain of hosts* (data host → compute nodes
→ viewing node), but until this module the server only accepted work
through the in-process :class:`~repro.serve.client.LocalClient`.  The
transport closes that gap without forking the execution path: a frame
decoded off a socket becomes an ordinary
:class:`~repro.serve.requests.Request` and enters the *same* admission →
micro-batch → plan-cache → warm-engine pipeline as a local call.  One
canonical path, however the work arrives.

Wire frame (all integers big-endian)::

    offset  size        field
    0       4           magic  b"DCUT"
    4       1           frame version (currently 1)
    5       1           frame type: 1=request 2=response 3=error 4=hello
    6       2           segment count  n
    8       4           header length  H
    12      4*n         segment lengths  L_0 .. L_{n-1}
    12+4n   H           header (UTF-8 JSON)
    ...     sum(L_i)    binary segments, concatenated

The JSON header is the :meth:`Request.to_wire` / :meth:`Response.to_wire`
dict (schema-versioned independently of the frame version); binary
segments carry bulk payloads (ndarray buffers, bytes) referenced by index
from the header.  ``H + sum(L_i)`` is capped
(:attr:`ServerOptions.max_frame_bytes`); an oversized frame is discarded
in bounded chunks and answered with a structured error — the connection
stays up.  A bad magic means the stream is desynchronized and the
connection is closed; a clean or mid-frame EOF just ends the connection.

Server side, :class:`TransportListener` accepts concurrent connections;
each gets a reader thread (decode → ``server.submit_request``) and a
writer thread draining a *bounded* in-flight queue in FIFO order.  The
bound is the per-connection flow control: when a client has
``max_inflight`` unanswered requests the reader stops reading, TCP
backpressure does the rest.  Admission-control rejections need no
special handling — the server resolves the future immediately with
``status="rejected"`` and ``retry_after``, and that response flows back
over the wire like any other.

Client side, :class:`~repro.serve.client.RemoteClient` mirrors
``LocalClient`` call-for-call over one connection (see
:mod:`repro.serve.client`); the helpers here (:func:`write_frame` /
:func:`read_frame` / :func:`parse_address`) are shared by both ends.
"""

from __future__ import annotations

import json
import queue
import socket
import struct
import threading
import time
from typing import TYPE_CHECKING, Any, BinaryIO, Sequence

from .requests import (
    Request,
    Response,
    SchemaVersionError,
    WireFormatError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, no import cycle
    from .server import PipelineServer

MAGIC = b"DCUT"
FRAME_VERSION = 1

#: frame types
T_REQUEST = 1
T_RESPONSE = 2
T_ERROR = 3
T_HELLO = 4

#: fixed header: magic, frame version, frame type, nseg, header length
_FIXED = struct.Struct("!4sBBHI")

#: default cap on one frame's variable part (header + segments)
DEFAULT_MAX_FRAME = 64 * 1024 * 1024
#: default per-connection in-flight bound (flow control)
DEFAULT_MAX_INFLIGHT = 64


class FrameError(RuntimeError):
    """An unrecoverable framing problem — the stream is desynchronized
    (bad magic, unknown frame version) and the connection must close."""


class FrameTooLarge(FrameError):
    """A well-framed message over the size cap.  Recoverable: the frame
    was discarded in full, the stream stays aligned."""

    def __init__(self, declared: int, cap: int) -> None:
        super().__init__(f"frame of {declared} bytes exceeds the {cap}-byte cap")
        self.declared = declared
        self.cap = cap


class FrameTruncated(ConnectionError):
    """EOF in the middle of a frame (peer died or sent a short frame)."""


def parse_address(address: str | tuple[str, int]) -> tuple[str, int]:
    """``"host:port"`` or an already-split tuple -> ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return host, int(port)
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be 'host:port', got {address!r}")
    return host, int(port)


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_frame(
    ftype: int, header: dict[str, Any], segments: Sequence[bytes] = ()
) -> bytes:
    """One wire frame as bytes (see the module docstring for the layout)."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    parts = [
        _FIXED.pack(MAGIC, FRAME_VERSION, ftype, len(segments), len(header_bytes)),
        struct.pack(f"!{len(segments)}I", *(len(s) for s in segments)),
        header_bytes,
        *segments,
    ]
    return b"".join(parts)


def frame_overhead(nseg: int) -> int:
    """Fixed bytes a frame wraps around its variable part; ``len(frame) -
    frame_overhead(nseg)`` is the size :func:`read_frame` checks against
    ``max_frame`` (senders use this to pre-check against the peer's cap)."""
    return _FIXED.size + 4 * nseg


def write_frame(
    sock: socket.socket,
    ftype: int,
    header: dict[str, Any],
    segments: Sequence[bytes] = (),
    lock: threading.Lock | None = None,
) -> int:
    """Serialize and send one frame atomically; returns bytes written."""
    frame = encode_frame(ftype, header, segments)
    if lock is not None:
        with lock:
            sock.sendall(frame)
    else:
        sock.sendall(frame)
    return len(frame)


def _read_exact(rfile: BinaryIO, n: int, *, at_boundary: bool = False) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a frame boundary,
    :class:`FrameTruncated` on EOF anywhere else."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = rfile.read(n - got)
        if not chunk:
            if at_boundary and got == 0:
                return None
            raise FrameTruncated(
                f"connection closed mid-frame ({got}/{n} bytes read)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _discard(rfile: BinaryIO, n: int, chunk: int = 1 << 16) -> None:
    while n > 0:
        data = rfile.read(min(n, chunk))
        if not data:
            raise FrameTruncated("connection closed while discarding a frame")
        n -= len(data)


def read_frame(
    rfile: BinaryIO, max_frame: int = DEFAULT_MAX_FRAME
) -> tuple[int, dict[str, Any], list[bytes], int] | None:
    """Read one frame: ``(type, header, segments, wire_bytes)``.

    ``None`` means the peer closed cleanly between frames.  Raises
    :class:`FrameTooLarge` (recoverable — the oversized frame was
    consumed), :class:`WireFormatError` (recoverable — bad JSON in a
    well-framed message), :class:`FrameError` (desync; close the
    connection), or :class:`FrameTruncated` (peer died mid-frame)."""
    fixed = _read_exact(rfile, _FIXED.size, at_boundary=True)
    if fixed is None:
        return None
    magic, version, ftype, nseg, header_len = _FIXED.unpack(fixed)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r} (stream desynchronized)")
    if version != FRAME_VERSION:
        raise FrameError(
            f"unknown frame version {version} (this build speaks {FRAME_VERSION})"
        )
    table = _read_exact(rfile, 4 * nseg)
    assert table is not None
    seg_lens = struct.unpack(f"!{nseg}I", table)
    total = header_len + sum(seg_lens)
    if total > max_frame:
        _discard(rfile, total)
        raise FrameTooLarge(total, max_frame)
    header_bytes = _read_exact(rfile, header_len)
    assert header_bytes is not None
    try:
        header = json.loads(header_bytes)
    except ValueError as exc:
        # framing was intact, so the stream stays aligned: consume the
        # segments and report a recoverable decode error
        for n in seg_lens:
            _discard(rfile, n)
        raise WireFormatError(f"frame header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        for n in seg_lens:
            _discard(rfile, n)
        raise WireFormatError("frame header must be a JSON object")
    segments = []
    for n in seg_lens:
        seg = _read_exact(rfile, n)
        assert seg is not None
        segments.append(seg)
    return ftype, header, segments, _FIXED.size + len(table) + total


def error_header(message: str, *, cid: int | None = None) -> dict[str, Any]:
    """Header of a structured wire-level error response (frame type
    :data:`T_ERROR`); ``cid`` echoes the offending request id when it
    could be parsed."""
    response = Response(
        id=cid if cid is not None else 0,
        kind="transport",
        status="error",
        error=message,
    )
    header, _segments = response.to_wire()
    if cid is not None:
        header["cid"] = cid
    return header


# ---------------------------------------------------------------------------
# Server side
# ---------------------------------------------------------------------------


class _Connection:
    """One accepted client: a reader thread feeding the server and a
    writer thread draining responses in submission order."""

    def __init__(self, listener: "TransportListener", sock: socket.socket) -> None:
        self.listener = listener
        self.sock = sock
        self.peer = "%s:%s" % tuple(sock.getpeername()[:2])
        self.rfile = sock.makefile("rb")
        self.wlock = threading.Lock()
        self._closed = threading.Event()
        # (cid, pending) in FIFO order; the bound IS the flow control:
        # a full queue blocks the reader, which stops draining the
        # socket, which backpressures the client through TCP
        self.inflight: queue.Queue = queue.Queue(maxsize=listener.max_inflight)
        self.reader = threading.Thread(
            target=self._read_loop, name=f"serve-conn-r-{self.peer}", daemon=True
        )
        self.writer = threading.Thread(
            target=self._write_loop, name=f"serve-conn-w-{self.peer}", daemon=True
        )

    def start(self) -> None:
        self.reader.start()
        self.writer.start()

    # -- reader --------------------------------------------------------------
    def _read_loop(self) -> None:
        server = self.listener.server
        metrics = server.metrics
        try:
            self._send_hello()
            while not self._closed.is_set():
                try:
                    frame = read_frame(self.rfile, self.listener.max_frame)
                except FrameTooLarge as exc:
                    metrics.record_decode_error()
                    self._send_error(str(exc))
                    continue  # frame fully discarded; stream still aligned
                except WireFormatError as exc:
                    metrics.record_decode_error()
                    self._send_error(str(exc))
                    continue
                except FrameError as exc:
                    metrics.record_decode_error()
                    self._send_error(str(exc))
                    break  # desynchronized: nothing sane can follow
                except (FrameTruncated, OSError):
                    metrics.record_disconnect()
                    break
                if frame is None:
                    break  # clean goodbye
                ftype, header, segments, nbytes = frame
                metrics.record_frame_in(nbytes)
                if ftype != T_REQUEST:
                    metrics.record_decode_error()
                    self._send_error(f"unexpected frame type {ftype} from a client")
                    continue
                self._handle_request(header, segments)
        finally:
            self.close()

    def _handle_request(
        self, header: dict[str, Any], segments: list[bytes]
    ) -> None:
        from .server import ServerClosed

        server = self.listener.server
        cid = header.get("id") if isinstance(header.get("id"), int) else None
        try:
            request = Request.from_wire(header, segments)
        except (SchemaVersionError, WireFormatError) as exc:
            server.metrics.record_decode_error()
            self._send_error(str(exc), cid=cid)
            return
        try:
            pending = server.submit_request(request)
        except ValueError as exc:  # unknown request kind
            self._send_error(str(exc), cid=cid)
            return
        except ServerClosed as exc:
            self._send_error(str(exc), cid=cid)
            self.close()
            return
        # a full queue blocks here — that IS the flow control — but in
        # bounded slices so close() can interrupt a reader stuck behind a
        # writer that already exited
        while not self._closed.is_set():
            try:
                self.inflight.put((cid, pending), timeout=0.2)
                return
            except queue.Full:
                continue

    # -- writer --------------------------------------------------------------
    def _write_loop(self) -> None:
        metrics = self.listener.server.metrics
        while True:
            # poll in slices: close() may be unable to enqueue the wake-up
            # sentinel when the queue is full, so the clock is the backstop
            try:
                item = self.inflight.get(timeout=0.2)
            except queue.Empty:
                if self._closed.is_set():
                    return
                continue
            if item is None:
                return
            cid, pending = item
            # wait in short slices so close() can interrupt a long wait
            while not pending._event.wait(0.2):
                if self._closed.is_set():
                    return
            response = pending.result(0)
            try:
                header, segments = response.to_wire()
                if cid is not None:
                    header["cid"] = cid
                frame = encode_frame(T_RESPONSE, header, segments)
            except (WireFormatError, TypeError, ValueError, struct.error) as exc:
                # struct.error: >65535 segments or a segment >= 4 GiB —
                # responses are not capped by max_frame the way requests are
                # un-encodable response value: tell the client, keep going
                frame = encode_frame(
                    T_ERROR,
                    error_header(f"response not wire-encodable: {exc}", cid=cid),
                )
            t0 = time.perf_counter()
            try:
                with self.wlock:
                    self.sock.sendall(frame)
                metrics.record_frame_out(len(frame))
            except OSError:
                # client went away mid-batch; the dispatcher is unaffected
                metrics.record_disconnect()
                self.close()
                return
            # the last stage of a remote request's life: the response
            # write back over the wire, linked to the request's trace
            request = pending.request
            metrics.record_stage(
                request.kind,
                "write",
                t0,
                time.perf_counter(),
                request_id=request.id,
                trace_id=request.trace_id,
            )

    # -- helpers -------------------------------------------------------------
    def _send_hello(self) -> None:
        from .requests import SCHEMA_VERSION, STATS_KIND

        header = {
            "schema": SCHEMA_VERSION,
            "frame_version": FRAME_VERSION,
            "services": sorted(self.listener.server.services) + [STATS_KIND],
            "max_frame": self.listener.max_frame,
        }
        nbytes = write_frame(self.sock, T_HELLO, header, lock=self.wlock)
        self.listener.server.metrics.record_frame_out(nbytes)

    def _send_error(self, message: str, *, cid: int | None = None) -> None:
        try:
            nbytes = write_frame(
                self.sock, T_ERROR, error_header(message, cid=cid), lock=self.wlock
            )
            self.listener.server.metrics.record_frame_out(nbytes)
        except OSError:
            self.listener.server.metrics.record_disconnect()
            self.close()

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        # shutdown first: it unblocks a reader parked in recv() and makes
        # the writer's next sendall() fail fast.  The sentinel only has to
        # wake an *idle* writer, so a full queue (normal under flow
        # control) must not block the closing thread — drop it instead.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.inflight.put_nowait(None)
        except queue.Full:
            pass  # writer is busy, it will notice _closed on its own
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - double close
            pass
        self.listener._connection_closed(self)


class TransportListener:
    """Accepts TCP connections and feeds decoded requests into one
    :class:`~repro.serve.server.PipelineServer`'s admission queue."""

    def __init__(
        self,
        server: "PipelineServer",
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame: int | None = None,
        max_inflight: int | None = None,
        backlog: int = 64,
    ) -> None:
        self.server = server
        opts = server.options
        self.max_frame = max_frame if max_frame is not None else opts.max_frame_bytes
        self.max_inflight = (
            max_inflight if max_inflight is not None else opts.max_inflight
        )
        self._sock = socket.create_server((host, port), reuse_port=False)
        self.address: tuple[str, int] = self._sock.getsockname()[:2]
        self._connections: set[_Connection] = set()
        self._conn_lock = threading.Lock()
        self._closed = threading.Event()
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="serve-acceptor", daemon=True
        )

    def start(self) -> "TransportListener":
        self._acceptor.start()
        return self

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                sock, _addr = self._sock.accept()
            except OSError:
                return  # listening socket closed
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                conn = _Connection(self, sock)
            except OSError:  # pragma: no cover - peer gone before setup
                continue
            with self._conn_lock:
                if self._closed.is_set():
                    sock.close()
                    return
                self._connections.add(conn)
                active = len(self._connections)
            self.server.metrics.record_connection_open(active)
            try:
                conn.start()
            except RuntimeError:  # pragma: no cover - interpreter shutdown
                conn.close()

    def _connection_closed(self, conn: _Connection) -> None:
        with self._conn_lock:
            if conn not in self._connections:
                return
            self._connections.discard(conn)
            active = len(self._connections)
        self.server.metrics.record_connection_close(active)

    def close(self) -> None:
        """Stop accepting and drop every live connection."""
        if self._closed.is_set():
            return
        self._closed.set()
        # shutdown before close: close() alone does not wake a thread
        # already blocked in accept(), which would stall stop() on the
        # acceptor join below
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass
        with self._conn_lock:
            live = list(self._connections)
        for conn in live:
            conn.close()
        if self._acceptor.is_alive():
            self._acceptor.join(timeout=5.0)
