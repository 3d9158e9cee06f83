"""DataCutter substrate tests (§2.2): buffers, streams, transparent
copies, and the threaded runtime."""


import numpy as np
import pytest

from repro.datacutter import (
    Broadcast,
    Buffer,
    ByPacket,
    Filter,
    FilterSpec,
    LogicalStream,
    PipelineError,
    SourceFilter,
    payload_nbytes,
    run_pipeline,
)


class TestBuffers:
    def test_payload_nbytes(self):
        assert payload_nbytes(None) == 0
        assert payload_nbytes(b"12345") == 5
        assert payload_nbytes(np.zeros(10)) == 80
        assert payload_nbytes({"a": np.zeros(2), "b": b"xy"}) == 18
        assert payload_nbytes([1.5, 2.5]) == 16
        assert payload_nbytes("abc") == 3

    def test_end_of_work_marker(self):
        buf = Buffer.end_of_work()
        assert not buf.is_data
        assert buf.nbytes == 0


class TestStreams:
    def test_round_robin_distribution(self):
        stream = LogicalStream("s", n_producers=1, n_consumers=2)
        for k in range(4):
            stream.put(Buffer(payload=k, packet=k))
        got0 = [stream.get(0).payload for _ in range(2)]
        got1 = [stream.get(1).payload for _ in range(2)]
        assert got0 == [0, 2] and got1 == [1, 3]

    def test_by_packet_policy(self):
        stream = LogicalStream("s", n_consumers=2, policy=ByPacket())
        stream.put(Buffer(payload="a", packet=4))
        stream.put(Buffer(payload="b", packet=5))
        assert stream.get(0).payload == "a"
        assert stream.get(1).payload == "b"

    def test_broadcast_policy(self):
        stream = LogicalStream("s", n_consumers=3, policy=Broadcast())
        stream.put(Buffer(payload="x", packet=0))
        assert all(stream.get(i).payload == "x" for i in range(3))

    def test_eos_after_all_producers_close(self):
        stream = LogicalStream("s", n_producers=2, n_consumers=1)
        stream.put(Buffer(payload=1, packet=0))
        stream.close_producer()
        stream.put(Buffer(payload=2, packet=1))
        stream.close_producer()
        got = stream.drain(0)
        assert [b.payload for b in got] == [1, 2]

    def test_too_many_closes_rejected(self):
        stream = LogicalStream("s")
        stream.close_producer()
        with pytest.raises(RuntimeError, match="too many closes"):
            stream.close_producer()

    def test_stats_accounting(self):
        stream = LogicalStream("s")
        stream.put(Buffer(payload=np.zeros(4), packet=0))
        stream.put(Buffer(payload=np.zeros(2), packet=1))
        assert stream.stats.buffers == 2
        assert stream.stats.bytes == 48
        assert stream.stats.by_packet == {0: 32, 1: 16}


class _Range(SourceFilter):
    def generate(self, ctx):
        for k in range(ctx.params.get("n", 8)):
            yield float(k)


class _Double(Filter):
    def process(self, buf, ctx):
        ctx.write(buf.payload * 2, buf.packet)


class _Sum(Filter):
    def init(self, ctx):
        self.total = 0.0

    def process(self, buf, ctx):
        self.total += buf.payload

    def finalize(self, ctx):
        ctx.write(self.total)


class TestThreadedRuntime:
    def test_linear_pipeline(self):
        specs = [
            FilterSpec("src", _Range, params={"n": 10}),
            FilterSpec("dbl", _Double, placement=1),
            FilterSpec("sum", _Sum, placement=2),
        ]
        result = run_pipeline(specs)
        assert result.payloads == [sum(2.0 * k for k in range(10))]

    def test_transparent_copies_preserve_result(self):
        """Width changes routing but not the (commutative) outcome."""
        for width in (1, 2, 3):
            specs = [
                FilterSpec("src", _Range, params={"n": 12}),
                FilterSpec("dbl", _Double, placement=1, width=width),
                FilterSpec("sum", _Sum, placement=2),
            ]
            result = run_pipeline(specs)
            assert result.payloads == [132.0]

    def test_copied_sink_emits_partials(self):
        specs = [
            FilterSpec("src", _Range, params={"n": 8}),
            FilterSpec("sum", _Sum, placement=1, width=2),
        ]
        result = run_pipeline(specs)
        assert len(result.payloads) == 2
        assert sum(result.payloads) == 28.0

    def test_source_copies_split_packets(self):
        specs = [
            FilterSpec("src", _Range, width=2, params={"n": 6}),
            FilterSpec("sum", _Sum, placement=1),
        ]
        result = run_pipeline(specs)
        assert result.payloads == [15.0]

    def test_filter_error_propagates(self):
        class Boom(Filter):
            def process(self, buf, ctx):
                raise RuntimeError("kaboom")

        specs = [
            FilterSpec("src", _Range, params={"n": 2}),
            FilterSpec("boom", Boom, placement=1),
        ]
        with pytest.raises(PipelineError, match="kaboom"):
            run_pipeline(specs)

    def test_first_filter_must_be_source(self):
        specs = [FilterSpec("dbl", _Double)]
        with pytest.raises(PipelineError, match="SourceFilter"):
            run_pipeline(specs)

    def test_stream_bytes_reported(self):
        specs = [
            FilterSpec("src", _Range, params={"n": 4}),
            FilterSpec("sum", _Sum, placement=1),
        ]
        result = run_pipeline(specs)
        assert result.stream_bytes["src->sum"] == 4 * 8

    def test_bounded_queues_do_not_deadlock(self):
        specs = [
            FilterSpec("src", _Range, params={"n": 500}),
            FilterSpec("dbl", _Double, placement=1),
            FilterSpec("sum", _Sum, placement=2),
        ]
        result = run_pipeline(specs)
        assert result.payloads == [float(sum(2 * k for k in range(500)))]
