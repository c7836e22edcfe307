"""End-to-end tests for the out-of-core streaming scan (repro.stream).

The acceptance properties of the subsystem:

* a streamed scan reproduces the in-memory batch path *bit-identically* —
  count-process bins vs ``CountProcess.from_times`` and tail samples / β
  fits vs ``pareto.tail_fit`` on the full interarrival set;
* a shard-merged scan over any k chunks equals the single-pass scan;
* ``--jobs N`` equals ``--jobs 1``;
* ``.gz`` traces stream transparently (single sequential chunk).
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.distributions.pareto import tail_fit
from repro.selfsim.counts import CountProcess
from repro.stream import (
    StreamSummary,
    SummaryConfig,
    iter_trace_batches,
    plan_chunks,
    scan_trace,
    sniff_kind,
    write_stream_trace,
)
from repro.traces import read_packet_trace

N_PACKETS = 40_000
BIN_WIDTH = 0.05


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("stream") / "trace.txt"
    info = write_stream_trace(path, n_packets=N_PACKETS, seed=42,
                              hours=0.5, window_hours=0.25)
    assert info.n_packets == N_PACKETS
    return path


@pytest.fixture(scope="module")
def batch_trace(trace_path):
    return read_packet_trace(trace_path)


@pytest.fixture(scope="module")
def config():
    return SummaryConfig(bin_width=BIN_WIDTH)


class TestChunkPlanning:
    def test_chunks_tile_the_file(self, trace_path):
        size = trace_path.stat().st_size
        chunks = plan_chunks(trace_path, target_bytes=100_000)
        assert len(chunks) > 3
        assert chunks[0].start == 0 and chunks[0].has_header
        assert chunks[-1].end == size
        for a, b in zip(chunks, chunks[1:]):
            assert a.end == b.start
            assert not b.has_header

    def test_boundaries_are_line_aligned(self, trace_path):
        data = trace_path.read_bytes()
        for chunk in plan_chunks(trace_path, target_bytes=64_000):
            if chunk.start:
                assert data[chunk.start - 1:chunk.start] == b"\n"

    def test_max_chunks_cap(self, trace_path):
        assert len(plan_chunks(trace_path, target_bytes=10_000,
                               max_chunks=3)) == 3

    def test_records_survive_any_chunking(self, trace_path, batch_trace):
        for target in (50_000, 137_000, 10**9):
            total = 0
            for chunk in plan_chunks(trace_path, target_bytes=target):
                from repro.stream import iter_chunk_batches

                total += sum(len(b) for b in iter_chunk_batches(chunk))
            assert total == len(batch_trace)


class TestReader:
    def test_sniff_kind(self, trace_path):
        assert sniff_kind(trace_path) == "packet"

    def test_batches_match_batch_reader(self, trace_path, batch_trace):
        ts, sizes, protos = [], [], []
        for batch in iter_trace_batches(trace_path, block_bytes=100_000):
            ts.append(batch.timestamps)
            sizes.append(batch.sizes)
            protos.append(batch.protocols)
        ts = np.concatenate(ts)
        assert np.array_equal(ts, batch_trace.timestamps)
        assert np.array_equal(np.concatenate(sizes), batch_trace.sizes)
        assert np.array_equal(
            np.concatenate(protos).astype(str), batch_trace.protocols.astype(str)
        )

    def test_bad_header_raises(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("#repro-connections v1\n")
        with pytest.raises(ValueError, match="header"):
            list(iter_trace_batches(p, kind="packet"))

    def test_malformed_record_raises(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("#repro-packets v1\n1.0 TELNET 1 0 1\n")  # 5 fields
        with pytest.raises(ValueError, match="malformed"):
            list(iter_trace_batches(p))


class TestStreamEqualsBatch:
    """The headline acceptance property: streamed == in-memory, bit-for-bit."""

    def test_bin_counts_bit_identical(self, trace_path, batch_trace, config):
        report = scan_trace(trace_path, config=config,
                            target_chunk_bytes=150_000)
        batch = CountProcess.from_times(
            batch_trace.timestamps, BIN_WIDTH, start=0.0
        )
        streamed = report.summary.counts.finalize()
        assert np.array_equal(streamed, batch.counts)

    def test_tail_samples_and_beta_bit_identical(
        self, trace_path, batch_trace, config
    ):
        report = scan_trace(trace_path, config=config,
                            target_chunk_bytes=150_000)
        gaps = np.diff(batch_trace.timestamps)
        k = 512
        assert np.array_equal(
            report.summary.gap_tail.tail_samples(k), np.sort(gaps)[-k:]
        )
        loc, beta, kk = report.summary.interarrival_tail_beta(0.03)
        expected = tail_fit(gaps, 0.03)
        assert loc == expected.location and beta == expected.shape

    def test_size_tail_bit_identical(self, trace_path, batch_trace, config):
        report = scan_trace(trace_path, config=config,
                            target_chunk_bytes=150_000)
        sizes = batch_trace.sizes.astype(float)
        loc, beta, _ = report.summary.size_tail_beta(0.05)
        expected = tail_fit(sizes, 0.05)
        assert loc == expected.location and beta == expected.shape

    def test_moments_match(self, trace_path, batch_trace, config):
        report = scan_trace(trace_path, config=config,
                            target_chunk_bytes=150_000)
        s = report.summary
        assert s.n == len(batch_trace)
        assert s.size_moments.mean == pytest.approx(
            batch_trace.sizes.mean(), rel=1e-12
        )
        gaps = np.diff(batch_trace.timestamps)
        assert s.gap_moments.n == gaps.size
        assert s.gap_moments.mean == pytest.approx(gaps.mean(), rel=1e-10)

    def test_quantile_sketch_within_bound(self, trace_path, batch_trace,
                                          config):
        report = scan_trace(trace_path, config=config,
                            target_chunk_bytes=150_000)
        gaps = np.sort(np.diff(batch_trace.timestamps))
        sk = report.summary.gap_quantiles
        assert sk.total_weight == gaps.size
        bound = sk.max_rank_error()
        assert bound < gaps.size * 0.05
        for q in (0.1, 0.5, 0.9, 0.99):
            v = sk.quantile(q)
            lo = np.searchsorted(gaps, v, side="left")
            hi = np.searchsorted(gaps, v, side="right")
            target = q * gaps.size
            assert max(0.0, max(lo - target, target - hi)) <= bound + 1

    def test_variance_time_matches_batch(self, trace_path, batch_trace,
                                         config):
        from repro.selfsim.variance_time import variance_time_curve

        report = scan_trace(trace_path, config=config,
                            target_chunk_bytes=150_000)
        streamed = report.summary.counts.variance_time()
        batch = variance_time_curve(
            CountProcess.from_times(batch_trace.timestamps, BIN_WIDTH,
                                    start=0.0)
        )
        assert np.array_equal(streamed.levels, batch.levels)
        assert np.array_equal(streamed.variances, batch.variances)


class TestShardDeterminism:
    """Any chunking, any job count: identical results."""

    @pytest.fixture(scope="class")
    def single(self, trace_path, config):
        return scan_trace(trace_path, config=config,
                          target_chunk_bytes=10**9)  # one chunk

    @pytest.mark.parametrize("target", [60_000, 150_000, 400_000])
    def test_any_k_chunks_identical(self, trace_path, batch_trace, config,
                                    single, target):
        """Integer sketches are partition-exact for ANY chunking; float
        merges agree to rounding; the quantile sketch stays in-bound."""
        sharded = scan_trace(trace_path, config=config,
                             target_chunk_bytes=target)
        assert len(sharded.chunk_metrics) > 1
        a, b = single.summary, sharded.summary
        assert b.n == a.n == N_PACKETS
        # bit-identical: bin counts and tail order statistics
        assert np.array_equal(a.counts.finalize(), b.counts.finalize())
        assert np.array_equal(a.gap_tail.values, b.gap_tail.values)
        assert np.array_equal(a.size_tail.values, b.size_tail.values)
        assert np.array_equal(a.size_log2.counts, b.size_log2.counts)
        # float merges: different partitions agree to machine rounding
        assert b.gap_moments.mean == pytest.approx(a.gap_moments.mean,
                                                   rel=1e-12)
        assert b.gap_moments.m2 == pytest.approx(a.gap_moments.m2, rel=1e-9)
        assert np.allclose(a.bytes.finalize(), b.bytes.finalize(),
                           rtol=1e-12)
        # quantile sketch: weight conserved, queries stay within the bound
        gaps = np.sort(np.diff(batch_trace.timestamps))
        sk = b.gap_quantiles
        assert sk.total_weight == gaps.size
        bound = sk.max_rank_error()
        for q in (0.1, 0.5, 0.9):
            v = sk.quantile(q)
            lo = np.searchsorted(gaps, v, side="left")
            hi = np.searchsorted(gaps, v, side="right")
            target_rank = q * gaps.size
            assert max(0.0, max(lo - target_rank, target_rank - hi)) \
                <= bound + 1

    def test_jobs_invariance(self, trace_path, config):
        one = scan_trace(trace_path, config=config, jobs=1,
                         target_chunk_bytes=150_000)
        three = scan_trace(trace_path, config=config, jobs=3,
                           target_chunk_bytes=150_000)
        assert np.array_equal(one.summary.counts.finalize(),
                              three.summary.counts.finalize())
        assert one.summary.gap_moments.mean == three.summary.gap_moments.mean
        assert one.summary.gap_quantiles.quantile(0.5) == \
            three.summary.gap_quantiles.quantile(0.5)
        assert np.array_equal(one.summary.gap_tail.values,
                              three.summary.gap_tail.values)

    def test_gzip_scan_matches_plain(self, tmp_path, trace_path, config):
        import gzip as gz
        import shutil

        gz_path = tmp_path / "trace.txt.gz"
        with open(trace_path, "rb") as src, gz.open(gz_path, "wb") as dst:
            shutil.copyfileobj(src, dst)
        plain = scan_trace(trace_path, config=config,
                           target_chunk_bytes=150_000)
        packed = scan_trace(gz_path, config=config)
        assert len(packed.chunk_metrics) == 1  # no random access into gzip
        assert np.array_equal(plain.summary.counts.finalize(),
                              packed.summary.counts.finalize())
        assert np.array_equal(plain.summary.gap_tail.values,
                              packed.summary.gap_tail.values)


class TestScanReport:
    def test_bench_payload_shape(self, trace_path, config):
        report = scan_trace(trace_path, config=config,
                            target_chunk_bytes=150_000)
        payload = report.bench_payload()
        assert payload["bench"] == "stream_scan"
        assert payload["n_records"] == N_PACKETS
        assert payload["n_chunks"] == len(report.chunk_metrics) > 1
        assert payload["accumulator_nbytes"] > 0
        assert payload["peak_rss_kb"] > 0
        for rec in payload["chunks"]:
            assert rec["rows_per_s"] > 0
        json.dumps(payload)  # serializable as-is

    def test_write_bench(self, trace_path, config, tmp_path):
        report = scan_trace(trace_path, config=config)
        report.write_bench(tmp_path)
        assert (tmp_path / "BENCH_stream_scan.json").exists()
        payload = json.loads(
            (tmp_path / "BENCH_stream_scan.json").read_text()
        )
        assert payload["n_records"] == N_PACKETS

    def test_render_mentions_key_stats(self, trace_path, config):
        text = scan_trace(trace_path, config=config).render()
        assert f"{N_PACKETS:,d}" in text
        assert "gap tail beta" in text
        assert "var-time slope" in text
        assert "sketch memory" in text

    def test_per_protocol(self, trace_path, config):
        report = scan_trace(trace_path, config=config, per_protocol=True,
                            target_chunk_bytes=150_000)
        assert "TELNET" in report.per_protocol
        assert sum(s.n for s in report.per_protocol.values()) == N_PACKETS

    def test_corrupt_chunk_raises(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("#repro-packets v1\n1.0 TELNET 1 0 1 0\ngarbage\n")
        with pytest.raises(RuntimeError, match="chunk"):
            scan_trace(p)


class TestTimeOrder:
    """Time going backwards is an error, never a negative interarrival."""

    def test_swapped_records_fail_the_scan(self, tmp_path):
        path = tmp_path / "swapped.txt"
        write_stream_trace(path, n_packets=20_000, seed=0)
        lines = path.read_text().splitlines(keepends=True)
        header = sum(line.startswith("#") for line in lines)
        i, j = header + 5_000, header + 12_000  # records 5,001 and 12,001
        lines[i], lines[j] = lines[j], lines[i]
        path.write_text("".join(lines))
        with pytest.raises(RuntimeError, match="chunk 0") as err:
            scan_trace(path)
        assert isinstance(err.value.__cause__, ValueError)
        assert "time goes backwards" in str(err.value.__cause__)

    def test_update_and_merge_check_order_before_any_sketch(self, config):
        summary = StreamSummary(config)
        summary.update([1.0, 2.0, 3.0], [10.0, 20.0, 30.0])
        state = (summary.n, summary.counts.n_events,
                 summary.gap_moments.n, summary.gap_moments.min,
                 summary.size_moments.n, summary.last_time)
        with pytest.raises(ValueError,
                           match=r"batch index 2: 1\.5 after 4\.0"):
            summary.update([3.5, 4.0, 1.5], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError,
                           match=r"batch index 0: 2\.5 after 3\.0"):
            summary.update([2.5, 5.0], [1.0, 1.0])
        earlier = StreamSummary(config)
        earlier.update([2.0, 6.0])
        with pytest.raises(ValueError,
                           match=r"merge boundary: 2\.0 after 3\.0"):
            summary.merge(earlier)
        assert (summary.n, summary.counts.n_events,
                summary.gap_moments.n, summary.gap_moments.min,
                summary.size_moments.n, summary.last_time) == state

        tied = StreamSummary(config)  # equal times are in order
        tied.update([3.0, 7.0])
        summary.merge(tied)
        summary.update([7.0, 8.0])
        assert summary.n == 7 and summary.gap_moments.min == 0.0


class TestConnectionScan:
    def test_scan_connection_trace(self, tmp_path):
        from repro.traces import (
            ConnectionRecord,
            ConnectionTrace,
            write_connection_trace,
        )

        rng = np.random.default_rng(0)
        starts = np.sort(rng.uniform(0, 100, 500))
        recs = [
            ConnectionRecord(float(t), 1.0, "FTP",
                             int(rng.pareto(1.2) * 1000) + 1, 100, 1, 2, None)
            for t in starts
        ]
        path = tmp_path / "conns.txt"
        write_connection_trace(ConnectionTrace("x", recs), path)
        report = scan_trace(path, config=SummaryConfig(bin_width=1.0))
        assert report.kind == "connection"
        assert report.summary.n == 500
        # sizes on a connection scan are total bytes (the burst size)
        assert report.summary.total_bytes == sum(
            r.bytes_orig + r.bytes_resp for r in recs
        )


class TestStreamCli:
    def test_synth_and_scan(self, tmp_path, capsys):
        path = tmp_path / "small.txt"
        assert main(["stream", "synth", str(path), "--packets", "2000",
                     "--hours", "0.1", "--window-hours", "0.05",
                     "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "2,000 packets" in out
        assert main(["stream", "scan", str(path)]) == 0
        out = capsys.readouterr().out
        assert "records" in out and "2,000" in out

    def test_scan_json_and_out(self, tmp_path, capsys):
        path = tmp_path / "small.txt"
        main(["stream", "synth", str(path), "--packets", "1500",
              "--hours", "0.1", "--window-hours", "0.05"])
        capsys.readouterr()
        out_dir = tmp_path / "bench"
        assert main(["stream", "scan", str(path), "--json",
                     "--jobs", "2", "--out", str(out_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bench"] == "stream_scan"
        assert payload["n_records"] == 1500
        assert (out_dir / "BENCH_stream_scan.json").exists()

    def test_gz_synth(self, tmp_path, capsys):
        path = tmp_path / "small.txt.gz"
        assert main(["stream", "synth", str(path), "--packets", "1000",
                     "--hours", "0.1", "--window-hours", "0.05"]) == 0
        capsys.readouterr()
        assert sniff_kind(path) == "packet"
        assert main(["stream", "scan", str(path)]) == 0
        assert "1,000" in capsys.readouterr().out
