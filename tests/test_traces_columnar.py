"""Columnar data-plane tests: tie order, sorted fast path, interning,
bit-for-bit write/read identity, and columnar-vs-record synthesis."""

import gzip
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ftp import FTP_PROTOCOL_TABLE, FtpSessionModel
from repro.core.fulltel import FullTelModel
from repro.kernels import reference
from repro.stream.driver import scan_trace
from repro.stream.reader import iter_trace_batches
from repro.traces import (
    ConnectionRecord,
    ConnectionTrace,
    Direction,
    PacketRecord,
    PacketTrace,
    read_connection_trace,
    read_packet_trace,
    write_connection_trace,
    write_packet_trace,
)
from repro.traces.columns import (
    MAX_PROTOCOLS,
    PROTOCOL_CODE_DTYPE,
    concat_connection_batches,
    concat_packet_batches,
    decode_protocols,
    encode_protocols,
    protocol_code,
    stable_time_order,
)

PROTOS = ["TELNET", "FTP", "FTPDATA", "SMTP", "NNTP", "OTHER"]


def _conn_trace_equal(a, b):
    return (np.array_equal(a.start_times, b.start_times)
            and np.array_equal(a.durations, b.durations)
            and np.array_equal(a.protocols, b.protocols)
            and np.array_equal(a.bytes_orig, b.bytes_orig)
            and np.array_equal(a.bytes_resp, b.bytes_resp)
            and np.array_equal(a.orig_hosts, b.orig_hosts)
            and np.array_equal(a.resp_hosts, b.resp_hosts)
            and np.array_equal(a.session_ids, b.session_ids))


def _pkt_trace_equal(a, b):
    return (np.array_equal(a.timestamps, b.timestamps)
            and np.array_equal(a.protocols, b.protocols)
            and np.array_equal(a.connection_ids, b.connection_ids)
            and np.array_equal(a.directions, b.directions)
            and np.array_equal(a.sizes, b.sizes)
            and np.array_equal(a.user_data, b.user_data))


class TestTieOrder:
    """Record-list and from_arrays construction must order duplicate
    timestamps identically (both sort stably on the time column)."""

    def test_connection_ties_keep_input_order(self):
        # Three ties at t=1.0 interleaved with ties at t=0.5; the payload
        # (bytes_orig) tags each record's input position.
        times = [1.0, 0.5, 1.0, 0.5, 1.0]
        recs = [
            ConnectionRecord(t, 1.0, "FTP", i, 0, 0, 0, None)
            for i, t in enumerate(times)
        ]
        via_records = ConnectionTrace("x", recs)
        via_arrays = ConnectionTrace.from_arrays(
            "x",
            start_times=np.array(times),
            durations=np.ones(5),
            protocols=np.array(["FTP"] * 5, dtype=object),
            bytes_orig=np.arange(5),
        )
        assert _conn_trace_equal(via_records, via_arrays)
        assert via_records.bytes_orig.tolist() == [1, 3, 0, 2, 4]

    def test_packet_ties_keep_input_order(self):
        times = [2.0, 2.0, 1.0, 2.0, 1.0]
        pkts = [
            PacketRecord(t, "TELNET", i, Direction.ORIGINATOR, 1, True)
            for i, t in enumerate(times)
        ]
        via_records = PacketTrace("x", pkts)
        via_arrays = PacketTrace.from_arrays(
            "x",
            timestamps=np.array(times),
            protocols=np.array(["TELNET"] * 5, dtype=object),
            connection_ids=np.arange(5),
        )
        assert _pkt_trace_equal(via_records, via_arrays)
        assert via_records.connection_ids.tolist() == [2, 4, 0, 1, 3]

    @given(st.lists(st.sampled_from([0.0, 1.0, 2.0]), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_tie_order_property(self, times):
        """Heavily tied random time columns: both paths agree exactly."""
        recs = [
            ConnectionRecord(t, 1.0, "FTP", i, 0, 0, 0, None)
            for i, t in enumerate(times)
        ]
        via_records = ConnectionTrace("x", recs)
        via_arrays = ConnectionTrace.from_arrays(
            "x",
            start_times=np.array(times),
            durations=np.ones(len(times)),
            protocols=np.array(["FTP"] * len(times), dtype=object),
            bytes_orig=np.arange(len(times)),
        )
        assert _conn_trace_equal(via_records, via_arrays)


class TestSortedFastPath:
    def test_sorted_returns_none(self):
        assert stable_time_order(np.array([0.0, 1.0, 1.0, 2.0])) is None
        assert stable_time_order(np.zeros(0)) is None
        assert stable_time_order(np.array([5.0])) is None

    def test_unsorted_returns_stable_permutation(self):
        t = np.array([1.0, 0.0, 1.0, 0.0])
        order = stable_time_order(t)
        assert order is not None
        assert order.tolist() == [1, 3, 0, 2]

    def test_sorted_input_is_not_copied(self):
        """Already-sorted float64 input skips the argsort gather: the trace
        stores the caller's array itself."""
        ts = np.arange(100, dtype=float)
        trace = PacketTrace.from_arrays("x", timestamps=ts)
        assert trace.timestamps is ts

    def test_unsorted_input_gets_sorted(self):
        trace = PacketTrace.from_arrays(
            "x", timestamps=np.array([3.0, 1.0, 2.0]),
            sizes=np.array([30, 10, 20]),
        )
        assert trace.timestamps.tolist() == [1.0, 2.0, 3.0]
        assert trace.sizes.tolist() == [10, 20, 30]


class TestInterning:
    def test_codes_and_table(self):
        codes, table = encode_protocols(
            np.array(["SMTP", "FTP", "SMTP"], dtype=object)
        )
        assert codes.dtype == PROTOCOL_CODE_DTYPE
        assert table.tolist() == ["FTP", "SMTP"]  # sorted unique
        assert codes.tolist() == [1, 0, 1]
        assert decode_protocols(codes, table).tolist() == ["SMTP", "FTP", "SMTP"]

    def test_code_lookup(self):
        _, table = encode_protocols(np.array(["FTP", "SMTP"], dtype=object))
        assert protocol_code(table, "SMTP") == 1
        assert protocol_code(table, "NOPE") == -1

    def test_too_many_protocols_raises(self):
        names = np.array([f"P{i:03d}" for i in range(MAX_PROTOCOLS + 1)],
                         dtype=object)
        with pytest.raises(ValueError, match="int8"):
            encode_protocols(names)

    def test_mask_matches_string_compare(self):
        rng = np.random.default_rng(0)
        protos = np.array(PROTOS, dtype=object)[rng.integers(0, 6, 1000)]
        trace = ConnectionTrace.from_arrays(
            "x", start_times=np.arange(1000.0), protocols=protos
        )
        for name in PROTOS:
            assert np.array_equal(trace.protocol_mask(name),
                                  trace.protocols == name)
        assert not trace.protocol_mask("ABSENT").any()

    def test_code_column_is_8x_smaller(self):
        trace = ConnectionTrace.from_arrays(
            "x", start_times=np.arange(1000.0),
            protocols=np.array(["TELNET"] * 1000, dtype=object),
        )
        object_column_bytes = 1000 * np.dtype(object).itemsize
        assert trace.protocol_codes.nbytes * 8 <= object_column_bytes

    def test_subset_shares_table(self):
        trace = ConnectionTrace.from_arrays(
            "x", start_times=np.arange(10.0),
            protocols=np.array(PROTOS[:5] * 2, dtype=object),
        )
        sub = trace.subset(trace.start_times < 5.0, "sub")
        assert sub.protocol_table is trace.protocol_table
        assert np.array_equal(sub.protocols, trace.protocols[:5])


def _pkt_strategy():
    return st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=2e9, allow_nan=False,
                      allow_infinity=False),
            st.sampled_from(PROTOS),
            st.integers(min_value=-1, max_value=10**9),
            st.booleans(),
            st.integers(min_value=0, max_value=10**6),
            st.booleans(),
        ),
        max_size=30,
    )


def _conn_strategy():
    return st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=2e9, allow_nan=False,
                      allow_infinity=False),
            st.floats(min_value=0, max_value=1e6, allow_nan=False,
                      allow_infinity=False),
            st.sampled_from(PROTOS),
            st.integers(min_value=0, max_value=10**12),
            st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)),
        ),
        max_size=30,
    )


class TestWriteReadIdentity:
    """write ∘ read is the identity, bit for bit, including ``.gz``."""

    @given(rows=_pkt_strategy(), gz=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_packet_identity(self, rows, gz):
        pkts = [
            PacketRecord(t, proto, cid,
                         Direction.RESPONDER if d else Direction.ORIGINATOR,
                         size, ud)
            for t, proto, cid, d, size, ud in rows
        ]
        ext = "txt.gz" if gz else "txt"
        with tempfile.TemporaryDirectory() as tmp:
            first = f"{tmp}/a.{ext}"
            second = f"{tmp}/b.{ext}"
            write_packet_trace(PacketTrace("x", pkts), first)
            back = read_packet_trace(first)
            write_packet_trace(back, second)
            raw = (gzip.decompress if gz else bytes)
            assert (raw(open(first, "rb").read())
                    == raw(open(second, "rb").read()))
        again = [back.record(i) for i in range(len(back))]
        assert sorted(pkts, key=lambda p: p.timestamp) == again

    @given(rows=_conn_strategy(), gz=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_connection_identity(self, rows, gz):
        recs = [
            ConnectionRecord(t, d, proto, b, 2 * b, 1, 2, sid)
            for t, d, proto, b, sid in rows
        ]
        ext = "txt.gz" if gz else "txt"
        with tempfile.TemporaryDirectory() as tmp:
            first = f"{tmp}/a.{ext}"
            second = f"{tmp}/b.{ext}"
            write_connection_trace(ConnectionTrace("x", recs), first)
            back = read_connection_trace(first)
            write_connection_trace(back, second)
            raw = (gzip.decompress if gz else bytes)
            assert (raw(open(first, "rb").read())
                    == raw(open(second, "rb").read()))
        again = [back.record(i) for i in range(len(back))]
        assert sorted(recs, key=lambda r: r.start_time) == again

    def test_session_id_none_roundtrips(self, tmp_path):
        recs = [ConnectionRecord(0.0, 1.0, "FTP", 1, 2, 3, 4, None)]
        path = tmp_path / "c.txt"
        write_connection_trace(ConnectionTrace("x", recs), path)
        assert read_connection_trace(path).record(0).session_id is None


PKT_HEADER = b"#repro-packets v1\n"
CONN_HEADER = b"#repro-connections v1\n"
PKT_LINES = [b"0.5 TELNET 1 0 99 1", b"1.5 FTP 2 1 10 0",
             b"2.25 SMTP 3 0 512 1", b"3.0 NNTP 4 1 40 1"]
CONN_LINES = [b"0.5 1.25 TELNET 10 20 1 2 -1", b"1.5 0.0 FTP 5 6 3 4 7",
              b"2.25 3.5 SMTP 1 0 5 6 8"]
#: Lines of valid packet records up to past the first 8 KiB (the size of
#: a text-mode read-ahead), so a bad byte after them sits past it.
PKT_FILLER = b"".join(b"%d.0 FTP %d 0 100 1\n" % (i, i) for i in range(600))

#: (kind, file bytes) a v1 reader must accept.
VALID = {
    "long-protocol": ("packet", PKT_HEADER + b"0.5 " + b"X" * 41
                      + b" 1 0 99 1\n1.5 TELNET 2 1 10 0\n"),
    "crlf": ("packet", PKT_HEADER.replace(b"\n", b"\r\n")
             + b"".join(line + b"\r\n" for line in PKT_LINES)),
    "blank-lines": ("packet", PKT_HEADER + b"\n" + PKT_LINES[0] + b"\n\n  \n"
                    + b"\n".join(PKT_LINES[1:]) + b"\n\n"),
    "tabs-and-spaces": ("packet", PKT_HEADER
                        + b"0.5\tTELNET  1 \t0 99   1\n"
                        + b"  1.5 FTP\t\t2 1 10 0  \n"),
    "no-final-newline": ("packet", PKT_HEADER + b"\n".join(PKT_LINES)),
    "header-only": ("packet", PKT_HEADER),
    "connections": ("connection", CONN_HEADER
                    + b"".join(line + b"\n" for line in CONN_LINES)),
}

#: (kind, file bytes) every v1 reader must reject.
HOSTILE = {
    "two-packets-on-one-line": ("packet", PKT_HEADER + PKT_LINES[0] + b"\n"
                                + PKT_LINES[1] + b" " + PKT_LINES[2] + b"\n"),
    "packet-broken-across-lines": ("packet", PKT_HEADER + PKT_LINES[0]
                                   + b"\n1.5 FTP 2\n1 10 0\n"),
    "direction-300": ("packet", PKT_HEADER + b"0.5 TELNET 1 300 99 1\n"),
    "five-field-packet": ("packet", PKT_HEADER + b"1.0 TELNET 1 0 1\n"),
    "0xe9-in-line-2": ("packet", PKT_HEADER + PKT_LINES[0] + b"\n"
                       + b"1.5 FT\xe9 2 1 10 0\n" + PKT_LINES[2] + b"\n"),
    "0xe9-past-8KiB": ("packet", PKT_HEADER + PKT_FILLER
                       + b"700.0 FT\xe9 2 1 10 0\n"),
    "two-connections-on-one-line": ("connection", CONN_HEADER + CONN_LINES[0]
                                    + b" " + CONN_LINES[1] + b"\n"),
    "seven-field-connection": ("connection", CONN_HEADER
                               + b"0.5 1.25 TELNET 10 20 1 2\n"),
}

PKT_COLUMNS = ("timestamps", "protocols", "connection_ids", "directions",
               "sizes", "user_data")
CONN_COLUMNS = ("start_times", "durations", "protocols", "bytes_orig",
                "bytes_resp", "orig_hosts", "resp_hosts", "session_ids")


def _columns(records, kind):
    names = PKT_COLUMNS if kind == "packet" else CONN_COLUMNS
    return {name: getattr(records, name) for name in names}


def _read_stream(path, kind):
    """``iter_trace_batches`` with blocks far smaller than the file."""
    concat = (concat_packet_batches if kind == "packet"
              else concat_connection_batches)
    return _columns(concat(list(iter_trace_batches(path, block_bytes=16))),
                    kind)


def _read_scan(path, kind):
    """``scan_trace`` over two chunks (one for ``.gz``), compared on what
    its summary keeps of the columns."""
    size = path.stat().st_size
    summary = scan_trace(path, target_chunk_bytes=max(size // 2, 1)).summary
    return {"n": summary.n, "bytes": summary.total_bytes,
            "first": summary.first_time, "last": summary.last_time}


def _read_whole(path, kind):
    read = read_packet_trace if kind == "packet" else read_connection_trace
    return _columns(read(path), kind)


def _read_oracle(path, kind):
    read = (reference.read_packet_trace_loop if kind == "packet"
            else reference.read_connection_trace_loop)
    return _columns(read(path), kind)


READERS = {"iter_trace_batches": _read_stream, "scan_trace": _read_scan,
           "read_trace": _read_whole, "oracle": _read_oracle}


def _scan_summary(columns, kind):
    """What ``scan_trace`` keeps of the oracle's columns."""
    times = columns["timestamps" if kind == "packet" else "start_times"]
    sizes = (columns["sizes"] if kind == "packet"
             else columns["bytes_orig"] + columns["bytes_resp"])
    return {"n": times.size, "bytes": float(sizes.sum()),
            "first": float(times[0]) if times.size else None,
            "last": float(times[-1]) if times.size else None}


def _write(tmp_path, data, ext):
    path = tmp_path / f"trace.{ext}"
    if ext.endswith(".gz"):
        with gzip.open(path, "wb") as fh:
            fh.write(data)
    else:
        path.write_bytes(data)
    return path


class TestReadMatchesStreamReader:
    """Every v1 reader parses, and rejects, a file the same way."""

    def _synth(self, n=5000, seed=3):
        rng = np.random.default_rng(seed)
        return PacketTrace.from_arrays(
            "synth",
            timestamps=np.cumsum(rng.exponential(0.01, n)),
            protocols=np.array(PROTOS, dtype=object)[rng.integers(0, 6, n)],
            connection_ids=rng.integers(0, 500, n),
            directions=rng.integers(0, 2, n).astype(np.int8),
            sizes=rng.integers(1, 1460, n),
            user_data=rng.random(n) < 0.5,
        )

    @pytest.mark.parametrize("ext", ["txt", "txt.gz"])
    def test_whole_file_read_equals_batched_stream(self, tmp_path, ext):
        path = tmp_path / f"p.{ext}"
        write_packet_trace(self._synth(), path)
        trace = read_packet_trace(path)
        batch = concat_packet_batches(list(iter_trace_batches(path, "packet")))
        assert np.array_equal(trace.timestamps, batch.timestamps)
        assert np.array_equal(trace.protocols, batch.protocols)
        assert np.array_equal(trace.connection_ids, batch.connection_ids)
        assert np.array_equal(trace.directions, batch.directions)
        assert np.array_equal(trace.sizes, batch.sizes)
        assert np.array_equal(trace.user_data, batch.user_data)

    @pytest.mark.parametrize("ext", ["txt", "txt.gz"])
    @pytest.mark.parametrize("row", VALID)
    @pytest.mark.parametrize("reader", READERS)
    def test_reads(self, tmp_path, reader, row, ext):
        """A valid file reads as the oracle reads it."""
        kind, data = VALID[row]
        path = _write(tmp_path, data, ext)
        expected = _read_oracle(path, kind)
        got = READERS[reader](path, kind)
        if reader == "scan_trace":
            assert got == _scan_summary(expected, kind)
            return
        assert got.keys() == expected.keys()
        for name, column in expected.items():
            assert np.array_equal(got[name], column), name

    @pytest.mark.parametrize("ext", ["txt", "txt.gz"])
    @pytest.mark.parametrize("row", HOSTILE)
    @pytest.mark.parametrize("reader", READERS)
    def test_rejects(self, tmp_path, reader, row, ext):
        """A hostile file raises one ValueError that names it."""
        kind, data = HOSTILE[row]
        path = _write(tmp_path, data, ext)
        with pytest.raises((ValueError, RuntimeError)) as info:
            READERS[reader](path, kind)
        err = info.value
        if reader == "oracle":
            # The frozen loop rejects the same files, in its own words.
            assert isinstance(err, ValueError)
            return
        if reader == "scan_trace":
            assert isinstance(err, RuntimeError) and str(path) in str(err)
            err = err.__cause__
        assert type(err) is ValueError
        assert str(path) in str(err) and "malformed" in str(err)


class TestColumnarSynthesisEquivalence:
    """The columnar source paths reproduce the frozen record paths bit for
    bit on the same RNG streams."""

    def test_ftp_columns_match_record_loop(self):
        model = FtpSessionModel(sessions_per_hour=120.0)
        records = model.synthesize(3600.0, seed=11, batch=False)
        via_records = ConnectionTrace("ftp", records)
        cols = model.synthesize_columns(3600.0, seed=11)
        via_columns = ConnectionTrace.from_arrays(
            "ftp",
            start_times=cols.start_times,
            durations=cols.durations,
            protocols=cols.protocols,
            bytes_orig=cols.bytes_orig,
            bytes_resp=cols.bytes_resp,
            orig_hosts=cols.orig_hosts,
            resp_hosts=cols.resp_hosts,
            session_ids=cols.session_ids,
        )
        assert len(via_records) > 0
        assert _conn_trace_equal(via_records, via_columns)

    def test_ftp_synthesize_trace_matches_record_loop(self):
        model = FtpSessionModel(sessions_per_hour=120.0)
        direct = model.synthesize_trace(3600.0, seed=7, name="ftp")
        via_records = ConnectionTrace(
            "ftp", model.synthesize(3600.0, seed=7, batch=False)
        )
        assert _conn_trace_equal(direct, via_records)
        assert np.array_equal(direct.protocol_table, FTP_PROTOCOL_TABLE)

    def test_fulltel_batch_matches_record_loop(self):
        model = FullTelModel(connections_per_hour=300.0)
        batched = model.synthesize(1800.0, seed=5, batch=True)
        looped = model.synthesize(1800.0, seed=5, batch=False)
        assert len(batched) > 0
        assert _pkt_trace_equal(batched, looped)
