"""Benchmarks of the columnar trace data plane.

Two faces, mirroring ``bench_kernels.py``:

* **pytest-benchmark micro-tests** (run with
  ``pytest benchmarks/bench_traces.py --benchmark-only``) timing trace
  construction and I/O on their own;
* **a CLI** (``PYTHONPATH=src python benchmarks/bench_traces.py``, see
  :mod:`harness`) that times the columnar read/write/construct paths
  against the frozen pre-columnar record loops from
  :mod:`repro.kernels.reference`, re-verifies the equivalence contract of
  each (byte-identical files, column-identical traces), and records
  ``columnar/loop`` ratios in ``BENCH_traces.json``; ``--check BASELINE``
  fails when a contract breaks or a ratio regressed past 1.5x.

The ``full`` scale reads a 1M-row packet trace, where the columnar read
is about 10x faster than the record loop.  ``packet_read`` times the
whole-file read and ``packet_scan`` the chunked one (``iter_trace_batches``
in 1 MiB blocks, as the stream scan, replay, monitor and policing detector
read a file); both run the one v1 parser of :mod:`repro.stream.reader`.
"""

import tempfile
from pathlib import Path

import numpy as np

import harness
from harness import Case
from repro.kernels import reference as ref
from repro.stream.reader import iter_trace_batches
from repro.traces.columns import concat_packet_batches
from repro.traces.io import (
    read_connection_trace,
    read_packet_trace,
    write_connection_trace,
    write_packet_trace,
)
from repro.traces.trace import ConnectionTrace, PacketTrace

PROTOCOLS = np.array(
    ["TELNET", "FTP", "FTPDATA", "SMTP", "NNTP", "OTHER"], dtype=object
)

#: Block size of the chunked-read case: several blocks at either scale.
SCAN_BLOCK_BYTES = 1 << 20


def _packet_arrays(n, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "timestamps": np.cumsum(rng.exponential(0.01, n)),
        "protocols": PROTOCOLS[rng.integers(0, PROTOCOLS.size, n)],
        "connection_ids": rng.integers(0, n // 10 + 1, n),
        "directions": rng.integers(0, 2, n).astype(np.int8),
        "sizes": rng.integers(1, 1460, n),
        "user_data": rng.random(n) < 0.9,
    }


def _connection_arrays(n, seed=1):
    rng = np.random.default_rng(seed)
    sids = rng.integers(-1, n // 5 + 1, n)
    return {
        "start_times": np.cumsum(rng.exponential(0.5, n)),
        "durations": rng.exponential(30.0, n),
        "protocols": PROTOCOLS[rng.integers(0, PROTOCOLS.size, n)],
        "bytes_orig": rng.integers(1, 10**7, n),
        "bytes_resp": rng.integers(1, 10**7, n),
        "orig_hosts": rng.integers(0, 500, n),
        "resp_hosts": rng.integers(500, 1000, n),
        "session_ids": sids,
    }


def _packet_trace(n, seed=0):
    return PacketTrace.from_arrays("bench", **_packet_arrays(n, seed))


def _connection_trace(n, seed=1):
    return ConnectionTrace.from_arrays("bench", **_connection_arrays(n, seed))


def _records_of(trace):
    return [trace.record(i) for i in range(len(trace))]


def _pkt_traces_equal(a, b):
    return (np.array_equal(a.timestamps, b.timestamps)
            and np.array_equal(a.protocols, b.protocols)
            and np.array_equal(a.connection_ids, b.connection_ids)
            and np.array_equal(a.directions, b.directions)
            and np.array_equal(a.sizes, b.sizes)
            and np.array_equal(a.user_data, b.user_data))


def _conn_traces_equal(a, b):
    return (np.array_equal(a.start_times, b.start_times)
            and np.array_equal(a.durations, b.durations)
            and np.array_equal(a.protocols, b.protocols)
            and np.array_equal(a.bytes_orig, b.bytes_orig)
            and np.array_equal(a.bytes_resp, b.bytes_resp)
            and np.array_equal(a.orig_hosts, b.orig_hosts)
            and np.array_equal(a.resp_hosts, b.resp_hosts)
            and np.array_equal(a.session_ids, b.session_ids))


# ----------------------------------------------------------------------
# pytest-benchmark micro-tests
# ----------------------------------------------------------------------
def test_trace_packet_from_arrays(benchmark):
    arrays = _packet_arrays(100_000)
    trace = benchmark(lambda: PacketTrace.from_arrays("bench", **arrays))
    assert len(trace) == 100_000


def test_trace_packet_read_columnar(benchmark, tmp_path):
    path = tmp_path / "pkt.txt"
    write_packet_trace(_packet_trace(100_000), path)
    trace = benchmark(read_packet_trace, path)
    assert len(trace) == 100_000


def test_trace_packet_write_columnar(benchmark, tmp_path):
    trace = _packet_trace(100_000)
    path = tmp_path / "pkt.txt"
    benchmark(write_packet_trace, trace, path)
    assert path.exists()


def test_trace_connection_read_columnar(benchmark, tmp_path):
    path = tmp_path / "conn.txt"
    write_connection_trace(_connection_trace(50_000), path)
    trace = benchmark(read_connection_trace, path)
    assert len(trace) == 50_000


# ----------------------------------------------------------------------
# CLI: columnar paths against the record loops (BENCH_traces.json)
# ----------------------------------------------------------------------
def trace_cases(scale):
    """Each columnar path against its frozen record loop, with the
    equivalence contract it keeps."""
    full = scale == "full"
    n_pkt = 1_000_000 if full else 100_000
    n_conn = 300_000 if full else 50_000

    pkt_arrays = _packet_arrays(n_pkt)
    pkt_trace = PacketTrace.from_arrays("bench", **pkt_arrays)
    pkt_records = _records_of(pkt_trace)
    conn_arrays = _connection_arrays(n_conn)
    conn_trace = ConnectionTrace.from_arrays("bench", **conn_arrays)
    conn_records = _records_of(conn_trace)

    # record list and from_arrays build column-identical traces
    yield Case("packet_construct", n_pkt,
               lambda: PacketTrace.from_arrays("bench", **pkt_arrays),
               "PacketTrace(records)",
               lambda: PacketTrace("bench", pkt_records),
               identical=_pkt_traces_equal)
    yield Case("connection_construct", n_conn,
               lambda: ConnectionTrace.from_arrays("bench", **conn_arrays),
               "ConnectionTrace(records)",
               lambda: ConnectionTrace("bench", conn_records),
               identical=_conn_traces_equal)

    with tempfile.TemporaryDirectory() as tmp:
        tmpdir = Path(tmp)

        # the batched writers emit byte-identical files
        pkt_loop_path = tmpdir / "pkt-loop.txt"
        pkt_col_path = tmpdir / "pkt-col.txt"
        yield Case("packet_write", n_pkt,
                   lambda: write_packet_trace(pkt_trace, pkt_col_path),
                   "reference.write_packet_trace_loop",
                   lambda: ref.write_packet_trace_loop(pkt_trace,
                                                       pkt_loop_path),
                   identical=lambda loop, col: (pkt_loop_path.read_bytes()
                                                == pkt_col_path.read_bytes()))
        conn_loop_path = tmpdir / "conn-loop.txt"
        conn_col_path = tmpdir / "conn-col.txt"
        yield Case("connection_write", n_conn,
                   lambda: write_connection_trace(conn_trace, conn_col_path),
                   "reference.write_connection_trace_loop",
                   lambda: ref.write_connection_trace_loop(conn_trace,
                                                           conn_loop_path),
                   identical=lambda loop, col: (
                       conn_loop_path.read_bytes()
                       == conn_col_path.read_bytes()))

        # the batched readers return column-identical traces
        pkt_path = tmpdir / "pkt.txt"
        write_packet_trace(pkt_trace, pkt_path)
        yield Case("packet_read", n_pkt,
                   lambda: read_packet_trace(pkt_path),
                   "reference.read_packet_trace_loop",
                   lambda: ref.read_packet_trace_loop(pkt_path),
                   identical=_pkt_traces_equal)
        # the chunked framing the out-of-core scanners read through
        yield Case("packet_scan", n_pkt,
                   lambda: list(iter_trace_batches(
                       pkt_path, "packet", block_bytes=SCAN_BLOCK_BYTES)),
                   "reference.read_packet_trace_loop",
                   lambda: ref.read_packet_trace_loop(pkt_path),
                   identical=lambda loop, batches: _pkt_traces_equal(
                       loop, concat_packet_batches(batches)))
        conn_path = tmpdir / "conn.txt"
        write_connection_trace(conn_trace, conn_path)
        yield Case("connection_read", n_conn,
                   lambda: read_connection_trace(conn_path),
                   "reference.read_connection_trace_loop",
                   lambda: ref.read_connection_trace_loop(conn_path),
                   identical=_conn_traces_equal)


if __name__ == "__main__":
    harness.main(__file__, trace_cases)
