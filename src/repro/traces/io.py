"""Plain-text trace I/O.

A simple whitespace-delimited format, one record per line with a one-line
header, in the spirit of the reduced ASCII traces distributed by the
Internet Traffic Archive.  Round-tripping is exact: times are written with
``repr``'s shortest-round-trip float formatting, so epoch-magnitude
timestamps survive a write/read cycle bit-for-bit (a ``%.6f`` format would
collapse the sub-microsecond interarrivals of closely spaced packets).

Paths ending in ``.gz`` are transparently compressed/decompressed by both
the writers and the readers (and by the chunked readers in
:mod:`repro.stream`, which share :func:`open_trace`).

Both directions are columnar.  The readers parse the whole file with
:mod:`repro.stream.reader`'s one v1 parser — the parser the out-of-core
scanners run block by block — straight into ``from_arrays``; a malformed
file raises one ``ValueError`` that names it.  The writers format whole
column blocks at a time instead of materializing a record object per row.
The per-line ``format_*_line`` helpers remain the format's row-level
definition (and the frozen reference loops in :mod:`repro.kernels.reference`
still exercise them).

Connection trace format::

    #repro-connections v1
    start duration protocol bytes_orig bytes_resp orig_host resp_host session

Packet trace format::

    #repro-packets v1
    timestamp protocol connection direction size user_data
"""

from __future__ import annotations

import gzip
import os
from typing import IO

import numpy as np

from repro.traces.records import ConnectionRecord, PacketRecord
from repro.traces.trace import ConnectionTrace, PacketTrace

CONN_HEADER = "#repro-connections v1"
PKT_HEADER = "#repro-packets v1"

#: Rows formatted per writer block (bounds transient formatting memory).
WRITE_BLOCK_ROWS = 131072


def is_gzip_path(path: str | os.PathLike) -> bool:
    """Whether ``path`` names a gzip-compressed trace (by suffix)."""
    return os.fspath(path).endswith(".gz")


def open_trace(path: str | os.PathLike, mode: str = "rt") -> IO:
    """Open a trace file, transparently gunzipping ``.gz`` paths.

    Accepts text (``"rt"``/``"wt"``) and binary (``"rb"``/``"wb"``) modes;
    the shared entry point for both the whole-trace readers below and the
    chunked readers in :mod:`repro.stream`.
    """
    if is_gzip_path(path):
        return gzip.open(path, mode)
    if mode in ("rt", "wt"):
        mode = mode[0]
    return open(path, mode)


def format_connection_line(r: ConnectionRecord) -> str:
    """One v1 text line for a connection record (no trailing newline)."""
    sid = -1 if r.session_id is None else r.session_id
    return (
        f"{float(r.start_time)!r} {float(r.duration)!r} {r.protocol} "
        f"{r.bytes_orig} {r.bytes_resp} {r.orig_host} {r.resp_host} {sid}"
    )


def format_packet_line(p: PacketRecord) -> str:
    """One v1 text line for a packet record (no trailing newline)."""
    return (
        f"{float(p.timestamp)!r} {p.protocol} {p.connection_id} "
        f"{int(p.direction)} {p.size} {int(p.user_data)}"
    )


def format_connection_columns(
    start_times, durations, protocols, bytes_orig, bytes_resp,
    orig_hosts, resp_hosts, session_ids,
) -> str:
    """v1 text (newline-terminated lines) for a block of connection columns.

    Byte-identical to joining :func:`format_connection_line` over the
    equivalent records: ``tolist()`` yields Python floats, whose ``repr``
    is exactly what the per-record path writes.
    """
    return "".join(
        f"{t!r} {d!r} {p} {bo} {br} {oh} {rh} {sid}\n"
        for t, d, p, bo, br, oh, rh, sid in zip(
            np.asarray(start_times, dtype=float).tolist(),
            np.asarray(durations, dtype=float).tolist(),
            protocols,
            np.asarray(bytes_orig).tolist(),
            np.asarray(bytes_resp).tolist(),
            np.asarray(orig_hosts).tolist(),
            np.asarray(resp_hosts).tolist(),
            np.asarray(session_ids).tolist(),
        )
    )


def format_packet_columns(
    timestamps, protocols, connection_ids, directions, sizes, user_data,
) -> str:
    """v1 text (newline-terminated lines) for a block of packet columns."""
    return "".join(
        f"{t!r} {p} {c} {d} {s} {u}\n"
        for t, p, c, d, s, u in zip(
            np.asarray(timestamps, dtype=float).tolist(),
            protocols,
            np.asarray(connection_ids).tolist(),
            np.asarray(directions).tolist(),
            np.asarray(sizes).tolist(),
            np.asarray(user_data).astype(np.int64).tolist(),
        )
    )


def write_connection_trace(trace: ConnectionTrace, path: str | os.PathLike) -> None:
    """Write a connection trace to ``path`` (gzipped when it ends in .gz)."""
    protocols = trace.protocols
    with open_trace(path, "wt") as fh:
        fh.write(CONN_HEADER + "\n")
        for lo in range(0, len(trace), WRITE_BLOCK_ROWS):
            sl = slice(lo, lo + WRITE_BLOCK_ROWS)
            fh.write(format_connection_columns(
                trace.start_times[sl], trace.durations[sl], protocols[sl],
                trace.bytes_orig[sl], trace.bytes_resp[sl],
                trace.orig_hosts[sl], trace.resp_hosts[sl],
                trace.session_ids[sl],
            ))


def read_connection_trace(path: str | os.PathLike, name: str | None = None) -> ConnectionTrace:
    """Read a connection trace written by :func:`write_connection_trace`."""
    # Deferred import: repro.stream builds on this module.
    from repro.stream.reader import read_connection_columns

    return ConnectionTrace.from_arrays(
        name or _name_from(path), **read_connection_columns(path)
    )


def write_packet_trace(trace: PacketTrace, path: str | os.PathLike) -> None:
    """Write a packet trace to ``path`` (gzipped when it ends in .gz)."""
    protocols = trace.protocols
    with open_trace(path, "wt") as fh:
        fh.write(PKT_HEADER + "\n")
        for lo in range(0, len(trace), WRITE_BLOCK_ROWS):
            sl = slice(lo, lo + WRITE_BLOCK_ROWS)
            fh.write(format_packet_columns(
                trace.timestamps[sl], protocols[sl],
                trace.connection_ids[sl], trace.directions[sl],
                trace.sizes[sl], trace.user_data[sl],
            ))


def read_packet_trace(path: str | os.PathLike, name: str | None = None) -> PacketTrace:
    """Read a packet trace written by :func:`write_packet_trace`."""
    # Deferred import: repro.stream builds on this module.
    from repro.stream.reader import read_packet_columns

    return PacketTrace.from_arrays(
        name or _name_from(path), **read_packet_columns(path)
    )


def _name_from(path) -> str:
    base = os.path.basename(os.fspath(path))
    if base.endswith(".gz"):
        base = base[: -len(".gz")]
    return os.path.splitext(base)[0]
