"""Columnar record batches: the array-native currency of the data plane.

Every producer and consumer of trace data — the synthetic sources in
:mod:`repro.core`, the text readers/writers in :mod:`repro.traces.io`, the
out-of-core scanners in :mod:`repro.stream`, and the replay wire path —
moves records as the parallel-column batches defined here, never as lists
of per-row :class:`~repro.traces.records.PacketRecord` /
:class:`~repro.traces.records.ConnectionRecord` objects.  The record
dataclasses remain the *view* API (materialized on demand by
``trace.record(i)``); the columns are the storage and transport format.

Protocol interning
------------------
Protocol names are stored as ``int8`` codes plus a sorted category table
(``codes[i]`` indexes ``table``), pandas-Categorical style.  The table is
per-container — derived deterministically from the data with
:func:`encode_protocols` — so encoded containers are self-contained and
pickle across process pools without any global registry.  An interned
column costs 1 byte/row instead of an 8-byte object pointer (plus the
string storage), and protocol selection becomes an integer compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.traces.records import ConnectionRecord, PacketRecord

#: Interned protocol-code dtype; one byte per row.
PROTOCOL_CODE_DTYPE = np.int8

#: ``int8`` codes cap the per-container category table.
MAX_PROTOCOLS = 127


# ----------------------------------------------------------------------
# Protocol interning
# ----------------------------------------------------------------------
def encode_protocols(protocols) -> tuple[np.ndarray, np.ndarray]:
    """Intern a protocol-name column as ``(codes, table)``.

    ``table`` is the sorted unique names (object dtype) and ``codes`` the
    ``int8`` index of each row's name in it, so
    ``table[codes]`` reproduces the input exactly.
    """
    # A hash dedup and one dict lookup per row beat both ``np.unique``'s
    # object-array sort and a binary search over the table.
    names = np.asarray(protocols, dtype=object).tolist()
    table = sorted(set(names))
    if len(table) > MAX_PROTOCOLS:
        raise ValueError(
            f"{len(table)} distinct protocols exceed the int8 code space "
            f"({MAX_PROTOCOLS})"
        )
    code = {name: i for i, name in enumerate(table)}
    codes = np.fromiter(map(code.__getitem__, names),
                        dtype=PROTOCOL_CODE_DTYPE, count=len(names))
    return codes, np.array(table, dtype=object)


def decode_protocols(codes: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Materialize the object-dtype name column from interned codes."""
    table = np.asarray(table, dtype=object)
    if table.size == 0:
        return np.zeros(len(codes), dtype=object)
    return table[codes]


def protocol_code(table: np.ndarray, name: str) -> int:
    """The code of ``name`` in ``table``, or -1 when absent."""
    hit = np.flatnonzero(np.asarray(table, dtype=object) == name)
    return int(hit[0]) if hit.size else -1


# ----------------------------------------------------------------------
# Sort fast path
# ----------------------------------------------------------------------
def stable_time_order(times: np.ndarray) -> np.ndarray | None:
    """Stable sort permutation for a time column, or None when already
    non-decreasing.

    Every reader and synthesis path produces time-sorted output, so the
    common case skips both the ``argsort`` and the per-column gather the
    trace constructors would otherwise pay.
    """
    t = np.asarray(times)
    if t.size < 2 or not np.any(t[1:] < t[:-1]):
        return None
    return np.argsort(t, kind="stable")


# ----------------------------------------------------------------------
# Batch types (the transport currency; storage mirrors these columns)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PacketBatch:
    """A run of consecutive packet records as parallel columns."""

    timestamps: np.ndarray    # float64
    protocols: np.ndarray     # object (str)
    connection_ids: np.ndarray  # int64
    directions: np.ndarray    # int8
    sizes: np.ndarray         # int64
    user_data: np.ndarray     # bool
    #: Optional pre-encoded fixed-width byte protocols (``S`` dtype), set
    #: by columnar producers so the replay wire encoder skips the
    #: object-array ``astype("S")`` pass.
    protocols_s: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.timestamps.size)

    @property
    def times(self) -> np.ndarray:
        return self.timestamps


@dataclass(frozen=True)
class ConnectionBatch:
    """A run of consecutive connection records as parallel columns."""

    start_times: np.ndarray   # float64
    durations: np.ndarray     # float64
    protocols: np.ndarray     # object (str)
    bytes_orig: np.ndarray    # int64
    bytes_resp: np.ndarray    # int64
    orig_hosts: np.ndarray    # int64
    resp_hosts: np.ndarray    # int64
    session_ids: np.ndarray   # int64 (-1 = none)

    def __len__(self) -> int:
        return int(self.start_times.size)

    @property
    def times(self) -> np.ndarray:
        return self.start_times

    @property
    def sizes(self) -> np.ndarray:
        """Total bytes per connection (the Section VI 'burst size')."""
        return self.bytes_orig + self.bytes_resp


_PKT_COLUMNS = ("timestamps", "protocols", "connection_ids", "directions",
                "sizes", "user_data")
_CONN_COLUMNS = ("start_times", "durations", "protocols", "bytes_orig",
                 "bytes_resp", "orig_hosts", "resp_hosts", "session_ids")


def empty_packet_columns() -> PacketBatch:
    return PacketBatch(
        timestamps=np.zeros(0),
        protocols=np.zeros(0, dtype=object),
        connection_ids=np.zeros(0, dtype=np.int64),
        directions=np.zeros(0, dtype=np.int8),
        sizes=np.zeros(0, dtype=np.int64),
        user_data=np.zeros(0, dtype=bool),
    )


def empty_connection_columns() -> ConnectionBatch:
    return ConnectionBatch(
        start_times=np.zeros(0),
        durations=np.zeros(0),
        protocols=np.zeros(0, dtype=object),
        bytes_orig=np.zeros(0, dtype=np.int64),
        bytes_resp=np.zeros(0, dtype=np.int64),
        orig_hosts=np.zeros(0, dtype=np.int64),
        resp_hosts=np.zeros(0, dtype=np.int64),
        session_ids=np.zeros(0, dtype=np.int64),
    )


def _concat(batches: Sequence, columns: tuple[str, ...], empty):
    batches = [b for b in batches if len(b)]
    if not batches:
        return empty()
    if len(batches) == 1:
        return batches[0]
    return type(batches[0])(**{
        col: np.concatenate([getattr(b, col) for b in batches])
        for col in columns
    })


def concat_packet_batches(batches: Sequence[PacketBatch]) -> PacketBatch:
    """Concatenate packet batches in order (one batch passes through)."""
    return _concat(batches, _PKT_COLUMNS, empty_packet_columns)


def concat_connection_batches(
    batches: Sequence[ConnectionBatch],
) -> ConnectionBatch:
    """Concatenate connection batches in order (one batch passes through)."""
    return _concat(batches, _CONN_COLUMNS, empty_connection_columns)


# ----------------------------------------------------------------------
# Record-list <-> column conversion (the compatibility shim)
# ----------------------------------------------------------------------
def packet_records_to_columns(
    packets: Iterable[PacketRecord],
) -> PacketBatch:
    """Columns for a record list, in the list's order (no sorting)."""
    pkts = list(packets)
    return PacketBatch(
        timestamps=np.array([p.timestamp for p in pkts], dtype=float),
        protocols=np.array([p.protocol for p in pkts], dtype=object),
        connection_ids=np.array([p.connection_id for p in pkts],
                                dtype=np.int64),
        directions=np.array([int(p.direction) for p in pkts], dtype=np.int8),
        sizes=np.array([p.size for p in pkts], dtype=np.int64),
        user_data=np.array([p.user_data for p in pkts], dtype=bool),
    )


def connection_records_to_columns(
    records: Iterable[ConnectionRecord],
) -> ConnectionBatch:
    """Columns for a record list, in the list's order (no sorting)."""
    recs = list(records)
    return ConnectionBatch(
        start_times=np.array([r.start_time for r in recs], dtype=float),
        durations=np.array([r.duration for r in recs], dtype=float),
        protocols=np.array([r.protocol for r in recs], dtype=object),
        bytes_orig=np.array([r.bytes_orig for r in recs], dtype=np.int64),
        bytes_resp=np.array([r.bytes_resp for r in recs], dtype=np.int64),
        orig_hosts=np.array([r.orig_host for r in recs], dtype=np.int64),
        resp_hosts=np.array([r.resp_host for r in recs], dtype=np.int64),
        session_ids=np.array(
            [-1 if r.session_id is None else r.session_id for r in recs],
            dtype=np.int64,
        ),
    )
