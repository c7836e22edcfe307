"""The one parser of the v1 text trace formats, and its two framings.

Each kind's v1 line is written down once, in :data:`_FORMATS`: its header
and a structured row dtype whose fields are named as the batch columns.
``np.loadtxt``'s C tokenizer parses every field; the protocol field is
``object``, so a protocol name of any width reads whole.  Two framings
share that parse:

* **whole file** — :func:`read_packet_columns` and
  :func:`read_connection_columns` hand ``np.loadtxt`` the path (one call;
  ``.gz`` paths decompress transparently), then intern the protocols;
* **chunked** — :func:`iter_chunk_batches` walks one
  :class:`~repro.stream.chunks.Chunk` in whole-line blocks of about
  ``block_bytes`` and yields one column batch per block, holding at most
  one block of text plus one batch of arrays in memory, never the trace.

Both check the header with one helper that reads the first line as bytes,
and both wrap every parse failure — a wrong field count, a value that does
not fit its field, bytes that are not UTF-8 — in one ``ValueError`` that
says ``malformed`` and names the file (and the chunk and block).

Batches are intentionally *not* :class:`PacketTrace` objects: they are flat
columns fed straight into the mergeable accumulators of
:mod:`repro.stream.sketches`.
"""

from __future__ import annotations

import io
import os
import warnings
from typing import Iterator, NamedTuple

import numpy as np

from repro.stream.chunks import Chunk, plan_chunks
from repro.traces.columns import ConnectionBatch, PacketBatch, encode_protocols
from repro.traces.io import CONN_HEADER, PKT_HEADER, open_trace

__all__ = [
    "ConnectionBatch", "PacketBatch", "DEFAULT_BLOCK_BYTES", "sniff_kind",
    "iter_chunk_batches", "iter_trace_batches",
    "read_connection_columns", "read_packet_columns",
]

#: Bytes of text parsed per yielded batch.
DEFAULT_BLOCK_BYTES = 8 * 1024 * 1024

#: Text encoding of a trace file.  Blocks end at a newline byte, which
#: never falls inside a UTF-8 character.
_ENCODING = "utf-8"

#: Most bytes read while looking for the header line: past every v1
#: header, so a file without a newline is never read whole.
_HEADER_PROBE = 64


class _Format(NamedTuple):
    header: str
    batch: type
    row: np.dtype


_FORMATS = {
    "packet": _Format(PKT_HEADER, PacketBatch, np.dtype([
        ("timestamps", "f8"),
        ("protocols", "O"),
        ("connection_ids", "i8"),
        ("directions", "i1"),
        ("sizes", "i8"),
        ("user_data", "?"),
    ])),
    "connection": _Format(CONN_HEADER, ConnectionBatch, np.dtype([
        ("start_times", "f8"),
        ("durations", "f8"),
        ("protocols", "O"),
        ("bytes_orig", "i8"),
        ("bytes_resp", "i8"),
        ("orig_hosts", "i8"),
        ("resp_hosts", "i8"),
        ("session_ids", "i8"),
    ])),
}


def _format(kind: str) -> _Format:
    try:
        return _FORMATS[kind]
    except KeyError:
        raise ValueError(
            f"kind must be 'packet' or 'connection', got {kind!r}"
        ) from None


def _read_header(path) -> tuple[str, int]:
    """The file's first line, without its line end, and its length in
    bytes with it — read as bytes, so nothing past it is decoded."""
    with open_trace(path, "rb") as fh:
        line = fh.readline(_HEADER_PROBE)
    return line.rstrip(b"\r\n").decode("ascii", "replace"), len(line)


def _check_header(path, kind: str) -> int:
    """Bytes of the header line, after checking it names ``kind``."""
    header, n_bytes = _read_header(path)
    expected = _format(kind).header
    if header != expected:
        raise ValueError(
            f"{path}: bad header {header!r}; expected {expected!r}"
        )
    return n_bytes


def sniff_kind(path: str | os.PathLike) -> str:
    """Return ``"packet"`` or ``"connection"`` from the file's v1 header."""
    header, _ = _read_header(path)
    for kind, fmt in _FORMATS.items():
        if header == fmt.header:
            return kind
    raise ValueError(f"{path}: unrecognized trace header {header!r}")


def _parse(source: str | bytes, kind: str, where: str) -> dict:
    """Columns of ``kind`` from a whole file past its header (``source``
    is its path) or from one block of whole lines (``source`` is bytes).

    Every failure raises one ``ValueError`` that says ``malformed`` and
    names ``where``.
    """
    row = _format(kind).row
    try:
        if isinstance(source, bytes):
            # newline="" ends lines at \n, \r\n and \r, as the file
            # framing's universal newlines do.
            text, skip = io.StringIO(source.decode(_ENCODING), newline=""), 0
        else:
            text, skip = source, 1
        with warnings.catch_warnings():
            # A header-only file is a valid empty trace, not a warning.
            warnings.simplefilter("ignore")
            cells = np.loadtxt(text, dtype=row, comments=None, ndmin=1,
                               skiprows=skip, encoding=_ENCODING)
    except ValueError as exc:  # UnicodeDecodeError is one too
        raise ValueError(f"{where}: malformed {kind} records: {exc}") from exc
    return {name: np.ascontiguousarray(cells[name]) for name in row.names}


def _iter_blocks(chunk: Chunk, block_bytes: int, skip: int) -> Iterator[bytes]:
    """Yield whole-line byte blocks covering the chunk past its first
    ``skip`` bytes."""
    with open_trace(chunk.path, "rb") as fh:
        fh.seek(chunk.start + skip)
        remaining = None if chunk.compressed else chunk.n_bytes - skip
        carry = b""
        while remaining is None or remaining > 0:
            block = fh.read(block_bytes if remaining is None
                            else min(block_bytes, remaining))
            if not block:
                break
            if remaining is not None:
                remaining -= len(block)
            data = carry + block
            cut = data.rfind(b"\n") + 1
            carry = data[cut:]
            if cut:
                yield data[:cut]
        if carry:
            # A chunk's final line always ends in a newline (chunks end at
            # line starts); a trailing fragment can only be an unterminated
            # final line of the file itself.
            yield carry


def iter_chunk_batches(
    chunk: Chunk,
    kind: str = "packet",
    *,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> Iterator[PacketBatch | ConnectionBatch]:
    """Yield record batches for one chunk, validating the header if present."""
    batch = _format(kind).batch
    skip = _check_header(chunk.path, kind) if chunk.has_header else 0
    for block_no, block in enumerate(_iter_blocks(chunk, block_bytes, skip)):
        where = f"{chunk.path}[chunk {chunk.index}, block {block_no}]"
        records = batch(**_parse(block, kind, where))
        if len(records):
            yield records


def iter_trace_batches(
    path: str | os.PathLike,
    kind: str | None = None,
    *,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    target_chunk_bytes: int | None = None,
) -> Iterator[PacketBatch | ConnectionBatch]:
    """Sequentially stream a whole trace as record batches.

    The single-process convenience entry point; sharded scans go through
    :func:`repro.stream.driver.scan_trace` instead.
    """
    kind = sniff_kind(path) if kind is None else kind
    kwargs = {} if target_chunk_bytes is None else {"target_bytes": target_chunk_bytes}
    for chunk in plan_chunks(path, **kwargs):
        yield from iter_chunk_batches(chunk, kind, block_bytes=block_bytes)


def _read_columns(path, kind: str) -> dict:
    """A whole trace file as ``from_arrays`` kwargs, protocols interned."""
    path = os.fspath(path)
    _check_header(path, kind)
    columns = _parse(path, kind, path)
    columns["protocol_codes"], columns["protocol_table"] = encode_protocols(
        columns.pop("protocols"))
    return columns


def read_packet_columns(path: str | os.PathLike) -> dict:
    """Read a whole v1 packet trace as ``PacketTrace.from_arrays`` kwargs."""
    return _read_columns(path, "packet")


def read_connection_columns(path: str | os.PathLike) -> dict:
    """Read a whole v1 connection trace as ``ConnectionTrace.from_arrays``
    kwargs."""
    return _read_columns(path, "connection")
