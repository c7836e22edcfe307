"""Shard-parallel out-of-core trace scan: plan → fan out → merge.

``scan_trace`` splits a trace into line-aligned byte chunks
(:mod:`repro.stream.chunks`), scans each chunk into a
:class:`~repro.stream.summary.StreamSummary` — fanning out over the
engine's :func:`~repro.engine.runner.pool_map` when ``jobs > 1`` — and
merges the partial sketches *in chunk order*.

Determinism: the chunk plan depends only on the file and ``target_bytes``
(never on ``jobs``), every sketch merge is applied left-to-right in chunk
order, and the integer sketches are partition-exact, so ``--jobs N``
produces identical results to a single-process scan — bin counts and tail
estimates bit-for-bit, floating merges (means/variances) bit-for-bit too
because the merge *order* is fixed.

Per-chunk metrics (rows/s, bytes/s, peak RSS, worker pid) flow into the
``BENCH_*.json`` machinery via :meth:`ScanReport.bench_payload`.
"""

from __future__ import annotations

import logging
import os
import resource
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.utils.pool import pool_map
from repro.stream.chunks import DEFAULT_CHUNK_BYTES, Chunk, plan_chunks
from repro.stream.reader import (
    DEFAULT_BLOCK_BYTES,
    iter_chunk_batches,
    sniff_kind,
)
from repro.stream.summary import StreamSummary, SummaryConfig

logger = logging.getLogger("repro.stream")


def _peak_rss_kb() -> int:
    """Process-lifetime peak resident set size, in KiB."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(rss // 1024) if sys.platform == "darwin" else int(rss)


@dataclass(frozen=True)
class ScanConfig:
    """Everything a chunk worker needs (picklable)."""

    kind: str = "packet"
    summary: SummaryConfig = field(default_factory=SummaryConfig)
    per_protocol: bool = False
    block_bytes: int = DEFAULT_BLOCK_BYTES


@dataclass(frozen=True)
class ChunkMetrics:
    """Throughput record for one scanned chunk."""

    index: int
    n_records: int
    n_bytes: int
    wall_s: float
    rows_per_s: float
    bytes_per_s: float
    peak_rss_kb: int
    worker: str

    def payload(self) -> dict:
        return asdict(self)


def scan_chunk(
    chunk: Chunk, config: ScanConfig
) -> tuple[StreamSummary, dict[str, StreamSummary], ChunkMetrics]:
    """Scan one chunk into partial sketches (module-level: pickles to
    pool workers)."""
    t0 = time.perf_counter()
    total = StreamSummary(config.summary)
    per_proto: dict[str, StreamSummary] = {}
    n_records = 0
    for batch in iter_chunk_batches(chunk, config.kind,
                                    block_bytes=config.block_bytes):
        times = batch.times
        sizes = batch.sizes.astype(float)
        total.update(times, sizes)
        n_records += len(batch)
        if config.per_protocol:
            protos = batch.protocols
            for proto in np.unique(protos.astype(str)):
                mask = protos == proto
                per_proto.setdefault(
                    str(proto), StreamSummary(config.summary)
                ).update(times[mask], sizes[mask])
    wall = time.perf_counter() - t0
    metrics = ChunkMetrics(
        index=chunk.index,
        n_records=n_records,
        n_bytes=chunk.n_bytes,
        wall_s=wall,
        rows_per_s=n_records / wall if wall > 0 else 0.0,
        bytes_per_s=chunk.n_bytes / wall if wall > 0 else 0.0,
        peak_rss_kb=_peak_rss_kb(),
        worker=f"pid-{os.getpid()}",
    )
    return total, per_proto, metrics


@dataclass(frozen=True)
class ScanReport:
    """Merged result of one sharded scan."""

    path: str
    kind: str
    summary: StreamSummary
    per_protocol: dict[str, StreamSummary]
    chunk_metrics: list[ChunkMetrics]
    jobs: int
    total_wall_s: float

    @property
    def n_records(self) -> int:
        return self.summary.n

    @property
    def accumulator_nbytes(self) -> int:
        """Merged-sketch footprint: the memory bound the scan guarantees."""
        total = self.summary.nbytes
        for s in self.per_protocol.values():
            total += s.nbytes
        return total

    def bench_payload(self) -> dict:
        """A ``BENCH_*``-family record for the whole scan."""
        n_bytes = sum(m.n_bytes for m in self.chunk_metrics)
        return {
            "bench": "stream_scan",
            "unit": "s",
            "path": self.path,
            "kind": self.kind,
            "jobs": self.jobs,
            "n_chunks": len(self.chunk_metrics),
            "n_records": self.n_records,
            "n_bytes": n_bytes,
            "total_wall_s": self.total_wall_s,
            "rows_per_s": self.n_records / self.total_wall_s
            if self.total_wall_s > 0 else 0.0,
            "bytes_per_s": n_bytes / self.total_wall_s
            if self.total_wall_s > 0 else 0.0,
            "accumulator_nbytes": self.accumulator_nbytes,
            "peak_rss_kb": max(
                (m.peak_rss_kb for m in self.chunk_metrics), default=0
            ),
            "chunks": [m.payload() for m in self.chunk_metrics],
        }

    def write_bench(self, out_dir) -> list:
        """Write ``BENCH_stream_scan.json`` (+ summary) into ``out_dir``."""
        # Imported here: the engine package imports the experiment
        # registry, whose monitor experiment imports this package's
        # sketches, so a module-level import would make a cycle.
        from repro.engine.metrics import write_bench_files

        payload = self.bench_payload()
        summary = {
            "bench": "repro-stream",
            "unit": "s",
            "jobs": self.jobs,
            "total_wall_s": self.total_wall_s,
            "n_experiments": 1,
            "cache_hits": 0,
            "failures": 0,
            "experiments": [payload],
        }
        return write_bench_files(summary, out_dir)

    # ------------------------------------------------------------------
    def render(self, tail_fraction: float = 0.03) -> str:
        """Human-readable scan summary (the ``stream scan`` CLI output)."""
        s = self.summary
        lines = [
            f"stream scan: {self.path} ({self.kind} trace)",
            f"  records        {s.n:>14,d}",
            f"  span           {s.duration:>14.3f} s"
            f"   [{s.first_time if s.first_time is not None else 0.0:.3f}"
            f" .. {s.last_time if s.last_time is not None else 0.0:.3f}]",
            f"  bytes          {s.total_bytes:>14,.0f}",
            f"  mean rate      {s.n / s.duration if s.duration else 0.0:>14.1f}"
            " records/s",
            f"  size mean/std  {s.size_moments.mean:>10.1f} /"
            f" {s.size_moments.std:.1f}",
        ]
        if s.n >= 2:
            qs = [0.5, 0.9, 0.99]
            vals = s.gap_quantiles.quantiles(qs)
            lines.append(
                "  interarrival   "
                + "  ".join(f"p{int(q * 100)}={v:.6g}s"
                            for q, v in zip(qs, vals))
            )
            frac = s.best_tail_fraction(tail_fraction, "gap")
            if frac > 0 and s.n * frac >= 2:
                _, beta, k = s.gap_tail.tail_fit(frac)
                lines.append(
                    f"  gap tail beta  {beta:>14.3f}"
                    f"   (upper {100 * frac:.2g}% tail, k={k})"
                )
            sfrac = s.best_tail_fraction(0.05, "size")
            if sfrac > 0 and s.n * sfrac >= 2 and s.size_moments.max > 0:
                try:
                    _, sbeta, sk = s.size_tail.tail_fit(sfrac)
                    lines.append(
                        f"  size tail beta {sbeta:>14.3f}"
                        f"   (upper {100 * sfrac:.2g}% tail, k={sk})"
                    )
                except ValueError:
                    pass
            process = s.counts.as_count_process()
            if process.n_bins >= 100 and process.mean > 0:
                curve = s.counts.variance_time()
                top = int(curve.levels[-1])
                mid = max(min(10, top // 2), 1)
                slope = curve.slope(min_level=mid, max_level=top)
                lines.append(
                    f"  var-time slope {slope:>14.3f}"
                    f"   (H = {1.0 + slope / 2.0:.3f}, "
                    f"bin {s.config.bin_width}s, levels {mid}..{top})"
                )
        lines.append(
            f"  sketch memory  {self.accumulator_nbytes:>14,d} bytes"
            f"   ({len(self.chunk_metrics)} chunk(s), jobs={self.jobs}, "
            f"{self.total_wall_s:.2f}s, "
            f"{self.n_records / self.total_wall_s if self.total_wall_s else 0.0:,.0f} rows/s)"
        )
        for proto in sorted(self.per_protocol):
            p = self.per_protocol[proto]
            lines.append(
                f"  [{proto:<8s}] n={p.n:<12,d} bytes={p.total_bytes:>14,.0f}"
                f" mean-gap={p.gap_moments.mean if p.n > 1 else 0.0:.6g}s"
            )
        return "\n".join(lines)


def scan_trace(
    path: str | os.PathLike,
    *,
    kind: str | None = None,
    jobs: int = 1,
    config: SummaryConfig | None = None,
    per_protocol: bool = False,
    target_chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> ScanReport:
    """Scan a v1 trace file out-of-core, optionally sharded over workers.

    Results are independent of ``jobs``; see the module docstring for the
    determinism argument.
    """
    path = os.fspath(path)
    kind = sniff_kind(path) if kind is None else kind
    cfg = ScanConfig(
        kind=kind,
        summary=config if config is not None else SummaryConfig(),
        per_protocol=per_protocol,
        block_bytes=block_bytes,
    )
    t0 = time.perf_counter()
    chunks = plan_chunks(path, target_bytes=target_chunk_bytes)
    logger.info("scan %s: %d chunk(s), jobs=%d", path, len(chunks), jobs)

    def progress(i: int, outcome, wall_s: float) -> None:
        if isinstance(outcome, Exception):
            logger.info("chunk %d FAILED after %.2fs: %s", i, wall_s, outcome)
        else:
            m = outcome[2]
            logger.info(
                "chunk %d done: %d records in %.2fs (%.0f rows/s, %s)",
                i, m.n_records, m.wall_s, m.rows_per_s, m.worker,
            )

    outcomes = pool_map(
        scan_chunk, [(c, cfg) for c in chunks], jobs, on_result=progress
    )
    def failed(chunk):
        return RuntimeError(f"chunk {chunk.index} [{chunk.start}, "
                            f"{chunk.end}) of {path} failed")

    for chunk, outcome in zip(chunks, outcomes):
        if isinstance(outcome, Exception):
            raise failed(chunk) from outcome

    # Merge in chunk order — the order contract the sketches rely on (a
    # chunk that starts before its predecessor ends fails the merge).
    total, per_proto, metrics = outcomes[0]
    all_metrics = [metrics]
    for chunk, (part_total, part_proto, part_metrics) in zip(
            chunks[1:], outcomes[1:]):
        try:
            total.merge(part_total)
            for proto, part in part_proto.items():
                if proto in per_proto:
                    per_proto[proto].merge(part)
                else:
                    per_proto[proto] = part
        except ValueError as exc:
            raise failed(chunk) from exc
        all_metrics.append(part_metrics)

    return ScanReport(
        path=path,
        kind=kind,
        summary=total,
        per_protocol=per_proto,
        chunk_metrics=all_metrics,
        jobs=jobs,
        total_wall_s=time.perf_counter() - t0,
    )


def scan_traces(
    paths,
    *,
    kind: str | None = None,
    jobs: int = 1,
    config: SummaryConfig | None = None,
    per_protocol: bool = False,
    target_chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> ScanReport:
    """Scan several trace files and merge their sketches in argument order.

    File boundaries behave exactly like chunk boundaries: the merge chains
    the interarrival between file A's last record and file B's first, so
    scanning a trace split across files is bit-identical to scanning the
    concatenated trace (the accumulators' ``merge()`` is exact and
    associative).  All files must be the same trace kind.
    """
    paths = [os.fspath(p) for p in paths]
    if not paths:
        raise ValueError("need at least one trace path")
    cfg = config if config is not None else SummaryConfig()
    reports = []
    for path in paths:
        report = scan_trace(
            path, kind=kind, jobs=jobs, config=cfg,
            per_protocol=per_protocol,
            target_chunk_bytes=target_chunk_bytes,
            block_bytes=block_bytes,
        )
        if reports and report.kind != reports[0].kind:
            raise ValueError(
                f"{path}: is a {report.kind} trace, but "
                f"{paths[0]} is a {reports[0].kind} trace"
            )
        reports.append(report)
    if len(reports) == 1:
        return reports[0]
    total = reports[0].summary
    per_proto = dict(reports[0].per_protocol)
    all_metrics = list(reports[0].chunk_metrics)
    for report in reports[1:]:
        total.merge(report.summary)
        for proto, part in report.per_protocol.items():
            if proto in per_proto:
                per_proto[proto].merge(part)
            else:
                per_proto[proto] = part
        all_metrics.extend(report.chunk_metrics)
    return ScanReport(
        path=",".join(paths),
        kind=reports[0].kind,
        summary=total,
        per_protocol=per_proto,
        chunk_metrics=all_metrics,
        jobs=jobs,
        total_wall_s=sum(r.total_wall_s for r in reports),
    )
