"""Composite per-stream accumulator: everything one pass can measure.

A :class:`StreamSummary` bundles the mergeable sketches of
:mod:`repro.stream.sketches` into the paper's standard battery for one
event stream (packets, or connection starts):

* packet/event count process at a base bin width, with its dyadic
  aggregation ladder and variance-time curve (Figs. 4-5, 12-13);
* an optional byte (size-weighted) count process (Figs. 10-11);
* interarrival quantile sketch + moments + Pareto tail reservoir
  (Figs. 3, 6, 8; Section IV's β fits);
* size moments, log2-size histogram, and size tail reservoir
  (Section V-VI's size/burst distributions).

Order contract: within a chunk, ``update`` sees time-sorted batches; across
chunks, ``merge`` is called left-to-right in chunk order.  That lets the
summary chain interarrivals exactly across every boundary — the gap between
chunk A's last packet and chunk B's first is fed to the interarrival
sketches during the merge, so a sharded scan sees the *identical* multiset
of interarrivals as a sequential one.  Both check the contract: a time that
goes backwards raises ``ValueError`` rather than entering the sketches as a
negative interarrival.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stream.sketches import (
    CountLadder,
    Log2Histogram,
    QuantileSketch,
    StreamingMoments,
    TopK,
)


@dataclass(frozen=True)
class SummaryConfig:
    """Sketch sizing for a :class:`StreamSummary` (picklable, hashable)."""

    bin_width: float = 0.01
    start: float = 0.0
    end: float | None = None
    quantile_capacity: int = 1024
    tail_capacity: int = 4096
    byte_process: bool = True


class StreamSummary:
    """Single-pass, mergeable summary of one event stream."""

    def __init__(self, config: SummaryConfig):
        self.config = config
        self.n = 0
        self.first_time: float | None = None
        self.last_time: float | None = None
        self.counts = CountLadder(config.bin_width, start=config.start,
                                  end=config.end)
        self.bytes = (
            CountLadder(config.bin_width, start=config.start, end=config.end,
                        weighted=True)
            if config.byte_process else None
        )
        self.size_moments = StreamingMoments()
        self.size_log2 = Log2Histogram()
        self.size_tail = TopK(config.tail_capacity)
        self.gap_moments = StreamingMoments()
        self.gap_quantiles = QuantileSketch(config.quantile_capacity)
        self.gap_tail = TopK(config.tail_capacity)

    # ------------------------------------------------------------------
    def update(self, times, sizes=None) -> None:
        """Fold in one time-sorted batch (times ascending within/between
        batches of the same stream segment).

        Raises ``ValueError``, before any sketch is touched, when time
        goes backwards inside the batch or from the previous batch.
        """
        t = np.asarray(times, dtype=float)
        if t.size == 0:
            return
        gaps = np.diff(t)
        if self.last_time is not None:
            gaps = np.concatenate([[t[0] - self.last_time], gaps])
        if gaps.size and gaps.min() < 0:
            i = int(np.argmax(gaps < 0)) + t.size - gaps.size
            before = self.last_time if i == 0 else t[i - 1]
            raise ValueError(f"time goes backwards at batch index {i}: "
                             f"{float(t[i])!r} after {float(before)!r}")
        sz = None if sizes is None else np.asarray(sizes, dtype=float)
        self.counts.update(t)
        if self.bytes is not None:
            self.bytes.update(t, sz if sz is not None else np.ones_like(t))
        if sz is not None:
            self.size_moments.update(sz)
            self.size_log2.update(sz)
            self.size_tail.update(sz)
        if gaps.size:
            self.gap_moments.update(gaps)
            self.gap_quantiles.update(gaps)
            self.gap_tail.update(gaps)
        if self.first_time is None:
            self.first_time = float(t[0])
        self.last_time = float(t[-1])
        self.n += int(t.size)

    # ------------------------------------------------------------------
    def merge(self, other: "StreamSummary") -> None:
        """Absorb ``other``, which must cover the *later* stream segment;
        raises ``ValueError`` when it starts before this one ends."""
        if other.config != self.config:
            raise ValueError("cannot merge summaries with different configs")
        if other.n == 0:
            return
        if self.n and other.first_time is not None:
            boundary = other.first_time - self.last_time
            if boundary < 0:
                raise ValueError(
                    f"time goes backwards at the merge boundary: "
                    f"{other.first_time!r} after {self.last_time!r}")
            self.gap_moments.update([boundary])
            self.gap_quantiles.update([boundary])
            self.gap_tail.update([boundary])
        self.counts.merge(other.counts)
        if self.bytes is not None:
            self.bytes.merge(other.bytes)
        self.size_moments.merge(other.size_moments)
        self.size_log2.merge(other.size_log2)
        self.size_tail.merge(other.size_tail)
        self.gap_moments.merge(other.gap_moments)
        self.gap_quantiles.merge(other.gap_quantiles)
        self.gap_tail.merge(other.gap_tail)
        if self.first_time is None:
            self.first_time = other.first_time
        self.last_time = other.last_time
        self.n += other.n

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        if self.first_time is None:
            return 0.0
        return self.last_time - self.first_time

    @property
    def total_bytes(self) -> float:
        return self.size_moments.total

    @property
    def nbytes(self) -> int:
        """Peak accumulator footprint — bounded by sketch sizing + window,
        independent of how many records streamed through."""
        total = self.counts.nbytes
        if self.bytes is not None:
            total += self.bytes.nbytes
        for sk in (self.size_moments, self.size_log2, self.size_tail,
                   self.gap_moments, self.gap_quantiles, self.gap_tail):
            total += sk.nbytes
        return int(total)

    # -- headline estimates -------------------------------------------
    def interarrival_tail_beta(self, tail_fraction: float = 0.03):
        """Streamed Pareto β of the upper interarrival tail (Section IV).

        Bit-identical to ``pareto.tail_fit`` on the full interarrival set
        while the reservoir holds the needed order statistics; fractions the
        reservoir cannot cover exactly raise ``ValueError``.
        """
        return self.gap_tail.tail_fit(tail_fraction)

    def size_tail_beta(self, tail_fraction: float = 0.05):
        """Streamed Pareto β of the upper size tail (Section VI)."""
        return self.size_tail.tail_fit(tail_fraction)

    def best_tail_fraction(self, requested: float, which: str = "gap") -> float:
        """Largest fraction <= ``requested`` the reservoir covers exactly."""
        reservoir = self.gap_tail if which == "gap" else self.size_tail
        return min(requested, reservoir.max_tail_fraction())
