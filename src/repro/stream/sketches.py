"""Mergeable bounded-memory accumulators for single-pass trace analytics.

Every estimator the paper runs over a trace — count processes and the
variance-time curve (Figs. 4-5, 12-13), interarrival/size CDFs (Figs. 3,
6, 8), Pareto tail fits (Sections IV and VI) — is a single-pass statistic,
so it admits an accumulator that (a) consumes record batches with memory
bounded by the sketch, never by the trace, and (b) supports an associative
``merge`` so shard-parallel scans of byte-range chunks reduce to the same
answer as one sequential pass.

An always-on monitor's bounded view of the *recent* stream is a parameter,
not a second class: :class:`CountLadder` takes a sliding ``window`` and
:class:`TopK` an exponential ``decay`` (defaults ``inf`` / ``0``: unbounded);
``repro.monitor.windows`` re-exports them under its names.

Exactness contract (relied on by the shard-determinism tests):

* :class:`CountLadder` bin counts and :class:`TopK` tail samples are
  *bit-identical* to the in-memory path (``CountProcess.from_times`` /
  ``stats.tail`` helpers) — integer counts and order statistics are exact
  under any partition of the input.  Windowed ladders and decayed
  reservoirs keep the merge exact and order-invariant: eviction depends
  only on the merged maximum event time, and decay weights are pure
  functions of an item's time and the merged clock.
* Both reject NaN and infinite inputs with a ``ValueError`` naming the
  sketch, rather than dropping or mis-binning them.
* :class:`StreamingMoments` merges are mathematically associative (Chan's
  parallel update); floating-point rounding differs from a single-pass mean
  only at machine precision, and is *deterministic* for a fixed chunk plan
  because the driver always merges partials in chunk order.
* :class:`QuantileSketch` is a deterministic compactor sketch: its rank
  error is bounded by :meth:`QuantileSketch.max_rank_error`, an exact
  count of the weight discarded by the compactions that actually happened.
"""

from __future__ import annotations

import math

import numpy as np

from repro.selfsim.counts import CountProcess
from repro.utils.binning import bin_edges
from repro.utils.validation import require_nonnegative, require_positive

__all__ = [
    "CountLadder",
    "Log2Histogram",
    "QuantileSketch",
    "StreamingMoments",
    "TopK",
]


def _require_finite(arr: np.ndarray, sketch: str, what: str) -> None:
    """Raise, naming the sketch, when any of ``arr`` is NaN or infinite."""
    bad = arr.size - int(np.count_nonzero(np.isfinite(arr)))
    if bad:
        raise ValueError(
            f"{sketch}.update: {bad} of {arr.size} {what} are not finite"
        )


# ----------------------------------------------------------------------
# Streaming mean / variance (Welford / Chan)
# ----------------------------------------------------------------------
class StreamingMoments:
    """Streaming count / mean / variance / extremes (Welford-Chan).

    ``update`` folds a batch in via Chan et al.'s pairwise combination of
    (n, mean, M2) triples; ``merge`` applies the same combination to two
    accumulators, so the merge is associative and a sharded scan matches a
    sequential one up to float rounding.
    """

    __slots__ = ("n", "mean", "m2", "min", "max", "total")

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.min = np.inf
        self.max = -np.inf
        self.total = 0.0

    def update(self, values) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return
        self._combine(arr.size, float(arr.mean()),
                      float(((arr - arr.mean()) ** 2).sum()),
                      float(arr.min()), float(arr.max()), float(arr.sum()))

    def merge(self, other: "StreamingMoments") -> None:
        self._combine(other.n, other.mean, other.m2, other.min, other.max,
                      other.total)

    def _combine(self, n, mean, m2, lo, hi, total) -> None:
        if n == 0:
            return
        if self.n == 0:
            self.n, self.mean, self.m2 = n, mean, m2
            self.min, self.max, self.total = lo, hi, total
            return
        delta = mean - self.mean
        combined = self.n + n
        self.m2 = self.m2 + m2 + delta * delta * (self.n * n / combined)
        self.mean = self.mean + delta * (n / combined)
        self.n = combined
        self.min = min(self.min, lo)
        self.max = max(self.max, hi)
        self.total += total

    @property
    def variance(self) -> float:
        """Population variance (ddof=0, matching ``np.var``)."""
        return self.m2 / self.n if self.n else 0.0

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    @property
    def nbytes(self) -> int:
        return 6 * 8

    def __repr__(self):
        return (f"StreamingMoments(n={self.n}, mean={self.mean:.6g}, "
                f"var={self.variance:.6g})")


# ----------------------------------------------------------------------
# log2-size histogram
# ----------------------------------------------------------------------
class Log2Histogram:
    """Counts of values by ``floor(log2(v))`` bucket (plus a zero bucket).

    The paper characterizes size distributions on log2 axes (log2-normal
    packet sizes, Section V); this is the streaming raw material for those
    plots.  Merging adds the integer bucket counts — exact.

    Bucket convention (pinned, inherited by the windowed variants):

    * values ``<= 0`` (zero and negative) never enter a log bucket; they
      accumulate in the separate :attr:`zeros` counter;
    * sub-unity positives (``0 < v < 1``, exponent < 0) clamp into
      bucket 0 together with ``1 <= v < 2`` — the histogram's domain is
      sizes in whole units (bytes, packets), so fractions below one unit
      are not resolved;
    * values at or above ``2 ** max_exponent`` clamp into the last
      bucket.

    So bucket 0 counts ``0 < v < 2``, bucket ``i`` (0 < i < last) counts
    ``2**i <= v < 2**(i+1)``, and the last bucket is open-ended.
    """

    __slots__ = ("counts", "zeros")

    def __init__(self, max_exponent: int = 64):
        self.counts = np.zeros(max_exponent, dtype=np.int64)
        self.zeros = 0

    def update(self, values) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return
        positive = arr[arr > 0]
        self.zeros += int(arr.size - positive.size)
        if positive.size:
            exps = np.floor(np.log2(positive)).astype(np.int64)
            # Clamp both ends per the bucket convention above: negative
            # exponents (sub-unity values) land in bucket 0, oversized
            # values in the open-ended last bucket.
            exps = np.clip(exps, 0, self.counts.size - 1)
            self.counts += np.bincount(exps, minlength=self.counts.size)

    def merge(self, other: "Log2Histogram") -> None:
        if other.counts.size != self.counts.size:
            size = max(self.counts.size, other.counts.size)
            merged = np.zeros(size, dtype=np.int64)
            merged[: self.counts.size] += self.counts
            merged[: other.counts.size] += other.counts
            self.counts = merged
        else:
            self.counts = self.counts + other.counts
        self.zeros += other.zeros

    @property
    def n(self) -> int:
        return int(self.counts.sum()) + self.zeros

    def nonzero_buckets(self) -> list[tuple[int, int]]:
        """(exponent, count) pairs for occupied buckets."""
        idx = np.flatnonzero(self.counts)
        return [(int(i), int(self.counts[i])) for i in idx]

    @property
    def nbytes(self) -> int:
        return int(self.counts.nbytes) + 8


# ----------------------------------------------------------------------
# top-k tail reservoir
# ----------------------------------------------------------------------
class TopK:
    """Reservoir of the ``capacity`` largest values, optionally decayed.

    Stores ``(value, event-time)`` pairs; values passed without times
    carry the reservoir clock (the largest event time seen, else 0).

    * ``decay=0`` (default): an exact top-k with unit weights and
      ``n_eff == n_seen``.  The Hill estimator and
      :func:`repro.distributions.pareto.tail_fit` consume only upper order
      statistics, so with ``capacity >= k_tail + 1`` the tail fit is the
      batch one *bit-for-bit* in O(k) memory, and ``merge`` keeps exactly
      the top-k of the union — order statistics are partition-proof.
    * ``decay > 0``: weights ``exp(-decay * (now - t))`` are derived lazily
      against the reservoir clock, and :attr:`n_eff` decays the same way.
      ``update`` evicts items below ``weight_floor``, so an ancient outlier
      cannot dominate the tail fit forever; ``merge`` is a pure top-k union
      whose weights depend only on the pair and the merged clock, so any
      shard merge order yields the identical reservoir.
    """

    __slots__ = ("capacity", "decay", "weight_floor", "values", "times",
                 "n_seen", "n_eff", "t_ref")

    def __init__(self, capacity: int, decay: float = 0.0,
                 weight_floor: float = 1e-9):
        require_positive(capacity, "capacity")
        require_nonnegative(decay, "decay")
        if not 0.0 < weight_floor < 1.0:
            raise ValueError(
                f"weight_floor must be in (0, 1), got {weight_floor}"
            )
        self.capacity = int(capacity)
        self.decay = float(decay)
        self.weight_floor = float(weight_floor)
        self.values = np.empty(0, dtype=float)  # sorted ascending
        self.times = np.empty(0, dtype=float)   # aligned event times
        self.n_seen = 0
        self.n_eff = 0.0
        self.t_ref = -np.inf

    # -- internals -----------------------------------------------------
    def _select(self, values: np.ndarray, times: np.ndarray,
                evict_age: bool = True) -> None:
        """Keep the ``capacity`` largest by value (ties broken by time so
        the kept multiset is deterministic under any merge order).

        Age eviction only runs on the sequential ``update`` path
        (``evict_age=True``): inside ``merge`` the selection must be the
        pure top-k union, because dropping by age against an
        *intermediate* merge clock frees capacity slots in one merge
        order but not another and top-k truncation is irreversible.
        Items a merge retains past their floor age just carry a
        negligible weight at query time.
        """
        if evict_age and self.decay > 0.0 and values.size:
            max_age = -math.log(self.weight_floor) / self.decay
            young = (self.t_ref - times) <= max_age
            values, times = values[young], times[young]
        cut = values.size - self.capacity
        if cut > 0:
            # Linear in the batch: only values at or above the
            # capacity-th largest can survive (ties at that threshold
            # included, the time order decides among them), so only
            # those are sorted.
            keep = values >= np.partition(values, cut)[cut]
            values, times = values[keep], times[keep]
        order = np.lexsort((times, values))[-self.capacity:]
        self.values, self.times = values[order], times[order]

    def _advance(self, now: float) -> None:
        if now <= self.t_ref:
            return
        if self.n_eff:
            self.n_eff *= math.exp(-self.decay * (now - self.t_ref))
        self.t_ref = now

    # -- updates -------------------------------------------------------
    def update(self, values, times=None) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return
        _require_finite(arr, "TopK", "values")
        if times is None:
            t = np.full(arr.size, self.t_ref if self.t_ref > -np.inf else 0.0)
        else:
            t = np.broadcast_to(np.asarray(times, dtype=float), arr.shape)
            _require_finite(t, "TopK", "times")
        self.n_seen += int(arr.size)
        now = max(self.t_ref, float(t.max()))
        self._advance(now)
        if self.decay:
            self.n_eff += float(np.exp(-self.decay * (now - t)).sum())
        else:
            self.n_eff += float(arr.size)
        self._select(np.concatenate([self.values, arr]),
                     np.concatenate([self.times, t]))

    def merge(self, other: "TopK") -> None:
        if (other.capacity != self.capacity or other.decay != self.decay
                or other.weight_floor != self.weight_floor):
            raise ValueError("cannot merge TopK with different parameters")
        now = max(self.t_ref, other.t_ref)
        self._advance(now)
        boost = (math.exp(-self.decay * (now - other.t_ref))
                 if now > other.t_ref and other.n_eff else 1.0)
        self.n_eff += other.n_eff * boost
        self.n_seen += other.n_seen
        self._select(np.concatenate([self.values, other.values]),
                     np.concatenate([self.times, other.times]),
                     evict_age=False)

    # -- queries -------------------------------------------------------
    def weights(self) -> np.ndarray:
        """Current item weights, aligned with :attr:`values`."""
        if self.decay == 0.0:
            return np.ones(self.values.size)
        return np.exp(-self.decay * (self.t_ref - self.times))

    def tail_samples(self, k: int) -> np.ndarray:
        """The ``k`` largest stored values, ascending (exact)."""
        if not 0 <= k <= self.values.size:
            raise ValueError(
                f"k must be in [0, {self.values.size}] (reservoir holds "
                f"{self.values.size} of {self.n_seen} seen), got {k}"
            )
        return self.values[self.values.size - k:].copy()

    def max_tail_fraction(self) -> float:
        """The largest ``tail_fraction`` :meth:`tail_fit` can serve.

        The fit needs its tail *plus one* value as the threshold, all
        resident in the reservoir, so the feasible ceiling is the weight
        stored above the smallest value over ``n_eff`` — ``(stored - 1) /
        n_seen`` at ``decay=0``.  Streaming callers use this to degrade
        the requested fraction instead of guessing after a failure.
        """
        if self.n_eff <= 0 or self.values.size < 2:
            return 0.0
        return float(self.weights()[1:].sum() / self.n_eff)

    def hill(self, k: int) -> float:
        """Hill estimate of the Pareto tail index from the k largest values.

        Weighted as ``W / sum(w_i * ln(v_i / threshold))``, with the tail
        weight ``W`` summed largest-first as :meth:`tail_fit` accumulates
        it.  Identical to ``repro.distributions.pareto.hill_estimator`` on
        the full sample whenever ``decay=0`` and ``k + 1 <= capacity``.
        """
        if not 1 <= k < self.n_seen:
            raise ValueError(f"k must satisfy 1 <= k < n (= {self.n_seen}), got {k}")
        if k + 1 > self.values.size:
            raise ValueError(
                f"reservoir capacity {self.capacity} too small for k={k}; "
                "need the (k+1)-th largest value as the tail threshold; "
                f"largest feasible tail fraction is "
                f"{self.max_tail_fraction():.6g}"
            )
        threshold = self.values[self.values.size - k - 1]
        if threshold <= 0:
            raise ValueError("Hill estimator requires a positive tail threshold")
        wt = self.weights()[self.values.size - k:]
        logs = wt * np.log(self.values[self.values.size - k:] / threshold)
        total = float(np.sum(logs))
        if total <= 0:
            raise ValueError("degenerate upper tail")
        return float(np.cumsum(wt[::-1])[-1]) / total

    def tail_fit(self, tail_fraction: float = 0.05) -> tuple[float, float, int]:
        """Pareto ``(location, shape, k)`` for the upper ``tail_fraction``.

        The tail is the fewest largest stored values whose weight reaches
        ``n_eff * tail_fraction`` (at least 2); the shape is their weighted
        :meth:`hill`.  At ``decay=0`` this is
        :func:`repro.distributions.pareto.tail_fit` bit-for-bit (same
        ``k = max(2, floor(n * fraction))``, same order statistics).  A
        reservoir too small for the fraction raises, naming the largest
        feasible one (:meth:`max_tail_fraction`) so callers can degrade.
        """
        target = max(2.0, math.floor(self.n_eff * tail_fraction))
        if target >= self.n_eff:
            raise ValueError("tail fraction leaves no body below the threshold")
        cum = np.cumsum(self.weights()[::-1])  # weight from the largest down
        k = int(np.searchsorted(cum, target, side="left")) + 1
        if k + 1 > self.values.size:
            raise ValueError(
                f"reservoir holds {self.values.size} of {self.n_seen} seen: "
                f"cannot cover tail fraction {tail_fraction:g}; largest "
                f"feasible tail fraction is {self.max_tail_fraction():.6g}"
            )
        return float(self.values[self.values.size - k - 1]), self.hill(k), k

    @property
    def nbytes(self) -> int:
        return int(self.values.nbytes) + int(self.times.nbytes) + 48


# ----------------------------------------------------------------------
# deterministic mergeable quantile sketch
# ----------------------------------------------------------------------
class QuantileSketch:
    """Deterministic compactor (GK/KLL-style) quantile sketch.

    Items live in level buffers; an item at level ``l`` stands for ``2**l``
    originals.  When a buffer exceeds ``capacity`` it is sorted and every
    other item is promoted to the next level with doubled weight — the
    survivors' parity alternates between compactions, so successive
    compaction errors partially cancel.  Total weight is conserved exactly
    (an odd item stays behind), so ``total_weight == n`` always.

    Error bound: each compaction at level ``l`` perturbs any rank query by
    at most ``2**l``; :meth:`max_rank_error` returns the exact sum over the
    compactions that occurred — roughly ``n * log2(n/capacity) / capacity``
    — and the property tests assert observed rank error stays within it.
    ``merge`` concatenates level buffers and re-compacts; the bound adds.
    """

    __slots__ = ("capacity", "_levels", "_counts", "_parity", "_error", "n")

    def __init__(self, capacity: int = 1024):
        if capacity < 8:
            raise ValueError(f"capacity must be >= 8, got {capacity}")
        self.capacity = int(capacity)
        self._levels: list[list[np.ndarray]] = [[]]
        self._counts: list[int] = [0]
        self._parity: list[int] = [0]
        self._error = 0  # sum of 2**l over performed compactions
        self.n = 0

    # -- updates -------------------------------------------------------
    def update(self, values) -> None:
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            return
        self.n += int(arr.size)
        # Feed in capacity-sized slices so level-0 memory stays bounded
        # even for batches much larger than the sketch.
        for lo in range(0, arr.size, self.capacity):
            self._push(0, arr[lo: lo + self.capacity])

    def _push(self, level: int, chunk: np.ndarray) -> None:
        while level >= len(self._levels):
            self._levels.append([])
            self._counts.append(0)
            self._parity.append(0)
        self._levels[level].append(chunk)
        self._counts[level] += chunk.size
        if self._counts[level] > self.capacity:
            self._compact(level)

    def _compact(self, level: int) -> None:
        arr = np.sort(np.concatenate(self._levels[level]))
        if arr.size % 2:
            # hold the largest item back so total weight is conserved
            leftover, arr = arr[-1:], arr[:-1]
        else:
            leftover = arr[:0]
        survivors = arr[self._parity[level]:: 2]
        self._parity[level] ^= 1
        self._levels[level] = [leftover] if leftover.size else []
        self._counts[level] = int(leftover.size)
        self._error += 2 ** level
        if survivors.size:
            self._push(level + 1, survivors)

    # -- merge ---------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> None:
        if other.capacity != self.capacity:
            raise ValueError(
                f"cannot merge sketches of different capacity "
                f"({self.capacity} vs {other.capacity})"
            )
        self.n += other.n
        self._error += other._error
        for level, parts in enumerate(other._levels):
            for chunk in parts:
                if chunk.size:
                    self._push(level, chunk)

    # -- queries -------------------------------------------------------
    def _items(self) -> tuple[np.ndarray, np.ndarray]:
        values, weights = [], []
        for level, parts in enumerate(self._levels):
            for chunk in parts:
                if chunk.size:
                    values.append(chunk)
                    weights.append(np.full(chunk.size, 2 ** level, dtype=np.int64))
        if not values:
            return np.empty(0), np.empty(0, dtype=np.int64)
        v = np.concatenate(values)
        w = np.concatenate(weights)
        order = np.argsort(v, kind="stable")
        return v[order], w[order]

    @property
    def total_weight(self) -> int:
        """Conserved exactly: always equals ``n``."""
        return int(sum(
            chunk.size * 2 ** level
            for level, parts in enumerate(self._levels)
            for chunk in parts
        ))

    def max_rank_error(self) -> int:
        """Exact worst-case rank error of any quantile query (in items)."""
        return int(self._error)

    def quantile(self, q: float) -> float:
        """Smallest stored value whose cumulative weight reaches ``q * n``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        values, weights = self._items()
        if values.size == 0:
            raise ValueError("empty sketch")
        cum = np.cumsum(weights)
        target = q * cum[-1]
        idx = int(np.searchsorted(cum, target, side="left"))
        return float(values[min(idx, values.size - 1)])

    def quantiles(self, qs) -> np.ndarray:
        return np.array([self.quantile(float(q)) for q in np.asarray(qs)])

    def cdf(self, x: float) -> float:
        """Approximate P(X <= x)."""
        values, weights = self._items()
        if values.size == 0:
            raise ValueError("empty sketch")
        idx = int(np.searchsorted(values, x, side="right"))
        return float(weights[:idx].sum() / weights.sum())

    @property
    def nbytes(self) -> int:
        return int(sum(
            chunk.nbytes for parts in self._levels for chunk in parts
        )) + 24 * len(self._levels)

    def __repr__(self):
        return (f"QuantileSketch(capacity={self.capacity}, n={self.n}, "
                f"levels={len(self._levels)}, "
                f"max_rank_error={self.max_rank_error()})")


# ----------------------------------------------------------------------
# hierarchical count-process accumulator
# ----------------------------------------------------------------------
class CountLadder:
    """Count-process accumulator yielding a dyadic aggregation ladder.

    Maintains per-bin event counts (optionally size-weighted, for byte
    processes) over an observation window in a single pass; the dyadic
    ladder — the same counts at bin widths ``w, 2w, 4w, ...`` — and the
    full variance-time curve are then derived without revisiting the trace.
    Memory is ``O(window / bin_width)``: fixed by the window, independent
    of how many events (packets) the trace holds.

    Binning is bit-identical to ``CountProcess.from_times`` /
    ``PacketTrace.count_process`` on the same window: batches are
    histogrammed against the *same* edge values the batch path builds
    (``bin_edges``), and integer partial histograms sum exactly, so any
    partition of the input — batches within a chunk, chunks across shards —
    reproduces the sequential counts bit-for-bit.

    Three modes:

    * **fixed** (``end`` given): edges are fixed up front; events outside
      ``[start, end]`` are dropped and an event exactly at the final edge
      lands in the last bin (the numpy closed-right convention) — exactly
      the batch semantics.
    * **open** (``end=None``): the bin array grows geometrically as later
      events arrive (gzip streams, unknown horizon); :meth:`finalize` then
      trims to the whole-bin window ending at the max event seen, again
      matching ``from_times(times, w)`` with its default ``end=max(times)``.
    * **sliding** (``end=None``, finite ``window``): the open buffer keeps
      only the trailing ``ceil(window / bin_width)`` bins ending at the bin
      holding the largest event time.  Bins are indexed *absolutely* (bin
      ``j`` covers ``[start + j*w, start + (j+1)*w)``, the same float
      product at any offset), and bins that slide out are *evicted* —
      their events move from :attr:`n_events` to :attr:`evicted_events` —
      so memory is ``O(window / bin_width)`` however long the stream runs.
      Stragglers behind the retained window are dropped and counted in
      :attr:`late_events` rather than mis-binned.  ``window=inf`` is the
      open mode.

    :attr:`n_events` counts events in every mode, weighted or not.  A
    sliding window counts events only: ``weighted=True`` and ``end`` both
    need ``window=inf``.
    """

    def __init__(
        self,
        bin_width: float,
        *,
        start: float = 0.0,
        end: float | None = None,
        window: float = math.inf,
        weighted: bool = False,
    ):
        require_positive(bin_width, "bin_width")
        require_positive(window, "window")
        self.bin_width = float(bin_width)
        self.start = float(start)
        self.end = None if end is None else float(end)
        self.window = float(window)
        self.weighted = bool(weighted)
        #: Retained trailing bins; ``None`` means never evict.
        self.window_bins = None
        if math.isfinite(self.window):
            if self.end is not None or self.weighted:
                raise ValueError(
                    f"window={self.window:g} needs an open, unweighted "
                    f"ladder (got end={end}, weighted={weighted})"
                )
            self.window_bins = max(
                int(math.ceil(self.window / self.bin_width)), 1)
        dtype = float if weighted else np.int64
        self.offset = 0            # absolute index of counts[0]
        self.n_events = 0          # events in retained bins
        self.evicted_events = 0    # slid out of the window
        self.late_events = 0       # arrived behind the retained window
        self.max_time = -np.inf    # largest event time seen (open mode)
        # ``_edge_hits``: events whose time exactly equals their slot's left
        # edge, per slot (open mode only).  Needed at finalize: numpy's last
        # bin is closed on the right, so events sitting exactly on what
        # turns out to be the final edge must fold into the last bin, while
        # the rest of that slot (a partial trailing bin) is dropped.
        self.counts = self._edge_hits = np.zeros(0, dtype=dtype)
        if self.end is not None:
            self._edges = bin_edges(self.start, self.end, self.bin_width)
            self.counts = np.zeros(max(len(self._edges) - 1, 0), dtype=dtype)
        else:
            self._rebase(0, 64)

    def _rebase(self, offset: int, size: int,
                edges: np.ndarray | None = None) -> None:
        """Move the open buffer onto absolute bins ``offset ..
        offset + size``, keeping the counts that still fall inside, and
        rebuild the cached edges unless another ladder's ``edges`` for
        the same bins are given (only growth, merge and eviction get
        here)."""
        lo = max(offset, self.offset)
        hi = min(offset + size, self.offset + self.counts.size)
        for attr in ("counts", "_edge_hits"):
            old = getattr(self, attr)
            new = np.zeros(size, dtype=old.dtype)
            if hi > lo:
                new[lo - offset: hi - offset] = old[lo - self.offset:
                                                    hi - self.offset]
            setattr(self, attr, new)
        self.offset = offset
        if edges is None:
            # Identical arithmetic to utils.binning.bin_edges for every
            # absolute index, so edges are bit-equal to the batch path's.
            edges = self.start + self.bin_width * np.arange(
                offset, offset + size + 1, dtype=np.int64)
        self._edges = edges

    def _evict(self) -> None:
        if self.window_bins is None or self.max_time < self.start:
            return
        last = self.offset + int(
            np.searchsorted(self._edges, self.max_time, side="right")) - 1
        cutoff = last - self.window_bins + 1
        if cutoff <= self.offset:
            return
        gone = int(self.counts[: cutoff - self.offset].sum())
        self.evicted_events += gone
        self.n_events -= gone
        # Trim trailing growth slack too: a single wide batch can have
        # grown the buffer far past the window, and retaining that tail
        # would leak O(batch span) instead of O(window).  Live bins run up
        # to ``last`` plus one final-edge slot read by ``finalize``.
        live = last - cutoff + 2
        self._rebase(cutoff, max(64, 1 << (live - 1).bit_length()))

    # -- updates -------------------------------------------------------
    def update(self, times, weights=None) -> None:
        arr = np.asarray(times, dtype=float)
        if arr.size == 0:
            return
        _require_finite(arr, "CountLadder", "times")
        if self.weighted:
            if weights is None:
                raise ValueError("weighted ladder requires weights")
            w = np.asarray(weights, dtype=float)
            _require_finite(w, "CountLadder", "weights")
        else:
            if weights is not None:
                raise ValueError("unweighted ladder got weights")
            w = None
        if self.end is not None:
            if self.counts.size == 0:
                return
            hist, _ = np.histogram(arr, bins=self._edges, weights=w)
            in_window = (arr >= self._edges[0]) & (arr <= self._edges[-1])
            self.n_events += int(np.count_nonzero(in_window))
            self.counts += hist.astype(self.counts.dtype, copy=False)
            return
        # Open mode: half-open interior binning against edges that always
        # extend strictly beyond the largest event, so no closed-last-edge
        # special case can fire mid-stream.
        hi = float(arr.max())
        self.max_time = max(self.max_time, hi)
        needed = (int(np.floor((hi - self.start) / self.bin_width)) + 2
                  - self.offset)
        if needed > self.counts.size:
            # Next power of two: amortized O(1) growth, and the final
            # footprint is a deterministic function of the span alone (not
            # of the batch pattern that grew it) — which is what makes the
            # "memory independent of trace length" bench assertable.
            self._rebase(self.offset, 1 << (needed - 1).bit_length())
        idx = np.searchsorted(self._edges, arr, side="right") - 1
        valid = idx >= 0  # before ``start``, or behind the retained window
        if not valid.all():
            self.late_events += int(np.count_nonzero(arr[~valid]
                                                     >= self.start))
            idx, arr = idx[valid], arr[valid]
            w = None if w is None else w[valid]
        self.n_events += int(idx.size)
        self.counts += np.bincount(idx, weights=w, minlength=self.counts.size)
        on_edge = arr == self._edges[idx]
        if np.any(on_edge):
            self._edge_hits += np.bincount(
                idx[on_edge], weights=None if w is None else w[on_edge],
                minlength=self.counts.size,
            )
        self._evict()

    # -- merge ---------------------------------------------------------
    def merge(self, other: "CountLadder") -> None:
        if (other.bin_width != self.bin_width or other.start != self.start
                or other.end != self.end or other.window != self.window
                or other.weighted != self.weighted):
            raise ValueError("cannot merge ladders with different layouts")
        # A fixed ladder never rebases (same layout, same bins), and its
        # empty ``_edge_hits`` slices add nothing.
        lo = min(self.offset, other.offset)
        hi = max(self.offset + self.counts.size,
                 other.offset + other.counts.size)
        if (lo, hi) != (self.offset, self.offset + self.counts.size):
            spans = (lo, hi) == (other.offset,
                                 other.offset + other.counts.size)
            self._rebase(lo, hi - lo, other._edges if spans else None)
        at = other.offset - lo
        self.counts[at: at + other.counts.size] += other.counts
        self._edge_hits[at: at + other.counts.size] += other._edge_hits
        self.n_events += other.n_events
        self.evicted_events += other.evicted_events
        self.late_events += other.late_events
        self.max_time = max(self.max_time, other.max_time)
        self._evict()

    # -- results -------------------------------------------------------
    def finalize(self) -> np.ndarray:
        """Per-bin counts over the (retained) whole-bin window, with exact
        batch semantics: the window ends at the largest event time, the
        trailing partial bin is dropped, and events sitting exactly on the
        final edge fold into the last (closed-right) bin."""
        if self.end is not None:
            return self.counts.copy()
        if self.n_events == 0 or self.max_time < self.start:
            return self.counts[:0].copy()
        n_abs = len(bin_edges(self.start, self.max_time, self.bin_width)) - 1
        if n_abs < 1:
            # Zero-span window — every event sits exactly at ``start``; the
            # batch path (``bin_counts``) widens to a single bin there.
            return self.counts[:1].copy()
        n_bins = n_abs - self.offset
        out = self.counts[:n_bins].copy()
        if 0 < n_bins < self.counts.size:
            # Fold events sitting exactly on the final edge into the last
            # (closed-right) bin; the remainder of that slot is the partial
            # trailing bin the batch path drops.
            out[-1] += self._edge_hits[n_bins]
        return out

    def window_counts(self) -> np.ndarray:
        """The last ``<= window_bins`` whole bins (all bins at inf)."""
        full = self.finalize()
        if self.window_bins is None or full.size <= self.window_bins:
            return full
        return full[-self.window_bins:]

    def window_process(self) -> CountProcess:
        return CountProcess(self.window_counts(), self.bin_width)

    def window_bounds(self) -> tuple[float, float]:
        """``[t_lo, t_hi)`` edges of :meth:`window_counts`'s bins, so a
        batch path can rebuild the identical window from raw times."""
        full = self.finalize()
        n = full.size
        if self.window_bins is not None:
            n = min(n, self.window_bins)
        first = self.offset + (full.size - n)
        lo = self.start + self.bin_width * first
        hi = self.start + self.bin_width * (first + n)
        return float(lo), float(hi)

    @property
    def total_events(self) -> int:
        """All in-range events ever accumulated (retained + evicted)."""
        return self.n_events + self.evicted_events

    def as_count_process(self) -> CountProcess:
        return CountProcess(self.finalize(), self.bin_width)

    def ladder(self, max_levels: int | None = None, min_bins: int = 2) -> list[CountProcess]:
        """The dyadic aggregation ladder: block means at widths ``w * 2**l``.

        Level 0 is the base process; level ``l`` is ``aggregated(2**l)``.
        Stops when fewer than ``min_bins`` aggregated bins remain.
        """
        base = self.as_count_process()
        out = [base]
        level = 1
        while max_levels is None or level < max_levels:
            step = 2 ** level
            if base.n_bins // step < min_bins:
                break
            out.append(base.aggregated(step))
            level += 1
        return out

    def variance_time(self, levels=None, *, normalized: bool = True):
        """Variance-time curve of the accumulated process (Figs. 5, 12-13)."""
        from repro.selfsim.variance_time import variance_time_curve

        return variance_time_curve(self.as_count_process(), levels,
                                   normalized=normalized)

    @property
    def nbytes(self) -> int:
        return (int(self.counts.nbytes) + int(self._edges.nbytes)
                + int(self._edge_hits.nbytes))
