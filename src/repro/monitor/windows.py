"""The monitor's bounded-memory sketches, by the names it uses.

An always-on monitor wants the *recent* stream — the last ``W`` seconds,
or an exponentially-decayed view — rather than everything since the
stream began.  The ladder and the tail reservoir carry that as a
parameter of their one implementation in :mod:`repro.stream.sketches`:

* :data:`SlidingCountLadder` is :class:`~repro.stream.sketches.CountLadder`
  (pass a finite ``window``: bins behind it are evicted);
* :data:`DecayedTopK` is :class:`~repro.stream.sketches.TopK` (pass
  ``decay > 0`` with event times: items age out).

Only the quantile sketch needs its own wrapper here:
:class:`WindowedQuantileSketch` panes the window into whole
:class:`~repro.stream.sketches.QuantileSketch` instances, since a
compactor cannot forget individual items.

Every sketch keeps the exact-merge algebra, so sharded collectors — N
replay receivers each running a monitor — combine into the same windowed
state as one receiver seeing the whole stream.  Windowing commutes with
merging because eviction depends only on the *merged* maximum event
time, which is itself order-invariant, and each shard's own evictions
are always a subset of the merged eviction.
"""

from __future__ import annotations

import math

import numpy as np

from repro.stream.sketches import CountLadder, QuantileSketch, TopK
from repro.utils.validation import require_positive

__all__ = [
    "DecayedTopK",
    "SlidingCountLadder",
    "WindowedQuantileSketch",
]

SlidingCountLadder = CountLadder
DecayedTopK = TopK


# ----------------------------------------------------------------------
# windowed quantile sketch
# ----------------------------------------------------------------------
class WindowedQuantileSketch:
    """Quantile sketch over the last ``window`` seconds, via time panes.

    The window is split into ``n_panes`` panes of ``window / n_panes``
    seconds; each live pane owns one
    :class:`~repro.stream.sketches.QuantileSketch` and panes older than
    the window behind the newest event are dropped whole.  Queries merge
    the live panes (ascending pane order, so results are deterministic),
    which means the effective horizon ranges between
    ``window * (1 - 1/n_panes)`` and ``window`` — the standard
    pane-granularity tradeoff.  Memory is ``O(n_panes * capacity)``.

    ``window=inf`` keeps a single unbounded pane and delegates verbatim:
    updates, merges, and queries are bit-identical to a plain sketch.
    """

    def __init__(self, capacity: int = 1024, *, window: float = math.inf,
                 n_panes: int = 8, start: float = 0.0):
        require_positive(window, "window")
        if n_panes < 2:
            raise ValueError(f"n_panes must be >= 2, got {n_panes}")
        self.capacity = int(capacity)
        self.window = float(window)
        self.start = float(start)
        self.n_panes = int(n_panes)
        self.pane_width = (
            math.inf if math.isinf(self.window) else self.window / n_panes
        )
        self._panes: dict[int, QuantileSketch] = {}
        self._pane_max = -1
        if math.isinf(self.window):
            self._panes[0] = QuantileSketch(self.capacity)
            self._pane_max = 0

    # -- updates -------------------------------------------------------
    def update(self, values, times=None) -> None:
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            return
        if math.isinf(self.window):
            self._panes[0].update(arr)
            return
        if times is None:
            raise ValueError("a finite-window sketch requires event times")
        t = np.broadcast_to(np.asarray(times, dtype=float), arr.shape)
        idx = np.floor((t - self.start) / self.pane_width).astype(np.int64)
        self._pane_max = max(self._pane_max, int(idx.max()))
        cutoff = self._pane_max - self.n_panes + 1
        live = idx >= cutoff
        arr, idx = arr[live], idx[live]
        for pane in np.unique(idx):
            sk = self._panes.get(int(pane))
            if sk is None:
                sk = self._panes[int(pane)] = QuantileSketch(self.capacity)
            sk.update(arr[idx == pane])
        self._evict()

    def _evict(self) -> None:
        cutoff = self._pane_max - self.n_panes + 1
        for pane in [p for p in self._panes if p < cutoff]:
            del self._panes[pane]

    # -- merge ---------------------------------------------------------
    def merge(self, other: "WindowedQuantileSketch") -> None:
        if (other.capacity != self.capacity or other.window != self.window
                or other.n_panes != self.n_panes
                or other.start != self.start):
            raise ValueError(
                "cannot merge windowed sketches with different layouts"
            )
        for pane in sorted(other._panes):
            sk = self._panes.get(pane)
            if sk is None:
                sk = self._panes[pane] = QuantileSketch(self.capacity)
            sk.merge(other._panes[pane])
        self._pane_max = max(self._pane_max, other._pane_max)
        self._evict()

    # -- queries -------------------------------------------------------
    def merged(self) -> QuantileSketch:
        """One :class:`QuantileSketch` over the live panes (a copy)."""
        out = QuantileSketch(self.capacity)
        for pane in sorted(self._panes):
            out.merge(self._panes[pane])
        return out

    @property
    def n(self) -> int:
        """Items currently inside live panes (all items at ``inf``)."""
        return int(sum(sk.n for sk in self._panes.values()))

    def quantile(self, q: float) -> float:
        return self.merged().quantile(q)

    def quantiles(self, qs) -> np.ndarray:
        sk = self.merged()
        return np.array([sk.quantile(float(q)) for q in np.asarray(qs)])

    def cdf(self, x: float) -> float:
        return self.merged().cdf(x)

    def max_rank_error(self) -> int:
        return self.merged().max_rank_error()

    @property
    def nbytes(self) -> int:
        return int(sum(sk.nbytes for sk in self._panes.values())
                   + 16 * max(len(self._panes), 1))

    def __repr__(self):
        return (f"WindowedQuantileSketch(capacity={self.capacity}, "
                f"window={self.window:g}, panes={len(self._panes)}, "
                f"n={self.n})")
