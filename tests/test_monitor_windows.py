"""Property tests for the windowed/decaying monitor sketches.

The load-bearing contracts (see ``repro.monitor.windows``):

* **one implementation** — ``SlidingCountLadder`` and ``DecayedTopK``
  are ``stream.sketches``' ``CountLadder`` and ``TopK``; the paned
  ``WindowedQuantileSketch`` at ``window=inf`` is *bit-identical* to the
  unbounded ``QuantileSketch`` under any partition of the input;
* **shard-merge order invariance** — merging per-shard sketches in any
  order yields the identical state (decay weights are pure functions of
  the item and the merged clock, never of the path the item took to get
  there); for the count/order-statistic sketches and at ``decay=0`` the
  merge also reproduces the single-writer state exactly;
* **linear top-k selection** — partitioning to the capacity-th largest
  value before sorting keeps exactly what a full sort would, ties
  included;
* **O(window) memory** — a finite-window ladder's buffer is bounded by
  the window, independent of stream length.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor import (
    DecayedTopK,
    SlidingCountLadder,
    WindowedQuantileSketch,
)
from repro.stream import CountLadder, QuantileSketch, TopK


def _split(arr, cuts):
    idx = sorted(set(int(c) % (arr.size + 1) for c in cuts))
    return np.split(arr, idx)


def _times(n=2000, span=100.0, seed=0):
    rng = np.random.default_rng(seed)
    return np.sort(rng.uniform(0.0, span, n))


class _FullSortTopK(TopK):
    """Reference selection: ``lexsort`` every candidate, keep the last
    ``capacity`` (the reservoir's selection before it partitioned)."""

    __slots__ = ()

    def _select(self, values, times, evict_age=True):
        if evict_age and self.decay > 0.0 and values.size:
            max_age = -math.log(self.weight_floor) / self.decay
            young = (self.t_ref - times) <= max_age
            values, times = values[young], times[young]
        order = np.lexsort((times, values))[-self.capacity:]
        self.values, self.times = values[order], times[order]


# ----------------------------------------------------------------------
# Reduction: the monitor's names are the unbounded sketches at
# window=inf / decay=0
# ----------------------------------------------------------------------
class TestTwinReduction:
    def test_monitor_names_are_the_stream_sketches(self):
        assert SlidingCountLadder is CountLadder
        assert DecayedTopK is TopK

    @given(st.lists(st.integers(0, 1999), min_size=0, max_size=5),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_topk_zero_decay_matches_topk(self, cuts, seed):
        """Times passed at ``decay=0`` change nothing: the monitor's
        ``update(values, times)`` keeps what the stream path's
        ``update(values)`` keeps, and fits the same tail."""
        rng = np.random.default_rng(seed)
        x = rng.pareto(1.1, 2000) + 0.05
        times = _times(seed=seed)
        untimed = TopK(128)
        timed = TopK(128, decay=0.0)
        for piece, t in zip(_split(x, cuts), _split(times, cuts)):
            untimed.update(piece)
            timed.update(piece, t)
        assert np.array_equal(timed.values, untimed.values)
        assert timed.n_seen == untimed.n_seen
        assert timed.n_eff == untimed.n_seen
        assert timed.tail_fit(0.05) == untimed.tail_fit(0.05)
        assert timed.max_tail_fraction() == untimed.max_tail_fraction()

    @given(st.lists(st.integers(0, 1999), min_size=0, max_size=5),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_quantiles_inf_window_match_quantile_sketch(self, cuts, seed):
        rng = np.random.default_rng(seed)
        x = rng.lognormal(6.0, 2.0, 2000)
        times = _times(seed=seed)
        twin = QuantileSketch(64)
        windowed = WindowedQuantileSketch(64, window=math.inf)
        for piece, t in zip(_split(x, cuts), _split(times, cuts)):
            twin.update(piece)
            windowed.update(piece, t)
        assert windowed.n == twin.n
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            assert windowed.quantile(q) == twin.quantile(q)
        assert windowed.max_rank_error() == twin.max_rank_error()


# ----------------------------------------------------------------------
# Shard-merge order invariance
# ----------------------------------------------------------------------
class TestMergeOrderInvariance:
    @given(st.permutations(range(4)), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_windowed_ladder_shards_any_order(self, order, seed):
        """Per-shard windowed ladders merged in any order equal the
        single-writer ladder over the concatenated stream."""
        times = _times(n=4000, span=200.0, seed=seed)
        pieces = _split(times, [1000, 2000, 3000])
        single = SlidingCountLadder(0.1, window=30.0)
        for piece in pieces:
            single.update(piece)
        shards = []
        for piece in pieces:
            shard = SlidingCountLadder(0.1, window=30.0)
            shard.update(piece)
            shards.append(shard)
        merged = SlidingCountLadder(0.1, window=30.0)
        for i in order:
            merged.merge(shards[i])
        assert np.array_equal(merged.window_counts(), single.window_counts())
        assert merged.window_bounds() == single.window_bounds()
        assert merged.n_events == single.n_events
        assert merged.max_time == single.max_time

    @given(st.permutations(range(4)), st.floats(0.0, 0.5),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_decayed_topk_shards_any_order(self, order, decay, seed):
        """Decay weights are pure functions of (value time, merged clock),
        so every merge *order* yields the same state bit-for-bit.  At
        ``decay=0`` the merged shards also equal the single writer (pure
        top-k selection is a semilattice); with ``decay > 0`` that
        stronger identity is not promised — capacity truncation at a
        shard's intermediate clock does not commute with age eviction."""
        rng = np.random.default_rng(seed)
        x = rng.pareto(1.2, 2000) + 0.1
        times = _times(seed=seed)
        pieces = list(zip(_split(x, [500, 1000, 1500]),
                          _split(times, [500, 1000, 1500])))
        shards = []
        for vals, t in pieces:
            shard = DecayedTopK(64, decay=decay)
            shard.update(vals, t)
            shards.append(shard)
        merged = DecayedTopK(64, decay=decay)
        for i in order:
            merged.merge(shards[i])
        ordered = DecayedTopK(64, decay=decay)
        for shard in shards:
            ordered.merge(shard)
        assert np.array_equal(merged.values, ordered.values)
        assert np.array_equal(merged.times, ordered.times)
        assert merged.t_ref == ordered.t_ref
        assert merged.n_seen == ordered.n_seen
        assert merged.n_eff == pytest.approx(ordered.n_eff, rel=1e-12)
        assert np.array_equal(merged.weights(), ordered.weights())
        if decay == 0.0:
            single = DecayedTopK(64, decay=0.0)
            for vals, t in pieces:
                single.update(vals, t)
            assert np.array_equal(merged.values, single.values)
            assert merged.n_eff == single.n_eff

    @given(st.lists(st.integers(0, 400), min_size=3, max_size=3),
           st.permutations(range(4)), st.integers(1, 5),
           st.sampled_from([0.0, 1.0]), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_partition_selection_matches_full_sort_on_ties(
            self, cuts, order, levels, decay, seed):
        """Selecting through ``np.partition`` keeps exactly what a full
        ``lexsort`` truncation keeps, even when the threshold value (and
        its event time) is shared by many items, for any batch split and
        merge order."""
        rng = np.random.default_rng(seed)
        values = rng.choice(np.arange(1.0, levels + 1.0), 400)
        times = rng.choice(np.linspace(0.0, 40.0, 5), 400)
        pieces = list(zip(np.split(values, sorted(cuts)),
                          np.split(times, sorted(cuts))))

        def single_and_merged(cls):
            single = cls(16, decay=decay)
            for v, t in pieces:
                single.update(v, t)
            merged = cls(16, decay=decay)
            for i in order:
                shard = cls(16, decay=decay)
                shard.update(*pieces[i])
                merged.merge(shard)
            return single, merged

        for got, want in zip(single_and_merged(TopK),
                             single_and_merged(_FullSortTopK)):
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.times, want.times)
            assert got.n_eff == want.n_eff

    def test_layout_mismatch_raises(self):
        with pytest.raises(ValueError, match="layouts"):
            SlidingCountLadder(0.1, window=10.0).merge(
                SlidingCountLadder(0.1, window=20.0))
        with pytest.raises(ValueError, match="parameters"):
            DecayedTopK(8, decay=0.1).merge(DecayedTopK(8, decay=0.2))
        with pytest.raises(ValueError, match="layouts"):
            WindowedQuantileSketch(8, window=10.0).merge(
                WindowedQuantileSketch(8, window=20.0))


# ----------------------------------------------------------------------
# Windowing behaviour
# ----------------------------------------------------------------------
class TestWindowing:
    def test_ladder_memory_independent_of_stream_length(self):
        ladder = SlidingCountLadder(0.1, window=10.0)
        for k in range(50):
            ladder.update(np.linspace(k * 100.0, k * 100.0 + 99.0, 1000))
        assert ladder.total_events == 50_000
        assert ladder.window_counts().size <= ladder.window_bins
        # Buffer stays near the window size, not the 5000s stream span.
        assert ladder.counts.size <= 4 * ladder.window_bins
        assert ladder.nbytes < 16_000

    def test_ladder_evicts_and_counts(self):
        ladder = SlidingCountLadder(1.0, window=5.0)
        ladder.update([0.5, 1.5, 2.5])
        ladder.update([20.5])
        assert ladder.evicted_events == 3
        assert ladder.n_events == 1
        assert ladder.total_events == 4

    def test_ladder_straggler_behind_window_is_late(self):
        ladder = SlidingCountLadder(1.0, window=5.0)
        ladder.update([100.0])
        ladder.update([1.0])  # far behind the retained window
        assert ladder.late_events == 1
        assert ladder.n_events == 1

    def test_decayed_topk_ages_out_old_outlier(self):
        topk = DecayedTopK(32, decay=1.0, weight_floor=1e-6)
        topk.update([1e9], [0.0])  # ancient giant
        topk.update(np.full(16, 10.0), np.full(16, 100.0))
        # exp(-100) is far below the weight floor: the giant is gone.
        assert 1e9 not in topk.values
        assert topk.values.size == 16

    def test_quantile_panes_drop_old_data(self):
        sketch = WindowedQuantileSketch(128, window=10.0, n_panes=5)
        sketch.update(np.full(100, 1.0), np.full(100, 0.5))
        sketch.update(np.full(100, 9.0), np.full(100, 50.0))
        # The early pane of 1.0s fell out of the window.
        assert sketch.quantile(0.01) == 9.0
        assert sketch.n == 100

    def test_finite_window_requires_times(self):
        sketch = WindowedQuantileSketch(16, window=10.0)
        with pytest.raises(ValueError, match="times"):
            sketch.update([1.0, 2.0])


def test_monitor_imports_first_in_a_fresh_interpreter():
    """``monitor.windows`` imports ``repro.stream``, whose driver must not
    pull in the engine (and through it the experiment registry, which
    imports the monitor) at import time."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    done = subprocess.run([sys.executable, "-c", "import repro.monitor"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
