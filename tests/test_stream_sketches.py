"""Property tests for the mergeable streaming sketches.

The load-bearing claims (see ``repro.stream.sketches``):

* integer sketches (CountLadder bins, TopK order statistics, Log2Histogram
  buckets) are *bit-identical* to the batch path under any partition of the
  input;
* QuantileSketch conserves total weight exactly and keeps every rank query
  within its self-reported ``max_rank_error``;
* StreamingMoments merges match single-pass numpy moments to float
  tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions.pareto import hill_estimator, tail_fit
from repro.selfsim.counts import CountProcess
from repro.selfsim.variance_time import variance_time_curve
from repro.stream import (
    CountLadder,
    Log2Histogram,
    QuantileSketch,
    StreamingMoments,
    TopK,
)
from repro.utils.binning import bin_counts


def _split(arr, cuts):
    """Partition ``arr`` at the (sorted, in-range) cut points."""
    pieces = np.split(arr, sorted(set(cuts)))
    return [p for p in pieces]


# ----------------------------------------------------------------------
# StreamingMoments
# ----------------------------------------------------------------------
class TestStreamingMoments:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        x = rng.exponential(2.0, 10_000)
        m = StreamingMoments()
        m.update(x)
        assert m.n == x.size
        assert m.mean == pytest.approx(np.mean(x), rel=1e-12)
        assert m.variance == pytest.approx(np.var(x), rel=1e-12)
        assert m.min == x.min() and m.max == x.max()
        assert m.total == pytest.approx(x.sum(), rel=1e-12)

    @given(st.lists(st.integers(1, 997), min_size=0, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_merge_any_partition(self, cuts):
        rng = np.random.default_rng(7)
        x = rng.lognormal(1.0, 1.5, 1000)
        merged = StreamingMoments()
        for piece in _split(x, cuts):
            part = StreamingMoments()
            part.update(piece)
            merged.merge(part)
        assert merged.n == x.size
        assert merged.mean == pytest.approx(np.mean(x), rel=1e-10)
        assert merged.variance == pytest.approx(np.var(x), rel=1e-9)

    def test_empty_updates_are_noops(self):
        m = StreamingMoments()
        m.update([])
        m.merge(StreamingMoments())
        assert m.n == 0 and m.variance == 0.0


# ----------------------------------------------------------------------
# Log2Histogram
# ----------------------------------------------------------------------
class TestLog2Histogram:
    def test_buckets(self):
        h = Log2Histogram()
        h.update([0.0, 1.0, 1.5, 2.0, 3.9, 4.0, 1024.0])
        assert h.zeros == 1
        got = dict(h.nonzero_buckets())
        assert got == {0: 2, 1: 2, 2: 1, 10: 1}
        assert h.n == 7

    def test_merge_is_exact(self):
        rng = np.random.default_rng(3)
        x = rng.integers(1, 1 << 20, 5000).astype(float)
        whole = Log2Histogram()
        whole.update(x)
        merged = Log2Histogram()
        for piece in _split(x, [100, 2500, 4000]):
            part = Log2Histogram()
            part.update(piece)
            merged.merge(part)
        assert np.array_equal(whole.counts, merged.counts)
        assert whole.zeros == merged.zeros

    def test_zero_and_negative_go_to_zeros_counter(self):
        # Pinned convention: non-positive values never enter a log bucket.
        h = Log2Histogram()
        h.update([0.0, -1.0, -1e9, 2.0])
        assert h.zeros == 3
        assert dict(h.nonzero_buckets()) == {1: 1}
        assert h.n == 4

    def test_sub_unity_positives_clamp_into_bucket_zero(self):
        # Pinned convention: 0 < v < 1 shares bucket 0 with 1 <= v < 2;
        # the histogram does not resolve below one unit.
        h = Log2Histogram()
        h.update([0.01, 0.5, 0.999, 1.0, 1.999])
        assert h.zeros == 0
        assert dict(h.nonzero_buckets()) == {0: 5}

    def test_oversized_values_clamp_into_last_bucket(self):
        h = Log2Histogram(max_exponent=4)
        h.update([2.0 ** 4, 2.0 ** 9, 1e30])
        assert dict(h.nonzero_buckets()) == {3: 3}


# ----------------------------------------------------------------------
# TopK tail reservoir
# ----------------------------------------------------------------------
class TestTopK:
    def test_tail_samples_exact(self):
        rng = np.random.default_rng(1)
        x = rng.pareto(1.2, 2000) + 1.0
        t = TopK(64)
        t.update(x)
        assert t.n_seen == 2000
        assert np.array_equal(t.tail_samples(64), np.sort(x)[-64:])

    @given(st.lists(st.integers(1, 1999), min_size=0, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_merge_any_partition_bit_identical(self, cuts):
        rng = np.random.default_rng(11)
        x = rng.pareto(1.05, 2000) + 1.0
        whole = TopK(50)
        whole.update(x)
        merged = TopK(50)
        for piece in _split(x, cuts):
            part = TopK(50)
            part.update(piece)
            merged.merge(part)
        assert merged.n_seen == whole.n_seen == x.size
        assert np.array_equal(merged.values, whole.values)

    def test_hill_matches_batch_estimator(self):
        rng = np.random.default_rng(2)
        x = rng.pareto(1.5, 5000) + 0.1
        t = TopK(200)
        t.update(x)
        for k in (1, 10, 150, 199):
            assert t.hill(k) == hill_estimator(x, k)

    def test_tail_fit_matches_batch_bit_for_bit(self):
        rng = np.random.default_rng(5)
        x = rng.pareto(1.1, 4000) + 0.05
        t = TopK(300)
        t.update(x)
        loc, shape, k = t.tail_fit(0.05)
        batch = tail_fit(x, 0.05)
        assert k == 200
        assert loc == batch.location
        assert shape == batch.shape

    def test_capacity_too_small_raises(self):
        t = TopK(10)
        t.update(np.arange(1.0, 101.0))
        with pytest.raises(ValueError, match="capacity"):
            t.hill(10)  # needs the 11th largest as threshold
        assert t.max_tail_fraction() == pytest.approx(9 / 100)
        # ... but the largest exactly-coverable fraction works.
        t.tail_fit(t.max_tail_fraction())

    def test_infeasible_fraction_error_names_feasible_one(self):
        # Streaming callers degrade on this message instead of guessing.
        t = TopK(10)
        t.update(np.arange(1.0, 101.0))
        with pytest.raises(ValueError,
                           match="largest feasible tail fraction is 0.09"):
            t.tail_fit(0.5)

    def test_max_tail_fraction_degenerate_reservoirs(self):
        assert TopK(10).max_tail_fraction() == 0.0
        t = TopK(10)
        t.update([3.0])
        assert t.max_tail_fraction() == 0.0  # one value: no threshold


# ----------------------------------------------------------------------
# QuantileSketch
# ----------------------------------------------------------------------
class TestQuantileSketch:
    def test_small_input_is_exact(self):
        q = QuantileSketch(capacity=64)
        x = np.arange(50.0)
        q.update(x)
        assert q.max_rank_error() == 0
        assert q.quantile(0.0) == 0.0
        assert q.quantile(1.0) == 49.0
        assert q.quantile(0.5) == 24.0

    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from([8, 64, 256]),
        st.integers(100, 5000),
    )
    @settings(max_examples=25, deadline=None)
    def test_weight_conserved_and_error_bounded(self, seed, cap, n):
        rng = np.random.default_rng(seed)
        x = rng.lognormal(0.0, 2.0, n)
        sk = QuantileSketch(capacity=cap)
        sk.update(x)
        assert sk.total_weight == sk.n == n
        xs = np.sort(x)
        bound = sk.max_rank_error()
        for q in (0.01, 0.25, 0.5, 0.9, 0.99):
            v = sk.quantile(q)
            # rank range of v in the true sample vs the target rank
            lo = np.searchsorted(xs, v, side="left")
            hi = np.searchsorted(xs, v, side="right")
            target = q * n
            err = max(0.0, max(lo - target, target - hi))
            assert err <= bound + 1, (q, err, bound)

    @given(st.lists(st.integers(1, 2999), min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_merge_conserves_weight_and_bound(self, cuts):
        rng = np.random.default_rng(13)
        x = rng.exponential(1.0, 3000)
        merged = QuantileSketch(capacity=128)
        for piece in _split(x, cuts):
            part = QuantileSketch(capacity=128)
            part.update(piece)
            merged.merge(part)
        assert merged.total_weight == merged.n == x.size
        xs = np.sort(x)
        bound = merged.max_rank_error()
        for q in (0.1, 0.5, 0.9):
            v = merged.quantile(q)
            lo = np.searchsorted(xs, v, side="left")
            hi = np.searchsorted(xs, v, side="right")
            target = q * x.size
            assert max(0.0, max(lo - target, target - hi)) <= bound + 1

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, 10_000)
        a, b = QuantileSketch(64), QuantileSketch(64)
        a.update(x)
        b.update(x)
        assert a.quantiles([0.1, 0.5, 0.9]).tolist() == \
            b.quantiles([0.1, 0.5, 0.9]).tolist()

    def test_memory_bounded(self):
        sk = QuantileSketch(capacity=64)
        rng = np.random.default_rng(6)
        sizes = []
        for _ in range(5):
            sk.update(rng.random(100_000))
            sizes.append(sk.nbytes)
        # levels grow ~log(n); footprint must stay tiny vs the input
        assert sizes[-1] < 64 * 8 * 40

    def test_capacity_mismatch_merge_raises(self):
        with pytest.raises(ValueError, match="capacity"):
            QuantileSketch(8).merge(QuantileSketch(16))

    def test_cdf(self):
        sk = QuantileSketch(256)
        sk.update(np.arange(100.0))
        assert sk.cdf(49.0) == pytest.approx(0.5, abs=0.02)


# ----------------------------------------------------------------------
# CountLadder
# ----------------------------------------------------------------------
def _times_strategy():
    return st.lists(
        st.floats(min_value=0.0, max_value=500.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=300,
    )


class TestCountLadderWindowed:
    def test_matches_bin_counts(self):
        rng = np.random.default_rng(0)
        times = np.sort(rng.uniform(0, 100, 5000))
        ladder = CountLadder(0.5, start=0.0, end=100.0)
        ladder.update(times)
        expected = bin_counts(times, 0.5, start=0.0, end=100.0)
        assert np.array_equal(ladder.finalize(), expected)

    def test_event_at_final_edge_included(self):
        ladder = CountLadder(1.0, start=0.0, end=10.0)
        ladder.update([0.0, 9.5, 10.0])  # 10.0 sits on the closed last edge
        counts = ladder.finalize()
        assert counts[-1] == 2
        assert counts.sum() == 3

    def test_out_of_window_dropped(self):
        ladder = CountLadder(1.0, start=5.0, end=10.0)
        ladder.update([0.0, 4.999, 5.0, 7.5, 10.0, 10.001])
        assert ladder.finalize().sum() == 3
        assert ladder.n_events == 3


class TestCountLadderOpen:
    @given(_times_strategy())
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_from_times(self, times):
        times = np.sort(np.asarray(times))
        ladder = CountLadder(0.37)
        ladder.update(times)
        expected = CountProcess.from_times(times, 0.37, start=0.0).counts
        assert np.array_equal(ladder.finalize(), expected)

    @given(_times_strategy(), st.lists(st.integers(1, 299), max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_partition_invariance(self, times, cuts):
        times = np.sort(np.asarray(times))
        whole = CountLadder(0.37)
        whole.update(times)
        merged = CountLadder(0.37)
        for piece in _split(times, [c for c in cuts if c < times.size]):
            part = CountLadder(0.37)
            part.update(piece)
            merged.merge(part)
        assert np.array_equal(whole.finalize(), merged.finalize())

    def test_event_exactly_on_final_edge(self):
        # max(times) is a whole multiple of the width: the batch path's
        # final bin is closed on the right and keeps that event.
        times = np.array([0.25, 1.0, 3.0, 4.0])
        ladder = CountLadder(1.0)
        ladder.update(times)
        expected = CountProcess.from_times(times, 1.0, start=0.0).counts
        assert np.array_equal(ladder.finalize(), expected)
        assert ladder.finalize().sum() == 4

    def test_partial_trailing_bin_dropped(self):
        # Batch semantics: whole bins only; 4.5 lies past the last edge.
        times = np.array([0.25, 1.0, 3.0, 4.5])
        ladder = CountLadder(1.0)
        ladder.update(times)
        expected = CountProcess.from_times(times, 1.0, start=0.0).counts
        assert np.array_equal(ladder.finalize(), expected)
        assert ladder.finalize().sum() == 3

    def test_weighted_matches_byte_process(self):
        rng = np.random.default_rng(9)
        times = np.sort(rng.uniform(0, 50, 2000))
        sizes = rng.integers(40, 1500, 2000).astype(float)
        ladder = CountLadder(0.5, weighted=True)
        ladder.update(times, sizes)
        edges_n = ladder.finalize().size
        expected, _ = np.histogram(
            times, bins=0.5 * np.arange(edges_n + 1), weights=sizes
        )
        got = ladder.finalize()[:edges_n]
        assert np.allclose(got[:-1], expected[:-1])
        assert got.sum() <= sizes.sum()

    def test_growth_preserves_counts(self):
        ladder = CountLadder(0.01)  # starts with 64 bins, must grow a lot
        t1 = np.linspace(0.0, 0.5, 100)
        t2 = np.linspace(100.0, 200.0, 100)
        ladder.update(t1)
        ladder.update(t2)
        both = np.concatenate([t1, t2])
        expected = CountProcess.from_times(both, 0.01, start=0.0).counts
        assert np.array_equal(ladder.finalize(), expected)

    def test_ladder_levels_match_aggregated(self):
        rng = np.random.default_rng(21)
        times = np.sort(rng.uniform(0, 300, 20_000))
        ladder = CountLadder(0.1)
        ladder.update(times)
        levels = ladder.ladder()
        base = ladder.as_count_process()
        assert np.array_equal(levels[0].counts, base.counts)
        for l, proc in enumerate(levels[1:], start=1):
            assert np.array_equal(proc.counts, base.aggregated(2 ** l).counts)

    def test_variance_time_matches_batch(self):
        rng = np.random.default_rng(22)
        times = np.sort(rng.uniform(0, 300, 30_000))
        ladder = CountLadder(0.1)
        ladder.update(times)
        streamed = ladder.variance_time()
        batch = variance_time_curve(
            CountProcess.from_times(times, 0.1, start=0.0)
        )
        assert np.array_equal(streamed.levels, batch.levels)
        assert np.array_equal(streamed.variances, batch.variances)

    def test_layout_mismatch_merge_raises(self):
        with pytest.raises(ValueError, match="layout"):
            CountLadder(0.1).merge(CountLadder(0.2))

    def test_empty_finalize(self):
        assert CountLadder(1.0).finalize().size == 0

    def test_memory_independent_of_event_count(self):
        # Same window, 10x the events: footprint unchanged.
        a, b = CountLadder(0.1), CountLadder(0.1)
        rng = np.random.default_rng(30)
        a.update(np.sort(np.append(rng.uniform(0, 100, 1_000), 100.0)))
        b.update(np.sort(np.append(rng.uniform(0, 100, 10_000), 100.0)))
        assert a.nbytes == b.nbytes


class TestCountLadderModeRules:
    def test_weighted_n_events_counts_events(self):
        ladder = CountLadder(1.0, weighted=True)
        ladder.update([0.5, 1.5, 2.5], [10.0, 20.0, 30.0])
        assert ladder.n_events == 3
        assert ladder.finalize().sum() == 30.0  # bins [0,1), [1,2)

    def test_zero_weight_events_still_open_the_window(self):
        ladder = CountLadder(1.0, weighted=True)
        ladder.update([0.5, 1.5, 2.5], [0.0, 0.0, 0.0])
        assert np.array_equal(ladder.finalize(), [0.0, 0.0])

    def test_weighted_finite_window_raises(self):
        with pytest.raises(ValueError, match="weighted=True"):
            CountLadder(1.0, window=10.0, weighted=True)

    def test_fixed_end_finite_window_raises(self):
        with pytest.raises(ValueError, match="end=20.0"):
            CountLadder(1.0, end=20.0, window=10.0)


# ----------------------------------------------------------------------
# Non-finite input
# ----------------------------------------------------------------------
LADDERS = {
    "fixed": lambda: CountLadder(1.0, end=10.0),
    "open": lambda: CountLadder(1.0),
    "sliding": lambda: CountLadder(1.0, window=5.0),
    "weighted": lambda: CountLadder(1.0, weighted=True),
}


class TestNonFiniteInputRaises:
    @pytest.mark.parametrize("mode", list(LADDERS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_ladder_times(self, mode, bad):
        ladder = LADDERS[mode]()
        weights = [1.0] * 4 if ladder.weighted else None
        with pytest.raises(ValueError,
                           match=r"CountLadder\.update: 1 of 4 times"):
            ladder.update([0.5, bad, 2.5, 3.5], weights)
        assert ladder.n_events == 0

    def test_ladder_weights(self):
        ladder = CountLadder(1.0, weighted=True)
        with pytest.raises(ValueError,
                           match=r"CountLadder\.update: 2 of 3 weights"):
            ladder.update([0.5, 1.5, 2.5], [1.0, np.nan, -np.inf])

    @pytest.mark.parametrize("decay", [0.0, 0.5])
    def test_topk_values(self, decay):
        topk = TopK(8, decay=decay)
        with pytest.raises(ValueError, match=r"TopK\.update: 1 of 3 values"):
            topk.update([1.0, np.nan, 3.0], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match=r"TopK\.update: 1 of 2 values"):
            topk.update([np.inf, 3.0])
        assert topk.n_seen == 0

    @pytest.mark.parametrize("decay", [0.0, 0.5])
    def test_topk_times(self, decay):
        topk = TopK(8, decay=decay)
        with pytest.raises(ValueError, match=r"TopK\.update: 1 of 3 times"):
            topk.update([1.0, 2.0, 3.0], [0.0, np.nan, 2.0])
        assert topk.n_seen == 0
