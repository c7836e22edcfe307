"""Benchmarks of the always-on online monitor.

Two faces, mirroring ``bench_flowsim.py`` / ``bench_kernels.py``:

* **pytest-benchmark micro-tests** (run with
  ``pytest benchmarks/bench_monitor.py --benchmark-only``) timing the
  windowed sketches and the full service on their own;
* **a CLI** (``PYTHONPATH=src python benchmarks/bench_monitor.py``, see
  :mod:`harness`) that times each windowed sketch on exactly what
  ``MonitorService.observe`` feeds it, and the service end to end, and
  records the ratios in ``BENCH_monitor.json``.  Each case is normalized
  by a bare searchsorted+bincount pass over the same one-second batches
  at the same bin width — the floor any array-native windowed collector
  pays; ``--check BASELINE`` fails when a ratio regressed past 1.5x.
"""

import math

import numpy as np

import harness
from harness import Case
from repro.monitor import (
    DecayedTopK,
    MonitorConfig,
    MonitorService,
    SlidingCountLadder,
    WindowedQuantileSketch,
    iter_batches,
    pareto_stream,
)

#: The service configuration the end-to-end case and perfbench's
#: monitor-live workload run: 60 s window, 0.05 s bins, derived decay.
CONFIG = MonitorConfig(window=60.0, bin_width=0.05, snapshot_every=5.0,
                       rate_tick=0.5)


def _stream(n_events, rate=200.0, seed=0):
    """A heavy-tailed arrival stream of roughly ``n_events`` arrivals."""
    times = pareto_stream(n_events / rate, rate, seed=seed)
    return times[:n_events]


def _array_baseline(batches, edges):
    """Batched searchsorted + bincount over the same arrivals: the floor
    any array-native windowed collector pays, used to normalize away
    machine speed."""
    total = 0
    for batch in batches:
        idx = np.searchsorted(edges, batch, side="right")
        total += int(np.bincount(idx, minlength=edges.size + 1).sum())
    return total


# ----------------------------------------------------------------------
# pytest-benchmark micro-tests
# ----------------------------------------------------------------------
def test_sliding_ladder_200k(benchmark):
    times = _stream(200_000)
    batches = list(iter_batches(times, 1.0))

    def run():
        ladder = SlidingCountLadder(CONFIG.bin_width, window=CONFIG.window)
        for batch in batches:
            ladder.update(batch)
        return ladder

    ladder = benchmark(run)
    # n_events counts the retained window; the rest slid out of it.
    assert ladder.n_events + ladder.evicted_events == times.size


def test_service_end_to_end_100k(benchmark):
    times = _stream(100_000)
    batches = list(iter_batches(times, 1.0))

    def run():
        service = MonitorService(CONFIG)
        for batch in batches:
            service.observe(batch)
        return service.finalize()

    report = benchmark(run)
    assert report.n_events == times.size
    assert report.snapshots


# ----------------------------------------------------------------------
# CLI: the service's sketches on the service's input (BENCH_monitor.json)
# ----------------------------------------------------------------------
def _observed_gaps(batches):
    """Per batch, the interarrival gaps ``MonitorService.observe`` derives
    (chained across batches) and the arrival that closed each gap."""
    out, last = [], -math.inf
    for arr in batches:
        gaps = (np.diff(arr, prepend=last) if math.isfinite(last)
                else np.diff(arr))
        out.append((gaps, arr[arr.size - gaps.size:]))
        last = max(last, float(arr[-1]))
    return out


def monitor_cases(scale):
    """Each sketch fed as ``MonitorService.observe`` feeds it, and the
    service itself, against the bincount floor over the same batches."""
    n = 1_000_000 if scale == "full" else 200_000
    times = _stream(n)
    batches = list(iter_batches(times, 1.0))
    edges = np.arange(0.0, float(times[-1]) + 1.0, CONFIG.bin_width)
    gaps = [(g, s) for g, s in _observed_gaps(batches) if g.size]
    positive = [(g[g > 0], s[g > 0]) for g, s in gaps if np.any(g > 0)]

    def case(name, run):
        return Case(name, n, run, "searchsorted+bincount",
                    lambda: _array_baseline(batches, edges))

    def ladder_run():
        ladder = SlidingCountLadder(CONFIG.bin_width, start=CONFIG.start,
                                    window=CONFIG.window)
        for batch in batches:
            ladder.update(batch)
        return ladder

    yield case("ladder_update", ladder_run)

    def topk_run():
        topk = DecayedTopK(CONFIG.tail_capacity,
                           decay=CONFIG.effective_decay())
        for g, s in positive:
            topk.update(g, s)
        return topk

    yield case("topk_update", topk_run)

    def quantile_run():
        sketch = WindowedQuantileSketch(
            CONFIG.quantile_capacity, window=CONFIG.window,
            n_panes=CONFIG.n_panes, start=CONFIG.start)
        for g, s in gaps:
            sketch.update(g, s)
        return sketch

    yield case("quantile_update", quantile_run)

    def service_run():
        service = MonitorService(CONFIG)
        for batch in batches:
            service.observe(batch)
        return service.finalize()

    yield case("service_end_to_end", service_run)


if __name__ == "__main__":
    harness.main(__file__, monitor_cases)
