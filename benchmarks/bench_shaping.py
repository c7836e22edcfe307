"""Benchmarks of the in-network conditioning elements and the detector.

Two faces, mirroring ``bench_flowsim.py``:

* **pytest-benchmark micro-tests** (run with
  ``pytest benchmarks/bench_shaping.py --benchmark-only``) timing the
  vectorized GCRA scans and the policing detector on their own;
* **a CLI** (``PYTHONPATH=src python benchmarks/bench_shaping.py``, see
  :mod:`harness`) that records the ratios in ``BENCH_shaping.json``.
  Each case is normalized by the scalar ``GcraCore.offer`` reference loop
  over a fixed 20k-packet slice of the same input — the semantics the
  scans must reproduce bit-for-bit — scaled to the input length;
  ``--check BASELINE`` fails when a ratio regressed past 1.5x.
"""

import numpy as np

import harness
from harness import Case
from repro.shaping import (
    LeakyBucketShaper,
    PolicingDetector,
    TokenBucketPolicer,
    detect_times,
    reference_condition,
)

_REF_N = 20_000  # scalar-reference slice size (the normalizer)


def _packets(n, seed=0, rate=50_000.0):
    """Bursty packet columns: Pareto gaps so the buckets actually work."""
    rng = np.random.default_rng(seed)
    gaps = (rng.pareto(1.5, n) + 0.1) / rate * 700.0
    times = np.cumsum(gaps)
    costs = rng.uniform(40.0, 1500.0, n)
    return times, costs


# ----------------------------------------------------------------------
# pytest-benchmark micro-tests
# ----------------------------------------------------------------------
def test_policer_scan_1m(benchmark):
    times, costs = _packets(1_000_000)
    # Police below the input's mean byte rate so the drop path runs.
    rate = 0.6 * costs.sum() / (times[-1] - times[0])
    pol = TokenBucketPolicer(rate, 0.25 * rate)
    res = benchmark(pol.apply, times, costs)
    assert 0 < res.n_dropped < res.n


def test_shaper_scan_1m(benchmark):
    times, costs = _packets(1_000_000)
    sh = LeakyBucketShaper(400_000.0, 100_000.0)
    res = benchmark(sh.apply, times, costs)
    assert res.accept.all()


def test_detect_times_500k(benchmark):
    times, costs = _packets(500_000)
    res = TokenBucketPolicer(300_000.0, 75_000.0).apply(times, costs)
    verdict = benchmark(detect_times, res.accepted_times, res.accepted_costs)
    assert verdict.n_packets == res.n_accepted


# ----------------------------------------------------------------------
# CLI: scalar-normalized scan timings (BENCH_shaping.json)
# ----------------------------------------------------------------------
def _scalar_case(name, run, times, costs, element):
    """``run`` against the scalar ``GcraCore.offer`` loop of ``element``
    over the reference slice, scaled to the input length (per-packet cost
    is flat)."""
    t, c = times[:_REF_N], costs[:_REF_N]
    return Case(name, times.size, run, "reference_condition",
                lambda: reference_condition(element, t, c),
                ref_scale=times.size / t.size)


def shaping_cases(scale):
    """The GCRA scans with and without drops, and the detector."""
    n = 1_000_000 if scale == "full" else 200_000
    times, costs = _packets(n)
    rate, depth = 400_000.0, 100_000.0

    pol = TokenBucketPolicer(rate, depth)
    sh = LeakyBucketShaper(rate, depth)
    bounded = LeakyBucketShaper(rate, depth, max_delay=0.05)
    # These offer ~26.6 kB/s and never drop.  Rated from the input's own
    # mean byte rate, 0.8x drops ~38% and 0.1x ~92%, the regime a policer
    # meets on heavy-tailed traffic.
    mean_rate = costs.sum() / (times[-1] - times[0])
    for name, element in (
        ("policer_scan", pol),
        ("shaper_scan", sh),
        ("bounded_shaper_scan", bounded),
        ("policer_scan_drop40", TokenBucketPolicer(0.8 * mean_rate,
                                                   0.2 * mean_rate)),
        ("policer_scan_drop90", TokenBucketPolicer(0.1 * mean_rate,
                                                   0.025 * mean_rate)),
        ("bounded_shaper_scan_drop40",
         LeakyBucketShaper(0.8 * mean_rate, 0.2 * mean_rate,
                           max_delay=0.05)),
    ):
        yield _scalar_case(name, lambda el=element: el.apply(times, costs),
                           times, costs, element)

    # The detector has no scalar twin; normalize against the policer's
    # reference loop over the same survivors so machine speed cancels.
    policed = pol.apply(times, costs)
    pt, pc = policed.accepted_times, policed.accepted_costs
    det_pol = TokenBucketPolicer(rate, depth)
    yield _scalar_case("detect_times", lambda: detect_times(pt, pc),
                       pt, pc, det_pol)

    def _sharded_detect(parts=8):
        bounds = np.linspace(0, pt.size, parts + 1).astype(int)
        shards = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            d = PolicingDetector()
            d.update(pt[lo:hi], pc[lo:hi])
            shards.append(d)
        whole = shards[0]
        for d in shards[1:]:
            whole.merge(d)
        return whole.infer()

    yield _scalar_case("detect_sharded_merge", _sharded_detect,
                       pt, pc, det_pol)


if __name__ == "__main__":
    harness.main(__file__, shaping_cases)
