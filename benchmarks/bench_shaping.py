"""Benchmarks of the in-network conditioning elements and the detector.

Two faces, mirroring ``bench_flowsim.py``:

* **pytest-benchmark micro-tests** (run with
  ``pytest benchmarks/bench_shaping.py --benchmark-only``) timing the
  vectorized GCRA scans and the policing detector on their own;
* **a CLI** (``PYTHONPATH=src python benchmarks/bench_shaping.py``) that
  records the baseline in ``BENCH_shaping.json``.  Each case is
  normalized against the scalar ``GcraCore.offer`` reference loop over
  a fixed 20k-packet slice of the same input — the semantics the scans
  must reproduce bit-for-bit — so the recorded ratio is
  machine-independent; ``--check BASELINE`` fails when any case's
  normalized ratio regressed past 1.5x.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

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


def _scalar_reference_s(times, costs, element, repeats):
    """Best-of-N scalar ``GcraCore.offer`` loop time over the reference
    slice, scaled to the full input length (per-packet cost is flat)."""
    t, c = times[:_REF_N], costs[:_REF_N]
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_condition(element, t, c)
        best = min(best, time.perf_counter() - t0)
    return best * (times.size / t.size)


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
# CLI: normalized scan timings for BENCH_shaping.json
# ----------------------------------------------------------------------
def _time(fn, repeats):
    best = np.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def shaping_cases(scale, repeats):
    """Yield (name, n_packets, run_fn, scalar_reference_s)."""
    n = 1_000_000 if scale == "full" else 200_000
    times, costs = _packets(n)
    rate, depth = 400_000.0, 100_000.0

    pol = TokenBucketPolicer(rate, depth)
    yield ("policer_scan", n, lambda: pol.apply(times, costs),
           _scalar_reference_s(times, costs, pol, repeats))

    sh = LeakyBucketShaper(rate, depth)
    yield ("shaper_scan", n, lambda: sh.apply(times, costs),
           _scalar_reference_s(times, costs, sh, repeats))

    bounded = LeakyBucketShaper(rate, depth, max_delay=0.05)
    yield ("bounded_shaper_scan", n, lambda: bounded.apply(times, costs),
           _scalar_reference_s(times, costs, bounded, repeats))

    # The cases above offer ~26.6 kB/s and never drop.  Rated from the
    # input's own mean byte rate, 0.8x drops ~38% and 0.1x ~92%, the
    # regime a policer meets on heavy-tailed traffic.
    mean_rate = costs.sum() / (times[-1] - times[0])
    for name, element in (
        ("policer_scan_drop40", TokenBucketPolicer(0.8 * mean_rate,
                                                   0.2 * mean_rate)),
        ("policer_scan_drop90", TokenBucketPolicer(0.1 * mean_rate,
                                                   0.025 * mean_rate)),
        ("bounded_shaper_scan_drop40",
         LeakyBucketShaper(0.8 * mean_rate, 0.2 * mean_rate,
                           max_delay=0.05)),
    ):
        yield (name, n, lambda el=element: el.apply(times, costs),
               _scalar_reference_s(times, costs, element, repeats))

    policed = pol.apply(times, costs)
    pt, pc = policed.accepted_times, policed.accepted_costs
    # The detector has no scalar twin; normalize against the policer's
    # reference loop over the same survivors so machine speed cancels.
    det_ref = _scalar_reference_s(pt, pc, TokenBucketPolicer(rate, depth),
                                  repeats)
    yield ("detect_times", pt.size, lambda: detect_times(pt, pc), det_ref)

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

    yield ("detect_sharded_merge", pt.size, _sharded_detect, det_ref)


def run_suite(scale, repeats):
    results = {}
    for name, n, fn, ref_s in shaping_cases(scale, repeats):
        case_s, out = _time(fn, repeats)
        row = {
            "case_s": round(case_s, 6),
            "scalar_reference_s": round(ref_s, 6),
            "ratio": round(case_s / ref_s, 4),
            "n_packets": int(n),
            "packets_per_second": round(n / case_s, 1),
        }
        results[name] = row
        print(f"{name:26s} {case_s:9.4f}s  scalar {ref_s:9.4f}s  "
              f"ratio {row['ratio']:8.3f}  "
              f"{row['packets_per_second']:>14,.0f} pkt/s")
    return results


def check_against(baseline_path, scale, results, factor=1.5):
    """Fail when any case's scalar-normalized ratio regressed past
    ``factor`` x the recorded one (machine speed cancels)."""
    payload = json.loads(Path(baseline_path).read_text())
    base = payload.get("scales", {}).get(scale)
    if base is None:
        raise SystemExit(f"baseline {baseline_path} has no '{scale}' scale")
    failures = []
    for name, now in results.items():
        then = base.get(name)
        if then is None:
            continue  # new case: no baseline yet
        if now["case_s"] < 0.005 and now["ratio"] <= then["ratio"]:
            continue  # timer-resolution noise, and not slower anyway
        if now["ratio"] > factor * then["ratio"]:
            failures.append(
                f"{name}: normalized ratio {now['ratio']:.4f} exceeds "
                f"{factor}x baseline {then['ratio']:.4f}"
            )
    if failures:
        raise SystemExit("shaping benchmark regressions:\n  "
                         + "\n  ".join(failures))
    print(f"check passed: no case slower than {factor}x its recorded ratio")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=("small", "full"), default="small")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=str(Path(__file__).parent
                                             / "BENCH_shaping.json"))
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a recorded baseline and fail "
                             "on >1.5x normalized regressions")
    args = parser.parse_args(argv)

    results = run_suite(args.scale, args.repeats)
    if args.check:
        check_against(args.check, args.scale, results)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = (json.loads(out.read_text())
               if out.exists() else {"script": "benchmarks/bench_shaping.py"})
    payload.setdefault("scales", {})[args.scale] = results
    payload["repeats"] = args.repeats
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
