"""Benchmarks of the always-on online monitor.

Two faces, mirroring ``bench_flowsim.py`` / ``bench_kernels.py``:

* **pytest-benchmark micro-tests** (run with
  ``pytest benchmarks/bench_monitor.py --benchmark-only``) timing the
  windowed sketches and the full service on their own;
* **a CLI** (``PYTHONPATH=src python benchmarks/bench_monitor.py``) that
  times each windowed sketch and the end-to-end service, and records the
  baseline in ``BENCH_monitor.json``.  Each case is normalized against a
  bare chunked searchsorted+bincount loop over the same event count — the
  floor any array-native windowed collector pays — so the recorded ratio
  is machine-independent; ``--check BASELINE`` fails when any case's
  normalized ratio regressed past 1.5x.

The acceptance target: the service sustains well over 10^5 events/s of
monitoring — orders of magnitude above the traces the paper studied —
in O(window) memory.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.monitor import (
    DecayedTopK,
    MonitorConfig,
    MonitorService,
    SlidingCountLadder,
    WindowedQuantileSketch,
    iter_batches,
    pareto_stream,
)

CHUNK = 1024


def _stream(n_events, rate=200.0, seed=0):
    """A heavy-tailed arrival stream of roughly ``n_events`` arrivals."""
    times = pareto_stream(n_events / rate, rate, seed=seed)
    return times[:n_events]


def _chunks(times):
    return [times[i:i + CHUNK] for i in range(0, times.size, CHUNK)]


def _array_baseline(chunks, edges):
    """Chunked searchsorted + bincount over the same arrivals: the floor
    any array-native windowed collector pays, used to normalize away
    machine speed."""
    total = 0
    for chunk in chunks:
        idx = np.searchsorted(edges, chunk, side="right")
        total += int(np.bincount(idx, minlength=edges.size + 1).sum())
    return total


# ----------------------------------------------------------------------
# pytest-benchmark micro-tests
# ----------------------------------------------------------------------
def test_sliding_ladder_200k(benchmark):
    times = _stream(200_000)
    chunks = _chunks(times)

    def run():
        ladder = SlidingCountLadder(0.01, window=60.0)
        for chunk in chunks:
            ladder.update(chunk)
        return ladder

    ladder = benchmark(run)
    # n_events counts the retained window; the rest slid out of it.
    assert ladder.n_events + ladder.evicted_events == times.size


def test_service_end_to_end_100k(benchmark):
    times = _stream(100_000)
    batches = list(iter_batches(times, 1.0))
    config = MonitorConfig(window=60.0, bin_width=0.05, snapshot_every=5.0,
                           rate_tick=0.5)

    def run():
        service = MonitorService(config)
        for batch in batches:
            service.observe(batch)
        return service.finalize()

    report = benchmark(run)
    assert report.n_events == times.size
    assert report.snapshots


# ----------------------------------------------------------------------
# CLI: normalized timings for BENCH_monitor.json
# ----------------------------------------------------------------------
def _time(fn, repeats):
    best = np.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def monitor_cases(scale):
    """Yield (name, n_events, run_fn)."""
    full = scale == "full"
    n = 1_000_000 if full else 200_000
    times = _stream(n)
    chunks = _chunks(times)

    def ladder_run():
        ladder = SlidingCountLadder(0.01, window=60.0)
        for chunk in chunks:
            ladder.update(chunk)
        return ladder

    yield ("ladder_update", n, ladder_run)

    gap_chunks = [np.diff(c) for c in chunks]
    gap_stamps = [c[1:] for c in chunks]

    def topk_run():
        topk = DecayedTopK(4096, decay=0.01)
        for gaps, stamps in zip(gap_chunks, gap_stamps):
            pos = gaps > 0
            topk.update(gaps[pos], stamps[pos])
        return topk

    yield ("topk_update", n, topk_run)

    def quantile_run():
        sketch = WindowedQuantileSketch(512, window=60.0, n_panes=8)
        for gaps, stamps in zip(gap_chunks, gap_stamps):
            sketch.update(gaps, stamps)
        return sketch

    yield ("quantile_update", n, quantile_run)

    batches = list(iter_batches(times, 1.0))
    config = MonitorConfig(window=60.0, bin_width=0.05, snapshot_every=5.0,
                           rate_tick=0.5)

    def service_run():
        service = MonitorService(config)
        for batch in batches:
            service.observe(batch)
        return service.finalize()

    yield ("service_end_to_end", n, service_run)


def run_suite(scale, repeats):
    full = scale == "full"
    n = 1_000_000 if full else 200_000
    times = _stream(n)
    chunks = _chunks(times)
    edges = np.arange(0.0, float(times[-1]) + 1.0, 0.01)

    results = {}
    for name, n_events, fn in monitor_cases(scale):
        base_s, _ = _time(lambda: _array_baseline(chunks, edges), repeats)
        case_s, out = _time(fn, repeats)
        row = {
            "case_s": round(case_s, 6),
            "array_baseline_s": round(base_s, 6),
            "ratio": round(case_s / base_s, 3),
            "n_events": int(n_events),
            "events_per_second": round(n_events / case_s, 1),
        }
        if name == "service_end_to_end":
            row["n_snapshots"] = len(out.snapshots)
            row["memory_bytes"] = int(out.memory_bytes)
            row["final_verdict"] = out.final_verdict
        results[name] = row
        print(f"{name:20s} {case_s:9.4f}s  base {base_s:9.4f}s  "
              f"ratio {row['ratio']:8.2f}  "
              f"{row['events_per_second']:>12,.0f} ev/s")
    return results


def check_against(baseline_path, scale, results, factor=1.5):
    """Fail when any case's normalized ratio regressed past ``factor`` x
    the recorded one (machine speed cancels)."""
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
                f"{name}: normalized ratio {now['ratio']:.3f} exceeds "
                f"{factor}x baseline {then['ratio']:.3f}"
            )
    if failures:
        raise SystemExit("monitor benchmark regressions:\n  "
                         + "\n  ".join(failures))
    print(f"check passed: no case slower than {factor}x its recorded ratio")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=("small", "full"), default="small")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=str(Path(__file__).parent
                                             / "BENCH_monitor.json"))
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
               if out.exists() else {"script": "benchmarks/bench_monitor.py"})
    payload.setdefault("scales", {})[args.scale] = results
    payload["repeats"] = args.repeats
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
