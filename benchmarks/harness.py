"""One timing loop, row schema, ``--check`` gate and CLI for the
unit-level benchmark suites (``bench_{flowsim,kernels,monitor,shaping,
superpose,traces}.py``).

A suite is a ``*_cases(scale)`` generator of :class:`Case`.  Each case
is timed interleaved with its named in-process reference — reference,
case, reference, case, ... — for ``--repeats`` pairs; every sample
repeats its call until it lasts at least :data:`MIN_SAMPLE_S`, so
sub-millisecond cases are measured rather than read off the timer's
resolution.  The recorded ``ratio`` is the median of the per-pair
``case_s / baseline_s`` ratios: both sides ran on the same machine
moments apart, so machine speed cancels, and lower is better in every
suite.  ``--check BASELINE`` fails when a case's identity check fails or
its ratio exceeds :data:`FACTOR` x the recorded one.

Every suite shares one command line::

    PYTHONPATH=src python benchmarks/bench_<suite>.py --scale small|full \\
        [--repeats N] [--check BASELINE] [--out PATH]

and writes ``{"script", "repeats", "scales": {scale: {case: row}}}`` with
one row per case holding exactly :data:`ROW_KEYS`.
"""

import argparse
import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: Shortest timed sample, in seconds: faster calls repeat until a sample
#: lasts this long.  Chosen with PAIRS from ten fresh small-scale runs of
#: every suite: 0.2 s and 9 pairs kept 17 of 35 cases' ratio spread,
#: (max - min) / median, below 1/6 (a third of the gate's headroom),
#: against 12 for 0.05 s and 7 pairs, and they amortize a fast loop
#: reference's cold start after a large case.
MIN_SAMPLE_S = 0.2
#: Interleaved (reference, case) sample pairs per case (``--repeats``).
PAIRS = 9
#: A case fails ``--check`` when its ratio exceeds FACTOR x the recorded one.
FACTOR = 1.5
ROW_KEYS = ("n", "case_s", "baseline", "baseline_s", "ratio", "identical")


@dataclass(frozen=True)
class Case:
    """One gated case: ``run`` normalized by ``reference``.

    ``baseline`` names the reference.  ``ref_scale`` multiplies the
    reference's time when it runs on a slice of the case's input (its
    per-item cost is flat, so the scaled time stands for the whole).
    ``identical(ref_out, case_out)`` checks the case's equivalence
    contract against the reference's output; ``None`` means it has none.
    """

    name: str
    n: int
    run: Callable[[], object]
    baseline: str
    reference: Callable[[], object]
    ref_scale: float = 1.0
    identical: Callable[[object, object], bool] | None = None


def _sample(fn):
    """Seconds per call of ``fn`` over a sample of at least MIN_SAMPLE_S,
    and the last call's output."""
    calls, t0 = 0, time.perf_counter()
    while True:
        out = fn()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= MIN_SAMPLE_S:
            return elapsed / calls, out


def _time(case, pairs):
    """Median case and reference seconds, median per-pair ratio, and the
    last reference and case outputs."""
    case_ts, ref_ts, ratios = [], [], []
    for _ in range(pairs):
        ref_s, ref_out = _sample(case.reference)
        case_s, case_out = _sample(case.run)
        ref_s *= case.ref_scale
        case_ts.append(case_s)
        ref_ts.append(ref_s)
        ratios.append(case_s / ref_s)
    return (statistics.median(case_ts), statistics.median(ref_ts),
            statistics.median(ratios), ref_out, case_out)


def _sig(x):
    return float(f"{x:.4g}")


def run_suite(cases: Iterable[Case], pairs: int = PAIRS) -> dict:
    """Time every case; return ``{name: row}``."""
    results = {}
    for case in cases:
        case_s, ref_s, ratio, ref_out, case_out = _time(case, pairs)
        identical = (None if case.identical is None
                     else bool(case.identical(ref_out, case_out)))
        results[case.name] = {
            "n": int(case.n),
            "case_s": _sig(case_s),
            "baseline": case.baseline,
            "baseline_s": _sig(ref_s),
            "ratio": _sig(ratio),
            "identical": identical,
        }
        mark = {None: "", True: "  identical", False: "  MISMATCH"}[identical]
        print(f"{case.name:28s} n={case.n:>9d}  case {case_s:10.6f}s  "
              f"ratio {ratio:10.5f}  vs {case.baseline} "
              f"{ref_s:.6f}s{mark}", flush=True)
    return results


def check_against(baseline_path, scale, results, factor=FACTOR):
    """Fail on any identity mismatch, or on a ratio above ``factor`` x the
    recorded one.  Cases the baseline lacks are reported, not gated."""
    payload = json.loads(Path(baseline_path).read_text())
    base = payload.get("scales", {}).get(scale)
    if base is None:
        raise SystemExit(f"baseline {baseline_path} has no '{scale}' scale")
    failures = []
    for name, now in results.items():
        if now["identical"] is False:
            failures.append(f"{name}: identity check failed")
            continue
        then = base.get(name)
        if then is None:
            print(f"{name}: not in {baseline_path}, not gated")
            continue
        if now["ratio"] > factor * then["ratio"]:
            failures.append(f"{name}: ratio {now['ratio']:.4g} exceeds "
                            f"{factor}x baseline {then['ratio']:.4g}")
    if failures:
        raise SystemExit("benchmark regressions:\n  " + "\n  ".join(failures))
    print(f"check passed: no case above {factor}x its recorded ratio")


def main(script, cases, argv=None):
    """The suite CLI: ``script`` is the suite's ``__file__`` and ``cases``
    its ``*_cases(scale)`` generator."""
    script = Path(script)
    parser = argparse.ArgumentParser(
        description=sys.modules[cases.__module__].__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scale", choices=("small", "full"), default="small")
    parser.add_argument("--repeats", type=int, default=PAIRS,
                        help="interleaved (reference, case) pairs per case")
    parser.add_argument("--out", default=str(
        HERE / script.name.replace("bench_", "BENCH_").replace(".py", ".json")))
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a recorded baseline and fail "
                             f"on >{FACTOR}x normalized regressions")
    args = parser.parse_args(argv)

    results = run_suite(cases(args.scale), args.repeats)
    if args.check:
        check_against(args.check, args.scale, results)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = (json.loads(out.read_text()) if out.exists()
               else {"script": f"benchmarks/{script.name}"})
    payload.setdefault("scales", {})[args.scale] = results
    payload["repeats"] = args.repeats
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
