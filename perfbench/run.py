"""End-to-end benchmark of the reproduction's front doors.

    python3 perfbench/run.py --workload synth-policed --seed 3 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

One run sets the workload up three times (imports, inputs, warm-up) and
reports the median set-up, then repeats the workload's fixed unit of work
until ``--seconds`` have passed (at least three times) and reports medians.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` splits the time
between untraced and traced iterations and prints the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

import time

ENTRY = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 3
MIN_ITERATIONS = 3

#: end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "items/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "batch_p50_ms": "ms",
    "batch_p99_ms": "ms",
}


def load_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


# -- one timed iteration ------------------------------------------------

def reset_peak_rss() -> None:
    """Restart the kernel's RSS high-water mark (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


@dataclass
class Iteration:
    wall: float
    cpu: float
    rss_mb: float
    problems: list
    work: dict | None = None
    items: int = 0
    latencies: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def run_once(w, rec=None) -> Iteration:
    """Time one unit of work; check and fingerprint it afterwards."""
    gc.collect()
    reset_peak_rss()
    c0 = time.process_time()
    t0 = time.perf_counter()
    root = rec.open("run") if rec is not None else None
    try:
        out, error = w.run(), None
    except Exception:
        out, error = None, traceback.format_exc()
    if rec is not None:
        rec.close(root)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    it = Iteration(wall, cpu, peak_rss_mb(), [error] if error else [])
    if rec is not None:
        it.spans, rec.spans = rec.spans, []
    if out is not None:
        it.problems = w.check(out)
        it.work = {**w.work(out), "input": w.input_digest}
        it.items = w.items(out)
        it.latencies = w.latencies(out) or [wall]
        it.extras = w.extras(out)
    return it


def iterate(w, seconds: float, reference: dict, rec=None) -> list:
    """Repeat the unit of work for ``seconds`` (at least MIN_ITERATIONS).

    ``reference`` holds the first work record seen at this seed; an
    iteration whose counts or digest differ from it has failed.
    """
    its = []
    start = time.perf_counter()
    while (len(its) < MIN_ITERATIONS
           or time.perf_counter() - start < seconds):
        it = run_once(w, rec)
        if it.work is not None:
            reference.setdefault("work", it.work)
            if it.work != reference["work"]:
                it.problems.append(f"work {it.work} != first run's "
                                   f"{reference['work']}")
        for problem in it.problems:
            print(f"{w.name}: FAILED: {problem}", file=sys.stderr)
        its.append(it)
    return its


# -- set-up and the fixed-work record -----------------------------------

def set_up(cls, seed: int, size: str, workdir: Path, entry: float):
    """Import, build inputs and warm up SETUP_REPEATS times.

    Returns the last workload, the set-up time (imports once plus the
    median repeat) and any input-digest disagreement between repeats.
    """
    for name in cls.modules:
        importlib.import_module(name)
    imported = time.perf_counter() - entry
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        w = cls(seed, size, workdir)
        w.input_digest = w.prepare()
        digests.add(w.input_digest)
        w.warm_up()
        gc.collect()
        times.append(time.perf_counter() - t0)
    problems = ([] if len(digests) == 1
                else [f"inputs differ between set-ups: {sorted(digests)}"])
    return w, imported + statistics.median(times), problems


def source_digest() -> str:
    """Digest of the program and benchmark sources, keying work records."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stored_reference(path: Path) -> dict:
    """The work record of the first run at this seed on this source."""
    try:
        return {"work": json.loads(path.read_text())}
    except FileNotFoundError:
        return {}


def store_reference(path: Path, reference: dict) -> None:
    if "work" in reference and not path.exists():
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(reference["work"], sort_keys=True))
        os.replace(tmp, path)


# -- metrics ------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def tail_percentile(n: int) -> float:
    """The highest percentile, up to 99, with at least ten of ``n`` samples
    beyond it; never below the median.  A whole-call workload times a dozen
    calls a run, too few for a tail, so its "p99" is its median call."""
    return max(50.0, min(99.0, 100.0 * (1.0 - 10.0 / n)))


def end_to_end(setup_s: float, its: list, attempted: int,
               failed: int) -> dict:
    wall = statistics.median(it.wall for it in its)
    latencies = [x for it in its for x in it.latencies]
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "items_per_s": max(it.items for it in its) / wall,
        "cpu_s": statistics.median(it.cpu for it in its),
        "peak_rss_mb": statistics.median(it.rss_mb for it in its),
        "ok_frac": (attempted - failed) / attempted,
        "batch_p50_ms": 1e3 * percentile(latencies, 50),
        "batch_p99_ms": 1e3 * percentile(latencies,
                                         tail_percentile(len(latencies))),
    }


def per_layer(w, untraced: list, traced: list) -> dict:
    """Median per-layer metrics; a traced iteration whose layer counts
    (packets built, calls, chunks, ...) differ from the first has failed."""
    from layers import PER_LAYER, layer_metrics

    rows = [{**layer_metrics(it.spans), **it.extras} for it in traced]
    counts = [{k: r.get(k, 0) for k, unit in PER_LAYER.items()
               if unit == "count"} for r in rows]
    for it, c in zip(traced, counts):
        if c != counts[0]:
            it.problems.append(f"layer counts {c} != first's {counts[0]}")
            print(f"{w.name}: FAILED: {it.problems[-1]}", file=sys.stderr)
    out = {k: statistics.median(r.get(k, 0.0) for r in rows)
           for k in PER_LAYER}
    wall = statistics.median(it.wall for it in untraced)
    out["stream.bytes_per_s"] = w.file_bytes / wall
    out["trace.overhead_frac"] = (
        statistics.median(it.wall for it in traced) / wall - 1.0)
    return out


def bench(name: str, seed: int, seconds: float, trace: bool, *,
          size: str = "full", workdir: Path = WORKDIR,
          entry: float | None = None) -> dict:
    """Set up and measure one workload; return the result object.

    With ``trace`` the result holds both metric sets and the spans are
    written to ``workdir``; the command line prints one set.
    """
    import tracing
    from layers import PER_LAYER, PROBES
    from workloads import WORKLOADS

    entry = time.perf_counter() if entry is None else entry
    workdir.mkdir(parents=True, exist_ok=True)
    w, setup_s, problems = set_up(WORKLOADS[name], seed, size, workdir,
                                  entry)
    for problem in problems:
        print(f"{name}: FAILED: {problem}", file=sys.stderr)
    record = workdir / f"{name}-seed{seed}-{size}-{source_digest()}.json"
    reference = stored_reference(record)
    budget = seconds / 2 if trace else seconds
    traced = []
    try:
        untraced = iterate(w, budget, reference)
        store_reference(record, reference)
        if trace:
            rec = tracing.Recorder()
            with tracing.installed(PROBES, rec):
                traced = iterate(w, budget, reference, rec)
    finally:
        w.close()
    if trace:
        tracing.write_spans(workdir / f"{name}-seed{seed}-{size}.spans.jsonl",
                            [s for it in traced for s in it.spans])
    layers = per_layer(w, untraced, traced) if trace else {}
    its = untraced + traced
    failed = sum(1 for it in its if it.problems)
    attempted = len(its)
    metrics = {**end_to_end(setup_s, untraced, attempted, failed), **layers}
    units = {**END_TO_END, **PER_LAYER}
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
        "work": untraced[0].work,
    }


# -- command line -------------------------------------------------------

def report(name: str, result: dict, keys) -> list[str]:
    lines = [f"{name}: correct={result['correct']} "
             f"attempted={result['attempted']} failed={result['failed']} "
             f"work={result['work']}"]
    metrics = result["metrics"]
    for key in keys:
        m = metrics[key]
        lines.append(f"  {key:<26} {m['value']:>16.6g} {m['unit']}")
    return lines


def run_all(args) -> int:
    """Run every workload in its own process; print one table."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, cls in WORKLOADS.items():
        seed = cls.default_seed if args.seed is None else args.seed
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_program()
    if args.workload == "all":
        return run_all(args)
    from layers import PER_LAYER

    seed = (WORKLOADS[args.workload].default_seed if args.seed is None
            else args.seed)
    result = bench(args.workload, seed, args.seconds, bool(args.trace),
                   entry=ENTRY)
    keys = PER_LAYER if args.trace else END_TO_END
    print("\n".join(report(args.workload, result, keys)))
    metrics = {k: result["metrics"][k] for k in keys}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
