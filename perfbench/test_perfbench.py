"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench``."""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from layers import PER_LAYER, PROBES, layer_metrics
from tracing import Probe, Span, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

run.load_program()


def test_benchmark_json_names_what_the_code_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert ({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
            == run.END_TO_END)
    assert ({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
            == PER_LAYER)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_pass(name, tmp_path):
    """Each workload, shrunk, through the same set-up, timing and trace."""
    result = run.bench(name, WORKLOADS[name].default_seed, 0, True,
                       size="tiny", workdir=tmp_path)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] == 2 * run.MIN_ITERATIONS
    assert set(result["metrics"]) == set(run.END_TO_END) | set(PER_LAYER)
    assert all(result["metrics"][k]["value"] > 0 for k in run.END_TO_END)
    assert list(tmp_path.glob(f"{name}-*.spans.jsonl"))


def test_work_differing_from_the_stored_first_run_fails(tmp_path):
    first = run.bench("monitor-live", 0, 0, False, size="tiny",
                      workdir=tmp_path)
    assert first["failed"] == 0
    (record,) = tmp_path.glob("monitor-live-seed0-tiny-*.json")
    work = json.loads(record.read_text())
    record.write_text(json.dumps({**work, "events": work["events"] + 1}))
    again = run.bench("monitor-live", 0, 0, False, size="tiny",
                      workdir=tmp_path)
    assert not again["correct"]
    assert again["failed"] == again["attempted"]


class _Drifting:
    """A fake workload whose third iteration does different work."""

    name = "drifting"
    input_digest = "fixed"
    file_bytes = 0

    def __init__(self):
        self.calls = 0

    def run(self):
        self.calls += 1
        return self.calls

    def check(self, out):
        return []

    def work(self, out):
        return {"n": 1 if out < 3 else 2}

    def items(self, out):
        return 1

    def latencies(self, out):
        return None

    def extras(self, out):
        return {}


def test_work_drift_within_a_run_fails():
    its = run.iterate(_Drifting(), 0, {})
    assert [bool(it.problems) for it in its] == [False, False, True]


def test_layer_counts_differing_between_traced_runs_fail():
    def traced(rows):
        return run.Iteration(1.0, 1.0, 1.0, [], spans=[
            Span("source.build", 0.0, 1.0, counts={"rows": rows})])

    its = [traced(10), traced(10), traced(11)]
    m = run.per_layer(_Drifting(), [run.Iteration(1.0, 1.0, 1.0, [])], its)
    assert [bool(it.problems) for it in its] == [False, False, True]
    assert m["source.built_pkts"] == 10


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(14_000) == 99.0
    assert run.tail_percentile(500) == 98.0
    assert run.tail_percentile(12) == 50.0
    values = [float(i) for i in range(1, 501)]
    beyond = [v for v in values
              if v > run.percentile(values, run.tail_percentile(500))]
    assert len(beyond) == 10


def _current(target: str):
    """The object a caller finds at ``target`` right now."""
    module, path = target.split(":")
    owner = importlib.import_module(module)
    if path.endswith("]"):
        attr, key = path[:-1].split("[")
        return getattr(owner, attr)[key]
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner.__dict__.get(attr) if classes else getattr(owner, attr)


def test_wrappers_restore_the_original_objects():
    before = [_current(p.target) for p in PROBES]
    with tracing.installed(PROBES, tracing.Recorder()):
        during = [_current(p.target) for p in PROBES]
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, [_current(p.target)
                                               for p in PROBES]))
    from repro.shaping.elements import TokenBucketPolicer

    assert "apply" not in TokenBucketPolicer.__dict__  # inherited method

    broken = [*PROBES, Probe("repro.stream.driver:no_such_name", "x")]
    with pytest.raises(AttributeError):
        with tracing.installed(broken, tracing.Recorder()):
            pass
    assert all(a is b for a, b in zip(before, [_current(p.target)
                                               for p in PROBES]))


def _leaf(x):
    return x + 1


def _outer(x):
    return _leaf(x) * 2


def _steps(n):
    yield from range(n)


def test_wrappers_nest_spans_and_time_each_step():
    ticks = iter(range(100))
    rec = tracing.Recorder(clock=lambda: float(next(ticks)))
    probes = [Probe(f"{__name__}:_outer", "outer"),
              Probe(f"{__name__}:_leaf", "leaf",
                    count=lambda args, out: {"out": out}),
              Probe(f"{__name__}:_steps", "step", steps=True)]
    with tracing.installed(probes, rec):
        assert _outer(1) == 4
        assert list(_steps(2)) == [0, 1]
    assert [(s.name, s.parent) for s in rec.spans] == [
        ("outer", -1), ("leaf", 0),
        ("step", -1), ("step", -1), ("step", -1), ("step", -1)]
    assert rec.spans[1].counts == {"out": 2}
    assert self_times(rec.spans)[:2] == [2.0, 1.0]


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span("run", 0.0, 10.0),
        Span("source.synthesize", 1.0, 5.0, parent=0),
        Span("source.columns", 2.0, 3.0, parent=1),
        Span("source.columns", 3.5, 4.0, parent=1),
        Span("shaping.police", 6.0, 9.0, parent=0,
             counts={"offered": 100, "accepted": 25}),
    ]
    assert self_times(spans) == [3.0, 2.5, 1.0, 0.5, 3.0]
    m = layer_metrics(spans)
    assert m["source.packetize_s"] == 2.5
    assert m["source.columns_s"] == 1.5
    assert m["source.columns_calls"] == 2
    assert m["shaping.police_s"] == 3.0
    assert m["shaping.pass_frac"] == 0.25
    assert sum(m[k] for k in m if k.endswith("_s")) + 3.0 == 10.0


def test_monitor_latency_split_by_snapshot():
    spans = [
        Span("monitor.observe", 0.0, 0.001, counts={"snapshots": 0}),
        Span("monitor.observe", 1.0, 1.003, counts={"snapshots": 1}),
        Span("monitor.topk", 1.0, 1.002, parent=1),
        Span("monitor.observe", 2.0, 2.002, counts={"snapshots": 0}),
    ]
    m = layer_metrics(spans)
    assert m["monitor.ingest_p50_ms"] == pytest.approx(1.5)
    assert m["monitor.snapshot_p50_ms"] == pytest.approx(3.0)
    assert m["monitor.glue_s"] == pytest.approx(0.004)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "synth-policed", "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
