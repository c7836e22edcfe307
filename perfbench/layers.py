"""Which program calls the traced run wraps, and the per-layer metrics.

Every probe wraps one public function or method at the place its caller
looks it up (see :mod:`tracing`).  One table serves all four workloads;
a layer a workload never calls records no spans and reads 0 there.

Every ``*_s`` metric is *self time* per timed iteration: the layer's span
time minus the time of the traced layers it called.  Summed over all
layers plus the iteration's own root span it gives the iteration's wall
time, so on a single thread a layer can cut ``wall_s`` by at most its
``*_s``.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from tracing import Probe, Span, self_times


def _rows(args, out):
    return {"rows": len(out)}


def _policed(args, out):
    return {"offered": out.n, "accepted": out.n_accepted}


def _flows(args, out):
    return {"flows": out.n_flows}


def _snapshots(args, out):
    return {"snapshots": len(out)}


def _chunks(args, out):
    return {"chunks": len(out)}


PROBES = (
    # scenario front door (synth-policed, flowsim-line)
    Probe("repro.scenario.pipeline:resolve", "scenario.resolve"),
    Probe("repro.scenario.pipeline:SynthValidationResult.render",
          "scenario.render"),
    Probe("repro.experiments.flowsim_exp:FlowsimComparisonResult.render",
          "scenario.render"),
    # source
    Probe("repro.replay.source:synthesize_packets", "source.synthesize",
          count=_rows),
    Probe("repro.replay.source:MODELS[ftp]", "source.build", count=_rows),
    Probe("repro.core.ftp:FtpSessionModel.synthesize_columns",
          "source.columns"),
    # conditioning, ingest, battery
    Probe("repro.shaping.elements:TokenBucketPolicer.apply",
          "shaping.police", count=_policed),
    Probe("repro.stream.summary:StreamSummary.update", "stream.ingest"),
    Probe("repro.scenario.battery:run_battery", "battery.run"),
    Probe("repro.stream.sketches:CountLadder.variance_time", "battery.vt"),
    Probe("repro.monitor.estimators:assess_drift", "battery.drift"),
    Probe("repro.stats:anderson_darling_exponential", "battery.poisson"),
    Probe("repro.stats.poisson_tests:evaluate_arrival_process",
          "battery.poisson"),
    # flow simulator
    Probe("repro.flowsim.scenario:FlowScenario.synthesize_flows",
          "flowsim.flowtable"),
    Probe("repro.flowsim.scenario:FlowScenario.calibrate",
          "flowsim.calibrate"),
    Probe("repro.flowsim.simulator:FlowSimulator.run", "flowsim.sim",
          count=_flows),
    Probe("repro.flowsim.simulator:LinkStats.byte_process",
          "flowsim.byte_process"),
    Probe("repro.flowsim.scenario:hurst_from_variance_time",
          "selfsim.hurst"),
    # monitor service
    Probe("repro.monitor.service:MonitorService.observe", "monitor.observe",
          count=_snapshots),
    Probe("repro.monitor.windows:DecayedTopK.update", "monitor.topk"),
    Probe("repro.monitor.windows:SlidingCountLadder.update",
          "monitor.ladder"),
    Probe("repro.monitor.windows:WindowedQuantileSketch.update",
          "monitor.quantile"),
    Probe("repro.monitor.changepoint:CusumDetector.update",
          "monitor.changepoint"),
    Probe("repro.monitor.changepoint:PageHinkleyDetector.update",
          "monitor.changepoint"),
    Probe("repro.monitor.estimators:OnlineHurst.estimate", "monitor.hurst"),
    Probe("repro.monitor.estimators:OnlineTail.estimate", "monitor.tail"),
    Probe("repro.monitor.service:assess_drift", "monitor.drift"),
    Probe("repro.monitor.estimators:OnlinePoissonCheck.update",
          "monitor.poisson"),
    Probe("repro.monitor.estimators:OnlinePoissonCheck.check",
          "monitor.poisson"),
    # out-of-core scan
    Probe("repro.stream.driver:plan_chunks", "stream.plan", count=_chunks),
    Probe("repro.stream.driver:iter_chunk_batches", "stream.parse",
          steps=True),
    Probe("repro.stream.summary:StreamSummary.merge", "stream.merge"),
    Probe("repro.stream.driver:ScanReport.render", "stream.render"),
)

#: self-time metric -> the span names it sums
SELF_TIME = {
    "source.columns_s": ("source.columns",),
    "source.packetize_s": ("source.synthesize", "source.build"),
    "shaping.police_s": ("shaping.police",),
    "stream.ingest_s": ("stream.ingest",),
    "battery.run_s": ("battery.run",),
    "battery.vt_s": ("battery.vt",),
    "battery.drift_s": ("battery.drift",),
    "battery.poisson_s": ("battery.poisson",),
    "scenario.resolve_s": ("scenario.resolve",),
    "scenario.render_s": ("scenario.render",),
    "flowsim.flowtable_s": ("flowsim.flowtable",),
    "flowsim.calibrate_s": ("flowsim.calibrate",),
    "flowsim.sim_s": ("flowsim.sim",),
    "flowsim.byte_process_s": ("flowsim.byte_process",),
    "selfsim.hurst_s": ("selfsim.hurst",),
    "monitor.topk_s": ("monitor.topk",),
    "monitor.ladder_s": ("monitor.ladder",),
    "monitor.quantile_s": ("monitor.quantile",),
    "monitor.changepoint_s": ("monitor.changepoint",),
    "monitor.hurst_s": ("monitor.hurst",),
    "monitor.tail_s": ("monitor.tail",),
    "monitor.drift_s": ("monitor.drift",),
    "monitor.poisson_s": ("monitor.poisson",),
    "monitor.glue_s": ("monitor.observe",),
    "stream.plan_s": ("stream.plan",),
    "stream.parse_s": ("stream.parse",),
    "stream.merge_s": ("stream.merge",),
    "stream.render_s": ("stream.render",),
}

#: every per-layer metric the traced run reports, with its unit
PER_LAYER = {
    **{name: "s" for name in SELF_TIME},
    "source.columns_calls": "count",
    "source.built_pkts": "count",
    "source.useful_frac": "ratio",
    "shaping.pass_frac": "ratio",
    "battery.bins": "count",
    "flowsim.sim_flows_per_s": "1/s",
    "monitor.ingest_p50_ms": "ms",
    "monitor.snapshot_p50_ms": "ms",
    "monitor.snapshots": "count",
    "monitor.state_bytes": "bytes",
    "stream.bytes_per_s": "B/s",
    "stream.sketch_bytes": "bytes",
    "stream.chunks": "count",
    "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median_ms(values: list[float]) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, from its spans alone."""
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: dict[str, Counter] = defaultdict(Counter)
    for span, t in zip(spans, self_times(spans)):
        own[span.name] += t
        calls[span.name] += 1
        counts[span.name].update(span.counts)
    out = {metric: sum(own[n] for n in names)
           for metric, names in SELF_TIME.items()}
    observe = [(s.duration, s.counts["snapshots"]) for s in spans
               if s.name == "monitor.observe"]
    built = counts["source.build"]["rows"]
    sim_s = sum(s.duration for s in spans if s.name == "flowsim.sim")
    out.update({
        "source.columns_calls": calls["source.columns"],
        "source.built_pkts": built,
        "source.useful_frac": _ratio(counts["source.synthesize"]["rows"],
                                     built),
        "shaping.pass_frac": _ratio(counts["shaping.police"]["accepted"],
                                    counts["shaping.police"]["offered"]),
        "flowsim.sim_flows_per_s": _ratio(counts["flowsim.sim"]["flows"],
                                          sim_s),
        "monitor.ingest_p50_ms": _median_ms([d for d, k in observe if not k]),
        "monitor.snapshot_p50_ms": _median_ms([d for d, k in observe if k]),
        "stream.chunks": counts["stream.plan"]["chunks"],
    })
    return out
