"""The four benchmark workloads, one front door each.

A workload builds its inputs in :meth:`Workload.prepare`, runs a small
instance of itself in :meth:`Workload.warm_up`, and does one fixed unit of
work in :meth:`Workload.run` -- the timed region, from the front-door call
through the rendered output.  Everything after ``run`` (output checks,
work counts, digests) happens outside the timed region.

``size`` is ``"full"`` for measurement and ``"tiny"`` for the benchmark's
own self-tests; both go through the same code.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()[:16]


class Workload:
    name = ""
    default_seed = 0
    #: modules the front door imports, some only lazily on first call
    modules: tuple[str, ...] = ()
    #: unit of work per timed iteration, by size
    sizes: dict = {}
    #: bytes the timed region reads from disk (stream-scan only)
    file_bytes = 0

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.n = self.sizes[size]
        self.workdir = workdir

    def prepare(self) -> str:
        """Build the inputs; return their digest."""
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def items(self, out) -> int:
        """Items the iteration processed (the numerator of items_per_s)."""
        raise NotImplementedError

    def latencies(self, out) -> list[float] | None:
        """Per-call front-door latencies, when a run makes many calls."""
        return None

    def check(self, out) -> list[str]:
        """Problems with the output; empty when it is correct."""
        raise NotImplementedError

    def work(self, out) -> dict:
        """Work counts plus an output digest: equal for equal work."""
        raise NotImplementedError

    def extras(self, out) -> dict:
        """Per-layer values read off the output rather than the trace."""
        return {}

    def close(self) -> None:
        """Remove the inputs this workload wrote to disk."""


class _SpecWorkload(Workload):
    """A committed scenario document run through the uncached ``run_spec``."""

    spec = ""
    section = ""
    knob = ""
    warm_size = 0
    #: run at the spec's own seed rather than ``--seed``
    pin_seed = False

    def _doc(self, size):
        from repro.scenario.spec import load_spec, resolve

        doc = load_spec(ROOT / self.spec)
        doc[self.section][self.knob] = size
        return resolve(doc)

    def prepare(self) -> str:
        from repro.scenario.spec import spec_digest

        self.doc = self._doc(self.n)
        self.scenario_seed = (self.doc["scenario"]["seed"] if self.pin_seed
                              else self.seed)
        return _sha(spec_digest(self.doc), self.scenario_seed)

    def warm_up(self) -> None:
        from repro.scenario.pipeline import run_spec

        run_spec(self._doc(self.warm_size), seed=self.scenario_seed)

    def run(self):
        from repro.scenario.pipeline import run_spec

        return run_spec(self.doc, seed=self.scenario_seed)


class SynthPoliced(_SpecWorkload):
    """ftp source -> token-bucket policer -> sketch ingest -> battery.

    The scenario seed stays the committed spec's 3 whatever ``--seed`` is:
    the ftp source's over-build, and with it the cost, is a heavy-tailed
    function of that seed, and at some seeds the verdict is not
    ``self-similar`` (see README.md).
    """

    name = "synth-policed"
    default_seed = 3
    spec = "examples/specs/synth_policed.toml"
    section, knob = "source", "n_packets"
    sizes = {"full": 250_000, "tiny": 20_000}
    warm_size = 20_000
    pin_seed = True
    modules = ("repro.scenario.pipeline", "repro.replay.source",
               "repro.shaping.elements", "repro.scenario.shard",
               "repro.stream.summary", "repro.scenario.battery",
               "repro.monitor.estimators", "repro.stats",
               "repro.stats.poisson_tests", "repro.experiments.report",
               "scipy.stats")

    def items(self, out) -> int:
        return out.result.source["n_packets"]

    def check(self, out) -> list[str]:
        r = out.result
        offered, accepted = r.source["n_packets"], r.summary.n
        # Every ftp packet is 512 bytes, so the policer's byte loss is its
        # packet loss and gives the dropped count.
        dropped = r.loss_fraction * offered
        problems = []
        if abs(accepted + dropped - offered) > 1e-6 * offered:
            problems.append(f"accepted {accepted} + dropped {dropped:.3f} "
                            f"!= offered {offered}")
        if r.battery.n_events != accepted:
            problems.append(f"battery saw {r.battery.n_events} events, "
                            f"policer accepted {accepted}")
        if r.battery.verdict != "self-similar":
            problems.append(f"verdict {r.battery.verdict!r}")
        return problems

    def work(self, out) -> dict:
        r = out.result
        return {"offered": r.source["n_packets"], "accepted": r.summary.n,
                "ladder_bins": int(r.summary.counts.finalize().size),
                "digest": _sha(r.sketch_fingerprint(), out.rendered)}

    def extras(self, out) -> dict:
        return {"battery.bins": int(out.result.summary.counts.finalize().size)}


class FlowsimLine(_SpecWorkload):
    """ftp flows and their exponential control over a 10-node line."""

    name = "flowsim-line"
    default_seed = 0
    spec = "examples/specs/flowsim_line.toml"
    section, knob = "flowsim", "duration"
    sizes = {"full": 3600.0, "tiny": 1100.0}
    # FlowsimComparisonResult.rows() takes min() of the per-link H, which
    # is empty (and raises) below 1000 one-second bins.
    warm_size = 1100.0
    modules = ("repro.scenario.pipeline", "repro.experiments.flowsim_exp",
               "repro.flowsim.scenario", "repro.flowsim.simulator",
               "repro.core.ftp", "repro.selfsim.variance_time",
               "repro.experiments.report")

    def items(self, out) -> int:
        r = out.result
        return r.ftp.result.n_flows + r.control.result.n_flows

    def check(self, out) -> list[str]:
        r = out.result
        problems = []
        if not r.heavy_tail_elevated:
            problems.append("ftp links not all above H 0.6")
        if not r.control_near_half:
            problems.append(f"control mean H {r.control.mean_hurst:.3f}")
        return problems

    def work(self, out) -> dict:
        r = out.result
        return {"ftp_flows": r.ftp.result.n_flows,
                "control_flows": r.control.result.n_flows,
                "ftp_completed": r.ftp.result.n_completed,
                "control_completed": r.control.result.n_completed,
                "links": len(r.ftp.link_hurst) + len(r.control.link_hurst),
                "digest": _sha(out.rendered)}


@dataclass
class MonitorOutput:
    report: object
    rendered: str
    latencies: list


class MonitorLive(Workload):
    """Closed loop: one caller hands ``observe`` 1 s of stream per call."""

    name = "monitor-live"
    default_seed = 0
    sizes = {"full": 200_000, "tiny": 20_000}
    warm_events = 20_000
    rate = 200.0  # events per second of stream time
    config = {"window": 60.0, "bin_width": 0.05, "snapshot_every": 5.0,
              "rate_tick": 0.5}
    modules = ("repro.monitor", "repro.monitor.service",
               "repro.experiments.report")

    def prepare(self) -> str:
        from repro.monitor import iter_batches, pareto_stream

        span = 1.5 * self.n / self.rate
        times = pareto_stream(span, self.rate, seed=self.seed)
        while times.size < self.n:
            span *= 2.0
            times = pareto_stream(span, self.rate, seed=self.seed)
        self.times = times[:self.n]
        self.batches = list(iter_batches(self.times, 1.0))
        return _sha(self.times.tobytes())

    def _observe_all(self, batches) -> MonitorOutput:
        from repro.monitor import MonitorConfig, MonitorService

        service = MonitorService(MonitorConfig(**self.config))
        clock = time.perf_counter
        lat = []
        for batch in batches:
            t0 = clock()
            service.observe(batch)
            lat.append(clock() - t0)
        report = service.finalize()
        return MonitorOutput(report, report.render(), lat)

    def warm_up(self) -> None:
        cut = self.times[self.warm_events - 1]
        self._observe_all([b for b in self.batches if b[-1] <= cut])

    def run(self) -> MonitorOutput:
        return self._observe_all(self.batches)

    def items(self, out) -> int:
        return out.report.n_events

    def latencies(self, out) -> list[float]:
        return out.latencies

    def check(self, out) -> list[str]:
        problems = []
        if out.report.n_events != self.n:
            problems.append(f"observed {out.report.n_events} of {self.n}")
        # The whole-history mode, not final_verdict's trailing-quarter
        # vote: see README.md.
        verdict = out.report.modal_verdict()
        if verdict != "self-similar":
            problems.append(f"modal verdict {verdict!r}")
        return problems

    def work(self, out) -> dict:
        r = out.report
        snaps = json.dumps([s.payload() for s in r.snapshots],
                           sort_keys=True, default=repr)
        return {"events": r.n_events, "batches": r.n_batches,
                "snapshots": len(r.snapshots), "alarms": len(r.alarms),
                "digest": _sha(snaps, r.final_verdict)}

    def extras(self, out) -> dict:
        return {"monitor.snapshots": len(out.report.snapshots),
                "monitor.state_bytes": out.report.memory_bytes}


@dataclass
class ScanOutput:
    report: object
    rendered: str


class StreamScan(Workload):
    """Out-of-core scan of a Table-II-mix packet trace, default chunking."""

    name = "stream-scan"
    default_seed = 0
    sizes = {"full": 1_000_000, "tiny": 50_000}
    warm_records = 50_000
    modules = ("repro.stream.driver", "repro.stream.synth",
               "repro.stream.reader", "repro.stream.summary")

    def _write(self, path, n):
        from repro.stream.synth import write_stream_trace

        return write_stream_trace(path, n_packets=n, seed=self.seed)

    def prepare(self) -> str:
        self.path = self.workdir / f"stream-seed{self.seed}-{self.n}.trace"
        info = self._write(self.path, self.n)
        self.rows, self.file_bytes = info.n_packets, info.file_bytes
        return _sha(self.path.read_bytes())

    def warm_up(self) -> None:
        from repro.stream.driver import scan_trace

        path = self.workdir / f"stream-seed{self.seed}-warm.trace"
        self._write(path, self.warm_records)
        scan_trace(path).render()
        path.unlink()

    def run(self) -> ScanOutput:
        from repro.stream.driver import scan_trace

        report = scan_trace(self.path)
        return ScanOutput(report, report.render())

    def items(self, out) -> int:
        return out.report.n_records

    def check(self, out) -> list[str]:
        problems = []
        if out.report.n_records != self.rows:
            problems.append(f"scanned {out.report.n_records} of {self.rows}")
        # The ladder's running total; finalize() drops the trailing
        # partial bin by design (see README.md).
        ladder = out.report.summary.counts.n_events
        if ladder != self.rows:
            problems.append(f"count ladder holds {ladder} of {self.rows}")
        return problems

    def work(self, out) -> dict:
        rep = out.report
        # The render's last sketch line carries wall time; leave it out.
        text = [line for line in out.rendered.splitlines()
                if not line.startswith("  sketch memory")]
        return {"records": rep.n_records, "chunks": len(rep.chunk_metrics),
                "bytes": self.file_bytes,
                "digest": _sha(rep.summary.counts.finalize().tobytes(),
                               "\n".join(text))}

    def extras(self, out) -> dict:
        return {"stream.sketch_bytes": out.report.accumulator_nbytes}

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (SynthPoliced, FlowsimLine, MonitorLive,
                                 StreamScan)}
