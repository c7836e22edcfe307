"""Canned flow-level experiments: source -> topology -> Hurst per link.

A :class:`FlowScenario` wires the pipeline the tentpole question needs:
synthesize a heavy-tailed ftp workload (or a light-tailed exponential
control) with the columnar sources, route it through a multi-hop
topology, and measure every traversed link's output byte process with the
variance-time estimator.  The paper's prediction — and the scenario's
observable — is that Pareto-sized flows keep H well above 1/2 on *every*
link they cross, while the exponential control stays near 1/2.

Capacities are calibrated to the offered load: each link's capacity is
set so its long-run utilization equals ``utilization`` given the bytes
actually routed over it, which keeps the network busy-but-stable at any
workload scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.ftp import FtpSessionModel
from repro.flowsim.simulator import FlowSimResult, FlowSimulator, FlowTable
from repro.flowsim.topology import (
    Topology,
    dumbbell_topology,
    line_topology,
    star_topology,
)
from repro.selfsim.variance_time import hurst_from_variance_time
from repro.utils.rng import spawn_rngs
from repro.utils.validation import require_positive, require_probability

#: Topology factory registry for CLI / config selection.
TOPOLOGIES = {
    "line": line_topology,
    "star": star_topology,
    "dumbbell": lambda n: dumbbell_topology(n, n),
}


def build_topology(kind: str, n_nodes: int) -> Topology:
    """A named topology sized to ``n_nodes`` principal nodes."""
    if kind == "line":
        return line_topology(n_nodes)
    if kind == "star":
        return star_topology(max(n_nodes - 1, 2))
    if kind == "dumbbell":
        half = max((n_nodes - 2) // 2, 1)
        return dumbbell_topology(half, half)
    raise KeyError(
        f"unknown topology {kind!r}; known: {sorted(TOPOLOGIES)}"
    )


@dataclass(frozen=True)
class FlowScenario:
    """One reproducible flow-level experiment configuration."""

    topology: str = "line"
    n_nodes: int = 10
    duration: float = 3600.0  # seconds of workload
    sessions_per_hour: float = 4000.0
    workload: str = "ftp"  # "ftp" (heavy-tailed) or "exponential" control
    model: str = "msmo97"
    discipline: str = "fair"
    utilization: float = 0.4
    bin_width: float = 1.0
    min_hurst_bins: int = 1000  # below this the level-10+ fit is undefined

    def __post_init__(self):
        require_positive(self.duration, "duration")
        require_positive(self.sessions_per_hour, "sessions_per_hour")
        require_positive(self.bin_width, "bin_width")
        require_probability(self.utilization, "utilization")
        if self.workload not in ("ftp", "exponential"):
            raise ValueError(
                f"workload must be 'ftp' or 'exponential', got {self.workload!r}"
            )

    # ------------------------------------------------------------------
    def synthesize_flows(self, topology: Topology, seed=None,
                         jobs: int = 1) -> FlowTable:
        """The scenario's workload as a :class:`FlowTable`.

        "ftp" synthesizes FTPDATA connections column-natively (Pareto
        burst bytes, the paper's Section V heavy tail) and maps their
        hosts onto nodes.  "exponential" is the matched control: the same
        flow count and mean size over the same span, but Poisson arrivals
        and exponential sizes — the workload under which Poisson-style
        modeling *should* work.
        """
        model = FtpSessionModel(sessions_per_hour=self.sessions_per_hour)
        batch = model.synthesize_columns(self.duration, seed=seed, jobs=jobs)
        flows = FlowTable.from_connections(
            batch, topology, protocols=("FTPDATA",), model=self.model
        )
        if self.workload == "ftp":
            return flows
        rng = spawn_rngs(seed, 2)[1]  # independent of the ftp stream
        n = len(flows)
        starts = np.sort(rng.uniform(0.0, self.duration, n))
        sizes = np.maximum(
            rng.exponential(float(np.mean(flows.sizes)), n), 1.0
        )
        # Shuffle the host pairs: the ftp columns keep session order, so
        # pairing them with fresh sorted starts would hand each link its
        # traffic in heavy-tailed session-length runs — long-range
        # dependence smuggled into the "Poisson" control via routing.
        perm = rng.permutation(n)
        return FlowTable(
            start_times=starts,
            sizes=sizes,
            src=np.asarray(flows.src)[perm],
            dst=np.asarray(flows.dst)[perm],
            models=(self.model,),
        )

    def calibrate(self, topology: Topology, flows: FlowTable) -> None:
        """Set link capacities so routed load sits at ``utilization``.

        Routes the byte demand over each link analytically (no
        simulation) and solves ``capacity = demand / (duration *
        utilization)``, floored at 64 kbit/s so an unused link still has a
        sane capacity.
        """
        demand = np.zeros(topology.n_links)
        src = np.asarray(flows.src)
        dst = np.asarray(flows.dst)
        sizes = np.asarray(flows.sizes, dtype=float)
        codes = src * topology.n_nodes + dst
        for code in np.unique(codes):
            sel = codes == code
            path = topology.path(
                int(code // topology.n_nodes), int(code % topology.n_nodes)
            )
            total = float(sizes[sel].sum())
            for li in path:
                demand[li] += total
        caps = np.maximum(
            demand / (self.duration * self.utilization), 8_000.0
        )
        topology.set_capacities(caps)

    # ------------------------------------------------------------------
    def run(self, seed=None, jobs: int = 1,
            horizon: float | None = None) -> "ScenarioResult":
        """Synthesize, calibrate, simulate, and estimate H per link."""
        topology = build_topology(self.topology, self.n_nodes)
        flows = self.synthesize_flows(topology, seed=seed, jobs=jobs)
        self.calibrate(topology, flows)
        sim = FlowSimulator(topology, discipline=self.discipline)
        result = sim.run(flows, horizon=horizon)
        end = self.duration if horizon is None else min(horizon, self.duration)
        hursts = {}
        for li, stats in enumerate(result.links):
            if stats.n_flows == 0:
                continue
            proc = stats.byte_process(self.bin_width, start=0.0, end=end)
            if proc.n_bins >= self.min_hurst_bins and proc.total > 0:
                hursts[li] = hurst_from_variance_time(proc)
        return ScenarioResult(
            scenario=self, result=result, link_hurst=hursts
        )


@dataclass(frozen=True)
class ScenarioResult:
    """A scenario run plus its per-link self-similarity readout."""

    scenario: FlowScenario
    result: FlowSimResult
    link_hurst: dict[int, float] = field(default_factory=dict)

    @property
    def mean_hurst(self) -> float:
        if not self.link_hurst:
            return float("nan")
        return float(np.mean(list(self.link_hurst.values())))

    def summary(self) -> dict:
        r = self.result
        done = r.completed
        return {
            "topology": self.scenario.topology,
            "n_nodes": r.topology.n_nodes,
            "n_links": r.topology.n_links,
            "workload": self.scenario.workload,
            "discipline": self.scenario.discipline,
            "model": self.scenario.model,
            "n_flows": r.n_flows,
            "n_completed": r.n_completed,
            "bytes_offered": r.bytes_offered(),
            "mean_duration": (
                float(np.nanmean(r.durations[done])) if done.any() else None
            ),
            "link_hurst": {int(k): float(v)
                           for k, v in self.link_hurst.items()},
            "mean_hurst": (self.mean_hurst if self.link_hurst else None),
        }

    def payload(self) -> dict:
        """:meth:`summary` keyed by its workload name."""
        return {"scenarios": {self.scenario.workload: self.summary()}}

    def render(self) -> str:
        s = self.summary()
        lines = [
            f"flowsim: {s['workload']} over {s['topology']} "
            f"({s['n_nodes']} nodes, {s['n_links']} links, "
            f"{s['discipline']} discipline, {s['model']} closure)",
            f"  flows: {s['n_completed']}/{s['n_flows']} completed, "
            f"{s['bytes_offered'] / 1e6:.1f} MB offered",
        ]
        if s["mean_duration"] is not None:
            lines.append(f"  mean flow duration: {s['mean_duration']:.3f} s")
        if self.link_hurst:
            hs = ", ".join(
                f"L{li}={h:.2f}" for li, h in sorted(self.link_hurst.items())
            )
            lines.append(f"  variance-time H per link: {hs}")
            lines.append(f"  mean H: {self.mean_hurst:.3f}")
        return "\n".join(lines)


def run_scenario(scenario: FlowScenario | None = None, seed=None,
                 jobs: int = 1, **overrides) -> ScenarioResult:
    """Run a :class:`FlowScenario` (default one if none given)."""
    scenario = scenario or FlowScenario()
    if overrides:
        scenario = replace(scenario, **overrides)
    return scenario.run(seed=seed, jobs=jobs)
