"""Benchmarks of the flow-level network simulator.

Two faces, mirroring ``bench_kernels.py`` / ``bench_traces.py``:

* **pytest-benchmark micro-tests** (run with
  ``pytest benchmarks/bench_flowsim.py --benchmark-only``) timing the
  event core and the per-link array exports on their own;
* **a CLI** (``PYTHONPATH=src python benchmarks/bench_flowsim.py``, see
  :mod:`harness`) that times both disciplines, the per-link export and
  the end-to-end scenario, each against a bare ``heapq`` push/pop loop
  over its event count, and records the ratios in ``BENCH_flowsim.json``;
  ``--check BASELINE`` fails when a ratio regressed past 1.5x.

The ``full`` scale runs 10^5 flows through a 10-node topology.
"""

import heapq

import numpy as np

import harness
from harness import Case
from repro.flowsim import FlowScenario, FlowSimulator, FlowTable
from repro.flowsim.topology import line_topology


def _flows(n, span, n_nodes, seed=0):
    rng = np.random.default_rng(seed)
    starts = np.sort(rng.uniform(0.0, span, n))
    sizes = (rng.pareto(1.1, n) + 1.0) * 20_000.0
    src = rng.integers(0, n_nodes, n)
    dst = (src + rng.integers(1, n_nodes, n)) % n_nodes
    return FlowTable.from_arrays(starts, sizes, src, dst)


def _heap_baseline(n_events):
    """Bare heapq push/pop over the same event count: the floor any
    heap-driven event core pays, used to normalize away machine speed."""
    heap = []
    t = 0.0
    for i in range(n_events):
        t += 0.001
        heapq.heappush(heap, (t + 1.0, 0, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    while heap:
        heapq.heappop(heap)
    return n_events


# ----------------------------------------------------------------------
# pytest-benchmark micro-tests
# ----------------------------------------------------------------------
def test_fair_discipline_100k_flows(benchmark):
    topo = line_topology(10, loss=0.01)
    flows = _flows(100_000, 3600.0, 10)
    sim = FlowSimulator(topo, "fair")
    res = benchmark(sim.run, flows)
    assert res.n_completed == 100_000


def test_fifo_discipline_20k_flows(benchmark):
    topo = line_topology(10, loss=0.01)
    flows = _flows(20_000, 3600.0, 10)
    sim = FlowSimulator(topo, "fifo")
    res = benchmark(sim.run, flows)
    assert res.n_completed == 20_000


def test_byte_process_export(benchmark):
    topo = line_topology(10, loss=0.01)
    res = FlowSimulator(topo, "fair").run(_flows(100_000, 3600.0, 10))
    busiest = max(res.links, key=lambda s: s.n_flows)
    proc = benchmark(busiest.byte_process, 1.0, 0.0, 3600.0)
    assert proc.total > 0


# ----------------------------------------------------------------------
# CLI: heap-normalized event-core timings (BENCH_flowsim.json)
# ----------------------------------------------------------------------
def _heap_case(name, n, run, n_events):
    return Case(name, n, run, f"heapq x{n_events}",
                lambda: _heap_baseline(n_events))


def flowsim_cases(scale):
    """The event core, the export and the scenario, each against the heap
    floor of its event count."""
    full = scale == "full"
    n = 100_000 if full else 20_000
    n_nodes = 10
    span = 3600.0 if full else 900.0
    topo = line_topology(n_nodes, loss=0.01)
    flows = _flows(n, span, n_nodes)

    # ~2 heap events per flow in the fair loop (open + close)
    yield _heap_case("fair_run", n,
                     lambda: FlowSimulator(topo, "fair").run(flows), 2 * n)

    # fifo pays one heap event per hop; mean path length ~ n_nodes / 3
    n_fifo = n if full else n // 2
    fifo_flows = _flows(n_fifo, span, n_nodes, seed=1)
    yield _heap_case("fifo_run", n_fifo,
                     lambda: FlowSimulator(topo, "fifo").run(fifo_flows),
                     n_fifo * max(n_nodes // 3, 1))

    res = FlowSimulator(topo, "fair").run(flows)
    busiest = max(res.links, key=lambda s: s.n_flows)
    yield _heap_case("byte_process_export", busiest.n_flows,
                     lambda: busiest.byte_process(1.0, start=0.0, end=span),
                     2 * n)

    sessions = 4000.0 if full else 1000.0
    scenario = FlowScenario(
        topology="line", n_nodes=n_nodes, duration=span,
        sessions_per_hour=sessions,
        bin_width=1.0 if full else 0.5,  # keep enough bins for the H fit
    )
    yield _heap_case("scenario_end_to_end",
                     scenario.run(seed=0).result.n_flows,
                     lambda: scenario.run(seed=0), 2 * n)


if __name__ == "__main__":
    harness.main(__file__, flowsim_cases)
