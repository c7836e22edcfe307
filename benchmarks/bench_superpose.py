"""Benchmarks of the batched superposition kernels.

Two faces, mirroring ``bench_monitor.py`` / ``bench_kernels.py``:

* **pytest-benchmark micro-tests** (run with
  ``pytest benchmarks/bench_superpose.py --benchmark-only``) timing the
  batched ON/OFF and renewal kernels on their own;
* **a CLI** (``PYTHONPATH=src python benchmarks/bench_superpose.py``, see
  :mod:`harness`) that times each kernel against the frozen per-source
  loops from :mod:`repro.kernels.reference`, re-verifies the
  bit-identity contracts, and records the ratios in
  ``BENCH_superpose.json``.  The loops are timed on a fixed-size
  subsample and scaled to the case's source count (they are per-source
  linear, so the scaled time is honest, and full-scale runs stay
  affordable); ``--check BASELINE`` fails when a contract breaks or a
  ratio regressed past 1.5x.

The ``full`` scale runs the batched ON/OFF kernel at 10^5 sources, where
it is more than 20x faster per source than the frozen loop.  The
``shared_pool`` case fans the kernel out over two workers against the
serial path: it must stay bit-identical and move only metadata across
the process boundary.
"""

import pickle

import numpy as np

import harness
from harness import Case
from repro.arrivals.onoff import OnOffSource
from repro.distributions.pareto import Pareto
from repro.kernels import (
    superpose_onoff,
    superpose_onoff_groups,
    superpose_renewal,
)
from repro.kernels.reference import multiplex_onoff_loop, superpose_renewal_loop

#: The phase-diagram working point: short heavy-tailed periods, so each
#: source cycles many times per horizon — the regime the batching exists
#: for.
SOURCE = OnOffSource.pareto(on_location=0.1, off_location=0.1)
GAP_DIST = Pareto(1.0, 1.2)
N_BINS = 100
BIN_WIDTH = 10.0
CHUNK = 4096
#: Sources the frozen loops are timed on (they are per-source linear, so
#: per-source time from a subsample extrapolates honestly).
LOOP_SAMPLE = 300
#: Ceiling on pickled metadata bytes per byte of the shared-pool partial
#: aggregates: 1.5x the 1.875e-4 that 8 chunk tasks of 20k bins move.
META_RATIO_MAX = 1.5 * 1.875e-4


# ----------------------------------------------------------------------
# pytest-benchmark micro-tests
# ----------------------------------------------------------------------
def test_onoff_batched_20k(benchmark):
    out = benchmark(
        superpose_onoff, 20_000, N_BINS, BIN_WIDTH,
        source=SOURCE, seed=0, chunk=CHUNK,
    )
    assert out.shape == (N_BINS,) and out.sum() > 0


def test_onoff_grouped_128x8(benchmark):
    out = benchmark(
        superpose_onoff_groups, 128, 8, 1, 16_384.0,
        source=SOURCE, seed=0, chunk=CHUNK,
    )
    assert out.shape == (128, 1) and (out > 0).all()


def test_renewal_batched_20k(benchmark):
    out = benchmark(
        superpose_renewal, 20_000, N_BINS, BIN_WIDTH,
        gap_dist=GAP_DIST, seed=0, chunk=CHUNK,
    )
    assert out.sum() > 0


# ----------------------------------------------------------------------
# CLI: batched kernels against the per-source loops (BENCH_superpose.json)
# ----------------------------------------------------------------------
def superpose_cases(scale):
    """The batched kernels against their frozen loops, and the
    shared-memory fan-out against the serial path."""
    full = scale == "full"
    n = 100_000 if full else 20_000

    # Identity on the subsample: same seed, chunk >= n -> same float tree.
    yield Case("onoff_pareto", n,
               lambda: superpose_onoff(n, N_BINS, BIN_WIDTH, source=SOURCE,
                                       seed=0, chunk=CHUNK),
               "reference.multiplex_onoff_loop",
               lambda: multiplex_onoff_loop(LOOP_SAMPLE, N_BINS, BIN_WIDTH,
                                            SOURCE, seed=0),
               ref_scale=n / LOOP_SAMPLE,
               identical=lambda loop, _: np.array_equal(
                   loop, superpose_onoff(LOOP_SAMPLE, N_BINS, BIN_WIDTH,
                                         source=SOURCE, seed=0,
                                         chunk=LOOP_SAMPLE)))

    # Grouped replication sweep against one call per replication, the
    # per-call path timed on 4 replications.
    reps, group = (128, 8) if full else (32, 8)
    yield Case("grouped_onoff", reps,
               lambda: superpose_onoff_groups(reps, group, 1, 16_384.0,
                                              source=SOURCE, seed=0,
                                              chunk=CHUNK),
               "superpose_onoff per replication",
               lambda: [
                   superpose_onoff(group, 1, 16_384.0, source=SOURCE,
                                   seed=seq, chunk=CHUNK)
                   for seq in np.random.SeedSequence(0).spawn(
                       reps * group)[::group][:4]
               ],
               ref_scale=reps / 4)

    yield Case("renewal_pareto", n,
               lambda: superpose_renewal(n, N_BINS, BIN_WIDTH,
                                         gap_dist=GAP_DIST, seed=0,
                                         chunk=CHUNK),
               "reference.superpose_renewal_loop",
               lambda: superpose_renewal_loop(LOOP_SAMPLE, N_BINS, BIN_WIDTH,
                                              GAP_DIST, seed=0),
               ref_scale=n / LOOP_SAMPLE,
               identical=lambda loop, _: np.array_equal(
                   loop, superpose_renewal(LOOP_SAMPLE, N_BINS, BIN_WIDTH,
                                           gap_dist=GAP_DIST, seed=0,
                                           chunk=CHUNK)))

    # Wide aggregate (20k bins -> 160 KB partial per chunk task): with
    # pickle-everything fan-out each task's partial would ride back
    # through the executor; here only the metadata dicts may.
    n_shared, shared_bins, shared_w, shared_chunk = 2_048, 20_000, 0.05, 256
    buffer_bytes = -(-n_shared // shared_chunk) * shared_bins * 8

    def shared(jobs, meta=None):
        return superpose_onoff(n_shared, shared_bins, shared_w,
                               source=SOURCE, seed=3, chunk=shared_chunk,
                               jobs=jobs, meta=meta)

    def fanned():
        meta: list = []
        out = shared(2, meta)
        meta_ratio = len(pickle.dumps(meta)) / buffer_bytes
        if meta_ratio > META_RATIO_MAX:
            raise AssertionError(f"shared pool pickled {meta_ratio:.3g} "
                                 f"bytes per partial-aggregate byte")
        return out

    yield Case("shared_pool", n_shared, fanned, "jobs=1",
               lambda: shared(1), identical=np.array_equal)

if __name__ == "__main__":
    harness.main(__file__, superpose_cases)
