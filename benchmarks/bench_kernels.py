"""Micro-benchmarks of the library's hot kernels.

Two faces:

* **pytest-benchmark micro-tests** (run with
  ``pytest benchmarks/bench_kernels.py --benchmark-only``) giving timing
  statistics for the primitives the experiments lean on;
* **a CLI** (``PYTHONPATH=src python benchmarks/bench_kernels.py``, see
  :mod:`harness`) that times every vectorized kernel against its frozen
  pre-vectorization loop from :mod:`repro.kernels.reference`, re-verifies
  the equivalence contract of each, and records ``vectorized/loop``
  ratios in ``BENCH_kernels.json``; ``--check BASELINE`` fails when a
  contract breaks or a ratio regressed past 1.5x.
"""

import numpy as np

import harness
from harness import Case
from repro.arrivals import homogeneous_poisson
from repro.arrivals.cluster import compound_poisson_cluster
from repro.arrivals.onoff import OnOffSource
from repro.core import coalesce_bursts
from repro.core.ftp import FtpSessionModel
from repro.core.fulltel import FullTelModel
from repro.core.telnet import ConnectionSpec, Scheme, synthesize_packet_arrivals
from repro.distributions import tcplib
from repro.distributions.exponential import Exponential
from repro.distributions.pareto import Pareto
from repro.kernels import lindley_waits
from repro.kernels import reference as ref
from repro.selfsim import (
    CountProcess,
    farima_autocovariance,
    fgn_sample,
    variance_time_curve,
    whittle_estimate,
)
from repro.selfsim.rs_analysis import rs_analysis
from repro.stats import anderson_darling_exponential
from repro.utils import bin_counts

# ----------------------------------------------------------------------
# pytest-benchmark micro-tests
# ----------------------------------------------------------------------


def test_kernel_fgn_synthesis(benchmark):
    result = benchmark(fgn_sample, 16384, 0.8, seed=1)
    assert result.size == 16384


def test_kernel_variance_time(benchmark):
    rng = np.random.default_rng(2)
    cp = CountProcess(rng.poisson(10, 50000).astype(float), 0.1)
    curve = benchmark(variance_time_curve, cp)
    assert curve.levels.size > 5


def test_kernel_anderson_darling(benchmark):
    rng = np.random.default_rng(3)
    x = rng.exponential(1.0, 5000)
    result = benchmark(anderson_darling_exponential, x)
    assert result.n == 5000


def test_kernel_whittle(benchmark):
    x = fgn_sample(8192, 0.75, seed=4)
    result = benchmark(whittle_estimate, x)
    assert 0.6 < result.hurst < 0.9


def test_kernel_tcplib_sampling(benchmark):
    dist = tcplib.telnet_packet_interarrival()
    s = benchmark(dist.sample, 100000, seed=5)
    assert s.size == 100000


def test_kernel_binning(benchmark):
    times = homogeneous_poisson(100.0, 10000.0, seed=6)
    counts = benchmark(bin_counts, times, 0.1, 0.0, 10000.0)
    assert counts.sum() == times.size


def test_kernel_burst_coalescing(benchmark):
    rng = np.random.default_rng(7)
    starts = np.sort(rng.uniform(0, 10000, 5000))
    durs = rng.exponential(2.0, 5000)
    sizes = rng.integers(1, 10**6, 5000)
    bursts = benchmark(coalesce_bursts, starts, durs, sizes)
    assert sum(b.n_connections for b in bursts) == 5000


def _lindley_inputs(n, seed=8):
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 12, n).astype(float)
    a = rng.integers(0, 14, n - 1).astype(float)
    return s, a


def test_kernel_lindley_loop(benchmark):
    s, a = _lindley_inputs(200_000)
    w = benchmark(ref.lindley_waits_loop, s, a)
    assert w.size == s.size


def test_kernel_lindley_vectorized(benchmark):
    s, a = _lindley_inputs(200_000)
    w = benchmark(lindley_waits, s, a)
    assert np.array_equal(w, ref.lindley_waits_loop(s, a))


def test_kernel_telnet_batched(benchmark):
    specs = [ConnectionSpec(float(i), 40) for i in range(500)]
    times, ids = benchmark(
        synthesize_packet_arrivals, specs, Scheme.TCPLIB, seed=9
    )
    assert times.size == 500 * 40


# ----------------------------------------------------------------------
# CLI: vectorized kernels against their frozen loops (BENCH_kernels.json)
# ----------------------------------------------------------------------
class _Const:
    """Order-free deterministic distribution: consumes the stream like a
    real one but ignores draw order, isolating assembly equivalence for
    kernels whose RNG-stream contract changed."""

    def __init__(self, v):
        self.v = v

    def sample(self, n, seed=None):
        if seed is not None and hasattr(seed, "random"):
            seed.random(n)
        return np.full(n, self.v)


def _traces_equal(a, b):
    return (np.array_equal(a.timestamps, b.timestamps)
            and np.array_equal(a.connection_ids, b.connection_ids)
            and np.array_equal(a.sizes, b.sizes))


def kernel_cases(scale):
    """Each vectorized kernel against its frozen loop, with the
    equivalence contract it keeps."""
    full = scale == "full"

    # bit-identical (integer-valued draws)
    n = 5_000_000 if full else 200_000
    s, a = _lindley_inputs(n)
    yield Case("lindley_fifo", n, lambda: lindley_waits(s, a),
               "reference.lindley_waits_loop",
               lambda: ref.lindley_waits_loop(s, a),
               identical=np.array_equal)

    # allclose vs historical division order; bit-identical to the
    # ratio-ordered recursion
    lag = 200_000 if full else 20_000
    yield Case("farima_autocovariance", lag,
               lambda: farima_autocovariance(0.3, lag),
               "reference.farima_autocovariance_loop",
               lambda: ref.farima_autocovariance_loop(0.3, lag),
               identical=lambda loop, vec: np.allclose(loop, vec,
                                                       rtol=1e-12))

    # bit-identical (shared-stream contract unchanged)
    n_conns = 3000 if full else 300
    specs = [ConnectionSpec(float(i) * 0.5, 40) for i in range(n_conns)]
    yield Case("telnet_synthesize", n_conns * 40,
               lambda: synthesize_packet_arrivals(specs, Scheme.TCPLIB,
                                                  seed=5),
               "reference.synthesize_packet_arrivals_loop",
               lambda: ref.synthesize_packet_arrivals_loop(
                   specs, Scheme.TCPLIB, 5),
               identical=lambda loop, vec: (np.array_equal(loop[0], vec[0])
                                            and np.array_equal(loop[1],
                                                               vec[1])))

    # batch == per-connection loop on identical child streams (the older
    # shared-stream loop is the timed reference)
    ft_dur = 4 * 3600.0 if full else 1800.0
    ft = FullTelModel(connections_per_hour=400.0)
    ft_packets = ft.synthesize(ft_dur, seed=3).timestamps.size
    yield Case("fulltel_synthesize", ft_packets,
               lambda: ft.synthesize(ft_dur, seed=3, batch=True),
               "reference.fulltel_synthesize_loop",
               lambda: ref.fulltel_synthesize_loop(ft, ft_dur, 3),
               identical=lambda loop, vec: _traces_equal(
                   vec, ft.synthesize(ft_dur, seed=3, batch=False)))

    # batch == per-session loop on identical child streams (the older
    # shared-stream loop is the timed reference)
    ftp_dur = 24 * 3600.0 if full else 2 * 3600.0
    fm = FtpSessionModel(sessions_per_hour=150.0)
    ftp_records = len(fm.synthesize(ftp_dur, seed=4))
    yield Case("ftp_synthesize", ftp_records,
               lambda: fm.synthesize(ftp_dur, seed=4, batch=True),
               "reference.ftp_synthesize_loop",
               lambda: ref.ftp_synthesize_loop(fm, ftp_dur, 4),
               identical=lambda loop, vec: vec == fm.synthesize(
                   ftp_dur, seed=4, batch=False))

    # bit-identical burst boundaries
    n = 2_000_000 if full else 100_000
    rng = np.random.default_rng(11)
    cb_s = np.cumsum(rng.exponential(2.0, n))
    cb_d = rng.exponential(3.0, n)
    cb_b = rng.integers(1, 10**6, n)
    yield Case("coalesce_bursts", n,
               lambda: coalesce_bursts(cb_s, cb_d, cb_b),
               "reference.coalesce_bursts_loop",
               lambda: ref.coalesce_bursts_loop(cb_s, cb_d, cb_b),
               identical=lambda loop, vec: loop == vec)

    # bit-identical per-size R/S means
    n = 2**20 if full else 2**16
    series = np.diff(np.random.default_rng(12).normal(size=n + 1).cumsum())
    rs_sizes = np.unique(
        np.round(np.geomspace(8, series.size // 4, 12)).astype(int)
    )
    yield Case("rs_analysis", n, lambda: rs_analysis(series, seed=0),
               "reference.rs_means_loop",
               lambda: ref.rs_means_loop(series, rs_sizes, 50, 0),
               identical=lambda loop, vec: (
                   np.array_equal(vec.block_sizes, loop[0])
                   and np.array_equal(vec.rs_values, loop[1])))

    # assembly bit-identical, checked with order-free draws: the batched
    # draw order changes real-distribution streams
    dur = 50_000.0 if full else 5_000.0
    size_d, gap_d = Pareto(1.0, 1.5), Exponential(0.1)
    yield Case("cluster_arrivals", int(dur),
               lambda: compound_poisson_cluster(2.0, dur, size_d, gap_d,
                                                seed=6),
               "reference.compound_poisson_cluster_loop",
               lambda: ref.compound_poisson_cluster_loop(2.0, dur, size_d,
                                                         gap_d, 6),
               identical=lambda loop, vec: np.array_equal(
                   compound_poisson_cluster(0.5, 500.0, _Const(3.4),
                                            _Const(0.2), seed=1),
                   ref.compound_poisson_cluster_loop(
                       0.5, 500.0, _Const(3.4), _Const(0.2), 1)))

    # assembly bit-identical, checked with order-free draws: the blocked
    # draw order changes real-distribution streams
    dur = 200_000.0 if full else 20_000.0
    src = OnOffSource.pareto()
    cs = OnOffSource(_Const(2.0), _Const(3.0))
    yield Case("onoff_intervals", int(dur),
               lambda: src.intervals(dur, seed=7, start_on=True),
               "reference.onoff_intervals_loop",
               lambda: ref.onoff_intervals_loop(src, dur, 7, True),
               identical=lambda loop, vec: (
                   cs.intervals(1000.0, seed=1, start_on=True)
                   == ref.onoff_intervals_loop(cs, 1000.0, 1, True)))


if __name__ == "__main__":
    harness.main(__file__, kernel_cases)
