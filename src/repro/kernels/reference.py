"""Frozen pre-vectorization loop implementations.

These are the Python-loop versions of the hot paths as they existed before
the kernel PR, kept verbatim so that

* ``tests/test_kernels.py`` can assert the vectorized kernels reproduce
  them bit for bit (where the RNG-stream contract is unchanged), and
* ``benchmarks/bench_kernels.py`` can record honest before/after timings
  in ``BENCH_kernels.json``.

Do not "fix" or optimize anything here: the whole point is that this module
does not change when the production code does.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from repro.arrivals.poisson import homogeneous_poisson
from repro.core.ftp import BURST_SPACING_SECONDS, Burst
from repro.core.telnet import connection_packet_times
from repro.distributions import tcplib
from repro.selfsim.rs_analysis import rescaled_range
from repro.traces.io import (
    CONN_HEADER,
    PKT_HEADER,
    _name_from,
    format_connection_line,
    format_packet_line,
    open_trace,
)
from repro.traces.records import ConnectionRecord, Direction, PacketRecord
from repro.traces.trace import ConnectionTrace, PacketTrace
from repro.utils.rng import as_rng, spawn_rngs


# ----------------------------------------------------------------------
# queueing/simulator.py
# ----------------------------------------------------------------------
def lindley_waits_loop(service, gaps):
    """Per-packet Lindley recursion, exactly as ``fifo_queue`` ran it."""
    s = np.asarray(service, dtype=float)
    a = np.asarray(gaps, dtype=float)
    n = s.size
    w = np.empty(n)
    if n == 0:
        return w
    w[0] = 0.0
    for k in range(n - 1):
        w[k + 1] = max(0.0, w[k] + s[k] - a[k])
    return w


# ----------------------------------------------------------------------
# selfsim/farima.py
# ----------------------------------------------------------------------
def farima_autocovariance_loop(d, max_lag, sigma2=1.0):
    """The per-lag ratio recursion."""
    g0 = sigma2 * special.gamma(1.0 - 2.0 * d) / special.gamma(1.0 - d) ** 2
    out = np.empty(max_lag + 1)
    out[0] = g0
    for k in range(max_lag):
        out[k + 1] = out[k] * (k + d) / (k + 1.0 - d)
    return out


# ----------------------------------------------------------------------
# core/telnet.py
# ----------------------------------------------------------------------
def synthesize_packet_arrivals_loop(specs, scheme, seed=None, horizon=None):
    """Per-connection synthesis loop (shared-stream contract)."""
    rng = as_rng(seed)
    all_times, all_ids = [], []
    for cid, spec in enumerate(specs):
        t = connection_packet_times(spec, scheme, seed=rng)
        all_times.append(t)
        all_ids.append(np.full(t.size, cid, dtype=np.int64))
    if not all_times:
        return np.zeros(0), np.zeros(0, dtype=np.int64)
    times = np.concatenate(all_times)
    ids = np.concatenate(all_ids)
    if horizon is not None:
        keep = times < horizon
        times, ids = times[keep], ids[keep]
    order = np.argsort(times, kind="stable")
    return times[order], ids[order]


# ----------------------------------------------------------------------
# core/fulltel.py (originator side; pre-PR single shared stream)
# ----------------------------------------------------------------------
def fulltel_synthesize_loop(model, duration, seed=None):
    """Pre-PR FULL-TEL originator synthesis: one shared RNG stream threaded
    through every connection, one ``sample()`` call per connection.
    Returns ``(timestamps, connection_ids, sizes)`` unsorted (conn-major)."""
    rng = as_rng(seed)
    rate_per_sec = model.connections_per_hour / 3600.0
    starts = homogeneous_poisson(rate_per_sec, duration, seed=rng)
    sizes = model.sample_connection_sizes(starts.size, seed=rng)
    interarrival = tcplib.telnet_packet_interarrival()
    times_parts, id_parts, size_parts = [], [], []
    for cid, (t0, n_pkts) in enumerate(zip(starts, sizes)):
        gaps = interarrival.sample(int(n_pkts), seed=rng)
        t = t0 + np.cumsum(gaps)
        t = t[t < duration]
        if t.size == 0:
            continue
        times_parts.append(t)
        id_parts.append(np.full(t.size, cid, dtype=np.int64))
        pkt_bytes = np.round(
            tcplib.telnet_packet_bytes().sample(t.size, seed=rng)
        ).astype(np.int64)
        size_parts.append(np.maximum(pkt_bytes, 1))
    if not times_parts:
        return (np.zeros(0), np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64))
    return (np.concatenate(times_parts), np.concatenate(id_parts),
            np.concatenate(size_parts))


# ----------------------------------------------------------------------
# core/ftp.py
# ----------------------------------------------------------------------
def coalesce_bursts_loop(starts, durations, data_bytes,
                         spacing=BURST_SPACING_SECONDS, session_id=0):
    """Per-connection gap scan building bursts one at a time."""
    s = np.asarray(starts, dtype=float)
    d = np.asarray(durations, dtype=float)
    b = np.asarray(data_bytes, dtype=np.int64)
    if s.size == 0:
        return []
    order = np.argsort(s, kind="stable")
    s, d, b = s[order], d[order], b[order]
    ends = s + d

    def make(first, stop):
        return Burst(
            session_id=session_id,
            start_time=float(s[first]),
            end_time=float(ends[first:stop].max()),
            n_connections=stop - first,
            total_bytes=int(b[first:stop].sum()),
        )

    bursts = []
    first = 0
    for i in range(1, s.size):
        if s[i] - ends[i - 1] > spacing:
            bursts.append(make(first, i))
            first = i
    bursts.append(make(first, s.size))
    return bursts


def ftp_synthesize_loop(model, duration, seed=None, first_session_id=0,
                        session_starts=None):
    """Pre-PR FTP session synthesis: one shared stream, ``sample(1)`` per
    burst quantity and a scalar ``rng.exponential()`` per connection."""
    from repro.distributions.lognormal import Log2Normal
    from repro.distributions.pareto import Pareto

    rng = as_rng(seed)
    if session_starts is None:
        session_starts = homogeneous_poisson(
            model.sessions_per_hour / 3600.0, duration, seed=rng
        )
    gap_dist = Log2Normal(model.inter_burst_gap_log2_mean,
                          model.inter_burst_gap_log2_sd)
    conn_count = Pareto(1.0, model.conns_per_burst_shape)
    burst_bytes = Pareto(model.burst_bytes_location, model.burst_bytes_shape)

    records = []
    for k, t0 in enumerate(np.asarray(session_starts, dtype=float)):
        sid = first_session_id + k
        orig = int(rng.integers(0, 500))
        resp = int(rng.integers(500, 1000))
        n_bursts = 1 + rng.geometric(1.0 / model.mean_bursts_per_session)
        t = t0
        session_end = t0
        for _ in range(n_bursts):
            n_conns = min(
                int(np.floor(float(conn_count.sample(1, seed=rng)[0]))),
                model.max_conns_per_burst,
            )
            total = float(burst_bytes.sample(1, seed=rng)[0])
            weights = rng.lognormal(0.0, 1.0, size=n_conns)
            shares = np.maximum(
                (total * weights / weights.sum()).astype(np.int64), 1
            )
            for share in shares:
                dur = model.setup_overhead + float(share) / model.transfer_rate
                records.append(
                    ConnectionRecord(
                        start_time=float(t),
                        duration=dur,
                        protocol="FTPDATA",
                        bytes_orig=0,
                        bytes_resp=int(share),
                        orig_host=orig,
                        resp_host=resp,
                        session_id=sid,
                    )
                )
                t = float(t) + dur + float(rng.exponential(model.intra_burst_gap_mean))
            session_end = t
            t += float(gap_dist.sample(1, seed=rng)[0]) + BURST_SPACING_SECONDS
        records.append(
            ConnectionRecord(
                start_time=t0,
                duration=max(session_end - t0, 1.0),
                protocol="FTP",
                bytes_orig=int(rng.integers(200, 2000)),
                bytes_resp=int(rng.integers(500, 5000)),
                orig_host=orig,
                resp_host=resp,
                session_id=sid,
            )
        )
    return records


# ----------------------------------------------------------------------
# selfsim/rs_analysis.py
# ----------------------------------------------------------------------
def rs_means_loop(series, sizes, max_samples_per_size=50, seed=None):
    """Pre-PR inner loops of ``rs_analysis``: per-block R/S, averaged per
    size.  Returns ``(kept_sizes, means)``."""
    x = np.asarray(series, dtype=float)
    n = x.size
    rng = as_rng(seed)
    means, kept_sizes = [], []
    for size in sizes:
        n_blocks = n // size
        if n_blocks < 1:
            continue
        starts = np.arange(n_blocks) * size
        if starts.size > max_samples_per_size:
            starts = rng.choice(starts, size=max_samples_per_size,
                                replace=False)
        values = []
        for s in starts:
            block = x[s: s + size]
            if block.std() == 0.0:
                continue
            values.append(rescaled_range(block))
        if values:
            means.append(float(np.mean(values)))
            kept_sizes.append(int(size))
    return kept_sizes, means


# ----------------------------------------------------------------------
# arrivals/cluster.py
# ----------------------------------------------------------------------
def compound_poisson_cluster_loop(session_rate, duration, cluster_size_dist,
                                  within_gap_dist, seed=None):
    """Pre-PR per-trigger loop (interleaved size/gap draws)."""
    rng = as_rng(seed)
    triggers = homogeneous_poisson(session_rate, duration, seed=rng)
    if triggers.size == 0:
        return triggers
    times = []
    for t in triggers:
        n = max(1, int(np.ceil(float(cluster_size_dist.sample(1, seed=rng)[0]))))
        gaps = within_gap_dist.sample(n - 1, seed=rng) if n > 1 else np.zeros(0)
        offsets = np.concatenate([[0.0], np.cumsum(gaps)])
        times.append(t + offsets)
    all_times = np.sort(np.concatenate(times))
    return all_times[all_times < duration]


# ----------------------------------------------------------------------
# arrivals/onoff.py
# ----------------------------------------------------------------------
def onoff_intervals_loop(source, duration, seed=None, start_on=None):
    """Pre-PR ON/OFF interval loop: one ``sample(1)`` call per period."""
    rng = as_rng(seed)
    on = bool(rng.random() < 0.5) if start_on is None else start_on
    t = 0.0
    out = []
    while t < duration:
        length = float(
            (source.on_dist if on else source.off_dist).sample(1, seed=rng)[0]
        )
        if on:
            out.append((t, min(t + length, duration)))
        t += length
        on = not on
    return out


def multiplex_onoff_loop(n_sources, n_bins, bin_width, source, seed=None):
    """Pre-superpose-kernel aggregation: one ``source.counts`` call per
    spawned child stream, accumulated left to right.

    Frozen as of the superpose PR, i.e. *with* the first-bin clamp
    (``min(int(start / bin_width), n_bins - 1)``) that guards against a
    float quotient rounding up to ``n_bins`` for a start just inside the
    horizon — the batched kernel freezes the fixed convention.
    """
    total = np.zeros(n_bins, dtype=float)
    for rng in spawn_rngs(seed, n_sources):
        duration = n_bins * bin_width
        work = np.zeros(n_bins, dtype=float)
        for start, end in source.intervals(duration, seed=rng):
            first = min(int(start / bin_width), n_bins - 1)
            last = min(int(end / bin_width), n_bins - 1)
            if first == last:
                work[first] += end - start
                continue
            work[first] += (first + 1) * bin_width - start
            work[first + 1:last] += bin_width
            work[last] += end - last * bin_width
        total += work * source.rate
    return total


def superpose_renewal_loop(n_sources, n_bins, bin_width, gap_dist, seed=None,
                           gap_block=256):
    """Per-source Pareto-renewal superposition: the
    ``arrivals.pareto_renewal`` streaming protocol (blocked gap draws, one
    cumsum per block, bincount of in-window arrivals) applied source by
    source.  Counts are integers, so the sum is exact and order-free; only
    the per-stream draw protocol (``gap_block`` gaps per round) must match
    the batched kernel's.
    """
    horizon = n_bins * bin_width
    counts = np.zeros(n_bins, dtype=np.int64)
    for rng in spawn_rngs(seed, n_sources):
        t = 0.0
        while t < horizon:
            gaps = gap_dist.sample(gap_block, seed=rng)
            cum = t + np.cumsum(gaps)
            t = float(cum[-1])
            in_window = cum[cum < horizon]
            if in_window.size:
                idx = (in_window / bin_width).astype(np.int64)
                np.minimum(idx, n_bins - 1, out=idx)
                counts += np.bincount(idx, minlength=n_bins)
    return counts


# ----------------------------------------------------------------------
# traces/io.py
# ----------------------------------------------------------------------
def write_connection_trace_loop(trace, path):
    """Pre-columnar writer: one ``trace.record(i)`` + format call per row."""
    with open_trace(path, "wt") as fh:
        fh.write(CONN_HEADER + "\n")
        for i in range(len(trace)):
            fh.write(format_connection_line(trace.record(i)) + "\n")


def _expect_header(fh, expected, path):
    header = fh.readline().rstrip("\n")
    if header != expected:
        raise ValueError(
            f"{path}: bad header {header!r}; expected {expected!r}"
        )


def read_connection_trace_loop(path, name=None):
    """Pre-columnar reader: one ``ConnectionRecord`` per line."""
    with open_trace(path, "rt") as fh:
        _expect_header(fh, CONN_HEADER, path)
        records = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 8:
                raise ValueError(
                    f"{path}:{lineno}: expected 8 fields, got {len(parts)}"
                )
            sid = int(parts[7])
            records.append(
                ConnectionRecord(
                    start_time=float(parts[0]),
                    duration=float(parts[1]),
                    protocol=parts[2],
                    bytes_orig=int(parts[3]),
                    bytes_resp=int(parts[4]),
                    orig_host=int(parts[5]),
                    resp_host=int(parts[6]),
                    session_id=None if sid < 0 else sid,
                )
            )
    return ConnectionTrace(name or _name_from(path), records)


def write_packet_trace_loop(trace, path):
    """Pre-columnar writer: one ``trace.record(i)`` + format call per row."""
    with open_trace(path, "wt") as fh:
        fh.write(PKT_HEADER + "\n")
        for i in range(len(trace)):
            fh.write(format_packet_line(trace.record(i)) + "\n")


def read_packet_trace_loop(path, name=None):
    """Pre-columnar reader: one ``PacketRecord`` per line."""
    with open_trace(path, "rt") as fh:
        _expect_header(fh, PKT_HEADER, path)
        packets = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 6:
                raise ValueError(
                    f"{path}:{lineno}: expected 6 fields, got {len(parts)}"
                )
            packets.append(
                PacketRecord(
                    timestamp=float(parts[0]),
                    protocol=parts[1],
                    connection_id=int(parts[2]),
                    direction=Direction(int(parts[3])),
                    size=int(parts[4]),
                    user_data=bool(int(parts[5])),
                )
            )
    return PacketTrace(name or _name_from(path), packets)
