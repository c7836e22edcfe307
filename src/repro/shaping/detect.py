"""Trace-side policing inference: was this traffic rate-limited, and at
what rate?

A token-bucket policer leaves a distinctive fingerprint on the *output*
trace alone (no loss or sender-side information needed): whenever the
offered load exceeds the policed rate ``r``, the surviving traffic
drains tokens as fast as they refill, so the binned byte rate sits in a
narrow plateau at exactly ``r`` with a hard ceiling — the only traffic
above the plateau is the one-bucket credit spilled at each busy-period
start.  Unpoliced bursty traffic has neither feature: its bin-rate
distribution is spread (heavy-tailed, per the paper) with substantial
byte mass well above any interior mode.

The inference runs the same plateau fit at a ladder of time scales
(power-of-two aggregations of one fine byte histogram), because no
single bin width works: too fine and packet quantization shreds the
plateau (a bin must hold many packets at the candidate rate), too
coarse and every trace collapses toward its mean rate.  Per scale, the
candidate rate maximizing byte-weighted plateau share is scored on

* **plateau share** — bytes within ``±tol·r̂`` among "active" bins
  (``≥ r̂/2``; partial bins at busy-period edges carry no evidence);
* **coverage** — plateau bytes as a share of the whole trace (guards
  against locking onto bucket-spill spikes, which carry few bytes);
* **excess share** — bytes *above* ``(1+tol)·r̂`` in excess of the
  ceiling, as a share of the trace: near zero for policed traffic
  (spill is bounded by one bucket per busy period), large for
  unpoliced heavy-tailed traffic;
* **idle structure** — policing is only attributable when the trace
  has on/off structure (the clipped bursts); a trace that never goes
  idle (CBR, Poisson) is indistinguishable from a smooth source at the
  same rate, and scores zero here by design;
* **cross-scale corroboration** — a true policing plateau sits at the
  same rate at every resolvable scale, while bucket-spill artifacts
  drift as ``r + depth/W``; single-scale candidates are discounted.

A token-bucket fit at ``r̂`` (running excess ``B_k = max(0, B_{k-1} +
bytes_k - r̂·w)``) yields the implied burst-depth estimate reported
alongside the rate.

Exact under shard merge: the only trace-dependent state is one
:class:`~repro.stream.sketches.CountLadder` byte histogram plus a
packet counter, both of which merge bit-exactly in any order for
integer byte sizes; the verdict is a deterministic function of the
merged state, so any chunking of the input — batch sizes, shard
boundaries, merge order — produces an identical verdict (the property
the hypothesis tests pin).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from repro.stream.sketches import CountLadder
from repro.utils.validation import require_positive

__all__ = [
    "DetectorConfig",
    "PolicingDetector",
    "PolicingVerdict",
    "detect_times",
    "detect_trace",
]


@dataclass(frozen=True)
class DetectorConfig:
    """Detection knobs (picklable; ships to pool workers)."""

    #: Finest rate-sampling bin width, seconds; coarser scales are
    #: power-of-two aggregations of this histogram.
    bin_width: float = 0.25
    #: Window start (ladder origin); traces in this repo start at 0.
    start: float = 0.0
    #: Known horizon for a windowed ladder; None = open-ended.
    end: float | None = None
    #: Relative half-width of the plateau band around a candidate rate.
    rate_tolerance: float = 0.10
    #: A scale can only resolve candidate rates holding at least this
    #: many mean-sized packets per bin (packet-quantization floor).
    quantization_packets: float = 10.0
    #: Coarsest scale keeps at least this many bins.
    min_bins: int = 64
    #: Minimum nonzero bins at a scale for it to contribute evidence.
    min_busy_bins: int = 16
    #: Bins in the plateau band for full support (fewer → discounted).
    band_support: int = 24
    #: Active-byte share in band that counts as a full plateau.
    plateau_full: float = 0.8
    #: Trace-byte share in band that counts as full coverage.
    coverage_full: float = 0.5
    #: Excess-above-ceiling byte share at which confidence reaches 0.
    excess_cap: float = 0.08
    #: Idle-bin share (rate < r̂/10 inside the busy span) for full
    #: on/off-structure credit; 0 idle ⇒ CBR-ambiguous ⇒ confidence 0.
    idle_full: float = 0.05
    #: Cross-scale cluster half-width, in units of ``rate_tolerance``;
    #: candidates corroborated at a single scale only are discounted.
    cluster_width: float = 1.5
    single_scale_discount: float = 0.4
    #: Confidence at or above which the verdict is "policed".
    decision_threshold: float = 0.5

    def __post_init__(self):
        require_positive(self.bin_width, "bin_width")
        require_positive(self.rate_tolerance, "rate_tolerance")
        require_positive(self.quantization_packets, "quantization_packets")
        require_positive(self.plateau_full, "plateau_full")
        require_positive(self.coverage_full, "coverage_full")
        require_positive(self.excess_cap, "excess_cap")
        require_positive(self.idle_full, "idle_full")


@dataclass(frozen=True)
class PolicingVerdict:
    """One detection outcome (all fields derived from merged state)."""

    policed: bool
    rate: float  # inferred policed rate, bytes/s (NaN when not policed)
    confidence: float  # [0, 1]
    scale_s: float  # bin width of the best-supported scale
    n_scales: int  # scales corroborating the rate (within cluster width)
    plateau_share: float
    coverage: float
    excess_share: float
    idle_share: float
    burst_bytes: float  # implied token-bucket depth at the inferred rate
    total_bytes: float
    n_packets: int
    reason: str

    def payload(self) -> dict:
        """JSON-ready fields; the rate and scale a verdict without a
        plateau leaves undefined (NaN) are ``None``."""
        return {
            "policed": bool(self.policed),
            "rate_bps": None if math.isnan(self.rate) else float(self.rate),
            "confidence": float(self.confidence),
            "scale_s": (None if math.isnan(self.scale_s)
                        else float(self.scale_s)),
            "n_scales": int(self.n_scales),
            "plateau_share": float(self.plateau_share),
            "coverage": float(self.coverage),
            "excess_share": float(self.excess_share),
            "idle_share": float(self.idle_share),
            "burst_bytes": float(self.burst_bytes),
            "total_bytes": float(self.total_bytes),
            "n_packets": int(self.n_packets),
            "reason": self.reason,
        }

    def render(self) -> str:
        if not self.policed:
            return (f"no policing detected ({self.reason}; "
                    f"confidence {self.confidence:.2f})")
        return (f"policing detected: rate ≈ {self.rate:,.0f} B/s "
                f"(burst ≈ {self.burst_bytes:,.0f} B, confidence "
                f"{self.confidence:.2f}, plateau {self.plateau_share:.0%} "
                f"at {self.scale_s:g} s × {self.n_scales} scales)")


def _no_verdict(config: DetectorConfig, total: float, n_packets: int,
                reason: str) -> PolicingVerdict:
    return PolicingVerdict(
        policed=False, rate=float("nan"), confidence=0.0,
        scale_s=float("nan"), n_scales=0, plateau_share=0.0, coverage=0.0,
        excess_share=0.0, idle_share=0.0, burst_bytes=0.0,
        total_bytes=total, n_packets=n_packets, reason=reason,
    )


@dataclass(frozen=True)
class _ScaleEvidence:
    """Best plateau candidate at one time scale."""

    width: float
    rate: float
    plateau_share: float
    coverage: float
    excess_share: float
    idle_share: float
    band_bins: int
    confidence: float  # per-scale, before cross-scale corroboration


class PolicingDetector:
    """Mergeable single-pass accumulator + closed-form inference.

    ``update`` folds in packet columns; ``merge`` combines shard
    partials exactly (any order); ``infer`` computes the verdict from
    the merged byte histogram alone.
    """

    def __init__(self, config: DetectorConfig | None = None):
        self.config = config if config is not None else DetectorConfig()
        self.ladder = CountLadder(
            self.config.bin_width, start=self.config.start,
            end=self.config.end, weighted=True,
        )
        self.n_packets = 0

    # ------------------------------------------------------------------
    def update(self, times, sizes) -> None:
        """Fold in one batch of packet (timestamp, byte-size) columns."""
        times = np.asarray(times, dtype=float)
        self.ladder.update(times, np.asarray(sizes, dtype=float))
        self.n_packets += int(times.size)

    def merge(self, other: "PolicingDetector") -> None:
        if other.config != self.config:
            raise ValueError("cannot merge detectors with different configs")
        self.ladder.merge(other.ladder)
        self.n_packets += other.n_packets

    @property
    def nbytes(self) -> int:
        return self.ladder.nbytes

    # ------------------------------------------------------------------
    def _evidence_at(self, counts: np.ndarray, width: float,
                     mean_pkt: float) -> _ScaleEvidence | None:
        cfg = self.config
        tol = cfg.rate_tolerance
        total = float(counts.sum())
        rates = counts / width
        nonzero = np.flatnonzero(rates > 0)
        if nonzero.size < cfg.min_busy_bins or total <= 0:
            return None
        # Candidate rates: upper-half quantiles of the nonzero bin
        # rates, restricted to rates this scale can resolve (a bin must
        # hold >= quantization_packets mean packets at the candidate).
        cand = np.unique(
            np.quantile(rates[nonzero], np.linspace(0.5, 1.0, 51))
        )
        cand = cand[cand * width >= cfg.quantization_packets * mean_pkt]
        if cand.size == 0:
            return None
        active = rates[None, :] >= 0.5 * cand[:, None]
        band = np.abs(rates[None, :] - cand[:, None]) <= tol * cand[:, None]
        band_bytes = (band * counts[None, :]).sum(axis=1)
        active_bytes = (active * counts[None, :]).sum(axis=1)
        score = (band_bytes / active_bytes) * np.minimum(
            1.0, band_bytes / total / 0.25
        )
        r0 = float(cand[int(np.argmax(score))])
        # Refine to the byte-weighted band center, then re-measure.
        sel = np.abs(rates - r0) <= tol * r0
        r_hat = float(np.average(rates[sel], weights=counts[sel]))
        sel = np.abs(rates - r_hat) <= tol * r_hat
        act = rates >= 0.5 * r_hat
        plateau = float(counts[sel].sum() / counts[act].sum())
        coverage = float(counts[sel].sum() / total)
        over = rates > (1.0 + tol) * r_hat
        excess = float(
            ((rates[over] - (1.0 + tol) * r_hat) * width).sum() / total
        )
        busy_span = rates[nonzero[0]: nonzero[-1] + 1]
        idle = float(np.mean(busy_span < 0.1 * r_hat))
        confidence = (
            min(1.0, plateau / cfg.plateau_full)
            * min(1.0, coverage / cfg.coverage_full)
            * max(0.0, 1.0 - excess / cfg.excess_cap)
            * min(1.0, idle / cfg.idle_full)
            * min(1.0, int(sel.sum()) / cfg.band_support)
        )
        return _ScaleEvidence(width, r_hat, plateau, coverage, excess,
                              idle, int(sel.sum()), confidence)

    def infer(self) -> PolicingVerdict:
        """The verdict for everything accumulated so far."""
        cfg = self.config
        counts = self.ladder.finalize()
        total = float(counts.sum())
        if total <= 0 or self.n_packets == 0:
            return _no_verdict(cfg, total, self.n_packets, "empty trace")
        mean_pkt = total / self.n_packets
        evidence: list[_ScaleEvidence] = []
        k = 1
        while counts.size // k >= cfg.min_bins:
            folded = counts[: (counts.size // k) * k]
            ev = self._evidence_at(
                folded.reshape(-1, k).sum(axis=1), cfg.bin_width * k,
                mean_pkt,
            )
            if ev is not None:
                evidence.append(ev)
            k *= 2
        if not evidence:
            return _no_verdict(cfg, total, self.n_packets,
                               "insufficient traffic")
        # Cross-scale corroboration: a real plateau recurs at the same
        # rate across scales; bucket-spill artifacts drift with width.
        width = cfg.cluster_width * cfg.rate_tolerance
        best, best_score, best_n = evidence[0], -1.0, 1
        for ev in evidence:
            n = sum(1 for o in evidence
                    if abs(o.rate - ev.rate) <= width * ev.rate)
            score = ev.confidence * (
                1.0 if n >= 2 else cfg.single_scale_discount
            )
            if score > best_score:
                best, best_score, best_n = ev, score, n
        confidence = float(best_score)
        policed = confidence >= cfg.decision_threshold
        # Token-bucket fit at r̂ on the finest histogram: the running
        # excess over the token budget bounds the burst a policer must
        # have allowed.
        budget = best.rate * cfg.bin_width
        burst = level = 0.0
        for c in counts:  # O(bins): bounded by the window, not the trace
            level += float(c) - budget
            if level < 0.0:
                level = 0.0
            elif level > burst:
                burst = level
        if policed:
            reason = "rate plateau with hard ceiling"
        elif best.idle_share < cfg.idle_full and best.confidence == 0.0:
            reason = "no on/off structure (smooth traffic is CBR-ambiguous)"
        else:
            reason = "no dominant rate plateau"
        return PolicingVerdict(
            policed=policed,
            rate=best.rate if policed else float("nan"),
            confidence=confidence,
            scale_s=best.width,
            n_scales=best_n,
            plateau_share=best.plateau_share,
            coverage=best.coverage,
            excess_share=best.excess_share,
            idle_share=best.idle_share,
            burst_bytes=float(burst),
            total_bytes=total,
            n_packets=self.n_packets,
            reason=reason,
        )


# ----------------------------------------------------------------------
# One-shot helpers
# ----------------------------------------------------------------------
def detect_times(times, sizes,
                 config: DetectorConfig | None = None) -> PolicingVerdict:
    """Verdict for in-memory packet columns (single accumulator pass)."""
    det = PolicingDetector(config)
    det.update(times, sizes)
    return det.infer()


def _scan_chunk(chunk, kind, config, block_bytes):
    """Chunk worker (module-level: pickles to pool workers)."""
    from repro.stream.reader import iter_chunk_batches

    det = PolicingDetector(config)
    for batch in iter_chunk_batches(chunk, kind, block_bytes=block_bytes):
        det.update(batch.timestamps, batch.sizes.astype(float))
    return det


def detect_trace(
    path: str | os.PathLike,
    *,
    jobs: int = 1,
    config: DetectorConfig | None = None,
    target_chunk_bytes: int | None = None,
) -> PolicingVerdict:
    """Detect policing in an on-disk packet trace, out-of-core.

    Chunk planning and fan-out mirror :func:`repro.stream.scan_trace`;
    because the detector's merge is exact and order-invariant, the
    verdict is independent of ``jobs`` and chunking.
    """
    from repro.stream.chunks import DEFAULT_CHUNK_BYTES, plan_chunks
    from repro.stream.reader import DEFAULT_BLOCK_BYTES, sniff_kind
    from repro.utils.pool import pool_map

    path = os.fspath(path)
    kind = sniff_kind(path)
    if kind != "packet":
        raise ValueError(f"{path}: policing detection needs a packet trace, "
                         f"got {kind}")
    cfg = config if config is not None else DetectorConfig()
    chunks = plan_chunks(
        path,
        target_bytes=(DEFAULT_CHUNK_BYTES if target_chunk_bytes is None
                      else target_chunk_bytes),
    )
    outcomes = pool_map(
        _scan_chunk,
        [(c, kind, cfg, DEFAULT_BLOCK_BYTES) for c in chunks],
        jobs,
    )
    for chunk, outcome in zip(chunks, outcomes):
        if isinstance(outcome, Exception):
            raise RuntimeError(
                f"chunk {chunk.index} of {path} failed"
            ) from outcome
    merged = outcomes[0]
    for part in outcomes[1:]:
        merged.merge(part)
    return merged.infer()
