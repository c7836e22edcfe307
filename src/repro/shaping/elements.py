"""Vectorized in-network traffic-conditioning elements over packet columns.

Two elements, both driven by the deficit-GCRA conformance rule of
:class:`repro.shaping.gcra.GcraCore` (the same pinned theoretical-arrival
-time math as the replay sender's rate cap):

* :class:`TokenBucketPolicer` — drops every non-conforming arrival
  (``max_wait = 0``), leaving the bucket state untouched on a drop;
  accepted packets pass through with their timestamps unchanged.
* :class:`LeakyBucketShaper` — delays non-conforming arrivals to their
  conformance time (emission-time rewrite) and conserves every byte;
  an optional ``max_delay`` bounds the queue (arrivals whose shaping
  delay would exceed it are dropped, like a finite shaper buffer).

The scan has two phases and picks between them from the run lengths it
meets in its own input.  Within a run of accepted packets the GCRA
backlog ``w_k = max(0, tat_k - t_k)`` obeys Lindley's recursion with
service times ``cost_k / rate``, so the **block phase** computes whole
accept runs with the closed-form :func:`repro.kernels.lindley_waits`
kernel, in blocks that start at 64 rows and double on every fully
accepted block: accept-heavy traffic is O(n) with O(n / block)
Python-level iterations.  A violation (``w_k > burst_s + max_wait``)
hands the scan to the **scalar phase**.  Where a policer drops, accept
runs shrink to a packet or two between drop runs, and a block of numpy
calls per run costs more than it saves.  The scalar phase walks the
rows one by one through memoryviews, with exactly
:meth:`GcraCore.offer`'s arithmetic, and skips each drop run (every
arrival before the conformance horizon ``tat - limit``) with one
``bisect_left``.  After 64 consecutive accepts it hands back to the
block phase.  On float64-exact inputs both phases are bit-identical to
the scalar :meth:`GcraCore.offer` loop (:func:`reference_condition`),
the equivalence the property tests pin.

Fluid (rate-function) forms of both elements close the loop with the
flow-level simulator, which represents a link's traffic as a piecewise
-linear cumulative byte curve rather than packets:
:func:`fluid_police_curve` clips that curve through a fluid token bucket
(returning the dropped byte total that feeds the TCP closure models via
``Topology.path_loss``), and :func:`shaped_curve_eval` evaluates the
leaky-bucket-shaped output exactly at arbitrary times via the min-plus
convolution ``OUT(t) = min(IN(t), min_{s<=t}(IN(s) - r s) + d + r t)``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from repro.kernels import lindley_waits
from repro.shaping.gcra import GcraCore
from repro.utils.validation import require_positive, require_sorted

__all__ = [
    "ConditioningResult",
    "LeakyBucketShaper",
    "TokenBucketPolicer",
    "condition_batches",
    "fluid_police_curve",
    "reference_condition",
    "shaped_curve_eval",
    "shaper_drain_end",
]

_MIN_BLOCK = 64
_MAX_BLOCK = 65536
# Consecutive accepts after which the scalar phase hands back to blocks.
_SCALAR_RUN = 64


# ----------------------------------------------------------------------
# Result container
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConditioningResult:
    """One element application over a packet column: the accept/drop
    partition plus the emission-time rewrite.

    ``accept`` and ``~accept`` partition the input rows exactly (every
    row lands in exactly one side — the property tests pin this);
    ``emission_times[k]`` is the conditioned timestamp of an accepted
    row (NaN for dropped rows).  A policer never delays, so its
    accepted emission times equal the arrival times bit-for-bit; a
    shaper only moves timestamps forward, monotonically.
    """

    element: object
    times: np.ndarray
    costs: np.ndarray
    accept: np.ndarray
    emission_times: np.ndarray
    final_tat: float

    @property
    def n(self) -> int:
        return int(self.times.size)

    @property
    def n_accepted(self) -> int:
        return int(np.count_nonzero(self.accept))

    @property
    def n_dropped(self) -> int:
        return self.n - self.n_accepted

    @property
    def accepted_times(self) -> np.ndarray:
        """Emission timestamps of the surviving packets (sorted)."""
        return self.emission_times[self.accept]

    @property
    def accepted_costs(self) -> np.ndarray:
        return self.costs[self.accept]

    @property
    def dropped_cost(self) -> float:
        return float(self.costs[~self.accept].sum())

    @property
    def total_cost(self) -> float:
        return float(self.costs.sum())

    @property
    def loss_fraction(self) -> float:
        """Cost-weighted drop fraction (byte loss for byte costs)."""
        total = self.total_cost
        return self.dropped_cost / total if total > 0 else 0.0

    @property
    def delays(self) -> np.ndarray:
        """Per-accepted-packet shaping delay (empty for a policer)."""
        return self.accepted_times - self.times[self.accept]

    @property
    def max_delay_s(self) -> float:
        d = self.delays
        return float(d.max()) if d.size else 0.0

    def payload(self) -> dict:
        return {
            "element": getattr(self.element, "kind", "element"),
            "rate": getattr(self.element, "rate", None),
            "depth": getattr(self.element, "depth", None),
            "n": self.n,
            "n_accepted": self.n_accepted,
            "n_dropped": self.n_dropped,
            "dropped_cost": self.dropped_cost,
            "loss_fraction": self.loss_fraction,
            "max_delay_s": self.max_delay_s,
        }


# ----------------------------------------------------------------------
# The two-phase deficit-GCRA scan
# ----------------------------------------------------------------------
def _scalar_phase(times, service, accept, waits, i, tat, limit_s):
    """Per-packet :meth:`GcraCore.offer` walk from row ``i`` (a
    violation), over memoryviews of the scan's columns.

    Each drop run is skipped with one ``bisect_left``; the walk stops
    after ``_SCALAR_RUN`` consecutive accepts or at the end of the
    column.  Returns ``(next_row, tat)``.
    """
    n = len(times)
    run = 0
    while i < n:
        t = times[i]
        w = tat - t
        if w > limit_s:
            # Drop run: every arrival strictly before the conformance
            # horizon ``tat - limit`` is non-conforming and leaves the
            # TAT untouched.
            j = bisect_left(times, tat - limit_s, i)
            i = max(j, i + 1)
            run = 0
            continue
        accept[i] = True
        if w > 0.0:
            waits[i] = w
            tat += service[i]
        else:
            tat = t + service[i]
        i += 1
        run += 1
        if run == _SCALAR_RUN:
            break
    return i, tat


def _gcra_scan(times, service, burst_s, limit_s, tat0=None):
    """Accept mask + pre-service backlog for a sorted arrival column.

    ``limit_s = burst_s + max_wait``: arrival ``k`` is accepted iff its
    backlog ``w_k <= limit_s``; a rejected arrival does not advance the
    TAT.  Returns ``(accept, waits, final_tat)``; ``waits`` holds the
    Lindley backlog of accepted rows (0 for dropped rows).  Accept runs
    go through Lindley blocks, violations through :func:`_scalar_phase`.
    """
    n = times.size
    accept = np.zeros(n, dtype=bool)
    waits = np.zeros(n)
    if n == 0:
        return accept, waits, tat0
    tat = float(times[0]) if tat0 is None else float(tat0)

    if not np.isfinite(limit_s):
        # Lossless shaper fast path: nothing can be dropped, so the whole
        # column is one accept run — a single closed-form Lindley call.
        w0 = tat - times[0]
        if w0 < 0.0:
            w0 = 0.0
        sv = np.concatenate([[w0], service])
        gaps = np.concatenate([[0.0], np.diff(times)])
        waits = lindley_waits(sv, gaps)[1:]
        accept[:] = True
        final = times[-1] + waits[-1] + service[-1]
        return accept, waits, float(final)

    views = tuple(memoryview(a) for a in (times, service, accept, waits))
    i = 0
    block = _MIN_BLOCK
    while i < n:
        if tat - times[i] > limit_s:
            i, tat = _scalar_phase(*views, i, float(tat), limit_s)
            block = _MIN_BLOCK
            continue
        end = min(i + block, n)
        run_t = times[i:end]
        w0 = tat - run_t[0]
        if w0 < 0.0:
            w0 = 0.0
        # Virtual zero-gap packet with service ``w0`` seeds the Lindley
        # recursion with the carried backlog.
        sv = np.concatenate([[w0], service[i:end]])
        gaps = np.concatenate([[0.0], np.diff(run_t)])
        w = lindley_waits(sv, gaps)[1:]
        viol = w > limit_s
        if viol.any():
            k = int(np.argmax(viol))  # first violation; k >= 1 by the
            # run-start conformance check above
            accept[i:i + k] = True
            waits[i:i + k] = w[:k]
            tat = run_t[k - 1] + w[k - 1] + service[i + k - 1]
            i += k
            block = _MIN_BLOCK
        else:
            accept[i:end] = True
            waits[i:end] = w
            tat = run_t[-1] + w[-1] + service[end - 1]
            i = end
            block = min(block * 2, _MAX_BLOCK)
    return accept, waits, float(tat)


def _as_costs(costs, n) -> np.ndarray:
    if costs is None:
        return np.ones(n)
    if np.isscalar(costs):
        c = np.full(n, float(costs))
    else:
        c = np.asarray(costs, dtype=float)
        if c.size != n:
            raise ValueError(f"need one cost per arrival ({n}), got {c.size}")
    if np.any(c < 0):
        raise ValueError("costs must be >= 0")
    return c


@dataclass(frozen=True)
class _GcraElement:
    """Shared machinery: a rate/depth pair applied through the scan."""

    rate: float  # units/second (bytes/s for byte costs)
    depth: float  # burst allowance, same units as costs

    def __post_init__(self):
        require_positive(self.rate, "rate")
        require_positive(self.depth, "depth")

    @property
    def burst_s(self) -> float:
        return self.depth / self.rate

    def _max_wait(self) -> float:
        raise NotImplementedError

    def core(self) -> GcraCore:
        """A fresh scalar GCRA with this element's parameters."""
        return GcraCore(self.rate, self.depth)

    def apply(self, times, costs=None, *, tat=None) -> ConditioningResult:
        """Condition a sorted arrival column; ``costs`` defaults to one
        unit per packet (pass sizes for byte-granular conditioning).

        ``tat`` carries bucket state across chunked calls: feeding a
        split column through with the previous chunk's ``final_tat``
        reproduces the unsplit scan exactly.
        """
        t = require_sorted(times, "times")
        c = _as_costs(costs, t.size)
        burst_s = self.depth / self.rate
        limit_s = burst_s + self._max_wait()
        accept, waits, final_tat = _gcra_scan(
            t, c / self.rate, burst_s, limit_s, tat
        )
        emission = np.full(t.size, np.nan)
        if t.size:
            emission[accept] = (t + np.maximum(waits - burst_s, 0.0))[accept]
        if final_tat is None:
            final_tat = float(t[0]) if t.size else 0.0
        return ConditioningResult(
            element=self, times=t, costs=c, accept=accept,
            emission_times=emission, final_tat=float(final_tat),
        )


@dataclass(frozen=True)
class TokenBucketPolicer(_GcraElement):
    """GCRA token-bucket policer: drop non-conforming packets, never
    delay conforming ones.  ``rate`` units/s sustained, ``depth`` units
    of burst tolerance; a drop leaves the bucket state untouched."""

    kind: str = field(default="policer", init=False, repr=False)

    def _max_wait(self) -> float:
        return 0.0


@dataclass(frozen=True)
class LeakyBucketShaper(_GcraElement):
    """Leaky-bucket shaper: rewrite each packet's emission time to its
    GCRA conformance time.  With ``max_delay=None`` (unbounded queue)
    the shaper is lossless and byte-conserving — only timestamps move,
    monotonically; a finite ``max_delay`` drops arrivals whose shaping
    delay would exceed the bound (a finite buffer)."""

    max_delay: float | None = None
    kind: str = field(default="shaper", init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        if self.max_delay is not None and self.max_delay < 0:
            raise ValueError(
                f"max_delay must be >= 0 or None, got {self.max_delay}"
            )

    def _max_wait(self) -> float:
        return math.inf if self.max_delay is None else float(self.max_delay)


# ----------------------------------------------------------------------
# Frozen scalar reference (the semantics the scan must reproduce)
# ----------------------------------------------------------------------
def reference_condition(element, times, costs=None) -> ConditioningResult:
    """Per-packet :meth:`GcraCore.offer` loop — the pinned reference the
    vectorized scan is tested against (bit-identical on float64-exact
    inputs, where Lindley's closed form incurs no reassociation error).
    """
    t = require_sorted(times, "times")
    c = _as_costs(costs, t.size)
    core = element.core()
    max_wait = element._max_wait()
    accept = np.zeros(t.size, dtype=bool)
    emission = np.full(t.size, np.nan)
    for k in range(t.size):
        ok, delay = core.offer(float(t[k]), float(c[k]), max_wait)
        accept[k] = ok
        if ok:
            emission[k] = t[k] + delay
    final = core.tat if core.tat is not None else (float(t[0]) if t.size else 0.0)
    return ConditioningResult(
        element=element, times=t, costs=c, accept=accept,
        emission_times=emission, final_tat=float(final),
    )


# ----------------------------------------------------------------------
# Streaming composition (replay in-path element)
# ----------------------------------------------------------------------
def condition_batches(batches, element):
    """Apply an element to a stream of time-sorted ``PacketBatch``es,
    carrying bucket state across batch boundaries (chunking-invariant:
    any batch split yields the same conditioned stream).

    Costs are the packet ``sizes`` (byte-granular conditioning).  A
    policer filters rows; a shaper rewrites ``timestamps`` in place of
    the originals.  Batches that lose every row are skipped.
    """
    from repro.stream.reader import PacketBatch

    tat = None
    for batch in batches:
        res = element.apply(
            batch.timestamps, costs=batch.sizes.astype(float), tat=tat
        )
        tat = res.final_tat
        mask = res.accept
        if not mask.any():
            continue
        if mask.all():
            timestamps = res.emission_times
            sel = slice(None)
        else:
            timestamps = res.emission_times[mask]
            sel = mask
        yield PacketBatch(
            timestamps=timestamps,
            protocols=batch.protocols[sel],
            connection_ids=batch.connection_ids[sel],
            directions=batch.directions[sel],
            sizes=batch.sizes[sel],
            user_data=batch.user_data[sel],
            protocols_s=(None if batch.protocols_s is None
                         else batch.protocols_s[sel]),
        )


# ----------------------------------------------------------------------
# Fluid forms (flow-level simulator integration)
# ----------------------------------------------------------------------
def _compress_curve(times, cum):
    """Deduplicate repeated breakpoint times (keep the last value)."""
    times = np.asarray(times, dtype=float)
    cum = np.asarray(cum, dtype=float)
    if times.size < 2:
        return times, cum
    keep = np.concatenate([times[1:] > times[:-1], [True]])
    return times[keep], cum[keep]


def fluid_police_curve(times, cum, rate, depth):
    """Fluid token-bucket policing of a piecewise-linear cumulative
    byte curve.

    ``times``/``cum`` are the breakpoints of the offered cumulative
    bytes (nondecreasing).  The bucket starts full (``depth`` bytes,
    refill ``rate`` bytes/s); while tokens remain the offered rate
    passes through, once they are exhausted the admitted rate is capped
    at ``rate`` and the excess is dropped.  Returns ``(out_times,
    out_cum, dropped_bytes)`` — the admitted curve's breakpoints
    (including mid-segment bucket-exhaustion crossings) and the total
    bytes dropped.
    """
    require_positive(rate, "rate")
    require_positive(depth, "depth")
    times, cum = _compress_curve(times, cum)
    if times.size == 0:
        return times, cum, 0.0
    out_t = [float(times[0])]
    out_c = [0.0]
    admitted = 0.0
    tokens = float(depth)
    dropped = 0.0
    for k in range(times.size - 1):
        dt = float(times[k + 1] - times[k])
        if dt <= 0.0:
            continue
        x = float(cum[k + 1] - cum[k]) / dt
        if x <= rate:
            admitted += x * dt
            tokens = min(depth, tokens + (rate - x) * dt)
            out_t.append(float(times[k + 1]))
            out_c.append(admitted)
            continue
        # Offered above the sustained rate: tokens drain at x - rate.
        tau = tokens / (x - rate)
        if tau >= dt:
            admitted += x * dt
            tokens -= (x - rate) * dt
            out_t.append(float(times[k + 1]))
            out_c.append(admitted)
            continue
        # Bucket empties mid-segment: passthrough until the crossing,
        # then clip to the token rate and drop the excess.
        if tau > 0.0:
            admitted += x * tau
            out_t.append(float(times[k]) + tau)
            out_c.append(admitted)
        tokens = 0.0
        admitted += rate * (dt - tau)
        dropped += (x - rate) * (dt - tau)
        out_t.append(float(times[k + 1]))
        out_c.append(admitted)
    return np.asarray(out_t), np.asarray(out_c), float(dropped)


def shaped_curve_eval(times, cum, rate, depth, at):
    """Evaluate the leaky-bucket-shaped output curve at times ``at``.

    The greedy (σ=depth, ρ=rate) shaper's output is the min-plus
    convolution ``OUT(t) = min(IN(t), min_{s<=t}(IN(s) - ρ s) + σ + ρ t)``
    — exact for piecewise-linear ``IN`` because each linear piece attains
    its minimum at a breakpoint.  Bytes are conserved: for ``t`` beyond
    the drain point (:func:`shaper_drain_end`) the output equals the
    offered total.
    """
    require_positive(rate, "rate")
    require_positive(depth, "depth")
    times, cum = _compress_curve(times, cum)
    at = np.asarray(at, dtype=float)
    if times.size == 0:
        return np.zeros(at.shape)
    envelope = np.minimum.accumulate(cum - rate * times)
    idx = np.searchsorted(times, at, side="right") - 1
    inside = idx >= 0
    in_at = np.interp(at, times, cum, left=float(cum[0]),
                      right=float(cum[-1]))
    out = np.zeros(at.shape)
    out[inside] = np.minimum(
        in_at[inside],
        envelope[idx[inside]] + depth + rate * at[inside],
    )
    return np.maximum(out, 0.0)


def shaper_drain_end(times, cum, rate, depth):
    """The time by which a (σ=depth, ρ=rate) shaper has emitted every
    offered byte (equals the last breakpoint when nothing is backlogged).
    """
    times, cum = _compress_curve(times, cum)
    if times.size == 0:
        return 0.0
    envelope = float(np.min(cum - rate * times))
    total = float(cum[-1])
    drain = (total - depth - envelope) / rate
    return max(float(times[-1]), drain)
