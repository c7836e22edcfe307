"""Always-on online estimation over live traffic (`repro.monitor`).

Promotes the batch sketch battery (`repro.stream.sketches`) to a
production monitor: sliding-window / decaying sketches with the same
exact-merge algebra, per-batch Hurst / Pareto-tail / Poisson estimates,
CUSUM and Page–Hinkley regime-shift alarms, and the Clegg et al.
LRD-vs-drift discrimination — so a diurnal ramp or a Markov-modulated
burst source is reported ``nonstationary``, never ``self-similar``.
"""

from .changepoint import CusumDetector, PageHinkleyDetector, RegimeShiftAlarm
from .estimators import (
    DriftReport,
    HurstEstimate,
    OnlineHurst,
    OnlinePoissonCheck,
    OnlineTail,
    TailEstimate,
    assess_drift,
    detrended_hurst,
)
from .scenarios import (
    diurnal_ramp_stream,
    hurst_step_stream,
    iter_batches,
    markov_onoff_stream,
    pareto_stream,
    poisson_stream,
)
from .service import MonitorConfig, MonitorReport, MonitorService, MonitorSnapshot
from .windows import (
    DecayedTopK,
    SlidingCountLadder,
    WindowedQuantileSketch,
)

__all__ = [
    "CusumDetector",
    "DecayedTopK",
    "DriftReport",
    "HurstEstimate",
    "MonitorConfig",
    "MonitorReport",
    "MonitorService",
    "MonitorSnapshot",
    "OnlineHurst",
    "OnlinePoissonCheck",
    "OnlineTail",
    "PageHinkleyDetector",
    "RegimeShiftAlarm",
    "SlidingCountLadder",
    "TailEstimate",
    "WindowedQuantileSketch",
    "assess_drift",
    "detrended_hurst",
    "diurnal_ramp_stream",
    "hurst_step_stream",
    "iter_batches",
    "markov_onoff_stream",
    "pareto_stream",
    "poisson_stream",
]
