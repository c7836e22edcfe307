"""Closed-loop policing detection: police at a known rate, recover it blind.

No 1994-era study could ask whether traffic *had been* policed — the
paper's traces predate widespread traffic conditioning.  This experiment
closes the loop the modern way: synthesize the paper's ftp workload,
push it through a token-bucket policer at a known rate, hand only the
surviving packet trace to :mod:`repro.shaping.detect`, and score how
well the enforcement rate is recovered across a rate x burst-depth
grid (an unpoliced control must come back clean).  The companion
battery measures what lossless shaping does to the Hurst signature:
fine-scale H is suppressed below the bucket's drain time, the
coarse-scale LRD slope — the paper's actual finding — is conserved.
"""

from __future__ import annotations

from repro.scenario import execute
from repro.utils.rng import SeedLike, int_seed


def run_config(cfg: dict, seed: SeedLike = 7,
               jobs: int = 1) -> "ShapingReport":  # noqa: F821
    """The shaping family runner: one resolved ``[shaping]`` section."""
    # Lazy: repro.shaping reaches repro.stream, whose driver imports this
    # registry back — a module-level import here would close the cycle.
    from repro.shaping.scenario import ShapingScenario, run_scenario

    scenario = ShapingScenario(
        model=cfg.get("model", "ftp"),
        n_packets=cfg.get("n_packets", 60_000),
        source_rate=cfg.get("source_rate", 240.0),
        rate_factors=tuple(cfg.get("rate_factors", (0.3, 0.5, 0.8))),
        burst_seconds=tuple(cfg.get("burst_seconds", (0.25, 1.0, 4.0))),
        shaper_rate_factors=tuple(
            cfg.get("shaper_rate_factors", (1.0, 1.5, 3.0))),
        hurst_bin_s=cfg.get("hurst_bin_s", 0.01),
        hurst_split_level=cfg.get("hurst_split_level", 8),
        seed=7 if seed is None else int_seed(seed),
    )
    return run_scenario(scenario)


def shaping(seed: SeedLike = 7) -> "ShapingReport":  # noqa: F821
    """Run the synthesize -> police -> detect loop plus the Hurst battery."""
    return execute("shaping", seed=seed)
