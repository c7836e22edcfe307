"""Tests for the shared scenario pipeline, shard algebra, and spec cache."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.engine import ResultCache, content_digest, source_digest
from repro.experiments import REGISTRY
from repro.scenario import (
    dump_spec,
    execute,
    resolve_section,
    run_spec,
    run_spec_cached,
    sharded_summary,
)
from repro.scenario.shard import shard_bounds

#: Small-but-viable synth doc: enough events for every battery check,
#: fast enough for the tier-1 suite.
SYNTH_DOC = {
    "scenario": {"name": "synth-test", "kind": "synth", "seed": 3},
    "source": {"model": "poisson", "n_packets": 6000},
    "validate": {"bin_width": 0.05, "min_level": 5},
}

#: A small config per dedicated kind that still runs every stage (the
#: monitor's hurst-step stream needs a 60 s window for an online H).
SMALL_CONFIGS = {
    "flowsim": {"duration": 600.0, "n_nodes": 4, "sessions_per_hour": 900.0},
    "monitor": {"duration": 60.0, "window": 60.0},
    "shaping": {"n_packets": 4000, "rate_factors": [0.5],
                "burst_seconds": [0.5], "shaper_rate_factors": [1.5]},
    "superpose": {"replications": 8, "battery_sources": 256},
    "synth": {"source": {"model": "poisson", "n_packets": 3000},
              "validate": {"bin_width": 0.05, "min_level": 4}},
}

#: The keys every ``repro scenario run --json`` payload starts with.
HEADER_KEYS = {"scenario", "kind", "seed", "spec_digest", "compute_time_s"}


def _reject_constant(name):
    """Strict JSON: ``NaN``/``Infinity`` tokens are not JSON."""
    raise ValueError(f"payload holds the non-JSON constant {name}")


class TestShardBounds:
    def test_partitions_exactly(self):
        for n in (0, 1, 7, 100):
            for shards in (1, 2, 3, 8):
                bounds = shard_bounds(n, shards)
                covered = [i for lo, hi in bounds for i in range(lo, hi)]
                assert covered == list(range(n))

    def test_balanced(self):
        sizes = [hi - lo for lo, hi in shard_bounds(10, 3)]
        assert max(sizes) - min(sizes) <= 1


class TestShardedSummary:
    def test_matches_serial_bitwise(self):
        rng = np.random.default_rng(0)
        times = np.sort(rng.exponential(0.01, 5000).cumsum())
        sizes = rng.integers(40, 1500, times.size).astype(float)
        serial = sharded_summary(times, sizes, jobs=1)
        for jobs in (2, 3, 5):
            sharded = sharded_summary(times, sizes, jobs=jobs)
            assert sharded.n == serial.n
            assert (sharded.counts.finalize() ==
                    serial.counts.finalize()).all()
            f = serial.best_tail_fraction(0.03, "gap")
            assert (sharded.interarrival_tail_beta(f) ==
                    serial.interarrival_tail_beta(f))


class TestSpecVsRegistryIdentity:
    """The two front doors — spec documents and registry calls — share one
    resolver and one runner, so their outputs are byte-identical."""

    def test_flowsim(self):
        doc = {"scenario": {"name": "f", "kind": "flowsim", "seed": 0},
               "flowsim": {"duration": 1200.0, "n_nodes": 4,
                           "sessions_per_hour": 900.0}}
        out = run_spec(doc)
        direct = REGISTRY["flowsim"](seed=0, duration=1200.0, n_nodes=4,
                                     sessions_per_hour=900.0)
        assert out.rendered == direct.render()

    def test_shaping(self):
        cfg = {"n_packets": 4000, "rate_factors": [0.5],
               "burst_seconds": [0.5], "shaper_rate_factors": [1.5]}
        doc = {"scenario": {"name": "s", "kind": "shaping", "seed": 0},
               "shaping": cfg}
        out = run_spec(doc)
        assert out.rendered == execute("shaping", cfg, seed=0).render()

    def test_experiment_kind(self):
        doc = {"scenario": {"name": "e", "kind": "experiment", "seed": 1},
               "experiment": {"name": "fig03"}}
        out = run_spec(doc)
        assert out.rendered == REGISTRY["fig03"](seed=1).render()
        assert out.kind == "experiment"

    def test_experiment_kind_with_params(self):
        doc = {"scenario": {"name": "e", "kind": "experiment", "seed": 2},
               "experiment": {"name": "weathermap",
                              "params": {"hours": 24}}}
        out = run_spec(doc)
        assert out.rendered == REGISTRY["weathermap"](seed=2,
                                                      hours=24).render()


class TestGeneratorSeeds:
    """``execute`` takes any ``SeedLike``: ``repro run --spawn-seeds``
    hands every registry entry a Generator."""

    @pytest.mark.parametrize("kind", sorted(SMALL_CONFIGS))
    def test_equal_generators_render_equal(self, kind):
        a = execute(kind, SMALL_CONFIGS[kind], seed=np.random.default_rng(1))
        b = execute(kind, SMALL_CONFIGS[kind], seed=np.random.default_rng(1))
        assert a.render() == b.render()

    def test_flowsim_control_keeps_ftp_flow_count(self):
        """Both workloads replay one integer seed drawn from the stream,
        so the exponential control still matches the ftp flows."""
        out = execute("flowsim", SMALL_CONFIGS["flowsim"],
                      seed=np.random.default_rng(1))
        assert out.control.result.n_flows == out.ftp.result.n_flows


class TestShortFlowsimRun:
    def test_renders_without_measured_links(self):
        """600 one-second bins are too few for a per-link H: the table
        shows ``-`` and neither verdict property holds."""
        doc = {"scenario": {"name": "f", "kind": "flowsim", "seed": 0},
               "flowsim": {"duration": 600.0, "n_nodes": 4,
                           "sessions_per_hour": 900.0}}
        out = run_spec(doc)
        result = out.result
        assert not result.ftp.link_hurst and not result.control.link_hurst
        assert result.heavy_tail_elevated is False
        assert result.control_near_half is False
        for row in result.rows():
            assert row["n_links_measured"] == 0
            assert row["hurst_mean"] == row["hurst_min"] == "-"
            assert row["hurst_max"] == "-"
        assert "hurst_mean" in out.rendered


class TestShortMonitorWindow:
    def test_no_hurst_reading_is_a_typed_error(self):
        """A window too short for any online H on the step stream names
        ``monitor.window`` instead of leaking a bare StopIteration."""
        with pytest.raises(ValueError,
                           match=r"monitor\.window = 30 s .*hurst-step"):
            execute("monitor", {"duration": 200.0, "rate": 20.0,
                                "window": 30.0}, seed=1)


class TestSynthSharding:
    def test_jobs_do_not_change_anything(self):
        serial = run_spec(SYNTH_DOC, jobs=1)
        sharded = run_spec(SYNTH_DOC, jobs=3)
        assert (serial.result.sketch_fingerprint() ==
                sharded.result.sketch_fingerprint())
        assert serial.rendered == sharded.rendered
        a, b = serial.result.payload(), sharded.result.payload()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_poisson_synth_verdict(self):
        out = run_spec(SYNTH_DOC)
        assert out.result.battery.verdict == "poisson-like"
        assert out.result.battery.a2_passed

    def test_policer_reports_loss(self):
        doc = {"scenario": {"name": "p", "kind": "synth", "seed": 3},
               "source": {"model": "ftp", "n_packets": 4000},
               "condition": {"element": "policer", "rate_factor": 0.6,
                             "burst_seconds": 0.5},
               "validate": {"bin_width": 0.02, "min_level": 6}}
        out = run_spec(doc)
        assert out.result.loss_fraction > 0
        assert out.result.battery.n_events < 4000


class TestSpecCache:
    def test_hit_miss_and_mutation(self, tmp_path):
        cache = ResultCache(tmp_path)
        _, s1 = run_spec_cached(SYNTH_DOC, cache=cache)
        out2, s2 = run_spec_cached(SYNTH_DOC, cache=cache)
        assert (s1, s2) == ("miss", "hit")
        serial = run_spec(SYNTH_DOC)
        assert out2.rendered == serial.rendered
        # restating defaults / reordering keys still hits
        reordered = {
            "validate": {"min_level": 5, "bin_width": 0.05},
            "scenario": {"kind": "synth", "seed": 3, "name": "synth-test",
                         "description": ""},
            "source": {"n_packets": 6000, "model": "poisson"},
        }
        _, s3 = run_spec_cached(reordered, cache=cache)
        assert s3 == "hit"
        # any effective change misses: the digest is content-keyed
        mutated = {**SYNTH_DOC,
                   "source": {"model": "poisson", "n_packets": 6001}}
        _, s4 = run_spec_cached(mutated, cache=cache)
        assert s4 == "miss"

    def test_seed_override_changes_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        _, s1 = run_spec_cached(SYNTH_DOC, cache=cache)
        _, s2 = run_spec_cached(SYNTH_DOC, seed=4, cache=cache)
        assert (s1, s2) == ("miss", "miss")

    def test_no_cache_bypasses(self, tmp_path):
        cache = ResultCache(tmp_path)
        _, s1 = run_spec_cached(SYNTH_DOC, cache=cache, use_cache=False)
        _, s2 = run_spec_cached(SYNTH_DOC, cache=cache, use_cache=False)
        assert (s1, s2) == ("off", "off")

    def test_content_digest_contract(self):
        base = content_digest("repro.scenario.pipeline", "abc")
        assert base == content_digest("repro.scenario.pipeline", b"abc")
        assert base != content_digest("repro.scenario.pipeline", "abd")
        assert base != source_digest("repro.scenario.pipeline")


class TestScenarioCli:
    def _write(self, tmp_path, text):
        path = tmp_path / "spec.toml"
        path.write_text(text)
        return str(path)

    def test_validate_committed_examples(self, capsys):
        import glob
        specs = sorted(glob.glob("examples/specs/*.toml"))
        assert len(specs) >= 6
        assert main(["scenario", "validate", *specs]) == 0
        out = capsys.readouterr().out
        assert out.count(": valid") == len(specs)

    def test_validate_bad_spec_rc2(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            '[scenario]\nname = "b"\nkind = "synth"\n\n[source]\n'
            'modle = "ftp"\n')
        assert main(["scenario", "validate", path]) == 2
        err = capsys.readouterr().err
        assert "source.modle" in err and "did you mean" in err

    def test_run_spec_file(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            '[scenario]\nname = "cli-synth"\nkind = "synth"\nseed = 3\n\n'
            '[source]\nmodel = "poisson"\nn_packets = 6000\n\n'
            '[validate]\nbin_width = 0.05\nmin_level = 5\n')
        rc = main(["scenario", "run", path, "--no-cache", "--jobs", "2",
                   "--json", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "cli-synth"
        assert payload["battery"]["verdict"] == "poisson-like"
        bench = tmp_path / "BENCH_scenario_cli-synth.json"
        assert bench.exists()
        on_disk = json.loads(bench.read_text())
        assert on_disk["battery"] == payload["battery"]

    @pytest.mark.parametrize("kind, cfg, result_key", [
        ("flowsim", SMALL_CONFIGS["flowsim"], "scenarios"),
        ("flowsim", {**SMALL_CONFIGS["flowsim"], "workloads": ["ftp"]},
         "scenarios"),
        ("monitor", SMALL_CONFIGS["monitor"], "streams"),
        ("shaping", SMALL_CONFIGS["shaping"], "cells"),
        ("superpose", SMALL_CONFIGS["superpose"], "cells"),
        ("synth", SMALL_CONFIGS["synth"], "battery"),
    ], ids=["flowsim-pair", "flowsim-ftp", "monitor", "shaping",
            "superpose", "synth"])
    def test_json_carries_the_result(self, tmp_path, capsys, kind, cfg,
                                     result_key):
        """Every dedicated kind prints its result, not just the header,
        and ``--out`` writes exactly what ``--json`` prints."""
        path = self._write(tmp_path, dump_spec(
            resolve_section(kind, cfg, name=f"cli-{kind}")))
        rc = main(["scenario", "run", path, "--no-cache", "--json",
                   "--out", str(tmp_path)])
        assert rc == 0
        printed = capsys.readouterr().out
        payload = json.loads(printed, parse_constant=_reject_constant)
        assert result_key in set(payload) - HEADER_KEYS
        bench = tmp_path / f"BENCH_scenario_cli-{kind}.json"
        assert bench.read_text() == printed
        if kind == "flowsim":
            assert list(payload["scenarios"]) == cfg.get(
                "workloads", ["ftp", "exponential"])

    def test_run_unknown_file_rc2(self, tmp_path, capsys):
        assert main(["scenario", "run",
                     str(tmp_path / "missing.toml")]) == 2
