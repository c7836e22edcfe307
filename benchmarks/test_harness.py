"""The shared benchmark harness: its gate, its row schema and its CLI.

No assertion here depends on how long anything took.
"""

import json
from pathlib import Path

import pytest

import harness
from harness import ROW_KEYS, Case, check_against, run_suite

HERE = Path(__file__).resolve().parent
GATED = ("flowsim", "kernels", "monitor", "shaping", "superpose", "traces")


def _row(ratio, identical=None):
    return {"n": 10, "case_s": ratio, "baseline": "ref", "baseline_s": 1.0,
            "ratio": ratio, "identical": identical}


@pytest.fixture
def baseline(tmp_path):
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps({
        "script": "benchmarks/bench_x.py", "repeats": 7,
        "scales": {"small": {"a": _row(0.2), "b": _row(0.4, True)}},
    }))
    return path


def test_ratio_within_factor_passes(baseline):
    check_against(baseline, "small", {"a": _row(0.2 * 1.49),
                                      "b": _row(0.4 * 1.49, True)})


def test_ratio_past_factor_fails(baseline):
    with pytest.raises(SystemExit, match="b: ratio"):
        check_against(baseline, "small", {"a": _row(0.2),
                                          "b": _row(0.4 * 1.51, True)})


def test_identity_mismatch_fails_whatever_the_ratio(baseline):
    with pytest.raises(SystemExit, match="a: identity check failed"):
        check_against(baseline, "small", {"a": _row(0.01, False)})


def test_case_missing_from_baseline_is_reported_not_failed(baseline, capsys):
    check_against(baseline, "small", {"a": _row(0.2), "new": _row(99.0)})
    assert "new: not in" in capsys.readouterr().out


def test_missing_scale_exits_nonzero(baseline):
    with pytest.raises(SystemExit) as err:
        check_against(baseline, "full", {"a": _row(0.2)})
    assert err.value.code not in (0, None)


def _cases(scale):
    yield Case("same", 3, lambda: [1, 2, 3], "list", lambda: [1, 2, 3],
               identical=lambda ref, out: ref == out)
    yield Case("plain", 3, lambda: None, "none", lambda: None,
               ref_scale=2.0)


def test_run_suite_rows_hold_exactly_the_schema():
    rows = run_suite(_cases("small"), pairs=1)
    assert list(rows) == ["same", "plain"]
    for row in rows.values():
        assert tuple(row) == ROW_KEYS
    assert rows["same"]["identical"] is True
    assert rows["plain"]["identical"] is None
    assert rows["plain"]["baseline"] == "none"


def test_main_writes_the_envelope_and_checks_it(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "MIN_SAMPLE_S", 0.0)
    out = tmp_path / "BENCH_fake.json"
    args = ["--repeats", "1", "--out", str(out)]
    harness.main("bench_fake.py", _cases, args)
    harness.main("bench_fake.py", _cases, args + ["--check", str(out)])
    payload = json.loads(out.read_text())
    assert payload["script"] == "benchmarks/bench_fake.py"
    assert payload["repeats"] == 1
    assert set(payload["scales"]) == {"small"}


@pytest.mark.parametrize("suite", GATED)
def test_committed_baselines_share_one_schema(suite):
    payload = json.loads((HERE / f"BENCH_{suite}.json").read_text())
    assert set(payload) == {"script", "repeats", "scales"}
    assert payload["script"] == f"benchmarks/bench_{suite}.py"
    assert set(payload["scales"]) == {"small", "full"}
    for scale, rows in payload["scales"].items():
        assert rows, scale
        for name, row in rows.items():
            assert set(row) == set(ROW_KEYS), (scale, name)
            assert row["ratio"] > 0 and row["identical"] in (True, None)
