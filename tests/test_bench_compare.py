"""Tests for the CI bench-regression comparator (scripts/bench_compare.py)."""

import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_compare", REPO_ROOT / "scripts" / "bench_compare.py"
)
bench_compare = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("bench_compare", bench_compare)
_spec.loader.exec_module(bench_compare)


def write(directory: Path, name: str, document: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(json.dumps(document), encoding="utf-8")


def doc(events: float, ratio: float = 50.0) -> dict:
    return {
        "format": "repro-bench-backend-v1",
        "n": 10_000,  # counts are not compared
        "scenarios": {
            "proactive": {
                "event": {"events_per_second": events / 50, "elapsed_seconds": 3.0},
                "vectorized": {"events_per_second": events},
                "events_per_second_ratio": ratio,
            }
        },
    }


def test_flags_regression_beyond_threshold(tmp_path, capsys):
    write(tmp_path / "old", "BENCH_backend.json", doc(events=1_000_000.0))
    write(tmp_path / "new", "BENCH_backend.json", doc(events=700_000.0, ratio=35.0))
    code = bench_compare.main([str(tmp_path / "old"), str(tmp_path / "new")])
    out = capsys.readouterr().out
    assert code == 0  # warn-only by default
    assert "::warning" in out
    assert "events_per_second" in out and "regressed 30%" in out


def test_strict_mode_fails_on_regression(tmp_path, capsys):
    write(tmp_path / "old", "BENCH_backend.json", doc(events=1_000_000.0))
    write(tmp_path / "new", "BENCH_backend.json", doc(events=100_000.0, ratio=5.0))
    code = bench_compare.main(
        [str(tmp_path / "old"), str(tmp_path / "new"), "--strict"]
    )
    assert code == 1
    assert "::warning" in capsys.readouterr().out


def test_within_threshold_is_quiet(tmp_path, capsys):
    write(tmp_path / "old", "BENCH_backend.json", doc(events=1_000_000.0))
    write(tmp_path / "new", "BENCH_backend.json", doc(events=900_000.0, ratio=46.0))
    code = bench_compare.main([str(tmp_path / "old"), str(tmp_path / "new")])
    out = capsys.readouterr().out
    assert code == 0
    assert "::warning" not in out
    assert "no regression" in out


def test_improvements_never_warn(tmp_path, capsys):
    write(tmp_path / "old", "BENCH_backend.json", doc(events=1_000_000.0))
    write(tmp_path / "new", "BENCH_backend.json", doc(events=5_000_000.0, ratio=80.0))
    assert bench_compare.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    assert "::warning" not in capsys.readouterr().out


def test_missing_previous_directory_is_a_noop(tmp_path, capsys):
    write(tmp_path / "new", "BENCH_backend.json", doc(events=1.0))
    code = bench_compare.main([str(tmp_path / "absent"), str(tmp_path / "new")])
    assert code == 0
    assert "nothing to compare" in capsys.readouterr().out


def test_unreadable_artifacts_are_skipped(tmp_path, capsys):
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    (tmp_path / "old" / "BENCH_backend.json").write_text("not json", encoding="utf-8")
    write(tmp_path / "new", "BENCH_backend.json", doc(events=1.0))
    assert bench_compare.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0


def test_only_throughput_metrics_compared(tmp_path, capsys):
    # elapsed_seconds doubling is NOT a throughput regression by itself.
    old = {"suite": {"elapsed_seconds": 1.0, "events_per_second": 100.0}}
    new = {"suite": {"elapsed_seconds": 9.0, "events_per_second": 99.0}}
    write(tmp_path / "old", "BENCH_suite.json", old)
    write(tmp_path / "new", "BENCH_suite.json", new)
    code = bench_compare.main([str(tmp_path / "old"), str(tmp_path / "new")])
    assert code == 0
    assert "::warning" not in capsys.readouterr().out


# ----------------------------------------------------------------------
# The fail-on-regression gate
# ----------------------------------------------------------------------
def gate(tmp_path):
    return [
        str(tmp_path / "old"),
        str(tmp_path / "new"),
        "--threshold",
        "0.20",
        "--fail-on-regression",
        "0.35",
    ]


def test_gate_fails_beyond_the_hard_threshold(tmp_path, capsys):
    write(tmp_path / "old", "BENCH_backend.json", doc(events=1_000_000.0))
    write(tmp_path / "new", "BENCH_backend.json", doc(events=500_000.0, ratio=25.0))
    code = bench_compare.main(gate(tmp_path))
    out = capsys.readouterr().out
    assert code == 1
    assert "::error" in out and "regressed 50%" in out


def test_gate_only_warns_between_thresholds(tmp_path, capsys):
    write(tmp_path / "old", "BENCH_backend.json", doc(events=1_000_000.0))
    write(tmp_path / "new", "BENCH_backend.json", doc(events=700_000.0, ratio=35.0))
    code = bench_compare.main(gate(tmp_path))
    out = capsys.readouterr().out
    assert code == 0  # 30% drop: warn, don't fail
    assert "::warning" in out and "::error" not in out


def test_gate_threshold_ordering_is_validated(tmp_path):
    write(tmp_path / "old", "BENCH_backend.json", doc(events=1.0))
    write(tmp_path / "new", "BENCH_backend.json", doc(events=1.0))
    import pytest

    with pytest.raises(SystemExit):
        bench_compare.main(
            [
                str(tmp_path / "old"),
                str(tmp_path / "new"),
                "--threshold",
                "0.5",
                "--fail-on-regression",
                "0.2",
            ]
        )


# ----------------------------------------------------------------------
# Added / removed metric visibility
# ----------------------------------------------------------------------
def test_new_metric_in_existing_artifact_is_announced(tmp_path, capsys):
    old = {"single": {"decisions_per_second": 100.0}}
    new = {
        "single": {"decisions_per_second": 100.0},
        "sharded": {"decisions_per_second": 300.0},
    }
    write(tmp_path / "old", "BENCH_serve.json", old)
    write(tmp_path / "new", "BENCH_serve.json", new)
    code = bench_compare.main([str(tmp_path / "old"), str(tmp_path / "new")])
    out = capsys.readouterr().out
    assert code == 0
    assert "::notice title=new bench metric::" in out
    assert "sharded.decisions_per_second" in out


def test_new_artifact_file_is_announced(tmp_path, capsys):
    write(tmp_path / "old", "BENCH_backend.json", doc(events=1_000_000.0))
    write(tmp_path / "new", "BENCH_backend.json", doc(events=1_000_000.0))
    write(
        tmp_path / "new",
        "BENCH_serve.json",
        {"single": {"decisions_per_second": 250_000.0}},
    )
    bench_compare.main([str(tmp_path / "old"), str(tmp_path / "new")])
    out = capsys.readouterr().out
    assert "new bench metric" in out and "BENCH_serve.json" in out


def test_removed_metric_is_announced(tmp_path, capsys):
    old = {
        "single": {"decisions_per_second": 100.0},
        "legacy": {"events_per_second": 5.0},
    }
    new = {"single": {"decisions_per_second": 101.0}}
    write(tmp_path / "old", "BENCH_serve.json", old)
    write(tmp_path / "new", "BENCH_serve.json", new)
    code = bench_compare.main([str(tmp_path / "old"), str(tmp_path / "new")])
    out = capsys.readouterr().out
    assert code == 0
    assert "::notice title=removed bench metric::" in out
    assert "legacy.events_per_second" in out


def test_removed_artifact_file_is_announced(tmp_path, capsys):
    write(tmp_path / "old", "BENCH_gone.json", {"x": {"events_per_second": 5.0}})
    write(tmp_path / "new", "BENCH_serve.json", {"s": {"decisions_per_second": 1.0}})
    bench_compare.main([str(tmp_path / "old"), str(tmp_path / "new")])
    out = capsys.readouterr().out
    assert "removed bench metric" in out and "BENCH_gone.json" in out


def test_decisions_per_second_is_a_tracked_marker(tmp_path, capsys):
    old = {"single": {"decisions_per_second": 400_000.0}}
    new = {"single": {"decisions_per_second": 100_000.0}}
    write(tmp_path / "old", "BENCH_serve.json", old)
    write(tmp_path / "new", "BENCH_serve.json", new)
    code = bench_compare.main(gate(tmp_path))
    out = capsys.readouterr().out
    assert code == 1
    assert "single.decisions_per_second" in out
