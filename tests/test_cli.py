"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


def test_run_command(capsys):
    code = main(
        "run --app push-gossip --strategy randomized -A 5 -C 10"
        " --nodes 80 --periods 20".split()
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "push-gossip/randomized(A=5, C=10)" in out
    assert "msgs/node/period" in out


def test_run_with_audit(capsys):
    code = main(
        "run --app gossip-learning --strategy simple -C 5"
        " --nodes 60 --periods 15 --audit".split()
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "burst bound verified" in out


def test_run_with_loss(capsys):
    code = main(
        "run --app gossip-learning --strategy simple -C 5"
        " --nodes 60 --periods 15 --loss-rate 0.2".split()
    )
    assert code == 0


def test_figure1_command(capsys):
    code = main(["figure", "1", "--scale", "ci"])
    out = capsys.readouterr().out
    assert code == 0
    assert "figure1" in out
    assert "online" in out  # column header (may be truncated to fit)


def test_figure_requires_app_for_2_to_4(capsys):
    code = main(["figure", "2"])
    assert code == 2
    assert "--app is required" in capsys.readouterr().err


def test_figure_unknown_number(capsys):
    code = main(["figure", "9"])
    assert code == 2


def test_trace_command(tmp_path, capsys):
    out_file = tmp_path / "trace.txt"
    code = main("trace --users 150 --hours 24 --out".split() + [str(out_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "generated" in out
    assert out_file.exists()
    from repro.churn.trace import AvailabilityTrace

    trace = AvailabilityTrace.load(out_file)
    assert trace.n == 150
    assert trace.horizon == 24 * 3600.0


def test_scale_option_does_not_leak_into_later_invocations(monkeypatch, capsys):
    """Regression: --scale must not mutate REPRO_SCALE process-globally.

    Two sequential in-process CLI calls: the first picks an explicit
    scale, the second passes none and must see the default again (and
    the environment must be untouched — a leaked REPRO_SCALE would also
    reach forked suite workers).
    """
    import os

    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert main(["figure", "1", "--scale", "smoke"]) == 0
    first = capsys.readouterr().out
    assert "smoke" in first
    assert "REPRO_SCALE" not in os.environ
    # Second call, no --scale: the default (ci) applies, not smoke.
    assert main(["figure", "1"]) == 0
    second = capsys.readouterr().out
    assert "ci(" in second
    assert "smoke" not in second


def test_explicit_scale_resolution_matches_env_resolution(monkeypatch):
    from repro.experiments.scale import current_scale, scale_preset

    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert scale_preset("ci") == current_scale()  # the default is ci
    with pytest.raises(ValueError, match="unknown scale"):
        scale_preset("galactic")


def test_parser_rejects_unknown_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["frobnicate"])


def test_parser_rejects_unknown_strategy():
    with pytest.raises(SystemExit):
        main(["run", "--app", "push-gossip", "--strategy", "leaky-bucket"])


def test_figure_plot_flag(capsys):
    code = main(["figure", "1", "--scale", "ci", "--plot"])
    out = capsys.readouterr().out
    assert code == 0
    assert "a = online" in out
    assert "+----" in out  # chart frame


def test_run_save_json(tmp_path, capsys):
    out_file = tmp_path / "run.json"
    code = main(
        "run --app push-gossip --strategy simple -C 5"
        " --nodes 60 --periods 15 --save".split()
        + [str(out_file)]
    )
    assert code == 0
    assert out_file.exists()
    from repro.experiments.export import load_result_json

    document = load_result_json(out_file)
    assert dict(document["config"]["strategy"]["params"])["capacity"] == 5


def test_list_command(capsys):
    code = main(["list"])
    out = capsys.readouterr().out
    assert code == 0
    for section in ("strategies:", "applications:", "overlays:", "churn-models:"):
        assert section in out
    assert "randomized" in out
    assert "flash-crowd" in out
    assert "spend_rate" in out  # parameter schemas are printed


def test_list_command_single_kind(capsys):
    code = main(["list", "overlays"])
    out = capsys.readouterr().out
    assert code == 0
    assert "watts-strogatz" in out
    assert "applications:" not in out


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("lines", [1, 0], ids=["after-one-line", "before-any"])
def test_list_into_a_reader_that_leaves_early_is_quiet(lines, unbuffered):
    """``repro list applications | head -1``: no BrokenPipeError traceback.

    A reader closing after one line may still come after the last write;
    one that closes before any line always meets the write.
    """
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "list", "applications"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    if lines:
        assert process.stdout.readline() == b"applications:\n"
    process.stdout.close()
    err = process.stderr.read()
    process.wait(timeout=60)
    assert err == b""
    assert process.returncode in ((0, 1) if lines else (1,))


def test_run_trace_driven_chaotic_iteration(capsys):
    code = main(
        "run --app chaotic-iteration --strategy randomized -A 2 -C 6"
        " --nodes 60 --periods 10 --scenario trace".split()
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "chaotic-iteration/randomized(A=2, C=6)/trace" in out


def test_run_lossy_watts_strogatz_push_gossip(capsys):
    code = main(
        "run --app push-gossip --strategy randomized -A 5 -C 10 --nodes 60"
        " --periods 10 --overlay watts-strogatz --loss-rate 0.1".split()
    )
    assert code == 0


def test_run_flash_crowd_scenario_with_churn_param(capsys):
    code = main(
        "run --app gossip-learning --strategy simple -C 5 --nodes 60 --periods 10"
        " --scenario flash-crowd --churn-param base_fraction=0.5".split()
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "flash-crowd" in out


def test_run_churn_flag_overrides_scenario_preset(capsys):
    code = main(
        "run --app gossip-learning --strategy simple -C 5 --nodes 60 --periods 10"
        " --churn flash-crowd --churn-param base_fraction=0.6".split()
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "flash-crowd" in out


def test_run_app_param_overrides(capsys):
    code = main(
        "run --app push-gossip --strategy simple -C 5 --nodes 60 --periods 10"
        " --app-param inject_interval=34.56".split()
    )
    assert code == 0


def test_run_rejects_unknown_app_param(capsys):
    code = main(
        "run --app push-gossip --strategy simple -C 5 --nodes 60 --periods 10"
        " --app-param shininess=11".split()
    )
    assert code == 2
    assert "unknown parameter" in capsys.readouterr().err


def test_run_rejects_mistyped_app_param(capsys):
    code = main(
        "run --app push-gossip --strategy simple -C 5 --nodes 60 --periods 10"
        " --app-param inject_interval=junk".split()
    )
    assert code == 2
    assert "expects float" in capsys.readouterr().err


def test_parser_rejects_unknown_overlay():
    args = "run --app push-gossip --strategy simple -C 5 --overlay torus"
    with pytest.raises(SystemExit):
        main(args.split())


def test_figure_save_csv(tmp_path, capsys):
    out_file = tmp_path / "figure1.csv"
    code = main("figure 1 --scale ci --save".split() + [str(out_file)])
    assert code == 0
    assert out_file.exists()
    header = out_file.read_text().splitlines()[0]
    assert header.startswith("time,")


SWEEP_ARGS = "--app push-gossip --scale smoke".split()


def _strategy_tables(out: str) -> list:
    """The A x C matrices of an output: header to "best" footer, per strategy."""
    lines = out.splitlines()
    starts = [i for i, line in enumerate(lines) if "A \\ C" in line]
    ends = [i for i, line in enumerate(lines) if line.startswith("(* best:")]
    return [lines[start : end + 1] for start, end in zip(starts, ends)]


def test_sweep_prints_the_suite_table_of_its_strategy(capsys):
    assert main(["sweep", *SWEEP_ARGS, "--strategy", "generalized"]) == 0
    sweep_out = capsys.readouterr().out
    suite_args = [*SWEEP_ARGS, "--strategies", "generalized", "--quiet"]
    assert main(["suite", *suite_args]) == 0
    suite_out = capsys.readouterr().out
    assert sweep_out.startswith(
        "push-gossip / generalized over the (A, C) grid (lower is better):\n"
    )
    assert "\npush-gossip / generalized (lower is better):\n" in suite_out
    (table,) = _strategy_tables(sweep_out)
    assert len(table) == 2 + 4 + 1  # header + rule, four A rows, footer
    assert _strategy_tables(suite_out) == [table]


def test_sweep_output_is_independent_of_worker_count(capsys):
    outputs = []
    for workers in ("1", "2"):
        args = [*SWEEP_ARGS, "--strategy", "randomized", "--workers", workers]
        assert main(["sweep", *args]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_sweep_fills_the_store_report_suite_replays(tmp_path, capsys, monkeypatch):
    store = ["--store", str(tmp_path / "store")]
    assert main(["sweep", *SWEEP_ARGS, "--strategy", "generalized", *store]) == 0
    (table,) = _strategy_tables(capsys.readouterr().out)

    def boom(*args, **kwargs):
        raise AssertionError("a cell was simulated, expected pure cache hits")

    monkeypatch.setattr("repro.experiments.suite._execute_cell", boom)
    report = ["report", "suite", *SWEEP_ARGS, "--strategies", "generalized", *store]
    assert main(report) == 0
    out = capsys.readouterr().out
    assert "zero cells simulated" in out
    assert _strategy_tables(out) == [table]


def test_suite_runs_a_repeated_strategy_once(capsys):
    args = [*SWEEP_ARGS, "--strategies", "simple", "simple", "--workers", "1"]
    assert main(["suite", *args, "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "3 cells [simple(3)]" in out
    assert len(_strategy_tables(out)) == 1


def test_figure5_save_json_exports_the_meanfield_curves(tmp_path, capsys):
    out_file = tmp_path / "f5.json"
    args = ["figure", "5", "--scale", "smoke", "--workers", "1", "--save"]
    assert main([*args, str(out_file)]) == 0
    import json

    document = json.loads(out_file.read_text())
    assert set(document["extras"]["meanfield"]) == set(document["series"])
    curve = document["extras"]["meanfield"]["A=5 C=10"]
    assert len(curve["times"]) == len(curve["balances"]) > 1


def test_figure_rows_must_be_positive(capsys):
    assert main(["figure", "1", "--scale", "smoke", "--rows", "1"]) == 0
    assert len(capsys.readouterr().out.split("\n\n")[1].splitlines()) == 3
    with pytest.raises(SystemExit):
        main(["figure", "1", "--rows", "0"])
