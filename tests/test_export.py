"""Tests for result/figure export."""

import csv
import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.export import (
    figure_to_dict,
    load_result_json,
    result_to_dict,
    save_figure,
    save_result,
)
from repro.experiments.figures import FigureData
from repro.experiments.runner import run_experiment
from repro.metrics.series import TimeSeries


@pytest.fixture(scope="module")
def result():
    return run_experiment(
        ExperimentConfig(
            app="push-gossip",
            strategy="simple",
            capacity=5,
            n=60,
            periods=20,
            seed=9,
            collect_tokens=True,
        )
    )


def test_result_to_dict_is_json_serializable(result):
    document = result_to_dict(result)
    text = json.dumps(document)
    assert "repro-result-v1" in text
    assert document["config_format"] == "scenario-spec-v1"
    assert document["config"]["app"]["name"] == "push-gossip"
    assert len(document["metric"]["times"]) == len(result.metric)
    assert "tokens" in document


def test_result_json_roundtrip(result, tmp_path):
    path = tmp_path / "run.json"
    save_result(result, path)
    loaded = load_result_json(path)
    assert loaded["label"] == result.label
    assert list(loaded["metric"]) == list(result.metric)
    assert list(loaded["tokens"]) == list(result.tokens)
    assert loaded["messages_per_node_per_period"] == pytest.approx(
        result.messages_per_node_per_period
    )


def test_result_csv(result, tmp_path):
    path = tmp_path / "run.csv"
    save_result(result, path)
    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["time", "metric"]
    assert len(rows) - 1 == len(result.metric)
    assert float(rows[1][0]) == result.metric.times[0]


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "foreign.json"
    path.write_text('{"hello": "world"}')
    with pytest.raises(ValueError, match="not a repro result"):
        load_result_json(path)


def make_figure(extras=None):
    return FigureData(
        name="test-figure",
        description="a test",
        series={
            "a": TimeSeries([(0.0, 1.0), (10.0, 2.0)]),
            "b": TimeSeries([(5.0, 3.0)]),
        },
        message_rates={"a": 1.0, "b": 0.9},
        extras=extras or {"note": "hi", "skipme": object()},
        scale_label="test",
    )


def test_figure_to_dict_skips_unserializable_extras():
    for figure in (
        make_figure(),
        make_figure(extras={"note": "hi", "nested": {"x": object()}}),
    ):
        document = figure_to_dict(figure)
        json.dumps(document)  # must not raise
        assert document["extras"] == {"note": "hi"}
        assert set(document["series"]) == {"a", "b"}


def test_figure_json(tmp_path):
    path = tmp_path / "figure.json"
    save_figure(make_figure(), path)
    document = json.loads(path.read_text())
    assert document["format"] == "repro-figure-v1"
    assert document["series"]["a"]["values"] == [1.0, 2.0]


def test_figure_csv_wide_format(tmp_path):
    path = tmp_path / "figure.csv"
    save_figure(make_figure(), path)
    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["time", "a", "b"]
    # Union of times: 0, 5, 10; series b has a hole at 0 and 10.
    assert len(rows) == 4
    assert rows[1] == ["0.0", "1.0", ""]
    assert rows[2] == ["5.0", "", "3.0"]
    assert rows[3] == ["10.0", "2.0", ""]