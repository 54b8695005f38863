"""Tests of the benchmark itself: seeded inputs, statistics, and the
agreement of BENCHMARK.json, the metric catalog and the predictions.

    python3 -m pytest -q perfbench/test_inputs.py
"""

import json
import os

import pytest

import catalog
import inputs
from common import ROOT, summarize, tail_percentile

WORKLOADS = ("table1", "serve-edits", "gateway")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_stream(workload):
    assert inputs.stream_bytes(workload, 7) == inputs.stream_bytes(
        workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_the_stream(workload):
    assert inputs.stream_bytes(workload, 7) != inputs.stream_bytes(
        workload, 8)


def test_edit_session_mix_and_working_set():
    from repro.bench import BENCHMARKS

    stream = inputs.edit_session(3)
    assert len(stream) == inputs.SESSION_LENGTH
    kinds = [item["kind"] for item in stream]
    share = {kind: kinds.count(kind) / len(kinds)
             for kind in ("new", "edit", "repeat")}
    assert 0.15 <= share["new"] <= 0.25
    assert 0.2 <= share["edit"] <= 0.4
    assert 0.4 <= share["repeat"] <= 0.6
    texts = {item["text"] for item in stream}
    assert all(b.source in texts for b in BENCHMARKS)
    # More distinct programs than the service's 64-entry prepared memo.
    assert len(texts) > 64


def test_edit_sessions_are_distinct():
    sessions = inputs.edit_sessions(3)
    assert len(sessions) == inputs.SESSIONS
    assert len({json.dumps(s, sort_keys=True) for s in sessions}) == len(
        sessions)


def test_tail_has_ten_samples_beyond_it():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(450) == 97.5
    assert tail_percentile(10000) == 99.9
    stats = summarize([float(i) for i in range(1, 101)])
    assert stats == {"p50": 50.5, "tail": 90.0, "tail_pct": 90.0, "n": 100}


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_matches_catalog():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == catalog.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == catalog.PER_LAYER


def test_every_per_layer_metric_has_a_prediction():
    with open(os.path.join(os.path.dirname(__file__), "predictions.json"),
              encoding="utf-8") as handle:
        predictions = json.load(handle)["per_layer"]
    gated = {name for name, *_ in catalog.END_TO_END}
    for name, _, _ in catalog.PER_LAYER:
        key = name
        for prefix in ("analysis.analyze_ms.", "baselines.meta_ratio.",
                       "self_ms."):
            if name.startswith(prefix):
                key = prefix + "*"
        assert key in predictions, name
        for claim in predictions[key].get("moves", []):
            assert claim["metric"] in gated, (name, claim)
            assert claim["workload"] in WORKLOADS, (name, claim)
        for workload in predictions[key].get("no_change_on", []):
            assert workload in WORKLOADS, (name, workload)
