"""Span self-time arithmetic and the tracer's patching of posehar.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import posehar  # noqa: E402
import posehar.evaluate  # noqa: E402
from layers import OBSERVERS, _fold_seconds, layer_metrics  # noqa: E402
from spans import Span, Tracer, _covered, layer_self_times, self_times  # noqa: E402


def span(name, layer, start, end, parent=-1):
    return Span(name, layer, start, end, parent, run_id=1)


def test_covered_merges_overlapping_and_disjoint_intervals():
    assert _covered([]) == 0.0
    assert _covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == pytest.approx(5.0)
    assert _covered([(2.0, 5.0), (1.0, 3.0)]) == pytest.approx(4.0)
    assert _covered([(1.0, 6.0), (2.0, 3.0)]) == pytest.approx(5.0)


def test_self_time_subtracts_children_only_once():
    spans = [
        span("run_experiment", "evaluate", 0.0, 10.0),
        span("build_bundle", "som", 1.0, 4.0, parent=0),
        span("train_som", "som", 1.5, 3.5, parent=1),
        span("train", "classifier", 5.0, 9.0, parent=0),
        span("loss_and_grad", "classifier", 5.0, 6.0, parent=3),
        span("loss_and_grad", "classifier", 6.0, 7.5, parent=3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.0, 2.0, 1.5, 1.0, 1.5])
    busy = layer_self_times(spans)
    assert busy == pytest.approx({"evaluate": 3.0, "som": 3.0, "classifier": 4.0})
    # self times partition the top-level span exactly
    assert sum(busy.values()) == pytest.approx(10.0)


def test_child_reaching_past_its_parent_is_clipped():
    spans = [span("train", "classifier", 0.0, 2.0),
             span("accuracy", "classifier", 1.5, 2.5, parent=0)]
    assert self_times(spans) == pytest.approx([1.5, 1.0])


def test_fold_seconds_run_between_test_predictions():
    spans = [
        span("run_experiment", "evaluate", 0.0, 9.0),
        span("train", "classifier", 0.5, 3.0, parent=0),
        span("accuracy", "classifier", 2.0, 2.5, parent=1),
        span("predict_proba", "classifier", 2.1, 2.4, parent=2),
        span("predict_proba", "classifier", 3.0, 4.0, parent=0),
        span("predict_proba", "classifier", 8.0, 9.0, parent=0),
    ]
    assert _fold_seconds(spans) == pytest.approx([4.0, 5.0])


def test_tracer_records_nested_layers_and_restores_functions(tmp_path):
    original = posehar.preprocess_sample
    sample = posehar.generate(posehar.MotionSpec("squat", frames=12))
    tracer = Tracer(OBSERVERS)
    with tracer:
        assert posehar.preprocess_sample is not original
        assert posehar.evaluate.preprocess_sample is posehar.preprocess_sample
        tracer.run_id = 7
        item, _ = posehar.preprocess_sample(sample)
        posehar.embed_sequence(item.seq, mode="basic")
    assert posehar.preprocess_sample is original
    assert posehar.evaluate.preprocess_sample is original

    names = [s.name for s in tracer.spans]
    assert names == ["preprocess_sample", "embed_sequence"]
    assert all(s.run_id == 7 and s.parent == -1 for s in tracer.spans)
    assert tracer.spans[0].info == {"frames": 12, "dropped": 0}
    assert tracer.spans[1].info == {"frames": 12, "distance_evals": 0}

    metrics = layer_metrics(tracer.spans, overhead_s=0.0)
    assert metrics["embed.calls"] == 1 and metrics["embed.frames"] == 12
    assert metrics["som.maps"] == 0 and metrics["som.us_per_step"] == 0.0

    out = tmp_path / "spans.jsonl"
    tracer.write(out)
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["name"] for r in records] == names
    assert records[0]["self"] == pytest.approx(tracer.spans[0].duration)


def test_layer_metrics_cover_every_per_layer_name():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert set(layer_metrics([], overhead_s=0.0)) == names
