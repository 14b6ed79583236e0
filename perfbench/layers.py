"""Per-layer counts attached to spans, and the per-layer metrics built from them.

Every metric is reported on every workload; a layer the workload never
reaches reads 0.
"""

from __future__ import annotations

import numpy as np
from posehar.pose import N_LANDMARKS
from posehar.som import quantization_error

from spans import Span, layer_self_times
from stats import median_or_zero

def _train_som(span: Span, arguments: dict, fit) -> None:
    data, config = arguments["data"], arguments["config"]
    span.info.update(steps=config.epochs * len(data), units=config.n_units,
                     kept=int(np.unique(fit.assignments).size),
                     qe=quantization_error(data, fit.weights))


def _embed_sequence(span: Span, arguments: dict, channels) -> None:
    spatial, temporal = arguments["spatial"], arguments["temporal"]
    frames = int(arguments["seq"].xy.shape[0])
    evals = 0
    if arguments["mode"] == "advanced":
        deriv_frames = max(frames - 1, 1)
        evals = N_LANDMARKS * (frames * sum(len(lib) for lib in spatial.values())
                               + deriv_frames * sum(len(lib) for lib in temporal.values()))
    span.info.update(frames=frames, distance_evals=evals)


def _train(span: Span, arguments: dict, result) -> None:
    history = result[1]
    accuracies = [h["val_accuracy"] for h in history]
    span.info.update(epochs=len(history),
                     best_epoch=int(np.argmax(accuracies)) if accuracies else -1)


def _preprocess_sample(span: Span, arguments: dict, result) -> None:
    report = result[1]
    span.info.update(frames=report.frames_in,
                     dropped=report.frames_dropped_missing + report.frames_dropped_degenerate)


def _augment_set(span: Span, arguments: dict, result) -> None:
    span.info.update(sequences_out=len(result))


def _run_experiment(span: Span, arguments: dict, report) -> None:
    span.info.update(accuracy=report.absolute_accuracy, folds=len(report.per_fold))


OBSERVERS = {
    "train_som": _train_som,
    "embed_sequence": _embed_sequence,
    "train": _train,
    "preprocess_sample": _preprocess_sample,
    "augment_set": _augment_set,
    "run_experiment": _run_experiment,
}


def _fold_seconds(spans: list[Span]) -> list[float]:
    """Time between consecutive fold completions of each experiment.

    A fold ends when its test predictions are made: the ``predict_proba``
    span directly under ``run_experiment`` (validation predictions sit under
    ``accuracy`` inside ``train``).
    """
    out: list[float] = []
    for index, span in enumerate(spans):
        if span.name != "run_experiment":
            continue
        mark = span.start
        for child in spans:
            if child.parent == index and child.name == "predict_proba":
                out.append(child.end - mark)
                mark = child.end
    return out


def layer_metrics(spans: list[Span], overhead_s: float) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json, computed from spans."""
    busy = layer_self_times(spans)
    named: dict[str, list[Span]] = {}
    for span in spans:
        named.setdefault(span.name, []).append(span)

    def durations(name: str) -> list[float]:
        return [s.duration for s in named.get(name, [])]

    def total(name: str, key: str) -> float:
        return sum(s.info.get(key, 0) for s in named.get(name, []))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    maps = named.get("train_som", [])
    steps = total("train_som", "steps")
    embed_frames = total("embed_sequence", "frames")
    distance_evals = total("embed_sequence", "distance_evals")
    epochs = total("train", "epochs")
    served = [s.duration for s in named.get("predict_proba", [])
              if s.parent < 0 or spans[s.parent].name != "accuracy"]
    experiments = named.get("run_experiment", [])
    return {
        "som.maps": len(maps),
        "som.steps": steps,
        "som.busy_s": busy.get("som", 0.0),
        "som.us_per_step": ratio(sum(durations("train_som")), steps) * 1e6,
        "som.units_kept_ratio": ratio(total("train_som", "kept"), total("train_som", "units")),
        "som.qe_mean": ratio(total("train_som", "qe"), len(maps)),
        "som.bundle_s": sum(durations("build_bundle")),
        "som.load_bundle_ms": median_or_zero(durations("load_bundle")) * 1e3,
        "pca.busy_s": busy.get("pca", 0.0),
        "augment.busy_s": busy.get("augment", 0.0),
        "augment.sequences_out": total("augment_set", "sequences_out"),
        "embed.calls": len(named.get("embed_sequence", [])),
        "embed.frames": embed_frames,
        "embed.busy_s": busy.get("embed", 0.0),
        "embed.frames_per_s": ratio(embed_frames, busy.get("embed", 0.0)),
        "embed.ms_p50": median_or_zero(durations("embed_sequence")) * 1e3,
        "embed.distance_evals": distance_evals,
        "embed.ns_per_distance": ratio(busy.get("embed", 0.0), distance_evals) * 1e9,
        "classifier.train_s": sum(durations("train")),
        "classifier.steps": len(named.get("loss_and_grad", [])),
        "classifier.step_ms_p50": median_or_zero(durations("loss_and_grad")) * 1e3,
        "classifier.epochs": epochs,
        "classifier.useful_epoch_ratio": ratio(
            sum(s.info["best_epoch"] + 1 for s in named.get("train", [])), epochs),
        "classifier.val_s": sum(durations("accuracy")),
        "classifier.predict_ms_p50": median_or_zero(served) * 1e3,
        "classifier.load_model_ms": median_or_zero(durations("load_model")) * 1e3,
        "io.read_ms_p50": median_or_zero(durations("read_record")) * 1e3,
        "preprocess.busy_s": busy.get("preprocess", 0.0),
        "preprocess.frames_per_s": ratio(total("preprocess_sample", "frames"),
                                         busy.get("preprocess", 0.0)),
        "preprocess.frames_dropped": total("preprocess_sample", "dropped"),
        "evaluate.folds": total("run_experiment", "folds"),
        "evaluate.fold_s_p50": median_or_zero(_fold_seconds(spans)),
        "evaluate.self_s": busy.get("evaluate", 0.0),
        "evaluate.accuracy": ratio(total("run_experiment", "accuracy"), len(experiments)),
        "trace.spans": len(spans),
        "trace.overhead_s": overhead_s,
    }
