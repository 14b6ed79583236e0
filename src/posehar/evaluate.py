"""Evaluation protocols, fold construction, metrics, and experiment runs.

Three protocols cover the usual splits:

* ``split``: fixed group lists (actors or datasets) for train, validation,
  and test. With dataset grouping this expresses cross-dataset transfer.
* ``loao``: leave-one-actor-out; one fold per actor, that actor's samples
  form the test set.
* ``kfold``: per-action k-fold; every action's samples are shuffled and cut
  into k near-equal parts, and fold f tests part f of every action, so each
  fold sees the full class vocabulary.

Only ``split`` reads ``group_by`` and the group lists; only ``kfold`` reads
``folds``. Each fold without a validation group carves a stratified
``val_fraction`` out of its training pool; a pool in which no action has two
samples leaves nothing to validate on and raises TooFewSamples. Folds are
index-based and pairwise disjoint by construction; the runner re-checks that
before fitting anything, and it refuses (TooFewSamples) a fold none of whose
test samples has an action its training set holds.

Scores: absolute accuracy is the fraction of correct test predictions;
relative accuracy is the mean per-class recall, which weighs every class
equally no matter how common it is. Confusion matrices have one row per
true class, in sorted action order.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .augment import AugmentConfig, augment_set
from .classifier import ClassifierConfig, init_model, predict, train
from .embed import MODES, baseline_channels, channel_names, embed_sequences
from .errors import TooFewSamples, check_settings
from .pose import Sample
from .preprocess import preprocess_sample
from .som import SomConfig, build_bundle

log = logging.getLogger(__name__)

PROTOCOL_KINDS = ("split", "loao", "kfold")


@dataclass(frozen=True)
class Protocol:
    """How samples are partitioned into train / validation / test. The
    constructor refuses what a config file may not hold: a group list that is
    not a list of names is a TypeError, overlapping lists a ValueError."""

    kind: str = "kfold"
    folds: int = 10
    train_groups: tuple[str, ...] = ()
    val_groups: tuple[str, ...] = ()
    test_groups: tuple[str, ...] = ()
    group_by: str = "actor"         # "actor" or "dataset"
    val_fraction: float = 0.15

    def __post_init__(self) -> None:
        check_settings(self)
        if self.kind not in PROTOCOL_KINDS:
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if self.kind == "kfold" and self.folds < 2:
            raise ValueError("kfold needs at least two folds")
        if self.group_by not in ("actor", "dataset"):
            raise ValueError("group_by must be 'actor' or 'dataset'")
        if self.kind != "split" and (self.group_by != "actor" or self.train_groups
                                     or self.val_groups or self.test_groups):
            raise ValueError(f"{self.kind} protocol takes no group_by or group lists")
        check_val_fraction(self.val_fraction)
        for name in ("train_groups", "val_groups", "test_groups"):
            groups = getattr(self, name)
            # A string is iterable too, and would be split into characters.
            listed = isinstance(groups, (list, tuple)) and all(isinstance(g, str) for g in groups)
            if not listed:
                raise TypeError(f"{name} must be a list of group names, got {groups!r}")
            object.__setattr__(self, name, tuple(groups))
        train, val, test = map(set, (self.train_groups, self.val_groups, self.test_groups))
        if train & test or val & test or train & val:
            raise ValueError("split group lists overlap")


@dataclass(frozen=True)
class Fold:
    train: tuple[int, ...]
    val: tuple[int, ...]
    test: tuple[int, ...]


def check_val_fraction(fraction: float) -> float:
    """The one rule for a validation share: strictly inside (0, 1), which
    also refuses nan. Raises ValueError."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {fraction!r}")
    return fraction


def _carve_validation(pool: list[int], actions: Sequence[str], fraction: float,
                      rng: np.random.Generator) -> tuple[list[int], list[int]]:
    """Split a training pool into train and validation, stratified by action.

    ``actions[i]`` is the action label of record ``i``. Every action keeps at
    least one training sample; actions with a single sample contribute
    nothing to validation. Raises TooFewSamples when that leaves the
    validation set empty.
    """
    by_action: dict[str, list[int]] = {}
    for i in pool:
        by_action.setdefault(actions[i], []).append(i)
    train: list[int] = []
    val: list[int] = []
    for action in sorted(by_action):
        indices = np.array(by_action[action])
        indices = indices[rng.permutation(indices.size)]
        take = min(max(int(round(fraction * indices.size)), 1), indices.size - 1)
        val.extend(int(i) for i in indices[:take])
        train.extend(int(i) for i in indices[take:])
    if not val:
        raise TooFewSamples("validation needs an action with at least two records")
    return sorted(train), sorted(val)


def make_folds(samples: Sequence[Sample], protocol: Protocol,
               seed: int = 0) -> list[Fold]:
    """Build the index folds of a protocol. Deterministic under a fixed seed.

    Each protocol lists its (training pool, test) parts; fold ``f`` then
    carves its validation set out of its pool with the ``[seed, 3, f]``
    stream. A split with matching validation groups keeps them instead.
    """
    if not samples:
        raise TooFewSamples("no samples to partition")
    if protocol.kind == "split":
        train, val, test = _split_groups(samples, protocol)
        if val:
            return [Fold(tuple(train), tuple(val), tuple(test))]
        parts = [(train, test)]
    elif protocol.kind == "loao":
        parts = _loao_parts(samples)
    else:
        parts = _kfold_parts(samples, protocol.folds, seed)
    actions = [s.action for s in samples]
    folds = []
    for f, (pool, test) in enumerate(parts):
        rng = np.random.default_rng([seed, 3, f])
        train, val = _carve_validation(pool, actions, protocol.val_fraction, rng)
        folds.append(Fold(tuple(train), tuple(val), tuple(test)))
    return folds


def _split_groups(samples: Sequence[Sample],
                  protocol: Protocol) -> tuple[list[int], list[int], list[int]]:
    groups = (set(protocol.train_groups), set(protocol.val_groups),
              set(protocol.test_groups))
    keys = [s.actor if protocol.group_by == "actor" else s.dataset for s in samples]
    train, val, test = ([i for i, k in enumerate(keys) if k in g] for g in groups)
    if not train or not test:
        raise TooFewSamples("split protocol left train or test empty")
    return train, val, test


def _loao_parts(samples: Sequence[Sample]) -> list[tuple[list[int], list[int]]]:
    actors = sorted({s.actor for s in samples})
    if len(actors) < 2:
        raise TooFewSamples("leave-one-actor-out needs at least two actors")
    return [([i for i, s in enumerate(samples) if s.actor != actor],
             [i for i, s in enumerate(samples) if s.actor == actor]) for actor in actors]


def _kfold_parts(samples: Sequence[Sample], k: int,
                 seed: int) -> list[tuple[list[int], list[int]]]:
    by_action: dict[str, list[int]] = {}
    for i, s in enumerate(samples):
        by_action.setdefault(s.action, []).append(i)
    rng = np.random.default_rng([seed, 2])
    parts = []
    for action in sorted(by_action):
        indices = np.array(by_action[action])
        if indices.size < k:
            raise TooFewSamples(
                f"action {action!r} has {indices.size} samples, fewer than {k} folds")
        parts.append(np.array_split(indices[rng.permutation(indices.size)], k))
    folds = []
    for f in range(k):
        test = sorted(int(i) for action_parts in parts for i in action_parts[f])
        held = set(test)
        folds.append(([i for i in range(len(samples)) if i not in held], test))
    return folds


# --------------------------------------------------------------------------
# Metrics


def confusion_matrix(truth: Sequence[int], predicted: Sequence[int],
                     classes: int) -> np.ndarray:
    matrix = np.zeros((classes, classes), dtype=np.int64)
    for t, p in zip(truth, predicted):
        matrix[t, p] += 1
    return matrix


def accuracy_scores(confusion: np.ndarray) -> tuple[float, float]:
    """(absolute, relative) accuracy of a confusion matrix.

    Absolute is the global fraction correct; relative is the unweighted mean
    of per-class recalls over classes that appear in the test data.
    """
    total = confusion.sum()
    absolute = float(np.trace(confusion) / total) if total else 0.0
    rows = confusion.sum(axis=1)
    present = rows > 0
    if not present.any():
        return absolute, 0.0
    recalls = np.diag(confusion)[present] / rows[present]
    return absolute, float(recalls.mean())


@dataclass
class EvalReport:
    actions: tuple[str, ...]
    confusion: np.ndarray
    absolute_accuracy: float
    relative_accuracy: float
    per_fold: list[dict]
    config: dict

    def to_dict(self) -> dict:
        return {
            "format": "posehar-report/1",
            "actions": list(self.actions),
            "confusion": self.confusion.tolist(),
            "absolute_accuracy": self.absolute_accuracy,
            "relative_accuracy": self.relative_accuracy,
            "per_fold": self.per_fold,
            "config": self.config,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def render_confusion(self) -> str:
        """Plain-text confusion table, rows true, columns predicted."""
        width = max([len(a) for a in self.actions] + [5])
        cell = max(width, 5)
        header = " " * (width + 2) + " ".join(f"{a:>{cell}}" for a in self.actions)
        lines = [header]
        for r, action in enumerate(self.actions):
            row = " ".join(f"{int(v):>{cell}}" for v in self.confusion[r])
            lines.append(f"{action:<{width}}  {row}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Experiment runner


@dataclass
class PipelineConfig:
    """Everything an experiment run needs besides the data and protocol."""

    mode: str = "advanced"
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    som: SomConfig = field(default_factory=SomConfig)
    pca_components: int = 3
    classifier: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        check_settings(self)
        checked = ClassifierConfig(channels=1, classes=2, **self.classifier)  # stand-in sizes
        self.classifier = {name: getattr(checked, name) for name in self.classifier}
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.pca_components != self.som.m:
            raise ValueError(f"pca_components ({self.pca_components}) must equal the "
                             f"som lattice dimension m ({self.som.m})")


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _classifier_config(pipeline: PipelineConfig, channels: int, classes: int,
                       fold: int) -> ClassifierConfig:
    overrides = dict(pipeline.classifier)
    overrides.setdefault("rng_seed", _derived_seed(pipeline.seed, 7, fold))
    return ClassifierConfig(channels=channels, classes=classes, **overrides)


def run_experiment(samples: Sequence[Sample], protocol: Protocol,
                   pipeline: PipelineConfig) -> EvalReport:
    """Run the full pipeline under a protocol and score the test folds.

    Everything fitted (reduction models, libraries, classifier, batch-norm
    statistics) sees training-fold data only; augmentation is applied to the
    training fold only. Samples of a single action are TooFewSamples, and a
    classifier size no machine can allocate is a ConfigError, before any
    fold is built.
    """
    actions = sorted({s.action for s in samples})
    if len(actions) == 1:
        raise TooFewSamples(f"classifying needs at least two actions; the samples hold "
                            f"only {actions[0]!r}")
    class_of = {a: i for i, a in enumerate(actions)}
    folds = make_folds(samples, protocol, pipeline.seed)
    tests = [_scored_test(samples, fold, f) for f, fold in enumerate(folds)]
    init_model(_classifier_config(pipeline, len(channel_names(pipeline.mode, actions)),
                                  len(actions), 0))

    prep_cache: dict[int, object] = {}

    def prepped(i: int):
        if i not in prep_cache:
            prep_cache[i], _ = preprocess_sample(samples[i])
        return prep_cache[i]

    confusion = np.zeros((len(actions), len(actions)), dtype=np.int64)
    per_fold: list[dict] = []
    for f, fold in enumerate(folds):
        train_idx, val_idx, test_idx = list(fold.train), list(fold.val), tests[f]
        if pipeline.mode == "baseline":
            train_pairs, val_pairs, test_series = _baseline_fold(
                samples, train_idx, val_idx, test_idx, pipeline, class_of)
        else:
            train_pairs, val_pairs, test_series = _pipeline_fold(
                prepped, train_idx, val_idx, test_idx, pipeline, class_of)

        channels = train_pairs[0][0].shape[0]
        config = _classifier_config(pipeline, channels, len(actions), f)
        model, history = train(config, train_pairs, val_pairs)
        predicted = predict(model, test_series)
        truth = [class_of[samples[i].action] for i in test_idx]
        fold_confusion = confusion_matrix(truth, predicted, len(actions))
        confusion += fold_confusion
        fold_abs, fold_rel = accuracy_scores(fold_confusion)
        per_fold.append({
            "fold": f,
            "test_samples": len(test_idx),
            "absolute_accuracy": fold_abs,
            "relative_accuracy": fold_rel,
            "epochs_run": len(history),
        })
        log.info("fold %d/%d: accuracy %.3f on %d test samples",
                 f + 1, len(folds), fold_abs, len(test_idx))

    absolute, relative = accuracy_scores(confusion)
    return EvalReport(tuple(actions), confusion, absolute, relative, per_fold,
                      {**asdict(pipeline), "protocol": asdict(protocol)})


def _scored_test(samples: Sequence[Sample], fold: Fold, f: int) -> list[int]:
    """Fold ``f``'s test samples of actions its training set holds (the rest
    are dropped with a warning); none left is TooFewSamples."""
    train, val = set(fold.train), set(fold.val)
    if (train | val) & set(fold.test) or train & val:
        raise ValueError("fold partitions overlap; refusing to continue")
    seen = {samples[i].action for i in train}
    test = [i for i in fold.test if samples[i].action in seen]
    if len(test) < len(fold.test):
        log.warning("fold %d: dropping %d test sample(s) of action(s) absent from training",
                    f, len(fold.test) - len(test))
    if not test:
        raise TooFewSamples(f"fold {f}: no test sample has an action the training set holds")
    return test


def _baseline_fold(samples, train_idx, val_idx, test_idx, pipeline, class_of):
    if pipeline.augment.flip or pipeline.augment.z > 0:
        log.warning("baseline mode works on raw coordinates; augmentation skipped")
    train_pairs = [(baseline_channels(samples[i]).values, class_of[samples[i].action])
                   for i in train_idx]
    val_pairs = [(baseline_channels(samples[i]).values, class_of[samples[i].action])
                 for i in val_idx]
    test_series = [baseline_channels(samples[i]).values for i in test_idx]
    return train_pairs, val_pairs, test_series


def _pipeline_fold(prepped, train_idx, val_idx, test_idx, pipeline, class_of):
    augmented = augment_set([prepped(i) for i in train_idx], pipeline.augment)
    if pipeline.mode == "advanced":
        bundle = build_bundle(augmented, pipeline.pca_components, pipeline.som)
        spatial, temporal = bundle.spatial, bundle.temporal
    else:
        spatial = temporal = None

    # The fold's train, validation and test sequences, embedded in one call.
    items = [*augmented, *map(prepped, val_idx), *map(prepped, test_idx)]
    embedded = embed_sequences([item.seq for item in items], spatial, temporal, pipeline.mode)
    pairs = [(channels.values, class_of[item.action]) for channels, item in zip(embedded, items)]
    n_train, n_val = len(augmented), len(val_idx)
    return (pairs[:n_train], pairs[n_train:n_train + n_val],
            [values for values, _ in pairs[n_train + n_val:]])
