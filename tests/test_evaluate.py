"""Protocol folds, metrics, and the experiment runner."""

import json

import numpy as np
import pytest

from posehar.augment import AugmentConfig
from posehar.errors import TooFewSamples
from posehar.evaluate import (
    EvalReport,
    PipelineConfig,
    Protocol,
    accuracy_scores,
    confusion_matrix,
    make_folds,
    run_experiment,
)
from posehar.pose import N_LANDMARKS, Sample
from posehar.som import SomConfig
from posehar.synth import generate_corpus


def tiny_sample(rng, action, actor, dataset="demo"):
    xy = rng.normal(200.0, 40.0, (3, N_LANDMARKS, 2))
    return Sample(xy, np.ones((3, N_LANDMARKS), dtype=bool), action, "front", actor, dataset)


def corpus(rng, actions=("wave", "squat"), actors=("a1", "a2", "a3"), copies=2):
    samples = []
    for action in actions:
        for actor in actors:
            for _ in range(copies):
                samples.append(tiny_sample(rng, action, actor))
    return samples


def test_protocol_validation():
    with pytest.raises(ValueError):
        Protocol(kind="holdout")
    with pytest.raises(ValueError):
        Protocol(kind="kfold", folds=1)
    with pytest.raises(ValueError):
        Protocol(group_by="viewpoint")
    with pytest.raises(ValueError):
        Protocol(val_fraction=0.0)
    for overlap in ({"train_groups": ("a0", "a1"), "test_groups": ("a1",)},
                    {"val_groups": ("a1",), "test_groups": ("a1",)},
                    {"train_groups": ("a1",), "val_groups": ("a1",)}):
        with pytest.raises(ValueError, match="split group lists overlap"):
            Protocol(kind="split", **overlap)


@pytest.mark.parametrize("kind", ["loao", "kfold"])
def test_protocol_refuses_settings_its_kind_ignores(kind):
    for ignored in ({"group_by": "dataset"}, {"train_groups": ("a1",)},
                    {"val_groups": ("a1",)}, {"test_groups": ("x",)}):
        with pytest.raises(ValueError, match="takes no group_by or group lists"):
            Protocol(kind=kind, **ignored)
    Protocol(kind="split", group_by="dataset", test_groups=("x",))


@pytest.mark.parametrize("field", ["train_groups", "val_groups", "test_groups"])
@pytest.mark.parametrize("groups", ["a1", ("a1", 2), 5], ids=["string", "number", "scalar"])
def test_group_lists_must_be_lists_of_names(field, groups):
    with pytest.raises(TypeError, match=f"{field} must be a list of group names"):
        Protocol(kind="split", **{field: groups})
    assert getattr(Protocol(kind="split", **{field: ["a1"]}), field) == ("a1",)


def assert_fold_sane(fold, n):
    train, val, test = set(fold.train), set(fold.val), set(fold.test)
    assert train and test
    assert not train & test
    assert not val & test
    assert not train & val
    assert train | val | test <= set(range(n))


def test_split_protocol_groups_and_carving():
    rng = np.random.default_rng(90)
    samples = corpus(rng, actors=("a1", "a2", "a3", "a4"))
    protocol = Protocol(kind="split", train_groups=("a1", "a2", "a3"),
                        test_groups=("a4",))
    folds = make_folds(samples, protocol, seed=1)
    assert len(folds) == 1
    fold = folds[0]
    assert_fold_sane(fold, len(samples))
    assert {samples[i].actor for i in fold.test} == {"a4"}
    assert {samples[i].actor for i in fold.train} <= {"a1", "a2", "a3"}
    # validation was carved out of the training groups, stratified
    assert fold.val
    assert {samples[i].actor for i in fold.val} <= {"a1", "a2", "a3"}
    val_actions = {samples[i].action for i in fold.val}
    assert val_actions == {"wave", "squat"}

    explicit = Protocol(kind="split", train_groups=("a1", "a2"),
                        val_groups=("a3",), test_groups=("a4",))
    fold = make_folds(samples, explicit, seed=1)[0]
    assert {samples[i].actor for i in fold.val} == {"a3"}

    with pytest.raises(ValueError):
        make_folds(samples, Protocol(kind="split", train_groups=("a1",),
                                     test_groups=("a1",)), seed=1)
    with pytest.raises(TooFewSamples):
        make_folds(samples, Protocol(kind="split", train_groups=("a1",),
                                     test_groups=("nobody",)), seed=1)


def test_split_protocol_by_dataset():
    rng = np.random.default_rng(91)
    samples = [tiny_sample(rng, "wave", "a1", "src"),
               tiny_sample(rng, "wave", "a2", "src"),
               tiny_sample(rng, "wave", "a9", "dst"),
               tiny_sample(rng, "squat", "a1", "src"),
               tiny_sample(rng, "squat", "a2", "src")]
    protocol = Protocol(kind="split", train_groups=("src",),
                        test_groups=("dst",), group_by="dataset")
    fold = make_folds(samples, protocol, seed=0)[0]
    assert list(fold.test) == [2]
    assert set(fold.train) | set(fold.val) == {0, 1, 3, 4}


def test_loao_folds():
    rng = np.random.default_rng(92)
    samples = corpus(rng)
    folds = make_folds(samples, Protocol(kind="loao"), seed=2)
    assert len(folds) == 3   # one per actor
    seen_test = []
    for fold in folds:
        assert_fold_sane(fold, len(samples))
        actors = {samples[i].actor for i in fold.test}
        assert len(actors) == 1
        actor = actors.pop()
        assert {samples[i].actor for i in fold.train + fold.val}.isdisjoint({actor})
        seen_test.extend(fold.test)
    assert sorted(seen_test) == list(range(len(samples)))

    solo = [tiny_sample(rng, "wave", "only")]
    with pytest.raises(TooFewSamples):
        make_folds(solo, Protocol(kind="loao"), seed=0)


def test_kfold_folds_balance_and_coverage():
    rng = np.random.default_rng(93)
    samples = corpus(rng, actors=("a1", "a2", "a3"), copies=3)   # 9 per action
    protocol = Protocol(kind="kfold", folds=3)
    folds = make_folds(samples, protocol, seed=5)
    assert len(folds) == 3
    all_test = []
    for fold in folds:
        assert_fold_sane(fold, len(samples))
        # every action appears in every test fold, in near-equal share
        for action in ("wave", "squat"):
            count = sum(1 for i in fold.test if samples[i].action == action)
            assert count == 3
        all_test.extend(fold.test)
    assert sorted(all_test) == list(range(len(samples)))

    again = make_folds(samples, protocol, seed=5)
    assert folds == again
    other = make_folds(samples, protocol, seed=6)
    assert folds != other

    with pytest.raises(TooFewSamples):
        make_folds(samples, Protocol(kind="kfold", folds=10), seed=0)


def test_fold_with_nothing_to_validate_on_is_refused():
    rng = np.random.default_rng(94)
    samples = corpus(rng, actors=("a1", "a2"), copies=1)   # one per action and actor
    protocols = [Protocol(kind="loao"), Protocol(kind="kfold", folds=2),
                 Protocol(kind="split", train_groups=("a1",), test_groups=("a2",))]
    for protocol in protocols:
        with pytest.raises(TooFewSamples, match="validation needs an action"):
            make_folds(samples, protocol, seed=0)


def test_confusion_matrix_and_scores():
    matrix = confusion_matrix([0, 0, 1, 1, 2], [0, 1, 1, 1, 0], 3)
    np.testing.assert_array_equal(matrix, [[1, 1, 0], [0, 2, 0], [1, 0, 0]])
    absolute, relative = accuracy_scores(matrix)
    assert absolute == pytest.approx(3 / 5)
    assert relative == pytest.approx((1 / 2 + 2 / 2 + 0 / 1) / 3)


def test_relative_accuracy_ignores_absent_classes():
    # an always-first-class predictor on a 90/10 imbalance
    matrix = np.array([[90, 0], [10, 0]])
    absolute, relative = accuracy_scores(matrix)
    assert absolute == pytest.approx(0.9)
    assert relative == pytest.approx(0.5)
    # class 2 never appears in the test data: it does not dilute the mean
    matrix3 = np.array([[90, 0, 0], [10, 0, 0], [0, 0, 0]])
    _, relative3 = accuracy_scores(matrix3)
    assert relative3 == pytest.approx(0.5)
    assert accuracy_scores(np.zeros((2, 2), dtype=int)) == (0.0, 0.0)


def test_eval_report_rendering():
    report = EvalReport(("squat", "wave"), np.array([[3, 1], [0, 4]]),
                        7 / 8, 0.875, [{"fold": 0}], {"mode": "basic"})
    text = report.render_confusion()
    lines = text.splitlines()
    assert "squat" in lines[0] and "wave" in lines[0]
    assert lines[1].startswith("squat")
    payload = report.to_dict()
    assert payload["format"] == "posehar-report/1"
    assert payload["confusion"] == [[3, 1], [0, 4]]
    assert "wave" in report.to_json()


def fast_pipeline(mode, seed=0):
    return PipelineConfig(
        mode=mode,
        augment=AugmentConfig(z=0, sigma=0.0, flip=False, rng_seed=seed),
        som=SomConfig(q=2, m=2, epochs=3, rng_seed=seed),
        pca_components=2,
        classifier={"conv_blocks": ((6, 3),), "recurrent_units": 6,
                    "max_epochs": 2, "batch_size": 8},
        seed=seed,
    )


def synth_samples():
    return generate_corpus(3, ("wave-one-arm", "squat"), ("front",), seed=4, frames=14)


@pytest.mark.parametrize("mode", ["baseline", "basic"])
def test_run_experiment_produces_consistent_report(mode):
    samples = synth_samples()
    protocol = Protocol(kind="loao")
    report = run_experiment(samples, protocol, fast_pipeline(mode))
    assert report.actions == ("squat", "wave-one-arm")
    assert report.confusion.shape == (2, 2)
    assert report.confusion.sum() == len(samples)   # every sample tested once
    assert 0.0 <= report.absolute_accuracy <= 1.0
    assert len(report.per_fold) == 3
    assert report.config["mode"] == mode
    total = sum(f["test_samples"] for f in report.per_fold)
    assert total == len(samples)


def test_run_experiment_is_deterministic():
    samples = synth_samples()
    protocol = Protocol(kind="kfold", folds=3)
    a = run_experiment(samples, protocol, fast_pipeline("basic", seed=3))
    b = run_experiment(samples, protocol, fast_pipeline("basic", seed=3))
    np.testing.assert_array_equal(a.confusion, b.confusion)
    assert a.per_fold == b.per_fold


def test_report_of_numpy_integer_settings_serializes():
    # numpy integers once reached the report's config and to_json raised
    pipeline = PipelineConfig(
        mode="basic", augment=AugmentConfig(z=np.int64(0), flip=np.bool_(False)),
        som=SomConfig(q=np.int64(2), m=np.int64(2), epochs=np.int32(3)),
        pca_components=np.int64(2), seed=np.int64(3),
        classifier={"conv_blocks": [[np.int64(6), 3]], "recurrent_units": np.int64(6),
                    "max_epochs": np.int64(1), "batch_size": np.int64(8)})
    report = run_experiment(synth_samples(), Protocol(kind="kfold", folds=np.int64(3)),
                            pipeline)
    config = json.loads(report.to_json())["config"]
    assert config["augment"]["z"] == 0 and config["seed"] == 3
    assert config["classifier"]["conv_blocks"] == [[6, 3]]
    assert config["protocol"]["folds"] == 3


def test_run_experiment_drops_unseen_test_actions():
    rng = np.random.default_rng(94)
    # "march" exists only in the test dataset; it cannot be learned
    samples = ([tiny_sample(rng, a, f"a{i}", "src") for a in ("wave", "squat")
                for i in range(4)]
               + [tiny_sample(rng, "wave", "b1", "dst"),
                  tiny_sample(rng, "squat", "b1", "dst"),
                  tiny_sample(rng, "march", "b1", "dst")])
    protocol = Protocol(kind="split", train_groups=("src",),
                        test_groups=("dst",), group_by="dataset")
    report = run_experiment(samples, protocol, fast_pipeline("baseline"))
    march_row = report.actions.index("march")
    assert report.confusion[march_row].sum() == 0
    assert report.confusion.sum() == 2


def test_fold_with_no_scorable_test_sample_is_refused_before_fitting(monkeypatch):
    rng = np.random.default_rng(95)
    # the test dataset holds only "march", which training never sees
    samples = ([tiny_sample(rng, a, f"a{i}", "src") for a in ("still", "squat")
                for i in range(4)]
               + [tiny_sample(rng, "march", "b1", "dst")])
    protocol = Protocol(kind="split", train_groups=("src",),
                        test_groups=("dst",), group_by="dataset")

    def no_fitting(*args, **kwargs):
        raise AssertionError("fitted a fold that cannot be scored")

    monkeypatch.setattr("posehar.evaluate.train", no_fitting)
    monkeypatch.setattr("posehar.evaluate.build_bundle", no_fitting)
    for mode in ("baseline", "advanced"):
        with pytest.raises(TooFewSamples, match="fold 0: no test sample"):
            run_experiment(samples, protocol, fast_pipeline(mode))
