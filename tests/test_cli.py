"""End-to-end command line checks, run in process through main()."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from posehar.classifier import load_model
from posehar.cli import main
from posehar.embed import channel_names
from posehar.io import SEQ_MAGIC, write_dataset, write_manifest, write_sample
from posehar.som import ModelBundle, save_bundle
from posehar.synth import generate_corpus

CONFIG = {
    "seed": 11,
    "mode": "basic",
    "som": {"q": 2, "m": 2, "epochs": 3},
    "augment": {"z": 1, "sigma": 0.01},
    "classifier": {"conv_blocks": [[6, 3]], "recurrent_units": 6,
                   "max_epochs": 3, "batch_size": 8},
    "protocol": {"kind": "kfold", "folds": 3},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One full pipeline run shared by the assertions below."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    base = ["--config", str(config)]

    assert main(base + ["synth", "--out", str(root / "raw"), "--actors", "3",
                        "--archetypes", "wave-one-arm,squat",
                        "--frames", "12"]) == 0
    assert main(base + ["preprocess", "--manifest", str(root / "raw/manifest.json"),
                        "--out", str(root / "norm")]) == 0
    assert main(base + ["augment", "--manifest", str(root / "norm/manifest.json"),
                        "--out", str(root / "aug")]) == 0
    assert main(base + ["build-libraries",
                        "--manifest", str(root / "aug/manifest.json"),
                        "--out", str(root / "bundle.npz")]) == 0
    assert main(base + ["train", "--manifest", str(root / "aug/manifest.json"),
                        "--out", str(root / "model.npz")]) == 0
    assert main(base + ["train", "--manifest", str(root / "norm/manifest.json"),
                        "--mode", "advanced", "--bundle", str(root / "bundle.npz"),
                        "--out", str(root / "model-advanced.npz")]) == 0
    return root


def test_synth_writes_records_and_manifest(workdir):
    manifest = json.loads((workdir / "raw/manifest.json").read_text())
    assert manifest["format"] == "posehar-manifest/1"
    assert manifest["actions"] == ["squat", "wave-one-arm"]
    assert len(manifest["entries"]) == 6
    for entry in manifest["entries"]:
        assert (workdir / "raw" / entry["path"]).exists()


def test_preprocess_reports(workdir):
    report = json.loads((workdir / "norm/report.json").read_text())
    assert len(report) == 6
    assert all(r["frames_in"] == 12 for r in report)
    first = (workdir / "norm" / json.loads(
        (workdir / "norm/manifest.json").read_text())["entries"][0]["path"])
    assert first.read_text().startswith("#posehar-seq v1")


def test_augment_doubles_with_flips(workdir):
    manifest = json.loads((workdir / "aug/manifest.json").read_text())
    # z=1 noised copy plus flips of everything: 2 * N * (1 + 1)
    assert len(manifest["entries"]) == 24


def test_embedding_channel_counts(workdir):
    basic, actions = load_model(workdir / "model.npz")
    assert basic.config.channels == 56
    advanced, advanced_actions = load_model(workdir / "model-advanced.npz")
    assert advanced.config.channels == 56 + 10 * 2
    assert actions == advanced_actions == ["squat", "wave-one-arm"]


def predict(workdir, capsys, target, extra=()):
    code = main(["predict", "--model", str(workdir / "model.npz"),
                 "--mode", "basic", "--input", str(target), *extra])
    assert code == 0
    return json.loads(capsys.readouterr().out)


def test_predict_accepts_raw_and_normalized(workdir, capsys):
    raw = sorted((workdir / "raw").glob("*.seq"))[0]
    norm = sorted((workdir / "norm").glob("*.seq"))[0]
    results = [predict(workdir, capsys, p) for p in (raw, norm)]
    for result in results:
        assert set(result) == {"label", "probabilities"}
        assert result["label"] in result["probabilities"]
        total = sum(result["probabilities"].values())
        assert total == pytest.approx(1.0, abs=1e-9)
    # raw and normalized go through the same preprocessing, so they agree
    assert results[0] == results[1]


def test_predict_reads_a_detector_clip_as_ingest_writes_it(workdir, tmp_path, capsys):
    # The wrists fall below the threshold in odd frames, so it decides what
    # is present; the clip and the record ingest writes from it must agree.
    det = write_detector_dataset(tmp_path / "det", frames=8)
    assert main(["ingest", "--manifest", str(det / "manifest.json"),
                 "--out", str(tmp_path / "raw"), "--threshold", "0.1"]) == 0
    capsys.readouterr()
    record = sorted((tmp_path / "raw").glob("*.seq"))[0]
    for mode, model in (("basic", "model.npz"), ("advanced", "model-advanced.npz")):
        printed = []
        for target in (det / "clip", record):
            assert main(["predict", "--model", str(workdir / model), "--input", str(target),
                         "--mode", mode, "--bundle", str(workdir / "bundle.npz"),
                         "--threshold", "0.1"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and json.loads(printed[0])["label"]


def test_predict_refuses_baseline_mode(workdir, tmp_path, capsys, caplog):
    # No model takes the 28 raw-coordinate channels: train makes only basic
    # and advanced ones.
    raw = sorted((workdir / "raw").glob("*.seq"))[0]
    command = ["predict", "--model", str(workdir / "model.npz"), "--input", str(raw)]
    with pytest.raises(SystemExit) as exited:
        main([*command, "--mode", "baseline"])
    assert exited.value.code == 2
    assert "invalid choice: 'baseline'" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": "baseline"}))
    assert main(["--config", str(config), *command]) == 2
    assert capsys.readouterr().out == ""
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "must be one of basic, advanced" in errors[0]


def test_predict_rejects_non_finite_record(workdir, tmp_path, capsys, caplog):
    raw = sorted((workdir / "raw").glob("*.seq"))[0]
    lines = raw.read_text().splitlines()
    fields = lines[3].split()
    fields[0] = "nan"
    lines[3] = " ".join(fields)
    bad = tmp_path / "nan.seq"
    bad.write_text("\n".join(lines) + "\n")
    code = main(["predict", "--model", str(workdir / "model.npz"),
                 "--mode", "basic", "--input", str(bad)])
    assert code == 3
    assert capsys.readouterr().out == ""
    assert f"{bad}, frame 2: non-finite value" in caplog.text


def corrupt_copy(source: Path, target: Path, edit) -> Path:
    """Write ``target``: the bytes ``garbage`` when ``edit`` is None, else the
    .npz archive ``source`` with ``edit`` applied to its entries."""
    if edit is None:
        target.write_bytes(b"garbage")
        return target
    with np.load(source) as data:
        arrays = {key: data[key] for key in data.files}
    edit(arrays)
    with open(target, "wb") as fh:
        np.savez(fh, **arrays)
    return target


def one_line_error(caplog, path) -> bool:
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    return len(errors) == 1 and "\n" not in errors[0] and str(path) in errors[0]


def set_entry(key, change):
    """An archive edit that replaces entry ``key`` by ``change(value)``."""
    return lambda arrays: arrays.update({key: change(arrays[key])})


def set_meta(change):
    """An archive edit that applies ``change`` to the decoded meta object."""
    def edit(meta):
        meta = json.loads(str(meta))
        change(meta)
        return np.array(json.dumps(meta))
    return set_entry("meta", edit)


# A model of the previous format, whose config held the deleted settings.
retag = set_meta(lambda meta: meta.update(format="posehar-classifier/2"))


# Past the first two, each case is an archive np.load reads without
# complaint: NaN or negative batch-norm statistics, a meta size no machine
# could allocate, a string parameter, fewer action names than classes, a
# config key no setting has, an earlier format tag.
@pytest.mark.parametrize("edit", [
    None,
    lambda arrays: arrays.pop("param/out_w"),
    set_entry("param/out_b", lambda value: value * np.nan),
    set_entry("running/bn0_var", lambda value: value * np.nan),
    set_entry("running/bn0_var", lambda value: np.full_like(value, -1e-5)),
    set_meta(lambda meta: meta["config"].update(recurrent_units=10**12)),
    set_entry("param/out_w", lambda value: value.astype(str)),
    set_meta(lambda meta: meta.update(actions=meta["actions"][:1])),
    set_meta(lambda meta: meta["config"].update(attention=True)),
    set_meta(lambda meta: meta["config"].update(batch_size=2.5)),
    set_meta(lambda meta: meta["config"].update(conv_blocks=[[6, 3.5]])),
    set_meta(lambda meta: meta.pop("actions")),
    retag,
], ids=["garbage", "missing out_w", "nan out_b", "nan bn0_var", "negative bn0_var",
        "huge recurrent_units", "string out_w", "short actions", "deleted setting in meta",
        "fractional batch_size", "fractional conv width", "meta actions dropped",
        "previous format"])
def test_predict_rejects_corrupt_model(workdir, tmp_path, capsys, caplog, edit):
    model = corrupt_copy(workdir / "model.npz", tmp_path / "model.npz", edit)
    norm = sorted((workdir / "norm").glob("*.seq"))[0]
    code = main(["predict", "--model", str(model), "--mode", "basic",
                 "--input", str(norm)])
    assert code == 3
    assert capsys.readouterr().out == ""
    assert one_line_error(caplog, model)
    if edit is retag:
        assert "'posehar-classifier/2' is not posehar-classifier/3" in caplog.text


def drop_weight(arrays):
    arrays["lib/spatial/squat/weight"] = arrays["lib/spatial/squat/weight"][:-1]


def nan_prototypes(arrays):
    arrays["lib/temporal/squat/landmarks"] = arrays["lib/temporal/squat/landmarks"] * np.nan


@pytest.mark.parametrize("edit", [None, lambda arrays: arrays.pop("lib/spatial/squat/landmarks"),
                                  drop_weight, nan_prototypes],
                         ids=["garbage", "missing entry", "short weight", "nan prototypes"])
def test_train_rejects_corrupt_bundle(workdir, tmp_path, capsys, caplog, edit):
    bundle = corrupt_copy(workdir / "bundle.npz", tmp_path / "bundle.npz", edit)
    code = main(["train", "--manifest", str(workdir / "norm/manifest.json"),
                 "--mode", "advanced", "--bundle", str(bundle),
                 "--out", str(tmp_path / "model.npz")])
    assert code == 3
    assert capsys.readouterr().out == ""
    assert one_line_error(caplog, bundle)
    assert not (tmp_path / "model.npz").exists()


def test_train_rejects_a_bundle_without_libraries(workdir, tmp_path, capsys, caplog):
    # It once saved and loaded, then failed inside the distance kernel.
    bundle = tmp_path / "empty.npz"
    save_bundle(bundle, ModelBundle({}, {}, (), {"pca_components": 3, "som": {}}))
    code = main(["train", "--manifest", str(workdir / "norm/manifest.json"),
                 "--mode", "advanced", "--bundle", str(bundle),
                 "--out", str(tmp_path / "model.npz")])
    assert code == 3
    assert capsys.readouterr().out == ""
    assert one_line_error(caplog, bundle)
    assert "needs at least one spatial library" in caplog.text


def test_predict_refuses_an_emb_input(workdir, tmp_path, capsys, caplog):
    # Channel dumps are not an input format; predict reads clips and .seq records.
    # This one is well formed in the retired channel format (a header naming the
    # basic-mode channels, then one row per channel), which predict once classified.
    emb = tmp_path / "x.emb"
    names = channel_names("basic")
    header = json.dumps({"channels": list(names), "length": 12})
    rows = [" ".join(["0.5"] * 12)] * len(names)
    emb.write_text("\n".join([f"{SEQ_MAGIC.replace('seq', 'emb')} {header}", *rows]) + "\n")
    code = main(["predict", "--model", str(workdir / "model.npz"), "--mode", "basic",
                 "--input", str(emb)])
    assert code == 3
    assert capsys.readouterr().out == ""
    assert one_line_error(caplog, emb)


def test_predict_rejects_a_pca_entry_in_a_current_bundle(workdir, tmp_path, capsys, caplog):
    # posehar-bundle/3 stores no PCA model, so a pca entry is unexpected.
    bundle = corrupt_copy(workdir / "bundle.npz", tmp_path / "bundle.npz",
                          lambda arrays: arrays.update({"pca/spatial/mean": np.zeros(26)}))
    norm = sorted((workdir / "norm").glob("*.seq"))[0]
    code = main(["predict", "--model", str(workdir / "model.npz"), "--mode", "advanced",
                 "--bundle", str(bundle), "--input", str(norm)])
    assert code == 3
    assert capsys.readouterr().out == ""
    assert one_line_error(caplog, bundle)
    assert "unexpected entries pca/spatial/mean" in caplog.text


def test_evaluate_writes_report(workdir, capsys, caplog):
    out = workdir / "report.json"
    code = main(["--config", str(workdir / "config.json"), "evaluate",
                 "--manifest", str(workdir / "raw/manifest.json"),
                 "--mode", "baseline", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "absolute accuracy:" in printed
    report = json.loads(out.read_text())
    assert report["format"] == "posehar-report/1"
    assert report["actions"] == ["squat", "wave-one-arm"]
    assert report["config"]["mode"] == "baseline"
    assert len(report["per_fold"]) == 3
    # the config's noise and flip do not apply to raw coordinates
    assert {r.getMessage() for r in caplog.records if r.levelname == "WARNING"} == {
        "baseline mode works on raw coordinates; augmentation skipped"}
    assert sum(f["test_samples"] for f in report["per_fold"]) == 6


def read_all(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_synth_is_byte_deterministic(tmp_path):
    for out in ("one", "two"):
        assert main(["synth", "--out", str(tmp_path / out), "--actors", "2",
                     "--archetypes", "march", "--frames", "8",
                     "--seed", "5"]) == 0
    assert read_all(tmp_path / "one") == read_all(tmp_path / "two")


def test_seed_flag_position_and_precedence(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1}))
    # flag before the subcommand, flag after it, and flag overriding config
    assert main(["--seed", "5", "synth", "--out", str(tmp_path / "before"),
                 "--actors", "1", "--archetypes", "still", "--frames", "4"]) == 0
    assert main(["synth", "--seed", "5", "--out", str(tmp_path / "after"),
                 "--actors", "1", "--archetypes", "still", "--frames", "4"]) == 0
    assert main(["--config", str(config), "--seed", "5", "synth",
                 "--out", str(tmp_path / "override"),
                 "--actors", "1", "--archetypes", "still", "--frames", "4"]) == 0
    assert main(["--config", str(config), "synth",
                 "--out", str(tmp_path / "fromfile"),
                 "--actors", "1", "--archetypes", "still", "--frames", "4"]) == 0
    before = read_all(tmp_path / "before")
    assert read_all(tmp_path / "after") == before
    assert read_all(tmp_path / "override") == before
    assert read_all(tmp_path / "fromfile") != before


def test_exit_codes(tmp_path, capsys):
    # missing input data -> 3
    assert main(["preprocess", "--manifest", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == 3
    # malformed config file -> 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "synth", "--out", str(tmp_path / "y")]) == 2
    # bad option value -> 2
    assert main(["synth", "--out", str(tmp_path / "z"),
                 "--viewpoints", "above"]) == 2
    # unknown flags are an argparse error, also 2
    with pytest.raises(SystemExit) as err:
        main(["synth", "--bogus"])
    assert err.value.code == 2
    capsys.readouterr()


def test_train_rejects_bad_classifier_settings(workdir, tmp_path, caplog):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"classifier": {"dropout": 2.0}}))
    assert main(["--config", str(config), "train", "--mode", "basic",
                 "--manifest", str(workdir / "norm/manifest.json"),
                 "--out", str(tmp_path / "model.npz")]) == 2
    assert "dropout must be in [0, 1)" in caplog.text
    assert not (tmp_path / "model.npz").exists()


def test_train_refuses_bad_classifier_settings_before_reading_data(tmp_path, capsys, caplog):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"classifier": {"dropout": 2.0}}))
    # the manifest does not exist: the settings are refused first
    assert main(["--config", str(config), "train",
                 "--manifest", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "model.npz")]) == 2
    assert capsys.readouterr().out == ""
    assert "dropout must be in [0, 1)" in caplog.text
    assert "absent.json" not in caplog.text


def test_synth_refuses_an_unknown_viewpoint(tmp_path, capsys, caplog):
    assert main(["synth", "--out", str(tmp_path / "raw"),
                 "--viewpoints", "front,above"]) == 2
    assert capsys.readouterr().out == ""
    assert "unknown viewpoint 'above'" in caplog.text
    assert not (tmp_path / "raw").exists()


@pytest.mark.parametrize("section, command, flag, records", [
    ("classifier", "train", "--manifest", "norm"),
    ("augment", "augment", "--manifest", "norm"),
    ("som", "build-libraries", "--manifest", "norm"),
])
def test_negative_section_seed_is_a_config_error(workdir, tmp_path, capsys, caplog,
                                                 section, command, flag, records):
    # the global seed is checked on its own; a section may override it
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: {"rng_seed": -1}}))
    assert main(["--config", str(config), command, flag, str(workdir / records / "manifest.json"),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().out == ""
    assert "rng_seed must be non-negative" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("blocks", [[[6, 3.7]], [[True, "3"]]],
                         ids=["fractional width", "bool and string entries"])
def test_train_refuses_a_conv_block_that_is_not_two_integers(workdir, tmp_path, caplog,
                                                             blocks):
    # int() once made these a width-3 and a (1, 3) block, and training went on
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"classifier": {"conv_blocks": blocks}}))
    assert main(["--config", str(config), "train", "--mode", "basic",
                 "--manifest", str(workdir / "norm/manifest.json"),
                 "--out", str(tmp_path / "model.npz")]) == 2
    assert "conv_blocks must list (filters, width) integer pairs" in caplog.text
    assert not (tmp_path / "model.npz").exists()


@pytest.mark.parametrize("rate", [-0.01, 0])
def test_train_refuses_a_learning_rate_that_is_not_positive(workdir, tmp_path, caplog, rate):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"classifier": {"learning_rate": rate}}))
    assert main(["--config", str(config), "train", "--mode", "basic",
                 "--manifest", str(workdir / "norm/manifest.json"),
                 "--out", str(tmp_path / "model.npz")]) == 2
    assert "learning_rate must be positive" in caplog.text
    assert not (tmp_path / "model.npz").exists()


def run_missing_model(command, tmp_path):
    """Run ``predict`` on a model file that does not exist."""
    return subprocess.run(
        [*command, "predict", "--model", str(tmp_path / "absent.npz"),
         "--input", str(tmp_path / "absent.seq")],
        capture_output=True, text=True)


def test_console_script_is_installed(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "posehar.cli", "synth", "--out",
         str(tmp_path / "s"), "--actors", "1", "--archetypes", "still",
         "--frames", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "wrote 1 samples" in proc.stdout
    missing = run_missing_model([sys.executable, "-m", "posehar.cli"], tmp_path)
    assert missing.returncode == 3
    # the declared console script must resolve to the main() exercised above
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module_name, _, attr = scripts["posehar"].partition(":")
    assert getattr(importlib.import_module(module_name), attr) is main


def test_package_runs_as_a_module(tmp_path):
    # from a checkout: only the source directory is on the path
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "posehar", "--help"],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: posehar")
    missing = subprocess.run(
        [sys.executable, "-m", "posehar", "predict", "--model", str(tmp_path / "absent.npz"),
         "--input", str(tmp_path / "absent.seq")],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert missing.returncode == 3


@pytest.mark.skipif(
    shutil.which("posehar") is None,
    reason="no posehar script on PATH: it exists only after `pip install -e .`,"
           " which also needs the wheel package")
def test_installed_executable_exits_3_for_missing_model(tmp_path):
    missing = run_missing_model(["posehar"], tmp_path)
    assert missing.returncode == 3


def test_advanced_train_requires_bundle(tmp_path, capsys, caplog):
    # the manifest does not exist: the missing bundle is refused first
    assert main(["train", "--manifest", str(tmp_path / "absent.json"),
                 "--mode", "advanced", "--out", str(tmp_path / "model.npz")]) == 2
    assert capsys.readouterr().out == ""
    assert "advanced mode needs --bundle" in caplog.text
    assert "absent.json" not in caplog.text


def refused_for_pca_components(caplog) -> bool:
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    return len(errors) == 1 and "unknown key(s) 'pca_components'" in errors[0]


def no_reading(*args, **kwargs):
    raise AssertionError("read data before the config was checked")


def test_mismatched_lattice_and_components(workdir, tmp_path, capsys, caplog, monkeypatch):
    # The reduced dimension is always som.m, so a config naming
    # pca_components is refused, whether it matches the lattice or not.
    monkeypatch.setattr("posehar.io.load_normalized_dataset", no_reading)
    config = tmp_path / "config.json"
    for components in (3, 2):
        caplog.clear()
        config.write_text(json.dumps({"som": {"q": 2, "m": 2, "epochs": 2},
                                      "pca_components": components}))
        assert main(["--config", str(config), "build-libraries",
                     "--manifest", str(workdir / "norm/manifest.json"),
                     "--out", str(tmp_path / "b.npz")]) == 2
        assert capsys.readouterr().out == ""
        assert refused_for_pca_components(caplog)
    assert not (tmp_path / "b.npz").exists()


# The batch map has no learning rate and its start radius is fixed at q / 2:
# any som.lr0 or som.radius0 is an unknown key. A radius0 of 1e-200 once left
# every map untrained, its kernel all NaN.
@pytest.mark.parametrize("som", [{"lr0": -1, "radius0": 0}, {"lr0": 0}, {"radius0": -0.5},
                                 {"lr0": 0.5}, {"radius0": 1e-200}],
                         ids=["negative lr0 and zero radius0", "zero lr0", "negative radius0",
                              "former default lr0", "underflowing radius0"])
def test_build_libraries_rejects_bad_som_schedule(workdir, tmp_path, caplog, som):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"som": som}))
    assert main(["--config", str(config), "build-libraries",
                 "--manifest", str(workdir / "norm/manifest.json"),
                 "--out", str(tmp_path / "b.npz")]) == 2
    assert not (tmp_path / "b.npz").exists()
    # Every unknown key is named, not only the first.
    for key in ("lr0", "radius0"):
        assert (repr(key) in caplog.text) == (key in som)


@pytest.mark.parametrize("section, key, value", [
    ("classifier", "attention", True), ("classifier", "class_weighting", False),
    ("augment", "flip_noised", True), ("som", "radius0", 2.0),
])
def test_config_refuses_a_deleted_setting(workdir, tmp_path, capsys, caplog, section, key,
                                          value):
    # each value is the one every caller ran before the setting was deleted
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: {key: value}}))
    assert main(["--config", str(config), "evaluate", "--protocol", "loao",
                 "--manifest", str(workdir / "raw/manifest.json")]) == 2
    assert capsys.readouterr().out == ""
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and repr(key) in errors[0]


@pytest.mark.parametrize("section", ["augment", "som", "classifier", "protocol"])
def test_config_section_names_every_unknown_key(workdir, tmp_path, caplog, section):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: {"zeta": 1, "alpha": 2}}))
    assert main(["--config", str(config), "evaluate", "--protocol", "loao",
                 "--manifest", str(workdir / "raw/manifest.json")]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "unknown key(s) 'alpha', 'zeta'" in errors[0]


def test_evaluate_rejects_mismatched_components_before_any_work(workdir, tmp_path, capsys,
                                                               caplog, monkeypatch):
    monkeypatch.setattr("posehar.io.load_dataset", no_reading)
    config = tmp_path / "config.json"
    for components in (2, 3):   # som.m defaults to 3
        caplog.clear()
        config.write_text(json.dumps({"pca_components": components}))
        assert main(["--config", str(config), "evaluate", "--protocol", "loao",
                     "--manifest", str(workdir / "raw/manifest.json")]) == 2
        assert capsys.readouterr().out == ""
        assert refused_for_pca_components(caplog)


def write_detector_dataset(root: Path, frames: int = 1) -> Path:
    """One clip of one moving person; both wrists (keypoints 4 and 7) have
    confidence 0.05 in odd frames, 0.9 like every other keypoint otherwise."""
    (root / "clip").mkdir(parents=True)
    for t in range(frames):
        keypoints = [[10.0 * i + 3.0 * t, 5.0 * i + 2.0 * (t % 3),
                      0.05 if i in (4, 7) and t % 2 else 0.9] for i in range(18)]
        payload = {"people": [{"pose_keypoints_2d": sum(keypoints, [])}]}
        (root / "clip" / f"frame_{t:04d}.json").write_text(json.dumps(payload))
    write_manifest(root / "manifest.json", ["wave"], ["front"],
                   [{"path": "clip", "action": "wave", "viewpoint": "front", "actor": "a0"}])
    return root


def stray_byte(path: Path) -> Path:
    """Insert an undecodable 0xff byte into a text file."""
    data = path.read_bytes()
    path.write_bytes(data[:10] + b"\xff" + data[10:])
    return path


@pytest.mark.parametrize("case", ["seq", "norm", "manifest", "frame"])
def test_undecodable_input_is_a_data_error(workdir, tmp_path, capsys, caplog, case):
    raw = shutil.copytree(workdir / "raw", tmp_path / "raw")
    norm = shutil.copytree(workdir / "norm", tmp_path / "norm")
    det = write_detector_dataset(tmp_path / "det")
    damaged, command = {
        "seq": (sorted(raw.glob("*.seq"))[0], ["preprocess", "--manifest", raw / "manifest.json"]),
        "norm": (sorted(norm.glob("*.seq"))[0],
                 ["train", "--mode", "basic", "--manifest", norm / "manifest.json"]),
        "manifest": (raw / "manifest.json", ["preprocess", "--manifest", raw / "manifest.json"]),
        "frame": (det / "clip/frame_0000.json", ["ingest", "--manifest", det / "manifest.json"]),
    }[case]
    stray_byte(damaged)
    assert main([*map(str, command), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().out == ""
    assert one_line_error(caplog, damaged)


def test_undecodable_config_is_a_config_error(tmp_path, capsys, caplog):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "mode": "basic"}))
    stray_byte(config)
    assert main(["--config", str(config), "synth", "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().out == ""
    assert one_line_error(caplog, config)


def run_on_edited_manifest(workdir, tmp_path, edit, stage="raw"):
    """Run the stage's reader on a copy of its manifest changed by ``edit``."""
    data = shutil.copytree(workdir / stage, tmp_path / stage)
    manifest = json.loads((data / "manifest.json").read_text())
    edit(manifest)
    (data / "manifest.json").write_text(json.dumps(manifest))
    command = (["train", "--mode", "basic", "--manifest"] if stage == "norm"
               else ["preprocess", "--manifest"])
    code = main([*command, str(data / "manifest.json"), "--out", str(tmp_path / "out")])
    return code, data / "manifest.json"


@pytest.mark.parametrize("key", ["action", "path"])
def test_manifest_entry_missing_a_key_is_a_data_error(workdir, tmp_path, capsys, caplog, key):
    code, manifest = run_on_edited_manifest(
        workdir, tmp_path, lambda m: m["entries"][1].pop(key))
    assert code == 3
    assert capsys.readouterr().out == ""
    assert one_line_error(caplog, manifest)


@pytest.mark.parametrize("field, value", [("entries", "abc"), ("entries", [["x"]]),
                                          ("actions", 5)])
def test_malformed_manifest_schema_is_a_data_error(workdir, tmp_path, capsys, caplog,
                                                   field, value):
    code, manifest = run_on_edited_manifest(
        workdir, tmp_path, lambda m: m.update({field: value}))
    assert code == 3
    assert capsys.readouterr().out == ""
    assert one_line_error(caplog, manifest)


def test_train_rejects_an_entry_outside_vocabulary(workdir, tmp_path, capsys, caplog):
    code, manifest = run_on_edited_manifest(
        workdir, tmp_path, lambda m: m["entries"][0].update(action="jump"), stage="norm")
    assert code == 3
    assert capsys.readouterr().out == ""
    assert one_line_error(caplog, manifest)


def test_train_needs_a_record_to_validate_on(workdir, tmp_path, capsys, caplog):
    def one_per_action(manifest):
        firsts = {}
        for entry in manifest["entries"]:
            firsts.setdefault(entry["action"], entry)
        manifest["entries"] = list(firsts.values())

    code, _ = run_on_edited_manifest(workdir, tmp_path, one_per_action, stage="norm")
    assert code == 3
    assert capsys.readouterr().out == ""
    assert "validation needs an action with at least two records" in caplog.text


def test_train_refuses_a_manifest_of_one_action(workdir, tmp_path, capsys, caplog):
    # a data problem: it once surfaced as "bad classifier settings", exit 2
    def squat_only(manifest):
        manifest["actions"] = ["squat"]
        manifest["entries"] = [e for e in manifest["entries"] if e["action"] == "squat"]

    code, manifest = run_on_edited_manifest(workdir, tmp_path, squat_only, stage="norm")
    assert code == 3
    assert capsys.readouterr().out == ""
    assert one_line_error(caplog, manifest) and "['squat']" in caplog.text
    assert not (tmp_path / "out").exists()


def test_train_takes_its_classes_from_its_records(workdir, tmp_path, capsys, caplog):
    # a vocabulary of two actions once gave a two-class model trained on squat alone
    def squat_records(manifest):
        manifest["entries"] = [e for e in manifest["entries"] if e["action"] == "squat"]

    code, manifest = run_on_edited_manifest(workdir, tmp_path, squat_records, stage="norm")
    assert code == 3
    assert capsys.readouterr().out == ""
    assert one_line_error(caplog, manifest) and "'squat'" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fraction", ["nan", "0", "1", "1.5", "-1"])
def test_train_val_fraction_outside_the_unit_interval_is_a_config_error(tmp_path, capsys,
                                                                        caplog, fraction):
    # the manifest does not exist: the flag is refused before any file is read
    assert main(["train", "--manifest", str(tmp_path / "absent.json"),
                 "--val-fraction", fraction, "--out", str(tmp_path / "model.npz")]) == 2
    assert capsys.readouterr().out == ""
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "val_fraction must be in (0, 1)" in errors[0]
    assert not (tmp_path / "model.npz").exists()


def test_ingest_refuses_a_label_that_could_act_as_a_path(workdir, tmp_path, capsys, caplog):
    # only the manifest names the label; record file names stay as they are
    code, manifest = run_on_edited_manifest(
        workdir, tmp_path, lambda m: m["entries"][0].update(actor="a/b"))
    assert code == 3
    assert main(["ingest", "--manifest", str(manifest), "--out", str(tmp_path / "ing")]) == 3
    assert capsys.readouterr().out == ""
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 2 and errors[0] == errors[1]
    assert str(manifest) in errors[1] and "entry 0" in errors[1] and "'a/b'" in errors[1]
    assert not (tmp_path / "ing").exists()


def test_evaluate_needs_a_record_to_validate_on(tmp_path, capsys, caplog):
    # two actors: each leave-one-actor-out pool holds one record per action
    assert main(["synth", "--out", str(tmp_path / "raw"), "--actors", "2",
                 "--archetypes", "squat,march", "--frames", "12"]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--protocol", "loao",
                 "--manifest", str(tmp_path / "raw/manifest.json")]) == 3
    assert capsys.readouterr().out == ""
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["validation needs an action with at least two records"]


@pytest.mark.parametrize("mode", ["basic", "advanced"])
def test_evaluate_refuses_a_corpus_of_one_action(tmp_path, capsys, caplog, mode):
    # it once ended in a ValueError traceback from the classifier settings
    assert main(["synth", "--out", str(tmp_path / "raw"), "--actors", "3",
                 "--archetypes", "squat", "--frames", "12"]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--protocol", "loao", "--mode", mode,
                 "--manifest", str(tmp_path / "raw/manifest.json")]) == 3
    assert capsys.readouterr().out == ""
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "'squat'" in errors[0]


def test_unknown_config_key_is_a_config_error(tmp_path, capsys, caplog):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sed": 5}))
    assert main(["--config", str(config), "synth", "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().out == ""
    assert one_line_error(caplog, config) and "'sed'" in caplog.text
    assert not (tmp_path / "s").exists()


def test_evaluate_rejects_protocol_settings_its_kind_ignores(workdir, tmp_path, capsys,
                                                             caplog):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"protocol": {"group_by": "dataset", "test_groups": ["x"]}}))
    assert main(["--config", str(config), "evaluate", "--protocol", "loao",
                 "--manifest", str(workdir / "raw/manifest.json")]) == 2
    assert capsys.readouterr().out == ""
    assert "loao protocol takes no group_by or group lists" in caplog.text


@pytest.mark.parametrize("groups, message", [
    ({"train_groups": ["a0", "a1"], "test_groups": ["a1"]}, "split group lists overlap"),
    ({"train_groups": "a0", "test_groups": ["a1"]}, "train_groups must be a list of group names"),
    ({"train_groups": ["a0"], "test_groups": [2]}, "test_groups must be a list of group names"),
    ({"train_groups": ["a0"]}, "split protocol needs train_groups and test_groups"),
    ({"test_groups": ["a0"], "val_groups": ["a1"]}, "split protocol needs train_groups and test_groups"),
], ids=["overlap", "string", "number", "no test groups", "no train groups"])
def test_bad_split_group_lists_are_config_errors(tmp_path, capsys, caplog, groups, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"protocol": {"kind": "split", **groups}}))
    # the manifest does not exist: the protocol is refused before any data is read
    assert main(["--config", str(config), "evaluate",
                 "--manifest", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().out == ""
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and message in errors[0]


@pytest.mark.parametrize("label", ["a/b", "a\\b", "nul\0", ".."])
def test_label_that_could_act_as_a_path_is_a_data_error(workdir, tmp_path, capsys, caplog,
                                                        label):
    raw = shutil.copytree(workdir / "raw", tmp_path / "raw")
    manifest = json.loads((raw / "manifest.json").read_text())
    entry = manifest["entries"][0]
    record = raw / entry["path"]
    header = f'"actor":{json.dumps(entry["actor"])}'
    record.write_text(record.read_text().replace(header, f'"actor":{json.dumps(label)}', 1))
    entry["actor"] = label
    (raw / "manifest.json").write_text(json.dumps(manifest))
    assert main(["preprocess", "--manifest", str(raw / "manifest.json"),
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().out == ""
    assert one_line_error(caplog, raw / "manifest.json")
    assert repr(label) in caplog.text


def test_evaluate_refuses_a_fold_with_no_scorable_test_sample(tmp_path, capsys, caplog):
    # training on still/squat, testing on march: nothing in the test fold can be scored
    samples = [replace(s, dataset="field" if s.action == "march" else "lab")
               for s in generate_corpus(3, ("still", "squat", "march"), frames=12)]
    write_dataset(tmp_path / "raw", samples, write_sample, ".seq")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": "baseline", "protocol": {
        "kind": "split", "group_by": "dataset",
        "train_groups": ["lab"], "test_groups": ["field"]}}))
    assert main(["--config", str(config), "evaluate",
                 "--manifest", str(tmp_path / "raw/manifest.json")]) == 3
    assert capsys.readouterr().out == ""
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["fold 0: no test sample has an action the training set holds"]


@pytest.mark.parametrize("command, config", [
    (["build-libraries", "--m", "30"], {}),
    (["evaluate"], {"som": {"m": 27}}),
], ids=["build-libraries --m 30", "evaluate som.m 27"])
def test_lattice_wider_than_the_pose_vector_is_a_config_error(tmp_path, capsys, caplog,
                                                              command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    # the manifest does not exist: the settings are refused before any data is read
    assert main(["--config", str(path), *command, "--out", str(tmp_path / "out"),
                 "--manifest", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().out == ""
    assert "must be in 1..26" in caplog.text


@pytest.mark.parametrize("command", [["build-libraries"], ["evaluate"]])
def test_lattice_above_the_unit_cap_is_a_config_error(tmp_path, capsys, caplog, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"som": {"q": 4, "m": 20}}))
    # the manifest does not exist: the lattice is refused before any data is read
    assert main(["--config", str(path), *command, "--out", str(tmp_path / "out"),
                 "--manifest", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().out == ""
    assert "exceeds 4096 units" in caplog.text


def test_evaluate_sizes_the_classifier_before_fitting(workdir, tmp_path, capsys, caplog,
                                                      monkeypatch):
    def no_fitting(*args, **kwargs):
        raise AssertionError("fitted before the classifier size was checked")

    monkeypatch.setattr("posehar.evaluate.build_bundle", no_fitting)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, "mode": "advanced",
                                  "classifier": {"recurrent_units": 10**12}}))
    assert main(["--config", str(config), "evaluate",
                 "--manifest", str(workdir / "raw/manifest.json")]) == 2
    assert capsys.readouterr().out == ""
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "classifier recurrent_units too large" in errors[0]


@pytest.mark.parametrize("classifier, setting", [
    ({"recurrent_units": 10**12}, "recurrent_units"),
    ({"conv_blocks": [[10**12, 3]]}, "conv_blocks"),
    ({"recurrent_units": 10**18}, "recurrent_units"),
])
def test_train_refuses_a_network_no_machine_can_allocate(workdir, tmp_path, capsys, caplog,
                                                         classifier, setting):
    # sizes whose first array fails to allocate at once
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"classifier": classifier}))
    # Advanced mode without a bundle, on an absent manifest, shows that the
    # size is checked before the bundle or any record is read.
    for mode, manifest in (("basic", workdir / "norm/manifest.json"),
                           ("advanced", tmp_path / "absent.json")):
        caplog.clear()
        assert main(["--config", str(config), "train", "--mode", mode,
                     "--manifest", str(manifest), "--out", str(tmp_path / "model.npz")]) == 2
        assert capsys.readouterr().out == ""
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and f"classifier {setting} too large" in errors[0]
        assert not (tmp_path / "model.npz").exists()
