"""The package's public namespace and the layout of its source."""

import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import posehar
from posehar.cli import _CONFIG_KEYS
from posehar.pose import N_LANDMARKS, ROOT
from posehar.preprocess import LabeledSequence, NormalizedSequence


def test_all_names_resolve_once():
    names = posehar.__all__
    assert len(names) == len(set(names)), "duplicate entries in posehar.__all__"
    missing = [name for name in names if not hasattr(posehar, name)]
    assert missing == [], f"posehar.__all__ names missing from the package: {missing}"


# Each call that carries a rule of its own, and the one module allowed to make
# it: archives are read and written by one codec, the motion frames of a
# normalized sequence are derived in one place, the fields of a settings
# dataclass are type-checked by one rule, and the distance kernel is entered
# only from the embedding module.
OWNERS = {"np.load(": "archive.py", "np.savez(": "archive.py", "np.diff(": "preprocess.py",
          "fields(": "errors.py", "np.linalg.eigh(": "pca.py",
          "_nearest_distances(": "embed.py"}


def test_each_owned_call_is_made_by_one_module():
    sources = {path.name: path.read_text() for path in Path(posehar.__file__).parent.glob("*.py")}
    for call, owner in OWNERS.items():
        users = sorted(name for name, text in sources.items() if call in text)
        assert users == [owner], f"{call} appears in {users}"


@pytest.mark.parametrize("cls, settings, error, field", [
    (posehar.SomConfig, {"epochs": 2.5}, TypeError, "epochs"),
    (posehar.SomConfig, {"q": True}, TypeError, "q"),
    (posehar.AugmentConfig, {"sigma": float("nan"), "z": 1}, ValueError, "sigma"),
    (posehar.AugmentConfig, {"flip": "no"}, TypeError, "flip"),
    (posehar.ClassifierConfig, {"channels": 3, "classes": 2, "learning_rate": float("inf")},
     ValueError, "learning_rate"),
    (posehar.Protocol, {"folds": 2.5}, TypeError, "folds"),
    (posehar.PipelineConfig, {"seed": -1}, ValueError, "seed"),
    (posehar.PipelineConfig, {"classifier": {"dropout": 2.0}}, ValueError, "dropout"),
], ids=["fractional epochs", "bool q", "nan sigma", "string flip",
        "infinite learning_rate", "fractional folds", "negative seed", "classifier dropout"])
def test_settings_refuse_a_bad_field_at_construction(cls, settings, error, field):
    # each was once accepted from Python and failed later, or wrote NaN
    with pytest.raises(error, match=field):
        cls(**settings)


def test_build_bundle_trains_one_map_per_cell(monkeypatch):
    """``build_bundle`` reaches the module-global ``train_som`` once per
    non-empty (kind, action, viewpoint) cell, the call a tracer wraps."""
    calls = []
    train_som = posehar.som.train_som

    def counted(data, config):
        calls.append(len(data))
        return train_som(data, config)

    monkeypatch.setattr(posehar.som, "train_som", counted)
    rng = np.random.default_rng(7)
    items = []
    for action, viewpoint, frames in (("wave", "front", 12), ("wave", "left", 9),
                                      ("squat", "front", 5), ("march", "left", 1)):
        xy = rng.normal(0.0, 0.6, (frames, N_LANDMARKS, 2))
        xy[:, ROOT - 1] = 0.0
        items.append(LabeledSequence(NormalizedSequence(xy, frozenset()),
                                     action, viewpoint, "a1", "demo"))
    posehar.build_bundle(items, 2, posehar.SomConfig(q=2, m=2, epochs=2))
    # 4 pose cells, and 3 motion cells: a 1-frame record has no motion frame
    assert sorted(calls) == sorted([12, 9, 5, 1] + [11, 8, 4])


def test_lstm_kernels_read_no_mask():
    """Padding always follows each sample's valid steps, so the recurrence
    needs no mask: neither LSTM kernel takes one."""
    path = Path(posehar.__file__).parent / "classifier.py"
    functions = {node.name: node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.FunctionDef)}
    for name in ("_lstm_forward", "_lstm_backward"):
        params = [arg.arg for arg in ast.walk(functions[name].args) if isinstance(arg, ast.arg)]
        assert params and "mask" not in params, name


def test_distance_kernel_takes_differences_from_a_product():
    """The distance kernel gets its frame-minus-prototype differences from a
    k=2 matrix product, not a broadcast subtraction, and divides each
    subset's sums only after their per-block minimum."""
    path = Path(posehar.__file__).parent / "embed.py"
    kernel = next(node for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.FunctionDef) and node.name == "_nearest_distances")
    lines: dict[str, list[int]] = {}
    for node in ast.walk(kernel):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            lines.setdefault(node.func.attr, []).append(node.lineno)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            lines.setdefault("divide", []).append(node.lineno)
    assert "subtract" not in lines and "matmul" in lines
    assert lines["reduceat"] and lines["divide"]
    assert min(lines["divide"]) > max(lines["reduceat"])


def test_each_archive_kind_has_one_format_tag():
    """A loader reads only the format its writer writes: the one string that
    names an archive format is the writer's BUNDLE_FORMAT or MODEL_FORMAT."""
    def is_tag(node) -> bool:
        return (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and re.fullmatch(r"posehar-(bundle|classifier)/\d+", node.value) is not None)

    tags, assigned = [], []
    for path in sorted(Path(posehar.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if is_tag(node):
                tags.append((path.name, node.value))
            elif isinstance(node, ast.Assign) and is_tag(node.value):
                assigned.append((path.name, [target.id for target in node.targets]))
    assert tags == [("classifier.py", "posehar-classifier/3"), ("som.py", "posehar-bundle/3")]
    assert assigned == [("classifier.py", ["MODEL_FORMAT"]), ("som.py", ["BUNDLE_FORMAT"])]


# The settings class of each config section; a section that shares a
# module's name also answers for that module's public names.
SECTIONS = {"augment": posehar.AugmentConfig, "som": posehar.SomConfig,
            "classifier": posehar.ClassifierConfig, "protocol": posehar.Protocol}


def test_readme_names_only_settings_and_names_that_exist():
    """Every `augment.X`, `som.X`, `classifier.X` and `protocol.X` the README
    names is a field of that section's settings class, or a public name of
    the module of the same name (`classifier.model_layout`)."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    prose = re.sub(r"^```.*?^```", "", readme, flags=re.M | re.S)   # fenced blocks
    pattern = re.compile(r"(?<![\w./])(augment|som|classifier|protocol)\.([A-Za-z_]\w*)")
    named = {match.groups() for span in re.findall(r"`([^`]+)`", prose)
             for match in pattern.finditer(span)}
    assert named, "the README names no setting"
    stale = sorted(f"{section}.{name}" for section, name in named
                   if name not in {f.name for f in dataclasses.fields(SECTIONS[section])}
                   and (name.startswith("_")
                        or not hasattr(getattr(posehar, section, None), name)))
    assert stale == [], f"the README names what the code lacks: {stale}"


def test_readme_config_keys_are_the_command_lines():
    """The backticked top-level keys the README's ``--config`` paragraph
    lists are the keys a config file may hold, so a deleted key cannot stay
    documented."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = re.search(r"`--config file\.json` supplies option defaults \(([^)]*)\)", readme)
    assert listed, "the README has no --config paragraph"
    keys = re.findall(r"`([^`]+)`", listed.group(1))
    assert sorted(keys) == sorted(_CONFIG_KEYS)
