"""Seeded mutation fuzzing of every input the command line reads.

Each byte mutant of a ``.seq`` record (raw and normalized), a detector
frame, a manifest, the config file, ``bundle.npz`` or ``model.npz`` is fed
to the subcommand that reads it, in process. A malformed input must end in
a documented exit code (0 when the damage is harmless, 2 for configuration,
3 for data), never in an uncaught exception.
Entry-level mutants of the archives (an entry dropped, set to NaN, of
the wrong dtype or shape, an extra entry, meta tagged with an older format,
model meta sizes no machine could allocate, bundle libraries whose arrays
disagree, whose root landmark leaves the origin or that carry an older
format's entries, and bundle meta whose action list differs from its library
names) are always data errors.
"""

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from posehar.cli import main

SEED = 20261018
MUTANTS_PER_INPUT = 60
BUDGET_S = 5.0
TOKENS = (b"nan", b"1e309", b"{", b"-", b"\xff")

CONFIG = {
    "seed": 2,
    "som": {"q": 2, "m": 2, "epochs": 1},
    "augment": {"z": 0, "flip": False},
    "classifier": {"conv_blocks": [[4, 3]], "recurrent_units": 4,
                   "max_epochs": 1, "batch_size": 8},
}


def mutate(data: bytes, rng: random.Random) -> bytes:
    """1-4 bit flips, 1-4 deletions, one inserted token, or a truncation."""
    out = bytearray(data)
    kind = rng.randrange(4)
    if kind == 0:
        for _ in range(rng.randint(1, 4)):
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    elif kind == 1:
        for _ in range(rng.randint(1, 4)):
            del out[rng.randrange(len(out))]
    elif kind == 2:
        at = rng.randrange(len(out) + 1)
        out[at:at] = rng.choice(TOKENS)
    else:
        del out[rng.randrange(len(out)):]
    return bytes(out)


def write_clip(directory: Path) -> None:
    rng = np.random.default_rng(3)
    directory.mkdir(parents=True)
    for t in range(3):
        keypoints = np.column_stack([rng.uniform(0, 400, (18, 2)), rng.uniform(0.2, 1, 18)])
        payload = {"people": [{"pose_keypoints_2d": keypoints.ravel().tolist()}]}
        (directory / f"frame_{t:04d}.json").write_text(json.dumps(payload))
    entry = {"path": "clip", "action": "wave", "viewpoint": "front", "actor": "a0"}
    (directory.parent / "manifest.json").write_text(json.dumps(
        {"format": "posehar-manifest/1", "actions": ["wave"], "viewpoints": ["front"],
         "entries": [entry]}))


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "config.json").write_text(json.dumps(CONFIG))
    config = ["--config", str(root / "config.json")]
    assert main(["synth", "--out", str(root / "raw"), "--actors", "2",
                 "--archetypes", "wave-one-arm,squat", "--frames", "8"]) == 0
    assert main(["preprocess", "--manifest", str(root / "raw/manifest.json"),
                 "--out", str(root / "norm")]) == 0
    write_clip(root / "det" / "clip")
    (root / "archive").mkdir()
    bundle, model = str(root / "archive/bundle.npz"), str(root / "archive/model.npz")
    assert main(config + ["build-libraries", "--manifest", str(root / "norm/manifest.json"),
                          "--out", bundle]) == 0
    assert main(config + ["train", "--mode", "advanced", "--bundle", bundle, "--manifest",
                          str(root / "norm/manifest.json"), "--out", model]) == 0
    out = str(root / "out")
    commands = {
        "raw": ["preprocess", "--manifest", str(root / "raw/manifest.json"), "--out", out],
        "norm": config + ["train", "--mode", "basic", "--manifest",
                          str(root / "norm/manifest.json"), "--out", str(root / "model.npz")],
        "det": ["ingest", "--manifest", str(root / "det/manifest.json"), "--out", out],
        "config": config + ["build-libraries", "--manifest",
                            str(root / "norm/manifest.json"), "--out", str(root / "b.npz")],
        "model": ["predict", "--mode", "advanced", "--bundle", bundle, "--model", model,
                  "--input", str(root / "raw/00000_wave-one-arm_a00.seq")],
    }
    return root, commands


# (input file, command that reads it)
TARGETS = [
    ("raw/00000_wave-one-arm_a00.seq", "raw"),
    ("raw/manifest.json", "raw"),
    ("norm/00001_wave-one-arm_a01.seq", "norm"),
    ("norm/manifest.json", "norm"),
    ("det/clip/frame_0001.json", "det"),
    ("det/manifest.json", "det"),
    ("config.json", "config"),
]
# (archive, command that reads it)
ARCHIVES = [("archive/bundle.npz", "model"), ("archive/model.npz", "model")]
BYTE_MUTANTS_PER_ARCHIVE = 30


def exit_code(argv: list[str]) -> int | str:
    """``main(argv)``, or the name and message of what it raised."""
    try:
        return main(argv)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def test_mutated_inputs_exit_cleanly(run, caplog):
    root, commands = run
    rng = random.Random(SEED)
    started = time.perf_counter()
    failures = []
    for name, command in TARGETS:
        path = root / name
        original = path.read_bytes()
        for n in range(MUTANTS_PER_INPUT):
            path.write_bytes(mutate(original, rng))
            code = exit_code(commands[command])
            if code not in (0, 2, 3):
                failures.append(f"{name} mutant {n}: {code}")
            caplog.clear()
        path.write_bytes(original)
    elapsed = time.perf_counter() - started
    assert not failures, "\n".join(failures)
    assert elapsed < BUDGET_S


def entry_mutants(arrays: dict):
    """(label, edited copy of ``arrays``) for each entry-level defect."""
    for key, value in arrays.items():
        retyped = value.astype(str) if value.dtype.kind == "f" else np.zeros(value.shape)
        for edit, changed in (("nan", np.full(value.shape, np.nan)), ("retype", retyped),
                              ("reshape", np.append(value, value.flat[:1]))):
            yield f"{key} {edit}", {**arrays, key: changed}
        yield f"{key} drop", {k: v for k, v in arrays.items() if k != key}
    yield "extra entry", {**arrays, "extra": np.zeros(1)}
    meta = json.loads(str(arrays["meta"]))
    older = "posehar-bundle/2" if "libraries" in meta else "posehar-classifier/1"
    yield f"format {older}", {**arrays, "meta": np.array(json.dumps({**meta, "format": older}))}
    if "libraries" in meta:
        lib = f"lib/spatial/{meta['libraries']['spatial'][0]}/"
        landmarks = arrays[lib + "landmarks"]
        yield "13-landmark prototypes", {**arrays, lib + "landmarks": landmarks[:, 1:]}
        yield "root off the origin", {**arrays, lib + "landmarks": landmarks + 0.25}
        yield "prototype counts disagree", {**arrays, lib + "weight": arrays[lib + "weight"][1:]}
        yield "full entry", {**arrays, lib + "full": landmarks[:, 1:].reshape(len(landmarks), -1)}
        yield "reduced entry", {**arrays, lib + "reduced": np.zeros((len(landmarks), 3))}
        renamed = json.dumps({**meta, "actions": ["zzz"]})
        yield "actions not its libraries", {**arrays, "meta": np.array(renamed)}
        return
    huge = 10**12
    sizes = [(name, huge) for name in ("channels", "classes", "recurrent_units")]
    sizes.append(("conv_blocks", [[huge, huge]]))
    for name, size in sizes:
        config = {**meta["config"], name: size}
        yield f"meta {name}", {**arrays, "meta": np.array(json.dumps({**meta, "config": config}))}


def test_mutated_archives_exit_cleanly(run, caplog):
    root, commands = run
    rng = random.Random(SEED)
    started = time.perf_counter()
    failures = []
    for name, command in ARCHIVES:
        path = root / name
        original = path.read_bytes()
        for n in range(BYTE_MUTANTS_PER_ARCHIVE):
            path.write_bytes(mutate(original, rng))
            code = exit_code(commands[command])
            if code not in (0, 2, 3):
                failures.append(f"{name} mutant {n}: {code}")
            caplog.clear()
        path.write_bytes(original)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        for label, edited in entry_mutants(arrays):
            with open(path, "wb") as fh:
                np.savez(fh, **edited)
            code = exit_code(commands[command])
            errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
            if code != 3 or len(errors) != 1 or str(path) not in errors[0]:
                failures.append(f"{name} {label}: {code} {errors}")
            caplog.clear()
        path.write_bytes(original)
    elapsed = time.perf_counter() - started
    assert not failures, "\n".join(failures)
    assert elapsed < BUDGET_S
