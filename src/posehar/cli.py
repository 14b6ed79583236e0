"""Command line interface.

Every pipeline stage is a subcommand whose inputs and outputs are files, so
stages can be run, cached, and inspected independently:

    posehar synth            make a synthetic labeled corpus
    posehar ingest           detector keypoint exports -> sequence records
    posehar preprocess       raw records -> normalized records
    posehar augment          normalized records -> expanded training set
    posehar build-libraries  normalized records -> model bundle (.npz)
    posehar embed            normalized records + bundle -> channel records
    posehar train            channel records -> classifier model (.npz)
    posehar predict          one input -> predicted action
    posehar evaluate         raw records -> protocol scores and confusion
    posehar bench            embedding and inference throughput

Options can come from a JSON config file (--config); explicit flags win over
the file, which wins over built-in defaults. Exit codes: 0 success, 2
configuration error, 3 data error, 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import augment as augment_mod
from . import classifier as clf
from . import embed as embed_mod
from . import evaluate as eval_mod
from . import io as io_mod
from . import som as som_mod
from . import synth as synth_mod
from .errors import ConfigError, EmptySequence, PoseHarError
from .pose import VIEWPOINTS, Sample
from .preprocess import NormalizedSequence, preprocess_sample

log = logging.getLogger(__name__)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return payload


def _seed(args, config: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return int(config.get("seed", 0))


def _merge(section: dict, args, names: tuple[str, ...]) -> dict:
    out = dict(section)
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            out[name] = value
    return out


def _augment_config(args, config: dict, seed: int) -> augment_mod.AugmentConfig:
    section = _merge(dict(config.get("augment", {})), args, ("z", "sigma"))
    if getattr(args, "flip", None) is not None:
        section["flip"] = args.flip
    section.setdefault("rng_seed", seed)
    try:
        return augment_mod.AugmentConfig(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad augment settings: {exc}") from exc


def _som_config(args, config: dict, seed: int) -> som_mod.SomConfig:
    section = _merge(dict(config.get("som", {})), args, ("q", "m", "epochs"))
    section.setdefault("rng_seed", seed)
    try:
        return som_mod.SomConfig(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad som settings: {exc}") from exc


def _pipeline_config(args, config: dict) -> eval_mod.PipelineConfig:
    seed = _seed(args, config)
    mode = getattr(args, "mode", None) or config.get("mode", "advanced")
    try:
        return eval_mod.PipelineConfig(
            mode=mode,
            augment=_augment_config(args, config, seed),
            som=_som_config(args, config, seed),
            pca_components=int(config.get("pca_components", 3)),
            classifier=dict(config.get("classifier", {})),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _protocol(args, config: dict) -> eval_mod.Protocol:
    section = dict(config.get("protocol", {}))
    if getattr(args, "protocol", None):
        section["kind"] = args.protocol
    if getattr(args, "folds", None) is not None:
        section["folds"] = args.folds
    for key in ("train_groups", "val_groups", "test_groups"):
        if key in section:
            section[key] = tuple(section[key])
    try:
        return eval_mod.Protocol(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad protocol settings: {exc}") from exc


def _write_dataset(out_dir: Path, items, writer, suffix: str) -> None:
    """Write one record per item, then the manifest that lists them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for n, item in enumerate(items):
        name = f"{n:05d}_{item.action}_{item.actor}{suffix}"
        writer(out_dir / name, item)
        entries.append(io_mod.manifest_entry(name, item))
    io_mod.write_manifest(out_dir / "manifest.json",
                          sorted({i.action for i in items}),
                          sorted({i.viewpoint for i in items}),
                          entries)


# --------------------------------------------------------------------------
# Subcommands


def cmd_synth(args, config: dict) -> int:
    seed = _seed(args, config)
    archetypes = tuple(args.archetypes.split(",")) if args.archetypes else synth_mod.ARCHETYPES
    viewpoints = tuple(args.viewpoints.split(",")) if args.viewpoints else ("front",)
    for v in viewpoints:
        if v not in VIEWPOINTS:
            raise ConfigError(f"unknown viewpoint {v!r}")
    try:
        samples = synth_mod.generate_corpus(
            args.actors, archetypes, viewpoints, seed=seed, frames=args.frames)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = Path(args.out)
    _write_dataset(out, samples, io_mod.write_sample, ".seq")
    print(f"wrote {len(samples)} samples to {out}")
    return 0


def cmd_ingest(args, config: dict) -> int:
    samples, _ = io_mod.load_dataset(args.manifest, threshold=args.threshold)
    out = Path(args.out)
    _write_dataset(out, samples, io_mod.write_sample, ".seq")
    print(f"ingested {len(samples)} samples to {out}")
    return 0


def cmd_preprocess(args, config: dict) -> int:
    samples, _ = io_mod.load_dataset(args.manifest)
    out = Path(args.out)
    items = []
    reports = []
    skipped = 0
    for sample in samples:
        try:
            labeled, report = preprocess_sample(sample)
        except PoseHarError as exc:
            log.warning("skipping %s/%s: %s", sample.actor, sample.action, exc)
            skipped += 1
            continue
        items.append(labeled)
        reports.append({"actor": sample.actor, "action": sample.action,
                        "viewpoint": sample.viewpoint, **asdict(report)})
    if not items:
        raise EmptySequence("preprocessing produced no usable sequences")
    _write_dataset(out, items, io_mod.write_normalized, ".seq")
    (out / "report.json").write_text(json.dumps(reports, indent=2, sort_keys=True) + "\n")
    print(f"preprocessed {len(items)} sequences to {out} ({skipped} skipped)")
    return 0


def cmd_augment(args, config: dict) -> int:
    items, _ = io_mod.load_normalized_dataset(args.manifest)
    augment_config = _augment_config(args, config, _seed(args, config))
    expanded = augment_mod.augment_set(items, augment_config)
    out = Path(args.out)
    _write_dataset(out, expanded, io_mod.write_normalized, ".seq")
    print(f"augmented {len(items)} -> {len(expanded)} sequences in {out}")
    return 0


def cmd_build_libraries(args, config: dict) -> int:
    items, _ = io_mod.load_normalized_dataset(args.manifest)
    som_config = _som_config(args, config, _seed(args, config))
    components = args.components or int(config.get("pca_components", som_config.m))
    if components != som_config.m:
        raise ConfigError("pca components and som lattice dimension must match")
    bundle = som_mod.build_bundle(items, components, som_config)
    som_mod.save_bundle(args.out, bundle)
    sizes = {a: len(lib) for a, lib in bundle.spatial.items()}
    print(f"bundle written to {args.out}; spatial prototypes per action: {sizes}")
    return 0


def _libraries(mode: str, bundle_path: str | None) -> tuple[dict | None, dict | None]:
    """The bundle's (spatial, temporal) libraries in advanced mode; (None,
    None) in the modes that embed without libraries."""
    if mode != "advanced":
        return None, None
    if not bundle_path:
        raise ConfigError("advanced mode needs --bundle")
    bundle = som_mod.load_bundle(bundle_path)
    return bundle.spatial, bundle.temporal


def cmd_embed(args, config: dict) -> int:
    items, _ = io_mod.load_normalized_dataset(args.manifest)
    mode = args.mode or config.get("mode", "advanced")
    spatial, temporal = _libraries(mode, args.bundle)
    out = Path(args.out)

    def write(path: Path, item) -> None:
        channels = embed_mod.embed_sequence(item.seq, spatial, temporal, mode)
        io_mod.write_embedding(path, channels, io_mod.manifest_entry("", item))

    _write_dataset(out, items, write, ".emb")
    print(f"embedded {len(items)} sequences ({mode}) to {out}")
    return 0


def _load_embedded(manifest_path: str) -> tuple[list, list[str]]:
    manifest = io_mod.load_manifest(manifest_path)
    base = Path(manifest_path).parent
    records = []
    for entry in manifest["entries"]:
        channels, _ = io_mod.read_embedding(base / entry["path"])
        records.append((channels.values, entry["action"]))
    return records, sorted(manifest["actions"])


def cmd_train(args, config: dict) -> int:
    records, actions = _load_embedded(args.embedded)
    class_of = {a: i for i, a in enumerate(actions)}
    pairs = [(values, class_of[action]) for values, action in records]
    seed = _seed(args, config)
    train_idx, val_idx = eval_mod._carve_validation(
        list(range(len(pairs))), [action for _, action in records],
        args.val_fraction, np.random.default_rng([seed, 5]))
    train_set = [pairs[i] for i in train_idx]
    val_set = [pairs[i] for i in val_idx]

    section = dict(config.get("classifier", {}))
    section.setdefault("rng_seed", seed)
    try:
        model_config = clf.ClassifierConfig(
            channels=pairs[0][0].shape[0], classes=len(actions), **section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad classifier settings: {exc}") from exc
    model, history = clf.train(model_config, train_set, val_set)
    clf.save_model(args.out, model, actions)
    best = max(h["val_accuracy"] for h in history)
    print(f"trained on {len(train_set)} sequences, validated on {len(val_set)}; "
          f"best validation accuracy {best:.3f}; model written to {args.out}")
    return 0


def _channels_for_input(path: Path, mode: str, bundle_path: str | None,
                        threshold: float) -> np.ndarray:
    """Turn any supported input into a channel matrix for prediction."""
    if path.suffix == ".emb":
        channels, _ = io_mod.read_embedding(path)
        return channels.values
    if path.is_dir():
        xy, present = io_mod.read_detector_clip(path, threshold)
        record = Sample(xy, present, "unknown", "front", "unknown", "")
    else:
        record = io_mod.read_record(path)
    if isinstance(record, Sample):
        if mode == "baseline":
            return embed_mod.baseline_channels(record).values
        labeled, _ = preprocess_sample(record)
    else:
        if mode == "baseline":
            raise ConfigError("baseline mode needs a raw record, not a normalized one")
        labeled = record
    spatial, temporal = _libraries(mode, bundle_path)
    return embed_mod.embed_sequence(labeled.seq, spatial, temporal, mode).values


def cmd_predict(args, config: dict) -> int:
    model, actions = clf.load_model(args.model)
    mode = args.mode or config.get("mode", "advanced")
    series = _channels_for_input(Path(args.input), mode, args.bundle, args.threshold)
    probs = clf.predict_proba(model, [series])[0]
    winner = int(np.argmax(probs))
    names = actions if actions else [str(i) for i in range(model.config.classes)]
    result = {"label": names[winner],
              "probabilities": {names[i]: float(p) for i, p in enumerate(probs)}}
    print(json.dumps(result, sort_keys=True, indent=2))
    return 0


def cmd_evaluate(args, config: dict) -> int:
    samples, _ = io_mod.load_dataset(args.manifest)
    protocol = _protocol(args, config)
    pipeline = _pipeline_config(args, config)
    report = eval_mod.run_experiment(samples, protocol, pipeline)
    print(report.render_confusion())
    print(f"absolute accuracy: {report.absolute_accuracy:.4f}")
    print(f"relative accuracy: {report.relative_accuracy:.4f}")
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
        print(f"report written to {args.out}")
    return 0


def cmd_bench(args, config: dict) -> int:
    if args.actions < 2 or args.prototypes < 1 or args.frames < 1:
        raise ConfigError("bench needs at least 2 actions, 1 prototype and 1 frame")
    rng = np.random.default_rng(_seed(args, config))
    actions = [f"action{i:02d}" for i in range(args.actions)]
    count = args.prototypes
    libraries = {
        kind: {action: som_mod.PoseLibrary(
            action, kind, rng.normal(0, 1, (count, 26)), rng.normal(0, 1, (count, 3)),
            np.ones(count, dtype=np.int64), np.full(count, "front"))
            for action in actions}
        for kind in ("spatial", "temporal")}

    frames = args.frames
    xy = rng.normal(0.0, 1.0, (frames, 14, 2))
    xy[:, 1] = 0.0
    seq = NormalizedSequence(xy, np.diff(xy, axis=0), frozenset())

    channels = embed_mod.embed_sequence(seq, libraries["spatial"],
                                        libraries["temporal"], "advanced")   # warm-up
    best = np.inf
    for _ in range(3):   # keep the best of three
        start = time.perf_counter()
        embed_mod.embed_sequence(seq, libraries["spatial"], libraries["temporal"], "advanced")
        best = min(best, time.perf_counter() - start)
    embed_fps = frames / best

    model_config = clf.ClassifierConfig(channels=channels.values.shape[0],
                                        classes=len(actions), rng_seed=0)
    model = clf.init_model(model_config)
    clip = channels.values[:, : min(72, frames)]
    start = time.perf_counter()
    repeats = 5
    for _ in range(repeats):
        clf.predict_proba(model, [clip])
    infer_ms = (time.perf_counter() - start) / repeats * 1000.0

    result = {
        "embedding_frames_per_second": embed_fps,
        "embedding_channels": channels.values.shape[0],
        "inference_ms_per_clip": infer_ms,
        "actions": len(actions),
        "prototypes_per_library": count,
        "prototypes_per_kind": {kind: sum(len(lib) for lib in libraries[kind].values())
                                for kind in libraries},
        "frames": frames,
    }
    print(json.dumps(result, sort_keys=True, indent=2))
    return 0


# --------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posehar",
        description="Action recognition from 2D pose sequences.")
    parser.add_argument("--config", default=None,
                        help="JSON config file with option defaults")
    parser.add_argument("--seed", type=int, default=None, help="global random seed")
    parser.add_argument("-v", "--verbose", action="store_true", default=False)

    # The same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value parsed before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("-v", "--verbose", action="store_true",
                        default=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--actors", type=int, default=6)
    p.add_argument("--archetypes", help="comma-separated archetype names")
    p.add_argument("--viewpoints", help="comma-separated viewpoint names")
    p.add_argument("--frames", type=int, default=40)
    p.set_defaults(func=cmd_synth)

    p = add_parser("ingest", help="convert detector exports to sequence records")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=0.0,
                   help="keypoint confidence threshold")
    p.set_defaults(func=cmd_ingest)

    p = add_parser("preprocess", help="treat missing data and normalize")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = add_parser("augment", help="expand a normalized training set")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--z", type=int, default=None, help="noised copies per sequence")
    p.add_argument("--sigma", type=float, default=None, help="noise std deviation")
    flip = p.add_mutually_exclusive_group()
    flip.add_argument("--flip", dest="flip", action="store_true", default=None)
    flip.add_argument("--no-flip", dest="flip", action="store_false")
    p.set_defaults(func=cmd_augment)

    p = add_parser("build-libraries", help="fit reduction models and libraries")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--q", type=int, default=None, help="units per lattice side")
    p.add_argument("--m", type=int, default=None, help="lattice dimensions")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--components", type=int, default=None,
                   help="reduced dimensionality (defaults to m)")
    p.set_defaults(func=cmd_build_libraries)

    p = add_parser("embed", help="turn sequences into channel records")
    p.add_argument("--manifest", required=True)
    p.add_argument("--bundle")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("basic", "advanced"))
    p.set_defaults(func=cmd_embed)

    p = add_parser("train", help="train the classifier on channel records")
    p.add_argument("--embedded", required=True, metavar="MANIFEST",
                   help="manifest of embedded records")
    p.add_argument("--out", required=True)
    p.add_argument("--val-fraction", type=float, default=0.15)
    p.set_defaults(func=cmd_train)

    p = add_parser("predict", help="classify one clip or record")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--bundle")
    p.add_argument("--mode", choices=("basic", "advanced", "baseline"))
    p.add_argument("--threshold", type=float, default=0.0)
    p.set_defaults(func=cmd_predict)

    p = add_parser("evaluate", help="run a full protocol evaluation")
    p.add_argument("--manifest", required=True)
    p.add_argument("--protocol", choices=eval_mod.PROTOCOL_KINDS)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--mode", choices=("basic", "advanced", "baseline"))
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_evaluate)

    p = add_parser("bench", help="embedding and inference throughput")
    p.add_argument("--actions", type=int, default=17)
    p.add_argument("--prototypes", type=int, default=64)
    p.add_argument("--frames", type=int, default=2000)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = _load_config(args.config)
        return int(args.func(args, config) or 0)
    except PoseHarError as exc:
        log.error("%s", exc)
        return exc.exit_code
    except OSError as exc:
        log.error("%s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
