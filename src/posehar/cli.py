"""Command line interface.

Every pipeline stage is a subcommand whose inputs and outputs are files, so
stages can be run, cached, and inspected independently:

    posehar synth            make a synthetic labeled corpus
    posehar ingest           detector keypoint exports -> sequence records
    posehar preprocess       raw records -> normalized records
    posehar augment          normalized records -> expanded training set
    posehar build-libraries  normalized records -> model bundle (.npz)
    posehar train            normalized records (+ bundle) -> classifier (.npz)
    posehar predict          one input -> predicted action
    posehar evaluate         raw records -> protocol scores and confusion

Options can come from a JSON config file (--config); explicit flags win over
the file, which wins over built-in defaults. Exit codes: 0 success, 2
configuration error, 3 data error, 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from . import augment as augment_mod
from . import classifier as clf
from . import embed as embed_mod
from . import evaluate as eval_mod
from . import io as io_mod
from . import som as som_mod
from . import synth as synth_mod
from .errors import (ConfigError, EmptySequence, ParseError, PoseHarError, TooFewSamples,
                     field_value)
from .pose import Sample
from .preprocess import preprocess_sample

log = logging.getLogger(__name__)

# The top-level keys a config file may hold.
_CONFIG_KEYS = ("seed", "mode", "augment", "som", "classifier", "protocol")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        payload = io_mod.read_json(path)
    except ParseError as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    _refuse_unknown(f"config {path}", payload, _CONFIG_KEYS)
    return payload


def _refuse_unknown(where: str, keys, expected: Sequence[str]) -> None:
    """A ConfigError naming every key outside ``expected``."""
    unknown = sorted(set(keys) - set(expected))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
                          f"expected {', '.join(expected)}")


def _seed(args, config: dict) -> int:
    seed = getattr(args, "seed", None)
    seed = config.get("seed", 0) if seed is None else seed
    return _settings(field_value, "global", {"value": seed}, name="seed", annotation="int")


def _mode(args, config: dict, choices: tuple[str, ...] = embed_mod.MODES) -> str:
    mode = getattr(args, "mode", None) or config.get("mode", "advanced")
    if mode not in choices:
        raise ConfigError(f"mode must be one of {', '.join(choices)}, got {mode!r}")
    return mode


def _section(config: dict, name: str, args=None, flags: tuple[str, ...] = ()) -> dict:
    """A copy of one config section with the given flags merged in; flags win."""
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section '{name}' must be a JSON object")
    section = dict(section)
    for flag in flags:
        if getattr(args, flag, None) is not None:
            section[flag] = getattr(args, flag)
    return section


def _settings(build, what: str, section: dict, **fixed):
    """``build(**fixed, **section)``: one settings dataclass, or one checked
    value; unknown keys (every one named), a bad type or value are a
    ConfigError."""
    _refuse_unknown(f"bad {what} settings", section,
                    [name for name in inspect.signature(build).parameters if name not in fixed])
    try:
        return build(**fixed, **section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} settings: {exc}") from exc


def _augment_config(args, config: dict, seed: int) -> augment_mod.AugmentConfig:
    section = _section(config, "augment", args, ("z", "sigma", "flip"))
    return _settings(augment_mod.AugmentConfig, "augment", {"rng_seed": seed, **section})


def _som_config(args, config: dict, seed: int) -> som_mod.SomConfig:
    section = _section(config, "som", args, ("q", "m", "epochs"))
    return _settings(som_mod.SomConfig, "som", {"rng_seed": seed, **section})


def _pipeline_config(args, config: dict) -> eval_mod.PipelineConfig:
    """Every setting of an experiment."""
    seed = _seed(args, config)
    som = _som_config(args, config, seed)
    classifier = _section(config, "classifier")
    _settings(clf.ClassifierConfig, "classifier", classifier,
              channels=1, classes=2)   # stand-in sizes, as train checks it
    return _settings(eval_mod.PipelineConfig, "pipeline", {
        "mode": _mode(args, config), "augment": _augment_config(args, config, seed),
        "som": som, "pca_components": som.m,
        "classifier": classifier, "seed": seed})


def _protocol(args, config: dict) -> eval_mod.Protocol:
    section = _section(config, "protocol", args, ("folds",))
    if getattr(args, "protocol", None):
        section["kind"] = args.protocol
    protocol = _settings(eval_mod.Protocol, "protocol", section)
    if protocol.kind == "split" and not (protocol.train_groups and protocol.test_groups):
        raise ConfigError("split protocol needs train_groups and test_groups")
    return protocol


# --------------------------------------------------------------------------
# Subcommands


def cmd_synth(args, config: dict) -> int:
    seed = _seed(args, config)
    archetypes = tuple(args.archetypes.split(",")) if args.archetypes else synth_mod.ARCHETYPES
    viewpoints = tuple(args.viewpoints.split(",")) if args.viewpoints else ("front",)
    try:
        samples = synth_mod.generate_corpus(
            args.actors, archetypes, viewpoints, seed=seed, frames=args.frames)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    io_mod.write_dataset(args.out, samples, io_mod.write_sample, ".seq")
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def cmd_ingest(args, config: dict) -> int:
    samples, _ = io_mod.load_dataset(args.manifest, threshold=args.threshold)
    io_mod.write_dataset(args.out, samples, io_mod.write_sample, ".seq")
    print(f"ingested {len(samples)} samples to {args.out}")
    return 0


def cmd_preprocess(args, config: dict) -> int:
    samples, _ = io_mod.load_dataset(args.manifest)
    items, reports, skipped = [], [], 0
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
    out = Path(args.out)
    io_mod.write_dataset(out, items, io_mod.write_normalized, ".seq")
    (out / "report.json").write_text(json.dumps(reports, indent=2, sort_keys=True) + "\n")
    print(f"preprocessed {len(items)} sequences to {out} ({skipped} skipped)")
    return 0


def cmd_augment(args, config: dict) -> int:
    augment_config = _augment_config(args, config, _seed(args, config))
    items, _ = io_mod.load_normalized_dataset(args.manifest)
    expanded = augment_mod.augment_set(items, augment_config)
    io_mod.write_dataset(args.out, expanded, io_mod.write_normalized, ".seq")
    print(f"augmented {len(items)} -> {len(expanded)} sequences in {args.out}")
    return 0


def cmd_build_libraries(args, config: dict) -> int:
    som = _som_config(args, config, _seed(args, config))
    items, _ = io_mod.load_normalized_dataset(args.manifest)
    bundle = som_mod.build_bundle(items, som.m, som)
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


def cmd_train(args, config: dict) -> int:
    try:
        val_fraction = eval_mod.check_val_fraction(args.val_fraction)
    except ValueError as exc:
        raise ConfigError(f"bad --val-fraction: {exc}") from exc
    seed = _seed(args, config)
    section = {"rng_seed": seed, **_section(config, "classifier")}
    # Refuse bad settings, and a network no machine can allocate, before any
    # data is read; the sizes stand in for the data's.
    clf.init_model(_settings(clf.ClassifierConfig, "classifier", section,
                             channels=1, classes=2))
    mode = _mode(args, config, embed_mod.EMBED_MODES)
    spatial, temporal = _libraries(mode, args.bundle)
    items, _ = io_mod.load_normalized_dataset(args.manifest)
    actions = sorted({item.action for item in items})
    if len(actions) < 2:
        raise TooFewSamples(f"{args.manifest}: training needs at least two actions, "
                            f"the records hold only {actions}")
    class_of = {a: i for i, a in enumerate(actions)}
    embedded = embed_mod.embed_sequences([item.seq for item in items], spatial, temporal, mode)
    pairs = [(channels.values, class_of[item.action]) for channels, item in zip(embedded, items)]
    train_idx, val_idx = eval_mod._carve_validation(
        list(range(len(pairs))), [item.action for item in items],
        val_fraction, np.random.default_rng([seed, 5]))
    train_set = [pairs[i] for i in train_idx]
    val_set = [pairs[i] for i in val_idx]
    model_config = _settings(clf.ClassifierConfig, "classifier", section,
                             channels=pairs[0][0].shape[0], classes=len(actions))
    model, history = clf.train(model_config, train_set, val_set)
    clf.save_model(args.out, model, actions)
    best = max(h["val_accuracy"] for h in history)
    print(f"trained on {len(train_set)} sequences, validated on {len(val_set)}; "
          f"best validation accuracy {best:.3f}; model written to {args.out}")
    return 0


def _channels_for_input(path: Path, mode: str, bundle_path: str | None,
                        threshold: float) -> np.ndarray:
    """Turn any supported input into a channel matrix for prediction."""
    if path.is_dir():
        xy, present = io_mod.read_detector_clip(path, threshold)
        record = Sample(xy, present, "unknown", "front", "unknown", "")
    else:
        record = io_mod.read_record(path)
    labeled = preprocess_sample(record)[0] if isinstance(record, Sample) else record
    spatial, temporal = _libraries(mode, bundle_path)
    return embed_mod.embed_sequence(labeled.seq, spatial, temporal, mode).values


def cmd_predict(args, config: dict) -> int:
    mode = _mode(args, config, embed_mod.EMBED_MODES)
    model, actions = clf.load_model(args.model)
    series = _channels_for_input(Path(args.input), mode, args.bundle, args.threshold)
    probs = clf.predict_proba(model, [series])[0]
    winner = int(np.argmax(probs))
    result = {"label": actions[winner],
              "probabilities": {actions[i]: float(p) for i, p in enumerate(probs)}}
    print(json.dumps(result, sort_keys=True, indent=2))
    return 0


def cmd_evaluate(args, config: dict) -> int:
    protocol = _protocol(args, config)
    pipeline = _pipeline_config(args, config)
    samples, _ = io_mod.load_dataset(args.manifest)
    report = eval_mod.run_experiment(samples, protocol, pipeline)
    print(report.render_confusion())
    print(f"absolute accuracy: {report.absolute_accuracy:.4f}")
    print(f"relative accuracy: {report.relative_accuracy:.4f}")
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
        print(f"report written to {args.out}")
    return 0


# --------------------------------------------------------------------------
# Parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
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

    def add_parser(name: str, func, *required: str, **kwargs):
        """A subcommand that runs ``func`` and requires the ``required`` flags."""
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(func=func)
        for flag in required:
            p.add_argument(flag, required=True)
        return p

    p = add_parser("synth", cmd_synth, "--out", help="generate a synthetic labeled corpus")
    p.add_argument("--actors", type=int, default=6)
    p.add_argument("--archetypes", help="comma-separated archetype names")
    p.add_argument("--viewpoints", help="comma-separated viewpoint names")
    p.add_argument("--frames", type=int, default=40)

    p = add_parser("ingest", cmd_ingest, "--manifest", "--out",
                   help="convert detector exports to sequence records")
    p.add_argument("--threshold", type=float, default=0.0,
                   help="keypoint confidence threshold")

    add_parser("preprocess", cmd_preprocess, "--manifest", "--out",
               help="treat missing data and normalize")

    p = add_parser("augment", cmd_augment, "--manifest", "--out",
                   help="expand a normalized training set")
    p.add_argument("--z", type=int, default=None, help="noised copies per sequence")
    p.add_argument("--sigma", type=float, default=None, help="noise std deviation")
    flip = p.add_mutually_exclusive_group()
    flip.add_argument("--flip", dest="flip", action="store_true", default=None)
    flip.add_argument("--no-flip", dest="flip", action="store_false")

    p = add_parser("build-libraries", cmd_build_libraries, "--manifest", "--out",
                   help="fit reduction models and libraries")
    p.add_argument("--q", type=int, default=None, help="units per lattice side")
    p.add_argument("--m", type=int, default=None, help="lattice dimensions")
    p.add_argument("--epochs", type=int, default=None)

    p = add_parser("train", cmd_train, "--manifest", "--out",
                   help="embed normalized records and train the classifier")
    p.add_argument("--bundle")
    p.add_argument("--mode", choices=embed_mod.EMBED_MODES)
    p.add_argument("--val-fraction", type=float, default=0.15)

    p = add_parser("predict", cmd_predict, "--model", "--input",
                   help="classify one clip or record")
    p.add_argument("--bundle")
    p.add_argument("--mode", choices=embed_mod.EMBED_MODES)
    p.add_argument("--threshold", type=float, default=0.0)

    p = add_parser("evaluate", cmd_evaluate, "--manifest",
                   help="run a full protocol evaluation")
    p.add_argument("--protocol", choices=eval_mod.PROTOCOL_KINDS)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--mode", choices=embed_mod.MODES)
    p.add_argument("--out", help="write the JSON report here")
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
