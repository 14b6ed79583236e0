"""File formats: detector keypoint exports, sequence records, manifests.

Three kinds of input are understood:

* **Detector clips**: a directory of per-frame JSON files in the common
  18-keypoint export layout, ``{"people": [{"pose_keypoints_2d": [54
  floats]}]}``. The five facial keypoints are merged into the single head
  landmark; the remaining thirteen map one-to-one onto landmarks 2..14.
* **Sequence records** (``.seq``): the package's own text format, one sample
  per file. First line is ``#posehar-seq v1`` plus a JSON header, then one
  line per frame holding 14 ``x y present`` triples. Floats are written with
  ``repr`` and parsed with ``float``, so records round-trip float64 exactly
  and identical inputs produce byte-identical files.
* **Manifests** (``.json``): the dataset index declaring the action and
  viewpoint vocabularies and one entry per sample with its path and labels.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embed import EmbeddingChannels
from .errors import MalformedFrame, ParseError, UnknownLabel
from .pose import N_LANDMARKS, VIEWPOINTS, Sample
from .preprocess import LabeledSequence, NormalizedSequence

log = logging.getLogger(__name__)

SEQ_MAGIC = "#posehar-seq v1"
EMB_MAGIC = "#posehar-emb v1"
MANIFEST_FORMAT = "posehar-manifest/1"

N_KEYPOINTS = 18
# Indices of the facial keypoints (nose, eyes, ears) in the 18-point detector
# layout; their average becomes the head landmark.
FACIAL_KEYPOINTS = (0, 14, 15, 16, 17)
# The remaining thirteen keypoints, in detector order, are landmarks 2..14:
# neck, then right arm, left arm, right leg, left leg.
BODY_KEYPOINTS = tuple(i for i in range(N_KEYPOINTS) if i not in FACIAL_KEYPOINTS)
NECK_KEYPOINT = 1


@dataclass(frozen=True)
class RawDetectionFrame:
    """One person's keypoints for one frame, straight from the detector."""

    keypoints: np.ndarray   # (18, 3): x, y, confidence
    frame_index: int = 0

    def __post_init__(self) -> None:
        kp = np.ascontiguousarray(self.keypoints, dtype=np.float64)
        if kp.shape != (N_KEYPOINTS, 3):
            raise MalformedFrame(
                f"frame {self.frame_index}: expected {N_KEYPOINTS} keypoint triples, "
                f"got shape {kp.shape}")
        object.__setattr__(self, "keypoints", kp)


def merge_head(frame: RawDetectionFrame,
               threshold: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Convert one detector frame to (14, 2) coordinates and (14,) presence.

    A keypoint counts as detected when its confidence exceeds ``threshold``.
    The head landmark is the mean of the detected facial keypoints and is
    absent only when none of them was detected.
    """
    kp = frame.keypoints
    detected = kp[:, 2] > threshold
    xy = np.zeros((N_LANDMARKS, 2))
    present = np.zeros(N_LANDMARKS, dtype=bool)

    face = [i for i in FACIAL_KEYPOINTS if detected[i]]
    if face:
        xy[0] = kp[face, :2].mean(axis=0)
        present[0] = True
    for row, i in enumerate(BODY_KEYPOINTS, start=1):
        if detected[i]:
            xy[row] = kp[i, :2]
            present[row] = True
    return xy, present


def _frame_people(path: Path, payload: object) -> list[np.ndarray]:
    try:
        people = payload["people"]  # type: ignore[index]
        out = []
        for person in people:
            flat = np.asarray(person["pose_keypoints_2d"], dtype=np.float64)
            out.append(flat.reshape(N_KEYPOINTS, 3))
    except (TypeError, KeyError, ValueError) as exc:
        raise ParseError(f"{path}: not a recognizable keypoint export ({exc})") from exc
    for n, keypoints in enumerate(out):
        if not np.isfinite(keypoints).all():
            raise ParseError(f"{path}: person {n} has a non-finite keypoint value")
    return out


def _select_person(people: list[np.ndarray], last_root: np.ndarray | None,
                   threshold: float) -> np.ndarray:
    """Pick one person from a multi-person frame.

    Tracking heuristic: prefer the person whose neck is nearest the neck of
    the previously selected person; before any neck has been seen, take the
    person with the highest total keypoint confidence.
    """
    if last_root is not None:
        with_root = [p for p in people if p[NECK_KEYPOINT, 2] > threshold]
        if with_root:
            dists = [float(np.hypot(*(p[NECK_KEYPOINT, :2] - last_root))) for p in with_root]
            return with_root[int(np.argmin(dists))]
    totals = [float(p[:, 2].sum()) for p in people]
    return people[int(np.argmax(totals))]


def read_detector_clip(directory: str | os.PathLike,
                       threshold: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Read a directory of per-frame keypoint JSON files into (T, 14, 2)
    coordinates and (T, 14) presence flags.

    Files are processed in sorted name order. Frames with no people at all
    are left all-absent so the timeline stays aligned with the source
    video; the preprocessing stage drops them later.
    """
    directory = Path(directory)
    files = sorted(p for p in directory.iterdir() if p.suffix == ".json")
    if not files:
        raise ParseError(f"{directory}: no frame files found")
    xy = np.zeros((len(files), N_LANDMARKS, 2))
    present = np.zeros((len(files), N_LANDMARKS), dtype=bool)
    last_root: np.ndarray | None = None
    for index, path in enumerate(files):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
        people = _frame_people(path, payload)
        if not people:
            continue
        chosen = _select_person(people, last_root, threshold)
        if chosen[NECK_KEYPOINT, 2] > threshold:
            last_root = chosen[NECK_KEYPOINT, :2].copy()
        xy[index], present[index] = merge_head(RawDetectionFrame(chosen, index), threshold)
    return xy, present


# --------------------------------------------------------------------------
# Sequence records


def _header_json(fields: dict) -> str:
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def _format_frame(xy: np.ndarray, present: np.ndarray) -> str:
    # repr of a Python float is the shortest string that round-trips exactly.
    parts = []
    for j in range(N_LANDMARKS):
        parts.append(f"{float(xy[j, 0])!r} {float(xy[j, 1])!r} {int(present[j])}")
    return " ".join(parts)


def write_sample(path: str | os.PathLike, sample: Sample) -> None:
    """Write a raw sample as a sequence record."""
    header = {
        "action": sample.action,
        "viewpoint": sample.viewpoint,
        "actor": sample.actor,
        "dataset": sample.dataset,
        "normalized": False,
        "persistent_missing": [],
    }
    lines = [f"{SEQ_MAGIC} {_header_json(header)}"]
    for xy, present in zip(sample.xy, sample.present):
        lines.append(_format_frame(xy, present))
    Path(path).write_text("\n".join(lines) + "\n")


def write_normalized(path: str | os.PathLike, item: LabeledSequence) -> None:
    """Write a preprocessed sample as a sequence record."""
    header = {
        "action": item.action,
        "viewpoint": item.viewpoint,
        "actor": item.actor,
        "dataset": item.dataset,
        "normalized": True,
        "persistent_missing": sorted(item.seq.persistent_missing),
    }
    lines = [f"{SEQ_MAGIC} {_header_json(header)}"]
    present = np.ones(N_LANDMARKS, dtype=bool)
    for j in item.seq.persistent_missing:
        present[j - 1] = False
    for frame in item.seq.xy:
        lines.append(_format_frame(frame, present))
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_seq_file(path: Path) -> tuple[dict, np.ndarray, np.ndarray]:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or not lines[0].startswith(SEQ_MAGIC + " "):
        raise ParseError(f"{path}: missing '{SEQ_MAGIC}' header")
    try:
        header = json.loads(lines[0][len(SEQ_MAGIC) + 1 :])
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: bad header JSON ({exc})") from exc
    frames = [ln for ln in lines[1:] if ln.strip()]
    if not frames:
        raise ParseError(f"{path}: record has no frames")
    triples = np.empty((len(frames), N_LANDMARKS, 3))
    for t, line in enumerate(frames):
        fields = line.split()
        if len(fields) != 3 * N_LANDMARKS:
            raise ParseError(
                f"{path}, frame {t}: expected {3 * N_LANDMARKS} fields, got {len(fields)}")
        try:
            triples[t] = np.asarray([float(f) for f in fields]).reshape(N_LANDMARKS, 3)
        except ValueError as exc:
            raise ParseError(f"{path}, frame {t}: {exc}") from exc
    finite = np.isfinite(triples).all(axis=(1, 2))
    if not finite.all():
        raise ParseError(f"{path}, frame {int(np.argmin(finite))}: non-finite value")
    return header, triples[:, :, :2], triples[:, :, 2] != 0


def _require_labels(header: dict, path: Path) -> tuple[str, str, str, str]:
    try:
        return (str(header["action"]), str(header["viewpoint"]),
                str(header["actor"]), str(header.get("dataset", "")))
    except KeyError as exc:
        raise ParseError(f"{path}: header lacks {exc}") from exc


def read_record(path: str | os.PathLike) -> Sample | LabeledSequence:
    """Read a sequence record as whichever kind its header declares."""
    path = Path(path)
    header, xy, present = _parse_seq_file(path)
    action, viewpoint, actor, dataset = _require_labels(header, path)
    if header.get("normalized"):
        missing = frozenset(int(j) for j in header.get("persistent_missing", []))
        seq = NormalizedSequence(xy, np.diff(xy, axis=0), missing)
        return LabeledSequence(seq, action, viewpoint, actor, dataset)
    return Sample(xy, present, action, viewpoint, actor, dataset)


def read_sample(path: str | os.PathLike) -> Sample:
    """Read a raw sequence record back into a sample."""
    record = read_record(path)
    if not isinstance(record, Sample):
        raise ParseError(f"{path}: record is normalized; use read_normalized")
    return record


def read_normalized(path: str | os.PathLike) -> LabeledSequence:
    """Read a normalized sequence record. Derivatives are recomputed."""
    record = read_record(path)
    if isinstance(record, Sample):
        raise ParseError(f"{path}: record is not normalized; use read_sample")
    return record


# --------------------------------------------------------------------------
# Embedded-channel records


def write_embedding(path: str | os.PathLike, channels: EmbeddingChannels,
                    labels: dict) -> None:
    """Write a channel stack: header line, then one line per channel."""
    header = dict(labels)
    header["channels"] = list(channels.names)
    header["length"] = channels.length
    lines = [f"{EMB_MAGIC} {_header_json(header)}"]
    for row in channels.values:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_embedding(path: str | os.PathLike) -> tuple[EmbeddingChannels, dict]:
    """Read a channel stack and its label header."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not lines or not lines[0].startswith(EMB_MAGIC + " "):
        raise ParseError(f"{path}: missing '{EMB_MAGIC}' header")
    try:
        header = json.loads(lines[0][len(EMB_MAGIC) + 1 :])
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: bad header JSON ({exc})") from exc
    names = header.pop("channels", None)
    length = header.pop("length", None)
    if not names or length is None:
        raise ParseError(f"{path}: header lacks the channel list or length")
    rows = [ln for ln in lines[1:] if ln.strip()]
    if len(rows) != len(names):
        raise ParseError(f"{path}: {len(rows)} channel lines for {len(names)} names")
    values = np.empty((len(rows), int(length)))
    for r, line in enumerate(rows):
        fields = line.split()
        if len(fields) != int(length):
            raise ParseError(
                f"{path}, channel {r}: expected {length} values, got {len(fields)}")
        try:
            values[r] = [float(f) for f in fields]
        except ValueError as exc:
            raise ParseError(f"{path}, channel {r}: {exc}") from exc
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ParseError(f"{path}, channel {int(np.argmin(finite))}: non-finite value")
    return EmbeddingChannels(values, tuple(names)), header


# --------------------------------------------------------------------------
# Manifests


def write_manifest(path: str | os.PathLike, actions: list[str], viewpoints: list[str],
                   entries: list[dict]) -> None:
    payload = {
        "format": MANIFEST_FORMAT,
        "actions": sorted(actions),
        "viewpoints": sorted(viewpoints),
        "entries": entries,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def load_manifest(path: str | os.PathLike) -> dict:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != MANIFEST_FORMAT:
        raise ParseError(f"{path}: not a {MANIFEST_FORMAT} manifest")
    for key in ("actions", "viewpoints", "entries"):
        if key not in payload:
            raise ParseError(f"{path}: manifest lacks '{key}'")
    paths = [e.get("path") for e in payload["entries"]]
    if len(set(paths)) != len(paths):
        raise ParseError(f"{path}: duplicate entry paths in manifest")
    return payload


def _check_entry_labels(entry: dict, actions: set[str], viewpoints: set[str]) -> None:
    if entry["action"] not in actions:
        raise UnknownLabel(f"action {entry['action']!r} not in the manifest vocabulary")
    if entry["viewpoint"] not in viewpoints:
        raise UnknownLabel(f"viewpoint {entry['viewpoint']!r} not in the manifest vocabulary")
    if entry["viewpoint"] not in VIEWPOINTS:
        raise UnknownLabel(f"viewpoint {entry['viewpoint']!r} is not a known camera placement")


def load_dataset(manifest_path: str | os.PathLike,
                 threshold: float = 0.0) -> tuple[list[Sample], dict]:
    """Load every sample listed in a manifest of raw data.

    Entry paths are resolved relative to the manifest's directory. A path
    naming a directory is read as a detector clip; a file is read as a
    sequence record.
    """
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    actions = set(manifest["actions"])
    viewpoints = set(manifest["viewpoints"])
    samples: list[Sample] = []
    for entry in manifest["entries"]:
        _check_entry_labels(entry, actions, viewpoints)
        source = manifest_path.parent / entry["path"]
        if source.is_dir():
            xy, present = read_detector_clip(source, threshold)
            sample = Sample(xy, present, entry["action"], entry["viewpoint"],
                            entry["actor"], entry.get("dataset", ""))
        else:
            sample = read_sample(source)
            if (sample.action, sample.viewpoint) != (entry["action"], entry["viewpoint"]):
                raise UnknownLabel(
                    f"{source}: record labels disagree with the manifest entry")
        samples.append(sample)
    return samples, manifest


def load_normalized_dataset(manifest_path: str | os.PathLike) -> tuple[list[LabeledSequence], dict]:
    """Load every normalized sequence listed in a manifest."""
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    actions = set(manifest["actions"])
    viewpoints = set(manifest["viewpoints"])
    items: list[LabeledSequence] = []
    for entry in manifest["entries"]:
        _check_entry_labels(entry, actions, viewpoints)
        items.append(read_normalized(manifest_path.parent / entry["path"]))
    return items, manifest


def manifest_entry(path: str, sample_or_item: Sample | LabeledSequence) -> dict:
    s = sample_or_item
    return {"path": path, "action": s.action, "viewpoint": s.viewpoint,
            "actor": s.actor, "dataset": s.dataset}
