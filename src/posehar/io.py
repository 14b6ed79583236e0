"""File formats: detector keypoint exports, sequence records, manifests.

Three kinds of input are understood, each by exactly one reader:

* **Detector clips**: a directory of per-frame JSON files in the common
  18-keypoint export layout, ``{"people": [{"pose_keypoints_2d": [54
  floats]}]}``. The five facial keypoints are merged into the single head
  landmark; the remaining thirteen map one-to-one onto landmarks 2..14.
* **Sequence records** (``.seq``): the package's own text format, one sample
  per file. First line is ``#posehar-seq v1`` plus a JSON header, then one
  line per frame holding 14 ``x y present`` triples. Floats are written with
  ``repr`` and parsed by ``np.loadtxt``, which rounds correctly as ``float``
  does, so records round-trip float64 exactly and identical inputs produce
  byte-identical files.
* **Manifests** (``.json``): the dataset index declaring the action and
  viewpoint vocabularies and one entry per sample with its path and labels.

Every text file is read through :func:`read_json` or the record codec, so a
file that cannot be read, decoded or parsed is a ParseError naming it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import ParseError, UnknownLabel, is_integer
from .pose import N_LANDMARKS, ROOT, VIEWPOINTS, Sample
from .preprocess import LabeledSequence, NormalizedSequence

SEQ_MAGIC = "#posehar-seq v1"
MANIFEST_FORMAT = "posehar-manifest/1"

# Labels every record and manifest entry carries; ``dataset`` is optional.
REQUIRED_LABELS = ("action", "viewpoint", "actor")
LABELS = (*REQUIRED_LABELS, "dataset")

N_KEYPOINTS = 18
# Indices of the facial keypoints (nose, eyes, ears) in the 18-point detector
# layout; their average becomes the head landmark.
FACIAL_KEYPOINTS = (0, 14, 15, 16, 17)
# The remaining thirteen keypoints, in detector order, are landmarks 2..14:
# neck, then right arm, left arm, right leg, left leg.
BODY_KEYPOINTS = tuple(i for i in range(N_KEYPOINTS) if i not in FACIAL_KEYPOINTS)
NECK_KEYPOINT = 1


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def read_json(path: str | os.PathLike) -> object:
    """Parse a JSON file; a read, decode or syntax error is a ParseError."""
    path = Path(path)
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _strings(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def merge_head(keypoints: np.ndarray,
               threshold: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Convert one person's (18, 3) detector keypoints (x, y, confidence)
    to (14, 2) coordinates and (14,) presence.

    A keypoint counts as detected when its confidence exceeds ``threshold``.
    The head landmark is the mean of the detected facial keypoints and is
    absent only when none of them was detected.
    """
    detected = keypoints[:, 2] > threshold
    xy = np.zeros((N_LANDMARKS, 2))
    present = np.zeros(N_LANDMARKS, dtype=bool)

    face = [i for i in FACIAL_KEYPOINTS if detected[i]]
    if face:
        xy[0] = keypoints[face, :2].mean(axis=0)
        present[0] = True
    for row, i in enumerate(BODY_KEYPOINTS, start=1):
        if detected[i]:
            xy[row] = keypoints[i, :2]
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
        people = _frame_people(path, read_json(path))
        if not people:
            continue
        chosen = _select_person(people, last_root, threshold)
        if chosen[NECK_KEYPOINT, 2] > threshold:
            last_root = chosen[NECK_KEYPOINT, :2].copy()
        xy[index], present[index] = merge_head(chosen, threshold)
    return xy, present


# --------------------------------------------------------------------------
# Record codec: a magic word and a JSON header on the first line, then one
# line of fourteen ``x y present`` triples per frame.

_ROW_WIDTH = 3 * N_LANDMARKS


def _write_record(path: str | os.PathLike, header: dict, rows) -> None:
    lines = [f"{SEQ_MAGIC} {json.dumps(header, sort_keys=True, separators=(',', ':'))}", *rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_record(path: Path) -> tuple[dict, list[str]]:
    """The header of a record and its non-blank frame lines."""
    lines = _read_text(path).splitlines()
    if not lines or not lines[0].startswith(SEQ_MAGIC + " "):
        raise ParseError(f"{path}: missing '{SEQ_MAGIC}' header")
    try:
        header = json.loads(lines[0][len(SEQ_MAGIC) + 1 :])
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: bad header JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise ParseError(f"{path}: header is not a JSON object")
    for key in LABELS:
        if not isinstance(header.get(key, ""), str):
            raise ParseError(f"{path}: header label '{key}' is not a string")
    return header, [ln for ln in lines[1:] if ln.strip()]


def _parse_rows(path: Path, rows: list[str]) -> np.ndarray:
    """Parse 3 * 14 finite floats per row; errors name the frame.

    ``np.loadtxt`` parses the rows in C. Like ``float`` it rounds correctly,
    so both give the same bits for every token it reads; ``comments=None``
    keeps a ``#`` from cutting a row short. Where it refuses the rows or
    finds another width, the ``float`` loop runs instead: it still reads
    the tokens only ``float`` accepts (``1_0``, non-ASCII digits) and names
    the first bad row.
    """
    try:
        values = np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        values = None
    if values is None or values.shape != (len(rows), _ROW_WIDTH):
        values = np.empty((len(rows), _ROW_WIDTH))
        for r, line in enumerate(rows):
            fields = line.split()
            if len(fields) != _ROW_WIDTH:
                raise ParseError(
                    f"{path}, frame {r}: expected {_ROW_WIDTH} values, got {len(fields)}")
            try:
                values[r] = [float(f) for f in fields]
            except ValueError as exc:
                raise ParseError(f"{path}, frame {r}: {exc}") from exc
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ParseError(f"{path}, frame {int(np.argmin(finite))}: non-finite value")
    return values


def _labels(record: Sample | LabeledSequence) -> dict:
    return {key: getattr(record, key) for key in LABELS}


def _labelled(record: Sample | LabeledSequence) -> tuple[Sample | LabeledSequence, dict]:
    return record, _labels(record)


# --------------------------------------------------------------------------
# Sequence records


def _format_frame(xy: np.ndarray, present: np.ndarray) -> str:
    # repr of a Python float is the shortest string that round-trips exactly.
    return " ".join(f"{float(xy[j, 0])!r} {float(xy[j, 1])!r} {int(present[j])}"
                    for j in range(N_LANDMARKS))


def write_sample(path: str | os.PathLike, sample: Sample) -> None:
    """Write a raw sample as a sequence record."""
    header = dict(_labels(sample), normalized=False, persistent_missing=[])
    _write_record(path, header, map(_format_frame, sample.xy, sample.present))


def _normalized_present(missing: list[int]) -> np.ndarray:
    """The presence flags of every frame of a normalized record."""
    return ~np.isin(np.arange(1, N_LANDMARKS + 1), missing)


def write_normalized(path: str | os.PathLike, item: LabeledSequence) -> None:
    """Write a preprocessed sample as a sequence record."""
    missing = sorted(item.seq.persistent_missing)
    header = dict(_labels(item), normalized=True, persistent_missing=missing)
    present = _normalized_present(missing)
    _write_record(path, header, (_format_frame(frame, present) for frame in item.seq.xy))


def read_record(path: str | os.PathLike) -> Sample | LabeledSequence:
    """Read a sequence record as whichever kind its header declares."""
    path = Path(path)
    header, rows = _read_record(path)
    absent = [key for key in REQUIRED_LABELS if key not in header]
    if absent:
        raise ParseError(f"{path}: header lacks {', '.join(absent)}")
    normalized = header.get("normalized", False)
    if not isinstance(normalized, bool):
        raise ParseError(f"{path}: normalized must be true or false")
    missing = header.get("persistent_missing", [])
    if not (isinstance(missing, list) and all(
            is_integer(j) and 1 <= j <= N_LANDMARKS and j != ROOT for j in missing)):
        raise ParseError(f"{path}: persistent_missing must list landmarks "
                         f"1..{N_LANDMARKS} other than the root")
    if not rows:
        raise ParseError(f"{path}: record has no frames")
    triples = _parse_rows(path, rows).reshape(-1, N_LANDMARKS, 3)
    labels = [header.get(key, "") for key in LABELS]
    xy, present = triples[:, :, :2], triples[:, :, 2] != 0
    # Every record flags its persistently missing landmarks absent in every
    # frame; a normalized record also flags every other landmark present.
    if normalized:
        agree = (present == _normalized_present(missing)).all(axis=1)
    else:
        agree = ~present[:, [j - 1 for j in missing]].any(axis=1)
    if not agree.all():
        raise ParseError(f"{path}, frame {int(np.argmin(agree))}: presence flags "
                         f"disagree with persistent_missing {sorted(missing)}")
    if normalized:
        return LabeledSequence(NormalizedSequence(xy, frozenset(missing)), *labels)
    return Sample(xy, present, *labels)


def read_sample(path: str | os.PathLike) -> Sample:
    """Read a raw sequence record back into a sample."""
    record = read_record(path)
    if not isinstance(record, Sample):
        raise ParseError(f"{path}: record is normalized; use read_normalized")
    return record


def read_normalized(path: str | os.PathLike) -> LabeledSequence:
    """Read a normalized sequence record."""
    record = read_record(path)
    if isinstance(record, Sample):
        raise ParseError(f"{path}: record is not normalized; use read_sample")
    return record


# --------------------------------------------------------------------------
# Manifests


def manifest_entry(path: str, sample_or_item: Sample | LabeledSequence) -> dict:
    return {"path": path, **_labels(sample_or_item)}


def write_manifest(path: str | os.PathLike, actions: list[str], viewpoints: list[str],
                   entries: list[dict]) -> None:
    payload = {
        "format": MANIFEST_FORMAT,
        "actions": sorted(actions),
        "viewpoints": sorted(viewpoints),
        "entries": entries,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_dataset(out_dir: str | os.PathLike, items, writer, suffix: str) -> None:
    """Write one record per item with ``writer(path, item)``, then the
    manifest that lists them."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for n, item in enumerate(items):
        name = f"{n:05d}_{item.action}_{item.actor}{suffix}"
        writer(out_dir / name, item)
        entries.append(manifest_entry(name, item))
    write_manifest(out_dir / "manifest.json", sorted({i.action for i in items}),
                   sorted({i.viewpoint for i in items}), entries)


def load_manifest(path: str | os.PathLike) -> dict:
    """Read a manifest and check its schema (see the README's "File
    formats"), including that no label could act as a path; a violation is
    a ParseError naming the file."""
    path = Path(path)
    payload = read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != MANIFEST_FORMAT:
        raise ParseError(f"{path}: not a {MANIFEST_FORMAT} manifest")
    entries = payload.get("entries")
    if not (_strings(payload.get("actions")) and _strings(payload.get("viewpoints"))
            and isinstance(entries, list) and entries):
        raise ParseError(f"{path}: manifest needs string lists 'actions' and "
                         "'viewpoints' and a non-empty 'entries' list")
    for n, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("dataset", ""), str)
                and all(isinstance(entry.get(key), str) for key in ("path", *REQUIRED_LABELS))):
            raise ParseError(f"{path}: entry {n} needs string path, action, viewpoint "
                             "and actor, and an optional string dataset")
        for key in LABELS:
            if key in entry and (set(entry[key]) & set("/\\\0") or entry[key] in (".", "..")):
                raise ParseError(f"{path}: entry {n} ({entry['path']}) has {key} "
                                 f"{entry[key]!r}; a label holds no '/', '\\' or NUL "
                                 "and is not '.' or '..'")
    paths = [entry["path"] for entry in entries]
    if len(set(paths)) != len(paths):
        raise ParseError(f"{path}: duplicate entry paths in manifest")
    return payload


def _load_entries(manifest_path: str | os.PathLike, read) -> tuple[list, dict]:
    """Read every record of a manifest with ``read(source, entry) -> (record,
    labels)`` under the one label contract of every manifest kind: the entry
    is in the vocabulary and the record's labels agree with the entry's
    (:func:`load_manifest` has already refused labels that could act as a
    path)."""
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    actions, viewpoints = set(manifest["actions"]), set(manifest["viewpoints"])
    records = []
    for entry in manifest["entries"]:
        if entry["action"] not in actions or entry["viewpoint"] not in viewpoints:
            raise UnknownLabel(f"{manifest_path}: {entry['path']} is labelled outside the "
                               f"manifest vocabulary ({entry['action']!r}, {entry['viewpoint']!r})")
        if entry["viewpoint"] not in VIEWPOINTS:
            raise UnknownLabel(f"{manifest_path}: viewpoint {entry['viewpoint']!r} "
                               "is not a known camera placement")
        source = manifest_path.parent / entry["path"]
        record, labels = read(source, entry)
        if any(labels.get(key, "") != entry[key] for key in LABELS if key in entry):
            raise UnknownLabel(f"{source}: record labels disagree with the manifest entry")
        records.append(record)
    return records, manifest


def load_dataset(manifest_path: str | os.PathLike,
                 threshold: float = 0.0) -> tuple[list[Sample], dict]:
    """Load every sample listed in a manifest of raw data.

    Entry paths are resolved relative to the manifest's directory. A path
    naming a directory is read as a detector clip labelled by its entry; a
    file is read as a sequence record.
    """
    def read(source: Path, entry: dict) -> tuple[Sample, dict]:
        if not source.is_dir():
            return _labelled(read_sample(source))
        xy, present = read_detector_clip(source, threshold)
        return Sample(xy, present, *(entry.get(key, "") for key in LABELS)), entry

    return _load_entries(manifest_path, read)


def load_normalized_dataset(manifest_path: str | os.PathLike) -> tuple[list[LabeledSequence], dict]:
    """Load every normalized sequence listed in a manifest."""
    return _load_entries(manifest_path, lambda source, _: _labelled(read_normalized(source)))

