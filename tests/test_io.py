"""Record formats, detector parsing, and manifest loading."""

import json
import re

import numpy as np
import pytest

from posehar.errors import ParseError, UnknownLabel
from posehar.io import (
    load_dataset,
    load_manifest,
    load_normalized_dataset,
    manifest_entry,
    merge_head,
    read_detector_clip,
    read_normalized,
    read_record,
    read_sample,
    write_manifest,
    write_normalized,
    write_sample,
)
from posehar.pose import N_LANDMARKS, Sample
from posehar.preprocess import LabeledSequence, NormalizedSequence


def random_sample(rng, frames=5, missing_prob=0.2):
    xy = np.empty((frames, N_LANDMARKS, 2))
    present = np.empty((frames, N_LANDMARKS), dtype=bool)
    for t in range(frames):
        xy[t] = rng.normal(300.0, 80.0, (N_LANDMARKS, 2))
        present[t] = rng.random(N_LANDMARKS) > missing_prob
    return Sample(xy, present, "wave", "front-left", "a3", "demo")


def random_normalized(rng, frames=6, missing=frozenset()):
    xy = rng.normal(0.0, 0.7, (frames, N_LANDMARKS, 2))
    xy[:, 1] = 0.0
    for j in missing:
        xy[:, j - 1] = 0.0
    seq = NormalizedSequence(xy, missing)
    return LabeledSequence(seq, "squat", "rear", "a7", "demo")


def test_sample_roundtrip_is_exact_and_deterministic(tmp_path):
    rng = np.random.default_rng(10)
    for trial in range(5):
        sample = random_sample(rng)
        p1, p2 = tmp_path / f"a{trial}.seq", tmp_path / f"b{trial}.seq"
        write_sample(p1, sample)
        back = read_sample(p1)
        assert back.action == sample.action
        assert back.viewpoint == sample.viewpoint
        assert back.actor == sample.actor
        assert back.dataset == sample.dataset
        np.testing.assert_array_equal(sample.xy[sample.present], back.xy[back.present])
        np.testing.assert_array_equal(sample.present, back.present)
        write_sample(p2, back)
        assert p1.read_bytes() == p2.read_bytes()


def test_normalized_roundtrip_recomputes_derivatives(tmp_path):
    rng = np.random.default_rng(11)
    item = random_normalized(rng, missing=frozenset({5, 8}))
    path = tmp_path / "n.seq"
    write_normalized(path, item)
    back = read_normalized(path)
    np.testing.assert_array_equal(back.seq.xy, item.seq.xy)
    np.testing.assert_array_equal(back.seq.deriv, item.seq.deriv)
    assert back.seq.persistent_missing == frozenset({5, 8})
    assert (back.action, back.viewpoint, back.actor) == ("squat", "rear", "a7")


# (frame, landmark, flag) edits of a record with landmark 8 persistently
# missing, and the first frame each leaves disagreeing with that header.
@pytest.mark.parametrize("edits, first", [
    ([(t, 5, "0") for t in range(6)], 0),
    ([(4, 5, "0"), (2, 8, "1")], 2),
    ([(5, 1, "0")], 5),
], ids=["landmark 5 absent throughout", "two frames", "root absent"])
def test_normalized_presence_flags_must_match_persistent_missing(tmp_path, edits, first):
    # Such flags were once ignored: landmark 5 flagged absent in every frame
    # read back as present, and train fitted on it.
    path = tmp_path / "n.seq"
    write_normalized(path, random_normalized(np.random.default_rng(13), missing=frozenset({8})))
    header, *rows = path.read_text().splitlines()
    rows = [row.split() for row in rows]
    for t, j, flag in edits:
        rows[t][3 * (j - 1) + 2] = flag
    path.write_text("\n".join([header, *map(" ".join, rows)]) + "\n")
    with pytest.raises(ParseError, match=f"n.seq, frame {first}: presence flags disagree "
                                         r"with persistent_missing \[8\]"):
        read_record(path)


def write_raw_listing(path, sample, listed):
    """Write ``sample`` as a raw record whose header lists ``listed`` as
    persistently missing."""
    write_sample(path, sample)
    header, *rows = path.read_text().splitlines()
    header = header.replace('"persistent_missing":[]', f'"persistent_missing":{listed}')
    path.write_text("\n".join([header, *rows]) + "\n")


@pytest.mark.parametrize("listed, present_in, first", [
    ([5], [0, 1, 2, 3, 4], 0),
    ([5, 9], [3], 3),
    ([14, 1], [4], 4),
], ids=["landmark 5 present throughout", "one frame of two listed", "last frame"])
def test_raw_record_listed_landmarks_must_be_absent(tmp_path, listed, present_in, first):
    # A raw header's list was once read and then ignored: landmark 5 listed
    # and flagged present in every frame read back through read_sample.
    path = tmp_path / "r.seq"
    sample = random_sample(np.random.default_rng(14), missing_prob=0.0)
    present = sample.present.copy()
    present[:, [j - 1 for j in listed]] = False
    write_raw_listing(path, Sample(sample.xy, present, "wave", "front", "a3"), listed)
    assert not read_sample(path).present[:, [j - 1 for j in listed]].any()
    present[present_in, listed[-1] - 1] = True
    write_raw_listing(path, Sample(sample.xy, present, "wave", "front", "a3"), listed)
    with pytest.raises(ParseError, match=re.escape(
            f"r.seq, frame {first}: presence flags disagree "
            f"with persistent_missing {sorted(listed)}")):
        read_sample(path)


def test_read_record_dispatches_on_header(tmp_path):
    rng = np.random.default_rng(12)
    raw, norm = tmp_path / "raw.seq", tmp_path / "norm.seq"
    write_sample(raw, random_sample(rng))
    write_normalized(norm, random_normalized(rng))
    assert isinstance(read_record(raw), Sample)
    assert isinstance(read_record(norm), LabeledSequence)
    with pytest.raises(ParseError):
        read_sample(norm)
    with pytest.raises(ParseError):
        read_normalized(raw)


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.seq"
    bad.write_text("not a record\n")
    with pytest.raises(ParseError):
        read_sample(bad)
    bad.write_text("#posehar-seq v1 {notjson}\n0 0 1\n")
    with pytest.raises(ParseError):
        read_sample(bad)
    header = '#posehar-seq v1 {"action":"wave","actor":"a1","viewpoint":"front"}'
    bad.write_text(header + "\n")  # no frames
    with pytest.raises(ParseError):
        read_sample(bad)
    bad.write_text(header + "\n1.0 2.0 1\n")  # wrong field count
    with pytest.raises(ParseError):
        read_sample(bad)
    row = " ".join(["1.0 2.0 1"] * (N_LANDMARKS - 1)) + " 1.0 oops 1"
    bad.write_text(header + "\n" + row + "\n")
    with pytest.raises(ParseError):
        read_sample(bad)
    with pytest.raises(ParseError):
        read_sample(tmp_path / "absent.seq")


def detector_frame(xys, confidences):
    kp = np.zeros((18, 3))
    kp[:, :2] = xys
    kp[:, 2] = confidences
    return kp


def test_merge_head_averages_detected_face_points():
    kp = np.zeros((18, 3))
    kp[:, 2] = 0.9
    for i in range(18):
        kp[i, :2] = (10.0 * i, 5.0 * i)
    xy, present = merge_head(kp)
    face = [0, 14, 15, 16, 17]
    np.testing.assert_allclose(xy[0], kp[face, :2].mean(axis=0))
    # neck keypoint becomes the root landmark
    np.testing.assert_array_equal(xy[1], kp[1, :2])
    assert present.all()


def test_merge_head_threshold_and_absence():
    kp = np.zeros((18, 3))
    kp[:, 2] = 0.4
    kp[0, 2] = 0.0
    kp[14, 2] = 0.6
    xy, present = merge_head(kp, threshold=0.5)
    # only one facial keypoint clears the threshold; it alone defines the head
    np.testing.assert_array_equal(xy[0], kp[14, :2])
    assert present[0]
    assert not present[1:].any()
    # confidence exactly at the threshold does not count
    kp[14, 2] = 0.5
    _, present = merge_head(kp, threshold=0.5)
    assert not present.any()


def write_clip(directory, frames):
    directory.mkdir(parents=True, exist_ok=True)
    for t, people in enumerate(frames):
        payload = {"people": [{"pose_keypoints_2d": kp.ravel().tolist()} for kp in people]}
        (directory / f"frame_{t:04d}.json").write_text(json.dumps(payload))


def test_read_detector_clip_tracks_nearest_neck(tmp_path):
    near = detector_frame(np.full((18, 2), 100.0), np.full(18, 0.5))
    far = detector_frame(np.full((18, 2), 400.0), np.full(18, 0.9))
    # frame 0: only the near person; frame 1: both, the far one more confident
    write_clip(tmp_path / "clip", [[near], [far, near]])
    xy, _ = read_detector_clip(tmp_path / "clip")
    np.testing.assert_array_equal(xy[1, 1], [100.0, 100.0])
    # without a track, total confidence decides
    write_clip(tmp_path / "fresh", [[far, near]])
    xy, _ = read_detector_clip(tmp_path / "fresh")
    np.testing.assert_array_equal(xy[0, 1], [400.0, 400.0])


def test_read_detector_clip_empty_frames_stay_absent(tmp_path):
    person = detector_frame(np.full((18, 2), 50.0), np.full(18, 0.8))
    write_clip(tmp_path / "clip", [[person], [], [person]])
    xy, present = read_detector_clip(tmp_path / "clip")
    assert xy.shape == (3, N_LANDMARKS, 2)
    assert present.shape == (3, N_LANDMARKS)
    assert not present[1].any()
    empty_dir = tmp_path / "nothing_here"
    empty_dir.mkdir()
    with pytest.raises(ParseError):
        read_detector_clip(empty_dir)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_read_detector_clip_rejects_non_finite_values(tmp_path, literal):
    person = detector_frame(np.full((18, 2), 50.0), np.full(18, 0.8))
    write_clip(tmp_path / "clip", [[person], [person]])
    # json.loads accepts these literals; the reader must not
    values = [repr(v) for v in person.ravel().tolist()]
    values[3] = literal
    (tmp_path / "clip" / "frame_0001.json").write_text(
        '{"people": [{"pose_keypoints_2d": [' + ", ".join(values) + "]}]}")
    with pytest.raises(ParseError, match="frame_0001.json"):
        read_detector_clip(tmp_path / "clip")


def test_read_detector_clip_rejects_a_wrong_keypoint_count(tmp_path):
    person = detector_frame(np.full((18, 2), 50.0), np.full(18, 0.8))
    write_clip(tmp_path / "clip", [[person], [person[:17]]])
    with pytest.raises(ParseError, match="frame_0001.json: not a recognizable keypoint export"):
        read_detector_clip(tmp_path / "clip")


def test_manifest_roundtrip_and_validation(tmp_path):
    rng = np.random.default_rng(13)
    sample = random_sample(rng)
    write_sample(tmp_path / "s0.seq", sample)
    entries = [manifest_entry("s0.seq", sample)]
    write_manifest(tmp_path / "manifest.json", ["wave"], ["front-left"], entries)
    samples, manifest = load_dataset(tmp_path / "manifest.json")
    assert len(samples) == 1
    assert samples[0].action == "wave"
    assert manifest["actions"] == ["wave"]

    with pytest.raises(ParseError):
        load_manifest(tmp_path / "s0.seq")
    bad = dict(manifest, entries=entries * 2)
    (tmp_path / "dup.json").write_text(json.dumps(bad))
    with pytest.raises(ParseError):
        load_manifest(tmp_path / "dup.json")


def test_load_dataset_rejects_label_mismatches(tmp_path):
    rng = np.random.default_rng(14)
    sample = random_sample(rng)
    write_sample(tmp_path / "s0.seq", sample)
    entry = manifest_entry("s0.seq", sample)

    unknown_action = dict(entry, action="jump")
    write_manifest(tmp_path / "m1.json", ["wave"], ["front-left"], [unknown_action])
    with pytest.raises(UnknownLabel):
        load_dataset(tmp_path / "m1.json")

    bogus_view = dict(entry, viewpoint="sideways")
    write_manifest(tmp_path / "m2.json", ["wave"], ["sideways"], [bogus_view])
    with pytest.raises(UnknownLabel):
        load_dataset(tmp_path / "m2.json")

    # record says front-left, manifest entry says front
    lied = dict(entry, viewpoint="front")
    write_manifest(tmp_path / "m3.json", ["wave"], ["front", "front-left"], [lied])
    with pytest.raises(UnknownLabel):
        load_dataset(tmp_path / "m3.json")


def test_load_normalized_dataset(tmp_path):
    rng = np.random.default_rng(15)
    items = [random_normalized(rng) for _ in range(3)]
    entries = []
    for n, item in enumerate(items):
        name = f"n{n}.seq"
        write_normalized(tmp_path / name, item)
        entries.append(manifest_entry(name, item))
    write_manifest(tmp_path / "manifest.json", ["squat"], ["rear"], entries)
    loaded, _ = load_normalized_dataset(tmp_path / "manifest.json")
    assert len(loaded) == 3
    for item, back in zip(items, loaded):
        np.testing.assert_array_equal(back.seq.xy, item.seq.xy)


def float_rows(path, rows, width, unit):
    """The row parser before rows went through ``np.loadtxt``: ``split``,
    then ``float`` per token. Kept as the oracle of values and messages."""
    values = np.empty((len(rows), width))
    for r, line in enumerate(rows):
        fields = line.split()
        if len(fields) != width:
            raise ParseError(f"{path}, {unit} {r}: expected {width} values, got {len(fields)}")
        try:
            values[r] = [float(f) for f in fields]
        except ValueError as exc:
            raise ParseError(f"{path}, {unit} {r}: {exc}") from exc
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ParseError(f"{path}, {unit} {int(np.argmin(finite))}: non-finite value")
    return values


def extreme_floats(rng, count):
    """Finite floats of either sign from the smallest subnormal to the
    largest normal, with the edge values and both zeros."""
    values = rng.uniform(1.0, 10.0, count) * 10.0 ** rng.integers(-323, 308, count)
    values *= rng.choice([-1.0, 1.0], count)
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
             1e-310, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0]
    values[: len(edges)] = edges
    return values


def test_records_parse_bit_for_bit_like_float(tmp_path):
    rng = np.random.default_rng(18)
    xy = extreme_floats(rng, 9 * N_LANDMARKS * 2).reshape(9, N_LANDMARKS, 2)
    write_sample(tmp_path / "x.seq", Sample(xy, rng.random((9, N_LANDMARKS)) < 0.8,
                                            "wave", "front", "a1"))
    assert np.array_equal(read_sample(tmp_path / "x.seq").xy.view(np.uint64),
                          xy.view(np.uint64))


@pytest.mark.parametrize("value, message", [
    ("nan", "non-finite value"), ("-inf", "non-finite value"), ("1.0x", "1.0x")])
def test_read_sample_rejects_bad_values(tmp_path, value, message):
    path = tmp_path / "bad.seq"
    row = " ".join(["1.0 2.0 1"] * N_LANDMARKS)
    path.write_text('#posehar-seq v1 {"action":"wave","actor":"a1","viewpoint":"front"}\n'
                    f"{row}\n{row.replace('2.0', value, 1)}\n")
    with pytest.raises(ParseError, match=f"bad.seq, frame 1: .*{message}"):
        read_sample(path)


# Tokens ``float`` and ``np.loadtxt`` may read differently: underscores and
# non-ASCII digits (``float`` alone reads them), a comment mark, a decimal
# comma, hex, non-finite literals and trailing junk.
TOKENS = ["1_0", "#", "1,5", "0x1p3", "nan", "inf", "-Infinity", "1e999", "1.0x",
          "\u0661\u0662", "\uff15", "1.5\u0661", "1e-400", "-0.0", "5e-324"]
FRAME = " ".join(["1.0 2.0 1"] * N_LANDMARKS)


def with_token(token):
    """Three frame rows, the second value of the last one replaced by ``token``."""
    return [FRAME, FRAME, FRAME.replace("2.0", token, 1)]


def read_like_float(tmp_path, header, rows, read):
    """Read ``rows`` under ``header`` with ``read``; the values, or the
    message, must be those of the ``float`` oracle."""
    path = tmp_path / "t.seq"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    try:
        want = float_rows(path, rows, 3 * N_LANDMARKS, "frame")
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            read(path)
        assert str(got.value) == str(exc) and ", frame " in str(exc)
        return None
    return read(path), want.reshape(len(rows), N_LANDMARKS, 3)[:, :, :2]


@pytest.mark.parametrize("token", ["1_0", "#", "\u0661", "nan", "1.0x"])
def test_frame_rows_keep_the_float_results_and_messages(tmp_path, token):
    header = '#posehar-seq v1 {"action":"wave","actor":"a1","viewpoint":"front"}'
    read = read_like_float(tmp_path, header, with_token(token), read_sample)
    if read is not None:
        got, want = read
        assert np.array_equal(got.xy.view(np.uint64), want.view(np.uint64))


# Normalized records are what ``train`` reads, so they take every token and
# row-width case.
@pytest.mark.parametrize("rows", [
    *(with_token(token) for token in TOKENS),
    ["# " + FRAME.split(" ", 1)[1], FRAME],
    [FRAME + " # 5.0", FRAME],
    [FRAME + " 1.0", FRAME + " 1.0"],
    [FRAME, FRAME + " 1.0"],
    [FRAME, FRAME.rsplit(" ", 1)[0]],
], ids=[*TOKENS, "leading #", "trailing #", "every row too wide", "one row too wide", "one row short"])
def test_normalized_rows_keep_the_float_results_and_messages(tmp_path, rows):
    header = ('#posehar-seq v1 {"action":"wave","actor":"a1","normalized":true,'
              '"viewpoint":"front"}')
    read = read_like_float(tmp_path, header, rows, read_normalized)
    if read is not None:
        got, want = read
        assert np.array_equal(got.seq.xy.view(np.uint64), want.view(np.uint64))


def test_every_manifest_kind_rejects_label_disagreement(tmp_path):
    rng = np.random.default_rng(17)
    item = random_normalized(rng)
    write_normalized(tmp_path / "n.seq", item)
    sample = Sample(rng.normal(0.0, 1.0, (3, N_LANDMARKS, 2)), np.ones((3, N_LANDMARKS), bool),
                    item.action, item.viewpoint, item.actor, item.dataset)
    write_sample(tmp_path / "s.seq", sample)
    for name, load in (("n.seq", load_normalized_dataset), ("s.seq", load_dataset)):
        entry = manifest_entry(name, item)
        write_manifest(tmp_path / "m.json", ["squat", "wave"], ["front", "rear"], [entry])
        load(tmp_path / "m.json")
        for key, value in (("action", "wave"), ("viewpoint", "front"),
                           ("actor", "a8"), ("dataset", "other")):
            write_manifest(tmp_path / "m.json", ["squat", "wave"], ["front", "rear"],
                           [dict(entry, **{key: value})])
            with pytest.raises(UnknownLabel, match=name):
                load(tmp_path / "m.json")


@pytest.mark.parametrize("edit", [
    lambda m: m.update(entries="abc"), lambda m: m.update(entries=[["x"]]),
    lambda m: m.update(entries=[]), lambda m: m.update(actions=5),
    lambda m: m.update(viewpoints=["front", 1]), lambda m: m["entries"][0].pop("actor"),
    lambda m: m["entries"][0].update(dataset=3), lambda m: m["entries"][0].update(path=None),
], ids=["entries string", "entries of lists", "no entries", "actions number",
        "viewpoint number", "no actor", "dataset number", "path null"])
def test_load_manifest_checks_schema(tmp_path, edit):
    manifest = {"format": "posehar-manifest/1", "actions": ["wave"], "viewpoints": ["front"],
                "entries": [{"path": "s.seq", "action": "wave", "viewpoint": "front",
                             "actor": "a1"}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    load_manifest(path)
    edit(manifest)
    path.write_text(json.dumps(manifest))
    with pytest.raises(ParseError, match="m.json"):
        load_manifest(path)


LABELS = '"action":"wave","actor":"a1","viewpoint":"front"'


@pytest.mark.parametrize("header, message", [
    ("[1, 2]", "not a JSON object"),
    ('{"action":5,"actor":"a1","viewpoint":"front"}', "'action' is not a string"),
    ('{"action":"wave","actor":"a1","viewpoint":"front","dataset":null}',
     "'dataset' is not a string"),
    ('{"action":"wave","actor":"a1"}', "lacks viewpoint"),
    ("{" + LABELS + ',"normalized":true,"persistent_missing":[2]}', "persistent_missing"),
    ("{" + LABELS + ',"normalized":true,"persistent_missing":[15]}', "persistent_missing"),
    ("{" + LABELS + ',"normalized":true,"persistent_missing":["3"]}', "persistent_missing"),
    ("{" + LABELS + ',"normalized":true,"persistent_missing":5}', "persistent_missing"),
    ("{" + LABELS + ',"normalized":true,"persistent_missing":[true]}', "persistent_missing"),
    ("{" + LABELS + ',"normalized":"false","persistent_missing":[]}', "normalized must be"),
    ("{" + LABELS + ',"normalized":1}', "normalized must be"),
])
def test_sequence_record_header_is_checked(tmp_path, header, message):
    path = tmp_path / "bad.seq"
    path.write_text(f"#posehar-seq v1 {header}\n" + " ".join(["0.5 0.5 1"] * N_LANDMARKS) + "\n")
    with pytest.raises(ParseError, match=f"bad.seq: .*{message}"):
        read_record(path)


def test_undecodable_text_is_a_parse_error(tmp_path):
    rng = np.random.default_rng(19)
    path = tmp_path / "s.seq"
    write_sample(path, random_sample(rng))
    path.write_bytes(path.read_bytes()[:40] + b"\xff" + path.read_bytes()[40:])
    with pytest.raises(ParseError, match="s.seq.*decode"):
        read_sample(path)


@pytest.mark.parametrize("key", ["action", "actor"])
@pytest.mark.parametrize("label", ["a/b", "a\\b", "nul\0", ".", ".."])
def test_load_manifest_refuses_labels_that_could_act_as_paths(tmp_path, key, label):
    entries = [{"path": f"s{n}.seq", "action": "wave", "viewpoint": "front", "actor": "a1"}
               for n in range(2)]
    entries[1][key] = label
    write_manifest(tmp_path / "m.json", ["wave", label], ["front"], entries)
    with pytest.raises(ParseError, match=r"m\.json: entry 1 \(s1\.seq\) has " + key) as info:
        load_manifest(tmp_path / "m.json")
    assert repr(label) in str(info.value)
