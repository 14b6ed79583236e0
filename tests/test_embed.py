"""Distance channels checked against a plain double-loop oracle."""

import re
import tracemalloc

import numpy as np
import pytest

from posehar.embed import (
    EMPTY_SUBSET_SENTINEL,
    MISSING_SENTINEL,
    EmbeddingChannels,
    baseline_channels,
    channel_names,
    _CHUNK,
    _nearest_distances,
    embed_frame,
    embed_sequence,
    embed_sequences,
)
from posehar.errors import MissingLibrary, ShapeMismatch
from posehar.pose import N_LANDMARKS, ROOT, SUBSET_NAMES, SUBSETS, Sample
from posehar.preprocess import NormalizedSequence
from posehar.som import PoseLibrary


def make_library(rng, action="wave", kind="spatial", n_protos=4):
    landmarks = rng.normal(0.0, 0.7, (n_protos, N_LANDMARKS, 2))
    landmarks[:, ROOT - 1] = 0.0
    return PoseLibrary(action, kind, landmarks,
                       np.ones(n_protos, dtype=np.int64), np.full(n_protos, "front"))


def make_seq(rng, frames=6, missing=frozenset()):
    xy = rng.normal(0.0, 0.8, (frames, N_LANDMARKS, 2))
    xy[:, ROOT - 1] = 0.0
    for j in missing:
        xy[:, j - 1] = 0.0
    return NormalizedSequence(xy, missing)


def oracle_subset_distance(frame, proto_xy, subset, missing):
    """Mean per-landmark distance over the available subset landmarks."""
    total, count = 0.0, 0
    for j in SUBSETS[subset]:
        if j in missing:
            continue
        dx = frame[j - 1, 0] - proto_xy[j - 1, 0]
        dy = frame[j - 1, 1] - proto_xy[j - 1, 1]
        total += np.sqrt(dx * dx + dy * dy)
        count += 1
    return total / count


def oracle_nearest(frame, landmarks, missing):
    """Per subset, the oracle distance to the nearest of the (P, 14, 2)
    prototypes, or the empty-subset sentinel."""
    out = []
    for subset in SUBSET_NAMES:
        if all(j in missing for j in SUBSETS[subset]):
            out.append(EMPTY_SUBSET_SENTINEL)
        else:
            out.append(min(oracle_subset_distance(frame, proto, subset, missing)
                           for proto in landmarks))
    return np.array(out)


def test_subset_distance_matches_oracle():
    # a one-prototype library: each entry is that prototype's subset distance
    rng = np.random.default_rng(60)
    for missing in (frozenset(), frozenset({5}), frozenset({3, 4})):
        library = make_library(rng)
        frame = rng.normal(0.0, 1.0, (N_LANDMARKS, 2))
        for proto in library.landmarks:
            got = embed_frame(frame, proto[None], missing)
            for s, subset in enumerate(SUBSET_NAMES):
                assert got[s] == oracle_subset_distance(frame, proto, subset, missing)


def test_subset_distance_accepts_array_prototype():
    # a free (14, 2) array, its root off the origin, is a one-prototype library
    rng = np.random.default_rng(61)
    frame = rng.normal(0.0, 1.0, (N_LANDMARKS, 2))
    proto_xy = rng.normal(0.0, 1.0, (N_LANDMARKS, 2))
    got = embed_frame(frame, proto_xy[None])
    want = oracle_subset_distance(frame, proto_xy, "J_b", frozenset())
    assert got[SUBSET_NAMES.index("J_b")] == want
    assert np.array_equal(got, oracle_nearest(frame, proto_xy[None], frozenset()))


def test_subset_distance_empty_subset_reads_sentinel():
    # an all-missing subset reads the sentinel for one prototype too
    rng = np.random.default_rng(62)
    frame = rng.normal(0.0, 1.0, (N_LANDMARKS, 2))
    proto = rng.normal(0.0, 1.0, (N_LANDMARKS, 2))
    missing = frozenset({3, 4, 5})
    got = embed_frame(frame, proto[None], missing)
    assert got[SUBSET_NAMES.index("J_a")] == EMPTY_SUBSET_SENTINEL
    assert np.array_equal(got, oracle_nearest(frame, proto[None], missing))


def test_embed_frame_is_min_over_library():
    rng = np.random.default_rng(63)
    library = make_library(rng, n_protos=6)
    frame = rng.normal(0.0, 1.0, (N_LANDMARKS, 2))
    got = embed_frame(frame, library)
    assert got.shape == (5,)
    assert np.array_equal(got, oracle_nearest(frame, library.landmarks, frozenset()))


def test_embed_frame_empty_subset_sentinel():
    rng = np.random.default_rng(64)
    library = make_library(rng)
    frame = rng.normal(0.0, 1.0, (N_LANDMARKS, 2))
    missing = frozenset({3, 4, 5})
    got = embed_frame(frame, library, missing)
    assert got[SUBSET_NAMES.index("J_a")] == EMPTY_SUBSET_SENTINEL
    assert np.array_equal(got, oracle_nearest(frame, library.landmarks, missing))


def test_channel_names_arity():
    assert len(channel_names("baseline")) == 28
    assert len(channel_names("basic")) == 56
    for count in (1, 2, 17):
        actions = [f"act{i}" for i in range(count)]
        names = channel_names("advanced", actions)
        assert len(names) == 56 + 10 * count
        assert len(set(names)) == len(names)
    with pytest.raises(ValueError):
        channel_names("fancy")


def test_embed_sequence_basic_layout():
    rng = np.random.default_rng(65)
    seq = make_seq(rng, frames=5, missing=frozenset({8}))
    ch = embed_sequence(seq, mode="basic")
    assert ch.values.shape == (56, 5)
    assert ch.names == channel_names("basic")
    # pose channels carry the coordinates, column t = frame t
    for t in range(5):
        for j in range(1, N_LANDMARKS + 1):
            if j == 8:
                continue
            assert ch.values[2 * (j - 1), t] == seq.xy[t, j - 1, 0]
            assert ch.values[2 * (j - 1) + 1, t] == seq.xy[t, j - 1, 1]
    # missing landmark rows hold the sentinel
    np.testing.assert_array_equal(ch.values[14], MISSING_SENTINEL)
    np.testing.assert_array_equal(ch.values[15], MISSING_SENTINEL)
    # derivative channels are front-padded with their first value
    deriv_rows = ch.values[56 // 2 :]
    np.testing.assert_array_equal(deriv_rows[:, 0], deriv_rows[:, 1])
    for t in range(1, 5):
        for j in range(1, N_LANDMARKS + 1):
            if j == 8:
                continue
            assert deriv_rows[2 * (j - 1), t] == seq.deriv[t - 1, j - 1, 0]


def test_embed_sequence_advanced_matches_per_frame_oracle():
    rng = np.random.default_rng(66)
    seq = make_seq(rng, frames=4, missing=frozenset({11}))
    spatial = {"wave": make_library(rng, "wave"), "squat": make_library(rng, "squat")}
    temporal = {"wave": make_library(rng, "wave", "temporal"),
                "squat": make_library(rng, "squat", "temporal")}
    ch = embed_sequence(seq, spatial, temporal, "advanced")
    assert ch.values.shape == (56 + 10 * 2, 4)
    assert ch.names == channel_names("advanced", ["wave", "squat"])

    offset = 56
    for action in ("squat", "wave"):   # sorted order
        for t in range(4):
            want = embed_frame(seq.xy[t], spatial[action], seq.persistent_missing)
            np.testing.assert_array_equal(ch.values[offset : offset + 5, t], want)
        offset += 5
    for action in ("squat", "wave"):
        # column 0 repeats column 1: front padding of the T-1 motion channels
        np.testing.assert_array_equal(ch.values[offset : offset + 5, 0],
                                      ch.values[offset : offset + 5, 1])
        for t in range(1, 4):
            want = embed_frame(seq.deriv[t - 1], temporal[action], seq.persistent_missing)
            np.testing.assert_array_equal(ch.values[offset : offset + 5, t], want)
        offset += 5


def test_embed_sequence_matches_oracle_across_chunks():
    rng = np.random.default_rng(70)
    sizes = {"spatial": {"a": 1, "b": 37, "c": 2}, "temporal": {"a": 2, "b": 1, "c": 37}}
    libraries = {kind: {action: make_library(rng, action, kind, n)
                        for action, n in counts.items()}
                 for kind, counts in sizes.items()}
    cases = [(1, frozenset()), (63, frozenset({1})), (64, frozenset({3, 4, 5})),
             (65, frozenset({9, 13, 1})), (2 * 64 + 3, frozenset())]
    for frames, missing in cases:
        seq = make_seq(rng, frames, missing)
        values = embed_sequence(seq, libraries["spatial"], libraries["temporal"],
                                "advanced").values
        deriv = seq.deriv if frames > 1 else np.zeros((1, N_LANDMARKS, 2))
        row = 56
        for kind, source, shift in (("spatial", seq.xy, 0), ("temporal", deriv, 1)):
            for action in ("a", "b", "c"):
                landmarks = libraries[kind][action].landmarks
                for t in range(frames):
                    want = oracle_nearest(source[max(t - shift, 0)], landmarks, missing)
                    assert np.array_equal(values[row : row + 5, t], want), (frames, kind, action, t)
                row += 5


# Missing sets that leave the paper's subsets in other layouts, keyed by the
# layout they leave: limbs inside the body, whole or cut short at either end
# or emptied; missing landmarks interleaved with available ones; a limb of
# one landmark; and a body of the root alone.
EVERYTHING_BUT_ROOT = frozenset(range(1, N_LANDMARKS + 1)) - {ROOT}
LAYOUTS_LEFT = {
    "overlapping": (frozenset(), frozenset({5}), frozenset({5, 6, 7, 8, 9})),
    "interleaved": (frozenset({4}), frozenset({1, 3, 6}), frozenset({3, 4, 5, 10})),
    "one landmark": (frozenset({3, 4}),),
    "root alone": (EVERYTHING_BUT_ROOT,),
}


@pytest.mark.parametrize("root", ["at origin", "frame off origin", "prototype off origin"])
@pytest.mark.parametrize("name", list(LAYOUTS_LEFT))
def test_kernel_reuses_sum_buffers_exactly_on_other_layouts(name, root):
    """The body's sum and one limb sum at a time give every channel of the
    double loop on ``pose.SUBSETS`` bit for bit, across a chunk edge,
    whether or not the root gets a pass, for every layout a missing set
    leaves: a limb cut short, missing its middle landmark or all but one,
    and subsets the missing set empties."""
    rng = np.random.default_rng([74, len(name), len(root)])
    frames = rng.normal(0.0, 1.0, (_CHUNK + 6, N_LANDMARKS, 2))
    protos = rng.normal(0.0, 1.0, (30, N_LANDMARKS, 2))
    frames[:, ROOT - 1] = protos[:, ROOT - 1] = 0.0
    if root == "frame off origin":
        frames[_CHUNK + 2, ROOT - 1] = (0.25, -0.5)
    elif root == "prototype off origin":
        protos[11, ROOT - 1] = (-0.75, 0.0)
    blocks = [protos[:1], protos[1:19], protos[19:]]
    for missing in LAYOUTS_LEFT[name]:
        got = _nearest_distances(frames, blocks, missing)
        assert got.shape == (len(blocks), len(SUBSET_NAMES), len(frames))
        for t in (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 2, _CHUNK + 5):
            want = [oracle_nearest(frames[t], block, missing) for block in blocks]
            assert np.array_equal(got[:, :, t], np.array(want)), (missing, t)


@pytest.mark.parametrize("mode", ["basic", "advanced"])
def test_many_sequences_embed_as_each_alone(mode):
    """One call over sequences of mixed lengths and persistently missing
    sets equals embed_sequence on each, bit for bit, names included."""
    rng = np.random.default_rng(75)
    sizes = {"spatial": {"a": 3, "b": 40}, "temporal": {"a": 41, "b": 2}}
    libraries = {kind: {action: make_library(rng, action, kind, n)
                        for action, n in counts.items()}
                 for kind, counts in sizes.items()}
    sets = [frozenset(), frozenset({1}), frozenset({3, 4, 5}), frozenset({1})]
    lengths = (1, 2, 63, 64, 65, 130, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1)
    seqs = [make_seq(rng, frames, sets[i % len(sets)]) for i, frames in enumerate(lengths)]
    spatial, temporal = (libraries["spatial"], libraries["temporal"]) \
        if mode == "advanced" else (None, None)
    together = embed_sequences(seqs, spatial, temporal, mode)
    assert len(together) == len(seqs)
    for seq, channels in zip(seqs, together):
        alone = embed_sequence(seq, spatial, temporal, mode)
        assert channels.names == alone.names == channel_names(mode, ["a", "b"])
        assert channels.values.shape == (len(alone.names), len(seq))
        assert np.array_equal(channels.values, alone.values)
    assert embed_sequences([], spatial, temporal, mode) == []


def extreme_coordinates(rng, shape):
    """Coordinates of either sign from 1e-300 to 1e300 in magnitude, with
    subnormals and zeros of both signs mixed in."""
    values = rng.uniform(1.0, 10.0, shape) * 10.0 ** rng.integers(-300, 300, shape)
    values *= rng.choice([-1.0, 1.0], shape)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 2.2250738585072014e-308]
    pick = rng.random(shape) < 0.2
    values[pick] = rng.choice(special, int(pick.sum()))
    return values


def library_of(landmarks, action="a", kind="spatial"):
    """A PoseLibrary holding the given (P, 14, 2) landmarks, root set to 0."""
    count = len(landmarks)
    landmarks = landmarks.copy()
    landmarks[:, ROOT - 1] = 0.0
    return PoseLibrary(action, kind, landmarks,
                       np.ones(count, dtype=np.int64), np.full(count, "front"))


@pytest.mark.parametrize("width", [1, 2, 9, 64])
def test_embed_frame_is_exact_on_extreme_coordinates(width):
    """The kernel's differences come from a matrix product; its one rounding
    must equal the subtraction's at any magnitude, on subnormals, signed
    zeros and exact ties, for a single frame (a matrix-vector product)."""
    rng = np.random.default_rng(72 + width)
    protos = extreme_coordinates(rng, (width, N_LANDMARKS, 2))
    frames = [extreme_coordinates(rng, (N_LANDMARKS, 2)),
              protos[-1].copy(),                      # an exact tie
              np.nextafter(protos[0], np.inf),        # one step off
              -protos[0]]
    with np.errstate(over="ignore", under="ignore"):
        for frame in frames:
            for missing in (frozenset(), frozenset({3, 4, 5}), frozenset({1, 9, 13})):
                assert np.array_equal(embed_frame(frame, protos, missing),
                                      oracle_nearest(frame, protos, missing))


@pytest.mark.parametrize("frames", [63, 64, 65, 129])
def test_embed_sequence_is_exact_on_extreme_coordinates(frames):
    rng = np.random.default_rng(frames)
    xy = extreme_coordinates(rng, (frames, N_LANDMARKS, 2))
    seq = NormalizedSequence(xy, frozenset({11}))
    libraries = {}
    for kind, source in (("spatial", seq.xy), ("temporal", seq.deriv)):
        landmarks = extreme_coordinates(rng, (7, N_LANDMARKS, 2))
        landmarks[:3] = source[rng.choice(len(source), 3)]   # ties, root aside
        libraries[kind] = {"a": library_of(landmarks, "a", kind),
                           "b": library_of(landmarks[4:5], "b", kind)}
    with np.errstate(over="ignore", under="ignore"):
        values = embed_sequence(seq, libraries["spatial"], libraries["temporal"],
                                "advanced").values
        row = 56
        for kind, source, shift in (("spatial", seq.xy, 0), ("temporal", seq.deriv, 1)):
            for action in ("a", "b"):
                landmarks = libraries[kind][action].landmarks
                for t in range(frames):
                    want = oracle_nearest(source[max(t - shift, 0)], landmarks,
                                          seq.persistent_missing)
                    assert np.array_equal(values[row : row + 5, t], want), (kind, action, t)
                row += 5


@pytest.mark.parametrize("frame_shape, library_shape", [
    ((N_LANDMARKS, 2), (0, N_LANDMARKS, 2)),
    ((N_LANDMARKS, 2), (3, 13, 2)),
    ((N_LANDMARKS, 2), (2 * N_LANDMARKS,)),
    ((13, 2), (3, N_LANDMARKS, 2)),
], ids=["empty library", "13-landmark library", "flat library", "13-landmark frame"])
def test_embed_frame_refuses_wrong_landmark_shapes(frame_shape, library_shape):
    wrong = library_shape if frame_shape == (N_LANDMARKS, 2) else frame_shape
    with pytest.raises(ShapeMismatch, match=re.escape(f"got shape {wrong}")):
        embed_frame(np.zeros(frame_shape), np.zeros(library_shape))


def test_embed_sequence_working_set():
    # a11's input: 17 actions x 64 prototypes per kind, 2000 frames. The
    # channels alone take 3.4 MB.
    rng = np.random.default_rng(71)
    actions = [f"act{i:02d}" for i in range(17)]
    spatial = {a: make_library(rng, a, "spatial", 64) for a in actions}
    temporal = {a: make_library(rng, a, "temporal", 64) for a in actions}
    seq = make_seq(rng, frames=2000)
    tracemalloc.start()
    try:
        channels = embed_sequence(seq, spatial, temporal, "advanced")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert channels.values.shape == (56 + 10 * 17, 2000)
    assert peak < 16e6


def test_embed_sequence_missing_library():
    rng = np.random.default_rng(67)
    seq = make_seq(rng)
    spatial = {"wave": make_library(rng)}
    temporal = {"wave": make_library(rng, kind="temporal"), "squat": make_library(rng, "squat", "temporal")}
    with pytest.raises(MissingLibrary):
        embed_sequence(seq, spatial, temporal, "advanced")
    with pytest.raises(MissingLibrary):
        embed_sequence(seq, None, None, "advanced")
    with pytest.raises(MissingLibrary):   # a hand-built bundle without libraries
        embed_sequence(seq, {}, {}, "advanced")
    with pytest.raises(ValueError):
        embed_sequence(seq, spatial, temporal, "baseline")


def test_embed_sequence_single_frame():
    rng = np.random.default_rng(68)
    xy = rng.normal(0.0, 0.5, (1, N_LANDMARKS, 2))
    xy[:, ROOT - 1] = 0.0
    seq = NormalizedSequence(xy, frozenset())
    ch = embed_sequence(seq, mode="basic")
    assert ch.values.shape == (56, 1)
    np.testing.assert_array_equal(ch.values[28:], 0.0)   # zero-motion stand-in


def test_baseline_channels():
    rng = np.random.default_rng(69)
    xy = rng.normal(300.0, 40.0, (3, N_LANDMARKS, 2))
    present = np.ones((3, N_LANDMARKS), dtype=bool)
    present[1, 4] = False
    ch = baseline_channels(Sample(xy, present, "wave", "front", "a1", "demo"))
    assert ch.values.shape == (28, 3)
    assert ch.names == channel_names("baseline")
    assert ch.values[8, 1] == MISSING_SENTINEL
    assert ch.values[9, 1] == MISSING_SENTINEL
    assert ch.values[8, 0] == xy[0, 4, 0]
    assert ch.values[10, 1] == xy[1, 5, 0]


def test_embedding_channels_validation():
    with pytest.raises(ValueError):
        EmbeddingChannels(np.zeros((3, 4)), ("a", "b"))
    ch = EmbeddingChannels(np.zeros((2, 4)), ("a", "b"))
    assert ch.length == 4
