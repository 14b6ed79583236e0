"""Missing-data treatment rules and pose normalization."""

import numpy as np
import pytest

from posehar.errors import AbsentHip, AbsentRoot, EmptySequence
from posehar.pose import LEFT_HIP, N_LANDMARKS, RIGHT_HIP, ROOT, Sample
from posehar.preprocess import (
    CleanSequence,
    normalize,
    preprocess_sample,
    treat_missing,
)


def base_coords(T):
    """Deterministic coordinates: landmark j at (j + t, 2j - t)."""
    xy = np.zeros((T, N_LANDMARKS, 2))
    for t in range(T):
        for j in range(1, N_LANDMARKS + 1):
            xy[t, j - 1] = (j + t, 2 * j - t)
    return xy


def build_sample(xy, present, action="wave", viewpoint="front", actor="a1"):
    return Sample(xy, present, action, viewpoint, actor, "demo")


def test_drop_frame_without_root():
    xy = base_coords(3)
    present = np.ones((3, N_LANDMARKS), dtype=bool)
    present[1, ROOT - 1] = False
    clean = treat_missing(build_sample(xy, present))
    assert len(clean) == 2
    np.testing.assert_array_equal(clean.xy[0], xy[0])
    np.testing.assert_array_equal(clean.xy[1], xy[2])


def test_drop_frame_with_too_many_missing():
    xy = base_coords(3)
    present = np.ones((3, N_LANDMARKS), dtype=bool)
    present[0, 5:14] = False           # nine missing: dropped
    present[2, 6:14] = False           # eight missing: kept
    clean = treat_missing(build_sample(xy, present))
    assert len(clean) == 2


def test_all_frames_dropped_raises():
    xy = base_coords(2)
    present = np.ones((2, N_LANDMARKS), dtype=bool)
    present[:, ROOT - 1] = False
    with pytest.raises(EmptySequence):
        treat_missing(build_sample(xy, present))


def test_gap_fill_nearest_with_earlier_tie():
    xy = base_coords(5)
    present = np.ones((5, N_LANDMARKS), dtype=bool)
    j = 5
    present[1:4, j - 1] = False        # observed at t=0 and t=4 only
    clean = treat_missing(build_sample(xy, present))
    track = clean.xy[:, j - 1]
    np.testing.assert_array_equal(track[1], xy[0, j - 1])   # nearer to t=0
    np.testing.assert_array_equal(track[2], xy[0, j - 1])   # tie -> earlier
    np.testing.assert_array_equal(track[3], xy[4, j - 1])   # nearer to t=4
    assert clean.persistent_missing == frozenset()


def test_gap_fill_handles_leading_and_trailing_gaps():
    xy = base_coords(4)
    present = np.ones((4, N_LANDMARKS), dtype=bool)
    j = 10
    present[0, j - 1] = False
    present[3, j - 1] = False
    clean = treat_missing(build_sample(xy, present))
    np.testing.assert_array_equal(clean.xy[0, j - 1], xy[1, j - 1])
    np.testing.assert_array_equal(clean.xy[3, j - 1], xy[2, j - 1])


def test_mirror_copy_for_landmark_absent_everywhere():
    xy = base_coords(3)
    present = np.ones((3, N_LANDMARKS), dtype=bool)
    present[:, 5 - 1] = False          # right wrist gone for good
    clean = treat_missing(build_sample(xy, present))
    np.testing.assert_array_equal(clean.xy[:, 5 - 1], clean.xy[:, 8 - 1])
    assert 5 not in clean.persistent_missing


def test_mirror_copy_uses_filled_counterpart():
    xy = base_coords(4)
    present = np.ones((4, N_LANDMARKS), dtype=bool)
    present[:, 5 - 1] = False          # absent everywhere
    present[2, 8 - 1] = False          # counterpart has a gap of its own
    clean = treat_missing(build_sample(xy, present))
    # the copied track carries the counterpart's filled value, not a hole
    np.testing.assert_array_equal(clean.xy[2, 5 - 1], xy[1, 8 - 1])


def test_persistent_when_both_sides_absent():
    xy = base_coords(3)
    present = np.ones((3, N_LANDMARKS), dtype=bool)
    present[:, 5 - 1] = False
    present[:, 8 - 1] = False
    clean = treat_missing(build_sample(xy, present))
    assert clean.persistent_missing == frozenset({5, 8})
    np.testing.assert_array_equal(clean.xy[:, 4], 0.0)
    np.testing.assert_array_equal(clean.xy[:, 7], 0.0)


def test_head_has_no_mirror_partner():
    xy = base_coords(2)
    present = np.ones((2, N_LANDMARKS), dtype=bool)
    present[:, 0] = False
    clean = treat_missing(build_sample(xy, present))
    assert clean.persistent_missing == frozenset({1})


def test_center_and_scale_single_pose():
    xy = base_coords(1)
    seq = normalize(CleanSequence(xy))
    np.testing.assert_array_equal(seq.xy[0, ROOT - 1], 0.0)
    torso = seq.xy[0, RIGHT_HIP - 1] - seq.xy[0, ROOT - 1]
    assert np.hypot(*torso) == pytest.approx(1.0)
    assert seq.deriv.shape == (0, N_LANDMARKS, 2)

    with pytest.raises(AbsentRoot):
        CleanSequence(xy, frozenset({ROOT}))
    with pytest.raises(AbsentHip):
        normalize(CleanSequence(xy, frozenset({RIGHT_HIP, LEFT_HIP})))

    collapsed = xy.copy()
    collapsed[0, RIGHT_HIP - 1] = collapsed[0, ROOT - 1]
    with pytest.raises(EmptySequence):
        normalize(CleanSequence(collapsed))


def test_normalize_geometry():
    clean = CleanSequence(base_coords(4))
    seq = normalize(clean)
    assert len(seq) == 4
    np.testing.assert_array_equal(seq.xy[:, ROOT - 1], 0.0)
    torso = np.hypot(seq.xy[:, RIGHT_HIP - 1, 0], seq.xy[:, RIGHT_HIP - 1, 1])
    np.testing.assert_allclose(torso, 1.0)
    np.testing.assert_allclose(seq.deriv, np.diff(seq.xy, axis=0))


def test_normalize_translation_and_scale_invariance():
    rng = np.random.default_rng(8)
    xy = base_coords(5) + rng.normal(0.0, 0.3, (5, N_LANDMARKS, 2))
    ref = normalize(CleanSequence(xy))
    shifted = normalize(CleanSequence(xy + np.array([123.0, -45.0])))
    np.testing.assert_allclose(shifted.xy, ref.xy, atol=1e-12)
    grown = normalize(CleanSequence(xy * 7.5))
    np.testing.assert_allclose(grown.xy, ref.xy, atol=1e-12)


def test_normalize_drops_degenerate_frames():
    xy = base_coords(3)
    xy[1, RIGHT_HIP - 1] = xy[1, ROOT - 1]
    seq = normalize(CleanSequence(xy))
    assert len(seq) == 2


def test_normalize_all_degenerate_raises():
    xy = base_coords(2)
    xy[:, RIGHT_HIP - 1] = xy[:, ROOT - 1]
    with pytest.raises(EmptySequence):
        normalize(CleanSequence(xy))


def test_normalize_left_hip_fallback():
    xy = base_coords(3)
    seq = normalize(CleanSequence(xy, frozenset({RIGHT_HIP})))
    torso = np.hypot(seq.xy[:, LEFT_HIP - 1, 0], seq.xy[:, LEFT_HIP - 1, 1])
    np.testing.assert_allclose(torso, 1.0)
    with pytest.raises(AbsentHip):
        normalize(CleanSequence(xy, frozenset({RIGHT_HIP, LEFT_HIP})))


def test_normalize_keeps_persistent_rows_zeroed():
    xy = base_coords(3)
    xy[:, 4] = 0.0
    xy[:, 7] = 0.0
    seq = normalize(CleanSequence(xy, frozenset({5, 8})))
    np.testing.assert_array_equal(seq.xy[:, 4], 0.0)
    np.testing.assert_array_equal(seq.xy[:, 7], 0.0)
    np.testing.assert_array_equal(seq.deriv[:, 4], 0.0)


def test_preprocess_sample_report():
    xy = base_coords(6)
    present = np.ones((6, N_LANDMARKS), dtype=bool)
    present[0, ROOT - 1] = False                    # dropped: no root
    present[:, RIGHT_HIP - 1] = False               # mirror-copied from left hip
    xy[3, LEFT_HIP - 1] = xy[3, ROOT - 1]           # degenerate after copy
    labeled, report = preprocess_sample(build_sample(xy, present))
    assert report.frames_in == 6
    assert report.frames_dropped_missing == 1
    assert report.frames_dropped_degenerate == 1
    assert report.persistent_missing == ()
    assert report.scale_reference == RIGHT_HIP
    assert len(labeled.seq) == 4
    assert labeled.action == "wave"
    assert labeled.actor == "a1"


def test_preprocess_sample_left_hip_report():
    xy = base_coords(3)
    present = np.ones((3, N_LANDMARKS), dtype=bool)
    present[:, RIGHT_HIP - 1] = False
    present[:, LEFT_HIP - 1] = False
    # both hip tracks empty: right mirrors left and vice versa, so both are
    # persistently missing and normalization has nothing to scale by
    with pytest.raises(AbsentHip):
        preprocess_sample(build_sample(xy, present))
