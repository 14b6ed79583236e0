"""Landmark model basics: constants, mirror map, samples."""

import numpy as np
import pytest

from posehar.errors import MalformedFrame, UnknownLabel
from posehar.pose import (
    FLIP_VIEWPOINT,
    LEFT_HIP,
    MIRROR,
    N_LANDMARKS,
    RIGHT_HIP,
    ROOT,
    SUBSETS,
    VIEWPOINTS,
    Sample,
)


def test_constants():
    assert N_LANDMARKS == 14
    assert ROOT == 2
    assert RIGHT_HIP == 9
    assert LEFT_HIP == 12
    assert len(VIEWPOINTS) == 8
    assert set(SUBSETS) == {"J", "J_a", "J_b", "J_c", "J_d"}
    assert SUBSETS["J"] == tuple(range(1, 15))
    assert SUBSETS["J_a"] == (3, 4, 5)
    assert SUBSETS["J_b"] == (6, 7, 8)
    assert SUBSETS["J_c"] == (9, 10, 11)
    assert SUBSETS["J_d"] == (12, 13, 14)


def test_mirror_is_involution():
    for j in range(1, N_LANDMARKS + 1):
        assert MIRROR[MIRROR[j]] == j
    # head and spine landmarks are their own mirrors
    assert MIRROR[1] == 1
    assert MIRROR[2] == 2
    # arm and leg chains swap sides
    assert MIRROR[3] == 6 and MIRROR[4] == 7 and MIRROR[5] == 8
    assert MIRROR[9] == 12 and MIRROR[10] == 13 and MIRROR[11] == 14


def test_flip_viewpoint_is_involution():
    assert set(FLIP_VIEWPOINT) == set(VIEWPOINTS)
    for v in VIEWPOINTS:
        assert FLIP_VIEWPOINT[FLIP_VIEWPOINT[v]] == v
    assert FLIP_VIEWPOINT["left"] == "right"
    assert FLIP_VIEWPOINT["front"] == "front"
    assert FLIP_VIEWPOINT["front-left"] == "front-right"
    assert FLIP_VIEWPOINT["rear-left"] == "rear-right"


def test_pose_validation_and_access():
    rng = np.random.default_rng(0)
    xy = rng.normal(0.0, 1.0, (3, N_LANDMARKS, 2))
    present = np.ones((3, N_LANDMARKS), dtype=bool)
    present[:, 4] = False
    sample = Sample(xy, present, "wave", "front", "a1")
    assert sample.present[1, 0]
    assert not sample.present[1, 4]
    np.testing.assert_array_equal(sample.xy[1, 2], xy[1, 2])
    with pytest.raises(MalformedFrame):
        Sample(np.zeros((3, 13, 2)), present, "wave", "front", "a1")
    with pytest.raises(MalformedFrame):
        Sample(np.zeros((N_LANDMARKS, 2)), present, "wave", "front", "a1")
    with pytest.raises(MalformedFrame):
        Sample(xy, np.ones((3, 13), dtype=bool), "wave", "front", "a1")
    with pytest.raises(MalformedFrame):
        Sample(xy, np.ones((2, N_LANDMARKS), dtype=bool), "wave", "front", "a1")


def test_pose_is_immutable_and_copies_input():
    rng = np.random.default_rng(1)
    xy = rng.normal(0.0, 1.0, (2, N_LANDMARKS, 2))
    present = np.ones((2, N_LANDMARKS), dtype=bool)
    sample = Sample(xy, present, "wave", "front", "a1")
    xy[0, 0, 0] = 999.0
    present[0, 0] = False
    assert sample.xy[0, 0, 0] != 999.0
    assert sample.present[0, 0]
    with pytest.raises(ValueError):
        sample.xy[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        sample.present[0, 0] = False


def test_sample_validation():
    rng = np.random.default_rng(4)
    xy = rng.normal(0.0, 1.0, (1, N_LANDMARKS, 2))
    present = np.ones((1, N_LANDMARKS), dtype=bool)
    sample = Sample(xy, present, "wave", "front", "a1", "demo")
    assert len(sample) == 1
    with pytest.raises(UnknownLabel):
        Sample(xy, present, "wave", "sideways", "a1", "demo")
    with pytest.raises(MalformedFrame):
        Sample(np.zeros((0, N_LANDMARKS, 2)), np.zeros((0, N_LANDMARKS), dtype=bool),
               "wave", "front", "a1", "demo")


def test_sample_arrays_layout():
    rng = np.random.default_rng(5)
    xy = rng.normal(0.0, 1.0, (3, N_LANDMARKS, 2))
    present = np.ones((3, N_LANDMARKS), dtype=bool)
    present[:, 6] = False
    sample = Sample(xy, present, "wave", "front", "a1", "demo")
    assert len(sample) == 3
    assert sample.xy.shape == (3, 14, 2) and sample.xy.dtype == np.float64
    assert sample.present.shape == (3, 14) and sample.present.dtype == bool
    assert sample.xy.flags.c_contiguous and sample.present.flags.c_contiguous
    for t in range(3):
        np.testing.assert_array_equal(sample.xy[t], xy[t])
        assert not sample.present[t, 6]
