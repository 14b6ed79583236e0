"""Flip and noise augmentation behavior."""

import numpy as np
import pytest

from posehar.augment import AugmentConfig, augment_set, flip, noise
from posehar.pose import MIRROR, N_LANDMARKS, ROOT
from posehar.preprocess import LabeledSequence, NormalizedSequence


def make_item(rng, frames=5, viewpoint="front-left", missing=frozenset()):
    xy = rng.normal(0.0, 0.8, (frames, N_LANDMARKS, 2))
    xy[:, ROOT - 1] = 0.0
    for j in missing:
        xy[:, j - 1] = 0.0
    seq = NormalizedSequence(xy, missing)
    return LabeledSequence(seq, "wave", viewpoint, "a1", "demo")


def test_flip_swaps_tracks_and_negates_x():
    rng = np.random.default_rng(20)
    item = make_item(rng)
    flipped = flip(item)
    assert flipped.viewpoint == "front-right"
    assert flipped.action == item.action
    for j in range(1, N_LANDMARKS + 1):
        m = MIRROR[j]
        np.testing.assert_array_equal(flipped.seq.xy[:, j - 1, 0], -item.seq.xy[:, m - 1, 0])
        np.testing.assert_array_equal(flipped.seq.xy[:, j - 1, 1], item.seq.xy[:, m - 1, 1])


def test_flip_is_exact_involution():
    rng = np.random.default_rng(21)
    for viewpoint in ("front", "left", "rear-right"):
        item = make_item(rng, viewpoint=viewpoint)
        twice = flip(flip(item))
        np.testing.assert_array_equal(twice.seq.xy, item.seq.xy)
        np.testing.assert_array_equal(twice.seq.deriv, item.seq.deriv)
        assert twice.viewpoint == viewpoint


def test_flip_maps_persistent_missing():
    rng = np.random.default_rng(22)
    item = make_item(rng, missing=frozenset({5}))
    flipped = flip(item)
    assert flipped.seq.persistent_missing == frozenset({8})
    np.testing.assert_array_equal(flipped.seq.xy[:, 8 - 1], 0.0)
    np.testing.assert_array_equal(flipped.seq.deriv[:, 8 - 1], 0.0)


def test_noise_copies_are_seeded_and_leave_root_alone():
    rng = np.random.default_rng(23)
    item = make_item(rng, missing=frozenset({11, 14}))
    config = AugmentConfig(z=3, sigma=0.05, rng_seed=9)
    copies = noise(item, config, sample_index=4)
    assert len(copies) == 3
    again = noise(item, config, sample_index=4)
    for a, b in zip(copies, again):
        np.testing.assert_array_equal(a.seq.xy, b.seq.xy)
    for copy in copies:
        np.testing.assert_array_equal(copy.seq.xy[:, ROOT - 1], 0.0)
        np.testing.assert_array_equal(copy.seq.xy[:, 10], 0.0)
        np.testing.assert_array_equal(copy.seq.xy[:, 13], 0.0)
        assert not np.array_equal(copy.seq.xy[:, 0], item.seq.xy[:, 0])
        np.testing.assert_allclose(copy.seq.deriv, np.diff(copy.seq.xy, axis=0))
    # distinct copies get independent draws
    assert not np.array_equal(copies[0].seq.xy, copies[1].seq.xy)
    # a different sample index gets a different stream
    other = noise(item, config, sample_index=5)
    assert not np.array_equal(other[0].seq.xy, copies[0].seq.xy)


def test_noise_magnitude_tracks_sigma():
    rng = np.random.default_rng(24)
    item = make_item(rng, frames=200)
    config = AugmentConfig(z=1, sigma=0.02, rng_seed=1)
    copy = noise(item, config)[0]
    delta = copy.seq.xy - item.seq.xy
    moved = np.delete(delta, ROOT - 1, axis=1)
    assert abs(moved.std() - 0.02) < 0.002


def test_augment_set_counts_and_order():
    rng = np.random.default_rng(26)
    items = [make_item(rng) for _ in range(3)]

    full = augment_set(items, AugmentConfig(z=2, sigma=0.01, flip=True, rng_seed=0))
    assert len(full) == 2 * 3 * (1 + 2)
    for i in range(3):
        assert full[i] is items[i]
    # second half mirrors the first half element by element
    half = len(full) // 2
    for i in range(half):
        np.testing.assert_array_equal(full[half + i].seq.xy, flip(full[i]).seq.xy)

    no_flip = augment_set(items, AugmentConfig(z=2, sigma=0.01, flip=False, rng_seed=0))
    assert len(no_flip) == 3 * (1 + 2)


def test_augment_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(z=-1)
    with pytest.raises(ValueError):
        AugmentConfig(sigma=-0.1)
    with pytest.raises(ValueError, match="rng_seed"):
        AugmentConfig(rng_seed=-1)
