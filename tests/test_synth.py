"""Synthetic corpus generator."""

import numpy as np
import pytest

from posehar.pose import N_LANDMARKS, ROOT, VIEWPOINTS
from posehar.synth import ARCHETYPES, VIEW_FACTOR, MotionSpec, generate, generate_corpus


def test_spec_validation():
    with pytest.raises(ValueError):
        MotionSpec("cartwheel")
    with pytest.raises(ValueError):
        MotionSpec("still", viewpoint="above")
    with pytest.raises(ValueError):
        MotionSpec("still", frames=0)
    with pytest.raises(ValueError):
        MotionSpec("still", period=1)


@pytest.mark.parametrize("settings, error, match", [
    ({"frames": 2.5}, TypeError, "frames"),
    ({"occlusions": ((0, 0, 3),)}, ValueError, "occluded landmarks"),
    ({"occlusions": ((20, 0, 3),)}, ValueError, "occluded landmarks"),
    ({"amplitude": float("nan")}, ValueError, "amplitude"),
    ({"occlusions": ((5, 2.7, 4.9),)}, TypeError, "integer"),
    ({"occlusions": ((5, 4, 1),)}, ValueError, "first <= last"),
    ({"actor_seed": -1}, ValueError, "actor_seed"),
], ids=["fractional frames", "landmark 0", "landmark 20", "nan amplitude",
        "fractional window", "reversed window", "negative actor_seed"])
def test_spec_refuses_at_construction_what_rendering_got_wrong(settings, error, match):
    # each once failed inside np.repeat, hid landmark 14, raised IndexError,
    # rendered NaN coordinates, was truncated to another window, occluded
    # nothing, or failed inside numpy's seeding
    with pytest.raises(error, match=match):
        MotionSpec("still", **settings)


def test_generate_is_deterministic():
    spec = MotionSpec("march", "front-left", frames=20, actor_seed=7, actor="a7")
    a, b = generate(spec), generate(spec)
    xy_a, present_a = a.xy, a.present
    xy_b, present_b = b.xy, b.present
    np.testing.assert_array_equal(xy_a, xy_b)
    np.testing.assert_array_equal(present_a, present_b)
    assert a.action == "march" and a.viewpoint == "front-left"
    assert a.actor == "a7" and a.dataset == "synth"


def test_actor_seed_changes_geometry():
    xy_a = generate(MotionSpec("squat", actor_seed=1)).xy
    xy_b = generate(MotionSpec("squat", actor_seed=2)).xy
    assert not np.allclose(xy_a, xy_b)


def test_still_archetype_is_static():
    still = generate(MotionSpec("still", frames=12))
    xy, present = still.xy, still.present
    assert xy.shape == (12, N_LANDMARKS, 2)
    assert present.all()
    np.testing.assert_array_equal(xy, np.repeat(xy[:1], 12, axis=0))


def test_wave_moves_only_the_right_arm():
    spec = MotionSpec("wave-one-arm", frames=24, occlusions=())
    xy = generate(spec).xy
    moving = np.ptp(xy, axis=0).max(axis=1) > 1e-9   # per landmark
    assert moving[5 - 1] and not moving[8 - 1]       # right wrist yes, left no
    assert not moving[ROOT - 1]
    # wrist stays above (smaller y than) the shoulder the whole time
    assert (xy[:, 5 - 1, 1] < xy[:, 3 - 1, 1]).all()


def test_two_arm_wave_is_mirrored_motion():
    xy = generate(MotionSpec("wave-two-arms", frames=24)).xy
    ptp = np.ptp(xy, axis=0).max(axis=1)
    assert ptp[5 - 1] > 1 and ptp[8 - 1] > 1
    # the two wrists swing in antiphase around their elbows
    dx_r = xy[:, 5 - 1, 0] - xy[:, 4 - 1, 0]
    dx_l = xy[:, 8 - 1, 0] - xy[:, 7 - 1, 0]
    np.testing.assert_allclose(dx_r, -dx_l, atol=1e-9)


def test_squat_dips_the_torso():
    xy = generate(MotionSpec("squat", frames=24)).xy
    # y grows downward, so dipping means the root's y range is wide while the
    # ankles stay planted
    assert np.ptp(xy[:, ROOT - 1, 1]) > 5.0
    assert np.ptp(xy[:, 11 - 1, 1]) < 1e-9


def test_march_alternates_knees():
    xy = generate(MotionSpec("march", frames=48, actor_seed=3)).xy
    lift_r = xy[:, 10 - 1, 1].min(axis=0)
    lift_l = xy[:, 13 - 1, 1].min(axis=0)
    assert np.ptp(xy[:, 10 - 1, 1]) > 3.0 and np.ptp(xy[:, 13 - 1, 1]) > 3.0
    # never both knees lifted high at once
    base_r = xy[:, 10 - 1, 1].max()
    base_l = xy[:, 13 - 1, 1].max()
    both_up = ((base_r - xy[:, 10 - 1, 1] > 3.0)
               & (base_l - xy[:, 13 - 1, 1] > 3.0))
    assert not both_up.any()
    assert lift_r < base_r and lift_l < base_l


def test_viewpoint_compresses_width():
    widths = {}
    for viewpoint in VIEWPOINTS:
        spec = MotionSpec("still", viewpoint, frames=2, actor_seed=5)
        xy = generate(spec).xy
        widths[viewpoint] = np.ptp(xy[0, :, 0])
    assert widths["left"] == pytest.approx(0.40 * widths["front"])
    assert widths["right"] == pytest.approx(widths["left"])
    assert widths["front-left"] == pytest.approx(0.72 * widths["front"])
    assert widths["rear"] == pytest.approx(widths["front"])


def test_viewpoint_sign_flips_facing():
    # mirrored viewpoints put the right shoulder on opposite image sides
    shoulder = {}
    for viewpoint in ("left", "right"):
        spec = MotionSpec("still", viewpoint, frames=1, actor_seed=5)
        xy = generate(spec).xy
        shoulder[viewpoint] = xy[0, 3 - 1, 0] - xy[0, ROOT - 1, 0]
    assert np.sign(shoulder["left"]) == -np.sign(shoulder["right"])
    assert VIEW_FACTOR["right"] == -VIEW_FACTOR["left"]


def test_occlusion_windows_are_inclusive():
    spec = MotionSpec("still", frames=10, occlusions=((5, 2, 4), (12, 0, 0)))
    present = generate(spec).present
    assert not present[2:5, 5 - 1].any()
    assert present[:2, 5 - 1].all() and present[5:, 5 - 1].all()
    assert not present[0, 12 - 1]
    assert present[1:, 12 - 1].all()


def test_corpus_is_balanced_and_labeled():
    samples = generate_corpus(3, ("still", "squat"), ("front", "left"), seed=9,
                              frames=6)
    assert len(samples) == 2 * 2 * 3
    combos = {(s.action, s.viewpoint, s.actor) for s in samples}
    assert len(combos) == len(samples)
    assert {s.actor for s in samples} == {"a00", "a01", "a02"}
    assert all(len(s) == 6 for s in samples)
    # same actor id means the same body across archetypes: compare root-to-hip
    by_actor = {}
    for s in samples:
        if s.action == "still" and s.viewpoint == "front":
            xy = s.xy
            by_actor[s.actor] = xy[0, 9 - 1] - xy[0, ROOT - 1]
    squat = next(s for s in samples
                 if s.action == "squat" and s.viewpoint == "front" and s.actor == "a00")
    xy = squat.xy
    np.testing.assert_allclose(xy[0, 9 - 1] - xy[0, ROOT - 1], by_actor["a00"],
                               atol=1e-9)

    again = generate_corpus(3, ("still", "squat"), ("front", "left"), seed=9,
                            frames=6)
    for s, t in zip(samples, again):
        xy_s = s.xy
        xy_t = t.xy
        np.testing.assert_array_equal(xy_s, xy_t)

    with pytest.raises(ValueError):
        generate_corpus(0)


def test_all_archetypes_render():
    for archetype in ARCHETYPES:
        sample = generate(MotionSpec(archetype, frames=8))
        xy, present = sample.xy, sample.present
        assert np.isfinite(xy).all()
        assert present.all()
