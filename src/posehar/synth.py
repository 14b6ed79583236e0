"""Deterministic synthetic pose sequences for tests, demos, and benchmarks.

Each archetype is a small family of sinusoidal limb trajectories on a fixed
torso, rendered in image coordinates (y grows downward). Viewpoints are
modeled as a signed horizontal compression of the skeleton about the root,
which is crude but preserves exactly the left/right relationships the
pipeline cares about. Actor identity seeds a generator that jitters body
proportions, overall size, movement amplitude, and phase, so samples of one
archetype correlate without being equal.

Everything is a pure function of the spec, so two calls with equal specs
produce identical samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_settings, is_integer
from .pose import N_LANDMARKS, VIEWPOINTS, Sample

ARCHETYPES = ("still", "wave-one-arm", "wave-two-arms", "squat", "march")

# Canonical front-view skeleton in body units, y downward, root at origin.
# Row order is landmark order: head, neck, right arm, left arm, right leg,
# left leg. The root-to-right-hip length is ~0.63.
BASE_POSE = np.array([
    [0.00, -0.28],   # 1 head
    [0.00, 0.00],    # 2 root / neck
    [-0.18, 0.02],   # 3 right shoulder
    [-0.22, 0.30],   # 4 right elbow
    [-0.24, 0.55],   # 5 right wrist
    [0.18, 0.02],    # 6 left shoulder
    [0.22, 0.30],    # 7 left elbow
    [0.24, 0.55],    # 8 left wrist
    [-0.12, 0.62],   # 9 right hip
    [-0.13, 1.00],   # 10 right knee
    [-0.14, 1.38],   # 11 right ankle
    [0.12, 0.62],    # 12 left hip
    [0.13, 1.00],    # 13 left knee
    [0.14, 1.38],    # 14 left ankle
])

# Signed horizontal compression per viewpoint. The sign encodes which way
# the actor faces; the magnitude shrinks apparent body width.
VIEW_FACTOR = {
    "front": 1.0,
    "front-left": 0.72,
    "front-right": -0.72,
    "left": 0.40,
    "right": -0.40,
    "rear": -1.0,
    "rear-left": -0.72,
    "rear-right": 0.72,
}

_RIGHT_WRIST, _LEFT_WRIST = 5, 8
_RIGHT_ELBOW, _LEFT_ELBOW = 4, 7
_RIGHT_KNEE, _LEFT_KNEE = 10, 13
_RIGHT_ANKLE, _LEFT_ANKLE = 11, 14
_UPPER_BODY = (1, 2, 3, 4, 5, 6, 7, 8)
_HIPS = (9, 12)


@dataclass(frozen=True)
class MotionSpec:
    """Description of one synthetic clip. The constructor refuses a field of
    the wrong type or a negative ``actor_seed`` (``check_settings``), and an
    occlusion that is not an integer triple with its landmark in 1..14 and
    ``0 <= first <= last``."""

    archetype: str
    viewpoint: str = "front"
    frames: int = 40
    period: int = 12
    amplitude: float = 0.25
    actor_seed: int = 0
    actor: str = ""
    center: tuple[float, float] = (320.0, 240.0)
    scale: float = 80.0
    # Occlusions: (landmark, first frame, last frame), both ends inclusive.
    occlusions: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        check_settings(self)
        if self.archetype not in ARCHETYPES:
            raise ValueError(f"unknown archetype {self.archetype!r}")
        if self.viewpoint not in VIEWPOINTS:
            raise ValueError(f"unknown viewpoint {self.viewpoint!r}")
        if self.frames < 1:
            raise ValueError("frames must be positive")
        if self.period < 2:
            raise ValueError("period must be at least 2")
        occlusions = tuple(tuple(window) for window in self.occlusions)
        for window in occlusions:
            if len(window) != 3 or not all(map(is_integer, window)):
                raise TypeError(f"occlusions must be integer (landmark, first, last) "
                                f"triples, got {window}")
            j, first, last = window
            if not 1 <= j <= N_LANDMARKS:
                raise ValueError(f"occluded landmarks must be in 1..{N_LANDMARKS}: {window}")
            if not 0 <= first <= last:
                raise ValueError(f"occlusion windows must have 0 <= first <= last: {window}")
        object.__setattr__(self, "occlusions",
                           tuple(tuple(map(int, window)) for window in occlusions))


def _actor_body(rng: np.random.Generator) -> tuple[np.ndarray, float, float, float]:
    """Jittered base skeleton plus (size, amplitude factor, phase)."""
    body = BASE_POSE.copy()
    body[2:] += rng.normal(0.0, 0.012, body[2:].shape)   # proportions
    body[0, 1] += rng.normal(0.0, 0.015)                 # head height
    size = rng.uniform(0.92, 1.08)
    amp = rng.uniform(0.85, 1.15)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return body, size, amp, phase


def _apply_motion(track: np.ndarray, archetype: str, amplitude: float,
                  period: int, phase: float) -> None:
    """Add archetype-specific offsets in place; track is (T, 14, 2) in body
    units with rows 0-based."""
    T = track.shape[0]
    t = np.arange(T)
    omega = 2.0 * np.pi / period
    wave = np.sin(omega * t + phase)

    if archetype == "still":
        return
    if archetype in ("wave-one-arm", "wave-two-arms"):
        # Right arm raised overhead, hand swinging side to side. Row 2 is the
        # right shoulder, row 5 the left shoulder.
        track[:, _RIGHT_ELBOW - 1] = track[:, 2] + [-0.08, -0.34]
        track[:, _RIGHT_WRIST - 1, 0] = track[:, _RIGHT_ELBOW - 1, 0] + amplitude * wave
        track[:, _RIGHT_WRIST - 1, 1] = track[:, _RIGHT_ELBOW - 1, 1] - 0.22
        if archetype == "wave-two-arms":
            track[:, _LEFT_ELBOW - 1] = track[:, 5] + [0.08, -0.34]
            track[:, _LEFT_WRIST - 1, 0] = track[:, _LEFT_ELBOW - 1, 0] - amplitude * wave
            track[:, _LEFT_WRIST - 1, 1] = track[:, _LEFT_ELBOW - 1, 1] - 0.22
        return
    if archetype == "squat":
        dip = 0.5 * amplitude * (1.0 - np.cos(omega * t + phase))  # >= 0
        for j in _UPPER_BODY + _HIPS:
            track[:, j - 1, 1] += dip
        for j in (_RIGHT_KNEE, _LEFT_KNEE):
            track[:, j - 1, 1] += 0.5 * dip
        # Knees splay outward as the body drops.
        track[:, _RIGHT_KNEE - 1, 0] -= 0.25 * dip
        track[:, _LEFT_KNEE - 1, 0] += 0.25 * dip
        return
    if archetype == "march":
        lift_r = np.maximum(0.0, np.sin(omega * t + phase))
        lift_l = np.maximum(0.0, np.sin(omega * t + phase + np.pi))
        track[:, _RIGHT_KNEE - 1, 1] -= 0.55 * amplitude * lift_r
        track[:, _RIGHT_ANKLE - 1, 1] -= 0.35 * amplitude * lift_r
        track[:, _LEFT_KNEE - 1, 1] -= 0.55 * amplitude * lift_l
        track[:, _LEFT_ANKLE - 1, 1] -= 0.35 * amplitude * lift_l
        # Arms swing opposite to the legs.
        swing = 0.3 * amplitude * np.sin(omega * t + phase)
        track[:, _RIGHT_WRIST - 1, 0] += swing
        track[:, _LEFT_WRIST - 1, 0] += swing
        return
    raise AssertionError(archetype)


def generate(spec: MotionSpec) -> Sample:
    """Render one synthetic sample from its spec."""
    rng = np.random.default_rng(spec.actor_seed)
    body, size, amp, phase = _actor_body(rng)
    offset = rng.uniform(-15.0, 15.0, 2)   # where the actor stands in frame
    track = np.repeat(body[None, :, :], spec.frames, axis=0)
    _apply_motion(track, spec.archetype, spec.amplitude * amp, spec.period, phase)

    factor = VIEW_FACTOR[spec.viewpoint]
    track[:, :, 0] *= factor
    track *= size * spec.scale
    track[:, :, 0] += spec.center[0] + offset[0]
    track[:, :, 1] += spec.center[1] + offset[1]

    present = np.ones((spec.frames, N_LANDMARKS), dtype=bool)
    for j, first, last in spec.occlusions:
        present[first : last + 1, j - 1] = False

    actor = spec.actor or f"a{spec.actor_seed}"
    return Sample(track, present, spec.archetype, spec.viewpoint, actor, "synth")


def generate_corpus(n_actors: int,
                    archetypes: tuple[str, ...] = ARCHETYPES,
                    viewpoints: tuple[str, ...] = ("front",),
                    seed: int = 0,
                    frames: int = 40,
                    period: int = 12,
                    amplitude: float = 0.25) -> list[Sample]:
    """A balanced corpus: every (archetype, viewpoint, actor) combination once.

    Actor k performs every archetype from every viewpoint, with per-actor
    body and timing jitter derived from (seed, k).
    """
    if n_actors < 1:
        raise ValueError("need at least one actor")
    samples = []
    for archetype in archetypes:
        for viewpoint in viewpoints:
            for k in range(n_actors):
                actor_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
                spec = MotionSpec(archetype, viewpoint, frames=frames, period=period,
                                  amplitude=amplitude, actor_seed=actor_seed,
                                  actor=f"a{k:02d}")
                samples.append(generate(spec))
    return samples
