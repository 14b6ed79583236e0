"""Missing-data treatment and pose normalization.

The treatment stage turns a raw detector sequence into a gap-free sequence on
a compacted timeline:

1. Frames whose root is absent, or with more than 8 missing landmarks, are
   dropped outright.
2. Landmarks that are present in at least one retained frame have their gaps
   filled with the temporally nearest observation (ties go to the earlier
   frame).
3. Limb landmarks absent from every retained frame copy the track of their
   left/right mirror counterpart, frame by frame, after that counterpart has
   itself been gap-filled.
4. Whatever still has no data anywhere (head without face detections, or both
   sides of a limb pair absent) is flagged persistently missing for the whole
   sequence and excluded from all downstream geometry.

Normalization then centers each frame on the root and divides by the
root-to-right-hip length, so poses are comparable across actors and camera
placements.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import AbsentHip, AbsentRoot, EmptySequence
from .pose import LEFT_HIP, MIRROR, N_LANDMARKS, RIGHT_HIP, ROOT, Sample

log = logging.getLogger(__name__)

# A frame is dropped when more landmarks than this are missing.
MAX_MISSING_PER_FRAME = 8

# Root-to-hip lengths at or below this are useless as a scale divisor.
TORSO_EPS = 1e-6


@dataclass(frozen=True)
class CleanSequence:
    """Gap-free sequence on a compacted timeline.

    Landmarks listed in ``persistent_missing`` never had data; their
    coordinate rows are zero placeholders and must not be interpreted.
    """

    xy: np.ndarray                      # (T, 14, 2) float64
    persistent_missing: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        xy = np.ascontiguousarray(self.xy, dtype=np.float64)
        if xy.ndim != 3 or xy.shape[1:] != (N_LANDMARKS, 2):
            raise ValueError(f"expected (T, 14, 2) coordinates, got {xy.shape}")
        if xy.shape[0] < 1:
            raise EmptySequence("clean sequence has no frames")
        missing = frozenset(int(j) for j in self.persistent_missing)
        if ROOT in missing:
            raise AbsentRoot("the root cannot be persistently missing")
        if len(missing) > MAX_MISSING_PER_FRAME:
            raise ValueError("more persistently missing landmarks than any retained frame allows")
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "persistent_missing", missing)

    def __len__(self) -> int:
        return int(self.xy.shape[0])


@dataclass(frozen=True)
class NormalizedSequence:
    """Root-centered, torso-scaled sequence plus its frame-to-frame
    derivatives ``deriv``, which are computed from ``xy``."""

    xy: np.ndarray                      # (T, 14, 2)
    persistent_missing: frozenset[int] = frozenset()
    deriv: np.ndarray = field(init=False)   # (T-1, 14, 2)

    def __post_init__(self) -> None:
        xy = np.ascontiguousarray(self.xy, dtype=np.float64)
        if xy.ndim != 3 or xy.shape[1:] != (N_LANDMARKS, 2):
            raise ValueError(f"expected (T, 14, 2) coordinates, got {xy.shape}")
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "deriv", np.diff(xy, axis=0))
        object.__setattr__(self, "persistent_missing",
                           frozenset(int(j) for j in self.persistent_missing))

    def __len__(self) -> int:
        return int(self.xy.shape[0])


@dataclass(frozen=True)
class LabeledSequence:
    """A normalized sequence together with its sample labels."""

    seq: NormalizedSequence
    action: str
    viewpoint: str
    actor: str
    dataset: str = ""


@dataclass(frozen=True)
class PreprocessReport:
    """What the treatment and normalization stages did to one sample."""

    frames_in: int
    frames_dropped_missing: int
    frames_dropped_degenerate: int
    persistent_missing: tuple[int, ...]
    scale_reference: int


def _fill_nearest(track: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Fill gaps in one landmark track with the nearest observed frame.

    Equidistant neighbours resolve to the earlier frame. ``track`` is (T, 2),
    ``present`` is (T,) with at least one True entry.
    """
    observed = np.flatnonzero(present)
    gaps = np.flatnonzero(~present)
    if gaps.size == 0:
        return track
    pos = np.searchsorted(observed, gaps)
    far = np.iinfo(np.int64).max
    left = observed[np.clip(pos - 1, 0, observed.size - 1)]
    right = observed[np.clip(pos, 0, observed.size - 1)]
    dist_left = np.where(pos > 0, gaps - left, far)
    dist_right = np.where(pos < observed.size, right - gaps, far)
    source = np.where(dist_left <= dist_right, left, right)
    out = track.copy()
    out[gaps] = track[source]
    return out


def treat_missing(sample: Sample) -> CleanSequence:
    """Apply the frame-drop, gap-fill, and mirror-copy rules to a sample.

    Raises EmptySequence when every frame is dropped.
    """
    missing_per_frame = (~sample.present).sum(axis=1)
    keep = sample.present[:, ROOT - 1] & (missing_per_frame <= MAX_MISSING_PER_FRAME)
    if not keep.any():
        raise EmptySequence(
            f"no usable frames in sample (actor={sample.actor!r}, action={sample.action!r})")
    xy = sample.xy[keep]
    present = sample.present[keep]

    seen = present.any(axis=0)
    # Landmarks with occasional gaps are filled from their own track first, so
    # that mirror copies below never propagate holes.
    for j in range(N_LANDMARKS):
        if seen[j] and not present[:, j].all():
            xy[:, j] = _fill_nearest(xy[:, j], present[:, j])
            present[:, j] = True

    persistent: list[int] = []
    for j in range(1, N_LANDMARKS + 1):
        if seen[j - 1]:
            continue
        m = MIRROR[j]
        if m != j and seen[m - 1]:
            xy[:, j - 1] = xy[:, m - 1]
        else:
            persistent.append(j)
            xy[:, j - 1] = 0.0
    return CleanSequence(xy, frozenset(persistent))


def _scale_reference(persistent_missing: frozenset[int]) -> int:
    if RIGHT_HIP not in persistent_missing:
        return RIGHT_HIP
    if LEFT_HIP not in persistent_missing:
        return LEFT_HIP
    raise AbsentHip("both hips persistently missing; sequence cannot be scaled")


def normalize(clean: CleanSequence) -> NormalizedSequence:
    """Center every frame on the root and scale by the root-to-hip length.

    Frames whose reference link is degenerate are dropped with a warning.
    Raises EmptySequence if that removes every frame and AbsentHip when no
    hip is available as the reference.
    """
    ref = _scale_reference(clean.persistent_missing)
    if ref == LEFT_HIP:
        log.warning("right hip persistently missing; scaling by the left hip instead")
    xy = clean.xy - clean.xy[:, ROOT - 1 : ROOT]
    lengths = np.hypot(xy[:, ref - 1, 0], xy[:, ref - 1, 1])
    ok = lengths > TORSO_EPS
    if not ok.all():
        log.warning("dropping %d frame(s) with a degenerate torso", int((~ok).sum()))
        xy = xy[ok]
        lengths = lengths[ok]
    if xy.shape[0] == 0:
        raise EmptySequence("all frames had a degenerate torso")
    xy = xy / lengths[:, None, None]
    for j in clean.persistent_missing:
        xy[:, j - 1] = 0.0
    return NormalizedSequence(xy, clean.persistent_missing)


def preprocess_sample(sample: Sample) -> tuple[LabeledSequence, PreprocessReport]:
    """Run the full treatment and normalization pipeline on one sample."""
    clean = treat_missing(sample)
    seq = normalize(clean)
    report = PreprocessReport(
        frames_in=len(sample),
        frames_dropped_missing=len(sample) - len(clean),
        frames_dropped_degenerate=len(clean) - len(seq),
        persistent_missing=tuple(sorted(clean.persistent_missing)),
        scale_reference=_scale_reference(clean.persistent_missing),
    )
    labeled = LabeledSequence(seq, sample.action, sample.viewpoint, sample.actor, sample.dataset)
    return labeled, report
