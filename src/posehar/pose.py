"""Domain types for 14-landmark 2D poses and labeled pose sequences.

The landmark model indexes the body 1..14 in image coordinates (y grows
downward):

====  ==================  ====  ==================
   1  head (merged face)     8  left wrist
   2  root (neck)            9  right hip
   3  right shoulder        10  right knee
   4  right elbow           11  right ankle
   5  right wrist           12  left hip
   6  left shoulder         13  left knee
   7  left elbow            14  left ankle
====  ==================  ====  ==================

Public APIs take and return 1-based landmark indices; array rows are the
usual 0-based offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MalformedFrame, UnknownLabel

N_LANDMARKS = 14
HEAD = 1
ROOT = 2  # the neck; origin of every centered pose
RIGHT_HIP = 9
LEFT_HIP = 12

# Left/right counterpart of every landmark. Head and root sit on the symmetry
# axis and map to themselves. The map is an involution.
MIRROR = {
    1: 1, 2: 2,
    3: 6, 4: 7, 5: 8,
    6: 3, 7: 4, 8: 5,
    9: 12, 10: 13, 11: 14,
    12: 9, 13: 10, 14: 11,
}

VIEWPOINTS = (
    "front",
    "front-left",
    "front-right",
    "left",
    "right",
    "rear",
    "rear-left",
    "rear-right",
)

# Viewpoint relabeling under a left/right flip of the pose.
FLIP_VIEWPOINT = {
    "front": "front",
    "rear": "rear",
    "left": "right",
    "right": "left",
    "front-left": "front-right",
    "front-right": "front-left",
    "rear-left": "rear-right",
    "rear-right": "rear-left",
}

# Landmark subsets scored by the embedding stage: the whole body plus the four
# limbs. The keys are the identifiers used in the channel names.
SUBSETS = {
    "J": tuple(range(1, N_LANDMARKS + 1)),
    "J_a": (3, 4, 5),     # right arm
    "J_b": (6, 7, 8),     # left arm
    "J_c": (9, 10, 11),   # right leg
    "J_d": (12, 13, 14),  # left leg
}
SUBSET_NAMES = ("J", "J_a", "J_b", "J_c", "J_d")


@dataclass(frozen=True)
class Sample:
    """A labeled pose sequence: one actor performing one action, seen from one
    viewpoint.

    ``xy`` holds the (T, 14, 2) landmark coordinates and ``present`` the
    (T, 14) presence flags, one row per frame in detector order. Coordinates
    of absent landmarks carry no meaning. All-absent frames are legal here
    and are dealt with by the preprocessing stage. Both arrays are stored as
    read-only copies.
    """

    xy: np.ndarray        # (T, 14, 2) float64
    present: np.ndarray   # (T, 14) bool
    action: str
    viewpoint: str
    actor: str
    dataset: str = ""

    def __post_init__(self) -> None:
        xy = np.array(self.xy, dtype=np.float64, order="C", copy=True)
        present = np.array(self.present, dtype=bool, order="C", copy=True)
        if xy.ndim != 3 or xy.shape[1:] != (N_LANDMARKS, 2):
            raise MalformedFrame(f"sample coordinates must be (T, 14, 2), got {xy.shape}")
        if present.shape != xy.shape[:2]:
            raise MalformedFrame(
                f"presence flags must be {xy.shape[:2]} to match the coordinates, "
                f"got {present.shape}")
        if xy.shape[0] < 1:
            raise MalformedFrame("a sample needs at least one frame")
        if self.viewpoint not in VIEWPOINTS:
            raise UnknownLabel(f"unknown viewpoint {self.viewpoint!r}")
        xy.flags.writeable = False
        present.flags.writeable = False
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "present", present)

    def __len__(self) -> int:
        return int(self.xy.shape[0])
