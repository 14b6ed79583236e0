"""Turning sequences into fixed-arity channel stacks for the classifier.

Three layouts exist:

* **basic** (56 channels): the 28 pose coordinate channels plus the 28
  frame-difference channels.
* **advanced** (56 + 10 * |actions| channels): basic plus, per action, one
  channel per landmark subset holding the distance of each frame to the
  nearest prototype of that action's pose library, and the same against the
  motion library for the derivative frames.
* **baseline** (28 channels): raw global coordinates with missing entries
  set to -1, no preprocessing at all. A control configuration.

Distance of a frame to a prototype under a subset is the mean over the
subset's landmarks of the per-landmark Euclidean distances. Persistently
missing landmarks are excluded from the mean; a subset left with no
landmarks at all emits the sentinel 99.0 instead of a distance. Pose and
derivative channels of persistently missing landmarks emit the sentinel -1.

Derivative-based channels have length T - 1 by construction and are padded
at the front by repeating their first value, so every channel has length T.
A single-frame sequence gets one all-zero derivative frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptySubset, MissingLibrary
from .pose import N_LANDMARKS, SUBSET_NAMES, SUBSETS, Sample
from .preprocess import NormalizedSequence
from .som import PoseLibrary

MISSING_SENTINEL = -1.0
EMPTY_SUBSET_SENTINEL = 99.0

MODES = ("basic", "advanced", "baseline")

# 0-based coordinate rows per subset, fixed order.
_SUBSET_ROWS = {name: np.array([j - 1 for j in SUBSETS[name]]) for name in SUBSET_NAMES}


@dataclass(frozen=True)
class EmbeddingChannels:
    """A (channels, T) value matrix with its channel names."""

    values: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != len(self.names):
            raise ValueError("channel matrix must be (len(names), T)")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def length(self) -> int:
        return int(self.values.shape[1])


def _landmark_distances(frames: np.ndarray, protos: np.ndarray) -> np.ndarray:
    """Per-landmark distances between frames (F, 14, 2) and prototypes
    (P, 14, 2), returned as (F, P, 14)."""
    diff = frames[:, None, :, :] - protos[None, :, :, :]
    return np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)


def _available_rows(subset: str, missing: frozenset[int]) -> np.ndarray:
    rows = _SUBSET_ROWS[subset]
    if not missing:
        return rows
    keep = [r for r in rows if (r + 1) not in missing]
    return np.array(keep, dtype=int)


def _subset_mean(distances: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Mean over the given landmark columns, accumulated left to right.

    Sequential accumulation keeps the result bit-identical across the
    scalar, per-frame, and whole-sequence code paths; np.mean's blocked
    summation reorders with array shape and does not.
    """
    acc = distances[..., rows[0]].copy()
    for r in rows[1:]:
        acc += distances[..., r]
    return acc / rows.size


def subset_distance(frame: np.ndarray, prototype: np.ndarray, subset: str,
                    missing: frozenset[int] = frozenset()) -> float:
    """Distance between one frame and one prototype under one subset.

    ``frame`` and ``prototype`` are (14, 2) root-centered landmark
    coordinates, such as a row of :attr:`PoseLibrary.landmarks`. Raises
    EmptySubset when every landmark of the subset is missing.
    """
    if subset not in SUBSETS:
        raise ValueError(f"unknown subset {subset!r}")
    rows = _available_rows(subset, missing)
    if rows.size == 0:
        raise EmptySubset(f"all landmarks of subset {subset} are persistently missing")
    frame = np.asarray(frame, dtype=np.float64).reshape(1, N_LANDMARKS, 2)
    proto = np.asarray(prototype, dtype=np.float64).reshape(1, N_LANDMARKS, 2)
    distances = _landmark_distances(frame, proto)
    return float(_subset_mean(distances, rows)[0, 0])


def embed_frame(frame: np.ndarray, library: PoseLibrary | np.ndarray,
                missing: frozenset[int] = frozenset()) -> np.ndarray:
    """Five distances (one per subset) from a frame to its nearest prototype.

    Each entry is the minimum over the whole stacked library, given as a
    PoseLibrary or as its (P, 14, 2) landmark array, of the subset distance;
    subsets with no available landmark yield the empty-subset sentinel.
    """
    protos = library if isinstance(library, np.ndarray) else library.landmarks
    frame = np.asarray(frame, dtype=np.float64).reshape(1, N_LANDMARKS, 2)
    return _embed_frames(frame, protos, missing)[:, 0]


def _embed_frames(frames: np.ndarray, protos: np.ndarray,
                  missing: frozenset[int]) -> np.ndarray:
    """Vectorized :func:`embed_frame` of (F, 14, 2) frames against (P, 14, 2)
    prototypes, giving (5, F)."""
    distances = _landmark_distances(frames, protos)  # (F, P, 14)
    out = np.empty((len(SUBSET_NAMES), frames.shape[0]))
    for s, subset in enumerate(SUBSET_NAMES):
        rows = _available_rows(subset, missing)
        if rows.size == 0:
            out[s] = EMPTY_SUBSET_SENTINEL
        else:
            out[s] = _subset_mean(distances, rows).min(axis=1)
    return out


def coordinate_channel_names(prefix: str) -> list[str]:
    return [f"{prefix}/{j:02d}/{axis}" for j in range(1, N_LANDMARKS + 1) for axis in "xy"]


def channel_names(mode: str, actions: Sequence[str] = ()) -> tuple[str, ...]:
    """The channel-name list for a mode, in emission order."""
    if mode == "baseline":
        return tuple(coordinate_channel_names("raw"))
    names = coordinate_channel_names("pose") + coordinate_channel_names("deriv")
    if mode == "advanced":
        for kind in ("spatial", "temporal"):
            for action in sorted(actions):
                names.extend(f"{kind}/{action}/{subset}" for subset in SUBSET_NAMES)
    elif mode != "basic":
        raise ValueError(f"unknown mode {mode!r}")
    return tuple(names)


def _coordinate_channels(frames: np.ndarray, missing: frozenset[int]) -> np.ndarray:
    """(T, 14, 2) coordinates to (28, T) channels with missing sentinels."""
    channels = frames.transpose(1, 2, 0).reshape(2 * N_LANDMARKS, -1).copy()
    for j in missing:
        channels[2 * (j - 1) : 2 * j] = MISSING_SENTINEL
    return channels


def _derivative_frames(seq: NormalizedSequence) -> np.ndarray:
    if seq.deriv.shape[0] > 0:
        return seq.deriv
    # Single-frame sequence: stand in one zero-motion frame.
    return np.zeros((1, N_LANDMARKS, 2))


def _front_pad(channels: np.ndarray, length: int) -> np.ndarray:
    """Repeat the first column until the channel matrix has ``length`` cols."""
    pad = length - channels.shape[1]
    if pad <= 0:
        return channels
    return np.concatenate([np.repeat(channels[:, :1], pad, axis=1), channels], axis=1)


def embed_sequence(seq: NormalizedSequence,
                   spatial: Mapping[str, PoseLibrary] | None = None,
                   temporal: Mapping[str, PoseLibrary] | None = None,
                   mode: str = "advanced") -> EmbeddingChannels:
    """Build the channel stack of one preprocessed sequence.

    In advanced mode both library mappings must provide every action they
    declare; a missing action raises MissingLibrary.
    """
    if mode not in ("basic", "advanced"):
        raise ValueError(f"embed_sequence handles basic/advanced, not {mode!r}")
    missing = seq.persistent_missing
    T = len(seq)
    deriv = _derivative_frames(seq)

    rows = [_coordinate_channels(seq.xy, missing),
            _front_pad(_coordinate_channels(deriv, missing), T)]
    actions: tuple[str, ...] = ()
    if mode == "advanced":
        if spatial is None or temporal is None:
            raise MissingLibrary("advanced mode needs both library kinds")
        actions = tuple(sorted(set(spatial) | set(temporal)))
        for kind, libraries, frames in (("spatial", spatial, seq.xy),
                                        ("temporal", temporal, deriv)):
            for action in actions:
                if action not in libraries:
                    raise MissingLibrary(f"no {kind} library for action {action!r}")
                values = _embed_frames(frames, libraries[action].landmarks, missing)
                rows.append(_front_pad(values, T))
    values = np.vstack(rows)
    names = channel_names(mode, actions)
    return EmbeddingChannels(values, names)


def baseline_channels(sample: Sample) -> EmbeddingChannels:
    """Raw global coordinates as channels; absent entries become -1."""
    filled = sample.xy.copy()
    filled[~sample.present] = MISSING_SENTINEL
    channels = filled.transpose(1, 2, 0).reshape(2 * N_LANDMARKS, -1)
    return EmbeddingChannels(channels, channel_names("baseline"))
