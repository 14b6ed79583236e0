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

from .errors import MissingLibrary, ShapeMismatch
from .pose import N_LANDMARKS, ROOT, SUBSET_NAMES, SUBSETS, Sample
from .preprocess import NormalizedSequence
from .som import PoseLibrary

MISSING_SENTINEL = -1.0
EMPTY_SUBSET_SENTINEL = 99.0

# The layouts embed_sequence builds, which train and predict take; evaluate
# also takes the raw-coordinate baseline.
EMBED_MODES = ("basic", "advanced")
MODES = (*EMBED_MODES, "baseline")

# Frames per pass of the distance kernel. Its (frames, prototypes) rows stay
# cache-sized; at serving widths 64 measured as fast as 32, and faster than
# 16 or 128.
_CHUNK = 64


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


def _available_rows(subset: str, missing: frozenset[int]) -> list[int]:
    """0-based landmark rows of a subset that are not persistently missing."""
    return [j - 1 for j in SUBSETS[subset] if j not in missing]


def _nearest_distances(frames: np.ndarray, blocks: Sequence[np.ndarray],
                       missing: frozenset[int]) -> np.ndarray:
    """Subset distances of (F, 14, 2) frames to the nearest prototype of each
    (P_i, 14, 2) prototype block, as (blocks, 5, F).

    The blocks are stacked into one (sum P_i) prototype axis with per-block
    start offsets, and the frames are walked in chunks. Per landmark, in
    ascending order, one contiguous (chunk, sum P_i) row of Euclidean
    distances is added into the running sum of every subset holding that
    landmark; the row is written straight into the sum of a subset it
    starts. ``np.minimum.reduceat`` takes each block's minimum of a subset's
    sums, which is then divided by the subset's landmark count. This keeps
    the float operations of the per-prototype double loop, so every channel
    equals it bit for bit: keep ``dx**2 + dy**2`` under ``sqrt`` in float64.

    Three steps are exact rewrites, not approximations:

    * The root gets no pass when it is at the origin in every frame and
      every prototype, as root-centering leaves it. Its distances are all
      ``sqrt(+0) = +0``, and ``x + 0 == x`` for every sum ``x >= 0``. If it
      would start a subset's sum, the next landmark starts it, as the
      loop's ``0.0 + d`` is ``d``; a subset left with nothing to sum reads
      0.0. The divisor stays the subset's available landmark count. Every
      other available landmark is summed, zeros included.
    * The differences ``p - q`` of one landmark's frame coordinates p and
      prototype coordinates q come from the k=2 matrix product
      ``[p, 1] @ [1, -q]``. Both of its products are exact, so the one
      rounding of their sum is ``fl(p - q)``, whatever the BLAS kernel,
      its FMA use or its thread count. Only the sign of a zero can differ,
      and squaring drops it. (The ``|f|^2 + |q|^2 - 2 f.q`` expansion is a
      different thing: its products round, so it moves the last bit.)
    * Dividing after the minimum gives the minimum of the divided sums,
      because ``fl(x / k)`` is monotone non-decreasing in x for k > 0.
    """
    protos = np.concatenate(blocks, dtype=np.float64)
    offsets = np.cumsum([0] + [len(block) for block in blocks[:-1]])
    n_frames, width = frames.shape[0], protos.shape[0]
    # For axis a (x or y) of landmark r: left[a, r] holds rows [p, 1], and
    # right[r, a] the rows [1, ...] and [-q, ...]. One stacked product takes
    # both axes' differences of a landmark.
    left = np.ones((2, N_LANDMARKS, n_frames, 2))
    left[..., 0] = frames.transpose(2, 1, 0)
    right = np.ones((N_LANDMARKS, 2, 2, width))
    np.negative(protos.transpose(1, 2, 0), out=right[:, :, 1])

    out = np.full((len(blocks), len(SUBSET_NAMES), n_frames), EMPTY_SUBSET_SENTINEL)
    rows = [_available_rows(subset, missing) for subset in SUBSET_NAMES]
    root_at_origin = not (frames[:, ROOT - 1].any() or protos[:, ROOT - 1].any())
    summed = [[r for r in subset_rows if not (root_at_origin and r == ROOT - 1)]
              for subset_rows in rows]
    live = [s for s in range(len(SUBSET_NAMES)) if summed[s]]
    for s in range(len(SUBSET_NAMES)):
        if rows[s] and not summed[s]:
            out[:, s] = 0.0
    # Per landmark: the subsets it starts, then the subsets it adds to.
    plan = []
    for r in range(N_LANDMARKS):
        holding = [s for s in live if r in summed[s]]
        starts = [s for s in holding if summed[s][0] == r]
        if holding:
            plan.append((r, starts, [s for s in holding if s not in starts]))

    chunk = min(_CHUNK, n_frames)
    diff_buffer = np.empty((2, chunk, width))
    dist_buffer = np.empty((chunk, width))
    sums = np.empty((len(SUBSET_NAMES), chunk, width))
    for start in range(0, n_frames, _CHUNK):
        stop = min(start + _CHUNK, n_frames)
        n = stop - start
        diff = diff_buffer[:, :n]
        for r, starts, adds in plan:
            np.matmul(left[:, r, start:stop], right[r], out=diff)
            np.square(diff, out=diff)
            dist = sums[starts[0], :n] if starts else dist_buffer[:n]
            np.add(diff[0], diff[1], out=dist)
            np.sqrt(dist, out=dist)
            for s in starts[1:]:
                sums[s, :n] = dist
            for s in adds:
                sums[s, :n] += dist
        for s in live:
            nearest = np.minimum.reduceat(sums[s, :n], offsets, axis=1)
            np.divide(nearest.T, len(rows[s]), out=out[:, s, start:stop])
    return out


def _landmark_array(array: np.ndarray, what: str, stacked: bool = False) -> np.ndarray:
    """``array`` as float64 (14, 2) landmark coordinates, or as a (P >= 1,
    14, 2) stack of them when ``stacked``; any other shape raises
    ShapeMismatch naming it."""
    values = np.asarray(array, dtype=np.float64)
    lead = values.shape[:1] if stacked else ()
    if values.shape != (*lead, N_LANDMARKS, 2) or values.size == 0:
        form = "(P >= 1, 14, 2)" if stacked else "(14, 2)"
        raise ShapeMismatch(f"{what} must be {form} landmark coordinates, "
                            f"got shape {values.shape}")
    return values


def embed_frame(frame: np.ndarray, library: PoseLibrary | np.ndarray,
                missing: frozenset[int] = frozenset()) -> np.ndarray:
    """Five distances (one per subset) from a frame to its nearest prototype.

    Each entry is the minimum over the whole stacked library, given as a
    PoseLibrary or as its (P, 14, 2) landmark array, of the subset distance;
    subsets with no available landmark yield the empty-subset sentinel. A
    frame that is not (14, 2), or an array that is not (P >= 1, 14, 2),
    raises ShapeMismatch.
    """
    protos = library if isinstance(library, np.ndarray) else library.landmarks
    protos = _landmark_array(protos, "library", stacked=True)
    frame = _landmark_array(frame, "frame")[None]
    return _nearest_distances(frame, [protos], missing)[0, :, 0]


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
    declare, and at least one; a missing action raises MissingLibrary.
    """
    if mode not in EMBED_MODES:
        raise ValueError(f"embed_sequence handles {'/'.join(EMBED_MODES)}, not {mode!r}")
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
        if not actions:
            raise MissingLibrary("advanced mode needs a library for at least one action")
        for kind, libraries, frames in (("spatial", spatial, seq.xy),
                                        ("temporal", temporal, deriv)):
            for action in actions:
                if action not in libraries:
                    raise MissingLibrary(f"no {kind} library for action {action!r}")
            values = _nearest_distances(
                frames, [libraries[action].landmarks for action in actions], missing)
            rows.append(_front_pad(values.reshape(-1, frames.shape[0]), T))
    values = np.vstack(rows)
    names = channel_names(mode, actions)
    return EmbeddingChannels(values, names)


def baseline_channels(sample: Sample) -> EmbeddingChannels:
    """Raw global coordinates as channels; absent entries become -1."""
    filled = sample.xy.copy()
    filled[~sample.present] = MISSING_SENTINEL
    channels = filled.transpose(1, 2, 0).reshape(2 * N_LANDMARKS, -1)
    return EmbeddingChannels(channels, channel_names("baseline"))
