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

# The layouts embed_sequences builds, which train and predict take; evaluate
# also takes the raw-coordinate baseline.
EMBED_MODES = ("basic", "advanced")
MODES = (*EMBED_MODES, "baseline")

# Frames per pass of the distance kernel. Its four live (frames, prototypes)
# arrays stay cache-sized: at serving widths 32, 48 and 64 measured alike,
# and 48 was the fastest on evaluation folds; 96 and 128 were slower.
_CHUNK = 48


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
    start offsets, and the frames are walked in chunks. The frames of many
    sequences can be stacked on the frame axis: each frame's distances are
    computed on their own, and whether the root gets a pass (below) changes
    no bit. Per landmark, in ascending order, one contiguous
    (chunk, sum P_i) row of Euclidean distances is made in place in the
    first plane of the difference buffer: its ``dx**2`` gets ``dy**2``
    added and then its square root taken. The body J holds every landmark
    and the four limbs follow one another, so the row is added into the
    body's sum and, for a limb landmark, into one limb sum, which starts
    at the limb's first available landmark. At its last one
    ``np.minimum.reduceat`` takes each block's minimum of the limb's sums,
    which is then divided by its landmark count; a limb with one available
    landmark reads the distance row itself. The body is closed the same way
    after its last landmark. That leaves four (chunk, sum P_i) arrays live:
    the two difference planes and the two sums. This keeps the float
    operations of the per-prototype double loop, so every channel equals it
    bit for bit: keep ``dx**2 + dy**2`` under ``sqrt`` in float64, and each
    subset's landmarks in ascending order.

    Three steps are exact rewrites, not approximations:

    * The root gets no pass when it is at the origin in every frame and
      every prototype, as root-centering leaves it. Its distances are all
      ``sqrt(+0) = +0``, and ``x + 0 == x`` for every sum ``x >= 0``. If it
      would start the body's sum, the next landmark starts it, as the
      loop's ``0.0 + d`` is ``d``; a body left with nothing to sum reads
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
    # right[r, a] holds the rows [1, ...] and [-q, ...] of axis a (x or y)
    # of landmark r, and each chunk's left[a, r] the rows [p, 1]. One
    # stacked product takes both axes' differences of a landmark.
    right = np.ones((N_LANDMARKS, 2, 2, width))
    np.negative(protos.transpose(1, 2, 0), out=right[:, :, 1])

    out = np.full((len(blocks), len(SUBSET_NAMES), n_frames), EMPTY_SUBSET_SENTINEL)
    rows = [_available_rows(subset, missing) for subset in SUBSET_NAMES]
    root_at_origin = not (frames[:, ROOT - 1].any() or protos[:, ROOT - 1].any())
    summed = [[r for r in subset_rows if not (root_at_origin and r == ROOT - 1)]
              for subset_rows in rows]
    for s in range(len(SUBSET_NAMES)):
        if rows[s] and not summed[s]:
            out[:, s] = 0.0
    body_rows = summed[0]
    limb_of = {r: s for s in range(1, len(SUBSET_NAMES)) for r in summed[s]}

    def close(s: int, total: np.ndarray, at: slice) -> None:
        nearest = np.minimum.reduceat(total, offsets, axis=1)
        np.divide(nearest.T, len(rows[s]), out=out[:, s, at])

    chunk = min(_CHUNK, n_frames)
    left = np.ones((2, N_LANDMARKS, chunk, 2))
    diff_buffer = np.empty((2, chunk, width))
    sum_buffer = np.empty((2, chunk, width))
    for start in range(0, n_frames, _CHUNK):
        at = slice(start, min(start + _CHUNK, n_frames))
        n = at.stop - start
        left[:, :, :n, 0] = frames[at].transpose(2, 1, 0)
        diff = diff_buffer[:, :n]
        dist = diff[0]
        body, limb = sum_buffer[:, :n]
        for r in body_rows:
            np.matmul(left[:, r, :n], right[r], out=diff)
            np.square(diff, out=diff)
            np.add(dist, diff[1], out=dist)
            np.sqrt(dist, out=dist)
            if r == body_rows[0]:
                body[...] = dist
            else:
                body += dist
            s = limb_of.get(r)
            if s is None:
                continue
            if len(summed[s]) == 1:
                close(s, dist, at)
            elif r == summed[s][0]:
                limb[...] = dist
            else:
                limb += dist
                if r == summed[s][-1]:
                    close(s, limb, at)
        if body_rows:
            close(0, body, at)
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


def _coordinates(frames: np.ndarray) -> np.ndarray:
    """(T, 14, 2) coordinates as a (28, T) channel view."""
    return frames.transpose(1, 2, 0).reshape(2 * N_LANDMARKS, -1)


def _derivative_frames(seq: NormalizedSequence) -> np.ndarray:
    if seq.deriv.shape[0] > 0:
        return seq.deriv
    # Single-frame sequence: stand in one zero-motion frame.
    return np.zeros((1, N_LANDMARKS, 2))


def _fill(dest: np.ndarray, channels: np.ndarray) -> None:
    """Write ``channels`` into the last columns of ``dest``, repeating their
    first column in front: the front padding of derivative-based channels."""
    pad = dest.shape[1] - channels.shape[1]
    dest[:, pad:] = channels
    dest[:, :pad] = channels[:, :1]


def embed_sequences(seqs: Sequence[NormalizedSequence],
                    spatial: Mapping[str, PoseLibrary] | None = None,
                    temporal: Mapping[str, PoseLibrary] | None = None,
                    mode: str = "advanced") -> list[EmbeddingChannels]:
    """Build the channel stack of each preprocessed sequence, in order.

    In advanced mode the frames of all sequences that share a persistently
    missing set go through one distance-kernel call per library kind; each
    channel equals that of embedding the sequence alone, bit for bit. Both
    library mappings must provide every action they declare, and at least
    one; a missing action raises MissingLibrary.
    """
    if mode not in EMBED_MODES:
        raise ValueError(f"embedding handles {'/'.join(EMBED_MODES)}, not {mode!r}")
    actions: tuple[str, ...] = ()
    if mode == "advanced":
        if spatial is None or temporal is None:
            raise MissingLibrary("advanced mode needs both library kinds")
        actions = tuple(sorted(set(spatial) | set(temporal)))
        if not actions:
            raise MissingLibrary("advanced mode needs a library for at least one action")
        for kind, libraries in (("spatial", spatial), ("temporal", temporal)):
            for action in actions:
                if action not in libraries:
                    raise MissingLibrary(f"no {kind} library for action {action!r}")
    names = channel_names(mode, actions)
    derivs = [_derivative_frames(seq) for seq in seqs]
    out = [np.empty((len(names), len(seq))) for seq in seqs]
    width = 2 * N_LANDMARKS
    for seq, deriv, values in zip(seqs, derivs, out):
        values[:width] = _coordinates(seq.xy)
        _fill(values[width:2 * width], _coordinates(deriv))
        for j in seq.persistent_missing:
            values[2 * (j - 1) : 2 * j] = MISSING_SENTINEL
            values[width + 2 * (j - 1) : width + 2 * j] = MISSING_SENTINEL

    if mode == "advanced":
        groups: dict[frozenset[int], list[int]] = {}
        for i, seq in enumerate(seqs):
            groups.setdefault(seq.persistent_missing, []).append(i)
        kind_rows = len(SUBSET_NAMES) * len(actions)
        for k, (libraries, frames) in enumerate(((spatial, [seq.xy for seq in seqs]),
                                                 (temporal, derivs))):
            rows = slice(2 * width + k * kind_rows, 2 * width + (k + 1) * kind_rows)
            blocks = [libraries[action].landmarks for action in actions]
            for missing, members in groups.items():
                distances = _nearest_distances(
                    np.concatenate([frames[i] for i in members]), blocks, missing)
                stop = 0
                for i in members:
                    start, stop = stop, stop + len(frames[i])
                    _fill(out[i][rows], distances[..., start:stop].reshape(kind_rows, -1))
    return [EmbeddingChannels(values, names) for values in out]


def embed_sequence(seq: NormalizedSequence,
                   spatial: Mapping[str, PoseLibrary] | None = None,
                   temporal: Mapping[str, PoseLibrary] | None = None,
                   mode: str = "advanced") -> EmbeddingChannels:
    """Build the channel stack of one preprocessed sequence: the one-sequence
    case of :func:`embed_sequences`."""
    return embed_sequences([seq], spatial, temporal, mode)[0]


def baseline_channels(sample: Sample) -> EmbeddingChannels:
    """Raw global coordinates as channels; absent entries become -1."""
    filled = sample.xy.copy()
    filled[~sample.present] = MISSING_SENTINEL
    channels = filled.transpose(1, 2, 0).reshape(2 * N_LANDMARKS, -1)
    return EmbeddingChannels(channels, channel_names("baseline"))
