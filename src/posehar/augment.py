"""Training-set augmentation: left/right flipping and coordinate noise.

Flipping negates every x coordinate and swaps each landmark track with its
mirror counterpart, relabeling the viewpoint accordingly; applied twice it
returns the original sequence exactly. Noising adds independent Gaussian
perturbations to every present coordinate of every frame. The root stays
pinned at the origin and persistently missing landmarks are left untouched
by both operations.

With ``z`` noised copies per sequence and flipping enabled, a set of N
sequences grows to 2 * N * (1 + z): flips are applied to the noised copies
as well as the originals.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import check_settings
from .pose import FLIP_VIEWPOINT, MIRROR, N_LANDMARKS, ROOT
from .preprocess import LabeledSequence, NormalizedSequence

log = logging.getLogger(__name__)

# Row permutation sending each landmark's track to its mirror counterpart.
_MIRROR_ROWS = np.array([MIRROR[j] - 1 for j in range(1, N_LANDMARKS + 1)])
_NEGATE_X = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class AugmentConfig:
    """Knobs for the augmentation stage.

    z is the number of noised copies per sequence, sigma the noise standard
    deviation (in normalized pose units). Noise streams are derived from
    (rng_seed, sample index, copy index), so results do not depend on
    processing order. The constructor refuses what a config file may not hold.
    """

    z: int = 0
    sigma: float = 0.0
    flip: bool = True
    rng_seed: int = 0

    def __post_init__(self) -> None:
        check_settings(self)
        if self.z < 0:
            raise ValueError("z must be non-negative")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")


def flip(item: LabeledSequence) -> LabeledSequence:
    """Mirror a sequence left/right. An exact involution."""
    seq = item.seq
    xy = seq.xy[:, _MIRROR_ROWS] * _NEGATE_X
    missing = frozenset(MIRROR[j] for j in seq.persistent_missing)
    for j in missing:
        xy[:, j - 1] = 0.0
    flipped = NormalizedSequence(xy, missing)
    return LabeledSequence(flipped, item.action, FLIP_VIEWPOINT[item.viewpoint],
                           item.actor, item.dataset)


def noise(item: LabeledSequence, config: AugmentConfig,
          sample_index: int = 0) -> list[LabeledSequence]:
    """Produce ``config.z`` independently noised copies of a sequence.

    Every coordinate of every frame gets its own Gaussian draw except the
    root and persistently missing landmarks.
    """
    out: list[LabeledSequence] = []
    seq = item.seq
    for copy_index in range(config.z):
        rng = np.random.default_rng([config.rng_seed, sample_index, copy_index])
        delta = rng.normal(0.0, config.sigma, seq.xy.shape)
        delta[:, ROOT - 1] = 0.0
        for j in seq.persistent_missing:
            delta[:, j - 1] = 0.0
        noised = NormalizedSequence(seq.xy + delta, seq.persistent_missing)
        out.append(LabeledSequence(noised, item.action, item.viewpoint,
                                   item.actor, item.dataset))
    return out


def augment_set(items: Sequence[LabeledSequence],
                config: AugmentConfig) -> list[LabeledSequence]:
    """Expand a training set with noised and flipped copies.

    The originals always come first, then the noised copies in sample order,
    then (when flipping) the mirrored versions of everything so far.
    """
    out = list(items)
    for index, item in enumerate(items):
        out.extend(noise(item, config, index))
    if config.flip:
        out.extend([flip(item) for item in out])
    return out
