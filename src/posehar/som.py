"""Prototype libraries built with self-organizing maps.

For every (action, viewpoint) cell of the training data, the reduced frame
vectors are clustered by a self-organizing map laid out as an m-dimensional
lattice with q units per side (q^m units total). Units are then replaced by
the arithmetic mean of their assigned members' landmark coordinates, and
empty units are discarded: the reduced space only chooses the clusters.
Stacking the surviving prototypes of all viewpoints of an action gives that
action's library; pose libraries come from pose vectors, motion libraries
from derivative vectors.

Training is Kohonen's batch map (Kohonen, Self-Organizing Maps, 3rd ed.,
2001). Each epoch e assigns every sample to its nearest unit in data space
(ties to the lowest unit index), then sets every unit at once to the
neighborhood-weighted mean of the samples,
sum_v H[u, v] S_v / sum_v H[u, v] n_v, where S_v and n_v are the sum and
count of the samples unit v won and H is a Gaussian kernel on the lattice
whose radius shrinks as (q / 2) * exp(-(e + 1) / epochs). The kernel reaches
every unit: the last epoch's radius is q / (2 exp(1)), and over every legal
lattice its largest exponent, m (q - 1)^2 / (2 radius^2), is at most 49.9
(q 4, m 6). Every kernel entry is then at least 2.2e-22, so every unit has
neighborhood mass and moves.
"""

from __future__ import annotations

import logging
import os
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .archive import entry, no_more, read_archive, write_archive
from .errors import ParseError, check_settings
from .pca import FEATURE_DIM, PcaModel, fit_pca, principal_axes, project, reroll, unroll
from .pose import N_LANDMARKS, ROOT
from .preprocess import LabeledSequence

log = logging.getLogger(__name__)

BUNDLE_FORMAT = "posehar-bundle/3"
# Largest lattice, q ** m units: 64 times the default 4 ** 3. The cap bounds
# each training epoch's (N, U) float64 sample-to-unit distances and its
# (K, U) lattice distances and neighborhood kernel from the K <= min(U, N)
# winning units: 32 KiB per sample and per winner at this size.
MAX_UNITS = 4096
LIBRARY_KINDS = ("spatial", "temporal")
LIBRARY_ARRAYS = ("landmarks", "weight", "viewpoint")


@dataclass(frozen=True)
class SomConfig:
    """Lattice geometry and training schedule of one map.

    q is the units-per-side of the m-dimensional lattice. The neighborhood
    radius of epoch e is (q / 2) * exp(-(e + 1) / epochs). ``init`` is "axes"
    (units span the leading principal axes of the training data, the
    default) or "random" (Gaussian draws around the data mean, seeded by
    ``rng_seed``). m is at most the pose-vector width and the lattice at
    most ``MAX_UNITS`` units. The constructor refuses what a config file
    may not hold.
    """

    q: int = 4
    m: int = 3
    epochs: int = 20
    init: str = "axes"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        check_settings(self)
        if self.q < 1:
            raise ValueError("q must be positive")
        # m is also the PCA dimension, which the pose vector bounds.
        if not 1 <= self.m <= FEATURE_DIM:
            raise ValueError(f"som.m must be in 1..{FEATURE_DIM}, got {self.m}")
        if self.q ** self.m > MAX_UNITS:
            raise ValueError(f"lattice q ** m ({self.q} ** {self.m}) exceeds "
                             f"{MAX_UNITS} units")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.init not in ("axes", "random"):
            raise ValueError(f"unsupported init {self.init!r}")

    @property
    def n_units(self) -> int:
        return self.q ** self.m


@dataclass(frozen=True)
class SomFit:
    """Trained map: unit weights and per-sample assignments."""

    weights: np.ndarray           # (U, d)
    assignments: np.ndarray      # (N,) unit index per training sample
    initial_weights: np.ndarray   # (U, d) before any update


def lattice(q: int, m: int) -> np.ndarray:
    """Integer lattice coordinates of all q^m units, row-major."""
    return np.indices((q,) * m).reshape(m, -1).T.astype(np.float64, order="C")


def quantization_error(data: np.ndarray, weights: np.ndarray) -> float:
    """Mean distance from each sample to its nearest unit."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    return float(np.sqrt(_squared_distances(data, weights).min(axis=1)).mean())


def _init_weights(data: np.ndarray, grid: np.ndarray, config: SomConfig) -> np.ndarray:
    if config.init == "random":
        rng = np.random.default_rng([config.rng_seed, 1])
        std = data.std(axis=0)
        std[std == 0.0] = 1.0
        return rng.normal(data.mean(axis=0), std, (grid.shape[0], data.shape[1]))
    # Linear lattice spanning the leading principal axes of this data slice.
    if data.shape[0] < 2:
        return np.tile(data.mean(axis=0), (grid.shape[0], 1))
    mean, eigenvalues, eigenvectors, order = principal_axes(data)
    order = order[: config.m]
    spread = 2.0 * np.sqrt(np.clip(eigenvalues[order], 0.0, None))
    axes = eigenvectors[:, order].T  # (m, d)
    fractions = (grid - (config.q - 1) / 2.0) / max(config.q - 1, 1)
    return mean + (fractions * spread) @ axes


def _squared_distances(data: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(N, U) squared distances from each row to each unit, summed over the
    columns in order: the same float operations as
    ``((data[:, None] - weights[None]) ** 2).sum(axis=2)`` without its
    (N, U, d) temporary."""
    d2 = np.zeros((data.shape[0], weights.shape[0]))
    for column, unit_column in zip(data.T, weights.T, strict=True):
        diff = np.subtract.outer(column, unit_column)
        diff *= diff
        d2 += diff
    return d2


def _unit_sums(assignments: np.ndarray, data: np.ndarray,
               n_units: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The units that won a row (ascending), and each one's row sum (K, d),
    added in row order as ``mean(axis=0)`` does for d > 1, and row count (K,)."""
    counts = np.bincount(assignments, minlength=n_units)
    won = np.flatnonzero(counts)
    sums = np.column_stack([np.bincount(assignments, column, n_units)[won]
                            for column in data.T])
    return won, sums, counts[won]


def train_som(data: np.ndarray, config: SomConfig) -> SomFit:
    """Train one map on (N, d) vectors with the batch map. Deterministic:
    there is no sample order, and ``rng_seed`` only draws a random init."""
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 1:
        raise ValueError(f"expected (N, d) training data, got {data.shape}")
    grid = lattice(config.q, config.m)
    weights = _init_weights(data, grid, config)
    initial = weights.copy()
    for epoch in range(config.epochs):
        radius = config.q / 2.0 * np.exp(-(epoch + 1) / config.epochs)
        best = _squared_distances(data, weights).argmin(axis=1)
        won, sums, counts = _unit_sums(best, data, config.n_units)
        totals = np.column_stack([sums, counts])   # (K, d + 1), K <= min(U, N)
        # Squared lattice distances from the winners only: a (U, U) table
        # would take 128 MiB at q 4, m 6. Sums of squared integers are exact.
        won_d2 = np.zeros((won.size, grid.shape[0]))
        for axis in grid.T:
            diff = axis[won, None] - axis[None, :]
            won_d2 += diff * diff
        kernel = np.exp(won_d2 / (-2.0 * radius * radius))   # (K, U)
        # Added winner by winner along the outer axis rather than by a BLAS
        # product, whose rounding depends on its kernels: units can tie
        # exactly (two winners, a symmetric lattice), and rounding then picks
        # the next epoch's winner.
        reached = np.stack([(kernel * total[:, None]).sum(axis=0) for total in totals.T],
                           axis=1)
        weights = reached[:, :-1] / reached[:, -1:]
    return SomFit(weights, _squared_distances(data, weights).argmin(axis=1), initial)


# --------------------------------------------------------------------------
# Libraries


@dataclass(frozen=True)
class PoseLibrary:
    """All prototypes of one action, stacked over its viewpoints.

    Row p of every array describes prototype p: ``landmarks`` is the mean
    of its members' (14, 2) coordinates, root at the origin, ``weight`` the
    member count and ``viewpoint`` the cell it came from. All arrays are
    stored as read-only copies.
    """

    action: str
    kind: str
    landmarks: np.ndarray   # (P, 14, 2) float64
    weight: np.ndarray      # (P,) int64
    viewpoint: np.ndarray   # (P,) str

    def __post_init__(self) -> None:
        arrays = [np.array(getattr(self, name), dtype=dtype, order="C", copy=True)
                  for name, dtype in zip(LIBRARY_ARRAYS, (np.float64, np.int64, str))]
        landmarks, weight, viewpoint = arrays
        rows = landmarks.shape[0] if landmarks.ndim == 3 else 0
        if (rows < 1 or landmarks.shape[1:] != (N_LANDMARKS, 2) or weight.shape != (rows,)
                or viewpoint.shape != (rows,) or not np.isfinite(landmarks).all()
                or landmarks[:, ROOT - 1].any()):
            raise ValueError(
                f"{self.kind} library {self.action!r} needs finite landmarks (P >= 1, "
                f"{N_LANDMARKS}, 2) with the root at the origin, weight (P,) and viewpoint "
                f"(P,) arrays; got {landmarks.shape}, {weight.shape} and {viewpoint.shape}")
        for name, value in zip(LIBRARY_ARRAYS, arrays):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return int(self.landmarks.shape[0])


def build_library(items: Sequence[LabeledSequence], kind: str, pca: PcaModel,
                  config: SomConfig) -> dict[str, PoseLibrary]:
    """Cluster each (action, viewpoint) cell of pose (spatial) or motion
    (temporal) frames on its own map, trained on their projections, and
    stack the prototypes per action. Empty cells are skipped with a warning;
    an action without any frame gets no library, which embedding reports as
    MissingLibrary if asked for it."""
    if kind not in LIBRARY_KINDS:
        raise ValueError(f"kind must be one of {LIBRARY_KINDS}")
    cells: dict[tuple[str, str], list[np.ndarray]] = {}
    for item in items:
        frames = unroll(item.seq.xy if kind == "spatial" else item.seq.deriv)
        if frames.shape[0]:
            cells.setdefault((item.action, item.viewpoint), []).append(frames)
    viewpoints = sorted({item.viewpoint for item in items})
    libraries: dict[str, PoseLibrary] = {}
    for action in sorted({item.action for item in items}):
        parts = []   # (landmarks, weight, viewpoint) arrays per cell
        for viewpoint in viewpoints:
            if (action, viewpoint) not in cells:
                log.warning("no %s frames for action=%r viewpoint=%r; cell skipped",
                            kind, action, viewpoint)
                continue
            full = np.vstack(cells[action, viewpoint])
            _, sums, counts = _unit_sums(train_som(project(pca, full), config).assignments,
                                         full, config.n_units)
            parts.append((reroll(sums / counts[:, None]), counts,
                          np.full(counts.shape, viewpoint)))
        if parts:
            libraries[action] = PoseLibrary(action, kind, *map(np.concatenate, zip(*parts)))
        else:
            log.warning("action %r has no %s prototypes at all", action, kind)
    return libraries


# --------------------------------------------------------------------------
# Bundle persistence


@dataclass(frozen=True)
class ModelBundle:
    """Everything the embedding stage needs: the pose (spatial) and motion
    (temporal) library of each action, the sorted action names, and the
    settings that built them (``pca_components`` and ``som``)."""

    spatial: Mapping[str, PoseLibrary]
    temporal: Mapping[str, PoseLibrary]
    actions: tuple[str, ...]
    config: dict


def build_bundle(items: Sequence[LabeledSequence], n_components: int,
                 som_config: SomConfig) -> ModelBundle:
    """Per kind, fit a PCA model on every frame of that kind and build the
    libraries with it. The models are not kept: embedding compares frames
    with the prototypes' landmarks, never with their projections."""
    if som_config.m != n_components:
        raise ValueError("som lattice dimensionality must equal the reduced dimension")
    libraries = {}
    for kind in LIBRARY_KINDS:
        frames = np.vstack([unroll(item.seq.xy if kind == "spatial" else item.seq.deriv)
                            for item in items])
        libraries[kind] = build_library(items, kind, fit_pca(frames, n_components), som_config)
    return ModelBundle(
        spatial=libraries["spatial"],
        temporal=libraries["temporal"],
        actions=tuple(sorted({item.action for item in items})),
        config={"pca_components": n_components, "som": asdict(som_config)},
    )


def save_bundle(path: str | os.PathLike, bundle: ModelBundle) -> None:
    """Write a bundle as a ``posehar-bundle/3`` archive (see :mod:`posehar.archive`)."""
    meta = {
        "actions": list(bundle.actions),
        "config": bundle.config,
        "libraries": {kind: sorted(getattr(bundle, kind)) for kind in LIBRARY_KINDS},
    }
    arrays = {f"lib/{kind}/{action}/{name}": getattr(library, name)
              for kind in LIBRARY_KINDS for action, library in getattr(bundle, kind).items()
              for name in LIBRARY_ARRAYS}
    write_archive(path, BUNDLE_FORMAT, meta, arrays)


def load_bundle(path: str | os.PathLike) -> ModelBundle:
    """Read a bundle written by :func:`save_bundle`.

    Beyond the checks every archive gets, the meta entry must hold a
    ``config`` object and list the libraries of each kind as strings, with
    at least one spatial library, and the actions as the sorted union of
    the library names, the list :func:`posehar.embed.embed_sequence` takes.
    The archive must hold exactly the libraries the meta lists, each as
    (P, 14, 2) float, (P,) integer and (P,) string arrays. Anything else
    raises ParseError naming the file.
    """
    meta, arrays = read_archive(path, BUNDLE_FORMAT)
    try:
        if not isinstance(meta["config"], dict):
            raise ParseError(f"{path}: meta config must be a JSON object")
        names = {"actions": meta["actions"]}
        names.update((kind, meta["libraries"][kind]) for kind in LIBRARY_KINDS)
        if not all(isinstance(value, list) and all(isinstance(v, str) for v in value)
                   for value in names.values()):
            raise ParseError(f"{path}: meta actions and libraries must list strings")
        if not names["spatial"]:
            raise ParseError(f"{path}: a bundle needs at least one spatial library")
        listed = sorted(set(names["spatial"]) | set(names["temporal"]))
        if names["actions"] != listed:
            raise ParseError(f"{path}: meta actions {names['actions']} are not the "
                             f"sorted library actions {listed}")
        shapes = ((None, N_LANDMARKS, 2), (None,), (None,))
        libraries = {kind: {action: PoseLibrary(action, kind, *(
            entry(path, arrays, f"lib/{kind}/{action}/{name}", shape, dtype)
            for name, shape, dtype in zip(LIBRARY_ARRAYS, shapes, "fiU")))
            for action in names[kind]} for kind in LIBRARY_KINDS}
        no_more(path, arrays)
        return ModelBundle(
            spatial=libraries["spatial"],
            temporal=libraries["temporal"],
            actions=tuple(names["actions"]),
            config=meta["config"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: not a valid model bundle ({exc})") from exc
