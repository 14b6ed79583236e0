"""Prototype libraries built with self-organizing maps.

For every (action, viewpoint) cell of the training data, the reduced frame
vectors are clustered by a self-organizing map laid out as an m-dimensional
lattice with q units per side (q^m units total). Units are then replaced by
the arithmetic mean of their assigned members, in both the reduced space and
the original 26-dimensional space, and empty units are discarded. Stacking
the surviving prototypes of all viewpoints of an action gives that action's
library; pose libraries come from pose vectors, motion libraries from
derivative vectors.

Training is the classic online scheme: per step, the best-matching unit is
the nearest unit in data space (ties to the lowest unit index), and every
unit moves toward the sample weighted by a Gaussian neighborhood kernel on
the lattice. Learning rate and radius both shrink as exp(-t / T) with t the
global step counter and T the total number of steps.

All maps of a bundle train in lockstep (:func:`train_soms`): one step loop
over a (cells, U, d) weight tensor, longest cell first, updates every cell
still running. Each cell keeps its own seed, sample order, total and
initial weights, and numpy applies to each element the IEEE operations of
the one-map loop in the same order, so every map is bit-identical to
training it alone; :func:`train_som` is the one-cell case.
"""

from __future__ import annotations

import itertools
import logging
import os
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .archive import entry, no_more, read_archive, write_archive
from .errors import ParseError
from .pca import FEATURE_DIM, PcaModel, fit_pca, project, reroll, unroll
from .preprocess import LabeledSequence

log = logging.getLogger(__name__)

BUNDLE_FORMAT = "posehar-bundle/1"
# Largest lattice, q ** m units: 64 times the default 4 ** 3. Training keeps
# a (U, U) float64 table of lattice distances, 128 MiB at this size.
MAX_UNITS = 4096
LIBRARY_KINDS = ("spatial", "temporal")
LIBRARY_ARRAYS = ("full", "reduced", "weight", "viewpoint")
PCA_ARRAYS = ("mean", "components", "eigenvalues", "total_variance")


@dataclass(frozen=True)
class SomConfig:
    """Lattice geometry and training schedule of one map.

    q is the units-per-side of the m-dimensional lattice. The default radius
    starts at q / 2; learning rate and radius both decay as
    exp(-step / total steps). ``init`` is "axes" (units span the leading principal
    axes of the training data, the default) or "random" (seeded Gaussian
    draws around the data mean). m is at most the pose-vector width and
    the lattice at most ``MAX_UNITS`` units.
    """

    q: int = 4
    m: int = 3
    epochs: int = 20
    lr0: float = 0.5
    radius0: float | None = None
    init: str = "axes"
    rng_seed: int = 0

    def __post_init__(self) -> None:
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
        if not self.lr0 > 0 or (self.radius0 is not None and not self.radius0 > 0):
            raise ValueError("lr0 and radius0 must be positive")
        if self.init not in ("axes", "random"):
            raise ValueError(f"unsupported init {self.init!r}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")

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
    d2 = ((data[:, None, :] - weights[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.min(axis=1)).mean())


def _init_weights(data: np.ndarray, grid: np.ndarray, config: SomConfig) -> np.ndarray:
    mean = data.mean(axis=0)
    if config.init == "random":
        rng = np.random.default_rng([config.rng_seed, 1])
        std = data.std(axis=0)
        std[std == 0.0] = 1.0
        return rng.normal(mean, std, (grid.shape[0], data.shape[1]))
    # Linear lattice spanning the leading principal axes of this data slice.
    if data.shape[0] < 2:
        return np.tile(mean, (grid.shape[0], 1))
    centered = data - mean
    cov = centered.T @ centered / (data.shape[0] - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1][: config.m]
    spread = 2.0 * np.sqrt(np.clip(eigenvalues[order], 0.0, None))
    axes = eigenvectors[:, order].T  # (m, d)
    fractions = (grid - (config.q - 1) / 2.0) / max(config.q - 1, 1)
    return mean + (fractions * spread) @ axes


def _schedule(sizes: Sequence[int], config: SomConfig) -> np.ndarray:
    """Sample order of every map as a (steps, cells) index array into the
    cells' concatenated rows, for ``sizes`` sorted longest first.

    Cell c draws a fresh permutation of its own rows per epoch from its own
    ``default_rng(rng_seed)``; its column is 0 past its last step.
    """
    schedule = np.zeros((config.epochs * sizes[0], len(sizes)), dtype=np.intp)
    offset = 0
    for c, n in enumerate(sizes):
        rng = np.random.default_rng(config.rng_seed)
        for epoch in range(config.epochs):
            schedule[epoch * n : (epoch + 1) * n, c] = rng.permutation(n) + offset
        offset += n
    return schedule


def train_soms(datas: Sequence[np.ndarray], config: SomConfig) -> list[SomFit]:
    """Train one map per (N_c, d) array, all in one shared step loop.

    The maps live in one (cells, U, d) tensor, longest cell first, so the
    cells still running at step t are the prefix ``weights[:a]``; a cell
    drops out once its own epochs * N_c steps are done. Every cell keeps its
    own seed, schedule, total and initial weights, so each fit is
    bit-identical to ``train_soms([data], config)`` on that cell alone.
    """
    datas = [np.ascontiguousarray(data, dtype=np.float64) for data in datas]
    for data in datas:
        if data.ndim != 2 or data.shape[0] < 1:
            raise ValueError(f"expected (N, d) training data, got {data.shape}")
    if len({data.shape[1] for data in datas}) > 1:
        raise ValueError("every map's training data must have the same width d")
    if not datas:
        return []
    grid = lattice(config.q, config.m)
    grid_d2 = np.zeros((grid.shape[0], grid.shape[0]))   # squared lattice distances
    for axis in grid.T:
        diff = axis[:, None] - axis[None, :]
        grid_d2 += diff * diff
    radius0 = config.radius0 if config.radius0 is not None else config.q / 2.0

    order = sorted(range(len(datas)), key=lambda c: -datas[c].shape[0])
    sizes = [datas[c].shape[0] for c in order]
    totals = config.epochs * np.array(sizes)
    weights = np.stack([_init_weights(datas[c], grid, config) for c in order])
    initial = weights.copy()
    flat = np.concatenate([datas[c] for c in order])
    schedule = _schedule(sizes, config)

    # Each cell's float operations and their order are those of a one-map
    # online loop (-t / total, -2.0 * radius * radius, argmin ties to the
    # lowest unit); bit-identity with a map trained alone rests on that.
    t = 0
    for a in range(len(order), 0, -1):   # cells [:a] run until cell a-1 is done
        active, total = weights[:a], totals[:a]
        while t < total[-1]:
            decay = np.exp(-t / total)
            lr = config.lr0 * decay
            radius = radius0 * decay
            towards = flat[schedule[t, :a]][:, None, :] - active
            best = np.argmin((towards * towards).sum(axis=2), axis=1)
            kernel = np.exp(grid_d2[best] / (-2.0 * radius * radius)[:, None])
            active += (lr[:, None] * kernel)[:, :, None] * towards
            t += 1

    fits: list[SomFit | None] = [None] * len(datas)
    for k, c in enumerate(order):
        d2 = ((datas[c][:, None, :] - weights[k][None, :, :]) ** 2).sum(axis=2)
        fits[c] = SomFit(weights[k], d2.argmin(axis=1), initial[k])
    return fits


def train_som(data: np.ndarray, config: SomConfig) -> SomFit:
    """Train one map on (N, d) vectors. Deterministic under a fixed seed and
    input order."""
    return train_soms([data], config)[0]


# --------------------------------------------------------------------------
# Libraries


@dataclass(frozen=True)
class PoseLibrary:
    """All prototypes of one action, stacked over its viewpoints.

    Row p of every array describes prototype p: ``full`` is the mean of its
    members' unrolled vectors, ``reduced`` the mean of their projections,
    ``weight`` the member count and ``viewpoint`` the cell it came from.
    ``landmarks`` holds the same prototypes as (P, 14, 2) coordinates with
    the root at the origin. All arrays are stored as read-only copies.
    """

    action: str
    kind: str
    full: np.ndarray        # (P, 26) float64
    reduced: np.ndarray     # (P, m) float64
    weight: np.ndarray      # (P,) int64
    viewpoint: np.ndarray   # (P,) str
    landmarks: np.ndarray = field(init=False, repr=False)   # (P, 14, 2)

    def __post_init__(self) -> None:
        full, reduced, weight, viewpoint = (
            np.array(getattr(self, name), dtype=dtype, order="C", copy=True)
            for name, dtype in zip(LIBRARY_ARRAYS, (np.float64, np.float64, np.int64, str)))
        rows = full.shape[0] if full.ndim == 2 else 0
        if (rows < 1 or full.shape[1] != FEATURE_DIM or reduced.ndim != 2
                or reduced.shape[0] != rows or weight.shape != (rows,)
                or viewpoint.shape != (rows,)
                or not (np.isfinite(full).all() and np.isfinite(reduced).all())):
            raise ValueError(
                f"{self.kind} library {self.action!r} needs finite full (P >= 1, {FEATURE_DIM}) "
                f"and reduced (P, m), weight (P,) and viewpoint (P,) arrays; got "
                f"{full.shape}, {reduced.shape}, {weight.shape} and {viewpoint.shape}")
        for name, value in zip(LIBRARY_ARRAYS + ("landmarks",),
                               (full, reduced, weight, viewpoint, reroll(full))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return int(self.full.shape[0])


def _unrolled(items: Sequence[LabeledSequence], kind: str) -> list[np.ndarray]:
    """Each item's pose (spatial) or motion (temporal) frames as (T, 26) rows."""
    return [unroll(item.seq.xy if kind == "spatial" else item.seq.deriv) for item in items]


def _cell_frames(items: Sequence[LabeledSequence], kind: str) -> dict[tuple[str, str], np.ndarray]:
    """The unrolled frames of each non-empty (action, viewpoint) cell, in item order."""
    chunks: dict[tuple[str, str], list[np.ndarray]] = {}
    for item, frames in zip(items, _unrolled(items, kind)):
        if frames.shape[0]:
            chunks.setdefault((item.action, item.viewpoint), []).append(frames)
    return {cell: np.vstack(parts) for cell, parts in chunks.items()}


def _build_libraries(items: Sequence[LabeledSequence], pcas: Mapping[str, PcaModel],
                     config: SomConfig) -> dict[str, dict[str, PoseLibrary]]:
    """Libraries of every kind in ``pcas``, from one :func:`train_soms` call
    over all their (kind, action, viewpoint) cells."""
    actions = sorted({item.action for item in items})
    viewpoints = sorted({item.viewpoint for item in items})
    cells = []   # (kind, action, viewpoint, full, reduced) per non-empty cell
    for kind, pca in pcas.items():
        frames = _cell_frames(items, kind)
        for action, viewpoint in itertools.product(actions, viewpoints):
            full = frames.get((action, viewpoint))
            if full is None:
                log.warning("no %s frames for action=%r viewpoint=%r; cell skipped",
                            kind, action, viewpoint)
                continue
            cells.append((kind, action, viewpoint, full, project(pca, full)))
    fits = train_soms([cell[-1] for cell in cells], config)

    rows = {(kind, action): [] for kind in pcas for action in actions}
    for (kind, action, viewpoint, full, reduced), fit in zip(cells, fits):
        for unit in range(fit.weights.shape[0]):
            members = fit.assignments == unit
            count = int(members.sum())
            if count:
                rows[kind, action].append((full[members].mean(axis=0),
                                           reduced[members].mean(axis=0), count, viewpoint))
    libraries: dict[str, dict[str, PoseLibrary]] = {kind: {} for kind in pcas}
    for (kind, action), found in rows.items():
        if found:
            libraries[kind][action] = PoseLibrary(action, kind, *map(np.array, zip(*found)))
        else:
            log.warning("action %r has no %s prototypes at all", action, kind)
    return libraries


def build_library(items: Sequence[LabeledSequence], kind: str, pca: PcaModel,
                  config: SomConfig) -> dict[str, PoseLibrary]:
    """Cluster each (action, viewpoint) cell and stack prototypes per action.

    Cells without any frame are skipped with a warning; actions whose every
    cell is empty get no library at all, which the embedding stage reports
    as MissingLibrary if it is ever asked for them.
    """
    if kind not in LIBRARY_KINDS:
        raise ValueError(f"kind must be one of {LIBRARY_KINDS}")
    return _build_libraries(items, {kind: pca}, config)[kind]


# --------------------------------------------------------------------------
# Bundle persistence


@dataclass(frozen=True)
class ModelBundle:
    """Everything the embedding stage needs, as produced from training data."""

    spatial_pca: PcaModel
    temporal_pca: PcaModel
    spatial: Mapping[str, PoseLibrary]
    temporal: Mapping[str, PoseLibrary]
    actions: tuple[str, ...]
    viewpoints: tuple[str, ...]
    config: dict


def build_bundle(items: Sequence[LabeledSequence], n_components: int = 3,
                 som_config: SomConfig | None = None) -> ModelBundle:
    """Fit both reduction models, then both library kinds in one lockstep
    :func:`train_soms` call."""
    som_config = som_config or SomConfig(m=n_components)
    if som_config.m != n_components:
        raise ValueError("som lattice dimensionality must equal the reduced dimension")
    pcas = {kind: fit_pca(np.vstack(_unrolled(items, kind)), n_components)
            for kind in LIBRARY_KINDS}
    libraries = _build_libraries(items, pcas, som_config)
    return ModelBundle(
        spatial_pca=pcas["spatial"],
        temporal_pca=pcas["temporal"],
        spatial=libraries["spatial"],
        temporal=libraries["temporal"],
        actions=tuple(sorted({item.action for item in items})),
        viewpoints=tuple(sorted({item.viewpoint for item in items})),
        config={"pca_components": n_components, "som": asdict(som_config)},
    )


def save_bundle(path: str | os.PathLike, bundle: ModelBundle) -> None:
    """Write a bundle as a ``posehar-bundle/1`` archive (see :mod:`posehar.archive`)."""
    meta = {
        "actions": list(bundle.actions),
        "viewpoints": list(bundle.viewpoints),
        "config": bundle.config,
        "libraries": {kind: sorted(getattr(bundle, kind)) for kind in LIBRARY_KINDS},
    }
    arrays = {f"pca/{kind}/{name}": np.asarray(getattr(getattr(bundle, f"{kind}_pca"), name))
              for kind in LIBRARY_KINDS for name in PCA_ARRAYS}
    arrays.update((f"lib/{kind}/{action}/{name}", getattr(library, name))
                  for kind in LIBRARY_KINDS for action, library in getattr(bundle, kind).items()
                  for name in LIBRARY_ARRAYS)
    write_archive(path, BUNDLE_FORMAT, meta, arrays)


def _load_pca(path, arrays: dict, kind: str, m: int) -> PcaModel:
    mean, components, eigenvalues, total_variance = (
        entry(path, arrays, f"pca/{kind}/{name}", shape)
        for name, shape in zip(PCA_ARRAYS, ((FEATURE_DIM,), (m, FEATURE_DIM), (m,), ())))
    return PcaModel(mean, components, eigenvalues, float(total_variance))


def load_bundle(path: str | os.PathLike) -> ModelBundle:
    """Read a bundle written by :func:`save_bundle`.

    Beyond the checks every archive gets, the meta entry must give an
    integer ``pca_components`` m and list the actions, viewpoints and
    libraries as strings, and the archive must hold exactly the PCA models
    and libraries the meta implies, with their dtypes and shapes: (26,),
    (m, 26), (m,) and a scalar per PCA model, (P, 26), (P, m), (P,)
    integer and (P,) string arrays per library. Anything else raises
    ParseError naming the file.
    """
    meta, arrays = read_archive(path, {BUNDLE_FORMAT})
    try:
        m = meta["config"]["pca_components"]
        if type(m) is not int:
            raise ParseError(f"{path}: meta pca_components must be an integer")
        names = {key: meta[key] for key in ("actions", "viewpoints")}
        names.update((kind, meta["libraries"][kind]) for kind in LIBRARY_KINDS)
        if not all(isinstance(value, list) and all(isinstance(v, str) for v in value)
                   for value in names.values()):
            raise ParseError(f"{path}: meta actions, viewpoints and libraries must list strings")
        shapes = ((None, FEATURE_DIM), (None, m), (None,), (None,))
        libraries = {kind: {action: PoseLibrary(action, kind, *(
            entry(path, arrays, f"lib/{kind}/{action}/{name}", shape, dtype)
            for name, shape, dtype in zip(LIBRARY_ARRAYS, shapes, "ffiU")))
            for action in names[kind]} for kind in LIBRARY_KINDS}
        pcas = {kind: _load_pca(path, arrays, kind, m) for kind in LIBRARY_KINDS}
        no_more(path, arrays)
        return ModelBundle(
            spatial_pca=pcas["spatial"],
            temporal_pca=pcas["temporal"],
            spatial=libraries["spatial"],
            temporal=libraries["temporal"],
            actions=tuple(names["actions"]),
            viewpoints=tuple(names["viewpoints"]),
            config=meta["config"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: not a valid model bundle ({exc})") from exc
