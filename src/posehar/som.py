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
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import zipfile
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ParseError
from .pca import FEATURE_DIM, PcaModel, fit_pca, project, reroll, unroll
from .preprocess import LabeledSequence

log = logging.getLogger(__name__)

BUNDLE_FORMAT = "posehar-bundle/1"
LIBRARY_KINDS = ("spatial", "temporal")
LIBRARY_ARRAYS = ("full", "reduced", "weight", "viewpoint")


@dataclass(frozen=True)
class SomConfig:
    """Lattice geometry and training schedule of one map.

    q is the units-per-side of the m-dimensional lattice. The default radius
    starts at q / 2; learning rate and radius both decay as
    exp(-step / total steps). ``init`` is "axes" (units span the leading principal
    axes of the training data, the default) or "random" (seeded Gaussian
    draws around the data mean).
    """

    q: int = 4
    m: int = 3
    epochs: int = 20
    lr0: float = 0.5
    radius0: float | None = None
    init: str = "axes"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.q < 1 or self.m < 1:
            raise ValueError("q and m must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.init not in ("axes", "random"):
            raise ValueError(f"unsupported init {self.init!r}")

    @property
    def n_units(self) -> int:
        return self.q ** self.m


@dataclass(frozen=True)
class SomFit:
    """Trained map: unit weights, per-sample assignments, lattice layout."""

    weights: np.ndarray           # (U, d)
    assignments: np.ndarray      # (N,) unit index per training sample
    grid: np.ndarray              # (U, m) integer lattice coordinates
    initial_weights: np.ndarray   # (U, d) before any update


def lattice(q: int, m: int) -> np.ndarray:
    """Integer lattice coordinates of all q^m units, row-major."""
    return np.array(list(itertools.product(range(q), repeat=m)), dtype=np.float64)


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


def train_som(data: np.ndarray, config: SomConfig) -> SomFit:
    """Train one map on (N, d) vectors. Deterministic under a fixed seed and
    input order."""
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 1:
        raise ValueError(f"expected (N, d) training data, got {data.shape}")
    grid = lattice(config.q, config.m)
    weights = _init_weights(data, grid, config)
    initial = weights.copy()

    diff = grid[:, None, :] - grid[None, :, :]
    grid_d2 = (diff * diff).sum(axis=2)   # squared lattice distances
    radius0 = config.radius0 if config.radius0 is not None else config.q / 2.0
    radius0 = max(float(radius0), 1e-12)
    total = config.epochs * data.shape[0]

    rng = np.random.default_rng(config.rng_seed)
    step = 0
    for _ in range(config.epochs):
        for i in rng.permutation(data.shape[0]):
            x = data[i]
            decay = np.exp(-step / total)
            lr = config.lr0 * decay
            radius = radius0 * decay
            towards = x - weights
            best = int(np.argmin((towards * towards).sum(axis=1)))
            kernel = np.exp(grid_d2[best] / (-2.0 * radius * radius))
            weights += (lr * kernel)[:, None] * towards
            step += 1

    d2 = ((data[:, None, :] - weights[None, :, :]) ** 2).sum(axis=2)
    assignments = d2.argmin(axis=1)
    return SomFit(weights, assignments, grid, initial)


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


def _cell_frames(items: Sequence[LabeledSequence], kind: str) -> dict[tuple[str, str], list[np.ndarray]]:
    cells: dict[tuple[str, str], list[np.ndarray]] = {}
    for item in items:
        frames = item.seq.xy if kind == "spatial" else item.seq.deriv
        if frames.shape[0] == 0:
            continue
        cells.setdefault((item.action, item.viewpoint), []).append(unroll(frames))
    return cells


def build_library(items: Sequence[LabeledSequence], kind: str, pca: PcaModel,
                  config: SomConfig) -> dict[str, PoseLibrary]:
    """Cluster each (action, viewpoint) cell and stack prototypes per action.

    Cells without any frame are skipped with a warning; actions whose every
    cell is empty get no library at all, which the embedding stage reports
    as MissingLibrary if it is ever asked for them.
    """
    if kind not in LIBRARY_KINDS:
        raise ValueError(f"kind must be one of {LIBRARY_KINDS}")
    cells = _cell_frames(items, kind)
    actions = sorted({item.action for item in items})
    viewpoints = sorted({item.viewpoint for item in items})
    libraries: dict[str, PoseLibrary] = {}
    for action in actions:
        rows = []   # (full, reduced, weight, viewpoint) per prototype
        for viewpoint in viewpoints:
            chunks = cells.get((action, viewpoint))
            if not chunks:
                log.warning("no %s frames for action=%r viewpoint=%r; cell skipped",
                            kind, action, viewpoint)
                continue
            full = np.vstack(chunks)
            reduced = project(pca, full)
            fit = train_som(reduced, config)
            for unit in range(fit.weights.shape[0]):
                members = fit.assignments == unit
                count = int(members.sum())
                if count:
                    rows.append((full[members].mean(axis=0), reduced[members].mean(axis=0),
                                 count, viewpoint))
        if rows:
            libraries[action] = PoseLibrary(action, kind, *map(np.array, zip(*rows)))
        else:
            log.warning("action %r has no %s prototypes at all", action, kind)
    return libraries


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
    """Fit both reduction models and both library kinds from training data."""
    som_config = som_config or SomConfig(m=n_components)
    if som_config.m != n_components:
        raise ValueError("som lattice dimensionality must equal the reduced dimension")
    pose_vectors = np.vstack([unroll(item.seq.xy) for item in items])
    deriv_chunks = [unroll(item.seq.deriv) for item in items if item.seq.deriv.shape[0] > 0]
    deriv_vectors = (np.vstack(deriv_chunks) if deriv_chunks
                     else np.zeros((0, FEATURE_DIM)))
    spatial_pca = fit_pca(pose_vectors, n_components)
    temporal_pca = fit_pca(deriv_vectors, n_components)
    return ModelBundle(
        spatial_pca=spatial_pca,
        temporal_pca=temporal_pca,
        spatial=build_library(items, "spatial", spatial_pca, som_config),
        temporal=build_library(items, "temporal", temporal_pca, som_config),
        actions=tuple(sorted({item.action for item in items})),
        viewpoints=tuple(sorted({item.viewpoint for item in items})),
        config={"pca_components": n_components, "som": asdict(som_config)},
    )


def _pack_pca(arrays: dict, prefix: str, model: PcaModel) -> None:
    arrays[f"{prefix}/mean"] = model.mean
    arrays[f"{prefix}/components"] = model.components
    arrays[f"{prefix}/eigenvalues"] = model.eigenvalues
    arrays[f"{prefix}/total_variance"] = np.float64(model.total_variance)


def _unpack_pca(data, prefix: str) -> PcaModel:
    return PcaModel(
        mean=data[f"{prefix}/mean"],
        components=data[f"{prefix}/components"],
        eigenvalues=data[f"{prefix}/eigenvalues"],
        total_variance=float(data[f"{prefix}/total_variance"]),
    )


def save_bundle(path: str | os.PathLike, bundle: ModelBundle) -> None:
    """Write a bundle to a .npz archive with a versioned JSON metadata entry."""
    meta = {
        "format": BUNDLE_FORMAT,
        "actions": list(bundle.actions),
        "viewpoints": list(bundle.viewpoints),
        "config": bundle.config,
        "libraries": {kind: sorted(getattr(bundle, kind)) for kind in LIBRARY_KINDS},
    }
    arrays: dict = {"meta": np.array(json.dumps(meta, sort_keys=True))}
    _pack_pca(arrays, "pca/spatial", bundle.spatial_pca)
    _pack_pca(arrays, "pca/temporal", bundle.temporal_pca)
    for kind in LIBRARY_KINDS:
        for action, library in getattr(bundle, kind).items():
            arrays.update({f"lib/{kind}/{action}/{name}": getattr(library, name)
                           for name in LIBRARY_ARRAYS})
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_bundle(path: str | os.PathLike) -> ModelBundle:
    """Read a bundle written by :func:`save_bundle`.

    A file that is not such an archive, lacks an entry, or holds library
    arrays of the wrong shape raises ParseError naming the file.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            if not isinstance(meta, dict) or meta.get("format") != BUNDLE_FORMAT:
                raise ParseError(f"{path}: not a {BUNDLE_FORMAT} archive")
            components = meta["config"]["pca_components"]
            libraries: dict[str, dict[str, PoseLibrary]] = {}
            for kind in LIBRARY_KINDS:
                libraries[kind] = {}
                for action in meta["libraries"][kind]:
                    prefix = f"lib/{kind}/{action}"
                    library = PoseLibrary(action, kind,
                                          *(data[f"{prefix}/{name}"] for name in LIBRARY_ARRAYS))
                    if library.reduced.shape[1] != components:
                        raise ParseError(f"{path}: {prefix}/reduced has "
                                         f"{library.reduced.shape[1]} columns, not {components}")
                    libraries[kind][action] = library
            return ModelBundle(
                spatial_pca=_unpack_pca(data, "pca/spatial"),
                temporal_pca=_unpack_pca(data, "pca/temporal"),
                spatial=libraries["spatial"],
                temporal=libraries["temporal"],
                actions=tuple(meta["actions"]),
                viewpoints=tuple(meta["viewpoints"]),
                config=meta["config"],
            )
    except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise ParseError(f"{path}: not a valid model bundle ({exc})") from exc
