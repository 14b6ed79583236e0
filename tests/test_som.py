"""Self-organizing map training, prototype libraries, bundle persistence."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from posehar.archive import write_archive
from posehar.errors import ParseError
from posehar.pca import FEATURE_DIM, fit_pca, project, unroll
from posehar.pose import N_LANDMARKS, ROOT
from posehar.preprocess import LabeledSequence, NormalizedSequence
from posehar.som import (
    LIBRARY_ARRAYS,
    MAX_UNITS,
    ModelBundle,
    PoseLibrary,
    SomConfig,
    SomFit,
    _init_weights,
    _squared_distances,
    _unit_sums,
    build_bundle,
    build_library,
    lattice,
    load_bundle,
    quantization_error,
    save_bundle,
    train_som,
)


def test_lattice_row_major():
    grid = lattice(3, 2)
    assert grid.shape == (9, 2)
    np.testing.assert_array_equal(grid[:4], [[0, 0], [0, 1], [0, 2], [1, 0]])
    assert lattice(4, 3).shape == (64, 3)
    assert lattice(1, 5).shape == (1, 5)
    for q, m in ((4, 3), (3, 2), (2, 5), (1, 1), (5, 4)):
        grid = lattice(q, m)
        assert grid.flags.c_contiguous
        assert grid.tolist() == [list(unit) for unit in itertools.product(range(q), repeat=m)]


def test_quantization_error_oracle():
    rng = np.random.default_rng(40)
    data = rng.normal(0.0, 1.0, (20, 3))
    weights = rng.normal(0.0, 1.0, (6, 3))
    expect = np.mean([min(np.linalg.norm(x - w) for w in weights) for x in data])
    assert quantization_error(data, weights) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        quantization_error(data, weights[:, :2])   # widths differ


def blobs(rng, centers, per_center=40, std=0.05):
    chunks = [rng.normal(c, std, (per_center, len(c))) for c in centers]
    return np.vstack(chunks)


def test_train_som_reduces_quantization_error():
    rng = np.random.default_rng(41)
    data = blobs(rng, [(-2.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, -2.0, 0.0)])
    config = SomConfig(q=2, m=2, epochs=15, init="random", rng_seed=5)
    fit = train_som(data, config)
    before = quantization_error(data, fit.initial_weights)
    after = quantization_error(data, fit.weights)
    assert after < before / 2
    assert after < 0.25


def test_train_som_is_deterministic():
    rng = np.random.default_rng(42)
    data = rng.normal(0.0, 1.0, (50, 4))
    config = SomConfig(q=3, m=2, epochs=6, rng_seed=11)
    a = train_som(data, config)
    b = train_som(data, config)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    c = train_som(data, SomConfig(q=3, m=2, epochs=6, rng_seed=12, init="random"))
    assert not np.array_equal(a.weights, c.weights)


def test_train_som_assignments_are_nearest_units():
    rng = np.random.default_rng(43)
    data = rng.normal(0.0, 1.0, (30, 3))
    fit = train_som(data, SomConfig(q=2, m=3, epochs=4, rng_seed=0))
    d2 = ((data[:, None, :] - fit.weights[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_array_equal(fit.assignments, d2.argmin(axis=1))


def test_train_som_single_point_collapses():
    point = np.array([[1.5, -0.5]])
    fit = train_som(np.repeat(point, 7, axis=0), SomConfig(q=2, m=1, epochs=10, rng_seed=0))
    np.testing.assert_allclose(fit.weights, np.repeat(point, 2, axis=0), atol=1e-6)
    assert quantization_error(point, fit.weights) < 1e-6


def test_train_som_single_unit_tracks_tight_cluster():
    rng = np.random.default_rng(44)
    data = rng.normal(3.0, 0.01, (60, 2))
    fit = train_som(data, SomConfig(q=1, m=1, epochs=20, rng_seed=1))
    assert fit.weights.shape == (1, 2)
    np.testing.assert_allclose(fit.weights[0], data.mean(axis=0), atol=0.02)


def init_weights_before_shared_axes(data, grid, config):
    """``_init_weights`` as it was before it shared ``pca.principal_axes``,
    verbatim: the oracle its float operations must match bit for bit."""
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


@pytest.mark.parametrize("init", ["axes", "random"])
@pytest.mark.parametrize("n", [1, 2, 7, 500])
def test_init_weights_match_the_verbatim_oracle(init, n):
    rng = np.random.default_rng(56)
    for q, m, d in ((4, 3, 3), (3, 2, 26), (2, 1, 5)):
        config = SomConfig(q=q, m=m, init=init, rng_seed=3)
        data = rng.normal(rng.normal(0.0, 2.0, d), rng.uniform(0.1, 1.5, d), (n, d))
        grid = lattice(q, m)
        np.testing.assert_array_equal(_init_weights(data, grid, config),
                                      init_weights_before_shared_axes(data, grid, config))


def batch_map_by_loops(data, config):
    """Kohonen's batch map as a loop over epochs, units and rows: the
    reference that train_som must match."""
    data = np.asarray(data, dtype=np.float64)
    grid = lattice(config.q, config.m)
    weights = _init_weights(data, grid, config)
    initial = weights.copy()

    def nearest(row, weights):
        distances = []
        for unit in weights:
            total = 0.0
            for x, w in zip(row, unit):
                total += (x - w) * (x - w)
            distances.append(total)
        return distances.index(min(distances))   # ties to the lowest unit

    for epoch in range(config.epochs):
        radius = config.q / 2.0 * np.exp(-(epoch + 1) / config.epochs)
        best = [nearest(row, weights) for row in data]
        winners = sorted(set(best))
        sums = {v: np.zeros(data.shape[1]) for v in winners}
        for row, v in zip(data, best):
            sums[v] = sums[v] + row
        updated = weights.copy()
        for u in range(len(grid)):
            numerator, mass = np.zeros(data.shape[1]), 0.0
            for v in winners:
                h = np.exp(((grid[u] - grid[v]) ** 2).sum() / (-2.0 * radius * radius))
                numerator = numerator + h * sums[v]
                mass = mass + h * best.count(v)
            updated[u] = numerator / mass
        weights = updated
    return SomFit(weights, np.array([nearest(row, weights) for row in data]), initial)


@pytest.mark.parametrize("init", ["axes", "random"])
@pytest.mark.parametrize("q, m", [(4, 3), (3, 2)])
def test_train_som_matches_batch_map_loops(init, q, m):
    rng = np.random.default_rng(53)
    config = SomConfig(q=q, m=m, epochs=3, init=init, rng_seed=8)
    for n in (1, 2, 7, 150):
        data = rng.normal(rng.normal(0.0, 2.0, m), rng.uniform(0.1, 1.5), (n, m))
        fit, loops = train_som(data, config), batch_map_by_loops(data, config)
        np.testing.assert_allclose(fit.weights, loops.weights, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(fit.initial_weights, loops.initial_weights)
        np.testing.assert_array_equal(fit.assignments, loops.assignments)


def batch_map_with_full_table(data, config):
    """train_som with the whole (U, U) table of squared lattice distances
    built before the first epoch: the reference for its winner rows."""
    grid = lattice(config.q, config.m)
    grid_d2 = np.zeros((grid.shape[0], grid.shape[0]))
    for axis in grid.T:
        diff = axis[:, None] - axis[None, :]
        grid_d2 += diff * diff
    weights = _init_weights(data, grid, config)
    for epoch in range(config.epochs):
        radius = config.q / 2.0 * np.exp(-(epoch + 1) / config.epochs)
        best = _squared_distances(data, weights).argmin(axis=1)
        won, sums, counts = _unit_sums(best, data, config.n_units)
        totals = np.column_stack([sums, counts])
        kernel = np.exp(grid_d2[won] / (-2.0 * radius * radius))
        reached = np.stack([(kernel * total[:, None]).sum(axis=0) for total in totals.T],
                           axis=1)
        weights = reached[:, :-1] / reached[:, -1:]
    return weights


@pytest.mark.parametrize("q, m", [(4, 3), (3, 2), (2, 4)])
def test_winner_rows_equal_the_full_lattice_table(q, m):
    rng = np.random.default_rng([57, q, m])
    config = SomConfig(q=q, m=m, epochs=4, init="random", rng_seed=5)
    for n in (1, 9, 120):
        data = rng.normal(0.0, 1.0, (n, 3))
        assert np.array_equal(train_som(data, config).weights,
                              batch_map_with_full_table(data, config))


def test_largest_lattice_needs_no_unit_by_unit_table():
    # A (U, U) table at q 4, m 6 (4096 units) is 128 MiB; the winners' rows
    # of 9 rows are at most 9 x 4096.
    config = SomConfig(q=4, m=6, epochs=2, init="random", rng_seed=3)
    data = np.random.default_rng(58).normal(0.0, 1.0, (9, 6))
    tracemalloc.start()
    try:
        train_som(data, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak} bytes"


def test_train_som_rejects_empty_data():
    with pytest.raises(ValueError, match="training data"):
        train_som(np.zeros((0, 2)), SomConfig(q=2, m=2, epochs=1))


def test_worst_lattice_moves_every_unit():
    # q 4, m 6 gives the largest last-epoch kernel exponent of any legal
    # lattice, 49.9: the one winner's neighborhood still reaches every unit,
    # so every unit moves onto the one training point.
    point = np.array([0.7, -1.2])
    config = SomConfig(q=4, m=6, epochs=2, init="random", rng_seed=3)
    with np.errstate(all="raise"):
        fit = train_som(np.repeat(point[None], 9, axis=0), config)
    assert np.isfinite(fit.weights).all()
    assert np.abs(fit.initial_weights - point).max() > 1.0
    np.testing.assert_allclose(fit.weights, np.broadcast_to(point, fit.weights.shape),
                               rtol=0.0, atol=1e-15)


def make_item(rng, action, viewpoint, frames=20):
    xy = rng.normal(0.0, 0.6, (frames, N_LANDMARKS, 2))
    xy[:, ROOT - 1] = 0.0
    return LabeledSequence(NormalizedSequence(xy, frozenset()),
                           action, viewpoint, "a1", "demo")


def test_build_library_prototypes_partition_the_data():
    rng = np.random.default_rng(45)
    items = [make_item(rng, "wave", "front") for _ in range(3)]
    vectors = np.vstack([unroll(i.seq.xy) for i in items])
    pca = fit_pca(vectors, 2)
    config = SomConfig(q=2, m=2, epochs=8, rng_seed=7)
    library = build_library(items, "spatial", pca, config)["wave"]

    weights = library.weight
    assert weights.sum() == vectors.shape[0]
    assert all(w >= 1 for w in weights)
    assert len(library) <= config.n_units

    # weighted prototype means recover the overall data mean in both spaces
    full = unroll(library.landmarks)
    np.testing.assert_allclose((weights[:, None] * full).sum(axis=0) / weights.sum(),
                               vectors.mean(axis=0), atol=1e-10)
    reduced = project(pca, full)
    scores = project(pca, vectors)
    np.testing.assert_allclose((weights[:, None] * reduced).sum(axis=0) / weights.sum(),
                               scores.mean(axis=0), atol=1e-10)


def test_build_library_prototypes_are_cluster_means():
    rng = np.random.default_rng(46)
    items = [make_item(rng, "wave", "front", frames=30)]
    vectors = unroll(items[0].seq.xy)
    pca = fit_pca(vectors, 2)
    config = SomConfig(q=2, m=2, epochs=5, rng_seed=3)
    library = build_library(items, "spatial", pca, config)["wave"]

    scores = project(pca, vectors)
    fit = train_som(scores, config)   # same data, config, seed: same clustering
    expected = []
    for unit in range(fit.weights.shape[0]):
        members = fit.assignments == unit
        if members.sum():
            expected.append((vectors[members].mean(axis=0), scores[members].mean(axis=0)))
    assert len(expected) == len(library)
    for landmarks, (full_mean, reduced_mean) in zip(library.landmarks, expected):
        np.testing.assert_array_equal(unroll(landmarks), full_mean)
        # Projection is affine, so it commutes with the mean up to rounding.
        np.testing.assert_allclose(project(pca, unroll(landmarks)), reduced_mean,
                                   rtol=0.0, atol=1e-12)


def test_build_library_skips_empty_cells():
    rng = np.random.default_rng(47)
    items = [make_item(rng, "wave", "front"), make_item(rng, "squat", "left")]
    vectors = np.vstack([unroll(i.seq.xy) for i in items])
    pca = fit_pca(vectors, 2)
    libraries = build_library(items, "spatial", pca, SomConfig(q=2, m=2, epochs=3, rng_seed=0))
    assert set(libraries) == {"wave", "squat"}
    # each action's prototypes come only from its own viewpoint cell
    assert set(libraries["wave"].viewpoint) == {"front"}
    assert set(libraries["squat"].viewpoint) == {"left"}


def test_landmark_array_restores_root():
    rng = np.random.default_rng(48)
    items = [make_item(rng, "wave", "front")]
    pca = fit_pca(unroll(items[0].seq.xy), 2)
    library = build_library(items, "spatial", pca, SomConfig(q=2, m=2, epochs=3, rng_seed=0))["wave"]
    landmarks = library.landmarks
    assert landmarks.shape == (len(library), N_LANDMARKS, 2)
    np.testing.assert_array_equal(landmarks[:, ROOT - 1], 0.0)


def kind_frames(items, kind):
    """The unrolled pose (spatial) or motion (temporal) frames of ``items``."""
    return np.vstack([unroll(item.seq.xy if kind == "spatial" else item.seq.deriv)
                      for item in items])


def test_bundle_roundtrip(tmp_path):
    rng = np.random.default_rng(49)
    items = [make_item(rng, action, viewpoint)
             for action in ("wave", "squat") for viewpoint in ("front", "left")]
    bundle = build_bundle(items, 2, SomConfig(q=2, m=2, epochs=4, rng_seed=9))
    path = tmp_path / "bundle.npz"
    save_bundle(path, bundle)
    back = load_bundle(path)

    assert back.actions == ("squat", "wave")
    assert back.config == bundle.config
    assert back.config["pca_components"] == 2
    for kind in ("spatial", "temporal"):
        # The bundle keeps no PCA model: projected by the model fitted on
        # every frame of the kind, the prototypes' weighted mean is the mean
        # projection of each action's frames.
        pca = fit_pca(kind_frames(items, kind), 2)
        orig, loaded = getattr(bundle, kind), getattr(back, kind)
        assert set(orig) == set(loaded)
        for action in orig:
            a, b = orig[action], loaded[action]
            assert len(a) == len(b)
            for name in LIBRARY_ARRAYS:
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
                assert getattr(a, name).dtype == getattr(b, name).dtype
            assert a.landmarks.dtype == np.float64
            assert a.weight.dtype == np.int64
            assert a.viewpoint.dtype.kind == "U"
            scores = project(pca, kind_frames([i for i in items if i.action == action], kind))
            reduced = project(pca, unroll(b.landmarks))
            np.testing.assert_allclose((b.weight[:, None] * reduced).sum(axis=0)
                                       / b.weight.sum(), scores.mean(axis=0), atol=1e-10)


def test_bundle_libraries_equal_libraries_built_per_kind():
    rng = np.random.default_rng(54)
    items = [make_item(rng, action, viewpoint, frames)
             for action, frames in (("wave", 20), ("squat", 9)) for viewpoint in ("front", "left")]
    items.append(make_item(rng, "march", "front", frames=1))   # no motion frame at all
    config = SomConfig(q=3, m=2, epochs=4, rng_seed=2)
    bundle = build_bundle(items, 2, config)
    for kind in ("spatial", "temporal"):
        alone = build_library(items, kind, fit_pca(kind_frames(items, kind), 2), config)
        together = getattr(bundle, kind)
        assert list(together) == list(alone)
        for action in alone:
            for name in LIBRARY_ARRAYS:
                np.testing.assert_array_equal(getattr(together[action], name),
                                              getattr(alone[action], name))
    assert "march" in bundle.spatial and "march" not in bundle.temporal


def test_load_bundle_rejects_other_archives(tmp_path):
    path = tmp_path / "junk.npz"
    with open(path, "wb") as fh:
        np.savez(fh, stuff=np.zeros(3))
    with pytest.raises(ParseError):
        load_bundle(path)


def library_arrays(rows=3):
    rng = np.random.default_rng(51)
    landmarks = rng.normal(0.0, 1.0, (rows, N_LANDMARKS, 2))
    landmarks[:, ROOT - 1] = 0.0
    return {"landmarks": landmarks,
            "weight": np.arange(1, rows + 1),
            "viewpoint": np.array(["front", "left", "front"][:rows])}


@pytest.mark.parametrize("name, bad", [
    ("landmarks", np.zeros((0, N_LANDMARKS, 2))),      # no prototype at all
    ("landmarks", np.zeros((3, N_LANDMARKS - 1, 2))),  # a landmark short
    ("landmarks", np.zeros((N_LANDMARKS, 2))),         # a single unstacked prototype
    ("landmarks", np.zeros((3, FEATURE_DIM))),         # unrolled vectors
    ("landmarks", np.zeros((2, N_LANDMARKS, 2))),      # row counts disagree
    ("weight", np.ones(2)),
    ("weight", np.ones((3, 1))),
    ("viewpoint", np.array(["front"] * 4)),
    ("landmarks", np.full((3, N_LANDMARKS, 2), np.nan)),
    ("landmarks", np.full((3, N_LANDMARKS, 2), np.inf)),
    ("landmarks", np.full((3, N_LANDMARKS, 2), 0.5)),    # root off the origin
])
def test_pose_library_rejects_bad_arrays(name, bad):
    arrays = library_arrays()
    arrays[name] = bad
    with pytest.raises(ValueError):
        PoseLibrary("wave", "spatial", **arrays)


def test_pose_library_stores_read_only_copies():
    arrays = library_arrays()
    library = PoseLibrary("wave", "spatial", **arrays)
    assert len(library) == 3
    assert library.landmarks[0, ROOT - 1].tolist() == [0.0, 0.0]
    assert library.weight.dtype == np.int64
    assert library.viewpoint.dtype.kind == "U"
    for name in LIBRARY_ARRAYS:
        value = getattr(library, name)
        assert not value.flags.writeable
        assert value.flags.c_contiguous
        with pytest.raises(ValueError):
            value[0] = value[1]
    arrays["landmarks"][0, 0, 0] = 99.0   # the caller's array is not shared
    assert library.landmarks[0, 0, 0] != 99.0


def corrupt_bundle(tmp_path, edit):
    """A saved two-action bundle with ``edit`` applied to its entries."""
    rng = np.random.default_rng(52)
    items = [make_item(rng, action, "front") for action in ("march", "wave")]
    source = tmp_path / "source.npz"
    save_bundle(source, build_bundle(items, 2, SomConfig(q=2, m=2, epochs=2, rng_seed=1)))
    with np.load(source) as data:
        arrays = {key: data[key] for key in data.files}
    edit(arrays)
    path = tmp_path / "corrupt.npz"
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return path


def drop_entry(arrays):
    del arrays["lib/spatial/march/landmarks"]


def drop_weight(arrays):
    arrays["lib/spatial/march/weight"] = arrays["lib/spatial/march/weight"][:-1]


def drop_landmark(arrays):
    arrays["lib/temporal/wave/landmarks"] = arrays["lib/temporal/wave/landmarks"][:, 1:]


def nan_prototype(arrays):
    arrays["lib/spatial/march/landmarks"] = arrays["lib/spatial/march/landmarks"] * np.nan


def carry_full(arrays):
    arrays["lib/spatial/march/full"] = unroll(arrays["lib/spatial/march/landmarks"])


def move_root(arrays):
    arrays["lib/temporal/march/landmarks"][-1, ROOT - 1, 1] = 1e-300


def carry_reduced(arrays):
    arrays["lib/temporal/wave/reduced"] = np.zeros((len(arrays["lib/temporal/wave/weight"]), 2))


@pytest.mark.parametrize("edit", [drop_entry, drop_weight, drop_landmark, nan_prototype,
                                  carry_full, carry_reduced, move_root])
def test_load_bundle_rejects_corrupt_libraries(tmp_path, edit):
    path = corrupt_bundle(tmp_path, edit)
    with pytest.raises(ParseError, match="corrupt.npz"):
        load_bundle(path)


def edit_meta(change):
    def edit(arrays):
        meta = json.loads(str(arrays["meta"]))
        change(meta)
        arrays["meta"] = np.array(json.dumps(meta))
    return edit


@pytest.mark.parametrize("edit", [
    edit_meta(lambda meta: meta.update(config=[])),
    edit_meta(lambda meta: meta["libraries"]["spatial"].remove("wave")),
    lambda arrays: arrays.update(junk=np.zeros(2)),
    edit_meta(lambda meta: meta.update(actions=["zzz"])),
    edit_meta(lambda meta: meta.update(actions=["wave", "march"])),
    edit_meta(lambda meta: meta.update(actions=["march"])),
], ids=["config not an object", "unlisted library", "extra entry",
        "actions not its libraries", "actions unsorted", "action left out"])
def test_load_bundle_rejects_what_its_meta_does_not_imply(tmp_path, edit):
    # a wrong actions list once loaded as bundle.actions next to other libraries
    with pytest.raises(ParseError, match="corrupt.npz"):
        load_bundle(corrupt_bundle(tmp_path, edit))


def test_load_bundle_does_not_read_pca_components(tmp_path):
    # Only the libraries are read back; the settings that built them are kept as given.
    bundle = load_bundle(corrupt_bundle(tmp_path, edit_meta(
        lambda meta: meta["config"].update(pca_components=None))))
    assert bundle.config["pca_components"] is None


def test_load_bundle_refuses_a_bundle_without_libraries(tmp_path):
    path = tmp_path / "empty.npz"
    save_bundle(path, ModelBundle({}, {}, (), {"pca_components": 3, "som": {}}))
    with pytest.raises(ParseError, match="empty.npz: a bundle needs at least one spatial library"):
        load_bundle(path)


def test_saved_bundle_holds_only_its_libraries(tmp_path):
    path = corrupt_bundle(tmp_path, lambda arrays: None)
    with np.load(path) as data:
        names = set(data.files)
        meta = json.loads(str(data["meta"]))
    assert set(meta) == {"format", "actions", "config", "libraries"}
    assert meta["format"] == "posehar-bundle/3"
    assert names == {"meta"} | {f"lib/{kind}/{action}/{name}"
                                for kind, actions in meta["libraries"].items()
                                for action in actions
                                for name in ("landmarks", "weight", "viewpoint")}
    assert meta["libraries"] == {"spatial": ["march", "wave"], "temporal": ["march", "wave"]}


def write_old_bundle(path, bundle, fmt):
    """``bundle`` in the layout of ``fmt``, posehar-bundle/1 or /2: each
    prototype as its (P, 26) ``full`` vector and a (P, m) ``reduced``
    projection. /1 also holds the PCA model of each kind, a ``viewpoints``
    meta list and the online trainer's som.lr0."""
    rng = np.random.default_rng(55)
    config = dict(bundle.config)
    meta = {"actions": list(bundle.actions), "config": config,
            "libraries": {kind: sorted(getattr(bundle, kind)) for kind in ("spatial", "temporal")}}
    arrays = {}
    for kind in ("spatial", "temporal"):
        pca = fit_pca(rng.normal(0.0, 1.0, (10, FEATURE_DIM)), config["pca_components"])
        for action, library in getattr(bundle, kind).items():
            full = unroll(library.landmarks)
            arrays.update({f"lib/{kind}/{action}/full": full,
                           f"lib/{kind}/{action}/reduced": project(pca, full),
                           f"lib/{kind}/{action}/weight": library.weight,
                           f"lib/{kind}/{action}/viewpoint": library.viewpoint})
        if fmt == "posehar-bundle/1":
            arrays.update({f"pca/{kind}/mean": pca.mean,
                           f"pca/{kind}/components": pca.components,
                           f"pca/{kind}/eigenvalues": pca.eigenvalues,
                           f"pca/{kind}/total_variance": np.array(pca.total_variance)})
    if fmt == "posehar-bundle/1":
        meta["viewpoints"] = ["front"]
        config["som"] = {**config["som"], "lr0": 0.5}
    write_archive(path, fmt, meta, arrays)


@pytest.mark.parametrize("fmt", ["posehar-bundle/1", "posehar-bundle/2"])
def test_load_bundle_refuses_older_formats(tmp_path, fmt):
    rng = np.random.default_rng(52)
    items = [make_item(rng, action, "front") for action in ("march", "wave")]
    bundle = build_bundle(items, 2, SomConfig(q=2, m=2, epochs=2, rng_seed=1))
    path = tmp_path / "old.npz"
    write_old_bundle(path, bundle, fmt)
    with pytest.raises(ParseError, match=f"old.npz: format '{fmt}' is not posehar-bundle/3$"):
        load_bundle(path)


def test_load_bundle_rejects_pca_entries_in_format_3(tmp_path):
    path = corrupt_bundle(tmp_path, lambda arrays: arrays.update(
        {"pca/spatial/mean": np.zeros(FEATURE_DIM)}))
    with pytest.raises(ParseError, match="corrupt.npz: unexpected entries pca/spatial/mean"):
        load_bundle(path)


@pytest.mark.parametrize("content", [b"garbage", b"", b"PK\x03\x04garbage"])
def test_load_bundle_rejects_non_archives(tmp_path, content):
    path = tmp_path / "bundle.npz"
    path.write_bytes(content)
    with pytest.raises(ParseError, match="bundle.npz"):
        load_bundle(path)


def test_build_bundle_dimension_mismatch():
    rng = np.random.default_rng(50)
    items = [make_item(rng, "wave", "front")]
    with pytest.raises(ValueError):
        build_bundle(items, 3, SomConfig(q=2, m=2, epochs=2))


def test_som_config_validation():
    with pytest.raises(ValueError):
        SomConfig(q=0)
    with pytest.raises(ValueError):
        SomConfig(m=0)
    with pytest.raises(ValueError):
        SomConfig(epochs=0)
    with pytest.raises(ValueError):
        SomConfig(init="kmeans")
    assert SomConfig(q=4, m=3).n_units == 64
    with pytest.raises(ValueError, match="rng_seed"):
        SomConfig(rng_seed=-1)
    with pytest.raises(ValueError, match=f"must be in 1..{FEATURE_DIM}"):
        SomConfig(q=1, m=FEATURE_DIM + 1)
    assert SomConfig(q=2, m=12).n_units == MAX_UNITS
    assert SomConfig(q=MAX_UNITS, m=1).n_units == MAX_UNITS
    assert SomConfig(q=1, m=FEATURE_DIM).n_units == 1


@pytest.mark.parametrize("q, m", [(4, 20), (2, 13), (MAX_UNITS + 1, 1), (10**12, 13)])
def test_som_config_refuses_a_lattice_above_the_cap(q, m):
    with pytest.raises(ValueError, match=f"exceeds {MAX_UNITS} units"):
        SomConfig(q=q, m=m)
