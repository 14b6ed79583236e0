"""Self-organizing map training, prototype libraries, bundle persistence."""

import itertools
import json

import numpy as np
import pytest

from posehar.errors import ParseError
from posehar.pca import FEATURE_DIM, fit_pca, project, unroll
from posehar.pose import N_LANDMARKS, ROOT
from posehar.preprocess import LabeledSequence, NormalizedSequence
from posehar.som import (
    MAX_UNITS,
    ModelBundle,
    PoseLibrary,
    SomConfig,
    SomFit,
    _init_weights,
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


def batch_map_by_loops(data, config):
    """Kohonen's batch map as a loop over epochs, units and rows: the
    reference that train_som must match."""
    data = np.asarray(data, dtype=np.float64)
    grid = lattice(config.q, config.m)
    weights = _init_weights(data, grid, config)
    initial = weights.copy()
    radius0 = config.radius0 if config.radius0 is not None else config.q / 2.0

    def nearest(row, weights):
        distances = []
        for unit in weights:
            total = 0.0
            for x, w in zip(row, unit):
                total += (x - w) * (x - w)
            distances.append(total)
        return distances.index(min(distances))   # ties to the lowest unit

    for epoch in range(config.epochs):
        radius = radius0 * np.exp(-(epoch + 1) / config.epochs)
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
            if mass > 0:
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


def test_train_som_rejects_empty_data():
    with pytest.raises(ValueError, match="training data"):
        train_som(np.zeros((0, 2)), SomConfig(q=2, m=2, epochs=1))


def test_tiny_radius_moves_only_winners():
    # The neighborhood of a unit reaches no other unit, so a unit that never
    # wins has no neighborhood mass at all and must keep its initial weights.
    point = np.array([0.7, -1.2])
    config = SomConfig(q=4, m=2, epochs=5, radius0=1e-3, init="random", rng_seed=3)
    with np.errstate(divide="raise", invalid="raise"):
        fit = train_som(np.repeat(point[None], 9, axis=0), config)
    assert np.isfinite(fit.weights).all()
    winner = int(((fit.initial_weights - point) ** 2).sum(axis=1).argmin())
    np.testing.assert_array_equal(fit.assignments, winner)
    np.testing.assert_allclose(fit.weights[winner], point, rtol=0.0, atol=1e-15)
    others = np.arange(config.n_units) != winner
    np.testing.assert_array_equal(fit.weights[others], fit.initial_weights[others])


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
    full = library.full
    np.testing.assert_allclose((weights[:, None] * full).sum(axis=0) / weights.sum(),
                               vectors.mean(axis=0), atol=1e-10)
    reduced = library.reduced
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
    for full, reduced, (full_mean, reduced_mean) in zip(library.full, library.reduced,
                                                         expected):
        np.testing.assert_array_equal(full, full_mean)
        np.testing.assert_array_equal(reduced, reduced_mean)


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
    np.testing.assert_array_equal(unroll(landmarks), library.full)


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
        # The bundle keeps no PCA model: the reduced prototypes live in the
        # space of the model fitted on every frame of the kind, and their
        # weighted mean is the mean projection of each action's frames.
        pca = fit_pca(kind_frames(items, kind), 2)
        orig, loaded = getattr(bundle, kind), getattr(back, kind)
        assert set(orig) == set(loaded)
        for action in orig:
            a, b = orig[action], loaded[action]
            assert len(a) == len(b)
            for name in ("full", "reduced", "weight", "viewpoint", "landmarks"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
                assert getattr(a, name).dtype == getattr(b, name).dtype
            assert a.weight.dtype == np.int64
            assert a.viewpoint.dtype.kind == "U"
            scores = project(pca, kind_frames([i for i in items if i.action == action], kind))
            np.testing.assert_allclose((b.weight[:, None] * b.reduced).sum(axis=0)
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
            for name in ("full", "reduced", "weight", "viewpoint"):
                np.testing.assert_array_equal(getattr(together[action], name),
                                              getattr(alone[action], name))
    assert "march" in bundle.spatial and "march" not in bundle.temporal


def test_load_bundle_rejects_other_archives(tmp_path):
    path = tmp_path / "junk.npz"
    with open(path, "wb") as fh:
        np.savez(fh, stuff=np.zeros(3))
    with pytest.raises(ParseError):
        load_bundle(path)


def library_arrays(rows=3, width=2):
    rng = np.random.default_rng(51)
    return {"full": rng.normal(0.0, 1.0, (rows, FEATURE_DIM)),
            "reduced": rng.normal(0.0, 1.0, (rows, width)),
            "weight": np.arange(1, rows + 1),
            "viewpoint": np.array(["front", "left", "front"][:rows])}


@pytest.mark.parametrize("name, bad", [
    ("full", np.zeros((0, FEATURE_DIM))),      # no prototype at all
    ("full", np.zeros((3, FEATURE_DIM - 1))),  # wrong full width
    ("full", np.zeros(FEATURE_DIM)),           # a single unstacked vector
    ("reduced", np.zeros(3)),                  # 1-D reduced
    ("reduced", np.zeros((2, 2))),             # row counts disagree
    ("weight", np.ones(2)),
    ("weight", np.ones((3, 1))),
    ("viewpoint", np.array(["front"] * 4)),
    ("full", np.full((3, FEATURE_DIM), np.nan)),
    ("reduced", np.full((3, 2), np.inf)),
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
    assert library.weight.dtype == np.int64
    assert library.viewpoint.dtype.kind == "U"
    for name in ("full", "reduced", "weight", "viewpoint", "landmarks"):
        value = getattr(library, name)
        assert not value.flags.writeable
        assert value.flags.c_contiguous
        with pytest.raises(ValueError):
            value[0] = value[1]
    arrays["full"][0, 0] = 99.0   # the caller's array is not shared
    assert library.full[0, 0] != 99.0
    assert library.landmarks[0, ROOT - 1].tolist() == [0.0, 0.0]


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
    del arrays["lib/spatial/march/full"]


def drop_weight(arrays):
    arrays["lib/spatial/march/weight"] = arrays["lib/spatial/march/weight"][:-1]


def widen_reduced(arrays):
    reduced = arrays["lib/temporal/wave/reduced"]
    arrays["lib/temporal/wave/reduced"] = np.hstack([reduced, reduced[:, :1]])


def nan_prototype(arrays):
    arrays["lib/spatial/march/full"] = arrays["lib/spatial/march/full"] * np.nan


@pytest.mark.parametrize("edit", [drop_entry, drop_weight, widen_reduced, nan_prototype])
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
    edit_meta(lambda meta: meta["config"].update(pca_components=None)),
    edit_meta(lambda meta: meta["libraries"]["spatial"].remove("wave")),
    lambda arrays: arrays.update(junk=np.zeros(2)),
], ids=["no pca_components", "unlisted library", "extra entry"])
def test_load_bundle_rejects_what_its_meta_does_not_imply(tmp_path, edit):
    with pytest.raises(ParseError, match="corrupt.npz"):
        load_bundle(corrupt_bundle(tmp_path, edit))


def test_saved_bundle_holds_only_its_libraries(tmp_path):
    path = corrupt_bundle(tmp_path, lambda arrays: None)
    with np.load(path) as data:
        names = set(data.files)
        meta = json.loads(str(data["meta"]))
    assert set(meta) == {"format", "actions", "config", "libraries"}
    assert meta["format"] == "posehar-bundle/2"
    assert names == {"meta"} | {f"lib/{kind}/{action}/{name}"
                                for kind, actions in meta["libraries"].items()
                                for action in actions
                                for name in ("full", "reduced", "weight", "viewpoint")}
    assert meta["libraries"] == {"spatial": ["march", "wave"], "temporal": ["march", "wave"]}


def as_format_1(arrays):
    """Rewrite a saved bundle in the posehar-bundle/1 layout: the PCA model of
    each kind, a ``viewpoints`` meta list and the online trainer's som.lr0."""
    meta = json.loads(str(arrays["meta"]))
    meta["format"] = "posehar-bundle/1"
    meta["viewpoints"] = ["front"]
    meta["config"]["som"]["lr0"] = 0.5
    arrays["meta"] = np.array(json.dumps(meta))
    rng = np.random.default_rng(55)
    for kind in ("spatial", "temporal"):
        pca = fit_pca(rng.normal(0.0, 1.0, (10, FEATURE_DIM)), 2)
        arrays.update({f"pca/{kind}/mean": pca.mean, f"pca/{kind}/components": pca.components,
                       f"pca/{kind}/eigenvalues": pca.eigenvalues,
                       f"pca/{kind}/total_variance": np.array(pca.total_variance)})


def test_load_bundle_reads_a_bundle_fitted_with_a_learning_rate(tmp_path, caplog):
    # posehar-bundle/1 files come from the online trainer, which recorded
    # its som.lr0, and hold PCA models that nothing reads.
    current = load_bundle(corrupt_bundle(tmp_path, lambda arrays: None))
    path = corrupt_bundle(tmp_path, as_format_1)
    with np.load(path) as data:
        assert sum(name.startswith("pca/") for name in data.files) == 8
    caplog.clear()
    bundle = load_bundle(path)
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and "posehar-bundle/1" in warnings[0] and str(path) in warnings[0]
    assert bundle.config["som"]["lr0"] == 0.5
    assert bundle.actions == current.actions
    for kind in ("spatial", "temporal"):
        old, new = getattr(bundle, kind), getattr(current, kind)
        assert list(old) == list(new) == ["march", "wave"]
        for action in new:
            for name in ("full", "reduced", "weight", "viewpoint"):
                np.testing.assert_array_equal(getattr(old[action], name),
                                              getattr(new[action], name))


def test_load_bundle_rejects_pca_entries_in_format_2(tmp_path):
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
    for radius0 in (0.0, float("nan")):
        with pytest.raises(ValueError, match="radius0"):
            SomConfig(radius0=radius0)
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
