"""Acceptance checks for the whole pipeline, one criterion per test.

Each test prints a single summary line (visible under ``pytest -s``) so a
full run reads as a checklist. The end-to-end test (a08) trains the
classifier twenty-odd times and takes a few minutes; everything else is
seconds.
"""

import time

import numpy as np
import pytest

from posehar.augment import AugmentConfig, augment_set, flip
from posehar.classifier import (
    ClassifierConfig,
    batch_loss,
    init_model,
    loss_and_grad,
    pad_batch,
    predict_proba,
)
from posehar.embed import (
    EMPTY_SUBSET_SENTINEL,
    _nearest_distances,
    channel_names,
    embed_frame,
    embed_sequence,
)
from posehar.evaluate import PipelineConfig, Protocol, run_experiment
from posehar.pca import fit_pca, project, reroll, unroll
from posehar.pose import (
    MIRROR,
    N_LANDMARKS,
    ROOT,
    SUBSET_NAMES,
    SUBSETS,
    VIEWPOINTS,
    Sample,
)
from posehar.preprocess import (
    NormalizedSequence,
    normalize,
    preprocess_sample,
    treat_missing,
)
from posehar.som import (
    PoseLibrary,
    SomConfig,
    build_library,
    quantization_error,
    train_som,
)
from posehar.synth import ARCHETYPES, MotionSpec, generate, generate_corpus


def remade(sample: Sample, xy: np.ndarray) -> Sample:
    return Sample(xy, sample.present, sample.action, sample.viewpoint,
                  sample.actor, sample.dataset)


def translated(sample: Sample, offset) -> Sample:
    return remade(sample, sample.xy + np.asarray(offset, dtype=np.float64))


# --------------------------------------------------------------------------
# a01  translation and scale invariance of normalization


def test_a01_normalization_translation_and_scale_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_scale = 0.0
    for i in range(100):
        spec = MotionSpec(ARCHETYPES[i % len(ARCHETYPES)],
                          VIEWPOINTS[i % len(VIEWPOINTS)],
                          frames=10, actor_seed=i,
                          occlusions=((5, 2, 4),) if i % 3 == 0 else ())
        sample = generate(spec)
        xy = sample.xy
        # snap to a 2^-10 grid so adding a grid-aligned offset is exact in
        # float64 and the root subtraction cancels it bit for bit
        sample = remade(sample, np.round(xy * 1024.0) / 1024.0)
        reference = normalize(treat_missing(sample))

        offset = rng.integers(-262144, 262144, 2) / 1024.0
        shifted = normalize(treat_missing(translated(sample, offset)))
        assert np.array_equal(shifted.xy, reference.xy)
        assert np.array_equal(shifted.deriv, reference.deriv)
        assert shifted.persistent_missing == reference.persistent_missing

        k = rng.uniform(0.1, 10.0)
        xy = sample.xy
        scaled = normalize(treat_missing(remade(sample, xy * k)))
        delta = max(np.abs(scaled.xy - reference.xy).max(),
                    np.abs(scaled.deriv - reference.deriv).max())
        worst_scale = max(worst_scale, delta)
        assert delta < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\nA1 PASS: translation exact, scale delta <= {worst_scale:.2e}, "
          f"{elapsed:.2f}s for 100 sequences")


# --------------------------------------------------------------------------
# a02  missing-data treatment fixtures


def fixture_sample(xy: np.ndarray, present: np.ndarray) -> Sample:
    return Sample(xy, present, "wave", "front", "a1", "demo")


def fixture_coords(T: int) -> np.ndarray:
    j = np.arange(1, N_LANDMARKS + 1, dtype=np.float64)
    t = np.arange(T, dtype=np.float64)
    xy = np.empty((T, N_LANDMARKS, 2))
    xy[:, :, 0] = 10.0 * j[None, :] + t[:, None]
    xy[:, :, 1] = 5.0 * j[None, :] - t[:, None]
    return xy


def test_a02_missing_data_treatment_fixtures():
    # 1. a frame without its root is dropped
    xy = fixture_coords(3)
    present = np.ones((3, N_LANDMARKS), dtype=bool)
    present[1, ROOT - 1] = False
    clean = treat_missing(fixture_sample(xy, present))
    assert np.array_equal(clean.xy, xy[[0, 2]])
    assert clean.persistent_missing == frozenset()

    # 2. more than eight missing landmarks drops the frame; exactly eight
    #    keeps it
    xy = fixture_coords(3)
    present = np.ones((3, N_LANDMARKS), dtype=bool)
    present[1, 2:11] = False   # nine landmarks (3..11) gone
    clean = treat_missing(fixture_sample(xy, present))
    assert np.array_equal(clean.xy, xy[[0, 2]])
    present = np.ones((3, N_LANDMARKS), dtype=bool)
    present[1, 2:10] = False   # eight landmarks (3..10) gone
    clean = treat_missing(fixture_sample(xy, present))
    expected = xy.copy()
    expected[1, 2:10] = xy[0, 2:10]   # equidistant neighbours, earlier wins
    assert np.array_equal(clean.xy, expected)

    # 3. nearest-neighbour fill with an equidistant tie
    xy = fixture_coords(5)
    present = np.ones((5, N_LANDMARKS), dtype=bool)
    present[1:4, 4] = False   # landmark 5 observed only at t=0 and t=4
    clean = treat_missing(fixture_sample(xy, present))
    expected = xy.copy()
    expected[1, 4] = xy[0, 4]   # dist 1 vs 3
    expected[2, 4] = xy[0, 4]   # dist 2 vs 2, tie -> earlier
    expected[3, 4] = xy[4, 4]   # dist 3 vs 1
    assert np.array_equal(clean.xy, expected)
    assert clean.persistent_missing == frozenset()

    # 4. a landmark absent on one side copies its mirror counterpart's
    #    already-filled track
    xy = fixture_coords(3)
    present = np.ones((3, N_LANDMARKS), dtype=bool)
    present[:, 5 - 1] = False   # right wrist never seen
    present[1, 8 - 1] = False   # left wrist has one gap of its own
    clean = treat_missing(fixture_sample(xy, present))
    counterpart = xy[:, 8 - 1].copy()
    counterpart[1] = xy[0, 8 - 1]   # gap filled first (tie -> earlier)
    assert np.array_equal(clean.xy[:, 8 - 1], counterpart)
    assert np.array_equal(clean.xy[:, 5 - 1], counterpart)
    assert clean.persistent_missing == frozenset()

    # 5. both sides absent for the whole sequence -> persistent, zero rows
    xy = fixture_coords(3)
    present = np.ones((3, N_LANDMARKS), dtype=bool)
    present[:, 5 - 1] = False
    present[:, 8 - 1] = False
    present[:, 1 - 1] = False   # the head mirrors onto itself
    clean = treat_missing(fixture_sample(xy, present))
    assert clean.persistent_missing == frozenset({1, 5, 8})
    for j in (1, 5, 8):
        assert np.array_equal(clean.xy[:, j - 1], np.zeros((3, 2)))
    untouched = [j - 1 for j in range(1, N_LANDMARKS + 1) if j not in (1, 5, 8)]
    assert np.array_equal(clean.xy[:, untouched], xy[:, untouched])

    print("\nA2 PASS: all five treatment fixtures match exactly")


# --------------------------------------------------------------------------
# a03  frame embedding equals a brute-force oracle


def oracle_embed(frame: np.ndarray, protos: np.ndarray,
                 missing: frozenset) -> np.ndarray:
    out = np.empty(len(SUBSET_NAMES))
    for s, subset in enumerate(SUBSET_NAMES):
        rows = [j - 1 for j in SUBSETS[subset] if j not in missing]
        if not rows:
            out[s] = EMPTY_SUBSET_SENTINEL
            continue
        best = np.inf
        for p in range(protos.shape[0]):
            total = 0.0
            for r in rows:
                dx = frame[r, 0] - protos[p, r, 0]
                dy = frame[r, 1] - protos[p, r, 1]
                total += float(np.sqrt(dx * dx + dy * dy))
            best = min(best, total / len(rows))
        out[s] = best
    return out


def test_a03_embedding_matches_brute_force_oracle():
    rng = np.random.default_rng(103)
    cases = [frozenset(), frozenset({5}), frozenset({3, 4, 5}),
             frozenset({9, 13, 1})]
    protos = None
    for i in range(100):
        if i % 10 == 0:
            protos = rng.normal(0.0, 1.0, (64, N_LANDMARKS, 2))
            protos[:, ROOT - 1] = 0.0
        frame = rng.normal(0.0, 1.0, (N_LANDMARKS, 2))
        frame[ROOT - 1] = 0.0
        missing = cases[i % len(cases)]
        got = embed_frame(frame, protos, missing)
        want = oracle_embed(frame, protos, missing)
        assert np.array_equal(got, want)
    print("\nA3 PASS: 100 poses x 64 prototypes x 5 subsets, exact match")


@pytest.mark.parametrize("moved", ["none", "frames", "library", "both", "elbow", "head"])
def test_a03_landmarks_at_the_origin_match_the_oracle(moved):
    """The kernel skips the root when it is at the origin in every frame and
    every prototype of a call, and sums every other landmark. A root moved
    off the origin in one frame or in one hand-built prototype is summed
    again; a head missing leaves the root (or the landmark after it) to
    start J; zeroed limb rows, and a head at the origin, start their
    subset's sum with a summed zero, or leave it only zeros to sum."""
    rng = np.random.default_rng([103, len(moved)])
    frames = rng.normal(0.0, 1.0, (9, N_LANDMARKS, 2))
    protos = rng.normal(0.0, 1.0, (40, N_LANDMARKS, 2))
    frames[:, ROOT - 1] = protos[:, ROOT - 1] = 0.0
    if moved in ("frames", "both"):
        frames[4, ROOT - 1] = (0.0, -0.75)
    if moved in ("library", "both"):
        protos[17, ROOT - 1] = (0.5, 0.0)
    if moved == "elbow":   # right shoulder and elbow at the origin
        frames[:, 2:4] = protos[:, 2:4] = -0.0
    if moved == "head":    # landmark 1 at the origin, and not missing
        frames[:, 0] = protos[:, 0] = 0.0
    blocks = [protos[:1], protos[1:25], protos[25:]]
    all_but_root = frozenset(j for j in range(1, N_LANDMARKS + 1) if j != ROOT)
    for missing in (frozenset(), frozenset({1}), frozenset({1, 3}), frozenset({5}),
                    frozenset({4, 5}), all_but_root):
        got = _nearest_distances(frames, blocks, missing)
        for t, frame in enumerate(frames):
            want = [oracle_embed(frame, block, missing) for block in blocks]
            assert np.array_equal(got[:, :, t], np.array(want)), (missing, t)
            assert np.array_equal(embed_frame(frame, protos, missing),
                                  oracle_embed(frame, protos, missing)), (missing, t)


# --------------------------------------------------------------------------
# a04  map training sanity on seeded blobs


def test_a04_som_quantization_and_cluster_means():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    centers = np.array([[0.0, 0.0, 0.0], [6.0, 0.0, 3.0], [0.0, 7.0, -4.0]])
    data = np.vstack([rng.normal(c, 0.6, (200, 3)) for c in centers])
    config = SomConfig(q=2, m=3, epochs=20, init="random", rng_seed=4)
    fit = train_som(data, config)
    qe_before = quantization_error(data, fit.initial_weights)
    qe_after = quantization_error(data, fit.weights)
    assert qe_after <= 0.5 * qe_before
    assert len(np.unique(fit.assignments)) <= config.n_units

    # prototypes extracted from a map are the means of their clusters
    samples = generate_corpus(2, ("wave-one-arm", "squat"), ("front",),
                              seed=6, frames=25)
    items = [preprocess_sample(s)[0] for s in samples]
    stacked = np.vstack([unroll(item.seq.xy) for item in items])
    pca = fit_pca(stacked, 3)
    lib_config = SomConfig(q=2, m=3, epochs=10, rng_seed=4)
    libraries = build_library(items, "spatial", pca, lib_config)
    worst = 0.0
    for action, library in libraries.items():
        assert len(library) <= lib_config.n_units
        full = np.vstack([unroll(item.seq.xy) for item in items
                          if item.action == action])
        reduced = project(pca, full)
        refit = train_som(reduced, lib_config)
        index = 0
        for unit in range(refit.weights.shape[0]):
            members = np.flatnonzero(refit.assignments == unit)
            if members.size == 0:
                continue
            proto_full = unroll(library.landmarks[index])
            proto_reduced = project(pca, proto_full)
            proto_weight = library.weight[index]
            index += 1
            acc_full = np.zeros(full.shape[1])
            acc_red = np.zeros(reduced.shape[1])
            for r in members:   # sequential sum, independent of np.mean
                acc_full = acc_full + full[r]
                acc_red = acc_red + reduced[r]
            worst = max(worst,
                        np.abs(proto_full - acc_full / members.size).max(),
                        np.abs(proto_reduced - acc_red / members.size).max())
            assert proto_weight == members.size
        assert index == len(library)
    assert worst < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\nA4 PASS: qe {qe_before:.3f} -> {qe_after:.3f} "
          f"(<= 0.5x), cluster-mean delta {worst:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# a05  reduction model equals an independent decomposition


def test_a05_pca_matches_svd_oracle():
    rng = np.random.default_rng(105)
    worst_value = 0.0
    worst_angle = 0.0
    for trial in range(20):
        n = int(rng.integers(40, 200))
        m = (2, 3, 4, 6, 8)[trial % 5]
        scales = 2.0 ** (-np.arange(26) / 2.0)
        basis, _ = np.linalg.qr(rng.normal(0.0, 1.0, (26, 26)))
        data = rng.normal(0.0, 1.0, (n, 26)) * scales @ basis.T
        data += rng.normal(0.0, 5.0, 26)
        model = fit_pca(data, m)

        centered = data - data.mean(axis=0)
        _, singular, vt = np.linalg.svd(centered, full_matrices=False)
        eigenvalues = singular**2 / (n - 1)
        rel = np.abs(model.eigenvalues - eigenvalues[:m]) / eigenvalues[:m]
        worst_value = max(worst_value, rel.max())
        assert rel.max() < 1e-8

        overlap = model.components @ vt[:m].T
        cosines = np.linalg.svd(overlap, compute_uv=False)
        angles = np.arccos(np.clip(cosines, -1.0, 1.0))
        worst_angle = max(worst_angle, angles.max())
        assert angles.max() < 1e-6
    print(f"\nA5 PASS: 20 datasets, eigenvalue rel err <= {worst_value:.2e}, "
          f"principal angle <= {worst_angle:.2e} rad")


# --------------------------------------------------------------------------
# a06  analytic gradients vs central differences, every parameter


def test_a06_full_gradient_check():
    started = time.perf_counter()
    config = ClassifierConfig(channels=3, classes=3,
                              conv_blocks=((4, 3), (3, 2)),
                              recurrent_units=4, dropout=0.0, rng_seed=0)
    model = init_model(config)
    rng = np.random.default_rng(106)
    series = [rng.normal(0.0, 1.0, (3, t)) for t in (5, 7, 6, 4)]
    batch = pad_batch(series, [0, 1, 2, 0])
    _, grads, _ = loss_and_grad(model, batch)

    h = 1e-4
    worst = 0.0
    checked = 0
    for name, values in model.params.items():
        it = np.nditer(values, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = values[idx]
            values[idx] = keep + h
            up = batch_loss(model, batch)
            values[idx] = keep - h
            down = batch_loss(model, batch)
            values[idx] = keep
            numeric = (up - down) / (2.0 * h)
            analytic = grads[name][idx]
            rel = abs(numeric - analytic) / max(1.0, abs(numeric), abs(analytic))
            worst = max(worst, rel)
            checked += 1
            assert rel < 1e-4, f"{name}{idx}: {analytic} vs {numeric}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\nA6 PASS: {checked} parameters, max relative error "
          f"{worst:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# a07  padding never changes predictions


def test_a07_masking_invariance_under_padding():
    config = ClassifierConfig(channels=8, classes=4,
                              conv_blocks=((8, 5), (8, 3)),
                              recurrent_units=8, rng_seed=3)
    model = init_model(config)
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(50):
        length = int(rng.integers(4, 30))
        series = rng.normal(0.0, 1.0, (8, length))
        alone = predict_proba(model, [series])[0]
        stretcher = rng.normal(0.0, 1.0, (8, length + 17))
        padded = predict_proba(model, [series, stretcher])[0]
        worst = max(worst, np.abs(alone - padded).max())
        assert worst < 1e-6
    print(f"\nA7 PASS: 50 inputs, max probability delta {worst:.2e}")


# --------------------------------------------------------------------------
# a08  end-to-end synthetic corpus


A8_ARCHETYPES = ("wave-one-arm", "wave-two-arms", "squat", "march")
A8_CLASSIFIER = {
    "conv_blocks": ((32, 7), (32, 3)),
    "recurrent_units": 16,
    "dropout": 0.3,
    "max_epochs": 30,
    "patience": 6,
    "batch_size": 16,
}


def a8_pipeline(mode: str) -> PipelineConfig:
    return PipelineConfig(
        mode=mode,
        augment=AugmentConfig(z=0, sigma=0.0, flip=False, rng_seed=8),
        som=SomConfig(q=4, m=3, epochs=8, rng_seed=8),
        pca_components=3,
        classifier=dict(A8_CLASSIFIER),
        seed=8,
    )


def test_a08_end_to_end_synthetic_accuracy():
    started = time.perf_counter()
    corpus = generate_corpus(12, A8_ARCHETYPES, ("front", "left", "right"),
                             seed=8, frames=40)
    protocol = Protocol(kind="kfold", folds=10)
    advanced = run_experiment(corpus, protocol, a8_pipeline("advanced"))

    # same corpus, but every actor recorded somewhere else in the image:
    # the raw-coordinate baseline is location dependent and degrades, while
    # the normalized pipeline is unaffected
    rng = np.random.default_rng(88)
    actors = sorted({s.actor for s in corpus})
    offsets = {a: rng.uniform(-600.0, 600.0, 2) for a in actors}
    moved = [translated(s, offsets[s.actor]) for s in corpus]
    baseline = run_experiment(moved, protocol, a8_pipeline("baseline"))

    elapsed = time.perf_counter() - started
    margin = advanced.absolute_accuracy - baseline.absolute_accuracy
    assert advanced.absolute_accuracy >= 0.90
    assert margin >= 0.10
    assert elapsed < 900.0
    print(f"\nA8 PASS: advanced {advanced.absolute_accuracy:.3f}, "
          f"baseline-on-shifted {baseline.absolute_accuracy:.3f}, "
          f"margin {margin:.3f}, {elapsed:.0f}s")


# --------------------------------------------------------------------------
# a09  augmentation accounting


def test_a09_augmentation_accounting():
    samples = generate_corpus(3, ("wave-one-arm", "squat"), ("front",),
                              seed=9, frames=12)
    items = [preprocess_sample(s)[0] for s in samples]
    config = AugmentConfig(z=2, sigma=0.05, flip=True, rng_seed=5)
    out = augment_set(items, config)
    assert len(out) == 6 * len(items)

    for item in items:
        back = flip(flip(item))
        assert np.array_equal(back.seq.xy, item.seq.xy)
        assert np.array_equal(back.seq.deriv, item.seq.deriv)
        assert back.viewpoint == item.viewpoint

    again = augment_set(items, config)
    for first, second in zip(out, again):
        assert np.array_equal(first.seq.xy, second.seq.xy)
        assert np.array_equal(first.seq.deriv, second.seq.deriv)
    print(f"\nA9 PASS: {len(items)} -> {len(out)} sequences, "
          "flip involution exact, noise bit-for-bit reproducible")


# --------------------------------------------------------------------------
# a10  channel arity


def random_library(rng, action, kind, count):
    """``count`` random prototypes with the root at the origin."""
    return PoseLibrary(action, kind, reroll(rng.normal(0, 1, (count, 26))),
                       np.ones(count, dtype=np.int64), np.full(count, "front"))


def fake_libraries(actions, kind):
    rng = np.random.default_rng(110)
    return {a: random_library(rng, a, kind, 4) for a in actions}


def test_a10_channel_arity():
    assert len(channel_names("basic")) == 56
    two = [f"act{i}" for i in range(2)]
    seventeen = [f"act{i:02d}" for i in range(17)]
    assert len(channel_names("advanced", two)) == 56 + 10 * 2
    assert len(channel_names("advanced", seventeen)) == 56 + 10 * 17

    rng = np.random.default_rng(111)
    xy = rng.normal(0.0, 1.0, (9, N_LANDMARKS, 2))
    xy[:, ROOT - 1] = 0.0
    seq = NormalizedSequence(xy, frozenset())
    channels = embed_sequence(seq, fake_libraries(two, "spatial"),
                              fake_libraries(two, "temporal"), "advanced")
    assert channels.values.shape == (76, 9)
    assert len(channel_names("basic")) == embed_sequence(
        seq, None, None, "basic").values.shape[0]
    print("\nA10 PASS: 56 basic channels, 56 + 10*|L| advanced channels")


# --------------------------------------------------------------------------
# a11  embedding throughput


def test_a11_embedding_throughput():
    actions = [f"act{i:02d}" for i in range(17)]
    rng = np.random.default_rng(112)
    libraries = {}
    for kind in ("spatial", "temporal"):
        libraries[kind] = {a: random_library(rng, a, kind, 64) for a in actions}
    frames = 2000
    xy = rng.normal(0.0, 1.0, (frames, N_LANDMARKS, 2))
    xy[:, ROOT - 1] = 0.0
    seq = NormalizedSequence(xy, frozenset())

    best = 0.0
    for _ in range(3):   # warm cache, keep the best of three
        start = time.perf_counter()
        channels = embed_sequence(seq, libraries["spatial"],
                                  libraries["temporal"], "advanced")
        best = max(best, frames / (time.perf_counter() - start))
    assert channels.values.shape[0] == 56 + 10 * 17
    assert best >= 1e3
    print(f"\nA11 PASS: {best:.0f} frames/s "
          "(17 actions x 64 prototypes, advanced mode)")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
