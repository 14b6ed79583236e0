"""Reduce normalized poses and cluster them into per-action libraries.

Frames from every sequence of one (action, viewpoint) cell are projected
onto the leading principal axes and clustered on a small lattice map; each
non-empty cluster's mean landmark coordinates become one prototype. A bundle
holds the pose and motion libraries of every action.
"""

import tempfile
from pathlib import Path

import numpy as np

from posehar.pca import fit_pca, project, unroll
from posehar.preprocess import preprocess_sample
from posehar.som import (SomConfig, build_bundle, load_bundle,
                         quantization_error, save_bundle, train_som)
from posehar.synth import generate_corpus

corpus = generate_corpus(6, ("wave-one-arm", "squat", "march"),
                         ("front", "left"), seed=2, frames=30)
items = [preprocess_sample(s)[0] for s in corpus]

# %% how much structure do three principal axes keep?
stacked = np.vstack([unroll(item.seq.xy) for item in items])
pca = fit_pca(stacked, 3)
print(f"{stacked.shape[0]} frames, 26 coordinates each")
print(f"variance captured by 3 axes: {pca.captured_variance:.1%}")

# %% training the map pulls its units onto the data
reduced = project(pca, stacked)
config = SomConfig(q=4, m=3, epochs=10, init="random", rng_seed=2)
fit = train_som(reduced, config)
print(f"\nquantization error {quantization_error(reduced, fit.initial_weights):.3f}"
      f" -> {quantization_error(reduced, fit.weights):.3f}"
      f" across {config.n_units} units")

# %% a bundle: pose (spatial) and motion (temporal) libraries per action
bundle = build_bundle(items, 3, SomConfig(q=3, m=3, epochs=10, rng_seed=2))
for action in sorted(bundle.spatial):
    spatial = bundle.spatial[action]
    temporal = bundle.temporal[action]
    members = spatial.weight.sum()
    print(f"  {action:<15} {len(spatial):3d} pose prototypes "
          f"({members} frames), {len(temporal):3d} motion prototypes")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "bundle.npz"
    save_bundle(path, bundle)
    reloaded = load_bundle(path)
    same = all(np.array_equal(a.landmarks, b.landmarks)
               for a, b in zip(bundle.spatial.values(),
                               reloaded.spatial.values()))
    print(f"\nbundle round trip intact: {same} "
          f"({path.stat().st_size} bytes on disk)")
