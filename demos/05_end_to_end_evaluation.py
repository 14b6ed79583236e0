"""Run the whole pipeline under a leave-one-actor-out protocol.

Each fold holds one actor's samples out for testing, trains the reduction
models, libraries, and classifier on the rest, and scores the held-out
actor. The same experiment is repeated in baseline mode (raw coordinates,
no normalization, no libraries) on copies of the corpus where every actor
stands somewhere else in the image; raw coordinates carry the location
with them, so the baseline pays for it.
"""

import numpy as np

from posehar.augment import AugmentConfig
from posehar.evaluate import PipelineConfig, Protocol, run_experiment
from posehar.pose import Sample
from posehar.som import SomConfig
from posehar.synth import generate_corpus

corpus = generate_corpus(6, ("wave-one-arm", "squat", "march"),
                         ("front", "left"), seed=7, frames=32)

pipeline = PipelineConfig(
    mode="advanced",
    augment=AugmentConfig(z=0, sigma=0.0, flip=False, rng_seed=7),
    som=SomConfig(q=3, m=3, epochs=8, rng_seed=7),
    pca_components=3,
    classifier={"conv_blocks": ((32, 7), (32, 3)), "recurrent_units": 16,
                "dropout": 0.3, "max_epochs": 35, "patience": 7,
                "batch_size": 8},
    seed=7,
)

protocol = Protocol(kind="loao")
report = run_experiment(corpus, protocol, pipeline)
print(report.render_confusion())
print(f"advanced: absolute {report.absolute_accuracy:.3f}, "
      f"relative {report.relative_accuracy:.3f} "
      f"over {len(report.per_fold)} folds")

# %% same corpus, every actor shifted to a different image location
rng = np.random.default_rng(70)
offsets = {actor: rng.uniform(-500.0, 500.0, 2)
           for actor in sorted({s.actor for s in corpus})}
moved = [Sample(s.xy + offsets[s.actor], s.present, s.action, s.viewpoint,
                s.actor, s.dataset) for s in corpus]

baseline = PipelineConfig(mode="baseline", augment=pipeline.augment,
                          som=pipeline.som, pca_components=3,
                          classifier=dict(pipeline.classifier), seed=7)
report_b = run_experiment(moved, protocol, baseline)
print(f"\nbaseline on shifted actors: absolute "
      f"{report_b.absolute_accuracy:.3f}, relative "
      f"{report_b.relative_accuracy:.3f}")
print(f"normalization is worth "
      f"{report.absolute_accuracy - report_b.absolute_accuracy:+.3f} "
      "accuracy here")
