"""Build a small synthetic corpus and look at what comes out.

Every sample is a pure function of its spec, so the corpus is identical
from run to run and safe to use as a regression fixture.
"""

import tempfile
from pathlib import Path

import numpy as np

from posehar.io import read_sample, write_sample
from posehar.synth import ARCHETYPES, MotionSpec, generate, generate_corpus

# %% a balanced corpus: every (archetype, viewpoint, actor) exactly once
corpus = generate_corpus(4, ARCHETYPES, ("front", "left"), seed=0, frames=30)
print(f"{len(corpus)} samples "
      f"({len(ARCHETYPES)} archetypes x 2 viewpoints x 4 actors)")

per_action = {}
for s in corpus:
    per_action[s.action] = per_action.get(s.action, 0) + 1
for action, count in sorted(per_action.items()):
    print(f"  {action:<15} {count} samples")

# %% actor jitter: same archetype, different bodies
a = generate(MotionSpec("squat", actor_seed=1))
b = generate(MotionSpec("squat", actor_seed=2))
print(f"\nmean landmark gap between two actors doing the same squat: "
      f"{np.abs(a.xy - b.xy).mean():.1f} px")

# %% occlusion windows mark landmarks absent, inclusive on both ends
spec = MotionSpec("wave-one-arm", frames=12, occlusions=((5, 3, 7),))
present = generate(spec).present
print(f"right wrist present per frame: {present[:, 4].astype(int)}")

# %% records survive a write/read round trip byte for byte
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "sample.seq"
    write_sample(path, corpus[0])
    first = path.read_bytes()
    write_sample(path, read_sample(path))
    assert path.read_bytes() == first
    print(f"\nround-tripped {len(first)} record bytes without change")
