"""Walk one damaged sequence through treatment and normalization.

The treatment stage drops unusable frames, fills occasional gaps from the
nearest observed frame, and mirror-copies landmarks that one side never
saw. Normalization then centers each frame on the root and divides by the
root-to-hip length, which removes where the actor stood and how large they
appeared.
"""

import numpy as np

from posehar.pose import Sample
from posehar.preprocess import normalize, preprocess_sample, treat_missing
from posehar.synth import MotionSpec, generate

# %% damage a clean clip: a root dropout, a wrist gap, one side never seen
spec = MotionSpec("march", frames=10, actor_seed=3)
clip = generate(spec)
xy, present = clip.xy, clip.present.copy()   # sample arrays are read-only
present[4, 1] = False        # frame 4 loses its root -> frame dropped
present[2:5, 7 - 1] = False  # left elbow gap -> filled from neighbours
present[:, 14 - 1] = False   # left ankle never seen -> mirror copy
damaged = Sample(xy, present, "march", "front", "a3", "demo")

clean = treat_missing(damaged)
print(f"frames kept: {len(clean)} of 10")
print(f"persistently missing landmarks: {sorted(clean.persistent_missing)}")
print("left ankle track now mirrors the right ankle:",
      np.array_equal(clean.xy[:, 14 - 1], clean.xy[:, 11 - 1]))

# %% normalization: root at the origin, torso link at unit length
seq = normalize(clean)
print(f"\nroot after centering: {np.abs(seq.xy[:, 1]).max():.1e}")
torso = np.hypot(seq.xy[:, 9 - 1, 0], seq.xy[:, 9 - 1, 1])
print(f"root-to-right-hip length per frame: {torso.round(12)}")

# %% the whole point: position and scale stop mattering
moved = Sample(xy + [250.0, -80.0], present, "march", "front", "a3", "demo")
seq_moved, _ = preprocess_sample(moved)
seq_ref, report = preprocess_sample(damaged)
print(f"\nmax difference after a 250 px shift: "
      f"{np.abs(seq_moved.seq.xy - seq_ref.seq.xy).max():.1e}")
print(f"report: {report}")
