#!/usr/bin/env python3
"""Finding a category's bias subspace.

Plants a known direction into synthetic word pairs and shows that the
defining-set PCA recovers it: within each defining set the vectors are
centered on the set mean, the centered rows are stacked, and the top-K
right singular directions span the bias subspace.
"""

import numpy as np

from embdebias import (
    CategorySpec,
    EmbeddingSet,
    bias_subspace,
    centered_differences,
    principal_components,
)

rng = np.random.default_rng(0)
dim = 30
g = np.eye(dim)[0]   # the dominant planted direction
h = np.eye(dim)[1]   # a weaker secondary direction

# each pair sits at m*cos(a) +/- dir*sin(a): unit vectors whose difference is
# exactly along the planted direction
words, rows = [], []
for j, (direction, sin_a) in enumerate(((g, 0.5), (g, 0.4), (h, 0.3))):
    m = np.eye(dim)[5 + j]
    cos_a = np.sqrt(1 - sin_a ** 2)
    words += [f"pair{j}_a", f"pair{j}_b"]
    rows += [m * cos_a + direction * sin_a, m * cos_a - direction * sin_a]
for i in range(20):
    v = rng.standard_normal(dim)
    words.append(f"filler{i}")
    rows.append(v / np.linalg.norm(v))

# every row is unit-norm, so the set is derived as normalized
emb = EmbeddingSet(tuple(words), np.vstack(rows))
print("normalized:", emb.normalized)
spec = CategorySpec("gender", (("pair0_a", "pair0_b"),
                               ("pair1_a", "pair1_b"),
                               ("pair2_a", "pair2_b")))

diffs = centered_differences(spec, emb)
print("centered difference rows:", diffs.shape)

sub = bias_subspace(spec, emb, k=1)
print("recovered component alignment |<b1, g>| =",
      abs(float(sub.components[0] @ g)))
print("explained variance:", sub.explained_variance)

# k=2 picks up the secondary direction as well
two = principal_components(diffs, 2, label="gender-k2")
print("k=2 second component alignment |<b2, h>| =",
      abs(float(two.components[1] @ h)))
print("k=2 orthonormality error:",
      np.abs(two.components @ two.components.T - np.eye(2)).max(),
      "orthonormal:", two.orthonormal)

# requesting more directions than the data carries truncates with a warning
import warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    truncated = principal_components(diffs, 5, label="gender-k5")
print(f"asked for 5 components, got {truncated.k}; warning: "
      f"{caught[0].message if caught else None}")
