#!/usr/bin/env python3
"""Composing subspaces for several social categories.

Two linear baselines (entrywise SUM and MEAN) against the intersection
direction: the unit vector closest to every category's subspace at once,
found as the first principal component of the stacked subspace rows. When
categories genuinely share a direction, the intersection direction finds it
and the linear baselines smear it.
"""

import numpy as np

from embdebias import (
    CategorySpec,
    EmbeddingSet,
    bias_subspace,
    distance_to_subspace,
    josec_direction,
    subspace_mean,
    subspace_sum,
    validate_hypothesis,
)

dim = 40
g = np.eye(dim)[0]                                   # shared direction
q1 = np.eye(dim)[1]                                  # unique to category 0
q2 = (np.eye(dim)[1] + np.eye(dim)[2]) / np.sqrt(2)  # unique to category 1

words, rows, specs = [], [], []
layout = [("race", ((g, 0.45, 10), (q1, 0.30, 11))),
          ("gender", ((q2, 0.45, 12), (g, 0.30, 13)))]
for name, pairs in layout:
    sets = []
    for j, (direction, sin_a, axis) in enumerate(pairs):
        m = np.eye(dim)[axis]
        cos_a = np.sqrt(1 - sin_a ** 2)
        a, b = f"{name}{j}a", f"{name}{j}b"
        words += [a, b]
        rows += [m * cos_a + direction * sin_a, m * cos_a - direction * sin_a]
        sets.append((a, b))
    specs.append(CategorySpec(name, tuple(sets)))

# a "ground truth" intersectional category that also varies along g
gt_m = np.eye(dim)[14]
words += ["gt_a", "gt_b"]
rows += [gt_m * np.sqrt(1 - 0.4 ** 2) + g * 0.4,
         gt_m * np.sqrt(1 - 0.4 ** 2) - g * 0.4]
gt_spec = CategorySpec("intersectional", (("gt_a", "gt_b"),))

emb = EmbeddingSet(tuple(words), np.vstack(rows))
subspaces = [bias_subspace(s, emb, k=2) for s in specs]

result = josec_direction(subspaces)
print("intersection direction vs planted g:",
      abs(float(result.subspace.components[0] @ g)))
print("objective value (max possible = number of categories):",
      result.objective_value)
print("distance to each category subspace:", result.per_category_distance)

for label, composed in (("SUM", subspace_sum(subspaces)),
                        ("MEAN", subspace_mean(subspaces))):
    align = np.abs(composed.components @ g).max()
    print(f"{label}: best row alignment with g = {align:.3f} "
          f"(orthonormal rows: {composed.orthonormal})")

print("\npoint-to-subspace distances from g itself:")
for b in subspaces:
    print(f"  d(g, {b.label}) = {distance_to_subspace(g, b):.6f}")

# the full hypothesis check: individual subspaces, 10 random directions,
# and the intersection direction, all compared against the ground truth
report = validate_hypothesis(specs, gt_spec, emb, k=2, seed=42)
print("\n" + report.summary())
print("\n3-D projection rows (for external plotting):")
for row in report.projection_rows:
    print("  %-14s %d  % .3f % .3f % .3f" % row)
