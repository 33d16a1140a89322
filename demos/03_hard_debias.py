#!/usr/bin/env python3
"""Hard-debiasing step by step.

Neutralize removes a word's component inside the bias subspace and
renormalizes; equalize re-positions an equality set so its members share the
same out-of-subspace part. The run_plan driver applies both over a whole
vocabulary.
"""

import numpy as np

from embdebias import (
    BiasSubspace,
    CategorySpec,
    DebiasPlan,
    EmbeddingSet,
    Strategy,
    bias_component,
    equalize,
    neutralize,
    run_plan,
)

# a 2-d picture first: bias direction = x axis
B = BiasSubspace("toy", np.array([[1.0, 0.0]]), [1.0])
w = np.array([0.6, 0.8])
print("bias component of (0.6, 0.8):", bias_component(w, B))
print("neutralized:", neutralize(w, B))           # -> (0, 1)

emb2 = EmbeddingSet(("left", "up"), np.array([[1.0, 0.0], [0.0, 1.0]]))
print("equalized pair:", equalize(["left", "up"], B, emb2))

# now a realistic run: plant a direction, debias, measure the change
rng = np.random.default_rng(1)
dim = 25
g = np.eye(dim)[0]
words, rows = [], []
for j, sin_a in enumerate((0.5, 0.35)):
    m = np.eye(dim)[2 + j]
    cos_a = np.sqrt(1 - sin_a ** 2)
    words += [f"def{j}_a", f"def{j}_b"]
    rows += [m * cos_a + g * sin_a, m * cos_a - g * sin_a]
professions = []
for t in range(8):
    m = np.eye(dim)[6 + t]
    words.append(f"job{t}")
    professions.append(f"job{t}")
    rows.append(m * np.sqrt(1 - 0.3 ** 2) + g * 0.3)

emb = EmbeddingSet(tuple(words), np.vstack(rows))
spec = CategorySpec("gender", (("def0_a", "def0_b"), ("def1_a", "def1_b")),
                    equality_sets=(("def0_a", "def0_b"),))

before = max(abs(float(emb.vector(w) @ g)) for w in professions)
out = run_plan(emb, [spec], DebiasPlan(strategy=Strategy.SINGLE, k=1))
after = max(abs(float(out.vector(w) @ g)) for w in professions)
print(f"max |<job, g>| before: {before:.3f}   after: {after:.2e}")
print("normalized before and after:", emb.normalized, out.normalized)

# equalized words end up symmetric around a shared neutral part
a, b = out.vector("def0_a"), out.vector("def0_b")
print("equalized pair norms:", np.linalg.norm(a), np.linalg.norm(b))
print("shared out-of-subspace part:",
      np.allclose(a - a[0] * g, b - b[0] * g, atol=1e-12))
