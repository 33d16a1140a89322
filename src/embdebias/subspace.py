"""Bias-subspace construction.

A category's bias subspace is spanned by the top-K principal directions of
the defining-set difference vectors: within each defining set, every word
vector has the set mean subtracted; the centered rows of all sets are
concatenated and decomposed. No global mean removal is applied to the
concatenated rows by default (``double_center=True`` adds it, matching some
reference implementations of hard-debiasing).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .embeddings import FIELD, EmbeddingSet, data_lines
from .errors import (
    FatalValidationError,
    MalformedLineError,
    RankDeficiencyWarning,
    RankDeficientError,
)
from .wordsets import CategorySpec, resolve_words

#: Pairwise-dot tolerance for the orthonormality invariant.
ORTHO_TOL = 1e-8


def _fix_signs(components: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude coordinate is positive.

    SVD signs are arbitrary; this makes subspace construction deterministic.
    """
    out = components.copy()
    for row in out:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return out


@dataclass(frozen=True)
class BiasSubspace:
    """K unit direction vectors (rows) in R^d for one category or a composition.

    ``orthonormal`` is derived from the rows: True exactly when the
    off-diagonal Gram entries are within ``ORTHO_TOL`` of zero, as for PCA
    subspaces. Entrywise SUM/MEAN compositions generally lose it and are used
    as-is by the projection step. Immutable; safe for shared reads.
    """

    label: str
    components: np.ndarray         # (K, d)
    explained_variance: np.ndarray  # (K,) nonincreasing, nonnegative
    orthonormal: bool = field(init=False)

    def __post_init__(self):
        comps = np.array(self.components, dtype=np.float64, copy=True)
        if comps.ndim != 2 or comps.shape[0] < 1:
            raise ValueError(f"components must be (K, d) with K >= 1, got {comps.shape}")
        if comps.shape[0] > comps.shape[1]:
            raise ValueError("K cannot exceed the embedding dimension")
        ev = np.array(self.explained_variance, dtype=np.float64, copy=True).reshape(-1)
        if ev.shape[0] != comps.shape[0]:
            raise ValueError("explained_variance must have one entry per component")
        if np.any(ev < -1e-12) or np.any(np.diff(ev) > 1e-12):
            raise ValueError("explained_variance must be nonnegative and nonincreasing")
        ev = np.clip(ev, 0.0, None)
        gram = comps @ comps.T
        if np.abs(np.diag(gram) - 1.0).max() > ORTHO_TOL:
            raise ValueError("component rows must be unit-norm")
        comps.flags.writeable = False
        ev.flags.writeable = False
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "explained_variance", ev)
        off = gram[~np.eye(comps.shape[0], dtype=bool)]
        object.__setattr__(self, "orthonormal",
                           bool(np.abs(off).max(initial=0.0) <= ORTHO_TOL))

    @property
    def k(self) -> int:
        return self.components.shape[0]

    @property
    def dim(self) -> int:
        return self.components.shape[1]

    @property
    def first_component(self) -> np.ndarray:
        return self.components[0]


def centered_differences(spec: CategorySpec, emb: EmbeddingSet,
                         lowercase_fallback: bool = False) -> np.ndarray:
    """Stack ``w - mean(D_i)`` rows for every resolved word of every defining
    set, in spec order.

    Raises FatalValidationError if a defining set has no in-vocabulary words.
    """
    if not emb.normalized:
        raise ValueError("embeddings must be normalized before subspace "
                         "construction (call normalize())")
    blocks = []
    for i, ws in enumerate(spec.defining_sets):
        res = resolve_words(ws, emb, lowercase_fallback)
        if not res.resolved:
            raise FatalValidationError(
                f"defining set {i} of {spec.name!r} has no in-vocabulary words")
        vectors = emb.take(res.resolved)
        blocks.append(vectors - vectors.mean(axis=0))
    return np.vstack(blocks)


def principal_components(matrix: np.ndarray, k: int, *, double_center: bool = False,
                         label: str = "subspace") -> BiasSubspace:
    """Top-k right singular directions of ``matrix`` with their variances.

    ``explained_variance`` is squared singular values over ``m - 1``. If the
    matrix has fewer than ``k`` numerically nonzero singular values, the
    achievable number of components is returned and a RankDeficiencyWarning
    is emitted; RankDeficientError is raised only when no direction at all
    can be extracted.
    """
    m = np.array(matrix, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if double_center:
        m = m - m.mean(axis=0)
    _, s, vt = np.linalg.svd(m, full_matrices=False)
    tol = s[0] * max(m.shape) * np.finfo(np.float64).eps if s.size else 0.0
    rank = int((s > tol).sum())
    if rank == 0:
        raise RankDeficientError(f"{label}: input matrix is numerically zero")
    k_eff = min(k, rank)
    if k_eff < k:
        warnings.warn(
            f"{label}: requested {k} components but only {rank} available",
            RankDeficiencyWarning, stacklevel=2)
    denom = max(m.shape[0] - 1, 1)
    return BiasSubspace(
        label=label,
        components=_fix_signs(vt[:k_eff]),
        explained_variance=s[:k_eff] ** 2 / denom,
    )


def bias_subspace(spec: CategorySpec, emb: EmbeddingSet, k: int, *,
                  double_center: bool = False,
                  lowercase_fallback: bool = False) -> BiasSubspace:
    """Bias subspace of one category: centered differences, then PCA."""
    diffs = centered_differences(spec, emb, lowercase_fallback)
    return principal_components(diffs, k, double_center=double_center, label=spec.name)


def save_subspace(subspace: BiasSubspace, path) -> None:
    """Write ``label K d`` then one row of 17-significant-digit values per
    component; reload is bit-exact."""
    if any(c.isspace() for c in subspace.label):
        raise ValueError(f"label {subspace.label!r} must not contain whitespace")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{subspace.label} {subspace.k} {subspace.dim}\n")
        for row in subspace.components:
            fh.write(" ".join("%.17g" % v for v in row) + "\n")


def load_subspace(path) -> BiasSubspace:
    """Read a subspace file written by :func:`save_subspace`.

    Explained variances are not stored in the format, so they load as zeros.
    """
    with open(path, encoding="utf-8") as fh:
        lines = data_lines(fh.read())
    if not lines:
        raise MalformedLineError("empty subspace file")
    header_no, header = lines[0]
    try:
        label, k, d = FIELD.findall(header)
        k, d = int(k), int(d)
    except ValueError:
        raise MalformedLineError(f"header must be 'label K d', got {header!r}",
                                 header_no) from None
    if len(lines) - 1 != k:
        raise MalformedLineError(f"expected {k} component rows, found {len(lines) - 1}")
    rows = []
    for lineno, line in lines[1:]:
        parts = FIELD.findall(line)
        if len(parts) != d:
            raise MalformedLineError(f"expected {d} values, got {len(parts)}", lineno)
        rows.append(np.asarray(parts, dtype=np.float64))
    return BiasSubspace(label=label, components=np.vstack(rows),
                        explained_variance=np.zeros(k))
