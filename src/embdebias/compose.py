"""Build one subspace for multiple social categories.

Two linear baselines (entrywise SUM and MEAN of the component matrices;
MEAN equals SUM once the rows are renormalized and is kept as a label for
the paper's tables) and the intersection direction: the unit vector u
maximizing ``sum_i sum_k (u . v_ik)^2`` over all categories' components
v_ik, which is equivalently the unit vector minimizing the summed squared
distances to the individual subspaces. The maximizer is the dominant right
singular direction of the stacked component rows; the rows are unit
directions about the origin, so no centering is applied before the
decomposition.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Literal, Sequence

import numpy as np

from .embeddings import ZERO_NORM, EmbeddingSet
from .errors import (
    DegenerateTieWarning,
    NotUnitError,
    RankDeficiencyWarning,
    ShapeMismatchError,
    ZeroRowError,
)
from .subspace import BiasSubspace, _fix_signs, bias_subspace
from .wordsets import CategorySpec

UNIT_TOL = 1e-10

#: Relative singular-value gap below which the leading direction is flagged
#: as one of several near-optimal choices.
TIE_RTOL = 1e-9


@dataclass(frozen=True)
class CompositionResult:
    """A composed subspace plus solver diagnostics.

    For the intersection direction, ``subspace`` has K=1, ``objective_value``
    is the summed squared projection at the optimum (in [0, N]), and
    ``per_category_distance`` holds the point-to-subspace distances. The SUM
    and MEAN baselines carry only the composed subspace.
    """

    subspace: BiasSubspace
    strategy: Literal["SUM", "MEAN", "JOSEC"]
    objective_value: float | None = None
    per_category_distance: tuple[float, ...] | None = None
    degenerate_tie: bool = False


def _check_same_dim(subspaces: Sequence[BiasSubspace]) -> None:
    if not subspaces:
        raise ValueError("at least one subspace is required")
    d = subspaces[0].dim
    for b in subspaces[1:]:
        if b.dim != d:
            raise ShapeMismatchError(
                f"subspace {b.label!r} has dimension {b.dim}, expected {d}")


def subspace_sum(subspaces: Sequence[BiasSubspace]) -> BiasSubspace:
    """Entrywise sum of component matrices, rows renormalized to unit length.

    Subspaces with different numbers of components are summed over the
    leading ``min K`` components, with a RankDeficiencyWarning.
    Cross-orthogonality is deliberately not restored; the result reflects the
    naive linear composition.
    """
    _check_same_dim(subspaces)
    k = min(b.k for b in subspaces)
    if any(b.k != k for b in subspaces):
        warnings.warn(
            "SUM/MEAN composes the leading {} component(s) of {}".format(
                k, ", ".join(f"{b.label} ({b.k})" for b in subspaces)),
            RankDeficiencyWarning, stacklevel=2)
    total = np.sum([b.components[:k] for b in subspaces], axis=0)
    norms = np.linalg.norm(total, axis=1)
    dead = np.nonzero(norms < ZERO_NORM)[0]
    if dead.size:
        raise ZeroRowError(f"row {int(dead[0])} of the SUM composition is zero")
    return BiasSubspace(label="SUM", components=total / norms[:, None],
                        explained_variance=np.zeros(total.shape[0]))


def subspace_mean(subspaces: Sequence[BiasSubspace]) -> BiasSubspace:
    """:func:`subspace_sum` labelled MEAN: dividing by N before the rows are
    renormalized changes nothing."""
    return replace(subspace_sum(subspaces), label="MEAN")


def _check_unit(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    norm = np.linalg.norm(u)
    if abs(norm - 1.0) > UNIT_TOL:
        raise NotUnitError(f"expected a unit vector, got norm {norm!r}")
    return u


def distance_to_subspace(u: np.ndarray, subspace: BiasSubspace) -> float:
    """Shortest L2 distance from unit vector ``u`` to the span of ``subspace``:
    ``sqrt(1 - sum_k (u . v_k)^2)``, clamped against negative round-off."""
    u = _check_unit(u)
    if not subspace.orthonormal:
        raise ValueError("distance requires an orthonormal subspace")
    proj = subspace.components @ u
    val = 1.0 - float(proj @ proj)
    return float(np.sqrt(min(max(val, 0.0), 1.0)))


def josec_objective(u: np.ndarray, subspaces: Sequence[BiasSubspace]) -> float:
    """Summed squared projections of ``u`` onto every component of every
    subspace; maximized by the intersection direction."""
    u = _check_unit(u)
    total = 0.0
    for b in subspaces:
        proj = b.components @ u
        total += float(proj @ proj)
    return total


def josec_direction(subspaces: Sequence[BiasSubspace]) -> CompositionResult:
    """Unit direction closest to all subspaces at once.

    Stacks every component row and takes the dominant right singular
    direction (uncentered). When the top two singular values coincide to
    within TIE_RTOL relative, the optimum is not unique; the numerically
    first direction is returned and the result is flagged.
    """
    _check_same_dim(subspaces)
    for b in subspaces:
        if not b.orthonormal:
            raise ValueError(f"subspace {b.label!r} is not orthonormal")
    stacked = np.vstack([b.components for b in subspaces])
    _, s, vt = np.linalg.svd(stacked, full_matrices=False)
    tie = bool(s.size > 1 and s[0] > 0 and (s[0] - s[1]) / s[0] < TIE_RTOL)
    if tie:
        warnings.warn(
            "top two singular values are numerically tied; the intersection "
            "direction is not unique", DegenerateTieWarning, stacklevel=2)
    direction = _fix_signs(vt[:1])
    direction /= np.linalg.norm(direction)
    sub = BiasSubspace(
        label="JOSEC",
        components=direction,
        explained_variance=np.array([s[0] ** 2 / max(stacked.shape[0] - 1, 1)]),
    )
    u = sub.first_component
    return CompositionResult(
        subspace=sub,
        strategy="JOSEC",
        objective_value=josec_objective(u, subspaces),
        per_category_distance=tuple(distance_to_subspace(u, b) for b in subspaces),
        degenerate_tie=tie,
    )


def compose(strategy: str, subspaces: Sequence[BiasSubspace]) -> CompositionResult:
    """Dispatch to SUM / MEAN / JOSEC by name (case-insensitive)."""
    name = strategy.upper()
    if name == "SUM":
        return CompositionResult(subspace=subspace_sum(subspaces), strategy="SUM")
    if name == "MEAN":
        return CompositionResult(subspace=subspace_mean(subspaces), strategy="MEAN")
    if name == "JOSEC":
        return josec_direction(subspaces)
    raise ValueError(f"unknown composition strategy {strategy!r}")


def direction_subspace_cosine(u: np.ndarray, subspace: BiasSubspace) -> float:
    """Signed cosine between ``u`` and the subspace's first component.

    This is the documented convention for comparing a one-dimensional result
    against a K-dimensional subspace; it reduces the subspace to its leading
    direction rather than using principal angles.
    """
    u = _check_unit(u)
    return float(u @ subspace.first_component)


@dataclass(frozen=True)
class HypothesisReport:
    """Similarities between a ground-truth subspace and candidate directions,
    plus a 3-D projection of all subspace components for plotting."""

    category_similarity: tuple[tuple[str, float], ...]
    random_similarity: float
    random_values: tuple[float, ...]
    josec_similarity: float
    josec: CompositionResult
    subspaces: tuple[BiasSubspace, ...]
    ground_truth: BiasSubspace
    projection_rows: tuple[tuple[str, int, float, float, float], ...]

    def summary(self) -> str:
        lines = ["similarity to ground-truth subspace (first-component cosine):"]
        for label, value in self.category_similarity:
            lines.append(f"  {label}: {value:.6f}")
        lines.append(f"  random (avg of {len(self.random_values)}): "
                     f"{self.random_similarity:.6f}")
        lines.append(f"  josec: {self.josec_similarity:.6f}")
        lines.append(f"josec objective value: {self.josec.objective_value:.6f}")
        return "\n".join(lines)


def _project_to_3d(rows: np.ndarray) -> np.ndarray:
    """Center and project rows to their top three principal axes, padding
    with zeros when rank runs out."""
    centered = rows - rows.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    n_axes = min(3, vt.shape[0])
    axes = _fix_signs(vt[:n_axes])
    coords = centered @ axes.T
    if n_axes < 3:
        coords = np.hstack([coords, np.zeros((coords.shape[0], 3 - n_axes))])
    return coords


def validate_hypothesis(specs: Sequence[CategorySpec], ground_truth: CategorySpec,
                        emb: EmbeddingSet, k: int, *, seed: int = 0,
                        lowercase_fallback: bool = False,
                        double_center: bool = False) -> HypothesisReport:
    """Compare individual subspaces, random directions, and the intersection
    direction against a ground-truth subspace built from human-coded
    defining sets.

    The random baseline averages the signed cosine of ``10`` seeded unit
    vectors. The projection rows give (label, component_index, x, y, z) for
    every component of every subspace involved.
    """
    kwargs = dict(double_center=double_center, lowercase_fallback=lowercase_fallback)
    subspaces = tuple(bias_subspace(s, emb, k, **kwargs) for s in specs)
    gt = bias_subspace(ground_truth, emb, k, **kwargs)
    josec = josec_direction(subspaces)

    category_similarity = tuple(
        (b.label, direction_subspace_cosine(b.first_component, gt)) for b in subspaces)
    rng = np.random.default_rng(seed)
    randoms = []
    for _ in range(10):
        v = rng.standard_normal(emb.dim)
        randoms.append(direction_subspace_cosine(v / np.linalg.norm(v), gt))
    josec_similarity = direction_subspace_cosine(josec.subspace.first_component, gt)

    labeled = list(subspaces) + [gt, josec.subspace]
    labels = [b.label for b in subspaces] + ["GROUND_TRUTH", "JOSEC"]
    stacked = np.vstack([b.components for b in labeled])
    coords = _project_to_3d(stacked)
    projection_rows = []
    offset = 0
    for label, b in zip(labels, labeled):
        for j in range(b.k):
            x, y, z = coords[offset]
            projection_rows.append((label, j, float(x), float(y), float(z)))
            offset += 1

    return HypothesisReport(
        category_similarity=category_similarity,
        random_similarity=float(np.mean(randoms)),
        random_values=tuple(float(r) for r in randoms),
        josec_similarity=josec_similarity,
        josec=josec,
        subspaces=subspaces,
        ground_truth=gt,
        projection_rows=tuple(projection_rows),
    )
