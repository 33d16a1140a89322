"""Remove bias components from embeddings.

Hard-debiasing has two steps. *Neutralize* strips a word's component inside
the bias subspace and renormalizes:

    w' = (w - w_B) / ||w - w_B||,   w_B = sum_k <w, b_k> b_k.

*Equalize* re-positions every word of an equality set E so all members share
one out-of-subspace part and symmetric in-subspace parts:

    w' = (mu - mu_B) + sqrt(1 - ||mu - mu_B||^2) * (w_B - mu_B)/||w_B - mu_B||

with mu the mean of E's vectors. The square root requires unit-norm inputs,
which is why the pipeline insists on normalized embedding sets.

A plan runs as a list of steps, each one ``hard_debias`` call against one
subspace: SINGLE is one step; SEQUENTIAL is one step per category in the
plan's order, each subspace built on the partially debiased vectors unless
the plan freezes them to the input; SUM / MEAN / intersection direction is
one step against the composed subspace. The rows to neutralize are fixed once
per plan. Under the default neutral rule defining words are never
neutralized, so frozen and recomputed subspaces coincide unless an earlier
step equalizes a later category's defining words or an explicit neutral list
names them.

``run_plan`` *fits* a plan on the lexicon rows, the only rows subspaces and
equalize read, by running its steps there. It then *applies* the fitted steps
to the other neutral rows in one blocked pass: each block of rows is
neutralized against every step's subspace in turn, with a step's own
arithmetic, so the plan reads the big matrix once instead of once per step.
Each step's ``WordSkippedWarning`` for rows inside its subspace is given once
for the lexicon rows, during the fit, and once for the other rows, after the
whole fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .compose import compose
from .embeddings import EmbeddingSet
from .errors import (
    EqualizeDegenerateError,
    FullyContainedError,
    RadicandNegativeError,
    ShapeMismatchError,
    WordSkippedWarning,
)
from .subspace import BiasSubspace, bias_subspace
from .wordsets import CategorySpec, lexicon_words, resolve_words

RESIDUAL_TOL = 1e-10
#: Rows per block of the apply pass; it bounds the pass's temporaries to
#: ``_BLOCK_ROWS`` x d. On a 10k x 300 set with one BLAS thread, blocks of 32
#: to 512 rows ran the same within timing noise; 2048 rows or one block ran
#: slower.
_BLOCK_ROWS = 128


class Strategy(str, Enum):
    SINGLE = "single"
    SEQUENTIAL = "sequential"
    SUM = "sum"
    MEAN = "mean"
    JOSEC = "josec"


@dataclass(frozen=True)
class DebiasPlan:
    """What to debias and how.

    ``neutral_words=None`` selects the default rule: every vocabulary word
    that appears in no defining set and no equality set of the categories in
    play. ``category_order`` is required for SEQUENTIAL and must be a
    permutation of the category names.
    """

    strategy: Strategy
    k: int
    category_order: tuple[str, ...] = ()
    neutral_words: tuple[str, ...] | None = None
    frozen_subspaces: bool = False
    lowercase_fallback: bool = False
    double_center: bool = False

    def __post_init__(self):
        object.__setattr__(self, "strategy", Strategy(self.strategy))
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        object.__setattr__(self, "category_order", tuple(self.category_order))
        if self.neutral_words is not None:
            object.__setattr__(self, "neutral_words", tuple(self.neutral_words))

    def validate(self, specs: Sequence[CategorySpec]) -> None:
        """Check plan-vs-specs invariants; raises ValueError on violation."""
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("category names must be unique")
        if self.strategy is Strategy.SEQUENTIAL:
            if sorted(self.category_order) != sorted(names):
                raise ValueError(
                    f"category_order {self.category_order!r} is not a "
                    f"permutation of {tuple(names)!r}")
        if self.strategy is Strategy.SINGLE and len(specs) != 1:
            raise ValueError("SINGLE strategy requires exactly one category")


def bias_component(w: np.ndarray, subspace: BiasSubspace) -> np.ndarray:
    """Projection onto the subspace rows, sum_k <w, b_k> b_k, of one vector
    or of every row of an ``(n, d)`` block."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim not in (1, 2) or w.shape[-1] != subspace.dim:
        raise ShapeMismatchError(
            f"input has shape {w.shape}, subspace dimension is {subspace.dim}")
    return (w @ subspace.components.T) @ subspace.components


def neutralize(w: np.ndarray, subspace: BiasSubspace) -> np.ndarray:
    """Remove the bias component and renormalize to unit length.

    Raises FullyContainedError when ``w`` lies numerically inside the
    subspace, leaving no direction to keep.
    """
    rows, contained = _neutralize_block(np.asarray(w, dtype=np.float64)[None], subspace)
    if contained[0]:
        raise FullyContainedError("vector lies inside the bias subspace")
    return rows[0]


def equalize(words: Sequence[str], subspace: BiasSubspace, emb: EmbeddingSet,
             lowercase_fallback: bool = False) -> dict[str, np.ndarray]:
    """Equalize the resolved words of one equality set; returns the new
    vectors keyed by vocabulary word.

    All outputs are unit-norm and share the identical out-of-subspace part.
    Raises EqualizeDegenerateError when a word's bias component coincides
    with the set mean's, and RadicandNegativeError when the inputs cannot
    have been unit vectors.
    """
    if not emb.normalized:
        raise ValueError("equalize requires a normalized embedding set")
    res = resolve_words(words, emb, lowercase_fallback, dedupe=False)
    if len(res.resolved) < 2:
        raise ValueError(
            f"equality set {tuple(words)!r} resolves to fewer than 2 words")
    vectors = emb.take(res.resolved)
    mu = vectors.mean(axis=0)
    mu_b = bias_component(mu, subspace)
    nu = mu - mu_b
    radicand = 1.0 - float(nu @ nu)
    if radicand < -1e-9:
        raise RadicandNegativeError(
            f"||mu - mu_B|| = {np.sqrt(nu @ nu):.6f} > 1; input vectors "
            "are not unit-norm")
    scale = np.sqrt(max(radicand, 0.0))
    # projecting the small differences, not subtracting two projections,
    # keeps their directions inside the subspace when members nearly coincide
    devs = bias_component(vectors - mu, subspace)
    dev_norms = np.linalg.norm(devs, axis=1)
    out: dict[str, np.ndarray] = {}
    for word, dev, dev_norm in zip(res.resolved, devs, dev_norms):
        if dev_norm <= RESIDUAL_TOL:
            raise EqualizeDegenerateError(word)
        out[word] = nu + scale * dev / dev_norm
    return out


def _neutralize_block(matrix: np.ndarray, subspace: BiasSubspace):
    """Vectorized neutralize over rows; rows inside the subspace are returned
    unchanged. Returns (new_rows, contained_mask)."""
    residual = matrix - bias_component(matrix, subspace)
    norms = np.sqrt((residual * residual).sum(axis=1))
    contained = norms <= RESIDUAL_TOL
    residual /= np.where(contained, 1.0, norms)[:, None]
    residual[contained] = matrix[contained]
    return residual, contained


def _warn_contained(vocab, idx) -> None:
    kept = [vocab[i] for i in idx[:5]]
    warnings.warn(
        f"{len(idx)} neutral word(s) lie inside the bias subspace and were "
        f"left unchanged (e.g. {kept})", WordSkippedWarning, stacklevel=3)


def _neutral_rows(emb: EmbeddingSet, specs: Sequence[CategorySpec],
                  plan: DebiasPlan) -> np.ndarray:
    """Boolean mask over ``emb.vocab`` of the rows to neutralize.

    The default rule selects every word outside all defining and equality
    sets of ``specs``; an explicit neutral list may share no row with those
    equality sets, and its missing words are reported in one warning.
    """
    if plan.neutral_words is None:
        excluded: set[str] = set()
        for spec in specs:
            excluded.update(spec.all_defining_words())
            excluded.update(spec.all_equality_words())
        if plan.lowercase_fallback:
            excluded.update({w.lower() for w in excluded})
        mask = np.ones(len(emb), dtype=bool)
        mask[[emb.index(w) for w in excluded if w in emb]] = False
        return mask
    res = resolve_words(plan.neutral_words, emb, plan.lowercase_fallback)
    for spec in specs:
        overlap = set(res.resolved).intersection(resolve_words(
            spec.all_equality_words(), emb, plan.lowercase_fallback).resolved)
        if overlap:
            raise ValueError(
                f"words {sorted(overlap)!r} appear in both the neutral "
                f"list and an equality set of {spec.name!r}")
    if res.missing:
        warnings.warn(f"{len(res.missing)} neutral word(s) not in vocabulary",
                      WordSkippedWarning, stacklevel=3)
    mask = np.zeros(len(emb), dtype=bool)
    mask[[emb.index(w) for w in res.resolved]] = True
    return mask


def hard_debias(emb: EmbeddingSet, subspace: BiasSubspace, plan: DebiasPlan,
                specs: Sequence[CategorySpec], *,
                neutral: np.ndarray | None = None) -> EmbeddingSet:
    """Neutralize neutral words and equalize the equality sets of ``specs``
    against one subspace; every other word is left unchanged.

    ``neutral`` is a boolean mask over ``emb.vocab`` of the rows to
    neutralize; ``None`` applies the plan's neutral rule to ``specs``.
    Per-word degeneracies (fully contained neutral words, degenerate
    equality members) and equality sets that cannot be equalized are skipped
    with a WordSkippedWarning rather than aborting the run. Vocabulary order
    is preserved.
    """
    if not emb.normalized:
        raise ValueError("hard_debias requires a normalized embedding set "
                         "(call normalize())")
    if neutral is None:
        neutral = _neutral_rows(emb, specs, plan)
    elif neutral.shape != (len(emb),):
        raise ShapeMismatchError(
            f"neutral mask has shape {neutral.shape}, vocabulary has {len(emb)} words")

    matrix = np.array(emb.matrix, copy=True)
    idx = np.flatnonzero(neutral)
    if idx.size:
        matrix[idx], contained = _neutralize_block(matrix[idx], subspace)
        if contained.any():
            _warn_contained(emb.vocab, idx[contained])

    # equality words are disjoint from the neutral rows, so their vectors in
    # the input set are still current here
    for spec in specs:
        for ws in spec.equality_sets:
            try:
                updated = equalize(ws, subspace, emb, plan.lowercase_fallback)
            except (ValueError, EqualizeDegenerateError, RadicandNegativeError) as exc:
                warnings.warn(f"equality set {tuple(ws)!r} skipped: {exc}",
                              WordSkippedWarning, stacklevel=2)
                continue
            for word, vec in updated.items():
                matrix[emb.index(word)] = vec

    return EmbeddingSet(emb.vocab, matrix)


def _apply_steps(matrix: np.ndarray, active: np.ndarray,
                 subspaces: Sequence[BiasSubspace], vocab) -> None:
    """Neutralize the ``active`` rows of ``matrix`` in place against each
    subspace in turn, as chained ``hard_debias`` steps would, one block of
    ``_BLOCK_ROWS`` rows at a time; a row inside a step's subspace is left
    unchanged at that step and reported in that step's warning. BLAS may
    round a product over a block differently from one over all rows, so
    results can differ from chained steps in the last bit.
    """
    contained = np.zeros((len(subspaces), len(matrix)), dtype=bool)
    for start in range(0, len(matrix), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        x, act = matrix[rows], active[rows]
        if not act.any():
            continue
        for subspace, hit in zip(subspaces, contained[:, rows]):
            new, inside = _neutralize_block(x, subspace)
            hit[:] = act & inside
            if not act.all():
                new[~act] = x[~act]
            x = new
        matrix[rows] = x
    for hit in contained:
        if hit.any():
            _warn_contained(vocab, np.flatnonzero(hit))


def run_plan(emb: EmbeddingSet, specs: Sequence[CategorySpec],
             plan: DebiasPlan) -> EmbeddingSet:
    """Execute a full debiasing plan and return the new embedding set.

    The plan is *fitted* on the lexicon rows: each step is one
    ``hard_debias`` call over the same plan-wide neutral rows, so under the
    default rule no step neutralizes any category's defining or equality
    words. The fitted steps are then *applied* to the neutral rows outside
    the lexicon in one blocked pass (:func:`_apply_steps`), which warns
    after the fit.
    """
    plan.validate(specs)
    if not emb.normalized:
        raise ValueError("run_plan requires a normalized embedding set "
                         "(call normalize())")
    neutral = _neutral_rows(emb, specs, plan)
    fit = emb.subset(lexicon_words(specs, plan.lowercase_fallback))
    fit_rows = np.array([emb.index(w) for w in fit.vocab], dtype=np.intp)
    fit_neutral = neutral[fit_rows]
    if plan.strategy is Strategy.SEQUENTIAL:
        by_name = {s.name: s for s in specs}
        steps = [[by_name[name]] for name in plan.category_order]
    else:
        steps = [list(specs)]
    current, fitted = fit, []
    for step in steps:
        source = fit if plan.frozen_subspaces else current
        subspaces = [bias_subspace(s, source, plan.k,
                                   double_center=plan.double_center,
                                   lowercase_fallback=plan.lowercase_fallback)
                     for s in step]
        if plan.strategy in (Strategy.SINGLE, Strategy.SEQUENTIAL):
            subspace = subspaces[0]
        else:
            subspace = compose(plan.strategy.value, subspaces).subspace
        current = hard_debias(current, subspace, plan, step, neutral=fit_neutral)
        fitted.append(subspace)
    matrix = np.array(emb.matrix)
    matrix[fit_rows] = current.matrix
    rest = neutral.copy()
    rest[fit_rows] = False
    _apply_steps(matrix, rest, fitted, emb.vocab)
    return EmbeddingSet(emb.vocab, matrix)
