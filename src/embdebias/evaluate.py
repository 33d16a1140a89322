"""Bias metrics as pure computations.

MAC is the grand mean of cosine distances between target words and attribute
sets: for target vector S_i and attribute set A_j,

    f(S_i, A_j) = (1/|A_j|) * sum_a (1 - cos_sim(S_i, a))
    MAC(S, A)   = mean over all (i, j) of f(S_i, A_j)

Each f entry lies in [0, 2]; a larger MAC means more bias was removed.
Significance of a change is assessed with a paired t-test over the flattened
f tables. The extrinsic equality-difference metrics sum, over demographic
groups, the absolute deviations of group false-positive/false-negative rates
from the overall rates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .embeddings import ZERO_NORM, EmbeddingSet
from .errors import (
    EmptyAttributeSetError,
    LengthMismatchError,
    NoValidGroupsError,
    WordSkippedWarning,
    ZeroVarianceWarning,
    ZeroVectorError,
)
from .wordsets import CategorySpec, resolve_words


def mean_cos_distance(target: np.ndarray, attributes: np.ndarray) -> float:
    """Mean cosine distance between one target vector and a set of attribute
    vectors (rows); in [0, 2]."""
    target = np.asarray(target, dtype=np.float64)
    attributes = np.atleast_2d(np.asarray(attributes, dtype=np.float64))
    if attributes.shape[0] == 0:
        raise EmptyAttributeSetError("attribute set is empty")
    t_norm = np.linalg.norm(target)
    if t_norm < ZERO_NORM:
        raise ZeroVectorError("<target>")
    a_norms = np.linalg.norm(attributes, axis=1)
    if (a_norms < ZERO_NORM).any():
        raise ZeroVectorError("<attribute>")
    cos = (attributes @ target) / (a_norms * t_norm)
    return float(np.mean(1.0 - cos))


@dataclass(frozen=True)
class MacReport:
    """MAC for one category with the full f table kept for t-testing."""

    category: str
    mac: float
    table: np.ndarray            # (|S|, |A|), entry (i, j) = f(S_i, A_j)
    targets: tuple[str, ...]
    n_samples: int

    def __post_init__(self):
        table = np.array(self.table, dtype=np.float64, copy=True)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)


def mac(targets: np.ndarray, attribute_sets: Sequence[np.ndarray],
        category: str = "", target_words: Sequence[str] = ()) -> MacReport:
    """MAC of target vectors (rows) against a list of attribute matrices."""
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if targets.shape[0] == 0:
        raise ValueError("no target vectors")
    if len(attribute_sets) == 0:
        raise EmptyAttributeSetError("no attribute sets")
    table = np.empty((targets.shape[0], len(attribute_sets)))
    for i, s_vec in enumerate(targets):
        for j, attrs in enumerate(attribute_sets):
            table[i, j] = mean_cos_distance(s_vec, attrs)
    return MacReport(
        category=category,
        mac=float(table.mean()),
        table=table,
        targets=tuple(target_words),
        n_samples=table.size,
    )


def mac_for_category(spec: CategorySpec, emb: EmbeddingSet,
                     lowercase_fallback: bool = False) -> MacReport:
    """Resolve a category's target and attribute words and compute its MAC.

    Target lists are flattened (first occurrence wins); attribute sets that
    resolve to zero words are skipped with a warning.
    """
    flat_targets = [w for ws in spec.target_words for w in ws]
    res = resolve_words(flat_targets, emb, lowercase_fallback)
    if res.missing:
        warnings.warn(
            f"{spec.name}: {len(res.missing)} target word(s) out of vocabulary",
            WordSkippedWarning, stacklevel=2)
    if not res.resolved:
        raise ValueError(f"category {spec.name!r} has no in-vocabulary target words")
    attribute_sets = []
    for i, ws in enumerate(spec.attribute_sets):
        a_res = resolve_words(ws, emb, lowercase_fallback)
        if a_res.missing:
            warnings.warn(
                f"{spec.name}: attribute set {i} missing {len(a_res.missing)} word(s)",
                WordSkippedWarning, stacklevel=2)
        if not a_res.resolved:
            warnings.warn(f"{spec.name}: attribute set {i} skipped (all words "
                          "out of vocabulary)", WordSkippedWarning, stacklevel=2)
            continue
        attribute_sets.append(emb.take(a_res.resolved))
    if not attribute_sets:
        raise EmptyAttributeSetError(
            f"category {spec.name!r} has no resolvable attribute sets")
    return mac(emb.take(res.resolved), attribute_sets,
               category=spec.name, target_words=res.resolved)


# --- paired t-test -----------------------------------------------------------

def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta (Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) to near machine precision; a, b > 0 and x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return x
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: int) -> float:
    """P(T <= t) for Student's t with ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail


def student_t_two_sided_p(t: float, df: int) -> float:
    """Two-tailed p-value for an observed t statistic."""
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


class TTestResult(NamedTuple):
    t: float
    p: float
    df: int


def paired_t_test(before: Sequence[float], after: Sequence[float]) -> TTestResult:
    """Paired t-test on ``after - before`` with a two-tailed p-value.

    Zero-variance differences are degenerate: a zero mean reports (0, 1) and
    a nonzero mean reports a +/-inf sentinel with p = 0 plus a
    ZeroVarianceWarning, rather than fabricating a finite statistic.
    """
    before = np.asarray(before, dtype=np.float64).reshape(-1)
    after = np.asarray(after, dtype=np.float64).reshape(-1)
    if before.shape != after.shape:
        raise LengthMismatchError(
            f"paired samples differ in length: {before.size} vs {after.size}")
    n = before.size
    if n < 2:
        raise ValueError("paired t-test requires at least 2 pairs")
    diff = after - before
    mean = float(diff.mean())
    sd = float(diff.std(ddof=1))
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, 1.0, df)
        warnings.warn("zero-variance differences with nonzero mean; "
                      "reporting an infinite t sentinel", ZeroVarianceWarning,
                      stacklevel=2)
        return TTestResult(math.copysign(math.inf, mean), 0.0, df)
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t, student_t_two_sided_p(t, df), df)


# --- equality differences ----------------------------------------------------

@dataclass(frozen=True)
class GroupOutcome:
    """Confusion counts of one demographic group (or of the whole set)."""

    label: str
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")

    @property
    def fpr(self) -> float | None:
        """FP / (FP + TN); None when there are no negatives."""
        denom = self.fp + self.tn
        return self.fp / denom if denom > 0 else None

    @property
    def fnr(self) -> float | None:
        """FN / (FN + TP); None when there are no positives."""
        denom = self.fn + self.tp
        return self.fn / denom if denom > 0 else None


class EqualityDifferences(NamedTuple):
    fped: float
    fned: float


def equality_differences(outcomes: Sequence[GroupOutcome],
                         overall: GroupOutcome) -> EqualityDifferences:
    """Sum of absolute deviations of group FPR/FNR from the overall rates.

    Groups with an undefined rate are skipped from that sum with a warning
    (zero-filling would deflate the difference). Raises NoValidGroupsError if
    either sum would have no contributing group, and ValueError if the
    overall rates themselves are undefined.
    """
    if not outcomes:
        raise NoValidGroupsError("no groups given")
    if overall.fpr is None or overall.fnr is None:
        raise ValueError("overall FPR/FNR are undefined (zero denominators)")
    fp_devs, fn_devs = [], []
    for g in outcomes:
        if g.fpr is None:
            warnings.warn(f"group {g.label!r} has no negatives; skipped from FPED",
                          WordSkippedWarning, stacklevel=2)
        else:
            fp_devs.append(abs(overall.fpr - g.fpr))
        if g.fnr is None:
            warnings.warn(f"group {g.label!r} has no positives; skipped from FNED",
                          WordSkippedWarning, stacklevel=2)
        else:
            fn_devs.append(abs(overall.fnr - g.fnr))
    if not fp_devs or not fn_devs:
        raise NoValidGroupsError("no group has defined rates for both metrics")
    # fsum keeps the sums exactly invariant under group reordering
    return EqualityDifferences(math.fsum(fp_devs), math.fsum(fn_devs))
