"""Bias-subspace identification, composition, and hard-debiasing for static
word embeddings, with MAC and equality-difference evaluation."""

__version__ = "0.1.0"

from .embeddings import (
    EmbeddingSet,
    load_embeddings,
    normalize,
    save_embeddings,
    sniff_format,
)
from .wordsets import (
    CategorySpec,
    SetResolution,
    ValidationReport,
    bundled_spec_names,
    load_bundled_spec,
    load_category_spec,
    resolve_words,
    validate_against_vocab,
)
from .subspace import (
    BiasSubspace,
    bias_subspace,
    centered_differences,
    load_subspace,
    principal_components,
    save_subspace,
)
from .compose import (
    CompositionResult,
    HypothesisReport,
    compose,
    direction_subspace_cosine,
    distance_to_subspace,
    josec_direction,
    josec_objective,
    subspace_mean,
    subspace_sum,
    validate_hypothesis,
)
from .debias import (
    DebiasPlan,
    Strategy,
    bias_component,
    equalize,
    hard_debias,
    neutralize,
    run_plan,
)
from .evaluate import (
    EqualityDifferences,
    GroupOutcome,
    MacReport,
    TTestResult,
    equality_differences,
    mac,
    mac_for_category,
    mean_cos_distance,
    paired_t_test,
    regularized_incomplete_beta,
    student_t_cdf,
    student_t_two_sided_p,
)
from . import errors

__all__ = [
    "EmbeddingSet", "load_embeddings", "normalize", "save_embeddings",
    "sniff_format",
    "CategorySpec", "SetResolution", "ValidationReport", "bundled_spec_names",
    "load_bundled_spec", "load_category_spec", "resolve_words",
    "validate_against_vocab",
    "BiasSubspace", "bias_subspace", "centered_differences", "load_subspace",
    "principal_components", "save_subspace",
    "CompositionResult", "HypothesisReport", "compose",
    "direction_subspace_cosine", "distance_to_subspace", "josec_direction",
    "josec_objective", "subspace_mean", "subspace_sum", "validate_hypothesis",
    "DebiasPlan", "Strategy", "bias_component", "equalize", "hard_debias",
    "neutralize", "run_plan",
    "EqualityDifferences", "GroupOutcome", "MacReport", "TTestResult",
    "equality_differences", "mac", "mac_for_category", "mean_cos_distance",
    "paired_t_test", "regularized_incomplete_beta", "student_t_cdf",
    "student_t_two_sided_p",
    "errors",
]
