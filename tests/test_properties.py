"""Numerical contracts and the config contract checked as properties over
generated inputs."""

import contextlib
import io
import json
import warnings

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from embdebias import (
    BiasSubspace,
    CategorySpec,
    DebiasPlan,
    EmbeddingSet,
    Strategy,
    bias_component,
    bias_subspace,
    compose,
    equalize,
    hard_debias,
    load_embeddings,
    neutralize,
    normalize,
    principal_components,
    run_plan,
    save_embeddings,
)
from embdebias.cli import build_parser, main
from embdebias.errors import EqualizeDegenerateError

from conftest import unit_rows

coords = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def orthonormal_subspaces(draw):
    """A (k, d) orthonormal subspace with 1 <= k < d <= 10."""
    d = draw(st.integers(2, 10))
    k = draw(st.integers(1, d - 1))
    basis = draw(arrays(np.float64, (d, k), elements=coords))
    assume(np.linalg.matrix_rank(basis, tol=1e-3) == k)
    q, _ = np.linalg.qr(basis)
    return BiasSubspace("b", q.T, np.zeros(k))


@st.composite
def subspace_and_vector(draw):
    subspace = draw(orthonormal_subspaces())
    w = draw(arrays(np.float64, subspace.dim, elements=coords))
    # neutralize is undefined inside the subspace; keep clear of it
    assume(np.linalg.norm(w - bias_component(w, subspace)) > 1e-3)
    return subspace, w


@settings(deadline=None)
@given(subspace_and_vector())
def test_neutralize_is_idempotent_with_unit_norm(case):
    subspace, w = case
    once = neutralize(w, subspace)
    assert abs(np.linalg.norm(once) - 1.0) < 1e-12
    np.testing.assert_allclose(subspace.components @ once, 0.0, atol=1e-9)
    np.testing.assert_allclose(neutralize(once, subspace), once, atol=1e-12)


@st.composite
def equality_sets(draw):
    subspace = draw(orthonormal_subspaces())
    n = draw(st.integers(2, 5))
    raw = draw(arrays(np.float64, (n, subspace.dim), elements=coords))
    assume((np.linalg.norm(raw, axis=1) > 1e-3).all())
    words = tuple(f"w{i}" for i in range(n))
    return subspace, EmbeddingSet(words, unit_rows(raw))


@settings(deadline=None)
@given(equality_sets())
def test_equalize_is_symmetric_with_one_shared_part(case):
    subspace, emb = case
    try:
        out = equalize(emb.vocab, subspace, emb)
    except EqualizeDegenerateError:
        assume(False)
    vectors = np.vstack([out[w] for w in emb.vocab])
    inside = bias_component(vectors, subspace)
    outside = vectors - inside
    np.testing.assert_allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(outside, np.broadcast_to(outside[0], outside.shape),
                               atol=1e-12)
    norms = np.linalg.norm(inside, axis=1)
    np.testing.assert_allclose(norms, norms[0], atol=1e-9)
    if len(emb) == 2:
        np.testing.assert_allclose(inside[0], -inside[1], atol=1e-9)


# any character except ASCII whitespace and unencodable surrogates
tokens = st.text(st.characters(blacklist_characters=" \t\n\r\x0b\x0c",
                               blacklist_categories=("Cs",)),
                 min_size=1, max_size=8)


@settings(deadline=None, max_examples=50)
@given(words=st.lists(tokens, min_size=1, max_size=6, unique=True),
       fmt=st.sampled_from(["word2vec-text", "glove-text"]),
       data=st.data())
def test_loader_round_trips_tokens_without_ascii_whitespace(tmp_path_factory, words,
                                                            fmt, data):
    matrix = data.draw(arrays(np.float64, (len(words), 3),
                              elements=st.floats(-1e3, 1e3, allow_nan=False)))
    path = tmp_path_factory.mktemp("rt") / "e.txt"
    save_embeddings(EmbeddingSet(tuple(words), matrix), path, fmt)
    back = load_embeddings(path, fmt)
    assert back.vocab == tuple(words)
    np.testing.assert_array_equal(back.matrix, matrix)


def planted_set(seed):
    """Unit rows for three categories, each planted along its own direction,
    plus filler words. Every category equalizes its first defining pair and
    ``c0`` also the first pair of ``c1``, so frozen and recomputed sequential
    subspaces differ."""
    rng = np.random.default_rng(seed)
    dim = 16
    words, rows, specs = [], [], []
    for c in range(3):
        direction = unit_rows(rng.standard_normal((1, dim)))[0]
        defining = []
        for j in range(3):
            base = unit_rows(rng.standard_normal((1, dim)))[0]
            pair = (f"c{c}a{j}", f"c{c}b{j}")
            words += pair
            rows += [base + 0.5 * direction, base - 0.5 * direction]
            defining.append(pair)
        targets = tuple(f"c{c}t{i}" for i in range(3))
        attributes = ((f"c{c}x", f"c{c}y"), (f"c{c}z",))
        lexicon = targets + attributes[0] + attributes[1]
        words += lexicon
        rows += list(rng.standard_normal((len(lexicon), dim)))
        equality = [defining[0]] + ([("c1a0", "c1b0")] if c == 0 else [])
        specs.append(CategorySpec(f"c{c}", tuple(defining), tuple(equality),
                                  (targets,), attributes))
    words += [f"fill{i}" for i in range(20)]
    rows += list(rng.standard_normal((20, dim)))
    return EmbeddingSet(tuple(words), unit_rows(np.vstack(rows))), specs


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 2),
       order=st.permutations(["c0", "c1", "c2"]),
       fillers=st.sets(st.integers(0, 19)),
       kind=st.sampled_from(["seq", "frozen", "sum", "mean", "josec"]))
def test_plan_on_a_lexicon_closure_matches_full_vocabulary(seed, k, order,
                                                           fillers, kind):
    emb, specs = planted_set(seed)
    strategy = "sequential" if kind in ("seq", "frozen") else kind
    plan = DebiasPlan(strategy=Strategy(strategy), k=k, category_order=tuple(order),
                      frozen_subspaces=kind == "frozen")
    closure = [w for s in specs for w in s.all_words()] + [f"fill{i}" for i in fillers]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        full = run_plan(emb, specs, plan)
        cut = run_plan(emb.subset(closure), specs, plan)
    assert cut.vocab == tuple(w for w in emb.vocab if w in set(closure))
    np.testing.assert_allclose(cut.matrix, full.take(cut.vocab), rtol=0, atol=1e-12)


def chained_hard_debias(emb, specs, plan):
    """A plan run step by step as public ``hard_debias`` calls on the whole
    set, each over the plan's neutral rows; the reference for ``run_plan``."""
    if plan.neutral_words is None:
        excluded = {w for s in specs
                    for w in s.all_defining_words() + s.all_equality_words()}
        if plan.lowercase_fallback:
            excluded |= {w.lower() for w in excluded}
        neutral = np.array([w not in excluded for w in emb.vocab])
    else:
        named = set(plan.neutral_words)
        if plan.lowercase_fallback:
            named |= {w.lower() for w in named if w not in emb}
        neutral = np.isin(emb.vocab, sorted(named))
    if plan.strategy is Strategy.SEQUENTIAL:
        by_name = {s.name: s for s in specs}
        steps = [[by_name[name]] for name in plan.category_order]
    else:
        steps = [list(specs)]
    current = emb
    for step in steps:
        source = emb if plan.frozen_subspaces else current
        subspaces = [bias_subspace(s, source, plan.k,
                                   lowercase_fallback=plan.lowercase_fallback)
                     for s in step]
        subspace = (subspaces[0] if plan.strategy in (Strategy.SINGLE,
                                                      Strategy.SEQUENTIAL)
                    else compose(plan.strategy.value, subspaces).subspace)
        current = hard_debias(current, subspace, plan, step, neutral=neutral)
    return current


def _capitalized(spec):
    """``spec`` with every word capitalized, so it resolves only through the
    lowercase fallback."""
    fields = ("defining_sets", "equality_sets", "target_words", "attribute_sets")
    return CategorySpec(spec.name, *(
        tuple(tuple(w.capitalize() for w in ws) for ws in getattr(spec, f))
        for f in fields))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 2),
       order=st.permutations(["c0", "c1", "c2"]),
       kind=st.sampled_from(["single", "seq", "frozen", "sum", "mean", "josec"]),
       lowercase=st.booleans(), explicit=st.booleans())
def test_run_plan_matches_chained_hard_debias(seed, k, order, kind, lowercase,
                                              explicit):
    emb, specs = planted_set(seed)
    if lowercase:
        specs = [_capitalized(s) if s.name != "c2" else s for s in specs]
    if kind == "single":
        specs = specs[:1]
    neutral = None
    if explicit:
        # defining words outside every equality set, fillers (capitalized
        # under the fallback) and one word that is in no form in the set
        neutral = ("c0a1", "c1b2", "c2a2", "absent",
                   *((f"Fill{i}" if lowercase else f"fill{i}") for i in range(0, 20, 2)))
    strategy = {"seq": "sequential", "frozen": "sequential"}.get(kind, kind)
    plan = DebiasPlan(strategy=Strategy(strategy), k=k, category_order=tuple(order),
                      neutral_words=neutral, frozen_subspaces=kind == "frozen",
                      lowercase_fallback=lowercase)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run_plan(emb, specs, plan)
    missing = [str(w.message) for w in caught if "not in vocabulary" in str(w.message)]
    assert missing == (["1 neutral word(s) not in vocabulary"] if explicit else [])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = chained_hard_debias(emb, specs, plan)
    assert out.vocab == emb.vocab
    np.testing.assert_allclose(out.matrix, expected.matrix, rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 2),
       order=st.permutations(["c0", "c1", "c2"]),
       kind=st.sampled_from(["single", "frozen", "sum", "mean", "josec"]))
def test_run_plan_matches_the_projector_product_off_the_lexicon(seed, k, order, kind):
    # Every subspace of these plans is built on the input alone. A neutral
    # row that no step contains is rescaled by a positive scalar after each
    # step, so the plan maps it to normalize(x (I - C1'C1) (I - C2'C2) ...),
    # steps in plan order; the product is formed here in plain numpy and
    # shares no projection code with run_plan.
    emb, specs = planted_set(seed)
    if kind == "single":
        specs = specs[:1]
    strategy = "sequential" if kind == "frozen" else kind
    plan = DebiasPlan(strategy=Strategy(strategy), k=k, category_order=tuple(order),
                      frozen_subspaces=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = run_plan(emb, specs, plan)
        subspaces = {s.name: bias_subspace(s, emb, k) for s in specs}
        if kind == "frozen":
            steps = [subspaces[name] for name in order]
        elif kind == "single":
            steps = list(subspaces.values())
        else:
            steps = [compose(kind, list(subspaces.values())).subspace]
    product = np.eye(emb.dim)
    for step in steps:
        product = product @ (np.eye(emb.dim) - step.components.T @ step.components)
    lexicon = {w for s in specs for w in s.all_words()}
    rows = [i for i, w in enumerate(emb.vocab) if w not in lexicon]
    projected = emb.matrix[rows] @ product
    norms = np.linalg.norm(projected, axis=1)
    assume((norms > 1e-6).all())
    np.testing.assert_allclose(out.matrix[rows], projected / norms[:, None],
                               rtol=0, atol=1e-12)


@settings(deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
              elements=st.floats(-1e3, 1e3, allow_nan=False)))
def test_normalize_gives_a_normalized_set(matrix):
    assume((np.linalg.norm(matrix, axis=1) > 1e-6).all())
    emb = EmbeddingSet(tuple(f"w{i}" for i in range(len(matrix))), matrix)
    assert normalize(emb).normalized


@settings(deadline=None)
@given(matrix=arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 6)),
                     elements=coords),
       k=st.integers(1, 6))
def test_principal_components_are_orthonormal(matrix, k):
    assume(np.abs(matrix).max() > 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert principal_components(matrix, k).orthonormal


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 2))
def test_hard_debias_with_a_pca_subspace_keeps_the_set_normalized(seed, k):
    emb, specs = planted_set(seed)
    assert emb.normalized
    subspace = bias_subspace(specs[0], emb, k)
    assert subspace.orthonormal
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = hard_debias(emb, subspace, DebiasPlan(strategy=Strategy.SINGLE, k=k),
                          specs[:1])
    assert out.normalized


# The JSON type each config key takes, per subcommand, written out here
# independently of the parser that checks it.
COMMON_OPTIONS = {"out": str, "manifest": str}
# the options of every subcommand that loads an embedding file
EMBEDDING_OPTIONS = {"embeddings": str, "format": str, "normalize": bool,
                     "lowercase_fallback": bool}
# the options of every subcommand that builds a bias subspace
CONSTRUCTION_OPTIONS = {"k": int, "double_center": bool, "strict_degenerate": bool}
HYPOTHESIS_OPTIONS = {"ground_truth": str, "projection_csv": str, "seed": int}
CONFIG_OPTIONS = {
    "subspace": {**EMBEDDING_OPTIONS, **CONSTRUCTION_OPTIONS, "spec": list,
                 "strategy": str},
    "debias": {**EMBEDDING_OPTIONS, **CONSTRUCTION_OPTIONS, "specs": list,
               "strategy": str, "order": str, "all_orders": bool,
               "frozen_subspaces": bool, "neutral_words": str},
    "eval-mac": {**EMBEDDING_OPTIONS, "specs": list, "baseline": str,
                 "f_table": str},
    "eval-eq": {"counts": str},
    "validate-hypothesis": {**EMBEDDING_OPTIONS, **CONSTRUCTION_OPTIONS,
                            **HYPOTHESIS_OPTIONS, "specs": list},
    "report": {**EMBEDDING_OPTIONS, **CONSTRUCTION_OPTIONS, **HYPOTHESIS_OPTIONS,
               "specs": list, "debiased": str, "pipeline": bool,
               "frozen_subspaces": bool, "json": str},
}
# JSON values by kind; a generated list is empty or holds no strings, so it is
# the wrong kind for every key
_JSON_VALUES = {
    int: st.integers(-10, 10),
    float: st.floats(-10, 10, allow_nan=False),
    bool: st.booleans(),
    str: st.text(max_size=5),
    list: st.lists(st.integers(), max_size=2),
    dict: st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    type(None): st.none(),
}


def test_config_options_are_the_parsers_dests():
    sub = next(a for a in build_parser()._actions if a.choices)
    for command, parser in sub.choices.items():
        dests = {a.dest for a in parser._actions
                 if a.option_strings and a.dest not in ("help", "config")}
        assert dests == set(COMMON_OPTIONS) | set(CONFIG_OPTIONS[command])


@st.composite
def wrong_type_configs(draw):
    """(subcommand, key, value): an option given a JSON value of the wrong
    kind, or an unknown key."""
    command = draw(st.sampled_from(sorted(CONFIG_OPTIONS)))
    options = {**COMMON_OPTIONS, **CONFIG_OPTIONS[command]}
    unknown = st.from_regex(r"[a-z_]{1,12}", fullmatch=True).filter(
        lambda k: k not in options)
    key = draw(st.sampled_from(sorted(options)) | unknown)
    kinds = [t for t in _JSON_VALUES if t is not options.get(key) or t is list]
    value = draw(st.sampled_from(kinds).flatmap(_JSON_VALUES.get))
    return command, key, value


@settings(deadline=None, max_examples=150)
@given(case=wrong_type_configs())
@example(case=("debias", "k", [2]))
@example(case=("debias", "specs", 5))
@example(case=("debias", "embeddings", ["e.txt"]))
@example(case=("debias", "out", 7))
@example(case=("debias", "neutral_words", 3))
@example(case=("debias", "k", True))
@example(case=("debias", "k", 1.7))
@example(case=("debias", "normalize", "false"))
@example(case=("debias", "frozen_subspace", True))
@example(case=("debias", "pipeline", True))
@example(case=("report", "specs", []))
@example(case=("subspace", "seed", None))
@example(case=("eval-eq", "seed", 5))
@example(case=("eval-eq", "embeddings", "e.txt"))
def test_config_of_the_wrong_type_exits_2(tmp_path_factory, case):
    command, key, value = case
    config = tmp_path_factory.mktemp("cfg") / "c.json"
    config.write_text(json.dumps({key: value}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--config", str(config)]) == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and repr(key) in lines[0]
