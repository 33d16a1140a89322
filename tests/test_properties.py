"""Numerical contracts checked as properties over generated inputs."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from embdebias import (
    BiasSubspace,
    EmbeddingSet,
    bias_component,
    equalize,
    load_embeddings,
    neutralize,
    save_embeddings,
)
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
    return subspace, EmbeddingSet(words, unit_rows(raw), normalized=True)


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
