import numpy as np
import pytest

from embdebias import (
    BiasSubspace,
    CategorySpec,
    bias_subspace,
    centered_differences,
    load_subspace,
    principal_components,
    save_subspace,
)
from embdebias.errors import (
    FatalValidationError,
    RankDeficiencyWarning,
    RankDeficientError,
)

from conftest import make_set, unit_rows


def gram_eig_oracle(matrix, k):
    """Independent PCA route: eigendecomposition of the d x d Gram matrix."""
    matrix = np.asarray(matrix, dtype=np.float64)
    evals, evecs = np.linalg.eigh(matrix.T @ matrix)
    order = np.argsort(evals)[::-1]
    comps = evecs[:, order[:k]].T
    variances = evals[order[:k]] / max(matrix.shape[0] - 1, 1)
    return comps, variances


def test_centered_differences_two_point():
    emb = make_set(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
    spec = CategorySpec("c", (("a", "b"),))
    rows = centered_differences(spec, emb)
    np.testing.assert_allclose(rows, [[0.5, -0.5], [-0.5, 0.5]])


def test_centered_differences_singleton_is_zero_row():
    emb = make_set(["a"], [[1.0, 0.0]])
    rows = centered_differences(CategorySpec("c", (("a",),)), emb)
    np.testing.assert_array_equal(rows, [[0.0, 0.0]])


def test_centered_differences_row_count():
    emb = make_set(list("abcde"), unit_rows(np.random.default_rng(0).standard_normal((5, 3))))
    spec = CategorySpec("c", (("a", "b"), ("c", "d", "e")))
    assert centered_differences(spec, emb).shape == (5, 3)


def test_centered_differences_requires_normalized():
    emb = make_set(["a", "b"], [[2.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="normalized"):
        centered_differences(CategorySpec("c", (("a", "b"),)), emb)


def test_centered_differences_fatal_on_empty_set():
    emb = make_set(["a"], [[1.0, 0.0]])
    with pytest.raises(FatalValidationError):
        centered_differences(CategorySpec("c", (("zz",),)), emb)


def test_pca_rank_one_pair():
    sub = principal_components(np.array([[1.0, 0.0], [-1.0, 0.0]]), 1)
    np.testing.assert_allclose(sub.components, [[1.0, 0.0]], atol=1e-15)


def test_pca_axis_aligned_ordering():
    sub = principal_components(np.array([[2.0, 0.0], [0.0, 1.0]]), 2)
    np.testing.assert_allclose(sub.components, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(sub.explained_variance, [4.0, 1.0])


def test_pca_matches_gram_oracle():
    rng = np.random.default_rng(21)
    matrix = rng.standard_normal((20, 5))
    sub = principal_components(matrix, 3)
    oracle_comps, oracle_vars = gram_eig_oracle(matrix, 3)
    for mine, ref, v_mine, v_ref in zip(sub.components, oracle_comps,
                                        sub.explained_variance, oracle_vars):
        assert abs(float(mine @ ref)) > 1 - 1e-9
        assert abs(v_mine - v_ref) <= 1e-9 * v_ref
    # spec-level invariant checks
    gram = sub.components @ sub.components.T
    assert np.abs(gram - np.eye(3)).max() < 1e-8
    assert (np.diff(sub.explained_variance) <= 1e-12).all()


def test_pca_sign_rule():
    rng = np.random.default_rng(5)
    sub = principal_components(rng.standard_normal((30, 8)), 4)
    for row in sub.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_pca_scale_equivariance():
    rng = np.random.default_rng(9)
    matrix = rng.standard_normal((12, 4))
    a = principal_components(matrix, 2)
    b = principal_components(3.0 * matrix, 2)
    np.testing.assert_allclose(a.components, b.components, atol=1e-12)
    np.testing.assert_allclose(9.0 * a.explained_variance, b.explained_variance,
                               rtol=1e-12)


def test_pca_rank_deficiency_warns_and_truncates():
    matrix = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.warns(RankDeficiencyWarning):
        sub = principal_components(matrix, 2)
    assert sub.k == 1


def test_pca_k_exceeding_min_dim_warns():
    rng = np.random.default_rng(2)
    with pytest.warns(RankDeficiencyWarning):
        sub = principal_components(rng.standard_normal((2, 5)), 4)
    assert sub.k == 2


def test_pca_all_zero_rejected():
    with pytest.raises(RankDeficientError):
        principal_components(np.zeros((3, 4)), 1)


def test_pca_invalid_k():
    with pytest.raises(ValueError):
        principal_components(np.eye(3), 0)


def test_pca_double_center_flag():
    matrix = np.array([[2.0, 1.0], [2.0, -1.0], [2.0, 3.0]])
    centered = principal_components(matrix, 1, double_center=True)
    # after removing the global mean only the second axis varies
    np.testing.assert_allclose(np.abs(centered.components), [[0.0, 1.0]], atol=1e-12)


def _paired_embedding(pairs, dim, rng):
    """Unit vectors m*cos(a) +/- dir*sin(a) per pair; differences are exactly
    along the planted directions."""
    words, rows = [], []
    for i, (direction, sin_a) in enumerate(pairs):
        m = np.zeros(dim)
        m[10 + i] = 1.0
        cos_a = np.sqrt(1 - sin_a ** 2)
        words += [f"p{i}a", f"p{i}b"]
        rows += [m * cos_a + direction * sin_a, m * cos_a - direction * sin_a]
    return make_set(words, np.vstack(rows))


def test_bias_subspace_planted_direction():
    g = np.zeros(16)
    g[0] = 1.0
    emb = _paired_embedding([(g, 0.4), (g, 0.3)], 16, None)
    spec = CategorySpec("gender", (("p0a", "p0b"), ("p1a", "p1b")))
    sub = bias_subspace(spec, emb, 1)
    assert abs(float(sub.components[0] @ g)) > 1 - 1e-12


def test_bias_subspace_planted_plane():
    g = np.zeros(16)
    g[0] = 1.0
    h = np.zeros(16)
    h[1] = 1.0
    emb = _paired_embedding([(g, 0.4), (h, 0.3)], 16, None)
    spec = CategorySpec("gender", (("p0a", "p0b"), ("p1a", "p1b")))
    sub = bias_subspace(spec, emb, 2)
    span = sub.components.T @ sub.components
    for v in (g, h):
        np.testing.assert_allclose(span @ v, v, atol=1e-10)


def test_bias_subspace_multiclass_matches_oracle():
    rng = np.random.default_rng(33)
    words = [f"w{i}" for i in range(9)]
    emb = make_set(words, unit_rows(rng.standard_normal((9, 6))))
    spec = CategorySpec("race", ((words[0], words[1], words[2]),
                                 (words[3], words[4], words[5]),
                                 (words[6], words[7], words[8])))
    sub = bias_subspace(spec, emb, 2)
    oracle_comps, oracle_vars = gram_eig_oracle(centered_differences(spec, emb), 2)
    for mine, ref, v_mine, v_ref in zip(sub.components, oracle_comps,
                                        sub.explained_variance, oracle_vars):
        assert abs(float(mine @ ref)) > 1 - 1e-9
        assert abs(v_mine - v_ref) <= 1e-9 * max(v_ref, 1e-30)


def test_binary_pairs_match_pair_difference_covariance():
    rng = np.random.default_rng(44)
    dim, n_pairs = 20, 5
    g = np.zeros(dim)
    g[0] = 1.0
    pairs = [(g, 0.5 - 0.04 * i) for i in range(n_pairs)]
    emb = _paired_embedding(pairs, dim, rng)
    sets = tuple((f"p{i}a", f"p{i}b") for i in range(n_pairs))
    sub = bias_subspace(CategorySpec("gender", sets), emb, 1)
    # brute-force oracle: top eigenvector of the pair-difference covariance
    diffs = np.vstack([emb.vector(a) - emb.vector(b) for a, b in sets])
    evals, evecs = np.linalg.eigh(diffs.T @ diffs)
    top = evecs[:, np.argmax(evals)]
    assert abs(float(sub.components[0] @ top)) > 0.99


def test_subspace_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(6)
    sub = principal_components(rng.standard_normal((10, 4)), 3, label="gender")
    path = tmp_path / "g.sub"
    save_subspace(sub, path)
    assert path.read_text().splitlines()[0] == "gender 3 4"
    back = load_subspace(path)
    assert back.label == "gender"
    assert back.orthonormal
    np.testing.assert_array_equal(back.components, sub.components)


def test_save_subspace_rejects_whitespace_label():
    sub = BiasSubspace("a b", np.array([[1.0, 0.0]]), [0.0])
    with pytest.raises(ValueError):
        save_subspace(sub, "/tmp/never-written.sub")


def test_load_subspace_malformed(tmp_path):
    from embdebias.errors import MalformedLineError
    path = tmp_path / "bad.sub"
    path.write_text("gender 2 3\n1 0 0\n")
    with pytest.raises(MalformedLineError):
        load_subspace(path)
    path.write_text("gender x 3\n1 0 0\n")
    with pytest.raises(MalformedLineError):
        load_subspace(path)
    # errors name the physical line, and only \n breaks a line
    for text, message in (("g 2 3\n\n1 0 0\n\n0 1\n", "line 5: expected 3 values"),
                          ("\ng 1 2\n1\u20280\n", "line 3: expected 2 values, got 1"),
                          ("\n\ng 1\n1 0\n", "line 3: header")):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedLineError, match=message):
            load_subspace(path)


class TestBiasSubspaceInvariants:
    def test_rows_must_be_unit(self):
        with pytest.raises(ValueError):
            BiasSubspace("x", np.array([[2.0, 0.0]]), [0.0])

    def test_orthonormality_enforced_when_flagged(self):
        comps = unit_rows(np.array([[1.0, 0.0], [0.9, 0.1]]))
        assert not BiasSubspace("x", comps, [0.0, 0.0]).orthonormal
        assert BiasSubspace("x", np.eye(2), [0.0, 0.0]).orthonormal
        nearly = unit_rows(np.array([[1.0, 0.0], [1e-9, 1.0]]))
        assert BiasSubspace("x", nearly, [0.0, 0.0]).orthonormal  # within ORTHO_TOL
        with pytest.raises(TypeError):
            BiasSubspace("x", comps, [0.0, 0.0], orthonormal=False)

    def test_variance_must_be_sorted(self):
        with pytest.raises(ValueError):
            BiasSubspace("x", np.eye(2), [1.0, 2.0])

    def test_k_cannot_exceed_dim(self):
        with pytest.raises(ValueError):
            BiasSubspace("x", np.vstack([np.eye(2), [1.0, 0.0]]), [1, 1, 1])

    def test_components_read_only(self):
        sub = BiasSubspace("x", np.eye(2), [1.0, 1.0])
        with pytest.raises(ValueError):
            sub.components[0, 0] = 2.0
