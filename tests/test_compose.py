import numpy as np
import pytest

from embdebias import (
    BiasSubspace,
    CategorySpec,
    DebiasPlan,
    Strategy,
    compose,
    direction_subspace_cosine,
    distance_to_subspace,
    josec_direction,
    josec_objective,
    run_plan,
    subspace_mean,
    subspace_sum,
    validate_hypothesis,
)
from embdebias.errors import (
    DegenerateTieWarning,
    NotUnitError,
    RankDeficiencyWarning,
    ShapeMismatchError,
    ZeroRowError,
)

from conftest import make_set, random_orthonormal, unit_rows


def sub(rows, label="s"):
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    return BiasSubspace(label, rows, np.zeros(rows.shape[0]))


class TestSumMean:
    def test_sum_identical_inputs(self):
        out = subspace_sum([sub([[1.0, 0.0]]), sub([[1.0, 0.0]])])
        np.testing.assert_allclose(out.components, [[1.0, 0.0]])
        assert out.label == "SUM"

    def test_sum_symmetry(self):
        out = subspace_sum([sub([[1.0, 0.0]]), sub([[0.0, 1.0]])])
        np.testing.assert_allclose(out.components, [[2 ** -0.5, 2 ** -0.5]])

    def test_sum_cancellation(self):
        with pytest.raises(ZeroRowError):
            subspace_sum([sub([[1.0, 0.0]]), sub([[-1.0, 0.0]])])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            subspace_sum([sub([[1.0, 0.0]]), sub([[1.0, 0.0, 0.0]])])

    def test_fewer_components_sums_the_leading_ones(self):
        with pytest.warns(RankDeficiencyWarning, match="leading 1 component"):
            out = subspace_sum([sub([[1.0, 0.0, 0.0]]), sub(np.eye(3)[1::-1])])
        np.testing.assert_allclose(out.components, [[2 ** -0.5, 2 ** -0.5, 0.0]])
        with pytest.warns(RankDeficiencyWarning):
            assert subspace_mean([sub(np.eye(3)[:2]), sub([[0.0, 1.0, 0.0]])]).k == 1

    def test_mean_of_identical_is_identity(self):
        s = sub(np.eye(3)[:2])
        out = subspace_mean([s, s, s])
        np.testing.assert_allclose(out.components, s.components)

    def test_mean_single_input_unchanged(self):
        s = sub([[0.6, 0.8]])
        np.testing.assert_allclose(subspace_mean([s]).components, s.components)

    def test_sum_equals_mean_after_renormalization(self):
        rng = np.random.default_rng(8)
        subspaces = [sub(unit_rows(rng.standard_normal((1, 5))), f"s{i}")
                     for i in range(2)]
        a = subspace_sum(subspaces)
        b = subspace_mean(subspaces)
        # scaling by N=2 is exact in binary floating point
        np.testing.assert_array_equal(a.components, b.components)
        three = subspaces + [sub(unit_rows(rng.standard_normal((1, 5))), "s2")]
        np.testing.assert_array_equal(subspace_sum(three).components,
                                      subspace_mean(three).components)

    def test_sum_keeps_unit_rows_but_not_orthogonality(self):
        rng = np.random.default_rng(15)
        subspaces = [sub(random_orthonormal(6, 2, rng), f"s{i}") for i in range(2)]
        out = subspace_sum(subspaces)
        np.testing.assert_allclose(np.linalg.norm(out.components, axis=1), 1.0)
        assert not out.orthonormal


class TestDistanceAndObjective:
    def test_containment(self):
        assert distance_to_subspace(np.array([1.0, 0, 0]), sub([[1.0, 0, 0]])) == 0.0

    def test_orthogonality(self):
        assert distance_to_subspace(np.array([0, 0, 1.0]), sub([[1.0, 0, 0]])) == 1.0

    def test_forty_five_degrees(self):
        u = np.array([1.0, 1.0, 0]) / np.sqrt(2)
        assert distance_to_subspace(u, sub([[1.0, 0, 0]])) == pytest.approx(
            np.sqrt(0.5), abs=1e-12)

    def test_not_unit(self):
        with pytest.raises(NotUnitError):
            distance_to_subspace(np.array([1.0, 1.0, 0]), sub([[1.0, 0, 0]]))

    def test_objective_extremes(self):
        rng = np.random.default_rng(2)
        basis = random_orthonormal(6, 2, rng)
        u = basis[0]
        subspaces = [sub(basis, f"s{i}") for i in range(3)]
        assert josec_objective(u, subspaces) == pytest.approx(3.0, abs=1e-12)
        v = np.zeros(6)
        # construct a vector orthogonal to the basis
        v[:] = rng.standard_normal(6)
        v -= basis.T @ (basis @ v)
        v /= np.linalg.norm(v)
        assert josec_objective(v, subspaces) == pytest.approx(0.0, abs=1e-12)

    def test_distance_objective_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = rng.integers(3, 9)
            k = rng.integers(1, d)
            basis = random_orthonormal(d, k, rng)
            s = sub(basis)
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            dist = distance_to_subspace(u, s)
            obj = josec_objective(u, [s])
            assert abs(dist ** 2 + obj - 1.0) < 1e-12


class TestJosecDirection:
    def test_single_direction(self):
        res = josec_direction([sub([[1.0, 0, 0]])])
        np.testing.assert_allclose(res.subspace.components, [[1.0, 0, 0]])
        assert res.objective_value == pytest.approx(1.0, abs=1e-12)
        assert res.per_category_distance == (0.0,)
        assert res.strategy == "JOSEC"

    def test_bisector_of_two_unit_directions(self):
        v2 = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        res = josec_direction([sub([[1.0, 0, 0]], "a"), sub([v2], "b")])
        expected = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8), 0.0])
        np.testing.assert_allclose(res.subspace.components[0], expected, atol=1e-12)

    def test_unit_norm_within_1e10(self):
        rng = np.random.default_rng(4)
        subspaces = [sub(random_orthonormal(7, 2, rng), f"s{i}") for i in range(3)]
        res = josec_direction(subspaces)
        assert abs(np.linalg.norm(res.subspace.components[0]) - 1.0) < 1e-10
        assert 0.0 <= res.objective_value <= len(subspaces) + 1e-12

    def test_maximality_against_random_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n, k, d = rng.integers(2, 4), rng.integers(1, 3), rng.integers(3, 8)
            subspaces = [sub(random_orthonormal(d, k, rng), f"s{i}")
                         for i in range(n)]
            res = josec_direction(subspaces)
            stacked = np.vstack([b.components for b in subspaces])
            sweep = rng.standard_normal((20000, d))
            sweep /= np.linalg.norm(sweep, axis=1)[:, None]
            sweep_best = ((sweep @ stacked.T) ** 2).sum(axis=1).max()
            assert res.objective_value >= sweep_best - 1e-12

    def test_reorder_invariance_up_to_sign(self):
        rng = np.random.default_rng(6)
        subspaces = [sub(random_orthonormal(6, 2, rng), f"s{i}") for i in range(3)]
        a = josec_direction(subspaces).subspace.components[0]
        b = josec_direction(subspaces[::-1]).subspace.components[0]
        shuffled = sub(subspaces[0].components[::-1], "s0r")
        c = josec_direction([shuffled] + list(subspaces[1:])).subspace.components[0]
        for other in (b, c):
            assert abs(abs(float(a @ other)) - 1.0) < 1e-9

    def test_degenerate_tie_flagged(self):
        with pytest.warns(DegenerateTieWarning):
            res = josec_direction([sub([[1.0, 0.0]], "a"), sub([[0.0, 1.0]], "b")])
        assert res.degenerate_tie

    def test_requires_orthonormal_inputs(self):
        bad = sub(unit_rows([[1.0, 0.0], [0.9, 0.1]]))
        with pytest.raises(ValueError):
            josec_direction([bad])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            josec_direction([sub([[1.0, 0.0]]), sub([[1.0, 0, 0]])])


class TestDirectionSubspaceCosine:
    def test_identity_antipodal_orthogonal(self):
        s = sub([[1.0, 0, 0], [0, 1.0, 0]])
        assert direction_subspace_cosine(np.array([1.0, 0, 0]), s) == 1.0
        assert direction_subspace_cosine(np.array([-1.0, 0, 0]), s) == -1.0
        assert direction_subspace_cosine(np.array([0.0, 0, 1.0]), s) == 0.0

    def test_not_unit(self):
        with pytest.raises(NotUnitError):
            direction_subspace_cosine(np.array([2.0, 0.0]), sub([[1.0, 0.0]]))


def _planted_common_direction_embedding(dim=50):
    """Three categories and a ground-truth category whose defining pairs all
    differ along the same direction g (plus small per-category extras)."""
    g = np.zeros(dim)
    g[0] = 1.0
    words, rows = [], []
    specs = []
    for c in range(4):
        pair_names = []
        for j, sin_a in enumerate((0.5, 0.35)):
            m = np.zeros(dim)
            m[5 + 2 * c + j] = 1.0
            cos_a = np.sqrt(1 - sin_a ** 2)
            a, b = f"c{c}w{j}a", f"c{c}w{j}b"
            words += [a, b]
            rows += [m * cos_a + g * sin_a, m * cos_a - g * sin_a]
            pair_names.append((a, b))
        specs.append(CategorySpec(f"cat{c}" if c < 3 else "gt",
                                  tuple(pair_names)))
    emb = make_set(words, np.vstack(rows))
    return emb, specs[:3], specs[3], g


def test_validate_hypothesis_planted_common_direction():
    emb, specs, gt_spec, g = _planted_common_direction_embedding()
    report = validate_hypothesis(specs, gt_spec, emb, k=1, seed=42)
    assert abs(report.josec_similarity) > 0.99
    assert abs(report.random_similarity) < 0.5
    for _, value in report.category_similarity:
        assert abs(value) > 0.99  # every category's first component is ~g
    # projection rows cover every component of every subspace plus gt + josec
    assert len(report.projection_rows) == 3 + 1 + 1
    labels = {r[0] for r in report.projection_rows}
    assert labels == {"cat0", "cat1", "cat2", "GROUND_TRUTH", "JOSEC"}
    assert report.summary().startswith("similarity")


def test_validate_hypothesis_seeded_determinism():
    emb, specs, gt_spec, _ = _planted_common_direction_embedding()
    r1 = validate_hypothesis(specs, gt_spec, emb, k=1, seed=7)
    r2 = validate_hypothesis(specs, gt_spec, emb, k=1, seed=7)
    assert r1.random_values == r2.random_values
    assert r1.projection_rows == r2.projection_rows
    r3 = validate_hypothesis(specs, gt_spec, emb, k=1, seed=8)
    assert r1.random_values != r3.random_values


def test_random_direction_concentration_in_high_dimension():
    # ten random unit vectors in R^300 vs a fixed direction: the average
    # signed cosine stays small; verified against direct sampling
    dim = 300
    gt = sub([np.eye(dim)[0]], "gt")
    rng = np.random.default_rng(123)
    sample = rng.standard_normal((10, dim))
    sample /= np.linalg.norm(sample, axis=1)[:, None]
    direct = float(np.mean(sample @ gt.components[0]))
    assert abs(direct) < 0.15
    assert np.mean(np.abs(sample @ gt.components[0])) < 0.15


def test_mean_plan_equals_sum_plan():
    # three random categories: SUM and MEAN components differ in the last
    # bit unless MEAN is computed as SUM
    rng = np.random.default_rng(21)
    words = [f"c{c}w{j}{x}" for c in range(3) for j in range(2) for x in "ab"]
    words += [f"n{i}" for i in range(30)]
    emb = make_set(words, unit_rows(rng.standard_normal((len(words), 12))))
    specs = [CategorySpec(f"cat{c}", tuple((f"c{c}w{j}a", f"c{c}w{j}b")
                                           for j in range(2)))
             for c in range(3)]
    mean = run_plan(emb, specs, DebiasPlan(strategy=Strategy.MEAN, k=2))
    total = run_plan(emb, specs, DebiasPlan(strategy=Strategy.SUM, k=2))
    np.testing.assert_array_equal(mean.matrix, total.matrix)


def test_compose_dispatch():
    rng = np.random.default_rng(10)
    subspaces = [sub(random_orthonormal(5, 1, rng), f"s{i}") for i in range(2)]
    assert compose("sum", subspaces).strategy == "SUM"
    assert compose("mean", subspaces).strategy == "MEAN"
    assert compose("josec", subspaces).strategy == "JOSEC"
    with pytest.raises(ValueError):
        compose("nope", subspaces)
