import dataclasses
import math
import warnings

import numpy as np
import pytest

from embdebias import (
    BiasSubspace,
    CategorySpec,
    bias_subspace,
    DebiasPlan,
    Strategy,
    bias_component,
    equalize,
    hard_debias,
    neutralize,
    run_plan,
)
from embdebias.errors import (
    EqualizeDegenerateError,
    FullyContainedError,
    RadicandNegativeError,
    ShapeMismatchError,
    WordSkippedWarning,
)

from conftest import make_set, random_orthonormal, unit_rows


def sub(rows, label="b"):
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    return BiasSubspace(label, rows, np.zeros(rows.shape[0]))


def scalar_equalize_oracle(vectors, components):
    """Straight scalar-loop evaluation of the equalize formula, kept free of
    the vectorized implementation's code paths."""
    n, d = len(vectors), len(vectors[0])
    mu = [sum(v[i] for v in vectors) / n for i in range(d)]

    def project(vec):
        out = [0.0] * d
        for b in components:
            coeff = sum(vec[i] * b[i] for i in range(d))
            for i in range(d):
                out[i] += coeff * b[i]
        return out

    mu_b = project(mu)
    nu = [mu[i] - mu_b[i] for i in range(d)]
    scale = math.sqrt(1.0 - sum(x * x for x in nu))
    results = []
    for v in vectors:
        v_b = project(v)
        dev = [v_b[i] - mu_b[i] for i in range(d)]
        dev_norm = math.sqrt(sum(x * x for x in dev))
        results.append([nu[i] + scale * dev[i] / dev_norm for i in range(d)])
    return results


class TestBiasComponent:
    def test_axis_projection(self):
        np.testing.assert_allclose(
            bias_component(np.array([0.6, 0.8]), sub([[1.0, 0.0]])), [0.6, 0.0])

    def test_orthogonal_gives_zero(self):
        np.testing.assert_allclose(
            bias_component(np.array([0.0, 1.0]), sub([[1.0, 0.0]])), [0.0, 0.0])

    def test_contained_is_identity(self):
        rng = np.random.default_rng(1)
        basis = random_orthonormal(6, 2, rng)
        w = 0.3 * basis[0] - 1.2 * basis[1]
        np.testing.assert_allclose(bias_component(w, sub(basis)), w, atol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            bias_component(np.ones(3), sub([[1.0, 0.0]]))

    def test_block_matches_rows(self):
        rng = np.random.default_rng(3)
        s = sub(random_orthonormal(8, 2, rng))
        block = rng.standard_normal((5, 8))
        rows = np.vstack([bias_component(w, s) for w in block])
        np.testing.assert_allclose(bias_component(block, s), rows, rtol=0, atol=1e-15)

    def test_rejects_3d_input(self):
        with pytest.raises(ShapeMismatchError):
            bias_component(np.ones((2, 3, 2)), sub([[1.0, 0.0]]))


class TestNeutralize:
    def test_axis_removal(self):
        np.testing.assert_allclose(
            neutralize(np.array([0.6, 0.8]), sub([[1.0, 0.0]])), [0.0, 1.0])

    def test_fixpoint_when_already_orthogonal(self):
        w = np.array([0.0, 1.0])
        np.testing.assert_allclose(neutralize(w, sub([[1.0, 0.0]])), w)

    def test_fully_contained(self):
        with pytest.raises(FullyContainedError):
            neutralize(np.array([1.0, 0.0]), sub([[1.0, 0.0]]))

    def test_output_unit_and_orthogonal(self):
        rng = np.random.default_rng(2)
        basis = random_orthonormal(10, 3, rng)
        for _ in range(100):
            w = rng.standard_normal(10)
            w /= np.linalg.norm(w)
            out = neutralize(w, sub(basis))
            assert abs(np.linalg.norm(out) - 1.0) < 1e-8
            assert np.abs(basis @ out).max() < 1e-8

    def test_matches_hard_debias_row(self):
        emb, spec, _, neutral = _planted_embedding()
        s = bias_subspace(spec, emb, 1)
        out = hard_debias(emb, s, DebiasPlan(strategy=Strategy.SINGLE, k=1), [spec])
        for w in neutral:
            np.testing.assert_allclose(neutralize(emb.vector(w), s), out.vector(w),
                                       rtol=0, atol=1e-15)


class TestEqualize:
    def test_hand_example(self):
        emb = make_set(["x", "y"], np.eye(2))
        out = equalize(["x", "y"], sub([[1.0, 0.0]]), emb)
        root = math.sqrt(0.75)
        np.testing.assert_allclose(out["x"], [root, 0.5], atol=1e-12)
        np.testing.assert_allclose(out["y"], [-root, 0.5], atol=1e-12)
        for v in out.values():
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            assert float(v @ np.array([0.0, 1.0])) == pytest.approx(0.5)

    def test_identical_vectors_degenerate(self):
        emb = make_set(["x", "y"], [[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(EqualizeDegenerateError):
            equalize(["x", "y"], sub([[1.0, 0.0]]), emb)

    def test_duplicate_words_degenerate(self):
        emb = make_set(["x"], [[1.0, 0.0]])
        with pytest.raises(EqualizeDegenerateError):
            equalize(["x", "x"], sub([[1.0, 0.0]]), emb)

    def test_requires_normalized(self):
        emb = make_set(["x", "y"], [[2.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match="normalized"):
            equalize(["x", "y"], sub([[1.0, 0.0]]), emb)

    def test_too_few_resolved(self):
        emb = make_set(["x"], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="fewer than 2"):
            equalize(["x", "zz"], sub([[1.0, 0.0]]), emb)

    def test_radicand_negative_under_oblique_subspace(self):
        # three nearly-parallel rows make the oblique projection overshoot
        d = 5
        g = np.eye(d)[0]
        rows = unit_rows([g,
                          g + 0.08 * np.eye(d)[1],
                          g + 0.08 * np.eye(d)[2]])
        oblique = sub(rows)
        x = unit_rows([g + 0.15 * np.eye(d)[1]])[0]
        y = unit_rows([g - 0.15 * np.eye(d)[1]])[0]
        emb = make_set(["x", "y"], [x, y])
        with pytest.raises(RadicandNegativeError):
            equalize(["x", "y"], oblique, emb)

    def test_nearly_coincident_members_stay_unit_and_symmetric(self):
        # members 1e-9 apart: subtracting their two projections loses the
        # small in-subspace difference to rounding (errors reached 5e-8)
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = sub(random_orthonormal(6, 2, rng))
            w = unit_rows([rng.standard_normal(6)])[0]
            emb = make_set(["x", "y"], unit_rows([w, w + 1e-9 * rng.standard_normal(6)]))
            out = np.vstack(list(equalize(["x", "y"], s, emb).values()))
            np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
            outside = out - bias_component(out, s)
            np.testing.assert_allclose(outside[0], outside[1], atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        for size in (2, 3, 4):
            for k in (1, 2):
                basis = random_orthonormal(10, k, rng)
                vectors = unit_rows(rng.standard_normal((size, 10)))
                words = [f"w{i}" for i in range(size)]
                emb = make_set(words, vectors)
                out = equalize(words, sub(basis), emb)
                expected = scalar_equalize_oracle([list(map(float, v)) for v in vectors],
                                                  [list(map(float, b)) for b in basis])
                for word, ref in zip(words, expected):
                    np.testing.assert_allclose(out[word], ref, atol=1e-10)

    def test_outputs_share_out_of_subspace_part(self):
        rng = np.random.default_rng(8)
        basis = random_orthonormal(10, 2, rng)
        s = sub(basis)
        words = ["a", "b", "c"]
        emb = make_set(words, unit_rows(rng.standard_normal((3, 10))))
        out = equalize(words, s, emb)
        residuals = [v - bias_component(v, s) for v in out.values()]
        for r in residuals[1:]:
            np.testing.assert_allclose(r, residuals[0], atol=1e-14)
        for v in out.values():
            assert abs(np.linalg.norm(v) - 1.0) < 1e-8


def _planted_embedding(dim=20, n_neutral=12):
    """A gender-like category along g=e0 plus neutral words carrying a g
    component; returns (emb, spec, g, neutral words)."""
    g = np.zeros(dim)
    g[0] = 1.0
    words, rows = [], []
    for j, sin_a in enumerate((0.5, 0.35)):
        m = np.zeros(dim)
        m[2 + j] = 1.0
        cos_a = math.sqrt(1 - sin_a ** 2)
        words += [f"d{j}a", f"d{j}b"]
        rows += [m * cos_a + g * sin_a, m * cos_a - g * sin_a]
    for t in range(n_neutral):
        m = np.zeros(dim)
        m[5 + t] = 1.0
        sin_b = 0.2 + 0.02 * t
        words.append(f"n{t}")
        rows.append(m * math.sqrt(1 - sin_b ** 2) + g * sin_b)
    emb = make_set(words, np.vstack(rows))
    spec = CategorySpec("gender", (("d0a", "d0b"), ("d1a", "d1b")),
                        equality_sets=(("d0a", "d0b"),))
    return emb, spec, g, [f"n{t}" for t in range(n_neutral)]


class TestHardDebias:
    def test_planted_bias_removed(self):
        emb, spec, g, neutral = _planted_embedding()
        plan = DebiasPlan(strategy=Strategy.SINGLE, k=1)
        out = run_plan(emb, [spec], plan)
        assert out.vocab == emb.vocab
        for w in neutral:
            assert abs(float(out.vector(w) @ g)) < 1e-8
            assert abs(np.linalg.norm(out.vector(w)) - 1.0) < 1e-8

    def test_noop_plan_returns_input_values(self):
        emb, spec, _, _ = _planted_embedding()
        plan = DebiasPlan(strategy=Strategy.SINGLE, k=1, neutral_words=())
        s = sub([np.eye(20)[0]])
        out = hard_debias(emb, s, plan, [dataclasses.replace(spec, equality_sets=())])
        np.testing.assert_array_equal(out.matrix, emb.matrix)

    def test_neutral_and_equality_must_be_disjoint(self):
        emb, spec, _, _ = _planted_embedding()
        s = sub([np.eye(20)[0]])
        # the second list names d0a only through the lowercase fallback
        for neutral, lowercase in ((("d0a", "n0"), False), (("n0", "D0A"), True)):
            plan = DebiasPlan(strategy=Strategy.SINGLE, k=1, neutral_words=neutral,
                              lowercase_fallback=lowercase)
            with pytest.raises(ValueError, match="both the neutral"):
                hard_debias(emb, s, plan, [spec])
            with pytest.raises(ValueError, match="both the neutral"):
                run_plan(emb, [spec], plan)

    def test_defining_words_outside_equality_sets_unchanged(self):
        emb, spec, _, _ = _planted_embedding()
        out = run_plan(emb, [spec], DebiasPlan(strategy=Strategy.SINGLE, k=1))
        # d1a/d1b are defining but not in the equality set
        np.testing.assert_array_equal(out.vector("d1a"), emb.vector("d1a"))
        np.testing.assert_array_equal(out.vector("d1b"), emb.vector("d1b"))
        # the neutral rule is plan-wide: no step of a sequential plan touches
        # the defining words of any category, its own or a later one's
        emb, specs, _, neutral = _two_category_embedding(orthogonal=False)
        out = run_plan(emb, specs, DebiasPlan(
            strategy=Strategy.SEQUENTIAL, k=1, category_order=("cat0", "cat1")))
        for spec in specs:
            for w in spec.all_defining_words():
                np.testing.assert_array_equal(out.vector(w), emb.vector(w))
        assert all(not np.array_equal(out.vector(w), emb.vector(w)) for w in neutral)

    def test_lowercase_fallback_excludes_both_case_forms(self):
        emb, _, g, neutral = _planted_embedding()
        words = ["Man", "woman", "man"] + neutral
        rows = np.vstack([unit_rows([np.eye(20)[1] + 0.5 * g,
                                     np.eye(20)[1] - 0.5 * g,
                                     np.eye(20)[2] + 0.5 * g]),
                          emb.take(neutral)])
        emb = make_set(words, rows)
        spec = CategorySpec("gender", (("Man", "woman"),))
        out = run_plan(emb, [spec], DebiasPlan(
            strategy=Strategy.SINGLE, k=1, lowercase_fallback=True))
        for w in ("Man", "man"):
            np.testing.assert_array_equal(out.vector(w), emb.vector(w))
        assert abs(float(out.vector("n0") @ g)) < 1e-8

    def test_equalized_words_share_residual(self):
        emb, spec, g, _ = _planted_embedding()
        plan = DebiasPlan(strategy=Strategy.SINGLE, k=1)
        out = run_plan(emb, [spec], plan)
        s = sub([g])
        ra = out.vector("d0a") - bias_component(out.vector("d0a"), s)
        rb = out.vector("d0b") - bias_component(out.vector("d0b"), s)
        np.testing.assert_allclose(ra, rb, atol=1e-12)

    def test_idempotent_on_neutral_words(self):
        emb, spec, _, neutral = _planted_embedding()
        plan = DebiasPlan(strategy=Strategy.SINGLE, k=1)
        once = run_plan(emb, [spec], plan)
        twice = run_plan(once, [spec], plan)
        for w in neutral:
            assert np.abs(twice.vector(w) - once.vector(w)).max() < 1e-8

    def test_fully_contained_word_skipped_with_warning(self):
        emb, spec, g, _ = _planted_embedding()
        rows = np.vstack([emb.matrix, g])
        emb2 = make_set(list(emb.vocab) + ["purebias"], rows)
        plan = DebiasPlan(strategy=Strategy.SINGLE, k=1)
        with pytest.warns(WordSkippedWarning, match="inside the bias subspace"):
            out = run_plan(emb2, [spec], plan)
        np.testing.assert_array_equal(out.vector("purebias"), g)

    def test_unresolvable_equality_set_skipped(self):
        emb, spec, _, _ = _planted_embedding()
        spec2 = CategorySpec("gender", spec.defining_sets,
                             equality_sets=(("zz", "yy"),))
        with pytest.warns(WordSkippedWarning, match="skipped"):
            out = run_plan(emb, [spec2], DebiasPlan(strategy=Strategy.SINGLE, k=1))
        assert out.vocab == emb.vocab

    def test_requires_normalized_set(self):
        emb = make_set(["a", "b"], [[2.0, 0.0], [0.0, 2.0]])
        plan = DebiasPlan(strategy=Strategy.SINGLE, k=1)
        with pytest.raises(ValueError, match="normalized"):
            hard_debias(emb, sub([[1.0, 0.0]]), plan,
                        [CategorySpec("c", (("a",),))])


def _two_category_embedding(orthogonal=True):
    dim = 24
    g1 = np.zeros(dim)
    g1[0] = 1.0
    g2 = np.zeros(dim)
    if orthogonal:
        g2[1] = 1.0
    else:
        g2[:2] = (math.sqrt(0.5), math.sqrt(0.5))
    words, rows = [], []
    for c, g in enumerate((g1, g2)):
        for j, sin_a in enumerate((0.5, 0.35)):
            m = np.zeros(dim)
            m[4 + 2 * c + j] = 1.0
            cos_a = math.sqrt(1 - sin_a ** 2)
            words += [f"c{c}d{j}a", f"c{c}d{j}b"]
            rows += [m * cos_a + g * sin_a, m * cos_a - g * sin_a]
    neutral = []
    for t in range(10):
        m = np.zeros(dim)
        m[10 + t] = 1.0
        rows.append(unit_rows([m + 0.4 * g1 + 0.3 * g2])[0])
        words.append(f"n{t}")
        neutral.append(f"n{t}")
    emb = make_set(words, np.vstack(rows))
    specs = [CategorySpec(f"cat{c}", ((f"c{c}d0a", f"c{c}d0b"),
                                      (f"c{c}d1a", f"c{c}d1b")))
             for c in range(2)]
    return emb, specs, (g1, g2), neutral


class TestSequential:
    def test_single_category_sequence_equals_hard_debias(self):
        emb, spec, _, _ = _planted_embedding()
        seq = run_plan(emb, [spec], DebiasPlan(
            strategy=Strategy.SEQUENTIAL, k=1, category_order=("gender",)))
        single = run_plan(emb, [spec], DebiasPlan(strategy=Strategy.SINGLE, k=1))
        np.testing.assert_array_equal(seq.matrix, single.matrix)

    def test_orthogonal_planted_directions_both_removed(self):
        emb, specs, (g1, g2), neutral = _two_category_embedding(orthogonal=True)
        out = run_plan(emb, specs, DebiasPlan(
            strategy=Strategy.SEQUENTIAL, k=1, category_order=("cat0", "cat1")))
        for w in neutral:
            assert abs(float(out.vector(w) @ g1)) < 1e-8
            assert abs(float(out.vector(w) @ g2)) < 1e-8

    def test_frozen_subspaces_mode_runs(self):
        # cat0 equalizes cat1's first defining pair, so cat1's subspace moves
        # between steps unless it is frozen to the input
        emb, specs, _, neutral = _two_category_embedding(orthogonal=False)
        specs[0] = CategorySpec("cat0", specs[0].defining_sets,
                                equality_sets=(("c1d0a", "c1d0b"),))
        plan = DebiasPlan(strategy=Strategy.SEQUENTIAL, k=1,
                          category_order=("cat0", "cat1"), frozen_subspaces=True)
        frozen = run_plan(emb, specs, plan)
        mask = np.isin(emb.vocab, neutral)
        chained = emb
        for spec in specs:
            chained = hard_debias(chained, bias_subspace(spec, emb, 1), plan,
                                  [spec], neutral=mask)
        np.testing.assert_array_equal(frozen.matrix, chained.matrix)
        recomputed = run_plan(emb, specs, DebiasPlan(
            strategy=Strategy.SEQUENTIAL, k=1, category_order=("cat0", "cat1")))
        assert np.abs(frozen.matrix - recomputed.matrix).max() > 1e-3

    @pytest.mark.parametrize("frozen", [False, True])
    def test_row_contained_at_a_later_step_is_left_at_that_step(self, frozen):
        # rows outside the lexicon: one along cat1's direction, one that is
        # only inside cat1's subspace once cat0's step has removed g1
        emb, specs, (g1, g2), neutral = _two_category_embedding(orthogonal=True)
        words = list(emb.vocab) + ["inside", "mixed"]
        emb = make_set(words, np.vstack([emb.matrix, g2, 0.6 * g1 + 0.8 * g2]))
        mask = np.isin(emb.vocab, neutral + ["inside", "mixed"])
        plan = DebiasPlan(strategy=Strategy.SEQUENTIAL, k=1, frozen_subspaces=frozen,
                          category_order=("cat0", "cat1"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = run_plan(emb, specs, plan)
        with warnings.catch_warnings(record=True) as expected_caught:
            warnings.simplefilter("always")
            chained = emb
            for spec in specs:
                chained = hard_debias(chained, bias_subspace(spec, emb, 1), plan,
                                      [spec], neutral=mask)
        assert [str(w.message) for w in caught] == [
            str(w.message) for w in expected_caught]
        assert [str(w.message) for w in caught] == [
            "2 neutral word(s) lie inside the bias subspace and were left "
            "unchanged (e.g. ['inside', 'mixed'])"]
        np.testing.assert_array_equal(out.matrix, chained.matrix)
        for w in ("inside", "mixed"):
            np.testing.assert_allclose(out.vector(w), g2, rtol=0, atol=1e-15)

    def test_lexicon_and_other_rows_inside_one_step_warn_per_phase(self):
        # a target word (a lexicon row) and a row outside the lexicon both lie
        # along cat1's direction: the fit reports the first, the apply the
        # second, after every fit warning of the plan
        emb, specs, (g1, g2), neutral = _two_category_embedding(orthogonal=True)
        specs[1] = dataclasses.replace(specs[1], target_words=(("target",),))
        emb = make_set(list(emb.vocab) + ["target", "other"],
                       np.vstack([emb.matrix, g2, g2]))
        plan = DebiasPlan(strategy=Strategy.SEQUENTIAL, k=1,
                          category_order=("cat0", "cat1"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = run_plan(emb, specs, plan)
        message = ("1 neutral word(s) lie inside the bias subspace and were "
                   "left unchanged (e.g. {})")
        assert [str(w.message) for w in caught] == [
            message.format(["target"]), message.format(["other"])]
        mask = np.isin(emb.vocab, neutral + ["target", "other"])
        chained = emb
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for spec in specs:
                chained = hard_debias(chained, bias_subspace(spec, chained, 1), plan,
                                      [spec], neutral=mask)
        np.testing.assert_array_equal(out.matrix, chained.matrix)
        for w in ("target", "other"):
            np.testing.assert_array_equal(out.vector(w), g2)

    def test_order_must_be_permutation(self):
        emb, specs, _, _ = _two_category_embedding()
        plan = DebiasPlan(strategy=Strategy.SEQUENTIAL, k=1,
                          category_order=("cat0",))
        with pytest.raises(ValueError, match="permutation"):
            run_plan(emb, specs, plan)

    def test_missing_neutral_word_warned_once_per_plan(self):
        emb, specs, _, neutral = _two_category_embedding()
        plan = DebiasPlan(strategy=Strategy.SEQUENTIAL, k=1,
                          category_order=("cat0", "cat1"),
                          neutral_words=(*neutral, "absent"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_plan(emb, specs, plan)
        missing = [w for w in caught if "not in vocabulary" in str(w.message)]
        assert len(missing) == 1
        assert issubclass(missing[0].category, WordSkippedWarning)


class TestRunPlan:
    def test_single_requires_one_spec(self):
        emb, specs, _, _ = _two_category_embedding()
        with pytest.raises(ValueError, match="exactly one"):
            run_plan(emb, specs, DebiasPlan(strategy=Strategy.SINGLE, k=1))

    def test_composed_strategies_run_and_are_deterministic(self):
        emb, specs, _, _ = _two_category_embedding(orthogonal=False)
        for strategy in (Strategy.SUM, Strategy.MEAN, Strategy.JOSEC):
            plan = DebiasPlan(strategy=strategy, k=1)
            a = run_plan(emb, specs, plan)
            b = run_plan(emb, specs, plan)
            np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_plan_accepts_strings(self):
        plan = DebiasPlan(strategy="josec", k=2)
        assert plan.strategy is Strategy.JOSEC

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            DebiasPlan(strategy="single", k=0)
