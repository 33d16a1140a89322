import math

import numpy as np
import pytest

from embdebias import (
    CategorySpec,
    GroupOutcome,
    equality_differences,
    mac,
    mac_for_category,
    mean_cos_distance,
    paired_t_test,
    regularized_incomplete_beta,
    student_t_cdf,
)
from embdebias.errors import (
    EmptyAttributeSetError,
    LengthMismatchError,
    NoValidGroupsError,
    WordSkippedWarning,
    ZeroVarianceWarning,
    ZeroVectorError,
)

from conftest import make_set, unit_rows


def nested_loop_mac(targets, attribute_sets):
    """Unoptimized scalar reference for the MAC grand mean."""
    values = []
    for s in targets:
        s_norm = math.sqrt(sum(x * x for x in s))
        for attrs in attribute_sets:
            total = 0.0
            for a in attrs:
                dot = sum(x * y for x, y in zip(s, a))
                a_norm = math.sqrt(sum(x * x for x in a))
                total += 1.0 - dot / (s_norm * a_norm)
            values.append(total / len(attrs))
    return sum(values) / len(values)


class TestMeanCosDistance:
    def test_orthogonal(self):
        assert mean_cos_distance(np.array([1.0, 0]), np.array([[0, 1.0], [0, 2.0]])) == 1.0

    def test_identical(self):
        assert mean_cos_distance(np.array([1.0, 0]), np.array([[1.0, 0]])) == 0.0

    def test_antipodal(self):
        assert mean_cos_distance(np.array([1.0, 0]), np.array([[-2.0, 0]])) == 2.0

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            mean_cos_distance(np.zeros(2), np.array([[1.0, 0]]))
        with pytest.raises(ZeroVectorError):
            mean_cos_distance(np.array([1.0, 0]), np.array([[0.0, 0]]))

    def test_empty_attributes(self):
        with pytest.raises(EmptyAttributeSetError):
            mean_cos_distance(np.array([1.0, 0]), np.empty((0, 2)))


class TestMac:
    def test_single_cell_orthogonal_is_exactly_one(self):
        report = mac(np.array([[1.0, 0.0]]), [np.array([[0.0, 1.0]])])
        assert report.mac == 1.0
        assert report.n_samples == 1

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n_s = rng.integers(1, 6)
            n_a = rng.integers(1, 4)
            d = rng.integers(2, 8)
            targets = rng.standard_normal((n_s, d))
            attrs = [rng.standard_normal((rng.integers(1, 5), d))
                     for _ in range(n_a)]
            report = mac(targets, attrs)
            ref = nested_loop_mac(targets.tolist(), [a.tolist() for a in attrs])
            assert abs(report.mac - ref) < 1e-12

    def test_report_mean_matches_table(self):
        rng = np.random.default_rng(13)
        report = mac(rng.standard_normal((4, 5)),
                     [rng.standard_normal((3, 5)) for _ in range(2)])
        assert report.mac == pytest.approx(float(report.table.mean()), abs=1e-15)
        assert ((report.table >= 0.0) & (report.table <= 2.0)).all()

    def test_scale_invariance(self):
        rng = np.random.default_rng(14)
        targets = rng.standard_normal((3, 4))
        attrs = [rng.standard_normal((2, 4))]
        base = mac(targets, attrs).mac
        scaled = mac(targets * rng.uniform(0.1, 9.0, size=(3, 1)),
                     [attrs[0] * rng.uniform(0.1, 9.0, size=(2, 1))]).mac
        assert abs(base - scaled) < 1e-12

    def test_no_attribute_sets(self):
        with pytest.raises(EmptyAttributeSetError):
            mac(np.array([[1.0, 0.0]]), [])


class TestMacForCategory:
    def spec(self):
        return CategorySpec(
            "toy", (("a", "b"),),
            target_words=(("a", "b"), ("b", "zz")),
            attribute_sets=(("c", "d"), ("zz", "yy")))

    def emb(self):
        return make_set(["a", "b", "c", "d"],
                        unit_rows(np.random.default_rng(1).standard_normal((4, 3))))

    def test_flattens_and_dedupes_targets(self):
        with pytest.warns(WordSkippedWarning):
            report = mac_for_category(self.spec(), self.emb())
        assert report.targets == ("a", "b")
        assert report.table.shape == (2, 1)  # second attribute set all OOV

    def test_no_targets_in_vocab(self):
        spec = CategorySpec("toy", (("a",),), target_words=(("zz",),),
                            attribute_sets=(("a",),))
        with pytest.warns(WordSkippedWarning):
            with pytest.raises(ValueError, match="target words"):
                mac_for_category(spec, self.emb())

    def test_no_attribute_sets_resolvable(self):
        spec = CategorySpec("toy", (("a",),), target_words=(("a",),),
                            attribute_sets=(("zz",),))
        with pytest.warns(WordSkippedWarning):
            with pytest.raises(EmptyAttributeSetError):
                mac_for_category(spec, self.emb())


def t_cdf_df1(t):
    return 0.5 + math.atan(t) / math.pi


def t_cdf_df2(t):
    return 0.5 + t / (2.0 * math.sqrt(2.0 + t * t))


def t_sf_df4(t):
    """Closed-form survival function for df=4 (t >= 0)."""
    s = t / math.sqrt(t * t + 4.0)
    return 0.5 - 0.75 * s + 0.25 * s ** 3


class TestStudentT:
    def test_cdf_against_closed_forms(self):
        for t in np.linspace(-8, 8, 81):
            assert abs(student_t_cdf(float(t), 1) - t_cdf_df1(t)) < 1e-10
            assert abs(student_t_cdf(float(t), 2) - t_cdf_df2(t)) < 1e-10

    def test_cdf_symmetry(self):
        for df in (1, 3, 7, 30):
            for t in (0.3, 1.7, 4.2):
                assert abs(student_t_cdf(-t, df) + student_t_cdf(t, df) - 1.0) < 1e-12

    def test_reference_table_values(self):
        # classic two-sided critical values: p(t=12.706, df=1) = 0.05,
        # p(t=2.776, df=4) = 0.05, p(t=2.042, df=30) = 0.05
        from embdebias import student_t_two_sided_p
        for t, df in ((12.706, 1), (2.776, 4), (2.042, 30)):
            assert student_t_two_sided_p(t, df) == pytest.approx(0.05, abs=5e-4)

    def test_incomplete_beta_bounds(self):
        assert regularized_incomplete_beta(2.0, 0.5, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 0.5, 1.0) == 1.0
        with pytest.raises(ValueError):
            regularized_incomplete_beta(2.0, 0.5, 1.5)


class TestPairedTTest:
    def test_identical_samples(self):
        x = [0.3, 0.7, 0.1, 0.9]
        assert paired_t_test(x, x) == (0.0, 1.0, 3)

    def test_symmetric_cancellation(self):
        before = [0.0, 0.0, 0.0, 0.0]
        after = [1.0, -1.0, 1.0, -1.0]
        t, p, df = paired_t_test(before, after)
        assert (t, p, df) == (0.0, 1.0, 3)

    def test_known_differences(self):
        diffs = [0.1, 0.2, 0.15, 0.12, 0.18]
        t, p, df = paired_t_test([0.0] * 5, diffs)
        # textbook scalar evaluation of t = mean / (sd / sqrt(n))
        mean = sum(diffs) / 5
        var = sum((x - mean) ** 2 for x in diffs) / 4
        expected_t = mean / math.sqrt(var / 5)
        assert df == 4
        assert t == pytest.approx(expected_t, abs=1e-12)
        assert p == pytest.approx(2.0 * t_sf_df4(expected_t), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            paired_t_test([1.0, 2.0], [1.0])

    def test_too_short(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])

    def test_zero_variance_nonzero_mean(self):
        with pytest.warns(ZeroVarianceWarning):
            t, p, df = paired_t_test([0.0, 0.0, 0.0], [0.5, 0.5, 0.5])
        assert t == math.inf and p == 0.0 and df == 2
        with pytest.warns(ZeroVarianceWarning):
            t, p, _ = paired_t_test([0.5, 0.5, 0.5], [0.0, 0.0, 0.0])
        assert t == -math.inf and p == 0.0


class TestEqualityDifferences:
    def test_two_group_example(self):
        overall = GroupOutcome("overall", tp=5, fp=10, tn=10, fn=5)
        groups = [GroupOutcome("g1", tp=5, fp=4, tn=6, fn=5),
                  GroupOutcome("g2", tp=5, fp=6, tn=4, fn=5)]
        fped, fned = equality_differences(groups, overall)
        assert abs(fped - 0.2) < 1e-12
        assert fned == 0.0

    def test_all_groups_equal_overall(self):
        overall = GroupOutcome("overall", tp=8, fp=4, tn=12, fn=2)
        group = GroupOutcome("g", tp=4, fp=2, tn=6, fn=1)
        assert equality_differences([group, group], overall) == (0.0, 0.0)

    def test_group_with_undefined_rate_skipped(self):
        overall = GroupOutcome("overall", tp=5, fp=5, tn=5, fn=5)
        groups = [GroupOutcome("ok", tp=2, fp=2, tn=2, fn=2),
                  GroupOutcome("nopos", tp=0, fp=3, tn=3, fn=0)]
        with pytest.warns(WordSkippedWarning, match="nopos"):
            fped, fned = equality_differences(groups, overall)
        assert fped == pytest.approx(0.0)
        assert fned == pytest.approx(0.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(17)
        overall = GroupOutcome("overall", tp=50, fp=30, tn=70, fn=20)
        groups = [GroupOutcome(f"g{i}", tp=int(rng.integers(1, 20)),
                               fp=int(rng.integers(1, 20)),
                               tn=int(rng.integers(1, 20)),
                               fn=int(rng.integers(1, 20)))
                  for i in range(7)]
        base = equality_differences(groups, overall)
        for _ in range(10):
            perm = list(rng.permutation(len(groups)))
            shuffled = [groups[i] for i in perm]
            assert equality_differences(shuffled, overall) == base

    def test_zero_iff_rates_match(self):
        overall = GroupOutcome("overall", tp=10, fp=5, tn=15, fn=10)  # fpr .25 fnr .5
        off = GroupOutcome("g", tp=3, fp=1, tn=1, fn=1)  # fpr .5, fnr .25
        fped, fned = equality_differences([off], overall)
        assert fped > 0.0 and fned > 0.0

    def test_no_valid_groups(self):
        overall = GroupOutcome("overall", tp=5, fp=5, tn=5, fn=5)
        with pytest.raises(NoValidGroupsError):
            equality_differences([], overall)
        with pytest.warns(WordSkippedWarning):
            with pytest.raises(NoValidGroupsError):
                equality_differences([GroupOutcome("g", tp=0, fp=1, tn=1, fn=0)],
                                     overall)

    def test_overall_rates_must_be_defined(self):
        with pytest.raises(ValueError, match="overall"):
            equality_differences([GroupOutcome("g", tp=1, fp=1, tn=1, fn=1)],
                                 GroupOutcome("overall", tp=0, fp=1, tn=1, fn=0))

    def test_group_outcome_validation(self):
        with pytest.raises(ValueError):
            GroupOutcome("g", tp=-1, fp=0, tn=0, fn=0)
        with pytest.raises(ValueError):
            GroupOutcome("g", tp=0.5, fp=0, tn=0, fn=0)
        g = GroupOutcome("g", tp=0, fp=1, tn=1, fn=0)
        assert g.fpr == 0.5 and g.fnr is None
