import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dedact.core import (
    CROSS_ENTROPY,
    SQUARED_ERROR,
    DataMatrix,
    FeatureIndexSet,
    ImportanceEstimate,
    LinearPredictor,
    TargetVector,
    derive_seed,
    empirical_risk,
    fit_ols,
)
from dedact.errors import DimensionMismatch, SingularDesign


def _matrix(values, names=None):
    values = np.asarray(values, dtype=float)
    names = names or tuple(f"x{i}" for i in range(values.shape[1]))
    return DataMatrix(values, names)


class TestDataMatrix:
    def test_shape_and_names(self):
        m = _matrix([[1.0, 2.0], [3.0, 4.0]], ("a", "b"))
        assert m.n_rows == 2 and m.n_cols == 2
        assert m.index_of("b") == 1

    def test_rejects_single_row(self):
        with pytest.raises(DimensionMismatch):
            _matrix([[1.0, 2.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(DimensionMismatch):
            _matrix([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(DimensionMismatch):
            _matrix([[1.0, np.inf], [0.0, 1.0]])

    def test_rejects_duplicate_names(self):
        with pytest.raises(DimensionMismatch):
            _matrix([[1.0, 2.0], [3.0, 4.0]], ("a", "a"))

    def test_rejects_wrong_name_count(self):
        with pytest.raises(DimensionMismatch):
            _matrix([[1.0, 2.0], [3.0, 4.0]], ("a",))

    def test_select_rows(self):
        m = _matrix([[1.0], [2.0], [3.0]])
        sub = m.select_rows(np.array([2, 0]))
        assert sub.values[:, 0].tolist() == [3.0, 1.0]


class TestTargetVector:
    def test_rejects_nonfinite(self):
        with pytest.raises(DimensionMismatch):
            TargetVector(np.array([1.0, np.nan]))

    def test_rejects_matrix(self):
        with pytest.raises(DimensionMismatch):
            TargetVector(np.zeros((2, 2)))


class TestFeatureIndexSet:
    def test_sorted_and_deduplicated(self):
        s = FeatureIndexSet.of([3, 1, 1, 2])
        assert s.indices == (1, 2, 3)

    def test_rejects_negative(self):
        with pytest.raises(DimensionMismatch):
            FeatureIndexSet.of([-1])

    def test_set_algebra(self):
        a = FeatureIndexSet.of([0, 1])
        b = FeatureIndexSet.of([1, 2])
        assert a.union(b).indices == (0, 1, 2)
        assert a.difference(b).indices == (0,)
        assert a.intersection(b).indices == (1,)
        assert a.complement(4).indices == (2, 3)
        assert not a.is_disjoint(b)
        assert a.is_disjoint(FeatureIndexSet.of([3]))

    def test_validate_within(self):
        with pytest.raises(DimensionMismatch):
            FeatureIndexSet.of([5]).validate_within(3)

    @given(st.lists(st.integers(min_value=0, max_value=20)), st.lists(st.integers(min_value=0, max_value=20)))
    def test_union_matches_set_semantics(self, xs, ys):
        a, b = FeatureIndexSet.of(xs), FeatureIndexSet.of(ys)
        assert set(a.union(b)) == set(xs) | set(ys)
        assert set(a.difference(b)) == set(xs) - set(ys)
        assert set(a.intersection(b)) == set(xs) & set(ys)

    @given(st.lists(st.integers(min_value=0, max_value=9)))
    def test_complement_partitions(self, xs):
        s = FeatureIndexSet.of(xs)
        c = s.complement(10)
        assert s.is_disjoint(c)
        assert set(s) | set(c) == set(range(10))


class TestLossFunction:
    def test_squared_error_values(self):
        out = SQUARED_ERROR.elementwise(np.array([1.0, -1.0]), np.array([0.0, 0.0]))
        assert out.tolist() == [1.0, 1.0]

    def test_cross_entropy_half_is_ln2(self):
        out = CROSS_ENTROPY.elementwise(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert np.allclose(out, math.log(2.0))

    def test_cross_entropy_clips_instead_of_inf(self):
        out = CROSS_ENTROPY.elementwise(np.array([1.0]), np.array([0.0]))
        assert np.all(np.isfinite(out))

    def test_unknown_kind_rejected(self):
        from dedact.core import LossFunction

        with pytest.raises(DimensionMismatch):
            LossFunction("hinge")


class TestLinearPredictor:
    def test_exact_affine(self):
        p = LinearPredictor(weights=np.array([2.0, -1.0]), intercept=0.5)
        assert p.predict(np.array([1.0, 1.0])) == pytest.approx(1.5)

    def test_default_support_is_nonzero_weights(self):
        p = LinearPredictor(weights=np.array([0.0, 3.0, 0.0]), intercept=0.0)
        assert p.support.indices == (1,)

    def test_support_is_honored(self):
        rng = np.random.default_rng(0)
        p = LinearPredictor(weights=np.array([1.0, 0.0]), intercept=0.0)
        x = rng.standard_normal((50, 2))
        scrambled = x.copy()
        scrambled[:, 1] = rng.standard_normal(50)
        assert np.array_equal(p.predict(x), p.predict(scrambled))


class TestFitOls:
    def test_exact_interpolation(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        data = _matrix(y.reshape(-1, 1))
        p = fit_ols(data, TargetVector(y), FeatureIndexSet.of([0]))
        assert p.weights[0] == pytest.approx(1.0, abs=1e-10)
        assert p.intercept == pytest.approx(0.0, abs=1e-10)

    def test_noiseless_line_five_rows(self):
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        data = _matrix(x.reshape(-1, 1))
        p = fit_ols(data, TargetVector(2.0 * x + 1.0), FeatureIndexSet.of([0]))
        assert p.weights[0] == pytest.approx(2.0, abs=1e-10)
        assert p.intercept == pytest.approx(1.0, abs=1e-10)

    def test_pure_noise_weights_shrink(self):
        rng = np.random.default_rng(1)
        n = 100000
        data = _matrix(rng.standard_normal((n, 3)))
        y = TargetVector(rng.standard_normal(n))
        p = fit_ols(data, y)
        assert np.all(np.abs(p.weights) < 3.0 / np.sqrt(n) * 1.5)

    def test_weights_outside_support_exactly_zero(self):
        rng = np.random.default_rng(2)
        data = _matrix(rng.standard_normal((100, 3)))
        y = TargetVector(data.values @ np.array([1.0, 1.0, 1.0]))
        p = fit_ols(data, y, FeatureIndexSet.of([0, 2]))
        assert p.weights[1] == 0.0

    def test_singular_design_rejected(self):
        x = np.linspace(0, 1, 20)
        data = _matrix(np.column_stack([x, x]))
        with pytest.raises(SingularDesign):
            fit_ols(data, TargetVector(x), FeatureIndexSet.of([0, 1]))

    @pytest.mark.parametrize("third,message", [
        (lambda a, k: a, r"'x0', 'x2' are near-collinear$"),
        (lambda a, k: np.full_like(a, 2.5), r"the intercept, 'x2' are near-collinear$"),
        (lambda a, k: np.zeros_like(a), r"'x2' is 0 in every row$"),
        # collinear with nothing: only its scale is far from the others'
        (lambda a, k: 1e-10 * k, r"'x2' and .+ differ in scale by \S+ \(none are collinear\)$"),
    ], ids=["duplicate", "constant", "zero", "scale"])
    def test_singular_design_names_its_columns(self, third, message):
        a, b, k = np.random.default_rng(3).standard_normal((3, 50))
        data = _matrix(np.column_stack([a, b, third(a, k)]))
        with pytest.raises(SingularDesign, match=r"^Gram matrix is numerically singular: " + message):
            fit_ols(data, TargetVector(a + b))

    def test_too_few_rows_rejected(self):
        data = _matrix(np.eye(2))
        with pytest.raises(SingularDesign):
            fit_ols(data, TargetVector(np.ones(2)), FeatureIndexSet.of([0, 1]))

    def test_length_mismatch(self):
        data = _matrix(np.ones((4, 1)) * np.arange(4).reshape(-1, 1))
        with pytest.raises(DimensionMismatch):
            fit_ols(data, TargetVector(np.ones(3)), FeatureIndexSet.of([0]))

    def test_residuals_orthogonal_to_support(self):
        rng = np.random.default_rng(3)
        n = 500
        data = _matrix(rng.standard_normal((n, 4)))
        y = TargetVector(data.values @ np.array([1.0, -2.0, 0.5, 0.0]) + rng.standard_normal(n))
        p = fit_ols(data, y)
        resid = y.values - p.predict(data.values)
        for j in range(4):
            assert abs(float(resid @ data.values[:, j])) < 1e-8 * n

    def test_ols_risk_beats_perturbed_weights(self):
        rng = np.random.default_rng(4)
        n = 300
        data = _matrix(rng.standard_normal((n, 3)))
        y = TargetVector(data.values @ np.array([1.0, 2.0, -1.0]) + rng.standard_normal(n))
        p = fit_ols(data, y)
        base = empirical_risk(p, data, y, SQUARED_ERROR)
        for _ in range(100):
            other = LinearPredictor(
                weights=p.weights + 0.1 * rng.standard_normal(3),
                intercept=p.intercept + 0.1 * rng.standard_normal(),
                support=p.support,
            )
            assert empirical_risk(other, data, y, SQUARED_ERROR) >= base - 1e-12


class TestEmpiricalRisk:
    def test_perfect_predictor_zero(self):
        data = _matrix([[1.0], [2.0]])
        p = LinearPredictor(weights=np.array([1.0]), intercept=0.0)
        assert empirical_risk(p, data, TargetVector(data.values[:, 0]), SQUARED_ERROR) == 0.0

    def test_constant_zero_on_plus_minus_one(self):
        data = _matrix([[0.0], [0.0]])
        p = LinearPredictor(weights=np.array([0.0]), intercept=0.0)
        risk = empirical_risk(p, data, TargetVector(np.array([-1.0, 1.0])), SQUARED_ERROR)
        assert risk == pytest.approx(1.0)

    def test_cross_entropy_half(self):
        data = _matrix([[0.0], [0.0]])
        p = LinearPredictor(weights=np.array([0.0]), intercept=0.5)
        risk = empirical_risk(p, data, TargetVector(np.array([0.0, 1.0])), CROSS_ENTROPY)
        assert risk == pytest.approx(math.log(2.0))

    def test_shape_mismatch(self):
        data = _matrix([[0.0], [0.0]])
        p = LinearPredictor(weights=np.array([0.0]), intercept=0.0)
        with pytest.raises(DimensionMismatch):
            empirical_risk(p, data, TargetVector(np.zeros(3)), SQUARED_ERROR)


class TestSeedsAndEstimates:
    def test_derive_seed_deterministic_and_tag_sensitive(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
        assert derive_seed(7) != derive_seed(8)

    def test_estimate_rejects_negative_se(self):
        with pytest.raises(DimensionMismatch):
            ImportanceEstimate(1.0, -0.1, 5, "original_f", {}, 0)
