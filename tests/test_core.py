import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dedact.core import (
    CROSS_ENTROPY,
    MOMENT_BLOCK_ROWS,
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
from dedact.errors import DimensionMismatch, Overflow, SingularDesign
from dedact.importance import ImportanceEvaluator
from dedact.sampler import fit_gaussian


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

    @pytest.mark.parametrize("cols", [[0, 1, 2, 3], [1, 3]], ids=["full", "partial"])
    def test_weights_equal_the_centred_summary_formula(self, cols):
        # frozen copy of the fit: column means, the centred cross-products
        # summed over 4096-row blocks through one buffer, S_xx w = s_xy and
        # the intercept y_bar - w . x_bar; the weights and the intercept
        # must keep their bits, and agree with lstsq on the design [1, X]
        rng = np.random.default_rng(5)
        values = rng.standard_normal((5000, 4)) * np.array([1.0, 30.0, 0.01, 2.0]) + np.array([3.0, -1.0, 0.0, 7.0])
        y = values @ np.array([0.3, -0.02, 5.0, 1.1]) + rng.standard_normal(5000)
        columns = [values[:, c] for c in cols] + [y]
        mean = np.array([column.mean() for column in columns])
        buf, s = np.empty((4096, len(columns))), np.zeros((len(columns), len(columns)))
        for a in range(0, len(y), 4096):
            block = buf[:min(len(y) - a, 4096)]
            for j, column in enumerate(columns):
                block[:, j] = column[a:a + len(block)] - mean[j]
            s += block.T @ block
        w = np.linalg.solve(s[:-1, :-1], s[:-1, -1])
        p = fit_ols(_matrix(values), TargetVector(y), FeatureIndexSet.of(cols))
        assert p.intercept == mean[-1] - w @ mean[:-1]
        assert p.weights[cols].tobytes() == w.tobytes()
        assert not np.delete(p.weights, cols).any()
        coef = np.linalg.lstsq(np.column_stack([np.ones(len(y)), values[:, cols]]), y, rcond=None)[0]
        np.testing.assert_allclose(p.weights[cols], coef[1:], rtol=1e-12, atol=0)
        assert p.intercept == pytest.approx(coef[0], rel=1e-12)

    def test_weights_outside_support_exactly_zero(self):
        rng = np.random.default_rng(2)
        data = _matrix(rng.standard_normal((100, 3)))
        y = TargetVector(data.values @ np.array([1.0, 1.0, 1.0]))
        p = fit_ols(data, y, FeatureIndexSet.of([0, 2]))
        assert p.weights[1] == 0.0

    def test_overflowing_squares_name_their_columns(self):
        # a's squares overflow float64: named, without a RuntimeWarning,
        # when a is in the support; outside it, a is never squared
        a, b, noise = np.random.default_rng(4).standard_normal((3, 50))
        data = _matrix(np.column_stack([1e155 * a, b]), ("a", "b"))
        with pytest.raises(Overflow, match=r"^the squares of 'a' overflow float64$"):
            fit_ols(data, TargetVector(b + noise))
        assert fit_ols(data, TargetVector(b + noise), FeatureIndexSet.of([1])).weights[0] == 0.0
        with pytest.raises(Overflow, match=r"^the squares of the target overflow float64$"):
            fit_ols(data, TargetVector(1e155 * noise), FeatureIndexSet.of([1]))

    def test_singular_design_rejected(self):
        x = np.linspace(0, 1, 20)
        data = _matrix(np.column_stack([x, x]))
        with pytest.raises(SingularDesign):
            fit_ols(data, TargetVector(x), FeatureIndexSet.of([0, 1]))

    @pytest.mark.parametrize("third,message", [
        (lambda a, k: a, r"'x0', 'x2' are near-collinear$"),
        (lambda a, k: np.full_like(a, 2.5), r"the intercept, 'x2' are near-collinear$"),
        (lambda a, k: np.zeros_like(a), r"'x2' is 0 in every row$"),
    ], ids=["duplicate", "constant", "zero"])
    def test_singular_design_names_its_columns(self, third, message):
        a, b, k = np.random.default_rng(3).standard_normal((3, 50))
        data = _matrix(np.column_stack([a, b, third(a, k)]))
        with pytest.raises(SingularDesign, match=r"^Gram matrix is numerically singular: " + message):
            fit_ols(data, TargetVector(a + b))

    def test_column_far_from_the_others_in_scale_fits(self):
        # collinear with nothing, a column of scale 1e-10 is singular only
        # through its units: it fits, as the same column at unit scale does
        a, b, k = np.random.default_rng(3).standard_normal((3, 50))
        y = TargetVector(a + b + 0.5 * k)
        unit = fit_ols(_matrix(np.column_stack([a, b, k])), y)
        tiny = fit_ols(_matrix(np.column_stack([a, b, 1e-10 * k])), y)
        np.testing.assert_allclose(tiny.weights * [1.0, 1.0, 1e-10], unit.weights, rtol=1e-9, atol=0)
        assert tiny.intercept == pytest.approx(unit.intercept, rel=1e-9, abs=1e-12)

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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.integers(0, 4), st.integers(-6, 6), st.integers(0, 2**32 - 1))
def test_units_of_a_column_change_no_fit(d, col, k, seed):
    # singularity is judged at unit scale: a well-conditioned design fits
    # with any support column rescaled by 10^k, its weight scaled by
    # 10^-k, and a duplicated column is rejected, naming it, at every k
    rng = np.random.default_rng(seed)
    col %= d
    offset, scale = rng.uniform(-100.0, 100.0, d), 10.0 ** rng.uniform(-1.0, 1.0, d)
    values = offset + scale * rng.standard_normal((200, d))
    y = (values - offset) / scale @ rng.uniform(0.5, 2.0, d) + 0.1 * rng.standard_normal(200)
    factor = np.ones(d)
    factor[col] = 10.0**k
    unit = fit_ols(_matrix(values), TargetVector(y))
    rescaled = fit_ols(_matrix(values * factor), TargetVector(y))
    np.testing.assert_allclose(rescaled.weights * factor, unit.weights, rtol=1e-9, atol=0)
    assert rescaled.intercept == pytest.approx(unit.intercept, rel=1e-9, abs=1e-9 * np.abs(y).max())
    duplicated = np.column_stack([values, values[:, col]]) * np.append(factor, 1.0)
    with pytest.raises(SingularDesign, match=rf"^Gram matrix is numerically singular: 'x{col}', 'x{d}' are near-collinear$"):
        fit_ols(_matrix(duplicated), TargetVector(y))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(0, 3), st.one_of(st.integers(-2, 2), st.integers(3, MOMENT_BLOCK_ROWS - 3)),
       st.integers(0, 2**32 - 1))
def test_fits_agree_with_lstsq_and_np_cov(d, blocks, extra, seed):
    # offset and scaled columns, the row count several blocks long, at a
    # block boundary or between two: the block sums give lstsq's least
    # squares and np.cov's covariance to rounding
    rng = np.random.default_rng(seed)
    n = max(d + 2, blocks * MOMENT_BLOCK_ROWS + extra)
    offset, scale = rng.uniform(-100.0, 100.0, d), 10.0 ** rng.uniform(-1.0, 1.0, d)
    values = offset + scale * rng.standard_normal((n, d))
    y = (values - offset) / scale @ rng.uniform(0.5, 2.0, d) + 0.1 * rng.standard_normal(n)
    p = fit_ols(_matrix(values), TargetVector(y))
    coef = np.linalg.lstsq(np.column_stack([np.ones(n), values]), y, rcond=None)[0]
    np.testing.assert_allclose(p.weights, coef[1:], rtol=1e-10, atol=0)
    assert p.intercept == pytest.approx(coef[0], rel=1e-10, abs=1e-10 * np.abs(y).max())
    g = fit_gaussian(_matrix(values))
    cov = np.cov(values, rowvar=False).reshape(d, d)
    assert np.all(np.abs(g.mean - values.mean(axis=0)) <= 1e-10 * (np.abs(offset) + scale))
    assert np.all(np.abs(g.cov - cov) <= 1e-10 * np.sqrt(np.outer(np.diag(cov), np.diag(cov))))
    # the evaluator's moments, columns in canonical (name) order, are the
    # gathered two-pass formula's to rounding
    names = tuple(f"x{d - i}" for i in range(d))
    ev = ImportanceEvaluator(_matrix(values, names), TargetVector(y), p, g)
    x = values[:, ev._canon_order]
    x_c, y_c = x - x.mean(axis=0), y - y.mean()
    x_bar, y_bar, s_xx, s_xy, s_yy = ev._moments()
    assert np.all(np.abs(x_bar - x.mean(axis=0)) <= 1e-10 * (np.abs(offset) + scale)[ev._canon_order])
    assert y_bar == pytest.approx(y.mean(), rel=1e-10, abs=1e-10 * np.abs(y).max())
    sd = np.sqrt(np.append(np.diag(x_c.T @ x_c), y_c @ y_c) / n)
    assert np.all(np.abs(s_xx - x_c.T @ x_c / n) <= 1e-10 * np.outer(sd[:-1], sd[:-1]))
    assert np.all(np.abs(s_xy - x_c.T @ y_c / n) <= 1e-10 * sd[:-1] * sd[-1])
    assert s_yy == pytest.approx(y_c @ y_c / n, rel=1e-10)


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
