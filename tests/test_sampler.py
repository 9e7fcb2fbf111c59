import numpy as np
import pytest

from dedact.core import DataMatrix, FeatureIndexSet, LinearPredictor, Predictor
from dedact.errors import DimensionMismatch, DisjointnessViolation, InsufficientRows, Overflow, SingularConditioning
from dedact.sampler import (
    GaussianModel,
    PerturbationSampler,
    _Conditioning,
    conditional_params,
    fit_gaussian,
    marginalize,
    perturb,
)


def _bivariate(rho: float) -> GaussianModel:
    return GaussianModel(mean=np.zeros(2), cov=np.array([[1.0, rho], [rho, 1.0]]))


def _data(values) -> DataMatrix:
    values = np.asarray(values, dtype=float)
    return DataMatrix(values, tuple(f"x{i}" for i in range(values.shape[1])))


class TestGaussianModel:
    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionMismatch):
            GaussianModel(mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(DimensionMismatch):
            GaussianModel(mean=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_psd_tolerance_scales_with_the_covariance(self):
        # a sample covariance is PSD by construction; beside a unit-scale
        # column, an exact duplicate of scale 1e5 gave min eigenvalues
        # below -1e-8 from rounding alone
        for scale in (1e5, 1e6):
            for seed in range(20):
                rng = np.random.default_rng(seed)
                col = scale * rng.standard_normal(400)
                g = fit_gaussian(_data(np.column_stack([col, col, rng.standard_normal(400)])))
                assert g.cov[0, 0] > 0
        with pytest.raises(DimensionMismatch, match="not PSD"):
            GaussianModel(mean=np.zeros(2), cov=1e6 * np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GaussianModel(mean=np.zeros(3), cov=np.eye(2))

    @pytest.mark.parametrize("mean,cov", [([0.0], [[np.nan]]), ([0.0], [[np.inf]]), ([np.nan], [[1.0]]),
                                          ([0.0, np.inf], np.eye(2))])
    def test_rejects_non_finite_moments(self, mean, cov):
        # NaN fails every comparison, so the symmetry and PSD checks alone
        # would let a NaN covariance through
        with pytest.raises(DimensionMismatch, match="^mean and covariance must be finite$"):
            GaussianModel(mean=np.array(mean), cov=np.array(cov))


class TestFitGaussian:
    def test_overflowing_squares_name_their_columns(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((50, 3)) * [1.0, 1e155, 1e160]
        with pytest.raises(Overflow, match=r"^the squares of 'x1', 'x2' overflow float64$"):
            fit_gaussian(_data(values))

    def test_identical_columns_rank_one(self):
        rng = np.random.default_rng(0)
        col = rng.standard_normal(500)
        g = fit_gaussian(_data(np.column_stack([col, col])))
        assert g.cov[0, 1] == pytest.approx(g.cov[0, 0])
        assert np.linalg.matrix_rank(g.cov, tol=1e-8) == 1

    def test_iid_normals_near_identity(self):
        rng = np.random.default_rng(1)
        g = fit_gaussian(_data(rng.standard_normal((100000, 3))))
        assert np.max(np.abs(g.cov - np.eye(3))) < 0.05
        assert np.max(np.abs(g.mean)) < 0.05

    def test_constant_column_zero_variance(self):
        rng = np.random.default_rng(2)
        values = np.column_stack([np.full(100, 3.0), rng.standard_normal(100)])
        g = fit_gaussian(_data(values))
        assert abs(g.cov[0, 0]) < 1e-12

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientRows):
            fit_gaussian(_data(np.eye(3)[:3, :3]))


class TestConditionalParams:
    def test_bivariate_textbook_form(self):
        rho = 0.6
        mean_map, cov_c = conditional_params(_bivariate(rho), FeatureIndexSet.of([0]), FeatureIndexSet.of([1]))
        x = np.array([[2.0]])
        assert mean_map.apply(x)[0, 0] == pytest.approx(rho * 2.0, abs=1e-8)
        assert cov_c[0, 0] == pytest.approx(1.0 - rho * rho, abs=1e-6)

    def test_empty_conditioning_returns_marginal(self):
        g = _bivariate(0.3)
        mean_map, cov_c = conditional_params(g, FeatureIndexSet.empty(), FeatureIndexSet.of([0, 1]))
        assert np.allclose(cov_c, g.cov)
        assert np.allclose(mean_map.apply(np.zeros((4, 0))), np.zeros((4, 2)))

    def test_deterministic_pair(self):
        mean_map, cov_c = conditional_params(_bivariate(1.0), FeatureIndexSet.of([0]), FeatureIndexSet.of([1]))
        assert mean_map.apply(np.array([[1.5]]))[0, 0] == pytest.approx(1.5, abs=1e-6)
        assert abs(cov_c[0, 0]) < 1e-6

    def test_overlap_rejected(self):
        with pytest.raises(DisjointnessViolation):
            conditional_params(_bivariate(0.0), FeatureIndexSet.of([0]), FeatureIndexSet.of([0, 1]))

    def test_sequences_follow_given_order(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4))
        g = GaussianModel(mean=rng.standard_normal(4), cov=a @ a.T + np.eye(4))
        ref_map, ref_cov = conditional_params(g, FeatureIndexSet.of([0, 3]), FeatureIndexSet.of([1, 2]))
        mean_map, cov_c = conditional_params(g, [3, 0], [2, 1])
        flip = [1, 0]
        assert np.allclose(mean_map.offset, ref_map.offset[flip])
        assert np.allclose(mean_map.cond_mean, ref_map.cond_mean[flip])
        assert np.allclose(mean_map.matrix, ref_map.matrix[np.ix_(flip, flip)])
        assert np.allclose(cov_c, ref_cov[np.ix_(flip, flip)])
        x = rng.standard_normal((5, 2))
        assert np.allclose(mean_map.apply(x), ref_map.apply(x[:, flip])[:, flip])

    def test_sequence_overlap_rejected(self):
        with pytest.raises(DisjointnessViolation):
            conditional_params(_bivariate(0.0), [1], [0, 1])


class TestPerturb:
    def test_independent_perturbation_breaks_association(self):
        rng = np.random.default_rng(3)
        n = 20000
        data = _data(rng.standard_normal((n, 2)))
        sampler = PerturbationSampler(_bivariate(0.0), FeatureIndexSet.empty(), rng_seed=5)
        out = perturb(sampler, data, FeatureIndexSet.of([0]))
        corr = np.corrcoef(out[:, 0], data.values[:, 0])[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(n)

    def test_perfect_correlation_reproduces_column(self):
        rng = np.random.default_rng(4)
        data = _data(rng.standard_normal((200, 2)))
        sampler = PerturbationSampler(_bivariate(1.0), FeatureIndexSet.of([0]), rng_seed=6)
        out = perturb(sampler, data, FeatureIndexSet.of([1]))
        assert np.max(np.abs(out[:, 0] - data.values[:, 0])) < 1e-3

    def test_slope_recovery(self):
        rho = 0.8
        rng = np.random.default_rng(5)
        n = 50000
        x1 = rng.standard_normal(n)
        x2 = rho * x1 + np.sqrt(1 - rho * rho) * rng.standard_normal(n)
        data = _data(np.column_stack([x1, x2]))
        sampler = PerturbationSampler(_bivariate(rho), FeatureIndexSet.of([0]), rng_seed=7)
        out = perturb(sampler, data, FeatureIndexSet.of([1]))
        slope = float(np.polyfit(x1, out[:, 0], 1)[0])
        assert slope == pytest.approx(rho, abs=0.02)

    def test_joint_preservation(self):
        rho = 0.5
        rng = np.random.default_rng(6)
        n = 50000
        x1 = rng.standard_normal(n)
        x2 = rho * x1 + np.sqrt(1 - rho * rho) * rng.standard_normal(n)
        data = _data(np.column_stack([x1, x2]))
        sampler = PerturbationSampler(_bivariate(rho), FeatureIndexSet.of([0]), rng_seed=8)
        out = perturb(sampler, data, FeatureIndexSet.of([1]))
        pooled = np.column_stack([x1, out[:, 0]])
        cov = np.cov(pooled, rowvar=False)
        # asymptotic SE of a covariance entry is ~ sqrt((s_ii s_jj + s_ij^2) / n)
        for (i, j) in ((0, 0), (0, 1), (1, 1)):
            se = np.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n)
            target = 1.0 if i == j else rho
            assert abs(cov[i, j] - target) < 5 * se

    def test_conditional_independence_contract(self):
        rho = 0.7
        rng = np.random.default_rng(7)
        n = 50000
        x1 = rng.standard_normal(n)
        x2 = rho * x1 + np.sqrt(1 - rho * rho) * rng.standard_normal(n)
        data = _data(np.column_stack([x1, x2]))
        sampler = PerturbationSampler(_bivariate(rho), FeatureIndexSet.of([0]), rng_seed=9)
        out = perturb(sampler, data, FeatureIndexSet.of([1]))[:, 0]
        # partial correlation of draw and original x2 given x1
        r1 = out - np.polyval(np.polyfit(x1, out, 1), x1)
        r2 = x2 - np.polyval(np.polyfit(x1, x2, 1), x1)
        partial = np.corrcoef(r1, r2)[0, 1]
        assert abs(partial) < 4.0 / np.sqrt(n)

    def test_seed_determinism(self):
        rng = np.random.default_rng(8)
        data = _data(rng.standard_normal((100, 2)))
        sampler = PerturbationSampler(_bivariate(0.2), FeatureIndexSet.of([0]), rng_seed=11)
        a = perturb(sampler, data, FeatureIndexSet.of([1]))
        b = perturb(sampler, data, FeatureIndexSet.of([1]))
        assert np.array_equal(a, b)

    def test_target_overlap_rejected(self):
        data = _data(np.zeros((5, 2)))
        sampler = PerturbationSampler(_bivariate(0.2), FeatureIndexSet.of([0]), rng_seed=1)
        with pytest.raises(DisjointnessViolation):
            perturb(sampler, data, FeatureIndexSet.of([0]))


class TestMarginalize:
    def test_linear_closed_form_oracle(self):
        rho = 0.6
        g = _bivariate(rho)
        inner = LinearPredictor(weights=np.array([1.0, 2.0]), intercept=0.5)
        mc = marginalize(inner, FeatureIndexSet.of([0]), g, "conditional", n_integration=256, seed=3)
        exact = marginalize(inner, FeatureIndexSet.of([0]), g, "conditional", exact=True)
        x = np.array([[1.0, 99.0], [-0.5, 99.0]])
        samples = mc.predict_samples(x)
        se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
        assert np.all(np.abs(mc.predict(x) - exact.predict(x)) < 3 * se)
        # closed form: 0.5 + x0 + 2 * rho * x0
        assert exact.predict(x)[0] == pytest.approx(0.5 + 1.0 + 2 * rho * 1.0, abs=1e-8)

    def test_independent_mode_uses_marginal_mean(self):
        g = _bivariate(0.9)
        inner = LinearPredictor(weights=np.array([1.0, 2.0]), intercept=0.0)
        exact = marginalize(inner, FeatureIndexSet.of([0]), g, "independent", exact=True)
        # dropped column integrates to its marginal mean 0 regardless of x0
        assert exact.predict(np.array([[1.0, 99.0]]))[0] == pytest.approx(1.0, abs=1e-10)

    def test_kept_everything_is_identity(self):
        g = _bivariate(0.2)
        inner = LinearPredictor(weights=np.array([1.0, -1.0]), intercept=0.0)
        marg = marginalize(inner, FeatureIndexSet.of([0, 1]), g)
        x = np.array([[0.3, -0.7]])
        assert np.array_equal(marg.predict(x), inner.predict(x))

    def test_inner_ignoring_dropped_has_zero_mc_variance(self):
        g = _bivariate(0.2)
        inner = LinearPredictor(weights=np.array([1.0, 0.0]), intercept=0.0)
        marg = marginalize(inner, FeatureIndexSet.of([0]), g, n_integration=16, seed=4)
        samples = marg.predict_samples(np.array([[1.0, 0.0]]))
        assert float(samples.std()) == 0.0

    def test_reads_only_kept_columns(self):
        g = _bivariate(0.4)
        inner = LinearPredictor(weights=np.array([1.0, 1.0]), intercept=0.0)
        marg = marginalize(inner, FeatureIndexSet.of([0]), g, n_integration=8, seed=5)
        a = marg.predict(np.array([[1.0, 10.0]]))
        b = marg.predict(np.array([[1.0, -10.0]]))
        assert np.array_equal(a, b)

    def test_exact_requires_linear(self):
        class Opaque(Predictor):
            support = FeatureIndexSet.of([0, 1])

            def predict(self, x):
                return np.zeros(np.atleast_2d(x).shape[0])

        with pytest.raises(DimensionMismatch):
            marginalize(Opaque(), FeatureIndexSet.of([0]), _bivariate(0.0), exact=True)

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("exact", [True, False])
    def test_rejects_x_of_another_width(self, width, exact):
        inner = LinearPredictor(weights=np.array([1.0, 2.0]), intercept=0.0)
        marg = marginalize(inner, FeatureIndexSet.of([0]), _bivariate(0.3), n_integration=4, exact=exact)
        for call in (marg.predict, marg.predict_samples):
            with pytest.raises(DimensionMismatch, match=f"x has {width} columns"):
                call(np.zeros((3, width)))

    def test_invalid_settings(self):
        inner = LinearPredictor(weights=np.array([1.0, 1.0]), intercept=0.0)
        with pytest.raises(DimensionMismatch):
            marginalize(inner, FeatureIndexSet.of([0]), _bivariate(0.0), integration="weird")
        with pytest.raises(DimensionMismatch):
            marginalize(inner, FeatureIndexSet.of([0]), _bivariate(0.0), n_integration=0)


class TestSingularConditioningNamesItsColumns:
    """A stacked solve or factorization that fails is redone one set at a
    time, so the error names the failing set's columns."""

    def test_solve_names_the_conditioning_columns(self):
        # column 1's variance plus the jitter is exactly 0
        g = GaussianModel(mean=np.zeros(4), cov=np.diag([1.0, -1e-9, 1.0, 1.0]))
        table = _Conditioning(g, range(4))
        with pytest.raises(SingularConditioning) as info:
            table.add([0b1001, 0b0101, 0b0011, 0b0110])
        assert (info.value.cond, info.value.targets) == ((0, 1), None)
        assert str(info.value) == "conditioning covariance is singular: conditioning columns 0, 1"
        assert str(info.value.named("abcd")).endswith("conditioning columns 'a', 'b'")
        assert table.slots == {}

    def test_conditional_params_names_the_conditioning_columns(self):
        g = GaussianModel(mean=np.zeros(3), cov=np.diag([1.0, -1e-9, 1.0]))
        with pytest.raises(SingularConditioning) as info:
            conditional_params(g, [1], [0, 2])
        assert str(info.value) == "conditioning covariance is singular: conditioning columns 1"

    def test_factorization_names_conditioning_and_targets(self):
        g = GaussianModel(mean=np.zeros(3), cov=np.diag([1.0, -1e-9, 1.0]))
        table = _Conditioning(g, range(3))
        with pytest.raises(SingularConditioning) as info:
            table.factorize([(0b001, (2,)), (0b100, (1,)), (0b001, (1,))])
        named = info.value.named(("a", "b", "c"))
        assert str(named) == "covariance block not factorizable: conditioning columns 'c', target columns 'b'"

    def test_independent_redraw_names_no_conditioning_column(self):
        g = GaussianModel(mean=np.zeros(2), cov=np.diag([1.0, -1e-9]))
        with pytest.raises(SingularConditioning, match="conditioning columns none, target columns 1$"):
            perturb(PerturbationSampler(g, FeatureIndexSet.empty(), 0), _data(np.eye(2)), FeatureIndexSet.of([1]))
