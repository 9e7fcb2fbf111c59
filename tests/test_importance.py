import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dedact.core import (
    CROSS_ENTROPY,
    SQUARED_ERROR,
    DataMatrix,
    FeatureIndexSet,
    LinearPredictor,
    Predictor,
    TargetVector,
    derive_seed,
    fit_ols,
)
import dedact.importance as importance
from dedact.decompose import shapley_decompose_sage
from dedact.errors import DimensionMismatch, DisjointnessViolation, SingularConditioning
from dedact.importance import (
    _KEEP,
    MEASURES,
    MODES,
    ImportanceEvaluator,
    MeasureBatch,
    MeasureSpec,
    PathwayGames,
    evaluation_count,
    reset_evaluation_count,
)
from dedact.sampler import (
    GaussianModel,
    PerturbationSampler,
    _conditionals,
    _Conditioning,
    _stable_cholesky,
    conditional_params,
    fit_gaussian,
    marginalize,
    perturb,
)
from dedact.scm import census_scm, sample_scm


def _gaussian_data(cov, n, seed):
    cov = np.asarray(cov, dtype=float)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, cov.shape[0])) @ np.linalg.cholesky(cov).T
    return DataMatrix(values, tuple(f"x{i}" for i in range(cov.shape[0])))


def _evaluator(cov, weights, n=50000, seed=0, target_weights=None, noise=0.0, **kw):
    """Linear model on correlated Gaussian columns with a linear target."""
    data = _gaussian_data(cov, n, seed)
    rng = np.random.default_rng(seed + 1)
    tw = np.asarray(weights if target_weights is None else target_weights, dtype=float)
    y = TargetVector(data.values @ tw + noise * rng.standard_normal(n))
    pred = LinearPredictor(weights=np.asarray(weights, dtype=float), intercept=0.0)
    g = GaussianModel(mean=np.zeros(len(weights)), cov=np.asarray(cov, dtype=float))
    return ImportanceEvaluator(data, y, pred, g, seed=seed, **kw)


def _near_zero(est, factor=4.0):
    return abs(est.value) <= max(factor * est.std_error, 1e-12)


class TestMeasureSpec:
    def test_unknown_measure(self):
        with pytest.raises(DimensionMismatch):
            MeasureSpec("XX", FeatureIndexSet.of([0]), FeatureIndexSet.empty())

    def test_unknown_mode(self):
        with pytest.raises(DimensionMismatch):
            MeasureSpec("DI", FeatureIndexSet.of([0]), FeatureIndexSet.empty(), mode="weird")

    def test_interest_baseline_overlap(self):
        with pytest.raises(DisjointnessViolation):
            MeasureSpec("DI", FeatureIndexSet.of([0]), FeatureIndexSet.of([0, 1]))

    def test_n_mc_positive(self):
        with pytest.raises(DimensionMismatch):
            MeasureSpec("DI", FeatureIndexSet.of([0]), FeatureIndexSet.empty(), n_mc=0)


class TestDirectImportance:
    def test_two_feature_oracle(self):
        # y = x0 + x1 exactly, independent columns: DI(x0 | x1) = E[(x~0 - x0)^2] = 2
        ev = _evaluator(np.eye(2), [1.0, 1.0], n=100000)
        est = ev.direct_importance([0], [1])
        assert abs(est.value - 2.0) <= 3 * est.std_error + 6.0 / np.sqrt(100000)

    def test_unused_feature_has_no_direct_importance(self):
        ev = _evaluator(np.array([[1.0, 0.5], [0.5, 1.0]]), [1.0, 0.0], n=20000)
        assert _near_zero(ev.direct_importance([1], []))
        assert _near_zero(ev.direct_importance([1], [0]))

    def test_empty_interest_is_exactly_zero(self):
        ev = _evaluator(np.eye(2), [1.0, 1.0], n=1000)
        est = ev.direct_importance([], [0])
        assert est.value == 0.0 and est.std_error == 0.0


class TestAssociativeImportance:
    def test_duplicate_column_oracle(self):
        # x1 = x0 exactly, model reads x1 only, y = x0: AI(x0 | empty) = 2
        n = 100000
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(n)
        data = DataMatrix(np.column_stack([x0, x0]), ("x0", "x1"))
        y = TargetVector(x0)
        pred = LinearPredictor(weights=np.array([0.0, 1.0]), intercept=0.0)
        g = GaussianModel(mean=np.zeros(2), cov=np.array([[1.0, 1.0], [1.0, 1.0]]))
        ev = ImportanceEvaluator(data, y, pred, g, seed=0)
        est = ev.associative_importance([0], [])
        assert abs(est.value - 2.0) <= 3 * est.std_error + 6.0 / np.sqrt(100000)

    def test_noise_variable_has_no_associative_importance(self):
        # x1 is pure noise, independent of y
        ev = _evaluator(np.eye(2), [1.0, 0.0], n=50000, noise=0.5)
        assert _near_zero(ev.associative_importance([1], []))
        assert _near_zero(ev.associative_importance([1], [0]))

    def test_empty_interest_is_exactly_zero(self):
        ev = _evaluator(np.eye(2), [1.0, 1.0], n=1000)
        est = ev.associative_importance([], [1])
        assert est.value == 0.0 and est.std_error == 0.0


class TestDiFrom:
    def test_independent_source_contributes_nothing(self):
        ev = _evaluator(np.eye(2), [1.0, 1.0], n=50000)
        assert _near_zero(ev.di_from([0], [1], [1]))

    def test_self_source_equals_direct_importance_bitwise(self):
        ev = _evaluator(np.array([[1.0, 0.3], [0.3, 1.0]]), [1.0, 1.0], n=20000)
        di = ev.direct_importance([0], [1], seed=5)
        df = ev.di_from([0], [1], [0], seed=5)
        assert df.value == di.value and df.std_error == di.std_error
        # on every engine path: DI is DI_from its own columns, and from every column
        for ev, mode in _engine_paths():
            di = ev.direct_importance([1, 2], [0], mode=mode, seed=5)
            for sources in ([2, 1], [0, 1, 2, 3]):
                df = ev.di_from([1, 2], [0], sources, mode=mode, seed=5)
                assert (df.value, df.std_error) == (di.value, di.std_error), (type(ev.predictor), mode, ev.loss)

    def test_empty_source_is_exactly_zero(self):
        ev = _evaluator(np.eye(2), [1.0, 1.0], n=1000)
        est = ev.di_from([0], [1], [])
        assert est.value == 0.0 and est.std_error == 0.0

    def test_monotone_in_sources(self):
        cov = np.array([
            [1.0, 0.6, 0.3],
            [0.6, 1.0, 0.2],
            [0.3, 0.2, 1.0],
        ])
        ev = _evaluator(cov, [1.0, 0.5, 0.5], n=30000)
        small = ev.di_from([0], [1, 2], [1], seed=9)
        large = ev.di_from([0], [1, 2], [1, 2], seed=9)
        combined = np.hypot(small.std_error, large.std_error)
        assert large.value >= small.value - 4 * combined


class TestAiVia:
    def test_full_pathway_equals_associative_importance_bitwise(self):
        ev = _evaluator(np.array([[1.0, 0.4], [0.4, 1.0]]), [1.0, 1.0], n=20000)
        ai = ev.associative_importance([0], [], seed=3)
        via = ev.ai_via([0], [], [0, 1], seed=3)
        assert via.value == ai.value and via.std_error == ai.std_error
        # on every engine path: AI is AI_via through every column
        for ev, mode in _engine_paths():
            for context in ([], [3]):
                ai = ev.associative_importance([0, 2], context, mode=mode, seed=3)
                via = ev.ai_via([0, 2], context, [3, 1, 2, 0], mode=mode, seed=3)
                assert (via.value, via.std_error) == (ai.value, ai.std_error), (type(ev.predictor), mode, ev.loss)

    def test_pathway_through_unused_feature_is_blocked(self):
        # x1 carries x0's signal but the model ignores x1
        cov = np.array([[1.0, 0.9], [0.9, 1.0]])
        ev = _evaluator(cov, [1.0, 0.0], n=30000)
        assert _near_zero(ev.ai_via([0], [], [1]))

    def test_proxy_pathway_carries_leakage(self):
        # model reads only x1 (a proxy of x0); the pathway via x1 is the whole AI
        cov = np.array([[1.0, 0.8], [0.8, 1.0]])
        ev = _evaluator(cov, [0.0, 1.0], n=50000, target_weights=[1.0, 0.0])
        ai = ev.associative_importance([0], [], seed=4)
        via = ev.ai_via([0], [], [1], seed=4)
        assert via.value > 0
        assert via.value == pytest.approx(ai.value, abs=4 * np.hypot(ai.std_error, via.std_error) + 1e-9)


class TestNamedSpecialCases:
    def test_pfi_delegates_to_direct_importance(self):
        ev = _evaluator(np.eye(3), [1.0, 2.0, 0.0], n=10000)
        a = ev.pfi(1, seed=2)
        b = ev.direct_importance([1], [0, 2], seed=2)
        assert a.value == b.value

    def test_conditional_fi_delegates(self):
        ev = _evaluator(np.eye(3), [1.0, 2.0, 0.0], n=10000)
        a = ev.conditional_fi(1, seed=2)
        b = ev.associative_importance([1], [0, 2], seed=2)
        assert a.value == b.value

    def test_sage_values_run_both_variants(self):
        ev = _evaluator(np.eye(2), [1.0, 1.0], n=5000, n_mc=5)
        for variant in ("marginal", "conditional"):
            est = ev.sage_value([0], variant=variant)
            assert est.mode == "marginalized"
            assert est.value > 0
        with pytest.raises(DimensionMismatch):
            ev.sage_value([0], variant="other")

    def test_sage_attribution_single_feature(self):
        ev = _evaluator(np.eye(1), [1.0], n=5000, n_mc=5)
        attr = ev.sage_attribution(0, n_orders=3)
        solo = ev.sage_value([0])
        assert attr.value == pytest.approx(solo.value, abs=5 * (attr.std_error + solo.std_error) + 1e-9)

    def test_sage_attribution_additive_independent_is_order_free(self):
        ev = _evaluator(np.eye(2), [1.0, 2.0], n=20000, n_mc=5)
        attr = ev.sage_attribution(1, n_orders=12)
        solo = ev.sage_value([1])
        assert attr.value == pytest.approx(solo.value, abs=5 * (attr.std_error + solo.std_error) + 0.05)

    def test_sage_attribution_dummy_feature(self):
        ev = _evaluator(np.eye(2), [1.0, 0.0], n=20000, n_mc=5)
        attr = ev.sage_attribution(1, n_orders=8)
        assert abs(attr.value) <= max(4 * attr.std_error, 1e-12)


class TestEngineContracts:
    def test_permutation_invariance_bitwise(self):
        cov = np.array([
            [1.0, 0.5, 0.2],
            [0.5, 1.0, 0.1],
            [0.2, 0.1, 1.0],
        ])
        data = _gaussian_data(cov, 5000, 11)
        y = TargetVector(data.values @ np.array([1.0, -1.0, 0.5]))
        perm = [2, 0, 1]  # new position p holds old column perm[p]
        data_p = DataMatrix(data.values[:, perm], tuple(data.column_names[i] for i in perm))
        cov_p = cov[np.ix_(perm, perm)]
        w = np.array([1.0, -1.0, 0.5])
        for mode, loss in (("original_f", SQUARED_ERROR), ("marginalized", SQUARED_ERROR),
                           ("original_f", CROSS_ENTROPY)):
            ev = ImportanceEvaluator(
                data, y, LinearPredictor(weights=w, intercept=0.0),
                GaussianModel(mean=np.zeros(3), cov=cov), loss=loss, n_mc=3, seed=7, n_integration=4,
            )
            ev_p = ImportanceEvaluator(
                data_p, y, LinearPredictor(weights=w[perm], intercept=0.0),
                GaussianModel(mean=np.zeros(3), cov=cov_p), loss=loss, n_mc=3, seed=7, n_integration=4,
            )
            est = ev._estimate(MeasureSpec("AI", FeatureIndexSet.of([0]), FeatureIndexSet.of([1]),
                                           mode=mode, n_mc=3, seed=7))
            est_p = ev_p._estimate(MeasureSpec("AI", FeatureIndexSet.of([perm.index(0)]), FeatureIndexSet.of([perm.index(1)]),
                                               mode=mode, n_mc=3, seed=7))
            if (mode, loss) == ("original_f", SQUARED_ERROR):
                assert est.value == est_p.value
            else:
                # the row path sums X @ u in column order, so invariance
                # holds to rounding only; its draws are keyed by canonical
                # rank and so are the same columns under any permutation
                assert est.value == pytest.approx(est_p.value, rel=1e-12, abs=1e-12)

    def test_seed_determinism(self):
        ev = _evaluator(np.eye(2), [1.0, 1.0], n=2000, n_mc=4)
        a = ev.pfi(0, seed=3)
        b = ev.pfi(0, seed=3)
        assert a.value == b.value and a.std_error == b.std_error

    def test_std_error_definition(self):
        ev = _evaluator(np.eye(2), [1.0, 1.0], n=2000, n_mc=6)
        est = ev.pfi(0, seed=1)
        singles = [ev.pfi(0, n_mc=1, seed=1).value for _ in range(1)]
        assert est.n_mc == 6
        assert est.std_error > 0
        # a single-repetition estimate reports no spread
        one = ev.pfi(0, n_mc=1, seed=1)
        assert one.std_error == 0.0
        assert np.isfinite(singles[0])

    @pytest.mark.parametrize("which,n_reps", [("linear", 1), ("opaque", 5)])
    def test_structural_zero_reports_its_batch_n_mc(self, which, n_reps):
        # an empty pathway makes both plans identical: a structural zero,
        # reported with the repetitions of every other estimate (one under
        # a linear predictor's closed-form marginalization)
        cov = [[1.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.0]]
        ev = _evaluator(cov, [1.0, 1.0, 1.0], n=200, n_mc=5)
        ev = ev if which == "linear" else _opaque_twin(ev)
        zero = ev.ai_via([0], [], [], mode="marginalized")
        live = ev.ai_via([0], [], [1], mode="marginalized")
        assert (zero.value, zero.std_error) == (0.0, 0.0)
        assert zero.n_mc == live.n_mc == n_reps
        spec = MeasureSpec("AI_via", FeatureIndexSet.of([0]), FeatureIndexSet.empty(), mode="marginalized",
                           n_mc=5, seed=ev.seed)
        value, se = ev.evaluate(MeasureBatch(spec, (0, 0b10, 0, 0b110)))
        assert (value == 0.0).tolist() == [True, False, True, False]
        assert (se[[0, 2]] == 0.0).all()

    @pytest.mark.parametrize("loss", [SQUARED_ERROR, CROSS_ENTROPY], ids=["squared_error", "cross_entropy"])
    def test_the_predictor_picks_the_one_kernel(self, loss):
        # no flag selects the marginalization: a linear predictor takes
        # the moment form or the linear row path, any other the plan matrix
        linear, opaque, _ = _linear_and_opaque(loss=loss)
        assert linear._kernel == (linear._moment if loss is SQUARED_ERROR else linear._linear_rows)
        assert opaque._kernel == opaque._opaque_rows
        with pytest.raises(TypeError, match="exact_marginalization"):
            ImportanceEvaluator(linear.data, linear.target, linear.predictor, linear.gaussian, loss=loss,
                                exact_marginalization=True)

    def test_evaluation_counter(self):
        ev = _evaluator(np.eye(2), [1.0, 1.0], n=2000, n_mc=2)
        reset_evaluation_count()
        ev.pfi(0)
        ev.associative_importance([0], [])
        assert evaluation_count() == 2

    def test_cross_entropy_loss_path(self):
        rng = np.random.default_rng(12)
        data = _gaussian_data(np.eye(2), 2000, 12)
        y = TargetVector((rng.random(2000) < 0.5).astype(float))
        pred = LinearPredictor(weights=np.array([0.01, 0.0]), intercept=0.5)
        ev = ImportanceEvaluator(
            data, y, pred, GaussianModel(mean=np.zeros(2), cov=np.eye(2)),
            loss=CROSS_ENTROPY, n_mc=3, seed=0,
        )
        est = ev.pfi(0)
        assert np.isfinite(est.value) and est.std_error >= 0

    @pytest.mark.parametrize("mode", ["original_f", "marginalized"])
    def test_spec_takes_the_evaluators_loss(self, mode):
        # the loss is the evaluator's alone: a spec evaluated directly is
        # scored with it, as the named methods are
        def evaluators():  # linear and opaque, each call with an empty memo
            return _linear_and_opaque(n=300, n_integration=3, n_mc=3, loss=CROSS_ENTROPY)[:2]

        spec = MeasureSpec("DI", FeatureIndexSet.of([0]), FeatureIndexSet.empty(), mode=mode, n_mc=3, seed=0)
        for ev, twin in zip(evaluators(), evaluators()):
            direct, named = ev._estimate(spec), twin.direct_importance([0], [], mode=mode)
            assert (direct.value, direct.std_error) == (named.value, named.std_error)

    def test_shape_validation(self):
        data = _gaussian_data(np.eye(2), 100, 0)
        y = TargetVector(np.zeros(99))
        pred = LinearPredictor(weights=np.array([1.0, 1.0]), intercept=0.0)
        with pytest.raises(DimensionMismatch):
            ImportanceEvaluator(data, y, pred, GaussianModel(mean=np.zeros(2), cov=np.eye(2)))
        with pytest.raises(DimensionMismatch):
            ImportanceEvaluator(
                data, TargetVector(np.zeros(100)), pred,
                GaussianModel(mean=np.zeros(3), cov=np.eye(3)),
            )

    @pytest.mark.parametrize("key", ["n_mc", "n_integration"])
    def test_counts_checked_at_construction(self, key):
        # n_integration=0 used to construct and then divide by zero in the
        # first marginalized evaluation
        data = _gaussian_data(np.eye(2), 100, 0)
        pred = LinearPredictor(weights=np.array([1.0, 1.0]), intercept=0.0)
        gaussian = GaussianModel(mean=np.zeros(2), cov=np.eye(2))
        with pytest.raises(DimensionMismatch, match=rf"^{key} must be >= 1$"):
            ImportanceEvaluator(data, TargetVector(np.zeros(100)), pred, gaussian, **{key: 0})


class _OpaqueLinear(Predictor):
    """The same affine map as a LinearPredictor, hidden from the engine's
    linear form, so evaluation goes through the materialized plan matrix."""

    def __init__(self, weights, intercept):
        self.weights, self.intercept = weights, intercept
        self.support = FeatureIndexSet.of(np.nonzero(weights)[0])

    def predict(self, x):
        return np.asarray(x, dtype=float) @ self.weights + self.intercept


def _random_specs(d, rng, count, **kw):
    """(spec, aux columns) pairs, one per measure in turn."""
    specs = []
    while len(specs) < count:
        cols = rng.permutation(d)
        n_interest, n_baseline = int(rng.integers(1, d)), int(rng.integers(0, d))
        interest = cols[:n_interest]
        baseline = cols[n_interest:n_interest + n_baseline]
        aux = rng.choice(d, size=int(rng.integers(0, d + 1)), replace=False)
        specs.append((MeasureSpec(
            MEASURES[len(specs) % len(MEASURES)], FeatureIndexSet.of(interest),
            FeatureIndexSet.of(baseline), **kw,
        ), FeatureIndexSet.of(aux).indices))
    return specs


def _linear_and_opaque(d=4, n=400, seed=3, loss=SQUARED_ERROR, **kw):
    """A linear predictor and its `_OpaqueLinear` twin on correlated
    Gaussian columns. Under cross-entropy the target is 0/1 (a linear
    target cut at its median) and the predictor is its least-squares fit,
    as `run()` fits one."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) / np.sqrt(d)
    cov = a @ a.T + 0.5 * np.eye(d)
    mean = rng.standard_normal(d)
    values = mean + rng.standard_normal((n, d)) @ np.linalg.cholesky(cov).T
    data = DataMatrix(values, tuple(f"c{i}" for i in (3, 0, 2, 1)[:d]))
    w, b = rng.standard_normal(d), 0.7
    y = TargetVector(values @ w + rng.standard_normal(n))
    if loss is CROSS_ENTROPY:
        y = TargetVector((y.values > np.median(y.values)).astype(float))
        fitted = fit_ols(data, y)
        w, b = fitted.weights, fitted.intercept
    g = GaussianModel(mean=mean, cov=cov)
    linear = ImportanceEvaluator(data, y, LinearPredictor(weights=w, intercept=b), g, loss=loss, **kw)
    opaque = ImportanceEvaluator(data, y, _OpaqueLinear(w, b), g, loss=loss, **kw)
    return linear, opaque, rng


def _opaque_twin(ev):
    """ev with its linear predictor behind `_OpaqueLinear`: the same map,
    marginalized by Monte Carlo."""
    p = ev.predictor
    return ImportanceEvaluator(ev.data, ev.target, _OpaqueLinear(p.weights, p.intercept), ev.gaussian, loss=ev.loss,
                               n_mc=ev.n_mc, seed=ev.seed, n_integration=ev.n_integration)


def _plans(ev, spec, aux):
    """The plan keys of one spec's two terms, the columns aux its aux."""
    return ev._plan_pairs(spec, (importance._mask(aux),))[0]


def _engine_paths():
    """(evaluator, mode) over every engine path that an identity between
    measures must hold on: both modes, both losses, and a linear predictor
    (marginalized in closed form) as well as one the engine reads only
    through `predict` (marginalized by Monte Carlo)."""
    for mode in MODES:
        for loss in (SQUARED_ERROR, CROSS_ENTROPY):
            linear, opaque, _ = _linear_and_opaque(n=300, n_integration=3, n_mc=3, loss=loss)
            yield linear, mode
            yield opaque, mode


def _risks_on_one_draw(linear, opaque, plan, rng):
    """A plan's `original_f` squared-error risk on one explicit standard
    normal z: from the moment form fed z's own moments, and from the
    opaque row path on z."""
    z = rng.standard_normal(linear.data.values.shape)  # canonical column order
    x = linear.data.values[:, linear._canon_order]
    x_c, y = x - x.mean(axis=0), linear.target.values
    y_c, n = y - y.mean(), len(y)
    moments = (z.T @ z / n, z.T @ x_c / n, z.mean(axis=0), z.T @ y_c / n)
    u, v, c = linear._linear_forms([plan], True)
    moment = linear._moment_risks(u[:, linear._canon_order], v, c, tuple(m[None] for m in moments))[0, 0]
    return moment, float(np.mean((y - opaque.predictor.predict(opaque._build_matrix(plan, z))) ** 2))


class TestPlanEngine:
    # the two paths take different draws (see TestMomentForm), so each
    # plan's risk is matched on one explicit z
    @pytest.mark.parametrize("mode", ["original_f"])
    def test_generic_path_matches_linear_form(self, mode):
        linear, opaque, rng = _linear_and_opaque(n_integration=4)
        for spec, aux in _random_specs(4, rng, 24, mode=mode, n_mc=3, seed=5):
            for plan in _plans(linear, spec, aux):
                moment, row = _risks_on_one_draw(linear, opaque, plan, rng)
                assert moment == pytest.approx(row, rel=0, abs=1e-12), spec

    def test_linear_form_matches_materialized_plan(self):
        linear, _, rng = _linear_and_opaque()
        x, predictor = linear.data.values, linear.predictor
        for spec, aux in _random_specs(4, rng, 24):
            plans = _plans(linear, spec, aux)
            for plan, u, v, c in zip(plans, *linear._linear_forms(plans, True)):
                zero = np.zeros(x.shape)
                z = rng.standard_normal(x.shape)
                expected = predictor.predict(linear._build_matrix(plan, zero))
                np.testing.assert_allclose(x @ u + c, expected, rtol=0, atol=1e-12)
                expected = predictor.predict(linear._build_matrix(plan, z))
                np.testing.assert_allclose(x @ u + z @ v + c, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("loss", [SQUARED_ERROR, CROSS_ENTROPY], ids=["squared_error", "cross_entropy"])
    @pytest.mark.parametrize("which", ["linear", "opaque"])
    def test_each_term_takes_its_documented_path(self, monkeypatch, which, loss, mode):
        # a linear predictor's squared-error terms take the moment form in
        # either mode, its cross-entropy terms the linear row path; any
        # other predictor reads the materialized plan matrix
        linear, opaque, _ = _linear_and_opaque(n=200, n_integration=3, n_mc=2, loss=loss)
        ev = linear if which == "linear" else opaque
        calls = []
        for name in ("_moment_risks", "_linear_forms", "_build_matrix"):
            def spy(*args, _name=name, _method=getattr(ev, name), **kw):
                calls.append(_name)
                return _method(*args, **kw)

            monkeypatch.setattr(ev, name, spy)
        ev.direct_importance([0], [1], mode=mode)
        expected = {"_build_matrix"} if which == "opaque" else {"_linear_forms"}
        if which == "linear" and loss is SQUARED_ERROR:
            expected.add("_moment_risks")
        assert set(calls) == expected

    @pytest.mark.parametrize("which", ["linear", "opaque"])
    def test_reused_terms_are_bit_identical(self, which):
        for loss in (SQUARED_ERROR, CROSS_ENTROPY):
            linear, opaque, rng = _linear_and_opaque(n_integration=4, loss=loss)
            ev = linear if which == "linear" else opaque
            specs = [s for mode in MODES for s in _random_specs(4, rng, 8, mode=mode, n_mc=3, seed=2)]
            warm = [ev._estimate(*s) for s in specs + specs]
            assert ev.terms_reused > ev.terms_computed
            for (spec, aux), est in zip(specs + specs, warm):
                fresh = ImportanceEvaluator(
                    ev.data, ev.target, ev.predictor, ev.gaussian, loss=loss, n_integration=4,
                )._estimate(spec, aux)
                assert (est.value, est.std_error) == (fresh.value, fresh.std_error)

    def test_baseline_term_computed_once_per_rep(self):
        # every DI-from of x0 against the rest shares term 1 (x0 redrawn
        # independently); term 2 differs per source set
        ev = _evaluator(np.eye(4), [1.0, 1.0, 1.0, 1.0], n=500, n_mc=3)
        for j in (1, 2, 3):
            ev.di_from([0], [1, 2, 3], [j], seed=4)
        assert ev.counters() == {"evaluations": 3, "terms_computed": 3 * (1 + 3), "terms_reused": 3 * 2}
        ev.di_from([0], [1, 2, 3], [2], seed=4)
        assert ev.terms_computed == 12 and ev.terms_reused == 6 + 2 * 3

    @pytest.mark.parametrize("which,loss,mode", [
        ("linear", SQUARED_ERROR, "original_f"),
        ("linear", CROSS_ENTROPY, "original_f"),
        ("opaque", SQUARED_ERROR, "original_f"),
        ("opaque", SQUARED_ERROR, "marginalized"),
    ], ids=["moment_form", "cross_entropy_row_path", "opaque_plan_matrix", "opaque_monte_carlo"])
    def test_more_repetitions_extend_each_held_prefix(self, which, loss, mode):
        # a term's memo entry holds its repetitions 0..r-1; asking for more
        # computes only the new ones, and the estimates are a fresh run's
        def evaluator():
            linear, opaque, _ = _linear_and_opaque(n=200, n_integration=3, loss=loss)
            return linear if which == "linear" else opaque

        ev = evaluator()
        specs = _random_specs(4, np.random.default_rng(11), 12, mode=mode, n_mc=2, seed=6)
        slots = (1, 2) if mode == "marginalized" else (0, 0)
        distinct = [pair for pair in (_plans(ev, *spec) for spec in specs) if pair[0] != pair[1]]
        terms = {(plan, slot) for pair in distinct for slot, plan in zip(slots, pair)}
        assert distinct and len(terms) < 2 * len(distinct)  # some terms are shared
        for spec in specs:
            ev._estimate(*spec)
        before = ev.counters()
        assert before["terms_computed"] == 2 * len(terms)
        got = [ev._estimate(replace(spec, n_mc=5), aux) for spec, aux in specs]
        fresh = evaluator()
        expected = [fresh._estimate(replace(spec, n_mc=5), aux) for spec, aux in specs]
        assert [(e.value, e.std_error, e.n_mc) for e in got] == [(e.value, e.std_error, e.n_mc) for e in expected]
        assert ev.terms_computed - before["terms_computed"] == 3 * len(terms)
        assert ev.terms_reused - before["terms_reused"] == 2 * 5 * len(distinct) - 3 * len(terms)
        assert fresh.terms_computed == 5 * len(terms)
        # a smaller n_mc reads the held prefix and computes nothing
        again = [ev._estimate(*spec) for spec in specs]
        assert ev.terms_computed - before["terms_computed"] == 3 * len(terms)
        assert [(e.value, e.std_error) for e in again] == \
            [(e.value, e.std_error) for e in (evaluator()._estimate(*spec) for spec in specs)]

    def test_counters_belong_to_the_evaluator(self):
        a = _evaluator(np.eye(2), [1.0, 1.0], n=200, n_mc=2)
        b = _evaluator(np.eye(2), [1.0, 1.0], n=200, n_mc=2)
        reset_evaluation_count()
        a.pfi(0)
        a.pfi(0)
        b.direct_importance([], [0])  # identical plans: no terms at all
        assert evaluation_count() == 3
        assert a.counters() == {"evaluations": 2, "terms_computed": 4, "terms_reused": 4}
        assert b.counters() == {"evaluations": 1, "terms_computed": 0, "terms_reused": 0}


class TestColumnDraws:
    """On the row path a repetition draws n normals per canonical column,
    each from its own stream and only when a term reads it (see the
    module docstring)."""

    def test_linear_and_opaque_cross_entropy_agree(self):
        # both read the same column streams, the linear form only those
        # its v weights, the materialized plan matrix every redrawn one
        linear, opaque, rng = _linear_and_opaque(n=400, loss=CROSS_ENTROPY)
        for spec, aux in _random_specs(4, rng, 24, n_mc=3, seed=5):
            est, est_o = linear._estimate(spec, aux), opaque._estimate(spec, aux)
            assert est.value == pytest.approx(est_o.value, rel=1e-12, abs=1e-12), spec
            assert est.std_error == pytest.approx(est_o.std_error, rel=1e-12, abs=1e-12), spec

    @staticmethod
    def _cross_entropy(n, d, weights):
        data = _gaussian_data(np.eye(d), n, 0)
        y = TargetVector((np.random.default_rng(1).random(n) < 0.5).astype(float))
        return ImportanceEvaluator(data, y, LinearPredictor(weights=np.asarray(weights, dtype=float), intercept=0.5),
                                   GaussianModel(mean=np.zeros(d), cov=np.eye(d)), loss=CROSS_ENTROPY, n_mc=2, seed=0)

    def test_one_column_pfi_allocates_o_n(self):
        n, d = 200_000, 16
        ev = self._cross_entropy(n, d, np.full(d, 0.01))
        ev.pfi(0, n_mc=1)  # conditional set-up and first-call allocations
        tracemalloc.start()
        try:
            ev.pfi(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few n-vectors (prediction, the redrawn column, the loss's
        # temporaries); one n x d draw alone would be 16 of them
        assert peak < 12 * n * 8

    def test_term_with_zero_v_draws_nothing(self, monkeypatch):
        read = []
        column = importance._ColumnDraws._column

        def counted(self, rank):
            read.append((self.seed, self.rep, rank))
            return column(self, rank)

        monkeypatch.setattr(importance._ColumnDraws, "_column", counted)
        ev = self._cross_entropy(500, 3, [0.1, 0.0, 0.1])
        # column 1 has weight 0: redrawing it leaves v = 0 in both terms
        est = ev.pfi(1, n_mc=4, seed=3)
        assert (est.value, est.std_error) == (0.0, 0.0)
        assert read == []
        # one redrawn weighted column: one column drawn per repetition
        ev.pfi(0, n_mc=4, seed=3)
        assert read == [(3, rep, ev._canon_rank[0]) for rep in range(4)]

    def test_column_stream_keys_are_distinct(self):
        seed, reps, d = 7, 100, 12
        keys = [importance._column_seed(seed, rep, rank) for rep in range(reps) for rank in range(d)]
        # the moment form's (seed, rep), the integration streams
        # (seed, rep, 1|2), the SCM's (seed, 1) and the split's (seed, 90)
        others = {derive_seed(seed, rep, *slot) for rep in range(reps) for slot in ((), (1,), (2,))}
        others |= {derive_seed(seed, 1), derive_seed(seed, 90)}
        assert len(set(keys)) == len(keys)
        assert not set(keys) & others
        # why a slot of its own: SeedSequence drops trailing zero words
        assert derive_seed(seed, 5, 0) == derive_seed(seed, 5)


class TestOpaqueMarginalization:
    """A predictor other than a `LinearPredictor` is marginalized by Monte
    Carlo: each marginalized term averages n_integration full n x d draws
    from its own integration stream (see the module docstring)."""

    @pytest.mark.parametrize("loss", [SQUARED_ERROR, CROSS_ENTROPY], ids=["squared_error", "cross_entropy"])
    @pytest.mark.parametrize("m", [1, 4])
    def test_term_risk_matches_hand_computation(self, loss, m):
        # the mean prediction of m draws on the plan matrix is
        # X @ u + c + mean_k(z_k @ v) for the linear form of the same map
        linear, opaque, rng = _linear_and_opaque(n_integration=m, loss=loss)
        x, y = linear.data.values, linear.target.values
        specs = [s for s in _random_specs(4, rng, 8, mode="marginalized", n_mc=2, seed=9)
                 if len(set(_plans(linear, *s))) == 2]
        for spec, aux in specs:
            est = opaque._estimate(spec, aux)
            plans = _plans(opaque, spec, aux)
            forms = list(zip(*linear._linear_forms(plans, True)))
            diffs = []
            for rep in range(spec.n_mc):
                risks = []
                for slot, (plan, (u, v, c)) in enumerate(zip(plans, forms), 1):
                    draws = np.random.default_rng(derive_seed(spec.seed, rep, slot))
                    preds = np.array([x @ u + c + draws.standard_normal(x.shape) @ v for _ in range(m)])
                    risk = np.mean(loss.elementwise(y, preds.mean(axis=0)))
                    if loss.kind == "squared_error" and m > 1:
                        risk -= np.mean(preds.var(axis=0, ddof=1) / m)
                    # one memo entry per term, holding its repetitions in order
                    key = (plan, "marginalized", spec.seed, slot)
                    assert len(opaque._risks[key]) == spec.n_mc
                    assert opaque._risks[key][rep] == pytest.approx(risk, rel=1e-10, abs=1e-10), spec
                    risks.append(risk)
                diffs.append(risks[0] - risks[1])
            assert est.value == pytest.approx(np.mean(diffs), rel=1e-10, abs=1e-10), spec

    def test_squared_error_mean_is_the_closed_form(self):
        # the variance correction leaves no integration bias: over seeds,
        # the mean estimate is the linear predictor's closed form
        linear, opaque, rng = _linear_and_opaque(n=200, n_integration=4)
        for spec, aux in _random_specs(4, rng, 3, mode="marginalized"):
            values = np.array([opaque._estimate(replace(spec, n_mc=1, seed=seed), aux).value for seed in range(200)])
            se = values.std(ddof=1) / np.sqrt(values.size)
            assert abs(values.mean() - linear._estimate(spec, aux).value) <= 4 * se, spec

    def test_opaque_estimates_unchanged(self):
        # the opaque path takes n_integration full draws per term from
        # fixed streams, so only the platform's BLAS rounding could move
        # these (the cross-entropy pins score the 0/1 target)
        pinned = {
            "squared_error": [(0.620986085043989, 0.13018444494272877), (0.7222893894061247, 0.06497762419773385),
                              (0.9964268358084714, 0.04469947354123671), (1.0709383696498103, 0.13701454125660648)],
            "cross_entropy": [(0.40067274859202423, 0.07823903549094073), (0.2442831220406798, 0.0175580423279033),
                              (0.1589396018709169, 0.013894719560388364), (0.13157607319423878, 0.049463009458660286)],
        }
        for loss in (SQUARED_ERROR, CROSS_ENTROPY):
            _, opaque, rng = _linear_and_opaque(n_integration=4, loss=loss)
            specs = _random_specs(4, rng, 4, mode="marginalized", n_mc=3, seed=5)
            got = [(e.value, e.std_error) for e in (opaque._estimate(*spec) for spec in specs)]
            assert got == pytest.approx(pinned[loss.kind], rel=1e-12)
        # a linear predictor's terms off the moment form, recorded the same
        # way: the row path's draws and BLAS products, per (loss, mode)
        pinned_linear = {
            ("cross_entropy", "original_f"): [
                (0.32752153440991516, 0.1316774262291666), (2.4765621658033194, 0.33658791299719487),
                (2.783646579505874, 0.19278557828165024), (2.7324839753991657, 0.21101650727749996)],
            ("cross_entropy", "marginalized"): [
                (0.08554456531293103, 0.0), (0.2762716377954226, 0.0),
                (0.3530239064751353, 0.0), (0.35135296396442456, 0.0)],
        }
        for ev, mode in _engine_paths():
            case = (ev.loss.kind, mode)
            if isinstance(ev.predictor, LinearPredictor) and case in pinned_linear:
                specs = _random_specs(4, np.random.default_rng(11), 4, mode=mode, n_mc=3, seed=5)
                got = [(e.value, e.std_error) for e in (ev._estimate(*spec) for spec in specs)]
                assert got == pytest.approx(pinned_linear.pop(case), rel=1e-12), case
        assert not pinned_linear


def _closed_form_risk(ev, plan):
    """A linear predictor's marginalized risk on a plan, from numpy alone:
    the loss of its conditional expectation `X u + c`; under squared error
    `u' S_xx u - 2 u' s_xy + s_yy + k^2` on the evaluation data's centred
    moments, with `k = c + x_bar . u - y_bar`."""
    (u,), _, (c,) = ev._linear_forms([plan], False)
    x, y = ev.data.values, ev.target.values
    if ev.loss.kind == "cross_entropy":
        return float(np.mean(ev.loss.elementwise(y, x @ u + c)))
    x_c, y_c = x - x.mean(axis=0), y - y.mean()
    k = c + x.mean(axis=0) @ u - y.mean()
    return u @ (x_c.T @ x_c) @ u / len(y) - 2.0 * u @ (x_c.T @ y_c) / len(y) + y_c @ y_c / len(y) + k * k


class TestClosedFormMarginalization:
    """A `LinearPredictor` is always marginalized in closed form: its
    marginalized estimates take no draws, so they report SE 0 and one
    repetition, and do not move with n_mc or n_integration."""

    @pytest.mark.parametrize("loss", [SQUARED_ERROR, CROSS_ENTROPY], ids=["squared_error", "cross_entropy"])
    def test_bit_identical_across_draw_counts(self, loss):
        rng = np.random.default_rng(21)
        specs = [s for s in _random_specs(4, rng, 16, mode="marginalized", seed=4) if s[0].measure in ("DI", "AI")]
        results = set()
        for m, n_mc in product((1, 4, 32), (1, 5)):
            ev = _linear_and_opaque(loss=loss, n_integration=m, n_mc=n_mc)[0]
            got = tuple((e.value, e.std_error, e.n_mc) for e in (ev._estimate(replace(s, n_mc=n_mc), aux)
                                                                 for s, aux in specs))
            assert all((se, reps) == (0.0, 1) for _, se, reps in got), (m, n_mc)
            results.add(got)
        assert len(results) == 1
        for spec, (value, _, _) in zip(specs, results.pop()):
            t1, t2 = _plans(ev, *spec)
            expected = _closed_form_risk(ev, t1) - _closed_form_risk(ev, t2)
            assert value == pytest.approx(expected, rel=1e-9, abs=1e-12), spec

    @pytest.mark.parametrize("loss", [SQUARED_ERROR, CROSS_ENTROPY], ids=["squared_error", "cross_entropy"])
    def test_games_bit_identical_across_draw_counts(self, loss):
        # a whole game over every aux mask, for both pathway measures
        masks = tuple(range(16))
        results = set()
        for m, n_mc in product((1, 4, 32), (1, 5)):
            ev = _linear_and_opaque(loss=loss, n_integration=m, n_mc=n_mc)[0]
            got = []
            for measure in ("DI_from", "AI_via"):
                spec = MeasureSpec(measure, FeatureIndexSet.of([1]), FeatureIndexSet.of([3]), mode="marginalized",
                                   n_mc=n_mc, seed=4)
                value, se = ev.evaluate(MeasureBatch(spec, masks))
                assert (se == 0.0).all(), (measure, m, n_mc)
                got.append(tuple(value.tolist()))
            results.add(tuple(got))
        assert len(results) == 1
        for measure, values in zip(("DI_from", "AI_via"), results.pop()):
            spec = MeasureSpec(measure, FeatureIndexSet.of([1]), FeatureIndexSet.of([3]), mode="marginalized")
            for (t1, t2), value in zip(ev._plan_pairs(spec, masks), values):
                expected = _closed_form_risk(ev, t1) - _closed_form_risk(ev, t2) if t1 != t2 else 0.0
                assert value == pytest.approx(expected, rel=1e-9, abs=1e-12), (measure, t1, t2)

    @pytest.mark.parametrize("loss", [SQUARED_ERROR, CROSS_ENTROPY], ids=["squared_error", "cross_entropy"])
    def test_sage_tables_ignore_draw_counts(self, loss):
        # a SAGE table's terms are all marginalized, so it is the same
        # table at every n_integration, pairwise-solved or not
        tables = []
        for m in (1, 4, 32):
            ev = _linear_and_opaque(n=200, n_mc=2, n_integration=m, loss=loss)[0]
            table = shapley_decompose_sage(ev, 0, n_sage_orders=3, n_decomp_orders=2)
            tables.append((table.method, table.total, table.components))
        assert tables[0][0] == ("shapley_pairwise" if loss is SQUARED_ERROR else "shapley_exact")
        assert tables[1:] == tables[:1] * 2

    def test_census_at_one_integration_draw(self):
        # the census SCM with model and Gaussian fitted on all 20k rows: a
        # linear Monte-Carlo branch that draws one integration sample and
        # subtracts no variance read AI(age | {}) = 18.17 +- 0.12 and
        # DI(nr_educ | rest) = 4.048 +- 0.006 here, twice the closed form
        scm = census_scm()
        data, target = sample_scm(scm, 20000, seed=derive_seed(0, 1))
        support = FeatureIndexSet.of(i for i, c in enumerate(data.column_names) if scm.roles.get(c) == "feature")
        ev = ImportanceEvaluator(data, target, fit_ols(data, target, support), fit_gaussian(data), n_mc=40, seed=0,
                                 n_integration=1)
        age, educ = data.index_of("age"), data.index_of("nr_educ")
        ai = ev.associative_importance([age], [], mode="marginalized")
        di = ev.direct_importance([educ], [c for c in range(data.n_cols) if c != educ], mode="marginalized")
        for est, expected in ((ai, 9.0786), (di, 2.0192)):
            assert (est.std_error, est.n_mc) == (0.0, 1)
            t1, t2 = ev._plan_pairs(ev._spec(est.sets["measure"], est.sets["interest"], est.sets["baseline"],
                                             mode="marginalized"), (0,))[0]
            assert est.value == pytest.approx(_closed_form_risk(ev, t1) - _closed_form_risk(ev, t2), rel=1e-9)
            assert est.value == pytest.approx(expected, abs=1e-4)


def _shifted(ev, shift):
    """An evaluator like ev on every column and the target moved by
    `shift`, the intercept moved so that residuals stay the same size."""
    p = ev.predictor
    intercept = p.intercept + shift * (1.0 - p.weights.sum())
    return ImportanceEvaluator(
        DataMatrix(ev.data.values + shift, ev.data.column_names), TargetVector(ev.target.values + shift),
        type(p)(p.weights, intercept), GaussianModel(mean=ev.gaussian.mean + shift, cov=ev.gaussian.cov),
        n_mc=ev.n_mc, seed=ev.seed,
    )


class TestMomentForm:
    """Linear squared-error terms, in either mode, come from centred
    moments in canonical column order."""

    @pytest.mark.parametrize("mode", MODES)
    def test_permutation_invariance_bitwise_d10(self, mode):
        d, n = 10, 2000
        rng = np.random.default_rng(7)
        a = rng.standard_normal((d, d)) / np.sqrt(d)
        cov, mean = a @ a.T + 0.5 * np.eye(d), rng.standard_normal(d)
        data = DataMatrix(mean + _gaussian_data(cov, n, 7).values, tuple(f"x{i}" for i in range(d)))
        w = rng.standard_normal(d)
        y = TargetVector(data.values @ w + rng.standard_normal(n))
        perm = rng.permutation(d)  # new position p holds old column perm[p]
        moved = np.argsort(perm)
        data_p = DataMatrix(data.values[:, perm], tuple(data.column_names[i] for i in perm))
        kw = dict(n_mc=3, seed=7)
        ev = ImportanceEvaluator(data, y, LinearPredictor(weights=w, intercept=0.3),
                                 GaussianModel(mean=mean, cov=cov), **kw)
        ev_p = ImportanceEvaluator(data_p, y, LinearPredictor(weights=w[perm], intercept=0.3),
                                   GaussianModel(mean=mean[perm], cov=cov[np.ix_(perm, perm)]), **kw)
        for spec, aux in _random_specs(d, rng, 20, mode=mode, n_mc=3, seed=7):
            spec_p = MeasureSpec(
                spec.measure, *(FeatureIndexSet.of(moved[list(s)]) for s in (spec.interest, spec.baseline)),
                mode=mode, n_mc=3, seed=7,
            )
            est, est_p = ev._estimate(spec, aux), ev_p._estimate(spec_p, moved[list(aux)])
            assert (est.value, est.std_error) == (est_p.value, est_p.std_error), spec

    def test_offset_data_original_f_matches_row_path(self):
        linear, opaque, rng = _linear_and_opaque(n=2000)
        linear, opaque = _shifted(linear, 1e3), _shifted(opaque, 1e3)
        for spec, aux in _random_specs(4, rng, 24, n_mc=3, seed=5):
            for plan in _plans(linear, spec, aux):
                moment, row = _risks_on_one_draw(linear, opaque, plan, rng)
                assert moment == pytest.approx(row, rel=1e-10), spec

    def test_linear_and_opaque_agree_in_law(self):
        linear, opaque, rng = _linear_and_opaque(n=200)
        for spec, aux in _random_specs(4, rng, 3):
            diff = np.array([linear._estimate(s, aux).value - opaque._estimate(s, aux).value
                             for s in (replace(spec, n_mc=1, seed=seed) for seed in range(200))])
            se = diff.std(ddof=1) / np.sqrt(diff.size)
            assert abs(diff.mean()) <= 4 * se, spec

    def test_offset_data_exact_risks_match_residuals(self):
        linear, _, rng = _linear_and_opaque(n=2000)
        linear = _shifted(linear, 1e3)
        x, y = linear.data.values, linear.target.values
        for spec in _random_specs(4, rng, 24, mode="marginalized"):
            linear._estimate(*spec)
        assert len(linear._risks) > 10
        for (plan,), (risk,) in linear._risks.items():
            u, _, c = linear._linear_forms([plan], False)
            assert risk == pytest.approx(np.mean((y - x @ u[0] - c[0]) ** 2), rel=1e-10), plan

    def test_draws_made_once_per_seed_and_rep(self):
        ev = _evaluator(np.eye(3), [1.0, 1.0, 1.0], n=500, n_mc=4)
        for j in range(3):
            ev.pfi(j, seed=1)
            ev.conditional_fi(j, seed=2)
        assert sorted(ev._draw_moments) == [(s, r) for s in (1, 2) for r in range(4)]


class TestMomentLaw:
    """A repetition's draw moments are sampled from the exact law of the
    moments of an n x d standard-normal draw (see the module docstring),
    at a cost that does not grow with n."""

    N_SEEDS = 20_000

    @pytest.mark.parametrize("n,d,rank_deficient", [(3, 4, False), (40, 3, True), (300, 3, False)],
                             ids=["n_below_d", "rank_deficient", "full_rank"])
    def test_sampled_moments_follow_their_exact_law(self, n, d, rank_deficient):
        rng = np.random.default_rng(n + d)
        x = 5.0 + rng.standard_normal((n, d)) @ rng.standard_normal((d, d))
        beta = rng.standard_normal(d)
        # a target exactly linear in the columns makes M = [X_c, y_c, 1] rank-deficient
        y = x @ beta + (0.0 if rank_deficient else rng.standard_normal(n))
        ev = ImportanceEvaluator(DataMatrix(x, tuple(f"x{i}" for i in range(d))), TargetVector(y),
                                 LinearPredictor(weights=np.ones(d), intercept=0.0),
                                 GaussianModel(mean=np.zeros(d), cov=np.eye(d)))
        _, _, s_xx, _, s_yy = ev._moments()
        s_zz, s_zx, z_bar, s_zy = (np.array(m) for m in zip(*(ev._draws(seed, 0) for seed in range(self.N_SEEDS))))
        # closed forms for z with i.i.d. N(0, 1) entries and centred X_c, y_c
        for sample, mean, var in (
            (s_zz, np.eye(d), (1.0 + np.eye(d)) / n),
            (s_zx, np.zeros((d, d)), np.tile(np.diag(s_xx), (d, 1)) / n),
            (z_bar, np.zeros(d), np.full(d, 1.0 / n)),
            (s_zy, np.zeros(d), np.full(d, s_yy / n)),
        ):
            centred = sample - sample.mean(axis=0)
            got_var = (centred ** 2).mean(axis=0)
            var_se = np.sqrt(((centred ** 4).mean(axis=0) - got_var ** 2) / self.N_SEEDS)
            assert np.all(np.abs(sample.mean(axis=0) - mean) <= 4 * np.sqrt(var / self.N_SEEDS))
            assert np.all(np.abs(got_var - var) <= 4 * var_se)
        # z' z has the rank of an n x d draw; z' y_c = z' X_c beta when y_c = X_c beta
        assert all(np.linalg.matrix_rank(m) == min(n, d) for m in s_zz[:50])
        if rank_deficient:
            np.testing.assert_allclose(s_zy, s_zx @ beta, rtol=0, atol=1e-12 * np.sqrt(s_yy))

    def test_draw_allocation_does_not_grow_with_n(self):
        n, d = 200_000, 4
        ev = _evaluator(np.eye(d), np.ones(d), n=n)
        ev._moments()
        tracemalloc.start()
        try:
            ev._draws(1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestConditioningCache:
    """The evaluator's conditioning table: one solve per conditioning set,
    groups slice it, and only terms that take draws factorize their
    block."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_slices_match_a_direct_solve(self, seed):
        d = 6
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, d)) / np.sqrt(d)
        g = GaussianModel(mean=rng.standard_normal(d), cov=a @ a.T + 0.3 * np.eye(d))
        data = DataMatrix(rng.standard_normal((50, d)), tuple(f"v{(5 * i) % d}" for i in range(d)))
        w = rng.standard_normal(d)
        ev = ImportanceEvaluator(data, TargetVector(rng.standard_normal(50)),
                                 LinearPredictor(weights=w, intercept=0.0), g)
        table = ev._table
        for _ in range(20):
            cond_mask = int(rng.integers(0, (1 << d) - 1))
            table.add([cond_mask])
            cond = [c for c in ev._canon_order if cond_mask >> c & 1]
            rest = [c for c in ev._canon_order if c not in cond]
            targets = tuple(c for c in rest if rng.random() < 0.6) or (rest[0],)
            mean_map, cov = table.conditional(cond_mask, targets)
            ref_map, ref_cov = conditional_params(g, cond, targets)
            for got, expected in ((mean_map.offset, ref_map.offset), (mean_map.matrix, ref_map.matrix),
                                  (mean_map.cond_mean, ref_map.cond_mean), (cov, ref_cov),
                                  (table.cholesky(cond_mask, targets), _stable_cholesky(ref_cov))):
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
            t = list(targets)
            rows = np.zeros((len(t), d))
            rows[:, cond] = w[t, None] * ref_map.matrix
            offs = w[t] * (ref_map.offset - ref_map.matrix @ ref_map.cond_mean)
            form = table.forms[table.slots[cond_mask]]
            np.testing.assert_allclose(form[t, :d], rows, rtol=0, atol=1e-12)
            np.testing.assert_allclose(form[t, d], offs, rtol=0, atol=1e-12)

    def test_linear_marginalization_never_factorizes(self, monkeypatch):
        calls = []

        def spy(cov):
            calls.append(cov.shape)
            return _stable_cholesky(cov)

        monkeypatch.setattr("dedact.sampler._stable_cholesky", spy)
        for loss in (SQUARED_ERROR, CROSS_ENTROPY):
            linear, _, rng = _linear_and_opaque(loss=loss)
            for spec, aux in _random_specs(4, rng, 24, mode="marginalized"):
                linear._estimate(spec, aux)
                linear.evaluate(MeasureBatch(spec, tuple(int(m) for m in rng.integers(0, 16, 5))))
            assert linear.terms_computed > 0 and calls == []
        for spec in _random_specs(4, rng, 4, n_mc=2):
            linear._estimate(*spec)
        assert calls  # the spy sees the factorizations of draws

    @pytest.mark.parametrize("mode", MODES)
    def test_one_solve_per_conditioning_set(self, monkeypatch, mode):
        solved = []

        def counted(blocks, size):
            solved.append(len(blocks))
            return _conditionals(blocks, size)

        monkeypatch.setattr("dedact.sampler._conditionals", counted)
        linear, opaque, rng = _linear_and_opaque(n_integration=2)
        specs = _random_specs(4, rng, 40, mode=mode, n_mc=2)
        # each spec once alone, then as a game over random aux masks, in
        # batches that share some sets and not others
        batches = [MeasureBatch(spec, (importance._mask(aux),)) for spec, aux in specs] + [
            MeasureBatch(spec, tuple(int(m) for m in rng.integers(0, 16, int(rng.integers(1, 6))))) for spec, _ in specs]
        # identical plans return early and set nothing up
        pairs = [pair for batch in batches for pair in linear._plan_pairs(batch.spec, batch.auxes)]
        expected = {mask for t1, t2 in pairs if t1 != t2 for mask in t1 + t2 if mask != _KEEP}
        for ev in (linear, opaque):
            solved.clear()
            for batch in batches + batches:
                ev.evaluate(batch)
            # as many sets solved as there are distinct sets, and each held
            assert sum(solved) == len(expected) and set(ev._table.slots) == expected

    def test_singular_set_in_a_batch_raises_singular_conditioning(self):
        # column 1's variance plus the jitter is exactly 0, so the stacked
        # solve of the size-1 sets fails; no set of the batch is kept
        g = GaussianModel(mean=np.zeros(3), cov=np.diag([1.0, -1e-9, 1.0]))
        table = _Conditioning(g, range(3), np.ones(3))
        with pytest.raises(SingularConditioning):
            table.add([0b101, 0b001, 0b010])
        assert table.slots == {}
        table.add([0b001])
        with pytest.raises(SingularConditioning):  # the stacked factorization
            table.factorize([(0b001, (1,)), (0b001, (2,)), (0b101, (1,))])
        assert table.factors == {}

    def test_singular_block_raises_only_where_draws_are_taken(self):
        # column 1's variance is slightly negative: its conditional mean
        # exists, its covariance block cannot be factorized
        g = GaussianModel(mean=np.zeros(2), cov=np.diag([1.0, -5e-9]))
        data = _gaussian_data(np.eye(2), 200, 0)
        y = TargetVector(data.values.sum(axis=1))
        ev = ImportanceEvaluator(data, y, LinearPredictor(weights=np.ones(2), intercept=0.0), g)
        est = ev.direct_importance([1], [0], mode="marginalized")
        assert np.isfinite(est.value) and est.std_error == 0.0
        with pytest.raises(SingularConditioning):
            ev.direct_importance([1], [0], mode="original_f")


class TestConditioningTable:
    """However the sets of a conditioning table arrive in batches, each
    set's floats are those of a one-set `conditional_params` and
    `_stable_cholesky`, bit for bit, and so is every plan's linear form."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_batches_equal_one_set_solves(self, data):
        d = data.draw(st.integers(1, 70), label="d")
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        masks = data.draw(st.lists(st.integers(0, (1 << d) - 1), min_size=1, max_size=8, unique=True), label="masks")
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, d)) / np.sqrt(d)
        g = GaussianModel(mean=rng.standard_normal(d), cov=a @ a.T + 0.3 * np.eye(d))
        w = rng.standard_normal(d)
        names = tuple(f"x{i:02d}" for i in rng.permutation(d))
        x = DataMatrix(rng.standard_normal((4, d)), names)

        def evaluator():
            return ImportanceEvaluator(x, TargetVector(np.zeros(4)), LinearPredictor(weights=w, intercept=0.3), g)

        def batches(items):
            cuts = sorted(data.draw(st.lists(st.integers(0, len(items)), max_size=4), label="cuts"))
            return [items[i:j] for i, j in zip([0, *cuts], [*cuts, len(items)])]

        ev = evaluator()
        table, order = ev._table, ev._canon_order
        for batch in batches(masks):
            table.add(batch)
        pairs = []
        for mask in masks:
            cond = [c for c in order if mask >> c & 1]
            rest = [c for c in order if not mask >> c & 1]
            if rest:
                pairs.append((mask, tuple(c for c in rest if rng.random() < 0.5) or (rest[-1],)))
        for batch in batches(pairs):
            table.factorize(batch)
        assert len(table.slots) == len(masks) and len(table.factors) == len(pairs)
        for mask in masks:
            cond = [c for c in order if mask >> c & 1]
            rest = [c for c in order if not mask >> c & 1]
            ref_map, ref_cov = conditional_params(g, cond, rest)
            got_map, got_cov = table.conditional(mask, tuple(rest))
            assert np.array_equal(got_map.offset, ref_map.offset)
            assert np.array_equal(got_map.matrix, ref_map.matrix)
            assert np.array_equal(got_map.cond_mean, ref_map.cond_mean)
            assert np.array_equal(got_cov, ref_cov)
            form = np.zeros((d, d + 1))
            form[np.ix_(rest, cond)] = w[rest, None] * ref_map.matrix
            form[rest, d] = w[rest] * (ref_map.offset - ref_map.matrix @ ref_map.cond_mean)
            assert np.array_equal(table.forms[table.slots[mask]], form)
        for mask, targets in pairs:
            rest = [c for c in order if not mask >> c & 1]
            p = [rest.index(t) for t in targets]
            ref_chol = _stable_cholesky(conditional_params(g, [c for c in order if mask >> c & 1], rest)[1][np.ix_(p, p)])
            chol, v = table.factors[mask, targets]
            assert np.array_equal(chol, ref_chol)
            assert np.array_equal(v, ref_chol.T @ w[list(targets)])

        # plans over the sets: the columns of the chosen sets kept, each
        # other column redrawn given one of them
        plans = []
        for _ in range(6):
            chosen = [masks[i] for i in rng.choice(len(masks), size=min(2, len(masks)), replace=False)]
            kept = [c for c in range(d) if any(m >> c & 1 for m in chosen)]
            plans.append(tuple(_KEEP if c in kept else chosen[int(rng.integers(len(chosen)))] for c in range(d)))
        forms = [ev._linear_forms(plans, True), evaluator()._linear_forms(plans, True)]
        singles = [evaluator()._linear_forms([plan], True) for plan in plans]
        forms.append(tuple(np.concatenate(part) for part in zip(*singles)))
        for other in forms[1:]:
            assert all(np.array_equal(got, expected) for got, expected in zip(forms[0], other))


class TestOneConditionalDraw:
    """`perturb`, `marginalize` and the engine's plan matrix take the one
    conditional-Gaussian draw of `dedact.sampler._Conditioning`."""

    @staticmethod
    def _setup(seed, d=5, n=300):
        # names in column order, so the engine's canonical order is the
        # index order `FeatureIndexSet` gives `perturb`
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, d)) / np.sqrt(d)
        g = GaussianModel(mean=rng.standard_normal(d), cov=a @ a.T + 0.3 * np.eye(d))
        data = DataMatrix(rng.standard_normal((n, d)), tuple(f"x{i}" for i in range(d)))
        pred = LinearPredictor(weights=rng.standard_normal(d), intercept=0.4)
        ev = ImportanceEvaluator(data, TargetVector(rng.standard_normal(n)), pred, g)
        return ev, rng

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_perturb_is_the_plan_matrix_draw(self, seed):
        ev, rng = self._setup(seed)
        n, d = ev.data.values.shape
        for cond in ([], [2], [0, 3], [1, 2, 4], [0, 1, 3, 4]):
            rest = [c for c in range(d) if c not in cond]
            # one group: every column outside cond redrawn given cond
            plan = tuple(_KEEP if c in cond else importance._mask(cond) for c in range(d))
            sampler = PerturbationSampler(ev.gaussian, FeatureIndexSet.of(cond), rng_seed=seed)
            drawn = perturb(sampler, ev.data, FeatureIndexSet.of(rest))
            z = rng.standard_normal((n, d))
            z[:, rest] = np.random.default_rng(seed).standard_normal((n, len(rest)))
            assert np.array_equal(drawn, ev._build_matrix(plan, z)[:, rest])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_marginalize_is_the_engine_linear_form(self, seed):
        ev, rng = self._setup(seed)
        x, d = ev.data.values, ev.data.n_cols
        for kept in ([], [2], [0, 3], [1, 2, 4], list(range(d))):
            for integration, cond_mask in (("conditional", importance._mask(kept)), ("independent", 0)):
                plan = tuple(_KEEP if c in kept else cond_mask for c in range(d))
                u, v, c = ev._linear_forms([plan], draws=False)
                assert v is None
                marg = marginalize(ev.predictor, FeatureIndexSet.of(kept), ev.gaussian, integration, exact=True)
                np.testing.assert_allclose(marg.predict(x), x @ u[0] + c[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("width", [1, 3])
    def test_perturb_rejects_data_of_another_width(self, width):
        sampler = PerturbationSampler(GaussianModel(mean=np.zeros(2), cov=np.eye(2)),
                                      FeatureIndexSet.empty(), rng_seed=0)
        data = DataMatrix(np.zeros((3, width)), tuple(f"x{i}" for i in range(width)))
        with pytest.raises(DimensionMismatch):
            perturb(sampler, data, FeatureIndexSet.of([0]))


class TestBatchEqualsSingles:
    """A `MeasureBatch` is the same evaluations as one `evaluate` call
    per aux mask: the same floats, counters and evaluation count."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batch_equals_one_call_per_mask(self, data):
        d = data.draw(st.integers(1, 6), label="d")
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        mode = data.draw(st.sampled_from(MODES), label="mode")
        opaque = data.draw(st.booleans(), label="opaque")
        loss = data.draw(st.sampled_from([SQUARED_ERROR, CROSS_ENTROPY]), label="loss")
        measure = data.draw(st.sampled_from(MEASURES), label="measure")
        # 0: neither set, 1: interest, 2: baseline
        roles = data.draw(st.lists(st.sampled_from([0, 1, 2]), min_size=d, max_size=d), label="roles")
        masks = data.draw(st.lists(st.integers(0, (1 << d) - 1), min_size=1, max_size=8), label="masks")
        masks += [masks[0], 0]  # a duplicate, and the empty aux: a structural zero for DI_from and AI_via

        rng = np.random.default_rng(seed)
        n = 60
        a = rng.standard_normal((d, d)) / np.sqrt(d)
        cov, mean = a @ a.T + 0.3 * np.eye(d), rng.standard_normal(d)
        values = mean + rng.standard_normal((n, d)) @ np.linalg.cholesky(cov).T
        data_matrix = DataMatrix(values, tuple(f"c{(3 * i) % 7}" for i in range(d)))
        if loss is CROSS_ENTROPY:
            w, b, y = 0.1 * rng.standard_normal(d), 0.5, (rng.random(n) < 0.5).astype(float)
        else:
            w, b = rng.standard_normal(d), 0.2
            y = values @ w + rng.standard_normal(n)
        predictor = _OpaqueLinear(w, b) if opaque else LinearPredictor(weights=w, intercept=b)

        def evaluator():
            return ImportanceEvaluator(data_matrix, TargetVector(y), predictor, GaussianModel(mean=mean, cov=cov),
                                       loss=loss, n_mc=3, seed=seed, n_integration=3)

        spec = MeasureSpec(measure, FeatureIndexSet.of([c for c in range(d) if roles[c] == 1]),
                           FeatureIndexSet.of([c for c in range(d) if roles[c] == 2]), mode=mode,
                           n_mc=3, seed=seed)
        batched, single = evaluator(), evaluator()
        reset_evaluation_count()
        value, se = batched.evaluate(MeasureBatch(spec, tuple(masks)))
        assert evaluation_count() == len(masks)
        expected = [single._estimate(spec, [c for c in range(d) if m >> c & 1]) for m in masks]
        assert [(value[i], se[i]) for i in range(len(masks))] == [(e.value, e.std_error) for e in expected]
        assert batched.counters() == single.counters()
        if measure in ("DI_from", "AI_via"):
            assert (value[-1], se[-1]) == (0.0, 0.0)

    @pytest.mark.parametrize("measure,mode", [("DI_from", "original_f"), ("AI_via", "marginalized")])
    def test_whole_game_equals_one_call_per_mask(self, measure, mode):
        # all 1024 coalitions of a 10-column game: stacks far past the
        # sizes at which numpy's own reductions change their loop order
        d, n = 10, 200
        rng = np.random.default_rng(12)
        a = rng.standard_normal((d, d)) / np.sqrt(d)
        cov, mean = a @ a.T + 0.3 * np.eye(d), rng.standard_normal(d)
        values = mean + rng.standard_normal((n, d)) @ np.linalg.cholesky(cov).T
        w = rng.standard_normal(d)
        y = TargetVector(values @ w + rng.standard_normal(n))

        def evaluator():
            return ImportanceEvaluator(DataMatrix(values, tuple(f"v{(7 * i) % 11}" for i in range(d))), y,
                                       LinearPredictor(weights=w, intercept=0.1), GaussianModel(mean=mean, cov=cov),
                                       n_mc=3, seed=4)

        spec = MeasureSpec(measure, FeatureIndexSet.of([2]), FeatureIndexSet.of([0, 5]), mode=mode, n_mc=3, seed=4)
        masks = tuple(range(1 << d))
        batched, single = evaluator(), evaluator()
        value, se = batched.evaluate(MeasureBatch(spec, masks))
        expected = [single._estimate(spec, [c for c in range(d) if m >> c & 1]) for m in masks]
        assert [(value[i], se[i]) for i in range(len(masks))] == [(e.value, e.std_error) for e in expected]
        assert batched.counters() == single.counters()

    def test_columns_past_the_64_bit_range(self):
        # plan keys and aux masks are Python ints: 70 columns still work
        d, n = 70, 80
        rng = np.random.default_rng(0)
        values = rng.standard_normal((n, d))
        w = rng.standard_normal(d) / np.sqrt(d)
        ev = ImportanceEvaluator(DataMatrix(values, tuple(f"x{i:02d}" for i in range(d))),
                                 TargetVector(values @ w + rng.standard_normal(n)),
                                 LinearPredictor(weights=w, intercept=0.0),
                                 GaussianModel(mean=np.zeros(d), cov=np.eye(d)))
        spec = MeasureSpec("AI_via", FeatureIndexSet.of([66]), FeatureIndexSet.of([1, 64]), mode="marginalized")
        masks = (0, 1 << 69, 1 << 66 | 1 << 3, (1 << 70) - 1)
        value, se = ev.evaluate(MeasureBatch(spec, masks))
        for i, mask in enumerate(masks):
            aux = [c for c in range(d) if mask >> c & 1]
            single = ev.ai_via([66], [1, 64], aux, mode="marginalized")
            assert single.sets["aux"] == tuple(aux)
            assert (value[i], se[i]) == (single.value, single.std_error)

    def test_aux_mask_out_of_range(self):
        ev = _evaluator(np.eye(3), [1.0, 1.0, 1.0], n=100)
        spec = MeasureSpec("AI_via", FeatureIndexSet.of([0]), FeatureIndexSet.empty())
        for mask in (8, -1):
            with pytest.raises(DimensionMismatch):
                ev.evaluate(MeasureBatch(spec, (1, mask)))
        assert ev.evaluations == 0


class TestPathwayGamesRouting:
    """`solver: auto` solves a SAGE table's pathway games in closed form
    (`shapley_pairwise`) only for a linear predictor under squared error;
    everywhere else it keeps the exact solver up to 8 players and the
    sampled one beyond."""

    @pytest.mark.parametrize("loss", [SQUARED_ERROR, CROSS_ENTROPY], ids=["squared_error", "cross_entropy"])
    @pytest.mark.parametrize("opaque", [False, True], ids=["linear", "opaque"])
    def test_auto_picks_the_closed_form_only_where_it_holds(self, opaque, loss):
        linear, hidden, _ = _linear_and_opaque(n=200, n_mc=2, n_integration=2, loss=loss)
        ev = hidden if opaque else linear
        closed = not opaque and loss is SQUARED_ERROR
        assert ev.solves_pathway_games is closed
        table = shapley_decompose_sage(ev, 0, n_sage_orders=2, n_decomp_orders=2)
        assert table.method == ("shapley_pairwise" if closed else "shapley_exact")
        if not closed:
            with pytest.raises(DimensionMismatch, match="closed form"):
                ev.evaluate(PathwayGames((ev._spec("AI_via", [0], [], mode="marginalized"),), (1,)))

    @pytest.mark.parametrize("which", ["linear", "opaque"])
    def test_past_the_exact_threshold(self, which):
        ev = _evaluator(np.eye(9) + 0.2, np.linspace(-1.0, 1.0, 9), n=200, n_mc=2, n_integration=2)
        ev = ev if which == "linear" else _opaque_twin(ev)
        table = shapley_decompose_sage(ev, 0, n_sage_orders=2, n_decomp_orders=2)
        assert table.method == ("shapley_pairwise" if which == "linear" else "shapley_sampled")
        for solver in ("exact", "sampled"):  # a named solver keeps its game
            named = shapley_decompose_sage(ev, 0, [0, 1, 2], solver=solver, n_sage_orders=1, n_decomp_orders=2)
            assert named.method == f"shapley_{solver}"


class TestOneResult:
    """`evaluate` takes one request and returns one result, two float
    arrays: a value and an SE per aux mask of a `MeasureBatch`, and per
    game of `PathwayGames` a row `[alpha, *phi]` with SEs
    `[alpha_se, 0, ...]`, the row a SAGE table pools."""

    @staticmethod
    def _assert_arrays(result, shape):
        assert isinstance(result, tuple) and len(result) == 2
        for array in result:
            assert isinstance(array, np.ndarray) and array.dtype == np.float64 and array.shape == shape

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("which, loss, kernel", [
        ("linear", SQUARED_ERROR, "_moment"), ("linear", CROSS_ENTROPY, "_linear_rows"),
        ("opaque", SQUARED_ERROR, "_opaque_rows"),
    ], ids=["moment_form", "linear_rows", "opaque_rows"])
    def test_batch_gives_one_entry_per_mask(self, which, loss, kernel, mode):
        linear, opaque, _ = _linear_and_opaque(n=200, n_mc=2, n_integration=2, loss=loss)
        ev = linear if which == "linear" else opaque
        assert ev._kernel == getattr(ev, kernel)
        spec = MeasureSpec("AI_via", FeatureIndexSet.of([0]), FeatureIndexSet.of([1]), mode=mode, n_mc=2)
        for masks in ((0b1111,), (0, 0b100, 0b1100, 0b1111, 0b100)):
            self._assert_arrays(ev.evaluate(MeasureBatch(spec, masks)), (len(masks),))

    def test_pathway_games_give_one_row_per_game(self):
        ev = _linear_and_opaque(n=200)[0]
        assert ev._kernel == ev._moment
        specs = tuple(MeasureSpec("AI_via", FeatureIndexSet.of([0]), FeatureIndexSet.of(context), mode="marginalized")
                      for context in ([], [1], [1, 2]))
        rows, se = result = ev.evaluate(PathwayGames(specs, (3, 1)))
        self._assert_arrays(result, (3, 1 + 2))
        assert (se[:, 1:] == 0.0).all()
        for row, row_se, spec in zip(rows, se, specs):  # alpha is the spec's mask of every column
            assert (row[0], row_se[0]) == tuple(a[0] for a in ev.evaluate(MeasureBatch(spec, (0b1111,))))

    def test_sage_table_rows_are_the_games_rows(self):
        ev = _linear_and_opaque(n=300)[0]
        table = shapley_decompose_sage(ev, 2, solver="auto", n_sage_orders=5)
        assert table.method == "shapley_pairwise"
        fresh = _linear_and_opaque(n=300)[0]
        specs = [fresh._spec("AI_via", [2], rec["context"], mode="marginalized", seed=derive_seed(ev.seed, 7002, o))
                 for o, rec in enumerate(table.per_context)]
        rows, _ = fresh.evaluate(PathwayGames(specs, range(4)))
        assert [[rec["alpha"], *rec["phi"]] for rec in table.per_context] == rows.tolist()
