import tracemalloc
from dataclasses import replace

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
)
import dedact.importance as importance
from dedact.errors import DimensionMismatch, DisjointnessViolation, SingularConditioning
from dedact.importance import (
    _KEEP,
    MEASURES,
    ImportanceEvaluator,
    MeasureBatch,
    MeasureSpec,
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
    marginalize,
    perturb,
)


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
            est = ev.evaluate(MeasureSpec("AI", FeatureIndexSet.of([0]), FeatureIndexSet.of([1]),
                                          mode=mode, loss=loss, n_mc=3, seed=7))
            est_p = ev_p.evaluate(MeasureSpec("AI", FeatureIndexSet.of([perm.index(0)]), FeatureIndexSet.of([perm.index(1)]),
                                              mode=mode, loss=loss, n_mc=3, seed=7))
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

    @pytest.mark.parametrize("exact,n_reps", [(False, 5), (True, 1)])
    def test_structural_zero_reports_its_batch_n_mc(self, exact, n_reps):
        # an empty pathway makes both plans identical: a structural zero,
        # reported with the repetitions of every other estimate
        cov = [[1.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.0]]
        ev = _evaluator(cov, [1.0, 1.0, 1.0], n=200, n_mc=5, exact_marginalization=exact)
        zero = ev.ai_via([0], [], [], mode="marginalized")
        live = ev.ai_via([0], [], [1], mode="marginalized")
        assert (zero.value, zero.std_error) == (0.0, 0.0)
        assert zero.n_mc == live.n_mc == n_reps
        spec = MeasureSpec("AI_via", FeatureIndexSet.of([0]), FeatureIndexSet.empty(), mode="marginalized",
                           n_mc=5, seed=ev.seed)
        batch = ev.evaluate(MeasureBatch(spec, (0, 0b10, 0, 0b110)))
        assert [e.n_mc for e in batch] == [n_reps] * 4
        assert [e.value == 0.0 for e in batch] == [True, False, True, False]

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


class _OpaqueLinear(Predictor):
    """The same affine map as a LinearPredictor, hidden from the engine's
    linear form, so evaluation goes through the materialized plan matrix."""

    def __init__(self, weights, intercept):
        self.weights, self.intercept = weights, intercept
        self.support = FeatureIndexSet.of(np.nonzero(weights)[0])

    def predict(self, x):
        return np.asarray(x, dtype=float) @ self.weights + self.intercept


def _random_specs(d, rng, count, **kw):
    specs = []
    while len(specs) < count:
        cols = rng.permutation(d)
        n_interest, n_baseline = int(rng.integers(1, d)), int(rng.integers(0, d))
        interest = cols[:n_interest]
        baseline = cols[n_interest:n_interest + n_baseline]
        aux = rng.choice(d, size=int(rng.integers(0, d + 1)), replace=False)
        specs.append(MeasureSpec(
            MEASURES[len(specs) % len(MEASURES)], FeatureIndexSet.of(interest),
            FeatureIndexSet.of(baseline), FeatureIndexSet.of(aux), **kw,
        ))
    return specs


def _linear_and_opaque(d=4, n=400, seed=3, **kw):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) / np.sqrt(d)
    cov = a @ a.T + 0.5 * np.eye(d)
    mean = rng.standard_normal(d)
    values = mean + rng.standard_normal((n, d)) @ np.linalg.cholesky(cov).T
    data = DataMatrix(values, tuple(f"c{i}" for i in (3, 0, 2, 1)[:d]))
    w, b = rng.standard_normal(d), 0.7
    y = TargetVector(values @ w + rng.standard_normal(n))
    g = GaussianModel(mean=mean, cov=cov)
    linear = ImportanceEvaluator(data, y, LinearPredictor(weights=w, intercept=b), g, **kw)
    opaque = ImportanceEvaluator(data, y, _OpaqueLinear(w, b), g, **kw)
    return linear, opaque, rng


def _plans(ev, spec):
    """The plan keys of one spec's two terms."""
    return ev._plan_pairs(spec, (importance._mask(spec.aux),))[0]


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
    # the two paths take different draws (see TestLinearMonteCarloMarginalization
    # and TestMomentForm), so each plan's risk is matched on one explicit z
    @pytest.mark.parametrize("mode", ["original_f"])
    def test_generic_path_matches_linear_form(self, mode):
        linear, opaque, rng = _linear_and_opaque(n_integration=4)
        for spec in _random_specs(4, rng, 24, mode=mode, n_mc=3, seed=5):
            for plan in _plans(linear, spec):
                moment, row = _risks_on_one_draw(linear, opaque, plan, rng)
                assert moment == pytest.approx(row, rel=0, abs=1e-12), spec

    def test_linear_form_matches_materialized_plan(self):
        linear, _, rng = _linear_and_opaque()
        x, predictor = linear.data.values, linear.predictor
        for spec in _random_specs(4, rng, 24):
            plans = _plans(linear, spec)
            for plan, u, v, c in zip(plans, *linear._linear_forms(plans, True)):
                zero = np.zeros(x.shape)
                z = rng.standard_normal(x.shape)
                expected = predictor.predict(linear._build_matrix(plan, zero))
                np.testing.assert_allclose(x @ u + c, expected, rtol=0, atol=1e-12)
                expected = predictor.predict(linear._build_matrix(plan, z))
                np.testing.assert_allclose(x @ u + z @ v + c, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("exact", [False, True])
    def test_reused_terms_are_bit_identical(self, exact):
        linear, _, rng = _linear_and_opaque(n_integration=4, exact_marginalization=exact)
        specs = [s for mode in ("original_f", "marginalized") for loss in (SQUARED_ERROR, CROSS_ENTROPY)
                 for s in _random_specs(4, rng, 8, mode=mode, loss=loss, n_mc=3, seed=2)]
        warm = [linear.evaluate(s) for s in specs + specs]
        assert linear.terms_reused > linear.terms_computed
        for spec, est in zip(specs + specs, warm):
            fresh = ImportanceEvaluator(
                linear.data, linear.target, linear.predictor, linear.gaussian,
                n_integration=4, exact_marginalization=exact,
            ).evaluate(spec)
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
        ("linear", SQUARED_ERROR, "marginalized"),
        ("opaque", SQUARED_ERROR, "original_f"),
    ], ids=["moment_form", "cross_entropy_row_path", "linear_monte_carlo", "opaque_plan_matrix"])
    def test_more_repetitions_extend_each_held_prefix(self, which, loss, mode):
        # a term's memo entry holds its repetitions 0..r-1; asking for more
        # computes only the new ones, and the estimates are a fresh run's
        def evaluator():
            linear, opaque, _ = _linear_and_opaque(n=200, n_integration=3)
            return linear if which == "linear" else opaque

        ev = evaluator()
        specs = _random_specs(4, np.random.default_rng(11), 12, mode=mode, loss=loss, n_mc=2, seed=6)
        slots = (1, 2) if mode == "marginalized" else (0, 0)
        distinct = [pair for pair in (_plans(ev, spec) for spec in specs) if pair[0] != pair[1]]
        terms = {(plan, slot) for pair in distinct for slot, plan in zip(slots, pair)}
        assert distinct and len(terms) < 2 * len(distinct)  # some terms are shared
        for spec in specs:
            ev.evaluate(spec)
        before = ev.counters()
        assert before["terms_computed"] == 2 * len(terms)
        got = [ev.evaluate(replace(spec, n_mc=5)) for spec in specs]
        fresh = evaluator()
        expected = [fresh.evaluate(replace(spec, n_mc=5)) for spec in specs]
        assert [(e.value, e.std_error, e.n_mc) for e in got] == [(e.value, e.std_error, e.n_mc) for e in expected]
        assert ev.terms_computed - before["terms_computed"] == 3 * len(terms)
        assert ev.terms_reused - before["terms_reused"] == 2 * 5 * len(distinct) - 3 * len(terms)
        assert fresh.terms_computed == 5 * len(terms)
        # a smaller n_mc reads the held prefix and computes nothing
        again = [ev.evaluate(spec) for spec in specs]
        assert ev.terms_computed - before["terms_computed"] == 3 * len(terms)
        assert [(e.value, e.std_error) for e in again] == \
            [(e.value, e.std_error) for e in map(evaluator().evaluate, specs)]

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
        linear, opaque, rng = _linear_and_opaque(n=400)
        for spec in _random_specs(4, rng, 24, loss=CROSS_ENTROPY, n_mc=3, seed=5):
            est, est_o = linear.evaluate(spec), opaque.evaluate(spec)
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


class TestLinearMonteCarloMarginalization:
    """A linear predictor's Monte-Carlo marginalized terms draw one
    normal per row (see the module docstring); other predictors keep
    n_integration full draws."""

    @pytest.mark.parametrize("loss", [SQUARED_ERROR, CROSS_ENTROPY], ids=["squared_error", "cross_entropy"])
    @pytest.mark.parametrize("m", [1, 4])
    def test_term_risk_matches_hand_computation(self, loss, m):
        linear, _, rng = _linear_and_opaque(n_integration=m)
        x, y = linear.data.values, linear.target.values
        specs = [s for s in _random_specs(4, rng, 8, mode="marginalized", loss=loss, n_mc=2, seed=9)
                 if len(set(_plans(linear, s))) == 2]
        for spec in specs:
            est = linear.evaluate(spec)
            plans = _plans(linear, spec)
            forms = list(zip(*linear._linear_forms(plans, True)))
            diffs = []
            for rep in range(spec.n_mc):
                risks = []
                for slot, (plan, (u, v, c)) in enumerate(zip(plans, forms), 1):
                    eps = np.random.default_rng(derive_seed(spec.seed, rep, slot)).standard_normal(len(y))
                    pred = x @ u + c + np.linalg.norm(v) / np.sqrt(m) * eps
                    risk = np.mean(loss.elementwise(y, pred))
                    if loss.kind == "squared_error" and m > 1:
                        risk -= v @ v / m
                    # one memo entry per term, holding its repetitions in order
                    key = (plan, loss.kind, "marginalized", spec.seed, slot)
                    assert len(linear._risks[key]) == spec.n_mc
                    assert linear._risks[key][rep] == pytest.approx(risk, rel=1e-12, abs=1e-12), spec
                    risks.append(risk)
                diffs.append(risks[0] - risks[1])
            assert est.value == pytest.approx(np.mean(diffs), rel=1e-10, abs=1e-12), spec

    @staticmethod
    def _seeded(specs, seeds):
        return [[replace(s, n_mc=1, seed=seed) for seed in seeds] for s in specs]

    @pytest.mark.parametrize("loss", [SQUARED_ERROR, CROSS_ENTROPY], ids=["squared_error", "cross_entropy"])
    def test_linear_and_opaque_agree_in_distribution(self, loss):
        linear, opaque, rng = _linear_and_opaque(n=200, n_integration=4)
        specs = _random_specs(4, rng, 3, mode="marginalized", loss=loss)
        for per_seed in self._seeded(specs, range(200)):
            diff = np.array([linear.evaluate(s).value - opaque.evaluate(s).value for s in per_seed])
            se = diff.std(ddof=1) / np.sqrt(diff.size)
            assert abs(diff.mean()) <= 4 * se, per_seed[0]

    def test_squared_error_mean_is_the_exact_marginalized_risk(self):
        linear, _, rng = _linear_and_opaque(n=200, n_integration=4)
        exact = ImportanceEvaluator(linear.data, linear.target, linear.predictor, linear.gaussian,
                                    exact_marginalization=True)
        specs = _random_specs(4, rng, 3, mode="marginalized")
        for per_seed in self._seeded(specs, range(200)):
            values = np.array([linear.evaluate(s).value for s in per_seed])
            target = exact.evaluate(per_seed[0]).value
            se = values.std(ddof=1) / np.sqrt(values.size)
            assert abs(values.mean() - target) <= 4 * se, per_seed[0]

    def test_opaque_estimates_unchanged(self):
        # recorded before the linear path drew its noise directly; the
        # opaque path still takes n_integration full draws per term, so
        # only the platform's BLAS rounding could move these
        pinned = {
            "squared_error": [(0.620986085043989, 0.13018444494272877), (0.7222893894061247, 0.06497762419773385),
                              (0.9964268358084714, 0.04469947354123671), (1.0709383696498103, 0.13701454125660648)],
            "cross_entropy": [(3.7863650704399974, 0.6961945405260843), (7.006444247058244, 0.4423405523980216),
                              (10.657697526144334, 1.1180916261733578), (16.244643358219154, 0.5821585355567392)],
        }
        for loss in (SQUARED_ERROR, CROSS_ENTROPY):
            _, opaque, rng = _linear_and_opaque(n_integration=4)
            specs = _random_specs(4, rng, 4, mode="marginalized", loss=loss, n_mc=3, seed=5)
            got = [(e.value, e.std_error) for e in map(opaque.evaluate, specs)]
            assert got == pytest.approx(pinned[loss.kind], rel=1e-12)


def _shifted(ev, shift):
    """An evaluator like ev on every column and the target moved by
    `shift`, the intercept moved so that residuals stay the same size."""
    p = ev.predictor
    intercept = p.intercept + shift * (1.0 - p.weights.sum())
    return ImportanceEvaluator(
        DataMatrix(ev.data.values + shift, ev.data.column_names), TargetVector(ev.target.values + shift),
        type(p)(p.weights, intercept), GaussianModel(mean=ev.gaussian.mean + shift, cov=ev.gaussian.cov),
        n_mc=ev.n_mc, seed=ev.seed, exact_marginalization=ev.exact_marginalization,
    )


class TestMomentForm:
    """Linear squared-error terms in `original_f` and exact-marginalized
    mode come from centred moments in canonical column order."""

    @pytest.mark.parametrize("exact", [False, True])
    def test_permutation_invariance_bitwise_d10(self, exact):
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
        kw = dict(n_mc=3, seed=7, exact_marginalization=exact)
        ev = ImportanceEvaluator(data, y, LinearPredictor(weights=w, intercept=0.3),
                                 GaussianModel(mean=mean, cov=cov), **kw)
        ev_p = ImportanceEvaluator(data_p, y, LinearPredictor(weights=w[perm], intercept=0.3),
                                   GaussianModel(mean=mean[perm], cov=cov[np.ix_(perm, perm)]), **kw)
        mode = "marginalized" if exact else "original_f"
        for spec in _random_specs(d, rng, 20, mode=mode, n_mc=3, seed=7):
            spec_p = MeasureSpec(
                spec.measure, *(FeatureIndexSet.of(moved[list(s)]) for s in (spec.interest, spec.baseline, spec.aux)),
                mode=mode, n_mc=3, seed=7,
            )
            est, est_p = ev.evaluate(spec), ev_p.evaluate(spec_p)
            assert (est.value, est.std_error) == (est_p.value, est_p.std_error), spec

    def test_offset_data_original_f_matches_row_path(self):
        linear, opaque, rng = _linear_and_opaque(n=2000)
        linear, opaque = _shifted(linear, 1e3), _shifted(opaque, 1e3)
        for spec in _random_specs(4, rng, 24, n_mc=3, seed=5):
            for plan in _plans(linear, spec):
                moment, row = _risks_on_one_draw(linear, opaque, plan, rng)
                assert moment == pytest.approx(row, rel=1e-10), spec

    def test_linear_and_opaque_agree_in_law(self):
        linear, opaque, rng = _linear_and_opaque(n=200)
        for spec in _random_specs(4, rng, 3):
            diff = np.array([linear.evaluate(s).value - opaque.evaluate(s).value
                             for s in (replace(spec, n_mc=1, seed=seed) for seed in range(200))])
            se = diff.std(ddof=1) / np.sqrt(diff.size)
            assert abs(diff.mean()) <= 4 * se, spec

    def test_offset_data_exact_risks_match_residuals(self):
        linear, _, rng = _linear_and_opaque(n=2000, exact_marginalization=True)
        linear = _shifted(linear, 1e3)
        x, y = linear.data.values, linear.target.values
        for spec in _random_specs(4, rng, 24, mode="marginalized"):
            linear.evaluate(spec)
        assert len(linear._risks) > 10
        for (plan, _), (risk,) in linear._risks.items():
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

    def test_exact_marginalization_never_factorizes(self, monkeypatch):
        calls = []

        def spy(cov):
            calls.append(cov.shape)
            return _stable_cholesky(cov)

        monkeypatch.setattr("dedact.sampler._stable_cholesky", spy)
        linear, _, rng = _linear_and_opaque(exact_marginalization=True)
        for loss in (SQUARED_ERROR, CROSS_ENTROPY):
            for spec in _random_specs(4, rng, 24, mode="marginalized", loss=loss):
                linear.evaluate(spec)
                linear.evaluate(MeasureBatch(spec, tuple(int(m) for m in rng.integers(0, 16, 5))))
        assert linear.terms_computed > 0 and calls == []
        for spec in _random_specs(4, rng, 4, n_mc=2):
            linear.evaluate(spec)
        assert calls  # the spy sees the factorizations of draws

    @pytest.mark.parametrize("mode,exact", [("original_f", False), ("marginalized", False),
                                            ("marginalized", True)])
    def test_one_solve_per_conditioning_set(self, monkeypatch, mode, exact):
        solved = []

        def counted(blocks, size):
            solved.append(len(blocks))
            return _conditionals(blocks, size)

        monkeypatch.setattr("dedact.sampler._conditionals", counted)
        linear, opaque, rng = _linear_and_opaque(n_integration=2, exact_marginalization=exact)
        specs = _random_specs(4, rng, 40, mode=mode, n_mc=2)
        # each spec once alone, then as a game over random aux masks, in
        # batches that share some sets and not others
        batches = specs + [MeasureBatch(spec, tuple(int(m) for m in rng.integers(0, 16, int(rng.integers(1, 6)))))
                           for spec in specs]
        # identical plans return early and set nothing up
        pairs = [pair for batch in batches for pair in (
            linear._plan_pairs(batch.spec, batch.auxes) if isinstance(batch, MeasureBatch) else [_plans(linear, batch)])]
        expected = {mask for t1, t2 in pairs if t1 != t2 for mask in t1 + t2 if mask != _KEEP}
        for ev in (linear, opaque) if not exact else (linear,):
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
        ev = ImportanceEvaluator(data, y, LinearPredictor(weights=np.ones(2), intercept=0.0), g,
                                 exact_marginalization=True)
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
        mode, exact = data.draw(st.sampled_from([("original_f", False), ("marginalized", False),
                                                  ("marginalized", True)]), label="mode")
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

        def evaluator():
            return ImportanceEvaluator(data_matrix, TargetVector(y), LinearPredictor(weights=w, intercept=b),
                                       GaussianModel(mean=mean, cov=cov), loss=loss, n_mc=3, seed=seed,
                                       n_integration=3, exact_marginalization=exact)

        spec = MeasureSpec(measure, FeatureIndexSet.of([c for c in range(d) if roles[c] == 1]),
                           FeatureIndexSet.of([c for c in range(d) if roles[c] == 2]), mode=mode, loss=loss,
                           n_mc=3, seed=seed)
        batched, single = evaluator(), evaluator()
        reset_evaluation_count()
        got = batched.evaluate(MeasureBatch(spec, tuple(masks)))
        assert evaluation_count() == len(masks)
        expected = [single.evaluate(replace(spec, aux=FeatureIndexSet.of([c for c in range(d) if m >> c & 1])))
                    for m in masks]
        assert [(e.value, e.std_error, e.n_mc, e.sets) for e in got] == \
            [(e.value, e.std_error, e.n_mc, e.sets) for e in expected]
        assert batched.counters() == single.counters()
        if measure in ("DI_from", "AI_via"):
            assert (got[-1].value, got[-1].std_error) == (0.0, 0.0)

    @pytest.mark.parametrize("measure,mode,exact", [("DI_from", "original_f", False),
                                                    ("AI_via", "marginalized", True)])
    def test_whole_game_equals_one_call_per_mask(self, measure, mode, exact):
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
                                       n_mc=3, seed=4, exact_marginalization=exact)

        spec = MeasureSpec(measure, FeatureIndexSet.of([2]), FeatureIndexSet.of([0, 5]), mode=mode, n_mc=3, seed=4)
        masks = tuple(range(1 << d))
        batched, single = evaluator(), evaluator()
        got = batched.evaluate(MeasureBatch(spec, masks))
        expected = [single.evaluate(replace(spec, aux=FeatureIndexSet.of([c for c in range(d) if m >> c & 1])))
                    for m in masks]
        assert [(e.value, e.std_error) for e in got] == [(e.value, e.std_error) for e in expected]
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
                                 GaussianModel(mean=np.zeros(d), cov=np.eye(d)), exact_marginalization=True)
        spec = MeasureSpec("AI_via", FeatureIndexSet.of([66]), FeatureIndexSet.of([1, 64]), mode="marginalized")
        masks = (0, 1 << 69, 1 << 66 | 1 << 3, (1 << 70) - 1)
        got = ev.evaluate(MeasureBatch(spec, masks))
        for mask, est in zip(masks, got):
            aux = [c for c in range(d) if mask >> c & 1]
            assert est.sets["aux"] == tuple(aux)
            assert est.value == ev.ai_via([66], [1, 64], aux, mode="marginalized").value

    def test_aux_mask_out_of_range(self):
        ev = _evaluator(np.eye(3), [1.0, 1.0, 1.0], n=100)
        spec = MeasureSpec("AI_via", FeatureIndexSet.of([0]), FeatureIndexSet.empty())
        for mask in (8, -1):
            with pytest.raises(DimensionMismatch):
                ev.evaluate(MeasureBatch(spec, (1, mask)))
        assert ev.evaluations == 0
