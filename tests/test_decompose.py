import itertools

import numpy as np
import pytest

from dedact.core import DataMatrix, ImportanceEstimate, LinearPredictor, TargetVector, derive_seed
from dedact.decompose import (
    CooperativeGame,
    DecompositionTable,
    _by_aux,
    _MeasureGame,
    fast_decompose_ai,
    fast_decompose_pfi,
    fast_decompose_pfi_ordered,
    fast_decompose_sage,
    shapley_decompose_pfi,
    shapley_decompose_sage,
    shapley_exact,
    shapley_sampled,
    solve_game,
)
from dedact.errors import DimensionMismatch, TooManyPlayers
from dedact.importance import (
    SAGE_VARIANTS,
    ImportanceEvaluator,
    check_orders,
    evaluation_count,
    pool_orders,
    reset_evaluation_count,
    sage_contexts,
)
from dedact.runner import run_census_demo
from dedact.sampler import GaussianModel


def _table_game(n, table):
    return CooperativeGame(n, lambda s: table[frozenset(s)])


def _random_game(n, rng):
    table = {frozenset(s): float(rng.standard_normal())
             for size in range(n + 1)
             for s in itertools.combinations(range(n), size)}
    table[frozenset()] = 0.0
    return table


def _manual_shapley(n, table):
    phi = np.zeros(n)
    perms = list(itertools.permutations(range(n)))
    for perm in perms:
        prev = frozenset()
        for p in perm:
            cur = prev | {p}
            phi[p] += table[cur] - table[prev]
            prev = cur
    return phi / len(perms)


class TestCooperativeGame:
    def test_cache_single_evaluation(self):
        calls = []

        def value_fn(s):
            calls.append(s)
            return float(len(s))

        game = CooperativeGame(3, value_fn)
        for _ in range(5):
            game.value({0, 1})
            game.value([1, 0])
        assert len(calls) == 1

    def test_out_of_range_player(self):
        game = CooperativeGame(2, lambda s: 0.0)
        with pytest.raises(DimensionMismatch):
            game.value({2})

    def test_needs_players(self):
        with pytest.raises(DimensionMismatch):
            CooperativeGame(0, lambda s: 0.0)

    def test_values_by_mask_share_the_cache(self):
        calls = []
        game = CooperativeGame(3, lambda s: calls.append(s) or float(sum(s)))
        assert game.values([0b101, 0b010, 0b101]) == [2.0, 1.0, 2.0]
        assert game.value({0, 2}) == 2.0 and len(calls) == 2
        for mask in (8, -1):
            with pytest.raises(DimensionMismatch):
                game.values([1, mask])


class TestShapleyExact:
    def test_two_player_textbook(self):
        table = {frozenset(): 0.0, frozenset({0}): 1.0, frozenset({1}): 2.0, frozenset({0, 1}): 4.0}
        res = shapley_exact(_table_game(2, table))
        assert np.allclose(res.attributions, [1.5, 2.5])
        assert res.solver == "exact"

    def test_additive_game(self):
        c = np.array([0.5, -1.0, 2.0])
        game = CooperativeGame(3, lambda s: sum(c[p] for p in s))
        res = shapley_exact(game)
        assert np.allclose(res.attributions, c, atol=1e-12)

    def test_unanimity_game(self):
        game = CooperativeGame(3, lambda s: 1.0 if len(s) == 3 else 0.0)
        res = shapley_exact(game)
        assert np.allclose(res.attributions, [1 / 3, 1 / 3, 1 / 3])

    def test_too_many_players(self):
        with pytest.raises(TooManyPlayers):
            shapley_exact(CooperativeGame(16, lambda s: 0.0))

    def test_matches_permutation_average(self):
        rng = np.random.default_rng(0)
        table = _random_game(4, rng)
        res = shapley_exact(_table_game(4, table))
        assert np.allclose(res.attributions, _manual_shapley(4, table), atol=1e-10)


class TestShapleySampled:
    def test_converges_to_exact(self):
        table = {frozenset(): 0.0, frozenset({0}): 1.0, frozenset({1}): 2.0, frozenset({0, 1}): 4.0}
        game = _table_game(2, table)
        res = shapley_sampled(game, n_orders=2000, seed=1)
        exact = shapley_exact(_table_game(2, table))
        for i in range(2):
            tol = max(4 * res.std_errors[i], 1e-12)
            assert abs(res.attributions[i] - exact.attributions[i]) <= tol

    def test_null_player_exactly_zero(self):
        # player 2 never changes the value, so every sampled marginal is 0
        game = CooperativeGame(3, lambda s: float(len(s & {0, 1})))
        res = shapley_sampled(game, n_orders=30, seed=2)
        assert res.attributions[2] == 0.0 and res.std_errors[2] == 0.0

    def test_efficiency_exact_for_empirical_mean(self):
        rng = np.random.default_rng(3)
        table = _random_game(5, rng)
        game = _table_game(5, table)
        res = shapley_sampled(game, n_orders=7, seed=4)
        assert float(res.attributions.sum()) == pytest.approx(
            table[frozenset(range(5))] - table[frozenset()], abs=1e-10
        )


def _per_order_shapley(n, table, n_orders, seed):
    """`shapley_sampled` as a loop that values each order's prefixes as
    it walks them: the reference the batched solver must equal bit for
    bit, order stream included."""
    rng = np.random.default_rng(seed)
    contribs = np.empty((n_orders, n))
    for o in range(n_orders):
        prev = frozenset()
        for player in rng.permutation(n):
            cur = prev | {int(player)}
            contribs[o, int(player)] = table[cur] - table[prev]
            prev = cur
    se = contribs.std(axis=0, ddof=1) / np.sqrt(n_orders) if n_orders > 1 else np.zeros(n)
    return contribs.mean(axis=0), se


class TestShapleySampledReference:
    @pytest.mark.parametrize("n,n_orders,seed", [(1, 1, 0), (3, 1, 5), (4, 7, 1), (6, 25, 2), (9, 40, 3)])
    def test_equals_per_order_loop(self, n, n_orders, seed):
        table = _random_game(n, np.random.default_rng(seed))
        calls = []
        game = CooperativeGame(n, lambda s: calls.append(s) or table[frozenset(s)])
        res = shapley_sampled(game, n_orders, seed=seed)
        phi, se = _per_order_shapley(n, table, n_orders, seed)
        assert np.array_equal(res.attributions, phi) and np.array_equal(res.std_errors, se)
        # each coalition valued once, and the cache holds exactly those
        assert len(calls) == len(set(calls)) == len(game.cache)


class TestZeroOrders:
    """No orders would pool to NaN; each entry point names its argument."""

    @pytest.mark.parametrize("call,argument", [
        (lambda ev: shapley_sampled(_table_game(2, _random_game(2, np.random.default_rng(0))), 0), "n_orders"),
        (lambda ev: ev.sage_attribution(0, n_orders=0), "n_orders"),
        (lambda ev: fast_decompose_sage(ev, 0, n_orders=0), "n_orders"),
        (lambda ev: shapley_decompose_sage(ev, 0, n_sage_orders=0), "n_sage_orders"),
        (lambda ev: shapley_decompose_pfi(ev, 0, solver="sampled", n_orders=0), "n_orders"),
    ], ids=["shapley_sampled", "sage_attribution", "fast_decompose_sage", "shapley_decompose_sage",
            "shapley_decompose_pfi"])
    def test_zero_orders_raise(self, call, argument):
        ev = _linear_evaluator(np.eye(3), [1.0, 1.0, 1.0], n=200, n_mc=2)
        with pytest.raises(DimensionMismatch, match=rf"^{argument} must be >= 1, got 0$"):
            call(ev)
        assert ev.evaluations == 0


def test_players_sharing_a_column_value_that_column():
    # a coalition is worth the DI-from of its set of columns, however
    # many of its players bring the same column
    cov = [[1.0, 0.6, 0.3], [0.6, 1.0, 0.2], [0.3, 0.2, 1.0]]
    ev = _linear_evaluator(cov, [1.0, 1.0, 1.0], n=500, n_mc=2)
    players = [1, 1, 2]
    table = {frozenset(s): ev.di_from([0], [1, 2], sorted({players[p] for p in s}), seed=derive_seed(ev.seed, 41)).value
             for size in range(4) for s in itertools.combinations(range(3), size)}
    phi = _manual_shapley(3, table)
    got = shapley_decompose_pfi(ev, 0, players=players, solver="exact").components
    assert abs(phi[1]) > 0.01 and abs(phi[2]) > 0.01
    assert got["x1"][0] == pytest.approx(phi[1], rel=1e-12)  # the second copy; the first has the same share
    assert got["x2"][0] == pytest.approx(phi[2], rel=1e-12)


def test_census_demo_engine_counters_unchanged():
    # recorded before the Shapley games were valued in one call each: the
    # batch must count the evaluations and plan terms that one call per
    # coalition counted
    bundle = run_census_demo(seed=0, n=2000, n_sage_orders=2, n_decomp_orders=2)
    assert bundle.metadata["engine"] == {"evaluations": 786, "terms_computed": 2087, "terms_reused": 2133}


class TestSolveGame:
    def test_auto_thresholds(self):
        small = solve_game(CooperativeGame(8, lambda s: float(len(s))))
        large = solve_game(CooperativeGame(9, lambda s: float(len(s))), n_orders=5)
        assert small.solver == "exact"
        assert large.solver == "sampled"

    def test_unknown_solver(self):
        with pytest.raises(DimensionMismatch):
            solve_game(CooperativeGame(2, lambda s: 0.0), solver="weird")


class TestShapleyAxioms:
    """Axiom battery over random games."""

    def test_axioms_on_random_games(self):
        rng = np.random.default_rng(5)
        for trial in range(50):
            n = int(rng.integers(2, 7))
            table = _random_game(n, rng)
            phi = shapley_exact(_table_game(n, table)).attributions

            # efficiency
            assert float(phi.sum()) == pytest.approx(table[frozenset(range(n))], abs=1e-10)

            # symmetry: symmetrize the game in players 0 and 1
            def swap(s):
                out = set(s)
                if 0 in s:
                    out.add(1)
                else:
                    out.discard(1)
                if 1 in s:
                    out.add(0)
                else:
                    out.discard(0)
                return frozenset(out)

            sym = {s: (v + table[swap(s)]) / 2.0 for s, v in table.items()}
            phi_sym = shapley_exact(_table_game(n, sym)).attributions
            assert phi_sym[0] == pytest.approx(phi_sym[1], abs=1e-10)

            # linearity: phi(v + c*w) = phi(v) + c*phi(w)
            other = _random_game(n, rng)
            c = float(rng.uniform(-2, 2))
            combo = {s: table[s] + c * other[s] for s in table}
            phi_other = shapley_exact(_table_game(n, other)).attributions
            phi_combo = shapley_exact(_table_game(n, combo)).attributions
            assert np.allclose(phi_combo, phi + c * phi_other, atol=1e-10)

            # dummy: append a player whose marginal contribution is always c0
            c0 = float(rng.uniform(-1, 1))
            big = dict()
            for s, v in table.items():
                big[s] = v
                big[s | {n}] = v + c0
            phi_big = shapley_exact(_table_game(n + 1, big)).attributions
            assert phi_big[n] == pytest.approx(c0, abs=1e-10)
            assert np.allclose(phi_big[:n], phi, atol=1e-10)

            # monotonicity: adding a nonnegative bonus to player 0's
            # marginals never lowers player 0's attribution
            bonus = float(rng.uniform(0, 2))
            boosted = {s: v + (bonus if 0 in s else 0.0) for s, v in table.items()}
            phi_boost = shapley_exact(_table_game(n, boosted)).attributions
            assert phi_boost[0] >= phi[0] - 1e-10


def _linear_evaluator(cov, weights, target_weights=None, n=20000, seed=0, **kw):
    cov = np.asarray(cov, dtype=float)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, cov.shape[0])) @ np.linalg.cholesky(cov).T
    data = DataMatrix(values, tuple(f"x{i}" for i in range(cov.shape[0])))
    tw = np.asarray(weights if target_weights is None else target_weights, dtype=float)
    y = TargetVector(values @ tw)
    pred = LinearPredictor(weights=np.asarray(weights, dtype=float), intercept=0.0)
    g = GaussianModel(mean=np.zeros(cov.shape[0]), cov=cov)
    return ImportanceEvaluator(data, y, pred, g, seed=seed, **kw)


def _duplicate_evaluator(n=20000, seed=0, **kw):
    """x1 duplicates x0, x2 independent; model and target read x0 only."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    data = DataMatrix(np.column_stack([x0, x0, x2]), ("x0", "x1", "x2"))
    y = TargetVector(x0)
    pred = LinearPredictor(weights=np.array([1.0, 0.0, 0.0]), intercept=0.0)
    cov = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    g = GaussianModel(mean=np.zeros(3), cov=cov)
    return ImportanceEvaluator(data, y, pred, g, seed=seed, **kw)


class TestFastDecomposePfi:
    def test_independent_features(self):
        ev = _linear_evaluator(np.eye(3), [1.0, 1.0, 0.0], n_mc=10)
        table = fast_decompose_pfi(ev, 0)
        own_value, own_se = table.components["x0"]
        # reconstructing x0 from itself recovers the full PFI bit-exactly
        assert own_value == table.total.value
        for name in ("x1", "x2"):
            v, se = table.components[name]
            assert abs(v) <= max(4 * se, 1e-12)

    def test_correlated_source_carries_signal(self):
        cov = np.array([[1.0, 0.8, 0.0], [0.8, 1.0, 0.0], [0.0, 0.0, 1.0]])
        ev = _linear_evaluator(cov, [1.0, 0.0, 0.0], n_mc=10)
        table = fast_decompose_pfi(ev, 0)
        v1, se1 = table.components["x1"]
        v2, se2 = table.components["x2"]
        assert v1 > 10 * se1
        assert abs(v2) <= max(4 * se2, 1e-12)

    def test_as_dict_shape(self):
        ev = _linear_evaluator(np.eye(2), [1.0, 0.0], n=2000, n_mc=3)
        d = fast_decompose_pfi(ev, 0).as_dict()
        assert d["target"] == "x0" and d["method"] == "fast"
        assert set(d["components"]) == {"x0", "x1"}


class TestFastDecomposePfiOrdered:
    def test_telescoping_sums_to_full_reconstruction(self):
        cov = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.0]])
        ev = _linear_evaluator(cov, [1.0, 0.5, 0.0], n_mc=5)
        order = [1, 2, 0]
        table = fast_decompose_pfi_ordered(ev, 0, order)
        full = ev.di_from([0], [1, 2], order, seed=ev.seed)
        total_components = sum(v for v, _ in table.components.values())
        assert total_components == pytest.approx(full.value, abs=1e-12)
        # the order containing k itself telescopes all the way to the PFI
        assert total_components == pytest.approx(table.total.value, abs=1e-12)
        assert table.remainder == pytest.approx(0.0, abs=1e-12)

    def test_first_component_matches_unordered(self):
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        ev = _linear_evaluator(cov, [1.0, 0.0], n_mc=5)
        ordered = fast_decompose_pfi_ordered(ev, 0, [1, 0])
        unordered = fast_decompose_pfi(ev, 0, sources=[1])
        assert ordered.components["x1"][0] == unordered.components["x1"][0]

    def test_duplicate_source_first_takes_all(self):
        ev = _duplicate_evaluator(n_mc=5)
        table = fast_decompose_pfi_ordered(ev, 0, [1, 0])
        v_dup, _ = table.components["x1"]
        v_self, _ = table.components["x0"]
        # x1 reconstructs x0 (almost) perfectly, so x0 itself adds ~nothing
        assert v_dup > 0.5 * table.total.value
        assert abs(v_self) < 0.05 * table.total.value


class TestShapleyDecomposePfi:
    def test_unrelated_players_are_dummies(self):
        ev = _linear_evaluator(np.eye(3), [1.0, 1.0, 0.0], n_mc=5)
        table = shapley_decompose_pfi(ev, 0, solver="exact")
        assert table.components["x0"][0] == pytest.approx(table.total.value, abs=1e-6)
        for name in ("x1", "x2"):
            assert abs(table.components[name][0]) < 1e-6
        # efficiency: remainder vanishes because di_from over all d is the PFI
        assert abs(table.remainder) < 1e-10

    def test_duplicate_splits_evenly(self):
        ev = _duplicate_evaluator(n_mc=5)
        table = shapley_decompose_pfi(ev, 0, solver="exact")
        half = table.total.value / 2.0
        assert table.components["x0"][0] == pytest.approx(half, rel=0.02)
        assert table.components["x1"][0] == pytest.approx(half, rel=0.02)
        assert abs(table.components["x2"][0]) < 0.02 * table.total.value

    def test_sampled_matches_exact(self):
        cov = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.0]])
        ev = _linear_evaluator(cov, [1.0, 0.5, -0.5], n_mc=5)
        exact = shapley_decompose_pfi(ev, 0, solver="exact")
        sampled = shapley_decompose_pfi(ev, 0, solver="sampled", n_orders=600)
        for name, (v, se) in sampled.components.items():
            assert abs(v - exact.components[name][0]) <= max(5 * se, 1e-9)

    def test_restricted_players(self):
        ev = _linear_evaluator(np.eye(3), [1.0, 1.0, 0.0], n_mc=5)
        table = shapley_decompose_pfi(ev, 0, players=[1, 2], solver="exact")
        assert set(table.components) == {"x1", "x2"}
        # without k as a player nothing reconstructs it: remainder is the PFI
        assert table.remainder == pytest.approx(table.total.value, abs=1e-6)


class TestFastDecomposeSage:
    def test_single_feature_total_matches_solo_value(self):
        ev = _linear_evaluator(np.eye(1), [1.0], n=5000, n_mc=5)
        table = fast_decompose_sage(ev, 0, n_orders=4)
        solo = ev.sage_value([0])
        assert table.total.value == pytest.approx(solo.value, abs=5 * (table.total.std_error + solo.std_error) + 1e-9)
        v, se = table.components["x0"]
        assert v == pytest.approx(table.total.value, abs=5 * np.hypot(se, table.total.std_error) + 1e-9)

    def test_ignored_pathway_component_is_zero(self):
        # x2 is independent noise: blocking it changes nothing
        ev = _linear_evaluator(np.eye(3), [1.0, 1.0, 0.0], n=5000, n_mc=3)
        table = fast_decompose_sage(ev, 0, n_orders=6)
        v, se = table.components["x2"]
        assert abs(v) <= max(4 * se, 1e-9)

    def test_proxy_pathway_carries_the_value(self):
        # model reads only x1 = x0's proxy; x0's SAGE value flows via x1
        ev = _duplicate_evaluator(n=10000, n_mc=3)
        table = fast_decompose_sage(ev, 1, pathways=[0, 2], n_orders=6)
        v0, se0 = table.components["x0"]
        v2, se2 = table.components["x2"]
        assert v0 > 0.5 * table.total.value
        assert abs(v2) <= max(4 * se2, 1e-6)


class TestShapleyDecomposeSage:
    def test_single_live_pathway_gets_everything(self):
        ev = _duplicate_evaluator(n=10000, n_mc=3)
        table = shapley_decompose_sage(ev, 1, pathways=[0, 2], solver="exact", n_sage_orders=6)
        v0, se0 = table.components["x0"]
        tol = 5 * np.hypot(se0, table.total.std_error) + 1e-9
        assert v0 == pytest.approx(table.total.value, abs=tol)
        assert abs(table.components["x2"][0]) <= max(4 * table.components["x2"][1], 1e-6)

    def test_exact_vs_sampled_orders(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        ev = _linear_evaluator(cov, [1.0, 1.0], n=5000, n_mc=3)
        exact = shapley_decompose_sage(ev, 0, solver="exact", n_sage_orders=5)
        sampled = shapley_decompose_sage(ev, 0, solver="sampled", n_sage_orders=5, n_decomp_orders=200)
        for name, (v, se) in sampled.components.items():
            ref = exact.components[name][0]
            assert abs(v - ref) <= max(5 * np.hypot(se, exact.components[name][1]), 1e-6)

    def test_restricted_pathways_keep_the_full_total(self):
        # the total is j's SAGE value whatever the pathways, as in the fast
        # table: under exact marginalization the seeds drop out, so the two
        # totals are the same mean of AI(j | C) over the same contexts
        cov = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
        ev = _linear_evaluator(cov, [1.0, -0.5, 0.8], n=2000, n_mc=2, exact_marginalization=True)
        fast = fast_decompose_sage(ev, 0, pathways=[1, 2], n_orders=5)
        for solver in ("exact", "sampled"):
            table = shapley_decompose_sage(ev, 0, pathways=[2, 1], solver=solver, n_sage_orders=5, n_decomp_orders=3)
            assert (table.total.value, table.total.std_error) == (fast.total.value, fast.total.std_error)
            for rec in table.per_context:
                assert rec["alpha"] == ev.associative_importance([0], rec["context"], mode="marginalized").value
            # x0's own pathway is no player: its share is the remainder
            assert table.remainder > 0.1 * table.total.value

    def test_per_context_records(self):
        ev = _linear_evaluator(np.eye(2), [1.0, 0.0], n=2000, n_mc=2)
        table = shapley_decompose_sage(ev, 0, solver="exact", n_sage_orders=3)
        assert len(table.per_context) == 3
        for rec in table.per_context:
            assert set(rec) == {"context", "alpha", "phi"}
            assert rec["alpha"] == pytest.approx(sum(rec["phi"]), abs=1e-10)


class TestFastVsShapleyConsistency:
    def test_agree_for_independent_additive_model(self):
        ev = _linear_evaluator(np.eye(2), [1.0, 2.0], n=10000, n_mc=5)
        fast = fast_decompose_pfi(ev, 1)
        shap = shapley_decompose_pfi(ev, 1, solver="exact")
        for name in ("x0", "x1"):
            fv, fse = fast.components[name]
            sv, sse = shap.components[name]
            assert abs(fv - sv) <= max(5 * np.hypot(fse, sse), 1e-6)


class TestDecompositionTable:
    def test_remainder_and_combined_se(self):
        from dedact.core import ImportanceEstimate

        total = ImportanceEstimate(5.0, 0.3, 3, "original_f", {}, 0)
        table = DecompositionTable("t", total, {"a": (2.0, 0.4), "b": (1.0, 0.0)}, "fast")
        assert table.remainder == pytest.approx(2.0)
        assert table.combined_std_error == pytest.approx(0.5)


class TestFastTablesBatched:
    """A fast table values its components in one `MeasureBatch` (a fast
    SAGE table those of each context): the table one evaluation per
    component gives, from fewer `evaluate` calls."""

    @pytest.mark.parametrize("exact_marginalization", [False, True])
    def test_same_table_as_one_evaluation_per_component(self, monkeypatch, exact_marginalization):
        cov = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
        kw = dict(n=500, n_mc=3, n_integration=4, exact_marginalization=exact_marginalization)
        ev, single = (_linear_evaluator(cov, [1.0, -0.5, 0.8], **kw) for _ in range(2))
        calls = []
        evaluate = ImportanceEvaluator.evaluate

        def spy(self, spec):
            calls.append(spec)
            return evaluate(self, spec)

        monkeypatch.setattr(ImportanceEvaluator, "evaluate", spy)
        reset_evaluation_count()
        pfi, ordered = fast_decompose_pfi(ev, 0), fast_decompose_pfi_ordered(ev, 1, [2, 0, 1])
        ai, sage = fast_decompose_ai(ev, 2), fast_decompose_sage(ev, 0, n_orders=3)
        # each table: its total and one batch; a SAGE context: its alpha and one batch
        assert len(calls) == 2 + 2 + 2 + 3 * 2
        assert evaluation_count() == 4 + 4 + 4 + 3 * 4

        def pair(est):
            return est.value, est.std_error

        assert pair(pfi.total) == pair(single.pfi(0))
        assert pfi.components == {f"x{j}": pair(single.di_from([0], [1, 2], [j])) for j in range(3)}
        assert pair(ordered.total) == pair(single.pfi(1))
        prefixes = [pair(single.di_from([1], [0, 2], [2, 0, 1][:i])) for i in (1, 2, 3)]
        assert list(ordered.components.values()) == [
            (value - prev, float(np.hypot(se, prev_se)))
            for (value, se), (prev, prev_se) in zip(prefixes, [(0.0, 0.0)] + prefixes)]
        assert pair(ai.total) == pair(single.associative_importance([2], []))
        assert ai.components == {f"x{k}": pair(single.ai_via([2], [], [k])) for k in range(3)}
        alphas, comp = [], []
        for o, context in enumerate(sage_contexts(3, 0, 3, ev.seed)):
            seed_o = derive_seed(ev.seed, 811, o)
            alphas.append(single.associative_importance([0], context, mode="marginalized", seed=seed_o).value)
            comp.append([alphas[-1] - single.ai_via([0], context, [c for c in range(3) if c != k],
                                                    mode="marginalized", seed=seed_o).value for k in range(3)])
        assert pair(sage.total) == pool_orders(alphas)
        assert sage.components == {f"x{k}": pool_orders(np.array(comp)[:, k]) for k in range(3)}
        assert ev.counters() == single.counters()


class _FreshPerEvaluation(ImportanceEvaluator):
    """Runs every evaluation on a new evaluator, so no term is reused."""

    def evaluate(self, spec):
        fresh = ImportanceEvaluator(
            self.data, self.target, self.predictor, self.gaussian, self.loss, self.n_mc,
            self.seed, self.n_integration, self.exact_marginalization,
        )
        return fresh.evaluate(spec)


def _shapley_tables(ev):
    """Sampled and exact Shapley tables of both kinds, and the number of
    evaluations they took."""
    reset_evaluation_count()
    tables = [
        shapley_decompose_pfi(ev, 1, solver="exact"),
        shapley_decompose_pfi(ev, 0, solver="sampled", n_orders=4),
        shapley_decompose_sage(ev, 2, solver="exact", n_sage_orders=3),
        shapley_decompose_sage(ev, 0, solver="sampled", n_sage_orders=2, n_decomp_orders=3),
    ]
    return tables, evaluation_count()


class TestTermMemoInvisible:
    @pytest.mark.parametrize("exact_marginalization", [False, True])
    def test_tables_equal_fresh_evaluations(self, exact_marginalization):
        cov = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
        kw = dict(n_mc=3, n_integration=4, exact_marginalization=exact_marginalization)
        shared = _linear_evaluator(cov, [1.0, -0.5, 0.8], n=3000, **kw)
        fresh = _FreshPerEvaluation(shared.data, shared.target, shared.predictor, shared.gaussian, **kw)
        (tables, count), (fresh_tables, fresh_count) = _shapley_tables(shared), _shapley_tables(fresh)
        for a, b in zip(tables, fresh_tables):
            assert a.as_dict() == b.as_dict()
            assert a.per_context == b.per_context
        # the memo saves terms, never evaluations
        assert count == fresh_count == shared.evaluations
        assert shared.terms_reused > 0


# -- the SAGE loops before they shared `sage_loop`, frozen as the reference ---


def _parent_sage_surplus(ev, j, context, variant="conditional", n_mc=None, seed=None):
    if variant == "marginal":
        return ev.direct_importance([j], context, mode="marginalized", n_mc=n_mc, seed=seed)
    if variant == "conditional":
        return ev.associative_importance([j], context, mode="marginalized", n_mc=n_mc, seed=seed)
    raise DimensionMismatch(f"unknown SAGE variant {variant!r}")


def _parent_sage_attribution(ev, j, variant="conditional", n_orders=60, n_mc=None, seed=None):
    check_orders(n_orders, "n_orders")
    seed = ev.seed if seed is None else seed
    per_order = []
    for o, context in enumerate(sage_contexts(ev.data.n_cols, j, n_orders, seed)):
        inner = _parent_sage_surplus(ev, j, context, variant=variant, n_mc=n_mc, seed=derive_seed(seed, 7002, o))
        per_order.append(inner.value)
    value, se = pool_orders(per_order)
    if n_orders == 1:
        se = inner.std_error
    sets = {"measure": "SAGE", "interest": (j,), "variant": variant, "n_orders": n_orders}
    return ImportanceEstimate(value, se, n_orders, "marginalized", sets, seed)


def _parent_sage_table(ev, j, pathways, contexts, alphas, contributions, method, seed, per_context=()):
    n_orders = len(contexts)
    sets = {"measure": "SAGE", "interest": (j,), "n_orders": n_orders}
    total = ImportanceEstimate(*pool_orders(alphas), n_orders, "marginalized", sets, seed)
    components = {
        ev.data.column_names[k]: pool_orders(contributions[:, p]) for p, k in enumerate(pathways)
    }
    return DecompositionTable(
        ev.data.column_names[j], total, components, method,
        order_log=[list(c) for c in contexts], per_context=list(per_context),
    )


def _parent_fast_decompose_sage(ev, j, pathways=None, n_orders=25, n_mc=None, seed=None):
    check_orders(n_orders, "n_orders")
    seed = ev.seed if seed is None else seed
    d = ev.data.n_cols
    pathways = list(range(d)) if pathways is None else list(pathways)
    contexts = sage_contexts(d, j, n_orders, seed)
    alphas = np.empty(n_orders)
    comp = np.empty((n_orders, len(pathways)))
    blocked = [[c for c in range(d) if c != k] for k in pathways]
    for o, context in enumerate(contexts):
        seed_o = derive_seed(seed, 811, o)
        alpha = ev.associative_importance([j], context, mode="marginalized", n_mc=n_mc, seed=seed_o)
        alphas[o] = alpha.value
        vias = _by_aux(ev, ev._spec("AI_via", [j], context, mode="marginalized", n_mc=n_mc, seed=seed_o), blocked)
        comp[o] = [alpha.value - via.value for via in vias]
    return _parent_sage_table(ev, j, pathways, contexts, alphas, comp, "fast", seed)


def _parent_shapley_decompose_sage(ev, j, pathways=None, solver="auto", n_sage_orders=60, n_decomp_orders=25,
                                   n_mc=None, seed=None):
    check_orders(n_sage_orders, "n_sage_orders")
    seed = ev.seed if seed is None else seed
    d = ev.data.n_cols
    pathways = list(range(d)) if pathways is None else list(pathways)
    contexts = sage_contexts(d, j, n_sage_orders, seed)
    alphas = np.empty(n_sage_orders)
    phis = np.empty((n_sage_orders, len(pathways)))
    solver_name = solver
    for o, context in enumerate(contexts):
        spec = ev._spec("AI_via", [j], context, mode="marginalized", n_mc=n_mc, seed=derive_seed(seed, 813, o))
        game = _MeasureGame(ev, spec, pathways)
        result = solve_game(game, solver, n_decomp_orders, derive_seed(seed, 814, o))
        alphas[o] = game.value(frozenset(range(len(pathways))))
        phis[o] = result.attributions
        solver_name = result.solver
    per_context = [{"context": contexts[o], "alpha": float(alphas[o]),
                    "phi": [float(x) for x in phis[o]]} for o in range(n_sage_orders)]
    return _parent_sage_table(ev, j, pathways, contexts, alphas, phis, f"shapley_{solver_name}", seed,
                              per_context=per_context)


class TestSageLoopReference:
    """`sage_attribution` and both SAGE tables, which now share one context
    loop, give the frozen loops' outputs bit for bit, from the same
    evaluations (equal counters on twin evaluators)."""

    @pytest.mark.parametrize("n_orders", [1, 4])
    @pytest.mark.parametrize("exact_marginalization", [False, True])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_equals_the_frozen_loops(self, seed, exact_marginalization, n_orders):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4))
        cov, weights = a @ a.T + 0.5 * np.eye(4), rng.standard_normal(4)
        kw = dict(n=300, seed=seed, n_mc=2, n_integration=3, exact_marginalization=exact_marginalization)
        ev, parent = (_linear_evaluator(cov, weights, **kw) for _ in range(2))
        j = int(rng.integers(4))
        for variant in SAGE_VARIANTS:
            assert ev.sage_attribution(j, variant, n_orders) == _parent_sage_attribution(parent, j, variant, n_orders)
        for pathways in (None, [int(p) for p in rng.permutation(4)]):
            tables = [(fast_decompose_sage(ev, j, pathways, n_orders),
                       _parent_fast_decompose_sage(parent, j, pathways, n_orders))]
            for solver in ("exact", "sampled"):
                kw = dict(solver=solver, n_sage_orders=n_orders, n_decomp_orders=3)
                tables.append((shapley_decompose_sage(ev, j, pathways, **kw),
                               _parent_shapley_decompose_sage(parent, j, pathways, **kw)))
            for new, old in tables:
                assert new.as_dict() == old.as_dict()
                assert new.order_log == old.order_log
                assert new.per_context == old.per_context
        assert ev.counters() == parent.counters()
