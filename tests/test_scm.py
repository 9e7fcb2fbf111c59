import itertools
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dedact.core import MOMENT_BLOCK_ROWS
from dedact.errors import CyclicGraph, DimensionMismatch, DisjointnessViolation
from dedact.scm import (
    CENSUS_MEDIATORS,
    LinearSCM,
    biomarker_scm,
    census_scm,
    d_separated,
    sample_scm,
)


def _chain(noise_b=1.0):
    return LinearSCM(
        nodes=("a", "b", "y"),
        edges={("a", "b"): 2.0, ("b", "y"): 1.0},
        noise_std={"a": 1.0, "b": noise_b, "y": 1.0},
        roles={"a": "feature", "b": "feature", "y": "target"},
    )


class TestValidation:
    def test_import_leaves_networkx_unloaded(self):
        code = "import dedact, sys; assert 'networkx' not in sys.modules"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_node_order_matches_networkx(self):
        # the order networkx's lexicographic topological sort gives, keyed
        # on the position in the given node tuple
        import networkx as nx

        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            names = tuple(f"v{i}" for i in rng.permutation(n))
            rank = rng.permutation(n)  # a hidden topological order
            edges = {(names[i], names[j]): 1.0 for i in range(n) for j in range(n)
                     if rank[i] < rank[j] and rng.random() < 0.3}
            roles = {name: "feature" for name in names}
            roles[names[-1]] = "target"
            scm = LinearSCM(nodes=names, edges=edges, noise_std=dict.fromkeys(names, 1.0), roles=roles)
            graph = nx.DiGraph(list(edges))
            graph.add_nodes_from(names)
            assert scm.nodes == tuple(nx.lexicographical_topological_sort(graph, key=names.index))

    def test_cycle_rejected(self):
        with pytest.raises(CyclicGraph):
            LinearSCM(
                nodes=("a", "b", "y"),
                edges={("a", "b"): 1.0, ("b", "a"): 1.0},
                noise_std={"a": 1.0, "b": 1.0, "y": 1.0},
                roles={"a": "feature", "b": "feature", "y": "target"},
            )

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(DimensionMismatch):
            LinearSCM(
                nodes=("a", "a", "y"),
                edges={},
                noise_std={"a": 1.0, "y": 1.0},
                roles={"a": "feature", "y": "target"},
            )

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(DimensionMismatch):
            LinearSCM(
                nodes=("a", "y"),
                edges={("a", "zz"): 1.0},
                noise_std={"a": 1.0, "y": 1.0},
                roles={"a": "feature", "y": "target"},
            )

    def test_bad_role_rejected(self):
        with pytest.raises(DimensionMismatch):
            LinearSCM(
                nodes=("a", "y"),
                edges={},
                noise_std={"a": 1.0, "y": 1.0},
                roles={"a": "covariate", "y": "target"},
            )

    def test_negative_noise_rejected(self):
        with pytest.raises(DimensionMismatch):
            LinearSCM(
                nodes=("a", "y"),
                edges={},
                noise_std={"a": -1.0, "y": 1.0},
                roles={"a": "feature", "y": "target"},
            )

    def test_exactly_one_supervision_node(self):
        with pytest.raises(DimensionMismatch):
            LinearSCM(
                nodes=("a", "b"),
                edges={},
                noise_std={"a": 1.0, "b": 1.0},
                roles={"a": "feature", "b": "feature"},
            )
        with pytest.raises(DimensionMismatch):
            LinearSCM(
                nodes=("a", "b"),
                edges={},
                noise_std={"a": 1.0, "b": 1.0},
                roles={"a": "target", "b": "label"},
            )

    def test_nodes_reordered_topologically(self):
        scm = LinearSCM(
            nodes=("y", "b", "a"),
            edges={("a", "b"): 1.0, ("b", "y"): 1.0},
            noise_std={"a": 1.0, "b": 1.0, "y": 1.0},
            roles={"a": "feature", "b": "feature", "y": "target"},
        )
        order = {n: i for i, n in enumerate(scm.nodes)}
        assert order["a"] < order["b"] < order["y"]


class TestImpliedCovariance:
    def test_matches_sampled_covariance(self):
        scm = _chain()
        data, target = sample_scm(scm, n=50000, seed=1)
        pooled = np.column_stack([data.values, target.values])
        emp = np.cov(pooled, rowvar=False)
        idx = [scm.nodes.index(n) for n in ("a", "b", "y")]
        implied = scm.implied_covariance()[np.ix_(idx, idx)]
        n = pooled.shape[0]
        for i in range(3):
            for j in range(3):
                se = np.sqrt((emp[i, i] * emp[j, j] + emp[i, j] ** 2) / n)
                assert abs(emp[i, j] - implied[i, j]) < 5 * se

    def test_noiseless_child_equals_scaled_parent(self):
        scm = _chain(noise_b=0.0)
        cov = scm.implied_covariance()
        ia, ib = scm.nodes.index("a"), scm.nodes.index("b")
        # b = 2a exactly: var(b) = 4 var(a), cov(a, b) = 2 var(a)
        assert cov[ib, ib] == pytest.approx(4.0 * cov[ia, ia])
        assert cov[ia, ib] == pytest.approx(2.0 * cov[ia, ia])
        data, _ = sample_scm(scm, n=100, seed=0)
        assert np.allclose(data.values[:, data.index_of("b")], 2.0 * data.values[:, data.index_of("a")])

    def test_no_edges_gives_diagonal(self):
        scm = LinearSCM(
            nodes=("a", "b", "y"),
            edges={},
            noise_std={"a": 1.0, "b": 2.0, "y": 1.0},
            roles={"a": "feature", "b": "feature", "y": "target"},
        )
        cov = scm.implied_covariance()
        assert np.allclose(cov, np.diag([s ** 2 for s in (1.0, 2.0, 1.0)][: len(scm.nodes)])[
            np.ix_(range(3), range(3))
        ]) or np.allclose(cov - np.diag(np.diag(cov)), 0.0)
        ib = scm.nodes.index("b")
        assert cov[ib, ib] == pytest.approx(4.0)


class TestSampling:
    def test_seed_determinism(self):
        scm = _chain()
        d1, t1 = sample_scm(scm, n=100, seed=7)
        d2, t2 = sample_scm(scm, n=100, seed=7)
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(t1.values, t2.values)

    def test_different_seeds_differ(self):
        scm = _chain()
        d1, _ = sample_scm(scm, n=100, seed=1)
        d2, _ = sample_scm(scm, n=100, seed=2)
        assert not np.array_equal(d1.values, d2.values)


def _reference_sample(scm, n, seed=0, include_observed=False):
    """The sampler as it was before it computed in place: one array per
    node, a new array per operation and a stacked copy of the columns."""
    rng = np.random.default_rng(seed)
    values = {}
    for node in scm.nodes:
        total = scm.noise_std[node] * rng.standard_normal(n)
        for (parent, child), coeff in sorted(scm.edges.items()):
            if child == node:
                total = total + coeff * values[parent]
        values[node] = total
    columns = scm.data_columns(include_observed)
    return np.column_stack([values[c] for c in columns]), columns, values[scm.supervision_node]


def _assert_same_as_reference(scm, n, seed, include_observed):
    data, target = sample_scm(scm, n, seed, include_observed)
    values, columns, supervision = _reference_sample(scm, n, seed, include_observed)
    assert data.column_names == columns
    assert np.array_equal(data.values, values) and np.array_equal(target.values, supervision)


@st.composite
def _linear_scms(draw):
    """A random DAG over up to seven nodes, listed in a shuffled order:
    zero noise scales, latent nodes with and without children, and
    observed nodes the default columns leave out."""
    k = draw(st.integers(2, 7))
    names = [f"v{i}" for i in range(k)]
    edges = {}
    for i in range(k):
        for j in range(i + 1, k):
            if draw(st.booleans()):
                edges[(names[i], names[j])] = draw(st.sampled_from([-1.5, -0.5, 0.25, 1.0, 2.0]))
    roles = {name: draw(st.sampled_from(["feature", "observed", "latent"])) for name in names}
    roles[names[draw(st.integers(0, k - 1))]] = draw(st.sampled_from(["target", "label"]))
    first = next(name for name in names if roles[name] not in ("target", "label"))
    roles[first] = "feature"  # at least one data column
    return LinearSCM(
        nodes=tuple(draw(st.permutations(names))),
        edges=edges,
        noise_std={name: draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])) for name in names},
        roles=roles,
    )


class TestSamplingBitIdentity:
    """In-place sampling draws the same numbers in the same order and does
    the same arithmetic as one array per node, so its output is equal."""

    @pytest.mark.parametrize("include_observed", [False, True])
    def test_biomarker(self, include_observed):
        _assert_same_as_reference(biomarker_scm(), 1000, 3, include_observed)

    def test_census(self):
        _assert_same_as_reference(census_scm(), 1000, 5, False)

    def test_latent_nodes_with_and_without_children(self):
        scm = LinearSCM(
            nodes=("h", "a", "b", "g", "y"),
            edges={("h", "a"): 2.0, ("h", "b"): -1.0, ("a", "y"): 0.5, ("b", "y"): 1.0},
            noise_std={"h": 1.0, "a": 0.0, "b": 1.0, "g": 1.0, "y": 0.0},
            roles={"h": "latent", "a": "feature", "b": "observed", "g": "latent", "y": "target"},
        )
        for include_observed in (False, True):
            _assert_same_as_reference(scm, 500, 11, include_observed)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(scm=_linear_scms(), seed=st.integers(0, 2**32 - 1), include_observed=st.booleans())
    def test_random_linear_scms(self, scm, seed, include_observed):
        _assert_same_as_reference(scm, 50, seed, include_observed)

    # one row short of a block, one block, one row past it, and three
    # blocks and a row: the edges of the sampler's row blocks
    @pytest.mark.parametrize("n", [MOMENT_BLOCK_ROWS - 1, MOMENT_BLOCK_ROWS, MOMENT_BLOCK_ROWS + 1,
                                   3 * MOMENT_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("scm", [biomarker_scm, census_scm])
    @pytest.mark.parametrize("include_observed", [False, True])
    def test_block_edges(self, n, scm, include_observed):
        _assert_same_as_reference(scm(), n, 13, include_observed)

    def test_overflow_names_the_reference_node(self):
        # b = 5e307 a overflows only where |a| > 3.6, first in a later
        # block; c = 1e308 a + noise overflows in the first block too.
        # The first node in order whose reference values overflow is named
        n, seed = 3 * MOMENT_BLOCK_ROWS + 1, 36
        scm = LinearSCM(
            nodes=("a", "b", "c", "y"),
            edges={("a", "b"): 5e307, ("a", "c"): 1e308, ("b", "y"): 1.0},
            noise_std={"a": 1.0, "b": 0.0, "c": 1.0, "y": 1.0},
            roles={"a": "feature", "b": "feature", "c": "feature", "y": "target"},
        )
        with np.errstate(over="ignore", invalid="ignore"):
            values, columns, _ = _reference_sample(scm, n, seed)
        finite = np.isfinite(values)
        assert np.flatnonzero(~finite[:, 1])[0] >= MOMENT_BLOCK_ROWS and not finite[:MOMENT_BLOCK_ROWS, 2].all()
        first = columns[np.flatnonzero(~finite.all(axis=0))[0]]
        with pytest.raises(DimensionMismatch, match=rf"^the sampled values of node '{first}' overflow float64$"):
            sample_scm(scm, n, seed)


def test_sampling_holds_each_node_once():
    # one array per node, the temporaries of each operation and a stacked
    # copy of the columns made the peak about 9.8 n doubles here; computed
    # in place into one output matrix, about 5.4 (three data columns, the
    # label, the node being computed and one temporary). Drawn in row
    # blocks straight into the columns it is about 4.05: the three data
    # columns and the label. In a process's first draw, which imports
    # numpy.random, its module state adds 0.43
    n = 200_000
    tracemalloc.start()
    try:
        sample_scm(biomarker_scm(), n, seed=0, include_observed=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.75 * n * 8


class TestBiomarkerScm:
    def test_default_columns_are_exactly_b_and_c(self):
        scm = biomarker_scm()
        data, _ = sample_scm(scm, n=100, seed=0)
        assert set(data.column_names) == {"B", "C"}

    def test_include_observed_adds_psa(self):
        scm = biomarker_scm()
        data, _ = sample_scm(scm, n=100, seed=0, include_observed=True)
        assert set(data.column_names) == {"B", "C", "P"}
        assert "Y" not in data.column_names and "L" not in data.column_names

    def test_c_p_correlation(self):
        # P = C + noise with unit variances: corr(C, P) = 1/sqrt(2)
        data, _ = sample_scm(biomarker_scm(), n=50000, seed=3, include_observed=True)
        c = data.values[:, data.index_of("C")]
        p = data.values[:, data.index_of("P")]
        assert np.corrcoef(c, p)[0, 1] == pytest.approx(1.0 / np.sqrt(2.0), abs=0.02)

    def test_cycling_correlates_with_label(self):
        data, target = sample_scm(biomarker_scm(), n=50000, seed=4)
        c = data.values[:, data.index_of("C")]
        assert np.corrcoef(c, target.values)[0, 1] > 0.2

    def test_model_feature_indices_exclude_observed(self):
        scm = biomarker_scm()
        cols = scm.data_columns(include_observed=True)
        support = scm.model_feature_indices(include_observed=True)
        assert {cols[i] for i in support} == {"B", "C"}


class TestCensusScm:
    def test_structure(self):
        edges = census_scm().edges
        for root, mediators in CENSUS_MEDIATORS.items():
            for m in mediators:
                assert (root, m) in edges
                assert (m, "income") in edges
        assert ("race", "income") in edges
        assert ("sex", "income") in edges
        assert ("age", "income") not in edges

    def test_age_weight_vanishes_in_full_ols(self):
        from dedact.core import fit_ols

        scm = census_scm()
        data, target = sample_scm(scm, n=100000, seed=5)
        pred = fit_ols(data, target)
        w_age = pred.weights[data.index_of("age")]
        assert abs(w_age) < 0.02

    def test_income_is_the_target(self):
        scm = census_scm()
        assert scm.supervision_node == "income"
        assert "income" not in scm.data_columns()


class TestDSeparation:
    def test_biomarker_examples(self):
        scm = biomarker_scm()
        # P and B are marginally independent
        assert d_separated(scm, "P", None, "B")
        # conditioning on the collider L opens the path
        assert not d_separated(scm, "P", "L", "B")
        # C reaches L only through P
        assert d_separated(scm, "C", "P", "L")
        assert not d_separated(scm, "C", None, "L")

    def test_census_mediator_blocking(self):
        scm = census_scm()
        assert d_separated(scm, "age", CENSUS_MEDIATORS["age"], "income")
        assert not d_separated(scm, "age", None, "income")
        # race has a direct edge: no mediator set blocks it
        assert not d_separated(scm, "race", CENSUS_MEDIATORS["race"], "income")

    def test_agrees_with_partial_correlation(self):
        scm = biomarker_scm()
        nodes = list(scm.nodes)
        cov = scm.implied_covariance()

        def partial_corr(x, y, given):
            idx = [nodes.index(x), nodes.index(y)] + [nodes.index(g) for g in given]
            sub = cov[np.ix_(idx, idx)]
            prec = np.linalg.inv(sub + 1e-12 * np.eye(len(idx)))
            return -prec[0, 1] / np.sqrt(prec[0, 0] * prec[1, 1])

        cases = [("P", "B", []), ("C", "L", ["P"]), ("C", "L", []), ("B", "L", [])]
        for x, y, given in cases:
            sep = d_separated(scm, x, given or None, y)
            rho = partial_corr(x, y, given)
            if sep:
                assert abs(rho) < 1e-10
            else:
                assert abs(rho) > 0.05

    @pytest.mark.parametrize("j,c,y,error,named", [
        ("Q", None, "B", DimensionMismatch, "'Q' not among the SCM's nodes"),
        ("P", ["C", "Z"], "B", DimensionMismatch, "'Z' not among the SCM's nodes"),
        ("P", "P", "B", DisjointnessViolation, "j, c and y overlap in 'P'"),
        (["P", "C"], None, ["C", "B"], DisjointnessViolation, "j, c and y overlap in 'C'"),
        ("P", "B", ["L", "B"], DisjointnessViolation, "j, c and y overlap in 'B'"),
    ], ids=["unknown-j", "unknown-in-c", "j-in-c", "j-in-y", "c-in-y"])
    def test_bad_sets_raise_package_errors(self, j, c, y, error, named):
        with pytest.raises(error, match=f"^d_separated: {named}$"):
            d_separated(biomarker_scm(), j, c, y)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_networkx(self, data):
        # random DAGs of up to 8 nodes with latent nodes and zero-coefficient
        # edges, and random disjoint triples in every argument form
        import networkx as nx

        n = data.draw(st.integers(2, 8))
        names = data.draw(st.permutations([f"v{i}" for i in range(n)]))  # topological, listed shuffled
        order = sorted(names, key=lambda name: int(name[1:]))
        pairs = [(a, b) for i, a in enumerate(order) for b in order[i + 1:]]
        edges = {pair: data.draw(st.sampled_from([0.0, 1.0, -0.5])) for pair in pairs if data.draw(st.booleans())}
        roles = {name: data.draw(st.sampled_from(["feature", "observed", "latent"])) for name in names}
        roles[data.draw(st.sampled_from(names))] = "target"
        scm = LinearSCM(nodes=tuple(names), edges=edges, noise_std=dict.fromkeys(names, 1.0), roles=roles)
        part = {name: data.draw(st.sampled_from("jcy-")) for name in names}
        j, c, y = ([name for name in names if part[name] == key] for key in "jcy")
        graph = nx.DiGraph(list(edges))
        graph.add_nodes_from(names)
        expected = nx.is_d_separator(graph, set(j), set(y), set(c))

        def form(nodes, none_if_empty=False):
            if len(nodes) == 1 and data.draw(st.booleans()):
                return nodes[0]
            return None if none_if_empty and not nodes and data.draw(st.booleans()) else nodes

        assert d_separated(scm, form(j), form(c, none_if_empty=True), form(y)) == expected

    @pytest.mark.parametrize("scm,include_observed", [
        (biomarker_scm(), True), (biomarker_scm(), False), (census_scm(), True), (census_scm(), False),
    ], ids=["biomarker-observed", "biomarker", "census-observed", "census"])
    def test_criterion_2_pairs_match_networkx(self, scm, include_observed):
        # the singleton-J, context-size <= 3 pairs the acceptance test of
        # criterion 2 picks
        import networkx as nx

        graph = nx.DiGraph(list(scm.edges))
        graph.add_nodes_from(scm.nodes)
        columns = scm.data_columns(include_observed)
        y = scm.supervision_node
        ours, theirs = [], []
        for j in columns:
            others = [col for col in columns if col != j]
            for size in range(4):
                for ctx in itertools.combinations(others, size):
                    if d_separated(scm, j, list(ctx) or None, y):
                        ours.append((j, ctx))
                    if nx.is_d_separator(graph, {j}, {y}, set(ctx)):
                        theirs.append((j, ctx))
        assert ours == theirs


class TestConfigRoundTrip:
    def test_round_trip_preserves_everything(self):
        for scm in (biomarker_scm(), census_scm(), _chain()):
            clone = LinearSCM.from_config(scm.to_config())
            assert clone.nodes == scm.nodes
            assert clone.edges == scm.edges
            assert clone.noise_std == scm.noise_std
            assert clone.roles == scm.roles
            d1, t1 = sample_scm(scm, n=50, seed=9)
            d2, t2 = sample_scm(clone, n=50, seed=9)
            assert np.array_equal(d1.values, d2.values)
            assert np.array_equal(t1.values, t2.values)
