"""Linear-Gaussian structural causal models with ground-truth graphs.

Node roles: `feature` columns are both emitted in the data and meant as
model inputs; `observed` columns are emitted but not model inputs (they
exist so leakage through unused variables can be measured); `target` /
`label` is the single supervision node; `latent` nodes never leave the
simulator.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .core import MOMENT_BLOCK_ROWS, DataMatrix, FeatureIndexSet, TargetVector
from .errors import ConfigError, CyclicGraph, DimensionMismatch, DisjointnessViolation, ParseError

ROLES = ("feature", "observed", "target", "label", "latent")


def _topological_order(nodes: tuple[str, ...], edges) -> tuple[str, ...]:
    """Kahn's algorithm that always emits the ready node listed first, so
    an order that is already topological is kept as it is."""
    index = {n: i for i, n in enumerate(nodes)}
    children: dict[str, list[str]] = {n: [] for n in nodes}
    in_degree = dict.fromkeys(nodes, 0)
    for parent, child in edges:
        children[parent].append(child)
        in_degree[child] += 1
    ready = [index[n] for n in nodes if in_degree[n] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        node = nodes[heapq.heappop(ready)]
        order.append(node)
        for child in children[node]:
            in_degree[child] -= 1
            if in_degree[child] == 0:
                heapq.heappush(ready, index[child])
    if len(order) != len(nodes):
        raise CyclicGraph("edge set contains a cycle")
    return tuple(order)


@dataclass(frozen=True)
class LinearSCM:
    nodes: tuple[str, ...]
    edges: dict[tuple[str, str], float]
    noise_std: dict[str, float]
    roles: dict[str, str]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        names = set(self.nodes)
        if len(names) != len(self.nodes):
            raise DimensionMismatch("duplicate node names")
        for (parent, child) in self.edges:
            if parent not in names or child not in names:
                raise DimensionMismatch(f"edge ({parent}, {child}) references unknown node")
        for node in self.nodes:
            if node not in self.noise_std or self.noise_std[node] < 0:
                raise DimensionMismatch(f"missing or negative noise_std for {node}")
            if self.roles.get(node) not in ROLES:
                raise DimensionMismatch(f"missing or unknown role for {node}")
        supervision = [n for n in self.nodes if self.roles[n] in ("target", "label")]
        if len(supervision) != 1:
            raise DimensionMismatch("exactly one node must have role target or label")
        # node order must be (or be reordered to) a topological order
        object.__setattr__(self, "nodes", _topological_order(self.nodes, self.edges))

    @property
    def supervision_node(self) -> str:
        return next(n for n in self.nodes if self.roles[n] in ("target", "label"))

    def data_columns(self, include_observed: bool = False) -> tuple[str, ...]:
        """Names of the nodes emitted as DataMatrix columns.

        By default only feature-role nodes are emitted. Passing
        `include_observed=True` appends observed-role nodes, which lets
        variable-level measures see quantities the model never reads.
        """
        allowed = ("feature", "observed") if include_observed else ("feature",)
        return tuple(n for n in self.nodes if self.roles[n] in allowed)

    def model_feature_indices(self, include_observed: bool = False) -> FeatureIndexSet:
        """Positions (within the emitted columns) the model may read."""
        cols = self.data_columns(include_observed)
        return FeatureIndexSet.of(i for i, n in enumerate(cols) if self.roles[n] == "feature")

    def adjacency(self) -> np.ndarray:
        """A[i, j] = coefficient of edge nodes[j] -> nodes[i]."""
        index = {n: i for i, n in enumerate(self.nodes)}
        a = np.zeros((len(self.nodes), len(self.nodes)))
        for (parent, child), coeff in self.edges.items():
            a[index[child], index[parent]] = coeff
        return a

    def implied_covariance(self) -> np.ndarray:
        """(I - A)^-1 D (I - A)^-T over all nodes, in node order."""
        a = self.adjacency()
        d = np.diag([self.noise_std[n] ** 2 for n in self.nodes])
        inv = np.linalg.inv(np.eye(len(self.nodes)) - a)
        return inv @ d @ inv.T

    def implied_data_covariance(self, include_observed: bool = False) -> np.ndarray:
        """Implied covariance restricted to the emitted data columns."""
        idx = [self.nodes.index(n) for n in self.data_columns(include_observed)]
        return self.implied_covariance()[np.ix_(idx, idx)]

    def to_config(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "edges": [{"parent": p, "child": c, "coefficient": w} for (p, c), w in sorted(self.edges.items())],
            "noise_std": dict(self.noise_std),
            "roles": dict(self.roles),
        }

    @classmethod
    def from_config(cls, config: dict) -> "LinearSCM":
        """The inverse of `to_config()`. A config that does not follow its
        schema raises ParseError naming the key, as does an entry that would
        be dropped unread: an unknown key (of the config or of an edge), an
        edge listed twice, or a name in `noise_std` or `roles` that is no
        node."""
        if not isinstance(config, dict):
            raise ParseError(f"an SCM config must be a mapping, got {config!r}")
        unknown = [key for key in config if key not in ("nodes", "edges", "noise_std", "roles")]
        if unknown:
            raise ParseError(f"unknown key {unknown[0]!r}; the keys are 'nodes', 'edges', 'noise_std' and 'roles'")
        nodes = _schema_key(config, "nodes", list)
        if not all(isinstance(node, str) for node in nodes):
            raise ParseError(f"'nodes' must be a list of names, got {nodes!r}")
        edges = {}
        for edge in _schema_key(config, "edges", list):
            if not (isinstance(edge, dict) and isinstance(edge.get("parent"), str)
                    and isinstance(edge.get("child"), str) and _is_real(edge.get("coefficient"))):
                raise ParseError(f"each of 'edges' needs a 'parent' and a 'child' name and a"
                                 f" real 'coefficient', got {edge!r}")
            stray = [key for key in edge if key not in ("parent", "child", "coefficient")]
            if stray:
                raise ParseError(f"unknown key {stray[0]!r} in the edge {edge['parent']!r} -> {edge['child']!r};"
                                 f" an edge's keys are 'parent', 'child' and 'coefficient'")
            if (edge["parent"], edge["child"]) in edges:
                raise ParseError(f"'edges' lists {edge['parent']!r} -> {edge['child']!r} twice")
            edges[(edge["parent"], edge["child"])] = float(edge["coefficient"])
        noise_std = _schema_key(config, "noise_std", dict)
        if not all(_is_real(v) for v in noise_std.values()):
            raise ParseError(f"'noise_std' must map nodes to reals, got {noise_std!r}")
        roles = _schema_key(config, "roles", dict)
        for key in ("noise_std", "roles"):
            stray = [name for name in config[key] if name not in nodes]
            if stray:
                raise ParseError(f"{key!r} names {stray[0]!r}, which is not in 'nodes'")
        return cls(
            nodes=tuple(nodes),
            edges=edges,
            noise_std={k: float(v) for k, v in noise_std.items()},
            roles=dict(roles),
        )


def _schema_key(config: dict, key: str, kind: type):
    if not isinstance(config.get(key), kind):
        raise ParseError(f"{key!r} must be a {kind.__name__}, got {config.get(key)!r}")
    return config[key]


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def sample_scm(
    scm: LinearSCM, n: int, seed: int = 0, include_observed: bool = False
) -> tuple[DataMatrix, TargetVector]:
    """Ancestral sampling in topological order; deterministic per seed.

    The output matrix is allocated once. Each node is drawn in blocks of
    MOMENT_BLOCK_ROWS rows: a block of normals, scaled by the node's
    noise and summed with its parents' terms in sorted-edge order, is
    written straight into the node's column when it is a data column.
    Successive draws from one generator continue one stream, so the
    values are those of n normals drawn per node at once. Besides the
    matrix, only the supervision node, and a latent node some edge reads
    as a parent, get an n-vector; a latent node nothing reads is drawn
    and dropped block by block. The first node whose values overflow
    float64 raises `DimensionMismatch` naming it, and an n x d matrix
    that cannot be allocated raises `ConfigError` naming its shape.
    """
    rng = np.random.default_rng(seed)
    columns = scm.data_columns(include_observed)
    position = {name: i for i, name in enumerate(columns)}
    try:
        out = np.empty((n, len(columns)))
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's largest dimension
        raise ConfigError(f"the {n} x {len(columns)} float64 matrix cannot be allocated") from exc
    # sorted edge order keeps sampling bit-identical across
    # equivalent SCMs whose edge dicts were built in different orders
    edges = sorted(scm.edges.items())
    kept = {parent for (parent, _), _ in edges} | {scm.supervision_node}
    values = {}
    for node in scm.nodes:
        if node in position:
            values[node] = out[:, position[node]]
        elif node in kept:
            values[node] = np.empty(n)
        parents = [(coeff, values[parent]) for (parent, child), coeff in edges if child == node]
        for a in range(0, n, MOMENT_BLOCK_ROWS):
            block = rng.standard_normal(min(n - a, MOMENT_BLOCK_ROWS))
            with np.errstate(over="ignore", invalid="ignore"):
                block *= scm.noise_std[node]
                for coeff, parent in parents:
                    block += coeff * parent[a:a + len(block)]
            if not np.isfinite(block).all():
                raise DimensionMismatch(f"the sampled values of node {node!r} overflow float64")
            if node in values:
                values[node][a:a + len(block)] = block
    return DataMatrix(out, columns), TargetVector(values[scm.supervision_node])


def d_separated(scm: LinearSCM, j, c, y) -> bool:
    """True iff every path between j and y is blocked given c. Decided on
    the moralized ancestral graph (Lauritzen, Dawid, Larsen & Leimer 1990,
    "Independence properties of directed Markov fields"): keep the
    ancestors of j, c and y, link each node to its parents and marry
    co-parents, all undirected, delete c, and search from j; the sets are
    separated iff the search reaches no node of y. Every key of
    `scm.edges` is an edge, one with coefficient 0.0 included. A node
    that is not in the SCM raises DimensionMismatch, and sets that
    overlap raise DisjointnessViolation."""
    j, y = ({s} if isinstance(s, str) else set(s) for s in (j, y))
    c = set() if c is None else ({c} if isinstance(c, str) else set(c))
    unknown = (j | c | y).difference(scm.nodes)
    if unknown:
        raise DimensionMismatch(f"d_separated: {', '.join(sorted(map(repr, unknown)))} not among the SCM's nodes")
    overlap = (j & c) | (j & y) | (c & y)
    if overlap:
        raise DisjointnessViolation(f"d_separated: j, c and y overlap in {', '.join(sorted(map(repr, overlap)))}")
    parents = {node: [] for node in scm.nodes}
    for parent, child in scm.edges:
        parents[child].append(parent)
    links, stack = {}, [*j, *c, *y]
    while stack:  # the ancestral set; every node's parents are in it
        node = stack.pop()
        if node not in links:
            links[node] = set()
            stack.extend(parents[node])
    for node in links:
        links[node].update(parents[node])
        for parent in parents[node]:
            links[parent].update(parents[node], [node])
    reached, stack = set(j), list(j)
    while stack:
        new = links[stack.pop()] - c - reached
        reached |= new
        stack.extend(new)
    return not reached & y


def biomarker_scm() -> LinearSCM:
    """Prostate-cancer toy system: a proxy feature leaks label bias.

    The historical label L depends on the true condition driver B and
    on P; the model only reads B and the cycling habit C, but C causes
    P, so P leaks in through C. The true condition Y equals B exactly.
    """
    return LinearSCM(
        nodes=("B", "C", "P", "Y", "L"),
        edges={("B", "Y"): 1.0, ("B", "L"): 1.0, ("P", "L"): 1.0, ("C", "P"): 1.0},
        noise_std={"B": 1.0, "C": 1.0, "P": 1.0, "Y": 0.0, "L": 1.0},
        roles={"B": "feature", "C": "feature", "P": "observed", "Y": "latent", "L": "label"},
    )


CENSUS_MEDIATORS = {
    "age": ("capital_gain", "nr_educ", "hours_pw"),
    "race": ("marriage_status", "occupation"),
    "sex": ("relationship", "work_class"),
}


def census_scm() -> LinearSCM:
    """Simulated income system with protected roots and mediators.

    age influences income only through its three mediators; race and
    sex have direct income edges in addition to their mediators.
    """
    roots = ("age", "race", "sex")
    mediators = tuple(m for ms in CENSUS_MEDIATORS.values() for m in ms)
    nodes = roots + mediators + ("income",)
    edges = {}
    for root, ms in CENSUS_MEDIATORS.items():
        for m in ms:
            edges[(root, m)] = 1.0
    for m in mediators:
        edges[(m, "income")] = 1.0
    edges[("race", "income")] = 1.0
    edges[("sex", "income")] = 1.0
    return LinearSCM(
        nodes=nodes,
        edges=edges,
        noise_std={n: 1.0 for n in nodes},
        roles={**{n: "feature" for n in roots + mediators}, "income": "target"},
    )
