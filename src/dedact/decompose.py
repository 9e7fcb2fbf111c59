"""Decomposition of importance scores into per-source / per-pathway parts.

Two routes: the fast decomposition (one extra measure evaluation per
component, sensitive but not additive) and the Shapley decomposition
(additive and axiom-fair, exponentially many coalitions unless orders
are sampled). Both hand the evaluator one measure over many `aux` sets
in one `evaluate` call (see "Games" in `dedact.importance`): a fast
table all its components (a fast SAGE table those of one context), a
Shapley decomposition's game every coalition a solver asks for.

A SAGE table pools the rows of `dedact.importance.sage_loop`, one per
context: j's surplus AI(j | C), then one contribution per pathway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Callable, Optional

import numpy as np

from .core import FeatureIndexSet, ImportanceEstimate, derive_seed
from .errors import DimensionMismatch, TooManyPlayers
from .importance import ImportanceEvaluator, MeasureBatch, _mask, _mask_array, check_orders, sage_loop

EXACT_SOLVER_MAX_PLAYERS = 15
AUTO_EXACT_THRESHOLD = 8
SOLVERS = ("auto", "exact", "sampled")


class CooperativeGame:
    """Coalition value function with a consistent evaluation cache, keyed
    by the coalition's bitmask (bit p set when player p is in it)."""

    def __init__(self, n_players: int, value_fn: Callable[[frozenset], float]):
        if n_players < 1:
            raise DimensionMismatch("need at least one player")
        self.n_players = n_players
        self._value_fn = value_fn
        self.cache: dict[int, float] = {}

    def value(self, coalition) -> float:
        coalition = frozenset(coalition)
        if any(p < 0 or p >= self.n_players for p in coalition):
            raise DimensionMismatch(f"coalition {sorted(coalition)} out of range")
        return self.values([sum(1 << p for p in coalition)])[0]

    def values(self, masks) -> list[float]:
        """Values of the coalitions given as bitmasks, in order; those not
        yet cached are valued together, each once."""
        missing = [mask for mask in dict.fromkeys(masks) if mask not in self.cache]
        if any(mask < 0 or mask >> self.n_players for mask in missing):
            raise DimensionMismatch(f"coalition mask out of range for {self.n_players} players")
        if missing:
            self.cache.update(zip(missing, map(float, self._value_masks(missing))))
        return [self.cache[mask] for mask in masks]

    def _value_masks(self, masks: list[int]) -> list[float]:
        players = range(self.n_players)
        return [self._value_fn(frozenset(p for p in players if mask >> p & 1)) for mask in masks]


class _MeasureGame(CooperativeGame):
    """The game of one measure's `aux` set: player p brings column
    `columns[p]`, and a coalition's value is the estimate with those
    columns as aux. All coalitions valued together take one `evaluate`
    call, a `MeasureBatch`."""

    def __init__(self, ev: ImportanceEvaluator, spec, columns: list[int]):
        FeatureIndexSet.of(columns).validate_within(ev.data.n_cols)
        super().__init__(len(columns), None)
        self._ev, self._spec = ev, spec
        self._column_bits = _mask_array([1 << c for c in columns], ev.data.n_cols)

    def _value_masks(self, masks: list[int]) -> list[float]:
        players = _mask_array(masks, self.n_players)[:, None] >> np.arange(self.n_players) & 1
        auxes = tuple(np.bitwise_or.reduce(players * self._column_bits, axis=1).tolist())
        return [est.value for est in self._ev.evaluate(MeasureBatch(self._spec, auxes))]


def _by_aux(ev: ImportanceEvaluator, spec, aux_sets) -> list[ImportanceEstimate]:
    """The estimates of spec with each column set of aux_sets as its aux,
    in order, from one `evaluate` call."""
    return ev.evaluate(MeasureBatch(spec, tuple(_mask(FeatureIndexSet.of(cols)) for cols in aux_sets)))


@dataclass(frozen=True)
class ShapleyResult:
    attributions: np.ndarray
    std_errors: np.ndarray
    n_orders_used: Optional[int]
    solver: str


def shapley_exact(game: CooperativeGame) -> ShapleyResult:
    """Exact Shapley attributions over all 2^n coalitions.

    All 2^n coalitions are valued in one `game.values` call (one
    `evaluate` call for a measure's game), into an array indexed by
    bitmask; player i's attribution is then the weighted sum of
    `v(S | i) - v(S)` over the masks S without i, with weight
    `1 / (n * C(n - 1, |S|))`.

    The standard errors are 0: the solver adds no sampling noise. They
    do not cover the Monte-Carlo noise of the coalition values
    themselves (an `original_f` value is a mean over n_mc repetitions).
    """
    n = game.n_players
    if n > EXACT_SOLVER_MAX_PLAYERS:
        raise TooManyPlayers(f"{n} players exceeds exact-solver limit {EXACT_SOLVER_MAX_PLAYERS}")
    masks = np.arange(1 << n)
    values = np.array(game.values(range(1 << n)))
    sizes = np.zeros(1 << n, dtype=int)
    for p in range(n):
        sizes += masks >> p & 1
    weights = np.array([1.0 / (n * comb(n - 1, size)) for size in range(n)])
    phi = np.empty(n)
    for i in range(n):
        without = masks[(masks >> i & 1) == 0]
        phi[i] = weights[sizes[without]] @ (values[without | 1 << i] - values[without])
    return ShapleyResult(phi, np.zeros(n), None, "exact")


def shapley_sampled(game: CooperativeGame, n_orders: int, seed: int = 0) -> ShapleyResult:
    """Shapley estimate from uniformly random player orders.

    All orders are drawn first; every prefix of every order is then
    valued in one `game.values` call (one `evaluate` call for a
    measure's game). The empirical mean satisfies efficiency exactly
    because every order telescopes to value(full) - value(empty). The
    standard errors are the spread of each player's contributions over
    the orders: they cover order sampling only, not the Monte-Carlo
    noise of the coalition values themselves (an `original_f` value is
    a mean over n_mc repetitions), which every order shares through the
    game's cache.
    """
    check_orders(n_orders, "n_orders")
    n = game.n_players
    rng = np.random.default_rng(seed)
    perms = [[int(p) for p in rng.permutation(n)] for _ in range(n_orders)]
    chains = []  # per order: the bitmasks of its prefixes, empty to full
    for perm in perms:
        chain = [0]
        for player in perm:
            chain.append(chain[-1] | 1 << player)
        chains.append(chain)
    values = game.values([mask for chain in chains for mask in chain])
    contribs = np.empty((n_orders, n))
    for o, perm in enumerate(perms):
        v = values[o * (n + 1):(o + 1) * (n + 1)]
        for k, player in enumerate(perm):
            contribs[o, player] = v[k + 1] - v[k]
    phi = contribs.mean(axis=0)
    if n_orders > 1:
        se = contribs.std(axis=0, ddof=1) / np.sqrt(n_orders)
    else:
        se = np.zeros(n)
    return ShapleyResult(phi, se, n_orders, "sampled")


def solve_game(game: CooperativeGame, solver: str = "auto", n_orders: int = 50, seed: int = 0) -> ShapleyResult:
    if solver == "auto":
        solver = "exact" if game.n_players <= AUTO_EXACT_THRESHOLD else "sampled"
    if solver == "exact":
        return shapley_exact(game)
    if solver == "sampled":
        return shapley_sampled(game, n_orders, seed)
    raise DimensionMismatch(f"unknown solver {solver!r}")


@dataclass
class DecompositionTable:
    """Per-target row: total importance, per-source components, remainder."""

    target_label: str
    total: ImportanceEstimate
    components: dict[str, tuple[float, float]]
    method: str
    order_log: list = field(default_factory=list)
    per_context: list = field(default_factory=list)

    @property
    def remainder(self) -> float:
        return self.total.value - sum(v for v, _ in self.components.values())

    @property
    def combined_std_error(self) -> float:
        return float(np.sqrt(self.total.std_error ** 2 + sum(se ** 2 for _, se in self.components.values())))

    def as_dict(self) -> dict:
        return {
            "target": self.target_label,
            "method": self.method,
            "total": self.total.value,
            "total_se": self.total.std_error,
            "components": {k: {"value": v, "se": se} for k, (v, se) in self.components.items()},
            "remainder": self.remainder,
        }


# -- PFI decompositions ----------------------------------------------------


def fast_decompose_pfi(
    ev: ImportanceEvaluator, k: int, sources: Optional[list[int]] = None,
    n_mc: Optional[int] = None, seed: Optional[int] = None,
) -> DecompositionTable:
    """One DI-from evaluation per information source, all in one batch."""
    seed = ev.seed if seed is None else seed
    d = ev.data.n_cols
    sources = list(range(d)) if sources is None else list(sources)
    baseline = [c for c in range(d) if c != k]
    total = ev.pfi(k, n_mc=n_mc, seed=seed)
    ests = _by_aux(ev, ev._spec("DI_from", [k], baseline, n_mc=n_mc, seed=seed), [[j] for j in sources])
    components = {ev.data.column_names[j]: (est.value, est.std_error) for j, est in zip(sources, ests)}
    return DecompositionTable(ev.data.column_names[k], total, components, "fast")


def fast_decompose_pfi_ordered(
    ev: ImportanceEvaluator, k: int, order: list[int],
    n_mc: Optional[int] = None, seed: Optional[int] = None,
) -> DecompositionTable:
    """Additive, order-dependent variant: telescoping DI-from prefixes, all
    in one batch."""
    seed = ev.seed if seed is None else seed
    d = ev.data.n_cols
    baseline = [c for c in range(d) if c != k]
    total = ev.pfi(k, n_mc=n_mc, seed=seed)
    prefixes = [order[: i + 1] for i in range(len(order))]
    ests = _by_aux(ev, ev._spec("DI_from", [k], baseline, n_mc=n_mc, seed=seed), prefixes)
    components = {}
    prev_value, prev_se = 0.0, 0.0
    for j, est in zip(order, ests):
        components[ev.data.column_names[j]] = (
            est.value - prev_value,
            float(np.hypot(est.std_error, prev_se)),
        )
        prev_value, prev_se = est.value, est.std_error
    return DecompositionTable(
        ev.data.column_names[k], total, components, "fast_ordered", order_log=[list(order)]
    )


def shapley_decompose_pfi(
    ev: ImportanceEvaluator, k: int, players: Optional[list[int]] = None,
    solver: str = "auto", n_orders: int = 50,
    n_mc: Optional[int] = None, seed: Optional[int] = None,
) -> DecompositionTable:
    """Additive attribution of PFI over variable-players via DI-from games."""
    seed = ev.seed if seed is None else seed
    d = ev.data.n_cols
    players = list(range(d)) if players is None else list(players)
    baseline = [c for c in range(d) if c != k]
    game_seed = derive_seed(seed, 41)
    game = _MeasureGame(ev, ev._spec("DI_from", [k], baseline, n_mc=n_mc, seed=game_seed), players)
    result = solve_game(game, solver, n_orders, derive_seed(seed, 42))
    total = ev.pfi(k, n_mc=n_mc, seed=game_seed)
    components = {
        ev.data.column_names[players[p]]: (float(result.attributions[p]), float(result.std_errors[p]))
        for p in range(len(players))
    }
    return DecompositionTable(
        ev.data.column_names[k], total, components, f"shapley_{result.solver}"
    )


# -- AI and SAGE decompositions ----------------------------------------------


def fast_decompose_ai(
    ev: ImportanceEvaluator, j: int, pathways: Optional[list[int]] = None,
    n_mc: Optional[int] = None, seed: Optional[int] = None,
) -> DecompositionTable:
    """Total AI(j | {}) and one AI-via evaluation per feature pathway, all
    in one batch."""
    seed = ev.seed if seed is None else seed
    pathways = list(range(ev.data.n_cols)) if pathways is None else list(pathways)
    total = ev.associative_importance([j], [], n_mc=n_mc, seed=seed)
    ests = _by_aux(ev, ev._spec("AI_via", [j], [], n_mc=n_mc, seed=seed), [[k] for k in pathways])
    components = {ev.data.column_names[k]: (est.value, est.std_error) for k, est in zip(pathways, ests)}
    return DecompositionTable(ev.data.column_names[j], total, components, "fast")


def _sage_table(ev: ImportanceEvaluator, j: int, pathways: list[int], contexts: list[list[int]],
                pooled: list, method: str, seed: int, per_context=()) -> DecompositionTable:
    """The context loop's pooled columns as a table: the total, then one
    component per pathway."""
    sets = {"measure": "SAGE", "interest": (j,), "n_orders": len(contexts)}
    total = ImportanceEstimate(*pooled[0], len(contexts), "marginalized", sets, seed)
    components = {ev.data.column_names[k]: pooled[p] for p, k in enumerate(pathways, 1)}
    return DecompositionTable(
        ev.data.column_names[j], total, components, method,
        order_log=[list(c) for c in contexts], per_context=list(per_context),
    )


def fast_decompose_sage(
    ev: ImportanceEvaluator, j: int, pathways: Optional[list[int]] = None,
    n_orders: int = 25, n_mc: Optional[int] = None, seed: Optional[int] = None,
) -> DecompositionTable:
    """Per-pathway surplus components averaged over sampled SAGE orders.

    Interaction contributions are attributed to every partaking pathway,
    so components may over-add; the remainder is reported, not hidden.
    A context's blocked-pathway evaluations are one batch.
    """
    seed = ev.seed if seed is None else seed
    d = ev.data.n_cols
    pathways = list(range(d)) if pathways is None else list(pathways)
    blocked = [[c for c in range(d) if c != k] for k in pathways]

    def contributions(o, context):
        seed_o = derive_seed(seed, 811, o)
        alpha = ev.associative_importance([j], context, mode="marginalized", n_mc=n_mc, seed=seed_o).value
        vias = _by_aux(ev, ev._spec("AI_via", [j], context, mode="marginalized", n_mc=n_mc, seed=seed_o), blocked)
        return [alpha, *(alpha - via.value for via in vias)]

    contexts, _, pooled = sage_loop(d, j, n_orders, seed, "n_orders", contributions)
    return _sage_table(ev, j, pathways, contexts, pooled, "fast", seed)


def shapley_decompose_sage(
    ev: ImportanceEvaluator, j: int, pathways: Optional[list[int]] = None,
    solver: str = "auto", n_sage_orders: int = 60, n_decomp_orders: int = 25,
    n_mc: Optional[int] = None, seed: Optional[int] = None,
) -> DecompositionTable:
    """Pathway games per SAGE context, Shapley-solved and pooled: each
    context's game is one `evaluate` call under either solver. A context's
    total is j's surplus AI(j | context): the game's grand coalition when the
    pathways cover every column, else one more evaluation at the game's
    seed, so the remainder holds the excluded pathways' share."""
    seed = ev.seed if seed is None else seed
    d = ev.data.n_cols
    pathways = list(range(d)) if pathways is None else list(pathways)
    every_column = set(pathways) == set(range(d))
    solved = []

    def attributions(o, context):
        spec = ev._spec("AI_via", [j], context, mode="marginalized", n_mc=n_mc, seed=derive_seed(seed, 813, o))
        game = _MeasureGame(ev, spec, pathways)
        solved.append(solve_game(game, solver, n_decomp_orders, derive_seed(seed, 814, o)))
        alpha = (game.value(range(len(pathways))) if every_column
                 else ev.associative_importance([j], context, mode="marginalized", n_mc=n_mc, seed=spec.seed).value)
        return [alpha, *solved[-1].attributions]

    contexts, rows, pooled = sage_loop(d, j, n_sage_orders, seed, "n_sage_orders", attributions)
    per_context = [{"context": c, "alpha": float(row[0]), "phi": row[1:].tolist()} for c, row in zip(contexts, rows)]
    return _sage_table(ev, j, pathways, contexts, pooled, f"shapley_{solved[-1].solver}", seed, per_context)
