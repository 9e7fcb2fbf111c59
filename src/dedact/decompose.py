"""Decomposition of importance scores into per-source / per-pathway parts.

Two routes: the fast decomposition (one extra measure evaluation per
component, sensitive but not additive) and the Shapley decomposition
(additive and axiom-fair, exponentially many coalitions unless orders
are sampled). Both hand the evaluator one measure over many `aux` sets
in one `evaluate` call (see "Games" in `dedact.importance`): a fast
table its total (its measure's mask of every column: DI and AI are
DI_from and AI_via through every column) and all its components, a fast
SAGE context its alpha and blocked pathways, a Shapley decomposition's
game every coalition a solver asks for. Totals and components are
(value, SE) pairs, and `_table` names them by their columns in every
table; both fast tables share `_fast_table`, and the three PFI tables
read the one spec of `_pfi_spec`.

Each Shapley solver builds a contribution plan: mask arrays `plus` and
`minus`, one contribution `v(plus) - v(minus)` per entry, and the exact
solver's weights. `_solve_plan` values and differences them all, then
sums each player's weighted (exact) or pools the orders (sampled).

A SAGE table pools the rows of `dedact.importance.sage_loop`, one per
context: j's surplus AI(j | C), then one contribution per pathway.
Orders and contexts pool through `dedact.importance.pool`, as a
measure's repetitions do, each column summed in index order. Under
`solver: auto`, an evaluator that solves pathway games in closed form
(`ImportanceEvaluator.solves_pathway_games`) takes every context's game
whole, as `PathwayGames` in one `evaluate` call, and no coalition is
valued.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Callable, Optional

import numpy as np

from .core import FeatureIndexSet, derive_seed
from .errors import DimensionMismatch, TooManyPlayers
from .importance import (
    ImportanceEvaluator,
    MeasureBatch,
    PathwayGames,
    _mask,
    _mask_array,
    check_orders,
    pool,
    sage_loop,
)

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
    call, a `MeasureBatch`; `grand_se` keeps the grand coalition's SE
    once it is valued."""

    def __init__(self, ev: ImportanceEvaluator, spec, columns: list[int]):
        FeatureIndexSet.of(columns).validate_within(ev.data.n_cols)
        super().__init__(len(columns), None)
        self._ev, self._spec = ev, spec
        self._column_bits = _mask_array([1 << c for c in columns], ev.data.n_cols)
        self.grand_se: float | None = None

    def _value_masks(self, masks: list[int]) -> np.ndarray:
        players = _mask_array(masks, self.n_players)[:, None] >> np.arange(self.n_players) & 1
        auxes = tuple(np.bitwise_or.reduce(players * self._column_bits, axis=1).tolist())
        value, se = self._ev.evaluate(MeasureBatch(self._spec, auxes))
        grand = (1 << self.n_players) - 1
        if grand in masks:
            self.grand_se = float(se[masks.index(grand)])
        return value


def _by_aux(ev: ImportanceEvaluator, spec, aux_sets) -> list[tuple[float, float]]:
    """The (value, SE) pairs of spec with each column set of aux_sets as
    its aux, in order, from one `evaluate` call."""
    value, se = ev.evaluate(MeasureBatch(spec, tuple(_mask(FeatureIndexSet.of(cols)) for cols in aux_sets)))
    return list(zip(value.tolist(), se.tolist()))


@dataclass(frozen=True)
class ShapleyResult:
    attributions: np.ndarray
    std_errors: np.ndarray
    solver: str


def _solve_plan(game: CooperativeGame, solver: str, plus: np.ndarray, minus: np.ndarray,
                weights: Optional[np.ndarray] = None) -> ShapleyResult:
    """Value every mask of a contribution plan in one `game.values` call
    (one `evaluate` call for a measure's game) and combine the
    contributions `v(plus) - v(minus)`. With weights, row i holds player
    i's, summed weighted, with SE 0. Without, row o holds order o's, and
    `pool` gives each player's mean over the orders and its SE."""
    values = np.array(game.values(np.stack([plus, minus]).ravel().tolist())).reshape(2, *plus.shape)
    contribs = values[0] - values[1]
    if weights is not None:  # a 1-D dot per contiguous row: a matrix product sums in another order
        phi = np.array([w @ c for w, c in zip(weights, contribs)])
        return ShapleyResult(phi, np.zeros(len(phi)), solver)
    return ShapleyResult(*pool(contribs), solver)


def shapley_exact(game: CooperativeGame) -> ShapleyResult:
    """Exact Shapley attributions over all 2^n coalitions.

    The plan's row i pairs each mask S without bit i, in ascending order,
    with `S | i`: mask k of n - 1 bits with a 0 bit inserted at position
    i. Player i's attribution is the sum of `v(S | i) - v(S)` weighted
    by `1 / (n * C(n - 1, |S|))`.

    The standard errors are 0: the solver adds no sampling noise. They
    do not cover the Monte-Carlo noise of the coalition values
    themselves (an `original_f` value is a mean over n_mc repetitions).
    """
    n = game.n_players
    if n > EXACT_SOLVER_MAX_PLAYERS:
        raise TooManyPlayers(f"{n} players exceeds exact-solver limit {EXACT_SOLVER_MAX_PLAYERS}")
    k, i = np.arange(1 << (n - 1)), np.arange(n)[:, None]
    minus = (k >> i << i + 1) | (k & (1 << i) - 1)
    sizes = (k[:, None] >> np.arange(n - 1) & 1).sum(axis=1)  # |S|, the same in every row
    weights = np.array([1.0 / (n * comb(n - 1, size)) for size in range(n)])[sizes]
    return _solve_plan(game, "exact", minus | 1 << i, minus, np.broadcast_to(weights, minus.shape))


def shapley_sampled(game: CooperativeGame, n_orders: int, seed: int = 0) -> ShapleyResult:
    """Shapley estimate from uniformly random player orders.

    In the plan's row o, player p's entry pairs the prefix of order o
    that ends with p with the same prefix without p. The empirical mean
    satisfies efficiency exactly because every order telescopes to
    value(full) - value(empty). The standard errors are the spread of
    each player's contributions over the orders: they cover order
    sampling only, not the Monte-Carlo noise of the coalition values
    themselves (an `original_f` value is a mean over n_mc repetitions),
    which every order shares through the game's cache.
    """
    check_orders(n_orders, "n_orders")
    n = game.n_players
    rng = np.random.default_rng(seed)
    perms = np.array([rng.permutation(n) for _ in range(n_orders)])
    bits = _mask_array([1 << p for p in range(n)], n)
    plus = np.empty(perms.shape, dtype=bits.dtype)
    np.put_along_axis(plus, perms, np.bitwise_or.accumulate(bits[perms], axis=1), axis=1)
    return _solve_plan(game, "sampled", plus, plus ^ bits)


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
    """Per-target row: the total and the components, (value, SE) pairs, and the remainder."""

    target_label: str
    total: tuple[float, float]
    components: dict[str, tuple[float, float]]
    method: str
    order_log: list = field(default_factory=list)
    per_context: list = field(default_factory=list)

    @property
    def remainder(self) -> float:
        return self.total[0] - sum(v for v, _ in self.components.values())

    @property
    def combined_std_error(self) -> float:
        return float(np.sqrt(self.total[1] ** 2 + sum(se ** 2 for _, se in self.components.values())))

    def as_dict(self) -> dict:
        return {
            "target": self.target_label,
            "method": self.method,
            "total": self.total[0],
            "total_se": self.total[1],
            "components": {k: {"value": v, "se": se} for k, (v, se) in self.components.items()},
            "remainder": self.remainder,
        }


def _table(ev: ImportanceEvaluator, target: int, total, columns: list[int], pairs, method: str,
           **logs) -> DecompositionTable:
    """The table of column `target`: its total and one component per column
    of `columns`, the (value, SE) pairs of `pairs` in the same order, each
    named by its column. `logs` are the order and per-context logs."""
    names = ev.data.column_names
    return DecompositionTable(names[target], total, {names[c]: pair for c, pair in zip(columns, pairs)}, method, **logs)


def _fast_table(ev: ImportanceEvaluator, target: int, spec, columns: list[int]) -> DecompositionTable:
    """A fast table from one batch: the spec with every column as its aux
    gives the total, and with each column alone that column's component."""
    total, *pairs = _by_aux(ev, spec, [range(ev.data.n_cols), *([c] for c in columns)])
    return _table(ev, target, total, columns, pairs, "fast")


def _pfi_spec(ev: ImportanceEvaluator, k: int, n_mc: Optional[int], seed: Optional[int]):
    """DI_from(k | every other column): with every column as its aux it is
    PFI, and its aux sets are the information sources."""
    return ev._spec("DI_from", [k], [c for c in range(ev.data.n_cols) if c != k], n_mc=n_mc, seed=seed)


# -- PFI decompositions ----------------------------------------------------


def fast_decompose_pfi(
    ev: ImportanceEvaluator, k: int, sources: Optional[list[int]] = None,
    n_mc: Optional[int] = None, seed: Optional[int] = None,
) -> DecompositionTable:
    """PFI (DI-from every column) and one DI-from per information source, in one batch."""
    sources = list(range(ev.data.n_cols)) if sources is None else list(sources)
    return _fast_table(ev, k, _pfi_spec(ev, k, n_mc, seed), sources)


def fast_decompose_pfi_ordered(
    ev: ImportanceEvaluator, k: int, order: list[int],
    n_mc: Optional[int] = None, seed: Optional[int] = None,
) -> DecompositionTable:
    """Additive, order-dependent variant: PFI and the telescoping DI-from
    prefixes, all in one batch."""
    prefixes = [order[: i + 1] for i in range(len(order))]
    total, *pairs = _by_aux(ev, _pfi_spec(ev, k, n_mc, seed), [range(ev.data.n_cols), *prefixes])
    steps = [(value - prev, float(np.hypot(se, prev_se)))
             for (value, se), (prev, prev_se) in zip(pairs, [(0.0, 0.0), *pairs])]
    return _table(ev, k, total, order, steps, "fast_ordered", order_log=[list(order)])


def shapley_decompose_pfi(
    ev: ImportanceEvaluator, k: int, players: Optional[list[int]] = None,
    solver: str = "auto", n_orders: int = 50,
    n_mc: Optional[int] = None, seed: Optional[int] = None,
) -> DecompositionTable:
    """Additive attribution of PFI over variable-players via DI-from games."""
    seed = ev.seed if seed is None else seed
    players = list(range(ev.data.n_cols)) if players is None else list(players)
    spec = _pfi_spec(ev, k, n_mc, derive_seed(seed, 41))
    result = solve_game(_MeasureGame(ev, spec, players), solver, n_orders, derive_seed(seed, 42))
    [total] = _by_aux(ev, spec, [range(ev.data.n_cols)])
    pairs = zip(result.attributions.tolist(), result.std_errors.tolist())
    return _table(ev, k, total, players, pairs, f"shapley_{result.solver}")


# -- AI and SAGE decompositions ----------------------------------------------


def fast_decompose_ai(
    ev: ImportanceEvaluator, j: int, pathways: Optional[list[int]] = None,
    n_mc: Optional[int] = None, seed: Optional[int] = None,
) -> DecompositionTable:
    """AI(j | {}) (AI-via every column) and one AI-via per feature pathway, in one batch."""
    pathways = list(range(ev.data.n_cols)) if pathways is None else list(pathways)
    return _fast_table(ev, j, ev._spec("AI_via", [j], [], n_mc=n_mc, seed=seed), pathways)


def fast_decompose_sage(
    ev: ImportanceEvaluator, j: int, pathways: Optional[list[int]] = None,
    n_orders: int = 25, n_mc: Optional[int] = None, seed: Optional[int] = None,
) -> DecompositionTable:
    """Per-pathway surplus components averaged over sampled SAGE orders.

    Interaction contributions are attributed to every partaking pathway,
    so components may over-add; the remainder is reported, not hidden.
    A context's alpha, AI-via every column, and its blocked-pathway
    evaluations are one batch.
    """
    seed = ev.seed if seed is None else seed
    d = ev.data.n_cols
    pathways = list(range(d)) if pathways is None else list(pathways)
    blocked = [[c for c in range(d) if c != k] for k in pathways]

    def contributions(contexts):
        batches = [_by_aux(ev, ev._spec("AI_via", [j], context, mode="marginalized", n_mc=n_mc,
                                        seed=derive_seed(seed, 811, o)), [range(d), *blocked])
                   for o, context in enumerate(contexts)]
        return ([alpha_se for (_, alpha_se), *_ in batches],
                [[alpha, *(alpha - via for via, _ in vias)] for (alpha, _), *vias in batches])

    contexts, _, pooled = sage_loop(d, j, n_orders, seed, "n_orders", contributions)
    return _table(ev, j, pooled[0], pathways, pooled[1:], "fast", order_log=[list(c) for c in contexts])


def shapley_decompose_sage(
    ev: ImportanceEvaluator, j: int, pathways: Optional[list[int]] = None,
    solver: str = "auto", n_sage_orders: int = 60, n_decomp_orders: int = 25,
    n_mc: Optional[int] = None, seed: Optional[int] = None,
) -> DecompositionTable:
    """Pathway games per SAGE context, Shapley-solved and pooled. A
    context's total is j's surplus AI(j | context), AI-via every column,
    so with pathways that leave columns out the remainder holds their
    share. Under `auto`, an evaluator that solves pathway games in closed
    form values every context's alpha and components in one `evaluate`
    call, `PathwayGames` (method `shapley_pairwise`). Otherwise each
    context's game is one `evaluate` call under the exact or sampled
    solver, and alpha is the game's grand coalition when the pathways
    cover every column, else that mask in one more evaluation."""
    seed = ev.seed if seed is None else seed
    d = ev.data.n_cols
    pathways = list(range(d)) if pathways is None else list(pathways)
    every_column = set(pathways) == set(range(d))
    closed = solver == "auto" and ev.solves_pathway_games and len(set(pathways)) == len(pathways)
    solved = []

    def attributions(contexts):
        specs = [ev._spec("AI_via", [j], context, mode="marginalized", n_mc=n_mc, seed=derive_seed(seed, 813, o))
                 for o, context in enumerate(contexts)]
        if closed:
            alpha, alpha_se, phi = ev.evaluate(PathwayGames(specs, pathways))
            return alpha_se, np.column_stack([alpha, phi])
        alpha_se, rows = [], []
        for o, spec in enumerate(specs):
            game = _MeasureGame(ev, spec, pathways)
            solved.append(solve_game(game, solver, n_decomp_orders, derive_seed(seed, 814, o)))
            if every_column:
                alpha = game.value(range(len(pathways))), game.grand_se
            else:
                [alpha] = _by_aux(ev, spec, [range(d)])
            alpha_se.append(alpha[1])
            rows.append([alpha[0], *solved[-1].attributions])
        return alpha_se, rows

    contexts, rows, pooled = sage_loop(d, j, n_sage_orders, seed, "n_sage_orders", attributions)
    per_context = [{"context": c, "alpha": float(row[0]), "phi": row[1:].tolist()} for c, row in zip(contexts, rows)]
    method = "shapley_pairwise" if closed else f"shapley_{solved[-1].solver}"
    return _table(ev, j, pooled[0], pathways, pooled[1:], method,
                  order_log=[list(c) for c in contexts], per_context=per_context)
