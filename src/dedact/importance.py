"""Direct and associative importance measures and their named special cases.

All four measures share one evaluation engine: each of the two risk
terms is a per-column perturbation plan (keep the original value, or
redraw from the Gaussian conditional given some column set, where the
empty conditioning set means an independent redraw). Columns sharing a
conditioning set are drawn jointly, so the covariate joint is preserved
within each plan group.

Plan key: a plan is a tuple with one entry per column, `_KEEP` (-1) for
a kept column or the bitmask of the columns it is redrawn given (0 for
an independent redraw). Two measures that assign the same plan to a
term ask for the same risk.

Risk kernels: the evaluator picks, once when it is built, the one
method that turns missing terms into risks (`_kernel`), from its
predictor and loss. `_moment` takes a linear predictor under squared
error (Moment form below); `_linear_rows` a linear predictor under
cross-entropy; `_opaque_rows` any other predictor, on the materialized
plan matrix. The two row kernels score n-length predictions.

Marginalization: a marginalized term scores the predictor's conditional
expectation given the plan's kept columns. For a linear predictor that
is exactly `X @ u + c` (Linear form below), so its marginalized terms
take no draws: one repetition, SE 0, whatever n_mc and n_integration.
Any other predictor is marginalized by Monte Carlo: `_opaque_rows`
averages n_integration predictions on full n x d draws from the term's
integration stream `derive_seed(seed, rep, stream)`, and under squared
error subtracts per row the sampled variance of that mean, S^2 / m,
which removes the integration bias (nothing when m = 1). Cross-entropy
gets no such correction: the loss of the mean of m draws is not the
mean loss, so such a risk keeps a Jensen bias of order 1 / m.

Common random numbers: both terms of a repetition read the same draws,
keyed by the canonical (name-sorted) column order. In `original_f` mode
the row kernels give each canonical column its own stream,
`derive_seed(seed, rep, 3, rank)`, and its n standard normals are drawn
the first time a term of the repetition reads the column, then kept for
the other term (`_ColumnDraws`). A linear predictor reads only the
columns its v weights, so a term that redraws one weighted column draws
n normals and a term whose v is 0 draws none. Under `_moment` both terms
read one sample of the moments of an n x d draw. Identical plans
therefore produce bit-identical risks and an exactly zero estimate, and
paired runs under a shared seed reuse draws. Estimates do not depend on
the order or position of the columns: bit for bit under `_moment`, which
works in canonical order, and to rounding under the row kernels, whose
row sums follow the column order.

Term memo: a term's risk is a pure function of its plan and the draws it
consumes, under the evaluator's one loss. Those draws are fixed by
(mode, seed, repetition, stream): `original_f` terms share the
repetition's draws (stream 0: the row kernels' column streams, the
moments `_moment` samples), an opaque predictor's marginalized terms
each take their own integration stream (1 or 2), and a linear
predictor's marginalized terms consume no draws at all. So each
evaluator keeps one memo entry per term, keyed on `(plan, mode, seed,
stream)`, or on `(plan,)` alone for a linear predictor's marginalized
terms, holding the risks of repetitions 0..r-1 in order. The key is the
term's whole description: the engine reads the plan and the stream it
draws from off the key. Every evaluation asks for repetitions 0..n_mc-1,
so an entry is always such a prefix: a larger n_mc computes only the
missing repetitions and extends it. A reused risk is the float that
recomputation would give, bit for bit; only the evaluator's
`terms_computed` / `terms_reused` counters (one per term and repetition)
can tell the two apart. `_moment` samples a repetition's moments at most
once per evaluator, for all its terms.

Linear form: for a `LinearPredictor` with weights w and intercept b, a
plan's prediction is `X @ u + z @ v + c`. The engine's unit of
conditional set-up is the conditioning set C, not the redrawn group.
Each evaluator keeps one `dedact.sampler._Conditioning`, a table of
conditioning sets that `perturb` and `MarginalizedPredictor` also draw
through. `_linear_forms` hands it every set that a batch's plans redraw
columns given and the table lacks. It builds them with one stacked solve
per set size |C|, for every column outside C (canonical order), and from
the same solves a weighted table, filled by one scatter per size: the
row `forms_C[t]` of a column t outside C holds `w_t . A_C[t, :]`
scattered over the d columns, then the offset
`w_t . (mu_t - A_C[t] . mu_C)`. Each group (targets T, conditioning C)
slices its map rows `A_C[T]`, offsets `mu_T` and covariance block from
its set's solve. A plan's [u | c - b] is then the sum, over the columns
k in canonical order, of `forms_C[k]` for a column redrawn given C
(conditioning reads the original columns) or `[w_k e_k | 0]` for a kept
one: no solve and no matrix product per plan, and a stack of plans is
assembled by one gather per column from the table. Only draws need the
Cholesky factor L of a group's conditional covariance block, which puts
`L^T w_T` in v at the targets' canonical draw columns. When a batch has
terms that take draws (`original_f`, or `_opaque_rows`), the (C, T)
pairs the table lacks are factorized with one stacked Cholesky per
group size |T| and kept with their `L^T w_T`. A linear predictor's
marginalization is `X @ u + c` and never factorizes, so a
conditional block that cannot be factorized raises
`SingularConditioning` only where draws are taken. LAPACK solves and
factorizes each matrix of a stack on its own, so a set's tables and
factors, and so every plan's (u, v, c), are the same floats whichever
batch built them. No n x d plan matrix is built on the linear path.

Moment form (`_moment`): a linear predictor's squared-error risk is a
quadratic form in the moments of the data and the draws, so those terms
never form an n-length prediction. With `X_c`, `y_c` the evaluation data
and target minus their means `x_bar`, `y_bar` (columns in canonical
order, u permuted to match) and `k = c + x_bar . u - y_bar`, the
marginalized risk is `u' S_xx u - 2 u' s_xy + s_yy + k^2` with
`S_xx = X_c' X_c / n`, `s_xy = X_c' y_c / n` and `s_yy = y_c' y_c / n`.
The means and the unscaled cross-products come once per evaluator from
`core.centred_moments`, the summary the fits read: the rows are read in
place and summed a block at a time, so no copy of them is made. A stack
of plans takes its quadratic forms row by row (see Games below).
Centring matters: on data offset by 1e3, risks from uncentred moments
were off by up to 1.5e-9 relative (4.7e-8 at 1e4), centred ones by
8e-14 (7.8e-13). An `original_f` term adds
`v' S_zz v + 2 v' S_zx u + 2 k v' z_bar - 2 v' s_zy`, where z is the
repetition's n x d standard-normal draw, `S_zz = z' z / n`,
`S_zx = z' X_c / n`, `z_bar = z' 1 / n` and `s_zy = z' y_c / n`.

Those moments are sampled from their exact joint law, not reduced from
n x d normals. Let M = [X_c, y_c, 1] (n x (d + 2)) and B any q x (d + 2)
matrix with `B' B = M' M`, q = min(n, d + 2); the evaluator takes B once
from an eigendecomposition of `M' M`, which is blockdiag(S, n) for S
the unscaled centred cross-products of [X_c, y_c] (the 1 column is
orthogonal to the centred ones), keeping the q largest eigenvalues and
setting those within rounding of 0 to 0, so B is exact when M is
rank-deficient (a target exactly linear in the columns). Then M = Q B
for some n x q Q with orthonormal columns, and for z with independent
standard-normal entries `G = Q' z` is q x d standard normal and
`z' z - G' G = z' (I - Q Q') z` is Wishart(n - q, I_d), independent of G.
Per (seed, rep) the evaluator draws G and the upper-trapezoidal Bartlett
factor T of that Wishart (min(n - q, d) rows,
`T_ii = sqrt(chi2(n - q - i))` for i from 0, standard normals above the
diagonal; Smith & Hocking 1972, "Wishart variate generator") from
`derive_seed(seed, rep)`, and sets `z' M = G' B` and `z' z = G' G + T' T`.
The four moments then cost O(d^2 + d q) however large n is, and are kept
(about d(2d + 2) floats) for every later term of that (seed, rep). They
have exactly the law of an n x d draw's moments, so `_moment` and the
row kernels agree in law, not draw for draw: given the same z, their
risks agree to rounding.

Games: a Shapley decomposition values many coalitions of one measure
that differ only in their `aux` set. `evaluate` takes one request, a
`MeasureBatch` (a `MeasureSpec` and a tuple of aux column bitmasks) or
`PathwayGames` (below), and returns two float arrays: for a batch, the
masks' values and standard errors in order, each mask one evaluation. A
spec has no aux, so one measure is a batch of one mask, from which the
measure methods build an `ImportanceEstimate` (`_estimate`). DI and AI
are DI_from and AI_via through every column (`_plan_pairs`), so a table's
total is that mask in its components' batch. The sets are validated
once per batch, both plan keys of every mask are built with bit
operations, each term is looked up in the memo once, and the missing
plans' (u, v, c) are assembled as stacked arrays. Their moment-form
risks, over all plans and repetitions at once, are row-wise products
(`_dot`) that add each dot product's terms in index order, as the last
running sum of `np.add.accumulate`. No BLAS
product, einsum or numpy reduction runs over the batch: each picks its
loop order and SIMD path by the arrays' shapes and memory alignment, so
a row's rounding would depend on the rows around it (seen with einsum
at d = 5 and with `sum(axis=-1)` on a 606 x 12 x 12 stack). Plans go in
blocks that keep those products under 1 MB. So a plan's risk is the same
float whichever batch computes it. So are a mask's mean and standard
error over the repetitions: they come from `pool`, the one pooling rule
(it also pools a sampled Shapley table's orders and a SAGE table's
contexts), which sums each column in index order too. The plan keys
follow the column order, the sums the canonical order, so the
permutation invariance above holds for batches too. The row kernels go
pair by pair and, within a pair, repetition by repetition
(`_row_risks`), so the two terms of a repetition read one set of column
draws.

Pathway games (`PathwayGames`): a SAGE context's game `v(K) = AI_via(J |
C, K)` over the subsets K of p pathways. Under `_moment`, whose
marginalized terms take no draws, it is quadratic in K's indicator
vector s: the second plan takes pathway column k's forms row for C u J
when s_k = 1 and its row for C otherwise, so `u(s) = u0 + D's` and `c(s)
= c0 + d's`, rows D_k and d_k the differences of the forms of `t2({k})`
and `t1`. Then `R(s) - R(0) = b's + s'Qs` with `kD = d + D x_bar`, `Q =
D S_xx D' + kD kD'` and `b = 2 D (S_xx u0 - s_xy) + 2 k0 kD`. A
quadratic game gives each linear term to its player and splits each
pairwise term equally (Grabisch, Marichal & Roubens 2000), so `phi_i =
-(b_i + sum_k Q_ik)`: minus the risk's derivative along (D_i, d_i) at
the midpoint of the plans t1 and t2(all pathways), which
`_pathway_games` takes from those two plans' forms, no p x p matrix
formed. A game is valued from p + 2 linear forms (t1, t2(all pathways),
each t2({k})) and alpha's two risks, AI_via through every column, which
go through the memo as any term's do; it counts as p + 1 evaluations,
alpha and each pathway alone, and gives one row `[alpha, *phi]`, SEs
`[alpha_se, 0, ...]`: the row a SAGE table pools per context. A table
hands all its contexts' games to one `evaluate` call: their plans are
built, their conditioning sets added and their forms stacked together.
Every product is a `_dot` in canonical order, so phi depends neither on
the column order nor on the other games of the batch."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .core import (
    SQUARED_ERROR,
    DataMatrix,
    FeatureIndexSet,
    ImportanceEstimate,
    LinearPredictor,
    LossFunction,
    Predictor,
    TargetVector,
    centred_moments,
    derive_seed,
)
from .errors import DimensionMismatch, DisjointnessViolation
from .sampler import GaussianModel, _Conditioning

MEASURES = ("DI", "AI", "DI_from", "AI_via")
MODES = ("original_f", "marginalized")
SAGE_VARIANTS = ("marginal", "conditional")

_KEEP = -1  # plan entry: column keeps its original value

_eval_count = 0


def reset_evaluation_count() -> None:
    global _eval_count
    _eval_count = 0


def evaluation_count() -> int:
    return _eval_count


def _mask(cols) -> int:
    return sum(1 << c for c in cols)


def _mask_array(masks, width: int) -> np.ndarray:
    """Bitmasks of `width` bits as a numpy array: int64 while they fit,
    Python ints (object) beyond."""
    return np.array(masks, dtype=np.int64 if width < 63 else object)


def _column_seed(seed: int, rep: int, rank: int) -> int:
    """Stream of one canonical column's row-path draws. Slot 3 is used by
    no other stream. `SeedSequence` drops trailing zero words, so rank 0
    reads the (unused) key `(seed, rep, 3)`, and a slot of 0 would have
    aliased the moment form's `(seed, rep)`."""
    return derive_seed(seed, rep, 3, rank)


class _ColumnDraws:
    """A repetition's standard normals on the row kernels: n per canonical
    column, from the column's own stream `_column_seed(seed, rep, rank)`,
    drawn the first time a term reads the column and kept for the other
    term. Answers `z[:, cols]` (cols in canonical order) as an ndarray
    would."""

    def __init__(self, n: int, seed: int, rep: int):
        self.n, self.seed, self.rep = n, seed, rep
        self._columns: dict[int, np.ndarray] = {}

    def _column(self, rank: int) -> np.ndarray:
        hit = self._columns.get(rank)
        if hit is None:
            rng = np.random.default_rng(_column_seed(self.seed, self.rep, rank))
            hit = self._columns[rank] = rng.standard_normal(self.n)
        return hit

    def __getitem__(self, key) -> np.ndarray:
        rows, cols = key
        block = np.empty((self.n, len(cols)))
        for j, rank in enumerate(cols):
            block[:, j] = self._column(int(rank))
        return block[rows]


_BLOCK = 1 << 17  # elements of a moment-risk block's largest temporary (1 MB)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, a and b broadcast, added in
    index order: the last running sum of `np.add.accumulate`, which by
    definition adds one term at a time. Each entry is then the same
    sequence of roundings whatever the batch around it, whereas BLAS,
    einsum and numpy's own reductions pick their summation order and
    SIMD path by the arrays' shapes and alignment."""
    return np.add.accumulate(a * b, axis=-1)[..., -1]


@dataclass(frozen=True)
class MeasureSpec:
    """What varies between the importance evaluations of one evaluator,
    whose data, predictor, Gaussian and loss are fixed, but the aux set.

    `interest` is K for DI/DI_from and J for AI/AI_via; `baseline` is B
    or C."""

    measure: str
    interest: FeatureIndexSet
    baseline: FeatureIndexSet
    mode: str = "original_f"
    n_mc: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise DimensionMismatch(f"unknown measure {self.measure!r}")
        if self.mode not in MODES:
            raise DimensionMismatch(f"unknown mode {self.mode!r}")
        if not self.interest.is_disjoint(self.baseline):
            raise DisjointnessViolation(
                f"interest {self.interest.indices} overlaps baseline {self.baseline.indices}"
            )
        if self.n_mc < 1:
            raise DimensionMismatch("n_mc must be >= 1")


@dataclass(frozen=True)
class MeasureBatch:
    """One measure over many aux sets: `spec` with each column bitmask of
    `auxes` as its aux, the source J of DI_from or the pathway K of
    AI_via (DI and AI read none). `evaluate` returns two float arrays,
    the values and the standard errors, one entry per mask in order."""

    spec: MeasureSpec
    auxes: tuple[int, ...]


class PathwayGames:
    """One game per marginalized AI_via spec (a SAGE context), each over
    the subsets K of `pathways` (distinct columns). `evaluate` returns a
    row `[alpha, *phi]` per spec, SEs `[alpha_se, 0, ...]`: alpha is AI_via
    through every column, phi the pathways' Shapley values (see Pathway
    games in the module docstring). A plain class: a dataclass would add
    about 0.4 ms to every import of the package."""

    def __init__(self, specs, pathways):
        self.specs, self.pathways = tuple(specs), tuple(pathways)
        if not self.specs or any((s.measure, s.mode) != ("AI_via", "marginalized") for s in self.specs):
            raise DimensionMismatch("pathway games are marginalized AI_via specs, at least one")
        if not self.pathways or len(FeatureIndexSet.of(self.pathways).indices) != len(self.pathways):
            raise DimensionMismatch(f"pathways {self.pathways} must be distinct columns, at least one")


class ImportanceEvaluator:
    """Evaluates DI/AI/DI-from/AI-via on one (data, model, Gaussian) triple.

    The data passed here is the evaluation split; fitting the predictor
    and the Gaussian on a disjoint split is the caller's responsibility.
    `evaluations`, `terms_computed` and `terms_reused` count this
    evaluator's `evaluate` calls and the plan-term risks it computed or
    took from its memo.
    """

    def __init__(
        self,
        data: DataMatrix,
        target: TargetVector,
        predictor: Predictor,
        gaussian: GaussianModel,
        loss: LossFunction = SQUARED_ERROR,
        n_mc: int = 20,
        seed: int = 0,
        n_integration: int = 32,
    ):
        if len(target) != data.n_rows:
            raise DimensionMismatch("target length disagrees with data")
        if gaussian.dim != data.n_cols:
            raise DimensionMismatch("gaussian dimension disagrees with data")
        for key, count in (("n_mc", n_mc), ("n_integration", n_integration)):
            if count < 1:
                raise DimensionMismatch(f"{key} must be >= 1")
        self.data = data
        self.target = target
        self.predictor = predictor
        self.gaussian = gaussian
        self.loss = loss
        self.n_mc = n_mc
        self.seed = seed
        self.n_integration = n_integration
        # canonical column order: by name, so estimates do not depend on
        # how the columns are ordered (see the module docstring)
        self._canon_order = sorted(range(data.n_cols), key=lambda i: data.column_names[i])
        self._canon_rank = {col: rank for rank, col in enumerate(self._canon_order)}
        # a linear predictor is marginalized in closed form, any other by Monte Carlo
        self._linear = isinstance(predictor, LinearPredictor)
        self._table = _Conditioning(gaussian, self._canon_order, predictor.weights if self._linear else None)
        # the evaluator's one risk kernel (see the module docstring)
        if not self._linear:
            self._kernel = self._opaque_rows
        else:
            self._kernel = self._moment if loss.kind == "squared_error" else self._linear_rows
        # a pathway game is quadratic, and its Shapley values closed-form, under `_moment`
        self.solves_pathway_games = self._kernel == self._moment
        self._risks: dict[tuple, float] = {}
        self._data_moments: tuple | None = None
        self._root: np.ndarray | None = None
        self._draw_moments: dict[tuple[int, int], tuple] = {}
        self.evaluations = 0
        self.terms_computed = 0
        self.terms_reused = 0

    def counters(self) -> dict:
        """The evaluator's counters, as `run()` writes them to a bundle."""
        return {
            "evaluations": self.evaluations,
            "terms_computed": self.terms_computed,
            "terms_reused": self.terms_reused,
        }

    # -- plan construction ------------------------------------------------

    def _plan_pairs(self, spec: MeasureSpec, auxes: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Plan keys of the two terms (see the module docstring) for each
        aux bitmask, built with bit tests over the whole batch; the sets
        are validated once. DI and AI are DI_from and AI_via through every
        column: one pair, repeated over the batch."""
        d = self.data.n_cols
        spec.interest.validate_within(d)
        spec.baseline.validate_within(d)
        if any(aux < 0 or aux >> d for aux in auxes):
            raise DimensionMismatch(f"aux set out of range for d={d}")
        interest, baseline = _mask(spec.interest), _mask(spec.baseline)
        cols = range(d)

        def plan(kept, cond_mask):
            return tuple(_KEEP if kept >> c & 1 else cond_mask for c in cols)

        whole = spec.measure in ("DI", "AI")
        aux = _mask_array([(1 << d) - 1] if whole else auxes, d)[:, None]
        bits = np.arange(d)
        in_aux = (aux >> bits & 1).astype(bool)
        if spec.measure in ("DI", "DI_from"):
            t1 = plan(baseline, 0)
            # interest columns in aux are kept, the others redrawn given aux
            in_interest = (interest >> bits & 1).astype(bool)
            t2 = np.where(in_interest, np.where(in_aux, _KEEP, aux), t1)
        else:  # AI, AI_via: only the pathway columns see the interest columns
            t1 = plan(baseline, baseline)
            with_interest = baseline | interest
            t2 = np.where(in_aux, plan(with_interest, with_interest), t1)
        pairs = [(t1, second) for second in map(tuple, t2.tolist())]
        return pairs * len(auxes) if whole else pairs

    def _groups(self, plan) -> dict[int, tuple[int, ...]]:
        """Redrawn columns of each conditioning set, in canonical order."""
        by_mask: dict[int, list[int]] = {}
        for col in self._canon_order:
            mask = plan[col]
            if mask != _KEEP:
                by_mask.setdefault(mask, []).append(col)
        return {mask: tuple(cols) for mask, cols in by_mask.items()}

    # -- execution ---------------------------------------------------------

    def _build_matrix(self, plan, z: np.ndarray | _ColumnDraws) -> np.ndarray:
        """The evaluation data with the plan's redrawn columns replaced,
        using the standard normals z: an n x d array or `_ColumnDraws`,
        columns in canonical order, read as `z[:, cols]`."""
        m = self.data.values.copy()
        for mask, targets in self._groups(plan).items():
            z_cols = [self._canon_rank[c] for c in targets]
            m[:, list(targets)] = self._table.draw(mask, targets, self.data.values, z[:, z_cols])
        return m

    def _set_up(self, plans, draws: bool) -> tuple[dict[int, int], list[dict[int, tuple[int, ...]]] | None]:
        """Hand the conditioning table every set that the plans redraw
        columns given, in one batch, and with `draws` every (set, group)
        pair to factorize. Returns each plan entry's table slot (0 for
        `_KEEP`) and, with `draws`, each plan's groups."""
        table = self._table
        masks = set().union(*plans)
        masks.discard(_KEEP)
        table.add(masks)
        slot = {mask: table.slots[mask] for mask in masks}
        slot[_KEEP] = 0
        if not draws:
            return slot, None
        groups = [self._groups(plan) for plan in plans]
        table.factorize(pair for plan_groups in groups for pair in plan_groups.items())
        return slot, groups

    def _linear_forms(self, plans, draws: bool) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """Stacked (U, V, C) with `X @ u + z @ v + c` the linear
        predictor's output on `_build_matrix(plans[p], z)` for row p: u in
        column order, v in canonical (draw) order, and V None unless
        `draws`. Row p of [U | C] sums, over the columns in canonical
        order, each column's row of its conditioning set's `forms` table
        (a kept column adds w_k at k and no offset), and C adds the
        intercept. Each row's sums run in the same order whatever else the
        batch holds, and do not depend on the column order."""
        slot, groups = self._set_up(plans, draws)
        table, w = self._table, self.predictor.weights
        sets = np.array([list(map(slot.__getitem__, plan)) for plan in plans])
        first, *rest = self._canon_order
        form = table.forms[sets[:, first], first]
        for col in rest:
            form += table.forms[sets[:, col], col]
        u, c = form[:, :-1], form[:, -1] + self.predictor.intercept
        if not draws:
            return u, None, c
        v = np.zeros((len(plans), len(w)))
        for p, plan_groups in enumerate(groups):
            for pair in plan_groups.items():
                v[p, [self._canon_rank[col] for col in pair[1]]] = table.factors[pair][1]
        return u, v, c

    # -- moment form (linear predictor, squared error) ----------------------

    def _summary(self) -> tuple[np.ndarray, np.ndarray]:
        """`centred_moments` of the evaluation data, columns in canonical
        order and the target last: the means and the unscaled S, computed
        once per evaluator."""
        if self._data_moments is None:
            self._data_moments = centred_moments(self.data.values, self._canon_order, self.target.values)
        return self._data_moments

    def _moments(self) -> tuple:
        """(x_bar, y_bar, S_xx, s_xy, s_yy) of the evaluation data,
        columns in canonical order: the summary with S divided by n."""
        mean, s = self._summary()
        s = s / self.data.n_rows
        return mean[:-1], mean[-1], s[:-1, :-1], s[:-1, -1], s[-1, -1]

    def _moment_root(self) -> np.ndarray:
        """B, q x (d + 2) with q = min(n, d + 2), such that B' B = M' M
        for M = [X_c, y_c, 1] (see the module docstring). M' M is
        blockdiag(S, n), S the summary's unscaled centred cross-products."""
        if self._root is None:
            s, n = self._summary()[1], self.data.n_rows
            k = len(s) + 1  # d + 2
            gram = np.zeros((k, k))
            gram[:-1, :-1], gram[-1, -1] = s, n
            evals, evecs = np.linalg.eigh(gram)
            # an eigenvalue within rounding of 0 (numpy's matrix_rank
            # tolerance) is 0: its square root would be of order sqrt(eps)
            evals[evals <= evals[-1] * k * np.finfo(float).eps] = 0.0
            top = slice(max(k - n, 0), None)  # eigh sorts ascending
            self._root = np.sqrt(evals[top])[:, None] * evecs[:, top].T
        return self._root

    def _draws(self, seed: int, rep: int) -> tuple:
        """(S_zz, S_zx, z_bar, s_zy) of the repetition's standard normals,
        sampled once per evaluator from their exact law (see the module
        docstring)."""
        hit = self._draw_moments.get((seed, rep))
        if hit is None:
            root = self._moment_root()
            q, n, d = len(root), self.data.n_rows, self.data.n_cols
            rng = np.random.default_rng(derive_seed(seed, rep))
            g = rng.standard_normal((q, d))
            k = n - q  # degrees of freedom of the Wishart remainder
            r = min(k, d)
            t = np.triu(rng.standard_normal((r, d)), 1)
            t[range(r), range(r)] = np.sqrt(rng.chisquare(k - np.arange(r)))
            zm = g.T @ root / n
            hit = self._draw_moments[seed, rep] = ((g.T @ g + t.T @ t) / n, zm[:, :d], zm[:, d + 1], zm[:, d])
        return hit

    def _moment_risks(self, u: np.ndarray, v: np.ndarray | None, c: np.ndarray, draws) -> np.ndarray:
        """Squared-error risks of `X @ u + c`, a 1 x P array over the rows
        of the stacked canonical (U, C) when draws is None; else of
        `X @ u + z @ v + c` for every repetition's moments (S_zz, S_zx,
        z_bar, s_zy stacked over R repetitions) and row of (U, V, C), as
        an R x P array. Every
        product is a `_dot`, so a risk does not depend on the other rows
        or repetitions; rows go in blocks that bound the R x P x d x d
        products."""
        d, n_reps = u.shape[1], 1 if draws is None else len(draws[0])
        step = max(1, _BLOCK // (n_reps * d * d))
        if len(u) > step:
            return np.concatenate([
                self._moment_risks(u[i:i + step], None if v is None else v[i:i + step], c[i:i + step], draws)
                for i in range(0, len(u), step)], axis=-1)
        x_bar, y_bar, s_xx, s_xy, s_yy = self._moments()
        k = c + _dot(u, x_bar) - y_bar
        risk = _dot(u, _dot(s_xx, u[:, None])) - 2.0 * _dot(u, s_xy) + s_yy + k * k
        if draws is None:
            return risk[None]
        s_zz, s_zx, z_bar, s_zy = (m[:, None] for m in draws)  # repetition, then plan
        v_zz_v = _dot(v, _dot(s_zz, v[:, None]))
        v_zx_u = _dot(v, _dot(s_zx, u[:, None]))
        return risk + (v_zz_v + 2.0 * v_zx_u + 2.0 * k * _dot(v, z_bar) - 2.0 * _dot(v, s_zy))

    def _marginalized_prediction(self, predict, rng: np.random.Generator):
        """The per-row mean of n_integration predictions on a plan's
        perturbed columns, approximating E[f(X_keep, X_perturbed) |
        conditioning], and the per-row variance of that mean (the sample
        variance over the draws by their count): the squared-error
        integration-noise correction of `_opaque_rows`."""
        n, d = self.data.values.shape
        m = self.n_integration
        total = np.zeros(n)
        total_sq = np.zeros(n)
        for _ in range(m):
            p = predict(rng.standard_normal((n, d)))
            total += p
            total_sq += p * p
        mean = total / m
        if m > 1:
            variance = np.maximum(total_sq - m * mean * mean, 0.0) / (m - 1)
            return mean, variance / m
        return mean, np.zeros(n)

    def _term_risk(self, y: np.ndarray, pred: np.ndarray, mean_variance: np.ndarray | float | None) -> float:
        """Mean loss of the predictions. Under Monte-Carlo
        marginalization (`_opaque_rows`) only squared error is corrected
        for integration noise, per row; cross-entropy keeps its
        O(1/n_integration) bias."""
        base = self.loss.elementwise(y, pred)
        # E[(y - mean of m draws)^2] overshoots the marginalized risk by
        # Var/m; subtracting the unbiased variance estimate removes it
        if mean_variance is not None and self.loss.kind == "squared_error":
            base = base - mean_variance
        return float(np.mean(base))

    def evaluate(self, request: MeasureBatch | PathwayGames, /) -> tuple[np.ndarray, np.ndarray]:
        """The engine's one entry: two float arrays, values and SEs. A
        `MeasureBatch` gets one entry per aux bitmask, in order, each one
        evaluation; `PathwayGames` one row `[alpha, *phi]` per game, SEs
        `[alpha_se, 0, ...]`, each game p + 1 evaluations."""
        if isinstance(request, PathwayGames):
            return self._pathway_games(request)
        return self._differences(request.spec, self._plan_pairs(request.spec, request.auxes))

    def _estimate(self, spec: MeasureSpec, aux=()) -> ImportanceEstimate:
        """One measure with the columns `aux` as its aux: a batch of one."""
        aux = FeatureIndexSet.of(aux)
        [value], [se] = self.evaluate(MeasureBatch(spec, (_mask(aux),)))
        sets = {"measure": spec.measure, "interest": spec.interest.indices, "baseline": spec.baseline.indices,
                "aux": aux.indices}
        n_reps = 1 if self._exact(spec) else spec.n_mc
        return ImportanceEstimate(float(value), float(se), n_reps, spec.mode, sets, spec.seed)

    def _exact(self, spec: MeasureSpec) -> bool:
        """A linear predictor's marginalized terms take no draws: one repetition."""
        return spec.mode == "marginalized" and self._linear

    def _differences(self, spec: MeasureSpec, pairs, per_pair: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Each plan pair's mean risk difference over the spec's repetitions
        and its standard error, its terms from the memo or the evaluator's
        kernel. Each pair counts as `per_pair` evaluations."""
        global _eval_count
        _eval_count += per_pair * len(pairs)
        self.evaluations += per_pair * len(pairs)
        exact = self._exact(spec)
        n_reps = 1 if exact else spec.n_mc
        # in marginalized mode the two plans assign different
        # conditionals to the perturbed columns, so their integration
        # draws come from independent streams (1 and 2, a key's last
        # entry) and the reported SE covers the marginalization noise of
        # both terms
        streams = (1, 2) if spec.mode == "marginalized" else (0, 0)
        tails = [()] * 2 if exact else [(spec.mode, spec.seed, stream) for stream in streams]
        keys = []  # per pair: the two terms' memo keys, or None for identical plans
        misses: dict[tuple, tuple] = {}  # memo key -> (pair, repetitions held), in the order first needed
        for i, (t1, t2) in enumerate(pairs):
            if t1 == t2:
                keys.append(None)
                continue
            two = (t1, *tails[0]), (t2, *tails[1])
            for key in two:
                if key not in misses:
                    held = len(self._risks.get(key, ()))
                    if held < n_reps:
                        misses[key] = (i, held)
            keys.append(two)
        live = [i for i, two in enumerate(keys) if two is not None]
        computed = sum(n_reps - held for _, held in misses.values())
        self.terms_computed += computed
        self.terms_reused += 2 * n_reps * len(live) - computed
        for key, computed_risks in (self._kernel(spec, misses, n_reps, exact) if misses else {}).items():
            self._risks.setdefault(key, []).extend(computed_risks)
        # each live mask's mean and standard error over the repetitions,
        # one column of `pool`; identical plans differ by 0.0
        risks = self._risks
        diffs = (np.array([risks[keys[i][0]][:n_reps] for i in live])
                 - np.array([risks[keys[i][1]][:n_reps] for i in live])).reshape(-1, n_reps)
        value, se = np.zeros(len(keys)), np.zeros(len(keys))
        value[live], se[live] = pool(diffs.T)
        return value, se

    def _pathway_games(self, games: PathwayGames) -> tuple[np.ndarray, np.ndarray]:
        """Each game's row `[alpha, *phi]`, SEs `[alpha_se, 0, ...]`: alpha
        from the memo or the kernel, the pathways' Shapley values from the
        forms of the plans t1, t2(all pathways) and each t2({k}), minus the
        risk's derivative along each pathway's step at the midpoint of the
        first two (see Pathway games in the module docstring)."""
        if not self.solves_pathway_games:
            raise DimensionMismatch("a pathway game has a closed form only for a linear predictor"
                                    " under squared error")
        q, d = len(games.pathways) + 2, self.data.n_cols
        # alpha, AI_via through every column; then the masks whose plans give phi
        auxes = ((1 << d) - 1, _mask(games.pathways), *(1 << k for k in games.pathways))
        pairs = [self._plan_pairs(spec, auxes) for spec in games.specs]
        # marginalized in closed form: a term's memo key and risk do not depend on its spec's seed
        alpha, alpha_se = self._differences(games.specs[0], [game[0] for game in pairs], q - 1)
        # each game's plans t1, t2(all pathways) and each t2({k})
        plans = [t for game in pairs for t in (game[0][0], *(t2 for _, t2 in game[1:]))]
        u, _, c = self._linear_forms(plans, False)
        u, c = u[:, self._canon_order].reshape(len(pairs), q, d), c.reshape(len(pairs), q)
        x_bar, y_bar, s_xx, s_xy, _ = self._moments()
        k = c + _dot(u, x_bar) - y_bar
        mid_u, mid_k = (u[:, 0] + u[:, 1]) / 2.0, (k[:, 0] + k[:, 1]) / 2.0
        grad = (_dot(s_xx, mid_u[:, None]) - s_xy)[:, None]
        # `0.0 -` keeps a null pathway's 0 from reading -0.0
        phi = 0.0 - 2.0 * (_dot(u[:, 2:] - u[:, :1], grad) + (k[:, 2:] - k[:, :1]) * mid_k[:, None])
        return np.column_stack([alpha, phi]), np.column_stack([alpha_se, np.zeros_like(phi)])

    # -- risk kernels: {memo key: risks of repetitions held..n_reps-1} --------

    def _moment(self, spec: MeasureSpec, misses: dict, n_reps: int, exact: bool) -> dict:
        """A linear predictor under squared error: the moment form, one
        key per plan, every plan's risks of every repetition that some
        term misses at once."""
        u, v, c = self._linear_forms([key[0] for key in misses], not exact)
        first = min(held for _, held in misses.values())
        draws = None if exact else tuple(
            map(np.stack, zip(*(self._draws(spec.seed, rep) for rep in range(first, n_reps)))))
        risks = self._moment_risks(u[:, self._canon_order], v, c, draws)
        return {key: risks[held - first:, p].tolist() for p, (key, (_, held)) in enumerate(misses.items())}

    def _linear_rows(self, spec: MeasureSpec, misses: dict, n_reps: int, exact: bool) -> dict:
        """A linear predictor under cross-entropy, from its form (u, v, c):
        `X @ u + c`, plus `z @ v` in `original_f` (the columns v weights
        only)."""
        plans = list(dict.fromkeys(key[0] for key in misses))
        u, v, c = self._linear_forms(plans, not exact)
        # per plan, copied out so BLAS sees them as in a batch of one
        forms = {plan: (u[p].copy(), None if v is None else v[p].copy(), c[p]) for p, plan in enumerate(plans)}

        def term(key):
            u, v, c = forms[key[0]]
            base = self.data.values @ u + c
            nz = () if v is None else np.flatnonzero(v)
            return lambda rep, z: (base + z[:, nz] @ v[nz] if len(nz) else base, None)

        return self._row_risks(spec, misses, n_reps, term)

    def _opaque_rows(self, spec: MeasureSpec, misses: dict, n_reps: int, exact: bool) -> dict:
        """Any other predictor, on the materialized plan matrix: one
        prediction, or when marginalized the mean of n_integration, drawn
        from the term's integration stream (the key's last entry)."""
        self._set_up(list(dict.fromkeys(key[0] for key in misses)), draws=True)

        def term(key):
            def model(z):
                return self.predictor.predict(self._build_matrix(key[0], z))

            if spec.mode == "original_f":
                return lambda rep, z: (model(z), None)
            return lambda rep, z: self._marginalized_prediction(
                model, np.random.default_rng(derive_seed(spec.seed, rep, key[-1])))

        return self._row_risks(spec, misses, n_reps, term)

    def _row_risks(self, spec: MeasureSpec, misses: dict, n_reps: int, term) -> dict:
        """Risks of missing terms on n-length predictions: `term(key)` is
        the term's `(rep, z) -> (prediction, variance to subtract)`, z the
        repetition's `_ColumnDraws`. The terms go pair by pair (a term
        goes with the first pair that misses it) and, within a pair,
        repetition by repetition, so both terms of a repetition read one
        set of column draws, and at most two predictors and one
        repetition's draws are held at a time."""
        y = self.target.values
        risks = {key: [] for key in misses}
        # misses are in the order first needed, so a pair's terms are adjacent
        for _, group in groupby(misses.items(), key=lambda item: item[1][0]):
            terms = [(term(key), held, risks[key]) for key, (_, held) in group]
            for rep in range(min(held for _, held, _ in terms), n_reps):
                z = _ColumnDraws(self.data.n_rows, spec.seed, rep)
                for predict, held, out in terms:
                    if rep >= held:
                        out.append(self._term_risk(y, *predict(rep, z)))
        return risks

    # -- the four measures ---------------------------------------------------

    def _spec(self, measure, interest, baseline, mode="original_f", n_mc=None, seed=None):
        return MeasureSpec(measure, FeatureIndexSet.of(interest), FeatureIndexSet.of(baseline), mode,
                           self.n_mc if n_mc is None else n_mc, self.seed if seed is None else seed)

    def direct_importance(self, interest, baseline, mode="original_f", n_mc=None, seed=None) -> ImportanceEstimate:
        return self._estimate(self._spec("DI", interest, baseline, mode, n_mc, seed))

    def associative_importance(self, interest, context, mode="original_f", n_mc=None, seed=None) -> ImportanceEstimate:
        return self._estimate(self._spec("AI", interest, context, mode, n_mc, seed))

    def di_from(self, interest, baseline, sources, mode="original_f", n_mc=None, seed=None) -> ImportanceEstimate:
        return self._estimate(self._spec("DI_from", interest, baseline, mode, n_mc, seed), sources)

    def ai_via(self, interest, context, pathway, mode="original_f", n_mc=None, seed=None) -> ImportanceEstimate:
        return self._estimate(self._spec("AI_via", interest, context, mode, n_mc, seed), pathway)

    # -- named special cases --------------------------------------------------

    def pfi(self, k: int, n_mc=None, seed=None) -> ImportanceEstimate:
        rest = FeatureIndexSet.of([k]).complement(self.data.n_cols)
        return self.direct_importance([k], rest, n_mc=n_mc, seed=seed)

    def conditional_fi(self, j: int, n_mc=None, seed=None) -> ImportanceEstimate:
        rest = FeatureIndexSet.of([j]).complement(self.data.n_cols)
        return self.associative_importance([j], rest, n_mc=n_mc, seed=seed)

    def _surplus_spec(self, variant, interest, context, n_mc, seed, conditional="AI") -> MeasureSpec:
        """v(context + interest) - v(context), marginalized, as one paired
        evaluation: DI under the marginal variant; under the conditional,
        `conditional`: AI, or AI_via, whose mask of every column is AI."""
        if variant not in SAGE_VARIANTS:
            raise DimensionMismatch(f"unknown SAGE variant {variant!r}")
        measure = "DI" if variant == "marginal" else conditional
        return self._spec(measure, interest, context, "marginalized", n_mc, seed)

    def sage_value(self, subset, variant: str = "conditional", n_mc=None, seed=None) -> ImportanceEstimate:
        return self._estimate(self._surplus_spec(variant, subset, [], n_mc, seed))

    def sage_attribution(self, j: int, variant: str = "conditional", n_orders: int = 60,
                         n_mc=None, seed=None) -> ImportanceEstimate:
        """Average surplus of j over uniformly random permutation prefixes;
        a single context reports its surplus's own standard error."""
        seed = self.seed if seed is None else seed

        def surpluses(specs):
            results = [self.evaluate(MeasureBatch(spec, ((1 << self.data.n_cols) - 1,))) for spec in specs]
            return [se[0] for _, se in results], [value for value, _ in results]

        _, _, [(value, se)] = sage_loop(self, j, n_orders, seed, "n_orders", surpluses, variant, n_mc)
        sets = {"measure": "SAGE", "interest": (j,), "variant": variant, "n_orders": n_orders}
        return ImportanceEstimate(value, se, n_orders, "marginalized", sets, seed)


def sage_loop(ev: ImportanceEvaluator, j: int, n_orders: int, seed: int, name: str, value_specs,
              variant: str = "conditional", n_mc=None) -> tuple:
    """The SAGE context loop: check the order count (`name` is its key)
    and that j is one of the d columns, draw j's contexts C, build each
    context o's surplus spec (AI_via; DI under the marginal variant)
    seeded `derive_seed(seed, 7002, o)`, so every SAGE output values the
    same memo terms, have `value_specs(specs)` return each surplus's SE
    (its mask of every column) and a row of m floats per context with that
    surplus first, and `pool` the rows. One context reports its surplus's
    own SE as the first column's (a pooled row has none). Returns the
    contexts, the n_orders x m rows and the m (mean, SE) pairs."""
    d = ev.data.n_cols
    check_orders(n_orders, name)
    if not 0 <= j < d:
        raise DimensionMismatch(f"SAGE target {j} is not a column index in 0..{d - 1}")
    contexts = sage_contexts(d, j, n_orders, seed)
    surplus_se, rows = value_specs([ev._surplus_spec(variant, [j], c, n_mc, derive_seed(seed, 7002, o), "AI_via")
                                    for o, c in enumerate(contexts)])
    rows = np.asarray(rows, dtype=float)
    mean, se = pool(rows)
    if n_orders == 1:
        se[0] = surplus_se[0]
    return contexts, rows, list(zip(mean.tolist(), se.tolist()))


def sage_contexts(d: int, j: int, n_orders: int, seed: int) -> list[list[int]]:
    """The columns preceding j in each of n_orders uniformly random orders."""
    rng = np.random.default_rng(derive_seed(seed, 7001))
    contexts = []
    for _ in range(n_orders):
        perm = rng.permutation(d)
        pos = int(np.where(perm == j)[0][0])
        contexts.append([int(c) for c in perm[:pos]])
    return contexts


def check_orders(n_orders: int, name: str) -> None:
    """An order count must be at least 1: the mean of no orders is NaN."""
    if n_orders < 1:
        raise DimensionMismatch(f"{name} must be >= 1, got {n_orders}")


def pool(rows) -> tuple[np.ndarray, np.ndarray]:
    """The means and standard errors of the M columns of an R x M array
    over its R rows: repetitions, orders or contexts. Each column is
    summed in index order, as the last running sum of `np.add.accumulate`
    down the rows, so a column pools to the same floats whatever columns
    stand beside it (numpy's own reductions sum a lone column pairwise).
    `+ 0.0` turns a mean of -0.0 into 0.0; one row has SE 0."""
    rows = np.asarray(rows, dtype=float)
    n = len(rows)
    mean = np.add.accumulate(rows, axis=0)[-1] / n + 0.0
    if n == 1:
        return mean, np.zeros_like(mean)
    dev = rows - mean
    return mean, np.sqrt(np.add.accumulate(dev * dev, axis=0)[-1] / (n - 1)) / np.sqrt(n)
