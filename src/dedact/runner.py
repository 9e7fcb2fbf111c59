"""Experiment orchestration: ingestion, configuration, runs, and bundles."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import platform
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .core import (
    SQUARED_ERROR,
    CROSS_ENTROPY,
    DataMatrix,
    FeatureIndexSet,
    ImportanceEstimate,
    LossFunction,
    TargetVector,
    derive_seed,
    fit_ols,
)
from .decompose import (
    SOLVERS,
    DecompositionTable,
    fast_decompose_ai,
    fast_decompose_pfi,
    fast_decompose_pfi_ordered,
    fast_decompose_sage,
    shapley_decompose_pfi,
    shapley_decompose_sage,
)
from .errors import ConfigError, DedactError, MissingTarget, ParseError
from .importance import MODES, SAGE_VARIANTS, ImportanceEvaluator
from .sampler import fit_gaussian
from .scm import LinearSCM, biomarker_scm, census_scm, sample_scm

BUILTIN_SCMS = {"biomarker": biomarker_scm, "census": census_scm}
OUTPUT_FORMATS = ("csv", "json")
LOSSES = {"squared_error": SQUARED_ERROR, "cross_entropy": CROSS_ENTROPY}


def ingest_csv(path, target_column: str) -> tuple[DataMatrix, TargetVector]:
    """Read a numeric CSV with a header row; the target column is split off."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: file not found")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0]:
        raise ParseError(f"{path}: no header")
    header = rows[0]
    if target_column not in header:
        raise MissingTarget(f"{path}: target column {target_column!r} not in header")
    if len(rows) < 2:
        raise ParseError(f"{path}: no data rows")
    t_idx = header.index(target_column)
    parsed = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        out = []
        for c, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ParseError(f"{path}: row {r}, column {header[c]!r}: cannot parse {cell!r} as a finite real")
            out.append(value)
        parsed.append(out)
    values = np.asarray(parsed, dtype=float)
    feature_cols = [c for c in range(len(header)) if c != t_idx]
    data = DataMatrix(values[:, feature_cols], tuple(header[c] for c in feature_cols))
    return data, TargetVector(values[:, t_idx])


def train_eval_split(data: DataMatrix, target: TargetVector, fraction: float = 0.5, seed: int = 0):
    """Disjoint (fit, eval) split; the evaluator must never see fit rows."""
    rng = np.random.default_rng(derive_seed(seed, 90))
    perm = rng.permutation(data.n_rows)
    n_fit = int(round(data.n_rows * fraction))
    fit_rows, eval_rows = perm[:n_fit], perm[n_fit:]
    return (
        data.select_rows(fit_rows), target.select_rows(fit_rows),
        data.select_rows(eval_rows), target.select_rows(eval_rows),
    )


@dataclass(frozen=True)
class RunConfig:
    raw: dict

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as fh:
            raw = yaml.safe_load(fh)
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a mapping")
        return cls(raw=raw)

    def __post_init__(self):
        if "seed" not in self.raw:
            raise ConfigError("config requires an explicit 'seed' (no wall-clock default)")
        if "data" not in self.raw:
            raise ConfigError("config requires a 'data' block")
        try:
            int(self.raw["seed"])
        except (TypeError, ValueError):
            raise ConfigError(f"'seed' must be an integer, got {self.raw['seed']!r}") from None

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    @property
    def split_fraction(self) -> float:
        """The share of rows the model and the Gaussian are fitted on: a
        real strictly between 0 and 1."""
        value = self.raw.get("split_fraction", 0.5)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 < value < 1.0:
            raise ConfigError(f"[config] 'split_fraction' must be a real strictly between 0 and 1, got {value!r}")
        return float(value)

    @property
    def output(self) -> tuple[str | None, tuple[str, ...]]:
        """The output block's directory (None when not given) and formats."""
        block = self.raw.get("output", {})
        if not isinstance(block, dict):
            raise ConfigError(f"[output] 'output' must be a mapping, got {block!r}")
        directory = block.get("directory")
        if "directory" in block and not isinstance(directory, str):
            raise ConfigError(f"[output] 'directory' must be a string, got {directory!r}")
        formats = block.get("formats", list(OUTPUT_FORMATS))
        if not isinstance(formats, list) or not formats or any(f not in OUTPUT_FORMATS for f in formats):
            raise ConfigError(f"[output] 'formats' must be a non-empty list drawn from"
                              f" {', '.join(OUTPUT_FORMATS)}, got {formats!r}")
        return directory, tuple(formats)


def _resolve_columns(names, data: DataMatrix, block: str) -> list[int]:
    out = []
    for name in names or []:
        if name not in data.column_names:
            raise ConfigError(f"[{block}] unknown column {name!r}")
        out.append(data.index_of(name))
    return out


def _required(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"[{where}] missing required key {key!r}")
    return block[key]


def _int_key(block: dict, key: str, default, where: str, minimum: int | None = None):
    """block[key] (or the default) as an int of at least `minimum`; None
    stays None."""
    value = block.get(key, default)
    if value is None:
        return None
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"[{where}] {key!r} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ConfigError(f"[{where}] {key!r} must be at least {minimum}, got {value!r}")
    return number


def _bool_key(block: dict, key: str, default: bool, where: str) -> bool:
    """block[key] (or the default), which must be a YAML boolean: a
    quoted "false" would otherwise read as true."""
    value = block.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"[{where}] {key!r} must be true or false, got {value!r}")
    return value


def _choice(block: dict, key: str, default, choices, where: str):
    """block[key] (or the default), which must be one of `choices`."""
    value = block.get(key, default)
    if value not in choices:
        raise ConfigError(f"[{where}] {key!r} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _loss(config: RunConfig) -> LossFunction:
    if config.raw.get("loss") is None:  # a bare `loss:` keeps the default
        return SQUARED_ERROR
    return LOSSES[_choice(config.raw, "loss", None, tuple(LOSSES), "config")]


def _check_choices(config: RunConfig) -> None:
    """Every enumerated key of the config, before anything is computed."""
    _loss(config)
    for block in _blocks(config, "measures"):
        name = block.get("name", block.get("measure", "?"))
        _choice(block, "mode", "original_f", MODES, name)
        _choice(block, "variant", "conditional", SAGE_VARIANTS, name)
    for block in _blocks(config, "decompositions"):
        _choice(block, "solver", "auto", SOLVERS, block.get("name", block.get("method", "?")))


@dataclass
class ResultBundle:
    config_echo: dict
    estimates: list = field(default_factory=list)
    tables: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add_estimate(self, name: str, est: ImportanceEstimate) -> None:
        self.estimates.append({
            "name": name,
            "value": est.value,
            "std_error": est.std_error,
            "n_mc": est.n_mc,
            "mode": est.mode,
            "sets": {k: list(v) if isinstance(v, tuple) else v for k, v in est.sets.items()},
            "seed": est.seed,
        })

    def add_table(self, name: str, table: DecompositionTable) -> None:
        entry = table.as_dict()
        entry["name"] = name
        entry["order_log"] = table.order_log
        self.tables.append(entry)

    def as_dict(self) -> dict:
        return {
            "config": self.config_echo,
            "estimates": self.estimates,
            "tables": self.tables,
            "metadata": self.metadata,
        }

    def write(self, outdir, formats=("csv", "json")) -> None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        if "json" in formats:
            with open(outdir / "bundle.json", "w") as fh:
                json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
        if "csv" in formats:
            with open(outdir / "estimates.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["name", "value", "std_error", "n_mc", "mode", "seed"])
                for e in self.estimates:
                    writer.writerow([e["name"], repr(e["value"]), repr(e["std_error"]),
                                     e["n_mc"], e["mode"], e["seed"]])
            for t in self.tables:
                with open(outdir / f"table_{t['name']}.csv", "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["target", "method", "source", "value", "std_error"])
                    writer.writerow([t["target"], t["method"], "__total__",
                                     repr(t["total"]), repr(t["total_se"])])
                    for source, comp in t["components"].items():
                        writer.writerow([t["target"], t["method"], source,
                                         repr(comp["value"]), repr(comp["se"])])
                    writer.writerow([t["target"], t["method"], "__remainder__",
                                     repr(t["remainder"]), ""])
        with open(outdir / "metadata.json", "w") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True)


def _content_hash(config: dict, data: DataMatrix, target: TargetVector) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(config, sort_keys=True, default=str).encode())
    digest.update(np.ascontiguousarray(data.values).tobytes())
    digest.update(np.ascontiguousarray(target.values).tobytes())
    return digest.hexdigest()


def _load_data(config: RunConfig) -> tuple[DataMatrix, TargetVector, LinearSCM | None]:
    block = config.raw["data"]
    if "csv" in block:
        if "target_column" not in block:
            raise ConfigError("[data] csv source requires 'target_column'")
        data, target = ingest_csv(block["csv"], block["target_column"])
        return data, target, None
    if "scm" in block:
        name = block["scm"]
        if name in BUILTIN_SCMS:
            scm = BUILTIN_SCMS[name]()
        else:
            with open(name) as fh:
                scm = LinearSCM.from_config(yaml.safe_load(fh))
        # at least 2 rows on each side of the fit / evaluation split
        n = _int_key(block, "n", 20000, "data", minimum=4)
        include_observed = _bool_key(block, "include_observed", False, "data")
        data, target = sample_scm(scm, n, derive_seed(config.seed, 1), include_observed)
        return data, target, scm
    raise ConfigError("[data] block needs either 'csv' or 'scm'")


def build_evaluator(config: RunConfig):
    """Shared fit pipeline: load, split, fit OLS + Gaussian, wrap evaluator."""
    data, target, scm = _load_data(config)
    fraction = config.split_fraction
    n_fit = int(round(data.n_rows * fraction))
    if min(n_fit, data.n_rows - n_fit) < 2:
        raise ConfigError(f"[config] 'split_fraction' {fraction!r} leaves {n_fit} fit and"
                          f" {data.n_rows - n_fit} evaluation rows of {data.n_rows}; each side needs 2")
    fit_x, fit_y, eval_x, eval_y = train_eval_split(data, target, fraction, config.seed)
    model_block = config.raw.get("model", {})
    if "support" in model_block:
        support = FeatureIndexSet.of(_resolve_columns(model_block["support"], data, "model"))
    elif scm is not None:
        support = FeatureIndexSet.of(
            i for i, name in enumerate(data.column_names) if scm.roles.get(name) == "feature"
        )
    else:
        support = FeatureIndexSet.full(data.n_cols)
    predictor = fit_ols(fit_x, fit_y, support)
    gaussian = fit_gaussian(fit_x)
    evaluator = ImportanceEvaluator(
        eval_x, eval_y, predictor, gaussian, loss=_loss(config),
        n_mc=_int_key(config.raw, "n_mc", 20, "config", minimum=1), seed=config.seed,
        exact_marginalization=_bool_key(config.raw, "exact_marginalization", False, "config"),
    )
    return evaluator, data, target


def _run_measure(evaluator: ImportanceEvaluator, block: dict, data: DataMatrix) -> ImportanceEstimate:
    name = block.get("name", "?")
    kind = block.get("measure")
    interest = _resolve_columns(block.get("interest"), data, name)
    baseline = _resolve_columns(block.get("baseline"), data, name)
    aux = _resolve_columns(block.get("aux"), data, name)
    mode = block.get("mode", "original_f")
    n_mc = _int_key(block, "n_mc", None, name, minimum=1)
    seed = _int_key(block, "seed", None, name)
    if kind in ("PFI", "conditional_FI", "SAGE_attribution") and not interest:
        raise ConfigError(f"[{name}] measure {kind} needs one 'interest' column")
    if kind == "DI":
        return evaluator.direct_importance(interest, baseline, mode, n_mc, seed)
    if kind == "AI":
        return evaluator.associative_importance(interest, baseline, mode, n_mc, seed)
    if kind == "DI_from":
        return evaluator.di_from(interest, baseline, aux, mode, n_mc, seed)
    if kind == "AI_via":
        return evaluator.ai_via(interest, baseline, aux, mode, n_mc, seed)
    if kind == "PFI":
        return evaluator.pfi(interest[0], n_mc, seed)
    if kind == "conditional_FI":
        return evaluator.conditional_fi(interest[0], n_mc, seed)
    if kind == "SAGE_value":
        return evaluator.sage_value(interest, block.get("variant", "conditional"), n_mc, seed)
    if kind == "SAGE_attribution":
        return evaluator.sage_attribution(
            interest[0], block.get("variant", "conditional"),
            _int_key(block, "n_orders", 60, name, minimum=1), n_mc, seed,
        )
    raise ConfigError(f"[{name}] unknown measure {kind!r}")


def _run_decomposition(evaluator: ImportanceEvaluator, block: dict, data: DataMatrix) -> DecompositionTable:
    name = block.get("name", "?")
    method = block.get("method", "fast")
    kind = block.get("kind", "pfi")
    k = _resolve_columns([_required(block, "target", name)], data, name)[0]
    sources = _resolve_columns(block.get("sources"), data, name) or None
    pathways = _resolve_columns(block.get("pathways"), data, name) or None
    n_mc = _int_key(block, "n_mc", None, name, minimum=1)
    seed = _int_key(block, "seed", None, name)
    if kind == "pfi":
        if method == "fast":
            return fast_decompose_pfi(evaluator, k, sources, n_mc, seed)
        if method == "fast_ordered":
            order = _resolve_columns(_required(block, "order", name), data, name)
            return fast_decompose_pfi_ordered(evaluator, k, order, n_mc, seed)
        if method == "shapley":
            return shapley_decompose_pfi(
                evaluator, k, sources, block.get("solver", "auto"),
                _int_key(block, "n_orders", 50, name, minimum=1), n_mc, seed,
            )
    if kind == "ai" and method == "fast":
        return fast_decompose_ai(evaluator, k, pathways, n_mc, seed)
    if kind == "sage":
        if method == "fast":
            return fast_decompose_sage(
                evaluator, k, pathways, _int_key(block, "n_orders", 25, name, minimum=1), n_mc, seed
            )
        if method == "shapley":
            return shapley_decompose_sage(
                evaluator, k, pathways, block.get("solver", "auto"),
                _int_key(block, "n_sage_orders", 60, name, minimum=1),
                _int_key(block, "n_decomp_orders", 25, name, minimum=1), n_mc, seed,
            )
    raise ConfigError(f"[{name}] unknown decomposition method {method!r} for kind {kind!r}")


def _blocks(config: RunConfig, section: str) -> list[dict]:
    blocks = config.raw.get(section) or []
    if not isinstance(blocks, list):
        raise ConfigError(f"[{section}] must be a list of mappings, got {blocks!r}")
    for i, block in enumerate(blocks):
        if not isinstance(block, dict):
            raise ConfigError(f"[{section}] entry {i} must be a mapping, got {block!r}")
    return blocks


def _in_block(exc: DedactError, name: str) -> DedactError:
    """The same error with the block name in front of its message, once."""
    prefix = f"[{name}] "
    message = str(exc)
    return type(exc)(message if message.startswith(prefix) else prefix + message)


def run(config: RunConfig, outdir=None) -> ResultBundle:
    """Execute fit -> gaussian -> measures -> decompositions, in declared order."""
    _check_choices(config)
    directory, formats = config.output
    evaluator, data, target = build_evaluator(config)
    bundle = ResultBundle(config_echo=dict(config.raw))
    bundle.metadata = {
        "seed": config.seed,
        "input_hash": _content_hash(config.raw, data, target),
        "n_rows": data.n_rows,
        "columns": list(data.column_names),
        "versions": {"dedact": __version__, "numpy": np.__version__, "python": platform.python_version()},
    }
    for block in _blocks(config, "measures"):
        name = block.get("name", block.get("measure", "?"))
        try:
            bundle.add_estimate(name, _run_measure(evaluator, block, data))
        except DedactError as exc:
            raise _in_block(exc, name) from exc
    for block in _blocks(config, "decompositions"):
        name = block.get("name", block.get("method", "?"))
        try:
            bundle.add_table(name, _run_decomposition(evaluator, block, data))
        except DedactError as exc:
            raise _in_block(exc, name) from exc
    bundle.metadata["engine"] = evaluator.counters()
    outdir = outdir or directory
    if outdir:
        bundle.write(outdir, formats)
    return bundle


def run_biomarker_demo(seed: int = 0, n: int = 20000, n_mc: int = 20, outdir=None) -> ResultBundle:
    """Tables behind the biomarker figures: AI of the hidden driver, its
    two feature-pathway components, PFI of the proxy, and its sources."""
    return run(RunConfig({
        "seed": seed,
        "data": {"scm": "biomarker", "n": n, "include_observed": True},
        "n_mc": n_mc,
        "measures": [
            {"name": "AI_PSA", "measure": "AI", "interest": ["P"], "baseline": []},
            {"name": "AI_PSA_via_B", "measure": "AI_via", "interest": ["P"], "baseline": [], "aux": ["B"]},
            {"name": "AI_PSA_via_C", "measure": "AI_via", "interest": ["P"], "baseline": [], "aux": ["C"]},
            {"name": "PFI_cycling", "measure": "PFI", "interest": ["C"]},
        ],
        "decompositions": [
            {"name": "AI_PSA_pathways", "kind": "ai", "method": "fast", "target": "P",
             "pathways": ["B", "C"]},
            {"name": "PFI_cycling_sources", "kind": "pfi", "method": "fast", "target": "C",
             "sources": ["B", "C", "P"]},
        ],
    }), outdir)


def run_census_demo(seed: int = 0, n: int = 20000, n_sage_orders: int = 60,
                    n_decomp_orders: int = 25, game_n_mc: int = 3, outdir=None) -> ResultBundle:
    """Shapley SAGE pathway tables for the protected roots and Shapley
    PFI source tables for three mediator features.

    The PFI tables take every column but the target as a player, so each
    table's remainder is the target's conditional FI, not zero.
    """
    columns = census_scm().data_columns()
    sage = [
        {"name": f"sage_{v}", "kind": "sage", "method": "shapley", "target": v,
         "n_sage_orders": n_sage_orders, "n_decomp_orders": n_decomp_orders}
        for v in ("race", "sex", "age")
    ]
    pfi = [
        {"name": f"pfi_{f}", "kind": "pfi", "method": "shapley", "target": f, "n_orders": 50,
         "sources": [c for c in columns if c != f]}
        for f in ("nr_educ", "work_class", "occupation")
    ]
    return run(RunConfig({
        "seed": seed,
        "data": {"scm": "census", "n": n},
        "n_mc": game_n_mc,
        # linear model: closed-form marginalization is exact and far cheaper
        "exact_marginalization": True,
        "decompositions": sage + pfi,
    }), outdir)
