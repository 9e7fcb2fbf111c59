"""Experiment orchestration: ingestion, configuration, runs, and bundles."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
from array import array
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from . import __version__
from .core import (
    MOMENT_BLOCK_ROWS,
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
    EXACT_SOLVER_MAX_PLAYERS,
    SOLVERS,
    DecompositionTable,
    fast_decompose_ai,
    fast_decompose_pfi,
    fast_decompose_pfi_ordered,
    fast_decompose_sage,
    shapley_decompose_pfi,
    shapley_decompose_sage,
)
from .errors import (
    ConfigError,
    DedactError,
    InsufficientRows,
    InvalidTarget,
    MissingTarget,
    ParseError,
    SingularConditioning,
    SingularDesign,
)
from .importance import MEASURES, MODES, SAGE_VARIANTS, ImportanceEvaluator
from .sampler import fit_gaussian
from .scm import LinearSCM, biomarker_scm, census_scm, sample_scm

BUILTIN_SCMS = {"biomarker": biomarker_scm, "census": census_scm}
OUTPUT_FORMATS = ("csv", "json")
LOSSES = {"squared_error": SQUARED_ERROR, "cross_entropy": CROSS_ENTROPY}


def ingest_csv(path, target_column: str) -> tuple[DataMatrix, TargetVector]:
    """Read a numeric CSV with a header row; the target column is split off.

    The file is read as UTF-8, a leading byte-order mark dropped. Rows
    are parsed as they are read into one growing array of doubles, so
    neither the file's text nor one float object per value is ever held
    whole. The features and the target are copied out of that buffer, so
    it is freed on return. The features come back C-ordered, as a sampled
    SCM's do: the input hash reads them in place and the split shuffles
    them in place. A row the csv module rejects, such as a cell past its
    field size limit, is a ParseError naming the row.
    """
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: file not found")
    values = array("d")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:
                raise ParseError(f"{path}: no header")
            # a repeated name would make one of its columns the target and feed
            # the other to the model, so every name must be non-empty and unique
            first: dict[str, int] = {}
            for c, name in enumerate(header, start=1):
                if not name.strip():
                    raise ParseError(f"{path}: header column {c} has an empty name")
                if name in first:
                    raise ParseError(f"{path}: header column {c} repeats the name {name!r} of column {first[name]}")
                first[name] = c
            if target_column not in header:
                raise MissingTarget(f"{path}: target column {target_column!r} not in header")
            if len(header) == 1:
                raise ParseError(f"{path}: the header holds only the target column {target_column!r};"
                                 " at least one feature column is needed")
            for r, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise ParseError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
                for c, cell in enumerate(row):
                    try:
                        value = float(cell)
                    except ValueError:
                        value = math.nan
                    if not math.isfinite(value):
                        raise ParseError(f"{path}: row {r}, column {header[c]!r}: cannot parse {cell!r} as a finite real")
                    values.append(value)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: row {_undecodable_row(path)} is not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:  # line_num counts physical lines, as _undecodable_row does
        raise ParseError(f"{path}: row {reader.line_num}: {exc}") from exc
    if not values:
        raise ParseError(f"{path}: no data rows")
    values = np.frombuffer(values).reshape(-1, len(header))
    if len(values) < 2:
        raise ParseError(f"{path}: one data row; at least 2 are needed")
    t_idx = header.index(target_column)
    names = tuple(name for c, name in enumerate(header) if c != t_idx)
    return DataMatrix(np.delete(values, t_idx, axis=1), names), TargetVector(values[:, t_idx].copy())


def _undecodable_row(path: Path) -> int:
    """The first line of the file that is not UTF-8: a text reader decodes
    ahead of the row it returns, so its error does not say which row."""
    with open(path, "rb") as fh:
        for r, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                break
    return r


def train_eval_split(data: DataMatrix, target: TargetVector, fraction: float = 0.5, seed: int = 0):
    """Disjoint (fit, eval) split; the evaluator must never see fit rows.

    The rows are those of `data` and `target` at a seeded permutation: the
    first round(n * fraction) are the fit rows. The split shuffles
    C-ordered copies of the arrays, so the caller's are left as they are
    and its four parts share no memory with them.
    """
    return _shuffle_split(data.values.copy(), target.values.copy(), data.column_names, fraction, seed)


def _shuffle_split(x: np.ndarray, y: np.ndarray, names: tuple[str, ...], fraction: float, seed: int):
    """Permute the rows of `x` and `y` in place, one column at a time, and
    split them into (fit x, fit y, eval x, eval y), row slices of the two
    buffers. The caller's arrays are overwritten, and beside them only the
    permutation (narrowed to 32 bits below 2**31 rows) and one scratch
    column are held.
    Of the seeded permutation perm, the first n_fit = round(n * fraction)
    entries pick the fit rows and the rest the evaluation rows, each part
    bit for bit what the fancy index `x[perm[:n_fit]]` or
    `x[perm[n_fit:]]` gathers. Each column is gathered into the scratch
    column from `perm[n_fit:]` and then `perm[:n_fit]`, MOMENT_BLOCK_ROWS
    indices at a time, and copied back. So the buffers hold the
    evaluation rows first: they are the leading rows, so a caller done
    with the fit rows can shrink the buffers to them in place. `x` must be
    C-contiguous, so that its row slices are, and `y` must not share
    memory with it, or its values would be permuted twice."""
    n = len(y)
    # Generator.permutation(n) is arange(n) shuffled: the same permutation.
    # It is shuffled as int64, for which Generator.shuffle has a fast path
    # (it copies other item sizes one by one), then narrowed: the int64
    # array and its int32 copy hold 1.5 n doubles, as the int32 one and
    # the scratch column do later
    perm = np.arange(n)
    np.random.default_rng(derive_seed(seed, 90)).shuffle(perm)
    if n < 2**31:
        perm = perm.astype(np.int32)
    n_fit = int(round(n * fraction))
    n_eval = n - n_fit
    buf = np.empty(n)
    blocks = [part[a:a + MOMENT_BLOCK_ROWS] for part in (perm[n_fit:], perm[:n_fit])
              for a in range(0, len(part), MOMENT_BLOCK_ROWS)]
    for col in (*x.T, y):
        at = 0
        for rows in blocks:
            buf[at:at + len(rows)] = col[rows]
            at += len(rows)
        col[:] = buf
    return (
        DataMatrix(x[n_eval:], names), TargetVector(y[n_eval:]),
        DataMatrix(x[:n_eval], names), TargetVector(y[:n_eval]),
    )


@dataclass(frozen=True)
class RunConfig:
    raw: dict

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        raw = _load_yaml(path)
        if not isinstance(raw, dict):
            got = "an empty file" if raw is None else f"a YAML {type(raw).__name__}"
            raise ConfigError(f"[config] {path}: a config must be a mapping of keys, got {got}")
        return cls(raw=raw)

    @property
    def seed(self) -> int:
        if "seed" not in self.raw:
            raise ConfigError("config requires an explicit 'seed' (no wall-clock default)")
        return _int_key(self.raw, "seed", None, "config", minimum=0)

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
        block = _mapping(self.raw, "output")
        _known_keys(block, "output", "output")
        directory = _str_key(block, "directory", "output") if "directory" in block else None
        formats = block.get("formats", list(OUTPUT_FORMATS))
        if not isinstance(formats, list) or not formats or any(f not in OUTPUT_FORMATS for f in formats):
            raise ConfigError(f"[output] 'formats' must be a non-empty list drawn from"
                              f" {', '.join(OUTPUT_FORMATS)}, got {formats!r}")
        return directory, tuple(formats)


# Every key is read through one of the readers below, at one site, and a
# value of the wrong type is a ConfigError naming the block and the key.
# A key outside its block's list below is one too: a misspelt key would
# otherwise be ignored, and its default silently used.
_KEYS = {
    "config": ("seed", "data", "split_fraction", "loss", "n_mc", "exact_marginalization", "model", "output",
               "measures", "decompositions"),
    "data": ("csv", "target_column", "scm", "n", "include_observed"),
    "model": ("support",),
    "output": ("directory", "formats"),
    "measures": ("name", "measure", "interest", "baseline", "aux", "mode", "variant", "n_orders", "n_mc", "seed"),
    "decompositions": ("name", "kind", "method", "target", "sources", "pathways", "order", "solver", "n_orders",
                       "n_sage_orders", "n_decomp_orders", "n_mc", "seed"),
}


def _known_keys(block: dict, section: str, where: str) -> None:
    for key in block:
        if key not in _KEYS[section]:
            raise ConfigError(f"[{where}] unknown key {key!r}; the keys of {section} are {', '.join(_KEYS[section])}")


def _reads_only(block: dict, keys: tuple, where: str, what: str) -> None:
    """A key given to a block whose measure or method does not read it is
    a ConfigError too: it would otherwise be dropped unread."""
    for key in block:
        if key not in keys:
            raise ConfigError(f"[{where}] {what} does not read {key!r}; it reads {', '.join(keys)}")


def _required(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"[{where}] missing required key {key!r}")
    return block[key]


def _mapping(raw: dict, key: str) -> dict:
    """raw[key], a mapping (empty when the key is absent)."""
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"[{key}] {key!r} must be a mapping, got {value!r}")
    return value


def _str_key(block: dict, key: str, where: str) -> str:
    """block[key], which is required and must be a string."""
    value = _required(block, key, where)
    if not isinstance(value, str):
        raise ConfigError(f"[{where}] {key!r} must be a string, got {value!r}")
    return value


def _int_key(block: dict, key: str, default, where: str, minimum: int | None = None):
    """block[key], which must be a YAML integer of at least `minimum`, or
    the default when the key is absent."""
    if key not in block:
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"[{where}] {key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"[{where}] {key!r} must be at least {minimum}, got {value!r}")
    return value


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


def _index(data: DataMatrix, name: str, where: str) -> int:
    if name not in data.column_names:
        raise ConfigError(f"[{where}] unknown column {name!r}")
    return data.index_of(name)


def _columns(block: dict, key: str, data: DataMatrix, where: str, required: bool = False) -> list[int]:
    """block[key], a YAML list of column names, as column indices; an
    absent key is the empty list unless it is required."""
    names = _required(block, key, where) if required else block.get(key, [])
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ConfigError(f"[{where}] {key!r} must be a list of column names, got {names!r}")
    for i, name in enumerate(names):
        if name in names[:i]:  # a repeated column would lose one of its components
            raise ConfigError(f"[{where}] {key!r} names the column {name!r} twice")
    return [_index(data, name, where) for name in names]


def _loss(raw: dict) -> LossFunction:
    if raw.get("loss") is None:  # a bare `loss:` keeps the default
        return SQUARED_ERROR
    return LOSSES[_choice(raw, "loss", None, tuple(LOSSES), "config")]


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
        """Write the bundle's files into outdir, as UTF-8 text."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        if "json" in formats:
            with open(outdir / "bundle.json", "w", encoding="utf-8") as fh:
                json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
        if "csv" in formats:
            with open(outdir / "estimates.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["name", "value", "std_error", "n_mc", "mode", "seed"])
                for e in self.estimates:
                    writer.writerow([e["name"], repr(e["value"]), repr(e["std_error"]),
                                     e["n_mc"], e["mode"], e["seed"]])
            for t in self.tables:
                # the file name's bytes are UTF-8 whatever the locale: through
                # surrogate escapes, a name an ASCII locale cannot encode
                # still round-trips to them
                name = os.fsdecode(f"table_{t['name']}.csv".encode("utf-8"))
                with open(outdir / name, "w", newline="", encoding="utf-8") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["target", "method", "source", "value", "std_error"])
                    writer.writerow([t["target"], t["method"], "__total__",
                                     repr(t["total"]), repr(t["total_se"])])
                    for source, comp in t["components"].items():
                        writer.writerow([t["target"], t["method"], source,
                                         repr(comp["value"]), repr(comp["se"])])
                    writer.writerow([t["target"], t["method"], "__remainder__",
                                     repr(t["remainder"]), ""])
        with open(outdir / "metadata.json", "w", encoding="utf-8") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True)


def _content_hash(config: dict, data: DataMatrix, target: TargetVector) -> str:
    """SHA-256 of the config and the C-ordered bytes of the data and the
    target, which sha256 reads in place through the buffer protocol."""
    digest = hashlib.sha256()
    digest.update(json.dumps(config, sort_keys=True, default=str).encode())
    digest.update(np.ascontiguousarray(data.values))
    digest.update(np.ascontiguousarray(target.values))
    return digest.hexdigest()


def _load_yaml(path):
    """The document of a YAML file, which must be UTF-8 text; other bytes
    are a ParseError naming the file, as a YAML syntax error names it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def load_scm(source: str, include_observed: bool = False) -> LinearSCM:
    """A builtin SCM by name, else one read from a YAML file in the
    `LinearSCM.to_config()` schema; an error in the file names the file,
    as does an SCM that would emit no data column (observed-role nodes
    count with `include_observed`)."""
    if source in BUILTIN_SCMS:
        return BUILTIN_SCMS[source]()
    raw = _load_yaml(source)
    try:
        scm = LinearSCM.from_config(raw)
    except DedactError as exc:
        raise type(exc)(f"{source}: {exc}") from exc
    if not scm.data_columns(include_observed):
        roles = "feature or observed" if include_observed else "feature"
        raise ParseError(f"{source}: no node has role {roles}, so the SCM emits no data column")
    return scm


def simulate(source: str, n: int, seed: int, include_observed: bool = False, n_key: str = "--n"):
    """The SCM of `source` (see `load_scm`) and n rows sampled from it; a
    node whose sampled values overflow is named after the source, and n
    rows that cannot be allocated after `n_key`, the setting that asked
    for them."""
    scm = load_scm(source, include_observed)
    try:
        return (scm, *sample_scm(scm, n, seed, include_observed))
    except ConfigError as exc:  # the n x d matrix cannot be allocated
        raise ConfigError(f"{n_key} is too large for {source}: {exc}") from exc
    except DedactError as exc:
        raise type(exc)(f"{source}: {exc}") from exc


def _load_data(block: dict, seed: int) -> tuple[DataMatrix, TargetVector, LinearSCM | None]:
    """The data block's rows, once every key of the block is checked; a
    key that the block's source does not read is a ConfigError."""
    if "csv" in block:
        _reads_only(block, ("csv", "target_column"), "data", "a csv source")
        path, column = _str_key(block, "csv", "data"), _str_key(block, "target_column", "data")
        return (*ingest_csv(path, column), None)
    if "scm" in block:
        _reads_only(block, ("scm", "n", "include_observed"), "data", "an scm source")
        source = _str_key(block, "scm", "data")
        # at least 2 rows on each side of the fit / evaluation split
        n = _int_key(block, "n", 20000, "data", minimum=4)
        include_observed = _bool_key(block, "include_observed", False, "data")
        scm, data, target = simulate(source, n, derive_seed(seed, 1), include_observed, "[data] 'n'")
        return data, target, scm
    raise ConfigError("[data] block needs either 'csv' or 'scm'")


def _check_target(target: TargetVector, loss: LossFunction, block: dict, scm: LinearSCM | None) -> None:
    """Cross-entropy scores a target in [0, 1] only: any other value is a
    data error naming the target column, the first row holding one and
    its value."""
    if loss.kind != "cross_entropy":
        return
    outside = np.flatnonzero((target.values < 0.0) | (target.values > 1.0))
    if outside.size:
        i = int(outside[0])
        if scm is None:  # a CSV, whose row 1 is the header
            where = f"{block['csv']}: row {i + 2}, target column {block['target_column']!r}"
        else:
            where = f"[data] scm {block['scm']!r}: sampled row {i + 1}, target column {scm.supervision_node!r}"
        raise InvalidTarget(f"{where} holds {float(target.values[i])!r}; loss cross_entropy needs a target in [0, 1]")


def _block_name(block: dict, fallback, section: str) -> str:
    """The block's name, else its measure or method, else the section: it
    labels the block's result and its errors."""
    name = block.get("name", fallback if isinstance(fallback, str) else section)
    if not isinstance(name, str):
        raise ConfigError(f"[{section}] 'name' must be a string, got {name!r}")
    return name


def _resolve_measure(block: dict, data: DataMatrix) -> tuple[str, Callable]:
    """The block's name and its call on an evaluator, every key read and
    checked."""
    kind = block.get("measure")
    name = _block_name(block, kind, "measures")
    _known_keys(block, "measures", name)
    interest = _columns(block, "interest", data, name)
    baseline = _columns(block, "baseline", data, name)
    aux = _columns(block, "aux", data, name)
    mode = _choice(block, "mode", "original_f", MODES, name)
    variant = _choice(block, "variant", "conditional", SAGE_VARIANTS, name)
    n_orders = _int_key(block, "n_orders", 60, name, minimum=1)
    n_mc = _int_key(block, "n_mc", None, name, minimum=1)
    seed = _int_key(block, "seed", None, name, minimum=0)
    if kind in ("PFI", "conditional_FI", "SAGE_attribution") and len(interest) != 1:
        raise ConfigError(f"[{name}] measure {kind} needs one 'interest' column, got {len(interest)}")
    # an empty interest or aux set would silently score 0.0 +/- 0.0
    if kind in MEASURES + ("SAGE_value",) and not interest:
        raise ConfigError(f"[{name}] measure {kind} needs at least one 'interest' column")
    if kind in ("DI_from", "AI_via") and not aux:
        raise ConfigError(f"[{name}] measure {kind} needs at least one 'aux' column")
    overlap = [data.column_names[c] for c in interest if c in baseline]
    if kind in MEASURES and overlap:
        raise ConfigError(f"[{name}] 'interest' overlaps 'baseline' on {', '.join(overlap)}")
    ev = ImportanceEvaluator
    reads = ("name", "measure", "interest", "n_mc", "seed")
    if kind in MEASURES:  # DI and AI read no aux: they are DI_from and AI_via through every column
        def call(evaluator, n_mc, seed):
            return evaluator.evaluate(evaluator._spec(kind, interest, baseline, aux, mode, n_mc, seed))
        reads += ("baseline", "mode") + (("aux",) if kind in ("DI_from", "AI_via") else ())
    elif kind == "PFI":
        call = partial(ev.pfi, k=interest[0])
    elif kind == "conditional_FI":
        call = partial(ev.conditional_fi, j=interest[0])
    elif kind == "SAGE_value":
        call = partial(ev.sage_value, subset=interest, variant=variant)
        reads += ("variant",)
    elif kind == "SAGE_attribution":
        call = partial(ev.sage_attribution, j=interest[0], variant=variant, n_orders=n_orders)
        reads += ("variant", "n_orders")
    else:
        raise ConfigError(f"[{name}] unknown measure {kind!r}")
    _reads_only(block, reads, name, f"measure {kind}")
    return name, partial(call, n_mc=n_mc, seed=seed)


def _resolve_decomposition(block: dict, data: DataMatrix) -> tuple[str, Callable]:
    """The block's name and its call on an evaluator, every key read and
    checked."""
    method = block.get("method", "fast")
    name = _block_name(block, method, "decompositions")
    _known_keys(block, "decompositions", name)
    kind = block.get("kind", "pfi")
    k = _index(data, _str_key(block, "target", name), name)
    for key in ("sources", "pathways", "order"):
        if block.get(key) == []:  # left out, sources and pathways are every column
            raise ConfigError(f"[{name}] {key!r} is an empty list; it must name at least one column")
    sources = _columns(block, "sources", data, name) or None
    pathways = _columns(block, "pathways", data, name) or None
    order = _columns(block, "order", data, name, required=method == "fast_ordered")
    solver = _choice(block, "solver", "auto", SOLVERS, name)
    n_orders = _int_key(block, "n_orders", 25 if kind == "sage" else 50, name, minimum=1)
    n_sage_orders = _int_key(block, "n_sage_orders", 60, name, minimum=1)
    n_decomp_orders = _int_key(block, "n_decomp_orders", 25, name, minimum=1)
    n_mc = _int_key(block, "n_mc", None, name, minimum=1)
    seed = _int_key(block, "seed", None, name, minimum=0)
    reads = ("name", "kind", "method", "target", "n_mc", "seed")
    if (kind, method) == ("pfi", "fast"):
        call = partial(fast_decompose_pfi, k=k, sources=sources)
        reads += ("sources",)
    elif (kind, method) == ("pfi", "fast_ordered"):
        call = partial(fast_decompose_pfi_ordered, k=k, order=order)
        reads += ("order",)
    elif (kind, method) == ("pfi", "shapley"):
        call = partial(shapley_decompose_pfi, k=k, players=sources, solver=solver, n_orders=n_orders)
        reads += ("sources", "solver", "n_orders")
    elif (kind, method) == ("ai", "fast"):
        call = partial(fast_decompose_ai, j=k, pathways=pathways)
        reads += ("pathways",)
    elif (kind, method) == ("sage", "fast"):
        call = partial(fast_decompose_sage, j=k, pathways=pathways, n_orders=n_orders)
        reads += ("pathways", "n_orders")
    elif (kind, method) == ("sage", "shapley"):
        call = partial(shapley_decompose_sage, j=k, pathways=pathways, solver=solver,
                       n_sage_orders=n_sage_orders, n_decomp_orders=n_decomp_orders)
        reads += ("pathways", "solver", "n_sage_orders", "n_decomp_orders")
    else:
        raise ConfigError(f"[{name}] unknown decomposition method {method!r} for kind {kind!r}")
    _reads_only(block, reads, name, f"kind {kind} with method {method}")
    n_players = len((sources if kind == "pfi" else pathways) or range(data.n_cols))
    if method == "shapley" and solver == "exact" and n_players > EXACT_SOLVER_MAX_PLAYERS:
        raise ConfigError(f"[{name}] 'solver' exact takes at most {EXACT_SOLVER_MAX_PLAYERS} players,"
                          f" got {n_players}; use 'sampled' or 'auto'")
    return name, partial(call, n_mc=n_mc, seed=seed)


def _check_table_names(names: list[str]) -> None:
    """A decomposition's name is part of its table's file name,
    `table_<name>.csv`: it must hold no path separator or NUL, and no two
    decompositions may share it."""
    seen: dict[str, int] = {}
    for i, name in enumerate(names):
        if any(ch in name for ch in "/\\\0"):
            raise ConfigError(f"[decompositions] entry {i}: 'name' {name!r} holds a path separator or NUL,"
                              " but it names the file table_<name>.csv")
        if name in seen:
            raise ConfigError(f"[decompositions] entry {i}: 'name' {name!r} repeats entry {seen[name]}'s,"
                              " but each table is written to its own file table_<name>.csv")
        seen[name] = i


def _blocks(raw: dict, section: str) -> list[dict]:
    blocks = raw.get(section) or []
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


def _check_output(outdir) -> None:
    """An output path must be a directory or creatable as one: the first
    of it and its parents that exists must be a directory."""
    if not outdir:
        return
    path = Path(outdir)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        where = "" if existing == path else f"cannot create {str(path)!r}: "
        raise ConfigError(f"[output] {where}{str(existing)!r} exists and is not a directory")


def run(config: RunConfig, outdir=None) -> ResultBundle:
    """Run a config in one pass: read and check every key, then fit and
    execute the measure and decomposition blocks in declared order.

    The top-level keys and the `data`, `model` and `output` blocks are
    read, and the output path (`outdir`, else the `output` directory)
    checked, before any data is loaded; the target is checked against
    the loss as soon as it is loaded, and every measure and decomposition
    block is resolved to a call as soon as the column names are known.
    So a config error in any block, or a target the loss cannot score,
    is raised before the model is fitted and before the first
    evaluation.

    The loaded data are held once. The metadata (the input hash among
    them) are taken from the rows in file or sample order; then the split
    shuffles the rows in place, so the evaluation rows are the leading
    row slice of the one loaded buffer and the fit rows the trailing one,
    and the split holds beside it only a 32-bit row permutation and one
    scratch column. The model and the Gaussian read the fit rows through
    `centred_moments`, one block of rows at a time. Then the buffers are
    shrunk in place to the evaluation rows, so the blocks hold only those
    and the fit rows are freed before the first evaluation; if something
    still holds a view of the buffers, such as a hooked fit, numpy refuses
    and the evaluation rows are copied out instead, the same bytes. The
    peak of set-up is the data plus 1.5 n doubles: the 32-bit permutation
    and the scratch column.
    """
    raw, seed = config.raw, config.seed
    _known_keys(raw, "config", "config")
    directory, formats = config.output
    outdir = outdir or directory
    _check_output(outdir)
    fraction = config.split_fraction
    loss = _loss(raw)
    n_mc = _int_key(raw, "n_mc", 20, "config", minimum=1)
    exact = _bool_key(raw, "exact_marginalization", False, "config")
    data_block, model = _mapping(raw, "data"), _mapping(raw, "model")
    _known_keys(data_block, "data", "data")
    _known_keys(model, "model", "model")
    measures, decompositions = _blocks(raw, "measures"), _blocks(raw, "decompositions")

    data, target, scm = _load_data(data_block, seed)
    _check_target(target, loss, data_block, scm)
    n_fit = int(round(data.n_rows * fraction))
    if min(n_fit, data.n_rows - n_fit) < 2:
        raise ConfigError(f"[config] 'split_fraction' {fraction!r} leaves {n_fit} fit and"
                          f" {data.n_rows - n_fit} evaluation rows of {data.n_rows}; each side needs 2")
    if "support" in model:
        support = FeatureIndexSet.of(_columns(model, "support", data, "model"))
    elif scm is not None:
        support = FeatureIndexSet.of(
            i for i, name in enumerate(data.column_names) if scm.roles.get(name) == "feature"
        )
    else:
        support = FeatureIndexSet.full(data.n_cols)
    bundle = ResultBundle(config_echo=dict(raw))
    calls = ([(bundle.add_estimate, *_resolve_measure(block, data)) for block in measures]
             + [(bundle.add_table, *_resolve_decomposition(block, data)) for block in decompositions])
    _check_table_names([name for _, name, _ in calls[len(measures):]])

    bundle.metadata = {
        "seed": seed,
        "input_hash": _content_hash(raw, data, target),
        "n_rows": data.n_rows,
        "columns": list(data.column_names),
        "versions": {"dedact": __version__, "numpy": np.__version__, "python": platform.python_version()},
    }

    x, y, names = data.values, target.values, data.column_names
    del data, target  # x and y are now the one reference to each buffer, so it can shrink in place
    if n_fit <= len(support):
        raise SingularDesign(f"[model] the OLS fit reads n_fit={n_fit} of the {bundle.metadata['n_rows']} rows"
                             f" (split_fraction {fraction!r}) and needs n_fit > |support| = {len(support)}")
    fit_x, fit_y = _shuffle_split(x, y, names, fraction, seed)[:2]
    try:
        predictor = fit_ols(fit_x, fit_y, support)
    except DedactError as exc:
        raise _in_block(exc, "model") from exc
    try:
        gaussian = fit_gaussian(fit_x)
    except InsufficientRows as exc:
        raise InsufficientRows(f"[data] the Gaussian fit reads n_fit={n_fit} of the {bundle.metadata['n_rows']}"
                               f" rows (split_fraction {fraction!r}) and needs n_fit >= d + 1 = {len(names) + 1}"
                               f" for its d={len(names)} columns") from exc
    except DedactError as exc:
        raise _in_block(exc, "data") from exc
    # the blocks read only the evaluation rows, the buffers' leading rows:
    # shrinking the buffers to them frees the fit rows before the first
    # evaluation. numpy refuses while a view of a buffer lives elsewhere
    del fit_x, fit_y
    n_eval = len(y) - n_fit
    try:
        x.resize((n_eval, len(names)))
        y.resize(n_eval)
    except ValueError:
        x, y = x[:n_eval].copy(), y[:n_eval].copy()
    evaluator = ImportanceEvaluator(
        DataMatrix(x, names), TargetVector(y), predictor, gaussian, loss=loss, n_mc=n_mc, seed=seed,
        exact_marginalization=exact,
    )
    for add, name, call in calls:
        try:
            add(name, call(evaluator))
        except SingularConditioning as exc:  # its columns by name
            raise _in_block(exc.named(names), name) from exc
        except DedactError as exc:
            raise _in_block(exc, name) from exc
    bundle.metadata["engine"] = evaluator.counters()
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
                    n_decomp_orders: int = 25, outdir=None) -> ResultBundle:
    """Shapley SAGE pathway tables for the protected roots and Shapley
    PFI source tables for three mediator features.

    The PFI tables take every column but the target as a player, so each
    table's remainder is the target's conditional FI, not zero. The SAGE
    tables' games are solved in closed form, so `n_decomp_orders` is only
    recorded in their blocks: a re-run of the echoed config with
    `solver: sampled` reads it.
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
        "n_mc": 3,
        # linear model: closed-form marginalization is exact and far cheaper
        "exact_marginalization": True,
        "decompositions": sage + pfi,
    }), outdir)
