"""The benchmark's workloads: inputs made from a seed, and output checks.

Each workload is one YAML config for `dedact.run()` (plus, for
`xent-csv-mc`, the CSV it reads), written from the benchmark seed. The
checks compare a run's bundle with `reference.py`, computed from the
inputs the run's evaluator actually used, or with properties the method
must have. A check returns a list of (check name, message) failures.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
import yaml

import reference

# the census graph: three protected roots, each with its mediators; every
# edge and noise scale is 1, and income also depends on race and sex
CENSUS_MEDIATORS = {
    "age": ("capital_gain", "nr_educ", "hours_pw"),
    "race": ("marriage_status", "occupation"),
    "sex": ("relationship", "work_class"),
}
UNSUPPORTED = "hours_pw"  # the xent-csv-mc column outside model.support

SIZES = {
    # measured runs
    "full": {
        "census-shapley": {"n": 20000, "sage_orders": 4, "decomp_orders": 4, "pfi_orders": 8,
                           "exact_players": ["nr_educ", "age", "capital_gain", "hours_pw", "race", "sex"]},
        "biomarker-large-n": {"n": 300000},
        "xent-csv-mc": {"n": 10000, "sage_orders": 4},
    },
    # the benchmark's own test only: every workload and its checks in seconds
    "small": {
        "census-shapley": {"n": 2000, "sage_orders": 2, "decomp_orders": 2, "pfi_orders": 3,
                           "exact_players": ["nr_educ", "age", "capital_gain", "hours_pw"]},
        "biomarker-large-n": {"n": 20000},
        "xent-csv-mc": {"n": 2000, "sage_orders": 2},
    },
}


def _census_config(seed: int, size: dict, workdir: Path) -> dict:
    tables = [
        {"name": f"sage_{root}", "kind": "sage", "method": "shapley", "target": root,
         "n_sage_orders": size["sage_orders"], "n_decomp_orders": size["decomp_orders"]}
        for root in ("race", "sex", "age")
    ]
    # every column is a player, the target included, so that the grand
    # coalition's value is the PFI itself and the table is efficient
    tables += [
        {"name": f"pfi_{feature}", "kind": "pfi", "method": "shapley", "target": feature,
         "n_orders": size["pfi_orders"]}
        for feature in ("nr_educ", "work_class", "occupation")
    ]
    tables.append({"name": "pfi_nr_educ_exact", "kind": "pfi", "method": "shapley",
                   "solver": "exact", "target": "nr_educ", "sources": size["exact_players"]})
    return {
        "seed": seed,
        "data": {"scm": "census", "n": size["n"]},
        "n_mc": 3,
        "exact_marginalization": True,
        "decompositions": tables,
    }


def _biomarker_config(seed: int, size: dict, workdir: Path) -> dict:
    return {
        "seed": seed,
        "data": {"scm": "biomarker", "n": size["n"], "include_observed": True},
        "n_mc": 20,
        "measures": [
            {"name": "AI_PSA", "measure": "AI", "interest": ["P"]},
            {"name": "AI_PSA_via_B", "measure": "AI_via", "interest": ["P"], "aux": ["B"]},
            {"name": "AI_PSA_via_C", "measure": "AI_via", "interest": ["P"], "aux": ["C"]},
            {"name": "PFI_cycling", "measure": "PFI", "interest": ["C"]},
        ],
        "decompositions": [
            {"name": "PFI_cycling_sources", "kind": "pfi", "method": "fast", "target": "C",
             "sources": ["B", "C", "P"]},
        ],
    }


def write_census_csv(path: Path, n: int, seed: int) -> list[str]:
    """Census-structured covariates and a 0/1 label, income above zero
    (its median). Returns the covariate names."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    values = {root: rng.standard_normal(n) for root in CENSUS_MEDIATORS}
    for root, mediators in CENSUS_MEDIATORS.items():
        for m in mediators:
            values[m] = values[root] + rng.standard_normal(n)
    names = list(values)
    income = sum(values[m] for ms in CENSUS_MEDIATORS.values() for m in ms)
    income = income + values["race"] + values["sex"] + rng.standard_normal(n)
    label = (income > 0.0).astype(float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ["high_income"])
        for i in range(n):
            writer.writerow([repr(float(values[c][i])) for c in names] + [repr(float(label[i]))])
    return names


def _xent_config(seed: int, size: dict, workdir: Path) -> dict:
    names = write_census_csv(workdir / "data.csv", size["n"], seed)
    others = [c for c in names if c != UNSUPPORTED]
    orders = size["sage_orders"]
    return {
        "seed": seed,
        "data": {"csv": "data.csv", "target_column": "high_income"},
        "model": {"support": others},
        "loss": "cross_entropy",
        "exact_marginalization": False,
        "n_mc": 20,
        "measures": [
            {"name": "SAGE_age", "measure": "SAGE_attribution", "interest": ["age"],
             "n_orders": orders, "n_mc": 1},
            {"name": "PFI_nr_educ", "measure": "PFI", "interest": ["nr_educ"]},
            {"name": "DI_age", "measure": "DI", "interest": ["age"]},
            {"name": f"PFI_{UNSUPPORTED}", "measure": "PFI", "interest": [UNSUPPORTED]},
            {"name": f"DI_{UNSUPPORTED}", "measure": "DI", "interest": [UNSUPPORTED],
             "baseline": others},
            {"name": f"DI_from_{UNSUPPORTED}", "measure": "DI_from", "interest": [UNSUPPORTED],
             "baseline": others, "aux": ["age"]},
        ],
        "decompositions": [
            {"name": "sage_race_fast", "kind": "sage", "method": "fast", "target": "race",
             "pathways": ["race", "marriage_status", "occupation"], "n_orders": orders, "n_mc": 1},
            {"name": f"pfi_{UNSUPPORTED}_fast", "kind": "pfi", "method": "fast",
             "target": UNSUPPORTED, "sources": ["age", "nr_educ", UNSUPPORTED]},
        ],
    }


def make_inputs(workload: str, seed: int, size: str, workdir: Path) -> dict:
    """Write the workload's config (and data) into workdir; return it."""
    config = MAKERS[workload](seed, SIZES[size][workload], workdir)
    with open(workdir / "config.yaml", "w") as fh:
        yaml.safe_dump(config, fh, sort_keys=False)
    return config


def operations(config: dict) -> int:
    """Measure and decomposition blocks: the operations one run attempts."""
    return len(config.get("measures", [])) + len(config.get("decompositions", []))


# -- checks ------------------------------------------------------------------------


def _complete(bundle: dict, config: dict) -> list:
    want = [b["name"] for b in config.get("measures", [])] + [b["name"] for b in config.get("decompositions", [])]
    have = [e["name"] for e in bundle["estimates"]] + [t["name"] for t in bundle["tables"]]
    return [] if have == want else [("complete", f"bundle holds {have}, config asks {want}")]


def _remainder(table: dict) -> float:
    return table["total"] - sum(c["value"] for c in table["components"].values())


def check_census(bundle: dict, inputs: dict, config: dict) -> list:
    fails = _complete(bundle, config)
    if fails:
        return fails
    cols = list(inputs["columns"])
    tables = {t["name"]: t for t in bundle["tables"]}
    for block in config["decompositions"]:
        t = tables[block["name"]]
        remainder = _remainder(t)
        if block["kind"] == "sage":
            # a SAGE total is the mean surplus of the target over the
            # contexts in its order log, marginalized exactly
            j = cols.index(block["target"])
            ref = float(np.mean([
                reference.squared_error_measure("AI", [j], ctx, [], inputs, with_noise=False)
                for ctx in t["order_log"]
            ]))
            if abs(t["total"] - ref) > 1e-6 * abs(ref):
                fails.append(("sage_total", f"{t['name']}: {t['total']!r} vs closed form {ref!r}"))
            # sampled orders telescope and the empty coalition is 0
            scale = abs(t["total"]) + sum(abs(c["value"]) for c in t["components"].values())
            if abs(remainder) > 1e-9 * scale:
                fails.append(("sage_efficiency", f"{t['name']}: remainder {remainder!r}"))
        else:
            combined = math.sqrt(t["total_se"] ** 2 + sum(c["se"] ** 2 for c in t["components"].values()))
            if abs(remainder) > max(4.0 * combined, 1e-12):
                fails.append(("pfi_efficiency", f"{t['name']}: remainder {remainder!r}, 4 SE {4 * combined!r}"))
    exact = tables["pfi_nr_educ_exact"]["components"]
    sources = {k: v["value"] for k, v in exact.items() if k != "nr_educ"}
    largest = max(sources, key=sources.get)
    if largest != "age":
        fails.append(("largest_source", f"largest source of nr_educ's PFI is {largest}: {sources}"))
    return fails


def _expected_sq(block: dict, cols: list, inputs: dict) -> float:
    def indices(key):
        return [cols.index(c) for c in block.get(key) or []]

    measure, interest, baseline, aux = block["measure"], indices("interest"), indices("baseline"), indices("aux")
    if measure in ("PFI", "conditional_FI"):
        measure, interest, baseline = reference.special_case(measure, interest, len(cols))
    return reference.squared_error_measure(measure, interest, baseline, aux, inputs, with_noise=True)


def _within_se(label: str, value: float, se: float, ref: float, n_mc: int, slack: float = 0.0):
    tol = reference.se_multiplier(n_mc) * se + slack + 1e-9 * (1.0 + abs(ref))
    if abs(value - ref) > tol:
        return [(label, f"{value!r} vs reference {ref!r}, tolerance {tol!r}")]
    return []


def check_biomarker(bundle: dict, inputs: dict, config: dict) -> list:
    fails = _complete(bundle, config)
    if fails:
        return fails
    cols = list(inputs["columns"])
    n_mc = config["n_mc"]
    for block, est in zip(config["measures"], bundle["estimates"]):
        ref = _expected_sq(block, cols, inputs)
        fails += _within_se("within_se", est["value"], est["std_error"], ref, n_mc)
    for block, t in zip(config["decompositions"], bundle["tables"]):
        target = block["target"]
        rest = [c for c in cols if c != target]
        ref = _expected_sq({"measure": "PFI", "interest": [target]}, cols, inputs)
        fails += _within_se("within_se", t["total"], t["total_se"], ref, n_mc)
        for source, comp in t["components"].items():
            ref = _expected_sq({"measure": "DI_from", "interest": [target], "baseline": rest,
                                "aux": [source]}, cols, inputs)
            fails += _within_se("within_se", comp["value"], comp["se"], ref, n_mc)
    return fails


def check_xent(bundle: dict, inputs: dict, config: dict) -> list:
    fails = _complete(bundle, config)
    if fails:
        return fails
    cols = list(inputs["columns"])
    for block, est in zip(config["measures"], bundle["estimates"]):
        if UNSUPPORTED in block["interest"]:
            # the two plans differ only in a column the model never reads,
            # and common random numbers give both the same draws
            if est["value"] != 0.0:
                fails.append(("unsupported_zero", f"{block['name']} = {est['value']!r}"))
        elif block["measure"] == "PFI":
            ref, integration_tol = reference.cross_entropy_pfi(cols.index(block["interest"][0]), inputs)
            n_mc = block.get("n_mc", config["n_mc"])
            fails += _within_se("pfi_quadrature", est["value"], est["std_error"], ref, n_mc,
                                slack=integration_tol)
    for block, t in zip(config["decompositions"], bundle["tables"]):
        if block["target"] == UNSUPPORTED:
            entries = [t["total"]] + [c["value"] for c in t["components"].values()]
            if any(v != 0.0 for v in entries):
                fails.append(("unsupported_zero", f"{t['name']} entries {entries}"))
    numbers = [v for e in bundle["estimates"] for v in (e["value"], e["std_error"])]
    numbers += [v for t in bundle["tables"] for v in (t["total"], t["total_se"])]
    numbers += [v for t in bundle["tables"] for c in t["components"].values() for v in (c["value"], c["se"])]
    if not all(math.isfinite(v) for v in numbers):
        fails.append(("finite", "an estimate, table entry or SE is not finite"))
    return fails


MAKERS = {
    "census-shapley": _census_config,
    "biomarker-large-n": _biomarker_config,
    "xent-csv-mc": _xent_config,
}
CHECKS = {
    "census-shapley": check_census,
    "biomarker-large-n": check_biomarker,
    "xent-csv-mc": check_xent,
}
