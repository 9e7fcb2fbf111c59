"""Tests of the benchmark itself, at the small size (seconds per workload).

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

Each workload runs once; its checks must pass on the real bundle and
fail on a copy with one value moved past the check's tolerance, so no
check is vacuous.
"""

import copy
import json
import math
import shutil
import subprocess
import sys

import pytest

import reference
import run
import workloads

SEED = 5


def _by_name(items, name):
    return next(item for item in items if item["name"] == name)


def _shift_sage_total(b):
    _by_name(b["tables"], "sage_race")["total"] *= 1.0 + 1e-4


def _shift_sage_component(b):
    _by_name(b["tables"], "sage_sex")["components"]["race"]["value"] += 1e-6


def _shift_pfi_component(b):
    t = _by_name(b["tables"], "pfi_work_class")
    combined = math.sqrt(t["total_se"] ** 2 + sum(c["se"] ** 2 for c in t["components"].values()))
    t["components"]["sex"]["value"] += 4.0 * combined + 1e-6


def _swap_largest_source(b):
    comps = _by_name(b["tables"], "pfi_nr_educ_exact")["components"]
    comps["capital_gain"]["value"] = comps["age"]["value"] + 1.0


def _past_se(entry, value_key, se_key, n_mc=20):
    entry[value_key] += 2.0 * reference.se_multiplier(n_mc) * entry[se_key] + 1e-6


def _shift_biomarker_estimate(b):
    _past_se(_by_name(b["estimates"], "AI_PSA_via_C"), "value", "std_error")


def _shift_biomarker_component(b):
    _past_se(_by_name(b["tables"], "PFI_cycling_sources")["components"]["P"], "value", "se")


def _unsupported_estimate(b):
    _by_name(b["estimates"], f"PFI_{workloads.UNSUPPORTED}")["value"] = 1e-15


def _unsupported_table(b):
    t = _by_name(b["tables"], f"pfi_{workloads.UNSUPPORTED}_fast")
    t["components"]["age"]["value"] = 1e-15


def _shift_xent_pfi(b):
    e = _by_name(b["estimates"], "PFI_nr_educ")
    e["value"] += 2.0 * reference.se_multiplier(20) * e["std_error"] + 1e-3


def _not_finite(b):
    _by_name(b["estimates"], "DI_age")["std_error"] = float("nan")


def _drop_table(b):
    b["tables"].pop()


MUTATIONS = {
    "census-shapley": [
        (_shift_sage_total, "sage_total"),
        (_shift_sage_component, "sage_efficiency"),
        (_shift_pfi_component, "pfi_efficiency"),
        (_swap_largest_source, "largest_source"),
        (_drop_table, "complete"),
    ],
    "biomarker-large-n": [
        (_shift_biomarker_estimate, "within_se"),
        (_shift_biomarker_component, "within_se"),
        (_drop_table, "complete"),
    ],
    "xent-csv-mc": [
        (_unsupported_estimate, "unsupported_zero"),
        (_unsupported_table, "unsupported_zero"),
        (_shift_xent_pfi, "pfi_quadrature"),
        (_not_finite, "finite"),
        (_drop_table, "complete"),
    ],
}


@pytest.fixture(scope="module", params=sorted(workloads.MAKERS))
def small_run(request, tmp_path_factory):
    name = request.param
    workdir = tmp_path_factory.mktemp(name)
    config = workloads.make_inputs(name, SEED, "small", workdir)
    proc = run.run_process(workdir, "out", traced=False, dump=True, timeout=120.0)
    assert proc["ok"], proc
    return name, config, run.bundle_values(proc["outdir"]), run.load_inputs(proc["outdir"])


def test_checks_pass_on_the_real_bundle(small_run):
    name, config, bundle, inputs = small_run
    assert workloads.CHECKS[name](bundle, inputs, config) == []


def test_each_check_fails_on_a_shifted_bundle(small_run):
    name, config, bundle, inputs = small_run
    for mutate, expected in MUTATIONS[name]:
        broken = copy.deepcopy(bundle)
        mutate(broken)
        failed = {check for check, _ in workloads.CHECKS[name](broken, inputs, config)}
        assert expected in failed, (mutate.__name__, failed)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    out = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "census-shapley",
         "--seed", str(SEED), "--seconds", "0", "--trace", "1", "--size", "small"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    assert result["metrics"]["importance.evaluations"]["value"] > 0
    assert result["metrics"]["decompose.value_misses"]["value"] <= result["metrics"]["decompose.value_calls"]["value"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census-shapley", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""
