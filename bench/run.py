"""dedact benchmark: one workload, run end to end through `dedact.run()`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
its `src/` directory. The workload's config (and CSV) is written from
the seed, then fresh workload processes run it one after another until
S seconds have passed, each a closed loop of one config run to
completion. End-to-end metrics are medians over those processes. With
`--trace 1` the processes alternate between untraced and traced; the
per-layer metrics are medians over the traced ones, and the difference
between the two kinds gives the tracing overhead.

Every run checks the first bundle against reference computations and
checks that all bundles of the run hold identical values. The last line
of stdout is the result as JSON; the line before it records the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
HARD_LIMIT_S = 170.0  # a run ends well inside the 180 s it is allowed
END_TO_END = {"wall_s": "s", "setup_s": "s", "compute_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "importance.evaluations": "count", "importance.busy_s": "s", "importance.self_s": "s",
    "importance.eval_ms_p50": "ms", "decompose.games": "count", "decompose.value_calls": "count",
    "decompose.value_misses": "count", "decompose.hit_ratio": "ratio", "decompose.self_s": "s",
    "core.predict_calls": "count", "core.predict_s": "s", "core.predict_mb": "MB",
    "core.loss_s": "s", "core.fit_s": "s", "sampler.fit_s": "s", "runner.load_s": "s",
    "runner.write_s": "s",
    "trace.overhead_pct": "%",
}


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def machine_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dedact").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        git_sha = out.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
    }


def run_process(workdir: Path, outdir: str, traced: bool, dump: bool, timeout: float) -> dict:
    """One workload process; returns its marks, metrics and exit state."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cap = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "config.yaml", outdir,
           "1" if traced else "0", "1" if dump else "0"]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return {"ok": False, "error": "timed out"}
    if proc.returncode != 0:
        return {"ok": False, "error": err.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]}
    child = json.loads(out.strip().splitlines()[-1])
    marks = child["marks"]
    return {
        "ok": True,
        "traced": traced,
        "outdir": workdir / outdir,
        "wall_s": marks["written"] - spawned,
        "setup_s": marks["first_eval"] - spawned,
        "compute_s": marks["compute_end"] - marks["first_eval"],
        "peak_rss_mb": child["peak_rss_mb"],
        "layers": child["layers"],
    }


def bundle_values(outdir: Path) -> dict:
    with open(outdir / "bundle.json") as fh:
        bundle = json.load(fh)
    return {"estimates": bundle["estimates"], "tables": bundle["tables"]}


def load_inputs(outdir: Path) -> dict:
    with np.load(outdir / "inputs.npz") as npz:
        return {key: npz[key] for key in npz.files}


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str, workdir: Path) -> dict:
    """Run the workload for `seconds`; return the result object."""
    started = time.monotonic()
    config = workloads.make_inputs(workload, seed, size, workdir)
    ops = workloads.operations(config)
    procs = []
    while True:
        elapsed = time.monotonic() - started
        done = elapsed >= seconds and (not trace or any(p.get("traced") for p in procs))
        if procs and done:
            break
        traced = trace and len(procs) % 2 == 1
        p = run_process(workdir, f"out{len(procs)}", traced, dump=not procs,
                        timeout=HARD_LIMIT_S - elapsed)
        procs.append(p)
        if p["ok"]:
            print(f"process {len(procs)}{' traced' if traced else ''}: " + ", ".join(
                f"{k} {p[k]:.4f}" for k in END_TO_END), file=sys.stderr)
        else:
            print(f"workload process failed: {p['error']}", file=sys.stderr)
            break
    good = [p for p in procs if p["ok"]]
    failed = ops * (len(procs) - len(good))
    problems = []
    if good:  # the first process saved the evaluator's inputs
        first = bundle_values(good[0]["outdir"])
        inputs = load_inputs(good[0]["outdir"])
        problems += workloads.CHECKS[workload](first, inputs, config)
        for p in good[1:]:
            if bundle_values(p["outdir"]) != first:
                problems.append(("same_seed_identical", f"{p['outdir'].name} differs from the first bundle"))
    for name, message in problems:
        print(f"check {name} failed: {message}", file=sys.stderr)

    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    metrics = {}
    if trace and untraced and traced:
        for name in PER_LAYER_UNITS:
            if name == "trace.overhead_pct":
                base = statistics.median(p["wall_s"] for p in untraced)
                value = 100.0 * (statistics.median(p["wall_s"] for p in traced) - base) / base
            else:
                value = statistics.median(p["layers"][name] for p in traced)
            metrics[name] = {"value": value, "unit": PER_LAYER_UNITS[name]}
    elif not trace and untraced:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(p[name] for p in untraced), "unit": unit}
    print(f"{workload}: {len(good)}/{len(procs)} processes ({len(traced)} traced), "
          f"{len(problems)} failed checks, {time.monotonic() - started:.1f} s", file=sys.stderr)
    return {
        "correct": bool(good) and failed == 0 and not problems,
        "attempted": ops * len(procs),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="'small' is for the benchmark's own test, never for measurement")
    args = parser.parse_args(argv)
    if not (SRC / "dedact" / "__init__.py").is_file():
        print(f"no dedact sources under {SRC}: run from the root of a source checkout", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"machine": machine_record(), "workload": args.workload, "seed": args.seed,
                      "size": args.size}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
