"""One workload process: `dedact.run()` on one config, timed from inside.

Usage: python3 child.py CONFIG OUTDIR TRACE DUMP

Prints one JSON line with time.monotonic() marks (comparable with the
parent's, since both read the system-wide monotonic clock), the peak
resident memory and, when TRACE is 1, the per-layer figures. With DUMP
set to 1 it also saves the inputs of the run's evaluator (evaluation
rows, fitted model and Gaussian) to OUTDIR/inputs.npz for the checks;
that happens after the last mark, outside every timed interval.
"""

import json
import resource
import sys
import time

config_path, outdir, traced, dump = sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4] == "1"

from dedact import ImportanceEvaluator, ResultBundle, RunConfig, run  # noqa: E402

marks = {}
evaluators = []

if traced:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
else:
    # one-shot hooks: each records its time on the first call and puts
    # the original method back, so the run itself is untraced
    original_evaluate = ImportanceEvaluator.evaluate
    original_write = ResultBundle.write

    def first_evaluate(self, spec):
        marks["first_eval"] = time.monotonic()
        evaluators.append(self)
        ImportanceEvaluator.evaluate = original_evaluate
        return original_evaluate(self, spec)

    def first_write(self, *args, **kwargs):
        marks["compute_end"] = time.monotonic()
        ResultBundle.write = original_write
        return original_write(self, *args, **kwargs)

    ImportanceEvaluator.evaluate = first_evaluate
    ResultBundle.write = first_write

run(RunConfig.from_file(config_path), outdir=outdir)
marks["written"] = time.monotonic()
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

result = {"marks": marks, "peak_rss_mb": peak_rss_mb, "layers": None}
if traced:
    marks["first_eval"] = tracer.first_eval_at
    marks["compute_end"] = tracer.write_at
    result["layers"] = tracer.metrics()

if dump:
    import numpy as np

    ev = evaluators[0]
    np.savez(
        f"{outdir}/inputs.npz",
        x=ev.data.values, y=ev.target.values, columns=np.array(ev.data.column_names),
        weights=ev.predictor.weights, intercept=ev.predictor.intercept,
        mean=ev.gaussian.mean, cov=ev.gaussian.cov,
    )

print(json.dumps(result))
