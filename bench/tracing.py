"""Per-layer spans recorded around calls into the `dedact` modules.

The tracer replaces each timed public function with a wrapper, at every
`dedact` module that binds it (a function imported by name into another
module is a second binding), and each timed method on its class. Nothing
in the program changes: the wrappers are installed from the benchmark's
own process before the run starts.

Spans nest on one stack (a workload runs in a single thread). A span's
self time is its duration minus the time of the spans directly inside
it, so self times of different layers never overlap.
"""

from __future__ import annotations

import importlib
import pkgutil
import statistics
import time

# span name -> qualified name of the function or method it wraps; the
# layer is the part of the span name before the dot
TIMED = {
    "importance.evaluate": "ImportanceEvaluator.evaluate",
    "core.predict": "LinearPredictor.predict",
    "core.loss": "LossFunction.elementwise",
    "core.fit": "fit_ols",
    "sampler.fit": "fit_gaussian",
    "scm.sample": "sample_scm",
    "runner.ingest": "ingest_csv",
    "runner.write": "ResultBundle.write",
    "decompose.value": "CooperativeGame.value",
    "decompose.solve": "solve_game",
    "decompose.shapley_exact": "shapley_exact",
    "decompose.shapley_sampled": "shapley_sampled",
    "decompose.fast_pfi": "fast_decompose_pfi",
    "decompose.fast_pfi_ordered": "fast_decompose_pfi_ordered",
    "decompose.fast_sage": "fast_decompose_sage",
    "decompose.shapley_pfi": "shapley_decompose_pfi",
    "decompose.shapley_sage": "shapley_decompose_sage",
}


def _dedact_modules():
    import dedact

    modules = [dedact]
    for info in pkgutil.iter_modules(dedact.__path__, "dedact."):
        modules.append(importlib.import_module(info.name))
    return modules


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []  # per open span: time of its children
        self._depth: dict[str, int] = {}  # open spans per layer
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.busy_s: dict[str, float] = {}  # outermost spans of each layer
        self.eval_durations: list[float] = []
        self.first_eval_at: float | None = None  # time.monotonic()
        self.write_at: float | None = None
        self.predict_bytes = 0
        self.games = 0
        self.value_misses = 0

    def install(self) -> None:
        modules = _dedact_modules()
        for span, qualname in TIMED.items():
            self._install_one(modules, span, qualname)

    def _install_one(self, modules, span: str, qualname: str) -> None:
        owner, _, attr = qualname.rpartition(".")
        if owner:
            cls = next(getattr(m, owner) for m in modules if hasattr(m, owner))
            setattr(cls, attr, self._wrap(span, getattr(cls, attr)))
            return
        original = next(getattr(m, attr) for m in modules if hasattr(m, attr))
        wrapper = self._wrap(span, original)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)

    def _wrap(self, span: str, fn):
        layer = span.split(".", 1)[0]
        observe = {
            "importance.evaluate": self._observe_evaluate,
            "core.predict": self._observe_predict,
            "decompose.value": self._observe_value,
            "runner.write": self._observe_write,
        }.get(span)
        stack, depth = self._stack, self._depth

        def wrapper(*args, **kwargs):
            before = observe(args) if observe else None
            frame = [0.0]
            stack.append(frame)
            depth[layer] = depth.get(layer, 0) + 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][0] += elapsed
                self.calls[span] = self.calls.get(span, 0) + 1
                self.total_s[span] = self.total_s.get(span, 0.0) + elapsed
                self.self_s[span] = self.self_s.get(span, 0.0) + elapsed - frame[0]
                if depth[layer] == 0:
                    self.busy_s[layer] = self.busy_s.get(layer, 0.0) + elapsed
                if span == "importance.evaluate":
                    self.eval_durations.append(elapsed)
                elif span == "decompose.value" and len(args[0].cache) > before:
                    self.value_misses += 1

        return wrapper

    # -- counters taken at the call boundary -------------------------------

    def _observe_evaluate(self, args):
        if self.first_eval_at is None:
            self.first_eval_at = time.monotonic()

    def _observe_predict(self, args):
        self.predict_bytes += getattr(args[1], "nbytes", 0)

    def _observe_value(self, args):
        # a game's first lookup finds its cache empty
        size = len(args[0].cache)
        if size == 0:
            self.games += 1
        return size

    def _observe_write(self, args):
        self.write_at = time.monotonic()

    # -- per-layer metrics ---------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def metrics(self) -> dict:
        """Per-layer figures of one traced run, keyed by metric name."""
        value_calls = self.calls.get("decompose.value", 0)
        hits = value_calls - self.value_misses
        return {
            "importance.evaluations": self.calls.get("importance.evaluate", 0),
            "importance.busy_s": self.busy_s.get("importance", 0.0),
            "importance.self_s": self.layer_self_s("importance"),
            "importance.eval_ms_p50": 1e3 * statistics.median(self.eval_durations)
            if self.eval_durations else 0.0,
            "decompose.games": self.games,
            "decompose.value_calls": value_calls,
            "decompose.value_misses": self.value_misses,
            "decompose.hit_ratio": hits / value_calls if value_calls else 0.0,
            "decompose.self_s": self.layer_self_s("decompose"),
            "core.predict_calls": self.calls.get("core.predict", 0),
            "core.predict_s": self.total_s.get("core.predict", 0.0),
            "core.predict_mb": self.predict_bytes / 1e6,
            "core.loss_s": self.total_s.get("core.loss", 0.0),
            "core.fit_s": self.total_s.get("core.fit", 0.0),
            "sampler.fit_s": self.total_s.get("sampler.fit", 0.0),
            "runner.load_s": self.total_s.get("scm.sample", 0.0) + self.total_s.get("runner.ingest", 0.0),
            "runner.write_s": self.total_s.get("runner.write", 0.0),
        }
