"""Traced pass: spans around the calls into each fracgrey layer.

The tracer replaces fracgrey's public functions, in every fracgrey module that
binds them, with wrappers that record a span ``[name, start, end, parent]``
in memory.  The stacked evaluator is reachable only through the private class
``optim._MapeEvaluator``, and random draws only through the generator that
``numpy.random.default_rng`` returns; both are wrapped from here too.  When a
wrapped name no longer exists, the metrics that depend on it are reported as
missing (value ``None``) instead of failing the run.

A layer's self time is its spans' durations minus the parts covered by their
direct child spans.  Every ``.s`` metric below is a self time.  The wrapper's
own bookkeeping runs outside the span it records, so it would be charged to
the parent span; ``span_cost`` measures it once per process, and it is taken
out of the parent's self time for every direct child span.
"""

import gzip
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

now = time.perf_counter

# (module, function, layer) for the public functions that are wrapped.
PUBLIC = [
    ("fracops", "ago_coeffs", "fracops.coeffs"),
    ("fracops", "iago_coeffs", "fracops.coeffs"),
    ("fracops", "frac_accumulate", "fracops.convolve"),
    ("fracops", "frac_reduce", "fracops.convolve"),
    ("greymodel", "lsm_fit", "greymodel.lsm_fit"),
    ("greymodel", "fit_series", "greymodel.fit_series"),
    ("greymodel", "forecast", "greymodel.forecast"),
    ("optim", "order_search", "optim.engine"),
    ("optim", "estimate", "optim.engine"),
    ("optim", "repeat_stats", "optim.engine"),
    ("optim", "adcso_minimize", "optim.engine"),
    ("optim", "pso_minimize", "optim.engine"),
    ("optim", "objective", "optim.engine"),
    ("benchmark", "run_benchmark", "benchmark.run_benchmark"),
    ("benchmark", "write_results_json", "benchmark.write"),
    ("benchmark", "write_traces", "benchmark.write"),
    ("benchmark", "write_trace_csv", "benchmark.write"),
    ("datasets", "load_csv", "datasets.load_csv"),
    ("cli", "main", "cli"),
]

# Generator methods that draw random numbers.
DRAWS = ("random", "integers", "uniform", "normal", "standard_normal",
         "choice", "permutation", "permuted", "shuffle")

# Searches whose RunTrace gives the evaluation count per layer.
SEARCHES = ("order_search", "adcso_minimize", "pso_minimize")

# (name, unit) of every per-layer metric, in report order.
METRICS = [
    ("import.s", "s"),
    ("fracops.coeffs.calls", "count"),
    ("fracops.coeffs.s", "s"),
    ("fracops.convolve.calls", "count"),
    ("fracops.convolve.s", "s"),
    ("greymodel.lsm_fit.calls", "count"),
    ("greymodel.lsm_fit.s", "s"),
    ("greymodel.fit_series.calls", "count"),
    ("greymodel.fit_series.s", "s"),
    ("greymodel.forecast.calls", "count"),
    ("greymodel.forecast.s", "s"),
    ("optim.evaluator.build_s", "s"),
    ("optim.evaluator.calls", "count"),
    ("optim.evaluator.candidates", "count"),
    ("optim.evaluator.s", "s"),
    ("optim.evaluator.ns_per_candidate", "ns"),
    ("optim.evaluator.inf_share", "ratio"),
    ("optim.evaluator.work_mb", "MB"),
    ("optim.engine.self_s", "s"),
    ("optim.engine.us_per_layer_iter", "us"),
    ("optim.engine.layers_per_call", "count"),
    ("optim.rng.draws", "count"),
    ("optim.rng.s", "s"),
    ("benchmark.run_benchmark.self_s", "s"),
    ("benchmark.write.s", "s"),
    ("benchmark.write.bytes", "bytes"),
    ("datasets.load_csv.s", "s"),
    ("cli.self_s", "s"),
]

# Layers a metric needs besides its own (the longest layer its name starts
# with): a metric is missing when any of them could not be wrapped.
NEEDS = {
    "optim.evaluator.candidates": {"optim.engine"},
    "optim.evaluator.ns_per_candidate": {"optim.engine"},
    "optim.engine.self_s": {"optim.evaluator"},
    "optim.engine.us_per_layer_iter": {"optim.evaluator"},
}

LAYERS = sorted({layer for _, _, layer in PUBLIC} | {"optim.evaluator", "optim.rng"},
                key=len, reverse=True)


def _noop():
    pass


def span_cost(calls=20000, repeats=5):
    """Seconds a wrapped call adds to its caller outside the span it records.

    The fastest of ``repeats`` timings of ``calls`` wrapped calls to a no-op,
    less the time inside their spans and the bare loop.
    """
    best = float("inf")
    for _ in range(repeats):
        tracer = Tracer()
        traced = tracer.wrap("calibrate", _noop)
        start = now()
        for _ in range(calls):
            pass
        loop = now() - start
        start = now()
        for _ in range(calls):
            traced()
        total = now() - start
        inside = sum(end - begin for _, begin, end, _ in tracer.spans)
        best = min(best, (total - inside - loop) / calls)
    return max(best, 0.0)


def _layers_of(metric):
    own = next((layer for layer in LAYERS if metric.startswith(layer + ".")), None)
    return NEEDS.get(metric, set()) | ({own} if own else set())


class Tracer:
    """Records spans in memory and the counts the wrappers see."""

    def __init__(self, cost=0.0):
        self.cost = cost  # span_cost(), charged to no layer
        self.missing = set()  # layers whose wrapped name is gone
        self.spans = []
        self._stack = []
        self.counts = defaultdict(int)
        self._evaluator_n = {}

    def wrap(self, name, fn, after=None):
        """``fn`` with a span named ``name`` around each call, then ``after``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent]
            spans.append(span)
            stack.append(index)
            span[1] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            if after is not None:
                # The hook's own time is a span of its own, so it is not
                # counted in the caller's self time.
                start = now()
                after(args, kwargs, result)
                spans.append(["trace.hook", start, now(), parent])
            return result

        traced.__wrapped__ = fn
        return traced

    def _inside(self, names):
        return any(self.spans[i][0] in names for i in self._stack)

    # --- hooks that read counts from what the wrapped calls return --------

    def _search_hook(self, fn):
        signature = inspect.signature(fn)

        def after(args, kwargs, result):
            run = getattr(result, "trace", result)  # OrderSearchResult or RunTrace
            if run is None or self._inside(SEARCHES):
                return
            layers = 1
            if fn.__name__ == "order_search":
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                layers = len(result.grid) * bound.arguments["repeats"]
            self.counts["searches"] += 1
            self.counts["layers"] += layers
            self.counts["layer_iters"] += layers * (len(run.best_fitness_per_iter) - 1)
            self.counts["candidates"] += layers * run.evaluations

        return after

    def _write_hook(self, fn):
        def after(args, kwargs, result):
            if self._inside(("write_results_json", "write_traces", "write_trace_csv")):
                return
            if fn.__name__ == "write_traces":
                written = result
            else:
                written = [kwargs.get("path", args[1] if len(args) > 1 else None)]
            self.counts["write_bytes"] += sum(os.path.getsize(p) for p in written)

        return after

    def _evaluator_init_hook(self, args, kwargs, result):
        evaluator, values = args[0], kwargs.get("values", args[1] if len(args) > 1 else None)
        self._evaluator_n[id(evaluator)] = len(values)

    def _evaluator_call_hook(self, args, kwargs, result):
        evaluator, points = args[0], np.asarray(args[1])
        n = self._evaluator_n.get(id(evaluator), 0)
        cells = int(np.prod(points.shape[:-1]))
        # xhat (layers, batch, n) and the scaled residuals (layers, batch, n - 1)
        work = cells * (2 * n - 1) * 8
        self.counts["work_bytes"] = max(self.counts["work_bytes"], work)
        self.counts["scored"] += result.size
        self.counts["inf"] += int(np.count_nonzero(np.isinf(result)))

    # --- installing the wrappers --------------------------------------------

    def install(self, package):
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for module_name, attr, layer in PUBLIC:
            module = sys.modules.get(f"{package.__name__}.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(layer)
                continue
            after = None
            if attr in SEARCHES:
                after = self._search_hook(original)
            elif layer == "benchmark.write":
                after = self._write_hook(original)
            wrapper = self.wrap(attr, original, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        self._install_evaluator(sys.modules.get(f"{package.__name__}.optim"))
        self._install_rng()

    def _install_evaluator(self, optim):
        cls = getattr(optim, "_MapeEvaluator", None)
        if cls is None or "__init__" not in vars(cls) or "__call__" not in vars(cls):
            self.missing.add("optim.evaluator")
            return
        cls.__init__ = self.wrap("evaluator.build", cls.__init__, self._evaluator_init_hook)
        cls.__call__ = self.wrap("evaluator.call", cls.__call__, self._evaluator_call_hook)

    def _install_rng(self):
        original = np.random.default_rng
        tracer = self

        class CountedGenerator:
            """Delegates to a Generator, with a span around every draw."""

            def __init__(self, generator):
                self._generator = generator
                for method in DRAWS:
                    setattr(self, method, tracer.wrap("rng", getattr(generator, method)))

            def __getattr__(self, attr):
                return getattr(self._generator, attr)

        np.random.default_rng = lambda *a, **k: CountedGenerator(original(*a, **k))

    # --- deriving the per-layer metrics ---------------------------------------

    def metrics(self):
        """Per-layer metrics of the spans recorded so far."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                # A hook span lies inside its call's wrapper, already costed.
                covered[parent] += end - start + (self.cost if name != "trace.hook" else 0.0)
        self_s, calls = defaultdict(float), defaultdict(int)
        for (name, start, end, _), child in zip(spans, covered):
            self_s[name] += end - start - child
            calls[name] += 1

        def total(names, table):
            return sum(table[n] for n in names)

        layer_names = defaultdict(list)
        for _, attr, layer in PUBLIC:
            layer_names[layer].append(attr)
        c = self.counts
        engine_s = total(layer_names["optim.engine"], self_s)
        evaluator_s = self_s["evaluator.call"]
        out = {
            "fracops.coeffs.calls": total(layer_names["fracops.coeffs"], calls),
            "fracops.coeffs.s": total(layer_names["fracops.coeffs"], self_s),
            "fracops.convolve.calls": total(layer_names["fracops.convolve"], calls),
            "fracops.convolve.s": total(layer_names["fracops.convolve"], self_s),
            "greymodel.lsm_fit.calls": calls["lsm_fit"],
            "greymodel.lsm_fit.s": self_s["lsm_fit"],
            "greymodel.fit_series.calls": calls["fit_series"],
            "greymodel.fit_series.s": self_s["fit_series"],
            "greymodel.forecast.calls": calls["forecast"],
            "greymodel.forecast.s": self_s["forecast"],
            "optim.evaluator.build_s": self_s["evaluator.build"],
            "optim.evaluator.calls": calls["evaluator.call"],
            "optim.evaluator.candidates": c["candidates"],
            "optim.evaluator.s": evaluator_s,
            "optim.evaluator.ns_per_candidate":
                1e9 * evaluator_s / c["candidates"] if c["candidates"] else None,
            "optim.evaluator.inf_share": c["inf"] / c["scored"] if c["scored"] else None,
            "optim.evaluator.work_mb": c["work_bytes"] / 2**20,
            "optim.engine.self_s": engine_s,
            "optim.engine.us_per_layer_iter":
                1e6 * engine_s / c["layer_iters"] if c["layer_iters"] else None,
            "optim.engine.layers_per_call":
                c["layers"] / c["searches"] if c["searches"] else None,
            "optim.rng.draws": calls["rng"],
            "optim.rng.s": self_s["rng"],
            "benchmark.run_benchmark.self_s": self_s["run_benchmark"],
            "benchmark.write.s": total(layer_names["benchmark.write"], self_s),
            "benchmark.write.bytes": c["write_bytes"],
            "datasets.load_csv.s": self_s["load_csv"],
            "cli.self_s": self_s["main"],
        }
        missing = set(self.missing)
        if calls["rng"] == 0 and c["searches"]:
            missing.add("optim.rng")  # the searches draw without default_rng
        for name in out:
            if _layers_of(name) & missing:
                out[name] = None
        return out

    def own_s(self):
        """Seconds of the round spent in the tracer itself: wrappers and hooks."""
        hooks = sum(end - start for name, start, end, _ in self.spans if name == "trace.hook")
        return self.cost * len(self.spans) + hooks

    def write_spans(self, path):
        """Write the recorded spans as gzipped CSV: name,start,end,parent."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                handle.write(f"{name},{start!r},{end!r},{parent}\n")
