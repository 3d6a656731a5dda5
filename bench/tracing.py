"""Layer trace recorded from the benchmark's side of each layer boundary.

``Tracer.install`` replaces renvol's public functions with wrappers, in
every renvol module that holds them (``volume`` and ``comparison`` import
the quadrature entry points by name, so patching ``renvol.quadrature``
alone would miss their calls).  ``uninstall`` puts the originals back.
Nothing inside the program is changed.

Coarse calls become spans (name, start, end, parent) kept in memory.  Hot
calls that run up to a million times per round (expression evaluation,
the profile's f and defect, quadrature integrands) are counted and timed
in aggregate instead, keyed by the span that encloses them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time

CLOCK = time.perf_counter_ns

# (module, class, method, counter name): hot methods, aggregated per round
LEAVES = (
    ("renvol.expressions", "Expression", "evaluate", "expressions.evaluate"),
    ("renvol.expressions", "Expression", "evaluate_exact", "expressions.evaluate_exact"),
    ("renvol.metric", "RadialProfile", "value", "metric.value"),
    ("renvol.metric", "RadialProfile", "defect", "metric.defect"),
)

# (module, function, span name)
SPANS = (
    ("renvol.expressions", "parse", "expressions.parse"),
    ("renvol.metric", "validate_asymptotics", "metric.asymptotics"),
    ("renvol.quadrature", "integrate", "quadrature.integrate"),
    ("renvol.quadrature", "integrate_sqrt_endpoint", "quadrature.integrate_sqrt_endpoint"),
    ("renvol.quadrature", "integrate_semi_infinite", "quadrature.integrate_semi_infinite"),
    ("renvol.volume", "renormalized_volume", "volume.renormalized_volume"),
    ("renvol.volume", "flow_volume_lower_bound", "volume.bounds"),
    ("renvol.volume", "area_lower_bound", "volume.bounds"),
    ("renvol.volume", "volume_between", "volume.volume_between"),
    ("renvol.comparison", "compare_volumes", "comparison.compare_volumes"),
    ("renvol.comparison", "_check_curvature", "comparison.curvature"),
    ("renvol.comparison", "kernel_threshold", "comparison.kernel_threshold"),
    ("renvol.comparison", "kernel_margin", "comparison.kernel_margin"),
    ("renvol.comparison", "volume_gap", "comparison.volume_gap"),
    ("renvol.comparison", "volume_gap_regularized", "comparison.volume_gap"),
    ("renvol.comparison", "volume_gap_slope", "comparison.volume_gap_slope"),
    ("renvol.comparison", "mass_volume_sweep", "comparison.mass_volume_sweep"),
)

# per-layer metric name -> unit, in the order they are reported
LAYER_METRICS = {
    "quadrature.calls": "count",
    "quadrature.evals": "count",
    "quadrature.ms": "ms",
    "quadrature.self_ms": "ms",
    "quadrature.integrand_us": "us",
    "expressions.evaluate.calls": "count",
    "expressions.evaluate.us": "us",
    "expressions.evaluate_exact.calls": "count",
    "expressions.evaluate_exact.us": "us",
    "metric.horizon.calls": "count",
    "metric.horizon.ms": "ms",
    "metric.horizon.f_calls": "count",
    "metric.asymptotics.calls": "count",
    "metric.asymptotics.ms": "ms",
    "metric.defect.calls": "count",
    "metric.defect.us": "us",
    "comparison.curvature.calls": "count",
    "comparison.curvature.ms": "ms",
    "comparison.kernel_threshold.ms": "ms",
    "comparison.kernel_margin.calls": "count",
    "comparison.kernel_margin.ms": "ms",
    "comparison.volume_gap.ms": "ms",
    "comparison.volume_gap_slope.ms": "ms",
    "volume.renormalized_volume.calls": "count",
    "volume.renormalized_volume.ms": "ms",
    "volume.renormalized_volume.evals": "count",
    "volume.bounds.ms": "ms",
    "cli.import_ms": "ms",
    "cli.numpy_import_ms": "ms",
    "cli.run_ms": "ms",
    "trace.overhead_s": "s",
}

# span record fields
NAME, START, END, PARENT, ROUND, OP, CALLBACK_NS, EVALS = range(8)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.leaves = {}  # (round, counter, enclosing span name) -> [calls, ns]
        self.round = 0
        self.op = 0
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, self.round, self.op, 0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        rec[START] = CLOCK()
        try:
            yield rec
        finally:
            rec[END] = CLOCK()
            self.stack.pop()

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self.stack
        quadrature = name.startswith("quadrature.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if quadrature and stack and spans[stack[-1]][NAME].startswith("quadrature."):
                # a wrapper calling the core loop: part of the outer span
                return fn(*args, **kwargs)
            rec = self._open(name)
            if quadrature:
                args = (_timed_integrand(rec, args[0]),) + args[1:]
            rec[START] = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = CLOCK()
                stack.pop()
            rec[EVALS] = getattr(result, "evaluations", 0)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn):
        spans, stack, leaves = self.spans, self.stack, self.leaves

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = CLOCK()
            result = fn(*args, **kwargs)
            dt = CLOCK() - t0
            key = (self.round, name, spans[stack[-1]][NAME] if stack else "")
            entry = leaves.get(key)
            if entry is None:
                leaves[key] = [1, dt]
            else:
                entry[0] += 1
                entry[1] += dt
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "renvol" and not mod_name.startswith("renvol."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self):
        for mod_name, cls_name, method, counter in LEAVES:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._leaf_wrapper(counter, original))
            self._restore.append((cls, method, original))
        cls = sys.modules["renvol.metric"].RadialProfile
        original = cls.__dict__["horizon"]
        traced = functools.cached_property(self._span_wrapper("metric.horizon", original.func))
        traced.__set_name__(cls, "horizon")
        setattr(cls, "horizon", traced)
        self._restore.append((cls, "horizon", original))
        for mod_name, fn_name, span_name in SPANS:
            original = getattr(sys.modules[mod_name], fn_name)
            self._replace_everywhere(original, self._span_wrapper(span_name, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def round_metrics(self, rnd):
        """Per-layer totals of one traced round (the cli.* and trace.*
        entries are filled in by the caller)."""
        spans = [s for s in self.spans if s[ROUND] == rnd]

        def named(name):
            return [s for s in spans if s[NAME] == name]

        def ms(items):
            return sum(s[END] - s[START] for s in items) / 1e6

        def leaf(counter, within=None):
            calls = ns = 0
            for (r, name, parent), (c, t) in self.leaves.items():
                if r == rnd and name == counter and (within is None or parent == within):
                    calls += c
                    ns += t
            return calls, ns

        quad = [s for s in spans if s[NAME].startswith("quadrature.")]
        quad_evals = sum(s[EVALS] for s in quad)
        callback_ns = sum(s[CALLBACK_NS] for s in quad)
        ev_calls, ev_ns = leaf("expressions.evaluate")
        ex_calls, ex_ns = leaf("expressions.evaluate_exact")
        df_calls, df_ns = leaf("metric.defect")
        rv = named("volume.renormalized_volume")
        return {
            "quadrature.calls": len(quad),
            "quadrature.evals": quad_evals,
            "quadrature.ms": ms(quad),
            "quadrature.self_ms": ms(quad) - callback_ns / 1e6,
            "quadrature.integrand_us": callback_ns / 1e3 / quad_evals if quad_evals else 0.0,
            "expressions.evaluate.calls": ev_calls,
            "expressions.evaluate.us": ev_ns / 1e3 / ev_calls if ev_calls else 0.0,
            "expressions.evaluate_exact.calls": ex_calls,
            "expressions.evaluate_exact.us": ex_ns / 1e3 / ex_calls if ex_calls else 0.0,
            "metric.horizon.calls": len(named("metric.horizon")),
            "metric.horizon.ms": ms(named("metric.horizon")),
            "metric.horizon.f_calls": leaf("metric.value", within="metric.horizon")[0],
            "metric.asymptotics.calls": len(named("metric.asymptotics")),
            "metric.asymptotics.ms": ms(named("metric.asymptotics")),
            "metric.defect.calls": df_calls,
            "metric.defect.us": df_ns / 1e3 / df_calls if df_calls else 0.0,
            "comparison.curvature.calls": len(named("comparison.curvature")),
            "comparison.curvature.ms": ms(named("comparison.curvature")),
            "comparison.kernel_threshold.ms": ms(named("comparison.kernel_threshold")),
            "comparison.kernel_margin.calls": len(named("comparison.kernel_margin")),
            "comparison.kernel_margin.ms": ms(named("comparison.kernel_margin")),
            "comparison.volume_gap.ms": ms(named("comparison.volume_gap")),
            "comparison.volume_gap_slope.ms": ms(named("comparison.volume_gap_slope")),
            "volume.renormalized_volume.calls": len(rv),
            "volume.renormalized_volume.ms": ms(rv),
            "volume.renormalized_volume.evals": sum(s[EVALS] for s in rv),
            "volume.bounds.ms": ms(named("volume.bounds")),
        }

    def write(self, path):
        """Spans as JSON lines, then per-round aggregates: hot-call
        counters and, per span name, calls with total and self time."""
        children = {}
        for i, s in enumerate(self.spans):
            children.setdefault(s[PARENT], []).append(i)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start_ns": s[START], "end_ns": s[END],
                                     "parent": s[PARENT], "round": s[ROUND], "op": s[OP],
                                     "callback_ns": s[CALLBACK_NS], "evals": s[EVALS]}) + "\n")
            by_name = {}
            for i, s in enumerate(self.spans):
                dur = s[END] - s[START]
                own = dur - s[CALLBACK_NS] - sum(self.spans[c][END] - self.spans[c][START]
                                                 for c in children.get(i, ()))
                entry = by_name.setdefault((s[ROUND], s[NAME]), [0, 0, 0])
                entry[0] += 1
                entry[1] += dur
                entry[2] += own
            for (rnd, name), (calls, total, own) in sorted(by_name.items()):
                fh.write(json.dumps({"round": rnd, "span": name, "calls": calls,
                                     "total_ms": total / 1e6, "self_ms": own / 1e6}) + "\n")
            for (rnd, name, parent), (calls, ns) in sorted(self.leaves.items()):
                fh.write(json.dumps({"round": rnd, "counter": name, "within": parent,
                                     "calls": calls, "total_ms": ns / 1e6}) + "\n")


def _timed_integrand(rec, fn):
    def integrand(x):
        t0 = CLOCK()
        value = fn(x)
        rec[CALLBACK_NS] += CLOCK() - t0
        return value

    return integrand


def combine_rounds(per_round):
    """One figure per metric from several traced rounds: counts must agree
    exactly (returned with the list of those that do not), times are the
    median."""
    combined = {}
    unsteady = []
    for name in per_round[0]:
        values = [r[name] for r in per_round]
        if LAYER_METRICS[name] == "count":
            if len(set(values)) != 1:
                unsteady.append(name)
            combined[name] = values[0]
        else:
            combined[name] = statistics.median(values)
    return combined, unsteady


def parse_importtime(stderr):
    """(renvol ms, numpy ms) of one process from ``python -X importtime``:
    the cumulative time of the top-level renvol imports and of numpy."""
    renvol_us = numpy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1])
        name = parts[2]
        if name.lstrip() == "numpy" and not numpy_us:
            numpy_us = cumulative
        if name.startswith(" renvol"):
            renvol_us += cumulative
    return renvol_us / 1e3, numpy_us / 1e3
