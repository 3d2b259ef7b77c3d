"""Layer tracer for the benchmark: wraps lcnlab's public functions, no edits to src/.

lcnlab's modules import each other with ``from .x import y``, so every module
holds its own binding of a shared function.  ``Tracer.install`` finds every
binding of every traced function in every loaded ``lcnlab`` module and
rebinds it to a wrapper; ``uninstall`` puts the originals back.

Two kinds of wrapper, chosen by how often the function is called:

* span (the default): records ``(id, function, start, end, parent id,
  time covered by children, tag)`` in memory.  A layer's self time is its
  spans' durations minus the time their children cover.
* hot: for functions called millions of times (``poly_mul`` and the
  ``QuadraticObjective`` methods).  It keeps a call count and total time and
  charges that time to the enclosing span as covered, but stores no record.

``numpy.roots`` is counted while a ``find_roots`` span is open: that is the
root finder's companion-matrix fallback.
"""

from __future__ import annotations

import inspect
import itertools
import math
import sys
import time

import numpy as np

LAYERS = ("poly_core", "rootlab", "funcspace", "optim", "dynamics", "critlab", "cli")
HOT = {"poly_core.poly_mul", "optim.QuadraticObjective.grad", "optim.QuadraticObjective.value"}
# as_filter coerces every argument on every hot path; wrapping it would cost
# more than the calls it measures, so its time stays with its caller.
UNWRAPPED = {"poly_core.as_filter"}
OBJECTIVE_METHODS = ("grad", "value")


def _degree_tag(args, kwargs):
    coeffs = args[0] if args else kwargs["coeffs"]
    return len(coeffs) - 1


def _stratum_tag(args, kwargs):
    lam = args[1] if len(args) > 1 else kwargs["lam"]
    return "-".join(str(p) for p in sorted(lam, reverse=True))


TAGGERS = {
    "rootlab.classify_rrmp": _degree_tag,
    "rootlab.rrmp_classify_by_signs": _degree_tag,
    "critlab.crit_on_stratum": _stratum_tag,
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self):
        self.names = []  # function id -> "layer.name"
        self.layer_of = []  # function id -> layer
        self.spans = []
        self.errors = []  # (function id, parent function id, exception class name)
        self.hot = {}  # "layer.name" -> [calls, seconds]
        self.runs = []  # (steps, converged, diverged) of every gd_train call
        self.companion_fallbacks = 0
        self._find_roots_fid = None
        self._next_id = itertools.count(1).__next__
        self.root = [0, 0.0, -1]  # [span id, covered seconds, function id]
        self.stack = [self.root]
        self._saved = []

    # -- installation ---------------------------------------------------------

    def install(self):
        import lcnlab  # noqa: F401  (loads every layer module)
        import lcnlab.cli  # noqa: F401

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "lcnlab" or n.startswith("lcnlab."))]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"lcnlab.{layer}"]
            for name, fn in _public_functions(module):
                if f"{layer}.{name}" in UNWRAPPED:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", layer, fn))
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, name, hit[1])

        objective = sys.modules["lcnlab.optim"].QuadraticObjective
        for name in OBJECTIVE_METHODS:
            fn = vars(objective)[name]
            self._rebind(objective, name, self._wrap(f"optim.QuadraticObjective.{name}", "optim", fn))
        self._rebind(np, "roots", self._count_companion(np.roots))

    def _rebind(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, qualname, layer, fn):
        if qualname in HOT:
            return self._hot(qualname, fn)
        fid = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        if qualname == "rootlab.find_roots":
            self._find_roots_fid = fid
        return self._span(fid, fn, TAGGERS.get(qualname), qualname == "optim.gd_train")

    def _hot(self, qualname, fn):
        stat = self.hot.setdefault(qualname, [0, 0.0])
        stack, clock = self.stack, time.perf_counter

        def hot(a, b):  # every HOT function takes two positional arguments
            t0 = clock()
            result = fn(a, b)
            dt = clock() - t0
            stat[0] += 1
            stat[1] += dt
            stack[-1][1] += dt
            return result
        return hot

    def _span(self, fid, fn, tagger, observe_run):
        stack, spans, errors, runs = self.stack, self.spans, self.errors, self.runs
        next_id, clock = self._next_id, time.perf_counter

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [next_id(), 0.0, fid]
            tag = tagger(args, kwargs) if tagger is not None else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors.append((fid, parent[2], type(exc).__name__))
                raise
            finally:
                t1 = clock()
                stack.pop()
                parent[1] += t1 - t0
                spans.append((frame[0], fid, t0, t1, parent[0], frame[1], tag))
            if observe_run:
                runs.append((result.steps, result.converged, result.diverged))
            return result
        return span

    def _count_companion(self, fn):
        stack = self.stack

        def roots(*args, **kwargs):
            if stack[-1][2] == self._find_roots_fid:
                self.companion_fallbacks += 1
            return fn(*args, **kwargs)
        return roots

    # -- results --------------------------------------------------------------

    def calls(self, qualname) -> int:
        """Number of calls of a traced function so far."""
        if qualname in self.hot:
            return self.hot[qualname][0]
        fid = self.names.index(qualname)
        return sum(1 for s in self.spans if s[1] == fid)

    def grad_calls(self) -> int:
        return self.hot["optim.QuadraticObjective.grad"][0]

    def mark(self) -> tuple:
        """(descent runs, objective gradients) so far, to measure a part's work."""
        return len(self.runs), self.grad_calls()

    def dump(self) -> dict:
        """Everything recorded, in a JSON-ready form."""
        return {
            "functions": [{"name": n, "layer": l} for n, l in zip(self.names, self.layer_of)],
            "span_fields": ["id", "function", "start", "end", "parent", "covered", "tag"],
            "spans": self.spans,
            "hot": self.hot,
            "errors": self.errors,
        }

    def layer_metrics(self, uncovered_s: float) -> dict:
        """The per-layer metrics, as (value, unit) pairs keyed by name."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        by_name = {}
        entered = dict.fromkeys(LAYERS, 0)
        fid_layer = self.layer_of
        span_layer = {0: None}
        for sid, fid, t0, t1, parent, covered, tag in self.spans:
            span_layer[sid] = fid_layer[fid]
        for sid, fid, t0, t1, parent, covered, tag in self.spans:
            layer = fid_layer[fid]
            self_s[layer] += (t1 - t0) - covered
            by_name.setdefault((self.names[fid], tag), []).append(t1 - t0)
            if span_layer[parent] != layer:
                entered[layer] += 1
        for qualname, (_, seconds) in self.hot.items():
            self_s[qualname.split(".")[0]] += seconds

        def mean_us(name, tag=None):
            times = by_name.get((name, tag), [])
            return 1e6 * sum(times) / len(times) if times else 0.0

        def count(name, tag=None):
            return len(by_name.get((name, tag), []))

        steps = [r[0] for r in self.runs]
        converged = sum(1 for r in self.runs if r[1])
        diverged = sum(1 for r in self.runs if r[2])
        rootlab_errors = sum(
            1 for fid, parent_fid, exc in self.errors
            if exc == "RootFindingError" and fid_layer[fid] == "rootlab"
            and (parent_fid < 0 or fid_layer[parent_fid] != "rootlab"))
        total_steps = sum(steps)

        m = {
            "optim.us_per_step": (1e6 * self_s["optim"] / total_steps if total_steps else 0.0, "us"),
            "optim.self_s": (self_s["optim"], "s"),
            "optim.steps": (total_steps, "count"),
            "optim.runs_converged": (converged, "count"),
            "optim.runs_capped": (len(self.runs) - converged - diverged, "count"),
            "optim.runs_diverged": (diverged, "count"),
            "optim.steps_per_run.p50": (_nearest_rank(steps, 0.50), "steps"),
            "optim.steps_per_run.p99": (_nearest_rank(steps, 0.99), "steps"),
            "optim.objective_grad_calls": (self.grad_calls(), "count"),
        }
        for d in (1, 2, 3, 4):
            m[f"rootlab.classify_us.deg{d}"] = (mean_us("rootlab.classify_rrmp", d), "us")
        for d in (2, 3, 4):
            m[f"rootlab.signs_us.deg{d}"] = (mean_us("rootlab.rrmp_classify_by_signs", d), "us")
        m.update({
            "rootlab.pooled_us": (mean_us("rootlab.classify_rrmp_pooled"), "us"),
            "rootlab.self_s": (self_s["rootlab"], "s"),
            "rootlab.calls": (entered["rootlab"], "count"),
            "rootlab.companion_fallbacks": (self.companion_fallbacks, "count"),
            "rootlab.errors": (rootlab_errors, "count"),
            "funcspace.self_s": (self_s["funcspace"], "s"),
            "funcspace.region_us": (mean_us("funcspace.region"), "us"),
            "funcspace.factor_into_us": (mean_us("funcspace.factor_into"), "us"),
            "dynamics.self_s": (self_s["dynamics"], "s"),
            "dynamics.jacobian_mu_calls": (count("dynamics.jacobian_mu"), "count"),
            "critlab.self_s": (self_s["critlab"], "s"),
        })
        for lam in ("2-1-1", "2-2", "3-1", "4"):
            m[f"critlab.stratum_s.{lam}"] = (mean_us("critlab.crit_on_stratum", lam) / 1e6, "s")
        m.update({
            "poly_core.self_s": (self_s["poly_core"], "s"),
            "poly_core.poly_mul_calls": (self.hot["poly_core.poly_mul"][0], "count"),
            "poly_core.end_to_end_calls": (count("poly_core.end_to_end"), "count"),
            "trace.uncovered_s": (uncovered_s, "s"),
        })
        return m


def _nearest_rank(values, q):
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
