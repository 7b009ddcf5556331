"""Span tracing of wernerlab's public functions, installed from outside the package.

Every wrapped function gets a span: name, start, end and the span that was
open when it was called.  A span's self time is its duration minus the
durations of the wrapped spans directly inside it.  Totals (calls, self time,
counters) are aggregated for every traced unit; raw spans are kept in memory
only for the first few traced units, because a bootstrap unit opens several
thousand of them, and are written out once the run ends.

Patching replaces every module-level binding of a function (``herm_eig`` is
imported by name into ``analysis``, ``tomography`` and ``states``), so calls
made through any of them are caught.  The estimators' ``fit`` methods are
patched on the class, so calls made inside ``bootstrap_errors`` and ``cli``
are caught too and the fitted attributes can be read.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict


def _after_mle(tracer, args, out):
    est = args[0]
    tracer.counters["tomography.mle.evals"] += est.n_evaluations_
    if not est.converged_:
        tracer.counters["tomography.mle.nonconverged"] += 1


def _after_linear(tracer, args, out):
    if args[0].min_eigenvalue_ >= 0.0:
        tracer.counters["tomography.linear.physical"] += 1


def _before_bootstrap(tracer, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.counters["tomography.bootstrap.replicas"] += bound.arguments["n_replicas"]


# (module, attribute, span name) of the module-level functions, and
# (module, class, method, span name, hook run after the call) of the methods.
FUNCTIONS = (
    ("qlinalg", "herm_eig", "qlinalg.herm_eig"),
    ("analysis", "fit_werner", "analysis.fit_werner"),
    ("analysis", "fidelity", "analysis.fidelity"),
    ("analysis", "tangle", "analysis.tangle"),
    ("analysis", "chsh_value", "analysis.chsh_value"),
    ("tomography", "bootstrap_errors", "tomography.bootstrap"),
    ("polarimetry", "simulate_counts", "polarimetry.simulate_counts"),
    ("polarimetry", "poisson_sample", "polarimetry.poisson_sample"),
    ("decoherence", "gamma", "decoherence.gamma"),
    ("decoherence", "decoherence_curve", "decoherence.decoherence_curve"),
    ("decoherence", "simulate_single_photon_experiment", "decoherence.single_photon"),
    ("states", "density_matrix_to_json", "states.json"),
    ("states", "density_matrix_from_json", "states.json"),
    ("cli", "main", "cli"),
)
METHODS = (
    ("tomography", "MaximumLikelihood", "fit", "tomography.mle", _after_mle),
    ("tomography", "LinearInversion", "fit", "tomography.linear", _after_linear),
)
BEFORE = {"tomography.bootstrap": _before_bootstrap}
# Traced units whose raw spans are kept; a bootstrap unit opens thousands.
RAW_UNITS = 2


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self, package):
        self.package = package
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._unit = None
        self._traced_units = 0
        self._patches = self._plan()

    def _modules(self):
        prefix = self.package.__name__ + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package.__name__ or name.startswith(prefix))]

    def _plan(self):
        """List every (owner, attribute, original, wrapper) to swap in."""
        modules = self._modules()
        patches = []
        for mod_name, attr, span in FUNCTIONS:
            original = getattr(getattr(self.package, mod_name), attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original, wrapper))
        for mod_name, cls_name, attr, span, after in METHODS:
            cls = getattr(getattr(self.package, mod_name), cls_name)
            original = cls.__dict__[attr]
            patches.append((cls, attr, original, self._wrap(span, original, after)))
        return patches

    def _wrap(self, name, fn, after=None):
        before = BEFORE.get(name)
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, fn, args, kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]  # id, time covered by direct child spans
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if tracer._unit is not None:
                    tracer.spans.append((tracer._unit, span_id,
                                         parent[0] if parent else None, name, start, end))
            if after is not None:
                after(tracer, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, unit_index: int) -> None:
        """Start tracing one unit; call :meth:`uninstall` when it ends."""
        keep = self._traced_units < RAW_UNITS
        self._unit = unit_index if keep else None
        self._traced_units += 1
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)
        self._unit = None

    def spans_doc(self) -> list:
        t0 = min((sp[4] for sp in self.spans), default=0.0)
        return [
            {"unit": u, "span": s, "parent": p, "name": n,
             "start_ms": round((a - t0) * 1e3, 6), "end_ms": round((b - t0) * 1e3, 6)}
            for u, s, p, n, a, b in self.spans
        ]
