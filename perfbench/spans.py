"""Span recorder and the wrappers that attach it to the library from outside.

The library has no tracing of its own, so a traced run rebinds each public
layer function named in `TARGETS` with a wrapper that records a span (name,
start, end, parent) around every call, plus counts read from the call's
result.  A function is rebound in every ``rasch.*`` module that binds it, so
calls made through any import path are seen.  A target the library no longer
defines is skipped: its metrics then read zero instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter_ns


@dataclass
class Recorder:
    """Spans of the calls in flight and finished since the last `take`.

    A span is ``[name, start_ns, end_ns, parent]`` where ``parent`` indexes
    the enclosing span in the same list, or is -1 at the top.  ``counts``
    accumulates work counts and ``maxima`` running maxima, both filled by the
    result hooks of `TARGETS`.
    """

    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    maxima: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                self._stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def take(self):
        """Return and clear ``(spans, counts, maxima)``; calls in flight keep going."""
        if self._stack:
            raise RuntimeError("take() called inside a recorded span")
        out = (self.spans, self.counts, self.maxima)
        self.spans, self.counts, self.maxima = [], Counter(), {}
        return out


def self_times(spans) -> dict:
    """Per-name self time in seconds: span duration minus time covered by its children."""
    child_ns = [0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = Counter()
    for (name, start, end, _parent), covered in zip(spans, child_ns):
        out[name] += (end - start - covered) / 1e9
    return dict(out)


def total_times(spans) -> dict:
    """Per-name inclusive time in seconds, counting a recursive call only once."""
    out = Counter()
    for name, start, end, parent in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name] += (end - start) / 1e9
    return dict(out)


def call_counts(spans) -> dict:
    return dict(Counter(span[0] for span in spans))


def calls_under(spans, name: str, parent_name: str) -> int:
    """Number of ``name`` spans whose direct parent is a ``parent_name`` span."""
    return sum(1 for s in spans if s[0] == name and s[3] >= 0 and spans[s[3]][0] == parent_name)


# ---------------------------------------------------------------------------
# What is wrapped
# ---------------------------------------------------------------------------

def _on_split(rec, split):
    rec.counts["pairs_formed"] += split.n_pairs


def _on_compiled(rec, pc):
    rec.counts["records_kept"] += pc.n_records


def _on_weighted(rec, wp):
    rec.counts["weighted_records"] += wp.n_records


def _on_solve(rec, res):
    rec.counts["iterations"] += res.iterations
    rec.counts["unconverged"] += not res.converged
    rec.maxima["iterations"] = max(rec.maxima.get("iterations", 0), res.iterations)


# (span name, defining module, attribute, result hook).  A dotted attribute
# names a classmethod.
TARGETS = (
    ("pairing.random_split", "rasch.pairing", "random_split", _on_split),
    ("pairing.compile_comparisons", "rasch.pairing", "compile_comparisons", _on_compiled),
    ("pairing.enumerate_weighted_pairs", "rasch.pairing", "enumerate_weighted_pairs", _on_weighted),
    ("solver.objective_build", "rasch.solver", "BtlObjective.from_comparisons", None),
    ("solver.objective_build", "rasch.solver", "BtlObjective.from_weighted_pairs", None),
    ("solver.solve_newton", "rasch.solver", "solve_newton", _on_solve),
    ("solver.nll", "rasch.solver", "nll", None),
    ("solver.gradient", "rasch.solver", "gradient", None),
    ("solver.hessian", "rasch.solver", "hessian", None),
    ("laplacian.connected_components", "rasch.laplacian", "connected_components", None),
    ("estimators.fit", "rasch.estimators", "rp_mle", None),
    ("estimators.fit", "rasch.estimators", "mrp_mle", None),
    ("estimators.fit", "rasch.estimators", "wp_mle", None),
    ("estimators.fit", "rasch.estimators", "pmle", None),
    ("inference.plugin_covariance", "rasch.inference", "plugin_covariance", None),
    ("inference.confidence_intervals", "rasch.inference", "confidence_intervals", None),
    ("model.sample_responses", "rasch.model", "sample_responses", None),
    ("model.from_csv", "rasch.model", "ResponseData.from_csv", None),
    ("lsat.load_lsat", "rasch.lsat", "load_lsat", None),
    ("cli.main", "rasch.cli", "main", None),
)


def install(rec: Recorder, targets=TARGETS):
    """Rebind every target with a recording wrapper; return a function that undoes it.

    Each module named in ``targets`` must already be imported.  Plain
    functions are replaced wherever a ``rasch`` module binds the same object;
    classmethods are replaced on their class.
    """
    undo = []
    modules = [mod for name, mod in list(sys.modules.items())
               if mod is not None and (name == "rasch" or name.startswith("rasch."))]
    for name, module_name, attr, on_result in targets:
        home = sys.modules.get(module_name)
        if home is None:
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name, None)
            orig = None if cls is None else cls.__dict__.get(meth)
            if not isinstance(orig, classmethod):
                continue
            setattr(cls, meth, classmethod(rec.wrap(name, orig.__func__, on_result)))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(home, attr, None)
        if orig is None:
            continue
        wrapped = rec.wrap(name, orig, on_result)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, orig))

    def uninstall():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)

    return uninstall
