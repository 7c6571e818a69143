"""Spans around flipc's public functions, installed only for a traced run.

Each wrapper records a span (name, start, end, parent span, program id) in
memory.  A layer's self time is its spans' durations minus the time covered
by their child spans.  Recursive BDD operations (``ite``, ``apply_*``,
``negate``) are deliberately not wrapped: their cost shows as the self time
of ``compiler`` and ``infer``.

A wrapped name that no longer exists after a refactor is reported as
missing, together with the metrics that depend on it; the run goes on.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (span name, module, attribute path): the public functions that are wrapped.
TARGETS = (
    ("parser", "flipc.parser", "parse_program"),
    ("typecheck", "flipc.typecheck", "typecheck_program"),
    ("desugar", "flipc.desugar", "desugar_program"),
    ("compiler", "flipc.compiler", "compile_program"),
    ("compiler.template", "flipc.compiler", "compile_function"),
    ("compiler.call", "flipc.compiler", "apply_call"),
    ("compiler.inline", "flipc.compiler", "inline_program"),
    ("bdd.compose", "flipc.bdd", "BddManager.compose"),
    ("bdd.wmc", "flipc.bdd", "BddManager.wmc"),
    ("infer", "flipc.infer", "distribution_result"),
    ("bif", "flipc.bif", "parse_bif"),
    ("bif", "flipc.bif", "net_to_program"),
)

# The benchmark's own span around compile_source + distribution_result.
PROGRAM = "program"

# Per-layer metric -> (unit, span it is measured at, kind).  Kinds: "self"
# is self time, "calls" the number of spans, "figure" a number read from
# the wrapped call, "ratio" a quotient of two totals over all programs.
METRICS = {
    "parser.ms": ("ms", "parser", "self"),
    "parser.source_kb": ("KB", "parser", "figure"),
    "typecheck.ms": ("ms", "typecheck", "self"),
    "desugar.ms": ("ms", "desugar", "self"),
    "desugar.core_nodes": ("count", "desugar", "figure"),
    "compiler.ms": ("ms", "compiler", "self"),
    "compiler.template_ms": ("ms", "compiler.template", "self"),
    "compiler.templates": ("count", "compiler.template", "calls"),
    "compiler.call_ms": ("ms", "compiler.call", "self"),
    "compiler.calls": ("count", "compiler.call", "calls"),
    "compiler.inline_ms": ("ms", "compiler.inline", "self"),
    "bdd.compose_ms": ("ms", "bdd.compose", "self"),
    "bdd.compose_calls": ("count", "bdd.compose", "calls"),
    "bdd.wmc_ms": ("ms", "bdd.wmc", "self"),
    "bdd.wmc_calls": ("count", "bdd.wmc", "calls"),
    "bdd.wmc_visits": ("count", "bdd.wmc", "figure"),
    "bdd.levels": ("count", "compiler", "figure"),
    "bdd.store_nodes": ("count", "compiler", "figure"),
    "bdd.live_ratio": ("ratio", "compiler", "ratio"),
    "infer.ms": ("ms", "infer", "self"),
    "infer.values": ("count", "infer", "figure"),
    "infer.useful_ratio": ("ratio", "infer", "ratio"),
    "bif.ms": ("ms", "bif", "self"),
    "trace.unspanned_ms": ("ms", PROGRAM, "self"),
}

# ratio -> (numerator total, denominator metric)
_RATIOS = {
    "bdd.live_ratio": ("live_nodes", "bdd.store_nodes"),
    "infer.useful_ratio": ("useful_values", "infer.values"),
}

# What a wrapper keeps from a call, read right after it returns; the
# figures are worked out from it once the program is finished.
_OBSERVE = {
    "parser": lambda args, result: args[0],
    "desugar": lambda args, result: result,
    "compiler": lambda args, result: _store_figures(getattr(result, "manager", None)),
    "bdd.wmc": lambda args, result: getattr(args[0], "last_wmc_visits", None),
    "infer": lambda args, result: result,
}


def _store_figures(manager) -> dict:
    """Levels and stored nodes of a manager right after compilation, before
    queries add their own nodes."""
    num_levels = getattr(manager, "num_levels", None)
    store = getattr(manager, "_var", None)  # the node store
    return {
        "bdd.levels": num_levels() if callable(num_levels) else None,
        "bdd.store_nodes": len(store) if store is not None else None,
    }


def _figures(span: str, observed) -> dict:
    """Figure metrics of one observation; None where flipc no longer
    exposes what the figure is read from."""
    if span == "parser":
        return {"parser.source_kb": len(observed.encode()) / 1024.0}
    if span == "desugar":
        try:
            from flipc.syntax import program_nodes
        except ImportError:
            return {"desugar.core_nodes": None}
        return {"desugar.core_nodes": sum(1 for _ in program_nodes(observed))}
    if span == "compiler":
        return observed
    if span == "bdd.wmc":
        return {"bdd.wmc_visits": observed}
    return {"infer.values": len(observed.entries)}


def _resolve(module: str, path: str):
    """(owner, attribute name, function), or None when any part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


class Tracer:
    def __init__(self, targets=TARGETS):
        self.spans: list = []  # [name, start, end, parent index, program id]
        self.observed: dict = defaultdict(list)  # span name -> observations
        self.rows: list = []  # per finished program: figure -> value
        self.missing: dict = {}  # metric -> reason
        self.program = None
        self._stack: list = []
        self._installed: list = []
        self._targets = []
        for name, module, path in targets:
            found = _resolve(module, path)
            if found is None:
                for metric, (_, span, _) in METRICS.items():
                    if span == name:
                        self.missing.setdefault(metric, f"{module}.{path} not found")
            else:
                self._targets.append((name, *found))

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.program])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        observe = _OBSERVE.get(name)

        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if observe is not None:
                tracer.observed[name].append(observe(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for name, owner, attr, fn in self._targets:
            setattr(owner, attr, self._wrap(name, fn))
            self._installed.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    # -- aggregation ------------------------------------------------------

    def finish_program(self, compiled, reference: dict) -> None:
        """Reduce the current program's spans and observations to one row of
        figures, then drop them, so memory stays bounded.

        ``compiled`` and ``reference`` are what the benchmark got for the
        program (``compiled`` is None when it raised)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        row: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row[("self", name)] += end - start - child_time[i]
            row[("calls", name)] += 1
        for span, observations in self.observed.items():
            for observed in observations:
                for metric, value in _figures(span, observed).items():
                    if value is None:
                        self.missing.setdefault(metric, f"{span} no longer exposes {metric}")
                    else:
                        row[metric] += value
        if compiled is not None:
            row["live_nodes"] += compiled.node_count()
        posterior = reference["posterior"]
        for result in self.observed.get("infer", []):
            row["useful_values"] += sum(1 for key, _ in result.entries if posterior.get(key, 0.0) > 0.0)
        self.rows.append(row)
        self.spans = []
        self._stack = []
        self.observed.clear()

    def layer_metrics(self) -> dict:
        """metric -> (value, unit): times and counts as means per traced
        program, ratios over all of them; missing metrics are left out."""
        count = max(len(self.rows), 1)

        def total(key) -> float:
            return sum(row.get(key, 0.0) for row in self.rows)

        for ratio, (_, base) in _RATIOS.items():
            if base in self.missing:
                self.missing.setdefault(ratio, self.missing[base])
        out = {}
        for metric, (unit, span, kind) in METRICS.items():
            if metric in self.missing:
                continue
            if kind == "self":
                value = total(("self", span)) * 1000.0 / count
            elif kind == "calls":
                value = total(("calls", span)) / count
            elif kind == "figure":
                value = total(metric) / count
            else:
                numerator, base = _RATIOS[metric]
                value = total(numerator) / total(base) if total(base) else 0.0
            out[metric] = (value, unit)
        return out
