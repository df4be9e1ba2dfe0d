"""Traced runs: spans and counters around every public btensor function.

:class:`Tracer` wraps the public functions of the ``cli``, ``io``,
``classify``, ``decompose``, ``oracle`` and ``core`` modules by replacing
every module attribute that refers to them, in all loaded ``btensor``
modules, since callers look each name up in their own module at call time.
Leaving the ``with`` block restores every attribute.  Library code is never
edited.

A span is ``(name, start, end, parent_span, item)``; spans stay in memory
until :meth:`Tracer.write_spans`.  Counters are taken in the same wrappers,
from the arguments and results each call sees.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "btensor"
MODULES = ("cli", "io", "classify", "decompose", "oracle", "core")

FORM_CALLS = ("core.form_value", "core.apply", "core.form_values", "core.apply_many")
PREDICATES = tuple(f"classify.{name}" for name in (
    "is_b_tensor", "is_double_b_tensor", "is_quasi_double_b_tensor",
    "is_quasi_double_b0_tensor", "is_z_tensor", "is_dsdd", "is_qdsdd",
    "product_inequality",
))
ROUTES = (
    ("b-tensor", "b"),
    ("double-b", "double_b"),
    ("quasi-double-b", "quasi_double_b"),
    ("dsdd rows", "dsdd_rows"),
    ("qdsdd anchor", "qdsdd_anchor"),
    ("sphere search", "sphere_search"),
)
ROUTE_NAMES = tuple(name for _, name in ROUTES) + ("none", "other")
EXIT_CODES = ("0", "1", "2", "3", "4", "other")


def public_functions(module) -> dict[str, object]:
    """Functions a module defines and exports (``__all__`` when present)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {
        n: f for n in names
        if inspect.isfunction(f := getattr(module, n, None)) and f.__module__ == module.__name__
    }


def _rows(name: str, args, kwargs) -> int:
    if name in ("core.form_value", "core.apply"):
        return 1
    return len(args[1] if len(args) > 1 else kwargs["X"])


def _contract_work(counters: Counter, name: str, rows: int, T) -> None:
    """Computed cost of the stagewise m-form contraction for one call:
    each stage multiplies and adds over its ``rows * n^j`` input and writes
    ``rows * n^(j-1)``; the first stage broadcasts ``rows * n^m``."""
    n, m = T.dim, T.order
    last = 2 if name in ("core.apply", "core.apply_many") else 1
    stages = range(last, m + 1)
    counters["core.contract.flops_computed"] += 2 * rows * sum(n**j for j in stages)
    counters["core.contract.bytes_computed"] += 8 * rows * sum(n**j + n ** (j - 1) for j in stages)
    peak = 8 * rows * n**m
    if peak > counters["core.contract.peak_intermediate_bytes"]:
        counters["core.contract.peak_intermediate_bytes"] = peak


def _observe(tracer: "Tracer", name: str, args, kwargs, result, parent: str | None) -> None:
    c = tracer.counters
    if name in FORM_CALLS:
        rows = _rows(name, args, kwargs)
        c[f"{name}.rows"] += rows
        if tracer.open_names["oracle.sphere_minimize"]:
            c["oracle.form_evals"] += rows
        if parent not in FORM_CALLS:
            _contract_work(c, name, rows, args[0] if args else kwargs["T"])
    elif name == "oracle.sphere_minimize":
        c["oracle.samples"] += result.samples
        c["oracle.converged"] += bool(result.converged)
    elif name == "oracle.conjecture_search":
        c["oracle.search.trials"] += result.trials
        c["oracle.search.accepted"] += result.accepted
    elif name == "decompose.pd_certify":
        route = "none" if result.route is None else next(
            (short for prefix, short in ROUTES if result.route.startswith(prefix)), "other")
        c[f"decompose.route.{route}"] += 1
    elif name == "decompose.decompose":
        c["decompose.steps"] += result.step_count
    elif name == "io.load_tensor":
        c["io.load_tensor.bytes_in"] += os.path.getsize(args[0])
    elif name == "io.dump_report":
        c["io.dump_report.bytes_out"] += len(result.encode())
    elif name == "cli.main":
        code = str(result)
        c[f"cli.exit_code.{code if code in EXIT_CODES else 'other'}"] += 1


class Tracer:
    """Install with ``with Tracer() as t:``; set ``t.item`` before each
    benchmark item so its spans share an id."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.open_names: Counter = Counter()
        self.item = None
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, open_names = self.spans, self._stack, self.open_names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent, parent_name = stack[-1] if stack else (-1, None)
            stack.append((sid, name))
            open_names[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_names[name] -= 1
                spans[sid] = (name, start, end, parent, self.item)
            _observe(self, name, args, kwargs, result, parent_name)
            return result

        return traced

    def install(self) -> None:
        targets = {}
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for fname, fn in public_functions(module).items():
                targets[fn] = self._wrap(f"{short}.{fname}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in targets:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, targets[value])

    def restore(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ------------------------------------------------------------

    def totals(self) -> tuple[Counter, defaultdict, defaultdict]:
        """Per span name: call count, total seconds, self seconds (total
        minus the time covered by direct child spans)."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: defaultdict = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child.get(sid, 0.0)
        return calls, total, self_s

    def outermost_seconds(self, names) -> float:
        """Time in spans of ``names`` not nested inside another of them."""
        names = set(names)
        out = 0.0
        for name, start, end, parent, _ in self.spans:
            if name in names and (parent < 0 or self.spans[parent][0] not in names):
                out += end - start
        return out

    def layer_metrics(self) -> dict[str, float]:
        calls, total, self_s = self.totals()
        c = self.counters
        solves = calls["oracle.sphere_minimize"]
        trials = c["oracle.search.trials"]
        out = {}
        for name in ("core.form_values", "core.apply_many"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.rows"] = c[f"{name}.rows"]
            out[f"{name}.s"] = total[name]
        for key in ("flops_computed", "bytes_computed", "peak_intermediate_bytes"):
            out[f"core.contract.{key}"] = c[f"core.contract.{key}"]
        for name in ("core.form_value", "core.symmetrize"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
        out["core.is_symmetric.s"] = total["core.is_symmetric"]
        out["oracle.sphere_minimize.calls"] = solves
        out["oracle.sphere_minimize.s"] = total["oracle.sphere_minimize"]
        out["oracle.sphere_minimize.self_s"] = self_s["oracle.sphere_minimize"]
        out["oracle.samples"] = c["oracle.samples"]
        out["oracle.form_evals_per_solve"] = c["oracle.form_evals"] / solves if solves else 0.0
        out["oracle.converged_ratio"] = c["oracle.converged"] / solves if solves else 0.0
        out["oracle.conjecture_search.s"] = total["oracle.conjecture_search"]
        out["oracle.search.accepted_ratio"] = c["oracle.search.accepted"] / trials if trials else 0.0
        out["classify.classify_all.calls"] = calls["classify.classify_all"]
        out["classify.classify_all.s"] = total["classify.classify_all"]
        out["classify.predicate.calls"] = sum(calls[p] for p in PREDICATES)
        out["classify.predicate.s"] = self.outermost_seconds(PREDICATES)
        out["decompose.pd_certify.calls"] = calls["decompose.pd_certify"]
        out["decompose.pd_certify.s"] = total["decompose.pd_certify"]
        out["decompose.pd_certify.self_s"] = self_s["decompose.pd_certify"]
        out["decompose.decompose.calls"] = calls["decompose.decompose"]
        out["decompose.decompose.s"] = total["decompose.decompose"]
        out["decompose.steps"] = c["decompose.steps"]
        for route in ROUTE_NAMES:
            out[f"decompose.route.{route}"] = c[f"decompose.route.{route}"]
        out["io.load_tensor.s"] = total["io.load_tensor"]
        out["io.load_tensor.bytes_in"] = c["io.load_tensor.bytes_in"]
        out["io.content_hash.s"] = total["io.content_hash"]
        out["io.build_report.self_s"] = self_s["io.build_report"]
        out["io.decomposition_to_dict.s"] = total["io.decomposition_to_dict"]
        out["io.dump_report.s"] = total["io.dump_report"]
        out["io.dump_report.bytes_out"] = c["io.dump_report.bytes_out"]
        out["cli.main.calls"] = calls["cli.main"]
        out["cli.main.s"] = total["cli.main"]
        out["cli.main.self_s"] = self_s["cli.main"]
        for code in EXIT_CODES:
            out[f"cli.exit_code.{code}"] = c[f"cli.exit_code.{code}"]
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for sid, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
