"""Layer spans and counters for liftcalc, installed from outside the package.

`Tracer.install` wraps the public functions and methods of each liftcalc
module and rebinds every module attribute that referred to the original, so
calls made through `from .x import name` are seen too.  A wrapped call
records a span (name, start, end, parent, raised) in memory.  The kernel's
value classes (`GRat`, `Expr`) are the hottest code in the package: their
arithmetic is counted, not spanned, and their other small accessors are
left alone, so the trace stays a bounded multiple of the untraced run.

`Tracer.layer_metrics` turns spans and counters into the `<module>.<name>`
per-layer metrics; `Tracer.dump` writes the raw spans out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

MODULES = ("symkernel", "charts", "fields", "lifts", "structures", "verify",
           "cli")

# symkernel: only the layer-boundary functions get spans.
KERNEL_SPANS = frozenset({"parse", "format_expr", "divide_exact",
                          "solve_poly_linear"})

# Counted-only methods of the kernel value classes, by counter.
KERNEL_COUNTS = {
    "GRat": {name: "grat_ops" for name in (
        "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
        "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inverse",
        "conjugate")},
    "Expr": {"__add__": "expr_add", "__radd__": "expr_add",
             "__sub__": "expr_add", "__rsub__": "expr_add",
             "__mul__": "expr_mul", "__rmul__": "expr_mul",
             "diff": "expr_diff",
             "substitute": "expr_subst", "substitute_unknowns": "expr_subst"},
}
COUNTERS = ("grat_ops", "expr_add", "expr_mul", "expr_diff", "expr_subst")

# Span groups: metric prefix -> span names, or a span-name prefix.  A
# group's calls and seconds count only spans with no enclosing span of the
# same group.
GROUPS = {
    "symkernel.solve": {"symkernel.solve_poly_linear"},
    "symkernel.divide": {"symkernel.divide_exact"},
    "symkernel.parse": {"symkernel.parse"},
    "symkernel.format": {"symkernel.format_expr"},
    "lifts.vf_solve": {"lifts.vf_lift_solve_certified"},
    "lifts.of_solve": {"lifts.of_lift_solve_certified"},
    "lifts.t11_solve": {"lifts.t11_lift_solve_certified"},
    "lifts.t02_solve": {"lifts.t02_lift_solve_certified"},
    "lifts.residual": {"lifts.vf_defining_residuals",
                       "lifts.of_defining_residuals",
                       "lifts.t11_defining_residuals",
                       "lifts.t02_defining_residuals"},
    "lifts.closed": {"lifts.vf_vertical_closed", "lifts.vf_complete_closed",
                     "lifts.vf_cv_closed", "lifts.of_vertical_closed",
                     "lifts.of_complete_closed", "lifts.of_cv_closed"},
    "lifts.scalar": {"lifts.fn_vertical", "lifts.fn_complete_step",
                     "lifts.fn_complete", "lifts.fn_complete_vertical",
                     "lifts.fn_horizontal", "lifts.gamma_gradient"},
    "lifts.horizontal": {"lifts.vf_horizontal", "lifts.of_horizontal",
                         "lifts.adapted_frame"},
    "fields.apply": {"fields.VectorField.apply", "fields.OneForm.pair",
                     "fields.EndoField.apply_vector",
                     "fields.EndoField.apply_form",
                     "fields.Bilinear.evaluate", "fields.AltForm.evaluate"},
    "verify.corpus": "verify.FieldGen.",
    "verify.compare": {"verify.compare_proposition"},
    "structures": "structures.",
}
SUITES = ("functions", "vectors", "oneforms", "tensors", "structures",
          "brackets", "frames")

# name -> (unit, how partial values from several processes combine)
METRICS: dict[str, tuple[str, str]] = {}
for _prefix in ("symkernel.solve", "symkernel.divide", "symkernel.parse",
                "symkernel.format", "lifts.vf_solve", "lifts.of_solve",
                "lifts.t11_solve", "lifts.t02_solve", "lifts.closed",
                "lifts.scalar", "lifts.horizontal", "fields.apply"):
    METRICS[f"{_prefix}_calls"] = ("count", "sum")
    METRICS[f"{_prefix}_s"] = ("s", "sum")
METRICS.update({
    "symkernel.solve_distinct": ("count", "sum"),
    "symkernel.solve_reuse": ("ratio", "derived"),
    "symkernel.solve_cells": ("count", "sum"),
    "symkernel.solve_max_unknowns": ("count", "max"),
    "symkernel.solve_raised": ("count", "sum"),
    "lifts.residual_s": ("s", "sum"),
    "lifts.vf_cache_entries": ("count", "sum"),
    "lifts.complete_cache_hits": ("count", "sum"),
    "lifts.complete_cache_misses": ("count", "sum"),
    "lifts.complete_cache_hit_ratio": ("ratio", "derived"),
    "structures.calls": ("count", "sum"),
    "structures.s": ("s", "sum"),
    "verify.corpus_s": ("s", "sum"),
    "verify.compare_s": ("s", "sum"),
    "cli.s": ("s", "sum"),
})
for _counter in COUNTERS:
    METRICS[f"symkernel.{_counter}"] = ("count", "sum")
for _suite in SUITES:
    METRICS[f"verify.{_suite}_s"] = ("s", "sum")


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.counts = [0] * len(COUNTERS)
        self.solve_args: list[tuple[tuple, tuple]] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []

    # -- wrappers -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _span(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, raised)
        return wrapper

    def _suite_span(self, fn, name: str):
        """`run_suite` gets one span name per suite: `name:<suite>`."""
        by_suite: dict = {}

        @functools.wraps(fn)
        def wrapper(suite, *args, **kwargs):
            spanned = by_suite.get(suite)
            if spanned is None:
                spanned = by_suite[suite] = self._span(fn, f"{name}:{suite}")
            return spanned(suite, *args, **kwargs)
        return wrapper

    def _solve_span(self, fn, name: str):
        """`solve_poly_linear`'s span, plus its arguments for the system
        shape metrics."""
        spanned, calls = self._span(fn, name), self.solve_args

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            equations = kwargs.get("equations", args[0] if args else ())
            unknowns = kwargs.get("unknowns", args[1] if len(args) > 1 else ())
            calls.append((tuple(equations), tuple(unknowns)))
            return spanned(*args, **kwargs)
        return wrapper

    def _count(self, fn, counter: str):
        counts, slot = self.counts, COUNTERS.index(counter)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[slot] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the package's public functions and methods in place."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for short in MODULES:
            mod = getattr(package, short)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if short == "symkernel" and attr not in KERNEL_SPANS:
                        continue
                    wrapped = self._function_wrapper(short, attr, obj)
                    for m in modules:
                        for name, value in list(vars(m).items()):
                            if value is obj:
                                setattr(m, name, wrapped)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    self._wrap_class(short, obj)

    def _function_wrapper(self, short: str, attr: str, fn):
        name = f"{short}.{attr}"
        if name == "symkernel.solve_poly_linear":
            return self._solve_span(fn, name)
        if name == "verify.run_suite":
            return self._suite_span(fn, name)
        return self._span(fn, name)

    def _wrap_class(self, short: str, cls) -> None:
        counted = KERNEL_COUNTS.get(cls.__name__) if short == "symkernel" else None
        for attr, value in list(vars(cls).items()):
            if not inspect.isfunction(value):
                continue
            if short == "symkernel":
                if counted and attr in counted:
                    setattr(cls, attr, self._count(value, counted[attr]))
            elif not attr.startswith("_"):
                setattr(cls, attr,
                        self._span(value, f"{short}.{cls.__name__}.{attr}"))

    # -- results --------------------------------------------------------------

    def _span_totals(self):
        """One pass over the spans: per group, the calls and seconds of
        spans with no enclosing span of the same group; the self time of
        `cli.main`; and the number of solves that raised."""
        group = [_group_of(n) for n in self.names]
        main_id = self._ids.get("cli.main", -1)
        solve_id = self._ids.get("symkernel.solve_poly_linear", -1)
        spans = self.spans
        calls: dict[str, int] = {}
        seconds: dict[str, float] = {}
        outer: list[frozenset] = []     # groups of each span's ancestors
        unions: dict = {}
        empty: frozenset = frozenset()
        cli_self = 0.0
        raised = 0
        for nid, start, end, parent, failed in spans:
            if nid == main_id:
                cli_self += end - start
            elif nid == solve_id:
                raised += failed
            if parent < 0:
                above = empty
            else:
                if spans[parent][0] == main_id:
                    cli_self -= end - start
                above = outer[parent]
                pg = group[spans[parent][0]]
                if pg is not None and pg not in above:
                    key = (above, pg)
                    above = unions.get(key) or unions.setdefault(key, above | {pg})
            outer.append(above)
            g = group[nid]
            if g is not None and g not in above:
                calls[g] = calls.get(g, 0) + 1
                seconds[g] = seconds.get(g, 0.0) + end - start
        return calls, seconds, cli_self, raised

    def layer_metrics(self, lifts_module) -> dict[str, float]:
        """Per-layer raw metrics of this process (ratios are derived later
        by `combine`, after several processes are summed)."""
        out: dict[str, float] = {f"symkernel.{c}": v
                                 for c, v in zip(COUNTERS, self.counts)}
        calls, seconds, cli_self, raised = self._span_totals()
        for prefix in GROUPS:
            n, s = calls.get(prefix, 0), seconds.get(prefix, 0.0)
            if prefix == "structures":
                out["structures.calls"], out["structures.s"] = n, s
            elif prefix in ("verify.corpus", "verify.compare", "lifts.residual"):
                out[f"{prefix}_s"] = s
            else:
                out[f"{prefix}_calls"], out[f"{prefix}_s"] = n, s
        for suite in SUITES:
            out[f"verify.{suite}_s"] = seconds.get(f"verify.{suite}", 0.0)
        out["cli.s"] = cli_self
        out["symkernel.solve_raised"] = raised
        out.update(_solve_shapes(self.solve_args))
        out.update(cache_state(lifts_module))
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))


def _group_of(name: str) -> str | None:
    if name.startswith("verify.run_suite:"):
        return "verify." + name.split(":", 1)[1]
    for prefix, members in GROUPS.items():
        if name.startswith(members) if isinstance(members, str) else name in members:
            return prefix
    return None


def _solve_shapes(solve_args) -> dict[str, int]:
    """Distinct coefficient matrices and system sizes of the recorded
    solves.  A matrix is keyed by position, not unknown name, so the same
    system built under two naming schemes counts once."""
    keys = set()
    cells = widest = 0
    for equations, unknowns in solve_args:
        rows = []
        for eq in equations:
            coeffs, _ = eq.linear_split(unknowns)
            rows.append(tuple(coeffs.get(u) for u in unknowns))
        keys.add((len(unknowns), tuple(rows)))
        cells += len(equations) * len(unknowns)
        widest = max(widest, len(unknowns))
    return {"symkernel.solve_distinct": len(keys),
            "symkernel.solve_cells": cells,
            "symkernel.solve_max_unknowns": widest}


def cache_state(lifts_module) -> dict[str, int]:
    """Read-only look at the lift caches; names that do not exist are left
    out, and the caller reports them as absent."""
    out = {}
    cache = getattr(lifts_module, "_VF_SOLVE_CACHE", None)
    if cache is not None:
        out["lifts.vf_cache_entries"] = len(cache)
    info = getattr(getattr(lifts_module, "_complete_expr", None),
                   "cache_info", None)
    if info is not None:
        stats = info()
        out["lifts.complete_cache_hits"] = stats.hits
        out["lifts.complete_cache_misses"] = stats.misses
    return out


def combine(parts: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Merge per-process raw metrics into the reported per-layer set.
    Returns the metrics and the names that no process could measure."""
    merged: dict[str, float] = {}
    absent = []
    for name, (_, how) in METRICS.items():
        if how == "derived":
            continue
        values = [p[name] for p in parts if name in p]
        if not values:
            absent.append(name)
            merged[name] = 0
        else:
            merged[name] = max(values) if how == "max" else sum(values)
    calls, distinct = merged["symkernel.solve_calls"], merged["symkernel.solve_distinct"]
    merged["symkernel.solve_reuse"] = calls / distinct if distinct else 0.0
    hits = merged["lifts.complete_cache_hits"]
    lookups = hits + merged["lifts.complete_cache_misses"]
    merged["lifts.complete_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    if "lifts.complete_cache_hits" in absent:
        absent.append("lifts.complete_cache_hit_ratio")
    return merged, absent
