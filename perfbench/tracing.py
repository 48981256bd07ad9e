"""Spans and counters wrapped around the package's public functions.

Only the traced run installs them. Each public module-level function of a
layer is replaced, in every module namespace that holds it, by a wrapper
that records a span (name, start, end, parent span, job). Hot inner
functions get counters instead, so the trace stays small and its overhead
stays measurable. Spans stay in memory and are written once, at the end.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("spaces", "evidence", "kernels", "multiplicity", "golden", "fileio", "cli")

# Hot functions: counted, never timed on their own.
COUNTED = ("multiplicity.fep_fsp", "multiplicity.postprocess_efunction")

# Methods timed only when they compute; a cached answer costs its caller nothing.
# (class, method, cache attribute or None when uncached)
METHODS = (
    ("Space", "analyze", None),
    ("Space", "_closure_flags", "_flags"),
    ("Space", "least_ids", "_least_ids"),
    ("Space", "cover_edges", "_cover_edges"),
)

# Work counts read off a function's result.
RESULT_COUNTS = {
    "spaces.union_closure": ("spaces.members", len),
    "kernels.check_validity": ("kernels.pairs", lambda r: len(r.entries)),
    "kernels.check_posthoc_validity": ("kernels.pairs", lambda r: len(r.entries)),
    "kernels.check_anytime_validity": ("kernels.stopping_rules", lambda r: r.rules_checked),
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, job)
        self.open_spans: list[int] = []
        self.open_names: list[str] = []
        self.job = -1
        self.counts: Counter = Counter()  # (counter, innermost open span) -> n
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, cache=None):
        spans, open_, names = self.spans, self.open_spans, self.open_names
        counted = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cache is not None and getattr(args[0], cache, None) is not None:
                return fn(*args, **kwargs)
            i = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(i)
            names.append(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                names.pop()
                spans[i] = (name, start, end, parent, self.job)
            if counted is not None:
                try:
                    self.counts[(counted[0], name)] += counted[1](result)
                except (AttributeError, TypeError):
                    pass
            return result

        return wrapper

    def _counter(self, name, fn):
        counts, names = self.counts, self.open_names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(name, names[-1] if names else "")] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self, package: str = "emeasure") -> None:
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._counter(name, fn) if name in COUNTED else self._span(name, fn)
                self._replace(modules, fn, wrapper)
        spaces = sys.modules[f"{package}.spaces"]
        for cls_name, method, cache in METHODS:
            cls = getattr(spaces, cls_name, None)
            fn = getattr(cls, method, None) if cls is not None else None
            if inspect.isfunction(fn):
                self._undo.append((cls, method, fn))
                setattr(cls, method, self._span(f"spaces.{cls_name}.{method}", fn, cache))
        xvalue = sys.modules[f"{package}.xvalue"].XValue
        self._undo.append((xvalue, "__init__", xvalue.__init__))
        xvalue.__init__ = self._counter("xvalue.init", xvalue.__init__)
        yaml = getattr(sys.modules[f"{package}.fileio"], "yaml", None)
        if yaml is not None:
            self._undo.append((yaml, "safe_load", yaml.safe_load))
            yaml.safe_load = self._span("fileio.yaml", yaml.safe_load)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[tuple[str, int, float]]:
        """(name, job, self seconds) per span: duration minus its children's."""
        covered = defaultdict(float)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [
            (name, job, end - start - covered[i])
            for i, (name, start, end, parent, job) in enumerate(self.spans)
        ]

    def inclusive_times(self, jobs: int) -> list[dict[str, float]]:
        """Per job, seconds spent inside each span name, children included."""
        out = [defaultdict(float) for _ in range(jobs)]
        for name, start, end, parent, job in self.spans:
            out[job][name] += end - start
        return out

    def count(self, counter: str, inside: str | None = None) -> int:
        return sum(
            n for (c, where), n in self.counts.items() if c == counter and inside in (None, where)
        )

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, job]) + "\n")
            for (counter, where), n in sorted(self.counts.items()):
                fh.write(json.dumps(["count", counter, where, n]) + "\n")


# Per-layer metrics: self seconds summed over spans whose name matches.
SELF_METRICS = {
    "fileio.load_s": lambda n: n.startswith("fileio.load_"),
    "fileio.yaml_s": lambda n: n == "fileio.yaml",
    "spaces.union_closure_s": lambda n: n == "spaces.union_closure",
    "spaces.analyze_s": lambda n: n in ("spaces.Space.analyze", "spaces.Space._closure_flags"),
    "spaces.cover_edges_s": lambda n: n == "spaces.Space.cover_edges",
    "spaces.least_ids_s": lambda n: n == "spaces.Space.least_ids",
    "evidence.classify_s": lambda n: n == "evidence.classify",
    "evidence.close_s": lambda n: n in ("evidence.close", "evidence.closure_fast", "evidence.closure_bruteforce"),
    "kernels.check_validity_s": lambda n: n == "kernels.check_validity",
    "kernels.check_posthoc_validity_s": lambda n: n == "kernels.check_posthoc_validity",
    "kernels.check_predictive_validity_s": lambda n: n == "kernels.check_predictive_validity",
    "kernels.check_anytime_validity_s": lambda n: n == "kernels.check_anytime_validity",
    "multiplicity.check_fer_s": lambda n: n == "multiplicity.check_fer",
    "multiplicity.check_fwe_s": lambda n: n == "multiplicity.check_fwe",
    "multiplicity.self_consistent_selection_s": lambda n: n == "multiplicity.self_consistent_selection",
    "multiplicity.ebh_s": lambda n: n == "multiplicity.ebh",
    "multiplicity.closed_ebh_s": lambda n: n == "multiplicity.closed_ebh",
    "golden.compute_reference_table_s": lambda n: n == "golden.compute_reference_table",
}
SELF_METRICS.update(
    {f"{layer}.self_s": (lambda n, p=layer + ".": n.startswith(p)) for layer in LAYERS}
)

# Time of one span name per job (children included) against the job size
# that drives its cost: 'log' fits log(time) against log(size), 'semilog'
# fits log2(time) against the size. Optionally only jobs of one kind.
GROWTH = {
    "spaces.union_closure.growth": ("spaces.union_closure", "members", "log", None),
    "spaces.cover_edges.growth": ("spaces.Space.cover_edges", "members", "log", None),
    "evidence.close.growth": ("evidence.close", "members", "log", "closure-capacity"),
    "kernels.check_validity.growth": ("kernels.check_validity", "outcome_pairs", "log", "validity"),
    "multiplicity.check_fer.growth": ("multiplicity.check_fer", "outcome_pairs", "log", "fer"),
    "kernels.check_anytime_validity.growth": ("kernels.check_anytime_validity", "nodes", "log", None),
    "multiplicity.self_consistent_selection.growth": (
        "multiplicity.self_consistent_selection", "K", "semilog", "self-consistent-none"),
}


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope; 0 when fewer than two distinct x values."""
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def growth_table(inclusive: list, jobs: list, name: str, size_key: str, kind):
    """Mean seconds in one span name per job that ran it, grouped by the job's size."""
    groups = defaultdict(list)
    for index, job in enumerate(jobs):
        if name in inclusive[index] and size_key in job.sizes and kind in (None, job.kind):
            groups[job.sizes[size_key]].append(inclusive[index][name])
    return {size: sum(v) / len(v) for size, v in sorted(groups.items())}


def fit_growth(table: dict, scale: str) -> float:
    pts = [(s, t) for s, t in table.items() if t > 0]
    if scale == "log":
        return slope([(math.log(s), math.log(t)) for s, t in pts])
    return slope([(s, math.log2(t)) for s, t in pts])
