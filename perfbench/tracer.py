"""In-memory span tracer that wraps fullex's public functions from outside.

`install` rebinds each function listed in `WRAPPED` in every loaded fullex
module namespace that holds it, so calls made inside the library (which
look names up in module globals) are traced as well.  Nothing in `src/` is
changed.  A span is `[name, tag, start, end, active, parent]`: `active` is
the time spent inside the call, which for a generator is the sum of its
resumptions, and `parent` is the index of the enclosing span or -1.
Spans stay in memory until `dump` writes them as JSON.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from contextlib import contextmanager

MODULES = ("graphs", "planar_code", "matching", "extendability", "antikekule",
           "families", "enumerator", "harness", "cli")

# the layer boundaries; hot helpers such as norm_edge are left alone because
# a span per call would cost more than the work it measures
WRAPPED = {
    "enumerator": ("enumerate_fullerenes",),
    "graphs": ("canonical_code", "validate_fullerene", "connectivity", "girth",
               "short_cycles_facial", "edge_cuts_up_to", "has_cyclic_cut_leq3"),
    "matching": ("perfect_matchings", "deficiency_certificate"),
    "extendability": ("is_k_extendable", "extendability_number"),
    "antikekule": ("anti_kekule_number",),
    "families": ("build_tube", "recognize_tube", "verify_tube_pm_structure"),
    "planar_code": ("read_graphs", "write_graphs", "encode_graph"),
    "harness": ("analyze_graph", "catalogue_digests", "verify_all",
                "DigestCache.load", "DigestCache.save"),
    "cli": ("main",),
}


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _tag(qualname, args, kwargs):
    """Argument detail kept with a span: n, k, subcommand, or for a catalogue
    its worker count, size and whether a cache was given."""
    if qualname == "enumerator.enumerate_fullerenes":
        return _arg(args, kwargs, 0, "n")
    if qualname == "extendability.is_k_extendable":
        return _arg(args, kwargs, 1, "k")
    if qualname == "harness.catalogue_digests":
        return [_arg(args, kwargs, 1, "jobs", 1), _arg(args, kwargs, 0, "catalogue").size,
                _arg(args, kwargs, 2, "cache") is not None]
    if qualname == "cli.main":
        argv = _arg(args, kwargs, 0, "argv")
        return argv[0] if argv else None
    return None


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.closes = 0  # one per traced call and per generator resumption
        self.install_s = 0.0

    def count(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def _open(self, name, tag) -> tuple[int, list]:
        index = len(self.spans)
        span = [name, tag, time.perf_counter(), 0.0, 0.0,
                self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        return index, span

    def _close(self, span, t0) -> None:
        t1 = time.perf_counter()
        self.closes += 1
        self._stack.pop()
        span[3] = t1
        span[4] += t1 - t0

    @contextmanager
    def span(self, name, tag=None):
        """A span around the benchmark's own code, e.g. one batch pass."""
        _, span = self._open(name, tag)
        try:
            yield
        finally:
            self._close(span, span[2])

    def wrap(self, qualname, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(qualname, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            _, span = self._open(qualname, _tag(qualname, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, span[2])
            self._observe(qualname, args, result)
            return result
        return traced

    def _wrap_generator(self, qualname, fn):
        """One span per generator; `active` sums the time of each resumption,
        so the consumer's work between items is not charged to it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            index, span = self._open(qualname, None)
            self._close(span, span[2])
            yielded = 0
            try:
                while True:
                    self._stack.append(index)
                    t0 = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(span, t0)
                    yielded += 1
                    yield item
            finally:
                inner.close()
                self._observe(qualname, args, yielded, span)
        return traced

    def _observe(self, qualname, args, result, span=None) -> None:
        """Work counts taken from arguments and results at the boundary."""
        if qualname == "enumerator.enumerate_fullerenes":
            self.count("enumerator.catalogue_graphs", result.size)
        elif qualname == "matching.perfect_matchings":
            self.count("matching.perfect_matchings.count", result)
            parent = self.spans[span[5]][0] if span[5] >= 0 else None
            if (parent == "extendability.is_k_extendable"
                    and result > self._enumeration_cap):
                # the per-edge PM index gave up; candidates are then decided
                # by one matching computation each
                self.count("extendability.index_fallbacks")
        elif qualname == "antikekule.anti_kekule_number":
            if result.number == 3:
                self.count("antikekule.ak3.count")
        elif qualname == "planar_code.read_graphs":
            self.count("planar_code.bytes", len(args[0]))
        elif qualname == "planar_code.encode_graph":
            self.count("planar_code.bytes", len(result))

    def install(self) -> None:
        """Rebind every name in `WRAPPED` across the loaded fullex modules."""
        t0 = time.perf_counter()
        mods = {name: importlib.import_module(f"fullex.{name}") for name in MODULES}
        namespaces = [importlib.import_module("fullex"), *mods.values()]
        self._enumeration_cap = mods["extendability"].ENUMERATION_CAP
        for modname, names in WRAPPED.items():
            mod = mods[modname]
            for name in names:
                qualname = f"{modname}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self.wrap(qualname, getattr(cls, meth)))
                    continue
                original = getattr(mod, name)
                traced = self.wrap(qualname, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, traced)
        self.install_s = time.perf_counter() - t0

    def dump(self, path: str) -> None:
        """Write the spans, the counts, and the tracing overhead: installing
        the wrappers, the traced calls and resumptions times the wrapper cost
        measured here, and serialising the spans."""
        t0 = time.perf_counter()
        json.dumps(self.spans)
        serialise_s = time.perf_counter() - t0
        overhead = self.install_s + self.closes * wrapper_cost() + serialise_s
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counts": self.counts, "overhead_s": overhead}, fh)


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a traced call costs beyond the bare call, on a no-op function.

    The median over `repeats` rounds of `calls` bare then traced calls; the
    traced call opens and closes a span, which costs far more than the bare
    call, so the difference stays positive under timer noise."""
    probe = Tracer("calibration")

    def noop(x):
        return x

    traced = probe.wrap("bench.noop", noop)
    costs = []
    for _ in range(repeats):
        probe.spans.clear()
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i)
        t1 = time.perf_counter()
        for i in range(calls):
            traced(i)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)
