"""Per-layer tracing installed from outside the package.

A layer is a ``hamvt`` module.  ``Tracer.install`` replaces public
functions, by name, in the namespace of every module that binds them
(``hamvt.pipeline.find_semiregular`` is the same object as
``hamvt.perms.find_semiregular``), plus a few methods on ``Perm`` and
``PermGroup``.  A span records its key, the module it was called
through, start, end, parent span and the work read from the return
value.  Hot methods only count calls or yielded items.  A name the
package no longer has is reported as untraced, never as an error.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter


def _hit(args, out) -> dict:
    return {"hit": out is not None}


def _solve(args, out) -> dict:
    return {"nodes": out.nodes, "unknown": out.status == "unknown"}


def _cells(args, out) -> dict:
    return {"cells": args[0].q ** 2}  # the q x q table count_eq2 fills


#: (home module, attribute, key, kind, work).  kind is "span", "calls"
#: (count calls only) or "yields" (count items of a generator).
SOURCES = (
    ("pipeline", "graph_from_json", "pipeline.ingest", "span", None),
    ("pipeline", "group_from_json", "pipeline.ingest", "span", None),
    ("pipeline", "analyze", "pipeline.analyze", "span", None),
    ("graphs", "structure_report", "graphs.structure_report", "span", None),
    ("perms", "PermGroup.order", "perms.order", "span", None),
    ("perms", "block_systems", "perms.block_systems", "span", None),
    ("perms", "find_semiregular", "perms.find_semiregular", "span", _hit),
    ("perms", "coset_action", "perms.coset_action", "span", None),
    ("perms", "PermGroup.random_element", "perms.random_words", "calls",
     None),
    ("perms", "PermGroup.elements", "perms.elements_scanned", "yields", None),
    ("perms", "Perm.__mul__", "perms.perm_mul", "calls", None),
    ("lift", "lift_hamilton", "lift.lift_hamilton", "span", _hit),
    ("lift", "iter_hamilton_cycles", "lift.quotient_cycles", "yields", None),
    ("hamilton", "find_hamilton_cycle", "hamilton.cycle", "span", _solve),
    ("hamilton", "find_hamilton_path", "hamilton.path", "span", _solve),
    ("hamilton", "jackson_condition", "hamilton.jackson", "span", None),
    ("hamilton", "verify_hamilton", "hamilton.verify", "span", None),
    ("orbital", "suborbits", "orbital.suborbits", "span", None),
    ("orbital", "orbital_graph", "orbital.orbital_graph", "span", None),
    ("gf2k", "field_make", "gf2k.field_make", "span", None),
    ("gf2k", "quad_irreducible_m", "gf2k.quad_irreducible_m", "span", None),
    ("gf2k", "s_group", "gf2k.s_group", "span", None),
    ("gf2k", "count_eq2", "gf2k.count_eq2", "span", _cells),
    ("gf2k", "weil_check", "gf2k.weil_check", "span", None),
    ("products", "catalog", "products.catalog", "span", None),
    ("products", "catalog_gens", "products.catalog_gens", "span", None),
    ("fixtures", "s6_on_s4_cosets", "fixtures.s6_on_s4_cosets", "span",
     None),
    ("fixtures", "psl2_16_gens", "fixtures.psl2_16_gens", "span", None),
    ("fixtures", "psl2_16_h_gens", "fixtures.psl2_16_h_gens", "span", None),
)


class Tracer:
    """Spans and counters for one traced set-up and pass."""

    def __init__(self):
        # span: [key, site, phase, start, end, parent index, work dict]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.phase = "setup"
        self.installed: set[str] = set()  # keys, and key@site for spans
        self.untraced: list[str] = []
        self._undo: list[tuple] = []

    def install(self, lib) -> None:
        modules = vars(lib)
        for home, attr, key, kind, work in SOURCES:
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(modules[home], owner_name, None) \
                if owner_name else modules[home]
            orig = getattr(owner, name, None) if owner is not None else None
            if orig is None:
                self.untraced.append(f"hamvt.{home}.{attr}")
                continue
            if owner_name:  # a method: one binding, on its class
                sites = [(owner, home)]
            else:
                sites = [(mod, site) for site, mod in modules.items()
                         if getattr(mod, name, None) is orig]
            for obj, site in sites:
                self._patch(obj, name, self._wrap(key, site, kind, orig, work))
                self.installed.add(f"{key}@{site}")
            self.installed.add(key)

    def uninstall(self) -> None:
        while self._undo:
            obj, name, orig = self._undo.pop()
            setattr(obj, name, orig)

    def _patch(self, obj, name: str, wrapper) -> None:
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, wrapper)

    def _wrap(self, key, site, kind, fn, work):
        counts = self.counts
        if kind == "calls":
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        elif kind == "yields":
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[key] += 1
                    yield item
        else:
            spans, stack = self.spans, self.stack

            def wrapper(*args, **kwargs):
                rec = [key, site, self.phase, 0.0, 0.0,
                       stack[-1] if stack else -1, None]
                stack.append(len(spans))
                spans.append(rec)
                rec[3] = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[4] = perf_counter()
                    stack.pop()
                if work is not None:
                    rec[6] = work(args, out)
                return out
        return functools.wraps(fn)(wrapper)

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per key: calls, inclusive time (outermost spans only), self time
        and summed work, over every span recorded."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[5] >= 0:
                child[rec[5]] += rec[4] - rec[3]
        out: dict[str, dict] = {}
        for i, (key, site, _, t0, t1, parent, work) in enumerate(self.spans):
            s = out.setdefault(key, {"calls": 0, "time_s": 0.0, "self_s": 0.0,
                                     "by_site": Counter(), "work": Counter()})
            s["calls"] += 1
            s["by_site"][site] += 1
            s["self_s"] += t1 - t0 - child[i]
            if not self._inside(parent, key):
                s["time_s"] += t1 - t0
            for k, v in (work or {}).items():
                s["work"][k] += v
        return out

    def _inside(self, i: int, key: str) -> bool:
        while i >= 0:
            if self.spans[i][0] == key:
                return True
            i = self.spans[i][5]
        return False

    def top_level_s(self, phase: str) -> float:
        return sum(t1 - t0 for _, _, ph, t0, t1, parent, _ in self.spans
                   if parent < 0 and ph == phase)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


#: Per-layer metrics: (name, unit, better, source key, value from the
#: summary ``s`` of that key and the counters ``c``).
LAYER_METRICS = (
    ("pipeline.ingest.time_s", "s", "lower", "pipeline.ingest",
     lambda s, c: s["time_s"]),
    ("pipeline.analyze.time_s", "s", "lower", "pipeline.analyze",
     lambda s, c: s["time_s"]),
    ("pipeline.analyze.self_s", "s", "lower", "pipeline.analyze",
     lambda s, c: s["self_s"]),
    ("graphs.structure_report.time_s", "s", "lower",
     "graphs.structure_report", lambda s, c: s["time_s"]),
    ("graphs.structure_report.calls", "count", "lower",
     "graphs.structure_report", lambda s, c: s["calls"]),
    ("perms.order.time_s", "s", "lower", "perms.order",
     lambda s, c: s["time_s"]),
    ("perms.block_systems.time_s", "s", "lower", "perms.block_systems",
     lambda s, c: s["time_s"]),
    ("perms.find_semiregular.time_s", "s", "lower", "perms.find_semiregular",
     lambda s, c: s["time_s"]),
    ("perms.find_semiregular.calls", "count", "lower",
     "perms.find_semiregular", lambda s, c: s["calls"]),
    ("perms.find_semiregular.hit_ratio", "ratio", "higher",
     "perms.find_semiregular", lambda s, c: _ratio(s["work"]["hit"],
                                                    s["calls"])),
    ("perms.random_words", "count", "lower", "perms.random_words",
     lambda s, c: c["perms.random_words"]),
    ("perms.elements_scanned", "count", "lower", "perms.elements_scanned",
     lambda s, c: c["perms.elements_scanned"]),
    ("perms.perm_mul.calls", "count", "lower", "perms.perm_mul",
     lambda s, c: c["perms.perm_mul"]),
    ("perms.coset_action.time_s", "s", "lower", "perms.coset_action",
     lambda s, c: s["time_s"]),
    ("lift.lift_hamilton.time_s", "s", "lower", "lift.lift_hamilton",
     lambda s, c: s["time_s"]),
    ("lift.lift_hamilton.calls", "count", "lower", "lift.lift_hamilton",
     lambda s, c: s["calls"]),
    ("lift.lift_hamilton.hit_ratio", "ratio", "higher", "lift.lift_hamilton",
     lambda s, c: _ratio(s["work"]["hit"], s["calls"])),
    ("lift.quotient_cycles", "count", "lower", "lift.quotient_cycles",
     lambda s, c: c["lift.quotient_cycles"]),
    ("lift.lift_checks", "count", "lower", "hamilton.verify@lift",
     lambda s, c: s["by_site"]["lift"]),
    ("hamilton.cycle.time_s", "s", "lower", "hamilton.cycle",
     lambda s, c: s["time_s"]),
    ("hamilton.cycle.calls", "count", "lower", "hamilton.cycle",
     lambda s, c: s["calls"]),
    ("hamilton.cycle.nodes", "count", "lower", "hamilton.cycle",
     lambda s, c: s["work"]["nodes"]),
    ("hamilton.cycle.unknown", "count", "lower", "hamilton.cycle",
     lambda s, c: s["work"]["unknown"]),
    ("hamilton.path.time_s", "s", "lower", "hamilton.path",
     lambda s, c: s["time_s"]),
    ("hamilton.path.calls", "count", "lower", "hamilton.path",
     lambda s, c: s["calls"]),
    ("hamilton.path.nodes", "count", "lower", "hamilton.path",
     lambda s, c: s["work"]["nodes"]),
    ("hamilton.jackson.calls", "count", "lower", "hamilton.jackson",
     lambda s, c: s["calls"]),
    ("hamilton.verify.time_s", "s", "lower", "hamilton.verify",
     lambda s, c: s["time_s"]),
    ("hamilton.verify.calls", "count", "lower", "hamilton.verify",
     lambda s, c: s["calls"]),
    ("orbital.suborbits.time_s", "s", "lower", "orbital.suborbits",
     lambda s, c: s["time_s"]),
    ("orbital.orbital_graph.time_s", "s", "lower", "orbital.orbital_graph",
     lambda s, c: s["time_s"]),
    ("orbital.orbital_graph.calls", "count", "lower", "orbital.orbital_graph",
     lambda s, c: s["calls"]),
    ("gf2k.count_eq2.time_s", "s", "lower", "gf2k.count_eq2",
     lambda s, c: s["time_s"]),
    ("gf2k.count_eq2.calls", "count", "lower", "gf2k.count_eq2",
     lambda s, c: s["calls"]),
    ("gf2k.count_eq2.cells_computed", "count", "lower", "gf2k.count_eq2",
     lambda s, c: s["work"]["cells"]),
    ("gf2k.quad_irreducible_m.time_s", "s", "lower",
     "gf2k.quad_irreducible_m", lambda s, c: s["time_s"]),
    ("gf2k.s_group.time_s", "s", "lower", "gf2k.s_group",
     lambda s, c: s["time_s"]),
    ("gf2k.field_make.time_s", "s", "lower", "gf2k.field_make",
     lambda s, c: s["time_s"]),
    ("products.catalog.time_s", "s", "lower", "products.catalog",
     lambda s, c: s["time_s"]),
    ("products.catalog_gens.time_s", "s", "lower", "products.catalog_gens",
     lambda s, c: s["time_s"]),
)

#: Measured around the traced pass itself, not read from spans.
TRACE_METRICS = (
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)

_EMPTY = {"calls": 0, "time_s": 0.0, "self_s": 0.0, "by_site": Counter(),
          "work": Counter()}


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric, and the names whose source is untraced
    (reported as 0)."""
    summary = tracer.summary()
    values, untraced = {}, []
    for name, _, _, source, value in LAYER_METRICS:
        if source not in tracer.installed:
            untraced.append(name)
        values[name] = value(summary.get(source.split("@")[0], _EMPTY),
                             tracer.counts)
    return values, untraced
