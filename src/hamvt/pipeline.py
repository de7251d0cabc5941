"""Strategy-cascade analysis: lifting, then exact search.

The cascade mirrors the structural proof strategy but is case-agnostic:
(1) validate the supplied automorphisms, (2) try cycle lifting through
a semiregular p-element for each prime p dividing n, largest first, (3)
run the exact solver within budget.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .graphs import Graph, _index
from .hamilton import (DEFAULT_BUDGET, BudgetExhausted, HamiltonCertificate,
                       contract_triangles, find_hamilton_cycle,
                       find_hamilton_path, verify_hamilton)
from .lift import _decompose, _lift
from .perms import (SEMIREGULAR_SEED, GroupDegreeMismatch, Perm, PermGroup,
                    _prime_divisors, _semiregular_miss, find_semiregular)


class MalformedInput(ValueError):
    pass


class GroupNotAutomorphisms(ValueError):
    pass


@dataclass
class AnalysisReport:
    n: int
    edge_count: int
    connected: bool
    vertex_transitive: bool | None
    strategy_trace: list[dict] = field(default_factory=list)
    result: str = "unknown"  # "certificate" | "no_hamilton_cycle" | "unknown"
    certificate: HamiltonCertificate | None = None
    path_certificate: HamiltonCertificate | None = None
    exception_flag: bool = False
    reason: str = ""

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "edge_count": self.edge_count,
            "connected": self.connected,
            "vertex_transitive": self.vertex_transitive,
            "strategy_trace": self.strategy_trace,
            "result": self.result,
            "certificate": (self.certificate.to_json()
                            if self.certificate else None),
            "path_certificate": (self.path_certificate.to_json()
                                 if self.path_certificate else None),
            "exception_flag": self.exception_flag,
            "reason": self.reason,
        }


def _is_truncation_exception(X: Graph) -> bool:
    """Whether X is the truncated Petersen graph, under any labelling.

    X must be cubic on 30 vertices, and one pass of
    ``contract_triangles`` must contract 10 triangles, one per vertex,
    and leave a graph of girth 5 on 10 vertices.  That graph is cubic,
    as contraction keeps degrees, and Petersen is the only cubic graph
    on 10 vertices of girth 5.
    """
    if X.n != 30 or any(X.degree(v) != 3 for v in range(X.n)):
        return False
    step = contract_triangles(X)
    return step is not None and step[0].n == 10 and step[0].girth() == 5


def analyze(X: Graph, group_gens=None, budget: int = DEFAULT_BUDGET,
            seed: int = SEMIREGULAR_SEED) -> AnalysisReport:
    """Full strategy-cascade report for a graph and optional group.

    ``group_gens`` is a sequence of generators (``Perm`` or image lists)
    or a ``PermGroup``, whose stabilizer chain is then reused.  The group
    is checked before anything else, so a bad group is rejected for
    every graph.
    """
    G = None
    if group_gens is not None:
        # a PermGroup is used as it is, so its stabilizer chain is reused
        G = (group_gens if isinstance(group_gens, PermGroup)
             else PermGroup(X.n, group_gens))
        if G.degree != X.n:
            raise GroupDegreeMismatch(f"group degree {G.degree} != {X.n}")
        if not all(X.preserved_by(g.images) for g in G.generators):
            raise GroupNotAutomorphisms(
                "a generator does not preserve the edge set")

    connected = X.is_connected()
    report = AnalysisReport(X.n, X.edge_count(), connected, None)
    report.exception_flag = _is_truncation_exception(X)

    if not connected:
        report.result = "no_hamilton_cycle"
        report.reason = "disconnected"
        report.strategy_trace.append(
            {"strategy": "structure", "outcome": "disconnected"})
        return report
    if X.n < 3:
        report.result = "no_hamilton_cycle"
        report.reason = "fewer than three vertices"
        report.strategy_trace.append(
            {"strategy": "structure", "outcome": "too small"})
        return report

    if G is not None:
        report.vertex_transitive = G.is_transitive()
        # largest p first: its quotient, with n/p cells, is the smallest
        for p in reversed(_prime_divisors(X.n)):
            rho = find_semiregular(G, p, seed=seed)
            if rho is None:
                report.strategy_trace.append(
                    {"strategy": f"lift_p{p}",
                     "outcome": _semiregular_miss(G, p)})
                continue
            try:
                # rho is a word in the checked generators: no re-check
                cert, outcome = _lift(X, _decompose(X, rho, p), budget)
            except BudgetExhausted:
                cert, outcome = None, "budget exhausted"
            report.strategy_trace.append(
                {"strategy": f"lift_p{p}", "outcome": outcome})
            if cert is not None:
                if not verify_hamilton(X, cert):
                    raise AssertionError("lift produced a bad certificate")
                report.result = "certificate"
                report.certificate = cert
                return report

    res = find_hamilton_cycle(X, budget)
    report.strategy_trace.append(
        {"strategy": "exact_search", "outcome": res.status})
    if res.status == "found":
        report.result = "certificate"
        report.certificate = res.certificate
    elif res.status == "none":
        report.result = "no_hamilton_cycle"
        report.reason = "exhaustive search completed"
        pres = find_hamilton_path(X, budget)
        report.strategy_trace.append(
            {"strategy": "path_search", "outcome": pres.status})
        if pres.status == "found":
            report.path_certificate = pres.certificate
    else:
        report.result = "unknown"
        report.reason = "search budget exhausted"
    return report


def graph_from_json(d: dict) -> Graph:
    """Ingest {"n": int, "edges": [[u, v], ...]} with validation; every
    number must be an integer (not a float or a bool)."""
    try:
        return Graph.from_edges(d["n"], d["edges"])
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedInput(f"bad graph JSON: {e}") from None


def parse_cycle_notation(s: str, degree: int) -> Perm:
    """Parse disjoint cycles such as "(0 1 2)(3 4)" into a permutation of
    the given degree; a point repeated anywhere is ``MalformedInput``."""
    images = list(range(degree))
    body = s.strip()
    if body in ("", "()"):
        return Perm(tuple(images))
    if not re.fullmatch(r"(\(\s*\d+(?:[\s,]+\d+)*\s*\))+", body):
        raise MalformedInput(f"bad cycle notation: {s!r}")
    seen: set[int] = set()
    for cyc in re.findall(r"\(([^()]*)\)", body):
        pts = [int(x) for x in re.split(r"[\s,]+", cyc.strip()) if x]
        if len(set(pts)) != len(pts) or not seen.isdisjoint(pts):
            raise MalformedInput(f"repeated point in {s!r}")
        seen.update(pts)
        if any(not 0 <= x < degree for x in pts):
            raise MalformedInput("cycle point out of range")
        for i, x in enumerate(pts):
            images[x] = pts[(i + 1) % len(pts)]
    return Perm(tuple(images))


def group_from_json(d: dict) -> PermGroup:
    """Ingest {"degree": n, "generators": [...]} as a ``PermGroup``; each
    generator is an image list of integers or a cycle-notation string
    such as "(0 1 2)(3 4)".  ``PermGroup`` checks every degree."""
    try:
        n = _index(d["degree"])
        gens = [parse_cycle_notation(g, n) if isinstance(g, str)
                else Perm.from_images(g) for g in d["generators"]]
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedInput(f"bad group JSON: {e}") from None
    return PermGroup(n, gens)
