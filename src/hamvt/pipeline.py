"""Strategy-cascade analysis: blocks, lifting, Jackson, exact fallback.

The cascade mirrors the structural proof strategy but is case-agnostic:
(1) validate the supplied automorphisms, (2) list the block systems
generated by pairs of points, (3) try cycle lifting through a
semiregular p-element for each prime p dividing n, largest first, (4)
record whether the Jackson sufficient condition holds, (5) run the exact
solver within budget.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .graphs import Graph, structure_report
from .hamilton import (DEFAULT_BUDGET, BudgetExhausted, HamiltonCertificate,
                       find_hamilton_cycle, find_hamilton_path, jackson_met,
                       verify_hamilton)
from .lift import lift_hamilton, voltages_are_coboundary
from .perms import (SEMIREGULAR_EXHAUSTIVE_CAP, SEMIREGULAR_SEED,
                    SEMIREGULAR_WORDS, Perm, PermGroup, block_systems,
                    find_semiregular)


class MalformedInput(ValueError):
    pass


class GroupDegreeMismatch(ValueError):
    pass


class GroupNotAutomorphisms(ValueError):
    pass


@dataclass
class AnalysisReport:
    n: int
    edge_count: int
    connected: bool
    vertex_transitive: bool | None
    block_cell_sizes: list[int]
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
            "block_cell_sizes": self.block_cell_sizes,
            "strategy_trace": self.strategy_trace,
            "result": self.result,
            "certificate": (self.certificate.to_json()
                            if self.certificate else None),
            "path_certificate": (self.path_certificate.to_json()
                                 if self.path_certificate else None),
            "exception_flag": self.exception_flag,
            "reason": self.reason,
        }


def _primes(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_truncation_exception(X: Graph) -> bool:
    """Whether X is the truncated Petersen graph, under any labelling.

    X must be cubic on 30 vertices with every vertex in exactly one
    triangle, and contracting the triangles must give a simple cubic
    graph on 10 vertices of girth 5: Petersen is the only such graph.
    """
    if X.n != 30 or any(X.degree(v) != 3 for v in range(X.n)):
        return False
    tri_of = []
    for v in range(X.n):
        # each triangle is named by its least vertex, min(v, a) as a < b
        tris = [min(v, a) for a in X.adj[v] for b in X.adj[v]
                if a < b and X.has_edge(a, b)]
        if len(tris) != 1:
            return False
        tri_of.append(tris[0])
    index = {t: i for i, t in enumerate(sorted(set(tri_of)))}
    # the 15 edges outside the triangles; a repeated pair collapses
    edges = {tuple(sorted((index[tri_of[u]], index[tri_of[w]])))
             for u, w in X.edges() if tri_of[u] != tri_of[w]}
    return len(edges) == 15 and Graph.from_edges(10, edges).girth() == 5


def analyze(X: Graph, group_gens=None, budget: int = DEFAULT_BUDGET,
            seed: int = SEMIREGULAR_SEED) -> AnalysisReport:
    """Full strategy-cascade report for a graph and optional group."""
    rep = structure_report(X)
    report = AnalysisReport(X.n, X.edge_count(), rep.connected, None, [])
    report.exception_flag = _is_truncation_exception(X)

    if not rep.connected:
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

    G = None
    if group_gens is not None:
        gens = [g if isinstance(g, Perm) else Perm.from_images(g)
                for g in group_gens]
        for g in gens:
            if g.degree != X.n:
                raise GroupDegreeMismatch(
                    f"generator degree {g.degree} != {X.n}")
            for u, w in X.edges():
                if not X.has_edge(g.images[u], g.images[w]):
                    raise GroupNotAutomorphisms(
                        "a generator does not preserve the edge set")
        G = PermGroup(X.n, gens)
        report.vertex_transitive = G.is_transitive()
        if report.vertex_transitive and X.n > 1:
            systems = block_systems(G)
            report.block_cell_sizes = sorted({s.cell_size for s in systems})
            report.strategy_trace.append(
                {"strategy": "block_systems",
                 "outcome": f"cell sizes {report.block_cell_sizes}"})

    if G is not None:
        # largest p first: its quotient, with n/p cells, is the smallest
        for p in reversed(_primes(X.n)):
            rho = find_semiregular(G, p, seed=seed)
            if rho is None:
                # find_semiregular scans every element up to the cap
                proved = (G.order() % p != 0
                          or G.order() <= SEMIREGULAR_EXHAUSTIVE_CAP)
                report.strategy_trace.append(
                    {"strategy": f"lift_p{p}",
                     "outcome": ("no semiregular element (proved absent)"
                                 if proved else
                                 "no semiregular element found in "
                                 f"{SEMIREGULAR_WORDS} random words")})
                continue
            try:
                cert = lift_hamilton(X, rho, p, budget)
            except BudgetExhausted:
                report.strategy_trace.append(
                    {"strategy": f"lift_p{p}", "outcome": "budget exhausted"})
                continue
            if cert is not None:
                if not verify_hamilton(X, cert):
                    raise AssertionError("lift produced a bad certificate")
                report.strategy_trace.append(
                    {"strategy": f"lift_p{p}", "outcome": "found"})
                report.result = "certificate"
                report.certificate = cert
                return report
            # lift_hamilton returns None after either proof; this O(n + e)
            # test names the one that decided, without a second decomposition
            report.strategy_trace.append(
                {"strategy": f"lift_p{p}",
                 "outcome": ("no lift (voltages are a coboundary)"
                             if voltages_are_coboundary(X, rho)
                             else "no lift")})

    # recorded only: the exact search below decides either way
    met = jackson_met(rep, X.n)
    report.strategy_trace.append(
        {"strategy": "jackson",
         "outcome": "condition met" if met else "condition not met"})

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
        if pres.status == "found":
            report.path_certificate = pres.certificate
    else:
        report.result = "unknown"
        report.reason = "search budget exhausted"
    return report


def graph_from_json(d: dict) -> Graph:
    """Ingest {"n": int, "edges": [[u, v], ...]} with validation."""
    try:
        n = int(d["n"])
        edges = [(int(u), int(v)) for u, v in d["edges"]]
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedInput(f"bad graph JSON: {e}") from None
    if n < 0 or any(not 0 <= u < n or not 0 <= v < n for u, v in edges):
        raise MalformedInput("vertex out of range")
    try:
        return Graph.from_edges(n, edges)
    except ValueError as e:
        raise MalformedInput(str(e)) from None


def parse_cycle_notation(s: str, degree: int) -> Perm:
    """Parse "(0 1 2)(3 4)" into a permutation of the given degree."""
    images = list(range(degree))
    body = s.strip()
    if body in ("", "()"):
        return Perm(tuple(images))
    if not re.fullmatch(r"(\(\s*\d+(?:[\s,]+\d+)*\s*\))+", body):
        raise MalformedInput(f"bad cycle notation: {s!r}")
    for cyc in re.findall(r"\(([^()]*)\)", body):
        pts = [int(x) for x in re.split(r"[\s,]+", cyc.strip()) if x]
        if len(set(pts)) != len(pts):
            raise MalformedInput(f"repeated point in cycle {cyc!r}")
        if any(not 0 <= x < degree for x in pts):
            raise MalformedInput("cycle point out of range")
        for i, x in enumerate(pts):
            images[x] = pts[(i + 1) % len(pts)]
    return Perm(tuple(images))


def group_from_json(d: dict) -> list[Perm]:
    """Ingest {"degree": n, "generators": [...]}; each generator is an
    image list or a cycle-notation string such as "(0 1 2)(3 4)"."""
    try:
        n = int(d["degree"])
        gens = [parse_cycle_notation(g, n) if isinstance(g, str)
                else Perm.from_images(g) for g in d["generators"]]
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedInput(f"bad group JSON: {e}") from None
    for g in gens:
        if g.degree != n:
            raise GroupDegreeMismatch("generator degree != declared degree")
    return gens
