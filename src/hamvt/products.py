"""Product-model Hamilton cycles, cubic truncation, and the graph catalog.

Two product models over a base graph X with vertex set {0..t-1} and a
Hamilton cycle of X:

* Y1: (u, j) ~ (v, j +- 1 mod p) iff u ~ v in X (level always shifts);
* Y2: (u, j) ~ (v, j) iff u ~ v in X, plus column edges (u, j) ~ (u, j +- 1).

The constructions return explicit vertex sequences and are validated
against the model adjacency, never trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .graphs import Graph
from .hamilton import HamiltonCertificate, verify_hamilton
from .perms import Perm


class GcdNotOne(ValueError):
    """Y1 diagonal construction needs gcd(t, p) = 1."""


class BadBaseCycle(ValueError):
    """base_cycle is not a Hamilton cycle of the base graph."""


class NotCubic(ValueError):
    """Truncation is defined for 3-regular graphs only."""


class UnknownName(ValueError):
    """Catalog name not recognized."""


class BadParams(ValueError):
    """Catalog parameters malformed or out of range."""


@dataclass(frozen=True)
class ProductModel:
    """Y1 or Y2 product of a base graph with Z_p."""

    kind: str  # "Y1" | "Y2"
    base: Graph
    p: int
    base_cycle: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("Y1", "Y2"):
            raise ValueError("kind must be Y1 or Y2")
        cert = HamiltonCertificate("cycle", self.base_cycle)
        if not verify_hamilton(self.base, cert):
            raise BadBaseCycle("base_cycle is not a Hamilton cycle")

    @property
    def t(self) -> int:
        return self.base.n

    def vertex(self, u: int, j: int) -> int:
        return u * self.p + (j % self.p)

    def graph(self) -> Graph:
        t, p = self.t, self.p
        edges = set()
        for u, v in self.base.edges():
            for j in range(p):
                if self.kind == "Y1":
                    for d in (1, -1):
                        a, b = self.vertex(u, j), self.vertex(v, j + d)
                        edges.add((min(a, b), max(a, b)))
                else:
                    edges.add((self.vertex(u, j), self.vertex(v, j)))
        if self.kind == "Y2":
            for u in range(t):
                for j in range(p):
                    a, b = self.vertex(u, j), self.vertex(u, j + 1)
                    if a != b:
                        edges.add((min(a, b), max(a, b)))
        return Graph.from_edges(t * p, sorted(edges))


def y1_cycle(model: ProductModel) -> HamiltonCertificate:
    """Diagonal Hamilton cycle of Y1: both coordinates advance each step."""
    if model.kind != "Y1":
        raise ValueError("model is not Y1")
    t, p, c = model.t, model.p, model.base_cycle
    if gcd(t, p) != 1:
        raise GcdNotOne(f"gcd({t},{p}) != 1")
    seq = tuple(model.vertex(c[i % t], i % p) for i in range(t * p))
    cert = HamiltonCertificate("cycle", seq)
    if not verify_hamilton(model.graph(), cert):
        raise AssertionError("Y1 diagonal sequence failed validation")
    return cert


def y2_cycle(model: ProductModel) -> HamiltonCertificate:
    """Hamilton cycle of Y2, dispatching on the parity of p and t."""
    if model.kind != "Y2":
        raise ValueError("model is not Y2")
    t, p, c = model.t, model.p, model.base_cycle
    seq: list[int] = []
    if p == 2:
        # level 0 forward, level 1 backward
        seq = [model.vertex(c[i], 0) for i in range(t)]
        seq += [model.vertex(c[i], 1) for i in reversed(range(t))]
    elif t % 2 == 0:
        # snake: alternate columns upward and downward
        for i in range(t):
            levels = range(p) if i % 2 == 0 else reversed(range(p))
            seq += [model.vertex(c[i], j) for j in levels]
    else:
        # t, p both odd: full row at level 0, then sweep columns 1..t-1
        # per level, finally descend column 0
        seq = [model.vertex(c[i], 0) for i in range(t)]
        for j in range(1, p):
            cols = range(t - 1, 0, -1) if j % 2 else range(1, t)
            seq += [model.vertex(c[i], j) for i in cols]
        seq += [model.vertex(c[0], j) for j in range(p - 1, 0, -1)]
    cert = HamiltonCertificate("cycle", tuple(seq))
    if not verify_hamilton(model.graph(), cert):
        raise AssertionError("Y2 sequence failed validation")
    return cert


def truncate_cubic(X: Graph) -> Graph:
    """Replace each vertex of a cubic graph by a triangle.

    Vertex v becomes corners 3v, 3v+1, 3v+2; the corner used by edge
    (u, w) is the index of w among u's sorted neighbors.
    """
    if any(X.degree(v) != 3 for v in range(X.n)):
        raise NotCubic("input is not 3-regular")
    edges = []
    for v in range(X.n):
        edges += [(3 * v, 3 * v + 1), (3 * v, 3 * v + 2),
                  (3 * v + 1, 3 * v + 2)]
    for u, w in X.edges():
        i = X.adj[u].index(w)
        j = X.adj[w].index(u)
        edges.append((3 * u + i, 3 * w + j))
    return Graph.from_edges(3 * X.n, edges)


def truncation_lift(X: Graph, g: Perm) -> Perm:
    """Automorphism of truncate_cubic(X) induced by an automorphism g."""
    images = [0] * (3 * X.n)
    for v in range(X.n):
        gv = g.images[v]
        for i, w in enumerate(X.adj[v]):
            images[3 * v + i] = 3 * gv + X.adj[gv].index(g.images[w])
    return Perm(tuple(images))


# ---------------------------------------------------------------------------
# catalog


def _petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)


#: Petersen vertices as 2-subsets of {0..4} (disjointness = adjacency):
#: outer i = {2i, 2i+1}, inner i = {2i+2, 2i+4}, all mod 5.
_PETERSEN_SUBSETS = (
    [frozenset({(2 * i) % 5, (2 * i + 1) % 5}) for i in range(5)]
    + [frozenset({(2 * i + 2) % 5, (2 * i + 4) % 5}) for i in range(5)]
)


def _petersen_gens() -> list[Perm]:
    lookup = {s: v for v, s in enumerate(_PETERSEN_SUBSETS)}
    out = []
    for sigma in ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4)):  # (0 1 2 3 4), (0 1)
        out.append(Perm(tuple(
            lookup[frozenset(sigma[x] for x in s)]
            for s in _PETERSEN_SUBSETS)))
    return out


def _coxeter() -> Graph:
    # heptagons with steps 1, 2, 3, plus seven hubs
    u, v, w, z = 0, 7, 14, 21
    edges = []
    for i in range(7):
        edges += [(u + i, u + (i + 1) % 7),
                  (v + i, v + (i + 2) % 7),
                  (w + i, w + (i + 3) % 7),
                  (z + i, u + i), (z + i, v + i), (z + i, w + i)]
    return Graph.from_edges(28, edges)


def _coxeter_gens() -> list[Perm]:
    u, v, w, z = 0, 7, 14, 21
    rot = [0] * 28
    dbl = [0] * 28
    for i in range(7):
        for base in (u, v, w, z):
            rot[base + i] = base + (i + 1) % 7
        dbl[u + i] = v + (2 * i) % 7
        dbl[v + i] = w + (2 * i) % 7
        dbl[w + i] = u + (2 * i) % 7
        dbl[z + i] = z + (2 * i) % 7
    return [Perm(tuple(rot)), Perm(tuple(dbl))]


def _heawood_edges(incident: bool) -> Graph:
    # points 0..6, lines 7+i = {i, i+1, i+3} mod 7
    edges = []
    for i in range(7):
        line = {i % 7, (i + 1) % 7, (i + 3) % 7}
        for pnt in range(7):
            if (pnt in line) == incident:
                edges.append((pnt, 7 + i))
    return Graph.from_edges(14, edges)


def _heawood_gens() -> list[Perm]:
    rot = [(i + 1) % 7 for i in range(7)] + [7 + (i + 1) % 7 for i in range(7)]
    dual = [7 + (-i) % 7 for i in range(7)] + [(-i) % 7 for i in range(7)]
    return [Perm(tuple(rot)), Perm(tuple(dual))]


def _crown(p: int) -> Graph:
    return Graph.from_edges(
        2 * p, [(i, p + j) for i in range(p) for j in range(p) if i != j])


def _crown_gens(p: int) -> list[Perm]:
    rot = [(i + 1) % p for i in range(p)] + [p + (i + 1) % p for i in range(p)]
    swap = [p + i for i in range(p)] + list(range(p))
    return [Perm(tuple(rot)), Perm(tuple(swap))]


def _circulant(n: int, steps) -> Graph:
    edges = set()
    for i in range(n):
        for s in steps:
            edges.add((min(i, (i + s) % n), max(i, (i + s) % n)))
    return Graph.from_edges(n, sorted(edges))


def _rotation(n: int) -> Perm:
    return Perm(tuple((i + 1) % n for i in range(n)))


def _prism(t: int) -> Graph:
    edges = [(i, (i + 1) % t) for i in range(t)]
    edges += [(t + i, t + (i + 1) % t) for i in range(t)]
    edges += [(i, t + i) for i in range(t)]
    return Graph.from_edges(2 * t, edges)


def _prism_gens(t: int) -> list[Perm]:
    rot = [(i + 1) % t for i in range(t)] + [t + (i + 1) % t for i in range(t)]
    swap = [t + i for i in range(t)] + list(range(t))
    return [Perm(tuple(rot)), Perm(tuple(swap))]


def _complete(n: int) -> Graph:
    return Graph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _complete_gens(n: int) -> list[Perm]:
    if n == 1:
        return [Perm.identity(1)]
    gens = [_rotation(n)]
    if n > 2:
        sw = list(range(n))
        sw[0], sw[1] = 1, 0
        gens.append(Perm(tuple(sw)))
    return gens


def _complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(
        a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _complete_bipartite_gens(a: int, b: int) -> list[Perm]:
    gens = []
    if a > 1:
        gens.append(Perm(tuple([(i + 1) % a for i in range(a)]
                               + list(range(a, a + b)))))
    if b > 1:
        gens.append(Perm(tuple(list(range(a))
                               + [a + (i + 1) % b for i in range(b)])))
    if a == b:
        gens.append(Perm(tuple([a + i for i in range(a)] + list(range(a)))))
    return gens or [Perm.identity(a + b)]


#: name -> (graph builder, automorphism generators), both taking the
#: parameters that ``_spec`` returns.
_CATALOG = {
    "petersen": (_petersen, _petersen_gens),
    "coxeter": (_coxeter, _coxeter_gens),
    "truncated_petersen": (
        lambda: truncate_cubic(_petersen()),
        lambda: [truncation_lift(_petersen(), g) for g in _petersen_gens()]),
    "truncated_coxeter": (
        lambda: truncate_cubic(_coxeter()),
        lambda: [truncation_lift(_coxeter(), g) for g in _coxeter_gens()]),
    "heawood": (lambda: _heawood_edges(True), _heawood_gens),
    "non_incidence_pg22": (lambda: _heawood_edges(False), _heawood_gens),
    "crown": (_crown, _crown_gens),
    "circulant": (_circulant, lambda n, steps: [_rotation(n)]),
    "prism": (_prism, _prism_gens),
    "complete": (_complete, _complete_gens),
    "complete_bipartite": (_complete_bipartite, _complete_bipartite_gens),
}
#: Least value of each integer parameter of the parametrized entries.
_MINIMA = {"crown": (2,), "prism": (3,), "complete": (1,),
           "complete_bipartite": (1, 1)}


def _int_params(params, count, what) -> list[int]:
    if len(params) != count:
        raise BadParams(f"{what} expects {count} parameter(s)")
    try:
        return [int(p) for p in params]
    except ValueError as e:
        raise BadParams(str(e)) from None


def _spec(name: str) -> tuple[str, tuple]:
    """Parse and validate a catalog name into (entry, parameters).

    The one parser behind ``catalog`` and ``catalog_gens``: raises
    UnknownName for an unknown entry and BadParams for parameters that
    are malformed or out of range.
    """
    base, *params = name.split(":")
    if base not in _CATALOG:
        raise UnknownName(name)
    if base == "circulant":
        if len(params) != 2:
            raise BadParams("circulant expects n and a step list")
        steps = params[1].split(",")
        n, *steps = _int_params([params[0], *steps], 1 + len(steps),
                                "circulant")
        if n < 3 or any(s % n == 0 for s in steps):
            raise BadParams("circulant needs n >= 3 and steps not 0 mod n")
        return base, (n, steps)
    minima = _MINIMA.get(base, ())  # the fixed entries take none
    values = _int_params(params, len(minima), base)
    if any(v < lo for v, lo in zip(values, minima)):
        raise BadParams(f"{base} parameters must be at least "
                        + ", ".join(map(str, minima)))
    return base, tuple(values)


def catalog(name: str) -> Graph:
    """Named graph under a fixed labeling (see module docstring).

    Parameters ride along in the name: ``crown:5``, ``circulant:30:1,6``,
    ``prism:7``, ``complete:5``, ``complete_bipartite:3:3``.
    """
    base, params = _spec(name)
    return _CATALOG[base][0](*params)


def catalog_gens(name: str) -> list[Perm]:
    """Documented automorphism generators for a catalog graph.

    Vertex-transitive for every entry except ``coxeter`` and
    ``truncated_coxeter``: both get the same order-21 subgroup, which
    has 2 orbits on the Coxeter graph and 4 on its truncation.  Names
    are validated as in ``catalog``.
    """
    base, params = _spec(name)
    return _CATALOG[base][1](*params)
