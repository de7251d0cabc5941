"""Product-model Hamilton cycles, cubic truncation, and the graph catalog.

Two product models over a base graph X with vertex set {0..t-1} and a
Hamilton cycle of X:

* Y1: (u, j) ~ (v, j +- 1 mod p) iff u ~ v in X (level always shifts);
* Y2: (u, j) ~ (v, j) iff u ~ v in X, plus column edges (u, j) ~ (u, j +- 1).

The constructions return explicit vertex sequences and are validated
against the model adjacency, never trusted.

Each catalog family has one builder that returns the graph together with
its automorphism generators; the Cayley families come from ``cayley``.
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


def cayley(n: int, mul, S, elements=()) -> tuple[Graph, list[Perm]]:
    """Cay(G, S) for the group G on 0..n-1 with product ``mul``, and the
    left-regular automorphisms x -> g*x for each g in ``elements``.

    The graph joins x to x*s for every s in S, symmetrised; ``Graph``
    refuses the loop of an S containing the identity and a product out
    of range, ``Perm`` a left translation that is not a bijection.
    """
    edges = {(x, y) if x < y else (y, x)
             for x in range(n) for s in S for y in [mul(x, s)]}
    return (Graph.from_edges(n, edges),
            [Perm(tuple(mul(g, x) for x in range(n))) for g in elements])


def _cyclic(n: int):
    return lambda a, b: (a + b) % n


def _z2_product(m: int, dihedral: bool):
    """Z_m x Z_2 (or D_m when ``dihedral``) on i + m*e for r^i s^e."""
    def mul(a, b):
        (e, i), (f, j) = divmod(a, m), divmod(b, m)
        return (i - j if dihedral and e else i + j) % m + m * (e ^ f)
    return mul


def _petersen():
    # vertices are 2-subsets of {0..4}, adjacent when disjoint: outer
    # i = {2i, 2i+1}, inner i = {2i+2, 2i+4}, all mod 5
    subsets = ([frozenset({2 * i % 5, (2 * i + 1) % 5}) for i in range(5)]
               + [frozenset({(2 * i + 2) % 5, (2 * i + 4) % 5})
                  for i in range(5)])
    lookup = {s: v for v, s in enumerate(subsets)}
    X = Graph.from_edges(10, [(u, v) for u in range(10) for v in range(u)
                              if not subsets[u] & subsets[v]])
    # the permutations (0 1 2 3 4) and (0 1) of {0..4}
    return X, [Perm(tuple(lookup[frozenset(sigma[x] for x in s)]
                          for s in subsets))
               for sigma in ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4))]


def _coxeter():
    # heptagons u, v, w with steps 1, 2, 3, plus seven hubs z; the
    # generators rotate all four and multiply by 2 while cycling u, v, w
    u, v, w, z = 0, 7, 14, 21
    edges = []
    rot = [0] * 28
    dbl = [0] * 28
    for i in range(7):
        edges += [(u + i, u + (i + 1) % 7),
                  (v + i, v + (i + 2) % 7),
                  (w + i, w + (i + 3) % 7),
                  (z + i, u + i), (z + i, v + i), (z + i, w + i)]
        for base in (u, v, w, z):
            rot[base + i] = base + (i + 1) % 7
        dbl[u + i] = v + (2 * i) % 7
        dbl[v + i] = w + (2 * i) % 7
        dbl[w + i] = u + (2 * i) % 7
        dbl[z + i] = z + (2 * i) % 7
    return Graph.from_edges(28, edges), [Perm(tuple(rot)), Perm(tuple(dbl))]


def _truncated(X: Graph, gens: list[Perm]):
    return truncate_cubic(X), [truncation_lift(X, g) for g in gens]


def _complete(n: int):
    X, gens = cayley(n, _cyclic(n), range(1, n), [1])
    if n > 2:
        gens.append(Perm((1, 0, *range(2, n))))
    return X, gens


def _complete_bipartite(a: int, b: int):
    gens = []
    if a > 1:
        gens.append(Perm(tuple([(i + 1) % a for i in range(a)]
                               + list(range(a, a + b)))))
    if b > 1:
        gens.append(Perm(tuple(list(range(a))
                               + [a + (i + 1) % b for i in range(b)])))
    if a == b:
        gens.append(Perm(tuple([a + i for i in range(a)] + list(range(a)))))
    return (Graph.from_edges(a + b, [(i, a + j) for i in range(a)
                                     for j in range(b)]),
            gens or [Perm.identity(a + b)])


#: name -> builder of (graph, automorphism generators), taking the
#: parameters that ``_spec`` returns.  circulant and complete are Cayley
#: graphs of Z_n, prism and crown of Z_t x Z_2, heawood and
#: non_incidence_pg22 of D_7, with r^i s^e labelled i + m*e and the
#: generators r and s acting on the left.  Point r^i of the Fano plane
#: lies on the line r^j s = {j, j+1, j+3} iff j - i is 0, -1 or -3, so
#: heawood's S is {s, r^6 s, r^4 s}; the other reflections give the
#: non-incidence graph.
_CATALOG = {
    "petersen": _petersen,
    "coxeter": _coxeter,
    "truncated_petersen": lambda: _truncated(*_petersen()),
    "truncated_coxeter": lambda: _truncated(*_coxeter()),
    "heawood": lambda: cayley(14, _z2_product(7, True), (7, 11, 13), (1, 7)),
    "non_incidence_pg22": lambda: cayley(14, _z2_product(7, True),
                                         (8, 9, 10, 12), (1, 7)),
    "crown": lambda p: cayley(2 * p, _z2_product(p, False),
                              range(p + 1, 2 * p), (1, p)),
    "circulant": lambda n, steps: cayley(n, _cyclic(n), steps, [1]),
    "prism": lambda t: cayley(2 * t, _z2_product(t, False), (1, t), (1, t)),
    "complete": _complete,
    "complete_bipartite": _complete_bipartite,
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


def _build(name: str) -> tuple[Graph, list[Perm]]:
    """The graph and generators of a catalog name, from one build."""
    base, params = _spec(name)
    return _CATALOG[base](*params)


def catalog(name: str) -> Graph:
    """Named graph under a fixed labeling (see ``_CATALOG``).

    Parameters ride along in the name: ``crown:5``, ``circulant:30:1,6``,
    ``prism:7``, ``complete:5``, ``complete_bipartite:3:3``.
    """
    return _build(name)[0]


def catalog_gens(name: str) -> list[Perm]:
    """Documented automorphism generators for a catalog graph.

    Vertex-transitive for every entry except ``coxeter`` and
    ``truncated_coxeter``: both get the same order-21 subgroup, which
    has 2 orbits on the Coxeter graph and 4 on its truncation.  Names
    are validated as in ``catalog``.
    """
    return _build(name)[1]
