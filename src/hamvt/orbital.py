"""Suborbits, pairing and generalized orbital graphs.

A suborbit table is computed once per group object and point, and held
in a ``weakref.WeakKeyDictionary`` keyed by the group's identity, so an
entry lives exactly as long as its group.  Tables are shared between
callers and read-only: their fields are tuples.  An orbital graph
carries the row of the base along one breadth-first walk, row(x^s) =
row(x)^s, in O(n * |targets|) with no edge set and no transversal;
``Graph``'s checks still run on the rows.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, _index
from .perms import (NotTransitive, PermGroup, _walk,
                    stabilizer_from_transversal)


class EmptySelection(ValueError):
    """Orbital graph needs at least one nontrivial suborbit."""


@dataclass(frozen=True)
class SuborbitTable:
    """Orbits of a point stabilizer, with the pairing involution.

    Suborbits are sorted by (length, minimum element); ``pairing[i]`` is
    the index of the suborbit paired with suborbit i (itself when
    self-paired).
    """

    base: int
    suborbits: tuple[tuple[int, ...], ...]
    pairing: tuple[int, ...]

    def index_of(self, w: int) -> int:
        for i, s in enumerate(self.suborbits):
            if w in s:
                return i
        raise KeyError(w)

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.suborbits)

    def trivial_index(self) -> int:
        return self.index_of(self.base)


#: group -> {point: table}; weak keys, compared by identity.
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def suborbits(G: PermGroup, v: int) -> SuborbitTable:
    """Suborbit table at v: orbits of G_v, paired via inverse transport.

    Memoized per group object and point: a repeated call returns the
    same read-only table.  The transversal from v is not kept.
    """
    v = _index(v)
    memo = _TABLES.get(G)
    if memo is not None and v in memo:
        return memo[v]
    trans = G.transversal_from(v)
    if len(trans) != G.degree:
        raise NotTransitive("suborbits require a transitive group")
    stab = stabilizer_from_transversal(G, trans)
    subs = tuple(sorted((tuple(o) for o in stab.orbits()),
                        key=lambda s: (len(s), s[0])))
    lookup = {}
    for i, s in enumerate(subs):
        for w in s:
            lookup[w] = i
    # suborbit of w pairs with the suborbit of v^(g^-1) where v^g = w
    pairing = tuple(lookup[trans[s[0]].inv().images[v]] for s in subs)
    table = SuborbitTable(v, subs, pairing)
    for i, j in enumerate(table.pairing):
        if table.pairing[j] != i:
            raise AssertionError("pairing is not an involution")
    _TABLES.setdefault(G, {})[v] = table
    return table


@dataclass(frozen=True)
class OrbitalGraph:
    graph: Graph
    connected: bool
    symmetrized: bool  # set when the selection had to be pair-closed
    selection: tuple[int, ...]
    table: SuborbitTable


def orbital_graph(G: PermGroup, v: int, selection) -> OrbitalGraph:
    """Generalized orbital graph for a set of suborbit indices.

    Selections not closed under pairing are closed automatically and
    flagged.  A pair-closed selection gives a G-invariant graph, so the
    row of x^s is the row of x moved by s: one breadth-first walk from v
    carries the targets to every point, at a cost of O(n * |targets|),
    and ``Graph``'s checks (no loops, duplicates or asymmetry) still run
    on the rows.  Each index goes
    through ``operator.index`` after the table is built, so a bad point
    is reported before a bad index.
    """
    table = suborbits(G, v)
    sel = set(_index(i) for i in selection)
    if not sel:
        raise EmptySelection("selection is empty")
    if not sel <= set(range(len(table.suborbits))):
        raise ValueError(f"selection {sorted(sel)} has an index outside "
                         f"0..{len(table.suborbits) - 1}")
    if table.trivial_index() in sel:
        raise ValueError("selection includes the trivial suborbit")
    closed = set(sel)
    for i in sel:
        closed.add(table.pairing[i])
    symmetrized = closed != sel
    targets = [w for i in closed for w in table.suborbits[i]]
    rows = dict(_walk(G.generators, table.base, targets,
                      lambda row, s: [s.images[w] for w in row]))
    X = Graph(G.degree, map(rows.__getitem__, range(G.degree)))
    return OrbitalGraph(X, X.is_connected(), symmetrized,
                        tuple(sorted(closed)), table)


def pair_closed_selections(table: SuborbitTable):
    """Every union of pair classes of non-trivial suborbits, as a list
    of indices, in order of the number of classes it uses."""
    triv = table.trivial_index()
    classes = sorted({tuple(sorted({i, j}))
                      for i, j in enumerate(table.pairing) if i != triv})
    for r in range(1, len(classes) + 1):
        for combo in combinations(classes, r):
            yield [i for cl in combo for i in cl]

