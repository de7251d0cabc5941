"""Voltages over Z_p and cycle lifting through semiregular automorphisms.

Sign convention: traversing a quotient edge from cell A to cell B with
voltage j asserts rep(A) ~ rep(B)^(rho^j), so the reverse traversal has
voltage -j.  A ``SemiregularDecomposition`` is the whole quotient: the
cells, each vertex's position, and the voltage table, read off the cell
representatives' rows since rho preserves X.  The coboundary test reads
that table too.  The net voltage around a quotient cycle decides the
lift dichotomy: nonzero mod p lifts to one kp-cycle, zero to p disjoint
k-cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product

from .graphs import Graph
from .hamilton import (DEFAULT_BUDGET, HamiltonCertificate,
                       iter_hamilton_cycles, verify_hamilton)
from .perms import Perm

class NotSemiregular(ValueError):
    """Element is not m cycles of length exactly p."""


class NotAutomorphism(ValueError):
    """Element does not preserve the edge set."""


class InvalidChoice(ValueError):
    """A chosen voltage is not available on its edge."""


@dataclass(frozen=True)
class SemiregularDecomposition:
    """The quotient of X by an (m,p)-semiregular automorphism rho.

    ``cells[i]`` lists the i-th orbit in rho-order starting at its
    minimum vertex; ``position[v] = (i, j)`` with v = rep(i)^(rho^j).
    ``table[(a, b)] = {j : rep(a) ~ rep(b)^(rho^j)}`` holds the voltages
    of each directed pair of cells, where (a, a) holds the steps within
    cell a and a pair that no edge joins is absent.
    """

    rho: Perm
    p: int
    m: int
    cells: tuple[tuple[int, ...], ...]
    position: dict[int, tuple[int, int]]
    table: dict[tuple[int, int], frozenset[int]]

    def vertex(self, i: int, j: int) -> int:
        return self.cells[i][j % self.p]

    def voltages(self, a: int, b: int) -> frozenset[int]:
        """Voltage set for the traversal a -> b."""
        return self.table.get((a, b), frozenset())


def decompose(X: Graph, rho: Perm, p: int) -> SemiregularDecomposition:
    """The quotient of X by a verified (m,p)-semiregular automorphism."""
    if rho.degree != X.n:
        raise NotAutomorphism("degree mismatch")
    if not X.preserved_by(rho.images):
        raise NotAutomorphism("rho does not preserve the edge set")
    return _decompose(X, rho, p)


def _decompose(X: Graph, rho: Perm, p: int) -> SemiregularDecomposition:
    """``decompose`` for a rho already known to be an automorphism of X,
    so every voltage is read off the m representatives' rows."""
    cells = rho.cycles()  # each starts at its minimum, and they are sorted
    n = rho.degree
    if sum(len(c) for c in cells) != n or any(len(c) != p for c in cells):
        raise NotSemiregular(f"cycle type is not ({n // p},{p})")
    position = {v: (i, j) for i, c in enumerate(cells)
                for j, v in enumerate(c)}
    table: dict[tuple[int, int], set[int]] = {}
    for a, cell in enumerate(cells):
        for w in X.adj[cell[0]]:
            b, j = position[w]  # rep(a) ~ w = rep(b)^(rho^j)
            table.setdefault((a, b), set()).add(j)
    return SemiregularDecomposition(
        rho, p, len(cells), tuple(cells), position,
        {k: frozenset(v) for k, v in table.items()})


def quotient_graph(dec: SemiregularDecomposition) -> Graph:
    """Simple quotient on the cells (edge iff some cross voltage)."""
    return Graph.from_edges(dec.m, sorted((a, b) for a, b in dec.table
                                          if a < b))


def cycle_voltage(dec: SemiregularDecomposition, cycle, choice) -> int:
    """Net voltage of a quotient cycle under a per-edge voltage choice."""
    k = len(cycle)
    if len(choice) != k:
        raise InvalidChoice("one voltage required per cycle edge")
    total = 0
    for idx in range(k):
        a, b = cycle[idx], cycle[(idx + 1) % k]
        j = choice[idx] % dec.p
        if j not in dec.voltages(a, b):
            raise InvalidChoice(f"voltage {j} not available on {a}->{b}")
        total += j
    return total % dec.p


def lifted_components(dec: SemiregularDecomposition, cycle,
                      choice) -> list[tuple[int, ...]]:
    """Vertex cycles of the lift of a quotient cycle (the dichotomy).

    Returns one cycle of length k*p when the net voltage is nonzero,
    else p disjoint cycles of length k.
    """
    net = cycle_voltage(dec, cycle, choice)
    k = len(cycle)
    out = []
    done: set[int] = set()
    for start in range(dec.p):
        if start in done:
            continue
        seq = []
        e = start
        while True:
            for idx in range(k):
                seq.append(dec.vertex(cycle[idx], e))
                e = (e + choice[idx]) % dec.p
            if e == start:
                break
        # the component meets cell cycle[0] at start, start+net, ...
        done.update((start + t * net) % dec.p
                    for t in range(len(seq) // k))
        out.append(tuple(seq))
    return out


def voltages_are_coboundary(dec: SemiregularDecomposition) -> bool:
    """Whether the cross voltages are a coboundary, with at least two
    cells.

    That is: every cross pair of cells carries a single voltage, and a
    potential f on the cells gives voltage(a -> b) = f(b) - f(a) (mod
    p), so every quotient cycle has net voltage 0 (voltage switching,
    Gross & Tucker, *Topological Graph Theory*, 2.5).  One search over
    the m cells decides it from the table in O(m * valency) time.
    """
    if dec.m < 2:
        return False
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(dec.m)]
    for (a, b), js in dec.table.items():
        if a != b:
            if len(js) != 1:
                return False
            nbrs[a].append((b, *js))
    f: list[int | None] = [None] * dec.m
    for s in range(dec.m):
        if f[s] is not None:
            continue
        f[s], stack = 0, [s]
        while stack:
            a = stack.pop()
            for b, j in nbrs[a]:
                fb = (f[a] + j) % dec.p
                if f[b] is None:
                    f[b] = fb
                    stack.append(b)
                elif f[b] != fb:
                    return False
    return True


def lift_hamilton(X: Graph, rho: Perm, p: int,
                  budget: int = DEFAULT_BUDGET) -> HamiltonCertificate | None:
    """Hamilton cycle of X by lifting a quotient cycle, if one exists.

    p must be prime.  When there are m >= 2 cells and the cross
    voltages are a coboundary (``voltages_are_coboundary``), every
    quotient cycle from cell a back to a has net voltage f(a) - f(a) =
    0, whatever voltages it uses, so nothing lifts and None is returned
    before any enumeration.  Otherwise the quotient cycles are the
    closed walk (0,) for m = 1, (0, 1) for m = 2 and the Hamilton cycles
    of the simple quotient for m >= 3, enumerated within ``budget``
    search nodes (``BudgetExhausted`` is raised past it).  Per cycle
    only the first two voltage choices in product order are tested:
    they differ on the last edge alone, so their net voltages differ,
    and both are 0 only when every edge of the cycle carries a single
    voltage.  A nonzero net voltage lifts to a Hamilton cycle because p
    is prime.
    """
    return _lift(X, decompose(X, rho, p), budget)[0]


def _lift(X: Graph, dec: SemiregularDecomposition,
          budget: int) -> tuple[HamiltonCertificate | None, str]:
    """``lift_hamilton`` on the quotient of X by a rho already known to
    be an automorphism, with the outcome that ``analyze`` records: the
    certificate with "found", or None with the proof that decided."""
    if voltages_are_coboundary(dec):
        return None, "no lift (voltages are a coboundary)"
    if dec.m == 1:
        cycles = [(0,)]
    elif dec.m == 2:
        cycles = [(0, 1)] if dec.voltages(0, 1) else []
    else:
        cycles = iter_hamilton_cycles(quotient_graph(dec), budget)
    for cycle in cycles:
        options = [sorted(dec.voltages(a, b))
                   for a, b in zip(cycle, cycle[1:] + cycle[:1])]
        for choice in islice(product(*options), 2):
            if sum(choice) % dec.p == 0:
                continue
            comps = lifted_components(dec, cycle, choice)
            cert = HamiltonCertificate("cycle", comps[0])
            if verify_hamilton(X, cert):
                return cert, "found"
    return None, "no lift"
