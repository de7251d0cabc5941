"""Voltages over Z_p and cycle lifting through semiregular automorphisms.

Sign convention: traversing a quotient edge from cell A to cell B with
voltage j asserts rep(A) ~ rep(B)^(rho^j), so the reverse traversal has
voltage -j.  As rho preserves X, ``voltage_assignment`` reads every
voltage off the cell representatives' rows; readers look up the directed
pair.  The net voltage around a quotient cycle decides the lift
dichotomy: nonzero mod p lifts to one kp-cycle, zero to p disjoint k-cycles.
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
    """Orbits of an (m,p)-semiregular automorphism, with positions.

    ``cells[i]`` lists the i-th orbit in rho-order starting at its
    minimum vertex; ``position[v] = (i, j)`` with v = rep(i)^(rho^j).
    """

    rho: Perm
    p: int
    m: int
    cells: tuple[tuple[int, ...], ...]
    position: dict[int, tuple[int, int]]

    def vertex(self, i: int, j: int) -> int:
        return self.cells[i][j % self.p]


@dataclass(frozen=True)
class VoltageAssignment:
    """Voltage sets of the quotient, one per directed pair of cells:
    table[(a, b)] = {j : rep(a) ~ rep(b)^(rho^j)}, where (a, a) holds the
    steps within cell a and a pair that no edge joins is absent."""

    p: int
    table: dict[tuple[int, int], frozenset[int]]

    @property
    def cross(self) -> dict[tuple[int, int], frozenset[int]]:
        """The voltage sets of the quotient edges (a, b) with a < b."""
        return {(a, b): js for (a, b), js in self.table.items() if a < b}

    def voltages(self, a: int, b: int) -> frozenset[int]:
        """Voltage set for the traversal a -> b."""
        return self.table.get((a, b), frozenset())


def decompose(X: Graph, rho: Perm, p: int) -> SemiregularDecomposition:
    """Cells and positions for a verified (m,p)-semiregular automorphism."""
    if rho.degree != X.n:
        raise NotAutomorphism("degree mismatch")
    if not X.preserved_by(rho.images):
        raise NotAutomorphism("rho does not preserve the edge set")
    return _decompose(rho, p)


def _decompose(rho: Perm, p: int) -> SemiregularDecomposition:
    """``decompose`` for a rho already known to be an automorphism."""
    cells = rho.cycles()  # each starts at its minimum, and they are sorted
    n = rho.degree
    if sum(len(c) for c in cells) != n or any(len(c) != p for c in cells):
        raise NotSemiregular(f"cycle type is not ({n // p},{p})")
    position = {v: (i, j) for i, c in enumerate(cells)
                for j, v in enumerate(c)}
    return SemiregularDecomposition(rho, p, len(cells), tuple(cells),
                                    position)


def voltage_assignment(X: Graph,
                       dec: SemiregularDecomposition) -> VoltageAssignment:
    """All voltages realized by edges of X between and within cells, read
    off the m representatives' rows; dec.rho must preserve X."""
    table: dict[tuple[int, int], set[int]] = {}
    for a, cell in enumerate(dec.cells):
        for w in X.adj[cell[0]]:
            b, j = dec.position[w]  # rep(a) ~ w = rep(b)^(rho^j)
            table.setdefault((a, b), set()).add(j)
    return VoltageAssignment(dec.p,
                             {k: frozenset(v) for k, v in table.items()})


def quotient_graph(dec: SemiregularDecomposition,
                   volt: VoltageAssignment) -> Graph:
    """Simple quotient on the cells (edge iff some cross voltage)."""
    edges = sorted(volt.cross)
    return Graph.from_edges(dec.m, edges)


def cycle_voltage(dec: SemiregularDecomposition, volt: VoltageAssignment,
                  cycle, choice) -> int:
    """Net voltage of a quotient cycle under a per-edge voltage choice."""
    k = len(cycle)
    if len(choice) != k:
        raise InvalidChoice("one voltage required per cycle edge")
    total = 0
    for idx in range(k):
        a, b = cycle[idx], cycle[(idx + 1) % k]
        j = choice[idx] % dec.p
        if j not in volt.voltages(a, b):
            raise InvalidChoice(f"voltage {j} not available on {a}->{b}")
        total += j
    return total % dec.p


def lifted_components(dec: SemiregularDecomposition, volt: VoltageAssignment,
                      cycle, choice) -> list[tuple[int, ...]]:
    """Vertex cycles of the lift of a quotient cycle (the dichotomy).

    Returns one cycle of length k*p when the net voltage is nonzero,
    else p disjoint cycles of length k.
    """
    net = cycle_voltage(dec, volt, cycle, choice)
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


def voltages_are_coboundary(X: Graph, rho: Perm) -> bool:
    """Whether the cross voltages of X over a semiregular rho are a
    coboundary, with at least two cells.

    That is: every cross edge carries a single voltage, and a potential
    f on the cells gives voltage(a -> b) = f(b) - f(a) (mod p).  By
    voltage switching (Gross & Tucker, *Topological Graph Theory*, 2.5)
    this holds exactly when no component of the cross edges of X meets
    a cell twice: the component through rep(a)^(rho^i) meets cell b at
    rep(b)^(rho^(i + f(b) - f(a))) and nowhere else.  One search over
    X decides it in O(n + e) time, without a decomposition.
    """
    cycles = rho.cycles()
    if len(cycles) < 2:
        return False
    cell = [0] * X.n
    for i, c in enumerate(cycles):
        for v in c:
            cell[v] = i
    seen = [False] * X.n
    for s in range(X.n):
        if seen[s]:
            continue
        seen[s] = True
        stack, met = [s], set()
        while stack:
            u = stack.pop()
            if cell[u] in met:
                return False
            met.add(cell[u])
            for w in X.adj[u]:
                if cell[w] != cell[u] and not seen[w]:
                    seen[w] = True
                    stack.append(w)
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
    """``lift_hamilton`` on a decomposition whose rho is already known to
    be an automorphism of X, with the outcome that ``analyze`` records:
    the certificate with "found", or None with the proof that decided."""
    if voltages_are_coboundary(X, dec.rho):
        return None, "no lift (voltages are a coboundary)"
    volt = voltage_assignment(X, dec)
    if dec.m == 1:
        cycles = [(0,)]
    elif dec.m == 2:
        cycles = [(0, 1)] if volt.voltages(0, 1) else []
    else:
        cycles = iter_hamilton_cycles(quotient_graph(dec, volt), budget)
    for cycle in cycles:
        options = [sorted(volt.voltages(a, b))
                   for a, b in zip(cycle, cycle[1:] + cycle[:1])]
        for choice in islice(product(*options), 2):
            if sum(choice) % dec.p == 0:
                continue
            comps = lifted_components(dec, volt, cycle, choice)
            cert = HamiltonCertificate("cycle", comps[0])
            if verify_hamilton(X, cert):
                return cert, "found"
    return None, "no lift"
