"""Exact Hamilton cycle/path search and certificate checks.

The solver is the brute-force oracle for every Hamiltonicity claim in the
library: "none" is returned only after an exhaustive search completes, and
budget exhaustion yields the honest verdict "unknown".  One iterative
depth-first engine serves cycle finding, path finding and cycle
enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, _index

DEFAULT_BUDGET = 10**9


@dataclass(frozen=True)
class HamiltonCertificate:
    kind: str  # "cycle" | "path"
    sequence: tuple[int, ...]

    def to_json(self) -> dict:
        return {"kind": self.kind, "sequence": list(self.sequence)}

    @staticmethod
    def from_json(d: dict) -> "HamiltonCertificate":
        """Parse ``{"kind": "cycle" | "path", "sequence": [int, ...]}``;
        ValueError on any other shape."""
        if not isinstance(d, dict) or d.get("kind") not in ("cycle", "path"):
            raise ValueError('certificate needs "kind": "cycle" or "path"')
        seq = d.get("sequence")
        if isinstance(seq, list):
            try:
                return HamiltonCertificate(d["kind"], tuple(map(_index, seq)))
            except TypeError:
                pass
        raise ValueError('certificate "sequence" must be a list of ints')


@dataclass(frozen=True)
class SolveResult:
    status: str  # "found" | "none" | "unknown"
    certificate: HamiltonCertificate | None
    nodes: int


class BudgetExhausted(Exception):
    """The search pushed more vertices than its node budget allows."""


def verify_hamilton(X: Graph, cert: HamiltonCertificate) -> bool:
    """Linear-time check of a claimed Hamilton cycle or path."""
    seq = cert.sequence
    if len(seq) != X.n or len(set(seq)) != X.n:
        return False
    if not all(0 <= v < X.n for v in seq):
        return False
    for a, b in zip(seq, seq[1:]):
        if not X.has_edge(a, b):
            return False
    if cert.kind == "cycle":
        return X.n >= 3 and X.has_edge(seq[-1], seq[0])
    if cert.kind == "path":
        return True
    return False


class _Search:
    """Depth-first search for Hamilton cycles or paths on an explicit stack.

    ``mode`` is "cycle" or "path" (find: stop at the first hit) or "all"
    (enumerate every Hamilton cycle).  Iterating yields each Hamilton
    sequence found; ``nodes`` counts the vertices pushed onto the path,
    and pushing more than ``budget`` of them raises ``BudgetExhausted``.

    Cycle modes break orientation: the cycle may close only through a
    neighbour of the start that is larger than the first step, so every
    Hamilton cycle is met in exactly one direction, as (s, v1, ..., vk)
    with v1 < vk.  Find modes try the neighbour with the fewest unvisited
    neighbours first (Warnsdorff's rule), ties by index; "all" explores
    every branch anyway and takes candidates in index order.

    The prune expands a path only if its region (the unvisited vertices
    and the end) is connected and every unvisited vertex has two usable
    neighbours: the unvisited, the end, and the start when the cycle may
    close through it.  A path search lets one vertex, its far end, have
    only one.  Each node recounts only the vertices its step touched:
    at a root every unvisited vertex, and when the end u steps to v the
    unvisited neighbours of u, the only ones that lose a usable
    neighbour as the region loses u.  The region is connected if a
    search from v reaches every touched vertex.

    Cycle modes add the forced-edge load rule (Vandegriend & Culberson,
    JAIR 9, 1998).  An unvisited vertex with exactly two usable
    neighbours is *forced*: every completion uses both its edges, so it
    puts a forced edge on each of them.  An unvisited vertex has two
    slots for forced edges; once the path has two vertices, the end and
    the start (its closing edge) have one each.  A vertex over its slots
    kills the node.  Each frame carries its path's *tight* vertices, the
    unvisited ones with no usable neighbour to spare: the forced ones,
    or in a path search the short one.  A vertex leaves that mask only
    when it is visited, since a tight vertex that loses a usable
    neighbour kills the node, and joins it only when a step recounts it;
    so a load can grow only on the unvisited neighbours of the newly
    forced vertices, which are the ones checked, and on the end and the
    start, checked at every node past the root.  At a root a neighbour
    of the start counted as forced has no other neighbour: its loads
    fall on the start, which the root does not check, and such
    neighbours are the start's only candidates, each dead at the next
    node.  Past the root the end has at most one forced neighbour w, by
    its one slot, and the edge to w is then in every completion: w is
    the only candidate, since any other leaves w one usable neighbour.

    A forced-chain rule (same paper) would also cut a node whose chain
    of forced vertices closes on itself or has one vertex at both ends;
    the two rules above cut it too.  A closed chain is a component of
    the region without v.  Ends that meet at the end, or at the start
    past the root, overload a vertex with one slot; at a root they meet
    only at a lone neighbour of the start.  Ends that meet at an
    unvisited hub x are cut later: once x is the end, or once it has a
    third forced edge.
    """

    def __init__(self, X: Graph, mode: str, budget: int):
        self.X, self.mode, self.budget = X, mode, budget
        self.nodes = 0

    def __iter__(self):
        n = self.X.n
        adj = [0] * n
        for v in range(n):
            for w in self.X.adj[v]:
                adj[v] |= 1 << w
        full = (1 << n) - 1
        cyclic = self.mode != "path"
        need = 2 if cyclic else 1  # usable neighbours a vertex needs
        ordered = self.mode != "all"

        def fewest(cand: int, rem: int) -> int:
            """The bit of the candidate with fewest unvisited neighbours."""
            best = key = None
            while cand:
                b = cand & -cand
                cand ^= b
                k = (adj[b.bit_length() - 1] & rem).bit_count()
                if key is None or k < key:
                    best, key = b, k
            return best

        def step(touched: int, v: int, rem: int, tight: int) -> int | None:
            """The prune at a path ending at v: recounts the touched
            vertices, given the parent's tight vertices.  None if no
            Hamilton completion exists, else this path's tight vertices:
            the unvisited ones with one usable neighbour (path mode) or
            two (cycle modes)."""
            region = rem | 1 << v
            cand = touched
            fresh = loaded = 0
            while cand:
                b = cand & -cand
                cand ^= b
                w = b.bit_length() - 1
                k = (adj[w] & region).bit_count()
                if closers & b:
                    k += 1
                if k <= need:
                    if k < need:
                        return None
                    fresh |= b
                    loaded |= adj[w]
            # a touched vertex tight in the parent lost its end u as a
            # usable neighbour and returned None above
            tight = tight & rem | fresh
            if not cyclic:
                if tight & (tight - 1):
                    return None
            else:
                # loads grow only on the neighbours of newly forced
                # vertices, and on the end and the start once they differ
                loaded &= rem
                while loaded:
                    b = loaded & -loaded
                    loaded ^= b
                    if (adj[b.bit_length() - 1] & tight).bit_count() > 2:
                        return None
                if v != start and ((adj[v] & tight).bit_count() > 1
                                   or (closers & tight).bit_count() > 1):
                    return None
            # the region is connected iff v reaches every touched vertex:
            # all of it at a root, else the other neighbours of the vertex
            # left behind
            seen = frontier = 1 << v
            while touched & ~seen:
                if not frontier:
                    return None
                nxt = 0
                while frontier:
                    b = frontier & -frontier
                    frontier ^= b
                    nxt |= adj[b.bit_length() - 1]
                frontier = nxt & region & ~seen
                seen |= frontier
            return tight

        if self.mode == "all":
            start = 0
        else:
            start = min(range(n), key=lambda v: (len(self.X.adj[v]), v))
        # where the cycle may close; a path never closes
        closers = adj[start] if cyclic else 0
        path: list[int] = []
        visited = 0
        nodes, budget = self.nodes, self.budget
        # each frame is the bitmask of candidates not yet tried there;
        # tights[i] holds the tight vertices of the path that owns frame i
        stack = [1 << start if cyclic else full]
        tights = [0]
        while stack:
            frame = stack[-1]
            if not frame:
                stack.pop()
                tights.pop()
                if path:
                    visited ^= 1 << path.pop()
                continue
            b = fewest(frame, full & ~visited) if ordered else frame & -frame
            stack[-1] = frame ^ b
            nodes += 1
            if nodes > budget:
                self.nodes = nodes
                raise BudgetExhausted
            v = b.bit_length() - 1
            path.append(v)
            visited |= b
            if cyclic and len(path) == 2:
                closers = adj[start] >> (v + 1) << (v + 1)
            rem = full & ~visited
            if rem:
                if cyclic and not closers & rem:
                    tight = None
                elif not rem & (rem - 1):  # one vertex left: it must follow v
                    tight = 0 if adj[v] & rem else None
                else:
                    touched = adj[path[-2]] & rem if len(path) > 1 else rem
                    tight = step(touched, v, rem, tights[-1])
                if tight is not None:
                    cand = adj[v] & rem
                    # a forced neighbour of the end must come next; past
                    # the root the load rule leaves at most one
                    stack.append((cand & tight or cand) if cyclic else cand)
                    tights.append(tight)
                    continue
            elif not cyclic or closers & b:
                self.nodes = nodes
                yield tuple(path)
            path.pop()
            visited ^= b
        self.nodes = nodes


def contract_triangles(X: Graph) -> tuple[Graph, list[int]] | None:
    """One pass that contracts every truncation triangle of X to a vertex.

    A truncation triangle is three mutually adjacent vertices of degree
    3 whose three outside neighbours are distinct; two never share a
    vertex.  One joined by two edges to a triangle already taken waits
    for the next pass, as contracting both would repeat an edge.
    Returns the contracted graph, whose degrees are those of X, and the
    vertex map from X to it; None if X has no truncation triangle.
    """
    adj = X.adj
    owner = list(range(X.n))  # v, or the least corner of v's triangle
    for x in range(X.n):
        if len(adj[x]) != 3:
            continue
        for y, z in combinations(adj[x], 2):
            tri = (x, y, z)
            if not (x < y and len(adj[y]) == len(adj[z]) == 3
                    and X.has_edge(y, z)):
                continue
            # distinct outside neighbours, at most one in each triangle
            if len({owner[w] for c in tri for w in adj[c]
                    if w not in tri}) >= 3:
                owner[y] = owner[z] = x
    index = {v: i for i, v in enumerate(sorted(set(owner)))}
    if len(index) == X.n:
        return None
    to = [index[v] for v in owner]
    rows: list[set[int]] = [set() for _ in index]
    for u, w in X.edges():
        if to[u] != to[w]:
            rows[to[u]].add(to[w])
            rows[to[w]].add(to[u])
    return Graph(len(rows), rows), to


def _expand(X: Graph, to: list[int], seq: tuple[int, ...],
            cyclic: bool) -> tuple[int, ...]:
    """Expand a Hamilton sequence of the contraction of X by ``to``: a
    triangle is entered at the corner next to its predecessor and left at
    the corner next to its successor; at a path end the free corners go
    in any order."""
    members: list[list[int]] = [[] for _ in seq]
    for v, t in enumerate(to):
        members[t].append(v)
    n = len(seq)
    out: list[int] = []
    for i, t in enumerate(seq):
        if len(members[t]) == 1:
            out += members[t]
            continue
        # the corners next to the predecessor and to the successor
        ends = [next(c for c in members[t]
                     if any(to[w] == seq[j % n] for w in X.adj[c]))
                if cyclic or 0 <= j < n else None for j in (i - 1, i + 1)]
        mid = [c for c in members[t] if c not in ends]
        out += [c for c in (ends[0], *mid, ends[1]) if c is not None]
    return tuple(out)


def _find(X: Graph, kind: str, budget: int) -> SolveResult:
    """Search the graph left after contracting truncation triangles, pass
    after pass, and expand its certificate back to X.

    A Hamilton cycle crosses such a triangle in one run, through two of
    its edges, and so does a Hamilton path, unless a corner cut off from
    the others is one of its ends; so X and the contraction have a
    Hamilton cycle, and a Hamilton path, together.
    """
    passes = []
    while X.n > 4 and (step := contract_triangles(X)) is not None:
        passes.append((X, step[1]))
        X = step[0]
    search = _Search(X, kind, budget)
    try:
        seq = next(iter(search), None)
    except BudgetExhausted:
        return SolveResult("unknown", None, search.nodes)
    if seq is None:
        return SolveResult("none", None, search.nodes)
    for G, to in reversed(passes):
        seq = _expand(G, to, seq, kind == "cycle")
    return SolveResult("found", HamiltonCertificate(kind, seq), search.nodes)


def find_hamilton_cycle(X: Graph, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Exhaustive deterministic Hamilton cycle search; ``nodes`` counts
    the search on the graph left after contracting truncation triangles."""
    n = X.n
    if n < 3 or not X.is_connected() or min(X.degree(v) for v in range(n)) < 2:
        return SolveResult("none", None, 0)
    return _find(X, "cycle", budget)


def find_hamilton_path(X: Graph, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Exhaustive deterministic Hamilton path search; ``nodes`` counts
    the search on the graph left after contracting truncation triangles."""
    if X.n == 0 or not X.is_connected():
        return SolveResult("none", None, 0)
    return _find(X, "path", budget)


def iter_hamilton_cycles(X: Graph, budget: int = DEFAULT_BUDGET):
    """Yield every Hamilton cycle once, as a tuple starting at vertex 0
    with second entry smaller than last (orientation canonicalized).

    Intended for small graphs (quotients).  The search is charged to
    ``budget`` nodes and raises ``BudgetExhausted`` rather than stop
    early.
    """
    if X.n < 3 or not X.is_connected():
        return
    yield from _Search(X, "all", budget)
