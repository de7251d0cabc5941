"""Simple graphs, structure reports, quotient multigraphs."""

from __future__ import annotations

from dataclasses import dataclass


class NotEquitable(ValueError):
    """Partition cells are not (bi)regular; not the orbit partition of a
    semiregular automorphism."""


class Graph:
    """Finite simple undirected graph with sorted adjacency lists.

    Vertices are dense integers 0..n-1.
    """

    __slots__ = ("n", "adj", "_adjsets")

    def __init__(self, n: int, adj):
        self.n = n
        self.adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        if len(self.adj) != n:
            raise ValueError("adjacency length != n")
        self._adjsets = tuple(frozenset(a) for a in self.adj)
        for v, row in enumerate(self.adj):
            nbrs = self._adjsets[v]
            if v in nbrs:
                raise ValueError("loops are not allowed")
            if len(nbrs) != len(row):
                raise ValueError("duplicate neighbors")
            if row and not (0 <= row[0] and row[-1] < n):
                raise ValueError("neighbor out of range")
            for w in row:
                if v not in self._adjsets[w]:
                    raise ValueError("adjacency is not symmetric")

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("vertex out of range")
            adj[u].append(v)
            adj[v].append(u)
        return Graph(n, adj)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adjsets[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self):
        return hash(self.adj)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for y in self.adj[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return len(seen) == self.n

    def girth(self) -> int | None:
        """Length of a shortest cycle, or None for a forest (BFS per root)."""
        best = None
        for root in range(self.n):
            dist = {root: 0}
            parent = {root: -1}
            frontier = [root]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in self.adj[x]:
                        if y not in dist:
                            dist[y] = dist[x] + 1
                            parent[y] = x
                            nxt.append(y)
                        elif y != parent[x]:
                            cyc = dist[x] + dist[y] + 1
                            if best is None or cyc < best:
                                best = cyc
                frontier = nxt
        return best


@dataclass(frozen=True)
class StructureReport:
    connected: bool
    two_connected: bool
    regular: int | None
    bipartite: bool


def structure_report(X: Graph) -> StructureReport:
    """Connectivity, 2-connectivity, regularity and bipartiteness."""
    degs = {X.degree(v) for v in range(X.n)}
    regular = degs.pop() if len(degs) == 1 else None
    connected = X.is_connected()
    two_connected = connected and X.n >= 3 and not _has_cut_vertex(X)
    return StructureReport(connected, two_connected, regular, _bipartite(X))


def _bipartite(X: Graph) -> bool:
    color: dict[int, int] = {}
    for root in range(X.n):
        if root in color:
            continue
        color[root] = 0
        frontier = [root]
        while frontier:
            x = frontier.pop()
            for y in X.adj[x]:
                if y not in color:
                    color[y] = 1 - color[x]
                    frontier.append(y)
                elif color[y] == color[x]:
                    return False
    return True


def _has_cut_vertex(X: Graph) -> bool:
    """Iterative Tarjan articulation-point detection."""
    n = X.n
    num = [-1] * n
    low = [0] * n
    counter = 0
    for root in range(n):
        if num[root] != -1:
            continue
        stack = [(root, -1, iter(X.adj[root]))]
        num[root] = low[root] = counter
        counter += 1
        root_children = 0
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if num[w] == -1:
                    num[w] = low[w] = counter
                    counter += 1
                    if v == root:
                        root_children += 1
                    stack.append((w, v, iter(X.adj[w])))
                    advanced = True
                    break
                elif w != parent:
                    low[v] = min(low[v], num[w])
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if pv != root and low[v] >= num[pv]:
                        return True
        if root_children > 1:
            return True
    return False


@dataclass(frozen=True)
class QuotientMulti:
    """Quotient multigraph of a partition: internal and cross valencies.

    ``cross[i][j]`` is the number of parallel edges between cells i and j
    (0 when non-adjacent); ``internal[i]`` is the valency of the subgraph
    induced on cell i.
    """

    cells: tuple[tuple[int, ...], ...]
    internal: tuple[int, ...]
    cross: tuple[tuple[int, ...], ...]

    def simple(self) -> Graph:
        """Underlying simple quotient graph on the cells."""
        m = len(self.cells)
        edges = [(i, j) for i in range(m) for j in range(i + 1, m)
                 if self.cross[i][j] > 0]
        return Graph.from_edges(m, edges)


def quotient_multigraph(X: Graph, cells) -> QuotientMulti:
    """Internal and cross valencies of a partition; raises NotEquitable
    unless every cell is regular and every cell pair biregular."""
    cells = tuple(tuple(sorted(c)) for c in cells)
    covered = sorted(v for c in cells for v in c)
    if covered != list(range(X.n)):
        raise ValueError("cells do not partition the vertex set")
    m = len(cells)
    internal = []
    cross = [[0] * m for _ in range(m)]
    for i, c in enumerate(cells):
        cset = set(c)
        degs = {sum(1 for w in X.adj[v] if w in cset) for v in c}
        if len(degs) != 1:
            raise NotEquitable(f"cell {i} induces a non-regular subgraph")
        internal.append(degs.pop())
    for i in range(m):
        for j in range(i + 1, m):
            ci, cj = set(cells[i]), set(cells[j])
            degs_i = {sum(1 for w in X.adj[v] if w in cj) for v in cells[i]}
            degs_j = {sum(1 for w in X.adj[v] if w in ci) for v in cells[j]}
            if len(degs_i) != 1 or len(degs_j) != 1:
                raise NotEquitable(
                    f"cells {i},{j} induce a non-biregular bipartite subgraph")
            di, dj = degs_i.pop(), degs_j.pop()
            if di * len(cells[i]) != dj * len(cells[j]):
                raise AssertionError("edge count mismatch across a cell pair")
            cross[i][j] = cross[j][i] = di
    return QuotientMulti(cells, tuple(internal),
                         tuple(tuple(r) for r in cross))
