"""Simple undirected graphs: validation, connectivity, girth."""

from __future__ import annotations

from operator import index


def _index(i) -> int:
    """i as an int; floats and bools raise ``TypeError``."""
    if isinstance(i, bool):
        raise TypeError(f"{i!r} is not an index")
    return index(i)


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
        """Graph on n vertices; n and every endpoint are read by
        ``_index``, so a float or a bool raises ``TypeError``."""
        n = _index(n)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            u, v = _index(u), _index(v)
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

    def preserved_by(self, images) -> bool:
        """Whether the bijection ``images`` of 0..n-1 maps every edge to an
        edge, read off the adjacency rows without listing the edges."""
        adjsets = self._adjsets
        return all(adjsets[images[u]].issuperset(map(images.__getitem__, row))
                   for u, row in enumerate(self.adj))

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
