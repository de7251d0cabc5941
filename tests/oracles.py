"""Brute-force oracles used only in tests.

Everything here is deliberately naive: exhaustive closure, subset
enumeration, permutation enumeration.  The library must agree with
these on small instances.
"""

from collections import Counter
from itertools import permutations

import numpy as np

from hamvt import BudgetExhausted, Graph, Perm


def naive_closure(degree: int, gens) -> set[Perm]:
    """All group elements by breadth-first closure under the generators."""
    gens = [g if isinstance(g, Perm) else Perm.from_images(g) for g in gens]
    elems = {Perm.identity(degree)}
    frontier = list(elems)
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                x = e * g
                if x not in elems:
                    elems.add(x)
                    nxt.append(x)
        frontier = nxt
    return elems


def brute_semiregular(degree: int, gens, p: int) -> set[Perm]:
    """Every element of <gens> that is degree/p cycles of length p.

    Closure of the whole group, then each element's cycle lengths.  The
    identity never counts, not even at degree 0.
    """
    return {g for g in naive_closure(degree, gens)
            if not g.is_identity() and set(g.cycle_lengths()) == {p}}


def enumerated_coset_key(helems, g: Perm) -> tuple[int, ...]:
    """Least image tuple over the coset H*g, by listing every h in H."""
    return min((h * g).images for h in helems)


def naive_minimal_block(degree: int, gens, a: int, b: int) -> set[int]:
    """Smallest block containing {a, b}: check every subset of points."""
    elems = naive_closure(degree, gens)
    best = set(range(degree))
    for mask in range(1 << degree):
        B = {i for i in range(degree) if mask >> i & 1}
        if a not in B or b not in B or len(B) >= len(best):
            continue
        if degree % len(B):
            continue
        if all((img := {g.images[x] for x in B}) == B or not img & B
               for g in elems):
            best = B
    return best


def naive_block_systems(degree: int, gens) -> list[tuple[tuple[int, ...], ...]]:
    """Cells of the image orbit of each proper block
    ``naive_minimal_block(degree, gens, 0, b)``, one entry per distinct
    block, in order of the least b giving it; cells and points sorted."""
    elems = naive_closure(degree, gens)
    out = []
    for b in range(1, degree):
        B = naive_minimal_block(degree, gens, 0, b)
        if len(B) == degree:
            continue
        cells = tuple(sorted({tuple(sorted(g.images[x] for x in B))
                              for g in elems}))
        if cells not in out:
            out.append(cells)
    return out


def jackson_condition(X: Graph) -> bool:
    """Regular, 3 * valency >= n, and 2-connected: connected on at least
    three vertices, and still connected with any one vertex deleted."""
    degs = {X.degree(v) for v in range(X.n)}
    if X.n < 3 or len(degs) != 1 or 3 * degs.pop() < X.n:
        return False
    return X.is_connected() and all(
        Graph.from_edges(X.n - 1, [(a - (a > v), b - (b > v))
                                   for a, b in X.edges() if v not in (a, b)]
                         ).is_connected()
        for v in range(X.n))


def cell_valencies(X: Graph, cells) -> dict[tuple[int, int], int] | None:
    """(i, j) -> neighbours in cell j of each vertex of cell i, or None
    when two vertices of one cell disagree (the partition is not
    equitable)."""
    cell_of = {v: i for i, c in enumerate(cells) for v in c}
    out = {}
    for i, c in enumerate(cells):
        rows = {tuple(sum(cell_of[w] == j for w in X.adj[v])
                      for j in range(len(cells))) for v in c}
        if len(rows) != 1:
            return None
        out.update(((i, j), k) for j, k in enumerate(rows.pop()))
    return out


def naive_hamilton_cycle(X: Graph) -> bool:
    """Permutation enumeration: any cyclic order with all edges present."""
    n = X.n
    if n < 3:
        return False
    for rest in permutations(range(1, n)):
        if rest[0] > rest[-1]:
            continue  # canonical orientation
        seq = (0,) + rest
        if all(X.has_edge(seq[i], seq[(i + 1) % n]) for i in range(n)):
            return True
    return False


def naive_hamilton_path(X: Graph) -> bool:
    n = X.n
    if n == 0:
        return False
    if n == 1:
        return True
    for seq in permutations(range(n)):
        if seq[0] > seq[-1]:
            continue
        if all(X.has_edge(seq[i], seq[i + 1]) for i in range(n - 1)):
            return True
    return False


def held_karp_cycle(X: Graph) -> bool:
    """Held-Karp reachability DP over vertex subsets, O(2^n n^2).

    dp[mask] is the bitmask of endpoints of paths from vertex 0 that
    visit exactly ``mask``; a Hamilton cycle exists iff some endpoint of
    the full mask is adjacent to 0.
    """
    n = X.n
    if n < 3:
        return False
    adj = [0] * n
    for v in range(n):
        for w in X.adj[v]:
            adj[v] |= 1 << w
    dp = [0] * (1 << n)
    dp[1] = 1
    for mask in range(1, 1 << n, 2):  # only masks containing vertex 0
        ends = dp[mask]
        while ends:
            bit = ends & -ends
            ends ^= bit
            ext = adj[bit.bit_length() - 1] & ~mask
            while ext:
                b = ext & -ext
                ext ^= b
                dp[mask | b] |= b
    return bool(dp[(1 << n) - 1] & adj[0])


class LoadFreeSearch:
    """``hamilton._Search`` without its forced-edge load rule, with the
    rest of its prune recomputed in full at every node by one
    breadth-first sweep over the unvisited vertices.

    Same modes, start, orientation rule, candidate order, node count and
    budget as the library engine, written as a recursive generator.
    """

    def __init__(self, X: Graph, mode: str, budget: int):
        self.X, self.mode, self.budget = X, mode, budget
        self.nodes = 0
        n = X.n
        self.adj = [sum(1 << w for w in X.adj[v]) for v in range(n)]
        self.cyclic = mode != "path"
        self.start = (0 if mode == "all" else
                      min(range(n), key=lambda v: (len(X.adj[v]), v)))

    def dead(self, path, rem, closers) -> bool:
        """Whether the prune cuts the node with this path."""
        adj, cyclic, v = self.adj, self.cyclic, path[-1]
        if cyclic and not closers & rem:
            return True
        if not rem & (rem - 1):
            return not adj[v] & rem
        ends = rem | 1 << v
        seen = frontier = 1 << v
        ones, twos = closers, 0
        while frontier:
            nxt = 0
            for w in range(self.X.n):
                if frontier >> w & 1:
                    twos |= ones & adj[w]
                    ones |= adj[w]
                    nxt |= adj[w]
            frontier = nxt & ends & ~seen
            seen |= frontier
        short = rem & ~twos
        return seen != ends or bool(
            short and (cyclic or short & ~ones or short & (short - 1)))

    def moves(self, path, rem, closers) -> int:
        """The candidates for the next vertex, as a bitmask."""
        return self.adj[path[-1]] & rem

    def __iter__(self):
        n, adj = self.X.n, self.adj
        full = (1 << n) - 1
        cyclic, start = self.cyclic, self.start

        def order(cand, rem):
            ws = [w for w in range(n) if cand >> w & 1]
            if self.mode != "all":
                ws.sort(key=lambda w: ((adj[w] & rem).bit_count(), w))
            return ws

        def push(path, visited, closers):
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExhausted
            v = path[-1]
            if cyclic and len(path) == 2:
                closers = adj[start] >> (v + 1) << (v + 1)
            rem = full & ~visited
            if not rem:
                if not cyclic or closers >> v & 1:
                    yield tuple(path)
            elif not self.dead(path, rem, closers):
                for w in order(self.moves(path, rem, closers), rem):
                    yield from push(path + [w], visited | 1 << w, closers)

        closers = adj[start] if cyclic else 0
        for root in [start] if cyclic else order(full, full):
            yield from push([root], 1 << root, closers)


class ReferenceSearch(LoadFreeSearch):
    """``hamilton._Search`` with its whole prune recomputed at every
    node: ``LoadFreeSearch``'s, then in cycle modes the forced-edge load
    rule and the forced next move.

    Each forced vertex (unvisited, two usable neighbours) puts a forced
    edge on both of its usable neighbours.  An unvisited vertex has two
    slots for them; once the path has two vertices, the end and the
    start (its closing edge) have one each.  A node with a vertex over
    its slots is dead.  A live node whose end has forced neighbours
    tries only those next.
    """

    def usable(self, path, rem, closers, w) -> list[int]:
        """w's usable neighbours; at the root the start is listed twice
        for its neighbours, once as the end, once to close."""
        out = [x for x in self.X.adj[w] if rem >> x & 1 or x == path[-1]]
        if closers >> w & 1:
            out.append(path[0])
        return out

    def forced(self, path, rem, closers) -> set[int]:
        """The unvisited vertices with exactly two usable neighbours."""
        return {w for w in range(self.X.n) if rem >> w & 1
                and len(self.usable(path, rem, closers, w)) == 2}

    def dead(self, path, rem, closers) -> bool:
        if super().dead(path, rem, closers):
            return True
        if not self.cyclic or not rem & (rem - 1):
            return False
        slots = {w: 2 for w in range(self.X.n) if rem >> w & 1}
        if len(path) >= 2:
            slots[path[-1]] = slots[path[0]] = 1
        load = Counter()
        for w in self.forced(path, rem, closers):
            load.update(self.usable(path, rem, closers, w))
        return any(load[x] > k for x, k in slots.items())

    def moves(self, path, rem, closers) -> int:
        if self.cyclic:
            nxt = self.forced(path, rem, closers) & set(self.X.adj[path[-1]])
            if nxt:
                return sum(1 << w for w in nxt)
        return super().moves(path, rem, closers)


def brute_count_eq2(F, m: int, c: int) -> int:
    """#{(a, y): a^2 + c*theta^m*a*y^3 + c^2*y^6 + 1 = 0}, by filling the
    whole q x q table of left-hand sides."""
    q = F.q
    d1 = F.mul(c, F.theta_pow(m))
    d2 = F.mul(c, c)
    y3 = [F.mul(F.mul(y, y), y) for y in range(q)]
    t1 = np.array([F.mul(d1, v) for v in y3], dtype=np.int64)
    t2 = np.array([F.mul(d2, F.mul(v, v)) ^ 1 for v in y3], dtype=np.int64)
    sq = np.array([F.mul(a, a) for a in range(q)], dtype=np.int64)
    exp, log = F.tables()
    logv = np.array(log, dtype=np.int64)
    expv = np.array(exp, dtype=np.int64)
    la = logv[np.arange(q)]
    lt = logv[t1]
    prod = expv[(la[:, None] + lt[None, :]) % (q - 1)]
    prod[0, :] = 0
    prod[:, t1 == 0] = 0
    lhs = sq[:, None] ^ prod ^ t2[None, :]
    return int((lhs == 0).sum())


def quadratic_has_root(F, m: int) -> bool:
    """Whether x^2 + theta^m x + 1 vanishes at some x, trying every x."""
    tm = F.theta_pow(m)
    return any(F.mul(x, x) ^ F.mul(tm, x) ^ 1 == 0 for x in range(F.q))


def brute_quad_irreducible_m(F) -> int:
    """Least m with x^2 + theta^m x + 1 rootless: O(q^2) products."""
    return next(m for m in range(F.q - 1) if not quadratic_has_root(F, m))


def brute_s_pairs(F, m: int) -> list[tuple[int, int]]:
    """Every (a, b) with a^2 + b^2 + ab*theta^m = 1, in (a, b) order."""
    tm = F.theta_pow(m)
    return [(a, b) for a in range(F.q) for b in range(F.q)
            if F.mul(a, a) ^ F.mul(b, b) ^ F.mul(F.mul(a, b), tm) == 1]


def stepping_order(F, a: int) -> int:
    """Multiplicative order of a nonzero field element, by stepping through
    its powers one product at a time."""
    o, x = 1, a
    while x != 1:
        x, o = F.mul(x, a), o + 1
    return o


def bfs_transversal(degree: int, gens, v: int) -> dict[int, Perm]:
    """Breadth-first transversal of v's orbit, stored whole: point ->
    t with v^t = point, points in the order the walk reaches them."""
    t = {v: Perm.identity(degree)}
    frontier = [v]
    for x in frontier:  # grows while it is walked: a FIFO queue
        for s in gens:
            y = s.images[x]
            if y not in t:
                t[y] = t[x] * s
                frontier.append(y)
    return t


def edge_loop_voltages(X: Graph, dec) -> dict:
    """Voltage table from every edge of X, both directions written."""
    table: dict[tuple[int, int], set[int]] = {}
    for u, w in X.edges():
        a, i = dec.position[u]
        b, j = dec.position[w]
        # shift u back to rep(a): rep(a) ~ w^(rho^-i) = rep(b)^(rho^(j-i))
        table.setdefault((a, b), set()).add((j - i) % dec.p)
        table.setdefault((b, a), set()).add((i - j) % dec.p)
    return {k: frozenset(v) for k, v in table.items()}


def edge_walk_coboundary(X: Graph, rho: Perm) -> bool:
    """``voltages_are_coboundary`` by a walk over every cross edge of X:
    at least two rho-cycles, and no component of the cross edges (edges
    joining two cycles) meets a cycle twice."""
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
