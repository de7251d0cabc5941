"""Output checks that do not use the package's own verifiers.

Every check raises ``CheckFailed`` for a wrong output and otherwise
returns True for a decisive result (a verified certificate, a finished
exhaustive search, a checked count) or False for an honest ``unknown``.
The reference values (group orders, suborbit lengths, the four known
non-Hamiltonian connected vertex-transitive graphs) come from the
mathematics, not from earlier runs of the package.
"""

from __future__ import annotations

from collections import deque

import numpy as np

#: The known connected vertex-transitive graphs on >= 3 vertices without
#: a Hamilton cycle.  Every other input here must get a cycle certificate.
NON_HAMILTONIAN = frozenset(
    {"petersen", "truncated_petersen", "coxeter", "truncated_coxeter"})


class CheckFailed(Exception):
    """The output contradicts the mathematics."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# graphs and certificates


def edge_set(edges) -> frozenset[frozenset[int]]:
    return frozenset(frozenset((int(u), int(v))) for u, v in edges)


def check_sequence(n: int, edges: frozenset, kind: str, seq) -> None:
    """``seq`` is a permutation of range(n) walking along ``edges``."""
    seq = [int(v) for v in seq]
    require(sorted(seq) == list(range(n)),
            f"{kind} certificate is not a permutation of range({n})")
    pairs = list(zip(seq, seq[1:]))
    if kind == "cycle":
        require(n >= 3, "a Hamilton cycle needs three vertices")
        pairs.append((seq[-1], seq[0]))
    for a, b in pairs:
        require(frozenset((a, b)) in edges,
                f"{kind} certificate steps along a non-edge {a}-{b}")


def check_analysis(name: str, n: int, edges: frozenset, report) -> bool:
    """An ``analyze`` report against the known verdict for ``name``."""
    if report.result == "unknown":
        return False
    if name in NON_HAMILTONIAN:
        require(report.result == "no_hamilton_cycle",
                f"{name}: verdict {report.result!r}, expected "
                "no_hamilton_cycle")
        require(report.path_certificate is not None,
                f"{name}: no Hamilton path certificate")
        require(report.path_certificate.kind == "path",
                f"{name}: path certificate has kind "
                f"{report.path_certificate.kind!r}")
        check_sequence(n, edges, "path", report.path_certificate.sequence)
        return True
    require(report.result == "certificate",
            f"{name}: verdict {report.result!r} on a Hamiltonian graph")
    require(report.certificate is not None
            and report.certificate.kind == "cycle",
            f"{name}: certificate verdict without a cycle")
    check_sequence(n, edges, "cycle", report.certificate.sequence)
    return True


def check_cycle_search(n: int, edges: frozenset, res) -> bool:
    """A ``find_hamilton_cycle`` result on a Hamiltonian graph."""
    if res.status == "unknown":
        return False
    require(res.status == "found",
            f"search says {res.status!r} on a Hamiltonian graph")
    require(res.certificate is not None and res.certificate.kind == "cycle",
            "found without a cycle certificate")
    check_sequence(n, edges, "cycle", res.certificate.sequence)
    return True


def is_connected(n: int, edges: frozenset) -> bool:
    adj = [[] for _ in range(n)]
    for e in edges:
        u, v = tuple(e)
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    todo = deque([0])
    while todo:
        for w in adj[todo.popleft()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def relabel(n: int, edges, gens, sigma):
    """Rename vertex v to sigma[v] in an edge list and its automorphisms.

    The generator g becomes sigma^-1 g sigma, so that it maps the new
    edge set onto itself exactly when g preserved the old one.
    """
    new_edges = [[sigma[u], sigma[v]] for u, v in edges]
    new_gens = []
    for g in gens:
        img = [0] * n
        for v in range(n):
            img[sigma[v]] = sigma[g[v]]
        new_gens.append(img)
    return new_edges, new_gens


# ---------------------------------------------------------------------------
# transitive groups, suborbits and orbital graphs


def closure(degree: int, gens) -> tuple[set, dict]:
    """All elements of <gens> as image tuples, and for each point v one
    element mapping 0 to v; a plain breadth-first search over products."""
    gens = [tuple(int(x) for x in g) for g in gens]
    ident = tuple(range(degree))
    seen = {ident}
    todo = deque([ident])
    transport = {0: ident}
    while todo:
        g = todo.popleft()
        for s in gens:
            h = tuple(s[x] for x in g)  # g first, then s
            if h not in seen:
                seen.add(h)
                todo.append(h)
                transport.setdefault(h[0], h)
    return seen, transport


def check_coset_action(G_gens, H_gens, act, order: int, h_order: int) -> None:
    """``act`` is G acting on the right cosets of H, coset i = H reps[i]."""
    G, _ = closure(len(G_gens[0]), G_gens)
    H, _ = closure(len(G_gens[0]), H_gens)
    require(len(G) == order, f"|G| = {len(G)}, expected {order}")
    require(len(H) == h_order and H <= G,
            f"H of order {len(H)} is not a subgroup of order {h_order}")

    def coset(g) -> tuple[int, ...]:
        return min(tuple(g[i] for i in h) for h in H)  # min over h*g

    reps = [tuple(r.images) for r in act.reps]
    keys = [coset(r) for r in reps]
    require(act.degree == order // h_order == len(set(keys)),
            f"{act.degree} points, expected {order // h_order} cosets")
    require(all(r in G for r in reps), "a coset representative is not in G")
    pushed = [g.images for g in act.group.generators]
    require(len(pushed) == len(G_gens), "generator count changed")
    where = {k: i for i, k in enumerate(keys)}
    for s, img in zip(G_gens, pushed):
        for i, r in enumerate(reps):
            require(where[coset(tuple(s[x] for x in r))] == img[i],
                    "coset action disagrees with right multiplication")


class GroupFacts:
    """A transitive group on range(degree), worked out by enumeration,
    with its suborbits at 0 and their pairing."""

    def __init__(self, degree: int, gens):
        seen, transport = closure(degree, gens)
        self.degree = degree
        self.order = len(seen)
        self.transport = transport
        parent = list(range(degree))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in seen:
            if g[0] == 0:
                for w in range(degree):
                    a, b = find(w), find(g[w])
                    if a != b:
                        parent[max(a, b)] = min(a, b)
        cells: dict[int, list[int]] = {}
        for w in range(degree):
            cells.setdefault(find(w), []).append(w)
        self.suborbits = sorted((tuple(c) for c in cells.values()),
                                key=lambda s: (len(s), s[0]))
        where = {w: i for i, s in enumerate(self.suborbits) for w in s}
        pairing = []
        for s in self.suborbits:
            g = transport[s[0]]
            pairing.append(where[g.index(0)])  # 0 under g^-1
        self.pairing = tuple(pairing)
        self.where = where

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.suborbits)

    def pair_closed_selections(self) -> list[frozenset[int]]:
        """Every nonempty union of pairing classes, as suborbit indices."""
        triv = self.where[0]
        classes = sorted({tuple(sorted({i, self.pairing[i]}))
                          for i in range(len(self.suborbits)) if i != triv})
        out = []
        for mask in range(1, 1 << len(classes)):
            out.append(frozenset(i for b, cl in enumerate(classes)
                                 if mask >> b & 1 for i in cl))
        return out

    def orbital_edges(self, selection) -> frozenset:
        targets = [w for i in selection for w in self.suborbits[i]]
        return frozenset(frozenset((v, g[w]))
                         for v, g in self.transport.items()
                         for w in targets)


def check_group(facts: GroupFacts, order: int, lengths, connected: int,
                table) -> dict[int, int]:
    """A suborbit table against the enumerated group and known facts.

    Returns the map from ``facts``' suborbit indices to the table's; the
    order of the table's suborbits is not pinned.
    """
    require(facts.order == order,
            f"group order {facts.order}, expected {order}")
    require(tuple(lengths) == facts.lengths(),
            f"suborbit lengths {facts.lengths()}, expected {tuple(lengths)}")
    require(table.base == 0, "suborbit table is not based at 0")
    theirs = [frozenset(s) for s in table.suborbits]
    ours = [frozenset(s) for s in facts.suborbits]
    require(len(theirs) == len(ours) and set(theirs) == set(ours),
            "suborbits differ from the enumerated stabilizer orbits")
    to_table = {i: theirs.index(s) for i, s in enumerate(ours)}
    require(all(table.pairing[to_table[i]] == to_table[j]
                for i, j in enumerate(facts.pairing)),
            "suborbit pairing differs from the enumerated one")
    count = sum(is_connected(facts.degree, facts.orbital_edges(s))
                for s in facts.pair_closed_selections())
    require(count == connected,
            f"{count} connected orbital graphs, expected {connected}")
    return to_table


def check_orbital(facts: GroupFacts, selection, og) -> bool:
    edges = facts.orbital_edges(selection)
    require(og.graph.n == facts.degree, "orbital graph has the wrong order")
    require(edge_set(og.graph.edges()) == edges,
            "orbital graph edges differ from the enumerated orbital")
    require(og.connected == is_connected(facts.degree, edges),
            "orbital graph connectivity flag is wrong")
    require(not og.symmetrized, "a pair-closed selection was symmetrized")
    return True


# ---------------------------------------------------------------------------
# GF(2^k): exp/log tables built here from the field's modulus


def _mul_slow(a: int, b: int, modulus: int, k: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> k & 1:
            a ^= modulus
    return out


class FieldTables:
    """exp/log tables of GF(2^k) for the modulus and generator given.

    Building them proves the field: theta of multiplicative order
    2^k - 1 modulo a degree-k polynomial makes every nonzero residue a
    unit, so the modulus is irreducible and theta primitive.
    """

    def __init__(self, k: int, modulus: int, theta: int):
        q = 1 << k
        require(modulus >> k == 1,
                f"modulus {modulus:#x} is not of degree {k}")
        exp = np.zeros(q - 1, dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        x = 1
        for i in range(q - 1):
            require(log[x] < 0, f"theta has order {i} < {q - 1}")
            exp[i] = x
            log[x] = i
            x = _mul_slow(x, theta, modulus, k)
        require(x == 1, "theta does not have order q - 1")
        self.k, self.q = k, q
        self.exp, self.log = exp, log
        # Tr(theta^i) = sum_j theta^(i 2^j); trace[a] is 0 or 1
        idx = np.arange(q - 1, dtype=np.int64)
        acc = np.zeros(q - 1, dtype=np.int64)
        for j in range(k):
            acc ^= exp[(idx << j) % (q - 1)]
        require(bool(np.all((acc == 0) | (acc == 1))),
                "trace is not in the prime field")
        self.trace = np.concatenate(([0], acc[log[1:]]))

    def element_trace(self, log_a: int) -> int:
        return int(self.trace[self.exp[log_a % (self.q - 1)]])


def check_quad_m(T: FieldTables, m: int) -> bool:
    """m is least with x^2 + theta^m x + 1 rootless: Tr(theta^-2m) = 1."""
    require(0 <= m < T.q - 1, f"m={m} out of range")
    for j in range(m):
        require(T.element_trace(-2 * j) == 0,
                f"x^2 + theta^{j} x + 1 is already irreducible (m={m})")
    require(T.element_trace(-2 * m) == 1,
            f"x^2 + theta^{m} x + 1 has a root")
    return True


def check_s_group(T: FieldTables, m: int, mats) -> bool:
    pairs = {(int(s.a), int(s.b)) for s in mats}
    require(len(mats) == T.q + 1 and len(pairs) == T.q + 1,
            f"s_group has {len(pairs)} distinct elements, expected "
            f"{T.q + 1}")
    lt = T.log

    def mul(x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return int(T.exp[(lt[x] + lt[y]) % (T.q - 1)])

    tm = int(T.exp[m % (T.q - 1)])
    for a, b in pairs:
        require(mul(a, a) ^ mul(b, b) ^ mul(mul(a, b), tm) == 1,
                f"s({a}, {b}) does not have determinant 1")
    return True


def eq2_count(T: FieldTables, m: int, c: int) -> int:
    """#{(a, y): a^2 + B a + C = 0} with B = c theta^m y^3, C = c^2 y^6 + 1.

    y = 0 gives B = 0 and exactly one square root.  Otherwise the
    quadratic has 2 roots when Tr(C / B^2) = 0 and none when it is 1.
    """
    q1 = T.q - 1
    ly = np.arange(q1, dtype=np.int64)  # y = theta^ly, all nonzero y
    lc = int(T.log[c])
    lb = (lc + m + 3 * ly) % q1
    cc = T.exp[(2 * lc + 6 * ly) % q1] ^ 1
    ratio = np.zeros(q1, dtype=np.int64)
    nz = cc != 0
    ratio[nz] = T.exp[(T.log[cc[nz]] - 2 * lb[nz]) % q1]
    return 1 + 2 * int(np.count_nonzero(T.trace[ratio] == 0))


def weil_holds(N: int, q: int, d: int) -> bool:
    """|N - q| <= (d-1)(d-2) sqrt(q) + d^2 in exact integers."""
    lhs = abs(N - q) - d * d
    return lhs <= 0 or lhs * lhs <= (d - 1) ** 2 * (d - 2) ** 2 * q


def check_count(T: FieldTables, m: int, c: int, out) -> bool:
    N, weil = out
    want = eq2_count(T, m, c)
    require(N == want, f"count_eq2(c={c}) = {N}, trace formula gives {want}")
    require(weil is True, f"weil_check rejected N={N}")
    require(weil_holds(N, T.q, 6), f"N={N} breaks the Weil bound")
    return True
