"""Exact solver against the permutation-enumeration oracle."""

import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from hamvt import (BudgetExhausted, Graph, HamiltonCertificate,
                   find_hamilton_cycle, find_hamilton_path,
                   iter_hamilton_cycles, orbital_graph, suborbits,
                   verify_hamilton)
from hamvt.fixtures import s6_on_s4_cosets
from hamvt.hamilton import _Search, contract_triangles
from hamvt.products import catalog, truncate_cubic
from oracles import (LoadFreeSearch, ReferenceSearch, held_karp_cycle,
                     jackson_condition, naive_hamilton_cycle,
                     naive_hamilton_path)

SMALL_CORPUS = [
    "petersen", "crown:3", "crown:4", "crown:5",
    "circulant:6:1", "circulant:7:1,2", "circulant:8:1,4",
    "circulant:9:3", "circulant:10:2,5",
    "prism:3", "prism:4", "prism:5",
    "complete:4", "complete:5", "complete:6",
    "complete_bipartite:3:3", "complete_bipartite:2:4",
    "complete_bipartite:3:4",
]
#: Graphs of order up to 16 beyond SMALL_CORPUS for the Held-Karp oracle.
HELD_KARP_EXTRA = ["circulant:14:2,7", "prism:8"]


class TestVerify:
    def test_good_cycle(self):
        C6 = catalog("circulant:6:1")
        assert verify_hamilton(C6, HamiltonCertificate("cycle",
                                                       tuple(range(6))))

    def test_repeated_vertex(self):
        C6 = catalog("circulant:6:1")
        assert not verify_hamilton(
            C6, HamiltonCertificate("cycle", (0, 1, 2, 3, 4, 4)))

    def test_non_adjacent_pair(self):
        C6 = catalog("circulant:6:1")
        assert not verify_hamilton(
            C6, HamiltonCertificate("cycle", (0, 2, 1, 3, 4, 5)))

    def test_path_does_not_need_closure(self):
        P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert verify_hamilton(P4, HamiltonCertificate("path", (0, 1, 2, 3)))
        assert not verify_hamilton(P4,
                                   HamiltonCertificate("cycle", (0, 1, 2, 3)))

    def test_json_round_trip(self):
        cert = HamiltonCertificate("cycle", (0, 1, 2))
        assert HamiltonCertificate.from_json(cert.to_json()) == cert


class TestSolver:
    def test_c5(self):
        res = find_hamilton_cycle(catalog("circulant:5:1"))
        assert res.status == "found"
        assert res.certificate.sequence in ((0, 1, 2, 3, 4), (0, 4, 3, 2, 1))

    def test_petersen_none_but_path(self):
        P = catalog("petersen")
        assert find_hamilton_cycle(P).status == "none"
        res = find_hamilton_path(P)
        assert res.status == "found"
        assert verify_hamilton(P, res.certificate)

    def test_disconnected(self):
        X = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                 (3, 4), (4, 5), (3, 5)])
        assert find_hamilton_cycle(X).status == "none"
        assert find_hamilton_path(X).status == "none"

    def test_budget_exhaustion_returns_unknown(self):
        X = catalog("truncated_petersen")
        assert find_hamilton_cycle(X, budget=5).status == "unknown"

    def test_path_budget_exhaustion_returns_unknown(self):
        res = find_hamilton_path(catalog("petersen"), budget=3)
        assert (res.status, res.nodes) == ("unknown", 4)

    @pytest.mark.parametrize("name", SMALL_CORPUS)
    def test_soundness(self, name):
        X = catalog(name)
        res = find_hamilton_cycle(X)
        if res.status == "found":
            assert verify_hamilton(X, res.certificate)
        res = find_hamilton_path(X)
        if res.status == "found":
            assert verify_hamilton(X, res.certificate)

    @pytest.mark.parametrize(
        "name", [n for n in SMALL_CORPUS if catalog(n).n <= 10])
    def test_matches_naive_oracle(self, name):
        X = catalog(name)
        assert (find_hamilton_cycle(X).status == "found") == \
            naive_hamilton_cycle(X)
        assert (find_hamilton_path(X).status == "found") == \
            naive_hamilton_path(X)

    @pytest.mark.parametrize("name", SMALL_CORPUS + HELD_KARP_EXTRA)
    def test_matches_held_karp_oracle(self, name):
        X = catalog(name)
        assert X.n <= 16
        assert (find_hamilton_cycle(X).status == "found") == \
            held_karp_cycle(X)


class TestJackson:
    def test_k5(self):
        assert jackson_condition(catalog("complete:5"))

    def test_petersen(self):
        assert not jackson_condition(catalog("petersen"))

    def test_path(self):
        assert not jackson_condition(
            Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))


class TestIterCycles:
    def test_counts(self):
        assert len(list(iter_hamilton_cycles(catalog("complete:4")))) == 3
        assert len(list(iter_hamilton_cycles(catalog("circulant:6:1")))) == 1
        assert len(list(iter_hamilton_cycles(catalog("petersen")))) == 0

    def test_canonical_form(self):
        for cyc in iter_hamilton_cycles(catalog("complete:5")):
            assert cyc[0] == 0 and cyc[1] < cyc[-1]

    def test_all_distinct_and_valid(self):
        K5 = catalog("complete:5")
        seen = set(iter_hamilton_cycles(K5))
        assert len(seen) == 12  # (5-1)!/2
        for cyc in seen:
            assert verify_hamilton(K5, HamiltonCertificate("cycle", cyc))

    @pytest.mark.parametrize(
        "name", [n for n in SMALL_CORPUS if catalog(n).n <= 8])
    def test_matches_permutation_enumeration(self, name):
        X = catalog(name)
        want = {(0,) + rest for rest in permutations(range(1, X.n))
                if rest[0] < rest[-1]
                and all(X.has_edge(a, b)
                        for a, b in zip((0,) + rest, rest + (0,)))}
        got = list(iter_hamilton_cycles(X))
        assert len(got) == len(set(got)) and set(got) == want

    def test_budget(self):
        K7 = catalog("complete:7")
        with pytest.raises(BudgetExhausted):
            list(iter_hamilton_cycles(K7, budget=50))
        assert len(list(iter_hamilton_cycles(K7, budget=10**5))) == 360


def random_graph(rng: random.Random) -> Graph:
    """A seeded G(n, p), n <= 14; one in five splits into two parts."""
    n = rng.randint(3, 14)
    p = rng.choice((0.2, 0.35, 0.5, 0.8))
    cut = rng.randrange(1, n) if rng.random() < 0.2 else 0
    return Graph.from_edges(n, [(a, b) for a, b in combinations(range(n), 2)
                                if (a < cut) == (b < cut)
                                and rng.random() < p])


def random_cubic(rng: random.Random, n: int) -> Graph:
    """A seeded simple cubic graph on n (even) vertices: random pairings
    of three half-edges per vertex until one has no loop or repeat."""
    while True:
        ends = [v for v in range(n) for _ in range(3)]
        rng.shuffle(ends)
        pairs = {tuple(sorted(ends[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(pairs) == 3 * n // 2 and all(a != b for a, b in pairs):
            return Graph.from_edges(n, sorted(pairs))


def sparse_graph(rng: random.Random) -> Graph:
    """A seeded cubic graph, relabelled at random: the Petersen graph one
    time in five, else a random one on at most 14 vertices; half the
    time its truncation instead if it has at most 10 vertices; one time
    in three it loses an edge.  Vertices with two usable neighbours, and
    so forced edges, are common here."""
    if rng.random() < 0.2:
        X = catalog("petersen")
    else:
        X = random_cubic(rng, rng.choice((4, 6, 8, 10, 12, 14)))
    if X.n <= 10 and rng.random() < 0.5:
        X = truncate_cubic(X)
    label = list(range(X.n))
    rng.shuffle(label)
    edges = [(label[a], label[b]) for a, b in X.edges()]
    if rng.random() < 1 / 3:
        edges.pop(rng.randrange(len(edges)))
    return Graph.from_edges(X.n, edges)


def run(search) -> tuple[list, int, bool]:
    """Every sequence the search yields, its node count, and whether it
    ran out of budget."""
    out = []
    try:
        for seq in search:
            out.append(seq)
    except BudgetExhausted:
        return out, search.nodes, True
    return out, search.nodes, False


class TestIncrementalPrune:
    """The per-node local prune makes the same search as the reference,
    which recomputes the whole prune, forced-edge loads included, at
    every node."""

    @pytest.mark.parametrize("mode", ["cycle", "path", "all"])
    def test_matches_full_sweep_reference(self, mode):
        rng = random.Random(f"prune-{mode}")
        exhausted = 0
        for i in range(300):
            X = random_graph(rng) if i < 200 else sparse_graph(rng)
            for budget in (rng.randint(1, 40), 2000):
                got = run(_Search(X, mode, budget))
                assert got == run(ReferenceSearch(X, mode, budget)), \
                    (X.n, sorted(X.edges()), budget)
                exhausted += got[2]
        assert exhausted >= 50  # the budget check is exercised too


def same_cycles(X: Graph, without) -> int:
    """Check both cycle modes against ``without``, the search lacking a
    rule: the same cycles in the same order in no more nodes, and for
    n <= 14 the Held-Karp verdict.  Returns the nodes the rule saved."""
    saved = 0
    for mode in ("all", "cycle"):
        got = run(_Search(X, mode, 10**6))
        want = run(without(X, mode, 10**6))
        assert not want[2] and got[0] == want[0], \
            (mode, X.n, sorted(X.edges()))
        assert got[1] <= want[1]
        saved += want[1] - got[1]
    if X.n <= 14:  # got is the cycle-mode run
        assert bool(got[0]) == held_karp_cycle(X)
    return saved


def truncation_family(rng: random.Random) -> Graph:
    """A seeded truncation, relabelled at random, of the Petersen graph
    one time in four, else of a random cubic graph on at most 10
    vertices; one time in three truncated twice if that has at most 36
    vertices.  One time in three it loses an edge, and one time in
    three it gains a chord: either can take a corner off degree 3."""
    if rng.random() < 0.25:
        X = truncate_cubic(catalog("petersen"))
    else:
        X = truncate_cubic(random_cubic(rng, rng.choice((4, 6, 8, 10))))
    if X.n == 12 and rng.random() < 1 / 3:
        X = truncate_cubic(X)
    label = list(range(X.n))
    rng.shuffle(label)
    edges = [(label[a], label[b]) for a, b in X.edges()]
    roll = rng.random()
    if roll < 1 / 3:
        edges.pop(rng.randrange(len(edges)))
    elif roll < 2 / 3:
        present = set(map(frozenset, edges))
        edges.append(rng.choice([e for e in combinations(range(X.n), 2)
                                 if frozenset(e) not in present]))
    return Graph.from_edges(X.n, edges)


class TestTriangleContraction:
    """The find modes search the graph left after contracting truncation
    triangles; their verdicts are those of the search on the graph
    itself, and their certificates hold on the graph itself."""

    def test_same_verdicts_as_uncontracted_search(self):
        rng = random.Random("truncations")
        seen = Counter()
        for _ in range(400):
            X = truncation_family(rng)
            for mode, find in (("cycle", find_hamilton_cycle),
                               ("path", find_hamilton_path)):
                res = find(X)
                seen[mode, res.status] += 1
                want = next(iter(_Search(X, mode, 10**7)), None)
                assert res.status == ("none" if want is None else "found"), \
                    (mode, X.n, sorted(X.edges()))
                if res.certificate is not None:
                    assert res.certificate.kind == mode
                    assert verify_hamilton(X, res.certificate)
            if X.n <= 16:
                seen["held_karp"] += 1
                assert (find_hamilton_cycle(X).status == "found") == \
                    held_karp_cycle(X)
        assert seen["cycle", "none"] >= 20 and seen["held_karp"] >= 20

    def test_corners_must_have_degree_three(self):
        # {0, 1, 2} is a triangle whose corners have degrees 5, 4 and 3;
        # contracting it would leave a bowtie, which has no Hamilton cycle
        X = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 6),
                                 (1, 2), (1, 4), (1, 5), (2, 3), (3, 5),
                                 (4, 6)])
        assert verify_hamilton(
            X, HamiltonCertificate("cycle", (0, 6, 4, 1, 5, 3, 2)))
        assert contract_triangles(X) is None
        res = find_hamilton_cycle(X)
        assert res.status == "found"
        assert verify_hamilton(X, res.certificate)

    def test_double_truncation_contracts_to_its_base(self):
        P = catalog("petersen")
        X = truncate_cubic(truncate_cubic(P))
        Y, to = contract_triangles(X)
        assert Y == truncate_cubic(P) and to == [v // 3 for v in range(90)]
        Z, _ = contract_triangles(Y)
        assert Z == P and contract_triangles(Z) is None

    def test_truncated_truncated_petersen(self):
        X = truncate_cubic(catalog("truncated_petersen"))
        res = find_hamilton_cycle(X)
        assert (res.status, res.nodes) == ("none", 32)
        res = find_hamilton_path(X)
        assert res.status == "found"
        assert verify_hamilton(X, res.certificate)

    def test_triangles_joined_by_two_edges_wait(self):
        # prism:3 is two triangles joined by three edges: one pass takes
        # one of them and leaves K_4
        X = catalog("prism:3")
        Y, to = contract_triangles(X)
        assert Y == catalog("complete:4") and len(set(to)) == 4
        for find in (find_hamilton_cycle, find_hamilton_path):
            assert verify_hamilton(X, find(X).certificate)


def relabelled(X: Graph, seed: int) -> Graph:
    """X with vertex v renamed to entry v of a seeded shuffle."""
    sigma = random.Random(seed).sample(range(X.n), X.n)
    return Graph.from_edges(X.n, [(sigma[u], sigma[w]) for u, w in X.edges()])


#: Vertex-transitive catalog graphs the load rule is checked on.
VT_CORPUS = [
    "petersen", "heawood", "non_incidence_pg22", "crown:4", "crown:5",
    "circulant:10:2,5", "circulant:12:1,6", "prism:5", "prism:6",
    "complete:6", "complete_bipartite:4:4", "truncated_petersen", "coxeter",
]


class TestForcedEdgeLoad:
    """The forced-edge load rule and the forced next move cut only
    subtrees without a Hamilton cycle: the search without them finds
    the same cycles, in the same order, and so does the Held-Karp DP."""

    def test_sparse_graphs(self):
        rng = random.Random("loads")
        assert sum(same_cycles(sparse_graph(rng), LoadFreeSearch)
                   for _ in range(100)) > 0

    def test_random_cubic_graphs(self):
        rng = random.Random("cubic-loads")
        assert sum(same_cycles(random_cubic(rng, rng.choice((8, 10, 12, 14))),
                               LoadFreeSearch) for _ in range(60)) > 0

    def test_truncation_family(self):
        rng = random.Random("truncation-loads")
        assert sum(same_cycles(truncation_family(rng), LoadFreeSearch)
                   for _ in range(40)) > 0

    @pytest.mark.parametrize("name", VT_CORPUS)
    def test_relabelled_vertex_transitive(self, name):
        for seed in (1, 2):
            same_cycles(relabelled(catalog(name), seed), LoadFreeSearch)

    def test_chain_ends_meeting_at_a_hub(self):
        # two triangles joined by the edge 3-4: the forced vertices 1 and
        # 2 make a chain with both ends at 3, cut only once 3 is the end
        X = Graph.from_edges(6, [(1, 2), (1, 3), (2, 3), (0, 4), (0, 5),
                                 (4, 5), (3, 4)])
        assert not held_karp_cycle(X)
        res = find_hamilton_cycle(X)
        assert (res.status, res.nodes) == ("none", 4)

    def test_pendant_neighbour_of_the_start(self):
        # at the root the pendant 3 counts as forced: it is the only
        # candidate, and the node after it dies
        X = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        assert run(_Search(X, "all", 100)) == ([], 2, False)
        assert run(ReferenceSearch(X, "all", 100)) == ([], 2, False)


class TestNodeCounts:
    """Search-node counts do not depend on the machine, so they are pinned."""

    def test_s6_orbital_scan(self):
        A = s6_on_s4_cosets().group
        tbl = suborbits(A, 0)
        triv = tbl.trivial_index()
        classes = sorted({tuple(sorted({i, tbl.pairing[i]}))
                          for i in range(len(tbl.suborbits)) if i != triv})
        nodes = []
        for r in range(1, len(classes) + 1):
            for combo in combinations(classes, r):
                og = orbital_graph(A, 0, [i for cl in combo for i in cl])
                if not og.connected:
                    continue
                res = find_hamilton_cycle(og.graph)
                assert res.status == "found"
                assert verify_hamilton(og.graph, res.certificate)
                nodes.append(res.nodes)
        assert len(nodes) == 28
        assert sum(nodes) <= 10_000 and max(nodes) <= 1_000

    def test_coxeter_none_proof(self):
        res = find_hamilton_cycle(catalog("coxeter"))
        assert res.status == "none" and res.nodes <= 1_820

    def test_long_cycle_is_linear(self):
        res = find_hamilton_cycle(catalog("circulant:5000:1"))
        assert (res.status, res.nodes) == ("found", 5000)

    def test_coxeter_cycle_nodes(self):
        res = find_hamilton_cycle(catalog("coxeter"))
        assert (res.status, res.nodes) == ("none", 1820)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_relabelled_coxeter_cycle_nodes(self, seed):
        res = find_hamilton_cycle(relabelled(catalog("coxeter"), seed))
        assert (res.status, res.nodes) == ("none", 1820)

    def test_truncated_coxeter_cycle_nodes(self):
        # the search runs on Coxeter itself
        res = find_hamilton_cycle(catalog("truncated_coxeter"))
        assert (res.status, res.nodes) == ("none", 1820)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_relabelled_truncated_coxeter_cycle_nodes(self, seed):
        X = relabelled(catalog("truncated_coxeter"), seed)
        assert find_hamilton_cycle(X).nodes == 1820

    def test_truncated_petersen_cycle_nodes(self):
        res = find_hamilton_cycle(catalog("truncated_petersen"))
        assert (res.status, res.nodes) == ("none", 32)

    @pytest.mark.parametrize("name, nodes", [("coxeter", 60),
                                             ("truncated_coxeter", 60)])
    def test_path_nodes(self, name, nodes):
        X = catalog(name)
        res = find_hamilton_path(X)
        assert (res.status, res.nodes) == ("found", nodes)
        assert verify_hamilton(X, res.certificate)

    @pytest.mark.parametrize("seed, nodes", [(1, 60), (2, 175)])
    def test_relabelled_truncated_coxeter_path_nodes(self, seed, nodes):
        # path mode runs a root at every start vertex until one succeeds
        X = relabelled(catalog("truncated_coxeter"), seed)
        res = find_hamilton_path(X)
        assert (res.status, res.nodes) == ("found", nodes)
        assert verify_hamilton(X, res.certificate)
