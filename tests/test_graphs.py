"""Graph core: validation, connectivity, girth, edge preservation."""

import random
from itertools import combinations

import pytest

from hamvt import Graph
from hamvt.products import catalog
from oracles import cell_valencies


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestGraph:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    @pytest.mark.parametrize("edge", [(0, 5), (0, 3), (-1, 0), (2, -3)])
    def test_rejects_vertex_out_of_range(self, edge):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [edge])

    @pytest.mark.parametrize("n, edges", [
        (3, [(0.7, 1), (1, 2.9)]),
        (3, [(0, 1), (1, 2.0)]),
        (3, [(True, 2)]),
        (3, [(0, False)]),
        (3.0, [(0, 1)]),
        (True, []),
    ], ids=["floats", "integral_float", "bool_u", "bool_v", "n_float",
            "n_bool"])
    def test_rejects_non_integer_endpoints(self, n, edges):
        with pytest.raises(TypeError):
            Graph.from_edges(n, edges)

    @pytest.mark.parametrize("adj", [[(1,), (0, 3), ()], [(-1, 1), (0,)],
                                     [(1, 1), (0, 0)], [(0, 1), (0,)]])
    def test_rejects_bad_rows(self, adj):
        with pytest.raises(ValueError):
            Graph(len(adj), adj)

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError):
            Graph(2, [(1,), ()])

    def test_edges_normalized(self):
        X = Graph.from_edges(3, [(2, 1), (1, 0)])
        assert X.edges() == [(0, 1), (1, 2)]
        assert X.edge_count() == 2

    def test_girth(self):
        assert cycle_graph(5).girth() == 5
        assert catalog("petersen").girth() == 5
        assert catalog("heawood").girth() == 6
        assert Graph.from_edges(4, [(0, 1), (1, 2)]).girth() is None

    def test_connectivity(self):
        assert cycle_graph(4).is_connected()
        assert not Graph.from_edges(4, [(0, 1), (2, 3)]).is_connected()


def brute_preserved_by(X, images):
    """Every edge of ``X.edges()`` maps to an edge."""
    return all(X.has_edge(images[u], images[w]) for u, w in X.edges())


@pytest.mark.parametrize("seed", range(6))
def test_preserved_by_matches_edge_loop(seed):
    rng = random.Random(seed)
    verdicts = set()
    for _ in range(60):
        n = rng.randint(1, 9)
        g = rng.sample(range(n), n)
        # a random union of <g>-orbits on pairs, so g is an automorphism
        edges = set()
        for u, w in combinations(range(n), 2):
            if rng.random() < 0.3:
                while (min(u, w), max(u, w)) not in edges:
                    edges.add((min(u, w), max(u, w)))
                    u, w = g[u], g[w]
        X = Graph.from_edges(n, sorted(edges))
        h = list(g)  # g with two images swapped: rarely an automorphism
        i, j = rng.randrange(n), rng.randrange(n)
        h[i], h[j] = h[j], h[i]
        for images in (g, h, rng.sample(range(n), n)):
            want = brute_preserved_by(X, images)
            assert X.preserved_by(tuple(images)) is want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_semiregular_orbit_partition_always_equitable():
    from hamvt import decompose, find_semiregular, PermGroup
    from hamvt.products import catalog_gens
    for name, p in [("circulant:12:1,3", 3), ("prism:5", 5),
                    ("crown:5", 5), ("petersen", 5)]:
        X = catalog(name)
        G = PermGroup(X.n, catalog_gens(name))
        rho = find_semiregular(G, p)
        assert rho is not None, name
        dec = decompose(X, rho, p)
        assert cell_valencies(X, dec.cells) is not None, name
