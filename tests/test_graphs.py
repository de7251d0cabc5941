"""Graph core: validation, connectivity, girth."""

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
