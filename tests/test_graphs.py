"""Graph core: validation, reports, quotient multigraphs."""

import pytest

from hamvt import Graph, NotEquitable, quotient_multigraph, structure_report
from hamvt.products import catalog


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


class TestStructureReport:
    def test_petersen(self):
        rep = structure_report(catalog("petersen"))
        assert rep.connected and rep.two_connected
        assert rep.regular == 3 and not rep.bipartite

    def test_path(self):
        rep = structure_report(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        assert rep.connected and not rep.two_connected
        assert rep.regular is None and rep.bipartite

    def test_two_triangles(self):
        rep = structure_report(
            Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                 (3, 4), (4, 5), (3, 5)]))
        assert not rep.connected and not rep.two_connected

    def test_cut_vertex(self):
        bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2),
                                      (2, 3), (3, 4), (2, 4)])
        assert not structure_report(bowtie).two_connected


class TestQuotientMulti:
    def test_petersen_semiregular_orbits(self):
        P = catalog("petersen")
        qm = quotient_multigraph(P, [list(range(5)), list(range(5, 10))])
        assert qm.internal == (2, 2)
        assert qm.cross[0][1] == 1
        assert qm.simple().edge_count() == 1

    def test_c6_parity_cells(self):
        qm = quotient_multigraph(cycle_graph(6), [[0, 2, 4], [1, 3, 5]])
        assert qm.internal == (0, 0)
        assert qm.cross[0][1] == 2

    def test_not_equitable(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(NotEquitable):
            quotient_multigraph(star, [[0, 1], [2, 3]])

    def test_must_partition(self):
        with pytest.raises(ValueError):
            quotient_multigraph(cycle_graph(4), [[0, 1], [1, 2, 3]])

    def test_edge_count_conservation(self):
        P = catalog("petersen")
        cells = [list(range(5)), list(range(5, 10))]
        qm = quotient_multigraph(P, cells)
        total = sum(len(c) * qm.internal[i] for i, c in enumerate(cells)) // 2
        total += sum(len(cells[i]) * qm.cross[i][j]
                     for i in range(2) for j in range(i + 1, 2))
        assert total == P.edge_count()

    def test_connected_quotient_of_connected_graph(self):
        C12 = cycle_graph(12)
        qm = quotient_multigraph(C12, [[i, i + 6] for i in range(6)])
        assert qm.simple().is_connected()


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
        quotient_multigraph(X, [list(c) for c in dec.cells])  # must not raise
