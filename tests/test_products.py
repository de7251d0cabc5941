"""Product-model cycles, truncation, Cayley graphs and the catalog."""

import hashlib
import json
from math import gcd

import pytest

from hamvt import (BadBaseCycle, BadParams, GcdNotOne, Graph, NotCubic,
                   PermGroup, ProductModel, UnknownName, catalog,
                   catalog_gens, cayley, truncate_cubic, truncation_lift,
                   verify_hamilton, y1_cycle, y2_cycle)


def base_cycle_model(kind, t, p):
    base = catalog(f"circulant:{t}:1")
    return ProductModel(kind, base, p, tuple(range(t)))


class TestY1:
    def test_t4_p3(self):
        m = base_cycle_model("Y1", 4, 3)
        cert = y1_cycle(m)
        assert len(cert.sequence) == 12
        assert verify_hamilton(m.graph(), cert)

    def test_t5_p2(self):
        m = base_cycle_model("Y1", 5, 2)
        assert verify_hamilton(m.graph(), y1_cycle(m))

    def test_gcd_violation(self):
        with pytest.raises(GcdNotOne):
            y1_cycle(base_cycle_model("Y1", 4, 2))

    def test_bad_base_cycle(self):
        base = catalog("circulant:5:1")
        with pytest.raises(BadBaseCycle):
            ProductModel("Y1", base, 3, (0, 2, 1, 3, 4))


class TestY2:
    def test_prism_case(self):
        m = base_cycle_model("Y2", 3, 2)
        # same graph as the triangular prism, up to interleaved labels
        relabel = lambda v: 2 * v if v < 3 else 2 * (v - 3) + 1
        expected = Graph.from_edges(6, [(relabel(a), relabel(b))
                                        for a, b in catalog("prism:3").edges()])
        assert m.graph() == expected
        assert verify_hamilton(m.graph(), y2_cycle(m))

    def test_even_base(self):
        m = base_cycle_model("Y2", 4, 3)
        assert verify_hamilton(m.graph(), y2_cycle(m))

    def test_both_odd(self):
        m = base_cycle_model("Y2", 5, 3)
        assert verify_hamilton(m.graph(), y2_cycle(m))


@pytest.mark.parametrize("t", range(3, 9))
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_full_suite(t, p):
    m2 = base_cycle_model("Y2", t, p)
    assert verify_hamilton(m2.graph(), y2_cycle(m2))
    if gcd(t, p) == 1:
        m1 = base_cycle_model("Y1", t, p)
        assert verify_hamilton(m1.graph(), y1_cycle(m1))


class TestTruncation:
    def test_k4(self):
        T = truncate_cubic(catalog("complete:4"))
        assert T.n == 12
        assert all(T.degree(v) == 3 for v in range(12))

    def test_not_cubic(self):
        with pytest.raises(NotCubic):
            truncate_cubic(catalog("circulant:4:1"))

    def test_triangle_quotient_recovers_base(self):
        from hamvt.hamilton import contract_triangles
        for name in ("petersen", "complete:4", "heawood"):
            X = catalog(name)
            assert contract_triangles(truncate_cubic(X))[0] == X

    def test_connectivity_preserved(self):
        assert truncate_cubic(catalog("petersen")).is_connected()

    def test_lifted_automorphisms(self):
        X = catalog("petersen")
        T = truncate_cubic(X)
        for g in catalog_gens("petersen"):
            h = truncation_lift(X, g)
            for u, w in T.edges():
                assert T.has_edge(h.images[u], h.images[w])


class TestCatalog:
    def test_petersen(self):
        P = catalog("petersen")
        assert (P.n, P.edge_count(), P.girth()) == (10, 15, 5)

    def test_coxeter(self):
        C = catalog("coxeter")
        assert C.n == 28 and all(C.degree(v) == 3 for v in range(28))
        assert C.girth() == 7

    def test_heawood(self):
        H = catalog("heawood")
        assert H.n == 14 and all(H.degree(v) == 3 for v in range(14))
        side = {0: 0}
        frontier = [0]
        for x in frontier:  # grows while it is walked: breadth first
            for y in H.adj[x]:
                if y not in side:
                    side[y] = 1 - side[x]
                    frontier.append(y)
        assert len(side) == 14
        assert all(side[u] != side[w] for u, w in H.edges())

    def test_non_incidence(self):
        N = catalog("non_incidence_pg22")
        assert N.n == 14 and all(N.degree(v) == 4 for v in range(14))

    def test_crown(self):
        C = catalog("crown:5")
        assert C.n == 10 and all(C.degree(v) == 4 for v in range(10))

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            catalog("mystery")

    def test_bad_params(self):
        with pytest.raises(BadParams):
            catalog("crown:1")
        with pytest.raises(BadParams):
            catalog("circulant:6:6")
        with pytest.raises(BadParams):
            catalog("complete:x")

    @pytest.mark.parametrize("name", [
        "crown:1", "prism:2", "complete:0", "circulant:5", "circulant:6:0",
    ])
    def test_graph_and_gens_reject_the_same_names(self, name):
        with pytest.raises(BadParams):
            catalog(name)
        with pytest.raises(BadParams):
            catalog_gens(name)

    @pytest.mark.parametrize("name", [
        "petersen", "coxeter", "truncated_petersen", "truncated_coxeter",
        "heawood", "non_incidence_pg22", "crown:5", "circulant:12:1,3",
        "prism:6", "complete:5", "complete_bipartite:3:3",
    ])
    def test_gens_transitive_except_coxeter(self, name):
        X = catalog(name)
        G = PermGroup(X.n, catalog_gens(name))
        if name in ("coxeter", "truncated_coxeter"):
            assert G.order() == 21 and not G.is_transitive()
        else:
            assert G.is_transitive()

    @pytest.mark.parametrize("name", [
        "petersen", "truncated_petersen", "heawood", "non_incidence_pg22",
        "crown:5", "circulant:12:1,3", "prism:6", "complete:5",
        "complete_bipartite:3:3",
    ])
    def test_gens_are_transitive_automorphisms(self, name):
        X = catalog(name)
        gens = catalog_gens(name)
        for g in gens:
            for u, w in X.edges():
                assert X.has_edge(g.images[u], g.images[w])
        assert PermGroup(X.n, gens).is_transitive()

    def test_coxeter_gens_are_automorphisms(self):
        # rotation + doubling: a proper subgroup, not claimed transitive
        X = catalog("coxeter")
        for g in catalog_gens("coxeter"):
            for u, w in X.edges():
                assert X.has_edge(g.images[u], g.images[w])

    def test_petersen_group_order(self):
        assert PermGroup(10, catalog_gens("petersen")).order() == 120


def dihedral(m):
    """D_m on i + m*e for r^i s^e, where s r s = r^-1."""
    def mul(x, y):
        (e, i), (f, j) = divmod(x, m), divmod(y, m)
        return (i + (-1) ** e * j) % m + m * ((e + f) % 2)
    return mul


def cyclic_by_z2(t):
    """Z_t x Z_2 on i + t*e."""
    return lambda x, y: (x + y) % t + t * ((x // t + y // t) % 2)


#: (n, product, the generators r and s, connection sets)
CAYLEY_CASES = (
    [(f"D_{m}", 2 * m, dihedral(m), (1, m),
      [(1, m), (m, m + 1), (1, 2, m + 1), (m, m + 2, 2 * m - 1)])
     for m in range(3, 10)]
    + [(f"Z_{t}xZ_2", 2 * t, cyclic_by_z2(t), (1, t),
        [(1, t), (t + 1,), (2, t, t + 1), (1, 2 * t - 1)])
       for t in range(3, 10)])


class TestCayley:
    @pytest.mark.parametrize("name, n, mul, gens, sets", CAYLEY_CASES,
                             ids=[c[0] for c in CAYLEY_CASES])
    def test_left_regular_automorphisms(self, name, n, mul, gens, sets):
        inverse = {x: next(y for y in range(n) if mul(x, y) == 0)
                   for x in range(n)}
        for S in sets:
            X, perms = cayley(n, mul, S, gens)
            for x in range(n):
                assert set(X.adj[x]) == {mul(x, t) for s in S
                                         for t in (s, inverse[s])}
            assert all(X.preserved_by(g.images) for g in perms)
            G = PermGroup(n, perms)
            assert G.order() == n and G.is_transitive()  # regular

    @pytest.mark.parametrize("name, n, mul, gens, sets", CAYLEY_CASES,
                             ids=[c[0] for c in CAYLEY_CASES])
    def test_identity_in_connection_set_refused(self, name, n, mul, gens,
                                                sets):
        with pytest.raises(ValueError, match="loops"):
            cayley(n, mul, (1, 0), gens)

    def test_product_out_of_range_refused(self):
        with pytest.raises(ValueError, match="out of range"):
            cayley(5, lambda a, b: a + b, (1,))


#: Leading hex digits of the sha256 of the JSON of [adjacency rows,
#: generator images].  The bench inputs and the node counts pinned in
#: tests/test_hamilton.py depend on these labellings, so a change to a
#: catalog builder must keep them.
LABELLING_DIGESTS = {
    "heawood": "e46418254f5f8d1d",
    "non_incidence_pg22": "4331e0ef6a5d1af6",
    "crown:7": "e4a33160824bc902",
    "prism:7": "a06301e9deb4dc23",
    "prism:20": "649cba9506b8f69b",
    "circulant:30:1,6": "b8ed582dffc99b14",
    "circulant:60:1,6": "e2680efe1369d281",
    "complete:5": "b046921779b8b677",
}


@pytest.mark.parametrize("name", LABELLING_DIGESTS)
def test_catalog_labelling_pinned(name):
    data = json.dumps([catalog(name).adj,
                       [g.images for g in catalog_gens(name)]])
    digest = hashlib.sha256(data.encode()).hexdigest()
    assert digest[:16] == LABELLING_DIGESTS[name]
