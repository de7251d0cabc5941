"""Suborbits, orbital graphs, block quotients."""

import dataclasses
import gc
import weakref
from itertools import combinations

import pytest

import hamvt.orbital
from hamvt import (BlockSystem, EmptySelection, NotTransitive, Perm,
                   PermGroup, block_quotient, coset_action, orbital_graph,
                   point_stabilizer, suborbits)
from hamvt.fixtures import psl2_16_gens, psl2_16_h_gens, s6_on_s4_cosets
from hamvt.products import catalog
from oracles import naive_closure

D5 = PermGroup(5, [Perm((1, 2, 3, 4, 0)), Perm((0, 4, 3, 2, 1))])
Z6 = PermGroup(6, [Perm((1, 2, 3, 4, 5, 0))])


def _coset_action(name):
    if name == "s6_on_s4":
        return s6_on_s4_cosets()
    return coset_action(PermGroup(17, psl2_16_gens()[1]), psl2_16_h_gens())


class TestSuborbits:
    def test_d5(self):
        tbl = suborbits(D5, 0)
        assert tbl.suborbits == ((0,), (1, 4), (2, 3))
        assert tbl.pairing == (0, 1, 2)  # all self-paired

    def test_regular_action_singletons(self):
        tbl = suborbits(Z6, 0)
        assert tbl.lengths() == (1,) * 6
        # in a regular abelian-free sense: suborbit {k} pairs with {-k}
        for i, s in enumerate(tbl.suborbits):
            paired = tbl.suborbits[tbl.pairing[i]]
            assert paired == ((6 - s[0]) % 6,)

    def test_partition(self):
        tbl = suborbits(D5, 0)
        assert sorted(x for s in tbl.suborbits for x in s) == list(range(5))
        assert tbl.suborbits[tbl.trivial_index()] == (0,)

    def test_requires_transitive(self):
        with pytest.raises(NotTransitive):
            suborbits(PermGroup(4, [Perm((1, 0, 2, 3))]), 0)

    @pytest.mark.parametrize("name", ["s6_on_s4", "psl2_16"])
    def test_matches_fixed_point_oracle(self, name):
        # suborbits at v are the orbits of the elements fixing v
        G = _coset_action(name).group
        elems = naive_closure(G.degree, G.generators)
        for v in range(G.degree):
            stab = [g for g in elems if g.images[v] == v]
            orbits = {frozenset(g.images[w] for g in stab)
                      for w in range(G.degree)}
            assert {frozenset(s) for s in suborbits(G, v).suborbits} == orbits

    @pytest.mark.parametrize("v", [-1, 5, 9])
    def test_point_outside_group_rejected(self, v):
        with pytest.raises(ValueError):
            suborbits(D5, v)
        with pytest.raises(ValueError):
            orbital_graph(D5, v, [1])

    def test_pairing_involution_s6(self):
        from hamvt.fixtures import s6_on_s4_cosets
        tbl = suborbits(s6_on_s4_cosets().group, 0)
        assert tbl.lengths() == (1, 1, 4, 4, 4, 4, 12)
        for i, j in enumerate(tbl.pairing):
            assert tbl.pairing[j] == i


class TestOrbitalGraph:
    def test_z6_gives_c6(self):
        tbl = suborbits(Z6, 0)
        idx = tbl.index_of(1)
        og = orbital_graph(Z6, 0, [idx])
        assert og.symmetrized  # {1} pairs with {5}
        assert og.graph == catalog("circulant:6:1")

    def test_d5_gives_c5(self):
        tbl = suborbits(D5, 0)
        og = orbital_graph(D5, 0, [tbl.index_of(1)])
        assert not og.symmetrized
        assert og.graph == catalog("circulant:5:1")
        assert og.connected

    def test_empty_selection(self):
        with pytest.raises(EmptySelection):
            orbital_graph(D5, 0, [])

    def test_trivial_suborbit_rejected(self):
        tbl = suborbits(D5, 0)
        with pytest.raises(ValueError):
            orbital_graph(D5, 0, [tbl.trivial_index()])

    @pytest.mark.parametrize("index", [-1, 3, 7])
    def test_selection_outside_table_rejected(self, index):
        with pytest.raises(ValueError):
            orbital_graph(D5, 0, [index])
        with pytest.raises(ValueError):
            orbital_graph(D5, 0, [1, index])

    @pytest.mark.parametrize("name", ["s6_on_s4", "psl2_16"])
    def test_no_stabilizer_chain_built(self, name, monkeypatch):
        import hamvt.perms

        G = _coset_action(name).group

        def no_chain(*args):
            raise AssertionError("stabilizer chain built")

        monkeypatch.setattr(hamvt.perms, "_Chain", no_chain)
        assert point_stabilizer(G, 1).generators
        tbl = suborbits(G, 1)
        og = orbital_graph(G, 1, [len(tbl.suborbits) - 1])
        assert og.graph.n == G.degree

    def test_generators_are_automorphisms(self):
        for G in (D5, Z6):
            tbl = suborbits(G, 0)
            for i in range(len(tbl.suborbits)):
                if i == tbl.trivial_index():
                    continue
                X = orbital_graph(G, 0, [i]).graph
                for g in G.generators:
                    for u, w in X.edges():
                        assert X.has_edge(g.images[u], g.images[w])

    def test_one_table_and_transversal_per_call(self, monkeypatch):
        G = s6_on_s4_cosets().group
        calls = []
        orig = PermGroup.transversal_from

        def counted(self, v):
            calls.append(v)
            return orig(self, v)

        monkeypatch.setattr(PermGroup, "transversal_from", counted)
        og = orbital_graph(G, 0, [2])
        assert calls == [0]
        assert og.table == suborbits(G, 0)

    def test_valency_is_selection_length(self):
        tbl = suborbits(D5, 0)
        og = orbital_graph(D5, 0, [1, 2])
        total = sum(len(tbl.suborbits[i]) for i in og.selection)
        assert all(og.graph.degree(v) == total for v in range(5))


def pair_closed_selections(tbl):
    """Every union of pair classes of non-trivial suborbits."""
    triv = tbl.trivial_index()
    classes = sorted({tuple(sorted({i, tbl.pairing[i]}))
                      for i in range(len(tbl.suborbits)) if i != triv})
    for r in range(1, len(classes) + 1):
        for combo in combinations(classes, r):
            yield [i for cl in combo for i in cl]


class TestSuborbitMemo:
    """One table per group object and point, dropped with the group."""

    def test_repeated_call_returns_the_same_table(self):
        G = s6_on_s4_cosets().group
        assert suborbits(G, 0) is suborbits(G, 0)
        assert suborbits(G, 3) is not suborbits(G, 0)
        assert orbital_graph(G, 3, [1]).table is suborbits(G, 3)

    def test_full_scan_one_stabilizer_per_point(self, monkeypatch):
        bases = []
        orig = hamvt.orbital.stabilizer_from_transversal

        def counted(G, t):
            bases.extend(x for x, g in t.items() if g.is_identity())
            return orig(G, t)

        monkeypatch.setattr(hamvt.orbital, "stabilizer_from_transversal",
                            counted)
        A = s6_on_s4_cosets().group
        for v in (0, 5):
            connected = sum(orbital_graph(A, v, sel).connected
                            for sel in pair_closed_selections(suborbits(A, v)))
            assert connected == 28
        assert bases == [0, 5]

    def test_distinct_groups_do_not_share(self):
        G = s6_on_s4_cosets().group
        H = PermGroup(G.degree, G.generators)
        assert suborbits(G, 0) == suborbits(H, 0)
        assert suborbits(G, 0) is not suborbits(H, 0)

    def test_memo_holds_no_strong_reference(self):
        G = PermGroup(5, D5.generators)
        orbital_graph(G, 0, [1])
        ref = weakref.ref(G)
        del G
        gc.collect()
        assert ref() is None

    def test_table_is_read_only(self):
        tbl = suborbits(D5, 0)
        with pytest.raises(TypeError):
            tbl.transversal[0] = Perm.identity(5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tbl.base = 1
        assert isinstance(tbl.suborbits, tuple)
        assert isinstance(tbl.pairing, tuple)


class TestBlockQuotient:
    def test_c6_mod_antipodes(self):
        C6 = catalog("circulant:6:1")
        sys_ = BlockSystem(((0, 3), (1, 4), (2, 5)), 2)
        assert block_quotient(C6, sys_) == catalog("complete:3")

    def test_prism_triangles(self):
        PR = catalog("prism:3")
        sys_ = BlockSystem(((0, 1, 2), (3, 4, 5)), 3)
        Q = block_quotient(PR, sys_)
        assert Q.n == 2 and Q.edge_count() == 1

    def test_singletons_identity(self):
        P = catalog("petersen")
        sys_ = BlockSystem(tuple((v,) for v in range(10)), 1)
        assert block_quotient(P, sys_) == P

    def test_connected_quotient(self):
        C12 = catalog("circulant:12:1")
        sys_ = BlockSystem(tuple((i, i + 6) for i in range(6)), 2)
        assert block_quotient(C12, sys_).is_connected()
