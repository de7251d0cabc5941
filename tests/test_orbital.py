"""Suborbits and orbital graphs."""

import dataclasses
import gc
import weakref
from itertools import combinations

import pytest

import hamvt.orbital
from hamvt import (EmptySelection, Graph, NotTransitive, Perm, PermGroup,
                   coset_action, orbital_graph, point_stabilizer, suborbits)
from hamvt.fixtures import psl2_16_gens, psl2_16_h_gens, s6_on_s4_cosets
from hamvt.products import catalog
from oracles import naive_closure

D5 = PermGroup(5, [Perm((1, 2, 3, 4, 0)), Perm((0, 4, 3, 2, 1))])
Z6 = PermGroup(6, [Perm((1, 2, 3, 4, 5, 0))])


def _coset_action(name):
    if name == "s6_on_s4":
        return s6_on_s4_cosets()
    return coset_action(PermGroup(17, psl2_16_gens()[1]), psl2_16_h_gens())


def _group(name):
    return {"d5": D5, "z6": Z6}[name] if name in ("d5", "z6") \
        else _coset_action(name).group


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

    @pytest.mark.parametrize("index", [1.7, 1.0, True, False, "1"],
                             ids=["float", "integral_float", "true",
                                  "false", "str"])
    def test_non_integer_index_rejected(self, index):
        with pytest.raises(TypeError):
            orbital_graph(D5, 0, [index])
        with pytest.raises(TypeError):
            orbital_graph(D5, 0, [2, index])

    @pytest.mark.parametrize("point", [1.0, True])
    def test_non_integer_point_rejected(self, point):
        with pytest.raises(TypeError):
            suborbits(D5, point)
        with pytest.raises(TypeError):
            orbital_graph(D5, point, [1])

    def test_bad_point_reported_before_bad_index(self):
        with pytest.raises(ValueError, match="point 9"):
            orbital_graph(D5, 9, [1.7])

    def test_index_like_objects_accepted(self):
        class Two:
            def __index__(self):
                return 2

        assert orbital_graph(D5, 0, [Two()]).selection == (2,)

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

        def orbit(self, v):
            if self is G:  # transitivity is read off the one transversal
                calls.append(("orbit", v))
            return orig_orbit(self, v)

        orig_orbit = PermGroup.orbit
        monkeypatch.setattr(PermGroup, "transversal_from", counted)
        monkeypatch.setattr(PermGroup, "orbit", orbit)
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


def reference_orbitals(G, v):
    """Per suborbit i at v, the edges {v^g, w^g} over every element g of
    G and every w in suborbit i."""
    tbl = suborbits(G, v)
    elems = list(G.elements())
    orbitals = []
    for s in tbl.suborbits:
        edges = set()
        for g in elems:
            a = g.images[v]
            edges.update((min(a, b), max(a, b))
                         for b in (g.images[w] for w in s))
        orbitals.append(edges)
    return tbl, orbitals


def reference_graph(n, orbitals, selection):
    return Graph.from_edges(n, sorted(set().union(
        *(orbitals[i] for i in selection))))


class TestReferenceOrbitalGraphs:
    """Rows moved along the transversal give the graph that every group
    element gives."""

    @pytest.mark.parametrize("name, v", [("s6_on_s4", 0), ("s6_on_s4", 5),
                                         ("psl2_16", 0)])
    def test_every_pair_closed_selection(self, name, v):
        G = _group(name)
        tbl, orbitals = reference_orbitals(G, v)
        count = 0
        for sel in pair_closed_selections(tbl):
            og = orbital_graph(G, v, sel)
            X = reference_graph(G.degree, orbitals, sel)
            assert og.graph == X
            assert og.connected == X.is_connected()
            assert not og.symmetrized
            assert og.selection == tuple(sorted(sel))
            count += 1
        assert count == {"s6_on_s4": 31, "psl2_16": 15}[name]

    @pytest.mark.parametrize("name, v", [("s6_on_s4", 0), ("s6_on_s4", 5),
                                         ("psl2_16", 0), ("z6", 0)])
    def test_open_selection_gives_its_closure(self, name, v):
        G = _group(name)
        tbl, orbitals = reference_orbitals(G, v)
        opened = 0
        for sel in pair_closed_selections(tbl):
            for j in sel:
                partner = tbl.pairing[j]
                if partner <= j:
                    continue
                og = orbital_graph(G, v, [i for i in sel if i != partner])
                assert og.symmetrized
                assert og.selection == tuple(sorted(sel))
                assert og.graph == reference_graph(G.degree, orbitals, sel)
                opened += 1
        assert opened > 0

    @pytest.mark.parametrize("name, sel", [("d5", [1]), ("d5", [2]),
                                           ("s6_on_s4", [6]),
                                           ("s6_on_s4", [2, 3]),
                                           ("psl2_16", [1, 2])])
    def test_wrong_carried_row_rejected(self, name, sel, monkeypatch):
        # a wrong row of the right size always breaks symmetry: some z
        # in it is not a neighbour of u, and z's own row lacks u
        G = _group(name)
        X = orbital_graph(G, 0, sel).graph
        walk = hamvt.orbital._walk
        wrong = 0
        for u in range(1, G.degree):
            for donor in (0, (u + 1) % G.degree):
                if X.adj[donor] == X.adj[u]:
                    continue  # the donor's row is u's row

                def corrupt(*args, u=u, donor=donor):
                    rows = dict(walk(*args))
                    rows[u] = rows[donor]
                    return iter(rows.items())

                monkeypatch.setattr(hamvt.orbital, "_walk", corrupt)
                with pytest.raises(ValueError):
                    orbital_graph(G, 0, sel)
                wrong += 1
        assert wrong > 0


class TestPairClosedSelections:
    @pytest.mark.parametrize("name", ["d5", "z6", "s6_on_s4", "psl2_16"])
    def test_matches_plain_enumeration(self, name):
        G = _group(name)
        for v in (0, 1):
            tbl = suborbits(G, v)
            assert list(hamvt.orbital.pair_closed_selections(tbl)) == \
                list(pair_closed_selections(tbl))

    def test_counts(self):
        assert len(list(hamvt.orbital.pair_closed_selections(
            suborbits(D5, 0)))) == 3  # {1}, {2}, {1, 2}
        assert len(list(hamvt.orbital.pair_closed_selections(
            suborbits(Z6, 0)))) == 7  # classes {1, 5}, {2, 4}, {3}


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
        with pytest.raises(dataclasses.FrozenInstanceError):
            tbl.base = 1
        assert isinstance(tbl.suborbits, tuple)
        assert isinstance(tbl.pairing, tuple)

