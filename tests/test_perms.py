"""Permutation and group machinery against naive oracles."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hamvt import (GroupDegreeMismatch, MalformedInput, NotTransitive, Perm,
                   PermGroup, SubgroupNotContained, block_systems, coset_action,
                   find_semiregular, group_from_json, minimal_block,
                   point_stabilizer)
from hamvt.perms import _min_coset_rep
from hamvt.pipeline import parse_cycle_notation
from oracles import (brute_semiregular, enumerated_coset_key,
                     naive_block_systems, naive_closure, naive_minimal_block)


def perm_st(n):
    return st.permutations(range(n)).map(lambda p: Perm(tuple(p)))


class TestPerm:
    def test_identity_order(self):
        assert Perm.identity(5).order() == 1

    def test_six_cycle(self):
        assert Perm((1, 2, 3, 4, 5, 0)).order() == 6

    def test_mixed_cycle_type(self):
        g = Perm((1, 0, 3, 4, 2))  # (0 1)(2 3 4)
        assert g.order() == 6
        h = Perm.identity(5)
        for _ in range(6):
            h = h * g
        assert h.is_identity()

    def test_composition_is_apply_left_then_right(self):
        g = Perm((1, 2, 0))  # 0->1
        h = Perm((0, 2, 1))  # 1->2
        assert (g * h).act(0) == 2

    def test_bad_images_rejected(self):
        with pytest.raises(ValueError):
            Perm((0, 0, 1))

    @given(perm_st(6), perm_st(6), perm_st(6))
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(perm_st(6))
    def test_inverse(self, a):
        assert (a * a.inv()).is_identity()
        assert (a.inv() * a).is_identity()

    @given(perm_st(7), st.integers(-10, 10))
    def test_power_matches_repeated_product(self, a, k):
        expected = Perm.identity(7)
        step = a if k >= 0 else a.inv()
        for _ in range(abs(k)):
            expected = expected * step
        assert a ** k == expected

    @given(perm_st(8))
    def test_order_annihilates(self, a):
        assert (a ** a.order()).is_identity()
        for d in range(1, a.order()):
            if a.order() % d == 0:
                assert not (a ** d).is_identity() or d == a.order()


def checked_product(a: Perm, b: Perm) -> Perm:
    return Perm(tuple(b.images[i] for i in a.images))


class TestUncheckedProducts:
    """Only the ingest paths check for a bijection; products do not."""

    def test_ingest_paths_reject_non_bijections(self):
        with pytest.raises(ValueError):
            Perm((0, 0))
        with pytest.raises(ValueError):
            Perm.from_images([1, 1])
        with pytest.raises(MalformedInput):
            parse_cycle_notation("(0 0)", 3)
        with pytest.raises(MalformedInput):
            group_from_json({"degree": 2, "generators": [[1, 1]]})

    @pytest.mark.parametrize("n", [0, 1])
    def test_degree_zero_and_one(self, n):
        e = Perm.identity(n)
        assert e == Perm(tuple(range(n)))
        assert e * e == e and e.inv() == e
        assert e ** 0 == e and e ** 5 == e and e ** -3 == e
        assert (e * e.inv()).is_identity() and e.order() == 1

    def test_different_degrees_rejected(self):
        with pytest.raises(ValueError):
            Perm((1, 0)) * Perm((0, 2, 1))
        with pytest.raises(ValueError):
            Perm((0, 2, 1)) * Perm((1, 0))

    def test_match_checked_construction(self):
        rng = random.Random(2009)
        for _ in range(200):
            n = rng.randint(1, 60)
            a = Perm(tuple(rng.sample(range(n), n)))
            b = Perm(tuple(rng.sample(range(n), n)))
            k = rng.randint(-12, 12)
            inv = [0] * n
            for i, j in enumerate(a.images):
                inv[j] = i
            a_inv = Perm(tuple(inv))
            power = Perm(tuple(range(n)))
            for _ in range(abs(k)):
                power = checked_product(power, a if k >= 0 else a_inv)
            for got, want in ((a * b, checked_product(a, b)),
                              (a.inv(), a_inv), (a ** k, power)):
                assert got == want and hash(got) == hash(want)
                assert type(got.images) is tuple


SMALL_GROUPS = {
    "Z6": (6, [Perm((1, 2, 3, 4, 5, 0))]),
    "S4": (4, [Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))]),
    "D5": (5, [Perm((1, 2, 3, 4, 0)), Perm((0, 4, 3, 2, 1))]),
    "Z10": (10, [Perm(tuple((i + 1) % 10 for i in range(10)))]),
    "D6": (6, [Perm((1, 2, 3, 4, 5, 0)), Perm((0, 5, 4, 3, 2, 1))]),
    "V4": (4, [Perm((1, 0, 3, 2)), Perm((2, 3, 0, 1))]),
    "S3xS3_diag": (6, [Perm((1, 2, 0, 4, 5, 3)), Perm((1, 0, 2, 4, 3, 5))]),
}


class TestGroup:
    @pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
    def test_order_matches_naive_closure(self, name):
        n, gens = SMALL_GROUPS[name]
        G = PermGroup(n, gens)
        assert G.order() == len(naive_closure(n, gens))

    @pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
    def test_membership_matches_naive_closure(self, name):
        n, gens = SMALL_GROUPS[name]
        G = PermGroup(n, gens)
        elems = naive_closure(n, gens)
        assert set(G.elements()) == elems
        rng = random.Random(7)
        for _ in range(20):
            images = list(range(n))
            rng.shuffle(images)
            g = Perm(tuple(images))
            assert G.contains(g) == (g in elems)

    def test_known_orders(self):
        assert PermGroup(6, [Perm((1, 2, 3, 4, 5, 0))]).order() == 6
        assert PermGroup(
            5, [Perm((1, 2, 3, 4, 0)), Perm((0, 4, 3, 2, 1))]).order() == 10
        assert PermGroup(
            4, [Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))]).order() == 24

    def test_orbits(self):
        assert PermGroup(6, [Perm((1, 2, 3, 4, 5, 0))]).orbits() == [
            list(range(6))]
        assert PermGroup(6, []).orbits() == [[i] for i in range(6)]
        assert PermGroup(6, [Perm((1, 0, 3, 2, 5, 4))]).orbits() == [
            [0, 1], [2, 3], [4, 5]]

    @pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
    def test_orbit_stabilizer_identity(self, name):
        n, gens = SMALL_GROUPS[name]
        G = PermGroup(n, gens)
        for v in range(n):
            stab = point_stabilizer(G, v)
            assert all(g.images[v] == v for g in stab.generators)
            assert stab.order() * len(G.orbit(v)) == G.order()

    def test_point_stabilizer_examples(self):
        S4 = PermGroup(4, [Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))])
        assert point_stabilizer(S4, 0).order() == 6
        Z5 = PermGroup(5, [Perm((1, 2, 3, 4, 0))])
        assert point_stabilizer(Z5, 0).order() == 1
        D5 = PermGroup(5, [Perm((1, 2, 3, 4, 0)), Perm((0, 4, 3, 2, 1))])
        stab = point_stabilizer(D5, 0)
        assert stab.order() == 2
        assert stab.contains(Perm((0, 4, 3, 2, 1)))

    @pytest.mark.parametrize("v", [-1, 5, 9, True])
    def test_point_outside_group_rejected(self, v):
        # a bool is not read as an index, as everywhere else
        error = TypeError if isinstance(v, bool) else ValueError
        D5 = PermGroup(5, [Perm((1, 2, 3, 4, 0)), Perm((0, 4, 3, 2, 1))])
        for G in (D5, PermGroup(5, [])):
            with pytest.raises(error):
                G.orbit(v)
            with pytest.raises(error):
                G.transversal_from(v)
        with pytest.raises(error):
            point_stabilizer(D5, v)

    def test_generator_degree_mismatch(self):
        from hamvt import pipeline
        with pytest.raises(GroupDegreeMismatch):
            PermGroup(4, [Perm.identity(3)])
        with pytest.raises(GroupDegreeMismatch):
            PermGroup(3, [[1, 2, 0], [1, 0, 2, 3]])
        assert pipeline.GroupDegreeMismatch is GroupDegreeMismatch
        assert issubclass(GroupDegreeMismatch, ValueError)


class TestChain:
    @pytest.mark.parametrize("seed", range(24))
    def test_random_two_generator_group_matches_naive_closure(self, seed):
        rng = random.Random(seed)
        n = 2 + seed % 7  # degrees 2..8
        gens = []
        for _ in range(2):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(Perm(tuple(images)))
        G = PermGroup(n, gens)
        elems = naive_closure(n, gens)
        listed = list(G.elements())
        assert len(listed) == len(elems) == G.order()
        assert set(listed) == elems
        for _ in range(20):
            images = list(range(n))
            rng.shuffle(images)
            g = Perm(tuple(images))
            assert G.contains(g) == (g in elems)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_symmetric_group_order(self, n):
        from math import factorial

        from hamvt import catalog_gens
        assert PermGroup(n, catalog_gens(f"complete:{n}")).order() == \
            factorial(n)

    def test_psl2_16_chain_sifts_each_schreier_generator_once(
            self, monkeypatch):
        from hamvt import fixtures
        from hamvt.perms import _Chain
        act = coset_action(PermGroup(17, fixtures.psl2_16_gens()[1]),
                           fixtures.psl2_16_h_gens())
        calls = [0]
        mul = Perm.__mul__

        def counted(a, b):
            calls[0] += 1
            return mul(a, b)

        monkeypatch.setattr(Perm, "__mul__", counted)
        chain = _Chain(act.degree, list(act.group.generators))
        assert chain.order() == 4080
        assert calls[0] <= 800


class TestBlocks:
    def test_minimal_block_examples(self):
        Z6 = PermGroup(6, [Perm((1, 2, 3, 4, 5, 0))])
        assert minimal_block(Z6, 0, 3) == {0, 3}
        assert minimal_block(Z6, 0, 2) == {0, 2, 4}
        Z5 = PermGroup(5, [Perm((1, 2, 3, 4, 0))])
        assert minimal_block(Z5, 0, 1) == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("a, b", [(0, -1), (0, 9), (-6, 0), (6, 1)])
    def test_points_out_of_range(self, a, b):
        Z6 = PermGroup(6, [Perm((1, 2, 3, 4, 5, 0))])
        bad = a if not 0 <= a < 6 else b
        with pytest.raises(ValueError, match=f"point {bad} is not in 0..5"):
            minimal_block(Z6, a, b)

    @pytest.mark.parametrize("a, b", [(True, 4), (0, 2.0)])
    def test_points_must_be_integers(self, a, b):
        Z6 = PermGroup(6, [Perm((1, 2, 3, 4, 5, 0))])
        with pytest.raises(TypeError, match="not an index|integer"):
            minimal_block(Z6, a, b)

    def test_requires_transitive(self):
        with pytest.raises(NotTransitive):
            minimal_block(PermGroup(4, [Perm((1, 0, 2, 3))]), 0, 2)

    @pytest.mark.parametrize("name", ["Z6", "D5", "Z10", "D6", "V4", "S4"])
    def test_matches_subset_oracle(self, name):
        n, gens = SMALL_GROUPS[name]
        G = PermGroup(n, gens)
        for b in range(1, n):
            assert minimal_block(G, 0, b) == naive_minimal_block(n, gens, 0, b)

    def test_block_systems_z6(self):
        Z6 = PermGroup(6, [Perm((1, 2, 3, 4, 5, 0))])
        sizes = sorted(s.cell_size for s in block_systems(Z6))
        assert sizes == [2, 3]
        for system in block_systems(Z6):
            for g in Z6.generators:
                for cell in system.cells:
                    img = tuple(sorted(g.images[x] for x in cell))
                    assert img in system.cells

    def test_block_systems_are_not_only_minimal(self):
        # {0, 4} is a block inside the block {0, 2, 4, 6}; both are listed
        Z8 = PermGroup(8, [Perm(tuple((i + 1) % 8 for i in range(8)))])
        systems = block_systems(Z8)
        assert [s.cell_size for s in systems] == [4, 2]
        assert systems[0].cells == ((0, 2, 4, 6), (1, 3, 5, 7))
        assert systems[1].cells == ((0, 4), (1, 5), (2, 6), (3, 7))

    def test_block_systems_primitive(self):
        Z5 = PermGroup(5, [Perm((1, 2, 3, 4, 0))])
        assert block_systems(Z5) == []
        S4 = PermGroup(4, [Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))])
        assert block_systems(S4) == []


class TestSemiregular:
    def test_power_of_full_cycle(self):
        Z10 = PermGroup(10, [Perm(tuple((i + 1) % 10 for i in range(10)))])
        g = find_semiregular(Z10, 5)
        assert g is not None and g.cycle_lengths() == [5, 5]

    def test_petersen_group(self):
        from hamvt import catalog_gens
        G = PermGroup(10, catalog_gens("petersen"))
        g = find_semiregular(G, 5)
        assert g is not None and g.cycle_lengths() == [5, 5]

    def test_none_when_p_misses_order(self):
        S3 = PermGroup(3, [Perm((1, 0, 2)), Perm((1, 2, 0))])
        assert find_semiregular(S3, 5) is None

    @pytest.mark.parametrize("name", ["petersen", "truncated_petersen"])
    def test_small_group_is_scanned_not_sampled(self, name, monkeypatch):
        from hamvt import catalog_gens

        def no_words(self, rng):
            raise AssertionError("random word drawn for a scannable group")

        monkeypatch.setattr(PermGroup, "random_element", no_words)
        G = PermGroup(10 if name == "petersen" else 30, catalog_gens(name))
        # every involution of S_5 fixes a vertex of both graphs
        assert find_semiregular(G, 2) is None

    def test_output_always_semiregular(self):
        for name, (n, gens) in SMALL_GROUPS.items():
            G = PermGroup(n, gens)
            for p in (2, 3, 5):
                g = find_semiregular(G, p)
                if g is not None:
                    assert sorted(len(c) for c in g.cycles()) == \
                        [p] * (n // p), name


ORACLE_CATALOG = ("petersen", "coxeter", "truncated_petersen",
                  "truncated_coxeter", "heawood", "non_incidence_pg22",
                  "crown:5", "prism:7", "prism:20", "circulant:30:1,6",
                  "circulant:60:1,6", "complete:5", "complete_bipartite:3:3")


def _oracle_groups():
    from hamvt import catalog, catalog_gens
    from hamvt.fixtures import psl2_16_gens, psl2_16_h_gens
    out = dict(SMALL_GROUPS)
    for name in ORACLE_CATALOG:
        out[name] = (catalog(name).n, catalog_gens(name))
    A = coset_action(PermGroup(17, psl2_16_gens()[1]),
                     psl2_16_h_gens()).group
    out["PSL(2,16)/51"] = (51, A.generators)
    out["degree 0"] = (0, [])
    out["no generators"] = (6, [])
    return out


ORACLE_GROUPS = _oracle_groups()


class TestOrbitWalk:
    """One breadth-first walk serves orbits, transversals and the first
    words of the semiregular search."""

    @pytest.mark.parametrize("name", list(ORACLE_GROUPS))
    def test_transversal_matches_stored_bfs(self, name):
        from oracles import bfs_transversal
        n, gens = ORACLE_GROUPS[name]
        G = PermGroup(n, gens)
        for v in sorted({0, n // 2, n - 1}) if n else []:
            want = bfs_transversal(n, G.generators, v)
            assert list(G.transversal_from(v).items()) == list(want.items())
            assert G.orbit(v) == sorted(want)

    @pytest.mark.parametrize("name", list(ORACLE_GROUPS))
    def test_semiregular_is_first_hit_among_bfs_words(self, name):
        from hamvt.perms import _semiregular_from
        from oracles import bfs_transversal
        n, gens = ORACLE_GROUPS[name]
        G = PermGroup(n, gens)
        for p in (2, 3, 5, 17):
            if n % p or not n:
                continue
            hits = [h for g in bfs_transversal(n, G.generators, 0).values()
                    if (h := _semiregular_from(g, p)) is not None]
            if hits:
                assert find_semiregular(G, p) == hits[0], (name, p)

    def test_second_word_hit_makes_few_products(self, monkeypatch):
        # the whole transversal of a 3000-cycle would be 2999 products
        n = 3000
        r = Perm(tuple((i + 1) % n for i in range(n)))
        f = Perm(tuple(-i % n for i in range(n)))
        G = PermGroup(n, [r, f])
        calls = [0]
        mul = Perm.__mul__

        def counted(a, b):
            calls[0] += 1
            return mul(a, b)

        monkeypatch.setattr(Perm, "__mul__", counted)
        g = find_semiregular(G, 3)
        monkeypatch.undo()
        assert g == r ** (n // 3)
        # the walk's products, then r^1000 by repeated squaring
        assert calls[0] <= len(G.generators) + 2 * n.bit_length()


class TestBlockSystemsOracle:
    """``block_systems`` against the image orbits of subset-oracle blocks."""

    @pytest.mark.parametrize("name", [name for name, (n, _) in
                                      ORACLE_GROUPS.items() if n <= 14])
    def test_matches_image_orbits(self, name):
        n, gens = ORACLE_GROUPS[name]
        G = PermGroup(n, gens)
        if not G.is_transitive():
            with pytest.raises(NotTransitive):
                block_systems(G)
            return
        systems = block_systems(G)
        assert [s.cells for s in systems] == naive_block_systems(n, gens)
        assert all(s.cell_size == len(s.cells[0]) for s in systems)


class TestSemiregularOracle:
    """``find_semiregular`` against a scan of every element."""

    @pytest.mark.parametrize("name", list(ORACLE_GROUPS))
    def test_none_exactly_when_brute_scan_finds_none(self, name):
        n, gens = ORACLE_GROUPS[name]
        G = PermGroup(n, gens)
        primes = [p for p in range(2, n + 1)
                  if n % p == 0 and all(p % d for d in range(2, p))]
        for p in primes or [2, 3]:  # degree 0 has no prime divisor
            got = find_semiregular(G, p)
            brute = brute_semiregular(n, gens, p)
            assert (got is None) == (not brute), (name, p)
            if got is not None:
                assert got in brute and G.contains(got), (name, p)


class TestCosetAction:
    def test_stabilizer_cosets_recover_natural_action(self):
        S4 = PermGroup(4, [Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))])
        stab = point_stabilizer(S4, 0)
        act = coset_action(S4, list(stab.generators))
        assert act.degree == 4
        assert act.group.order() == 24
        assert act.group.is_transitive()

    def test_s6_on_s4(self):
        from hamvt.fixtures import s6_on_s4_cosets
        act = s6_on_s4_cosets()
        assert act.degree == 30
        assert act.group.order() == 720
        assert act.group.is_transitive()

    def test_stabilizer_of_trivial_coset_is_h(self):
        S4 = PermGroup(4, [Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))])
        Hgens = [Perm((0, 2, 1, 3)), Perm((0, 2, 3, 1))]  # S_3 on 1,2,3
        act = coset_action(S4, Hgens)
        assert act.degree == 4
        stab = point_stabilizer(act.group, 0)
        assert stab.order() == PermGroup(4, Hgens).order()

    def test_subgroup_not_contained(self):
        Z5 = PermGroup(5, [Perm((1, 2, 3, 4, 0))])
        with pytest.raises(SubgroupNotContained):
            coset_action(Z5, [Perm((0, 2, 1, 3, 4))])

    @pytest.mark.parametrize("fixture", ["s6_on_s4", "psl2_16"])
    def test_chain_key_matches_enumerated_key(self, fixture):
        from hamvt import fixtures
        if fixture == "s6_on_s4":
            G = PermGroup(6, fixtures.s6_gens())
            Hgens = fixtures.s4_in_s6_gens()
        else:
            G = PermGroup(17, fixtures.psl2_16_gens()[1])
            Hgens = fixtures.psl2_16_h_gens()
        H = PermGroup(G.degree, Hgens)
        helems = list(H.elements())
        rng = random.Random(5)
        for _ in range(40):
            g = G.random_element(rng)
            assert _min_coset_rep(H.chain, g) == \
                enumerated_coset_key(helems, g)

    def test_push_is_homomorphism(self):
        S4 = PermGroup(4, [Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))])
        Hgens = [Perm((0, 2, 1, 3))]
        act = coset_action(S4, Hgens)
        rng = random.Random(3)
        elems = list(S4.elements())
        for _ in range(25):
            g, h = rng.choice(elems), rng.choice(elems)
            assert act.push(g * h) == act.push(g) * act.push(h)
