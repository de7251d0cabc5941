"""Bundled fixtures satisfy their provenance assertions."""

from hamvt import PermGroup, catalog, catalog_gens
from hamvt.fixtures import (INFINITY, moebius_perm, psl2_16_gens,
                            psl2_16_h_gens, s6_on_s4_cosets)


class TestPsl216:
    def test_group_order(self):
        _, gens = psl2_16_gens()
        G = PermGroup(17, gens)
        assert G.order() == 4080  # 16 * 17 * 15
        assert G.is_transitive()

    def test_generator_shapes(self):
        F, (ell, t, u) = psl2_16_gens()
        assert ell.order() == 2
        assert ell.images[0] == INFINITY and ell.images[INFINITY] == 0
        assert t.order() == 15
        assert t.images[0] == 0 and t.images[INFINITY] == INFINITY
        assert u.order() == 2

    def test_conjugation_inverts_t(self):
        _, (ell, t, u) = psl2_16_gens()
        assert ell * t * ell == t.inv()

    def test_h_subgroup(self):
        gens = psl2_16_h_gens()
        H = PermGroup(17, gens)
        assert H.order() == 80

    def test_moebius_is_homomorphism(self):
        import random
        F, _ = psl2_16_gens()
        rng = random.Random(5)
        for _ in range(20):
            while True:
                M = [[rng.randrange(16) for _ in range(2)] for _ in range(2)]
                N = [[rng.randrange(16) for _ in range(2)] for _ in range(2)]
                d1 = F.mul(M[0][0], M[1][1]) ^ F.mul(M[0][1], M[1][0])
                d2 = F.mul(N[0][0], N[1][1]) ^ F.mul(N[0][1], N[1][0])
                if d1 and d2:
                    break
            MN = [[F.mul(M[0][0], N[0][0]) ^ F.mul(M[0][1], N[1][0]),
                   F.mul(M[0][0], N[0][1]) ^ F.mul(M[0][1], N[1][1])],
                  [F.mul(M[1][0], N[0][0]) ^ F.mul(M[1][1], N[1][0]),
                   F.mul(M[1][0], N[0][1]) ^ F.mul(M[1][1], N[1][1])]]
            assert moebius_perm(F, M) * moebius_perm(F, N) == \
                moebius_perm(F, MN)


class TestInventory:
    def test_s6_on_s4(self):
        act = s6_on_s4_cosets()
        assert act.degree == 30
        assert act.group.order() == 720

    def test_truncated_petersen(self):
        X = catalog("truncated_petersen")
        assert X.n == 30 and all(X.degree(v) == 3 for v in range(30))

    def test_petersen_aut(self):
        gens = catalog_gens("petersen")
        assert PermGroup(10, gens).order() == 120
