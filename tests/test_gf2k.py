"""Field arithmetic, the order-(q+1) group S, and point counting."""

import itertools
import random
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hamvt.gf2k as gf2k
from hamvt.gf2k import (GF2k, DegreeOutOfRange, ReducibleQuadratic, SMatrix,
                        ZeroC, _check_s_group, _has_order, _irreducible,
                        count_eq2, field_make, quad_irreducible_m, s_group,
                        s_matrix_order, s_mul, weil_check)
from oracles import (brute_count_eq2, brute_quad_irreducible_m, brute_s_pairs,
                     quadratic_has_root, stepping_order)

F16 = field_make(4)

#: field_make(k).modulus for k = 1..16, as first computed by stepping
#: through every power of x.
MODULI = (0x3, 0x7, 0xb, 0x13, 0x25, 0x43, 0x83, 0x11d, 0x211, 0x409, 0x805,
          0x1053, 0x201b, 0x402b, 0x8003, 0x1002d)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _count_calls(name, fn):
    """Run fn() with hamvt.gf2k.<name> wrapped; return the number of calls."""
    calls = [0]
    real = getattr(gf2k, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

    with mock.patch.object(gf2k, name, counted):
        fn()
    return calls[0]


class TestFieldMake:
    def test_k1(self):
        F = field_make(1)
        assert F.q == 2 and F.theta == 1

    def test_k4_primitivity(self):
        assert F16.q == 16
        assert F16.pow(F16.theta, 15) == 1
        assert F16.pow(F16.theta, 5) != 1
        assert F16.pow(F16.theta, 3) != 1

    def test_k8(self):
        assert field_make(8).q == 256

    def test_out_of_range(self):
        with pytest.raises(DegreeOutOfRange):
            field_make(0)
        with pytest.raises(DegreeOutOfRange):
            field_make(17)

    def test_theta_order_exact(self):
        for k in (2, 3, 5, 6):
            F = field_make(k)
            seen = set()
            x = 1
            for _ in range(F.q - 1):
                seen.add(x)
                x = F.mul(x, F.theta)
            assert x == 1 and len(seen) == F.q - 1

    def test_pinned_moduli(self):
        assert tuple(field_make(k).modulus for k in range(1, 17)) == MODULI

    @pytest.mark.parametrize("k", range(1, 9))
    def test_order_helper_matches_stepping(self, k):
        F = field_make(k)
        for a in range(1, F.q):
            o = stepping_order(F, a)
            for n in _divisors(F.q - 1):
                assert _has_order(a, n, F.mul, 1) == (o == n), (a, n)

    def test_non_primitive_modulus_fails(self):
        # x^4 + x^3 + x^2 + x + 1 divides x^5 + 1, so x has order 5, not 15
        F = GF2k(4, 0x1F, 2)
        assert _irreducible(F.modulus) and stepping_order(F, 2) == 5
        assert not _has_order(2, F.q - 1, F.mul, 1)
        assert _has_order(2, 5, F.mul, 1)

    def test_field_make_product_count(self):
        # stepping through the powers of x took 87,378 products at k = 16
        assert _count_calls("_poly_mul", lambda: field_make(16)) <= 500


elem16 = st.integers(0, 15)


class TestFieldAxioms:
    @given(elem16, elem16, elem16)
    def test_mul_associative_distributive(self, a, b, c):
        assert F16.mul(F16.mul(a, b), c) == F16.mul(a, F16.mul(b, c))
        assert F16.mul(a, b ^ c) == F16.mul(a, b) ^ F16.mul(a, c)

    @given(elem16, elem16)
    def test_frobenius_additive(self, a, b):
        sq = lambda x: F16.mul(x, x)
        assert sq(a ^ b) == sq(a) ^ sq(b)

    @given(elem16.filter(bool))
    def test_inverse(self, a):
        assert F16.mul(a, F16.inv(a)) == 1

    def test_tables_consistent(self):
        exp, log = F16.tables()
        for v in range(1, 16):
            assert exp[log[v]] == v

    @pytest.mark.parametrize("k", range(1, 17))
    def test_exp_table_steps_by_theta(self, k):
        # the table is built by shifting; F.mul is the reference product
        F = field_make(k)
        exp, _ = F.tables()
        assert len(exp) == F.q - 1 and exp[0] == 1
        assert all(exp[i + 1] == F.mul(exp[i], F.theta)
                   for i in range(len(exp) - 1))
        assert F.mul(exp[-1], F.theta) == 1


class TestSGroup:
    def test_quad_irreducible(self):
        m = quad_irreducible_m(F16)
        tm = F16.theta_pow(m)
        assert all(F16.mul(x, x) ^ F16.mul(tm, x) ^ 1 != 0 for x in range(16))

    def test_identity_member(self):
        m = quad_irreducible_m(F16)
        assert SMatrix(1, 0) in s_group(F16, m)

    def test_gf16_order_17(self):
        m = quad_irreducible_m(F16)
        S = s_group(F16, m)
        assert len(S) == 17
        assert max(s_matrix_order(F16, m, s) for s in S) == 17

    def test_gf4_order_5(self):
        F4 = field_make(2)
        assert len(s_group(F4, quad_irreducible_m(F4))) == 5

    def test_reducible_rejected(self):
        # x^2 + 0*x... m such that quadratic has a root must be rejected
        found = None
        for m in range(15):
            tm = F16.theta_pow(m)
            if any(F16.mul(x, x) ^ F16.mul(tm, x) ^ 1 == 0
                   for x in range(16)):
                found = m
                break
        assert found is not None
        with pytest.raises(ReducibleQuadratic):
            s_group(F16, found)

    def test_order_of_singular_matrix(self):
        # s(a, b) is singular iff b = 0 = a or a/b is a root of
        # x^2 + theta^m x + 1; its powers never reach the identity
        with pytest.raises(ValueError, match="singular"):
            s_matrix_order(F16, quad_irreducible_m(F16), SMatrix(0, 0))
        roots = [(m, x) for m in range(15) for x in range(16)
                 if F16.mul(x, x) ^ F16.mul(F16.theta_pow(m), x) ^ 1 == 0]
        assert roots
        for (m, r), b in itertools.product(roots, (1, 5)):
            with pytest.raises(ValueError, match="singular"):
                s_matrix_order(F16, m, SMatrix(F16.mul(r, b), b))

    def test_closure_full(self):
        m = quad_irreducible_m(F16)
        S = set(s_group(F16, m))
        for x in S:
            for y in S:
                assert s_mul(F16, m, x, y) in S

    @pytest.mark.parametrize("k", (2, 4, 6))
    def test_altered_pair_not_closed(self, k):
        F = field_make(k)
        m = quad_irreducible_m(F)
        S = s_group(F, m)
        _check_s_group(F, m, S)
        for i, s in enumerate(S):
            for bad in (SMatrix(s.a ^ 1, s.b), SMatrix(s.a, s.b ^ 1)):
                if bad in S:
                    continue
                with pytest.raises(AssertionError, match="not closed"):
                    _check_s_group(F, m, S[:i] + [bad] + S[i + 1:])

    def test_missing_element_rejected(self):
        m = quad_irreducible_m(F16)
        with pytest.raises(AssertionError, match="does not have order"):
            _check_s_group(F16, m, s_group(F16, m)[1:])

    @pytest.mark.parametrize("k", range(1, 7))
    def test_order_helper_matches_s_matrix_order(self, k):
        F = field_make(k)
        m = quad_irreducible_m(F)
        mul, ident = partial(s_mul, F, m), SMatrix(1, 0)
        for s in s_group(F, m):
            o = s_matrix_order(F, m, s)
            for n in _divisors(F.q + 1):
                assert _has_order(s, n, mul, ident) == (o == n), (s, n)

    def test_s_mul_count(self):
        # 2,312 scalar products when every row was multiplied out
        F = field_make(8)
        m = quad_irreducible_m(F)
        assert _count_calls("s_mul", lambda: s_group(F, m)) <= 32

    def test_smatrix_entry_identity(self):
        m = quad_irreducible_m(F16)
        for s in s_group(F16, m):
            a, b, c, d = s.entries(F16, m)
            assert b == c and d == a ^ F16.mul(b, F16.theta_pow(m))


class TestCountEq2:
    def test_trivial_solution_always_present(self):
        m = quad_irreducible_m(F16)
        for c in range(1, 16):
            assert count_eq2(F16, m, c) >= 1

    def test_zero_c(self):
        with pytest.raises(ZeroC):
            count_eq2(F16, 1, 0)

    @pytest.mark.parametrize("c", [-1, 16, 19])
    def test_c_outside_field_rejected(self, c):
        # -1 once wrapped to the count for c = 15; 16 and 19 overran
        m = quad_irreducible_m(F16)
        with pytest.raises(ValueError, match=f"c={c} outside 1..15"):
            count_eq2(F16, m, c)

    def test_bool_c_rejected(self):
        with pytest.raises(TypeError):
            count_eq2(F16, quad_irreducible_m(F16), True)

    @pytest.mark.parametrize("m", [1.0, True])
    def test_non_integer_m_rejected(self, m):
        # a float m was a numpy IndexError, and True was read as 1
        with pytest.raises(TypeError):
            count_eq2(F16, m, 3)
        with pytest.raises(TypeError):
            s_group(F16, m)

    def test_numpy_integer_m_accepted(self):
        m = quad_irreducible_m(F16)
        assert count_eq2(F16, np.int64(m), 3) == count_eq2(F16, m, 3)
        assert s_group(F16, np.int64(m)) == s_group(F16, m)

    def test_matches_scalar_loop(self):
        m = quad_irreducible_m(F16)
        for c in (1, 3, 7):
            expected = 0
            d1 = F16.mul(c, F16.theta_pow(m))
            d2 = F16.mul(c, c)
            for a in range(16):
                for y in range(16):
                    y3 = F16.mul(F16.mul(y, y), y)
                    v = (F16.mul(a, a) ^ F16.mul(d1, F16.mul(a, y3))
                         ^ F16.mul(d2, F16.mul(y3, y3)) ^ 1)
                    expected += v == 0
            assert count_eq2(F16, m, c) == expected

    def test_cube_class_multiplicity(self):
        # solutions with y != 0 come in triples {y, wy, w^2 y}; y = 0
        # gives the one solution a = 1
        m = quad_irreducible_m(F16)
        for c in range(1, 16):
            assert count_eq2(F16, m, c) % 3 == 1


class TestCountInvariants:
    @pytest.mark.parametrize("k", range(4, 11))
    def test_constant_on_cube_classes(self, k):
        # (c, y) -> (c u^3, y / u) maps solutions onto solutions
        F = field_make(k)
        m = quad_irreducible_m(F)
        rng = random.Random(k)
        for _ in range(8):
            c, u = rng.randrange(1, F.q), rng.randrange(1, F.q)
            cu = F.mul(c, F.pow(u, 3))
            assert count_eq2(F, m, c) == count_eq2(F, m, cu)

    def test_one_count_per_class(self):
        # every c of GF(2^10), at m and at m shifted by q - 1, fills one
        # cache entry, which holds the gcd(3, 1023) = 3 class counts
        F = field_make(10)
        m = quad_irreducible_m(F)
        gf2k._class_counts.cache_clear()
        per_m = [[count_eq2(F, mm, c) for c in range(1, F.q)]
                 for mm in (m, m + F.q - 1, m - F.q + 1)]
        assert gf2k._class_counts.cache_info().misses == 1
        assert per_m[0] == per_m[1] == per_m[2]
        assert set(per_m[0]) == set(gf2k._class_counts(F, m))
        assert len(gf2k._class_counts(F, m)) == 3

    def test_single_class(self):
        # gcd(3, 2047) = 1: every c is a cube, so every count is the same
        F = field_make(11)
        m = quad_irreducible_m(F)
        counts = {count_eq2(F, m, c)
                  for c in random.Random(11).sample(range(1, F.q), 64)}
        assert len(counts) == 1 and len(gf2k._class_counts(F, m)) == 1

    @pytest.mark.parametrize("k", (12, 16))
    def test_memory_linear_in_q(self, k):
        # a q x q int64 table at k = 12 alone would be 134 MB
        F = field_make(k)
        m = quad_irreducible_m(F)
        gf2k._class_counts.cache_clear()  # a cached count allocates nothing
        tracemalloc.start()
        try:
            count_eq2(F, m, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def _oracle_ms(F):
    # m is read modulo q - 1, so q - 1, q + 4 and -1 stand for 0, 5 and q - 2
    return sorted({0, 1, F.q - 1, F.q + 4, -1}
                  | ({brute_quad_irreducible_m(F)} if F.k >= 2 else set()))


class TestOracleEquivalence:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_counts_every_c_and_flag(self, k):
        F = field_make(k)
        for m in _oracle_ms(F):
            for c in range(1, F.q):
                assert count_eq2(F, m, c) == brute_count_eq2(F, m, c), (m, c)

    @pytest.mark.parametrize("k", (7, 8))
    def test_counts_every_c_at_least_m(self, k):
        F = field_make(k)
        m = quad_irreducible_m(F)
        for c in range(1, F.q):
            assert count_eq2(F, m, c) == brute_count_eq2(F, m, c), c

    @pytest.mark.parametrize("k", (9, 10))
    def test_counts_sampled_c(self, k):
        F = field_make(k)
        m = quad_irreducible_m(F)
        for c in random.Random(k).sample(range(1, F.q), 4):
            assert count_eq2(F, m, c) == brute_count_eq2(F, m, c), c

    @pytest.mark.parametrize("k", range(1, 11))
    def test_quad_irreducible_m(self, k):
        F = field_make(k)
        assert quad_irreducible_m(F) == brute_quad_irreducible_m(F)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_s_group(self, k):
        F = field_make(k)
        for m in _oracle_ms(F):
            if quadratic_has_root(F, m):
                with pytest.raises(ReducibleQuadratic):
                    s_group(F, m)
            else:
                assert ([(s.a, s.b) for s in s_group(F, m)]
                        == brute_s_pairs(F, m)), m

    def test_s_group_least_m_k9(self):
        F = field_make(9)
        m = quad_irreducible_m(F)
        assert ([(s.a, s.b) for s in s_group(F, m)]
                == brute_s_pairs(F, m))


class TestWeil:
    def test_exact_value(self):
        assert weil_check(16, 16, 6)

    def test_boundary_d6_q484(self):
        assert weil_check(484 - 476, 484, 6)
        assert not weil_check(484 - 477, 484, 6)

    def test_non_square_q(self):
        # threshold for q=2, d=3: 2*sqrt(2)+9 ~ 11.83
        assert weil_check(2 + 11, 2, 3)
        assert not weil_check(2 + 12, 2, 3)
