"""Bundled permutation-group fixtures and their construction recipes.

The degree-17 fixtures act on the projective line over GF(16): points
0..15 are the field elements by bit pattern and 16 is the point at
infinity.  A matrix [[p, q], [r, s]] acts by x -> (p*x + q)/(r*x + s).
"""

from __future__ import annotations

from .gf2k import GF2k, field_make
from .perms import CosetAction, Perm, PermGroup, coset_action

INFINITY = 16


def moebius_perm(F: GF2k, mat) -> Perm:
    """Permutation of the projective line induced by a 2x2 matrix.

    Row-vector convention, [x : 1] -> [x : 1] * mat, so that the matrix
    product M then N induces the composite permutation in that order
    (the map is a homomorphism, preserving coset structure).
    """
    (p, q), (r, s) = mat
    if F.mul(p, s) ^ F.mul(q, r) == 0:
        raise ValueError("matrix is singular")
    images = []
    for x in range(F.q):
        den = F.mul(q, x) ^ s
        if den == 0:
            images.append(INFINITY)
        else:
            images.append(F.mul(F.mul(p, x) ^ r, F.inv(den)))
    images.append(INFINITY if q == 0 else F.mul(p, F.inv(q)))
    return Perm(tuple(images))


def psl2_16_gens() -> tuple[GF2k, list[Perm]]:
    """(field, [ell, t, u]) acting on the 17-point projective line.

    ell swaps 0 and infinity (x -> 1/x), t scales by theta^2 (order 15),
    u translates by 1; together they generate a group of order 4080.
    """
    F = field_make(4)
    th = F.theta
    ell = moebius_perm(F, ((0, 1), (1, 0)))
    t = moebius_perm(F, ((th, 0), (0, F.inv(th))))
    u = moebius_perm(F, ((1, 1), (0, 1)))
    return F, [ell, t, u]


def psl2_16_h_gens() -> list[Perm]:
    """Generators of the order-80 subgroup <u, t^3>."""
    _, (_, t, u) = psl2_16_gens()
    return [u, t ** 3]


def s6_gens() -> list[Perm]:
    return [Perm((1, 2, 3, 4, 5, 0)), Perm((1, 0, 2, 3, 4, 5))]


def s4_in_s6_gens() -> list[Perm]:
    """The natural S_4 on points 2..5, fixing 0 and 1."""
    return [Perm((0, 1, 3, 4, 5, 2)), Perm((0, 1, 3, 2, 4, 5))]


def s6_on_s4_cosets() -> CosetAction:
    """Degree-30 transitive action of S_6 on cosets of S_4 (order 720)."""
    G = PermGroup(6, s6_gens())
    return coset_action(G, s4_in_s6_gens())
