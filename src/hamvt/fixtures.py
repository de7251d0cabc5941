"""Bundled permutation-group fixtures and their construction recipes.

The degree-17 fixtures act on the projective line over GF(16): points
0..15 are the field elements by bit pattern and 16 is the point at
infinity.  A matrix [[p, q], [r, s]] acts by x -> (p*x + q)/(r*x + s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .gf2k import GF2k, field_make
from .perms import CosetAction, Perm, PermGroup, coset_action
from .products import BadParams, _int_params, catalog, catalog_gens

INFINITY = 16


class UnknownFixture(KeyError):
    pass


@dataclass(frozen=True)
class Fixture:
    name: str
    payload: Any
    note: str


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


def dihedral_gens(n: int) -> list[Perm]:
    rot = Perm(tuple((i + 1) % n for i in range(n)))
    ref = Perm(tuple((-i) % n for i in range(n)))
    return [rot, ref]


def cyclic_gens(n: int) -> list[Perm]:
    return [Perm(tuple((i + 1) % n for i in range(n)))]


#: Families named ``<family>:<n>`` for n >= 1 points.
_FAMILIES = {"dihedral": dihedral_gens, "cyclic": cyclic_gens}

_BUILDERS = {
    "psl2_16_gens": lambda: Fixture(
        "psl2_16_gens", psl2_16_gens()[1],
        "degree-17 Moebius permutations ell, t, u over GF(16); "
        "group order 4080 = 16*17*15"),
    "psl2_16_h": lambda: Fixture(
        "psl2_16_h", psl2_16_h_gens(),
        "subgroup <u, t^3> of order 80; index 51"),
    "s6_on_s4_cosets": lambda: Fixture(
        "s6_on_s4_cosets", s6_on_s4_cosets(),
        "S_6 on the 30 right cosets of a natural S_4; transitive, "
        "order 720"),
    "petersen": lambda: Fixture(
        "petersen", catalog("petersen"),
        "outer 5-cycle, spokes, inner pentagram; cubic, girth 5"),
    "coxeter": lambda: Fixture(
        "coxeter", catalog("coxeter"),
        "three heptagons with steps 1, 2, 3 plus seven hubs; cubic"),
    "truncated_petersen": lambda: Fixture(
        "truncated_petersen", catalog("truncated_petersen"),
        "each Petersen vertex replaced by a triangle; 30 vertices, cubic"),
    "petersen_aut": lambda: Fixture(
        "petersen_aut", catalog_gens("petersen"),
        "generators of the full order-120 automorphism group via the "
        "disjointness labeling by 2-subsets of a 5-set"),
    "truncated_petersen_aut": lambda: Fixture(
        "truncated_petersen_aut", catalog_gens("truncated_petersen"),
        "automorphisms induced on the truncation by the Petersen "
        "generators"),
}


def fixture(name: str) -> Fixture:
    """Deterministic named fixture; see _BUILDERS and _FAMILIES.

    Raises UnknownFixture for an unknown name and BadParams for a
    family size that is missing, not an integer or below 1.
    """
    if name in _BUILDERS:
        return _BUILDERS[name]()
    base, *params = name.split(":")
    if base not in _FAMILIES:
        raise UnknownFixture(name)
    (n,) = _int_params(params, 1, base)
    if n < 1:
        raise BadParams(f"{base} needs n >= 1")
    return Fixture(name, _FAMILIES[base](n), f"{base} group on {n} points")
