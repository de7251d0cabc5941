"""Permutations, permutation groups, stabilizer chains, block systems.

Permutations are 0-based image arrays acting on the right: the image of
point ``i`` under ``g`` is ``g.images[i]``, and ``(g * h)`` means "apply
``g`` first, then ``h``".  Only the ingest paths (``Perm(...)`` and
``Perm.from_images``) check that the images form a bijection; products,
inverses, identities and coset-action images are bijections by
construction and skip the check.  Groups carry a deterministic
stabilizer chain with base 0, 1, 2, ..., n-1, built once on first use by
one Schreier-Sims pass that sifts each Schreier generator once.  Orbits,
transversals and the semiregular search's first words come from one
breadth-first walk, ``_walk``; point stabilizers need no chain.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from math import gcd, lcm

from .graphs import _index

#: Seed for the randomized search for semiregular elements.
SEMIREGULAR_SEED = 1729
#: Random words tried in groups too large to scan.
SEMIREGULAR_WORDS = 10_000
SEMIREGULAR_WORD_LEN = 20
#: Groups up to this order are scanned element by element instead.
SEMIREGULAR_EXHAUSTIVE_CAP = 10**6


class NotTransitive(ValueError):
    """Operation requires a transitive group."""


class SubgroupNotContained(ValueError):
    """Supplied generators do not lie in the ambient group."""


class GroupDegreeMismatch(ValueError):
    """A generator's degree differs from the group's or the graph's."""


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def _power(x, e: int, mul, one):
    """x^e for e >= 0 by square-and-multiply: at most 2 log2(e) + 1
    products ``mul``, with no square after the top bit."""
    out = one
    while e:
        if e & 1:
            out = mul(out, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return out


@dataclass(frozen=True)
class Perm:
    """A permutation of {0, ..., n-1} stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("images are not a bijection on 0..n-1")

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Perm":
        """Wrap images known to be a bijection, without the check."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm._trusted(tuple(range(n)))

    @staticmethod
    def from_images(images) -> "Perm":
        return Perm(tuple(_index(i) for i in images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def act(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        # apply self first, then other
        o = other.images
        if len(o) != len(self.images):
            raise ValueError("product of permutations of different degrees")
        return Perm._trusted(tuple([o[i] for i in self.images]))

    def inv(self) -> "Perm":
        out = [0] * len(self.images)
        for i, j in enumerate(self.images):
            out[j] = i
        return Perm._trusted(tuple(out))

    def __pow__(self, k: int) -> "Perm":
        if k < 0:
            return self.inv() ** (-k)
        return _power(self, k, Perm.__mul__, Perm.identity(self.degree))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its minimum, sorted."""
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_lengths(self) -> list[int]:
        """Lengths of all cycles including fixed points."""
        lens = [len(c) for c in self.cycles()]
        lens += [1] * (self.degree - sum(lens))
        return sorted(lens)

    def order(self) -> int:
        return lcm(1, *(len(c) for c in self.cycles()))


def _walk(gens, v: int, value, step):
    """Yield (x, value at x) over v's orbit, breadth-first over gens.

    v gets ``value``; y = x^s, first reached from x, gets ``step(value
    at x, s)``.  A value is dropped once its children's are made."""
    seen = {v}
    queue = deque([(v, value)])
    while queue:
        x, val = queue.popleft()
        yield x, val
        for s in gens:
            y = s.images[x]
            if y not in seen:
                seen.add(y)
                queue.append((y, step(val, s)))


class _Chain:
    """Stabilizer chain with the full fixed base 0, 1, ..., n-1.

    ``trans[i]`` maps each point x of the orbit of i under the
    stabilizer of 0, ..., i-1 to an element taking i to x.  One
    Schreier-Sims pass builds it: every level keeps its own generators
    and grows its transversal in place, and each Schreier generator
    t[x] * s * t[x^s]^-1 is sifted exactly once, when its point x or
    its generator s is new at that level.  A residue that fails at
    level j joins the generators of every level from the one it came
    from down to j.
    """

    def __init__(self, degree: int, gens: list[Perm]):
        self.degree = degree
        self.trans: list[dict[int, Perm]] = [
            {i: Perm.identity(degree)} for i in range(degree)
        ]
        level_gens: list[list[Perm]] = [[] for _ in range(degree)]
        work = [(g, 0) for g in reversed(gens)]  # (element, first level)
        while work:
            g, first = work.pop()
            h, j = self.strip(g)
            if j == degree:
                continue
            for i in range(first, j + 1):
                t, s_i = self.trans[i], level_gens[i]
                s_i.append(h)
                points = list(t)
                old = len(points)
                for k, x in enumerate(points):  # grows while walked
                    for s in (s_i if k >= old else (h,)):
                        y = s.images[x]
                        ts = t[x] * s
                        if y not in t:
                            t[y] = ts
                            points.append(y)
                        elif ts != t[y]:
                            work.append((ts * t[y].inv(), i + 1))

    def strip(self, g: Perm) -> tuple[Perm, int]:
        h = g
        for i in range(self.degree):
            x = h.images[i]
            if x == i:
                continue
            if x not in self.trans[i]:
                return h, i
            h = h * self.trans[i][x].inv()
        return h, self.degree

    def order(self) -> int:
        n = 1
        for t in self.trans:
            n *= len(t)
        return n

    def contains(self, g: Perm) -> bool:
        h, _ = self.strip(g)
        return h.is_identity()

    def elements(self):
        """Iterate all group elements (product of transversals)."""
        levels = [sorted(t.items()) for t in self.trans if len(t) > 1]

        def rec(i: int):
            if i < 0:
                yield Perm.identity(self.degree)
                return
            for h in rec(i - 1):
                for _, t in levels[i]:
                    # deeper-level factors apply first (inverse of strip)
                    yield t * h

        yield from rec(len(levels) - 1)


class PermGroup:
    """Finite permutation group given by generators.

    The stabilizer chain is built lazily, exactly once, and never
    mutated afterwards; all queries are read-only.
    """

    def __init__(self, degree: int, generators):
        degree = _index(degree)
        if degree < 0:
            raise ValueError(f"group degree {degree} is negative")
        gens = [g if isinstance(g, Perm) else Perm.from_images(g)
                for g in generators]
        for g in gens:
            if g.degree != degree:
                raise GroupDegreeMismatch(
                    f"generator degree {g.degree} != {degree}")
        self.degree = degree
        self.generators = tuple(g for g in gens if not g.is_identity())
        self._chain: _Chain | None = None

    @property
    def chain(self) -> _Chain:
        if self._chain is None:
            self._chain = _Chain(self.degree, list(self.generators))
        return self._chain

    def order(self) -> int:
        return self.chain.order()

    def contains(self, g: Perm) -> bool:
        return g.degree == self.degree and self.chain.contains(g)

    def elements(self):
        yield from self.chain.elements()

    def _point(self, v) -> int:
        """v read through ``_index``; ``ValueError`` unless it is a point."""
        if not 0 <= (v := _index(v)) < self.degree:
            raise ValueError(f"point {v} is not in 0..{self.degree - 1}")
        return v

    def orbit(self, v: int) -> list[int]:
        return sorted(x for x, _ in _walk(self.generators, self._point(v),
                                          None, lambda val, s: None))

    def orbits(self) -> list[list[int]]:
        out = []
        done: set[int] = set()
        for v in range(self.degree):
            if v in done:
                continue
            o = self.orbit(v)
            done.update(o)
            out.append(o)
        return out

    def is_transitive(self) -> bool:
        return self.degree == 0 or len(self.orbit(0)) == self.degree

    def transversal_from(self, v: int) -> dict[int, Perm]:
        """BFS transversal from v over the generators; v must be a point."""
        return dict(_walk(self.generators, self._point(v),
                          Perm.identity(self.degree), Perm.__mul__))

    def random_element(self, rng: random.Random) -> Perm:
        pool = list(self.generators) + [g.inv() for g in self.generators]
        if not pool:
            return Perm.identity(self.degree)
        g = Perm.identity(self.degree)
        for _ in range(rng.randint(1, SEMIREGULAR_WORD_LEN)):
            g = g * rng.choice(pool)
        return g


def point_stabilizer(G: PermGroup, v: int) -> PermGroup:
    """Stabilizer G_v from Schreier generators; builds no chain."""
    return stabilizer_from_transversal(G, G.transversal_from(v))


def stabilizer_from_transversal(G: PermGroup,
                                t: dict[int, Perm]) -> PermGroup:
    """Stabilizer G_v, where t is a transversal of v's orbit (t[v] = 1).

    Schreier's lemma: G_v is generated by t[x] * s * t[x^s]^-1 over
    orbit points x and generators s.
    """
    schreier = dict.fromkeys(t[x] * s * t[s.images[x]].inv()
                             for x in t for s in G.generators)
    return PermGroup(G.degree, schreier)


def _block_classes(G: PermGroup, a: int, b: int) -> list[int]:
    """Class of every point in the finest G-invariant partition that puts
    a and b together (union-find refinement); a class is named by its
    least point.  For a transitive G the classes are a block system."""
    parent = list(range(G.degree))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> int | None:
        rx, ry = find(x), find(y)
        if rx == ry:
            return None
        if rx > ry:
            rx, ry = ry, rx
        parent[ry] = rx
        return ry  # the absorbed representative

    queue = [union(a, b)]
    while queue:
        q = queue.pop()
        r = find(q)
        for g in G.generators:
            absorbed = union(g.images[q], g.images[r])
            if absorbed is not None:
                queue.append(absorbed)
    return [find(x) for x in range(G.degree)]


def minimal_block(G: PermGroup, a: int, b: int) -> set[int]:
    """Smallest block of G containing {a, b}."""
    a, b = G._point(a), G._point(b)
    if not G.is_transitive():
        raise NotTransitive("minimal_block requires a transitive group")
    if a == b:
        raise ValueError("need two distinct points")
    cls = _block_classes(G, a, b)
    return {x for x, c in enumerate(cls) if c == cls[a]}


@dataclass(frozen=True)
class BlockSystem:
    """G-invariant partition into cells of equal size."""

    cells: tuple[tuple[int, ...], ...]
    cell_size: int


def block_systems(G: PermGroup) -> list[BlockSystem]:
    """Block systems of the proper blocks ``minimal_block(G, 0, b)``.

    One system per distinct block, in order of the least b giving it.
    Every minimal nontrivial system is among them, but a listed one need
    not be minimal: on Z_8 both {0, 2, 4, 6} and {0, 4} are blocks.
    """
    if not G.is_transitive():
        raise NotTransitive("block_systems requires a transitive group")
    systems: dict[tuple[tuple[int, ...], ...], BlockSystem] = {}
    for b in range(1, G.degree):
        cells: dict[int, list[int]] = {}
        for x, c in enumerate(_block_classes(G, 0, b)):
            cells.setdefault(c, []).append(x)
        if len(cells) > 1:
            # each cell is ascending and named by its least point, so
            # the cells come out sorted
            key = tuple(tuple(c) for c in cells.values())
            systems.setdefault(key, BlockSystem(key, len(key[0])))
    return list(systems.values())


def _semiregular_from(g: Perm, p: int) -> Perm | None:
    """g^(|g|/p) if it is n/p p-cycles: g^k cuts an L-cycle in gcd(L, k)."""
    lens = set(g.cycle_lengths())
    o = lcm(*lens)
    if o % p or any(L // gcd(L, o // p) != p for L in lens):
        return None
    return g ** (o // p)


def find_semiregular(G: PermGroup, p: int,
                     seed: int = SEMIREGULAR_SEED) -> Perm | None:
    """Search for an element with n/p cycles of length exactly p.

    The words of ``G.transversal_from(0)``, made lazily, come first.  On
    a miss, groups of order at most ``SEMIREGULAR_EXHAUSTIVE_CAP`` are
    scanned element by element, so ``None`` proves that no such element
    exists; larger groups get ``SEMIREGULAR_WORDS`` seeded random words,
    and ``None`` then only means none was found.  ``None`` is also
    certain when p fails to divide the degree or the group order.
    """
    if G.degree % p or not G.degree:
        return None
    for _, g in _walk(G.generators, 0, Perm.identity(G.degree),
                      Perm.__mul__):
        if (h := _semiregular_from(g, p)) is not None:
            return h
    if G.order() % p:
        return None
    if G.order() <= SEMIREGULAR_EXHAUSTIVE_CAP:
        candidates = G.elements()
    else:
        rng = random.Random(seed)
        candidates = (G.random_element(rng) for _ in range(SEMIREGULAR_WORDS))
    for g in candidates:
        if (h := _semiregular_from(g, p)) is not None:
            return h
    return None


def _semiregular_miss(G: PermGroup, p: int) -> str:
    """What a None from ``find_semiregular(G, p)`` shows: absence, unless
    the search fell back to random words."""
    if (G.degree % p or G.order() % p
            or G.order() <= SEMIREGULAR_EXHAUSTIVE_CAP):
        return "no semiregular element (proved absent)"
    return f"no semiregular element found in {SEMIREGULAR_WORDS} random words"


class CosetAction:
    """Action of a group on the right cosets of a subgroup."""

    def __init__(self, group: PermGroup, reps: list[Perm],
                 push, coset_index):
        self.group = group          # degree [G:H] permutation group
        self.reps = reps            # reps[i] represents coset H*reps[i]
        self.push = push            # Perm on n points -> Perm on cosets
        self.coset_index = coset_index  # Perm -> index of its coset

    @property
    def degree(self) -> int:
        return self.group.degree


def _min_coset_rep(Hchain: _Chain, g: Perm) -> tuple[int, ...]:
    """Lexicographically least image tuple over the coset H*g.

    Greedy descent over the full-base chain of H; exact because the
    base is 0, 1, ..., n-1 in order.
    """
    cur = g
    for i in range(Hchain.degree):
        t = Hchain.trans[i]
        if len(t) == 1:
            continue
        x = min(t, key=lambda pt: cur.images[pt])
        cur = t[x] * cur
    return cur.images


def coset_action(G: PermGroup, Hgens) -> CosetAction:
    """Transitive action of G's generators on right cosets of H = <Hgens>."""
    Hgens = [h if isinstance(h, Perm) else Perm.from_images(h) for h in Hgens]
    for h in Hgens:
        if not G.contains(h):
            raise SubgroupNotContained("subgroup generator outside the group")
    Hchain = PermGroup(G.degree, Hgens).chain

    def key(g: Perm) -> tuple[int, ...]:
        return _min_coset_rep(Hchain, g)

    reps: list[Perm] = [Perm.identity(G.degree)]
    index: dict[tuple[int, ...], int] = {key(reps[0]): 0}
    # images[j][i]: index of the coset reps[i] * G.generators[j]
    images: list[list[int]] = [[] for _ in G.generators]
    for rep in reps:  # reps grows while it is walked: breadth-first
        for g, row in zip(G.generators, images):
            cand = rep * g
            k = key(cand)
            if k not in index:
                index[k] = len(reps)
                reps.append(cand)
            row.append(index[k])

    m = len(reps)

    def push(g: Perm) -> Perm:
        return Perm._trusted(
            tuple([index[key(reps[i] * g)] for i in range(m)]))

    def coset_index(g: Perm) -> int:
        return index[key(g)]

    return CosetAction(PermGroup(m, [Perm._trusted(tuple(r))
                                     for r in images]),
                       reps, push, coset_index)
