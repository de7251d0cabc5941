"""Binary fields GF(2^k), the order-(q+1) matrix group S, and point counts.

Elements are k-bit integers in the polynomial basis.  The modulus is the
lexicographically least irreducible degree-k polynomial whose class of x
is primitive, and theta is that class, so every downstream constant is
deterministic.  numpy is imported inside the functions that use it, so
importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from math import isqrt
from typing import TYPE_CHECKING

from .graphs import _index
from .perms import _power, _prime_divisors

if TYPE_CHECKING:
    import numpy as np


class DegreeOutOfRange(ValueError):
    """Supported extension degrees are 1..16."""


class ReducibleQuadratic(ValueError):
    """x^2 + theta^m x + 1 has a root in the field."""


class ZeroC(ValueError):
    """The curve parameter c must be nonzero."""


def _poly_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _poly_mod(a: int, mod: int) -> int:
    dm = mod.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def _irreducible(f: int) -> bool:
    k = f.bit_length() - 1
    return all(_poly_mod(f, g) for g in range(2, 1 << (k // 2 + 1)))


@dataclass(frozen=True)
class GF2k:
    """GF(2^k) with designated primitive element theta (the class of x)."""

    k: int
    modulus: int
    theta: int

    @property
    def q(self) -> int:
        return 1 << self.k

    def mul(self, a: int, b: int) -> int:
        return _poly_mod(_poly_mul(a, b), self.modulus)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e > 0 else 1
        return _power(a, e % (self.q - 1 or 1), self.mul, 1)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.q - 2)

    def theta_pow(self, m: int) -> int:
        return self.pow(self.theta, m % (self.q - 1 or 1))

    def tables(self) -> tuple[list[int], list[int]]:
        """(exp, log): exp[i] = theta^i, log[exp[i]] = i, log[0] = -1."""
        exp, log, _ = _tables(self)
        return exp.tolist(), log.tolist()


@cache
def _tables(F: GF2k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only int64 (exp, log, trace) of F, built once per field.

    exp has q - 1 entries and log[0] = -1 as in ``GF2k.tables``;
    trace[a] = a + a^2 + a^4 + ... + a^(2^(k-1)), which is 0 or 1.
    """
    import numpy as np
    q1 = F.q - 1
    # theta = x for k >= 2: times x is a shift, reduced by the modulus
    # when degree k appears; at k = 1 (theta = 1) the loop does not run
    exp = [1]
    for _ in range(q1 - 1):
        a = exp[-1] << 1
        exp.append(a ^ F.modulus if a & F.q else a)
    exp = np.array(exp, dtype=np.int64)
    log = np.full(F.q, -1, dtype=np.int64)
    log[exp] = np.arange(q1)
    # Tr(theta^i) = XOR over j < k of theta^(i 2^j), for every i at once
    idx = np.arange(q1, dtype=np.int64)
    acc = np.zeros(q1, dtype=np.int64)
    for j in range(F.k):
        acc ^= exp[(idx << j) % q1]
    if not np.all((acc == 0) | (acc == 1)):
        raise AssertionError("trace is not in the prime field")
    trace = np.zeros(F.q, dtype=np.int64)
    trace[exp] = acc
    for arr in (exp, log, trace):
        arr.setflags(write=False)
    return exp, log, trace


def _has_order(x, n: int, mul, one) -> bool:
    """Whether x has order exactly n: x^n = one and x^(n/r) != one for
    every prime r dividing n, each power by ``_power``, so O(log n)
    products per prime divisor."""
    return _power(x, n, mul, one) == one and all(
        _power(x, n // r, mul, one) != one for r in _prime_divisors(n))


def field_make(k: int) -> GF2k:
    """Deterministic GF(2^k); see module docstring for the convention.

    Primitivity check: x has order q - 1 by ``_has_order``, O(k) products
    per prime divisor of q - 1 (161 products in all at k = 16).
    """
    if not 1 <= k <= 16:
        raise DegreeOutOfRange(f"k={k} outside 1..16")
    if k == 1:
        return GF2k(1, 0b11, 1)
    for f in range(1 << k | 1, 1 << (k + 1), 2):
        F = GF2k(k, f, 2)
        if _irreducible(f) and _has_order(2, F.q - 1, F.mul, 1):
            return F
    raise AssertionError("no primitive modulus found")


def _trace_of_theta_pow(F: GF2k, e) -> np.ndarray:
    """Tr(theta^e), elementwise over an integer array of exponents."""
    import numpy as np
    exp, _, trace = _tables(F)
    return trace[exp[np.asarray(e) % (F.q - 1)]]


def quad_irreducible_m(F: GF2k) -> int:
    """Least m with x^2 + theta^m x + 1 rootless over F.

    x^2 + bx + 1 (b != 0) becomes z^2 + z = 1/b^2 under x = bz, which
    has no root exactly when Tr(1/b^2) = 1.
    """
    import numpy as np
    ms = np.arange(F.q - 1)
    hits = np.flatnonzero(_trace_of_theta_pow(F, -2 * ms))
    if not hits.size:
        raise AssertionError("no irreducible quadratic x^2 + theta^m x + 1")
    return int(hits[0])


@dataclass(frozen=True)
class SMatrix:
    """The matrix s(a, b) = [[a, b], [b, a + b*theta^m]]."""

    a: int
    b: int

    def entries(self, F: GF2k, m: int) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.b,
                self.a ^ F.mul(self.b, F.theta_pow(m)))


def s_mul(F: GF2k, m: int, x: SMatrix, y: SMatrix) -> SMatrix:
    tm = F.theta_pow(m)
    a = F.mul(x.a, y.a) ^ F.mul(x.b, y.b)
    b = F.mul(x.a, y.b) ^ F.mul(x.b, y.a) ^ F.mul(F.mul(x.b, y.b), tm)
    return SMatrix(a, b)


def s_group(F: GF2k, m: int) -> list[SMatrix]:
    """All s(a, b) with det = a^2 + b^2 + ab*theta^m = 1, sorted by
    (a, b); cyclic of order q + 1.

    b = 0 gives a = 1.  For b != 0 put B = b*theta^m and a = Bz: the
    determinant is 1 exactly when z^2 + z = (b^2 + 1)/B^2, whose roots
    are z and z + 1 for z read from a table of z^2 + z.

    Then ``_check_s_group`` runs the size, closure and order checks.
    """
    if int(_trace_of_theta_pow(F, -2 * m)) == 0:
        raise ReducibleQuadratic(f"x^2 + theta^{m} x + 1 has a root")
    q1 = F.q - 1
    exp, log = F.tables()

    def from_log(e: int) -> int:
        return exp[e % q1]

    # z -> z^2 + z is two-to-one with roots z, z + 1, so the nonzero z
    # reach every value it takes; keep one root per value
    half = {from_log(2 * log[z]) ^ z: z for z in range(1, F.q)}
    pairs = [(1, 0)]
    for b in range(1, F.q):
        lB = log[b] + m
        num = from_log(2 * log[b]) ^ 1
        z = half.get(from_log(log[num] - 2 * lB) if num else 0)
        if z is not None:
            a = from_log(log[z] + lB)
            pairs += [(a, b), (a ^ from_log(lB), b)]
    out = [SMatrix(a, b) for a, b in sorted(pairs)]
    _check_s_group(F, m, out)
    return out


def _check_s_group(F: GF2k, m: int, S: list[SMatrix]) -> None:
    """Raise AssertionError unless S has q + 1 elements, is closed (the
    first 8 rows of products, each one numpy pass in log space looked up
    in a set of the (a, b) pairs) and has an element of order q + 1
    (tried in list order by ``_has_order``, 11 ``s_mul`` calls at k = 8)."""
    import numpy as np
    if len(S) != F.q + 1:
        raise AssertionError("S does not have order q+1")
    q1 = F.q - 1
    exp, log, _ = _tables(F)
    members = {(s.a, s.b) for s in S}
    la, lb = (log[np.array(col)] for col in zip(*members))

    def times(c: int, ly: np.ndarray) -> np.ndarray:
        # c * y from log y; c = 0 or y = 0 (log -1) gives 0
        return np.where((ly < 0) | (c == 0), 0, exp[(log[c] + ly) % q1])

    tm = F.theta_pow(m)
    for x in S[:8]:
        a = times(x.a, la) ^ times(x.b, lb)
        b = times(x.a, lb) ^ times(x.b, la) ^ times(F.mul(x.b, tm), lb)
        if not members.issuperset(zip(a.tolist(), b.tolist())):
            raise AssertionError("S is not closed under product")
    mul = partial(s_mul, F, m)
    if not any(_has_order(s, F.q + 1, mul, SMatrix(1, 0)) for s in S):
        raise AssertionError("S is not cyclic of order q+1")


def s_matrix_order(F: GF2k, m: int, s: SMatrix) -> int:
    """Order of s(a, b), by stepping through its powers; ``ValueError``
    when it is singular (a^2 + ab*theta^m + b^2 = 0), as no power is 1."""
    a, b = s.a, s.b
    if F.mul(a, a) ^ F.mul(F.mul(a, b), F.theta_pow(m)) ^ F.mul(b, b) == 0:
        raise ValueError(f"{s} is singular")
    ident = SMatrix(1, 0)
    o = 1
    x = s
    while x != ident:
        x = s_mul(F, m, x, s)
        o += 1
    return o


def count_eq2(F: GF2k, m: int, c: int) -> int:
    """Number of (a, y) with a^2 + c*theta^m*a*y^3 + c^2*y^6 + 1 = 0.

    Fix y and write the equation as a^2 + Ba + C = 0 with B =
    c*theta^m*y^3 and C = c^2*y^6 + 1.  y = 0 gives B = 0, C = 1 and the
    single root a = 1.  For y != 0, a = Bz turns it into z^2 + z = C/B^2,
    which has two roots when Tr(C/B^2) = 0 and none when it is 1.  The
    q - 1 nonzero y are handled at once in log space: O(q) time and
    memory.  c = 0 raises ``ZeroC``, any other c outside 1..q-1 ``ValueError``.
    """
    import numpy as np
    if (c := _index(c)) == 0:
        raise ZeroC("c must be nonzero")
    if not 0 < c < F.q:
        raise ValueError(f"c={c} outside 1..{F.q - 1}")
    q1 = F.q - 1
    exp, log, trace = _tables(F)
    ly = np.arange(q1, dtype=np.int64)  # y = theta^ly
    lc = int(log[c])
    lb = lc + m % q1 + 3 * ly
    cc = exp[(2 * lc + 6 * ly) % q1] ^ 1
    ratio = np.zeros(q1, dtype=np.int64)  # C = 0 leaves ratio 0, trace 0
    nz = cc != 0
    ratio[nz] = exp[(log[cc[nz]] - 2 * lb[nz]) % q1]
    return 2 * int(np.count_nonzero(trace[ratio] == 0)) + 1


def weil_check(N: int, q: int, d: int) -> bool:
    """|N - q| <= (d-1)(d-2)*sqrt(q) + d^2, decided in exact integers."""
    lhs = abs(N - q) - d * d
    if lhs <= 0:
        return True
    coeff = (d - 1) * (d - 2)
    s = isqrt(q)
    if s * s == q:
        return lhs <= coeff * s
    return lhs * lhs <= coeff * coeff * q
