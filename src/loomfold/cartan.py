"""Cartan data for the affine types X_N^(r).

Every generalized Cartan matrix is generated from a diagram description
(node adjacency plus arrow multiplicity/direction) rather than typed in
by hand, so a single generator is auditable against the diagram table.
Node numbering: 0 is the affine node; for A_{2n}^(2) the numbering of
the simple roots is reversed relative to the usual textbook convention,
so that a_0 = 1 and theta = 2(alpha_1 + ... + alpha_n).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

Vec = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


class InvalidType(ValueError):
    """The (family, N, r) combination is not an affine type."""


class DimensionMismatch(ValueError):
    """Vectors do not live over the same index set."""


@dataclass(frozen=True)
class AffineType:
    """One row of the affine-type table: X_N^(r) with index set {0, ..., n}."""

    family: str
    n: int
    r: int
    N: int

    def __str__(self) -> str:
        return f"{self.family}{self.N}~{self.r}"

    @property
    def is_untwisted(self) -> bool:
        return self.r == 1

    @property
    def is_a2n2(self) -> bool:
        # A_2^(2) and A_{2n}^(2): the one family with its own gamma/xi rules
        return self.r == 2 and self.family == "A" and self.N % 2 == 0


@dataclass(frozen=True)
class AffineData:
    """Full Cartan datum: GCM, Kac labels, symmetrizers, delta and theta.

    Immutable after construction; safe to share across threads.
    """

    type: AffineType
    gcm: Matrix
    kac: Vec
    dual_kac: Vec
    sym: Vec
    delta: Vec
    theta: Vec

    @property
    def n(self) -> int:
        return self.type.n

    @property
    def rank(self) -> int:
        return self.type.n + 1


# Edge kinds: 1 = single bond; k in {2, 3, 4} = k-fold bond with the arrow
# pointing at the second node (which is the shorter root); "both2" is the
# A_1^(1) double bond with arrows both ways (a_ij = a_ji = -2).
_SINGLE = 1


def _diagram(family: str, N: int, r: int):
    """Return (n, edges) for a valid type, else raise InvalidType."""
    if r == 1:
        n = N
        if family == "A" and N >= 1:
            if N == 1:
                return 1, [(0, 1, "both2")]
            return n, [(i, i + 1, 1) for i in range(n)] + [(0, n, 1)]
        if family == "B" and N >= 3:
            return n, ([(0, 2, 1), (1, 2, 1)]
                       + [(i, i + 1, 1) for i in range(2, n - 1)]
                       + [(n - 1, n, 2)])
        if family == "C" and N >= 2:
            return n, ([(0, 1, 2)]
                       + [(i, i + 1, 1) for i in range(1, n - 1)]
                       + [(n, n - 1, 2)])
        if family == "D" and N >= 4:
            return n, ([(0, 2, 1), (1, 2, 1)]
                       + [(i, i + 1, 1) for i in range(2, n - 2)]
                       + [(n - 2, n - 1, 1), (n - 2, n, 1)])
        if family == "E" and N == 6:
            return 6, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (3, 6, 1), (6, 0, 1)]
        if family == "E" and N == 7:
            return 7, [(i, i + 1, 1) for i in range(6)] + [(3, 7, 1)]
        if family == "E" and N == 8:
            return 8, [(i, i + 1, 1) for i in range(7)] + [(5, 8, 1)]
        if family == "F" and N == 4:
            return 4, [(0, 1, 1), (1, 2, 1), (2, 3, 2), (3, 4, 1)]
        if family == "G" and N == 2:
            return 2, [(0, 1, 1), (1, 2, 3)]
    elif r == 2:
        if family == "A" and N == 2:
            return 1, [(0, 1, 4)]
        if family == "A" and N % 2 == 0 and N >= 4:
            n = N // 2
            return n, ([(0, 1, 2)]
                       + [(i, i + 1, 1) for i in range(1, n - 1)]
                       + [(n - 1, n, 2)])
        if family == "A" and N % 2 == 1 and N >= 5:
            n = (N + 1) // 2
            return n, ([(0, 2, 1), (1, 2, 1)]
                       + [(i, i + 1, 1) for i in range(2, n - 1)]
                       + [(n, n - 1, 2)])
        if family == "D" and N >= 3:
            n = N - 1
            return n, ([(1, 0, 2)]
                       + [(i, i + 1, 1) for i in range(1, n - 1)]
                       + [(n - 1, n, 2)])
        if family == "E" and N == 6:
            return 4, [(0, 1, 1), (1, 2, 1), (3, 2, 2), (3, 4, 1)]
    elif r == 3:
        if family == "D" and N == 4:
            return 2, [(0, 1, 1), (2, 1, 3)]
    raise InvalidType(f"{family}{N}~{r} is not an affine type")


def affine_type(family: str, N: int, r: int) -> AffineType:
    """Validated AffineType, or InvalidType."""
    n, _ = _diagram(family, N, r)
    return AffineType(family=family, n=n, r=r, N=N)


def _gcm_from_edges(m: int, edges) -> list[list[int]]:
    a = [[0] * m for _ in range(m)]
    for i in range(m):
        a[i][i] = 2
    for i, j, kind in edges:
        if kind == "both2":
            a[i][j] = a[j][i] = -2
        elif kind == 1:
            a[i][j] = a[j][i] = -1
        else:
            a[i][j] = -1
            a[j][i] = -kind
    return a


def _rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Exact Gauss-Jordan elimination of a rational matrix.

    Returns the reduced row echelon form and the pivot column of each of
    its leading rows, in order; the rows after those are zero.
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(rows[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _primitive(v) -> list[int]:
    """The primitive integer vector on the ray of a nonzero rational vector."""
    lcm = math.lcm(*(x.denominator for x in v))
    ints = [int(x * lcm) for x in v]
    g = math.gcd(*ints)
    return [x // g for x in ints]


def _symmetrizer(a: list[list[int]], edges, m: int) -> list[int]:
    # Solve d_i * a_ij = d_j * a_ji along the (connected) diagram, min d = 1.
    adj: dict[int, list[int]] = {i: [] for i in range(m)}
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    d: list[Fraction | None] = [None] * m
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in adj[i]:
            if d[j] is None:
                d[j] = d[i] * a[i][j] / a[j][i]
                stack.append(j)
    ints = _primitive(d)
    if min(ints) != 1:
        raise InvalidType("symmetrizer normalization failed")
    return ints


def _primitive_null(a: list[list[int]]) -> list[int]:
    """Primitive positive integer vector v with a @ v = 0 (kernel is 1-dim)."""
    m = len(a)
    rows, pivots = _rref(a)
    free = [c for c in range(m) if c not in pivots]
    if len(free) != 1:
        raise InvalidType("affine GCM must have a 1-dimensional kernel")
    fc = free[0]
    v = [Fraction(0)] * m
    v[fc] = Fraction(1)
    for i, c in enumerate(pivots):
        v[c] = -rows[i][fc]
    ints = _primitive(v)
    if ints[0] < 0:
        ints = [-x for x in ints]
    if any(x <= 0 for x in ints):
        raise InvalidType("null vector of an affine GCM must be positive")
    return ints


def build_affine(at: AffineType) -> AffineData:
    """The full Cartan datum for one affine type, built once per process."""
    # stays a plain function: span tracers wrap plain functions only, not functools.cache objects
    return _build_affine(at)


@functools.cache
def _build_affine(at: AffineType) -> AffineData:
    n, edges = _diagram(at.family, at.N, at.r)
    if n != at.n:
        raise InvalidType(f"rank mismatch for {at}")
    m = n + 1
    a = _gcm_from_edges(m, edges)
    d = _symmetrizer(a, edges, m)
    kac = _primitive_null(a)
    dual = _primitive_null([[a[j][i] for j in range(m)] for i in range(m)])
    if kac[0] != 1:
        raise InvalidType("a_0 = 1 must hold for every affine type")
    delta = tuple(kac)
    theta = tuple(delta[i] - (kac[0] if i == 0 else 0) for i in range(m))
    return AffineData(
        type=at,
        gcm=tuple(tuple(row) for row in a),
        kac=tuple(kac),
        dual_kac=tuple(dual),
        sym=tuple(d),
        delta=delta,
        theta=theta,
    )


def build(family: str, N: int, r: int) -> AffineData:
    """Shorthand for build_affine(affine_type(...))."""
    return build_affine(affine_type(family, N, r))


def bilinear(data: AffineData, v: Vec, w: Vec) -> int:
    """Symmetric form with (alpha_i, alpha_i) = 2 d_i; integer on the root lattice."""
    m = data.rank
    if len(v) != m or len(w) != m:
        raise DimensionMismatch(f"expected vectors of length {m}")
    total = 0
    for i in range(m):
        if not v[i]:
            continue
        row = data.gcm[i]
        di = data.sym[i]
        for j in range(m):
            if w[j]:
                total += di * row[j] * v[i] * w[j]
    return total


def all_affine_types(max_n: int = 8) -> list[AffineType]:
    """Every affine type with n <= max_n, in table order."""
    out = []
    for N in range(1, max_n + 1):
        out.append(affine_type("A", N, 1))
    for N in range(3, max_n + 1):
        out.append(affine_type("B", N, 1))
    for N in range(2, max_n + 1):
        out.append(affine_type("C", N, 1))
    for N in range(4, max_n + 1):
        out.append(affine_type("D", N, 1))
    out += [affine_type("E", 6, 1), affine_type("E", 7, 1), affine_type("E", 8, 1),
            affine_type("F", 4, 1), affine_type("G", 2, 1)]
    out.append(affine_type("A", 2, 2))
    for n in range(2, max_n + 1):
        out.append(affine_type("A", 2 * n, 2))
    for n in range(3, max_n + 1):
        out.append(affine_type("A", 2 * n - 1, 2))
    for n in range(2, max_n + 1):
        out.append(affine_type("D", n + 1, 2))
    out += [affine_type("E", 6, 2), affine_type("D", 4, 3)]
    return out


def twisted_types(max_n: int = 8) -> list[AffineType]:
    """The twisted sweep: A_2^(2)..A_16^(2), A_{2n-1}^(2), D_{n+1}^(2), E_6^(2), D_4^(3)."""
    return [t for t in all_affine_types(max_n) if t.r > 1]
