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
from typing import NamedTuple

Vec = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


class InvalidType(ValueError):
    """The (family, N, r) combination is not an affine type."""


class DimensionMismatch(ValueError):
    """Vectors do not live over the same index set."""


class IndexOutOfRange(ValueError):
    """A node index outside the index set it must lie in."""


class VerificationFailure(ValueError):
    """A check of the mathematics failed on valid input: an implementation bug,
    not a bad argument, so the CLI exits 1 on it, not 2."""


# the height cap of a character series, read by characters and by the CLI's
# --degree; the series work grows polynomially in the degree, with the rank in
# the exponent; at 24, on a 2-vCPU Xeon VM, verify-all takes about 2.5-2.8 s and
# 36 MB, and the largest char query measured (A64~1 node 32) 1.7-2.3 s and 77 MB
MAX_DEGREE = 24


class AffineType(NamedTuple):
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


class AffineData(NamedTuple):
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

    def __hash__(self) -> int:
        # the type determines the datum, so equal data hash alike, and a
        # per-type cache lookup hashes the type's four fields, not the GCM
        return hash(self.type)

    @property
    def n(self) -> int:
        return self.type.n

    @property
    def rank(self) -> int:
        return self.type.n + 1

    def check_node(self, s: int, first: int = 1) -> int:
        """s, checked to be one of the nodes first..n (1..n by default; 0 is the affine node)."""
        if not first <= s <= self.n:
            raise IndexOutOfRange(f"node {s} is not in {first}..{self.n} for {self.type}")
        return s


# Edge kinds: 1 = single bond; k in {2, 3, 4} = k-fold bond with the arrow
# pointing at the second node (which is the shorter root); "both2" is the
# A_1^(1) double bond with arrows both ways (a_ij = a_ji = -2).


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


def _leading_minors(a) -> list[list[int]]:
    """Bareiss elimination of a square integer matrix without row exchanges.

    Returns the eliminated rows, up to and including the first whose pivot
    is not positive: row k is zero left of column k, and its pivot rows[k][k]
    is the (k+1)-th leading principal minor.  Every division is exact.

    A lower row with 0 in the pivot column would only be rescaled by
    p / prev, so that is deferred: over[i] is the last pivot applied to row
    i, which catches up by prev / over[i] when next read (exactly: the eager
    values are minors).  On a sparse Dynkin matrix few rows are ever read.
    """
    rows = [list(row) for row in a]
    over = [1] * len(rows)
    prev = 1
    for k, row in enumerate(rows):
        if over[k] != prev:
            row[k:] = [x * prev // over[k] for x in row[k:]]
        p = row[k]
        if p <= 0:
            return rows[:k + 1]
        for i, lower in enumerate(rows[k + 1:], k + 1):
            f = lower[k]
            if f:
                if over[i] != prev:
                    lower[k:] = [x * prev // over[i] for x in lower[k:]]
                    f = lower[k]
                lower[k:] = [(p * x - f * y) // prev for x, y in zip(lower[k:], row[k:])]
                over[i] = p
        prev = p
    return rows


def _primitive_null(a: list[list[int]]) -> list[int]:
    """Primitive positive integer vector v with a @ v = 0, for an affine GCM a.

    Every proper subdiagram of an affine diagram is of finite type, so the
    first m - 1 leading minors are positive and the last, det a, is 0.
    Back-substitution from v[m-1] = the (m-1)-th minor gives the adjugate
    solution, integral by Cramer's rule, so each division is exact.
    """
    m = len(a)
    rows = _leading_minors(a)
    if len(rows) != m or rows[-1][-1] != 0:
        raise InvalidType("affine GCM must have a 1-dimensional kernel")
    v = [0] * m
    v[m - 1] = rows[m - 2][m - 2]
    for k in range(m - 2, -1, -1):
        row = rows[k]
        v[k] = -sum(row[j] * v[j] for j in range(k + 1, m)) // row[k]
    g = math.gcd(*v)
    ints = [x // g for x in v]
    if any(x <= 0 for x in ints):
        raise InvalidType("null vector of an affine GCM must be positive")
    return ints


@functools.cache
def _bonds(gcm: Matrix) -> tuple[tuple[tuple[int, int], ...], ...]:
    """bonds[i]: the (j, a_ij) with j != i and a_ij != 0, i.e. i's Dynkin neighbours."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x and j != i)
                 for i, row in enumerate(gcm))


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
    kac = _primitive_null(a)
    dual = _primitive_null([list(col) for col in zip(*a)])
    if kac[0] != 1:
        raise InvalidType("a_0 = 1 must hold for every affine type")
    # d_i proportional to a_i^v / a_i (Kac 6.1); a connected GCM has one
    # symmetrizer up to scale, so the symmetry check certifies d
    lcm = math.lcm(*kac)
    d = [x * lcm // y for x, y in zip(dual, kac)]
    g = math.gcd(*d)
    d = [x // g for x in d]
    if min(d) != 1:
        raise InvalidType("symmetrizer normalization failed")
    if any(d[i] * a[i][j] != d[j] * a[j][i] for i in range(m) for j in range(i)):
        raise InvalidType(f"diag(d) * GCM is not symmetric for {at}")
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
