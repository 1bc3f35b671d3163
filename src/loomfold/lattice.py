"""Exact vectors over simple roots, finite root enumeration, and projections.

A lattice vector is a plain tuple of ints indexed by node id 0..n; vectors
in the finite sublattice (spanned by alpha_1..alpha_n) have coordinate 0
equal to zero.  Enumeration of the finite positive roots walks the
reflection closure beta -> beta - <beta, h_i> alpha_i starting from the
simple roots; at rank <= 16 this is instant and doubles as the oracle for
the Weyl-group computations.
"""

from __future__ import annotations

import functools

from .cartan import AffineData, IndexOutOfRange, Vec, bilinear


def coeff(v: Vec, s: int) -> int:
    """The coefficient [v]_s of alpha_s."""
    if not 0 <= s < len(v):
        raise IndexOutOfRange(f"node {s} not in 0..{len(v) - 1}")
    return v[s]


def height(v: Vec) -> int:
    return sum(v)


def is_negative(v: Vec) -> bool:
    return any(x != 0 for x in v) and all(x <= 0 for x in v)


def closure_positive_roots(gcm, nodes) -> list[Vec]:
    """Positive roots of the subsystem on `nodes`, by reflection closure.

    gcm may be any symmetrizable Cartan matrix of finite type (full affine
    GCM restricted to `nodes`, or a parent finite matrix).  Vectors are
    full-length tuples, zero outside `nodes`.
    """
    m = len(gcm)
    roots: set[Vec] = set()
    queue: list[Vec] = []
    for i in nodes:
        v = [0] * m
        v[i] = 1
        for w in (tuple(v), tuple(-x for x in v)):
            roots.add(w)
            queue.append(w)
    while queue:
        b = queue.pop()
        for i in nodes:
            pairing = sum(gcm[i][j] * b[j] for j in nodes if b[j])
            if pairing == 0:
                continue
            nb = list(b)
            nb[i] -= pairing
            t = tuple(nb)
            if t not in roots:
                roots.add(t)
                queue.append(t)
    return sorted(v for v in roots if all(x >= 0 for x in v))


@functools.cache
def finite_positive_roots(data: AffineData) -> tuple[Vec, ...]:
    """Positive roots of the underlying finite system (nodes 1..n), sorted."""
    return tuple(closure_positive_roots(data.gcm, range(1, data.rank)))


def project_bar(data: AffineData, v: Vec) -> Vec:
    """Orthogonal projection onto the finite part: delta -> 0, alpha_i -> alpha_i.

    Uses alpha_0 = (delta - theta)/a_0 with a_0 = 1, so the result stays
    integral on the root lattice.
    """
    if len(v) != data.rank:
        raise IndexOutOfRange(f"expected length {data.rank}")
    k = v[0]  # a_0 = 1, so the alpha_0-coordinate is the delta multiple
    return tuple(0 if i == 0 else v[i] - k * data.theta[i] for i in range(data.rank))


def root_norm(data: AffineData, v: Vec) -> int:
    """(v, v) under the symmetrized form."""
    return bilinear(data, v, v)


def is_long(data: AffineData, v: Vec) -> bool:
    """Long root test for twisted types: (beta, beta) = 2r (short roots have norm 2)."""
    return root_norm(data, v) == 2 * data.type.r
