"""Exact vectors over simple roots and finite root enumeration.

A lattice vector is a plain tuple of ints indexed by node id 0..n; vectors
in the finite sublattice (spanned by alpha_1..alpha_n) have coordinate 0
equal to zero.  Enumeration of the finite positive roots walks the
reflection closure beta -> beta - <beta, h_i> alpha_i upwards from the
simple roots, carrying each root's pairings with the simple coroots and
the simple node its chain started from, which fixes its length; it
doubles as the oracle for the Weyl-group computations.  The walk runs
once per distinct Cartan block, shared by every type and parent with it.
"""

from __future__ import annotations

import functools
from types import MappingProxyType

from .cartan import Vec, _bonds, _leading_minors


def is_negative(v: Vec) -> bool:
    """v is nonzero with no positive coordinate."""
    return max(v) <= 0 and min(v) < 0


class NotFiniteType(ValueError):
    """A Cartan matrix block that is not of finite type, so has infinitely many roots."""


def _check_finite_type(gcm, nodes) -> None:
    """Sylvester's test on the block of a symmetrizable gcm on `nodes`: each
    leading principal minor has the sign of the symmetrized block's."""
    rows = _leading_minors([[gcm[i][j] for j in nodes] for i in nodes])
    k = len(rows)
    if rows and rows[-1][k - 1] <= 0:
        raise NotFiniteType(f"block on nodes {list(nodes)} not of finite type: minor {k} is {rows[-1][k - 1]}")


def closure_positive_roots(gcm, nodes) -> dict[Vec, int]:
    """Positive roots of the subsystem on `nodes`, by reflection closure,
    each mapped to the simple node it is W-conjugate to.

    gcm may be any symmetrizable Cartan matrix whose block on `nodes` is of
    finite type (full affine GCM restricted to `nodes`, or a parent finite
    matrix); any other block raises NotFiniteType.  Vectors are
    full-length tuples, zero outside `nodes`, in sorted order (sorted by
    bytes: finite-root coordinates lie in 0..6).  The walk starts at the
    simple roots and only ever steps up, beta -> beta + k alpha_i with
    k = -<beta, h_i> > 0: every positive root above a simple one lies one
    such step above a lower positive root.  The step is s_i(beta), so a root
    keeps the simple node its chain started from, its origin, and has the
    origin's length (reflections preserve the form).  Each queued root
    carries its pairing vector <beta, h_j>, which a step updates by k times
    column i of the GCM (<alpha_i, h_j> = a_ji), on i and the bonds of i only.
    """
    _check_finite_type(gcm, nodes)
    # the column bonds of i: the (j, a_ji) with j != i and a_ji != 0
    col_bonds = _bonds(tuple(zip(*gcm)))
    origin = {}
    queue = []
    for i in nodes:
        unit = tuple(int(j == i) for j in range(len(gcm)))
        origin[unit] = i
        queue.append((unit, i, tuple(row[i] for row in gcm)))
    while queue:
        b, o, pairing = queue.pop()
        for i in nodes:
            k = -pairing[i]
            if k > 0:
                nb = list(b)
                nb[i] += k
                t = tuple(nb)
                if t not in origin:
                    origin[t] = o
                    tp = list(pairing)
                    tp[i] = k  # -k + 2k
                    for j, a in col_bonds[i]:
                        tp[j] += k * a
                    queue.append((t, o, tp))
    return {t: origin[t] for t in sorted(origin, key=bytes)}


def _closure(gcm, nodes) -> MappingProxyType[Vec, int]:
    """closure_positive_roots(gcm, nodes), walked once per distinct block: the
    walk reads nothing outside the block, so types and parents share it."""
    nodes = tuple(nodes)
    return _block_closure(len(gcm), nodes, tuple(gcm[i][j] for i in nodes for j in nodes))


@functools.cache
def _block_closure(m: int, nodes: tuple[int, ...], entries: tuple[int, ...]) -> MappingProxyType[Vec, int]:
    gcm = [[0] * m for _ in range(m)]
    it = iter(entries)
    for i in nodes:
        for j in nodes:
            gcm[i][j] = next(it)
    # called by its module name, so a tracer that replaces it times the walk
    return MappingProxyType(closure_positive_roots(gcm, nodes))
