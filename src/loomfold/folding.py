"""Diagram automorphisms, the root-lattice folding map, and the exponent identity.

For a twisted type X_N^(r) the parent is the simply-laced finite system
X_N carrying the order-r automorphism sigma; orbits are identified with
the twisted nodes 1..n in increasing order of their smallest member, and
the node chosen on the parent side is always that smallest representative.
verify_fold_identity checks, for every folded root beta, that the parent
coefficients over the fiber sum to xi_s(beta) [beta]_s.  xi_s is decided
once per finite part, in bar_inversion_parts, which the exponents of
characters read too.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import repeat
from operator import add
from types import MappingProxyType
from typing import NamedTuple

from .cartan import AffineData, Vec, VerificationFailure
from .lattice import _closure
from .weyl import _finite_parts, _scale


class NotTwisted(ValueError):
    """Folding data requested for an untwisted type."""


class BadAutomorphism(ValueError):
    """The diagram automorphism of a twisted type breaks the parent GCM or its orbit count."""


class FamilyMismatch(VerificationFailure):
    """One finite part of an inversion set arises from both A_{2n}^(2) root families."""


class NotInInversionSet(ValueError):
    """A parent node outside the orbit behind the twisted node s."""


class IdentityViolation(VerificationFailure):
    """The folding exponent identity failed at some root (implementation bug)."""

    def __init__(self, msg, beta=None):
        super().__init__(msg)
        self.beta = beta


class OrbitMap(NamedTuple):
    """sigma on the parent index set {1..N} plus the orbit/node dictionary."""

    twisted: AffineData
    sigma: tuple[int, ...]          # sigma[i] for i in 1..N; slot 0 unused
    orbits: tuple[tuple[int, ...], ...]   # sorted by smallest member
    parent_gcm: tuple[tuple[int, ...], ...]  # (N+1)x(N+1), row/col 0 unused

    def __hash__(self) -> int:
        # the twisted datum determines the map, as the type determines the datum
        return hash(self.twisted)

    @property
    def parent_rank(self) -> int:
        return len(self.sigma) - 1

    def rep_of(self, s: int) -> int:
        """Smallest parent representative of the orbit behind twisted node s."""
        return self.orbits[self.twisted.check_node(s) - 1][0]


def _parent_gcm(family: str, N: int) -> list[list[int]]:
    m = N + 1
    a = [[0] * m for _ in range(m)]
    for i in range(1, m):
        a[i][i] = 2
    if family == "A":
        edges = [(i, i + 1) for i in range(1, N)]
    elif family == "D":
        edges = [(i, i + 1) for i in range(1, N - 2)] + [(N - 2, N - 1), (N - 2, N)]
    elif family == "E" and N == 6:
        edges = [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]
    else:
        raise NotTwisted(f"no simply-laced parent for {family}{N}")
    for i, j in edges:
        a[i][j] = a[j][i] = -1
    return a


def sigma_for(data: AffineData) -> OrbitMap:
    """The diagram automorphism behind a twisted type, with its orbits; built once per type."""
    # stays a plain function: span tracers wrap plain functions only, not functools.cache objects
    return _sigma_for(data)


@functools.cache
def _sigma_for(data: AffineData) -> OrbitMap:
    t = data.type
    if t.r == 1:
        raise NotTwisted(f"{t} is untwisted")
    N = t.N
    sig = list(range(N + 1))
    if t.family == "A":
        for i in range(1, N + 1):
            sig[i] = N + 1 - i
    elif t.family == "D" and t.r == 2:
        sig[N - 1], sig[N] = N, N - 1
    elif t.family == "E":
        sig[1], sig[5] = 5, 1
        sig[2], sig[4] = 4, 2
    elif t.family == "D" and t.r == 3:
        sig[1], sig[3], sig[4] = 3, 4, 1
    pgcm = _parent_gcm(t.family, N)
    # sigma must preserve the parent GCM and have order r
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if pgcm[sig[i]][sig[j]] != pgcm[i][j]:
                raise BadAutomorphism(f"sigma of {t} does not preserve the parent GCM at ({i}, {j})")
    seen = set()
    orbits = []
    for i in range(1, N + 1):
        if i in seen:
            continue
        orb = [i]
        j = sig[i]
        while j != i:
            orb.append(j)
            j = sig[j]
        seen.update(orb)
        orbits.append(tuple(sorted(orb)))
    orbits.sort(key=min)
    if len(orbits) != t.n:
        raise BadAutomorphism(f"sigma of {t} has {len(orbits)} orbits, not n = {t.n}")
    return OrbitMap(twisted=data, sigma=tuple(sig), orbits=tuple(orbits),
                    parent_gcm=tuple(tuple(row) for row in pgcm))


def parent_positive_roots(om: OrbitMap) -> tuple[Vec, ...]:
    """Positive roots of the simply-laced parent, as (N+1)-tuples with slot 0 = 0;
    a copy of the block closure, which is walked once per block."""
    return tuple(_closure(om.parent_gcm, range(1, om.parent_rank + 1)))


def _fold_roots(om: OrbitMap, betas) -> list[Vec]:
    """Pi of each parent vector in betas, in order: twisted coordinate t is the
    sum of the parent coordinate columns over orbit t, slot 0 stays 0."""
    cols = list(zip(*betas))
    if not cols:
        return []
    sums = [functools.reduce(functools.partial(map, add), map(cols.__getitem__, orb))
            for orb in om.orbits]
    return list(zip(repeat(0), *sums))


@functools.cache
def _fibers(om: OrbitMap) -> MappingProxyType[Vec, tuple[Vec, ...]]:
    """Folded root -> the parent positive roots over it, in parent_positive_roots order."""
    roots = parent_positive_roots(om)
    fibers: dict[Vec, list[Vec]] = {}
    for b, beta in zip(roots, _fold_roots(om, roots)):
        fibers.setdefault(beta, []).append(b)
    return MappingProxyType({beta: tuple(fib) for beta, fib in fibers.items()})


# xi values and xi * [beta]_s take few distinct values; Fractions are immutable
_fraction = functools.cache(Fraction)


def bar_inversion_parts(data: AffineData, s: int) -> dict[Vec, tuple[int, Fraction]]:
    """Finite parts of Delta_+(t_{-lambda_s}), each with its multiplicity and xi_s.

    Built from the finite roots alpha with [alpha]_s > 0, without listing the
    affine roots: multiplicity ceil(p [alpha]_s / gamma) at alpha; for
    A_{2n}^(2), [alpha]_s at alpha (family 1) and, for short alpha, [alpha]_s
    at 2 alpha (family 2).  xi_s = p / (family or gamma), with p from
    weyl._scale: 1 on untwisted types, 1 and 1/2 on the two A_{2n}^(2)
    families, and d_s / gamma on the other twisted types.  A finite part arises from
    one family only (families differ in norm); FamilyMismatch says otherwise.
    A fresh dict per call: rebuilding it costs less than a cache would save.
    """
    p = _scale(data, s)
    parts: dict[Vec, tuple[int, Fraction]] = {}
    for part, count, fam, gam, _, _ in _finite_parts(data, s):
        # each finite root gives one part per family, so a repeat is a second
        # family; families occur on A_{2n}^(2) only, where p = 1 and xi = 1 / family
        if part in parts:
            raise FamilyMismatch(f"finite part {part} of {data.type} s={s} arises from "
                                 f"families {parts[part][1].denominator} and {fam}")
        parts[part] = (count, _fraction(p, fam or gam))
    return parts


class FoldEntry(NamedTuple):
    beta: Vec                    # folded root (twisted coordinates)
    fiber: tuple[Vec, ...]       # parent roots over beta
    lhs: int                     # sum of parent s-coefficients over the fiber
    rhs: Fraction                # xi_s(beta) * [beta]_s
    xi: Fraction


def verify_fold_identity(data: AffineData, s: int, xi_fault: bool = False,
                         parent_node: int | None = None) -> list[FoldEntry]:
    """Exhaustively check sum_{beta' in fiber} [beta']_s = xi_s(beta) [beta]_s.

    The parent node defaults to the smallest representative of the orbit
    behind s; any other member of the same orbit must give the same report
    (sigma-symmetry), which the tests assert.  xi_fault doubles every xi
    value (test hook for the fault-injection path).  Raises
    IdentityViolation on the first failing root.
    """
    om = sigma_for(data)
    orbit = om.orbits[data.check_node(s) - 1]
    sp = orbit[0] if parent_node is None else parent_node
    if sp not in orbit:
        raise NotInInversionSet(f"parent node {sp} is not in the orbit of twisted node {s}")
    # a parent root with [b]_sp > 0 folds to a root with [beta]_s > 0
    fibers = {}
    for beta, fib in _fibers(om).items():
        if beta[s] > 0:
            part = [b for b in fib if b[sp] > 0]
            if part:
                fibers[beta] = part
    tparts = bar_inversion_parts(data, s)
    if set(fibers) != set(tparts):
        raise IdentityViolation(
            f"folded parent set differs from twisted set at {data.type} s={s}",
            beta=next(iter(set(fibers) ^ set(tparts))))
    report = []
    for beta in sorted(tparts):
        mult, x = tparts[beta]
        if xi_fault:
            x *= 2
        fiber = fibers[beta]
        lhs = sum([b[sp] for b in fiber])
        # lhs = num / den = mult, in integers; the Fraction is built after the check
        num, den = x.numerator * beta[s], x.denominator
        if lhs * den != num or num != mult * den:
            raise IdentityViolation(
                f"identity fails at {data.type} s={s}, beta={beta}: "
                f"fiber sum {lhs}, xi*[beta]_s = {_fraction(num, den)}, multiplicity {mult}",
                beta=beta)
        rhs = _fraction(num, den)
        report.append(FoldEntry(beta, tuple(fiber), lhs, rhs, x))
    return report


def parent_char_exponents(om: OrbitMap, s: int) -> list[tuple[Vec, int]]:
    """Product-formula exponents on the untwisted parent side for twisted node s.

    The parent pairing rule is the untwisted one, so the exponent at a parent
    root beta is just [beta]_{s'} with s' the orbit representative.
    """
    sp = om.rep_of(s)
    return [(b, b[sp]) for b in parent_positive_roots(om) if b[sp] > 0]
