"""Diagram automorphisms, the root-lattice folding map, and the exponent identity.

For a twisted type X_N^(r) the parent is the simply-laced finite system
X_N carrying the order-r automorphism sigma; orbits are identified with
the twisted nodes 1..n in increasing order of their smallest member, and
the node chosen on the parent side is always that smallest representative.
verify_fold_identity checks, for every folded root beta, that the parent
coefficients over the fiber sum to xi_s(beta) [beta]_s.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .cartan import AffineData, Vec
from .lattice import closure_positive_roots, is_long, project_bar
from .weyl import inversion_set_detailed


class NotTwisted(ValueError):
    """Folding data requested for an untwisted type."""


class BadAutomorphism(ValueError):
    """The diagram automorphism of a twisted type breaks the parent GCM or its orbit count."""


class FamilyMismatch(ValueError):
    """One finite part of an inversion set arises from both A_{2n}^(2) root families."""


class NotInInversionSet(ValueError):
    """xi evaluated outside bar(Delta_+(t_{-lambda_s}))."""


class IdentityViolation(ValueError):
    """The folding exponent identity failed at some root (implementation bug)."""

    def __init__(self, msg, beta=None):
        super().__init__(msg)
        self.beta = beta


@dataclass(frozen=True)
class OrbitMap:
    """sigma on the parent index set {1..N} plus the orbit/node dictionary."""

    twisted: AffineData
    sigma: tuple[int, ...]          # sigma[i] for i in 1..N; slot 0 unused
    orbits: tuple[tuple[int, ...], ...]   # sorted by smallest member
    parent_gcm: tuple[tuple[int, ...], ...]  # (N+1)x(N+1), row/col 0 unused

    @property
    def parent_rank(self) -> int:
        return len(self.sigma) - 1

    def rep_of(self, s: int) -> int:
        """Smallest parent representative of the orbit behind twisted node s."""
        return self.orbits[s - 1][0]


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
    """The diagram automorphism behind a twisted type, with its orbits."""
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


@functools.cache
def parent_positive_roots(om: OrbitMap) -> tuple[Vec, ...]:
    """Positive roots of the simply-laced parent, as (N+1)-tuples with slot 0 = 0."""
    return tuple(closure_positive_roots(om.parent_gcm, range(1, om.parent_rank + 1)))


def fold_root(om: OrbitMap, beta: Vec) -> Vec:
    """Pi: alpha_i -> alpha_{bar i}, summed linearly over parent coordinates."""
    n = om.twisted.n
    out = [0] * (n + 1)
    for t, orb in enumerate(om.orbits, start=1):
        out[t] = sum(beta[i] for i in orb)
    return tuple(out)


@functools.cache
def bar_inversion_parts(data: AffineData, s: int) -> MappingProxyType[Vec, tuple[int, int | None]]:
    """Finite parts of Delta_+(t_{-lambda_s}) with multiplicity and family tag.

    For A_{2n}^(2) the family (1 or 2) is carried alongside each finite part
    because the same part arises only from one family (families differ in norm).
    """
    parts: dict[Vec, tuple[int, int | None]] = {}
    for v, fam in inversion_set_detailed(data, s):
        bar = project_bar(data, v)
        if bar in parts:
            mult, tag = parts[bar]
            if tag != fam:
                raise FamilyMismatch(
                    f"finite part {bar} of {data.type} s={s} arises from families {tag} and {fam}")
            parts[bar] = (mult + 1, tag)
        else:
            parts[bar] = (1, fam)
    return MappingProxyType(parts)


def _xi_value(data: AffineData, s: int, beta: Vec, family: int | None) -> Fraction:
    if data.type.is_a2n2:
        return Fraction(1) if family == 1 else Fraction(1, 2)
    gam = data.type.r if is_long(data, beta) else 1
    return Fraction(data.sym[s], gam)


def xi(data: AffineData, s: int, beta: Vec, family: int | None = None) -> Fraction:
    """The exponent correction xi_s(beta) for beta in bar(Delta_+(t_{-lambda_s})).

    Non-A_{2n}^(2): d_s / gamma_beta with gamma_beta = r for long beta, 1 else.
    A_{2n}^(2): 1 on the alpha + k delta family, 1/2 on 2 alpha + (2k+1) delta.
    """
    parts = bar_inversion_parts(data, s)
    if beta not in parts:
        raise NotInInversionSet(f"{beta} not in bar(Delta_+(t_-lambda_{s})) of {data.type}")
    if data.type.is_a2n2 and family is None:
        family = parts[beta][1]
    return _xi_value(data, s, beta, family)


@dataclass(frozen=True)
class FoldEntry:
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
    sp = om.rep_of(s) if parent_node is None else parent_node
    if sp not in om.orbits[s - 1]:
        raise NotInInversionSet(f"parent node {sp} is not in the orbit of twisted node {s}")
    parent_parts = [b for b in parent_positive_roots(om) if b[sp] > 0]
    fibers: dict[Vec, list[Vec]] = {}
    for b in parent_parts:
        fibers.setdefault(fold_root(om, b), []).append(b)
    tparts = bar_inversion_parts(data, s)
    if set(fibers) != set(tparts):
        raise IdentityViolation(
            f"folded parent set differs from twisted set at {data.type} s={s}",
            beta=next(iter(set(fibers) ^ set(tparts))))
    report = []
    for beta in sorted(tparts):
        mult, fam = tparts[beta]
        x = _xi_value(data, s, beta, fam)
        if xi_fault:
            x *= 2
        lhs = sum(b[sp] for b in fibers[beta])
        rhs = x * beta[s]
        if lhs != rhs or rhs != mult:
            raise IdentityViolation(
                f"identity fails at {data.type} s={s}, beta={beta}: "
                f"fiber sum {lhs}, xi*[beta]_s = {rhs}, multiplicity {mult}",
                beta=beta)
        report.append(FoldEntry(beta=beta, fiber=tuple(fibers[beta]),
                                lhs=lhs, rhs=rhs, xi=x))
    return report


def parent_char_exponents(om: OrbitMap, s: int) -> list[tuple[Vec, int]]:
    """Product-formula exponents on the untwisted parent side for twisted node s.

    The parent pairing rule is the untwisted one, so the exponent at a parent
    root beta is just [beta]_{s'} with s' the orbit representative.
    """
    sp = om.rep_of(s)
    return [(b, b[sp]) for b in parent_positive_roots(om) if b[sp] > 0]
