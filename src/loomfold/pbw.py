"""Combinatorics of dual PBW vectors at minuscule nodes.

The nodes, the beta_k sequence, and the e'_i edge rule
    e'_i F(beta_k) = F(beta_k - alpha_i)  iff  (alpha_i, beta_k) = d_i + delta_{i,s}
are enough to reproduce the derivation graphs on U_q^-(w_s).  Edges whose
pairing condition holds but whose target is not a single beta_j (or zero)
are collected separately instead of being asserted away; a node with no
single-vector preimage additionally gets its product preimage
F(alpha_s) F(beta_j) recorded when the derivation rule makes that product
map onto it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cartan import AffineData, Vec, bilinear
from .weyl import alcove_factorize, inversion_set_from_word, translation_minus_lambda


class NotMinuscule(ValueError):
    """(type, s) is not one of the minuscule-node table rows."""


class BadMinusculeWord(ValueError):
    """The beta_k of a minuscule node leave the finite roots or do not end at theta."""


def minuscule_nodes(data: AffineData) -> tuple[int, ...]:
    """Nodes s whose fundamental module is minuscule (empty for other types)."""
    t = data.type
    n = t.n
    if t.r == 1:
        if t.family == "A":
            return tuple(range(1, n + 1))
        if t.family == "D":
            return (1, n - 1, n)
        if t.family == "E" and t.N == 6:
            return (1, 5)
        if t.family == "E" and t.N == 7:
            return (6,)
        return ()
    if t.family == "A" and t.N % 2 == 1:
        return (1,)
    if t.family == "D" and t.r == 2:
        return (n,)
    return ()


@dataclass(frozen=True)
class MinusculeCase:
    data: AffineData
    s: int
    word: tuple[int, ...]
    tau: tuple[int, ...]
    betas: tuple[Vec, ...]       # beta_1 .. beta_l, all inside the finite root system
    theta_index: int             # position (1-based) of theta in the word order


def minuscule_case(data: AffineData, s: int) -> MinusculeCase:
    if s not in minuscule_nodes(data):
        raise NotMinuscule(f"{data.type} node {s} is not minuscule")
    word, tau = alcove_factorize(data, translation_minus_lambda(data, s))
    betas = inversion_set_from_word(data, word)
    for b in betas:
        if b[0] != 0:  # no delta component at a minuscule node
            raise BadMinusculeWord(f"beta {b} of {data.type} s={s} has a delta component")
    if betas[-1] != data.theta:
        raise BadMinusculeWord(
            f"last beta {betas[-1]} of {data.type} s={s} is not theta {data.theta}")
    return MinusculeCase(data=data, s=s, word=word, tau=tau,
                         betas=tuple(betas), theta_index=len(betas))


@dataclass
class EprimeGraph:
    """Labeled digraph on {1} u {beta_k}; node 0 stands for the unit 1."""

    case: MinusculeCase
    edges: list = field(default_factory=list)       # (k, i, j): beta_k -e'_i-> beta_j; j = 0 is the unit
    pairing_misses: list = field(default_factory=list)   # (k, i): pairing holds, target not single
    composite_targets: list = field(default_factory=list)  # (j, i, a): F(beta_a) F(beta_j) -e'_i-> beta_j


def _pairing_hits(case: MinusculeCase):
    data, s = case.data, case.s
    hits = []
    for k, beta in enumerate(case.betas, start=1):
        for i in range(1, data.rank):
            alpha = tuple(int(t == i) for t in range(data.rank))
            if bilinear(data, alpha, beta) == data.sym[i] + (1 if i == s else 0):
                hits.append((k, i))
    return hits


def eprime_graph(case: MinusculeCase) -> EprimeGraph:
    data, s = case.data, case.s
    m = data.rank
    index = {b: k for k, b in enumerate(case.betas, start=1)}
    zero = tuple([0] * m)
    g = EprimeGraph(case=case)
    for k, i in _pairing_hits(case):
        beta = case.betas[k - 1]
        target = tuple(beta[t] - (1 if t == i else 0) for t in range(m))
        if target == zero:
            g.edges.append((k, i, 0))
        elif target in index:
            g.edges.append((k, i, index[target]))
        else:
            g.pairing_misses.append((k, i))
    # single-vector preimage completion: a beta_j hit by no edge may still be
    # the image of the product F(alpha_i) F(beta_j), which the derivation rule
    # sends to beta_j exactly when e'_i kills beta_j and e'_i F(alpha_i) = 1
    has_in = {j for (_, _, j) in g.edges}
    for j, beta in enumerate(case.betas, start=1):
        if j in has_in:
            continue
        for i in range(1, m):
            alpha = tuple(int(t == i) for t in range(m))
            if alpha not in index:
                continue
            if data.sym[i] != (1 if i == s else 0):   # need (alpha_i, alpha_i) = d_i + delta_{i,s}
                continue
            if bilinear(data, alpha, beta) == data.sym[i] + (1 if i == s else 0):
                continue  # e'_i does not kill beta_j, the product image is not a single vector
            g.composite_targets.append((j, i, index[alpha]))
    return g


@dataclass(frozen=True)
class X0Data:
    j0: tuple[int, ...]
    j1: tuple[int, ...]
    exponents: dict     # i in J1 -> -d_0 (2 + a_{0i})


def classify_x0(case: MinusculeCase) -> X0Data:
    """J_0/J_1 split of I_0 against theta, with the x_0 commutation exponents."""
    data = case.data
    theta = data.theta
    j0, j1 = [], []
    for i in range(1, data.rank):
        alpha = tuple(int(t == i) for t in range(data.rank))
        (j0 if bilinear(data, alpha, theta) == 0 else j1).append(i)
    exps = {i: -data.sym[0] * (2 + data.gcm[0][i]) for i in j1}
    return X0Data(j0=tuple(j0), j1=tuple(j1), exponents=exps)


def graph_to_dot(g: EprimeGraph) -> str:
    """DOT rendering; edge labels are e'_i, the unit node is named 1."""
    lines = ["digraph eprime {"]
    lines.append('  node1 [label="1"];')
    for k in range(1, len(g.case.betas) + 1):
        lines.append(f'  b{k} [label="F({_vec_label(g.case.betas[k - 1])})"];')
    for k, i, j in sorted(g.edges):
        dst = "node1" if j == 0 else f"b{j}"
        lines.append(f'  b{k} -> {dst} [label="e\'_{i}"];')
    for j, i, a in sorted(g.composite_targets):
        comp = f"c{a}_{j}"
        lines.append(f'  {comp} [label="F(b{a})F(b{j})", shape=box];')
        lines.append(f'  {comp} -> b{j} [label="e\'_{i}"];')
    lines.append("}")
    return "\n".join(lines)


def _vec_label(v: Vec) -> str:
    return ",".join(str(x) for x in v[1:])
