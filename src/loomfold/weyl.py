"""Extended affine Weyl group elements as exact integer matrices.

An element is stored as its matrix on affine root-lattice coordinates,
never as an abstract word: sign tests w^{-1}(alpha_i) < 0 become
coordinate checks, and length-0 detection is "is a simple-root
permutation matrix".  The translation t_{-lambda_s} is built from the
pairing rule (lambda_s, alpha) = [alpha]_s (untwisted and A_{2n}^(2))
or d_s [alpha]_s (other twisted types); lambda_s itself is never
materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cartan import AffineData, Matrix, Vec, _rref
from .lattice import finite_positive_roots, is_negative, root_norm


class NotLengthZeroResidue(ValueError):
    """Factorization residue is not a simple-root permutation matrix."""


class NotReduced(ValueError):
    """A word whose beta_k sequence leaves the positive roots or repeats."""


@dataclass(frozen=True)
class ExtWeylElt:
    """Exact matrix action on affine root-lattice coordinates."""

    matrix: Matrix

    def apply(self, v: Vec) -> Vec:
        m = self.matrix
        return tuple(sum(m[i][j] * v[j] for j in range(len(v)) if v[j]) for i in range(len(v)))

    def compose(self, other: "ExtWeylElt") -> "ExtWeylElt":
        a, b = self.matrix, other.matrix
        m = len(a)
        return ExtWeylElt(tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(m)) for j in range(m))
            for i in range(m)))


def simple_reflection(data: AffineData, i: int) -> ExtWeylElt:
    """The reflection s_i: alpha_j -> alpha_j - a_ij alpha_i."""
    m = data.rank
    if not 0 <= i < m:
        from .lattice import IndexOutOfRange
        raise IndexOutOfRange(f"node {i} not in 0..{m - 1}")
    rows = [[int(k == j) for j in range(m)] for k in range(m)]
    for j in range(m):
        rows[i][j] -= data.gcm[i][j]
    return ExtWeylElt(tuple(tuple(r) for r in rows))


def pairing_rule(data: AffineData) -> str:
    """How lambda_s pairs with roots: "coeff" gives (lambda_s, alpha) = [alpha]_s
    (untwisted and A_{2n}^(2)), "d_s_times_coeff" gives d_s [alpha]_s."""
    if data.type.is_untwisted or data.type.is_a2n2:
        return "coeff"
    return "d_s_times_coeff"


def lambda_pairing(data: AffineData, s: int, v: Vec) -> int:
    """(lambda_s, bar v) via the pairing rule; integer on the root lattice."""
    p = 1 if pairing_rule(data) == "coeff" else data.sym[s]
    # bar(alpha_0) = -theta (a_0 = 1), so the alpha_0-coordinate contributes -p*[theta]_s
    return p * (v[s] - v[0] * data.theta[s])


def translation_minus_lambda(data: AffineData, s: int) -> ExtWeylElt:
    """t_{-lambda_s}: acts on the root lattice by alpha -> alpha + (lambda_s, bar alpha) delta."""
    m = data.rank
    rows = [[int(k == j) for j in range(m)] for k in range(m)]
    for j in range(m):
        ej = tuple(int(t == j) for t in range(m))
        c = lambda_pairing(data, s, ej)
        if c:
            for k in range(m):
                rows[k][j] += c * data.delta[k]
    return ExtWeylElt(tuple(tuple(r) for r in rows))


def _int_inverse(matrix: Matrix) -> list[list[int]]:
    """Exact inverse; lattice automorphisms have integer inverses."""
    m = len(matrix)
    rows, pivots = _rref([list(row) + [int(i == j) for j in range(m)]
                          for i, row in enumerate(matrix)])
    if pivots[:m] != list(range(m)):
        raise NotLengthZeroResidue("matrix is singular")
    inv = [row[m:] for row in rows]
    if any(x.denominator != 1 for row in inv for x in row):
        raise NotLengthZeroResidue("matrix is not a root-lattice automorphism")
    return [[int(x) for x in row] for row in inv]


def _right_reflect(gcm, i, m_rows) -> None:
    # m_rows <- m_rows @ S_i: column j -= a_ij * column i (j != i), column i negated
    m = len(m_rows)
    for row in m_rows:
        ci = row[i]
        if ci:
            for j in range(m):
                c = gcm[i][j]
                if c and j != i:
                    row[j] -= c * ci
            row[i] = -ci


def alcove_factorize(data: AffineData, elt: ExtWeylElt):
    """Greedy smallest-index descent: elt = s_{i_1} ... s_{i_l} tau.

    Returns (word, tau) with tau a permutation of simple-root indices.
    Raises NotLengthZeroResidue when the residue is not a permutation
    matrix (the input was not an extended-Weyl element).
    """
    m = data.rank
    gcm = data.gcm
    # only elt^{-1} is tracked: letter i is a left descent exactly when elt^{-1}(alpha_i) < 0
    inv = _int_inverse(elt.matrix)
    word: list[int] = []
    while True:
        desc = None
        for i in range(m):
            col = [inv[k][i] for k in range(m)]
            if is_negative(tuple(col)):
                desc = i
                break
        if desc is None:
            break
        word.append(desc)
        _right_reflect(gcm, desc, inv)
    # inv is now tau^{-1} = tau^T, so tau[j] is the column of the single 1 in row j
    tau: list[int] = []
    for row in inv:
        if 1 not in row or sum(abs(x) for x in row) != 1:
            raise NotLengthZeroResidue("residue is not a simple-root permutation")
        tau.append(row.index(1))
    return tuple(word), tuple(tau)


def inversion_set_from_word(data: AffineData, word) -> list[Vec]:
    """beta_k = s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}), in word order.

    Raises NotReduced if some beta_k is negative or repeats.
    """
    m = data.rank
    gcm = data.gcm
    acc = [[int(i == j) for j in range(m)] for i in range(m)]
    betas: list[Vec] = []
    seen = set()
    for ik in word:
        beta = tuple(acc[k][ik] for k in range(m))
        if not all(x >= 0 for x in beta) or beta in seen:
            raise NotReduced(f"word {tuple(word)} is not reduced at beta = {beta}")
        betas.append(beta)
        seen.add(beta)
        _right_reflect(gcm, ik, acc)
    return betas


def inversion_set_detailed(data: AffineData, s: int):
    """Closed-form inversion set of t_{-lambda_s}, as (vector, family) pairs.

    family is 1 or 2 for A_{2n}^(2) (alpha + k delta vs 2 alpha + (2k+1) delta),
    None otherwise.  All returned vectors are positive affine roots.
    """
    m = data.rank
    delta = data.delta
    pos = finite_positive_roots(data)
    out = []
    if data.type.is_a2n2:
        for al in pos:
            for k in range(al[s]):
                out.append((tuple(al[i] + k * delta[i] for i in range(m)), 1))
            if root_norm(data, al) == 2:
                for k in range(al[s]):
                    out.append((tuple(2 * al[i] + (2 * k + 1) * delta[i] for i in range(m)), 2))
    else:
        r = data.type.r
        p = 1 if data.type.is_untwisted else data.sym[s]
        for al in pos:
            gam = 1 if r == 1 else (r if root_norm(data, al) == 2 * r else 1)
            bound = Fraction(p * al[s], gam)
            k = 0
            while k < bound:
                out.append((tuple(al[i] + k * gam * delta[i] for i in range(m)), None))
                k += 1
    return out


def inversion_set_closed_form(data: AffineData, s: int) -> list[Vec]:
    """The set Delta_+(t_{-lambda_s}) from the fundamental-translation formula, sorted."""
    return sorted(v for v, _ in inversion_set_detailed(data, s))


def length_delta(data: AffineData, s: int, k: int, side: str) -> int:
    """l(s_k t) - l(t) on the left, l(t s_k) - l(t) on the right; always +1 or -1.

    Computed by the sign test on t^{±1}(alpha_k), not by re-enumeration.
    """
    t = translation_minus_lambda(data, s)
    ek = tuple(int(i == k) for i in range(data.rank))
    if side == "left":
        c = lambda_pairing(data, s, ek)
        image = tuple(ek[i] - c * data.delta[i] for i in range(data.rank))  # t^{-1}(alpha_k)
    elif side == "right":
        image = t.apply(ek)
    else:
        raise ValueError("side must be 'left' or 'right'")
    return -1 if is_negative(image) else 1


def braid2_canonical(data: AffineData, word) -> tuple[int, ...]:
    """Lexicographically least word in the 2-braid (commutation) class.

    Greedy: at each step emit the smallest letter that commutes with every
    letter remaining before it.
    """
    letters = list(word)
    gcm = data.gcm
    out: list[int] = []
    while letters:
        best = None
        best_k = -1
        for k, x in enumerate(letters):
            if all(gcm[x][y] == 0 for y in letters[:k]):
                if best is None or x < best:
                    best, best_k = x, k
        out.append(best)
        letters.pop(best_k)
    return tuple(out)
