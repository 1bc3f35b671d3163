"""Extended affine Weyl group elements as exact integer matrices.

An element is stored as its matrix on affine root-lattice coordinates
together with its inverse, which every constructor writes in closed form,
so the layer is integer-only.  Alcove factorization and word inversion sets
hold each column w(alpha_i) as one packed int, so the sign test
w^{-1}(alpha_i) < 0 is an int comparison, and length-0 detection is "every
column is a packed simple root".  The pairing (lambda_s, alpha) is
[alpha]_s (untwisted and A_{2n}^(2)) or d_s [alpha]_s (other twisted
types); lambda_s itself is never materialized.
"""

from __future__ import annotations

import functools
import struct
from itertools import compress, repeat
from operator import add, mul, neg
from typing import NamedTuple

from .cartan import AffineData, DimensionMismatch, Matrix, Vec, VerificationFailure, _bonds
from .lattice import _closure, is_negative


class NotLengthZeroResidue(ValueError):
    """Not an extended-Weyl element: wrong inverse, delta moved, or residue not a permutation."""


class NotReduced(VerificationFailure):
    """A word whose beta_k sequence leaves the positive roots or repeats."""


def _shape(mat: Matrix) -> str:
    widths = sorted({len(row) for row in mat}) or [0]
    return f"{len(mat)}x{'|'.join(map(str, widths))}"


class _MatrixPair(NamedTuple):
    matrix: Matrix
    inverse: Matrix


class ExtWeylElt(_MatrixPair):
    """Exact matrix action on affine root-lattice coordinates; matrix . inverse = I.

    Every way to make one, `_replace` and `_make` included, runs the check.
    """

    __slots__ = ()

    def __new__(cls, matrix: Matrix, inverse: Matrix):
        a, b = matrix, inverse
        m = len(a)
        if len(b) != m or any(len(row) != m for row in a) or any(len(row) != m for row in b):
            raise DimensionMismatch(f"matrix of shape {_shape(a)} and inverse of shape {_shape(b)}: "
                                    "both must be square of one size")
        # row by row: row i of the product is the combination of b's rows by a's
        # row i, summed over the nonzero entries of both factors only
        nodes = range(m)
        support = [list(compress(nodes, row)) for row in b]
        for i, row in enumerate(a):
            acc = [0] * m
            for k in compress(nodes, row):
                x, bk = row[k], b[k]
                for j in support[k]:
                    acc[j] += x * bk[j]
            if acc[i] != 1 or acc.count(0) != m - 1:
                raise NotLengthZeroResidue("inverse is not the integer inverse of the matrix")
        return tuple.__new__(cls, (matrix, inverse))

    @classmethod
    def _make(cls, iterable) -> ExtWeylElt:
        return cls(*iterable)

    def apply(self, v: Vec) -> Vec:
        """The image of v; DimensionMismatch unless len(v) is the matrix size."""
        if len(v) != len(self.matrix):
            raise DimensionMismatch(f"expected a vector of length {len(self.matrix)}, got {len(v)}")
        return tuple(sum(map(mul, row, v)) for row in self.matrix)


def _scale(data: AffineData, s: int) -> int:
    """p in (lambda_s, alpha) = p [alpha]_s: 1 for untwisted and A_{2n}^(2), d_s otherwise."""
    return 1 if data.type.is_untwisted or data.type.is_a2n2 else data.sym[s]


def lambda_pairing(data: AffineData, s: int, v: Vec) -> int:
    """(lambda_s, bar v); integer on the root lattice.  DimensionMismatch unless len(v) is the rank."""
    data.check_node(s)
    if len(v) != data.rank:
        raise DimensionMismatch(f"expected a vector of length {data.rank}, got {len(v)}")
    # bar(alpha_0) = -theta (a_0 = 1), so the alpha_0-coordinate contributes -p*[theta]_s
    return _scale(data, s) * (v[s] - v[0] * data.theta[s])


def translation_minus_lambda(data: AffineData, s: int) -> ExtWeylElt:
    """t_{-lambda_s}: alpha -> alpha + (lambda_s, bar alpha) delta; lambda_pairing checks s.

    Matrix I + delta c^T and inverse t_{lambda_s} = I - delta c^T, with
    c_j = (lambda_s, bar alpha_j); c^T delta = (lambda_s, bar delta) = 0.
    Only c_s and c_0 are nonzero, so row k is e_k + delta_k c, written
    from those two pairings.
    """
    m = data.rank
    c_s = lambda_pairing(data, s, tuple(int(t == s) for t in range(m)))
    c_0 = lambda_pairing(data, s, (1,) + (0,) * (m - 1))

    def shift(sign: int) -> Matrix:
        rows = []
        for k, dk in enumerate(data.delta):
            row = [0] * m
            row[k] = 1
            row[0] += sign * dk * c_0
            row[s] += sign * dk * c_s
            rows.append(tuple(row))
        return tuple(rows)

    return ExtWeylElt(shift(1), shift(-1))


# Packed columns: a vector v of length m is the int sum_i v_i 2^(W i) + ht(v) 2^(W m)
# with W = _WIDTH bits per slot.  Packing is linear, so a reflection acts on whole
# columns by integer arithmetic.  Every column the kernel tracks is a real root,
# whose coordinates all have one sign, that of its height; so the int's sign is
# the root's, whatever the digits, and |c| < 2^(W(m+1)-1) bounds |ht(v)|, and with
# it every coordinate, below 2^(W-1): only then do the digits decode exactly.  The
# packed simple roots need no bound: a one-signed v with height 1 is a unit vector.
# A positive packed int is then the little-endian bytes of m + 1 unsigned slots,
# so one struct encodes or decodes it; W must be a struct slot size: 8, 16, 32 or
# 64 (a negative root is packed as minus its negative).
_WIDTH = 32
_SLOT_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


class PackedOverflow(ValueError):
    """A root column too large for the packed width to be encoded or decoded exactly."""


@functools.cache
def _codec(width: int, m: int) -> tuple[struct.Struct, struct.Struct]:
    """Structs for m coordinate slots and the height slot of `width` bits: the first
    packs all m + 1, the second unpacks the coordinates and skips the height."""
    code = _SLOT_CODES[width]
    return struct.Struct(f"<{m + 1}{code}"), struct.Struct(f"<{m}{code}{width // 8}x")


def _pack(v: Vec) -> int:
    """A root of one sign as a packed int; refused when the width cannot decode it back."""
    w = _WIDTH
    h = sum(v)
    if abs(h) >= 1 << (w - 1):
        raise PackedOverflow(f"root {v} has height {h}, not below 2^{w - 1}")
    pack = _codec(w, len(v))[0].pack
    if h < 0:
        return -int.from_bytes(pack(*map(neg, v), -h), "little")
    return int.from_bytes(pack(*v, h), "little")


def _unit_columns(m: int) -> list[int]:
    """The packed simple roots alpha_0 .. alpha_{m-1}: digit i and the height slot are 1."""
    w = _WIDTH
    return [(1 << (w * i)) + (1 << (w * m)) for i in range(m)]


def _unpack_positive(cols: list[int], m: int) -> list[Vec]:
    """Decode positive packed roots, certified exact, all of them in one struct pass."""
    w = _WIDTH
    if cols and max(cols) >= 1 << (w * (m + 1) - 1):
        raise PackedOverflow(f"a root column outgrew the packed width of {w} bits per coordinate")
    size = w * (m + 1) // 8
    data = b"".join(map(int.to_bytes, cols, repeat(size), repeat("little")))
    return list(_codec(w, m)[1].iter_unpack(data))


def alcove_factorize(data: AffineData, elt: ExtWeylElt):
    """Greedy smallest-index descent: elt = s_{i_1} ... s_{i_l} tau.

    Returns (word, tau) with tau a permutation of simple-root indices.
    Raises DimensionMismatch when elt does not act on data's rank, and
    NotLengthZeroResidue when elt moves delta, a column of its inverse is
    not of one sign, or the residue is not a permutation matrix (the input
    was not an extended-Weyl element); PackedOverflow when a column of the
    inverse is too large for the packed width.
    """
    m = data.rank
    if len(elt.matrix) != m:
        raise DimensionMismatch(f"element of size {len(elt.matrix)} for {data.type} of rank {m}")
    # every extended-Weyl element fixes delta; without this check -I would descend forever
    if elt.apply(data.delta) != data.delta:
        raise NotLengthZeroResidue("element does not fix delta")
    # only elt^{-1} is tracked, by columns: cols[i] = elt^{-1}(alpha_i), and
    # letter i is a left descent exactly when that column is negative
    inverse_cols = list(zip(*elt.inverse))
    if any(min(c) < 0 < max(c) for c in inverse_cols):
        raise NotLengthZeroResidue("a column of the inverse is not a root")
    cols = [_pack(c) for c in inverse_cols]
    bonds = _bonds(data.gcm)
    negative = [c < 0 for c in cols]
    word: list[int] = []
    while True in negative:
        i = negative.index(True)
        word.append(i)
        # cols <- cols @ S_i: column j -= a_ij * column i on each bond, column i negated
        ci = cols[i]
        for j, a in bonds[i]:
            cols[j] -= a * ci
            negative[j] = cols[j] < 0
        cols[i] = -ci
        negative[i] = False  # the negated column of a negative one is positive
    # the residue is tau^{-1} = tau^T: column i is alpha_{tau^{-1}(i)}, so tau[k] = i
    units = {c: k for k, c in enumerate(_unit_columns(m))}
    tau = [None] * m
    for i, c in enumerate(cols):
        k = units.get(c)
        if k is None or tau[k] is not None:
            raise NotLengthZeroResidue("residue is not a simple-root permutation")
        tau[k] = i
    return tuple(word), tuple(tau)


def inversion_set_from_word(data: AffineData, word) -> list[Vec]:
    """beta_k = s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}), in word order.

    Raises NotReduced if some beta_k is negative or repeats, and
    PackedOverflow if a beta_k is too large for the packed width.
    """
    m = data.rank
    bonds = _bonds(data.gcm)
    # cols[i] = s_{i_1} ... s_{i_{k-1}}(alpha_i), so beta_k is column i_k
    cols = _unit_columns(m)
    betas: list[int] = []
    seen = set()
    for ik in word:
        if not 0 <= ik < m:
            data.check_node(ik, 0)
        beta = cols[ik]
        if beta < 0 or beta in seen:
            # -beta is positive when beta is negative; both decode to the same coordinates
            bad = tuple(-x if beta < 0 else x for x in _unpack_positive([abs(beta)], m)[0])
            raise NotReduced(f"word {tuple(word)} is not reduced at beta = {bad}")
        betas.append(beta)
        seen.add(beta)
        # cols <- cols @ S_ik, as in alcove_factorize
        for j, a in bonds[ik]:
            cols[j] -= a * beta
        cols[ik] = -beta
    return _unpack_positive(betas, m)


@functools.cache
def _root_steps(data: AffineData) -> tuple[tuple[Vec, int, Vec, int | None, Vec, Vec], ...]:
    """The node-independent half of _finite_parts: rows (alpha, gamma, part,
    family, first, step), one per finite root alpha and family, in
    block-closure order; a node's parts are the rows with [alpha]_s > 0.

    The closure maps alpha to the simple node o it is W-conjugate to, and
    reflections preserve the form, so (alpha, alpha) = 2 d_o: alpha is long
    exactly when d_o = r, and short on A_{2n}^(2) exactly when d_o = 1.
    """
    delta, r, sym = data.delta, data.type.r, data.sym
    r_step = tuple(r * x for x in delta)  # on A_{2n}^(2), r = 2: the family-2 step
    rows = []
    for al, o in _closure(data.gcm, range(1, data.rank)).items():
        if not data.type.is_a2n2:
            rows.append((al, r, al, None, al, r_step) if sym[o] == r else (al, 1, al, None, al, delta))
            continue
        rows.append((al, 1, al, 1, al, delta))
        if sym[o] == 1:
            part = tuple(2 * x for x in al)
            rows.append((al, 1, part, 2, tuple(map(add, part, delta)), r_step))
    return tuple(rows)


def _finite_parts(data: AffineData, s: int) -> list[tuple[Vec, int, int | None, int, Vec, Vec]]:
    """Delta_+(t_{-lambda_s}) grouped by finite part, over the roots with [alpha]_s > 0.

    Each entry (part, count, family, gamma, first, step) stands for the count
    roots first + k step, k = 0 .. count - 1, whose finite part is part.  For
    A_{2n}^(2): family 1 gives alpha + k delta, and each short alpha also
    gives family 2, 2 alpha + (2k+1) delta, both with count [alpha]_s.
    Otherwise family is None and alpha + k gamma delta has count
    ceil(p [alpha]_s / gamma), gamma = r for long alpha and 1 for short.
    """
    data.check_node(s)
    p = _scale(data, s)  # 1 on A_{2n}^(2), where gamma = 1 too
    # k < p [alpha]_s / gamma
    return [(part, -(-p * al[s] // gam), fam, gam, first, step)
            for al, gam, part, fam, first, step in _root_steps(data) if al[s]]


def inversion_set_detailed(data: AffineData, s: int):
    """Closed-form inversion set of t_{-lambda_s}, as (vector, family) pairs.

    family is 1 or 2 for A_{2n}^(2) (alpha + k delta vs 2 alpha + (2k+1) delta),
    None otherwise.  All returned vectors are positive affine roots.
    """
    out = []
    for _, count, fam, _, v, step in _finite_parts(data, s):
        out.append((v, fam))
        for _ in range(count - 1):  # count >= 1, as [alpha]_s > 0
            v = tuple(map(add, v, step))
            out.append((v, fam))
    return out


def inversion_set_closed_form(data: AffineData, s: int) -> list[Vec]:
    """The set Delta_+(t_{-lambda_s}) from the fundamental-translation formula, sorted."""
    return sorted([v for v, _ in inversion_set_detailed(data, s)])


def oracle(data: AffineData, s: int):
    """(word, tau, betas in word order, closed form) for t_{-lambda_s}."""
    word, tau = alcove_factorize(data, translation_minus_lambda(data, s))
    return word, tau, inversion_set_from_word(data, word), inversion_set_closed_form(data, s)


def oracle_agrees(s: int, word, tau, betas, closed) -> bool:
    """The verdict on `oracle`'s output: the word and the closed form give the
    same set, the word is as long as that set, starts with s and ends with tau[0]."""
    return (set(betas) == set(closed) and len(word) == len(closed)
            and word[0] == s and word[-1] == tau[0])


def length_delta(data: AffineData, s: int, k: int, side: str) -> int:
    """l(s_k t) - l(t) on the left, l(t s_k) - l(t) on the right; always +1 or -1.

    Computed by the sign test on t^{±1}(alpha_k), not by re-enumeration.
    """
    t = translation_minus_lambda(data, s)
    data.check_node(k, 0)
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    mat = t.inverse if side == "left" else t.matrix
    return -1 if is_negative(tuple(row[k] for row in mat)) else 1


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
