"""Truncated formal power series in e^{-alpha_i} and the character products.

A series is a map from exponent vectors m (the monomial e^{-sum m_i alpha_i})
to integer coefficients, truncated at plain height sum(m_i) <= degree.
Coefficients are Python ints, so arbitrary precision; no floating point
enters this module.

Storage: a monomial m of height <= D is packed into the integer key
sum_i m_i (D+1)^i over all slots i = 0..n, and a series holds one dict
key -> coefficient per height 0..D.  No coordinate exceeds D, so the
digits never carry: multiplying two monomials adds their keys, and the
height of a key is the index of its bucket.  The product, the fold and
the comparison work on keys; `CharSeries.terms` is a read-only view keyed
by exponent tuples, which unpacks only when it is read.

The product kernel applies each factor (1 - e^{-beta})^{-e} as e in-place
divisions by (1 - e^{-beta}): walking the heights upwards, every c[k] is
added into c[k + key(beta)].  A factor taller than the truncation only
contributes its constant term 1 and is skipped.  Each division is exact
and the divisions commute, so the product does not depend on factor order;
the kernel applies the tallest factors first, while the heights they read
are still sparse.

The fold sums digits of a key into the digits of the twisted nodes.  The
leading parent slots that are their own twisted node keep their digits
when the cut keeps the base, so only the high part of a key is rewritten,
by one shift per distinct high part.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from typing import NamedTuple

from .cartan import MAX_DEGREE, AffineData, Vec, VerificationFailure
from .folding import OrbitMap, bar_inversion_parts, parent_char_exponents, sigma_for


class NonIntegerExponent(ValueError):
    """A product-formula exponent xi_s(beta) [beta]_s failed to be an integer."""


class RankMismatch(ValueError):
    """Series or roots over different index sets combined."""


class NegativeDegree(ValueError):
    """A product, fold or comparison truncated below height 0."""


class DegreeAboveCap(ValueError):
    """A product truncated above MAX_DEGREE."""


class NotPositiveRoot(ValueError):
    """A product factor (1 - e^{-beta})^{-e} with beta of height < 1 or a negative coordinate."""


class MultiplicityMismatch(VerificationFailure):
    """A product-formula exponent differs from its delta-shift multiplicity."""


def _check_degree(degree: int) -> None:
    """Reject a truncation degree below 0 or above MAX_DEGREE, before any allocation."""
    if degree < 0:
        raise NegativeDegree(f"truncation degree {degree} < 0")
    if degree > MAX_DEGREE:
        raise DegreeAboveCap(f"degree {degree} is above the cap {MAX_DEGREE}")


def _pack(m, base: int) -> int:
    k = 0
    for x in reversed(m):
        k = k * base + x
    return k


def _digit_columns(keys, base: int, size: int) -> list[list[int]]:
    """The digits of packed keys, one list per slot 0..size-1, in key order."""
    cols = []
    for _ in range(size):
        cols.append([k % base for k in keys])
        keys = [k // base for k in keys]
    return cols


class CharSeries(NamedTuple):
    rank: int                 # finite rank n; exponent tuples have length n+1, slot 0 = 0
    degree: int               # total-height truncation bound
    buckets: tuple[dict[int, int], ...]   # height 0..degree -> {packed monomial: coefficient}

    def _key(self, m) -> int | None:
        """The packed key of m, or None when m is no monomial of this series."""
        if len(m) != self.rank + 1 or min(m) < 0 or sum(m) > self.degree:
            return None
        return _pack(m, self.degree + 1)

    @property
    def terms(self) -> Mapping[Vec, int]:
        return _Terms(self)

    def height_terms(self, h: int) -> dict[Vec, int]:
        """The terms of height h, keyed by exponent tuples."""
        bucket = self.buckets[h]
        return dict(zip(zip(*_digit_columns(bucket, self.degree + 1, self.rank + 1)), bucket.values()))

    def coefficient(self, m: Vec) -> int:
        k = self._key(m)
        return 0 if k is None else self.buckets[sum(m)].get(k, 0)


class _Terms(Mapping):
    """Read-only {exponent tuple: coefficient} view of a CharSeries."""

    def __init__(self, series: CharSeries):
        self._series = series

    def __len__(self):
        return sum(map(len, self._series.buckets))

    def __getitem__(self, m):
        s = self._series
        k = s._key(m) if isinstance(m, tuple) else None
        if k is not None and k in (bucket := s.buckets[sum(m)]):
            return bucket[k]
        raise KeyError(m)

    def __iter__(self):
        for m, _ in self.items():
            yield m

    def items(self):
        return _TermItems(self)

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.items())!r})"


class _TermItems(ItemsView):
    def __iter__(self):
        s = self._mapping._series
        for h in range(s.degree + 1):
            yield from s.height_terms(h).items()


def product_from_exponents(exponents, rank: int, degree: int) -> CharSeries:
    """Expand prod (1 - e^{-beta})^{-e} over (beta, e) pairs to the given height."""
    _check_degree(degree)
    base = degree + 1
    factors = []
    for beta, e in exponents:
        if e < 0:
            raise NonIntegerExponent(f"negative exponent {e} at {beta}")
        hb = sum(beta)
        if e == 0 or hb > degree:
            continue
        # a negative digit would borrow from its neighbour and alias another monomial
        if hb < 1 or min(beta) < 0:
            raise NotPositiveRoot(f"factor root {beta} has height {hb} or a negative coordinate")
        if len(beta) != rank + 1:
            raise RankMismatch(f"factor root {beta} has {len(beta)} slots, not {rank + 1}")
        factors.append((hb, _pack(beta, base), e))
    # tallest first (a stable sort): a factor of height hb reads heights
    # <= degree - hb only, which stay sparse while few factors are in, so
    # only the short factors pass over the full series
    factors.sort(key=lambda f: f[0], reverse=True)
    buckets = tuple({} for _ in range(base))
    buckets[0][0] = 1
    for hb, kb, e in factors:
        for _ in range(e):
            # divide by (1 - x^beta): ascending heights, so c[k] is final when read
            for h in range(base - hb):
                dst = buckets[h + hb]
                for k, c in buckets[h].items():
                    k += kb
                    dst[k] = dst.get(k, 0) + c
    return CharSeries(rank=rank, degree=degree, buckets=buckets)


def char_exponents(data: AffineData, s: int) -> list[tuple[Vec, int]]:
    """(beta, e(beta)) over distinct finite parts of Delta_+(t_{-lambda_s}).

    e(beta) = xi_s(beta) [beta]_s, with xi_s from bar_inversion_parts (1 on
    untwisted types); non-integrality would signal a folding bug.
    """
    out = []
    for beta, (mult, xi) in sorted(bar_inversion_parts(data, s).items()):
        e, rem = divmod(xi.numerator * beta[s], xi.denominator)
        if rem:
            raise NonIntegerExponent(f"xi*[beta]_s = {xi * beta[s]} at {beta} in {data.type}")
        if e != mult:
            raise MultiplicityMismatch(
                f"exponent {e} differs from the delta-shift multiplicity {mult} "
                f"at {beta} in {data.type} s={s}")
        out.append((beta, e))
    return out


def char_product(data: AffineData, s: int, degree: int) -> CharSeries:
    """The product formula for ch(L_{s,a}^±) = ch(U_q^-(w_s)), truncated."""
    return product_from_exponents(char_exponents(data, s), data.n, degree)


def fold_series(series: CharSeries, om: OrbitMap, degree: int) -> CharSeries:
    """Apply pi: e^{-alpha_i} -> e^{-alpha_{bar i}} by orbit-summing exponents.

    Folding keeps the height, so the cut at `degree` takes buckets
    0..degree.  When the output base equals the input base, the leading
    parent slots that are their own twisted node (0..n for A and D, 0..3
    for E6~2, 0..2 for D4~3) already hold their folded digits, so only the
    high part k // base**p of a key is rewritten: the folded key is
    k + shift[k // base**p], with shift filled once per distinct high part.
    When the bases differ, the prefix is empty and whole keys are folded.
    """
    if degree < 0:
        raise NegativeDegree(f"fold degree {degree} < 0")
    if series.rank != om.parent_rank:
        raise RankMismatch(f"series of rank {series.rank} folded by a rank-{om.parent_rank} orbit map")
    if series.degree < degree:
        raise RankMismatch(f"series truncated at {series.degree} < requested {degree}")
    node = [0] * (om.parent_rank + 1)     # parent slot -> twisted node; slot 0 stays 0
    for t, orb in enumerate(om.orbits, start=1):
        for i in orb:
            node[i] = t
    bi, bo = series.degree + 1, degree + 1
    p = 0
    if bi == bo:
        while p < len(node) and node[p] == p:
            p += 1
    top = bi ** p
    weights = [bo ** t for t in node[p:]]
    shift: dict[int, int] = {}           # high part -> folded high part - high part * top
    out = []
    for bucket in series.buckets[:bo]:
        fb: dict = {}
        for k, c in bucket.items():
            hi = k // top
            d = shift.get(hi)
            if d is None:
                f, r = 0, hi
                for w in weights:
                    r, digit = divmod(r, bi)
                    f += digit * w
                d = shift[hi] = f - hi * top
            k += d
            fb[k] = fb.get(k, 0) + c
        out.append(fb)
    return CharSeries(rank=om.twisted.n, degree=degree, buckets=tuple(out))


class EqualityReport(NamedTuple):
    equal: bool
    witness: tuple | None     # (monomial, coeff_a, coeff_b) at minimal height


def series_equal(a: CharSeries, b: CharSeries, degree: int) -> EqualityReport:
    """Exact coefficient comparison up to the given height, with first divergence."""
    if degree < 0:
        raise NegativeDegree(f"comparison degree {degree} < 0")
    if a.rank != b.rank:
        raise RankMismatch(f"rank {a.rank} vs {b.rank}")
    if a.degree < degree or b.degree < degree:
        raise RankMismatch("series not truncated deep enough for the comparison")
    # keys compare directly when both series pack in the same base
    if a.degree == b.degree and a.buckets[:degree + 1] == b.buckets[:degree + 1]:
        return EqualityReport(equal=True, witness=None)
    # the first divergence by (height, monomial); a stored 0 counts as absent
    for h in range(degree + 1):
        ta, tb = a.height_terms(h), b.height_terms(h)
        for m in sorted(ta.keys() | tb.keys()):
            ca, cb = ta.get(m, 0), tb.get(m, 0)
            if ca != cb:
                return EqualityReport(equal=False, witness=(m, ca, cb))
    return EqualityReport(equal=True, witness=None)


def series_check(data: AffineData, s: int, degree: int, twisted: CharSeries) -> EqualityReport:
    """The folded parent series of twisted node s against `twisted` up to `degree`."""
    om = sigma_for(data)
    parent = product_from_exponents(parent_char_exponents(om, s), om.parent_rank, degree)
    return series_equal(fold_series(parent, om, degree), twisted, degree)
