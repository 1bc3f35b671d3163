"""Truncated formal power series in e^{-alpha_i} and the character products.

A series is a map from exponent vectors m (the monomial e^{-sum m_i alpha_i})
to integer coefficients, truncated at plain height sum(m_i) <= degree.
Coefficients are Python ints, so arbitrary precision; no floating point
enters this module.  The product kernel keeps one term dict per height
0..degree and applies each factor (1 - e^{-beta})^{-e} as e in-place
divisions by (1 - e^{-beta}): walking the heights upwards, every c[m] is
added into c[m + beta].  A factor taller than the truncation only
contributes its constant term 1 and is skipped.  Each division is exact
and the divisions commute, so the product does not depend on factor order.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .cartan import AffineData, Vec
from .folding import OrbitMap, _xi_value, bar_inversion_parts


class NonIntegerExponent(ValueError):
    """A product-formula exponent xi_s(beta) [beta]_s failed to be an integer."""


class RankMismatch(ValueError):
    """Series over different index sets compared."""


class NegativeDegree(ValueError):
    """A product truncated below height 0."""


class NotPositiveRoot(ValueError):
    """A product factor (1 - e^{-beta})^{-e} with beta of height < 1."""


class MultiplicityMismatch(ValueError):
    """A product-formula exponent differs from its delta-shift multiplicity."""


@dataclass(frozen=True)
class CharSeries:
    rank: int                 # finite rank n; exponent tuples have length n+1, slot 0 = 0
    degree: int               # total-height truncation bound
    terms: dict               # exponent tuple -> int coefficient

    def coefficient(self, m: Vec) -> int:
        return self.terms.get(tuple(m), 0)


def one(rank: int, degree: int) -> CharSeries:
    return CharSeries(rank=rank, degree=degree, terms={tuple([0] * (rank + 1)): 1})


def product_from_exponents(exponents, rank: int, degree: int) -> CharSeries:
    """Expand prod (1 - e^{-beta})^{-e} over (beta, e) pairs to the given height."""
    if degree < 0:
        raise NegativeDegree(f"truncation degree {degree} < 0")
    by_height: list[dict] = [{} for _ in range(degree + 1)]
    by_height[0][tuple([0] * (rank + 1))] = 1
    for beta, e in exponents:
        if e < 0:
            raise NonIntegerExponent(f"negative exponent {e} at {beta}")
        hb = sum(beta)
        if e == 0 or hb > degree:
            continue
        if hb < 1:
            raise NotPositiveRoot(f"factor root {beta} has height {hb}")
        for _ in range(e):
            # divide by (1 - x^beta): ascending heights, so c[m] is final when read
            for h in range(degree - hb + 1):
                dst = by_height[h + hb]
                for m, c in by_height[h].items():
                    mm = tuple(map(add, m, beta))
                    dst[mm] = dst.get(mm, 0) + c
    terms = {m: c for bucket in by_height for m, c in bucket.items()}
    return CharSeries(rank=rank, degree=degree, terms=terms)


def char_exponents(data: AffineData, s: int) -> list[tuple[Vec, int]]:
    """(beta, e(beta)) over distinct finite parts of Delta_+(t_{-lambda_s}).

    e(beta) = [beta]_s for untwisted types and xi_s(beta) [beta]_s for
    twisted ones; non-integrality would signal a folding bug.
    """
    out = []
    for beta, (mult, fam) in sorted(bar_inversion_parts(data, s).items()):
        if data.type.is_untwisted:
            e = beta[s]
        else:
            ef = _xi_value(data, s, beta, fam) * beta[s]
            if ef.denominator != 1:
                raise NonIntegerExponent(f"xi*[beta]_s = {ef} at {beta} in {data.type}")
            e = int(ef)
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
    """Apply pi: e^{-alpha_i} -> e^{-alpha_{bar i}} by orbit-summing exponents."""
    if series.degree < degree:
        raise RankMismatch(f"series truncated at {series.degree} < requested {degree}")
    n = om.twisted.n
    node = [0] * (om.parent_rank + 1)     # parent slot -> twisted node; slot 0 stays 0
    for t, orb in enumerate(om.orbits, start=1):
        for i in orb:
            node[i] = t
    cut = series.degree > degree
    out: dict = {}
    for m, c in series.terms.items():
        if cut and sum(m) > degree:
            continue
        fm = [0] * (n + 1)
        for t, x in zip(node, m):
            fm[t] += x
        fm = tuple(fm)
        if fm in out:
            out[fm] += c
        else:
            out[fm] = c
    return CharSeries(rank=n, degree=degree, terms=out)


@dataclass(frozen=True)
class EqualityReport:
    equal: bool
    witness: tuple | None     # (monomial, coeff_a, coeff_b) at minimal height


def series_equal(a: CharSeries, b: CharSeries, degree: int) -> EqualityReport:
    """Exact coefficient comparison up to the given height, with first divergence."""
    if a.rank != b.rank:
        raise RankMismatch(f"rank {a.rank} vs {b.rank}")
    if a.degree < degree or b.degree < degree:
        raise RankMismatch("series not truncated deep enough for the comparison")
    # a series truncated at this degree is taken as is; the loop skips taller terms
    ta, tb = (x.terms if x.degree == degree else
              {m: c for m, c in x.terms.items() if sum(m) <= degree} for x in (a, b))
    worst = None
    if ta != tb:
        # the first divergence by (height, monomial); a stored 0 counts as absent
        for m in sorted(ta.keys() | tb.keys(), key=lambda m: (sum(m), m)):
            ca, cb = ta.get(m, 0), tb.get(m, 0)
            if ca != cb and sum(m) <= degree:
                worst = (m, ca, cb)
                break
    return EqualityReport(equal=worst is None, witness=worst)
