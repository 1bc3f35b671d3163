"""Exact Laurent polynomials in q with a formal spectral parameter a.

Everything here is exact integer arithmetic, and a coefficient that is not
an int is rejected: q-integers, balanced Gaussian binomials, the l-weight
rational function Psi(z) built from (omega, b, c, o, d), the eta
cancellation data for the two minuscule twisted families, and the quantum
Serre coefficient checks.  The sign o(i) and the parameter a stay formal
throughout; a is never specialized to a number.
"""

from __future__ import annotations

from typing import NamedTuple

from .cartan import VerificationFailure


class NonzeroCoefficient(VerificationFailure):
    """A coefficient combination that must vanish identically did not."""


class NonIntegerCoefficient(ValueError):
    """A LaurentPoly coefficient that is not an int, such as 1/2, 0.5 or True."""


class LaurentPoly:
    """Map (q-power, a-power) -> int, zero entries never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if not isinstance(c, int) or isinstance(c, bool):
                    raise NonIntegerCoefficient(f"coefficient {c!r} is not an integer")
                if c:
                    self.terms[key] = c

    @classmethod
    def term(cls, coeff=1, qpow=0, apow=0) -> "LaurentPoly":
        return cls({(qpow, apow): coeff})

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.term(1)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        out: dict = {}
        for (q1, a1), c1 in self.terms.items():
            for (q2, a2), c2 in other.terms.items():
                key = (q1 + q2, a1 + a2)
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, (LaurentPoly, int)) or isinstance(other, bool):
            return NotImplemented
        return self.terms == _coerce(other).terms

    def __hash__(self):
        # a constant equals its int, so it hashes like it
        if self.terms.keys() <= {(0, 0)}:
            return hash(self.terms.get((0, 0), 0))
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (qp, ap) in sorted(self.terms):
            c = self.terms[(qp, ap)]
            part = str(c)
            if qp:
                part += f"*q^{qp}"
            if ap:
                part += f"*a^{ap}" if ap != 1 else "*a"
            bits.append(part)
        return " + ".join(bits)

    def json_map(self) -> dict:
        """{q_power: {a_power: "c"}}, the int c in decimal, string keys, deterministic."""
        out: dict = {}
        for (qp, ap), c in sorted(self.terms.items()):
            out.setdefault(str(qp), {})[str(ap)] = str(c)
        return out


def _coerce(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    return LaurentPoly.term(x)


def q_power(k: int) -> LaurentPoly:
    return LaurentPoly.term(1, qpow=k)


def a_param(power: int = 1) -> LaurentPoly:
    return LaurentPoly.term(1, apow=power)


def qint(m: int, d: int = 1) -> LaurentPoly:
    """[m]_{q_i} with q_i = q^d: the balanced sum q^{d(m-1)} + ... + q^{-d(m-1)}."""
    out: dict = {}
    for j in range(m):
        out[(d * (m - 1 - 2 * j), 0)] = 1
    return LaurentPoly(out)


def qbinom(n: int, k: int, d: int = 1) -> LaurentPoly:
    """Balanced Gaussian binomial [n over k]_{q_i}.

    Recurrence [n,k] = q_i^k [n-1,k] + q_i^{-(n-k)} [n-1,k-1].
    """
    if k < 0 or k > n:
        return LaurentPoly.zero()
    row = [LaurentPoly.one()]
    for nn in range(1, n + 1):
        new = [LaurentPoly.one()]
        for kk in range(1, nn):
            new.append(q_power(d * kk) * row[kk] + q_power(-d * (nn - kk)) * row[kk - 1])
        new.append(LaurentPoly.one())
        row = new
    return row[k]


class EllWeight(NamedTuple):
    """Psi(z) = omega * num(z)/den(z) with degree <= 1 numerator and denominator.

    Coefficients live in z^d-steps, d as in psi_from_bc; omega stays a formal tag.
    """

    omega: str
    num: tuple       # (LaurentPoly, LaurentPoly): constant and z^d coefficient
    den: tuple
    kind: str        # constant | polynomial | pole | generic

    def expand(self, nterms: int) -> list[LaurentPoly]:
        """Coefficients of z^0, z^d, z^{2d}, ..., omega-normalized.

        num/den expanded geometrically: den = 1 - u z^d gives 1/den = sum u^k.
        """
        u = -self.den[1]
        out = []
        powers = [LaurentPoly.one()]
        for _ in range(nterms - 1):
            powers.append(powers[-1] * u)
        for k in range(nterms):
            c = self.num[0] * powers[k] if k < len(powers) else LaurentPoly.zero()
            if k >= 1:
                c = c + self.num[1] * powers[k - 1]
            out.append(c)
        return out


def psi_from_bc(omega: str, b: LaurentPoly, c: LaurentPoly, o: int = 1,
                d: int = 1) -> EllWeight:
    """The l-weight of a vector with E_a E_{d delta - a} v = b v, E_{2 d delta - a} v = c E_{d delta - a} v.

    Psi(z) = omega (1 - (c + b(q_i^{-1} - q_i^{-3})) o z^{d}) / (1 - o c z^{d}).
    """
    bracket = q_power(-d) - q_power(-3 * d)
    num1 = -(c + b * bracket) * o
    den1 = -(c * o)
    if b.is_zero():
        kind = "constant"
    elif c.is_zero():
        kind = "polynomial"
    elif (c + b * bracket).is_zero():
        kind = "pole"
    else:
        kind = "generic"
    return EllWeight(omega=omega, num=(LaurentPoly.one(), num1),
                     den=(LaurentPoly.one(), den1), kind=kind)


def psi_series_direct(b: LaurentPoly, c: LaurentPoly, o: int, d: int,
                      nterms: int) -> list[LaurentPoly]:
    """Independent series: 1 - b(q_i^{-1}-q_i^{-3}) sum_{k>=1} o^k c^{k-1} z^{dk}."""
    bracket = q_power(-d) - q_power(-3 * d)
    out = [LaurentPoly.one()]
    cpow = LaurentPoly.one()
    for k in range(1, nterms):
        out.append(-(b * bracket) * (o ** k) * cpow)
        cpow = cpow * c
    return out


class EtaCase(NamedTuple):
    family: str          # "A2n-1~2" or "Dn+1~2"
    n: int
    o: int
    b: LaurentPoly
    c: LaurentPoly
    eta: LaurentPoly
    cancellation_ok: bool


def eta_case(family: str, n: int, o: int = 1) -> EtaCase:
    """b_s, c_s and eta_s for the minuscule node of the two twisted families.

    A_{2n-1}^(2) (s = 1):  b = -a q^{-2n+2},  c = a(q^{-2n+1} - q^{-2n-1}),
                           eta = o (q^{-2n+1} - q^{-2n-1}).
    D_{n+1}^(2)  (s = n):  b = (-1)^{n-1} a q^{-2n+2},
                           c = (-1)^{n-1} a (q^{-2n-1} - q^{-2n+1}),
                           eta = (-1)^{n-1} o (q^{-2n-1} - q^{-2n+1}).
    The minuscule node is short in both families, so q_s = q.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    a = a_param()
    if family == "A2n-1~2":
        b = -(a * q_power(-2 * n + 2))
        c = a * (q_power(-2 * n + 1) - q_power(-2 * n - 1))
        eta = o * (q_power(-2 * n + 1) - q_power(-2 * n - 1))
    elif family == "Dn+1~2":
        sign = (-1) ** (n - 1)
        b = sign * a * q_power(-2 * n + 2)
        c = sign * a * (q_power(-2 * n - 1) - q_power(-2 * n + 1))
        eta = sign * o * (q_power(-2 * n - 1) - q_power(-2 * n + 1))
    else:
        raise ValueError(f"unknown family {family!r}")
    bracket = q_power(-1) - q_power(-3)
    ok = (c + b * bracket).is_zero()
    return EtaCase(family=family, n=n, o=o, b=b, c=c, eta=eta, cancellation_ok=ok)


# serre_coeff_check's cases as (name, kwargs): serre-check reports all of them
# under these names, and verify-all's qsymbolic cell checks the first two, the D cases
_SERRE_CASES = (
    ("i1j0_D", {"case": "i1j0_D"}),
    ("i0j1_D", {"case": "i0j1_D"}),
    *((f"generic(a_ij={a_ij},d_i={d_i})", {"case": "generic", "a_ij": a_ij, "d_i": d_i})
      for a_ij, d_i in ((0, 1), (-1, 1), (-1, 2), (-2, 1), (-3, 1))),
)


def serre_coeff_check(case: str, a_ij: int | None = None, d_i: int = 1) -> list[LaurentPoly]:
    """Coefficient combinations that the quantum Serre relation forces to zero.

    "i1j0_D": the pair from e_1^2 e_0 - (q^2+q^{-2}) e_1 e_0 e_1 + e_0 e_1^2
    acting through (e_1')^2(u) x_0 and e_1'(u) e_1'(x_0).
    "i0j1_D": the pair from the a_{01} = -2 relation, with [3]_q = q^2+1+q^{-2}.
    "generic": the alternating Gaussian-binomial sums
        sum_m (-1)^m [N, m]_{q_i} q_i^{±m(N-1)}  with N = 1 - a_ij,
    which govern the x_0-free coefficients for any Cartan entry.
    Raises NonzeroCoefficient if any returned polynomial is nonzero.
    """
    q2 = q_power(2)
    qm2 = q_power(-2)
    if case == "i1j0_D":
        coeffs = [
            1 - (q2 + qm2) * qm2 + q_power(-4),
            (1 + q_power(4)) - (q2 + qm2) * q2,
        ]
    elif case == "i0j1_D":
        three = qint(3)
        coeffs = [
            1 - three * q2 + three * q_power(4) - q_power(6),
            -three + (1 + qm2) * three - (1 + qm2 + q_power(-4)),
        ]
    elif case == "generic":
        if a_ij is None or a_ij > 0:
            raise ValueError("generic case needs a valid off-diagonal Cartan entry a_ij <= 0")
        big_n = 1 - a_ij
        coeffs = []
        for sign in (-1, 1):
            total = LaurentPoly.zero()
            for m in range(big_n + 1):
                total = total + ((-1) ** m) * qbinom(big_n, m, d_i) * q_power(sign * d_i * m * (big_n - 1))
            coeffs.append(total)
    else:
        raise ValueError(f"unknown case {case!r}")
    for p in coeffs:
        if not p.is_zero():
            raise NonzeroCoefficient(f"case {case}: nonzero coefficient {p!r}")
    return coeffs
