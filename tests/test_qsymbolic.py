"""q-integers, eta cancellations, l-weights, and the Serre coefficient checks."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from loomfold.qsymbolic import (
    EtaCase,
    LaurentPoly,
    NonIntegerCoefficient,
    NonzeroCoefficient,
    a_param,
    eta_case,
    psi_from_bc,
    psi_series_direct,
    q_power,
    qbinom,
    qint,
    serre_coeff_check,
)


def test_qint_values():
    assert qint(3) == q_power(2) + 1 + q_power(-2)
    assert qint(1) == LaurentPoly.one()
    assert qint(0).is_zero()
    assert qint(2, d=2) == q_power(2) + q_power(-2)
    assert qint(4) == q_power(3) + q_power(1) + q_power(-1) + q_power(-3)


def test_qint_multiplicativity():
    assert qint(2) * qint(3) == qint(4) + qint(2)
    assert qint(2, 3) * qint(3, 3) == qint(4, 3) + qint(2, 3)


def test_qbinom():
    assert qbinom(3, 1) == qint(3)
    assert qbinom(2, 1) == qint(2)
    # cross-check against factorial products: [4 2] [2]! [2]! = [4]!
    lhs = qbinom(4, 2) * qint(2) * qint(2)
    rhs = qint(4) * qint(3) * qint(2)
    assert lhs == rhs
    assert qbinom(5, 0) == LaurentPoly.one()
    assert qbinom(5, 5) == LaurentPoly.one()
    assert qbinom(3, 1, d=2) == qint(3, 2)


def test_laurent_arithmetic_exact():
    p = q_power(1) + 1
    assert (p - p).is_zero()
    assert p * 2 == 2 * q_power(1) + 2
    a = a_param()
    assert (a * a).terms == {(0, 2): 1}
    assert all(type(c) is int for c in (p * p).terms.values())
    with pytest.raises(NonIntegerCoefficient):
        q_power(1) + Fraction(1, 2)


def test_laurent_eq_foreign_value_is_false():
    one = LaurentPoly.one()
    assert (one == None) is False  # noqa: E711
    assert (one == "x") is False
    assert one != "x"


def test_laurent_constant_hashes_like_its_int():
    assert len({LaurentPoly.one(), 1}) == 1
    assert {LaurentPoly.zero(): "z"}[0] == "z"
    assert hash(qint(1) * 3) == hash(3)


def test_laurent_float_coefficient_rejected():
    with pytest.raises(NonIntegerCoefficient):
        q_power(1) * 0.5


def test_serre_fixed_cases():
    for case, count in (("i1j0_D", 2), ("i0j1_D", 2)):
        coeffs = serre_coeff_check(case)
        assert len(coeffs) == count
        assert all(p.is_zero() for p in coeffs)


def test_serre_generic():
    # a_ij = 0 is the two-term commuting check 1 - 1 = 0
    for p in serre_coeff_check("generic", a_ij=0):
        assert p.is_zero()
    for a_ij in (-1, -2, -3):
        for d_i in (1, 2, 3):
            for p in serre_coeff_check("generic", a_ij=a_ij, d_i=d_i):
                assert p.is_zero()
    with pytest.raises(ValueError):
        serre_coeff_check("generic", a_ij=1)
    with pytest.raises(ValueError):
        serre_coeff_check("bogus")


def test_eta_cancellation_families():
    for n in range(2, 11):
        for fam in ("A2n-1~2", "Dn+1~2"):
            for o in (1, -1):
                case = eta_case(fam, n, o=o)
                assert case.cancellation_ok
                bracket = q_power(-1) - q_power(-3)
                assert (case.c + case.b * bracket).is_zero()
                # b and c both vanish at a = 0: every term carries a
                assert all(ap >= 1 for (_, ap) in case.b.terms)
                assert all(ap >= 1 for (_, ap) in case.c.terms)


def test_eta_d32_example():
    # n = 2, o(2) = 1: eta_2 = q^-3 (1 - q^-2) and b_2 = -a q^-2
    case = eta_case("Dn+1~2", 2, o=1)
    assert case.eta == q_power(-3) - q_power(-5)
    assert case.b == -(a_param() * q_power(-2))
    assert case.c == a_param() * (q_power(-3) - q_power(-5))
    # the general (-1)^(n-1) formula agrees with the printed example at n=2
    assert case.eta == q_power(-3) * (1 - q_power(-2))


def test_eta_a2n12_values():
    case = eta_case("A2n-1~2", 3, o=1)
    assert case.b == -(a_param() * q_power(-4))
    assert case.c == a_param() * (q_power(-5) - q_power(-7))
    assert case.eta == q_power(-5) - q_power(-7)


def test_psi_branches():
    zero = LaurentPoly.zero()
    b = a_param() * q_power(-2)
    c = a_param() * q_power(-1)
    assert psi_from_bc("w", zero, c).kind == "constant"
    assert psi_from_bc("w", b, zero).kind == "polynomial"
    # pole branch: c = -b (q^-1 - q^-3)
    bracket = q_power(-1) - q_power(-3)
    assert psi_from_bc("w", b, -(b * bracket)).kind == "pole"
    assert psi_from_bc("w", b, c).kind == "generic"


def test_psi_d32_fixture():
    # b_2 = -a q^-2, c_2 = a q^-3 (1 - q^-2): Psi = 1/(1 - a q^-3(1-q^-2) z)
    b = -(a_param() * q_power(-2))
    c = a_param() * (q_power(-3) - q_power(-5))
    psi = psi_from_bc("w", b, c, o=1, d=1)
    assert psi.kind == "pole"
    assert psi.num[1].is_zero()
    assert psi.den[1] == -c


def test_psi_pole_series_two_routes():
    # rational-function expansion vs the direct recursion series, 10 terms
    for n in (2, 3, 5):
        for fam in ("A2n-1~2", "Dn+1~2"):
            case = eta_case(fam, n)
            psi = psi_from_bc("w", case.b, case.c, o=1, d=1)
            assert psi.kind == "pole"
            lhs = psi.expand(10)
            rhs = psi_series_direct(case.b, case.c, 1, 1, 10)
            assert lhs == rhs


def test_psi_generic_series_two_routes():
    b = a_param() * q_power(2)
    c = a_param() * q_power(5) + 3
    psi = psi_from_bc("w", b, c, o=-1, d=2)
    assert psi.expand(8) == psi_series_direct(b, c, -1, 2, 8)


def test_json_map_deterministic():
    case = eta_case("Dn+1~2", 2)
    m = case.c.json_map()
    assert m == {"-3": {"1": "1"}, "-5": {"1": "-1"}}


def test_drinfeld_step():
    from loomfold.cartan import build, twisted_types, build_affine
    from loomfold.folding import sigma_for
    from loomfold.qsymbolic import drinfeld_step

    d = build("E", 6, 2)
    assert [drinfeld_step(d, i) for i in range(1, 5)] == [1, 1, 2, 2]
    assert [drinfeld_step(build("D", 4, 3), i) for i in (1, 2)] == [1, 3]
    assert drinfeld_step(build("A", 4, 2), 1) == 1
    assert drinfeld_step(build("B", 3, 1), 2) == 1
    # sigma fixes node i exactly when r divides the step
    for at in twisted_types(8):
        data = build_affine(at)
        om = sigma_for(data)
        for t, orb in enumerate(om.orbits, start=1):
            fixed = len(orb) == 1
            assert fixed == (drinfeld_step(data, t) % at.r == 0)
            if not fixed:
                assert drinfeld_step(data, t) == 1


def test_drinfeld_step_names_a_non_integer_ratio_in_lowest_terms():
    from loomfold.qsymbolic import NonIntegerStep, drinfeld_step

    data = SimpleNamespace(type=SimpleNamespace(is_untwisted=False, is_a2n2=False),
                           kac=(1, 4), dual_kac=(1, 6))
    with pytest.raises(NonIntegerStep, match="= 3/2 is not an integer"):
        drinfeld_step(data, 1)
