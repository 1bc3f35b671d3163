"""q-integers, eta cancellations, l-weights, and the Serre coefficient checks."""

from fractions import Fraction

import pytest

from loomfold import qsymbolic
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
from loomfold.verify import qsymbolic_cells


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
    assert (one == True) is False  # noqa: E712
    assert one != "x"


def test_laurent_constant_hashes_like_its_int():
    assert len({LaurentPoly.one(), 1}) == 1
    assert {LaurentPoly.zero(): "z"}[0] == "z"
    assert hash(qint(1) * 3) == hash(3)


def test_laurent_float_coefficient_rejected():
    with pytest.raises(NonIntegerCoefficient):
        q_power(1) * 0.5
    # bool is an int subclass, but True is no coefficient
    with pytest.raises(NonIntegerCoefficient, match="True"):
        LaurentPoly({(0, 0): True, (1, 0): 2})
    with pytest.raises(NonIntegerCoefficient):
        LaurentPoly.term(True)
    with pytest.raises(NonIntegerCoefficient):
        q_power(1) + False


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



def test_qsymbolic_cell_checks_the_pole_of_psi():
    assert list(qsymbolic_cells()) == [("qsymbolic", "identities", True, "")]



def _failing_cell(monkeypatch, name, fake):
    monkeypatch.setattr(qsymbolic, name, fake)
    [(suite, label, ok, detail)] = qsymbolic_cells()
    assert (suite, label, ok) == ("qsymbolic", "identities", False)
    return detail


@pytest.mark.parametrize("doubled, where", [((1, -1), "A2n-1~2 n=2 o=1"),
                                            ((-1,), "A2n-1~2 n=2 o=-1")])
def test_qsymbolic_cell_names_a_psi_that_is_no_pole(monkeypatch, doubled, where):
    # doubling c leaves c + b (q^-1 - q^-3) = c, so Psi(z) has a numerator
    def psi(omega, b, c, o=1, d=1):
        return psi_from_bc(omega, b, 2 * c if o in doubled else c, o, d)
    detail = _failing_cell(monkeypatch, "psi_from_bc", psi)
    assert detail == f"Psi(z) is generic, not a single pole for {where}"


def test_qsymbolic_cell_names_a_pole_away_from_a_eta(monkeypatch):
    def case(family, n, o=1):
        ec = eta_case(family, n, o)
        return ec._replace(eta=2 * ec.eta) if (family, n, o) == ("Dn+1~2", 7, -1) else ec
    detail = _failing_cell(monkeypatch, "eta_case", case)
    assert detail == "the pole of Psi(z) is not at z = 1/(a*eta) for Dn+1~2 n=7 o=-1"


def test_qsymbolic_cell_names_a_series_mismatch(monkeypatch):
    def direct(b, c, o, d, nterms):
        return psi_series_direct(b, c, o, d, nterms - 1) + [LaurentPoly.zero()]
    detail = _failing_cell(monkeypatch, "psi_series_direct", direct)
    assert detail == "Psi(z) expands differently from the direct series for A2n-1~2 n=2 o=1"
