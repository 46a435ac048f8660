"""Unit and randomized tests for the two-basis integer polynomial core."""

import doctest
import random

import pytest

import bruhatkl.polynomial
from bruhatkl.polynomial import (
    Basis,
    IntPoly,
    coeff_dominated,
    derivative_at_one,
    eval_int,
    from_shifted,
    is_palindromic,
    to_shifted,
)


def P(*coeffs):
    return IntPoly(coeffs, Basis.Q)


def S(*coeffs):
    return IntPoly(coeffs, Basis.QM1)


Q_CUBE = P(-1, 2, -2, 1)  # q^3 - 2*q^2 + 2*q - 1


def test_doctests():
    failures, _ = doctest.testmod(bruhatkl.polynomial)
    assert failures == 0


def test_normalization_and_zero():
    assert P(1, 2, 0, 0).coeffs == (1, 2)
    z = IntPoly.zero()
    assert z.is_zero and z.coeffs == ()
    with pytest.raises(ValueError):
        z.degree
    assert P(0, 0, 3).degree == 2


def test_add_examples():
    q_minus_1 = P(-1, 1)
    assert q_minus_1 + q_minus_1 == P(-2, 2)
    p = P(5, -3, 7)
    assert p + IntPoly.zero() == p
    # (q^2 - q + 1) + (q - 1) = q^2
    assert P(1, -1, 1) + q_minus_1 == P(0, 0, 1)


def test_add_basis_mismatch():
    with pytest.raises(ValueError):
        P(1) + S(1)
    with pytest.raises(ValueError):
        P(1) * S(1)


def test_mul_examples():
    # (q-1)*(q^2-q+1) = q^3 - 2*q^2 + 2*q - 1
    assert P(-1, 1) * P(1, -1, 1) == Q_CUBE
    p = P(4, 0, -2, 9)
    assert p * IntPoly.const(1) == p
    # (q-1)^3 = q^3 - 3*q^2 + 3*q - 1
    qm1 = P(-1, 1)
    assert qm1 * qm1 * qm1 == P(-1, 3, -3, 1)
    assert IntPoly.q_minus_one_power(3) == P(-1, 3, -3, 1)


def test_to_shifted_examples():
    assert to_shifted(P(1, -1, 1)) == S(1, 1, 1)
    assert to_shifted(IntPoly.const(1)) == S(1)
    # q^3 = ((q-1)+1)^3
    assert to_shifted(P(0, 0, 0, 1)) == S(1, 3, 3, 1)
    assert to_shifted(IntPoly.zero()) == IntPoly.zero(Basis.QM1)


def test_from_shifted_examples():
    assert from_shifted(S(0, 1, 1, 1)) == Q_CUBE
    assert from_shifted(S(-7)) == P(-7)
    # (q-1)^5 expanded: alternating binomials
    assert from_shifted(S(0, 0, 0, 0, 0, 1)) == P(-1, 5, -10, 10, -5, 1)


def test_basis_guards():
    with pytest.raises(ValueError):
        to_shifted(S(1))
    with pytest.raises(ValueError):
        from_shifted(P(1))


def test_derivative_at_one_examples():
    assert derivative_at_one(Q_CUBE, 1) == 1
    assert derivative_at_one(Q_CUBE, 2) == 2
    assert derivative_at_one(Q_CUBE, 9) == 0
    assert derivative_at_one(P(2, 5), 0) == 7
    # works on shifted input directly
    assert derivative_at_one(S(0, 1, 1, 1), 2) == 2


def test_eval_int_examples():
    for ell in range(1, 6):
        assert eval_int(IntPoly.q_minus_one_power(ell), 1) == 0
    assert eval_int(P(1, 1), 1) == 2
    assert eval_int(Q_CUBE, 2) == 3
    assert eval_int(S(1, 2), 3) == 5  # 1 + 2*(3-1)
    assert eval_int(IntPoly.zero(), 12345) == 0


def test_is_palindromic():
    assert is_palindromic(P(1, -1, 1))
    assert is_palindromic(P(1, 1))
    assert not is_palindromic(P(1, 2))
    with pytest.raises(ValueError):
        is_palindromic(IntPoly.zero())
    with pytest.raises(ValueError):
        is_palindromic(S(1, 1))


def test_coeff_dominated():
    assert coeff_dominated(IntPoly.q_minus_one_power(3), Q_CUBE, Basis.QM1)
    p = P(3, 0, -5)
    assert coeff_dominated(p, p, Basis.Q)
    assert coeff_dominated(p, p, Basis.QM1)
    # shifted views: (0,1,1,1) vs (1,3,3,1)
    assert coeff_dominated(Q_CUBE, IntPoly.q_power(3), Basis.QM1)
    assert not coeff_dominated(IntPoly.q_power(3), Q_CUBE, Basis.QM1)
    # mixed-basis arguments are converted to the requested view
    assert coeff_dominated(S(0, 1, 1, 1), IntPoly.q_power(3), Basis.QM1)


def test_rendering():
    assert str(Q_CUBE) == "q^3 - 2*q^2 + 2*q - 1"
    assert str(to_shifted(Q_CUBE)) == "(q-1)^3 + (q-1)^2 + (q-1)"
    assert str(IntPoly.zero()) == "0"
    assert str(P(1)) == "1"
    assert str(P(-2, -1)) == "-q - 2"
    assert str(S(4, -3)) == "-3*(q-1) + 4"


def test_json_round_trip():
    for p in (Q_CUBE, S(0, 2, 5), IntPoly.zero()):
        assert IntPoly.from_json(p.to_json()) == p
    assert Q_CUBE.to_json() == {"basis": "q", "coeffs": [-1, 2, -2, 1]}


def _random_poly(rng, max_deg=12):
    deg = rng.randrange(max_deg + 1)
    coeffs = [rng.randint(-50, 50) for _ in range(deg + 1)]
    if rng.random() < 0.05:
        coeffs[rng.randrange(len(coeffs))] = rng.randint(-(10**20), 10**20)
    return IntPoly(coeffs, Basis.Q)


def test_randomized_invariants():
    rng = random.Random(20130470)
    for _ in range(500):
        p = _random_poly(rng)
        r = _random_poly(rng)
        sp, sr = to_shifted(p), to_shifted(r)
        assert from_shifted(sp) == p
        assert to_shifted(p * r) == sp * sr
        assert to_shifted(p + r) == sp + sr
        assert eval_int(p, 1) == sp.coeff(0)
        k = rng.randrange(6)
        d = p
        for _ in range(k):
            d = d.formal_derivative()
        assert derivative_at_one(p, k) == eval_int(d, 1)
