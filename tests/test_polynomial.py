"""Unit and randomized tests for the two-basis integer polynomial core."""

import doctest
import random
import sys
from math import factorial, perm
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from reference_checks import add, mul  # noqa: E402

import bruhatkl.polynomial  # noqa: E402
from bruhatkl.klr import _at, _digits  # noqa: E402
from bruhatkl.polynomial import (  # noqa: E402
    Basis,
    IntPoly,
    from_shifted,
    to_shifted,
)
from bruhatkl.theorems import _dominates  # noqa: E402


def P(*coeffs):
    return IntPoly(coeffs, Basis.Q)


def S(*coeffs):
    return IntPoly(coeffs, Basis.QM1)


Q_CUBE = P(-1, 2, -2, 1)  # q^3 - 2*q^2 + 2*q - 1


def derivative_at_one(cs, k):
    """k-th derivative at q = 1 of the power-basis coefficients cs."""
    return sum(perm(n, k) * c for n, c in enumerate(cs))


def test_doctests():
    failures, _ = doctest.testmod(bruhatkl.polynomial)
    assert failures == 0


def test_normalization_and_zero():
    assert P(1, 2, 0, 0).coeffs == (1, 2)
    z = P(0, 0)
    assert z.coeffs == () and not z and z == IntPoly()
    assert P(0, 0, 3).coeffs == (0, 0, 3)
    with pytest.raises(TypeError):
        P(1, True)


def test_add_examples():
    # tuple arithmetic of the coefficient-form test reference
    q_minus_1 = (-1, 1)
    assert add(q_minus_1, q_minus_1) == (-2, 2)
    assert add((5, -3, 7), ()) == (5, -3, 7)
    # (q^2 - q + 1) + (q - 1) = q^2
    assert add((1, -1, 1), q_minus_1) == (0, 0, 1)
    assert add((1, 1), (0, -1)) == (1,)


def test_mul_examples():
    # (q-1)*(q^2-q+1) = q^3 - 2*q^2 + 2*q - 1
    assert mul((-1, 1), (1, -1, 1)) == Q_CUBE.coeffs
    assert mul((4, 0, -2, 9), (1,)) == (4, 0, -2, 9)
    assert mul((4, 0, -2, 9), ()) == ()
    # (q-1)^3 = q^3 - 3*q^2 + 3*q - 1
    qm1 = (-1, 1)
    assert mul(mul(qm1, qm1), qm1) == (-1, 3, -3, 1)


def test_to_shifted_examples():
    assert to_shifted(P(1, -1, 1)) == S(1, 1, 1)
    assert to_shifted(P(1)) == S(1)
    # q^3 = ((q-1)+1)^3
    assert to_shifted(P(0, 0, 0, 1)) == S(1, 3, 3, 1)
    assert to_shifted(P()) == S()


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
    # coefficient k of the (q-1)-expansion is the k-th derivative at 1 over k!
    sh = to_shifted(Q_CUBE).coeffs
    assert sh == (0, 1, 1, 1)
    assert [factorial(k) * c for k, c in enumerate(sh)] == [
        derivative_at_one(Q_CUBE.coeffs, k) for k in range(4)
    ] == [0, 1, 2, 6]
    assert derivative_at_one(Q_CUBE.coeffs, 9) == 0
    assert to_shifted(P(2, 5)).coeffs[0] == derivative_at_one((2, 5), 0) == 7


def test_eval_int_examples():
    # the library evaluates at q = 2^bits, and reads a value back in
    # signed base-2^bits digits; bits = 0 evaluates at q = 1
    for ell in range(1, 6):
        assert _at(from_shifted(S(*[0] * ell, 1)).coeffs, 0) == 0
    assert _at((1, 1), 0) == 2
    assert _at(Q_CUBE.coeffs, 1) == 3
    assert _at((), 12) == 0
    for cs in (Q_CUBE.coeffs, (5, 0, -7), (-3,), ()):
        assert _digits(_at(cs, 4), 4) == cs


def test_coeff_dominated():
    # the coefficientwise order of kl_monotone: missing entries read as 0
    q3, cube = to_shifted(P(0, 0, 0, 1)).coeffs, to_shifted(Q_CUBE).coeffs
    assert _dominates(q3, cube) and not _dominates(cube, q3)
    p = (3, 0, -5)
    assert _dominates(p, p)
    assert _dominates((1,), (1, 0, -1)) and not _dominates((1,), (1, 1))
    assert _dominates((2, 1), (1,))


def test_rendering():
    assert str(Q_CUBE) == "q^3 - 2*q^2 + 2*q - 1"
    assert str(to_shifted(Q_CUBE)) == "(q-1)^3 + (q-1)^2 + (q-1)"
    assert str(P()) == "0"
    assert str(P(1)) == "1"
    assert str(P(-2, -1)) == "-q - 2"
    assert str(S(4, -3)) == "-3*(q-1) + 4"


def test_json_round_trip():
    # what a reader of the CLI's JSON rebuilds
    for p in (Q_CUBE, S(0, 2, 5), P()):
        obj = p.to_json()
        assert IntPoly(obj["coeffs"], Basis(obj["basis"])) == p
    assert Q_CUBE.to_json() == {"basis": "q", "coeffs": [-1, 2, -2, 1]}


def _random_coeffs(rng, max_deg=12):
    deg = rng.randrange(max_deg + 1)
    coeffs = [rng.randint(-50, 50) for _ in range(deg + 1)]
    if rng.random() < 0.05:
        coeffs[rng.randrange(len(coeffs))] = rng.randint(-(10**20), 10**20)
    return P(*coeffs).coeffs


def test_randomized_invariants():
    rng = random.Random(20130470)
    for _ in range(500):
        p, r = _random_coeffs(rng), _random_coeffs(rng)
        sp, sr = to_shifted(P(*p)).coeffs, to_shifted(P(*r)).coeffs
        assert from_shifted(S(*sp)).coeffs == p
        assert to_shifted(P(*mul(p, r))).coeffs == mul(sp, sr)
        assert to_shifted(P(*add(p, r))).coeffs == add(sp, sr)
        assert _at(p, 0) == (sp[0] if sp else 0)
        k = rng.randrange(6)
        assert derivative_at_one(p, k) == factorial(k) * (sp[k] if k < len(sp) else 0)
