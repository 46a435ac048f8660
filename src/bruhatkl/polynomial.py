"""Exact univariate integer polynomials with two basis views.

A polynomial is stored as a coefficient tuple in one of two bases:

* ``Basis.Q``   -- powers of q, so ``coeffs[n]`` is the coefficient of q^n;
* ``Basis.QM1`` -- powers of (q-1), so ``coeffs[n]`` is the coefficient of
  (q-1)^n.

Both views are plain power bases (in q, respectively in t = q-1), so
addition and multiplication are ordinary convolution within one basis.
Conversion between the bases never divides: the (q-1)-expansion is obtained
by iterated synthetic division by (q-1), and the inverse direction by
iterated synthetic division by (t+1), t = q-1.  All coefficients are Python
integers, hence arbitrary precision; no operation can overflow.

The zero polynomial is the empty coefficient tuple and has no degree.
Nonzero polynomials always carry a nonzero leading coefficient.

>>> p = IntPoly([-1, 2, -2, 1])          # q^3 - 2*q^2 + 2*q - 1
>>> str(p)
'q^3 - 2*q^2 + 2*q - 1'
>>> str(to_shifted(p))
'(q-1)^3 + (q-1)^2 + (q-1)'
>>> from_shifted(to_shifted(p)) == p
True
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence

__all__ = [
    "Basis",
    "IntPoly",
    "to_shifted",
    "from_shifted",
    "derivative_at_one",
    "eval_int",
    "is_palindromic",
    "coeff_dominated",
]


class Basis(Enum):
    """Basis tag: powers of q, or powers of (q-1)."""

    Q = "q"
    QM1 = "q-1"


def _trim(cs: list[int]) -> tuple[int, ...]:
    """The coefficients cs without trailing zeros, as a tuple."""
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _normalized(coeffs: Iterable[int]) -> tuple[int, ...]:
    """Validate integer coefficients and strip trailing zeros."""
    out = []
    for c in coeffs:
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError(f"integer coefficient expected, got {c!r}")
        out.append(c)
    return _trim(out)


def _expand_at(cs: Sequence[int], at: int) -> tuple[int, ...]:
    """Trimmed coefficients, in powers of (x - at), of the polynomial with
    coefficients cs in powers of x.

    Coefficient n is the remainder of the n-th synthetic division by
    (x - at), so the index of the first nonzero one is the multiplicity of
    (x - at) as a factor.  Division n runs in place on c[n:]: it leaves the
    remainder, the value at x = at, in c[n] and the quotient in c[n+1:].
    """
    c = list(cs)
    for n in range(len(c) - 1):
        for k in range(len(c) - 2, n - 1, -1):
            c[k] += at * c[k + 1]
    return _trim(c)


def _to_shifted(cs: Sequence[int]) -> tuple[int, ...]:
    """Trimmed (q-1)-coefficients of the power-basis coefficients cs."""
    return _expand_at(cs, 1)


def _from_shifted(cs: Sequence[int]) -> tuple[int, ...]:
    """Trimmed power-basis coefficients of the (q-1)-coefficients cs: in
    t = q-1, powers of q are powers of t - (-1)."""
    return _expand_at(cs, -1)


def _addmul_into(acc: list[int], a: Sequence[int], b: Sequence[int]) -> None:
    """acc += a * b: convolution of two coefficient sequences into acc."""
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                acc[i + j] += ai * bj


class IntPoly:
    """Immutable integer polynomial with an explicit basis tag.

    Arithmetic requires matching basis tags; mixing them raises ValueError.
    Equality and hashing compare the (basis, coeffs) pair.
    """

    __slots__ = ("coeffs", "basis")

    coeffs: tuple[int, ...]
    basis: Basis

    def __init__(self, coeffs: Iterable[int] = (), basis: Basis = Basis.Q):
        object.__setattr__(self, "coeffs", _normalized(coeffs))
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, basis: Basis = Basis.Q) -> "IntPoly":
        return cls((), basis)

    @classmethod
    def const(cls, c: int, basis: Basis = Basis.Q) -> "IntPoly":
        return cls((c,), basis)

    @classmethod
    def monomial(cls, n: int, c: int = 1, basis: Basis = Basis.Q) -> "IntPoly":
        """c * q^n, or c * (q-1)^n in the shifted basis."""
        if n < 0:
            raise ValueError("nonnegative exponent required")
        return cls((0,) * n + (c,), basis)

    @classmethod
    def q_power(cls, n: int) -> "IntPoly":
        return cls.monomial(n, basis=Basis.Q)

    @classmethod
    def q_minus_one_power(cls, n: int) -> "IntPoly":
        """(q-1)^n expanded in the power basis."""
        return from_shifted(cls.monomial(n, basis=Basis.QM1))

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of a nonzero polynomial; the zero polynomial has none."""
        if not self.coeffs:
            raise ValueError("degree of the zero polynomial is undefined")
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> int:
        """Coefficient of index n in this polynomial's own basis (0 if absent)."""
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.basis is other.basis and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.basis, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _check_basis(self, other: "IntPoly") -> None:
        if self.basis is not other.basis:
            raise ValueError(
                f"basis mismatch: {self.basis.value} vs {other.basis.value}"
            )

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        self._check_basis(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out, self.basis)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs), self.basis)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        self._check_basis(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly.zero(self.basis)
        out = [0] * (len(a) + len(b) - 1)
        _addmul_into(out, a, b)
        return IntPoly(out, self.basis)

    # -- calculus at q = 1 ---------------------------------------------

    def formal_derivative(self) -> "IntPoly":
        """d/dq, valid in either basis since d(q-1)/dq = 1."""
        return IntPoly(
            tuple(k * c for k, c in enumerate(self.coeffs))[1:], self.basis
        )

    # -- rendering ------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        var = "q" if self.basis is Basis.Q else "(q-1)"
        parts: list[str] = []
        for n in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[n]
            if c == 0:
                continue
            mag = abs(c)
            if n == 0:
                body = str(mag)
            else:
                power = var if n == 1 else f"{var}^{n}"
                body = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r}, basis={self.basis.value!r})"

    def to_json(self) -> dict:
        return {"basis": self.basis.value, "coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, obj: dict) -> "IntPoly":
        basis = Basis(obj["basis"])
        return cls(obj["coeffs"], basis)


# -- module-level operations ------------------------------------------


def to_shifted(p: IntPoly) -> IntPoly:
    """Re-expand a power-basis polynomial in powers of (q-1).

    Coefficient n of the result is the n-th Taylor coefficient of p at 1,
    obtained by iterated synthetic division so no division by n! occurs.

    >>> to_shifted(IntPoly([1, -1, 1])).coeffs      # q^2 - q + 1
    (1, 1, 1)
    """
    if p.basis is not Basis.Q:
        raise ValueError("to_shifted expects a power-basis polynomial")
    return IntPoly(_to_shifted(p.coeffs), Basis.QM1)


def from_shifted(p: IntPoly) -> IntPoly:
    """Expand a (q-1)-basis polynomial back into powers of q.

    >>> from_shifted(IntPoly([0, 1, 1, 1], Basis.QM1)).coeffs
    (-1, 2, -2, 1)
    """
    if p.basis is not Basis.QM1:
        raise ValueError("from_shifted expects a shifted-basis polynomial")
    return IntPoly(_from_shifted(p.coeffs), Basis.Q)


def _shifted_view(p: IntPoly) -> tuple[int, ...]:
    return p.coeffs if p.basis is Basis.QM1 else to_shifted(p).coeffs


def derivative_at_one(p: IntPoly, k: int) -> int:
    """k-th derivative evaluated at q = 1, exactly.

    Equals k! times the coefficient of (q-1)^k, so it is computed from the
    shifted view by an exact multiplication, never a division.
    """
    if k < 0:
        raise ValueError("nonnegative derivative order required")
    shifted = _shifted_view(p)
    if k >= len(shifted):
        return 0
    fact = 1
    for i in range(2, k + 1):
        fact *= i
    return fact * shifted[k]


def eval_int(p: IntPoly, c: int) -> int:
    """Exact evaluation at an integer point (Horner)."""
    x = c if p.basis is Basis.Q else c - 1
    acc = 0
    for a in reversed(p.coeffs):
        acc = acc * x + a
    return acc


def is_palindromic(p: IntPoly) -> bool:
    """Whether the coefficient sequence reads the same reversed.

    Defined for nonzero power-basis polynomials only.
    """
    if p.is_zero:
        raise ValueError("palindromicity of the zero polynomial is undefined")
    if p.basis is not Basis.Q:
        raise ValueError("is_palindromic expects a power-basis polynomial")
    return p.coeffs == tuple(reversed(p.coeffs))


def coeff_dominated(p: IntPoly, r: IntPoly, basis: Basis) -> bool:
    """Whether every coefficient of p is <= the matching coefficient of r.

    Both polynomials are viewed in the requested basis; missing coefficients
    read as 0.
    """

    def view(x: IntPoly) -> tuple[int, ...]:
        if x.basis is basis:
            return x.coeffs
        if basis is Basis.QM1:
            return to_shifted(x).coeffs
        return from_shifted(x).coeffs

    a, b = view(p), view(r)
    n = max(len(a), len(b))
    for i in range(n):
        if (a[i] if i < len(a) else 0) > (b[i] if i < len(b) else 0):
            return False
    return True
