"""Exact univariate integer polynomials with two basis views.

The library computes on trimmed coefficient tuples; ``IntPoly`` is the
type it prints and writes as JSON.  A polynomial is stored as a
coefficient tuple in one of two bases:

* ``Basis.Q``   -- powers of q, so ``coeffs[n]`` is the coefficient of q^n;
* ``Basis.QM1`` -- powers of (q-1), so ``coeffs[n]`` is the coefficient of
  (q-1)^n.

Both views are plain power bases (in q, respectively in t = q-1).
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.basis is other.basis and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.basis, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

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
