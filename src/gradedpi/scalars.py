"""Exact arithmetic in the cyclotomic field Q(zeta_N).

A scalar is a residue in Q[x]/Phi_N(x) stored as a coefficient vector of
length phi(N) over exact rationals.  All structure constants and polynomial
coefficients in the package live here; there is no floating point anywhere,
so zero tests are exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

from .errors import InexactDivisionError, OrderMismatchError


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _poly_div_exact(num: Sequence[int], den: Sequence[int]) -> tuple[int, ...]:
    """Divide integer polynomials known to divide exactly (ascending coeffs)."""
    num = list(num)
    dn = len(den) - 1
    if den[-1] != 1:
        raise InexactDivisionError("divisor must be monic")
    quot = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        quot[i - dn] = c
        if c:
            for j, d in enumerate(den):
                num[i - dn + j] -= c * d
    if any(num):
        raise InexactDivisionError("inexact polynomial division")
    return tuple(quot)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree, monic."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (-1, 1)
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d
    num: Sequence[int] = tuple([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            num = _poly_div_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def _reduce_mod_phi(order: int, coeffs: list) -> tuple:
    """Remainder mod Phi_order of Fraction or int coefficients (ascending);
    int input of length >= phi(order) stays int."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(deg + 1):
                coeffs[i - deg + j] -= c * phi[j]
    out = coeffs[:deg]
    out += [Fraction(0)] * (deg - len(out))
    return tuple(out)


class CycScalar:
    """An element of Q(zeta_N) in canonical (fully reduced) form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Fraction | int]):
        if order < 1:
            raise ValueError("order must be positive")
        vec = [Fraction(c) for c in coeffs]
        deg = euler_phi(order)
        if len(vec) != deg:
            raise ValueError(f"expected {deg} coefficients for order {order}, got {len(vec)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(vec))

    def __setattr__(self, name, value):
        raise AttributeError("CycScalar is immutable")

    @classmethod
    def from_poly(cls, order: int, coeffs: Iterable[Fraction | int]) -> "CycScalar":
        """Build from an arbitrary-length polynomial in zeta, reducing mod Phi."""
        return cls(order, _reduce_mod_phi(order, [Fraction(c) for c in coeffs]))

    @classmethod
    def zero(cls, order: int) -> "CycScalar":
        return cls(order, [0] * euler_phi(order))

    @classmethod
    def one(cls, order: int) -> "CycScalar":
        return cls.from_poly(order, [1])

    @classmethod
    def from_rational(cls, order: int, value: Fraction | int) -> "CycScalar":
        return cls.from_poly(order, [Fraction(value)])

    @classmethod
    def from_scaled_ints(cls, order: int, ints: Sequence[int], scale: int) -> "CycScalar":
        """Inverse of scaled_ints: the scalar with power-basis coordinates
        ints / scale."""
        return cls(order, [Fraction(c, scale) for c in ints])

    def _check_order(self, other: "CycScalar") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"cyclotomic orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other: "CycScalar") -> "CycScalar":
        self._check_order(other)
        return CycScalar(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "CycScalar") -> "CycScalar":
        self._check_order(other)
        return CycScalar(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "CycScalar":
        return CycScalar(self.order, [-a for a in self.coeffs])

    def __mul__(self, other: "CycScalar") -> "CycScalar":
        self._check_order(other)
        a, b = self.coeffs, other.coeffs
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return CycScalar(self.order, _reduce_mod_phi(self.order, prod))

    def __truediv__(self, other: "CycScalar") -> "CycScalar":
        self._check_order(other)
        return self * other.invert()

    def invert(self) -> "CycScalar":
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_N."""
        if not self:
            raise ZeroDivisionError("inverting zero cyclotomic scalar")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        # Invariants: s * self + (...) * phi == r  along the Euclidean run.
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        lead = _poly_trim(r0)
        if len(lead) != 1:
            raise ZeroDivisionError("element is a zero divisor (not coprime to Phi_N)")
        inv_lead = 1 / lead[0]
        return CycScalar.from_poly(self.order, [c * inv_lead for c in s0])

    def shift_root(self, k: int) -> "CycScalar":
        """Multiply by zeta^k (k taken mod order); cheap special-cased product."""
        k %= self.order
        if k == 0:
            return self
        shifted = [Fraction(0)] * k + list(self.coeffs)
        return CycScalar.from_poly(self.order, shifted)

    def scaled_ints(self, scale: int, k: int) -> tuple[int, ...]:
        """Power-basis coordinates of scale * self * zeta^k as integers; scale
        must be a multiple of every coefficient's denominator.  Phi_N is monic,
        so reducing mod Phi_N keeps the coordinates integral."""
        k %= self.order
        ints = [0] * k + [c.numerator * (scale // c.denominator) for c in self.coeffs]
        return _reduce_mod_phi(self.order, ints)

    def __pow__(self, n: int) -> "CycScalar":
        if n < 0:
            return self.invert() ** (-n)
        out = CycScalar.one(self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycScalar):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar is not rational")
        return self.coeffs[0]

    def __repr__(self) -> str:
        return f"CycScalar(N={self.order}, {self.pretty()})"

    def pretty(self) -> str:
        if not self:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}z^{i}" if i > 1 else f"{mag}z"
                parts.append(term if c > 0 else f"-{term}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    i = len(p)
    while i > 0 and not p[i - 1]:
        i -= 1
    return p[:i]


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        q[shift] = factor
        for i, bi in enumerate(b):
            a[shift + i] -= factor * bi
        a = _poly_trim(a)
    return q, a


@lru_cache(maxsize=None)
def root_of_unity(order: int, k: int) -> CycScalar:
    """zeta_order^k as a canonical CycScalar; k is taken mod order."""
    k %= order
    return CycScalar.from_poly(order, [Fraction(0)] * k + [Fraction(1)])


def rational(order: int, value) -> CycScalar:
    """Convenience: a rational number embedded in Q(zeta_order)."""
    return CycScalar.from_rational(order, Fraction(value))
