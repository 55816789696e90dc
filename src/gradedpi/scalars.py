"""Exact arithmetic in the cyclotomic field Q(zeta_N).

A scalar is a residue in Q[x]/Phi_N(x): integer numerators over the power
basis 1, zeta, ..., zeta^(phi(N)-1) and one positive denominator, in lowest
terms; the identity oracle's walk vectors are the same numerators rescaled.
All structure constants and polynomial coefficients in the package live
here; there is no floating point anywhere, so zero tests are exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub
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


@lru_cache(maxsize=8)
def power_rows(order: int) -> tuple[tuple[int, ...], ...]:
    """Row i is zeta^(phi + i) mod Phi_order, for phi = phi(order) <= phi + i
    < order, as its phi power-basis coordinates; lower powers are basis
    vectors and get no row.  Each row is zeta times the one before, whose
    zeta^phi term is rewritten as -(Phi_order - zeta^phi).  A table holds
    (order - phi) * phi <= order^2 / 4 entries; eight moduli are kept."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    low = tuple(-c for c in phi[:-1])
    rows = []
    row = low
    for _ in range(deg, order):
        rows.append(row)
        top = row[-1]
        row = (0, *row[:-1])
        if top:
            row = tuple(map(add, row, [top * c for c in low]))
    return tuple(rows)


def _reduce_mod_phi(order: int, ints: Sequence[int]) -> tuple[int, ...]:
    """The phi(order) power-basis coordinates of the integer polynomial ints
    (ascending) mod Phi_order.  Phi_order is monic, so they stay integral."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    if len(ints) <= deg:
        return (*ints, *(0,) * (deg - len(ints)))
    ints = list(ints)
    for i in range(len(ints) - 1, deg - 1, -1):
        c = ints[i]
        if c:
            for j in range(deg):  # the x^deg term only clears ints[i], read no more
                ints[i - deg + j] -= c * phi[j]
    return tuple(ints[:deg])


class CycScalar:
    """An element of Q(zeta_N) in canonical form: nums / den with nums the
    power-basis numerators reduced mod Phi_N, den > 0 and gcd(den, *nums) = 1."""

    __slots__ = ("order", "nums", "den")

    def __new__(cls, order: int, coeffs: Iterable[Fraction | int]) -> "CycScalar":
        coeffs = list(coeffs)
        deg = len(cyclotomic_polynomial(order)) - 1  # refuses order < 1
        if len(coeffs) != deg:
            raise ValueError(f"expected {deg} coefficients for order {order}, got {len(coeffs)}")
        return cls.from_poly(order, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycScalar is immutable")

    @classmethod
    def from_scaled_ints(cls, order: int, ints: Sequence[int], scale: int) -> "CycScalar":
        """The canonical constructor: (sum_k ints[k] zeta^k) / scale for
        integers ints (any length) and scale != 0, reduced mod Phi_order and
        brought to lowest terms over a positive denominator."""
        if not scale:
            raise ZeroDivisionError("cyclotomic scalar with denominator 0")
        nums = _reduce_mod_phi(order, ints)
        g = gcd(scale, *nums) if scale > 0 else -gcd(scale, *nums)
        if g != 1:
            nums, scale = tuple(c // g for c in nums), scale // g
        out = object.__new__(cls)
        object.__setattr__(out, "order", order)
        object.__setattr__(out, "nums", nums)
        object.__setattr__(out, "den", scale)
        return out

    @classmethod
    def from_poly(cls, order: int, coeffs: Iterable[Fraction | int]) -> "CycScalar":
        """Build from an arbitrary-length polynomial in zeta, reducing mod Phi."""
        coeffs = list(coeffs)
        den = lcm(*(c.denominator for c in coeffs))
        return cls.from_scaled_ints(order, [c.numerator * (den // c.denominator) for c in coeffs], den)

    @classmethod
    def zero(cls, order: int) -> "CycScalar":
        return cls.from_scaled_ints(order, (), 1)

    @classmethod
    def one(cls, order: int) -> "CycScalar":
        return cls.from_scaled_ints(order, (1,), 1)

    @classmethod
    def from_rational(cls, order: int, value: Fraction | int) -> "CycScalar":
        return cls.from_scaled_ints(order, (value.numerator,), value.denominator)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions, for cold callers."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def _check_order(self, other: "CycScalar") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"cyclotomic orders differ: {self.order} vs {other.order}"
            )

    def _combine(self, other: "CycScalar", op) -> "CycScalar":
        """self op other for op in (add, sub)."""
        self._check_order(other)
        a, b = self.den, other.den
        return CycScalar.from_scaled_ints(
            self.order, [op(x * b, y * a) for x, y in zip(self.nums, other.nums)], a * b
        )

    def __add__(self, other: "CycScalar") -> "CycScalar":
        return self._combine(other, add)

    def __sub__(self, other: "CycScalar") -> "CycScalar":
        return self._combine(other, sub)

    def __neg__(self) -> "CycScalar":
        # Negating the numerators keeps them reduced, their gcd with den at 1
        # and den > 0: the result is canonical as it stands.
        out = object.__new__(CycScalar)
        object.__setattr__(out, "order", self.order)
        object.__setattr__(out, "nums", tuple([-c for c in self.nums]))
        object.__setattr__(out, "den", self.den)
        return out

    def __mul__(self, other: "CycScalar") -> "CycScalar":
        self._check_order(other)
        a, b = self.nums, other.nums
        prod = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return CycScalar.from_scaled_ints(self.order, prod, self.den * other.den)

    def __truediv__(self, other: "CycScalar") -> "CycScalar":
        self._check_order(other)
        return self * other.invert()

    def invert(self) -> "CycScalar":
        """Multiplicative inverse by the extended Euclidean algorithm on
        integer polynomials, with pseudo-division (Cohen, A Course in
        Computational Algebraic Number Theory, Alg. 3.1.2)."""
        if not self:
            raise ZeroDivisionError("inverting zero cyclotomic scalar")
        # Invariant: r_i = s_i * nums mod Phi_N.  A step pseudo-divides r0 by
        # r1, (r0, s0) -> (l r0 - q r1, l s0 - q s1) with an integer l != 0,
        # and divides the pair by the gcd of its coefficients.  Phi_N is
        # irreducible, so the last nonzero r is a constant c: nums^-1 = s / c.
        r0, s0 = list(cyclotomic_polynomial(self.order)), []
        r1, s1 = list(self.nums), [1]
        while not r1[-1]:
            r1.pop()
        while len(r1) > 1:
            d, n1 = r1[-1], len(r1)
            s0 += [0] * (len(r0) - n1 + len(s1) - len(s0))
            while len(r0) >= n1:
                g = gcd(r0[-1], d)
                m, c, k = d // g, r0[-1] // g, len(r0) - n1
                if m != 1:
                    r0, s0 = [m * x for x in r0], [m * x for x in s0]
                for j, y in enumerate(r1):
                    r0[k + j] -= c * y
                for j, y in enumerate(s1):
                    s0[k + j] -= c * y
                while r0 and not r0[-1]:
                    r0.pop()
            if not r0:
                raise ZeroDivisionError("element is a zero divisor (not coprime to Phi_N)")
            g = gcd(*r0, *s0)
            r0, s0, r1, s1 = r1, s1, [x // g for x in r0], [x // g for x in s0]
        return CycScalar.from_scaled_ints(self.order, [self.den * c for c in s1], r1[0])

    def shift_root(self, k: int) -> "CycScalar":
        """Multiply by zeta^k (k taken mod order); cheap special-cased product."""
        k %= self.order
        if k == 0:
            return self
        return CycScalar.from_scaled_ints(self.order, (0,) * k + self.nums, self.den)

    def scaled_ints(self, scale: int, k: int) -> tuple[int, ...]:
        """Power-basis coordinates of scale * self * zeta^k as integers; scale
        must be a multiple of den."""
        k %= self.order
        f = scale // self.den
        return _reduce_mod_phi(self.order, [0] * k + [c * f for c in self.nums])

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
        return any(self.nums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycScalar):
            return NotImplemented
        return self.order == other.order and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.order, self.nums, self.den))

    def __reduce__(self):
        # copy and pickle rebuild through the canonical constructor: the
        # default protocol calls __new__ without its arguments.
        return CycScalar.from_scaled_ints, (self.order, self.nums, self.den)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar is not rational")
        return Fraction(self.nums[0], self.den)

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


@lru_cache(maxsize=None)
def root_of_unity(order: int, k: int) -> CycScalar:
    """zeta_order^k as a canonical CycScalar; k is taken mod order."""
    return CycScalar.one(order).shift_root(k)
