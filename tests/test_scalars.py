"""Exact cyclotomic arithmetic: construction, field axioms, inversion."""

import random
from fractions import Fraction

import pytest
import sympy

from gradedpi.errors import InexactDivisionError, OrderMismatchError
from gradedpi.scalars import (
    CycScalar,
    _poly_div_exact,
    cyclotomic_polynomial,
    euler_phi,
    root_of_unity,
)


def random_scalar(rng, order):
    return CycScalar(
        order,
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(euler_phi(order))],
    )


@pytest.mark.parametrize("n", range(1, 21))
def test_cyclotomic_polynomial_matches_sympy(n):
    x = sympy.Symbol("x")
    expected = tuple(
        int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs())
    )
    assert cyclotomic_polynomial(n) == expected


def test_i_squared_is_minus_one():
    i = root_of_unity(4, 1)
    assert i * i == CycScalar.from_rational(4, -1)


def test_additive_identity_random():
    rng = random.Random(7)
    zero = CycScalar.zero(5)
    for _ in range(20):
        x = random_scalar(rng, 5)
        assert x + zero == x


def test_phi3_relation():
    z = root_of_unity(3, 1)
    assert not (z * z + z + CycScalar.one(3))


def test_root_of_unity_wraps():
    assert root_of_unity(4, 2) == CycScalar.from_rational(4, -1)
    assert root_of_unity(6, 6) == CycScalar.one(6)
    assert root_of_unity(4, 1) ** 4 == CycScalar.one(4)


@pytest.mark.parametrize("n", range(1, 13))
def test_primitive_root_has_exact_order(n):
    z = root_of_unity(n, 1)
    acc = CycScalar.one(n)
    for k in range(1, n):
        acc = acc * z
        assert acc != CycScalar.one(n), f"zeta_{n} has order dividing {k}"
    assert acc * z == CycScalar.one(n)


def test_phi_vanishes_at_root():
    for n in range(1, 13):
        z = root_of_unity(n, 1)
        val = CycScalar.zero(n)
        for c in reversed(cyclotomic_polynomial(n)):
            val = val * z + CycScalar.from_rational(n, c)
        assert not val


def test_invert_trivials():
    assert CycScalar.one(5).invert() == CycScalar.one(5)
    for k in range(1, 5):
        assert root_of_unity(5, k).invert() == root_of_unity(5, 5 - k)


def test_invert_extended_euclid_case():
    a = CycScalar.one(3) + root_of_unity(3, 1)
    assert a.invert() * a == CycScalar.one(3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CycScalar.one(4) / CycScalar.zero(4)
    with pytest.raises(ZeroDivisionError):
        CycScalar.zero(4).invert()


def test_order_mismatch_refused():
    with pytest.raises(OrderMismatchError):
        CycScalar.one(3) + CycScalar.one(4)
    with pytest.raises(OrderMismatchError):
        CycScalar.one(3) * CycScalar.one(6)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 8, 12])
def test_field_axioms_random(order):
    rng = random.Random(order * 101)
    one = CycScalar.one(order)
    for _ in range(25):
        a, b, c = (random_scalar(rng, order) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.invert() == one
            assert (a / a) == one


def test_shift_root_equals_mul():
    rng = random.Random(3)
    for order in (3, 4, 6, 8):
        for _ in range(10):
            x = random_scalar(rng, order)
            k = rng.randrange(2 * order)
            assert x.shift_root(k) == x * root_of_unity(order, k)


def test_canonical_form_is_unique_equality():
    # 1 + z + z^2 + z^3 == 0 in Q(zeta_5) only after full reduction of z^4.
    z = root_of_unity(5, 1)
    s = CycScalar.one(5) + z + z * z + z * z * z
    assert s == -(z * z * z * z)


def test_pretty_and_rational_accessors():
    x = CycScalar.from_rational(4, Fraction(-3, 2))
    assert x.is_rational() and x.as_rational() == Fraction(-3, 2)
    assert root_of_unity(4, 1).pretty() == "z"
    assert not root_of_unity(4, 1).is_rational()


def test_exact_division_raises_typed_errors():
    # (x^2 - 1) / (x - 1) = x + 1
    assert _poly_div_exact((-1, 0, 1), (-1, 1)) == (1, 1)
    with pytest.raises(InexactDivisionError, match="monic"):
        _poly_div_exact((-1, 0, 1), (-1, 2))
    with pytest.raises(InexactDivisionError, match="inexact"):
        _poly_div_exact((1, 0, 1), (-1, 1))


def test_library_has_no_assert_statements():
    """python -O strips assert, so library invariants raise typed errors."""
    import ast
    from pathlib import Path

    import gradedpi

    package = Path(gradedpi.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
