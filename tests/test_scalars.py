"""Exact cyclotomic arithmetic: construction, field axioms, inversion."""

import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

from gradedpi.errors import InexactDivisionError, OrderMismatchError
from gradedpi.polynomials import GradedPolynomial, disjoint_product, variables_for
from gradedpi.scalars import (
    CycScalar,
    _poly_div_exact,
    _reduce_mod_phi,
    cyclotomic_polynomial,
    euler_phi,
    power_rows,
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


@pytest.mark.parametrize("n", [1, 3, 4, 12, 1001, 1024])
def test_power_rows_are_the_powers_of_zeta_mod_phi(n):
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
    deg = euler_phi(n)
    rows = power_rows(n)
    assert len(rows) == n - deg and power_rows(n) is rows
    assert all(type(row) is tuple and len(row) == deg for row in rows)
    for k in range(deg, n):
        assert rows[k - deg] == _reduce_mod_phi(n, [0] * k + [1])
    # sympy is slow at the large moduli: check the rows after phi(n) and a sample.
    ks = range(deg, n) if n <= 12 else {*range(deg, deg + 8), n - 1}
    ks = {*ks, *random.Random(n).sample(range(deg, n), min(n - deg, 12))}
    for k in sorted(ks):
        coeffs = [int(c) for c in reversed(sympy.Poly(x**k, x).rem(phi).all_coeffs())]
        assert rows[k - deg] == tuple(coeffs + [0] * (deg - len(coeffs))), k


def test_power_rows_at_every_small_modulus():
    # 105 is the least n with a coefficient of Phi_n outside -1..1.
    for n in [*range(1, 41), 105]:
        assert list(power_rows(n)) == [
            _reduce_mod_phi(n, [0] * k + [1]) for k in range(euler_phi(n), n)
        ], n


def test_reduce_mod_phi_pads_short_inputs_and_reduces_long_ones():
    assert _reduce_mod_phi(12, ()) == (0, 0, 0, 0)
    assert _reduce_mod_phi(12, (5, -1)) == (5, -1, 0, 0)
    assert _reduce_mod_phi(12, (1, 0, 0, 0, 1)) == (0, 0, 1, 0)  # 1 + x^4 = x^2 mod Phi_12
    assert _reduce_mod_phi(1, (2, 3, 4)) == (9,)


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


def _sum_of_roots(order, powers):
    total = CycScalar.zero(order)
    for k in powers:
        total = total + root_of_unity(order, k)
    return total


@pytest.mark.parametrize("order", [64, 128, 256, 1024])
@pytest.mark.parametrize("powers", [(1, 7, 30), (0, 3, 5, 11, 17)])
def test_invert_sparse_at_high_modulus(order, powers):
    a = _sum_of_roots(order, powers)
    assert a * a.invert() == CycScalar.one(order)


@pytest.mark.parametrize("order", [64, 128])
def test_invert_dense_at_high_modulus(order):
    a = random_scalar(random.Random(order), order)
    assert a * a.invert() == CycScalar.one(order)


@pytest.mark.parametrize("order", [1, 3, 4, 5, 12])
def test_invert_matches_sympy(order):
    x = sympy.Symbol("x")
    phi = sum(c * x**i for i, c in enumerate(cyclotomic_polynomial(order)))
    rng = random.Random(order * 7)
    for _ in range(5):
        a = random_scalar(rng, order)
        if not a:
            continue
        poly = sum(sympy.Rational(c, a.den) * x**i for i, c in enumerate(a.nums))
        inv = sympy.Poly(sympy.invert(poly, phi, x), x).all_coeffs()[::-1]
        expected = [Fraction(int(c.p), int(c.q)) for c in inv]
        expected += [Fraction(0)] * (euler_phi(order) - len(expected))
        assert a.invert().coeffs == tuple(expected)


def test_canonical_form_is_lowest_terms_over_one_denominator():
    """__eq__ and __hash__ compare (order, nums, den), so every way of
    building a value must land on the same numerators and denominator."""
    target = CycScalar(4, [Fraction(1, 2), Fraction(-1, 3)])
    built = [
        CycScalar(4, [Fraction(2, 4), Fraction(-2, 6)]),
        CycScalar.from_poly(4, [1, Fraction(-1, 3), Fraction(1, 2), 0, 0]),  # z^2 = -1
        CycScalar.from_scaled_ints(4, [6, -4], 12),
        CycScalar.from_scaled_ints(4, [-9, 6], -18),
        CycScalar.from_rational(4, Fraction(1, 6)) * CycScalar(4, [3, -2]),
        CycScalar.one(4) - CycScalar(4, [Fraction(1, 2), Fraction(1, 3)]),
    ]
    for s in built:
        assert s == target and hash(s) == hash(target)
        assert (s.nums, s.den) == ((3, -2), 6)
    negative = (
        -target,
        CycScalar.from_rational(4, Fraction(-3, 2)),
        CycScalar.from_scaled_ints(4, [1, 1], -4),
    )
    for s in negative:
        assert s.den > 0 and s.nums[0] < 0
    zeros = (
        CycScalar.zero(4),
        target - target,
        CycScalar.from_scaled_ints(4, [0, 0], 7),
        CycScalar(4, [Fraction(0, 5), 0]),
    )
    for s in zeros:
        assert (s.nums, s.den) == ((0, 0), 1)


@pytest.mark.parametrize("order", [*range(1, 13), 1024])
def test_negation_is_the_canonical_negation(order):
    """-c keeps c's denominator and negates its numerators: it equals the
    canonical constructor's result field for field, and -(-c) == c."""
    rng = random.Random(order * 13)
    scalars = [CycScalar.zero(order), CycScalar.one(order), root_of_unity(order, order - 1)]
    scalars += [random_scalar(rng, order) for _ in range(6)]
    for c in scalars:
        n = -c
        built = CycScalar.from_scaled_ints(order, [-x for x in c.nums], c.den)
        assert (n.order, n.nums, n.den) == (built.order, built.nums, built.den)
        assert type(n.nums) is tuple and n.den > 0 and gcd(n.den, *n.nums) == 1
        assert -n == c and hash(-n) == hash(c)


def test_copy_and_pickle_round_trip():
    """copy, deepcopy and pickle rebuild an equal scalar with an equal hash
    and the same (nums, den), a non-rational one at N = 12 and zero alike."""
    for s in (CycScalar(12, [Fraction(1, 2), 0, Fraction(-3, 4), 5]), CycScalar.zero(12)):
        for t in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert t == s and hash(t) == hash(s)
            assert (t.nums, t.den) == (s.nums, s.den)


def test_polynomial_with_cyclotomic_coefficients_pickles():
    """A disjoint product over Q(zeta_12) survives pickling with its
    coefficients, factors and renaming."""
    a = CycScalar(12, [Fraction(1, 2), 0, Fraction(-3, 4), 5])
    f = GradedPolynomial(variables_for([0, 1]), [(a, (1, 2)), (-a * a, (2, 1))])
    g = disjoint_product(f, f)
    h = pickle.loads(pickle.dumps(g))
    assert h == g and h.factors == g.factors and h.renamed == g.renamed
    for m, n in zip(h.monomials, g.monomials):
        assert m.order == n.order and (m.coeff.nums, m.coeff.den) == (n.coeff.nums, n.coeff.den)


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


def _library_nodes():
    """(module file name, AST node) for every node of every library module."""
    import ast
    from pathlib import Path

    import gradedpi

    for path in sorted(Path(gradedpi.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_library_has_no_assert_statements():
    """python -O strips assert, so library invariants raise typed errors."""
    import ast

    found = [
        f"{name}:{node.lineno}" for name, node in _library_nodes() if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_scalars_and_cli_import_fractions():
    """The scalar format stays behind scalars; cli reads rational literals."""
    import ast

    found = {
        name
        for name, node in _library_nodes()
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
    }
    assert found == {"cli.py", "scalars.py"}
