"""The identity oracle, good permutations, pure decomposition, paths."""

import gc
import random
from fractions import Fraction
from itertools import permutations
from itertools import product as iproduct
from math import factorial, gcd, prod

import pytest

from gradedpi.algebra import Presentation, block_structure, build_algebra
from gradedpi import binomials
from gradedpi.binomials import (
    GoodScalarContext,
    enumerate_binomials,
    good_binomial,
    good_permutation_scalar,
    good_permutations_of,
    is_good_permutation,
    is_pure,
    monomial_signature,
    path_restriction,
    path_vanishes,
    pure_components,
    satisfies_path_property,
)
from gradedpi.cohomology import Coboundary, Cocycle2
from gradedpi.errors import (
    DegreeMismatchError,
    GradedPIError,
    HypothesisError,
    NonMultilinearError,
    NotNormalError,
    OrderMismatchError,
)
from gradedpi.grassmann import envelope_identity_check
from gradedpi.groups import FiniteGroup
from gradedpi import polynomials
from gradedpi.linalg import Span, span_of
from gradedpi.polynomials import (
    EvaluationTable,
    GradedPolynomial,
    GradedVariable,
    accumulate_evaluations,
    alternate,
    assignment_elements,
    check_identity,
    disjoint_product,
    evaluate,
    evaluate_triples,
    evaluation_span,
    is_identity,
    monomial_polynomial,
    variables_for,
)
from gradedpi.scalars import CycScalar, root_of_unity

from conftest import (
    brute_is_identity,
    built_plans,
    capelli,
    capelli_ids,
    count_walks,
    klein_nontrivial_cocycle,
    random_multilinear,
    random_rational,
)


def one(n=1):
    return CycScalar.one(n)


def test_multilinearity_enforced():
    vs = variables_for([0, 0])
    with pytest.raises(NonMultilinearError):
        GradedPolynomial(vs, [(one(), (1, 1))])
    with pytest.raises(NonMultilinearError):
        GradedPolynomial(vs, [(one(), (1,))])
    with pytest.raises(NonMultilinearError):
        GradedPolynomial([GradedVariable(1, 0), GradedVariable(1, 1)], [])


def test_degree_zero_monomial_rejected(p_z2_unbalanced):
    with pytest.raises(NonMultilinearError, match="degree 0"):
        GradedPolynomial([], [(one(), ())])
    zero = GradedPolynomial([], [])
    assert zero.is_zero() and zero.degree == 0
    assert check_identity(zero, build_algebra(p_z2_unbalanced)).identity


def test_monomials_merge_and_drop_zeros():
    vs = variables_for([0, 0])
    f = GradedPolynomial(vs, [(one(), (1, 2)), (-one(), (1, 2))])
    assert f.is_zero()
    g = GradedPolynomial(vs, [(one(), (1, 2)), (one(), (1, 2))])
    assert len(g.monomials) == 1
    assert g.monomials[0].coeff == CycScalar.from_rational(1, 2)
    # A repeated order keeps its first place, and a cancelled order between
    # two survivors drops out without moving them.
    vs = variables_for([0, 0, 0])
    h = GradedPolynomial(
        vs,
        [(one(), (3, 1, 2)), (one(), (1, 2, 3)), (one(), (2, 1, 3)),
         (-one(), (1, 2, 3)), (one(), (3, 1, 2)), (one(), (1, 3, 2))],
    )
    assert [m.order for m in h.monomials] == [(3, 1, 2), (2, 1, 3), (1, 3, 2)]
    assert h.monomials[0].coeff == CycScalar.from_rational(1, 2)


def test_evaluate_single_monomial(p_group_algebra_z2):
    A = build_algebra(p_group_algebra_z2)
    f = monomial_polynomial(variables_for([0]), one())
    u = A.basis_element(0)
    assert evaluate(f, A, {1: u}) == u


def test_evaluate_zero_assignment(p_group_algebra_z2):
    A = build_algebra(p_group_algebra_z2)
    f = monomial_polynomial(variables_for([1]), one())
    assert not evaluate(f, A, {1: A.zero()})


def test_evaluate_degree_mismatch_names_variable(p_group_algebra_z2):
    A = build_algebra(p_group_algebra_z2)
    f = monomial_polynomial(variables_for([1]), one())
    with pytest.raises(DegreeMismatchError, match="x1"):
        evaluate(f, A, {1: A.basis_element(0)})


@pytest.mark.parametrize("degree", [100, 8, -1])
def test_the_oracle_refuses_a_degree_outside_the_group(p_d4_klein, degree):
    """A variable degree that is no element of D4 is named when the walk is
    planned, by check_identity, evaluation_span and the factored product,
    where an empty walk answered that f is an identity with span 0."""
    A = build_algebra(p_d4_klein)
    f = monomial_polynomial(variables_for([degree, 0]), one(2))
    g = monomial_polynomial(variables_for([0], start_id=3), one(2))
    for run in (check_identity, evaluation_span, accumulate_evaluations):
        with pytest.raises(DegreeMismatchError, match=f"x1: degree {degree} "):
            run(f, A)
    with pytest.raises(DegreeMismatchError, match=f"x1: degree {degree} "):
        check_identity(disjoint_product(f, g), A)


def _evaluate_without_stop(f, A, assignment):
    """evaluate's sum with every factor of every monomial multiplied."""
    total = A.zero()
    for m in f.monomials:
        acc = assignment[m.order[0]]
        for vid in m.order[1:]:
            acc = acc * assignment[vid]
        total = total + acc.scale(m.coeff)
    return total


def _random_homogeneous(rng, A, degree: int, terms: int):
    """A sum of up to `terms` basis elements of one degree with random
    rational coefficients (possibly zero after merging)."""
    basis = A.homogeneous_basis(degree)
    picks = [A.basis[rng.choice(basis)] for _ in range(terms)]
    value = A.zero()
    for t in picks:
        value = value + A.element({t: random_rational(rng, A.modulus)})
    return value


def test_evaluate_stop_at_first_zero_matches_full_products():
    """evaluate stops a monomial at its first zero partial product; the sum
    equals the one that multiplies every factor, at moduli 1, 3, 4 and 12,
    for single-basis and multi-term assignments."""
    rng = random.Random(1916)
    first_product_zero = nonzero = 0
    for p in _presentations_over_moduli_1_3_4_12():
        A = build_algebra(p)
        for _ in range(10):
            f = random_multilinear(rng, A, rng.randint(1, 4), max_monomials=6)
            for terms in (1, 1, 2, 3):
                assignment = {
                    v.vid: _random_homogeneous(rng, A, v.degree, terms) for v in f.variables
                }
                value = evaluate(f, A, assignment)
                assert value == _evaluate_without_stop(f, A, assignment)
                nonzero += bool(value)
                first_product_zero += sum(
                    len(m.order) > 1 and not assignment[m.order[0]] * assignment[m.order[1]]
                    for m in f.monomials
                )
    assert first_product_zero > 100 and nonzero > 100


def test_evaluate_checks_every_variable_before_the_products(p_z2_unbalanced):
    """x1 x2 x3 and x2 x1 x3 vanish at their first product under e11, e22;
    an unassigned or wrongly graded x3 is still reported."""
    A = build_algebra(p_z2_unbalanced)  # M_3 graded by (0, 0, 1)
    f = GradedPolynomial(variables_for([0, 0, 0]), [(one(), (1, 2, 3)), (one(), (2, 1, 3))])
    base = assignment_elements(A, {1: (0, 0, 0), 2: (0, 1, 1)})
    assert not evaluate(f, A, {**base, 3: A.basis_element(A.index[(0, 2, 2)])})
    with pytest.raises(DegreeMismatchError, match="x3 is unassigned"):
        evaluate(f, A, base)
    wrong = assignment_elements(A, {3: (0, 0, 2)})  # degree 1
    with pytest.raises(DegreeMismatchError, match="x3 is not homogeneous"):
        evaluate(f, A, {**base, **wrong})


def _outcome(fn, *args):
    """fn's value, or the type and text of the package error it raised."""
    try:
        return fn(*args)
    except GradedPIError as exc:
        return type(exc), str(exc)


def _reference_value(f, A, triples):
    return evaluate(f, A, assignment_elements(A, triples))


def _chained_triples(rng, A, f) -> dict:
    """Basis triples of the right degrees, chained row-to-column along one
    monomial where the basis allows it, so that monomial's product is
    usually nonzero (the zero polynomial chains its variables in id order)."""
    order = rng.choice(f.monomials).order if f.monomials else f.var_ids()
    triples, col = {}, rng.randrange(A.presentation.size)
    for vid in order:
        degree = f.degree_of[vid]
        pool = A.basis_by_degree_and_row(degree, col) or A.homogeneous_basis(degree)
        triples[vid] = A.basis[rng.choice(pool)]
        col = triples[vid][2]
    return triples


def _random_alternating(rng, A) -> GradedPolynomial:
    """A twisted monomial of 2-4 degree-0 variables and up to two others,
    alternated over the degree-0 ones."""
    alternated = rng.randint(2, 4)
    degrees = [0] * alternated + [rng.choice(sorted(A.presentation.support())) for _ in range(rng.randint(0, 2))]
    variables = variables_for(degrees)
    order = tuple(rng.sample([v.vid for v in variables], len(variables)))
    rational = Fraction(rng.choice([-2, 1, 3]), rng.choice([1, 2]))
    coeff = _coefficient(A.modulus, [(rng.randrange(A.modulus), rational)])
    return alternate(monomial_polynomial(variables, coeff, order), range(1, alternated + 1))


def test_evaluate_triples_matches_evaluate_on_basis_assignments():
    """The basis-triple kernel against evaluate on the triples' elements, term
    for term: seeded twisted polynomials and alternate() outputs, over H
    trivial and not, at moduli 1, 3, 4 and 12 (the Klein class at N = 4 and
    the bilinear class at N = 12 are not symmetric, so an exponent read as
    c(b, a) instead of c(a, b) shows).  Assignments are random or chained
    along a monomial; some vanish in every monomial, some cancel to zero."""
    rng = random.Random(1919)
    d3 = FiniteGroup.dihedral(3)
    reflection = d3.generated_subgroup([3])
    c3 = FiniteGroup.cyclic(3)
    e3 = c3.trivial_subgroup()
    presentations = _presentations_over_moduli_1_3_4_12() + [
        Presentation(d3, reflection, Cocycle2.trivial(reflection, 1), (0, 1, 2)),
        Presentation(c3, e3, Cocycle2.trivial(e3, 12), (0, 1, 2)),
    ]
    seen = {"nonzero": 0, "vanished": 0, "cancelled": 0}
    for p in presentations:
        A = build_algebra(p)
        polys = [_random_twisted_polynomial(rng, A, rng.randint(1, 4)) for _ in range(6)]
        polys += [_random_alternating(rng, A) for _ in range(3)]
        for f in polys:
            for i in range(16):
                if i % 2:
                    triples = _chained_triples(rng, A, f)
                else:
                    triples = {
                        v.vid: A.basis[rng.choice(A.homogeneous_basis(v.degree))]
                        for v in f.variables
                    }
                value = evaluate_triples(f, A, triples)
                assert value == _reference_value(f, A, triples)
                monomials = [GradedPolynomial(f.variables, [m]) for m in f.monomials]
                if value:
                    seen["nonzero"] += 1
                elif any(evaluate_triples(mono, A, triples) for mono in monomials):
                    seen["cancelled"] += 1
                else:
                    seen["vanished"] += 1
    assert min(seen.values()) > 100, seen


def test_evaluate_triples_cancellation_and_vanishing(p_k4_twisted, p_z2_unbalanced):
    """x1 x2 + x2 x1 at two Klein units whose cocycle values are 1 and -1
    cancels to zero, as does an alternation at a repeated triple; x1 x2 +
    x2 x1 at two off-diagonal units in one row vanishes monomial by
    monomial."""
    A = build_algebra(p_k4_twisted)
    a, b = p_k4_twisted.subgroup.members[1:3]
    c = p_k4_twisted.cocycle
    assert c.exp(a, b) != c.exp(b, a)
    f = GradedPolynomial(variables_for([a, b]), [(one(2), (1, 2)), (one(2), (2, 1))])
    triples = {1: (a, 0, 0), 2: (b, 0, 0)}
    assert evaluate_triples(GradedPolynomial(f.variables, [f.monomials[0]]), A, triples)
    assert evaluate_triples(f, A, triples) == _reference_value(f, A, triples) == A.zero()

    B = build_algebra(p_z2_unbalanced)  # M_3 graded by (0, 0, 1)
    alt = alternate(monomial_polynomial(variables_for([0, 0, 0]), one()), [1, 2, 3])
    triples = {1: (0, 0, 1), 2: (0, 0, 1), 3: (0, 1, 0)}
    assert evaluate_triples(alt, B, triples) == _reference_value(alt, B, triples) == B.zero()
    g = GradedPolynomial(variables_for([0, 0]), [(one(), (1, 2)), (one(), (2, 1))])
    triples = {1: (0, 0, 1), 2: (0, 0, 1)}
    assert evaluate_triples(g, B, triples) == _reference_value(g, B, triples) == B.zero()


def test_evaluate_triples_raises_what_evaluate_raises_in_its_order(p_z2_unbalanced):
    """Every assigned triple is checked against the basis first (a variable
    outside f included), then the scalar order, then f's variables in order:
    unassigned, or of the wrong degree.  Type and message match evaluate on
    assignment_elements."""
    A = build_algebra(p_z2_unbalanced)  # M_3 graded by (0, 0, 1)
    f = GradedPolynomial(variables_for([0, 1]), [(one(), (1, 2)), (one(), (2, 1))])
    f3 = GradedPolynomial(variables_for([0, 1]), [(one(3), (1, 2))])
    degree, order = DegreeMismatchError, OrderMismatchError
    cases = [
        (f, {1: (0, 0, 0), 2: (0, 0, 2), 7: (0, 3, 0)}, degree, r"x7: \(0, 3, 0\) is not a basis"),
        (f3, {1: (1, 0, 0)}, degree, r"x1: \(1, 0, 0\) is not a basis triple"),
        (f3, {1: (0, 0, 2)}, order, r"Q\(zeta_3\) but the algebra uses order 1"),
        (f, {2: (0, 0, 0)}, degree, "variable x1 is unassigned"),
        (f, {1: (0, 0, 2)}, degree, "assignment of x1 is not homogeneous of degree 0"),
        (f, {1: (0, 0, 1)}, degree, "variable x2 is unassigned"),
        (f, {1: (0, 0, 1), 2: (0, 0, 0)}, degree, "x2 is not homogeneous of degree 1"),
    ]
    for poly, triples, error, message in cases:
        with pytest.raises(error, match=message):
            evaluate_triples(poly, A, triples)
        got = _outcome(evaluate_triples, poly, A, triples)
        assert got == _outcome(_reference_value, poly, A, triples)
    assert evaluate_triples(f, A, {1: (0, 0, 1), 2: (0, 1, 2)}) == A.element({(0, 0, 2): one()})


def test_scalar_order_mismatch(p_k4_twisted):
    A = build_algebra(p_k4_twisted)  # modulus 2
    f = monomial_polynomial(variables_for([0]), one(4))
    with pytest.raises(OrderMismatchError):
        check_identity(f, A)


def test_single_variable_counterexample(p_z2_unbalanced):
    A = build_algebra(p_z2_unbalanced)
    f = monomial_polynomial(variables_for([1]), one())
    rep = check_identity(f, A)
    assert not rep.identity
    assert rep.counterexample == {1: (0, 0, 2)}


def test_oracle_matches_brute_force_random():
    """Dual route: path-pruned accumulation vs full Cartesian evaluation."""
    rng = random.Random(1234)
    z2 = FiniteGroup.cyclic(2)
    H = z2.trivial_subgroup()
    fixtures = [
        Presentation(z2, H, Cocycle2.trivial(H, 1), (0, 0, 1)),
        Presentation(z2, H, Cocycle2.trivial(H, 1), (0, 1)),
    ]
    k4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    from conftest import klein_nontrivial_cocycle

    Hk = k4.full_subgroup()
    fixtures.append(Presentation(k4, Hk, klein_nontrivial_cocycle(Hk), (0,)))
    for p in fixtures:
        A = build_algebra(p)
        for _ in range(40):
            f = random_multilinear(rng, A, rng.randint(1, 3))
            assert is_identity(f, A) == brute_is_identity(f, A)


def _coefficient(N: int, pairs) -> CycScalar:
    """The [[power, rational], ...] coefficient sum of q * zeta_N^power."""
    coeffs = [Fraction(0)] * N
    for power, q in pairs:
        coeffs[power % N] += Fraction(q)
    return CycScalar.from_poly(N, coeffs)


def _brute_values(f: GradedPolynomial, A) -> list[tuple[tuple, dict]]:
    """(key, value) for every homogeneous basis assignment, in sorted key
    order, each value by element arithmetic (polynomials.evaluate)."""
    vids = f.var_ids()
    pools = [A.homogeneous_basis(f.degree_of[v]) for v in vids]
    out = []
    for key in sorted(iproduct(*pools)):
        elements = assignment_elements(A, {vid: A.basis[k] for vid, k in zip(vids, key)})
        out.append((key, evaluate(f, A, elements).terms))
    return out


def _presentations_over_moduli_3_4_12() -> list[Presentation]:
    """Cocycles with non-trivial values: coboundaries of random maps, times the
    Klein class lifted to N = 4 and a bilinear class at N = 12."""
    rng = random.Random(5)

    def coboundary(H, N):
        """d(lambda) for a random lambda with a primitive N-th root among its values."""
        while True:
            lam = (0,) + tuple(rng.randrange(N) for _ in range(len(H) - 1))
            c = Coboundary(H, N, lam).induced()
            if any(gcd(e, N) == 1 for row in c.exps for e in row):
                return c

    def times(c: Cocycle2, other: Cocycle2) -> Cocycle2:
        n = len(c.subgroup)
        exps = [[c.exps[i][j] + other.exps[i][j] for j in range(n)] for i in range(n)]
        return Cocycle2(c.subgroup, c.modulus, exps)

    c2, c3, c6 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3), FiniteGroup.cyclic(6)
    k4 = FiniteGroup.direct_product(c2, c2)
    c2c4 = FiniteGroup.direct_product(c2, FiniteGroup.cyclic(4))
    c2c6 = FiniteGroup.direct_product(c2, c6)
    h3 = c6.subgroup([0, 2, 4])
    h4 = c2c4.subgroup(range(4))
    hk = k4.full_subgroup()
    h12 = c2c6.full_subgroup()
    h6 = c2c6.subgroup(range(6))
    mem12 = h12.members
    bilinear = Cocycle2(h12, 12, [[6 * (a // 6) * (b % 6) for b in mem12] for a in mem12])
    klein4 = klein_nontrivial_cocycle(hk).with_modulus(4)
    return [
        Presentation(c3, c3.full_subgroup(), coboundary(c3.full_subgroup(), 3), (0,)),
        Presentation(c6, h3, coboundary(h3, 3), (0, 0, 1)),
        Presentation(c2c4, h4, coboundary(h4, 4), (0, 4)),
        Presentation(k4, hk, times(klein4, coboundary(hk, 4)), (0, 1)),
        Presentation(c2c6, h12, times(bilinear, coboundary(h12, 12)), (0, 7)),
        Presentation(c2c6, h6, coboundary(h6, 12), (0, 6)),
    ]


def _random_twisted_polynomial(rng, A, degree: int) -> GradedPolynomial:
    """Up to four monomials with [[power, rational], ...] coefficients whose
    rationals have denominators 2, 3 and 5."""
    sup = sorted(A.presentation.support())
    variables = variables_for([rng.choice(sup) for _ in range(degree)])
    orders = list(permutations([v.vid for v in variables]))
    monos = []
    for order in rng.sample(orders, k=min(rng.randint(1, 4), len(orders))):
        pairs = [
            (rng.randrange(A.modulus), Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([2, 3, 5])))
            for _ in range(rng.randint(1, 3))
        ]
        monos.append((_coefficient(A.modulus, pairs), order))
    return GradedPolynomial(variables, monos)


def test_integer_oracle_matches_brute_force_at_moduli_3_4_12():
    """The scaled power-basis walk against evaluate over every assignment:
    verdict, lex-first counterexample and its exact value, span dimension,
    and path vanishing of pure components."""
    rng = random.Random(31)
    seen = {"identity": 0, "counterexample": 0, "vanishing_path": 0, "path": 0}
    for p in _presentations_over_moduli_3_4_12():
        A = build_algebra(p)
        polys = [_random_twisted_polynomial(rng, A, rng.randint(1, 3)) for _ in range(12)]
        try:
            ctx = GoodScalarContext(p)
        except (HypothesisError, NotNormalError):
            ctx = None
        for _ in range(4 if ctx else 0):
            # Good binomials Z - s Z_sigma, scaled: identities.
            degrees = [rng.choice(sorted(A.presentation.support())) for _ in range(3)]
            sigma = rng.choice(list(good_permutations_of(degrees, p.subgroup))[1:] or [(0, 1, 2)])
            scale = _coefficient(A.modulus, [(rng.randrange(A.modulus), Fraction(2, 15))])
            polys.append(good_binomial(degrees, sigma, ctx.scalar(degrees, sigma)).scale(scale))
        if p.subgroup == p.group.full_subgroup() and p.size == 1:
            # Commutative F^c C3: vanishes only through 1 + z + z^2 = 0.
            vs = variables_for([1, 1, 2])
            z = [_coefficient(3, [(k, "1/2")]) for k in range(3)]
            for last in (z[2], z[1]):
                monos = [(z[0], (1, 2, 3)), (z[1], (2, 3, 1)), (last, (3, 1, 2))]
                polys.append(GradedPolynomial(vs, monos))
            assert is_identity(polys[-2], A) and not is_identity(polys[-1], A)
        for f in polys:
            values = _brute_values(f, A)
            nonzero = [(key, value) for key, value in values if value]
            report = check_identity(f, A)
            assert report.identity == (not nonzero)
            if nonzero:
                key, value = nonzero[0]
                assign = {vid: A.basis[k] for vid, k in zip(f.var_ids(), key)}
                assert report.counterexample == assign
                assert report.value == value
                seen["counterexample"] += 1
            else:
                seen["identity"] += 1
            span = Span()
            for _, value in values:
                span.add(value)
            assert evaluation_span(f, A).dim == span.dim
            if p.subgroup == p.group.full_subgroup() or f.is_zero():
                continue  # paths need one canonical tuple entry per coset
            bs = block_structure(p)
            for g in pure_components(f, p.subgroup):
                lead = f.var_ids().index(g.monomials[0].order[0])
                for b in range(bs.k):
                    rows = bs.positions[b]
                    brute = all(
                        not value
                        for key, value in _brute_values(g, A)
                        if A.basis[key[lead]][1] in rows
                    )
                    assert path_vanishes(g, A, b) == brute
                    seen["path"] += 1
                    seen["vanishing_path"] += brute
    assert seen["identity"] >= 2 and seen["counterexample"] >= 40, seen
    assert 0 < seen["vanishing_path"] < seen["path"], seen


def test_identity_random_evaluations_vanish(p_k4_twisted):
    """Every declared identity evaluates to zero on random homogeneous
    elements (rational combinations of the homogeneous basis); 200+ random
    evaluations in total."""
    rng = random.Random(77)
    A = build_algebra(p_k4_twisted)
    c = p_k4_twisted.cocycle
    evaluations = 0
    for b in enumerate_binomials(c, 3):
        f = good_binomial(list(b.hs), b.sigma, root_of_unity(2, b.alpha_exp))
        if f.is_zero():
            continue
        assert is_identity(f, A)
        for _ in range(3):
            assignment = {}
            for v in f.variables:
                el = A.zero()
                for k in A.homogeneous_basis(v.degree):
                    el = el + A.basis_element(k).scale(
                        CycScalar.from_rational(2, Fraction(rng.randint(-3, 3)))
                    )
                assignment[v.vid] = el
            assert not evaluate(f, A, assignment)
            evaluations += 1
        if evaluations >= 210:
            break
    assert evaluations >= 200


def test_counterexamples_evaluate_nonzero(p_z2_unbalanced):
    rng = random.Random(555)
    A = build_algebra(p_z2_unbalanced)
    found = 0
    for _ in range(30):
        f = random_multilinear(rng, A, rng.randint(1, 3))
        rep = check_identity(f, A)
        if not rep.identity:
            val = evaluate(f, A, assignment_elements(A, rep.counterexample))
            assert val
            found += 1
    assert found > 10


def test_disjoint_product_shapes():
    vs = variables_for([0, 0])
    f = GradedPolynomial(vs, [(one(), (1, 2)), (-one(), (2, 1))])
    y = monomial_polynomial(variables_for([1], start_id=3), one())
    fy = disjoint_product(f, y)
    assert len(fy.monomials) == 2
    assert all(m.order[-1] == 3 for m in fy.monomials)
    # overlapping ids get renamed and reported
    g = GradedPolynomial(vs, [(one(), (1, 2))])
    fg = disjoint_product(f, g)
    assert fg.renamed == {1: 3, 2: 4}
    assert len(fg.variables) == 4


def test_factored_verdict_matches_flat(p_z2_unbalanced, p_z2_balanced):
    """The span route for disjoint products agrees with walking the
    concatenated monomials directly."""
    rng = random.Random(4242)
    for p in (p_z2_unbalanced, p_z2_balanced):
        A = build_algebra(p)
        for _ in range(25):
            f = random_multilinear(rng, A, rng.randint(1, 2))
            g = random_multilinear(rng, A, rng.randint(1, 2))
            prod = disjoint_product(f, g)
            flat = GradedPolynomial(
                prod.variables, [(m.coeff, m.order) for m in prod.monomials]
            )
            assert flat.factors is None
            assert check_identity(prod, A).identity == check_identity(flat, A).identity


def test_alternate_counts_and_signs():
    vs = variables_for([0] * 3)
    f = monomial_polynomial(vs, one())
    alt = alternate(f, [1, 2, 3])
    assert len(alt.monomials) == 6
    coeffs = {m.order: m.coeff for m in alt.monomials}
    assert coeffs[(1, 2, 3)] == one()
    assert coeffs[(2, 1, 3)] == -one()
    assert coeffs[(2, 3, 1)] == one()
    single = alternate(f, [2])
    assert single == f


def test_alternate_mixed_degree_rejected():
    vs = variables_for([0, 1])
    f = monomial_polynomial(vs, one())
    with pytest.raises(DegreeMismatchError):
        alternate(f, [1, 2])


def test_alternate_refuses_an_id_outside_the_monomial():
    """An alternation set with an id that is no variable of the monomial
    raises NonMultilinearError before any degree is read, where an unknown id
    raised a bare KeyError."""
    f = monomial_polynomial(variables_for([0, 1]), one())
    for var_ids in ([1, 7], [7], [2, 2]):
        with pytest.raises(NonMultilinearError, match="alternation set must be variables"):
            alternate(f, var_ids)


def test_standard_polynomial_on_matrices():
    """Alternating 4 e-variables over M2 is the Amitsur-Levitzki identity;
    alternating 2 is not an identity."""
    g = FiniteGroup.cyclic(1)
    H = g.full_subgroup()
    A = build_algebra(Presentation(g, H, Cocycle2.trivial(H, 1), (0, 0)))
    vs = variables_for([0] * 4)
    s4 = alternate(monomial_polynomial(vs, one()), [1, 2, 3, 4])
    assert is_identity(s4, A)
    vs2 = variables_for([0] * 2)
    s2 = alternate(monomial_polynomial(vs2, one()), [1, 2])
    assert not is_identity(s2, A)


# -- good permutations -----------------------------------------------------------


def test_good_permutation_reflexive_and_h_degrees(p_d4_klein, d4):
    H = p_d4_klein.subgroup
    degrees = [0, 2, 4]
    vs = variables_for(degrees)
    f = monomial_polynomial(vs, one(2))
    assert is_good_permutation(f, (1, 2, 3), (1, 2, 3), H)
    # all degrees in H: goodness reduces to equal total degree
    for sigma in ((2, 1, 3), (3, 2, 1), (1, 3, 2)):
        perm_total = d4.product_seq(f.degree_of[v] for v in sigma)
        base_total = d4.product_seq(f.degree_of[v] for v in (1, 2, 3))
        assert is_good_permutation(f, (1, 2, 3), sigma, H) == (perm_total == base_total)


def test_good_permutation_is_equivalence(p_d4_rotations):
    """Reflexive, symmetric, transitive on random monomial triples."""
    rng = random.Random(9)
    H = p_d4_rotations.subgroup
    A = build_algebra(p_d4_rotations)
    sup = sorted(A.presentation.support())
    for _ in range(50):
        degrees = [rng.choice(sup) for _ in range(4)]
        vs = variables_for(degrees)
        f = monomial_polynomial(vs, one(4))
        ids = [v.vid for v in vs]
        orders = []
        for _ in range(3):
            o = ids[:]
            rng.shuffle(o)
            orders.append(tuple(o))
        a, b, c = orders
        assert is_good_permutation(f, a, a, H)
        assert is_good_permutation(f, a, b, H) == is_good_permutation(f, b, a, H)
        if is_good_permutation(f, a, b, H) and is_good_permutation(f, b, c, H):
            assert is_good_permutation(f, a, c, H)


def test_good_permutations_dfs_matches_filter(p_d4_klein):
    """The DFS enumerator equals brute-force filtering over all permutations."""
    from itertools import permutations, product

    H = p_d4_klein.subgroup
    group = H.parent
    cosets = H.right_cosets()
    rng = random.Random(15)
    sup = list(group.elements())
    for _ in range(30):
        degrees = tuple(rng.choice(sup) for _ in range(4))
        dfs = set(good_permutations_of(degrees, H))
        vs = variables_for(degrees)
        f = monomial_polynomial(vs, one(2))
        ids = tuple(v.vid for v in vs)
        brute = set()
        for sigma in permutations(range(4)):
            order = tuple(ids[s] for s in sigma)
            if is_good_permutation(f, ids, order, H):
                brute.add(sigma)
        assert dfs == brute


def test_pure_components_examples(p_z2_unbalanced, z2):
    H = p_z2_unbalanced.subgroup
    vs = variables_for([0, 1, 1])
    single = monomial_polynomial(vs, one())
    assert len(pure_components(single, H)) == 1
    # equal totals are not enough: with H = {e} the prefix classes of the
    # sigma-variables differ under the swap, so the components split.
    vs2 = variables_for([0, 1])
    f = GradedPolynomial(vs2, [(one(), (1, 2)), (one(), (2, 1))])
    comps = pure_components(f, H)
    assert len(comps) == 2
    assert sum(len(c.monomials) for c in comps) == 2
    # a good-permutation pair stays together: e-degree commutator
    vs3 = variables_for([0, 0])
    g = GradedPolynomial(vs3, [(one(), (1, 2)), (-one(), (2, 1))])
    assert len(pure_components(g, H)) == 1
    assert is_pure(g, H)


def test_pure_components_partition_and_lemma(p_z2_balanced, p_d4_klein):
    """Identity iff every pure component is an identity, on equal-multiplicity
    normal-H fixtures."""
    rng = random.Random(2024)
    for p in (p_z2_balanced, p_d4_klein):
        A = build_algebra(p)
        H = p.subgroup
        for _ in range(30):
            f = random_multilinear(rng, A, rng.randint(2, 3), max_monomials=6)
            comps = pure_components(f, H)
            assert sum(len(c.monomials) for c in comps) == len(f.monomials)
            assert is_identity(f, A) == all(is_identity(c, A) for c in comps)


def test_good_scalar_trivial_cases(p_d4_rotations):
    ctx = GoodScalarContext(p_d4_rotations)
    degrees = (0, 1, 2)
    assert ctx.scalar(degrees, (0, 1, 2)) == one(4)
    # trivial cocycle: always 1
    for sigma in good_permutations_of(degrees, p_d4_rotations.subgroup):
        assert ctx.scalar(degrees, sigma) == one(4)


def test_good_scalar_minus_one_case(p_k4_twisted):
    # H = G = K4, Z = x_a x_b with swap: s = -1 and Z + Z_sigma is an identity
    p = p_k4_twisted
    A = build_algebra(p)
    s = good_permutation_scalar((2, 1), (1, 0), p)
    assert s == root_of_unity(2, 1)  # -1
    f = good_binomial((2, 1), (1, 0), s)
    assert is_identity(f, A)
    assert not is_identity(good_binomial((2, 1), (1, 0), -s), A)


def test_good_scalar_identities_on_d4_klein(p_d4_klein):
    from itertools import product

    p = p_d4_klein
    A = build_algebra(p)
    ctx = GoodScalarContext(p)
    checked = 0
    for degrees in product(range(8), repeat=2):
        for sigma in good_permutations_of(degrees, p.subgroup):
            s = ctx.scalar(degrees, sigma)
            assert is_identity(good_binomial(degrees, sigma, s), A)
            checked += 1
    assert checked > 20


def test_good_scalar_hypothesis_errors(p_d3_reflection, p_z2_unbalanced, p_z3z3_noninvariant):
    with pytest.raises(NotNormalError):
        GoodScalarContext(p_d3_reflection)
    with pytest.raises(HypothesisError):
        GoodScalarContext(p_z2_unbalanced)  # unequal multiplicities
    with pytest.raises(HypothesisError):
        GoodScalarContext(p_z3z3_noninvariant)  # class not invariant
    with pytest.raises(HypothesisError):
        good_permutation_scalar((0, 1), (1, 0), p_z2_unbalanced)


def test_not_good_permutation_rejected(p_d4_klein):
    # degrees (1, 0): swapping changes the prefix coset walk
    with pytest.raises(HypothesisError):
        good_permutation_scalar((1, 0), (1, 0), p_d4_klein)


def test_the_scalar_refuses_a_sigma_that_is_not_a_permutation(p_d4_klein):
    """A repeated position and a short sigma gave the scalar 1, and a
    position past the word raised IndexError."""
    ctx = GoodScalarContext(p_d4_klein)
    assert ctx.scalar((2, 4), (1, 0)) == root_of_unity(2, 1)
    for sigma in ((0, 0), (1,), (0, 5)):
        for call in (ctx.scalar, ctx.scalar_exp):
            with pytest.raises(HypothesisError, match="sigma is not a permutation"):
                call((2, 4), sigma)


def test_degree_words_refuse_a_letter_outside_the_group(p_d4_klein):
    """-1 was read as the element 7 (transversal_walk gave [0, 6], and
    good_permutations_of gave [(0, 1)]), and 9 raised IndexError;
    good_permutation_scalar called the swap not good, or raised IndexError."""
    ctx = GoodScalarContext(p_d4_klein)
    H = p_d4_klein.subgroup
    for word in ((0, -1), (0, 9)):
        message = f"letter 1: degree {word[1]} is not an element of the group"
        with pytest.raises(DegreeMismatchError, match=message):
            ctx.transversal_walk(word)
        with pytest.raises(DegreeMismatchError, match=message):
            ctx.scalar(word, (0, 1))
        with pytest.raises(DegreeMismatchError, match=message):
            list(good_permutations_of(word, H))
        with pytest.raises(DegreeMismatchError, match=message):
            good_permutation_scalar(word, (1, 0), p_d4_klein)
    with pytest.raises(HypothesisError, match="sigma is not a permutation"):
        good_binomial((0, 1), (0, 5), one(2))


def test_monomial_signature_refuses_a_degree_outside_the_group(p_d4_klein):
    """On the Klein subgroup of D4, the signature of (0, -1) was (7, 0, 1),
    reading -1 as element 7, and (0, 9) raised IndexError.  The check names
    the letter as _check_letters does, also through is_good_permutation and
    pure_components, where the letter is the variable id."""
    H = p_d4_klein.subgroup
    assert monomial_signature((0, 1), (0, 7), H) == (7, 0, 1)
    for word in ((0, -1), (0, 9)):
        message = f"letter 1: degree {word[1]} is not an element of the group"
        with pytest.raises(DegreeMismatchError, match=message):
            monomial_signature((0, 1), word, H)
        f = monomial_polynomial(
            [GradedVariable(1, word[0]), GradedVariable(2, word[1])], one(2)
        )
        message = f"letter 2: degree {word[1]} is not an element of the group"
        with pytest.raises(DegreeMismatchError, match=message):
            is_good_permutation(f, (1, 2), (2, 1), H)
        with pytest.raises(DegreeMismatchError, match=message):
            pure_components(f, H)


def test_good_scalar_decides_goodness_without_the_permutation_list(p_k4_twisted, monkeypatch):
    """A length-10 word over H = G: every permutation is good, and the scalar
    comes from two monomial signatures, not from the 10! good permutations."""
    calls = []
    monkeypatch.setattr(
        binomials, "good_permutations_of", lambda *a: calls.append(a) or iter(())
    )
    p = p_k4_twisted
    degrees = (1, 2, 3, 1, 2, 3, 1, 2, 3, 2)
    sigma = tuple(reversed(range(10)))
    s = good_permutation_scalar(degrees, sigma, p)
    # H = G has one coset, so the walk's H-elements are the degrees themselves
    assert s == p.cocycle.binomial_alpha(degrees, sigma)
    assert s == GoodScalarContext(p).scalar(degrees, sigma)
    for bad in ((0, 0) + sigma[2:], sigma[1:], sigma + (10,), (0, 1, 2, 3, 4, 5, 6, 7, 8, 10)):
        with pytest.raises(HypothesisError):
            good_permutation_scalar(degrees, bad, p)
    assert calls == []


# -- paths ------------------------------------------------------------------------


def commutator(degrees, modulus):
    vs = variables_for(degrees)
    u = CycScalar.one(modulus)
    return GradedPolynomial(vs, [(u, (1, 2)), (-u, (2, 1))])


def test_path_vanishing_commutator(p_z2_unbalanced):
    np_pres = p_z2_unbalanced
    from gradedpi.algebra import normalize_presentation

    A = build_algebra(normalize_presentation(np_pres))
    f = commutator([0, 0], 1)
    assert path_vanishes(f, A, 0)
    assert not path_vanishes(f, A, 1)
    rep = satisfies_path_property(f, A)
    assert rep.vanishing == (True, False)
    assert not rep.holds


def test_path_property_on_monomials(p_z2_balanced):
    A = build_algebra(p_z2_balanced)
    f = monomial_polynomial(variables_for([1, 1]), one())
    rep = satisfies_path_property(f, A)
    assert rep.holds and not any(rep.vanishing)


def test_sigma_commutator_not_pure_and_not_identity(p_z2_balanced):
    """Swapping two sigma-variables is not a good permutation (the prefix
    classes differ), and the commutator is genuinely not an identity:
    x = e12, y = e21 gives e11 - e22."""
    A = build_algebra(p_z2_balanced)
    f = commutator([1, 1], 1)
    assert not is_pure(f, p_z2_balanced.subgroup)
    assert not is_identity(f, A)
    with pytest.raises(HypothesisError):
        path_restriction(f, A, 0)


def test_path_restriction_r1_scalars(p_z2_balanced):
    A = build_algebra(p_z2_balanced)
    # the e-degree commutator is pure; both restrictions are the zero scalar
    f = commutator([0, 0], 1)
    for b in (0, 1):
        r = path_restriction(f, A, b)
        assert r.r == 1
        assert r.is_identity_of_matrices()
    assert is_identity(f, A)


def test_path_restriction_matches_vanishing(p_d4_klein, p_z2_balanced, d4):
    """Equal-multiplicity fixtures (including multiplicity 2 with a nontrivial
    cocycle): the matrix-reduction verdict agrees with the direct restricted
    enumeration on every block, r = 1 non-identities among them."""
    from conftest import klein_nontrivial_cocycle

    rng = random.Random(606)
    seen = set()
    klein = d4.subgroup([0, 2, 4, 6])
    p_r2 = Presentation(d4, klein, klein_nontrivial_cocycle(klein), (0, 0, 1, 1))
    for p in (p_z2_balanced, p_d4_klein, p_r2):
        A = build_algebra(p)
        H = p.subgroup
        sup = sorted(A.presentation.support())
        done = 0
        while done < 20:
            degrees = tuple(rng.choice(sup) for _ in range(3))
            sigmas = list(good_permutations_of(degrees, H))
            if len(sigmas) < 2:
                continue
            vs = variables_for(degrees)
            ids = [v.vid for v in vs]
            monos = []
            for sigma in sigmas[: rng.randint(2, min(4, len(sigmas)))]:
                order = tuple(ids[s] for s in sigma)
                coeff = CycScalar.from_rational(A.modulus, rng.randint(-2, 2))
                if coeff:
                    monos.append((coeff, order))
            if not monos:
                continue
            f = GradedPolynomial(vs, monos)
            if f.is_zero():
                continue
            bs_k = len(set(p.cosets().reps))
            for b in range(bs_k):
                restriction = path_restriction(f, A, b)
                verdict = restriction.is_identity_of_matrices()
                assert verdict == path_vanishes(f, A, b)
                seen.add((restriction.r, verdict))
            done += 1
    assert {(1, True), (1, False)} <= seen


def test_path_restriction_r2_uses_matrix_oracle():
    """k = 2 blocks of multiplicity 2 (m = 4): restrictions live over M2."""
    z2 = FiniteGroup.cyclic(2)
    H = z2.trivial_subgroup()
    p = Presentation(z2, H, Cocycle2.trivial(H, 1), (0, 0, 1, 1))
    A = build_algebra(p)
    # e-degree chains stay inside one 2x2 diagonal block, so the degree-4
    # standard polynomial restricts to Amitsur-Levitzki over M2 on each path
    # and is a graded identity of A itself.
    vs = variables_for([0] * 4)
    s4 = alternate(monomial_polynomial(vs, one()), [1, 2, 3, 4])
    for b in (0, 1):
        r = path_restriction(s4, A, b)
        assert r.r == 2
        assert r.is_identity_of_matrices()
        assert path_vanishes(s4, A, b)
    assert is_identity(s4, A)
    # degree-2 alternation does not vanish and the restrictions agree
    vs2 = variables_for([0] * 2)
    s2 = alternate(monomial_polynomial(vs2, one()), [1, 2])
    for b in (0, 1):
        assert not path_restriction(s2, A, b).is_identity_of_matrices()
        assert not path_vanishes(s2, A, b)
    assert not is_identity(s2, A)


def test_path_requires_normal_subgroup(p_d3_reflection):
    A = build_algebra(p_d3_reflection)
    f = commutator([0, 0], 1)
    with pytest.raises(NotNormalError):
        path_vanishes(f, A, 0)


def test_path_machinery_refuses_a_block_outside_the_range(p_d4_klein):
    """-1 answered for block 1 (path_restriction kept start_block == -1),
    and 2 and 5 raised IndexError; the tuple has blocks 0 and 1."""
    A = build_algebra(p_d4_klein)
    f = commutator([0, 0], 2)
    assert [path_restriction(f, A, b).start_block for b in (0, 1)] == [0, 1]
    for b in (-1, 2, 5):
        for call in (path_vanishes, path_restriction):
            with pytest.raises(HypothesisError, match=rf"start block {b} is not in 0\.\.1"):
                call(f, A, b)


def test_path_requires_pure_input(p_z2_balanced):
    A = build_algebra(p_z2_balanced)
    vs = variables_for([0, 1])
    mixed = GradedPolynomial(vs, [(one(), (1, 2)), (one(), (2, 1))])
    with pytest.raises(HypothesisError):
        satisfies_path_property(mixed, A)


def test_the_path_pattern_is_read_off_one_walk(monkeypatch):
    """satisfies_path_property decides all k = 3 blocks from one
    accumulate_evaluations call, and each block's verdict is path_vanishes':
    the e-degree commutator lives on the 2 x 2 block only."""
    z3 = FiniteGroup.cyclic(3)
    e = z3.trivial_subgroup()
    A = build_algebra(Presentation(z3, e, Cocycle2.trivial(e, 1), (0, 0, 1, 2)))
    f = commutator([0, 0], 1)
    pattern = tuple(path_vanishes(f, A, b) for b in range(3))
    assert pattern == (False, True, True)
    calls = count_walks(monkeypatch)
    report = satisfies_path_property(f, A)
    assert calls == [f]
    assert report.vanishing == pattern and not report.holds


def test_path_machinery_refuses_the_zero_polynomial(p_z2_balanced):
    A = build_algebra(p_z2_balanced)
    zero = GradedPolynomial(variables_for([0, 0]), [])
    for b in (0, 1):
        with pytest.raises(HypothesisError):
            path_vanishes(zero, A, b)
    with pytest.raises(HypothesisError):
        satisfies_path_property(zero, A)


def test_binomial_completeness_degree_three(p_k4_twisted):
    """Every multilinear identity of F^cH in degree <= 3 with fixed H-degrees
    lies in the span of the binomial identities: solve for all identity
    coefficient vectors and reduce them against the binomial span."""
    from itertools import permutations, product

    p = p_k4_twisted
    A = build_algebra(p)
    H = p.subgroup
    c = p.cocycle
    for degrees in product(H.members, repeat=3):
        vs = variables_for(degrees)
        ids = tuple(v.vid for v in vs)
        sigmas = list(permutations(range(3)))
        # identity space: coefficient vectors (alpha_sigma) with
        # sum_sigma alpha_sigma c(h_sigma) u_(prod sigma) = 0;
        # group sigmas by their product element.
        groups = {}
        for si, sigma in enumerate(sigmas):
            prod_elem = A.group.product_seq(degrees[s] for s in sigma)
            fold = c.product_exp([degrees[s] for s in sigma])
            groups.setdefault(prod_elem, []).append((si, fold))
        # Identity constraints: within each product-element bucket the
        # weighted sum of coefficients vanishes; solution space is spanned by
        # pairwise difference vectors e_i - alpha e_j inside each bucket.
        binomial_span = Span()
        for b in enumerate_binomials(c, 3):
            if len(b.hs) != 3 or tuple(b.hs) != tuple(degrees):
                continue
            vec = {sigmas.index((0, 1, 2)): one(2)}
            target = sigmas.index(b.sigma)
            coeff = -root_of_unity(2, b.alpha_exp)
            if target in vec:
                vec[target] = vec[target] + coeff
            else:
                vec[target] = coeff
            binomial_span.add({k: v for k, v in vec.items() if v})
        # But binomials pair the identity order with sigma; general pairs
        # (tau, sigma) arise as differences, so the span check below uses the
        # bucket-difference basis of the true identity space.
        for bucket in groups.values():
            si0, fold0 = bucket[0]
            for si, fold in bucket[1:]:
                vec = {
                    si0: root_of_unity(2, -fold0),
                    si: -root_of_unity(2, -fold),
                }
                # this vector is an identity: alpha_si0 = zeta^-fold0, ...
                poly = GradedPolynomial(
                    vs,
                    [
                        (vec[si0], tuple(ids[s] for s in sigmas[si0])),
                        (vec[si], tuple(ids[s] for s in sigmas[si])),
                    ],
                )
                assert is_identity(poly, A)
                assert binomial_span.contains(vec), (degrees, sigmas[si0], sigmas[si])


def _encode(digits, radix: int) -> int:
    key = 0
    for digit in digits:
        key = key * radix + digit
    return key


def test_key_digits_round_trip_and_order_lexicographically():
    """Mixed-radix keys at radix 2..40 and width up to 20 (past 2^64):
    digits inverts the encoding, and numeric order is lex digit order."""
    rng = random.Random(8)
    wide = 0
    for radix in range(2, 41):
        for width in (1, 2, 3, 7, 20):
            table = EvaluationTable(1, 1, radix, width)
            tuples = {
                tuple(rng.randrange(radix) for _ in range(width)) for _ in range(30)
            }
            tuples |= {(0,) * width, (radix - 1,) * width}
            keys = {_encode(t, radix): t for t in tuples}
            assert len(keys) == len(tuples)
            for key, t in keys.items():
                assert table.digits(key) == t
            assert [keys[k] for k in sorted(keys)] == sorted(tuples)
            wide += max(keys) >= 2**64
    assert wide > 0


def test_envelope_key_radix_orders_by_parity_then_index():
    """The envelope's digit parity * nb + k at radix 2 nb: numeric key order
    is the per-variable (parity, index) order, and divmod recovers both."""
    rng = random.Random(9)
    for nb in (1, 2, 4, 16):
        for width in (1, 3, 5):
            table = EvaluationTable(1, 1, 2 * nb, width)
            pairs = {
                tuple((rng.randrange(2), rng.randrange(nb)) for _ in range(width))
                for _ in range(40)
            }
            keys = {_encode([p * nb + k for p, k in t], 2 * nb): t for t in pairs}
            assert len(keys) == len(pairs)
            for key, t in keys.items():
                assert tuple(divmod(digit, nb) for digit in table.digits(key)) == t
            assert [keys[k] for k in sorted(keys)] == sorted(pairs)


def _chained_keys(f: GradedPolynomial, A) -> set[tuple]:
    """Every assignment (basis indices in sorted id order) whose matrix units
    chain in the order of some monomial, by brute force over all of them."""
    vids = f.var_ids()
    pools = [A.homogeneous_basis(f.degree_of[v]) for v in vids]
    keys = set()
    for key in iproduct(*pools):
        triple = {vid: A.basis[k] for vid, k in zip(vids, key)}
        for m in f.monomials:
            units = [triple[vid] for vid in m.order]
            if all(a[2] == b[1] for a, b in zip(units, units[1:])):
                keys.add(key)
                break
    return keys


def test_key_count_matches_brute_force_at_sixteen_basis_elements(k4):
    """Twisted K4 with two tuple entries (nb = 16), degree 3: the table holds
    exactly the chained assignments, with the brute-force nonzero ones and
    lex-first counterexample.  Keys merged by a wrong weight would shrink the
    table."""
    H = k4.full_subgroup()
    A = build_algebra(Presentation(k4, H, klein_nontrivial_cocycle(H), (0, 1)))
    assert len(A.basis) == 16
    rng = random.Random(16)
    zero_keys = 0
    for _ in range(12):
        f = random_multilinear(rng, A, 3, max_monomials=6)
        acc = accumulate_evaluations(f, A)
        keys = _chained_keys(f, A)
        nonzero = sorted(
            key
            for key in keys
            if evaluate(
                f, A, assignment_elements(
                    A, {vid: A.basis[k] for vid, k in zip(f.var_ids(), key)}
                )
            )
        )
        assert len(acc) == len(keys)
        assert {acc.digits(key) for key in acc} == keys
        assert sum(1 for bucket in acc.values() if bucket) == len(nonzero)
        first = min((key for key, bucket in acc.items() if bucket), default=None)
        assert (first is None) == (not nonzero)
        if nonzero:
            assert acc.digits(first) == nonzero[0]
        report = check_identity(f, A)
        assert report.identity == (not nonzero)
        if nonzero:
            assert report.counterexample == {
                vid: A.basis[k] for vid, k in zip(f.var_ids(), nonzero[0])
            }
        zero_keys += len(keys) - len(nonzero)
    assert zero_keys > 0


# -- shapes: equal factors share one walk -----------------------------------------


def _renamed(f: GradedPolynomial, rename) -> GradedPolynomial:
    return GradedPolynomial(
        [GradedVariable(rename(v.vid), v.degree) for v in f.variables],
        [(m.coeff, tuple(rename(v) for v in m.order)) for m in f.monomials],
    )


def test_shape_is_invariant_under_order_preserving_renaming(p_k4_twisted):
    """An increasing map of ids keeps the shape, and accumulate_evaluations
    then returns the same table (keys, values, scale) and the same span."""
    A = build_algebra(p_k4_twisted)
    rng = random.Random(23)
    for _ in range(10):
        f = random_multilinear(rng, A, rng.randint(1, 4), max_monomials=5)
        g = _renamed(f, lambda vid: 3 * vid + 40)
        assert set(g.degree_of).isdisjoint(f.degree_of)
        assert g.shape() == f.shape()
        acc_f, acc_g = accumulate_evaluations(f, A), accumulate_evaluations(g, A)
        assert acc_g == acc_f and acc_g.scale == acc_f.scale
        assert evaluation_span(g, A).basis() == evaluation_span(f, A).basis()


def test_shape_changes_with_one_coefficient_degree_or_order(p_z2_unbalanced):
    one = CycScalar.one(1)
    vs = variables_for([0, 1, 0])
    f = GradedPolynomial(vs, [(one, (1, 2, 3)), (-one, (3, 2, 1))])
    coeff = GradedPolynomial(vs, [(one + one, (1, 2, 3)), (-one, (3, 2, 1))])
    degree = GradedPolynomial(variables_for([0, 1, 1]), [(one, (1, 2, 3)), (-one, (3, 2, 1))])
    order = GradedPolynomial(vs, [(one, (1, 2, 3)), (-one, (2, 3, 1))])
    for other in (coeff, degree, order):
        assert other.shape() != f.shape()
    # A renaming that is not order-preserving moves the ranks.
    assert _renamed(f, lambda vid: 4 - vid).shape() != f.shape()


def test_factor_spans_share_only_equal_shapes(p_z2_unbalanced, monkeypatch):
    """Equal shapes: one walk, and the span a second walk would give.
    Unequal shapes or a factored side: both spans computed."""
    A = build_algebra(p_z2_unbalanced)
    one = CycScalar.one(1)
    vs = variables_for([0, 0])
    f = GradedPolynomial(vs, [(one, (1, 2)), (-one, (2, 1))])
    g = _renamed(f, lambda vid: vid + 2)
    g_mutated = GradedPolynomial(g.variables, [(one, (3, 4)), (-one - one, (4, 3))])
    product = disjoint_product(monomial_polynomial(variables_for([1], 5), one), g)
    fresh = {id(p): evaluation_span(p, A).basis() for p in (f, g, g_mutated)}
    calls = count_walks(monkeypatch)
    s1, s2 = polynomials._factor_spans(f, g, A)
    assert s1 is s2 and calls == [f]
    assert s2.basis() == fresh[id(g)]
    calls.clear()
    s1, s2 = polynomials._factor_spans(f, g_mutated, A)
    assert calls == [f, g_mutated]
    assert (s1.basis(), s2.basis()) == (fresh[id(f)], fresh[id(g_mutated)])
    assert s1.basis() != s2.basis()
    calls.clear()
    polynomials._factor_spans(f, product, A)
    assert len(calls) == 3


def test_factored_counterexample_walks_the_right_factor_once(p_z2_unbalanced, monkeypatch):
    """x1 [x2, x3] over (e, e, s): the commutator's values lie in the upper
    M_2 block, so the first two values of x1 (e13, e23) miss every one of
    them and the right stream is iterated three times.  It is walked once,
    and the counterexample is the lex-first pair: e31, then e11 and e12."""
    A = build_algebra(p_z2_unbalanced)
    one = CycScalar.one(1)
    left = monomial_polynomial(variables_for([1]), one)
    right = GradedPolynomial(variables_for([0, 0], 2), [(one, (2, 3)), (-one, (3, 2))])
    f = disjoint_product(left, right)
    calls = count_walks(monkeypatch)
    assign, value = polynomials._factored_counterexample(f, A)
    assert calls == [left, right]
    assert assign == {1: (0, 2, 0), 2: (0, 0, 0), 3: (0, 0, 1)}
    assert value == {(0, 2, 1): one}
    # The lex-first nonzero (left key, right key) pair, from the two tables.
    acc_l, acc_r = accumulate_evaluations(left, A), accumulate_evaluations(right, A)
    pairs = (
        (kl, kr)
        for kl in sorted(k for k, b in acc_l.items() if b)
        for kr in sorted(k for k, b in acc_r.items() if b)
        if A.mul_vectors(acc_l.value(kl), acc_r.value(kr))
    )
    kl, kr = next(pairs)
    expected = {vid: A.basis[k] for vid, k in zip(left.var_ids(), acc_l.digits(kl))}
    expected.update({vid: A.basis[k] for vid, k in zip(right.var_ids(), acc_r.digits(kr))})
    assert assign == expected
    calls.clear()
    report = check_identity(f, A)
    assert (report.counterexample, report.value) == (assign, value)
    assert calls == [left, right, left, right]


def _gcd_presentations() -> list[tuple[Presentation, int]]:
    """Modulus 12 with every exponent even: the Klein class lifted to 12
    (entries 0 and 6) and an even coboundary on C6 (entries with gcd 2)."""
    c2, c6 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(6)
    k4 = FiniteGroup.direct_product(c2, c2)
    hk, h6 = k4.full_subgroup(), c6.full_subgroup()
    klein = klein_nontrivial_cocycle(hk).with_modulus(12)
    even = Coboundary(h6, 12, (0, 2, 10, 4, 6, 8)).induced()
    return [
        (Presentation(k4, hk, klein, (0, 1)), 6),
        (Presentation(c6, h6, even, (0,)), 2),
    ]


def test_walk_on_reduced_exponents_matches_brute_force_at_modulus_12():
    """1 < gcd(N, exponents) < N: the walk sums e // g modulo N // g, and its
    table still holds every chained key with the brute-force value."""
    rng = random.Random(12)
    for p, g in _gcd_presentations():
        A = build_algebra(p)
        assert gcd(12, *(v for row in p.cocycle.exps for v in row)) == g
        for _ in range(8):
            f = _random_twisted_polynomial(rng, A, rng.randint(1, 3))
            acc = accumulate_evaluations(f, A)
            brute = dict(_brute_values(f, A))
            assert {acc.digits(key) for key in acc} == _chained_keys(f, A)
            for key in acc:
                assert acc.value(key) == brute[acc.digits(key)]
            nonzero = {key for key, value in brute.items() if value}
            assert {acc.digits(key) for key, bucket in acc.items() if bucket} == nonzero


def test_table_is_freed_when_the_caller_drops_it(p_k4_twisted):
    """The walk leaves no reference cycle holding its table: with the cyclic
    collector off, a dropped table is gone at once."""
    A = build_algebra(p_k4_twisted)
    f = random_multilinear(random.Random(4), A, 3)
    gc.collect()
    gc.disable()
    try:
        assert len(accumulate_evaluations(f, A)) > 0
        assert not any(type(o) is EvaluationTable for o in gc.get_objects())
    finally:
        gc.enable()


# -- alternation classes: one key per sign orbit ------------------------------------


def _presentations_over_moduli_1_3_4_12() -> list[Presentation]:
    """Untwisted Z2- and C3-gradings of M_3 and M_4 at modulus 1, then the twisted
    presentations at moduli 3, 4 and 12."""
    z2, c3 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)
    e2, e3 = z2.trivial_subgroup(), c3.trivial_subgroup()
    return [
        Presentation(z2, e2, Cocycle2.trivial(e2, 1), (0, 0, 1)),
        Presentation(c3, e3, Cocycle2.trivial(e3, 1), (0, 1, 1, 2)),
    ] + _presentations_over_moduli_3_4_12()


def _slots(f: GradedPolynomial, classes) -> list[list[int]]:
    ids = f.var_ids()
    return [[ids.index(vid) for vid in members] for members in classes]


def _inversions(digits) -> int:
    return sum(a > b for i, a in enumerate(digits) for b in digits[i + 1:])


def _canonical_form(key: tuple, slots) -> tuple[tuple, int]:
    """The key with each class's digits sorted into its slots, and the sign
    of that permutation; the sign is 0 when a class repeats a digit."""
    out, sign = list(key), 1
    for ss in slots:
        digits = [key[s] for s in ss]
        if len(set(digits)) < len(digits):
            return key, 0
        sign *= (-1) ** _inversions(digits)
        for s, digit in zip(ss, sorted(digits)):
            out[s] = digit
    return tuple(out), sign


def _assert_canonical_walk(f: GradedPolynomial, A, classes) -> dict:
    """The table holds exactly the canonical chained keys, each with its
    brute-force value, and brute force confirms the orbit lemma: a repeated
    digit in a class gives 0, any other key +-its canonical key's value."""
    assert polynomials._alternation_classes(f, _coefficient_terms(f)) == classes
    slots = _slots(f, classes)
    brute = dict(_brute_values(f, A))
    acc = accumulate_evaluations(f, A)
    walked = {acc.digits(key): key for key in acc}
    assert set(walked) == {
        key for key in _chained_keys(f, A) if _canonical_form(key, slots) == (key, 1)
    }
    for digits, key in walked.items():
        assert acc.value(key) == brute[digits]
    for key, value in brute.items():
        canon, sign = _canonical_form(key, slots)
        if sign == 0:
            assert not value
        else:
            assert value == {t: c if sign == 1 else -c for t, c in brute[canon].items()}
    return brute


def _coefficient_terms(f: GradedPolynomial) -> list:
    """f's (coefficient index, order) terms: each distinct coefficient c has
    index 2k and -c has 2k + 1."""
    index: dict = {}
    for m in f.monomials:
        if m.coeff not in index:
            index[m.coeff], index[-m.coeff] = len(index), len(index) + 1
    return [(index[m.coeff], m.order) for m in f.monomials]


def _assert_oracle_answers(f: GradedPolynomial, A, brute: dict) -> None:
    """check_identity's counterexample and value, and the evaluation span's
    basis, against the brute-force values in sorted key order."""
    nonzero = [(key, value) for key, value in sorted(brute.items()) if value]
    report = check_identity(f, A)
    assert report.identity == (not nonzero)
    if nonzero:
        key, value = nonzero[0]
        assert report.counterexample == {vid: A.basis[k] for vid, k in zip(f.var_ids(), key)}
        assert report.value == value
    expected = span_of(value for _, value in sorted(brute.items()))
    assert evaluation_span(f, A).basis() == expected.basis()


def _same_degree_word(rng, A, degree: int, repeats: int) -> list[int]:
    """A degree word in which the first `repeats` letters share one degree."""
    sup = sorted(A.presentation.support())
    shared = rng.choice(sup)
    word = [shared] * repeats + [rng.choice(sup) for _ in range(degree - repeats)]
    rng.shuffle(word)
    return word


def _random_coefficient(rng, N: int) -> CycScalar:
    return _coefficient(N, [(rng.randrange(N), Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 5])))])


def _permuted(f: GradedPolynomial, perm: dict) -> GradedPolynomial:
    """f with the variables' positions renamed by perm, on the same variables."""
    return GradedPolynomial(
        f.variables, [(m.coeff, tuple(perm.get(v, v) for v in m.order)) for m in f.monomials]
    )


def test_alternation_of_random_monomials_walks_canonical_keys():
    """alternate() over 2 or 3 same-degree variables of a random monomial of
    degree up to 4, at moduli 1, 3, 4 and 12: one class, the canonical
    chained keys only, and the oracle's answers of a full walk."""
    rng = random.Random(101)
    seen = {"identity": 0, "counterexample": 0}
    for p in _presentations_over_moduli_1_3_4_12():
        A = build_algebra(p)
        for _ in range(4):
            size = rng.randint(2, 3)
            word = _same_degree_word(rng, A, rng.randint(size, 4), size)
            shared = max(set(word), key=word.count)
            variables = variables_for(word)
            order = [v.vid for v in variables]
            rng.shuffle(order)
            base = monomial_polynomial(variables, _random_coefficient(rng, A.modulus), order)
            xs = rng.sample([v.vid for v in variables if v.degree == shared], size)
            f = alternate(base, xs)
            brute = _assert_canonical_walk(f, A, [sorted(xs)])
            _assert_oracle_answers(f, A, brute)
            seen["counterexample" if any(brute.values()) else "identity"] += 1
            # -f, read off f's index with every index i as i ^ 1: the first
            # monomial carries the odd member of its pair.
            negated = [(ci ^ 1, order) for ci, order in _coefficient_terms(f)]
            assert negated[0][0] == 1
            assert polynomials._alternation_classes(-f, negated) == [sorted(xs)]
            acc, negated_acc = accumulate_evaluations(f, A), accumulate_evaluations(-f, A)
            assert list(negated_acc) == list(acc)
            for key in acc:
                assert negated_acc.value(key) == {t: -c for t, c in acc.value(key).items()}
    assert seen["identity"] > 0 and seen["counterexample"] > 10, seen


def test_sums_of_alternations_with_interleaved_class_slots():
    """Two classes whose slots interleave ({1, 3} and {2, 4}: a sum of
    alternations over {1, 3} signed by the permutations of {2, 4}), and a sum
    of two alternations over one class {1, 3, 4} around a free variable."""
    rng = random.Random(102)
    checked = 0
    for p in _presentations_over_moduli_1_3_4_12():
        A = build_algebra(p)
        sup = sorted(A.presentation.support())
        a = rng.choice(sup)
        b = rng.choice([x for x in sup if x != a] or sup)
        coeff = _random_coefficient(rng, A.modulus)
        order = [1, 2, 3, 4]
        rng.shuffle(order)
        single = alternate(monomial_polynomial(variables_for([a, b, a, b]), coeff, order), [1, 3])
        double = single - _permuted(single, {2: 4, 4: 2})
        classes = [[1, 2, 3, 4]] if a == b else [[1, 3], [2, 4]]
        brute = _assert_canonical_walk(double, A, classes)
        _assert_oracle_answers(double, A, brute)
        variables = variables_for([a, b, a, a])
        first, second = [1, 2, 3, 4], [1, 2, 3, 4]
        rng.shuffle(first)
        rng.shuffle(second)
        two = alternate(monomial_polynomial(variables, coeff, first), [1, 3, 4]) + alternate(
            monomial_polynomial(variables, _random_coefficient(rng, A.modulus), second), [1, 3, 4]
        )
        if two.is_zero():
            continue
        brute = _assert_canonical_walk(two, A, [[1, 3, 4]])
        _assert_oracle_answers(two, A, brute)
        checked += 1
    assert checked >= 6


def test_polynomial_antisymmetric_in_one_pair_only():
    """c (x1 x2 x3 - x2 x1 x3) + d (x3 x1 x2 - x3 x2 x1) with x1, x2, x3 of
    one degree: only (x1 x2) is an alternating pair."""
    rng = random.Random(103)
    for p in _presentations_over_moduli_1_3_4_12():
        A = build_algebra(p)
        g = rng.choice(sorted(A.presentation.support()))
        c, d = (_random_coefficient(rng, A.modulus) for _ in range(2))
        f = GradedPolynomial(
            variables_for([g, g, g]),
            [(c, (1, 2, 3)), (-c, (2, 1, 3)), (d, (3, 1, 2)), (-d, (3, 2, 1))],
        )
        brute = _assert_canonical_walk(f, A, [[1, 2]])
        _assert_oracle_answers(f, A, brute)


def test_factored_counterexample_of_two_alternating_factors():
    """The product of two alternating factors on disjoint variables: its
    counterexample and value are those of the lex-first (left key, right key)
    pair of brute-force values with a nonzero product."""
    rng = random.Random(104)
    seen = 0
    for p in _presentations_over_moduli_1_3_4_12():
        A = build_algebra(p)
        factors = []
        for start in (1, 4):
            word = _same_degree_word(rng, A, 3, rng.randint(2, 3))
            shared = max(set(word), key=word.count)
            variables = variables_for(word, start)
            xs = [v.vid for v in variables if v.degree == shared][:2]
            order = [v.vid for v in variables]
            rng.shuffle(order)
            factors.append(alternate(monomial_polynomial(variables, one(A.modulus), order), xs))
        left, right = factors
        f = disjoint_product(left, right)
        pairs = (
            (kl, vl, kr, vr)
            for kl, vl in sorted(_brute_values(left, A))
            if vl
            for kr, vr in sorted(_brute_values(right, A))
            if vr and A.mul_vectors(vl, vr)
        )
        first = next(pairs, None)
        report = check_identity(f, A)
        assert report.identity == (first is None)
        if first is None:
            continue
        kl, vl, kr, vr = first
        assign = {vid: A.basis[k] for vid, k in zip(left.var_ids(), kl)}
        assign.update({vid: A.basis[k] for vid, k in zip(right.var_ids(), kr)})
        assert polynomials._factored_counterexample(f, A) == (assign, A.mul_vectors(vl, vr))
        assert (report.counterexample, report.value) == (assign, A.mul_vectors(vl, vr))
        seen += 1
    assert seen >= 4


def test_path_vanishes_with_the_lead_variable_in_a_class():
    """Degrees in H keep an alternation pure.  The lead variable stays in its
    class: the table holds the canonical keys only, and path_vanishes, which
    reads the rows of their value triples, agrees with brute force on the
    lead variable's rows."""
    rng = random.Random(105)
    checked = vanishing = 0
    for p in _presentations_over_moduli_1_3_4_12():
        if p.subgroup == p.group.full_subgroup() or not p.subgroup.is_normal():
            continue
        A = build_algebra(p)
        bs = block_structure(p)
        members = sorted(p.subgroup.members)
        for _ in range(3):
            h = rng.choice(members)
            variables = variables_for([h, h, h, rng.choice(members)])
            first = rng.choice([1, 2, 3])
            others = [v for v in (1, 2, 3) if v != first]
            xs = sorted([first] + rng.sample(others, rng.randint(1, 2)))
            rest = others + [4]
            rng.shuffle(rest)
            order = [first] + rest
            f = alternate(monomial_polynomial(variables, _random_coefficient(rng, A.modulus), order), xs)
            assert is_pure(f, p.subgroup)
            # alternate() lists the sorted class first, so x_lead's slot
            # leads with a class member.
            lead = f.monomials[0].order[0]
            classes = polynomials._alternation_classes(f, _coefficient_terms(f))
            assert classes == [xs]
            brute = _assert_canonical_walk(f, A, classes)
            for b in range(bs.k):
                rows = frozenset(bs.positions[b])
                slot = f.var_ids().index(lead)
                expected = all(
                    not value for key, value in brute.items() if A.basis[key[slot]][1] in rows
                )
                assert path_vanishes(f, A, b) == expected
                checked += 1
                vanishing += expected
    assert 0 < vanishing < checked, (vanishing, checked)


def test_near_misses_keep_the_full_table():
    """No alternation class, so the table is every chained key: a symmetric
    pair (c, c), an alternation with one perturbed coefficient, a pair
    (x1 x2) whose swap misses two monomials (whose negated coefficients are
    missing too), and an antisymmetric pair of unequal degrees."""
    rng = random.Random(106)
    cases = 0
    for p in _presentations_over_moduli_1_3_4_12():
        A = build_algebra(p)
        sup = sorted(A.presentation.support())
        g = rng.choice(sup)
        c = _random_coefficient(rng, A.modulus)
        symmetric = GradedPolynomial(variables_for([g, g, g]), [(c, (1, 2, 3)), (c, (2, 1, 3))])
        alternation = alternate(monomial_polynomial(variables_for([g, g, g]), c, (2, 3, 1)), [1, 2, 3])
        perturbed = GradedPolynomial(
            alternation.variables,
            [(m.coeff + m.coeff if i == 3 else m.coeff, m.order) for i, m in enumerate(alternation.monomials)],
        )
        missing_swap = GradedPolynomial(
            variables_for([g, g, g]),
            [(c, (1, 2, 3)), (-c, (2, 1, 3)), (c + c, (3, 1, 2)), (c + c + c, (1, 3, 2))],
        )
        polys = [symmetric, perturbed, missing_swap]
        if len(sup) > 1:
            h = rng.choice([x for x in sup if x != g])
            polys.append(GradedPolynomial(variables_for([g, h, g]), [(c, (1, 2, 3)), (-c, (2, 1, 3))]))
        for f in polys:
            assert polynomials._alternation_classes(f, _coefficient_terms(f)) == []
            acc = accumulate_evaluations(f, A)
            assert {acc.digits(key) for key in acc} == _chained_keys(f, A)
            brute = dict(_brute_values(f, A))
            for key in acc:
                assert acc.value(key) == brute[acc.digits(key)]
            _assert_oracle_answers(f, A, brute)
            cases += 1
    assert cases >= 20


def _capelli_shaped(path: str, x_degree: int, y_degree: int, coeff: CycScalar, x_least: bool):
    """The alternation over its x's of the monomial spelled by path (a word
    in x and y, the x's apart), numbered in order with the x's first or the
    y's first, and the sorted ids of its x's."""
    xs = [i for i, v in enumerate(path) if v == "x"]
    ys = [i for i, v in enumerate(path) if v == "y"]
    positions = xs + ys if x_least else ys + xs
    ids = {i: vid for vid, i in enumerate(positions, start=1)}
    degrees = [x_degree if path[i] == "x" else y_degree for i in positions]
    order = [ids[i] for i in range(len(path))]
    monomial = monomial_polynomial(variables_for(degrees), coeff, order)
    members = sorted(ids[i] for i in xs)
    return alternate(monomial, members), members


def test_capelli_shaped_tables_match_brute_force():
    """Alternations whose members are separated by free variables, as in the
    Capelli polynomials: over ungraded M_2, c_3 without its last y (ending on
    a member, a y least) and without its first y (an x least), and over the
    C2-graded M_2(F^c C2) at moduli 1 and 4, in both id orders.  The table
    holds the canonical chained keys with their brute-force values."""
    c1, c2 = FiniteGroup.cyclic(1), FiniteGroup.cyclic(2)
    e1, h2 = c1.trivial_subgroup(), c2.full_subgroup()
    m2 = build_algebra(Presentation(c1, e1, Cocycle2.trivial(e1, 1), (0, 0)))
    cases = [
        (m2, _capelli_shaped("yxyxyx", 0, 0, one(1), x_least=False)),
        (m2, _capelli_shaped("xyxyxy", 0, 0, one(1), x_least=True)),
    ]
    twisted = Coboundary(h2, 4, (0, 1)).induced()
    assert twisted.exps[1][1] == 2  # c(u, u) = zeta_4^2 = -1
    untwisted = Cocycle2.trivial(h2, 1)
    for cocycle, coeff in ((untwisted, one(1)), (twisted, _coefficient(4, [(1, "2/3")]))):
        A = build_algebra(Presentation(c2, h2, cocycle, (0, 0)))
        for x_least in (True, False):
            cases.append((A, _capelli_shaped("xyxyx", 1, 0, coeff, x_least)))
    nonzero = 0
    for A, (f, members) in cases:
        assert len(f.monomials) == 6
        brute = _assert_canonical_walk(f, A, [members])
        _assert_oracle_answers(f, A, brute)
        nonzero += any(brute.values())
    assert nonzero >= 4


def test_an_alternation_over_five_walks_one_term(monkeypatch):
    """x y x y x y x y x alternated over its five x's has 120 monomials, one
    orbit, and one walked term."""
    c1 = FiniteGroup.cyclic(1)
    e1 = c1.trivial_subgroup()
    m2 = build_algebra(Presentation(c1, e1, Cocycle2.trivial(e1, 1), (0, 0)))
    f, _ = _capelli_shaped("xyxyxyxyx", 0, 0, one(1), x_least=True)
    assert len(f.monomials) == 120
    (plan,) = built_plans(monkeypatch, lambda: accumulate_evaluations(f, m2))
    assert len(plan.terms) == 1
    _assert_orbit_representatives(f, plan.terms)


def test_class_state_is_restored_between_sibling_entries(monkeypatch):
    """Two orbits, x4 x1 x2 x3 and x4 x1 x3 x2, of an alternation over the
    degree-1 variables, below a free x4: after x4 x1 the trie holds a class
    member's entry then a free one (class {1, 2}), or a free one then a
    member's (class {1, 3}).  The walk sets the class state on a member's
    edges, so a later sibling, or x4's next edge, sees it only if it is not
    restored.  Over the C2-graded M_2(F^c C2) at moduli 1 and 4."""
    c2 = FiniteGroup.cyclic(2)
    h2 = c2.full_subgroup()
    twisted = Coboundary(h2, 4, (0, 1)).induced()
    seen = set()
    for cocycle, coeff in ((Cocycle2.trivial(h2, 1), one(1)), (twisted, _coefficient(4, [(1, "2/3")]))):
        A = build_algebra(Presentation(c2, h2, cocycle, (0, 0)))
        for members in ([1, 2], [1, 3]):
            variables = variables_for([int(vid in members) for vid in (1, 2, 3, 4)])
            f = alternate(monomial_polynomial(variables, coeff, (4, 1, 2, 3)), members) + alternate(
                monomial_polynomial(variables, coeff + coeff, (4, 1, 3, 2)), members
            )
            (plan,) = built_plans(monkeypatch, lambda: accumulate_evaluations(f, A))
            (_, below_x1), = plan.trie[0][1]
            seen.add(tuple(type(per_row[0]) is list for per_row, _ in below_x1))
            brute = _assert_canonical_walk(f, A, [members])
            _assert_oracle_answers(f, A, brute)
            assert any(brute.values())
    assert seen == {(True, False), (False, True)}


def test_oracle_leaves_no_garbage_for_the_cyclic_collector(k4):
    """With the collector off, dropping a table or an identity report leaves
    nothing unreachable: the walk and the trie builder hold no cycles, with
    or without alternation classes."""
    H = k4.full_subgroup()
    A = build_algebra(Presentation(k4, H, klein_nontrivial_cocycle(H), (0, 1)))
    f = random_multilinear(random.Random(4), A, 3)
    g = alternate(monomial_polynomial(variables_for([0, 0, 1]), one(2), (1, 3, 2)), [1, 2])
    gc.collect()
    gc.disable()
    try:
        for poly in (f, g):
            assert len(accumulate_evaluations(poly, A)) > 0
            assert gc.collect() == 0
            check_identity(poly, A)
            assert gc.collect() == 0
    finally:
        gc.enable()


# -- the walk's prefix trie -----------------------------------------------------------


def _assert_trie(terms, edges, trie) -> None:
    """One entry per distinct prefix of a term's path with an alternative
    (label, bit) per label; each such path ends at its coefficient index,
    xor the parity of the inversions among its nonzero bits."""
    label_of = {id(rows): (label, bit) for label, alts in edges.items() for rows, bit in alts}
    seen, leaves = [], {}

    def visit(node: list, prefix: tuple) -> None:
        for rows, child in node:
            path = prefix + (label_of[id(rows)],)
            seen.append(path)
            if type(child) is int:
                leaves[path] = child
            else:
                visit(child, path)

    visit(trie, ())
    paths = {
        tuple(zip(path, bits)): ci
        for ci, path in terms
        for bits in iproduct(*([bit for _, bit in edges[label]] for label in path))
    }
    prefixes = {path[:n] for path in paths for n in range(1, len(path) + 1)}
    assert len(seen) == len(set(seen)) and set(seen) == prefixes
    assert leaves == {
        path: ci ^ _inversions([bit for _, bit in path if bit]) % 2 for path, ci in paths.items()
    }


def _assert_orbit_representatives(f: GradedPolynomial, terms) -> None:
    """The walked terms are one monomial per orbit of f's classes, each with
    every class's members in ascending id order along the path; a path that
    would end on a member ends on the extra label None instead."""
    classes = polynomials._alternation_classes(f, _coefficient_terms(f))
    orbit = prod(factorial(len(members)) for members in classes)
    assert len(terms) * orbit == len(f.monomials)
    ends_on_member = any(m.order[-1] in members for m in f.monomials for members in classes)
    orders = {m.order for m in f.monomials}
    for _, path in terms:
        order = path[:-1] if ends_on_member else path
        assert path[-1] is None if ends_on_member else None not in path
        assert order in orders
        for members in classes:
            assert [vid for vid in order if vid in members] == members


def test_prefix_trie_entries_leaves_and_orbit_representatives(k4, monkeypatch):
    """The _chained_keys fixtures without classes (twisted K4, nb = 16) and
    with them (one class, two interleaved classes, a class around a free
    variable), and one envelope term set, whose labels have an even and an
    odd alternative.  A polynomial with classes is walked on one monomial per
    orbit.  Each walk's plan holds the classes that _alternation_classes
    finds and their members' slot weights."""
    H = k4.full_subgroup()
    A = build_algebra(Presentation(k4, H, klein_nontrivial_cocycle(H), (0, 1)))
    rng = random.Random(16)
    plain = [random_multilinear(rng, A, 3, max_monomials=6) for _ in range(3)]
    z2 = FiniteGroup.cyclic(2)
    e2 = z2.trivial_subgroup()
    M3 = build_algebra(Presentation(z2, e2, Cocycle2.trivial(e2, 1), (0, 0, 1)))
    c = one(1)
    single = alternate(monomial_polynomial(variables_for([0, 1, 0, 1]), c, (3, 1, 4, 2)), [1, 3])
    alternating = [
        alternate(monomial_polynomial(variables_for([0, 0, 0]), c, (2, 3, 1)), [1, 2, 3]),
        single - _permuted(single, {2: 4, 4: 2}),
        alternate(monomial_polynomial(variables_for([0, 1, 0, 0]), c, (4, 2, 1, 3)), [1, 3, 4]),
    ]
    # A Z2 x Z2-graded base whose first factor is the sign.
    g2 = FiniteGroup.direct_product(z2, z2)
    e4 = g2.trivial_subgroup()
    base = build_algebra(Presentation(g2, e4, Cocycle2.trivial(e4, 1), (0, 2)))
    envelope = GradedPolynomial(
        variables_for([0, 1, 1]), [(one(1), (1, 2, 3)), (-one(1), (3, 2, 1)), (one(1), (2, 1, 3))]
    )

    def run():
        for f in plain:
            accumulate_evaluations(f, A)
        for f in alternating:
            accumulate_evaluations(f, M3)
        envelope_identity_check(envelope, base, 3)

    built = built_plans(monkeypatch, run)
    assert len(built) == len(plain) + len(alternating) + 1
    classes = [polynomials._alternation_classes(f, _coefficient_terms(f)) for f in alternating]
    assert [len(c) for c in classes] == [1, 2, 1]
    assert [plan.classes for plan in built] == [[]] * len(plain) + classes + [[]]
    for f, plan in zip(plain + alternating + [envelope], built):
        _assert_trie(plan.terms, plan.edges, plan.trie)
        slots = [f.var_ids().index(vid) for members in plan.classes for vid in members]
        assert plan.member_weights == [plan.radix ** (plan.width - 1 - s) for s in slots]
    for f, plan in zip(plain + alternating, built):
        _assert_orbit_representatives(f, plan.terms)
    # The class of 3 fills the monomial, so its paths end on None.
    assert built[len(plain)].terms[0][1][-1] is None


# -- dense Capelli fixtures, verdicts by construction ---------------------------------

# (group order, elementary grading of M_m with H trivial, degree of the x's),
# every x component of dimension at most 4.
CAPELLI_GRADINGS = [
    (1, (0, 0), 0),
    (2, (0, 1), 0),
    (2, (0, 1), 1),
    (2, (0, 0, 1), 1),
    (3, (0, 1, 2), 0),
    (3, (0, 1, 2), 1),
    (3, (0, 1, 2), 2),
    (3, (0, 0, 1), 1),
    (3, (0, 0, 1), 2),
]

# The brute-force oracle runs when it evaluates at most this many monomials.
BRUTE_BUDGET = 2000


def _elementary(order: int, grading, modulus: int):
    G = FiniteGroup.cyclic(order)
    H = G.trivial_subgroup()
    return build_algebra(Presentation(G, H, Cocycle2.trivial(H, modulus), grading))


def _capelli_construction(A, g: int, n: int):
    """n distinct matrix units x_k of degree g (the first in basis order),
    y_0 = e_(row x_1, row x_1), y_k = e_(col x_k, row x_(k+1)) and
    y_n = e_(col x_n, col x_n).  A chain y_0 x_s(1) y_1 ... needs x_s(k) to
    have x_k's row and column, so only sigma = id chains.  Returns the x and
    y units and the y degrees."""
    xs = [A.basis[k] for k in A.homogeneous_basis(g)[:n]]
    rows = [xs[0][1]] + [x[2] for x in xs]
    cols = [x[1] for x in xs] + [xs[-1][2]]
    ys = [(0, r, c) for r, c in zip(rows, cols)]
    return xs, ys, [A.degree[A.index[y]] for y in ys]


def _check_capelli(f, A, identity: bool):
    """The oracle's verdict, a counterexample that evaluates to its reported
    value, and the brute-force oracle's verdict where it is cheap; returns
    the walk's table."""
    report = check_identity(f, A)
    assert report.identity == identity
    if not identity:
        one = CycScalar.one(A.modulus)
        at = {v: A.element({t: one}) for v, t in report.counterexample.items()}
        assert evaluate(f, A, at) == A.element(report.value)
    cost = len(f.monomials) * prod(len(A.homogeneous_basis(d)) for d in f.degree_of.values())
    if cost <= BRUTE_BUDGET:
        assert brute_is_identity(f, A) == identity
    return accumulate_evaluations(f, A)


@pytest.mark.parametrize("modulus", [1, 3], ids=lambda n: f"mod{n}")
@pytest.mark.parametrize(
    "order, grading, g",
    CAPELLI_GRADINGS,
    ids=[f"C{o}-{''.join(map(str, gr))}-g{g}" for o, gr, g in CAPELLI_GRADINGS],
)
def test_capelli_threshold_by_construction(order, grading, g, modulus):
    """c_n on x's of degree g is an identity iff n > dim A_g, in both id
    orders.  Above the dimension every key repeats a digit among the
    alternating x's, so the table holds no canonical key.  At the dimension
    the construction gives c_n the value sgn(id) times the product of the
    chosen units, by element arithmetic and in the walk's table: the x units
    ascend in basis order, so the construction's key is canonical.  Both id
    orders reach the same number of keys (96 for c_4 over M_2)."""
    A = _elementary(order, grading, modulus)
    dim = len(A.homogeneous_basis(g))
    assert 2 <= dim <= 4
    xs, ys, y_degrees = _capelli_construction(A, g, dim)
    product_of_units = A.one()
    for unit in [ys[0]] + [u for pair in zip(xs, ys[1:]) for u in pair]:
        product_of_units = product_of_units * A.element({unit: CycScalar.one(modulus)})
    assert product_of_units
    keys = set()
    for x_least in (False, True):
        f = capelli(dim, g, y_degrees, x_least, modulus)
        x_ids, y_ids = capelli_ids(dim, x_least)
        units = dict(zip(x_ids + y_ids, xs + ys))
        at = {v: A.element({t: CycScalar.one(modulus)}) for v, t in units.items()}
        assert evaluate(f, A, at) == product_of_units
        table = _check_capelli(f, A, identity=False)
        key = 0
        for vid in sorted(units):
            key = key * table.radix + A.index[units[vid]]
        assert A.element(table.value(key)) == product_of_units
        keys.add(len(table))
        for y_degree in (0, g):
            above = capelli(dim + 1, g, [y_degree] * (dim + 2), x_least, modulus)
            assert len(_check_capelli(above, A, identity=True)) == 0
    assert len(keys) == 1
    if grading == (0, 0):
        assert keys == {96}


@pytest.mark.parametrize("modulus", [1, 3], ids=lambda n: f"mod{n}")
@pytest.mark.parametrize("x_least", [False, True], ids=["y_least", "x_least"])
def test_capelli_c2_over_c2_depends_on_the_y_degrees(x_least, modulus):
    """Over C2 with grading (0, 1) on M_2, c_2 on x's of degree 0 is an
    identity when every y has degree 0, and a non-identity for y degrees
    (1, 1, 1) or (0, 1, 0); the brute-force oracle agrees on each."""
    A = _elementary(2, (0, 1), modulus)
    for y_degrees, identity in [((0, 0, 0), True), ((1, 1, 1), False), ((0, 1, 0), False)]:
        _check_capelli(capelli(2, 0, y_degrees, x_least, modulus), A, identity)

