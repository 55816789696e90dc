"""Classification flags, witness pairs, verification, and the product probes."""

import importlib
import random

import pytest

from gradedpi import polynomials
from gradedpi.algebra import Presentation, build_algebra, is_normalized, normalize_presentation
from gradedpi.binomials import separating_product_test, strongly_vp_empirical
from gradedpi.classify import WitnessPair, classify, verify_witness, witness_nonstrong
from gradedpi.cohomology import Cocycle2
from gradedpi.errors import (
    AlgebraMismatchError,
    DegreeMismatchError,
    DisconnectedGradingError,
    NonMultilinearError,
    VerificationFailedError,
)
from gradedpi.groups import FiniteGroup
from gradedpi.polynomials import (
    GradedPolynomial,
    assignment_elements,
    check_identity,
    evaluate,
    evaluation_span,
    monomial_polynomial,
    variables_for,
)
from gradedpi.scalars import CycScalar

from conftest import count_walks, random_multilinear

# The package exports the function classify under the module's name.
classify_module = importlib.import_module("gradedpi.classify")


def test_flag_implications_on_fixture_zoo(
    p_z2_unbalanced,
    p_z2_balanced,
    p_group_algebra_z2,
    p_k4_twisted,
    p_d4_rotations,
    p_d4_klein,
    p_d3_reflection,
    p_z3z3_noninvariant,
):
    fixtures = [
        p_z2_unbalanced,
        p_z2_balanced,
        p_group_algebra_z2,
        p_k4_twisted,
        p_d4_rotations,
        p_d4_klein,
        p_d3_reflection,
        p_z3z3_noninvariant,
    ]
    for p in fixtures:
        r = classify(p)
        assert r.verbally_prime
        assert r.strongly_verbally_prime == bool(
            r.H_normal and r.cosets_equal and r.class_G_invariant
        )
        assert r.division_form_exists == r.strongly_verbally_prime
        if r.strongly_verbally_prime:
            assert r.verbally_prime
        # crossed product iff equal multiplicities
        assert r.crossed_product == r.cosets_equal


def test_z2_counterexample_flags(p_z2_unbalanced, p_z2_balanced):
    r = classify(p_z2_unbalanced)
    assert r.verbally_prime and not r.strongly_verbally_prime
    assert r.H_normal and not r.cosets_equal
    r2 = classify(p_z2_balanced)
    assert r2.strongly_verbally_prime


def test_trivial_group_strongly_prime():
    g = FiniteGroup.cyclic(1)
    H = g.full_subgroup()
    for m in (1, 2, 3):
        p = Presentation(g, H, Cocycle2.trivial(H, 1), (0,) * m)
        assert classify(p).strongly_verbally_prime


def test_disconnected_grading_rejected(z4):
    H = z4.trivial_subgroup()
    p = Presentation(z4, H, Cocycle2.trivial(H, 1), (0, 2))
    with pytest.raises(DisconnectedGradingError):
        classify(p)


def test_noninvariant_class_reported(p_z3z3_noninvariant):
    r = classify(p_z3z3_noninvariant)
    assert r.H_normal and r.cosets_equal
    assert r.class_G_invariant is False
    assert not r.strongly_verbally_prime
    assert r.invariance_failure is not None
    g, obstruction = r.invariance_failure
    assert g in p_z3z3_noninvariant.group.elements()
    # condition-(3)-only failure: no polynomial witness, algebraic certificate
    assert witness_nonstrong(p_z3z3_noninvariant) is None


def test_witness_none_for_strong(p_z2_balanced, p_d4_klein):
    assert witness_nonstrong(p_z2_balanced) is None
    assert witness_nonstrong(p_d4_klein) is None


def test_unbalanced_witness_verifies(p_z2_unbalanced):
    w = witness_nonstrong(p_z2_unbalanced)
    assert w is not None and w.kind == "unequal_blocks"
    assert len(w.f.monomials) == 120  # Alt over 5 e-variables
    assert not set(w.f.degree_of) & set(w.g.degree_of)
    cert = verify_witness(w)
    assert cert.product_identity and cert.span_product_zero and cert.span_square_zero
    # span confined to the strict upper off-diagonal block (rows in block 1,
    # columns in block 2 of the normalized (e, s, s) tuple)
    for vec in cert.span_f_basis:
        for (h, i, j) in vec:
            assert h == 0 and i == 0 and j in (1, 2)


def test_non_normal_witness_verifies(p_d3_reflection):
    w = witness_nonstrong(p_d3_reflection)
    assert w is not None and w.kind == "non_normal"
    cert = verify_witness(w)
    assert cert.product_identity and cert.span_square_zero
    # neither factor is an identity
    A = build_algebra(w.presentation)
    assert not check_identity(w.f, A).identity
    assert not check_identity(w.g, A).identity


def test_missing_coset_witness_verifies(z4):
    H = z4.trivial_subgroup()
    p = Presentation(z4, H, Cocycle2.trivial(H, 1), (0, 1))
    w = witness_nonstrong(p)
    assert w is not None and w.kind == "missing_coset"
    cert = verify_witness(w)
    assert cert.product_identity
    A = build_algebra(w.presentation)
    assert not check_identity(w.f, A).identity
    assert not check_identity(w.g, A).identity


def test_normal_but_unbalanced_nonnormal_subgroup_case(d4):
    """Unequal multiplicities take precedence; construction stays valid with a
    nontrivial subgroup (H = Klein inside D4, tuple with blocks 1 and 2)."""
    from conftest import klein_nontrivial_cocycle

    H = d4.subgroup([0, 2, 4, 6])
    p = Presentation(d4, H, klein_nontrivial_cocycle(H), (0, 1, 1))
    r = classify(p)
    assert not r.cosets_equal and not r.strongly_verbally_prime
    w = witness_nonstrong(p)
    assert w.kind == "unequal_blocks"
    cert = verify_witness(w)
    assert cert.product_identity and cert.span_square_zero


def test_separating_product_on_simple_fixtures(p_z2_balanced, p_z2_unbalanced):
    """Presented algebras are simple, hence verbally prime: some middle degree
    always separates any pair of non-identities."""
    rng = random.Random(88)
    for p in (p_z2_balanced, p_z2_unbalanced):
        A = build_algebra(p)
        found = 0
        while found < 8:
            f = random_multilinear(rng, A, rng.randint(1, 2))
            g = random_multilinear(rng, A, rng.randint(1, 2))
            g = GradedPolynomial(
                [type(v)(v.vid + 10, v.degree) for v in g.variables],
                [(m.coeff, tuple(x + 10 for x in m.order)) for m in g.monomials],
            )
            if check_identity(f, A).identity or check_identity(g, A).identity:
                continue
            assert separating_product_test(f, g, A)
            found += 1


def test_separating_product_detects_block_diagonal_failure(z2):
    """Block-diagonal sum of trivially graded M2 and the Z2 group algebra:
    x_sigma kills the matrix block, a commutator kills the commutative block,
    so every f z g vanishes while neither factor is an identity."""
    H = z2.full_subgroup()
    p = Presentation(z2, H, Cocycle2.trivial(H, 1), (0, 0, 0))
    A = build_algebra(p)
    allowed = {
        k
        for k, (h, i, j) in enumerate(A.basis)
        if (h == 0 and i < 2 and j < 2) or (i == 2 and j == 2)
    }
    A.components = {
        g: tuple(k for k in v if k in allowed) for g, v in A.components.items()
    }
    A._by_degree_row = {
        key: tuple(k for k in v if k in allowed)
        for key, v in A._by_degree_row.items()
    }
    one = CycScalar.one(1)
    f = monomial_polynomial(variables_for([1]), one)
    vs = variables_for([0, 0], start_id=5)
    g = GradedPolynomial(vs, [(one, (5, 6)), (-one, (6, 5))])
    assert not check_identity(f, A).identity
    assert not check_identity(g, A).identity
    assert not separating_product_test(f, g, A)
    # sanity: on the full simple algebra the same pair does separate
    B = build_algebra(p)
    assert separating_product_test(f, g, B)


def test_strongly_vp_empirical(p_group_algebra_z2, p_z2_unbalanced, p_k4_twisted):
    one = CycScalar.one(1)
    A = build_algebra(p_group_algebra_z2)
    f = monomial_polynomial(variables_for([1]), one)
    g = monomial_polynomial(variables_for([1], start_id=2), one)
    chk = strongly_vp_empirical(f, g, A)
    assert not chk.product_identity and chk.consistent
    # shared variables rejected
    with pytest.raises(NonMultilinearError):
        strongly_vp_empirical(f, f, A)
    # graded division fixture: random non-identity pairs never multiply to 0
    rng = random.Random(3)
    Ak = build_algebra(p_k4_twisted)
    count = 0
    while count < 25:
        a = random_multilinear(rng, Ak, rng.randint(1, 2))
        b = random_multilinear(rng, Ak, rng.randint(1, 2))
        b = GradedPolynomial(
            [type(v)(v.vid + 10, v.degree) for v in b.variables],
            [(m.coeff, tuple(x + 10 for x in m.order)) for m in b.monomials],
        )
        if check_identity(a, Ak).identity or check_identity(b, Ak).identity:
            continue
        chk = strongly_vp_empirical(a, b, Ak)
        assert not chk.product_identity
        count += 1
    # the unbalanced fixture flags non-strongness through its witness pair
    w = witness_nonstrong(p_z2_unbalanced)
    Au = build_algebra(w.presentation)
    chk = strongly_vp_empirical(w.f, w.g, Au)
    assert chk.product_identity and not chk.f_identity and not chk.g_identity
    assert not chk.consistent


def test_report_presentation_is_normalized(p_z2_unbalanced):
    r = classify(p_z2_unbalanced)
    assert r.presentation.grading == (0, 1, 1)
    assert normalize_presentation(r.presentation) == r.presentation


def test_witness_size_cap(d3):
    """Non-normal fixture with multiplicity 2 per coset would need 12!
    monomials; the construction refuses with a clear error."""
    from gradedpi.errors import HypothesisError

    H = d3.generated_subgroup([3])
    p = Presentation(d3, H, Cocycle2.trivial(H, 1), (0, 0, 1, 1, 2, 2))
    assert not classify(p).strongly_verbally_prime
    with pytest.raises(HypothesisError, match="desk-scale cap"):
        witness_nonstrong(p)


def test_verify_witness_rejects_degenerate_pairs(p_z2_balanced):
    """Hand-built pairs that are not witnesses fail verification loudly."""
    from gradedpi.classify import WitnessPair
    from gradedpi.errors import VerificationFailedError

    A = build_algebra(p_z2_balanced)
    one = CycScalar.one(1)
    # monomials on a crossed product never multiply to an identity
    f = monomial_polynomial(variables_for([1]), one)
    g = monomial_polynomial(variables_for([1], start_id=2), one)
    pair = WitnessPair(
        "unequal_blocks",
        p_z2_balanced,
        f,
        g,
        {1: (0, 0, 1)},
        {2: (0, 0, 1)},
    )
    with pytest.raises(VerificationFailedError):
        verify_witness(pair, A)
    # commutator over the base field: f is an identity (zero span)
    field_group = FiniteGroup.cyclic(1)
    Hf = field_group.full_subgroup()
    pf = Presentation(field_group, Hf, Cocycle2.trivial(Hf, 1), (0,))
    Af = build_algebra(pf)
    comm = GradedPolynomial(
        variables_for([0, 0]), [(one, (1, 2)), (-one, (2, 1))]
    )
    comm2 = GradedPolynomial(
        variables_for([0, 0], start_id=3), [(one, (3, 4)), (-one, (4, 3))]
    )
    degenerate = WitnessPair(
        "unequal_blocks", pf, comm, comm2, {1: (0, 0, 0), 2: (0, 0, 0)}, {3: (0, 0, 0), 4: (0, 0, 0)}
    )
    with pytest.raises(VerificationFailedError):
        verify_witness(degenerate, Af)


def _missing_coset_pair(z4, grading=(0, 1)):
    H = z4.trivial_subgroup()
    return witness_nonstrong(Presentation(z4, H, Cocycle2.trivial(H, 1), grading))


@pytest.mark.parametrize("fixture", ["p_z2_unbalanced", "p_d3_reflection"])
def test_alternating_witness_factors_are_walked_once(fixture, request, monkeypatch):
    """g is f on shifted ids: one walk per verify_witness, and the
    certificate equals the one two walks give."""
    w = witness_nonstrong(request.getfixturevalue(fixture))
    assert w.kind in ("unequal_blocks", "non_normal")
    assert w.f.shape() == w.g.shape()
    A = build_algebra(w.presentation)
    span_g = evaluation_span(w.g, A).basis()
    calls = count_walks(monkeypatch)
    cert = verify_witness(w, A)
    assert calls == [w.f]
    assert cert.span_g_basis == span_g == cert.span_f_basis
    assert cert.span_square_zero and cert.span_product_zero
    assert cert.span_g_basis is not cert.span_f_basis


def test_missing_coset_witness_walks_both_factors(z4, monkeypatch):
    """Over (0, 1, 2) the vanishing word is (1, 1, 1): f = x1 x2 and g = x4
    differ in shape, so both are walked.  Over (0, 1) it is (1, 1): f = x1
    and g = x3 have one shape, and one walk serves both."""
    w = _missing_coset_pair(z4, (0, 1, 2))
    assert w.kind == "missing_coset" and w.f.shape() != w.g.shape()
    calls = count_walks(monkeypatch)
    verify_witness(w)
    assert calls == [w.f, w.g]
    w = _missing_coset_pair(z4)
    assert w.kind == "missing_coset" and w.f.shape() == w.g.shape()
    calls.clear()
    cert = verify_witness(w)
    assert calls == [w.f]
    assert cert.span_f_basis == cert.span_g_basis


def test_mutated_factor_gets_a_fresh_certificate(z4, p_z2_unbalanced):
    """One coefficient of g changed: its span is walked, not shared.  A
    missing_coset g times 2 stays a witness, and its certificate equals the
    freshly computed one; one coefficient of an alternating g doubled makes
    f g a non-identity, and verification says so."""
    w = _missing_coset_pair(z4)
    (m,) = w.g.monomials
    g2 = GradedPolynomial(w.g.variables, [(m.coeff + m.coeff, m.order)])
    pair = WitnessPair(w.kind, w.presentation, w.f, g2, w.assignment_f, w.assignment_g)
    A = build_algebra(pair.presentation)
    cert = verify_witness(pair, A)
    value_g = evaluate(g2, A, assignment_elements(A, pair.assignment_g))
    assert cert.value_g == dict(value_g.terms) != verify_witness(w, A).value_g
    assert cert.span_f_basis == evaluation_span(pair.f, A).basis()
    assert cert.span_g_basis == evaluation_span(g2, A).basis()

    w = witness_nonstrong(p_z2_unbalanced)
    monos = [(m.coeff, m.order) for m in w.g.monomials]
    monos[7] = (monos[7][0] + monos[7][0], monos[7][1])
    g2 = GradedPolynomial(w.g.variables, monos)
    assert g2.shape() != w.f.shape()
    A = build_algebra(w.presentation)
    assert not check_identity(polynomials.disjoint_product(w.f, g2), A).identity
    with pytest.raises(VerificationFailedError, match="span product is nonzero"):
        verify_witness(WitnessPair(w.kind, w.presentation, w.f, g2, w.assignment_f, w.assignment_g), A)


@pytest.mark.parametrize("grading", [(0, 1), (1, 0, 0)])
def test_verify_witness_refuses_an_algebra_of_another_presentation(z2, grading):
    """The unequal_blocks pair of (0, 0, 1) lives on its normal form
    (0, 1, 1).  Over (0, 1) its assignments name triples outside the basis,
    and over (1, 0, 0) they fit but describe another algebra: both raise.
    An algebra built from an equal presentation is accepted."""
    H = z2.trivial_subgroup()
    w = witness_nonstrong(Presentation(z2, H, Cocycle2.trivial(H, 1), (0, 0, 1)))
    assert w.kind == "unequal_blocks" and w.presentation.grading == (0, 1, 1)
    other = build_algebra(Presentation(z2, H, Cocycle2.trivial(H, 1), grading))
    with pytest.raises(AlgebraMismatchError):
        verify_witness(w, other)
    same = build_algebra(Presentation(z2, H, Cocycle2.trivial(H, 1), w.presentation.grading))
    assert verify_witness(w, same).span_product_zero


def test_assignment_elements_names_a_variable_outside_the_basis(z2):
    H = z2.trivial_subgroup()
    A = build_algebra(Presentation(z2, H, Cocycle2.trivial(H, 1), (0, 1)))
    assert assignment_elements(A, {4: (0, 1, 0)})[4] == A.basis_element(A.index[(0, 1, 0)])
    with pytest.raises(DegreeMismatchError, match=r"x7: \(0, 1, 2\) is not a basis triple"):
        assignment_elements(A, {4: (0, 1, 0), 7: (0, 1, 2)})
    with pytest.raises(DegreeMismatchError, match="x2"):
        assignment_elements(A, {2: (1, 0, 0)})


def _witness_presentations(z4, d3, d4):
    """Presentations off their normal form, of every witness kind."""
    from conftest import klein_nontrivial_cocycle

    e4 = z4.trivial_subgroup()
    klein = d4.subgroup([0, 2, 4, 6])
    reflection = d3.generated_subgroup([3])
    return [
        Presentation(z4, e4, Cocycle2.trivial(e4, 1), (1, 0)),  # missing_coset
        Presentation(z4, e4, Cocycle2.trivial(e4, 1), (2, 1, 0)),  # missing_coset
        Presentation(d4, klein, klein_nontrivial_cocycle(klein), (1, 0, 1)),  # unequal_blocks
        Presentation(d3, reflection, Cocycle2.trivial(reflection, 1), (2, 0, 1)),  # non_normal
        Presentation(d3, reflection, Cocycle2.trivial(reflection, 1), (5, 1, 3)),  # non_normal
    ]


def test_witness_nonstrong_equals_the_classify_witness(z4, d3, d4, p_z2_unbalanced):
    """witness_nonstrong normalizes p itself; classify hands its normal form
    to the same construction.  Off the normal form both give one pair."""
    kinds = set()
    for p in _witness_presentations(z4, d3, d4) + [p_z2_unbalanced]:
        assert not is_normalized(p)
        w = witness_nonstrong(p)
        v = classify(p, with_witness=True).witness
        kinds.add(w.kind)
        assert (w.kind, w.presentation) == (v.kind, v.presentation)
        for a, b in ((w.f, v.f), (w.g, v.g)):
            assert (a.variables, a.monomials) == (b.variables, b.monomials)
        assert list(w.assignment_f.items()) == list(v.assignment_f.items())
        assert list(w.assignment_g.items()) == list(v.assignment_g.items())
    assert kinds == {"missing_coset", "unequal_blocks", "non_normal"}


@pytest.mark.parametrize("fixture", ["p_z2_unbalanced", "p_d3_reflection"])
def test_alternating_g_is_f_on_shifted_ids(fixture, request, monkeypatch):
    """g and its assignment are what _alternating_factor builds from the ids
    after f's, though the factor is built (and alternated) once."""
    built = []
    factor = classify_module._alternating_factor

    def recording(pres, bridges, start_id):
        built.append((pres, list(bridges), start_id))
        return factor(pres, bridges, start_id)

    monkeypatch.setattr(classify_module, "_alternating_factor", recording)
    w = witness_nonstrong(request.getfixturevalue(fixture))
    assert len(built) == 1
    pres, bridges, start_id = built[0]
    assert start_id == 1 and pres == w.presentation
    g, assignment_g = factor(pres, bridges, start_id=1 + len(w.f.variables))
    assert (w.g.variables, w.g.monomials) == (g.variables, g.monomials)
    assert list(w.assignment_g.items()) == list(assignment_g.items())
    assert w.g.shape() == w.f.shape()
    assert not set(w.f.degree_of) & set(w.g.degree_of)
