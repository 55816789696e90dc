"""Value semantics of the frozen records: equality, hashing, immutability,
repr, copy and pickle, as @dataclass(frozen=True) defined them."""

import copy
import pickle

import pytest

from gradedpi.algebra import (
    M1,
    M2,
    M3,
    BlockStructure,
    Presentation,
    block_structure,
)
from gradedpi.binomials import Binomial, CrossedProductResult
from gradedpi.cohomology import (
    Coboundary,
    CoboundaryObstruction,
    Cocycle2,
    CocycleViolation,
)
from gradedpi.errors import CocycleError, HypothesisError, NotSubgroupError
from gradedpi.groups import CosetDecomposition, FiniteGroup
from gradedpi.polynomials import GradedMonomial, GradedVariable
from gradedpi.scalars import CycScalar


def _samples():
    """(class, field names in order, a maker that builds a fresh instance)."""
    G = FiniteGroup.cyclic(4)
    H = G.subgroup([0, 2])
    c = Cocycle2(H, 2, [[0, 0], [0, 1]])
    p = Presentation(G, H, c, (0, 1))
    return [
        (Presentation, ("group", "subgroup", "cocycle", "grading"),
         lambda: Presentation(G, H, Cocycle2(H, 2, [[0, 0], [0, 1]]), [0, 1])),
        (M1, ("sigma",), lambda: M1((1, 0))),
        (M2, ("hs",), lambda: M2((0, 2))),
        (M3, ("g",), lambda: M3(1)),
        (BlockStructure, ("reps", "positions", "block_of", "cosets"),
         lambda: block_structure(p)),
        (CrossedProductResult, ("is_crossed_product", "certificates"),
         lambda: CrossedProductResult(True)),
        (CocycleViolation, ("kind", "triple", "detail"),
         lambda: CocycleViolation("identity", (0, 2, 2), "c(a,b)c(ab,d) != c(a,bd)c(b,d)")),
        (Coboundary, ("subgroup", "modulus", "lam"), lambda: Coboundary(H, 2, (0, 1))),
        (CoboundaryObstruction, ("modulus", "chain", "value"),
         lambda: CoboundaryObstruction(2, ((0, 2, 1),), 1)),
        (Binomial, ("hs", "sigma", "alpha_exp"), lambda: Binomial((2, 2), (1, 0), 0)),
        (CosetDecomposition, ("reps", "coset_of"), lambda: G.subgroup([0, 2]).right_cosets()),
        (GradedVariable, ("vid", "degree"), lambda: GradedVariable(0, 1)),
        (GradedMonomial, ("coeff", "order"), lambda: GradedMonomial(CycScalar.one(3), (1, 0))),
    ]


SAMPLES = _samples()
IDS = [cls.__name__ for cls, _, _ in SAMPLES]


@pytest.mark.parametrize("cls, fields, make", SAMPLES, ids=IDS)
def test_equal_fields_give_equal_objects_and_hashes(cls, fields, make):
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    if cls is not CrossedProductResult:  # its certificates dict is unhashable
        assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))


def test_objects_of_different_classes_never_compare_equal():
    objects = [make() for _, _, make in SAMPLES]
    for i, a in enumerate(objects):
        assert a != tuple(getattr(a, f) for f in SAMPLES[i][1])
        for j, b in enumerate(objects):
            assert (a == b) == (i == j)
    # Same field values, different classes.
    assert M1((1, 0)) != M2((1, 0)) and M3(1) != GradedVariable(1, 0)


@pytest.mark.parametrize("cls, fields, make", SAMPLES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, make):
    obj = make()
    for f in fields:
        value = getattr(obj, f)
        with pytest.raises(AttributeError):
            setattr(obj, f, value)
        with pytest.raises(AttributeError):
            delattr(obj, f)
        assert getattr(obj, f) is value
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("cls, fields, make", SAMPLES, ids=IDS)
def test_repr_has_the_dataclass_format(cls, fields, make):
    obj = make()
    inner = ", ".join(f"{f}={getattr(obj, f)!r}" for f in fields)
    assert repr(obj) == f"{cls.__qualname__}({inner})"


def test_repr_literals():
    assert repr(M3(1)) == "M3(g=1)"
    assert repr(M1((1, 0))) == "M1(sigma=(1, 0))"
    assert repr(GradedVariable(0, 1)) == "GradedVariable(vid=0, degree=1)"
    assert repr(CoboundaryObstruction(2, ((0, 2, 1),), 1)) == (
        "CoboundaryObstruction(modulus=2, chain=((0, 2, 1),), value=1)"
    )


@pytest.mark.parametrize("cls, fields, make", SAMPLES, ids=IDS)
def test_copy_and_pickle_round_trip(cls, fields, make):
    obj = make()
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls and twin == obj


def test_crossed_product_result_gets_a_fresh_certificates_dict():
    a, b = CrossedProductResult(True), CrossedProductResult(True)
    assert a.certificates == {} and a.certificates is not b.certificates
    assert not CrossedProductResult(False)


def test_presentation_validates_and_coerces_its_grading():
    G = FiniteGroup.cyclic(4)
    H = G.subgroup([0, 2])
    c = Cocycle2(H, 2, [[0, 0], [0, 1]])
    p = Presentation(G, H, c, [0, 1, 1])
    assert p.grading == (0, 1, 1) and type(p.grading) is tuple
    other = FiniteGroup.cyclic(2)
    with pytest.raises(NotSubgroupError):
        Presentation(other, H, c, (0,))
    with pytest.raises(CocycleError):
        Presentation(G, G.full_subgroup(), c, (0,))
    with pytest.raises(HypothesisError):
        Presentation(G, H, c, ())
    with pytest.raises(HypothesisError):
        Presentation(G, H, c, (0, 4))
