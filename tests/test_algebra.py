"""Algebra construction, element arithmetic, moves, normalization, equivalence."""

import random
from itertools import product

import pytest

from gradedpi.algebra import (
    M1,
    M2,
    M3,
    Presentation,
    _normal_forms,
    apply_move,
    block_structure,
    build_algebra,
    is_normalized,
    normalize_presentation,
    presentations_equivalent,
)
from gradedpi.binomials import is_crossed_product
from gradedpi.classify import classify
from gradedpi.cohomology import Cocycle2, classes_cohomologous
from gradedpi.errors import (
    AlgebraMismatchError,
    DisconnectedGradingError,
    HypothesisError,
    NotSubgroupError,
)
from gradedpi.groups import FiniteGroup
from gradedpi.scalars import CycScalar

from conftest import klein_nontrivial_cocycle, z3z3_cocycle


def test_group_algebra_components(p_group_algebra_z2):
    A = build_algebra(p_group_algebra_z2)
    assert A.dim == 2
    assert len(A.homogeneous_basis(0)) == 1
    assert len(A.homogeneous_basis(1)) == 1
    assert A.presentation.size == 1


def test_m3_component_dimensions(p_z2_unbalanced):
    A = build_algebra(p_z2_unbalanced)
    assert A.dim == 9
    assert len(A.homogeneous_basis(0)) == 5
    assert len(A.homogeneous_basis(1)) == 4


def test_base_field_presentation():
    g = FiniteGroup.cyclic(1)
    H = g.full_subgroup()
    A = build_algebra(Presentation(g, H, Cocycle2.trivial(H, 1), (0,)))
    assert A.dim == 1
    one = A.one()
    assert one * one == one


def test_column_row_mismatch_vanishes(p_z2_unbalanced):
    A = build_algebra(p_z2_unbalanced)
    a = A.element({(0, 0, 1): CycScalar.one(1)})
    assert not (a * a)


def test_unit_is_two_sided(p_d4_klein):
    A = build_algebra(p_d4_klein)
    one = A.one()
    rng = random.Random(2)
    for _ in range(10):
        k = rng.randrange(A.dim)
        b = A.basis_element(k)
        assert one * b == b
        assert b * one == b


def test_anticommuting_pair(p_k4_twisted):
    A = build_algebra(p_k4_twisted)
    a = A.element({(2, 0, 0): CycScalar.one(2)})
    b = A.element({(1, 0, 0): CycScalar.one(2)})
    assert a * b == -(b * a)


def test_algebra_mismatch_rejected(p_z2_unbalanced, p_z2_balanced):
    A = build_algebra(p_z2_unbalanced)
    B = build_algebra(p_z2_balanced)
    with pytest.raises(AlgebraMismatchError):
        A.one() * B.one()


def test_degree_multiplicativity_exhaustive(p_d4_klein, p_z2_unbalanced, p_k4_twisted):
    for p in (p_d4_klein, p_z2_unbalanced, p_k4_twisted):
        A = build_algebra(p)
        G = p.group
        for i, ti in enumerate(A.basis):
            for j, tj in enumerate(A.basis):
                hit = A.mul_basis(ti, tj)
                if hit is not None:
                    _, t = hit
                    assert A.degree[A.index[t]] == G.mul(A.degree[i], A.degree[j])


def _involution_subgroup(G: FiniteGroup):
    return G.subgroup([0, next(a for a in range(1, G.order) if G.mul(a, a) == 0)])


@pytest.mark.parametrize(
    "group, subgroup, grading",
    [
        (FiniteGroup.cyclic(64), lambda G: G.subgroup(range(0, 64, 2)), (0, 1, 5, 33)),
        (FiniteGroup.dihedral(4), _involution_subgroup, (1, 3, 6, 3)),
        (FiniteGroup.symmetric(3), _involution_subgroup, (1, 2, 4, 5)),
        (
            FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)),
            lambda G: G.trivial_subgroup(),
            (0, 2),
        ),
    ],
    ids=["c64>c32", "d4", "s3", "z2xc2-envelope-base"],
)
def test_basis_degrees_are_g_i_inverse_h_g_j(group, subgroup, grading):
    """The degrees read off the Cayley rows equal g_i^-1 h g_j computed with
    the group's inv and mul, basis element by basis element."""
    H = subgroup(group)
    A = build_algebra(Presentation(group, H, Cocycle2.trivial(H, 1), grading))
    mul, inv = group.mul, group.inv
    m = len(grading)
    assert A.basis == tuple((h, i, j) for h in H.members for i in range(m) for j in range(m))
    assert A.degree == tuple(mul(mul(inv(grading[i]), h), grading[j]) for h, i, j in A.basis)
    assert len(set(A.degree)) > 1


def test_build_algebra_propagates_cocycle_errors(k4):
    from gradedpi.errors import CocycleError

    H = k4.full_subgroup()
    exps = [[0] * 4 for _ in range(4)]
    exps[1][2] = 1  # breaks the cocycle identity somewhere
    bad = Cocycle2(H, 2, exps)
    assert bad.violations()
    with pytest.raises(CocycleError):
        build_algebra(Presentation(k4, H, bad, (0,)))


def test_structure_constants_associate(p_d4_klein, p_k4_twisted):
    """Exhaustive associativity of basis products (the cocycle identity in
    algebra form)."""
    for p in (p_d4_klein, p_k4_twisted):
        A = build_algebra(p)
        elems = [A.basis_element(k) for k in range(A.dim)]
        for a in elems:
            for b in elems:
                ab = a * b
                for c in elems:
                    assert (ab) * c == a * (b * c)


def test_homogeneous_basis_empty_outside_support(z2):
    H = z2.trivial_subgroup()
    p = Presentation(z2, H, Cocycle2.trivial(H, 1), (0,))
    A = build_algebra(p)
    assert A.homogeneous_basis(1) == ()


def test_moves_basic(p_z2_unbalanced, z2):
    p = p_z2_unbalanced
    assert apply_move(p, M1((0, 1, 2))).grading == p.grading
    assert apply_move(p, M2((0, 0, 0))).grading == p.grading
    moved = apply_move(p, M3(1))
    assert moved.grading == (1, 1, 0)
    with pytest.raises(NotSubgroupError):
        apply_move(p, M2((1, 0, 0)))
    with pytest.raises(HypothesisError):
        apply_move(p, M1((0, 0, 1)))


def test_m3_transports_cocycle(p_d4_klein, d4):
    p = p_d4_klein
    moved = apply_move(p, M3(1))
    assert moved.subgroup.members == p.subgroup.members  # H normal: same subgroup
    assert moved.cocycle.violations() == []
    # transport then transport back is the identity
    back = apply_move(moved, M3(d4.inv(1)))
    assert back.cocycle == p.cocycle and back.grading == p.grading


def test_normalize_example(p_z2_unbalanced):
    np = normalize_presentation(p_z2_unbalanced)
    assert np.grading == (0, 1, 1)
    assert is_normalized(np)
    assert normalize_presentation(np) == np


def test_normalize_single_coset(z2):
    H = z2.full_subgroup()
    p = Presentation(z2, H, Cocycle2.trivial(H, 2), (1, 0, 1))
    np = normalize_presentation(p)
    assert np.grading == (0, 0, 0)


def test_normalize_groups_blocks_ascending(d4):
    H = d4.subgroup([0, 2, 4, 6])
    c = klein_nontrivial_cocycle(H)
    p = Presentation(d4, H, c, (1, 0, 1))
    np = normalize_presentation(p)
    assert np.grading[0] == 0
    bs = block_structure(np)
    assert bs.sizes == (1, 2)


def test_block_structure_requires_grouping(z2):
    H = z2.trivial_subgroup()
    p = Presentation(z2, H, Cocycle2.trivial(H, 1), (0, 1, 0))
    with pytest.raises(HypothesisError):
        block_structure(p)


def test_coset_positions_and_the_block_structure_errors(d3):
    """coset_positions lists each right coset's tuple positions in rep order;
    block_structure reads its blocks off them, and names each way a tuple
    fails to be grouped.  H = {e, s} in D3 has the reps 0, 1 and 2, and 4
    lies in the coset of 1."""
    H = d3.generated_subgroup([3])
    cosets = H.right_cosets()
    assert cosets.reps == (0, 1, 2)
    p = Presentation(d3, H, Cocycle2.trivial(H, 1), (4, 0, 1, 5, 1))
    assert p.coset_positions() == ((1,), (0, 2, 4), (3,))
    assert p.coset_multiplicities() == {0: 1, 1: 3, 2: 1}
    bs = block_structure(Presentation(d3, H, Cocycle2.trivial(H, 1), (1, 1, 0, 2, 2)))
    assert bs.reps == (1, 0, 2)
    assert bs.positions == ((0, 1), (2,), (3, 4))
    assert bs.block_of == (0, 0, 1, 2, 2)
    assert bs.cosets is cosets
    for grading, message in [
        ((0, 4), "tuple entry 4 is not a canonical coset representative"),
        ((0, 1, 0, 2), "equal coset reps must occupy adjacent positions"),
        ((0, 1, 0), "equal coset reps must occupy adjacent positions"),
        ((1, 1, 0), "cosets [2] are not represented"),
        ((2,), "cosets [0, 1] are not represented"),
    ]:
        p = Presentation(d3, H, Cocycle2.trivial(H, 1), grading)
        with pytest.raises(HypothesisError) as err:
            block_structure(p)
        assert str(err.value) == message


def test_equivalence_respects_moves(p_z2_unbalanced, z2):
    rng = random.Random(17)
    p = p_z2_unbalanced
    q = p
    for _ in range(6):
        kind = rng.randrange(3)
        if kind == 0:
            sigma = list(range(q.size))
            rng.shuffle(sigma)
            q = apply_move(q, M1(tuple(sigma)))
        elif kind == 1:
            q = apply_move(q, M2(tuple(rng.choice(q.subgroup.members) for _ in range(q.size))))
        else:
            q = apply_move(q, M3(rng.randrange(z2.order)))
    assert presentations_equivalent(p, q)


def test_each_move_kind_preserves_identities(p_z2_unbalanced, p_d4_klein):
    """Identity verdicts agree between an algebra and each single-move image,
    sampled at degree up to 4 (composite sequences are swept in acceptance)."""
    import random

    from gradedpi.polynomials import is_identity
    from conftest import random_multilinear

    rng = random.Random(515)
    for p in (p_z2_unbalanced, p_d4_klein):
        A = build_algebra(p)
        moves = [
            M1(tuple(reversed(range(p.size)))),
            M2(tuple(rng.choice(p.subgroup.members) for _ in range(p.size))),
            M3(rng.randrange(1, p.group.order)),
        ]
        for move in moves:
            B = build_algebra(apply_move(p, move))
            for _ in range(10):
                f = random_multilinear(rng, A, rng.randint(2, 4), max_monomials=5)
                assert is_identity(f, A) == is_identity(f, B), (p.grading, move)


def test_equivalence_distinguishes_sizes(p_z2_balanced, p_z2_unbalanced):
    assert not presentations_equivalent(p_z2_balanced, p_z2_unbalanced)


def test_equivalence_requires_shared_group(p_z2_balanced, z3):
    H = z3.trivial_subgroup()
    q = Presentation(z3, H, Cocycle2.trivial(H, 1), (0, 1))
    with pytest.raises(HypothesisError):
        presentations_equivalent(p_z2_balanced, q)


def test_equivalence_distinguishes_cocycle_classes(k4):
    H = k4.full_subgroup()
    p = Presentation(k4, H, klein_nontrivial_cocycle(H), (0,))
    q = Presentation(k4, H, Cocycle2.trivial(H, 2), (0,))
    assert not presentations_equivalent(p, q)
    assert presentations_equivalent(p, p)


def test_equivalence_distinguishes_coset_distribution():
    z3 = FiniteGroup.cyclic(3)
    H = z3.trivial_subgroup()
    c = Cocycle2.trivial(H, 1)
    p = Presentation(z3, H, c, (0, 0, 1))
    q = Presentation(z3, H, c, (0, 0, 2))
    # (e,e,a) vs (e,e,a^2): no relabeling by left translation makes the
    # multiplicity functions match.
    assert not presentations_equivalent(p, q)


def _reference_normalize(p):
    """Normalization as one M3, one M2 and one M1 through apply_move, with
    the conjugator min(mults, key=(mult, rep))."""
    G = p.group
    mults = {rep: n for rep, n in p.coset_multiplicities().items() if n > 0}
    target = min(mults, key=lambda rep: (mults[rep], rep))
    moved = apply_move(p, M3(G.inv(target)))
    cosets = moved.cosets()
    moved = apply_move(
        moved, M2(tuple(G.mul(cosets.rep_of(g), G.inv(g)) for g in moved.grading))
    )
    m2 = moved.coset_multiplicities()
    order = sorted(range(moved.size), key=lambda i: (m2[moved.grading[i]], moved.grading[i], i))
    return apply_move(moved, M1(tuple(order)))


def _reference_equivalent(p, q):
    """The all-conjugator search: normalize M3(g) p for every g in G."""
    if p.size != q.size:
        return False
    nq = _reference_normalize(q)
    for g in p.group.elements():
        np = _reference_normalize(apply_move(p, M3(g)))
        if (
            np.subgroup == nq.subgroup
            and np.grading == nq.grading
            and classes_cohomologous(np.cocycle, nq.cocycle)
        ):
            return True
    return False


def _klein_class(H):
    """(-1)^(x_b y_a) along e, a, b, ab with a, b the two least non-identity
    members: a bilinear form that is not symmetric, so a nontrivial class."""
    G = H.parent
    a, b = H.members[1], H.members[2]
    coords = {0: (0, 0), a: (1, 0), b: (0, 1), G.mul(a, b): (1, 1)}
    return Cocycle2(
        H, 2, [[coords[x][1] * coords[y][0] for y in H.members] for x in H.members]
    )


def _twisted(c, rng):
    """c times the coboundary of a random normalized lambda."""
    H = c.subgroup
    G = H.parent
    N = c.modulus
    lam = {h: (rng.randrange(N) if h else 0) for h in H.members}
    return Cocycle2(
        H,
        N,
        [
            [c.exp(x, y) + lam[x] + lam[y] - lam[G.mul(x, y)] for y in H.members]
            for x in H.members
        ],
    )


def _classes(H, rng):
    """One or two cocycles on H, in distinct classes when H is Klein."""
    G = H.parent
    if len(H) == 4 and all(G.mul(h, h) == 0 for h in H.members):
        return [_twisted(Cocycle2.trivial(H, 2), rng), _twisted(_klein_class(H), rng)]
    return [_twisted(Cocycle2.trivial(H, rng.choice([1, 2, 3, 4])), rng)]


def _random_moves(p, rng):
    q = p
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            sigma = list(range(q.size))
            rng.shuffle(sigma)
            q = apply_move(q, M1(tuple(sigma)))
        elif kind == 1:
            q = apply_move(q, M2(tuple(rng.choice(q.subgroup.members) for _ in range(q.size))))
        else:
            q = apply_move(q, M3(rng.randrange(q.group.order)))
    return Presentation(q.group, q.subgroup, _twisted(q.cocycle, rng), q.grading)


def test_normal_forms_agree_with_the_all_conjugator_search():
    """Seeded cross-check against the |G| loop: moved (equivalent) pairs,
    same-grading pairs in different classes, and unrelated pairs, over
    groups whose subgroups include non-normal ones (D3, D4, S4)."""
    rng = random.Random(1313)
    c2 = FiniteGroup.cyclic(2)
    s4 = FiniteGroup.symmetric(4)
    groups = [
        FiniteGroup.dihedral(3),
        FiniteGroup.dihedral(4),
        FiniteGroup.direct_product(c2, c2),
        FiniteGroup.direct_product(c2, FiniteGroup.cyclic(4)),
        FiniteGroup.cyclic(6),
    ]
    cases = [(G, H) for G in groups for H in G.all_subgroups()]
    for gens in ([1], [6], [3, 8], [1, 6], [7, 16], [3]):
        cases.append((s4, s4.generated_subgroup(gens)))
    assert any(not H.is_normal() for G, H in cases if G is s4)
    verdicts = {"moved": set(), "classes": set(), "unrelated": set()}
    for G, H in cases * 3:
        for c in _classes(H, rng):
            grading = tuple(rng.randrange(G.order) for _ in range(rng.randint(1, 4)))
            p = Presentation(G, H, c, grading)
            forms = list(_normal_forms(p))
            assert normalize_presentation(p) == forms[0] == _reference_normalize(p)
            assert is_normalized(forms[0]) and len(forms) <= len(H.right_cosets())
            pairs = [("moved", _random_moves(p, rng))]
            for other in _classes(H, rng):
                pairs.append(("classes", Presentation(G, H, other, grading)))
            K = rng.choice(G.all_subgroups()) if G.order <= 16 else H
            kgrading = tuple(rng.randrange(G.order) for _ in grading)
            pairs.append(("unrelated", Presentation(G, K, _classes(K, rng)[0], kgrading)))
            for kind, q in pairs:
                want = _reference_equivalent(p, q)
                assert presentations_equivalent(p, q) == want, (G.name, H, kind)
                verdicts[kind].add(want)
    assert verdicts == {"moved": {True}, "classes": {True, False}, "unrelated": {True, False}}


def test_second_tie_break_separates_the_swapped_classes(p_z3z3_noninvariant):
    """On Z3wrZ2 with H = Z3 x Z3 and grading (e, sigma), both cosets have
    multiplicity 1.  The swap sends class k to class -k, so classes 1 and 2
    are equivalent only through the second normal form."""
    p = p_z3z3_noninvariant
    H = p.subgroup
    ps = [Presentation(p.group, H, z3z3_cocycle(H, k), p.grading) for k in range(3)]
    for k1, a in enumerate(ps):
        for k2, b in enumerate(ps):
            want = _reference_equivalent(a, b)
            assert presentations_equivalent(a, b) == want
            assert want == (k1 == k2 or k1 * k2 == 2)
    first, second = _normal_forms(ps[1])
    nq = normalize_presentation(ps[2])
    assert first.grading == second.grading == nq.grading
    assert not classes_cohomologous(first.cocycle, nq.cocycle)
    assert classes_cohomologous(second.cocycle, nq.cocycle)


def test_crossed_product_certificates(p_z2_balanced, p_d4_klein, z2):
    for p in (p_z2_balanced, p_d4_klein):
        A = build_algebra(p)
        res = is_crossed_product(A)
        assert res
        one = A.one()
        for g, (u, v) in res.certificates.items():
            assert u * v == one and v * u == one
            assert u.is_homogeneous_of(g)
    # H = G: always a crossed product
    H = z2.full_subgroup()
    A = build_algebra(Presentation(z2, H, Cocycle2.trivial(H, 2), (0, 0)))
    assert is_crossed_product(A)


def test_crossed_product_dimension_dichotomy(p_z2_unbalanced, p_z2_balanced):
    A = build_algebra(p_z2_unbalanced)
    assert not is_crossed_product(A)
    assert len(A.homogeneous_basis(0)) > A.dim // A.group.order
    B = build_algebra(p_z2_balanced)
    assert is_crossed_product(B)
    for g in B.group.elements():
        assert len(B.homogeneous_basis(g)) == B.dim // B.group.order


def test_graded_division_cases(p_group_algebra_z2, p_z2_balanced, p_k4_twisted):
    assert build_algebra(p_group_algebra_z2).presentation.size == 1
    assert build_algebra(p_z2_balanced).presentation.size != 1
    A = build_algebra(p_k4_twisted)
    assert A.presentation.size == 1
    # every u_h is invertible: u_h * (c(h, h^-1)^-1 u_(h^-1)) = 1
    one = A.one()
    for h in A.presentation.subgroup.members:
        hinv = A.group.inv(h)
        u = A.element({(h, 0, 0): CycScalar.one(2)})
        from gradedpi.scalars import root_of_unity

        v = A.element({(hinv, 0, 0): root_of_unity(2, -A.presentation.cocycle.exp(h, hinv))})
        assert u * v == one and v * u == one


def test_support_connectedness(z2, d3):
    H = z2.trivial_subgroup()
    small = Presentation(z2, H, Cocycle2.trivial(H, 1), (0,))
    assert small.support() == frozenset({0}) and not small.is_connected()
    rot = d3.subgroup(range(3))
    p = Presentation(d3, rot, Cocycle2.trivial(rot, 3), (0, 3))
    assert p.support() == frozenset(d3.elements()) and p.is_connected()


def test_presentation_support_matches_the_algebras_degrees():
    """Presentation.support() is the set of the built algebra's degrees, and
    is_connected() says whether they generate G by generated_subgroup, on
    every subgroup of the zoo groups with every grading of length 3 or less.
    classify, which builds no algebra, raises DisconnectedGradingError with
    its one text exactly on the disconnected presentations."""
    c2 = FiniteGroup.cyclic(2)
    zoo = [FiniteGroup.cyclic(n) for n in (2, 3, 4, 6, 8)] + [
        FiniteGroup.dihedral(3),
        FiniteGroup.dihedral(4),
        FiniteGroup.direct_product(c2, c2),
        FiniteGroup.direct_product(c2, FiniteGroup.cyclic(4)),
    ]
    seen = {True: 0, False: 0}
    for G in zoo:
        for H in G.all_subgroups():
            c = Cocycle2.trivial(H, 1)
            for m in (1, 2, 3):
                for grading in product(G.elements(), repeat=m):
                    p = Presentation(G, H, c, grading)
                    A = build_algebra(p)
                    degrees = frozenset(A.degree)
                    assert p.support() == degrees == frozenset(A.components), (G, H, grading)
                    connected = len(G.generated_subgroup(degrees)) == G.order
                    assert p.is_connected() == connected, (G, H, grading)
                    seen[connected] += 1
                    if connected:
                        assert classify(p).connected
                        continue
                    with pytest.raises(DisconnectedGradingError) as err:
                        classify(p)
                    assert str(err.value) == (
                        "the support of the grading does not generate the group"
                    )
    assert seen[False] > 1000 and seen[True] > 1000
