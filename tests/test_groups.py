"""Cayley-table groups: validation, subgroups, cosets, normality."""

from itertools import permutations

import pytest

from gradedpi import groups
from gradedpi.errors import HypothesisError, InvalidTableError, NotSubgroupError
from gradedpi.groups import FiniteGroup, coset_steps, equivalence_classes_tilde

from conftest import normality_zoo


def brute_center(g: FiniteGroup):
    return [a for a in g.elements() if all(g.mul(a, b) == g.mul(b, a) for b in g.elements())]


def test_cyclic_two():
    g = FiniteGroup.cyclic(2)
    assert g.order == 2
    assert g.mul(1, 1) == 0


def test_dihedral_four_center():
    g = FiniteGroup.dihedral(4)
    assert g.order == 8
    assert len(brute_center(g)) == 2


def test_symmetric_three_nonabelian():
    s3 = FiniteGroup.symmetric(3)
    assert s3.order == 6
    assert not s3.is_abelian()
    assert FiniteGroup.symmetric(4).order == 24


def test_repeated_row_rejected():
    with pytest.raises(InvalidTableError):
        FiniteGroup.from_table([[0, 1], [0, 1]])
    for table, message in [
        ([[0, 1, 2], [1, 1, 7], [2, 0, 1]], "row 1 contains out-of-range entry 7"),
        ([[0, 1, 2], [1, 2, 0], [1, 0, 2]], "column 0 is not a permutation (Latin square fails)"),
        ([[0, 1, 2], [1, 2], [2, 0, 1]], "row 1 has length 2, expected 3"),
    ]:
        with pytest.raises(InvalidTableError) as err:
            FiniteGroup.from_table(table)
        assert str(err.value) == message


def test_nonassociative_latin_square_rejected():
    # The 5x5 table of the (Z5, x*y = x - y) quasigroup is Latin but has no
    # two-sided identity.
    table = [[(a - b) % 5 for b in range(5)] for a in range(5)]
    with pytest.raises(InvalidTableError):
        FiniteGroup.from_table(table)


def test_identity_relabeled_to_zero():
    # Z2 written with the identity at index 1.
    g = FiniteGroup.from_table([[0, 1], [1, 0]][::-1])
    assert g.mul(0, 0) == 0
    assert g.mul(1, 1) == 0


def test_order_cap():
    with pytest.raises(InvalidTableError):
        FiniteGroup.cyclic(65)


@pytest.mark.parametrize(
    "build",
    [
        lambda: FiniteGroup.cyclic(65),
        lambda: FiniteGroup.cyclic(0),
        lambda: FiniteGroup.dihedral(33),
        lambda: FiniteGroup.dihedral(0),
        lambda: FiniteGroup.symmetric(5),
        lambda: FiniteGroup.direct_product(FiniteGroup.cyclic(16), FiniteGroup.cyclic(8)),
    ],
    ids=["cyclic-65", "cyclic-0", "dihedral-33", "dihedral-0", "symmetric-5", "C16xC8"],
)
def test_constructor_checks_order_before_building_the_table(build, monkeypatch):
    """Every table builder iterates range(size), so a guarded range in the
    module shows whether a too-large table was started."""
    from gradedpi import groups

    def guarded_range(*args):
        r = range(*args)
        if len(r) > groups.MAX_ORDER:
            raise AssertionError(f"table of size {len(r)} built before the order check")
        return r

    monkeypatch.setattr(groups, "range", guarded_range, raising=False)
    with pytest.raises(InvalidTableError):
        build()


def test_subgroup_validation():
    g = FiniteGroup.cyclic(4)
    with pytest.raises(NotSubgroupError):
        g.subgroup([0, 1])  # not closed
    with pytest.raises(NotSubgroupError):
        g.subgroup([1, 3])  # misses identity
    assert len(g.subgroup([0, 2])) == 2
    with pytest.raises(NotSubgroupError, match=r"^member 70 out of range$"):
        FiniteGroup.cyclic(64).subgroup([0, 70, 80])


def test_subgroup_members_are_read_with_operator_index():
    """A member is read as operator.index reads it, so True is 1 and a
    float or a string is refused with a typed error that names it."""
    g = FiniteGroup.cyclic(4)
    H = g.subgroup([0, True, 2, 3])
    assert repr(H) == "Subgroup([0, 1, 2, 3] of C4)"
    assert [type(h) for h in H.members] == [int] * 4
    for bad in (2.0, 1.5, "a", None):
        with pytest.raises(NotSubgroupError) as err:
            g.subgroup([0, bad])
        assert str(err.value) == f"member {bad!r} is not an integer"


def test_table_entries_are_read_with_operator_index():
    """A given table is read as operator.index reads each entry, so True is
    1, and a float or a string is refused with a typed error naming its row."""
    g = FiniteGroup.from_table([[0, True], [True, 0]])
    assert g.table == ((0, 1), (1, 0)) and type(g.table[0][1]) is int
    assert g == FiniteGroup.cyclic(2)
    for table, message in [
        ([[0, 1.0], [1.0, 0]], "row 0 is not a list of integers: [0, 1.0]"),
        ([[0, 1], [1, "a"]], "row 1 is not a list of integers: [1, 'a']"),
        ([[0, 1], None], "row 1 is not a list of integers: None"),
    ]:
        with pytest.raises(InvalidTableError) as err:
            FiniteGroup.from_table(table)
        assert str(err.value) == message


def test_lagrange_on_all_small_groups():
    zoo = [
        FiniteGroup.cyclic(n) for n in range(1, 9)
    ] + [FiniteGroup.dihedral(3), FiniteGroup.dihedral(4),
         FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))]
    for g in zoo:
        for H in g.all_subgroups():
            assert g.order % len(H) == 0


def test_whole_group_is_normal():
    g = FiniteGroup.dihedral(3)
    assert g.full_subgroup().is_normal()


def test_index_two_subgroup_is_normal():
    g = FiniteGroup.dihedral(4)
    assert g.subgroup(range(4)).is_normal()


def test_reflection_subgroup_not_normal():
    g = FiniteGroup.dihedral(3)
    H = g.generated_subgroup([3])
    assert len(H) == 2 and not H.is_normal()


def test_right_cosets_deterministic():
    g = FiniteGroup.dihedral(3)
    rot = g.subgroup(range(3))
    dec = rot.right_cosets()
    assert dec.reps[0] == 0
    assert len(dec.reps) == 2
    assert all(len([x for x in g.elements() if dec.coset_of[x] == i]) == 3 for i in range(2))
    # whole group: single coset
    assert len(g.full_subgroup().right_cosets().reps) == 1
    # trivial subgroup of Z3: every element its own coset
    z3 = FiniteGroup.cyclic(3)
    assert z3.trivial_subgroup().right_cosets().reps == (0, 1, 2)


def test_coset_steps_match_their_definition():
    """steps[i][t] = (h, j) with h in H and r_i t = h r_j, for every coset
    index i and element t, on normal and non-normal subgroups."""
    d4, s3 = FiniteGroup.dihedral(4), FiniteGroup.symmetric(3)
    cases = [
        d4.subgroup(range(4)),  # rotations
        d4.subgroup([0, 2, 4, 6]),  # Klein
        d4.subgroup([0, 4]),  # a reflection, not normal
        next(H for H in s3.all_subgroups() if len(H) == 2),
    ]
    assert not cases[2].is_normal() and not cases[3].is_normal()
    for H in cases:
        g, reps = H.parent, H.right_cosets().reps
        steps = coset_steps(H)
        assert len(steps) == len(reps)
        for i, row in enumerate(steps):
            assert len(row) == g.order
            for t, (h, j) in enumerate(row):
                assert h in H
                assert g.mul(reps[i], t) == g.mul(h, reps[j])
        assert coset_steps(H) == steps


def test_tilde_classes_examples():
    d3 = FiniteGroup.dihedral(3)
    refl = d3.generated_subgroup([3])
    classes = equivalence_classes_tilde(refl)
    assert [len(c) for c in classes] == [1, 2]
    # trivial subgroup: all singletons
    triv = d3.trivial_subgroup()
    classes = equivalence_classes_tilde(triv)
    assert all(len(c) == 1 for c in classes)


def test_normal_iff_tilde_singletons_on_small_zoo():
    zoo = [
        FiniteGroup.cyclic(n) for n in (2, 3, 4, 6, 8)
    ] + [
        FiniteGroup.dihedral(3),
        FiniteGroup.dihedral(4),
        FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)),
        FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)),
    ]
    for g in zoo:
        for H in g.all_subgroups():
            classes = equivalence_classes_tilde(H)
            assert H.is_normal() == all(len(c) == 1 for c in classes), (g, H.members)


def _pairwise_tilde_classes(H):
    """The ~ classes by their definition: g_i ~ g_j iff g_i^-1 h g_j lies in
    H for some h in H, scanned pair by pair against each class's first rep."""
    g = H.parent
    classes = []
    for r in H.right_cosets().reps:
        for cls in classes:
            if any(g.mul(g.mul(g.inv(cls[0]), h), r) in H for h in H.members):
                cls.append(r)
                break
        else:
            classes.append([r])
    return sorted(classes, key=lambda c: (len(c), c[0]))


def test_tilde_classes_match_the_pairwise_definition():
    """The classes read off the step table are the pairwise scan's, on every
    subgroup of the groups of order <= 16 below and on the subgroups of S4
    generated by one or two elements."""
    zoo = _ac11_zoo() + [
        FiniteGroup.dihedral(5),
        FiniteGroup.dihedral(6),
        FiniteGroup.dihedral(8),
        FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.dihedral(4)),
    ]
    subgroups = [H for g in zoo for H in g.all_subgroups()]
    s4 = FiniteGroup.symmetric(4)
    subgroups += sorted(
        {s4.generated_subgroup([a, b]) for a in s4.elements() for b in s4.elements()},
        key=lambda H: H.members,
    )
    non_normal = 0
    for H in subgroups:
        classes = equivalence_classes_tilde(H)
        assert classes == _pairwise_tilde_classes(H), (H.parent, H.members)
        non_normal += not H.is_normal()
    assert non_normal > 20


def test_direct_product_structure():
    k4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    assert k4.order == 4 and k4.is_abelian()
    assert all(k4.mul(x, x) == 0 for x in k4.elements())
    assert k4.product_factors is not None


def test_element_order_and_conj():
    d4 = FiniteGroup.dihedral(4)
    assert d4.element_order(1) == 4
    assert d4.element_order(4) == 2
    # conjugation by r sends s to s r^2 in the dihedral index layout
    assert d4.conj(1, 4) == 6


def _naive_associativity_error(rows):
    n = len(rows)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    return f"associativity fails at triple ({a}, {b}, {c})"
    return None


def _ac11_zoo():
    return [
        FiniteGroup.cyclic(2),
        FiniteGroup.cyclic(3),
        FiniteGroup.cyclic(4),
        FiniteGroup.cyclic(6),
        FiniteGroup.cyclic(8),
        FiniteGroup.dihedral(3),
        FiniteGroup.dihedral(4),
        FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)),
        FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)),
    ]


def test_nonassociative_loop_of_order_5_names_the_first_triple():
    """The smallest non-associative loop: Latin, with identity 0."""
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InvalidTableError) as err:
        FiniteGroup.from_table(table)
    assert str(err.value) == _naive_associativity_error(table)


def test_light_test_matches_the_naive_scan_on_corrupted_tables():
    """Swapping the two symbols of a 2x2 Latin subsquare off the identity's
    row and column keeps a Latin square with identity; Light's test must
    reject exactly when the n^3 scan does, naming the same first triple."""
    import random

    rng = random.Random(2024)
    rejected = 0
    for g in _ac11_zoo() + [FiniteGroup.symmetric(3), FiniteGroup.cyclic(64)]:
        n = g.order
        base = [list(r) for r in g.table]
        for _ in range(8):
            rows = [list(r) for r in base]
            for _ in range(rng.randint(1, 3)):
                x1, x2, y1 = rng.randrange(1, n), rng.randrange(1, n), rng.randrange(1, n)
                if x1 == x2:
                    continue
                p, q = rows[x1][y1], rows[x2][y1]
                y2 = rows[x1].index(q)
                if y2 != 0 and rows[x2][y2] == p:
                    rows[x1][y1], rows[x1][y2] = q, p
                    rows[x2][y1], rows[x2][y2] = p, q
            want = _naive_associativity_error(rows)
            if want is None:
                assert FiniteGroup.from_table(rows).order == n
                continue
            with pytest.raises(InvalidTableError) as err:
                FiniteGroup.from_table(rows)
            assert str(err.value) == want
            rejected += 1
    assert rejected >= 20


def test_every_zoo_group_constructs_with_few_generators():
    from gradedpi.groups import right_generators

    for g in _ac11_zoo():
        assert FiniteGroup.from_table(g.table) == g
        gens = right_generators(g.table)
        assert len(g.generated_subgroup(gens)) == g.order
        assert 2 ** len(gens) <= g.order
        for H in g.all_subgroups():
            assert FiniteGroup.from_table(
                [[H.local_index(g.mul(a, b)) for b in H.members] for a in H.members]
            ).order == len(H)


def test_unvalidated_constructors_build_group_tables_with_identity_zero():
    """cyclic, dihedral, symmetric and direct_product skip validation, so
    every table they build must pass it unchanged."""
    c2, c4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)
    built = [FiniteGroup.cyclic(n) for n in range(1, 65)]
    built += [FiniteGroup.dihedral(n) for n in range(1, 33)]
    built += [FiniteGroup.symmetric(n) for n in range(5)]
    built += [
        FiniteGroup.direct_product(c2, c2),
        FiniteGroup.direct_product(c2, FiniteGroup.dihedral(3)),
        FiniteGroup.direct_product(FiniteGroup.symmetric(3), c4),
        FiniteGroup.direct_product(FiniteGroup.dihedral(4), c4),
        FiniteGroup.direct_product(FiniteGroup.direct_product(c2, c2), c4),
    ]
    for g in built:
        assert groups._validate_table(g.table) == 0, g.name


def test_constructor_tables_equal_their_definitions():
    """dihedral and symmetric build exactly these labellings.  A relabelled
    table is still a group table, so the test above would pass it, while
    every D_n and S_n report would change."""
    for n in range(1, 33):
        size = 2 * n
        table = [[0] * size for _ in range(size)]
        for a in range(n):
            for b in range(n):
                table[a][b] = (a + b) % n  # r^a r^b = r^(a+b)
                table[a][n + b] = n + (b - a) % n  # r^a s r^b = s r^(b-a)
                table[n + a][b] = n + (a + b) % n  # s r^a r^b = s r^(a+b)
                table[n + a][n + b] = (b - a) % n  # s r^a s r^b = r^(b-a)
        assert FiniteGroup.dihedral(n).table == tuple(map(tuple, table)), n
    for n in range(5):
        perms = sorted(permutations(range(n)))
        table = [
            [perms.index(tuple(pa[pb[i]] for i in range(n))) for pb in perms] for pa in perms
        ]
        assert FiniteGroup.symmetric(n).table == tuple(map(tuple, table)), n


def _full_scan_error(g: FiniteGroup, members):
    """The |S|^2 reference: the first inverse or product that leaves the set,
    member by member in index order; None for a subgroup."""
    ms = tuple(sorted(set(members)))
    for a in ms:
        if g.inv(a) not in ms:
            return f"member {a} has inverse outside the set"
        for b in ms:
            if g.mul(a, b) not in ms:
                return f"product {a}*{b} leaves the set"
    return None


def test_closure_on_generators_matches_the_full_scan():
    """Every subset holding the identity of C6, D4, S3 and C2xC4: the same
    verdict and the same NotSubgroupError message as the full scan."""
    from itertools import combinations

    c2c4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4))
    zoo = [
        (FiniteGroup.cyclic(6), 4),
        (FiniteGroup.dihedral(4), 10),
        (FiniteGroup.symmetric(3), 6),
        (c2c4, 8),
    ]
    for g, n_subgroups in zoo:
        found = 0
        rest = range(1, g.order)
        for size in range(g.order):
            for extra in combinations(rest, size):
                members = (0,) + extra
                want = _full_scan_error(g, members)
                if want is None:
                    assert g.subgroup(members).members == members
                    found += 1
                    continue
                with pytest.raises(NotSubgroupError) as err:
                    g.subgroup(members)
                assert str(err.value) == want
        assert found == n_subgroups == len(g.all_subgroups())


def test_all_subgroups_refuses_orders_above_sixteen_with_a_typed_error():
    """Subgroup enumeration is brute force over member subsets: a group of
    order 17 or more is refused with HypothesisError, a package error."""
    for g in (FiniteGroup.cyclic(17), FiniteGroup.dihedral(9)):
        with pytest.raises(HypothesisError, match="order too large"):
            g.all_subgroups()


def test_built_groups_skip_validation_and_equal_validated_ones(monkeypatch):
    """cyclic, dihedral, symmetric and direct_product build group tables by
    construction and do not validate them again; each equals the group
    validated from its table."""
    checked = []
    validate = groups._validate_table
    monkeypatch.setattr(groups, "_validate_table", lambda rows: checked.append(rows) or validate(rows))
    built = [FiniteGroup.cyclic(n) for n in (1, 2, 6, 64)]
    built.append(FiniteGroup.direct_product(built[1], built[2]))
    built.append(FiniteGroup.direct_product(built[4], FiniteGroup.dihedral(2)))
    built += [FiniteGroup.dihedral(4), FiniteGroup.symmetric(0), FiniteGroup.symmetric(4)]
    assert checked == []
    for G in built:
        again = FiniteGroup(G.table, name=G.name, product_factors=G.product_factors)
        assert again == G and again.name == G.name
        assert type(G.table) is tuple and all(type(row) is tuple for row in G.table)
        assert [G.inv(a) for a in G.elements()] == [again.inv(a) for a in again.elements()]
    assert built[4].product_factors == (built[1], built[2])
    with pytest.raises(InvalidTableError, match="exceeds"):
        FiniteGroup.cyclic(65)
    with pytest.raises(InvalidTableError, match="exceeds"):
        FiniteGroup.direct_product(built[2], FiniteGroup.cyclic(11))


@pytest.mark.parametrize(
    "a, b",
    [
        (FiniteGroup.cyclic(2), FiniteGroup.cyclic(6)),
        (FiniteGroup.dihedral(3), FiniteGroup.cyclic(2)),
        (FiniteGroup.symmetric(3), FiniteGroup.cyclic(4)),
        (FiniteGroup.cyclic(4), FiniteGroup.cyclic(4)),
    ],
)
def test_direct_product_rows_equal_the_factor_products(a, b):
    nb = b.order
    n = a.order * nb
    G = FiniteGroup.direct_product(a, b)
    assert G.table == tuple(
        tuple(a.mul(x // nb, y // nb) * nb + b.mul(x % nb, y % nb) for y in range(n))
        for x in range(n)
    )
    assert G.name == f"{a.name}x{b.name}" and G.product_factors == (a, b)
    assert all(G.mul(x, G.inv(x)) == 0 == G.mul(G.inv(x), x) for x in G.elements())


def test_inverses_read_from_the_rows():
    for g in (FiniteGroup.dihedral(5), FiniteGroup.symmetric(4), FiniteGroup.cyclic(7)):
        assert [g.inv(a) for a in g.elements()] == [
            next(b for b in g.elements() if g.mul(a, b) == 0) for a in g.elements()
        ]
    # A validated table is a Latin square, so only an unvalidated one can
    # hold a row without the identity.
    with pytest.raises(InvalidTableError, match=r"^element 1 has no inverse$"):
        FiniteGroup([[0, 1, 2], [1, 1, 2], [2, 0, 1]], _trusted=True)


def _brute_is_normal(H) -> bool:
    """The definition: x h x^-1 in H for every x in G and h in H."""
    g = H.parent
    return all(g.conj(x, h) in H for x in g.elements() for h in H.members)


def test_stored_generators_equal_a_fresh_greedy_scan():
    """FiniteGroup.generators() is computed on its first call and kept, and
    Subgroup.generators() is what the constructor's closure check found; both
    equal a fresh right_generators call.  In local indices, H's are the greedy
    generators of its local table, which the coboundary system reads."""
    s4 = FiniteGroup.symmetric(4)
    for g in normality_zoo() + [s4, FiniteGroup.cyclic(64), FiniteGroup.dihedral(32)]:
        gens = g.generators()
        assert gens == tuple(groups.right_generators(g.table)) and g.generators() is gens
        subgroups = g.all_subgroups() if g.order <= 16 else [
            g.generated_subgroup(x) for x in ([1], [2], [3, 7], [9, 14])
        ]
        for H in subgroups:
            want = groups.right_generators(g.table, 0, H.members)
            assert H.generators() == tuple(want), (g.name, H.members)
            local = [H.local_index(s) for s in want]
            assert local == groups.right_generators(H.local_table()), (g.name, H.members)


def test_generates_matches_the_generated_subgroup():
    """G.generates(X) says whether the subgroup generated by X is all of G,
    on every pair of elements of the groups below."""
    seen = set()
    for g in _ac11_zoo() + [FiniteGroup.symmetric(4), FiniteGroup.dihedral(8)]:
        for a in g.elements():
            for b in g.elements():
                want = len(g.generated_subgroup([a, b])) == g.order
                assert g.generates([a, b]) == want, (g.name, a, b)
                seen.add(want)
        assert g.generates(g.elements()) and g.generates([]) == (g.order == 1)
    assert seen == {False, True}


def test_is_normal_on_generators_matches_the_definition_on_every_small_subgroup():
    seen = normal = 0
    for g in normality_zoo():
        for H in g.all_subgroups():
            want = _brute_is_normal(H)
            assert H.is_normal() == want, (g.name, H.members)
            seen += 1
            normal += want
    assert seen == 203 and 0 < normal < seen


def test_is_normal_on_generated_subgroups_of_c64_and_s4():
    c64 = FiniteGroup.cyclic(64)
    H = c64.generated_subgroup([2])
    assert len(H) == 32 and H.is_normal() and _brute_is_normal(H)
    s4 = FiniteGroup.symmetric(4)
    verdicts = set()
    for gens in [(a,) for a in range(24)] + [(a, b) for a in range(1, 24) for b in range(a + 1, 24)]:
        H = s4.generated_subgroup(gens)
        want = _brute_is_normal(H)
        assert H.is_normal() == want, H.members
        verdicts.add((len(H), want))
    # The trivial group, V4, A4 and S4 are normal; the cyclic and dihedral
    # subgroups and S3 are not.
    assert {(1, True), (4, True), (12, True), (24, True), (2, False), (3, False)} <= verdicts
    assert (6, False) in verdicts and (8, False) in verdicts


def _bfs_generated(g: FiniteGroup, gens) -> tuple[int, ...]:
    """The reference: breadth-first search multiplying by each generator and
    its inverse."""
    members, frontier = {0}, [0]
    for x in frontier:
        for s in gens:
            for y in (g.mul(x, s), g.mul(x, g.inv(s))):
                if y not in members:
                    members.add(y)
                    frontier.append(y)
    return tuple(sorted(members))


def test_generated_subgroup_matches_a_bfs_with_inverses():
    import random

    rng = random.Random(20161)
    c2, c4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)
    zoo = [
        FiniteGroup.cyclic(64),
        FiniteGroup.cyclic(30),
        FiniteGroup.dihedral(16),
        FiniteGroup.symmetric(4),
        FiniteGroup.direct_product(FiniteGroup.direct_product(c4, c4), c2),
        FiniteGroup.direct_product(FiniteGroup.symmetric(3), c4),
    ]
    whole = set()
    for g in zoo:
        assert g.generated_subgroup([]).members == (0,)
        assert g.generated_subgroup(g.elements()).members == tuple(g.elements())
        for _ in range(40):
            gens = rng.sample(range(g.order), rng.randint(1, 4))
            H = g.generated_subgroup(gens)
            assert H.members == _bfs_generated(g, gens), (g.name, gens)
            assert H.members == g.generated_subgroup(frozenset(gens)).members
            whole.add(len(H) == g.order)
    assert whole == {True, False}


def test_local_table_is_the_product_in_local_indices():
    for g in _ac11_zoo() + [FiniteGroup.symmetric(4), FiniteGroup.cyclic(64)]:
        subgroups = g.all_subgroups() if g.order <= 16 else [
            g.generated_subgroup(gens) for gens in ([1], [2], [1, 6], [7, 9])
        ]
        for H in subgroups:
            table = H.local_table()
            assert table == tuple(
                tuple(H.local_index(g.mul(a, b)) for b in H.members) for a in H.members
            )
            assert H.local_table() is table


def test_cosets_and_conjugates_read_from_the_rows():
    """right_cosets is built once per subgroup and equals a decomposition
    built from mul; conjugate equals the subgroup of the conj images."""
    import copy
    import pickle

    for g in _ac11_zoo() + [FiniteGroup.symmetric(4)]:
        subgroups = g.all_subgroups() if g.order <= 16 else [
            g.generated_subgroup(gens) for gens in ([1], [2], [3, 7], [9, 14])
        ]
        for H in subgroups:
            dec = H.right_cosets()
            assert H.right_cosets() is dec
            coset_of, reps = {}, []
            for a in g.elements():
                if a not in coset_of:
                    reps.append(a)
                    for h in H.members:
                        coset_of[g.mul(h, a)] = len(reps) - 1
            assert dec.reps == tuple(reps)
            assert dec.coset_of == tuple(coset_of[a] for a in g.elements())
            for x in g.elements():
                assert H.conjugate(x).members == tuple(sorted(g.conj(x, h) for h in H.members))
            for twin in (copy.deepcopy(H), pickle.loads(pickle.dumps(H))):
                assert twin == H and twin.right_cosets() == dec


def test_library_constructors_return_new_objects():
    """The library interns nothing: every constructor call builds a new
    object, so each caller owns the caches it fills."""
    assert FiniteGroup.cyclic(4) is not FiniteGroup.cyclic(4)
    g = FiniteGroup.dihedral(4)
    assert g.subgroup([0, 2]) is not g.subgroup([0, 2])
    assert g.subgroup([0, 2]).right_cosets() is not g.subgroup([0, 2]).right_cosets()
