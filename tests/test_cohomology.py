"""Cocycle validation, the coboundary solver, conjugation, binomial scalars."""

import random
from itertools import permutations, product
from math import gcd

import pytest

from gradedpi.cohomology import (
    Coboundary,
    Cocycle2,
    CocycleViolation,
    class_modulus,
    classes_cohomologous,
    coboundary_or_obstruction,
    invariance_obstruction,
    is_G_invariant_class,
    is_coboundary,
    is_trivial_class,
    smith_diagonalize,
    solve_congruences,
    trivial_class_obstruction,
)
from gradedpi import cohomology
from gradedpi.binomials import enumerate_binomials
from gradedpi.algebra import (
    Presentation,
    _normal_forms,
    normalize_presentation,
    presentations_equivalent,
)
from gradedpi.classify import classify
from gradedpi.errors import (
    BinomialConditionError,
    CocycleError,
    HypothesisError,
    NotNormalError,
    NotSubgroupError,
    VerificationFailedError,
)
from gradedpi.groups import FiniteGroup, Subgroup
from gradedpi.scalars import root_of_unity

from conftest import brute_coboundary, klein_nontrivial_cocycle, normality_zoo, z3z3_cocycle


def test_trivial_cocycle_validates(k4):
    c = Cocycle2.trivial(k4.full_subgroup(), 2)
    assert c.violations() == []


def test_klein_cocycle_validates(k4):
    c = klein_nontrivial_cocycle(k4.full_subgroup())
    assert c.violations() == []


def test_corrupt_entry_names_a_triple(k4):
    c = klein_nontrivial_cocycle(k4.full_subgroup())
    exps = [list(r) for r in c.exps]
    exps[2][3] = (exps[2][3] + 1) % 2
    bad = Cocycle2(k4.full_subgroup(), 2, exps)
    violations = bad.violations()
    assert violations
    assert any(v.kind == "identity" and len(v.triple) == 3 for v in violations)


def _naive_violations(c: Cocycle2) -> list[CocycleViolation]:
    """The exp-based triple loop that violations() replaced, as a reference."""
    H = c.subgroup
    g = H.parent
    N = c.modulus
    out = []
    e_local = H.local_index(0)
    for i, h in enumerate(H.members):
        if c.exps[e_local][i] % N != 0:
            out.append(CocycleViolation("normalization", (0, h), "c(e, h) != 1"))
        if c.exps[i][e_local] % N != 0:
            out.append(CocycleViolation("normalization", (h, 0), "c(h, e) != 1"))
    for a in H.members:
        for b in H.members:
            for d in H.members:
                lhs = c.exp(a, b) + c.exp(g.mul(a, b), d)
                rhs = c.exp(a, g.mul(b, d)) + c.exp(b, d)
                if (lhs - rhs) % N != 0:
                    detail = f"c(a,b)c(ab,d) != c(a,bd)c(b,d) (exponents {lhs} vs {rhs})"
                    out.append(CocycleViolation("identity", (a, b, d), detail))
    return out


def test_violations_match_the_naive_triple_loop():
    """Same violations, order and messages as the exp-based loop, on valid
    and corrupted tables over every subgroup of C2 x C6 and of D4."""
    rng = random.Random(4711)
    c2c6 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(6))
    kinds = {"valid": 0, "normalization": 0, "identity": 0}
    for G in (c2c6, FiniteGroup.dihedral(4)):
        for H in G.all_subgroups():
            n = len(H)
            for N in (2, 3, 4, 12):
                for _ in range(3):
                    lam = (0,) + tuple(rng.randrange(N) for _ in range(n - 1))
                    exps = [list(r) for r in Coboundary(H, N, lam).induced().exps]
                    for _ in range(rng.randrange(3) if n > 1 else 0):
                        i, j = rng.randrange(n), rng.randrange(n)
                        exps[i][j] = (exps[i][j] + rng.randrange(1, N)) % N
                    c = Cocycle2(H, N, exps)
                    got = c.violations()
                    assert got == _naive_violations(c)
                    if not got:
                        kinds["valid"] += 1
                    for kind in {v.kind for v in got}:
                        kinds[kind] += 1
                    for a in G.elements():
                        for b in G.elements():
                            if a in H and b in H:
                                local = H.local_index(a), H.local_index(b)
                                assert c.exps[local[0]][local[1]] == c.exp(a, b)
                            else:
                                with pytest.raises(NotSubgroupError):
                                    c.exp(a, b)
    assert min(kinds.values()) >= 10, kinds


def _parent_indexed_checks(c: Cocycle2, words) -> tuple:
    """The cocycle check, violations() and product_exp as naive triple loops
    and folds over parent-group elements, each entry read with exp(a, b)."""
    H, N = c.subgroup, c.modulus
    g, mem = H.parent, H.members
    out = []
    for h in mem:
        if c.exp(0, h) % N:
            out.append(CocycleViolation("normalization", (0, h), "c(e, h) != 1"))
        if c.exp(h, 0) % N:
            out.append(CocycleViolation("normalization", (h, 0), "c(h, e) != 1"))
    for a, b, d in product(mem, repeat=3):
        lhs = c.exp(a, b) + c.exp(g.mul(a, b), d)
        rhs = c.exp(a, g.mul(b, d)) + c.exp(b, d)
        if (lhs - rhs) % N:
            detail = f"c(a,b)c(ab,d) != c(a,bd)c(b,d) (exponents {lhs} vs {rhs})"
            out.append(CocycleViolation("identity", (a, b, d), detail))
    folds = []
    for hs in words:
        total, prefix = 0, 0
        for h in hs:
            total, prefix = total + c.exp(prefix, h), g.mul(prefix, h)
        folds.append(total % N)
    return not out, out, folds


def test_local_rows_agree_with_parent_indexed_loops():
    """The generator check, violations() and product_exp read the cocycle's
    rows through H's local indices; each agrees with naive parent-indexed
    loops, on valid and corrupted tables, for H = G, H trivial, a proper
    normal H and a non-normal H of every group in the normality zoo."""
    rng = random.Random(3232)
    seen = {"G": 0, "trivial": 0, "normal": 0, "non-normal": 0, "valid": 0, "invalid": 0}
    for G in normality_zoo():
        subgroups = G.all_subgroups()
        picks = {"G": G.full_subgroup(), "trivial": G.trivial_subgroup()}
        proper = [H for H in subgroups if 1 < len(H) < G.order]
        picks["normal"] = next((H for H in proper if H.is_normal()), None)
        picks["non-normal"] = next((H for H in proper if not H.is_normal()), None)
        for kind, H in picks.items():
            if H is None:
                continue
            n = len(H)
            outside = next((x for x in G.elements() if x not in H), None)
            for N in (1, 3, 4, 12):
                lam = (0,) + tuple(rng.randrange(N) for _ in range(n - 1))
                valid = Coboundary(H, N, lam).induced().exps
                corrupted = [list(row) for row in valid]
                i, j = rng.randrange(n), rng.randrange(n)
                corrupted[i][j] += rng.randrange(1, N) if N > 1 else 1
                for exps in (valid, corrupted):
                    words = [
                        [rng.choice(H.members) for _ in range(rng.randrange(6))] for _ in range(4)
                    ]
                    c = Cocycle2(H, N, exps)
                    ok, bad, folds = _parent_indexed_checks(c, words)
                    # is_valid first: violations() records its own verdict.
                    assert c.is_valid() == ok, (G.name, H.members, N)
                    assert c.violations() == bad, (G.name, H.members, N)
                    assert [c.product_exp(hs) for hs in words] == folds
                    if outside is not None:
                        with pytest.raises(NotSubgroupError):
                            c.product_exp([0, outside])
                    seen[kind] += 1
                    seen["valid" if ok else "invalid"] += 1
    assert min(seen.values()) >= 20, seen


def test_cocycle_entries_must_be_integers():
    """An entry is read with operator.index: a float or a numeric string is a
    CocycleError, not truncated or parsed; ints and bools are reduced mod N."""
    H = FiniteGroup.cyclic(2).full_subgroup()
    for bad in (2.7, 2.0, "3"):
        with pytest.raises(CocycleError, match="entries must be integers"):
            Cocycle2(H, 4, [[0, 0], [0, bad]])
    assert Cocycle2(H, 4, [[0, 0], [0, 6]]).exps == ((0, 0), (0, 2))
    assert Cocycle2(H, 4, [[0, False], [0, True]]).exps == ((0, 0), (0, 1))


def _check_like_violations(c: Cocycle2) -> bool:
    """require_valid, which checks the identity on generators only, passes
    exactly when the full scan finds nothing, and otherwise names its first
    violation."""
    bad = c.violations()
    if not bad:
        assert c.require_valid() is c
        return True
    with pytest.raises(CocycleError) as err:
        c.require_valid()
    assert str(err.value) == str(bad[0])
    return False


def test_require_valid_on_generators_matches_the_full_scan():
    """Every normalized table of C3 (mod 3), C4 and C2 x C2 (mod 2), and
    seeded perturbed coboundaries over S3, D4 (mod 2) and C6 (mod 6),
    normalization entries included.  A constant shift keeps the identity
    and breaks only normalization."""
    c2 = FiniteGroup.cyclic(2)
    outcomes = []
    for G, N in ((FiniteGroup.cyclic(3), 3), (FiniteGroup.cyclic(4), 2),
                 (FiniteGroup.direct_product(c2, c2), 2)):
        H = G.full_subgroup()
        n = len(H)
        for free in product(range(N), repeat=(n - 1) ** 2):
            exps = [[0] * n] + [[0, *free[i * (n - 1):(i + 1) * (n - 1)]] for i in range(n - 1)]
            outcomes.append(_check_like_violations(Cocycle2(H, N, exps)))
    rng = random.Random(61105)
    for G, N in ((FiniteGroup.symmetric(3), 2), (FiniteGroup.dihedral(4), 2),
                 (FiniteGroup.cyclic(6), 6)):
        for H in G.all_subgroups():
            n = len(H)
            for _ in range(40):
                lam = (0,) + tuple(rng.randrange(N) for _ in range(n - 1))
                shift = rng.randrange(N) if rng.random() < 0.2 else 0
                exps = [[v + shift for v in r] for r in Coboundary(H, N, lam).induced().exps]
                for _ in range(rng.randrange(3) if n > 1 else 0):
                    i, j = rng.randrange(n), rng.randrange(n)
                    exps[i][j] = (exps[i][j] + rng.randrange(1, N)) % N
                outcomes.append(_check_like_violations(Cocycle2(H, N, exps)))
    assert outcomes.count(True) >= 300 and outcomes.count(False) >= 300


def _replay_on_identity(row_ops, m):
    """The unimodular U that smith_diagonalize records as row operations."""
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    for i1, i2, a, b, c, d in row_ops:
        r1, r2 = U[i1], U[i2]
        U[i1] = [a * x + b * y for x, y in zip(r1, r2)]
        U[i2] = [c * x + d * y for x, y in zip(r1, r2)]
    return U


def test_smith_diagonalize_properties():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        D, row_ops, V = smith_diagonalize(A)
        U = _replay_on_identity(row_ops, m)
        # U A V == D
        UA = [[sum(U[i][k] * A[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
        UAV = [[sum(UA[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
        assert UAV == D
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        assert abs(_det(U)) == 1 and abs(_det(V)) == 1


def _det(M):
    n = len(M)
    from fractions import Fraction

    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return det


def test_solve_congruences_random():
    """One factorization serves several right-hand sides and moduli; every
    solution satisfies its system, every obstruction is row weights that
    annihilate the matrix but not the right-hand side mod a divisor of N, and
    for up to 3 unknowns an obstruction comes back only when brute force over
    (Z/N)^n finds no solution."""
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        smith = smith_diagonalize(A)
        for N in (2, 3, 4, 6, 12):
            x = [rng.randrange(N) for _ in range(n)]
            solvable = [sum(A[i][j] * x[j] for j in range(n)) % N for i in range(m)]
            arbitrary = [rng.randrange(N) for _ in range(m)]
            for rhs in (solvable, arbitrary):
                sol, obstruction = solve_congruences(A, rhs, N, smith)
                assert (sol, obstruction) == solve_congruences(A, rhs, N)
                if sol is not None:
                    assert obstruction is None
                    assert all(
                        sum(A[i][j] * sol[j] for j in range(n)) % N == rhs[i] % N
                        for i in range(m)
                    )
                    continue
                assert rhs is not solvable and obstruction is not None
                g, z = obstruction  # z A = 0 and z rhs != 0 mod g: no solution
                assert N % g == 0 and g > 1 and len(z) == m
                assert all(sum(z[i] * A[i][j] for i in range(m)) % g == 0 for j in range(n))
                assert sum(z[i] * rhs[i] for i in range(m)) % g != 0
                if n <= 3:
                    assert not any(
                        all(sum(A[i][j] * y[j] for j in range(n)) % N == rhs[i] for i in range(m))
                        for y in product(range(N), repeat=n)
                    )


def test_coboundary_of_trivial_is_zero_witness(k4):
    c = Cocycle2.trivial(k4.full_subgroup(), 2)
    wit = is_coboundary(c)
    assert wit is not None and wit.induced() == c


def test_klein_nontrivial_is_not_coboundary(k4):
    c = klein_nontrivial_cocycle(k4.full_subgroup())
    assert is_coboundary(c) is None
    assert brute_coboundary(c) is None


def test_random_coboundaries_detected(k4, d4):
    rng = random.Random(23)
    for H, N in [(k4.full_subgroup(), 2), (k4.full_subgroup(), 4), (d4.subgroup([0, 2, 4, 6]), 2)]:
        for _ in range(10):
            lam = tuple(rng.randrange(N) for _ in range(len(H)))
            lam = (0,) + lam[1:]  # normalized
            c = Coboundary(H, N, lam).induced()
            assert c.violations() == []  # induced tables always satisfy the identity
            wit = is_coboundary(c)
            assert wit is not None and wit.induced() == c


def test_coboundary_matches_brute_force_on_random_cocycles(k4, z4):
    """Solver vs exhaustive enumeration on perturbed coboundaries and real
    cocycles (agreement also re-checked at scale in the acceptance suite)."""
    rng = random.Random(99)
    cases = []
    Hk = k4.full_subgroup()
    cases.append(klein_nontrivial_cocycle(Hk))
    cases.append(Cocycle2.trivial(Hk, 2))
    z4sub = z4.full_subgroup()
    for _ in range(6):
        lam = tuple(rng.randrange(4) for _ in range(4))
        cases.append(Coboundary(z4sub, 4, lam).induced())
    for c in cases:
        assert (is_coboundary(c) is not None) == (brute_coboundary(c) is not None)


def test_conjugation_by_identity_and_abelian(k4):
    c = klein_nontrivial_cocycle(k4.full_subgroup())
    assert c.conjugate(0) == c
    for g in k4.elements():
        assert c.conjugate(g) == c


def test_conjugation_by_subgroup_element_preserves_class(d4):
    H = d4.subgroup([0, 2, 4, 6])
    c = klein_nontrivial_cocycle(H)
    for h in H.members:
        diff = c.conjugate(h).quotient_exps(c)
        assert is_trivial_class(diff)


def test_conjugation_outside_normalizer_raises(d3):
    H = d3.generated_subgroup([3])
    c = Cocycle2.trivial(H, 2)
    with pytest.raises(NotNormalError):
        c.conjugate(1)
    with pytest.raises(NotNormalError):
        is_G_invariant_class(c)


def test_invariance_abelian_and_trivial(k4, d4):
    assert is_G_invariant_class(klein_nontrivial_cocycle(k4.full_subgroup()))
    rot = d4.subgroup(range(4))
    assert is_G_invariant_class(Cocycle2.trivial(rot, 4))


def test_invariance_klein_in_d4_needs_lifted_modulus(d4):
    """Conjugation by r permutes the Klein involutions; the class survives in
    H^2(H, F*) even though the quotient is no mu_2-coboundary."""
    H = d4.subgroup([0, 2, 4, 6])
    c = klein_nontrivial_cocycle(H)
    diff = c.conjugate(1).quotient_exps(c)
    assert is_coboundary(diff) is None
    assert is_trivial_class(diff)
    assert is_G_invariant_class(c)


def test_noninvariant_class_detected(p_z3z3_noninvariant):
    c = p_z3z3_noninvariant.cocycle
    assert not is_G_invariant_class(c)
    failing = invariance_obstruction(c)
    assert failing is not None
    g, obstruction = failing
    assert g != 0 and obstruction is not None


def test_classify_solves_invariance_once(p_z3z3_noninvariant, monkeypatch):
    """classify decides a failing invariance with one pass over the cosets:
    as many congruence solves as invariance_obstruction alone."""
    calls = []
    real = cohomology.solve_congruences

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(cohomology, "solve_congruences", counting)
    report = classify(p_z3z3_noninvariant)
    in_classify = len(calls)
    calls.clear()
    assert invariance_obstruction(normalize_presentation(p_z3z3_noninvariant).cocycle)
    assert report.class_G_invariant is False and report.invariance_failure is not None
    assert in_classify == len(calls) > 0


def test_one_diagonalization_per_decision(monkeypatch):
    """The relation matrix of H is diagonalized once per decision and reused
    for every normal form or coset representative that needs a solve.  A
    normal-form table already tried, and a representative that fixes the
    table, need none: K4's two matching normal forms share one table, and
    every conjugate of a cocycle on a central subgroup is the cocycle."""
    counts = {"smith": 0, "solve": 0}
    real = {"smith": cohomology.smith_diagonalize, "solve": cohomology.solve_congruences}

    def counting(key):
        def wrapper(*args):
            counts[key] += 1
            return real[key](*args)

        return wrapper

    monkeypatch.setattr(cohomology, "smith_diagonalize", counting("smith"))
    monkeypatch.setattr(cohomology, "solve_congruences", counting("solve"))
    c2 = FiniteGroup.cyclic(2)
    G = FiniteGroup.direct_product(FiniteGroup.direct_product(c2, c2), c2)
    H = G.subgroup([0, 2, 4, 6])
    p = Presentation(G, H, klein_nontrivial_cocycle(H), (0, 1))
    q = Presentation(G, H, Cocycle2.trivial(H, 2), (0, 1))
    nq = normalize_presentation(q)
    matching = sum(
        np.subgroup == nq.subgroup and np.grading == nq.grading for np in _normal_forms(p)
    )
    assert matching == 2
    tables = {np.cocycle.exps for np in _normal_forms(p) if np.subgroup == nq.subgroup}
    assert len(tables) == 1
    assert not presentations_equivalent(p, q)
    assert counts == {"smith": 1, "solve": 1}

    c4 = FiniteGroup.cyclic(4)
    G = FiniteGroup.direct_product(FiniteGroup.direct_product(c2, c2), c4)
    H = G.subgroup([0, 4, 8, 12])
    reps = [g for g in H.right_cosets().reps if g != 0]
    assert H.is_normal() and len(reps) >= 2
    counts["smith"] = counts["solve"] = 0
    assert invariance_obstruction(klein_nontrivial_cocycle(H)) is None
    assert counts == {"smith": 0, "solve": 0}

    # The Klein four subgroup of S4 is normal, and S4 permutes its three
    # involutions, so most conjugates of its cocycle are other tables (of
    # the one non-trivial class).
    s4 = FiniteGroup.symmetric(4)
    klein = [p for p in permutations(range(4)) if all(p[p[i]] == i != p[i] for i in range(4))]
    perms = sorted(permutations(range(4)))
    H = s4.subgroup([0] + [perms.index(p) for p in klein])
    c = klein_nontrivial_cocycle(H)
    moved = [g for g in H.right_cosets().reps if c.conjugate(g).exps != c.exps]
    assert H.is_normal() and len(moved) >= 2
    counts["smith"] = counts["solve"] = 0
    assert invariance_obstruction(c) is None
    assert counts == {"smith": 1, "solve": len(moved)}


def test_bad_solver_witness_raises_typed_error(k4, monkeypatch):
    c = Cocycle2.trivial(k4.full_subgroup(), 2)
    wrong = klein_nontrivial_cocycle(k4.full_subgroup())
    monkeypatch.setattr(Coboundary, "induced", lambda self: wrong)
    with pytest.raises(VerificationFailedError):
        is_coboundary(c)


def test_classes_cohomologous(k4):
    H = k4.full_subgroup()
    c = klein_nontrivial_cocycle(H)
    assert classes_cohomologous(c, c)
    assert not classes_cohomologous(c, Cocycle2.trivial(H, 2))


def test_product_scalar_fold(k4):
    c = klein_nontrivial_cocycle(H := k4.full_subgroup())
    assert c.product_exp([]) == 0
    assert Cocycle2.trivial(H, 2).product_exp([1, 2, 3]) == 0
    # u_a u_b = - u_b u_a for a = (1,0) -> index 2, b = (0,1) -> index 1
    assert (c.product_exp([2, 1]) - c.product_exp([1, 2])) % 2 == 1


def test_product_fold_refuses_a_factor_outside_the_subgroup(d4):
    """The fold reads dense G x G rows, where a factor outside H would read
    as 0; it is refused by name instead."""
    klein = d4.subgroup([0, 2, 4, 6])
    for c in (Cocycle2.trivial(klein, 2), klein_nontrivial_cocycle(klein)):
        with pytest.raises(NotSubgroupError, match="factor 1 "):
            c.product_exp([1])
        with pytest.raises(NotSubgroupError, match="factor 3 "):
            c.product_exp([2, 4, 3, 6])
        with pytest.raises(NotSubgroupError, match="factor 5 "):
            c.binomial_alpha_exp((5,), (0,))
        assert c.product_exp([2, 4, 6]) == (c.exp(2, 4) + c.exp(d4.mul(2, 4), 6)) % 2


def test_a_lookup_refuses_an_element_outside_the_subgroup(d4):
    """exp and value name an element outside H, inside G or not, where the
    local-index lookup raised a bare KeyError."""
    klein = d4.subgroup([0, 2, 4, 6])
    for c in (Cocycle2.trivial(klein, 2), klein_nontrivial_cocycle(klein)):
        for a, b, bad in ((1, 0, 1), (0, 3, 3), (5, 7, 5), (2, 100, 100), (-1, 2, -1)):
            for lookup in (c.exp, c.value):
                with pytest.raises(NotSubgroupError, match=f"element {bad} "):
                    lookup(a, b)
        assert c.value(2, 4) == root_of_unity(2, c.exp(2, 4))


@pytest.mark.parametrize(
    "hs, sigma, error, match",
    [
        ((100,), (0,), NotSubgroupError, "factor 100 "),
        ((2, -1), (1, 0), NotSubgroupError, "factor -1 "),
        ((2, 4), (0, 5), BinomialConditionError, "not a permutation"),
        ((2, 2), (0, 0), BinomialConditionError, "not a permutation"),
        ((2, 4), (0,), BinomialConditionError, "not a permutation"),
    ],
    ids=["outside-G", "negative", "index-past-the-end", "repeated-index", "short-sigma"],
)
def test_binomial_inputs_are_checked_before_any_product(d4, hs, sigma, error, match):
    """A factor outside H and a sigma that is no permutation of the positions
    are refused by type, where the products read past the Cayley table or
    returned a value."""
    klein = d4.subgroup([0, 2, 4, 6])
    c = klein_nontrivial_cocycle(klein)
    with pytest.raises(error, match=match):
        c.binomial_alpha_exp(hs, sigma)
    assert c.binomial_alpha_exp((2, 4), (1, 0)) == (c.exp(2, 4) - c.exp(4, 2)) % 2


def test_binomial_alpha_examples(k4):
    H = k4.full_subgroup()
    c = klein_nontrivial_cocycle(H)
    assert c.binomial_alpha((2, 1), (0, 1)) == root_of_unity(2, 0)
    assert c.binomial_alpha((2, 1), (1, 0)) == root_of_unity(2, 1)
    triv = Cocycle2.trivial(H, 2)
    for hs in product(H.members, repeat=2):
        for sigma in permutations(range(2)):
            assert triv.binomial_alpha(hs, sigma) == root_of_unity(2, 0)


def test_binomial_condition_enforced(d4):
    # r and s do not commute in D4, so the swap violates the product condition.
    H = d4.full_subgroup()
    c = Cocycle2.trivial(H, 2)
    with pytest.raises(BinomialConditionError):
        c.binomial_alpha_exp((1, 4), (1, 0))


def test_enumerate_binomials_counts(k4):
    H = k4.full_subgroup()
    c = klein_nontrivial_cocycle(H)
    # brute-force double loop count for n = 2
    expected = 0
    for hs in product(H.members, repeat=2):
        for sigma in permutations(range(2)):
            if k4.mul(hs[0], hs[1]) == k4.mul(hs[sigma[0]], hs[sigma[1]]):
                expected += 1
    got = [b for b in enumerate_binomials(c, 2) if len(b.hs) == 2]
    assert len(got) == expected
    # n = 1: identity permutations only, alpha = 1
    ones = [b for b in enumerate_binomials(c, 1)]
    assert all(b.sigma == (0,) and b.alpha_exp == 0 for b in ones)


def test_enumerate_binomials_refuses_lengths_above_five_with_a_typed_error(k4):
    """The enumeration is exponential in the length: a bound above 5 is a
    HypothesisError, a package error, at the call, before any item is
    asked for; 5 is enumerated."""
    c = klein_nontrivial_cocycle(k4.full_subgroup())
    assert next(enumerate_binomials(c, 5)).hs == (0,)
    with pytest.raises(HypothesisError, match="length bound > 5 refused"):
        enumerate_binomials(c, 6)


def test_alpha_depends_only_on_class(k4):
    """Multiplying by a random coboundary never changes any binomial alpha."""
    rng = random.Random(31)
    H = k4.full_subgroup()
    c = klein_nontrivial_cocycle(H)
    for _ in range(5):
        lam = (0,) + tuple(rng.randrange(2) for _ in range(3))
        d = Coboundary(H, 2, lam).induced()
        shifted = Cocycle2(
            H, 2, [[(c.exps[i][j] + d.exps[i][j]) % 2 for j in range(4)] for i in range(4)]
        )
        for b in enumerate_binomials(c, 3):
            assert shifted.binomial_alpha_exp(b.hs, b.sigma) == b.alpha_exp


def _exp_conjugate(c: Cocycle2, g: int) -> Cocycle2:
    """The per-entry exp/conj comprehension that conjugate() replaced."""
    H = c.subgroup
    grp = H.parent
    conj = {}
    for h in H.members:
        x = grp.conj(g, h)
        if x not in H.member_set:
            raise NotNormalError(f"conjugation by {g} maps {h} outside H")
        conj[h] = x
    mem = H.members
    return Cocycle2(H, c.modulus, [[c.exp(conj[a], conj[b]) for b in mem] for a in mem])


def _exp_transport(c: Cocycle2, g: int) -> Cocycle2:
    """The per-entry exp/conj comprehension that transport() replaced."""
    H = c.subgroup
    grp = H.parent
    new_sub = H.conjugate(g)
    gi = grp.inv(g)
    mem = new_sub.members
    return Cocycle2(
        new_sub, c.modulus, [[c.exp(grp.conj(gi, a), grp.conj(gi, b)) for b in mem] for a in mem]
    )


def test_conjugate_and_transport_match_the_exp_comprehension():
    rng = random.Random(606)
    c2 = FiniteGroup.cyclic(2)
    groups = [
        FiniteGroup.direct_product(c2, FiniteGroup.cyclic(6)),
        FiniteGroup.dihedral(4),
        FiniteGroup.direct_product(FiniteGroup.direct_product(c2, c2), c2),
    ]
    refused = 0
    for G in groups:
        for H in G.all_subgroups():
            n = len(H)
            c = Cocycle2(H, 12, [[rng.randrange(12) for _ in range(n)] for _ in range(n)])
            for g in G.elements():
                assert c.transport(g) == _exp_transport(c, g)
                try:
                    want = _exp_conjugate(c, g)
                except NotNormalError as exc:
                    with pytest.raises(NotNormalError) as err:
                        c.conjugate(g)
                    assert str(err.value) == str(exc)
                    refused += 1
                    continue
                assert c.conjugate(g) == want
    assert refused > 0


def _full_system(H):
    """The |H|^2 x |H| relation matrix of d(lambda) = c, with its
    diagonalization, built independently of CoboundarySystem."""
    g = H.parent
    mem = H.members
    n = len(mem)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * n
            row[i] += 1
            row[j] += 1
            row[H.local_index(g.mul(mem[i], mem[j]))] -= 1
            rows.append(row)
    return rows, smith_diagonalize(rows)


def _full_solve(full, c: Cocycle2):
    rows, smith = full
    return solve_congruences(rows, [v for row in c.exps for v in row], c.modulus, smith)


def _characters(H, p: int) -> list[list[int]]:
    """Every homomorphism H -> Z/p in local order, by brute force over the
    values on a generating set."""
    from gradedpi.groups import right_generators

    g = H.parent
    mem = H.members
    n = len(mem)
    mul = [[H.local_index(g.mul(a, b)) for b in mem] for a in mem]
    gens = right_generators(mul)
    out = []
    for vals in product(range(p), repeat=len(gens)):
        phi = [0] + [None] * (n - 1)
        queue = [0]
        for a in queue:
            for s, v in zip(gens, vals):
                b = mul[a][s]
                if phi[b] is None:
                    phi[b] = (phi[a] + v) % p
                    queue.append(b)
        if all((phi[a] + phi[b] - phi[mul[a][b]]) % p == 0 for a in range(n) for b in range(n)):
            out.append(phi)
    return out


def _zoo_inputs(rng):
    """(H, c, is_cocycle) over every subgroup of the AC-11 zoo at N = 2, 3, 4,
    12: bilinear forms k phi(a) psi(b) of two characters into Z/p, plus a
    normalized coboundary (one form per H and N is alternating, a
    non-trivial class on the Klein-like subgroups), a coboundary with
    lambda(e) != 0, and a table that breaks the identity."""
    c2 = FiniteGroup.cyclic(2)
    zoo = [
        c2,
        FiniteGroup.cyclic(3),
        FiniteGroup.cyclic(4),
        FiniteGroup.cyclic(6),
        FiniteGroup.cyclic(8),
        FiniteGroup.dihedral(3),
        FiniteGroup.dihedral(4),
        FiniteGroup.direct_product(c2, c2),
        FiniteGroup.direct_product(c2, FiniteGroup.cyclic(4)),
    ]
    for G in zoo:
        for H in G.all_subgroups():
            n = len(H)
            chars = {p: _characters(H, p) for p in (2, 3, 4)}
            alternating = [
                (2, phi, psi, 1)
                for phi, psi in product(chars[2], repeat=2)
                if any(phi[i] * psi[j] != phi[j] * psi[i] for i in range(n) for j in range(n))
            ]
            for N in (2, 3, 4, 12):
                forms = [
                    (p, rng.choice(chars[p]), rng.choice(chars[p]), rng.randrange(N))
                    for p in (2, 3, 4)
                ]
                for p, phi, psi, k in forms + alternating[:1]:
                    scale = k * (N // gcd(N, p))  # well defined mod N: p * scale = 0
                    lam = (0,) + tuple(rng.randrange(N) for _ in range(n - 1))
                    d = Coboundary(H, N, lam).induced().exps
                    exps = [[scale * phi[i] * psi[j] + d[i][j] for j in range(n)] for i in range(n)]
                    yield H, Cocycle2(H, N, exps), True
                lam = (rng.randrange(1, N),) + tuple(rng.randrange(N) for _ in range(n - 1))
                yield H, Coboundary(H, N, lam).induced(), True
                exps = [list(r) for r in Coboundary(H, N, lam).induced().exps]
                i, j = rng.randrange(n), rng.randrange(n)
                exps[i][j] += rng.randrange(1, N)
                broken = Cocycle2(H, N, exps)
                yield H, broken, not any(v.kind == "identity" for v in broken.violations())


def _assert_certifies(obstruction, table: Cocycle2) -> None:
    """Both checks of a 2-chain certificate against table, by hand in the
    parent group: for every k in H, sum y(a,b) ([a=k] + [b=k] - [ab=k]) is
    0 mod m, so y annihilates every coboundary; and sum y(a,b) e(a,b) is
    the recorded value, not 0 mod m.  The chain is sorted, on pairs of H,
    with nonzero weights in (-m/2, m/2], and m divides the table's modulus."""
    H, G = table.subgroup, table.subgroup.parent
    m, chain = obstruction.modulus, obstruction.chain
    assert m > 1 and table.modulus % m == 0
    assert list(chain) == sorted(chain)
    assert all(a in H and b in H and -m < 2 * w <= m and w for a, b, w in chain)
    for k in H.members:
        assert sum(w * ((a == k) + (b == k) - (G.mul(a, b) == k)) for a, b, w in chain) % m == 0
    pairing = sum(w * table.exps[H.local_index(a)][H.local_index(b)] for a, b, w in chain)
    assert pairing % m == obstruction.value != 0


def test_reduced_decision_matches_the_full_system_on_the_zoo(monkeypatch):
    """The generating-set system against the full relation matrix, at the
    given modulus and at the lifted one: the same verdicts; one
    diagonalization per decision, of fewer than |H|^2 rows, for every table,
    broken ones included; and a witness that induces the table, or a 2-chain
    that passes both checks by hand.  A broken table that passes the reduced
    system is certified by its violated identity, with no second solve."""
    rng = random.Random(1212)
    smith_rows = []
    identity_certificates = []
    real_smith = cohomology.smith_diagonalize
    real_identity = cohomology._identity_obstruction

    def counting(*args):
        smith_rows.append(len(args[0]))
        return real_smith(*args)

    def spying(c):
        identity_certificates.append(c)
        return real_identity(c)

    monkeypatch.setattr(cohomology, "smith_diagonalize", counting)
    monkeypatch.setattr(cohomology, "_identity_obstruction", spying)
    seen = dict.fromkeys(
        ("coboundary", "cocycle, no coboundary", "non-trivial class", "broken",
         "broken, identity certificate", "trivial H"),
        0,
    )
    fulls = {}
    for H, c, is_cocycle in _zoo_inputs(rng):
        full = fulls.setdefault(H, _full_system(H))
        seen["trivial H"] += len(H) == 1
        lifted = c.with_modulus(class_modulus(c))
        for table, yes_no, certified in (
            (c, lambda: is_coboundary(c) is not None, lambda: coboundary_or_obstruction(c)),
            (lifted, lambda: is_trivial_class(c), lambda: trivial_class_obstruction(c)),
        ):
            solvable = _full_solve(full, table)[0] is not None
            smith_rows.clear()
            identity_certificates.clear()
            assert yes_no() == solvable
            wit, obstruction = certified()
            assert len(smith_rows) == 2 and max(smith_rows) < len(H) ** 2
            assert (wit is None) == (obstruction is not None) == (not solvable)
            if solvable:
                assert wit.induced() == table
            else:
                _assert_certifies(obstruction, table)
            assert not identity_certificates or not is_cocycle
            if not is_cocycle:
                seen["broken"] += table is c
                seen["broken, identity certificate"] += bool(identity_certificates)
            elif table is c:
                seen["coboundary" if solvable else "cocycle, no coboundary"] += 1
            else:
                seen["non-trivial class"] += not solvable
    assert min(seen.values()) >= 10, seen


def test_invariance_diagonalizes_one_reduced_system_and_certifies_a_failure(
    p_z3z3_noninvariant, monkeypatch
):
    """An invariance decision diagonalizes one reduced system when some g.c
    differs from c as a table, and none when every one equals c.  A failing
    one makes no other diagonalization for its certificate, which passes both
    checks by hand on the lifted quotient: on (Z3 x Z3):Z2 it is the
    commutator pairing y(6,2) = 1, y(2,6) = -1 mod 9."""
    rows = []
    real_smith = cohomology.smith_diagonalize

    def counting(*args):
        rows.append(len(args[0]))
        return real_smith(*args)

    monkeypatch.setattr(cohomology, "smith_diagonalize", counting)
    rng = random.Random(77)
    passed = {0: 0, 1: 0}
    for H, c, is_cocycle in _zoo_inputs(rng):
        if not is_cocycle or H == H.parent.full_subgroup() or not H.is_normal():
            continue
        rows.clear()
        assert invariance_obstruction(c) is None
        moved = any(c.conjugate(g).exps != c.exps for g in H.right_cosets().reps)
        assert len(rows) == int(moved)
        passed[moved] += 1
    assert passed[0] > 50 and passed[1] > 30, passed
    c = p_z3z3_noninvariant.cocycle
    rows.clear()
    g, obstruction = invariance_obstruction(c)
    assert len(rows) == 1 and rows[0] < len(c.subgroup) ** 2
    diff = c.conjugate(g).quotient_exps(c)
    lifted = diff.with_modulus(class_modulus(diff))
    assert _full_solve(_full_system(c.subgroup), lifted)[0] is None
    _assert_certifies(obstruction, lifted)
    assert (g, obstruction.modulus, obstruction.chain) == (1, 9, ((2, 6, -1), (6, 2, 1)))
    assert (lifted.exp(6, 2) - lifted.exp(2, 6)) % 9 == obstruction.value == 6


def test_a_certificate_that_fails_its_checks_raises_typed_error(k4, monkeypatch):
    """decide checks every certificate before it returns one."""
    c = klein_nontrivial_cocycle(k4.full_subgroup())
    assert coboundary_or_obstruction(c)[1].certifies(c)
    monkeypatch.setattr(
        cohomology, "_obstruction", lambda c, m, chain: cohomology.CoboundaryObstruction(2, (), 1)
    )
    with pytest.raises(VerificationFailedError):
        coboundary_or_obstruction(c)


def _ref_conjugate(c: Cocycle2, g: int) -> list[list[int]]:
    """The table of g.c by hand: entry [i][j] is c(g h_i g^-1, g h_j g^-1)."""
    H, G = c.subgroup, c.subgroup.parent
    local = [H.local_index(G.conj(g, h)) for h in H.members]
    return [[c.exps[a][b] for b in local] for a in local]


def _ref_decide(H, N: int, exps):
    """[exps] = 1 in H^2(H, F*), always through CoboundarySystem(H).decide at
    the lifted modulus."""
    c = Cocycle2(H, N, exps)
    return cohomology.CoboundarySystem(H).decide(c.with_modulus(class_modulus(c)))


def _ref_invariance(c: Cocycle2):
    H = c.subgroup
    for g in H.right_cosets().reps[1:]:
        moved = _ref_conjugate(c, g)
        diff = [[x - y for x, y in zip(mr, cr)] for mr, cr in zip(moved, c.exps)]
        wit, obstruction = _ref_decide(H, c.modulus, diff)
        if wit is None:
            return g, obstruction
    return None


def _ref_cohomologous(c1: Cocycle2, c2: Cocycle2) -> bool:
    n = c1.modulus * c2.modulus // gcd(c1.modulus, c2.modulus)
    f1, f2 = n // c1.modulus, n // c2.modulus
    diff = [[f1 * x - f2 * y for x, y in zip(r1, r2)] for r1, r2 in zip(c1.exps, c2.exps)]
    return _ref_decide(c1.subgroup, n, diff)[0] is not None


def _ref_move(c: Cocycle2, g: int) -> Cocycle2:
    """M3(g) on the cocycle: a fresh Subgroup gHg^-1 and the table moved onto it."""
    H, G = c.subgroup, c.subgroup.parent
    K = Subgroup(G, [G.conj(g, h) for h in H.members])
    back = [H.local_index(G.conj(G.inv(g), k)) for k in K.members]
    return Cocycle2(K, c.modulus, [[c.exps[a][b] for b in back] for a in back])


def _ref_normal_forms(p: Presentation):
    G, cosets = p.group, p.subgroup.right_cosets()
    mults = dict.fromkeys(cosets.reps, 0)
    for x in p.grading:
        mults[cosets.rep_of(x)] += 1
    least = min(n for n in mults.values() if n)
    for r, n in mults.items():
        if n == least:
            g = G.inv(r)
            moved = _ref_move(p.cocycle, g)
            reps = [moved.subgroup.right_cosets().rep_of(G.mul(g, x)) for x in p.grading]
            yield moved, tuple(sorted(reps, key=lambda x: (reps.count(x), x)))


def _ref_equivalent(p: Presentation, q: Presentation) -> bool:
    if p.size != q.size:
        return False
    cq, gq = next(_ref_normal_forms(q))
    return any(
        c.subgroup == cq.subgroup and g == gq and _ref_cohomologous(c, cq)
        for c, g in _ref_normal_forms(p)
    )


def _shortcut_inputs(rng, z3z3):
    """_zoo_inputs (every zoo group has order at most 8), and on (Z3 x Z3):Z2
    the classes zeta_3^(k b1 a2) on its normal Z3 x Z3, twisted by
    coboundaries, and cocycles on a non-normal order-2 subgroup; and
    coboundaries on S3 < S4, where some conjugates meet S3 in more than
    the identity without being S3."""
    yield from _zoo_inputs(rng)
    S3 = _nonabelian_subgroups()[0]
    for N in (1, 2, 6):
        lam = (0,) + tuple(rng.randrange(N) for _ in range(5))
        yield S3, Coboundary(S3, N, lam).induced(), True
    H = z3z3.subgroup([x for x in z3z3.elements() if x % 2 == 0])
    for k in range(3):
        yield H, z3z3_cocycle(H, k), True
        lam = (0,) + tuple(rng.randrange(3) for _ in range(8))
        d = Coboundary(H, 3, lam).induced().exps
        twisted = [[x + y for x, y in zip(r, s)] for r, s in zip(z3z3_cocycle(H, k).exps, d)]
        yield H, Cocycle2(H, 3, twisted), True
    K = z3z3.generated_subgroup([1])
    for N in (1, 2, 6):
        yield K, Cocycle2(K, N, [[0, 0], [0, N - 1]]), True


def test_shortcut_decisions_match_a_reference_that_solves_every_quotient(z3z3_swap_group):
    """invariance_obstruction, classes_cohomologous and presentations_equivalent
    against references that decide every quotient through
    CoboundarySystem(H).decide, with fresh subgroups and hand-moved tables;
    and conjugation returns its input exactly when it fixes it: H for a g
    that normalizes H, c for a g that fixes each member of H."""
    rng = random.Random(2020)
    previous = {}
    seen = dict.fromkeys(("invariant", "not invariant", "cohomologous", "not cohomologous",
                          "equivalent", "not equivalent", "H moved", "c moved", "c fixed"), 0)
    for H, c, _ in _shortcut_inputs(rng, z3z3_swap_group):
        G = H.parent
        for g in G.elements():
            image = [G.conj(g, h) for h in H.members]
            normalizes = set(image) == H.member_set
            K = H.conjugate(g)
            assert (K is H) == normalizes
            seen["H moved"] += not normalizes
            if not normalizes:
                assert K == _ref_move(c, g).subgroup
                assert c.transport(g) == _ref_move(c, g)
                continue
            fixes = image == list(H.members)
            conjugated, transported = c.conjugate(g), c.transport(g)
            assert (conjugated is c) == (transported is c) == fixes
            assert conjugated.exps == tuple(map(tuple, _ref_conjugate(c, g)))
            assert transported == _ref_move(c, g)
            seen["c fixed" if fixes else "c moved"] += 1
        if H.is_normal():
            got, want = invariance_obstruction(c), _ref_invariance(c)
            assert (got is None) == (want is None)
            if got is not None:
                assert got == want
                diff = c.conjugate(got[0]).quotient_exps(c)
                _assert_certifies(got[1], diff.with_modulus(class_modulus(diff)))
            seen["invariant" if got is None else "not invariant"] += 1
        others = [c, previous.get(H, c)]
        lam = tuple(rng.randrange(c.modulus) for _ in range(len(H)))
        others.append(c.quotient_exps(Coboundary(H, c.modulus, lam).induced()))
        for other in others:
            verdict = classes_cohomologous(c, other)
            assert verdict == _ref_cohomologous(c, other)
            seen["cohomologous" if verdict else "not cohomologous"] += 1
        grading = tuple(rng.randrange(G.order) for _ in range(rng.randint(1, 3)))
        p = Presentation(G, H, c, grading)
        for other in others[1:]:
            g = rng.randrange(G.order)
            moved = _ref_move(other, g)
            K = moved.subgroup
            hs = [rng.choice(K.members) for _ in grading]
            entries = [G.mul(h, G.mul(g, x)) for h, x in zip(hs, grading)]
            rng.shuffle(entries)
            q = Presentation(G, K, moved, tuple(entries))
            verdict = presentations_equivalent(p, q)
            assert verdict == _ref_equivalent(p, q)
            seen["equivalent" if verdict else "not equivalent"] += 1
        previous[H] = c
    assert min(seen.values()) >= 10, seen


def test_built_cocycles_equal_the_validated_constructor():
    """Tables built by the module's own methods (with_modulus, quotient_exps,
    conjugate/transport, Coboundary.induced) are not reduced again: each
    result is a tuple table of ints in [0, N) equal to Cocycle2 on the same
    entries.  Modulus checks still raise."""
    rng = random.Random(909)
    G = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4))
    H = G.full_subgroup()
    n = len(H)
    c = Cocycle2(H, 4, [[rng.randrange(-9, 9) for _ in range(n)] for _ in range(n)])
    d = Cocycle2(H, 4, [[rng.randrange(4) for _ in range(n)] for _ in range(n)])
    lam = tuple(rng.randrange(-20, 20) for _ in range(n))
    built = [
        c.with_modulus(12),
        c.quotient_exps(d),
        c.conjugate(3),
        c.transport(5),
        Coboundary(H, 12, lam).induced(),
    ]
    for b in built:
        assert type(b.exps) is tuple and all(type(row) is tuple for row in b.exps)
        assert all(type(v) is int and 0 <= v < b.modulus for row in b.exps for v in row)
        assert Cocycle2(b.subgroup, b.modulus, b.exps) == b
    assert built[0].exps == tuple(tuple(3 * v for v in row) for row in c.exps)
    for bad in (0, -4):
        with pytest.raises(CocycleError, match="positive"):
            c.with_modulus(bad)
    with pytest.raises(CocycleError, match="positive"):
        Coboundary(H, -3, lam).induced()


def test_local_table_is_built_once_with_immutable_rows():
    """local_table() builds H's table on the first call and returns that same
    tuple-of-tuples object on every later one; it equals a table built entry
    by entry, and for H = G it is the parent's Cayley table.  A cocycle's
    rows are tuples too, and GradedAlgebra.mul_basis reads them through H's
    local indices."""
    from gradedpi.algebra import build_algebra

    rng = random.Random(1414)
    c2c4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4))
    for G in (FiniteGroup.dihedral(4), c2c4, FiniteGroup.cyclic(1)):
        for H in G.all_subgroups():
            n = len(H)
            table = H.local_table()
            assert H.local_table() is table
            assert type(table) is tuple and all(type(row) is tuple for row in table)
            assert table == tuple(
                tuple(H.local_index(G.mul(a, b)) for b in H.members) for a in H.members
            )
            assert (table is G.table) == (n == G.order)
            with pytest.raises(TypeError):
                table[0][0] = 1  # type: ignore[index]
            c = Coboundary(H, 6, tuple([0] + [rng.randrange(6) for _ in range(n - 1)])).induced()
            assert type(c.exps) is tuple and all(type(row) is tuple for row in c.exps)
            with pytest.raises(TypeError):
                c.exps[0][0] = 1  # type: ignore[index]
            algebra = build_algebra(Presentation(G, H, c, (0,)))
            for a in H.members:
                for b in H.members:
                    exp, _ = algebra.mul_basis((a, 0, 0), (b, 0, 0))
                    assert exp == c.exp(a, b)


def _nonabelian_subgroups():
    """S3 < S4 (the permutations fixing 0 come first in S4's sorted order),
    D4 itself and D4 < D4 x C2."""
    s4 = FiniteGroup.symmetric(4)
    d4 = FiniteGroup.dihedral(4)
    d4c2 = FiniteGroup.direct_product(d4, FiniteGroup.cyclic(2))
    return [s4.subgroup(range(6)), d4.full_subgroup(), d4c2.subgroup(range(0, 16, 2))]


def test_induced_coboundary_reads_the_shared_local_table():
    """Coboundary.induced against lam_i + lam_j - lam_ij, the product read
    through local_index and mul, on nonabelian subgroups."""
    rng = random.Random(1716)
    for H in _nonabelian_subgroups():
        g, mem, n = H.parent, H.members, len(H)
        assert not all(g.mul(a, b) == g.mul(b, a) for a in mem for b in mem)
        for N in (1, 4, 12):
            for _ in range(5):
                lam = tuple(rng.randrange(N) for _ in range(n))
                want = [
                    [(lam[i] + lam[j] - lam[H.local_index(g.mul(mem[i], mem[j]))]) % N
                     for j in range(n)]
                    for i in range(n)
                ]
                assert Coboundary(H, N, lam).induced() == Cocycle2(H, N, want)


def test_coboundary_system_on_the_shared_table_equals_one_on_a_hand_made_table(monkeypatch):
    from gradedpi.groups import Subgroup

    c2, c4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)
    subgroups = _nonabelian_subgroups() + [
        FiniteGroup.cyclic(64).subgroup(range(0, 64, 2)),
        FiniteGroup.direct_product(FiniteGroup.direct_product(c4, c4), c2).subgroup(range(0, 32, 2)),
    ]
    shared = [cohomology.CoboundarySystem(H) for H in subgroups]
    monkeypatch.setattr(
        Subgroup,
        "local_table",
        lambda H: [[H.local_index(H.parent.mul(a, b)) for b in H.members] for a in H.members],
    )
    for H, system in zip(subgroups, shared):
        hand = cohomology.CoboundarySystem(H)
        assert (system.tree, system.edges, system.coefs, system.rows) == (
            hand.tree, hand.edges, hand.coefs, hand.rows
        )
        assert system.smith == hand.smith
