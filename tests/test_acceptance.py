"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every expected value here is either trivially forced, derived from an
independent oracle computed in this module (brute-force enumeration, full
Cartesian evaluation, exhaustive coboundary search), or cross-checked between
two routes of the package (inline walkers vs the object-level oracle).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations, permutations, product

from gradedpi.algebra import (
    M1,
    M2,
    M3,
    Presentation,
    apply_move,
    block_structure,
    build_algebra,
    normalize_presentation,
    presentations_equivalent,
)
from gradedpi.binomials import (
    GoodScalarContext,
    enumerate_binomials,
    good_binomial,
    good_permutations_of,
    is_crossed_product,
    path_vanishes,
    pure_components,
    satisfies_path_property,
)
from gradedpi.classify import classify, verify_witness, witness_nonstrong
from gradedpi.cohomology import Coboundary, Cocycle2, is_G_invariant_class, is_coboundary
from gradedpi.grassmann import GrassmannElement, envelope_identity_check
from gradedpi.groups import FiniteGroup
from gradedpi.polynomials import (
    GradedPolynomial,
    check_identity,
    disjoint_product,
    is_identity,
    variables_for,
)
from gradedpi.scalars import CycScalar, root_of_unity

from conftest import (
    brute_coboundary,
    klein_nontrivial_cocycle,
    random_multilinear,
    semidirect_swap_z3z3,
    z3z3_cocycle,
)


def report(name: str, started: float, detail: str = "") -> None:
    print(f"{name} PASS {detail} ({time.time() - started:.2f}s)")


# ---------------------------------------------------------------------------


def test_ac01_z2_counterexample():
    """AC-1: the order-2 grading vectors (e,e,s) vs (e,s)."""
    t0 = time.time()
    z2 = FiniteGroup.cyclic(2)
    H = z2.trivial_subgroup()
    c = Cocycle2.trivial(H, 1)
    r1 = classify(Presentation(z2, H, c, (0, 0, 1)))
    assert r1.verbally_prime is True
    assert r1.strongly_verbally_prime is False
    r2 = classify(Presentation(z2, H, c, (0, 1)))
    assert r2.strongly_verbally_prime is True
    assert time.time() - t0 < 1.0
    report("AC-1", t0, "classify (e,e,s) and (e,s)")


def test_ac02_witness_verification():
    """AC-2: the (e,s,s) witness pair with span and product certificates."""
    t0 = time.time()
    z2 = FiniteGroup.cyclic(2)
    H = z2.trivial_subgroup()
    p = normalize_presentation(
        Presentation(z2, H, Cocycle2.trivial(H, 1), (0, 0, 1))
    )
    assert p.grading == (0, 1, 1)
    w = witness_nonstrong(p)
    assert w is not None and w.kind == "unequal_blocks"
    A = build_algebra(w.presentation)
    cert = verify_witness(w, A)
    # explicit nonzero certificate evaluation
    assert cert.value_f and cert.value_g
    # span confined to the strict upper off-diagonal block: rows in the size-1
    # block {position 0}, columns in the size-2 block {positions 1, 2}
    for vec in cert.span_f_basis:
        for (h, i, j) in vec:
            assert h == 0 and i == 0 and j in (1, 2)
    assert cert.span_square_zero is True
    # product identity via the oracle's path-pruned span route
    assert cert.product_identity is True
    prod = disjoint_product(w.f, w.g)
    assert check_identity(prod, A).identity
    assert time.time() - t0 < 60.0
    report("AC-2", t0, "witness pair verified with span certificates")


def test_ac03_binomial_identities():
    """AC-3: all binomials of degree <= 4 on the twisted Klein algebra, and
    their negated-scalar variants."""
    t0 = time.time()
    k4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    H = k4.full_subgroup()
    c = klein_nontrivial_cocycle(H)
    A = build_algebra(Presentation(k4, H, c, (0,)))
    count = 0
    for b in enumerate_binomials(c, 4):
        alpha = root_of_unity(2, b.alpha_exp)
        assert is_identity(good_binomial(list(b.hs), b.sigma, alpha), A), b
        assert not is_identity(good_binomial(list(b.hs), b.sigma, -alpha), A), b
        count += 1
    assert count == sum(len(H) ** n * _fact(n) for n in range(1, 5))  # abelian H
    assert time.time() - t0 < 10.0
    report("AC-3", t0, f"{count} binomials, both scalars")


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_ac04_coboundary_solver_vs_brute_force():
    """AC-4: congruence solver against exhaustive search over all N^|H| maps."""
    t0 = time.time()
    rng = random.Random(404)
    cases: list[Cocycle2] = []

    def add_coboundaries(H, N, count):
        for _ in range(count):
            lam = (0,) + tuple(rng.randrange(N) for _ in range(len(H) - 1))
            cases.append(Coboundary(H, N, lam).induced())

    def add_bilinear_cyclic(group, N, ks):
        H = group.full_subgroup()
        m = group.order
        for k in ks:
            if (k * m) % N:
                continue
            exps = [[(k * a * b) % N for b in range(m)] for a in range(m)]
            cases.append(Cocycle2(H, N, exps))

    for n in (2, 3, 4):
        g = FiniteGroup.cyclic(n)
        H = g.full_subgroup()
        for N in (2, 3, 4):
            cases.append(Cocycle2.trivial(H, N))
            add_coboundaries(H, N, 2)
            add_bilinear_cyclic(g, N, (1, 2, 3))
    k4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    Hk = k4.full_subgroup()
    cases.append(klein_nontrivial_cocycle(Hk))
    cases.append(klein_nontrivial_cocycle(Hk).with_modulus(4))
    add_coboundaries(Hk, 2, 3)
    add_coboundaries(Hk, 4, 2)
    # spot set: |H| = 8 at N = 2 (bilinear forms on Z2^3 plus coboundaries)
    z2 = FiniteGroup.cyclic(2)
    c8 = FiniteGroup.direct_product(FiniteGroup.direct_product(z2, z2), z2)
    H8 = c8.full_subgroup()
    bits = {h: ((h >> 2) & 1, (h >> 1) & 1, h & 1) for h in H8.members}
    for _ in range(4):
        kmat = [[rng.randrange(2) for _ in range(3)] for _ in range(3)]
        exps = [
            [
                sum(kmat[u][v] * bits[a][u] * bits[b][v] for u in range(3) for v in range(3)) % 2
                for b in H8.members
            ]
            for a in H8.members
        ]
        cases.append(Cocycle2(H8, 2, exps))
    add_coboundaries(H8, 2, 2)

    checked = 0
    for c in cases:
        assert not c.violations(), "fixture cocycles must be valid"
        solver = is_coboundary(c)
        brute = brute_coboundary(c)
        assert (solver is None) == (brute is None), (c.subgroup.members, c.modulus)
        if solver is not None:
            assert solver.induced() == c
        checked += 1
    report("AC-4", t0, f"{checked} cocycles, 100% agreement")


def test_ac05_invariance_coherence():
    """AC-5: the lifted coboundary decision agrees with the alpha-scalar
    invariance test over binomials of length <= 4 on every normal-H fixture."""
    t0 = time.time()
    d4 = FiniteGroup.dihedral(4)
    swap = semidirect_swap_z3z3()
    fixtures = []
    k4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    fixtures.append(klein_nontrivial_cocycle(k4.full_subgroup()))
    fixtures.append(Cocycle2.trivial(k4.full_subgroup(), 2))
    fixtures.append(Cocycle2.trivial(d4.subgroup(range(4)), 4))
    fixtures.append(klein_nontrivial_cocycle(d4.subgroup([0, 2, 4, 6])))
    H9 = swap.subgroup([x for x in swap.elements() if x % 2 == 0])
    fixtures.append(z3z3_cocycle(H9, 1))
    fixtures.append(z3z3_cocycle(H9, 0))
    for c in fixtures:
        H = c.subgroup
        G = H.parent
        decision = is_G_invariant_class(c)
        alpha_ok = True
        reps = [g for g in H.right_cosets().reps if g != 0]
        conj = {g: {h: G.conj(g, h) for h in H.members} for g in reps}
        for b in enumerate_binomials(c, 4):
            for g in reps:
                image = tuple(conj[g][h] for h in b.hs)
                if c.binomial_alpha_exp(image, b.sigma) != b.alpha_exp:
                    alpha_ok = False
                    break
            if not alpha_ok:
                break
        assert decision == alpha_ok, (H.members, c.modulus)
    report("AC-5", t0, f"{len(fixtures)} fixtures, decisions match alpha test")


def test_ac06_crossed_product_both_directions():
    """AC-6: certificates multiply to one on balanced fixtures; unbalanced
    fixtures overshoot dim(A)/|G| in the trivial component."""
    t0 = time.time()
    z2 = FiniteGroup.cyclic(2)
    d3 = FiniteGroup.dihedral(3)
    d4 = FiniteGroup.dihedral(4)
    Ht = z2.trivial_subgroup()
    balanced = [
        Presentation(z2, Ht, Cocycle2.trivial(Ht, 1), (0, 1)),
        Presentation(z2, Ht, Cocycle2.trivial(Ht, 1), (0, 0, 1, 1)),
        Presentation(z2, Ht, Cocycle2.trivial(Ht, 1), (0, 0, 0, 1, 1, 1)),
        Presentation(d4, d4.subgroup([0, 2, 4, 6]), klein_nontrivial_cocycle(d4.subgroup([0, 2, 4, 6])), (0, 1)),
        Presentation(d3, d3.generated_subgroup([3]), Cocycle2.trivial(d3.generated_subgroup([3]), 1), (0, 1, 2)),
        Presentation(z2, z2.full_subgroup(), Cocycle2.trivial(z2.full_subgroup(), 2), (0, 0, 0)),
    ]
    for p in balanced:
        A = build_algebra(p)
        res = is_crossed_product(A)  # multiplies every certificate
        assert res.is_crossed_product
        target = A.dim // p.group.order
        for g in p.group.elements():
            assert len(A.homogeneous_basis(g)) == target
            u, v = res.certificates[g]
            assert u * v == A.one() and v * u == A.one()
    unbalanced = [
        Presentation(z2, Ht, Cocycle2.trivial(Ht, 1), (0, 0, 1)),
        Presentation(z2, Ht, Cocycle2.trivial(Ht, 1), (0, 0, 0, 1)),
        Presentation(d4, d4.subgroup([0, 2, 4, 6]), klein_nontrivial_cocycle(d4.subgroup([0, 2, 4, 6])), (0, 1, 1)),
    ]
    for p in unbalanced:
        A = build_algebra(p)
        assert not is_crossed_product(A).is_crossed_product
        mults = [m for m in p.coset_multiplicities().values()]
        assert len(A.homogeneous_basis(0)) == sum(m * m for m in mults)
        assert len(A.homogeneous_basis(0)) > A.dim // p.group.order
    report("AC-6", t0, f"{len(balanced)} balanced + {len(unbalanced)} unbalanced")


# ---------------------------------------------------------------------------


def _good_scalar_sweep(p: Presentation, max_len: int, oracle_stride: int):
    """Verify Z - s Z_sigma membership for every good permutation of length
    <= max_len over the full support.

    Route 1 (all pairs): exact integer path walking - for r = 1 fixtures the
    oracle's basis assignments are exactly the k forced walks, so the binomial
    is an identity iff every walk satisfies exp_Z - exp_sigma = exp_s, and a
    wrong scalar fails on every walk (values are roots of unity, never zero).
    Route 2 (strided subsample + all short lengths): the object-level oracle
    on the constructed polynomials, including every wrong scalar.
    """
    ctx = GoodScalarContext(p)
    bs = block_structure(p)
    G = p.group
    cosets = p.subgroup.right_cosets()
    c = p.cocycle
    N = c.modulus
    k = bs.k
    assert bs.r == 1, "sweep fixtures use multiplicity one"
    A = build_algebra(p)
    step = {}
    for b in range(k):
        for t in G.elements():
            rep_next = cosets.rep_of(G.mul(bs.reps[b], t))
            b2 = bs.reps.index(rep_next)
            h = G.mul(G.mul(bs.reps[b], t), G.inv(bs.reps[b2]))
            step[(b, t)] = (h, b2)
    exp = c.exp
    mul = G.mul
    pairs = 0
    oracle_checks = 0
    wrong_scalars = [root_of_unity(N, e) for e in range(N)]
    for n in range(1, max_len + 1):
        for degrees in product(sorted(A.presentation.support()), repeat=n):
            walks = []
            for b0 in range(k):
                hs = []
                b = b0
                for t in degrees:
                    h, b = step[(b, t)]
                    hs.append(h)
                e = 0
                pref = 0
                for h in hs:
                    e += exp(pref, h)
                    pref = mul(pref, h)
                walks.append((hs, e % N))
            for sigma in good_permutations_of(degrees, p.subgroup):
                s_exp = ctx.scalar_exp(degrees, sigma)
                for hs, e_z in walks:
                    e = 0
                    pref = 0
                    for s in sigma:
                        h = hs[s]
                        e += exp(pref, h)
                        pref = mul(pref, h)
                    assert (e_z - e - s_exp) % N == 0, (degrees, sigma)
                pairs += 1
                if n <= 2 or pairs % oracle_stride == 0:
                    s = root_of_unity(N, s_exp)
                    f = good_binomial(degrees, sigma, s)
                    assert check_identity(f, A).identity, (degrees, sigma)
                    for s2 in wrong_scalars:
                        if s2 == s:
                            continue
                        assert not check_identity(
                            good_binomial(degrees, sigma, s2), A
                        ).identity, (degrees, sigma, s2)
                    oracle_checks += 1
    return pairs, oracle_checks


def test_ac07_good_permutation_scalars():
    """AC-7: exhaustive scalar sweep on the balanced D4 fixtures."""
    t0 = time.time()
    d4 = FiniteGroup.dihedral(4)
    rot = d4.subgroup(range(4))
    p_rot = Presentation(d4, rot, Cocycle2.trivial(rot, 4), (0, 4))
    klein = d4.subgroup([0, 2, 4, 6])
    p_klein = Presentation(d4, klein, klein_nontrivial_cocycle(klein), (0, 1))
    total_pairs = 0
    total_oracle = 0
    for p, stride in ((p_rot, 977), (p_klein, 977)):
        pairs, oracle_checks = _good_scalar_sweep(p, 5, stride)
        total_pairs += pairs
        total_oracle += oracle_checks
    assert total_pairs > 1_000_000
    assert total_oracle > 1_000
    assert time.time() - t0 < 120.0
    report(
        "AC-7",
        t0,
        f"{total_pairs} good permutations, {total_oracle} object-oracle cross-checks",
    )


def _random_pure(rng, p: Presentation, algebra, degree: int):
    sup = sorted(algebra.presentation.support())
    for _ in range(60):
        degrees = tuple(rng.choice(sup) for _ in range(degree))
        sigmas = []
        for sigma in good_permutations_of(degrees, p.subgroup):
            sigmas.append(sigma)
            if len(sigmas) >= 24:
                break
        if len(sigmas) < 2:
            continue
        vs = variables_for(degrees)
        ids = [v.vid for v in vs]
        chosen = rng.sample(sigmas, k=min(len(sigmas), rng.randint(2, 4)))
        monos = []
        for sigma in chosen:
            coeff = CycScalar.from_rational(
                algebra.modulus, Fraction(rng.choice([-2, -1, 1, 2, 3]))
            )
            monos.append((coeff, tuple(ids[s] for s in sigma)))
        f = GradedPolynomial(vs, monos)
        if not f.is_zero():
            return f
    raise AssertionError("could not sample a pure polynomial")


def test_ac08_path_property_coherence():
    """AC-8: strongly-prime fixtures vanish on all paths or none; the
    unbalanced M3 fixture exhibits single-path vanishing."""
    t0 = time.time()
    rng = random.Random(808)
    z2 = FiniteGroup.cyclic(2)
    Ht = z2.trivial_subgroup()
    d4 = FiniteGroup.dihedral(4)
    klein = d4.subgroup([0, 2, 4, 6])
    strong_fixtures = [
        Presentation(z2, Ht, Cocycle2.trivial(Ht, 1), (0, 1)),
        Presentation(d4, klein, klein_nontrivial_cocycle(klein), (0, 1)),
    ]
    for p in strong_fixtures:
        assert classify(p).strongly_verbally_prime
        A = build_algebra(p)
        for _ in range(100):
            f = _random_pure(rng, p, A, rng.randint(2, 6))
            rep = satisfies_path_property(f, A)
            assert rep.holds, (p.grading, f)
    # the unbalanced fixture: e-degree commutator vanishes on exactly the
    # 1x1 block path
    p3 = normalize_presentation(
        Presentation(z2, Ht, Cocycle2.trivial(Ht, 1), (0, 0, 1))
    )
    A3 = build_algebra(p3)
    one = CycScalar.one(1)
    comm = GradedPolynomial(
        variables_for([0, 0]), [(one, (1, 2)), (-one, (2, 1))]
    )
    assert path_vanishes(comm, A3, 0)
    assert not path_vanishes(comm, A3, 1)
    rep = satisfies_path_property(comm, A3)
    assert rep.vanishing == (True, False) and not rep.holds
    report("AC-8", t0, "200 pure polynomials all-or-none + single-path exhibit")


def test_ac09_pure_decomposition():
    """AC-9: identity iff all pure components are identities, 200 samples."""
    t0 = time.time()
    rng = random.Random(909)
    z2 = FiniteGroup.cyclic(2)
    Ht = z2.trivial_subgroup()
    d4 = FiniteGroup.dihedral(4)
    klein = d4.subgroup([0, 2, 4, 6])
    fixtures = [
        Presentation(z2, Ht, Cocycle2.trivial(Ht, 1), (0, 1)),
        Presentation(d4, klein, klein_nontrivial_cocycle(klein), (0, 1)),
    ]
    total = 0
    agree = 0
    for p in fixtures:
        A = build_algebra(p)
        H = p.subgroup
        for _ in range(100):
            f = random_multilinear(rng, A, rng.randint(2, 4), max_monomials=6)
            comps = pure_components(f, H)
            lhs = is_identity(f, A)
            rhs = all(is_identity(c, A) for c in comps)
            assert lhs == rhs
            agree += 1
            total += 1
    assert total == 200 and agree == 200
    report("AC-9", t0, "200/200 agreement")


def test_ac10_grassmann_relations_and_truncation():
    """AC-10: generator relations and centrality at n = 6; envelope verdicts
    stable between truncations d and d + 2 for degrees <= 4."""
    t0 = time.time()
    n = 6
    one = CycScalar.one(1)
    # e_i e_j = -e_j e_i and squares vanish, exhaustively on generators
    gens = [GrassmannElement.generator(n, i) for i in range(1, n + 1)]
    for i, a in enumerate(gens):
        assert not (a * a)
        for b in gens[i + 1 :]:
            assert a * b == -(b * a)
    # E0 centrality over the full monomial basis
    subsets = [s for size in range(n + 1) for s in combinations(range(1, n + 1), size)]
    basis = {s: GrassmannElement(n, 1, {s: one}) for s in subsets}
    for s, es in basis.items():
        if len(s) % 2 == 0:
            for t, et in basis.items():
                assert es * et == et * es
    # envelope truncation stability
    z2 = FiniteGroup.cyclic(2)
    g2 = FiniteGroup.direct_product(z2, z2)
    Ht = g2.trivial_subgroup()
    base = build_algebra(Presentation(g2, Ht, Cocycle2.trivial(Ht, 1), (0, 2)))
    rng = random.Random(1010)
    checked = 0
    for d in (1, 2, 3, 4):
        polys = []
        ids = list(range(1, d + 1))
        for _ in range(3):
            degrees = [rng.choice([0, 1]) for _ in range(d)]
            vs = variables_for(degrees)
            orders = list(permutations(ids))
            rng.shuffle(orders)
            monos = [
                (CycScalar.from_rational(1, rng.choice([-2, -1, 1, 2])), o)
                for o in orders[: rng.randint(1, min(3, len(orders)))]
            ]
            f = GradedPolynomial(vs, monos)
            if not f.is_zero():
                polys.append(f)
        if d == 2:
            comm = GradedPolynomial(
                variables_for([0, 0]), [(one, (1, 2)), (-one, (2, 1))]
            )
            polys.append(comm)
        for f in polys:
            va = envelope_identity_check(f, base, d).identity
            vb = envelope_identity_check(f, base, d + 2).identity
            assert va == vb, f
            checked += 1
    assert checked >= 12
    report("AC-10", t0, f"relations at n=6 + {checked} truncation-stable verdicts")


def _random_presentation(rng) -> Presentation:
    zoo = [
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
    G = rng.choice(zoo)
    subgroups = G.all_subgroups()
    H = rng.choice(subgroups)
    N = rng.choice([1, 2, 3, 4])
    lam = (0,) + tuple(rng.randrange(N) for _ in range(len(H) - 1))
    c = Coboundary(H, N, lam).induced()
    if len(H) == 4 and N == 2 and rng.random() < 0.5:
        members = H.members
        e, a, b, ab = members
        if G.mul(a, b) == ab and all(G.mul(x, x) == 0 for x in members):
            base = klein_nontrivial_cocycle(H)
            c = Cocycle2(
                H, 2, [[(base.exps[i][j] + c.exps[i][j]) % 2 for j in range(4)] for i in range(4)]
            )
    m = rng.randint(1, 3)
    grading = tuple(rng.randrange(G.order) for _ in range(m))
    return Presentation(G, H, c, grading)


def _random_move(rng, p: Presentation):
    kind = rng.randrange(3)
    if kind == 0:
        sigma = list(range(p.size))
        rng.shuffle(sigma)
        return M1(tuple(sigma))
    if kind == 1:
        return M2(tuple(rng.choice(p.subgroup.members) for _ in range(p.size)))
    return M3(rng.randrange(p.group.order))


def test_ac11_move_soundness():
    """AC-11: moved presentations stay equivalent and keep identity verdicts
    on 20 sampled polynomials for each of the 20 move sequences per input."""
    t0 = time.time()
    rng = random.Random(1111)
    presentations = [_random_presentation(rng) for _ in range(50)]
    pairs = 0
    verdicts = 0
    for p in presentations:
        A = build_algebra(p)
        for _ in range(20):
            q = p
            for _ in range(rng.randint(1, 4)):
                q = apply_move(q, _random_move(rng, q))
            assert presentations_equivalent(p, q)
            B = build_algebra(q)
            for _ in range(20):
                f = random_multilinear(rng, A, rng.randint(1, 3), max_monomials=4)
                assert is_identity(f, A) == is_identity(f, B)
                verdicts += 1
            pairs += 1
    assert pairs == 1000 and verdicts == 20000
    report("AC-11", t0, f"{pairs} equivalences + {verdicts} verdict agreements")
