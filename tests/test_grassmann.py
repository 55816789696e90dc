"""Grassmann relations, envelope structure, identity transfer, truncation."""

from itertools import combinations

import pytest

from gradedpi import polynomials
from gradedpi.algebra import Presentation, build_algebra
from gradedpi.cohomology import Cocycle2
from gradedpi.errors import (
    DegreeMismatchError,
    FactorizationError,
    OrderMismatchError,
    TruncationError,
)
from gradedpi.grassmann import (
    EnvelopeAlgebra,
    GrassmannElement,
    envelope_identity_check,
)
from gradedpi.groups import FiniteGroup
from gradedpi.polynomials import GradedPolynomial, monomial_polynomial, variables_for
from gradedpi.scalars import CycScalar, root_of_unity

from conftest import built_plans


def gens(n, count):
    return [GrassmannElement.generator(n, i + 1) for i in range(count)]


def test_defining_relations():
    e1, e2 = gens(4, 2)
    assert e1 * e2 == -(e2 * e1)
    assert not (e1 * e1)
    assert (e1 * e2).terms == {(1, 2): CycScalar.one(1)}


def test_even_elements_are_central_exhaustive_n6():
    n = 6
    subsets = [s for size in range(n + 1) for s in combinations(range(1, n + 1), size)]
    one = CycScalar.one(1)
    elements = {s: GrassmannElement(n, 1, {s: one}) for s in subsets}
    for s, es in elements.items():
        if len(s) % 2 == 0:
            for t, et in elements.items():
                assert es * et == et * es, (s, t)


def test_anticommutation_odd_pairs_n6():
    n = 6
    subsets = [s for size in range(1, n + 1, 2) for s in combinations(range(1, n + 1), size)]
    one = CycScalar.one(1)
    for s in subsets:
        for t in subsets:
            a = GrassmannElement(n, 1, {s: one})
            b = GrassmannElement(n, 1, {t: one})
            assert a * b == -(b * a), (s, t)


def test_truncation_mismatch():
    with pytest.raises(TruncationError):
        GrassmannElement.generator(3, 1) * GrassmannElement.generator(4, 1)
    with pytest.raises(TruncationError):
        GrassmannElement(2, 1, {(3,): CycScalar.one(1)})


def base_env_fixture(grading):
    """Z2 x Z2-graded matrix algebra: first factor is the sign."""
    z2 = FiniteGroup.cyclic(2)
    g2 = FiniteGroup.direct_product(z2, z2)
    H = g2.trivial_subgroup()
    return build_algebra(Presentation(g2, H, Cocycle2.trivial(H, 1), grading))


def test_envelope_requires_product_group(z2):
    H = z2.trivial_subgroup()
    A = build_algebra(Presentation(z2, H, Cocycle2.trivial(H, 1), (0,)))
    with pytest.raises(FactorizationError):
        EnvelopeAlgebra(A, 2)


def test_envelope_dimensions():
    A = base_env_fixture((0, 2))  # one even row, one odd row
    env = EnvelopeAlgebra(A, 4)
    # G-degree e: even part {e11, e22} x 8 even subsets, odd part {e12, e21} x 8
    assert env.dim_component(0) == 2 * 8 + 2 * 8
    env0 = EnvelopeAlgebra(A, 0)
    # truncation 0: even envelope only
    assert env0.dim_component(0) == 2


def test_envelope_of_purely_even_base():
    """Trivial sign part: the envelope inherits the base identities."""
    A = base_env_fixture((0, 0))  # all rows even; odd components empty
    one = CycScalar.one(1)
    vs = variables_for([0, 0])
    comm = GradedPolynomial(vs, [(one, (1, 2)), (-one, (2, 1))])
    # base A_(0,e) = all of M2 -> commutator not an identity; envelope mirrors it
    rep = envelope_identity_check(comm, A, 2)
    assert not rep.identity
    # restrict to the diagonal (commutative) case via a 1x1 base
    B = base_env_fixture((0,))
    rep2 = envelope_identity_check(comm, B, 2)
    assert rep2.identity


def test_envelope_odd_tensors_anticommute():
    """Over the sign group algebra, distinct odd envelope basis elements
    anticommute and the two-variable polynomials behave accordingly."""
    z2 = FiniteGroup.cyclic(2)
    g2 = FiniteGroup.direct_product(z2, z2)
    H = g2.subgroup([0, 2])  # {(0,0), (1,0)}: the sign subgroup
    A = build_algebra(Presentation(g2, H, Cocycle2.trivial(H, 1), (0,)))
    one = CycScalar.one(1)
    vs = variables_for([0, 0])
    anti = GradedPolynomial(vs, [(one, (1, 2)), (one, (2, 1))])
    comm = GradedPolynomial(vs, [(one, (1, 2)), (-one, (2, 1))])
    # both parities occur in the G-trivial component, so neither polynomial
    # is an envelope identity outright
    assert not envelope_identity_check(anti, A, 2).identity
    assert not envelope_identity_check(comm, A, 2).identity
    env = EnvelopeAlgebra(A, 2)
    odds = [k for k in env.homogeneous_basis(0) if len(k[0]) % 2 == 1]
    assert odds
    for a in odds:
        for b in odds:
            if a == b:
                continue
            hit = env.mul_basis(a, b)
            hit_rev = env.mul_basis(b, a)
            if hit is None or hit_rev is None:
                assert hit is None and hit_rev is None
                continue
            sign, _, key = hit
            sign_rev, _, key_rev = hit_rev
            assert sign == -sign_rev and key == key_rev


def test_truncation_too_small():
    A = base_env_fixture((0, 2))
    f = monomial_polynomial(variables_for([0, 0, 0]), CycScalar.one(1))
    with pytest.raises(TruncationError):
        envelope_identity_check(f, A, 2)


def brute_envelope_identity(f, base, truncation):
    """Independent oracle: full Cartesian evaluation over the envelope basis
    using mul_basis products (no chaining, no subset pruning)."""
    from itertools import product as iproduct

    from gradedpi.grassmann import EnvelopeAlgebra

    env = EnvelopeAlgebra(base, truncation)
    vids = f.var_ids()
    pools = [env.homogeneous_basis(f.degree_of[v]) for v in vids]
    for choice in iproduct(*pools):
        assign = dict(zip(vids, choice))
        total: dict = {}
        for m in f.monomials:
            acc = None
            ok = True
            sign = 1
            exp = 0
            for vid in m.order:
                key = assign[vid]
                if acc is None:
                    acc = key
                    continue
                hit = env.mul_basis(acc, key)
                if hit is None:
                    ok = False
                    break
                s, e, acc = hit
                sign *= s
                exp += e
            if not ok:
                continue
            contrib = m.coeff.shift_root(exp)
            if sign < 0:
                contrib = -contrib
            total[acc] = total[acc] + contrib if acc in total else contrib
        if any(total.values()):
            return False
    return True


def test_envelope_check_matches_brute_force():
    """Dual route for the envelope oracle on random small polynomials."""
    import random

    rng = random.Random(4096)
    A = base_env_fixture((0, 2))
    from itertools import permutations

    for _ in range(25):
        d = rng.randint(1, 2)
        degrees = [rng.choice([0, 1]) for _ in range(d)]
        vs = variables_for(degrees)
        ids = [v.vid for v in vs]
        orders = list(permutations(ids))
        monos = [
            (CycScalar.from_rational(1, rng.choice([-2, -1, 1, 2])), o)
            for o in rng.sample(orders, k=rng.randint(1, len(orders)))
        ]
        f = GradedPolynomial(vs, monos)
        if f.is_zero():
            continue
        n = rng.randint(d, 3)
        assert (
            envelope_identity_check(f, A, n).identity
            == brute_envelope_identity(f, A, n)
        )


def test_truncation_stability_degree_up_to_three():
    """Verdicts agree at n = d and n = d + 2 for a spread of polynomials."""
    import random

    rng = random.Random(55)
    A = base_env_fixture((0, 2))
    one = CycScalar.one(1)
    from itertools import permutations

    for d in (1, 2, 3):
        for _ in range(8):
            degrees = [rng.choice([0, 1]) for _ in range(d)]
            vs = variables_for(degrees)
            ids = [v.vid for v in vs]
            orders = list(permutations(ids))
            rng.shuffle(orders)
            chosen = orders[: rng.randint(1, min(3, len(orders)))]
            monos = [
                (CycScalar.from_rational(1, rng.choice([-2, -1, 1, 2])), o)
                for o in chosen
            ]
            f = GradedPolynomial(vs, monos)
            if f.is_zero():
                continue
            assert (
                envelope_identity_check(f, A, d).identity
                == envelope_identity_check(f, A, d + 2).identity
            )


def first_nonzero_envelope_key(f, base, truncation):
    """Independent oracle for the counterexample: every envelope key tuple of
    the truncated envelope in sorted order, multiplied out by mul_basis; the
    first tuple with a nonzero value."""
    from itertools import product as iproduct

    env = EnvelopeAlgebra(base, truncation)
    vids = f.var_ids()
    pools = [env.homogeneous_basis(f.degree_of[v]) for v in vids]
    for choice in sorted(iproduct(*pools)):
        assign = dict(zip(vids, choice))
        total: dict = {}
        for m in f.monomials:
            acc, sign, exp = assign[m.order[0]], 1, 0
            for vid in m.order[1:]:
                hit = env.mul_basis(acc, assign[vid])
                if hit is None:
                    break
                s, e, acc = hit
                sign, exp = sign * s, exp + e
            else:
                contrib = m.coeff.shift_root(exp)
                contrib = contrib if sign > 0 else -contrib
                total[acc] = total[acc] + contrib if acc in total else contrib
        if any(total.values()):
            return assign
    return None


def test_envelope_counterexample_is_the_lex_first_key():
    """The reported counterexample is the least nonzero envelope key tuple,
    at truncation d and d + 1, over Z2 x C2 and Z2 x C3 bases."""
    import random
    from itertools import permutations

    z2, c3 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)
    g6 = FiniteGroup.direct_product(z2, c3)
    H6 = g6.trivial_subgroup()
    bases = [
        (base_env_fixture((0, 2)), 2),  # even diagonal, odd off-diagonal
        (build_algebra(Presentation(g6, H6, Cocycle2.trivial(H6, 1), (0, 4))), 3),
    ]
    rng = random.Random(2718)
    mixed = compared = 0
    for trial in range(24):
        A, ng = bases[trial % 2]
        d = rng.randint(1, 3)
        vs = variables_for([rng.randrange(ng) for _ in range(d)])
        orders = list(permutations(v.vid for v in vs))
        monos = [
            (CycScalar.from_rational(1, rng.choice([-2, -1, 1, 2])), o)
            for o in rng.sample(orders, k=rng.randint(1, len(orders)))
        ]
        f = GradedPolynomial(vs, monos)
        if f.is_zero():
            continue
        for n in (d, d + 1):
            expected = first_nonzero_envelope_key(f, A, n)
            assert envelope_identity_check(f, A, n).counterexample == expected
            if expected is not None:
                compared += 1
                parities = {len(subset) % 2 for subset, _ in expected.values()}
                mixed += parities == {0, 1}
    assert compared >= 20 and mixed >= 3


def coboundary_exps(H, modulus, lam):
    """Exponent table of d(lam): (a, b) -> lam(a) + lam(b) - lam(ab)."""
    mul = H.parent.mul
    return [
        [(lam[a] + lam[b] - lam[mul(a, b)]) % modulus for b in H.members] for a in H.members
    ]


def twisted_envelope_bases():
    """Bases with phi(N) > 1 and nonzero cocycle exponents, each with its
    second-factor order: Z2 x C2 at N = 4 (the bilinear class 2 p_a y_b plus a
    coboundary) and Z2 x C3 at N = 3 (a coboundary), each over its whole
    group; and the sign-group algebras of both at a coboundary, whose
    envelopes are Grassmann algebras."""
    z2, c3 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)
    g4 = FiniteGroup.direct_product(z2, z2)
    g6 = FiniteGroup.direct_product(z2, c3)
    H4, H6 = g4.full_subgroup(), g6.full_subgroup()
    bilinear = coboundary_exps(H4, 4, {0: 0, 1: 3, 2: 1, 3: 2})
    for i, a in enumerate(H4.members):
        for j, b in enumerate(H4.members):
            bilinear[i][j] = (bilinear[i][j] + 2 * (a // 2) * (b % 2)) % 4
    S4, S6 = g4.subgroup([0, 2]), g6.subgroup([0, 3])
    cocycles = [
        (g4, Cocycle2(H4, 4, bilinear)),
        (g6, Cocycle2(H6, 3, coboundary_exps(H6, 3, dict(enumerate((0, 1, 2, 2, 0, 1)))))),
        (g4, Cocycle2(S4, 4, coboundary_exps(S4, 4, {0: 0, 2: 1}))),
        (g6, Cocycle2(S6, 3, coboundary_exps(S6, 3, {0: 0, 3: 2}))),
    ]
    return [
        (build_algebra(Presentation(G, c.subgroup, c, (0,))), G.product_factors[1].order)
        for G, c in cocycles
    ]


def random_cyclotomic(rng, order):
    from fractions import Fraction

    from gradedpi.scalars import euler_phi

    return CycScalar(
        order, [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(euler_phi(order))]
    )


def test_envelope_check_matches_brute_force_at_moduli_3_and_4():
    """Verdict and lex-first counterexample against the brute-force envelope
    oracles, with coefficients in Q(zeta_N) on bases with phi(N) > 1."""
    import random
    from itertools import permutations

    rng = random.Random(3141)
    bases = twisted_envelope_bases()
    identities = nonidentities = 0
    for trial in range(32):
        A, ng = bases[trial % 2]
        N = A.modulus
        d = rng.randint(1, 3)
        vs = variables_for([rng.randrange(ng) for _ in range(d)])
        orders = list(permutations(v.vid for v in vs))
        monos = [
            (random_cyclotomic(rng, N), o)
            for o in rng.sample(orders, k=rng.randint(1, len(orders)))
        ]
        f = GradedPolynomial(vs, monos)
        if f.is_zero():
            continue
        n = d + trial % 2
        report = envelope_identity_check(f, A, n)
        assert report.identity == brute_envelope_identity(f, A, n)
        assert report.counterexample == first_nonzero_envelope_key(f, A, n)
        nonidentities += not report.identity
    # The triple commutator is an identity of the Grassmann algebra, so of
    # the sign-group algebras' envelopes.
    for A, _ in bases[2:]:
        vs = variables_for([0, 0, 0])
        a = random_cyclotomic(rng, A.modulus)
        terms = (((1, 2, 3), 1), ((2, 1, 3), -1), ((3, 1, 2), -1), ((3, 2, 1), 1))
        f = GradedPolynomial(vs, [(a if s > 0 else -a, o) for o, s in terms])
        for n in (3, 4):
            assert envelope_identity_check(f, A, n).identity
            assert brute_envelope_identity(f, A, n)
            identities += 1
    assert identities == 4 and nonidentities >= 20
    # Coefficients from a pool {a, -a, b}: monomials repeat a coefficient or
    # carry opposite ones, so several share one index pair.
    shared = 0
    for trial in range(24):
        A, ng = bases[trial % 2]
        vs = variables_for([rng.randrange(ng) for _ in range(rng.randint(2, 3))])
        orders = list(permutations(v.vid for v in vs))
        a, b = (random_cyclotomic(rng, A.modulus) for _ in range(2))
        pool = (a, -a, b)
        f = GradedPolynomial(
            vs, [(rng.choice(pool), o) for o in rng.sample(orders, k=rng.randint(2, len(orders)))]
        )
        n = f.degree + trial % 2
        report = envelope_identity_check(f, A, n)
        assert report.identity == brute_envelope_identity(f, A, n)
        assert report.counterexample == first_nonzero_envelope_key(f, A, n)
        coeffs = [m.coeff for m in f.monomials]
        pairs = {frozenset((c, -c)) for c in coeffs}
        shared += not report.identity and len(pairs) < len(coeffs)
    assert shared >= 12


def test_envelope_check_makes_no_cocycle_or_scalar_calls(monkeypatch):
    """The envelope check reads the algebra's dense tables and integer
    vectors: no Cocycle2.exp lookups and no CycScalar shifts or sums."""
    calls = {"exp": 0, "shift_root": 0, "__add__": 0}
    for owner, name in ((Cocycle2, "exp"), (CycScalar, "shift_root"), (CycScalar, "__add__")):
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    A, _ = twisted_envelope_bases()[0]
    one = CycScalar.one(4)
    vs = variables_for([0, 1, 1])
    f = GradedPolynomial(vs, [(one, (1, 2, 3)), (root_of_unity(4, 1), (3, 1, 2))])
    calls.update(dict.fromkeys(calls, 0))
    report = envelope_identity_check(f, A, 3)
    assert not report.identity
    assert calls == {"exp": 0, "shift_root": 0, "__add__": 0}


def test_envelope_check_rejects_a_coefficient_order_mismatch():
    A = base_env_fixture((0, 2))  # modulus 1
    f = monomial_polynomial(variables_for([0, 0]), root_of_unity(3, 1))
    with pytest.raises(OrderMismatchError):
        envelope_identity_check(f, A, 2)


def test_envelope_check_rejects_a_degree_outside_the_second_factor():
    A = base_env_fixture((0, 2))  # Z2 x C2: second-factor degrees are 0 and 1
    for degree in (2, 3, -1):
        f = monomial_polynomial(variables_for([degree]), CycScalar.one(1))
        with pytest.raises(DegreeMismatchError):
            envelope_identity_check(f, A, 1)


# -- the parity-split trie ------------------------------------------------------------


def _envelope_plans(monkeypatch, f, base, truncation):
    """The WalkPlan of every walk that one envelope check makes, read after
    the check; an envelope walk has no alternation classes."""
    plans = built_plans(monkeypatch, lambda: envelope_identity_check(f, base, truncation))
    assert all(plan.classes == plan.member_weights == [] for plan in plans)
    return plans


def _expanded_trie(f, terms, edges):
    """The trie of the 2^d expanded label paths: every term (ci, order) once
    per parity pattern, with labels (vid, parity) and coefficient index ci,
    or ci ^ 1 when its odd variables stand in an odd permutation."""
    vids = f.var_ids()
    expanded = []
    for ci, order in terms:
        paths = [((), 0, 0)]  # (label path, odd-slot mask, flips)
        for vid in order:
            s = vids.index(vid)
            paths = [
                (path + ((vid, p),), odd | p << s, flips + p * (odd >> s).bit_count())
                for path, odd, flips in paths
                for p in (0, 1)
            ]
        expanded += [(ci ^ flips % 2, path) for path, _, flips in paths]
    labels = {(vid, p): ((alts[p][0], 0),) for vid, alts in edges.items() for p in (0, 1)}
    return polynomials._prefix_trie(expanded, labels)


def _entries(trie, depth=0):
    """Preorder (depth, edges object, leaf index or None) of every entry."""
    out = []
    for rows, child in trie:
        leaf = type(child) is int
        out.append((depth, id(rows), child if leaf else None))
        if not leaf:
            out += _entries(child, depth + 1)
    return out


def _prefix_sharing_polynomials(rng, base, ng):
    """A degree-1..6 polynomial with 1..8 monomials whose orders share
    prefixes of a random base order, per call, with coefficients in
    Q(zeta_N) for the base's modulus N."""
    d = rng.randint(1, 6)
    vs = variables_for([rng.randrange(ng) for _ in range(d)])
    first = [v.vid for v in vs]
    rng.shuffle(first)
    orders = []
    for _ in range(rng.randint(1, 8)):
        keep = rng.randrange(d + 1)
        rest = first[keep:]
        rng.shuffle(rest)
        orders.append(tuple(first[:keep] + rest))
    return GradedPolynomial(vs, [(random_cyclotomic(rng, base.modulus), o) for o in orders])


def test_split_trie_equals_the_trie_of_the_expanded_parity_paths(monkeypatch):
    """Entry by entry and in order, leaf coefficient indices included, the
    trie the envelope check walks is the one that inserting every monomial
    once per parity pattern builds; at moduli 1, 3 and 4, and for the zero
    polynomial."""
    import random

    rng = random.Random(18)
    twisted = twisted_envelope_bases()
    bases = [(base_env_fixture((0, 2)), 2), twisted[1], twisted[0]]
    shared, degrees = 0, set()
    for trial in range(60):
        base, ng = bases[trial % 3]
        f = _prefix_sharing_polynomials(rng, base, ng)
        if f.is_zero():
            continue
        (plan,) = _envelope_plans(monkeypatch, f, base, f.degree)
        assert _entries(plan.trie) == _entries(_expanded_trie(f, plan.terms, plan.edges))
        evens = {vid: alts[:1] for vid, alts in plan.edges.items()}
        entries = len(_entries(polynomials._prefix_trie(plan.terms, evens)))
        shared += entries < sum(len(order) for _, order in plan.terms)
        degrees.add(f.degree)
    assert shared >= 20 and degrees == set(range(1, 7))
    zero = GradedPolynomial(variables_for([0, 1]), [])
    (plan,) = _envelope_plans(monkeypatch, zero, bases[0][0], 2)
    assert plan.terms == [] and (plan.coeffs, plan.trie) == ([], [])


def test_an_envelope_check_builds_one_trie_over_its_monomials(monkeypatch):
    """One plan per check, whose trie is built over one term per monomial:
    the builder makes the parity alternatives' entries; no parity pattern is
    inserted as a path.  The walk's coefficients are one (c, -c) pair per
    distinct coefficient up to sign (1, i, -1, -i make two pairs); a -c that
    is no coefficient of f is built when a leaf first reaches it."""
    A, ng = twisted_envelope_bases()[0]
    built_partners = 0
    for orders in (
        [(1, 2, 3)],
        [(1, 2, 3), (3, 1, 2), (1, 3, 2)],
        [(1, 2, 3), (3, 1, 2), (1, 3, 2), (2, 1, 3)],
    ):
        f = GradedPolynomial(
            variables_for([0, 1, 1]), [(root_of_unity(4, k), o) for k, o in enumerate(orders)]
        )
        f_coeffs = [m.coeff for m in f.monomials]
        (plan,) = _envelope_plans(monkeypatch, f, A, 4)
        assert len(plan.terms) == len(f.monomials) == len(orders)
        coeffs = plan.coeffs
        pairs = {frozenset((c, -c)) for c in coeffs[::2]}
        assert len(coeffs) == 2 * len(pairs)
        assert pairs == {frozenset((m.coeff, -m.coeff)) for m in f.monomials}
        partners = coeffs[1::2]
        assert all(c is None or c == -coeffs[2 * k] for k, c in enumerate(partners))
        built_partners += sum(c is not None and c not in f_coeffs for c in partners)
    assert built_partners > 0


def test_envelope_check_leaves_no_garbage_for_the_cyclic_collector():
    """With the collector off, an envelope check leaves nothing unreachable:
    the trie builder, which makes the parity entries, and the walk hold no
    cycles."""
    import gc

    bases = twisted_envelope_bases()
    A, signal = bases[0][0], bases[2][0]
    one = CycScalar.one(4)
    nonidentity = GradedPolynomial(
        variables_for([0, 1, 1]), [(one, (1, 2, 3)), (root_of_unity(4, 1), (3, 1, 2))]
    )
    terms = (((1, 2, 3), 1), ((2, 1, 3), -1), ((3, 1, 2), -1), ((3, 2, 1), 1))
    commutator = GradedPolynomial(
        variables_for([0, 0, 0]), [(one if s > 0 else -one, o) for o, s in terms]
    )
    gc.collect()
    gc.disable()
    try:
        assert not envelope_identity_check(nonidentity, A, 3).identity
        assert gc.collect() == 0
        assert envelope_identity_check(commutator, signal, 4).identity
        assert gc.collect() == 0
    finally:
        gc.enable()
