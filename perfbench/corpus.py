"""Seeded corpora of session documents, each with its expected verdict.

A corpus item is {"id", "command", "doc", "expect"}.  The expectation holds
the exit code and machine-block fields that the report must carry, plus named
checks that re-derive a claim from the report (see verdicts.py).  Expected
verdicts are known by construction: good binomials with the right scalar are
identities and with a doubled scalar are not, alternating witness factors are
non-identities, strongly-verbally-prime flags follow from normality, coset
multiplicities and classes that are trivial or invariant, and moved
presentations are equivalent.  Envelope verdicts come from the sign-twist
reduction in reference.py.  A seed changes the contents of a workload but not
its size: counts of documents, degrees, monomials and truncations are fixed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import count, permutations

import reference as R

WORKLOADS = ("oracle", "cohomology", "envelope", "small-docs")

CYCLIC2 = {"construct": "cyclic", "n": 2}


def cyclic(n: int) -> dict:
    return {"construct": "cyclic", "n": n}


def product_spec(a: dict, b: dict) -> dict:
    return {"construct": "product", "factors": [a, b]}


def item(ident: str, command: str, doc: dict, exit_code: int, machine=None, checks=()) -> dict:
    return {
        "id": ident,
        "command": command,
        "doc": doc,
        "expect": {"exit": exit_code, "machine": machine or {}, "checks": list(checks)},
    }


def presentation_doc(spec, H, modulus, exps, grading) -> dict:
    return {
        "group": spec,
        "subgroup": list(H),
        "cocycle": {"modulus": modulus, "exponents": [list(r) for r in exps]},
        "grading": list(grading),
    }


# -- coefficients and polynomials ---------------------------------------------------


def rand_coeff(rng, n: int) -> list[Fraction]:
    """A nonzero coefficient as a power-basis vector of length n."""
    if n <= 2:
        vec = [Fraction(0)] * n
        vec[0] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        return vec
    # Two nonzero power-basis coordinates below phi(n): nonzero in Q(zeta_n).
    vec = [Fraction(0)] * n
    for k in rng.sample(range(len(R.cyclotomic(n)) - 1), 2):
        vec[k] = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
    return vec


def coeff_doc(vec: list[Fraction]):
    if not any(vec[1:]):
        return str(vec[0])
    return [[k, str(q)] for k, q in enumerate(vec) if q]


def scale(vec, factor) -> list[Fraction]:
    return [c * factor for c in vec]


def poly_doc(degrees: dict[int, int], monomials) -> dict:
    return {
        "variables": [f"x{v}:{degrees[v]}" for v in sorted(degrees)],
        "monomials": [{"coeff": coeff_doc(c), "order": list(o)} for c, o in monomials],
    }


def binomial_sum(rng, alg: R.Algebra, degrees: dict[int, int], k: int, wrong: bool):
    """Z + sum_j a_j (... - zeta^s_j Z_sigma_j) over k good permutations:
    k + 1 monomials.  With wrong=True one scalar is doubled, which leaves a
    nonzero multiple of one monomial modulo identities; a nonzero assignment
    is found and recorded as a certificate.  Returns None when the degree word
    has too few good permutations."""
    G, H, N = alg.G, alg.H, alg.N
    base = tuple(sorted(degrees))
    sig = R.good_signature(G, H, degrees, base)
    cands = [
        tuple(base[i] for i in p)
        for p in permutations(range(len(base)))
        if p != tuple(range(len(base)))
    ]
    rng.shuffle(cands)
    chosen = []
    for order in cands:
        if len(chosen) == k:
            break
        if R.good_signature(G, H, degrees, order) != sig:
            continue
        s = R.binomial_scalar_exp(alg, degrees, base, order)
        if s is not None:
            chosen.append((order, s))
    if len(chosen) < k:
        return None
    lead = [Fraction(0)] * N
    monos = []
    for j, (order, s) in enumerate(chosen):
        a = rand_coeff(rng, N)
        lead = [x + y for x, y in zip(lead, a)]
        scalar = R.root_scaled(a, s)
        if wrong and j == 0:
            scalar = scale(scalar, 2)
        monos.append((scale(scalar, -1), order))
    if R.is_zero_scalar(lead, N):
        return None
    monos.insert(0, (lead, base))
    if wrong:
        order0 = chosen[0][0]
        if not any(alg.value(monos, a) for a in alg.chaining_assignments(degrees, order0)):
            return None
    return monos


def identity_item(rng, ident, spec, alg: R.Algebra, degree_word, k, wrong) -> dict | None:
    degrees = {i + 1: d for i, d in enumerate(degree_word)}
    monos = binomial_sum(rng, alg, degrees, k, wrong)
    if monos is None:
        return None
    doc = presentation_doc(spec, alg.H, alg.N, alg.exps, alg.grading)
    doc["polynomials"] = {"f": poly_doc(degrees, monos)}
    doc["params"] = {"polynomial": "f"}
    if wrong:
        return item(ident, "identity-check", doc, 1, {"identity": False}, ["counterexample"])
    return item(ident, "identity-check", doc, 0, {"identity": True})


def supported_word(rng, alg: R.Algebra, length: int) -> list[int]:
    sup = sorted(alg.by_degree)
    return [rng.choice(sup) for _ in range(length)]


# -- witness polynomials -------------------------------------------------------------


def euler_chain(m: int) -> list[tuple[int, int]]:
    """All m*m matrix-unit edges on m vertices as one circuit from vertex 0."""
    succ = {v: list(range(m)) for v in range(m)}
    stack, circuit = [0], []
    while stack:
        v = stack[-1]
        if succ[v]:
            stack.append(succ[v].pop(0))
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    return list(zip(circuit, circuit[1:]))


def alternating_factor(G: R.Group, grading) -> tuple[dict, list, dict]:
    """The frame/chain monomial of a grouped grading, alternated over its chain
    variables: (degrees, signed monomials, nonzero certificate assignment).
    All variables sit in the trivial subgroup element; bridges join blocks."""
    blocks: list[list[int]] = []
    for i, g in enumerate(grading):
        if blocks and grading[blocks[-1][0]] == g:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    degrees, order, assign, xs = {}, [], {}, []

    def fresh(deg, triple):
        vid = len(order) + 1
        degrees[vid] = deg
        order.append(vid)
        assign[vid] = triple
        return vid

    for b, pos in enumerate(blocks):
        chain = euler_chain(len(pos))
        fresh(0, (0, pos[chain[0][0]], pos[chain[0][0]]))
        for r, s in chain:
            xs.append(fresh(0, (0, pos[r], pos[s])))
            fresh(0, (0, pos[s], pos[s]))
        if b + 1 < len(blocks):
            nxt = blocks[b + 1][0]
            fresh(G.mul(G.inv[grading[pos[0]]], grading[nxt]), (0, pos[0], nxt))
    slots = [order.index(x) for x in xs]
    monos = []
    for perm in permutations(range(len(xs))):
        o = list(order)
        for slot, p in zip(slots, perm):
            o[slot] = xs[p]
        inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
        monos.append(([Fraction(-1 if inversions % 2 else 1)], tuple(o)))
    return degrees, monos, assign


# -- workloads -----------------------------------------------------------------------


def klein_like(G: R.Group, H, modulus: int, scale_exp: int) -> list[list[int]]:
    """Asymmetric bilinear form on the two low index bits of an abelian product
    group's members: a cocycle with a nontrivial class."""
    return [[(scale_exp * ((a >> 1) & 1) * (b & 1)) % modulus for b in H] for a in H]


def spread_light(heavy: list[dict], light: list[dict]) -> list[dict]:
    """Put a share of the light documents before, between and after the heavy
    ones, so light-document latencies are sampled across the whole pass
    rather than in one short stretch of it."""
    k = len(heavy) + 1
    out = list(light[0::k])
    for j, h in enumerate(heavy, start=1):
        out.append(h)
        out.extend(light[j::k])
    return out


def oracle_corpus(rng, tiny: bool) -> list[dict]:
    items = []
    c2 = R.Group(R.group_table(CYCLIC2))
    if tiny:
        items.append(item(
            "witness-C3-missing", "witness",
            presentation_doc(cyclic(3), (0,), 1, [[0]], [0, 1]), 0,
            {"witness": {"kind": "missing_coset"}}, ["witness_value"]))
        alt_group, alt_spec, alt_grading = c2, CYCLIC2, (0, 1, 1)
    else:
        items.append(item(
            "witness-C2-ees", "witness",
            presentation_doc(CYCLIC2, (0,), 1, [[0]], [0, 0, 1]), 0,
            {"witness": {"kind": "unequal_blocks"}}, ["witness_value"]))
        alt_group, alt_spec, alt_grading = R.Group(R.group_table(cyclic(3))), cyclic(3), (0, 1, 2, 2)
    degrees, monos, cert = alternating_factor(alt_group, alt_grading)
    alg = R.Algebra(alt_group, (0,), 1, [[0]], alt_grading)
    if not alg.value(monos, cert):
        raise AssertionError("alternating factor vanished on its certificate")
    doc = presentation_doc(alt_spec, (0,), 1, [[0]], alt_grading)
    doc["polynomials"] = {"f": poly_doc(degrees, monos)}
    doc["params"] = {"polynomial": "f"}
    items.append(item(f"alternating-{len(monos)}", "identity-check", doc, 1,
                      {"identity": False}, ["counterexample"]))

    k4_spec = product_spec(CYCLIC2, CYCLIC2)
    k4 = R.Group(R.group_table(k4_spec))
    H = (0, 1, 2, 3)
    k4_alg = R.Algebra(k4, H, 2, klein_like(k4, H, 2, 1), (rng.randrange(4),))

    # One tuple entry per coset, so every block is 1 x 1 and good binomials
    # with the right scalar are identities.
    c4 = R.Group(R.group_table(cyclic(4)))
    grading = [0, 1, 2, 3]
    rng.shuffle(grading)
    c4_alg = R.Algebra(c4, (0,), 4, [[0]], grading)

    c12_spec = product_spec(CYCLIC2, cyclic(6))
    c12 = R.Group(R.group_table(c12_spec))
    H12 = tuple(range(12))
    lam12 = [0] + [rng.randrange(12) for _ in range(11)]
    cob = R.coboundary(c12, H12, 12, lam12)
    exps12 = [[(cob[i][j] + 6 * (a // 6) * (b % 6)) % 12 for j, b in enumerate(H12)] for i, a in enumerate(H12)]
    c12_alg = R.Algebra(c12, H12, 12, exps12, (rng.randrange(12),))

    for spec, alg in ((k4_spec, k4_alg), (cyclic(4), c4_alg), (c12_spec, c12_alg)):
        if not R.cocycle_valid(alg.G, alg.H, alg.N, alg.exps):
            raise AssertionError("oracle corpus built an invalid cocycle")
    per_algebra = 2 if tiny else 80
    batch = []
    for name, spec, alg in (("K4", k4_spec, k4_alg), ("C4m4", cyclic(4), c4_alg), ("Q12", c12_spec, c12_alg)):
        made = 0
        while made < per_algebra:
            deg = 5 + made % 2
            wrong = made % 4 >= 2
            got = identity_item(rng, f"batch-{name}-{made}", spec, alg,
                                supported_word(rng, alg, deg), 4, wrong)
            if got is not None:
                batch.append(got)
                made += 1
    return spread_light(items, batch)


def semidirect_z3z3() -> dict:
    """(Z3 x Z3) : Z2 with the coordinate swap; (a, b, q) -> (3a + b) * 2 + q."""

    def mul(x, y):
        a1, b1, q1 = x // 6, (x // 2) % 3, x % 2
        a2, b2, q2 = y // 6, (y // 2) % 3, y % 2
        if q1:
            a2, b2 = b2, a2
        return ((a1 + a2) % 3 * 3 + (b1 + b2) % 3) * 2 + (q1 + q2) % 2

    return {"table": [[mul(x, y) for y in range(18)] for x in range(18)]}


STRONG_FLAGS = {
    "connected": True, "H_normal": True, "cosets_equal": True, "class_G_invariant": True,
    "crossed_product": True, "verbally_prime": True, "strongly_verbally_prime": True,
    "division_form_exists": True,
}


def cohomology_corpus(rng, tiny: bool) -> list[dict]:
    items = []
    n = 8 if tiny else 64
    cn = R.Group(R.group_table(cyclic(n)))
    H = tuple(range(0, n, 2))
    lam = [0] + [rng.randrange(2) for _ in range(len(H) - 1)]
    grading = [2 * rng.randrange(n // 2), 2 * rng.randrange(n // 2) + 1]
    items.append(item(
        f"classify-C{n}", "classify",
        presentation_doc(cyclic(n), H, 2, R.coboundary(cn, H, 2, lam), grading), 0,
        dict(STRONG_FLAGS, graded_division=False)))

    inner = cyclic(2) if tiny else cyclic(4)
    q = inner["n"]
    spec = product_spec(product_spec(inner, inner), CYCLIC2)
    G = R.Group(R.group_table(spec))
    H = tuple(range(0, G.order, 2))
    grading = [0, 2 * rng.randrange(q * q) + 1]

    def bilinear(k):
        # (a, b, 0) has index (a q + b) 2; zeta_q^(k a_x b_y) is a cocycle whose
        # class is nontrivial for k != 0 (its alternating form is nonzero).
        return [[(k * (x // (2 * q)) * ((y // 2) % q)) % q for y in H] for x in H]

    k = rng.randrange(1, q)
    first = presentation_doc(spec, H, q, bilinear(k), grading)
    first["second"] = {"subgroup": list(H), "cocycle": {"modulus": q, "exponents": bilinear(0)},
                       "grading": list(grading)}
    items.append(item("equivalent-bilinear-vs-trivial", "equivalent", first, 1, {"equivalent": False}))
    for j in range(4):
        exps = bilinear(rng.randrange(q))
        g0 = [0, 2 * rng.randrange(q * q) + 1]
        H2, exps2, grading2 = H, exps, g0
        for _ in range(rng.randint(1, 3)):
            H2, exps2, grading2 = R.move_presentation(G, H2, exps2, grading2, rng)
        doc = presentation_doc(spec, H, q, exps, g0)
        doc["second"] = {"subgroup": list(H2), "cocycle": {"modulus": q, "exponents": exps2},
                         "grading": list(grading2)}
        items.append(item(f"equivalent-moved-{j}", "equivalent", doc, 0, {"equivalent": True}))

    heavy, light = items[:2], items[2:]
    items = []
    z3 = semidirect_z3z3()
    Hz = tuple(range(0, 18, 2))
    kz = rng.choice([1, 2])
    exps = [[(kz * ((a // 2) % 3) * (b // 6)) % 3 for b in Hz] for a in Hz]
    doc = presentation_doc(z3, Hz, 3, exps, [0, 2 * rng.randrange(9) + 1])
    flags = dict(STRONG_FLAGS, class_G_invariant=False, strongly_verbally_prime=False,
                 division_form_exists=False, graded_division=False)
    items.append(item("classify-Z3wrZ2", "classify", doc, 1, flags, ["invariance_failure"]))
    items.append(item("witness-Z3wrZ2", "witness", doc, 0,
                      {"witness": None, "certificate": {"kind": "invariance_obstruction"}}))
    return spread_light(heavy, light + items)


ENVELOPE_SLOTS = ((4, 6), (4, 5), (4, 4), (3, 5), (3, 4))
ENVELOPE_MONOMIALS = 3  # random documents; triple commutators have 4


def envelope_bases():
    """Two Z2 x C2 bases: the superalgebra M(1,1) (tuple ((0,0), (1,0)), even
    diagonal and odd off-diagonal) and the group algebra of the sign factor,
    whose envelope is the Grassmann algebra itself."""
    spec = product_spec(CYCLIC2, CYCLIC2)
    G = R.Group(R.group_table(spec))
    return spec, R.Algebra(G, (0,), 1, [[0]], (0, 2)), R.Algebra(G, (0, 2), 1, [[0, 0], [0, 0]], (0,))


def triple_commutator(rng, degree: int):
    """a [[x, y], z] w on shuffled variable ids (w only at degree 4): an
    identity of the Grassmann algebra, so of the sign-group-algebra envelope."""
    ids = list(range(1, degree + 1))
    rng.shuffle(ids)
    x, y, z = ids[:3]
    tail = tuple(ids[3:])
    a = rand_coeff(rng, 1)
    terms = (((x, y, z), 1), ((y, x, z), -1), ((z, x, y), -1), ((z, y, x), 1))
    return [(scale(a, sign), order + tail) for order, sign in terms]


def envelope_item(rng, ident, spec, alg: R.Algebra, degree, truncation, identity_form: bool,
                  order_rng=None) -> dict:
    """order_rng, when given, picks the monomial orders of a random document
    in place of rng: the orders fix how many assignments the check
    accumulates and so its cost."""
    degrees = {v: 0 for v in range(1, degree + 1)}
    if identity_form:
        monos = triple_commutator(rng, degree)
    else:
        orders = list(permutations(range(1, degree + 1)))
        (order_rng or rng).shuffle(orders)
        monos = [(rand_coeff(rng, 1), o) for o in orders[:ENVELOPE_MONOMIALS]]
    identity = R.envelope_is_identity(alg, monos, degrees, 2)
    if identity_form and not identity:
        raise AssertionError("triple commutator is not an envelope identity")
    doc = presentation_doc(spec, alg.H, alg.N, alg.exps, alg.grading)
    doc["polynomials"] = {"f": poly_doc(degrees, monos)}
    doc["params"] = {"polynomial": "f", "truncation": truncation}
    if identity:
        return item(ident, "envelope-check", doc, 0, {"identity": True, "truncation": truncation})
    return item(ident, "envelope-check", doc, 1, {"identity": False, "truncation": truncation},
                ["envelope_counterexample"])


def envelope_corpus(rng, tiny: bool) -> list[dict]:
    spec, superalg, signalg = envelope_bases()
    slots = ((3, 4), (4, 4)) if tiny else ENVELOPE_SLOTS
    per_slot = 2 if tiny else 5
    # Round-robin over the slots, so cheap documents sit between the
    # truncation-6 ones throughout the pass.  The seed draws coefficients and
    # variable labels; the orders of the random documents are the same for
    # every seed, so a document's cost does not depend on the seed.
    return [
        envelope_item(rng, f"envelope-d{d}-t{t}-{i}", spec, signalg if i % 2 else superalg, d, t, i % 2 == 1,
                      random.Random(f"envelope-orders:{d}:{t}:{i}"))
        for i in range(per_slot)
        for d, t in slots
    ]


# -- small documents ---------------------------------------------------------------------

ZOO = (
    cyclic(2), cyclic(3), cyclic(4), cyclic(6), cyclic(8),
    {"construct": "dihedral", "n": 3}, {"construct": "dihedral", "n": 4},
    product_spec(CYCLIC2, CYCLIC2), product_spec(CYCLIC2, cyclic(4)),
)

SMALL_COMMANDS = ("validate", "classify", "normalize", "equivalent", "identity-check", "witness", "envelope-check")


@lru_cache(maxsize=None)
def zoo_shapes() -> tuple:
    """Every (spec, group, subgroup, grading length) of the zoo, in a fixed order."""
    out = []
    for spec in ZOO:
        G = R.Group(R.group_table(spec))
        out.extend((spec, G, H, m) for H in G.subgroups() for m in (1, 2, 3))
    return tuple(out)


SHAPE_STRIDE = 7  # coprime to len(zoo_shapes()), 132
SHAPE_TRIES = 4


def random_presentation(rng, slot: int, want=None):
    """A connected zoo presentation (spec, G, H, N, exps, grading); want filters
    on (G, H, grading).  The group, subgroup and grading length (the shape,
    which sets the cost) follow from `slot`, so every seed draws the same mix
    of shapes; the seed draws the cocycle, modulus and grading.  A shape that
    gives no accepted draw in SHAPE_TRIES tries is passed over for the next."""
    shapes = zoo_shapes()
    for attempt in count():
        spec, G, H, m = shapes[(slot + attempt // SHAPE_TRIES) * SHAPE_STRIDE % len(shapes)]
        N = rng.choice([1, 2, 3, 4])
        lam = [0] + [rng.randrange(N) for _ in range(len(H) - 1)]
        exps = R.coboundary(G, H, N, lam)
        abelian = all(G.mul(a, b) == G.mul(b, a) for a in range(G.order) for b in range(G.order))
        if abelian and len(H) == 4 and all(G.mul(h, h) == 0 for h in H) and rng.random() < 0.5:
            # A Klein subgroup at N = 2; on the whole of C2 x C2 the
            # coboundary is shifted into the nontrivial class.
            N = 2
            exps = R.coboundary(G, H, 2, [0] + [rng.randrange(2) for _ in H[1:]])
            if H == (0, 1, 2, 3):
                exps = [[(x + y) % 2 for x, y in zip(r1, r2)] for r1, r2 in zip(klein_like(G, H, 2, 1), exps)]
        grading = [rng.randrange(G.order) for _ in range(m)]
        if not R.connected(G, H, grading):
            continue
        if want is None or want(G, H, grading):
            return spec, G, H, N, exps, grading


def strong(G, H, grading) -> bool:
    """Normal H and equal multiplicities; every zoo class is G-invariant
    (coboundaries, or a Klein class in an abelian group)."""
    return G.is_normal(H) and len(set(R.multiplicities(G, H, grading).values())) == 1


def strong_blocks_1x1(G, H, grading) -> bool:
    """Strongly verbally prime with one tuple entry per coset: the setting in
    which good binomials with the right scalar are identities."""
    return G.is_normal(H) and set(R.multiplicities(G, H, grading).values()) == {1}


def small_item(rng, idx: int, command: str) -> dict:
    """The kind of a document (valid or corrupted, equivalent or not, identity
    or not, witness kind) cycles with its index, so every seed has the same
    mix; so do the zoo shapes (see random_presentation) and the word lengths
    of identity checks."""
    ident = f"{command}-{idx}"
    j = idx // len(SMALL_COMMANDS)
    if command == "validate":
        spec, G, H, N, exps, grading = random_presentation(rng, j)
        if j % 3 == 0 and len(H) > 1 and N > 1:
            exps = [list(r) for r in exps]
            r, c = rng.randrange(1, len(H)), rng.randrange(1, len(H))
            exps[r][c] = (exps[r][c] + rng.randrange(1, N)) % N
        doc = presentation_doc(spec, H, N, exps, grading)
        if not R.cocycle_valid(G, H, N, exps):
            return item(ident, command, doc, 2, {"valid": False})
        sup = sorted(R.support(G, H, grading))
        return item(ident, command, doc, 0, {"valid": True, "connected": True, "support": sup,
                                             "dimension": len(H) * len(grading) ** 2})
    if command == "classify":
        spec, G, H, N, exps, grading = random_presentation(rng, j)
        normal = G.is_normal(H)
        equal = len(set(R.multiplicities(G, H, grading).values())) == 1
        s = normal and equal
        flags = {"connected": True, "H_normal": normal, "cosets_equal": equal,
                 "class_G_invariant": True if normal else None, "crossed_product": equal,
                 "graded_division": len(grading) == 1, "verbally_prime": True,
                 "strongly_verbally_prime": s, "division_form_exists": s}
        return item(ident, command, presentation_doc(spec, H, N, exps, grading), 0 if s else 1, flags)
    if command == "normalize":
        spec, G, H, N, exps, grading = random_presentation(rng, j)
        return item(ident, command, presentation_doc(spec, H, N, exps, grading), 0, {}, ["normalized"])
    if command == "equivalent":
        spec, G, H, N, exps, grading = random_presentation(rng, j)
        doc = presentation_doc(spec, H, N, exps, grading)
        if j % 5 < 3:
            H2, exps2, grading2 = H, exps, grading
            for _ in range(rng.randint(1, 4)):
                H2, exps2, grading2 = R.move_presentation(G, H2, exps2, grading2, rng)
            doc["second"] = presentation_doc(spec, H2, N, exps2, grading2)
            del doc["second"]["group"]
            return item(ident, command, doc, 0, {"equivalent": True})
        # A subgroup of another order is never conjugate to H.
        others = [K for K in G.subgroups() if len(K) != len(H)]
        K = rng.choice(others)
        doc["second"] = {"subgroup": list(K), "cocycle": {"modulus": N, "exponents": [[0] * len(K)] * len(K)},
                         "grading": [rng.randrange(G.order) for _ in grading]}
        return item(ident, command, doc, 1, {"equivalent": False})
    if command == "identity-check":
        for slot in count(j):
            spec, G, H, N, exps, grading = random_presentation(rng, slot, strong_blocks_1x1)
            alg = R.Algebra(G, H, N, exps, grading)
            word = supported_word(rng, alg, 2 + j % 3)
            got = identity_item(rng, ident, spec, alg, word, 1, j % 2 == 1)
            if got is not None:
                return got
    if command == "witness":
        # Half are non-normal witnesses, the costliest small documents, so the
        # p95 falls inside their group rather than at its edge.
        kind = ("strong", "missing", "non_normal", "non_normal")[j % 4]
        if kind == "strong":
            spec, G, H, N, exps, grading = random_presentation(rng, j, strong)
            return item(ident, command, presentation_doc(spec, H, N, exps, grading), 1,
                        {"witness": None, "strongly_verbally_prime": True})
        if kind == "missing":
            spec, G, H, N, exps, grading = random_presentation(
                rng, j, lambda G, H, g: 0 in R.multiplicities(G, H, g).values())
            return item(ident, command, presentation_doc(spec, H, N, exps, grading), 0,
                        {"witness": {"kind": "missing_coset"}}, ["witness_value"])
        spec, G, H, N, exps, grading = random_presentation(
            rng, j, lambda G, H, g: not G.is_normal(H) and set(R.multiplicities(G, H, g).values()) == {1})
        return item(ident, command, presentation_doc(spec, H, N, exps, grading), 0,
                    {"witness": {"kind": "non_normal"}}, ["witness_value"])
    spec, superalg, signalg = envelope_bases()
    identity_form = j % 2 == 1
    return envelope_item(rng, ident, spec, signalg if identity_form else superalg, 3, 3, identity_form)


def small_docs_corpus(rng, tiny: bool) -> list[dict]:
    count = 14 if tiny else 240
    return [small_item(rng, i, SMALL_COMMANDS[i % len(SMALL_COMMANDS)]) for i in range(count)]


BUILDERS = {
    "oracle": oracle_corpus,
    "cohomology": cohomology_corpus,
    "envelope": envelope_corpus,
    "small-docs": small_docs_corpus,
}


def build(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, tiny)


def fidelity_docs(seed: int) -> list[dict]:
    """One small document per command, for the subprocess CLI comparison."""
    rng = random.Random(f"fidelity:{seed}")
    return [small_item(rng, 0, command) for command in SMALL_COMMANDS]
