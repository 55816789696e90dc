"""Primeness decisions for presented graded simple algebras.

classify() computes the flag set (normality, equal coset multiplicities,
invariant class, crossed product, graded division) and derives the
strongly-verbally-prime verdict from the three structural conditions.  When
the verdict fails through the subgroup or the multiplicities, an explicit
pair of polynomials on disjoint variables is constructed whose product is an
identity while neither factor is; verify_witness() checks such a pair from
scratch and returns an evaluation certificate.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .algebra import (
    GradedAlgebra,
    M1,
    Presentation,
    Triple,
    apply_move,
    block_structure,
    build_algebra,
    normalize_presentation,
)
from .cohomology import CoboundaryObstruction, invariance_obstruction
from .errors import (
    AlgebraMismatchError,
    DisconnectedGradingError,
    HypothesisError,
    VerificationFailedError,
)
from .groups import coset_steps, equivalence_classes_tilde
from .polynomials import (
    GradedPolynomial,
    GradedVariable,
    _factor_spans,
    alternate,
    check_identity,
    evaluate_triples,
    monomial_polynomial,
)
from .scalars import CycScalar


class WitnessPair:
    """Two disjoint-variable non-identities whose product is an identity."""

    __slots__ = ("kind", "presentation", "f", "g", "assignment_f", "assignment_g")

    def __init__(
        self,
        kind: str,  # "unequal_blocks" | "non_normal" | "missing_coset"
        presentation: Presentation,
        f: GradedPolynomial,
        g: GradedPolynomial,
        assignment_f: dict[int, Triple],
        assignment_g: dict[int, Triple],
    ):
        self.kind = kind
        self.presentation = presentation
        self.f = f
        self.g = g
        self.assignment_f = assignment_f
        self.assignment_g = assignment_g


class ClassificationReport:
    __slots__ = (
        "presentation",
        "connected",
        "H_normal",
        "cosets_equal",
        "class_G_invariant",
        "crossed_product",
        "graded_division",
        "verbally_prime",
        "strongly_verbally_prime",
        "division_form_exists",
        "invariance_failure",
        "witness",
    )

    def __init__(
        self,
        presentation: Presentation,
        connected: bool,
        H_normal: bool,
        cosets_equal: bool,
        class_G_invariant: Optional[bool],
        crossed_product: bool,
        graded_division: bool,
        verbally_prime: bool,
        strongly_verbally_prime: bool,
        division_form_exists: bool,
        invariance_failure: Optional[tuple[int, CoboundaryObstruction]] = None,
        witness: Optional[WitnessPair] = None,
    ):
        self.presentation = presentation
        self.connected = connected
        self.H_normal = H_normal
        self.cosets_equal = cosets_equal
        self.class_G_invariant = class_G_invariant
        self.crossed_product = crossed_product
        self.graded_division = graded_division
        self.verbally_prime = verbally_prime
        self.strongly_verbally_prime = strongly_verbally_prime
        self.division_form_exists = division_form_exists
        self.invariance_failure = invariance_failure
        self.witness = witness

    def flags(self) -> dict[str, object]:
        return {
            "connected": self.connected,
            "H_normal": self.H_normal,
            "cosets_equal": self.cosets_equal,
            "class_G_invariant": self.class_G_invariant,
            "crossed_product": self.crossed_product,
            "graded_division": self.graded_division,
            "verbally_prime": self.verbally_prime,
            "strongly_verbally_prime": self.strongly_verbally_prime,
            "division_form_exists": self.division_form_exists,
        }


def classify(p: Presentation, with_witness: bool = False) -> ClassificationReport:
    """Decide the primeness hierarchy for the algebra presented by p.

    The presentation is normalized first; all flags are invariant under the
    presentation moves, and every valid connected presentation yields a graded
    simple algebra, so verbally_prime is structural.  Every flag is read off
    the normal form, and no algebra is built: connectivity is
    Presentation.is_connected, and graded_division is m = 1 (a twisted group
    algebra, whose nonzero homogeneous elements are invertible).  With
    with_witness, the normal form and its coset multiplicities are handed to
    the witness construction, which computes neither again.
    """
    np = normalize_presentation(p)
    np.cocycle.require_valid()
    if not np.is_connected():
        raise DisconnectedGradingError(
            "the support of the grading does not generate the group"
        )
    H_normal = np.subgroup.is_normal()
    mults = np.coset_multiplicities()
    cosets_equal = len(set(mults.values())) == 1
    invariant: Optional[bool] = None
    failure = None
    if H_normal:
        failure = invariance_obstruction(np.cocycle)
        invariant = failure is None
    strongly = bool(H_normal and cosets_equal and invariant)
    report = ClassificationReport(
        presentation=np,
        connected=True,
        H_normal=H_normal,
        cosets_equal=cosets_equal,
        class_G_invariant=invariant,
        # binomials.is_crossed_product holds exactly when the multiplicities
        # are equal (its docstring has the proof).
        crossed_product=cosets_equal,
        graded_division=np.size == 1,
        verbally_prime=True,
        strongly_verbally_prime=strongly,
        division_form_exists=strongly,
        invariance_failure=failure,
    )
    if with_witness and not strongly:
        report.witness = _witness_of_normal(np, mults)
    return report


# -- witness construction ------------------------------------------------------


def _euler_chain(m: int) -> list[tuple[int, int]]:
    """The m*m matrix-unit edges of the complete looped digraph on m vertices
    as one circuit from vertex 0 back to vertex 0 (Hierholzer, deterministic)."""
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


MAX_ALTERNATION = 8  # the witness has (sum of block sizes squared)! monomials


def _alternating_factor(
    pres: Presentation, bridge_hs: list[int], start_id: int
) -> tuple[GradedPolynomial, dict[int, Triple]]:
    """One alternating factor: per-block frame/chain monomials joined by
    bridges, alternated over the full set of chain variables."""
    bs = block_structure(pres)
    x_count = sum(m * m for m in bs.sizes)
    if x_count > MAX_ALTERNATION:
        raise HypothesisError(
            f"witness alternation over {x_count} variables exceeds the "
            f"desk-scale cap of {MAX_ALTERNATION}"
        )
    G = pres.group
    variables: list[GradedVariable] = []
    order: list[int] = []
    assignment: dict[int, Triple] = {}
    x_ids: list[int] = []
    nxt = start_id

    def fresh(degree: int) -> int:
        nonlocal nxt
        vid = nxt
        nxt += 1
        variables.append(GradedVariable(vid, degree))
        order.append(vid)
        return vid

    for b in range(bs.k):
        pos = bs.positions[b]
        m = len(pos)
        chain = _euler_chain(m)
        y0 = fresh(0)
        assignment[y0] = (0, pos[chain[0][0]], pos[chain[0][0]])
        for r, s in chain:
            x = fresh(0)
            x_ids.append(x)
            assignment[x] = (0, pos[r], pos[s])
            y = fresh(0)
            assignment[y] = (0, pos[s], pos[s])
        if b < bs.k - 1:
            h = bridge_hs[b]
            deg = G.mul(G.mul(G.inv(bs.reps[b]), h), bs.reps[b + 1])
            w = fresh(deg)
            assignment[w] = (h, pos[0], bs.positions[b + 1][0])
    base = monomial_polynomial(
        variables, CycScalar.one(pres.cocycle.modulus), tuple(order)
    )
    return alternate(base, x_ids), assignment


def _zero_product_sequence(algebra: GradedAlgebra) -> Optional[tuple[int, ...]]:
    """Shortest word of support degrees whose component product vanishes.

    Products of homogeneous components are spanned by sets of basis triples,
    so the search is an exact BFS over those sets.
    """
    sup = sorted(algebra.presentation.support())
    seen = set()
    queue: deque = deque()
    for t in sup:
        s = frozenset(algebra.basis[k] for k in algebra.homogeneous_basis(t))
        queue.append((s, (t,)))
        seen.add(s)
    while queue:
        state, word = queue.popleft()
        for t in sup:
            nxt = set()
            for a in state:
                for k in algebra.homogeneous_basis(t):
                    hit = algebra.mul_basis(a, algebra.basis[k])
                    if hit is not None:
                        nxt.add(hit[1])
            if not nxt:
                return word + (t,)
            fs = frozenset(nxt)
            if fs not in seen:
                seen.add(fs)
                queue.append((fs, word + (t,)))
    return None


def witness_nonstrong(p: Presentation) -> Optional[WitnessPair]:
    """An explicit witness pair when strongly-verbally-prime fails through
    the coset multiplicities or normality; None when only the cohomology
    class misbehaves (no desk-scale polynomial witness is constructed) or the
    presentation is strongly verbally prime.

    p is normalized here; classify(p, with_witness=True) hands its own normal
    form and multiplicities to the same construction instead."""
    np = normalize_presentation(p)
    return _witness_of_normal(np, np.coset_multiplicities())


def _witness_of_normal(np: Presentation, mults: dict[int, int]) -> Optional[WitnessPair]:
    """witness_nonstrong on a normalized presentation np, given
    mults = np.coset_multiplicities(), which its caller has computed.  An
    algebra is built only for a missing coset, the one construction that
    reads it."""
    if 0 in mults.values():
        return _missing_coset_witness(np, build_algebra(np))
    if len(set(mults.values())) != 1:
        # No coset is missing, so each is one block; neighbors get h = 1.
        factor = _alternating_factor(np, [0] * (len(mults) - 1), start_id=1)
        return _shifted_pair("unequal_blocks", np, *factor)
    if not np.subgroup.is_normal():
        return _tilde_class_witness(np)
    return None


def _missing_coset_witness(np: Presentation, algebra: GradedAlgebra) -> WitnessPair:
    word = _zero_product_sequence(algebra)
    if word is None or len(word) < 2:
        raise VerificationFailedError(
            "unrepresented coset without a vanishing component product"
        )
    head, tail = word[:-1], word[-1:]
    one = CycScalar.one(np.cocycle.modulus)
    f = monomial_polynomial(
        [GradedVariable(i + 1, t) for i, t in enumerate(head)], one
    )
    g = monomial_polynomial([GradedVariable(len(word) + 1, tail[0])], one)
    # The lex-first nonzero assignment of a single monomial is its first
    # chained assignment.
    assign_f = check_identity(f, algebra).counterexample
    if assign_f is None:
        raise VerificationFailedError("head word unexpectedly has no nonzero value")
    assign_g = {len(word) + 1: algebra.basis[algebra.homogeneous_basis(tail[0])[0]]}
    return WitnessPair("missing_coset", np, f, g, assign_f, assign_g)


def _shifted_pair(
    kind: str, pres: Presentation, f: GradedPolynomial, assignment_f: dict[int, Triple]
) -> WitnessPair:
    """The pair (f, f on shifted ids) for an alternating factor f numbered
    from 1.  _alternating_factor numbers its variables consecutively from
    start_id and reads the ids nowhere else, so g and its assignment are what
    it builds from start_id = 1 + len(f.variables)."""
    shift = len(f.variables)
    g = GradedPolynomial(
        [GradedVariable(v.vid + shift, v.degree) for v in f.variables],
        [(m.coeff, tuple([vid + shift for vid in m.order])) for m in f.monomials],
    )
    assignment_g = {vid + shift: t for vid, t in assignment_f.items()}
    return WitnessPair(kind, pres, f, g, assignment_f, assignment_g)


def _tilde_class_witness(np: Presentation) -> WitnessPair:
    """Equal multiplicities but H not normal: reorder the blocks so that the
    coset representatives of each ~ class are adjacent, in class order, and
    bridge each pair of neighbors r_a, r_b of one class by the least h in H
    with r_a t = h r_b for some t in H, read off r_a's coset_steps row, so
    that r_a^-1 h r_b = t lies in H.  Neighbors in two classes get h = 1."""
    H = np.subgroup
    coset_of = np.cosets().coset_of
    positions = np.coset_positions()
    steps = coset_steps(H)
    classes = equivalence_classes_tilde(H)
    perm = [i for cls in classes for rep in cls for i in positions[coset_of[rep]]]
    bridges = []
    for cls in classes:
        for ra, rb in zip(cls, cls[1:]):
            row, b = steps[coset_of[ra]], coset_of[rb]
            bridges.append(min(row[t][0] for t in H.members if row[t][1] == b))
        bridges.append(0)
    pres_w = apply_move(np, M1(tuple(perm)))
    factor = _alternating_factor(pres_w, bridges[:-1], start_id=1)
    return _shifted_pair("non_normal", pres_w, *factor)


# -- verification -----------------------------------------------------------------


class WitnessCertificate:
    __slots__ = (
        "pair",
        "value_f",
        "value_g",
        "span_f_basis",
        "span_g_basis",
        "product_identity",
        "span_product_zero",
        "span_square_zero",
    )

    def __init__(
        self,
        pair: WitnessPair,
        value_f: dict[Triple, CycScalar],
        value_g: dict[Triple, CycScalar],
        span_f_basis: list[dict],
        span_g_basis: list[dict],
        product_identity: bool,
        span_product_zero: bool,
        span_square_zero: Optional[bool],
    ):
        self.pair = pair
        self.value_f = value_f
        self.value_g = value_g
        self.span_f_basis = span_f_basis
        self.span_g_basis = span_g_basis
        self.product_identity = product_identity
        self.span_product_zero = span_product_zero
        self.span_square_zero = span_square_zero


def verify_witness(
    pair: WitnessPair, algebra: Optional[GradedAlgebra] = None
) -> WitnessCertificate:
    """Check a witness pair from scratch; raises VerificationFailedError on any
    failed obligation (which would indicate a construction bug).

    The canonical values of f and g are computed on their basis triples by
    evaluate_triples, which sums cocycle exponents as integers instead of
    multiplying elements; it returns what evaluate returns on the triples'
    elements, and evaluate stays the general reference that the tests check
    it against.

    f and g use disjoint variables, so every value of f*g is a value of f times
    a value of g, and f*g is an identity exactly when every product of a span_f
    basis vector with a span_g basis vector vanishes.  That span check is the
    product decision.  The identity oracle would decide disjoint_product(f, g)
    by recomputing the same two spans and running the same test, so it could
    not disagree and is not asked again; product_identity is read off the
    span check.

    When f and g have the same shape (GradedPolynomial.shape) they have the
    same evaluation span, and one walk computes it.  The alternating factors
    of unequal_blocks and non_normal pairs are one polynomial on shifted
    variable ids, so they always share; a missing_coset pair shares only when
    its vanishing word is (t, t).  Every other obligation is still checked on
    both factors.

    A given algebra must be built from pair.presentation; any other raises
    AlgebraMismatchError."""
    if algebra is not None and algebra.presentation != pair.presentation:
        raise AlgebraMismatchError("the algebra is not built from the pair's presentation")
    A = algebra if algebra is not None else build_algebra(pair.presentation)
    val_f = evaluate_triples(pair.f, A, pair.assignment_f)
    if not val_f:
        raise VerificationFailedError("canonical evaluation of f vanished")
    val_g = evaluate_triples(pair.g, A, pair.assignment_g)
    if not val_g:
        raise VerificationFailedError("canonical evaluation of g vanished")
    span_f, span_g = _factor_spans(pair.f, pair.g, A)
    if span_f.dim == 0 or span_g.dim == 0:
        raise VerificationFailedError("a factor has zero evaluation span")
    product_zero = all(
        not A.mul_vectors(u, v) for u in span_f.basis() for v in span_g.basis()
    )
    if not product_zero:
        raise VerificationFailedError("span product is nonzero; f*g is not an identity")
    square_zero: Optional[bool] = None
    if pair.kind in ("unequal_blocks", "non_normal"):
        square_zero = all(
            not A.mul_vectors(u, v) for u in span_f.basis() for v in span_f.basis()
        )
        if not square_zero:
            raise VerificationFailedError("evaluation span of f does not square to zero")
    return WitnessCertificate(
        pair=pair,
        value_f=dict(val_f.terms),
        value_g=dict(val_g.terms),
        span_f_basis=span_f.basis(),
        span_g_basis=span_g.basis(),
        product_identity=True,
        span_product_zero=True,
        span_square_zero=square_zero,
    )
