"""The paper's binomial and path machinery, kept for library callers only.

Binomial data over H, crossed-product units, good permutations and their
scalars, pure components, evaluation paths and two probes of the product
property.  No CLI command runs it; of the package, only gradedpi/__init__
imports it.  The proof behind the path verdicts stays in polynomials, beside
the walk whose invariants keep it true.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations, product
from typing import Iterator, Optional, Sequence

from .algebra import (
    AlgebraElement,
    BlockStructure,
    GradedAlgebra,
    Presentation,
    Triple,
    block_structure,
    build_algebra,
    is_normalized,
)
from .cohomology import Cocycle2, is_G_invariant_class
from .errors import (
    DegreeMismatchError,
    HypothesisError,
    NonMultilinearError,
    NotNormalError,
    VerificationFailedError,
)
from .groups import FiniteGroup, Subgroup, coset_steps
from .polynomials import (
    GradedMonomial,
    GradedPolynomial,
    GradedVariable,
    accumulate_evaluations,
    check_identity,
    disjoint_product,
    monomial_polynomial,
    variables_for,
)
from .records import Record
from .scalars import CycScalar, root_of_unity

_set = object.__setattr__


# -- binomial identities and crossed products ------------------------------------


class Binomial(Record):
    """A binomial identity datum: orders hs vs hs∘sigma with scalar alpha."""

    __slots__ = ("hs", "sigma", "alpha_exp")

    def __init__(self, hs: tuple[int, ...], sigma: tuple[int, ...], alpha_exp: int):
        _set(self, "hs", hs)
        _set(self, "sigma", sigma)
        _set(self, "alpha_exp", alpha_exp)


def enumerate_binomials(c: Cocycle2, n: int) -> Iterator[Binomial]:
    """All (hs in H^j, sigma in S_j) with equal products, j = 1..n, with the
    attached alpha exponent; deterministic lexicographic order.  A bound
    n > 5 raises HypothesisError at the call, before any item."""
    if n > 5:
        raise HypothesisError("binomial enumeration is exponential; length bound > 5 refused")
    return _binomials(c, n)


def _binomials(c: Cocycle2, n: int) -> Iterator[Binomial]:
    H = c.subgroup
    g = H.parent
    for length in range(1, n + 1):
        for hs in product(H.members, repeat=length):
            total = g.product_seq(hs)
            for sigma in permutations(range(length)):
                permuted = tuple(hs[s] for s in sigma)
                if g.product_seq(permuted) == total:
                    yield Binomial(hs, sigma, c.binomial_alpha_exp(hs, sigma))


class CrossedProductResult(Record):
    __slots__ = ("is_crossed_product", "certificates")

    def __init__(
        self,
        is_crossed_product: bool,
        certificates: Optional[dict[int, tuple[AlgebraElement, AlgebraElement]]] = None,
    ):
        _set(self, "is_crossed_product", is_crossed_product)
        _set(self, "certificates", {} if certificates is None else certificates)

    def __bool__(self) -> bool:
        return self.is_crossed_product


def is_crossed_product(algebra: GradedAlgebra) -> CrossedProductResult:
    """Equal coset multiplicities iff every component holds an invertible
    homogeneous element; when they do, an explicit unit and inverse per degree
    is built and verified to multiply to 1 on both sides.

    The units always exist: with equal multiplicities, each position i of a
    coset H r is paired with a position j of H r g, and g_i in H r, g_j in
    H r g give g_i g g_j^-1 in H."""
    p = algebra.presentation
    G = p.group
    pos_by_coset = p.coset_positions()
    if len({len(pos) for pos in pos_by_coset}) != 1:
        return CrossedProductResult(False)
    steps = coset_steps(p.subgroup)
    one = CycScalar.one(algebra.modulus)
    certificates = {}
    for g in G.elements():
        terms: dict[Triple, CycScalar] = {}
        inv_terms: dict[Triple, CycScalar] = {}
        for src, row in zip(pos_by_coset, steps):
            dst = pos_by_coset[row[g][1]]  # the coset H r g
            for i, j in zip(src, dst):
                # h with g_i^-1 h g_j = g, i.e. h = g_i g g_j^-1 (in H).
                h = G.mul(G.mul(p.grading[i], g), G.inv(p.grading[j]))
                if h not in p.subgroup:
                    raise VerificationFailedError(
                        f"crossed-product unit for degree {g} needs u_{h} outside H"
                    )
                terms[(h, i, j)] = one
                hinv = G.inv(h)
                inv_terms[(hinv, j, i)] = root_of_unity(
                    algebra.modulus, -p.cocycle.exp(h, hinv)
                )
        unit = algebra.element(terms)
        inv = algebra.element(inv_terms)
        if unit * inv != algebra.one() or inv * unit != algebra.one():
            raise VerificationFailedError("crossed-product certificate failed to verify")
        certificates[g] = (unit, inv)
    return CrossedProductResult(True, certificates)


# -- good permutations, pure polynomials -----------------------------------------


def monomial_signature(order: Sequence[int], degree_of, H: Subgroup) -> tuple:
    """The total degree, then per variable in id order the right-H-coset index
    of the degree product up to and including it (degree_of: a dict or a word).
    A degree outside the group raises DegreeMismatchError naming its letter,
    the word position or variable id, as _check_letters does."""
    G = H.parent
    table, coset_of, n = G.table, H.right_cosets().coset_of, G.order
    prefix, coset_at = 0, {}
    for vid in order:
        t = degree_of[vid]
        if not 0 <= t < n:
            raise DegreeMismatchError(f"letter {vid}: degree {t} is not an element of the group")
        prefix = table[prefix][t]
        coset_at[vid] = coset_of[prefix]
    return (prefix,) + tuple(coset_at[v] for v in sorted(coset_at))


def is_good_permutation(
    f: GradedPolynomial, order_a: Sequence[int], order_b: Sequence[int], H: Subgroup
) -> bool:
    """True iff the two monomial orders have equal total degree and matching
    right-H-coset prefix products at every variable."""
    if frozenset(order_a) != frozenset(order_b):
        return False
    return monomial_signature(order_a, f.degree_of, H) == monomial_signature(
        order_b, f.degree_of, H
    )


def pure_components(f: GradedPolynomial, H: Subgroup) -> list[GradedPolynomial]:
    """Partition of the monomials into good-permutation classes (an equivalence
    relation: classes are exactly the signature fibers)."""
    buckets: dict[tuple, list[GradedMonomial]] = {}
    for m in f.monomials:
        sig = monomial_signature(m.order, f.degree_of, H)
        buckets.setdefault(sig, []).append(m)
    return [
        GradedPolynomial(f.variables, buckets[sig]) for sig in sorted(buckets)
    ]


def is_pure(f: GradedPolynomial, H: Subgroup) -> bool:
    return len(pure_components(f, H)) <= 1


def good_permutations_of(degrees: Sequence[int], H: Subgroup) -> Iterator[tuple[int, ...]]:
    """All sigma with Z_sigma a good permutation of Z (identity included),
    generated by a prefix-coset DFS in lexicographic order: at each depth it
    scans only the positions that leave the current coset in the word."""
    _check_letters(degrees, H.parent)
    table = H.parent.table
    cosets = H.right_cosets()
    n = len(degrees)
    leaving: list[list[int]] = [[] for _ in cosets.reps]
    after = []
    prefix = 0
    for p, t in enumerate(degrees):
        leaving[cosets.coset_of[prefix]].append(p)
        prefix = table[prefix][t]
        after.append(cosets.coset_of[prefix])
    total = prefix
    used = [False] * n
    sigma: list[int] = []

    def rec(current: int, prod: int) -> Iterator[tuple[int, ...]]:
        if len(sigma) == n:
            if prod == total:
                yield tuple(sigma)
            return
        for p in leaving[current]:
            if used[p]:
                continue
            used[p] = True
            sigma.append(p)
            yield from rec(after[p], table[prod][degrees[p]])
            sigma.pop()
            used[p] = False

    yield from rec(0, 0)


def good_binomial(
    degrees: Sequence[int], sigma: Sequence[int], scalar: CycScalar, start_id: int = 1
) -> GradedPolynomial:
    """Z - scalar * Z_sigma on fresh variables with the given degrees."""
    _check_sigma(sigma, len(degrees))
    variables = variables_for(degrees, start_id)
    base = tuple(v.vid for v in variables)
    permuted = tuple(variables[s].vid for s in sigma)
    one = CycScalar.one(scalar.order)
    return GradedPolynomial(variables, [(one, base), (-scalar, permuted)])


class GoodScalarContext:
    """Validated context for the good-permutation scalar of one presentation.

    Hypotheses (normal H, equal block multiplicities, normalized tuple,
    G-invariant class) are checked once; scalar() is then cheap enough for
    exhaustive sweeps.
    """

    def __init__(self, presentation: Presentation):
        H = presentation.subgroup
        if not H.is_normal():
            raise NotNormalError("good-permutation scalar needs H normal")
        if not is_normalized(presentation):
            raise HypothesisError("presentation must be in normalized form")
        bs = block_structure(presentation)
        if not bs.equal_multiplicity:
            raise HypothesisError("good-permutation scalar needs equal multiplicities")
        if not is_G_invariant_class(presentation.cocycle):
            raise HypothesisError("cohomology class is not G-invariant")
        self.presentation = presentation
        self.cocycle = presentation.cocycle
        self.steps = coset_steps(H)

    def transversal_walk(self, degrees: Sequence[int]) -> list[int]:
        """The H-elements f_i = [t_1...t_(i-1)] t_i [t_1...t_i]^-1, [g] the
        representative of Hg: one coset_steps step per letter, from H."""
        _check_letters(degrees, self.presentation.group)
        steps = self.steps
        i = 0
        out = []
        for t in degrees:
            f, i = steps[i][t]
            out.append(f)
        return out

    def scalar_exp(self, degrees: Sequence[int], sigma: Sequence[int]) -> int:
        fs = self.transversal_walk(degrees)
        _check_sigma(sigma, len(fs))
        permuted = [fs[s] for s in sigma]
        c = self.cocycle
        return (c.product_exp(fs) - c.product_exp(permuted)) % c.modulus

    def scalar(self, degrees: Sequence[int], sigma: Sequence[int]) -> CycScalar:
        return root_of_unity(self.cocycle.modulus, self.scalar_exp(degrees, sigma))


def _check_letters(degrees: Sequence[int], G: FiniteGroup) -> None:
    """Refuse a degree word with a letter outside G, which indexing would
    read as another element (-1 as the last one) or fail on."""
    order = G.order
    for t in degrees:
        if not 0 <= t < order:
            p = degrees.index(t)
            raise DegreeMismatchError(f"letter {p}: degree {t} is not an element of the group")


def _check_sigma(sigma: Sequence[int], n: int) -> None:
    if sorted(sigma) != list(range(n)):
        raise HypothesisError("sigma is not a permutation of the positions of the degree word")


def good_permutation_scalar(
    degrees: Sequence[int], sigma: Sequence[int], presentation: Presentation
) -> CycScalar:
    """The scalar s with Z - s * Z_sigma a graded identity of the presented
    algebra, for sigma a good permutation of the degree word: a permutation
    whose monomial signature is the identity order's."""
    ctx = GoodScalarContext(presentation)
    _check_letters(degrees, presentation.group)
    H, n = presentation.subgroup, len(degrees)
    if sorted(sigma) != list(range(n)) or monomial_signature(
        sigma, degrees, H
    ) != monomial_signature(range(n), degrees, H):
        raise HypothesisError("sigma is not a good permutation of the degree word")
    return ctx.scalar(degrees, sigma)


# -- path machinery ------------------------------------------------------------


class PathReport:
    __slots__ = ("vanishing", "holds")

    def __init__(self, vanishing: tuple[bool, ...], holds: bool):
        self.vanishing = vanishing
        self.holds = holds


def _vanishing_pattern(f: GradedPolynomial, algebra: GradedAlgebra) -> tuple[bool, ...]:
    """Per block b, whether no value triple (h, r, c) in f's table has its
    row r in block b (see the module docstring)."""
    bs = _path_block_structure(f, algebra)
    if f.is_zero():
        raise HypothesisError("zero polynomial has no leading monomial")
    acc = accumulate_evaluations(f, algebra)
    live = {bs.block_of[r] for bucket in acc.values() for _, r, _ in bucket}
    return tuple(b not in live for b in range(bs.k))


def path_vanishes(f: GradedPolynomial, algebra: GradedAlgebra, start_block: int) -> bool:
    """True iff f vanishes on all basis evaluations whose leading variable is
    rooted in the given e-block row range."""
    pattern = _vanishing_pattern(f, algebra)
    _check_block(start_block, len(pattern))
    return pattern[start_block]


def _check_block(start_block: int, k: int) -> None:
    if not 0 <= start_block < k:
        raise HypothesisError(f"start block {start_block} is not in 0..{k - 1}")


def _path_block_structure(f: GradedPolynomial, algebra: GradedAlgebra) -> BlockStructure:
    p = algebra.presentation
    if not p.subgroup.is_normal():
        raise NotNormalError("path machinery requires H normal")
    bs = block_structure(p)
    if not is_pure(f, p.subgroup):
        raise HypothesisError("path machinery expects a pure polynomial")
    return bs


def satisfies_path_property(f: GradedPolynomial, algebra: GradedAlgebra) -> PathReport:
    """Vanishing pattern over all starting blocks, from one walk; the
    property holds when the polynomial vanishes on every path or on none."""
    pattern = _vanishing_pattern(f, algebra)
    return PathReport(pattern, all(pattern) or not any(pattern))


class PathRestriction:
    """The ungraded multilinear polynomial carried by one evaluation path."""

    __slots__ = ("start_block", "end_block", "r", "terms")

    def __init__(
        self,
        start_block: int,
        end_block: int,
        r: int,
        terms: tuple[tuple[CycScalar, tuple[int, ...]], ...],  # (gamma * coeff, order)
    ):
        self.start_block = start_block
        self.end_block = end_block
        self.r = r
        self.terms = terms

    def is_identity_of_matrices(self) -> bool:
        if not self.terms:
            return True
        algebra = _matrix_algebra(self.r, self.terms[0][0].order)
        ids = sorted({v for _, order in self.terms for v in order})
        variables = tuple(GradedVariable(vid, 0) for vid in ids)
        poly = GradedPolynomial(variables, list(self.terms))
        return check_identity(poly, algebra).identity


@cache
def _matrix_algebra(r: int, modulus: int) -> GradedAlgebra:
    trivial = FiniteGroup.cyclic(1)
    sub = trivial.full_subgroup()
    pres = Presentation(trivial, sub, Cocycle2.trivial(sub, modulus), (0,) * r)
    return build_algebra(pres)


def path_restriction(
    f: GradedPolynomial, algebra: GradedAlgebra, start_block: int
) -> PathRestriction:
    """Follow the forced block walk from start_block through every monomial,
    collecting the twisted-group-algebra scalar; requires equal block
    multiplicities so the result lives over one matrix size.  Each letter is
    one coset_steps step; a coset index maps to a block by its representative."""
    bs = _path_block_structure(f, algebra)
    if not bs.equal_multiplicity:
        raise HypothesisError("path restriction requires equal block multiplicities")
    _check_block(start_block, bs.k)
    p = algebra.presentation
    steps = coset_steps(p.subgroup)
    c = p.cocycle
    start = bs.cosets.coset_of[bs.reps[start_block]]
    end = None
    terms = []
    for m in f.monomials:
        i = start
        hs = []
        for vid in m.order:
            h, i = steps[i][f.degree_of[vid]]
            hs.append(h)
        if end is None:
            end = i
        elif end != i:
            raise HypothesisError("monomials of a pure polynomial must share end blocks")
        gamma = root_of_unity(c.modulus, c.product_exp(hs))
        terms.append((gamma * m.coeff, m.order))
    end_block = start_block if end is None else bs.reps.index(bs.cosets.reps[end])
    return PathRestriction(start_block, end_block, bs.r, tuple(terms))


# -- polynomial-level probes --------------------------------------------------------


def separating_product_test(
    f: GradedPolynomial, g: GradedPolynomial, algebra: GradedAlgebra
) -> bool:
    """True iff f * z_g0 * g is a non-identity for some degree g0 (f, g assumed
    non-identities on disjoint variables)."""
    if set(f.degree_of) & set(g.degree_of):
        raise NonMultilinearError("factors must use disjoint variables")
    zid = max(list(f.degree_of) + list(g.degree_of)) + 1
    for g0 in algebra.group.elements():
        z = monomial_polynomial(
            [GradedVariable(zid, g0)], CycScalar.one(algebra.modulus)
        )
        prod = disjoint_product(disjoint_product(f, z), g)
        if not check_identity(prod, algebra).identity:
            return True
    return False


class EmpiricalCheck:
    __slots__ = ("product_identity", "f_identity", "g_identity")

    def __init__(self, product_identity: bool, f_identity: bool, g_identity: bool):
        self.product_identity = product_identity
        self.f_identity = f_identity
        self.g_identity = g_identity

    @property
    def consistent(self) -> bool:
        return (not self.product_identity) or self.f_identity or self.g_identity


def strongly_vp_empirical(
    f: GradedPolynomial, g: GradedPolynomial, algebra: GradedAlgebra
) -> EmpiricalCheck:
    """Spot-check of the division-algebra product property on one pair:
    fg in Id implies f in Id or g in Id.  The factors must not share
    variables (the product would not be multilinear)."""
    if set(f.degree_of) & set(g.degree_of):
        raise NonMultilinearError(
            "factors share variables; their product is not multilinear"
        )
    prod = disjoint_product(f, g)
    return EmpiricalCheck(
        product_identity=check_identity(prod, algebra).identity,
        f_identity=check_identity(f, algebra).identity,
        g_identity=check_identity(g, algebra).identity,
    )
