"""Multilinear graded polynomials and the exact identity oracle.

The oracle enumerates homogeneous basis assignments by chaining matrix-unit
triples (a triple can follow another only when its row matches the previous
column) and accumulates each assignment's value in a table keyed by the
assignment.  A polynomial is an identity iff every accumulated value is zero;
the lexicographically first nonzero assignment is returned as the
counterexample.

An assignment key is one int: the basis index of the slot-i variable (in
sorted id order) is its digit of weight nb^(d-1-i), nb = len(basis), and the
walk adds a digit's weight along each edge.  Numeric order of keys is then
lexicographic order of the digit tuples, so the least nonzero key is the
lex-first counterexample; EvaluationTable.digits decodes only the keys that
are reported.

One walk serves every caller, the Grassmann envelope check included.  It
reads the algebra and a WalkPlan from evaluation_table: the coefficients,
walked terms, label edges, alternation classes, trie, key radix and width,
and the class members' slot weights.  A variable takes a alternatives, each
the basis of one degree (the envelope's even and odd parts, see grassmann);
alternative j adds j * nb to the basis index, so digits have radix a * nb.
Coefficient c has index 2k and -c has 2k + 1: index i negates to i ^ 1.

- The monomial orders form a prefix trie, so a prefix shared by several
  monomials (a chain of basis choices) is enumerated once; each leaf holds
  its monomial's coefficient index.  One descent over the trie of the label
  paths makes every entry, with its parity.
- A chain's H-parts are H's local indices (basis index k has H-part
  k // m^2, m the matrix size): products come from H.local_table() and
  exponents from the cocycle's own rows, so every H-product stays in H.
- A value is a tuple of phi(N) Python ints: its coordinates over the power
  basis 1, zeta, ..., zeta^(phi(N)-1) of Q(zeta_N), times the lcm L of all
  coefficient denominators.  A leaf adds the precomputed L * coeff * zeta^e,
  reduced mod Phi_N, computed once per (coefficient, exponent) the walk
  reaches.  Phi_N is monic, so the reduction stays integral: the sums are
  exact integers, and a vector is zero exactly when the value is.
- Only the values that leave the module (a counterexample's value, span
  vectors, the witness stream of _value_pairs) become CycScalars, which hold
  the same numerators over L, brought to lowest terms.

An alternating polynomial is walked on one monomial per orbit.  Variables a,
b of one degree form an alternating pair when every monomial's coefficient is
minus that of its (a b)-swap.  A class is a connected component of the graph
of these pairs.  The transpositions along a connected graph generate the full
symmetric group of its vertices, and a homomorphism to {1, -1} that sends one
transposition to -1 is the sign; so for s in the product S of the classes'
symmetric groups, m o s (m with each id v replaced by s(v)) has sgn(s) times
the coefficient of m.  Read a key as its digit tuple, and call it canonical
when its digits strictly increase, in slot order, across every class.  Let
m_r, with coefficient c_r, run over one monomial per S-orbit of the
monomials.  As (m o s)(K0) = m(K0 o s), a key K0 has the value

    f(K0) = sum_r c_r sum_(s in S) sgn(s) m_r(K0 o s).

So a key that repeats a digit inside a class has value 0 (exchanging the two
equal digits fixes it and negates its value), and any other key K0 o s has
the value sgn(s) f(K0) for the one canonical K0 of its orbit, the orbit's
numerically least key.  accumulate_evaluations keeps the canonical keys only,
each with its full value: it walks only the m_r whose class members stand in
ascending id order, on the chained keys K with distinct digits in each
class, and adds c_r m_r(K), negated when sorting each class's digits into
its slots is odd, at the sorted key.  K0 is reached iff some monomial chains
on it, since m_r o s chains on K0 iff m_r chains on K0 o s, so the table
holds the keys, zero-valued ones included, that a walk of every monomial
keeps.  Every answer is that of a walk of every key:

- check_identity: the least nonzero key and its value are the same;
- _value_pairs: the first nonzero (left, right) pair is the same, since a
  pair with a non-canonical side has one on smaller canonical keys whose
  product differs only in sign;
- evaluation_span: the basis is the same.  Values are inserted in key order,
  and a skipped value is +-the value of a smaller key, inserted before it, so
  it lies in the span and Span.add would leave every row as it is.  By
  induction the rows after each key are the same with and without the
  skipped keys;
- binomials.path_vanishes and satisfies_path_property: block b vanishes
  iff no value triple (h, r, c) of the table has its row r in block b.  f
  is pure and H normal, so in each monomial the prefix before the leading
  variable has its degree in H, and a chain of that degree starts and ends
  in one block: each monomial with a nonzero chain on an assignment starts
  in the leading variable's block.  A skipped key's value is 0 or +-that of
  its orbit's canonical key: the canonical keys carry each surviving triple.

Classes are built only when every variable has one alternative, so the
envelope check walks every key of every monomial.  One walker runs both
kinds of trie: it holds the placed (class, digit) bits and the sort's parity
as closure state, which only a class member's entry sets and restores.

Polynomials built as products on disjoint variables carry their
factorization, which lets the oracle decide the product through the factors'
evaluation spans instead of walking the concatenated monomials.  Two factors
of the same shape (GradedPolynomial.shape) have one span, from one walk.
"""

from __future__ import annotations

from itertools import chain, permutations
from math import gcd, lcm
from operator import add, ne, neg
from types import MappingProxyType
from typing import Iterator, Optional, Sequence

from .algebra import AlgebraElement, GradedAlgebra, Triple
from .errors import (
    DegreeMismatchError,
    NonMultilinearError,
    OrderMismatchError,
    VerificationFailedError,
)
from .linalg import Span, span_of
from .records import Record
from .scalars import CycScalar


_set = object.__setattr__


class GradedVariable(Record):
    __slots__ = ("vid", "degree")

    def __init__(self, vid: int, degree: int):
        _set(self, "vid", vid)
        _set(self, "degree", degree)


class GradedMonomial(Record):
    __slots__ = ("coeff", "order")

    def __init__(self, coeff: CycScalar, order: tuple[int, ...]):
        _set(self, "coeff", coeff)
        _set(self, "order", order)


class GradedPolynomial:
    """A multilinear polynomial over a fixed list of graded variables."""

    __slots__ = ("variables", "monomials", "degree_of", "factors", "renamed")

    def __init__(self, variables, monomials, factors=None, renamed=None):
        vars_t = tuple(variables)
        ids = [v.vid for v in vars_t]
        if len(set(ids)) != len(ids):
            raise NonMultilinearError("duplicate variable ids")
        id_set = frozenset(ids)
        merged: dict[tuple[int, ...], CycScalar] = {}  # in first-occurrence order
        for m in monomials:
            coeff, order = (m.coeff, m.order) if isinstance(m, GradedMonomial) else m
            order = tuple(order)
            if frozenset(order) != id_set or len(order) != len(ids):
                raise NonMultilinearError(
                    f"monomial {order} is not a permutation of the variable ids"
                )
            if not order:
                raise NonMultilinearError("a monomial of degree 0 (empty order) is not supported")
            merged[order] = merged[order] + coeff if order in merged else coeff
        self.variables = vars_t
        self.monomials = tuple(GradedMonomial(c, o) for o, c in merged.items() if c)
        self.degree_of = {v.vid: v.degree for v in vars_t}
        self.factors = factors
        self.renamed = dict(renamed) if renamed else {}
        orders = {m.coeff.order for m in self.monomials}
        if len(orders) > 1:
            raise OrderMismatchError("monomial coefficients mix cyclotomic orders")

    @property
    def scalar_order(self) -> Optional[int]:
        return self.monomials[0].coeff.order if self.monomials else None

    @property
    def degree(self) -> int:
        return len(self.variables)

    def is_zero(self) -> bool:
        return not self.monomials

    def var_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.degree_of))

    def shape(self) -> tuple:
        """The degrees in sorted-id order, and each monomial's (coeff, order)
        with every id replaced by its rank among the ids.

        accumulate_evaluations reads a polynomial only through var_ids(),
        degree_of and the monomials, and uses an id only as the label of its
        rank's key slot, so two polynomials with equal shapes give equal
        tables, and therefore equal evaluation spans."""
        ids = self.var_ids()
        rank = {vid: i for i, vid in enumerate(ids)}
        return (
            tuple(self.degree_of[vid] for vid in ids),
            tuple((m.coeff, tuple(rank[v] for v in m.order)) for m in self.monomials),
        )

    def scale(self, s: CycScalar) -> "GradedPolynomial":
        return GradedPolynomial(
            self.variables, [(s * m.coeff, m.order) for m in self.monomials]
        )

    def __neg__(self) -> "GradedPolynomial":
        return GradedPolynomial(
            self.variables, [(-m.coeff, m.order) for m in self.monomials]
        )

    def __add__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        if self.degree_of != other.degree_of:
            raise NonMultilinearError("polynomial sum requires identical variable lists")
        return GradedPolynomial(
            self.variables,
            [(m.coeff, m.order) for m in self.monomials]
            + [(m.coeff, m.order) for m in other.monomials],
        )

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        return (
            sorted(self.variables, key=lambda v: v.vid)
            == sorted(other.variables, key=lambda v: v.vid)
            and sorted(self.monomials, key=lambda m: m.order)
            == sorted(other.monomials, key=lambda m: m.order)
        )

    def __hash__(self):
        return hash(
            (
                tuple(sorted(self.variables, key=lambda v: v.vid)),
                tuple(sorted(self.monomials, key=lambda m: m.order)),
            )
        )

    def __repr__(self) -> str:
        if not self.monomials:
            return "GradedPolynomial(0)"
        bits = [
            f"({m.coeff.pretty()})*" + "".join(f"x{v}" for v in m.order)
            for m in self.monomials
        ]
        return "GradedPolynomial(" + " + ".join(bits) + ")"


def variables_for(degrees: Sequence[int], start_id: int = 1) -> tuple[GradedVariable, ...]:
    return tuple(GradedVariable(start_id + i, d) for i, d in enumerate(degrees))


def monomial_polynomial(
    variables: Sequence[GradedVariable], coeff: CycScalar, order: Optional[Sequence[int]] = None
) -> GradedPolynomial:
    order = tuple(order) if order is not None else tuple(v.vid for v in variables)
    return GradedPolynomial(variables, [(coeff, order)])


def disjoint_product(f: GradedPolynomial, g: GradedPolynomial) -> GradedPolynomial:
    """Concatenation product; overlapping ids on g are renamed to fresh ones
    (the renaming is reported on the result)."""
    renamed: dict[int, int] = {}
    overlap = set(f.degree_of) & set(g.degree_of)
    if overlap:
        nxt = max(list(f.degree_of) + list(g.degree_of)) + 1
        for vid in sorted(g.degree_of):
            if vid in overlap:
                renamed[vid] = nxt
                nxt += 1
        g = GradedPolynomial(
            [GradedVariable(renamed.get(v.vid, v.vid), v.degree) for v in g.variables],
            [
                (m.coeff, tuple(renamed.get(v, v) for v in m.order))
                for m in g.monomials
            ],
        )
    monos = [
        (mf.coeff * mg.coeff, mf.order + mg.order)
        for mf in f.monomials
        for mg in g.monomials
    ]
    return GradedPolynomial(
        f.variables + g.variables, monos, factors=(f, g), renamed=renamed
    )


def _parity(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def alternate(f: GradedPolynomial, var_ids: Sequence[int]) -> GradedPolynomial:
    """Signed alternation of a single monomial over variables of one degree."""
    if len(f.monomials) != 1:
        raise NonMultilinearError("alternation expects a single-monomial polynomial")
    xs = sorted(var_ids)
    base = f.monomials[0]
    alternated = set(xs)
    positions = [i for i, v in enumerate(base.order) if v in alternated]
    if len(positions) != len(xs):
        raise NonMultilinearError("alternation set must be variables of the monomial")
    degs = {f.degree_of[v] for v in xs}
    if len(degs) > 1:
        raise DegreeMismatchError("alternated variables must share one degree")
    negated = -base.coeff
    monos = []
    for perm in permutations(range(len(xs))):
        order = list(base.order)
        for slot, p in enumerate(perm):
            order[positions[slot]] = xs[p]
        coeff = base.coeff if _parity(perm) == 1 else negated
        monos.append((coeff, tuple(order)))
    return GradedPolynomial(f.variables, monos)


# -- evaluation ---------------------------------------------------------------


def evaluate(
    f: GradedPolynomial, algebra: GradedAlgebra, assignment: dict[int, AlgebraElement]
) -> AlgebraElement:
    """Sum over monomials of coeff times the ordered product of the images.

    Every variable's assignment is checked first, so an unassigned or wrongly
    graded variable raises even when every monomial vanishes.  A monomial's
    product stops at its first zero partial product, since 0 * x = 0 leaves
    the sum unchanged."""
    _check_scalar_order(f.scalar_order, algebra)
    for v in f.variables:
        if v.vid not in assignment:
            raise DegreeMismatchError(f"variable x{v.vid} is unassigned")
        el = assignment[v.vid]
        if el.algebra is not algebra:
            raise DegreeMismatchError(f"assignment of x{v.vid} lives in another algebra")
        if not el.is_homogeneous_of(v.degree):
            raise DegreeMismatchError(
                f"assignment of x{v.vid} is not homogeneous of degree {v.degree}"
            )
    total = algebra.zero()
    for m in f.monomials:
        acc = assignment[m.order[0]]
        for vid in m.order[1:]:
            acc = acc * assignment[vid]
            if not acc:
                break
        else:
            total = total + acc.scale(m.coeff)
    return total


def evaluate_triples(
    f: GradedPolynomial, algebra: GradedAlgebra, triples: dict[int, Triple]
) -> AlgebraElement:
    """evaluate(f, algebra, assignment_elements(algebra, triples)), with the
    same errors in the same order, computed on the triples themselves.  A
    product of basis triples is zero at the first column/row mismatch and
    otherwise zeta^e times one triple, where e sums the cocycle exponents of
    the left-to-right H-products, so each monomial adds coeff * zeta^e at its
    end triple."""
    _check_basis_triples(algebra, triples)
    _check_scalar_order(f.scalar_order, algebra)
    degree, index = algebra.degree, algebra.index
    for v in f.variables:
        if v.vid not in triples:
            raise DegreeMismatchError(f"variable x{v.vid} is unassigned")
        if degree[index[triples[v.vid]]] != v.degree:
            raise DegreeMismatchError(
                f"assignment of x{v.vid} is not homogeneous of degree {v.degree}"
            )
    # As in the walk, the H-parts are H's local indices.
    H = algebra.presentation.subgroup
    mul, exps, members = H.local_table(), algebra.presentation.cocycle.exps, H.members
    at = {vid: (H.local[h], r, c) for vid, (h, r, c) in triples.items()}
    total: dict[Triple, CycScalar] = {}
    for m in f.monomials:
        order = m.order
        h, row, col = at[order[0]]
        e = 0
        for vid in order[1:]:
            b, r, c = at[vid]
            if r != col:
                break
            e += exps[h][b]
            h, col = mul[h][b], c
        else:
            t = (members[h], row, col)
            value = m.coeff.shift_root(e)
            total[t] = total[t] + value if t in total else value
    return algebra.element(total)


def _check_basis_triples(algebra: GradedAlgebra, triples: dict[int, Triple]) -> None:
    for vid, t in triples.items():
        if t not in algebra.index:
            raise DegreeMismatchError(f"assignment of x{vid}: {t} is not a basis triple")


def assignment_elements(
    algebra: GradedAlgebra, triples: dict[int, Triple]
) -> dict[int, AlgebraElement]:
    """Each variable's basis triple as an element of algebra; raises
    DegreeMismatchError, naming the variable, for a triple outside its basis."""
    _check_basis_triples(algebra, triples)
    one = CycScalar.one(algebra.modulus)
    return {vid: algebra.element({t: one}) for vid, t in triples.items()}


# -- the oracle ----------------------------------------------------------------


class IdentityReport:
    """The verdict of check_identity, and of envelope_identity_check (its
    counterexample holds envelope keys, and its value is None)."""

    __slots__ = ("identity", "counterexample", "value")

    def __init__(
        self,
        identity: bool,
        counterexample: Optional[dict[int, Triple]] = None,
        value: Optional[dict[Triple, CycScalar]] = None,
    ):
        self.identity = identity
        self.counterexample = counterexample
        self.value = value


def _check_scalar_order(order: Optional[int], algebra: GradedAlgebra) -> None:
    if order is not None and order != algebra.modulus:
        raise OrderMismatchError(
            f"polynomial coefficients live in Q(zeta_{order}) "
            f"but the algebra uses order {algebra.modulus}"
        )


# The value of every key whose contributions cancelled: one shared, read-only
# empty map (most keys of an alternating polynomial end here).
_ZERO = MappingProxyType({})


class EvaluationTable(dict):
    """Assignment key -> {value triple: nonzero integer vector}.  A key is the
    int whose base-radix digits, most significant first, are the width slots'
    digits (decoded by digits).  A vector holds the power-basis coordinates
    over Q(zeta_order) of the exact value times `scale`; keys the walk reached
    whose value is zero map to the empty _ZERO.  For a polynomial with
    alternation classes the walk reaches canonical keys only (see the module
    docstring): the table then holds one key per sign orbit."""

    __slots__ = ("order", "scale", "radix", "width")

    def __init__(self, order: int, scale: int, radix: int, width: int):
        super().__init__()
        self.order = order
        self.scale = scale
        self.radix = radix
        self.width = width

    def digits(self, key: int) -> tuple[int, ...]:
        """The slot digits of a key, slot 0 first."""
        out = [0] * self.width
        for i in range(self.width - 1, -1, -1):
            key, out[i] = divmod(key, self.radix)
        return tuple(out)

    def value(self, key: int) -> dict[Triple, CycScalar]:
        """The value at one assignment as canonical scalars."""
        order, scale = self.order, self.scale
        return {
            t: CycScalar.from_scaled_ints(order, v, scale) for t, v in self[key].items()
        }


def _prefix_trie(terms: list, edges: dict) -> list:
    """The walk trie of (coefficient index, label path) terms, made in one
    descent over the trie of their label paths.  edges maps each label to its
    ordered alternatives (rows, bit): the oracle's one, (rows, 0), or the
    envelope's even (rows, 0) then odd (rows, 1 << slot).  A node is a list of
    (rows, child) entries, per label in first-insertion order and per
    alternative, each made with its parity.  The child after a path's last
    label is its coefficient index, or that of its negation (index ^ 1) when
    the bits on the path have an odd number of inversions."""
    # The label trie maps a label to its child node, or to the term's index.
    top: dict = {}
    for ci, path in terms:
        node = top
        for label in path[:-1]:
            node = node.setdefault(label, {})
        node[path[-1]] = ci

    # odd holds the bits on the path and sign the parity of their inversions;
    # a new bit b is inverted with each held bit above it, the bits of odd & -b.
    def descend(node: dict, odd: int, sign: int) -> list:
        out = []
        for label, child in node.items():
            leaf = type(child) is int
            for rows, bit in edges[label]:
                flip = sign ^ (odd & -bit).bit_count() & 1 if bit else sign
                out.append((rows, child ^ flip if leaf else descend(child, odd | bit, flip)))
        return out

    trie = descend(top, 0, 0)
    descend = None  # break the closure's cycle through its own cell
    return trie


def accumulate_evaluations(poly: GradedPolynomial, algebra: GradedAlgebra) -> EvaluationTable:
    """Assignment table of poly over the homogeneous basis assignments whose
    chained matrix units have a nonzero product (see EvaluationTable)."""
    return evaluation_table(poly, algebra, {vid: (g,) for vid, g in poly.degree_of.items()})


def evaluation_table(
    poly: GradedPolynomial, algebra: GradedAlgebra, degrees: dict[int, tuple[int, ...]]
) -> EvaluationTable:
    """The walk's table of poly when variable vid takes, as alternative j, the
    basis elements of degree degrees[vid][j] (see WalkPlan); a degree outside
    the algebra's group raises DegreeMismatchError.  The envelope check calls
    it directly, so accumulate_evaluations counts the oracle's walks only."""
    return _walk_paths(WalkPlan(poly, algebra, degrees), algebra)


class WalkPlan:
    """Every input of one walk, built from evaluation_table's arguments; the
    walk reads only its plan and the algebra:
    - coeffs: c at index 2k and -c at 2k + 1, None until a leaf first reaches
      a -c that is not itself a coefficient (the walk fills it in);
    - terms: the walked (coefficient index, label path) pairs, one monomial
      per orbit; edges: each label's alternatives, as _prefix_trie reads them;
      trie: _prefix_trie(terms, edges);
    - classes: the alternation classes, each as its sorted ids, and
      member_weights: their members' slot weights, class by class;
    - radix and width: a key's digit radix and its number of slots."""

    __slots__ = ("coeffs", "terms", "edges", "classes", "trie", "radix", "width", "member_weights")

    def __init__(self, poly: GradedPolynomial, algebra: GradedAlgebra, degrees: dict) -> None:
        vids = poly.var_ids()
        basis, by_row = algebra.basis, algebra.basis_by_degree_and_row
        size, order = algebra.presentation.size, algebra.presentation.group.order
        nb, d, mm = len(basis), len(vids), size * size
        radix = nb * max(map(len, degrees.values()), default=1)
        weight, edges = {}, {}
        for s, vid in enumerate(vids):
            w = weight[vid] = radix ** (d - 1 - s)
            edges[vid] = alternatives = []
            for j, g in enumerate(degrees[vid]):
                if not 0 <= g < order:
                    raise DegreeMismatchError(f"x{vid}: degree {g} is not an element of the group")
                # Per row: the ((j nb + k) * w, H-part k // mm, column) of the
                # degree-g basis elements k there (basis[k][0] is members[k // mm]).
                rows = [
                    tuple(((j * nb + k) * w, k // mm, basis[k][2]) for k in by_row(g, row))
                    for row in range(size)
                ]
                alternatives.append((rows, j << s))
        # Keyed by (nums, den), as poly has one order; a -c not in poly stays None.
        index: dict[tuple, int] = {}
        coeffs: list[Optional[CycScalar]] = []
        terms = []
        for m in poly.monomials:
            c = m.coeff
            key = c.nums, c.den
            ci = index.get(key)
            if ci is None:
                ci = index[key] = len(coeffs)
                index[tuple(map(neg, c.nums)), c.den] = ci + 1
                coeffs += (None, None)
            coeffs[ci] = c
            terms.append((ci, m.order))
        # Classes need one alternative per variable.
        classes = _alternation_classes(poly, terms) if radix == nb else []
        for j, members in enumerate(classes):
            # One term per orbit: the monomial with its members in ascending id
            # order.  A member's edges per row are a list (a free label's are a
            # tuple) of (H-part, column, (class, basis index) bit, the class's
            # bits above it); _walk_paths adds its digit.
            member = frozenset(members).__contains__
            terms = [term for term in terms if list(filter(member, term[1])) == members]
            for vid in members:
                rows = [
                    [
                        (k // mm, basis[k][2], 1 << j * nb + k, (1 << nb) - (2 << k) << j * nb)
                        for k in by_row(poly.degree_of[vid], row)
                    ]
                    for row in range(size)
                ]
                edges[vid] = [(rows, 0)]
        if any(order[-1] in members for members in classes for _, order in terms):
            # Paths end off the classes: a last step by u_e (x) e_cc keeps key and value.
            terms = [(ci, order + (None,)) for ci, order in terms]
            edges[None] = [([((0, 0, c),) for c in range(size)], 0)]
        self.coeffs, self.terms, self.edges, self.classes = coeffs, terms, edges, classes
        self.trie, self.radix, self.width = _prefix_trie(terms, edges), radix, d
        self.member_weights = [weight[v] for c in classes for v in c]


def _alternation_classes(poly: GradedPolynomial, terms: list) -> list[list[int]]:
    """The alternation classes of poly (see the module docstring), each as
    its sorted ids; terms are its (coefficient index, order) pairs, where the
    negation of index i is i ^ 1.

    Every alternating pair (a, b) maps the first monomial to its (a b)-swap,
    which is then a monomial with the opposite coefficient, so candidate pairs
    are read off the monomials that differ from the first in exactly two
    places and have that coefficient.  A non-alternating polynomial usually
    has none, and costs one pass.  A pair is checked on every monomial only
    when it joins two classes: a pair inside a class is alternating by the
    symmetric-group argument."""
    if not terms or len(terms) % 2:
        return []  # an alternating pair pairs up the monomials
    degree_of = poly.degree_of
    c0, first = terms[0]
    candidates = []
    for ci, order in terms[1:]:
        if sum(map(ne, order, first)) == 2:
            a, b = (v for v, w in zip(first, order) if v != w)
            if degree_of[a] == degree_of[b] and ci == c0 ^ 1:
                candidates.append((a, b))
    if not candidates:
        return []
    at = {order: ci for ci, order in terms}
    parent = {vid: vid for vid in degree_of}

    def root(vid: int) -> int:
        while parent[vid] != vid:
            vid = parent[vid]
        return vid

    for a, b in candidates:
        ra, rb = root(a), root(b)
        if ra == rb:
            continue
        for ci, order in terms:
            swapped = list(order)
            swapped[order.index(a)], swapped[order.index(b)] = b, a
            if at.get(tuple(swapped)) != ci ^ 1:
                break
        else:
            parent[max(ra, rb)] = min(ra, rb)
    classes: dict[int, list[int]] = {}
    for vid in sorted(degree_of):
        classes.setdefault(root(vid), []).append(vid)
    return [members for members in classes.values() if len(members) > 1]


def _walk_paths(plan: WalkPlan, algebra: GradedAlgebra) -> EvaluationTable:
    """The chained-path walk behind accumulate_evaluations and the envelope
    check: it runs plan over algebra.  A free entry's edges hold, per row, the
    (weighted key digit, local H-part, column) of the basis elements it may
    take there, and a class member's a list of (H-part, column, bit, above);
    every root-to-leaf path visits each of the width key slots once, and a
    key is the sum of its path's weighted digits (see WalkPlan)."""
    coeffs, radix, member_weights = plan.coeffs, plan.radix, plan.member_weights
    _check_scalar_order(coeffs[0].order if coeffs else None, algebra)
    N = algebra.modulus
    scale = lcm(*(coeff.den for coeff in coeffs[::2]))  # -c has the den of c
    acc = EvaluationTable(N, scale, radix, plan.width)
    if not plan.trie:
        return acc
    p = algebra.presentation
    m, members = p.size, p.subgroup.members
    mul = p.subgroup.local_table()
    # Row 0 is zero: build_algebra validated the cocycle, so it is normalized.
    # Every exponent sum is a multiple of g = gcd(N, cocycle exponents), so
    # the walk sums e // g modulo N // g and multiplies by g only on first use.
    exps = p.cocycle.exps
    g = gcd(N, *chain.from_iterable(exps))
    if g > 1:
        exps = [[v // g for v in row] for row in exps]
    n = N // g
    # Per coefficient, L * coeff * zeta^(g e) by reduced exponent e, filled on
    # first use.
    vectors: list[Optional[list]] = [None] * len(coeffs)
    # Class state: used holds the (class, digit) bits on the path, so a
    # repeated digit is cut where it is placed; members are placed in slot
    # order, so flip, the parity of the inversions within classes, gains the
    # placed digits above the new one (used & above).  kv sums the other
    # slots' weighted digits.  At a leaf's parent the key adds used's digits
    # ascending per class, memoized in parts, and each leaf index is ci ^ flip.
    used = flip = 0
    parts: dict[int, int] = {}

    def walk(node: list, ends: list, col: int, hprod: int, expsum: int, kv: int) -> None:
        nonlocal used, flip
        mul_row, exp_row = mul[hprod], exps[hprod]
        if type(node[0][1]) is not int:
            for per_row, child in node:
                row = per_row[col]
                if type(row) is list:
                    # A member entry restores the state its edges set.
                    held, odd = used, flip
                    for h, c, bit, above in row:
                        if not held & bit:
                            used, flip = held | bit, odd ^ (held & above).bit_count() & 1
                            walk(child, ends, c, mul_row[h], expsum + exp_row[h], kv)
                    used, flip = held, odd
                else:
                    for k, h, c in row:
                        walk(child, ends, c, mul_row[h], expsum + exp_row[h], kv + k)
            return
        if used:
            part = parts.get(used)
            if part is None:
                digits = [p % radix for p in range(used.bit_length()) if used >> p & 1]
                part = parts[used] = sum(t * w for t, w in zip(digits, member_weights))
            kv += part
        for per_row, ci in node:
            ci ^= flip
            coeff, cached = coeffs[ci], vectors[ci]
            if cached is None:
                cached = vectors[ci] = [None] * n
                if coeff is None:
                    coeff = coeffs[ci] = -coeffs[ci ^ 1]
            for k, h, c in per_row[col]:
                e = (expsum + exp_row[h]) % n
                vec = cached[e]
                if vec is None:
                    vec = cached[e] = coeff.scaled_ints(scale, e * g)
                key = kv + k
                t = ends[mul_row[h]][c]
                bucket = acc.get(key)
                if not bucket:
                    acc[key] = {t: vec}
                    continue
                prev = bucket.get(t)
                if prev is None:
                    bucket[t] = vec
                    continue
                total = tuple(map(add, prev, vec))
                if any(total):
                    bucket[t] = total
                elif len(bucket) > 1:
                    del bucket[t]
                else:
                    acc[key] = _ZERO

    # A chain starting in row r is a walk from the identity (local index 0)
    # with column r; its value triples (members[h], r, col) are ends[h][col],
    # one object shared by all keys.
    for r in range(m):
        ends = [[(h, r, c) for c in range(m)] for h in members]
        walk(plan.trie, ends, r, 0, 0, 0)
    # walk holds itself through its closure cell.  Clearing the cell breaks
    # that cycle, so the table is freed when the caller drops it, not at the
    # next full collection.
    walk = None
    return acc


def check_identity(f: GradedPolynomial, algebra: GradedAlgebra) -> IdentityReport:
    """Exhaustive multilinear identity test over homogeneous basis assignments.

    Products built by disjoint_product are decided through the factors'
    evaluation spans: a product on disjoint variables is an identity iff every
    product of span vectors vanishes, so the concatenated monomials are never
    walked."""
    _check_scalar_order(f.scalar_order, algebra)
    if f.factors is not None:
        return _check_identity_factored(f, algebra)
    acc = accumulate_evaluations(f, algebra)
    key = min((key for key, bucket in acc.items() if bucket), default=None)
    if key is None:
        return IdentityReport(True)
    assign = {vid: algebra.basis[k] for vid, k in zip(f.var_ids(), acc.digits(key))}
    return IdentityReport(False, assign, acc.value(key))


def is_identity(f: GradedPolynomial, algebra: GradedAlgebra) -> bool:
    return check_identity(f, algebra).identity


def evaluation_span(f: GradedPolynomial, algebra: GradedAlgebra) -> Span:
    """Reduced span of all values of f on homogeneous basis assignments."""
    if f.factors is not None:
        s1, s2 = _factor_spans(*f.factors, algebra)
        return span_of(
            algebra.mul_vectors(u, v) for u in s1.basis() for v in s2.basis()
        )
    acc = accumulate_evaluations(f, algebra)
    # A repeated value adds nothing to the span, so each distinct one is
    # converted and added once, at its first key.
    first: dict[frozenset, int] = {}
    for key in sorted(k for k, bucket in acc.items() if bucket):
        first.setdefault(frozenset(acc[key].items()), key)
    return span_of(acc.value(key) for key in first.values())


def _factor_spans(
    left: GradedPolynomial, right: GradedPolynomial, algebra: GradedAlgebra
) -> tuple[Span, Span]:
    """The evaluation spans of two factors, from one walk when they have the
    same shape (see GradedPolynomial.shape).  A factored polynomial's span is
    built from its own factors, so it is never shared."""
    s1 = evaluation_span(left, algebra)
    if left.factors is None and right.factors is None and left.shape() == right.shape():
        return s1, s1
    return s1, evaluation_span(right, algebra)


def _check_identity_factored(f: GradedPolynomial, algebra: GradedAlgebra) -> IdentityReport:
    s1, s2 = _factor_spans(*f.factors, algebra)
    for u in s1.basis():
        for v in s2.basis():
            if algebra.mul_vectors(u, v):
                assign, value = _factored_counterexample(f, algebra)
                return IdentityReport(False, assign, value)
    return IdentityReport(True)


def _value_pairs(
    f: GradedPolynomial, algebra: GradedAlgebra
) -> Iterator[tuple[dict[int, Triple], dict]]:
    """Lazy (assignment, nonzero value) stream in deterministic order."""
    if f.factors is not None:
        left, right = f.factors
        right_pairs = _Replay(_value_pairs(right, algebra))
        for a1, v1 in _value_pairs(left, algebra):
            for a2, v2 in right_pairs:
                prod = algebra.mul_vectors(v1, v2)
                if prod:
                    merged = dict(a1)
                    merged.update(a2)
                    yield merged, prod
        return
    acc = accumulate_evaluations(f, algebra)
    vids = f.var_ids()
    for key in sorted(k for k, bucket in acc.items() if bucket):
        assign = {vid: algebra.basis[k] for vid, k in zip(vids, acc.digits(key))}
        yield assign, acc.value(key)


class _Replay:
    """A lazy stream that can be iterated again: each item is drawn from the
    stream once, on the first pass that reaches it, and replayed after."""

    def __init__(self, stream: Iterator):
        self._stream = stream
        self._seen: list = []

    def __iter__(self) -> Iterator:
        seen, i = self._seen, 0
        while True:
            if i == len(seen):
                item = next(self._stream, None)
                if item is None:
                    return
                seen.append(item)
            yield seen[i]
            i += 1


def _factored_counterexample(f: GradedPolynomial, algebra: GradedAlgebra):
    for assign, value in _value_pairs(f, algebra):
        return assign, value
    raise VerificationFailedError(
        "span product is nonzero but no assignment gives a nonzero value"
    )
