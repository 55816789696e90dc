"""The graded simple algebra F^cH (x) M_m(F) built from a presentation.

A presentation is (H, c, g-tuple); the induced grading puts the basis element
u_h (x) e_{i,j} in degree g_i^-1 h g_j.  Elements are sparse maps from basis
triples (h, i, j) to cyclotomic scalars.  The module also implements the
three presentation moves, deterministic normalization and presentation
equivalence.

Normalization conjugates one least-multiplicity coset onto H, the one with
the least rep, and sorts the canonical coset reps of the entries.  Each
least-multiplicity coset gives such a normal form; equivalence compares q's
normal form with each of p's, with no search over the conjugates of p (the
proof is in presentations_equivalent).
"""

from __future__ import annotations

from typing import Iterator, Optional

from .cohomology import Cocycle2, CoboundarySystem, classes_cohomologous
from .errors import AlgebraMismatchError, CocycleError, HypothesisError, NotSubgroupError
from .groups import CosetDecomposition, FiniteGroup, Subgroup
from .linalg import vec_clean
from .records import Record
from .scalars import CycScalar

Triple = tuple[int, int, int]  # (h, row, col): u_h (x) e_{row, col}, 0-based

_set = object.__setattr__


class Presentation(Record):
    """The triple (H, c, g-tuple) defining a graded simple algebra."""

    __slots__ = ("group", "subgroup", "cocycle", "grading")

    def __init__(
        self, group: FiniteGroup, subgroup: Subgroup, cocycle: Cocycle2, grading: tuple[int, ...]
    ):
        if subgroup.parent != group:
            raise NotSubgroupError("subgroup does not live in the presentation group")
        if cocycle.subgroup != subgroup:
            raise CocycleError("cocycle is defined on a different subgroup")
        if not grading:
            raise HypothesisError("grading tuple must be nonempty")
        for g in grading:
            if not (0 <= g < group.order):
                raise HypothesisError(f"grading entry {g} out of range")
        _set(self, "group", group)
        _set(self, "subgroup", subgroup)
        _set(self, "cocycle", cocycle)
        _set(self, "grading", tuple(grading))

    @property
    def size(self) -> int:
        return len(self.grading)

    def cosets(self) -> CosetDecomposition:
        return self.subgroup.right_cosets()

    def coset_positions(self) -> tuple[tuple[int, ...], ...]:
        """The tuple positions in each right coset of H, in cosets().reps
        order and in tuple order within a coset (empty for a coset the tuple
        misses).  Built on each call."""
        cosets = self.cosets()
        out: list[list[int]] = [[] for _ in cosets.reps]
        for i, g in enumerate(self.grading):
            out[cosets.coset_of[g]].append(i)
        return tuple(map(tuple, out))

    def coset_multiplicities(self) -> dict[int, int]:
        """Map canonical right-coset representative -> multiplicity in the tuple
        (all representatives appear, possibly with multiplicity 0)."""
        return dict(zip(self.cosets().reps, map(len, self.coset_positions())))

    def support(self) -> frozenset[int]:
        """The degrees g_i^-1 h g_j, h in H, of the presented algebra's basis,
        with no algebra built.  They are read off the Cayley rows of each
        distinct g_i^-1, as GradedAlgebra reads its degrees: the left coset
        g_i^-1 H first, then each of its elements times each distinct g_j."""
        G = self.group
        table, members, entries = G.table, self.subgroup.members, set(self.grading)
        left = {row[h] for row in [table[G.inv(g)] for g in entries] for h in members}
        return frozenset([table[x][g] for x in left for g in entries])

    def is_connected(self) -> bool:
        """Whether the support generates the group, the paper's standing
        hypothesis on a grading."""
        return self.group.generates(self.support())


class GradedAlgebra:
    """Materialized algebra with an indexed homogeneous basis."""

    __slots__ = (
        "presentation",
        "basis",
        "index",
        "degree",
        "components",
        "_by_degree_row",
        "_exps",
        "_local",
        "mul_table",
        "_one",
    )

    def __init__(self, presentation: Presentation):
        presentation.cocycle.require_valid()
        self.presentation = presentation
        H = presentation.subgroup
        G = presentation.group
        gs = presentation.grading
        # deg(h, i, j) = g_i^-1 h g_j, read off the Cayley rows of each g_i^-1.
        table, m = G.table, len(gs)
        inverse_rows = [table[G.inv(g)] for g in gs]
        basis = [(h, i, j) for h in H.members for i in range(m) for j in range(m)]
        degree = [table[row[h]][g] for h in H.members for row in inverse_rows for g in gs]
        self.basis = tuple(basis)
        self.index = {t: k for k, t in enumerate(basis)}
        self.degree = tuple(degree)
        components: dict[int, list[int]] = {}
        by_row: dict[tuple[int, int], list[int]] = {}
        for k, t in enumerate(basis):
            g = degree[k]
            components.setdefault(g, []).append(k)
            by_row.setdefault((g, t[1]), []).append(k)
        self.components = {g: tuple(v) for g, v in components.items()}
        self._by_degree_row = {key: tuple(v) for key, v in by_row.items()}
        # For mul_basis: the cocycle's rows, read through H's local indices,
        # and the group's Cayley rows.
        self._exps = presentation.cocycle.exps
        self._local = H.local
        self.mul_table = G.table
        self._one = None

    # -- structure ------------------------------------------------------------

    @property
    def group(self) -> FiniteGroup:
        return self.presentation.group

    @property
    def modulus(self) -> int:
        return self.presentation.cocycle.modulus

    @property
    def dim(self) -> int:
        return len(self.basis)

    def homogeneous_basis(self, g: int) -> tuple[int, ...]:
        """Indices of the basis elements of degree g (possibly empty)."""
        return self.components.get(g, ())

    def basis_by_degree_and_row(self, g: int, row: int) -> tuple[int, ...]:
        return self._by_degree_row.get((g, row), ())

    def mul_basis(self, a: Triple, b: Triple) -> Optional[tuple[int, Triple]]:
        """Structure constants: returns (scalar exponent, triple) or None for 0."""
        if a[2] != b[1]:
            return None
        ha, hb = a[0], b[0]
        local = self._local
        return self._exps[local[ha]][local[hb]], (self.mul_table[ha][hb], a[1], b[2])

    def mul_vectors(self, u: dict, v: dict) -> dict[Triple, CycScalar]:
        """Product of two sparse triple -> scalar maps, zero terms dropped.
        The one structure-constant kernel behind every element product."""
        out: dict[Triple, CycScalar] = {}
        for ta, ca in u.items():
            for tb, cb in v.items():
                hit = self.mul_basis(ta, tb)
                if hit is None:
                    continue
                exp, t = hit
                contrib = (ca * cb).shift_root(exp)
                out[t] = out[t] + contrib if t in out else contrib
        return vec_clean(out)

    # -- elements ------------------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        if self._one is None:
            unit = CycScalar.one(self.modulus)
            terms = {(0, i, i): unit for i in range(self.presentation.size)}
            self._one = AlgebraElement(self, terms)
        return self._one

    def basis_element(self, k: int) -> "AlgebraElement":
        return AlgebraElement(self, {self.basis[k]: CycScalar.one(self.modulus)})

    def element(self, terms: dict[Triple, CycScalar]) -> "AlgebraElement":
        return AlgebraElement(self, terms)

    def __repr__(self) -> str:
        p = self.presentation
        return (
            f"GradedAlgebra(G={p.group.name}, |H|={len(p.subgroup)}, "
            f"m={p.size}, dim={self.dim})"
        )


def build_algebra(presentation: Presentation) -> GradedAlgebra:
    return GradedAlgebra(presentation)


class AlgebraElement:
    """Sparse element: map (h, i, j) -> nonzero CycScalar."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: GradedAlgebra, terms: dict[Triple, CycScalar]):
        self.algebra = algebra
        self.terms = {t: c for t, c in terms.items() if c}

    def _check(self, other: "AlgebraElement") -> None:
        if self.algebra is not other.algebra:
            raise AlgebraMismatchError("elements belong to different algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = out[t] + c if t in out else c
        return AlgebraElement(self.algebra, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, {t: -c for t, c in self.terms.items()})

    def scale(self, s: CycScalar) -> "AlgebraElement":
        return AlgebraElement(self.algebra, {t: s * c for t, c in self.terms.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.algebra, self.algebra.mul_vectors(self.terms, other.terms))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.algebra), tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def is_homogeneous_of(self, g: int) -> bool:
        return all(
            self.algebra.degree[self.algebra.index[t]] == g for t in self.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for t in sorted(self.terms):
            bits.append(f"({self.terms[t].pretty()})*u{t[0]}e[{t[1] + 1},{t[2] + 1}]")
        return " + ".join(bits)


# -- moves and normalization -----------------------------------------------------


class M1(Record):
    """Permute the grading tuple: new[i] = old[sigma[i]]."""

    __slots__ = ("sigma",)

    def __init__(self, sigma: tuple[int, ...]):
        _set(self, "sigma", sigma)


class M2(Record):
    """Left-multiply tuple entries by subgroup elements: new[i] = hs[i] * old[i]."""

    __slots__ = ("hs",)

    def __init__(self, hs: tuple[int, ...]):
        _set(self, "hs", hs)


class M3(Record):
    """Conjugate the presentation by g: H -> gHg^-1, entries -> g * old[i]."""

    __slots__ = ("g",)

    def __init__(self, g: int):
        _set(self, "g", g)


Move = M1 | M2 | M3


def apply_move(p: Presentation, move: Move) -> Presentation:
    G = p.group
    if isinstance(move, M1):
        sigma = tuple(move.sigma)
        if sorted(sigma) != list(range(p.size)):
            raise HypothesisError("M1 requires a permutation of tuple positions")
        return Presentation(G, p.subgroup, p.cocycle, tuple(p.grading[s] for s in sigma))
    if isinstance(move, M2):
        hs = tuple(move.hs)
        if len(hs) != p.size:
            raise HypothesisError("M2 needs one subgroup element per tuple entry")
        for h in hs:
            if h not in p.subgroup:
                raise NotSubgroupError(f"M2 element {h} is not in H")
        return Presentation(
            G, p.subgroup, p.cocycle, tuple(G.mul(h, g) for h, g in zip(hs, p.grading))
        )
    if isinstance(move, M3):
        g = move.g
        cocycle = p.cocycle.transport(g)
        return Presentation(
            G, cocycle.subgroup, cocycle, tuple(G.mul(g, x) for x in p.grading)
        )
    raise TypeError(f"unknown move {move!r}")


def _normal_forms(p: Presentation) -> Iterator[Presentation]:
    """Yield normal forms of p, one per least-multiplicity coset H r in rep
    order: M3(r^-1) moves H r onto the identity coset, then every entry is
    replaced by its canonical coset rep (an M2, since rep(g) g^-1 lies in H)
    and the entries are sorted by (multiplicity, rep) (an M1).  The identity
    rep 0 sorts first among the least-multiplicity blocks."""
    G = p.group
    mults = p.coset_multiplicities()
    least = min(n for n in mults.values() if n)
    for r, n in mults.items():
        if n == least:
            moved = apply_move(p, M3(G.inv(r)))
            reps = list(map(moved.cosets().rep_of, moved.grading))
            grading = sorted(reps, key=lambda x: (reps.count(x), x))
            yield Presentation(G, moved.subgroup, moved.cocycle, tuple(grading))


def normalize_presentation(p: Presentation) -> Presentation:
    """Deterministic normalized form: entries are canonical coset reps grouped
    in blocks, block multiplicities nondecreasing, first block rep = identity.
    Realized as one M3, one M2 and one M1, so the algebra is unchanged up to
    graded isomorphism.  The conjugator is the least rep of a smallest-
    multiplicity coset."""
    return next(_normal_forms(p))


def is_normalized(p: Presentation) -> bool:
    return normalize_presentation(p) == p


def presentations_equivalent(p: Presentation, q: Presentation) -> bool:
    """True iff p and q present graded-isomorphic algebras: some normal form
    of p has q's normalized subgroup and grading, with a cohomologous cocycle.
    Every matching normal form lives on q's subgroup, so its congruence
    system is diagonalized once, at the first match.  Each distinct cocycle
    table is tried once: a repeated one has already answered False.

    The normal forms of p, one per least-multiplicity coset, stand for the
    normalizations of every conjugate M3(g) p:

    1. M3(a) M3(b) = M3(ab), with equal tables, so normalize(M3(g) p) is the
       M2/M1 step applied to M3(t^-1 g) p, where t is the target chosen for
       M3(g) p.
    2. M3 keeps coset multiplicities, and the identity coset of M3(x) p is
       the image of H x^-1.  So x = t^-1 g ranges over r^-1 H for the
       least-multiplicity reps r.
    3. For h in H, M3(h) fixes H and every coset H g_i.  It moves c by an
       inner automorphism, and inner automorphisms act trivially on
       H^2(H, F*) (Brown, Cohomology of Groups, Prop. II.6.2).  So x = r^-1
       stands for its whole coset, and the M2/M1 step gives the same
       subgroup and grading from every x in r^-1 H."""
    if p.group != q.group:
        raise HypothesisError("presentations must share the ambient group")
    if p.size != q.size:
        return False
    nq = normalize_presentation(q)
    system = None
    tried = set()
    for np in _normal_forms(p):
        if np.subgroup != nq.subgroup or np.grading != nq.grading:
            continue
        if np.cocycle.exps in tried:
            continue
        tried.add(np.cocycle.exps)
        if system is None:
            system = CoboundarySystem(nq.subgroup)
        if classes_cohomologous(np.cocycle, nq.cocycle, system):
            return True
    return False


# -- block structure (normalized view) ----------------------------------------------


class BlockStructure(Record):
    """Grouping of tuple positions into coset blocks for a grouped tuple.

    reps[b] is the coset representative of block b, positions[b] the tuple
    positions it occupies (consecutive), block_of[i] the block of position i.
    equal_multiplicity is True when all blocks share one size r.
    """

    __slots__ = ("reps", "positions", "block_of", "cosets")

    def __init__(
        self,
        reps: tuple[int, ...],
        positions: tuple[tuple[int, ...], ...],
        block_of: tuple[int, ...],
        cosets: CosetDecomposition,
    ):
        _set(self, "reps", reps)
        _set(self, "positions", positions)
        _set(self, "block_of", block_of)
        _set(self, "cosets", cosets)

    @property
    def k(self) -> int:
        return len(self.reps)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(pos) for pos in self.positions)

    @property
    def equal_multiplicity(self) -> bool:
        return len(set(self.sizes)) == 1

    @property
    def r(self) -> int:
        if not self.equal_multiplicity:
            raise HypothesisError("blocks have unequal multiplicities")
        return len(self.positions[0])


def block_structure(p: Presentation) -> BlockStructure:
    """Blocks of a tuple whose entries are grouped canonical coset reps.

    Raises HypothesisError when entries are not canonical reps or equal reps
    are not adjacent (normalize first, or apply a suitable M1).
    """
    cosets = p.cosets()
    for g in p.grading:
        if cosets.rep_of(g) != g:
            raise HypothesisError(
                f"tuple entry {g} is not a canonical coset representative"
            )
    positions = p.coset_positions()
    # Disjoint and nonempty, so sorting orders the blocks by first position.
    blocks = sorted(pos for pos in positions if pos)
    if any(pos[-1] - pos[0] >= len(pos) for pos in blocks):
        raise HypothesisError("equal coset reps must occupy adjacent positions")
    missing = [rep for rep, pos in zip(cosets.reps, positions) if not pos]
    if missing:
        raise HypothesisError(f"cosets {missing} are not represented")
    return BlockStructure(
        tuple(p.grading[pos[0]] for pos in blocks),
        tuple(blocks),
        tuple(b for b, pos in enumerate(blocks) for _ in pos),
        cosets,
    )
