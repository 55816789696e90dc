"""Finite groups as validated Cayley tables, with subgroups and cosets.

Elements are dense indices 0..order-1 with the identity at index 0 (tables
given with the identity elsewhere are relabeled on construction).  Orders
beyond 64 are rejected, by the constructors before they build a table:
everything downstream is desk-scale exact computation, not a group-theory
system.

A table is validated as a Latin square with a two-sided identity, and then
for associativity by Light's test (Clifford and Preston, The Algebraic
Theory of Semigroups I, 1961, section 1.2): (x a) y = x (a y) is checked for
all x, y only for a in a generating set S, n^2 |S| checks instead of n^3.
The set of a that pass is closed under products (when a and b pass,
(x ab) y = ((x a) b) y = (x a)(b y) = x (a (b y)) = x ((ab) y)) and holds the
identity, so it holds every left-nested product of generators, which is
every element.  On a failure the n^3 scan runs in (a, b, c) order, so the
error names the first failing triple.  The Latin-square check compares each
row, and each column of zip(*rows), with the set 0..n-1; only a row that
fails is scanned entry by entry, to name an out-of-range entry before a
repeat.  Light's test reads the row x (a y), over y, off row x with one
itemgetter per generator a.

The tables that cyclic, dihedral, symmetric and direct_product build are
group tables with identity 0 by construction (rotation r^0 and the sorted
identity permutation come first) and are not validated again.  They are
built by whole rows: a cyclic row is a slice of 0..n-1 written out twice,
and a dihedral half-row a slice of the rotations or of the reflections
written out twice; an S_n entry (a, b) is the position of pa o pb, read off
pa by itemgetter(*pb); a product row joins the rows of its factors.

A subset S holding the identity is closed under products iff S t is inside S
for each greedy right generator t of S (right_generators over S): every
member of S is a product t1 ... tk of them, and the x with S x inside S hold
the identity and are closed under products (S xy = (S x) y lies in S y, so in
S).  When S is a subgroup there are at most log2 |S| generators, so the test
costs |S| log2 |S| products instead of |S|^2.  A finite set closed under
products is a subgroup.  Each set of greedy generators is computed once: a
Subgroup keeps the ones its closure check finds, and FiniteGroup.generators()
computes the group's on its first call.  The normality test, the cocycle
check and the coboundary system read them there.  Membership in a subgroup
reads its local dict (member -> local index); no second set is kept.

The subgroup generated by a set X is the closure of the identity under right
multiplication by X (generated_subgroup): the closure is closed under
products by the argument above, so it is a subgroup, and every subgroup
holding X holds it.  No inverses are needed, as x^-1 = x^(k-1) for x of
order k.  The closure walk is the one right_generators makes, so it runs on
the greedy generators among X, at most log2 of the closure's order.

H is normal in G iff s t s^-1 lies in H for every greedy generator s of G
and t of H (Subgroup.is_normal): at most log2 |G| log2 |H| conjugations
instead of |G||H|.  Conjugation by s is a homomorphism, so s H s^-1 is
generated by the s t s^-1 and lies in H when they do.  The x with
x H x^-1 inside H hold the identity and are closed under products
(xy H y^-1 x^-1 lies in x H x^-1), so they hold every product of the
generators of G, which is every element.

The paper's relation on right-coset representatives, g_i ~ g_j iff
g_i^-1 H g_j meets H, says h g_j = g_i t for some h, t in H, that is
H g_i H = H g_j H: the classes are the double cosets of H
(equivalence_classes_tilde).  The double coset H g H is the union of the
right cosets H g t for t in H, so each class is the orbit of one right coset
under right multiplication by H, read off that coset's row of the step table
coset_steps(H), whose entry steps[i][t] = (h, j) says r_i t = h r_j.  The
same entries give the h of a relation: h g_j = g_i t with t in H.
"""

from __future__ import annotations

from itertools import combinations, permutations
from operator import index, itemgetter

from .errors import HypothesisError, InvalidTableError, NotSubgroupError
from .records import Record

MAX_ORDER = 64


class FiniteGroup:
    """A finite group given by its multiplication table on 0..order-1."""

    __slots__ = ("order", "table", "_inv", "_gens", "name", "product_factors")

    def __init__(self, table, name: str = "G", product_factors=None, *, _trusted=False):
        """_trusted: the caller, a constructor of this class, built the table
        as a group table with identity 0, so it is not validated again."""
        rows = tuple(map(tuple, table)) if _trusted else _read_rows(table)
        if not _trusted:
            e = _validate_table(rows)
            if e != 0:
                rows = _relabel(rows, e)
        self.order = len(rows)
        self.table = rows
        self.name = name
        self.product_factors = product_factors
        self._gens = None
        try:
            self._inv = tuple([row.index(0) for row in rows])
        except ValueError:
            a = next(a for a, row in enumerate(rows) if 0 not in row)
            raise InvalidTableError(f"element {a} has no inverse") from None

    # -- basic operations ---------------------------------------------------

    @property
    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, g: int, a: int) -> int:
        """g a g^-1."""
        return self.mul(self.mul(g, a), self.inv(g))

    def elements(self) -> range:
        return range(self.order)

    def generators(self) -> tuple[int, ...]:
        """The greedy right generators of the group (right_generators), at
        most log2 of its order of them.  Computed on the first call, and the
        same tuple on every later one."""
        if self._gens is None:
            self._gens = tuple(right_generators(self.table))
        return self._gens

    def product_seq(self, seq) -> int:
        out = 0
        for a in seq:
            out = self.table[out][a]
        return out

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in self.elements() for b in self.elements())

    def element_order(self, a: int) -> int:
        table = self.table
        n, x = 1, a
        while x != 0:
            x = table[x][a]
            n += 1
        return n

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, FiniteGroup) and self.table == other.table)

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_table(cls, table, name: str = "G") -> "FiniteGroup":
        return cls(table, name=name)

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        _check_order(n)
        # Row a is a, a+1, ..., n-1, 0, ..., a-1: a slice of 0..n-1 twice.
        twice = tuple(range(n)) * 2
        table = [twice[a : a + n] for a in range(n)]
        return cls(table, name=f"C{n}", _trusted=True)

    @classmethod
    def dihedral(cls, n: int) -> "FiniteGroup":
        """Dihedral group of order 2n: indices 0..n-1 are rotations r^i,
        n..2n-1 are reflections s*r^i."""
        if n < 1:
            raise InvalidTableError("dihedral parameter must be >= 1")
        size = 2 * n
        _check_order(size)
        # r^a r^b = r^(a+b), r^a s r^b = s r^(b-a), s r^a r^b = s r^(a+b) and
        # s r^a s r^b = r^(b-a): each half-row is a slice of the rotations or
        # of the reflections, each written out twice.
        rots, refls = tuple(range(n)) * 2, tuple(range(n, size)) * 2
        table = [rots[a : a + n] + refls[n - a : size - a] for a in range(n)]
        table += [refls[a : a + n] + rots[n - a : size - a] for a in range(n)]
        return cls(table, name=f"D{n}", _trusted=True)

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        if not 0 <= n <= 4:
            raise InvalidTableError("symmetric groups only supported for 0 <= n <= 4")
        if n < 2:  # itemgetter needs two indices to return a tuple
            return cls([[0]], name=f"S{n}", _trusted=True)
        perms = sorted(permutations(range(n)))
        position = {p: i for i, p in enumerate(perms)}
        # Entry (a, b) is pa o pb, i -> pa[pb[i]], which itemgetter(*pb) reads off pa.
        getters = [itemgetter(*pb) for pb in perms]
        table = [[position[get(pa)] for get in getters] for pa in perms]
        return cls(table, name=f"S{n}", _trusted=True)

    @classmethod
    def direct_product(cls, a: "FiniteGroup", b: "FiniteGroup") -> "FiniteGroup":
        """Product group with index (x, y) -> x * |b| + y; factors retained
        so graded machinery can split degrees back into components."""
        nb = b.order
        _check_order(a.order * nb)
        # Row (x, y) lists (x x') * |b| + y y' over x' and then y'.
        scaled = [[v * nb for v in row] for row in a.table]
        table = [
            tuple([p + q for p in row_a for q in row_b]) for row_a in scaled for row_b in b.table
        ]
        return cls(table, name=f"{a.name}x{b.name}", product_factors=(a, b), _trusted=True)

    # -- subgroup machinery ---------------------------------------------------

    def subgroup(self, members) -> "Subgroup":
        return Subgroup(self, members)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,))

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, tuple(self.elements()))

    def generated_subgroup(self, generators) -> "Subgroup":
        """The subgroup generated by generators: the closure of the identity
        under right multiplication by them (module docstring)."""
        return Subgroup(self, _right_closure(self.table, 0, generators)[1])

    def generates(self, elements) -> bool:
        """Whether elements generate the group: the closure that
        generated_subgroup takes reaches every element.  No subgroup is
        built."""
        return len(_right_closure(self.table, 0, elements)[1]) == self.order

    def all_subgroups(self) -> list["Subgroup"]:
        """Every subgroup, by brute-force closure over subsets. Order <= 16 only."""
        if self.order > 16:
            raise HypothesisError("subgroup enumeration is brute force; order too large")
        found = set()
        n = self.order
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        rest = [x for x in range(1, n)]
        for d in divisors:
            for extra in combinations(rest, d - 1):
                members = (0,) + extra
                if _closure_generators(self, dict.fromkeys(members)) is not None:
                    found.add(members)
        return [Subgroup(self, m) for m in sorted(found, key=lambda m: (len(m), m))]


def _closure_generators(group: FiniteGroup, members: dict) -> tuple[int, ...] | None:
    """The greedy right generators of members (a dict keyed by them, the
    identity first, as Subgroup.local) when they are closed under products,
    else None: closure is checked on those generators (module docstring)."""
    rows = [group.table[a] for a in members]
    gens = tuple(right_generators(group.table, 0, members))
    if all(row[t] in members for t in gens for row in rows):
        return gens
    return None


def _check_order(n: int) -> None:
    """Size gate of every table; the constructors call it before building one."""
    if n < 1:
        raise InvalidTableError("empty table")
    if n > MAX_ORDER:
        raise InvalidTableError(f"order {n} exceeds supported maximum {MAX_ORDER}")


def _read_rows(table) -> tuple[tuple[int, ...], ...]:
    """The rows of table, each entry read with operator.index, one map per
    row; InvalidTableError names a row that is not a sequence of integers."""
    rows = []
    for i, row in enumerate(table):
        try:
            rows.append(tuple(map(index, row)))
        except TypeError:
            raise InvalidTableError(f"row {i} is not a list of integers: {row!r}") from None
    return tuple(rows)


def _validate_table(rows) -> int:
    """Raise InvalidTableError unless rows is a group table; returns the
    identity."""
    n = len(rows)
    _check_order(n)
    ordered = tuple(range(n))
    full = set(ordered)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InvalidTableError(f"row {i} has length {len(row)}, expected {n}")
        if set(row) != full:  # an entry out of range is named before a repeat
            for v in row:
                if not (0 <= v < n):
                    raise InvalidTableError(f"row {i} contains out-of-range entry {v}")
            raise InvalidTableError(f"row {i} is not a permutation (Latin square fails)")
    cols = list(zip(*rows))
    for j, col in enumerate(cols):
        if set(col) != full:
            raise InvalidTableError(f"column {j} is not a permutation (Latin square fails)")
    e = next((e for e in range(n) if rows[e] == ordered and cols[e] == ordered), None)
    if e is None:
        raise InvalidTableError("no two-sided identity element")
    # Latin square + identity still needs associativity checked: Light's test
    # on the generators (module docstring), then the first failing triple.
    # A generator is not the identity, so n >= 2 and get returns a tuple.
    for a in right_generators(rows, e):
        get = itemgetter(*rows[a])  # get(row x) is x (a y) over y
        for row_x in rows:
            if get(row_x) != rows[row_x[a]]:
                _raise_first_nonassociative(rows)
    return e


def _raise_first_nonassociative(rows) -> None:
    n = len(rows)
    for a in range(n):
        for b in range(n):
            ab = rows[a][b]
            for c in range(n):
                if rows[ab][c] != rows[a][rows[b][c]]:
                    raise InvalidTableError(f"associativity fails at triple ({a}, {b}, {c})")


def right_generators(table, identity: int = 0, elements=None) -> list[int]:
    """Greedy generators in index order of elements (default: every index of
    the table): x joins when right multiplication by the earlier ones,
    starting at the identity, does not reach it.  Every element is then a
    left-nested product e s1 s2 ... sk of generators; for a group, or a
    subgroup, there are at most log2 of its order of them."""
    return _right_closure(table, identity, elements)[0]


def _right_closure(table, identity: int, elements) -> tuple[list[int], list[int]]:
    """(right_generators(table, identity, elements), the closure of the
    identity under right multiplication by them, in the order reached)."""
    n = len(table)
    reached = [False] * n
    reached[identity] = True
    members = [identity]
    gens: list[int] = []
    for x in range(n) if elements is None else elements:
        if reached[x]:
            continue
        gens.append(x)
        for a in members:  # the list grows while it is walked
            row = table[a]
            for s in gens:
                b = row[s]
                if not reached[b]:
                    reached[b] = True
                    members.append(b)
    return gens, members


def _relabel(rows, e: int):
    """Swap labels 0 <-> e so the identity sits at index 0."""
    n = len(rows)
    sigma = list(range(n))
    sigma[0], sigma[e] = e, 0
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[sigma[a]][sigma[b]] = sigma[rows[a][b]]
    return tuple(tuple(r) for r in out)


class Subgroup:
    """A validated subgroup, stored as the sorted tuple of its members and
    local, the dict from each member to its local index (its position in
    members).  Every membership test reads local."""

    __slots__ = ("parent", "members", "local", "_gens", "_table", "_cosets")

    def __init__(self, parent: FiniteGroup, members):
        try:
            ms = tuple(sorted(set(map(index, members))))
        except TypeError:
            for a in members:
                try:
                    index(a)
                except TypeError:
                    raise NotSubgroupError(f"member {a!r} is not an integer") from None
            raise
        if not ms or ms[0] != 0:
            raise NotSubgroupError("subgroup must contain the identity (index 0)")
        if ms[-1] >= parent.order:  # ms is sorted from 0: name the least one out of range
            bad = next(a for a in ms if a >= parent.order)
            raise NotSubgroupError(f"member {bad} out of range")
        local = {h: i for i, h in enumerate(ms)}  # member -> local index, read-only
        gens = _closure_generators(parent, local)
        if gens is None:
            for a in ms:
                if parent.inv(a) not in local:
                    raise NotSubgroupError(f"member {a} has inverse outside the set")
                for b in ms:
                    if parent.mul(a, b) not in local:
                        raise NotSubgroupError(f"product {a}*{b} leaves the set")
        self.parent = parent
        self.members = ms
        self.local = local
        self._gens = gens
        self._table = None
        self._cosets = None

    def __reduce__(self):
        """copy and pickle rebuild through the constructor, without the
        cached table and cosets."""
        return Subgroup, (self.parent, self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, a: int) -> bool:
        return a in self.local

    def generators(self) -> tuple[int, ...]:
        """The greedy right generators of H over its members in index order
        (right_generators), found by the constructor's closure check."""
        return self._gens

    def local_index(self, h: int) -> int:
        return self.local[h]

    def local_table(self) -> tuple[tuple[int, ...], ...]:
        """H's multiplication table in local indices: entry [i][j] is the
        local index of members[i] * members[j].  Built on the first call,
        and the same object on every later one; for H = G, whose members
        are 0..n-1 in order, it is the parent's Cayley table itself."""
        if self._table is None:
            table, ms = self.parent.table, self.members
            if len(ms) == 1 < len(table):  # itemgetter(0) would give a bare value
                table = ((0,),)
            elif len(ms) < len(table):
                # Per row, one itemgetter picks H's columns and one relabels
                # them through to_local, each element's local index.
                pick = itemgetter(*ms)
                to_local = list(map(self.local.get, range(len(table))))
                table = tuple([itemgetter(*pick(table[a]))(to_local) for a in ms])
            self._table = table
        return self._table

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.parent, self.members))

    def __repr__(self) -> str:
        return f"Subgroup({list(self.members)} of {self.parent.name})"

    def is_normal(self) -> bool:
        """Whether x H x^-1 = H for every x in the parent group, decided on
        the greedy generators of both (module docstring)."""
        g, ms = self.parent, self.local
        table = g.table
        hgens = self._gens
        for s in g.generators():
            row_s, si = table[s], g.inv(s)
            for t in hgens:
                if table[row_s[t]][si] not in ms:
                    return False
        return True

    def conjugate(self, g: int) -> "Subgroup":
        """The subgroup g H g^-1; H itself, with its cached local table and
        cosets, when g normalizes H.  Conjugation is injective, so the image
        is H as soon as it lies inside H."""
        table = self.parent.table
        row_g, gi = table[g], self.parent.inv(g)
        image = [table[row_g[h]][gi] for h in self.members]
        if all(map(self.local.__contains__, image)):
            return self
        return Subgroup(self.parent, image)

    def right_cosets(self) -> "CosetDecomposition":
        """The right cosets of H, built on the first call; the record is
        immutable, so every later call returns the same one."""
        if self._cosets is None:
            n = self.parent.order
            rows = [self.parent.table[h] for h in self.members]
            reps = []
            coset_of = [-1] * n
            for a in range(n):
                if coset_of[a] < 0:
                    for row in rows:
                        coset_of[row[a]] = len(reps)
                    reps.append(a)
            self._cosets = CosetDecomposition(tuple(reps), tuple(coset_of))
        return self._cosets


class CosetDecomposition(Record):
    """Right cosets Hg with deterministic representatives
    (Subgroup.right_cosets).

    Representatives are the lowest element index in each coset; since the
    identity is index 0 the coset H itself is always rep index 0.  coset_of
    maps every group element to the position of its coset's representative
    in reps.
    """

    __slots__ = ("reps", "coset_of")

    def __init__(self, reps: tuple[int, ...], coset_of: tuple[int, ...]):
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "coset_of", coset_of)

    def rep_of(self, a: int) -> int:
        return self.reps[self.coset_of[a]]

    def __len__(self) -> int:
        return len(self.reps)


def coset_steps(H: Subgroup) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The right-coset step table of H: steps[i][t] = (h, j) with
    r_i t = h r_j, h in H, over the representatives r of H.right_cosets().
    Built on each call; a caller that steps often holds the table."""
    G, cosets = H.parent, H.right_cosets()
    table, coset_of, reps = G.table, cosets.coset_of, cosets.reps
    back = [G.inv(r) for r in reps]
    return tuple(
        [tuple([(table[x][back[coset_of[x]]], coset_of[x]) for x in table[r]]) for r in reps]
    )


def equivalence_classes_tilde(H: Subgroup) -> list[list[int]]:
    """Partition of the right-coset representatives under g_i ~ g_j iff
    g_i^-1 H g_j meets H, that is iff H g_i H = H g_j H (module docstring).
    Each class is the orbit of a coset under right multiplication by H, read
    off one coset_steps row.  Classes come out sorted by (size, smallest rep);
    when H is normal every class is a singleton."""
    reps = H.right_cosets().reps
    orbits = {tuple(sorted({row[t][1] for t in H.members})) for row in coset_steps(H)}
    return sorted(([reps[j] for j in orbit] for orbit in orbits), key=lambda c: (len(c), c[0]))
