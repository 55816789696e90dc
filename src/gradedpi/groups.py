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
error names the first failing triple.  The tables that cyclic, dihedral,
symmetric and direct_product build are group tables with identity 0 by
construction (rotation r^0 and the sorted identity permutation come first)
and are not validated again.

A subset S holding the identity is closed under products iff S t is inside S
for each greedy right generator t of S (right_generators over S): every
member of S is a product t1 ... tk of them, and the x with S x inside S hold
the identity and are closed under products (S xy = (S x) y lies in S y, so in
S).  When S is a subgroup there are at most log2 |S| generators, so the test
costs |S| log2 |S| products instead of |S|^2.  A finite set closed under
products is a subgroup.
"""

from __future__ import annotations

from itertools import permutations

from .errors import InvalidTableError, NotSubgroupError
from .records import Record

MAX_ORDER = 64


class FiniteGroup:
    """A finite group given by its multiplication table on 0..order-1."""

    __slots__ = ("order", "table", "_inv", "name", "product_factors")

    def __init__(self, table, name: str = "G", product_factors=None, *, _trusted=False):
        """_trusted: the caller, a constructor of this class, built the table
        as a group table with identity 0, so it is not validated again."""
        rows = tuple(map(tuple, table))
        if not _trusted:
            e = _validate_table(rows)
            if e != 0:
                rows = _relabel(rows, e)
        self.order = len(rows)
        self.table = rows
        self.name = name
        self.product_factors = product_factors
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

    def product_seq(self, seq) -> int:
        out = 0
        for a in seq:
            out = self.table[out][a]
        return out

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in self.elements() for b in self.elements())

    def element_order(self, a: int) -> int:
        n, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            n += 1
        return n

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

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
        table = [tuple(range(a, n)) + tuple(range(a)) for a in range(n)]
        return cls(table, name=f"C{n}", _trusted=True)

    @classmethod
    def dihedral(cls, n: int) -> "FiniteGroup":
        """Dihedral group of order 2n: indices 0..n-1 are rotations r^i,
        n..2n-1 are reflections s*r^i."""
        if n < 1:
            raise InvalidTableError("dihedral parameter must be >= 1")
        size = 2 * n
        _check_order(size)

        def mul(a, b):
            ra, fa = a % n, a >= n
            rb, fb = b % n, b >= n
            if not fa and not fb:
                return (ra + rb) % n
            if not fa and fb:
                return n + (rb - ra) % n
            if fa and not fb:
                return n + (ra + rb) % n
            return (rb - ra) % n

        table = [[mul(a, b) for b in range(size)] for a in range(size)]
        return cls(table, name=f"D{n}", _trusted=True)

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        if not 0 <= n <= 4:
            raise InvalidTableError("symmetric groups only supported for 0 <= n <= 4")
        perms = sorted(permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}

        def mul(a, b):
            pa, pb = perms[a], perms[b]
            return index[tuple(pa[pb[i]] for i in range(n))]

        table = [[mul(a, b) for b in range(len(perms))] for a in range(len(perms))]
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
        members = {0}
        frontier = [0]
        gens = list(generators)
        while frontier:
            x = frontier.pop()
            for g in gens:
                for y in (self.mul(x, g), self.mul(x, self.inv(g))):
                    if y not in members:
                        members.add(y)
                        frontier.append(y)
        return Subgroup(self, sorted(members))

    def all_subgroups(self) -> list["Subgroup"]:
        """Every subgroup, by brute-force closure over subsets. Order <= 16 only."""
        if self.order > 16:
            raise ValueError("subgroup enumeration is brute force; order too large")
        found = set()
        n = self.order
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        from itertools import combinations

        rest = [x for x in range(1, n)]
        for d in divisors:
            for extra in combinations(rest, d - 1):
                members = (0,) + extra
                if _closed(self, members):
                    found.add(members)
        return [Subgroup(self, m) for m in sorted(found, key=lambda m: (len(m), m))]


def _closed(group: FiniteGroup, members) -> bool:
    """True iff members, which hold the identity, are closed under products:
    checked on their greedy right generators (module docstring)."""
    ms = frozenset(members)
    rows = [group.table[a] for a in members]
    return all(
        row[t] in ms for t in right_generators(group.table, 0, members) for row in rows
    )


def _check_order(n: int) -> None:
    """Size gate of every table; the constructors call it before building one."""
    if n < 1:
        raise InvalidTableError("empty table")
    if n > MAX_ORDER:
        raise InvalidTableError(f"order {n} exceeds supported maximum {MAX_ORDER}")


def _validate_table(rows) -> int:
    """Raise InvalidTableError unless rows is a group table; returns the
    identity."""
    n = len(rows)
    _check_order(n)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InvalidTableError(f"row {i} has length {len(row)}, expected {n}")
        for v in row:
            if not (0 <= v < n):
                raise InvalidTableError(f"row {i} contains out-of-range entry {v}")
        if len(set(row)) != n:
            raise InvalidTableError(f"row {i} is not a permutation (Latin square fails)")
    for j in range(n):
        col = [rows[i][j] for i in range(n)]
        if len(set(col)) != n:
            raise InvalidTableError(f"column {j} is not a permutation (Latin square fails)")
    e = _find_identity(rows)
    if e is None:
        raise InvalidTableError("no two-sided identity element")
    # Latin square + identity still needs associativity checked: Light's test
    # on the generators (module docstring), then the first failing triple.
    for a in right_generators(rows, e):
        row_a = rows[a]
        for row_x in rows:
            row_xa = rows[row_x[a]]
            if tuple(row_x[v] for v in row_a) != row_xa:
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
    return gens


def _find_identity(rows):
    n = len(rows)
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            return e
    return None


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
    """A validated subgroup, stored as the sorted tuple of its members."""

    __slots__ = ("parent", "members", "member_set", "_local")

    def __init__(self, parent: FiniteGroup, members):
        ms = tuple(sorted(set(members)))
        if not ms or ms[0] != 0:
            raise NotSubgroupError("subgroup must contain the identity (index 0)")
        for a in ms:
            if not (0 <= a < parent.order):
                raise NotSubgroupError(f"member {a} out of range")
        if not _closed(parent, ms):
            for a in ms:
                if parent.inv(a) not in ms:
                    raise NotSubgroupError(f"member {a} has inverse outside the set")
                for b in ms:
                    if parent.mul(a, b) not in ms:
                        raise NotSubgroupError(f"product {a}*{b} leaves the set")
        if parent.order % len(ms) != 0:
            raise NotSubgroupError("Lagrange violation (cannot happen for closed sets)")
        self.parent = parent
        self.members = ms
        self.member_set = frozenset(ms)
        self._local = {h: i for i, h in enumerate(ms)}

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, a: int) -> bool:
        return a in self.member_set

    def local_index(self, h: int) -> int:
        return self._local[h]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.parent, self.members))

    def __repr__(self) -> str:
        return f"Subgroup({list(self.members)} of {self.parent.name})"

    def is_normal(self) -> bool:
        g = self.parent
        return all(
            g.conj(x, h) in self.member_set for x in g.elements() for h in self.members
        )

    def conjugate(self, g: int) -> "Subgroup":
        """The subgroup g H g^-1."""
        p = self.parent
        return Subgroup(p, (p.conj(g, h) for h in self.members))

    def right_cosets(self) -> "CosetDecomposition":
        return CosetDecomposition(self)


class CosetDecomposition(Record):
    """Right cosets Hg with deterministic representatives.

    Representatives are the lowest element index in each coset; since the
    identity is index 0 the coset H itself is always rep index 0.  coset_of
    maps every group element to the position of its coset's representative
    in reps.
    """

    __slots__ = ("subgroup", "reps", "coset_of")

    def __init__(self, subgroup: Subgroup):
        g = subgroup.parent
        seen = [False] * g.order
        reps = []
        coset_of = [-1] * g.order
        for a in g.elements():
            if seen[a]:
                continue
            idx = len(reps)
            reps.append(a)
            for h in subgroup.members:
                x = g.mul(h, a)
                seen[x] = True
                coset_of[x] = idx
        object.__setattr__(self, "subgroup", subgroup)
        object.__setattr__(self, "reps", tuple(reps))
        object.__setattr__(self, "coset_of", tuple(coset_of))

    def __reduce__(self):
        return CosetDecomposition, (self.subgroup,)

    def rep_of(self, a: int) -> int:
        return self.reps[self.coset_of[a]]

    def __len__(self) -> int:
        return len(self.reps)


def equivalence_classes_tilde(H: Subgroup, cosets: CosetDecomposition) -> list[list[int]]:
    """Partition of the coset representatives under g_i ~ g_j iff
    g_i^-1 H g_j meets H.  Classes come out sorted by (size, smallest rep);
    when H is normal every class is a singleton."""
    g = H.parent
    reps = cosets.reps

    def related(a: int, b: int) -> bool:
        ia = g.inv(a)
        return any(g.mul(g.mul(ia, h), b) in H.member_set for h in H.members)

    unassigned = list(reps)
    classes: list[list[int]] = []
    while unassigned:
        seed = unassigned.pop(0)
        cls = [seed]
        rest = []
        for x in unassigned:
            (cls if related(seed, x) else rest).append(x)
        unassigned = rest
        classes.append(sorted(cls))
    classes.sort(key=lambda c: (len(c), c[0]))
    return classes
