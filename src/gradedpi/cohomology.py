"""2-cocycles on a finite subgroup with root-of-unity values.

A cocycle stores exponents mod N: c(a, b) = zeta_N^exps[a][b], indexed by the
subgroup's local element order.  Coboundary membership is decided exactly by
diagonalizing an integer relation matrix (Smith-style row/column operations)
and solving the diagonal congruences mod N, which handles composite N
uniformly.  The matrix depends only on the subgroup, so a CoboundarySystem
diagonalizes it once, records the row operations instead of forming the
unimodular row matrix, and replays them on each right-hand side; one decision
(class invariance, presentation equivalence) reuses one system for all its
solves on that subgroup.

The decision runs on a generating set, as cohomology is computed from a
presentation (Holt, Eick and O'Brien, Handbook of Computational Group
Theory, 2005, section 7.6).  S is picked greedily in member order: h joins S
when right multiplication by the earlier generators does not reach it, so
|S| <= log2 |H|.  The (e, e) equation of d(lambda) = c forces
lambda(e) = c(e, e); each lambda(s), s in S, is an unknown u_s; a
breadth-first walk over the edges a -> as (s in S) fixes every other element
by lambda(as) = lambda(a) + lambda(s) - c(a, s), so each lambda(b) is
integer-affine in the u_s.  The congruences left are those of the non-tree
edges (a, s), (e, s) included: about |H||S| rows in |S| unknowns instead of
the |H|^2 x |H| relation matrix.  Only the tree constants depend on c.

Why this is exact.  A solution of the full system restricts to one of the
reduced system, so "unsolvable" is correct for any table.  Conversely let c
be a cocycle, lambda a solution of the reduced system and delta = c - d(lambda),
again a cocycle, with delta(e, e) = 0 and delta(a, s) = 0 for all a in H and
s in S.  The cocycle identity
    delta(a, b) + delta(ab, s) = delta(a, bs) + delta(b, s)
gives delta(a, b) = delta(a, bs), and every element is a positive word in S,
so delta(a, .) is constant, equal to delta(a, e).  The identity at b = e,
    delta(a, e) + delta(a, d) = delta(a, d) + delta(e, d),
gives delta(a, e) = delta(e, d) = delta(e, e) = 0.  So delta = 0 and c = d(lambda).
A table that is not a cocycle can pass the reduced system with a lambda that
does not induce it; every witness is checked against c.

A "no" carries a 2-chain (CoboundaryObstruction): weights y(a, b) on pairs
of H and a modulus m dividing N with, for every k in H,
    sum y(a,b) ([a = k] + [b = k] - [ab = k]) = 0 mod m,   sum y(a,b) c(a,b) != 0 mod m.
Sound: the first says sum y d(lambda) = 0 mod m for every lambda.  Complete:
by the integer Farkas lemma (Schrijver, Theory of Linear and Integer
Programming, 1986, Cor. 4.1a) one exists whenever the congruences have no
solution.  The failing diagonal row r of the reduced system gives
m = gcd(d_r, N) and weights z (row r of U) on the non-tree edges; walking the
tree backwards moves the weight left on each lambda(as) onto its edge (a, s),
and (e, e) takes what is left on lambda(e).  A table that breaks the identity
at (a, b, d) gets (a,b) + (ab,d) - (a,bd) - (b,d) mod N, with no solve.  Both
sums are checked before a certificate is returned.  The non-invariant class
of (Z3 x Z3):Z2 (witness, classify) gets "mod 9, y(2,6) = -1, y(6,2) = 1" on
e = (g.c)/c at g = 1, lifted to class_modulus 9: 2 and 6 commute, so each k
cancels, and e(6,2) - e(2,6) = 6 mod 9.

A yes/no decision whose quotient is the zero table makes no solve at all:
classes_cohomologous answers True for two equal tables at one modulus, and
invariance_obstruction passes over a representative g with g.c = c, whose
quotient is d(0).  presentations_equivalent tries each distinct normal-form
table once, as a repeated table has already failed.  The witnesses that
is_coboundary and coboundary_or_obstruction return always come from a
solve.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import index
from typing import Optional, Sequence

from .errors import (
    BinomialConditionError,
    CocycleError,
    NotNormalError,
    NotSubgroupError,
    VerificationFailedError,
)
from .groups import Subgroup
from .records import Record
from .scalars import CycScalar, root_of_unity


_set = object.__setattr__


class CocycleViolation(Record):
    """Names a failing triple (or normalization element) of a cocycle table."""

    __slots__ = ("kind", "triple", "detail")

    def __init__(self, kind: str, triple: tuple[int, ...], detail: str):
        _set(self, "kind", kind)  # "identity" or "normalization"
        _set(self, "triple", triple)
        _set(self, "detail", detail)

    def __str__(self) -> str:
        return f"{self.kind} violation at {self.triple}: {self.detail}"


class Cocycle2:
    """Exponent table of a normalized 2-cocycle on H with values zeta_N^k."""

    __slots__ = ("subgroup", "modulus", "exps", "_valid")

    def __init__(self, subgroup: Subgroup, modulus: int, exps, *, _reduced=False):
        """exps[i][j] is the exponent of c(members[i], members[j]); an entry
        that is not an integer (operator.index) raises CocycleError.
        _reduced: the caller, a method of this module, computed every entry
        as an int in [0, modulus), so none is reduced again."""
        if modulus < 1:
            raise CocycleError("modulus must be a positive integer")
        n = len(subgroup)
        if _reduced:
            rows = tuple(map(tuple, exps))
        else:
            try:
                rows = tuple([tuple([index(v) % modulus for v in row]) for row in exps])
            except TypeError:
                raise CocycleError("exponent table entries must be integers") from None
        if len(rows) != n or any(len(r) != n for r in rows):
            raise CocycleError(f"exponent table must be {n}x{n}")
        self.subgroup = subgroup
        self.modulus = modulus
        self.exps = rows
        self._valid = False  # set by a passed require_valid

    @classmethod
    def trivial(cls, subgroup: Subgroup, modulus: int = 1) -> "Cocycle2":
        n = len(subgroup)
        return cls(subgroup, modulus, [[0] * n for _ in range(n)])

    # -- lookup ----------------------------------------------------------------

    def exp(self, a: int, b: int) -> int:
        """Exponent of c(a, b) for parent-group elements a, b of H; an element
        outside H raises NotSubgroupError."""
        H = self.subgroup
        try:
            return self.exps[H.local_index(a)][H.local_index(b)]
        except KeyError:
            bad = b if a in H else a
            raise NotSubgroupError(f"element {bad} is not in the subgroup") from None

    def value(self, a: int, b: int) -> CycScalar:
        return root_of_unity(self.modulus, self.exp(a, b))

    # -- validation ------------------------------------------------------------

    def violations(self) -> list[CocycleViolation]:
        """Empty list iff the table is a normalized 2-cocycle."""
        H = self.subgroup
        N = self.modulus
        E = self.exps
        out = []
        for i, h in enumerate(H.members):
            if E[0][i] % N != 0:
                out.append(CocycleViolation("normalization", (0, h), "c(e, h) != 1"))
            if E[i][0] % N != 0:
                out.append(CocycleViolation("normalization", (h, 0), "c(h, e) != 1"))
        mul = H.local_table()
        members = H.members
        n = len(members)
        for a in range(n):
            row_a, mul_a = E[a], mul[a]
            for b in range(n):
                row_b, row_ab, mul_b = E[b], E[mul_a[b]], mul[b]
                for d in range(n):
                    lhs, rhs = row_a[b] + row_ab[d], row_a[mul_b[d]] + row_b[d]
                    if (lhs - rhs) % N != 0:
                        detail = f"c(a,b)c(ab,d) != c(a,bd)c(b,d) (exponents {lhs} vs {rhs})"
                        triple = (members[a], members[b], members[d])
                        out.append(CocycleViolation("identity", triple, detail))
        self._valid = self._valid or not out
        return out

    def is_valid(self) -> bool:
        """Whether the table is a normalized 2-cocycle, by the generator check
        _is_cocycle.  A pass, or an empty violations(), is recorded and
        carried to the cocycles that _permuted and with_modulus derive, so
        each is checked once."""
        if not self._valid:
            self._valid = self._is_cocycle()
        return self._valid

    def require_valid(self) -> "Cocycle2":
        """Raise CocycleError naming the first of violations() unless the
        table is a normalized 2-cocycle (is_valid)."""
        if not self.is_valid():
            raise CocycleError(str(self.violations()[0]))
        return self

    def _is_cocycle(self) -> bool:
        """Normalization, and the identity only for s in a generating set S
        of H (H.generators()):
            c(a, s) c(as, b) = c(a, sb) c(s, b)   for all a, b in H,
        |H|^2 |S| checks instead of |H|^3.  That suffices (Light's argument
        on the twisted group algebra F^cH): the t with (xt)y = x(ty) for all
        x, y form a subspace closed under products.  The checked identity
        says (u_a u_s) u_b = u_a (u_s u_b), so it holds every u_s, and the
        products of the u_s span F^cH, because cocycle values are nonzero.
        So F^cH is associative, which is the full identity."""
        H = self.subgroup
        N = self.modulus
        E = self.exps
        # The identity is members[0], local index 0.
        if any(row[0] % N or v % N for row, v in zip(E, E[0])):
            return False
        mul = H.local_table()
        n = len(E)
        for s in map(H.local_index, H.generators()):
            row_s, mul_s = E[s], mul[s]
            for a in range(n):
                row_a, row_as, exp_as = E[a], E[mul[a][s]], E[a][s]
                for b in range(n):
                    if (exp_as + row_as[b] - row_a[mul_s[b]] - row_s[b]) % N:
                        return False
        return True

    # -- rescaling and comparison ------------------------------------------------

    def with_modulus(self, new_modulus: int) -> "Cocycle2":
        """Reinterpret values zeta_N^k as zeta_M^(kM/N); N must divide M."""
        if new_modulus % self.modulus != 0:
            raise CocycleError("new modulus must be a multiple of the old one")
        f = new_modulus // self.modulus
        rows = [[v * f for v in row] for row in self.exps]
        out = Cocycle2(self.subgroup, new_modulus, rows, _reduced=True)
        out._valid = self._valid
        return out

    def quotient_exps(self, other: "Cocycle2") -> "Cocycle2":
        """The cocycle c/other (difference of exponent tables)."""
        if self.subgroup != other.subgroup or self.modulus != other.modulus:
            raise CocycleError("quotient requires the same subgroup and modulus")
        N = self.modulus
        rows = [[(x - y) % N for x, y in zip(r, q)] for r, q in zip(self.exps, other.exps)]
        return Cocycle2(self.subgroup, N, rows, _reduced=True)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cocycle2)
            and self.subgroup == other.subgroup
            and self.modulus == other.modulus
            and self.exps == other.exps
        )

    def __hash__(self) -> int:
        return hash((self.subgroup, self.modulus, self.exps))

    def __repr__(self) -> str:
        return f"Cocycle2(|H|={len(self.subgroup)}, N={self.modulus})"

    # -- the G-action -----------------------------------------------------------

    def conjugate(self, g: int) -> "Cocycle2":
        """(g . c)(h1, h2) = c(g h1 g^-1, g h2 g^-1) on the same subgroup."""
        H = self.subgroup
        table = H.parent.table
        row_g, gi = table[g], H.parent.inv(g)
        images = []
        for h in H.members:
            x = table[row_g[h]][gi]
            if x not in H.member_set:
                raise NotNormalError(f"conjugation by {g} maps {h} outside H")
            images.append(H.local_index(x))
        return self._permuted(H, images)

    def transport(self, g: int) -> "Cocycle2":
        """Move the cocycle to the conjugate subgroup gHg^-1 (the M3 transport):
        c'(g h1 g^-1, g h2 g^-1) = c(h1, h2).  When g normalizes H and fixes
        each of its members, this is the cocycle itself (see _permuted)."""
        H = self.subgroup
        table = H.parent.table
        new_sub = H.conjugate(g)
        row_gi = table[H.parent.inv(g)]
        return self._permuted(
            new_sub, [H.local_index(table[row_gi[x]][g]) for x in new_sub.members]
        )

    def _permuted(self, subgroup: Subgroup, local: list[int]) -> "Cocycle2":
        """The cocycle on subgroup with entry [i][j] = exps[local[i]][local[j]].
        Relabelling H through an isomorphism keeps a cocycle a cocycle.  On
        its own subgroup under the identity relabelling that is self, which
        is returned as it is."""
        if subgroup is self.subgroup and local == list(range(len(local))):
            return self
        exps = self.exps
        rows = [[exps[i][j] for j in local] for i in local]
        out = Cocycle2(subgroup, self.modulus, rows, _reduced=True)
        out._valid = self._valid
        return out

    # -- folds and binomials -------------------------------------------------------

    def product_exp(self, hs: Sequence[int]) -> int:
        """Exponent of c(h1,...,hn) defined by u_h1 ... u_hn = c(hs) u_(h1...hn): a
        left fold over the rows of exps and of H.local_table(), in local
        indices.  A factor outside H raises NotSubgroupError."""
        H = self.subgroup
        if not H.member_set.issuperset(hs):
            bad = next(h for h in hs if h not in H)
            raise NotSubgroupError(f"factor {bad} is not in the subgroup")
        E, table = self.exps, H.local_table()
        total = 0
        prefix = 0
        for h in map(H.local_index, hs):
            total += E[prefix][h]
            prefix = table[prefix][h]
        return total % self.modulus

    def binomial_alpha_exp(self, hs: Sequence[int], sigma: Sequence[int]) -> int:
        """Exponent of alpha_(hs, sigma) = c(hs)/c(hs_sigma).  sigma must be a
        permutation of the positions of hs and the two orders must have equal
        products (BinomialConditionError); a factor outside H raises
        NotSubgroupError.  The inputs are checked before any product."""
        g = self.subgroup.parent
        hs = tuple(hs)
        n = len(hs)
        if len(sigma) != n or set(sigma) != set(range(n)):
            raise BinomialConditionError(
                f"sigma={tuple(sigma)} is not a permutation of the {n} positions"
            )
        exp = self.product_exp(hs)  # NotSubgroupError for a factor outside H
        permuted = tuple(hs[s] for s in sigma)
        if g.product_seq(hs) != g.product_seq(permuted):
            raise BinomialConditionError(
                f"products differ for hs={hs}, sigma={tuple(sigma)}"
            )
        return (exp - self.product_exp(permuted)) % self.modulus

    def binomial_alpha(self, hs: Sequence[int], sigma: Sequence[int]) -> CycScalar:
        return root_of_unity(self.modulus, self.binomial_alpha_exp(hs, sigma))


class Coboundary(Record):
    """A map lambda: H -> Z/N witnessing c = d(lambda)."""

    __slots__ = ("subgroup", "modulus", "lam")

    def __init__(self, subgroup: Subgroup, modulus: int, lam: tuple[int, ...]):
        _set(self, "subgroup", subgroup)
        _set(self, "modulus", modulus)
        _set(self, "lam", lam)  # indexed by local element order

    def induced(self) -> Cocycle2:
        """d(lambda): entry [i][j] is lam_i + lam_j - lam_ij mod N."""
        lam, N = self.lam, self.modulus
        return Cocycle2(
            self.subgroup,
            N,
            [
                [(li + lam[j] - lam[ij]) % N for j, ij in enumerate(row)]
                for li, row in zip(lam, self.subgroup.local_table())
            ],
            _reduced=True,
        )


class CoboundaryObstruction(Record):
    """Why d(lambda) = c has no solution mod N: a 2-chain y mod m (module
    docstring) as the sorted (a, b, y(a, b)), y(a, b) != 0, in parent-group
    elements, and value = sum y(a,b) c(a,b) mod m."""

    __slots__ = ("modulus", "chain", "value")

    def __init__(self, modulus: int, chain: tuple[tuple[int, int, int], ...], value: int):
        _set(self, "modulus", modulus)
        _set(self, "chain", chain)
        _set(self, "value", value)

    def certifies(self, c: Cocycle2) -> bool:
        """Both checks against the table c: y annihilates every coboundary
        mod m, and sum y(a,b) c(a,b) is value, which is not 0 mod m."""
        m, mul = self.modulus, c.subgroup.parent.table
        boundary = dict.fromkeys(c.subgroup.members, 0)
        for a, b, w in self.chain:
            boundary[a] += w
            boundary[b] += w
            boundary[mul[a][b]] -= w
        total = sum(w * c.exp(a, b) for a, b, w in self.chain)
        return all(v % m == 0 for v in boundary.values()) and total % m == self.value % m != 0

    def __str__(self) -> str:
        weights = ", ".join(f"y({a},{b}) = {w}" for a, b, w in self.chain)
        return (
            f"mod {self.modulus}, {weights}: sum y(a,b) d(lambda)(a,b) = 0 for every "
            f"lambda, sum y(a,b) e(a,b) = {self.value}"
        )


# -- integer linear algebra ---------------------------------------------------

RowOp = tuple[int, int, int, int, int, int]  # (i1, i2, a, b, c, d), see smith_diagonalize
SmithForm = tuple[list[list[int]], list[RowOp], list[list[int]]]  # (D, row_ops, V)


def smith_diagonalize(matrix: Sequence[Sequence[int]]) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (D, row_ops, V) with U * matrix * V = D and D nonzero only on the
    diagonal.  U is not formed: it is the product of the recorded row
    operations, each (i1, i2, a, b, c, d) replacing (row i1, row i2) by
    (a*row i1 + b*row i2, c*row i1 + d*row i2) with ad - bc = +-1;
    solve_congruences replays them on its right-hand side, and transposed in
    reverse order for a row of U.  Divisibility
    chaining of the classical Smith form is not enforced; it is not needed to
    solve diagonal congruences.
    """
    D = [list(row) for row in matrix]
    m = len(D)
    n = len(D[0]) if m else 0
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    row_ops: list[RowOp] = []

    def row_combine(i1, i2, a, b, c, d):
        row_ops.append((i1, i2, a, b, c, d))
        r1, r2 = D[i1], D[i2]
        for k in range(n):
            r1[k], r2[k] = a * r1[k] + b * r2[k], c * r1[k] + d * r2[k]

    def col_combine(j1, j2, a, b, c, d):
        for M in (D, V):
            for row in M:
                row[j1], row[j2] = a * row[j1] + b * row[j2], c * row[j1] + d * row[j2]

    for t in range(min(m, n)):
        pivot = next(((i, j) for i in range(t, m) for j in range(t, n) if D[i][j]), None)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            row_combine(t, pi, 0, 1, 1, 0)
        if pj != t:
            col_combine(t, pj, 0, 1, 1, 0)
        # Clear row and column t; gcd steps may reintroduce entries, iterate.
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if D[i][t]:
                    row_combine(t, i, *_clearing(D[t][t], D[i][t]))
                    dirty = True
            for j in range(t + 1, n):
                if D[t][j]:
                    col_combine(t, j, *_clearing(D[t][t], D[t][j]))
                    dirty = True
    return D, row_ops, V


def _clearing(a: int, b: int) -> tuple[int, int, int, int]:
    """(x, y, u, v), xv - yu = 1, taking (a, b) to (x a + y b, u a + v b) =
    (g, 0) for g = gcd(a, b) up to sign; (a, 0) when a divides b."""
    if b % a == 0:
        return 1, 0, -(b // a), 1
    x, y, g = _xgcd(a, b)
    return x, y, -(b // g), a // g


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return x0, y0, a


def solve_congruences(
    matrix: Sequence[Sequence[int]],
    rhs: Sequence[int],
    modulus: int,
    smith: Optional[SmithForm] = None,
) -> tuple[Optional[list[int]], Optional[tuple[int, list[int]]]]:
    """Solve M x = rhs (mod modulus) over the integers; returns (solution, None)
    or (None, (g, z)) with z M = 0 and z rhs != 0 (mod g), g | modulus: z is
    row r of U for the first failing diagonal row r, g = gcd(d_r, modulus).

    smith is smith_diagonalize(matrix); pass it to solve several right-hand
    sides or moduli against one matrix without diagonalizing it again.
    """
    D, row_ops, V = smith if smith is not None else smith_diagonalize(matrix)
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    # c = U * rhs (mod modulus), replaying the row operations that make U.
    c = [v % modulus for v in rhs]
    for i1, i2, a, b, u, v in row_ops:
        c[i1], c[i2] = (a * c[i1] + b * c[i2]) % modulus, (u * c[i1] + v * c[i2]) % modulus
    y = [0] * n
    for i in range(m):
        d = D[i][i] if i < n else 0
        g = gcd(d, modulus)
        if c[i] % g != 0:
            z = [0] * m
            z[i] = 1
            for i1, i2, a, b, u, v in reversed(row_ops):
                z[i1], z[i2] = (a * z[i1] + u * z[i2]) % g, (b * z[i1] + v * z[i2]) % g
            return None, (g, z)
        if d:
            mm = modulus // g
            y[i] = c[i] // g * (_xgcd(d // g, mm)[0] % mm) % modulus
    x = [sum(V[i][k] * y[k] for k in range(n)) % modulus for i in range(n)]
    return x, None


# -- coboundary decision ----------------------------------------------------------


class CoboundarySystem:
    """The congruences d(lambda) = c on one subgroup H, diagonalized once.

    Decisions solve the reduced system on a generating set (see the module
    docstring): one row per non-tree edge (a, s), reading
    lambda(a) + lambda(s) - lambda(as) through each element's coefficients in
    the unknowns u_s.  The matrix depends neither on the cocycle nor on its
    modulus, so one system serves every solve on H within a decision.  All
    indices are local.
    """

    __slots__ = ("subgroup", "tree", "edges", "coefs", "rows", "smith")

    def __init__(self, subgroup: Subgroup):
        mul = subgroup.local_table()
        n = len(mul)
        # Local order is member order, so these are the greedy generators of
        # the local table.
        gens = [subgroup.local_index(s) for s in subgroup.generators()]
        k = len(gens)
        coefs: list[Optional[tuple[int, ...]]] = [None] * n
        coefs[0] = (0,) * k
        for t, s in enumerate(gens):
            coefs[s] = tuple(int(i == t) for i in range(k))
        queue = [0, *gens]
        tree = []  # (b, a, s): lambda(b) = lambda(a) + lambda(s) - c(a, s)
        edges = []  # (a, s, b) with b = as, one congruence each
        rows = []
        for a in queue:  # the queue grows while it is walked
            for t, s in enumerate(gens):
                b = mul[a][s]
                if coefs[b] is None:
                    coefs[b] = tuple(v + (i == t) for i, v in enumerate(coefs[a]))
                    tree.append((b, a, s))
                    queue.append(b)
                else:
                    edges.append((a, s, b))
                    rows.append([x + y - z for x, y, z in zip(coefs[a], coefs[s], coefs[b])])
        self.subgroup = subgroup
        self.tree = tree
        self.edges = edges
        self.coefs = coefs
        self.rows = rows
        self.smith = smith_diagonalize(rows)

    def decide(self, c: Cocycle2) -> tuple[Optional[Coboundary], Optional[CoboundaryObstruction]]:
        """(witness, None) when c = d(lambda) mod N, else (None, obstruction);
        an obstruction that fails its own checks raises
        VerificationFailedError."""
        if c.subgroup != self.subgroup:
            raise CocycleError("cocycle lives on another subgroup than the system")
        N = c.modulus
        x = c.exps
        kappa = [0] * len(self.coefs)  # the tree constants; kappa(s) = 0 on gens
        kappa[0] = x[0][0]
        for b, a, s in self.tree:
            kappa[b] = (kappa[a] - x[a][s]) % N
        rhs = [x[a][s] - kappa[a] + kappa[b] for a, s, b in self.edges]
        u, farkas = solve_congruences(self.rows, rhs, N, self.smith)
        if u is None:
            obstruction = self._chain(c, *farkas)
        else:
            lam = tuple(
                (k + sum(f * v for f, v in zip(coef, u))) % N
                for k, coef in zip(kappa, self.coefs)
            )
            wit = Coboundary(c.subgroup, N, lam)
            if wit.induced() == c:
                return wit, None
            obstruction = _identity_obstruction(c)  # c is no cocycle
        if not obstruction.certifies(c):
            raise VerificationFailedError("coboundary obstruction fails its checks")
        return None, obstruction

    def _chain(self, c: Cocycle2, m: int, z: list[int]) -> CoboundaryObstruction:
        """The 2-chain of the row weights z: z on the non-tree edges, then
        each tree edge (a, s), latest first, takes the weight left on
        lambda(as), and (e, e) cancels what is left on lambda(e)."""
        weight = [0] * len(self.coefs)  # of lambda(h) in sum y(a,b) d(lambda)(a,b)
        chain = {}
        for (a, s, b), w in zip(self.edges, z):
            chain[a, s] = w
            weight[a] += w
            weight[s] += w
            weight[b] -= w
        for b, a, s in reversed(self.tree):
            w = chain[a, s] = weight[b]
            weight[a] += w
            weight[s] += w
        chain[0, 0] = -weight[0]
        ms = self.subgroup.members
        return _obstruction(c, m, (((ms[a], ms[b]), w) for (a, b), w in chain.items()))


def _identity_obstruction(c: Cocycle2) -> CoboundaryObstruction:
    """(a,b) + (ab,d) - (a,bd) - (b,d) at modulus N for the first triple
    where c breaks the cocycle identity."""
    broken = [v.triple for v in c.violations() if v.kind == "identity"]
    if not broken:
        raise VerificationFailedError("congruence solver returned a bad witness")
    a, b, d = broken[0]
    mul = c.subgroup.parent.table
    terms = (((a, b), 1), ((mul[a][b], d), 1), ((a, mul[b][d]), -1), ((b, d), -1))
    return _obstruction(c, c.modulus, terms)


def _obstruction(c: Cocycle2, m: int, terms) -> CoboundaryObstruction:
    """The record of the weights w of the terms ((a, b), w), summed per pair
    and reduced into (-m/2, m/2]."""
    chain: dict[tuple[int, int], int] = {}
    for pair, w in terms:
        chain[pair] = (chain.get(pair, 0) + w) % m
    out = tuple(sorted((a, b, w - m if 2 * w > m else w) for (a, b), w in chain.items() if w))
    return CoboundaryObstruction(m, out, sum(w * c.exp(a, b) for a, b, w in out) % m)


def is_coboundary(c: Cocycle2) -> Optional[Coboundary]:
    """A witness lambda with d(lambda) = c when one exists, else None."""
    return CoboundarySystem(c.subgroup).decide(c)[0]


def coboundary_or_obstruction(
    c: Cocycle2, system: Optional[CoboundarySystem] = None
) -> tuple[Optional[Coboundary], Optional[CoboundaryObstruction]]:
    """Decide c = d(lambda) mod N; system, when given, is that of c's subgroup.
    A negative answer carries a checked 2-chain obstruction."""
    return (system or CoboundarySystem(c.subgroup)).decide(c)


def class_modulus(c: Cocycle2) -> int:
    """Root order sufficient to witness triviality of [c] in H^2(H, F*).

    If a mu_N-valued cocycle equals d(lambda) for some lambda: H -> F*, then
    lambda^N is a character of H, so lambda takes values in the
    (N * exp(H))-th roots of unity.  Deciding class triviality therefore only
    needs the congruence solve at that lifted modulus.
    """
    H = c.subgroup
    return c.modulus * lcm(*map(H.parent.element_order, H.members))


def is_trivial_class(c: Cocycle2, system: Optional[CoboundarySystem] = None) -> bool:
    """True iff [c] = 1 in H^2(H, F*) (not merely modulo mu_N-coboundaries)."""
    lifted = c.with_modulus(class_modulus(c))
    return (system or CoboundarySystem(c.subgroup)).decide(lifted)[0] is not None


def trivial_class_obstruction(
    c: Cocycle2, system: Optional[CoboundarySystem] = None
) -> tuple[Optional[Coboundary], Optional[CoboundaryObstruction]]:
    lifted = c.with_modulus(class_modulus(c))
    return coboundary_or_obstruction(lifted, system)


def classes_cohomologous(
    c1: Cocycle2, c2: Cocycle2, system: Optional[CoboundarySystem] = None
) -> bool:
    """Whether two cocycles on the same subgroup define one class in H^2(H, F*).

    system, when given, is the CoboundarySystem of that subgroup; a caller
    comparing many pairs on one subgroup builds it once.
    """
    if c1.subgroup != c2.subgroup:
        raise CocycleError("cocycles live on different subgroups")
    if c1.modulus == c2.modulus and c1.exps == c2.exps:
        return True  # the quotient is d(0)
    n = lcm(c1.modulus, c2.modulus)
    return is_trivial_class(c1.with_modulus(n).quotient_exps(c2.with_modulus(n)), system)


def is_G_invariant_class(c: Cocycle2) -> bool:
    """True iff [g.c] = [c] in H^2(H, F*) for every right-coset representative.

    The quotient (g.c)/c is tested for class triviality at the lifted modulus
    (see class_modulus), so invariance is decided in H^2(H, F*) and not merely
    modulo mu_N-valued coboundaries.  Requires H normal in the ambient group
    (invariance_obstruction checks it).
    """
    return invariance_obstruction(c) is None


def invariance_obstruction(
    c: Cocycle2,
) -> Optional[tuple[int, CoboundaryObstruction]]:
    """The first failing coset representative with its congruence obstruction,
    or None when the class is G-invariant.  A representative g with
    g.c = c as tables is passed over, as (g.c)/c = d(0).  The reduced
    congruence system of H is diagonalized once, at the first representative
    that needs a solve."""
    H = c.subgroup
    if not H.is_normal():
        raise NotNormalError("subgroup is not normal; the G-action is undefined")
    system = None
    for g in H.right_cosets().reps:
        moved = c.conjugate(g)
        if moved.exps == c.exps:
            continue
        if system is None:
            system = CoboundarySystem(H)
        diff = moved.quotient_exps(c)
        wit, obstruction = trivial_class_obstruction(diff, system)
        if wit is None:
            return g, obstruction
    return None
