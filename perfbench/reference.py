"""Independent reference arithmetic for building and checking benchmark inputs.

Nothing here imports gradedpi.  Group tables are rebuilt from the session
document's group spec with the same index conventions the CLI documents
(cyclic, dihedral, symmetric, product, raw table), and algebra values are
computed by plain evaluation of matrix-unit products with cocycle exponents.
Scalars of Q(zeta_N) are power-basis vectors of length N over Fraction; a
vector is zero in Q(zeta_N) iff it is divisible by the cyclotomic polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product


# -- groups ------------------------------------------------------------------


def group_table(spec: dict) -> list[list[int]]:
    if "table" in spec:
        return [list(r) for r in spec["table"]]
    kind = spec["construct"]
    if kind == "cyclic":
        n = spec["n"]
        return [[(a + b) % n for b in range(n)] for a in range(n)]
    if kind == "dihedral":
        n = spec["n"]

        def mul(a, b):
            ra, fa, rb, fb = a % n, a >= n, b % n, b >= n
            if not fa and not fb:
                return (ra + rb) % n
            if not fa:
                return n + (rb - ra) % n
            if not fb:
                return n + (ra + rb) % n
            return (rb - ra) % n

        return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    if kind == "symmetric":
        perms = sorted(permutations(range(spec["n"])))
        index = {p: i for i, p in enumerate(perms)}
        return [[index[tuple(pa[pb[i]] for i in range(len(pa)))] for pb in perms] for pa in perms]
    if kind == "product":
        a, b = (group_table(f) for f in spec["factors"])
        nb = len(b)
        size = len(a) * nb
        return [
            [a[x // nb][y // nb] * nb + b[x % nb][y % nb] for y in range(size)]
            for x in range(size)
        ]
    raise ValueError(f"unknown group constructor {kind!r}")


class Group:
    def __init__(self, table: list[list[int]]):
        self.t = table
        self.order = len(table)
        self.inv = [row.index(0) for row in table]

    def mul(self, a: int, b: int) -> int:
        return self.t[a][b]

    def conj(self, g: int, a: int) -> int:
        return self.t[self.t[g][a]][self.inv[g]]

    def generated(self, gens) -> set[int]:
        out, frontier = {0}, [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.t[x][g]
                if y not in out:
                    out.add(y)
                    frontier.append(y)
        return out

    def subgroups(self) -> list[tuple[int, ...]]:
        """Every two-generated subgroup as a sorted member tuple: all subgroups
        for the groups of order at most 8 that the corpora use."""
        found = set()
        for a in range(self.order):
            for b in range(a, self.order):
                found.add(tuple(sorted(self.generated([a, b]))))
        return sorted(found, key=lambda m: (len(m), m))

    def is_normal(self, H) -> bool:
        hs = set(H)
        return all(self.conj(g, h) in hs for g in range(self.order) for h in H)

    def coset_rep(self, H, a: int) -> int:
        """Canonical right-coset representative: the least element of Ha."""
        return min(self.t[h][a] for h in H)

    def conjugate_subgroup(self, H, g: int) -> tuple[int, ...]:
        return tuple(sorted(self.conj(g, h) for h in H))


# -- presentations -------------------------------------------------------------


def coboundary(G: Group, H, modulus: int, lam) -> list[list[int]]:
    """d(lambda)(a, b) = lambda(a) + lambda(b) - lambda(ab), with lambda(e) = 0."""
    loc = {h: i for i, h in enumerate(H)}
    return [
        [(lam[i] + lam[j] - lam[loc[G.mul(a, b)]]) % modulus for j, b in enumerate(H)]
        for i, a in enumerate(H)
    ]


def cocycle_valid(G: Group, H, modulus: int, exps) -> bool:
    loc = {h: i for i, h in enumerate(H)}

    def e(a, b):
        return exps[loc[a]][loc[b]]

    if any(e(0, h) % modulus or e(h, 0) % modulus for h in H):
        return False
    return all(
        (e(a, b) + e(G.mul(a, b), d) - e(a, G.mul(b, d)) - e(b, d)) % modulus == 0
        for a in H
        for b in H
        for d in H
    )


def multiplicities(G: Group, H, grading) -> dict[int, int]:
    reps = sorted({G.coset_rep(H, a) for a in range(G.order)})
    out = {r: 0 for r in reps}
    for g in grading:
        out[G.coset_rep(H, g)] += 1
    return out


def support(G: Group, H, grading) -> set[int]:
    return {G.mul(G.mul(G.inv[gi], h), gj) for h in H for gi in grading for gj in grading}


def connected(G: Group, H, grading) -> bool:
    return len(G.generated(support(G, H, grading))) == G.order


def move_presentation(G: Group, H, exps, grading, rng):
    """One random presentation move (tuple permutation, left H-shift or
    conjugation); the moved presentation is equivalent by construction."""
    kind = rng.randrange(3)
    grading = list(grading)
    if kind == 0:
        rng.shuffle(grading)
        return H, exps, grading
    if kind == 1:
        return H, exps, [G.mul(rng.choice(H), g) for g in grading]
    g = rng.randrange(G.order)
    gi = G.inv[g]
    loc = {h: i for i, h in enumerate(H)}
    new_h = G.conjugate_subgroup(H, g)
    new_exps = [
        [exps[loc[G.conj(gi, a)]][loc[G.conj(gi, b)]] for b in new_h] for a in new_h
    ]
    return new_h, new_exps, [G.mul(g, x) for x in grading]


# -- cyclotomic scalars ---------------------------------------------------------


def _poly_divmod_int(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        q = num[i + len(den) - 1] // den[-1]
        out[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    return out


_PHI: dict[int, list[int]] = {}


def cyclotomic(n: int) -> list[int]:
    """Integer coefficients of Phi_n, lowest degree first."""
    if n not in _PHI:
        poly = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                poly = _poly_divmod_int(poly, cyclotomic(d))
        _PHI[n] = poly
    return _PHI[n]


def is_zero_scalar(vec: list[Fraction], n: int) -> bool:
    rem = list(vec)
    phi = cyclotomic(n)
    deg = len(phi) - 1
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j, p in enumerate(phi):
                rem[i - deg + j] -= c * p
    return not any(rem[:deg])


def root_scaled(vec: list[Fraction], k: int) -> list[Fraction]:
    """vec * zeta^k in the length-n power basis."""
    n = len(vec)
    k %= n
    return vec[n - k :] + vec[: n - k] if k else list(vec)


# -- graded algebra values --------------------------------------------------------


class Algebra:
    """F^cH (x) M_m(F) with the elementary grading, by structure constants."""

    def __init__(self, G: Group, H, modulus: int, exps, grading):
        self.G, self.H, self.N = G, tuple(H), modulus
        self.loc = {h: i for i, h in enumerate(self.H)}
        self.exps = exps
        self.grading = tuple(grading)
        m = len(grading)
        self.by_degree: dict[int, list[tuple[int, int, int]]] = {}
        for h in self.H:
            for i in range(m):
                for j in range(m):
                    d = G.mul(G.mul(G.inv[grading[i]], h), grading[j])
                    self.by_degree.setdefault(d, []).append((h, i, j))

    def component(self, g: int) -> list[tuple[int, int, int]]:
        return self.by_degree.get(g, [])

    def monomial_value(self, triples):
        """(exponent, triple) of the ordered product of basis triples, or None."""
        h, row, col = triples[0]
        exp = 0
        for h2, r2, c2 in triples[1:]:
            if r2 != col:
                return None
            exp += self.exps[self.loc[h]][self.loc[h2]]
            h, col = self.G.mul(h, h2), c2
        return exp % self.N, (h, row, col)

    def value(self, monomials, assignment: dict[int, tuple]) -> dict:
        """Sum of coeff * product over the monomials; only nonzero entries kept."""
        out: dict = {}
        for coeff, order in monomials:
            hit = self.monomial_value([assignment[v] for v in order])
            if hit is None:
                continue
            exp, t = hit
            contrib = root_scaled(coeff, exp)
            acc = out.setdefault(t, [Fraction(0)] * self.N)
            for i, c in enumerate(contrib):
                acc[i] += c
        return {t: v for t, v in out.items() if not is_zero_scalar(v, self.N)}

    def chaining_assignments(self, degree_of: dict[int, int], order):
        """Every assignment on which the monomial with this order is nonzero."""

        def rec(pos, col, partial):
            if pos == len(order):
                yield dict(partial)
                return
            v = order[pos]
            for t in self.component(degree_of[v]):
                if col is None or t[1] == col:
                    partial[v] = t
                    yield from rec(pos + 1, t[2], partial)
            partial.pop(v, None)

        yield from rec(0, None, {})

    def all_assignments(self, degree_of: dict[int, int]):
        vids = sorted(degree_of)
        for choice in product(*(self.component(degree_of[v]) for v in vids)):
            yield dict(zip(vids, choice))


def binomial_scalar_exp(alg: Algebra, degree_of, base, permuted):
    """The exponent s with Z - zeta^s Z_sigma vanishing on every assignment,
    or None when no such root of unity exists (found by exhaustive check over
    the assignments where either monomial is nonzero)."""
    s = None
    for order_a, order_b, sign in ((base, permuted, 1), (permuted, base, -1)):
        for a in alg.chaining_assignments(degree_of, order_a):
            va = alg.monomial_value([a[v] for v in order_a])
            vb = alg.monomial_value([a[v] for v in order_b])
            if vb is None or va[1] != vb[1]:
                return None
            diff = (sign * (va[0] - vb[0])) % alg.N
            if s is None:
                s = diff
            elif s != diff:
                return None
    return s


def good_signature(G: Group, H, degrees, order) -> tuple:
    """Total degree plus the right-H-coset of every prefix product, per variable."""
    prefix, cos = 0, {}
    for v in order:
        prefix = G.mul(prefix, degrees[v])
        cos[v] = G.coset_rep(H, prefix)
    return (prefix,) + tuple(cos[v] for v in sorted(cos))


# -- Grassmann envelopes by the sign twist ----------------------------------------------


def _odd_sign(order, parity: dict[int, int]) -> int:
    odd = [v for v in order if parity[v]]
    inversions = sum(1 for i in range(len(odd)) for j in range(i + 1, len(odd)) if odd[i] > odd[j])
    return -1 if inversions % 2 else 1


def envelope_is_identity(alg: Algebra, monomials, degree_of: dict[int, int], g_order: int) -> bool:
    """Kemer's reduction: f is an identity of the Grassmann envelope iff for every
    parity pattern the sign-twisted f is a graded identity of the Z2 x G base,
    each variable taking base degree (parity, g) = parity * |G| + g."""
    vids = sorted(degree_of)
    for bits in product((0, 1), repeat=len(vids)):
        parity = dict(zip(vids, bits))
        twisted = [
            ([-c for c in coeff] if _odd_sign(order, parity) < 0 else coeff, order)
            for coeff, order in monomials
        ]
        degs = {v: parity[v] * g_order + degree_of[v] for v in vids}
        for a in alg.all_assignments(degs):
            if alg.value(twisted, a):
                return False
    return True
