"""Truncated Grassmann algebra and Grassmann envelopes.

A Grassmann element over n generators is a sparse map from sorted generator
subsets to scalars, with e_i e_j = -e_j e_i realized by sort-with-sign and
e_i^2 = 0 by annihilating duplicate merges.  The envelope of a (Z2 x G)-graded
algebra A pairs the even base components A_(0,g) with even generator subsets
and the odd components A_(1,g) with odd ones.

Identities of the envelope are decided by Kemer's sign twist (Kemer, Ideals of
Identities of Associative Algebras, AMS 1991; Giambruno-Zaicev, Polynomial
Identities and Asymptotic Methods, Ch. 3).  For a multilinear f of degree d
and a parity pattern eps in {0,1}^d, the twisted f*_eps multiplies each
monomial by the sign of the permutation it induces on the odd variables; f is
an identity of the envelope iff every f*_eps vanishes on the base assignments
with x_i of degree (eps_i, g_i).  Proof: substitute x_i = a_i (x) w_i with a_i
a base basis element and w_i a Grassmann monomial of parity eps_i.  Even w_i
are central and odd ones anticommute, so the monomial x_s(1)...x_s(d) takes
the value sgn_eps(s) a_s(1)...a_s(d) (x) w_1...w_d, and f takes the value
f*_eps(a) (x) w_1...w_d.  That is zero when the w_i share a generator, and
zero exactly when f*_eps(a) = 0 otherwise; multilinearity extends this to all
homogeneous elements.  The choice w_i = 1 for the even variables and distinct
single generators for the odd ones uses at most d generators, so a truncation
n >= d already detects every nonzero f*_eps(a); a truncated envelope is a
subalgebra of the full one, so it has no nonzero value the full envelope
lacks.  The verdict at any n >= d is therefore that of the full envelope.

envelope_identity_check runs the identity oracle's walk once, built by
polynomials.evaluation_table over the oracle's prefix trie of the monomial
orders.  Each variable has two alternatives, and the trie builder makes an
entry for each: the variable as even, on the base elements of degree (0, g),
then as odd, on those of degree (1, g).  A leaf holds the negated
coefficient's index (index ^ 1) when the odd variables on its path stand in
an odd permutation.  This is, entry for entry and in order, the trie of
every monomial inserted once per parity pattern.
"""

from __future__ import annotations

from itertools import combinations, count
from typing import Optional

from .algebra import GradedAlgebra
from .errors import DegreeMismatchError, FactorizationError, TruncationError
from .polynomials import GradedPolynomial, evaluation_table
from .scalars import CycScalar


def _merge_sign(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, Optional[tuple[int, ...]]]:
    """Sign and sorted union of two disjoint sorted tuples; (0, None) when they meet."""
    if set(a) & set(b):
        return 0, None
    sign = 1
    for y in b:
        if sum(1 for x in a if x > y) % 2:
            sign = -sign
    return sign, tuple(sorted(a + b))


class GrassmannElement:
    """Sparse element of the Grassmann algebra on generators 1..truncation."""

    __slots__ = ("truncation", "scalar_order", "terms")

    def __init__(
        self, truncation: int, scalar_order: int, terms: dict[tuple[int, ...], CycScalar]
    ):
        clean = {}
        for subset, coeff in terms.items():
            t = tuple(subset)
            if any(not (1 <= g <= truncation) for g in t) or list(t) != sorted(set(t)):
                raise TruncationError(f"bad generator subset {t}")
            if coeff:
                clean[t] = coeff
        self.truncation = truncation
        self.scalar_order = scalar_order
        self.terms = clean

    @classmethod
    def zero(cls, truncation: int, scalar_order: int = 1) -> "GrassmannElement":
        return cls(truncation, scalar_order, {})

    @classmethod
    def one(cls, truncation: int, scalar_order: int = 1) -> "GrassmannElement":
        return cls(truncation, scalar_order, {(): CycScalar.one(scalar_order)})

    @classmethod
    def generator(cls, truncation: int, i: int, scalar_order: int = 1) -> "GrassmannElement":
        return cls(truncation, scalar_order, {(i,): CycScalar.one(scalar_order)})

    def _check(self, other: "GrassmannElement") -> None:
        if self.truncation != other.truncation:
            raise TruncationError("elements have different truncations")

    def __add__(self, other: "GrassmannElement") -> "GrassmannElement":
        self._check(other)
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = out[t] + c if t in out else c
        return GrassmannElement(self.truncation, self.scalar_order, out)

    def __neg__(self) -> "GrassmannElement":
        return GrassmannElement(
            self.truncation, self.scalar_order, {t: -c for t, c in self.terms.items()}
        )

    def __sub__(self, other: "GrassmannElement") -> "GrassmannElement":
        return self + (-other)

    def __mul__(self, other: "GrassmannElement") -> "GrassmannElement":
        self._check(other)
        out: dict[tuple[int, ...], CycScalar] = {}
        for ta, ca in self.terms.items():
            for tb, cb in other.terms.items():
                sign, merged = _merge_sign(ta, tb)
                if merged is None:
                    continue
                contrib = ca * cb if sign == 1 else -(ca * cb)
                out[merged] = out[merged] + contrib if merged in out else contrib
        return GrassmannElement(self.truncation, self.scalar_order, out)

    def parity(self) -> Optional[int]:
        sizes = {len(t) % 2 for t in self.terms}
        return sizes.pop() if len(sizes) == 1 else None

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self.truncation == other.truncation and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for t in sorted(self.terms, key=lambda s: (len(s), s)):
            name = "".join(f"e{i}" for i in t) or "1"
            bits.append(f"({self.terms[t].pretty()})*{name}")
        return " + ".join(bits)


def _sign_split(base: GradedAlgebra):
    """The (Z2, G) factors of the base group; FactorizationError otherwise."""
    factors = base.group.product_factors
    if factors is None or factors[0].order != 2:
        raise FactorizationError("base group must be built as a direct product Z2 x G")
    return factors


EnvelopeBasisKey = tuple[tuple[int, ...], int]  # (generator subset, base basis index)


class EnvelopeAlgebra:
    """Truncated Grassmann envelope of a (Z2 x G)-graded algebra.

    The base group must be a direct product whose first factor has order 2
    (the sign factor).  The envelope is G-graded: the degree-g component pairs
    even subsets with the (0, g) base component and odd subsets with (1, g).
    """

    def __init__(self, base: GradedAlgebra, truncation: int):
        factors = _sign_split(base)
        if truncation < 0:
            raise TruncationError("truncation must be nonnegative")
        self.base = base
        self.truncation = truncation
        self.sign_group, self.g_group = factors
        gens = range(1, truncation + 1)
        self.even_subsets = tuple(
            s for size in range(0, truncation + 1, 2) for s in combinations(gens, size)
        )
        self.odd_subsets = tuple(
            s for size in range(1, truncation + 1, 2) for s in combinations(gens, size)
        )
        ng = self.g_group.order
        comps: dict[int, list[EnvelopeBasisKey]] = {}
        for g in range(ng):
            keys: list[EnvelopeBasisKey] = []
            for k in base.homogeneous_basis(g):  # base degree (0, g) = index g
                keys.extend((s, k) for s in self.even_subsets)
            for k in base.homogeneous_basis(ng + g):  # base degree (1, g)
                keys.extend((s, k) for s in self.odd_subsets)
            comps[g] = keys
        self.components = {g: tuple(v) for g, v in comps.items()}

    @property
    def modulus(self) -> int:
        return self.base.modulus

    def homogeneous_basis(self, g: int) -> tuple[EnvelopeBasisKey, ...]:
        return self.components.get(g, ())

    def dim_component(self, g: int) -> int:
        return len(self.homogeneous_basis(g))

    def mul_basis(
        self, a: EnvelopeBasisKey, b: EnvelopeBasisKey
    ) -> Optional[tuple[int, int, EnvelopeBasisKey]]:
        """(sign, cocycle exponent, key) of (w (x) a)(w' (x) a'), or None."""
        sa, ka = a
        sb, kb = b
        sign, merged = _merge_sign(sa, sb)
        if merged is None:
            return None
        hit = self.base.mul_basis(self.base.basis[ka], self.base.basis[kb])
        if hit is None:
            return None
        exp, triple = hit
        return sign, exp, (merged, self.base.index[triple])


class EnvelopeIdentityReport:
    __slots__ = ("identity", "counterexample")

    def __init__(
        self, identity: bool, counterexample: Optional[dict[int, EnvelopeBasisKey]] = None
    ):
        self.identity = identity
        self.counterexample = counterexample


def envelope_identity_check(
    f: GradedPolynomial, base: GradedAlgebra, truncation: int
) -> EnvelopeIdentityReport:
    """Multilinear identity test over the truncated envelope, by the sign twist.

    Variable degrees of f are elements of the second (G) factor.  The
    truncation must be at least deg(f); the verdict then matches the full
    envelope (module docstring).  The counterexample is the nonzero assignment
    that is least under the per-variable order (parity, basis index), written
    as envelope keys with the generators 1, 2, ... given to the odd variables
    in id order and the empty subset to the even ones.  That is the lex-first
    nonzero key over all generator subsets as well: the canonical subsets are
    the least disjoint ones of their parities, and canonical keys compare as
    (parity, index) variable by variable.
    """
    if truncation < f.degree:
        raise TruncationError(
            f"truncation {truncation} is below the polynomial degree {f.degree}"
        )
    ng = _sign_split(base)[1].order
    degrees = {}
    for vid, g in sorted(f.degree_of.items()):
        if not 0 <= g < ng:
            raise DegreeMismatchError(f"x{vid}: degree {g} is not in the second factor")
        degrees[vid] = (g, ng + g)
    # A key digit is parity * nb + k, so numeric key order is the per-variable
    # (parity, index) order.
    acc = evaluation_table(f, base, degrees)
    key = min((key for key, bucket in acc.items() if bucket), default=None)
    if key is None:
        return EnvelopeIdentityReport(True)
    odd_rank = count(1)
    pairs = (divmod(digit, len(base.basis)) for digit in acc.digits(key))
    assign = {vid: ((next(odd_rank),) if odd else (), k) for vid, (odd, k) in zip(degrees, pairs)}
    return EnvelopeIdentityReport(False, assign)
