"""Truncated Grassmann algebra and Grassmann envelopes.

A Grassmann element over n generators is a sparse map from sorted generator
subsets to scalars, with e_i e_j = -e_j e_i realized by sort-with-sign and
e_i^2 = 0 by annihilating duplicate merges.  The envelope of a (Z2 x G)-graded
algebra pairs even/odd base components with even/odd generator subsets; for a
multilinear polynomial of degree d any truncation n >= d decides the same
verdict as the full envelope, since each variable can occupy its own block of
generators (backed by the truncation-stability tests rather than a proof).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .algebra import GradedAlgebra
from .errors import FactorizationError, TruncationError
from .linalg import vec_clean
from .polynomials import GradedPolynomial
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


def _mask_merge_sign(used: int, subset_tuple: tuple[int, ...]) -> int:
    """Sign of appending subset_tuple after the generators in the bitmask."""
    sign = 1
    for y in subset_tuple:
        if (used >> (y + 1)).bit_count() % 2:
            sign = -sign
    return sign


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


EnvelopeBasisKey = tuple[tuple[int, ...], int]  # (generator subset, base basis index)


class EnvelopeAlgebra:
    """Truncated Grassmann envelope of a (Z2 x G)-graded algebra.

    The base group must be a direct product whose first factor has order 2
    (the sign factor).  The envelope is G-graded: the degree-g component pairs
    even subsets with the (0, g) base component and odd subsets with (1, g).
    """

    def __init__(self, base: GradedAlgebra, truncation: int):
        factors = base.group.product_factors
        if factors is None or factors[0].order != 2:
            raise FactorizationError(
                "base group must be built as a direct product Z2 x G"
            )
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
        self._subset_masks = {
            s: _mask(s) for s in self.even_subsets + self.odd_subsets
        }
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


def _mask(subset: tuple[int, ...]) -> int:
    m = 0
    for i in subset:
        m |= 1 << i
    return m


@dataclass
class EnvelopeIdentityReport:
    identity: bool
    counterexample: Optional[dict[int, EnvelopeBasisKey]] = None


def envelope_identity_check(
    f: GradedPolynomial, base: GradedAlgebra, truncation: int
) -> EnvelopeIdentityReport:
    """Multilinear identity test over the truncated envelope basis.

    Variable degrees of f are elements of the second (G) factor.  The
    truncation must be at least deg(f); the verdict then matches the full
    envelope.  Enumeration chains matrix-unit rows exactly as the base oracle
    and additionally forces disjoint generator subsets with the sign of their
    interleaving.
    """
    if truncation < f.degree:
        raise TruncationError(
            f"truncation {truncation} is below the polynomial degree {f.degree}"
        )
    env = EnvelopeAlgebra(base, truncation)
    vids = f.var_ids()
    slot = {vid: i for i, vid in enumerate(vids)}
    basis = base.basis
    ng = env.g_group.order
    mul = base.group.mul
    exp_of = base._exp
    acc: dict[tuple, dict] = {}
    for mono in f.monomials:
        order = mono.order
        n = len(order)
        degs = [f.degree_of[v] for v in order]
        slots_by_pos = [slot[v] for v in order]
        coeff = mono.coeff

        def base_candidates(pos: int, col: Optional[int]) -> Iterable[tuple[int, int]]:
            g = degs[pos]
            for parity, d in ((0, g), (1, ng + g)):
                ks = (
                    base.homogeneous_basis(d)
                    if col is None
                    else base.basis_by_degree_and_row(d, col)
                )
                for k in ks:
                    yield k, parity

        def rec(pos, col, hprod, expsum, used, sign, key):
            if pos == n:
                tkey = tuple(key)
                scalar = coeff.shift_root(expsum)
                if sign < 0:
                    scalar = -scalar
                row0 = basis[key[slots_by_pos[0]][1]][1]
                value = (hprod, row0, col)
                bucket = acc.get(tkey)
                if bucket is None:
                    acc[tkey] = {value: scalar}
                else:
                    prev = bucket.get(value)
                    bucket[value] = scalar if prev is None else prev + scalar
                return
            for k, parity in base_candidates(pos, col):
                t = basis[k]
                if pos == 0:
                    h2, e2 = t[0], 0
                else:
                    h2, e2 = mul(hprod, t[0]), expsum + exp_of(hprod, t[0])
                pool = env.even_subsets if parity == 0 else env.odd_subsets
                for s in pool:
                    mask = env._subset_masks[s]
                    if mask & used:
                        continue
                    msign = _mask_merge_sign(used, s)
                    key[slots_by_pos[pos]] = (s, k)
                    rec(pos + 1, t[2], h2, e2, used | mask, sign * msign, key)
            key[slots_by_pos[pos]] = None

        key: list = [None] * len(vids)
        rec(0, None, 0, 0, 0, 1, key)
    for tkey in sorted(acc):
        value = vec_clean(acc[tkey])
        if value:
            assign = {vid: tkey[i] for i, vid in enumerate(vids)}
            return EnvelopeIdentityReport(False, assign)
    return EnvelopeIdentityReport(True)
