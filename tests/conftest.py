"""Shared fixtures: groups, cocycles, presentations, and independent oracles.

The brute-force helpers here deliberately avoid the package's path-pruned
enumeration so the two routes stay independent: identities are re-decided by
full Cartesian evaluation, coboundaries by exhaustive search over candidate
maps.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from itertools import product as iproduct

import pytest

from gradedpi import binomials, polynomials
from gradedpi.algebra import GradedAlgebra, Presentation
from gradedpi.cohomology import Cocycle2
from gradedpi.groups import FiniteGroup
from gradedpi.polynomials import (
    GradedPolynomial,
    GradedVariable,
    evaluate,
    variables_for,
)
from gradedpi.scalars import CycScalar


# -- groups ---------------------------------------------------------------------


@pytest.fixture(scope="session")
def z2():
    return FiniteGroup.cyclic(2)


@pytest.fixture(scope="session")
def z3():
    return FiniteGroup.cyclic(3)


@pytest.fixture(scope="session")
def z4():
    return FiniteGroup.cyclic(4)


@pytest.fixture(scope="session")
def k4():
    return FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))


@pytest.fixture(scope="session")
def d3():
    return FiniteGroup.dihedral(3)


@pytest.fixture(scope="session")
def d4():
    return FiniteGroup.dihedral(4)


def semidirect_swap_z3z3() -> FiniteGroup:
    """(Z3 x Z3) : Z2 with the involution swapping the two coordinates.

    Index layout: (a, b, q) -> ((a * 3) + b) * 2 + q; the normal subgroup is
    the even-index copy of Z3 x Z3.
    """

    def mul(x, y):
        a1, b1, q1 = x // 6, (x // 2) % 3, x % 2
        a2, b2, q2 = y // 6, (y // 2) % 3, y % 2
        # (n1, q1)(n2, q2) = (n1 + phi_q1(n2), q1 + q2)
        if q1:
            a2, b2 = b2, a2
        return ((a1 + a2) % 3 * 3 + (b1 + b2) % 3) * 2 + (q1 + q2) % 2

    table = [[mul(x, y) for y in range(18)] for x in range(18)]
    return FiniteGroup.from_table(table, name="Z3wrZ2")


@pytest.fixture(scope="session")
def z3z3_swap_group():
    return semidirect_swap_z3z3()


def normality_zoo() -> list[FiniteGroup]:
    """Groups of order at most 16, small enough for all_subgroups: C1..C16,
    D1..D8, S3 and four direct products, abelian and not."""
    c2 = FiniteGroup.cyclic(2)
    return (
        [FiniteGroup.cyclic(n) for n in range(1, 17)]
        + [FiniteGroup.dihedral(n) for n in range(1, 9)]
        + [
            FiniteGroup.symmetric(3),
            FiniteGroup.direct_product(c2, c2),
            FiniteGroup.direct_product(FiniteGroup.cyclic(4), FiniteGroup.cyclic(4)),
            FiniteGroup.direct_product(c2, FiniteGroup.dihedral(4)),
            FiniteGroup.direct_product(FiniteGroup.dihedral(3), c2),
        ]
    )


# -- standard cocycles -------------------------------------------------------------


def klein_nontrivial_cocycle(H) -> Cocycle2:
    """The standard nontrivial class on a Klein four subgroup: with members
    enumerated e, a, b, ab (local order), c(x, y) = (-1)^(x_b * y_a)."""
    coords = _klein_coords(H)
    n = len(H)
    exps = [
        [(coords[i][1] * coords[j][0]) % 2 for j in range(n)] for i in range(n)
    ]
    return Cocycle2(H, 2, exps)


def _klein_coords(H) -> dict[int, tuple[int, int]]:
    """Identify a Klein four subgroup with Z2 x Z2 along its sorted members."""
    assert len(H) == 4
    g = H.parent
    e, a, b, ab = H.members
    assert g.mul(a, b) == ab, "member order must satisfy a * b = ab"
    coords = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}
    lookup = {h: coords[i] for i, h in enumerate(H.members)}
    for x in H.members:
        for y in H.members:
            got = lookup[g.mul(x, y)]
            want = tuple((u + v) % 2 for u, v in zip(lookup[x], lookup[y]))
            assert got == want, "subgroup is not Klein in the expected order"
    return coords


def z3z3_cocycle(H, k: int = 1) -> Cocycle2:
    """zeta_3^(k * b1 * a2) on a Z3 x Z3 subgroup whose members decode as
    (a, b) via their even-index layout in semidirect_swap_z3z3."""
    decode = {h: (h // 6, (h // 2) % 3) for h in H.members}
    mem = H.members
    n = len(mem)
    exps = [
        [(k * decode[mem[i]][1] * decode[mem[j]][0]) % 3 for j in range(n)]
        for i in range(n)
    ]
    return Cocycle2(H, 3, exps)


# -- presentations -------------------------------------------------------------------


@pytest.fixture(scope="session")
def p_z2_unbalanced(z2) -> Presentation:
    """G = Z2, H = {e}, tuple (e, e, sigma): verbally but not strongly prime."""
    H = z2.trivial_subgroup()
    return Presentation(z2, H, Cocycle2.trivial(H, 1), (0, 0, 1))


@pytest.fixture(scope="session")
def p_z2_balanced(z2) -> Presentation:
    H = z2.trivial_subgroup()
    return Presentation(z2, H, Cocycle2.trivial(H, 1), (0, 1))


@pytest.fixture(scope="session")
def p_group_algebra_z2(z2) -> Presentation:
    H = z2.full_subgroup()
    return Presentation(z2, H, Cocycle2.trivial(H, 1), (0,))


@pytest.fixture(scope="session")
def p_k4_twisted(k4) -> Presentation:
    """The twisted group algebra on Z2 x Z2 with the nontrivial class."""
    H = k4.full_subgroup()
    return Presentation(k4, H, klein_nontrivial_cocycle(H), (0,))


@pytest.fixture(scope="session")
def p_d4_rotations(d4) -> Presentation:
    """D4 with H the rotation subgroup, trivial class at modulus 4, balanced."""
    H = d4.subgroup(range(4))
    return Presentation(d4, H, Cocycle2.trivial(H, 4), (0, 4))


@pytest.fixture(scope="session")
def p_d4_klein(d4) -> Presentation:
    """D4 with the normal Klein subgroup {e, r^2, s, s r^2} and its nontrivial
    (G-invariant) class, balanced tuple."""
    H = d4.subgroup([0, 2, 4, 6])
    return Presentation(d4, H, klein_nontrivial_cocycle(H), (0, 1))


@pytest.fixture(scope="session")
def p_d3_reflection(d3) -> Presentation:
    """D3 with the non-normal order-2 reflection subgroup, one rep per coset."""
    H = d3.generated_subgroup([3])
    return Presentation(d3, H, Cocycle2.trivial(H, 1), (0, 1, 2))


@pytest.fixture(scope="session")
def p_z3z3_noninvariant(z3z3_swap_group) -> Presentation:
    """Coordinate swap sends the class zeta^(b1 a2) to its inverse: not
    G-invariant."""
    G = z3z3_swap_group
    H = G.subgroup([x for x in G.elements() if x % 2 == 0])
    return Presentation(G, H, z3z3_cocycle(H, 1), (0, 1))


# -- independent oracles ----------------------------------------------------------


def brute_is_identity(f: GradedPolynomial, algebra: GradedAlgebra) -> bool:
    """Full Cartesian-product identity check via element arithmetic."""
    vids = f.var_ids()
    pools = [
        [algebra.basis_element(k) for k in algebra.homogeneous_basis(f.degree_of[v])]
        for v in vids
    ]
    for choice in iproduct(*pools):
        if evaluate(f, algebra, dict(zip(vids, choice))):
            return False
    return True


def brute_coboundary(c: Cocycle2):
    """Exhaustive search over all modulus^|H| candidate maps."""
    H = c.subgroup
    g = H.parent
    n = len(H)
    N = c.modulus
    mem = H.members
    prod_local = [[H.local_index(g.mul(mem[i], mem[j])) for j in range(n)] for i in range(n)]
    for lam in iproduct(range(N), repeat=n):
        if all(
            (lam[i] + lam[j] - lam[prod_local[i][j]] - c.exps[i][j]) % N == 0
            for i in range(n)
            for j in range(n)
        ):
            return lam
    return None


def random_rational(rng, modulus: int) -> CycScalar:
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    den = rng.choice([1, 1, 2])
    return CycScalar.from_rational(modulus, Fraction(num, den))


def random_multilinear(
    rng, algebra: GradedAlgebra, degree: int, max_monomials: int = 4
) -> GradedPolynomial:
    """Random multilinear polynomial over random supported degrees."""
    sup = sorted(algebra.presentation.support())
    degrees = [rng.choice(sup) for _ in range(degree)]
    vs = variables_for(degrees)
    ids = [v.vid for v in vs]
    orders = list(permutations(ids))
    count = rng.randint(1, max_monomials)
    chosen = rng.sample(orders, k=min(count, len(orders)))
    monos = [(random_rational(rng, algebra.modulus), o) for o in chosen]
    return GradedPolynomial(vs, monos)


def count_walks(monkeypatch) -> list:
    """Record each polynomial that accumulate_evaluations walks from now on,
    called from polynomials or from binomials, which imports it by name (the
    callers look it up at call time)."""
    calls = []
    walk = polynomials.accumulate_evaluations

    def counting(poly, *args, **kwargs):
        calls.append(poly)
        return walk(poly, *args, **kwargs)

    for module in (polynomials, binomials):
        monkeypatch.setattr(module, "accumulate_evaluations", counting)
    return calls


def built_plans(monkeypatch, run) -> list:
    """The polynomials.WalkPlan of every walk that run() makes, in order
    (evaluation_table looks the builder up at call time, and walks each plan
    it builds)."""
    plans = []
    build = polynomials.WalkPlan

    def recording(*args):
        plans.append(build(*args))
        return plans[-1]

    with monkeypatch.context() as patch:
        patch.setattr(polynomials, "WalkPlan", recording)
        run()
    return plans


# -- Capelli polynomials --------------------------------------------------------------


def capelli_ids(n: int, x_least: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ids (x_1..x_n, y_0..y_n) of capelli(n, ...): the x's take 0..n-1
    and the y's n..2n when x_least, else the y's take 0..n and the x's
    n+1..2n."""
    if x_least:
        return tuple(range(n)), tuple(range(n, 2 * n + 1))
    return tuple(range(n + 1, 2 * n + 1)), tuple(range(n + 1))


def capelli(n: int, g: int, y_degrees, x_least: bool, modulus: int = 1) -> GradedPolynomial:
    """c_n = sum over sigma in S_n of sgn(sigma) y_0 x_sigma(1) y_1 ...
    x_sigma(n) y_n, with every x of degree g and y_k of degree y_degrees[k],
    on the ids of capelli_ids.  The sign is counted from inversions here, not
    taken from the package's alternate."""
    xs, ys = capelli_ids(n, x_least)
    variables = [GradedVariable(v, g) for v in xs]
    variables += [GradedVariable(v, d) for v, d in zip(ys, y_degrees, strict=True)]
    one = CycScalar.one(modulus)
    monomials = []
    for sigma in permutations(range(n)):
        inversions = sum(a > b for i, a in enumerate(sigma) for b in sigma[i + 1 :])
        order = [ys[0]]
        for k, s in enumerate(sigma, start=1):
            order += [xs[s], ys[k]]
        monomials.append((-one if inversions % 2 else one, tuple(order)))
    return GradedPolynomial(variables, monomials)
