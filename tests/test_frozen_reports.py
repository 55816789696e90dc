"""Frozen CLI reports: the sha256 of stdout and the exit code of fixed
documents, recorded once and asserted on every run.

The documents are the README sample under all seven commands, seeded
identity-check and envelope-check documents over Z2 x C2 and Z2 x C3 bases
(degrees 1-5, mostly non-identities with counterexamples), and witness
documents: the missing_coset and non_normal kinds (unequal_blocks is
readme-witness), the (Z3 x Z3):Z2 invariance obstruction, a strongly
verbally prime "none", and A4 witnesses over a modulus-3 cocycle whose
printed values are not rational.  Cohomology documents cover classify on
C64 > C32 and on (Z3 x Z3):Z2, equivalent on C4 x C4 x C2 (a non-trivial
class against the trivial one, and a moved pair with a coboundary twist),
normalize and equivalent on D4 over the non-normal subgroup [0, 4], and
validate on a table that is no cocycle.  A change that should keep every
report byte-identical must keep these digests; one that changes a report on
purpose records the new digest here and says why.

The seeded digests were made with _digests() on the sources before the
envelope trie was split by parity, the witness digests on the sources before
witness values were computed on basis triples, the cohomology digests on
the sources before conjugations that fix H returned their input.  The two
(Z3 x Z3):Z2 invariance reports, witness-invariance-Z3wrZ2 and
cohomology-classify-Z3wrZ2, were recorded again when the obstruction became
a 2-chain (cohomology.CoboundaryObstruction): only their obstruction line
and machine field changed.  Print the digests again with

    cd tests && PYTHONPATH=../src python3 -c \
        'import test_frozen_reports as t; print(t._digests())'
"""

import gc
import hashlib
import io
import json
import random
import tempfile
from itertools import permutations
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from gradedpi.cli import COMMANDS, main, run
from gradedpi.errors import GradedPIError
from gradedpi.groups import FiniteGroup

README_SAMPLE = {
    "group": {"construct": "cyclic", "n": 2},
    "names": {"e": 0, "sigma": 1},
    "subgroup": [0],
    "cocycle": {"modulus": 1, "exponents": [[0]]},
    "grading": [0, 0, "sigma"],
    "polynomials": {
        "bin": {
            "variables": ["x1:sigma", "x2:sigma"],
            "monomials": [
                {"coeff": "1", "order": [1, 2]},
                {"coeff": "-1", "order": [2, 1]},
            ],
        }
    },
    "params": {"polynomial": "bin"},
}


def _base(rng: random.Random, n: int) -> dict:
    """A presentation over Z2 x Cn (element s * n + g is (s, g)): the trivial
    or sign subgroup, or for n = 2 the whole group with the cocycle
    (-1)^(a_sign b_g), and a grading of two or three entries."""
    kind = rng.randrange(3 if n == 2 else 2)
    if kind == 0:
        subgroup, modulus, exps = [0], 1, [[0]]
    elif kind == 1:
        subgroup, modulus, exps = [0, n], rng.choice([1, 2]), [[0, 0], [0, 0]]
    else:
        subgroup, modulus = [0, 1, 2, 3], 2
        exps = [[(a // 2) * (b % 2) for b in range(4)] for a in range(4)]
    return {
        "group": {
            "construct": "product",
            "factors": [{"construct": "cyclic", "n": 2}, {"construct": "cyclic", "n": n}],
        },
        "subgroup": subgroup,
        "cocycle": {"modulus": modulus, "exponents": exps},
        "grading": [rng.randrange(2 * n) for _ in range(rng.randint(2, 3))],
    }


def _coeff(rng: random.Random, modulus: int):
    num, den = rng.choice([1, -1, 2, -3]), rng.choice([1, 1, 2, 3])
    text = str(num) if den == 1 else f"{num}/{den}"
    if modulus > 1 and rng.random() < 0.4:
        return [[0, text], [1, str(rng.choice([1, -1]))]]
    return text


def _seeded(i: int) -> dict:
    rng = random.Random(f"frozen-report:{i}")
    n = 2 if i % 2 else 3
    doc = _base(rng, n)
    degree = 1 + i % 5
    # Second-factor parts of g_a^-1 g_b, so that each variable has a nonzero
    # component to range over.
    parts = [(b - a) % n for a in doc["grading"] for b in doc["grading"]]
    orders = [tuple(rng.sample(range(1, degree + 1), degree)) for _ in range(rng.randint(1, 4))]
    orders = list(dict.fromkeys(orders))
    doc["polynomials"] = {
        "f": {
            "variables": [f"x{v}:{rng.choice(parts)}" for v in range(1, degree + 1)],
            "monomials": [
                {"coeff": _coeff(rng, doc["cocycle"]["modulus"]), "order": list(o)}
                for o in orders
            ],
        }
    }
    doc["params"] = {"polynomial": "f", "truncation": degree + rng.randrange(2)}
    return doc


def _table_group(elements: list, mul) -> dict:
    index = {x: i for i, x in enumerate(elements)}
    return {"table": [[index[mul(a, b)] for b in elements] for a in elements]}


def _z3z3_swap() -> dict:
    """(Z3 x Z3):Z2 swapping the coordinates; element ((a * 3) + b) * 2 + q
    is (a, b, q), so Z3 x Z3 is the even elements."""

    def mul(x, y):
        (a1, b1, q1), (a2, b2, q2) = x, y
        if q1:
            a2, b2 = b2, a2
        return ((a1 + a2) % 3, (b1 + b2) % 3, (q1 + q2) % 2)

    return _table_group([(x // 6, x // 2 % 3, x % 2) for x in range(18)], mul)


def _a4() -> dict:
    """The even permutations of 0..3 in lexicographic order; element 4 is
    (1 2 0 3) and generates the non-normal subgroup [0, 4, 6]."""
    def inversions(p):
        return sum(a > b for i, a in enumerate(p) for b in p[i + 1 :])

    even = [p for p in permutations(range(4)) if inversions(p) % 2 == 0]
    return _table_group(even, lambda a, b: tuple(a[k] for k in b))


def _witness_doc(group: dict, subgroup: list, modulus: int, exps: list, grading: list) -> dict:
    return {
        "group": group,
        "subgroup": subgroup,
        "cocycle": {"modulus": modulus, "exponents": exps},
        "grading": grading,
    }


S3 = {"construct": "dihedral", "n": 3}

# A coboundary on the C3 subgroup [0, 4, 6] of A4 with values zeta_3^k.
A4_COBOUNDARY = [[0, 0, 0], [0, 2, 1], [0, 1, 2]]

WITNESS_DOCUMENTS = {
    "non_normal-S3": _witness_doc(S3, [0, 3], 1, [[0, 0], [0, 0]], [0, 1, 2]),
    "non_normal-S3-mod3": _witness_doc(S3, [0, 3], 3, [[0, 0], [0, 1]], [0, 1, 2]),
    "missing_coset-C4": _witness_doc({"construct": "cyclic", "n": 4}, [0], 1, [[0]], [0, 1]),
    "invariance-Z3wrZ2": _witness_doc(
        _z3z3_swap(),
        list(range(0, 18, 2)),
        3,
        [[(a // 2 % 3) * (b // 6) % 3 for b in range(0, 18, 2)] for a in range(0, 18, 2)],
        [0, 1],
    ),
    "strong-none-C2": _witness_doc({"construct": "cyclic", "n": 2}, [0], 1, [[0]], [0, 1]),
    "non_normal-A4-mod3": _witness_doc(_a4(), [0, 4, 6], 3, A4_COBOUNDARY, [0, 1, 2, 9]),
    "missing_coset-A4-mod3": _witness_doc(_a4(), [0, 4, 6], 3, A4_COBOUNDARY, [0, 1, 2, 3]),
}



def _c64_coboundary() -> dict:
    """C64 > C32 (the even elements) with a modulus-2 coboundary d(lambda)
    and one entry in each coset: strongly verbally prime."""
    rng = random.Random("frozen-report:C64")
    H = list(range(0, 64, 2))
    lam = {h: (rng.randrange(2) if h else 0) for h in H}
    exps = [[(lam[a] + lam[b] - lam[(a + b) % 64]) % 2 for b in H] for a in H]
    return _witness_doc({"construct": "cyclic", "n": 64}, H, 2, exps, [6, 41])


# C4 x C4 x C2, element ((a * 4) + b) * 2 + q; H = C4 x C4 is the even elements.
C4C4C2 = {
    "construct": "product",
    "factors": [
        {"construct": "product", "factors": [{"construct": "cyclic", "n": 4}] * 2},
        {"construct": "cyclic", "n": 2},
    ],
}
C4C4 = list(range(0, 32, 2))


def _c4c4c2_add(x: int, y: int) -> int:
    a, b, q = (x // 8 + y // 8) % 4, (x // 2 + y // 2) % 4, (x + y) % 2
    return (a * 4 + b) * 2 + q


def _bilinear(k: int) -> list:
    """zeta_4^(k a_x b_y) on C4 x C4: a non-trivial class for k != 0."""
    return [[k * (x // 8) * (y // 2 % 4) % 4 for y in C4C4] for x in C4C4]


def _second(doc: dict, subgroup: list, exps: list, grading: list) -> dict:
    doc = dict(doc)
    doc["second"] = {
        "subgroup": subgroup,
        "cocycle": {"modulus": doc["cocycle"]["modulus"], "exponents": exps},
        "grading": grading,
    }
    return doc


def _bilinear_vs_trivial() -> dict:
    doc = _witness_doc(C4C4C2, C4C4, 4, _bilinear(3), [0, 13])
    return _second(doc, C4C4, _bilinear(0), [0, 13])


def _moved_c4c4c2() -> dict:
    """An equivalent pair: the second is the first under M3(9), an M2 by
    (6, 20), a swap (M1), and a coboundary twist of its cocycle."""
    first = _bilinear(1)
    lam = {h: (3 * h + h // 8) % 4 for h in C4C4}
    twisted = [
        [(v + lam[x] + lam[y] - lam[_c4c4c2_add(x, y)]) % 4 for v, y in zip(row, C4C4)]
        for row, x in zip(first, C4C4)
    ]
    grading = [2, 13]
    moved = [_c4c4c2_add(h, _c4c4c2_add(9, x)) for h, x in zip((6, 20), grading)]
    doc = _witness_doc(C4C4C2, C4C4, 4, first, grading)
    return _second(doc, C4C4, twisted, moved[::-1])


D4 = {"construct": "dihedral", "n": 4}


def _d4_non_normal() -> dict:
    """D4 (rotations 0..3, reflections s r^i at 4..7) over the non-normal
    subgroup [0, 4] with c(s, s) = -1; the second presentation is the first
    under M3(r), which moves H to [0, 6], an M2 and an M1, so conjugation
    builds new subgroups."""
    G = FiniteGroup.dihedral(4)
    exps = [[0, 0], [0, 1]]
    grading = [3, 5, 2]
    moved = [G.mul(h, G.mul(1, x)) for h, x in zip((6, 0, 6), grading)]
    doc = _witness_doc(D4, [0, 4], 2, exps, grading)
    return _second(doc, [G.conj(1, 0), G.conj(1, 4)], exps, [moved[2], moved[0], moved[1]])


COHOMOLOGY_DOCUMENTS = [
    ("classify-C64", "classify", _c64_coboundary()),
    ("classify-Z3wrZ2", "classify", WITNESS_DOCUMENTS["invariance-Z3wrZ2"]),
    ("equivalent-bilinear-vs-trivial", "equivalent", _bilinear_vs_trivial()),
    ("equivalent-moved-C4C4C2", "equivalent", _moved_c4c4c2()),
    ("normalize-D4-non-normal", "normalize", _d4_non_normal()),
    ("equivalent-D4-non-normal", "equivalent", _d4_non_normal()),
    (
        "validate-invalid-C4",
        "validate",
        _witness_doc({"construct": "cyclic", "n": 4}, [0, 1, 2, 3], 4,
                     [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], [0]),
    ),
]

DOCUMENTS = (
    [(f"readme-{command}", command, README_SAMPLE) for command in COMMANDS]
    + [
        (f"seeded-{i}-{command}", command, _seeded(i))
        for i in range(16)
        for command in ("identity-check", "envelope-check")
    ]
    + [(f"witness-{name}", "witness", doc) for name, doc in WITNESS_DOCUMENTS.items()]
    + [(f"cohomology-{name}", command, doc) for name, command, doc in COHOMOLOGY_DOCUMENTS]
)


def _digests() -> dict[str, tuple[int, str]]:
    """Per document: the CLI's exit code and the sha256 of its stdout."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        for name, command, doc in DOCUMENTS:
            path.write_text(json.dumps(doc))
            stdout = io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = main(["--input", str(path), "--command", command])
            out[name] = (code, hashlib.sha256(stdout.getvalue().encode()).hexdigest())
    return out


FROZEN = {
    "readme-validate": (0, "8a12be56ffb92e07f453023a53914351cfd06763356faea637a5f64e74c297ea"),
    "readme-classify": (1, "38c793c3a07df2a7d3049e2e6f5d2fd1381e9fdb6aff8a1eb43cf2fa5ac06f6a"),
    "readme-normalize": (0, "d72a0a28ca1051bf4da07f8c3fe138dcb1b769eb318605170fda8d2f30964723"),
    "readme-equivalent": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "readme-identity-check": (1, "1d41e387dfb60c15bd823a21b9030be93490a238f917071caf92bbf465f29481"),
    "readme-witness": (0, "e3579ce812a579be53b9de1bf37d9bdbbdea1314a8825401d0b83873ce915ca7"),
    "readme-envelope-check": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded-0-identity-check": (0, "44d45a7698bbcb7b240c57aa028076b88c009a5aa886f14112cedd42be87ea35"),
    "seeded-0-envelope-check": (1, "a176a3cbba355ee74fc8e8e21dd8f26bb758a671128b97327b6211d1b65b7812"),
    "seeded-1-identity-check": (1, "2396b0509a3b92e7a91bfdede6b13cd90db41253f6fe076f6cd03128b8f335cf"),
    "seeded-1-envelope-check": (1, "b4c428cfc07b9191755e14b97516ea2d33420dac314db1a5c074588fdd035316"),
    "seeded-2-identity-check": (1, "a843f63b65eccc9ceb2b35a1c88a3b65efed020632e364fdbdb429705260bd65"),
    "seeded-2-envelope-check": (1, "ba9e81f722252e7d0dfe1b04ef02912d03664e380fb67dee21d3e74c6aa4095b"),
    "seeded-3-identity-check": (1, "ac41d18bcb12481c0373001f16b52d7e0b1b195a53654e60180437df88567aaf"),
    "seeded-3-envelope-check": (1, "4f6bf898c7a4b10f966abbe04665659d2f4e3c0150eb784e14ff98ccd6736ed4"),
    "seeded-4-identity-check": (0, "44d45a7698bbcb7b240c57aa028076b88c009a5aa886f14112cedd42be87ea35"),
    "seeded-4-envelope-check": (0, "25b7e0246fcf556994289412488aecba13614ff9b2bb2ed353c8141efb8c788d"),
    "seeded-5-identity-check": (1, "37cf99b7debee4419943c841fa4cd8b057c9167f76caf181366f21847a79f0f6"),
    "seeded-5-envelope-check": (1, "8efd3e37b76b0564339de46e65532651cbd40883cc521188ff097dfbbf3cf35b"),
    "seeded-6-identity-check": (1, "3d6a870b844636951c040ec61c18e0316e844aa3f2bac06c188f0d61abec0f38"),
    "seeded-6-envelope-check": (1, "6d47130b12769f4d89fc37aa17bb6d514af6a651bea8e9f4b326a30e03ddca48"),
    "seeded-7-identity-check": (1, "d1b7c7faddea9c0625c4b1f86c4365bb50828c60079ecf28b1547778b8c1e290"),
    "seeded-7-envelope-check": (1, "b88ada62978b8a355512e0f063f0b9a9ce011545e3bb0aac0754625bea9e70b5"),
    "seeded-8-identity-check": (1, "7594ec4845c5b2ca54765250bd05fbb2309bff6c81217571a9092f676b00b763"),
    "seeded-8-envelope-check": (1, "0564d9cd8b5927ee7c2e7be246f7acd48928236d8f463e2e140054b7ec674846"),
    "seeded-9-identity-check": (1, "328edc38e67055698d8499b8ab662898f2ec5b02f918eb227362288d9408eeaf"),
    "seeded-9-envelope-check": (1, "ea3eb49cfb28146ca8d4934372e2018b3705c4b4d5fb913cfeb19bada2b590ac"),
    "seeded-10-identity-check": (0, "44d45a7698bbcb7b240c57aa028076b88c009a5aa886f14112cedd42be87ea35"),
    "seeded-10-envelope-check": (1, "cc4f532942fd41c6749c27d7323c2b201d302a6cba6ec8b55deb339877c3fe8c"),
    "seeded-11-identity-check": (1, "3d6a870b844636951c040ec61c18e0316e844aa3f2bac06c188f0d61abec0f38"),
    "seeded-11-envelope-check": (1, "6d47130b12769f4d89fc37aa17bb6d514af6a651bea8e9f4b326a30e03ddca48"),
    "seeded-12-identity-check": (0, "44d45a7698bbcb7b240c57aa028076b88c009a5aa886f14112cedd42be87ea35"),
    "seeded-12-envelope-check": (0, "df73cdc943d13599af6421881ff556f8abf3953a088cf21020aa6e5593f73be8"),
    "seeded-13-identity-check": (1, "7594ec4845c5b2ca54765250bd05fbb2309bff6c81217571a9092f676b00b763"),
    "seeded-13-envelope-check": (1, "6a9e2f2faa7937cd50f8533c68b3441412915c68e3a924285c06ab35c77df1ce"),
    "seeded-14-identity-check": (1, "328edc38e67055698d8499b8ab662898f2ec5b02f918eb227362288d9408eeaf"),
    "seeded-14-envelope-check": (1, "ea3eb49cfb28146ca8d4934372e2018b3705c4b4d5fb913cfeb19bada2b590ac"),
    "seeded-15-identity-check": (1, "37cf99b7debee4419943c841fa4cd8b057c9167f76caf181366f21847a79f0f6"),
    "seeded-15-envelope-check": (1, "8efd3e37b76b0564339de46e65532651cbd40883cc521188ff097dfbbf3cf35b"),
    "witness-non_normal-S3": (0, "6106bd9c292681a7fda056440ef4749e1a67c4fcc26309e44f65c5c414e049bd"),
    "witness-non_normal-S3-mod3": (0, "ebb21ecd06adb3e9fa9f6546f25d008c61852a9f2dedd2a8603ec6415ae24f09"),
    "witness-missing_coset-C4": (0, "f6f1d3180dfb41223348e9a7c4425eff60bc48642670f9597316503c90302f82"),
    "witness-invariance-Z3wrZ2": (0, "54967eb9490d7a76850e3e885ed8e2bb3071302a9251c035164d98bddafe44aa"),
    "witness-strong-none-C2": (1, "743e2ceb83fe502a441240d41a58a808a961f6eb259291577bdf696612f4a62e"),
    "witness-non_normal-A4-mod3": (0, "001660cad6ded5a168adc646ab63d8603d1720c69bd2a5ca8531a109a05ae14a"),
    "witness-missing_coset-A4-mod3": (0, "3ad87fcb9721e27fefea77bfab4ef65afa56eceb1cc01d718261448a03cd6b6a"),
    "cohomology-classify-C64": (0, "96a7ea0ef7f4fbb3f5f26313bc84643203bcf717031909a4861119b665f23f00"),
    "cohomology-classify-Z3wrZ2": (1, "127911ca9b82623254fcef6656b2ddd5bcecb34aba06fcd372147a06b4518bae"),
    "cohomology-equivalent-bilinear-vs-trivial": (1, "9ed59c3c060acacd249fda01b09664732f6546a64bebfda97e4295d829c5ddb5"),
    "cohomology-equivalent-moved-C4C4C2": (0, "f647dc819f78b31daf3c85ece20a27f4bbfe9d5ac1b218164924826ba73ec43e"),
    "cohomology-normalize-D4-non-normal": (0, "af43e88b86a905e3d4ddaabc1c88e7dfe7c61a8d57aae59f60db18c4f672eb33"),
    "cohomology-equivalent-D4-non-normal": (0, "f647dc819f78b31daf3c85ece20a27f4bbfe9d5ac1b218164924826ba73ec43e"),
    "cohomology-validate-invalid-C4": (2, "4198fab8cffa350003a36f0b78c4613367ad167e7b1b384dea588444766ab592"),
}


def test_reports_match_their_frozen_digests():
    assert _digests() == FROZEN


def test_no_document_leaves_garbage_for_the_cyclic_collector():
    """With the collector off, every document above, over all seven
    commands, leaves nothing unreachable once cli.run returns or raises, or
    once main returns: no command path holds a reference cycle, and main
    builds its argparse parser once per process, before this loop."""
    assert {command for _, command, _ in DOCUMENTS} == set(COMMANDS)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        argv = ["--input", str(path), "--command"]
        path.write_text("{}")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            main(argv + ["validate"])
        gc.collect()
        gc.disable()
        try:
            for name, command, doc in DOCUMENTS:
                try:
                    run(command, doc)
                except GradedPIError:
                    pass
                assert gc.collect() == 0, name
                path.write_text(json.dumps(doc))
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    main(argv + [command])
                assert gc.collect() == 0, f"main: {name}"
        finally:
            gc.enable()
