"""Document parsing, command dispatch, exit codes, determinism."""

import ast
import importlib.util
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gradedpi.cli import (
    COMMANDS,
    MACHINE_BEGIN,
    MACHINE_END,
    MAX_GRADING,
    MAX_RATIONAL_DIGITS,
    SessionDocument,
    _json_block,
    main,
    parse_coefficient,
    parse_polynomial,
    run,
    serialize_coefficient,
    serialize_polynomial,
    serialize_presentation,
)
from gradedpi.cohomology import Cocycle2
from gradedpi.errors import DisconnectedGradingError, DocumentError
from gradedpi.scalars import CycScalar


def doc_z2(grading, polys=None, params=None, extra=None):
    doc = {
        "group": {"construct": "cyclic", "n": 2},
        "names": {"e": 0, "sigma": 1},
        "subgroup": [0],
        "cocycle": {"modulus": 1, "exponents": [[0]]},
        "grading": grading,
    }
    if polys:
        doc["polynomials"] = polys
    if params:
        doc["params"] = params
    if extra:
        doc.update(extra)
    return doc


def machine_block(text: str) -> dict:
    start = text.index(MACHINE_BEGIN) + len(MACHINE_BEGIN)
    end = text.index(MACHINE_END)
    return json.loads(text[start:end])


def test_classify_command_exit_codes():
    text, code = run("classify", doc_z2([0, 0, 1]))
    assert code == 1
    block = machine_block(text)
    assert block["verbally_prime"] is True
    assert block["strongly_verbally_prime"] is False
    assert block["normalized_presentation"]["grading"] == [0, 1, 1]
    text2, code2 = run("classify", doc_z2([0, 1]))
    assert code2 == 0 and machine_block(text2)["strongly_verbally_prime"] is True


def test_validate_detects_corrupt_cocycle(k4):
    doc = {
        "group": {"construct": "product", "factors": [
            {"construct": "cyclic", "n": 2}, {"construct": "cyclic", "n": 2}]},
        "subgroup": [0, 1, 2, 3],
        "cocycle": {"modulus": 2, "exponents": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]]},
        "grading": [0],
    }
    text, code = run("validate", doc)
    assert code == 2
    assert "violation" in text


def test_validate_ok():
    text, code = run("validate", doc_z2([0, 1]))
    assert code == 0
    block = machine_block(text)
    assert block["valid"] and block["connected"] and block["dimension"] == 4


def test_identity_check_command():
    polys = {
        "bin": {
            "variables": ["x1:sigma", "x2:sigma"],
            "monomials": [
                {"coeff": "1", "order": [1, 2]},
                {"coeff": "-1", "order": [1, 2]},
            ],
        }
    }
    text, code = run("identity-check", doc_z2([0, 1], polys, {"polynomial": "bin"}))
    assert code == 0 and machine_block(text)["identity"] is True
    polys2 = {
        "x": {"variables": ["x1:sigma"], "monomials": [{"coeff": "1", "order": [1]}]}
    }
    text2, code2 = run("identity-check", doc_z2([0, 1], polys2, {"polynomial": "x"}))
    assert code2 == 1 and machine_block(text2)["identity"] is False


def test_normalize_command():
    text, code = run("normalize", doc_z2([0, 0, 1]))
    assert code == 0
    assert machine_block(text)["normalized_presentation"]["grading"] == [0, 1, 1]


def test_equivalent_command():
    doc = doc_z2(
        [0, 0, 1],
        extra={
            "second": {
                "subgroup": [0],
                "cocycle": {"modulus": 1, "exponents": [[0]]},
                "grading": [1, 1, 0],
            }
        },
    )
    text, code = run("equivalent", doc)
    assert code == 0 and machine_block(text)["equivalent"] is True
    doc2 = doc_z2(
        [0, 1],
        extra={
            "second": {
                "subgroup": [0, 1],
                "cocycle": {"modulus": 1, "exponents": [[0, 0], [0, 0]]},
                "grading": [0],
            }
        },
    )
    text2, code2 = run("equivalent", doc2)
    assert code2 == 1 and machine_block(text2)["equivalent"] is False


def test_witness_command_and_no_witness():
    text, code = run("witness", doc_z2([0, 0, 1]))
    assert code == 0
    block = machine_block(text)
    assert block["witness"]["kind"] == "unequal_blocks"
    assert block["certificate"]["product_identity"] is True
    assert block["certificate"]["span_square_zero"] is True
    text2, code2 = run("witness", doc_z2([0, 1]))
    assert code2 == 1 and machine_block(text2)["witness"] is None


def test_witness_invariance_certificate(z3z3_swap_group):
    from conftest import z3z3_cocycle

    G = z3z3_swap_group
    H = [x for x in G.elements() if x % 2 == 0]
    c = z3z3_cocycle(G.subgroup(H), 1)
    doc = {
        "group": {"table": [list(r) for r in G.table]},
        "subgroup": H,
        "cocycle": {"modulus": 3, "exponents": [list(r) for r in c.exps]},
        "grading": [0, 1],
    }
    text, code = run("witness", doc)
    assert code == 0
    block = machine_block(text)
    assert block["witness"] is None
    assert block["certificate"]["kind"] == "invariance_obstruction"


def test_envelope_command():
    doc = {
        "group": {
            "construct": "product",
            "factors": [
                {"construct": "cyclic", "n": 2},
                {"construct": "cyclic", "n": 2},
            ],
        },
        "subgroup": [0],
        "cocycle": {"modulus": 1, "exponents": [[0]]},
        "grading": [0, 2],
        "polynomials": {
            "comm": {
                "variables": ["x1:0", "x2:0"],
                "monomials": [
                    {"coeff": "1", "order": [1, 2]},
                    {"coeff": "-1", "order": [2, 1]},
                ],
            }
        },
        "params": {"polynomial": "comm", "truncation": 4},
    }
    text, code = run("envelope-check", doc)
    assert code == 1  # odd parts make the commutator fail
    assert machine_block(text)["identity"] is False


def test_schema_errors_name_fields():
    with pytest.raises(DocumentError, match="grading"):
        run("classify", {"group": {"construct": "cyclic", "n": 2}, "subgroup": [0],
                         "cocycle": {"modulus": 1, "exponents": [[0]]}})
    with pytest.raises(DocumentError, match="subgroup"):
        run("classify", doc_z2([0, 1], extra={"subgroup": [0, 1, 2]}))
    with pytest.raises(DocumentError, match="unknown element alias"):
        run("classify", doc_z2(["tau", 1]))
    with pytest.raises(DocumentError, match="polynomial"):
        run("identity-check", doc_z2([0, 1]))


def test_an_unknown_command_is_refused_before_the_document_is_read():
    """An empty document would fail on its missing group; the command is
    checked first."""
    with pytest.raises(DocumentError, match="unknown command 'bogus'"):
        run("bogus", {})
    assert COMMANDS == (
        "validate", "classify", "normalize", "equivalent", "identity-check", "witness", "envelope-check"
    )


README_SAMPLE = {
    "group": {"construct": "cyclic", "n": 2},
    "names": {"e": 0, "sigma": 1},
    "subgroup": [0],
    "cocycle": {"modulus": 1, "exponents": [[0]]},
    "grading": [0, 0, "sigma"],
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("cocycle.modulus", "abc"),
        ("cocycle.modulus", 2.5),
        ("cocycle.modulus", True),
        ("cocycle.modulus", 10**12),
        ("cocycle.exponents", [["x"]]),
        ("cocycle.exponents", 5),
        ("subgroup", 5),
    ],
)
def test_bad_cocycle_block_exits_2_naming_the_field(field, value, tmp_path, capsys):
    doc = json.loads(json.dumps(README_SAMPLE))
    *parents, key = field.split(".")
    target = doc
    for name in parents:
        target = target[name]
    target[key] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["--input", str(path), "--command", "classify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


README_SAMPLE_WITH_POLYNOMIAL = {
    **README_SAMPLE,
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


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("group", "n"), "abc", "group.n"),
        (("group", "n"), 2.5, "group.n"),
        (("group", "n"), True, "group.n"),
        (("group",), {"construct": "symmetric", "n": 5}, "group.n"),
        (("group",), {"construct": "dihedral", "n": 0}, "group.n"),
        (("group",), {"construct": "product", "factors": [
            {"construct": "cyclic", "n": 16}, {"construct": "cyclic", "n": 8}]}, "group"),
        (("group", "construct"), ["cyclic"], "group.construct"),
        (("names", "sigma"), "x", "names.sigma"),
        (("second",), 5, "second"),
        (("grading", 2), True, "grading[2]"),
        (("polynomials",), [], "polynomials"),
        (("polynomials", "bin", "variables"), 5, "polynomials.bin.variables"),
        (("polynomials", "bin", "monomials"), 5, "polynomials.bin.monomials"),
        (("polynomials", "bin", "monomials", 0), 5, "polynomials.bin.monomials[0]"),
        (("polynomials", "bin", "monomials", 0, "order"), 12,
         "polynomials.bin.monomials[0].order"),
        (("polynomials", "bin", "monomials", 0, "order", 0), "a",
         "polynomials.bin.monomials[0].order[0]"),
        (("polynomials", "bin", "monomials", 0, "order", 0), 1.5,
         "polynomials.bin.monomials[0].order[0]"),
        (("polynomials", "bin"), {"variables": [], "monomials": [{"coeff": "1", "order": []}]},
         "polynomials.bin"),
        (("group",), {"table": [[0, "a"], [1, 0]]}, "group.table[0]"),
        (("group",), {"table": [[0, 1], 5]}, "group.table[1]"),
        (("group",), {"table": [[0, True], [True, 0]]}, "group.table[0]"),
        (("group",), {"table": 5}, "group.table"),
        (("polynomials", "bin", "monomials", 0, "coeff"), True,
         "polynomials.bin.monomials[0].coeff"),
        (("polynomials", "bin", "monomials", 0, "coeff"), [[0.7, "1"]],
         "polynomials.bin.monomials[0].coeff[0]"),
        (("polynomials", "bin", "monomials", 0, "coeff"), "1e999999",
         "polynomials.bin.monomials[0].coeff"),
        (("polynomials", "bin", "monomials", 0, "coeff"), [[1, "-1e-200"]],
         "polynomials.bin.monomials[0].coeff[0]"),
        (("grading",), [0] * (MAX_GRADING + 1), "grading"),
        (("second",), {"subgroup": [0], "cocycle": {"modulus": 1, "exponents": [[0]]},
                       "grading": [0] * (MAX_GRADING + 1)}, "second.grading"),
        (("polynomials", "bin", "variables", 0), "x1:\u00b2", "polynomials.bin.variables[0]"),
        (("polynomials", "bin", "variables", 0), "x1:--1", "polynomials.bin.variables[0]"),
        (("polynomials", "bin", "variables", 0), "x1:\u0663", "polynomials.bin.variables[0]"),
        (("polynomials", "bin", "variables", 0), "x1_0:sigma", "polynomials.bin.variables[0]"),
        (("polynomials", "bin", "variables", 0), "x\u0663:sigma", "polynomials.bin.variables[0]"),
        (("polynomials", "bin", "variables", 0), "x 1:sigma", "polynomials.bin.variables[0]"),
        (("polynomials", "bin", "variables", 1), "x+2:sigma", "polynomials.bin.variables[1]"),
        (("polynomials", "bin", "variables", 0), "x:sigma", "polynomials.bin.variables[0]"),
        (("polynomials", "bin", "variables", 0), "x--1:sigma", "polynomials.bin.variables[0]"),
        (("polynomials", "bin", "variables", 0), "x" + "1" * (MAX_RATIONAL_DIGITS + 1) + ":sigma",
         "polynomials.bin.variables[0]"),
    ],
)
def test_bad_document_exits_2_naming_the_field(path, value, field, tmp_path, capsys):
    doc = json.loads(json.dumps(README_SAMPLE_WITH_POLYNOMIAL))
    *parents, key = path
    target = doc
    for name in parents:
        target = target[name]
    target[key] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["--input", str(path), "--command", "classify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


# C2 x C1 with H = C2 and c(e, sigma) = -1: not normalized, so not a cocycle.
# The polynomial, params and second presentation give every command what it
# reads before the cocycle.
INVALID_COCYCLE = {
    "group": {"construct": "product", "factors": [
        {"construct": "cyclic", "n": 2}, {"construct": "cyclic", "n": 1}]},
    "subgroup": [0, 1],
    "cocycle": {"modulus": 2, "exponents": [[0, 1], [0, 0]]},
    "grading": [0],
    "polynomials": {"x": {"variables": ["x1:0"], "monomials": [{"coeff": "1", "order": [1]}]}},
    "params": {"polynomial": "x", "truncation": 2},
    "second": {"subgroup": [0], "cocycle": {"modulus": 1, "exponents": [[0]]}, "grading": [0]},
}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_exits_2_on_an_invalid_cocycle(command, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(INVALID_COCYCLE))
    assert main(["--input", str(path), "--command", command]) == 2
    captured = capsys.readouterr()
    first = "normalization violation at (0, 1): c(e, h) != 1"
    if command == "validate":
        assert captured.err == "" and f"violation: {first}" in captured.out
    else:
        assert captured.out == ""
        assert captured.err == f"input error: cocycle: {first}\n"


# The subgroup {0, 3} of D3 is not normal, so classify conjugates it before
# building anything: the document's element 3 would be 5 in the normal form.
INVALID_D3_COCYCLE = {
    "group": {"construct": "dihedral", "n": 3},
    "subgroup": [0, 3],
    "cocycle": {"modulus": 2, "exponents": [[0, 1], [0, 0]]},
    "grading": [1, 2],
}


@pytest.mark.parametrize("command", ["validate", "classify", "normalize", "witness"])
def test_an_invalid_cocycle_is_named_in_the_documents_coordinates(command, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(INVALID_D3_COCYCLE))
    assert main(["--input", str(path), "--command", command]) == 2
    captured = capsys.readouterr()
    first = "normalization violation at (0, 3): c(e, h) != 1"
    if command == "validate":
        assert captured.err == "" and f"violation: {first}" in captured.out
    else:
        assert captured.out == ""
        assert captured.err == f"input error: cocycle: {first}\n"


def test_equivalent_checks_the_second_cocycle(tmp_path, capsys):
    doc = json.loads(json.dumps(INVALID_COCYCLE))
    doc["second"], doc["subgroup"] = {**doc, "grading": [1]}, [0]
    doc["cocycle"] = {"modulus": 1, "exponents": [[0]]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["--input", str(path), "--command", "equivalent"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "input error: second.cocycle: normalization violation at (0, 1): c(e, h) != 1\n"
    )


def test_envelope_truncation_must_be_an_integer_not_a_bool():
    c2 = {"construct": "cyclic", "n": 2}
    doc = {
        "group": {"construct": "product", "factors": [c2, c2]},
        "subgroup": [0],
        "cocycle": {"modulus": 1, "exponents": [[0]]},
        "grading": [0, 2],
        "polynomials": {"f": {"variables": ["x1:0"], "monomials": [{"coeff": "1", "order": [1]}]}},
        "params": {"polynomial": "f", "truncation": True},
    }
    with pytest.raises(DocumentError, match="params.truncation"):
        run("envelope-check", doc)
    doc["params"]["truncation"] = 1
    assert run("envelope-check", doc)[1] == 1


def test_coefficient_literals_are_capped_before_fraction_reads_them():
    cap = MAX_RATIONAL_DIGITS
    assert parse_coefficient(f"1e{cap - 1}", 1, "c") == CycScalar.from_rational(1, 10 ** (cap - 1))
    high = [0] * 1024
    high[3], high[700], high[1019] = Fraction(2, 3), Fraction(1, 2), 7
    for value, modulus, poly in (
        ([[1, "-2/5"], [3, 1], [-1, "1/2"]], 4, [0, Fraction(-2, 5), 0, Fraction(3, 2)]),
        ([[700, "2/4"], [3, 1], [3, "-1/3"], [-5, "7"]], 1024, high),
        ("2/4", 1024, [Fraction(1, 2)]),
        ([[2, "1/2"], [2, "-1/2"]], 3, []),
    ):
        assert parse_coefficient(value, modulus, "c") == CycScalar.from_poly(modulus, poly)
    for bad in (f"1e{cap}", f"1e-{cap}", "9" * (cap + 1), "1e999999999999"):
        with pytest.raises(DocumentError, match="exceeds"):
            parse_coefficient(bad, 1, "c")


# Literals at the edge of the plain ASCII form that int() reads: signs,
# spaces, underscores, non-ASCII digits, zero and leading-zero denominators,
# exponents and decimals, the digit cap, JSON ints and a bool.
EDGE_LITERALS = [
    "+1", " 1", "1_0", "\u0661\u0662", "-0", "0/5", "1/05", "1/0", "1/-2", "1e3", "1.5", "",
    "12/8", "-3/4", "7" * MAX_RATIONAL_DIGITS, "7" * (MAX_RATIONAL_DIGITS + 1),
    "-" + "7" * (MAX_RATIONAL_DIGITS - 1), "-" + "7" * MAX_RATIONAL_DIGITS,
    "1/" + "3" * (MAX_RATIONAL_DIGITS - 2), 5, -7, 10 ** (MAX_RATIONAL_DIGITS - 1),
    10**MAX_RATIONAL_DIGITS, True,
]


def _scalar_or_message(value, modulus):
    try:
        return parse_coefficient(value, modulus, "c")
    except DocumentError as exc:
        return str(exc)


def test_plain_literals_read_with_int_match_the_fraction_path(monkeypatch):
    import re

    from gradedpi import cli

    values = EDGE_LITERALS + [[[1, v]] for v in EDGE_LITERALS]
    values += [[[3, v], [-1, "1/6"]] for v in EDGE_LITERALS]
    for modulus in (1, 4, 12):
        fast = [_scalar_or_message(v, modulus) for v in values]
        with monkeypatch.context() as m:
            m.setattr(cli, "_PLAIN_RATIONAL", re.compile("(?!)"))  # never matches
            slow = [_scalar_or_message(v, modulus) for v in values]
        assert fast == slow
        assert sum(isinstance(x, CycScalar) for x in fast) == 3 * 17  # 17 of 24 are valid
    with monkeypatch.context() as m:  # the plain literals never reach Fraction
        m.setattr(cli, "Fraction", None)
        for text in ("-0", "0/5", "12/8", "-3/4", "7" * MAX_RATIONAL_DIGITS, -7):
            assert parse_coefficient([[1, text]], 4, "c") == parse_coefficient(
                text, 4, "c"
            ).shift_root(1)


@pytest.mark.parametrize("modulus", [1, 3, 4, 12, 1001, 1024])
def test_power_lists_sum_power_table_rows_like_from_poly(modulus):
    import random

    rng = random.Random(modulus)
    for _ in range(40):
        terms = [
            [rng.randrange(-2 * modulus, 2 * modulus), f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}"]
            for _ in range(rng.randint(0, 5))
        ]
        poly = [Fraction(0)] * modulus
        for power, q in terms:
            poly[power % modulus] += Fraction(q)
        assert parse_coefficient(terms, modulus, "c") == CycScalar.from_poly(modulus, poly)


# Strings json must escape: quotes, backslashes, control characters, non-ASCII
# letters, a line separator and a character outside the BMP.
AWKWARD_TEXT = ['"', "\\", "\x00", "\n\t\x1f", "\u00e9", "\u2028", "\U0001f600", "", "a\"b"]

json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-(10**60) - 7, 10**40, -1, 0])
    | st.text()
    | st.sampled_from(AWKWARD_TEXT)
)
json_keys = st.text(max_size=4) | st.sampled_from(AWKWARD_TEXT)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_keys, inner, max_size=4),
    max_leaves=16,
)


@seed(20261019)
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(json_values)
def test_report_writer_matches_indented_json_dumps(value):
    assert _json_block(value) == json.dumps(value, indent=2, sort_keys=True)


def test_report_writer_refuses_floats_and_non_str_keys():
    for bad in (1.5, [0, {"a": float("nan")}], {1: 2}, {"a": {None: 0}}, {"a": (1,)}, b"x"):
        with pytest.raises(TypeError):
            _json_block(bad)


@pytest.mark.parametrize("command", COMMANDS)
def test_report_writer_on_the_readme_sample(command, monkeypatch):
    from gradedpi import cli

    blocks = []
    emit = cli._emit

    def spy(lines, machine):
        blocks.append(json.dumps(machine, indent=2, sort_keys=True))
        return emit(lines, machine)

    monkeypatch.setattr(cli, "_emit", spy)
    try:
        text, _ = run(command, README_SAMPLE_WITH_POLYNOMIAL)
    except DocumentError:  # equivalent and envelope-check need more fields
        assert command in ("equivalent", "envelope-check") and not blocks
        return
    assert blocks and f"{MACHINE_BEGIN}\n{blocks[0]}\n{MACHINE_END}\n" in text


def test_max_degree_cap():
    polys = {
        "x": {"variables": ["x1:sigma"], "monomials": [{"coeff": "1", "order": [1]}]}
    }
    doc = doc_z2([0, 1], polys, {"polynomial": "x"})
    with pytest.raises(DocumentError, match="max-degree"):
        run("identity-check", doc, max_degree=0)


def test_polynomial_round_trip(p_k4_twisted):
    import random

    from gradedpi.algebra import build_algebra
    from conftest import random_multilinear

    rng = random.Random(21)
    A = build_algebra(p_k4_twisted)
    names: dict = {}
    for _ in range(10):
        f = random_multilinear(rng, A, rng.randint(1, 3))
        spec = serialize_polynomial(f)
        back = parse_polynomial(spec, names, A.group, A.modulus, "roundtrip")
        assert back == f


def test_serialize_coefficient_writes_rationals_as_fraction_does():
    """A rational coefficient prints byte for byte as str(Fraction): an
    integer without a denominator, negative and zero included, and num/den
    in lowest terms otherwise; a non-rational one lists its nonzero
    power-basis coordinates."""
    import random

    rng = random.Random(31)
    values = [Fraction(0), Fraction(-1), Fraction(7), Fraction(-6, 4), Fraction(10, 15)]
    values += [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(40)]
    for order in (1, 3, 4, 12):
        for q in values:
            c = CycScalar.from_rational(order, q)
            assert serialize_coefficient(c) == str(Fraction(c.nums[0], c.den)) == str(q)
    c = CycScalar(3, [Fraction(-1, 2), Fraction(2, 3)])
    assert serialize_coefficient(c) == [[0, "-1/2"], [1, "2/3"]]


def test_emit_witness_function():
    from gradedpi.classify import classify
    from gradedpi.cli import emit_witness
    from gradedpi.errors import NoWitnessError
    from gradedpi.groups import FiniteGroup
    from gradedpi.cohomology import Cocycle2
    from gradedpi.algebra import Presentation

    z2 = FiniteGroup.cyclic(2)
    H = z2.trivial_subgroup()
    c = Cocycle2.trivial(H, 1)
    report = classify(Presentation(z2, H, c, (0, 0, 1)), with_witness=True)
    block = emit_witness(report)
    assert block["witness"]["kind"] == "unequal_blocks"
    assert block["certificate"]["product_identity"] is True
    strong = classify(Presentation(z2, H, c, (0, 1)), with_witness=True)
    with pytest.raises(NoWitnessError):
        emit_witness(strong)


def test_document_presentation_round_trip():
    """Re-embedding a serialized presentation parses back to equal data."""
    base = doc_z2([0, 0, 1])
    doc = SessionDocument(base)
    ser = serialize_presentation(doc.presentation)
    rebuilt = dict(base)
    rebuilt.update(ser)
    doc2 = SessionDocument(rebuilt)
    assert doc2.presentation == doc.presentation
    assert json.dumps(serialize_presentation(doc2.presentation), sort_keys=True) == json.dumps(
        ser, sort_keys=True
    )


def test_threads_flag_is_accepted_and_ignored(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc_z2([0, 0, 1])))
    args = ["--input", str(path), "--command", "classify"]
    code = main(args)
    plain = capsys.readouterr().out
    assert main(args + ["--threads", "4"]) == code
    assert capsys.readouterr().out == plain


def test_variable_degrees_read_only_ascii_indices():
    """A degree is an element index only when it is ASCII -?[0-9]+; any other
    text, digits of other scripts included, is an alias."""
    from gradedpi.groups import FiniteGroup

    group = FiniteGroup.cyclic(5)

    def degrees(*variables):
        spec = {"variables": list(variables), "monomials": []}
        return parse_polynomial(spec, {"s": 1}, group, 1, "p").degree_of

    assert degrees("x1:3", "x2:s", "x3:-0", "x4:04") == {1: 3, 2: 1, 3: 0, 4: 4}
    for tail in ("\u00b2", "--1", "\u0663", "+1", " 1", "1 "):
        with pytest.raises(DocumentError, match="variables\\[0\\]: unknown element alias"):
            degrees(f"x1:{tail}")
    with pytest.raises(DocumentError, match="variables\\[0\\]: element -1 out of range"):
        degrees("x1:-1")
    with pytest.raises(DocumentError, match="variables\\[0\\]: element index exceeds"):
        degrees("x1:" + "0" * (MAX_RATIONAL_DIGITS + 1))


def test_main_maps_undecodable_documents_to_input_errors(tmp_path, capsys):
    """JSON nested past the decoder's recursion limit, bytes that are not
    UTF-8, and an integer past int()'s digit limit exit 2 with an input
    error, not a traceback."""
    path = tmp_path / "doc.json"
    deep, latin1, long_int = b"[" * 5000 + b"]" * 5000, b'{"a": "\xff"}', b"[" + b"1" * 5000 + b"]"
    for data in (deep, latin1, long_int):
        path.write_bytes(data)
        assert main(["--input", str(path), "--command", "validate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: ")


def test_main_end_to_end(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc_z2([0, 0, 1])))
    code = main(["--input", str(path), "--command", "classify"])
    out = capsys.readouterr().out
    assert code == 1
    assert "strongly_verbally_prime: false" in out
    # invalid json -> exit 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["--input", str(bad), "--command", "classify"]) == 2
    # missing file -> exit 2
    assert main(["--input", str(tmp_path / "absent.json"), "--command", "classify"]) == 2
    capsys.readouterr()


def _benchmark_tracing():
    """perfbench/tracing.py, loaded by path: perfbench is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_targets_resolve_and_uninstall():
    """Every name the benchmark's tracer wraps exists once gradedpi.cli is
    imported, so deleting or renaming one fails here and not only under the
    traced benchmark; and uninstall restores every wrapped attribute."""
    import gradedpi.cli  # noqa: F401  (imports every traced module)

    tracing = _benchmark_tracing()
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if name == "gradedpi" or name.startswith("gradedpi.")
    }
    methods = {}
    for t in tracing.TARGETS:
        home = modules.get(f"gradedpi.{t.module}")
        assert home is not None, t
        if "." in t.qual:
            cls_name, attr = t.qual.split(".")
            cls = getattr(home, cls_name, None)
            assert cls is not None and attr in vars(cls), t
            methods[cls, attr] = vars(cls)[attr]
        else:
            assert callable(getattr(home, t.qual, None)), t
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = list(tracer.installed)
        assert len(wrapped) >= len(tracing.TARGETS)
        assert all(vars(owner)[attr] is not original for owner, attr, original in wrapped)
    finally:
        tracer.uninstall()
    for (cls, attr), raw in methods.items():
        assert vars(cls)[attr] is raw, (cls, attr)
    for name, mod in modules.items():
        now = vars(mod)
        assert all(now[attr] is value for attr, value in before[name].items()), name


def test_import_loads_no_introspection_modules():
    """The package uses no dataclasses, so importing it and the CLI loads
    none of dataclasses and the modules it pulls in.  -S keeps the site
    hooks, which may preload modules of their own, out of the check."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import gradedpi, gradedpi.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'linecache'}"
        " & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_no_module_imports_inside_a_function():
    """Every import of the package is at module level: no function or method
    of src/gradedpi holds an import or from-import statement."""
    src = Path(__file__).resolve().parents[1] / "src" / "gradedpi"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def test_no_assert_statements_in_the_package():
    """Invariants of src/gradedpi raise typed errors: python -O strips every
    assert statement, so the package holds none."""
    src = Path(__file__).resolve().parents[1] / "src" / "gradedpi"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _package_imports(path: Path) -> set:
    """The gradedpi modules that one file of src/gradedpi imports, by their
    names inside the package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("gradedpi"):
                continue
            module = module.removeprefix("gradedpi").lstrip(".")
            found |= {module} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {
                a.name.removeprefix("gradedpi.")
                for a in node.names
                if a.name.startswith("gradedpi.")
            }
    return found


def test_only_the_package_init_imports_binomials():
    """binomials holds the library-only machinery: no CLI command runs it,
    so no module of src/gradedpi but __init__ (which re-exports its names)
    imports it."""
    src = Path(__file__).resolve().parents[1] / "src" / "gradedpi"
    importers = sorted(
        path.name for path in src.glob("*.py") if "binomials" in _package_imports(path)
    )
    assert importers == ["__init__.py"]


def test_the_oracle_module_does_not_import_cohomology():
    """polynomials holds the walk, its plan and their consumers; the cocycle
    machinery that good permutations and paths read lives in binomials."""
    src = Path(__file__).resolve().parents[1] / "src" / "gradedpi"
    imported = _package_imports(src / "polynomials.py")
    assert "algebra" in imported and "cohomology" not in imported


PUBLIC_NAMES = (
    "AlgebraElement AlgebraMismatchError Binomial BinomialConditionError BlockStructure "
    "ClassificationReport Coboundary CoboundaryObstruction CoboundarySystem Cocycle2 "
    "CocycleError CocycleViolation CosetDecomposition CycScalar DegreeMismatchError "
    "DisconnectedGradingError DocumentError EmpiricalCheck EnvelopeAlgebra "
    "FactorizationError FiniteGroup GoodScalarContext GradedAlgebra GradedMonomial "
    "GradedPIError GradedPolynomial GradedVariable GrassmannElement HypothesisError "
    "IdentityReport InexactDivisionError InvalidTableError M1 M2 M3 NoWitnessError "
    "NonMultilinearError NotNormalError NotSubgroupError OrderMismatchError PathReport "
    "PathRestriction Presentation Subgroup TruncationError VerificationFailedError "
    "WitnessCertificate WitnessPair alternate apply_move block_structure build_algebra "
    "check_identity classes_cohomologous classify cyclotomic_polynomial disjoint_product "
    "enumerate_binomials envelope_identity_check equivalence_classes_tilde euler_phi "
    "evaluate evaluation_span good_binomial good_permutation_scalar good_permutations_of "
    "invariance_obstruction is_G_invariant_class is_coboundary is_crossed_product "
    "is_good_permutation is_identity is_normalized is_pure is_trivial_class "
    "monomial_polynomial normalize_presentation path_restriction path_vanishes "
    "presentations_equivalent pure_components root_of_unity satisfies_path_property "
    "separating_product_test smith_diagonalize solve_congruences strongly_vp_empirical "
    "variables_for verify_witness witness_nonstrong"
).split()


def test_the_package_exports_are_pinned():
    """gradedpi's public names, submodules aside, are exactly these: a move
    between modules drops no export silently.  support and
    is_graded_division were removed on purpose (Presentation.support(),
    is_connected() and size == 1 say the same).  The library-only names come
    from binomials."""
    import gradedpi

    public = {
        name: value
        for name, value in vars(gradedpi).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(public) == PUBLIC_NAMES
    assert sorted(n for n, v in public.items() if v.__module__ == "gradedpi.binomials") == [
        "Binomial", "EmpiricalCheck", "GoodScalarContext", "PathReport", "PathRestriction",
        "enumerate_binomials", "good_binomial", "good_permutation_scalar",
        "good_permutations_of", "is_crossed_product", "is_good_permutation", "is_pure",
        "path_restriction", "path_vanishes", "pure_components", "satisfies_path_property",
        "separating_product_test", "strongly_vp_empirical",
    ]


@pytest.mark.parametrize(
    "command, grading", [("validate", [1, 0]), ("classify", [1, 0]), ("witness", [1, 0, 0])]
)
def test_a_valid_cocycle_is_checked_once(command, grading, monkeypatch):
    """The document's cocycle is checked once, by the generator check, also
    under validate, whose full scan lists violations only for an invalid
    table; the normalized presentation's cocycle is derived from it by
    transport and is not checked again."""
    calls = []
    for name in ("_is_cocycle", "violations"):
        check = getattr(Cocycle2, name)

        def counted(self, check=check):
            calls.append(check.__name__)
            return check(self)

        monkeypatch.setattr(Cocycle2, name, counted)
    doc = {
        "group": {"construct": "cyclic", "n": 4},
        "subgroup": [0, 2],
        "cocycle": {"modulus": 2, "exponents": [[0, 0], [0, 1]]},
        "grading": grading,
    }
    text, code = run(command, doc)
    assert code == 0, text
    assert calls == ["_is_cocycle"]


def test_validate_lists_violations_only_for_an_invalid_table(monkeypatch):
    """An invalid table fails the generator check and then gets one full
    scan, whose every violation the report lists."""
    calls = []
    for name in ("_is_cocycle", "violations"):
        check = getattr(Cocycle2, name)

        def counted(self, check=check):
            calls.append(check.__name__)
            return check(self)

        monkeypatch.setattr(Cocycle2, name, counted)
    doc = {
        "group": {"construct": "cyclic", "n": 4},
        "subgroup": [0, 1, 2, 3],
        "cocycle": {"modulus": 4, "exponents": [[0] * 4, [0, 1, 0, 0], [0] * 4, [0] * 4]},
        "grading": [0],
    }
    text, code = run("validate", doc)
    assert code == 2 and calls == ["_is_cocycle", "violations"]
    listed = json.loads(text.split(MACHINE_BEGIN)[1].split(MACHINE_END)[0])
    from gradedpi.groups import FiniteGroup

    H = FiniteGroup.cyclic(4).full_subgroup()
    want = Cocycle2(H, 4, doc["cocycle"]["exponents"]).violations()
    assert listed["violations"] == [str(v) for v in want] and len(want) > 1


@pytest.mark.parametrize(
    "value",
    [[True, 1], [1, False], [0], [-(10**60)], [[1, 2], [3]], [1, "1"], [1, None], {"a": [1, 2]}],
)
def test_report_writer_on_int_lists_and_their_neighbours(value):
    """A list of exact ints is joined in one pass; a bool, a str or a None
    among the ints sends the list down the general path."""
    assert _json_block(value) == json.dumps(value, indent=2, sort_keys=True)


def _count_calls(monkeypatch, fn) -> list:
    """Record every call of fn made through any gradedpi module's global
    name for it from now on."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "gradedpi" or name.startswith("gradedpi."):
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                monkeypatch.setattr(mod, attr, counted)
    return calls


WITNESS_DOCS = {
    "missing_coset": {
        "group": {"construct": "cyclic", "n": 4},
        "subgroup": [0],
        "cocycle": {"modulus": 1, "exponents": [[0]]},
        "grading": [0, 1],
    },
    "unequal_blocks": {
        "group": {"construct": "cyclic", "n": 2},
        "subgroup": [0],
        "cocycle": {"modulus": 1, "exponents": [[0]]},
        "grading": [0, 0, 1],
    },
    "non_normal": {
        "group": {"construct": "dihedral", "n": 3},
        "subgroup": [0, 3],
        "cocycle": {"modulus": 1, "exponents": [[0, 0], [0, 0]]},
        "grading": [0, 1, 2],
    },
}


@pytest.mark.parametrize("kind", sorted(WITNESS_DOCS))
def test_witness_command_normalizes_and_builds_once_each(kind, monkeypatch):
    """classify hands its normal form to the witness construction: one
    normalization.  classify builds no algebra, so the independent
    verification builds the one algebra, and a missing coset's search one
    more; an alternating g is f on shifted ids, so alternate runs once."""
    from gradedpi import algebra, polynomials

    normalized = _count_calls(monkeypatch, algebra.normalize_presentation)
    alternated = _count_calls(monkeypatch, polynomials.alternate)
    built = []
    init = algebra.GradedAlgebra.__init__

    def counted_init(self, presentation):
        built.append(presentation)
        init(self, presentation)

    monkeypatch.setattr(algebra.GradedAlgebra, "__init__", counted_init)
    text, code = run("witness", WITNESS_DOCS[kind])
    assert code == 0, text
    assert f"witness: {kind}\n" in text
    assert len(normalized) == 1
    assert len(built) == (2 if kind == "missing_coset" else 1)
    assert len(alternated) == (0 if kind == "missing_coset" else 1)


@pytest.mark.parametrize(
    "kind, count", [("missing_coset", 2), ("unequal_blocks", 3), ("non_normal", 4)]
)
def test_witness_command_reads_the_coset_positions_once_per_use(kind, count, monkeypatch):
    """The coset multiplicities of the normal form are computed once, by
    classify, and handed to the witness construction: the positions are read
    for the normal forms of the document's presentation and for classify's
    flags, and then only by the block structure of each alternating factor
    and the ~-class reordering.  When the witness construction computed the
    multiplicities again, and the unequal-blocks witness read its block
    structure twice, the counts were 3, 5 and 5."""
    from gradedpi.algebra import Presentation

    positions = Presentation.coset_positions
    calls = []

    def counted(self):
        calls.append(self)
        return positions(self)

    monkeypatch.setattr(Presentation, "coset_positions", counted)
    text, code = run("witness", WITNESS_DOCS[kind])
    assert code == 0 and f"witness: {kind}\n" in text
    assert len(calls) == count


@pytest.mark.parametrize("command", ["classify", "validate"])
def test_classify_and_validate_build_no_algebra(command, monkeypatch):
    """Both read every flag, the dimension and the support off the
    presentation: no GradedAlgebra is built, on the README sample, the
    witness documents, a disconnected grading and a C64 > C32 document."""
    from gradedpi import algebra

    built = []
    init = algebra.GradedAlgebra.__init__

    def counted_init(self, presentation):
        built.append(presentation)
        init(self, presentation)

    monkeypatch.setattr(algebra.GradedAlgebra, "__init__", counted_init)
    disconnected = doc_z2([0])
    disconnected["group"] = {"construct": "cyclic", "n": 4}
    c64 = {
        "group": {"construct": "cyclic", "n": 64},
        "subgroup": list(range(0, 64, 2)),
        "cocycle": {"modulus": 1, "exponents": [[0] * 32 for _ in range(32)]},
        "grading": [0, 1],
    }
    docs = [README_SAMPLE, disconnected, c64, *WITNESS_DOCS.values()]
    codes = set()
    for doc in docs:
        try:
            codes.add(run(command, doc)[1])
        except DisconnectedGradingError:
            codes.add("disconnected")
    assert built == []
    assert codes == ({0, 1, "disconnected"} if command == "classify" else {0})


def test_greedy_generators_are_computed_only_in_groups():
    """Outside groups.py no module of src/gradedpi calls right_generators or
    _right_closure: groups and subgroups keep their greedy generators, and
    every other reader takes them from there."""
    src = Path(__file__).resolve().parents[1] / "src" / "gradedpi"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "groups.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name in ("right_generators", "_right_closure"):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_parent_indexed_exponent_table_in_the_package():
    """A cocycle has one exponent table, its own rows in H's local indices:
    no line of src/gradedpi, code, comment or docstring, names the deleted
    G x G copy (Cocycle2.exponent_table and its _dense slot) or
    GradedAlgebra.exp_table."""
    src = Path(__file__).resolve().parents[1] / "src" / "gradedpi"
    pattern = re.compile(r"exponent_table|exp_table|_dense")
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(src.glob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert found == []
