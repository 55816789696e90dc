"""Command-line front end: JSON session documents in, deterministic reports out.

A session document declares a group, a subgroup, a cocycle (modulus plus
exponent matrix), a grading tuple, and optionally named polynomials and
command parameters.  Reports are key: value lines followed by a fenced
machine-readable JSON block; exit code 0 means success (or a positive
decision), 1 a negative decision for yes/no commands, 2 an input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Any, Optional

from .algebra import (
    Presentation,
    build_algebra,
    normalize_presentation,
    presentations_equivalent,
)
from .classify import ClassificationReport, classify, verify_witness
from .cohomology import CoboundaryObstruction, Cocycle2
from .errors import CocycleError, DocumentError, GradedPIError, NoWitnessError
from .grassmann import envelope_identity_check
from .groups import FiniteGroup, Subgroup
from .polynomials import GradedPolynomial, GradedVariable, check_identity
from .scalars import CycScalar, euler_phi, power_rows

MACHINE_BEGIN = "--- machine ---"
MACHINE_END = "--- end machine ---"

# Largest cocycle modulus a document may declare.  Scalar arithmetic over
# Q(zeta_N) costs O(N) and more per table built, so the cap is checked first.
MAX_MODULUS = 1024

# Longest grading tuple a presentation may declare.  The algebra has a basis
# of m^2 |H| elements for a grading of length m, so the cap is checked before
# any algebra is built.
MAX_GRADING = 16

# Most digits a rational literal in a coefficient may stand for, counting its
# decimal exponent ("1e999999" stands for a million digits), and most digits
# of an element index in a variable's degree.  Checked before Fraction or
# int() reads the literal.
MAX_RATIONAL_DIGITS = 100

# -- document parsing -----------------------------------------------------------


def _need(doc: dict, key: str, where: str = "document"):
    if key not in doc:
        raise DocumentError(f"{where}: missing field '{key}'")
    return doc[key]


def parse_group(spec: Any, where: str = "group") -> FiniteGroup:
    if not isinstance(spec, dict):
        raise DocumentError(f"{where}: expected an object")
    if "table" in spec:
        table = spec["table"]
        if not isinstance(table, list):
            raise DocumentError(f"{where}.table: expected a list of rows, got {table!r}")
        for i, row in enumerate(table):
            if not isinstance(row, list) or not _exact_ints(row):
                raise DocumentError(
                    f"{where}.table[{i}]: expected a list of integers, got {row!r}"
                )
        try:
            return FiniteGroup.from_table(table)
        except GradedPIError as exc:
            raise DocumentError(f"{where}.table: {exc}") from exc
    construct = _need(spec, "construct", where)
    if construct in ("cyclic", "dihedral", "symmetric"):
        n = _need(spec, "n", where)
        if not _is_int(n):
            raise DocumentError(f"{where}.n: expected an integer, got {n!r}")
        try:
            return getattr(FiniteGroup, construct)(n)
        except GradedPIError as exc:
            raise DocumentError(f"{where}.n: {exc}") from exc
    if construct == "product":
        factors = _need(spec, "factors", where)
        if not isinstance(factors, list) or len(factors) != 2:
            raise DocumentError(f"{where}.factors: expected a list of two group specs")
        a = parse_group(factors[0], f"{where}.factors[0]")
        b = parse_group(factors[1], f"{where}.factors[1]")
        try:
            return FiniteGroup.direct_product(a, b)
        except GradedPIError as exc:
            raise DocumentError(f"{where}: {exc}") from exc
    raise DocumentError(f"{where}.construct: unknown constructor '{construct}'")


def _need_list(doc: dict, key: str, where: str, field: str) -> list:
    value = _need(doc, key, where)
    if not isinstance(value, list):
        raise DocumentError(f"{field}: expected a list, got {value!r}")
    return value


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_INT_TYPE = frozenset((int,))


def _exact_ints(values: list) -> bool:
    """True when every entry is exactly an int (so no bool), checked at C
    speed; json.loads yields no other int type."""
    return set(map(type, values)) <= _INT_TYPE


def _resolve_element(value: Any, names: dict[str, int], group: FiniteGroup, where: str) -> int:
    if isinstance(value, str):
        if value not in names:
            raise DocumentError(f"{where}: unknown element alias '{value}'")
        value = names[value]
    if not _is_int(value) or not (0 <= value < group.order):
        raise DocumentError(f"{where}: element {value!r} out of range")
    return value


# A literal that int() reads exactly as Fraction does: ASCII digits, an
# optional minus and a denominator with no leading zero (so never 0).
_PLAIN_RATIONAL = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?")


def _rational(text: str, where: str) -> tuple[int, int]:
    """The numerator and positive denominator of the literal text, not
    necessarily in lowest terms.  A plain literal of at most
    MAX_RATIONAL_DIGITS characters is read with int(); any other goes to
    Fraction, refused first when it could stand for more than
    MAX_RATIONAL_DIGITS digits."""
    if len(text) <= MAX_RATIONAL_DIGITS and _PLAIN_RATIONAL.fullmatch(text):
        num, _, den = text.partition("/")
        return int(num), int(den) if den else 1
    mantissa, _, exponent = text.lower().partition("e")
    digits = len(text)
    if exponent and digits <= MAX_RATIONAL_DIGITS:
        try:
            digits = sum(ch.isdigit() for ch in mantissa) + abs(int(exponent))
        except ValueError:
            pass  # not a decimal exponent; Fraction rejects the literal
    if digits > MAX_RATIONAL_DIGITS:
        raise DocumentError(
            f"{where}: rational literal {text!r} exceeds {MAX_RATIONAL_DIGITS} digits"
        )
    q = Fraction(text)
    return q.numerator, q.denominator


def parse_coefficient(value: Any, modulus: int, where: str) -> CycScalar:
    """Coefficients are rational strings ("1", "-2/3") or [[power, rational], ...]
    lists denoting sums of rational multiples of zeta^power."""
    try:
        if isinstance(value, str) or _is_int(value):
            num, den = _rational(str(value), where)
            return CycScalar.from_scaled_ints(modulus, (num,), den)
        if isinstance(value, list):
            terms = []
            for i, item in enumerate(value):
                if not (isinstance(item, list) and len(item) == 2):
                    raise DocumentError(f"{where}: expected [power, rational] pairs")
                power, q = item
                if not _is_int(power):
                    raise DocumentError(
                        f"{where}[{i}]: expected an integer power, got {power!r}"
                    )
                terms.append((power % modulus, *_rational(str(q), f"{where}[{i}]")))
            phi = euler_phi(modulus)
            den = lcm(*(d for _, _, d in terms))
            vec = [0] * phi
            for power, num, d in terms:
                f = num * (den // d)
                if power < phi:
                    vec[power] += f
                else:
                    for j, c in enumerate(power_rows(modulus)[power - phi]):
                        vec[j] += f * c
            return CycScalar.from_scaled_ints(modulus, vec, den)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"{where}: bad coefficient {value!r} ({exc})") from exc
    raise DocumentError(f"{where}: bad coefficient {value!r}")


def _plain_int(text: str, at: str, what: str) -> Optional[int]:
    """int(text) for ASCII -?[0-9]+ (refused past MAX_RATIONAL_DIGITS characters), else None."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        return None
    if len(text) > MAX_RATIONAL_DIGITS:
        raise DocumentError(f"{at}: {what} exceeds {MAX_RATIONAL_DIGITS} digits")
    return int(text)


def parse_polynomial(
    spec: Any, names: dict[str, int], group: FiniteGroup, modulus: int, where: str
) -> GradedPolynomial:
    if not isinstance(spec, dict):
        raise DocumentError(f"{where}: expected an object")
    raw_vars = _need_list(spec, "variables", where, f"{where}.variables")
    variables = []
    for i, v in enumerate(raw_vars):
        at = f"{where}.variables[{i}]"
        if not isinstance(v, str) or ":" not in v or not v.startswith("x"):
            raise DocumentError(f"{at}: expected 'x<id>:<element>', got {v!r}")
        head, _, tail = v.partition(":")
        vid = _plain_int(head[1:], at, "variable id")
        if vid is None:
            raise DocumentError(f"{at}: bad id in {v!r}")
        index = _plain_int(tail, at, "element index")  # None for an alias
        degree = _resolve_element(tail if index is None else index, names, group, at)
        variables.append(GradedVariable(vid, degree))
    monos = []
    for i, m in enumerate(_need_list(spec, "monomials", where, f"{where}.monomials")):
        at = f"{where}.monomials[{i}]"
        if not isinstance(m, dict):
            raise DocumentError(f"{at}: expected an object")
        coeff = parse_coefficient(_need(m, "coeff", at), modulus, f"{at}.coeff")
        order = _need_list(m, "order", at, f"{at}.order")
        if not _exact_ints(order):
            for j, x in enumerate(order):
                if not _is_int(x):
                    raise DocumentError(f"{at}.order[{j}]: expected a variable id, got {x!r}")
        monos.append((coeff, tuple(order)))
    try:
        return GradedPolynomial(variables, monos)
    except GradedPIError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def serialize_coefficient(c: CycScalar) -> Any:
    if c.is_rational():
        # Canonical: num / den in lowest terms with den > 0, as Fraction prints it.
        num = c.nums[0]
        return str(num) if c.den == 1 else f"{num}/{c.den}"
    return [[i, str(q)] for i, q in enumerate(c.coeffs) if q]


def serialize_polynomial(f: GradedPolynomial) -> dict:
    return {
        "variables": [
            f"x{v.vid}:{v.degree}" for v in sorted(f.variables, key=lambda v: v.vid)
        ],
        "monomials": [
            {"coeff": serialize_coefficient(m.coeff), "order": list(m.order)}
            for m in f.monomials
        ],
    }


def serialize_presentation(p: Presentation) -> dict:
    return {
        "subgroup": list(p.subgroup.members),
        "cocycle": {
            "modulus": p.cocycle.modulus,
            "exponents": [list(r) for r in p.cocycle.exps],
        },
        "grading": list(p.grading),
    }


def serialize_obstruction(ob: CoboundaryObstruction) -> dict:
    """The 2-chain as [a, b, y(a, b)] triples, with its modulus and the value
    sum y(a,b) e(a,b) (cohomology.CoboundaryObstruction)."""
    return {"modulus": ob.modulus, "chain": [list(t) for t in ob.chain], "value": ob.value}


class SessionDocument:
    """Validated session document; all cross-references resolved."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise DocumentError("document: expected a JSON object")
        self.group = parse_group(_need(raw, "group"))
        names = raw.get("names", {})
        if not isinstance(names, dict):
            raise DocumentError("names: expected an object of alias -> index")
        for alias, idx in names.items():
            if not _is_int(idx):
                raise DocumentError(f"names.{alias}: expected an element index, got {idx!r}")
            if not (0 <= idx < self.group.order):
                raise DocumentError(f"names.{alias}: index {idx} out of range")
        self.names = {str(k): v for k, v in names.items()}
        self.presentation = self._parse_presentation(raw, "")
        self.second: Optional[Presentation] = None
        if "second" in raw:
            if not isinstance(raw["second"], dict):
                raise DocumentError("second: expected an object")
            self.second = self._parse_presentation(
                raw["second"], "second.", self.presentation.subgroup
            )
        self.polynomials: dict[str, GradedPolynomial] = {}
        modulus = self.presentation.cocycle.modulus
        polynomials = raw.get("polynomials", {})
        if not isinstance(polynomials, dict):
            raise DocumentError("polynomials: expected an object of name -> polynomial")
        for name, spec in polynomials.items():
            self.polynomials[name] = parse_polynomial(
                spec, self.names, self.group, modulus, f"polynomials.{name}"
            )
        self.params = raw.get("params", {})
        if not isinstance(self.params, dict):
            raise DocumentError("params: expected an object")

    def _parse_presentation(
        self, raw: dict, prefix: str, first: Optional[Subgroup] = None
    ) -> Presentation:
        """first: the first presentation's subgroup, reused (with its local
        table, cosets and generators) when this one names the same members."""
        where = prefix + "document"
        members = [
            _resolve_element(v, self.names, self.group, f"{prefix}subgroup[{i}]")
            for i, v in enumerate(_need_list(raw, "subgroup", where, f"{prefix}subgroup"))
        ]
        if first is not None and first.member_set == set(members):
            subgroup = first
        else:
            try:
                subgroup = self.group.subgroup(members)
            except GradedPIError as exc:
                raise DocumentError(f"{prefix}subgroup: {exc}") from exc
        cspec = _need(raw, "cocycle", where)
        if not isinstance(cspec, dict):
            raise DocumentError(f"{prefix}cocycle: expected an object")
        modulus = _need(cspec, "modulus", prefix + "cocycle")
        if not _is_int(modulus) or not 1 <= modulus <= MAX_MODULUS:
            raise DocumentError(
                f"{prefix}cocycle.modulus: expected an integer from 1 to {MAX_MODULUS}, "
                f"got {modulus!r}"
            )
        exps = _need_list(cspec, "exponents", prefix + "cocycle", f"{prefix}cocycle.exponents")
        for i, row in enumerate(exps):
            if not isinstance(row, list) or not _exact_ints(row):
                raise DocumentError(
                    f"{prefix}cocycle.exponents[{i}]: expected a list of integers, got {row!r}"
                )
        try:
            cocycle = Cocycle2(subgroup, modulus, exps)
        except GradedPIError as exc:
            raise DocumentError(f"{prefix}cocycle: {exc}") from exc
        raw_grading = _need_list(raw, "grading", where, f"{prefix}grading")
        if len(raw_grading) > MAX_GRADING:
            raise DocumentError(
                f"{prefix}grading: length {len(raw_grading)} exceeds the maximum {MAX_GRADING}"
            )
        grading = [
            _resolve_element(v, self.names, self.group, f"{prefix}grading[{i}]")
            for i, v in enumerate(raw_grading)
        ]
        try:
            return Presentation(self.group, subgroup, cocycle, tuple(grading))
        except GradedPIError as exc:
            raise DocumentError(f"{prefix}presentation: {exc}") from exc

    def polynomial(self, key: str = "polynomial") -> GradedPolynomial:
        name = self.params.get(key)
        if not isinstance(name, str) or name not in self.polynomials:
            raise DocumentError(
                f"params.{key}: expected the name of a declared polynomial"
            )
        return self.polynomials[name]


# -- report assembly ------------------------------------------------------------


def _emit(lines: list[tuple[str, Any]], machine: dict) -> str:
    text = "\n".join(f"{k}: {_fmt(v)}" for k, v in lines)
    return f"{text}\n{MACHINE_BEGIN}\n{_json_block(machine)}\n{MACHINE_END}\n"


_encode_str = json.encoder.encode_basestring_ascii


def _json_block(value: Any, newline: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) for a value built of
    dict, list, str, int, bool and None, written directly: the json module
    serves indent=2 only from its pure-Python encoder.  Strings go through
    the same ASCII escaper, which also refuses a dict key that is not a
    str.  Any other type, a float or a tuple included, raises TypeError,
    never a different text.  A list of exact ints (no bool) is written in
    one join."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        if _exact_ints(value):
            body = f",{inner}".join(map(int.__repr__, value))
        else:
            body = f",{inner}".join([_json_block(v, inner) for v in value])
        return f"[{inner}{body}{newline}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = f",{inner}".join(
            [f"{_encode_str(k)}: {_json_block(value[k], inner)}" for k in sorted(value)]
        )
        return f"{{{inner}{body}{newline}}}"
    raise TypeError(f"cannot write {type(value).__name__} {value!r} to a report")


def _fmt(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "undefined"
    return str(v)


def run(command: str, document: dict, max_degree: Optional[int] = None) -> tuple[str, int]:
    """Execute a command against a raw document; returns (report text, exit code)."""
    handler = _HANDLERS.get(command)
    if handler is None:
        raise DocumentError(f"unknown command '{command}'")
    doc = SessionDocument(document)
    if max_degree is not None:
        for name, poly in doc.polynomials.items():
            if poly.degree > max_degree:
                raise DocumentError(
                    f"polynomials.{name}: degree {poly.degree} exceeds --max-degree {max_degree}"
                )
    return handler(doc)


def _cmd_validate(doc: SessionDocument) -> tuple[str, int]:
    cocycle = doc.presentation.cocycle
    if not cocycle.is_valid():
        violations = cocycle.violations()
        first = violations[0]
        text = _emit(
            [("valid", False), ("violation", str(first))],
            {"valid": False, "violations": [str(v) for v in violations]},
        )
        return text, 2
    p = doc.presentation
    # dim F^cH (x) M_m(F) = |H| m^2; no algebra is built for the report.
    machine = {
        "valid": True,
        "dimension": len(p.subgroup) * p.size**2,
        "connected": p.is_connected(),
        "support": sorted(p.support()),
    }
    lines = [(k, machine[k]) for k in ("valid", "dimension", "connected", "support")]
    return _emit(lines, machine), 0


def _cmd_classify(doc: SessionDocument) -> tuple[str, int]:
    _require_cocycle(doc.presentation, "cocycle")
    report = classify(doc.presentation)
    flags = report.flags()
    lines = [(k, v) for k, v in flags.items()]
    machine = dict(flags)
    machine["normalized_presentation"] = serialize_presentation(report.presentation)
    if report.invariance_failure is not None:
        g, obstruction = report.invariance_failure
        lines.append(("invariance_failure_rep", g))
        machine["invariance_failure"] = {
            "coset_representative": g,
            "obstruction": serialize_obstruction(obstruction),
        }
    return _emit(lines, machine), 0 if report.strongly_verbally_prime else 1


def _require_cocycle(p: Presentation, field: str) -> None:
    try:
        p.cocycle.require_valid()
    except CocycleError as exc:
        raise DocumentError(f"{field}: {exc}") from exc


def _cmd_normalize(doc: SessionDocument) -> tuple[str, int]:
    _require_cocycle(doc.presentation, "cocycle")
    np = normalize_presentation(doc.presentation)
    machine = {"normalized_presentation": serialize_presentation(np)}
    lines = [
        ("subgroup", list(np.subgroup.members)),
        ("grading", list(np.grading)),
    ]
    return _emit(lines, machine), 0


def _cmd_equivalent(doc: SessionDocument) -> tuple[str, int]:
    if doc.second is None:
        raise DocumentError("second: an 'equivalent' document needs a second presentation")
    _require_cocycle(doc.presentation, "cocycle")
    _require_cocycle(doc.second, "second.cocycle")
    verdict = presentations_equivalent(doc.presentation, doc.second)
    return _emit([("equivalent", verdict)], {"equivalent": verdict}), 0 if verdict else 1


def _cmd_identity(doc: SessionDocument) -> tuple[str, int]:
    poly = doc.polynomial()
    _require_cocycle(doc.presentation, "cocycle")
    algebra = build_algebra(doc.presentation)
    report = check_identity(poly, algebra)
    lines: list[tuple[str, Any]] = [("identity", report.identity)]
    machine: dict[str, Any] = {"identity": report.identity}
    if not report.identity:
        counter = {f"x{vid}": list(t) for vid, t in sorted(report.counterexample.items())}
        lines.append(("counterexample", json.dumps(counter, sort_keys=True)))
        machine["counterexample"] = counter
    return _emit(lines, machine), 0 if report.identity else 1


def emit_witness(report: ClassificationReport) -> dict:
    """Serialized witness pair plus verification certificate for a report.

    Polynomial-witness reports are re-verified from scratch; condition-(3)
    failures emit the algebraic obstruction certificate instead; raises
    NoWitnessError when the presentation is strongly verbally prime.
    """
    if report.strongly_verbally_prime:
        raise NoWitnessError("presentation is strongly verbally prime")
    if report.witness is None:
        if report.invariance_failure is None:
            raise NoWitnessError("report carries neither witness nor obstruction")
        g, obstruction = report.invariance_failure
        return {
            "witness": None,
            "certificate": {
                "kind": "invariance_obstruction",
                "coset_representative": g,
                "obstruction": serialize_obstruction(obstruction),
            },
        }
    pair = report.witness
    cert = verify_witness(pair)
    return {
        "witness": {
            "kind": pair.kind,
            "presentation": serialize_presentation(pair.presentation),
            "f": serialize_polynomial(pair.f),
            "g": serialize_polynomial(pair.g),
            "assignment_f": {f"x{v}": list(t) for v, t in sorted(pair.assignment_f.items())},
            "assignment_g": {f"x{v}": list(t) for v, t in sorted(pair.assignment_g.items())},
        },
        "certificate": {
            "value_f": {str(list(t)): serialize_coefficient(c) for t, c in sorted(cert.value_f.items())},
            "value_g": {str(list(t)): serialize_coefficient(c) for t, c in sorted(cert.value_g.items())},
            "product_identity": cert.product_identity,
            "span_product_zero": cert.span_product_zero,
            "span_square_zero": cert.span_square_zero,
            "span_f_dim": len(cert.span_f_basis),
        },
    }


def _cmd_witness(doc: SessionDocument) -> tuple[str, int]:
    _require_cocycle(doc.presentation, "cocycle")
    report = classify(doc.presentation, with_witness=True)
    if report.strongly_verbally_prime:
        return (
            _emit(
                [("witness", "none"), ("reason", "presentation is strongly verbally prime")],
                {"witness": None, "strongly_verbally_prime": True},
            ),
            1,
        )
    machine = emit_witness(report)
    if machine["witness"] is None:
        cert = machine["certificate"]
        lines = [
            ("witness", "algebraic-certificate"),
            ("failing_representative", cert["coset_representative"]),
            ("obstruction", report.invariance_failure[1]),
        ]
        return _emit(lines, machine), 0
    lines = [
        ("witness", machine["witness"]["kind"]),
        ("monomials_f", len(machine["witness"]["f"]["monomials"])),
        ("monomials_g", len(machine["witness"]["g"]["monomials"])),
        ("product_identity", machine["certificate"]["product_identity"]),
        ("span_product_zero", machine["certificate"]["span_product_zero"]),
    ]
    return _emit(lines, machine), 0


def _cmd_envelope(doc: SessionDocument) -> tuple[str, int]:
    poly = doc.polynomial()
    truncation = doc.params.get("truncation")
    if not _is_int(truncation) or truncation < 0:
        raise DocumentError("params.truncation: expected a nonnegative integer")
    factors = doc.group.product_factors
    if factors is None or factors[0].order != 2:
        raise DocumentError(
            "group: envelope-check needs a product group with an order-2 first factor"
        )
    for v in poly.variables:
        if v.degree >= factors[1].order:
            raise DocumentError(
                f"polynomials: degree of x{v.vid} must index the second factor "
                f"(0..{factors[1].order - 1})"
            )
    _require_cocycle(doc.presentation, "cocycle")
    algebra = build_algebra(doc.presentation)
    report = envelope_identity_check(poly, algebra, truncation)
    lines = [("identity", report.identity), ("truncation", truncation)]
    machine: dict[str, Any] = {"identity": report.identity, "truncation": truncation}
    if not report.identity:
        machine["counterexample"] = {
            f"x{vid}": [list(key[0]), key[1]]
            for vid, key in sorted(report.counterexample.items())
        }
    return _emit(lines, machine), 0 if report.identity else 1


# Each command's handler, in the order --help lists the commands.
_HANDLERS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "normalize": _cmd_normalize,
    "equivalent": _cmd_equivalent,
    "identity-check": _cmd_identity,
    "witness": _cmd_witness,
    "envelope-check": _cmd_envelope,
}
COMMANDS = tuple(_HANDLERS)


@cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built once: an ArgumentParser holds reference cycles."""
    parser = argparse.ArgumentParser(
        prog="gradedpi",
        description="Graded simple algebras from presentations: validation, "
        "classification, identity checking, witnesses.",
    )
    parser.add_argument("--input", required=True, help="path to a JSON session document")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--threads", type=int, help="accepted and ignored; the oracle is serial")
    parser.add_argument("--max-degree", type=int, help="cap on identity-oracle degree")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except json.JSONDecodeError as exc:
        print(f"input error: invalid JSON at line {exc.lineno}: {exc.msg}", file=sys.stderr)
        return 2
    except (OSError, RecursionError, ValueError) as exc:
        # No file; nesting past the recursion limit, non-UTF-8 bytes or an
        # integer past int()'s digit limit.
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        text, code = run(args.command, document, max_degree=args.max_degree)
    except DocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except GradedPIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
