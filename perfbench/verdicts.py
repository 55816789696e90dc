"""Check a CLI report against a corpus item's expectation.

Claims that the report makes beyond the expected fields are re-derived: a
nonzero counterexample is re-evaluated with polynomials.evaluate, an envelope
counterexample with GrassmannElement and AlgebraElement products, a witness
factor at its reported assignment, and a normalized presentation against the
normal-form rules.  check() returns None when the report is right, else a
one-line reason.
"""

from __future__ import annotations

import json

import reference as R

MACHINE_BEGIN = "--- machine ---"
MACHINE_END = "--- end machine ---"


def machine_block(text: str) -> dict:
    start = text.index(MACHINE_BEGIN) + len(MACHINE_BEGIN)
    return json.loads(text[start : text.index(MACHINE_END)])


def _matches(expected, actual) -> bool:
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and _matches(v, actual[k]) for k, v in expected.items()
        )
    return expected == actual


def check(entry: dict, text: str, code: int) -> str | None:
    expect = entry["expect"]
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}: {text[-160:]!r}"
    try:
        machine = machine_block(text)
    except ValueError:
        return "report has no machine block"
    for key, want in expect["machine"].items():
        if key not in machine or not _matches(want, machine[key]):
            return f"machine field {key!r} is {machine.get(key)!r}, expected {want!r}"
    for name in expect["checks"]:
        try:
            reason = CHECKS[name](entry["doc"], machine)
        except Exception as exc:  # a malformed claim in the report
            reason = f"{type(exc).__name__}: {exc}"
        if reason:
            return f"{name}: {reason}"
    return None


def _one(algebra, triple):
    from gradedpi.scalars import CycScalar

    return algebra.element({tuple(triple): CycScalar.one(algebra.modulus)})


def _counterexample(doc: dict, machine: dict) -> str | None:
    from gradedpi.algebra import build_algebra
    from gradedpi.cli import SessionDocument
    from gradedpi.polynomials import evaluate

    sd = SessionDocument(doc)
    poly = sd.polynomial()
    A = build_algebra(sd.presentation)
    assign = {int(k[1:]): _one(A, t) for k, t in machine["counterexample"].items()}
    if not evaluate(poly, A, assign):
        return "reported assignment evaluates to zero"
    return None


def _envelope_counterexample(doc: dict, machine: dict) -> str | None:
    from gradedpi.algebra import build_algebra
    from gradedpi.cli import SessionDocument
    from gradedpi.grassmann import GrassmannElement
    from gradedpi.scalars import CycScalar

    sd = SessionDocument(doc)
    poly = sd.polynomial()
    A = build_algebra(sd.presentation)
    n = doc["params"]["truncation"]
    N = A.modulus
    assign = {int(k[1:]): v for k, v in machine["counterexample"].items()}
    ng = sd.group.product_factors[1].order
    for vid, (subset, k) in assign.items():
        parity = len(subset) % 2
        if A.degree[k] != parity * ng + poly.degree_of[vid]:
            return f"x{vid} is not homogeneous of its degree"
    total: dict = {}
    for mono in poly.monomials:
        w = GrassmannElement.one(n, N)
        a = A.one()
        for vid in mono.order:
            subset, k = assign[vid]
            w = w * GrassmannElement(n, N, {tuple(subset): CycScalar.one(N)})
            a = a * A.basis_element(k)
        for ws, wc in w.terms.items():
            for t, ac in a.terms.items():
                c = mono.coeff * wc * ac
                total[(ws, t)] = total[(ws, t)] + c if (ws, t) in total else c
    if not any(total.values()):
        return "reported envelope assignment evaluates to zero"
    return None


def _witness_value(doc: dict, machine: dict) -> str | None:
    from gradedpi.algebra import build_algebra
    from gradedpi.cli import SessionDocument, parse_polynomial
    from gradedpi.polynomials import evaluate

    w = machine["witness"]
    cert = machine["certificate"]
    if not (cert["product_identity"] and cert["span_product_zero"] and cert["span_f_dim"] > 0):
        return f"certificate flags {cert!r}"
    wdoc = {"group": doc["group"], **w["presentation"]}
    sd = SessionDocument(wdoc)
    A = build_algebra(sd.presentation)
    N = A.modulus
    for side in ("f", "g"):
        poly = parse_polynomial(w[side], {}, sd.group, N, f"witness.{side}")
        assign = {int(k[1:]): _one(A, t) for k, t in w[f"assignment_{side}"].items()}
        if not evaluate(poly, A, assign):
            return f"witness factor {side} vanishes at its assignment"
    return None


def _normalized(doc: dict, machine: dict) -> str | None:
    G = R.Group(R.group_table(doc["group"]))
    H = tuple(doc["subgroup"])
    out = machine["normalized_presentation"]
    K, grading = tuple(out["subgroup"]), out["grading"]
    if K not in {G.conjugate_subgroup(H, g) for g in range(G.order)}:
        return f"subgroup {K} is not conjugate to {H}"
    if not R.cocycle_valid(G, K, out["cocycle"]["modulus"], out["cocycle"]["exponents"]):
        return "normalized cocycle is invalid"
    if grading[0] != 0 or any(G.coset_rep(K, g) != g for g in grading):
        return f"grading {grading} is not made of canonical coset representatives"
    sizes = []
    for i, g in enumerate(grading):
        if i and grading[i - 1] == g:
            sizes[-1] += 1
        elif g in grading[:i]:
            return f"grading {grading} does not group equal representatives"
        else:
            sizes.append(1)
    if sizes != sorted(sizes):
        return f"block sizes {sizes} are not nondecreasing"
    before = sorted(n for n in R.multiplicities(G, H, doc["grading"]).values() if n)
    if sorted(sizes) != before:
        return f"block sizes {sizes} differ from multiplicities {before}"
    return None


def _invariance_failure(doc: dict, machine: dict) -> str | None:
    failure = machine.get("invariance_failure")
    if not failure or failure["coset_representative"] == 0:
        return f"no failing coset representative in {failure!r}"
    return None


CHECKS = {
    "counterexample": _counterexample,
    "envelope_counterexample": _envelope_counterexample,
    "witness_value": _witness_value,
    "normalized": _normalized,
    "invariance_failure": _invariance_failure,
}
