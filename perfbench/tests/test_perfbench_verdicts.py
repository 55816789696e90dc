"""Cross-check corpus verdicts that rest on a construction or on the sign-twist
reduction against brute force: full evaluation with polynomials.evaluate over
every homogeneous basis assignment, and GrassmannElement products over every
envelope assignment at truncation equal to the degree.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import sys
from itertools import combinations, product
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import corpus  # noqa: E402
import verdicts  # noqa: E402
from gradedpi.algebra import build_algebra  # noqa: E402
from gradedpi.cli import SessionDocument  # noqa: E402
from gradedpi.polynomials import evaluate  # noqa: E402


def brute_identity(doc: dict) -> bool:
    sd = SessionDocument(doc)
    f = sd.polynomial()
    A = build_algebra(sd.presentation)
    vids = f.var_ids()
    pools = [[A.basis_element(k) for k in A.homogeneous_basis(f.degree_of[v])] for v in vids]
    return not any(evaluate(f, A, dict(zip(vids, choice))) for choice in product(*pools))


def brute_envelope_identity(doc: dict) -> bool:
    sd = SessionDocument(doc)
    f = sd.polynomial()
    A = build_algebra(sd.presentation)
    n = f.degree
    ng = sd.group.product_factors[1].order
    vids = f.var_ids()
    subsets = [s for size in range(n + 1) for s in combinations(range(1, n + 1), size)]
    pools = [
        [(list(s), k) for s in subsets for k in A.homogeneous_basis((len(s) % 2) * ng + f.degree_of[v])]
        for v in vids
    ]
    env_doc = dict(doc, params=dict(doc["params"], truncation=n))
    for choice in product(*pools):
        used = [g for s, _ in choice for g in s]
        if len(used) != len(set(used)):
            continue
        fake = {"counterexample": {f"x{v}": c for v, c in zip(vids, choice)}}
        if verdicts.CHECKS["envelope_counterexample"](env_doc, fake) is None:
            return False
    return True


def test_identity_verdicts_match_full_evaluation():
    items = [i for i in corpus.build("small-docs", 3) if i["command"] == "identity-check"][:12]
    batch = [i for i in corpus.build("oracle", 3) if i["id"].startswith("batch-")]
    for name in ("K4", "C4m4", "Q12"):
        items += [i for i in batch if i["id"].startswith(f"batch-{name}-")][:4]
    assert {i["expect"]["exit"] for i in items} == {0, 1}
    for entry in items:
        assert brute_identity(entry["doc"]) == (entry["expect"]["exit"] == 0), entry["id"]


def test_envelope_verdicts_match_grassmann_products():
    items = [i for i in corpus.build("small-docs", 3) if i["command"] == "envelope-check"][:6]
    assert {i["expect"]["exit"] for i in items} == {0, 1}
    for entry in items:
        assert brute_envelope_identity(entry["doc"]) == (entry["expect"]["exit"] == 0), entry["id"]


def test_seed_changes_contents_but_not_sizes():
    for workload in corpus.WORKLOADS:
        a, b = corpus.build(workload, 1), corpus.build(workload, 2)
        assert [i["command"] for i in a] == [i["command"] for i in b]
        assert a != b
        assert corpus.build(workload, 1) == a
