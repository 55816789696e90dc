"""Tiny-size runs of every workload: all metric names present, no failed ops.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SEED = 7

# Per-command sums, reported where the command occurs in the workload.
COMMAND_SUMS = {
    "oracle": {"witness_s", "identity_check_s"},
    "cohomology": {"classify_s", "equivalent_s", "witness_s"},
    "envelope": {"envelope_check_s"},
    "small-docs": {"validate_s", "classify_s", "normalize_s", "equivalent_s",
                   "identity_check_s", "witness_s", "envelope_check_s"},
}


def run_all(trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--tiny",
         "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def test_end_to_end_metrics_present_and_no_failures():
    out, summary = run_all(0)
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    for workload, commands in COMMAND_SUMS.items():
        names = {k.split(".", 1)[1] for k in summary["metrics"] if k.startswith(workload + ".")}
        assert names == declared("end_to_end"), workload
        assert all(summary["metrics"][f"{workload}.{n}"]["value"] > 0 for n in names)
        record = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace0.json").read_text())
        assert set(record["per_command_s"]) == commands
        for key in ("nproc", "python", "commit", "seed", "samples"):
            assert key in record
        assert record["failures"] == []
    assert out.count("ops_failed: 0 of ops_total:") == len(COMMAND_SUMS)


def test_per_layer_metrics_present_and_reports_unchanged_by_tracing():
    _, summary = run_all(1)
    # A traced report that differs from the untraced one counts as a failure.
    assert summary["correct"] and summary["failed"] == 0
    for workload in COMMAND_SUMS:
        names = {k.split(".", 1)[1] for k in summary["metrics"] if k.startswith(workload + ".")}
        assert names == declared("per_layer"), workload
        spans = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace1-spans.json").read_text())
        ids = {s[0] for s in spans["spans"]}
        assert spans["spans"] and all(s[1] is None or s[1] in ids for s in spans["spans"])
    assert summary["metrics"]["oracle.polynomials.accumulate_calls"]["value"] > 0
    assert summary["metrics"]["cohomology.cohomology.solve_calls"]["value"] > 0
    assert summary["metrics"]["envelope.grassmann.envelope_check_calls"]["value"] > 0
    assert summary["metrics"]["envelope.polynomials.accumulate_calls"]["value"] == 0
