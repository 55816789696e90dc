#!/usr/bin/env python3
"""gradedpi benchmark: seeded session-document corpora through gradedpi.cli.run.

Usage, from the repository root:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

One client sends documents one after another (closed loop, one thread).  The
corpus is generated from the seed before timing and only the documents reach
the program.  Passes over the corpus repeat while the next one is expected to
end within --seconds (one pass at least).  The first pass's reports are
checked against the expected verdicts and every later pass must reproduce
them byte for byte.  Before timing, one document per command also goes
through `python -m gradedpi.cli` in a subprocess, and its report and exit
code must equal the in-process ones.

--trace 0 reports the end-to-end metrics, with times in reference seconds:
wall seconds scaled by the host's speed, which a probe measures around and
inside every document (hostspeed.py).  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics (see README.md).  The last
line of standard output is one JSON object; a run record with the raw samples
goes to .perfbench_out/.  --workload all runs every workload in its own
interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import corpus
import hostspeed
import tracing
import verdicts

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 11
SETUP_PROBES = 20
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "doc_p50_ms": "ms",
    "doc_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small corpora, for the smoke test")
    return p.parse_args(argv)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; git does not look
    above the checkout for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds from spawning an interpreter until `import gradedpi` returns,
    read on the shared monotonic clock, raw and in reference seconds; the
    child runs probes right after the import, which give its speed factor.
    The first spawn warms the bytecode cache and is not kept."""
    code = ("import time, gradedpi; t = time.monotonic_ns(); import sys; "
            f"sys.path.insert(0, {str(BENCH)!r}); import hostspeed; "
            f"print(t, *hostspeed.probe_seconds({SETUP_PROBES}), gradedpi.__file__)")
    raw, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        start = time.monotonic_ns()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import gradedpi failed: {proc.stderr.strip()}")
        stamp, *probes, path = proc.stdout.split(maxsplit=SETUP_PROBES + 1)
        if not Path(path.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"gradedpi imported from {path.strip()}, not from {SRC}")
        if i:
            raw.append((int(stamp) - start) / 1e9)
            scaled.append(raw[-1] * hostspeed.speed_factor([float(d) for d in probes]))
    return raw, scaled


def run_doc(cli, errors, entry) -> tuple[str, int]:
    """In-process equivalent of `gradedpi --command ...`: (standard output,
    exit code).  Package errors exit 2 with nothing on standard output, as in
    cli.main, and any other exception exits 1 as an uncaught traceback would;
    the message is kept after a NUL so a failure can show it."""
    try:
        return cli.run(entry["command"], entry["doc"])
    except errors.GradedPIError as exc:
        return f"\0{type(exc).__name__}: {exc}", 2
    except Exception as exc:  # the pass must go on; the verdict check fails it
        return f"\0{type(exc).__name__}: {exc}", 1


def stdout_of(text: str) -> str:
    return text.split("\0", 1)[0]


def fidelity(cli, errors, seed: int) -> list[str]:
    """Compare the shipped CLI in a subprocess with cli.run, one document per
    command; returns the failures."""
    failures = []
    tmp = OUT / f"fidelity-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for entry in corpus.fidelity_docs(seed):
            path = tmp / f"{entry['command']}.json"
            path.write_text(json.dumps(entry["doc"]))
            proc = subprocess.run(
                [sys.executable, "-m", "gradedpi.cli", "--input", str(path), "--command", entry["command"]],
                cwd=ROOT, env=child_env(), capture_output=True, timeout=120,
            )
            text, code = run_doc(cli, errors, entry)
            same = proc.stdout == stdout_of(text).encode()
            reason = verdicts.check(entry, text, code)
            if proc.returncode != code or not same:
                failures.append(f"fidelity {entry['command']}: subprocess exit {proc.returncode}, "
                                f"in-process exit {code}, reports {'match' if same else 'differ'}")
            elif reason:
                failures.append(f"fidelity {entry['command']}: {reason}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return failures


class Pass:
    def __init__(self, wall: float, raw_wall: float, times: array, reports: list[tuple[str, int]] | None):
        self.wall, self.raw_wall, self.times, self.reports = wall, raw_wall, times, reports


def one_pass(clock, cli, errors, items) -> Pass:
    """One pass over the corpus; `clock` is a hostspeed.Sampler, whose times
    are reference seconds, or a hostspeed.WallClock.  A probe runs before
    each document and after the last.  The pass's wall time is the sum of its
    documents' times, so it leaves out the probes and the harness."""
    intervals, reports = [], []
    mark, sample = clock.mark, clock.sample
    for entry in items:
        sample()
        m0 = mark()
        out = run_doc(cli, errors, entry)
        intervals.append((m0, mark()))
        reports.append(out)
    sample()
    times = array("d", (clock.scaled(a, b) for a, b in intervals))
    return Pass(sum(times), sum(clock.raw(a, b) for a, b in intervals), times, reports)


def check_pass(items, first: Pass, later: Pass | None) -> list[str]:
    """Verdict checks on the first pass; byte equality with it afterwards.
    A later pass's reports are dropped once checked, so that the harness's
    memory, and with it peak_rss_mb, does not grow with the number of passes."""
    failures = []
    for i, entry in enumerate(items):
        if later is None:
            reason = verdicts.check(entry, *first.reports[i])
        else:
            reason = None if later.reports[i] == first.reports[i] else "report differs from the first pass"
        if reason:
            failures.append(f"{entry['id']}: {reason}")
    if later is not None:
        later.reports = None
    return failures


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(items, passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    """Times in reference seconds (see hostspeed.py)."""
    doc_s = [statistics.median(p.times[i] for p in passes) for i in range(len(items))]
    per_command: dict[str, float] = {}
    for entry, t in zip(items, doc_s):
        key = entry["command"].replace("-", "_") + "_s"
        per_command[key] = per_command.get(key, 0.0) + t
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "doc_p50_ms": statistics.median(doc_s) * 1000,
        "doc_p95_ms": quantile(doc_s, 0.95) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, per_command


def run_workload(args) -> int:
    if not (SRC / "gradedpi" / "__init__.py").is_file():
        print(f"error: no gradedpi sources under {SRC}", file=sys.stderr)
        return 2
    raw_setup, setup = measure_setup()
    sys.path.insert(0, str(SRC))
    from gradedpi import cli, errors

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: gradedpi imported from {cli.__file__}", file=sys.stderr)
        return 2
    failures = fidelity(cli, errors, args.seed)
    items = corpus.build(args.workload, args.seed, args.tiny)
    attempted = len(corpus.SMALL_COMMANDS)

    passes: list[Pass] = []
    traced: list[Pass] = []
    layer_runs: list[dict] = []
    tracer = tracing.Tracer() if args.trace else None
    spans = None
    sampler = hostspeed.Sampler()
    laps = []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        with sampler:
            p = one_pass(sampler, cli, errors, items)
        attempted += len(items)
        failures += check_pass(items, passes[0], p) if passes else check_pass(items, p, None)
        passes.append(p)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                t = one_pass(hostspeed.WallClock(), cli, errors, items)
            finally:
                tracer.uninstall()
            attempted += len(items)
            failures += [f"traced {f}" for f in check_pass(items, passes[0], t)]
            traced.append(t)
            layer_runs.append(tracer.layer_metrics())
            if spans is None:
                spans = tracer.span_records()
        # Stop before a pass that would end past the window (one pass at least).
        laps.append(time.perf_counter() - lap)
        if time.perf_counter() - start + statistics.median(laps) > args.seconds:
            break

    e2e, per_command = end_to_end(items, passes, setup)
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    else:
        layers = tracing.median_metrics(layer_runs)
        # Both in wall seconds: traced passes run without the probe.
        layers["trace.overhead_ratio"] = (statistics.median(t.raw_wall for t in traced)
                                          / statistics.median(p.raw_wall for p in passes))
        metrics = {k: {"value": v, "unit": tracing.metric_unit(k)} for k, v in layers.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "load": "closed loop, 1 client, threads=1",
        "documents": [e["id"] for e in items],
        "reference_probe_s": hostspeed.REFERENCE_PROBE_S,
        "samples": {
            "setup_s": setup,
            "setup_wall_s": raw_setup,
            "pass_wall_s": [p.wall for p in passes],
            "pass_raw_wall_s": [p.raw_wall for p in passes],
            "doc_s": [p.times.tolist() for p in passes],
            "traced_pass_wall_s": [t.raw_wall for t in traced],
            "probe_s": sampler.durations.tolist(),
        },
        "end_to_end": e2e,
        "per_command_s": per_command,
        "per_layer": layer_runs,
        "attempted": attempted,
        "failures": failures,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))

    print(f"workload: {args.workload}  seed: {args.seed}  nproc: {os.cpu_count()}  "
          f"python: {platform.python_version()}  passes: {len(passes)}  documents: {len(items)}")
    for name, value in e2e.items():
        print(f"{name}: {value:.6g} {END_TO_END_UNITS[name]}")
    for name, value in sorted(per_command.items()):
        print(f"{name}: {value:.6g} s")
    print(f"times above are reference seconds; wall_s in wall seconds: "
          f"{statistics.median(p.raw_wall for p in passes):.6g} s, "
          f"host speed factor: {hostspeed.speed_factor(sampler.durations):.4g}")
    print(f"doc samples: {len(items)}")
    print(f"ops_failed: {len(failures)} of ops_total: {attempted}")
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(f"record: {OUT / stem}.json")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter; a summary object closes the output."""
    summary = {}
    ok = True
    for workload in corpus.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            summary[workload] = json.loads(lines[-1])
        except (IndexError, ValueError):
            ok = False
            continue
        ok = ok and proc.returncode == 0 and summary[workload]["correct"]
    print(json.dumps({
        "correct": ok and len(summary) == len(corpus.WORKLOADS),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{w}.{k}": v for w, r in summary.items() for k, v in r["metrics"].items()},
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
