"""Per-layer tracing installed from outside the package.

Tracer.install() replaces public functions and methods of gradedpi's modules
with timing wrappers: a function is rebound on every module attribute that
holds it (classify.is_G_invariant_class and polynomials.is_G_invariant_class
alike), a method on its class.  Each wrapper keeps a frame on a stack so that
self time excludes the time of wrapped callees.  Calls at layer boundaries
are kept as spans (id, parent id, name, start, end) in memory; the hot
arithmetic methods (leaf targets) are only aggregated, because they run millions of
times per pass.  Observers add work counts read from arguments and results;
their own time is charged to no layer.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

SPAN_CAP = 200_000


def _solve_rows(c, args, result):
    c["cohomology.solve_rows"] += len(args[0])


def _basis_dim(c, args, result):
    c["algebra.basis_dim_sum"] += args[0].dim


def _accumulate(c, args, result):
    c["polynomials.monomials_walked"] += len(args[0].monomials)
    c["polynomials.assignments"] += len(result)
    c["polynomials.nonzero_assignments"] += sum(1 for v in result.values() if any(v.values()))


def _span_add(c, args, result):
    c["linalg.span_adds"] += 1
    c["linalg.span_grew"] += bool(result)
    c["linalg.span_dim_max"] = max(c["linalg.span_dim_max"], args[0].dim)


def _envelope_dim(c, args, result):
    c["grassmann.envelope_dim_sum"] += sum(len(keys) for keys in args[0].components.values())


class Target(NamedTuple):
    module: str
    qual: str  # names with a dot are methods
    stem: str  # layer metric stem, empty for a target that is only observed
    adds_to: str  # which of <stem>_calls and <stem>_s the target's calls and self time go to
    leaf: bool = False  # hot arithmetic: aggregated, kept out of the spans
    observe: Optional[Callable] = None


# Builders such as FiniteGroup.cyclic call FiniteGroup.__init__, so only the
# constructors count calls.
TARGETS = (
    Target("cli", "SessionDocument.__init__", "cli.parse", "calls s"),
    Target("groups", "FiniteGroup.__init__", "groups.construct", "calls s"),
    Target("groups", "FiniteGroup.cyclic", "groups.construct", "s"),
    Target("groups", "FiniteGroup.dihedral", "groups.construct", "s"),
    Target("groups", "FiniteGroup.symmetric", "groups.construct", "s"),
    Target("groups", "FiniteGroup.direct_product", "groups.construct", "s"),
    Target("groups", "Subgroup.__init__", "groups.construct", "calls s"),
    Target("groups", "Subgroup.is_normal", "groups.is_normal", "s"),
    Target("groups", "CosetDecomposition.__init__", "groups.cosets", "calls"),
    Target("cohomology", "solve_congruences", "cohomology.solve", "calls s", observe=_solve_rows),
    Target("cohomology", "smith_diagonalize", "cohomology.smith", "s"),
    Target("cohomology", "is_trivial_class", "cohomology.trivial_class", "calls"),
    Target("cohomology", "trivial_class_obstruction", "cohomology.trivial_class", "calls"),
    Target("cohomology", "is_G_invariant_class", "cohomology.invariance", "s"),
    Target("cohomology", "invariance_obstruction", "cohomology.invariance", "s"),
    Target("cohomology", "Cocycle2.violations", "cohomology.violations", "s"),
    Target("algebra", "GradedAlgebra.__init__", "algebra.build", "calls s", observe=_basis_dim),
    Target("algebra", "normalize_presentation", "algebra.normalize", "calls s"),
    Target("algebra", "presentations_equivalent", "algebra.equivalent", "s"),
    Target("algebra", "AlgebraElement.__mul__", "algebra.element_mul", "calls s", leaf=True),
    Target("polynomials", "accumulate_evaluations", "polynomials.accumulate", "calls s", observe=_accumulate),
    Target("polynomials", "evaluation_span", "polynomials.span", "calls s"),
    Target("polynomials", "check_identity", "polynomials.check_identity", "s"),
    Target("polynomials", "evaluate", "polynomials.evaluate", "s"),
    Target("linalg", "Span.add", "linalg.span_add", "calls s", leaf=True, observe=_span_add),
    Target("scalars", "CycScalar.__mul__", "scalars.mul", "calls s", leaf=True),
    Target("scalars", "CycScalar.shift_root", "scalars.shift_root", "calls s", leaf=True),
    Target("scalars", "CycScalar.__add__", "scalars.add", "calls s", leaf=True),
    Target("scalars", "CycScalar.invert", "scalars.invert", "calls s", leaf=True),
    Target("classify", "classify", "classify.classify", "s"),
    Target("classify", "witness_nonstrong", "classify.witness_nonstrong", "s"),
    Target("classify", "verify_witness", "classify.verify_witness", "s"),
    Target("grassmann", "envelope_identity_check", "grassmann.envelope_check", "calls s"),
    Target("grassmann", "EnvelopeAlgebra.__init__", "", "", observe=_envelope_dim),  # observed only
)

# Observer counters reported as they are, and ratios of two counters.
COUNTS = (
    "cohomology.solve_rows",
    "algebra.basis_dim_sum",
    "polynomials.monomials_walked",
    "polynomials.assignments",
    "linalg.span_dim_max",
    "grassmann.envelope_dim_sum",
)
RATIOS = {
    "polynomials.nonzero_ratio": ("polynomials.nonzero_assignments", "polynomials.assignments"),
    "linalg.span_grew_ratio": ("linalg.span_grew", "linalg.span_adds"),
}


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counters: dict[str, float] = defaultdict(int)
        self.stack: list[list] = [[0.0, None]]  # [child seconds, enclosing span id]
        self.spans: list[tuple] = []
        self.next_id = 0
        self.dropped = 0
        for t in TARGETS:
            self.stats[f"{t.module}.{t.qual}"] = [0, 0.0]

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, leaf: bool, observe: Optional[Callable]) -> Callable:
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stats = tracer.stats[name]
            stack = tracer.stack
            parent = stack[-1]
            record = not leaf and tracer.next_id < SPAN_CAP
            if record:
                sid = tracer.next_id
                tracer.next_id += 1
            else:
                sid = parent[1]
                tracer.dropped += not leaf
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                stats[0] += 1
                stats[1] += dt - frame[0]
                parent[0] += dt
                if record:
                    tracer.spans.append((sid, parent[1], name, t0, t1))
            if observe is not None:
                t2 = perf()
                observe(tracer.counters, args, result)
                parent[0] += perf() - t2
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items() if name == "gradedpi" or name.startswith("gradedpi.")}
        for t in TARGETS:
            name = f"{t.module}.{t.qual}"
            home = mods[f"gradedpi.{t.module}"]
            if "." in t.qual:
                cls_name, attr = t.qual.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, t.leaf, t.observe))
                else:
                    new = self._wrap(name, raw, t.leaf, t.observe)
                self.installed.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(home, t.qual)
            wrapper = self._wrap(name, original, t.leaf, t.observe)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.installed.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    # -- results -------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for t in TARGETS:
            calls, self_s = self.stats[f"{t.module}.{t.qual}"]
            for kind, value in (("calls", calls), ("s", self_s)):
                if kind in t.adds_to.split():
                    key = f"{t.stem}_{kind}"
                    out[key] = out.get(key, 0) + value
        for name in COUNTS:
            out[name] = self.counters[name]
        for name, (num, base) in RATIOS.items():
            bottom = self.counters[base]
            out[name] = self.counters[num] / bottom if bottom else 0.0
        return out

    def span_records(self) -> dict:
        return {
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [list(s) for s in sorted(self.spans)],
            "dropped": self.dropped,
        }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
