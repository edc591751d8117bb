"""In-memory span tracer for the cslattice benchmark.

The tracer wraps the package's public functions at the names each
consumer module looks up.  The package binds them with ``from .x import f``,
so the wrapper must replace ``cslattice.cli.build_domain`` and
``cslattice.exhaustion.build_domain``, not ``cslattice.lattice.build_domain``.
Nothing under ``src/`` is edited; the patches live only inside ``patched()``.

Each span records (name, start, end, parent index, operation id).  A span's
layer is the first component of its name, which is the package module that
defines the function.  A span's self time is its duration minus the time its
child spans cover, so the self times of all spans of one operation sum to the
operation's root span: the per-layer self times partition the traced wall.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("lattice", "fields", "linear", "scheme", "exhaustion", "cli")
ROOT_SPAN = "cli.main"


def _artifact_bytes(args, _result):
    return {"cli.artifacts.bytes": Path(args[0]).stat().st_size}


def _closure_points(_args, domain):
    return {"lattice.closure_points": domain.n_closure}


def _outer_steps(_args, solution):
    return {"scheme.outer_steps": solution.iterations}


# (consumer module, attribute it looks up, span name, counters taken from the call)
PATCHES = (
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "solution_checks", "cli.solution_checks", None),
    ("cli", "write_field_csv", "cli.artifacts", _artifact_bytes),
    ("cli", "write_trace_csv", "cli.artifacts", _artifact_bytes),
    ("cli", "write_decay_csv", "cli.artifacts", _artifact_bytes),
    ("cli", "write_report", "cli.artifacts", _artifact_bytes),
    ("cli", "build_domain", "lattice.build_domain", _closure_points),
    ("exhaustion", "build_domain", "lattice.build_domain", _closure_points),
    ("cli", "assemble_source", "lattice.assemble_source", None),
    ("scheme", "assemble_source", "lattice.assemble_source", None),
    ("scheme", "laplacian", "fields.laplacian", None),
    ("scheme", "grad_energy", "fields.grad_energy", None),
    ("cli", "linear_solve", "linear.linear_solve", None),
    ("scheme", "linear_solve", "linear.linear_solve", None),
    ("cli", "dense_solve", "linear.dense_solve", None),
    ("scheme", "system_matrix", "linear.system_matrix", None),
    ("cli", "solve_bounded", "scheme.solve_bounded", _outer_steps),
    ("exhaustion", "solve_bounded", "scheme.solve_bounded", _outer_steps),
    ("scheme", "iterate_once", "scheme.iterate_once", None),
    ("scheme", "energy_eval", "scheme.energy_eval", None),
    ("scheme", "residual", "scheme.residual", None),
    ("cli", "newton_solve", "scheme.newton_solve", lambda _a, _r: {"scheme.newton_solve.ok": 1}),
    ("cli", "run_exhaustion", "exhaustion.run_exhaustion", None),
    ("cli", "decay_fit", "exhaustion.decay_fit", None),
    ("cli", "lp_summary", "exhaustion.lp_summary", None),
    ("cli", "shell_profile", "exhaustion.shell_profile", None),
    ("cli", "barrier_check", "exhaustion.barrier_check",
     lambda _a, report: {"exhaustion.barrier_check.points": report.points_checked}),
    ("cli", "coercivity_check", "exhaustion.coercivity_check", None),
)

# Per-layer metrics reported by a traced run: name -> unit.  Each is the
# value in the median traced call (see operation_metrics, layer_summary).
METRICS = {
    "linear.linear_solve.s": "s",
    "linear.linear_solve.calls": "count",
    "linear.linear_solve.ms_per_call": "ms",
    "linear.dense_solve.s": "s",
    "linear.dense_solve.calls": "count",
    "scheme.newton_solve.s": "s",
    "scheme.newton_solve.calls": "count",
    "scheme.newton_solve.ok_ratio": "ratio",
    "scheme.outer_steps": "count",
    "scheme.solve_bounded.s": "s",
    "scheme.solve_bounded.self_s": "s",
    "scheme.iterate_once.self_s": "s",
    "scheme.residual.s": "s",
    "scheme.energy_eval.s": "s",
    "fields.laplacian.s": "s",
    "fields.grad_energy.s": "s",
    "lattice.build_domain.s": "s",
    "lattice.build_domain.calls": "count",
    "lattice.closure_points": "count",
    "cli.artifacts.s": "s",
    "cli.artifacts.bytes": "bytes",
    "exhaustion.run_exhaustion.self_s": "s",
    "exhaustion.decay_fit.s": "s",
    "exhaustion.lp_summary.s": "s",
    "exhaustion.barrier_check.s": "s",
    "exhaustion.barrier_check.points": "count",
    "exhaustion.coercivity_check.s": "s",
    "cli.load_config.s": "s",
    "cli.solution_checks.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Collects spans and counters for every traced operation of one run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._op = -1

    def wrap(self, name, fn, counters=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, perf_counter(), None, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counters is not None:
                for key, value in counters(args, result).items():
                    self.counters[self._op][key] += value
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers on the consumer modules; restore them on exit."""
        saved = []
        try:
            for mod_name, attr, span, counters in PATCHES:
                mod = importlib.import_module(f"cslattice.{mod_name}")
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(span, original, counters))
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def run_operation(self, fn, *args):
        """Call fn(*args) as one traced operation under a root span."""
        self._op += 1
        return self.wrap(ROOT_SPAN, fn)(*args)

    def operation_metrics(self) -> list[dict[str, float]]:
        """Per-operation values of every metric except trace.overhead_frac.

        A metric named <span>.s is the span's busy time, <span>.calls its
        count, <span>.self_s its self time and <layer>.self_s the layer's;
        the other names are counters taken from the calls' results.
        """
        n_ops = self._op + 1
        busy = [defaultdict(float) for _ in range(n_ops)]
        own = [defaultdict(float) for _ in range(n_ops)]
        calls = [defaultdict(int) for _ in range(n_ops)]
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, parent, op), covered in zip(self.spans, child):
            busy[op][name] += end - start
            own[op][name] += end - start - covered
            calls[op][name] += 1

        out = []
        for op in range(n_ops):
            m = {}
            for metric in METRICS:
                span, _, kind = metric.rpartition(".")
                if kind == "s":
                    m[metric] = busy[op][span]
                elif kind == "calls":
                    m[metric] = calls[op][span]
                elif kind == "self_s" and span in LAYERS:
                    m[metric] = sum(v for name, v in own[op].items()
                                    if name.split(".", 1)[0] == span)
                elif kind == "self_s":
                    m[metric] = own[op][span]
                else:
                    m[metric] = self.counters[op][metric]
            n_solves, n_newton = calls[op]["linear.linear_solve"], calls[op]["scheme.newton_solve"]
            m["linear.linear_solve.ms_per_call"] = (
                1e3 * busy[op]["linear.linear_solve"] / n_solves if n_solves else 0.0)
            # With no Newton start there is no failed one: the ratio is 1.
            m["scheme.newton_solve.ok_ratio"] = (
                self.counters[op]["scheme.newton_solve.ok"] / n_newton if n_newton else 1.0)
            m["trace.wall_s"] = busy[op][ROOT_SPAN]
            del m["trace.overhead_frac"]
            out.append(m)
        return out

    def write_csv(self, path: Path) -> None:
        """Write every span as name,start_s,end_s,parent,op (times from the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "start_s", "end_s", "parent", "op"])
            for name, start, end, parent, op in self.spans:
                w.writerow([name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent, op])


def layer_summary(per_op: list[dict[str, float]], untraced_walls, traced_walls) -> dict:
    """The metrics of the median traced operation, plus the tracing overhead.

    All metrics come from the one operation whose traced wall is the (lower)
    median, so the printed layer self times add up to the printed
    trace.wall_s.  trace.overhead_frac compares the medians of the traced and
    untraced calls.
    """
    walls = [m["trace.wall_s"] for m in per_op]
    median_op = per_op[walls.index(statistics.median_low(walls))]
    base = statistics.median(untraced_walls)
    return {**median_op,
            "trace.overhead_frac": (statistics.median(traced_walls) - base) / base}
