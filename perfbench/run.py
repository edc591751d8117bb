"""Benchmark of the cslattice CLI: one closed-loop client, one process.

Usage, from the repository root:

    python3 perfbench/run.py --workload exhaust-2d --seed 1 --seconds 25 --trace 0

Each workload is one CLI command on a generated JSON config.  The harness
calls ``cslattice.cli.main([cmd, cfg, "--output-dir", dir, "--quiet"])``
in-process: one untimed warm-up call, then timed calls back to back until
``--seconds`` have passed.  Every call's outputs are checked (outputs.py).

--trace 0 reports the end-to-end metrics: wall_s (median seconds per warm
call), setup_s (median over fresh interpreters, run between the timed calls,
of importing cslattice and loading the config), peak_rss_mb (peak RSS of a
fresh process running the workload once).  --trace 1 alternates untraced and traced calls and reports
the per-layer metrics of spans.py.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.

BLAS and OpenMP are pinned to one thread in this process and its children,
so the numbers are a plain single-threaded baseline.  Only per-process
timing and memory figures (perf_counter, /proc/self/status) are used.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import gc
import json
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
from outputs import Failure, operation_failures

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SPANS_OUT = ROOT / ".perfbench-out"

MIN_CALLS = 3
SETUP_REPEATS = 31
CHILD_TIMEOUT_S = 120

# config.example.json's values, fixed here so that the benchmark's inputs do
# not move when the example changes.
BASE_CONFIG = {
    "dimension": 2,
    "lambda": 1.0,
    "a": 1.0,
    "radii": [10, 20, 30, 40],
    "epsilon": 0.1,
    "tol_nonlinear": 1e-10,
    "tol_linear": 1e-12,
    "max_steps": 500,
    "output_dir": "out",
    "emit": {"field_csv": True, "trace_csv": True, "report_json": True},
}
VORTEX_REACH = 3  # the seed places the one vortex within this Manhattan distance of 0


@dataclass(frozen=True)
class Workload:
    command: str
    overrides: dict = field(default_factory=dict)
    # The program's own checks that fail on this workload on the seed source
    # tree.  They count in `failed`; any other failed check makes the run
    # incorrect.
    known_failures: frozenset = frozenset()

    def config(self, seed: int) -> dict:
        """The generated JSON config: one unit vortex placed by the seed."""
        cfg = {**BASE_CONFIG, **self.overrides}
        n = cfg["dimension"]
        candidates = [p for p in product(range(-VORTEX_REACH, VORTEX_REACH + 1), repeat=n)
                      if sum(map(abs, p)) <= VORTEX_REACH]
        point = random.Random(seed).choice(candidates)
        cfg["vortices"] = [{"point": list(point), "multiplicity": 1}]
        return cfg


# Why each workload: see perfbench/README.md.
WORKLOADS = {
    "exhaust-2d": Workload("exhaust", {"radii": [20, 40, 60, 80]}),
    "solve-2d-lam0.1": Workload("solve", {"lambda": 0.1, "radii": [40], "max_steps": 5000},
                                frozenset({"flux_identity"})),
    "solve-4d": Workload("solve", {"dimension": 4, "radii": [14]}, frozenset({"flux_identity"})),
    "verify-3d": Workload("verify", {"dimension": 3, "radii": [6, 9, 12]}),
}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from cslattice.cli import load_config
load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""

# VmHWM, not ru_maxrss: Linux carries the parent's peak RSS into a child's
# ru_maxrss across fork and exec, while VmHWM belongs to the new image alone.
RSS_CODE = """
import re, sys
sys.path.insert(0, sys.argv[1])
from cslattice.cli import main
rc = main([sys.argv[2], sys.argv[3], "--output-dir", sys.argv[4], "--quiet"])
with open("/proc/self/status") as fh:
    print(rc, re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))
"""


class Harness:
    """Runs calls of one workload and keeps the tally of checked operations."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        from cslattice import cli

        self.cli = cli
        self.workload = workload
        self.cfg = workload.config(seed)
        self.work = work
        self.cfg_path = work / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg))
        self.attempted = 0
        self.failed = 0
        self.failures: dict[tuple[str, str], tuple[Failure, int]] = {}
        self._n = 0

    def _fresh_dir(self) -> Path:
        self._n += 1
        return self.work / f"out{self._n}"

    def _record(self, fails: list[Failure]) -> None:
        self.attempted += 1
        self.failed += bool(fails)
        for f in fails:
            first, count = self.failures.get((f.source, f.name), (f, 0))
            self.failures[(f.source, f.name)] = (first, count + 1)

    def call(self, run=None) -> float:
        """One checked CLI call; returns its wall seconds.  run wraps cli.main."""
        out = self._fresh_dir()
        argv = [self.workload.command, str(self.cfg_path), "--output-dir", str(out), "--quiet"]
        gc.collect()  # start each call from a collected heap, as a fresh process would
        fails = []
        t0 = perf_counter()
        try:
            rc = run(self.cli.main, argv) if run else self.cli.main(argv)
        except Exception as exc:  # a crash is a failed call, not a benchmark error
            rc = 1  # the exit status of the script on an uncaught exception
            fails.append(Failure("program", f"exception:{type(exc).__name__}", 1.0, 0.0))
        dt = perf_counter() - t0
        self._record(fails + operation_failures(self.workload.command, self.cfg, rc, out))
        shutil.rmtree(out, ignore_errors=True)
        return dt

    def setup_seconds(self) -> float:
        return float(_child(SETUP_CODE, str(SRC), str(self.cfg_path)))

    def peak_rss_mb(self) -> float:
        out = self._fresh_dir()
        rc, hwm_kib = _child(RSS_CODE, str(SRC), self.workload.command,
                                str(self.cfg_path), str(out)).split()
        self._record(operation_failures(self.workload.command, self.cfg, int(rc), out))
        shutil.rmtree(out, ignore_errors=True)
        return int(hwm_kib) * 1024 / 1e6

    def known(self, source: str, name: str) -> bool:
        return source == "program" and name in self.workload.known_failures

    @property
    def correct(self) -> bool:
        return all(self.known(*key) for key in self.failures)


def _child(code: str, *args: str) -> str:
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, check=True)
    return done.stdout.strip().splitlines()[-1]


def timed_loop(seconds: float, step) -> None:
    """Call step(i) back to back while the next call should end by the deadline."""
    start = perf_counter()
    calls = 0
    while calls < MIN_CALLS or (perf_counter() - start) * (calls + 1) / calls <= seconds:
        step(calls)
        calls += 1


def measure_end_to_end(h: Harness, seconds: float) -> dict:
    walls: list[float] = []
    setups: list[float] = []
    start = perf_counter()

    def step(i):
        walls.append(h.call())
        # Take the fresh interpreters between the calls, in step with the
        # clock, so that both metrics sample the host over the whole run.
        done = (perf_counter() - start) / seconds if seconds > 0 else 1.0
        while len(setups) < SETUP_REPEATS * min(done, 1.0):
            setups.append(h.setup_seconds())

    timed_loop(seconds, step)
    while len(setups) < SETUP_REPEATS:
        setups.append(h.setup_seconds())
    rss = h.peak_rss_mb()
    print(f"wall_s {statistics.median(walls):.4f} s (median of {len(walls)} calls; "
          f"min {min(walls):.4f}, max {max(walls):.4f})")
    print(f"setup_s {statistics.median(setups):.4f} s (median of {len(setups)} fresh interpreters)")
    print(f"peak_rss_mb {rss:.1f} MB (one fresh process)")
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def measure_layers(h: Harness, seconds: float, spans_path: Path) -> dict:
    tracer = spans.Tracer()
    untraced: list[float] = []
    traced: list[float] = []

    def traced_call():
        with tracer.patched():
            traced.append(h.call(tracer.run_operation))

    def pair(i):
        sides = [lambda: untraced.append(h.call()), traced_call]
        if i % 2:  # alternate which side of the pair runs first
            sides.reverse()
        for side in sides:
            side()

    timed_loop(seconds, pair)
    tracer.write_csv(spans_path)
    summary = spans.layer_summary(tracer.operation_metrics(), untraced, traced)
    print(f"traced {len(traced)} and untraced {len(untraced)} calls; "
          f"{len(tracer.spans)} spans written to {spans_path}")
    for name, unit in spans.METRICS.items():
        print(f"{name} {summary[name]:.6g} {unit}")
    if len(untraced) >= 2:
        q1, _, q3 = statistics.quantiles(untraced, n=4)
        noise = (q3 - q1) / statistics.median(untraced)
        # At or below the untraced calls' own noise, negative values included,
        # the difference is host drift, not tracing cost.
        verdict = "resolved" if summary["trace.overhead_frac"] > noise else "unresolved"
        print(f"trace.overhead_frac is {verdict}: the untraced calls' own IQR/median is "
              f"{noise:.3g}")
    return {name: {"value": summary[name], "unit": unit} for name, unit in spans.METRICS.items()}


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"env nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas.get('name')}-{blas.get('version')} "
            f"OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1; measured per process only, with "
            f"perf_counter and /proc/self/status (no system-wide tracing, cache drops "
            f"or kernel settings)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cslattice" / "__init__.py").is_file():
        print(f"error: no cslattice package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        h = Harness(WORKLOADS[args.workload], args.seed, work)
        print(environment())
        print(f"workload {args.workload} seed {args.seed}: {h.workload.command} "
              f"vortex {h.cfg['vortices'][0]['point']}")
        h.call()  # untimed warm-up
        if args.trace:
            metrics = measure_layers(h, args.seconds, SPANS_OUT / f"spans-{args.workload}.csv")
        else:
            metrics = measure_end_to_end(h, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it

    print(f"fail_frac {h.failed / h.attempted:.4g} ({h.failed} of {h.attempted} calls failed)")
    for (source, name), (f, count) in sorted(h.failures.items()):
        tag = "known" if h.known(source, name) else "NEW"
        print(f"failed check [{source}, {tag}] {name}: value {f.value:.6g}, threshold "
              f"{f.threshold:.6g} ({count} of {h.attempted} calls)")
    print(json.dumps({"correct": h.correct, "attempted": h.attempted,
                      "failed": h.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
