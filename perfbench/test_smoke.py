"""Fast smoke test of the benchmark harness on tiny configs.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import outputs
import run
import spans

sys.path.insert(0, str(run.SRC))

from cslattice import cli  # noqa: E402

TINY_SOLVE = run.Workload("solve", {"radii": [6]})
# Too small for the program's l2_stabilization and decay_rate checks, which
# fail; the traced-run test declares them known.
TINY_EXHAUST = run.Workload("exhaust", {"radii": [4, 8]},
                            frozenset({"l2_stabilization", "decay_rate"}))
TINY_VERIFY = run.Workload("verify", {"radii": [3, 5]})
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def solve_into(out_dir: Path, cfg: dict, tmp_path: Path) -> int:
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return cli.main(["solve", str(cfg_path), "--output-dir", str(out_dir), "--quiet"])


def test_config_is_a_function_of_the_seed():
    for wl in run.WORKLOADS.values():
        a, b = wl.config(7), wl.config(7)
        assert a == b
        point = a["vortices"][0]["point"]
        assert len(point) == a["dimension"]
        assert sum(map(abs, point)) <= run.VORTEX_REACH
    seen = {tuple(run.WORKLOADS["solve-4d"].config(s)["vortices"][0]["point"]) for s in range(20)}
    assert len(seen) > 1


def test_good_output_passes_the_independent_check(tmp_path):
    cfg = TINY_SOLVE.config(3)
    assert solve_into(tmp_path / "out", cfg, tmp_path) == 0
    assert outputs.operation_failures("solve", cfg, 0, tmp_path / "out") == []


@pytest.mark.parametrize("corrupt, check", [
    (lambda f: f - 1e-3, "field_residual_sup"),  # breaks the equation
    (lambda f: abs(f) + 1.0, "field_sign"),       # positive value
])
def test_corrupted_field_csv_counts_as_failed(tmp_path, corrupt, check):
    cfg = TINY_SOLVE.config(3)
    out = tmp_path / "out"
    assert solve_into(out, cfg, tmp_path) == 0
    lines = (out / "field.csv").read_text().splitlines()
    cols = lines[1].split(",")  # first interior point
    cols[-1] = repr(corrupt(float(cols[-1])))
    lines[1] = ",".join(cols)
    (out / "field.csv").write_text("\n".join(lines) + "\n")

    fails = outputs.operation_failures("solve", cfg, 0, out)
    assert check in {f.name for f in fails if f.source == "output"}

    h = run.Harness(TINY_SOLVE, 3, tmp_path)
    h._record(fails)
    assert (h.correct, h.attempted, h.failed) == (False, 1, 1)


def test_missing_point_and_missing_report_are_failures(tmp_path):
    cfg = TINY_SOLVE.config(3)
    out = tmp_path / "out"
    solve_into(out, cfg, tmp_path)
    lines = (out / "field.csv").read_text().splitlines()
    (out / "field.csv").write_text("\n".join(lines[:-1]) + "\n")
    (out / "report.json").unlink()
    names = {f.name for f in outputs.operation_failures("solve", cfg, 0, out)}
    assert {"field_csv_points", "report_json"} <= names


def test_known_program_failures_are_counted_but_keep_the_run_correct(tmp_path):
    wl = run.Workload("solve", {"radii": [6]}, frozenset({"flux_identity"}))
    h = run.Harness(wl, 3, tmp_path)
    h._record([outputs.Failure("program", "flux_identity", 3e-8, 1e-8)])
    h.call()
    assert (h.correct, h.attempted, h.failed) == (True, 2, 1)
    h._record([outputs.Failure("program", "terminal_residual", 1e-7, 1e-8)])
    assert (h.correct, h.attempted, h.failed) == (False, 3, 2)


def test_a_failed_check_in_a_verify_report_makes_the_run_wrong(tmp_path):
    cfg = TINY_VERIFY.config(3)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["verify", str(cfg_path), "--output-dir", str(out), "--quiet"]) == 0
    assert outputs.operation_failures("verify", cfg, 0, out) == []

    report = json.loads((out / "report.json").read_text())
    check = next(c for c in report["checks"] if c["name"] == "maximality_newton")
    check["passed"] = False
    report["all_checks_passed"] = False
    (out / "report.json").write_text(json.dumps(report))
    fails = outputs.operation_failures("verify", cfg, 1, out)
    assert [(f.source, f.name) for f in fails] == [("program", "maximality_newton")]

    h = run.Harness(TINY_VERIFY, 3, tmp_path)
    h._record(fails)
    assert (h.correct, h.attempted, h.failed) == (False, 1, 1)


def test_an_unexplained_exit_code_is_a_failure(tmp_path):
    cfg = TINY_SOLVE.config(3)
    out = tmp_path / "out"
    assert solve_into(out, cfg, tmp_path) == 0
    assert [f.name for f in outputs.operation_failures("solve", cfg, 3, out)] == ["exit_code"]


def test_end_to_end_metrics_match_the_benchmark_file(tmp_path, capsys):
    h = run.Harness(TINY_SOLVE, 1, tmp_path)
    metrics = run.measure_end_to_end(h, 0.0)
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
    assert (h.correct, h.failed) == (True, 0)
    assert h.attempted == run.MIN_CALLS + 1  # timed calls plus the peak-RSS process


def test_traced_run_partitions_the_wall_and_restores_the_package(tmp_path, capsys):
    h = run.Harness(TINY_EXHAUST, 1, tmp_path)
    metrics = run.measure_layers(h, 0.0, tmp_path / "spans.csv")
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert h.correct
    printed_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in spans.LAYERS)
    assert printed_sum == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)
    assert metrics["scheme.newton_solve.ok_ratio"]["value"] == 1  # no Newton start at all
    assert (tmp_path / "spans.csv").read_text().startswith("name,start_s,end_s,parent,op")

    tracer = spans.Tracer()
    with tracer.patched():
        h.call(tracer.run_operation)
    (m,) = tracer.operation_metrics()
    layer_sum = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_sum == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["scheme.outer_steps"] > 0 and m["lattice.build_domain.calls"] == 2
    assert m["cli.artifacts.bytes"] > 0 and m["exhaustion.barrier_check.points"] > 0
    # no wrapper is left behind on any consumer module
    for mod_name, attr, _, _ in spans.PATCHES:
        assert not hasattr(getattr(sys.modules[f"cslattice.{mod_name}"], attr), "__wrapped__")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-4d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_crashing_call_is_failed_and_wrong(tmp_path, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("crash")

    monkeypatch.setattr(cli, "solve_bounded", crash)
    h = run.Harness(TINY_SOLVE, 3, tmp_path)
    h.call()
    assert ("program", "exception:RuntimeError") in h.failures
    assert (h.correct, h.attempted, h.failed) == (False, 1, 1)
