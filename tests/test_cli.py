import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cslattice.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    REQUIRED,
    RunConfig,
    load_config,
    main,
)
from cslattice import cli
from cslattice.scheme import solve_bounded
from cslattice.errors import ConfigError, ConvergenceError, SchemeIntegrityError

from conftest import assert_field_csv_exact, bisection_root, reference_field_csv

BASE_CONFIG = {
    "dimension": 2,
    "lambda": 1.0,
    "a": 1.0,
    "vortices": [{"point": [0, 0], "multiplicity": 1}],
    "radii": [6, 10, 14],
    "epsilon": 0.1,
}


def write_config(tmp_path, name="run.json", **overrides):
    cfg = dict(BASE_CONFIG)
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code, *args, hash_seed="0"):
    """Run code with args in a fresh interpreter that imports cslattice from src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


# The pytest process cannot tell: conftest's rng fixture imports numpy.random.
IMPORTS_AFTER_EACH_COMMAND = """
import json, sys
import numpy
watched = {"numpy.random", "secrets", "_hashlib"}
print(json.dumps(["numpy", sorted(watched & set(sys.modules))]))
from cslattice.cli import main
for cmd in ("solve", "exhaust", "verify"):
    main([cmd, sys.argv[1], "--output-dir", sys.argv[2] + "/" + cmd, "--quiet"])
    print(json.dumps([cmd, sorted(watched & set(sys.modules))]))
"""


def test_no_command_imports_numpy_random(tmp_path):
    # numpy.random imports secrets, hmac and _hashlib, which maps OpenSSL's
    # libcrypto.  numpy 1.x imports numpy.random with numpy itself, so a
    # command may only keep the set that import numpy left.
    path = write_config(tmp_path, radii=[3, 5])
    lines = run_fresh(IMPORTS_AFTER_EACH_COMMAND, path, tmp_path).splitlines()
    (_, loaded), *after = [json.loads(line) for line in lines]
    assert after == [["solve", loaded], ["exhaust", loaded], ["verify", loaded]]
    for cmd in ("solve", "exhaust", "verify"):  # each command ran to its report
        assert read_report(tmp_path / cmd)["command"] == cmd


def test_uniform_draws_are_pythons_random_stream():
    for low, high in ((-1.0, 1.0), (-3.0, 0.0)):
        stream, reference = random.Random(cli._SEED), random.Random(cli._SEED)
        for size in (1000, 7):  # a second call continues the stream
            x = cli._uniform(stream, low, high, size)
            assert x.dtype == np.float64
            assert np.all((low <= x) & (x < high))
            assert x.tolist() == [low + (high - low) * reference.random() for _ in range(size)]


class TestConfig:
    def test_load_and_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.params.K == pytest.approx(2.0)  # a*lambda + 1
        assert cfg.tol_nonlinear == 1e-10
        assert cfg.emit["report_json"] is True

    def test_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_example_file_spells_out_the_defaults(self):
        # every optional key of the example carries its default value
        example = Path(__file__).resolve().parents[1] / "config.example.json"
        raw = json.loads(example.read_text())
        assert len(REQUIRED) == 4
        assert load_config(example) == RunConfig.from_dict({k: raw[k] for k in REQUIRED})

    def test_rejects_small_k(self, tmp_path):
        path = write_config(tmp_path, K=0.5)
        with pytest.raises(ConfigError, match=r"K - a\*lambda must be positive, got -0\.5"):
            load_config(path)

    def test_rejects_unknown_keys(self, tmp_path):
        path = write_config(tmp_path, typo_key=1)
        with pytest.raises(ConfigError, match="typo_key"):
            load_config(path)

    def test_rejects_vortex_outside_smallest_ball(self, tmp_path):
        path = write_config(
            tmp_path, vortices=[{"point": [9, 0], "multiplicity": 1}]
        )
        with pytest.raises(ConfigError, match="smallest ball"):
            load_config(path)

    def test_json_diagnostics_carry_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "dimension": 2,\n  oops\n}')
        with pytest.raises(ConfigError, match="line 3"):
            load_config(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"dimension": 2, "lambda": 1.0, "a": 1.0}))
        with pytest.raises(ConfigError, match="vortices"):
            load_config(path)

    def test_bad_vortex_shape(self, tmp_path):
        path = write_config(tmp_path, vortices=[{"point": [0], "multiplicity": 1}])
        with pytest.raises(ConfigError, match=r"vortices\[0\].point"):
            load_config(path)

    @pytest.mark.parametrize("overrides, message", [
        ({"lambda": 0.0}, "lambda must be positive"),
        ({"a": -1.0}, "a must be positive"),
        ({"vortices": [{"point": [0, 0], "multiplicity": 0}]}, "multiplicity"),
        ({"vortices": [{"point": [0, 0], "multiplicity": 1}] * 2}, "duplicate vortex"),
        ({"radii": [10, 6]}, "radii must be strictly increasing"),
        # the id keeps the case's established name, so that selecting it still works
        pytest.param({"radii": [-1, 6], "vortices": []}, "radii[0] must be >= 0, got -1",
                     id="overrides5-radii must be nonnegative"),
        ({"dimension": 1, "vortices": []}, "dimension must be >= 2"),
        ({"epsilon": 1.0}, "epsilon must lie in (0, 1)"),
        ({"tol_nonlinear": 0.0}, "tol_nonlinear must be positive"),
        ({"max_steps": 0}, "max_steps must be >= 1"),
        ({"tol_linear": 1.0}, "tol_rel must lie in (0, 1)"),
        # the non-finite cases keep their established ids "overridesN-<key>: must be
        # a finite number", so that selecting them by name still works
        *(pytest.param({key: value}, f"{key} must be a finite number",
                       id=f"overrides{index}-{key}: must be a finite number")
          for index, (key, value) in enumerate(
              ((key, value) for key in ("lambda", "K", "tol_nonlinear")
               for value in (math.inf, math.nan)), start=11)),
        pytest.param({"lambda": 10**400}, "lambda must be a finite number",
                     id="overrides17-lambda: must be a finite number"),
        ({"radii": [4.5, 6]}, "radii[0] must be an integer, got 4.5"),
        ({"radii": [4, True]}, "radii[1] must be an integer, got True"),
        ({"vortices": [{"point": [0, 2.5], "multiplicity": 1}]},
         "vortices[0].point[1] must be an integer, got 2.5"),
        ({"vortices": [{"point": [True, 0], "multiplicity": 1}]},
         "vortices[0].point[0] must be an integer, got True"),
        ({"vortices": [{"point": [0, 0], "multiplicity": 1.0}]},
         "vortices[0].multiplicity must be an integer, got 1.0"),
    ])
    def test_library_checks_exit_2_and_name_the_field(self, tmp_path, capsys,
                                                      overrides, message):
        path = write_config(tmp_path, **overrides)
        assert main(["solve", str(path), "--quiet"]) == EXIT_CONFIG
        assert message in capsys.readouterr().err


class TestExitCodes:
    def test_config_error_exit(self, tmp_path, capsys):
        path = write_config(tmp_path, K=0.5)
        assert main(["solve", str(path), "--quiet"]) == EXIT_CONFIG
        assert "K - a*lambda must be positive" in capsys.readouterr().err

    def test_radii_not_increasing_exit(self, tmp_path):
        path = write_config(tmp_path, radii=[4, 4, 8])
        assert main(["exhaust", str(path), "--quiet"]) == EXIT_CONFIG

    def test_exhaust_needs_two_radii(self, tmp_path):
        path = write_config(tmp_path, radii=[6])
        assert main(["exhaust", str(path), "--quiet"]) == EXIT_CONFIG

    @pytest.mark.parametrize("command, overrides, message", [
        ("solve", {"radii": [40000]},
         "B_40000 in Z^2 is too large for int16 coordinates: its boundary lies at distance 40001"),
        ("solve", {"dimension": 20, "vortices": [{"point": [0] * 20, "multiplicity": 1}],
                   "radii": [12]}, "B_12 in Z^20 is too large for int32 indices"),
        ("exhaust", {"radii": [5, 40000]}, "B_40000 in Z^2 is too large for int16 coordinates"),
    ])
    def test_ball_the_arrays_cannot_hold_exits_2_before_any_solve(self, tmp_path, capsys,
                                                                  command, overrides, message):
        # these died in build_domain with a traceback and exit 1, exhaust
        # only after solving its first radius
        path = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main([command, str(path), "--output-dir", str(out), "--quiet"]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()  # refused at load, before the run starts

    def test_output_dir_that_cannot_be_created_exits_2(self, tmp_path, capsys):
        # mkdir raised FileExistsError or NotADirectoryError: a traceback and exit 1
        path = write_config(tmp_path, radii=[2])
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        for out in (blocker, blocker / "below"):
            assert main(["solve", str(path), "--output-dir", str(out), "--quiet"]) == EXIT_CONFIG
            assert f"cannot create output directory {out}: " in capsys.readouterr().err
        assert blocker.read_text() == ""

    def test_convergence_failure_exit(self, tmp_path, monkeypatch):
        import cslattice.scheme as scheme_mod
        from cslattice.errors import ConvergenceError

        def failing(*args, **kwargs):
            raise ConvergenceError("Newton disabled")

        # a certified Newton finish ends this solve after one step
        monkeypatch.setattr(scheme_mod, "newton_solve", failing)
        path = write_config(tmp_path, radii=[6], max_steps=3)
        out = tmp_path / "out"
        rc = main(["solve", str(path), "--output-dir", str(out), "--quiet"])
        assert rc == EXIT_NO_CONVERGENCE
        # partial trace is preserved for inspection
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "k,sup_diff,energy,residual"
        assert len(trace) == 5  # header + k=0..3
        report = read_report(out)
        assert report["error"]["type"] == "convergence"

    def test_uncertified_solve_exits_3_with_trace(self, tmp_path, monkeypatch):
        import cslattice.scheme as scheme_mod

        # a "root" that is the unconverged start is never certified: the
        # monotone steps converge and the solve raises instead of returning
        monkeypatch.setattr(scheme_mod, "newton_solve", lambda start, g, params, **kw: start)
        path = write_config(tmp_path, radii=[6])
        out = tmp_path / "out"
        rc = main(["solve", str(path), "--output-dir", str(out), "--quiet"])
        assert rc == EXIT_NO_CONVERGENCE
        assert "no certified Newton root" in read_report(out)["error"]["message"]
        assert len((out / "trace.csv").read_text().splitlines()) > 2
        assert not (out / "field.csv").exists()

    def test_rising_step_exits_1_with_trace(self, tmp_path, monkeypatch):
        import cslattice.scheme as scheme_mod

        # step 2 rises by 1e-6 at one point; the triple vortex on B_10 takes
        # more than two steps, so no certified root returns before it
        real, calls = scheme_mod.iterate_once, []

        def rising(f_prev, g, params):
            calls.append(1)
            f_next = real(f_prev, g, params)
            if len(calls) == 2:
                f_next.values[0] = f_prev.values[0] + 1e-6
            return f_next

        monkeypatch.setattr(scheme_mod, "iterate_once", rising)
        path = write_config(tmp_path, radii=[10],
                            vortices=[{"point": [0, 0], "multiplicity": 3}])
        out = tmp_path / "out"
        rc = main(["solve", str(path), "--output-dir", str(out), "--quiet"])
        assert rc == EXIT_CHECK_FAILED
        report = read_report(out)
        assert report["error"]["type"] == "scheme_integrity"
        assert "rose by 1.000e-06" in report["error"]["message"]
        assert not report["all_checks_passed"]
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "k,sup_diff,energy,residual"
        assert [row.split(",")[0] for row in trace[1:]] == ["0", "1", "2"]
        assert not (out / "field.csv").exists()

    def test_exhaust_convergence_failure_keeps_partials(self, tmp_path, monkeypatch):
        import cslattice.exhaustion as exhaustion_mod
        from cslattice.errors import ConvergenceError

        real = exhaustion_mod.solve_bounded

        def failing(dom, *args, **kwargs):
            if dom.radius > 6:
                raise ConvergenceError("forced failure")
            return real(dom, *args, **kwargs)

        monkeypatch.setattr(exhaustion_mod, "solve_bounded", failing)
        path = write_config(tmp_path, radii=[4, 6, 8])
        out = tmp_path / "out"
        rc = main(["exhaust", str(path), "--output-dir", str(out), "--quiet"])
        assert rc == EXIT_NO_CONVERGENCE
        # only the largest completed radius keeps its field
        assert sorted(p.name for p in out.glob("field*.csv")) == ["field_R6.csv"]
        report = read_report(out)
        assert report["error"]["type"] == "convergence"
        assert [b["radius"] for b in report["radii"]] == [4, 6]


class TestSolve:
    def test_small_lambda_certified_with_flux_identity(self, tmp_path):
        # the plain monotone stop rule left a one-signed residual here whose
        # sum missed FLUX_TOL (gap 3.4e-8)
        path = write_config(tmp_path, radii=[40], **{"lambda": 0.1})
        out = tmp_path / "out"
        assert main(["solve", str(path), "--output-dir", str(out), "--quiet"]) == EXIT_OK
        report = read_report(out)
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["flux_identity"]["passed"]
        # the certificate is reported with its radius; solve_bounded returns only certified roots
        block = report["radii"][0]
        assert 0.0 < block["certificate"]["bound"] <= 1e-10
        assert block["certificate"]["rho"] > 0.0
        assert block["iterations"] == 1

    def test_field_csv_matches_per_value_formatting(self, tmp_path, monkeypatch):
        from cslattice import Field, build_domain
        from cslattice import cli as cli_mod

        dom = build_domain(2, 1)
        values = np.zeros(dom.n_closure)
        values[: dom.n_interior] = [-0.0, 5e-324, 1e-300, -1.0, -1 / 3]
        f = Field(dom, values)
        lines = ["x1,x2,d,f"] + [
            ",".join([str(c) for c in p] + [str(d), f"{v:.17g}"])
            for p, d, v in zip(dom.coords.tolist(), dom.distances.tolist(), f.values)
        ]
        # rows run shell by shell from the origin
        assert lines[1:3] == ["0,0,0,-0", "-1,0,1,4.9406564584124654e-324"]
        # one block, and blocks of 4 rows: 13 rows end in a partial block
        for block in (cli_mod.CSV_BLOCK_ROWS, 4):
            monkeypatch.setattr(cli_mod, "CSV_BLOCK_ROWS", block)
            cli_mod.write_field_csv(tmp_path / "f.csv", f)
            assert (tmp_path / "f.csv").read_text() == "\n".join(lines) + "\n"

    def test_empty_vortices_zero_field(self, tmp_path):
        path = write_config(tmp_path, vortices=[], radii=[4])
        out = tmp_path / "out"
        assert main(["solve", str(path), "--output-dir", str(out), "--quiet"]) == EXIT_OK
        rows = (out / "field.csv").read_text().strip().splitlines()
        assert rows[0] == "x1,x2,d,f"
        assert all(r.split(",")[-1] == "0" for r in rows[1:])

    def test_single_vertex_report_matches_root(self, tmp_path):
        path = write_config(tmp_path, K=2.0, radii=[0], tol_nonlinear=1e-12)
        out = tmp_path / "out"
        assert main(["solve", str(path), "--output-dir", str(out), "--quiet"]) == EXIT_OK
        report = read_report(out)
        value = report["radii"][0]["vortex_values"]["[0, 0]"]
        root = bisection_root(
            lambda t: 4 * t + math.exp(t) * (math.exp(t) - 1) + 4 * math.pi, -15.0, 0.0
        )
        assert value == pytest.approx(root, abs=1e-9)

    def test_solve_uses_largest_radius(self, tmp_path):
        path = write_config(tmp_path, radii=[3, 6])
        out = tmp_path / "out"
        assert main(["solve", str(path), "--output-dir", str(out), "--quiet"]) == EXIT_OK
        report = read_report(out)
        assert [b["radius"] for b in report["radii"]] == [6]

    def test_emit_flags_respected(self, tmp_path):
        path = write_config(
            tmp_path, radii=[4],
            emit={"field_csv": False, "trace_csv": False, "report_json": True},
        )
        out = tmp_path / "out"
        assert main(["solve", str(path), "--output-dir", str(out), "--quiet"]) == EXIT_OK
        assert not (out / "field.csv").exists()
        assert not (out / "trace.csv").exists()
        assert (out / "report.json").exists()


def exact_ties():
    """Doubles m / 2^n exactly halfway between two 17-digit decimals: m 5^n has
    18 digits and ends in 5, so "%.17g" rounds half to even."""
    ties = []
    for n in range(2, 26):
        first = -(-10**17 // 5**n) | 1  # the least odd m with m 5^n >= 10^17
        for m in (first, first + 2, first + 12_345_678_902, 10**18 // 5**n - 1):
            if m % 2 and m < 2**53 and 10**17 <= m * 5**n < 10**18:
                ties.append(math.ldexp(m, -n))
    return ties


class TestFieldCsvExact:
    """write_field_csv computes the "%.17g" digits in numpy; these compare its
    bytes with Python's per-value formatting (the property test over all
    finite floats is in test_field_csv.py)."""

    def test_edge_values(self, tmp_path, monkeypatch):
        # each double nearest 10^j, and 3 ulps to either side: there
        # floor(log10 x) can be one off, and some round up to 10^j
        powers = np.array([float(10**j) if j >= 0 else 1 / 10**-j for j in range(-323, 309)])
        near = [powers]
        for toward in (0.0, np.inf):
            x = powers
            for _ in range(3):
                x = np.nextafter(x, toward)
                near.append(x)
        # 1e98 is below 10^98, and its 17 digits carry to 10^98
        assert int(1e98) < 10**98 and "%.17g" % 1e98 == "1e+98"
        tiny = np.finfo(float).tiny
        ties = exact_ties()
        assert len(ties) > 50
        edges = np.concatenate(near + [[0.0, 5e-324, np.nextafter(tiny, 0), tiny, 1e-270, 1e270,
                                        np.finfo(float).max, 0.1, 1 / 3, 2.0**53 + 2], ties])
        assert_field_csv_exact(tmp_path / "f.csv", np.concatenate([edges, -edges]))
        # the digits do not rest on log10 being correctly rounded: floor(log10 x)
        # one too high or too low near 10^j must give the same bytes
        log10 = np.log10
        for shift in (-1e-12, 1e-12):
            monkeypatch.setattr(np, "log10", lambda a, shift=shift: log10(a) + shift)
            assert_field_csv_exact(tmp_path / "f.csv", np.concatenate(near))

    def test_solved_4d_field(self, tmp_path):
        from cslattice import Params, VortexConfig, build_domain, solve_bounded

        sol = solve_bounded(build_domain(4, 14), VortexConfig([((1, 0, 0, 0), 1)]), Params(1.0, 1.0))
        cli.write_field_csv(tmp_path / "f.csv", sol.field)
        assert (tmp_path / "f.csv").read_bytes() == reference_field_csv(sol.field)


@pytest.fixture(scope="module")
def completed(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("exhaust")
    path = write_config(tmp)
    out = tmp / "out"
    rc = main(["exhaust", str(path), "--output-dir", str(out), "--quiet"])
    return rc, out


class TestExhaust:
    def test_exit_ok_and_all_checks(self, completed):
        rc, out = completed
        assert rc == EXIT_OK
        report = read_report(out)
        assert report["all_checks_passed"]
        names = {c["name"] for c in report["checks"]}
        assert "nested_monotonicity" in names
        assert "l2_stabilization" in names
        assert "decay_rate" in names
        # the closed-form constants are reported, not checked: their proofs make them positive
        assert not names & {"barrier_inequality", "coercivity_positive"}
        assert set(report["verification"]) == {"coercivity_c", "barrier_min_margin", "barrier_c1"}
        # per radius only the checks a returned solution can fail; solve_bounded
        # enforces the monotone invariants and the certificate before it returns
        solution_rows = {"terminal_residual", "flux_identity", "vortex_strictly_negative"}
        for block in report["radii"]:
            radius = block["radius"]
            assert {n.split(".", 1)[1] for n in names if n.startswith(f"R{radius}.")} \
                == solution_rows
            assert 0.0 < block["certificate"]["bound"] <= 1e-10
            assert block["certificate"]["rho"] > 0.0
        assert [b["radius"] for b in report["radii"]] == [6, 10, 14]

    def test_artifacts_exist(self, completed):
        _, out = completed
        for name in ("field_R14.csv", "decay.csv", "report.json"):
            assert (out / name).exists()
        # the smaller radii are steps on the way: only the largest keeps its field
        assert sorted(out.glob("field*.csv")) == [out / "field_R14.csv"]

    def test_decay_csv_columns(self, completed):
        _, out = completed
        rows = (out / "decay.csv").read_text().strip().splitlines()
        assert rows[0] == "d,shell_max,bound"
        assert len(rows) == 16  # header + d = 0..14

    def test_field_csv_distance_column(self, completed):
        _, out = completed
        rows = (out / "field_R14.csv").read_text().strip().splitlines()[1:]
        for row in rows[:20]:
            parts = row.split(",")
            assert int(parts[2]) == abs(int(parts[0])) + abs(int(parts[1]))

    def test_report_round_trips_config(self, completed):
        _, out = completed
        report = read_report(out)
        echoed = RunConfig.from_dict(report["config"])
        assert echoed.radii == [6, 10, 14]
        assert echoed.params.lam == 1.0

    def test_coercivity_value_reported(self, completed):
        _, out = completed
        report = read_report(out)
        assert report["verification"]["coercivity_c"] == 0.5
        assert report["verification"]["barrier_min_margin"] >= 0.0

    def test_sharp_rate_reported(self, completed):
        _, out = completed
        decay = read_report(out)["decay"]
        assert decay["beta_star"] == math.acosh(1.25)  # lambda*a = 1, n = 2
        assert decay["alpha_theory"] < decay["beta_star"]


class TestDeterminism:
    def test_byte_identical_artifacts(self, tmp_path):
        path = write_config(tmp_path, radii=[4, 7])
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["exhaust", str(path), "--output-dir", str(out1), "--quiet"])
        main(["exhaust", str(path), "--output-dir", str(out2), "--quiet"])
        for name in ("report.json", "field_R7.csv", "decay.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_byte_identical_artifacts_4d(self, tmp_path):
        # n = 4 gives an 8-column stencil.  At R=9 the neighbour and red-black
        # tables are above fields.ONE_TAKE_MAX, at R=4 below it, so the two
        # solves run both gather_sum paths.
        for radius in (4, 9):
            path = write_config(
                tmp_path, dimension=4, vortices=[{"point": [1, 0, 0, 0], "multiplicity": 1}],
                radii=[3, radius],
            )
            out1, out2 = tmp_path / f"a{radius}", tmp_path / f"b{radius}"
            for out in (out1, out2):
                assert main(["solve", str(path), "--output-dir", str(out), "--quiet"]) == EXIT_OK
            for name in ("report.json", "field.csv", "trace.csv"):
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_byte_identical_verify_report(self, tmp_path):
        # two fresh processes whose hash seeds differ
        path = write_config(tmp_path, radii=[3, 5])
        outs = [tmp_path / "a", tmp_path / "b"]
        for out, hash_seed in zip(outs, ("1", "2")):
            run_fresh("from cslattice.cli import console_main; console_main()",
                      "verify", path, "--output-dir", out, "--quiet", hash_seed=hash_seed)
        assert read_report(outs[0])["all_checks_passed"]
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()


class TestVerify:
    def test_default_config_all_pass(self, tmp_path):
        path = write_config(tmp_path, radii=[6, 9])
        out = tmp_path / "out"
        assert main(["verify", str(path), "--output-dir", str(out), "--quiet"]) == EXIT_OK
        report = read_report(out)
        assert report["all_checks_passed"]
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["maximality_newton"]["passed"]
        assert by_name["symmetry_equivariance"]["passed"]
        assert "coercivity_positive" not in by_name
        assert 0.49 <= report["verification"]["coercivity_c"] <= 0.51

    def test_example_config_reports_the_certificate(self, tmp_path):
        example = Path(__file__).resolve().parents[1] / "config.example.json"
        out = tmp_path / "out"
        assert main(["verify", str(example), "--output-dir", str(out), "--quiet"]) == EXIT_OK
        certificate = read_report(out)["verification"]["certificate"]
        tol = json.loads(example.read_text())["tol_nonlinear"]
        assert 0.0 < certificate["bound"] <= tol
        assert certificate["rho"] > 0.0

    def test_three_dimensional_maximality(self, tmp_path):
        # Newton runs on the smallest radius's ball, R=4 (129 unknowns); its steps are CG solves
        path = write_config(tmp_path, dimension=3,
                            vortices=[{"point": [0, 0, 0], "multiplicity": 1}], radii=[4, 6])
        out = tmp_path / "out"
        assert main(["verify", str(path), "--output-dir", str(out), "--quiet"]) == EXIT_OK
        by_name = {c["name"]: c for c in read_report(out)["checks"]}
        assert by_name["maximality_newton"]["passed"]
        assert by_name["maximality_newton"]["detail"] == "10/10 starts converged"

    def test_nine_dimensions(self, tmp_path, monkeypatch):
        # the linear oracle solved B_4 in Z^9 densely: 5641 unknowns, above
        # DENSE_MAX_UNKNOWNS, so system_matrix refused it and verify exited 1
        real, built = cli.build_domain, []

        def recording(n, radius):
            built.append(radius)
            return real(n, radius)

        monkeypatch.setattr(cli, "build_domain", recording)
        path = write_config(tmp_path, dimension=9, radii=[1],
                            vortices=[{"point": [0] * 9, "multiplicity": 1}])
        out = tmp_path / "out"
        assert main(["verify", str(path), "--output-dir", str(out), "--quiet"]) == EXIT_OK
        assert built == [2, 3, 1]  # B_3 has 1159 interior points
        assert read_report(out)["all_checks_passed"]

    def test_sabotaged_linear_tolerance_is_caught(self, tmp_path):
        # the linear oracle alone catches tol_linear = 0.5; the solve itself
        # stays right, because no solve reads tol_linear
        path = write_config(tmp_path, radii=[6, 9], tol_linear=0.5)
        out = tmp_path / "out"
        rc = main(["verify", str(path), "--output-dir", str(out), "--quiet"])
        assert rc == EXIT_CHECK_FAILED
        report = read_report(out)
        by_name = {c["name"]: c for c in report["checks"]}
        assert [c["name"] for c in report["checks"] if not c["passed"]] == ["linear_oracle"]
        # the solve returned, so its steps held monotone and its root is certified
        assert "bounded_solve" not in by_name
        assert by_name["terminal_residual"]["passed"]
        assert by_name["maximality_newton"]["passed"]
        assert not report["all_checks_passed"]

    @pytest.mark.parametrize("error, kind", [(ConvergenceError, "convergence"),
                                             (SchemeIntegrityError, "scheme_integrity")])
    def test_failed_solve_is_one_bounded_solve_check(self, tmp_path, monkeypatch, error, kind):
        # it was reported as failed monotone_iterates and energy_nonincreasing;
        # the solution checks are left out
        def failing(*args, **kwargs):
            raise error("solve sabotaged")

        monkeypatch.setattr(cli, "solve_bounded", failing)
        path = write_config(tmp_path, radii=[6, 9])
        out = tmp_path / "out"
        assert main(["verify", str(path), "--output-dir", str(out), "--quiet"]) == EXIT_CHECK_FAILED
        by_name = {c["name"]: c for c in read_report(out)["checks"]}
        assert by_name["bounded_solve"] == {"name": "bounded_solve", "passed": False,
                                            "detail": f"{kind}: solve sabotaged"}
        assert "terminal_residual" not in by_name
        assert "maximality_newton" not in by_name
        assert by_name["linear_oracle"]["passed"]

    def test_one_bounded_solve_per_run(self, tmp_path, monkeypatch):
        # the maximality check made a second solve, on a ball of radius max(8, ...)
        radii = []

        def counting(dom, *args, **kwargs):
            radii.append(dom.radius)
            return solve_bounded(dom, *args, **kwargs)

        monkeypatch.setattr(cli, "solve_bounded", counting)
        path = write_config(tmp_path, radii=[6, 9])
        out = tmp_path / "out"
        assert main(["verify", str(path), "--output-dir", str(out), "--quiet"]) == EXIT_OK
        assert radii == [6]

    def test_one_source_for_the_ten_newton_starts(self, monkeypatch):
        # each start assembled its own source inside newton_solve
        import cslattice.scheme as scheme_mod
        from cslattice import Params, VortexConfig, build_domain

        sol = solve_bounded(build_domain(2, 5), VortexConfig([((0, 0), 1)]), Params(1.0, 1.0))
        real_source, real_newton = cli.assemble_source, cli.newton_solve
        sources, newton_sources = [], []

        def assembling(*args):
            sources.append(real_source(*args))
            return sources[-1]

        def newton(f_init, g, params, **kwargs):
            newton_sources.append(g)
            return real_newton(f_init, g, params, **kwargs)

        for module in (cli, scheme_mod):
            monkeypatch.setattr(module, "assemble_source", assembling)
        monkeypatch.setattr(cli, "newton_solve", newton)
        check = cli._maximality_check(sol, random.Random(cli._SEED))
        assert check["passed"] and check["detail"] == "10/10 starts converged"
        assert len(sources) == 1
        assert len(newton_sources) == 10 and all(g is sources[0] for g in newton_sources)

    def test_off_origin_vortex_skips_symmetry(self, tmp_path):
        path = write_config(
            tmp_path, vortices=[{"point": [1, 0], "multiplicity": 1}], radii=[6, 9]
        )
        out = tmp_path / "out"
        assert main(["verify", str(path), "--output-dir", str(out), "--quiet"]) == EXIT_OK
        report = read_report(out)
        by_name = {c["name"]: c for c in report["checks"]}
        assert "skipped" in by_name["symmetry_equivariance"]["detail"]
