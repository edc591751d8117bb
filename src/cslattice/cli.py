"""Command-line front end: solve, exhaust, and verify runs from a JSON config.

Exit codes: 0 success, 1 invariant-check failure, 2 configuration error,
3 convergence failure.  All artifacts (CSV fields and traces, JSON report)
are deterministic functions of the configuration: rerunning a config on the
same machine with the same BLAS thread count produces byte-identical files.
OpenBLAS splits long dot products across its threads, so another thread
count can change the last bits of a large solve.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import AnalysisError, ConfigError, ConvergenceError, SchemeIntegrityError
from .fields import Field, norm
from .floattext import G17_WIDTH, g17_text
from .lattice import (
    Params,
    Problem,
    VortexConfig,
    ball_size,
    build_domain,
    manhattan_norm,
    validate_ball,
    validate_dimension,
)
# Unused here, kept until perfbench/spans.py stops patching this name.
from .lattice import assemble_source
from .linear import (
    DEFAULT_TOL_REL,
    DENSE_MAX_UNKNOWNS,
    ORACLE_REL_TOL,
    LinearSystem,
    dense_solve,
    linear_solve,
    validate_tol_rel,
)
from .exhaustion import (
    L2_DROP_TOL,
    L2_STABILIZATION_TOL,
    RATE_MARGIN,
    barrier_check,
    coercivity_check,
    decay_fit,
    decay_rate_sharp,
    lp_summary,
    run_exhaustion,
    shell_profile,
    validate_epsilon,
    validate_radii,
)
from .scheme import (
    DEFAULT_MAX_STEPS,
    DEFAULT_TOL_NONLINEAR,
    MAXIMALITY_TOL,
    RESIDUAL_FACTOR,
    VORTEX_VALUE_BOUND,
    BoundedSolution,
    flux_gap,
    newton_solve,
    solve_bounded,
    validate_stopping,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

# verify's sampled oracles draw their inputs from random.Random(_SEED).random(),
# the one stream whose sequence Python keeps across versions; numpy promises
# no Generator stream across its versions, and importing numpy.random maps
# OpenSSL's libcrypto (through secrets and hmac) into the process.
_SEED = 20260809

# write_field_csv lays out this many rows at a time in a byte buffer of
# G17_WIDTH + (dimension + 1) * w bytes a row (w the widest "%d," token) and
# writes each block with one call.  At 1024 rows its arrays peak near 0.3 MB
# on a 4D field.  Larger blocks save some time (2-20% at 2048 rows) but raise
# the peak RSS of a small 2D solve (by about 0.7 MB at 2048 rows).
CSV_BLOCK_ROWS = 1024

# The config keys: the required ones, and the optional ones with their values
# when absent.  The solver settings default to the library's own defaults.
REQUIRED = ("dimension", "lambda", "a", "vortices")
DEFAULTS = {
    "K": None,  # Params sets a*lambda + 1
    "radii": [10, 20, 30, 40],
    "epsilon": 0.1,
    "tol_nonlinear": DEFAULT_TOL_NONLINEAR,
    "tol_linear": DEFAULT_TOL_REL,
    "max_steps": DEFAULT_MAX_STEPS,
    "output_dir": "out",
    "emit": {"field_csv": True, "trace_csv": True, "report_json": True},
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration: the library objects a run uses."""

    dimension: int
    params: Params
    vortex_config: VortexConfig
    radii: list[int]
    epsilon: float
    tol_nonlinear: float
    max_steps: int
    tol_linear: float  # the verify suite's linear oracle only; no solve reads it
    output_dir: str
    emit: dict[str, bool]  # the keys of DEFAULTS["emit"]

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "lambda": self.params.lam,
            "a": self.params.a,
            "K": self.params.K,
            "vortices": [
                {"point": list(p), "multiplicity": m} for p, m in self.vortex_config.vortices
            ],
            "radii": list(self.radii),
            "epsilon": self.epsilon,
            "tol_nonlinear": self.tol_nonlinear,
            "tol_linear": self.tol_linear,
            "max_steps": self.max_steps,
            "output_dir": self.output_dir,
            "emit": dict(self.emit),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Check the JSON types and shapes here; the library checks the values."""
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - set(REQUIRED) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config field(s): {sorted(unknown)}")

        def get(key):
            if key in REQUIRED and key not in raw:
                raise ConfigError(f"missing required config field '{key}'")
            return raw.get(key, DEFAULTS.get(key))

        vortices = []
        raw_vortices = get("vortices")
        if not isinstance(raw_vortices, list):
            raise ConfigError("vortices: must be a list of {point, multiplicity} objects")
        for i, entry in enumerate(raw_vortices):
            if not isinstance(entry, dict) or set(entry) != {"point", "multiplicity"}:
                raise ConfigError(
                    f"vortices[{i}]: expected an object with keys 'point' and 'multiplicity'"
                )
            if not isinstance(entry["point"], list):
                raise ConfigError(f"vortices[{i}].point: must be a list of integers")
            vortices.append((entry["point"], entry["multiplicity"]))

        radii = get("radii")
        if not isinstance(radii, list):
            raise ConfigError("radii: must be a list of integers")
        output_dir = get("output_dir")
        if not isinstance(output_dir, str):
            raise ConfigError("output_dir: must be a string")

        emit = get("emit")
        if not isinstance(emit, dict) or set(emit) - set(DEFAULTS["emit"]):
            raise ConfigError(
                "emit: must be an object with keys among field_csv, trace_csv, report_json"
            )
        emit = {k: _as_bool(emit.get(k, on), f"emit.{k}") for k, on in DEFAULTS["emit"].items()}

        try:
            dimension = validate_dimension(get("dimension"))
            params = Params(get("lambda"), get("a"), get("K"))
            vortex_config = VortexConfig(vortices)
            radii = validate_radii(radii, vortex_config)
            validate_ball(dimension, radii[-1])
            epsilon = validate_epsilon(get("epsilon"))
            tol_nonlinear, max_steps = validate_stopping(get("tol_nonlinear"), get("max_steps"))
            tol_linear = validate_tol_rel(get("tol_linear"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for i, (point, _) in enumerate(vortex_config.vortices):
            if len(point) != dimension:
                raise ConfigError(f"vortices[{i}].point: must be a list of {dimension} integers")

        return cls(dimension, params, vortex_config, radii, epsilon, tol_nonlinear,
                   max_steps, tol_linear, output_dir, emit)


def _as_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name}: must be true or false, got {value!r}")
    return value


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return RunConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# artifact writers

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_field_csv(path: Path, f: Field) -> None:
    """Write one row ``"%d,...,%d,%.17g\\n" % (*point, d, value)`` per closure
    point, byte for byte, without formatting each value in Python.

    CSV_BLOCK_ROWS rows at a time are laid out in a byte buffer, each piece
    of a row in a fixed-width slot padded with NUL bytes: the ``%d,`` tokens
    from a table over the field's integers, the ``%.17g`` text from
    floattext.g17_text (whose docstring proves it exact).  A block goes out
    in one write with its NUL bytes deleted.
    """
    dom = f.domain
    low = int(dom.coords.min())  # <= 0: the ball holds the origin
    tokens = [b"%d," % i for i in range(low, int(max(dom.coords.max(), dom.distances.max())) + 1)]
    w = max(map(len, tokens))
    token_text = np.frombuffer(b"".join(t.ljust(w, b"\0") for t in tokens), np.uint8).reshape(-1, w)
    base = (dom.dim + 1) * w
    header = ",".join([f"x{i + 1}" for i in range(dom.dim)] + ["d", "f"]) + "\n"
    with path.open("wb") as fh:
        fh.write(header.encode())
        for start in range(0, dom.n_closure, CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            ints = np.column_stack([dom.coords[block], dom.distances[block]]).astype(np.intp) - low
            text = np.empty((len(ints), base + G17_WIDTH), np.uint8)
            text[:, :base] = np.take(token_text, ints, axis=0).reshape(len(ints), base)
            g17_text(f.values[block], text[:, base:])
            fh.write(text.tobytes().translate(None, b"\0"))


def write_trace_csv(path: Path, trace) -> None:
    lines = ["k,sup_diff,energy,residual"]
    for s in trace:
        lines.append(f"{s.k},{_fmt(s.sup_diff)},{_fmt(s.energy)},{_fmt(s.residual_sup)}")
    path.write_text("\n".join(lines) + "\n")


def write_decay_csv(path: Path, profile, fit) -> None:
    beta = fit.certified_rate
    lines = ["d,shell_max,bound"]
    for d, mx in profile:
        lines.append(f"{d},{_fmt(mx)},{_fmt(fit.c_fit * math.exp(-beta * d))}")
    path.write_text("\n".join(lines) + "\n")


def write_report(path: Path, report: dict) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# invariant checks

def _check(name: str, passed: bool, value: float | None = None,
           threshold: float | None = None, detail: str = "") -> dict:
    entry = {"name": name, "passed": bool(passed)}
    if value is not None:
        entry["value"] = float(value)
    if threshold is not None:
        entry["threshold"] = float(threshold)
    if detail:
        entry["detail"] = detail
    return entry


def _at_most(name: str, value: float, threshold: float, detail: str = "") -> dict:
    """The check value <= threshold."""
    return _check(name, value <= threshold, value, threshold, detail)


def solution_checks(sol: BoundedSolution, cfg: RunConfig) -> list[dict]:
    """The checks a returned solution can fail.  solve_bounded has already
    enforced monotone iterates and energy descent on every step, a root
    clipped to <= 0 and its maximality certificate; _radius_block reports
    the certificate's numbers."""
    f = sol.field
    checks = [_at_most("terminal_residual", sol.residual_sup,
                       RESIDUAL_FACTOR * cfg.tol_nonlinear),
              _at_most("flux_identity", *flux_gap(sol))]
    if sol.problem.vortex.vortices:
        worst = max(f(p) for p, _ in sol.problem.vortex.vortices)
        checks.append(_check("vortex_strictly_negative", worst < VORTEX_VALUE_BOUND,
                             worst, VORTEX_VALUE_BOUND))
    return checks


def _certificate(sol: BoundedSolution) -> dict:
    """The maximality certificate's numbers: max z and max rho."""
    return {"bound": sol.certificate.bound, "rho": sol.certificate.rho}


def _radius_block(sol: BoundedSolution) -> dict:
    f = sol.field
    return {
        "radius": sol.domain.radius,
        "interior_size": sol.domain.n_interior,
        "iterations": sol.iterations,
        "terminal_residual_sup": sol.residual_sup,
        "energy_initial": sol.trace[0].energy,
        "energy_final": sol.energy,
        "certificate": _certificate(sol),
        "norms": {
            "l1": norm(f, 1),
            "l2": norm(f, 2),
            "sup": norm(f, math.inf),
        },
        "vortex_values": {str(list(p)): f(p) for p, _ in sol.problem.vortex.vortices},
    }


# ---------------------------------------------------------------------------
# commands

def cmd_solve(cfg: RunConfig, out_dir: Path, quiet: bool = False) -> int:
    report = _start("solve", cfg, out_dir)
    try:
        sol = _solve(cfg, cfg.radii[-1])
    except (ConvergenceError, SchemeIntegrityError) as exc:
        if cfg.emit["trace_csv"] and exc.trace is not None:
            write_trace_csv(out_dir / "trace.csv", exc.trace)
        return _solver_failure(exc, report, cfg, out_dir, quiet)

    checks = solution_checks(sol, cfg)
    report["radii"] = [_radius_block(sol)]
    if cfg.emit["field_csv"]:
        write_field_csv(out_dir / "field.csv", sol.field)
    if cfg.emit["trace_csv"]:
        write_trace_csv(out_dir / "trace.csv", sol.trace)
    return _epilogue(report, checks, cfg, out_dir, quiet)


def cmd_exhaust(cfg: RunConfig, out_dir: Path, quiet: bool = False) -> int:
    if len(cfg.radii) < 2:
        raise ConfigError("radii: exhaustion needs at least two radii")
    report = _start("exhaust", cfg, out_dir)
    try:
        result = run_exhaustion(
            cfg.dimension, cfg.vortex_config, cfg.params, cfg.radii,
            tol_nonlinear=cfg.tol_nonlinear, max_steps=cfg.max_steps,
        )
    except (ConvergenceError, SchemeIntegrityError) as exc:
        return _solver_failure(exc, report, cfg, out_dir, quiet)

    checks: list[dict] = []
    for sol in result.solutions:
        for c in solution_checks(sol, cfg):
            c["name"] = f"R{sol.domain.radius}.{c['name']}"
            checks.append(c)

    # the largest delta, or the largest of those above their pair's bound
    deltas, bounds = result.pointwise_deltas, result.nested_bounds
    pair = max(range(len(deltas)), key=lambda i: (deltas[i] > bounds[i], deltas[i]))
    checks.append(_at_most("nested_monotonicity", deltas[pair], bounds[pair]))
    l2 = result.l2_norms
    l2_drop = max((a - b) for a, b in zip(l2, l2[1:]))
    checks.append(_at_most("l2_nondecreasing", l2_drop, L2_DROP_TOL))
    l2_gap = abs(l2[-1] - l2[-2])
    checks.append(_at_most("l2_stabilization", l2_gap, L2_STABILIZATION_TOL))

    largest = result.largest
    try:
        fit = decay_fit(largest, cfg.epsilon)
    except AnalysisError as exc:
        fit = None
        checks.append(_check("decay_fit", False, detail=str(exc)))
    summary = lp_summary(result, fit=fit)
    if fit is not None:
        rate_floor = fit.certified_rate - RATE_MARGIN
        checks.append(_check("decay_rate", fit.fitted_rate >= rate_floor,
                             fit.fitted_rate, rate_floor))
        checks.append(_check("decay_certificate_finite", math.isfinite(fit.c_fit),
                             fit.c_fit))
        if summary.l1_tail_bound is not None:
            checks.append(_at_most("l1_tail_within_bound", summary.l1_diffs[-1],
                                   summary.l1_tail_bound))
        report["decay"] = {
            "alpha_theory": fit.alpha_theory,
            "beta_star": decay_rate_sharp(cfg.params.lam * cfg.params.a, cfg.dimension),
            "epsilon": fit.epsilon,
            "window": list(fit.fit_window),
            "fitted_rate": fit.fitted_rate,
            "c_fit": fit.c_fit,
        }
        write_decay_csv(out_dir / "decay.csv", shell_profile(largest), fit)
    checks.append(_check("lp_norms_finite", summary.all_finite))
    report["verification"] = _constants(cfg)

    report["radii"] = [_radius_block(s) for s in result.solutions]
    report["exhaustion"] = {
        "pointwise_deltas": list(result.pointwise_deltas),
        "l1_norms": list(result.l1_norms),
        "l2_norms": list(result.l2_norms),
        "sup_norms": list(result.sup_norms),
    }
    report["lp"] = {
        ("inf" if math.isinf(p) else _fmt(p)): v for p, v in summary.norms.items()
    }

    if cfg.emit["field_csv"]:
        write_field_csv(out_dir / f"field_R{largest.domain.radius}.csv", largest.field)
    return _epilogue(report, checks, cfg, out_dir, quiet)


def cmd_verify(cfg: RunConfig, out_dir: Path, quiet: bool = False) -> int:
    """Run the desk-scale property suite and report each check with margin.

    One bounded solve, on the smallest configured radius, feeds the solution
    checks, the symmetry check and the Newton maximality oracle; its
    certificate's numbers go into the verification block.
    """
    report = _start("verify", cfg, out_dir)
    report["verification"] = _constants(cfg)
    stream = random.Random(_SEED)
    checks = [_linear_oracle_check(cfg, stream)]
    try:
        sol = _solve(cfg, cfg.radii[0])
    except (SchemeIntegrityError, ConvergenceError) as exc:
        checks.append(_check("bounded_solve", False, detail=f"{_failure_kind(exc)}: {exc}"))
    else:
        checks += [*solution_checks(sol, cfg), _symmetry_check(sol), _maximality_check(sol, stream)]
        report["verification"]["certificate"] = _certificate(sol)
    return _epilogue(report, checks, cfg, out_dir, quiet)


def _solve(cfg: RunConfig, radius: int) -> BoundedSolution:
    """The configured bounded solve on the ball of the given radius."""
    return solve_bounded(
        Problem(build_domain(cfg.dimension, radius), cfg.vortex_config, cfg.params),
        tol_nonlinear=cfg.tol_nonlinear,
        max_steps=cfg.max_steps,
    )


def _constants(cfg: RunConfig) -> dict:
    """The report's verification block: the closed-form barrier and
    coercivity constants, which are positive by their proofs."""
    barrier = barrier_check(cfg.dimension, cfg.params, cfg.epsilon)
    return {
        "coercivity_c": coercivity_check(cfg.params.a),
        "barrier_min_margin": barrier.min_margin,
        "barrier_c1": barrier.c1,
    }


def _uniform(stream: random.Random, low: float, high: float, size: int) -> np.ndarray:
    """size floats low + (high - low) * stream.random(), uniform in [low, high).

    random() < 1, so the sentinel 1.0 never ends the iterator; fromiter takes
    size values from it without a Python loop or list.
    """
    return low + (high - low) * np.fromiter(iter(stream.random, 1.0), np.float64, size)


def _linear_oracle_check(cfg: RunConfig, stream: random.Random) -> dict:
    """linear_solve at tol_linear against dense LU on 20 systems whose
    right-hand sides are drawn uniform in [-1, 1) from stream.  Each radius
    (at most 7) is capped at the largest whose interior fits in
    DENSE_MAX_UNKNOWNS, which binds from dimension 9 on (B_4 in Z^9: 5641)."""
    fits = max(r for r in range(8) if ball_size(cfg.dimension, r) <= DENSE_MAX_UNKNOWNS)
    radii = [min(2 + i % 3 if cfg.dimension >= 3 else 3 + i % 5, fits) for i in range(20)]
    domains = {r: build_domain(cfg.dimension, r) for r in sorted(set(radii))}
    rhs = [_uniform(stream, -1.0, 1.0, domains[r].n_interior) for r in radii]
    worst = 0.0
    for radius, v in zip(radii, rhs):
        system = LinearSystem(domains[radius], cfg.params.K, v)
        try:
            approx = linear_solve(system, cfg.tol_linear).interior_values
        except ConvergenceError as exc:
            return _check("linear_oracle", False, detail=f"iterative solve failed: {exc}")
        exact = dense_solve(system).interior_values
        worst = max(worst, float(np.linalg.norm(approx - exact) / np.linalg.norm(exact)))
    return _at_most("linear_oracle", worst, ORACLE_REL_TOL)


def _symmetry_check(sol: BoundedSolution) -> dict:
    """symmetry_deviation of sol's field against 2 * its certificate's bound.

    Proof.  With one vortex at the origin the ball, the source and the
    equation are invariant under every signed coordinate permutation sigma,
    so f_max(sigma .) is a solution as well, and as the maximal solution is
    unique, it is f_max.  Hence |f(sigma x) - f(x)| <= |f(sigma x) -
    f_max(sigma x)| + |f_max(x) - f(x)| <= z(sigma x) + z(x) <= 2 bound.
    The computed difference rounds monotonically, so it keeps the bound.
    """
    vc = sol.problem.vortex
    if len(vc) != 1 or manhattan_norm(vc.vortices[0][0]) != 0:
        return _check("symmetry_equivariance", True,
                      detail="skipped: needs a single vortex at the origin")
    return _at_most("symmetry_equivariance", symmetry_deviation(sol.field),
                    2.0 * sol.certificate.bound)


def symmetry_deviation(f: Field) -> float:
    """Max |f(sigma x) - f(x)| over signed coordinate permutations sigma.

    Generators suffice: a deviation bound over adjacent transpositions and
    single-axis sign flips extends to the whole group only loosely, so the
    canonical representative (sorted absolute coordinates) is compared
    instead, which covers every group element at once.  A closure point has
    at most R + 1 nonzero coordinates, so only the last m = min(n, R + 1)
    sorted ones are packed into its key, below (R + 2)^m: under 2^50 for
    every ball that validate_ball accepts, whose int32 closure limit leaves
    R <= 3 from n = 96 on.
    """
    dom = f.domain
    m = min(dom.dim, dom.radius + 1)
    canon = np.sort(np.abs(dom.coords.astype(np.intp)), axis=1)[:, -m:]
    keys = np.ravel_multi_index(tuple(canon.T), (dom.radius + 2,) * m)
    _, first, orbit = np.unique(keys, return_index=True, return_inverse=True)
    return float(np.max(np.abs(f.values - f.values[first][orbit])))


def _maximality_check(sol: BoundedSolution, stream: random.Random) -> dict:
    """Newton from 10 starts drawn uniform in [-3, 0) from stream, each
    against sol's problem: no root may lie above sol."""
    dom = sol.domain
    roots = []
    for _ in range(10):
        x = _uniform(stream, -3.0, 0.0, dom.n_interior)
        try:
            roots.append(newton_solve(Field.from_interior(dom, x), sol.problem))
        except ConvergenceError:
            pass
    if not roots:
        return _check("maximality_newton", False, detail="no Newton start converged")
    worst = max(float(np.max(root.values - sol.field.values)) for root in roots)
    return _at_most("maximality_newton", worst, MAXIMALITY_TOL,
                    detail=f"{len(roots)}/10 starts converged")


def _start(command: str, cfg: RunConfig, out_dir: Path) -> dict:
    """Create the output directory and return the report's header."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    return {"command": command, "config": cfg.to_dict(), "version": __version__}


def _epilogue(report: dict, checks: list[dict], cfg: RunConfig, out_dir: Path,
              quiet: bool) -> int:
    """Record the checks, write the report, print one line per solved radius
    and the verdict; return the exit code."""
    passed = sum(1 for c in checks if c["passed"])
    report["checks"] = checks
    report["all_checks_passed"] = ok = passed == len(checks)
    if cfg.emit["report_json"]:
        write_report(out_dir / "report.json", report)
    for block in report.get("radii", []):
        _say(quiet, f"radius {block['radius']}: {block['iterations']} iterations, "
                    f"residual {block['terminal_residual_sup']:.3e}")
    _say(quiet, f"checks: {passed}/{len(checks)} passed [{'ok' if ok else 'FAILED'}]")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _solver_failure(exc: ConvergenceError | SchemeIntegrityError, report: dict,
                    cfg: RunConfig, out_dir: Path, quiet: bool) -> int:
    """Record a failed solve in the report, with any completed radii; return the exit code.

    A convergence failure exits 3; a broken scheme invariant counts as a
    failed check and exits 1.
    """
    kind = _failure_kind(exc)
    integrity = kind == "scheme_integrity"
    report["error"] = {"type": kind, "message": str(exc)}
    if integrity:
        report["all_checks_passed"] = False
    elif exc.partial is not None:
        report["radii"] = [_radius_block(s) for s in exc.partial.solutions]
        if cfg.emit["field_csv"] and exc.partial.solutions:
            last = exc.partial.largest
            write_field_csv(out_dir / f"field_R{last.domain.radius}.csv", last.field)
    if cfg.emit["report_json"]:
        write_report(out_dir / "report.json", report)
    _say(quiet, f"{kind.replace('_', ' ')} failure: {exc}")
    return EXIT_CHECK_FAILED if integrity else EXIT_NO_CONVERGENCE


def _failure_kind(exc: ConvergenceError | SchemeIntegrityError) -> str:
    return "scheme_integrity" if isinstance(exc, SchemeIntegrityError) else "convergence"


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cslattice",
        description="Maximal topological solutions of generalized Chern-Simons "
                    "vortex equations on lattice graphs Z^n.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "solve on the largest configured radius and dump field/trace/report"),
        ("exhaust", "solve on the whole radius schedule, fit the decay, write the report"),
        ("verify", "run the property-check suite at desk scale"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the JSON run configuration")
        p.add_argument("--output-dir", default=None,
                       help="override the config's output directory")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = Path(args.output_dir if args.output_dir is not None else cfg.output_dir)
        if args.command == "solve":
            return cmd_solve(cfg, out_dir, quiet=args.quiet)
        if args.command == "exhaust":
            return cmd_exhaust(cfg, out_dir, quiet=args.quiet)
        return cmd_verify(cfg, out_dir, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
