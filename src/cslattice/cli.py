"""Command-line front end: solve, exhaust, and verify runs from a JSON config.

Exit codes: 0 success, 1 invariant-check failure, 2 configuration error,
3 convergence failure.  All artifacts (CSV fields and traces, JSON report)
are deterministic functions of the configuration: rerunning a config
produces byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .errors import AnalysisError, ConfigError, ConvergenceError, SchemeIntegrityError
from .fields import SUM_BY_PARTS_COEFF, Field, norm, sum_by_parts_defect
from .lattice import (
    Params,
    VortexConfig,
    assemble_source,
    build_domain,
    manhattan_norm,
    validate_dimension,
)
from .linear import (
    DEFAULT_TOL_REL,
    MAX_PRINCIPLE_TOL,
    MINIMIZER_SLACK,
    ORACLE_REL_TOL,
    LinearSystem,
    dense_solve,
    linear_energy_eval,
    linear_solve,
    validate_tol_rel,
)
from .exhaustion import (
    BARRIER_MARGIN_FLOOR,
    COERCIVITY_FLOOR,
    L2_DROP_TOL,
    L2_STABILIZATION_TOL,
    NESTED_TOL,
    RATE_MARGIN,
    barrier_check,
    coercivity_check,
    coercivity_default_grid,
    decay_fit,
    lp_summary,
    run_exhaustion,
    shell_profile,
    validate_epsilon,
    validate_radii,
)
from .scheme import (
    DEFAULT_MAX_STEPS,
    DEFAULT_TOL_NONLINEAR,
    ENERGY_SLACK,
    FIELD_SIGN_TOL,
    FLUX_TOL,
    MAXIMALITY_TOL,
    MONOTONE_TOL,
    RESIDUAL_FACTOR,
    SYMMETRY_TOL,
    VORTEX_VALUE_BOUND,
    BoundedSolution,
    boundary_flux,
    newton_solve,
    nonlinearity,
    solve_bounded,
    validate_stopping,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

_SEED = 20260809

# write_field_csv formats this many rows per write, so a large closure's
# text never sits in memory whole.
CSV_BLOCK_ROWS = 4096

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
    tol_linear: float  # the verify suite's linear checks only; no solve reads it
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
    """One row per closure point, formatted CSV_BLOCK_ROWS rows at a time."""
    dom = f.domain
    header = ",".join([f"x{i + 1}" for i in range(dom.dim)] + ["d", "f"])
    row = ",".join(["%d"] * (dom.dim + 1) + ["%.17g"]) + "\n"  # _fmt's format for f
    with path.open("w") as fh:
        fh.write(header + "\n")
        for start in range(0, dom.n_closure, CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            columns = [*dom.coords[block].T.tolist(), dom.distances[block].tolist(),
                       f.values[block].tolist()]
            fh.write("".join(map(row.__mod__, zip(*columns))))


def write_trace_csv(path: Path, trace) -> None:
    lines = ["k,sup_diff,energy,residual"]
    for s in trace.steps:
        lines.append(f"{s.k},{_fmt(s.sup_diff)},{_fmt(s.energy)},{_fmt(s.residual_sup)}")
    path.write_text("\n".join(lines) + "\n")


def write_decay_csv(path: Path, profile, fit) -> None:
    beta = fit.certified_rate
    lines = ["d,shell_max,bound"]
    for d, mx, _ in profile:
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
    f = sol.field
    # Unused result, kept until perfbench/spans.py stops timing this call.
    assemble_source(sol.domain, sol.vortex)
    checks = [
        _at_most("monotone_iterates", sol.trace.max_monotone_violation, MONOTONE_TOL),
        _at_most("energy_nonincreasing", sol.trace.max_energy_increase, ENERGY_SLACK),
        _at_most("energy_nonpositive", max(s.energy for s in sol.trace.steps), ENERGY_SLACK),
        _at_most("field_nonpositive", float(np.max(f.values)), FIELD_SIGN_TOL),
        _at_most("terminal_residual", sol.residual_sup, RESIDUAL_FACTOR * cfg.tol_nonlinear),
        _certificate_check(sol, cfg.tol_nonlinear),
    ]
    flux_gap = abs(
        float(np.sum(nonlinearity(f.interior_values, sol.params)))
        + sol.vortex.total_flux
        - boundary_flux(f)
    )
    checks.append(_at_most("flux_identity", flux_gap, FLUX_TOL))
    if sol.vortex.vortices:
        worst = max(f(p) for p, _ in sol.vortex.vortices)
        checks.append(_check("vortex_strictly_negative", worst < VORTEX_VALUE_BOUND,
                             worst, VORTEX_VALUE_BOUND))
    return checks


def _certificate_check(sol: BoundedSolution, tol_nonlinear: float) -> dict:
    cert = sol.certificate
    return _at_most("maximality_certificate", cert.bound, tol_nonlinear,
                    detail=f"max rho = {cert.rho:.6g}, "
                           f"Newton root certified after monotone step {sol.iterations}")


def _radius_block(sol: BoundedSolution) -> dict:
    f = sol.field
    return {
        "radius": sol.domain.radius,
        "interior_size": sol.domain.n_interior,
        "iterations": sol.iterations,
        "terminal_residual_sup": sol.residual_sup,
        "energy_initial": sol.trace.steps[0].energy,
        "energy_final": sol.energy,
        "norms": {
            "l1": norm(f, 1),
            "l2": norm(f, 2),
            "sup": norm(f, math.inf),
        },
        "vortex_values": {str(list(p)): f(p) for p, _ in sol.vortex.vortices},
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

    worst_delta = max(result.pointwise_deltas)
    checks.append(_at_most("nested_monotonicity", worst_delta, NESTED_TOL))
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
    summary = lp_summary(result, [1, 2, 4, math.inf], fit=fit)
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
            "epsilon": fit.epsilon,
            "window": list(fit.fit_window),
            "fitted_rate": fit.fitted_rate,
            "c_fit": fit.c_fit,
        }
        write_decay_csv(out_dir / "decay.csv", shell_profile(largest), fit)
    checks.append(_check("lp_norms_finite", summary.all_finite))
    barrier, coercivity, report["verification"] = _constant_checks(cfg)
    checks += [barrier, coercivity]

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
    """Run the desk-scale property suite and report each check with margin."""
    report = _start("verify", cfg, out_dir)
    rng = np.random.default_rng(_SEED)
    checks = [
        _sum_by_parts_check(cfg, rng),
        _linear_oracle_check(cfg, rng),
        _minimizer_check(cfg, rng),
        _max_principle_check(cfg, rng),
        *_scheme_checks(cfg),
        _maximality_check(cfg, rng),
    ]
    barrier, coercivity, report["verification"] = _constant_checks(cfg)
    return _epilogue(report, checks + [coercivity, barrier], cfg, out_dir, quiet)


def _solve(cfg: RunConfig, radius: int) -> BoundedSolution:
    """The configured bounded solve on the ball of the given radius."""
    return solve_bounded(
        build_domain(cfg.dimension, radius), cfg.vortex_config, cfg.params,
        tol_nonlinear=cfg.tol_nonlinear,
        max_steps=cfg.max_steps,
    )


def _constant_checks(cfg: RunConfig) -> tuple[dict, dict, dict]:
    """The barrier and coercivity checks, and the report's verification block."""
    barrier = barrier_check(cfg.dimension, cfg.params, cfg.epsilon)
    coercivity = coercivity_check(cfg.params.a, coercivity_default_grid())
    verification = {
        "coercivity_c_est": coercivity.c_est,
        "barrier_min_margin": barrier.min_margin,
        "barrier_c1": barrier.c1,
    }
    return (
        _check("barrier_inequality", barrier.all_hold, barrier.min_margin, BARRIER_MARGIN_FLOOR),
        _check("coercivity_positive", coercivity.all_hold, coercivity.c_est, COERCIVITY_FLOOR),
        verification,
    )


def _sum_by_parts_check(cfg: RunConfig, rng) -> dict:
    worst = 0.0
    for radius in (2, 3, 4):
        dom = build_domain(cfg.dimension, radius)
        for _ in range(5):
            f = Field(dom, rng.standard_normal(dom.n_closure))
            g = Field.from_interior(dom, rng.standard_normal(dom.n_interior))
            scale = 1.0 + norm(f, math.inf, "closure") * norm(g, math.inf, "closure") * dom.n_closure
            worst = max(worst, abs(sum_by_parts_defect(f, g)) / scale)
    return _at_most("sum_by_parts", worst, SUM_BY_PARTS_COEFF)


def _linear_oracle_check(cfg: RunConfig, rng) -> dict:
    radii = [2 + i % 3 if cfg.dimension >= 3 else 3 + i % 5 for i in range(20)]
    domains = {r: build_domain(cfg.dimension, r) for r in sorted(set(radii))}
    rhs = [rng.standard_normal(domains[r].n_interior) for r in radii]
    worst = 0.0
    for radius, dom in domains.items():
        group = np.array([v for r, v in zip(radii, rhs) if r == radius])
        block = LinearSystem(dom, cfg.params.K, group)
        for approx, exact in zip(linear_solve(block, cfg.tol_linear), dense_solve(block)):
            if isinstance(approx, ConvergenceError):
                return _check("linear_oracle", False, detail=f"iterative solve failed: {approx}")
            gap = approx.interior_values - exact.interior_values
            worst = max(worst, float(np.linalg.norm(gap) / np.linalg.norm(exact.interior_values)))
    return _at_most("linear_oracle", worst, ORACLE_REL_TOL)


def _minimizer_check(cfg: RunConfig, rng) -> dict:
    dom = build_domain(cfg.dimension, 4)
    v = rng.standard_normal(dom.n_interior)
    sys_ = LinearSystem(dom, cfg.params.K, v)
    try:
        u = linear_solve(sys_, cfg.tol_linear)
    except ConvergenceError as exc:
        return _check("linear_minimizer", False, detail=f"solve failed: {exc}")
    base = linear_energy_eval(sys_, u.interior_values)
    phi = rng.standard_normal((100, dom.n_interior))
    for row in phi:
        row /= np.linalg.norm(row)
    worst = math.inf
    # blocks of 25 trials: one block of all 400 raised the peak RSS by 5 MB
    for t, rows in product((1e-2, -1e-2, 1e-4, -1e-4), np.split(phi, 4)):
        trials = u.interior_values + t * rows
        worst = min(worst, float(np.min(linear_energy_eval(sys_, trials))) - base)
    return _check("linear_minimizer", worst >= MINIMIZER_SLACK, worst, MINIMIZER_SLACK)


def _max_principle_check(cfg: RunConfig, rng) -> dict:
    dom = build_domain(cfg.dimension, 3)
    v = np.abs(rng.standard_normal((20, dom.n_interior)))
    solutions = linear_solve(LinearSystem(dom, cfg.params.K, v), cfg.tol_linear)
    for u in solutions:
        if isinstance(u, ConvergenceError):
            return _check("linear_max_principle", False, detail=f"solve failed: {u}")
    worst = max(float(np.max(u.values)) for u in solutions)
    return _at_most("linear_max_principle", worst, MAX_PRINCIPLE_TOL)


def _scheme_checks(cfg: RunConfig) -> list[dict]:
    try:
        sol = _solve(cfg, cfg.radii[0])
    except (SchemeIntegrityError, ConvergenceError) as exc:
        aborted = isinstance(exc, SchemeIntegrityError)
        reason = f"{'solve aborted' if aborted else 'no convergence'}: {exc}"
        return [
            _check("monotone_iterates", False, detail=reason),
            _check("energy_nonincreasing", False, detail=reason),
            _check("flux_identity", False, detail="not evaluated (solve failed)"),
            _check("maximality_certificate", False, detail="not evaluated (solve failed)"),
            _check("symmetry_equivariance", False, detail="not evaluated (solve failed)"),
        ]
    checks = solution_checks(sol, cfg)
    checks.append(_symmetry_check(sol))
    return checks


def _symmetry_check(sol: BoundedSolution) -> dict:
    vc = sol.vortex
    if len(vc) != 1 or manhattan_norm(vc.vortices[0][0]) != 0:
        return _check("symmetry_equivariance", True,
                      detail="skipped: needs a single vortex at the origin")
    dev = symmetry_deviation(sol.field)
    return _at_most("symmetry_equivariance", dev, SYMMETRY_TOL)


def symmetry_deviation(f: Field) -> float:
    """Max |f(sigma x) - f(x)| over signed coordinate permutations sigma.

    Generators suffice: a deviation bound over adjacent transpositions and
    single-axis sign flips extends to the whole group only loosely, so the
    canonical representative (sorted absolute coordinates) is compared
    instead, which covers every group element at once.
    """
    dom = f.domain
    canon = np.sort(np.abs(dom.coords), axis=1)
    keys = np.ravel_multi_index(tuple(canon.T), (dom.radius + 2,) * dom.dim)
    _, first, orbit = np.unique(keys, return_index=True, return_inverse=True)
    return float(np.max(np.abs(f.values - f.values[first][orbit])))


def _maximality_check(cfg: RunConfig, rng) -> dict:
    radius = max(8, max((manhattan_norm(p) for p, _ in cfg.vortex_config.vortices), default=0))
    try:
        reference = _solve(cfg, radius)
    except (ConvergenceError, SchemeIntegrityError) as exc:
        return _check("maximality_newton", False, detail=f"reference solve failed: {exc}")
    dom = reference.domain
    starts = [Field.from_interior(dom, x) for x in -3.0 * rng.random((10, dom.n_interior))]
    roots = [root for root in newton_solve(dom, cfg.vortex_config, cfg.params, starts)
             if isinstance(root, Field)]
    if not roots:
        return _check("maximality_newton", False, detail="no Newton start converged")
    worst = max(float(np.max(root.values - reference.field.values)) for root in roots)
    return _at_most("maximality_newton", worst, MAXIMALITY_TOL,
                    detail=f"{len(roots)}/10 starts converged")


def _start(command: str, cfg: RunConfig, out_dir: Path) -> dict:
    """Create the output directory and return the report's header."""
    out_dir.mkdir(parents=True, exist_ok=True)
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
    integrity = isinstance(exc, SchemeIntegrityError)
    kind = "scheme_integrity" if integrity else "convergence"
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
