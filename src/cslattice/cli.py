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
    MAX_PRINCIPLE_TOL,
    MINIMIZER_SLACK,
    ORACLE_REL_TOL,
    LinearSolveOptions,
    LinearSystem,
    dense_solve,
    linear_energy_eval,
    linear_solve,
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


@dataclass
class RunConfig:
    """Validated run configuration; mirrors the solver parameter objects."""

    dimension: int
    lam: float
    a: float
    K: float
    vortices: list[tuple[tuple[int, ...], int]]
    radii: list[int]
    epsilon: float = 0.1
    tol_nonlinear: float = 1e-10
    tol_linear: float = 1e-12
    max_steps: int = 500
    output_dir: str = "out"
    emit_field_csv: bool = True
    emit_trace_csv: bool = True
    emit_report_json: bool = True

    @property
    def params(self) -> Params:
        return Params(lam=self.lam, a=self.a, K=self.K)

    @property
    def vortex_config(self) -> VortexConfig:
        return VortexConfig(self.vortices)

    @property
    def linear_opts(self) -> LinearSolveOptions:
        return LinearSolveOptions(tol_rel=self.tol_linear)

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "lambda": self.lam,
            "a": self.a,
            "K": self.K,
            "vortices": [
                {"point": list(p), "multiplicity": m} for p, m in self.vortices
            ],
            "radii": list(self.radii),
            "epsilon": self.epsilon,
            "tol_nonlinear": self.tol_nonlinear,
            "tol_linear": self.tol_linear,
            "max_steps": self.max_steps,
            "output_dir": self.output_dir,
            "emit": {
                "field_csv": self.emit_field_csv,
                "trace_csv": self.emit_trace_csv,
                "report_json": self.emit_report_json,
            },
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Check the JSON types and shapes here; the library checks the values."""
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        known = {
            "dimension", "lambda", "a", "K", "vortices", "radii", "epsilon",
            "tol_nonlinear", "tol_linear", "max_steps", "output_dir", "emit",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config field(s): {sorted(unknown)}")

        def need(key):
            if key not in raw:
                raise ConfigError(f"missing required config field '{key}'")
            return raw[key]

        dimension = _as_int(need("dimension"), "dimension")
        lam = _as_float(need("lambda"), "lambda")
        a = _as_float(need("a"), "a")
        K = None if raw.get("K") is None else _as_float(raw["K"], "K")

        vortices = []
        raw_vortices = need("vortices")
        if not isinstance(raw_vortices, list):
            raise ConfigError("vortices: must be a list of {point, multiplicity} objects")
        for i, entry in enumerate(raw_vortices):
            if not isinstance(entry, dict) or set(entry) != {"point", "multiplicity"}:
                raise ConfigError(
                    f"vortices[{i}]: expected an object with keys 'point' and 'multiplicity'"
                )
            point = entry["point"]
            if not isinstance(point, list) or len(point) != dimension:
                raise ConfigError(
                    f"vortices[{i}].point: must be a list of {dimension} integers"
                )
            p = tuple(_as_int(c, f"vortices[{i}].point[{j}]") for j, c in enumerate(point))
            m = _as_int(entry["multiplicity"], f"vortices[{i}].multiplicity")
            vortices.append((p, m))

        radii = raw.get("radii", [10, 20, 30, 40])
        if not isinstance(radii, list):
            raise ConfigError("radii: must be a list of integers")
        radii = [_as_int(r, f"radii[{i}]") for i, r in enumerate(radii)]
        epsilon = _as_float(raw.get("epsilon", 0.1), "epsilon")
        tol_nonlinear = _as_float(raw.get("tol_nonlinear", 1e-10), "tol_nonlinear")
        tol_linear = _as_float(raw.get("tol_linear", 1e-12), "tol_linear")
        max_steps = _as_int(raw.get("max_steps", 500), "max_steps")
        output_dir = raw.get("output_dir", "out")
        if not isinstance(output_dir, str):
            raise ConfigError("output_dir: must be a string")

        emit = raw.get("emit", {})
        if not isinstance(emit, dict) or set(emit) - {"field_csv", "trace_csv", "report_json"}:
            raise ConfigError(
                "emit: must be an object with keys among field_csv, trace_csv, report_json"
            )
        flags = {k: _as_bool(emit.get(k, True), f"emit.{k}")
                 for k in ("field_csv", "trace_csv", "report_json")}

        try:
            validate_dimension(dimension)
            params = Params(lam, a, K)
            validate_radii(radii, VortexConfig(vortices))
            validate_epsilon(epsilon)
            validate_stopping(tol_nonlinear, max_steps)
            LinearSolveOptions(tol_rel=tol_linear)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

        return cls(
            dimension=dimension,
            lam=lam,
            a=a,
            K=params.K,
            vortices=vortices,
            radii=radii,
            epsilon=epsilon,
            tol_nonlinear=tol_nonlinear,
            tol_linear=tol_linear,
            max_steps=max_steps,
            output_dir=output_dir,
            emit_field_csv=flags["field_csv"],
            emit_trace_csv=flags["trace_csv"],
            emit_report_json=flags["report_json"],
        )


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name}: must be an integer, got {value!r}")
    return value


def _as_float(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name}: must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{name}: must be a finite number, got {value!r}")
    return number


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
    dom = f.domain
    header = ",".join([f"x{i + 1}" for i in range(dom.dim)] + ["d", "f"])
    lines = [header]
    for p, d, v in zip(dom.points, dom.distances, f.values):
        lines.append(",".join([str(c) for c in p] + [str(int(d)), _fmt(v)]))
    path.write_text("\n".join(lines) + "\n")


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


def solution_checks(sol: BoundedSolution, cfg: RunConfig) -> list[dict]:
    f = sol.field
    # Unused result, kept until perfbench/spans.py stops timing this call.
    assemble_source(sol.domain, sol.vortex)
    checks = [
        _check("monotone_iterates", sol.trace.max_monotone_violation <= MONOTONE_TOL,
               sol.trace.max_monotone_violation, MONOTONE_TOL),
        _check("energy_nonincreasing", sol.trace.max_energy_increase <= ENERGY_SLACK,
               sol.trace.max_energy_increase, ENERGY_SLACK),
        _check("energy_nonpositive",
               max(s.energy for s in sol.trace.steps) <= ENERGY_SLACK,
               max(s.energy for s in sol.trace.steps), ENERGY_SLACK),
        _check("field_nonpositive", float(np.max(f.values)) <= FIELD_SIGN_TOL,
               float(np.max(f.values)), FIELD_SIGN_TOL),
        _check("terminal_residual", sol.residual_sup <= RESIDUAL_FACTOR * cfg.tol_nonlinear,
               sol.residual_sup, RESIDUAL_FACTOR * cfg.tol_nonlinear),
    ]
    flux_gap = abs(
        float(np.sum(nonlinearity(f.interior_values, sol.params)))
        + sol.vortex.total_flux
        - boundary_flux(f)
    )
    checks.append(_check("flux_identity", flux_gap <= FLUX_TOL, flux_gap, FLUX_TOL))
    if sol.vortex.vortices:
        worst = max(f(p) for p, _ in sol.vortex.vortices)
        checks.append(_check("vortex_strictly_negative", worst < VORTEX_VALUE_BOUND,
                             worst, VORTEX_VALUE_BOUND))
    return checks


def _radius_block(sol: BoundedSolution) -> dict:
    f = sol.field
    return {
        "radius": sol.domain.radius,
        "interior_size": sol.domain.n_interior,
        "iterations": sol.iterations,
        "terminal_residual_sup": sol.residual_sup,
        "energy_initial": sol.trace.steps[0].energy,
        "energy_final": sol.trace.steps[-1].energy,
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
    out_dir.mkdir(parents=True, exist_ok=True)
    report: dict = {"command": "solve", "config": cfg.to_dict(), "version": __version__}
    try:
        sol = _solve(cfg, cfg.radii[-1])
    except (ConvergenceError, SchemeIntegrityError) as exc:
        if cfg.emit_trace_csv and exc.trace is not None:
            write_trace_csv(out_dir / "trace.csv", exc.trace)
        return _solver_failure(exc, report, cfg, out_dir, quiet)

    checks = solution_checks(sol, cfg)
    report["radii"] = [_radius_block(sol)]
    report["checks"] = checks
    report["all_checks_passed"] = all(c["passed"] for c in checks)

    if cfg.emit_field_csv:
        write_field_csv(out_dir / "field.csv", sol.field)
    if cfg.emit_trace_csv:
        write_trace_csv(out_dir / "trace.csv", sol.trace)
    if cfg.emit_report_json:
        write_report(out_dir / "report.json", report)
    _say(quiet, f"radius {sol.domain.radius}: {sol.iterations} iterations, "
                f"residual {sol.residual_sup:.3e}")
    _say(quiet, _verdict(checks))
    return EXIT_OK if report["all_checks_passed"] else EXIT_CHECK_FAILED


def cmd_exhaust(cfg: RunConfig, out_dir: Path, quiet: bool = False) -> int:
    if len(cfg.radii) < 2:
        raise ConfigError("radii: exhaustion needs at least two radii")
    out_dir.mkdir(parents=True, exist_ok=True)
    report: dict = {"command": "exhaust", "config": cfg.to_dict(), "version": __version__}
    try:
        result = run_exhaustion(
            cfg.dimension, cfg.vortex_config, cfg.params, cfg.radii,
            tol=cfg.tol_nonlinear, max_steps=cfg.max_steps,
            linear_opts=cfg.linear_opts,
        )
    except (ConvergenceError, SchemeIntegrityError) as exc:
        return _solver_failure(exc, report, cfg, out_dir, quiet)

    checks: list[dict] = []
    for sol in result.solutions:
        for c in solution_checks(sol, cfg):
            c["name"] = f"R{sol.domain.radius}.{c['name']}"
            checks.append(c)

    worst_delta = max(result.pointwise_deltas)
    checks.append(_check("nested_monotonicity", worst_delta <= NESTED_TOL,
                         worst_delta, NESTED_TOL))
    l2 = result.l2_norms
    l2_drop = max((a - b) for a, b in zip(l2, l2[1:]))
    checks.append(_check("l2_nondecreasing", l2_drop <= L2_DROP_TOL, l2_drop, L2_DROP_TOL))
    l2_gap = abs(l2[-1] - l2[-2])
    checks.append(_check("l2_stabilization", l2_gap <= L2_STABILIZATION_TOL,
                         l2_gap, L2_STABILIZATION_TOL))

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
            checks.append(_check("l1_tail_within_bound",
                                 summary.l1_diffs[-1] <= summary.l1_tail_bound,
                                 summary.l1_diffs[-1], summary.l1_tail_bound))
        report["decay"] = {
            "alpha_theory": fit.alpha_theory,
            "epsilon": fit.epsilon,
            "window": list(fit.fit_window),
            "fitted_rate": fit.fitted_rate,
            "c_fit": fit.c_fit,
        }
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
    report["checks"] = checks
    report["all_checks_passed"] = all(c["passed"] for c in checks)

    if cfg.emit_field_csv:
        for s in result.solutions:
            write_field_csv(out_dir / f"field_R{s.domain.radius}.csv", s.field)
    if fit is not None:
        write_decay_csv(out_dir / "decay.csv", shell_profile(largest), fit)
    if cfg.emit_report_json:
        write_report(out_dir / "report.json", report)
    for s in result.solutions:
        _say(quiet, f"radius {s.domain.radius}: {s.iterations} iterations, "
                    f"residual {s.residual_sup:.3e}")
    _say(quiet, _verdict(checks))
    return EXIT_OK if report["all_checks_passed"] else EXIT_CHECK_FAILED


def cmd_verify(cfg: RunConfig, out_dir: Path, quiet: bool = False) -> int:
    """Run the desk-scale property suite and report each check with margin."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(_SEED)
    checks: list[dict] = []

    checks.append(_sum_by_parts_check(cfg, rng))
    checks.append(_linear_oracle_check(cfg, rng))
    checks.append(_minimizer_check(cfg, rng))
    checks.append(_max_principle_check(cfg, rng))
    checks.extend(_scheme_checks(cfg))
    checks.append(_maximality_check(cfg, rng))
    barrier, coercivity, verification = _constant_checks(cfg)
    checks += [coercivity, barrier]

    report = {
        "command": "verify",
        "config": cfg.to_dict(),
        "version": __version__,
        "verification": verification,
        "checks": checks,
        "all_checks_passed": all(c["passed"] for c in checks),
    }
    if cfg.emit_report_json:
        write_report(out_dir / "report.json", report)
    _say(quiet, _verdict(checks))
    return EXIT_OK if report["all_checks_passed"] else EXIT_CHECK_FAILED


def _solve(cfg: RunConfig, radius: int) -> BoundedSolution:
    """The configured bounded solve on the ball of the given radius."""
    return solve_bounded(
        build_domain(cfg.dimension, radius), cfg.vortex_config, cfg.params,
        tol_nonlinear=cfg.tol_nonlinear,
        max_steps=cfg.max_steps,
        linear_opts=cfg.linear_opts,
    )


def _constant_checks(cfg: RunConfig) -> tuple[dict, dict, dict]:
    """The barrier and coercivity checks, and the report's verification block."""
    barrier = barrier_check(cfg.dimension, cfg.params, cfg.epsilon)
    coercivity = coercivity_check(cfg.a, coercivity_default_grid())
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
    return _check("sum_by_parts", worst <= SUM_BY_PARTS_COEFF, worst, SUM_BY_PARTS_COEFF)


def _linear_oracle_check(cfg: RunConfig, rng) -> dict:
    worst = 0.0
    detail = ""
    for i in range(20):
        radius = 2 + i % 3 if cfg.dimension >= 3 else 3 + i % 5
        dom = build_domain(cfg.dimension, radius)
        sys_ = LinearSystem(dom, cfg.K, rng.standard_normal(dom.n_interior))
        exact = dense_solve(sys_).interior_values
        try:
            approx = linear_solve(sys_, cfg.linear_opts).interior_values
        except ConvergenceError as exc:
            return _check("linear_oracle", False, detail=f"iterative solve failed: {exc}")
        rel = float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
        worst = max(worst, rel)
    return _check("linear_oracle", worst <= ORACLE_REL_TOL, worst, ORACLE_REL_TOL, detail)


def _minimizer_check(cfg: RunConfig, rng) -> dict:
    dom = build_domain(cfg.dimension, 4)
    v = rng.standard_normal(dom.n_interior)
    sys_ = LinearSystem(dom, cfg.K, v)
    try:
        u = linear_solve(sys_, cfg.linear_opts)
    except ConvergenceError as exc:
        return _check("linear_minimizer", False, detail=f"solve failed: {exc}")
    base = linear_energy_eval(u, v, cfg.K)
    worst = math.inf
    for _ in range(100):
        phi = rng.standard_normal(dom.n_interior)
        phi /= np.linalg.norm(phi)
        for t in (1e-2, -1e-2, 1e-4, -1e-4):
            trial = Field.from_interior(dom, u.interior_values + t * phi)
            worst = min(worst, linear_energy_eval(trial, v, cfg.K) - base)
    return _check("linear_minimizer", worst >= MINIMIZER_SLACK, worst, MINIMIZER_SLACK)


def _max_principle_check(cfg: RunConfig, rng) -> dict:
    worst = -math.inf
    for _ in range(20):
        dom = build_domain(cfg.dimension, 3)
        v = np.abs(rng.standard_normal(dom.n_interior))
        try:
            u = linear_solve(LinearSystem(dom, cfg.K, v), cfg.linear_opts)
        except ConvergenceError as exc:
            return _check("linear_max_principle", False, detail=f"solve failed: {exc}")
        worst = max(worst, float(np.max(u.values)))
    return _check("linear_max_principle", worst <= MAX_PRINCIPLE_TOL, worst, MAX_PRINCIPLE_TOL)


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
    return _check("symmetry_equivariance", dev <= SYMMETRY_TOL, dev, SYMMETRY_TOL)


def symmetry_deviation(f: Field) -> float:
    """Max |f(sigma x) - f(x)| over signed coordinate permutations sigma.

    Generators suffice: a deviation bound over adjacent transpositions and
    single-axis sign flips extends to the whole group only loosely, so the
    canonical representative (sorted absolute coordinates) is compared
    instead, which covers every group element at once.
    """
    dom = f.domain
    rep: dict[tuple[int, ...], int] = {}
    dev = 0.0
    for p, v in zip(dom.points, f.values):
        canon = tuple(sorted(abs(c) for c in p))
        if canon in rep:
            dev = max(dev, abs(v - rep[canon]))
        else:
            rep[canon] = v
    return dev


def _maximality_check(cfg: RunConfig, rng) -> dict:
    radius = max(8, max((manhattan_norm(p) for p, _ in cfg.vortices), default=0))
    try:
        reference = _solve(cfg, radius)
    except (ConvergenceError, SchemeIntegrityError) as exc:
        return _check("maximality_newton", False, detail=f"reference solve failed: {exc}")
    dom = reference.domain
    worst = -math.inf
    converged = 0
    for _ in range(10):
        start = Field.from_interior(dom, -3.0 * rng.random(dom.n_interior))
        try:
            root = newton_solve(dom, cfg.vortex_config, cfg.params, start)
        except ConvergenceError:
            continue
        converged += 1
        worst = max(worst, float(np.max(root.values - reference.field.values)))
    if converged == 0:
        return _check("maximality_newton", False, detail="no Newton start converged")
    return _check("maximality_newton", worst <= MAXIMALITY_TOL, worst, MAXIMALITY_TOL,
                  detail=f"{converged}/10 starts converged")


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
        if cfg.emit_field_csv:
            for s in exc.partial.solutions:
                write_field_csv(out_dir / f"field_R{s.domain.radius}.csv", s.field)
    if cfg.emit_report_json:
        write_report(out_dir / "report.json", report)
    _say(quiet, f"{kind.replace('_', ' ')} failure: {exc}")
    return EXIT_CHECK_FAILED if integrity else EXIT_NO_CONVERGENCE


def _verdict(checks: list[dict]) -> str:
    passed = sum(1 for c in checks if c["passed"])
    tag = "ok" if passed == len(checks) else "FAILED"
    return f"checks: {passed}/{len(checks)} passed [{tag}]"


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
