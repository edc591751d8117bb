"""Monotone iteration for the vortex equation on a bounded domain.

The equation is  L f = lam * e^f (e^{a f} - 1) + g  with zero Dirichlet
data, g the Dirac vortex source.  Starting from f_0 = 0 and a fixed
K > a*lam, each step solves the linear problem

    (L - K) f_k = lam e^{f_{k-1}} (e^{a f_{k-1}} - 1) + g - K f_{k-1},

which produces a pointwise nonincreasing sequence 0 = f_0 >= f_1 >= ...
converging to the maximal solution on the domain.  The associated energy

    I(f) = 1/2 int |grad f|^2 + lam/(a+1) int (e^{(a+1)f} - 1)
           + lam int (1 - e^f) + int g f

is nonincreasing along the iterates and nonpositive from step one; both
facts are monitored at runtime and violations raise SchemeIntegrityError.

A damped Newton iteration on the residual is provided as an independent
oracle for maximality experiments; it is not the solver's engine.  Its
Jacobian L - N'(f) is never assembled: each Newton step is one
matrix-free conjugate-gradient solve through linear_solve, with the
per-point shift K = N'(f).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, SchemeIntegrityError
from .fields import Field, grad_energy, laplacian
from .lattice import LatticeDomain, Params, VortexConfig, assemble_source
from .linear import LinearSolveOptions, LinearSystem, linear_solve
# Unused here, kept until perfbench/spans.py stops patching this name.
from .linear import system_matrix

# Thresholds of the scheme's invariants.  MONOTONE_TOL and ENERGY_SLACK are
# enforced on every step (a violation raises SchemeIntegrityError); the
# others bound the post-solve checks on the solution.
MONOTONE_TOL = 1e-10      # f_k - f_{k-1} <= this pointwise
ENERGY_SLACK = 1e-10      # I(f_k) - I(f_{k-1}) <= this, and I(f_k) <= this
RESIDUAL_FACTOR = 100.0   # a solve ends with residual <= this * tol_nonlinear
FIELD_SIGN_TOL = 1e-10    # the solution is <= this everywhere
VORTEX_VALUE_BOUND = 0.0  # f(p_j) < this at every vortex: strict, no slack
FLUX_TOL = 1e-8           # |sum N(f) + 4 pi sum n_j - boundary flux| <= this
SYMMETRY_TOL = 1e-10      # |f(sigma x) - f(x)| <= this for a vortex at 0
MAXIMALITY_TOL = 1e-8     # a Newton root exceeds the maximal solution by <= this


def nonlinearity(f_value, params: Params):
    """lam * e^f (e^{a f} - 1), evaluated as lam * e^f * expm1(a f).

    Negative for f < 0, zero at f = 0; underflows gracefully for very
    negative f and keeps full accuracy near f = 0.
    """
    f = np.asarray(f_value, dtype=float)
    out = params.lam * np.exp(f) * np.expm1(params.a * f)
    return float(out) if np.isscalar(f_value) else out


def nonlinearity_deriv(f_value, params: Params):
    """Derivative lam * [(a+1) e^{(a+1)f} - e^f] of the nonlinearity."""
    f = np.asarray(f_value, dtype=float)
    a = params.a
    out = params.lam * ((a + 1.0) * np.exp((a + 1.0) * f) - np.exp(f))
    return float(out) if np.isscalar(f_value) else out


def residual(f: Field, g: Field, params: Params) -> np.ndarray:
    """Interior residual r = L f - lam e^f (e^{a f} - 1) - g; zero at a solution."""
    return laplacian(f) - nonlinearity(f.interior_values, params) - g.interior_values


def energy_eval(f: Field, g: Field, params: Params) -> float:
    """Energy functional I(f) for a Dirichlet field f (see module docstring)."""
    if not f.is_dirichlet():
        raise ValueError("the energy functional is defined on Dirichlet fields")
    fi = f.interior_values
    a, lam = params.a, params.lam
    grad_term = 0.5 * grad_energy(f)
    exp_term = lam / (a + 1.0) * float(np.sum(np.expm1((a + 1.0) * fi)))
    lin_term = -lam * float(np.sum(np.expm1(fi)))
    source_term = float(np.dot(g.interior_values, fi))
    return grad_term + exp_term + lin_term + source_term


def iterate_once(
    f_prev: Field,
    g: Field,
    params: Params,
    opts: LinearSolveOptions = LinearSolveOptions(),
    x0: np.ndarray | None = None,
) -> Field:
    """One monotone step: solve (L - K) f_k = N(f_{k-1}) + g - K f_{k-1}.

    The result satisfies f_k <= f_prev up to linear-solver tolerance; an
    excursion beyond MONOTONE_TOL raises SchemeIntegrityError.
    """
    fp = f_prev.interior_values
    rhs = nonlinearity(fp, params) + g.interior_values - params.K * fp
    f_next = linear_solve(LinearSystem(f_prev.domain, params.K, rhs), opts, x0=x0)
    worst = float(np.max(f_next.interior_values - fp)) if fp.size else 0.0
    if worst > MONOTONE_TOL:
        raise SchemeIntegrityError(
            f"iterate rose by {worst:.3e} above its predecessor "
            f"(tolerance {MONOTONE_TOL:.0e})"
        )
    return f_next


@dataclass(frozen=True)
class TraceStep:
    k: int
    sup_diff: float       # ||f_k - f_{k-1}||_inf (0 for the k = 0 record)
    energy: float         # I(f_k)
    residual_sup: float   # ||L f_k - N(f_k) - g||_inf over the interior
    max_increase: float   # max_x (f_k(x) - f_{k-1}(x)), monotonicity margin


@dataclass
class IterationTrace:
    """Per-step history of one bounded solve; row k = 0 is the initial state."""

    steps: list[TraceStep] = field(default_factory=list)

    def append(self, step: TraceStep) -> None:
        self.steps.append(step)

    def __len__(self) -> int:
        return len(self.steps)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in self.steps])

    @property
    def iterations(self) -> int:
        return self.steps[-1].k if self.steps else 0

    @property
    def max_monotone_violation(self) -> float:
        """Largest pointwise rise between consecutive iterates (k >= 1)."""
        rises = [s.max_increase for s in self.steps[1:]]
        return max(rises) if rises else 0.0

    @property
    def max_energy_increase(self) -> float:
        e = self.column("energy")
        return float(np.max(np.diff(e))) if len(e) > 1 else 0.0


@dataclass(frozen=True, eq=False)
class BoundedSolution:
    """Converged maximal solution on one bounded domain, with its history."""

    field: Field
    trace: IterationTrace
    params: Params
    vortex: VortexConfig

    @property
    def domain(self) -> LatticeDomain:
        return self.field.domain

    @property
    def iterations(self) -> int:
        return self.trace.iterations

    @property
    def residual_sup(self) -> float:
        return self.trace.steps[-1].residual_sup


def boundary_flux(f: Field) -> float:
    """Sum over interior-boundary edges of (f(y) - f(x)), y on the boundary.

    Equals the interior sum of L f exactly in real arithmetic (discrete
    divergence theorem), hence, at a solution, the interior nonlinearity
    mass plus the total vortex flux.
    """
    dom = f.domain
    cross = dom.edge_head >= dom.n_interior
    t = dom.edge_tail[cross]
    h = dom.edge_head[cross]
    return float(np.sum(f.values[h] - f.values[t]))


def validate_stopping(tol_nonlinear: float, max_steps: int) -> None:
    """solve_bounded's stop rule needs tol_nonlinear > 0 and max_steps >= 1."""
    if not tol_nonlinear > 0:
        raise ValueError(f"tol_nonlinear must be positive, got {tol_nonlinear}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")


def solve_bounded(
    dom: LatticeDomain,
    vc: VortexConfig,
    params: Params,
    tol_nonlinear: float = 1e-10,
    max_steps: int = 500,
    linear_opts: LinearSolveOptions = LinearSolveOptions(),
) -> BoundedSolution:
    """Iterate from f_0 = 0 until ||f_k - f_{k-1}||_inf < tol_nonlinear.

    Termination additionally requires the interior residual to fall below
    RESIDUAL_FACTOR * tol_nonlinear, guarding against premature stalls.
    Monotonicity and energy descent are checked on every step; max_steps
    exhaustion raises ConvergenceError with the trace attached.
    """
    validate_stopping(tol_nonlinear, max_steps)
    g = assemble_source(dom, vc)
    f = Field.zeros(dom)
    trace = IterationTrace()
    energy = energy_eval(f, g, params)
    res_sup = float(np.max(np.abs(residual(f, g, params)))) if dom.n_interior else 0.0
    trace.append(TraceStep(0, 0.0, energy, res_sup, 0.0))

    for k in range(1, max_steps + 1):
        f_next = iterate_once(f, g, params, linear_opts, x0=f.interior_values)
        diff = f_next.interior_values - f.interior_values
        sup_diff = float(np.max(np.abs(diff))) if diff.size else 0.0
        max_inc = float(np.max(diff)) if diff.size else 0.0
        energy_next = energy_eval(f_next, g, params)
        res_sup = float(np.max(np.abs(residual(f_next, g, params))))
        trace.append(TraceStep(k, sup_diff, energy_next, res_sup, max_inc))

        if energy_next > energy + ENERGY_SLACK:
            raise SchemeIntegrityError(
                f"energy rose from {energy:.12e} to {energy_next:.12e} at step {k}",
                trace=trace,
            )
        if energy_next > ENERGY_SLACK:
            raise SchemeIntegrityError(
                f"energy {energy_next:.3e} positive at step {k}", trace=trace
            )
        f, energy = f_next, energy_next
        if sup_diff < tol_nonlinear and res_sup <= RESIDUAL_FACTOR * tol_nonlinear:
            return BoundedSolution(field=f, trace=trace, params=params, vortex=vc)

    raise ConvergenceError(
        f"no convergence to tol={tol_nonlinear} within {max_steps} steps "
        f"(last sup_diff {trace.steps[-1].sup_diff:.3e})",
        best=f,
        residual=trace.steps[-1].residual_sup,
        trace=trace,
    )


def newton_solve(
    dom: LatticeDomain,
    vc: VortexConfig,
    params: Params,
    f_init: Field,
    tol: float = 1e-10,
    max_steps: int = 60,
) -> Field:
    """Damped Newton iteration on the residual; oracle for maximality tests.

    The Newton step s solves (L - N'(f)) s = -r, the symmetric Jacobian
    taken as the linear solver's operator with per-point shift K = N'(f):
    one matrix-free CG solve, no N x N matrix.  Steps are halved (up to
    30 times) until the sup-norm residual decreases.  Divergence, or a
    Jacobian that CG finds not negative definite, raises ConvergenceError
    carrying the last Newton iterate; that is acceptable for an oracle.
    """
    if float(np.max(f_init.values)) > 0.0:
        raise ValueError("newton_solve expects a nonpositive initial field")
    g = assemble_source(dom, vc)
    f = f_init.interior_values.copy()

    def res_of(fi: np.ndarray) -> np.ndarray:
        return residual(Field.from_interior(dom, fi), g, params)

    r = res_of(f)
    r_norm = float(np.max(np.abs(r)))
    for _ in range(max_steps):
        if r_norm <= tol:
            return Field.from_interior(dom, f)
        jacobian = LinearSystem(dom, nonlinearity_deriv(f, params), -r)
        try:
            step = linear_solve(jacobian).interior_values
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"Newton step failed at residual {r_norm:.3e}: {exc}",
                best=Field.from_interior(dom, f),
                residual=r_norm,
            ) from exc
        t = 1.0
        for _ in range(30):
            trial = f + t * step
            r_trial = res_of(trial)
            r_trial_norm = float(np.max(np.abs(r_trial)))
            if r_trial_norm < r_norm:
                f, r, r_norm = trial, r_trial, r_trial_norm
                break
            t *= 0.5
        else:
            raise ConvergenceError(
                f"Newton stalled at residual {r_norm:.3e}",
                best=Field.from_interior(dom, f),
                residual=r_norm,
            )
    if r_norm <= tol:
        return Field.from_interior(dom, f)
    raise ConvergenceError(
        f"Newton did not reach tol={tol} in {max_steps} steps (residual {r_norm:.3e})",
        best=Field.from_interior(dom, f),
        residual=r_norm,
    )
