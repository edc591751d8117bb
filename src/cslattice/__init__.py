"""Maximal topological solutions of generalized Chern-Simons vortex equations
on lattice graphs Z^n: monotone iteration on Manhattan balls, domain
exhaustion, and numerical certification of decay and maximality."""

__version__ = "0.1.0"

from .errors import AnalysisError, ConfigError, ConvergenceError, SchemeIntegrityError
from .fields import (
    Field,
    grad_energy,
    laplacian,
    norm,
)
from .lattice import (
    LatticeDomain,
    Params,
    Problem,
    VortexConfig,
    ball_size,
    build_domain,
    manhattan_norm,
    shell_size,
)
from .linear import (
    LinearSystem,
    dense_solve,
    linear_solve,
    system_matrix,
)
from .scheme import (
    BoundedSolution,
    MaximalityCertificate,
    TraceStep,
    boundary_flux,
    energy_eval,
    iterate_once,
    newton_solve,
    nonlinearity,
    nonlinearity_deriv,
    residual,
    solve_bounded,
)
from .exhaustion import (
    BarrierReport,
    DecayFit,
    ExhaustionResult,
    LpSummary,
    barrier_check,
    barrier_constant,
    coercivity_check,
    decay_fit,
    decay_rate_sharp,
    decay_rate_theory,
    lp_summary,
    run_exhaustion,
    shell_profile,
)

__all__ = [
    "AnalysisError",
    "BarrierReport",
    "BoundedSolution",
    "ConfigError",
    "ConvergenceError",
    "DecayFit",
    "ExhaustionResult",
    "Field",
    "LatticeDomain",
    "LinearSystem",
    "LpSummary",
    "MaximalityCertificate",
    "Params",
    "Problem",
    "SchemeIntegrityError",
    "TraceStep",
    "VortexConfig",
    "ball_size",
    "barrier_check",
    "barrier_constant",
    "boundary_flux",
    "build_domain",
    "coercivity_check",
    "decay_fit",
    "decay_rate_sharp",
    "decay_rate_theory",
    "dense_solve",
    "energy_eval",
    "grad_energy",
    "iterate_once",
    "laplacian",
    "linear_solve",
    "lp_summary",
    "manhattan_norm",
    "newton_solve",
    "nonlinearity",
    "nonlinearity_deriv",
    "norm",
    "residual",
    "run_exhaustion",
    "shell_profile",
    "shell_size",
    "solve_bounded",
    "system_matrix",
]
