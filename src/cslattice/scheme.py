"""Monotone iteration for the vortex equation on a bounded domain.

The equation is  L f = lam * e^f (e^{a f} - 1) + g  with zero Dirichlet
data, g the Dirac vortex source that a lattice.Problem holds.  Starting
from f_0 = 0, or from an upper solution above the maximal one, and a fixed
K > a*lam, each step solves the linear problem

    (L - K) f_k = lam e^{f_{k-1}} (e^{a f_{k-1}} - 1) + g - K f_{k-1},

which produces a pointwise nonincreasing sequence f_0 >= f_1 >= ...
converging to the maximal solution on the domain.  The associated energy

    I(f) = 1/2 int |grad f|^2 + lam/(a+1) int (e^{(a+1)f} - 1)
           + lam int (1 - e^f) + int g f

is nonincreasing along the iterates and nonpositive from step one; both
facts are monitored at runtime and violations raise SchemeIntegrityError.

The monotone steps contract slowly (their count grows like 1/lam), so
solve_bounded runs a damped Newton iteration on the residual right after
the first one and keeps its root, which each later step re-tests: every
iterate from f_1 on is an upper solution above the maximal one, which is
all the root's certificate needs.  The Jacobian L - N'(f) is never
assembled: each Newton step is one matrix-free conjugate-gradient solve
through linear_solve, with the per-point shift K = N'(f).  The steps are
inexact (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996): each CG solve
stops at a forcing tolerance that shrinks with the residual, because Newton
accepts a root only on its recomputed residual.  The root is returned only
with a pointwise certificate that it lies within tol_nonlinear of the
maximal solution (see solve_bounded), whose tests are likewise recomputed
from the stored vectors; newton_solve from arbitrary starts also serves
the verify suite as an independent maximality oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import ConvergenceError, SchemeIntegrityError
from .fields import Field, extend_by_zero, grad_energy, laplacian, neighbor_sum
from .lattice import LatticeDomain, Params, Problem, ball_size, validate_float, validate_int
from .linear import LinearSystem, linear_solve
# Unused here, kept until perfbench/spans.py stops patching these names.
from .lattice import assemble_source
from .linear import system_matrix

# Thresholds of the scheme's invariants.  MONOTONE_TOL and ENERGY_SLACK are
# enforced on every step by solve_bounded (a violation raises
# SchemeIntegrityError); FIELD_SIGN_TOL and ROUNDING_ULPS serve newton_solve,
# the certificate and flux_gap; the others bound the checks on a returned
# solution.  The flux, nesting and symmetry checks have no constant: each
# threshold is proved from the certificates of the solutions it checks
# (flux_gap, ExhaustionResult.nested_bounds, cli._symmetry_check).
MONOTONE_TOL = 1e-10      # f_k - f_{k-1} <= this pointwise
ENERGY_SLACK = 1e-10      # I(f_k) - I(f_{k-1}) <= this, and I(f_k) <= this
RESIDUAL_FACTOR = 100.0   # a solution's residual is <= this * tol_nonlinear
FIELD_SIGN_TOL = 1e-10    # newton_solve clips a start above zero by at most this
VORTEX_VALUE_BOUND = 0.0  # f(p_j) < this at every vortex: strict, no slack
MAXIMALITY_TOL = 1e-8     # a Newton root exceeds the maximal solution by <= this
ROUNDING_ULPS = 10        # r(f), A z round by <= (2n + this) unit roundoffs of their terms' sizes

# Default stop rule of solve_bounded, shared by run_exhaustion and the CLI.
DEFAULT_TOL_NONLINEAR = 1e-10
DEFAULT_MAX_STEPS = 500

# Schedule of solve_bounded's Newton finish: Newton runs after monotone step
# 1, and again after each later step that follows a run that raised; a root
# it returns is kept and re-tested after every later step.  Newton aims at a
# residual of NEWTON_TOL_FACTOR * tol_nonlinear.  newton_solve gives up after
# NEWTON_MAX_STEPS steps.
NEWTON_TOL_FACTOR = 1e-2
NEWTON_MAX_STEPS = 60

# Inner tolerances of the solves whose results are checked a posteriori: the
# forcing terms of newton_solve's steps (see its docstring), and the
# certificate's z solve, whose right-hand side adds CERTIFICATE_SLACK * max rho
# to rho and which stops once ||A z - rhs||_inf <= CERTIFICATE_SLACK * max rho.
NEWTON_FORCING_MAX = 0.1
NEWTON_FORCING_FLOOR = 1e-2
CERTIFICATE_SLACK = 0.1


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


def residual(f: Field, problem: Problem, lap: np.ndarray | None = None) -> np.ndarray:
    """Interior residual r = L f - lam e^f (e^{a f} - 1) - g of the problem; zero at a solution.

    lap, if given, is laplacian(f), gathered once by a caller that needs it twice.
    """
    if lap is None:
        lap = laplacian(f)
    return lap - nonlinearity(f.interior_values, problem.params) - problem.source.interior_values


def energy_eval(f: Field, problem: Problem, lap: np.ndarray | None = None) -> float:
    """The problem's energy functional I(f) for a Dirichlet field f (see module
    docstring); grad_energy raises ValueError for any other field.  lap as for residual."""
    fi = f.interior_values
    a, lam = problem.params.a, problem.params.lam
    grad_term = 0.5 * grad_energy(f, lap)
    exp_term = lam / (a + 1.0) * float(np.sum(np.expm1((a + 1.0) * fi)))
    lin_term = -lam * float(np.sum(np.expm1(fi)))
    source_term = float(np.dot(problem.source.interior_values, fi))
    return grad_term + exp_term + lin_term + source_term


def iterate_once(f_prev: Field, problem: Problem) -> Field:
    """One monotone step: solve (L - K) f_k = N(f_{k-1}) + g - K f_{k-1}.

    CG starts from f_prev (a zero f_prev is linear_solve's cold start).
    The step is solved just tightly enough for its check: to tol_rel =
    K * MONOTONE_TOL / ||rhs||_2 (at most 1/2), so the computed f_k is
    within MONOTONE_TOL of the exact step in sup norm.  With zero Dirichlet
    data K - L >= K I on the interior, so an error e whose residual is r has
    ||e||_inf <= ||e||_2 <= ||r||_2 / K <= tol_rel ||rhs||_2 / K <= MONOTONE_TOL.
    From an upper solution the exact step has f_k <= f_prev; solve_bounded
    raises SchemeIntegrityError on a computed f_k that rises above f_prev by
    more than MONOTONE_TOL.
    """
    fp, params = f_prev.interior_values, problem.params
    rhs = nonlinearity(fp, params) + problem.source.interior_values - params.K * fp
    # at most 1/2, inside linear_solve's range (0, 1); a smaller tol_rel keeps the bound
    slack = params.K * MONOTONE_TOL
    tol_rel = slack / max(math.sqrt(np.dot(rhs, rhs)), 2.0 * slack)
    return linear_solve(LinearSystem(f_prev.domain, params.K, rhs), tol_rel, x0=fp)


@dataclass(frozen=True)
class TraceStep:
    """One row of a solve's trace, a list whose row k = 0 is the initial state."""

    k: int
    sup_diff: float       # ||f_k - f_{k-1}||_inf (0 for the k = 0 record)
    energy: float         # I(f_k)
    residual_sup: float   # ||L f_k - N(f_k) - g||_inf over the interior


@dataclass(frozen=True)
class MaximalityCertificate:
    """A posteriori proof that the returned field f has |f - f_max| <= z pointwise.

    solve_bounded's docstring gives the argument; z solves A z = rho +
    CERTIFICATE_SLACK * max rho with A = diag(m) - L, m the least N' over
    the bracket around f, and rho = |r(f)| plus its rounding allowance.
    """

    bound: float    # max z, a bound on ||f - f_max||_inf
    rho: float      # max rho: ||r(f)||_inf plus its rounding allowance
    rho_sum: float  # sum rho, a bound on sum |r(f)| (flux_gap)


@dataclass(frozen=True, eq=False)
class BoundedSolution:
    """Maximal solution on one bounded domain, with its monotone history.

    ``residual_sup`` and ``energy`` belong to ``field``.  ``upper`` is the
    last monotone iterate: an upper solution above the maximal solution and
    the top of the certificate's bracket.  ``field`` is the certified
    Newton root, within ``certificate.bound`` of the maximal solution.
    ``trace`` holds one row per monotone step taken, after row k = 0.
    """

    field: Field
    trace: list[TraceStep]
    problem: Problem
    residual_sup: float
    energy: float
    certificate: MaximalityCertificate
    upper: Field

    @property
    def domain(self) -> LatticeDomain:
        return self.field.domain

    @property
    def iterations(self) -> int:
        return self.trace[-1].k


def boundary_flux(f: Field) -> float:
    """Sum over interior-boundary edges of (f(y) - f(x)), y on the boundary.

    Equals the interior sum of L f exactly in real arithmetic (discrete
    divergence theorem), hence, at a solution, the interior nonlinearity
    mass plus the total vortex flux.  Read from the neighbour table's
    boundary entries one stencil column at a time, each column widened to
    intp on its own: an intp copy of the whole table would raise a small
    solve's peak memory.  Only the interior's last shell, d = R, has
    boundary neighbours, so only its rows, the table's last, are read.
    """
    dom = f.domain
    shell = ball_size(dom.dim, dom.radius - 1) if dom.radius else 0
    inner = f.interior_values[shell:]
    total = 0.0
    for col in range(dom.degree):
        nbr = dom.neighbors[shell:, col].astype(np.intp)
        cross = nbr >= dom.n_interior
        total += float(np.sum(f.values[nbr[cross]] - inner[cross]))
    return total


def flux_gap(sol: BoundedSolution) -> tuple[float, float]:
    """The flux identity's gap |sum N(f) + 4 pi sum n_j - boundary_flux(f)| for
    sol's field f, and the threshold that sol's certificate proves for it.

    Proof.  In exact arithmetic the interior sum of L f is boundary_flux(f)
    (see there), and L f = N(f) + g + r(f) on the interior, with g summing
    to 4 pi sum n_j: every vortex lies inside the ball.  So the exact gap is
    |sum r(f)| <= sum |r(f)| <= sum rho, the certificate's rho_sum, as rho
    bounds |r(f)| point by point.  The computed gap differs from the exact
    one only by rounding.  Each of its sums has at most k = n_interior +
    n (n_closure - n_interior) terms, a boundary point having at most n
    interior neighbours, so it errs by at most k u/(1 - k u) times the sum
    of its terms' sizes (u the unit roundoff); ROUNDING_ULPS more unit
    roundoffs of each size cover each N term's exponentials and products
    (about 7 u), 4 pi times sum n_j and the gap's own additions.  rho_sum,
    itself a sum of n_interior terms, takes the same factor.  As f <= 0,
    every N term is <= 0 and every boundary term -f(x) >= 0, so the sizes
    sum to |sum N| and to |boundary_flux(f)|: the threshold reads only
    what the gap computes.
    """
    f = sol.field
    dom = f.domain
    mass = float(np.sum(nonlinearity(f.interior_values, sol.problem.params)))
    total, flux = sol.problem.vortex.total_flux, boundary_flux(f)
    u = np.finfo(float).eps / 2
    k = dom.n_interior + dom.dim * (dom.n_closure - dom.n_interior)
    gamma = k * u / (1.0 - k * u) + ROUNDING_ULPS * u
    rho_sum = sol.certificate.rho_sum
    return (abs(mass + total - flux),
            rho_sum + gamma * (rho_sum + abs(mass) + total + abs(flux)))


def validate_stopping(tol_nonlinear: float, max_steps: int) -> tuple[float, int]:
    """solve_bounded's stop rule as (float, int); raises ValueError unless
    tol_nonlinear is a finite number > 0 and max_steps an integer >= 1."""
    return (validate_float(tol_nonlinear, "tol_nonlinear", low=0),
            validate_int(max_steps, "max_steps", low=1))


def solve_bounded(
    problem: Problem,
    tol_nonlinear: float = DEFAULT_TOL_NONLINEAR,
    max_steps: int = DEFAULT_MAX_STEPS,
    previous: BoundedSolution | None = None,
) -> BoundedSolution:
    """Maximal solution of the problem, certified within tol_nonlinear in sup norm.

    Schedule.  f_0 is 0, a cold start, unless ``previous`` is given: a
    solution on a ball of the same dimension and at most the problem's
    radius, with its vortices and params (ValueError otherwise).  Then f_0
    is the zero extension of previous.upper, a warm start.  newton_solve runs after
    the first monotone step, from the zero extension of previous.field after
    a warm start and from min(f_1, 0) otherwise, aiming at a residual of
    NEWTON_TOL_FACTOR * tol_nonlinear.  The solve keeps its root f*, clipped
    to f* <= 0, and after this and every later step k runs only the test
    below against f_k's bracket; f* is returned once it passes.  Only a run
    that raises ConvergenceError is followed by another, from min(f_k, 0)
    after the next step k.  A returned solution is always certified.  The
    monotone steps give up without a certified root, raising
    ConvergenceError with the last iterate as ``best`` and the trace, once
    a step moves nothing (sup_diff == 0), once they have converged as the
    plain monotone scheme counts it (sup_diff < tol_nonlinear and residual
    at most RESIDUAL_FACTOR * tol_nonlinear), or after max_steps steps.
    Every monotone step is checked, after its row joins the trace: a rise
    of f_k above f_{k-1} by more than MONOTONE_TOL anywhere, or an energy
    I(f_k) above I(f_{k-1}) or above 0 by more than ENERGY_SLACK, raises
    SchemeIntegrityError with the trace.
    No solve reads a configured tolerance: each monotone step is solved
    as tightly as its MONOTONE_TOL check needs (iterate_once), Newton's
    steps to forcing tolerances (newton_solve), and the certificate's z
    to ||A z - rhs||_inf <= CERTIFICATE_SLACK * max rho, z being checked a
    posteriori by the test below.

    Certificate.  Write r(f) = L f - N(f) - g on the interior; f is an
    upper solution if r(f) <= 0 and a lower solution if r(f) >= 0.  Let
    delta = tol_nonlinear, m(x) the least N' over the bracket
    [f*(x) - delta, max(f_k(x), f*(x)) + MONOTONE_TOL] (a closed form: N'
    falls to its one minimum at f = -2 ln(a+1)/a and rises after it),
    A = diag(m) - L, and rho(x) = |r(f*)(x)| plus its rounding allowance.
    One linear_solve gives z with A z = rho + eta max rho, eta =
    CERTIFICATE_SLACK.  The test asks z > 0, A z >= rho and A z > 0
    pointwise, and that the bound max z is at most delta.

    1. f_max <= f_k, and f_k is an upper solution, given that f_0 is an
       upper solution with f_max <= f_0.  A step gives
       (L - K)(f_k - f_{k-1}) = -r(f_{k-1}) and
       r(f_k) = (K - N'(xi)) (f_k - f_{k-1}) with xi between the iterates;
       as (L - K)^{-1} <= 0 entrywise and K > a lam >= N' on f <= 0, by
       induction f_k <= f_{k-1} and r(f_k) <= 0.  For any solution
       f <= f_0, (L - K)(f_k - f) = (N'(xi) - K)(f_{k-1} - f), so f <= f_k
       by induction.  f_0 = 0 qualifies: r(0) = -g <= 0, and every solution
       is <= 0 by the maximum principle.  So does the zero extension f_0 of
       the last iterate u on a smaller ball B: on the interior of B,
       r(f_0) = r(u) <= 0 (by this step on B), as the stencil stays in B's
       closure; on B's sphere f_0 = 0, so N(f_0) = 0, g = 0 (validate_radii
       keeps every vortex inside the smallest ball) and L f_0 is a sum of
       values of u <= 0; elsewhere r(f_0) = 0.  f_max on the ball, restricted to
       B, solves the equation inside B and is <= 0 on B's sphere, so it is
       a lower solution there and lies below B's maximal solution (the
       argument of step 3), hence below u; outside B, f_max <= 0 = f_0.
       This is the paper's nested monotonicity.
    2. v = f* - z is a lower solution.  r(v) = r(f*) + (diag(c) - L) z
       with c = N'(xi), xi in [f* - z, f*], which lies in the bracket as
       z <= delta; so c >= m, (diag(c) - L) z >= A z >= rho as z > 0, and
       r(v) >= -rho + rho = 0.
    3. f_max lies in the bracket.  The induction of step 1, with r(v) >= 0
       on the right, keeps the monotone iterates from 0, which decrease to
       f_max whatever f_0 the solve started from, above the lower solution
       v <= f* <= 0; so f* - delta <= v <= f_max <= f_k.
    4. |f_max - f*| <= z.  d = f_max - f* solves (diag(c) - L) d = r(f*)
       with c = N'(xi), xi between f* and f_max, in the bracket by 1 and 3,
       so c >= m.  The Z-matrix B = diag(c) - L has B z >= A z > 0 with
       z > 0, so it is a nonsingular M-matrix (Varga's positive-vector
       criterion) and B^{-1} >= 0.  B (z -+ d) >= rho - |r(f*)| >= 0, so
       -z <= d <= z.  The same argument, applied to the difference of two
       solutions in the bracket, makes f_max the only one there.

    Exact and rounded.  Steps 1 and 3 speak of the exact iterates.  Each
    computed f_k is within MONOTONE_TOL in sup norm of the exact step from
    the computed f_{k-1}: iterate_once stops its CG solve at a residual
    ||r||_2 <= K MONOTONE_TOL, and K - L >= K I on the interior with zero
    Dirichlet data, so the error e has ||e||_inf <= ||e||_2 <= ||r||_2 / K
    <= MONOTONE_TOL.  That is the margin the bracket's top adds, and the
    one by which solve_bounded lets a computed step rise.  After a warm start
    the solves on the smaller balls add errors of the same size through f_0.
    Steps 2 and 4 are exact statements about the stored vectors f* and z,
    except that r(f*) and A z are evaluated in floating point.  Each entry
    is a sum of 2n + 3 terms, so it errs by at most about (2n + 3) unit
    roundoffs times the sum of the terms' sizes, plus a few more for exp and
    products; rho is raised and A z lowered, point by point, by
    (2n + ROUNDING_ULPS) unit roundoffs times that sum.  How inexactly
    Newton and the z solve ran does not enter the proof: steps 2 and 4 hold
    for whatever f* and z were stored, once the test passes on them.
    """
    tol_nonlinear, max_steps = validate_stopping(tol_nonlinear, max_steps)
    dom = problem.domain
    if previous is None:
        f, warm_root = Field.zeros(dom), None
    else:
        prev_dom, prev = previous.domain, previous.problem
        if (prev_dom.dim, prev.vortex, prev.params) != (dom.dim, problem.vortex, problem.params) \
                or prev_dom.radius > dom.radius:
            raise ValueError(
                f"a warm start needs a solution on a ball of Z^{dom.dim} inside the "
                f"problem's B_{dom.radius} with its vortices and params, got one on "
                f"B_{prev_dom.radius} of Z^{prev_dom.dim}"
            )
        f, warm_root = extend_by_zero(previous.upper, dom), previous.field
    energy, res_sup = _diagnostics(f, problem)
    trace = [TraceStep(0, 0.0, energy, res_sup)]
    kept = None  # a _newton_root result, None until a run returns

    for k in range(1, max_steps + 1):
        f_next = iterate_once(f, problem)
        diff = f_next.interior_values - f.interior_values
        sup_diff = float(np.max(np.abs(diff)))
        rise = float(np.max(diff))
        del diff
        energy_next, res_sup = _diagnostics(f_next, problem)
        trace.append(TraceStep(k, sup_diff, energy_next, res_sup))

        if rise > MONOTONE_TOL:
            raise SchemeIntegrityError(f"iterate rose by {rise:.3e} above its predecessor at "
                                       f"step {k} (tolerance {MONOTONE_TOL:.0e})", trace=trace)
        if energy_next > energy + ENERGY_SLACK:
            raise SchemeIntegrityError(f"energy rose from {energy:.12e} to {energy_next:.12e} "
                                       f"at step {k}", trace=trace)
        if energy_next > ENERGY_SLACK:
            raise SchemeIntegrityError(f"energy {energy_next:.3e} positive at step {k}",
                                       trace=trace)
        f, energy = f_next, energy_next
        if kept is None:
            kept = _newton_root(f, problem, tol_nonlinear, warm_root)
            warm_root = None
        cert = None if kept is None else _certify(kept, f, problem, tol_nonlinear)
        if cert is not None:
            root, root_res, _, root_energy = kept
            return BoundedSolution(root, trace, problem, root_res, root_energy, cert, upper=f)
        converged = sup_diff < tol_nonlinear and res_sup <= RESIDUAL_FACTOR * tol_nonlinear
        if sup_diff == 0.0 or converged:
            raise ConvergenceError(
                f"monotone steps stopped at step {k} (sup_diff {sup_diff:.3e}, residual "
                f"{res_sup:.3e}) with no certified Newton root",
                best=f, residual=res_sup, trace=trace)

    raise ConvergenceError(
        f"no convergence to tol={tol_nonlinear} within {max_steps} steps "
        f"(last sup_diff {trace[-1].sup_diff:.3e})",
        best=f, residual=trace[-1].residual_sup, trace=trace)


def _diagnostics(f: Field, problem: Problem) -> tuple[float, float]:
    """I(f) and ||r(f)||_inf, from one Laplacian of f."""
    lap = laplacian(f)
    return (energy_eval(f, problem, lap),
            float(np.max(np.abs(residual(f, problem, lap)))))


def _rounding(dom: LatticeDomain) -> float:
    """(2n + ROUNDING_ULPS) unit roundoffs, by which rho is raised and A z lowered per term size."""
    return (dom.degree + ROUNDING_ULPS) * np.finfo(float).eps / 2


def _newton_root(
    f_k: Field, problem: Problem, tol: float, warm: Field | None,
) -> tuple[Field, float, np.ndarray, float] | None:
    """Newton from the zero extension of warm, a root on a smaller ball, or
    from min(f_k, 0) if warm is None: None if it raises, else the root f*,
    clipped to f* <= 0, the sup norm of r(f*), rho = |r(f*)| raised point by
    point by its rounding allowance, and I(f*)."""
    dom = f_k.domain
    try:
        # the start is built in the call, so newton_solve holds it alone and frees it
        root = newton_solve(
            Field.from_interior(dom, np.minimum(f_k.interior_values, 0.0)) if warm is None
            else extend_by_zero(warm, dom),
            problem, tol=NEWTON_TOL_FACTOR * tol)
    except ConvergenceError:
        return None
    root = Field.from_interior(dom, np.minimum(root.interior_values, 0.0))
    fs = root.interior_values
    lap = laplacian(root)
    energy = energy_eval(root, problem, lap)
    r = np.abs(residual(root, problem, lap))
    r_size = (neighbor_sum(dom, np.abs(root.values)) + dom.degree * np.abs(fs)
              + np.abs(nonlinearity(fs, problem.params)) + problem.source.interior_values)
    return root, float(np.max(r)), r + _rounding(dom) * r_size, energy


def _certify(
    kept: tuple[Field, float, np.ndarray, float], f_k: Field, problem: Problem, tol: float,
) -> MaximalityCertificate | None:
    """solve_bounded's test of a _newton_root result against f_k's bracket; None if it fails."""
    root, _, rho, _ = kept
    dom, fs, params = root.domain, root.interior_values, problem.params
    rho_max = float(np.max(rho))
    if rho_max == 0.0:
        # no residual and no rounding: f* = 0 and g = 0, so f* solves and f_max <= 0 = f* <= f_max
        return MaximalityCertificate(0.0, 0.0, 0.0)
    bracket = (fs - tol, np.maximum(f_k.interior_values, fs) + MONOTONE_TOL)
    m = nonlinearity_deriv(np.clip(-2.0 * math.log1p(params.a) / params.a, *bracket), params)
    del bracket
    # ||rhs||_2 <= sqrt(n) (1 + eta) max rho, so this tol_rel bounds ||A z - rhs||_inf
    # by eta max rho; the tests below decide on A z recomputed from the stored z
    eta = CERTIFICATE_SLACK
    tol_rel = eta / ((1.0 + eta) * math.sqrt(dom.n_interior))
    try:
        z = linear_solve(LinearSystem(dom, m, -(rho + eta * rho_max)), tol_rel).interior_values
    except ConvergenceError:
        return None
    # A z less its rounding allowance; the terms of N' are at most lam (a + 2) on f <= 0
    z_sum = neighbor_sum(dom, Field.from_interior(dom, z).values)
    az_size = (np.abs(m) + dom.degree + params.lam * (params.a + 2.0)) * z + z_sum
    az_low = (m + dom.degree) * z - z_sum - _rounding(dom) * az_size
    if not (np.all(z > 0.0) and np.all(az_low >= rho) and np.all(az_low > 0.0)
            and np.max(z) <= tol):
        return None
    return MaximalityCertificate(float(np.max(z)), rho_max, float(np.sum(rho)))


def newton_solve(
    f_init: Field, problem: Problem, tol: float = DEFAULT_TOL_NONLINEAR,
) -> Field:
    """Damped Newton iteration on r(f) = L f - N(f) - g from a nonpositive start.

    r and g are the problem's.  solve_bounded's finish and the verify
    suite's maximality oracle, whose starts share the solution's problem.
    The root lies on the problem's ball, and a start on another ball raises
    ValueError.  A start above zero by at most FIELD_SIGN_TOL (roundoff in
    a monotone iterate) is clipped to zero; a larger value, or a tol that
    is not a positive number (lattice.validate_float), raises ValueError.

    The Newton step s solves (L - N'(f)) s = -r, the symmetric Jacobian
    taken as the linear solver's operator with per-point shift K = N'(f):
    one matrix-free CG solve, no N x N matrix.  The solve is inexact, to
    the relative residual eta = max(min(NEWTON_FORCING_MAX, ||r||_inf),
    NEWTON_FORCING_FLOOR * tol / ||r||_2), a forcing term in the sense of
    Eisenstat & Walker (1996): the first term keeps the convergence
    quadratic, the floor stops the last step at a linear residual of
    NEWTON_FORCING_FLOOR * tol instead of solving it further.  eta < 1, as
    the loop runs only while ||r||_inf > tol.  Steps are halved (up to
    30 times) until the sup-norm residual decreases.  Divergence, no root
    within NEWTON_MAX_STEPS steps, or a Jacobian that CG finds not negative
    definite raises ConvergenceError carrying the last Newton iterate.
    """
    tol = validate_float(tol, "tol", low=0)
    dom, start_dom, params = problem.domain, f_init.domain, problem.params
    if (start_dom.dim, start_dom.radius) != (dom.dim, dom.radius):
        raise ValueError(
            f"newton_solve needs a start on the problem's ball B_{dom.radius} of Z^{dom.dim}, "
            f"got one on B_{start_dom.radius} of Z^{start_dom.dim}"
        )
    top = float(np.max(f_init.values))
    if top > FIELD_SIGN_TOL:
        raise ValueError(
            f"newton_solve expects a nonpositive initial field (up to FIELD_SIGN_TOL="
            f"{FIELD_SIGN_TOL:.0e}), got a value {top:.3e}"
        )
    f = np.minimum(f_init.interior_values, 0.0)
    del f_init  # frees a start that the caller built in the call
    r = residual(Field.from_interior(dom, f), problem)
    r_norm = float(np.max(np.abs(r)))

    def failure(message: str) -> ConvergenceError:
        return ConvergenceError(message, best=Field.from_interior(dom, f), residual=r_norm)

    for _ in range(NEWTON_MAX_STEPS):
        if r_norm <= tol:
            break
        eta = max(min(NEWTON_FORCING_MAX, r_norm),
                  NEWTON_FORCING_FLOOR * tol / math.sqrt(np.dot(r, r)))
        np.negative(r, out=r)  # the step's rhs -r; r is not read again before it is replaced
        try:
            step = linear_solve(LinearSystem(dom, nonlinearity_deriv(f, params), r), eta)
        except ConvergenceError as exc:
            raise failure(f"Newton step failed at residual {r_norm:.3e}: {exc}") from exc
        step = step.interior_values.copy()  # the line search holds no closure-size array
        t = 1.0
        for _ in range(30):
            trial = f + t * step
            r_trial = residual(Field.from_interior(dom, trial), problem)
            r_trial_norm = float(np.max(np.abs(r_trial)))
            if r_trial_norm < r_norm:
                f, r, r_norm = trial, r_trial, r_trial_norm
                break
            t *= 0.5
        else:
            raise failure(f"Newton stalled at residual {r_norm:.3e}")
    if r_norm > tol:
        raise failure(f"Newton did not reach tol={tol} in {NEWTON_MAX_STEPS} steps "
                      f"(residual {r_norm:.3e})")
    return Field.from_interior(dom, f)
