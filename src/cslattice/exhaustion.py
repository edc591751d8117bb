"""Domain exhaustion, decay-rate certification, and auxiliary verifiers.

The whole-lattice maximal solution is approximated by solving on an
increasing family of Manhattan balls and extending by zero.  Along such a
family the solutions decrease pointwise and their l2 norms stay uniformly
bounded, so the tail of the norm sequence stabilizes.  The pointwise
decrease also makes each radius's last monotone iterate, extended by zero,
an upper solution on the next ball, so the solve there starts from it.

The far-field decay obeys |f(x)| = O(e^{-alpha (1-eps) d(x)}) with
alpha = ln(1 + lam*a/(2n)) for every eps in (0, 1); this module fits the
observed shell-max decay and produces the certificate constant, and
separately verifies the two pointwise inequalities behind that estimate:

  * the comparison barrier v(x) = -e^{-alpha(1-eps) d(x)} satisfies
    L v >= c1 v with c1 = 2n [(1 + lam*a/(2n))^{1-eps} - 1] on every shell;
  * the potential density w(x) = [(e^{(a+1)x} - 1) + (a+1)(1 - e^x)]/(a+1)
    dominates c * (|x|/(1+|x|))^2 on x <= 0 for a positive constant c
    (the coercivity that powers the uniform l2 bound).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, ConvergenceError
from .fields import Field, norm
from .lattice import (Params, VortexConfig, build_domain, manhattan_norm, shell_size,
                      validate_dimension, validate_float, validate_int)
from .scheme import DEFAULT_MAX_STEPS, DEFAULT_TOL_NONLINEAR, BoundedSolution, solve_bounded

SHELL_VALUE_GUARD = 1e-300  # double-precision floor before taking logs

# Thresholds of the exhaustion and decay invariants.
NESTED_TOL = 1e-8              # f^{(R_{i+1})} - f^{(R_i)} <= this on B_{R_i}
L2_DROP_TOL = 1e-12            # l2 norms may drop by at most this along the radii
L2_STABILIZATION_TOL = 1e-3    # |l2(R_last) - l2(R_prev)| <= this
RATE_MARGIN = 0.01             # fitted rate >= certified rate - this
BARRIER_MARGIN_FLOOR = -1e-15  # barrier margins (L v - c1 v)/|v| >= this
COERCIVITY_FLOOR = 0.0         # the coercivity constant is > this: strict, no slack

BARRIER_SHELLS = (2, 20)       # barrier_check covers the shells d = 2..20


def decay_rate_theory(params: Params, n: int) -> float:
    """alpha = ln(1 + lam*a/(2n)), the certified Manhattan decay rate."""
    return math.log(1.0 + params.lam * params.a / (2.0 * n))


def barrier_constant(params: Params, n: int, epsilon: float) -> float:
    """c1 = 2n [(1 + lam*a/(2n))^(1-eps) - 1]; equals lam*a in the eps -> 0 limit."""
    return 2.0 * n * ((1.0 + params.lam * params.a / (2.0 * n)) ** (1.0 - epsilon) - 1.0)


@dataclass(frozen=True)
class ExhaustionResult:
    """Solutions over an increasing radius schedule plus monotonicity data."""

    radii: tuple[int, ...]
    solutions: tuple[BoundedSolution, ...]
    l1_norms: tuple[float, ...]
    l2_norms: tuple[float, ...]
    sup_norms: tuple[float, ...]
    # max over the closure of B_{R_i} of (f^{(R_{i+1})} - f^{(R_i)});
    # nonpositive up to solver tolerance by nested-domain monotonicity
    pointwise_deltas: tuple[float, ...]

    @property
    def largest(self) -> BoundedSolution:
        return self.solutions[-1]


def run_exhaustion(
    n: int,
    vc: VortexConfig,
    params: Params,
    radii,
    tol_nonlinear: float = DEFAULT_TOL_NONLINEAR,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ExhaustionResult:
    """Solve on each radius, extend by zero, and record the nesting data.

    The radii are validated by validate_radii.  The first radius is solved
    from zero; every later one is warm-started from the previous radius's
    solution extended by zero (solve_bounded's ``previous``), so its
    ``iterations`` count only the monotone steps taken from that start.  A
    failed solve raises ConvergenceError with the completed smaller radii
    attached as ``partial``.
    """
    radii = validate_radii(radii, vc)
    solutions: list[BoundedSolution] = []
    for r in radii:
        previous = solutions[-1] if solutions else None
        try:
            solutions.append(solve_bounded(
                build_domain(n, r), vc, params, tol_nonlinear, max_steps, previous
            ))
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"bounded solve failed at radius {r}: {exc}",
                partial=_assemble(radii[: len(solutions)], solutions),
                trace=exc.trace,
            ) from exc
    return _assemble(radii, solutions)


def validate_radii(radii, vc: VortexConfig) -> list[int]:
    """The radius schedule as ints; raises ValueError unless it is usable.

    It must be a nonempty, strictly increasing list of nonnegative integers
    (not bools or floats), and the smallest ball must contain every vortex.
    """
    radii = [validate_int(r, f"radii[{i}]") for i, r in enumerate(radii)]
    if not radii:
        raise ValueError("radii must be a nonempty list")
    if radii[0] < 0:
        raise ValueError(f"radii must be nonnegative, got {radii}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"radii must be strictly increasing, got {radii}")
    for p, _ in vc.vortices:
        if manhattan_norm(p) > radii[0]:
            raise ValueError(
                f"vortex {p} lies outside the smallest ball (radius {radii[0]})"
            )
    return radii


def validate_epsilon(epsilon: float) -> float:
    """The decay parameter as a float; raises ValueError unless it is a number in (0, 1)."""
    epsilon = validate_float(epsilon, "epsilon")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return epsilon


def _assemble(radii, solutions) -> ExhaustionResult:
    l1 = tuple(norm(s.field, 1) for s in solutions)
    l2 = tuple(norm(s.field, 2) for s in solutions)
    sup = tuple(norm(s.field, math.inf) for s in solutions)
    deltas = tuple(
        _nested_delta(a.field, b.field) for a, b in zip(solutions, solutions[1:])
    )
    return ExhaustionResult(
        radii=tuple(radii),
        solutions=tuple(solutions),
        l1_norms=l1,
        l2_norms=l2,
        sup_norms=sup,
        pointwise_deltas=deltas,
    )


def _nested_delta(small: Field, big: Field) -> float:
    """max over the closure of small's ball of big - small: the nesting margin."""
    return float(np.max(big.values[big.domain.locate_closure(small.domain)] - small.values))


def shell_profile(sol: BoundedSolution) -> list[tuple[int, float, float]]:
    """Per-distance extrema (d, max |f|, min |f|) over interior shells d = 0..R."""
    dom = sol.domain
    absvals = np.abs(sol.field.interior_values)
    dists = dom.distances[: dom.n_interior]
    hi, lo = np.full(dom.radius + 1, -np.inf), np.full(dom.radius + 1, np.inf)
    np.maximum.at(hi, dists, absvals)
    np.minimum.at(lo, dists, absvals)
    return list(zip(range(dom.radius + 1), hi.tolist(), lo.tolist()))


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay certificate over a window of interior shells."""

    alpha_theory: float
    epsilon: float
    fit_window: tuple[int, int]
    fitted_rate: float  # -slope of log (shell max |f|) against d
    c_fit: float        # smallest C with max |f| <= C e^{-alpha(1-eps) d} on the window

    @property
    def certified_rate(self) -> float:
        return self.alpha_theory * (1.0 - self.epsilon)


def decay_fit(sol: BoundedSolution, epsilon: float) -> DecayFit:
    """Fit the shell-max decay and compute the covering constant C.

    The window [R/4, R/2] keeps the fit away from the vortex core and from
    the artificial zero boundary, whose proximity over-steepens the tail.
    Shells whose maximum falls below the underflow guard are dropped; an
    empty window raises AnalysisError.
    """
    validate_epsilon(epsilon)
    dom = sol.domain
    n = dom.dim
    alpha = decay_rate_theory(sol.params, n)
    lo, hi = max(1, dom.radius // 4), dom.radius // 2
    prof = shell_profile(sol)
    ds = np.array([d for d, mx, _ in prof if lo <= d <= hi and mx > SHELL_VALUE_GUARD])
    maxima = np.array([mx for d, mx, _ in prof if lo <= d <= hi and mx > SHELL_VALUE_GUARD])
    if ds.size < 2:
        raise AnalysisError(
            f"decay window [{lo}, {hi}] has {ds.size} usable shells; "
            "solution too small or trivial"
        )
    slope = np.polyfit(ds.astype(float), np.log(maxima), 1)[0]
    beta = alpha * (1.0 - epsilon)
    c_fit = float(np.max(maxima * np.exp(beta * ds)))
    return DecayFit(
        alpha_theory=alpha,
        epsilon=epsilon,
        fit_window=(int(lo), int(hi)),
        fitted_rate=float(-slope),
        c_fit=c_fit,
    )


@dataclass(frozen=True)
class BarrierReport:
    """Pointwise check of L v >= c1 v for the decay barrier on a shell range."""

    c1: float
    points_checked: int
    min_margin: float  # min over points of (L v - c1 v) / |v|
    all_hold: bool


def barrier_check(n: int, params: Params, epsilon: float) -> BarrierReport:
    """Evaluate the barrier inequality exactly at every point of BARRIER_SHELLS.

    v(x) = -e^{-alpha(1-eps) d(x)}.  Each axis contributes through the two
    neighbours x +- e_i, whose distances are d +- 1 when x_i != 0 and both
    d + 1 when x_i = 0; the margin is normalized by |v(x)| so the report is
    scale-free across shells.  The margin depends only on the shell s and
    on which axes are nonzero (k of them, 1 <= k <= min(n, s)), so each such
    class is evaluated once, adding the axis terms in axis order as a
    per-point evaluation would; ``points_checked`` counts the points.  n
    must be an integer >= 2 (ValueError naming ``dimension`` otherwise).
    """
    n = validate_dimension(n)
    validate_epsilon(epsilon)
    r_lo, r_hi = BARRIER_SHELLS
    alpha = decay_rate_theory(params, n)
    beta = alpha * (1.0 - epsilon)
    c1 = barrier_constant(params, n, epsilon)
    # e^{-beta s} for every distance the stencils can reach
    expw = np.exp(-beta * np.arange(r_hi + 2, dtype=float))

    worst = math.inf
    for s in range(r_lo, r_hi + 1):
        v = -expw[s]
        nonzero_term = -expw[s - 1] - expw[s + 1] + 2.0 * expw[s]
        zero_term = -2.0 * expw[s + 1] + 2.0 * expw[s]
        for nonzero in itertools.product((False, True), repeat=n):
            if not 1 <= sum(nonzero) <= s:
                continue
            lap = 0.0
            for axis_nonzero in nonzero:
                lap += nonzero_term if axis_nonzero else zero_term
            worst = min(worst, (lap - c1 * v) / abs(v))
    return BarrierReport(
        c1=c1,
        points_checked=sum(shell_size(n, s) for s in range(r_lo, r_hi + 1)),
        min_margin=worst,
        all_hold=worst >= BARRIER_MARGIN_FLOOR,
    )


@dataclass(frozen=True)
class CoercivityReport:
    """Numerical infimum of the potential-density coercivity ratio."""

    c_est: float
    all_hold: bool


def coercivity_default_grid() -> np.ndarray:
    """Nonpositive grid: 0 plus 300 points -logspace covering [1e-8, 50]."""
    return np.concatenate(([0.0], -np.logspace(-8.0, math.log10(50.0), 300)))


def coercivity_check(a: float, x_grid) -> CoercivityReport:
    """Infimum over the grid of w(x) / (|x|/(1+|x|))^2 for nonpositive x.

    w(x) = [(e^{(a+1)x} - 1) + (a+1)(1 - e^x)]/(a+1).  At x = 0 both sides
    vanish and the ratio is taken as its limit a/2.  For a = 1 the density
    is exactly (1 - e^x)^2 / 2 and the infimum is 1/2.
    """
    if not a > 0:
        raise ValueError(f"a must be positive, got {a}")
    k = a + 1.0
    ratios = []
    for x in np.asarray(x_grid, dtype=float):
        if x > 0:
            raise ValueError(f"grid point {x} is positive; the bound concerns x <= 0")
        t = -x
        if t == 0.0:
            ratios.append(a / 2.0)
            continue
        w = math.expm1(-k * t) / k - math.expm1(-t)
        ratios.append(w / (t / (1.0 + t)) ** 2)
    c_est = float(min(ratios))
    return CoercivityReport(c_est=c_est, all_hold=c_est > COERCIVITY_FLOOR)


@dataclass(frozen=True)
class LpSummary:
    """l^p norms of the largest-radius solution and l1 stabilization data."""

    norms: dict[float, float]
    l1_diffs: tuple[float, ...]
    l1_tail_bound: float | None
    all_finite: bool


def lp_summary(result: ExhaustionResult, p_list, fit: DecayFit | None = None) -> LpSummary:
    """Tabulate l^p norms and, given a decay certificate, bound the l1 tail.

    The bound sums C_fit * (shell size) * e^{-alpha(1-eps) d} over shells
    beyond half the second-largest radius, the region where the two
    largest solutions can differ materially.
    """
    f = result.largest.field
    norms = {float(p): norm(f, float(p)) for p in p_list}
    l1_diffs = tuple(
        abs(b - a) for a, b in zip(result.l1_norms, result.l1_norms[1:])
    )
    tail_bound = None
    if fit is not None and len(result.radii) >= 2:
        n = f.domain.dim
        beta = fit.certified_rate
        d = result.radii[-2] // 2 + 1
        total = 0.0
        while True:
            term = fit.c_fit * shell_size(n, d) * math.exp(-beta * d)
            total += term
            d += 1
            if term < 1e-18 * max(total, 1.0) or d > 100_000:
                break
        tail_bound = total
    all_finite = all(math.isfinite(v) for v in norms.values())
    return LpSummary(
        norms=norms,
        l1_diffs=l1_diffs,
        l1_tail_bound=tail_bound,
        all_finite=all_finite,
    )
