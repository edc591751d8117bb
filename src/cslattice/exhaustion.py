"""Domain exhaustion, decay-rate certification, and auxiliary verifiers.

The whole-lattice maximal solution is approximated by solving on an
increasing family of Manhattan balls and extending by zero.  Along such a
family the solutions decrease pointwise and their l2 norms stay uniformly
bounded, so the tail of the norm sequence stabilizes.  The pointwise
decrease also makes each radius's last monotone iterate, extended by zero,
an upper solution on the next ball, so the solve there starts from it.

The far-field decay obeys |f(x)| = O(e^{-alpha (1-eps) d(x)}) with
alpha = ln(1 + lam*a/(2n)) for every eps in (0, 1); this module fits the
observed shell-max decay and produces the certificate constant.  The two
pointwise lemmas behind that estimate, the comparison barrier
(barrier_check) and the coercivity of the potential density that powers
the uniform l2 bound (coercivity_check), are computed in closed form, each
proved in its function's docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, ConvergenceError
from .fields import Field, norm
from .lattice import (Params, Problem, VortexConfig, build_domain, manhattan_norm, shell_size,
                      validate_dimension, validate_float, validate_int)
from .scheme import DEFAULT_MAX_STEPS, DEFAULT_TOL_NONLINEAR, BoundedSolution, solve_bounded

SHELL_VALUE_GUARD = 1e-300  # double-precision floor before taking logs

# Thresholds of the exhaustion and decay invariants; the nesting's is proved
# from the certificates (ExhaustionResult.nested_bounds).
L2_DROP_TOL = 1e-12            # l2 norms may drop by at most this along the radii
L2_STABILIZATION_TOL = 1e-3    # |l2(R_last) - l2(R_prev)| <= this
RATE_MARGIN = 0.01             # fitted rate >= certified rate - this

BARRIER_SHELLS = (2, 20)       # only counted into points_checked: see BarrierReport
LP_ORDERS = (1.0, 2.0, 4.0, math.inf)  # the orders p of lp_summary's l^p norms


def decay_rate_theory(params: Params, n: int) -> float:
    """alpha = ln(1 + lam*a/(2n)), the paper's decay rate; decay_rate_sharp(lam*a, n) is sharp.
    n must be an integer >= 2 (ValueError naming ``dimension`` otherwise)."""
    n = validate_dimension(n)
    return math.log(1.0 + params.lam * params.a / (2.0 * n))


def decay_rate_sharp(c: float, n: int) -> float:
    """beta*(c) = arccosh(1 + c/(2n)), the largest beta with L v >= c v on Z^n
    for v = -e^{-beta d} (barrier_check).  c must be a number > 0 and n an
    integer >= 2 (ValueError naming ``c`` or ``dimension`` otherwise)."""
    c = validate_float(c, "c", low=0)
    n = validate_dimension(n)
    return math.acosh(1.0 + c / (2.0 * n))


def barrier_constant(params: Params, n: int, epsilon: float) -> float:
    """c1 = 2n [(1 + lam*a/(2n))^(1-eps) - 1]; equals lam*a at eps = 0.  n must be
    an integer >= 2 and epsilon a number < 1 (ValueError naming ``dimension``
    or ``epsilon`` otherwise); c1 > 0 exactly when eps < 1."""
    n = validate_dimension(n)
    epsilon = validate_float(epsilon, "epsilon", high=1)
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
    # at most nested_bounds[i] by nested-domain monotonicity
    pointwise_deltas: tuple[float, ...]

    @property
    def largest(self) -> BoundedSolution:
        return self.solutions[-1]

    @property
    def nested_bounds(self) -> tuple[float, ...]:
        """bound_R + bound_R' for each pair R < R' of consecutive radii: the
        proven ceiling of that pair's pointwise_delta.

        Proof.  Write f_R for the solution on B_R, f_max^R for the maximal
        solution there and z_R for its certificate's z, so |f_R - f_max^R|
        <= z_R <= bound_R.  On the closure of B_R, f_max^R' <= f_max^R by
        the paper's nested monotonicity (solve_bounded, step 1), so f_R' <=
        f_max^R' + z_R' <= f_max^R + z_R' <= f_R + z_R + z_R'; on B_R's
        sphere f_R = 0 >= f_R' in any case.  The computed difference rounds
        monotonically, so it stays below the rounded sum of the bounds.
        """
        return tuple(a.certificate.bound + b.certificate.bound
                     for a, b in zip(self.solutions, self.solutions[1:]))


def run_exhaustion(
    n: int,
    vc: VortexConfig,
    params: Params,
    radii,
    tol_nonlinear: float = DEFAULT_TOL_NONLINEAR,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ExhaustionResult:
    """Solve one Problem per radius, extend by zero, and record the nesting data.

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
                Problem(build_domain(n, r), vc, params), tol_nonlinear, max_steps, previous
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
    radii = [validate_int(r, f"radii[{i}]", low=0) for i, r in enumerate(radii)]
    if not radii:
        raise ValueError("radii must be a nonempty list")
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
    return validate_float(epsilon, "epsilon", low=0, high=1)


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


def shell_profile(sol: BoundedSolution) -> list[tuple[int, float]]:
    """Per-distance maxima (d, max |f|) over interior shells d = 0..R."""
    dom = sol.domain
    hi = np.full(dom.radius + 1, -np.inf)
    np.maximum.at(hi, dom.distances[: dom.n_interior].astype(np.intp),
                  np.abs(sol.field.interior_values))
    return list(zip(range(dom.radius + 1), hi.tolist()))


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
    epsilon = validate_epsilon(epsilon)
    dom = sol.domain
    n = dom.dim
    alpha = decay_rate_theory(sol.problem.params, n)
    lo, hi = max(1, dom.radius // 4), dom.radius // 2
    prof = shell_profile(sol)
    ds = np.array([d for d, mx in prof if lo <= d <= hi and mx > SHELL_VALUE_GUARD])
    maxima = np.array([mx for d, mx in prof if lo <= d <= hi and mx > SHELL_VALUE_GUARD])
    if ds.size < 2:
        raise AnalysisError(
            f"decay window [{lo}, {hi}] has {ds.size} usable shells; "
            "solution too small or trivial"
        )
    # The least-squares slope in closed form, over centred abscissae.
    x = ds - ds.mean()
    slope = float(np.dot(x, np.log(maxima)) / np.dot(x, x))
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
    """The barrier inequality L v >= c1 v as its least margin over Z^n."""

    c1: float
    # The number of points on BARRIER_SHELLS, none of them evaluated; kept
    # until the benchmark drops its exhaustion.barrier_check.points counter.
    points_checked: int
    min_margin: float  # min over x in Z^n of (L v - c1 v)(x) / |v(x)|


def barrier_check(n: int, params: Params, epsilon: float) -> BarrierReport:
    """The least margin of L v >= c1 v for v = -e^{-beta d}, beta = alpha(1-eps).

    Proof.  Let x lie on the shell d >= 1 and have k nonzero coordinates.
    Along a nonzero axis its two neighbours lie on the shells d - 1 and
    d + 1; along a zero axis both lie on d + 1.  With |v(x)| = e^{-beta d},

        (L v - c1 v)(x) / |v(x)| = c1 - k (2 cosh beta - 2) + (n - k)(2 - 2 e^{-beta}),

    which also holds at x = 0 (k = 0).  Both brackets are positive, so this
    is least at k = n, which occurs on every shell d >= n.  The minimum over
    Z^n is therefore c1 - 2n (cosh beta - 1), and it is >= 0 exactly when
    beta <= decay_rate_sharp(c1, n).  As c1 = 2n (e^beta - 1), it equals
    2n sinh beta > 0 for every eps.  n must be an integer >= 2 (ValueError
    naming ``dimension`` otherwise).
    """
    n = validate_dimension(n)
    epsilon = validate_epsilon(epsilon)
    beta = decay_rate_theory(params, n) * (1.0 - epsilon)
    c1 = barrier_constant(params, n, epsilon)
    # 2n (cosh beta - 1) written as 4n sinh^2(beta/2) keeps its digits as beta -> 0
    margin = c1 - 4.0 * n * math.sinh(beta / 2.0) ** 2
    r_lo, r_hi = BARRIER_SHELLS
    return BarrierReport(
        c1=c1,
        points_checked=sum(shell_size(n, s) for s in range(r_lo, r_hi + 1)),
        min_margin=margin,
    )


def coercivity_check(a: float) -> float:
    """The best c with w(x) >= c (|x|/(1+|x|))^2 on x <= 0: c = min(a/2, a/(a+1)).

    w(x) = [(e^{(a+1)x} - 1) + (a+1)(1 - e^x)]/(a+1).  Proof.  Put t = -x
    and y = 1 - e^{-t} in [0, 1).  Then w = phi(y) = int_0^y g(s) ds with
    g(s) = 1 - (1-s)^a, and phi(y)/y^2 = int_0^1 (g(yu)/(yu)) u du.  For
    a >= 1, g is concave with g(0) = 0, so g(s)/s falls and so does
    phi(y)/y^2, towards its value a/(a+1) at y = 1.  For a <= 1, g is
    convex, so phi(y)/y^2 rises from its limit g'(0)/2 = a/2 at y = 0.
    Either way phi(y) >= c y^2, and y >= t/(1+t) because e^t >= 1 + t,
    which proves the bound.  As t -> 0, y (1+t)/t -> 1, and as t -> inf,
    y and t/(1+t) -> 1, so the ratio tends to a/2 and to a/(a+1): c is
    the exact infimum.  a must be a number > 0 (ValueError naming ``a``).
    """
    a = validate_float(a, "a", low=0)
    return min(a / 2.0, a / (a + 1.0))


@dataclass(frozen=True)
class LpSummary:
    """l^p norms of the largest-radius solution and l1 stabilization data."""

    norms: dict[float, float]
    l1_diffs: tuple[float, ...]
    l1_tail_bound: float | None
    all_finite: bool


def lp_summary(result: ExhaustionResult, fit: DecayFit | None = None) -> LpSummary:
    """Tabulate the l^p norms for p in LP_ORDERS and, given a decay
    certificate, bound the l1 tail.

    The bound sums C_fit * (shell size) * e^{-alpha(1-eps) d} over shells
    beyond half the second-largest radius, the region where the two
    largest solutions can differ materially.
    """
    f = result.largest.field
    norms = {p: norm(f, p) for p in LP_ORDERS}
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
