"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.  Expected values come from closed forms, bisection,
dense linear algebra, or direct stencil arithmetic written out in this
module, independent of the library code paths they certify.
"""

import math
import time

import numpy as np
import pytest

from cslattice import (
    ConvergenceError,
    Field,
    LinearSystem,
    Params,
    VortexConfig,
    barrier_check,
    build_domain,
    coercivity_check,
    decay_fit,
    dense_solve,
    energy_eval,
    iterate_once,
    linear_solve,
    newton_solve,
    residual,
    run_exhaustion,
    solve_bounded,
)

from conftest import bisection_root, linear_energy_eval, problem_on

ONE_VORTEX = VortexConfig([((0, 0), 1)])
FOUR_PI = 4 * math.pi
TIGHT = 1e-13  # tol_rel of the linear-solver criteria


def criterion(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def collect_iterates(problem, tol, max_steps=800):
    """Manual iteration loop returning every iterate from f_0 = 0."""
    fields = [Field.zeros(problem.domain)]
    for _ in range(max_steps):
        prev = fields[-1]
        nxt = iterate_once(prev, problem)
        fields.append(nxt)
        sup = float(np.max(np.abs(nxt.values - prev.values)))
        res = float(np.max(np.abs(residual(nxt, problem))))
        if sup < tol and res <= 100.0 * tol:
            return fields
    raise AssertionError("iteration did not converge within max_steps")


@pytest.fixture(scope="module")
def r20_run():
    t0 = time.perf_counter()
    problem = problem_on(build_domain(2, 20))
    fields = collect_iterates(problem, 1e-11)
    return problem.domain, fields, problem, time.perf_counter() - t0


@pytest.fixture(scope="module")
def exhaustion_result():
    t0 = time.perf_counter()
    res = run_exhaustion(2, ONE_VORTEX, Params(1.0, 1.0), [10, 20, 30], tol_nonlinear=1e-10)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def r40_solution():
    t0 = time.perf_counter()
    sol = solve_bounded(problem_on(build_domain(2, 40)), tol_nonlinear=1e-10)
    return sol, time.perf_counter() - t0


def test_criterion_01_single_vertex_closed_forms():
    t0 = time.perf_counter()
    problem = problem_on(build_domain(2, 0), params=Params(1.0, 1.0, 2.0))
    f1 = iterate_once(Field.zeros(problem.domain), problem)
    gap_f1 = abs(f1((0, 0)) - (-2 * math.pi / 3))

    sol = solve_bounded(problem, tol_nonlinear=1e-12)
    root = bisection_root(
        lambda t: 4 * t + math.exp(t) * (math.exp(t) - 1) + FOUR_PI, -15.0, 0.0
    )
    gap_limit = abs(sol.field((0, 0)) - root)
    elapsed = time.perf_counter() - t0
    criterion(
        1, "single-vertex closed forms",
        gap_f1 <= 1e-12 and gap_limit <= 1e-9 and elapsed < 1.0,
        f"|f1 + 2pi/3|={gap_f1:.2e}, |f - root|={gap_limit:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_iterate_monotonicity(r20_run):
    _, fields, _, elapsed = r20_run
    worst = max(
        float(np.max(b.values - a.values)) for a, b in zip(fields, fields[1:])
    )
    criterion(
        2, "monotone decreasing iterates",
        worst <= 1e-10 and elapsed < 10.0,
        f"max rise {worst:.2e} over {len(fields) - 1} steps, {elapsed:.2f}s",
    )


def test_criterion_03_energy_chain(r20_run):
    _, fields, problem, _ = r20_run
    energies = [energy_eval(f, problem) for f in fields]
    rise = max(b - a for a, b in zip(energies, energies[1:]))
    positive = max(energies[1:])
    criterion(
        3, "energy nonincreasing and nonpositive",
        rise <= 1e-10 and positive <= 0.0,
        f"max rise {rise:.2e}, max I(f_k) {positive:.3e}",
    )


def test_criterion_04_solution_quality(r20_run):
    dom, fields, _, _ = r20_run
    f = fields[-1]
    lam = a = 1.0
    # residual and flux evaluated by direct stencil arithmetic on points
    res_sup = 0.0
    nonlin_mass = 0.0
    flux = 0.0
    for p in map(tuple, dom.coords[: dom.n_interior].tolist()):
        fp = f(p)
        lap = 0.0
        for axis in range(2):
            for step in (-1, 1):
                q = p[:axis] + (p[axis] + step,) + p[axis + 1 :]
                lap += f(q) - fp
                if abs(q[0]) + abs(q[1]) == dom.radius + 1:
                    flux += f(q) - fp
        nonlin = lam * math.exp(fp) * (math.exp(a * fp) - 1.0)
        nonlin_mass += nonlin
        source = FOUR_PI if p == (0, 0) else 0.0
        res_sup = max(res_sup, abs(lap - nonlin - source))
    flux_gap = abs(nonlin_mass + FOUR_PI - flux)
    criterion(
        4, "terminal residual and flux identity",
        res_sup <= 1e-8 and flux_gap <= 1e-8,
        f"residual {res_sup:.2e}, flux gap {flux_gap:.2e}",
    )


def test_criterion_05_linear_solver_oracle():
    rng = np.random.default_rng(20260809)
    worst_rel = 0.0
    for i in range(20):
        n, radius = (2, 3 + i % 13) if i % 2 == 0 else (3, 2 + i % 4)
        dom = build_domain(n, radius)
        assert dom.n_interior <= 500
        sys_ = LinearSystem(dom, 3.0, rng.standard_normal(dom.n_interior))
        it = linear_solve(sys_, TIGHT).interior_values
        dd = dense_solve(sys_).interior_values
        worst_rel = max(worst_rel, float(np.linalg.norm(it - dd) / np.linalg.norm(dd)))

    dom = build_domain(2, 4)
    K = 2.0
    v = rng.standard_normal(dom.n_interior)
    system = LinearSystem(dom, K, v)
    u = linear_solve(system, TIGHT).interior_values
    base = linear_energy_eval(system, u)
    worst_drop = math.inf
    for _ in range(100):
        phi = rng.standard_normal(dom.n_interior)
        phi /= np.linalg.norm(phi)
        for t in (1e-2, -1e-2, 1e-4, -1e-4):
            worst_drop = min(worst_drop, linear_energy_eval(system, u + t * phi) - base)
    criterion(
        5, "iterative solver vs dense oracle, minimizer property",
        worst_rel <= 1e-10 and worst_drop >= -1e-12,
        f"worst rel err {worst_rel:.2e}, worst F drop {worst_drop:.2e}",
    )


def test_criterion_06_exhaustion_monotonicity(exhaustion_result):
    res, elapsed = exhaustion_result
    worst_delta = -math.inf
    for small, big in zip(res.solutions, res.solutions[1:]):
        worst_delta = max(
            worst_delta,
            max(big.field(p) - small.field(p) for p in small.domain.coords.tolist()),
        )
    l2 = [float(np.linalg.norm(s.field.interior_values)) for s in res.solutions]
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(l2, l2[1:]))
    gap = abs(l2[2] - l2[1])
    criterion(
        6, "nested-domain monotonicity and l2 stabilization",
        worst_delta <= 1e-8 and nondecreasing and gap <= 1e-3 and elapsed < 60.0,
        f"worst delta {worst_delta:.2e}, l2 gap {gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_07_decay_estimate(r40_solution):
    sol, elapsed = r40_solution
    alpha = math.log(1.25)
    eps = 0.1
    fit = decay_fit(sol, eps)
    ok_alpha = abs(fit.alpha_theory - 0.22314355) <= 1e-8
    ok_window = fit.fit_window == (10, 20)
    ok_rate = fit.fitted_rate >= (1 - eps) * alpha - 0.01

    # recompute shell maxima directly and verify the certificate covers them
    dom = sol.domain
    beta = alpha * (1 - eps)
    shell_max = {}
    for p, v in zip(dom.coords.tolist(), sol.field.values):
        d = abs(p[0]) + abs(p[1])
        if 10 <= d <= 20:
            shell_max[d] = max(shell_max.get(d, 0.0), abs(v))
    covered = all(
        mx <= fit.c_fit * math.exp(-beta * d) * (1 + 1e-12)
        for d, mx in shell_max.items()
    )
    criterion(
        7, "decay rate certificate",
        ok_alpha and ok_window and ok_rate and covered
        and math.isfinite(fit.c_fit) and elapsed < 120.0,
        f"fitted {fit.fitted_rate:.4f} >= {(1 - eps) * alpha - 0.01:.4f}, "
        f"C={fit.c_fit:.4g}, {elapsed:.1f}s",
    )


def test_criterion_08_barrier_inequality():
    # the closed form against direct stencil arithmetic at every point of the
    # shells d = 1..6, neighbour terms (v(q) - v(x)) / |v(x)| summed exactly
    ok, worst = True, math.inf
    for n in (2, 3):
        for eps in (0.1, 0.5):
            params = Params(1.0, 1.0)
            rep = barrier_check(n, params, eps)
            beta = math.log(1 + params.lam * params.a / (2 * n)) * (1 - eps)
            brute = math.inf
            for p in np.ndindex(*(13,) * n):
                x = [c - 6 for c in p]
                s = sum(map(abs, x))
                if not 1 <= s <= 6:
                    continue
                terms = [rep.c1]
                for axis in range(n):
                    for step in (-1, 1):
                        d = s - abs(x[axis]) + abs(x[axis] + step)
                        terms.append(-math.expm1(-beta * (d - s)))
                brute = min(brute, math.fsum(terms))
            ok = ok and rep.min_margin == pytest.approx(brute, rel=1e-12)
            ok = ok and rep.min_margin == pytest.approx(2 * n * math.sinh(beta), rel=1e-12)
            worst = min(worst, rep.min_margin)
    criterion(
        8, "barrier inequality on all shells",
        ok and worst >= -1e-15,
        f"min margin {worst:.3e} = 2n sinh(beta) = brute force over n in {{2,3}}, "
        "eps in {0.1,0.5}",
    )


def test_criterion_09_coercivity_constant():
    # c = min(a/2, a/(a+1)): the ratio's limit at x = 0 for a <= 1 and as
    # x -> -inf for a >= 1, never undercut in between
    expected = {0.05: 0.025, 0.5: 0.25, 1.0: 0.5, 2.0: 2 / 3, 5.0: 5 / 6}
    got = {a: coercivity_check(a) for a in expected}
    ok = got == expected
    for a, c in got.items():
        for t in np.logspace(-3, 3, 61):
            w = math.expm1(-(a + 1) * t) / (a + 1) - math.expm1(-t)
            ok = ok and w / (t / (1 + t)) ** 2 >= c * (1 - 1e-12)
    criterion(
        9, "coercivity constant of the potential density",
        ok,
        "c " + ", ".join(f"a={a}: {c:.4f}" for a, c in got.items()),
    )


def test_criterion_10_maximality():
    rng = np.random.default_rng(424242)
    dom = build_domain(2, 8)
    reference = solve_bounded(problem_on(dom), tol_nonlinear=1e-11)
    worst = -math.inf
    converged = 0
    for _ in range(10):
        start = Field.from_interior(dom, -3.0 * rng.random(dom.n_interior))
        try:
            root = newton_solve(start, reference.problem, tol=1e-10)
        except ConvergenceError:
            continue
        converged += 1
        worst = max(worst, float(np.max(root.values - reference.field.values)))
    criterion(
        10, "maximality against damped-Newton roots",
        converged >= 1 and worst <= 1e-8,
        f"{converged}/10 converged, worst excess {worst:.2e}",
    )


def test_criterion_11_symmetry():
    sol = solve_bounded(problem_on(build_domain(2, 15)))
    by_orbit = {}
    worst = 0.0
    for p in sol.domain.coords.tolist():
        canon = tuple(sorted(abs(c) for c in p))
        v = sol.field(p)
        if canon in by_orbit:
            worst = max(worst, abs(v - by_orbit[canon]))
        else:
            by_orbit[canon] = v
    criterion(
        11, "square-symmetry equivariance",
        worst <= 1e-10,
        f"max orbit deviation {worst:.2e}",
    )
