import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

import cslattice.exhaustion as exhaustion_mod
from cslattice import (
    AnalysisError,
    ConvergenceError,
    LatticeDomain,
    Params,
    VortexConfig,
    assemble_source,
    barrier_check,
    barrier_constant,
    build_domain,
    coercivity_check,
    decay_fit,
    decay_rate_sharp,
    decay_rate_theory,
    energy_eval,
    lp_summary,
    residual,
    run_exhaustion,
    shell_profile,
    shell_size,
    solve_bounded,
)
import cslattice.scheme as scheme_mod
from cslattice.exhaustion import BARRIER_SHELLS, validate_epsilon
from cslattice.fields import extend_by_zero
from cslattice.lattice import manhattan_norm
from cslattice.scheme import MONOTONE_TOL

ONE_VORTEX = VortexConfig([((0, 0), 1)])
PARAMS = Params(1.0, 1.0)


@pytest.fixture(scope="module")
def small_run():
    return run_exhaustion(2, ONE_VORTEX, PARAMS, [4, 6, 8], tol_nonlinear=1e-10)


class TestRunExhaustion:
    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            run_exhaustion(2, ONE_VORTEX, PARAMS, [6, 4])
        with pytest.raises(ValueError, match="nonempty"):
            run_exhaustion(2, ONE_VORTEX, PARAMS, [])
        with pytest.raises(ValueError, match="smallest"):
            run_exhaustion(2, VortexConfig([((5, 0), 1)]), PARAMS, [4, 6])

    def test_radii_must_be_integers(self):
        # int() would truncate 2.5 to 2 (bools, strings and non-finite values:
        # test_validation.py)
        for radii, bad in (([2.5, 4.9], r"radii\[0\].*2\.5"), ([2, 4.0], r"radii\[1\].*4\.0"),
                           ([np.float64(3), 5], r"radii\[0\]")):
            with pytest.raises(ValueError, match=bad):
                exhaustion_mod.validate_radii(radii, ONE_VORTEX)
        radii = exhaustion_mod.validate_radii([np.int32(2), np.int64(4), 6], ONE_VORTEX)
        assert radii == [2, 4, 6] and all(type(r) is int for r in radii)

    def test_empty_vortices_all_zero(self):
        res = run_exhaustion(2, VortexConfig([]), PARAMS, [5])
        assert not np.any(res.largest.field.values)
        assert res.l2_norms == (0.0,)

    def test_nested_monotonicity(self, small_run):
        # each pair's delta is within the sum of its two certificate bounds
        sols = small_run.solutions
        bounds = [a.certificate.bound + b.certificate.bound for a, b in zip(sols, sols[1:])]
        assert small_run.nested_bounds == tuple(bounds)
        assert all(d <= b for d, b in zip(small_run.pointwise_deltas, bounds))
        # recompute one delta independently, point by point
        small, big = small_run.solutions[0], small_run.solutions[1]
        worst = max(
            big.field(p) - small.field(p) for p in small.domain.coords.tolist()
        )
        assert worst == pytest.approx(small_run.pointwise_deltas[0], abs=1e-15)

    def test_norms_nondecreasing(self, small_run):
        l2 = small_run.l2_norms
        assert all(b >= a - 1e-12 for a, b in zip(l2, l2[1:]))
        sup = small_run.sup_norms
        assert all(b >= a - 1e-12 for a, b in zip(sup, sup[1:]))

    def test_partial_results_on_failure(self, monkeypatch):
        real = exhaustion_mod.solve_bounded
        calls = []

        def failing(dom, *args, **kwargs):
            calls.append(dom.radius)
            if dom.radius > 4:
                raise ConvergenceError("forced failure")
            return real(dom, *args, **kwargs)

        monkeypatch.setattr(exhaustion_mod, "solve_bounded", failing)
        with pytest.raises(ConvergenceError) as err:
            run_exhaustion(2, ONE_VORTEX, PARAMS, [4, 6, 8])
        partial = err.value.partial
        assert partial is not None
        assert partial.radii == (4,)
        assert len(partial.solutions) == 1


WARM_CASES = [
    (2, ONE_VORTEX, Params(1.0, 1.0), [6, 10, 14]),
    (2, ONE_VORTEX, Params(0.1, 1.0), [8, 12, 16]),
    (3, VortexConfig([((0, 0, 0), 1)]), Params(1.0, 1.0), [3, 5, 7]),
    (3, VortexConfig([((0, 0, 0), 1)]), Params(0.1, 1.0), [3, 5, 7]),
    (4, VortexConfig([((0, 0, 0, 0), 1)]), Params(1.0, 1.0), [2, 4, 5]),
    (4, VortexConfig([((0, 0, 0, 0), 1)]), Params(0.1, 1.0), [2, 4, 5]),
    (2, VortexConfig([((0, 0), 2), ((3, 0), 1)]), Params(1.0, 1.0), [4, 8, 12]),
]


class TestWarmStart:
    @pytest.mark.parametrize("n, radii", [(2, (6, 10)), (3, (3, 5))])
    def test_extended_last_iterate_is_upper_solution(self, n, radii):
        vc = VortexConfig([((0,) * n, 1)])
        small = solve_bounded(build_domain(n, radii[0]), vc, PARAMS)
        dom = build_domain(n, radii[1])
        start = extend_by_zero(small.upper, dom)
        assert np.max(residual(start, assemble_source(dom, vc), PARAMS)) <= MONOTONE_TOL
        cold = solve_bounded(dom, vc, PARAMS)
        assert cold.certificate is not None
        # f_max >= cold.field - bound, and start >= f_max up to the CG error
        assert np.all(start.values >= cold.field.values - cold.certificate.bound - MONOTONE_TOL)

    @pytest.mark.parametrize("n, vc, params, radii", WARM_CASES)
    def test_warm_agrees_with_cold_within_certified_bounds(self, n, vc, params, radii):
        warm = run_exhaustion(n, vc, params, radii)
        for r, sol in zip(radii, warm.solutions):
            cold = solve_bounded(build_domain(n, r), vc, params)
            assert sol.certificate is not None and cold.certificate is not None
            gap = float(np.max(np.abs(sol.field.values - cold.field.values)))
            assert gap <= sol.certificate.bound + cold.certificate.bound
        sols = warm.solutions
        for delta, small, big in zip(warm.pointwise_deltas, sols, sols[1:]):
            assert delta <= small.certificate.bound + big.certificate.bound

    def test_later_radii_take_few_monotone_steps(self, monkeypatch):
        # the first radius's first three Newton runs fail, so it takes four
        # monotone steps; the later radii start warm
        real = scheme_mod.newton_solve
        calls = []

        def first_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) <= 3:
                raise ConvergenceError("first Newton runs disabled")
            return real(*args, **kwargs)

        monkeypatch.setattr(scheme_mod, "newton_solve", first_fails)
        res = run_exhaustion(2, ONE_VORTEX, PARAMS, [10, 20, 30])
        assert res.solutions[0].iterations == 4
        assert [s.iterations <= 2 for s in res.solutions] == [False, True, True]
        for small, big in zip(res.solutions, res.solutions[1:]):
            start = extend_by_zero(small.upper, big.domain)
            g = assemble_source(big.domain, ONE_VORTEX)
            assert big.trace[0].energy == energy_eval(start, g, PARAMS) < 0.0

    def test_failed_first_newton_try_falls_back_to_min_fk(self, monkeypatch):
        small = solve_bounded(build_domain(2, 6), ONE_VORTEX, PARAMS)
        dom = build_domain(2, 10)
        cold = solve_bounded(dom, ONE_VORTEX, PARAMS)
        real = scheme_mod.newton_solve
        starts = []

        def first_fails(f_init, g, params, **kwargs):
            starts.append(f_init.values.copy())
            if len(starts) == 1:
                raise ConvergenceError("first Newton try disabled")
            return real(f_init, g, params, **kwargs)

        monkeypatch.setattr(scheme_mod, "newton_solve", first_fails)
        sol = solve_bounded(dom, ONE_VORTEX, PARAMS, previous=small)
        assert np.array_equal(starts[0], extend_by_zero(small.field, dom).values)
        gap = float(np.max(np.abs(sol.field.values - cold.field.values)))
        # the certified try started from min(f_k, 0), f_k its bracket top
        assert len(starts) >= 2
        assert np.array_equal(starts[-1], np.minimum(sol.upper.values, 0.0))
        assert gap <= sol.certificate.bound + cold.certificate.bound

    def test_radius_pairs_locate_no_closure(self, monkeypatch):
        # a smaller ball's closure is a prefix of the larger one's, so the
        # warm start and the nested delta slice; only vortex points are located
        shapes = []
        real = LatticeDomain.locate

        def recording(self, pts):
            shapes.append(np.shape(pts))
            return real(self, pts)

        monkeypatch.setattr(LatticeDomain, "locate", recording)
        run_exhaustion(2, ONE_VORTEX, PARAMS, [6, 10, 14])
        assert shapes and set(shapes) == {(2,)}

    @pytest.mark.parametrize("dim, vc, params, radius", [
        (3, VortexConfig([((0, 0, 0), 1)]), PARAMS, 10),
        (2, VortexConfig([((0, 0), 2)]), PARAMS, 10),
        (2, ONE_VORTEX, Params(0.5, 1.0), 10),
        (2, ONE_VORTEX, PARAMS, 4),
    ])
    def test_mismatched_previous_rejected(self, dim, vc, params, radius):
        small = solve_bounded(build_domain(2, 6), ONE_VORTEX, PARAMS)
        with pytest.raises(ValueError, match="warm start"):
            solve_bounded(build_domain(dim, radius), vc, params, previous=small)


class TestShellProfile:
    def test_matches_per_shell_masks(self):
        sol = solve_bounded(build_domain(3, 5), VortexConfig([((1, 0, 0), 1)]), PARAMS)
        absvals = np.abs(sol.field.interior_values)
        dists = sol.domain.distances[: sol.domain.n_interior]
        reference = [(d, float(absvals[dists == d].max())) for d in range(sol.domain.radius + 1)]
        prof = shell_profile(sol)
        assert prof == reference
        assert all(type(d) is int and type(mx) is float for d, mx in prof)

    def test_zero_field(self):
        sol = solve_bounded(build_domain(2, 4), VortexConfig([]), PARAMS)
        prof = shell_profile(sol)
        assert len(prof) == 5
        assert all(mx == 0.0 for _, mx in prof)

    def test_max_at_vortex_and_orbit_constancy(self, small_run):
        sol = small_run.largest
        prof = shell_profile(sol)
        assert prof[0][1] == max(mx for _, mx in prof)
        # shells split into orbits of the symmetry group; |f| is constant on each orbit
        dom = sol.domain
        orbit = {}
        for p in dom.coords.tolist():
            canon = tuple(sorted(abs(c) for c in p))
            orbit.setdefault(canon, []).append(abs(sol.field(p)))
        for vals in orbit.values():
            assert max(vals) - min(vals) <= 1e-10


class TestDecayFit:
    def test_alpha_arithmetic(self):
        assert decay_rate_theory(Params(1.0, 1.0), 2) == pytest.approx(0.22314355, abs=1e-8)
        assert decay_rate_theory(Params(4.0, 1.0), 2) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_fit_on_moderate_domain(self):
        sol = solve_bounded(build_domain(2, 16), ONE_VORTEX, PARAMS)
        fit = decay_fit(sol, 0.1)
        assert fit.fit_window == (4, 8)
        assert fit.alpha_theory == pytest.approx(math.log(1.25), rel=1e-12)
        assert fit.fitted_rate >= fit.certified_rate - 0.01
        # the certificate covers the window by construction
        prof = shell_profile(sol)
        beta = fit.certified_rate
        for d, mx in prof:
            if fit.fit_window[0] <= d <= fit.fit_window[1]:
                assert mx <= fit.c_fit * math.exp(-beta * d) * (1 + 1e-12)

    def test_slope_in_closed_form_without_lapack(self, monkeypatch):
        # the least-squares slope of log(shell max) against d, as np.polyfit
        # gives it to rounding, but with no LAPACK least-squares call
        sol = solve_bounded(build_domain(2, 16), ONE_VORTEX, PARAMS)
        lo, hi = 4, 8
        ds = np.array([d for d, _ in shell_profile(sol) if lo <= d <= hi], dtype=float)
        maxima = np.array([mx for d, mx in shell_profile(sol) if lo <= d <= hi])
        expected = -np.polyfit(ds, np.log(maxima), 1)[0]

        def no_least_squares(*_args, **_kwargs):
            raise AssertionError("decay_fit called a LAPACK least-squares solver")

        monkeypatch.setattr(np, "polyfit", no_least_squares)
        monkeypatch.setattr(np.linalg, "lstsq", no_least_squares)
        fit = decay_fit(sol, 0.1)
        assert fit.fit_window == (lo, hi)
        assert fit.fitted_rate == pytest.approx(expected, rel=1e-14)

    def test_trivial_solution_rejected(self):
        sol = solve_bounded(build_domain(2, 8), VortexConfig([]), PARAMS)
        with pytest.raises(AnalysisError):
            decay_fit(sol, 0.1)

    def test_epsilon_validation(self):
        # bools, strings, non-finite and out-of-range values: test_validation.py
        assert validate_epsilon(np.float32(0.5)) == 0.5
        assert type(validate_epsilon(np.float32(0.5))) is float

    def test_numpy_epsilon_computes_in_python_floats(self, small_run):
        # a float32 epsilon once reached the arithmetic unconverted: the
        # reports held float32 values that json cannot write, and the
        # certified rate was computed in single precision
        eps = np.float32(0.1)
        fit = decay_fit(small_run.largest, eps)
        rep = barrier_check(2, PARAMS, eps)
        assert fit == decay_fit(small_run.largest, float(eps))
        assert rep == barrier_check(2, PARAMS, float(eps))
        values = [fit.alpha_theory, fit.epsilon, fit.fitted_rate, fit.c_fit,
                  fit.certified_rate, rep.c1, rep.min_margin]
        assert all(type(v) is float for v in values)
        assert fit.certified_rate == decay_rate_theory(PARAMS, 2) * (1 - float(eps))
        json.dumps([dataclasses.asdict(fit), dataclasses.asdict(rep)])


class TestBarrier:
    def test_margins_nonnegative(self):
        rep = barrier_check(2, PARAMS, 0.1)
        assert rep.min_margin >= 0.0
        assert rep.points_checked == sum(shell_size(2, d) for d in range(2, 21))

    def test_rejects_bad_dimension(self):
        # 0 divided by zero, 2.5 reached itertools as a TypeError, and 1 and
        # True checked Z^1
        for bad in (0, 1, 2.5, True):
            with pytest.raises(ValueError, match="dimension"):
                barrier_check(bad, PARAMS, 0.1)
        assert barrier_check(np.int64(2), PARAMS, 0.1) == barrier_check(2, PARAMS, 0.1)

    def test_axis_contribution_formula(self):
        # at a point with all coordinates nonzero each axis contributes
        # -e^{-b(s-1)} - e^{-b(s+1)} + 2 e^{-b s}
        n, eps = 2, 0.3
        beta = decay_rate_theory(PARAMS, n) * (1 - eps)
        x = (3, 2)
        s = manhattan_norm(x)
        lap = 0.0
        for axis in range(n):
            for step in (-1, 1):
                q = x[:axis] + (x[axis] + step,) + x[axis + 1 :]
                lap += -math.exp(-beta * manhattan_norm(q)) + math.exp(-beta * s)
        per_axis = -math.exp(-beta * (s - 1)) - math.exp(-beta * (s + 1)) + 2 * math.exp(-beta * s)
        assert lap == pytest.approx(n * per_axis, rel=1e-14)

    def test_brute_force_margin_oracle(self):
        # recompute the minimum margin by direct stencil evaluation at every
        # point of the given shells: the checked ones in 2D, and in 3D and 4D
        # also the shells d < n, where some axis is zero and the margin is
        # larger.  Each neighbour term (v(q) - v(x)) / |v(x)| is
        # -expm1(-beta (d(q) - d(x))), and the terms are added with fsum:
        # adding the raw values of v loses digits as beta -> 0, to about
        # 5e-13 relative at lambda*a = 5e-4
        cases = ((2, Params(0.8, 1.7), 0.25, BARRIER_SHELLS),
                 (3, Params(1e-3, 0.5), 0.25, (1, 8)),
                 (4, Params(1e-3, 0.5), 0.1, (1, 5)),
                 (4, Params(1.0, 3.0), 0.5, (1, 5)))
        for n, params, eps, (lo, hi) in cases:
            rep = barrier_check(n, params, eps)
            beta = decay_rate_theory(params, n) * (1 - eps)
            worst = inner_worst = math.inf
            visited = 0
            for p in itertools.product(range(-hi, hi + 1), repeat=n):
                s = manhattan_norm(p)
                if not lo <= s <= hi:
                    continue
                visited += 1
                terms = [rep.c1]
                for axis in range(n):
                    for step in (-1, 1):
                        q = p[:axis] + (p[axis] + step,) + p[axis + 1 :]
                        terms.append(-math.expm1(-beta * (manhattan_norm(q) - s)))
                margin = math.fsum(terms)
                worst = min(worst, margin)
                if s < n:
                    inner_worst = min(inner_worst, margin)
            if (lo, hi) == BARRIER_SHELLS:
                assert rep.points_checked == visited
            assert rep.min_margin == pytest.approx(worst, rel=1e-12)
            assert inner_worst > rep.min_margin

    def test_margin_vanishes_at_sharp_rate(self):
        # L v >= c v holds exactly up to beta*(c): the closed-form margin
        # c - 2n (cosh beta - 1) is 0 there and negative beyond it
        for n in (2, 3, 4):
            for c in (0.001, 1.0, 5.0):
                beta = decay_rate_sharp(c, n)
                assert c - 2 * n * (math.cosh(beta) - 1) == pytest.approx(0.0, abs=1e-14)
                assert c - 2 * n * (math.cosh(1.05 * beta) - 1) < 0
        assert decay_rate_sharp(1.0, 2) == math.acosh(1.25)
        assert decay_rate_sharp(1.0, 2) == pytest.approx(math.log(2.0), rel=1e-15)
        # alpha, the paper's rate, lies below the sharp one
        for params, n in ((Params(1.0, 1.0), 2), (Params(0.1, 1.0), 3), (Params(1.0, 5.0), 4)):
            assert decay_rate_theory(params, n) < decay_rate_sharp(params.lam * params.a, n)

    def test_constant_limit_is_lambda_a(self):
        params = Params(0.7, 1.3)
        assert barrier_constant(params, 2, 0.0) == pytest.approx(
            params.lam * params.a, rel=1e-12
        )


class TestCoercivity:
    def test_exact_constant_for_a_one(self):
        assert coercivity_check(1.0) == 0.5

    def test_a_one_on_arbitrary_grids(self, rng):
        # for a = 1 the density is (1 - e^x)^2 / 2 and the ratio is >= 1/2
        c = coercivity_check(1.0)
        for _ in range(5):
            t = np.abs(rng.standard_normal(40)) * 10.0
            ratios = 0.5 * np.expm1(-t) ** 2 / (t / (1.0 + t)) ** 2
            assert np.all(ratios >= c * (1 - 1e-14))

    def test_ratio_at_zero_is_half_a(self):
        # for a <= 1 the infimum is the ratio's limit a/2 at x = 0
        for a in (0.05, 0.5, 1.0):
            assert coercivity_check(a) == a / 2.0
        assert coercivity_check(0.05) == 0.025

    def test_positive_over_spec_grids(self):
        # the values of a the default grid was swept at, which the closed
        # form replaces, and a tiny a, where c is still positive
        for a in (0.5, 2.0, 5.0, 1e-300):
            assert coercivity_check(a) > 0.0

    def test_limit_at_infinity_for_a_above_one(self):
        # for a >= 1 the infimum is the ratio's limit a/(a+1) as x -> -inf
        for a in (1.0, 2.0, 5.0, 10.0):
            assert coercivity_check(a) == a / (a + 1.0)
        assert coercivity_check(2.0) == 2 / 3

    def test_matches_plain_arithmetic_oracle(self):
        # the ratio never falls below c and tends to it; the old grid stopped
        # at x = -50, where the ratio is still 0.6936 against c = 2/3
        a = 2.0
        c = coercivity_check(a)
        grid = [-0.1, -1.0, -10.0, -50.0, -1e6]
        ratios = []
        for x in grid:
            lhs = ((math.exp((a + 1) * x) - 1) + (a + 1) * (1 - math.exp(x))) / (a + 1)
            ratios.append(lhs / (abs(x) / (1 + abs(x))) ** 2)
        assert all(r >= c for r in ratios)
        assert ratios[3] == pytest.approx(0.6936, abs=1e-4)
        assert ratios[-1] == pytest.approx(c, rel=1e-5)

    def test_sharp_lower_bound_in_50_digits(self):
        # w(x) / (|x|/(1+|x|))^2 >= c on a dense grid of t = -x, and within
        # 1e-6 of c at the limit that sets it: t -> 0 for a <= 1, t -> inf
        # for a >= 1.  Double precision cancels in w near t = 0.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            ts = [mpmath.mpf(10) ** (mpmath.mpf(k) / 4) for k in range(-80, 29)]
            for a in (0.05, 0.5, 3.0, 50.0):
                c = coercivity_check(a)
                k = mpmath.mpf(a) + 1
                ratios = [(mpmath.expm1(-k * t) / k - mpmath.expm1(-t)) / (t / (1 + t)) ** 2
                          for t in ts]
                assert min(ratios) >= c
                limit = ratios[0] if a <= 1 else ratios[-1]
                assert abs(limit - c) <= 1e-6 * c

    def test_validation(self):
        # a's type and range: test_validation.py
        assert coercivity_check(np.float64(1.0)) == coercivity_check(1.0)
        assert type(coercivity_check(np.float32(0.5))) is float


class TestLpSummary:
    def test_empty_vortices(self):
        res = run_exhaustion(2, VortexConfig([]), PARAMS, [3, 5])
        summary = lp_summary(res)
        assert all(v == 0.0 for v in summary.norms.values())
        assert summary.all_finite

    def test_sup_norm_is_vortex_value(self, small_run):
        summary = lp_summary(small_run)
        assert summary.norms[math.inf] == pytest.approx(
            abs(small_run.largest.field((0, 0))), rel=1e-15
        )
        assert summary.all_finite

    def test_lp_norms_nonincreasing_in_p(self, small_run):
        # counting measure with unit masses: ||f||_q <= ||f||_p for p <= q
        summary = lp_summary(small_run)
        n = summary.norms
        assert list(n) == [1.0, 2.0, 4.0, math.inf]
        assert n[math.inf] <= n[4.0] <= n[2.0] <= n[1.0]

    def test_l1_tail_bound(self, small_run):
        fit = decay_fit(small_run.largest, 0.1)
        summary = lp_summary(small_run, fit=fit)
        assert summary.l1_tail_bound is not None
        assert summary.l1_diffs[-1] <= summary.l1_tail_bound
