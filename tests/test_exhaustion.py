import itertools
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
    coercivity_default_grid,
    decay_fit,
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
from cslattice.exhaustion import BARRIER_SHELLS, NESTED_TOL, validate_epsilon
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
        # int() would truncate 2.5 to 2 and read True as 1
        for radii, bad in (([2.5, 4.9], r"radii\[0\].*2\.5"), ([1, True], r"radii\[1\].*True"),
                           ([2, 4.0], r"radii\[1\].*4\.0"), ([np.float64(3), 5], r"radii\[0\]")):
            with pytest.raises(ValueError, match=bad):
                exhaustion_mod.validate_radii(radii, ONE_VORTEX)
        radii = exhaustion_mod.validate_radii([np.int32(2), np.int64(4), 6], ONE_VORTEX)
        assert radii == [2, 4, 6] and all(type(r) is int for r in radii)

    def test_empty_vortices_all_zero(self):
        res = run_exhaustion(2, VortexConfig([]), PARAMS, [5])
        assert not np.any(res.largest.field.values)
        assert res.l2_norms == (0.0,)

    def test_nested_monotonicity(self, small_run):
        assert all(d <= 1e-8 for d in small_run.pointwise_deltas)
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
        assert max(warm.pointwise_deltas) <= NESTED_TOL

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
            assert big.trace.steps[0].energy == energy_eval(start, g, PARAMS) < 0.0

    def test_failed_first_newton_try_falls_back_to_min_fk(self, monkeypatch):
        small = solve_bounded(build_domain(2, 6), ONE_VORTEX, PARAMS)
        dom = build_domain(2, 10)
        cold = solve_bounded(dom, ONE_VORTEX, PARAMS)
        real = scheme_mod.newton_solve
        starts = []

        def first_fails(dom, vc, params, f_init, **kwargs):
            starts.append(f_init.values.copy())
            if len(starts) == 1:
                raise ConvergenceError("first Newton try disabled")
            return real(dom, vc, params, f_init, **kwargs)

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
        reference = [
            (d, float(absvals[dists == d].max()), float(absvals[dists == d].min()))
            for d in range(sol.domain.radius + 1)
        ]
        prof = shell_profile(sol)
        assert prof == reference
        assert all(type(d) is int and type(mx) is float for d, mx, _ in prof)

    def test_zero_field(self):
        sol = solve_bounded(build_domain(2, 4), VortexConfig([]), PARAMS)
        prof = shell_profile(sol)
        assert len(prof) == 5
        assert all(mx == 0.0 and mn == 0.0 for _, mx, mn in prof)

    def test_max_at_vortex_and_orbit_constancy(self, small_run):
        sol = small_run.largest
        prof = shell_profile(sol)
        assert prof[0][1] == max(mx for _, mx, _ in prof)
        # shells 0 and 1 are single orbits of the symmetry group
        for d in (0, 1):
            assert prof[d][1] == pytest.approx(prof[d][2], abs=1e-10)
        # deeper shells split into orbits; |f| is constant on each orbit
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
        for d, mx, _ in prof:
            if fit.fit_window[0] <= d <= fit.fit_window[1]:
                assert mx <= fit.c_fit * math.exp(-beta * d) * (1 + 1e-12)

    def test_trivial_solution_rejected(self):
        sol = solve_bounded(build_domain(2, 8), VortexConfig([]), PARAMS)
        with pytest.raises(AnalysisError):
            decay_fit(sol, 0.1)

    def test_epsilon_validation(self, small_run):
        with pytest.raises(ValueError, match="epsilon"):
            decay_fit(small_run.largest, 1.5)
        # a string reached the range comparison as a bare TypeError
        for bad, message in (("0.5", "must be a number"), (True, "must be a number"),
                             (math.nan, "must be a finite number")):
            with pytest.raises(ValueError, match=f"epsilon {message}"):
                validate_epsilon(bad)
        assert validate_epsilon(np.float32(0.5)) == 0.5


class TestBarrier:
    def test_margins_nonnegative(self):
        rep = barrier_check(2, PARAMS, 0.1)
        assert rep.all_hold
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
        # point of the checked shells
        n, eps = 2, 0.25
        params = Params(0.8, 1.7)
        rep = barrier_check(n, params, eps)
        lo, hi = BARRIER_SHELLS
        beta = decay_rate_theory(params, n) * (1 - eps)
        worst = math.inf
        visited = 0
        for p in itertools.product(range(-hi, hi + 1), repeat=n):
            s = manhattan_norm(p)
            if not lo <= s <= hi:
                continue
            visited += 1
            v = -math.exp(-beta * s)
            lap = 0.0
            for axis in range(n):
                for step in (-1, 1):
                    q = p[:axis] + (p[axis] + step,) + p[axis + 1 :]
                    lap += -math.exp(-beta * manhattan_norm(q)) - v
            worst = min(worst, (lap - rep.c1 * v) / abs(v))
        assert rep.points_checked == visited
        assert rep.min_margin == pytest.approx(worst, rel=1e-12)

    def test_constant_limit_is_lambda_a(self):
        params = Params(0.7, 1.3)
        assert barrier_constant(params, 2, 0.0) == pytest.approx(
            params.lam * params.a, rel=1e-12
        )


class TestCoercivity:
    def test_exact_constant_for_a_one(self):
        rep = coercivity_check(1.0, coercivity_default_grid())
        assert 0.49 <= rep.c_est <= 0.51
        assert rep.all_hold

    def test_a_one_on_arbitrary_grids(self, rng):
        # for a = 1 the density is (1 - e^x)^2 / 2 and the ratio is >= 1/2
        for _ in range(5):
            grid = -np.abs(rng.standard_normal(40)) * 10.0
            rep = coercivity_check(1.0, grid)
            assert rep.c_est >= 0.49

    def test_ratio_at_zero_is_half_a(self):
        for a in (0.5, 1.0, 3.0):
            rep = coercivity_check(a, [0.0])
            assert rep.c_est == pytest.approx(a / 2.0, rel=1e-15)

    def test_positive_over_spec_grids(self):
        for a in (0.5, 2.0, 5.0):
            rep = coercivity_check(a, coercivity_default_grid())
            assert rep.c_est > 0.0

    def test_matches_plain_arithmetic_oracle(self):
        a = 2.0
        grid = [-0.1, -1.0, -10.0, -50.0]
        rep = coercivity_check(a, grid)
        ratios = []
        for x in grid:
            lhs = ((math.exp((a + 1) * x) - 1) + (a + 1) * (1 - math.exp(x))) / (a + 1)
            ratios.append(lhs / (abs(x) / (1 + abs(x))) ** 2)
        assert rep.c_est == pytest.approx(min(ratios), rel=1e-9)
        assert all(r >= rep.c_est * (1 - 1e-9) for r in ratios)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            coercivity_check(0.0, [0.0])
        with pytest.raises(ValueError, match="x <= 0"):
            coercivity_check(1.0, [0.5])


class TestLpSummary:
    def test_empty_vortices(self):
        res = run_exhaustion(2, VortexConfig([]), PARAMS, [3, 5])
        summary = lp_summary(res, [1, 2, math.inf])
        assert all(v == 0.0 for v in summary.norms.values())
        assert summary.all_finite

    def test_sup_norm_is_vortex_value(self, small_run):
        summary = lp_summary(small_run, [1, 2, math.inf])
        assert summary.norms[math.inf] == pytest.approx(
            abs(small_run.largest.field((0, 0))), rel=1e-15
        )
        assert summary.all_finite

    def test_lp_norms_nonincreasing_in_p(self, small_run):
        # counting measure with unit masses: ||f||_q <= ||f||_p for p <= q
        summary = lp_summary(small_run, [1, 2, 4, math.inf])
        n = summary.norms
        assert n[math.inf] <= n[4.0] <= n[2.0] <= n[1.0]

    def test_l1_tail_bound(self, small_run):
        fit = decay_fit(small_run.largest, 0.1)
        summary = lp_summary(small_run, [1], fit=fit)
        assert summary.l1_tail_bound is not None
        assert summary.l1_diffs[-1] <= summary.l1_tail_bound
