import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cslattice import (
    ConvergenceError,
    Field,
    LinearSystem,
    Params,
    SchemeIntegrityError,
    VortexConfig,
    boundary_flux,
    build_domain,
    dense_solve,
    energy_eval,
    iterate_once,
    laplacian,
    linear_solve,
    newton_solve,
    nonlinearity,
    nonlinearity_deriv,
    residual,
    solve_bounded,
)
import cslattice.fields as fields_mod
import cslattice.lattice as lattice_mod
import cslattice.linear as linear_mod
import cslattice.scheme as scheme_mod
from cslattice.fields import extend_by_zero
from cslattice.scheme import (
    FIELD_SIGN_TOL,
    MAXIMALITY_TOL,
    MONOTONE_TOL,
    NEWTON_FORCING_FLOOR,
    NEWTON_FORCING_MAX,
    NEWTON_TOL_FACTOR,
    RESIDUAL_FACTOR,
    validate_stopping,
)

from conftest import bisection_root, problem_on

ONE_VORTEX = VortexConfig([((0, 0), 1)])
FOUR_PI = 4 * math.pi


def single_vertex_limit():
    """Root of 4t + e^t(e^t - 1) + 4*pi = 0, the B_0 fixed point."""
    return bisection_root(lambda t: 4 * t + math.exp(t) * (math.exp(t) - 1) + FOUR_PI, -15.0, 0.0)


def _negative_point_mass(monkeypatch):
    """A problem on B_1 in Z^2 with K = 2 whose source is -4 pi at one point,
    which Problem assembles in place of its empty vortex set's."""
    dom = build_domain(2, 1)
    g = Field.from_interior(dom, np.array([0.0, 0.0, -FOUR_PI, 0.0, 0.0]))
    monkeypatch.setattr(lattice_mod, "assemble_source", lambda dom, vc: g)
    return problem_on(dom, VortexConfig([]), Params(1.0, 1.0, 2.0))


class TestNonlinearity:
    def test_zero_at_zero(self):
        assert nonlinearity(0.0, Params(1.0, 1.0)) == 0.0

    def test_closed_form_log_two(self):
        # lam=a=1, f=-ln 2: e^f = 1/2, value 1/2 * (1/2 - 1)
        val = nonlinearity(-math.log(2.0), Params(1.0, 1.0))
        assert val == pytest.approx(-0.25, abs=1e-15)

    def test_high_precision_scalar(self):
        # 2 e^{-1} (e^{-1/2} - 1), frozen from a 40-digit evaluation
        val = nonlinearity(-1.0, Params(2.0, 0.5))
        assert val == pytest.approx(-0.28949856204602499, abs=1e-15)

    def test_negative_for_negative_f(self, rng):
        params = Params(1.3, 0.7)
        f = -np.abs(rng.standard_normal(50)) - 1e-8
        assert np.all(nonlinearity(f, params) < 0.0)

    def test_underflow_is_graceful(self):
        assert nonlinearity(-1000.0, Params(1.0, 1.0)) == 0.0

    def test_derivative_matches_finite_differences(self):
        params = Params(1.5, 0.8)
        for f in (-3.0, -1.0, -0.1, 0.0):
            h = 1e-6
            fd = (nonlinearity(f + h, params) - nonlinearity(f - h, params)) / (2 * h)
            assert nonlinearity_deriv(f, params) == pytest.approx(fd, rel=1e-8)


class TestIterateOnce:
    def test_zero_source_fixes_zero(self, b2):
        f1 = iterate_once(Field.zeros(b2), problem_on(b2, VortexConfig([])))
        assert not np.any(f1.values)

    def test_first_step_closed_form(self):
        # (L - K) f_1 = g on B_0: f_1(0) = -4*pi/(4 + K) = -2*pi/3 for K=2
        dom = build_domain(2, 0)
        f1 = iterate_once(Field.zeros(dom), problem_on(dom, params=Params(1.0, 1.0, 2.0)))
        assert f1((0, 0)) == pytest.approx(-2 * math.pi / 3, abs=1e-12)

    def test_second_step_scalar_substitution(self):
        dom = build_domain(2, 0)
        problem = problem_on(dom, params=Params(1.0, 1.0, 2.0))
        f1 = iterate_once(Field.zeros(dom), problem)
        f2 = iterate_once(f1, problem)
        t1 = -2 * math.pi / 3
        expected = -(math.exp(t1) * (math.exp(t1) - 1) + FOUR_PI - 2 * t1) / 6
        assert expected == pytest.approx(-2.7745301213233296, abs=1e-12)
        assert f2((0, 0)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("case", ["cold", "warm", "large_rhs"])
    def test_step_within_monotone_tol_of_dense_step(self, monkeypatch, case):
        # linear_solve stops at tol_rel = K MONOTONE_TOL / ||rhs||_2, which
        # bounds the sup-norm error of the step by MONOTONE_TOL (iterate_once)
        params = Params(1.0, 1.0)
        if case == "large_rhs":
            dom, vc = build_domain(3, 8), VortexConfig([((0, 0, 0), 3)])
        else:
            dom, vc = build_domain(2, 20), ONE_VORTEX
        f = Field.zeros(dom)
        if case == "warm":
            f = extend_by_zero(solve_bounded(problem_on(build_domain(2, 10), vc, params)).upper, dom)
        problem = problem_on(dom, vc, params)
        real, tolerances = scheme_mod.linear_solve, []

        def recording(system, tol_rel, x0=None):
            tolerances.append((tol_rel, float(np.linalg.norm(system.rhs))))
            return real(system, tol_rel, x0)

        monkeypatch.setattr(scheme_mod, "linear_solve", recording)
        for _ in range(2):
            step = iterate_once(f, problem)
            fp = f.interior_values
            rhs = nonlinearity(fp, params) + problem.source.interior_values - params.K * fp
            exact = dense_solve(LinearSystem(dom, params.K, rhs))
            assert np.max(np.abs(step.values - exact.values)) <= MONOTONE_TOL
            f = step
        for tol_rel, rhs_norm in tolerances:
            assert tol_rel == pytest.approx(params.K * MONOTONE_TOL / rhs_norm, rel=1e-12)
            assert tol_rel < 1e-10

    def test_rising_step_is_returned_unchecked(self, monkeypatch):
        # a negative point mass pushes the next iterate above zero; the step
        # is only the solve, and solve_bounded's loop checks the rise
        problem = _negative_point_mass(monkeypatch)
        assert np.max(iterate_once(Field.zeros(problem.domain), problem).values) > 1.0


class TestEnergy:
    def test_zero_field_zero_energy(self, b2):
        assert energy_eval(Field.zeros(b2), problem_on(b2)) == 0.0

    def test_hand_evaluated_single_vertex(self):
        # 1/2*4 + 1/2(e^-2 - 1) + (1 - e^-1) - 4*pi
        dom = build_domain(2, 0)
        f = Field.from_interior(dom, np.array([-1.0]))
        val = energy_eval(f, problem_on(dom, params=Params(1.0, 1.0, 2.0)))
        assert val == pytest.approx(-10.366582413912309, abs=1e-12)

    def test_requires_dirichlet(self, b2):
        with pytest.raises(ValueError, match="Dirichlet"):
            energy_eval(Field(b2, np.ones(b2.n_closure)), problem_on(b2))

    def test_first_iterates_decrease(self):
        problem = problem_on(build_domain(2, 4))
        f1 = iterate_once(Field.zeros(problem.domain), problem)
        f2 = iterate_once(f1, problem)
        e1 = energy_eval(f1, problem)
        e2 = energy_eval(f2, problem)
        assert e1 <= 0.0
        assert e2 <= e1 + 1e-12


class TestResidual:
    def test_zero_everything(self, b2):
        assert np.max(np.abs(residual(Field.zeros(b2), problem_on(b2, VortexConfig([]))))) == 0.0

    def test_zero_field_sees_source(self, b2):
        r = residual(Field.zeros(b2), problem_on(b2))
        expected = np.zeros(b2.n_interior)
        expected[b2.locate((0, 0))] = -FOUR_PI
        assert np.allclose(r, expected, atol=0.0)

    def test_converged_solution_residual_small(self):
        sol = solve_bounded(problem_on(build_domain(2, 6)), tol_nonlinear=1e-11)
        r = residual(sol.field, sol.problem)
        assert np.max(np.abs(r)) <= 1e-9


class TestSolveBounded:
    def test_empty_vortices_trivial(self, b3):
        sol = solve_bounded(problem_on(b3, VortexConfig([])))
        assert not np.any(sol.field.values)
        assert sol.iterations == 1
        assert len(sol.trace) == 2  # initial state plus one step

    def test_single_vertex_matches_bisection(self):
        problem = problem_on(build_domain(2, 0), params=Params(1.0, 1.0, 2.0))
        sol = solve_bounded(problem, tol_nonlinear=1e-12)
        assert sol.field((0, 0)) == pytest.approx(single_vertex_limit(), abs=1e-9)

    def test_trace_invariants(self, monkeypatch):
        # the triple vortex takes several monotone steps before its certificate
        real, iterates = scheme_mod.iterate_once, []

        def recording(f_prev, problem):
            iterates.append(f_prev.values.copy())
            return real(f_prev, problem)

        monkeypatch.setattr(scheme_mod, "iterate_once", recording)
        sol = solve_bounded(problem_on(build_domain(2, 10), VortexConfig([((0, 0), 3)])))
        iterates.append(sol.upper.values)
        assert [s.k for s in sol.trace] == list(range(sol.iterations + 1))
        assert sol.iterations > 2
        sup = np.array([s.sup_diff for s in sol.trace])
        energy = np.array([s.energy for s in sol.trace])
        assert np.all(sup >= 0.0)
        assert max(np.max(b - a) for a, b in zip(iterates, iterates[1:])) <= MONOTONE_TOL
        assert np.all(np.diff(energy) <= 1e-10)
        assert np.all(energy[1:] <= 1e-10)
        assert energy[0] == 0.0

    def test_rising_step_raises_with_its_row(self, monkeypatch):
        # step 2 rises by 1e-6 at one point: the solve stops with that
        # step's row last in its trace
        real, calls = scheme_mod.iterate_once, []

        def rising(f_prev, problem):
            calls.append(1)
            f_next = real(f_prev, problem)
            if len(calls) == 2:
                f_next.values[f_prev.domain.n_interior - 1] = \
                    f_prev.values[f_prev.domain.n_interior - 1] + 1e-6
            return f_next

        monkeypatch.setattr(scheme_mod, "iterate_once", rising)
        with pytest.raises(SchemeIntegrityError, match="rose by 1.000e-06 .* at step 2 ") as err:
            solve_bounded(problem_on(build_domain(2, 10), VortexConfig([((0, 0), 3)])))
        trace = err.value.trace
        assert [s.k for s in trace] == [0, 1, 2]
        assert trace[-1].sup_diff >= 1e-6

    def test_monotonicity_violation_raises(self, monkeypatch):
        # the rising step of test_rising_step_is_returned_unchecked, in a solve
        with pytest.raises(SchemeIntegrityError, match="rose") as err:
            solve_bounded(_negative_point_mass(monkeypatch))
        assert [s.k for s in err.value.trace] == [0, 1]

    def test_sign_and_vortex_negativity(self):
        sol = solve_bounded(problem_on(build_domain(2, 8)))
        assert np.max(sol.field.values) <= 1e-10
        assert sol.field((0, 0)) < -1.0

    def test_flux_identity(self):
        sol = solve_bounded(problem_on(build_domain(2, 8)), tol_nonlinear=1e-11)
        mass = float(np.sum(nonlinearity(sol.field.interior_values, sol.problem.params)))
        gap, threshold = scheme_mod.flux_gap(sol)
        assert gap == abs(mass + ONE_VORTEX.total_flux - boundary_flux(sol.field))
        # the certificate's sum of rho plus the sums' rounding: far below 1e-8
        assert sol.certificate.rho_sum <= threshold < 1e-11
        assert gap <= threshold

    @pytest.mark.parametrize("n, radius", [(2, 0), (4, 0), (2, 1), (3, 1), (2, 5), (3, 3), (4, 2)])
    def test_boundary_flux_on_any_field(self, n, radius, rng):
        # against a double loop over coordinates, and the divergence theorem
        # sum_interior L f = boundary flux, on fields that are not Dirichlet
        dom = build_domain(n, radius)
        for _ in range(5):
            f = Field(dom, rng.standard_normal(dom.n_closure))
            oracle = 0.0
            for p in map(tuple, dom.coords[: dom.n_interior].tolist()):
                for axis in range(n):
                    for step in (-1, 1):
                        q = p[:axis] + (p[axis] + step,) + p[axis + 1 :]
                        if sum(map(abs, q)) == radius + 1:
                            oracle += f(q) - f(p)
            flux = boundary_flux(f)
            scale = dom.degree * dom.n_interior * np.max(np.abs(f.values))
            assert flux == pytest.approx(oracle, rel=0, abs=1e-14 * scale)
            assert flux == pytest.approx(float(np.sum(laplacian(f))), rel=0, abs=1e-14 * scale)

    def test_one_laplacian_per_field(self, monkeypatch):
        # the energy and the residual of f_0, of each iterate and of the root
        # share one gather of its Laplacian: no field is gathered twice
        gathered = []
        for module in (scheme_mod, fields_mod):
            real = module.laplacian

            def counting(f, real=real):
                gathered.append(f)
                return real(f)

            monkeypatch.setattr(module, "laplacian", counting)
        sol = solve_bounded(problem_on(build_domain(2, 8)))
        assert sol.certificate is not None
        assert len(gathered) > 3
        assert len({id(f) for f in gathered}) == len(gathered)

    def test_one_source_per_solve(self, monkeypatch):
        # newton_solve assembled g again on each run, and solve_bounded once
        # per solve; now the problem holds it, and every run takes that problem
        problem = problem_on(build_domain(2, 10))
        small = solve_bounded(problem_on(build_domain(2, 6)))
        real_source, real_newton = lattice_mod.assemble_source, scheme_mod.newton_solve
        sources, newton_problems = [], []

        def assembling(*args):
            sources.append(real_source(*args))
            return sources[-1]

        def newton(f_init, problem, **kwargs):
            newton_problems.append(problem)
            return real_newton(f_init, problem, **kwargs)

        monkeypatch.setattr(lattice_mod, "assemble_source", assembling)
        monkeypatch.setattr(scheme_mod, "newton_solve", newton)
        for previous in (None, small):
            newton_problems.clear()
            sol = solve_bounded(problem, previous=previous)
            assert sol.certificate is not None and sol.problem is problem
            assert not sources
            assert newton_problems and all(p is problem for p in newton_problems)

    def test_peak_memory_per_closure_point(self):
        # one cold solve on 4D R=8, whose red-black split is built inside it,
        # peaked at 128.3 traced bytes per closure point (141.6 while Newton
        # assembled its own source and its caller held the start, 187 while
        # the colour tables were intp and linear_solve copied rhs); the bound
        # allows 10%
        dom = build_domain(4, 8)
        tracemalloc.start()
        try:
            sol = solve_bounded(problem_on(dom, VortexConfig([((1, 0, -1, 0), 1)])))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.certificate is not None
        assert peak <= 141 * dom.n_closure

    def test_max_steps_exhaustion(self, monkeypatch):
        # a certified Newton finish ends this solve after one step
        _no_newton(monkeypatch)
        with pytest.raises(ConvergenceError) as err:
            solve_bounded(problem_on(build_domain(2, 5)), max_steps=3)
        assert [s.k for s in err.value.trace] == [0, 1, 2, 3]

    def test_symmetry_equivariance(self):
        dom = build_domain(2, 8)
        sol = solve_bounded(problem_on(dom))
        values = {}
        worst = 0.0
        for p in dom.coords.tolist():
            canon = tuple(sorted(abs(c) for c in p))
            v = sol.field(p)
            if canon in values:
                worst = max(worst, abs(v - values[canon]))
            else:
                values[canon] = v
        assert worst <= 1e-10

    def test_limit_independent_of_k(self):
        # both runs certify their field within its bound of the K-free
        # maximal solution, so the fields differ by at most the two bounds
        dom = build_domain(2, 6)
        tol = 1e-11
        fields, bounds = [], []
        for K in (2.0, 6.0):
            sol = solve_bounded(problem_on(dom, params=Params(1.0, 1.0, K)), tol_nonlinear=tol)
            assert sol.certificate is not None
            fields.append(sol.field.values)
            bounds.append(sol.certificate.bound)
        gap = float(np.max(np.abs(fields[0] - fields[1])))
        assert gap <= bounds[0] + bounds[1]
        assert max(bounds) <= tol

    def test_rejects_bad_tolerance(self, b2):
        # solve_bounded's tol_nonlinear and max_steps against bools, strings,
        # non-finite and out-of-range values: test_validation.py.  An infinite
        # tolerance returned a "certified" field with residual 4.7
        assert validate_stopping(np.float32(0.5), np.int32(5)) == (0.5, 5)
        # a float is no step count: 2.5 reached range() as a TypeError
        with pytest.raises(ValueError, match="max_steps must be an integer, got 2.5"):
            solve_bounded(problem_on(b2), max_steps=2.5)
        sol = solve_bounded(problem_on(b2), max_steps=np.int64(50))
        assert 1 <= sol.iterations <= 50


class TestNewtonOracle:
    def test_started_at_root_stays(self):
        sol = solve_bounded(problem_on(build_domain(2, 5)), tol_nonlinear=1e-11)
        root = newton_solve(sol.field, sol.problem, tol=1e-9)
        assert np.max(np.abs(root.values - sol.field.values)) <= 1e-10

    def test_single_vertex_from_zero(self):
        dom = build_domain(2, 0)
        root = newton_solve(Field.zeros(dom), problem_on(dom, params=Params(1.0, 1.0, 2.0)),
                            tol=1e-12)
        assert root((0, 0)) == pytest.approx(single_vertex_limit(), abs=1e-10)

    def test_random_starts_stay_below_maximal(self, rng):
        dom = build_domain(2, 5)
        reference = solve_bounded(problem_on(dom), tol_nonlinear=1e-11)
        converged = 0
        for _ in range(6):
            start = Field.from_interior(dom, -3.0 * rng.random(dom.n_interior))
            try:
                root = newton_solve(start, reference.problem)
            except ConvergenceError:
                continue
            converged += 1
            assert np.max(root.values - reference.field.values) <= 1e-8
        assert converged >= 1

    def test_no_dense_jacobian(self, monkeypatch):
        dom = build_domain(3, 5)
        reference = solve_bounded(problem_on(dom))

        def dense(*_args, **_kwargs):
            raise AssertionError("newton_solve built or solved a dense system")

        monkeypatch.setattr(np.linalg, "solve", dense)
        monkeypatch.setattr("cslattice.scheme.system_matrix", dense)
        root = newton_solve(Field.zeros(dom), reference.problem)
        assert np.max(np.abs(root.values - reference.field.values)) <= MAXIMALITY_TOL

    def test_indefinite_jacobian_raises_with_newton_iterate(self):
        # at f = ln(1/4), N'(f) = -1/8 (a = lam = 1) lies below
        # lambda_min(-L) = 0.121 of the 2D R=8 ball: CG meets p.Ap <= 0
        dom = build_domain(2, 8)
        start = Field.from_interior(dom, np.full(dom.n_interior, math.log(0.25)))
        problem = problem_on(dom)
        with pytest.raises(ConvergenceError, match="Newton step failed.*positive definite") as err:
            newton_solve(start, problem)
        assert np.array_equal(err.value.best.values, start.values)
        assert err.value.residual == np.max(np.abs(residual(start, problem)))

    def test_roundoff_above_zero_is_clipped(self):
        # a monotone iterate may sit 1e-24 above zero (seen at 2D R=80)
        dom = build_domain(2, 5)
        start = np.zeros(dom.n_closure)
        start[dom.locate((5, 0))] = 1e-24
        problem = problem_on(dom)
        root = newton_solve(Field(dom, start), problem)
        from_zero = newton_solve(Field.zeros(dom), problem)
        assert np.array_equal(root.values, from_zero.values)
        # without vortices the clipped start is already a root, returned as is
        root = newton_solve(Field(dom, start), problem_on(dom, VortexConfig([])))
        assert not np.any(root.values)
        start[dom.locate((5, 0))] = 10 * FIELD_SIGN_TOL
        with pytest.raises(ValueError, match="nonpositive"):
            newton_solve(Field(dom, start), problem)

    def test_newton_steps_use_forcing_tolerances(self, monkeypatch):
        dom = build_domain(2, 40)
        tol = 1e-12
        real = scheme_mod.linear_solve
        steps = []

        def recording(system, tol_rel, x0=None):
            # each step's rhs is -r
            steps.append((tol_rel, system.rhs.copy()))
            return real(system, tol_rel, x0)

        monkeypatch.setattr(scheme_mod, "linear_solve", recording)
        newton_solve(Field.zeros(dom), problem_on(dom, params=Params(0.1, 1.0)), tol=tol)
        assert len(steps) >= 3
        floored = 0
        for eta, rhs in steps:
            floor = NEWTON_FORCING_FLOOR * tol / float(np.linalg.norm(rhs))
            assert floor <= eta <= NEWTON_FORCING_MAX
            assert eta == max(min(NEWTON_FORCING_MAX, float(np.max(np.abs(rhs)))), floor)
            floored += eta == floor
        # the last step is floored instead of solved to ||r||_inf
        assert floored >= 1 and steps[-1][0] > float(np.max(np.abs(steps[-1][1])))

    def test_newton_matvec_budget(self, monkeypatch):
        # solve_bounded's finish at 2D R=40, lam=0.1, from min(f_1, 0): 119
        # applications of the reduced red-black operator CG iterates on (104
        # from f_11, where the finish once started); CG on the full operator
        # took 214 matvecs from f_11, and 514 with every step solved to tol_rel 1e-12
        dom = build_domain(2, 40)
        sol = solve_bounded(problem_on(dom, params=Params(0.1, 1.0)))
        start = Field.from_interior(dom, np.minimum(sol.upper.interior_values, 0.0))
        real = linear_mod._apply_reduced
        matvecs = []

        def counting(*args):
            matvecs.append(1)
            return real(*args)

        monkeypatch.setattr(linear_mod, "_apply_reduced", counting)
        tol = NEWTON_TOL_FACTOR * 1e-10
        root = newton_solve(start, sol.problem, tol=tol)
        assert 0 < len(matvecs) <= 125
        assert np.max(np.abs(residual(root, sol.problem))) <= tol

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf])
    def test_rejects_nonpositive_tol(self, b2, tol):
        # before iterating: 0 and -1 ran until "Newton stalled at residual
        # 1.8e-15", and inf returned the start as a root
        with pytest.raises(ValueError, match="tol must be (positive|a finite number)"):
            newton_solve(Field.zeros(b2), problem_on(b2), tol=tol)

    def test_rejects_positive_start(self, b2):
        with pytest.raises(ValueError, match="nonpositive"):
            newton_solve(Field(b2, np.ones(b2.n_closure)), problem_on(b2))

    def test_rejects_source_on_another_ball(self, b2, b3):
        # B_2 in Z^3 has as many interior points as B_3 in Z^2, 25
        d3 = build_domain(3, 2)
        assert d3.n_interior == b3.n_interior == 25
        with pytest.raises(ValueError, match=r"problem's ball B_3 of Z\^2, got one on B_2 of Z\^3"):
            newton_solve(Field.zeros(d3), problem_on(b3))
        with pytest.raises(ValueError, match=r"problem's ball B_2 of Z\^2, got one on B_3 of Z\^2"):
            newton_solve(Field.zeros(b3), problem_on(b2))


def _no_newton(monkeypatch, newton=None):
    """Make every Newton finish of solve_bounded fail, or return newton(start)."""

    def failing(f_init, problem, **_kwargs):
        if newton is not None:
            return newton(f_init)
        raise ConvergenceError("Newton disabled")

    monkeypatch.setattr(scheme_mod, "newton_solve", failing)


class TestCertificate:
    def test_bound_covers_distance_to_tight_reference(self):
        # the monotone iterates decrease to f_max: run them to sup_diff < 1e-14,
        # each step solved far tighter than iterate_once's MONOTONE_TOL, and
        # bound what is left by sup_diff * rho / (1 - rho)
        dom = build_domain(2, 10)
        sol = solve_bounded(problem_on(dom))
        assert sol.certificate is not None
        assert sol.certificate.bound <= 1e-10
        params, g = sol.problem.params, sol.problem.source
        f, sups = Field.zeros(dom), []
        while not sups or sups[-1] >= 1e-14:
            fp = f.interior_values
            rhs = nonlinearity(fp, params) + g.interior_values - params.K * fp
            nxt = linear_solve(LinearSystem(dom, params.K, rhs), 1e-15, x0=fp)
            sups.append(float(np.max(np.abs(nxt.values - f.values))))
            f = nxt
            assert len(sups) < 1000
        rho = (sups[-1] / sups[-5]) ** 0.25
        assert 0.0 < rho < 1.0
        tail = sups[-1] * rho / (1.0 - rho)
        distance = float(np.max(np.abs(sol.field.values - f.values)))
        assert distance <= sol.certificate.bound + tail

    def test_two_vortices_within_default_max_steps(self):
        # the plain monotone stop rule needs 1024 steps here
        vc = VortexConfig([((0, 0), 2), ((3, 0), 1)])
        sol = solve_bounded(problem_on(build_domain(2, 80), vc))
        assert sol.certificate is not None
        assert sol.certificate.bound <= 1e-10
        assert sol.iterations <= 500

    def test_two_vortices_at_small_lambda(self):
        # the rounding allowance at the double vortex kept the bound
        # max w * max rho / min(A w) above 1e-10 for 1223 monotone steps;
        # the pointwise bound certifies the root of the first Newton run
        vc = VortexConfig([((0, 0), 2), ((3, 0), 1)])
        sol = solve_bounded(problem_on(build_domain(2, 40), vc, Params(0.1, 1.0)))
        assert sol.certificate is not None
        assert sol.certificate.bound <= 1e-10
        assert sol.iterations <= 145

    def test_one_vortex_at_very_small_lambda(self):
        # the old bound stayed at 1.3e-10 from every bracket, and the solve
        # ran out of its 500 steps
        sol = solve_bounded(problem_on(build_domain(2, 80), params=Params(0.005, 1.0)))
        assert sol.certificate is not None
        assert sol.certificate.bound <= 1e-10
        assert sol.iterations < 500

    @pytest.mark.parametrize("spoil", ["az_below_rho", "z_nonpositive"])
    def test_spoiled_z_is_refused(self, monkeypatch, spoil):
        dom = build_domain(2, 8)
        sol = solve_bounded(problem_on(dom))
        kept = scheme_mod._newton_root(sol.upper, sol.problem, 1e-10, None)
        args = (kept, sol.upper, sol.problem, 1e-10)
        assert scheme_mod._certify(*args) is not None
        centre = dom.locate((0, 0))
        real = scheme_mod.linear_solve

        def spoiled_z(system, tol_rel, x0=None):
            z = real(system, tol_rel, x0).interior_values.copy()
            if spoil == "az_below_rho":
                # A z = (m + 4) z - (sum of the neighbours) falls to rho / 2 > 0
                # at the centre; z stays positive, and its maximum does not grow
                rho = kept[2][centre]
                neighbours = laplacian(Field.from_interior(dom, z))[centre] + 4 * z[centre]
                z[centre] = (neighbours + rho / 2) / (system.K[centre] + 4)
                assert np.all(z > 0)
                az = (system.K[centre] + 4) * z[centre] - neighbours
                assert 0.4 * rho < az < 0.6 * rho
            else:
                z[centre] = 0.0
            return Field.from_interior(dom, z)

        monkeypatch.setattr(scheme_mod, "linear_solve", spoiled_z)
        assert scheme_mod._certify(*args) is None

    def test_uncertified_root_raises_at_monotone_stop_rule(self, monkeypatch):
        # a "root" that is the unconverged start must fail the test after
        # every step; a returned solution is always certified, so the solve
        # raises once the monotone steps have converged
        _no_newton(monkeypatch, newton=lambda start: start)
        with pytest.raises(ConvergenceError, match="no certified Newton root") as err:
            solve_bounded(problem_on(build_domain(2, 5)))
        last = err.value.trace[-1]
        assert f"step {last.k} " in str(err.value)
        assert last.sup_diff < 1e-10
        assert err.value.residual == last.residual_sup <= RESIDUAL_FACTOR * 1e-10
        assert last.k < 500

    def test_fallback_matches_plain_monotone_iteration(self, monkeypatch):
        _no_newton(monkeypatch)
        problem = problem_on(build_domain(2, 5))
        with pytest.raises(ConvergenceError) as err:
            solve_bounded(problem)
        f = Field.zeros(problem.domain)
        for _ in range(err.value.trace[-1].k):
            f = iterate_once(f, problem)
        assert np.array_equal(err.value.best.values, f.values)

    def test_stalled_fallback_fails_fast(self, monkeypatch):
        # a step stops once its warm start meets the linear tolerance as it
        # stands, ||r||_2 <= K MONOTONE_TOL = 2e-10; with tol_nonlinear 1e-14
        # the residual is then still above the stop rule's target 1e-12
        _no_newton(monkeypatch)
        with pytest.raises(ConvergenceError, match="no certified Newton root") as err:
            solve_bounded(problem_on(build_domain(2, 6)), tol_nonlinear=1e-14)
        last = err.value.trace[-1]
        assert last.sup_diff == 0.0
        assert last.k < 500
        assert err.value.residual == last.residual_sup > RESIDUAL_FACTOR * 1e-14


class TestNewtonSchedule:
    def test_cold_solve_certified_after_one_step(self, monkeypatch):
        # the solve-2d-lam0.1 config; 11 monotone steps and 322 applications
        # of the reduced operator when the first try waited for a step < 1e-1
        real = linear_mod._apply_reduced
        applications = []

        def counting(*args):
            applications.append(1)
            return real(*args)

        monkeypatch.setattr(linear_mod, "_apply_reduced", counting)
        sol = solve_bounded(problem_on(build_domain(2, 40), params=Params(0.1, 1.0)))
        assert sol.certificate is not None
        assert sol.iterations == 1
        assert len(applications) <= 200

    def test_raised_newton_run_is_followed_by_one_after_step_2(self, monkeypatch):
        real = scheme_mod.newton_solve
        starts = []

        def first_fails(f_init, problem, **kwargs):
            starts.append(f_init.values.copy())
            if len(starts) == 1:
                raise ConvergenceError("first Newton run disabled")
            return real(f_init, problem, **kwargs)

        monkeypatch.setattr(scheme_mod, "newton_solve", first_fails)
        problem = problem_on(build_domain(2, 10))
        sol = solve_bounded(problem)
        assert sol.certificate is not None and len(starts) == 2
        # the first run came after step 1, the second after step 2, from min(f_2, 0)
        f_1 = iterate_once(Field.zeros(problem.domain), problem)
        assert np.array_equal(starts[0], np.minimum(f_1.values, 0.0))
        assert sol.iterations == 2
        assert np.array_equal(starts[1], np.minimum(sol.upper.values, 0.0))

    def test_kept_root_is_retested_without_new_newton_runs(self, monkeypatch):
        # the triple vortex's bracket after step 1 is too wide in the core;
        # the root of the one Newton run passes against a later, tighter one
        real = scheme_mod.newton_solve
        runs = []

        def counting(*args, **kwargs):
            runs.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(scheme_mod, "newton_solve", counting)
        sol = solve_bounded(problem_on(build_domain(2, 20), VortexConfig([((0, 0), 3)])))
        assert sol.certificate is not None
        assert sol.certificate.bound <= 1e-10
        assert len(runs) == 1
        assert 1 < sol.iterations <= 22

    @pytest.mark.parametrize("multiplicity", [1, 3])
    def test_certified_across_parameters(self, multiplicity):
        # a failed first try (as for a=5 or a triple vortex) must still end certified
        dom = build_domain(2, 10)
        vc = VortexConfig([((0, 0), multiplicity)])
        for lam, a in itertools.product([0.05, 1.0, 5.0], [0.2, 1.0, 5.0]):
            sol = solve_bounded(problem_on(dom, vc, Params(lam, a)))
            assert sol.certificate is not None, (lam, a)
            assert sol.certificate.bound <= 1e-10
            assert np.max(sol.field.values) <= 0.0
