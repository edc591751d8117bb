import math

import numpy as np
import pytest

from cslattice import (
    ConvergenceError,
    Field,
    LinearSolveOptions,
    Params,
    SchemeIntegrityError,
    VortexConfig,
    assemble_source,
    boundary_flux,
    build_domain,
    energy_eval,
    iterate_once,
    newton_solve,
    nonlinearity,
    nonlinearity_deriv,
    residual,
    solve_bounded,
)
from cslattice.scheme import MAXIMALITY_TOL

from conftest import bisection_root

ONE_VORTEX = VortexConfig([((0, 0), 1)])
FOUR_PI = 4 * math.pi


def single_vertex_limit():
    """Root of 4t + e^t(e^t - 1) + 4*pi = 0, the B_0 fixed point."""
    return bisection_root(lambda t: 4 * t + math.exp(t) * (math.exp(t) - 1) + FOUR_PI, -15.0, 0.0)


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
        params = Params(1.0, 1.0)
        g = assemble_source(b2, VortexConfig([]))
        f1 = iterate_once(Field.zeros(b2), g, params)
        assert not np.any(f1.values)

    def test_first_step_closed_form(self):
        # (L - K) f_1 = g on B_0: f_1(0) = -4*pi/(4 + K) = -2*pi/3 for K=2
        dom = build_domain(2, 0)
        g = assemble_source(dom, ONE_VORTEX)
        f1 = iterate_once(Field.zeros(dom), g, Params(1.0, 1.0, 2.0))
        assert f1((0, 0)) == pytest.approx(-2 * math.pi / 3, abs=1e-12)

    def test_second_step_scalar_substitution(self):
        dom = build_domain(2, 0)
        params = Params(1.0, 1.0, 2.0)
        g = assemble_source(dom, ONE_VORTEX)
        f1 = iterate_once(Field.zeros(dom), g, params)
        f2 = iterate_once(f1, g, params)
        t1 = -2 * math.pi / 3
        expected = -(math.exp(t1) * (math.exp(t1) - 1) + FOUR_PI - 2 * t1) / 6
        assert expected == pytest.approx(-2.7745301213233296, abs=1e-12)
        assert f2((0, 0)) == pytest.approx(expected, abs=1e-12)

    def test_monotonicity_violation_raises(self):
        # a negative point mass pushes the next iterate above zero
        dom = build_domain(2, 1)
        params = Params(1.0, 1.0, 2.0)
        g = Field.from_interior(dom, np.array([0.0, 0.0, -FOUR_PI, 0.0, 0.0]))
        with pytest.raises(SchemeIntegrityError, match="rose"):
            iterate_once(Field.zeros(dom), g, params)


class TestEnergy:
    def test_zero_field_zero_energy(self, b2):
        g = assemble_source(b2, ONE_VORTEX)
        assert energy_eval(Field.zeros(b2), g, Params(1.0, 1.0)) == 0.0

    def test_hand_evaluated_single_vertex(self):
        # 1/2*4 + 1/2(e^-2 - 1) + (1 - e^-1) - 4*pi
        dom = build_domain(2, 0)
        f = Field.from_interior(dom, np.array([-1.0]))
        g = assemble_source(dom, ONE_VORTEX)
        val = energy_eval(f, g, Params(1.0, 1.0, 2.0))
        assert val == pytest.approx(-10.366582413912309, abs=1e-12)

    def test_requires_dirichlet(self, b2):
        g = assemble_source(b2, ONE_VORTEX)
        with pytest.raises(ValueError, match="Dirichlet"):
            energy_eval(Field(b2, np.ones(b2.n_closure)), g, Params(1.0, 1.0))

    def test_first_iterates_decrease(self):
        dom = build_domain(2, 4)
        params = Params(1.0, 1.0)
        g = assemble_source(dom, ONE_VORTEX)
        f1 = iterate_once(Field.zeros(dom), g, params)
        f2 = iterate_once(f1, g, params)
        e1 = energy_eval(f1, g, params)
        e2 = energy_eval(f2, g, params)
        assert e1 <= 0.0
        assert e2 <= e1 + 1e-12


class TestResidual:
    def test_zero_everything(self, b2):
        g = assemble_source(b2, VortexConfig([]))
        assert np.max(np.abs(residual(Field.zeros(b2), g, Params(1.0, 1.0)))) == 0.0

    def test_zero_field_sees_source(self, b2):
        g = assemble_source(b2, ONE_VORTEX)
        r = residual(Field.zeros(b2), g, Params(1.0, 1.0))
        expected = np.zeros(b2.n_interior)
        expected[b2.index[(0, 0)]] = -FOUR_PI
        assert np.allclose(r, expected, atol=0.0)

    def test_converged_solution_residual_small(self):
        dom = build_domain(2, 6)
        sol = solve_bounded(dom, ONE_VORTEX, Params(1.0, 1.0), tol_nonlinear=1e-11)
        g = assemble_source(dom, ONE_VORTEX)
        r = residual(sol.field, g, sol.params)
        assert np.max(np.abs(r)) <= 1e-9


class TestSolveBounded:
    def test_empty_vortices_trivial(self, b3):
        sol = solve_bounded(b3, VortexConfig([]), Params(1.0, 1.0))
        assert not np.any(sol.field.values)
        assert sol.iterations == 1
        assert len(sol.trace) == 2  # initial state plus one step

    def test_single_vertex_matches_bisection(self):
        dom = build_domain(2, 0)
        sol = solve_bounded(dom, ONE_VORTEX, Params(1.0, 1.0, 2.0), tol_nonlinear=1e-12)
        assert sol.field((0, 0)) == pytest.approx(single_vertex_limit(), abs=1e-9)

    def test_trace_invariants(self):
        dom = build_domain(2, 8)
        sol = solve_bounded(dom, ONE_VORTEX, Params(1.0, 1.0))
        sup = sol.trace.column("sup_diff")
        energy = sol.trace.column("energy")
        assert np.all(sup >= 0.0)
        assert sol.trace.max_monotone_violation <= 1e-10
        assert np.all(np.diff(energy) <= 1e-10)
        assert np.all(energy[1:] <= 1e-10)
        assert energy[0] == 0.0

    def test_sign_and_vortex_negativity(self):
        dom = build_domain(2, 8)
        sol = solve_bounded(dom, ONE_VORTEX, Params(1.0, 1.0))
        assert np.max(sol.field.values) <= 1e-10
        assert sol.field((0, 0)) < -1.0

    def test_flux_identity(self):
        dom = build_domain(2, 8)
        params = Params(1.0, 1.0)
        sol = solve_bounded(dom, ONE_VORTEX, params, tol_nonlinear=1e-11,
                            linear_opts=LinearSolveOptions(tol_rel=1e-13))
        mass = float(np.sum(nonlinearity(sol.field.interior_values, params)))
        assert mass + ONE_VORTEX.total_flux == pytest.approx(boundary_flux(sol.field), abs=1e-8)

    def test_max_steps_exhaustion(self):
        dom = build_domain(2, 5)
        with pytest.raises(ConvergenceError) as err:
            solve_bounded(dom, ONE_VORTEX, Params(1.0, 1.0), max_steps=3)
        assert err.value.trace is not None
        assert err.value.trace.iterations == 3

    def test_symmetry_equivariance(self):
        dom = build_domain(2, 8)
        sol = solve_bounded(dom, ONE_VORTEX, Params(1.0, 1.0))
        values = {}
        worst = 0.0
        for p in dom.points:
            canon = tuple(sorted(abs(c) for c in p))
            v = sol.field(p)
            if canon in values:
                worst = max(worst, abs(v - values[canon]))
            else:
                values[canon] = v
        assert worst <= 1e-10

    def test_limit_independent_of_k(self):
        # both runs approach the same K-free solution from above; the
        # distance left at the stopping point is bounded a posteriori by
        # sup_diff * rho / (1 - rho) with rho the observed contraction rate
        dom = build_domain(2, 6)
        tol = 1e-11
        fields, bounds = [], []
        for K in (2.0, 6.0):
            sol = solve_bounded(dom, ONE_VORTEX, Params(1.0, 1.0, K),
                                tol_nonlinear=tol, max_steps=2000)
            sup = sol.trace.column("sup_diff")
            rho = float(np.exp(np.mean(np.log(sup[-4:] / sup[-5:-1]))))
            assert rho < 1.0
            fields.append(sol.field.values)
            bounds.append(sup[-1] * rho / (1.0 - rho))
        gap = float(np.max(np.abs(fields[0] - fields[1])))
        assert gap <= 1.2 * (bounds[0] + bounds[1])
        assert gap <= 100.0 * tol

    def test_rejects_bad_tolerance(self, b2):
        with pytest.raises(ValueError, match="tol_nonlinear"):
            solve_bounded(b2, ONE_VORTEX, Params(1.0, 1.0), tol_nonlinear=0.0)
        with pytest.raises(ValueError, match="max_steps"):
            solve_bounded(b2, ONE_VORTEX, Params(1.0, 1.0), max_steps=0)


class TestNewtonOracle:
    def test_started_at_root_stays(self):
        dom = build_domain(2, 5)
        params = Params(1.0, 1.0)
        sol = solve_bounded(dom, ONE_VORTEX, params, tol_nonlinear=1e-11)
        root = newton_solve(dom, ONE_VORTEX, params, sol.field, tol=1e-9)
        assert np.max(np.abs(root.values - sol.field.values)) <= 1e-10

    def test_single_vertex_from_zero(self):
        dom = build_domain(2, 0)
        root = newton_solve(dom, ONE_VORTEX, Params(1.0, 1.0, 2.0),
                            Field.zeros(dom), tol=1e-12)
        assert root((0, 0)) == pytest.approx(single_vertex_limit(), abs=1e-10)

    def test_random_starts_stay_below_maximal(self, rng):
        dom = build_domain(2, 5)
        params = Params(1.0, 1.0)
        reference = solve_bounded(dom, ONE_VORTEX, params, tol_nonlinear=1e-11)
        converged = 0
        for _ in range(6):
            start = Field.from_interior(dom, -3.0 * rng.random(dom.n_interior))
            try:
                root = newton_solve(dom, ONE_VORTEX, params, start)
            except ConvergenceError:
                continue
            converged += 1
            assert np.max(root.values - reference.field.values) <= 1e-8
        assert converged >= 1

    def test_no_dense_jacobian(self, monkeypatch):
        dom = build_domain(3, 5)
        vc = VortexConfig([((0, 0, 0), 1)])
        params = Params(1.0, 1.0)
        reference = solve_bounded(dom, vc, params)

        def dense(*_args, **_kwargs):
            raise AssertionError("newton_solve built or solved a dense system")

        monkeypatch.setattr(np.linalg, "solve", dense)
        monkeypatch.setattr("cslattice.scheme.system_matrix", dense)
        root = newton_solve(dom, vc, params, Field.zeros(dom))
        assert np.max(np.abs(root.values - reference.field.values)) <= MAXIMALITY_TOL

    def test_indefinite_jacobian_raises_with_newton_iterate(self):
        # at f = ln(1/4), N'(f) = -1/8 (a = lam = 1) lies below
        # lambda_min(-L) = 0.121 of the 2D R=8 ball: CG meets p.Ap <= 0
        dom = build_domain(2, 8)
        params = Params(1.0, 1.0)
        start = Field.from_interior(dom, np.full(dom.n_interior, math.log(0.25)))
        with pytest.raises(ConvergenceError, match="Newton step failed.*positive definite") as err:
            newton_solve(dom, ONE_VORTEX, params, start)
        assert np.array_equal(err.value.best.values, start.values)
        g = assemble_source(dom, ONE_VORTEX)
        assert err.value.residual == np.max(np.abs(residual(start, g, params)))

    def test_rejects_positive_start(self, b2):
        with pytest.raises(ValueError, match="nonpositive"):
            newton_solve(b2, ONE_VORTEX, Params(1.0, 1.0),
                         Field(b2, np.ones(b2.n_closure)))
