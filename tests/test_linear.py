import tracemalloc

import numpy as np
import pytest

from cslattice import (
    ConvergenceError,
    Field,
    LinearSolveOptions,
    LinearSystem,
    build_domain,
    dense_solve,
    linear_energy_eval,
    linear_solve,
    system_matrix,
)
from cslattice.linear import DENSE_MAX_UNKNOWNS

TIGHT = LinearSolveOptions(tol_rel=1e-13)


def test_zero_rhs_gives_exact_zero(b3):
    u = linear_solve(LinearSystem(b3, 3.0, np.zeros(b3.n_interior)))
    assert not np.any(u.values)


def test_single_unknown_closed_form():
    # (L - K)u = v at one interior vertex: -(4 + K) u(0) = v(0)
    dom = build_domain(2, 0)
    u = linear_solve(LinearSystem(dom, 2.0, np.array([6.0])))
    assert u((0, 0)) == pytest.approx(-1.0, abs=1e-13)


def test_system_matrix_structure():
    dom = build_domain(2, 2)
    K = 3.0
    A = system_matrix(dom, K)
    assert np.allclose(A, A.T)
    assert np.all(np.diag(A) == K + 4.0)
    n_int_edges = int(np.sum(dom.edge_head < dom.n_interior))
    assert np.sum(A == -1.0) == 2 * n_int_edges
    assert np.min(np.linalg.eigvalsh(A)) > 0.0


def test_iterative_matches_dense_oracle(rng):
    for i in range(20):
        n, radius = (2, 3 + i % 12) if i % 2 == 0 else (3, 2 + i % 4)
        dom = build_domain(n, radius)
        assert dom.n_interior <= 500
        sys_ = LinearSystem(dom, 3.0, rng.standard_normal(dom.n_interior))
        it = linear_solve(sys_, TIGHT).interior_values
        dd = dense_solve(sys_).interior_values
        rel = np.linalg.norm(it - dd) / np.linalg.norm(dd)
        assert rel <= 1e-10


def test_residual_contract(rng):
    dom = build_domain(2, 5)
    v = rng.standard_normal(dom.n_interior)
    opts = LinearSolveOptions(tol_rel=1e-12)
    u = linear_solve(LinearSystem(dom, 2.0, v), opts)
    A = system_matrix(dom, 2.0)
    res = A @ u.interior_values - (-v)  # (K I - L) u + v = -((L - K)u - v)
    assert np.linalg.norm(res) <= opts.tol_rel * np.linalg.norm(v)


def test_solution_linear_in_rhs(rng):
    dom = build_domain(2, 4)
    v1 = rng.standard_normal(dom.n_interior)
    v2 = rng.standard_normal(dom.n_interior)
    u1 = linear_solve(LinearSystem(dom, 3.0, v1), TIGHT).interior_values
    u2 = linear_solve(LinearSystem(dom, 3.0, v2), TIGHT).interior_values
    u12 = linear_solve(LinearSystem(dom, 3.0, v1 + v2), TIGHT).interior_values
    assert np.linalg.norm(u12 - (u1 + u2)) <= 1e-10 * np.linalg.norm(u12)


def test_maximum_principle(rng):
    # nonnegative v forces u <= 0 everywhere
    dom = build_domain(2, 4)
    for _ in range(20):
        v = np.abs(rng.standard_normal(dom.n_interior))
        u = linear_solve(LinearSystem(dom, 2.0, v), TIGHT)
        assert np.max(u.values) <= 1e-11


def test_convergence_failure_carries_final_iterate_and_true_residual(rng):
    dom = build_domain(2, 6)
    v = rng.standard_normal(dom.n_interior)
    with pytest.raises(ConvergenceError, match="final true residual") as err:
        linear_solve(LinearSystem(dom, 2.0, v), LinearSolveOptions(tol_rel=1e-13, max_iter=2))
    best = err.value.best
    assert isinstance(best, Field)
    # (K I - L) u + v = -((L - K) u - v): the true residual of the carried field
    true_res = np.linalg.norm(system_matrix(dom, 2.0) @ best.interior_values - (-v))
    assert err.value.residual > 1e-13 * np.linalg.norm(v)
    assert err.value.residual == pytest.approx(true_res, rel=1e-12)


def test_options_validation():
    with pytest.raises(ValueError, match="tol_rel"):
        LinearSolveOptions(tol_rel=1.5)
    with pytest.raises(ValueError, match="max_iter"):
        LinearSolveOptions(max_iter=0)


def test_system_validation(b2):
    with pytest.raises(ValueError, match="K must be"):
        LinearSystem(b2, 0.0, np.zeros(b2.n_interior))
    with pytest.raises(ValueError, match="rhs"):
        LinearSystem(b2, 1.0, np.zeros(3))


def test_per_point_shift_validation(b2):
    rhs = np.zeros(b2.n_interior)
    with pytest.raises(ValueError, match="interior values"):
        LinearSystem(b2, np.ones(b2.n_interior + 1), rhs)
    bad = np.ones(b2.n_interior)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        LinearSystem(b2, bad, rhs)


def test_per_point_shift_matches_dense(rng):
    # lambda_min(-L) on the 2D R=8 ball is 0.121, so shifts down to -0.05
    # keep -L + diag(K) positive definite while some entries are negative
    dom = build_domain(2, 8)
    K = rng.uniform(-0.05, 2.0, dom.n_interior)
    assert np.min(K) < 0
    v = rng.standard_normal(dom.n_interior)
    u = linear_solve(LinearSystem(dom, K, v), TIGHT).interior_values
    exact = np.linalg.solve(system_matrix(dom, 0.0) + np.diag(K), -v)
    assert np.linalg.norm(u - exact) <= 1e-10 * np.linalg.norm(exact)


def test_indefinite_shift_raises(rng):
    dom = build_domain(2, 8)
    sys_ = LinearSystem(dom, -np.ones(dom.n_interior), rng.standard_normal(dom.n_interior))
    with pytest.raises(ConvergenceError, match="positive definite"):
        linear_solve(sys_)


def test_system_matrix_size_guard():
    dom = build_domain(4, 9)
    assert dom.n_interior > DENSE_MAX_UNKNOWNS
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{dom.n_interior}x{dom.n_interior}.* MB"):
            system_matrix(dom, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # the matrix would be 255 MB


def test_energy_zero_field(b2):
    assert linear_energy_eval(Field.zeros(b2), np.zeros(b2.n_interior), 2.0) == 0.0


def test_energy_hand_case():
    # single unknown, K=2, v=6, u=-1: 1/2*4 + 1/2*2 + (-6) = -3
    dom = build_domain(2, 0)
    u = Field.from_interior(dom, np.array([-1.0]))
    assert linear_energy_eval(u, np.array([6.0]), 2.0) == pytest.approx(-3.0, abs=1e-14)


def test_energy_requires_dirichlet(b2):
    f = Field(b2, np.ones(b2.n_closure))
    with pytest.raises(ValueError, match="boundary"):
        linear_energy_eval(f, np.zeros(b2.n_interior), 1.0)


def test_solution_minimizes_energy(rng):
    dom = build_domain(2, 4)
    K = 2.0
    v = rng.standard_normal(dom.n_interior)
    u = linear_solve(LinearSystem(dom, K, v), TIGHT)
    base = linear_energy_eval(u, v, K)
    for _ in range(100):
        phi = rng.standard_normal(dom.n_interior)
        phi /= np.linalg.norm(phi)
        for t in (1e-2, -1e-2, 1e-4, -1e-4):
            trial = Field.from_interior(dom, u.interior_values + t * phi)
            assert linear_energy_eval(trial, v, K) - base >= -1e-12


def test_warm_start_still_meets_tolerance(rng):
    dom = build_domain(2, 5)
    v = rng.standard_normal(dom.n_interior)
    x0 = rng.standard_normal(dom.n_interior)
    u = linear_solve(LinearSystem(dom, 2.0, v), TIGHT, x0=x0)
    A = system_matrix(dom, 2.0)
    assert np.linalg.norm(A @ u.interior_values + v) <= 1e-13 * np.linalg.norm(v)
