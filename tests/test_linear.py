import math
import re
import tracemalloc

import numpy as np
import pytest

from cslattice import (
    ConvergenceError,
    Field,
    LinearSystem,
    build_domain,
    dense_solve,
    grad_energy,
    linear_energy_eval,
    linear_solve,
    system_matrix,
)
from cslattice import linear as linear_mod
from cslattice.fields import ONE_TAKE_MAX
from cslattice.linear import DENSE_MAX_UNKNOWNS, ORACLE_REL_TOL

TIGHT = 1e-13


def _cap_iterations(monkeypatch, dom, iterations):
    """Make linear_solve give up after this many CG iterations on dom."""
    per_unknown = (iterations + 0.5) / len(dom.red_black.red)
    monkeypatch.setattr(linear_mod, "CG_ITERATIONS_PER_UNKNOWN", per_unknown)


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
    u = linear_solve(LinearSystem(dom, 2.0, v), 1e-12)
    A = system_matrix(dom, 2.0)
    res = A @ u.interior_values - (-v)  # (K I - L) u + v = -((L - K)u - v)
    assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(v)


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


def test_convergence_failure_carries_final_iterate_and_true_residual(monkeypatch, rng):
    dom = build_domain(2, 6)
    v = rng.standard_normal(dom.n_interior)
    _cap_iterations(monkeypatch, dom, 2)
    with pytest.raises(ConvergenceError, match="final true residual") as err:
        linear_solve(LinearSystem(dom, 2.0, v), 1e-13)
    best = err.value.best
    assert isinstance(best, Field)
    # (K I - L) u + v = -((L - K) u - v): the true residual of the carried field
    true_res = np.linalg.norm(system_matrix(dom, 2.0) @ best.interior_values - (-v))
    assert err.value.residual > 1e-13 * np.linalg.norm(v)
    assert err.value.residual == pytest.approx(true_res, rel=1e-12)


def test_tolerance_validation(b2):
    system = LinearSystem(b2, 1.0, np.ones(b2.n_interior))
    for bad, message in ((1.5, "must lie in"), (0.0, "must lie in"),
                         (math.nan, "must be a finite number"), (True, "must be a number"),
                         ("1e-12", "must be a number")):
        with pytest.raises(ValueError, match=f"tol_rel {message}"):
            linear_solve(system, bad)
    block = LinearSystem(b2, 1.0, np.ones((2, b2.n_interior)))
    with pytest.raises(ValueError, match="tol_rel must lie in"):
        linear_solve(block, (0.1, 1.0))
    assert linear_solve(system, np.float32(0.5)).is_dirichlet()


def test_system_validation(b2):
    with pytest.raises(ValueError, match="K must be"):
        LinearSystem(b2, 0.0, np.zeros(b2.n_interior))
    with pytest.raises(ValueError, match="rhs"):
        LinearSystem(b2, 1.0, np.zeros(3))


def test_nonfinite_data_rejected():
    # these reached CG, which blamed the operator: "p.Ap = nan ... not positive definite"
    dom = build_domain(2, 4)
    rhs = np.ones(dom.n_interior)
    for K in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"K must be positive and finite, got {K}"):
            LinearSystem(dom, K, rhs)
    for bad in (math.nan, math.inf, -math.inf):
        rhs = np.ones(dom.n_interior)
        rhs[7] = bad
        with pytest.raises(ValueError, match=f"rhs must be finite, got {bad} at interior index 7$"):
            LinearSystem(dom, 1.0, rhs)
        block = np.ones((3, dom.n_interior))
        block[2, 7] = bad
        with pytest.raises(ValueError, match=f"got {bad} at interior index 7 of row 2$"):
            LinearSystem(dom, 1.0, block)


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
    zero = np.zeros(b2.n_interior)
    assert linear_energy_eval(LinearSystem(b2, 2.0, zero), zero) == 0.0


def test_energy_hand_case():
    # single unknown, K=2, v=6, u=-1: 1/2*4 + 1/2*2 + (-6) = -3
    dom = build_domain(2, 0)
    energy = linear_energy_eval(LinearSystem(dom, 2.0, np.array([6.0])), np.array([-1.0]))
    assert energy == pytest.approx(-3.0, abs=1e-14)


def test_energy_validation(b2):
    n_int = b2.n_interior
    with pytest.raises(ValueError, match="scalar K and one rhs"):
        linear_energy_eval(LinearSystem(b2, np.ones(n_int), np.zeros(n_int)), np.zeros(n_int))
    with pytest.raises(ValueError, match="scalar K and one rhs"):
        linear_energy_eval(LinearSystem(b2, 1.0, np.zeros((2, n_int))), np.zeros(n_int))
    system = LinearSystem(b2, 1.0, np.zeros(n_int))
    for bad in (np.zeros(1), np.zeros(b2.n_closure), np.zeros((2, 2, n_int))):
        with pytest.raises(ValueError, match=f"u needs {n_int} interior values"):
            linear_energy_eval(system, bad)


def test_solution_minimizes_energy(rng):
    dom = build_domain(2, 4)
    v = rng.standard_normal(dom.n_interior)
    system = LinearSystem(dom, 2.0, v)
    u = linear_solve(system, TIGHT).interior_values
    base = linear_energy_eval(system, u)
    for _ in range(100):
        phi = rng.standard_normal(dom.n_interior)
        phi /= np.linalg.norm(phi)
        for t in (1e-2, -1e-2, 1e-4, -1e-4):
            assert linear_energy_eval(system, u + t * phi) - base >= -1e-12


def test_warm_start_still_meets_tolerance(rng):
    dom = build_domain(2, 5)
    v = rng.standard_normal(dom.n_interior)
    x0 = rng.standard_normal(dom.n_interior)
    u = linear_solve(LinearSystem(dom, 2.0, v), TIGHT, x0=x0)
    A = system_matrix(dom, 2.0)
    assert np.linalg.norm(A @ u.interior_values + v) <= 1e-13 * np.linalg.norm(v)


@pytest.mark.parametrize("n,radius", [(2, 7), (3, 4), (4, 3)])
@pytest.mark.parametrize("per_point", [False, True])
@pytest.mark.parametrize("warm", [False, True])
def test_reduced_cg_meets_full_residual_and_oracle(n, radius, per_point, warm, rng):
    dom = build_domain(n, radius)
    n_int = dom.n_interior
    # per point: shifts down to -0.05 keep K - L positive definite on these balls
    K = rng.uniform(-0.05, 2.0, n_int) if per_point else 1.5
    A = system_matrix(dom, 0.0) + np.diag(np.broadcast_to(K, n_int))
    assert np.min(np.linalg.eigvalsh(A)) > 0
    assert not per_point or np.min(K) < 0
    v = rng.standard_normal(n_int)
    x0 = rng.standard_normal(n_int) if warm else None
    system = LinearSystem(dom, K, v)
    u = linear_solve(system, TIGHT, x0=x0)
    assert u.is_dirichlet()
    ui = u.interior_values
    # red and black rows alike: (K I - L) u + v = -((L - K) u - v)
    assert np.linalg.norm(A @ ui + v) <= TIGHT * np.linalg.norm(v)
    exact = dense_solve(system).interior_values
    assert np.linalg.norm(ui - exact) <= ORACLE_REL_TOL * np.linalg.norm(exact)


def _never(*_args):
    raise AssertionError("conjugate gradients iterated")


@pytest.mark.parametrize("k_value", [-4.0, -4.5])
def test_nonpositive_diagonal_raises_before_iterating(monkeypatch, rng, k_value):
    dom = build_domain(2, 8)
    K = np.ones(dom.n_interior)
    i = int(dom.locate((2, -3)))
    K[i] = k_value  # K + 2n = 0 or -0.5 there
    monkeypatch.setattr(linear_mod, "_apply_reduced", _never)
    with pytest.raises(ConvergenceError,
                       match=re.escape(f"{k_value + 4:.3e} at interior index {i} (2, -3)")
                       + ".*positive definite"):
        linear_solve(LinearSystem(dom, K, rng.standard_normal(dom.n_interior)))


def test_max_iter_counts_reduced_iterations(monkeypatch, rng):
    dom = build_domain(2, 6)
    real = linear_mod._apply_reduced
    applied = []

    def counting(*args):
        applied.append(1)
        return real(*args)

    monkeypatch.setattr(linear_mod, "_apply_reduced", counting)
    _cap_iterations(monkeypatch, dom, 3)
    with pytest.raises(ConvergenceError, match="within 3 iterations"):
        linear_solve(LinearSystem(dom, 2.0, rng.standard_normal(dom.n_interior)), 1e-13)
    assert len(applied) == 3


def test_block_runs_as_long_as_its_slowest_column(monkeypatch, rng):
    # lockstep: one reduced application per iteration for the whole block,
    # so a block costs its slowest column's solo count, not the sum
    dom = build_domain(2, 6)
    real = linear_mod._apply_reduced
    applied = []

    def counting(*args):
        applied.append(1)
        return real(*args)

    monkeypatch.setattr(linear_mod, "_apply_reduced", counting)
    rhs = rng.standard_normal((3, dom.n_interior))
    tols = (1e-2, 1e-12, 1e-6)
    solo = []
    for v, tol in zip(rhs, tols):
        applied.clear()
        linear_solve(LinearSystem(dom, 2.0, v), tol)
        solo.append(len(applied))
    assert len(set(solo)) == 3
    applied.clear()
    linear_solve(LinearSystem(dom, 2.0, rhs), tols)
    assert len(applied) == max(solo)


def _solo_outcome(system, tol_rel, x0):
    try:
        return linear_solve(system, tol_rel, x0=x0)
    except ConvergenceError as exc:
        return exc


def _assert_same_outcome(block_entry, solo):
    if isinstance(solo, ConvergenceError):
        assert isinstance(block_entry, ConvergenceError)
        assert str(block_entry) == str(solo) and block_entry.residual == solo.residual
        if solo.best is not None:
            assert np.array_equal(block_entry.best.values, solo.best.values)
    else:
        assert np.array_equal(block_entry.values, solo.values)


@pytest.mark.parametrize("n,radius", [(2, 7), (3, 4), (4, 3), (4, 10)])
@pytest.mark.parametrize("shift", ["scalar", "shared", "per_column"])
def test_block_columns_equal_solo_solves_bitwise(n, radius, shift, rng):
    # Columns with their own tolerances leave the block at different
    # iterations; a zero column leaves before the first and a warm start
    # that already meets its tolerance is returned as it stands.  On 4D
    # R=10 the red table lies above ONE_TAKE_MAX, so the column-loop gather
    # runs with a batch axis.
    dom = build_domain(n, radius)
    n_int, m = dom.n_interior, 5
    split = dom.red_black
    largest = max(split.red_neighbors.size, split.black_neighbors.size)
    assert (largest > ONE_TAKE_MAX) == (radius == 10)
    K = {"scalar": 1.5, "shared": rng.uniform(0.5, 2.0, n_int),
         "per_column": rng.uniform(0.5, 2.0, (m, n_int))}[shift]
    rhs = rng.standard_normal((m, n_int))
    rhs[2] = 0.0
    x0 = rng.standard_normal((m, n_int))
    tols = np.array([1e-12, 1e-4, 1e-12, 1e-8, 1e-10])
    per_column = [K[j] if shift == "per_column" else K for j in range(m)]
    x0[4] = linear_solve(LinearSystem(dom, per_column[4], rhs[4]), TIGHT).interior_values
    # the rows of columns that have left stay in the block and are still gathered
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        block = linear_solve(LinearSystem(dom, K, rhs), tols, x0=x0)
    assert len(block) == m and not np.any(block[2].values)
    for j in range(m):
        solo = linear_solve(LinearSystem(dom, per_column[j], rhs[j]),
                            tols[j], x0=x0[j])
        assert np.array_equal(block[j].values, solo.values)
    assert np.array_equal(block[4].interior_values, x0[4])


def test_block_failures_stay_in_their_columns(monkeypatch, rng):
    # A nonpositive K + 2n, a search direction with p.Ap <= 0 and an
    # unreachable tolerance each fail their own column, with the error of
    # its solo solve; the other columns are solved as they are alone.
    dom = build_domain(2, 8)
    n_int = dom.n_interior
    K = rng.uniform(0.5, 2.0, (4, n_int))
    K[1, 7] = -4.5           # K + 2n < 0 at one point
    K[2] = -1.0              # K - L indefinite: p.Ap <= 0 at some iteration
    rhs = rng.standard_normal((4, n_int))
    tols = np.array([1e-6, 1e-6, 1e-6, 1e-15])  # column 3 cannot meet 1e-15 in 12 iterations
    _cap_iterations(monkeypatch, dom, 12)
    # the failed columns' rows stay in the block and are still gathered
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        block = linear_solve(LinearSystem(dom, K, rhs), tols)
    assert isinstance(block[0], Field)
    assert [type(entry) for entry in block[1:]] == [ConvergenceError] * 3
    assert "interior index 7" in str(block[1]) and "p.Ap" in str(block[2])
    assert "within 12 iterations" in str(block[3])
    for j in range(4):
        solo = _solo_outcome(LinearSystem(dom, K[j], rhs[j]), tols[j], None)
        _assert_same_outcome(block[j], solo)


def test_per_column_tolerances_must_match_the_block(b2):
    block = LinearSystem(b2, 1.0, np.ones((2, b2.n_interior)))
    for tols in ((0.1,), (0.1, 0.1, 0.1)):
        with pytest.raises(ValueError, match="one value per column"):
            linear_solve(block, tols)


def test_dense_block_shares_one_factorization(rng):
    dom = build_domain(3, 3)
    rhs = rng.standard_normal((3, dom.n_interior))
    block = dense_solve(LinearSystem(dom, 2.0, rhs))
    for u, v in zip(block, rhs):
        single = dense_solve(LinearSystem(dom, 2.0, v)).interior_values
        assert np.linalg.norm(u.interior_values - single) <= 1e-14 * np.linalg.norm(single)
    with pytest.raises(ValueError, match="one K"):
        dense_solve(LinearSystem(dom, np.ones((3, dom.n_interior)), rhs))


def test_block_energy_equals_single_evaluations_bitwise(rng):
    dom = build_domain(3, 4)
    v = rng.standard_normal(dom.n_interior)
    u = rng.standard_normal((7, dom.n_interior))
    system = LinearSystem(dom, 2.0, v)
    block = linear_energy_eval(system, u)
    # the definition, one Dirichlet field at a time, as plain floats
    expected = [0.5 * grad_energy(Field.from_interior(dom, ui)) + 0.5 * 2.0 * float(np.dot(ui, ui))
                + float(np.dot(v, ui)) for ui in u]
    assert np.array_equal(block, expected)
    assert linear_energy_eval(system, u[3]) == expected[3]
