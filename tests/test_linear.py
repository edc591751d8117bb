import math
import re
import tracemalloc

import numpy as np
import pytest

from cslattice import (
    ConvergenceError,
    Field,
    LinearSystem,
    Params,
    VortexConfig,
    assemble_source,
    build_domain,
    dense_solve,
    iterate_once,
    linear_solve,
    system_matrix,
)
from cslattice import linear as linear_mod
from cslattice import scheme as scheme_mod
from cslattice.lattice import RedBlack
from cslattice.linear import DENSE_MAX_UNKNOWNS, ORACLE_REL_TOL

from conftest import linear_energy_eval

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
    # the neighbour table lists each interior edge from both ends
    assert np.sum(A == -1.0) == np.count_nonzero(dom.neighbors < dom.n_interior)
    assert np.min(np.linalg.eigvalsh(A)) > 0.0
    # equal, entry for entry, to K I - L written out from the coordinates
    for n, radius, K in ((2, 4, 3.0), (3, 3, 0.5), (4, 2, 2.0)):
        dom = build_domain(n, radius)
        interior = [tuple(p) for p in dom.coords[: dom.n_interior].tolist()]
        index = {p: i for i, p in enumerate(interior)}
        expected = np.diag(np.full(len(interior), K + 2 * n))
        for i, p in enumerate(interior):
            for axis in range(n):
                for step in (-1, 1):
                    q = p[:axis] + (p[axis] + step,) + p[axis + 1 :]
                    if q in index:
                        expected[i, index[q]] = -1.0
        assert np.array_equal(system_matrix(dom, K), expected)


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


# A small ball per dimension n = 2, 3, 4, and the default K = a*lam + 1 at
# a = 1 and lam = 0.1, 1, 10: the cases of the linear properties below.
SMALL_BALL_CASES = [(build_domain(n, radius), K)
                    for n, radius in ((2, 4), (3, 3), (4, 2)) for K in (1.1, 2.0, 11.0)]


def test_maximum_principle(rng):
    # nonnegative v forces u <= 0 everywhere
    for dom, K in SMALL_BALL_CASES:
        for _ in range(20):
            v = np.abs(rng.standard_normal(dom.n_interior))
            u = linear_solve(LinearSystem(dom, K, v), TIGHT)
            assert np.max(u.values) <= 1e-11, (dom.dim, K)


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
    # tol_rel's type and range: test_validation.py
    system = LinearSystem(b2, 1.0, np.ones(b2.n_interior))
    assert linear_solve(system, np.float32(0.5)).is_dirichlet()


def test_system_validation(b2):
    # a scalar K's type and range: test_validation.py
    with pytest.raises(ValueError, match="rhs"):
        LinearSystem(b2, 1.0, np.zeros(3))


def test_system_takes_one_rhs(b2):
    # an (m, n_interior) rhs was a block of m systems
    n_int = b2.n_interior
    with pytest.raises(ValueError, match=re.escape(f"rhs needs {n_int} interior values, "
                                                   f"got (2, {n_int})")):
        LinearSystem(b2, 1.0, np.ones((2, n_int)))


def test_nonfinite_data_rejected():
    # these reached CG, which blamed the operator: "p.Ap = nan ... not positive definite";
    # a non-finite scalar K: test_validation.py
    dom = build_domain(2, 4)
    for bad in (math.nan, math.inf, -math.inf):
        rhs = np.ones(dom.n_interior)
        rhs[7] = bad
        with pytest.raises(ValueError, match=f"rhs must be finite, got {bad} at interior index 7$"):
            LinearSystem(dom, 1.0, rhs)


def test_start_validated_by_name():
    # a wrong length raised numpy's "cannot reshape array of size 42 into
    # shape (1,41)"; a NaN on a black point was dropped and the solve returned
    # a finite field, and one on a red point was blamed on the operator
    dom = build_domain(2, 4)
    n_int = dom.n_interior
    system = LinearSystem(dom, 2.0, np.ones(n_int))
    with pytest.raises(ValueError, match=re.escape(f"x0 needs the rhs's shape ({n_int},), "
                                                   f"got ({n_int + 1},)")):
        linear_solve(system, x0=np.zeros(n_int + 1))
    for colour in (dom.red_black.black, dom.red_black.red):
        x0 = np.zeros(n_int)
        x0[colour[3]] = np.nan
        with pytest.raises(ValueError, match=f"x0 must be finite, got nan at interior index "
                                             f"{colour[3]}$"):
            linear_solve(system, x0=x0)


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
    with pytest.raises(ValueError, match="needs a system with a scalar K"):
        linear_energy_eval(LinearSystem(b2, np.ones(n_int), np.zeros(n_int)), np.zeros(n_int))
    system = LinearSystem(b2, 1.0, np.zeros(n_int))
    for bad in (np.zeros(1), np.zeros(b2.n_closure), np.zeros((2, n_int)),
                np.zeros((2, 2, n_int))):
        with pytest.raises(ValueError, match=f"u needs {n_int} interior values"):
            linear_energy_eval(system, bad)


def test_solution_minimizes_energy(rng):
    for dom, K in SMALL_BALL_CASES:
        system = LinearSystem(dom, K, rng.standard_normal(dom.n_interior))
        u = linear_solve(system, TIGHT).interior_values
        base = linear_energy_eval(system, u)
        for _ in range(100):
            phi = rng.standard_normal(dom.n_interior)
            phi /= np.linalg.norm(phi)
            for t in (1e-2, -1e-2, 1e-4, -1e-4):
                assert linear_energy_eval(system, u + t * phi) - base >= -1e-12, (dom.dim, K)


def test_zero_start_is_the_cold_start(monkeypatch):
    # every cold monotone step starts CG from f_0 = 0; it must cost what
    # x0=None costs (no S_br x_r and no residual of the zero start) and give its bits
    dom = build_domain(2, 10)
    g = assemble_source(dom, VortexConfig([((0, 0), 1)]))
    params = Params(1.0, 1.0)
    real = linear_mod._sums
    calls = []

    def counting(table, buf):
        calls.append(buf.shape)
        return real(table, buf)

    real_solve, solves = scheme_mod.linear_solve, []

    def recording(system, tol_rel, x0=None):
        solves.append((system, tol_rel, x0))
        return real_solve(system, tol_rel, x0)

    monkeypatch.setattr(linear_mod, "_sums", counting)
    monkeypatch.setattr(scheme_mod, "linear_solve", recording)
    zero_start = iterate_once(Field.zeros(dom), g, params)
    zero_calls = list(calls)
    calls.clear()
    (system, tol_rel, x0), = solves
    assert x0 is not None and not x0.any()
    cold = real_solve(system, tol_rel)
    assert zero_calls == calls and calls
    assert np.array_equal(zero_start.values.view(np.int64), cold.values.view(np.int64))


class _Derived(np.ndarray):
    """An array that records the size of every array numpy derives from it:
    ufunc results, copies and fancy-indexed takes alike."""

    sizes: list[int] = []

    def __array_finalize__(self, obj):
        if obj is not None:
            _Derived.sizes.append(self.size)


def test_cold_start_makes_no_interior_copy_of_rhs(monkeypatch, rng):
    # b = -rhs is formed by colour, straight from rhs: no closure- or
    # interior-size array derives from it, and the solution is unchanged
    dom = build_domain(3, 6)
    rhs = rng.standard_normal(dom.n_interior)
    system = LinearSystem(dom, 2.0, rhs)
    plain = linear_solve(system, TIGHT)
    object.__setattr__(system, "rhs", rhs.view(_Derived))
    monkeypatch.setattr(_Derived, "sizes", [])
    traced = linear_solve(system, TIGHT)
    assert _Derived.sizes  # the colour splits derive from rhs
    assert max(_Derived.sizes) <= max(len(dom.red_black.red), len(dom.red_black.black))
    assert np.array_equal(traced.values.view(np.int64), plain.values.view(np.int64))


def test_warm_start_still_meets_tolerance(rng):
    dom = build_domain(2, 5)
    v = rng.standard_normal(dom.n_interior)
    x0 = rng.standard_normal(dom.n_interior)
    u = linear_solve(LinearSystem(dom, 2.0, v), TIGHT, x0=x0)
    A = system_matrix(dom, 2.0)
    assert np.linalg.norm(A @ u.interior_values + v) <= 1e-13 * np.linalg.norm(v)


@pytest.mark.parametrize("n,radius", [(2, 0), (2, 1), (2, 7), (2, 8), (3, 4), (4, 3)])
@pytest.mark.parametrize("per_point", [False, True])
@pytest.mark.parametrize("warm", [False, True])
def test_reduced_cg_meets_full_residual_and_oracle(n, radius, per_point, warm, rng):
    # 2D R=0 has an empty black grid, and red fills the larger grid at even R
    dom = build_domain(n, radius)
    n_int = dom.n_interior
    # per point: shifts down to -0.05 keep K - L positive definite on these
    # balls; the one at the origin is -0.05, so a tiny ball has one too
    K = rng.uniform(-0.05, 2.0, n_int) if per_point else 1.5
    if per_point:
        K[0] = -0.05
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


def _table_form(dom):
    """The red-black split of a 2D ball with the n >= 3 layout's neighbour
    tables and buffers, built from dom.neighbors, over the colour lists in
    grid order."""
    split = dom.red_black
    colours = (split.red, split.black)
    tables = []
    for rows, other in (colours, colours[::-1]):
        position = np.full(dom.n_closure, len(other), dtype=np.int32)
        position[other] = np.arange(len(other), dtype=np.int32)
        tables.append(np.asfortranarray(position[dom.neighbors[rows]]))
    return RedBlack(*colours, *[(len(rows) + 1,) for rows in colours], *tables)


@pytest.mark.parametrize("radius", [0, 1, 2, 3, 4, 5, 40])
@pytest.mark.parametrize("per_point", [False, True])
def test_box_sums_give_the_tables_bits(radius, per_point, rng):
    # one application on the rotated grids equals, bit for bit, the one
    # through neighbour tables, because each box sum adds the four
    # neighbours in dom.neighbors' column order
    dom = build_domain(2, radius)
    n_red = len(dom.red_black.red)
    values = rng.standard_normal(n_red) * 10.0 ** rng.integers(-8, 9, n_red)
    K = rng.uniform(-0.05, 2.0, dom.n_interior) if per_point else 1.5
    applied = []
    for split in (dom.red_black, _table_form(dom)):
        p, t = np.zeros(split.red_shape), np.zeros(split.black_shape)
        cells = linear_mod._cells(p)
        cells[...] = values.reshape(cells.shape)
        k_r, k_b = linear_mod._on_spans(K, split)
        d_r, inv_b = k_r + 4.0, 1.0 / (k_b + 4.0)
        out = np.full(len(linear_mod._span(p)), np.nan)
        linear_mod._apply_reduced(split, d_r, inv_b, p, t, out)
        result = np.zeros(split.red_shape)
        linear_mod._span(result)[...] = out
        applied.append(result)
    grid, table = applied
    # rows of w = R + 2: red fills the larger grid at even R, its last column
    # zero, and black the smaller one, in its zero ring above a zero row
    assert grid.shape == ((radius + 1, radius + 2) if radius % 2 == 0
                          else (radius + 3, radius + 2))
    assert np.array_equal(linear_mod._cells(grid).ravel().view(np.int64),
                          linear_mod._cells(table).view(np.int64))
    rest = np.ones(grid.shape, dtype=bool)
    linear_mod._cells(rest)[...] = False
    assert not np.any(grid[rest])  # zero, not NaN, off the red cells
