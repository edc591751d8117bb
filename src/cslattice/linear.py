"""The linear Dirichlet problem (L - K) u = v with u = 0 on the boundary.

This is the engine of every nonlinear iteration step.  Internally the
solver works with the operator A = K - L restricted to interior unknowns
(diagonal D = K + 2n, off-diagonal -1 per interior edge) and right-hand
side b = -v.  The shift K is a scalar > 0 for the monotone scheme, or one
value per interior point for the Newton oracle's Jacobian L - N'(f), whose
diagonal N'(f) may dip below zero.

Z^n is bipartite: every edge joins an even and an odd Manhattan norm.  With
the interior split into red (even) and black (odd) points
(LatticeDomain.red_black), A = [[D_r, -S_rb], [-S_br, D_b]] with S the
interior adjacency, and eliminating the black unknowns leaves the reduced
red system (DeGrand & Rossi, Comput. Phys. Commun. 60, 1990)

    (D_r - S_rb D_b^-1 S_br) x_r = b_r + S_rb D_b^-1 b_b,
    x_b = D_b^-1 (b_b + S_br x_r).

linear_solve runs conjugate gradients on it.  One application of the
reduced operator is two calls of fields.gather_sum, the kernel the
Laplacian uses: one over each red-black table, which together hold as
many entries as the neighbour table, on vectors half as long.  For scalar
K its condition number is 1 / (1 - rho^2) against A's (1 + rho) /
(1 - rho), with rho <= 2n / D, so CG needs about half the iterations.
Every D must be positive (checked before iterating), and then A is
positive definite exactly when the reduced operator is (Haynsworth
inertia additivity), so a search direction with p.Ap <= 0 raises
ConvergenceError instead of dividing by it.  The reduced residual is the
red rows of A x - b once x_b is eliminated; a solution is accepted only on
the residual recomputed over all rows, red and black.  A dense LU route
over the explicitly assembled matrix serves as the independent oracle; it
refuses more than DENSE_MAX_UNKNOWNS unknowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceError
from .fields import Field, gather_sum, grad_energy
from .lattice import validate_int

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .lattice import LatticeDomain, RedBlack

# Thresholds of the verify suite's checks on the linear solver.
ORACLE_REL_TOL = 1e-10      # relative distance of CG to the dense LU oracle
MINIMIZER_SLACK = -1e-12    # F(u + t phi) - F(u) may dip this far below zero
MAX_PRINCIPLE_TOL = 1e-10   # u <= this for nonnegative right-hand sides

# Largest interior size system_matrix assembles: 4096^2 doubles are 134 MB.
DENSE_MAX_UNKNOWNS = 4096


@dataclass(frozen=True)
class LinearSolveOptions:
    """Relative residual target and iteration cap of linear_solve.

    max_iter counts CG iterations on the reduced red system, each one
    application of the reduced operator; the default is 10 times the number
    of red unknowns, the size of that system.
    """

    tol_rel: float = 1e-12
    max_iter: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.tol_rel < 1:
            raise ValueError(f"tol_rel must lie in (0, 1), got {self.tol_rel}")
        if self.max_iter is not None:
            max_iter = validate_int(self.max_iter, "max_iter")
            if max_iter < 1:
                raise ValueError(f"max_iter must be positive, got {max_iter}")
            object.__setattr__(self, "max_iter", max_iter)


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Domain, shift K, and interior right-hand side v.

    K is a scalar > 0 or one finite value per interior point; a per-point
    shift may be negative where the operator stays positive definite.
    """

    domain: "LatticeDomain"
    K: float | np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        if np.ndim(self.K) == 0:
            if not self.K > 0:
                raise ValueError(f"K must be positive, got {self.K}")
        else:
            K = np.asarray(self.K, dtype=float)
            if K.shape != (self.domain.n_interior,):
                raise ValueError(
                    f"K needs a scalar or {self.domain.n_interior} interior values, got {K.shape}"
                )
            if not np.all(np.isfinite(K)):
                raise ValueError("K must be finite at every interior point")
            object.__setattr__(self, "K", K)
        rhs = np.asarray(self.rhs, dtype=float)
        if rhs.shape != (self.domain.n_interior,):
            raise ValueError(
                f"rhs needs {self.domain.n_interior} interior values, got {rhs.shape}"
            )
        object.__setattr__(self, "rhs", rhs)


def system_matrix(domain: "LatticeDomain", K: float | np.ndarray) -> np.ndarray:
    """Dense matrix of K*I - L on interior unknowns with zero boundary data.

    Raises ValueError above DENSE_MAX_UNKNOWNS interior points, before
    allocating anything.
    """
    n_int = domain.n_interior
    if n_int > DENSE_MAX_UNKNOWNS:
        raise ValueError(
            f"a dense {n_int}x{n_int} matrix would take {8 * n_int**2 / 1e6:.0f} MB; "
            f"system_matrix allows at most DENSE_MAX_UNKNOWNS={DENSE_MAX_UNKNOWNS} unknowns"
        )
    A = np.zeros((n_int, n_int))
    np.fill_diagonal(A, K + domain.degree)
    interior_edge = domain.edge_head < n_int
    t = domain.edge_tail[interior_edge]
    h = domain.edge_head[interior_edge]
    A[t, h] = -1.0
    A[h, t] = -1.0
    return A


def _apply_reduced(
    split: "RedBlack", d_r: float | np.ndarray, inv_b: float | np.ndarray,
    p: np.ndarray, t: np.ndarray,
) -> np.ndarray:
    """(D_r - S_rb D_b^-1 S_br) p on red values p, with t as black scratch.

    p and t each carry one trailing zero slot that boundary neighbours read.
    """
    np.multiply(gather_sum(split.black_neighbors, p), inv_b, out=t[:-1])
    return d_r * p[:-1] - gather_sum(split.red_neighbors, t)


def dense_solve(system: LinearSystem) -> Field:
    """Direct LU solution of (L - K) u = v; the reference oracle."""
    u = np.linalg.solve(system_matrix(system.domain, system.K), -system.rhs)
    return Field.from_interior(system.domain, u)


def linear_solve(
    system: LinearSystem,
    opts: LinearSolveOptions = LinearSolveOptions(),
    x0: np.ndarray | None = None,
) -> Field:
    """Solve (L - K) u = v with zero Dirichlet data, by CG on the reduced red system.

    Guarantees ||(L - K) u - v||_2 <= tol_rel * ||v||_2 over the interior,
    red and black rows, verified against the recomputed true residual (not
    the CG recursion).  An x0 that already meets it is returned as it
    stands; otherwise CG starts from its red values.  If max_iter is
    exhausted first, raises ConvergenceError carrying the final iterate as
    ``best`` and its true residual norm as ``residual``.  A nonpositive
    K + 2n at an interior point, or a search direction with p.Ap <= 0,
    means K - L is not positive definite and raises ConvergenceError
    before the next iteration.
    """
    dom = system.domain
    diag = system.K + dom.degree
    if np.ndim(diag) and not np.all(diag > 0):
        i = int(np.argmin(diag > 0))
        raise ConvergenceError(
            f"K + 2n = {diag[i]:.3e} at interior index {i} {tuple(dom.coords[i].tolist())} "
            "is not positive: K - L is not positive definite"
        )
    b = -system.rhs
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return Field.zeros(dom)
    tol_abs = opts.tol_rel * b_norm

    split = dom.red_black
    red, black = split.red, split.black
    n_r, n_b = len(red), len(black)
    max_iter = opts.max_iter if opts.max_iter is not None else 10 * n_r
    d_r, d_b = (diag, diag) if np.ndim(diag) == 0 else (diag[red], diag[black])
    inv_b = 1.0 / d_b
    b_r, b_b = b[red], b[black]
    # Vectors the tables gather from carry one trailing zero slot, which
    # boundary neighbours read; x_r, x_b and p are views without it.
    x_r_pad, x_b_pad, p_pad, t_pad = (np.zeros(m + 1) for m in (n_r, n_b, n_r, n_b))
    x_r, x_b, p = x_r_pad[:n_r], x_b_pad[:n_b], p_pad[:n_r]

    def true_residual(s_b: np.ndarray) -> tuple[np.ndarray, float]:
        """Red rows of b - A x and the norm over all rows, given s_b = S_br x_r."""
        r_r = b_r - d_r * x_r + gather_sum(split.red_neighbors, x_b_pad)
        r_b = b_b - d_b * x_b + s_b
        return r_r, math.hypot(np.linalg.norm(r_r), np.linalg.norm(r_b))

    def eliminate(s_b: np.ndarray) -> tuple[np.ndarray, float]:
        """x_b = D_b^-1 (b_b + S_br x_r); its red residual is the reduced one."""
        x_b[:] = (b_b + s_b) * inv_b
        return true_residual(s_b)

    def solution() -> Field:
        values = np.zeros(dom.n_closure)
        values[red] = x_r
        values[black] = x_b
        return Field(dom, values)

    if x0 is None:
        r, r_norm = eliminate(np.zeros(n_b))
    else:
        x0 = np.asarray(x0, dtype=float)
        x_r[:], x_b[:] = x0[red], x0[black]
        s_b = gather_sum(split.black_neighbors, x_r_pad)
        if true_residual(s_b)[1] <= tol_abs:
            return solution()
        r, r_norm = eliminate(s_b)
    if r_norm <= tol_abs:
        return solution()

    p[:] = r
    rs = float(np.dot(r, r))
    for it in range(max_iter):
        if rs**0.5 <= tol_abs:
            # accept only on the true residual; restart the recursion otherwise
            r, r_norm = eliminate(gather_sum(split.black_neighbors, x_r_pad))
            if r_norm <= tol_abs:
                return solution()
            p[:] = r
            rs = float(np.dot(r, r))
        Ap = _apply_reduced(split, d_r, inv_b, p_pad, t_pad)
        curvature = float(np.dot(p, Ap))
        if not curvature > 0:
            raise ConvergenceError(
                f"conjugate gradients found p.Ap = {curvature:.3e} at iteration {it}: "
                "K - L is not positive definite"
            )
        alpha = rs / curvature
        x_r += alpha * p
        r -= alpha * Ap
        rs_new = float(np.dot(r, r))
        p *= rs_new / rs
        p += r
        rs = rs_new

    r, r_norm = eliminate(gather_sum(split.black_neighbors, x_r_pad))
    if r_norm <= tol_abs:
        return solution()
    raise ConvergenceError(
        f"conjugate gradients did not reach tol_rel={opts.tol_rel} "
        f"within {max_iter} iterations (final true residual {r_norm:.3e})",
        best=solution(),
        residual=r_norm,
    )


def linear_energy_eval(u: Field, v: np.ndarray, K: float) -> float:
    """Variational functional F(u) = 1/2 int |grad u|^2 + 1/2 int K u^2 + int v u.

    Solutions of (L - K) u = v with zero boundary data are exactly the
    minimizers of F over Dirichlet fields.
    """
    if not u.is_dirichlet():
        raise ValueError("F(u) is defined for fields vanishing on the boundary")
    ui = u.interior_values
    return 0.5 * grad_energy(u) + 0.5 * K * float(np.dot(ui, ui)) + float(np.dot(v, ui))
