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
refuses more than DENSE_MAX_UNKNOWNS unknowns.  Each call solves one
system: one rhs, one K.

Each caller in the package takes tol_rel from the check its solution
serves: a monotone step (scheme.iterate_once) from MONOTONE_TOL, a Newton
step from its forcing term, the maximality certificate's z from its a
posteriori test.  Only the verify suite's linear oracle takes a configured
value, the CLI's tol_linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceError
from .fields import Field, gather_sum, grad_energy
from .lattice import validate_float

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .lattice import LatticeDomain, RedBlack

# Threshold of the verify suite's linear oracle: relative distance of CG to dense LU.
ORACLE_REL_TOL = 1e-10

# Largest interior size system_matrix assembles: 4096^2 doubles are 134 MB.
DENSE_MAX_UNKNOWNS = 4096

# linear_solve's relative residual target unless the caller gives one.
DEFAULT_TOL_REL = 1e-12

# linear_solve gives up after this many CG iterations per red unknown, each
# iteration one application of the reduced operator.
CG_ITERATIONS_PER_UNKNOWN = 10


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Domain, shift K, and interior right-hand side v.

    K is a number > 0 (lattice.validate_float, stored as a float) or one
    finite value per interior point; a per-point shift may be negative
    where the operator stays positive definite.  rhs is one finite value
    per interior point.  Each violation raises ValueError naming K or rhs.
    """

    domain: "LatticeDomain"
    K: float | np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        n_int = self.domain.n_interior
        rhs = np.ascontiguousarray(self.rhs, dtype=float)
        if rhs.shape != (n_int,):
            raise ValueError(f"rhs needs {n_int} interior values, got {rhs.shape}")
        _require_finite(rhs, "rhs")
        object.__setattr__(self, "rhs", rhs)
        if np.ndim(self.K) == 0:
            K = validate_float(self.K, "K", low=0)
        else:
            K = np.ascontiguousarray(self.K, dtype=float)
            if K.shape != (n_int,):
                raise ValueError(f"K needs a scalar or {n_int} interior values, got {K.shape}")
            _require_finite(K, "K")
        object.__setattr__(self, "K", K)


def _require_finite(values: np.ndarray, name: str) -> None:
    """ValueError naming the first non-finite entry of an interior vector, if any."""
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{name} must be finite, got {values[i]} at interior index {i}")


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
    p: np.ndarray, t: np.ndarray, out: np.ndarray,
) -> None:
    """(D_r - S_rb D_b^-1 S_br) p into out, for red values p, with t as black scratch.

    p and t each end in a zero slot that boundary neighbours read.
    """
    np.multiply(gather_sum(split.black_neighbors, p), inv_b, out=t[:-1])
    np.subtract(d_r * p[:-1], gather_sum(split.red_neighbors, t), out=out)


def dense_solve(system: LinearSystem) -> Field:
    """Direct LU solution of (L - K) u = v; the reference oracle."""
    u = np.linalg.solve(system_matrix(system.domain, system.K), -system.rhs)
    return Field.from_interior(system.domain, u)


def validate_tol_rel(tol_rel) -> float:
    """A relative residual target of linear_solve as a float; raises ValueError
    unless it is a number in (0, 1)."""
    return validate_float(tol_rel, "tol_rel", low=0, high=1)


def linear_solve(
    system: LinearSystem,
    tol_rel: float = DEFAULT_TOL_REL,
    x0: np.ndarray | None = None,
) -> Field:
    """Solve (L - K) u = v with zero Dirichlet data, by CG on the reduced red system.

    Guarantees ||(L - K) u - v||_2 <= tol_rel * ||v||_2 over the interior,
    red and black rows, verified against the recomputed true residual (not
    the CG recursion).  tol_rel lies in (0, 1) (validate_tol_rel).  x0, if
    given, is a finite start of the rhs's shape (ValueError naming x0
    otherwise).  An x0 that already meets the tolerance is returned as it
    stands; otherwise CG starts from its red values.  If
    CG_ITERATIONS_PER_UNKNOWN iterations per red unknown pass first, raises
    ConvergenceError carrying the final iterate as ``best`` and its true
    residual norm as ``residual``.  A nonpositive K + 2n at an interior
    point, or a search direction with p.Ap <= 0, means K - L is not
    positive definite and raises ConvergenceError before the next iteration.
    """
    dom = system.domain
    b = -system.rhs
    tol_rel = validate_tol_rel(tol_rel)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != b.shape:
            raise ValueError(f"x0 needs the rhs's shape {b.shape}, got {x0.shape}")
        _require_finite(x0, "x0")
    diag = system.K + dom.degree  # a scalar or one value per interior point
    if np.ndim(diag) and not (diag > 0).all():
        i = int(np.argmin(diag > 0))
        raise ConvergenceError(
            f"K + 2n = {diag[i]:.3e} at interior index {i} "
            f"{tuple(dom.coords[i].tolist())} is not positive: K - L is not positive definite"
        )
    b_norm = math.sqrt(np.dot(b, b))
    if b_norm == 0.0:
        return Field.zeros(dom)

    tol = tol_rel * b_norm
    split = dom.red_black
    red, black = split.red, split.black
    cap = int(CG_ITERATIONS_PER_UNKNOWN * len(red))
    d_r, d_b = (diag, diag) if np.ndim(diag) == 0 else (diag[red], diag[black])
    inv_b, b_r, b_b = 1.0 / d_b, b[red], b[black]
    # The vectors the tables gather from end in a zero slot, which boundary neighbours read.
    x_r, x_b = np.zeros(len(red) + 1), np.zeros(len(black) + 1)
    p, t, Ap = np.zeros(len(red) + 1), np.zeros(len(black) + 1), np.zeros(len(red))

    def solution() -> Field:
        values = np.zeros(dom.n_closure)
        values[red], values[black] = x_r[:-1], x_b[:-1]
        return Field(dom, values)

    def true_residual(s_b: np.ndarray, eliminate: bool = True) -> tuple[np.ndarray, float]:
        """Red rows of b - A x, after x_b = D_b^-1 (b_b + s_b) unless not to eliminate
        (s_b = S_br x_r), and the residual's norm over all rows."""
        if eliminate:
            x_b[:-1] = (b_b + s_b) * inv_b
        r_r = b_r - d_r * x_r[:-1] + gather_sum(split.red_neighbors, x_b)
        r_b = b_b - d_b * x_b[:-1] + s_b
        return r_r, math.hypot(math.sqrt(np.dot(r_r, r_r)), math.sqrt(np.dot(r_b, r_b)))

    if x0 is None:
        s_b = np.zeros(len(black))
    else:
        x_r[:-1], x_b[:-1] = x0[red], x0[black]
        s_b = gather_sum(split.black_neighbors, x_r)
        if true_residual(s_b, eliminate=False)[1] <= tol:
            return solution()
    r, r_norm = true_residual(s_b)
    if r_norm <= tol:
        return solution()
    p[:-1] = r
    rs = float(np.dot(r, r))
    for it in range(cap):
        if rs**0.5 <= tol:
            # accept only on the true residual; restart the recursion otherwise
            r_true, r_norm = true_residual(gather_sum(split.black_neighbors, x_r))
            if r_norm <= tol:
                return solution()
            r = p[:-1] = r_true
            rs = float(np.dot(r, r))
        _apply_reduced(split, d_r, inv_b, p, t, Ap)
        curvature = float(np.dot(p[:-1], Ap))
        if not curvature > 0:
            raise ConvergenceError(
                f"conjugate gradients found p.Ap = {curvature:.3e} at iteration {it}: "
                "K - L is not positive definite"
            )
        alpha = rs / curvature
        x_r[:-1] += alpha * p[:-1]
        r -= alpha * Ap
        rs_new = float(np.dot(r, r))
        p[:-1] *= rs_new / rs
        p[:-1] += r
        rs = rs_new

    r_norm = true_residual(gather_sum(split.black_neighbors, x_r))[1]
    if r_norm <= tol:
        return solution()
    raise ConvergenceError(
        f"conjugate gradients did not reach tol_rel={tol_rel} "
        f"within {cap} iterations (final true residual {r_norm:.3e})",
        best=solution(),
        residual=r_norm,
    )


def linear_energy_eval(system: LinearSystem, u: np.ndarray) -> float:
    """Variational functional F(u) = 1/2 int |grad u|^2 + 1/2 int K u^2 + int v u.

    u holds the interior values of a field that vanishes on the boundary; K
    (a scalar) and v are the system's.  Solutions of (L - K) u = v with zero
    boundary data are exactly the minimizers of F over such fields.
    """
    dom = system.domain
    if np.ndim(system.K):
        raise ValueError("linear_energy_eval needs a system with a scalar K")
    if np.shape(u) != (dom.n_interior,):
        raise ValueError(f"u needs {dom.n_interior} interior values, got {np.shape(u)}")
    return (0.5 * grad_energy(Field.from_interior(dom, u)) + 0.5 * system.K * float(np.dot(u, u))
            + float(np.dot(system.rhs, u)))
