"""The linear Dirichlet problem (L - K) u = v with u = 0 on the boundary.

This is the engine of every nonlinear iteration step.  Internally the
solver works with the positive definite operator A = K*I - L restricted
to interior unknowns (diagonal K + 2n, off-diagonal -1 per interior edge)
and right-hand side -v, so standard conjugate gradients apply; A is a
well-conditioned shifted Laplacian with condition number at most
(K + 4n) / K.  A dense LU route over the explicitly assembled matrix
serves as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceError
from .fields import Field, grad_energy

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .lattice import LatticeDomain

# Thresholds of the verify suite's checks on the linear solver.
ORACLE_REL_TOL = 1e-10      # relative distance of CG to the dense LU oracle
MINIMIZER_SLACK = -1e-12    # F(u + t phi) - F(u) may dip this far below zero
MAX_PRINCIPLE_TOL = 1e-10   # u <= this for nonnegative right-hand sides


@dataclass(frozen=True)
class LinearSolveOptions:
    tol_rel: float = 1e-12
    max_iter: int | None = None  # default 10 * number of unknowns

    def __post_init__(self) -> None:
        if not 0 < self.tol_rel < 1:
            raise ValueError(f"tol_rel must lie in (0, 1), got {self.tol_rel}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Domain, shift K > 0, and interior right-hand side v."""

    domain: "LatticeDomain"
    K: float
    rhs: np.ndarray

    def __post_init__(self) -> None:
        if not self.K > 0:
            raise ValueError(f"K must be positive, got {self.K}")
        rhs = np.asarray(self.rhs, dtype=float)
        if rhs.shape != (self.domain.n_interior,):
            raise ValueError(
                f"rhs needs {self.domain.n_interior} interior values, got {rhs.shape}"
            )
        object.__setattr__(self, "rhs", rhs)


def system_matrix(domain: "LatticeDomain", K: float) -> np.ndarray:
    """Dense matrix of K*I - L on interior unknowns with zero boundary data."""
    n_int = domain.n_interior
    A = np.zeros((n_int, n_int))
    np.fill_diagonal(A, K + domain.degree)
    interior_edge = domain.edge_head < n_int
    t = domain.edge_tail[interior_edge]
    h = domain.edge_head[interior_edge]
    A[t, h] = -1.0
    A[h, t] = -1.0
    return A


def _apply_shifted(domain: "LatticeDomain", K: float, u: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """(K*I - L) u, matrix-free; boundary values are zero by elimination."""
    scratch[: domain.n_interior] = u
    return (K + domain.degree) * u - scratch[domain.neighbors].sum(axis=1)


def dense_solve(system: LinearSystem) -> Field:
    """Direct LU solution of (L - K) u = v; the reference oracle."""
    u = np.linalg.solve(system_matrix(system.domain, system.K), -system.rhs)
    return Field.from_interior(system.domain, u)


def linear_solve(
    system: LinearSystem,
    opts: LinearSolveOptions = LinearSolveOptions(),
    x0: np.ndarray | None = None,
) -> Field:
    """Solve (L - K) u = v with zero Dirichlet data.

    Guarantees ||(L - K) u - v||_2 <= tol_rel * ||v||_2 over the interior,
    verified against the recomputed true residual (not the CG recursion).
    Raises ConvergenceError carrying the best iterate if max_iter is
    exhausted first.
    """
    dom = system.domain
    n_int = dom.n_interior
    b = -system.rhs
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return Field.zeros(dom)
    tol_abs = opts.tol_rel * b_norm
    max_iter = opts.max_iter if opts.max_iter is not None else 10 * n_int

    scratch = np.zeros(dom.n_closure)
    x = np.zeros(n_int) if x0 is None else np.array(x0, dtype=float)
    r = b - _apply_shifted(dom, system.K, x, scratch)
    p = r.copy()
    rs = float(np.dot(r, r))
    best_x = x.copy()
    best_norm = rs**0.5

    for it in range(max_iter):
        if rs**0.5 <= tol_abs:
            # accept only on the true residual; restart the recursion otherwise
            r = b - _apply_shifted(dom, system.K, x, scratch)
            rs = float(np.dot(r, r))
            if rs**0.5 <= tol_abs:
                return Field.from_interior(dom, x)
            p = r.copy()
        Ap = _apply_shifted(dom, system.K, p, scratch)
        alpha = rs / float(np.dot(p, Ap))
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(np.dot(r, r))
        if rs_new**0.5 < best_norm:
            best_norm = rs_new**0.5
            best_x = x.copy()
        p = r + (rs_new / rs) * p
        rs = rs_new

    r = b - _apply_shifted(dom, system.K, x, scratch)
    if float(np.linalg.norm(r)) <= tol_abs:
        return Field.from_interior(dom, x)
    raise ConvergenceError(
        f"conjugate gradients did not reach tol_rel={opts.tol_rel} "
        f"within {max_iter} iterations (best residual {best_norm:.3e})",
        best=Field.from_interior(dom, best_x),
        residual=best_norm,
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
