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

An rhs with m rows is a block of m systems, which linear_solve runs as one
batched CG in lockstep (no shared search space, unlike block Krylov): each
operator application gathers the whole block, each column takes its own
alpha, beta, tolerance and true-residual test with a solo solve's calls and
bits, and stops once accepted or failed, the failure its own entry.  A
column that stops keeps its row, gathered but no longer stepped, so the
block keeps one shape from the first iteration to the last.

Each caller in the package takes tol_rel from the check its solution
serves: a monotone step (scheme.iterate_once) from MONOTONE_TOL, a Newton
step from its forcing term, the maximality certificate's z from its a
posteriori test.  Only the verify suite's linear checks take a configured
value, the CLI's tol_linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConvergenceError
from .fields import Field, gather_sum
from .lattice import validate_float

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .lattice import LatticeDomain, RedBlack

# Thresholds of the verify suite's checks on the linear solver.
ORACLE_REL_TOL = 1e-10      # relative distance of CG to the dense LU oracle
MINIMIZER_SLACK = -1e-12    # F(u + t phi) - F(u) may dip this far below zero
MAX_PRINCIPLE_TOL = 1e-10   # u <= this for nonnegative right-hand sides

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

    K is a finite scalar > 0 or one finite value per interior point; a
    per-point shift may be negative where the operator stays positive
    definite.  rhs is finite.  An (m, n_interior) rhs is a block of m
    systems, with K shared or per row.
    """

    domain: "LatticeDomain"
    K: float | np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        n_int = self.domain.n_interior
        rhs = np.ascontiguousarray(self.rhs, dtype=float)
        if rhs.shape[-1:] != (n_int,) or rhs.ndim > 2:
            raise ValueError(f"rhs needs {n_int} interior values, got {rhs.shape}")
        finite = np.isfinite(rhs)
        if not finite.all():
            *row, i = np.argwhere(~finite)[0].tolist()
            raise ValueError(f"rhs must be finite, got {rhs[(*row, i)]} at interior index {i}"
                             + (f" of row {row[0]}" if row else ""))
        object.__setattr__(self, "rhs", rhs)
        if np.ndim(self.K) == 0:
            if not 0 < self.K < math.inf:
                raise ValueError(f"K must be positive and finite, got {self.K}")
        else:
            K = np.ascontiguousarray(self.K, dtype=float)
            if K.shape not in {(n_int,), rhs.shape}:
                raise ValueError(f"K needs a scalar or {n_int} interior values, got {K.shape}")
            if not np.all(np.isfinite(K)):
                raise ValueError("K must be finite at every interior point")
            object.__setattr__(self, "K", K)


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
    """(D_r - S_rb D_b^-1 S_br) p into out, for a block of red rows p, with t as black scratch.

    Each row of p and t ends in a zero slot that boundary neighbours read.
    """
    np.multiply(gather_sum(split.black_neighbors, p), inv_b, out=t[:, :-1])
    np.subtract(d_r * p[:, :-1], gather_sum(split.red_neighbors, t), out=out)


def dense_solve(system: LinearSystem) -> Field | list[Field]:
    """Direct LU solution of (L - K) u = v; the reference oracle; one LU for a block's shared K."""
    if np.ndim(system.K) == 2:
        raise ValueError("dense_solve needs one K for every column of a block")
    u = np.linalg.solve(system_matrix(system.domain, system.K), -np.atleast_2d(system.rhs).T)
    fields = [Field.from_interior(system.domain, column) for column in u.T]
    return fields if system.rhs.ndim == 2 else fields[0]


def validate_tol_rel(tol_rel) -> float:
    """A relative residual target of linear_solve as a float; raises ValueError
    unless it is a number in (0, 1)."""
    tol_rel = validate_float(tol_rel, "tol_rel")
    if not 0 < tol_rel < 1:
        raise ValueError(f"tol_rel must lie in (0, 1), got {tol_rel}")
    return tol_rel


def linear_solve(
    system: LinearSystem,
    tol_rel: float | Sequence[float] = DEFAULT_TOL_REL,
    x0: np.ndarray | None = None,
) -> Field | list[Field | ConvergenceError]:
    """Solve (L - K) u = v with zero Dirichlet data, by CG on the reduced red system.

    Guarantees ||(L - K) u - v||_2 <= tol_rel * ||v||_2 over the interior,
    red and black rows, verified against the recomputed true residual (not
    the CG recursion).  tol_rel is one value for every column of a block or
    one per column, each in (0, 1) (validate_tol_rel).  An x0 that already
    meets it is returned as it stands; otherwise CG starts from its red
    values.  If CG_ITERATIONS_PER_UNKNOWN iterations per red unknown pass
    first, raises ConvergenceError carrying the final iterate as ``best``
    and its true residual norm as ``residual``.  A nonpositive
    K + 2n at an interior point, or a search direction with p.Ap <= 0,
    means K - L is not positive definite and raises ConvergenceError
    before the next iteration.

    A block (rhs and x0 of shape (m, n_interior)) returns a list with, per
    column, the Field or the ConvergenceError of its solo solve.  A column
    with a nonpositive K + 2n or a zero rhs gets no row; every other keeps
    its row to the last iteration, also once accepted (x0 too) or failed.
    """
    dom = system.domain
    b = -(system.rhs if system.rhs.ndim == 2 else system.rhs[None])
    m = len(b)
    diag = system.K + dom.degree  # a scalar, one row shared, or one row per column
    rank = np.ndim(diag)
    tol_rel = ([validate_tol_rel(t) for t in tol_rel] if np.ndim(tol_rel)
               else [validate_tol_rel(tol_rel)] * m)
    if len(tol_rel) != m:
        raise ValueError(f"tol_rel needs one value per column ({m}), got {len(tol_rel)}")
    b_norm = [math.sqrt(np.dot(b[j], b[j])) for j in range(m)]  # indexing beats iterating rows
    out: list = [None] * m
    for j in range(m):
        d = diag[j] if rank == 2 else diag
        if rank and not (d > 0).all():
            i = int(np.argmin(d > 0))
            out[j] = ConvergenceError(
                f"K + 2n = {d[i]:.3e} at interior index {i} "
                f"{tuple(dom.coords[i].tolist())} is not positive: K - L is not positive definite"
            )
        elif b_norm[j] == 0.0:
            out[j] = Field.zeros(dom)

    # Row i of the block is column live[i], with absolute tolerance tol[i].
    live = [j for j in range(m) if out[j] is None]
    tol = [tol_rel[j] * b_norm[j] for j in live]
    split = dom.red_black
    red, black = split.red, split.black
    cap = int(CG_ITERATIONS_PER_UNKNOWN * len(red))
    if len(live) < m:
        b, diag = b[live], np.broadcast_to(diag, (m, b.shape[1]))[live] if rank else diag
        x0 = None if x0 is None else np.reshape(x0, (m, -1))[live]
    d_r, d_b = (diag, diag) if rank == 0 else (diag.take(red, -1), diag.take(black, -1))
    inv_b, b_r, b_b = 1.0 / d_b, b.take(red, -1), b.take(black, -1)
    # The rows the tables gather from end in a zero slot, which boundary neighbours read.
    x_r, x_b = np.zeros((len(live), len(red) + 1)), np.zeros((len(live), len(black) + 1))
    p, t, Ap = np.zeros(x_r.shape), np.zeros(x_b.shape), np.zeros((len(live), len(red)))

    def solution(i: int) -> Field:
        values = np.zeros(dom.n_closure)
        values[red], values[black] = x_r[i, :-1], x_b[i, :-1]
        return Field(dom, values)

    def true_residual(s_b: np.ndarray, eliminate: bool = True) -> tuple[np.ndarray, list[float]]:
        """Red rows of b - A x, after x_b = D_b^-1 (b_b + s_b) unless not to eliminate
        (s_b = S_br x_r), and each row's norm over all rows, with a solo solve's bits."""
        if eliminate:
            x_b[:, :-1] = (b_b + s_b) * inv_b
        r_r = b_r - d_r * x_r[:, :-1] + gather_sum(split.red_neighbors, x_b)
        r_b = b_b - d_b * x_b[:, :-1] + s_b
        return r_r, [math.hypot(math.sqrt(np.dot(r_r[i], r_r[i])),
                                math.sqrt(np.dot(r_b[i], r_b[i]))) for i in range(len(r_r))]

    if x0 is None:
        s_b = np.zeros((len(live), len(black)))
    else:
        x0 = np.asarray(x0, dtype=float).reshape(b.shape)
        x_r[:, :-1], x_b[:, :-1] = x0.take(red, -1), x0.take(black, -1)
        s_b = gather_sum(split.black_neighbors, x_r)
        for i, norm in enumerate(true_residual(s_b, eliminate=False)[1]):
            if norm <= tol[i]:
                out[live[i]] = solution(i)
    r, r_norm = true_residual(s_b)
    for i, norm in enumerate(r_norm):
        if norm <= tol[i] and out[live[i]] is None:
            out[live[i]] = solution(i)
    p[:, :-1] = r
    rs = [float(np.dot(r[i], r[i])) for i in range(len(live))]
    # each row's x_r, p, r and A p, which its own steps update in place
    rows = [(x_r[i, :-1], p[i, :-1], r[i], Ap[i]) for i in range(len(live))]
    running = [i for i, j in enumerate(live) if out[j] is None]
    near = True  # some row's recursive residual may meet its tolerance
    for it in range(cap if running else 0):
        if near and any(rs[i] ** 0.5 <= tol[i] for i in running):
            # accept only on the true residual; restart the recursion otherwise
            r_true, r_norm = true_residual(gather_sum(split.black_neighbors, x_r))
            for i in running:
                if not rs[i] ** 0.5 <= tol[i]:
                    continue
                if r_norm[i] <= tol[i]:
                    out[live[i]] = solution(i)
                else:
                    r[i] = p[i, :-1] = r_true[i]
                    rs[i] = float(np.dot(r[i], r[i]))
            running = [i for i in running if out[live[i]] is None]
            if not running:
                break
        near = failed = False
        _apply_reduced(split, d_r, inv_b, p, t, Ap)
        for i in running:
            x, pi, ri, ap = rows[i]
            curvature = float(np.dot(pi, ap))
            if not curvature > 0:
                out[live[i]] = failed = ConvergenceError(
                    f"conjugate gradients found p.Ap = {curvature:.3e} at iteration {it}: "
                    "K - L is not positive definite"
                )
                continue
            alpha = rs[i] / curvature
            x += alpha * pi
            ri -= alpha * ap
            rs_new = float(np.dot(ri, ri))
            pi *= rs_new / rs[i]
            pi += ri
            rs[i] = rs_new
            near = near or rs_new**0.5 <= tol[i]
        if failed:
            running = [i for i in running if out[live[i]] is None]
            if not running:
                break

    if running:
        r_norm = true_residual(gather_sum(split.black_neighbors, x_r))[1]
        for i in running:
            out[live[i]] = solution(i) if r_norm[i] <= tol[i] else ConvergenceError(
                f"conjugate gradients did not reach tol_rel={tol_rel[live[i]]} "
                f"within {cap} iterations (final true residual {r_norm[i]:.3e})",
                best=solution(i),
                residual=r_norm[i],
            )
    if system.rhs.ndim == 1 and isinstance(out[0], ConvergenceError):
        raise out[0]
    return out if system.rhs.ndim == 2 else out[0]


def linear_energy_eval(system: LinearSystem, u: np.ndarray) -> float | np.ndarray:
    """Variational functional F(u) = 1/2 int |grad u|^2 + 1/2 int K u^2 + int v u.

    u holds the interior values of a field that vanishes on the boundary:
    one vector, or an (m, n_interior) block evaluated into an array of m
    values.  K (a scalar) and v (one row) are the system's.  Solutions of
    (L - K) u = v with zero boundary data are exactly the minimizers of F
    over such fields.
    """
    dom = system.domain
    if np.ndim(system.K) or system.rhs.ndim != 1:
        raise ValueError("linear_energy_eval needs a system with a scalar K and one rhs")
    if np.shape(u)[-1:] != (dom.n_interior,) or np.ndim(u) > 2:
        raise ValueError(f"u needs {dom.n_interior} interior values, got {np.shape(u)}")
    values = np.zeros((len(np.atleast_2d(u)), dom.n_closure))
    values[:, : dom.n_interior] = u
    # grad_energy's edge differences; take, unlike [:, idx], keeps the rows unit-stride
    df = values.take(dom.edge_head, -1)
    df -= values.take(dom.edge_tail, -1)
    K, v = system.K, system.rhs
    F = [0.5 * float(np.dot(d, d)) + 0.5 * K * float(np.dot(x, x)) + float(np.dot(v, x))
         for d, x in zip(df, values[:, : dom.n_interior])]
    return F[0] if np.ndim(u) == 1 else np.array(F)
