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

linear_solve runs conjugate gradients on it.  Each colour's values live in
a zero buffer (RedBlack.red_shape, black_shape) that holds the zeros its
boundary neighbours read.  _cells views the values in colour-list order,
for the scatter on entry and the gather on exit; _span is the flat run
where the other colour's neighbour sums land, and holds CG's vectors.
_sums, the one neighbour-sum kernel, is fields.gather_sum through the
colour's table from 3D on, and in 2D, where a point's neighbours are a 2x2
block of the other colour's rotated grid, _box_sum's contiguous slices,
added in the neighbour table's column order for the gather's bits.  For
scalar K the reduced operator's condition number is 1 / (1 - rho^2)
against A's (1 + rho) / (1 - rho), with rho <= 2n / D, so CG needs about
half the iterations.
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
from .fields import Field, gather_sum
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
    nbr = domain.neighbors.astype(np.intp)  # at most 4096 rows, beside an n_int^2 matrix
    rows, cols = np.nonzero(nbr < n_int)
    A[rows, nbr[rows, cols]] = -1.0
    return A


# In 2D every buffer row has w = R + 2 entries.  The neighbours x - 1, x + 1,
# y - 1, y + 1 of cell k of one grid are cells j, j + w + 1, j + 1, j + w of
# the other: j = k on the larger grid, k - w - 1 on the smaller.  The smaller
# grid's extra zero row lets the box sums cover the whole larger grid.

def _cells(buf: np.ndarray) -> np.ndarray:
    """A colour's values in its buffer, in list order: the vector before the
    zero slot, or in 2D the (side x side) grid inside its zeros."""
    if buf.ndim == 1:
        return buf[:-1]
    return buf[:, :-1] if len(buf) < buf.shape[1] else buf[1:-2, 1:-1]


def _span(buf: np.ndarray) -> np.ndarray:
    """The flat run of a buffer that the other colour's _sums fills: the vector
    before the zero slot, in 2D the whole larger grid, or the smaller one's
    run from cell (1, 1) to (R, R)."""
    if buf.ndim == 1:
        return buf[:-1]
    w = buf.shape[1]
    return buf.reshape(-1) if len(buf) < w else buf.reshape(-1)[w + 1 : (w - 1) * w - 1]


def _box_sum(grid: np.ndarray) -> np.ndarray:
    """grid's 2x2 block sums over the other colour's _span, added in the
    neighbour table's column order (so with a gather's bits); zero off its cells."""
    w = grid.shape[1]
    smaller = len(grid) > w
    n = (w - 1) * w if smaller else max((w - 1) * w - w - 2, 0)
    flat = grid.reshape(-1)
    out = flat[:n] + flat[w + 1 : w + 1 + n]
    out += flat[1 : n + 1]
    out += flat[w : w + n]
    if not smaller:  # the smaller grid's ring columns
        out[w - 2 :: w] = 0.0
        out[w - 1 :: w] = 0.0
    return out


def _sums(table: np.ndarray | None, buf: np.ndarray) -> np.ndarray:
    """Over the other colour's _span, each point's sum of its neighbours' values
    in buf: a gather through the colour table, or in 2D (no table) box sums."""
    return _box_sum(buf) if table is None else gather_sum(table, buf)


def _on_spans(values: float | np.ndarray, split: "RedBlack") -> tuple:
    """An interior vector's values by colour, each on the span of a zero buffer of
    its colour's shape, which for a vector buffer is its cells; a scalar as it is."""
    if not isinstance(values, np.ndarray):
        return values, values
    if len(split.red_shape) == 1:
        return values[split.red], values[split.black]
    spans = []
    for rows, shape in ((split.red, split.red_shape), (split.black, split.black_shape)):
        buf = np.zeros(shape)
        cells = _cells(buf)
        cells[...] = values[rows].reshape(cells.shape)
        spans.append(_span(buf))
    return tuple(spans)


def _apply_reduced(split: "RedBlack", d_r: float | np.ndarray, inv_b: float | np.ndarray,
                   p: np.ndarray, t: np.ndarray, out: np.ndarray) -> None:
    """(D_r - S_rb D_b^-1 S_br) p into out, over the spans: p is a red buffer,
    t black scratch, and d_r and inv_b are scalars or over the spans."""
    np.multiply(_sums(split.black_neighbors, p), inv_b, out=_span(t))
    np.multiply(d_r, _span(p), out=out)
    out -= _sums(split.red_neighbors, t)


def dense_solve(system: LinearSystem) -> Field:
    """Direct LU solution of (L - K) u = v; the reference oracle."""
    u = np.linalg.solve(system_matrix(system.domain, system.K), -system.rhs)
    return Field.from_interior(system.domain, u)


def validate_tol_rel(tol_rel) -> float:
    """A relative residual target of linear_solve as a float; raises ValueError
    unless it is a number in (0, 1)."""
    return validate_float(tol_rel, "tol_rel", low=0, high=1)


def linear_solve(system: LinearSystem, tol_rel: float = DEFAULT_TOL_REL,
                 x0: np.ndarray | None = None) -> Field:
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
    dom, rhs, K = system.domain, system.rhs, system.K
    tol_rel = validate_tol_rel(tol_rel)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != rhs.shape:
            raise ValueError(f"x0 needs the rhs's shape {rhs.shape}, got {x0.shape}")
        _require_finite(x0, "x0")
        if not x0.any():  # a zero start is the cold start
            x0 = None
    if np.ndim(K):
        positive = K > -dom.degree  # K + 2n > 0, without forming K + 2n
        if not positive.all():
            i = int(np.argmin(positive))
            raise ConvergenceError(
                f"K + 2n = {K[i] + dom.degree:.3e} at interior index {i} "
                f"{tuple(dom.coords[i].tolist())} is not positive: "
                "K - L is not positive definite"
            )
    b_norm = math.sqrt(np.dot(rhs, rhs))
    if b_norm == 0.0:
        return Field.zeros(dom)

    tol = tol_rel * b_norm
    split = dom.red_black
    cap = int(CG_ITERATIONS_PER_UNKNOWN * len(split.red))
    # D = K + 2n and b = -rhs on each colour's span, taken straight from K and rhs
    (d_r, d_b), (b_r, b_b) = _on_spans(K, split), _on_spans(rhs, split)
    d_r, d_b, b_r, b_b = d_r + dom.degree, d_b + dom.degree, -b_r, -b_b
    inv_b = 1.0 / d_b
    x_r, p = np.zeros(split.red_shape), np.zeros(split.red_shape)
    x_b, t = np.zeros(split.black_shape), np.zeros(split.black_shape)
    x_r_span, x_b_span, p_span = _span(x_r), _span(x_b), _span(p)
    Ap = np.zeros(len(p_span))

    def solution() -> Field:
        values = np.zeros(dom.n_closure)
        values[split.red], values[split.black] = _cells(x_r).ravel(), _cells(x_b).ravel()
        return Field(dom, values)

    def true_residual(s_b: float | np.ndarray, eliminate: bool = True) -> tuple[np.ndarray, float]:
        """Red rows of b - A x, after x_b = D_b^-1 (b_b + s_b) unless not to eliminate
        (s_b = S_br x_r, or 0.0 for x_r = 0), and the residual's norm over all rows."""
        if eliminate:
            np.add(b_b, s_b, out=x_b_span)
            np.multiply(x_b_span, inv_b, out=x_b_span)
        r_r = _sums(split.red_neighbors, x_b)  # first, while no temporary is held
        r_r += b_r - d_r * x_r_span
        r_b = b_b - d_b * x_b_span + s_b
        return r_r, math.hypot(math.sqrt(np.dot(r_r, r_r)), math.sqrt(np.dot(r_b, r_b)))

    if x0 is None:
        s_b = 0.0
    else:
        x_r_span[...], x_b_span[...] = _on_spans(x0, split)
        s_b = _sums(split.black_neighbors, x_r)
        if true_residual(s_b, eliminate=False)[1] <= tol:
            return solution()
    r, r_norm = true_residual(s_b)
    if r_norm <= tol:
        return solution()
    p_span[:] = r
    rs = float(np.dot(r, r))
    for it in range(cap):
        if rs**0.5 <= tol:
            # accept only on the true residual; restart the recursion otherwise
            r_true, r_norm = true_residual(_sums(split.black_neighbors, x_r))
            if r_norm <= tol:
                return solution()
            r = p_span[:] = r_true
            rs = float(np.dot(r, r))
        _apply_reduced(split, d_r, inv_b, p, t, Ap)
        curvature = float(np.dot(p_span, Ap))
        if not curvature > 0:
            raise ConvergenceError(
                f"conjugate gradients found p.Ap = {curvature:.3e} at iteration {it}: "
                "K - L is not positive definite"
            )
        # in place: Ap is free until the next application, and holds alpha Ap, then alpha p
        alpha = rs / curvature
        Ap *= alpha
        r -= Ap
        np.multiply(p_span, alpha, out=Ap)
        x_r_span += Ap
        rs_new = float(np.dot(r, r))
        p_span *= rs_new / rs
        p_span += r
        rs = rs_new

    r_norm = true_residual(_sums(split.black_neighbors, x_r))[1]
    if r_norm <= tol:
        return solution()
    raise ConvergenceError(
        f"conjugate gradients did not reach tol_rel={tol_rel} "
        f"within {cap} iterations (final true residual {r_norm:.3e})",
        best=solution(),
        residual=r_norm,
    )
