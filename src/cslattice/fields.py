"""Fields on domain closures and the discrete calculus over them.

A Field stores one real value per closure vertex in the domain's canonical
index order, shell by shell from the origin: interior first, then boundary,
and a smaller ball's closure before the rest, so extending by zero pads.
Quantities defined only on the interior (Laplacians, residuals,
right-hand sides) are plain numpy arrays aligned with the interior ordering.

Conventions:
  gather_sum     row sums of values gathered through a column-major index
                   table, columns added left to right, in one take for a
                   small table and a column at a time above ONE_TAKE_MAX
                   entries: the one stencil kernel of the package.  Its
                   tables are the domain's neighbour table and the two
                   tables of LatticeDomain.red_black, which give the
                   halves of linear.py's reduced operator.
  neighbor_sum   (Sv)(x) = sum_{y ~ x} v(y), interior x, closure y:
                   gather_sum over the neighbour table, for the Laplacian
                   and the maximality certificate.
  Laplacian      (Lf)(x) = sum_{y ~ x} (f(y) - f(x)) = (Sf)(x) - 2n f(x).
  grad_energy(f) = sum over unordered closure edges of (f(y) - f(x))^2,
                   i.e. 1/2 the sum over ordered pairs; only edges with both
                   endpoints in the closure enter, which is exactly what
                   makes summation by parts against Dirichlet test fields
                   an identity.
  integral(f)    = plain vertex sum (unit measure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .lattice import LatticeDomain

_SETS = ("interior", "closure")

# Largest table gather_sum gathers in one take: 2^15 entries, 256 KB.
ONE_TAKE_MAX = 2**15


@dataclass(frozen=True, eq=False)
class Field:
    """Real-valued function on a domain closure, indexed canonically."""

    domain: "LatticeDomain"
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.domain.n_closure,):
            raise ValueError(
                f"field needs {self.domain.n_closure} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must all be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, domain: "LatticeDomain") -> "Field":
        return cls(domain, np.zeros(domain.n_closure))

    @classmethod
    def from_interior(cls, domain: "LatticeDomain", interior_values) -> "Field":
        """Dirichlet field: given interior values, zero on the boundary."""
        vals = np.zeros(domain.n_closure)
        vals[: domain.n_interior] = interior_values
        return cls(domain, vals)

    @property
    def interior_values(self) -> np.ndarray:
        return self.values[: self.domain.n_interior]

    @property
    def boundary_values(self) -> np.ndarray:
        return self.values[self.domain.n_interior :]

    def is_dirichlet(self) -> bool:
        return bool(np.all(self.boundary_values == 0.0))

    def __call__(self, point) -> float:
        """Value at a closure point; KeyError for any other point."""
        return float(self.values[self.domain.locate(point)])


def extend_by_zero(f: Field, domain: "LatticeDomain") -> Field:
    """f on a domain whose closure contains f's closure, zero elsewhere.

    Raises KeyError unless domain is a ball of f's dimension and at least its
    radius; f's values fill its first rows (LatticeDomain.locate_closure).
    """
    values = np.zeros(domain.n_closure)
    values[domain.locate_closure(f.domain)] = f.values
    return Field(domain, values)


def _require_same_domain(f: Field, g: Field) -> None:
    a, b = f.domain, g.domain
    if (a.dim, a.radius) != (b.dim, b.radius):
        raise ValueError(f"domain mismatch: B_{a.radius} in Z^{a.dim} vs B_{b.radius} in Z^{b.dim}")


def gather_sum(nbr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row sums of ``values[nbr]`` for a vector ``values`` and a column-major index table ``nbr``.

    The columns are added left to right, whatever the width.  A table of at
    most ONE_TAKE_MAX entries and more than one row is taken in one take of
    its transpose (C-contiguous) and reduced over the table's column axis,
    which numpy does row after row: two numpy calls, where a small table's
    cost is per call.  A larger table is gathered one column at a time and
    added in place; its take would leave the cache before a reduction read
    it, and the one take was slower on 4D R=14.  A single row goes that way
    too, because numpy sums a lone row of eight or more pairwise.  Both
    paths give the same bits.
    """
    if len(nbr) > 1 and nbr.size <= ONE_TAKE_MAX:
        return np.add.reduce(values.take(nbr.T), axis=0)
    out = values.take(nbr[:, 0])
    for j in range(1, nbr.shape[1]):
        out += values.take(nbr[:, j])
    return out


def neighbor_sum(dom: "LatticeDomain", values: np.ndarray) -> np.ndarray:
    """Sum of closure ``values`` over the 2n neighbours of each interior vertex."""
    return gather_sum(dom.neighbors, values)


def laplacian(f: Field) -> np.ndarray:
    """Graph Laplacian on the interior, using closure values in the stencil."""
    return neighbor_sum(f.domain, f.values) - f.domain.degree * f.interior_values


def integral(f: Field, over: str = "interior") -> float:
    """Vertex sum of f over the interior or the closure (unit measure)."""
    if over not in _SETS:
        raise ValueError(f"over must be one of {_SETS}, got {over!r}")
    if over == "interior":
        return float(np.sum(f.interior_values))
    return float(np.sum(f.values))


def grad_inner(f: Field, g: Field) -> float:
    """Sum over unordered closure edges of (f(y)-f(x)) (g(y)-g(x))."""
    _require_same_domain(f, g)
    dom = f.domain
    df = f.values[dom.edge_head] - f.values[dom.edge_tail]
    dg = g.values[dom.edge_head] - g.values[dom.edge_tail]
    return float(np.dot(df, dg))


def grad_energy(f: Field) -> float:
    """Dirichlet energy: sum over unordered closure edges of (f(y)-f(x))^2."""
    dom = f.domain
    df = f.values[dom.edge_head] - f.values[dom.edge_tail]
    return float(np.dot(df, df))


def sum_by_parts_defect(f: Field, g: Field) -> float:
    """grad_inner(f, g) + integral(laplacian(f) * g) for Dirichlet g.

    Vanishes identically in exact arithmetic; the returned value is the
    floating-point defect.
    """
    _require_same_domain(f, g)
    if not g.is_dirichlet():
        raise ValueError("summation by parts requires g to vanish on the boundary")
    lap = laplacian(f)
    return grad_inner(f, g) + float(np.dot(lap, g.interior_values))


def norm(f: Field, p: float = 2.0, over: str = "interior") -> float:
    """l^p norm over the requested vertex set for p >= 1; p = inf gives sup |f|."""
    from .lattice import validate_float  # lattice imports this module

    if over not in _SETS:
        raise ValueError(f"over must be one of {_SETS}, got {over!r}")
    vals = f.interior_values if over == "interior" else f.values
    if p == math.inf:
        return float(np.max(np.abs(vals)))
    p = validate_float(p, "p")
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float(np.sum(np.abs(vals) ** p) ** (1.0 / p))
