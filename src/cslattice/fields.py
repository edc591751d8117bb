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
                   tables are the domain's neighbour table and, for
                   n >= 3 only, the two tables of LatticeDomain.red_black,
                   through which linear._sums gives the reduced operator's
                   neighbour sums (in 2D, with no tables, box sums on
                   rotated grids, in the same column order).
  neighbor_sum   (Sv)(x) = sum_{y ~ x} v(y), interior x, closure y:
                   gather_sum over the neighbour table, for the Laplacian
                   and the maximality certificate.
  Laplacian      (Lf)(x) = sum_{y ~ x} (f(y) - f(x)) = (Sf)(x) - 2n f(x).
  grad_energy(f) = sum over unordered closure edges of (f(y) - f(x))^2, for
                   a Dirichlet f only, where it equals -sum_interior f Lf
                   exactly (summation by parts), the form it is computed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .lattice import LatticeDomain

# Largest table gather_sum gathers in one take: 2^14 entries, 128 KB, glibc's
# default mmap threshold.  Where no larger block has raised that threshold, a
# larger one-take block (the 2D R=80 red-black tables of the time, 26k
# entries) is mapped and faulted in afresh on every call: exhaust-2d took
# 3800 page faults per call with 2^15, against 480 with 2^14.
ONE_TAKE_MAX = 2**14


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

    def is_dirichlet(self) -> bool:
        return bool(np.all(self.values[self.domain.n_interior :] == 0.0))

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


def grad_energy(f: Field, lap: np.ndarray | None = None) -> float:
    """Gradient energy of a Dirichlet field f: the sum over unordered closure
    edges of (f(y) - f(x))^2.

    Computed as -sum over the interior of f Lf, which equals the edge sum
    exactly in real arithmetic when f vanishes on the boundary (summation
    by parts); a field that does not raises ValueError.  lap, if given, is
    laplacian(f), for a caller that needs it for more than the energy.
    """
    if not f.is_dirichlet():
        raise ValueError("the Dirichlet energy is summed by parts, which needs a Dirichlet "
                         "field (zero on the boundary)")
    return -float(np.dot(f.interior_values, laplacian(f) if lap is None else lap))


def norm(f: Field, p: float = 2.0) -> float:
    """l^p norm of f over the interior for p >= 1; p = inf gives sup |f|.
    A Dirichlet field's boundary would add only zeros."""
    from .lattice import validate_float  # lattice imports this module

    vals = f.interior_values
    if p == math.inf:
        return float(np.max(np.abs(vals)))
    p = validate_float(p, "p")
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float(np.sum(np.abs(vals) ** p) ** (1.0 / p))
