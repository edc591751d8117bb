"""Fields on domain closures and the discrete calculus over them.

A Field stores one real value per closure vertex in the domain's canonical
index order (interior first, then boundary).  Quantities defined only on
the interior (Laplacians, residuals, right-hand sides) are plain numpy
arrays aligned with the interior ordering.

Conventions:
  Laplacian      (Lf)(x) = sum_{y ~ x} (f(y) - f(x)), interior x, closure y.
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

# Bound on |sum_by_parts_defect(f, g)| / (1 + |f|_inf |g|_inf |closure|).
SUM_BY_PARTS_COEFF = 1e-12


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
        return float(self.values[self.domain.index[tuple(point)]])


def _require_same_domain(f: Field, g: Field) -> None:
    if f.domain is not g.domain and f.domain.key != g.domain.key:
        raise ValueError(f"domain mismatch: {f.domain.key} vs {g.domain.key}")


def laplacian(f: Field) -> np.ndarray:
    """Graph Laplacian on the interior, using closure values in the stencil."""
    dom = f.domain
    nbr_sum = f.values[dom.neighbors].sum(axis=1)
    return nbr_sum - dom.degree * f.interior_values


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
    """l^p norm over the requested vertex set; p = inf gives sup |f|."""
    if over not in _SETS:
        raise ValueError(f"over must be one of {_SETS}, got {over!r}")
    vals = f.interior_values if over == "interior" else f.values
    if math.isinf(p):
        return float(np.max(np.abs(vals))) if vals.size else 0.0
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float(np.sum(np.abs(vals) ** p) ** (1.0 / p))
