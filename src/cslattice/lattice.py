"""Bounded lattice-graph domains: Manhattan balls in Z^n with vertex boundary.

Vertices of Z^n are integer n-vectors; x ~ y iff the Manhattan distance
d(x, y) = sum_i |x_i - y_i| equals one, so every vertex has exactly 2n
neighbours.  All edge weights and vertex measures are one.  A domain here
is the ball B_R = { x : d(x, 0) <= R }; its vertex boundary is the set of
points outside B_R at distance one from it, which for Manhattan balls is
exactly the sphere { x : d(x, 0) = R + 1 } (adjacent vertices always have
Manhattan norms of opposite parity, so no point at distance > R + 1 can
touch the ball).

Vertices are ordered lexicographically, interior before boundary.  That
ordering fixes the dense index used by every value array in this package,
and it makes construction deterministic: equal inputs yield identical
index maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import Field

Point = tuple[int, ...]

FOUR_PI = 4.0 * math.pi


def manhattan_distance(x: Point, y: Point) -> int:
    """Lattice distance d(x, y) = sum_i |x_i - y_i|."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return sum(abs(a - b) for a, b in zip(x, y))


def manhattan_norm(x: Point) -> int:
    """Distance to the origin, d(x) = d(x, 0)."""
    return sum(abs(a) for a in x)


def shell_size(n: int, d: int) -> int:
    """Number of points of Z^n at Manhattan distance exactly d from 0.

    Counted by choosing the k nonzero coordinates, their signs, and a
    composition of d into k positive parts.
    """
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    if d == 0:
        return 1
    return sum(
        2**k * math.comb(n, k) * math.comb(d - 1, k - 1)
        for k in range(1, min(n, d) + 1)
    )


def _ball_points(n: int, radius: int) -> list[Point]:
    """All points with manhattan_norm <= radius, in lexicographic order."""
    pts: list[Point] = []
    coords = [0] * n

    def fill(axis: int, budget: int) -> None:
        if axis == n - 1:
            for v in range(-budget, budget + 1):
                coords[axis] = v
                pts.append(tuple(coords))
            return
        for v in range(-budget, budget + 1):
            coords[axis] = v
            fill(axis + 1, budget - abs(v))

    fill(0, radius)
    return pts


@dataclass(frozen=True, eq=False)
class LatticeDomain:
    """A Manhattan ball B_R in Z^n together with its vertex boundary.

    ``interior`` and ``boundary`` are lexicographically ordered; ``index``
    maps every closure point to its dense index (interior first).  The
    ``neighbors`` array (shape n_interior x 2n) lists, for each interior
    vertex, the closure indices of its 2n lattice neighbours, in the
    column order x_1 - 1, x_1 + 1, ..., x_n - 1, x_n + 1.  It is stored
    column-major, so each stencil direction ``neighbors[:, j]`` is one
    contiguous index array, the layout ``fields.neighbor_sum`` gathers
    from.  ``edge_tail``/``edge_head`` hold every closure edge exactly once
    with tail < head.
    """

    dim: int
    radius: int
    interior: tuple[Point, ...]
    boundary: tuple[Point, ...]
    index: dict[Point, int] = field(repr=False)
    neighbors: np.ndarray = field(repr=False)
    edge_tail: np.ndarray = field(repr=False)
    edge_head: np.ndarray = field(repr=False)
    distances: np.ndarray = field(repr=False)

    @property
    def n_interior(self) -> int:
        return len(self.interior)

    @property
    def n_closure(self) -> int:
        return len(self.interior) + len(self.boundary)

    @property
    def degree(self) -> int:
        return 2 * self.dim

    @property
    def key(self) -> tuple[int, int]:
        """Identity of the domain; construction is deterministic in it."""
        return (self.dim, self.radius)

    @property
    def points(self) -> tuple[Point, ...]:
        return self.interior + self.boundary

    def contains_interior(self, p: Point) -> bool:
        if len(p) != self.dim:
            raise ValueError(f"point {p} has dimension {len(p)}, domain has {self.dim}")
        return manhattan_norm(p) <= self.radius


def validate_dimension(n: int) -> None:
    """The lattice Z^n needs n >= 2; raises ValueError otherwise."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")


def build_domain(n: int, radius: int) -> LatticeDomain:
    """Construct B_radius in Z^n with its boundary sphere and adjacency."""
    validate_dimension(n)
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")

    closure = _ball_points(n, radius + 1)
    interior = tuple(p for p in closure if manhattan_norm(p) <= radius)
    boundary = tuple(p for p in closure if manhattan_norm(p) == radius + 1)
    points = interior + boundary
    index = {p: i for i, p in enumerate(points)}

    n_int = len(interior)
    neighbors = np.empty((n_int, 2 * n), dtype=np.int64, order="F")
    for i, p in enumerate(interior):
        col = 0
        for axis in range(n):
            for step in (-1, 1):
                q = p[:axis] + (p[axis] + step,) + p[axis + 1 :]
                neighbors[i, col] = index[q]
                col += 1

    # Every closure edge has at least one interior endpoint (two boundary
    # points are never adjacent, by the parity of the Manhattan norm), so
    # collecting tail < head over interior stencils enumerates each once.
    tails = np.repeat(np.arange(n_int, dtype=np.int64), 2 * n)
    heads = neighbors.ravel(order="C")
    keep = heads > tails
    edge_tail = tails[keep].copy()
    edge_head = heads[keep].copy()

    distances = np.array([manhattan_norm(p) for p in points], dtype=np.int64)

    return LatticeDomain(
        dim=n,
        radius=radius,
        interior=interior,
        boundary=boundary,
        index=index,
        neighbors=neighbors,
        edge_tail=edge_tail,
        edge_head=edge_head,
        distances=distances,
    )


@dataclass(frozen=True)
class VortexConfig:
    """Vortex points p_j with positive integer multiplicities n_j."""

    vortices: tuple[tuple[Point, int], ...]

    def __init__(self, vortices) -> None:
        norm = []
        seen = set()
        dim = None
        for entry in vortices:
            p, m = entry
            p = tuple(int(c) for c in p)
            if dim is None:
                dim = len(p)
            elif len(p) != dim:
                raise ValueError(f"vortex {p} has dimension {len(p)}, expected {dim}")
            if not isinstance(m, int) or isinstance(m, bool) or m < 1:
                raise ValueError(f"multiplicity for vortex {p} must be a positive integer, got {m!r}")
            if p in seen:
                raise ValueError(f"duplicate vortex point {p}")
            seen.add(p)
            norm.append((p, m))
        object.__setattr__(self, "vortices", tuple(norm))

    def __len__(self) -> int:
        return len(self.vortices)

    @property
    def total_flux(self) -> float:
        """N = 4*pi * sum of multiplicities (zero for an empty config)."""
        return FOUR_PI * sum(m for _, m in self.vortices)


@dataclass(frozen=True)
class Params:
    """Physical constants lambda > 0, a > 0 and iteration constant K > a*lambda."""

    lam: float
    a: float
    K: float | None = None

    def __post_init__(self) -> None:
        if not self.lam > 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not self.a > 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if self.K is None:
            object.__setattr__(self, "K", self.a * self.lam + 1.0)
        if not self.K > self.a * self.lam:
            raise ValueError(
                f"K must satisfy K > a*lambda "
                f"(got K={self.K}, a*lambda={self.a * self.lam})"
            )


def assemble_source(dom: LatticeDomain, vc: VortexConfig) -> Field:
    """Dirac source g with g(p_j) = 4*pi*n_j, zero elsewhere on the closure."""
    values = np.zeros(dom.n_closure)
    for p, m in vc.vortices:
        if len(p) != dom.dim:
            raise ValueError(f"vortex {p} has dimension {len(p)}, domain has {dom.dim}")
        if not dom.contains_interior(p):
            raise ValueError(f"vortex {p} lies outside the domain interior (radius {dom.radius})")
        values[dom.index[p]] = FOUR_PI * m
    return Field(dom, values)
