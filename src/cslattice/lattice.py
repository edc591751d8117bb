"""Bounded lattice-graph domains: Manhattan balls in Z^n with vertex boundary.

Vertices of Z^n are integer n-vectors; x ~ y iff the Manhattan distance
d(x, y) = sum_i |x_i - y_i| equals one, so every vertex has exactly 2n
neighbours.  All edge weights and vertex measures are one.  A domain here
is the ball B_R = { x : d(x, 0) <= R }; its vertex boundary is the set of
points outside B_R at distance one from it, which for Manhattan balls is
exactly the sphere { x : d(x, 0) = R + 1 } (adjacent vertices always have
Manhattan norms of opposite parity, so no point at distance > R + 1 can
touch the ball).

A domain is held as arrays only: the closure's coordinates, one row per
vertex, shell by shell from the origin (by Manhattan norm, lexicographic
within a shell).  That ordering fixes the dense index used by every value
array in this package, and it makes construction deterministic: equal
inputs yield identical arrays.  The boundary is the last shell, so the
interior comes first, and every array of a smaller ball is a prefix of the
larger ball's.  ``LatticeDomain.locate`` maps points back to indices
through a mixed-radix key of their coordinates.  A domain keeps the
even-odd (red-black) split of its interior that the linear solver reduces
every system on, once computed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

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


def _radix_keys(points: np.ndarray, radius: int) -> np.ndarray:
    """Mixed-radix keys, digit x_i + R + 1 in base 2R + 3: lexicographically
    increasing, and injective on points with every |x_i| <= R + 1."""
    digits = np.moveaxis(np.asarray(points) + (radius + 1), -1, 0)
    return np.ravel_multi_index(tuple(digits), (2 * radius + 3,) * digits.shape[0])


@dataclass(frozen=True, eq=False)
class RedBlack:
    """The interior split by the parity of the Manhattan norm.

    Every lattice edge joins an even and an odd norm, so each neighbour of a
    red (even) interior point is black (odd) or on the boundary, and vice
    versa.  ``red`` and ``black`` hold the interior indices of each colour,
    increasing.  ``red_neighbors`` (n_red x 2n, column-major, the column
    order of ``LatticeDomain.neighbors``) gives each red point's neighbours
    as positions in ``black``, a boundary neighbour as n_black: the slot
    after the last black value, which the caller keeps at zero, so a gather
    through the table reads the Dirichlet data there.  ``black_neighbors``
    is the same table from black into red.
    """

    red: np.ndarray = field(repr=False)
    black: np.ndarray = field(repr=False)
    red_neighbors: np.ndarray = field(repr=False)
    black_neighbors: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class LatticeDomain:
    """A Manhattan ball B_R in Z^n together with its vertex boundary, as arrays.

    ``coords`` (n_closure x n) holds the closure's points shell by shell
    (interior rows first) and ``distances`` their Manhattan norms;
    ``sorted_keys`` holds their mixed-radix keys in increasing order and
    ``key_order`` the closure index of each.  ``locate`` maps points to
    closure indices.
    The ``neighbors`` array (shape n_interior x 2n) lists, for each interior
    vertex, the closure indices of its 2n lattice neighbours, in the column
    order x_1 - 1, x_1 + 1, ..., x_n - 1, x_n + 1.  It is stored
    column-major, so each stencil direction ``neighbors[:, j]`` is one
    contiguous index array, the layout ``fields.gather_sum`` reads.
    ``red_black`` splits the interior by parity into two such tables, one
    into each colour (see RedBlack); it is built on first use, at most once
    per domain, because only the linear solver needs it.
    ``edge_tail``/``edge_head`` hold every closure edge exactly once with
    tail < head, ordered by tail.
    For r <= R each of these arrays of B_r is a prefix of B_R's, the colour
    tables once clipped to B_r's colour counts (see ``locate_closure``).
    """

    dim: int
    radius: int
    n_interior: int
    coords: np.ndarray = field(repr=False)
    distances: np.ndarray = field(repr=False)
    sorted_keys: np.ndarray = field(repr=False)
    key_order: np.ndarray = field(repr=False)
    neighbors: np.ndarray = field(repr=False)
    edge_tail: np.ndarray = field(repr=False)
    edge_head: np.ndarray = field(repr=False)

    @property
    def n_closure(self) -> int:
        return len(self.coords)

    @property
    def degree(self) -> int:
        return 2 * self.dim

    def locate(self, points) -> np.ndarray:
        """Closure indices of integer points: shape (..., dim) to shape (...).

        Raises KeyError for a point of another dimension or outside the
        closure.  That check comes before the key is formed, because the key
        is injective only on the closure: on B_3 in Z^2 the point (-1, 5)
        has the key of the boundary point (0, -4).
        """
        pts = np.asarray(points)
        if pts.ndim == 0 or pts.shape[-1] != self.dim or pts.dtype.kind not in "iu":
            raise KeyError(f"{points!r} is not an integer point of Z^{self.dim}")
        outside = np.abs(pts).sum(axis=-1) > self.radius + 1
        if np.any(outside):
            raise KeyError(
                f"{pts[outside][0].tolist()} lies outside the closure of B_{self.radius}"
            )
        query = _radix_keys(pts, self.radius)
        return self.key_order.take(np.searchsorted(self.sorted_keys, query))

    def locate_closure(self, other: "LatticeDomain") -> slice:
        """The rows of another ball's closure in this one, its first n_closure;
        KeyError unless it is a ball of this dimension and at most this radius."""
        if other.dim != self.dim or other.radius > self.radius:
            raise KeyError(
                f"the closure of B_{other.radius} in Z^{other.dim} lies outside "
                f"the closure of B_{self.radius} in Z^{self.dim}"
            )
        return slice(0, other.n_closure)

    @cached_property
    def red_black(self) -> RedBlack:
        """The even-odd split of the interior, built from ``distances`` and ``neighbors``.

        Its arrays are read-only.
        """
        odd = self.distances[: self.n_interior] % 2 == 1
        colours = (np.flatnonzero(~odd), np.flatnonzero(odd))
        tables = []
        for rows, other in (colours, colours[::-1]):
            position = np.full(self.n_closure, len(other), dtype=np.int64)
            position[other] = np.arange(len(other))
            table = np.empty((len(rows), self.degree), dtype=np.int64, order="F")
            for col in range(self.degree):
                table[:, col] = position.take(self.neighbors[:, col].take(rows))
            tables.append(table)
        for array in (*colours, *tables):
            array.flags.writeable = False
        return RedBlack(*colours, *tables)


def validate_int(value, name: str) -> int:
    """A Python or numpy integer as an int; anything else raises ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def validate_float(value, name: str) -> float:
    """A finite real number (not a bool) as a float; anything else raises ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return number


def validate_dimension(n: int) -> int:
    """The lattice Z^n needs an integer n >= 2; returns it as an int, or raises ValueError."""
    n = validate_int(n, "dimension")
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    return n


def _ball(n: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Points of B_radius in Z^n in lexicographic order, with their norms.

    Grows the array of coordinate prefixes one axis at a time: a prefix with
    remaining budget b extends by each value in -b..b.
    """
    coords = np.zeros((1, 0), dtype=np.int64)
    budget = np.array([radius], dtype=np.int64)
    for _ in range(n):
        width = 2 * budget + 1
        first = np.repeat(np.cumsum(width) - width, width)
        value = np.arange(first.size, dtype=np.int64) - first - np.repeat(budget, width)
        coords = np.column_stack([np.repeat(coords, width, axis=0), value])
        budget = np.repeat(budget, width) - np.abs(value)
    return coords, radius - budget


def build_domain(n: int, radius: int) -> LatticeDomain:
    """Construct B_radius in Z^n (integers n >= 2, radius >= 0) with its boundary and adjacency."""
    n, radius = validate_dimension(n), validate_int(radius, "radius")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if (2 * radius + 3) ** n > np.iinfo(np.int64).max:
        raise ValueError(f"B_{radius} in Z^{n} is too large for int64 point keys")

    # _ball enumerates the closure in key order; a stable sort by norm puts
    # it in shell order (numpy sorts 8- and 16-bit integers by radix sort).
    coords, distances = _ball(n, radius + 1)
    sorted_keys = _radix_keys(coords, radius)
    order = np.argsort(distances.astype(np.min_scalar_type(radius + 1)), kind="stable")
    key_order = np.empty_like(order)
    key_order[order] = np.arange(order.size)
    lex_inner = np.flatnonzero(distances <= radius)
    n_int = lex_inner.size
    coords, distances = coords[order], distances[order]

    # x +- e_i has the key key(x) +- (2R+3)^(n-1-i): |x_i| <= R, so digit i
    # moves with no carry.  The interior is queried in key order, so each
    # column's queries are sorted, and the answers are renumbered into shell
    # order.  Along the last axis _ball's rows are consecutive, so x +- e_n
    # needs no search.
    inner_keys = sorted_keys.take(lex_inner)
    shell_rows = key_order.take(lex_inner)
    neighbors = np.empty((n_int, 2 * n), dtype=np.int64, order="F")
    for col in range(2 * n):
        step = 1 if col % 2 else -1
        if col // 2 == n - 1:
            found = lex_inner + step
        else:
            step *= (2 * radius + 3) ** (n - 1 - col // 2)
            found = np.searchsorted(sorted_keys, inner_keys + step)
        neighbors[shell_rows, col] = key_order.take(found)

    # Every closure edge has at least one interior endpoint (two boundary
    # points are never adjacent, by the parity of the Manhattan norm), so
    # collecting tail < head over interior stencils enumerates each once.
    # Boolean indexing reads the table row by row, so edges come by tail.
    rows = np.arange(n_int, dtype=np.int64)
    keep = neighbors > rows[:, None]

    return LatticeDomain(
        dim=n,
        radius=radius,
        n_interior=n_int,
        coords=coords,
        distances=distances,
        sorted_keys=sorted_keys,
        key_order=key_order,
        neighbors=neighbors,
        edge_tail=np.repeat(rows, np.count_nonzero(keep, axis=1)),
        edge_head=neighbors[keep],
    )


@dataclass(frozen=True)
class VortexConfig:
    """Vortex points p_j with positive integer multiplicities n_j, given as
    Python or numpy integers; any other value raises ValueError naming it."""

    vortices: tuple[tuple[Point, int], ...]

    def __init__(self, vortices) -> None:
        norm: dict[Point, int] = {}
        for i, (p, m) in enumerate(vortices):
            p = tuple(validate_int(c, f"vortices[{i}].point[{j}]") for j, c in enumerate(p))
            dim = len(next(iter(norm), p))
            if len(p) != dim:
                raise ValueError(f"vortex {p} has dimension {len(p)}, expected {dim}")
            if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
                raise ValueError(f"vortices[{i}].multiplicity must be a positive integer, got {m!r}")
            if p in norm:
                raise ValueError(f"duplicate vortex point {p}")
            norm[p] = int(m)
        object.__setattr__(self, "vortices", tuple(norm.items()))

    def __len__(self) -> int:
        return len(self.vortices)

    @property
    def total_flux(self) -> float:
        """N = 4*pi * sum of multiplicities (zero for an empty config)."""
        return FOUR_PI * sum(m for _, m in self.vortices)


@dataclass(frozen=True)
class Params:
    """Finite physical constants lambda > 0, a > 0 and iteration constant K > a*lambda."""

    lam: float
    a: float
    K: float | None = None

    def __post_init__(self) -> None:
        lam, a = validate_float(self.lam, "lambda"), validate_float(self.a, "a")
        if not lam > 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        if not a > 0:
            raise ValueError(f"a must be positive, got {a}")
        K = a * lam + 1.0 if self.K is None else validate_float(self.K, "K")
        if not a * lam < K < math.inf:
            raise ValueError(
                f"K must be finite and satisfy K > a*lambda (got K={K}, a*lambda={a * lam})"
            )
        for name, value in (("lam", lam), ("a", a), ("K", K)):
            object.__setattr__(self, name, value)


def assemble_source(dom: LatticeDomain, vc: VortexConfig) -> Field:
    """Dirac source g with g(p_j) = 4*pi*n_j, zero elsewhere on the closure."""
    values = np.zeros(dom.n_closure)
    for p, m in vc.vortices:
        if len(p) != dom.dim:
            raise ValueError(f"vortex {p} has dimension {len(p)}, domain has {dom.dim}")
        if manhattan_norm(p) > dom.radius:
            raise ValueError(f"vortex {p} lies outside the domain interior (radius {dom.radius})")
        values[dom.locate(p)] = FOUR_PI * m
    return Field(dom, values)
