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
larger ball's (the 2D red-black split aside).  ``LatticeDomain.locate`` maps
points back to indices, and build_domain finds neighbours, by offsets down
the tree of coordinate prefixes.  The adjacency is stored once, as the
interior's neighbour table: every closure edge has an interior endpoint,
so the table names each edge, an interior one twice.  The Laplacian, the
energy, the boundary flux and the dense matrix all read it.  A domain
keeps the even-odd (red-black) split of its interior that the linear
solver reduces every system on, derived once.

Storage is compact: coordinates and norms are int16, closure indices int32,
and the prefix tree intp, one entry per prefix shorter than a point: 39.7
bytes per closure point on B_14 in Z^4, 1.1 of them the tree's.  The
red-black split adds 30.7 there (int32 tables, intp colour lists), and 7.8
on B_80 in Z^2, where it is two intp lists in rotated-grid order.
build_domain refuses a ball whose boundary lies beyond the int16 range,
whose closure outgrows int32 indexing or whose arrays outgrow the machine's
physical memory, before allocating anything.
Code that does arithmetic, comparisons or sorts on these arrays widens them
to intp first: numpy keeps int16 + int in int16 (NEP 50), and its int16 and
int32 comparison, sort and ufunc.at loops are separate machine code, 64 to
192 KB of which a run maps on first use, more than the compact arrays save
on a small ball.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import Field

Point = tuple[int, ...]

FOUR_PI = 4.0 * math.pi

# Storage types of LatticeDomain's arrays: coordinates and norms, and closure
# indices (key_order, neighbors).
COORD_DTYPE = np.int16
INDEX_DTYPE = np.int32


def manhattan_norm(x: Point) -> int:
    """Distance to the origin, d(x) = d(x, 0)."""
    return sum(abs(a) for a in x)


def shell_size(n: int, d: int) -> int:
    """Number of points of Z^n at Manhattan distance exactly d from 0.

    Counted by choosing the k nonzero coordinates, their signs, and a
    composition of d into k positive parts.
    """
    n, d = validate_int(n, "n", low=1), validate_int(d, "d", low=0)
    if d == 0:
        return 1
    return sum(
        2**k * math.comb(n, k) * math.comb(d - 1, k - 1)
        for k in range(1, min(n, d) + 1)
    )


def ball_size(n: int, radius: int) -> int:
    """Number of points of Z^n at Manhattan distance at most radius from 0.

    Counted by choosing the k nonzero coordinates, their signs, and k
    distinct values in 1..radius for their partial sums of absolute values:
    sum_k 2^k C(n, k) C(radius, k).
    """
    n, radius = validate_int(n, "n", low=1), validate_int(radius, "radius", low=0)
    return sum(2**k * math.comb(n, k) * math.comb(radius, k) for k in range(min(n, radius) + 1))


@dataclass(frozen=True, eq=False)
class RedBlack:
    """The interior split by the parity of the Manhattan norm.

    Every lattice edge joins an even and an odd norm, so each neighbour of a
    red (even) interior point is black (odd) or on the boundary, and vice
    versa.  ``red`` and ``black`` hold the interior indices of each colour.

    From 3D on they are increasing (intp), and ``red_neighbors`` (n_red x
    2n, column-major, the column order of ``LatticeDomain.neighbors``)
    gives each red point's neighbours as positions in ``black``, a boundary
    neighbour as n_black: the slot after the last black value, which the
    caller keeps at zero, so a gather through the table reads the Dirichlet
    data there.  ``black_neighbors`` is the same table from black into red.
    The two tables are int32 (INDEX_DTYPE), like the domain's neighbour
    table, half the bytes of intp ones; numpy's take widens an int32 index
    on every call, a cost linear_solve's in-place updates more than pay for.

    In 2D both tables are None.  u = x + y and v = x - y take B_R to the
    square max(|u|, |v|) <= R, and the colour is the parity of u.  Each
    colour fills a square grid, of side R + 1 for the colour of R's parity
    and R for the other; ``red`` and ``black`` (intp) list it row by row
    (u, then v, increasing).  A point's neighbours (u +- 1, v +- 1) are
    a 2x2 block of the other colour's grid, the smaller grid taken inside a
    ring one cell wide: that ring is exactly the boundary.

    ``red_shape`` and ``black_shape`` shape the zero buffers of linear_solve
    that hold each colour with the zeros its boundary neighbours read: from
    3D on (n_colour + 1,); in 2D rows of R + 2, the larger grid's (R + 1,
    R + 2) with a zero last column, the smaller one's (R + 3, R + 2) with
    its ring and one more zero row, read by box sums on the larger's last row.
    """

    red: np.ndarray = field(repr=False)
    black: np.ndarray = field(repr=False)
    red_shape: tuple[int, ...]
    black_shape: tuple[int, ...]
    red_neighbors: np.ndarray | None = field(default=None, repr=False)
    black_neighbors: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True, eq=False)
class LatticeDomain:
    """A Manhattan ball B_R in Z^n together with its vertex boundary, as arrays.

    ``coords`` (n_closure x n, int16) holds the closure's points shell by
    shell (interior rows first) and ``distances`` (int16) their Manhattan
    norms.  ``prefix_tree`` (intp) has one entry per prefix of fewer than n
    coordinates of a closure point, level by level, each level in
    lexicographic order: the position of the prefix's child whose next
    coordinate is 0, in the tree or, on the last level, among the closure's
    points in lexicographic order.  A prefix's children are consecutive, so
    the child with value c lies c further on, and the walk from the root
    (position 0) by a point's coordinates ends at its lexicographic index;
    ``key_order`` (int32) maps that to its closure index.  ``locate`` maps
    points to closure indices.
    The ``neighbors`` array (int32, shape n_interior x 2n) lists, for each interior
    vertex, the closure indices of its 2n lattice neighbours, in the column
    order x_1 - 1, x_1 + 1, ..., x_n - 1, x_n + 1.  It is stored
    column-major, so each stencil direction ``neighbors[:, j]`` is one
    contiguous index array, the layout ``fields.gather_sum`` reads.  It is
    the domain's one adjacency list: an entry below n_interior is an
    interior edge, seen from both ends; an entry from n_interior on is an
    edge to the boundary, seen once.
    ``red_black`` splits the interior by parity (see RedBlack); it is built
    on first use, at most once per domain, because only the linear solver
    needs it.
    For r <= R each of these arrays of B_r is a prefix of B_R's, the colour
    tables once clipped to B_r's colour counts (see ``locate_closure``); in
    2D, B_r's grid of a colour is the centre block of B_R's instead.
    """

    dim: int
    radius: int
    n_interior: int
    coords: np.ndarray = field(repr=False)
    distances: np.ndarray = field(repr=False)
    key_order: np.ndarray = field(repr=False)
    prefix_tree: np.ndarray = field(repr=False)
    neighbors: np.ndarray = field(repr=False)

    @property
    def n_closure(self) -> int:
        return len(self.coords)

    @property
    def degree(self) -> int:
        return 2 * self.dim

    def locate(self, points) -> np.ndarray:
        """Closure indices of integer points: shape (..., dim) to shape (...).

        Raises KeyError for a point of another dimension or outside the
        closure.  That check comes before the walk down ``prefix_tree``,
        which stays in the tree only on the closure: on B_3 in Z^2 the point
        (-1, 5) would end at the boundary point (0, -3).
        """
        pts = np.asarray(points)
        if pts.ndim == 0 or pts.shape[-1] != self.dim or pts.dtype.kind not in "iu":
            raise KeyError(f"{points!r} is not an integer point of Z^{self.dim}")
        # clipped to +-(R + 2) in their own type, then widened: exact inside
        # the closure, and still outside it for every other point
        info = np.iinfo(pts.dtype)
        bound = self.radius + 2
        wide = np.clip(pts, max(info.min, -bound), min(info.max, bound)).astype(np.intp)
        outside = np.abs(wide).sum(axis=-1) > self.radius + 1
        if np.any(outside):
            raise KeyError(
                f"{pts[outside][0].tolist()} lies outside the closure of B_{self.radius}"
            )
        position = 0
        for axis in range(self.dim):
            position = self.prefix_tree.take(position) + wide[..., axis]
        return self.key_order.take(position)

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
        """The even-odd split of the interior, built from ``distances`` and
        ``neighbors``, or ``coords`` in 2D.  Its arrays are read-only."""
        odd = self.distances[: self.n_interior].astype(np.intp) % 2 == 1
        colours = (np.flatnonzero(~odd), np.flatnonzero(odd))
        shapes = [(len(rows) + 1,) for rows in colours]
        tables = []
        if self.dim == 2:
            # the cells of a colour's grid of side s are u, v = -(s - 1), -(s - 3), ..., s - 1
            x, y = self.coords[: self.n_interior].astype(np.intp).T
            u, v = x + y, x - y
            grids = []
            for parity, rows in enumerate(colours):
                side = self.radius + 1 - (self.radius + parity) % 2
                grid = np.empty(side * side, dtype=np.intp)
                grid[(u[rows] + side - 1) // 2 * side + (v[rows] + side - 1) // 2] = rows
                grids.append(grid)
                shapes[parity] = (side, side + 1) if side > self.radius else (side + 3, side + 2)
            colours = grids
        else:
            for rows, other in (colours, colours[::-1]):
                position = np.full(self.n_closure, len(other), dtype=INDEX_DTYPE)
                position[other] = np.arange(len(other), dtype=INDEX_DTYPE)
                table = np.empty((len(rows), self.degree), dtype=INDEX_DTYPE, order="F")
                for col in range(self.degree):
                    table[:, col] = position.take(self.neighbors[:, col].take(rows))
                tables.append(table)
        for array in (*colours, *tables):
            array.flags.writeable = False
        return RedBlack(*colours, *shapes, *tables)


def validate_int(value, name: str, low: int | None = None) -> int:
    """A Python or numpy integer (not a bool), at least low if given, as an int;
    anything else raises ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def validate_float(value, name: str, low: float | None = None, high: float | None = None) -> float:
    """A finite real number (not a bool) in the open interval (low, high) as a float;
    anything else raises ValueError naming it.  A bound left as None is
    infinite.  This and validate_int are the package's one check of a
    number's type, finiteness and range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    bottom = -math.inf if low is None else low
    top = math.inf if high is None else high
    if not bottom < number < top:
        bound = "be positive" if (low, high) == (0, None) else f"lie in ({bottom}, {top})"
        raise ValueError(f"{name} must {bound}, got {number}")
    return number


def validate_dimension(n: int) -> int:
    """The lattice Z^n needs an integer n >= 2; returns it as an int, or raises ValueError."""
    return validate_int(n, "dimension", low=2)


def physical_memory() -> float:
    """The machine's physical memory in bytes, as os.sysconf reports it; inf
    where it reports none."""
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        return pages * os.sysconf("SC_PAGE_SIZE") if pages > 0 else math.inf
    except (AttributeError, ValueError, OSError):
        return math.inf


def validate_ball(n: int, radius: int) -> int:
    """The closure size of B_radius in Z^n (ints n >= 2, radius >= 0), in closed
    form; ValueError for a ball that the arrays cannot hold: a boundary beyond
    int16's 32767, a closure of more than 2^31 - 1 points, or arrays larger
    than physical_memory(): build_domain's coordinates, norms and key order
    per closure point and its neighbour table per interior point."""
    if radius + 1 > np.iinfo(COORD_DTYPE).max:
        raise ValueError(
            f"B_{radius} in Z^{n} is too large for {np.dtype(COORD_DTYPE).name} coordinates: "
            f"its boundary lies at distance {radius + 1} > {np.iinfo(COORD_DTYPE).max}"
        )
    size = ball_size(n, radius + 1)
    if size > np.iinfo(INDEX_DTYPE).max:
        raise ValueError(
            f"B_{radius} in Z^{n} is too large for {np.dtype(INDEX_DTYPE).name} indices: "
            f"its closure has {size} points > {np.iinfo(INDEX_DTYPE).max}"
        )
    coord, index = np.dtype(COORD_DTYPE).itemsize, np.dtype(INDEX_DTYPE).itemsize
    needed = size * ((n + 1) * coord + index) + ball_size(n, radius) * 2 * n * index
    memory = physical_memory()
    if needed > memory:
        raise ValueError(
            f"B_{radius} in Z^{n} needs {needed} bytes for its arrays, more than "
            f"the {memory} bytes of physical memory"
        )
    return size


def _ball(n: int, radius: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points of B_radius in Z^n in lexicographic order (as COORD_DTYPE), their
    norms (int64), and the tree of their coordinate prefixes (intp), as
    LatticeDomain.prefix_tree describes it.

    Grows the array of coordinate prefixes one axis at a time: a prefix with
    remaining budget b extends by each value in -b..b, its children.
    """
    coords = np.zeros((1, n), dtype=COORD_DTYPE)
    budget = np.array([radius], dtype=np.int64)
    tree, end = [], 0
    for m in range(n):
        width = 2 * budget + 1
        zero = np.cumsum(width) - width + budget
        value = np.arange(zero[-1] + budget[-1] + 1) - np.repeat(zero, width)
        end += budget.size  # where the next level's entries start
        tree.append(zero + end if m < n - 1 else zero)
        coords = np.repeat(coords, width, axis=0)
        coords[:, m] = value
        budget = np.repeat(budget, width) - np.abs(value)
    return coords, radius - budget, np.concatenate(tree).astype(np.intp)


def build_domain(n: int, radius: int) -> LatticeDomain:
    """Construct B_radius in Z^n (integers n >= 2, radius >= 0) with its boundary and adjacency.

    Raises ValueError, before allocating anything, for a ball that the
    arrays cannot hold (validate_ball).
    """
    n, radius = validate_dimension(n), validate_int(radius, "radius", low=0)
    size = validate_ball(n, radius)

    # _ball enumerates the closure in lexicographic order; a stable sort by
    # norm puts it in shell order (numpy sorts 8- and 16-bit integers by
    # radix sort), and the interior is its first n_int rows.
    coords, norms, tree = _ball(n, radius + 1)
    order = np.argsort(norms.astype(np.min_scalar_type(radius + 1)), kind="stable")
    key_order = np.empty(size, dtype=INDEX_DTYPE)
    key_order[order] = np.arange(size, dtype=INDEX_DTYPE)
    n_int = ball_size(n, radius)
    coords, distances = coords.take(order, axis=0), norms.take(order).astype(COORD_DTYPE)

    # After axis i, prefix holds the tree position of (x_1, ..., x_i), and
    # that of x +- e_i's prefix is one place along the same line; from there
    # the walk goes on by x's own coordinates.  With |x| <= R every prefix
    # on the way lies in B_{R+1}, so no index clips, and mode="clip" lets
    # take write in place, with no copy.
    del order, norms
    x = coords[:n_int].T
    neighbors = np.empty((n_int, 2 * n), dtype=INDEX_DTYPE, order="F")
    prefix, position = np.zeros(n_int, dtype=np.intp), np.empty(n_int, dtype=np.intp)
    for axis in range(n):
        tree.take(prefix, out=prefix, mode="clip")
        prefix += x[axis]
        for col in (2 * axis, 2 * axis + 1):
            np.add(prefix, 1 if col % 2 else -1, out=position)
            for lower in range(axis + 1, n):
                tree.take(position, out=position, mode="clip")
                position += x[lower]
            key_order.take(position, out=neighbors[:, col], mode="clip")

    return LatticeDomain(
        dim=n,
        radius=radius,
        n_interior=n_int,
        coords=coords,
        distances=distances,
        key_order=key_order,
        prefix_tree=tree,
        neighbors=neighbors,
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
            m = validate_int(m, f"vortices[{i}].multiplicity", low=1)
            if p in norm:
                raise ValueError(f"duplicate vortex point {p}")
            norm[p] = m
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
        lam, a = validate_float(self.lam, "lambda", low=0), validate_float(self.a, "a", low=0)
        K = validate_float(a * lam + 1.0 if self.K is None else self.K, "K")
        validate_float(K - a * lam, "K - a*lambda", low=0)
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
