import dataclasses
import math
import re

import numpy as np
import pytest

from cslattice import (
    Field,
    LatticeDomain,
    Params,
    Problem,
    VortexConfig,
    ball_size,
    build_domain,
    shell_size,
)
import cslattice.lattice as lattice_mod
from cslattice.lattice import assemble_source
from conftest import box_ball_oracle, integral


def manhattan_distance(x, y) -> int:
    """Lattice distance d(x, y) = sum_i |x_i - y_i|."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return sum(abs(a - b) for a, b in zip(x, y))


def points(coords):
    return [tuple(p) for p in coords.tolist()]


def test_manhattan_distance_examples():
    assert manhattan_distance((0, 0), (0, 0)) == 0
    assert manhattan_distance((1, -2), (0, 0)) == 3
    assert manhattan_distance((2, 0, -1), (-1, 1, 0)) == 5


def test_manhattan_distance_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        manhattan_distance((0, 0), (0, 0, 0))


@pytest.mark.parametrize(
    "n,radius",
    [(2, 0), (2, 1), (2, 3), (2, 6), (3, 0), (3, 2), (3, 4), (4, 0), (4, 2), (4, 3), (5, 0),
     (5, 1), (5, 2), (6, 0), (6, 1), (6, 2)],
)
def test_domain_matches_box_enumeration(n, radius):
    # R = 0 gives prefix-tree levels of one point
    interior, boundary = box_ball_oracle(n, radius)
    dom = build_domain(n, radius)
    pts = points(dom.coords)
    assert len(pts) == dom.n_closure == len(interior) + len(boundary)
    assert set(pts[: dom.n_interior]) == interior
    assert set(pts[dom.n_interior :]) == boundary
    # for Manhattan balls the boundary is exactly the next sphere
    assert all(manhattan_distance(p, (0,) * n) == radius + 1 for p in pts[dom.n_interior :])
    assert dom.distances.tolist() == [manhattan_distance(p, (0,) * n) for p in pts]
    # the neighbour table lists x - e_1, x + e_1, ..., x + e_n in the oracle's closure
    for p, row in zip(pts, dom.neighbors.tolist()):
        expected = [
            p[:axis] + (p[axis] + step,) + p[axis + 1 :]
            for axis in range(n)
            for step in (-1, 1)
        ]
        assert [pts[j] for j in row] == expected
        assert all(q in interior or q in boundary for q in expected)


def test_small_domain_counts():
    dom = build_domain(2, 1)
    assert dom.n_interior == 5
    assert dom.n_closure - dom.n_interior == 8

    dom0 = build_domain(2, 0)
    assert points(dom0.coords[:1]) == [(0, 0)]
    assert set(points(dom0.coords[1:])) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


@pytest.mark.parametrize("radius", range(7))
def test_interior_count_formula_2d(radius):
    dom = build_domain(2, radius)
    assert dom.n_interior == 2 * radius**2 + 2 * radius + 1


def test_interior_degree_and_neighbors_in_closure():
    dom = build_domain(3, 2)
    assert dom.n_interior == 25
    assert dom.neighbors.shape == (25, 6)
    pts = points(dom.coords)
    for i, p in enumerate(pts[: dom.n_interior]):
        nbrs = [pts[j] for j in dom.neighbors[i]]
        assert len(nbrs) == 6
        assert all(manhattan_distance(p, q) == 1 for q in nbrs)


def test_adjacency_symmetric_and_edges_unique():
    dom = build_domain(2, 3)
    pts = points(dom.coords)
    n_int = dom.n_interior
    for i, row in enumerate(dom.neighbors.tolist()):
        # 2n distinct closure points at distance one: no edge twice in a stencil
        assert len(set(row)) == len(row) == dom.degree
        assert all(manhattan_distance(pts[i], pts[j]) == 1 for j in row)
        # an interior-interior edge appears in both stencils
        for j in row:
            if j < n_int:
                assert i in dom.neighbors[j]
    # each boundary point appears once per interior neighbour it has
    entries = dom.neighbors[dom.neighbors >= n_int]
    for b in range(n_int, dom.n_closure):
        inside = sum(manhattan_distance(pts[b], p) == 1 for p in pts[:n_int])
        assert np.count_nonzero(entries == b) == inside >= 1


def test_interior_connected():
    dom = build_domain(3, 3)
    seen = {int(dom.locate((0, 0, 0)))}
    stack = list(seen)
    while stack:
        i = stack.pop()
        for j in dom.neighbors[i].tolist():
            if j < dom.n_interior and j not in seen:
                seen.add(j)
                stack.append(j)
    assert len(seen) == dom.n_interior


def test_ordering_by_shell_and_deterministic():
    for n, radius in ((2, 4), (3, 3)):
        a = build_domain(n, radius)
        b = build_domain(n, radius)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.neighbors, b.neighbors)
        # shell by shell from the origin, lexicographic within each shell
        assert np.all(np.diff(a.distances) >= 0)
        pts = points(a.coords)
        for d in range(radius + 2):
            shell = [p for p, dist in zip(pts, a.distances.tolist()) if dist == d]
            assert shell == sorted(shell)
        # so the interior is indexed before the boundary
        assert np.all(a.distances[: a.n_interior] <= a.radius)
        assert np.all(a.distances[a.n_interior :] == a.radius + 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_smaller_ball_is_a_prefix(n):
    domains = [build_domain(n, r) for r in range(5 if n == 5 else 9)]
    for big in domains:
        split = big.red_black
        for small in domains[: big.radius]:
            m, k = small.n_closure, small.n_interior
            assert np.array_equal(big.coords[:m], small.coords)
            assert np.array_equal(big.distances[:m], small.distances)
            assert np.array_equal(big.neighbors[:k], small.neighbors)
            sub = small.red_black
            if n == 2:
                # no prefix: each colour's grid of the smaller ball is the
                # centre block of the larger ball's grid of that colour
                for grid, sub_grid in ((split.red, sub.red), (split.black, sub.black)):
                    side, sub_side = math.isqrt(len(grid)), math.isqrt(len(sub_grid))
                    centre = slice((side - sub_side) // 2, (side + sub_side) // 2)
                    assert np.array_equal(grid.reshape(side, side)[centre, centre],
                                          sub_grid.reshape(sub_side, sub_side))
                continue
            n_red, n_black = len(sub.red), len(sub.black)
            assert np.array_equal(split.red[:n_red], sub.red)
            assert np.array_equal(split.black[:n_black], sub.black)
            # small's boundary lies past its colour counts in big's colour lists
            assert np.array_equal(np.minimum(split.red_neighbors[:n_red], n_black),
                                  sub.red_neighbors)
            assert np.array_equal(np.minimum(split.black_neighbors[:n_black], n_red),
                                  sub.black_neighbors)


@pytest.mark.parametrize("n,radius", [(2, 0), (2, 5), (3, 3), (4, 2), (5, 2)])
def test_locate_inverts_coords(n, radius):
    dom = build_domain(n, radius)
    assert np.array_equal(dom.locate(dom.coords), np.arange(dom.n_closure))
    for i, p in enumerate(points(dom.coords)):
        assert dom.locate(p) == i


@pytest.mark.parametrize("point", [(-1, 5), (4, 1), (0, 0, 0)])
def test_locate_rejects_points_off_the_closure(point):
    # without the closure check, (-1, 5) would walk the prefix tree to (0, -3)
    dom = build_domain(2, 3)
    with pytest.raises(KeyError):
        dom.locate(point)
    with pytest.raises(KeyError):
        Field.zeros(dom)(point)
    with pytest.raises(KeyError):
        dom.locate(np.array([(0, 0) + (0,) * (len(point) - 2), point]))


def test_locate_closure_is_the_prefix_slice(monkeypatch):
    small, big = build_domain(3, 2), build_domain(3, 4)
    assert np.array_equal(big.locate(small.coords), np.arange(small.n_closure))
    calls = []
    real = LatticeDomain.locate

    def counting(self, pts):
        calls.append(np.shape(pts))
        return real(self, pts)

    monkeypatch.setattr(LatticeDomain, "locate", counting)
    assert big.locate_closure(small) == slice(0, small.n_closure)
    assert big.locate_closure(big) == slice(0, big.n_closure)
    assert calls == []
    for outside in (build_domain(3, 3), big, build_domain(2, 1), build_domain(4, 1)):
        with pytest.raises(KeyError, match="outside the closure"):
            small.locate_closure(outside)


@pytest.mark.parametrize("n,radius", [(2, 0), (2, 5), (2, 6), (3, 3), (4, 2)])
def test_red_black_split(n, radius):
    dom = build_domain(n, radius)
    assert "red_black" not in vars(dom)  # built on first use only
    split = dom.red_black
    assert dom.red_black is split
    n_int = dom.n_interior
    assert np.array_equal(np.sort(np.concatenate([split.red, split.black])), np.arange(n_int))
    assert np.all(dom.distances[split.red] % 2 == 0)
    assert np.all(dom.distances[split.black] % 2 == 1)
    if n == 2:
        # linear_solve's buffers: rows of R + 2, the larger grid (red at even
        # R) with a zero last column, the smaller one inside a zero ring and
        # above one more zero row
        larger, smaller = (radius + 1, radius + 2), (radius + 3, radius + 2)
        assert (split.red_shape, split.black_shape) == ((larger, smaller) if radius % 2 == 0
                                                        else (smaller, larger))
        _check_rotated_grids(dom, split)
        return
    # the colour's values, then the zero slot that boundary neighbours read
    assert split.red_shape == (len(split.red) + 1,)
    assert split.black_shape == (len(split.black) + 1,)
    for rows, other, table in ((split.red, split.black, split.red_neighbors),
                               (split.black, split.red, split.black_neighbors)):
        assert table.shape == (len(rows), 2 * n) and table.flags.f_contiguous
        assert not table.flags.writeable
        nbr = dom.neighbors[rows]
        boundary = nbr >= n_int
        # every neighbour is of the other colour or on the boundary
        assert np.all(np.isin(nbr[~boundary], other))
        # entry by entry, the table names dom.neighbors: a position in the
        # other colour, or the zero slot after it for a boundary point
        assert np.array_equal(np.append(other, -1)[table], np.where(boundary, -1, nbr))
        assert np.all((table == len(other)) == boundary)


def _check_rotated_grids(dom, split):
    """2D: each colour list is its square grid in u = x + y, v = x - y, row
    by row, and the neighbours of a cell are the 2x2 block of the other
    colour's grid below and right of it, the smaller grid taken with a ring
    of the boundary points around it."""
    radius = dom.radius
    assert split.red_neighbors is None and split.black_neighbors is None
    x, y = dom.coords.astype(np.intp).T
    for grid in (split.red, split.black):
        assert grid.dtype == np.intp and not grid.flags.writeable
        side = math.isqrt(len(grid))
        i, j = np.divmod(np.arange(side * side), side)
        assert np.array_equal((x + y)[grid], 2 * i - (side - 1))
        assert np.array_equal((x - y)[grid], 2 * j - (side - 1))
    small, large = sorted((split.red, split.black), key=len)
    assert len(large) == (radius + 1) ** 2 and len(small) == radius**2
    u, v = np.meshgrid(*[np.arange(-radius - 1, radius + 2, 2)] * 2, indexing="ij")
    ring = np.maximum(np.abs(u), np.abs(v)) == radius + 1
    padded = np.empty(u.shape, dtype=np.intp)
    padded[ring] = dom.locate(np.stack([(u + v) // 2, (u - v) // 2], axis=-1)[ring])
    assert np.all(padded[ring] >= dom.n_interior)
    assert np.count_nonzero(ring) == dom.n_closure - dom.n_interior
    padded[1:-1, 1:-1] = small.reshape(radius, radius)
    large = large.reshape(radius + 1, radius + 1)
    # dom.neighbors' columns x - 1, x + 1, y - 1, y + 1 are these four corners
    for cells, other in ((large, padded), (padded[1:-1, 1:-1], large)):
        corners = (other[:-1, :-1], other[1:, 1:], other[:-1, 1:], other[1:, :-1])
        for col, corner in enumerate(corners):
            assert np.array_equal(dom.neighbors[cells, col], corner)


def test_build_domain_rejects_bad_inputs():
    # bools, strings, non-finite and out-of-range values: test_validation.py
    # the bounding box of B_3's closure in Z^20 has 9^20 > 2^63 points; the
    # prefix tree indexes only the closure's
    dom = build_domain(20, 3)
    assert dom.n_closure == ball_size(20, 4) == 118721
    assert np.array_equal(dom.locate(dom.coords), np.arange(dom.n_closure))
    # floats are refused by name, not truncated to a ball or left to numpy
    for n, radius, name in ((2, 2.5, "radius"), (2, np.float64(3.0), "radius"),
                            (2.0, 3, "dimension")):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got"):
            build_domain(n, radius)
    assert build_domain(np.int64(2), np.int64(3)).n_interior == build_domain(2, 3).n_interior


def test_compact_layout():
    dom = build_domain(4, 14)
    dtypes = {name: getattr(dom, name).dtype for name in
              ("coords", "distances", "key_order", "prefix_tree", "neighbors")}
    assert dtypes == {"coords": np.int16, "distances": np.int16, "key_order": np.int32,
                      "prefix_tree": np.intp, "neighbors": np.int32}
    assert dom.neighbors.flags.f_contiguous
    nbytes = sum(getattr(dom, name).nbytes for name in dtypes)
    assert nbytes <= 40 * dom.n_closure  # 39.7 bytes per point
    # the colour tables are int32 and column-major like the neighbour table;
    # the colour lists stay intp
    split = dom.red_black
    for table in (split.red_neighbors, split.black_neighbors):
        assert table.dtype == np.int32
        assert table.flags.f_contiguous
    for rows in (split.red, split.black):
        assert rows.dtype == np.intp
    colour = sum(array.nbytes for array in
                 (split.red, split.black, split.red_neighbors, split.black_neighbors))
    assert nbytes + colour <= 71 * dom.n_closure  # 39.7 + 30.7 bytes per point


def test_compact_layout_2d():
    # 2D keeps each colour as one list in grid order and builds no n_red x 4
    # table: intp colour lists with two int32 4-column tables took 8 + 16
    # bytes per interior point, 23.4 per closure point on R=80
    dom = build_domain(2, 80)
    split = dom.red_black
    arrays = [getattr(split, name) for name in ("red", "black", "red_neighbors", "black_neighbors")]
    assert all(a is None or a.ndim == 1 for a in arrays)
    colour = sum(a.nbytes for a in arrays if a is not None)
    assert colour <= (8 + 4 * 4) * dom.n_interior / 2  # 7.8 bytes per closure point


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ball_size_counts_the_closure(n):
    for radius in range(5):
        dom = build_domain(n, radius)
        assert ball_size(n, radius + 1) == dom.n_closure
        assert ball_size(n, radius) == dom.n_interior
        assert ball_size(n, radius) == sum(shell_size(n, d) for d in range(radius + 1))


def test_build_domain_refuses_balls_its_arrays_cannot_hold():
    # about 1.1e10 closure points: more than int32 indices reach
    size = ball_size(3, 2001)
    with pytest.raises(ValueError, match=f"int32 indices: its closure has {size} points "
                                         f"> {2**31 - 1}"):
        build_domain(3, 2000)
    # a boundary at distance 10^6 + 1: beyond int16 coordinates
    with pytest.raises(ValueError, match="int16 coordinates: its boundary lies at "
                                         "distance 1000001 > 32767"):
        build_domain(2, 10**6)


def test_build_domain_refuses_balls_beyond_physical_memory(monkeypatch):
    # the closed-form byte count is the coordinates, norms, key order and
    # neighbour table build_domain returns; one byte less memory refuses the ball
    dom = build_domain(3, 4)
    needed = sum(getattr(dom, name).nbytes
                 for name in ("coords", "distances", "key_order", "neighbors"))
    monkeypatch.setattr(lattice_mod, "physical_memory", lambda: needed)
    assert build_domain(3, 4).n_closure == dom.n_closure
    monkeypatch.setattr(lattice_mod, "physical_memory", lambda: needed - 1)
    with pytest.raises(ValueError, match=f"B_4 in Z\\^3 needs {needed} bytes for its arrays, "
                                         f"more than the {needed - 1} bytes of physical memory"):
        build_domain(3, 4)


@pytest.mark.parametrize("n, radius", [(2, 80), (2, 40), (4, 14), (3, 12)])
def test_benchmark_balls_fit_in_memory(n, radius):
    # the largest balls of the benchmark's four workloads, on this machine's memory
    assert lattice_mod.validate_ball(n, radius) == ball_size(n, radius + 1)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint16, np.int32, np.int64, np.uint64])
def test_locate_widens_integer_types(dtype):
    # B_130's closure reaches past int8 on both sides: -128 and 127 are in it
    info = np.iinfo(dtype)
    dom = build_domain(2, 130)
    rows = {p: i for i, p in enumerate(points(dom.coords))}
    inside = [p for p in [(0, 0), (1, 2), (3, 0), (-128, 3), (0, 127), (131, 0), (-4, -127)]
              if info.min <= min(p) and max(p) <= info.max]
    found = dom.locate(np.array(inside, dtype=dtype))
    assert found.tolist() == [rows[p] for p in inside]
    # on B_3 every point with an extreme coordinate other than 0 lies outside
    # the closure: np.abs(-128) is -128 in int8, and 2^64 - 1 is -1 in intp
    small = build_domain(2, 3)
    for extreme in ([info.min, 0], [0, info.min], [info.max, 0], [1, info.max],
                    [info.max, info.max], [info.min, info.max]):
        if extreme == [0, 0]:
            continue
        with pytest.raises(KeyError, match="outside the closure"):
            small.locate(np.array(extreme, dtype=dtype))


def test_locate_finds_random_closure_points():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 5), label="n")
        radius = data.draw(st.integers(0, 6), label="radius")
        dom = build_domain(n, radius)
        # a point of norm at most the bound: magnitudes, then signs
        def point(bound):
            left, p = bound, []
            for _ in range(n):
                value = data.draw(st.integers(-left, left))
                left -= abs(value)
                p.append(value)
            return data.draw(st.permutations(p))
        closure = [point(radius + 1) for _ in range(data.draw(st.integers(1, 8)))]
        found = dom.locate(np.array(closure))
        assert np.array_equal(dom.coords[found], np.array(closure))
        far = list(point(radius + 2))
        axis = data.draw(st.integers(0, n - 1))
        far[axis] += (1 if far[axis] >= 0 else -1) * (radius + 2 - sum(map(abs, far)))
        with pytest.raises(KeyError, match="outside the closure"):
            dom.locate(np.array([closure[0], far]))

    check()


def test_vortex_config_validation():
    vc = VortexConfig([((0, 0), 2), ((1, 0), 1)])
    assert vc.total_flux == pytest.approx(12 * math.pi, rel=1e-15)
    assert VortexConfig([]).total_flux == 0.0
    with pytest.raises(ValueError, match="duplicate"):
        VortexConfig([((0, 0), 1), ((0, 0), 2)])
    # a multiplicity's type and range: test_validation.py
    with pytest.raises(ValueError, match=r"multiplicity must be an integer, got 1\.5"):
        VortexConfig([((0, 0), 1.5)])
    with pytest.raises(ValueError, match="dimension"):
        VortexConfig([((0, 0), 1), ((0, 0, 0), 1)])
    # floats and bools were truncated to a lattice point; numpy integers pass
    for bad, name in ((((0.7, 2.9), 1), r"vortices\[0\]\.point\[0\] .*got 0\.7"),
                      (((True, 0), 1), r"vortices\[0\]\.point\[0\] .*got True")):
        with pytest.raises(ValueError, match=name):
            VortexConfig([bad])
    with pytest.raises(ValueError, match=r"vortices\[1\]\.point\[1\] must be an integer"):
        VortexConfig([((0, 0), 1), ((1, 2.0), 1)])
    vc = VortexConfig([((np.int64(1), np.int32(-2)), np.int64(2))])
    assert vc.vortices == (((1, -2), 2),)
    assert all(type(v) is int for v in (*vc.vortices[0][0], vc.vortices[0][1]))


def test_params_validation():
    p = Params(lam=2.0, a=0.5)
    assert p.K == pytest.approx(2.0)  # a*lambda + 1
    # bools, strings, non-finite and out-of-range values: test_validation.py
    with pytest.raises(ValueError, match=r"^K - a\*lambda must be positive, got -0\.5$"):
        Params(lam=1.0, a=1.0, K=0.5)
    # a numpy bool is no number; an integer beyond the float range is no finite number
    for kwargs, message in (({"a": np.bool_(True)}, "a must be a number"),
                            ({"lam": 10**400}, "lambda must be a finite number")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            Params(**{"lam": 1.0, "a": 1.0, **kwargs})
    p = Params(np.int64(2), np.float32(0.5), 3)
    assert (p.lam, p.a, p.K) == (2.0, 0.5, 3.0)
    assert all(type(v) is float for v in (p.lam, p.a, p.K))


def test_assemble_source_examples():
    dom = build_domain(2, 2)
    zero = assemble_source(dom, VortexConfig([]))
    assert not np.any(zero.values)

    one = assemble_source(dom, VortexConfig([((0, 0), 1)]))
    assert one((0, 0)) == pytest.approx(4 * math.pi, abs=1e-12)
    assert one((0, 0)) == pytest.approx(12.566370614359172, abs=1e-9)
    assert integral(one, "closure") == pytest.approx(4 * math.pi, rel=1e-15)

    two = assemble_source(dom, VortexConfig([((0, 0), 2), ((1, 0), 1)]))
    assert integral(two) == pytest.approx(12 * math.pi, rel=1e-15)


def test_assemble_source_rejects_outside_points():
    # a Problem assembles its source when it is built, so none can exist
    dom = build_domain(2, 1)
    for build in (assemble_source, lambda dom, vc: Problem(dom, vc, Params(1.0, 1.0))):
        with pytest.raises(ValueError, match="outside"):
            build(dom, VortexConfig([((2, 0), 1)]))  # boundary point
        with pytest.raises(ValueError, match="outside"):
            build(dom, VortexConfig([((5, 5), 1)]))
        with pytest.raises(ValueError, match="dimension"):
            build(dom, VortexConfig([((0, 0, 0), 1)]))


def test_source_is_dirichlet_field():
    dom = build_domain(2, 1)
    g = assemble_source(dom, VortexConfig([((0, 0), 3)]))
    assert isinstance(g, Field)
    assert g.is_dirichlet()
    problem = Problem(dom, VortexConfig([((0, 0), 3)]), Params(1.0, 1.0))
    assert [f.name for f in dataclasses.fields(problem)] == ["domain", "vortex", "params", "source"]
    assert np.array_equal(problem.source.values, g.values)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shell_size_matches_enumeration(n):
    interior, boundary = box_ball_oracle(n, 4)  # the ball of radius 5
    for d in range(6):
        count = sum(1 for p in interior | boundary if manhattan_distance(p, (0,) * n) == d)
        assert shell_size(n, d) == count
