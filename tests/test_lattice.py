import math
import re

import numpy as np
import pytest

from cslattice import (
    Field,
    LatticeDomain,
    Params,
    VortexConfig,
    assemble_source,
    build_domain,
    integral,
    manhattan_distance,
    shell_size,
)
from conftest import box_ball_oracle


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
    "n,radius", [(2, 0), (2, 1), (2, 3), (2, 6), (3, 2), (3, 4), (4, 2), (4, 3), (5, 1), (5, 2)]
)
def test_domain_matches_box_enumeration(n, radius):
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
    seen = set()
    for t, h in zip(dom.edge_tail, dom.edge_head):
        assert t < h
        pair = (int(t), int(h))
        assert pair not in seen
        seen.add(pair)
        assert manhattan_distance(pts[t], pts[h]) == 1
    # interior-interior edges appear in both stencils
    for t, h in seen:
        if h < dom.n_interior:
            assert t in dom.neighbors[h]
            assert h in dom.neighbors[t]


def test_interior_connected():
    dom = build_domain(3, 3)
    adj = {i: set() for i in range(dom.n_interior)}
    for t, h in zip(dom.edge_tail, dom.edge_head):
        if h < dom.n_interior:
            adj[int(t)].add(int(h))
            adj[int(h)].add(int(t))
    seen = {int(dom.locate((0, 0, 0)))}
    stack = list(seen)
    while stack:
        i = stack.pop()
        for j in adj[i]:
            if j not in seen:
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
            m, k, e = small.n_closure, small.n_interior, len(small.edge_tail)
            assert np.array_equal(big.coords[:m], small.coords)
            assert np.array_equal(big.distances[:m], small.distances)
            assert np.array_equal(big.neighbors[:k], small.neighbors)
            # edges come by tail, so small's are those with tail < k
            assert np.array_equal(big.edge_tail[:e], small.edge_tail)
            assert np.array_equal(big.edge_head[:e], small.edge_head)
            assert np.all(big.edge_tail[e:] >= k)
            sub = small.red_black
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
    # (-1, 5) has the mixed-radix key of the boundary point (0, -4)
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


@pytest.mark.parametrize("n,radius", [(2, 0), (2, 5), (3, 3), (4, 2)])
def test_red_black_split(n, radius):
    dom = build_domain(n, radius)
    assert "red_black" not in vars(dom)  # built on first use only
    split = dom.red_black
    assert dom.red_black is split
    n_int = dom.n_interior
    assert np.array_equal(np.sort(np.concatenate([split.red, split.black])), np.arange(n_int))
    assert np.all(dom.distances[split.red] % 2 == 0)
    assert np.all(dom.distances[split.black] % 2 == 1)
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


def test_build_domain_rejects_bad_inputs():
    with pytest.raises(ValueError, match="dimension"):
        build_domain(1, 3)
    with pytest.raises(ValueError, match="radius"):
        build_domain(2, -1)
    with pytest.raises(ValueError, match="int64 point keys"):
        build_domain(20, 3)  # 9^20 keys
    # bools and floats are refused by name, not truncated to a ball or left to numpy
    for n, radius, name in ((2, True, "radius"), (2, 2.5, "radius"), (2, np.float64(3.0), "radius"),
                            (2.0, 3, "dimension"), (True, 3, "dimension")):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got"):
            build_domain(n, radius)
    assert build_domain(np.int64(2), np.int64(3)).n_interior == build_domain(2, 3).n_interior


def test_vortex_config_validation():
    vc = VortexConfig([((0, 0), 2), ((1, 0), 1)])
    assert vc.total_flux == pytest.approx(12 * math.pi, rel=1e-15)
    assert VortexConfig([]).total_flux == 0.0
    with pytest.raises(ValueError, match="duplicate"):
        VortexConfig([((0, 0), 1), ((0, 0), 2)])
    with pytest.raises(ValueError, match="positive integer"):
        VortexConfig([((0, 0), 0)])
    with pytest.raises(ValueError, match="positive integer"):
        VortexConfig([((0, 0), 1.5)])
    with pytest.raises(ValueError, match="dimension"):
        VortexConfig([((0, 0), 1), ((0, 0, 0), 1)])
    # floats and bools were truncated to a lattice point; numpy integers pass
    for bad, name in ((((0.7, 2.9), 1), r"vortices\[0\]\.point\[0\] .*got 0\.7"),
                      (((True, 0), 1), r"vortices\[0\]\.point\[0\] .*got True"),
                      (((0, 0), True), r"vortices\[0\]\.multiplicity .*got True")):
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
    with pytest.raises(ValueError, match=r"a\*lambda"):
        Params(lam=1.0, a=1.0, K=0.5)
    with pytest.raises(ValueError, match="lambda"):
        Params(lam=0.0, a=1.0)
    with pytest.raises(ValueError, match="a must be"):
        Params(lam=1.0, a=-1.0)
    # K = inf used to pass and fail later inside CG; lam = inf blamed K
    for kwargs, name in (({"K": math.inf}, "K"), ({"K": math.nan}, "K"),
                         ({"lam": math.inf}, "lambda"), ({"lam": math.nan}, "lambda"),
                         ({"a": math.inf}, "a"), ({"a": math.nan}, "a")):
        with pytest.raises(ValueError, match=f"^{name} must be .*finite"):
            Params(**{"lam": 1.0, "a": 1.0, **kwargs})
    # True built lam=True; a string raised a bare TypeError from a comparison;
    # an integer beyond the float range is no finite number
    for kwargs, message in (({"lam": True}, "lambda must be a number, got True"),
                            ({"lam": "1"}, "lambda must be a number, got '1'"),
                            ({"a": np.bool_(True)}, "a must be a number"),
                            ({"K": "3"}, "K must be a number"),
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
    dom = build_domain(2, 1)
    with pytest.raises(ValueError, match="outside"):
        assemble_source(dom, VortexConfig([((2, 0), 1)]))  # boundary point
    with pytest.raises(ValueError, match="outside"):
        assemble_source(dom, VortexConfig([((5, 5), 1)]))
    with pytest.raises(ValueError, match="dimension"):
        assemble_source(dom, VortexConfig([((0, 0, 0), 1)]))


def test_source_is_dirichlet_field():
    dom = build_domain(2, 1)
    g = assemble_source(dom, VortexConfig([((0, 0), 3)]))
    assert isinstance(g, Field)
    assert g.is_dirichlet()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shell_size_matches_enumeration(n):
    interior, boundary = box_ball_oracle(n, 4)  # the ball of radius 5
    for d in range(6):
        count = sum(1 for p in interior | boundary if manhattan_distance(p, (0,) * n) == d)
        assert shell_size(n, d) == count
