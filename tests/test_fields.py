import math

import numpy as np
import pytest

from cslattice import (
    Field,
    VortexConfig,
    assemble_source,
    build_domain,
    grad_energy,
    laplacian,
    manhattan_norm,
    norm,
)
from cslattice.fields import ONE_TAKE_MAX, extend_by_zero, gather_sum, neighbor_sum
from conftest import integral


def indicator(dom, point):
    vals = np.zeros(dom.n_closure)
    vals[dom.locate(point)] = 1.0
    return Field(dom, vals)


def closure_edges(dom):
    """(tail, head): every closure edge once, as closure indices, found from
    the coordinates through locate, not from the neighbour table.

    For each axis e, the edges x -- x + e with x interior, and x - e -- x
    with x interior and x - e on the boundary: two boundary points are
    never adjacent, so that is every edge along e exactly once.
    """
    inner = dom.coords[: dom.n_interior].astype(np.int64)
    rows = np.arange(dom.n_interior)
    tails, heads = [], []
    for e in np.eye(dom.dim, dtype=np.int64):
        down = dom.locate(inner - e)
        outside = down >= dom.n_interior
        tails += [rows, down[outside]]
        heads += [dom.locate(inner + e), rows[outside]]
    return np.concatenate(tails), np.concatenate(heads)


def edge_differences(f):
    """f(head) - f(tail) over closure_edges."""
    tail, head = closure_edges(f.domain)
    return f.values[head] - f.values[tail]


def grad_inner(f, g):
    """Sum over unordered closure edges of (f(y)-f(x)) (g(y)-g(x))."""
    a, b = f.domain, g.domain
    if (a.dim, a.radius) != (b.dim, b.radius):
        raise ValueError(f"domain mismatch: B_{a.radius} in Z^{a.dim} vs B_{b.radius} in Z^{b.dim}")
    return float(np.dot(edge_differences(f), edge_differences(g)))


def sum_by_parts_defect(f, g):
    """grad_inner(f, g) + integral(laplacian(f) * g) for Dirichlet g.

    Vanishes identically in exact arithmetic; the returned value is the
    floating-point defect.
    """
    if not g.is_dirichlet():
        raise ValueError("summation by parts requires g to vanish on the boundary")
    return grad_inner(f, g) + float(np.dot(laplacian(f), g.interior_values))


def grad_inner_oracle(f, g):
    """Double loop over ordered closure vertex pairs at distance one."""
    dom = f.domain
    total = 0.0
    pts = [tuple(p) for p in dom.coords.tolist()]
    for x in pts:
        for y in pts:
            if manhattan_norm(np.subtract(x, y)) == 1:
                total += (f(y) - f(x)) * (g(y) - g(x))
    return 0.5 * total


def test_field_validation(b2):
    with pytest.raises(ValueError, match="values"):
        Field(b2, np.zeros(3))
    bad = np.zeros(b2.n_closure)
    bad[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Field(b2, bad)
    f = Field.from_interior(b2, np.ones(b2.n_interior))
    assert f.is_dirichlet()
    assert f((0, 0)) == 1.0
    assert f((3, 0)) == 0.0


def test_laplacian_annihilates_constants(b2):
    f = Field(b2, np.full(b2.n_closure, 3.7))
    assert np.all(laplacian(f) == 0.0)


def test_laplacian_indicator_stencil(b2):
    f = indicator(b2, (0, 0))
    lap = laplacian(f)
    assert lap[b2.locate((0, 0))] == -4.0
    assert lap[b2.locate((1, 0))] == 1.0
    assert lap[b2.locate((1, 1))] == 0.0


def test_laplacian_of_linear_coordinate_field():
    dom = build_domain(2, 3)
    f = Field(dom, dom.coords[:, 0].astype(float))
    assert np.max(np.abs(laplacian(f))) == 0.0


@pytest.mark.parametrize(
    "n, radius", [(2, 6), (3, 4), (4, 3), (5, 2), (6, 2), (2, 80), (4, 9), (4, 1)]
)
def test_neighbor_sum_bitwise_equals_row_sum(n, radius, rng):
    # Pins the summation order that keeps artifacts byte-identical: each row
    # of the neighbour table and, for n >= 3, of both red-black tables adds
    # its columns left to right.  (In 2D the red-black split has no tables:
    # test_linear.py pins its box sums against this order.)
    # 2D R=80 and 4D R=9 have neighbour tables above ONE_TAKE_MAX; 4D R=1
    # has a one-row red table.
    dom = build_domain(n, radius)
    split = dom.red_black
    tables = (dom.neighbors,) if n == 2 else (dom.neighbors, split.red_neighbors,
                                             split.black_neighbors)
    assert all(t.flags.f_contiguous for t in tables)
    assert (dom.neighbors.size > ONE_TAKE_MAX) == ((n, radius) in {(2, 80), (4, 9)})
    for table in tables:
        size = int(table.max()) + 1
        # A single row shows a wrong order in only about a third of the draws.
        for _ in range(16):
            values = rng.standard_normal(size) * 10.0 ** rng.integers(-12, 13, size=size)
            gathered = values[table]
            expected = gathered[:, 0].copy()
            for j in range(1, table.shape[1]):
                expected = expected + gathered[:, j]
            got = neighbor_sum(dom, values) if table is dom.neighbors else gather_sum(table, values)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_integral_examples():
    dom = build_domain(2, 1)
    assert integral(Field(dom, np.ones(dom.n_closure)), "interior") == 5.0
    assert integral(Field.zeros(dom)) == 0.0
    g = assemble_source(dom, VortexConfig([((0, 0), 2)]))
    assert integral(g) == pytest.approx(8 * math.pi, rel=1e-15)
    with pytest.raises(ValueError, match="over"):
        integral(g, "everywhere")


def test_grad_energy_constant_and_spike():
    dom = build_domain(2, 0)
    assert grad_energy(Field.zeros(dom)) == 0.0
    spike = Field.from_interior(dom, np.array([1.0]))
    # four closure edges, each contributing (1 - 0)^2
    assert grad_energy(spike) == 4.0
    # a constant on B_2's interior: only its 20 edges to the boundary count,
    # one from each of the sphere's 4 axis points and two from each other one
    dom = build_domain(2, 2)
    assert grad_energy(Field.from_interior(dom, np.full(dom.n_interior, 2.5))) == 20 * 2.5**2


def test_grad_energy_matches_double_loop_oracle(b2, rng):
    f = Field.from_interior(b2, rng.standard_normal(b2.n_interior))
    assert grad_energy(f) == pytest.approx(grad_inner_oracle(f, f), rel=1e-13)


def test_grad_energy_requires_dirichlet(b2):
    f = Field.from_interior(b2, np.ones(b2.n_interior))
    values = f.values.copy()
    values[-1] = 1e-300
    with pytest.raises(ValueError, match="Dirichlet"):
        grad_energy(Field(b2, values))


def test_grad_inner_examples(b2, rng):
    f = Field(b2, rng.standard_normal(b2.n_closure))
    g = Field(b2, rng.standard_normal(b2.n_closure))
    assert grad_inner(f, Field.zeros(b2)) == 0.0
    h = Field.from_interior(b2, rng.standard_normal(b2.n_interior))
    assert grad_inner(h, h) == pytest.approx(grad_energy(h), rel=1e-14)
    assert grad_inner(f, g) == pytest.approx(grad_inner(g, f), rel=1e-14)
    assert grad_inner(f, g) == pytest.approx(grad_inner_oracle(f, g), rel=1e-12)


def test_grad_inner_bilinear(b2, rng):
    f = Field(b2, rng.standard_normal(b2.n_closure))
    h = Field(b2, rng.standard_normal(b2.n_closure))
    g = Field(b2, rng.standard_normal(b2.n_closure))
    combo = Field(b2, 2.0 * f.values - 3.0 * h.values)
    expected = 2.0 * grad_inner(f, g) - 3.0 * grad_inner(h, g)
    assert grad_inner(combo, g) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_grad_inner_cauchy_schwarz(rng):
    dom = build_domain(2, 3)
    for _ in range(20):
        f = Field(dom, rng.standard_normal(dom.n_closure))
        g = Field(dom, rng.standard_normal(dom.n_closure))
        lhs = grad_inner(f, g) ** 2
        rhs = grad_inner(f, f) * grad_inner(g, g)
        assert lhs <= rhs * (1 + 1e-12)


def test_grad_inner_domain_mismatch(b2):
    other = build_domain(2, 3)
    with pytest.raises(ValueError, match="domain mismatch"):
        grad_inner(Field.zeros(b2), Field.zeros(other))


def test_sum_by_parts_trivial_cases(b2, rng):
    f = Field(b2, rng.standard_normal(b2.n_closure))
    assert sum_by_parts_defect(f, Field.zeros(b2)) == 0.0
    g = Field.from_interior(b2, rng.standard_normal(b2.n_interior))
    const = Field(b2, np.full(b2.n_closure, 4.2))
    assert sum_by_parts_defect(const, g) == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("n,radius", [(2, 1), (2, 3), (2, 5), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_sum_by_parts_identity(n, radius, rng):
    dom = build_domain(n, radius)
    for _ in range(10):
        f = Field(dom, rng.standard_normal(dom.n_closure))
        g = Field.from_interior(dom, rng.standard_normal(dom.n_interior))
        bound = 1e-12 * (
            1.0
            + float(np.max(np.abs(f.values))) * float(np.max(np.abs(g.values))) * dom.n_closure
        )
        assert abs(sum_by_parts_defect(f, g)) <= bound


def test_sum_by_parts_requires_dirichlet(b2):
    f = Field(b2, np.ones(b2.n_closure))
    with pytest.raises(ValueError, match="vanish"):
        sum_by_parts_defect(f, f)


def test_norm_examples():
    dom = build_domain(2, 2)
    zero = Field.zeros(dom)
    for p in (1, 2, 3.5, math.inf):
        assert norm(zero, p) == 0.0

    spike = Field.from_interior(dom, np.eye(dom.n_interior)[0])
    for p in (1, 2, 7, math.inf):
        assert norm(spike, p) == pytest.approx(1.0, rel=1e-15)

    vals = np.zeros(dom.n_closure)
    vals[dom.locate((0, 0))] = 3.0
    vals[dom.locate((1, 0))] = -4.0
    f = Field(dom, vals)
    assert norm(f, 2) == pytest.approx(5.0, rel=1e-15)

    with pytest.raises(ValueError, match="p must be"):
        norm(f, 0.5)


def test_norm_inequalities(rng):
    dom = build_domain(2, 3)
    f = Field(dom, rng.standard_normal(dom.n_closure))
    size = dom.n_interior
    for p in (1, 2, 4):
        np_ = norm(f, p)
        assert norm(f, math.inf) <= np_ + 1e-13
        assert np_ <= size ** (1.0 / p) * norm(f, math.inf) * (1 + 1e-13)
    # the interior norm: the boundary values of a non-Dirichlet f do not enter
    assert norm(f, 2) == pytest.approx(float(np.linalg.norm(f.interior_values)), rel=1e-14)
    assert norm(f, 2) <= float(np.linalg.norm(f.values))


@pytest.mark.parametrize("n", [2, 3])
def test_extend_by_zero_pointwise(n, rng):
    small, big = build_domain(n, 2), build_domain(n, 4)
    f = Field(small, rng.standard_normal(small.n_closure))
    ext = extend_by_zero(f, big)
    for p, value in zip(small.coords.tolist(), f.values):
        assert ext(p) == value
    outside = big.distances > small.radius + 1
    assert np.count_nonzero(outside) == big.n_closure - small.n_closure
    assert not np.any(ext.values[outside])
    assert np.array_equal(extend_by_zero(f, small).values, f.values)
    with pytest.raises(KeyError, match="outside the closure"):
        extend_by_zero(ext, small)
