import itertools
import math

import numpy as np
import pytest

from cslattice import Field, Params, Problem, VortexConfig, build_domain, grad_energy
from cslattice.cli import write_field_csv

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # The same examples on every run, so the tests stay deterministic; no
    # example database and no deadline, whose timings vary from host to host.
    settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
    settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def b2():
    return build_domain(2, 2)


@pytest.fixture(scope="session")
def b3():
    return build_domain(2, 3)


def problem_on(dom, vc=None, params=None):
    """Problem(dom, vc, params), by default with one unit vortex at the origin
    and lambda = a = 1."""
    vc = VortexConfig([((0,) * dom.dim, 1)]) if vc is None else vc
    return Problem(dom, vc, Params(1.0, 1.0) if params is None else params)


def box_ball_oracle(n, radius):
    """Independent domain construction by exhaustive box enumeration.

    Scans the cube [-radius, radius]^n, classifies interior by the distance
    sum, and boundary as non-interior points with an interior neighbour.
    Used to validate the recursive ball builder.
    """
    span = range(-radius, radius + 1)
    interior = {p for p in itertools.product(span, repeat=n) if sum(abs(c) for c in p) <= radius}
    boundary = set()
    for p in interior:
        for axis in range(n):
            for step in (-1, 1):
                q = p[:axis] + (p[axis] + step,) + p[axis + 1 :]
                if q not in interior:
                    boundary.add(q)
    return interior, boundary


def bisection_root(fn, lo, hi, iters=200):
    """Sign-change bisection; fn(lo) and fn(hi) must have opposite signs."""
    flo = fn(lo)
    assert flo * fn(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) * flo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def integral(f, over="interior"):
    """Vertex sum of f over the interior or the closure (unit measure)."""
    if over not in ("interior", "closure"):
        raise ValueError(f"over must be 'interior' or 'closure', got {over!r}")
    return float(np.sum(f.interior_values if over == "interior" else f.values))


def linear_energy_eval(system, u) -> float:
    """Variational functional F(u) = 1/2 int |grad u|^2 + 1/2 int K u^2 + int v u.

    u holds the interior values of a field that vanishes on the boundary; K
    (a scalar) and v are the system's.  Solutions of (L - K) u = v with zero
    boundary data are exactly the minimizers of F over such fields.
    """
    dom = system.domain
    if np.ndim(system.K):
        raise ValueError("linear_energy_eval needs a system with a scalar K")
    if np.shape(u) != (dom.n_interior,):
        raise ValueError(f"u needs {dom.n_interior} interior values, got {np.shape(u)}")
    return (0.5 * grad_energy(Field.from_interior(dom, u)) + 0.5 * system.K * float(np.dot(u, u))
            + float(np.dot(system.rhs, u)))


def reference_field_csv(f) -> bytes:
    """The field CSV formatted one value at a time with Python's %."""
    dom = f.domain
    row = ",".join(["%d"] * (dom.dim + 1) + ["%.17g"]) + "\n"
    header = ",".join([f"x{i + 1}" for i in range(dom.dim)] + ["d", "f"]) + "\n"
    columns = [*dom.coords.T.tolist(), dom.distances.tolist(), f.values.tolist()]
    return (header + "".join(map(row.__mod__, zip(*columns)))).encode()


def assert_field_csv_exact(path, values):
    """write_field_csv of values, repeated to fill a ball's closure in Z^2,
    equals the reference."""
    dom = build_domain(2, math.isqrt(len(values) // 2) + 1)
    f = Field(dom, np.resize(np.asarray(values, dtype=float), dom.n_closure))
    write_field_csv(path, f)
    assert path.read_bytes() == reference_field_csv(f)
