"""Every number the library takes is checked by lattice.validate_int or
lattice.validate_float: a bool, a numeric string, NaN, +-inf or a value out
of range raises ValueError naming the parameter, and a numpy scalar in
range passes.  linear_solve's x0 is an array, whose entries a bool or a
numeric string would enter as valid floats; its shape and finiteness checks
are in test_linear.py::test_start_validated_by_name.  fields.norm's p may be
inf, so its checks have tests of their own at the end."""

import functools
import math
import re

import numpy as np
import pytest

from cslattice import (
    Field,
    LinearSystem,
    Params,
    VortexConfig,
    barrier_check,
    barrier_constant,
    build_domain,
    coercivity_check,
    decay_fit,
    decay_rate_sharp,
    decay_rate_theory,
    linear_solve,
    norm,
    newton_solve,
    ball_size,
    shell_size,
    solve_bounded,
)
from cslattice.exhaustion import validate_radii

from conftest import problem_on

ONE_VORTEX = VortexConfig([((0, 0), 1)])
PARAMS = Params(1.0, 1.0)
DOM = build_domain(2, 3)
RHS = np.ones(DOM.n_interior)


@functools.cache
def _solution():
    return solve_bounded(problem_on(build_domain(2, 8)))


# parameter id: (call with the value, the name its error starts with, a value
# out of range, a numpy value in range)
INPUTS = {
    "build_domain.dimension": (lambda v: build_domain(v, 2), "dimension", 1, np.int64(2)),
    "build_domain.radius": (lambda v: build_domain(2, v), "radius", -1, np.int32(2)),
    "VortexConfig.multiplicity": (lambda v: VortexConfig([((0, 0), v)]),
                                  "vortices[0].multiplicity", 0, np.int64(2)),
    "Params.lam": (lambda v: Params(v, 1.0), "lambda", 0.0, np.float64(2.0)),
    "Params.a": (lambda v: Params(1.0, v), "a", -1.0, np.float32(0.5)),
    "Params.K": (lambda v: Params(1.0, 1.0, v), "K", 1.0, np.float64(3.0)),
    "shell_size.n": (lambda v: shell_size(v, 3), "n", 0, np.int64(2)),
    "shell_size.d": (lambda v: shell_size(2, v), "d", -1, np.int64(3)),
    "ball_size.n": (lambda v: ball_size(v, 3), "n", 0, np.int64(2)),
    "ball_size.radius": (lambda v: ball_size(2, v), "radius", -1, np.int32(3)),
    "LinearSystem.K": (lambda v: LinearSystem(DOM, v, RHS), "K", 0.0, np.float32(2.0)),
    "linear_solve.tol_rel": (lambda v: linear_solve(LinearSystem(DOM, 1.0, RHS), v),
                             "tol_rel", 0.0, np.float64(0.5)),
    "solve_bounded.tol_nonlinear": (lambda v: solve_bounded(problem_on(DOM), v),
                                    "tol_nonlinear", 0.0, np.float64(1e-10)),
    "solve_bounded.max_steps": (lambda v: solve_bounded(problem_on(DOM), max_steps=v),
                                "max_steps", 0, np.int64(50)),
    "newton_solve.tol": (lambda v: newton_solve(Field.zeros(DOM), problem_on(DOM), v),
                         "tol", 0.0, np.float64(1e-10)),
    "validate_radii.radii": (lambda v: validate_radii([v, 6], ONE_VORTEX), "radii[0]", -1,
                             np.int64(2)),
    "barrier_check.epsilon": (lambda v: barrier_check(2, PARAMS, v), "epsilon", 1.0,
                              np.float32(0.5)),
    "decay_fit.epsilon": (lambda v: decay_fit(_solution(), v), "epsilon", 0.0,
                          np.float64(0.1)),
    "coercivity_check.a": (lambda v: coercivity_check(v), "a", 0.0, np.float64(2.0)),
    "decay_rate_sharp.c": (lambda v: decay_rate_sharp(v, 2), "c", 0.0, np.float32(1.0)),
    "decay_rate_sharp.n": (lambda v: decay_rate_sharp(1.0, v), "dimension", 1, np.int64(3)),
    "decay_rate_theory.n": (lambda v: decay_rate_theory(PARAMS, v), "dimension", 1, np.int64(3)),
    "barrier_constant.n": (lambda v: barrier_constant(PARAMS, v, 0.1), "dimension", 1,
                           np.int32(2)),
    "barrier_constant.epsilon": (lambda v: barrier_constant(PARAMS, 2, v), "epsilon", 1.0,
                                 np.float32(0.5)),
}
BAD = {"True": True, "string": "1", "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
       "out_of_range": None}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("param", INPUTS)
def test_bad_number_raises_naming_it(param, bad):
    call, name, out_of_range, _ = INPUTS[param]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)}(?!\w)"):
        call(out_of_range if BAD[bad] is None else BAD[bad])


@pytest.mark.parametrize("param", INPUTS)
def test_numpy_value_in_range_passes(param):
    call, _, _, good = INPUTS[param]
    call(good)


# p = inf is valid, so p cannot join INPUTS, whose bad values include inf
@pytest.mark.parametrize("bad", [True, "2", math.nan, -math.inf, 0.5])
def test_norm_p_rejected_naming_it(bad):
    with pytest.raises(ValueError, match=r"^p must"):
        norm(Field.zeros(DOM), bad)


def test_norm_p_accepts_one_to_inf():
    f = Field.from_interior(DOM, RHS)
    for p in (1, 2, np.float64(2), math.inf):
        assert norm(f, p) == pytest.approx(DOM.n_interior ** (1 / p), rel=1e-15)
