"""Independent check of one CLI call's outputs.

The field check reads the largest-radius field CSV and rebuilds the lattice
Laplacian from the coordinates alone, without calling into ``cslattice``.
It holds the field to the program's own terminal-residual contract
(interior residual sup at most 100 * tol_nonlinear) and to the sign of the
maximal solution (f <= 0, up to tol_nonlinear), and checks that the file
covers exactly the closed Manhattan ball with zero Dirichlet data.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

FOUR_PI = 4.0 * math.pi
EXIT_CHECK_FAILED = 1  # the CLI's exit code when one of its own checks fails


class Failure(NamedTuple):
    """One failed check.  source is "program" for the program's own verdict
    (exit code, report.json checks) and "output" for this module's checks."""

    source: str
    name: str
    value: float
    threshold: float


def ball_size(n: int, radius: int) -> int:
    """Number of points of Z^n with Manhattan norm <= radius."""
    return sum(2**k * math.comb(n, k) * math.comb(radius, k) for k in range(n + 1))


def field_failures(path: Path, cfg: dict) -> list[tuple[str, float, float]]:
    """(check, value, threshold) for every way the field CSV breaks the contract."""
    n, radius = cfg["dimension"], cfg["radii"][-1]
    if not path.is_file():
        return [("field_csv", 0.0, 1.0)]
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    if header != [f"x{i + 1}" for i in range(n)] + ["d", "f"]:
        return [("field_csv_header", 0.0, 1.0)]
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError:
        return [("field_csv_parse", 0.0, 1.0)]
    coords = data[:, :n].astype(np.int64)
    dist, f = data[:, n], data[:, n + 1]
    norms = np.abs(coords).sum(axis=1)

    fails = []
    n_bad_d = int(np.count_nonzero(norms != dist))
    if n_bad_d:
        fails.append(("field_csv_distance", float(n_bad_d), 0.0))
    # Encode each point of the closure (norm <= R + 1) as one integer key.
    base = 2 * radius + 3
    weights = base ** np.arange(n, dtype=np.int64)
    keys = (coords + radius + 1) @ weights
    order = np.argsort(keys)
    sorted_keys = keys[order]
    closure = ball_size(n, radius + 1)
    if (len(keys) != closure or norms.max() > radius + 1
            or np.any(sorted_keys[1:] == sorted_keys[:-1])):
        fails.append(("field_csv_points", float(len(keys)), float(closure)))
        return fails

    boundary = norms == radius + 1
    boundary_sup = float(np.max(np.abs(f[boundary])))
    if boundary_sup != 0.0:
        fails.append(("field_boundary_zero", boundary_sup, 0.0))

    interior = np.flatnonzero(norms <= radius)
    lap = np.zeros(len(interior))
    for axis in range(n):
        for step in (-1, 1):
            nbr = sorted_keys.searchsorted(keys[interior] + step * weights[axis])
            lap += f[order[nbr]] - f[interior]
    g = np.zeros(len(keys))
    for v in cfg["vortices"]:
        g[order[sorted_keys.searchsorted(
            (np.array(v["point"]) + radius + 1) @ weights)]] += FOUR_PI * v["multiplicity"]
    fi = f[interior]
    nonlin = cfg["lambda"] * np.exp(fi) * np.expm1(cfg["a"] * fi)
    res_sup = float(np.max(np.abs(lap - nonlin - g[interior])))
    limit = 100.0 * cfg["tol_nonlinear"]
    if not res_sup <= limit:
        fails.append(("field_residual_sup", res_sup, limit))
    # The maximal solution is nonpositive; iterates carry roundoff far below
    # the solve tolerance (a 1.2e-24 excursion was seen at R = 80), so a value
    # above tol_nonlinear is a real sign error, not roundoff.
    f_max = float(np.max(f))
    if not f_max <= cfg["tol_nonlinear"]:
        fails.append(("field_sign", f_max, cfg["tol_nonlinear"]))
    return fails


def operation_failures(command: str, cfg: dict, rc: int, out_dir: Path) -> list[Failure]:
    """Every failed check of one call: the program's verdict and the outputs' contract."""
    fails = []
    try:
        report = json.loads((out_dir / "report.json").read_text())
    except (OSError, ValueError):
        report = None
        fails.append(Failure("output", "report_json", 0.0, 1.0))
    else:
        for c in report.get("checks", []):
            if not c["passed"]:
                fails.append(Failure("program", c["name"], c.get("value", math.nan),
                                     c.get("threshold", math.nan)))
        if report.get("all_checks_passed") is not True and not fails:
            fails.append(Failure("program", "all_checks_passed", 0.0, 1.0))
    # Exit code 1 with failed checks in the report is the verdict on those
    # checks, already recorded; any other nonzero exit is a failure of its own.
    if rc != 0 and not (rc == EXIT_CHECK_FAILED and fails and report is not None):
        fails.append(Failure("program", "exit_code", float(rc), 0.0))
    if command in ("solve", "exhaust"):
        name = f"field_R{cfg['radii'][-1]}.csv" if command == "exhaust" else "field.csv"
        fails.extend(Failure("output", *f) for f in field_failures(out_dir / name, cfg))
    return fails
