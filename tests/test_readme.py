"""The README's code examples run as written."""

import json
import re
from pathlib import Path

from cslattice.cli import DEFAULTS, REQUIRED, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(heading: str) -> str:
    """The text of the README subsection with this heading, up to the next heading."""
    return README.read_text().split(f"### {heading}\n", 1)[1].split("\n#", 1)[0]


def _python_block(heading: str) -> str:
    """The first ```python block in the README section with this heading."""
    section = README.read_text().split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quickstart_runs(capsys):
    namespace: dict = {}
    exec(compile(_python_block("Library quickstart"), str(README), "exec"), namespace)
    assert namespace["sol"].certificate.bound <= 1e-10
    assert namespace["fit"].fitted_rate > 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_config_table_lists_exactly_the_config_keys():
    section = _section("Configuration")
    first_cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    keys = {key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)}
    assert keys == set(REQUIRED) | set(DEFAULTS)


def test_checks_table_names_exactly_the_emitted_checks(tmp_path):
    # A row whose check no command emits any more stays unnoticed otherwise.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dimension": 2, "lambda": 1.0, "a": 1.0,
        "vortices": [{"point": [0, 0], "multiplicity": 1}], "radii": [6, 12],
        "emit": {"field_csv": False, "trace_csv": False},
    }))
    emitted = set()
    for command in ("solve", "exhaust", "verify"):
        out = tmp_path / command
        main([command, str(config), "--output-dir", str(out), "--quiet"])
        checks = json.loads((out / "report.json").read_text())["checks"]
        emitted |= {re.sub(r"^R\d+\.", "", c["name"]) for c in checks}
    section = _section("Checks and their thresholds")
    assert emitted - set(re.findall(r"`([^`]+)`", section)) == set()
    # bounded_solve and decay_fit appear only when a solve or the fit fails
    emittable = emitted | {"bounded_solve", "decay_fit"}
    header, rule, *rows = [line for line in section.splitlines() if line.startswith("|")]
    assert header.startswith("| check") and rule.startswith("|---") and len(rows) > 10
    for row in rows:
        first_cell = re.split(r"(?<!\\)\|", row)[1]
        assert emittable & set(re.findall(r"`([^`]+)`", first_cell)), row
