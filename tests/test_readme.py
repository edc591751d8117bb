"""The README's code examples run as written."""

import re
from pathlib import Path

from cslattice.cli import DEFAULTS, REQUIRED

README = Path(__file__).resolve().parents[1] / "README.md"


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
    section = README.read_text().split("### Configuration\n", 1)[1].split("\n#", 1)[0]
    first_cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    keys = {key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)}
    assert keys == set(REQUIRED) | set(DEFAULTS)
