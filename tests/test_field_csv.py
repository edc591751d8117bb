"""Property test of write_field_csv: its numpy-computed "%.17g" text equals
Python's for any finite floats.  The edge values and a solved 4D field are
in test_cli.py::TestFieldCsvExact."""

import pytest

from conftest import assert_field_csv_exact

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=1, max_size=85))
def test_any_finite_values(values, tmp_path_factory):
    assert_field_csv_exact(tmp_path_factory.getbasetemp() / "property.csv", values)
