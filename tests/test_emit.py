"""CSV emission: the writer, on row blocks and on field grids, against the
per-value formatting it replaced, format checks and atomic writes."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import squidsim as sq
from squidsim import ConfigError
from squidsim.scenarios import (CSV_BLOCK_ROWS, FLOAT_FMT, _grid_axes,
                                _write_atomic)

SPECIAL_VALUES = (np.nan, np.inf, -np.inf, -0.0, 1e-300, 5e-324, 1e17)
ROW_COUNTS = (0, 1, 2, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1)


def _reference_csv(columns, rows):
    """One FLOAT_FMT call per value, rows joined by newlines."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    lines = [",".join(columns)]
    lines += [",".join(FLOAT_FMT % v for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _emitted_csv(columns, rows):
    dataset = sq.Dataset("t", {"t.csv": (columns, rows)}, {"scenario": "t"})
    with tempfile.TemporaryDirectory() as out:
        sq.emit_dataset(dataset, out)
        with open(os.path.join(out, "t.csv"), "rb") as fh:
            return fh.read()


def _plant(draw, rng, array, max_size):
    """Overwrite random entries of `array` with drawn special values."""
    if array.size:
        for value in draw(st.lists(st.sampled_from(SPECIAL_VALUES),
                                   max_size=max_size)):
            array.flat[int(rng.integers(array.size))] = value


@st.composite
def tables(draw):
    """(columns, rows, None): 1-5 columns, row counts around one block,
    random normals with special values planted, or a 1-D row.  None: either
    writer path may take the table."""
    ncols = draw(st.integers(1, 5))
    columns = [f"c{k}" for k in range(ncols)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return columns, rng.normal(size=ncols), None
    rows = rng.normal(size=(draw(st.sampled_from(ROW_COUNTS)), ncols))
    _plant(draw, rng, rows, 12)
    return columns, rows, None


def _grid_rows(x, p, values):
    """Rows in the layout of a field table: x repeated, p tiled, values."""
    return np.column_stack([np.repeat(x, len(p)), np.tile(p, len(x)),
                            values.reshape(len(x) * len(p), -1)])


NEAR_GRID_DEFECTS = ("ulp", "signed zero", "ragged")


@st.composite
def grid_tables(draw):
    """(columns, rows, is_grid) in the layout of a Wigner (1 value column)
    or Weyl (3) table.  A grid has axes of 1-30 points, special values
    planted in the axes and the values, and takes the grid path.  A
    near-grid has distinct axes of at least 2 points and one defect, and
    takes the row path: an axis entry off by one ulp in one row, -0.0 in
    one row where the others have 0.0, or the last row dropped, so the row
    count is no multiple of the p length."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nvalues = draw(st.sampled_from((1, 3)))
    columns = (["x", "p", "value"] if nvalues == 1
               else ["X", "P", "abs", "re", "im"])
    defect = draw(st.sampled_from((None,) + NEAR_GRID_DEFECTS))
    low = 1 if defect is None else 2
    x = rng.normal(size=draw(st.integers(low, 30)))
    p = rng.normal(size=draw(st.integers(low, 30)))
    values = rng.normal(size=(len(x), len(p), nvalues))
    _plant(draw, rng, values, 6)
    if defect is None:
        _plant(draw, rng, x, 3)
        _plant(draw, rng, p, 3)
        return columns, _grid_rows(x, p, values), True
    col = draw(st.integers(0, 1))
    if defect == "signed zero":
        axis = (x, p)[col]
        axis[rng.integers(len(axis))] = 0.0
    rows = _grid_rows(x, p, values)
    if defect == "ragged":
        return columns, rows[:-1], False
    row = int(rng.choice(np.flatnonzero(rows[:, col] == 0.0))
              if defect == "signed zero" else rng.integers(len(rows)))
    rows[row, col] = (-0.0 if defect == "signed zero"
                      else np.nextafter(rows[row, col], np.inf))
    return columns, rows, False


def _boundary_table():
    """Every special value in the first row and on both sides of the first
    block boundary."""
    rows = np.random.default_rng(1).normal(size=(CSV_BLOCK_ROWS + 1, 7))
    for r in (0, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS):
        rows[r] = SPECIAL_VALUES
    return [f"c{k}" for k in range(7)], rows, None


def _line_grid(nx, np_):
    """An nx-by-np_ Weyl grid whose axes and values hold every special
    value."""
    rng = np.random.default_rng(2)
    x, p = rng.normal(size=nx), rng.normal(size=np_)
    values = rng.normal(size=(nx, np_, 3))
    values.flat[:len(SPECIAL_VALUES)] = SPECIAL_VALUES
    line = x if nx > 1 else p
    line[:len(SPECIAL_VALUES)] = SPECIAL_VALUES
    return ["X", "P", "abs", "re", "im"], _grid_rows(x, p, values), True


@settings(max_examples=60, deadline=None)
@given(st.one_of(tables(), grid_tables()))
@example(_boundary_table())
@example(_line_grid(1, 9))
@example(_line_grid(9, 1))
def test_block_writer_matches_per_value_formatting(table):
    columns, rows, is_grid = table
    if is_grid is not None:
        assert (_grid_axes(np.atleast_2d(rows)) is not None) == is_grid
    assert _emitted_csv(columns, rows) == _reference_csv(columns, rows)


def test_scenario_field_tables_match_per_value_formatting(tmp_path):
    """A Wigner and a Weyl table from run_scenario take the grid path to
    the bytes of per-value formatting; the json-bundle keeps their rows."""
    small = {"run.dim": "40", "grid.x_min": "-10", "grid.x_max": "10",
             "grid.x_points": "81", "grid.p_min": "-10", "grid.p_max": "10",
             "grid.p_points": "41"}
    for name in ("wigner", "weyl"):
        dataset = sq.run_scenario(sq.builtin_scenario(name, small))
        columns, rows = dataset.tables[f"{name}.csv"]
        assert _grid_axes(rows) is not None
        sq.emit_dataset(dataset, tmp_path / "csv")
        assert ((tmp_path / "csv" / f"{name}.csv").read_bytes()
                == _reference_csv(columns, rows))
        (bundle,) = sq.emit_dataset(dataset, tmp_path / "json", "json-bundle")
        with open(bundle) as fh:
            table = json.load(fh)["tables"][f"{name}.csv"]
        assert table == {"columns": columns, "rows": rows.tolist()}


def test_failure_mid_stream_leaves_no_file(tmp_path):
    path = tmp_path / "t.csv"

    def chunks():
        yield "a,b\n"
        yield "1,2\n"
        raise ValueError("formatter broke")

    with pytest.raises(ValueError, match="formatter broke"):
        _write_atomic(str(path), chunks())
    assert os.listdir(tmp_path) == []


def test_unknown_format_creates_no_directory(tmp_path):
    dataset = sq.Dataset("t", {"t.csv": (["a"], np.zeros((2, 1)))},
                         {"scenario": "t"})
    out = tmp_path / "new"
    with pytest.raises(ConfigError):
        sq.emit_dataset(dataset, out, fmt="xml")
    assert not out.exists()
