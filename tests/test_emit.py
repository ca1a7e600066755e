"""CSV emission: the block writer against the per-value formatting it
replaced, format checks and atomic writes."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import squidsim as sq
from squidsim import ConfigError
from squidsim.scenarios import CSV_BLOCK_ROWS, FLOAT_FMT, _write_atomic

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


@st.composite
def tables(draw):
    """(columns, rows): 1-5 columns, row counts around one block, random
    normals with special values planted, or a 1-D row."""
    ncols = draw(st.integers(1, 5))
    columns = [f"c{k}" for k in range(ncols)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return columns, rng.normal(size=ncols)
    rows = rng.normal(size=(draw(st.sampled_from(ROW_COUNTS)), ncols))
    if rows.size:
        for value in draw(st.lists(st.sampled_from(SPECIAL_VALUES),
                                   max_size=12)):
            rows.flat[int(rng.integers(rows.size))] = value
    return columns, rows


def _boundary_table():
    """Every special value in the first row and on both sides of the first
    block boundary."""
    rows = np.random.default_rng(1).normal(size=(CSV_BLOCK_ROWS + 1, 7))
    for r in (0, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS):
        rows[r] = SPECIAL_VALUES
    return [f"c{k}" for k in range(7)], rows


@settings(max_examples=60, deadline=None)
@given(tables())
@example(_boundary_table())
def test_block_writer_matches_per_value_formatting(table):
    columns, rows = table
    assert _emitted_csv(columns, rows) == _reference_csv(columns, rows)


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
