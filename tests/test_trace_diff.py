"""``tools/trace_diff.py`` on two small trace CSVs, loaded by path."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "trace_diff.py"

HEADER = "k,x_lo1,x_hi1,z_lo1,z_hi1,resid_hi,resid_lo,width_x,width_z"
ROWS_A = ["0,-1,1,-2,2,0,0,2,4",
          "1,-0.5,0.5,-1,1,1e-09,2e-09,1,2",
          "2,-0.25,0.25,-0.5,0.5,4e-09,0,0.5,1"]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("trace_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path, rows, header=HEADER):
    path.write_text("\n".join([header] + rows) + "\n")
    return str(path)


def test_trace_diff_sizes(tool, tmp_path, capsys):
    rows_b = list(ROWS_A)
    rows_b[1] = "1,-0.5000003,0.5,-1,1,1.5e-09,2e-09,1.0000003,2"
    rows_b[2] = "2,-0.25,0.25001,-0.5,0.5,4e-09,0,0.50001,1"
    a = _write(tmp_path / "a.csv", ROWS_A)
    b = _write(tmp_path / "b.csv", rows_b)
    d = tool.trace_diff(a, b)
    assert d["rows"] == 3 and d["differ_k"] == [1, 2]
    assert d["max_abs_x_bounds"] == pytest.approx(1e-5, rel=1e-6)
    assert d["max_abs_z_bounds"] == 0.0
    assert d["max_rel_resid"] == pytest.approx(1.0 / 3.0)
    assert d["width_x_median"] == (1.0, 1.0000003)
    assert d["width_z_median"] == (2.0, 2.0)
    assert d["informative_frac"] == (1.0, 1.0)
    assert tool.main([a, b]) == 1
    out = capsys.readouterr().out
    assert "rows that differ: 2 of 3 (k = 1, 2)" in out
    assert "width_x median: 1 (A)  1.0000003 (B)" in out
    assert "width_z median: 2 (A)  2 (B)" in out
    assert "informative fraction (width_x < 4): 1 (A)  1 (B)" in out


def test_trace_diff_informative_fraction(tool, tmp_path, capsys):
    # rows at or above the invariant box width of 4 carry no information;
    # the threshold is strict
    rows_b = [ROWS_A[0], "1,-0.5,0.5,-1,1,1e-09,2e-09,4,2",
              "2,-0.25,0.25,-0.5,0.5,4e-09,0,381.5,1"]
    rows_c = [ROWS_A[0], "1,-0.5,0.5,-1,1,1e-09,2e-09,3.9999999,2", ROWS_A[2]]
    a = _write(tmp_path / "a.csv", ROWS_A)
    b = _write(tmp_path / "b.csv", rows_b)
    c = _write(tmp_path / "c.csv", rows_c)
    assert tool.trace_diff(b, a)["informative_frac"] == (pytest.approx(1 / 3), 1.0)
    assert tool.trace_diff(c, b)["informative_frac"] == (1.0, pytest.approx(1 / 3))
    assert tool.main([b, a]) == 1
    assert "informative fraction (width_x < 4): 0.333333 (A)  1 (B)" in capsys.readouterr().out


def test_trace_diff_width_z_median(tool, tmp_path, capsys):
    # narrower target bounds with the same state bounds: the z bounds and
    # their median width change, the x side reads no change
    rows_b = ["0,-1,1,-1.5,1.5,0,0,2,3",
              "1,-0.5,0.5,-0.625,0.625,1e-09,2e-09,1,1.25",
              "2,-0.25,0.25,-0.5,0.5,4e-09,0,0.5,1"]
    a = _write(tmp_path / "a.csv", ROWS_A)
    b = _write(tmp_path / "b.csv", rows_b)
    d = tool.trace_diff(a, b)
    assert d["differ_k"] == [0, 1] and d["max_abs_z_bounds"] == 0.5
    assert d["max_abs_x_bounds"] == 0.0 and d["width_x_median"] == (1.0, 1.0)
    assert d["width_z_median"] == (2.0, 1.25)
    assert tool.main([a, b]) == 1
    assert "width_z median: 2 (A)  1.25 (B)" in capsys.readouterr().out
    # both columns are needed
    no_z = _write(tmp_path / "no_z.csv", ROWS_A, header=HEADER.replace("width_z", "wz"))
    assert tool.main([no_z, no_z]) == 2


def test_trace_diff_equal_and_incomparable(tool, tmp_path, capsys):
    a = _write(tmp_path / "a.csv", ROWS_A)
    assert tool.main([a, _write(tmp_path / "same.csv", ROWS_A)]) == 0
    assert "rows that differ: 0 of 3" in capsys.readouterr().out
    assert tool.main([a, _write(tmp_path / "short.csv", ROWS_A[:2])]) == 2
    other = _write(tmp_path / "other.csv", ROWS_A, header=HEADER.replace("width_x", "w"))
    assert tool.main([a, other]) == 2
    assert tool.main([a]) == 2


def test_trace_diff_equal_infinite_bounds(tool, tmp_path, capsys):
    # a run that recovers an unbounded box writes +-inf bounds: equal cells
    # are no change, and a differing cell next to them is measured alone
    rows = [ROWS_A[0], "1,-inf,inf,-1,1,1e-09,2e-09,inf,2", ROWS_A[2]]
    a = _write(tmp_path / "a.csv", rows)
    d = tool.trace_diff(a, _write(tmp_path / "same.csv", rows))
    assert d["differ_k"] == [] and d["max_abs_x_bounds"] == 0.0 and d["max_rel_resid"] == 0.0
    assert tool.main([a, a]) == 0
    assert "max |delta| x_lo/x_hi: 0" in capsys.readouterr().out
    moved = [ROWS_A[0], "1,-inf,inf,-1,1,1e-09,2e-09,inf,2",
             "2,-0.25,0.5,-0.5,0.5,4e-09,0,0.75,1"]
    d = tool.trace_diff(a, _write(tmp_path / "moved.csv", moved))
    assert d["differ_k"] == [2] and d["max_abs_x_bounds"] == 0.25
    # an infinite bound against a finite one is an infinite change
    opened = [ROWS_A[0], ROWS_A[1], "2,-inf,0.25,-0.5,0.5,4e-09,0,inf,1"]
    assert tool.trace_diff(_write(tmp_path / "open.csv", opened), a)["max_abs_x_bounds"] == np.inf
