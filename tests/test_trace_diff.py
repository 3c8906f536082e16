"""``tools/trace_diff.py`` on two small trace CSVs, loaded by path."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "trace_diff.py"

HEADER = "k,x_lo1,x_hi1,z_lo1,z_hi1,resid_hi,resid_lo,width_x"
ROWS_A = ["0,-1,1,-2,2,0,0,2",
          "1,-0.5,0.5,-1,1,1e-09,2e-09,1",
          "2,-0.25,0.25,-0.5,0.5,4e-09,0,0.5"]


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
    rows_b[1] = "1,-0.5000003,0.5,-1,1,1.5e-09,2e-09,1.0000003"
    rows_b[2] = "2,-0.25,0.25001,-0.5,0.5,4e-09,0,0.50001"
    a = _write(tmp_path / "a.csv", ROWS_A)
    b = _write(tmp_path / "b.csv", rows_b)
    d = tool.trace_diff(a, b)
    assert d["rows"] == 3 and d["differ_k"] == [1, 2]
    assert d["max_abs_x_bounds"] == pytest.approx(1e-5, rel=1e-6)
    assert d["max_abs_z_bounds"] == 0.0
    assert d["max_rel_resid"] == pytest.approx(1.0 / 3.0)
    assert d["width_x_median"] == (1.0, 1.0000003)
    assert tool.main([a, b]) == 1
    out = capsys.readouterr().out
    assert "rows that differ: 2 of 3 (k = 1, 2)" in out
    assert "width_x median: 1 (A)  1.0000003 (B)" in out


def test_trace_diff_equal_and_incomparable(tool, tmp_path, capsys):
    a = _write(tmp_path / "a.csv", ROWS_A)
    assert tool.main([a, _write(tmp_path / "same.csv", ROWS_A)]) == 0
    assert "rows that differ: 0 of 3" in capsys.readouterr().out
    assert tool.main([a, _write(tmp_path / "short.csv", ROWS_A[:2])]) == 2
    other = _write(tmp_path / "other.csv", ROWS_A, header=HEADER.replace("width_x", "w"))
    assert tool.main([a, other]) == 2
    assert tool.main([a]) == 2
