"""Compare two kklio trace CSVs and report the size of the number change.

    python3 tools/trace_diff.py A.csv B.csv

Both files must have the same header and the same number of rows, as two
runs of one configuration do. Prints the rows that differ (by ``k``, the
first ten listed and the rest counted), the
largest absolute change of the state bounds (``x_lo*``/``x_hi*``) and of the
target bounds (``z_lo*``/``z_hi*``), the largest relative change of the
inversion residuals (``resid_hi``/``resid_lo``), each over the cells that
differ, so that equal infinite bounds count as no change, and for each file the median
``width_x`` and the informative fraction: the share of rows whose
``width_x`` is below ``INVARIANT_WIDTH``, the width of the demo plant's
invariant box ``[-2, 2]^2``. Exit code 0 when the files hold equal numbers,
1 when they differ, 2 when they cannot be compared.
"""

from __future__ import annotations

import sys

import numpy as np

INVARIANT_WIDTH = 4.0


def _load(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _cols(header: list[str], *prefixes: str) -> list[int]:
    return [i for i, name in enumerate(header) if name.startswith(prefixes)]


def _differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cells that differ; NaN equals NaN, and an infinite bound its own sign."""
    return ~((a == b) | (np.isnan(a) & np.isnan(b)))


def _max_abs(a: np.ndarray, b: np.ndarray) -> float:
    # only cells that differ: equal infinite bounds would give inf - inf = nan
    differ = _differ(a, b)
    return float(np.max(np.abs(a[differ] - b[differ]), initial=0.0))


def trace_diff(path_a: str, path_b: str) -> dict:
    """Sizes of the differences between two trace CSVs of one configuration."""
    head_a, a = _load(path_a)
    head_b, b = _load(path_b)
    if head_a != head_b:
        raise ValueError("the files have different headers")
    if a.shape != b.shape:
        raise ValueError(f"the files have {len(a)} and {len(b)} rows")
    differ = _differ(a, b).any(axis=1)
    k = a[:, head_a.index("k")]
    x_cols = _cols(head_a, "x_lo", "x_hi")
    z_cols = _cols(head_a, "z_lo", "z_hi")
    r_cols = _cols(head_a, "resid_hi", "resid_lo")
    r_differ = _differ(a[:, r_cols], b[:, r_cols])
    ra, rb = a[:, r_cols][r_differ], b[:, r_cols][r_differ]
    scale = np.maximum(np.abs(ra), np.abs(rb))
    rel = np.divide(np.abs(ra - rb), scale, out=np.zeros_like(scale), where=scale > 0)
    w = head_a.index("width_x")
    return {
        "rows": len(a),
        "differ_k": [int(v) for v in k[differ]],
        "max_abs_x_bounds": _max_abs(a[:, x_cols], b[:, x_cols]),
        "max_abs_z_bounds": _max_abs(a[:, z_cols], b[:, z_cols]),
        "max_rel_resid": float(np.max(rel, initial=0.0)),
        "width_x_median": (float(np.median(a[:, w])), float(np.median(b[:, w]))),
        "informative_frac": (float(np.mean(a[:, w] < INVARIANT_WIDTH)),
                             float(np.mean(b[:, w] < INVARIANT_WIDTH))),
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: trace_diff.py A.csv B.csv", file=sys.stderr)
        return 2
    try:
        d = trace_diff(*args)
    except (OSError, ValueError) as exc:
        print(f"cannot compare: {exc}", file=sys.stderr)
        return 2
    ks = d["differ_k"]
    listed = ", ".join(str(v) for v in ks[:10])
    if len(ks) > 10:
        listed += f", ... ({len(ks) - 10} more)"
    print(f"rows that differ: {len(ks)} of {d['rows']}" + (f" (k = {listed})" if ks else ""))
    print(f"max |delta| x_lo/x_hi: {d['max_abs_x_bounds']:.3g}")
    print(f"max |delta| z_lo/z_hi: {d['max_abs_z_bounds']:.3g}")
    print(f"max relative delta resid_hi/resid_lo: {d['max_rel_resid']:.3g}")
    med_a, med_b = d["width_x_median"]
    print(f"width_x median: {med_a:.17g} (A)  {med_b:.17g} (B)")
    inf_a, inf_b = d["informative_frac"]
    print(f"informative fraction (width_x < {INVARIANT_WIDTH:g}): {inf_a:.6g} (A)  {inf_b:.6g} (B)")
    return 1 if ks else 0


if __name__ == "__main__":
    raise SystemExit(main())
