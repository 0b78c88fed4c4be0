"""Correctness gate for sweep CSV output, applied row by row.

A row (one sweep cell) fails when its error column is set, when it breaks
an invariant the paper guarantees, or, for a sweep at a workload's
reference seed, when it differs from the reference CSV recorded from the
code that introduced the benchmark.  Integer and text columns must match
the reference exactly; float columns may differ by a relative REL_TOL,
which admits last-ulp drift from a reordered reduction and rejects a J
or a size that moved.
"""

import copy
import csv
import io
import math

FLOAT_COLUMNS = frozenset(
    {"Delta", "thm_lhs", "thm_rhs", "ratio", "predicted_sizeA", "sizeA_over_predicted"})
REL_TOL = 1e-9


def parse_csv(text):
    """(header, rows) where rows are dicts of the raw cell text."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    return header, [dict(zip(header, values)) for values in reader]


def invariant_problems(row):
    """Invariants that hold for every row the sweep can emit."""
    problems = []
    if row.get("error"):
        problems.append(f"error column is {row['error']!r}")
    if row.get("J") and row.get("J_lower") and int(row["J"]) < int(row["J_lower"]):
        problems.append(f"J={row['J']} below J_lower={row['J_lower']}")
    if row.get("sizeT") and row.get("sizeH") and int(row["sizeT"]) < -(-int(row["sizeH"]) // 2):
        problems.append(f"sizeT={row['sizeT']} below ceil(sizeH/2), sizeH={row['sizeH']}")
    if row.get("ratio") and row.get("thm_lhs") and row.get("thm_rhs"):
        expected = float(row["thm_lhs"]) / float(row["thm_rhs"])
        if not math.isclose(float(row["ratio"]), expected, rel_tol=1e-12):
            problems.append(f"ratio={row['ratio']} is not thm_lhs/thm_rhs={expected!r}")
    return problems


def reference_problems(row, ref):
    problems = []
    for column, want in ref.items():
        got = row.get(column)
        if column in FLOAT_COLUMNS and got and want:
            if not math.isclose(float(got), float(want), rel_tol=REL_TOL, abs_tol=0.0):
                problems.append(f"{column}={got}, reference {want}")
        elif got != want:
            problems.append(f"{column}={got!r}, reference {want!r}")
    return problems


def check_sweep(text, expected_cells, reference=None):
    """Failed-cell report for one sweep's CSV text.

    expected_cells is the number of cells the config defines; rows that
    are missing count as failed.  With reference=(header, rows) every row
    is also compared with the reference row of the same position.
    Returns {"failed": int, "problems": [str, ...]}.
    """
    header, rows = parse_csv(text)
    problems = []
    if reference is not None and header != reference[0]:
        return {"failed": expected_cells, "problems": [f"CSV header differs: {header}"]}
    failed = 0
    for i, row in enumerate(rows):
        try:
            found = invariant_problems(row)
            if reference is not None:
                if i < len(reference[1]):
                    found += reference_problems(row, reference[1][i])
                else:
                    found.append("row beyond the reference")
        except ValueError as exc:
            found = [f"unparseable cell: {exc}"]
        if found:
            failed += 1
            problems.append(f"row {i} (experiment_id {row.get('experiment_id')}): "
                            + "; ".join(found))
    missing = max(0, expected_cells - len(rows))
    if missing:
        problems.append(f"{missing} of {expected_cells} cells have no row")
    return {"failed": min(expected_cells, failed + missing), "problems": problems}


def _render(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([row[name] for name in header])
    return buf.getvalue()


def self_test(name, reference_text):
    """Show that the gate catches a wrong integer and a drifted float.

    The reference must pass against itself.  A copy of it with one J (or,
    where the mode has no J, the point count N) off by one, and a
    copy with one float moved by 1e-6 relative, must each fail a cell
    when the true rows are checked against them.  Returns problems found
    with the gate itself.
    """
    header, rows = parse_csv(reference_text)
    problems = []
    clean = check_sweep(reference_text, len(rows), (header, rows))
    if clean["failed"]:
        problems.append(f"{name}: reference fails its own gate: {clean['problems'][:3]}")
    first = rows[0]
    int_column = "J" if first.get("J") else "N"
    float_column = next((c for c in header if c in FLOAT_COLUMNS and first.get(c)), None)
    mutations = [(int_column, str(int(first[int_column]) + 1))]
    if float_column is not None:
        mutations.append((float_column, repr(float(first[float_column]) * (1 + 1e-6))))
    for column, value in mutations:
        bad = copy.deepcopy(rows)
        bad[0][column] = value
        if check_sweep(reference_text, len(rows), (header, bad))["failed"] != 1:
            problems.append(f"{name}: gate missed {column} changed to {value}")
        if check_sweep(_render(header, bad), len(rows), (header, rows))["failed"] != 1:
            problems.append(f"{name}: gate missed a row with {column} = {value}")
    return problems
