"""Correctness gate for the benchmark's outputs.

Every check returns a list of problems ``(unit, message)``.  ``unit`` is
the replicate (or field) index a problem belongs to, or ``None`` when it
condemns the whole output; ``failed_units`` turns problems into failed
units.

Row checks read the JSON report, whose numbers are typed.  The CSV
replicate file must hold the same rows in the same order; whether its
cells are well-formed numbers is counted by ``malformed_cells`` and
reported without gating (see perfbench/README.md).
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# row order and summary cells of the runner's reports
ROW_KEYS = {
    "isotropy": ("replicate", "tau_r", "n1", "n2", "b1", "b2", "method"),
    "coverage": ("replicate", "n1", "n2", "b1", "b2", "method"),
}
CELL_KEYS = {
    "isotropy": ("method", "tau_r", "n1", "n2", "b1", "b2"),
    "coverage": ("method", "n1", "n2", "b1", "b2"),
}
FLAG = {"isotropy": "reject", "coverage": "covered"}
BOOT_METHODS = frozenset({"fdwb", "hfdb", "hfdb_bias"})


def _csv_rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _cell_text(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def summarize(kind: str, rows: list[dict]) -> list[dict]:
    """The summary rows the runner must report for these replicate rows."""
    keys = CELL_KEYS[kind]
    cells: dict[tuple, list[int]] = {}
    for row in rows:
        cells.setdefault(tuple(row[k] for k in keys), []).append(row[FLAG[kind]])
    out = []
    for cell in sorted(cells):
        flags = cells[cell]
        p = sum(flags) / len(flags)
        out.append(dict(zip(keys, cell), proportion=p,
                        mc_se=math.sqrt(p * (1.0 - p) / len(flags)),
                        replicates=len(flags)))
    return out


def summary_csv(rows: list[dict]) -> str:
    lines = [",".join(rows[0])] if rows else []
    lines += [",".join(_cell_text(v) for v in row.values()) for row in rows]
    return "".join(line + "\n" for line in lines)


def replicate_rows(files: dict[str, bytes]) -> list[dict]:
    return json.loads(files[".json"])["replicates"]


def check_report(kind: str, files: dict[str, bytes]) -> list:
    """Check one emitted report: ``_summary.csv``, ``_replicates.csv`` and
    ``.json`` contents keyed by suffix."""
    try:
        payload = json.loads(files[".json"])
        rows, summary = payload["replicates"], payload["summary"]
        csv_rows = _csv_rows(files["_replicates.csv"])
        summary_text = files["_summary.csv"].decode()
        order = [tuple(r[k] for k in ROW_KEYS[kind]) for r in rows]
    except (KeyError, ValueError, TypeError) as exc:
        return [(None, f"unreadable report: {exc!r}")]
    problems = []
    if order != sorted(order):
        problems.append((None, "replicate rows are out of the runner's order"))
    keys = ("replicate", "method")
    if [tuple(str(r[k]) for k in keys) for r in rows] != \
            [tuple(r.get(k) for k in keys) for r in csv_rows]:
        problems.append((None, "csv and json replicate rows differ"))
    expected = summarize(kind, rows)
    if summary != expected or summary_text != summary_csv(expected):
        problems.append((None, "summary differs from its recomputation"))
    for row in rows:
        problems += [(row["replicate"], msg) for msg in _row_problems(kind, row)]
    return problems


def _row_problems(kind: str, row: dict) -> list[str]:
    out = []
    var_star = row["var_star"]
    if row["method"] in BOOT_METHODS and not (
            isinstance(var_star, float) and math.isfinite(var_star)
            and var_star > 0.0):
        out.append(f"var_star {var_star!r} is not finite and > 0")
    if kind == "isotropy" and not 0.0 <= row["p_value"] <= 1.0:
        out.append(f"p_value {row['p_value']!r} outside [0, 1]")
    if kind == "coverage" and not row["lower"] <= row["upper"]:
        out.append(f"interval ({row['lower']!r}, {row['upper']!r}) has lower > upper")
    return out


def malformed_cells(data: bytes) -> int:
    """Cells of a replicate CSV, other than ``method``, that are not numbers."""
    bad = 0
    for row in _csv_rows(data):
        for key, text in row.items():
            if key == "method":
                continue
            try:
                float(text)
            except (TypeError, ValueError):
                bad += 1
    return bad


def compare_reports(files_a: dict[str, bytes], files_b: dict[str, bytes]) -> list:
    """Reports of one seed must be byte-identical at any worker count."""
    return [(None, f"{suffix} differs between runs of one seed")
            for suffix in sorted(set(files_a) | set(files_b))
            if files_a.get(suffix) != files_b.get(suffix)]


def check_field(res) -> list:
    """Checks on one analysed field (a ``workloads.FieldAnalysis``)."""
    d = res.draws
    out = []
    if not 0.0 <= res.p_value <= 1.0:
        out.append(f"p_value {res.p_value!r} outside [0, 1]")
    if not (math.isfinite(d.var_star) and d.var_star > 0.0):
        out.append(f"var_star {d.var_star!r} is not finite and > 0")
    if not res.lower <= res.upper:
        out.append(f"interval ({res.lower!r}, {res.upper!r}) has lower > upper")
    if d.recorded_total_var != d.var_star + d.sigma2_floored:
        out.append("recorded_total_var != var_star + sigma2_floored")
    return [(res.index, msg) for msg in out]


def check_bias_shift(bias_draws, plain_draws, index: int) -> list:
    """hfdb_bias draws are the hfdb draws of the same seed plus bias_sub."""
    if np.array_equal(bias_draws.values, plain_draws.values + bias_draws.bias_sub):
        return []
    return [(index, "hfdb_bias draws != hfdb draws + bias_sub")]


def failed_units(problems: list, units: list) -> set:
    """Units condemned by ``problems``; ``None`` condemns all of ``units``."""
    if any(unit is None for unit, _ in problems):
        return set(units)
    return {unit for unit, _ in problems} & set(units)
