"""Correctness gate applied to every scenario the benchmark runs.

The expected CSV schema and the value bounds are derived here, from the
workload, not read from the program, so a defect in the program's own
column or bound logic cannot hide itself. Every check returns a result;
a check that cannot be evaluated (missing file, unparsable value) fails.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Workload

_RES_COLUMN = re.compile(r"res_([fa])_(\d+)")


@dataclass
class CheckLog:
    """Counts of checks attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)


def expected_columns(layers: int) -> list[str]:
    cols = ["T", "N_c", "N_f", "N_a"]
    cols += [f"res_f_{n}" for n in range(2, layers + 1)]
    cols += [f"res_a_{n}" for n in range(2, layers + 1)]
    cols += [f"N_tot_{n}" for n in range(1, layers + 1)]
    return cols + ["N_tot_inf", "coh_a", "coh_f"]


def negativity_upper_bound(column: str, field_dim: int) -> float | None:
    """Largest value a negativity column can take, or None for other columns.

    A single negativity across a d1 x d2 cut is at most (min(d1, d2) - 1)/2;
    a residual layer sum adds 2^(l-1) branch potentials of one mode.
    """
    if column in ("N_c", "N_a"):
        return 0.5
    if column == "N_f":
        return (field_dim - 1) / 2.0
    m = _RES_COLUMN.fullmatch(column)
    if m:
        d = field_dim if m.group(1) == "f" else 2
        return 2 ** (int(m.group(2)) - 1) * (d - 1) / 2.0
    return None


def _parse_rows(lines: list[str], n_cols: int):
    """Float rows, with None for empty fields; raises ValueError on bad text."""
    rows = []
    for i, line in enumerate(lines):
        fields = line.split(",")
        if len(fields) != n_cols:
            raise ValueError(f"row {i + 1} has {len(fields)} fields, expected {n_cols}")
        rows.append([None if f == "" else float(f) for f in fields])
    return rows


def check_csv(text: str, wl: Workload, log: CheckLog) -> None:
    """Schema, finiteness, negativity range and monotone totals of one CSV."""
    cols = expected_columns(wl.layers)
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header_ok = bool(lines) and lines[0] == ",".join(cols)
    count_ok = len(lines) - 1 == wl.n_points
    log.record(
        "csv_shape",
        header_ok and count_ok,
        f"header ok={header_ok}, {len(lines) - 1} rows for {wl.n_points} points",
    )
    rows, parse_error = None, "header mismatch"
    try:
        if header_ok:
            rows = _parse_rows(lines[1:], len(cols))
    except ValueError as exc:
        parse_error = str(exc)
    if rows is None:
        for name in ("csv_finite", "negativity_range", "totals_monotone"):
            log.record(name, False, f"unparsable CSV: {parse_error}")
        return

    inf_col = cols.index("N_tot_inf")
    bad_finite = []
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if j == inf_col and wl.case != "A":
                if v is not None:
                    bad_finite.append(f"row {i + 1} N_tot_inf={v} for case {wl.case}")
            elif v is None or not math.isfinite(v):
                bad_finite.append(f"row {i + 1} {cols[j]}={v}")
    log.record("csv_finite", not bad_finite, "; ".join(bad_finite[:3]))

    bad_range = []
    for j, name in enumerate(cols):
        upper = negativity_upper_bound(name, wl.field_dim)
        if upper is None:
            continue
        for i, row in enumerate(rows):
            v = row[j]
            if v is None or not 0.0 <= v <= upper:
                bad_range.append(f"row {i + 1} {name}={v} outside [0, {upper}]")
    log.record("negativity_range", not bad_range, "; ".join(bad_range[:3]))

    tot = [cols.index(f"N_tot_{n}") for n in range(1, wl.layers + 1)]
    bad_mono = []
    for i, row in enumerate(rows):
        vals = [row[j] for j in tot]
        if any(a is None or b is None or b < a for a, b in zip(vals, vals[1:])):
            bad_mono.append(f"row {i + 1} totals {vals}")
    log.record("totals_monotone", not bad_mono, "; ".join(bad_mono[:3]))


def check_oracle_report(text: str, log: CheckLog) -> None:
    """The closed-form comparison must parse and flag nothing."""
    try:
        report = json.loads(text)
        flagged = report["any_flagged"]
        worst = {
            k: q["max_abs_error"] for k, q in report["quantities"].items() if q["flagged"]
        }
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        log.record("oracle_not_flagged", False, f"unreadable oracle report: {exc!r}")
        return
    log.record(
        "oracle_not_flagged",
        flagged is False and not worst,
        f"any_flagged={flagged!r}, flagged quantities {worst}",
    )


def _read(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except OSError:
        return None


def check_call(
    prefix: str, exit_code: int, wl: Workload, log: CheckLog, reference_csv: bytes | None
) -> bytes | None:
    """Check one full-grid scenario call; returns its CSV bytes.

    ``reference_csv`` is the CSV of an earlier call with the same seed in
    this invocation; when given, the two must be byte-identical.
    """
    log.record("exit_code", exit_code == 0, f"exit code {exit_code}")
    csv_bytes = _read(Path(prefix + ".csv"))
    if csv_bytes is None:
        log.record("csv_shape", False, f"missing {prefix}.csv")
        for name in ("csv_finite", "negativity_range", "totals_monotone"):
            log.record(name, False, "missing CSV")
    else:
        check_csv(csv_bytes.decode("utf-8", errors="replace"), wl, log)
    oracle_bytes = _read(Path(prefix + ".oracle.json"))
    if oracle_bytes is None:
        log.record("oracle_not_flagged", False, f"missing {prefix}.oracle.json")
    else:
        check_oracle_report(oracle_bytes.decode("utf-8", errors="replace"), log)
    if reference_csv is not None:
        log.record(
            "byte_identical",
            csv_bytes is not None and csv_bytes == reference_csv,
            "CSV differs from the first call with the same seed",
        )
    return csv_bytes
