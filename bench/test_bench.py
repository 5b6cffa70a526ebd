"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy.linalg  # noqa: E402

import jcnc.cli  # noqa: E402
import jcnc.hilbert  # noqa: E402
import jcnc.nonclassicality  # noqa: E402
import metrics  # noqa: E402
import tracer  # noqa: E402
from checks import CheckLog, check_call, expected_columns  # noqa: E402
from workloads import TWO_PI, WORKLOADS, Workload  # noqa: E402

SMALL_POINTS = 5


def small(name: str):
    from dataclasses import replace

    return replace(WORKLOADS[name], n_points=SMALL_POINTS)


def run_cli(wl, prefix: Path, seed: int = 3, extra=()) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return jcnc.cli.main(wl.cli_args(seed, str(prefix)) + list(extra))


def checked(wl, prefix: Path, exit_code: int = 0, reference=None) -> CheckLog:
    log = CheckLog()
    check_call(str(prefix), exit_code, wl, log, reference)
    return log


def rewrite_csv(prefix: Path, edit) -> None:
    path = prefix.with_suffix(".csv")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def set_cell(lines, row: int, column: str, value: str):
    cols = lines[0].split(",")
    fields = lines[row].split(",")
    fields[cols.index(column)] = value
    lines[row] = ",".join(fields)
    return lines


# --- seeded input generator -------------------------------------------------


def test_same_seed_same_args_and_seed_only_moves_t_max_and_mean_photon():
    for wl in WORKLOADS.values():
        a, b = wl.cli_args(7, "p"), wl.cli_args(7, "p")
        assert a == b
        other = wl.cli_args(8, "p")
        assert other != a
        fixed = ("--case", "--field-dim", "--layers", "--n-points")
        for flag in fixed:
            assert a[a.index(flag) + 1] == other[other.index(flag) + 1]
        for seed in range(50):
            args = wl.cli_args(seed, "p")
            assert TWO_PI <= float(args[args.index("--t-max") + 1]) <= 1.05 * TWO_PI
            if "--mean-photon" in args:
                assert 0.005 <= float(args[args.index("--mean-photon") + 1]) <= 0.05


# --- correctness gate -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_clean_outputs_pass_every_check(tmp_path, name):
    wl = small(name)
    first, second = tmp_path / "a", tmp_path / "b"
    assert run_cli(wl, first) == 0 and run_cli(wl, second) == 0
    log = checked(wl, first)
    ref = first.with_suffix(".csv").read_bytes()
    check_call(str(second), 0, wl, log, ref)
    assert log.failed == 0, log.failures
    assert log.attempted == 13


@pytest.fixture
def case_a_outputs(tmp_path):
    wl = small("cascade_deep")
    prefix = tmp_path / "out"
    assert run_cli(wl, prefix) == 0
    return wl, prefix


@pytest.mark.parametrize(
    "column, value, failing",
    [
        ("N_f", "nan", "csv_finite"),
        ("coh_a", "inf", "csv_finite"),
        ("N_c", "0.75", "negativity_range"),
        ("N_a", "-1e-9", "negativity_range"),
        ("res_f_6", "16.5", "negativity_range"),
        ("N_tot_3", "1e3", "totals_monotone"),
        ("N_tot_inf", "", "csv_finite"),
        ("T", "abc", "csv_finite"),
    ],
)
def test_corrupted_csv_value_counts_as_failure(case_a_outputs, column, value, failing):
    wl, prefix = case_a_outputs
    rewrite_csv(prefix, lambda lines: set_cell(lines, 2, column, value))
    log = checked(wl, prefix)
    assert log.failed >= 1
    assert any(f.startswith(failing) for f in log.failures), log.failures


def test_dropped_row_and_wrong_header_fail(case_a_outputs):
    wl, prefix = case_a_outputs
    rewrite_csv(prefix, lambda lines: lines[:-1])
    assert any(f.startswith("csv_shape") for f in checked(wl, prefix).failures)
    rewrite_csv(prefix, lambda lines: [lines[0].replace("N_c", "Nc")] + lines[1:])
    log = checked(wl, prefix)
    # an unreadable CSV fails every check that needs its values, none is skipped
    assert {f.split(":")[0] for f in log.failures} >= {
        "csv_shape",
        "csv_finite",
        "negativity_range",
        "totals_monotone",
    }


def test_non_identical_rerun_fails(case_a_outputs):
    wl, prefix = case_a_outputs
    reference = prefix.with_suffix(".csv").read_bytes()
    rewrite_csv(prefix, lambda lines: lines[:1] + lines[2:] + lines[1:2])
    log = checked(wl, prefix, reference=reference)
    assert any(f.startswith("byte_identical") for f in log.failures)


def test_flagged_oracle_report_fails(tmp_path):
    wl = Workload("case_b", "case B", case="B", field_dim=3, layers=1, n_points=SMALL_POINTS)
    prefix = tmp_path / "printed"
    # the as-printed sqrt(3) case-B frequency makes the program flag itself
    assert run_cli(wl, prefix, extra=["--oracle-case-b-frequency", repr(math.sqrt(3.0))]) == 0
    assert json.loads(prefix.with_suffix(".oracle.json").read_text())["any_flagged"] is True
    log = checked(wl, prefix)
    assert [f.split(":")[0] for f in log.failures] == ["oracle_not_flagged"]


def test_doctored_oracle_report_and_missing_files_fail(case_a_outputs):
    wl, prefix = case_a_outputs
    path = prefix.with_suffix(".oracle.json")
    report = json.loads(path.read_text())
    report["quantities"]["N_c"]["flagged"] = True
    path.write_text(json.dumps(report))
    assert any(f.startswith("oracle_not_flagged") for f in checked(wl, prefix).failures)
    path.unlink()
    prefix.with_suffix(".csv").unlink()
    log = checked(wl, prefix, exit_code=3)
    assert log.failed == log.attempted == 6


def test_expected_columns_match_the_program_schema():
    for layers in range(1, 7):
        assert expected_columns(layers) == jcnc.cli.csv_columns(layers)


# --- outside-in tracer ------------------------------------------------------


def traced_call(wl, prefix: Path):
    tr = tracer.trace_jcnc()
    try:
        assert run_cli(wl, prefix) == 0
    finally:
        tr.uninstall()
    return tr


def test_tracer_rebinds_every_alias_and_restores_them(tmp_path):
    originals = (jcnc.hilbert.negativity, jcnc.hilbert.partial_trace, numpy.linalg.eigvalsh)
    tr = tracer.trace_jcnc()
    try:
        assert jcnc.cli.negativity is jcnc.hilbert.negativity is not originals[0]
        assert jcnc.nonclassicality.partial_trace is jcnc.hilbert.partial_trace
        assert jcnc.engine.partial_trace is not originals[1]
        assert numpy.linalg.eigvalsh is not originals[2]
    finally:
        tr.uninstall()
    assert (jcnc.cli.negativity, jcnc.engine.partial_trace, numpy.linalg.eigvalsh) == originals


def test_traced_counts_match_the_algorithm_and_repeat(tmp_path):
    wl = small("cascade_deep")
    runs = [traced_call(wl, tmp_path / f"t{i}") for i in range(2)]
    counts = [{k: v["calls"] for k, v in tr.summary().items()} for tr in runs]
    assert counts[0] == counts[1]
    n, layers = SMALL_POINTS, wl.layers
    branches = 2**layers - 1
    assert counts[0]["nonclassicality.entanglement_potential"] == 2 * n * branches
    assert counts[0]["hilbert.negativity"] == n * (1 + 2 * branches)
    assert counts[0]["nonclassicality.cascade"] == 2 * n
    layer = metrics.per_layer(runs[0], 1.0, 0.5, 10)
    assert set(layer) == set(metrics.PER_LAYER)
    assert layer["hilbert.eigvalsh.matrices"]["value"] == layer["hilbert.eigvalsh.calls"]["value"]
    assert layer["trace.overhead_s"]["value"] == 0.5


def test_missing_traced_function_reads_as_absent(tmp_path, monkeypatch):
    # as if a later change removed hilbert.l1_coherence; cli keeps its own alias
    monkeypatch.delattr(jcnc.hilbert, "l1_coherence")
    tr = traced_call(small("cascade_deep"), tmp_path / "t")
    assert "hilbert.l1_coherence" not in tr.wrapped
    assert "hilbert.l1_coherence" in set(metrics.TRACED_SPANS) - set(tr.wrapped)
    layer = metrics.per_layer(tr, 1.0, 1.0, 0)
    assert layer["hilbert.l1_coherence.calls"]["value"] == 0
    assert layer["hilbert.negativity.calls"]["value"] > 0


def test_self_time_subtracts_children():
    tr = tracer.Tracer()
    outer, inner = tr._intern("outer"), tr._intern("inner")
    # outer [0, 10] holds inner [1, 3] and inner [4, 8]; inner [4, 8] holds outer [5, 6]
    for nid, parent, start, end in [
        (outer, -1, 0.0, 10.0),
        (inner, 0, 1.0, 3.0),
        (inner, 0, 4.0, 8.0),
        (outer, 2, 5.0, 6.0),
    ]:
        tr.name_id.append(nid)
        tr.parent.append(parent)
        tr.start.append(start)
        tr.end.append(end)
    s = tr.summary()
    assert s["outer"] == {"calls": 2, "total_s": 10.0, "self_s": 5.0}
    assert s["inner"] == {"calls": 2, "total_s": 6.0, "self_s": 5.0}
    assert tr.count_under("outer", "inner") == 1


# --- the benchmark definition -----------------------------------------------


def test_benchmark_json_names_the_harness_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "thermal_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
