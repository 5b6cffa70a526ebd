import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import jcnc
from jcnc import cli, engine, nonclassicality, oracle
from jcnc.cli import (
    ConfigError,
    ScenarioConfig,
    ScenarioResult,
    chunk_points,
    compare_with_oracle,
    csv_columns,
    main,
    parse_config,
    run_scenario,
    time_grid,
    write_outputs,
)
from jcnc.hilbert import DimensionError, negativity, partial_trace
from jcnc.nonclassicality import cascade

from jc_operators import bs_output


def make_config(**overrides):
    values = {"case": "A", "n_points": 9, "output_prefix": "unused"}
    values.update(overrides)
    return parse_config(values)


class TestParseConfig:
    def test_defaults_case_a(self):
        cfg = parse_config('{"case": "A"}')
        assert cfg.field_dim == 2
        assert cfg.n_points == 401
        assert cfg.layers == 2
        assert abs(cfg.t_max - 2 * math.pi) < 1e-15
        assert not cfg.oracle_compare
        assert abs(cfg.oracle_case_b_frequency - math.sqrt(2)) < 1e-15

    def test_defaults_dim3_cases(self):
        assert parse_config({"case": "B"}).field_dim == 3
        assert parse_config({"case": "C", "mean_photon": 0.01}).field_dim == 3

    def test_case_c_valid(self):
        cfg = parse_config('{"case": "C", "mean_photon": 0.01}')
        assert cfg.mean_photon == 0.01

    def test_case_d_requires_alpha(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config('{"case": "D"}')

    def test_case_c_requires_mean_photon(self):
        with pytest.raises(ConfigError, match="mean_photon"):
            parse_config('{"case": "C"}')

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config('{"case": "A", "tmax": 3}')

    def test_malformed_document(self):
        with pytest.raises(ConfigError):
            parse_config("{case: A}")

    def test_malformed_number(self):
        with pytest.raises(ConfigError, match="mean_photon"):
            parse_config('{"case": "C", "mean_photon": "tiny"}')

    def test_irrelevant_case_params_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config('{"case": "A", "alpha": 0.1}')

    def test_bounds(self):
        with pytest.raises(ConfigError, match="n_points"):
            parse_config('{"case": "A", "n_points": 1}')
        with pytest.raises(ConfigError, match="layers"):
            parse_config('{"case": "A", "layers": 0}')
        with pytest.raises(ConfigError, match="field_dim"):
            parse_config('{"case": "B", "field_dim": 2}')

    def test_point_bytes_guard(self):
        # a dense layer gathers field_dim^4 complex values per time point, at
        # any depth; on the photon-number path the largest point array is the
        # (2 field_dim)^2 complex composite state, and the cached blocks hold
        # sum m^2 (index, coefficient) pairs for m = 1..field_dim
        assert cli.point_bytes(200, False) == cli.guard_bytes(200, False) == 200**4 * 16
        assert cli.point_bytes(200, True) == 400**2 * 16
        assert cli.guard_bytes(200, True) == sum(m * m for m in range(1, 201)) * 16
        dense = int((cli.MAX_ARRAY_BYTES / 16) ** 0.25)
        diagonal = max(
            d for d in range(2, 400) if sum(m * m for m in range(1, d + 1)) * 16 <= cli.MAX_ARRAY_BYTES
        )
        assert (dense, diagonal) == (45, 232)
        for params, largest in (({"case": "A"}, diagonal), ({"case": "D", "alpha": 1.0}, dense)):
            for layers in (1, 6):
                cfg = parse_config({**params, "field_dim": largest, "layers": layers})
                assert cfg.field_dim == largest
            with pytest.raises(ConfigError, match="field_dim"):
                parse_config({**params, "field_dim": largest + 1, "layers": 1})
        # the thermal field, refused there before, takes the photon-number path
        assert parse_config({"case": "C", "mean_photon": 1.0, "field_dim": 45}).field_dim == 45

    def test_result_array_guard(self):
        # one float64 per grid time and CSV column
        largest = cli.MAX_ARRAY_BYTES // (8 * len(csv_columns(2)))
        assert parse_config({"case": "A", "n_points": largest}).n_points == largest
        with pytest.raises(ConfigError, match="n_points"):
            parse_config({"case": "A", "n_points": largest + 1})

    @pytest.mark.parametrize("alpha", [None, 0.2])
    @pytest.mark.parametrize("mean_photon", [None, 0.3])
    @pytest.mark.parametrize("case", ["A", "B", "C", "D"])
    def test_case_parameters_follow_the_scenario_case(self, case, mean_photon, alpha):
        try:
            engine.ScenarioCase(case, mean_photon, alpha)
            accepted = True
        except ValueError:
            accepted = False
        values = {"case": case, "mean_photon": mean_photon, "alpha": alpha}
        if accepted:
            assert parse_config(values).case == case
        else:
            with pytest.raises(ConfigError, match="mean_photon|alpha"):
                parse_config(values)

    @pytest.mark.parametrize(
        "case, params, least",
        [("A", {}, 2), ("B", {}, 3), ("C", {"mean_photon": 0.3}, 3), ("D", {"alpha": 0.2}, 3)],
    )
    def test_minimum_field_dim_is_one_rule(self, case, params, least, tmp_path, monkeypatch):
        scenario = engine.ScenarioCase(case, **params)
        assert parse_config({"case": case, **params}).field_dim == least
        assert engine.initial_state(scenario, least).matrix.shape == (2 * least, 2 * least)
        with pytest.raises(ConfigError, match="field_dim"):
            parse_config({"case": case, "field_dim": least - 1, **params})
        monkeypatch.setattr(cli, "run_scenario", lambda cfg: pytest.fail("run started"))
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in params.items()]
        args = ["--case", case, "--field-dim", str(least - 1), *flags]
        assert main(args + ["--output-prefix", str(tmp_path / "x")]) == 2
        with pytest.raises(DimensionError):
            engine.initial_state(scenario, least - 1)

    @pytest.mark.parametrize("text", ["", " \n\t "], ids=["empty", "whitespace"])
    def test_blank_document_lacks_only_the_case(self, text, tmp_path, capsys):
        with pytest.raises(ConfigError, match="'case' is required"):
            parse_config(text)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert main(["--config", str(cfg_path)]) == 2
        assert "'case' is required" in capsys.readouterr().err
        args = ["--case", "A", "--n-points", "3", "--output-prefix", str(tmp_path / "x")]
        assert main(["--config", str(cfg_path), *args]) == 0

    def test_integral_float_accepted(self):
        cfg = parse_config({"case": "A", "n_points": 401.0, "field_dim": 2.0, "layers": 3.0})
        assert (cfg.n_points, cfg.field_dim, cfg.layers) == (401, 2, 3)
        assert all(type(v) is int for v in (cfg.n_points, cfg.field_dim, cfg.layers))


class TestRunScenario:
    def test_case_a_reference_rows(self):
        cfg = make_config(t_max=math.pi, n_points=5)   # grid hits pi/4
        result = run_scenario(cfg)
        assert result.column("T").tolist() == pytest.approx(
            [0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
        )
        N_c, N_f, N_a = (result.column(name) for name in ("N_c", "N_f", "N_a"))
        assert N_c[0] == pytest.approx(0.0, abs=1e-12)
        assert N_f[0] == pytest.approx(0.0, abs=1e-12)
        assert N_a[0] == pytest.approx(0.5, abs=1e-12)
        assert result.column("coh_a")[0] == pytest.approx(0.0, abs=1e-14)
        assert N_c[1] == pytest.approx(0.5, abs=1e-10)
        assert N_f[1] == pytest.approx(0.103553390593274, abs=1e-10)
        assert N_a[1] == pytest.approx(0.103553390593274, abs=1e-10)

    def test_rows_ascending_and_nonnegative(self):
        result = run_scenario(make_config(case="B", n_points=17))
        ts = result.column("T").tolist()
        assert ts == sorted(ts)
        for name in result.columns:
            if name in ("N_c", "N_f", "N_a") or name.startswith("res_"):
                assert np.all(result.column(name) >= -1e-12)

    def test_negativity_dimension_bound(self):
        result = run_scenario(make_config(case="B", n_points=17))
        # (d-1)/2 for the 3x3 split... qubit side caps at 1
        assert np.all(result.column("N_c") <= 1.0 + 1e-12)

    def test_coherence_zero_for_abc(self):
        for kwargs in ({"case": "A"}, {"case": "B"}, {"case": "C", "mean_photon": 0.01}):
            result = run_scenario(make_config(n_points=9, **kwargs))
            assert np.all(result.column("coh_a") < 1e-12)
            assert np.all(result.column("coh_f") < 1e-12)

    def test_coherence_exactly_zero_for_a_diagonal_field(self):
        # the field keeps no Fock coherence, so no rounding may show as one
        result = run_scenario(make_config(case="C", field_dim=6, mean_photon=0.3, n_points=401))
        assert np.all(result.column("coh_a") == 0.0)
        assert np.all(result.column("coh_f") == 0.0)

    def test_case_d_coherence_positive(self):
        cfg = make_config(case="D", alpha=0.1, t_max=math.pi, n_points=5)
        assert run_scenario(cfg).column("coh_a")[1] > 1e-4   # T = pi/4

    def test_case_d_atom_coherence_exactly_zero_at_t0(self):
        # the propagator is exactly the identity at T = 0, where the atom is excited
        cfg = make_config(case="D", alpha=0.1, n_points=5)
        assert run_scenario(cfg).column("coh_a")[0] == 0.0

    def test_case_d_takes_the_dense_path_unchanged(self, monkeypatch):
        # the reduced states carry Fock coherence, so every layer gathers the
        # whole partial transpose, and the columns are the dense splitter
        # output's numbers
        diagonal = []
        tables = nonclassicality._transpose_blocks
        monkeypatch.setattr(
            nonclassicality,
            "_transpose_blocks",
            lambda d, is_diagonal: diagonal.append(is_diagonal) or tables(d, is_diagonal),
        )
        cfg = make_config(case="D", alpha=0.1, layers=2, n_points=9)
        result = run_scenario(cfg)
        assert diagonal == [False] * 4   # one chunk, two layers, two subsystems
        rho0 = engine.initial_state(engine.ScenarioCase("D", alpha=0.1), 3)
        rho_f, rho_a = engine.reduced_states(engine.evolve(rho0, time_grid(cfg)))
        for state, first, second in ((rho_f, "N_f", "res_f_2"), (rho_a, "N_a", "res_a_2")):
            out = bs_output(state)
            potential = negativity(out, out.layout.labels[1])
            assert np.max(np.abs(result.column(first) - potential)) < 1e-12
            child = bs_output(partial_trace(out, {out.layout.labels[0]}))
            child_potential = negativity(child, child.layout.labels[1])
            assert np.max(np.abs(result.column(second) - 2 * child_potential)) < 1e-12

    @pytest.mark.parametrize(
        "params, field_dim, layers, chunk_bytes",
        [({"case": "A"}, 2, 6, 16 * 1024), ({"case": "C", "mean_photon": 1.0}, 12, 2, 64 * 1024)],
        ids=["A", "C-dim-12"],
    )
    def test_chunked_run_matches_per_point_calls(
        self, params, field_dim, layers, chunk_bytes, monkeypatch
    ):
        # a grid of three chunks against batch-of-one calls at every time;
        # small chunks keep the per-point calls few
        monkeypatch.setattr(cli, "CHUNK_BYTES", chunk_bytes)
        scenario = engine.ScenarioCase(**params)
        step = chunk_points(field_dim, scenario.fock_diagonal)
        assert step > 1
        cfg = make_config(**params, field_dim=field_dim, layers=layers, n_points=2 * step + 3)
        result = run_scenario(cfg)
        grid = time_grid(cfg)
        rho0 = engine.initial_state(scenario, field_dim)
        whole_grid = [
            cascade(r, layers) for r in engine.reduced_states(engine.evolve(rho0, grid))
        ]
        sums = ["N_f"] + [f"res_f_{n}" for n in range(2, layers + 1)]
        sums += ["N_a"] + [f"res_a_{n}" for n in range(2, layers + 1)]
        for k, T in enumerate(grid):
            rho = engine.evolve(rho0, float(T))
            reports = [cascade(r, layers) for r in engine.reduced_states(rho)]
            assert result.column("T")[k] == T
            assert abs(result.column("N_c")[k] - negativity(rho, "a")) < 1e-12
            got = [result.column(name)[k] for name in sums]
            want = (*reports[0].layer_sums, *reports[1].layer_sums)
            assert np.max(np.abs(np.subtract(got, want))) < 1e-12
            for stacked, single in zip(whole_grid, reports):
                for layer_stack, layer in zip(stacked.potentials, single.potentials):
                    assert np.shape(layer) == layer_stack[k].shape
                    assert np.max(np.abs(layer_stack[k] - layer)) < 1e-12

    def test_n_tot_inf_only_case_a(self):
        assert np.all(np.isfinite(run_scenario(make_config(n_points=5)).column("N_tot_inf")))
        assert "N_tot_inf" not in run_scenario(make_config(case="B", n_points=5)).columns


class TestWriteOutputs:
    def test_header_and_determinism(self, tmp_path):
        cfg = make_config(n_points=9, output_prefix=str(tmp_path / "runA"))
        result = run_scenario(cfg)
        csv_path, summary_path = write_outputs(result, cfg, runtime=1.0)
        first = open(csv_path, "rb").read()
        write_outputs(run_scenario(cfg), cfg, runtime=2.0)
        second = open(csv_path, "rb").read()
        assert first == second
        header = first.decode().splitlines()[0]
        assert header == ",".join(csv_columns(cfg.layers))
        assert header == "T,N_c,N_f,N_a,res_f_2,res_a_2,N_tot_1,N_tot_2,N_tot_inf,coh_a,coh_f"

    def test_summary_contents(self, tmp_path):
        cfg = make_config(n_points=17, output_prefix=str(tmp_path / "runA"))
        _, summary_path = write_outputs(run_scenario(cfg), cfg)
        summary = json.load(open(summary_path))
        assert summary["config"]["case"] == "A"
        assert summary["min_N_tot_final"] >= 0.5 - 1e-9
        assert summary["extrema"]["N_a"]["max"] == pytest.approx(0.5, abs=1e-9)

    def test_empty_field_for_n_tot_inf(self, tmp_path):
        cfg = make_config(case="B", n_points=5, output_prefix=str(tmp_path / "runB"))
        csv_path, _ = write_outputs(run_scenario(cfg), cfg)
        line = open(csv_path).read().splitlines()[1].split(",")
        cols = csv_columns(cfg.layers)
        assert line[cols.index("N_tot_inf")] == ""

    def test_empty_rows_rejected(self, tmp_path):
        cfg = make_config(output_prefix=str(tmp_path / "x"))
        empty = ScenarioResult(tuple(csv_columns(cfg.layers)), np.empty((0, 11)), None)
        with pytest.raises(ValueError):
            write_outputs(empty, cfg)

    def test_io_error_path_context(self, tmp_path):
        cfg = make_config(n_points=5, output_prefix=str(tmp_path / "missing" / "x"))
        result = run_scenario(cfg)
        with pytest.raises(OSError, match="missing"):
            write_outputs(result, cfg)


class TestCompareWithOracle:
    def test_case_a_exact(self):
        cfg = make_config(n_points=41)
        report = compare_with_oracle(run_scenario(cfg), cfg)
        assert not report["any_flagged"]
        for q in ("N_c", "N_f", "N_a", "res_f_2", "res_a_2", "N_tot_2", "N_tot_inf"):
            assert report["quantities"][q]["max_abs_error"] < 1e-9

    def test_case_b_engine_frequency(self):
        cfg = make_config(case="B", n_points=41)
        report = compare_with_oracle(run_scenario(cfg), cfg)
        assert not report["any_flagged"]
        assert "N_f" in report["engine_only"]

    def test_case_b_printed_frequency_diverges(self):
        cfg = make_config(
            case="B", n_points=41, oracle_case_b_frequency=math.sqrt(3)
        )
        report = compare_with_oracle(run_scenario(cfg), cfg)
        assert report["any_flagged"]
        assert any("as-printed" in note for note in report["notes"])

    def test_case_c_reduced_match(self):
        n_points = 2 * chunk_points(3, True) + 5   # three chunks
        cfg = make_config(case="C", mean_photon=0.01, n_points=n_points)
        report = compare_with_oracle(run_scenario(cfg), cfg)
        assert not report["any_flagged"]
        assert report["quantities"]["atom_reduced"]["max_abs_error"] < 1e-8
        assert report["quantities"]["field_reduced"]["max_abs_error"] < 1e-8

    def test_case_d_reduced_match(self):
        cfg = make_config(case="D", alpha=0.1, n_points=41)
        report = compare_with_oracle(run_scenario(cfg), cfg)
        assert not report["any_flagged"]

    @pytest.mark.parametrize(
        "args",
        [
            ["--case", "C", "--mean-photon", "0.02", "--field-dim", "4"],
            ["--case", "D", "--alpha", "0.3", "--field-dim", "4"],
        ],
        ids=["C", "D"],
    )
    def test_no_reduced_closed_form_above_three_levels(self, args, tmp_path):
        prefix = str(tmp_path / "x")
        code = main(args + ["--n-points", "9", "--oracle-compare", "--output-prefix", prefix])
        assert code == 0
        report = json.load(open(prefix + ".oracle.json"))
        assert {"atom_reduced", "field_reduced"} <= set(report["engine_only"])
        assert any("three-level field" in note for note in report["notes"])
        assert not report["any_flagged"]

    @pytest.mark.parametrize(
        "overrides, compared, engine_only",
        [
            (
                {"layers": 3},
                {"N_c", "N_f", "N_a", "res_f_2", "res_a_2", "N_tot_1", "N_tot_2", "N_tot_inf"},
                ["res_f_3", "res_a_3", "N_tot_3", "coh_a", "coh_f"],
            ),
            ({"case": "B", "layers": 1}, {"N_c", "N_a"}, ["N_f", "N_tot_1", "coh_a", "coh_f"]),
            (
                {"case": "C", "mean_photon": 0.01, "layers": 1},
                {"atom_reduced", "field_reduced"},
                ["N_c", "N_f", "N_a", "N_tot_1", "coh_a", "coh_f"],
            ),
            (
                {"case": "D", "alpha": 0.1, "field_dim": 4, "layers": 1},
                set(),
                ["N_c", "N_f", "N_a", "N_tot_1", "coh_a", "coh_f", "atom_reduced", "field_reduced"],
            ),
        ],
        ids=["A", "B", "C", "D-dim-4"],
    )
    def test_report_only_formats_the_run_errors(
        self, overrides, compared, engine_only, monkeypatch
    ):
        # the run checked every closed form; the report evaluates none
        cfg = make_config(**overrides)
        result = run_scenario(cfg)
        assert set(result.oracle_errors) == compared
        for name in ("case_a", "case_b", "case_c_reduced", "case_d_reduced", "chi", "xi"):
            monkeypatch.setattr(oracle, name, lambda *a, **k: pytest.fail("oracle evaluated"))
        report = compare_with_oracle(result, cfg)
        assert set(report["quantities"]) == compared
        assert report["engine_only"] == engine_only
        assert not report["any_flagged"]

    def test_nan_error_is_flagged(self):
        cfg = make_config()
        result = ScenarioResult(("T", "N_c"), np.zeros((2, 2)), {"N_c": math.nan})
        assert compare_with_oracle(result, cfg)["quantities"]["N_c"]["flagged"]

    def test_oracle_check_shares_the_run_pass(self, tmp_path, monkeypatch):
        calls = []
        evolve = engine.evolve

        def counting_evolve(rho0, T):
            calls.append(np.shape(T))
            return evolve(rho0, T)

        monkeypatch.setattr(engine, "evolve", counting_evolve)
        n_points = 2 * chunk_points(3, True) + 5   # three chunks
        args = ["--case", "C", "--mean-photon", "0.01", "--n-points", str(n_points)]
        prefix = str(tmp_path / "c")
        assert main(args + ["--oracle-compare", "--output-prefix", prefix]) == 0
        assert len(calls) == 3
        report = json.load(open(prefix + ".oracle.json"))
        assert report["quantities"]["atom_reduced"]["max_abs_error"] < 1e-8


class TestMain:
    def test_end_to_end(self, tmp_path):
        prefix = str(tmp_path / "out")
        code = main(
            [
                "--case", "A",
                "--n-points", "9",
                "--oracle-compare",
                "--output-prefix", prefix,
            ]
        )
        assert code == 0
        assert (tmp_path / "out.csv").exists()
        assert (tmp_path / "out.summary.json").exists()
        report = json.load(open(prefix + ".oracle.json"))
        assert not report["any_flagged"]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"case": "C", "mean_photon": 0.01, "n_points": 5})
        )
        prefix = str(tmp_path / "c")
        code = main(["--config", str(cfg_path), "--n-points", "7", "--output-prefix", prefix])
        assert code == 0
        assert len(open(prefix + ".csv").read().splitlines()) == 8  # header + 7 rows

    def test_config_error_exit_code(self, capsys):
        assert main(["--case", "D"]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["--case", "A", "--layers", "7"],
            ["--case", "A", "--t-max", "nan"],
            ["--case", "A", "--t-max", "inf"],
            ["--case", "C", "--mean-photon", "inf"],
            ["--case", "D", "--alpha", "nan"],
            ["--case", "B", "--oracle-case-b-frequency", "inf"],
            ["--case", "A", "--field-dim", "300"],
            ["--case", "D", "--alpha", "3", "--field-dim", "200"],
            ["--case", "A", "--t-max", "5e307", "--oracle-compare"],
            ["--case", "B", "--oracle-case-b-frequency", "1e308", "--oracle-compare"],
        ],
        ids=[
            "layers-7", "t-max-nan", "t-max-inf", "mean-photon-inf", "alpha-nan", "freq-inf",
            "A-field-dim-300", "D-field-dim-200", "A-phase-overflow", "B-phase-overflow",
        ],
    )
    def test_out_of_range_input_is_a_config_error(self, args, tmp_path, monkeypatch, capsys):
        # refused while parsing: the run, and any allocation it makes, never starts
        monkeypatch.setattr(cli, "run_scenario", lambda cfg: pytest.fail("run started"))
        assert main(args + ["--n-points", "3", "--output-prefix", str(tmp_path / "x")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("prefix", ["true", "7", '["x"]'], ids=["true", "number", "list"])
    def test_non_string_output_prefix_is_a_config_error(
        self, prefix, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"case": "A", "n_points": 3, "output_prefix": ' + prefix + "}")
        assert main(["--config", str(cfg_path)]) == 2
        assert "output_prefix" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "document",
        [
            '{"case": "A", "n_points": 1e400}',
            '{"case": "A", "field_dim": 1e400}',
            '{"case": "A", "layers": 1e400}',
            '{"case": "A", "layers": true}',
            '{"case": "A", "field_dim": 2.9}',
            '{"case": "C", "mean_photon": 1' + "0" * 400 + "}",
        ],
        ids=[
            "n-points-1e400", "field-dim-1e400", "layers-1e400", "layers-true", "field-dim-2.9",
            "mean-photon-401-digits",
        ],
    )
    def test_bad_number_in_config_file_is_a_config_error(
        self, document, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "run_scenario", lambda cfg: pytest.fail("run started"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(document)
        assert main(["--config", str(cfg_path), "--output-prefix", str(tmp_path / "x")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_too_many_points_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        # the time grid alone would take 75 GiB, the result array ten times that
        monkeypatch.setattr(cli, "run_scenario", lambda cfg: pytest.fail("run started"))
        args = ["--case", "C", "--mean-photon", "0.01", "--n-points", "10000000000"]
        assert main(args + ["--output-prefix", str(tmp_path / "x")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_coherent_state_without_weight_is_a_numerical_failure(self, tmp_path, capsys):
        # |alpha|^2 overflows a float; the state has no weight on the kept levels
        args = ["--case", "D", "--alpha", "1e200", "--output-prefix", str(tmp_path / "x")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical validation failure") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_huge_mean_photon_runs_the_flat_thermal_state(self, tmp_path):
        # at T = 0 the field is diag(1/2, 1/2, 0), whose potential is (sqrt 2 - 1)/4
        prefix = str(tmp_path / "x")
        args = ["--case", "C", "--mean-photon", "1e308", "--n-points", "5"]
        assert main(args + ["--output-prefix", prefix]) == 0
        header, first = open(prefix + ".csv").read().splitlines()[:2]
        N_f = float(first.split(",")[header.split(",").index("N_f")])
        assert abs(N_f - (math.sqrt(2) - 1) / 4) < 1e-12

    def test_linalg_error_exit_code(self, tmp_path, monkeypatch, capsys):
        def fail(cfg):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli, "run_scenario", fail)
        assert main(["--case", "A", "--output-prefix", str(tmp_path / "x")]) == 3
        assert "did not converge" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json")]) == 2

    def test_io_error_exit_code(self, tmp_path):
        prefix = str(tmp_path / "no_dir" / "x")
        code = main(["--case", "A", "--n-points", "3", "--output-prefix", prefix])
        assert code == 4


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(jcnc.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )


def test_module_run_raises_no_runtime_warning(tmp_path):
    # importing the package must not import jcnc.cli ahead of runpy
    done = run_python(["-W", "error::RuntimeWarning", "-m", "jcnc.cli", "--help"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_module_run_and_entry_point_write_identical_csvs(tmp_path):
    args = ["--case", "C", "--mean-photon", "0.2", "--n-points", "7"]
    # what the `jcnc` console script runs, from its entry point in pyproject.toml
    entry_point = (
        "import pkgutil, sys; sys.exit(pkgutil.resolve_name('jcnc.cli:main')(sys.argv[1:]))"
    )
    for prefix, launch in (("module", ["-m", "jcnc.cli"]), ("script", ["-c", entry_point])):
        done = run_python([*launch, *args, "--output-prefix", prefix], tmp_path)
        assert done.returncode == 0, done.stderr
    assert (tmp_path / "module.csv").read_bytes() == (tmp_path / "script.csv").read_bytes()


def test_package_resolves_the_runner_names_on_use():
    assert jcnc.run_scenario is cli.run_scenario
    assert jcnc.ScenarioConfig is cli.ScenarioConfig
    with pytest.raises(AttributeError):
        jcnc.no_such_name


def test_cli_import_loads_no_scipy():
    # every fresh process pays for what importing the CLI loads
    code = "import sys, jcnc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = run_python(["-c", code], None)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
