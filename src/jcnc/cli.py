"""Configuration-driven scenario runner.

Runs one initial-state case over a time grid, computes correlation
negativity, single-mode entanglement potentials, cascade residuals, totals,
and l1-coherences, and writes a CSV, a JSON summary, and (optionally) a
closed-form comparison report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import engine, oracle
from .hilbert import StateValidationError, l1_coherence, negativity
from .nonclassicality import MAX_CASCADE_LAYERS, cascade, extrapolate_total, total_nonclassicality

CASES = ("A", "B", "C", "D")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

ORACLE_TOL_EXACT = 1e-9      # cases A and B (closed forms are exact)
ORACLE_TOL_REDUCED = 1e-8    # cases C and D (reduced-matrix transcriptions)

# Byte budget of the largest stack of a time chunk, the deepest cascade
# layer's beam-splitter outputs: 2^(layers-1) * field_dim^4 complex values
# per time point. Larger chunks only raise peak memory; 64 KiB already
# amortizes the per-call overhead.
CHUNK_BYTES = 64 * 1024


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    case: str
    field_dim: int
    mean_photon: float | None
    alpha: float | None
    t_max: float
    n_points: int
    layers: int
    oracle_compare: bool
    oracle_case_b_frequency: float
    output_prefix: str


_CONFIG_KEYS = {
    "case",
    "field_dim",
    "mean_photon",
    "alpha",
    "t_max",
    "n_points",
    "layers",
    "oracle_compare",
    "oracle_case_b_frequency",
    "output_prefix",
}


def _require_number(values: dict, key: str) -> float:
    v = values[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"field {key!r}: expected a number, got {v!r}")
    if not math.isfinite(v):
        raise ConfigError(f"field {key!r}: must be finite, got {v!r}")
    return float(v)


def parse_config(source) -> ScenarioConfig:
    """Validate a JSON document (text or dict) into a ScenarioConfig."""
    if isinstance(source, str):
        try:
            values = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config document: {exc}") from exc
    else:
        values = dict(source)
    if not isinstance(values, dict):
        raise ConfigError("config document must be a JSON object")
    values = {k: v for k, v in values.items() if v is not None}
    unknown = set(values) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "case" not in values:
        raise ConfigError("field 'case' is required")
    case = str(values["case"]).upper()
    if case not in CASES:
        raise ConfigError(f"field 'case': must be one of {CASES}, got {values['case']!r}")

    field_dim = int(values.get("field_dim", 2 if case == "A" else 3))
    if field_dim < 2:
        raise ConfigError(f"field 'field_dim': must be >= 2, got {field_dim}")
    if case != "A" and field_dim < 3:
        raise ConfigError(f"field 'field_dim': case {case} needs >= 3, got {field_dim}")

    mean_photon = _require_number(values, "mean_photon") if "mean_photon" in values else None
    alpha = _require_number(values, "alpha") if "alpha" in values else None
    if case == "C":
        if mean_photon is None:
            raise ConfigError("field 'mean_photon': required for case C")
        if mean_photon <= 0:
            raise ConfigError(f"field 'mean_photon': must be > 0, got {mean_photon}")
    elif mean_photon is not None:
        raise ConfigError(f"field 'mean_photon': not valid for case {case}")
    if case == "D":
        if alpha is None:
            raise ConfigError("field 'alpha': required for case D")
    elif alpha is not None:
        raise ConfigError(f"field 'alpha': not valid for case {case}")

    t_max = _require_number(values, "t_max") if "t_max" in values else 2.0 * math.pi
    if t_max <= 0:
        raise ConfigError(f"field 't_max': must be > 0, got {t_max}")
    n_points = int(values.get("n_points", 401))
    if n_points < 2:
        raise ConfigError(f"field 'n_points': must be >= 2, got {n_points}")
    layers = int(values.get("layers", 2))
    if not 1 <= layers <= MAX_CASCADE_LAYERS:
        raise ConfigError(f"field 'layers': must be in [1, {MAX_CASCADE_LAYERS}], got {layers}")
    oracle_compare = values.get("oracle_compare", False)
    if not isinstance(oracle_compare, bool):
        raise ConfigError(f"field 'oracle_compare': expected a boolean, got {oracle_compare!r}")
    freq = (
        _require_number(values, "oracle_case_b_frequency")
        if "oracle_case_b_frequency" in values
        else oracle.CASE_B_RATE_ENGINE
    )
    if freq <= 0:
        raise ConfigError(f"field 'oracle_case_b_frequency': must be > 0, got {freq}")
    output_prefix = str(values.get("output_prefix", "scenario"))

    return ScenarioConfig(
        case=case,
        field_dim=field_dim,
        mean_photon=mean_photon,
        alpha=alpha,
        t_max=t_max,
        n_points=n_points,
        layers=layers,
        oracle_compare=oracle_compare,
        oracle_case_b_frequency=freq,
        output_prefix=output_prefix,
    )


@dataclass(frozen=True)
class TimeSeriesRow:
    T: float
    N_c: float
    N_f: float
    N_a: float
    res_field: tuple[float, ...]   # cascade layer sums, layers 2..L
    res_atom: tuple[float, ...]
    N_tot: tuple[float, ...]       # running totals, layers 1..L
    N_totInf: float | None         # case A only
    coh_a: float
    coh_f: float


def _scenario_case(cfg: ScenarioConfig) -> engine.ScenarioCase:
    return engine.ScenarioCase(
        cfg.case,
        mean_photon=cfg.mean_photon if cfg.case == "C" else None,
        alpha=cfg.alpha if cfg.case == "D" else None,
    )


def time_grid(cfg: ScenarioConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.t_max, cfg.n_points)


def chunk_points(field_dim: int, layers: int) -> int:
    """Time points per chunk, so the chunk's largest stack fits CHUNK_BYTES."""
    per_point = 2 ** (layers - 1) * field_dim**4 * np.dtype(complex).itemsize
    return max(1, CHUNK_BYTES // per_point)


def _evolved_chunks(cfg: ScenarioConfig, times: np.ndarray):
    """(times, joint, field, atom) state stacks over `times`, one chunk at a time."""
    rho0 = engine.initial_state(_scenario_case(cfg), cfg.field_dim)
    step = chunk_points(cfg.field_dim, cfg.layers)
    for start in range(0, len(times), step):
        ts = times[start:start + step]
        rho = engine.evolve(rho0, ts)
        yield (ts, rho, *engine.reduced_states(rho))


def run_scenario(cfg: ScenarioConfig) -> list[TimeSeriesRow]:
    """Evolve, reduce, and measure the scenario at every grid time.

    The grid is walked in time chunks; each stage is one batched call per chunk.
    """
    rows = []
    for ts, rho, rho_f, rho_a in _evolved_chunks(cfg, time_grid(cfg)):
        N_c = negativity(rho, engine.ATOM)
        field_rep = cascade(rho_f, cfg.layers)
        atom_rep = cascade(rho_a, cfg.layers)
        totals = [
            total_nonclassicality(N_c, field_rep, atom_rep, layer)
            for layer in range(1, cfg.layers + 1)
        ]
        n_inf = [None] * len(ts)
        if cfg.case == "A":
            n_inf = extrapolate_total(N_c, field_rep.layer_sums[0], atom_rep.layer_sums[0]).tolist()
        # per time point: field layer sums, atom layer sums, running totals
        f_sums, a_sums, tots = (
            np.stack(q, axis=-1).tolist()
            for q in (field_rep.layer_sums, atom_rep.layer_sums, totals)
        )
        coh_a, coh_f = l1_coherence(rho_a).tolist(), l1_coherence(rho_f).tolist()
        for k, (T, n_c, f, a) in enumerate(zip(ts.tolist(), N_c.tolist(), f_sums, a_sums)):
            rows.append(
                TimeSeriesRow(
                    T=T, N_c=n_c, N_f=f[0], N_a=a[0],
                    res_field=tuple(f[1:]), res_atom=tuple(a[1:]),
                    N_tot=tuple(tots[k]), N_totInf=n_inf[k], coh_a=coh_a[k], coh_f=coh_f[k],
                )
            )
    return rows


def csv_columns(layers: int) -> list[str]:
    cols = ["T", "N_c", "N_f", "N_a"]
    cols += [f"res_f_{n}" for n in range(2, layers + 1)]
    cols += [f"res_a_{n}" for n in range(2, layers + 1)]
    cols += [f"N_tot_{n}" for n in range(1, layers + 1)]
    cols += ["N_tot_inf", "coh_a", "coh_f"]
    return cols


def _fmt(x: float | None) -> str:
    return "" if x is None else format(x, ".15g")


def _row_values(row: TimeSeriesRow) -> list[float | None]:
    return (
        [row.T, row.N_c, row.N_f, row.N_a]
        + list(row.res_field)
        + list(row.res_atom)
        + list(row.N_tot)
        + [row.N_totInf, row.coh_a, row.coh_f]
    )


def write_outputs(rows: list[TimeSeriesRow], cfg: ScenarioConfig, runtime: float = 0.0):
    """Write <prefix>.csv and <prefix>.summary.json; returns the paths."""
    if not rows:
        raise ValueError("no rows to write")
    cols = csv_columns(cfg.layers)
    csv_path = cfg.output_prefix + ".csv"
    summary_path = cfg.output_prefix + ".summary.json"
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in _row_values(row)))
    try:
        with open(csv_path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write {csv_path}: {exc}") from exc

    table = [_row_values(r) for r in rows]
    extrema = {}
    for j, name in enumerate(cols):
        if name == "T":
            continue
        values = [r[j] for r in table]
        if all(v is None for v in values):
            continue
        vals = np.array(values, dtype=float)
        i_min, i_max = int(np.argmin(vals)), int(np.argmax(vals))
        extrema[name] = {
            "min": float(vals[i_min]),
            "min_T": rows[i_min].T,
            "max": float(vals[i_max]),
            "max_T": rows[i_max].T,
        }
    summary = {
        "config": asdict(cfg),
        "extrema": extrema,
        "min_N_tot_final": min(r.N_tot[-1] for r in rows),
        "runtime_seconds": runtime,
    }
    try:
        with open(summary_path, "w", newline="") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed to write {summary_path}: {exc}") from exc
    return csv_path, summary_path


def _max_err(pairs) -> float:
    return float(max(abs(a - b) for a, b in pairs)) if pairs else 0.0


def compare_with_oracle(rows: list[TimeSeriesRow], cfg: ScenarioConfig) -> dict:
    """Per-quantity max-abs-error of the engine against the closed forms."""
    quantities: dict[str, dict] = {}
    engine_only: list[str] = []
    notes: list[str] = []

    def add(name: str, err: float, tol: float):
        quantities[name] = {
            "max_abs_error": err,
            "tolerance": tol,
            "flagged": err > tol,
        }

    if cfg.case == "A":
        recs = [oracle.case_a(r.T) for r in rows]
        add("N_c", _max_err([(r.N_c, o.N_c) for r, o in zip(rows, recs)]), ORACLE_TOL_EXACT)
        add("N_f", _max_err([(r.N_f, o.N_f) for r, o in zip(rows, recs)]), ORACLE_TOL_EXACT)
        add("N_a", _max_err([(r.N_a, o.N_a) for r, o in zip(rows, recs)]), ORACLE_TOL_EXACT)
        add(
            "N_tot_1",
            _max_err([(r.N_tot[0], o.N_tot1) for r, o in zip(rows, recs)]),
            ORACLE_TOL_EXACT,
        )
        if cfg.layers >= 2:
            add(
                "res_f_2",
                _max_err([(r.res_field[0], 2.0 * o.N_f1) for r, o in zip(rows, recs)]),
                ORACLE_TOL_EXACT,
            )
            add(
                "res_a_2",
                _max_err([(r.res_atom[0], 2.0 * o.N_a1) for r, o in zip(rows, recs)]),
                ORACLE_TOL_EXACT,
            )
            add(
                "N_tot_2",
                _max_err([(r.N_tot[1], o.N_tot2) for r, o in zip(rows, recs)]),
                ORACLE_TOL_EXACT,
            )
        add(
            "N_tot_inf",
            _max_err([(r.N_totInf, o.N_totInf) for r, o in zip(rows, recs)]),
            ORACLE_TOL_EXACT,
        )
        engine_only += [f"res_f_{n}" for n in range(3, cfg.layers + 1)]
        engine_only += [f"res_a_{n}" for n in range(3, cfg.layers + 1)]
        engine_only += [f"N_tot_{n}" for n in range(3, cfg.layers + 1)]
    elif cfg.case == "B":
        freq = cfg.oracle_case_b_frequency
        recs = [oracle.case_b(r.T, freq) for r in rows]
        add("N_c", _max_err([(r.N_c, o.N_c) for r, o in zip(rows, recs)]), ORACLE_TOL_EXACT)
        add("N_a", _max_err([(r.N_a, o.N_a) for r, o in zip(rows, recs)]), ORACLE_TOL_EXACT)
        engine_only.append("N_f")  # no closed form published
        if abs(freq - oracle.CASE_B_RATE_ENGINE) > 1e-12:
            notes.append(
                f"as-printed paper formula: oracle frequency {freq:.12g} differs "
                f"from the engine doublet rate sqrt(2); mismatches are expected"
            )
    else:
        if cfg.case == "C":
            field0 = engine.truncated_thermal(cfg.mean_photon, cfg.field_dim)
            w = np.real(np.diag(field0.matrix))
            closed = lambda T: oracle.case_c_reduced(T, float(w[0]), float(w[1]))
        else:
            field0 = engine.truncated_coherent(cfg.alpha, cfg.field_dim)
            c = np.real(field0.amplitudes)
            closed = lambda T: oracle.case_d_reduced(T, float(c[0]), float(c[1]))
        err_a = err_f = 0.0
        for ts, _, rho_f, rho_a in _evolved_chunks(cfg, np.array([r.T for r in rows])):
            atom_o, field_o = (np.array(m) for m in zip(*map(closed, ts.tolist())))
            err_a = max(err_a, float(np.max(np.abs(rho_a.matrix - atom_o))))
            err_f = max(err_f, float(np.max(np.abs(rho_f.matrix[:, :3, :3] - field_o))))
        add("atom_reduced", err_a, ORACLE_TOL_REDUCED)
        add("field_reduced", err_f, ORACLE_TOL_REDUCED)
        engine_only += ["N_c", "N_f", "N_a"]
        engine_only += [f"res_f_{n}" for n in range(2, cfg.layers + 1)]
        engine_only += [f"res_a_{n}" for n in range(2, cfg.layers + 1)]
    return {
        "case": cfg.case,
        "quantities": quantities,
        "engine_only": engine_only,
        "notes": notes,
        "any_flagged": any(q["flagged"] for q in quantities.values()),
    }


def write_oracle_report(report: dict, cfg: ScenarioConfig) -> str:
    path = cfg.output_prefix + ".oracle.json"
    try:
        with open(path, "w", newline="") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc
    return path


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="jcnc",
        description="Jaynes-Cummings nonclassicality scenario runner",
    )
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--case", choices=CASES)
    p.add_argument("--field-dim", type=int, dest="field_dim")
    p.add_argument("--mean-photon", type=float, dest="mean_photon")
    p.add_argument("--alpha", type=float)
    p.add_argument("--t-max", type=float, dest="t_max")
    p.add_argument("--n-points", type=int, dest="n_points")
    p.add_argument("--layers", type=int)
    p.add_argument(
        "--oracle-compare",
        action=argparse.BooleanOptionalAction,
        dest="oracle_compare",
    )
    p.add_argument(
        "--oracle-case-b-frequency", type=float, dest="oracle_case_b_frequency"
    )
    p.add_argument("--output-prefix", dest="output_prefix")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        values: dict = {}
        if args.config:
            try:
                with open(args.config) as fh:
                    text = fh.read()
            except OSError as exc:
                print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
                return EXIT_CONFIG
            parsed = json.loads(text) if text.strip() else {}
            if not isinstance(parsed, dict):
                raise ConfigError("config document must be a JSON object")
            values.update(parsed)
        for key in _CONFIG_KEYS:
            v = getattr(args, key, None)
            if v is not None:
                values[key] = v
        cfg = parse_config(values)
    except (ConfigError, json.JSONDecodeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    start = time.perf_counter()
    try:
        rows = run_scenario(cfg)
    except (StateValidationError, np.linalg.LinAlgError) as exc:
        print(f"numerical validation failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    runtime = time.perf_counter() - start

    try:
        csv_path, summary_path = write_outputs(rows, cfg, runtime)
        written = [csv_path, summary_path]
        if cfg.oracle_compare:
            report = compare_with_oracle(rows, cfg)
            written.append(write_oracle_report(report, cfg))
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    print("wrote " + ", ".join(written))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
