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
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import engine, oracle
from .hilbert import StateValidationError, l1_coherence, negativity
from .nonclassicality import MAX_CASCADE_LAYERS, cascade, extrapolate_total, total_nonclassicality

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

ORACLE_TOL_EXACT = 1e-9      # cases A and B (closed forms are exact)
ORACLE_TOL_REDUCED = 1e-8    # cases C and D (reduced-matrix transcriptions)

# Byte budget of the largest stack of a time chunk: point_bytes per time
# point, on the cascade path the case takes, at any depth. Each chunk pays a
# fixed numpy dispatch cost per stage, which 64 KiB chunks did not amortize;
# 512 KiB on the dense path, or 1,024-point chunks on the photon-number path
# at field_dim 3, raised peak memory.
CHUNK_BYTES = 256 * 1024

# Largest single array a run allocates: the (n_points, n_columns) result
# array, or, by guard_bytes, one time point's largest array (a chunk holds
# at least one point) and the cascade path's cached gather tables. A config
# above it is refused before anything is allocated.
MAX_ARRAY_BYTES = 64 * 1024**2


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


_CONFIG_KEYS = {f.name for f in fields(ScenarioConfig)}


def _require_number(values: dict, key: str, default: float | None = None) -> float | None:
    if key not in values:
        return default
    v = values[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"field {key!r}: expected a number, got {v!r}")
    try:
        number = float(v)
    except OverflowError:   # a JSON integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"field {key!r}: must be finite, got {v!r}")
    return number


def _require_int(values: dict, key: str, default: int) -> int:
    v = values.get(key, default)
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"field {key!r}: expected an integer, got {v!r}")
    return v


def _document(source) -> dict:
    """The values of a config document: JSON text, where an empty or
    whitespace-only text is the empty object, or a mapping."""
    if not isinstance(source, str):
        return dict(source)
    try:
        values = json.loads(source) if source.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config document: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError("config document must be a JSON object")
    return values


def parse_config(source) -> ScenarioConfig:
    """Validate a JSON document (text or dict) into a ScenarioConfig.

    The case and its parameters are judged by engine.ScenarioCase.
    """
    values = {k: v for k, v in _document(source).items() if v is not None}
    unknown = set(values) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "case" not in values:
        raise ConfigError("field 'case' is required")
    mean_photon = _require_number(values, "mean_photon")
    alpha = _require_number(values, "alpha")
    try:
        scenario = engine.ScenarioCase(str(values["case"]).upper(), mean_photon, alpha)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    case = scenario.case
    field_dim = _require_int(values, "field_dim", scenario.min_field_dim)
    if field_dim < scenario.min_field_dim:
        raise ConfigError(
            f"field 'field_dim': case {case} needs >= {scenario.min_field_dim}, got {field_dim}"
        )

    t_max = _require_number(values, "t_max", 2.0 * math.pi)
    if t_max <= 0:
        raise ConfigError(f"field 't_max': must be > 0, got {t_max}")
    n_points = _require_int(values, "n_points", 401)
    if n_points < 2:
        raise ConfigError(f"field 'n_points': must be >= 2, got {n_points}")
    layers = _require_int(values, "layers", 2)
    if not 1 <= layers <= MAX_CASCADE_LAYERS:
        raise ConfigError(f"field 'layers': must be in [1, {MAX_CASCADE_LAYERS}], got {layers}")
    need = guard_bytes(field_dim, scenario.fock_diagonal)
    if need > MAX_ARRAY_BYTES:
        raise ConfigError(
            f"field 'field_dim': case {case} at {field_dim} needs a {need}-byte "
            f"array or gather table, above the {MAX_ARRAY_BYTES}-byte limit"
        )
    # the result array holds at most one float column per CSV column
    result_bytes = n_points * len(csv_columns(layers)) * np.dtype(float).itemsize
    if result_bytes > MAX_ARRAY_BYTES:
        raise ConfigError(
            f"field 'n_points': {n_points} points at {layers} layers need a "
            f"{result_bytes}-byte result array, above the {MAX_ARRAY_BYTES}-byte limit"
        )
    oracle_compare = values.get("oracle_compare", False)
    if not isinstance(oracle_compare, bool):
        raise ConfigError(f"field 'oracle_compare': expected a boolean, got {oracle_compare!r}")
    freq = _require_number(values, "oracle_case_b_frequency", oracle.CASE_B_RATE_ENGINE)
    if freq <= 0:
        raise ConfigError(f"field 'oracle_case_b_frequency': must be > 0, got {freq}")
    # every run evaluates the closed forms, whose largest phase is 4 * max(1, freq) * t_max
    if not math.isfinite(4.0 * max(1.0, freq) * t_max):
        raise ConfigError("fields 't_max', 'oracle_case_b_frequency': closed-form phase overflows")
    output_prefix = values.get("output_prefix", "scenario")
    if not isinstance(output_prefix, str):
        raise ConfigError(f"field 'output_prefix': expected a string, got {output_prefix!r}")

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


def time_grid(cfg: ScenarioConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.t_max, cfg.n_points)


def point_bytes(field_dim: int, diagonal: bool) -> int:
    """Bytes of one time point's largest array on a cascade path. A dense
    layer gathers the beam-splitter output's partial transpose, a d^2 x d^2
    complex matrix. The photon-number path (`diagonal`, see
    engine.ScenarioCase.fock_diagonal) forms no d^4 array; its largest is
    the (2d) x (2d) complex composite state."""
    values = (2 * field_dim) ** 2 if diagonal else field_dim**4
    return values * np.dtype(complex).itemsize


def guard_bytes(field_dim: int, diagonal: bool) -> int:
    """Bytes that MAX_ARRAY_BYTES bounds for a field on a cascade path:
    point_bytes, or the path's cached gather tables where they hold more.
    Each dense table is half a point's partial transpose. The photon-number
    path caches an index and a coefficient array for each of its d blocks,
    m x m for m = 1..d, sum m^2 * 16 ~ 5.3 d^3 bytes in all, which
    outgrows point_bytes from field_dim 11 on."""
    if not diagonal:
        return point_bytes(field_dim, False)
    entries = field_dim * (field_dim + 1) * (2 * field_dim + 1) // 6
    table_bytes = entries * (np.dtype(np.intp).itemsize + np.dtype(float).itemsize)
    return max(point_bytes(field_dim, True), table_bytes)


def chunk_points(field_dim: int, diagonal: bool) -> int:
    """Time points per chunk, so the chunk's largest stack fits CHUNK_BYTES."""
    return max(1, CHUNK_BYTES // point_bytes(field_dim, diagonal))


@dataclass(frozen=True)
class ScenarioResult:
    """The time series of one run, as columns, and its closed-form check.

    `values` holds one row per grid time and one column per name in
    `columns`: the CSV columns, with `N_tot_inf` present for case A only.
    `oracle_errors` holds the max-abs error of each quantity that has a
    closed form against it: CSV columns in cases A and B, the reduced atom
    and field states in cases C and D at `field_dim` 3, nothing otherwise.
    """

    columns: tuple[str, ...]
    values: np.ndarray
    oracle_errors: dict[str, float]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]


def _closed_forms(cfg: ScenarioConfig):
    """T -> {quantity name: closed-form value}, or None where none applies.

    Names are CSV columns in cases A and B, and `atom_reduced`/
    `field_reduced` in cases C and D, whose closed forms describe a
    three-level field.
    """
    if cfg.case == "A":
        def closed(T):
            o = oracle.case_a(T)
            return {"N_c": o.N_c, "N_f": o.N_f, "N_a": o.N_a, "N_tot_1": o.N_tot1,
                    "res_f_2": 2.0 * o.N_f1, "res_a_2": 2.0 * o.N_a1, "N_tot_2": o.N_tot2,
                    "N_tot_inf": o.N_totInf}
        return closed
    if cfg.case == "B":
        def closed(T):
            o = oracle.case_b(T, cfg.oracle_case_b_frequency)
            return {"N_c": o.N_c, "N_a": o.N_a}
        return closed
    if cfg.field_dim != 3:
        return None
    if cfg.case == "C":
        w = np.real(np.diag(engine.truncated_thermal(cfg.mean_photon, 3).matrix))
        reduced = lambda T: oracle.case_c_reduced(T, float(w[0]), float(w[1]))
    else:
        # initial_state has already warned about any truncation loss
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            c = np.real(engine.truncated_coherent(cfg.alpha, 3).amplitudes)
        reduced = lambda T: oracle.case_d_reduced(T, float(c[0]), float(c[1]))
    return lambda T: dict(zip(("atom_reduced", "field_reduced"), reduced(T)))


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Evolve, reduce, and measure the scenario at every grid time.

    The grid is walked once, in time chunks; each stage is one batched call
    per chunk. Each chunk's quantities are named once, and those with a
    closed form are checked against it on the way.
    """
    columns = csv_columns(cfg.layers)
    if cfg.case != "A":
        columns.remove("N_tot_inf")
    times = time_grid(cfg)
    values = np.empty((len(times), len(columns)))
    closed = _closed_forms(cfg)
    errors: dict[str, float] = {}
    scenario = engine.ScenarioCase(cfg.case, cfg.mean_photon, cfg.alpha)
    rho0 = engine.initial_state(scenario, cfg.field_dim)
    step = chunk_points(cfg.field_dim, scenario.fock_diagonal)
    for start in range(0, len(times), step):
        ts = times[start:start + step]
        rho = engine.evolve(rho0, ts)
        rho_f, rho_a = engine.reduced_states(rho)
        N_c = negativity(rho, engine.ATOM)
        field_rep = cascade(rho_f, cfg.layers)
        atom_rep = cascade(rho_a, cfg.layers)
        f_sums, a_sums = field_rep.layer_sums, atom_rep.layer_sums
        q = {"T": ts, "N_c": N_c, "N_f": f_sums[0], "N_a": a_sums[0]}
        q |= {f"res_f_{n}": s for n, s in enumerate(f_sums[1:], 2)}
        q |= {f"res_a_{n}": s for n, s in enumerate(a_sums[1:], 2)}
        q |= {
            f"N_tot_{n}": total_nonclassicality(N_c, field_rep, atom_rep, n)
            for n in range(1, cfg.layers + 1)
        }
        q["N_tot_inf"] = extrapolate_total(N_c, f_sums[0], a_sums[0])
        q["coh_a"], q["coh_f"] = l1_coherence(rho_a), l1_coherence(rho_f)
        q["atom_reduced"], q["field_reduced"] = rho_a.matrix, rho_f.matrix
        values[start:start + step] = np.stack([q[c] for c in columns], axis=-1)
        if closed is not None:
            for name, want in closed(ts).items():
                if name in q:
                    err = float(np.max(np.abs(q[name] - want)))
                    errors[name] = max(errors.get(name, 0.0), err)
    return ScenarioResult(tuple(columns), values, errors)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc


def csv_columns(layers: int) -> list[str]:
    cols = ["T", "N_c", "N_f", "N_a"]
    cols += [f"res_f_{n}" for n in range(2, layers + 1)]
    cols += [f"res_a_{n}" for n in range(2, layers + 1)]
    cols += [f"N_tot_{n}" for n in range(1, layers + 1)]
    cols += ["N_tot_inf", "coh_a", "coh_f"]
    return cols


def write_outputs(result: ScenarioResult, cfg: ScenarioConfig, runtime: float = 0.0):
    """Write <prefix>.csv and <prefix>.summary.json; returns the paths."""
    if len(result.values) == 0:
        raise ValueError("no rows to write")
    cols = csv_columns(cfg.layers)
    csv_path = cfg.output_prefix + ".csv"
    summary_path = cfg.output_prefix + ".summary.json"
    # a column the result does not hold (N_tot_inf outside case A) stays empty
    template = ",".join("%.15g" if name in result.columns else "" for name in cols)
    lines = [",".join(cols)] + [template % tuple(row) for row in result.values.tolist()]
    _write(csv_path, "\n".join(lines) + "\n")

    times = result.column("T")
    extrema = {}
    for name, vals in zip(result.columns, result.values.T):
        if name == "T":
            continue
        i_min, i_max = int(np.argmin(vals)), int(np.argmax(vals))
        extrema[name] = {
            "min": float(vals[i_min]),
            "min_T": float(times[i_min]),
            "max": float(vals[i_max]),
            "max_T": float(times[i_max]),
        }
    summary = {
        "config": asdict(cfg),
        "extrema": extrema,
        "min_N_tot_final": float(np.min(result.column(f"N_tot_{cfg.layers}"))),
        "runtime_seconds": runtime,
    }
    _write(summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return csv_path, summary_path


def compare_with_oracle(result: ScenarioResult, cfg: ScenarioConfig) -> dict:
    """Report the max-abs errors against the closed forms that the run kept."""
    tol = ORACLE_TOL_EXACT if cfg.case in ("A", "B") else ORACLE_TOL_REDUCED
    errors = result.oracle_errors
    quantities = {
        name: {"max_abs_error": err, "tolerance": tol, "flagged": not err <= tol}
        for name, err in errors.items()
    }
    engine_only = [name for name in result.columns if name != "T" and name not in errors]
    notes: list[str] = []
    freq = cfg.oracle_case_b_frequency
    if cfg.case == "B" and abs(freq - oracle.CASE_B_RATE_ENGINE) > 1e-12:
        notes.append(
            f"as-printed paper formula: oracle frequency {freq:.12g} differs "
            f"from the engine doublet rate sqrt(2); mismatches are expected"
        )
    if cfg.case in ("C", "D") and "atom_reduced" not in errors:
        engine_only += ["atom_reduced", "field_reduced"]
        notes.append(
            f"the closed-form reduced matrices describe a three-level field; "
            f"at field_dim {cfg.field_dim} the truncated state also populates "
            f"higher levels, so atom_reduced and field_reduced are not compared"
        )
    return {
        "case": cfg.case,
        "quantities": quantities,
        "engine_only": engine_only,
        "notes": notes,
        "any_flagged": any(q["flagged"] for q in quantities.values()),
    }


def write_oracle_report(report: dict, cfg: ScenarioConfig) -> str:
    path = cfg.output_prefix + ".oracle.json"
    _write(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="jcnc",
        description="Jaynes-Cummings nonclassicality scenario runner",
    )
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--case", choices=engine.ScenarioCase.CASES)
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
            values = _document(text)
        flags = vars(args)
        values.update((k, flags[k]) for k in _CONFIG_KEYS if flags[k] is not None)
        cfg = parse_config(values)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    start = time.perf_counter()
    try:
        result = run_scenario(cfg)
    except (StateValidationError, np.linalg.LinAlgError) as exc:
        print(f"numerical validation failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    runtime = time.perf_counter() - start

    try:
        csv_path, summary_path = write_outputs(result, cfg, runtime)
        written = [csv_path, summary_path]
        if cfg.oracle_compare:
            report = compare_with_oracle(result, cfg)
            written.append(write_oracle_report(report, cfg))
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    print("wrote " + ", ".join(written))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
