"""jcnc benchmark: one workload, measured end to end or traced layer by layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload cascade_deep --seed 1 --seconds 40 --trace 0

Runs ``jcnc`` from the checkout's ``src/`` in fresh child processes with a
single-threaded BLAS, checks every output, prints one line of details
(seed, arguments, machine facts, samples, failed checks) and then, as the
last line, the result object ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics. See bench/README.md for how to read them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from checks import CheckLog, check_call
from metrics import END_TO_END
from workloads import SETUP_POINTS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

# Fresh processes whose median wall time is setup_s.
SETUP_REPEATS = 5
# Every child must be gone well before the 180 s a run may take.
RUN_BUDGET_S = 170.0
BLAS_THREADS = "1"

# What the installed `jcnc` console script runs.
SETUP_CODE = "import sys; from jcnc.cli import main; sys.exit(main(sys.argv[1:]))"


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(src),
        # same string hashing, hence same set and dict layouts, in every run
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    return env


def time_left(started: float) -> float:
    return RUN_BUDGET_S - (time.perf_counter() - started)


def run_child(cmd: list[str], env: dict, started: float, **kwargs) -> tuple[int, float]:
    """Exit code and wall time of a child process, killed when the run's budget ends.

    Popen.wait(timeout) polls in steps of up to 50 ms, which would quantize
    the set-up times; a blocking wait with a kill timer does not.
    """
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, **kwargs) as proc:
        timer = threading.Timer(max(1.0, time_left(started)), proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
    return code, time.perf_counter() - t0


def measure_setup(wl, seed, tmp: Path, env, log: CheckLog, started: float) -> list[float]:
    """Wall times of fresh processes running the scenario on a 2-point grid."""
    small = dataclasses.replace(wl, n_points=SETUP_POINTS)
    times, reference = [], None
    for i in range(SETUP_REPEATS):
        prefix = str(tmp / f"setup{i}")
        code, seconds = run_child(
            [sys.executable, "-c", SETUP_CODE, *small.cli_args(seed, prefix)],
            env,
            started,
            stdout=subprocess.DEVNULL,
        )
        times.append(seconds)
        csv = check_call(prefix, code, small, log, reference)
        reference = reference if reference is not None else csv
    return times


def run_worker(spec: dict, tmp: Path, env, started: float) -> dict:
    spec_path, result_path = tmp / "spec.json", tmp / "result.json"
    spec_path.write_text(json.dumps(spec))
    code, _ = run_child(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)],
        env,
        started,
    )
    if code != 0:
        raise RuntimeError(f"measuring process exited with code {code}")
    return json.loads(result_path.read_text())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "jcnc" / "cli.py").is_file():
        print(f"bench: no jcnc sources under {src}; run from a checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    wl = WORKLOADS[args.workload]
    env = child_env(src)
    log = CheckLog()
    traces = ROOT / ".bench_traces"
    if args.trace:
        traces.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp_name:
        tmp = Path(tmp_name)
        spec = {
            "src": str(src),
            "workload": wl.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "out_dir": str(tmp),
            # the traced call's CSV is the second same-seed CSV of a traced run
            "min_calls": 1 if args.trace else 2,
            "trace": bool(args.trace),
            "spans_path": str(traces / f"{wl.name}-seed{args.seed}.spans.tsv.gz"),
        }
        try:
            setup_times = [] if args.trace else measure_setup(wl, args.seed, tmp, env, log, started)
            result = run_worker(spec, tmp, env, started)
        except (RuntimeError, OSError, ValueError) as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        warm = result["warmup"]
        small = dataclasses.replace(wl, n_points=SETUP_POINTS)
        check_call(warm["prefix"], warm["exit_code"], small, log, None)
        full = result["calls"] + ([result["traced"]] if args.trace else [])
        reference = None
        for c in full:
            csv = check_call(c["prefix"], c["exit_code"], wl, log, reference)
            reference = reference if reference is not None else csv

    scenario = [c["seconds"] for c in result["calls"]]
    if args.trace:
        metrics = result["per_layer"]
    else:
        values = {
            "scenario_s": statistics.median(scenario),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}

    details = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jcnc_args": wl.cli_args(args.seed, "<prefix>"),
        "machine": result["facts"],
        "samples": {"scenario_s": scenario, "setup_s": setup_times, "warmup_s": warm["seconds"]},
        "failed_frac": log.failed / log.attempted,
        "failures": log.failures[:20],
    }
    if args.trace:
        details["absent"] = result["absent"]
        details["spans"] = str(Path(spec["spans_path"]).relative_to(ROOT))
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": log.failed == 0,
                "attempted": log.attempted,
                "failed": log.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
