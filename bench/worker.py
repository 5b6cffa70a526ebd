"""Measuring process of the benchmark: runs one workload in-process.

Started by ``run.py`` as a fresh interpreter, with the BLAS thread count
already fixed in its environment. It imports ``jcnc`` from the checkout's
``src/``, makes one 2-point warm-up call, then calls ``jcnc.cli.main``
back to back with the full grid until the time budget is spent, and
writes the call times and machine facts as JSON. With tracing on, one
more call runs with the tracer installed.

Usage: python3 bench/worker.py SPEC.json RESULT.json
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import SETUP_POINTS, WORKLOADS

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_OPENBLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads_in_effect(numpy) -> int | None:
    """Ask the OpenBLAS bundled with numpy for its thread count, if it has one."""
    root = Path(numpy.__file__).parent
    for lib in glob.glob(str(root.parent / "numpy.libs" / "*openblas*")) + glob.glob(
        str(root / ".libs" / "*openblas*")
    ):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _OPENBLAS_THREAD_QUERIES:
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def machine_facts(numpy) -> dict:
    blas = {}
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_threads_in_effect": blas_threads_in_effect(numpy),
    }


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import numpy
    import jcnc
    from jcnc import cli

    if src not in Path(jcnc.__file__).resolve().parents:
        print(f"worker: imported jcnc from {jcnc.__file__}, not from {src}", file=sys.stderr)
        return 2

    wl = WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    out = spec["out_dir"]

    def call(prefix: str, n_points: int | None = None):
        args = wl.cli_args(seed, prefix, n_points)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = cli.main(args)
            dt = time.perf_counter() - t0
        return {"prefix": prefix, "exit_code": rc, "seconds": dt}

    result = {"facts": machine_facts(numpy), "warmup": call(f"{out}/warmup", SETUP_POINTS)}

    # Never start a call that is predicted to end past the budget, but make
    # at least min_calls full-grid calls.
    calls = []
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        calls.append(call(f"{out}/call{len(calls)}"))
        predicted = statistics.median(c["seconds"] for c in calls)
        if len(calls) >= spec["min_calls"] and time.perf_counter() + predicted > deadline:
            break
    result["calls"] = calls
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if spec["trace"]:
        import metrics
        import tracer

        tr = tracer.trace_jcnc()
        try:
            traced = call(f"{out}/traced")
        finally:
            tr.uninstall()
        tr.dump(spec["spans_path"])
        written = sum(
            os.path.getsize(traced["prefix"] + ext)
            for ext in (".csv", ".summary.json", ".oracle.json")
            if os.path.exists(traced["prefix"] + ext)
        )
        untraced = statistics.median(c["seconds"] for c in calls)
        result["traced"] = traced
        result["absent"] = sorted(set(metrics.TRACED_SPANS) - set(tr.wrapped))
        result["per_layer"] = metrics.per_layer(tr, traced["seconds"], untraced, written)

    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:3]))
