#!/usr/bin/env python3
"""Benchmark of the stockcast pipeline, driven through its CLI in-process.

    python3 perfbench/run.py --workload neural --seed 1 --seconds 45 --trace 0

Run it from the root of a stockcast checkout; it needs no build. It
generates its inputs from --seed under .perfbench/ in the checkout, sets
up, then runs the workload's commands in a closed loop for --seconds.
With --trace 1 it alternates untraced and traced cycles and reports the
per-layer metrics instead of the end-to-end ones. The lines before the
last describe the host, the inputs, sample counts and failures; the last
line is the JSON result. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

REQUIRED = ("BENCHMARK.json", "src/stockcast/cli.py", "tools/make_sample_data.py")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("neural", "classical"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _openblas_runtime() -> dict:
    """Thread count and build string of the OpenBLAS that numpy loaded."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return {"threads": threads(), "config": config().decode()}
    return {"threads": None, "config": None}


def host_record(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "openblas": _openblas_runtime(),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"perfbench: not a stockcast checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # before numpy loads: one caller, one BLAS thread. Extra BLAS threads on
    # a shared host measure the scheduler, not the program.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(root / "src"))

    from workloads import WORKLOADS, measure

    work = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        found = measure(root, work, WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    session = found["session"]

    host = host_record(nproc)
    threads = host["openblas"]["threads"]
    session.attempted += 1
    if threads is None or threads > nproc:
        session.fail(f"OpenBLAS threads {threads} not within nproc {nproc}")
    package = Path(sys.modules["stockcast"].__file__).resolve().parent
    session.attempted += 1
    if package != (root / "src" / "stockcast").resolve():
        session.fail(f"imported stockcast from {package}, not from this checkout")

    print(json.dumps({"host": host, "inputs": found["manifest"]}))
    print(json.dumps({
        "samples": found["samples"],
        "rmse_vs_persistence": found["rmse_vs_persistence"],
        "failed_ratio": session.failed / session.attempted,
        "failures": session.reasons,
    }))
    # BENCHMARK.json names the metrics and their units; report exactly those
    declared = json.loads((root / "BENCHMARK.json").read_text())
    names = declared["per_layer" if args.trace else "end_to_end"]
    measured = found["metrics"]
    if {m["name"] for m in names} != set(measured):
        raise RuntimeError(f"measured {sorted(measured)} but BENCHMARK.json declares "
                           f"{sorted(m['name'] for m in names)}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
