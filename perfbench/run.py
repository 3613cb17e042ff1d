"""Benchmark of ``triequiv``: decide seeded pairs, verify every answer, report metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload generic-lu --seed 1 --seconds 40 --trace 0

Each measurement runs in fresh interpreters (``worker.py``) with the BLAS and
OpenMP thread pools pinned to one thread and the checkout's ``src`` first on
the path.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Every metric is printed
by name with its unit; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("generic-lu", "nongeneric", "cli-batch")
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
CHILD_TIMEOUT_S = 160


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def launch(args, mode: str, env: dict, workdir: Path, timeout: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--mode", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    launched = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [*cmd, "--launched-ns", str(launched)],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker --mode {mode} exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_unit(name: str) -> str:
    if name.endswith("calls"):
        return "calls/pair"
    if name.endswith("gflop"):
        return "GFLOP/pair"
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_frac"):
        return "ratio"
    return "ms/pair"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "triequiv" / "__init__.py").is_file():
        print(f"error: {root} holds no src/triequiv to benchmark", file=sys.stderr)
        return 2
    env = child_env(root)
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}"
    try:
        if not args.trace:
            # Fills the file and bytecode caches for the counted setup launches.
            launch(args, "setup", env, workdir, 60)
        result = launch(args, "measure", env, workdir, CHILD_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in result["layers"].items()
        }
        metrics["host.calib_ms"] = {"value": result["calib_ms"]["median"], "unit": "ms"}
    else:
        metrics = result["metrics"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "threads": {var: env[var] for var in THREAD_VARS},
        "versions": result["versions"],
        "host.calib_ms": result["calib_ms"],
        **{
            key: result[key]
            for key in (
                "passes", "traced_passes", "samples", "setup_samples_s",
                "inconclusive_by_class", "failed_by_class", "classes", "per_class",
            )
            if key in result
        },
    }
    print("info " + json.dumps(info, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:14.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
