"""smallcox benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 55 --trace 0

Run from anywhere; the program is taken from ``src`` next to this
directory.  The run first imports ``smallcox.cli`` once untimed (so
``.pyc`` files are warm), then runs the workload in a fresh
interpreter (``worker.py``), closed loop, one job at a time.  Set-up is
timed in fresh interpreters before and after the workload.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
Diagnostics go to stderr.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh interpreters timed for set-up figures, both before and after the
# workload so that they span the run; the median of all is kept.
SETUP_SAMPLES = 5
# A run must end within 180 s; keep a margin for set-up and reporting.
RUN_LIMIT_S = 170.0

IMPORT_TIMER = ("import time; t = time.perf_counter(); import smallcox.cli; "
                "print(time.perf_counter() - t)")


def child_env() -> dict:
    """One thread, warm bytecode, and only this checkout's ``smallcox``."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def python(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout,
                          check=True)


def setup_seconds(env: dict) -> list[float]:
    """Times a fresh interpreter takes to import ``smallcox.cli``."""
    return [float(python(["-c", IMPORT_TIMER], env, 30).stdout)
            for _ in range(SETUP_SAMPLES)]


def numpy_import_seconds(env: dict) -> float:
    """Median cumulative import time of numpy from ``-X importtime``
    (0 when ``smallcox.cli`` no longer imports numpy)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        err = python(["-X", "importtime", "-c", "import smallcox.cli"],
                     env, 30).stderr
        cumulative = [int(line.split("|")[1]) for line in err.splitlines()
                      if line.startswith("import time:")
                      and line.split("|")[-1].strip() == "numpy"]
        samples.append(cumulative[0] / 1e6 if cumulative else 0.0)
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong", action="store_true",
                        help="corrupt one expected value; the run must then "
                             "report a failure")
    args = parser.parse_args()

    if not (SRC / "smallcox" / "cli.py").is_file():
        print(f"error: no smallcox sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    env = child_env()
    try:
        python(["-c", "import smallcox.cli"], env, 60)  # compile .pyc, untimed
        if args.trace:
            setup = ("setup.numpy_import_s", numpy_import_seconds(env))
        else:
            setup_samples = setup_seconds(env)
        worker = [str(HERE / "worker.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)]
        if args.inject_wrong:
            worker.append("--inject-wrong")
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        done = subprocess.run([sys.executable, *worker], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=budget, check=True)
        if not args.trace:
            setup_samples += setup_seconds(env)
            setup = ("setup_s", statistics.median(setup_samples))
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc}\n{exc.stderr or ''}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["metrics"][setup[0]] = {"value": setup[1], "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
