"""Print every benchmark metric, with its unit, for every workload.

    python3 perfbench/report.py [--seed 1] [--seconds 55]

Runs ``run.py`` once untraced and once traced per workload, one after
the other, and prints the end-to-end metrics plus ``fail_frac``, then
the per-layer metrics with the tracing overhead.  Exits 1 when any job
gave a wrong answer or failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def table(results: dict[str, dict]) -> None:
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':52s} {'unit':6s}" + "".join(f"{w:>13s}" for w in results))
    for name in names:
        unit = next(iter(results.values()))["metrics"][name]["unit"]
        cells = "".join(
            f"{r['metrics'][name]['value']:13.4f}" if name in r["metrics"]
            else f"{'absent':>13s}" for r in results.values())
        print(f"{name:52s} {unit:6s}{cells}")
    cells = "".join(f"{r['failed'] / r['attempted']:13.4f}"
                    for r in results.values())
    print(f"{'fail_frac':52s} {'1':6s}{cells}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    args = parser.parse_args()
    correct = True
    for trace in (0, 1):
        results = {w: run(w, args.seed, args.seconds, trace) for w in WORKLOADS}
        correct &= all(r["correct"] for r in results.values())
        print("\nend to end (untraced)" if trace == 0 else
              "\nper layer (traced run; trace.overhead_s = traced wall_s "
              "minus untraced wall_s)")
        table(results)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
