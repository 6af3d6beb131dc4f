"""Runs one workload in this interpreter and prints its result line.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path.
Every job is one in-process call of ``smallcox.cli.dispatch`` with
``--json``; stdout and stderr are captured per job and checked against
the oracle after the pass, outside the timed span.

Untraced (``--trace 0``): the job list runs in a cycle, job after job,
for ``--seconds``; at least one full pass always runs.  Each metric is
built from every job's mean time over the run, so it averages over the
whole run.  Traced (``--trace 1``): one untraced pass, then one traced
pass; the difference of their wall times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import oracle
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class JobResult:
    job: dict
    seconds: float
    cpu: float
    code: object  # exit status, or None when dispatch raised
    stdout: str
    error: str


@dataclass
class Pass:
    wall: float
    cpu: float
    results: list[JobResult]


def run_job(cli, job: dict, work: Path) -> JobResult:
    argv = [a.replace("{work}", str(work)) for a in job["argv"]] + ["--json"]
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    code: object = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.dispatch(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:
            traceback.print_exc()
    return JobResult(job, time.perf_counter() - t0, time.process_time() - c0,
                     code, out.getvalue(), err.getvalue())


def run_pass(cli, jobs: list[dict], work: Path, tracer=None) -> Pass:
    gc.collect()
    results = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        results.append(run_job(cli, job, work))
    return Pass(time.perf_counter() - wall0, time.process_time() - cpu0,
                results)


def run_cycle(cli, jobs: list[dict], work: Path, seconds: float) -> list[JobResult]:
    """Jobs in list order, wrapping round, until ``seconds`` are used.

    After the first full pass, the run stops at the first job that its
    last time says would not end within ``seconds``.
    """
    gc.collect()
    results: list[JobResult] = []
    start = time.perf_counter()
    while True:
        job = jobs[len(results) % len(jobs)]
        if len(results) >= len(jobs):
            last = results[-len(jobs)].seconds
            if time.perf_counter() - start + last > seconds:
                return results
        results.append(run_job(cli, job, work))


def failures(results: list[JobResult], size: int) -> list[tuple[int, str]]:
    """(job id, reason) for every job result that did not succeed.

    ``results`` are passes of ``size`` jobs in the same order, the last
    one possibly cut short.  A relation to a partner job is checked
    against the partner's output in the same pass, or in the pass
    before when the last pass ended before the partner ran.
    """
    bad: list[tuple[int, str]] = []
    outputs: dict = {}
    for k in range(0, len(results), size):
        bad += _pass_failures(results[k:k + size], outputs)
    return bad


def _pass_failures(results: list[JobResult], outputs: dict) -> list[tuple[int, str]]:
    bad = []
    for r in results:
        outputs.pop(r.job["id"], None)
        if r.code is None:
            bad.append((r.job["id"], "exception: " + r.error.strip()[-300:]))
        elif r.code != 0:
            bad.append((r.job["id"], f"exit {r.code}: {r.error.strip()[-300:]}"))
        else:
            try:
                outputs[r.job["id"]] = json.loads(r.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                bad.append((r.job["id"], "stdout is not one JSON object"))
    for r in results:
        out = outputs.get(r.job["id"])
        if out is not None:
            reason = oracle.check(r.job, out, outputs)
            if reason:
                bad.append((r.job["id"], "wrong answer: " + reason))
    return bad


def write_inputs(jobs: list[dict], work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        for name, text in job.get("files", {}).items():
            (work / name).write_text(text)


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, jobs: list[dict]) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"python": sys.version.split()[0], "commit": commit(),
            "nproc": os.cpu_count(), "numpy": numpy_version,
            "workload": args.workload, "seed": args.seed,
            "jobs": len(jobs), "job_list_sha256": workloads.digest(jobs)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inject-wrong", action="store_true")
    args = parser.parse_args()

    import smallcox.cli as cli

    jobs = workloads.build(args.workload, args.seed)
    env = environment(args, jobs)
    if args.inject_wrong:
        env["injected_wrong_expectation_job"] = oracle.inject_wrong(jobs)
    print("environment " + json.dumps(env, sort_keys=True), file=sys.stderr)

    work = ROOT / "perfbench" / ".work" / str(os.getpid())
    tracer = None
    try:
        write_inputs(jobs, work)
        if args.trace:
            passes = [run_pass(cli, jobs, work)]
            tracer = spans.Tracer()
            tracer.install()
            try:
                passes.append(run_pass(cli, jobs, work, tracer))
            finally:
                tracer.uninstall()
            results = [r for p in passes for r in p.results]
        else:
            results = run_cycle(cli, jobs, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it

    bad = failures(results, len(jobs))
    attempted = len(results)
    for job_id, reason in bad[:20]:
        print(f"FAIL job {job_id}: {reason}", file=sys.stderr)

    if tracer is not None:
        totals = tracer.metrics()
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in totals.items()}
        metrics["trace.overhead_s"] = {
            "value": passes[1].wall - passes[0].wall, "unit": "s"}
        if tracer.absent:
            print("absent layers: " + ", ".join(tracer.absent), file=sys.stderr)
        _print_profile(totals, passes[1].wall)
    else:
        # Means, not medians: the speed of a shared host switches between
        # levels for tens of seconds at a time, and a median of a job's
        # few samples would pick one level where a mean weighs them all.
        wall = _job_means(results, "seconds")
        cpu = _job_means(results, "cpu")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": sum(wall.values()), "unit": "s"},
            "cpu_s": {"value": sum(cpu.values()), "unit": "s"},
            "max_job_s": {"value": max(wall.values()), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
    print(f"{args.workload}: {len(results) / len(jobs):.2f} passes of "
          f"{len(jobs)} jobs, "
          f"{len(bad)} failed of {attempted} "
          f"(fail_frac {len(bad) / attempted:.4f})", file=sys.stderr)
    print(json.dumps({"correct": not bad, "attempted": attempted,
                      "failed": len(bad), "metrics": metrics}))
    return 0


def _job_means(results: list[JobResult], field: str) -> dict[int, float]:
    """Each job's mean of ``field`` over its runs."""
    samples: dict[int, list[float]] = {}
    for r in results:
        samples.setdefault(r.job["id"], []).append(getattr(r, field))
    return {job: statistics.fmean(v) for job, v in samples.items()}


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def _print_profile(totals: dict, wall: float) -> None:
    """Self time of each layer as a share of the traced pass."""
    rows = sorted(((v, k) for k, v in totals.items() if k.endswith("self_s")),
                  reverse=True)
    for value, name in rows:
        if value > 0:
            print(f"  {name:52s} {value:9.4f} s  {100 * value / wall:5.1f}%",
                  file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
