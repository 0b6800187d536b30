"""fbmlab benchmark: one workload, closed loop, a fresh interpreter per job.

Run from the root of an fbmlab checkout:

    python3 perfbench/run.py --workload headline --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another

One client runs one job at a time.  Every job starts a new interpreter
(perfbench/job.py) with BLAS and OpenMP pinned to one thread and
PYTHONPATH set to the checkout's src/, so no cache or import-time work
leaks between jobs.  Jobs are started until the next one is expected to
end after --seconds, and at least MIN_JOBS run.

All jobs run on one CPU.  The host shares its cores with other tenants,
so the same job runs up to twice as slow at some moments as at others,
in bursts from under a second to minutes long, and raw times of the same
job spread by 20% or more between runs.  A probe thread of this
process, on the jobs' CPU, times a fixed pure-Python and numpy kernel
every PROBE_PERIOD_S (about 1% of the CPU).  Each job's time and set-up
time are divided by the host slowdown over that interval: the probe's mean
time there over its fastest time NOMINAL_PROBE_S.  So `job_s` and
`setup_s` are seconds at the host's fastest speed; the raw job times and
the slowdowns are printed beside them.  The probe runs no fbmlab code, so a change to the program
moves the corrected times as it moves the raw ones.

With --trace 0 the result holds the end-to-end metrics, medians over jobs.
With --trace 1 traced and untraced jobs alternate (traced first); the
result holds the per-layer metrics of the traced jobs (medians) and the
tracing overhead, a stage table from the last trace is printed, and that
trace's spans are kept in .perfbench_work/<workload>-trace.json.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`attempted` and `failed` count the gated checks: each job's invariants,
agreement of every job's artifact digest with the first job's, and, at a
seed recorded in digests.json, agreement with the recorded digest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import tracing

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("headline", "identity", "sampling", "pathwise")
SIZES = ("tiny", "bench", "full")
MIN_JOBS = 3
# Start no job expected to end later than this after the run began, so a
# run stays well inside 180 s even on a slow machine.
HARD_LIMIT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"job_s": "s", "setup_s": "s", "work_per_s": "1/s",
                    "peak_rss_mb": "MB"}
# The probe kernel: PROBE_LOOP iterations of a Python loop, then
# PROBE_REPS numpy exp over PROBE_POINTS doubles (32 KiB, in cache).
PROBE_LOOP = 2000
PROBE_REPS = 5
PROBE_POINTS = 4096
PROBE_PERIOD_S = 0.02
# Fastest probe time seen on the reference host (perfbench/baseline.json,
# "machine"); it only sets the scale of the corrected times.
NOMINAL_PROBE_S = 0.1e-3


class SpeedProbe(threading.Thread):
    """Times the probe kernel every PROBE_PERIOD_S until stopped."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []  # (monotonic, seconds)
        self._halt = threading.Event()
        self._data = np.random.default_rng(0).standard_normal(PROBE_POINTS)

    def run(self):
        while not self._halt.wait(PROBE_PERIOD_S):
            start = time.perf_counter()
            total = 0
            for i in range(PROBE_LOOP):
                total += i
            for _ in range(PROBE_REPS):
                np.exp(self._data)
            self.samples.append((time.monotonic(), time.perf_counter() - start))

    def stop(self):
        self._halt.set()
        self.join()

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean probe time between monotonic t0 and t1 over NOMINAL_PROBE_S."""
        window = [s for t, s in self.samples if t0 <= t <= t1]
        # A job shorter than PROBE_PERIOD_S (tiny sizes) takes the run's mean.
        window = window or [s for _, s in self.samples] or [NOMINAL_PROBE_S]
        return statistics.fmean(window) / NOMINAL_PROBE_S


class JobError(RuntimeError):
    pass


def _run_jobs(root: Path, workload: str, seed: int, seconds: float,
              trace: bool, size: str, trace_copy: Path) -> tuple[list[dict], float]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    workroot = root / ".perfbench_work" / f"{workload}-{os.getpid()}"
    jobs: list[dict] = []
    # Jobs inherit this thread's CPU; the probe thread, started after, too.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    probe.start()
    start = time.monotonic()
    try:
        while True:
            traced = trace and len(jobs) % 2 == 0
            jobdir = workroot / f"job{len(jobs)}"
            jobdir.mkdir(parents=True)
            spawn = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "job.py"), workload, str(seed),
                 size, "1" if traced else "0", str(jobdir)],
                env=env, cwd=root, stdout=subprocess.DEVNULL,
                timeout=max(1.0, 175.0 - (spawn - start)))
            end = time.monotonic()
            result_file = jobdir / "result.json"
            if proc.returncode != 0 or not result_file.exists():
                raise JobError(f"job {len(jobs)} of {workload} exited with "
                               f"code {proc.returncode} and no result")
            job = json.loads(result_file.read_text())
            job_slow = probe.slowdown(job["ready"], job["done"])
            setup_slow = probe.slowdown(spawn, job["ready"])
            job.update(raw_job_s=job["job_s"], job_s=job["job_s"] / job_slow,
                       raw_setup_s=job["ready"] - spawn,
                       setup_s=(job["ready"] - spawn) / setup_slow,
                       slowdown=job_slow, wall_s=end - spawn, traced=traced)
            jobs.append(job)
            if traced:
                shutil.copyfile(jobdir / "trace.json", trace_copy)
            # Stop when the next job, at the mean length so far, would end late.
            ends_at = end - start + statistics.fmean(j["wall_s"] for j in jobs)
            if ends_at > HARD_LIMIT_S or (len(jobs) >= MIN_JOBS and ends_at > seconds):
                break
    finally:
        probe.stop()
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            workroot.parent.rmdir()
        except OSError:
            pass
    return jobs, time.monotonic() - start


def _gated_checks(jobs: list[dict], recorded: str | None) -> dict[str, bool]:
    checks = {}
    for n, job in enumerate(jobs):
        for label, ok in job["invariants"].items():
            checks[f"job{n} {label}"] = ok
        if n:
            checks[f"job{n} digest equals job0"] = job["digest"] == jobs[0]["digest"]
        if recorded is not None:
            checks[f"job{n} digest equals recorded"] = job["digest"] == recorded
    return checks


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool, size: str) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and summary lines."""
    trace_copy = root / ".perfbench_work" / f"{workload}-trace.json"
    jobs, wall = _run_jobs(root, workload, seed, seconds, trace, size, trace_copy)
    recorded_all = json.loads((BENCH / "digests.json").read_text())["digests"]
    recorded = (recorded_all.get(workload, {}).get(str(seed))
                if size == "bench" else None)
    checks = _gated_checks(jobs, recorded)
    failed = [label for label, ok in checks.items() if not ok]
    verdicts = [ok for job in jobs for ok in job["verdicts"].values()]
    untraced = [j for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    lines = [f"perfbench {workload}: seed {seed}, size {size}, {len(jobs)} jobs "
             f"({len(traced)} traced) in {wall:.1f} s; job_s "
             + " ".join(f"{j['job_s']:.3f}{'T' if j['traced'] else ''}" for j in jobs),
             "  raw job_s " + " ".join(f"{j['raw_job_s']:.3f}" for j in jobs)
             + ", host slowdown " + " ".join(f"{j['slowdown']:.3f}" for j in jobs)]
    if trace:
        # Layer times are corrected by their own job's host slowdown.
        metrics = {name: statistics.median(
                       j["layers"][name] / (j["slowdown"] if name.endswith("_s") else 1)
                       for j in traced)
                   for name in traced[0]["layers"]}
        plain_s = med(untraced or traced, "job_s")
        metrics["trace.overhead_s"] = med(traced, "job_s") - plain_s
        metrics["trace.span_share"] = metrics.pop("trace.spans_s") / plain_s
        units = {name: tracing.unit_of(name) for name in metrics}
        lines.append(f"  {'stage':<44}{'calls':>8}{'incl s':>10}{'self s':>10}"
                     f"{'share':>8}")
        for name, calls, incl, own, share in traced[-1]["stages"]:
            lines.append(f"  {name:<44}{calls:>8}{incl:>10.3f}{own:>10.3f}"
                         f"{share:>8.1%}")
        lines.append(f"  traced job_s {med(traced, 'job_s'):.3f} s, tracing "
                     f"overhead {metrics['trace.overhead_s']:+.3f} s, spans "
                     f"cover {metrics['trace.span_share']:.1%} of untraced job_s; "
                     f"last trace in {trace_copy.relative_to(root)}")
    else:
        metrics = {
            "job_s": med(untraced, "job_s"),
            "setup_s": med(untraced, "setup_s"),
            "work_per_s": statistics.median(j["units"] / j["job_s"] for j in untraced),
            "peak_rss_mb": med(untraced, "peak_rss_mb"),
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        lines.append(f"  {name:<34}{value:>18.6g} {units[name]}")
    lines.append(f"  {'failed_frac':<34}{len(failed) / len(checks):>18.6g} "
                 f"({len(failed)} of {len(checks)} gated checks failed)")
    for label in failed:
        lines.append(f"    FAILED {label}")
    lines.append(f"  verdicts: {verdicts.count(False)} of {len(verdicts)} failed "
                 f"(gated through the recorded digest only)")
    lines.append(f"  digest {jobs[0]['digest']} "
                 f"({'recorded' if recorded else 'not recorded'} at this seed), "
                 f"inputs {jobs[0]['inputs_digest']}")
    result = {"correct": not failed, "attempted": len(checks),
              "failed": len(failed),
              "metrics": {name: {"value": float(value), "unit": units[name]}
                          for name, value in metrics.items()}}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="bench",
                        help="bench is what the benchmark measures; full is "
                             "the acceptance size; tiny is for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    root = Path.cwd()
    if not (root / "src" / "fbmlab" / "__init__.py").is_file():
        print("error: src/fbmlab not found; run from the root of an fbmlab "
              "checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result, lines = run_workload(root, name, args.seed, args.seconds,
                                         bool(args.trace), args.size)
        except (JobError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
