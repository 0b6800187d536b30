"""One benchmark job in a fresh interpreter: set up, run, check, report.

run.py starts this once per job:

    python3 perfbench/job.py <workload> <seed> <size> <traced 0|1> <workdir>

Set-up is interpreter start, `import fbmlab` and generating the inputs from
the seed; it ends at the `ready` timestamp.  The job is timed on its own
and ends at `done` (both CLOCK_MONOTONIC, comparable with the parent's
clock).  Results go to <workdir>/result.json; a traced job also writes its
spans to <workdir>/trace.json.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    workload, seed, size, traced, workdir = argv
    workdir = Path(workdir)
    import workloads  # imports numpy, scipy and fbmlab

    inputs = workloads.make_inputs(workload, int(seed), size, workdir)
    recorder = None
    if traced == "1":
        import tracing
        recorder = tracing.Recorder()
        tracing.install(recorder)
    ready = time.monotonic()

    start = time.perf_counter()
    outcome = workloads.run_job(workload, inputs)
    job_s = time.perf_counter() - start
    done = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    shown = {k: v for k, v in inputs.items() if k not in ("config_file", "out_dir")}
    result = {
        "ready": ready, "done": done, "job_s": job_s, "peak_rss_mb": peak_rss_mb,
        "units": inputs["units"],
        "digest": hashlib.sha256(outcome["artifact"]).hexdigest(),
        "inputs_digest": hashlib.sha256(
            json.dumps(shown, sort_keys=True).encode()).hexdigest(),
        "invariants": outcome["invariants"], "verdicts": outcome["verdicts"],
    }
    if recorder is not None:
        recorder.dump(workdir / "trace.json")
        layers = tracing.layer_metrics(recorder)
        layers["cli.artifact_bytes"] = outcome["artifact_bytes"]
        result["layers"] = layers
        result["stages"] = tracing.stage_table(recorder, job_s)
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
