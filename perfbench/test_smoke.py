"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py

It checks that every metric BENCHMARK.json names is emitted with its unit,
that traced and untraced jobs produce identical artifact digests (tracing
does not perturb the numerics), and that another seed changes the inputs.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, seed: int, trace: int) -> tuple[dict, str, str]:
    """(result object, artifact digest, inputs digest) of one tiny run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    match = re.search(r"digest ([0-9a-f]{64}) .* inputs ([0-9a-f]{64})",
                      proc.stdout)
    assert match, proc.stdout
    return json.loads(lines[-1]), match.group(1), match.group(2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_units_and_tracing_neutral(workload):
    plain, plain_digest, plain_inputs = _run(workload, 0, 0)
    traced, traced_digest, traced_inputs = _run(workload, 0, 1)
    for result, key in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == expected
        assert all(isinstance(m["value"], float)
                   for m in result["metrics"].values())
    assert traced_digest == plain_digest
    assert traced_inputs == plain_inputs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs(workload):
    _, digest_a, inputs_a = _run(workload, 0, 0)
    _, digest_b, inputs_b = _run(workload, 1, 0)
    assert inputs_a != inputs_b
    assert digest_a != digest_b
