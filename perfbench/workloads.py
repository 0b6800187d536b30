"""The benchmark's four workloads: inputs from a seed, one job, its checks.

Each workload turns the harness seed into the inputs the program receives
(config files, criterion seeds, path seeds), runs one job through fbmlab's
public API, and returns the job's result artifact plus two kinds of checks:

* invariants hold for correct code at every seed: the job completes, its
  artifact is well formed and finite, the exit code agrees with the
  verdict, and deterministic error bounds hold;
* verdicts are the lab's own statistical or heuristic tests (identity
  checks, moment trend, covariance z-scores, sewing divergence).  Their
  tolerances are calibrated to the shipped acceptance seeds, so they are
  reported at every seed but gated through the recorded artifact digests
  (perfbench/digests.json): at a recorded seed no verdict may change.

Seed 0 is the default and reproduces the shipped acceptance seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from fbmlab import averaging, cli, experiments, occupation, paths, verify

# Paths per ensemble (headline, identity), paths per Hurst value (sampling),
# steps per path (pathwise).  "bench" is what the benchmark measures: the
# acceptance headline (10^4 paths) takes about 33 s, too long to repeat
# within one run, so "bench" keeps every other dimension and cuts paths
# tenfold.  "full" is the acceptance size, "tiny" is for the smoke test.
SIZES = {
    "headline": {"tiny": 64, "bench": 1000, "full": 10000},
    "identity": {"tiny": 64, "bench": 1000, "full": 10000},
    "sampling": {"tiny": 200, "bench": 6000, "full": 20000},
    "pathwise": {"tiny": 1 << 10, "bench": 1 << 16, "full": 1 << 16},
}
STEPS = {"tiny": 64, "bench": 1024, "full": 1024}

# (Hurst, dimension) of the pathwise paths; H*d < 1 so local times exist.
PATHWISE_SPECS = ((0.1, 1), (0.25, 1), (0.15, 2), (0.25, 2))
PATHWISE_BIN = {1: 2.0 ** -7, 2: 2.0 ** -5}
PATHWISE_PROBES = 128
SEWING_LEVELS = 12
# Bin counts are integers, so local times over these windows sum exactly.
ADDITIVITY_WINDOWS = 64
TENT_RADIUS = 2.0


def make_inputs(workload: str, seed: int, size: str, workdir: Path) -> dict:
    """Everything the job receives, derived from the seed alone."""
    if workload in ("headline", "identity"):
        paths_n = SIZES[workload][size]
        config = {"sigma": "singular" if workload == "headline" else "identity",
                  "paths": paths_n, "steps": STEPS[size],
                  "fbm_seed": experiments.HEADLINE["fbm_seed"] + seed,
                  "base_seed": experiments.HEADLINE["base_seed"] + seed}
        cfg = workdir / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
        n_eps = len(experiments.HEADLINE["eps_seq"])
        return {**config, "config_file": str(cfg), "out_dir": str(workdir / "out"),
                "units": n_eps * paths_n * STEPS[size]}
    if workload == "sampling":
        n_paths = SIZES[workload][size]
        return {"n_paths": n_paths, "steps": STEPS[size], "seed": 11 + seed,
                "units": 3 * n_paths * STEPS[size]}
    if workload == "pathwise":
        steps = SIZES[workload][size]
        return {"steps": steps, "fbm_seed": 21 + seed, "x_seed": 31 + seed,
                "specs": [list(s) for s in PATHWISE_SPECS],
                "units": len(PATHWISE_SPECS) * steps}
    raise ValueError(f"unknown workload {workload!r}")


def run_job(workload: str, inputs: dict) -> dict:
    """Run one job; return its artifact bytes and checks."""
    return {"headline": _verify_job, "identity": _verify_job,
            "sampling": _sampling_job, "pathwise": _pathwise_job}[workload](inputs)


def _outcome(artifact: bytes, invariants: dict, verdicts: dict,
             artifact_bytes: int = 0) -> dict:
    return {"artifact": artifact, "artifact_bytes": artifact_bytes,
            "invariants": {k: bool(v) for k, v in invariants.items()},
            "verdicts": {k: bool(v) for k, v in verdicts.items()}}


def _verify_job(inputs: dict) -> dict:
    """`fbmlab verify` in-process, exactly as the command line runs it."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "--config", inputs["config_file"],
                         "--out", inputs["out_dir"]])
    out_dir = Path(inputs["out_dir"])
    artifact_file = out_dir / "verify.json"
    if code not in (0, 1) or not artifact_file.exists():
        return _outcome(b"", {"completed": False}, {})
    artifact = artifact_file.read_bytes()
    result = json.loads(artifact)
    rows = result["identities"]
    numbers = [r[k] for r in rows for k in ("left", "right", "stderr")]
    verdicts = {"passed": result["passed"],
                "moment_trend_uniform": result["moment_trend"]["uniform"]}
    for i, row in enumerate(rows):
        verdicts[f"identity[{i}] {row['tag']} {row['label']}"] = row["passed"]
    invariants = {"completed": True,
                  "exit_code_matches_verdict": (code == 0) == result["passed"],
                  "finite": all(math.isfinite(v) for v in numbers)}
    size = sum(f.stat().st_size for f in out_dir.iterdir())
    return _outcome(artifact, invariants, verdicts, size)


def _sampling_job(inputs: dict) -> dict:
    """The E1 covariance audit at the given size and seed."""
    res = experiments.criterion_fbm_covariance(
        n_paths=inputs["n_paths"], steps=inputs["steps"], seed=inputs["seed"])
    details = res["details"]
    artifact = json.dumps({"passed": res["passed"], "details": details},
                          sort_keys=True).encode()
    invariants = {"completed": True, "rows": len(details["rows"]) == 15,
                  "finite": all(math.isfinite(r["z"]) for r in details["rows"])}
    return _outcome(artifact, invariants, {"passed": res["passed"]})


def _tent(points):
    """Lipschitz bump of radius TENT_RADIUS, constant 1 / TENT_RADIUS."""
    return np.maximum(0.0, 1.0 - np.linalg.norm(points, axis=-1) / TENT_RADIUS)


def _pathwise_job(inputs: dict) -> dict:
    """E2-E4 on long single paths: occupation, dual-route averaging, sewing.

    For each (H, d): local time, averaged tent field by convolution with
    the local time and by direct quadrature at probe points, the
    occupation-formula residual, window additivity of the local time, and
    the time-quadrature versus sewn-germ check along an independent H=0.75
    path X.  Both the dual-route gap and the residual are bounded by
    Lip * (h/2) * sqrt(d) * t for every path.
    """
    grid = paths.TimeGrid(1.0, inputs["steps"])
    lip = 1.0 / TENT_RADIUS
    records, invariants, verdicts = [], {}, {}
    for i, (hurst, d) in enumerate(inputs["specs"]):
        h = PATHWISE_BIN[d]
        fbm = paths.generate_fbm(hurst, d, grid, inputs["fbm_seed"], path_index=i)
        x = paths.generate_fbm(0.75, d, grid, inputs["x_seed"], path_index=i).values
        box = occupation.SpatialGrid.cover(fbm.values.T, h)
        lt = occupation.local_time(fbm, box, 0.0, 1.0)
        cuts = np.linspace(0.0, 1.0, ADDITIVITY_WINDOWS + 1)
        pieces = [occupation.local_time(fbm, box, s, t)
                  for s, t in zip(cuts[:-1], cuts[1:])]
        additive = sum(pieces[1:], pieces[0])
        reach = TENT_RADIUS + 0.5
        f_grid = occupation.SpatialGrid.from_box(-reach, reach,
                                                 int(round(2 * reach / h)), d)
        avg = averaging.average_via_local_time(_tent(f_grid.centers_mesh()),
                                               f_grid, lt)
        centers = avg.grid.centers_mesh().reshape(-1, d)
        values = avg.values.reshape(-1)
        live = np.flatnonzero(values > 0.0)
        pick = live[np.linspace(0, live.size - 1, PATHWISE_PROBES).astype(int)]
        direct = averaging.average_direct(_tent, fbm, 0.0, 1.0, centers[pick])
        gap = float(np.max(np.abs(direct - values[pick])))
        bound = averaging.convolution_agreement_bound(lip, h, 1.0, d)
        residual = occupation.occupation_formula_residual(_tent, fbm, box, 1.0)
        qv = verify.lebesgue_vs_sewing(x, fbm, _tent, box, (0.25, 0.75),
                                       levels=SEWING_LEVELS)
        tag = f"path[{i}] H={hurst} d={d}"
        # 1e-12 absorbs FFT roundoff in the convolution route.
        invariants[f"{tag} dual-route gap <= bound"] = gap <= bound + 1e-12
        invariants[f"{tag} occupation residual <= bound"] = residual <= bound
        invariants[f"{tag} local time additive over windows"] = (
            np.array_equal(additive.counts, lt.counts)
            and additive.escaped_count == lt.escaped_count)
        verdicts[f"{tag} sewing converged"] = not qv.extras["diverged"]
        verdicts[f"{tag} lebesgue_vs_sewing"] = qv.passed
        records.append({"hurst": hurst, "dimension": d, "gap": gap,
                        "bound": bound, "residual": residual,
                        "escaped": lt.escaped_count, "qv": qv.to_dict()})
    artifact = json.dumps(records, sort_keys=True).encode()
    return _outcome(artifact, invariants, verdicts)

