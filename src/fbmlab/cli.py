"""Command line front end.

Subcommands expose the pipeline stages (gen-fbm, local-time, average, sew,
solve, verify, admissibility) plus `run`, which executes one of the canned
experiments E0 to E6 and writes a reproducible artifact directory:

    config.json    the experiment and the table format; experiments take no config
    summary.json   results without wall times, byte-stable across reruns
    run_meta.json  timestamps, versions, wall time, each criterion's seconds
    results.csv/.json   flat tables for the experiment

Exit codes: 0 all checks passed, 1 a check failed, 2 invalid configuration
or hypothesis violation, 3 ensemble blow-up abort.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .averaging import (admissible_regularity, average_via_local_time,
                        holder_exponent, hurst_admissible_fbm_driver,
                        hurst_admissible_main)
from .errors import (BlowUpError, FbmLabError, HypothesisError,
                     ParameterError)
from .experiments import (ALL_CRITERIA, HEADLINE_CONFIG, build_scenario,
                          solve_scenario, verify_scenario,
                          _identity_field_reports)
from .occupation import SpatialGrid, local_time
from .paths import TimeGrid, generate_fbm
from .sewing import Germ, sew
from .solver import BLOWUP_BOUND

# Each config key and the type its value parses to, read off the headline
# defaults; a list is comma-separated floats.
_CONFIG_SCHEMA = {key: "floats" if isinstance(value, list) else type(value)
                  for key, value in HEADLINE_CONFIG.items()}


def parse_config_text(text: str) -> dict:
    """key=value lines; # starts a comment; unknown keys and non-finite
    numbers are rejected."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_SCHEMA:
            raise ParameterError(f"config line {lineno}: unknown key {key!r}")
        kind = _CONFIG_SCHEMA[key]
        try:
            if kind == "floats":
                out[key] = [float(v) for v in value.split(",") if v.strip()]
            else:
                out[key] = kind(value)
        except ValueError as exc:
            raise ParameterError(f"config line {lineno}: {exc}") from None
        if kind in (float, "floats") and not np.all(np.isfinite(out[key])):
            raise ParameterError(f"config line {lineno}: {key} must be finite, got {value}")
    return out


def resolve_config(overrides: dict) -> dict:
    """The headline config with `overrides` applied, checked."""
    cfg = {**HEADLINE_CONFIG, **overrides}
    if cfg["sigma"] not in ("singular", "identity"):
        raise ParameterError(f"sigma must be 'singular' or 'identity', got {cfg['sigma']!r}")
    if cfg["steps"] < 1 or cfg["paths"] < 1:
        raise ParameterError("steps and paths must be positive")
    for key in ("p", "m"):
        if not cfg[key] > 0.0:  # NaN too
            raise ParameterError(f"{key} must be positive, got {cfg[key]}")
    if len(cfg["x0"]) != cfg["dimension"]:
        raise ParameterError(
            f"x0 has {len(cfg['x0'])} components for dimension {cfg['dimension']}")
    # Beyond the blow-up bound every path would count as blown up.
    if not all(abs(v) <= BLOWUP_BOUND for v in cfg["x0"]):
        raise ParameterError(
            f"x0 must be finite with |x0| <= {BLOWUP_BOUND:g}, got {cfg['x0']}")
    if cfg["sigma"] == "singular":
        h_max = hurst_admissible_main(cfg["dimension"], cfg["p"])
        if cfg["hurst"] > h_max:
            raise ParameterError(
                f"H exceeds H_max={h_max:.6g} for d={cfg['dimension']}, p={cfg['p']}")
        if not cfg["gamma"] < cfg["dimension"] / cfg["p"]:
            raise HypothesisError(
                f"gamma={cfg['gamma']} is not inside L^{cfg['p']}: need "
                f"gamma < d/p = {cfg['dimension'] / cfg['p']:.6g}")
    if not cfg["eps"]:
        raise ParameterError("eps must list at least one radius")
    if not all(a > b for a, b in zip(cfg["eps"], cfg["eps"][1:])):
        raise ParameterError("eps must be strictly decreasing")
    return cfg


# --- artifact helpers -------------------------------------------------------


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _dump_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False,
                               default=_json_default) + "\n")


def _require_finite_moments(values, m: float) -> None:
    """Moment statistics overflow at a large enough m, depending on the data."""
    if not np.all(np.isfinite(values)):
        raise ParameterError(f"m={m:g} overflows the moment statistics; lower m")


def _write_rows(path_base: Path, rows: list[dict], fmt: str) -> Path:
    if fmt == "json":
        out = path_base.with_suffix(".json")
        _dump_json(out, rows)
        return out
    out = path_base.with_suffix(".csv")
    keys = sorted({k for row in rows for k in row})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=keys)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    out.write_text(buf.getvalue())
    return out


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# --- experiments -------------------------------------------------------------


def _constant_field_identities() -> dict:
    """E0's identity-field smoke test: the exact identities."""
    reports = _identity_field_reports()[0]
    return {"id": "constant-field-identities",
            "passed": all(r.passed for r in reports),
            "summary": f"{len(reports)} identities on an identity field",
            "details": {"reports": [r.to_dict() for r in reports]}}


_EXPERIMENTS = {
    "E0": ("identity-field smoke test and admissibility table",
           ["constant-field-identities", "admissibility-thresholds"]),
    "E1": ("driver covariance audit", ["fbm-covariance"]),
    "E2": ("occupation-times formula convergence", ["occupation-formula"]),
    "E3": ("dual-route averaging and regularization gain",
           ["averaging-dual-route", "regularization-gain"]),
    "E4": ("sewing engine rates and divergence", ["sewing-engine"]),
    "E5": ("uniform moment bounds for the singular ensemble",
           ["moment-bound-uniformity"]),
    "E6": ("integral identities, martingale residuals, Cauchy property",
           ["ito-isometry", "martingale-residuals", "mollified-cauchy",
            "admissibility-thresholds"]),
}


def run_experiment(name: str, out_dir: Path, fmt: str) -> int:
    if name not in _EXPERIMENTS:
        raise ParameterError(
            f"unknown experiment {name!r}; choose from {sorted(_EXPERIMENTS)}")
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    description, criteria = _EXPERIMENTS[name]
    run = {**ALL_CRITERIA, "constant-field-identities": _constant_field_identities}
    results, seconds = [], {}
    for cid in criteria:
        start = time.perf_counter()
        results.append(run[cid]())
        seconds[cid] = round(time.perf_counter() - start, 3)
    if name == "E0":  # the identity reports themselves
        rows = results[0]["details"]["reports"]
    else:
        rows = [{"criterion": res["id"], **row}
                for res in results for row in res["details"].get("rows", [])]

    out_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(out_dir / "config.json", {"experiment": name, "format": fmt})
    summary = {"experiment": name, "description": description,
               "results": results,
               "passed": all(r["passed"] for r in results)}
    _dump_json(out_dir / "summary.json", summary)
    _dump_json(out_dir / "run_meta.json", {
        "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "elapsed_s": round(time.perf_counter() - t0, 3),
        "criterion_s": seconds,
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    })
    if rows:
        _write_rows(out_dir / "results", rows, fmt)
    for res in results:
        _emit(f"[{'PASS' if res['passed'] else 'FAIL'}] {res['id']}: {res['summary']}")
    _emit(f"experiment {name}: {'PASS' if summary['passed'] else 'FAIL'} "
          f"(artifacts in {out_dir})")
    return 0 if summary["passed"] else 1


# --- plain subcommands -------------------------------------------------------


def _cmd_gen_fbm(args) -> int:
    grid = TimeGrid(args.horizon, args.steps)
    path = generate_fbm(args.hurst, args.dim, grid, args.seed,
                        path_index=args.path_index)
    buf = io.StringIO()
    path.to_csv(buf)
    if args.out:
        Path(args.out).write_text(buf.getvalue())
        _emit(f"wrote {args.out}")
    else:
        sys.stdout.write(buf.getvalue())
    return 0


def _cmd_local_time(args) -> int:
    grid_t = TimeGrid(args.horizon, args.steps)
    path = generate_fbm(args.hurst, args.dim, grid_t, args.seed)
    box = SpatialGrid.cover(path.values.T, args.width)
    field = local_time(path, box, args.s, args.t if args.t is not None
                       else args.horizon)
    rows = []
    centers = field.grid.centers_mesh().reshape(-1, field.grid.dimension)
    values = field.values.reshape(-1)
    for c, v in zip(centers, values):
        rows.append({**{f"x_{j + 1}": float(c[j]) for j in range(c.size)},
                     "local_time": float(v)})
    if args.out:
        _write_rows(Path(args.out), rows, "csv")
        _emit(f"wrote {args.out}")
    _emit(json.dumps({"covered_mass": field.covered_mass,
                      "escaped_mass": field.escaped_mass,
                      "bins": field.grid.bins, "h": field.grid.h},
                     sort_keys=True, default=_json_default))
    return 0


_FIELD_REGISTRY = {
    "heaviside": lambda pts: (pts[..., 0] >= 0.0).astype(float),
    "well": lambda pts: (np.abs(pts[..., 0]) <= 0.5).astype(float),
    "abs": lambda pts: np.abs(pts[..., 0]),
}


def _cmd_average(args) -> int:
    f = _FIELD_REGISTRY[args.field]
    grid_t = TimeGrid(args.horizon, args.steps)
    path = generate_fbm(args.hurst, 1, grid_t, args.seed)
    box = SpatialGrid.cover(path.values.T, args.width)
    t = args.t if args.t is not None else args.horizon
    field = local_time(path, box, args.s, t)
    f_grid = SpatialGrid.cover(np.array([[-args.span], [args.span]]), args.width)
    avg = average_via_local_time(f(f_grid.centers_mesh()), f_grid, field)
    est = holder_exponent(avg.values)
    if args.out:
        buf = io.StringIO()
        avg.to_csv(buf)
        Path(args.out).write_text(buf.getvalue())
        _emit(f"wrote {args.out}")
    _emit(json.dumps({"sup_norm": avg.sup_norm, "holder_exponent": est.exponent,
                      "holder_half_width": est.half_width,
                      "degenerate": est.degenerate}, sort_keys=True,
                     default=_json_default))
    return 0


_GERM_REGISTRY = {
    "additive": Germ(lambda s, t: (np.sin(3.0 * t) + t * t)
                     - (np.sin(3.0 * s) + s * s)),
    "left-linear": Germ(lambda s, t: s * (t - s)),
    "sqrt": Germ(lambda s, t: np.sqrt(t - s)),
}


def _cmd_sew(args) -> int:
    result = sew(_GERM_REGISTRY[args.germ], args.s, args.t, levels=args.levels)
    _emit(json.dumps(result.to_dict(), sort_keys=True, default=_json_default))
    return 0


def _cmd_admissibility(args) -> int:
    out = {"dimension": args.dim, "p": args.p,
           "hurst_max_main": hurst_admissible_main(args.dim, args.p)}
    if args.driver_hurst is not None:
        out["hurst_max_fbm_driver"] = hurst_admissible_fbm_driver(
            args.driver_hurst, args.dim, args.p)
    if args.hurst is not None:
        budget = admissible_regularity(args.hurst, args.dim, args.p,
                                       variant=args.variant)
        out["regularity_budget"] = budget.to_dict()
    _emit(json.dumps(out, sort_keys=True, default=_json_default))
    return 0


def _finite_float(text: str) -> float:
    """argparse type of a number the command would print: finite, since
    NaN and Infinity are not JSON."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _load_config(args) -> dict:
    return resolve_config(parse_config_text(Path(args.config).read_text())
                          if args.config else {})


def _cmd_solve(args) -> int:
    cfg = _load_config(args)
    scenario, fields = build_scenario(cfg)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
        _dump_json(out_dir / "config.json", cfg)
    rows = []
    for ens in solve_scenario(scenario, fields):
        rows += [{"epsilon": ens.epsilon, **row} for row in ens.moment_table(cfg["m"])]
        _emit(f"eps={ens.epsilon:g}: {ens.blowup_count} of {ens.n_paths} paths flagged")
    _require_finite_moments([(row["moment"], row["stderr"]) for row in rows], cfg["m"])
    if out_dir:
        written = _write_rows(out_dir / "moments", rows, args.format)
        _emit(f"wrote {written}")
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    for what, count in (("radii for a trend", len(cfg["eps"])),
                        ("paths for a standard error", cfg["paths"])):
        if count < 2:
            raise ParameterError(f"the radius sweep needs at least two {what}, got {count}")
    if cfg["m"] < 2.0:
        raise ParameterError(f"m must be >= 2, got {cfg['m']}")
    # Only the moment ratios read gamma0.
    gamma0 = cfg["gamma0"]
    bound = 1.0 - cfg["hurst"] * cfg["dimension"] / 2.0
    if cfg["sigma"] == "singular" and not gamma0 < bound:
        raise ParameterError(f"gamma0={gamma0} exceeds 1 - H*d/2 = {bound:.6g}")
    half = cfg["horizon"] / 2.0
    windows = [(half / 2.0, half), (half, cfg["horizon"])]
    scenario, fields = build_scenario(cfg, windows)
    res = verify_scenario(scenario, fields, cfg["m"], gamma0, windows)
    _require_finite_moments(res.trend["ratios"] + [res.trend["spread"]], cfg["m"])
    reports = [r for pair in zip(res.iso_reports, res.cross_reports) for r in pair]
    reports += res.martingale_reports + [res.qv_report]
    rows = [r.to_dict() for r in reports]
    passed = all(r.passed for r in reports) and res.trend["uniform"]
    out = {"identities": rows, "moment_trend": res.trend,
           "cauchy": {"eps": list(res.cauchy.eps_seq),
                      "diffs": list(res.cauchy.consecutive_diffs),
                      "sigma_gaps": list(res.cauchy.sigma_gaps)},
           "passed": passed}
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _dump_json(out_dir / "config.json", cfg)
        _dump_json(out_dir / "verify.json", out)
        _write_rows(out_dir / "identities", rows, args.format)
        _emit(f"wrote {out_dir / 'verify.json'}")
    for r in reports:
        _emit(f"[{'PASS' if r.passed else 'FAIL'}] {r.tag}: {r.label}")
    _emit(f"moment trend uniform: {res.trend['uniform']}")
    return 0 if passed else 1


def _cmd_run(args) -> int:
    out_dir = Path(args.out) if args.out else Path(f"runs/{args.experiment.lower()}")
    return run_experiment(args.experiment, out_dir, args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmlab",
        description="Numerics laboratory for multiplicative equations "
                    "regularized by a frozen fractional perturbation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-fbm", help="sample one driver path to CSV")
    p.add_argument("--hurst", type=float, required=True)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--steps", type=int, default=1024)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--path-index", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_gen_fbm)

    p = sub.add_parser("local-time", help="binned local time of a sampled path")
    p.add_argument("--hurst", type=float, required=True)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--steps", type=int, default=4096)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--width", type=float, required=True, help="bin width h")
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_local_time)

    p = sub.add_parser("average", help="averaged field along a sampled path")
    p.add_argument("--hurst", type=float, required=True)
    p.add_argument("--steps", type=int, default=4096)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--width", type=float, required=True)
    p.add_argument("--field", default="heaviside", choices=sorted(_FIELD_REGISTRY))
    p.add_argument("--span", type=float, default=2.0)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_average)

    p = sub.add_parser("sew", help="dyadic sewing of a registry germ")
    p.add_argument("--germ", default="left-linear", choices=sorted(_GERM_REGISTRY))
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--levels", type=int, default=10)
    p.set_defaults(fn=_cmd_sew)

    p = sub.add_parser("admissibility", help="closed-form parameter thresholds")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--p", type=_finite_float, required=True)
    p.add_argument("--hurst", type=_finite_float, default=None)
    p.add_argument("--driver-hurst", type=_finite_float, default=None)
    p.add_argument("--variant", default="moment",
                   choices=("moment", "pathwise"))
    p.set_defaults(fn=_cmd_admissibility)

    for name, fn, extra in (("solve", _cmd_solve, "ensemble moments per radius"),
                            ("verify", _cmd_verify, "integral identity checks"),
                            ("run", _cmd_run, "canned experiments E0..E6")):
        p = sub.add_parser(name, help=extra)
        if name == "run":
            p.add_argument("--experiment", default="E5", choices=sorted(_EXPERIMENTS))
        else:
            p.add_argument("--config", help="key=value file, # comments allowed")
        p.add_argument("--out", default=None)
        p.add_argument("--format", default="csv", choices=("csv", "json"))
        p.set_defaults(fn=fn)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParameterError, HypothesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"blow-up abort: {exc}", file=sys.stderr)
        return 3
    except FbmLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
