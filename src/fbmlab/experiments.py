"""Canned experiments: one function per acceptance criterion.

Each function runs a fixed, seeded configuration at the documented
tolerance and returns a plain dict with an `id`, a boolean `passed`, a one
line `summary` and the numbers behind it.  The CLI experiments E0 to E6
and the acceptance test suite both call these, so there is exactly one
definition of every criterion.

The heavyweight scenario (singular field, frozen rough path, five
mollification radii, 10^4 drivers) is computed once per process and
shared by the moment, isometry, martingale and Cauchy criteria.  Its radius
sweep, `verify_scenario`, is also the one `fbmlab verify` runs on a
configured scenario, and `solve_scenario` (`fbmlab solve`) shares its chunks.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import solver, verify
from .averaging import (average_direct, average_via_local_time,
                        convolution_agreement_bound, holder_exponent,
                        hurst_admissible_fbm_driver, hurst_admissible_main)
from .errors import ParameterError, require_memory
from .fields import MatrixField, hs_norm_sq, identity_field, singular_example
from .occupation import (SpatialGrid, local_time, occupation_formula_residual)
from .paths import (FbmPath, TimeGrid, _fbm_rows, fbm_covariance,
                    generate_fbm)
from .sewing import Germ, sew
from .solver import (Ensemble, MollifiedCauchyReport, PathSums,
                     QuenchedScenario, _abort_on_blowups, _stderr,
                     cauchy_report, family_grid, mollified_family,
                     solve_fields, walk_ensemble)
from .verdicts import (AVERAGED_EXPONENT, AVERAGING_EXACT_GAP,
                       AVERAGING_ROUNDOFF, CAUCHY_GROWTH, CAUCHY_TRACKING,
                       COVARIANCE_SECONDS, COVARIANCE_Z, IDENTITY_STDERRS,
                       OCCUPATION_RATE, OCCUPATION_SLACK, RAW_EXPONENT,
                       SEWING_ADDITIVE, SEWING_LIMIT, SEWING_RATE,
                       STABILITY_SLOPE, SWEEP_SECONDS, TREND_SPREAD)
from .verify import (IdentityReport, MomentRatioReport, cross_term_report,
                     isometry_report, lebesgue_vs_sewing, martingale_nodes,
                     martingale_reports, moment_ratio, moment_ratio_trend)

HEADLINE = {
    "hurst": 0.2, "gamma": 0.4, "radius": 1.0, "p": 2.0, "m": 4.0,
    "gamma0": 0.85, "steps": 1024, "paths": 10000, "x0": 0.5,
    "eps_seq": (0.25, 0.125, 0.0625, 0.03125, 0.015625),
    "fbm_seed": 2026, "base_seed": 77,
}

# The headline sweep in the configuration keys of `fbmlab verify`, which
# runs it when given no config file.
HEADLINE_CONFIG = {
    "sigma": "singular", "hurst": HEADLINE["hurst"], "gamma": HEADLINE["gamma"],
    "radius": HEADLINE["radius"], "p": HEADLINE["p"], "m": HEADLINE["m"],
    "gamma0": HEADLINE["gamma0"], "horizon": 1.0, "dimension": 1,
    "steps": HEADLINE["steps"], "paths": HEADLINE["paths"],
    "fbm_seed": HEADLINE["fbm_seed"], "base_seed": HEADLINE["base_seed"],
    "eps": list(HEADLINE["eps_seq"]), "x0": [HEADLINE["x0"]],
}

# fbmlab solve and verify solve their paths in chunks of about this many
# bytes of solution values and drivers, split evenly: the 1000-path
# headline sweep is one chunk, the 10^4-path one four.  At 10^4 paths,
# 64 MiB chunks ran slower than whole ensembles and 128 MiB ones as fast,
# at 202 MB peak RSS against 352 MB (BENCH_6.json).
CHUNK_BYTES = 128 << 20


def _result(cid: str, passed: bool, summary: str, details: dict) -> dict:
    return {"id": cid, "passed": bool(passed), "summary": summary,
            "details": details}


# --- criterion 1: exact fBm covariance ------------------------------------

def criterion_fbm_covariance(n_paths: int = 20000, steps: int = 1024,
                             seed: int = 11) -> dict:
    start = time.perf_counter()
    if n_paths < 2:
        raise ParameterError(f"n_paths must be >= 2 for a standard error, got {n_paths}")
    grid = TimeGrid(1.0, steps)
    pairs = [(0.25, 0.5), (0.5, 1.0), (0.25, 0.75), (0.125, 1.0), (0.5, 0.75)]
    hursts = (0.1, 0.25, 0.5)
    nodes = sorted({grid.node_index(t) for pair in pairs for t in pair})
    # Every path is drawn once for all three Hurst values, in blocks, and
    # only its pair nodes are kept: kept[j, i, 0, q] is node nodes[q] of
    # path i at hursts[j].
    kept = _fbm_rows(hursts, 1, grid, seed, 0, n_paths, nodes=nodes)
    worst = 0.0
    rows = []
    ok = True
    for hurst, values in zip(hursts, kept[:, :, 0]):
        for s, t in pairs:
            ks, kt = nodes.index(grid.node_index(s)), nodes.index(grid.node_index(t))
            prods = values[:, ks] * values[:, kt]
            est = float(prods.mean())
            se = _stderr(prods)
            target = float(fbm_covariance(s, t, hurst))
            z = abs(est - target) / se
            worst = max(worst, z)
            ok &= z <= COVARIANCE_Z.gate
            rows.append({"hurst": hurst, "s": s, "t": t, "estimate": est,
                         "target": target, "stderr": se, "z": z})
    ok &= time.perf_counter() - start < COVARIANCE_SECONDS.gate
    return _result(
        "fbm-covariance", ok,
        f"15 covariance checks, worst |z|={worst:.2f} (limit {COVARIANCE_Z.gate:g})",
        {"rows": rows, "worst_z": worst})


# --- criterion 2: occupation-times formula --------------------------------

def criterion_occupation_formula() -> dict:
    seed = 5
    fine_steps = 1 << 10
    fbm = generate_fbm(0.25, 1, TimeGrid(1.0, fine_steps), seed)

    def f(pts):
        return np.abs(pts[..., 0])

    residuals = []
    for level in (8, 9, 10):
        factor = 1 << (10 - level)
        grid_t = fbm.grid.subsample(factor)
        sub = fbm.values[:, ::factor]
        path = FbmPath(0.25, 1, grid_t, sub, seed)
        h = 2.0 ** (-level)
        grid = SpatialGrid.cover(sub.T, h)
        residuals.append(occupation_formula_residual(f, path, grid, 1.0))
    h_fine = 2.0 ** -10
    bound = 1.0 * h_fine * 1.0 * OCCUPATION_SLACK.gate  # Lip(f) * h * t * slack
    x = np.arange(len(residuals), dtype=float)
    y = np.log2(residuals)
    slope = float(np.polyfit(x, y, 1)[0])
    ok = residuals[-1] <= bound and -slope >= OCCUPATION_RATE.gate
    return _result(
        "occupation-formula", ok,
        f"residual {residuals[-1]:.3e} <= {bound:.3e}, decay rate "
        f"{-slope:.2f} per halving (need >= {OCCUPATION_RATE.gate:g})",
        {"residuals": residuals, "bound": bound, "rate": -slope})


# --- criterion 3: dual averaging routes agree ------------------------------

def _random_lipschitz(rng: np.random.Generator, span: float = 3.0):
    knot_step = 0.25
    knots = np.arange(-span, span + knot_step / 2, knot_step)
    vals = rng.normal(0.0, 1.0, knots.size)
    vals[0] = vals[-1] = 0.0
    lip = float(np.max(np.abs(np.diff(vals))) / knot_step)

    def f(pts):
        return np.interp(pts[..., 0], knots, vals, left=0.0, right=0.0)

    return f, lip, float(np.max(np.abs(vals)))


def criterion_averaging_agreement() -> dict:
    seed = 21
    steps = 1 << 12
    h = 2.0 ** -8
    fbm = generate_fbm(0.25, 1, TimeGrid(1.0, steps), seed)
    path_grid = SpatialGrid.cover(fbm.values.T, h)
    lt = local_time(fbm, path_grid, 0.0, 1.0)
    f_grid = SpatialGrid.from_box(-3.0, 3.0, int(round(6.0 / h)))
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst_excess = -math.inf
    rows = []
    ok = lt.escaped_count == 0
    for trial in range(10):
        f, lip, sup_f = _random_lipschitz(rng)
        f_vals = f(f_grid.centers_mesh())
        avg = average_via_local_time(f_vals, f_grid, lt)
        probes = avg.grid.centers_mesh()[::16]
        direct = average_direct(f, fbm, 0.0, 1.0, probes)
        gap = float(np.max(np.abs(direct - avg.values[::16])))
        budget = convolution_agreement_bound(lip, h, 1.0) + AVERAGING_ROUNDOFF.gate
        worst_excess = max(worst_excess, gap - budget)
        ok &= gap <= budget
        rows.append({"trial": trial, "gap": gap, "budget": budget, "lip": lip})

    # Bin-constant field: both routes see identical values, zero quantization.
    f_const_vals = (np.abs(f_grid.centers_mesh()[..., 0]) <= 0.5).astype(float)
    lo = f_grid.lower[0]

    def f_const(pts):
        idx = np.clip(np.floor((pts[..., 0] - lo) / f_grid.h).astype(int),
                      0, f_grid.bins[0] - 1)
        return f_const_vals[idx]

    avg_c = average_via_local_time(f_const_vals, f_grid, lt)
    probes = avg_c.grid.centers_mesh()[::16]
    direct_c = average_direct(f_const, fbm, 0.0, 1.0, probes)
    exact_gap = float(np.max(np.abs(direct_c - avg_c.values[::16])))
    ok &= exact_gap <= AVERAGING_EXACT_GAP.gate
    return _result(
        "averaging-dual-route", ok,
        f"10 Lipschitz fields within budget (worst excess {worst_excess:.2e}), "
        f"bin-constant gap {exact_gap:.1e}",
        {"rows": rows, "bin_constant_gap": exact_gap})


# --- criterion 4: regularization observable --------------------------------

def criterion_regularization_gain() -> dict:
    seed = 31
    steps = 1 << 13
    h = 2.0 ** -9
    fbm = generate_fbm(0.1, 1, TimeGrid(1.0, steps), seed)
    path_grid = SpatialGrid.cover(fbm.values.T, h)
    lt = local_time(fbm, path_grid, 0.0, 1.0)
    f_grid = SpatialGrid.from_box(-2.0, 2.0, int(round(4.0 / h)))
    centers = f_grid.centers_mesh()[..., 0]
    f_vals = (np.abs(centers) <= 0.5).astype(float)
    averaged = average_via_local_time(f_vals, f_grid, lt)

    # Estimate the spatial exponent on the central stretch of both fields.
    mid = averaged.values.size // 2
    window = averaged.values[mid - 1024: mid + 1024]
    est_avg = holder_exponent(window)
    est_raw = holder_exponent(f_vals[f_vals.size // 2 - 1024:
                                     f_vals.size // 2 + 1024])

    # Stability: perturbations of shrinking L^p size, response in sup norm.
    rng = np.random.Generator(np.random.Philox(key=seed + 1))
    g, _lip, _sup = _random_lipschitz(rng, span=1.5)
    g_vals = g(f_grid.centers_mesh())
    g_norm = float((np.sum(np.abs(g_vals) ** 2) * f_grid.h) ** 0.5)
    xs, ys = [], []
    for k in range(4):
        amp = 2.0 ** -k
        resp = average_via_local_time(amp * g_vals, f_grid, lt)
        xs.append(math.log2(amp * g_norm))
        ys.append(math.log2(resp.sup_norm))
    slope = float(np.polyfit(xs, ys, 1)[0])

    ok = (est_avg.exponent >= AVERAGED_EXPONENT.gate
          and est_raw.exponent <= RAW_EXPONENT.gate
          and abs(slope - 1.0) <= STABILITY_SLOPE.gate)
    return _result(
        "regularization-gain", ok,
        f"averaged exponent {est_avg.exponent:.2f} (need >= "
        f"{AVERAGED_EXPONENT.gate:g}) vs raw {est_raw.exponent:.2f}, stability "
        f"slope {slope:.3f}",
        {"averaged_exponent": est_avg.exponent, "raw_exponent": est_raw.exponent,
         "stability_slope": slope})


# --- criterion 5: sewing engine -------------------------------------------

def criterion_sewing_engine() -> dict:
    def f_additive(s, t):
        return (math.sin(3.0 * t) + t * t) - (math.sin(3.0 * s) + s * s)

    res_add = sew(Germ(f_additive), 0.0, 1.0, levels=8)
    add_err = max(float(np.max(np.abs(np.atleast_1d(v - res_add.level_sums[0]))))
                  for v in res_add.level_sums)

    res_rate = sew(Germ(lambda s, t: s * (t - s)), 0.0, 1.0, levels=10)
    value = float(np.asarray(res_rate.value))

    res_div = sew(Germ(lambda s, t: math.sqrt(t - s)), 0.0, 1.0, levels=8)

    ok = (add_err <= SEWING_ADDITIVE.gate
          and res_rate.rate is not None
          and abs(res_rate.rate - 1.0) <= SEWING_RATE.gate
          and abs(value - 0.5) <= SEWING_LIMIT.gate
          and not res_add.diverged and not res_rate.diverged
          and res_div.diverged)
    return _result(
        "sewing-engine", ok,
        f"additive invariance {add_err:.1e}, rate {res_rate.rate:.3f} "
        f"(need 1 +- {SEWING_RATE.gate:g}), limit {value:.6f}, sqrt germ "
        f"diverged={res_div.diverged}",
        {"additive_error": add_err, "rate": res_rate.rate, "value": value,
         "sqrt_diverged": res_div.diverged})


# --- criteria 6-9: the shared singular scenario ----------------------------

def build_scenario(cfg: dict, martingale_windows=None):
    """Scenario and fields by radius of a config: the mollified family of
    a singular field, or the identity field itself at every radius.

    cfg uses the keys of HEADLINE_CONFIG.  martingale_windows are those a
    verify_scenario run will pass, or None for a solve_scenario run; the
    pre-flight (_check_memory) counts the nodes that run keeps.  Fails with
    ParameterError before the mollified lattices or any ensemble are
    allocated when they and one chunk of paths cannot fit in physical
    memory.
    """
    singular = cfg["sigma"] == "singular"
    if singular:
        sigma = singular_example(cfg["gamma"], cfg["radius"], cfg["dimension"])
    else:
        sigma = identity_field(cfg["dimension"])
    grid_t = TimeGrid(cfg["horizon"], cfg["steps"])
    fbm = generate_fbm(cfg["hurst"], cfg["dimension"], grid_t, cfg["fbm_seed"])
    scenario = QuenchedScenario(fbm, sigma, np.asarray(cfg["x0"], dtype=float),
                                tuple(cfg["eps"]), cfg["paths"],
                                cfg["base_seed"], p=cfg["p"])
    _check_memory(scenario, family_grid(scenario) if singular else None,
                  martingale_windows)
    if singular:
        return scenario, mollified_family(scenario)
    return scenario, {eps: sigma for eps in cfg["eps"]}


def _chunk_paths(scenario: QuenchedScenario, n_fields: int) -> tuple[int, int]:
    """Paths per chunk of n_fields fields solved together, and bytes per path.

    A path holds n_fields * d * (steps + 1) solution values and n * steps
    driver increments; CHUNK_BYTES of them, at least one path, make a
    chunk, and the paths are split evenly over the chunks.
    """
    steps = scenario.grid.steps
    per_path = 8 * (n_fields * scenario.dimension * (steps + 1)
                    + scenario.driver_dimension * steps)
    n_chunks = -(-scenario.ensemble_size // max(1, CHUNK_BYTES // per_path))
    return -(-scenario.ensemble_size // n_chunks), per_path


def _check_memory(scenario: QuenchedScenario, lattice: SpatialGrid | None,
                  martingale_windows) -> None:
    """ParameterError when the resident arrays exceed physical memory.

    A run holds one chunk of paths (_chunk_paths) of every distinct field:
    one per radius for a mollified field, one in all otherwise.  Per path
    it keeps each field's blow-up flag and the nodes of _kept_nodes, and a
    verify run (martingale_windows given) the sums of _walk_floats.  A
    mollified field adds one lattice table per radius.
    """
    d, n_eps = scenario.dimension, len(scenario.eps_seq)
    n_fields = n_eps if lattice is not None else 1
    rows, per_path = _chunk_paths(scenario, n_fields)
    grid = scenario.grid
    windows = (None if martingale_windows is None
               else [grid.window(s, t) for s, t in martingale_windows])
    nodes = len(_kept_nodes(grid, windows))
    sums = 0 if windows is None else _walk_floats(scenario, n_fields, windows)
    kept = 8 * scenario.ensemble_size * (n_fields * (d * nodes + 1) + sums)
    lattice_bytes = (0 if lattice is None else 8 * n_eps * math.prod(lattice.bins)
                     * d * scenario.driver_dimension)
    require_memory(rows * per_path + kept + lattice_bytes,
                   f"the run ({lattice_bytes / 1e9:.3g} GB of mollified lattices, "
                   f"{rows * per_path / 1e9:.3g} GB of solution paths and drivers, "
                   f"{kept / 1e9:.3g} GB of kept nodes and sums)")


def _walk_floats(scenario: QuenchedScenario, n_fields: int,
                 windows: list[tuple[int, int]]) -> int:
    """Floats per path in the PathSums of a walk of n_fields fields: Ito,
    squared-row and mixed sums per field, two compensators per window and
    the driver at each window end point."""
    ends = {k for pair in windows for k in pair}
    return (n_fields * (scenario.dimension + 2) + 2 * len(windows)
            + scenario.driver_dimension * len(ends))


def _kept_nodes(grid: TimeGrid, windows: list[tuple[int, int]] | None
                ) -> tuple[int, ...]:
    """The grid nodes a run keeps of each solved path.  A solve (windows
    None) keeps the end points of its moment table's dyadic windows; a
    verify run those of moment_ratio's and the nodes martingale_reports
    reads for the node-pair windows."""
    if windows is None:
        return tuple(sorted({k for pair in grid.dyadic_windows(solver.MOMENT_TABLE_LEVEL)
                             for k in pair}))
    return tuple(sorted({k for pair in grid.dyadic_windows(verify.MOMENT_MAX_LEVEL)
                         for k in pair} | martingale_nodes(windows)))


def _distinct_fields(scenario: QuenchedScenario, fields: dict[float, MatrixField]
                     ) -> tuple[list[MatrixField], list[int]]:
    """The sweep's distinct fields in eps_seq order, and each radius's slot
    among them: radii with the same field object share a slot, so that
    field is solved and walked once.  For a mollified family this is the
    LatticeStack order, which evaluate_together reads in one call."""
    slots: dict[MatrixField, int] = {}
    slot = [slots.setdefault(fields[eps], len(slots)) for eps in scenario.eps_seq]
    return list(slots), slot


def _solve_in_chunks(scenario: QuenchedScenario, fields: list[MatrixField],
                     keep: tuple[int, ...], windows, own: int):
    """Each of the distinct `fields` solved over chunks of paths
    (CHUNK_BYTES) and reduced to the grid nodes keep.  Each chunk draws its
    drivers, solves every field in one recursion and, given node-pair
    windows, is walked (walk_ensemble, reference fields[own]) before it is
    dropped.  Rows depend on their own drivers alone, so no result depends
    on the chunk size.  Returns one Ensemble per field, with no radius and
    only the nodes keep, the walks joined into one PathSums (None without
    windows), and path 0 of fields[own]'s solve at every node."""
    size, _ = _chunk_paths(scenario, len(fields))
    chunks, walked, path0 = [], [], None
    for first in range(0, scenario.ensemble_size, size):
        rows = replace(scenario, first_path=first,
                       ensemble_size=min(size, scenario.ensemble_size - first))
        part = solve_fields(rows, fields)
        if windows is not None:
            walked.append(walk_ensemble(part, fields, own, windows))
        if path0 is None:
            path0 = part[own].values[0].copy()
        chunks.append([(ens.at_nodes(keep), ens.blowup_steps) for ens in part])
        del part, rows  # so the next chunk does not run beside this one
    return ([Ensemble(scenario, None, *map(np.concatenate, zip(*parts)), keep)
             for parts in zip(*chunks)], PathSums.join(walked) if walked else None, path0)


def solve_scenario(scenario: QuenchedScenario, fields: dict[float, MatrixField]):
    """Yield every radius's ensemble in eps_seq order, reduced to the nodes
    its moment table reads.  BlowUpError names the first radius on which
    more than BLOWUP_ABORT_FRACTION of the paths blew up."""
    distinct, slot = _distinct_fields(scenario, fields)
    ensembles, _, _ = _solve_in_chunks(scenario, distinct,
                                       _kept_nodes(scenario.grid, None), None, 0)
    for eps, s in zip(scenario.eps_seq, slot):
        ens = replace(ensembles[s], epsilon=eps)
        _abort_on_blowups(ens)
        yield ens


@dataclass(frozen=True, eq=False)
class SweepResults:
    """Every identity check of one radius sweep, per radius where it varies."""

    ratio_reports: list[MomentRatioReport]
    trend: dict
    iso_reports: list[IdentityReport]
    cross_reports: list[IdentityReport]
    martingale_reports: list[IdentityReport]
    qv_report: IdentityReport
    cauchy: MollifiedCauchyReport


def verify_scenario(scenario: QuenchedScenario, fields: dict[float, MatrixField],
                    m: float, gamma0: float,
                    martingale_windows: list[tuple[float, float]]) -> SweepResults:
    """Solve the ensemble at every radius and run the identity checks on it.

    The smallest radius gives the reference ensemble, which carries the
    cross pairings, the martingale residuals over martingale_windows, the
    quadratic-variation check on its first path and the mollified Cauchy
    sequence.  Each distinct field (_distinct_fields) is solved once per
    chunk of paths (_solve_in_chunks), which walks each chunk for every
    sum of every field and joins the sums into one PathSums for the sweep.
    Every radius reads its field's solve and sums through its slot.
    """
    tg = scenario.grid
    eps_seq = scenario.eps_seq
    e_min = eps_seq.index(min(eps_seq))
    distinct, slot = _distinct_fields(scenario, fields)
    ref = slot[e_min]
    quant_grid = scenario.quant_grid  # refused here, before anything is solved
    windows = [tg.window(s, t) for s, t in martingale_windows]
    ensembles, sums, path0 = _solve_in_chunks(scenario, distinct, _kept_nodes(tg, windows),
                                              windows, ref)
    radii = [replace(ensembles[s], epsilon=eps) for eps, s in zip(eps_seq, slot)]
    for ens in (radii[e_min], *radii):  # the reference first
        _abort_on_blowups(ens)
    reference = radii[e_min]
    ratios = moment_ratio(ensembles, m, gamma0)
    ratio_reports = [replace(ratios[s], epsilon=eps) for eps, s in zip(eps_seq, slot)]
    iso_reports = [isometry_report(ens, sums, s) for ens, s in zip(radii, slot)]
    cross_reports = [cross_term_report(reference, sums, s, epsilon=eps)
                     for eps, s in zip(eps_seq, slot)]
    mart_reports = martingale_reports(reference, sums, martingale_windows)
    qv_report = lebesgue_vs_sewing(path0, scenario.fbm, hs_norm_sq(distinct[ref]), quant_grid,
                                   (tg.horizon * 0.25, tg.horizon * 0.75))
    cauchy = cauchy_report(scenario, sums.ito[:, reference.ok_mask][slot], fields, m)
    return SweepResults(ratio_reports, moment_ratio_trend(ratio_reports),
                        iso_reports, cross_reports, mart_reports,
                        qv_report, cauchy)


@functools.cache
def run_headline() -> tuple[SweepResults, float]:
    """The headline sweep, once per process, and its seconds to build and verify."""
    start = time.perf_counter()
    windows = [(0.25, 0.5), (0.5, 0.75), (0.25, 1.0)]
    scenario, fields = build_scenario(HEADLINE_CONFIG, windows)
    res = verify_scenario(scenario, fields, HEADLINE["m"], HEADLINE["gamma0"], windows)
    return res, time.perf_counter() - start


def criterion_moment_bound() -> dict:
    res, seconds = run_headline()
    trend = res.trend
    ok = trend["uniform"] and seconds < SWEEP_SECONDS.gate
    return _result(
        "moment-bound-uniformity", ok,
        f"ratio spread {trend['spread']:.2f} (limit {TREND_SPREAD.gate:g}), "
        f"increasing tail: {trend['increasing_tail']}",
        {"ratios": trend["ratios"], "spread": trend["spread"],
         "increasing_tail": trend["increasing_tail"],
         "per_eps": [r.to_dict() for r in res.ratio_reports]})


def criterion_ito_isometry() -> dict:
    res, _ = run_headline()
    iso_ok = all(r.passed for r in res.iso_reports)
    qv_ok = res.qv_report.passed

    # Constant field: identities with zero discretization margin.
    exact = _identity_field_reports()[0]
    const_ok = all(r.passed for r in exact)
    ok = iso_ok and qv_ok and const_ok
    worst = max(r.usage for r in res.iso_reports)
    return _result(
        "ito-isometry", ok,
        f"isometry at 5 radii (worst gap/({IDENTITY_STDERRS.gate:g}se+margin) "
        f"{worst:.2f}), quadratic variation gap "
        f"{abs(res.qv_report.left - res.qv_report.right):.2e}, "
        f"constant-field checks exact={const_ok}",
        {"isometry": [r.to_dict() for r in res.iso_reports],
         "quadratic_variation": res.qv_report.to_dict(),
         "constant_field": [r.to_dict() for r in exact]})


@functools.cache
def _identity_field_reports() -> tuple[tuple[IdentityReport, ...],
                                      tuple[IdentityReport, ...]]:
    """The identity-field control: 4000 paths along one H=0.2 path, solved
    and walked once per process by the sweep's chunk loop, which keeps the
    nodes a sweep keeps.  Returns the constant-field reports (isometry,
    cross term, quadratic variation; their right sides are deterministic
    time integrals, so zero margin) and the martingale residuals.  Only the
    reports are cached; the ensemble is freed."""
    grid_t = TimeGrid(1.0, 256)
    fbm = generate_fbm(0.2, 1, grid_t, 3)
    sigma = identity_field(1)
    scenario = QuenchedScenario(fbm, sigma, np.zeros(1), (0.25,), 4000, 13, p=2.0)
    pairs = [(0.25, 0.5), (0.5, 1.0)]
    windows = [grid_t.window(s, t) for s, t in pairs]
    (ens,), sums, path0 = _solve_in_chunks(scenario, [sigma],
                                           _kept_nodes(grid_t, windows), windows, 0)
    _abort_on_blowups(ens)
    exact = tuple(replace(report, margin=0.0) for report in (
        isometry_report(ens, sums, 0), cross_term_report(ens, sums, 0),
        lebesgue_vs_sewing(path0, fbm, hs_norm_sq(sigma), scenario.quant_grid,
                           (0.25, 0.75))))
    return exact, tuple(martingale_reports(ens, sums, pairs))


def criterion_constant_field_identities() -> dict:
    """E0's identity-field smoke test: the exact identities."""
    reports = _identity_field_reports()[0]
    return _result("constant-field-identities", all(r.passed for r in reports),
                   f"{len(reports)} identities on an identity field",
                   {"reports": [r.to_dict() for r in reports]})


def criterion_martingale_residuals() -> dict:
    res, _ = run_headline()
    bad = [r for r in res.martingale_reports if not r.passed]
    worst = max(r.usage for r in res.martingale_reports)

    # Identity field: residuals pass and the compensators are exactly the
    # window length on every path, so the zero expectation carries no
    # discretization margin at all.
    id_reports = _identity_field_reports()[1]
    id_ok = all(r.passed for r in id_reports)
    comp_exact = all(
        r.extras["compensator_min"] == r.extras["compensator_max"]
        == r.extras["t"] - r.extras["s"]
        for r in id_reports if r.extras["family"] in ("quadratic", "cross"))
    ok = not bad and id_ok and comp_exact
    return _result(
        "martingale-residuals", ok,
        f"{len(res.martingale_reports)} residuals across 3 families, worst "
        f"|resid|/({IDENTITY_STDERRS.gate:g}se) = {worst:.2f} (limit 1); "
        f"identity-field compensators exact: {comp_exact}",
        {"n_reports": len(res.martingale_reports), "worst": worst,
         "failed": [r.to_dict() for r in bad],
         "identity_passed": id_ok, "identity_compensators_exact": comp_exact})


def criterion_mollified_cauchy() -> dict:
    res, _ = run_headline()
    diffs = res.cauchy.consecutive_diffs
    gaps = res.cauchy.sigma_gaps
    decreasing = all(b <= CAUCHY_GROWTH.gate * a for a, b in zip(diffs, diffs[1:]))
    ratios = list(res.cauchy.tracking_ratios)
    geo = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    factor = CAUCHY_TRACKING.gate
    tracked = all(geo / factor <= r <= factor * geo for r in ratios)
    ok = decreasing and tracked
    return _result(
        "mollified-cauchy", ok,
        f"integral gaps decrease ({', '.join(f'{d:.3g}' for d in diffs)}), "
        f"tracking ratios within x{factor:g} of {geo:.3g}: {tracked}",
        {"diffs": list(diffs), "sigma_gaps": list(gaps), "ratios": ratios,
         "geometric_mean_ratio": geo, "decreasing": decreasing})


# --- criterion 10: admissibility arithmetic --------------------------------

def criterion_admissibility() -> dict:
    checks = [
        ("main d=1 p=2", hurst_admissible_main(1, 2.0), 0.25),
        ("main d=2 p=4", hurst_admissible_main(2, 4.0), 0.2),
        ("main d=1 p=4", hurst_admissible_main(1, 4.0), 2.0 / 7.0),
        ("driver H'=0.75 d=1 p=2", hurst_admissible_fbm_driver(0.75, 1, 2.0), 0.1),
    ]
    rows = [{"case": name, "value": val, "expected": exp, "exact": val == exp}
            for name, val, exp in checks]
    ok = all(r["exact"] for r in rows)
    return _result(
        "admissibility-thresholds", ok,
        "four closed-form thresholds match exactly" if ok else
        "threshold mismatch: " + str([r for r in rows if not r["exact"]]),
        {"rows": rows})


ALL_CRITERIA = {
    "fbm-covariance": criterion_fbm_covariance,
    "occupation-formula": criterion_occupation_formula,
    "averaging-dual-route": criterion_averaging_agreement,
    "regularization-gain": criterion_regularization_gain,
    "sewing-engine": criterion_sewing_engine,
    "moment-bound-uniformity": criterion_moment_bound,
    "ito-isometry": criterion_ito_isometry,
    "constant-field-identities": criterion_constant_field_identities,
    "martingale-residuals": criterion_martingale_residuals,
    "mollified-cauchy": criterion_mollified_cauchy,
    "admissibility-thresholds": criterion_admissibility,
}
