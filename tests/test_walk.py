"""The one walk over stored paths against the per-step loops it replaced.

The reference functions below are the per-check loops the identity checks
used before they were fused into `walk_ensemble`: one field call per time
step, running sums for the Ito sums and compensators, a (paths, steps)
buffer summed by row for the quantized averages.  Every result must agree
with them bit for bit.  Like the walk, they read coordinate 0 of the
solution and of the driver, over the whole horizon.
"""

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from fbmlab import (BlowUpError, ParameterError, QuenchedScenario, SpatialGrid,
                    TimeGrid, constant_field, generate_fbm, hs_norm_sq,
                    identity_field, lebesgue_vs_sewing, mollified_family,
                    moment_ratio, quantized_perturbation, singular_example,
                    weight_dictionary)
from fbmlab import experiments, paths, solver
from fbmlab.experiments import HEADLINE_CONFIG, build_scenario, verify_scenario
from fbmlab.fields import lp_norm
from fbmlab.solver import family_grid
from fbmlab.verify import (cross_term_report, isometry_report,
                           martingale_reports)


def _solve(scenario, field, epsilon=None):
    """One field solved alone over the scenario's drivers, at radius epsilon."""
    ens, = solver.solve_fields(scenario, [field])
    return replace(ens, epsilon=epsilon)


# --- reference: the per-step loops --------------------------------------------

def _scalar_on_path(scalar_fn, x_nodes, positions):
    out = np.empty((x_nodes.shape[0], positions.shape[0]))
    for k in range(positions.shape[0]):
        out[:, k] = scalar_fn(x_nodes[:, :, k] - positions[k])
    return out


def _paired(tag, label, left_samples, right_samples, margin_fraction, extras):
    diff = left_samples - right_samples
    stderr = float(diff.std(ddof=1) / math.sqrt(diff.size)) if diff.size > 1 else 0.0
    left, right = float(left_samples.mean()), float(right_samples.mean())
    return {"tag": tag, "label": label, "left": left, "right": right,
            "stderr": stderr,
            "margin": margin_fraction * max(abs(left), abs(right)), **extras}


def ref_isometry(ens, sigma_eps, grid, margin_fraction=0.05):
    scen = ens.scenario
    k_t = scen.grid.steps
    x_nodes = ens.values[ens.ok_mask]
    left = (x_nodes[:, 0, k_t] - scen.x0[0]) ** 2

    def row_sq(pts):
        return np.sum(sigma_eps(pts)[..., 0, :] ** 2, axis=-1)

    snapped = quantized_perturbation(scen.fbm.values, grid)
    right = _scalar_on_path(row_sq, x_nodes[:, :, :k_t], snapped).sum(axis=1) * scen.grid.dt
    return _paired("ito_isometry", f"coordinate 0, t={scen.grid.horizon}", left,
                   right, margin_fraction, {"epsilon": ens.epsilon})


def ref_cross(ens, sigma_eps, grid, epsilon=None, margin_fraction=0.05):
    scen = ens.scenario
    k_t = scen.grid.steps
    ok = ens.ok_mask
    x_nodes, db, w = ens.values[ok], ens.driver_increments[ok], scen.fbm.values
    ito = np.zeros(x_nodes.shape[0])
    for k in range(k_t):
        mats = sigma_eps(x_nodes[:, :, k] - w[:, k])
        ito += np.einsum("pi,pi->p", mats[:, 0, :], db[:, :, k])
    left = (x_nodes[:, 0, k_t] - scen.x0[0]) * ito

    def mixed(pts):
        return np.sum(scen.sigma(pts)[..., 0, :] * sigma_eps(pts)[..., 0, :], axis=-1)

    snapped = quantized_perturbation(w, grid)
    right = _scalar_on_path(mixed, x_nodes[:, :, :k_t], snapped).sum(axis=1) * scen.grid.dt
    d_over_p = scen.dimension / scen.p
    return _paired("cross_term", f"coordinate 0, t={scen.grid.horizon}", left, right,
                   margin_fraction, {"epsilon": epsilon, "d_over_p": d_over_p,
                                     "hypothesis_d_over_p_lt_1": d_over_p < 1.0})


def ref_martingale(ens, sigma_eps, pairs):
    scen = ens.scenario
    tg = scen.grid
    j = i = 0
    ok = ens.ok_mask
    x_nodes, db, w = ens.values[ok], ens.driver_increments[ok], scen.fbm.values
    b_nodes = np.concatenate([np.zeros((db.shape[0], db.shape[1], 1)),
                              np.cumsum(db, axis=2)], axis=2)

    def row_sq_on(k0, k1):
        out = np.zeros(x_nodes.shape[0])
        for k in range(k0, k1):
            mats = sigma_eps(x_nodes[:, :, k] - w[:, k])
            out += np.sum(mats[:, j, :] ** 2, axis=1)
        return out * tg.dt

    def entry_on(k0, k1):
        out = np.zeros(x_nodes.shape[0])
        for k in range(k0, k1):
            out += sigma_eps(x_nodes[:, :, k] - w[:, k])[:, j, i]
        return out * tg.dt

    mart = x_nodes[:, j, :] - scen.x0[j]
    rows = []
    for s, t in pairs:
        k_s, k_t = tg.window(s, t)
        quad, cross = row_sq_on(k_s, k_t), entry_on(k_s, k_t)
        zs = {"level": mart[:, k_t] - mart[:, k_s],
              "quadratic": mart[:, k_t] ** 2 - mart[:, k_s] ** 2 - quad,
              "cross": (mart[:, k_t] * b_nodes[:, i, k_t]
                        - mart[:, k_s] * b_nodes[:, i, k_s] - cross)}
        ranges = {"level": (0.0, 0.0),
                  "quadratic": (float(quad.min()), float(quad.max())),
                  "cross": (float(cross.min()), float(cross.max()))}
        for family, z in zs.items():
            for label, w_fn in weight_dictionary(scen.dimension, scen.driver_dimension):
                samples = w_fn(x_nodes, b_nodes, k_s, k_s // 2) * z
                stderr = (float(samples.std(ddof=1) / math.sqrt(samples.size))
                          if samples.size > 1 else 0.0)
                rows.append((f"{family}/{label}/window[{s},{t}]",
                             float(samples.mean()), stderr, ranges[family]))
    return rows


def ref_terminals(ens, fields):
    scen = ens.scenario
    ok = ens.ok_mask
    x_nodes, db, w = ens.values[ok], ens.driver_increments[ok], scen.fbm.values
    out = np.zeros((len(scen.eps_seq), x_nodes.shape[0], scen.dimension))
    for e, eps in enumerate(scen.eps_seq):
        for k in range(scen.grid.steps):
            mats = fields[eps](x_nodes[:, :, k] - w[:, k])
            out[e] += np.einsum("pij,pj->pi", mats, db[:, :, k])
    return out


def _report_dict(report):
    out = report.to_dict()
    del out["passed"]
    return out


def _martingale_rows(reports):
    return [(r.label, r.left, r.stderr,
             (r.extras["compensator_min"], r.extras["compensator_max"]))
            for r in reports]


# --- the sweep ------------------------------------------------------------------

WINDOWS = [(0.25, 0.5), (0.5, 0.75), (0.25, 1.0)]


def _small_config(sigma, dimension):
    cfg = dict(HEADLINE_CONFIG, sigma=sigma, dimension=dimension)
    if dimension == 1:
        return dict(cfg, paths=150, steps=64)
    return dict(cfg, paths=70, steps=32, x0=[0.5, -0.2], eps=[0.25, 0.125])


@pytest.mark.parametrize("points", [None, 1300, 24],
                         ids=["default-blocks", "small-blocks", "one-path-blocks"])
@pytest.mark.parametrize("sigma,dimension", [("singular", 1), ("identity", 1),
                                             ("singular", 2), ("identity", 2)])
def test_verify_scenario_matches_per_step_reference(sigma, dimension, points,
                                                    monkeypatch):
    """The walk's blocks of whole rows never divide the paths: the small
    blocks hold 20 paths of 64 steps or 40 of 32 and leave a partial last
    block, and a budget below the step count walks one path per block."""
    if points is not None:
        monkeypatch.setattr(solver, "WALK_POINTS", points)
    cfg = _small_config(sigma, dimension)
    scenario, fields = build_scenario(cfg, WINDOWS)
    res = verify_scenario(scenario, fields, cfg["m"], cfg["gamma0"], WINDOWS)
    quant_grid = SpatialGrid.cover(scenario.fbm.values.T, scenario.grid.dt)

    eps_seq = scenario.eps_seq
    eps_min = min(eps_seq)
    reference = _solve(scenario, fields[eps_min], eps_min)
    for e, eps in enumerate(eps_seq):
        ens = (reference if eps == eps_min
               else _solve(scenario, fields[eps], eps))
        assert res.ratio_reports[e].to_dict() == moment_ratio(ens, cfg["m"],
                                                              cfg["gamma0"]).to_dict()
        assert _report_dict(res.iso_reports[e]) == ref_isometry(
            ens, fields[eps], quant_grid)
        assert _report_dict(res.cross_reports[e]) == ref_cross(
            reference, fields[eps], quant_grid, epsilon=eps)
    assert _martingale_rows(res.martingale_reports) == ref_martingale(
        reference, fields[eps_min], WINDOWS)
    qv = lebesgue_vs_sewing(reference.values[0], scenario.fbm,
                            hs_norm_sq(fields[eps_min]), quant_grid, (0.25, 0.75))
    assert res.qv_report == qv

    terminals = ref_terminals(reference, fields)
    assert np.array_equal(res.cauchy.terminal_integrals, terminals)
    half = cfg["m"] / 2.0
    diffs = tuple(float(np.mean(np.linalg.norm(b - a, axis=1) ** half) ** (1.0 / half))
                  for a, b in zip(terminals[:-1], terminals[1:]))
    if sigma == "singular":
        gaps = tuple(lp_norm(fields[b] - fields[a], scenario.p, family_grid(scenario))
                     for a, b in zip(eps_seq[:-1], eps_seq[1:]))
    else:  # one field at every radius
        gaps = (0.0,) * (len(eps_seq) - 1)
    assert res.cauchy.consecutive_diffs == diffs
    assert res.cauchy.sigma_gaps == gaps


# --- one walk and the report builders, with frozen paths -------------------------

@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("singular", [True, False], ids=["singular", "identity"])
def test_standalone_checks_match_reference_with_frozen_paths(dimension, singular,
                                                             monkeypatch):
    """A reference walk and an isometry walk over both radii, each with
    blocks of 12 paths of 160 steps, which the 50 or 57 surviving singular
    paths do not fill, and with 50 points, below the step count, so one
    path per block."""
    grid = TimeGrid(1.0, 160)
    fbm = generate_fbm(0.2, dimension, grid, 7)
    sigma = (singular_example(0.4, 1.0, dimension) if singular
             else constant_field(1.3 * np.eye(dimension)))
    scen = QuenchedScenario(fbm, sigma, np.full(dimension, 0.3), (0.25, 0.125),
                            97, 5)
    fields = (mollified_family(scen) if singular
              else {eps: sigma for eps in scen.eps_seq})
    # A low blow-up bound freezes part of the ensemble, which the sums mask.
    monkeypatch.setattr(solver, "BLOWUP_BOUND", 0.9)
    ens = _solve(scen, fields[0.125], 0.125)
    assert 0 < ens.blowup_count < ens.n_paths
    qgrid = SpatialGrid.cover(fbm.values.T, grid.dt)
    snapped = quantized_perturbation(fbm.values, qgrid)
    pairs = [(0.0, 0.5), (0.25, 0.75), (0.3, 1.0)]
    windows = [grid.window(s, t) for s, t in pairs]
    radii = [fields[eps] for eps in scen.eps_seq]
    for points in (40 * 48, 50):
        monkeypatch.setattr(solver, "WALK_POINTS", points)
        sums = solver.walk_ensemble(ens, radii, snapped, windows)
        isometry = solver.walk_ensemble(ens, radii, snapped)
        for e, fld in enumerate(radii):
            for walked in (sums, isometry):
                assert _report_dict(isometry_report(ens, walked, e)) == ref_isometry(
                    ens, fld, qgrid)
            assert _report_dict(cross_term_report(ens, sums, e)) == ref_cross(
                ens, fld, qgrid)
            assert _martingale_rows(martingale_reports(ens, sums, e, pairs)) == (
                ref_martingale(ens, fld, pairs))
        report = solver.cauchy_report(scen, sums.ito, fields, 4.0)
        assert np.array_equal(report.terminal_integrals, ref_terminals(ens, fields))


# --- drivers ---------------------------------------------------------------------

def test_sweep_draws_each_driver_stream_once(monkeypatch):
    """One Philox stream per (path, driver component) for the whole sweep,
    plus one per component of the frozen fBm path.  The sweep draws its
    drivers chunk by chunk; the scenario's read-only driver array, drawn
    once on first use, is shared by every ensemble solved from it."""
    streams = []
    component_rng = paths._component_rng

    def counted(seed, path_index, component):
        streams.append((seed, path_index, component))
        return component_rng(seed, path_index, component)

    monkeypatch.setattr(paths, "_component_rng", counted)
    cfg = _small_config("singular", 2)
    scenario, fields = build_scenario(cfg, WINDOWS)
    verify_scenario(scenario, fields, cfg["m"], cfg["gamma0"], WINDOWS)
    n = scenario.driver_dimension
    assert len(streams) == cfg["paths"] * n + cfg["dimension"]
    assert len(set(streams)) == len(streams)

    sweep_streams = set(streams[cfg["dimension"]:])
    streams.clear()
    db = scenario.driver_increments
    assert not db.flags.writeable
    with pytest.raises(ValueError):
        db[0, 0, 0] = 1.0
    ens = _solve(scenario, fields[0.25], 0.25)
    assert ens.driver_increments is db
    assert _solve(scenario, fields[0.125]).driver_increments is db
    assert len(streams) == cfg["paths"] * n
    assert set(streams) == sweep_streams


def test_walk_rejects_too_few_snapped_positions():
    scen = QuenchedScenario(generate_fbm(0.2, 1, TimeGrid(1.0, 16), 3),
                            identity_field(1), [0.0], (0.5,), 4, 1)
    ens = _solve(scen, scen.sigma)
    with pytest.raises(ParameterError):
        solver.walk_ensemble(ens, [identity_field(1)], np.zeros((15, 1)))


# --- chunks of paths ----------------------------------------------------------------

def _sweep_record(res):
    """Every report, the terminals and the Cauchy gaps of a sweep."""
    return ([r.to_dict() for r in res.ratio_reports], res.trend,
            [r.to_dict() for r in res.iso_reports + res.cross_reports
             + res.martingale_reports + [res.qv_report]],
            res.cauchy.terminal_integrals.tobytes(), res.cauchy.consecutive_diffs,
            res.cauchy.sigma_gaps)


@pytest.mark.parametrize("sigma,dimension", [("singular", 1), ("identity", 1),
                                             ("singular", 2), ("identity", 2)])
def test_sweep_does_not_depend_on_the_chunk_size(sigma, dimension, monkeypatch):
    """Budgets of 1, 37 and all paths per chunk give the same bits as the
    default, and each runs as many chunks as it should."""
    cfg = _small_config(sigma, dimension)
    scenario, fields = build_scenario(cfg, WINDOWS)

    def sweep():
        return _sweep_record(verify_scenario(scenario, fields, cfg["m"],
                                             cfg["gamma0"], WINDOWS))

    whole = sweep()
    drawn = []
    bm_rows = solver._bm_rows

    def counted(*args):
        drawn.append(args[-1])
        return bm_rows(*args)

    monkeypatch.setattr(solver, "_bm_rows", counted)
    n_fields = len(scenario.eps_seq) if sigma == "singular" else 1
    steps = scenario.grid.steps
    per_path = 8 * (n_fields * dimension * (steps + 1) + dimension * steps)
    for budget in (1, 37, cfg["paths"]):
        drawn.clear()
        monkeypatch.setattr(experiments, "CHUNK_BYTES", budget * per_path)
        assert sweep() == whole
        assert len(drawn) == math.ceil(cfg["paths"] / budget)
        assert sum(drawn) == cfg["paths"] and max(drawn) - min(drawn) <= 1


def _first_failing_radius(scenario, fields):
    """The radius and count the per-radius solves abort on: the reference
    first, then the others in eps_seq order."""
    eps_min = min(scenario.eps_seq)
    for eps in [eps_min] + [e for e in scenario.eps_seq if e != eps_min]:
        ens = _solve(scenario, fields[eps], eps)
        if ens.blowup_count > solver.BLOWUP_ABORT_FRACTION * ens.n_paths:
            return eps, ens.blowup_count
    return None


@pytest.mark.parametrize("case", ["low-bound", "late-radius"])
def test_sweep_blowup_names_the_radius_and_whole_ensemble_count(case, monkeypatch):
    """With chunks of 37 paths, the abort names the radius the per-radius
    solves abort on, with the count over the whole ensemble.  In the
    late-radius case the reference and the first radius stay bounded and
    the second does not."""
    cfg = _small_config("singular", 1)
    scenario, fields = build_scenario(cfg, WINDOWS)
    if case == "low-bound":
        monkeypatch.setattr(solver, "BLOWUP_BOUND", 0.9)
    else:
        fields = {eps: constant_field(np.array([[1e9 if e in (1, 3) else 0.5]]))
                  for e, eps in enumerate(scenario.eps_seq)}
    eps, count = _first_failing_radius(scenario, fields)
    assert case == "low-bound" or eps == scenario.eps_seq[1]
    monkeypatch.setattr(experiments, "CHUNK_BYTES", 37 * 8 * (
        len(scenario.eps_seq) * (scenario.grid.steps + 1) + scenario.grid.steps))
    with pytest.raises(BlowUpError, match=f"at epsilon={eps} ") as info:
        verify_scenario(scenario, fields, cfg["m"], cfg["gamma0"], WINDOWS)
    assert info.value.count == count


def test_identity_sweep_solves_and_walks_its_field_once(monkeypatch):
    """Every radius of the identity sweep shares one field, so one recursion
    and one reference walk of that one field serve them all; each report
    keeps its own radius."""
    calls = {"recursions": 0, "walks": 0}
    walk_fields = []

    def counting(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            if name == "walks":
                walk = inspect.signature(fn).bind(*args, **kwargs).arguments
                walk_fields.append((len(walk["fields"]), walk.get("windows") is not None))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(solver, "_euler_batch",
                        counting("recursions", solver._euler_batch))
    monkeypatch.setattr(experiments, "walk_ensemble",
                        counting("walks", experiments.walk_ensemble))
    cfg = _small_config("identity", 1)
    res = verify_scenario(*build_scenario(cfg, WINDOWS), cfg["m"], cfg["gamma0"], WINDOWS)
    assert calls == {"recursions": 1, "walks": 1}
    assert walk_fields == [(1, True)]
    eps_seq = tuple(cfg["eps"])
    assert tuple(r.epsilon for r in res.ratio_reports) == eps_seq
    assert tuple(r.extras["epsilon"] for r in res.iso_reports) == eps_seq


@pytest.mark.parametrize("dimension", [1, 2])
def test_identity_sweep_measures_no_field_gap(dimension, monkeypatch):
    """The identity sweep's radii share one field, so the Cauchy report
    integrates no field difference: every L^p gap is exactly 0.0, with no
    lp_norm call."""
    calls = []
    norm = solver.lp_norm

    def counted(*args):
        calls.append(args)
        return norm(*args)

    monkeypatch.setattr(solver, "lp_norm", counted)
    cfg = _small_config("identity", dimension)
    res = verify_scenario(*build_scenario(cfg, WINDOWS), cfg["m"], cfg["gamma0"], WINDOWS)
    assert calls == []
    assert res.cauchy.sigma_gaps == (0.0,) * (len(cfg["eps"]) - 1)
