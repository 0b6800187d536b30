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


def _quantized_sum(ens, scalar_fn, snapped):
    """dt sum_k scalar_fn(X_k - z_k) over the surviving paths: one call per
    step into a (paths, steps) buffer, summed by row."""
    scen = ens.scenario
    x_nodes = ens.values[ens.ok_mask][:, :, :scen.grid.steps]
    return _scalar_on_path(scalar_fn, x_nodes, snapped).sum(axis=1) * scen.grid.dt


def ref_row_sq(ens, sigma_eps, snapped):
    """dt sum |row_0 sigma_eps|^2 at the quantized positions."""
    return _quantized_sum(
        ens, lambda pts: np.sum(sigma_eps(pts)[..., 0, :] ** 2, axis=-1), snapped)


def ref_mixed(ens, sigma_eps, snapped):
    """dt sum (sigma sigma_eps^T)_00 at the quantized positions."""
    sigma = ens.scenario.sigma
    return _quantized_sum(
        ens, lambda pts: np.sum(sigma(pts)[..., 0, :] * sigma_eps(pts)[..., 0, :], axis=-1),
        snapped)


def ref_isometry(ens, sigma_eps, grid, margin_fraction=0.05):
    scen = ens.scenario
    k_t = scen.grid.steps
    x_nodes = ens.values[ens.ok_mask]
    left = (x_nodes[:, 0, k_t] - scen.x0[0]) ** 2
    right = ref_row_sq(ens, sigma_eps, quantized_perturbation(scen.fbm.values, grid))
    return _paired("ito_isometry", f"coordinate 0, t={scen.grid.horizon}", left,
                   right, margin_fraction, {"epsilon": ens.epsilon})


def ref_cross(ens, sigma_eps, grid, epsilon=None, margin_fraction=0.05):
    scen = ens.scenario
    k_t = scen.grid.steps
    ok = ens.ok_mask
    x_nodes, db, w = ens.values[ok], scen.driver_increments[ok], scen.fbm.values
    ito = np.zeros(x_nodes.shape[0])
    for k in range(k_t):
        mats = sigma_eps(x_nodes[:, :, k] - w[:, k])
        ito += np.einsum("pi,pi->p", mats[:, 0, :], db[:, :, k])
    left = (x_nodes[:, 0, k_t] - scen.x0[0]) * ito
    right = ref_mixed(ens, sigma_eps, quantized_perturbation(w, grid))
    d_over_p = scen.dimension / scen.p
    return _paired("cross_term", f"coordinate 0, t={scen.grid.horizon}", left, right,
                   margin_fraction, {"epsilon": epsilon, "d_over_p": d_over_p,
                                     "hypothesis_d_over_p_lt_1": d_over_p < 1.0})


def ref_compensators(ens, sigma_eps, k0, k1):
    """dt sum |row_0 sigma_eps|^2 and dt sum (sigma_eps)_00 at X_k - w_k over
    the steps k0 <= k < k1 of the surviving paths, one running sum each."""
    scen = ens.scenario
    ok = ens.ok_mask
    x_nodes, w = ens.values[ok], scen.fbm.values
    quad = np.zeros(x_nodes.shape[0])
    cross = np.zeros(x_nodes.shape[0])
    for k in range(k0, k1):
        mats = sigma_eps(x_nodes[:, :, k] - w[:, k])
        quad += np.sum(mats[:, 0, :] ** 2, axis=1)
        cross += mats[:, 0, 0]
    return quad * scen.grid.dt, cross * scen.grid.dt


def ref_martingale(ens, sigma_eps, pairs):
    scen = ens.scenario
    tg = scen.grid
    j = i = 0
    ok = ens.ok_mask
    x_nodes, db = ens.values[ok], scen.driver_increments[ok]
    b_nodes = np.concatenate([np.zeros((db.shape[0], db.shape[1], 1)),
                              np.cumsum(db, axis=2)], axis=2)
    mart = x_nodes[:, j, :] - scen.x0[j]
    rows = []
    for s, t in pairs:
        k_s, k_t = tg.window(s, t)
        quad, cross = ref_compensators(ens, sigma_eps, k_s, k_t)
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
    x_nodes, db, w = ens.values[ok], scen.driver_increments[ok], scen.fbm.values
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


@pytest.mark.parametrize("frozen", [False, True], ids=["bounded", "frozen-paths"])
@pytest.mark.parametrize("points", [None, 1300, 24],
                         ids=["default-blocks", "small-blocks", "one-path-blocks"])
@pytest.mark.parametrize("sigma,dimension", [("singular", 1), ("identity", 1),
                                             ("singular", 2), ("identity", 2)])
def test_verify_scenario_matches_per_step_reference(sigma, dimension, points,
                                                    frozen, monkeypatch):
    """The walk's blocks of whole rows never divide the paths: the small
    blocks hold 20 paths of 64 steps or 40 of 32 and leave a partial last
    block, and a budget below the step count walks one path per block.
    With frozen paths, a low blow-up bound freezes a different set of
    paths at each singular radius (one set for the identity field's one
    solve), an abort fraction of 1 keeps the sweep going, and every report
    reads its own radius's survivors."""
    if points is not None:
        monkeypatch.setattr(solver, "WALK_POINTS", points)
    if frozen:
        monkeypatch.setattr(solver, "BLOWUP_BOUND", 1.5)
        monkeypatch.setattr(solver, "BLOWUP_ABORT_FRACTION", 1.0)
    cfg = _small_config(sigma, dimension)
    scenario, fields = build_scenario(cfg, WINDOWS)
    res = verify_scenario(scenario, fields, cfg["m"], cfg["gamma0"], WINDOWS)
    quant_grid = SpatialGrid.cover(scenario.fbm.values.T, scenario.grid.dt)

    eps_seq = scenario.eps_seq
    eps_min = min(eps_seq)
    reference = _solve(scenario, fields[eps_min], eps_min)
    solved = [reference if eps == eps_min else _solve(scenario, fields[eps], eps)
              for eps in eps_seq]
    if frozen:
        assert all(0 < ens.blowup_count < ens.n_paths for ens in solved)
        masks = {ens.ok_mask.tobytes() for ens in solved}
        assert len(masks) == (len(eps_seq) if sigma == "singular" else 1)
    else:
        assert all(ens.blowup_count == 0 for ens in solved)
    for e, (eps, ens) in enumerate(zip(eps_seq, solved)):
        alone, = moment_ratio([ens], cfg["m"], cfg["gamma0"])
        assert res.ratio_reports[e].to_dict() == alone.to_dict()
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
    """One walk of both radii, each along the paths it solved, with blocks
    of 12 paths of 160 steps, which the 97 paths do not fill, and with 50
    points, below the step count, so one path per block.  Each radius in
    turn is the reference, and each report reads its own ensemble's
    survivors."""
    grid = TimeGrid(1.0, 160)
    fbm = generate_fbm(0.2, dimension, grid, 7)
    sigma = (singular_example(0.4, 1.0, dimension) if singular
             else constant_field(1.3 * np.eye(dimension)))
    scen = QuenchedScenario(fbm, sigma, np.full(dimension, 0.3), (0.25, 0.125),
                            97, 5)
    fields = (mollified_family(scen) if singular
              else {eps: sigma for eps in scen.eps_seq})
    # A low blow-up bound freezes part of each ensemble, which the reports mask.
    monkeypatch.setattr(solver, "BLOWUP_BOUND", 0.9)
    solved = [_solve(scen, fields[eps], eps) for eps in scen.eps_seq]
    assert all(0 < ens.blowup_count < ens.n_paths for ens in solved)
    qgrid = SpatialGrid.cover(fbm.values.T, grid.dt)
    snapped = quantized_perturbation(fbm.values, qgrid)
    pairs = [(0.0, 0.5), (0.25, 0.75), (0.3, 1.0)]
    windows = [grid.window(s, t) for s, t in pairs]
    radii = [fields[eps] for eps in scen.eps_seq]
    for points in (12 * 160, 50):
        monkeypatch.setattr(solver, "WALK_POINTS", points)
        for own, ref in enumerate(solved):
            sums = solver.walk_ensemble(solved, radii, own, windows)
            for e, (ens, fld) in enumerate(zip(solved, radii)):
                assert _report_dict(isometry_report(ens, sums, e)) == (
                    ref_isometry(ens, fld, qgrid))
                assert _report_dict(cross_term_report(ref, sums, e)) == ref_cross(
                    ref, fld, qgrid)
            assert _martingale_rows(martingale_reports(ref, sums, pairs)) == (
                ref_martingale(ref, radii[own], pairs))
            report = solver.cauchy_report(scen, sums.ito[:, ref.ok_mask], fields, 4.0)
            assert np.array_equal(report.terminal_integrals, ref_terminals(ref, fields))


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("dimension", [1, 2])
def test_reference_walk_compensates_its_own_field_bit_for_bit(dimension, monkeypatch):
    """The walk's compensators are those of the reference field, and each
    field's squared row is that of the field itself, byte for byte the
    per-step loops' on the survivors, on windows that share a start node.
    Every row is walked, blown-up ones too, which stay finite; a row's
    bytes do not depend on which field is the reference, nor on the other
    fields walked, with frozen paths and blocks of 20 paths that the 61
    paths do not fill."""
    grid = TimeGrid(1.0, 96)
    fbm = generate_fbm(0.2, dimension, grid, 7)
    scen = QuenchedScenario(fbm, singular_example(0.4, 1.0, dimension),
                            np.full(dimension, 0.3), (0.25, 0.125), 61, 5)
    fields = mollified_family(scen)
    radii = [fields[eps] for eps in scen.eps_seq]
    monkeypatch.setattr(solver, "BLOWUP_BOUND", 0.9)
    monkeypatch.setattr(solver, "WALK_POINTS", 20 * grid.steps)
    ens = _solve(scen, radii[1], 0.125)
    ok = ens.ok_mask
    assert 0 < ens.blowup_count < ens.n_paths
    snapped = quantized_perturbation(fbm.values, SpatialGrid.cover(fbm.values.T, grid.dt))
    windows = [(0, 48), (24, 72), (24, 96), (30, 96)]

    sums = solver.walk_ensemble([ens, ens], radii, 1, windows)
    assert sums.quad_comp.shape == sums.cross_comp.shape == (len(windows), ens.n_paths)
    assert sums.row_sq.shape == sums.mixed.shape == (len(radii), ens.n_paths)
    for name in ("ito", "row_sq", "mixed", "quad_comp", "cross_comp", "driver_nodes"):
        assert np.isfinite(getattr(sums, name)).all(), name
    for wi, (k0, k1) in enumerate(windows):
        quad, cross = ref_compensators(ens, radii[1], k0, k1)
        assert _bits(sums.quad_comp[wi][ok]) == _bits(quad)
        assert _bits(sums.cross_comp[wi][ok]) == _bits(cross)
    assert _bits(sums.ito[:, ok]) == _bits(ref_terminals(ens, fields))
    for e, fld in enumerate(radii):
        assert _bits(sums.row_sq[e][ok]) == _bits(ref_row_sq(ens, fld, snapped))
        assert _bits(sums.mixed[e][ok]) == _bits(ref_mixed(ens, fld, snapped))
    # Field 0 squared alone along the paths and field 1 read with the
    # stacked reference reads give the rows they give the other way round.
    flipped = solver.walk_ensemble([ens, ens], radii, 0, windows)
    for name in ("ito", "row_sq", "mixed", "driver_nodes"):
        assert _bits(getattr(flipped, name)) == _bits(getattr(sums, name))
    alone = solver.walk_ensemble([ens], radii[1:], 0, windows)
    for name in ("ito", "row_sq", "mixed"):
        assert _bits(getattr(alone, name)[0]) == _bits(getattr(sums, name)[1])
    for name in ("quad_comp", "cross_comp", "driver_nodes"):
        assert _bits(getattr(alone, name)) == _bits(getattr(sums, name))

    ident = identity_field(dimension)
    id_scen = QuenchedScenario(fbm, ident, np.full(dimension, 0.3), (0.25,), 61, 5)
    id_ens = _solve(id_scen, ident)
    id_ok = id_ens.ok_mask
    id_sums = solver.walk_ensemble([id_ens], [ident], 0, windows)
    for wi, (k0, k1) in enumerate(windows):
        quad, cross = ref_compensators(id_ens, ident, k0, k1)
        assert _bits(id_sums.quad_comp[wi][id_ok]) == _bits(quad)
        assert _bits(id_sums.cross_comp[wi][id_ok]) == _bits(cross)
    assert _bits(id_sums.ito[:, id_ok]) == _bits(ref_terminals(id_ens, {0.25: ident}))
    assert _bits(id_sums.row_sq[0][id_ok]) == _bits(ref_row_sq(id_ens, ident, snapped))
    assert _bits(id_sums.mixed[0][id_ok]) == _bits(ref_mixed(id_ens, ident, snapped))
    twice = solver.walk_ensemble([id_ens] * 2, [ident] * 2, 0, windows)
    assert _bits(twice.row_sq[1]) == _bits(id_sums.row_sq[0])


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
    assert ens.scenario.driver_increments is db
    assert _solve(scenario, fields[0.125]).scenario.driver_increments is db
    assert len(streams) == cfg["paths"] * n
    assert set(streams) == sweep_streams


def test_walk_rejects_bad_windows_references_and_ensembles():
    scen = QuenchedScenario(generate_fbm(0.2, 1, TimeGrid(1.0, 16), 3),
                            identity_field(1), [0.0], (0.5,), 4, 1)
    ens = _solve(scen, scen.sigma)
    ident = identity_field(1)
    # Every window must be a node pair of the grid: the sums of an empty
    # window, or one past the horizon, are not a window's sums.
    for windows in ([(4, 4)], [(8, 4)], [(0, 17)], [(-1, 4)]):
        with pytest.raises(ParameterError, match="node pairs"):
            solver.walk_ensemble([ens], [ident], 0, windows)
    # The reference must be one of the walked fields.
    for own in (1, -1):
        with pytest.raises(ParameterError, match="own field"):
            solver.walk_ensemble([ens], [ident], own, [(0, 4)])
    # Each field walks the paths of its own ensemble: one ensemble per
    # field, all with the same rows.
    for ensembles, fields in (([ens], [ident] * 2), ([ens] * 2, [ident])):
        with pytest.raises(ParameterError, match="ensembles for"):
            solver.walk_ensemble(ensembles, fields, 0, [])
    fewer = _solve(replace(scen, ensemble_size=3), scen.sigma)
    with pytest.raises(ParameterError, match="different numbers of paths"):
        solver.walk_ensemble([ens, fewer], [ident] * 2, 0, [])


def _carry_from_zero(terms):
    """The running sum from a zero row, as the walk first took it."""
    start = np.zeros((terms.shape[0], 1) + terms.shape[2:])
    return np.cumsum(np.concatenate([start, terms], axis=1), axis=1)[:, -1]


@pytest.mark.parametrize("shape", [(3, 9, 4, 2), (1, 9, 4, 2), (3, 9, 1, 1),
                                   (1, 9, 1), (2, 1, 3)],
                         ids=["paths-fields-d", "one-path", "one-field",
                              "one-path-one-field", "one-step"])
def test_carry_equals_the_sum_from_zero(shape):
    """_carry's read-outs of one running sum equal, bit for bit, a sum from
    a zero row over each count of steps: on runs of -0.0 (which alone end
    at -0.0 without the zero row), mixed zeros, NaN and infinities.  _carry
    sums along the last axis, so axis 1 of `shape` is moved there."""
    rng = np.random.default_rng(3)
    special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324])
    terms = np.where(rng.random(shape) < 0.5, rng.normal(size=shape),
                     rng.choice(special, size=shape))
    terms[0] = -0.0                     # a whole run of -0.0
    terms[-1, :, ...] = rng.choice([-0.0, 0.0], size=terms[-1].shape)
    steps = shape[1]
    counts = sorted({1, (steps + 1) // 2, steps})
    with np.errstate(over="ignore", invalid="ignore"):
        carried = solver._carry(np.moveaxis(terms, 1, -1), counts)
        wants = [_carry_from_zero(terms[:, :count]) for count in counts]
    for got, want in zip(carried, wants):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert not np.any(np.signbit(carried[-1][0]))


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


def _chunks_of_37(scenario, n_fields, monkeypatch):
    monkeypatch.setattr(experiments, "CHUNK_BYTES",
                        37 * experiments._chunk_paths(scenario, n_fields)[1])


def _report_bits(report):
    """A report's to_dict with every float as its hex string: equal bit for bit."""
    return {key: value.hex() if isinstance(value, float) else value
            for key, value in report.to_dict().items()}


def test_identity_control_equals_its_whole_solve_bit_for_bit():
    """The identity-field control goes through the sweep's chunk loop and
    keeps only the nodes a sweep keeps; its exact and its martingale
    reports equal, report by report and bit for bit, those of the whole
    solve walked as one ensemble."""
    grid = TimeGrid(1.0, 256)
    fbm = generate_fbm(0.2, 1, grid, 3)
    sigma = identity_field(1)
    scen = QuenchedScenario(fbm, sigma, np.zeros(1), (0.25,), 4000, 13, p=2.0)
    pairs = [(0.25, 0.5), (0.5, 1.0)]
    ens, = solver.solve_fields(scen, [sigma])
    assert ens.nodes == range(grid.steps + 1)
    sums = solver.walk_ensemble([ens], [sigma], 0, [grid.window(s, t) for s, t in pairs])
    exact = [isometry_report(ens, sums, 0), cross_term_report(ens, sums, 0),
             lebesgue_vs_sewing(ens.values[0], fbm, hs_norm_sq(sigma),
                                SpatialGrid.cover(fbm.values.T, grid.dt), (0.25, 0.75))]
    experiments._identity_field_reports.cache_clear()
    got_exact, got_martingale = experiments._identity_field_reports()
    assert [_report_bits(r) for r in got_exact] == [
        _report_bits(replace(r, margin=0.0)) for r in exact]
    assert [_report_bits(r) for r in got_martingale] == [
        _report_bits(r) for r in martingale_reports(ens, sums, pairs)]
    assert len(got_martingale) == 36


@pytest.mark.parametrize("sigma,dimension", [("singular", 1), ("identity", 1),
                                             ("singular", 2), ("identity", 2)])
def test_kept_ensembles_read_the_whole_solve_at_their_nodes(sigma, dimension,
                                                            monkeypatch):
    """A sweep's kept ensembles, solved in chunks of 37 paths, name the
    nodes they keep and read the whole solve's values there bit for bit,
    in any order, with its blow-up steps.  The walk refuses them, alone or
    beside whole ones: it reads every node."""
    cfg = _small_config(sigma, dimension)
    scenario, fields = build_scenario(cfg, WINDOWS)
    distinct, _slot = experiments._distinct_fields(scenario, fields)
    grid = scenario.grid
    keep = experiments._kept_nodes(grid, [grid.window(s, t) for s, t in WINDOWS])
    whole = solver.solve_fields(scenario, distinct)
    _chunks_of_37(scenario, len(distinct), monkeypatch)
    kept, _, _ = experiments._solve_in_chunks(scenario, distinct, keep, None, 0)
    assert len(kept) == len(whole) == (1 if sigma == "identity" else len(cfg["eps"]))
    for ens, full in zip(kept, whole):
        assert ens.nodes == keep and full.nodes == range(grid.steps + 1)
        assert ens.values.shape == (cfg["paths"], dimension, len(keep))
        for ks in (keep, keep[::-3]):
            assert ens.at_nodes(ks).tobytes() == full.values[:, :, list(ks)].tobytes()
            assert ens.at_nodes(ks).tobytes() == full.at_nodes(ks).tobytes()
        assert np.array_equal(ens.blowup_steps, full.blowup_steps)
    for ensembles in (kept, whole[:-1] + kept[-1:]):
        with pytest.raises(ParameterError, match="every grid node"):
            solver.walk_ensemble(ensembles, distinct, 0, [])


def test_a_kept_ensemble_refuses_a_node_it_does_not_keep():
    """A verify sweep's kept ensemble holds the level-4 dyadic and the
    martingale nodes; asked for any other, such as the level-6 nodes its
    moment table reads, it raises ParameterError naming the nodes it lacks
    and those it keeps, not tuple.index's bare ValueError."""
    cfg = dict(_small_config("singular", 1), paths=50)
    scenario, fields = build_scenario(cfg, WINDOWS)
    distinct, _slot = experiments._distinct_fields(scenario, fields)
    grid = scenario.grid
    keep = experiments._kept_nodes(grid, [grid.window(s, t) for s, t in WINDOWS])
    ens = experiments._solve_in_chunks(scenario, distinct, keep, None, 0)[0][0]
    missing = [k for k in range(grid.steps + 1) if k not in keep]
    assert ens.nodes == keep and missing
    with pytest.raises(ParameterError) as refused:
        ens.at_nodes([keep[1], missing[0], keep[0], missing[-1]])
    assert str(refused.value) == (f"nodes {[missing[0], missing[-1]]} are not kept; "
                                  f"it keeps {keep}")
    with pytest.raises(ParameterError, match="are not kept"):
        ens.moment_table(4.0)
    assert ens.at_nodes(keep[::-1]).shape == (50, 1, len(keep))


@pytest.mark.parametrize("sigma", ["singular", "identity"])
def test_sweeps_draw_no_drivers_on_the_whole_scenario(sigma):
    """solve_scenario and verify_scenario draw each chunk's drivers on that
    chunk's scenario; the sweep's own scenario, which its kept ensembles
    name, never caches drivers for every path, and reading a kept
    ensemble's moment table draws none."""
    cfg = _small_config(sigma, 1)
    scenario, fields = build_scenario(cfg, WINDOWS)
    for ens in experiments.solve_scenario(scenario, fields):
        assert ens.scenario is scenario
        ens.moment_table(cfg["m"])
    assert "driver_increments" not in vars(scenario)
    verify_scenario(scenario, fields, cfg["m"], cfg["gamma0"], WINDOWS)
    assert "driver_increments" not in vars(scenario)


@pytest.mark.parametrize("sigma,dimension", [("singular", 1), ("identity", 1),
                                             ("singular", 2), ("identity", 2)])
def test_pre_flight_counts_the_sums_the_walk_holds(sigma, dimension, monkeypatch):
    """The pre-flight's sums per path, _walk_floats, are the bytes of every
    array of the sweep's joined PathSums, walked in chunks of 37 paths."""
    cfg = _small_config(sigma, dimension)
    scenario, fields = build_scenario(cfg, WINDOWS)
    n_fields = len(experiments._distinct_fields(scenario, fields)[0])
    walked = []
    walk = experiments.walk_ensemble

    def kept(*args):
        walked.append(walk(*args))
        return walked[-1]

    monkeypatch.setattr(experiments, "walk_ensemble", kept)
    _chunks_of_37(scenario, n_fields, monkeypatch)
    verify_scenario(scenario, fields, cfg["m"], cfg["gamma0"], WINDOWS)
    assert len(walked) == math.ceil(cfg["paths"] / 37)
    sums = solver.PathSums.join(walked)
    held = sum(value.nbytes for value in vars(sums).values()
               if isinstance(value, np.ndarray))
    windows = [scenario.grid.window(s, t) for s, t in WINDOWS]
    assert held == 8 * cfg["paths"] * experiments._walk_floats(scenario, n_fields,
                                                               windows)


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
    and one walk of that one field serve them all; each report keeps its
    own radius."""
    calls = {"recursions": 0, "walks": 0}
    walk_fields = []

    def counting(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            if name == "walks":
                walk = inspect.signature(fn).bind(*args, **kwargs).arguments
                walk_fields.append((len(walk["ensembles"]), len(walk["fields"]),
                                    walk["own"]))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(solver, "_euler_batch",
                        counting("recursions", solver._euler_batch))
    monkeypatch.setattr(experiments, "walk_ensemble",
                        counting("walks", experiments.walk_ensemble))
    cfg = _small_config("identity", 1)
    res = verify_scenario(*build_scenario(cfg, WINDOWS), cfg["m"], cfg["gamma0"], WINDOWS)
    assert calls == {"recursions": 1, "walks": 1}
    assert walk_fields == [(1, 1, 0)]
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
