"""Quenched ensembles: scheme anchors, reproducibility and mollified sweeps."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmlab import (BlowUpError, ParameterError, QuenchedScenario, SpatialGrid,
                    TimeGrid, constant_field, generate_fbm, identity_field,
                    mollified_family, quantized_perturbation, singular_example,
                    solver)
from fbmlab.paths import _bm_rows
from fbmlab.solver import (BLOWUP_BOUND, _abort_on_blowups, _euler_batch,
                           cauchy_report, family_grid, solve_fields, walk_ensemble)

GRID = TimeGrid(1.0, 64)
FBM = generate_fbm(0.2, 1, GRID, seed=5)
BASE_SEED = 17


def _identity_scenario(paths: int = 32) -> QuenchedScenario:
    return QuenchedScenario(FBM, identity_field(1), [0.0], (0.5, 0.25),
                            paths, BASE_SEED)


def _solve(scenario, field=None, epsilon=None):
    """`field`, by default the scenario's own, solved alone at radius epsilon."""
    field = scenario.sigma if field is None else field
    ens, = solve_fields(scenario, [field])
    return replace(ens, epsilon=epsilon)


def test_scenario_validation():
    with pytest.raises(ParameterError):
        QuenchedScenario(FBM, identity_field(1), [0.0, 0.0], (0.5,), 8, 1)
    with pytest.raises(ParameterError):
        QuenchedScenario(FBM, identity_field(2), [0.0, 0.0], (0.5,), 8, 1)
    with pytest.raises(ParameterError):
        QuenchedScenario(FBM, identity_field(1), [0.0], (0.5,), 0, 1)
    with pytest.raises(ParameterError):
        QuenchedScenario(FBM, identity_field(1), [0.0], (0.5, 0.5), 8, 1)
    with pytest.raises(ParameterError):
        QuenchedScenario(FBM, identity_field(1), [0.0], (0.5, -0.1), 8, 1)
    # An infinite or NaN radius, or none, used to pass the e <= 0 check.
    for eps_seq in ((np.inf, 1.0), (np.nan,)):
        with pytest.raises(ParameterError, match="radii must be positive and finite"):
            QuenchedScenario(FBM, identity_field(1), [0.0], eps_seq, 8, 1)
    with pytest.raises(ParameterError, match="at least one radius"):
        QuenchedScenario(FBM, identity_field(1), [0.0], (), 8, 1)
    # A field must fit the scenario's shared drivers.
    with pytest.raises(ParameterError):
        solve_fields(_identity_scenario(), [identity_field(1), identity_field(2)])


@pytest.mark.parametrize("p", [np.nan, 0.0, -1.0, np.inf])
def test_scenario_refuses_a_non_positive_p_before_any_driver(monkeypatch, p):
    """These used to construct: a sweep at p = nan returned NaN Cauchy gaps
    without an error, one at p = 0 solved and walked every path before
    lp_norm refused it, and one at p = inf read 1.0 for every Cauchy gap."""
    def no_draw(*_args):
        raise AssertionError("the scenario drew drivers")

    monkeypatch.setattr(solver, "_bm_rows", no_draw)
    with pytest.raises(ParameterError, match=f"p must be positive and finite, got {p}"):
        QuenchedScenario(FBM, identity_field(1), [0.0], (0.5, 0.25), 8, 1, p=p)


def test_identity_field_reduces_to_the_driver():
    """With sigma the identity the scheme telescopes to X = x0 + B, with
    bit-identical rounding to a running cumulative sum."""
    ens = _solve(_identity_scenario())
    expected = np.zeros_like(ens.values)
    expected[:, :, 1:] = np.cumsum(ens.scenario.driver_increments, axis=2)
    assert np.array_equal(ens.values, expected)
    assert ens.blowup_count == 0
    assert ens.epsilon is None


def test_scenario_rows_are_a_window_of_the_ensemble():
    """A scenario over rows first_path .. first_path + size - 1 draws and
    solves exactly those rows of the whole ensemble; keys past 2**32 - 1
    are refused."""
    whole = _solve(_identity_scenario())
    for first, size in ((0, 5), (5, 27), (31, 1)):
        rows = replace(_identity_scenario(), first_path=first, ensemble_size=size)
        part = _solve(rows)
        assert np.array_equal(part.scenario.driver_increments,
                              whole.scenario.driver_increments[first:first + size])
        assert np.array_equal(part.values, whole.values[first:first + size])
    with pytest.raises(ParameterError):
        replace(_identity_scenario(), first_path=(1 << 32) - 2, ensemble_size=3)


def _reference_scheme(sigma, w_values, db, x0, blowup_bound):
    """The one-field scheme, one field call per step."""
    n_paths, _, steps = db.shape
    values = np.empty((n_paths, x0.size, steps + 1))
    values[:, :, 0] = x0
    x = np.broadcast_to(x0, (n_paths, x0.size)).copy()
    blowup = np.full(n_paths, -1, dtype=np.int64)
    alive = np.ones(n_paths, dtype=bool)
    for k in range(steps):
        step = np.einsum("pij,pj->pi", sigma(x - w_values[:, k]), db[:, :, k])
        x = np.where(alive[:, None], x + step, x)
        bad = alive & (~np.isfinite(x).all(axis=1) | (np.abs(x).max(axis=1) > blowup_bound))
        if np.any(bad):
            x = np.where(bad[:, None], values[:, :, k], x)
            blowup[bad] = k + 1
            alive &= ~bad
        values[:, :, k + 1] = x
    return values, blowup


def _stack_members(d: int):
    """The perturbation path and four mollified radii of one LatticeStack."""
    fbm = generate_fbm(0.2, d, GRID, seed=5)
    scenario = QuenchedScenario(fbm, singular_example(0.4, 1.0, d), np.full(d, 0.5),
                                (0.5, 0.375, 0.25, 0.125), 8, BASE_SEED)
    fields = mollified_family(scenario)
    return fbm, [fields[eps] for eps in scenario.eps_seq]


STACKS = {d: _stack_members(d) for d in (1, 2)}
# The stack members' perturbation paths and drivers on grids whose step
# count a staging block of _euler_batch divides (64) or does not.
DRIVEN = {(d, steps): (generate_fbm(0.2, d, TimeGrid(1.0, steps), seed=5).values,
                       _bm_rows(d, TimeGrid(1.0, steps), BASE_SEED, 0, 32))
          for d in (1, 2) for steps in (64, 37, 100)}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.permutations(range(4)), st.integers(1, 4),
       st.sampled_from([0.7, BLOWUP_BOUND]), st.integers(1, 31),
       st.sampled_from([64, 37, 100]), st.sampled_from([None, 8]))
def test_solves_are_deterministic_and_split_independent(d, order, k, bound, split,
                                                        steps, block):
    """Repeated solves agree.  The k-field scheme over any subset and order
    of stack members equals, field by field, the one-field scheme and a
    per-step reference, bit for bit in values and blow-up steps, at the
    default staging block or one of 8 steps, whether or not it divides
    the step count.  The scheme over any split of the driver batch,
    concatenated, equals the whole batch."""
    scenario = _identity_scenario()
    a = _solve(scenario)
    b = _solve(scenario)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.scenario.driver_increments, b.scenario.driver_increments)

    _fbm, members = STACKS[d]
    chosen = [members[e] for e in order[:k]]
    w_values, db = DRIVEN[d, steps]
    x0 = np.full(d, 0.3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "BLOWUP_BOUND", bound)
        if block is not None:
            mp.setattr(solver, "_EULER_BLOCK", block)
        values, blowup = _euler_batch(chosen, w_values, db, x0)
        one = [_euler_batch([fld], w_values, db, x0) for fld in chosen]
        head = _euler_batch(chosen, w_values, db[:split], x0)
        tail = _euler_batch(chosen, w_values, db[split:], x0)
    assert values.shape == (k, 32, d, steps + 1) and blowup.shape == (k, 32)
    for j, (fld, (one_values, one_blowup)) in enumerate(zip(chosen, one)):
        ref_values, ref_blowup = _reference_scheme(fld, w_values, db, x0, bound)
        for got in (values[j], one_values[0]):
            assert np.array_equal(got, ref_values)
        for got in (blowup[j], one_blowup[0]):
            assert np.array_equal(got, ref_blowup)
    if bound == 0.7 and steps == 64:
        # The low bound freezes some paths of every field, not all of them,
        # so the flags split too.  On the coarser grids it can freeze all.
        assert np.all((blowup >= 0).any(axis=1) & (blowup < 0).any(axis=1))
    for whole, part_head, part_tail in zip((values, blowup), head, tail):
        assert np.array_equal(np.concatenate([part_head, part_tail], axis=1), whole)


@pytest.mark.parametrize("block", [None, 8])
@pytest.mark.parametrize("steps", [37, 100])
@pytest.mark.parametrize("d", [1, 2])
def test_blowups_at_block_edges_match_the_reference(d, steps, block, monkeypatch):
    """Paths of the identity field leave the box on the first and the last
    step of every staging block, on a NaN and on an infinite driver, and
    one path never does; every path of a steep constant field blows up.
    Each field of the two-field scheme equals the per-step reference bit
    for bit in values and blow-up steps."""
    if block is not None:
        monkeypatch.setattr(solver, "_EULER_BLOCK", block)
    monkeypatch.setattr(solver, "BLOWUP_BOUND", 5.0)
    size = solver._EULER_BLOCK
    edges = sorted({k for k0 in range(0, steps, size)
                    for k in (k0, min(k0 + size, steps) - 1)})
    grid = TimeGrid(1.0, steps)
    db = _bm_rows(d, grid, BASE_SEED, 0, len(edges) + 3)
    for path, k in enumerate(edges):
        db[path, 0, k] = 100.0
    db[len(edges), -1, steps // 2] = np.nan
    db[len(edges) + 1, 0, steps // 3] = -np.inf
    w_values = generate_fbm(0.2, d, grid, seed=5).values
    x0 = np.full(d, 0.3)
    fields = [identity_field(d), constant_field(1.0e3 * np.eye(d))]
    values, blowup = _euler_batch(fields, w_values, db, x0)
    for fld, got_values, got_blowup in zip(fields, values, blowup):
        ref_values, ref_blowup = _reference_scheme(fld, w_values, db, x0, 5.0)
        assert np.array_equal(got_values, ref_values)
        assert np.array_equal(got_blowup, ref_blowup)
    assert blowup[0].tolist() == [k + 1 for k in edges] + [steps // 2 + 1,
                                                           steps // 3 + 1, -1]
    assert np.all(blowup[1] >= 1)


def test_radius_sweep_shares_drivers():
    scenario = QuenchedScenario(FBM, singular_example(0.4, 1.0, 1), [0.5],
                                (0.5, 0.25), 16, BASE_SEED)
    fields = mollified_family(scenario)
    coarse = _solve(scenario, fields[0.5], 0.5)
    fine = _solve(scenario, fields[0.25], 0.25)
    assert coarse.epsilon == 0.5 and fine.epsilon == 0.25
    assert np.array_equal(coarse.scenario.driver_increments,
                          fine.scenario.driver_increments)


def _adapted_fields(d: int):
    """The perturbation path, and a singular, two mollified and an identity field."""
    fbm = generate_fbm(0.2, d, GRID, seed=5)
    sigma = singular_example(0.4, 1.0, d)
    scenario = QuenchedScenario(fbm, sigma, np.full(d, 0.5), (0.5, 0.25), 8, BASE_SEED)
    fields = mollified_family(scenario)
    return fbm, [sigma, fields[0.5], fields[0.25], identity_field(d)]


ADAPTED = {d: _adapted_fields(d) for d in (1, 2)}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.permutations(range(4)), st.integers(1, 4),
       st.integers(0, GRID.steps - 1), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.7, BLOWUP_BOUND]), st.floats(-50.0, 50.0))
def test_euler_scheme_is_adapted(d, order, n_fields, k, seed, bound, value):
    """Changing the driver increments of step k leaves the states up to
    node k, and every blow-up at or before step k, bit-identical, for k
    fields (singular, mollified and identity, in any order) solved
    together."""
    fbm, fields = ADAPTED[d]
    chosen = [fields[e] for e in order[:n_fields]]
    db = _bm_rows(d, GRID, seed, 0, 8)
    changed = db.copy()
    changed[:, :, k] = value
    x0 = np.full(d, 0.5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "BLOWUP_BOUND", bound)
        values, blowup = _euler_batch(chosen, fbm.values, db, x0)
        values_c, blowup_c = _euler_batch(chosen, fbm.values, changed, x0)
    assert np.array_equal(values[..., :k + 1], values_c[..., :k + 1])

    def by_step_k(steps):
        return np.where((steps >= 0) & (steps <= k), steps, -1)

    assert np.array_equal(by_step_k(blowup), by_step_k(blowup_c))


def test_blown_up_path_freezes_at_last_finite_state(monkeypatch):
    monkeypatch.setattr(solver, "BLOWUP_BOUND", 0.05)
    monkeypatch.setattr(solver, "BLOWUP_ABORT_FRACTION", 1.0)
    one_path = QuenchedScenario(FBM, identity_field(1), [0.0], (0.5,), 1, 99)
    ens = _solve(one_path)
    _abort_on_blowups(ens)
    vals, blowup = ens.values[0], int(ens.blowup_steps[0])
    assert blowup > 0
    assert np.max(np.abs(vals)) <= 0.05
    assert np.all(vals[:, blowup:] == vals[:, blowup - 1][:, None])


def test_ensemble_blowup_abort_and_masking(monkeypatch):
    scenario = QuenchedScenario(FBM, constant_field(np.array([[1.0e9]])),
                                [0.0], (0.5,), 16, BASE_SEED)
    ens = _solve(scenario)
    with pytest.raises(BlowUpError) as info:
        _abort_on_blowups(ens)
    assert info.value.count == 16
    monkeypatch.setattr(solver, "BLOWUP_ABORT_FRACTION", 1.0)
    _abort_on_blowups(ens)  # tolerates every path blowing up
    assert ens.blowup_count == 16
    assert not ens.ok_mask.any()


def test_moment_table_layout(monkeypatch):
    ens = _solve(_identity_scenario())
    monkeypatch.setattr(solver, "MOMENT_TABLE_LEVEL", 4)
    rows = ens.moment_table(2.0)
    assert len(rows) == 31  # 1 + 2 + 4 + 8 + 16 dyadic windows
    for row in rows:
        assert row["s"] < row["t"]
        assert row["m"] == 2.0
        assert row["moment"] > 0.0
        assert row["stderr"] >= 0.0


def test_mollified_family_grid_contract():
    scenario = QuenchedScenario(FBM, singular_example(0.4, 1.0, 1), [0.5],
                                (0.5, 0.25), 8, BASE_SEED)
    fields = mollified_family(scenario)
    grid = family_grid(scenario)
    assert grid.h == 0.25 / 4.0
    assert set(fields) == {0.5, 0.25}
    for eps, fld in fields.items():
        assert fld.support_radius == pytest.approx(1.0 + eps, rel=1e-15)
    # Box covers support radius + largest eps + pad on both sides.
    assert grid.lower[0] <= -2.0
    assert grid.upper[0] >= 2.0


def test_constant_field_sweep_has_no_gap():
    """Mollification leaves a constant field untouched wherever the process
    travels (the radii keep the far cut-off out of reach), so consecutive
    integral sums along the shared drivers cancel to rounding dust."""
    scenario = QuenchedScenario(FBM, constant_field(np.array([[2.0]])), [0.0],
                                (0.0625, 0.05), 16, BASE_SEED)
    fields = mollified_family(scenario)
    radii = [fields[eps] for eps in scenario.eps_seq]
    snapped = quantized_perturbation(FBM.values, SpatialGrid.cover(FBM.values.T, GRID.dt))
    sums = walk_ensemble(solve_fields(scenario, radii), radii, snapped, 1, [])
    report = cauchy_report(scenario, sums.ito, fields, 4.0)
    assert report.eps_seq == (0.0625, 0.05)
    assert len(report.consecutive_diffs) == 1
    assert report.consecutive_diffs[0] < 1e-12
    assert report.m == 4.0 and report.p == 2.0
    assert report.terminal_integrals.shape == (2, 16, 1)
