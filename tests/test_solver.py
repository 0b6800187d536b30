"""Quenched ensembles: scheme anchors, reproducibility and mollified sweeps."""

import numpy as np
import pytest

from fbmlab import (BlowUpError, ParameterError, QuenchedScenario, TimeGrid,
                    constant_field, euler_maruyama, generate_bm,
                    generate_bm_increments, generate_fbm, identity_field,
                    mollified_family, mollified_integral_sequence,
                    singular_example, solve_ensemble)
from fbmlab.solver import _euler_batch

GRID = TimeGrid(1.0, 64)
FBM = generate_fbm(0.2, 1, GRID, seed=5)
BASE_SEED = 17


def _identity_scenario(paths: int = 32) -> QuenchedScenario:
    return QuenchedScenario(FBM, identity_field(1), [0.0], (0.5, 0.25),
                            paths, BASE_SEED)


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
    # A field must fit the scenario's shared drivers.
    with pytest.raises(ParameterError):
        solve_ensemble(_identity_scenario(), identity_field(2))


def test_identity_field_reduces_to_the_driver():
    """With sigma the identity the scheme telescopes to X = x0 + B, with
    bit-identical rounding to a running cumulative sum."""
    ens = solve_ensemble(_identity_scenario())
    expected = np.zeros_like(ens.values)
    expected[:, :, 1:] = np.cumsum(ens.driver_increments, axis=2)
    assert np.array_equal(ens.values, expected)
    assert ens.blowup_count == 0
    assert ens.epsilon is None


def test_single_path_matches_batch_row():
    scenario = _identity_scenario()
    ens = solve_ensemble(scenario)
    for i in (0, 7, 31):
        bm = generate_bm(1, GRID, BASE_SEED, path_index=i)
        vals, blowup = euler_maruyama(identity_field(1), FBM, bm, [0.0])
        assert blowup == -1
        assert np.array_equal(vals, ens.values[i])


def test_solves_are_deterministic_and_split_independent():
    """Repeated solves agree, and the scheme over any split of the driver
    batch, concatenated, equals the whole batch bit for bit."""
    scenario = _identity_scenario()
    a = solve_ensemble(scenario)
    b = solve_ensemble(scenario)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.driver_increments, b.driver_increments)

    singular = QuenchedScenario(FBM, singular_example(0.4, 1.0, 1), [0.5],
                                (0.25,), 32, BASE_SEED)
    _grid, fields = mollified_family(singular)
    db = generate_bm_increments(1, GRID, BASE_SEED, 32)
    # A low blow-up bound makes some paths freeze, so the flags split too.
    whole = _euler_batch(fields[0.25], FBM.values, db, singular.x0, 0.7)
    assert 0 < np.count_nonzero(whole[1] >= 0) < 32
    for k in (1, 13, 31):
        head = _euler_batch(fields[0.25], FBM.values, db[:k], singular.x0, 0.7)
        tail = _euler_batch(fields[0.25], FBM.values, db[k:], singular.x0, 0.7)
        for part_whole, part_head, part_tail in zip(whole, head, tail):
            assert np.array_equal(np.concatenate([part_head, part_tail]),
                                  part_whole)


def test_radius_sweep_shares_drivers():
    scenario = QuenchedScenario(FBM, singular_example(0.4, 1.0, 1), [0.5],
                                (0.5, 0.25), 16, BASE_SEED)
    grid, fields = mollified_family(scenario)
    coarse = solve_ensemble(scenario, fields[0.5], epsilon=0.5)
    fine = solve_ensemble(scenario, fields[0.25], epsilon=0.25)
    assert coarse.epsilon == 0.5 and fine.epsilon == 0.25
    assert np.array_equal(coarse.driver_increments, fine.driver_increments)


def test_euler_maruyama_validation():
    other_grid = TimeGrid(1.0, 32)
    bm = generate_bm(1, other_grid, 1)
    with pytest.raises(ParameterError):
        euler_maruyama(identity_field(1), FBM, bm, [0.0])
    bm64 = generate_bm(2, GRID, 1)
    with pytest.raises(ParameterError):
        euler_maruyama(identity_field(1), FBM, bm64, [0.0])
    with pytest.raises(ParameterError):
        euler_maruyama(identity_field(1), FBM, generate_bm(1, GRID, 1),
                       [0.0, 0.0])


def test_blown_up_path_freezes_at_last_finite_state():
    bm = generate_bm(1, GRID, 99)
    vals, blowup = euler_maruyama(identity_field(1), FBM, bm, [0.0],
                                  blowup_bound=0.05)
    assert blowup > 0
    assert np.max(np.abs(vals)) <= 0.05
    assert np.all(vals[:, blowup:] == vals[:, blowup - 1][:, None])


def test_ensemble_blowup_abort_and_masking():
    scenario = QuenchedScenario(FBM, constant_field(np.array([[1.0e9]])),
                                [0.0], (0.5,), 16, BASE_SEED)
    with pytest.raises(BlowUpError) as info:
        solve_ensemble(scenario)
    assert info.value.count == 16
    tolerant = solve_ensemble(scenario, abort_fraction=1.0)
    assert tolerant.blowup_count == 16
    assert not tolerant.ok_mask.any()


def test_moment_table_layout():
    ens = solve_ensemble(_identity_scenario())
    rows = ens.moment_table(2.0, max_level=4)
    assert len(rows) == 31  # 1 + 2 + 4 + 8 + 16 dyadic windows
    for row in rows:
        assert row["s"] < row["t"]
        assert row["m"] == 2.0
        assert row["moment"] > 0.0
        assert row["stderr"] >= 0.0


def test_mollified_family_grid_contract():
    scenario = QuenchedScenario(FBM, singular_example(0.4, 1.0, 1), [0.5],
                                (0.5, 0.25), 8, BASE_SEED)
    grid, fields = mollified_family(scenario)
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
    report = mollified_integral_sequence(scenario)
    assert report.eps_seq == (0.0625, 0.05)
    assert len(report.consecutive_diffs) == 1
    assert report.consecutive_diffs[0] < 1e-12
    assert report.m == 4.0 and report.p == 2.0
    assert report.terminal_integrals.shape == (2, 16, 1)


def test_integral_sequence_takes_fields_and_lp_grid_together():
    """Fields without their L^p grid (or the grid alone) are refused instead
    of being silently replaced by a fresh mollification."""
    scenario = QuenchedScenario(FBM, singular_example(0.4, 1.0, 1), [0.5],
                                (0.5, 0.25), 8, BASE_SEED)
    grid, fields = mollified_family(scenario)
    constant = {eps: constant_field(np.array([[5.0]])) for eps in fields}
    with pytest.raises(ParameterError):
        mollified_integral_sequence(scenario, fields=constant)
    with pytest.raises(ParameterError):
        mollified_integral_sequence(scenario, lp_grid=grid)
    given = mollified_integral_sequence(scenario, fields=constant, lp_grid=grid)
    own = mollified_integral_sequence(scenario)
    assert not np.array_equal(given.terminal_integrals, own.terminal_integrals)
    assert given.consecutive_diffs == (0.0,)
