"""Averaged fields, Holder estimation and admissibility thresholds."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmlab import (CoverageError, HypothesisError, InsufficientDataError,
                    ParameterError, SpatialGrid, TimeGrid, average_direct,
                    average_via_local_time, admissible_regularity,
                    convolution_agreement_bound, generate_fbm,
                    holder_exponent, hurst_admissible_fbm_driver,
                    hurst_admissible_main, local_time)

SEED_FROZEN = 100
N_SAMPLES = 2 ** 14


@dataclasses.dataclass(frozen=True)
class RawPath:
    dimension: int
    grid: TimeGrid
    values: np.ndarray
    hurst: float | None = None


def _constant_path(z: float, steps: int = 8) -> RawPath:
    grid = TimeGrid(1.0, steps)
    return RawPath(1, grid, np.full((1, steps + 1), z))


def test_average_direct_constant_integrand():
    path = generate_fbm(0.3, 1, TimeGrid(1.0, 256), seed=11)
    out = average_direct(lambda p: np.full(p.shape[0], 2.5), path,
                         0.0, 1.0, [[0.0], [7.0]])
    assert np.array_equal(out, [2.5, 2.5])


def test_average_direct_frozen_path_factors_out():
    path = _constant_path(0.3, steps=256)
    f = lambda p: np.cos(3.0 * p[:, 0])
    out = average_direct(f, path, 0.0, 1.0, [[0.7]])
    assert out[0] == pytest.approx(math.cos(3.0 * 0.4), rel=1e-14)


def test_average_direct_heaviside_ramp_is_exact():
    """Left-endpoint sum of 1_{1 - r >= 0} dr over [0, 1) is exactly one."""
    steps = 64
    grid = TimeGrid(1.0, steps)
    path = RawPath(1, grid, grid.times[None, :].copy())
    heaviside = lambda p: (p[:, 0] >= 0.0).astype(float)
    out = average_direct(heaviside, path, 0.0, 1.0, [[1.0]])
    assert out[0] == 1.0


def test_average_direct_window_additivity():
    path = generate_fbm(0.3, 1, TimeGrid(1.0, 512), seed=21)
    hat = lambda p: np.maximum(0.0, 1.0 - np.abs(p[:, 0]))
    probes = [[-0.5], [0.0], [0.25]]
    whole = average_direct(hat, path, 0.0, 1.0, probes)
    parts = (average_direct(hat, path, 0.0, 0.375, probes)
             + average_direct(hat, path, 0.375, 1.0, probes))
    assert np.max(np.abs(whole - parts)) < 1e-13
    assert np.max(np.abs(whole)) <= 1.0  # (t - s) * sup|f|


DIRECT_STEPS = 2048
DIRECT_PATHS = {d: generate_fbm(0.3, d, TimeGrid(1.0, DIRECT_STEPS), seed=40 + d)
                for d in (1, 2)}
DIRECT_FIELDS = {
    "tent": lambda p: np.maximum(0.0, 1.0 - np.linalg.norm(p, axis=-1) / 0.5),
    # Signed, with tails many orders below the peak, so the sums cancel.
    "signed": lambda p: (np.sin(5.0 * p[:, 0]) * np.exp(-4.0 * np.sum(p * p, axis=-1))
                         + 1e-9 * p[:, -1]),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]), st.sampled_from(sorted(DIRECT_FIELDS)),
       st.integers(0, DIRECT_STEPS - 1), st.integers(1, DIRECT_STEPS),
       st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                min_size=1, max_size=5))
def test_average_direct_is_the_fsum_of_each_probe(d, name, k0, width, probes):
    path, f = DIRECT_PATHS[d], DIRECT_FIELDS[name]
    dt = path.grid.dt
    k1 = min(k0 + width, DIRECT_STEPS)
    pts = np.array(probes)[:, :d]
    out = average_direct(f, path, k0 * dt, k1 * dt, pts)
    window = path.values[:, k0:k1].T
    for value, x in zip(out, pts):
        reference = math.fsum(f(x[None, :] - window).tolist()) * dt
        assert float.hex(float(value)) == float.hex(reference)


def test_average_direct_validation():
    path = generate_fbm(0.3, 1, TimeGrid(1.0, 64), seed=1)
    with pytest.raises(ParameterError):
        average_direct(lambda p: p[:, 0], path, 0.5, 0.5, [[0.0]])
    with pytest.raises(ParameterError):
        average_direct(lambda p: p[:, 0], path, 0.0, 1.0, [[0.0, 0.0]])


def test_convolution_route_point_mass_oracle():
    """A path pinned at z gives (T f)(x) = t * f(x - c) with c the bin
    center that z snaps to; exact at output lattice points."""
    path = _constant_path(0.3)
    lgrid = SpatialGrid.from_box(0.0, 1.0, 16)
    field = local_time(path, lgrid, 0.0, 1.0)
    assert field.escaped_fraction == 0.0
    fgrid = SpatialGrid.from_box(-1.0, 1.0, 32)
    fvals = np.cos(3.0 * fgrid.centers(0))
    avg = average_via_local_time(fvals, fgrid, field)
    # z = 0.3 snaps to bin 4 of lgrid, center 0.28125.
    xs = avg.grid.centers(0)[4:36]  # where x - 0.28125 stays inside the f box
    assert np.max(np.abs(avg(xs[:, None])
                         - np.cos(3.0 * (xs - 0.28125)))) < 1e-12
    # Against the unsnapped argument the gap obeys the Lipschitz budget.
    gap = np.max(np.abs(avg(xs[:, None]) - np.cos(3.0 * (xs - 0.3))))
    assert gap <= convolution_agreement_bound(3.0, lgrid.h, field.covered_mass)


def test_dual_route_agreement_on_fbm_path():
    path = generate_fbm(0.3, 1, TimeGrid(1.0, 512), seed=7)
    cover = SpatialGrid.cover(path.values.T, 0.05)
    field = local_time(path, cover, 0.0, 1.0)
    fgrid = SpatialGrid.from_box(-2.0, 2.0, 80)  # shares h = 0.05
    hat = lambda p: np.maximum(0.0, 1.0 - np.abs(p[:, 0]))
    avg = average_via_local_time(hat(fgrid.centers(0)[:, None]), fgrid, field)
    probes = avg.grid.centers(0)[10:-10:7]
    direct = average_direct(hat, path, 0.0, 1.0, probes[:, None])
    gap = np.max(np.abs(direct - avg(probes[:, None])))
    assert gap <= convolution_agreement_bound(1.0, cover.h, field.covered_mass)
    assert avg.sup_norm <= 1.0 + 1e-12


def test_convolution_route_validation():
    field = local_time(_constant_path(0.3), SpatialGrid.from_box(0.0, 1.0, 16),
                       0.0, 1.0)
    with pytest.raises(ParameterError):
        average_via_local_time(np.zeros(10), SpatialGrid.from_box(-1.0, 1.0, 10),
                               field)  # h mismatch
    with pytest.raises(ParameterError):
        average_via_local_time(np.zeros((4, 4)),
                               SpatialGrid.from_box(0.0, 0.25, 4, dimension=2),
                               field)
    with pytest.raises(ParameterError):
        average_via_local_time(np.zeros(5), SpatialGrid.from_box(0.0, 1.0, 16),
                               field)  # shape mismatch


def test_convolution_route_rejects_escaped_mass():
    path = _constant_path(0.3)
    tight = SpatialGrid.from_box(0.5, 1.0, 8)  # misses the path entirely
    field = local_time(path, tight, 0.0, 1.0)
    assert field.escaped_fraction == 1.0
    fgrid = SpatialGrid.from_box(-1.0, 1.0, 32)
    with pytest.raises(CoverageError):
        average_via_local_time(np.ones(32), fgrid, field)


def test_convolution_route_zero_integrand():
    field = local_time(_constant_path(0.3), SpatialGrid.from_box(0.0, 1.0, 16),
                       0.0, 1.0)
    fgrid = SpatialGrid.from_box(-1.0, 1.0, 32)
    avg = average_via_local_time(np.zeros(32), fgrid, field)
    assert avg.sup_norm == 0.0


def test_agreement_bound_formula():
    got = convolution_agreement_bound(2.0, 0.1, 3.0, dimension=4)
    assert got == pytest.approx(0.6, rel=1e-14)
    assert convolution_agreement_bound(1.0, 0.0, 5.0) == 0.0


def test_holder_exponent_linear_ramp():
    est = holder_exponent(np.arange(4096) * 0.001)
    assert est.exponent == pytest.approx(1.0, abs=1e-12)
    assert est.half_width == pytest.approx(0.0, abs=1e-12)
    assert not est.degenerate
    assert est.lags[0] == 1 and est.lags[-1] == 1024


def test_holder_exponent_constant_is_degenerate():
    est = holder_exponent(np.full(4096, 3.7))
    assert est.degenerate
    assert math.isnan(est.exponent)


def test_holder_exponent_frozen_fbm_values():
    """Sup-increment slopes on one frozen driver per Hurst value.

    The statistic is biased low by design (the max over windows grows with
    the sample count inside each lag), so the rough-path value sits under H;
    at H = 0.25 the frozen seed lands within 0.07.
    """
    grid = TimeGrid(1.0, N_SAMPLES)
    rough = generate_fbm(0.25, 1, grid, seed=SEED_FROZEN)
    est = holder_exponent(rough.values[0])
    assert est.exponent == pytest.approx(0.19887796268373628, abs=1e-12)
    assert abs(est.exponent - 0.25) < 0.07
    mid = generate_fbm(0.5, 1, grid, seed=SEED_FROZEN)
    est_mid = holder_exponent(mid.values[0])
    assert est_mid.exponent == pytest.approx(0.45284832069504266, abs=1e-12)


def test_holder_exponent_bias_envelope():
    grid = TimeGrid(1.0, N_SAMPLES)
    for hurst in (0.25, 0.5):
        for seed in range(100, 104):
            path = generate_fbm(hurst, 1, grid, seed=seed)
            err = holder_exponent(path.values[0]).exponent - hurst
            assert -0.13 < err < 0.02


def test_holder_exponent_needs_enough_scales():
    with pytest.raises(InsufficientDataError):
        holder_exponent(np.arange(3.0))
    with pytest.raises(InsufficientDataError):
        holder_exponent(np.sin(np.arange(64.0)))  # 3 usable scales < 4


def test_regularity_budget_moment_variant():
    budget = admissible_regularity(0.1, 1, 2.0)
    assert budget.lambda_max == 4.5
    assert budget.gamma_max(1.0) == pytest.approx(0.85, abs=1e-12)
    with pytest.raises(HypothesisError):
        budget.gamma_max(4.5)
    assert "gamma_max_at_lambda" in budget.to_dict()


def test_regularity_budget_pathwise_variant():
    budget = admissible_regularity(0.2, 1, 2.0, variant="pathwise")
    assert budget.lambda_max == 2.0
    assert budget.gamma_max(1.0) == pytest.approx(0.7, abs=1e-12)


def test_regularity_budget_hypotheses():
    with pytest.raises(HypothesisError):
        admissible_regularity(0.5, 2, 4.0, variant="pathwise")  # H >= 1/d
    with pytest.raises(HypothesisError):
        admissible_regularity(0.5, 2, 2.0)  # lambda budget exhausted
    with pytest.raises(ParameterError):
        admissible_regularity(0.0, 1, 2.0)
    with pytest.raises(ParameterError):
        admissible_regularity(0.2, 0, 2.0)
    with pytest.raises(ParameterError):
        admissible_regularity(0.2, 1, 0.5)
    with pytest.raises(ParameterError):
        admissible_regularity(0.2, 1, 2.0, variant="almost-sure")


def test_main_hurst_threshold_exact_branches():
    assert hurst_admissible_main(1, 2.0) == 0.25
    assert hurst_admissible_main(2, 8.0) == 0.2
    assert hurst_admissible_main(1, 4.0) == 2.0 / 7.0
    with pytest.raises(HypothesisError):
        hurst_admissible_main(1, 1.5)
    with pytest.raises(HypothesisError):
        hurst_admissible_main(2, 2.0)  # d/p >= 1
    for dimension in (0, -2):  # a negative d/p would pass d/p < 1
        with pytest.raises(ParameterError, match="dimension"):
            hurst_admissible_main(dimension, 2.0)


def test_fractional_driver_threshold():
    assert hurst_admissible_fbm_driver(0.75, 1, 2.0) == 0.1
    assert hurst_admissible_fbm_driver(0.5 + 1e-6, 1, 2.0) < 1e-3
    with pytest.raises(HypothesisError):
        hurst_admissible_fbm_driver(0.5, 1, 2.0)
    with pytest.raises(HypothesisError):
        hurst_admissible_fbm_driver(1.0, 1, 2.0)
    for dimension in (0, -2):
        with pytest.raises(ParameterError, match="dimension"):
            hurst_admissible_fbm_driver(0.7, dimension, 2.0)

