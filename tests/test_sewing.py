"""Dyadic sewing and the level-wise averaged germ."""

import math
import tracemalloc

import numpy as np
import pytest

from fbmlab import (Germ, MollifierSpec, ParameterError, SpatialGrid,
                    TimeGrid, generate_fbm, hs_norm_sq, lebesgue_vs_sewing,
                    mollify, quantized_perturbation, sew, singular_example)
from fbmlab import sewing, verify

LEFT_LINEAR = Germ(lambda s, t: s * (t - s))


def test_sew_additive_germ_is_level_independent():
    additive = Germ(lambda s, t: 2.0 * (t - s))
    res = sew(additive, 0.0, 1.0, levels=6)
    assert all(float(v) == pytest.approx(2.0, rel=1e-13) for v in res.level_sums)
    assert not res.diverged
    assert float(res.value) == pytest.approx(2.0, rel=1e-13)


def test_sew_left_linear_richardson_hits_the_integral():
    """Partition sums (1 - 2^-k)/2 are exactly geometric, so the fitted
    rate is exactly 1 and the Richardson step lands on 1/2."""
    res = sew(LEFT_LINEAR, 0.0, 1.0)
    assert float(res.value) == pytest.approx(0.5, abs=1e-12)
    assert res.rate == pytest.approx(1.0, abs=1e-9)
    assert res.rate_half_width == pytest.approx(0.0, abs=1e-9)
    assert float(res.level_sums[-1]) == pytest.approx(0.5 * (1.0 - 2.0 ** -10), rel=1e-13)
    assert not res.diverged


def test_sew_flags_subcritical_germ():
    sqrt_germ = Germ(lambda s, t: math.sqrt(t - s))
    res = sew(sqrt_germ, 0.0, 1.0)
    assert res.diverged
    assert res.rate is None
    for k, s_k in enumerate(res.level_sums):
        assert float(s_k) == pytest.approx(2.0 ** (k / 2.0), rel=1e-13)


def test_sew_rate_tracks_declared_window_exponent():
    for beta in (1.5, 2.0):
        res = sew(Germ(lambda s, t, b=beta: (t - s) ** b), 0.0, 1.0)
        assert res.rate >= beta - 1.0 - 0.15
        assert abs(float(res.value)) < 1e-12  # sums 2^{k(1-beta)} shrink to zero


def test_sew_is_linear_in_the_germ():
    both = sew(Germ(lambda s, t: s * (t - s) + 2.0 * (t - s)), 0.0, 1.0)
    parts = (sew(LEFT_LINEAR, 0.0, 1.0).level_sums[-1]
             + sew(Germ(lambda s, t: 2.0 * (t - s)), 0.0, 1.0).level_sums[-1])
    assert float(both.level_sums[-1]) == pytest.approx(float(parts), rel=1e-12)
    scaled = sew(Germ(lambda s, t: -3.0 * (s * (t - s))), 0.0, 1.0)
    assert float(scaled.value) == pytest.approx(-1.5, abs=1e-11)


def test_sew_validation():
    with pytest.raises(ParameterError):
        sew(LEFT_LINEAR, 1.0, 1.0)
    with pytest.raises(ParameterError):
        sew(LEFT_LINEAR, 0.0, 1.0, levels=2)



@pytest.mark.parametrize("levels", [12, 14])
def test_sew_peak_memory_lies_between_its_guard_count_and_twice_that(
        levels, monkeypatch):
    """The guard counts the finest partition's nodes, the germ's values and
    their running sum; sew holds little else at its peak."""
    counted = []
    guard = sewing.require_memory

    def spy(needed, what):
        counted.append(needed)
        guard(needed, what)

    monkeypatch.setattr(sewing, "require_memory", spy)
    tracemalloc.start()
    try:
        sew(LEFT_LINEAR, 0.0, 1.0, levels=levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counted[0] <= peak <= 2 * counted[0]


# --- reference: one germ call per window ---------------------------------------

def _reference_level_sum(germ, s, t, level):
    """The partition sum as one germ call per window, folded left to right."""
    nodes = s + (t - s) * np.arange((1 << level) + 1) / (1 << level)
    total = germ(nodes[0], nodes[1])
    for i in range(1, 1 << level):
        total = total + germ(nodes[i], nodes[i + 1])
    return np.asarray(total, dtype=float)


def _reference_averaged_germ(x, path, f, sgrid):
    """lebesgue_vs_sewing's germ A(u, v) = sum over [u, v) of f(x(u) - z_k) dt,
    evaluated one window at a time."""
    tg = path.grid
    snapped = quantized_perturbation(path.values, sgrid)

    def germ_fn(u, v):
        ku, kv = tg.node_index(u), tg.node_index(v)
        args = x[:, ku][None, :] - snapped[ku:kv]
        return float(np.sum(f(args)) * tg.dt)

    return Germ(germ_fn)


def _assert_same_sewing(engine, reference, germ, s, t):
    assert len(engine.level_sums) == len(reference.level_sums)
    for k, level_sum in enumerate(engine.level_sums):
        assert np.array_equal(level_sum, reference.level_sums[k])
        assert np.array_equal(level_sum, _reference_level_sum(germ, s, t, k))
    assert engine.level_diffs == reference.level_diffs
    assert np.array_equal(engine.value, reference.value)
    assert engine.rate == reference.rate
    assert engine.rate_half_width == reference.rate_half_width
    assert engine.diverged == reference.diverged


def test_default_level_values_is_the_per_window_loop():
    vector = Germ(lambda s, t: np.array([np.sin(7.0 * s) * (t - s), (t - s) ** 1.5]))
    for germ in (LEFT_LINEAR, Germ(lambda s, t: math.sqrt(t - s)), vector):
        res = sew(germ, 0.1, 0.9, levels=7)
        for k, level_sum in enumerate(res.level_sums):
            assert np.array_equal(level_sum, _reference_level_sum(germ, 0.1, 0.9, k))


def _tent(points):
    return np.maximum(0.0, 1.0 - np.linalg.norm(points, axis=-1) / 0.75)


def _mollified_hs(d):
    lattice = SpatialGrid.from_box(-2.0, 2.0, 32, d)
    return hs_norm_sq(mollify(singular_example(0.3, 1.0, d), MollifierSpec(0.5),
                              lattice))


@pytest.mark.parametrize("steps, window", [(256, (0.25, 0.75)), (3000, (0.0, 1.0))])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("field", ["tent", "mollified"])
def test_level_wise_averaged_germ_matches_per_window_loop(field, d, steps, window):
    """One field call per level gives the per-window germ's level sums, value
    and rate bit for bit, on a dyadic window and on a 3000-step grid."""
    grid = TimeGrid(1.0, steps)
    path = generate_fbm(0.2, d, grid, seed=31)
    x = generate_fbm(0.75, d, grid, seed=32).values
    sgrid = SpatialGrid.cover(np.concatenate([path.values.T, x.T]), 0.02)
    f = _tent if field == "tent" else _mollified_hs(d)
    k_s, k_t = grid.window(*window)
    levels = min(8, ((k_t - k_s) & -(k_t - k_s)).bit_length() - 1)
    reference_germ = _reference_averaged_germ(x, path, f, sgrid)
    engine_germ = verify._QuantizedAverageGerm(
        x, quantized_perturbation(path.values, sgrid), f, grid)
    reference = sew(reference_germ, *window, levels=levels)
    _assert_same_sewing(sew(engine_germ, *window, levels=levels), reference,
                        reference_germ, *window)
    report = lebesgue_vs_sewing(x, path, f, sgrid, window)
    assert report.right == float(reference.value)
    assert report.extras["sewing_rate"] == reference.rate
    assert report.extras["diverged"] == reference.diverged
    # Germ.__call__ on one window is the same one-field-call evaluation.
    u, v = window[0], window[0] + 8 * grid.dt
    assert float(engine_germ(u, v)) == float(reference_germ(u, v))


def test_level_wise_averaged_germ_on_a_duck_typed_path():
    class _Flat:
        grid = TimeGrid(1.0, 256)
        values = np.full((1, 257), 0.03125)

    sgrid = SpatialGrid.from_box(-2.0, 2.0, 64)
    x = 0.5 + 0.25 * np.sin(np.linspace(0.0, 9.0, 257))[None, :]
    f = lambda p: 2.0 + np.cos(p[:, 0])
    reference_germ = _reference_averaged_germ(x, _Flat(), f, sgrid)
    engine_germ = verify._QuantizedAverageGerm(
        x, quantized_perturbation(_Flat.values, sgrid), f, _Flat.grid)
    _assert_same_sewing(sew(engine_germ, 0.25, 0.75, levels=7),
                        sew(reference_germ, 0.25, 0.75, levels=7),
                        reference_germ, 0.25, 0.75)
    report = lebesgue_vs_sewing(x, _Flat(), f, sgrid, (0.25, 0.75))
    assert report.right == float(sew(reference_germ, 0.25, 0.75, levels=7).value)
