"""Dual-estimator identity checks on identity-coefficient ensembles."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbmlab import verify
from fbmlab import (InsufficientDataError, MomentRatioReport, ParameterError,
                    QuenchedScenario, SpatialGrid, TimeGrid,
                    WEIGHT_DICTIONARY_VERSION, constant_field, generate_fbm,
                    identity_field, lebesgue_vs_sewing,
                    moment_ratio, moment_ratio_trend, quantized_perturbation,
                    weight_dictionary)
from fbmlab.solver import (MOMENT_TABLE_LEVEL, Ensemble, _stderr, solve_fields,
                           walk_ensemble)
from fbmlab.verify import (cross_term_report, isometry_report,
                           martingale_reports)

GRID = TimeGrid(1.0, 256)
FBM = generate_fbm(0.2, 1, GRID, seed=3)
SGRID = SpatialGrid.from_box(-2.0, 2.0, 64)
N_PATHS = 4000


@functools.lru_cache(maxsize=2)
def _identity_ensemble(base_seed: int):
    scenario = QuenchedScenario(FBM, identity_field(1), [0.0], (0.25,),
                                N_PATHS, base_seed)
    ens, = solve_fields(scenario, [scenario.sigma])
    return ens


def test_quantized_perturbation_snaps_left_endpoints():
    values = np.array([[-0.9, 0.1, 0.26, 5.0]])
    grid = SpatialGrid.from_box(0.0, 1.0, 4)
    snapped = quantized_perturbation(values, grid)
    # Outside samples pass through; inside ones land on bin centers.
    assert np.array_equal(snapped, [[-0.9], [0.125], [0.375]])


def test_moment_ratio_identity_coefficient_windows(monkeypatch):
    """X = B, so mean |X(t)-X(s)|^m / (t-s)^(m/2) is 1 for m = 2 and 3 for
    m = 4 on every dyadic window, up to sampling error."""
    targets = {(13, 2.0): (1.0, 1.0010279903459982),
               (13, 4.0): (3.0, 3.154662021055356),
               (14, 2.0): (1.0, 0.9979935786086375),
               (14, 4.0): (3.0, 3.014906406948211)}
    monkeypatch.setattr(verify, "MOMENT_MAX_LEVEL", 1)
    for (seed, m), (target, frozen) in targets.items():
        report, = moment_ratio([_identity_ensemble(seed)], m, 1.0)
        assert report.ratio == pytest.approx(frozen, rel=1e-12)
        assert abs(report.ratio - target) <= 4.0 * report.stderr
        assert report.n_paths == N_PATHS


def test_moment_ratio_gamma_range_flag(monkeypatch):
    ens = _identity_ensemble(13)
    monkeypatch.setattr(verify, "MOMENT_MAX_LEVEL", 1)
    # The admissible range at hurst 0.2, d = 1 is gamma0 < 0.9.
    assert moment_ratio([ens], 2.0, 0.5)[0].gamma0_in_range
    assert not moment_ratio([ens], 2.0, 1.0)[0].gamma0_in_range
    with pytest.raises(ParameterError):
        moment_ratio([ens], 1.5, 0.5)


def _window_moment(ens, k0, k1, m):
    """|X(t_k1) - X(t_k0)|^m of the surviving paths of one window, read
    from the window's own two nodes."""
    ends = ens.at_nodes([k0, k1])[ens.ok_mask]
    return np.linalg.norm(ends[:, :, 1] - ends[:, :, 0], axis=1) ** m


def _moment_ratio_alone(ens, m, gamma0):
    """(ratio, stderr, n_paths) of one ensemble, by the per-ensemble
    bootstrap loop moment_ratio first ran: a fresh stream, one resample of
    the (paths, windows) magnitudes per draw."""
    grid = ens.scenario.grid
    windows = grid.dyadic_windows(verify.MOMENT_MAX_LEVEL)
    mags = np.empty((int(ens.ok_mask.sum()), len(windows)))
    weights = np.empty(len(windows))
    for col, (k0, k1) in enumerate(windows):
        mags[:, col] = _window_moment(ens, k0, k1, m)
        weights[col] = ((k1 - k0) * grid.dt) ** (m * gamma0 / 2.0)
    rng = np.random.Generator(np.random.Philox(key=verify._BOOTSTRAP_SEED))
    n = mags.shape[0]
    stats = np.empty(verify._BOOTSTRAP)
    for b in range(verify._BOOTSTRAP):
        pick = rng.integers(0, n, size=n)
        stats[b] = (mags[pick].mean(axis=0) / weights).max()
    return float((mags.mean(axis=0) / weights).max()), float(stats.std(ddof=1)), n


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=5), st.integers(1, 2),
       st.integers(0, 2**32 - 1), st.sampled_from([2.0, 4.0]))
@example([0, 0, 0], 1, 0, 4.0)      # equal survivor counts: one group
@example([0, 2, 0, 1, 2], 2, 1, 4.0)  # unequal: three groups
@example([3], 1, 2, 2.0)            # a group of one
def test_stacked_bootstrap_equals_each_ensemble_alone(blown, d, seed, m):
    """Ensembles resampled together, in groups by survivor count, report
    bit for bit the ratio, stderr and path count each reports alone and
    the per-ensemble loop gives, in the order they were passed."""
    scenario = QuenchedScenario(generate_fbm(0.2, d, TimeGrid(1.0, 64), seed=3),
                                identity_field(d), np.zeros(d), (0.25,), 12, 1)
    rng = np.random.default_rng(seed)
    ensembles = []
    for e, count in enumerate(blown):
        steps = np.full(12, -1)
        steps[rng.choice(12, size=count, replace=False)] = 5
        values = np.cumsum(rng.normal(scale=0.125, size=(12, d, 65)), axis=2)
        ensembles.append(Ensemble(scenario, 0.5 ** e, values, steps, range(65)))
    together = moment_ratio(ensembles, m, 0.5)
    for ens, report in zip(ensembles, together):
        alone, = moment_ratio([ens], m, 0.5)
        assert report.to_dict() == alone.to_dict()
        assert (report.ratio, report.stderr, report.n_paths) == _moment_ratio_alone(
            ens, m, 0.5)
        assert report.epsilon == ens.epsilon


@pytest.mark.parametrize("d", [1, 2])
def test_window_moments_are_the_per_window_norms(d):
    """window_moments is bit-equal to each window's norm read from its own
    two nodes, on a whole ensemble and on one that keeps only the windows'
    end points, with the blown-up paths left out; a moment table is each
    column's mean and stderr, as from a contiguous copy."""
    scenario = QuenchedScenario(generate_fbm(0.2, d, TimeGrid(1.0, 64), seed=3),
                                identity_field(d), np.zeros(d), (0.25,), 12, 1)
    values = np.cumsum(np.random.default_rng(7).normal(scale=0.125, size=(12, d, 65)),
                       axis=2)
    steps = np.full(12, -1)
    steps[[2, 5, 11]] = 9
    values[[2, 5, 11], :, 10:] = 1e300  # what a survivor never reads
    windows = scenario.grid.dyadic_windows(3)
    keep = tuple(sorted({k for window in windows for k in window}))
    whole = Ensemble(scenario, 0.5, values, steps, range(65))
    kept = Ensemble(scenario, 0.5, values[:, :, list(keep)], steps, keep)
    for ens in (whole, kept):
        for m in (2.0, 3.5, 4.0):
            mags = ens.window_moments(windows, m)
            assert mags.shape == (9, len(windows))
            for col, (k0, k1) in enumerate(windows):
                assert mags[:, col].tobytes() == _window_moment(ens, k0, k1, m).tobytes()
    rows = whole.moment_table(4.0)
    for row, (k0, k1) in zip(rows, scenario.grid.dyadic_windows(MOMENT_TABLE_LEVEL),
                             strict=True):
        column = _window_moment(whole, k0, k1, 4.0)
        assert (row["moment"], row["stderr"]) == (float(column.mean()), _stderr(column))
    assert math.isfinite(rows[0]["moment"])


def test_moment_ratio_needs_one_time_grid():
    coarse = _identity_ensemble(13)
    fine = QuenchedScenario(generate_fbm(0.2, 1, TimeGrid(1.0, 64), seed=3),
                            identity_field(1), [0.0], (0.25,), 8, 1)
    ens, = solve_fields(fine, [fine.sigma])
    with pytest.raises(ParameterError, match="one time grid"):
        moment_ratio([coarse, ens], 4.0, 0.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("survivors", [0, 1])
def test_moment_ratio_refuses_an_ensemble_of_too_few_paths(survivors, monkeypatch):
    """An ensemble with fewer than 2 surviving paths is refused by its place
    and radius, before any resample is drawn for it or the others, and
    without a numpy warning on the way."""
    scenario = QuenchedScenario(generate_fbm(0.2, 1, TimeGrid(1.0, 64), seed=3),
                                identity_field(1), np.zeros(1), (0.25,), 12, 1)
    values = np.cumsum(np.random.default_rng(0).normal(scale=0.125, size=(12, 1, 65)),
                       axis=2)
    steps = np.full(12, 5)
    steps[:survivors] = -1
    ensembles = [Ensemble(scenario, 0.5, values, np.full(12, -1), range(65)),
                 Ensemble(scenario, 0.25, values, steps, range(65))]
    streams = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        streams.append(kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    with pytest.raises(InsufficientDataError,
                       match=rf"ensemble 1 \(epsilon=0.25\) has {survivors} surviving"):
        moment_ratio(ensembles, 4.0, 0.5)
    assert streams == []
    assert len(moment_ratio(ensembles[:1], 4.0, 0.5)) == 1 and len(streams) == 1


def _synthetic_reports(ratios):
    return [MomentRatioReport(2.0, 0.5, 0.5 ** k, r, 0.01, True, 100)
            for k, r in enumerate(ratios)]


def test_moment_ratio_trend_verdicts():
    flat = moment_ratio_trend(_synthetic_reports([1.0, 1.1, 0.95, 1.05]))
    assert flat["uniform"] and not flat["increasing_tail"]
    wide = moment_ratio_trend(_synthetic_reports([1.0, 0.6, 2.5, 1.0]))
    assert not wide["uniform"] and wide["spread"] > 2.0
    growing = moment_ratio_trend(_synthetic_reports([1.0, 1.1, 1.3, 1.9]))
    assert growing["increasing_tail"] and not growing["uniform"]
    with pytest.raises(ParameterError):
        moment_ratio_trend(_synthetic_reports([1.0]))
    # A field that vanishes along every path leaves a ratio of 0.0, where
    # the spread max/min raised ZeroDivisionError; the first is refused.
    for ratios, eps in (([1.0, 0.0, 0.0], 0.5), ([0.0, 0.0], 1.0)):
        with pytest.raises(ParameterError, match=rf"epsilon={eps} is 0:"):
            moment_ratio_trend(_synthetic_reports(ratios))


def _walk(ens, fields, windows=()):
    """walk_ensemble of every field along ens."""
    return walk_ensemble([ens] * len(fields), fields, 0, windows)


def test_ito_isometry_identity_coefficient():
    ens = _identity_ensemble(13)
    report = replace(isometry_report(ens, _walk(ens, [identity_field(1)]), 0),
                     margin=0.0)
    assert report.right == 1.0  # sum of |row|^2 dt is exactly the horizon
    assert report.label == "coordinate 0, t=1.0"
    assert report.passed
    assert report.stderr > 0.0
    # The averaged square is quadratic in the field scale.
    doubled = isometry_report(ens, _walk(ens, [constant_field(2.0 * np.eye(1))]), 0)
    assert doubled.right == 4.0


def test_cross_term_identity_and_zero_coefficient():
    ens = _identity_ensemble(13)
    report = cross_term_report(ens, _walk(ens, [identity_field(1)]), 0)
    assert report.right == 1.0
    assert report.passed
    assert report.extras["hypothesis_d_over_p_lt_1"]
    assert report.extras["d_over_p"] == 0.5
    trivial = cross_term_report(ens, _walk(ens, [constant_field(0.0 * np.eye(1))]), 0)
    assert trivial.left == 0.0 and trivial.right == 0.0
    assert trivial.stderr == 0.0 and trivial.passed


def test_martingale_residuals_identity_coefficient():
    ens = _identity_ensemble(13)
    pairs = [(0.25, 0.5), (0.5, 1.0)]
    sums = _walk(ens, [identity_field(1)], [GRID.window(s, t) for s, t in pairs])
    reports = martingale_reports(ens, sums, pairs)
    assert len(reports) == 36  # 2 windows x 3 families x 6 weights
    assert all(r.passed for r in reports)
    for report in reports:
        family = report.extras["family"]
        width = report.extras["t"] - report.extras["s"]
        assert report.extras["dictionary_version"] == WEIGHT_DICTIONARY_VERSION
        if family == "level":
            assert report.extras["compensator_min"] == 0.0
            assert report.extras["compensator_max"] == 0.0
        else:
            # Constant coefficient: the compensator is exactly (t - s).
            assert report.extras["compensator_min"] == width
            assert report.extras["compensator_max"] == width


def test_weight_dictionary_layout():
    entries = weight_dictionary(2, 3)
    assert len(entries) == 1 + 3 * 2 + 3 + 2 * 3
    labels = [label for label, _ in entries]
    assert len(set(labels)) == len(labels)
    x = np.full((5, 2, 4), 37.0)
    b = np.full((5, 3, 4), -41.0)
    for _, fn in entries:
        assert np.max(np.abs(fn(x, b, 1, 0))) <= 1.0


def test_lebesgue_vs_sewing_constant_integrand_is_exact():
    ens = _identity_ensemble(13)
    ones = lambda p: np.ones(p.shape[0])
    report = lebesgue_vs_sewing(ens.values[0], FBM, ones, SGRID, (0.25, 0.75))
    assert report.left == 0.5
    assert report.right == 0.5
    assert report.passed and not report.extras["diverged"]


def test_lebesgue_vs_sewing_pinned_path():
    """A perturbation frozen on a bin center and a frozen state reduce both
    routes to f(x - w) * (t - s) exactly: quantization moves nothing."""
    class _Flat:
        grid = GRID
        values = np.full((1, GRID.steps + 1), 0.03125)  # a center of SGRID

    x = np.full((1, GRID.steps + 1), 0.53125)
    f = lambda p: 2.0 + np.cos(p[:, 0])
    report = lebesgue_vs_sewing(x, _Flat(), f, SGRID, (0.25, 0.75))
    assert report.left == pytest.approx(report.right, rel=1e-14)
    assert report.left == pytest.approx(0.5 * (2.0 + np.cos(0.5)), rel=1e-13)


def test_lebesgue_vs_sewing_hat_square_on_brownian_path():
    ens = _identity_ensemble(13)
    hat_sq = lambda p: np.maximum(0.0, 1.0 - np.abs(p[:, 0])) ** 2
    cover = SpatialGrid.cover(np.concatenate([FBM.values.T, ens.values[0].T]),
                              0.02)
    report = lebesgue_vs_sewing(ens.values[0], FBM, hat_sq, cover, (0.25, 0.75))
    assert report.passed
    assert report.left == pytest.approx(0.07415760176735903, rel=1e-12)
    with pytest.raises(ParameterError):
        lebesgue_vs_sewing(ens.values[0], FBM, hat_sq, cover,
                           (0.25, 0.25 + 4.0 * GRID.dt))


def test_lebesgue_vs_sewing_depth_stops_at_the_window_s_power_of_two(monkeypatch):
    """3000 = 2**3 * 375 steps: sewing runs 3 levels, every node on the grid
    (a floor(log2) cap asked for 8 and hit an off-grid node).  A 500-step
    window (2**2 * 125) has too few such levels and says so."""
    grid = TimeGrid(1.0, 3000)
    w = generate_fbm(0.2, 1, grid, seed=3)
    x = generate_fbm(0.75, 1, grid, seed=4).values
    cover = SpatialGrid.cover(np.concatenate([w.values.T, x.T]), 0.02)
    hat_sq = lambda p: np.maximum(0.0, 1.0 - np.abs(p[:, 0])) ** 2
    depths = []
    real_sew = verify.sew

    def spy(germ, s, t, levels):
        depths.append(levels)
        return real_sew(germ, s, t, levels=levels)

    monkeypatch.setattr(verify, "sew", spy)
    report = lebesgue_vs_sewing(x, w, hat_sq, cover, (0.0, 1.0))
    assert depths == [3]
    assert np.isfinite(report.left) and np.isfinite(report.right)
    with pytest.raises(ParameterError, match="spans 500 steps"):
        lebesgue_vs_sewing(x, w, hat_sq, cover, (0.0, 500 * grid.dt))
