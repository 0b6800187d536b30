"""Statistical verification of the integral identities behind the scheme.

Every check here is a dual computation: the same quantity is produced once
from the driver side (Monte Carlo over solution paths) and once from the
occupation side (a germ built by averaging a squared or mixed coefficient
field against a local-time quantization of the frozen path, accumulated by
dyadic sewing).  Reports carry both values, the sampling error of their
difference and an explicit discretization margin, and never overwrite a
failure.

Conditional expectations are not computable from samples, so martingale
structure is probed against a fixed, versioned dictionary of bounded
weights of the path up to the window start; each family of residuals is
zero in expectation for the discrete scheme, which keeps the pass
threshold a pure sampling-error statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .fields import MatrixField
from .occupation import SpatialGrid
from .sewing import Germ, sew
from .solver import Ensemble, PathSums, walk_ensemble

WEIGHT_DICTIONARY_VERSION = 1
_CLIP = 1.0
# moment_ratio's path bootstrap: resamples, and the Philox key of their draws.
_BOOTSTRAP = 200
_BOOTSTRAP_SEED = 0


@dataclass(frozen=True)
class IdentityReport:
    """One dual-estimator comparison."""

    tag: str
    label: str
    left: float
    right: float
    stderr: float
    margin: float
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return abs(self.left - self.right) <= 4.0 * self.stderr + self.margin

    def to_dict(self) -> dict:
        return {"tag": self.tag, "label": self.label, "left": self.left,
                "right": self.right, "stderr": self.stderr, "margin": self.margin,
                "passed": self.passed, **self.extras}


@dataclass(frozen=True, eq=False)
class MomentRatioReport:
    """Worst-window increment moment ratio for one mollification radius."""

    m: float
    gamma0: float
    epsilon: float | None
    ratio: float
    stderr: float
    gamma0_in_range: bool
    n_paths: int
    window_ratios: tuple[float, ...] = ()

    def to_dict(self) -> dict:
        return {"m": self.m, "gamma0": self.gamma0, "epsilon": self.epsilon,
                "ratio": self.ratio, "stderr": self.stderr,
                "gamma0_in_range": self.gamma0_in_range, "n_paths": self.n_paths}


def moment_ratio(ensemble: Ensemble, m: float, gamma0: float, *,
                 max_level: int = 4) -> MomentRatioReport:
    """max over dyadic windows of mean |X(t)-X(s)|^m / (t-s)^(m gamma0 / 2).

    The window set runs over dyadic levels 0..max_level.  The default stops
    at level 4 so the finest windows still average many solver steps; below
    that scale the frozen-coefficient scheme sees the raw spike of the
    coefficient and the discrete moments leave the continuum regime.

    The stderr is a path bootstrap of the max statistic, which respects the
    dependence between windows of the same path.
    """
    if m < 2.0:
        raise ParameterError(f"m must be >= 2, got {m}")
    grid = ensemble.scenario.grid
    windows = grid.dyadic_windows(max_level)
    mags = np.empty((int(ensemble.ok_mask.sum()), len(windows)))
    weights = np.empty(len(windows))
    increments = ensemble.window_increments(windows)
    for col, ((k0, k1), inc) in enumerate(zip(windows, increments)):
        mags[:, col] = np.linalg.norm(inc, axis=1) ** m
        weights[col] = ((k1 - k0) * grid.dt) ** (m * gamma0 / 2.0)
    ratios = mags.mean(axis=0) / weights
    ratio = float(ratios.max())
    rng = np.random.Generator(np.random.Philox(key=_BOOTSTRAP_SEED))
    n = mags.shape[0]
    stats = np.empty(_BOOTSTRAP)
    for b in range(_BOOTSTRAP):
        pick = rng.integers(0, n, size=n)
        stats[b] = (mags[pick].mean(axis=0) / weights).max()
    hurst = ensemble.scenario.fbm.hurst
    d = ensemble.scenario.dimension
    in_range = gamma0 < 1.0 - hurst * d / 2.0
    return MomentRatioReport(m, gamma0, ensemble.epsilon, ratio,
                             float(stats.std(ddof=1)), in_range, n,
                             tuple(float(r) for r in ratios))


def moment_ratio_trend(reports: list[MomentRatioReport]) -> dict:
    """Uniformity verdict across a mollification sweep."""
    if len(reports) < 2:
        raise ParameterError("need at least two radii for a trend")
    ratios = [r.ratio for r in reports]
    spread = max(ratios) / min(ratios)
    tail = ratios[-3:]
    increasing_tail = len(tail) == 3 and tail[0] < tail[1] < tail[2]
    return {"ratios": ratios, "spread": spread,
            "increasing_tail": increasing_tail,
            "uniform": spread <= 2.0 and not increasing_tail}


def quantized_perturbation(fbm_values: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Perturbation samples snapped to bin centers, shape (steps, d).

    This is the local-time discretization: averaging a field against the
    histogram local time equals summing the field over these snapped
    positions.  Samples outside the box pass through unchanged (no mass is
    silently dropped); size the box to cover the path.
    """
    pts = fbm_values[:, :-1].T  # left endpoints
    snapped, _inside = grid.quantize(pts)
    return snapped


def lebesgue_vs_sewing(x_values: np.ndarray, fbm, scalar_field, grid: SpatialGrid,
                       window: tuple[float, float], *, levels: int = 8,
                       margin_fraction: float = 0.05) -> IdentityReport:
    """Pathwise check: time quadrature of f(X - w) vs the sewn averaging germ.

    Left: sum of f(X(t_k) - w(t_k)) dt over the window.  Right: dyadic
    sewing of the germ A(u, v) = sum over t_k in [u, v) of
    f(X(u) - z_k) dt with z_k the bin-center quantization of w, which is
    exactly the local-time convolution of f evaluated at X(u).  Both routes
    see the same time quadrature, so the gap is the spatial quantization
    plus the frozen-argument (sewing) error, covered by margin_fraction.
    """
    s, t = window
    tg = fbm.grid
    k_s, k_t = tg.window(s, t)
    # Partition nodes must stay on the time grid, so cap the dyadic depth.
    levels = min(levels, int(math.floor(math.log2(k_t - k_s))))
    if levels < 3:
        raise ParameterError(
            f"window [{s}, {t}] spans {k_t - k_s} steps, too few for sewing")
    dt = tg.dt
    x = np.atleast_2d(x_values)
    w = fbm.values
    left = float(np.sum(scalar_field((x[:, k_s:k_t] - w[:, k_s:k_t]).T)) * dt)

    snapped = quantized_perturbation(w, grid)

    def germ_fn(u: float, v: float) -> float:
        ku, kv = tg.node_index(u), tg.node_index(v)
        args = x[:, ku][None, :] - snapped[ku:kv]
        return float(np.sum(scalar_field(args)) * dt)

    result = sew(Germ(germ_fn, label="averaged-square"), s, t, levels=levels)
    right = float(np.asarray(result.value))
    margin = margin_fraction * max(abs(left), abs(right))
    return IdentityReport("quadratic_variation", f"window[{s},{t}]", left, right,
                          0.0, margin,
                          {"sewing_rate": result.rate, "diverged": result.diverged})


def _check_steps(ensemble: Ensemble, t: float) -> int:
    k_t = ensemble.scenario.grid.node_index(t)
    if k_t < 1:
        raise ParameterError("t must be at least one step into the grid")
    return k_t


def _paired_report(tag: str, label: str, left_samples: np.ndarray,
                   right_samples: np.ndarray, margin_fraction: float,
                   extras: dict) -> IdentityReport:
    """Means of both estimators, with the paired stderr of their difference."""
    diff = left_samples - right_samples
    stderr = float(diff.std(ddof=1) / math.sqrt(diff.size)) if diff.size > 1 else 0.0
    left = float(left_samples.mean())
    right = float(right_samples.mean())
    margin = margin_fraction * max(abs(left), abs(right))
    return IdentityReport(tag, label, left, right, stderr, margin, extras)


def isometry_report(ensemble: Ensemble, sums: PathSums, e: int, t: float, *,
                    margin_fraction: float = 0.05) -> IdentityReport:
    """ito_isometry_check from snap field e of a walk over ensemble up to t."""
    j = sums.coordinate
    x_t = ensemble.values[:, j, sums.k_end][ensemble.ok_mask]
    left_samples = (x_t - ensemble.scenario.x0[j]) ** 2
    return _paired_report("ito_isometry", f"coordinate {j}, t={t}", left_samples,
                          sums.row_sq[e], margin_fraction,
                          {"epsilon": ensemble.epsilon})


def cross_term_report(ensemble: Ensemble, sums: PathSums, e: int, t: float, *,
                      epsilon: float | None = None,
                      margin_fraction: float = 0.05) -> IdentityReport:
    """cross_term_check from drift and snap field e of a walk over ensemble up to t."""
    scen = ensemble.scenario
    j = sums.coordinate
    x_t = ensemble.values[:, j, sums.k_end][ensemble.ok_mask]
    left_samples = (x_t - scen.x0[j]) * sums.ito[e][:, j]
    d_over_p = scen.dimension / scen.p
    return _paired_report("cross_term", f"coordinate {j}, t={t}", left_samples,
                          sums.mixed[e], margin_fraction,
                          {"epsilon": epsilon, "d_over_p": d_over_p,
                           "hypothesis_d_over_p_lt_1": d_over_p < 1.0})


def ito_isometry_check(ensemble: Ensemble, sigma_eps: MatrixField,
                       grid: SpatialGrid, t: float, *, coordinate: int = 0,
                       margin_fraction: float = 0.05) -> IdentityReport:
    """E[(X_j(t) - x0_j)^2] against the averaged squared row of the field.

    The right estimator accumulates the germ of |row_j sigma_eps|^2 against
    the quantized perturbation along each path (finest dyadic partition
    sum).  stderr is the paired standard error of the per-path difference,
    since both estimators ride on the same paths.
    """
    k_t = _check_steps(ensemble, t)
    snapped = quantized_perturbation(ensemble.scenario.fbm.values, grid)[:k_t]
    sums = walk_ensemble(ensemble, k_t, snap=[sigma_eps], snapped=snapped,
                         coordinate=coordinate)
    return isometry_report(ensemble, sums, 0, t, margin_fraction=margin_fraction)


def cross_term_check(ensemble: Ensemble, sigma_raw: MatrixField,
                     sigma_eps: MatrixField, grid: SpatialGrid, t: float, *,
                     coordinate: int = 0, epsilon: float | None = None,
                     margin_fraction: float = 0.05) -> IdentityReport:
    """Pairing of the martingale with the mollified integral vs the mixed germ.

    Left: E[(X_j(t) - x0_j) * I_j(t)] where I_j is the Ito sum of row j of
    sigma_eps along the ensemble paths against the shared driver.  Right:
    the mixed germ (sigma_raw sigma_eps^T)_jj accumulated at quantized
    perturbation positions.  The ensemble should be the reference (smallest
    radius) solve; at that radius the Ito sum reproduces the martingale
    increment bitwise, so the left side collapses onto the isometry value
    and the sweep over radii traces the convergence the stability result
    predicts.  Requires d/p < 1 to mean anything, reported in extras.
    """
    k_t = _check_steps(ensemble, t)
    snapped = quantized_perturbation(ensemble.scenario.fbm.values, grid)[:k_t]
    sums = walk_ensemble(ensemble, k_t, drift=[sigma_eps], snap=[sigma_eps],
                         snapped=snapped, sigma_raw=sigma_raw,
                         coordinate=coordinate)
    return cross_term_report(ensemble, sums, 0, t, epsilon=epsilon,
                             margin_fraction=margin_fraction)


def weight_dictionary(d: int, n: int):
    """Fixed bounded weights of the path up to the window start (version 1).

    Each entry is (label, fn) with fn(x_nodes, b_nodes, k_s, k_half) -> (paths,)
    where x_nodes are solution values and b_nodes driver values.  Clipping
    keeps every weight bounded and continuous.
    """
    def clip(a):
        return np.clip(a, -_CLIP, _CLIP)

    entries = [("one", lambda x, b, ks, kh: np.ones(x.shape[0]))]
    for j in range(d):
        entries.append((f"clip_x{j}_s",
                        lambda x, b, ks, kh, j=j: clip(x[:, j, ks])))
        entries.append((f"clip_x{j}_half",
                        lambda x, b, ks, kh, j=j: clip(x[:, j, kh])))
        entries.append((f"clip_x{j}_s_times_half",
                        lambda x, b, ks, kh, j=j: clip(x[:, j, ks]) * clip(x[:, j, kh])))
    for i in range(n):
        entries.append((f"clip_b{i}_s",
                        lambda x, b, ks, kh, i=i: clip(b[:, i, ks])))
    for j in range(d):
        for i in range(n):
            entries.append((f"clip_x{j}_times_b{i}",
                            lambda x, b, ks, kh, j=j, i=i:
                            clip(x[:, j, ks]) * clip(b[:, i, ks])))
    return entries


def martingale_reports(ensemble: Ensemble, sums: PathSums, e: int,
                       pairs: list[tuple[float, float]]) -> list[IdentityReport]:
    """martingale_residuals from drift field e of a walk whose windows are
    the node pairs of `pairs`."""
    scen = ensemble.scenario
    j, i = sums.coordinate, sums.driver_coordinate
    reports = []
    for w_idx, ((s, t), (k_s, k_t)) in enumerate(zip(pairs, sums.windows)):
        # Columns k_s, k_s // 2, k_t of the solution and k_s, k_t of the
        # driver: the weights read columns 0 and 1 of x_w and 0 of b_w.
        x_w = ensemble.values[:, :, [k_s, k_s // 2, k_t]][ensemble.ok_mask]
        b_w = sums.driver_nodes[:, :, [sums.nodes.index(k_s), sums.nodes.index(k_t)]]
        mart_s = x_w[:, j, 0] - scen.x0[j]
        mart_t = x_w[:, j, 2] - scen.x0[j]
        quad_comp = sums.quad_comp[w_idx, e]
        cross_comp = sums.cross_comp[w_idx, e]
        z_level = mart_t - mart_s
        z_quad = mart_t ** 2 - mart_s ** 2 - quad_comp
        z_cross = mart_t * b_w[:, i, 1] - mart_s * b_w[:, i, 0] - cross_comp
        comp_range = {
            "level": (0.0, 0.0),
            "quadratic": (float(quad_comp.min()), float(quad_comp.max())),
            "cross": (float(cross_comp.min()), float(cross_comp.max())),
        }
        for family, z in (("level", z_level), ("quadratic", z_quad),
                          ("cross", z_cross)):
            for label, w_fn in weight_dictionary(scen.dimension, scen.driver_dimension):
                wts = w_fn(x_w, b_w, 0, 1)
                samples = wts * z
                stderr = (float(samples.std(ddof=1) / math.sqrt(samples.size))
                          if samples.size > 1 else 0.0)
                lo, hi = comp_range[family]
                reports.append(IdentityReport(
                    "martingale", f"{family}/{label}/window[{s},{t}]",
                    float(samples.mean()), 0.0, stderr, 0.0,
                    {"family": family, "weight": label, "s": s, "t": t,
                     "compensator_min": lo, "compensator_max": hi,
                     "dictionary_version": WEIGHT_DICTIONARY_VERSION}))
    return reports


def martingale_residuals(ensemble: Ensemble, sigma_eps: MatrixField,
                         pairs: list[tuple[float, float]], *,
                         coordinate: int = 0, driver_coordinate: int = 0
                         ) -> list[IdentityReport]:
    """Residuals E[weight * increment] for the three martingale families.

    Families, for M = X_j - x0_j and the discrete compensators evaluated
    along the exact (unquantized) perturbation positions:

      level:      M(t) - M(s)
      quadratic:  M(t)^2 - M(s)^2 - sum |row_j sigma_eps|^2 dt
      cross:      M(t) B_i(t) - M(s) B_i(s) - sum (sigma_eps)_ji dt

    Every family has expectation exactly zero for the scheme, so the pass
    criterion is |residual| <= 4 stderr with no discretization margin.
    """
    windows = [ensemble.scenario.grid.window(s, t) for s, t in pairs]
    sums = walk_ensemble(ensemble, 0, drift=[sigma_eps], windows=windows,
                         coordinate=coordinate, driver_coordinate=driver_coordinate)
    return martingale_reports(ensemble, sums, 0, pairs)
