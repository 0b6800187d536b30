"""Averaging of fields along a path, and the regularity bookkeeping around it.

The averaged field of f along a path w over a window [s, t] is

    (T f)(x) = integral over [s, t] of f(x - w(r)) dr,

discretized by the same left-endpoint rule as the occupation measure.  Two
independent routes compute it: direct time quadrature at chosen probe
points, and a spatial convolution of grid samples of f with a local-time
field (zero-padded FFT, no wraparound), which samples it at lattice nodes
only.  There the two agree up to the spatial quantization of the path,
which is the content of the agreement budget in
`convolution_agreement_bound`.

Regularity gains are quantified two ways: empirically, through a dyadic
sup-increment exponent estimator, and analytically, through closed-form
admissible (lambda, gamma) budgets and Hurst thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CoverageError, HypothesisError, InsufficientDataError,
                     ParameterError)
from .fields import _fftconvolve
from .occupation import OccupationMeasure, SpatialGrid, _exact_sum
from .paths import _check_hurst, _write_csv

_NOISE_FLOOR_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class AveragedField:
    """Samples of (T f) over a window at the bin centers of grid."""

    grid: SpatialGrid
    s: float
    t: float
    values: np.ndarray

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def to_csv(self, fh) -> None:
        mesh = self.grid.centers_mesh().reshape(-1, self.grid.dimension)
        _write_csv(fh, f"s={self.s} t={self.t} h={self.grid.h}",
                   [f"x_{a + 1}" for a in range(self.grid.dimension)] + ["value"],
                   np.column_stack([mesh, self.values.ravel()]))


def average_direct(f, path, s: float, t: float, probes) -> np.ndarray:
    """Direct quadrature of (T f) at probe points.

    Sums f(x - w(t_k)) * dt over grid nodes t_k in [s, t).  Each probe sum
    is correctly rounded (equal to math.fsum), so window additivity holds
    to the last rounding of the final product.
    """
    k0, k1 = path.grid.window(s, t)
    pts = np.atleast_2d(np.asarray(probes, dtype=float))
    if pts.shape[1] != path.dimension:
        raise ParameterError("probe dimension does not match the path")
    # (samples, d), left a strided view: in a C-contiguous copy, f's reductions
    # over the short d axis (a norm, say) run about twice as slow.
    window = path.values[:, k0:k1].T
    out = np.empty(pts.shape[0])
    for i, x in enumerate(pts):
        out[i] = _exact_sum(f(x[None, :] - window)) * path.grid.dt
    return out


def average_via_local_time(f_values: np.ndarray, f_grid: SpatialGrid,
                           local_time_field: OccupationMeasure) -> AveragedField:
    """Averaged field as the convolution of f samples with a local-time field.

    The output lives on the difference lattice: sample k of the full
    convolution sits at f_lower + L_lower + (k + 1) * h, which is again a
    uniform center lattice.  Escaped occupation mass is missing from the
    local time, so a fraction above 1% raises CoverageError.
    """
    grid_l = local_time_field.grid
    if f_grid.dimension != grid_l.dimension:
        raise ParameterError("f grid and local-time grid dimensions differ")
    if abs(f_grid.h - grid_l.h) > 1e-12 * grid_l.h:
        raise ParameterError(
            f"incompatible bin widths: f grid h={f_grid.h}, local time h={grid_l.h}")
    if f_values.shape != f_grid.shape:
        raise ParameterError("f_values shape does not match its grid")
    if local_time_field.escaped_fraction > 0.01:
        raise CoverageError(
            f"{local_time_field.escaped_fraction:.2%} of the occupation mass "
            "escaped the box (tolerance 1.00%)")
    conv = _fftconvolve(f_values, local_time_field.values) * grid_l.cell_volume
    h = grid_l.h
    lower = tuple(fl + ll + 0.5 * h for fl, ll in zip(f_grid.lower, grid_l.lower))
    bins = tuple(mf + ml - 1 for mf, ml in zip(f_grid.shape, grid_l.shape))
    out_grid = SpatialGrid(lower, h, bins, allow_origin_center=True)
    return AveragedField(out_grid, local_time_field.s, local_time_field.t, conv)


def convolution_agreement_bound(lipschitz: float, grid_h: float, mass: float,
                                dimension: int = 1) -> float:
    """Sup-norm budget between the direct and convolution routes.

    Snapping each path sample to its bin center moves the argument of f by
    at most (h/2) * sqrt(d).  The budget covers a local time that kept all
    its mass; an escaped sample is missing from the convolution route.
    """
    return lipschitz * 0.5 * grid_h * math.sqrt(dimension) * mass


@dataclass(frozen=True)
class HolderEstimate:
    exponent: float
    half_width: float
    degenerate: bool
    lags: tuple[int, ...]


def holder_exponent(samples) -> HolderEstimate:
    """Sup-increment Holder exponent over dyadic lags.

    For each dyadic lag l up to a quarter of the samples the statistic is
    max_i |v[i+l] - v[i]|; the exponent is the least-squares slope of
    log2(statistic) against log2(lag).  The finest two lags are excluded
    (they sit on the noise floor of whatever produced the samples), and at
    least four lags must remain.  Constant samples yield the degenerate
    flag instead of an exponent.  The slope is in lag units, so it does
    not depend on the sample spacing.
    """
    v = np.asarray(samples, dtype=float).ravel()
    n = v.size
    max_lag = n // 4
    if max_lag < 1:
        raise InsufficientDataError(f"too few samples ({n}) for any dyadic lag")
    n_levels = int(math.floor(math.log2(max_lag))) + 1
    lags = [1 << j for j in range(n_levels)]
    sups = np.array([np.max(np.abs(v[lag:] - v[:-lag])) for lag in lags])

    scale = np.max(np.abs(v - v[0])) if n else 0.0
    floor = _NOISE_FLOOR_RTOL * max(scale, 1.0)
    if np.all(sups <= floor):
        return HolderEstimate(math.nan, math.nan, True, tuple(lags))

    usable = [(lag, sup) for lag, sup in zip(lags[2:], sups[2:]) if sup > floor]
    if len(usable) < 4:
        raise InsufficientDataError(
            f"only {len(usable)} usable dyadic scales, need >= 4")
    x = np.log2([lag for lag, _ in usable])
    y = np.log2([sup for _, sup in usable])
    slope, se = _ols_slope(x, y)
    return HolderEstimate(float(slope), 2.0 * se, False, tuple(lags))


def _ols_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and its standard error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xbar = x.mean()
    sxx = np.sum((x - xbar) ** 2)
    if sxx == 0.0:
        raise InsufficientDataError("all scales coincide; cannot fit a slope")
    slope = np.sum((x - xbar) * (y - y.mean())) / sxx
    resid = y - (y.mean() + slope * (x - xbar))
    dof = max(x.size - 2, 1)
    se = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx)
    return float(slope), se


@dataclass(frozen=True)
class RegularityBudget:
    """Admissible (lambda, gamma) region for an averaging operator variant.

    variant "pathwise" requires hurst < 1/d and trades space against time as
    gamma < 1 - (lambda + d/2) * hurst with lambda < 1/(2 hurst) - d/min(p, 2);
    variant "moment" uses gamma < 1 - (lambda + d/p) * hurst with
    lambda < 1/(2 hurst) - d/p.
    """

    hurst: float
    dimension: int
    p: float
    variant: str
    lambda_max: float

    def gamma_max(self, lam: float) -> float:
        if lam >= self.lambda_max:
            raise HypothesisError(
                f"lambda={lam} is outside the admissible range (< {self.lambda_max})")
        if self.variant == "pathwise":
            return 1.0 - (lam + self.dimension / 2.0) * self.hurst
        return 1.0 - (lam + self.dimension / self.p) * self.hurst

    def to_dict(self) -> dict:
        out = {"hurst": self.hurst, "dimension": self.dimension, "p": self.p,
               "variant": self.variant, "lambda_max": self.lambda_max}
        probe = min(1.0, 0.5 * self.lambda_max)
        out["gamma_max_at_lambda"] = {"lambda": probe, "gamma_max": self.gamma_max(probe)}
        return out


def admissible_regularity(hurst: float, dimension: int, p: float,
                          variant: str = "moment") -> RegularityBudget:
    """Closed-form regularity budget for the averaging operator."""
    _check_hurst(hurst)
    if dimension < 1:
        raise ParameterError("dimension must be >= 1")
    if p < 1.0:
        raise ParameterError(f"p must be >= 1, got {p}")
    if variant not in ("pathwise", "moment"):
        raise ParameterError(f"unknown variant {variant!r}; use 'pathwise' or 'moment'")
    if variant == "pathwise":
        if not hurst < 1.0 / dimension:
            raise HypothesisError(
                f"pathwise budget needs hurst < 1/d, got hurst={hurst}, d={dimension}")
        lambda_max = 1.0 / (2.0 * hurst) - dimension / min(p, 2.0)
    else:
        lambda_max = 1.0 / (2.0 * hurst) - dimension / p
    if lambda_max <= 0.0:
        raise HypothesisError(
            f"no admissible lambda: the budget is exhausted at hurst={hurst}, "
            f"d={dimension}, p={p}")
    return RegularityBudget(hurst, dimension, p, variant, lambda_max)


def hurst_admissible_main(dimension: int, p: float) -> float:
    """Largest Hurst parameter the well-posedness threshold allows.

    Requires p >= 2 and d/p < 1; the threshold is
    0.5 / (1 + d / min(p/2, 4/3)).
    """
    if dimension < 1:
        raise ParameterError("dimension must be >= 1")
    if p < 2.0:
        raise HypothesisError(f"threshold requires p >= 2, got {p}")
    if not dimension / p < 1.0:
        raise HypothesisError(f"threshold requires d/p < 1, got d/p={dimension / p}")
    # Single correctly rounded division so rational thresholds are exact.
    if p / 2.0 <= 4.0 / 3.0:
        return p / (2.0 * p + 4.0 * dimension)
    return 2.0 / (4.0 + 3.0 * dimension)


def hurst_admissible_fbm_driver(driver_hurst: float, dimension: int, p: float) -> float:
    """Perturbation threshold when the driver is itself fractional.

    Valid for driver_hurst strictly between 1/2 and 1; the bound is
    (driver_hurst - 1/2) / (2 + d/p).
    """
    if dimension < 1:
        raise ParameterError("dimension must be >= 1")
    if not driver_hurst > 0.5:
        raise HypothesisError(
            f"driver_hurst must exceed 1/2, got {driver_hurst}")
    if not driver_hurst < 1.0:
        raise HypothesisError(
            f"driver_hurst must be below 1 (excluded endpoint), got {driver_hurst}")
    return (driver_hurst - 0.5) / (2.0 + dimension / p)
