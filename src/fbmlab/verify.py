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
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .occupation import SpatialGrid, quantized_perturbation
from .sewing import Germ, sew
from .solver import Ensemble, PathSums, _stderr
from .verdicts import (CROSS_TERM_MARGIN, IDENTITY_STDERRS, ISOMETRY_MARGIN,
                       QUADRATIC_VARIATION_MARGIN, TREND_RISING_TAIL,
                       TREND_SPREAD)

WEIGHT_DICTIONARY_VERSION = 1
_CLIP = 1.0
# Finest dyadic level of moment_ratio's windows.
MOMENT_MAX_LEVEL = 4
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

    def _gap_and_gate(self) -> tuple[float, float]:
        return (abs(self.left - self.right),
                IDENTITY_STDERRS.gate * self.stderr + self.margin)

    @property
    def passed(self) -> bool:
        gap, gate = self._gap_and_gate()
        return gap <= gate

    @property
    def usage(self) -> float:
        """The gap over its gate: at most 1 when the report passes."""
        gap, gate = self._gap_and_gate()
        return gap / gate if gate > 0.0 else (0.0 if gap == 0.0 else math.inf)

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

    def to_dict(self) -> dict:
        return {"m": self.m, "gamma0": self.gamma0, "epsilon": self.epsilon,
                "ratio": self.ratio, "stderr": self.stderr,
                "gamma0_in_range": self.gamma0_in_range, "n_paths": self.n_paths}


def moment_ratio(ensembles: Sequence[Ensemble], m: float,
                 gamma0: float) -> list[MomentRatioReport]:
    """Per ensemble, max over dyadic windows of mean |X(t)-X(s)|^m / (t-s)^(m gamma0 / 2).

    The ensembles share one time grid; the reports follow their order.
    The window set runs over dyadic levels 0..MOMENT_MAX_LEVEL, as read at
    call time.  Level 4 leaves the finest windows many solver steps wide;
    below that the frozen-coefficient scheme sees the raw spike of the
    coefficient and the discrete moments leave the continuum regime.

    The stderr is a path bootstrap of the max statistic, which respects the
    dependence between windows of the same path.  Its resamples are drawn
    from one Philox stream per ensemble, so ensembles with the same number
    of surviving paths draw the same picks: they are resampled together,
    one draw and one gather of their stacked (paths, ensembles, windows)
    magnitudes per resample.  Means add the picked rows in order, each
    ensemble's resample statistics fill their own contiguous row, and
    every result is bit-equal to resampling that ensemble alone.  An
    ensemble with fewer than 2 surviving paths is refused
    (InsufficientDataError) before anything is resampled.
    """
    if m < 2.0:
        raise ParameterError(f"m must be >= 2, got {m}")
    grid = ensembles[0].scenario.grid
    if any(ens.scenario.grid != grid for ens in ensembles):
        raise ParameterError("moment ratios need ensembles on one time grid")
    windows = grid.dyadic_windows(MOMENT_MAX_LEVEL)
    weights = np.array([((k1 - k0) * grid.dt) ** (m * gamma0 / 2.0)
                        for k0, k1 in windows])
    groups: dict[int, list[int]] = {}  # ensembles by surviving path count
    for i, ens in enumerate(ensembles):
        n = int(ens.ok_mask.sum())
        if n < 2:
            raise InsufficientDataError(
                f"ensemble {i} (epsilon={ens.epsilon}) has {n} surviving paths; "
                "a moment ratio and its bootstrap need at least 2")
        groups.setdefault(n, []).append(i)
    reports = [None] * len(ensembles)
    for n, members in groups.items():
        mags = np.empty((n, len(members), len(windows)))
        for g, i in enumerate(members):
            mags[:, g] = ensembles[i].window_moments(windows, m)
        ratios = (mags.mean(axis=0) / weights).max(axis=1)
        rng = np.random.Generator(np.random.Philox(key=_BOOTSTRAP_SEED))
        stats = np.empty((len(members), _BOOTSTRAP))
        for b in range(_BOOTSTRAP):
            pick = rng.integers(0, n, size=n)
            stats[:, b] = (mags[pick].mean(axis=0) / weights).max(axis=1)
        for g, i in enumerate(members):
            scen = ensembles[i].scenario
            in_range = gamma0 < 1.0 - scen.fbm.hurst * scen.dimension / 2.0
            reports[i] = MomentRatioReport(m, gamma0, ensembles[i].epsilon,
                                           float(ratios[g]),
                                           float(stats[g].std(ddof=1)), in_range, n)
    return reports


def moment_ratio_trend(reports: list[MomentRatioReport]) -> dict:
    """Uniformity verdict across a mollification sweep; a zero ratio leaves
    the spread undefined and is refused (ParameterError) by its radius."""
    if len(reports) < 2:
        raise ParameterError("need at least two radii for a trend")
    zero = [r.epsilon for r in reports if r.ratio == 0.0]
    if zero:
        raise ParameterError(f"the moment ratio at epsilon={zero[0]} is 0: the solution does "
                             "not move along any surviving path, so the trend has no spread")
    ratios = [r.ratio for r in reports]
    spread = max(ratios) / min(ratios)
    run = TREND_RISING_TAIL.gate
    tail = ratios[-run:]
    increasing_tail = len(tail) == run and all(a < b for a, b in zip(tail, tail[1:]))
    return {"ratios": ratios, "spread": spread,
            "increasing_tail": increasing_tail,
            "uniform": spread <= TREND_SPREAD.gate and not increasing_tail}


class _QuantizedAverageGerm(Germ):
    """A(u, v) = sum over t_k in [u, v) of f(x(u) - z_k) dt, z_k the snapped
    perturbation: one field call per partition level.

    The nodes must split their span into equal runs of grid steps, as
    lebesgue_vs_sewing's depth cap ensures.  Each run's sum is a row sum of
    one (windows, steps) reshape, which sums each row as np.sum sums that
    run on its own.
    """

    def __init__(self, x: np.ndarray, snapped: np.ndarray, scalar_field, grid):
        super().__init__(None)
        self._x, self._snapped, self._f, self._grid = x, snapped, scalar_field, grid

    def __call__(self, u: float, v: float) -> np.ndarray:
        return np.asarray(self.level_values(np.array([u, v]))[0])

    def level_values(self, nodes: np.ndarray) -> np.ndarray:
        k0, k1 = self._grid.window(nodes[0], nodes[-1])
        count = nodes.size - 1
        width = (k1 - k0) // count
        d = self._snapped.shape[1]
        args = (self._x[:, k0:k1:width].T[:, None, :]
                - self._snapped[k0:k1].reshape(count, width, d))
        vals = np.asarray(self._f(args.reshape(-1, d)), dtype=float)
        return vals.reshape(count, width).sum(axis=1) * self._grid.dt


def lebesgue_vs_sewing(x_values: np.ndarray, fbm, scalar_field, grid: SpatialGrid,
                       window: tuple[float, float], *, levels: int = 8
                       ) -> IdentityReport:
    """Pathwise check: time quadrature of f(X - w) vs the sewn averaging germ.

    Left: sum of f(X(t_k) - w(t_k)) dt over the window.  Right: dyadic
    sewing of the germ A(u, v) = sum over t_k in [u, v) of
    f(X(u) - z_k) dt with z_k the bin-center quantization of w, which is
    exactly the local-time convolution of f evaluated at X(u).  Both routes
    see the same time quadrature, so the gap is the spatial quantization
    plus the frozen-argument (sewing) error, covered by
    QUADRATIC_VARIATION_MARGIN.

    Partition nodes must stay on the time grid, so the dyadic depth is
    capped at the power of 2 dividing the window's step count; a window
    with fewer than 3 such levels raises ParameterError.
    """
    s, t = window
    tg = fbm.grid
    k_s, k_t = tg.window(s, t)
    steps = k_t - k_s
    levels = min(levels, (steps & -steps).bit_length() - 1)
    if levels < 3:
        raise ParameterError(
            f"window [{s}, {t}] spans {steps} steps, which 2**3 does not "
            "divide: sewing needs 3 dyadic levels on the time grid")
    x = np.atleast_2d(x_values)
    w = fbm.values
    left = float(np.sum(scalar_field((x[:, k_s:k_t] - w[:, k_s:k_t]).T)) * tg.dt)
    germ = _QuantizedAverageGerm(x, quantized_perturbation(w, grid), scalar_field, tg)
    result = sew(germ, s, t, levels=levels)
    right = float(np.asarray(result.value))
    margin = QUADRATIC_VARIATION_MARGIN.gate * max(abs(left), abs(right))
    return IdentityReport("quadratic_variation", f"window[{s},{t}]", left, right,
                          0.0, margin,
                          {"sewing_rate": result.rate, "diverged": result.diverged})


def _paired_report(tag: str, ensemble: Ensemble, left_samples: np.ndarray,
                   right_samples: np.ndarray, margin_fraction: float,
                   extras: dict) -> IdentityReport:
    """Means of both estimators, with the paired stderr of their difference,
    labelled with coordinate 0 and the horizon."""
    left = float(left_samples.mean())
    right = float(right_samples.mean())
    margin = margin_fraction * max(abs(left), abs(right))
    return IdentityReport(tag, f"coordinate 0, t={ensemble.scenario.grid.horizon}",
                          left, right, _stderr(left_samples - right_samples),
                          margin, extras)


def _end_increments(ensemble: Ensemble) -> np.ndarray:
    """X_0(T) - x0_0 of the surviving paths at the horizon T."""
    steps = ensemble.scenario.grid.steps
    x_t = ensemble.at_nodes([steps])[:, 0, 0][ensemble.ok_mask]
    return x_t - ensemble.scenario.x0[0]


def isometry_report(ensemble: Ensemble, sums: PathSums, e: int) -> IdentityReport:
    """E[(X_0(T) - x0_0)^2] at the horizon T against the averaged squared
    row of a field, over the ensemble's surviving paths.

    sums is a walk_ensemble pass whose field e, sigma_eps, solved
    ensemble.  The right estimator is its row_sq[e]: the germ of
    |row_0 sigma_eps|^2 accumulated against the quantized perturbation
    along each path (finest dyadic partition sum).  stderr is the paired
    standard error of the per-path difference, since both estimators ride
    on the same paths.
    """
    return _paired_report("ito_isometry", ensemble, _end_increments(ensemble) ** 2,
                          sums.row_sq[e][ensemble.ok_mask],
                          ISOMETRY_MARGIN.gate, {"epsilon": ensemble.epsilon})


def cross_term_report(ensemble: Ensemble, sums: PathSums, e: int, *,
                      epsilon: float | None = None) -> IdentityReport:
    """Pairing of the martingale with the mollified integral vs the mixed germ.

    sums is a walk_ensemble pass with reference ensemble, read at its
    survivors, whose field e is sigma_eps.  Left: E[(X_0(T) - x0_0) * I_0(T)]
    at the horizon T, where I_0, its ito[e], is the Ito sum of row 0 of
    sigma_eps along the ensemble paths against the shared driver.  Right:
    its mixed[e], the mixed germ (sigma sigma_eps^T)_00 of the scenario's
    unmollified sigma, accumulated at quantized perturbation positions.
    The ensemble should be the reference (smallest radius) solve; at that
    radius the Ito sum equals the martingale increment up to rounding (the
    walk adds from 0.0, the recursion from x0), so the left side collapses
    onto the isometry value and the sweep over radii traces the
    convergence the stability result predicts.  Requires
    d/p < 1 to mean anything, reported in extras.
    """
    scen = ensemble.scenario
    left_samples = _end_increments(ensemble) * sums.ito[e][ensemble.ok_mask, 0]
    d_over_p = scen.dimension / scen.p
    return _paired_report("cross_term", ensemble, left_samples,
                          sums.mixed[e][ensemble.ok_mask], CROSS_TERM_MARGIN.gate,
                          {"epsilon": epsilon, "d_over_p": d_over_p,
                           "hypothesis_d_over_p_lt_1": d_over_p < 1.0})


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


def _weight_nodes(k_s: int, k_t: int) -> tuple[int, int, int]:
    """The solution nodes the martingale weights and increments of window
    (k_s, k_t) read: its start, half its start, its end."""
    return k_s, k_s // 2, k_t


def martingale_nodes(windows: list[tuple[int, int]]) -> set[int]:
    """Every solution node martingale_reports reads for node-pair windows."""
    return {k for k_s, k_t in windows for k in _weight_nodes(k_s, k_t)}


def martingale_reports(ensemble: Ensemble, sums: PathSums,
                       pairs: list[tuple[float, float]]) -> list[IdentityReport]:
    """Residuals E[weight * increment] for the three martingale families.

    sums is a walk_ensemble pass with reference ensemble, read at its
    survivors, whose windows are the node pairs of `pairs`.  Families, for
    M = X_0 - x0_0 and the discrete
    compensators of the field that solved the ensemble, sigma_eps,
    evaluated along the exact (unquantized) perturbation positions:

      level:      M(t) - M(s)
      quadratic:  M(t)^2 - M(s)^2 - sum |row_0 sigma_eps|^2 dt
      cross:      M(t) B_0(t) - M(s) B_0(s) - sum (sigma_eps)_00 dt

    Each family is weighted by every entry of weight_dictionary, read at
    the window start and half of it.  Every family has expectation exactly
    zero for the scheme, so the pass criterion is IDENTITY_STDERRS standard
    errors with no discretization margin.
    """
    scen = ensemble.scenario
    ok = ensemble.ok_mask
    reports = []
    for w_idx, ((s, t), (k_s, k_t)) in enumerate(zip(pairs, sums.windows)):
        # Columns k_s, k_s // 2, k_t of the solution and k_s, k_t of the
        # driver: the weights read columns 0 and 1 of x_w and 0 of b_w.
        x_w = ensemble.at_nodes(_weight_nodes(k_s, k_t))[ok]
        b_w = sums.driver_nodes[:, :, [sums.nodes.index(k_s), sums.nodes.index(k_t)]][ok]
        mart_s = x_w[:, 0, 0] - scen.x0[0]
        mart_t = x_w[:, 0, 2] - scen.x0[0]
        quad_comp = sums.quad_comp[w_idx][ok]
        cross_comp = sums.cross_comp[w_idx][ok]
        z_level = mart_t - mart_s
        z_quad = mart_t ** 2 - mart_s ** 2 - quad_comp
        z_cross = mart_t * b_w[:, 0, 1] - mart_s * b_w[:, 0, 0] - cross_comp
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
                lo, hi = comp_range[family]
                reports.append(IdentityReport(
                    "martingale", f"{family}/{label}/window[{s},{t}]",
                    float(samples.mean()), 0.0, _stderr(samples), 0.0,
                    {"family": family, "weight": label, "s": s, "t": t,
                     "compensator_min": lo, "compensator_max": hi,
                     "dictionary_version": WEIGHT_DICTIONARY_VERSION}))
    return reports
