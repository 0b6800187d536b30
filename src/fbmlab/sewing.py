"""Dyadic sewing: from two-parameter germs to additive integrals.

A germ A assigns a value to every window (s, t).  Its sewn integral is the
limit of partition sums S_k = sum of A over the 2**k dyadic subwindows of
[s, t], which exists when the defect

    delta A(s, u, t) = A(s, t) - A(s, u) - A(u, t)

vanishes fast enough as windows shrink.  The engine tracks the level sums,
estimates the geometric decay rate of |S_{k+1} - S_k|, Richardson
extrapolates when that rate is stable, and flags divergence when the level
differences keep failing to decrease, which is what a germ below the
critical window exponent looks like.

The stochastic diagnostic replaces unavailable conditional expectations by
projections on a dictionary of weights computed from the path up to the
window start; the fitted exponents of the projected and raw defect norms
play the role of the two exponents a stochastic sewing bound needs.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, InsufficientDataError, ParameterError
from .averaging import _ols_slope

_DIFF_FLOOR_RTOL = 1e-13


class Germ:
    """Two-parameter function with optional declared window exponents."""

    def __init__(self, fn, alpha: float | None = None, beta: float | None = None,
                 label: str = "germ"):
        self._fn = fn
        self.alpha = alpha
        self.beta = beta
        self.label = label

    def __call__(self, s: float, t: float) -> np.ndarray:
        return np.asarray(self._fn(s, t), dtype=float)

    def level_values(self, nodes: np.ndarray):
        """Values on the windows between consecutive nodes, in order.

        The sewing engine asks for a whole partition level at once; a germ
        that can evaluate every window in one pass overrides this.
        """
        return [self(a, b) for a, b in zip(nodes[:-1], nodes[1:])]

    def __add__(self, other: "Germ") -> "Germ":
        return Germ(lambda s, t: self(s, t) + other(s, t),
                    label=f"({self.label}+{other.label})")

    def scaled(self, c: float) -> "Germ":
        return Germ(lambda s, t: c * self(s, t), alpha=self.alpha, beta=self.beta,
                    label=f"{c}*{self.label}")


def delta(germ: Germ, s: float, u: float, t: float) -> np.ndarray:
    """Sewing defect A(s,t) - A(s,u) - A(u,t)."""
    if not s <= u <= t:
        raise ParameterError(f"need s <= u <= t, got {s}, {u}, {t}")
    return germ(s, t) - germ(s, u) - germ(u, t)


@dataclass(frozen=True, eq=False)
class SewingResult:
    s: float
    t: float
    level_sums: tuple
    level_diffs: tuple[float, ...]
    value: np.ndarray
    rate: float | None
    rate_half_width: float | None
    diverged: bool

    @property
    def last_sum(self) -> np.ndarray:
        return self.level_sums[-1]

    def to_dict(self) -> dict:
        return {"s": self.s, "t": self.t,
                "level_sums": [np.asarray(v).tolist() for v in self.level_sums],
                "level_diffs": list(self.level_diffs),
                "value": np.asarray(self.value).tolist(),
                "rate": self.rate, "rate_half_width": self.rate_half_width,
                "diverged": self.diverged}


def _partition_sum(germ: Germ, s: float, t: float, level: int) -> np.ndarray:
    nodes = s + (t - s) * np.arange((1 << level) + 1) / (1 << level)
    # Left to right, one addition per window: the order fixes the bits.
    return np.asarray(functools.reduce(operator.add, germ.level_values(nodes)),
                      dtype=float)


def sew(germ: Germ, s: float, t: float, levels: int = 10) -> SewingResult:
    """Dyadic partition sums of the germ over [s, t] with convergence diagnostics.

    levels >= 3 so that divergence (three consecutive non-decreasing level
    differences above the noise floor) is observable at all.
    """
    if not s < t:
        raise ParameterError(f"need s < t, got s={s}, t={t}")
    if levels < 3:
        raise ParameterError(f"levels must be >= 3, got {levels}")
    sums = [_partition_sum(germ, s, t, k) for k in range(levels + 1)]
    diffs = [float(np.linalg.norm(np.atleast_1d(sums[k + 1] - sums[k])))
             for k in range(levels)]
    scale = max(float(np.max(np.abs(np.atleast_1d(v)))) for v in sums)
    floor = _DIFF_FLOOR_RTOL * max(scale, 1.0)

    live = [d > floor for d in diffs]
    diverged = any(live[k] and live[k + 1] and live[k + 2]
                   and diffs[k] <= diffs[k + 1] <= diffs[k + 2]
                   for k in range(len(diffs) - 2))

    usable = [(k, d) for k, d in enumerate(diffs) if live[k]]
    rate = half_width = None
    if len(usable) >= 3 and not diverged:
        x = np.array([k for k, _ in usable], dtype=float)
        y = np.log2([d for _, d in usable])
        slope, _, se = _ols_slope(x, y)
        rate, half_width = -slope, 2.0 * se

    value = np.asarray(sums[-1], dtype=float)
    if (rate is not None and rate > 0.05 and half_width is not None
            and half_width < 0.5 and live[-1]):
        # Geometric tail: one Richardson step against the fitted rate.
        value = value + (sums[-1] - sums[-2]) / (2.0 ** rate - 1.0)
    return SewingResult(s, t, tuple(np.asarray(v, dtype=float) for v in sums),
                        tuple(diffs), value, rate, half_width, diverged)


def remainder_check(germ: Germ, result: SewingResult, beta: float, *,
                    level: int = 8, sub_levels: int = 6) -> float:
    """sup over dyadic windows of |IA(s,t) - A(s,t)| / (t - s)**beta.

    IA is reconstructed at all 2**level nodes of [result.s, result.t] by
    sewing each fine interval, then the remainder ratio is brute-forced
    over every node pair.
    """
    if beta <= 1.0:
        raise ParameterError(f"beta must exceed 1, got {beta}")
    s, t = result.s, result.t
    n = 1 << level
    nodes = s + (t - s) * np.arange(n + 1) / n
    fine = [sew(germ, nodes[i], nodes[i + 1], levels=max(sub_levels, 3)).value
            for i in range(n)]
    cumulative = [np.zeros_like(np.asarray(fine[0], dtype=float))]
    for piece in fine:
        cumulative.append(cumulative[-1] + piece)
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n + 1):
            ia = cumulative[j] - cumulative[i]
            rem = float(np.linalg.norm(np.atleast_1d(ia - germ(nodes[i], nodes[j]))))
            ratio = rem / (nodes[j] - nodes[i]) ** beta
            worst = max(worst, ratio)
    return worst


@dataclass(frozen=True)
class SewingDiagnostics:
    """Fitted window exponents of the defect and its adapted projection."""

    defect_exponent: float
    defect_half_width: float
    defect_degenerate: bool
    projected_exponent: float
    projected_half_width: float
    projected_degenerate: bool
    n_paths: int
    window_widths: tuple[float, ...]
    defect_norms: tuple[float, ...]
    projected_means: tuple[float, ...]


def stochastic_sewing_diagnostic(germs, windows, m: float = 2.0,
                                 weights=None) -> SewingDiagnostics:
    """Window-exponent fits for an ensemble of germs.

    germs: sequence of Germ, one per sample path.  windows: (s, t) pairs,
    each split at its midpoint to form the defect.  The defect norm curve
    is the empirical L^m norm of |delta A| per window; the projection curve
    is the largest |mean(weight * delta A)| over the weight dictionary,
    where each weight is a function (path_index, s) -> float computed from
    the path up to s.  Both curves are fitted against log2 of the window
    width.
    """
    germs = list(germs)
    if len(germs) < 1000:
        raise InsufficientDataError(
            f"need at least 1000 sample paths, got {len(germs)}")
    if m < 2.0:
        raise ParameterError(f"m must be >= 2, got {m}")
    windows = [(float(s), float(t)) for s, t in windows]
    if len(windows) < 3:
        raise ParameterError("need at least 3 windows to fit exponents")
    if weights is None:
        weights = [lambda i, s: 1.0]

    widths, defect_norms, projected = [], [], []
    for s, t in windows:
        u = 0.5 * (s + t)
        deltas = [np.atleast_1d(delta(g, s, u, t)) for g in germs]
        d_vals = np.array([float(np.linalg.norm(dv)) for dv in deltas])
        signed = np.array([float(np.sum(dv)) for dv in deltas])
        widths.append(t - s)
        defect_norms.append(float(np.mean(d_vals ** m) ** (1.0 / m)))
        best = 0.0
        for w_fn in weights:
            w = np.array([float(w_fn(i, s)) for i in range(len(germs))])
            best = max(best, abs(float(np.mean(w * signed))))
        projected.append(best)

    widths_arr = np.asarray(widths)
    scale = max(max(defect_norms), max(projected), 0.0)
    floor = 1e-13 * max(scale, 1.0)

    def fit(values):
        vals = np.asarray(values)
        keep = vals > floor
        if keep.sum() == 0:
            return math.nan, math.nan, True
        if keep.sum() < 3:
            raise InsufficientDataError("fewer than 3 windows above the noise floor")
        slope, _, se = _ols_slope(np.log2(widths_arr[keep]), np.log2(vals[keep]))
        return slope, 2.0 * se, False

    d_exp, d_hw, d_degen = fit(defect_norms)
    p_exp, p_hw, p_degen = fit(projected)
    return SewingDiagnostics(d_exp, d_hw, d_degen, p_exp, p_hw, p_degen,
                             len(germs), tuple(widths),
                             tuple(defect_norms), tuple(projected))


def nonlinear_young_solve(averaged_drift, y0, grid, blowup_bound: float = 1.0e6) -> np.ndarray:
    """One-step scheme X_{k+1} = X_k + (T b)(t_k, t_{k+1}, X_k).

    averaged_drift(s, t, x) must return the averaged drift increment over
    [s, t] at state x, an array of the state dimension.  Raises BlowUpError
    at the first step whose state exceeds blowup_bound or goes non-finite.
    """
    x = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    times = grid.times
    out = np.empty((x.size, grid.steps + 1))
    out[:, 0] = x
    for k in range(grid.steps):
        inc = np.asarray(averaged_drift(times[k], times[k + 1], x), dtype=float)
        if inc.shape != x.shape:
            raise ParameterError(
                f"averaged drift returned shape {inc.shape}, expected {x.shape}")
        x = x + inc
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > blowup_bound:
            raise BlowUpError(
                f"solution left the stability region at step {k + 1} "
                f"(t={times[k + 1]:.6g})", index=k + 1)
        out[:, k + 1] = x
    return out
