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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, require_memory
from .averaging import _ols_slope
from .verdicts import SEWING_DIVERGENCE_RUN

_DIFF_FLOOR_RTOL = 1e-13


class Germ:
    """Two-parameter function of a window (s, t)."""

    def __init__(self, fn):
        self._fn = fn

    def __call__(self, s: float, t: float) -> np.ndarray:
        return np.asarray(self._fn(s, t), dtype=float)

    def level_values(self, nodes: np.ndarray) -> np.ndarray:
        """Values on the windows between consecutive nodes, one row each.

        The sewing engine asks for a whole partition level at once; a germ
        that can evaluate every window in one pass overrides this.
        """
        first = self(nodes[0], nodes[1])
        values = np.empty((nodes.size - 1,) + first.shape)
        values[0] = first
        for i in range(1, nodes.size - 1):
            values[i] = self(nodes[i], nodes[i + 1])
        return values


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

    def to_dict(self) -> dict:
        return {"s": self.s, "t": self.t,
                "level_sums": [np.asarray(v).tolist() for v in self.level_sums],
                "level_diffs": list(self.level_diffs),
                "value": np.asarray(self.value).tolist(),
                "rate": self.rate, "rate_half_width": self.rate_half_width,
                "diverged": self.diverged}


def _partition_sum(germ: Germ, s: float, t: float, level: int) -> np.ndarray:
    nodes = s + (t - s) * np.arange((1 << level) + 1) / (1 << level)
    values = np.asarray(germ.level_values(nodes), dtype=float)
    # A left fold, one addition per window, fixes the bits; np.sum adds pairwise.
    return np.array(np.add.accumulate(values, axis=0)[-1])


def sew(germ: Germ, s: float, t: float, levels: int = 10) -> SewingResult:
    """Dyadic partition sums of the germ over [s, t] with convergence diagnostics.

    levels >= SEWING_DIVERGENCE_RUN so that divergence (that many consecutive
    non-decreasing level differences above the noise floor) is observable
    at all.  The finest partition's 2**levels + 1 nodes, a scalar germ's
    values and their running sum, 24 bytes a node, must fit in physical
    memory; above 64 levels the count stops at 2**64 + 1, still too many.
    """
    if not (np.isfinite(s) and np.isfinite(t) and s < t):
        raise ParameterError(f"need finite s < t, got s={s}, t={t}")
    run = SEWING_DIVERGENCE_RUN.gate
    if levels < run:
        raise ParameterError(f"levels must be >= {run}, got {levels}")
    require_memory(24 * ((1 << min(levels, 64)) + 1), f"sewing at {levels} levels")
    sums = [_partition_sum(germ, s, t, k) for k in range(levels + 1)]
    diffs = [float(np.linalg.norm(np.atleast_1d(sums[k + 1] - sums[k])))
             for k in range(levels)]
    scale = max(float(np.max(np.abs(np.atleast_1d(v)))) for v in sums)
    floor = _DIFF_FLOOR_RTOL * max(scale, 1.0)

    live = [d > floor for d in diffs]
    diverged = any(all(live[k:k + run]) and diffs[k:k + run] == sorted(diffs[k:k + run])
                   for k in range(len(diffs) - run + 1))

    usable = [(k, d) for k, d in enumerate(diffs) if live[k]]
    rate = half_width = None
    if len(usable) >= 3 and not diverged:
        x = np.array([k for k, _ in usable], dtype=float)
        y = np.log2([d for _, d in usable])
        slope, se = _ols_slope(x, y)
        rate, half_width = -slope, 2.0 * se

    value = np.asarray(sums[-1], dtype=float)
    if (rate is not None and rate > 0.05 and half_width is not None
            and half_width < 0.5 and live[-1]):
        # Geometric tail: one Richardson step against the fitted rate.
        value = value + (sums[-1] - sums[-2]) / (2.0 ** rate - 1.0)
    return SewingResult(s, t, tuple(np.asarray(v, dtype=float) for v in sums),
                        tuple(diffs), value, rate, half_width, diverged)
