"""Quenched Monte Carlo for multiplicative SDEs with a frozen rough perturbation.

One fractional path w is drawn once and held fixed; M independent Brownian
drivers B^(i) then generate solution paths of

    X_{k+1} = X_k + sigma(X_k - w(t_k)) (B(t_{k+1}) - B(t_k)),

all sharing that single w.  Driver randomness is counter-based per
(base_seed, path_index, component), so ensembles are reproducible and
order-independent, and mollification sweeps reuse exactly the same drivers
(common random numbers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, ParameterError
from .fields import MatrixField, MollifierSpec, lp_norm, mollify
from .occupation import SpatialGrid
from .paths import BmPath, FbmPath, TimeGrid, generate_bm_increments

BLOWUP_BOUND = 1.0e6
BLOWUP_ABORT_FRACTION = 0.01
# Margin of the mollification lattice beyond the support and the largest radius.
LATTICE_PAD = 0.5


@dataclass(frozen=True, eq=False)
class QuenchedScenario:
    """Frozen perturbation path, coefficient field and ensemble layout."""

    fbm: FbmPath
    sigma: MatrixField
    x0: np.ndarray
    eps_seq: tuple[float, ...]
    ensemble_size: int
    base_seed: int
    p: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "x0",
                           np.atleast_1d(np.asarray(self.x0, dtype=float)))
        if self.x0.shape != (self.sigma.d,):
            raise ParameterError(
                f"x0 has shape {self.x0.shape}, field wants ({self.sigma.d},)")
        if self.fbm.dimension != self.sigma.d:
            raise ParameterError("perturbation path and field dimensions differ")
        if self.ensemble_size < 1:
            raise ParameterError("ensemble_size must be >= 1")
        eps = tuple(float(e) for e in self.eps_seq)
        if any(e <= 0.0 for e in eps):
            raise ParameterError("mollification radii must be positive")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise ParameterError(f"eps_seq must be strictly decreasing, got {eps}")
        object.__setattr__(self, "eps_seq", eps)

    @property
    def grid(self) -> TimeGrid:
        return self.fbm.grid

    @property
    def dimension(self) -> int:
        return self.sigma.d

    @property
    def driver_dimension(self) -> int:
        return self.sigma.n


def _euler_batch(sigma: MatrixField, w_values: np.ndarray, db: np.ndarray,
                 x0: np.ndarray, blowup_bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized scheme over a batch of drivers.

    w_values has shape (d, steps + 1) and db (paths, n, steps); returns
    values (paths, d, steps + 1) and the first blow-up step per path (-1
    when none).  Paths are frozen at their last finite state after blowing
    up so ensemble statistics can simply mask them out.
    """
    n_paths, _, steps = db.shape
    d = x0.size
    values = np.empty((n_paths, d, steps + 1))
    values[:, :, 0] = x0
    x = np.broadcast_to(x0, (n_paths, d)).copy()
    blowup = np.full(n_paths, -1, dtype=np.int64)
    alive = np.ones(n_paths, dtype=bool)
    for k in range(steps):
        mats = sigma(x - w_values[:, k])
        step = np.einsum("pij,pj->pi", mats, db[:, :, k])
        x = np.where(alive[:, None], x + step, x)
        bad = alive & (~np.isfinite(x).all(axis=1) | (np.abs(x).max(axis=1) > blowup_bound))
        if np.any(bad):
            x = np.where(bad[:, None], values[:, :, k], x)
            blowup[bad] = k + 1
            alive &= ~bad
        values[:, :, k + 1] = x
    return values, blowup


def euler_maruyama(sigma: MatrixField, fbm: FbmPath, bm: BmPath, x0,
                   blowup_bound: float = BLOWUP_BOUND) -> tuple[np.ndarray, int]:
    """Single-path scheme; returns (values (d, steps+1), blowup step or -1).

    Adapted by construction: the state at t_k depends on driver increments
    before t_k only, and identical drivers up to a step yield bit-identical
    states up to that step.
    """
    if fbm.grid != bm.grid:
        raise ParameterError("perturbation and driver live on different time grids")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (sigma.d,):
        raise ParameterError(f"x0 has shape {x0.shape}, field wants ({sigma.d},)")
    if bm.dimension != sigma.n:
        raise ParameterError("driver dimension does not match the field")
    values, blowup = _euler_batch(sigma, fbm.values, bm.increments[None],
                                  x0, blowup_bound)
    return values[0], int(blowup[0])


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Solution paths, their drivers and blow-up bookkeeping."""

    scenario: QuenchedScenario
    epsilon: float | None
    values: np.ndarray = field(repr=False)       # (paths, d, steps + 1)
    driver_increments: np.ndarray = field(repr=False)  # (paths, n, steps)
    blowup_steps: np.ndarray = field(repr=False)  # (paths,), -1 = none

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def ok_mask(self) -> np.ndarray:
        return self.blowup_steps < 0

    @property
    def blowup_count(self) -> int:
        return int((~self.ok_mask).sum())

    def increments(self, k0: int, k1: int) -> np.ndarray:
        """X(t_k1) - X(t_k0) for surviving paths, shape (ok_paths, d)."""
        vals = self.values[self.ok_mask]
        return vals[:, :, k1] - vals[:, :, k0]

    def moment_table(self, m: float, max_level: int = 6) -> list[dict]:
        """Empirical E|X(t)-X(s)|^m with stderr over the dyadic window set."""
        rows = []
        grid = self.scenario.grid
        for k0, k1 in grid.dyadic_windows(max_level):
            inc = self.increments(k0, k1)
            mags = np.linalg.norm(inc, axis=1) ** m
            mean = float(mags.mean())
            stderr = float(mags.std(ddof=1) / math.sqrt(mags.size)) if mags.size > 1 else 0.0
            rows.append({"s": k0 * grid.dt, "t": k1 * grid.dt, "m": m,
                         "moment": mean, "stderr": stderr})
        return rows


def solve_ensemble(scenario: QuenchedScenario, sigma_field: MatrixField | None = None,
                   *, epsilon: float | None = None,
                   blowup_bound: float = BLOWUP_BOUND,
                   abort_fraction: float = BLOWUP_ABORT_FRACTION) -> Ensemble:
    """Run the scheme for every driver of the scenario.

    sigma_field overrides the scenario field (callers pass a mollified
    field here); drivers are regenerated from (base_seed, path_index), so
    repeated calls see identical randomness.  Each path's row depends on
    its own drivers only, so any split of the batch gives the same bits.
    """
    sigma = sigma_field if sigma_field is not None else scenario.sigma
    db = generate_bm_increments(sigma.n, scenario.grid, scenario.base_seed,
                                scenario.ensemble_size)
    values, blowup = _euler_batch(sigma, scenario.fbm.values, db, scenario.x0,
                                  blowup_bound)
    ens = Ensemble(scenario, epsilon, values, db, blowup)
    if ens.blowup_count > abort_fraction * ens.n_paths:
        raise BlowUpError(
            f"{ens.blowup_count} of {ens.n_paths} paths blew up "
            f"(abort threshold {abort_fraction:.1%})", count=ens.blowup_count)
    return ens


def family_grid(scenario: QuenchedScenario) -> SpatialGrid:
    """The lattice mollified_family puts every radius on; no values yet.

    The grid resolves the smallest radius (h = eps_min / 4) and covers the
    field support plus the largest radius plus LATTICE_PAD.
    """
    eps_min = min(scenario.eps_seq)
    h = eps_min / 4.0
    radius = scenario.sigma.support_radius
    if radius is None:
        radius = 1.0 / eps_min  # worst-case support of the cut-off field
    extent = radius + max(scenario.eps_seq) + LATTICE_PAD
    half_bins = int(math.ceil(extent / h))
    return SpatialGrid((-half_bins * h,) * scenario.dimension, h,
                       (2 * half_bins,) * scenario.dimension)


def mollified_family(scenario: QuenchedScenario
                     ) -> tuple[SpatialGrid, dict[float, MatrixField]]:
    """Mollified fields for every radius in the scenario, on family_grid."""
    grid = family_grid(scenario)
    fields = {eps: mollify(scenario.sigma, MollifierSpec(eps), grid)
              for eps in scenario.eps_seq}
    return grid, fields


@dataclass(frozen=True, eq=False)
class MollifiedCauchyReport:
    """Terminal integrals along one reference process across the radius sweep."""

    eps_seq: tuple[float, ...]
    terminal_integrals: np.ndarray = field(repr=False)  # (n_eps, ok_paths, d)
    consecutive_diffs: tuple[float, ...]   # L^(m/2) norms between radii
    sigma_gaps: tuple[float, ...]          # L^p gaps between mollified fields
    m: float
    p: float

    @property
    def tracking_ratios(self) -> tuple[float, ...]:
        return tuple(d / g if g > 0 else math.inf
                     for d, g in zip(self.consecutive_diffs, self.sigma_gaps))


def mollified_integral_sequence(scenario: QuenchedScenario, *, m: float = 4.0,
                                reference: Ensemble | None = None,
                                fields: dict[float, MatrixField] | None = None,
                                lp_grid: SpatialGrid | None = None
                                ) -> MollifiedCauchyReport:
    """Integral sums of each mollified field along one fixed reference process.

    The reference solution is computed at the smallest radius (the best
    resolved field), then each sigma_eps is integrated against the same
    drivers along that same process.  Differences between consecutive radii
    then isolate the field gap, which the report pairs with the L^p
    distance of the fields themselves.
    """
    if fields is None or lp_grid is None:
        lp_grid, fields = mollified_family(scenario)
    eps_seq = scenario.eps_seq
    eps_min = min(eps_seq)
    if reference is None:
        reference = solve_ensemble(scenario, fields[eps_min], epsilon=eps_min)
    ok = reference.ok_mask
    x_nodes = reference.values[ok]           # (paths, d, steps + 1)
    db = reference.driver_increments[ok]     # (paths, n, steps)
    w_nodes = scenario.fbm.values            # (d, steps + 1)
    steps = scenario.grid.steps

    terminals = np.zeros((len(eps_seq), x_nodes.shape[0], scenario.dimension))
    for e_idx, eps in enumerate(eps_seq):
        sig = fields[eps]
        acc = np.zeros((x_nodes.shape[0], scenario.dimension))
        for k in range(steps):
            mats = sig(x_nodes[:, :, k] - w_nodes[:, k])
            acc += np.einsum("pij,pj->pi", mats, db[:, :, k])
        terminals[e_idx] = acc

    half = m / 2.0
    diffs = []
    for a, b in zip(terminals[:-1], terminals[1:]):
        mags = np.linalg.norm(b - a, axis=1)
        diffs.append(float(np.mean(mags ** half) ** (1.0 / half)))
    gaps = []
    for ea, eb in zip(eps_seq[:-1], eps_seq[1:]):
        gap_field = fields[eb] - fields[ea]
        gaps.append(lp_norm(gap_field, scenario.p, lp_grid, refine_singular=False))
    return MollifiedCauchyReport(eps_seq, terminals, tuple(diffs), tuple(gaps),
                                 m, scenario.p)
