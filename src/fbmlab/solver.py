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

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, ParameterError
from .fields import (LatticeStack, MatrixField, MollifierSpec,
                     evaluate_together, lp_norm, mollify)
from .occupation import SpatialGrid
from .paths import (BmPath, FbmPath, TimeGrid, _validate_rows,
                    generate_bm_increments)

BLOWUP_BOUND = 1.0e6
BLOWUP_ABORT_FRACTION = 0.01
# Margin of the mollification lattice beyond the support and the largest radius.
LATTICE_PAD = 0.5
# walk_ensemble evaluates fields on blocks of TIME_BLOCK steps of PATH_CHUNK
# paths: large enough that numpy's per-call cost vanishes, small enough that
# a chunk's (paths, steps) row buffers stay a few MB at 10^3 steps.  On the
# 1000-path headline sweep, 128-256 steps by 64-128 paths ran equally fast;
# 64 paths held the least memory.
TIME_BLOCK = 256
PATH_CHUNK = 64


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
        # Driver stream keys fail here, before a sweep mollifies anything.
        _validate_rows(self.driver_dimension, self.base_seed, 0, self.ensemble_size)
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

    @functools.cached_property
    def driver_increments(self) -> np.ndarray:
        """The ensemble's driver increments (paths, n, steps), drawn once.

        Every solve of the scenario shares this read-only array, so a radius
        sweep sees identical noise (common random numbers) without drawing
        it again.
        """
        db = generate_bm_increments(self.driver_dimension, self.grid,
                                    self.base_seed, self.ensemble_size)
        db.flags.writeable = False
        return db


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
    blowup_steps: np.ndarray = field(repr=False)  # (paths,), -1 = none

    @property
    def driver_increments(self) -> np.ndarray:
        """The scenario's drivers (paths, n, steps), shared by all its solves."""
        return self.scenario.driver_increments

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def ok_mask(self) -> np.ndarray:
        return self.blowup_steps < 0

    @property
    def blowup_count(self) -> int:
        return int((~self.ok_mask).sum())

    def window_increments(self, windows: list[tuple[int, int]]):
        """Yield X(t_k1) - X(t_k0) of the surviving paths, (ok_paths, d), per window.

        Only the windows' end-point columns of the surviving paths are
        gathered, once for all windows.
        """
        nodes = sorted({k for window in windows for k in window})
        column = {k: j for j, k in enumerate(nodes)}
        ends = self.values[:, :, nodes][self.ok_mask]
        for k0, k1 in windows:
            yield ends[:, :, column[k1]] - ends[:, :, column[k0]]

    def moment_table(self, m: float, max_level: int = 6) -> list[dict]:
        """Empirical E|X(t)-X(s)|^m with stderr over the dyadic window set."""
        rows = []
        grid = self.scenario.grid
        windows = grid.dyadic_windows(max_level)
        for (k0, k1), inc in zip(windows, self.window_increments(windows)):
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
    field here); every call uses the scenario's driver_increments, so
    repeated calls see identical randomness.  Each path's row depends on
    its own drivers only, so any split of the batch gives the same bits.
    """
    sigma = sigma_field if sigma_field is not None else scenario.sigma
    if (sigma.d, sigma.n) != (scenario.dimension, scenario.driver_dimension):
        raise ParameterError("field shape differs from the scenario's")
    db = scenario.driver_increments
    values, blowup = _euler_batch(sigma, scenario.fbm.values, db, scenario.x0,
                                  blowup_bound)
    ens = Ensemble(scenario, epsilon, values, blowup)
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
    """Mollified fields for every radius in the scenario, on family_grid.

    The fields are the members of one LatticeStack, so evaluate_together
    interpolates all radii with one call.
    """
    grid = family_grid(scenario)
    sigma = scenario.sigma
    table = np.empty(grid.shape + (len(scenario.eps_seq), sigma.d, sigma.n))
    radii, labels = [], []
    for e, eps in enumerate(scenario.eps_seq):
        fld = mollify(sigma, MollifierSpec(eps), grid)
        table[..., e, :, :] = fld.grid_values
        radii.append(fld.support_radius)
        labels.append(fld.label)
    stack = LatticeStack(grid, table, radii)
    fields = {eps: stack.member(e, p_tag=sigma.p_tag, label=labels[e])
              for e, eps in enumerate(scenario.eps_seq)}
    return grid, fields


@dataclass(frozen=True, eq=False)
class PathSums:
    """Per-path sums of one walk_ensemble pass over the surviving paths.

    Rows follow the ensemble's ok_mask.  With X the solution, w the frozen
    path, z its quantization, j = coordinate and i = driver_coordinate:

      ito[e]           sum_{k<k_end} drift[e](X_k - w_k) dB_k, (paths, d)
      row_sq[e]        dt sum_{k<k_end} |row_j snap[e](X_k - z_k)|^2
      mixed[e]         dt sum_{k<k_end} (sigma_raw snap[e]^T)_jj (X_k - z_k)
      quad_comp[w, e]  dt sum_{k in window w} |row_j drift[e](X_k - w_k)|^2
      cross_comp[w, e] dt sum_{k in window w} drift[e]_ji (X_k - w_k)
      driver_nodes     B(t_k) at the window end points, (paths, n, nodes)

    ito and the compensators add one step at a time, row_sq and mixed are
    numpy row sums of a (paths, steps) buffer: the summation orders of the
    per-check loops they replace, so results match those bit for bit.
    """

    k_end: int
    coordinate: int
    driver_coordinate: int
    windows: tuple[tuple[int, int], ...]
    nodes: tuple[int, ...]
    ito: np.ndarray = field(repr=False)           # (drift, paths, d)
    row_sq: np.ndarray = field(repr=False)        # (snap, paths)
    mixed: np.ndarray = field(repr=False)         # (snap, paths) with sigma_raw
    quad_comp: np.ndarray = field(repr=False)     # (windows, drift, paths)
    cross_comp: np.ndarray = field(repr=False)    # (windows, drift, paths)
    driver_nodes: np.ndarray = field(repr=False)  # (paths, n, nodes)


def _carry(acc: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """acc + terms[:, 0] + terms[:, 1] + ..., added one step at a time."""
    return np.cumsum(np.concatenate([acc[:, None], terms], axis=1), axis=1)[:, -1]


def walk_ensemble(ensemble: Ensemble, k_end: int, *,
                  drift: Sequence[MatrixField] = (),
                  snap: Sequence[MatrixField] = (),
                  snapped: np.ndarray | None = None,
                  sigma_raw: MatrixField | None = None,
                  windows: Sequence[tuple[int, int]] = (),
                  coordinate: int = 0, driver_coordinate: int = 0) -> PathSums:
    """Every per-path sum of the identity checks in one pass over the paths.

    drift fields are evaluated at X_k - w_k (Ito sums, and the martingale
    compensators over windows given as node pairs), snap fields at
    X_k - snapped[k] (squared-row sums, and mixed sums with sigma_raw when
    given).  Nothing here is recursive, so fields are evaluated on blocks
    of TIME_BLOCK steps of PATH_CHUNK paths, each field list in one
    evaluate_together call per block.
    """
    scen = ensemble.scenario
    dt = scen.grid.dt
    w = scen.fbm.values
    j, i = coordinate, driver_coordinate
    windows = tuple((int(a), int(b)) for a, b in windows)
    nodes = tuple(sorted({k for pair in windows for k in pair}))
    k_run = max([k_end] + [b for _a, b in windows])
    if snap and (snapped is None or snapped.shape[0] < k_end):
        raise ParameterError(f"need {k_end} snapped positions for the snap fields")
    rows = np.flatnonzero(ensemble.ok_mask)
    n_drift, n_snap, n_win = len(drift), len(snap), len(windows)
    n_mixed = n_snap if sigma_raw is not None else 0
    ito = np.empty((n_drift, rows.size, scen.dimension))
    row_sq = np.empty((n_snap, rows.size))
    mixed = np.empty((n_mixed, rows.size))
    quad_comp = np.empty((n_win, n_drift, rows.size))
    cross_comp = np.empty((n_win, n_drift, rows.size))
    driver_nodes = np.empty((rows.size, scen.driver_dimension, len(nodes)))
    for r0 in range(0, rows.size, PATH_CHUNK):
        chunk = rows[r0:r0 + PATH_CHUNK]
        part = slice(r0, r0 + chunk.size)
        x = ensemble.values[chunk]
        db = ensemble.driver_increments[chunk]
        acc_ito = np.zeros((chunk.size, n_drift, scen.dimension))
        acc_quad = np.zeros((n_win, chunk.size, n_drift))
        acc_cross = np.zeros((n_win, chunk.size, n_drift))
        sq_rows = np.empty((n_snap, chunk.size, k_end))
        mixed_rows = np.empty((n_mixed, chunk.size, k_end))
        for k0 in range(0, k_run, TIME_BLOCK):
            k1 = min(k0 + TIME_BLOCK, k_run)
            kk = max(min(k1, k_end) - k0, 0)  # steps of this block before k_end
            xb = x[:, :, k0:k1].transpose(0, 2, 1)
            if n_drift:
                vals = evaluate_together(drift, xb - w[:, k0:k1].T)
                if kk:
                    inc = np.einsum("pkeij,pkj->pkei", vals[:, :kk],
                                    db[:, :, k0:k0 + kk].transpose(0, 2, 1))
                    acc_ito = _carry(acc_ito, inc)
                if n_win:
                    sq = np.sum(vals[..., j, :] ** 2, axis=-1)
                    entry = vals[..., j, i]
                    for wi, (ks, kt) in enumerate(windows):
                        a, b = max(ks, k0) - k0, min(kt, k1) - k0
                        if a < b:
                            acc_quad[wi] = _carry(acc_quad[wi], sq[:, a:b])
                            acc_cross[wi] = _carry(acc_cross[wi], entry[:, a:b])
            if n_snap and kk:
                pts = xb[:, :kk] - snapped[k0:k0 + kk]
                vals = evaluate_together(snap, pts)
                sq_rows[:, :, k0:k0 + kk] = np.moveaxis(
                    np.sum(vals[..., j, :] ** 2, axis=-1), -1, 0)
                if n_mixed:
                    raw = sigma_raw(pts)[..., None, j, :]
                    mixed_rows[:, :, k0:k0 + kk] = np.moveaxis(
                        np.sum(raw * vals[..., j, :], axis=-1), -1, 0)
        ito[:, part] = acc_ito.transpose(1, 0, 2)
        row_sq[:, part] = sq_rows.sum(axis=2) * dt
        mixed[:, part] = mixed_rows.sum(axis=2) * dt
        quad_comp[:, :, part] = acc_quad.transpose(0, 2, 1) * dt
        cross_comp[:, :, part] = acc_cross.transpose(0, 2, 1) * dt
        if nodes:
            b_run = np.cumsum(db, axis=2)
            for col, k in enumerate(nodes):
                driver_nodes[part, :, col] = b_run[:, :, k - 1] if k else 0.0
    return PathSums(k_end, j, driver_coordinate, windows, nodes, ito, row_sq,
                    mixed, quad_comp, cross_comp, driver_nodes)


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


def cauchy_report(scenario: QuenchedScenario, terminals: np.ndarray,
                  fields: dict[float, MatrixField], lp_grid: SpatialGrid,
                  m: float) -> MollifiedCauchyReport:
    """Consecutive-radius gaps of the terminal Ito integrals (n_eps, paths, d).

    Pairs the L^(m/2) distance of consecutive terminals with the L^p
    distance of the fields themselves.
    """
    eps_seq = scenario.eps_seq
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
    distance of the fields themselves.  fields and lp_grid come together
    (as mollified_family returns them) or not at all.
    """
    if (fields is None) != (lp_grid is None):
        raise ParameterError("pass fields and lp_grid together, or neither")
    if fields is None:
        lp_grid, fields = mollified_family(scenario)
    eps_min = min(scenario.eps_seq)
    if reference is None:
        reference = solve_ensemble(scenario, fields[eps_min], epsilon=eps_min)
    sums = walk_ensemble(reference, scenario.grid.steps,
                         drift=[fields[eps] for eps in scenario.eps_seq])
    return cauchy_report(scenario, sums.ito, fields, lp_grid, m)
