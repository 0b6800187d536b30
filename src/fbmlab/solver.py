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
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BlowUpError, ParameterError
from .fields import (LatticeStack, MatrixField, MollifierSpec,
                     evaluate_members, evaluate_together, lp_norm, mollify)
from .occupation import SpatialGrid
from .paths import FbmPath, TimeGrid, _bm_rows, _validate_rows

BLOWUP_BOUND = 1.0e6
BLOWUP_ABORT_FRACTION = 0.01
# Finest dyadic level of Ensemble.moment_table's windows.
MOMENT_TABLE_LEVEL = 6
# Margin of the mollification lattice beyond the support and the largest radius.
LATTICE_PAD = 0.5
# walk_ensemble evaluates fields on blocks of whole rows, max(1,
# WALK_POINTS // steps) paths each: large enough that numpy's per-call cost
# vanishes, small enough that a block's buffers stay a few MB.
WALK_POINTS = 64 * 256
# _euler_batch stages its drivers, perturbation and states in blocks of
# this many steps: a block of the 1000-path five-radius sweep is 2.6 MB.
_EULER_BLOCK = 64


def _stderr(samples: np.ndarray) -> float:
    """Standard error of the mean of samples; 0.0 below two samples."""
    if samples.size < 2:
        return 0.0
    return float(samples.std(ddof=1) / math.sqrt(samples.size))


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
    first_path: int = 0

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
        if not 0.0 < self.p < math.inf:  # NaN too
            raise ParameterError(f"p must be positive and finite, got {self.p}")
        # Driver stream keys fail here, before a sweep mollifies anything.
        _validate_rows(self.driver_dimension, self.base_seed, self.first_path,
                       self.ensemble_size)
        eps = tuple(float(e) for e in self.eps_seq)
        if not eps:
            raise ParameterError("eps_seq must list at least one radius")
        if not all(0.0 < e < math.inf for e in eps):
            raise ParameterError(f"mollification radii must be positive and finite, got {eps}")
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

    @property
    def quant_grid(self) -> SpatialGrid:
        """The quantization grid of the frozen path: bins of width dt over its range."""
        return SpatialGrid.cover(self.fbm.values.T, self.grid.dt)

    @functools.cached_property
    def driver_increments(self) -> np.ndarray:
        """Driver rows first_path .. first_path + ensemble_size - 1, (paths,
        n, steps), drawn once and read-only: every solve_fields call sees
        the same noise (common random numbers).  fbmlab solve and verify
        solve a scenario per chunk of rows, each drawing only its own.
        """
        db = _bm_rows(self.driver_dimension, self.grid, self.base_seed,
                      self.first_path, self.ensemble_size)
        db.flags.writeable = False
        return db


def _euler_batch(fields: Sequence[MatrixField], w_values: np.ndarray,
                 db: np.ndarray, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scheme for k fields over one batch of drivers, advanced together.

    Field e moves its own state X^e, and each step reads every field at
    its own X^e_k - w_k with one call of one evaluate_members function.
    w_values has shape (d, steps + 1) and db (paths, n, steps); returns
    values (k, paths, d, steps + 1) and the first blow-up step per field
    and path (k, paths; -1 when none), against BLOWUP_BOUND as it reads at
    call time.  Paths are frozen at their last finite state after blowing
    up so ensemble statistics can simply mask them out.  Slice e depends on
    field e alone: it is bit-equal to the scheme for [fields[e]].

    Every state is X_k + step, one add per step, so staging changes no
    bit.  Drivers, w and states are staged time-major in blocks of
    _EULER_BLOCK steps, so each step reads and writes contiguous rows and
    values and db are copied once per block.  One scalar test per step
    shows that no path left the box; the per-path flags are built only
    when it fails, and frozen paths are masked only once one exists.
    """
    n_paths, _, steps = db.shape
    shape = (len(fields), n_paths, x0.size)
    values = np.empty(shape + (steps + 1,))
    values[..., 0] = x0
    x = np.broadcast_to(x0, shape).copy()
    blowup = np.full(shape[:2], -1, dtype=np.int64)
    alive = None  # every path, until one blows up
    evaluate = evaluate_members(fields)
    states = np.empty((min(_EULER_BLOCK, steps),) + shape)
    for k0 in range(0, steps, _EULER_BLOCK):
        k1 = min(k0 + _EULER_BLOCK, steps)
        db_block = np.ascontiguousarray(db[:, :, k0:k1].transpose(2, 0, 1))
        w_block = np.ascontiguousarray(w_values[:, k0:k1].T)
        for j in range(k1 - k0):
            step = np.einsum("epij,pj->epi", evaluate(x - w_block[j]), db_block[j])
            moved = x + step if alive is None else np.where(alive[..., None], x + step, x)
            if not np.abs(moved).max() <= BLOWUP_BOUND:
                bad = ~np.isfinite(moved).all(axis=-1) | (np.abs(moved).max(axis=-1) > BLOWUP_BOUND)
                if alive is not None:
                    bad &= alive
                if np.any(bad):
                    moved = np.where(bad[..., None], x, moved)
                    blowup[bad] = k0 + j + 1
                    alive = ~bad if alive is None else alive & ~bad
            x = states[j] = moved
        values[..., k0 + 1:k1 + 1] = np.moveaxis(states[:k1 - k0], 0, -1)
    return values, blowup


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Solution paths at the grid nodes `nodes`, one per column of values
    (range(steps + 1) for a whole solve; a sweep keeps those its reports
    read), and blow-up bookkeeping.  The drivers stay on the scenario."""

    scenario: QuenchedScenario
    epsilon: float | None
    values: np.ndarray = field(repr=False)       # (paths, d, len(nodes))
    blowup_steps: np.ndarray = field(repr=False)  # (paths,), -1 = none
    nodes: Sequence[int] = field(repr=False)

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def ok_mask(self) -> np.ndarray:
        return self.blowup_steps < 0

    @property
    def blowup_count(self) -> int:
        return int((~self.ok_mask).sum())

    def at_nodes(self, ks) -> np.ndarray:
        """X(t_k) of every path for k in ks, (paths, d, len(ks))."""
        return self.values[:, :, [self.nodes.index(k) for k in ks]]

    def window_increments(self, windows: list[tuple[int, int]]):
        """Yield X(t_k1) - X(t_k0) of the surviving paths, (ok_paths, d), per window.

        Only the windows' end-point columns of the surviving paths are
        gathered, once for all windows.
        """
        nodes = sorted({k for window in windows for k in window})
        column = {k: j for j, k in enumerate(nodes)}
        ends = self.at_nodes(nodes)[self.ok_mask]
        for k0, k1 in windows:
            yield ends[:, :, column[k1]] - ends[:, :, column[k0]]

    def moment_table(self, m: float) -> list[dict]:
        """Empirical E|X(t)-X(s)|^m with stderr over the dyadic windows down
        to level MOMENT_TABLE_LEVEL, read at call time."""
        rows = []
        grid = self.scenario.grid
        windows = grid.dyadic_windows(MOMENT_TABLE_LEVEL)
        for (k0, k1), inc in zip(windows, self.window_increments(windows)):
            mags = np.linalg.norm(inc, axis=1) ** m
            rows.append({"s": k0 * grid.dt, "t": k1 * grid.dt, "m": m,
                         "moment": float(mags.mean()), "stderr": _stderr(mags)})
        return rows


def solve_fields(scenario: QuenchedScenario,
                 fields: Sequence[MatrixField]) -> list[Ensemble]:
    """One ensemble per field over the scenario's drivers, from one recursion.

    A path blows up when a state leaves the box |x| <= BLOWUP_BOUND.  The
    ensembles carry no radius; the sweep sets it with dataclasses.replace.
    Each path's row depends on its own drivers only, so any split of the
    rows gives the same bits.
    """
    if any((f.d, f.n) != (scenario.dimension, scenario.driver_dimension)
           for f in fields):
        raise ParameterError("field shape differs from the scenario's")
    values, blowup = _euler_batch(fields, scenario.fbm.values,
                                  scenario.driver_increments, scenario.x0)
    nodes = range(scenario.grid.steps + 1)
    return [Ensemble(scenario, None, v, b, nodes) for v, b in zip(values, blowup)]


def _abort_on_blowups(ens: Ensemble) -> None:
    """BlowUpError when more than BLOWUP_ABORT_FRACTION of the paths blew up."""
    if ens.blowup_count > BLOWUP_ABORT_FRACTION * ens.n_paths:
        radius = "" if ens.epsilon is None else f" at epsilon={ens.epsilon}"
        raise BlowUpError(
            f"{ens.blowup_count} of {ens.n_paths} paths blew up{radius} "
            f"(abort threshold {BLOWUP_ABORT_FRACTION:.1%})", count=ens.blowup_count)


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
    if not math.isfinite(extent / h):
        raise ParameterError(f"bin width {h} gives a lattice with infinitely many bins")
    half_bins = int(math.ceil(extent / h))
    return SpatialGrid((-half_bins * h,) * scenario.dimension, h,
                       (2 * half_bins,) * scenario.dimension)


def mollified_family(scenario: QuenchedScenario) -> dict[float, MatrixField]:
    """Mollified fields for every radius in the scenario, on family_grid.

    The fields are the members of one LatticeStack, so evaluate_together
    interpolates all radii with one call.  Each radius's samples go
    straight into its own contiguous slice of the member-major table.
    """
    grid = family_grid(scenario)
    sigma = scenario.sigma
    table = np.empty((len(scenario.eps_seq),) + grid.shape + (sigma.d, sigma.n))
    radii, labels = [], []
    for e, eps in enumerate(scenario.eps_seq):
        fld = mollify(sigma, MollifierSpec(eps), grid)
        table[e] = fld.grid_values
        radii.append(fld.support_radius)
        labels.append(fld.label)
    stack = LatticeStack(grid, table, radii)
    return {eps: stack.member(e, label=labels[e])
            for e, eps in enumerate(scenario.eps_seq)}


@dataclass(frozen=True, eq=False)
class PathSums:
    """Per-path sums of one walk_ensemble pass over a chunk's paths.

    Rows are the chunk's paths, blown-up ones included (frozen at finite
    states); the report builders select each ensemble's survivors by its
    ok_mask.  With f the walk's fields, X^e the paths f[e] solved, X those
    of the reference f[own], w the frozen path, z its quantization and
    sigma the scenario's unmollified field, summed over the steps k of
    the whole horizon:

      ito[e]         sum_k f[e](X_k - w_k) dB_k, (paths, d)
      row_sq[e]      dt sum_k |row_0 f[e](X^e_k - z_k)|^2
      mixed[e]       dt sum_k (sigma f[e]^T)_00 (X_k - z_k)
      quad_comp[w]   dt sum_{k in window w} |row_0 f[own](X_k - w_k)|^2
      cross_comp[w]  dt sum_{k in window w} f[own]_00 (X_k - w_k)
      driver_nodes   B(t_k) at the window end points, (paths, n, nodes)

    ito and the compensators add one step at a time from 0.0 (_carry:
    windows that share a start read one running sum), row_sq and mixed are
    numpy row sums of a contiguous (paths, steps) buffer of whole rows: the
    summation orders of the per-check loops they replace, so each row
    matches those bit for bit whatever the walk's block of paths.
    """

    windows: tuple[tuple[int, int], ...]
    nodes: tuple[int, ...]
    ito: np.ndarray = field(repr=False)           # (fields, paths, d)
    row_sq: np.ndarray = field(repr=False)        # (fields, paths)
    mixed: np.ndarray = field(repr=False)         # (fields, paths)
    quad_comp: np.ndarray = field(repr=False)     # (windows, paths)
    cross_comp: np.ndarray = field(repr=False)    # (windows, paths)
    driver_nodes: np.ndarray = field(repr=False)  # (paths, n, nodes)

    @staticmethod
    def join(parts: Sequence["PathSums"]) -> "PathSums":
        """The sums of consecutive row chunks as one walk over all their rows."""
        def rows(name, axis):
            return np.concatenate([getattr(p, name) for p in parts], axis=axis)

        return replace(parts[0], ito=rows("ito", 1), row_sq=rows("row_sq", 1),
                       mixed=rows("mixed", 1), quad_comp=rows("quad_comp", 1),
                       cross_comp=rows("cross_comp", 1),
                       driver_nodes=rows("driver_nodes", 0))


def _carry(terms: np.ndarray, counts: Sequence[int]) -> list[np.ndarray]:
    """0.0 + terms[..., 0] + ... + terms[..., c - 1] for each c >= 1 in
    counts, added one step at a time along the last axis.

    One running sum over the longest count serves them all.  It starts
    at terms[..., 0], not at 0.0, which changes only the sign of a zero:
    a sum from +0.0 never ends at -0.0, so adding 0.0 to the read-out
    gives the sum from 0.0 bit for bit, NaN and inf included.
    """
    run = np.cumsum(terms[..., :max(counts)], axis=-1)
    return [run[..., c - 1] + 0.0 for c in counts]


def walk_ensemble(ensembles: Sequence[Ensemble], fields: Sequence[MatrixField],
                  snapped: np.ndarray, own: int,
                  windows: Sequence[tuple[int, int]]) -> PathSums:
    """Every per-path sum of the identity checks in one pass over a chunk.

    ensembles[e] holds the paths fields[e] solved over one scenario's
    drivers, at every grid node, and ensembles[own] is the reference,
    whose scenario gives the drivers; windows are node pairs
    and snapped the quantized perturbation z (PathSums).  The walk covers
    the whole horizon on coordinate 0.  Nothing here is recursive, so it
    goes through every row in blocks of max(1, WALK_POINTS // steps) whole
    rows.  Each block first reads every other field along its own paths,
    one call each, then every field along the reference paths, in one
    evaluate_together call per point set; the (fields, paths, steps, ...)
    values are summed as they come, over contiguous rows of steps.
    """
    if len(ensembles) != len(fields):
        raise ParameterError(f"{len(ensembles)} ensembles for {len(fields)} fields")
    if own not in range(len(fields)):
        raise ParameterError(f"own field {own} is not one of the {len(fields)} walked")
    reference = ensembles[own]
    n_paths = reference.n_paths
    if any(ens.n_paths != n_paths for ens in ensembles):
        raise ParameterError("the ensembles hold different numbers of paths")
    scen = reference.scenario
    steps, dt = scen.grid.steps, scen.grid.dt
    if any(list(ens.nodes) != list(range(steps + 1)) for ens in ensembles):
        raise ParameterError("the walk needs ensembles that hold every grid node")
    if snapped.shape[0] < steps:
        raise ParameterError(f"need {steps} snapped positions, got {snapped.shape[0]}")
    snapped = snapped[:steps]
    w = scen.fbm.values[:, :steps].T
    windows = tuple((int(a), int(b)) for a, b in windows)
    if not all(0 <= a < b <= steps for a, b in windows):
        raise ParameterError(
            f"windows must be node pairs 0 <= k0 < k1 <= {steps}, got {windows}")
    nodes = tuple(sorted({k for pair in windows for k in pair}))
    starts: dict[int, list[tuple[int, int]]] = {}  # (window, steps) by start node
    for wi, (ks, kt) in enumerate(windows):
        starts.setdefault(ks, []).append((wi, kt - ks))
    ito = np.empty((len(fields), n_paths, scen.dimension))
    row_sq = np.empty((len(fields), n_paths))
    mixed = np.empty((len(fields), n_paths))
    quad_comp = np.empty((len(windows), n_paths))
    cross_comp = np.empty((len(windows), n_paths))
    driver_nodes = np.empty((n_paths, scen.driver_dimension, len(nodes)))
    paths = [ens.values[:, :, :steps].transpose(0, 2, 1) for ens in ensembles]
    block = max(1, WALK_POINTS // steps)
    for r0 in range(0, n_paths, block):
        part = slice(r0, r0 + block)
        for e, fld in enumerate(fields):
            if e != own:
                row = fld(paths[e][part] - snapped)[..., 0, :]
                row_sq[e, part] = np.sum(row ** 2, axis=-1).sum(axis=1) * dt
        x = paths[own][part]
        db = scen.driver_increments[part]
        vals = evaluate_together(fields, x - w)
        inc = np.einsum("epkij,pjk->epik", vals, db)
        ito[:, part] = _carry(inc, [steps])[0]
        row0 = vals[own, ..., 0, :]
        sq, entry = np.sum(row0 ** 2, axis=-1), row0[..., 0]
        for ks, group in starts.items():
            wis, counts = zip(*group)
            for wi, quad, cross in zip(wis, _carry(sq[:, ks:], counts),
                                       _carry(entry[:, ks:], counts)):
                quad_comp[wi, part] = quad * dt
                cross_comp[wi, part] = cross * dt
        pts = x - snapped
        vals = evaluate_together(fields, pts)
        row_sq[own, part] = np.sum(vals[own, ..., 0, :] ** 2, axis=-1).sum(axis=1) * dt
        raw = scen.sigma(pts)[..., 0, :]
        mixed[:, part] = np.sum(raw * vals[..., 0, :], axis=-1).sum(axis=2) * dt
        b_run = np.cumsum(db, axis=2)
        for col, k in enumerate(nodes):
            driver_nodes[part, :, col] = b_run[:, :, k - 1] if k else 0.0
    return PathSums(windows, nodes, ito, row_sq, mixed, quad_comp, cross_comp,
                    driver_nodes)


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
                  fields: dict[float, MatrixField], m: float) -> MollifiedCauchyReport:
    """Consecutive-radius gaps of the terminal Ito integrals (n_eps, paths, d).

    The terminals integrate each mollified field against the same drivers
    along one reference process, the smallest radius's solve, so the
    differences between consecutive radii isolate the field gap.  Pairs
    their L^(m/2) distance with the L^p distance of the fields themselves.
    Radii that share one field object, as every radius of the identity
    sweep does, are 0.0 apart; family_grid of an unbounded field would span
    1 / eps_min.  Other pairs are measured on family_grid by lp_norm's
    midpoint rule: a mollified field flags no singular point, so neither
    does a difference of two.
    """
    eps_seq = scenario.eps_seq
    half = m / 2.0
    diffs = []
    for a, b in zip(terminals[:-1], terminals[1:]):
        mags = np.linalg.norm(b - a, axis=1)
        diffs.append(float(np.mean(mags ** half) ** (1.0 / half)))
    gaps = tuple(0.0 if fields[ea] is fields[eb]
                 else lp_norm(fields[eb] - fields[ea], scenario.p, family_grid(scenario))
                 for ea, eb in zip(eps_seq[:-1], eps_seq[1:]))
    return MollifiedCauchyReport(eps_seq, terminals, tuple(diffs), gaps,
                                 m, scenario.p)
