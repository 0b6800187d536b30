"""Occupation measures and local-time fields on uniform spatial grids.

The occupation measure of a path over a window [s, t) assigns to each bin
the amount of time the path spends there, estimated by left-endpoint
quadrature: every sample t_k in [s, t) deposits dt into the bin holding
w(t_k).  Dividing bin mass by the bin volume h**d gives the local-time
density estimator.  `local_time` is the one function that bins a path; its
OccupationMeasure carries both the mass and the density view.

Bins store integer visit counts, so window additivity of measures and
local-time fields holds exactly at bit level, not just approximately.

Grids are half-offset: bin centers sit at lower + (i + 0.5) * h, and the
constructor rejects grids that would place a center exactly at the
coordinate origin, because singular coefficient fields are evaluated at
bin centers downstream.  Interpolating between them is fields.py's work.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, require_memory

_ORIGIN_RTOL = 1e-9
# Bin widths from the origin at which -lower/h - 0.5 rounds to an integer.
_FAR_BINS = 2.0 ** 52
# Unless one pass certifies its result, _exact_sum hands math.fsum the last
# _FSUM_TAIL nonzero remainders, and the whole input when a pass would need
# sigma above 2**_EXTRACT_MAX_EXPONENT, where a partial sum could overflow.
_FSUM_TAIL = 64
_EXTRACT_MAX_EXPONENT = 1020


@dataclass(frozen=True)
class SpatialGrid:
    """Axis-aligned box with a common bin width h along every axis.

    lower[a] and bins[a] fix the box on axis a; the box is
    [lower[a], lower[a] + bins[a] * h], with every lower[a] finite.
    """

    lower: tuple[float, ...]
    h: float
    bins: tuple[int, ...]
    allow_origin_center: bool = False

    def __post_init__(self):
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ParameterError(f"bin width must be positive, got {self.h}")
        if len(self.lower) != len(self.bins) or not self.lower:
            raise ParameterError("lower and bins must have equal positive length")
        if not all(math.isfinite(lo) for lo in self.lower):
            raise ParameterError(f"the box's lower corner must be finite, got {self.lower}")
        if not all(isinstance(m, numbers.Integral) for m in self.bins):
            raise ParameterError(f"bin counts must be integers, got {self.bins}")
        if any(m < 1 for m in self.bins):
            raise ParameterError(f"bins must all be >= 1, got {self.bins}")
        if any(m >= _FAR_BINS or max(abs(lo), abs(lo + m * self.h)) >= _FAR_BINS * self.h
               for lo, m in zip(self.lower, self.bins)):
            counts = " x ".join(str(m) if m < 10**6
                                else f"about 10^{math.floor(math.log10(m))}"
                                for m in self.bins)
            raise ParameterError(
                f"bin width {self.h:.3g} and {counts} bins put the box 2**52 or more bin "
                "widths from the origin, where floating point cannot tell neighbouring "
                "bin centers apart")
        if not self.allow_origin_center and self._has_origin_center():
            raise ParameterError(
                "a bin center coincides with the coordinate origin; "
                "shift the box by half a bin")

    def _has_origin_center(self) -> bool:
        for lo, m in zip(self.lower, self.bins):
            if not (lo < 0.0 < lo + m * self.h):
                return False
            frac = -lo / self.h - 0.5
            if abs(frac - round(frac)) > _ORIGIN_RTOL:
                return False
        return True

    @property
    def dimension(self) -> int:
        return len(self.bins)

    @property
    def upper(self) -> tuple[float, ...]:
        return tuple(lo + m * self.h for lo, m in zip(self.lower, self.bins))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.bins

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dimension

    def centers(self, axis: int) -> np.ndarray:
        return self.lower[axis] + (np.arange(self.bins[axis]) + 0.5) * self.h

    def centers_mesh(self) -> np.ndarray:
        """All bin centers, shape bins + (dimension,)."""
        # The mesh, and the centers along its longest axis on their way in.
        require_memory(8 * (self.dimension * math.prod(self.bins) + max(self.bins)),
                       "the mesh of bin centers")
        mesh = np.empty(self.bins + (self.dimension,))
        for a in range(self.dimension):
            along = [1] * self.dimension
            along[a] = self.bins[a]
            mesh[..., a] = self.centers(a).reshape(along)
        return mesh

    def bin_indices(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis bin indices and an inside-the-box mask.

        points has shape (..., dimension); indices are floor((x - lower)/h),
        which makes the assignment deterministic at bin boundaries
        (left-closed, right-open bins).
        """
        pts = np.asarray(points, dtype=float)
        lo = np.asarray(self.lower)
        idx = np.floor((pts - lo) / self.h).astype(np.int64)
        inside = np.all((idx >= 0) & (idx < np.asarray(self.bins)), axis=-1)
        return idx, inside

    def quantize(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Snap points to the center of their bin; outside points pass through."""
        idx, inside = self.bin_indices(points)
        lo = np.asarray(self.lower)
        snapped = lo + (idx + 0.5) * self.h
        pts = np.asarray(points, dtype=float)
        return np.where(inside[..., None], snapped, pts), inside

    @classmethod
    def from_box(cls, a: float, b: float, bins: int, dimension: int = 1) -> "SpatialGrid":
        """Same interval [a, b] with the same bin count on every axis."""
        if not b > a:
            raise ParameterError(f"need b > a, got a={a}, b={b}")
        if bins < 1:
            raise ParameterError(f"bins must be >= 1, got {bins}")
        h = (b - a) / bins
        return cls((a,) * dimension, h, (bins,) * dimension)

    @classmethod
    def cover(cls, points: np.ndarray, h: float) -> "SpatialGrid":
        """Smallest half-offset-safe grid of width h covering the points.

        The lower corner is snapped to an integer multiple of h, so centers
        sit at half-integer multiples and the origin stays on a bin edge.
        h and the points must be finite, h positive, and the box's bin
        count must be finite too.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if not (h > 0.0 and math.isfinite(h)):
            raise ParameterError(f"bin width must be positive and finite, got {h}")
        if not np.all(np.isfinite(pts)):
            raise ParameterError("the points to cover must be finite")
        with np.errstate(over="ignore"):  # an infinite bin count is refused below
            lower = np.floor(pts.min(axis=0) / h) * h
            bins = np.ceil((pts.max(axis=0) - lower) / h) + 1
        if not np.all(np.isfinite(bins)):
            raise ParameterError(f"bin width {h} gives a box with infinitely many bins")
        return cls(tuple(float(v) for v in lower), h,
                   tuple(max(int(m), 1) for m in bins))


def quantized_perturbation(fbm_values: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Perturbation samples snapped to bin centers, shape (steps, d).

    This is the local-time discretization: averaging a field against the
    histogram local time equals summing the field over these snapped
    positions.  Samples outside the box pass through unchanged (no mass is
    silently dropped); size the box to cover the path.
    """
    snapped, _inside = grid.quantize(fbm_values[:, :-1].T)  # left endpoints
    return snapped


@dataclass(frozen=True, eq=False)
class OccupationMeasure:
    """Bin visit counts over a window [s, t), with a mass and a density view.

    masses is the occupation measure (counts times dt); values is the
    local-time density estimate (masses over the bin volume).
    """

    grid: SpatialGrid
    s: float
    t: float
    dt: float
    counts: np.ndarray = field(repr=False)
    escaped_count: int

    @property
    def masses(self) -> np.ndarray:
        return self.counts * self.dt

    @property
    def values(self) -> np.ndarray:
        return self.counts * (self.dt / self.grid.cell_volume)

    @property
    def covered_mass(self) -> float:
        return float(self.counts.sum() * self.dt)

    @property
    def escaped_mass(self) -> float:
        return self.escaped_count * self.dt

    @property
    def escaped_fraction(self) -> float:
        total = self.counts.sum() + self.escaped_count
        return self.escaped_count / total if total else 0.0

    def __add__(self, other: "OccupationMeasure") -> "OccupationMeasure":
        if self.grid != other.grid:
            raise ParameterError("windows live on different spatial grids")
        if self.dt != other.dt:
            raise ParameterError("windows have different time steps")
        if self.t != other.s:
            raise ParameterError(
                f"windows are not contiguous: [{self.s},{self.t}) + [{other.s},{other.t})")
        return OccupationMeasure(self.grid, self.s, other.t, self.dt,
                                 self.counts + other.counts,
                                 self.escaped_count + other.escaped_count)


def local_time(path, grid: SpatialGrid, s: float, t: float) -> OccupationMeasure:
    """Occupation measure of the path over [s, t), read through its density view.

    Bins the path samples t_k in [s, t); samples outside the box are
    escaped.  The density interpretation requires the occupation measure
    to be absolutely continuous; for fBm that holds when hurst * dimension
    < 1, which is checked here and warned about, not enforced.
    """
    hurst = getattr(path, "hurst", None)
    if hurst is not None and hurst * grid.dimension >= 1.0:
        warnings.warn(
            f"hurst*dimension = {hurst * grid.dimension:.3f} >= 1: the occupation "
            "measure may have no density; treat this field as a histogram only",
            RuntimeWarning, stacklevel=2)
    if path.dimension != grid.dimension:
        raise ParameterError(
            f"path dimension {path.dimension} != grid dimension {grid.dimension}")
    k0, k1 = path.grid.window(s, t)
    n_bins = math.prod(grid.shape)
    require_memory(8 * n_bins, "binning the occupation measure")
    idx, inside = grid.bin_indices(path.values[:, k0:k1].T)
    flat = np.ravel_multi_index(tuple(idx[inside].T), grid.shape)
    counts = np.bincount(flat, minlength=n_bins)
    return OccupationMeasure(grid, s, t, path.grid.dt, counts.reshape(grid.shape),
                             int((~inside).sum()))


def _exact_sum(values) -> float:
    """math.fsum of a float array, bit for bit, without a Python float per sample.

    Error-free extraction (Rump, Ogita and Oishi, Accurate floating-point
    summation part I, SIAM J. Sci. Comput. 31(1), 2008): for n remainders
    below 2**e in magnitude and sigma = 2**(ceil(log2(n + 2)) + e), every
    q = (sigma + r) - sigma lies on one grid below sigma, so head = np.sum(q)
    is exact in any order, and so is each new remainder r - q, which is at
    most 2**-52 * sigma in magnitude.

    One pass usually decides the result (part II of the same paper, SIAM J.
    Sci. Comput. 31(2), 2008): tail = np.sum(r - q) is off by at most
    gamma(n - 1) * n * 2**-52 * sigma, below bound = n**2 * sigma * 2**-103,
    so the exact total lies within bound of head + tail = s + err (s rounded,
    err its exact TwoSum error).  When s is finite, |s| > 2**-960 (so the
    half gaps are exact), and err +/- bound stays strictly inside half the
    gap from s to each of its float neighbours, every real in that interval
    rounds to s, which is then math.fsum's result; a tie never passes.
    Rounding is monotone, so these float comparisons are safe.  Otherwise
    the loop goes on from that pass: further passes run until at most
    _FSUM_TAIL remainders are nonzero, and math.fsum rounds the pass sums
    and those remainders once.  Non-finite or near-overflow input goes to
    math.fsum whole (its zeros dropped), so nan, inf, ValueError and
    OverflowError come out as they do there.
    """
    r = np.asarray(values, dtype=float).ravel()  # read only: passes write to q
    nonzero = np.empty(r.shape, dtype=bool)
    k = (r.size + 1).bit_length()
    passes = []
    while np.count_nonzero(np.not_equal(r, 0.0, out=nonzero)) > _FSUM_TAIL:
        top = max(float(r.max()), -float(r.min()))
        exponent = math.frexp(top)[1] + k
        if not (top < math.inf and exponent <= _EXTRACT_MAX_EXPONENT):
            break
        sigma = math.ldexp(1.0, exponent)
        q = np.add(r, sigma)
        q -= sigma
        head = float(np.sum(q))
        r = np.subtract(r, q, out=q)
        if not passes:
            tail = float(np.sum(r))
            s = head + tail
            virtual = s - head
            err = (head - (s - virtual)) + (tail - virtual)
            bound = float(r.size) ** 2 * sigma * 2.0 ** -103
            if (math.isfinite(s) and abs(s) > 2.0 ** -960
                    and err + bound < (math.nextafter(s, math.inf) - s) * 0.5
                    and bound - err < (s - math.nextafter(s, -math.inf)) * 0.5):
                return s
        passes.append(head)
    return math.fsum(passes + r[nonzero].tolist())


def occupation_formula_residual(f, path, grid: SpatialGrid, t: float) -> float:
    """|time quadrature of f(w) - space quadrature against the occupation measure|.

    Left side: sum over t_k in [0, t) of f(w(t_k)) * dt.  Right side: sum
    over bins of f(center) * mass.  Both sums are correctly rounded (equal
    to math.fsum), so for f constant on bins the two sides agree to the
    last bit and the residual is exactly zero.  Escaped samples contribute
    to the left side only; choose the box to cover the path when using
    this as a convergence diagnostic.
    """
    k0, k1 = path.grid.window(0.0, t)
    pts = path.values[:, k0:k1].T
    left = _exact_sum(f(pts)) * path.grid.dt
    snapped, inside = grid.quantize(pts)
    right = _exact_sum(f(snapped[inside])) * path.grid.dt
    return abs(left - right)
