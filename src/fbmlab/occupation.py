"""Occupation measures and local-time fields on uniform spatial grids.

The occupation measure of a path over a window [s, t) assigns to each bin
the amount of time the path spends there, estimated by left-endpoint
quadrature: every sample t_k in [s, t) deposits dt into the bin holding
w(t_k).  Dividing bin mass by the bin volume h**d gives the local-time
density estimator.

Bins store integer visit counts, so window additivity of measures and
local-time fields holds exactly at bit level, not just approximately.

Grids are half-offset: bin centers sit at lower + (i + 0.5) * h, and the
constructor rejects grids that would place a center exactly at the
coordinate origin, because singular coefficient fields are evaluated at
bin centers downstream.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, require_memory

_ORIGIN_RTOL = 1e-9
# _exact_sum hands math.fsum the last _FSUM_TAIL nonzero remainders, and the
# whole input when a pass would need sigma above 2**_EXTRACT_MAX_EXPONENT,
# where a partial sum could overflow.
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
        if any(m < 1 for m in self.bins):
            raise ParameterError(f"bins must all be >= 1, got {self.bins}")
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

    def centers(self, axis: int = 0) -> np.ndarray:
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
    escaped_count: int = 0

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


def _occupy(path, grid: SpatialGrid, s: float, t: float) -> OccupationMeasure:
    """Bin the path samples t_k in [s, t); samples outside the box are escaped."""
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


def occupation_measure(path, grid: SpatialGrid, s: float, t: float) -> OccupationMeasure:
    """Histogram occupation measure of the path over [s, t)."""
    return _occupy(path, grid, s, t)


def local_time(path, grid: SpatialGrid, s: float, t: float) -> OccupationMeasure:
    """Occupation measure of the path over [s, t), read through its density view.

    The density interpretation requires the occupation measure to be
    absolutely continuous; for fBm that holds when hurst * dimension < 1,
    which is checked here and warned about, not enforced.
    """
    hurst = getattr(path, "hurst", None)
    if hurst is not None and hurst * grid.dimension >= 1.0:
        warnings.warn(
            f"hurst*dimension = {hurst * grid.dimension:.3f} >= 1: the occupation "
            "measure may have no density; treat this field as a histogram only",
            RuntimeWarning, stacklevel=2)
    return _occupy(path, grid, s, t)


def _exact_sum(values) -> float:
    """math.fsum of a float array, bit for bit, without a Python float per sample.

    Repeated error-free extraction (Rump, Ogita and Oishi, Accurate
    floating-point summation part I, SIAM J. Sci. Comput. 2008): for n
    remainders below 2**e in magnitude and sigma = 2**(ceil(log2(n + 2)) + e),
    every q = (sigma + r) - sigma lies on one grid below sigma, so np.sum(q)
    is exact in any order and r - q is exact.  The pass sums and the last
    few nonzero remainders hold the exact total, which math.fsum rounds
    once.  Non-finite or near-overflow input goes to math.fsum whole (its
    zeros dropped), so nan, inf, ValueError and OverflowError come out as
    they do there.
    """
    r = np.array(values, dtype=float).ravel()
    q = np.empty_like(r)
    k = (r.size + 1).bit_length()
    passes = []
    while np.count_nonzero(r) > _FSUM_TAIL:
        top = max(float(r.max()), -float(r.min()))
        exponent = math.frexp(top)[1] + k
        if not (top < math.inf and exponent <= _EXTRACT_MAX_EXPONENT):
            break
        sigma = math.ldexp(1.0, exponent)
        np.add(r, sigma, out=q)
        q -= sigma
        passes.append(float(np.sum(q)))
        r -= q
    return math.fsum(passes + r[r != 0.0].tolist())


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


def multilinear_interpolate(lower, h: float, values: np.ndarray, points,
                            clamp: bool = False) -> np.ndarray:
    """Multilinear interpolation between lattice samples.

    values[i_1, .., i_d] is the sample at lower + (i + 0.5) * h (bin
    centers), with d = len(lower).  Further axes of values are entry axes:
    one call interpolates a whole matrix per point from a single
    base/fraction computation, each entry bit-equal to interpolating its
    own scalar lattice.  Outside the center lattice the result is 0, or the
    edge value when clamp is True.  Works for any dimension; points has
    shape (..., d), the result (...,) + entry shape.  The lattice is read
    through one flat view, values.reshape((-1,) + entry shape), one row
    per node in row-major order (_lattice_corners, _corner_sum).
    """
    pts = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    d = len(lower)
    if values.ndim < d:
        raise ParameterError(f"values have {values.ndim} axes, the lattice {d}")
    corners, inside = _lattice_corners(lower, h, values.shape[:d], pts, None)
    flat = values.reshape((-1,) + values.shape[d:])
    out = np.empty(pts.shape[:-1] + flat.shape[1:])
    _corner_sum(flat, corners, out, np.empty_like(out))
    if not clamp:
        # By index: a masked copy costs three times the scatter.
        out.reshape((inside.size,) + flat.shape[1:])[np.flatnonzero(~inside)] = 0.0
    return out


def _lattice_corners(lower, h: float, shape: tuple[int, ...], pts: np.ndarray,
                     first):
    """The cell corners of points (..., d) on a lattice of bin centers.

    Returns [(weight, rows)] for the 2^d corners in order and the mask of
    the points inside the center lattice.  rows is the corner's flat row
    in a row-major node order: the point's lower corner raveled, plus
    first (when not None, the row of the first node of each point's
    lattice, so one flat table can hold several), plus a fixed row step
    for each far axis, 0 on a size-1 axis, where the far corner has zero
    weight.  weight is the product of the corner's per-axis factors, frac
    or 1 - frac, from axis 0 on, with the points' shape.  Outside the
    lattice the position is clipped onto it.
    """
    lo = np.asarray(lower, dtype=float)
    d = lo.size
    if d == 0 or pts.shape[-1] != d:
        raise ParameterError(f"points dimension {pts.shape[-1]} != field dimension {d}")
    # Position in center-lattice units, clipped onto the lattice.
    u = (pts - lo) / h - 0.5
    clipped = np.clip(u, 0.0, np.subtract(shape, 1.0))
    # Clamped as floats, so a NaN point is never cast to an integer: np.fmax
    # sends it to corner 0, where its weights are NaN, and a size-1 axis too.
    base = np.fmax(np.minimum(np.floor(clipped), np.subtract(shape, 2)),
                   0).astype(np.int64)
    frac = clipped - base
    rest = 1.0 - frac
    row = np.cumprod((1,) + shape[:0:-1])[::-1]
    near = base[..., 0] * row[0]
    for a in range(1, d):
        near = near + base[..., a] * row[a]
    if first is not None:
        near = near + first
    step = [int(row[a]) if shape[a] > 1 else 0 for a in range(d)]
    corners = []
    for corner in range(1 << d):
        far = [(corner >> a) & 1 for a in range(d)]
        weight = frac[..., 0] if far[0] else rest[..., 0]
        for a in range(1, d):
            weight = weight * (frac[..., a] if far[a] else rest[..., a])
        offset = sum(s for s, f in zip(step, far) if f)
        corners.append((weight, near + offset if offset else near))
    return corners, np.all(clipped == u, axis=-1)


def _corner_sum(flat: np.ndarray, corners, out: np.ndarray, term: np.ndarray) -> None:
    """out = 0.0 + w_0 v_0 + w_1 v_1 + ... over the corners in order, v_c
    the rows of flat at corner c, with the weight as the first factor.

    flat is (rows,) + entry shape, out and term (scratch) have rows' shape
    plus the entry shape, and every row is in range.  Each corner is one
    np.take of rows into out or term, which reads a C-contiguous flat in
    place and copies any other on every call.  Those are the operations,
    in their order, of a plain loop over corners that indexes the lattice
    directly, so every bit of that loop is kept: signed zeros, and the NaN
    a NaN point reads under clamp.
    """
    entry = (...,) + (None,) * (flat.ndim - 1)
    for corner, (weight, rows) in enumerate(corners):
        dest = term if corner else out
        np.take(flat, rows, axis=0, out=dest, mode="clip")  # unbuffered
        np.multiply(weight[entry], dest, out=dest)
        # As out += term adds: in a one-element sum of two NaNs, the output
        # operand decides which stays.
        np.add(out if corner else 0.0, dest, out=out)
