"""Matrix-valued coefficient fields, mollification and integral norms.

A field maps points of R^d to d x n matrices.  The running singular
example is sigma(x) = |x|**(-gamma) * Id restricted to the ball of radius
K; it belongs to L^p exactly when gamma < d / p, which the quadrature
below can confirm or refute numerically.  A field flags its own singular
points, and lp_norm refines the bins at exactly those.

Mollification convolves the field with the fixed bump (1 - |u|^2)**4 after
a smooth cut-off: sigma_eps = rho_eps * (phi_eps * sigma), where rho_eps has
support in the ball of radius eps and unit mass, and phi_eps equals 1 on
the ball of radius 1/(2 eps) and 0 outside radius 1/eps.  The field is
sampled once for all radii, and each convolution runs entry by entry via
zero-padded FFT into a member of one LatticeStack, the one lattice field
type, whose layout only this module knows: it interpolates multilinearly
between bin centers and is zero off the lattice and beyond its radius, as
the mollified field's compact support is.  Each read interpolates its
live points alone, those inside the lattice and within the radius, and
writes +0.0 at the rest, so a table must be finite: which of two NaNs
numpy's add keeps depends on the array's length, and a sum over fewer
rows could flip a NaN's sign.  Fields subtract pointwise, which is how
the Cauchy gaps between radii are built.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ClampWarning, IntegrabilityWarning, ParameterError,
                     ResolutionError)
from .occupation import SpatialGrid

# Value returned when a singular field is evaluated exactly at its
# singular point; large enough to poison any identity the evaluation
# should not have entered, finite so arrays stay usable.
CLAMP_VALUE = 1.0e9


class MatrixField:
    """Pointwise d x n matrix field with a vectorized oracle.

    oracle(points) must accept arrays of shape (..., d) and return
    (..., d, n).  Fields are immutable after construction and safe to
    share between threads.  A LatticeStack member also carries lattice, its
    (stack, index), and grid_values, its table.
    """

    def __init__(self, oracle, d: int, n: int, *,
                 support_radius: float | None = None,
                 singular_points: tuple = (), label: str = "field"):
        self._oracle = oracle
        self.d = int(d)
        self.n = int(n)
        self.support_radius = support_radius
        self.singular_points = tuple(np.asarray(q, dtype=float) for q in singular_points)
        self.label = label

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.d:
            raise ParameterError(f"points have dimension {pts.shape[-1]}, field has {self.d}")
        out = np.asarray(self._oracle(pts), dtype=float)
        if out.shape != pts.shape[:-1] + (self.d, self.n):
            raise ParameterError(
                f"oracle returned shape {out.shape}, expected {pts.shape[:-1] + (self.d, self.n)}")
        return out

    def __sub__(self, other: "MatrixField") -> "MatrixField":
        """Pointwise difference; it flags the singular points of both fields."""
        if (self.d, self.n) != (other.d, other.n):
            raise ParameterError("field shapes differ")
        radius = None
        if self.support_radius is not None and other.support_radius is not None:
            radius = max(self.support_radius, other.support_radius)
        return MatrixField(lambda x: self(x) - other(x), self.d, self.n,
                           support_radius=radius,
                           singular_points=self.singular_points + other.singular_points,
                           label=f"({self.label}-{other.label})")

    def __repr__(self) -> str:
        return f"MatrixField({self.label}, d={self.d}, n={self.n})"


class ScalarField:
    """Scalar field wrapper used for squared norms and averaging inputs."""

    def __init__(self, oracle, d: int, *, singular_points: tuple = (),
                 label: str = "scalar"):
        self._oracle = oracle
        self.d = int(d)
        self.singular_points = tuple(np.asarray(q, dtype=float) for q in singular_points)
        self.label = label

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.asarray(self._oracle(pts), dtype=float)

    def __repr__(self) -> str:
        return f"ScalarField({self.label}, d={self.d})"


def constant_field(matrix: np.ndarray) -> MatrixField:
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2:
        raise ParameterError("constant_field expects a 2-d matrix")
    d, n = mat.shape

    def oracle(pts):
        out = np.empty(pts.shape[:-1] + (d, n))
        out[...] = mat
        return out

    return MatrixField(oracle, d, n, label="const")


def identity_field(d: int) -> MatrixField:
    """The d x d identity matrix at every point."""
    return constant_field(np.eye(d))


def singular_example(gamma: float, radius: float, d: int) -> MatrixField:
    """sigma(x) = |x|**(-gamma) * Id on the ball |x| <= radius, 0 outside.

    In L^p exactly when gamma < d / p.  Evaluation exactly at the origin
    returns CLAMP_VALUE and emits ClampWarning; the half-offset grids used
    elsewhere keep quadrature nodes away from that point.
    """
    if gamma <= 0.0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    if not radius > 0.0:  # NaN too
        raise ParameterError(f"radius must be positive, got {radius}")
    if radius == math.inf:
        raise ParameterError(f"radius must be finite, got {radius}")
    if not gamma < 1.0:
        raise ParameterError(f"the example requires gamma < 1, got {gamma}")
    if not 2.0 < d / gamma:
        raise ParameterError(f"the example requires d/gamma > 2, got {d / gamma}")
    eye = np.eye(d)

    def oracle(pts):
        r = _support_norm(pts)
        # |x|**-gamma at the points within the radius only; NaN and +-inf
        # points fail r <= radius and read 0.0, as the rest outside do.
        amp = np.zeros(r.shape)
        inside = r <= radius
        at_origin = r == 0.0
        if np.any(at_origin):
            warnings.warn("singular field evaluated exactly at the origin; "
                          f"clamped to {CLAMP_VALUE:.1e}", ClampWarning, stacklevel=3)
            inside &= ~at_origin
            amp[at_origin] = CLAMP_VALUE
        np.power(r, -gamma, out=amp, where=inside)
        return amp[..., None, None] * eye

    return MatrixField(oracle, d, d, support_radius=radius,
                       singular_points=(np.zeros(d),),
                       label=f"|x|^-{gamma} on |x|<={radius}")


def hs_norm_sq(field: MatrixField) -> ScalarField:
    """x -> squared Hilbert-Schmidt (Frobenius) norm of field(x)."""
    def oracle(pts):
        mats = field(pts)
        return np.sum(mats * mats, axis=(-2, -1))

    return ScalarField(oracle, field.d, singular_points=field.singular_points,
                       label=f"|{field.label}|_HS^2")


@dataclass(frozen=True)
class MollifierSpec:
    """Mollification kernel and cut-off conventions.

    rho(u) = c_d * (1 - |u|^2)**4 on the unit ball, normalized to
    unit mass with the exact beta-integral constant; the scaled kernel is
    rho_eps(x) = eps**(-d) * rho(x / eps).  The cut-off is 1 on
    |x| <= 1/(2 eps), 0 on |x| >= 1/eps, with a C^2 quintic ramp between.
    """

    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.epsilon and math.isfinite(self.epsilon)):
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")

    def bump_mass(self, d: int) -> float:
        """integral over the unit ball of (1 - |u|^2)**4, exactly, for a
        positive integer dimension d."""
        if not (isinstance(d, numbers.Integral) and d >= 1):
            raise ParameterError(f"dimension must be a positive integer, got {d!r}")
        return math.pi ** (d / 2.0) * _gamma(5) / _gamma(d / 2.0 + 5)

    def rho(self, points) -> np.ndarray:
        """Unit-mass bump on the unit ball, evaluated at points (..., d)."""
        pts = np.asarray(points, dtype=float)
        d = pts.shape[-1]
        r2 = np.sum(pts * pts, axis=-1)
        c = 1.0 / self.bump_mass(d)
        return c * np.clip(1.0 - r2, 0.0, None) ** 4

    def rho_scaled(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        d = pts.shape[-1]
        return self.rho(pts / self.epsilon) / self.epsilon ** d

    def cutoff(self, points) -> np.ndarray:
        """1 inside radius 1/(2 eps), 0 outside 1/eps, quintic in between."""
        pts = np.asarray(points, dtype=float)
        r = np.linalg.norm(pts, axis=-1)
        inner = 0.5 / self.epsilon
        outer = 1.0 / self.epsilon
        u = np.clip((r - inner) / (outer - inner), 0.0, 1.0)
        ramp = u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)
        return 1.0 - ramp


def mollify(field: MatrixField, spec: MollifierSpec, grid: SpatialGrid) -> MatrixField:
    """Entry-wise zero-padded FFT convolution of the cut-off field with the bump.

    The grid must resolve the kernel: h <= eps / 4.  The discrete kernel is
    renormalized to unit sum, so constant fields pass through unchanged on
    the deep interior.  The result, the member of a one-member LatticeStack
    built as mollified_family builds its stack, is 0 off the grid,
    consistent with support inside the ball of radius 1/eps + eps.
    """
    return _mollified_members(field, [spec], grid)[0]


def _mollified_members(field: MatrixField, specs, grid: SpatialGrid) -> list[MatrixField]:
    """mollify(field, spec, grid) for every spec, the members of one LatticeStack.

    field is sampled on the bin centers once; each spec's cut-off then
    multiplies it entry by entry, and each entry's convolution goes straight
    into that member's slice of the member-major table.
    """
    eps_min = min(spec.epsilon for spec in specs)
    if grid.h > eps_min / 4.0 + 1e-15:
        raise ResolutionError(f"grid h={grid.h} too coarse for eps={eps_min}; need h <= eps/4")
    if grid.dimension != field.d:
        raise ParameterError("grid and field dimensions differ")
    mesh = grid.centers_mesh()
    sigma = field(mesh)
    table = np.empty((len(specs),) + sigma.shape)
    for dest, spec in zip(table, specs):
        reach = int(math.ceil(spec.epsilon / grid.h))
        axes = np.meshgrid(*([np.arange(-reach, reach + 1) * grid.h] * grid.dimension),
                           indexing="ij")
        kernel = spec.rho_scaled(np.stack(axes, axis=-1)) * grid.cell_volume
        total = kernel.sum()
        if total <= 0.0:
            raise ResolutionError("mollifier kernel vanished on the grid")
        kernel = kernel / total
        cut = spec.cutoff(mesh)
        for i, j in np.ndindex(sigma.shape[-2:]):
            dest[..., i, j] = _fftconvolve(sigma[..., i, j] * cut, kernel, same=True)
    # Zero beyond 1/eps + eps and beyond the field's support + eps; rounding
    # is monotone, so adding eps after the min gives the min of the two sums.
    support = math.inf if field.support_radius is None else field.support_radius
    stack = LatticeStack(grid, table, [min(1.0 / spec.epsilon, support) + spec.epsilon
                                       for spec in specs])
    return [stack.member(e, label=f"mollified({field.label},{spec.epsilon})")
            for e, spec in enumerate(specs)]


def _fftconvolve(a: np.ndarray, b: np.ndarray, *, same: bool = False) -> np.ndarray:
    """Linear convolution of two real arrays by zero-padded real FFTs.

    The full result, or with same its centre part of a's shape.  Axes are
    padded to _next_fast_len, and an axis where either input has length 1
    is multiplied by broadcasting instead of transformed.  numpy.fft runs
    the pocketfft that scipy.fft runs; with the forward axes in scipy's
    order (_rfftn) and the inverse scaled once by 1 / prod(fshape), as
    scipy scales it, instead of per axis (which changes the last bits in
    2-D), the bits are those of scipy.signal.fftconvolve.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    axes = [k for k in range(a.ndim) if a.shape[k] != 1 and b.shape[k] != 1]
    shape = [a.shape[k] + b.shape[k] - 1 if k in axes else max(a.shape[k], b.shape[k])
             for k in range(a.ndim)]
    if axes:
        fshape = [_next_fast_len(shape[k]) for k in axes]
        spectrum = _rfftn(a, fshape, axes) * _rfftn(b, fshape, axes)
        out = np.fft.irfftn(spectrum, fshape, axes=axes, norm="forward")
        out = out[tuple(map(slice, shape))] * (1.0 / math.prod(fshape))
    else:
        out = a * b
    if same:
        start = [(n - m) // 2 for n, m in zip(shape, a.shape)]
        out = out[tuple(slice(s, s + m) for s, m in zip(start, a.shape))]
    return out


def _rfftn(x: np.ndarray, fshape: list[int], axes: list[int]) -> np.ndarray:
    """Real FFT over axes in scipy.fft.rfftn's order.

    The last axis first, then the others from first to last; np.fft.rfftn
    runs them from last to first, which changes the last bits in 3-D.
    """
    x = np.fft.rfft(x, fshape[-1], axis=axes[-1])
    for n, k in zip(fshape[:-1], axes[:-1]):
        x = np.fft.fft(x, n, axis=k)
    return x


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n (scipy.fft.next_fast_len(n, True))."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _gamma(x: float) -> float:
    """Gamma(x) at a positive integer or half-integer x, in closed form:
    (n - 1)! at n and (2n)! / (4**n n!) sqrt(pi) at n + 1/2, whose integer
    quotient is rounded once (int / int is correctly rounded)."""
    n = int(x)
    if x == n:
        return float(math.factorial(n - 1))
    return math.factorial(2 * n) / (4 ** n * math.factorial(n)) * math.sqrt(math.pi)


def _corner_sum(flat: np.ndarray, corners, out: np.ndarray, term: np.ndarray) -> None:
    """out = 0.0 + w_0 v_0 + w_1 v_1 + ... over the corners in order, v_c
    the rows of flat at corner c, with the weight as the first factor.

    flat is (rows,) + entry shape, out and term (scratch) have rows' shape
    plus the entry shape, and every row is in range.  Each corner is one
    np.take of rows into out or term, which reads a C-contiguous flat in
    place and copies any other on every call.  Those are the operations,
    in their order, of a plain loop over corners that indexes the lattice
    directly.  Lattice reads pass only their live rows (LatticeStack): with
    finite tables every product and sum is the same IEEE operation at any
    place in the array, so every bit of that loop is kept, signed zeros too.
    """
    entry = (...,) + (None,) * (flat.ndim - 1)
    for corner, (weight, rows) in enumerate(corners):
        dest = term if corner else out
        np.take(flat, rows, axis=0, out=dest, mode="clip")  # unbuffered
        np.multiply(weight[entry], dest, out=dest)
        np.add(out if corner else 0.0, dest, out=out)


def _support_norm(pts: np.ndarray) -> np.ndarray:
    """|x| of points (..., d), which a field with a ball support compares
    with its radius.

    In d = 1 the norm is |x|, the bits of sqrt(fl(x^2)) wherever x^2 is a
    normal float.  Above that, np.linalg.norm's bits wherever its sum of
    squares is a normal float; where that sum overflows (from about |x| =
    1.3e154) or is subnormal or 0.0 (below about 1.5e-154), which shows as
    a norm of inf or below 2^-511, the norm is taken again of the finite
    nonzero points scaled by their largest coordinate.
    """
    if pts.shape[-1] == 1:
        return np.abs(pts[..., 0])
    with np.errstate(over="ignore"):
        r = np.linalg.norm(pts, axis=-1)
    redo = (r == math.inf) | (r < 2.0 ** -511)
    if not np.any(redo):
        return r
    scale = np.abs(pts).max(axis=-1)
    scale = np.where(redo & (0.0 < scale) & (scale < math.inf), scale, 1.0)
    with np.errstate(over="ignore"):
        return np.where(redo, scale * np.linalg.norm(pts / scale[..., None], axis=-1), r)


def _rows(vals: np.ndarray) -> np.ndarray:
    """vals (..., d, n), contiguous, viewed as one row per point, (points,
    d n), or (points,) when d n = 1: numpy's indexed set into a 1-D view
    runs about twice as fast."""
    width = math.prod(vals.shape[-2:])
    return vals.reshape((-1, width) if width > 1 else -1)


class LatticeStack:
    """Lattice fields on one grid, interpolated together.

    table is member-major, (k,) + grid.shape + (d, n), and finite: member
    e interpolates the contiguous table[e] between bin centers and vanishes
    off the lattice and beyond radii[e], as a mollified field does.  A
    point is live for a radius when it lies inside the center lattice and
    within that radius; every read interpolates its live points only and
    writes +0.0 at the others without arithmetic on them.  A table with
    NaN or +-inf is refused: numpy's add keeps one of two NaNs or the other
    by the array's length and the element's place in it, so a sum over the
    live rows alone could flip a NaN's sign that the full-length sum keeps.
    Mollified tables are finite (the singular field clamps at CLAMP_VALUE);
    NaN and +-inf points are dead and read 0.0.  Radii must be positive.

    Once per stack it tests whether every point within the largest radius
    R lies inside the center lattice: whether the positions of -b and +b,
    b = max(R, 2^-511), do on every axis.  A point with fl(|x|) <= R has
    |x_a| <= b on each axis (sqrt(fl(x_a^2)) rounds to |x_a| and the sum of
    squares only grows, unless x_a^2 underflows, which takes |x_a| <
    2^-511, or the sum overflows to inf), and rounding is monotone, so its
    position lies between theirs.  mollified_family stacks pass, as
    family_grid pads LATTICE_PAD beyond the largest radius.

    Calling the stack at points (..., d) returns every member, (k, ...,
    d, n): the points live for the largest radius and their cells and
    weights are found once, then each member's table is read on its own
    into its slice, with the rows beyond its own radius set to 0.0.
    Member e's own evaluation is bit-equal to slice e of that call.
    """

    def __init__(self, grid: SpatialGrid, table: np.ndarray, radii):
        radii = tuple(float(r) for r in radii)
        if not radii:
            raise ParameterError("a LatticeStack needs at least one member")
        if not all(r > 0.0 for r in radii):  # NaN too
            raise ParameterError(f"radii must be positive, got {radii}")
        lattice = (len(radii),) + grid.shape + (grid.dimension,)
        if table.ndim != len(lattice) + 1 or table.shape[:-1] != lattice:
            raise ParameterError(f"table has shape {table.shape}; {len(radii)} radii on "
                                 f"a {grid.shape} grid need {lattice} + (n,)")
        if not np.isfinite(table).all():
            raise ParameterError("table holds NaN or infinite entries; a lattice "
                                 "field's table must be finite")
        self.grid = grid
        self.table = table
        self.radii = radii
        # The constants of every read: lower corner, last node and last cell
        # base per axis, row strides and the far corner's row step (0 on a
        # size-1 axis, where its weight is zero, as is its last cell base),
        # nodes per member, and whether the largest radius fits the lattice.
        self._lower = np.asarray(grid.lower, dtype=float)
        self._top = np.subtract(grid.shape, 1.0)
        self._last = np.maximum(np.subtract(grid.shape, 2), 0)
        self._row = np.cumprod((1,) + grid.shape[:0:-1])[::-1]
        self._step = [int(self._row[a]) if grid.shape[a] > 1 else 0
                      for a in range(grid.dimension)]
        self._nodes = math.prod(grid.shape)
        self._reach = max(radii)
        box = max(self._reach, 2.0 ** -511)
        ends = self._position(np.array([[-box], [box]]))
        self._inside = bool((ends[0] >= 0.0).all() and (ends[1] <= self._top).all())

    def _position(self, pts: np.ndarray) -> np.ndarray:
        """Lattice positions of pts (..., d): bin center i of axis a is at i."""
        return (pts - self._lower) / self.grid.h - 0.5

    def _live(self, pts: np.ndarray, radius):
        """The live points of pts (..., d) for radius, which broadcasts
        against pts.shape[:-1]: their lattice positions u (live, d), the
        norms (...) of every point and the flat indices of the live ones.

        The norm test comes first and only the points it keeps get
        positions; those are tested against the center lattice on every
        axis only when the largest radius leaves it (see LatticeStack).
        """
        d = self.grid.dimension
        if pts.shape[-1] != d:
            raise ParameterError(f"points dimension {pts.shape[-1]} != field dimension {d}")
        r = _support_norm(pts)
        idx = np.flatnonzero(r <= radius)
        u = self._position(pts.reshape(-1, d).take(idx, axis=0))
        if not self._inside:
            box = ((u >= 0.0) & (u <= self._top)).all(axis=1)
            idx, u = idx[box], u[box]
        return u, r, idx

    def _corners(self, u: np.ndarray, first):
        """The cell corners of live positions u (points, d).

        Returns [(weight, rows)] for the 2^d corners in order.  rows is the
        corner's flat row in a row-major node order: the point's lower
        corner raveled, plus first (when not None, the row of the first
        node of each point's lattice, so one flat table can hold several),
        plus a fixed row step for each far axis.  weight is the product of
        the corner's per-axis factors, frac or 1 - frac, from axis 0 on.
        Live positions lie in [0, top] and are never -0.0 (fl(a - 0.5) = 0
        is +0.0), so the lower corner is floor(u), capped at the last cell.
        """
        base = np.minimum(np.floor(u), self._last).astype(np.int64)
        frac = u - base
        rest = 1.0 - frac
        d = u.shape[1]
        near = base[:, d - 1]  # the last axis's row stride is 1
        for a in range(d - 1):
            near = near + base[:, a] * self._row[a]
        if first is not None:
            near = near + first
        corners = []
        for corner in range(1 << d):
            far = [(corner >> a) & 1 for a in range(d)]
            weight = frac[:, 0] if far[0] else rest[:, 0]
            for a in range(1, d):
                weight = weight * (frac[:, a] if far[a] else rest[:, a])
            offset = sum(s for s, f in zip(self._step, far) if f)
            corners.append((weight, near + offset if offset else near))
        return corners

    def _lattice_values(self, flat: np.ndarray, radius, pts: np.ndarray,
                        first) -> np.ndarray:
        """flat (rows, d, n) interpolated at pts (..., d), +0.0 at dead points.

        radius broadcasts against pts.shape[:-1].  first is None (flat is
        one lattice) or, for points (k, ..., d), the flat row of the first
        node of each point set's lattice, (k,).  Only the live points get
        corners and a corner sum; their values are scattered into zeros.
        """
        u, _r, idx = self._live(pts, radius)
        if first is not None:
            first = first[idx // math.prod(pts.shape[1:-1])]
        entry = flat.shape[1:]
        vals = np.empty((idx.size,) + entry)
        _corner_sum(flat, self._corners(u, first), vals, np.empty_like(vals))
        out = np.zeros(pts.shape[:-1] + entry)
        _rows(out)[idx] = _rows(vals)
        return out

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        u, r, idx = self._live(pts, self._reach)
        corners = self._corners(u, None)
        r = r.reshape(-1).take(idx)
        entry = self.table.shape[-2:]
        out = np.zeros((len(self.radii),) + pts.shape[:-1] + entry)
        vals = np.empty((idx.size,) + entry)
        term = np.empty_like(vals)
        for dest, table, radius in zip(out, self.table, self.radii):
            _corner_sum(table.reshape((-1,) + entry), corners, vals, term)
            # The shell beyond this member's radius, inside the largest.
            _rows(vals)[np.flatnonzero(r > radius)] = 0.0
            _rows(dest)[idx] = _rows(vals)
        return out

    def gather(self, members):
        """Member members[j] at points[j], as a function (k, ..., d) -> (k, ..., d, n).

        Each call is one interpolation for all k point sets, which reads
        row member * nodes + node of the flat table; slice j is bit-equal
        to member members[j]'s own evaluation at points[j].  The members
        are checked, and their first rows and radii taken, here, once; a
        call takes each live point's first row from its point set.
        """
        index = np.asarray(members).reshape(-1)
        if not np.all((index >= 0) & (index < len(self.radii))):
            raise ParameterError(f"members must lie in [0, {len(self.radii)})")
        first = index * self._nodes
        radius = np.asarray(self.radii)[index]

        def evaluate(points) -> np.ndarray:
            pts = np.asarray(points, dtype=float)
            if pts.shape[:1] != index.shape or pts.ndim < 2:
                raise ParameterError(f"{index.size} members need {index.size} point "
                                     f"sets (k, ..., d), got shape {pts.shape}")
            per_set = (-1,) + (1,) * (pts.ndim - 2)
            return self._lattice_values(self.table.reshape((-1,) + self.table.shape[-2:]),
                                        radius.reshape(per_set), pts, first)
        return evaluate

    def member(self, e: int, *, label: str) -> MatrixField:
        table, radius = self.table[e], self.radii[e]
        d, n = table.shape[-2:]
        fld = MatrixField(
            lambda pts: self._lattice_values(table.reshape((-1, d, n)), radius, pts, None),
            d, n, support_radius=radius, label=label)
        fld.lattice, fld.grid_values = (self, e), table
        return fld


def evaluate_together(fields, points) -> np.ndarray:
    """Every field at the same points, shape (len(fields), ..., d, n).

    Bit-equal to stacking each field's own evaluation on axis 0.  When the
    fields are the members of one LatticeStack in stack order, the stack
    interpolates them in one call; otherwise each field is evaluated on its
    own, so a field listed twice is evaluated twice.
    """
    lattice = [getattr(f, "lattice", None) for f in fields]
    stack = lattice[0][0] if lattice[0] is not None else None
    if stack is not None and lattice == [(stack, e) for e in range(len(stack.radii))]:
        return stack(points)
    return _filled(fields, [np.asarray(points, dtype=float)] * len(fields))


def evaluate_members(fields):
    """A function of points (k, ..., d) -> (k, ..., d, n): fields[j] at points[j].

    Its result is bit-equal to stacking each field's own evaluation on
    axis 0.  When every field is a member of one LatticeStack, in any
    order, the stack gathers them all in one interpolation per call.
    """
    lattice = [getattr(f, "lattice", None) for f in fields]
    stack = lattice[0][0] if lattice[0] is not None else None
    if stack is not None and all(lat is not None and lat[0] is stack for lat in lattice):
        return stack.gather([e for _stack, e in lattice])
    return lambda points: _filled(fields, points)


def _filled(fields, point_sets) -> np.ndarray:
    """fields[j] at point_sets[j] (..., d), each written as it comes into
    one (k, ..., d, n) array: np.stack of the evaluations without a list."""
    out = np.empty((len(fields),) + point_sets[0].shape[:-1] + (fields[0].d, fields[0].n))
    for j, (f, pts) in enumerate(zip(fields, point_sets)):
        out[j] = f(pts)
    return out


def _norm_power(field, pts: np.ndarray, p: float) -> np.ndarray:
    vals = field(pts)
    if isinstance(field, ScalarField) or vals.ndim == pts.ndim - 1:
        mag = np.abs(vals)
    else:
        mag = np.sqrt(np.sum(vals * vals, axis=(-2, -1)))
    return mag ** p


def _refine_singular_cell(field, p: float, lo: np.ndarray, size: float,
                          point: np.ndarray, budget: float) -> float:
    """Adaptive dyadic refinement of one cell whose corner holds the singular point.

    Splits the cell in 2**d; subcells away from the point get midpoint
    quadrature, the one containing it recurses.  Stops when the inner-cell
    estimate is negligible, warns when contributions keep growing, which is
    how a non-integrable exponent shows up.
    """
    d = lo.size
    total = 0.0
    last_inner = math.inf
    grew = 0
    for _depth in range(48):
        half = size / 2.0
        inner_lo = None
        for corner in range(1 << d):
            offs = np.array([(corner >> a) & 1 for a in range(d)], dtype=float)
            c_lo = lo + offs * half
            if inner_lo is None and np.all((point >= c_lo) & (point <= c_lo + half)):
                inner_lo = c_lo
                continue
            mid = c_lo + half / 2.0
            total += float(_norm_power(field, mid[None, :], p)[0]) * half ** d
        if inner_lo is None:
            # Point lost to roundoff at a face; all subcells were summed above.
            return total
        inner_mid = inner_lo + half / 2.0
        inner_est = float(_norm_power(field, inner_mid[None, :], p)[0]) * half ** d
        if inner_est >= last_inner:
            grew += 1
            if grew >= 3:
                warnings.warn(
                    "cell mass keeps growing under refinement near the singular "
                    "point; the field looks non-integrable at this exponent",
                    IntegrabilityWarning, stacklevel=3)
                return total + inner_est
        else:
            grew = 0
        last_inner = inner_est
        lo, size = inner_lo, half
        if inner_est <= 1e-7 * max(budget + total, 1e-300):
            return total + inner_est
    mid = lo + size / 2.0
    return total + float(_norm_power(field, mid[None, :], p)[0]) * size ** d


def lp_norm(field, p: float, grid: SpatialGrid) -> float:
    """(sum over bins of |field|^p * h^d) ** (1/p), refined where the field is singular.

    Bins whose closure contains a singular point the field flags are
    re-integrated by adaptive dyadic refinement, which removes the
    midpoint-rule bias the singularity would otherwise cause.  A field that
    flags none, such as a mollified field or a difference of two, gets the
    plain midpoint rule.
    """
    if not 0.0 < p < math.inf:  # NaN too
        raise ParameterError(f"p must be positive and finite, got {p}")
    mesh = grid.centers_mesh()
    powers = _norm_power(field, mesh, p)
    vol = grid.cell_volume
    total = float(powers.sum()) * vol
    lo = np.asarray(grid.lower)
    shape = np.asarray(grid.shape)
    for q in getattr(field, "singular_points", ()):  # re-do cells touching q
        u = (np.asarray(q) - lo) / grid.h
        if np.any(u < 0.0) or np.any(u > shape):
            continue
        lo_idx = np.maximum(np.ceil(u - 1.0 - 1e-9).astype(int), 0)
        hi_idx = np.minimum(np.floor(u + 1e-9).astype(int), shape - 1)
        for flat in np.ndindex(*(hi_idx - lo_idx + 1)):
            idx = lo_idx + np.asarray(flat)
            center = lo + (idx + 0.5) * grid.h
            total -= float(_norm_power(field, center[None, :], p)[0]) * vol
            total += _refine_singular_cell(field, p, lo + idx * grid.h, grid.h,
                                           np.asarray(q, dtype=float), total)
    return total ** (1.0 / p)
