"""Matrix-valued coefficient fields, mollification and integral norms.

A field maps points of R^d to d x n matrices.  The running singular
example is sigma(x) = |x|**(-gamma) * Id restricted to the ball of radius
K; it belongs to L^p exactly when gamma < d / p, which the quadrature
below can confirm or refute numerically.  A field flags its own singular
points, and lp_norm refines the bins at exactly those.

Mollification convolves the field with the fixed bump (1 - |u|^2)**4 after
a smooth cut-off: sigma_eps = rho_eps * (phi_eps * sigma), where rho_eps has
support in the ball of radius eps and unit mass, and phi_eps equals 1 on
the ball of radius 1/(2 eps) and 0 outside radius 1/eps.  The convolution
runs entry by entry on a sampling grid via zero-padded FFT, and the result
evaluates anywhere through multilinear interpolation (zero outside the
sampled box, matching the compact support of the mollified field).
Fields subtract pointwise, which is how the Cauchy gaps between radii are
built.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ClampWarning, IntegrabilityWarning, ParameterError,
                     ResolutionError)
from .occupation import SpatialGrid, multilinear_interpolate

# Value returned when a singular field is evaluated exactly at its
# singular point; large enough to poison any identity the evaluation
# should not have entered, finite so arrays stay usable.
CLAMP_VALUE = 1.0e9


class MatrixField:
    """Pointwise d x n matrix field with a vectorized oracle.

    oracle(points) must accept arrays of shape (..., d) and return
    (..., d, n).  Fields are immutable after construction and safe to
    share between threads.
    """

    def __init__(self, oracle, d: int, n: int, *,
                 support_radius: float | None = None,
                 singular_points: tuple = (), label: str = "field",
                 grid_values: np.ndarray | None = None):
        self._oracle = oracle
        self.d = int(d)
        self.n = int(n)
        self.support_radius = support_radius
        self.singular_points = tuple(np.asarray(q, dtype=float) for q in singular_points)
        self.label = label
        self.grid_values = grid_values

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
        return np.broadcast_to(mat, pts.shape[:-1] + (d, n)).copy()

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
        r = np.linalg.norm(pts, axis=-1)
        at_origin = r == 0.0
        if np.any(at_origin):
            warnings.warn("singular field evaluated exactly at the origin; "
                          f"clamped to {CLAMP_VALUE:.1e}", ClampWarning, stacklevel=3)
        safe = np.where(at_origin, 1.0, r)
        amp = np.where(at_origin, CLAMP_VALUE, safe ** (-gamma))
        amp = np.where(r <= radius, amp, 0.0)
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
        """integral over the unit ball of (1 - |u|^2)**4, exactly."""
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
    the deep interior.  Off the grid the result evaluates to 0, consistent
    with support inside the ball of radius 1/eps + eps.
    """
    eps = spec.epsilon
    if grid.h > eps / 4.0 + 1e-15:
        raise ResolutionError(
            f"grid h={grid.h} too coarse for eps={eps}; need h <= eps/4")
    if grid.dimension != field.d:
        raise ParameterError("grid and field dimensions differ")
    mesh = grid.centers_mesh()
    cut = spec.cutoff(mesh)
    samples = field(mesh) * cut[..., None, None]

    reach = int(math.ceil(eps / grid.h))
    axes = np.meshgrid(*([np.arange(-reach, reach + 1) * grid.h] * grid.dimension),
                       indexing="ij")
    offsets = np.stack(axes, axis=-1)
    kernel = spec.rho_scaled(offsets) * grid.cell_volume
    total = kernel.sum()
    if total <= 0.0:
        raise ResolutionError("mollifier kernel vanished on the grid")
    kernel = kernel / total

    out = np.empty_like(samples)
    for i in range(field.d):
        for j in range(field.n):
            out[..., i, j] = _fftconvolve(samples[..., i, j], kernel, same=True)

    radius = 1.0 / eps + eps
    if field.support_radius is not None:
        radius = min(radius, field.support_radius + eps)
    return MatrixField(lambda pts: _lattice_values(grid, out, radius, pts),
                       field.d, field.n, support_radius=radius,
                       label=f"mollified({field.label},{eps})", grid_values=out)


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


# Cephes Gamma (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), which scipy.special.gamma evaluates: a rational
# approximation on [2, 3), reached by recurrence, and Stirling's series
# above 33.  math.gamma rounds differently at most half-integers.
_GAMMA_P = (1.60119522476751861407e-4, 1.19135147006586384913e-3,
            1.04213797561761569935e-2, 4.76367800457137231464e-2,
            2.07448227648435975150e-1, 4.94214826801497100753e-1,
            9.99999999999999996796e-1)
_GAMMA_Q = (-2.31581873324120129819e-5, 5.39605580493303397842e-4,
            -4.45641913851797240494e-3, 1.18139785222060435552e-2,
            3.58236398605498653373e-2, -2.34591795718243348568e-1,
            7.14304917030273074085e-2, 1.00000000000000000320e0)
_STIRLING = (7.87311395793093628397e-4, -2.29549961613378126380e-4,
             -2.68132617805781232825e-3, 3.47222221605458667310e-3,
             8.33333333333482257126e-2)


def _polevl(x: float, coefs: tuple) -> float:
    acc = coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def _gamma(x: float) -> float:
    """Gamma(x) for x >= 1, bit-equal to scipy.special.gamma there."""
    x = float(x)
    if x >= 171.624376956302725:
        return math.inf
    if x > 33.0:
        w = 1.0 / x
        w = 1.0 + w * _polevl(w, _STIRLING)
        y = math.exp(x)
        if x > 143.01608:
            v = x ** (0.5 * x - 0.25)
            y = v * (v / y)
        else:
            y = x ** (x - 0.5) / y
        return 2.50662827463100050242 * y * w
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


def _lattice_values(grid: SpatialGrid, table: np.ndarray, radius, pts,
                    members=None) -> np.ndarray:
    """Interpolated table at pts, zero off the lattice and beyond radius.

    table has shape grid.shape + entry shape; radius is a float, or one
    radius per member of a stacked (..., k, d, n) table.  With members (see
    multilinear_interpolate) each point reads its own member, and radius
    holds the radius of each point's member.
    """
    vals = multilinear_interpolate(grid.lower, grid.h, table, pts, members=members)
    # The convolution support is a ball; clip FFT dust outside it.  In d = 1
    # the norm is |x|: sqrt(fl(x^2)) = |x|, and where x^2 under- or
    # overflows both compare with radius alike.
    r = np.abs(pts[..., 0]) if pts.shape[-1] == 1 else np.linalg.norm(pts, axis=-1)
    # np.where in place.  A stacked table is clipped one member at a time: a
    # mask of every point against every radius would make numpy loop over
    # the short member axis innermost.
    stacked = members is None and np.ndim(radius)
    for part, rad in zip(np.moveaxis(vals, -3, 0), radius) if stacked else [(vals, radius)]:
        np.copyto(part, 0.0, where=(r > rad)[..., None, None])
    return vals


class LatticeStack:
    """Lattice fields on one grid, interpolated together.

    table has shape grid.shape + (k, d, n).  Member e interpolates
    table[..., e, :, :] between bin centers and vanishes off the lattice
    and beyond radii[e], as a mollified field does.  Calling the stack at
    points (..., d) returns every member, (..., k, d, n), from one
    base/fraction computation per point; member e's own evaluation is
    bit-equal to slice e of that call.
    """

    def __init__(self, grid: SpatialGrid, table: np.ndarray, radii):
        self.grid = grid
        self.table = table
        self.radii = tuple(float(r) for r in radii)

    def __call__(self, points) -> np.ndarray:
        return _lattice_values(self.grid, self.table, np.asarray(self.radii),
                               np.asarray(points, dtype=float))

    def gather(self, members):
        """Member members[j] at points[j], as a function (k, ..., d) -> (k, ..., d, n).

        Each call is one interpolation for all k point sets; slice j is
        bit-equal to member members[j]'s own evaluation at points[j].  The
        member index and each member's radius are taken here, once.
        """
        index = np.asarray(members)
        radius = np.asarray(self.radii)[index]

        def evaluate(points) -> np.ndarray:
            pts = np.asarray(points, dtype=float)
            per_set = (-1,) + (1,) * (pts.ndim - 2)
            return _lattice_values(self.grid, self.table, radius.reshape(per_set),
                                   pts, members=index.reshape(per_set))
        return evaluate

    def member(self, e: int, *, label: str) -> MatrixField:
        table, radius = self.table[..., e, :, :], self.radii[e]
        d, n = table.shape[-2:]
        # Read through the whole stacked table: np.take would copy the
        # non-contiguous slice on every call.
        fld = MatrixField(lambda pts: _lattice_values(self.grid, self.table, radius, pts,
                                                      members=e),
                          d, n, support_radius=radius, label=label, grid_values=table)
        fld.lattice = (self, e)
        return fld


def evaluate_together(fields, points) -> np.ndarray:
    """Every field at the same points, shape (..., len(fields), d, n).

    Bit-equal to stacking each field's own evaluation on axis -3.  When the
    fields are the members of one LatticeStack in stack order, the stack
    interpolates them in one call; otherwise each field is evaluated on its
    own, so a field listed twice is evaluated twice.
    """
    lattice = [getattr(f, "lattice", None) for f in fields]
    stack = lattice[0][0] if lattice[0] is not None else None
    if stack is not None and lattice == [(stack, e) for e in range(len(stack.radii))]:
        return stack(points)
    return np.stack([f(points) for f in fields], axis=-3)


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
    return lambda points: np.stack([f(pts) for f, pts in zip(fields, points)])


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
    if p <= 0.0:
        raise ParameterError(f"p must be positive, got {p}")
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
