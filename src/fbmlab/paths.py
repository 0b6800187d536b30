"""Exact simulation of fractional Brownian and Brownian paths on uniform grids.

Fractional Brownian motion with Hurst parameter H has covariance

    R(s, t) = 0.5 * (s**(2H) + t**(2H) - abs(t - s)**(2H))

so its increments over a uniform grid with spacing dt form a stationary
Gaussian sequence with autocovariance

    gamma(k) = 0.5 * dt**(2H) * (|k+1|**(2H) - 2|k|**(2H) + |k-1|**(2H)).

Sampling embeds the Toeplitz covariance of that sequence into a circulant
matrix of size 2N whose eigenvalues are the FFT of the first row; when all
eigenvalues are nonnegative the construction below draws from the exact
Gaussian law (Davies-Harte).  If the embedding fails to be nonnegative
definite the generator falls back to a dense Cholesky factorization of the
increment covariance, which is exact as well, just slower.

Randomness is counter-based: each (seed, path_index, component) triple keys
an independent Philox stream, so ensembles can be generated in any order,
or in parallel, without coupling between paths.  The key holds the seed in
64 bits and the path index and the component in 32 bits each, so seeds lie
in [0, 2**64) and path indices and components in [0, 2**32).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# numpy 2 loads numpy.random on first use; load it with the package, so
# the first draw does not pay for the import.
import numpy.random  # noqa: F401

from .errors import GenerationError, ParameterError, require_memory

# Relative tolerance for clipping roundoff-negative circulant eigenvalues.
_EIG_CLIP_RTOL = 1e-12
# Normals mapped together by one batched FFT, in whole (row, component)
# lines of 2N; bounds the scratch per call to this many normals and as many
# complex values, and a line longer than this goes alone.
BLOCK_NORMALS = 1 << 17


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * horizon / steps, k = 0..steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ParameterError(f"horizon must be positive and finite, got {self.horizon}")
        if self.steps < 1:
            raise ParameterError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def node_index(self, time: float) -> int:
        """Index k with |t_k - time| <= 1e-9 max(horizon, 1), or ParameterError."""
        k = round(time / self.dt)
        if k < 0 or k > self.steps or abs(k * self.dt - time) > 1e-9 * max(self.horizon, 1.0):
            raise ParameterError(f"time {time} is not aligned to the grid (dt={self.dt})")
        return int(k)

    def window(self, s: float, t: float) -> tuple[int, int]:
        """Node indices (k0, k1) of the window [s, t]; ParameterError unless k0 < k1."""
        k0, k1 = self.node_index(s), self.node_index(t)
        if not k0 < k1:
            raise ParameterError(f"need s < t on the time grid, got s={s}, t={t}")
        return k0, k1

    def subsample(self, factor: int) -> "TimeGrid":
        if factor < 1 or self.steps % factor != 0:
            raise ParameterError(f"factor {factor} does not divide steps {self.steps}")
        return TimeGrid(self.horizon, self.steps // factor)

    def dyadic_windows(self, max_level: int) -> list[tuple[int, int]]:
        """Node index pairs (k0, k1) of all dyadic windows up to max_level.

        Level j splits [0, horizon] into 2**j equal windows; steps must be
        divisible by 2**max_level so every window is node aligned.
        """
        if max_level < 0:
            raise ParameterError("max_level must be >= 0")
        if self.steps % (1 << max_level) != 0:
            raise ParameterError(
                f"steps {self.steps} not divisible by 2**{max_level}")
        out = []
        for j in range(max_level + 1):
            width = self.steps >> j
            for i in range(1 << j):
                out.append((i * width, (i + 1) * width))
        return out


@dataclass(frozen=True, eq=False)
class FbmPath:
    """One fractional Brownian path: values[c, k] = w^c(t_k), w(0) = 0."""

    hurst: float
    dimension: int
    grid: TimeGrid
    values: np.ndarray = field(repr=False)
    seed: int
    path_index: int = 0

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def to_csv(self, fh) -> None:
        _write_csv(fh, f"H={self.hurst} d={self.dimension} seed={self.seed} "
                   f"N={self.grid.steps} T={self.grid.horizon}",
                   ["t"] + [f"w_{c + 1}" for c in range(self.dimension)],
                   np.column_stack([self.times, self.values.T]))


def _write_csv(fh, comment: str, columns: list[str], rows) -> None:
    """A '# comment' line, a header line, then each row's floats by repr."""
    fh.write(f"# {comment}\n{','.join(columns)}\n")
    for row in rows:
        fh.write(",".join(repr(float(v)) for v in row) + "\n")


def fbm_covariance(s, t, hurst: float):
    """Exact covariance R(s, t) of scalar fBm."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(s) ** h2 + np.abs(t) ** h2 - np.abs(t - s) ** h2)


def _component_rng(seed: int, path_index: int, component: int) -> np.random.Generator:
    """Philox stream keyed by (seed, path_index, component) in _validate_rows ranges."""
    key = np.array([seed, (int(path_index) << 32) | component], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _fgn_autocov(hurst: float, n_steps: int, dt: float) -> np.ndarray:
    """gamma(0..n_steps) for fractional Gaussian noise with spacing dt."""
    k = np.arange(n_steps + 1, dtype=float)
    h2 = 2.0 * hurst
    g = 0.5 * ((k + 1.0) ** h2 - 2.0 * k ** h2 + np.abs(k - 1.0) ** h2)
    return g * dt ** h2


def _circulant_eigenvalues(gamma: np.ndarray) -> np.ndarray | None:
    """Eigenvalues of the 2N circulant embedding, or None if not nonneg definite."""
    first_row = np.concatenate([gamma, gamma[-2:0:-1]])
    lam = np.fft.fft(first_row).real
    floor = -_EIG_CLIP_RTOL * lam.max()
    if lam.min() < floor:
        return None
    return np.clip(lam, 0.0, None)


def _fgn_from_normals(lam: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Map each row of 2N iid standard normals through the circulant square root.

    z has shape (..., 2N) and the result (..., N): the real part of one
    row-wise FFT, taken in place in `out` (complex, z's shape).  The map is
    linear, so its exactness can be audited by pushing basis vectors
    through and comparing the implied covariance with gamma.
    """
    m = lam.size
    n = m // 2
    re, im = out.real, out.imag
    np.multiply(math.sqrt(lam[0] / m), z[..., 0], out=re[..., 0])
    np.multiply(math.sqrt(lam[n] / m), z[..., 1], out=re[..., n])
    im[..., 0] = im[..., n] = 0.0
    if n > 1:
        amp = np.sqrt(lam[1:n] / (2.0 * m))
        np.multiply(amp, z[..., 2:n + 1], out=re[..., 1:n])
        np.multiply(amp, z[..., n + 1:], out=im[..., 1:n])
        re[..., m - 1:n:-1] = re[..., 1:n]
        np.negative(im[..., 1:n], out=im[..., m - 1:n:-1])
    return np.fft.fft(out, axis=-1, out=out).real[..., :n]


def _fgn_cholesky(gamma: np.ndarray) -> np.ndarray:
    """Dense exact fallback: lower Cholesky factor of the Toeplitz increment covariance.

    The N x N covariance and its factor must fit in physical memory.
    """
    n = gamma.size - 1
    require_memory(16 * n * n, f"factoring the dense covariance of {n} increments")
    lag = np.arange(n)
    cov = gamma[np.abs(lag[:, None] - lag[None, :])]
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        eigs = np.linalg.eigvalsh(cov)
        raise GenerationError(
            f"increment covariance is numerically singular "
            f"(min eigenvalue {eigs.min():.3e}, max {eigs.max():.3e})") from exc


def _validate_rows(dimension: int, seed: int, first: int, count: int) -> None:
    """ParameterError unless rows first .. first + count - 1 have valid stream keys."""
    if not 1 <= dimension <= 1 << 32:
        raise ParameterError(f"dimension must lie in [1, 2**32], got {dimension}")
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    if not 0 <= seed < 1 << 64:
        raise ParameterError(f"seed must lie in [0, 2**64), got {seed}")
    if not 0 <= first <= first + count - 1 < 1 << 32:
        raise ParameterError(f"path indices must lie in [0, 2**32), got "
                             f"{first} .. {first + count - 1}")


def _fbm_rows(hursts: tuple[float, ...], dimension: int, grid: TimeGrid, seed: int,
              first: int, count: int, nodes: list[int] | None = None) -> np.ndarray:
    """Paths first .. first + count - 1 for each Hurst value in one array.

    The shape is (len(hursts), count, dimension, steps + 1), or, given
    `nodes`, (len(hursts), count, dimension, len(nodes)) holding only the
    values at those node indices.

    Each (row, component) Philox stream is built once and draws 2N normals
    once; every Hurst value maps that same draw, the circulant route through
    its embedding and the Cholesky route (when the embedding is not
    nonnegative definite) through the first N normals.  The (row, component)
    lines go in blocks of about BLOCK_NORMALS normals, one batched FFT per
    block and Hurst value, cumsummed straight into the output (or into one
    block of scratch when only `nodes` are kept).  Row i therefore depends
    on (seed, first + i) and its Hurst value only, not on the other Hurst
    values or the block.
    """
    for hurst in hursts:
        if not (0.0 < hurst < 1.0):
            raise ParameterError(f"hurst must lie in (0, 1), got {hurst}")
    _validate_rows(dimension, seed, first, count)
    n = grid.steps
    lines = count * dimension
    width = n + 1 if nodes is None else len(nodes)
    # The output, and the circulant embedding's 2N complex eigenvalue FFT.
    require_memory(8 * len(hursts) * lines * width + 32 * n,
                   f"sampling {count} path(s) of {n} steps")
    routes = []
    for hurst in hursts:
        gamma = _fgn_autocov(hurst, n, grid.dt)
        lam = _circulant_eigenvalues(gamma)
        routes.append((lam, None if lam is not None else _fgn_cholesky(gamma)))
    out = np.empty((len(routes), lines, width))
    # Scratch for one block of normals, its FFT and, when only nodes are
    # kept, its paths, reused by every block.
    per_block = min(lines, max(1, BLOCK_NORMALS // (2 * n)))
    normals = np.empty((per_block, 2 * n))
    spectrum = np.empty(normals.shape, dtype=complex)
    walk = out if nodes is None else np.empty((len(routes), per_block, n + 1))
    walk[..., 0] = 0.0
    for b0 in range(0, lines, per_block):
        b1 = min(b0 + per_block, lines)
        z = normals[:b1 - b0]
        for k, line in enumerate(range(b0, b1)):
            row, c = divmod(line, dimension)
            _component_rng(seed, first + row, c).standard_normal(out=z[k])
        at = slice(b0, b1) if nodes is None else slice(0, b1 - b0)
        for j, (lam, chol) in enumerate(routes):
            block = walk[j, at, 1:]
            if lam is not None:
                np.cumsum(_fgn_from_normals(lam, z, spectrum[:b1 - b0]), axis=-1, out=block)
            else:
                for k in range(b1 - b0):
                    np.cumsum(chol @ z[k, :n], out=block[k])
        if nodes is not None:
            out[:, b0:b1] = walk[:, :b1 - b0, nodes]
    return out.reshape(len(routes), count, dimension, width)


def _bm_rows(dimension: int, grid: TimeGrid, seed: int, first: int,
             count: int) -> np.ndarray:
    """Increments of Brownian paths first .. first + count - 1, (count, dimension, steps)."""
    _validate_rows(dimension, seed, first, count)
    scale = math.sqrt(grid.dt)
    out = np.empty((count, dimension, grid.steps))
    for i in range(count):
        for c in range(dimension):
            rng = _component_rng(seed, first + i, c)
            out[i, c] = scale * rng.standard_normal(grid.steps)
    return out


def generate_fbm(hurst: float, dimension: int, grid: TimeGrid, seed: int,
                 path_index: int = 0) -> FbmPath:
    """Sample one fBm path with independent components, exactly.

    Deterministic: the same (hurst, dimension, grid, seed, path_index)
    always returns bit-identical values.
    """
    values = _fbm_rows((hurst,), dimension, grid, seed, path_index, 1)[0, 0]
    return FbmPath(hurst, dimension, grid, values, seed, path_index)


def generate_fbm_batch(hurst: float, dimension: int, grid: TimeGrid, seed: int,
                       count: int) -> np.ndarray:
    """Values array of shape (count, dimension, steps + 1).

    Path i equals generate_fbm(..., path_index=i).values bit for bit: a
    single path is this batch with one row.
    """
    return _fbm_rows((hurst,), dimension, grid, seed, 0, count)[0]


def generate_bm_increments(dimension: int, grid: TimeGrid, seed: int,
                           count: int) -> np.ndarray:
    """Increment array of shape (count, dimension, steps) for a driver ensemble."""
    return _bm_rows(dimension, grid, seed, 0, count)
