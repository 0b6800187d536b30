"""Exact simulation of fractional Brownian and Brownian paths on uniform grids.

Fractional Brownian motion with Hurst parameter H has covariance

    R(s, t) = 0.5 * (s**(2H) + t**(2H) - abs(t - s)**(2H))

so its increments over a uniform grid with spacing dt form a stationary
Gaussian sequence with autocovariance

    gamma(k) = 0.5 * dt**(2H) * (|k+1|**(2H) - 2|k|**(2H) + |k-1|**(2H)).

Sampling embeds the Toeplitz covariance of that sequence into a circulant
matrix of size 2N whose eigenvalues are the FFT of the first row; when all
eigenvalues are nonnegative the construction below draws from the exact
Gaussian law (Davies-Harte).  An embedding that is not nonnegative definite
is refused with ParameterError before anything is drawn; that depends on
(H, N) alone.  Up to 2**17 steps it holds for every H <= 0.999, and it
fails from 2**16 steps at H = 0.9999, 2**15 at 0.99999 and 2**14 at
0.999999.

Each (H, N, dt) route, the embedding's N + 1 circulant amplitudes, is
computed once per process: `_sampling_route` keeps the ROUTE_CACHE_SIZE
routes used last, at most ROUTE_CACHE_SIZE * 8 (N + 1) bytes (4 MiB at
N = 2**16), as read-only arrays.  A refused embedding is not kept; it is
refused again on every call.

Randomness is counter-based: each (seed, path_index, component) triple keys
an independent Philox stream, so ensembles can be generated in any order,
or in parallel, without coupling between paths.  The key holds the seed in
64 bits and the path index and the component in 32 bits each, so seeds lie
in [0, 2**64) and path indices and components in [0, 2**32).  Each thread
keeps one Philox generator and re-keys it to the start of every stream it
draws, which gives the bits of a freshly built generator for that key in
about 1 us instead of 7.6 us (2-core x86-64 host, numpy 2.4).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np
# numpy 2 loads numpy.random on first use; load it with the package, so
# the first draw does not pay for the import.
import numpy.random  # noqa: F401

from .errors import ParameterError, require_memory

# Relative tolerance for clipping roundoff-negative circulant eigenvalues.
_EIG_CLIP_RTOL = 1e-12
# Normals mapped together by one batched FFT, in whole (row, component)
# lines of 2N; bounds the scratch per call to this many normals and as many
# complex values, and a line longer than this goes alone.  A block's
# normals, their FFT and its kept paths are all touched again within the
# block, so it is sized to fit a 2 MB per-core L2: at 1024 steps and three
# Hurst values, 16 lines hold 1.1 MB of scratch, where 1 << 17 (64 lines)
# holds 4.5 MB.  At the E1 audit's size (6000 paths) on a 2-core x86-64
# host, a fresh process takes 0.505 s against 0.525 s, faults 516 pages
# against 1,606 and peaks at 38.1 MB against 41.9 MB (medians of 5); in a
# warm process the two times agree within 2.5%.
BLOCK_NORMALS = 1 << 15
# Routes _sampling_route keeps; the pathwise benchmark job draws its eight
# paths on four (H, N, dt).
ROUTE_CACHE_SIZE = 8
# One Philox generator per thread, re-keyed by _component_rng.
_STREAMS = threading.local()


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
        if not math.isfinite(time):
            raise ParameterError(f"time must be finite, got {time}")
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


def _check_hurst(hurst: float) -> None:
    """ParameterError unless 0 < hurst < 1 (NaN too)."""
    if not 0.0 < hurst < 1.0:
        raise ParameterError(f"hurst must lie in (0, 1), got {hurst}")


def _write_csv(fh, comment: str, columns: list[str], rows) -> None:
    """A '# comment' line, a header line, then each row's floats by repr."""
    fh.write(f"# {comment}\n{','.join(columns)}\n")
    for row in rows:
        fh.write(",".join(repr(float(v)) for v in row) + "\n")


def fbm_covariance(s, t, hurst: float):
    """Exact covariance R(s, t) of scalar fBm; ParameterError unless 0 < H < 1."""
    _check_hurst(hurst)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(s) ** h2 + np.abs(t) ** h2 - np.abs(t - s) ** h2)


def _component_rng(seed: int, path_index: int, component: int) -> np.random.Generator:
    """Philox stream keyed by (seed, path_index, component) in _validate_rows ranges.

    Returns the calling thread's one generator, re-keyed to the start of
    that stream: zero counter, empty buffer, no held 32-bit half.  It draws
    the bits of Generator(Philox(key=...)) for the same key, without the OS
    entropy read and SeedSequence that building one costs.  The next call
    on the same thread re-keys the same generator, so draw from it before
    asking for another stream.
    """
    rng = getattr(_STREAMS, "rng", None)
    if rng is None:
        rng = _STREAMS.rng = np.random.Generator(np.random.Philox(key=0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0),
                  "key": (seed, (int(path_index) << 32) | int(component))},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def _fgn_autocov(hurst: float, n_steps: int, dt: float) -> np.ndarray:
    """gamma(0..n_steps) for fractional Gaussian noise with spacing dt.

    One power table p[j] = j**2H, j = 0 .. n_steps + 1, read three ways:
    (k + 1)**2H, k**2H and |k - 1|**2H, summed in that order.
    """
    h2 = 2.0 * hurst
    p = np.arange(n_steps + 2, dtype=float) ** h2
    below = np.concatenate([p[1:2], p[:n_steps]])
    g = 0.5 * (p[1:] - 2.0 * p[:-1] + below)
    return g * dt ** h2


def _circulant_eigenvalues(gamma: np.ndarray) -> np.ndarray | None:
    """Eigenvalues of the 2N circulant embedding, or None if not nonneg definite."""
    first_row = np.concatenate([gamma, gamma[-2:0:-1]])
    lam = np.fft.fft(first_row).real
    floor = -_EIG_CLIP_RTOL * lam.max()
    if lam.min() < floor:
        return None
    return np.clip(lam, 0.0, None)


def _circulant_amplitudes(lam: np.ndarray) -> np.ndarray:
    """The N + 1 weights of the circulant square root, from its 2N eigenvalues.

    Entries 0 and N scale one real normal each, sqrt(lam_k / 2N); entries
    1 .. N - 1 scale a (real, imaginary) pair, sqrt(lam_k / 4N).
    """
    m = lam.size
    n = m // 2
    amp = np.empty(n + 1)
    amp[0] = math.sqrt(lam[0] / m)
    amp[n] = math.sqrt(lam[n] / m)
    np.divide(lam[1:n], 2.0 * m, out=amp[1:n])
    np.sqrt(amp[1:n], out=amp[1:n])
    return amp


def _fgn_from_normals(amp: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Map each row of 2N iid standard normals through the circulant square root.

    `amp` holds _circulant_amplitudes of the embedding, z has shape
    (..., 2N) and the result (..., N): the real part of one row-wise FFT,
    taken in place in `out` (complex, z's shape).  The map is linear, so its
    exactness can be audited by pushing basis vectors through and comparing
    the implied covariance with gamma.
    """
    n = amp.size - 1
    m = 2 * n
    re, im = out.real, out.imag
    np.multiply(amp[0], z[..., 0], out=re[..., 0])
    np.multiply(amp[n], z[..., 1], out=re[..., n])
    im[..., 0] = im[..., n] = 0.0
    if n > 1:
        pairs = amp[1:n]
        np.multiply(pairs, z[..., 2:n + 1], out=re[..., 1:n])
        np.multiply(pairs, z[..., n + 1:], out=im[..., 1:n])
        re[..., m - 1:n:-1] = re[..., 1:n]
        np.negative(im[..., 1:n], out=im[..., m - 1:n:-1])
    return np.fft.fft(out, axis=-1, out=out).real[..., :n]


@functools.lru_cache(maxsize=ROUTE_CACHE_SIZE)
def _sampling_route(hurst: float, n: int, dt: float) -> np.ndarray:
    """The circulant amplitudes for n increments of spacing dt, or
    ParameterError when the embedding is not nonnegative definite.

    The last ROUTE_CACHE_SIZE routes are kept for the life of the process,
    read-only, at 8 (n + 1) bytes each; gamma and the eigenvalues are not.
    A refusal raises and is not kept, so it is raised again on every call.
    """
    gamma = _fgn_autocov(hurst, n, dt)
    lam = _circulant_eigenvalues(gamma)
    if lam is None:
        raise ParameterError(
            f"the circulant embedding of fBm increments at H={hurst} and {n} steps "
            f"is not nonnegative definite, so they cannot be sampled exactly")
    amp = _circulant_amplitudes(lam)
    amp.flags.writeable = False
    return amp


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

    Each (row, component) Philox stream is keyed once and draws 2N normals
    once; every Hurst value maps that same draw through its embedding's
    amplitudes, taken from _sampling_route once per Hurst value before the
    output and the scratch are allocated, so a refused embedding fails
    first.  The
    (row, component) lines go in blocks of about BLOCK_NORMALS normals, one
    batched FFT per block and Hurst value, cumsummed straight into the
    output (or into one block of scratch when only `nodes` are kept).  Row i
    therefore depends on (seed, first + i) and its Hurst value only, not on
    the other Hurst values or the block.
    """
    for hurst in hursts:
        _check_hurst(hurst)
    _validate_rows(dimension, seed, first, count)
    n = grid.steps
    lines = count * dimension
    width = n + 1 if nodes is None else len(nodes)
    # Scratch for one block of lines, reused by every block: each line's 2N
    # normals and their complex FFT (48 N bytes) and, when only nodes are
    # kept, its paths.
    per_block = min(lines, max(1, BLOCK_NORMALS // (2 * n)))
    walk_bytes = 0 if nodes is None else 8 * len(hursts) * (n + 1)
    # The output, the scratch, and the circulant embedding's 2N complex
    # eigenvalue FFT, which a kept route does not allocate.
    require_memory(8 * len(hursts) * lines * width + per_block * (48 * n + walk_bytes)
                   + 32 * n, f"sampling {count} path(s) of {n} steps")
    amps = [_sampling_route(float(hurst), n, grid.dt) for hurst in hursts]
    out = np.empty((len(amps), lines, width))
    normals = np.empty((per_block, 2 * n))
    spectrum = np.empty(normals.shape, dtype=complex)
    walk = out if nodes is None else np.empty((len(amps), per_block, n + 1))
    walk[..., 0] = 0.0
    for b0 in range(0, lines, per_block):
        b1 = min(b0 + per_block, lines)
        z = normals[:b1 - b0]
        for k, line in enumerate(range(b0, b1)):
            row, c = divmod(line, dimension)
            _component_rng(seed, first + row, c).standard_normal(out=z[k])
        at = slice(b0, b1) if nodes is None else slice(0, b1 - b0)
        for j, amp in enumerate(amps):
            np.cumsum(_fgn_from_normals(amp, z, spectrum[:b1 - b0]), axis=-1,
                      out=walk[j, at, 1:])
        if nodes is not None:
            out[:, b0:b1] = walk[:, :b1 - b0, nodes]
    return out.reshape(len(amps), count, dimension, width)


def _bm_rows(dimension: int, grid: TimeGrid, seed: int, first: int,
             count: int) -> np.ndarray:
    """Increments of Brownian paths first .. first + count - 1, (count, dimension, steps).

    Each (row, component) stream draws its N normals straight into its row,
    and one multiply scales them all: entry k is fl(sqrt(dt) * z_k).
    """
    _validate_rows(dimension, seed, first, count)
    out = np.empty((count, dimension, grid.steps))
    for i in range(count):
        for c in range(dimension):
            _component_rng(seed, first + i, c).standard_normal(out=out[i, c])
    out *= math.sqrt(grid.dt)
    return out


def generate_fbm(hurst: float, dimension: int, grid: TimeGrid, seed: int,
                 path_index: int = 0) -> FbmPath:
    """Sample one fBm path with independent components, exactly.

    Deterministic: the same (hurst, dimension, grid, seed, path_index)
    always returns bit-identical values.
    """
    values = _fbm_rows((hurst,), dimension, grid, seed, path_index, 1)[0, 0]
    return FbmPath(hurst, dimension, grid, values, seed, path_index)

