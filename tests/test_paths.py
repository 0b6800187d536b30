"""Driver sampling: exact covariance, linear-map audit, determinism."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from fbmlab import (ParameterError, TimeGrid, experiments, fbm_covariance,
                    generate_fbm, paths)
from fbmlab.paths import (_circulant_amplitudes, _circulant_eigenvalues,
                          _fgn_autocov, _fgn_from_normals)


def test_covariance_closed_form_values():
    # R(s,t) = (s^2H + t^2H - |t-s|^2H)/2; at s=1/4, t=1/2, H=1/4 the three
    # powers are 1/2, sqrt(1/2), 1/2, so R = sqrt(1/2)/2.
    assert fbm_covariance(0.25, 0.5, 0.25) == pytest.approx(
        0.5 * math.sqrt(0.5), rel=1e-15)
    assert fbm_covariance(0.25, 0.5, 0.25) == 0.35355339059327373
    # H = 1/2 reduces to the Brownian covariance min(s, t).
    for s, t in [(0.125, 0.75), (0.5, 0.5), (1.0, 0.25)]:
        assert fbm_covariance(s, t, 0.5) == min(s, t)
    assert fbm_covariance(0.3, 0.7, 0.1) == fbm_covariance(0.7, 0.3, 0.1)
    assert fbm_covariance(0.6, 0.6, 0.3) == pytest.approx(0.6 ** 0.6, rel=1e-15)


@pytest.mark.parametrize("hurst", [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99])
def test_circulant_map_is_exact(hurst):
    """Push basis vectors through the sampling map and recover the covariance.

    The generator is a fixed linear map z -> A z of 2N iid normals; the
    implied increment covariance A A^T must equal the Toeplitz matrix of the
    fractional Gaussian noise autocovariance.
    """
    n = 64
    gamma = _fgn_autocov(hurst, n, 1.0 / n)
    lam = _circulant_eigenvalues(gamma)
    assert lam is not None
    amp = _circulant_amplitudes(lam)
    cols = [_fgn_from_normals(amp, e, np.empty(2 * n, complex)) for e in np.eye(2 * n)]
    a = np.stack(cols, axis=1)
    err = np.max(np.abs(a @ a.T - toeplitz(gamma[:-1])))
    assert err < 1e-13


@pytest.mark.parametrize("hurst", [0.1, 0.5, 0.95])
@pytest.mark.parametrize("steps", [1, 2, 17, 256])
def test_circulant_map_reproduces_the_scipy_toeplitz_matrix(hurst, steps):
    """On the smallest grids (one step: a 2 x 2 embedding with no pairs),
    an odd one and a longer one, the sampling map's implied covariance is
    scipy's Toeplitz matrix of gamma to within 1e-14 of gamma(0)."""
    gamma = _fgn_autocov(hurst, steps, 1.0 / steps)
    amp = _circulant_amplitudes(_circulant_eigenvalues(gamma))
    a = _fgn_from_normals(amp, np.eye(2 * steps), np.empty((2 * steps, 2 * steps), complex)).T
    assert a.shape == (steps, 2 * steps)
    err = np.max(np.abs(a @ a.T - toeplitz(gamma[:-1])))
    assert err <= 1e-14 * gamma[0]


@pytest.mark.parametrize("hurst", [0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999])
def test_embedding_stays_positive_near_one(hurst):
    """Circulant embedding (Davies-Harte 1987, Dietrich-Newsam 1997) samples
    exactly when the embedding's eigenvalues are nonnegative.  For
    fractional Gaussian noise the raw eigenvalues stay clear of the
    clipping tolerance up to H = 0.999: by 1e-8 of the largest up to 2**14
    steps, and by 1e-9 (H = 0.999 reads 1.6e-9) at 2**17."""
    for n, margin in ((2 ** 4, 1e-8), (2 ** 10, 1e-8), (2 ** 14, 1e-8), (2 ** 17, 1e-9)):
        gamma = _fgn_autocov(hurst, n, 1.0 / n)
        lam = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
        assert lam.min() >= margin * lam.max()
        assert np.array_equal(_circulant_eigenvalues(gamma), lam)


@pytest.mark.parametrize("hurst,accepted", [(0.9999, 15), (0.99999, 14), (0.999999, 13)])
def test_embedding_is_refused_only_beyond_the_measured_boundary(hurst, accepted):
    """Closer to H = 1 the embedding's smallest eigenvalue falls through the
    clipping tolerance as the grid grows: up to 2**accepted steps it is
    accepted, from twice that on it is refused."""
    for n in (2 ** accepted, 2 ** (accepted + 1)):
        lam = _circulant_eigenvalues(_fgn_autocov(hurst, n, 1.0 / n))
        assert (lam is not None) == (n == 2 ** accepted)


def test_brownian_autocovariance_is_diagonal():
    g = _fgn_autocov(0.5, 16, 0.25)
    assert g[0] == pytest.approx(0.25, rel=1e-15)
    assert np.max(np.abs(g[1:])) < 1e-15


def _three_power_autocov(hurst, n, dt):
    """gamma(0..n) with (k + 1)**2H, k**2H and |k - 1|**2H each raised on its own."""
    k = np.arange(n + 1, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * ((k + 1.0) ** h2 - 2.0 * k ** h2 + np.abs(k - 1.0) ** h2) * dt ** h2


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.integers(1, 2 ** 16), st.floats(2.0 ** -10, 2.0 ** 10))
def test_power_table_autocovariance_is_the_three_power_formula(hurst, n, horizon):
    """_fgn_autocov reads one table j**2H three ways; every entry has the
    bits, sign bit included, of raising the three powers one by one."""
    got = _fgn_autocov(hurst, n, horizon / n)
    want = _three_power_autocov(hurst, n, horizon / n)
    assert got.shape == (n + 1,)
    assert got.tobytes() == want.tobytes()


def _uncached_route(hurst, n, dt):
    return _circulant_amplitudes(_circulant_eigenvalues(_fgn_autocov(hurst, n, dt)))


def test_cold_and_warm_routes_give_the_same_bits():
    """A path drawn with the route just computed and one drawn with the
    kept route are the same bits, for one path and for a batch."""
    grid = TimeGrid(1.0, 512)
    route = paths._sampling_route
    draws = (lambda: generate_fbm(0.3, 2, grid, 4, path_index=3).values,
             lambda: paths._fbm_rows((0.3, 0.7), 2, grid, 4, 0, 5))
    for draw in draws:
        route.cache_clear()
        cold = draw()
        misses = route.cache_info().misses
        warm = draw()
        assert route.cache_info().misses == misses
        assert route.cache_info().hits >= 1
        assert cold.tobytes() == warm.tobytes()
    assert np.array_equal(route(0.7, 512, grid.dt), _uncached_route(0.7, 512, grid.dt))


def test_route_key_separates_hurst_steps_and_spacing():
    """Same N at two horizons, another H and another N are four routes,
    each that of its own (H, N, dt)."""
    route = paths._sampling_route
    route.cache_clear()
    keys = [(0.3, 256, 1.0 / 256), (0.3, 256, 2.0 / 256), (0.7, 256, 1.0 / 256),
            (0.3, 128, 1.0 / 256)]
    for key in keys:
        assert np.array_equal(route(*key), _uncached_route(*key))
    assert route.cache_info().currsize == len(keys)
    assert not np.array_equal(route(*keys[0]), route(*keys[1]))
    for horizon in (1.0, 2.0):
        grid = TimeGrid(horizon, 256)
        kept = generate_fbm(0.3, 1, grid, 9).values
        route.cache_clear()
        assert np.array_equal(generate_fbm(0.3, 1, grid, 9).values, kept)


def test_kept_amplitudes_refuse_writes():
    amp = paths._sampling_route(0.3, 64, 1.0 / 64)
    assert not amp.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        amp[0] = 1.0
    assert np.array_equal(paths._sampling_route(0.3, 64, 1.0 / 64),
                          _uncached_route(0.3, 64, 1.0 / 64))


def test_refused_embedding_is_refused_on_every_call_and_not_kept():
    route = paths._sampling_route
    route.cache_clear()
    grid = TimeGrid(1.0, 2 ** 14)
    for calls in (1, 2, 3):
        with pytest.raises(ParameterError, match="not nonnegative definite"):
            generate_fbm(0.999999, 1, grid, 1)
        info = route.cache_info()
        assert (info.misses, info.hits, info.currsize) == (calls, 0, 0)


@pytest.mark.parametrize("hurst", [0.0, 1.0, -0.2, 1.5, math.nan, math.inf])
def test_covariance_refuses_hurst_outside_the_open_unit_interval(hurst):
    with pytest.raises(ParameterError, match="hurst must lie in"):
        fbm_covariance(0.25, 0.5, hurst)


def test_generation_is_deterministic():
    grid = TimeGrid(1.0, 128)
    a = generate_fbm(0.3, 2, grid, 42)
    b = generate_fbm(0.3, 2, grid, 42)
    assert np.array_equal(a.values, b.values)
    assert a.values.shape == (2, 129)
    assert np.all(a.values[:, 0] == 0.0)
    c = generate_fbm(0.3, 2, grid, 43)
    assert not np.allclose(a.values, c.values)


def test_batch_matches_per_path_bitwise():
    grid = TimeGrid(1.0, 64)
    batch = paths._fbm_rows((0.25,), 2, grid, 7, 0, 4)[0]
    for i in (0, 3):
        single = generate_fbm(0.25, 2, grid, 7, path_index=i)
        assert np.array_equal(batch[i], single.values)


def test_bm_increment_ensemble_matches_paths():
    grid = TimeGrid(2.0, 32)
    db = paths._bm_rows(3, grid, 9, 0, 3)
    for i in range(3):
        assert np.array_equal(db[i], paths._bm_rows(3, grid, 9, i, 1)[0])


# --- Philox streams ---------------------------------------------------------------


def _fresh_rng(seed, path_index, component):
    key = np.array([seed, (path_index << 32) | component], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _leave_state_behind(rng, how):
    """Draws that leave the stream mid-buffer: an odd number of 32-bit
    integers holds a spare 32-bit half, a few normals leave buffered words."""
    if how == "odd uint32":
        rng.integers(0, 2 ** 32, size=3, dtype=np.uint32)
    elif how == "partial normals":
        rng.standard_normal(5)
    else:
        rng.integers(0, 2 ** 32, dtype=np.uint32)
        rng.standard_normal(3)
        rng.random(1)


@pytest.mark.parametrize("how", ["odd uint32", "partial normals", "mixed"])
@pytest.mark.parametrize("key", [(0, 0, 0), (11, 699, 0), (2 ** 64 - 1, 2 ** 32 - 1, 3)])
def test_rekeyed_stream_is_a_fresh_generator(how, key):
    """The thread's re-keyed generator draws the bytes of a freshly built
    Generator(Philox(key=...)), whatever the previous stream left behind."""
    _leave_state_behind(paths._component_rng(5, 1, 2), how)
    rng = paths._component_rng(*key)
    fresh = _fresh_rng(*key)
    assert rng.bit_generator.state["state"]["key"].tobytes() == \
        fresh.bit_generator.state["state"]["key"].tobytes()
    for draw in (lambda g: g.integers(0, 2 ** 32, size=3, dtype=np.uint32),
                 lambda g: g.standard_normal(7), lambda g: g.random(2),
                 lambda g: g.integers(0, 2 ** 32, dtype=np.uint32),
                 lambda g: g.standard_normal(33)):
        assert draw(rng).tobytes() == draw(fresh).tobytes()


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_bm_rows_are_scaled_fresh_streams(dimension):
    grid = TimeGrid(0.7, 37)
    seed, first, count = 23, 5, 4
    rows = paths._bm_rows(dimension, grid, seed, first, count)
    for i in range(count):
        for c in range(dimension):
            want = math.sqrt(grid.dt) * _fresh_rng(seed, first + i, c).standard_normal(37)
            assert rows[i, c].tobytes() == want.tobytes()


def test_rows_drawn_on_two_threads_at_once_are_the_serial_rows():
    """Each thread re-keys its own generator, so two threads drawing at once
    get the rows a serial call gets, byte for byte."""
    from concurrent.futures import ThreadPoolExecutor

    grid = TimeGrid(1.0, 16)
    jobs = [(kind, seed) for seed in range(8) for kind in ("fbm", "bm")]

    def draw(job):
        kind, seed = job
        if kind == "fbm":
            return paths._fbm_rows((0.3, 0.7), 2, grid, seed, 0, 300)
        return paths._bm_rows(3, grid, seed, 0, 400)

    serial = [draw(job).tobytes() for job in jobs]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # so the threads interleave between draws
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(3):
                drawn = pool.map(draw, jobs, timeout=60)
                assert [rows.tobytes() for rows in drawn] == serial
    finally:
        sys.setswitchinterval(switch)


def test_routes_asked_for_on_four_threads_at_once_are_the_serial_routes():
    """Four threads ask for more routes than are kept, so routes are added
    and evicted while other threads read them; each read has the bits of
    the route computed alone, and no more than ROUTE_CACHE_SIZE are kept."""
    from concurrent.futures import ThreadPoolExecutor

    keys = [(hurst, n, 1.0 / n) for hurst in (0.2, 0.4, 0.6) for n in (16, 64, 256, 1024)]
    assert len(keys) > paths.ROUTE_CACHE_SIZE
    want = [_uncached_route(*key).tobytes() for key in keys] * 4
    paths._sampling_route.cache_clear()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(3):
                got = pool.map(lambda key: paths._sampling_route(*key).tobytes(),
                               keys * 4, timeout=60)
                assert list(got) == want
    finally:
        sys.setswitchinterval(switch)
    assert paths._sampling_route.cache_info().currsize == paths.ROUTE_CACHE_SIZE


# (seed, count, index < count, dimension, steps)
_batches = st.integers(1, 6).flatmap(lambda count: st.tuples(
    st.integers(0, 2 ** 63), st.just(count), st.integers(0, count - 1),
    st.integers(1, 3), st.sampled_from([1, 2, 5, 16, 33])))


def _assert_batch_rows_are_single_paths(seed, count, index, d, steps, hurst):
    grid = TimeGrid(1.0, steps)
    fbm = paths._fbm_rows((hurst,), d, grid, seed, 0, count)[0]
    assert fbm.shape == (count, d, steps + 1)
    assert np.array_equal(fbm[index], generate_fbm(hurst, d, grid, seed, index).values)
    db = paths._bm_rows(d, grid, seed, 0, count)
    assert db.shape == (count, d, steps)
    assert np.array_equal(db[index], paths._bm_rows(d, grid, seed, index, 1)[0])


@settings(max_examples=40, deadline=None)
@given(_batches, st.sampled_from([0.1, 0.25, 0.5, 0.75]))
def test_batch_row_is_the_single_path(batch, hurst):
    _assert_batch_rows_are_single_paths(*batch, hurst)


# (hursts, seed, first, count, dimension, steps) with counts around a block
# of 3 lines: just below, at and above it, and up to three blocks.  At
# d = 2 a block boundary can split a path's components.
_SMALL_BLOCK = 3
_multi = st.tuples(
    st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.75]), min_size=1, max_size=3).map(tuple),
    st.integers(0, 2 ** 63), st.integers(0, 2 ** 20),
    st.one_of(st.sampled_from([_SMALL_BLOCK - 1, _SMALL_BLOCK, _SMALL_BLOCK + 1]),
              st.integers(1, 3 * _SMALL_BLOCK + 1)),
    st.sampled_from([1, 2]), st.sampled_from([1, 2, 5, 16, 33]))


def _assert_rows_do_not_depend_on_company(hursts, seed, first, count, d, steps):
    """Row i at hursts[j] is the single path first + i at hursts[j] alone,
    and keeping only some nodes keeps exactly those columns."""
    grid = TimeGrid(1.0, steps)
    rows = paths._fbm_rows(hursts, d, grid, seed, first, count)
    assert rows.shape == (len(hursts), count, d, steps + 1)
    nodes = [steps, 0, steps // 2, steps]
    assert np.array_equal(
        paths._fbm_rows(hursts, d, grid, seed, first, count, nodes=nodes), rows[..., nodes])
    for j, hurst in enumerate(hursts):
        assert np.array_equal(rows[j], paths._fbm_rows((hurst,), d, grid, seed,
                                                       first, count)[0])
        for i in range(count):
            single = generate_fbm(hurst, d, grid, seed, path_index=first + i)
            assert np.array_equal(rows[j, i], single.values)
    return rows


@settings(max_examples=30, deadline=None)
@given(_multi)
def test_rows_for_several_hursts_are_the_single_hurst_rows(case):
    hursts, seed, first, count, d, steps = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paths, "BLOCK_NORMALS", _SMALL_BLOCK * 2 * steps)
        rows = _assert_rows_do_not_depend_on_company(hursts, seed, first, count, d, steps)
    # The block size does not change a row either.
    assert np.array_equal(
        rows, paths._fbm_rows(hursts, d, TimeGrid(1.0, steps), seed, first, count))


@pytest.mark.parametrize("hurst,steps", [(0.9999, 2 ** 16), (0.999999, 2 ** 14)])
def test_refused_embedding_fails_before_the_output_is_allocated(hurst, steps):
    """An embedding that is not nonnegative definite is a ParameterError
    naming H and the step count, for one path, a batch and a multi-Hurst
    call in which only that Hurst value is refused.  It is raised before
    the output is allocated: the batch and multi-Hurst calls, each with
    128 lines of steps + 1 floats per Hurst value, peak below an eighth of
    one Hurst value's output (the embedding and the amplitudes kept before
    it take about 96 bytes per step)."""
    grid = TimeGrid(1.0, steps)
    message = rf"embedding of fBm increments at H={hurst} and {steps} steps"
    with pytest.raises(ParameterError, match=message):
        generate_fbm(hurst, 1, grid, 1)
    for sample in (lambda: paths._fbm_rows((hurst,), 2, grid, 1, 0, 64),
                   lambda: paths._fbm_rows((0.3, hurst, 0.7), 2, grid, 1, 0, 64)):
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match=message):
                sample()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * (steps + 1)


def test_components_and_paths_are_independent_streams():
    grid = TimeGrid(1.0, 64)
    p = generate_fbm(0.5, 2, grid, 5)
    assert not np.allclose(p.values[0], p.values[1])
    q = generate_fbm(0.5, 2, grid, 5, path_index=1)
    assert not np.allclose(p.values, q.values)


def test_empirical_covariance_tracks_formula():
    grid = TimeGrid(1.0, 64)
    batch = paths._fbm_rows((0.25,), 1, grid, 17, 0, 4000)[0, :, 0, :]
    s, t = 0.25, 0.75
    ks, kt = grid.node_index(s), grid.node_index(t)
    prods = batch[:, ks] * batch[:, kt]
    z = abs(prods.mean() - fbm_covariance(s, t, 0.25)) / (prods.std(ddof=1) / 63.245)
    assert z < 4.0


def test_parameter_validation():
    grid = TimeGrid(1.0, 16)
    with pytest.raises(ParameterError):
        generate_fbm(0.0, 1, grid, 1)
    with pytest.raises(ParameterError):
        generate_fbm(1.0, 1, grid, 1)
    with pytest.raises(ParameterError):
        generate_fbm(0.5, 0, grid, 1)
    with pytest.raises(ParameterError):
        generate_fbm(0.5, 1, grid, 1, path_index=-1)
    with pytest.raises(ParameterError):
        TimeGrid(0.0, 16)
    with pytest.raises(ParameterError):
        TimeGrid(1.0, 0)
    with pytest.raises(ParameterError):
        paths._fbm_rows((0.5,), 1, grid, 1, 0, 0)


def test_stream_keys_out_of_range_are_rejected():
    """Philox keys hold the seed in 64 bits and the path index in 32, so a
    seed or an index past its field would repeat another path's stream."""
    grid = TimeGrid(1.0, 16)
    for seed, first, count in [(2 ** 64, 0, 1), (-1, 0, 1), (0, 2 ** 32, 1),
                               (0, 2 ** 32 - 2, 3)]:
        with pytest.raises(ParameterError, match="must lie in"):
            paths._fbm_rows((0.3,), 1, grid, seed, first, count)
        with pytest.raises(ParameterError, match="must lie in"):
            paths._bm_rows(1, grid, seed, first, count)
        if count == 1:
            with pytest.raises(ParameterError, match="must lie in"):
                generate_fbm(0.3, 1, grid, seed, path_index=first)
    # The largest keys are valid, and distinct from the smallest.
    top = generate_fbm(0.3, 1, grid, 2 ** 64 - 1, path_index=2 ** 32 - 1).values
    assert not np.array_equal(top, generate_fbm(0.3, 1, grid, 0).values)
    assert np.array_equal(
        paths._fbm_rows((0.3,), 1, grid, 2 ** 64 - 1, 2 ** 32 - 2, 2)[0, 1], top)


@pytest.mark.parametrize("dimension", [0, -1])
def test_batch_generators_reject_nonpositive_dimension(dimension):
    grid = TimeGrid(1.0, 16)
    with pytest.raises(ParameterError, match="dimension"):
        paths._fbm_rows((0.5,), dimension, grid, 1, 0, 4)
    with pytest.raises(ParameterError, match="dimension"):
        paths._bm_rows(dimension, grid, 1, 0, 4)


def test_time_grid_node_lookup_and_subsample():
    grid = TimeGrid(1.0, 256)
    assert grid.dt == pytest.approx(1.0 / 256.0, rel=1e-15)
    assert grid.node_index(0.5) == 128
    assert grid.node_index(1.0) == 256
    with pytest.raises(ParameterError):
        grid.node_index(0.5 + 0.3 * grid.dt)
    assert grid.window(0.25, 0.5) == (64, 128)
    for s, t in ((0.5, 0.5), (0.5, 0.25), (0.25, 0.5 + 0.3 * grid.dt)):
        with pytest.raises(ParameterError):
            grid.window(s, t)
    sub = grid.subsample(4)
    assert sub.steps == 64 and sub.horizon == 1.0
    with pytest.raises(ParameterError):
        grid.subsample(3)


def test_dyadic_windows_are_node_aligned():
    grid = TimeGrid(1.0, 64)
    windows = grid.dyadic_windows(3)
    # Levels 0..3 contribute 1 + 2 + 4 + 8 windows.
    assert len(windows) == 15
    assert windows[0] == (0, 64)
    assert all(0 <= k0 < k1 <= 64 for k0, k1 in windows)
    per_level = {}
    for k0, k1 in windows:
        per_level.setdefault(k1 - k0, 0)
        per_level[k1 - k0] += 1
    assert per_level == {64: 1, 32: 2, 16: 4, 8: 8}
    with pytest.raises(ParameterError):
        grid.dyadic_windows(7)


def test_path_csv_round_trip():
    import io

    grid = TimeGrid(1.0, 8)
    path = generate_fbm(0.4, 2, grid, 3)
    buf = io.StringIO()
    path.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# H=0.4")
    assert lines[1] == "t,w_1,w_2"
    assert len(lines) == 2 + 9
    t0, w1, w2 = lines[2].split(",")
    assert float(t0) == 0.0 and float(w1) == 0.0 and float(w2) == 0.0
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == 1.0
    assert last[1] == path.values[0, -1] and last[2] == path.values[1, -1]


# --- the E1 covariance audit --------------------------------------------------


def _counted_streams(monkeypatch):
    calls = []
    stream = paths._component_rng

    def counted(seed, path_index, component):
        calls.append((seed, path_index, component))
        return stream(seed, path_index, component)

    monkeypatch.setattr(paths, "_component_rng", counted)
    return calls


def test_covariance_audit_rows_are_the_per_hurst_batch_formula(monkeypatch):
    """700 paths of 256 steps straddle eleven blocks of 64 paths; each of
    the 15 rows equals the formula over a whole per-Hurst batch, and every
    key's stream is keyed once for all three Hurst values."""
    n_paths, steps, seed = 700, 256, 11
    assert paths.BLOCK_NORMALS // (2 * steps) == 64
    grid = TimeGrid(1.0, steps)
    want = []
    for hurst in (0.1, 0.25, 0.5):
        batch = paths._fbm_rows((hurst,), 1, grid, seed, 0, n_paths)[0, :, 0, :]
        for s, t in [(0.25, 0.5), (0.5, 1.0), (0.25, 0.75), (0.125, 1.0), (0.5, 0.75)]:
            prods = batch[:, grid.node_index(s)] * batch[:, grid.node_index(t)]
            est = float(prods.mean())
            se = float(prods.std(ddof=1) / math.sqrt(n_paths))
            target = float(fbm_covariance(s, t, hurst))
            want.append({"hurst": hurst, "s": s, "t": t, "estimate": est,
                         "target": target, "stderr": se,
                         "z": abs(est - target) / se})
    calls = _counted_streams(monkeypatch)
    got = experiments.criterion_fbm_covariance(n_paths, steps, seed)["details"]
    assert got["rows"] == want
    assert got["worst_z"] == max(row["z"] for row in want)
    assert sorted(calls) == [(seed, i, 0) for i in range(n_paths)]


@pytest.mark.parametrize("n_paths, steps", [(1, 64), (0, 64), (100, 3)])
def test_covariance_audit_rejects_bad_sizes_before_drawing(monkeypatch, n_paths, steps):
    """One path has no standard error, and at 3 steps the pair times 1/4
    and 1/8 are off the grid: both fail before any stream is built."""
    calls = _counted_streams(monkeypatch)
    with pytest.raises(ParameterError):
        experiments.criterion_fbm_covariance(n_paths, steps, 11)
    assert calls == []
