"""Driver sampling: exact covariance, linear-map audit, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from fbmlab import (GenerationError, ParameterError, TimeGrid, experiments,
                    fbm_covariance, generate_bm, generate_bm_increments,
                    generate_fbm, generate_fbm_batch, paths)
from fbmlab.paths import (_circulant_eigenvalues, _fgn_autocov,
                          _fgn_cholesky, _fgn_from_normals)


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
    cols = [_fgn_from_normals(lam, e, np.empty(2 * n, complex)) for e in np.eye(2 * n)]
    a = np.stack(cols, axis=1)
    err = np.max(np.abs(a @ a.T - toeplitz(gamma[:-1])))
    assert err < 1e-13


@pytest.mark.parametrize("hurst", [0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999])
def test_embedding_stays_positive_and_cholesky_stays_exact_near_one(hurst):
    """Circulant embedding (Davies-Harte 1987, Dietrich-Newsam 1997) samples
    exactly when the embedding's eigenvalues are nonnegative.  For
    fractional Gaussian noise the raw eigenvalues stay clear of the
    clipping tolerance up to H = 0.999 at 2**14 steps, and near H = 1 the
    Cholesky fallback still factors the Toeplitz covariance to rounding."""
    for n in (2 ** 4, 2 ** 10, 2 ** 14):
        gamma = _fgn_autocov(hurst, n, 1.0 / n)
        lam = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
        assert lam.min() >= 1e-8 * lam.max()
        assert np.array_equal(_circulant_eigenvalues(gamma), lam)
    if hurst in (0.95, 0.99):
        gamma = _fgn_autocov(hurst, 1024, 1.0 / 1024)
        chol = _fgn_cholesky(gamma)
        err = np.max(np.abs(chol @ chol.T - toeplitz(gamma[:-1])))
        assert err <= 1e-14 * gamma[0]


def test_brownian_autocovariance_is_diagonal():
    g = _fgn_autocov(0.5, 16, 0.25)
    assert g[0] == pytest.approx(0.25, rel=1e-15)
    assert np.max(np.abs(g[1:])) < 1e-15


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
    batch = generate_fbm_batch(0.25, 2, grid, 7, 4)
    for i in (0, 3):
        single = generate_fbm(0.25, 2, grid, 7, path_index=i)
        assert np.array_equal(batch[i], single.values)


def test_bm_increment_ensemble_matches_paths():
    grid = TimeGrid(2.0, 32)
    db = generate_bm_increments(3, grid, 9, 3)
    for i in range(3):
        single = generate_bm(3, grid, 9, path_index=i)
        assert np.array_equal(db[i], single.increments)
        assert np.array_equal(np.cumsum(db[i], axis=1), single.values[:, 1:])


# (seed, count, index < count, dimension, steps)
_batches = st.integers(1, 6).flatmap(lambda count: st.tuples(
    st.integers(0, 2 ** 63), st.just(count), st.integers(0, count - 1),
    st.integers(1, 3), st.sampled_from([1, 2, 5, 16, 33])))


def _assert_batch_rows_are_single_paths(seed, count, index, d, steps, hurst):
    grid = TimeGrid(1.0, steps)
    fbm = generate_fbm_batch(hurst, d, grid, seed, count)
    assert fbm.shape == (count, d, steps + 1)
    assert np.array_equal(fbm[index], generate_fbm(hurst, d, grid, seed, index).values)
    db = generate_bm_increments(d, grid, seed, count)
    assert db.shape == (count, d, steps)
    assert np.array_equal(db[index], generate_bm(d, grid, seed, index).increments)


@settings(max_examples=40, deadline=None)
@given(_batches, st.sampled_from([0.1, 0.25, 0.5, 0.75]))
def test_batch_row_is_the_single_path(batch, hurst):
    _assert_batch_rows_are_single_paths(*batch, hurst)


@settings(max_examples=25, deadline=None)
@given(_batches)
def test_batch_row_is_the_single_path_on_the_cholesky_route(batch):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paths, "_circulant_eigenvalues", lambda gamma: None)
        _assert_batch_rows_are_single_paths(*batch, 0.3)
        # The fallback is an exact sampler too: H = 1/2 gives Brownian paths.
        grid = TimeGrid(1.0, batch[4])
        rows = generate_fbm_batch(0.5, 1, grid, batch[0], 1)[0, 0, 1:]
        bm = generate_bm(1, grid, batch[0]).values[0, 1:]
        assert np.allclose(rows, bm, rtol=1e-12, atol=1e-14)


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


@settings(max_examples=20, deadline=None)
@given(_multi)
def test_cholesky_and_circulant_routes_share_one_draw(case):
    """With the embedding refused for hursts[0] only, that Hurst value takes
    the Cholesky route through the first N normals of each key's stream,
    while the others map all 2N of the same draw through their embeddings."""
    hursts, seed, first, count, d, steps = case
    hursts = (0.3, *hursts)
    grid = TimeGrid(1.0, steps)
    refused = _fgn_autocov(0.3, steps, grid.dt)
    embed = paths._circulant_eigenvalues
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paths, "BLOCK_NORMALS", _SMALL_BLOCK * 2 * steps)
        mp.setattr(paths, "_circulant_eigenvalues",
                   lambda gamma: None if np.array_equal(gamma, refused) else embed(gamma))
        rows = _assert_rows_do_not_depend_on_company(hursts, seed, first, count, d, steps)
    chol = _fgn_cholesky(refused)
    for i in range(count):
        for c in range(d):
            z = paths._component_rng(seed, first + i, c).standard_normal(steps)
            assert np.array_equal(rows[0, i, c, 1:], np.cumsum(chol @ z))


def test_singular_covariance_fails_with_its_eigenvalues(monkeypatch):
    monkeypatch.setattr(paths, "_circulant_eigenvalues", lambda gamma: None)
    monkeypatch.setattr(paths, "_fgn_autocov", lambda hurst, n, dt: np.zeros(n + 1))
    grid = TimeGrid(1.0, 8)
    for sample in (lambda: generate_fbm(0.3, 1, grid, 1),
                   lambda: generate_fbm_batch(0.3, 1, grid, 1, 3)):
        with pytest.raises(GenerationError, match="min eigenvalue 0.000e"):
            sample()


def test_components_and_paths_are_independent_streams():
    grid = TimeGrid(1.0, 64)
    p = generate_fbm(0.5, 2, grid, 5)
    assert not np.allclose(p.values[0], p.values[1])
    q = generate_fbm(0.5, 2, grid, 5, path_index=1)
    assert not np.allclose(p.values, q.values)


def test_empirical_covariance_tracks_formula():
    grid = TimeGrid(1.0, 64)
    batch = generate_fbm_batch(0.25, 1, grid, 17, 4000)[:, 0, :]
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
        generate_fbm_batch(0.5, 1, grid, 1, 0)


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
            with pytest.raises(ParameterError, match="must lie in"):
                generate_bm(1, grid, seed, path_index=first)
    # The largest keys are valid, and distinct from the smallest.
    top = generate_fbm(0.3, 1, grid, 2 ** 64 - 1, path_index=2 ** 32 - 1).values
    assert not np.array_equal(top, generate_fbm(0.3, 1, grid, 0).values)
    assert np.array_equal(
        paths._fbm_rows((0.3,), 1, grid, 2 ** 64 - 1, 2 ** 32 - 2, 2)[0, 1], top)


@pytest.mark.parametrize("dimension", [0, -1])
def test_batch_generators_reject_nonpositive_dimension(dimension):
    grid = TimeGrid(1.0, 16)
    with pytest.raises(ParameterError, match="dimension"):
        generate_fbm_batch(0.5, dimension, grid, 1, 4)
    with pytest.raises(ParameterError, match="dimension"):
        generate_bm_increments(dimension, grid, 1, 4)
    with pytest.raises(ParameterError, match="dimension"):
        generate_bm(dimension, grid, 1)


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


@pytest.mark.parametrize("hurst", [0.1, 0.5, 0.95])
@pytest.mark.parametrize("steps", [1, 2, 17, 256])
def test_cholesky_fallback_factors_the_scipy_toeplitz_matrix(hurst, steps):
    """The fallback builds its Toeplitz matrix by indexing gamma[|i - j|];
    its factor is the Cholesky factor of scipy's Toeplitz matrix, bit for bit."""
    gamma = _fgn_autocov(hurst, steps, 1.0 / steps)
    want = np.linalg.cholesky(toeplitz(gamma[:-1]))
    assert np.array_equal(_fgn_cholesky(gamma), want)


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
    """700 paths of 256 steps straddle two blocks of 256 paths; each of the
    15 rows equals the formula over a whole per-Hurst batch, and every
    key's stream is built once for all three Hurst values."""
    n_paths, steps, seed = 700, 256, 11
    assert paths.BLOCK_NORMALS // (2 * steps) == 256
    grid = TimeGrid(1.0, steps)
    want = []
    for hurst in (0.1, 0.25, 0.5):
        batch = generate_fbm_batch(hurst, 1, grid, seed, n_paths)[:, 0, :]
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
