"""Occupation measures, local times and the half-offset grid conventions."""

import math
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmlab import (ParameterError, SpatialGrid, TimeGrid, generate_fbm,
                    local_time, multilinear_interpolate,
                    occupation_formula_residual, occupation_measure)
from fbmlab.fields import LatticeStack
from fbmlab.occupation import _exact_sum


@dataclass(frozen=True, eq=False)
class RawPath:
    """Array-backed stand-in for a sampled path."""

    dimension: int
    grid: TimeGrid
    values: np.ndarray = field(repr=False)
    hurst: float | None = None


def test_grid_rejects_origin_centered_bins():
    # Centers at lower + (i + 0.5) h; lower = -0.5, h = 1 puts one at 0.
    with pytest.raises(ParameterError):
        SpatialGrid((-0.5,), 1.0, (2,))
    SpatialGrid((-0.5,), 1.0, (2,), allow_origin_center=True)
    # Shifting by half a bin keeps the origin on an edge.
    SpatialGrid((-1.0,), 1.0, (2,))


def test_grid_parameter_validation():
    with pytest.raises(ParameterError):
        SpatialGrid((0.0,), 0.0, (4,))
    for lower in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="lower corner must be finite"):
            SpatialGrid((0.0, lower), 1.0, (4, 4))
    with pytest.raises(ParameterError):
        SpatialGrid((0.0,), 1.0, (0,))
    with pytest.raises(ParameterError):
        SpatialGrid((0.0, 0.0), 1.0, (4,))


def test_cover_snaps_to_integer_multiples():
    pts = np.array([[-1.37], [0.12], [2.9]])
    h = 0.25
    grid = SpatialGrid.cover(pts, h)
    assert grid.lower[0] / h == round(grid.lower[0] / h)
    _, inside = grid.bin_indices(pts)
    assert inside.all()
    # Centers land on half-integer multiples of h, never on the origin.
    assert np.min(np.abs(grid.centers(0))) >= 0.4 * h


@pytest.mark.filterwarnings("error")
def test_cover_refuses_non_finite_input_before_dividing():
    pts = np.array([[0.1], [1.4]])
    for h in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ParameterError, match="bin width"):
            SpatialGrid.cover(pts, h)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="must be finite"):
            SpatialGrid.cover(np.array([[0.1], [bad]]), 0.5)
    with pytest.raises(ParameterError, match="infinitely many bins"):
        SpatialGrid.cover(np.array([[-1e308], [1e308]]), 1e-10)


def test_cover_handles_2d():
    pts = np.array([[0.1, -0.2], [1.4, 0.7]])
    grid = SpatialGrid.cover(pts, 0.5)
    assert grid.dimension == 2
    _, inside = grid.bin_indices(pts)
    assert inside.all()
    assert grid.lower == (0.0, -0.5) and grid.bins == (4, 4)


def test_quantize_maps_centers_to_themselves():
    grid = SpatialGrid.from_box(-1.0, 1.0, 8)
    centers = grid.centers_mesh().reshape(-1, 1)
    snapped, inside = grid.quantize(centers)
    assert inside.all()
    assert np.array_equal(snapped, centers)
    out, inside = grid.quantize(np.array([[5.0]]))
    assert not inside.any()
    assert out[0, 0] == 5.0


def test_occupation_counts_and_masses():
    grid_t = TimeGrid(1.0, 8)
    vals = np.array([[0.1, 0.1, 0.6, 0.6, 0.6, -0.3, 0.1, 0.9, 0.9]])
    path = RawPath(1, grid_t, vals)
    box = SpatialGrid((-1.0,), 0.5, (4,))
    occ = occupation_measure(path, box, 0.0, 1.0)
    # Left endpoints 0.1 x3, 0.6 x3, -0.3, 0.9, each worth dt = 1/8.
    assert occ.counts.dtype.kind == "i"
    assert occ.counts.tolist() == [0, 1, 3, 4]
    assert occ.covered_mass == pytest.approx(1.0, abs=1e-15)
    assert occ.escaped_count == 0
    assert np.all(occ.masses >= 0.0)


def test_escaped_mass_is_tracked():
    grid_t = TimeGrid(1.0, 4)
    path = RawPath(1, grid_t, np.array([[0.1, 9.0, 0.1, 0.1, 0.2]]))
    box = SpatialGrid((-1.0,), 0.5, (4,))
    occ = occupation_measure(path, box, 0.0, 1.0)
    assert occ.escaped_count == 1
    assert occ.escaped_mass == pytest.approx(0.25, abs=1e-15)
    assert occ.escaped_fraction == pytest.approx(0.25, abs=1e-15)


def test_window_additivity_is_bit_exact():
    grid_t = TimeGrid(1.0, 512)
    path = generate_fbm(0.3, 1, grid_t, 21)
    box = SpatialGrid.cover(path.values.T, 0.05)
    whole = occupation_measure(path, box, 0.0, 1.0)
    first = occupation_measure(path, box, 0.0, 0.375)
    second = occupation_measure(path, box, 0.375, 1.0)
    merged = first + second
    assert np.array_equal(merged.counts, whole.counts)
    assert merged.escaped_count == whole.escaped_count
    lt = local_time(path, box, 0.0, 0.375) + local_time(path, box, 0.375, 1.0)
    assert np.array_equal(lt.counts, local_time(path, box, 0.0, 1.0).counts)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 2),
       st.lists(st.integers(1, 127), max_size=6, unique=True),
       st.sampled_from([0.02, 0.1, 0.4]), st.booleans())
def test_occupation_counts_are_additive_over_window_splits(seed, d, cuts, h, tight):
    grid_t = TimeGrid(1.0, 128)
    path = generate_fbm(0.3, d, grid_t, seed)
    # A tight box lets some samples escape, so escaped counts add up too.
    box = SpatialGrid.cover(path.values.T[:40] if tight else path.values.T, h)
    nodes = [0, *sorted(cuts), 128]
    pieces = [occupation_measure(path, box, k0 * grid_t.dt, k1 * grid_t.dt)
              for k0, k1 in zip(nodes[:-1], nodes[1:])]
    merged = sum(pieces[1:], pieces[0])
    whole = local_time(path, box, 0.0, 1.0)
    assert np.array_equal(merged.counts, whole.counts)
    assert merged.escaped_count == whole.escaped_count
    assert merged.counts.sum() + merged.escaped_count == 128
    assert np.array_equal(merged.values, whole.values)
    assert np.array_equal(merged.masses, whole.masses)


def test_incompatible_windows_do_not_merge():
    grid_t = TimeGrid(1.0, 16)
    path = RawPath(1, grid_t, np.zeros((1, 17)) + 0.3)
    box = SpatialGrid((-1.0,), 0.5, (4,))
    a = occupation_measure(path, box, 0.0, 0.5)
    b = occupation_measure(path, box, 0.5, 1.0)
    c = occupation_measure(path, SpatialGrid((-1.0,), 0.25, (8,)), 0.5, 1.0)
    with pytest.raises(ParameterError):
        _ = b + a  # not contiguous in that order
    with pytest.raises(ParameterError):
        _ = a + c  # different grids
    with pytest.raises(ParameterError):
        occupation_measure(path, box, 0.5, 0.5)


def test_local_time_density_scaling():
    grid_t = TimeGrid(1.0, 8)
    path = RawPath(1, grid_t, np.full((1, 9), 0.3))
    box = SpatialGrid((-1.0,), 0.5, (4,))
    lt = local_time(path, box, 0.0, 1.0)
    # All 8 samples in one bin: mass 1, density 1 / h.
    assert lt.values.max() == pytest.approx(2.0, rel=1e-15)
    assert lt.covered_mass == pytest.approx(1.0, abs=1e-15)


def test_local_time_warns_outside_density_regime():
    grid_t = TimeGrid(1.0, 64)
    path = generate_fbm(0.6, 2, grid_t, 4)
    box = SpatialGrid.cover(path.values.T, 0.25)
    with pytest.warns(RuntimeWarning, match="may have no density"):
        local_time(path, box, 0.0, 1.0)


def test_occupation_formula_exact_for_bin_constant_fields():
    grid_t = TimeGrid(1.0, 256)
    path = generate_fbm(0.25, 1, grid_t, 8)
    box = SpatialGrid.cover(path.values.T, 0.125)
    lo, h = box.lower[0], box.h

    def f(pts):
        # Indicator of a union of whole bins, evaluated through bin lookup.
        idx = np.floor((pts[..., 0] - lo) / h).astype(int)
        return (idx % 2 == 0).astype(float)

    assert occupation_formula_residual(f, path, box, 1.0) == 0.0


def test_occupation_formula_residual_within_lipschitz_budget():
    grid_t = TimeGrid(1.0, 1 << 10)
    path = generate_fbm(0.25, 1, grid_t, 5)
    h = 2.0 ** -7

    def f(pts):
        return np.abs(pts[..., 0])

    box = SpatialGrid.cover(path.values.T, h)
    res = occupation_formula_residual(f, path, box, 1.0)
    # Each snapped argument moves by at most h/2; Lip(f) = 1.
    assert res <= 0.5 * h * 1.0
    # Signed cancellation makes the residual non-monotone in h, so the
    # finer grid is held to its own budget rather than to the coarse value.
    finer = SpatialGrid.cover(path.values.T, h / 4)
    assert occupation_formula_residual(f, path, finer, 1.0) <= 0.5 * (h / 4)


def _fsum_outcome(fn, values):
    """fn(values) as a bit pattern, or the type and message it raised."""
    try:
        return float.hex(fn(values))
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _summands(kind, n, seed, pattern):
    """n float64 summands of one adversarial family, from a seed."""
    rng = np.random.default_rng(seed)
    if kind == "tiled":
        # A drawn pattern tiled with random signs, so its values repeat.
        return np.resize(np.asarray(pattern, dtype=float), n) * rng.choice([-1.0, 1.0], n)
    if kind == "wide":
        # Magnitudes from 1e-300 to 1e300 in one array.
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
    if kind == "subnormal":
        return rng.integers(-2 ** 20, 2 ** 20, n) * 5e-324
    if kind == "signed zeros":
        return rng.choice([0.0, -0.0, 5e-324, -5e-324], n, p=[0.45, 0.45, 0.05, 0.05])
    if kind == "cancel":
        # Pairs that cancel exactly, plus a few survivors many orders below.
        half = rng.standard_normal(n // 2) * 10.0 ** rng.uniform(-30.0, 30.0, n // 2)
        vals = np.concatenate([half, -half, rng.standard_normal(n % 2) * 1e-40])
        return rng.permutation(vals)
    if kind == "ill-conditioned":
        # Huge terms that nearly cancel around a small true sum.
        big = rng.standard_normal(n) * 1e16
        big[-1:] = -math.fsum(big[:-1].tolist())
        return rng.permutation(big + rng.uniform(-1.0, 1.0, n))
    return rng.uniform(0.0, 1.0, n)  # "tent-like": bounded and positive


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["uniform", "tiled", "wide", "subnormal", "signed zeros",
                        "cancel", "ill-conditioned"]),
       st.one_of(st.integers(0, 200), st.integers(0, 10 ** 5),
                 st.sampled_from([0, 1, 63, 64, 65, 10 ** 5])),
       st.integers(0, 2 ** 32),
       st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=1, max_size=8))
def test_exact_sum_is_math_fsum(kind, n, seed, pattern):
    values = _summands(kind, n, seed, pattern)
    assert _fsum_outcome(_exact_sum, values) == _fsum_outcome(
        lambda v: math.fsum(v.tolist()), values)


@pytest.mark.parametrize("specials", [[math.inf], [-math.inf], [math.nan],
                                      [math.inf, -math.inf], [math.nan, math.inf],
                                      [1e308, 1e308], [-1e308, -1e308, 1e308],
                                      [1.7e308, 1.7e308, -1.7e308]])
@pytest.mark.parametrize("n", [0, 10, 5000])
def test_exact_sum_matches_fsum_on_non_finite_and_overflow(specials, n):
    """inf, nan and intermediate overflow come out (or raise) as in math.fsum,
    wherever they sit among ordinary summands."""
    rng = np.random.default_rng(n)
    for at in (0, n // 2, n):
        values = np.insert(rng.standard_normal(n), at, specials)
        assert _fsum_outcome(_exact_sum, values) == _fsum_outcome(
            lambda v: math.fsum(v.tolist()), values)


def test_multilinear_interpolation_reproduces_affine_fields():
    lower, h = np.array([-1.0, -1.0]), 0.25
    centers = np.stack(np.meshgrid(
        lower[0] + (np.arange(8) + 0.5) * h,
        lower[1] + (np.arange(8) + 0.5) * h, indexing="ij"), axis=-1)
    values = 2.0 * centers[..., 0] - 3.0 * centers[..., 1] + 0.5
    rng = np.random.Generator(np.random.Philox(key=1))
    pts = rng.uniform(-0.7, 0.7, size=(50, 2))
    got = multilinear_interpolate(lower, h, values, pts)
    want = 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 0.5
    assert np.max(np.abs(got - want)) < 1e-12
    # Outside the center lattice the fill value applies.
    assert multilinear_interpolate(lower, h, values, np.array([[5.0, 0.0]]))[0] == 0.0
    edge = multilinear_interpolate(lower, h, values, np.array([[5.0, 0.0]]),
                                   clamp=True)[0]
    assert math.isfinite(edge) and edge != 0.0


# --- the flat-index gather, bit for bit against the corner loop ---------------

def _corner_loop_interpolate(lower, h, values, points, clamp=False, members=None):
    """The corner loop multilinear_interpolate ran before the flat-index
    gather, verbatim: the bit-for-bit reference."""
    pts = np.asarray(points, dtype=float)
    lo = np.asarray(lower, dtype=float)
    d = lo.size
    if pts.shape[-1] != d or values.ndim < d:
        raise ParameterError(f"points dimension {pts.shape[-1]} != field dimension {d}")
    member = () if members is None else (np.asarray(members),)
    # Position in center-lattice units.
    u = (pts - lo) / h - 0.5
    shape = np.asarray(values.shape[:d])
    if clamp:
        u = np.clip(u, 0.0, shape - 1.0)
        in_range = np.ones(pts.shape[:-1], dtype=bool)
    else:
        in_range = np.all((u >= 0.0) & (u <= shape - 1.0), axis=-1)
        u = np.clip(u, 0.0, shape - 1.0)
    with np.errstate(invalid="ignore"):  # a NaN point casts to int64
        base = np.maximum(np.minimum(np.floor(u).astype(np.int64), shape - 2), 0)
    frac = u - base
    entry = (None,) * (values.ndim - d - len(member))
    out = np.zeros(pts.shape[:-1] + values.shape[d + len(member):])
    for corner in range(1 << d):
        offs = [(corner >> a) & 1 for a in range(d)]
        weight = np.ones(pts.shape[:-1])
        for a in range(d):
            weight = weight * (frac[..., a] if offs[a] else 1.0 - frac[..., a])
        # Clamp covers size-1 axes, where the far corner has zero weight.
        idx = tuple(np.minimum(base[..., a] + offs[a], shape[a] - 1) for a in range(d))
        out += weight[(...,) + entry] * values[idx + member]
    return np.where(in_range[(...,) + entry], out, 0.0)


def _mask_clip_lattice_values(grid, table, radius, pts, members=None):
    """The lattice evaluation with the norm and boolean-mask radius clip it
    had before, verbatim but for the interpolation it calls."""
    vals = _corner_loop_interpolate(grid.lower, grid.h, table, pts, members=members)
    # The convolution support is a ball; clip FFT dust outside it.
    r = np.linalg.norm(pts, axis=-1)
    stacked = members is None and np.ndim(radius)
    vals[r[..., None] > radius if stacked else r > radius] = 0.0
    return vals


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


_TABLE_SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan)


@st.composite
def _stacked_lattices(draw):
    """A grid, a member-major (k,) + grid.shape + (d, n) table with signed
    zeros and non-finite entries sprinkled in, radii, and points on, off
    and at the edges of the lattice, NaN and +-inf among them."""
    d = draw(st.integers(1, 3))
    bins = tuple(draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)))
    h = draw(st.sampled_from([0.25, 0.375, 1.0]))
    lower = tuple(draw(st.lists(st.sampled_from([-0.9, -0.4, 0.1]),
                                min_size=d, max_size=d)))
    grid = SpatialGrid(lower, h, bins)
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    table = rng.standard_normal((k,) + bins + (d, n))
    table[rng.random(table.shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = -0.0
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, table.size - 1))
        table.flat[at] = draw(st.sampled_from(_TABLE_SPECIALS))
    radii = draw(st.lists(st.floats(0.05, 4.0), min_size=k, max_size=k))
    upper = [lo + m * h for lo, m in zip(lower, bins)]
    coordinate = [st.one_of(
        st.floats(lo - 1.5 * h, up + 1.5 * h),
        st.sampled_from([lo, lo + 0.5 * h, up - 0.5 * h, up, 0.0, -0.0,
                         math.nan, math.inf, -math.inf]))
        for lo, up in zip(lower, upper)]
    rows = draw(st.lists(st.tuples(*coordinate), min_size=1, max_size=6))
    return grid, table, radii, np.array(rows, dtype=float).reshape(-1, d)


# The tables' infinities meet zero weights, and each other, in both routes.
@pytest.mark.filterwarnings(
    "ignore:invalid value encountered in (multiply|add):RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(_stacked_lattices(), st.booleans(), st.data())
def test_flat_gather_is_bit_equal_to_the_corner_loop(case, clamp, data):
    """The references read the stack's table as it was laid out before,
    member axis after the lattice axes: np.moveaxis(table, 0, d)."""
    grid, table, radii, pts = case
    k, m, d = table.shape[0], pts.shape[0], grid.dimension
    lattice_major = np.moveaxis(table, 0, d)
    members = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m)))
    e = data.draw(st.integers(0, k - 1))
    stack = LatticeStack(grid, table, radii)
    # Whole entries of one member, every member's entries stacked after the
    # lattice axes, and one scalar lattice cut from a stack (a
    # non-contiguous table), each with and without clamp.
    for values, want in ((table[e], lattice_major[..., e, :, :]),
                         (lattice_major, lattice_major),
                         (table[e, ..., -1, 0], lattice_major[..., e, -1, 0])):
        _assert_same_bits(
            multilinear_interpolate(grid.lower, grid.h, values, pts, clamp=clamp),
            _corner_loop_interpolate(grid.lower, grid.h, want, pts, clamp=clamp))
    # The stack's three routes: every member with stacked radii, one
    # member field, and the member-axis gather of k point sets, here one
    # set per point, each point with its own member, and three sets.
    per_point = members[:, None]
    _assert_same_bits(stack.gather(members)(pts[:, None, :]), _mask_clip_lattice_values(
        grid, lattice_major, np.asarray(stack.radii)[per_point], pts[:, None, :],
        members=per_point))
    _assert_same_bits(stack(pts), np.moveaxis(_mask_clip_lattice_values(
        grid, lattice_major, np.asarray(stack.radii), pts), -3, 0))
    _assert_same_bits(stack.member(e, label="e")(pts),
                      _mask_clip_lattice_values(grid, lattice_major[..., e, :, :],
                                                stack.radii[e], pts))
    sets = np.stack([pts, pts[::-1], -pts])
    order = [e, (e + 1) % k, 0]
    index = np.array(order)[:, None]
    _assert_same_bits(stack.gather(order)(sets), _mask_clip_lattice_values(
        grid, lattice_major, np.asarray(stack.radii)[index], sets, members=index))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("clamp", [False, True], ids=["zero-off-lattice", "clamp"])
@pytest.mark.parametrize("bins", [(4,), (3, 1), (1, 2, 3)])
def test_nan_points_interpolate_without_a_cast_warning(bins, clamp):
    """A NaN coordinate reads NaN, or 0 off the lattice without clamp, on
    its own and through a stack's members (which zero off the lattice),
    and casts no NaN to an integer on the way."""
    d = len(bins)
    grid = SpatialGrid((-0.5,) * d, 0.25, bins)
    table = np.random.default_rng(1).standard_normal((2,) + bins + (1, 1))
    pts = np.array([[math.nan] * d, [0.0] * (d - 1) + [math.nan], [0.0] * d])
    stack = LatticeStack(grid, table, [math.inf] * 2)
    reads = [multilinear_interpolate(grid.lower, grid.h, np.moveaxis(table, 0, d), pts,
                                     clamp=clamp)]
    if not clamp:
        reads += [stack(pts).swapaxes(0, 1), stack.gather([1, 0, 1])(pts[:, None, :])]
    for got in reads:
        if clamp:
            assert np.isnan(got[:2]).all()
        else:
            assert np.array_equal(got[:2], np.zeros_like(got[:2]))
            assert not np.signbit(got[:2]).any()


@pytest.mark.parametrize("members", [[0, 3], [-1, 0], [[1], [3]]])
def test_members_outside_the_stack_are_refused(members):
    """A member index that names no lattice of a three-member stack is
    refused when the gather is made, rather than read from another
    member's rows."""
    grid = SpatialGrid((-0.5,), 0.25, (4,))
    stack = LatticeStack(grid, np.zeros((3,) + grid.shape + (1, 1)), [1.0] * 3)
    with pytest.raises(ParameterError, match="members must lie in"):
        stack.gather(members)


def test_member_fields_read_the_stacked_table_in_place():
    """A member's table is the contiguous view table[e] of the stack's, and
    evaluating a member allocates in proportion to its points, not to its
    lattice."""
    grid = SpatialGrid((-8.1,), 2.0 ** -12, (1 << 16,))
    table = np.random.default_rng(0).standard_normal((5,) + grid.shape + (1, 1))
    stack = LatticeStack(grid, table, [1.0] * 5)
    field = stack.member(3, label="member 3")
    member = field.grid_values
    assert member.flags.c_contiguous and np.shares_memory(member, table)
    assert member.__array_interface__ == table[3].__array_interface__
    pts = np.linspace(-2.0, 2.0, 16)[:, None]
    field(pts)
    tracemalloc.start()
    try:
        field(pts)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < member.size * member.itemsize // 8
