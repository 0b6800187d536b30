"""Occupation measures, local times and the half-offset grid conventions."""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmlab import (ParameterError, SpatialGrid, TimeGrid, generate_fbm,
                    local_time, occupation_formula_residual)
from fbmlab.occupation import _FSUM_TAIL, _exact_sum


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
    for bins in (0, -3):  # 0 used to divide by zero
        with pytest.raises(ParameterError, match="bins must be >= 1"):
            SpatialGrid.from_box(-1.0, 1.0, bins)
    # A count that is not an integer would build a grid whose mesh cannot
    # be made; numpy integers are integers.
    for bins in (2.5, 3.0, np.float64(3.0)):
        with pytest.raises(ParameterError, match="bin counts must be integers"):
            SpatialGrid.from_box(-1.0, 1.0, bins)
        with pytest.raises(ParameterError, match="bin counts must be integers"):
            SpatialGrid((0.1,), 0.1, (bins,))
    grid = SpatialGrid.from_box(-1.0, 1.0, np.int64(4))
    assert grid.centers_mesh().shape == (4, 1)
    assert SpatialGrid((0.1, 0.1), 0.1, (np.int64(3), 2)).shape == (3, 2)


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
    occ = local_time(path, box, 0.0, 1.0)
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
    occ = local_time(path, box, 0.0, 1.0)
    assert occ.escaped_count == 1
    assert occ.escaped_mass == pytest.approx(0.25, abs=1e-15)
    assert occ.escaped_fraction == pytest.approx(0.25, abs=1e-15)


def test_window_additivity_is_bit_exact():
    grid_t = TimeGrid(1.0, 512)
    path = generate_fbm(0.3, 1, grid_t, 21)
    box = SpatialGrid.cover(path.values.T, 0.05)
    whole = local_time(path, box, 0.0, 1.0)
    merged = local_time(path, box, 0.0, 0.375) + local_time(path, box, 0.375, 1.0)
    assert np.array_equal(merged.counts, whole.counts)
    assert merged.escaped_count == whole.escaped_count


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
    pieces = [local_time(path, box, k0 * grid_t.dt, k1 * grid_t.dt)
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
    a = local_time(path, box, 0.0, 0.5)
    b = local_time(path, box, 0.5, 1.0)
    c = local_time(path, SpatialGrid((-1.0,), 0.25, (8,)), 0.5, 1.0)
    with pytest.raises(ParameterError):
        _ = b + a  # not contiguous in that order
    with pytest.raises(ParameterError):
        _ = a + c  # different grids
    with pytest.raises(ParameterError):
        local_time(path, box, 0.5, 0.5)


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
    if kind in MIDPOINT_KINDS:
        return _near_midpoint(kind, max(n, _FSUM_TAIL + 4), seed)[0]
    return rng.uniform(0.0, 1.0, n)  # "tent-like": bounded and positive


# Sums a few certificate bounds from a rounding midpoint, of at least
# _FSUM_TAIL + 4 summands, so that more than _FSUM_TAIL of them are nonzero.
MIDPOINT_KINDS = ("below a midpoint", "above a midpoint", "a tie",
                  "around a power of two")
# Distances from the midpoint, in units of the bound rounded down to a power
# of two; up to half a bound, _exact_sum must fall back to its full loop.
MIDPOINT_OFFSETS = (2.0 ** -40, 2.0 ** -20, 0.25, 0.5, 1.0, 4.0)


def _certificate_bound(values):
    """n**2 * sigma * 2**-103, the bound of _exact_sum's one-pass certificate."""
    n = values.size
    top = float(np.max(np.abs(values)))
    sigma = math.ldexp(1.0, math.frexp(top)[1] + (n + 1).bit_length())
    return n * n * sigma * 2.0 ** -103


def _near_midpoint(kind, n, seed):
    """n summands whose exact sum lies a drawn offset from a rounding midpoint.

    n - 3 tent-like values in [0, 1) on a 2**-40 grid, whose sum is an exact
    ratio, and three corrections that move the total to midpoint + offset *
    unit, unit the certificate's bound rounded down to a power of two.  The
    midpoint lies halfway between the two floats around the values' sum or,
    around a power of two P, halfway between P and the float below it, where
    the gap is half the gap above P.  Odd seeds negate every summand.
    Returns the permuted summands and the signed offset.
    """
    rng = np.random.default_rng(seed)
    ints = rng.integers(0, 1 << 40, n - 3)
    total = Fraction(int(ints.sum()), 1 << 40)
    offset = float(rng.choice(MIDPOINT_OFFSETS))
    if kind == "around a power of two":
        power = 2.0 ** round(math.log2(total))
        midpoint = Fraction(power) * (1 - Fraction(1, 1 << 54))
        offset *= float(rng.choice([-1.0, 1.0]))
    else:
        near = float(total)
        midpoint = Fraction(near) + Fraction(math.ulp(near)) / 2
        offset *= {"below a midpoint": -1.0, "above a midpoint": 1.0, "a tie": 0.0}[kind]

    def summands(target):
        rest, corrections = target - total, []
        while rest:
            corrections.append(float(rest))
            rest -= Fraction(corrections[-1])
        assert len(corrections) <= 3
        return np.concatenate([ints * 2.0 ** -40, corrections, [0.0] * (3 - len(corrections))])

    bound = _certificate_bound(summands(midpoint))
    values = summands(midpoint + Fraction(offset) * Fraction(2.0 ** math.floor(math.log2(bound))))
    assert _certificate_bound(values) == bound
    return (-1.0 if seed % 2 else 1.0) * rng.permutation(values), offset


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["uniform", "tiled", "wide", "subnormal", "signed zeros",
                        "cancel", "ill-conditioned", *MIDPOINT_KINDS]),
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


def _fsum_calls(monkeypatch, values):
    """_exact_sum(values) and how many times it called math.fsum."""
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: calls.append(None) or fsum(xs))
    try:
        return _exact_sum(values), len(calls)
    finally:
        monkeypatch.undo()


def test_one_pass_certifies_tent_sums_and_falls_back_near_midpoints(monkeypatch):
    """A tent sum over a whole path, like most probe sums of average_direct,
    returns after one extraction pass without math.fsum, and so does a sum
    more than twice the bound from a rounding midpoint; a sum within half a
    bound of one, a tie included, cannot be certified and falls back."""
    rng = np.random.default_rng(3)
    walk = np.cumsum(rng.standard_normal(1 << 16)) * 2.0 ** -8
    tent = np.maximum(0.0, 1.0 - np.abs(0.25 - walk) / 2.0)
    for values in (tent, _summands("tent-like", 1 << 16, 4, ())):
        assert _fsum_calls(monkeypatch, values) == (math.fsum(values.tolist()), 0)
    seen = set()
    for kind in MIDPOINT_KINDS:
        for n in (_FSUM_TAIL + 4, 1000, 1 << 16):
            for seed in range(6):
                values, offset = _near_midpoint(kind, n, seed)
                result, calls = _fsum_calls(monkeypatch, values)
                assert result == math.fsum(values.tolist())
                if abs(offset) <= 0.5:
                    assert calls == 1, (kind, n, seed, offset)
                    seen.add((kind, "fell back"))
                elif abs(offset) == 4.0:
                    assert calls == 0, (kind, n, seed, offset)
                    seen.add((kind, "certified"))
    assert seen == {(kind, way) for kind in MIDPOINT_KINDS for way in (
        "fell back", "certified") if (kind, way) != ("a tie", "certified")}
