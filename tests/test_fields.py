"""Coefficient fields, mollification and integral norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmlab import (CLAMP_VALUE, ClampWarning, MatrixField, MollifierSpec,
                    ParameterError, QuenchedScenario, ResolutionError,
                    ScalarField, SpatialGrid, TimeGrid, constant_field,
                    generate_fbm, hs_norm_sq, identity_field, lp_norm,
                    mollified_family, mollify, multilinear_interpolate,
                    singular_example)
from fbmlab.fields import (_fftconvolve, _gamma, _next_fast_len, evaluate_members,
                           evaluate_together)
from fbmlab.solver import family_grid


def test_constant_and_identity_fields():
    c = constant_field(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = c(np.zeros((5, 2)))
    assert out.shape == (5, 2, 2)
    assert np.array_equal(out[3], [[1.0, 2.0], [3.0, 4.0]])
    ident = identity_field(2)
    assert np.array_equal(ident(np.array([7.0, -1.0])), np.eye(2))
    with pytest.raises(ParameterError):
        constant_field(np.zeros(3))


def test_field_shape_validation():
    bad = MatrixField(lambda p: np.zeros(p.shape[:-1] + (1, 1)), 2, 2)
    with pytest.raises(ParameterError):
        bad(np.zeros((4, 2)))
    ident = identity_field(2)
    with pytest.raises(ParameterError):
        ident(np.zeros((4, 3)))


def test_field_algebra():
    a = identity_field(1)
    b = constant_field(np.array([[2.0]]))
    pts = np.array([[0.3], [0.7]])
    assert np.array_equal((a - b)(pts), a(pts) - b(pts))


def test_singular_example_values_and_support():
    fld = singular_example(0.4, 1.0, 1)
    pts = np.array([[0.5], [-0.25], [1.5]])
    out = fld(pts)
    assert out[0, 0, 0] == pytest.approx(0.5 ** -0.4, rel=1e-15)
    assert out[1, 0, 0] == pytest.approx(0.25 ** -0.4, rel=1e-15)
    assert out[2, 0, 0] == 0.0  # outside the support ball
    assert fld.support_radius == 1.0


def test_singular_example_clamps_at_origin():
    fld = singular_example(0.4, 1.0, 1)
    with pytest.warns(ClampWarning):
        out = fld(np.zeros((1, 1)))
    assert out[0, 0, 0] == CLAMP_VALUE


def test_singular_example_hypotheses():
    with pytest.raises(ParameterError):
        singular_example(0.0, 1.0, 1)
    with pytest.raises(ParameterError):
        singular_example(0.6, 1.0, 1)  # d/gamma <= 2
    with pytest.raises(ParameterError):
        singular_example(0.4, -1.0, 1)


def test_hs_norm_square():
    assert hs_norm_sq(identity_field(3))(np.zeros((2, 3)))[0] == 3.0
    fld = singular_example(0.4, 1.0, 2)
    x = np.array([[0.3, 0.4]])  # |x| = 0.5
    assert hs_norm_sq(fld)(x)[0] == pytest.approx(2.0 * 0.5 ** -0.8, rel=1e-14)


def test_bump_mass_closed_form():
    spec = MollifierSpec(0.5)
    # d=1, k=4: integral of (1-u^2)^4 over [-1,1] is 256/315.
    assert spec.bump_mass(1) == pytest.approx(256.0 / 315.0, rel=1e-15)
    # d=2, k=4 in polar coordinates: pi * integral of (1-v)^4 dv = pi/5.
    assert spec.bump_mass(2) == pytest.approx(math.pi / 5.0, rel=1e-15)


def test_gamma_is_scipy_special_gamma_bit_for_bit():
    """The in-package Gamma at the integers and half-integers bump_mass
    passes, and bump_mass itself against the scipy closed form."""
    from scipy.special import gamma
    for x in [n / 2.0 for n in range(2, 67)]:  # 1, 1.5, ..., 33
        assert _gamma(x).hex() == float(gamma(x)).hex(), x
    k = 4  # the bump is (1 - |u|^2)**4
    for d in range(1, 9):
        want = math.pi ** (d / 2) * gamma(k + 1) / gamma(d / 2 + k + 1)
        assert MollifierSpec(0.5).bump_mass(d).hex() == float(want).hex(), d


def test_gamma_above_33_is_scipy_special_gamma_bit_for_bit():
    """Stirling's branch, up to where Gamma overflows."""
    from scipy.special import gamma
    for x in [n / 2.0 for n in range(67, 346)]:  # 33.5, ..., 172.5
        assert _gamma(x).hex() == float(gamma(x)).hex(), x


def test_mollifier_kernel_properties():
    spec = MollifierSpec(0.25)
    grid = SpatialGrid.from_box(-1.5, 1.5, 3000)
    pts = grid.centers_mesh()
    mass = float(np.sum(spec.rho(pts)) * grid.h)
    assert abs(mass - 1.0) <= 1e-6
    r = np.linalg.norm(pts, axis=-1)
    vals = spec.rho(pts)
    assert np.all(vals[r > 1.0] == 0.0)
    assert np.all(vals >= 0.0)
    scaled_mass = float(np.sum(spec.rho_scaled(pts)) * grid.h)
    assert abs(scaled_mass - 1.0) <= 1e-6


def test_cutoff_plateau_and_support():
    spec = MollifierSpec(0.25)  # inner radius 2, outer radius 4
    pts = np.array([[0.0], [1.9], [2.0], [3.0], [4.0], [5.0]])
    vals = spec.cutoff(pts)
    assert vals[0] == 1.0 and vals[1] == 1.0 and vals[2] == 1.0
    assert 0.0 < vals[3] < 1.0
    assert vals[4] == 0.0 and vals[5] == 0.0
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_mollifier_spec_validation():
    with pytest.raises(ParameterError):
        MollifierSpec(0.0)
    with pytest.raises(ParameterError):
        MollifierSpec(math.inf)


def test_mollify_requires_resolving_grid():
    coarse = SpatialGrid.from_box(-2.0, 2.0, 16)  # h = 0.25 > eps/4
    with pytest.raises(ResolutionError):
        mollify(identity_field(1), MollifierSpec(0.5), coarse)
    with pytest.raises(ParameterError):
        mollify(identity_field(2), MollifierSpec(0.5),
                SpatialGrid.from_box(-2.0, 2.0, 64))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.integers(1, 2), st.sampled_from([0.125, 0.25, 0.5]),
       st.data())
def test_mollify_passes_constants_through(d, n, eps, data):
    """Deep in the interior a constant field comes out unchanged: inside the
    cut-off plateau by one kernel reach plus one bin, and at least one
    kernel reach plus one bin from the lattice edge."""
    entry = st.floats(-5.0, 5.0, allow_nan=False)
    mat = np.array(data.draw(st.lists(entry, min_size=d * n, max_size=d * n)))
    mat = mat.reshape(d, n)
    h = eps / 4.0  # kernel reach: 4 bins
    grid = SpatialGrid.from_box(-24 * h, 24 * h, 48, d)
    deep = min(0.5 / eps - eps - math.sqrt(d) * h, (24 - 4 - 2) * h) / math.sqrt(d)
    unit = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
    pts = deep * np.array(data.draw(st.lists(unit, min_size=1, max_size=8)))
    fld = mollify(constant_field(mat), MollifierSpec(eps), grid)
    assert np.max(np.abs(fld(pts) - mat)) <= 1e-12 * max(1.0, np.abs(mat).max())


def test_mollify_smooths_the_singularity():
    sigma = singular_example(0.4, 1.0, 1)
    grid = SpatialGrid.from_box(-2.0, 2.0, 512)
    eps = 0.125
    smooth = mollify(sigma, MollifierSpec(eps), grid)
    at_origin = smooth(np.zeros((1, 1)))[0, 0, 0]
    assert math.isfinite(at_origin)
    # Convex combination of samples inside the eps-ball: above the field
    # value at radius eps, below the nearest-sample value at radius h/2.
    assert eps ** -0.4 < at_origin <= (grid.h / 2.0) ** -0.4
    # Symmetry of field and kernel survives the discrete convolution.
    left = smooth(np.array([[-0.3]]))[0, 0, 0]
    right = smooth(np.array([[0.3]]))[0, 0, 0]
    assert left == pytest.approx(right, rel=1e-10)


def test_mollify_support_is_a_ball():
    sigma = singular_example(0.4, 1.0, 1)
    grid = SpatialGrid.from_box(-2.0, 2.0, 512)
    eps = 0.125
    smooth = mollify(sigma, MollifierSpec(eps), grid)
    assert smooth.support_radius == pytest.approx(1.0 + eps, rel=1e-15)
    pts = np.array([[1.0 + eps + 1e-6], [-1.5], [3.0]])
    assert np.all(smooth(pts) == 0.0)
    scalar_probe = smooth(np.array(
        [1.0 + eps + 1e-6]))  # 0-d outside mask path
    assert np.all(scalar_probe == 0.0)


def test_lp_norm_smooth_field_is_spectrally_accurate():
    gauss = ScalarField(lambda p: np.exp(-0.5 * np.sum(p * p, axis=-1)), 2)
    grid = SpatialGrid.from_box(-6.0, 6.0, 192, dimension=2)
    # L2 norm squared is the integral of exp(-|x|^2) over the plane = pi.
    assert lp_norm(gauss, 2.0, grid) == pytest.approx(
        math.sqrt(math.pi), rel=1e-12)


def test_lp_norm_refines_singular_cells():
    """Against the closed forms: integral of |x|^(-0.8) over [-1, 1] is 10.

    The plain midpoint rule, which a copy of sigma that flags no singular
    point gets, underestimates the singular bin badly; the refined
    quadrature lands within about one percent at h = 1/256.
    """
    sigma = singular_example(0.4, 1.0, 1)
    grid = SpatialGrid.from_box(-1.0, 1.0, 512)
    refined = lp_norm(sigma, 2.0, grid)
    plain = lp_norm(MatrixField(sigma, 1, 1), 2.0, grid)
    target = math.sqrt(10.0)
    assert abs(refined - target) / target < 0.01
    assert abs(refined - target) < abs(plain - target)

    one_norm = lp_norm(MatrixField(
        lambda p: (np.where(np.linalg.norm(p, axis=-1) == 0.0, CLAMP_VALUE,
                   np.maximum(np.linalg.norm(p, axis=-1), 1e-300) ** -0.8)
                   * (np.linalg.norm(p, axis=-1) <= 1.0))[..., None, None],
        1, 1, singular_points=(np.zeros(1),)), 1.0, grid)
    assert abs(one_norm - 10.0) / 10.0 < 0.02


def test_lp_norm_scales_homogeneously():
    sigma = singular_example(0.4, 1.0, 1)
    grid = SpatialGrid.from_box(-1.0, 1.0, 256)
    base = lp_norm(sigma, 2.0, grid)
    tripled = lp_norm(MatrixField(lambda p: 3.0 * sigma(p), 1, 1,
                                  singular_points=sigma.singular_points), 2.0, grid)
    assert tripled == pytest.approx(3.0 * base, rel=1e-12)
    with pytest.raises(ParameterError):
        lp_norm(sigma, 0.0, grid)


# --- one interpolation for a whole mollified family ---------------------------

def _family(d: int):
    """Two mollified radii on one lattice; h = 1/16, so bin centers are exact."""
    if d == 1:
        sigma = singular_example(0.4, 1.0, 1)
    else:
        mix = np.array([[1.0, -2.0, 0.5], [0.25, 3.0, -1.0]])
        sigma = MatrixField(
            lambda p: (np.exp(-np.sum(p * p, axis=-1))
                       * (np.linalg.norm(p, axis=-1) <= 1.0))[..., None, None] * mix,
            2, 3, support_radius=1.0)
    fbm = generate_fbm(0.2, d, TimeGrid(1.0, 16), 1)
    scen = QuenchedScenario(fbm, sigma, np.zeros(d), (0.5, 0.25), 4, 1)
    fields = mollified_family(scen)
    return family_grid(scen), [fields[eps] for eps in scen.eps_seq]


FAMILIES = {d: _family(d) for d in (1, 2)}


def _per_entry_reference(grid, fld, pts):
    """A mollified field on grid evaluated one matrix entry at a time."""
    table = fld.grid_values
    out = np.empty(pts.shape[:-1] + table.shape[-2:])
    for a in range(table.shape[-2]):
        for b in range(table.shape[-1]):
            out[..., a, b] = multilinear_interpolate(grid.lower, grid.h,
                                                     table[..., a, b], pts)
    out[np.linalg.norm(pts, axis=-1) > fld.support_radius] = 0.0
    return out


def _assert_family_consistent(d, pts):
    grid, family = FAMILIES[d]
    together = evaluate_together(family, pts)
    assert together.shape == pts.shape[:-1] + (len(family),) + family[0](pts).shape[-2:]
    for e, fld in enumerate(family):
        own = fld(pts)
        assert np.array_equal(together[..., e, :, :], own)
        assert np.array_equal(own, _per_entry_reference(grid, fld, pts))
    # The member-axis gather: members in any order, each at its own points.
    order = [1, 0, 1]
    own_pts = np.stack([pts, pts[::-1], 0.5 * pts])
    gathered = evaluate_members([family[e] for e in order])(own_pts)
    assert gathered.shape == (len(order),) + together[..., 0, :, :].shape
    for j, e in enumerate(order):
        assert np.array_equal(gathered[j], family[e](own_pts[j]))


_coord = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(st.lists(_coord, min_size=d, max_size=d),
                                             min_size=1, max_size=12))))
def test_stacked_family_equals_each_field_inside_and_outside_the_lattice(case):
    d, rows = case
    _assert_family_consistent(d, np.array(rows, dtype=float))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.integers(0, 1),
       st.floats(0.0, 2.0 * math.pi, allow_nan=False))
def test_stacked_family_on_the_support_radius(d, e, angle):
    _grid, family = FAMILIES[d]
    radius = family[e].support_radius
    direction = (np.array([math.copysign(1.0, math.cos(angle))]) if d == 1
                 else np.array([math.cos(angle), math.sin(angle)]))
    pts = np.stack([radius * direction, np.nextafter(radius, 0.0) * direction,
                    np.nextafter(radius, 9.0) * direction])
    _assert_family_consistent(d, pts)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(st.integers(0, 63), min_size=d, max_size=d))))
def test_interpolation_is_exact_at_lattice_nodes(case):
    d, index = case
    grid, family = FAMILIES[d]
    index = [min(i, grid.bins[a] - 1) for a, i in enumerate(index)]
    point = np.asarray(grid.lower) + (np.asarray(index) + 0.5) * grid.h
    _assert_family_consistent(d, point[None, :])
    together = evaluate_together(family, point)
    for e, fld in enumerate(family):
        inside = np.linalg.norm(point) <= fld.support_radius
        want = fld.grid_values[tuple(index)] if inside else 0.0
        assert np.array_equal(together[e], np.broadcast_to(want, together[e].shape))


# --- the convolution, without scipy -------------------------------------------

_axis_len = st.integers(1, 40)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda d: st.tuples(st.lists(_axis_len, min_size=d, max_size=d),
                        st.lists(_axis_len, min_size=d, max_size=d))),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_fftconvolve_is_scipy_signal_bit_for_bit(shapes, seed, same):
    """Full and same modes, 1-D, 2-D and 3-D, including length-1 axes and
    a second input larger than the first."""
    from scipy.signal import fftconvolve
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=shapes[0]), rng.normal(size=shapes[1])
    want = fftconvolve(a, b, mode="same" if same else "full")
    got = _fftconvolve(a, b, same=same)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shapes", [
    ((9, 7, 11), (5, 5, 5)),     # every axis transformed
    ((1, 12, 13), (4, 1, 3)),    # a length-1 axis on either side
    ((6, 1, 8), (3, 1, 5)),      # a length-1 axis on both sides
    ((1, 1, 30), (1, 1, 7)),     # one transformed axis in 3-D
])
@pytest.mark.parametrize("same", [False, True])
def test_fftconvolve_3d_is_scipy_signal_bit_for_bit(shapes, same):
    from scipy.signal import fftconvolve
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=shapes[0]), rng.normal(size=shapes[1])
    want = fftconvolve(a, b, mode="same" if same else "full")
    got = _fftconvolve(a, b, same=same)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_next_fast_len_is_scipy_fft():
    from scipy.fft import next_fast_len
    for n in range(1, 2 ** 16 + 1):
        assert _next_fast_len(n) == next_fast_len(n, True), n


def test_import_loads_no_scipy_and_loads_numpy_random():
    """scipy is a test dependency only; numpy.random, which numpy 2 loads
    lazily, loads with the package instead of at the first draw."""
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, fbmlab; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[] True"
