"""Coefficient fields, mollification and integral norms."""

import hashlib
import math
import sys
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmlab import (CLAMP_VALUE, ClampWarning, MatrixField, MollifierSpec,
                    ParameterError, QuenchedScenario, ResolutionError,
                    ScalarField, SpatialGrid, TimeGrid, constant_field,
                    generate_fbm, hs_norm_sq, identity_field, lp_norm,
                    mollified_family, singular_example)
from fbmlab.fields import (LatticeStack, _corner_sum, _fftconvolve, _gamma,
                           _next_fast_len, evaluate_members, evaluate_together,
                           mollify)
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


def _where_chain(pts, gamma, radius):
    """The singular field's values raised at every point, then masked."""
    r = np.linalg.norm(pts, axis=-1)
    at_origin = r == 0.0
    safe = np.where(at_origin, 1.0, r)
    amp = np.where(at_origin, CLAMP_VALUE, safe ** (-gamma))
    amp = np.where(r <= radius, amp, 0.0)
    return amp[..., None, None] * np.eye(pts.shape[-1])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("radius", [1.0, 0.7])
def test_singular_example_matches_the_where_chain(d, radius):
    """The oracle raises |x|**-gamma only within the radius; its values are
    the bits of raising it everywhere and masking: at the origin, at
    |x| = radius and one ulp either side, at NaN and +-inf, and at spread
    points, with one ClampWarning per call that meets the origin."""
    gamma = 0.4
    fld = singular_example(gamma, radius, d)
    axis = np.eye(d)[0]
    fence = [np.nextafter(radius, 0.0), radius, np.nextafter(radius, np.inf)]
    special = [np.zeros(d), -np.zeros(d)]
    special += [s * r * axis for r in fence for s in (1.0, -1.0)]
    special += [np.full(d, v) for v in (np.nan, np.inf, -np.inf)]
    special += [np.r_[v, np.zeros(d - 1)] for v in (np.nan, np.inf, -np.inf)]
    rng = np.random.default_rng(d)
    spread = rng.normal(scale=radius, size=(256, d))
    pts = np.concatenate([np.array(special), spread]).reshape(-1, 2, d)
    assert [np.linalg.norm(s * r * axis) for r in fence for s in (1.0, -1.0)] == [
        r for r in fence for _ in (1, -1)]
    with pytest.warns(ClampWarning) as caught:
        got = fld(pts)
    assert len(caught) == 1
    assert got.tobytes() == _where_chain(pts, gamma, radius).tobytes()
    clear = pts[1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fld(clear).tobytes() == _where_chain(clear, gamma, radius).tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_singular_example_reads_beyond_the_range_of_squares(d):
    """|x| survives coordinates whose squares over- or underflow: with
    radius 1e200 the field reads 1e160**-0.4 at 1e160 on an axis (it read
    0.0 after numpy's overflow warning) and 1e-160**-0.4 at 1e-160 (it read
    1.0000022e64), (1e-170, 0, ...) is not the origin, and an infinite
    point still reads 0.0, all without a RuntimeWarning.  Points whose
    squared norm is a normal float keep the where chain's bits."""
    fld = singular_example(0.4, 1e200, d)
    axis = np.eye(d)[0]
    far = np.array([1e160 * axis, -1e160 * axis, 1e-160 * axis, 1e-170 * axis,
                    np.r_[np.inf, np.zeros(d - 1)], np.full(d, 1e160)])
    spread = np.random.default_rng(d).normal(scale=10.0, size=(64, d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fld(far)[:, 0, 0]
        assert fld(spread).tobytes() == _where_chain(spread, 0.4, 1e200).tobytes()
    want = [1e-64, 1e-64, 1e64, 1e68, 0.0, (math.sqrt(d) * 1e160) ** -0.4]
    assert got.tolist() == pytest.approx(want, rel=1e-14)


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


# sqrt(pi) to 60 significant digits.
SQRT_PI = Decimal("1.77245385090551602729816748334114518279754945612238712821381")

# bump_mass(d).hex() as the Cephes Gamma this closed form replaced gave it,
# in every dimension the two agree to the bit.
BUMP_MASS_HEX = {
    1: "0x1.a01a01a01a01ap-1", 2: "0x1.41b2f769cf0e0p-1",
    3: "0x1.db5a749ade770p-2", 4: "0x1.50e1eb50f3975p-2",
    6: "0x1.2e6290cef4eecp-3", 8: "0x1.dafc3b70d72c3p-5",
    10: "0x1.4b9a2f342b5b8p-6", 12: "0x1.a0b426e00ea05p-8",
    14: "0x1.dc0a8d0805f73p-10", 16: "0x1.f2825a8ab6bccp-12",
    18: "0x1.e1e18094d8edbp-14", 20: "0x1.b089068790256p-16",
    22: "0x1.6a5c21a900e55p-18", 24: "0x1.1c98c74b9cdc7p-20",
    26: "0x1.a4bf359ed8b4ap-23", 28: "0x1.25bc9c1f4005dp-25",
    30: "0x1.848c4283eb580p-28", 32: "0x1.e843807195ca2p-31",
    34: "0x1.242d2221d7adcp-33", 36: "0x1.4dc80b98cbc12p-36",
    38: "0x1.6cbb761afa60ap-39", 40: "0x1.7df25d9cf94a3p-42",
}


def _reference_gamma(twice_x: int) -> Decimal:
    """Gamma(twice_x / 2) to 60 digits: (n - 1)! at n, and
    (2n)! sqrt(pi) / (4**n n!) at n + 1/2."""
    n, half = divmod(twice_x, 2)
    with localcontext() as ctx:
        ctx.prec = 60
        if not half:
            return Decimal(math.factorial(n - 1))
        return Decimal(math.factorial(2 * n)) * SQRT_PI / (4 ** n * math.factorial(n))


def test_gamma_is_scipy_special_gamma_bit_for_bit_where_bump_mass_reads_it():
    """Gamma(5) and Gamma(d/2 + 5) for d <= 4, and every integer to 25."""
    from scipy.special import gamma
    for x in [5.5, 6.5] + [float(n) for n in range(1, 26)]:
        assert _gamma(x).hex() == float(gamma(x)).hex(), x


def test_gamma_is_within_one_and_a_half_ulp_of_a_60_digit_reference():
    for twice_x in range(2, 67):  # 1, 1.5, ..., 33
        got = _gamma(twice_x / 2.0)
        with localcontext() as ctx:
            ctx.prec = 60
            err = abs(Decimal(got) - _reference_gamma(twice_x)) / Decimal(math.ulp(got))
        assert err <= Decimal("1.5"), (twice_x / 2.0, err)


def test_bump_mass_keeps_its_bits_in_dimensions_up_to_4_and_even_ones_to_40():
    spec = MollifierSpec(0.5)
    for d, want in BUMP_MASS_HEX.items():
        assert spec.bump_mass(d).hex() == want, d
    assert spec.bump_mass(np.int64(3)).hex() == BUMP_MASS_HEX[3]


@pytest.mark.parametrize("d", [0, -1, 2.5])
def test_bump_mass_refuses_a_dimension_that_is_not_a_positive_integer(d):
    with pytest.raises(ParameterError, match="dimension must be a positive integer"):
        MollifierSpec(0.5).bump_mass(d)


# SHA-256 of mollified_family's member-major table for the singular
# example (gamma 0.4, radius 1) in d = 1, 2, 3, on numpy 2.4 (x86-64).
FAMILY_TABLE_SHA256 = {
    1: "d2c9c31a0420552938294be405d3af31ad1ec982807427364a054ff01f80e4c6",
    2: "8f2e3f76fdeaa98bf5ca9b0947987a3b30e9c8be47b5c673c342cb1e0126c029",
    3: "d06abac27ae98825163a40b0019df5448237a32984c0e2e066287dd57352878f",
}


@pytest.mark.parametrize("d", sorted(FAMILY_TABLE_SHA256))
def test_mollified_family_tables_keep_their_bits(d):
    eps_seq = (0.5,) if d == 3 else (0.5, 0.25)
    scen = QuenchedScenario(generate_fbm(0.2, d, TimeGrid(1.0, 16), 1),
                            singular_example(0.4, 1.0, d), np.zeros(d), eps_seq, 4, 1)
    table = next(iter(mollified_family(scen).values())).lattice[0].table
    assert hashlib.sha256(table.tobytes()).hexdigest() == FAMILY_TABLE_SHA256[d]


_MIX = np.array([[1.0, -2.0, 0.5], [0.25, 3.0, -1.0]])


@pytest.mark.parametrize("base", [
    singular_example(0.4, 1.0, 1), singular_example(0.4, 1.0, 2),
    MatrixField(lambda p: np.exp(-np.sum(p * p, axis=-1))[..., None, None] * _MIX,
                2, 3, support_radius=1.0, label="mix")], ids=["d1", "d2", "d2-mix"])
def test_the_family_samples_sigma_once_and_each_member_is_mollify(base):
    """mollified_family evaluates sigma once, on family_grid's bin centers,
    for all three radii, and its member at eps is bit for bit
    mollify(sigma, MollifierSpec(eps), family_grid): table, radius, label
    and reads."""
    calls = []

    def oracle(pts):
        calls.append(pts.shape)
        return base(pts)

    d = base.d
    sigma = MatrixField(oracle, d, base.n, support_radius=1.0, label=base.label)
    scen = QuenchedScenario(generate_fbm(0.2, d, TimeGrid(1.0, 16), 1), sigma,
                            np.zeros(d), (0.5, 0.25, 0.125), 4, 1)
    grid = family_grid(scen)
    family = mollified_family(scen)
    assert calls == [grid.shape + (d,)]
    pts = np.random.default_rng(11).uniform(-2.5, 2.5, size=(300, d))
    for eps, fld in family.items():
        own = mollify(sigma, MollifierSpec(eps), grid)
        _assert_same_bits(fld.grid_values, own.grid_values)
        assert (fld.support_radius, fld.label) == (own.support_radius, own.label)
        _assert_same_bits(fld(pts), own(pts))
    assert len(calls) == 1 + len(family)


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
    # NaN used to return a NaN norm, and inf 1.0 for any field.
    for p in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ParameterError, match="p must be positive and finite"):
            lp_norm(sigma, p, grid)


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
    """A mollified field on grid evaluated one matrix entry at a time, by
    the independent corner loop."""
    table = fld.grid_values
    out = np.empty(pts.shape[:-1] + table.shape[-2:])
    for a in range(table.shape[-2]):
        for b in range(table.shape[-1]):
            out[..., a, b] = _corner_loop_interpolate(grid.lower, grid.h,
                                                      table[..., a, b], pts)
    out[np.linalg.norm(pts, axis=-1) > fld.support_radius] = 0.0
    return out


def _assert_family_consistent(d, pts):
    grid, family = FAMILIES[d]
    together = evaluate_together(family, pts)
    assert together.shape == (len(family),) + family[0](pts).shape
    for e, fld in enumerate(family):
        own = fld(pts)
        assert np.array_equal(together[e], own)
        assert np.array_equal(own, _per_entry_reference(grid, fld, pts))
    # The member-axis gather: members in any order, each at its own points.
    order = [1, 0, 1]
    own_pts = np.stack([pts, pts[::-1], 0.5 * pts])
    gathered = evaluate_members([family[e] for e in order])(own_pts)
    assert gathered.shape == (len(order),) + together[0].shape
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


def test_a_mollified_field_is_a_lattice_stack_member():
    """A bare mollify field is member 0 of its own one-member stack, whose
    table it reads in place, so evaluate_together and evaluate_members
    take the stack's routes for it, bit for bit its own evaluation."""
    mix = np.array([[1.0, -2.0, 0.5], [0.25, 3.0, -1.0]])
    sigma = MatrixField(lambda p: np.exp(-np.sum(p * p, axis=-1))[..., None, None] * mix,
                        2, 3, support_radius=1.0)
    fld = mollify(sigma, MollifierSpec(0.25), SpatialGrid.from_box(-2.0, 2.0, 64, 2))
    stack, e = fld.lattice
    assert e == 0 and stack.radii == (fld.support_radius,)
    table = fld.grid_values
    assert table.flags.c_contiguous and np.shares_memory(table, stack.table)
    assert table.__array_interface__ == stack.table[0].__array_interface__
    pts = np.random.default_rng(3).uniform(-2.5, 2.5, size=(40, 2))
    own = fld(pts)

    def not_called(_pts):
        raise AssertionError("the field was evaluated on its own")

    fld._oracle = not_called
    _assert_same_bits(evaluate_together([fld], pts), own[None])
    _assert_same_bits(evaluate_members([fld])(pts[None]), own[None])


# --- the lattice kernel, bit for bit against the corner loop ------------------

def test_lattice_fields_reproduce_affine_fields():
    grid = SpatialGrid((-1.0, -1.0), 0.25, (8, 8))
    centers = grid.centers_mesh()
    values = 2.0 * centers[..., 0] - 3.0 * centers[..., 1] + 0.5
    table = np.stack([values, -values], axis=-1)[None, ..., None]  # (1, 8, 8, 2, 1)
    fld = LatticeStack(grid, table, [math.inf]).member(0, label="affine")
    rng = np.random.Generator(np.random.Philox(key=1))
    pts = rng.uniform(-0.7, 0.7, size=(50, 2))
    want = 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 0.5
    assert np.max(np.abs(fld(pts)[..., 0] - np.stack([want, -want], axis=-1))) < 1e-12
    # Outside the center lattice a lattice field reads zero.
    assert np.array_equal(fld(np.array([[5.0, 0.0]])), np.zeros((1, 2, 1)))


def _corner_loop_interpolate(lower, h, values, points, members=None):
    """The corner loop lattice fields ran before the flat-index gather,
    verbatim but for the clamp rule they no longer have: the bit-for-bit
    reference."""
    pts = np.asarray(points, dtype=float)
    lo = np.asarray(lower, dtype=float)
    d = lo.size
    if pts.shape[-1] != d or values.ndim < d:
        raise ParameterError(f"points dimension {pts.shape[-1]} != field dimension {d}")
    member = () if members is None else (np.asarray(members),)
    # Position in center-lattice units.
    u = (pts - lo) / h - 0.5
    shape = np.asarray(values.shape[:d])
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
    had before, for one lattice or, by members, one per point."""
    vals = _corner_loop_interpolate(grid.lower, grid.h, table, pts, members=members)
    # The convolution support is a ball; clip FFT dust outside it.
    vals[np.linalg.norm(pts, axis=-1) > radius] = 0.0
    return vals


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


# Finite tables only (LatticeStack refuses NaN and +-inf entries); the
# largest finite magnitude makes corner sums overflow to +-inf.
_TABLE_SPECIALS = (0.0, -0.0, sys.float_info.max, -sys.float_info.max, 5e-324)


@st.composite
def _stacked_lattices(draw):
    """A grid, a member-major (k,) + grid.shape + (d, n) finite table with
    signed zeros and extreme values sprinkled in, points on, off and at
    the edges of the lattice, NaN, +-inf and tiny coordinates among them,
    and radii, some at, just inside or just outside a point's norm, so
    points lie on a member's radius and in the shells between the members'
    radii.  Half the grids are small and away from the origin, with radii
    up to 4 or infinite, so the stack tests each axis of the points within
    the radius too; the others are centred on the origin with every radius
    on the center lattice, as family_grid builds them, so the stack tests
    the norm alone (fits)."""
    d = draw(st.integers(1, 3))
    h = draw(st.sampled_from([0.25, 0.375, 1.0]))
    fits = draw(st.booleans())
    if fits:
        half = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
        bins, lower = tuple(2 * m for m in half), tuple(-m * h for m in half)
        reach = (min(half) - 0.5) * h  # the center lattice's nearest edge
    else:
        bins = tuple(draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)))
        lower = tuple(draw(st.lists(st.sampled_from([-0.9, -0.4, 0.1]),
                                    min_size=d, max_size=d)))
        reach = math.inf
    grid = SpatialGrid(lower, h, bins)
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    table = rng.standard_normal((k,) + bins + (d, n))
    table[rng.random(table.shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = -0.0
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, table.size - 1))
        table.flat[at] = draw(st.sampled_from(_TABLE_SPECIALS))
    upper = [lo + m * h for lo, m in zip(lower, bins)]
    coordinate = [st.one_of(
        st.floats(lo - 1.5 * h, up + 1.5 * h),
        st.floats(*sorted((lo + 0.5 * h, up - 0.5 * h))),  # on the center lattice
        st.sampled_from([lo, lo + 0.5 * h, up - 0.5 * h, up, 0.0, -0.0, 5e-324,
                         -2.0 ** -600, 2.0 ** -511, math.nan, math.inf, -math.inf]))
        for lo, up in zip(lower, upper)]
    rows = draw(st.lists(st.tuples(*coordinate), min_size=1, max_size=6))
    pts = np.array(rows, dtype=float).reshape(-1, d)
    centered = np.abs(pts - (np.add(lower, upper) / 2)) <= (np.array(bins) - 1) * h / 2
    on = pts[centered.all(axis=-1)]
    # The stack compares |x| in d = 1, the reference sqrt(fl(x^2)): they
    # compare alike with radii from 2^-511 on (fields._support_norm).
    norms = sorted({float(r) for r in np.linalg.norm(on if on.size else pts, axis=-1)
                    if 2.0 ** -511 <= r < reach})
    radius = st.floats(0.05, min(reach, 4.0))
    if norms:
        radius = st.one_of(radius, st.sampled_from(norms).flatmap(
            lambda r: st.sampled_from([r, np.nextafter(r, -1.0), np.nextafter(r, 9.0)])))
    if not fits:  # a radius that leaves the lattice on every side
        radius = st.one_of(radius, st.just(math.inf))
    radii = [min(float(r), reach) for r in draw(st.lists(radius, min_size=k, max_size=k))]
    return grid, table, radii, pts, fits


# Sums of the largest finite entries overflow, in both routes.
@pytest.mark.filterwarnings("ignore:overflow encountered in add:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(_stacked_lattices(), st.data())
def test_flat_gather_is_bit_equal_to_the_corner_loop(case, data):
    """The references read the stack's table as it was laid out before,
    member axis after the lattice axes: np.moveaxis(table, 0, d).  A stack
    whose largest radius lies on its center lattice tests the norm alone."""
    grid, table, radii, pts, fits = case
    k, m, d = table.shape[0], pts.shape[0], grid.dimension
    lattice_major = np.moveaxis(table, 0, d)
    members = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m)))
    e = data.draw(st.integers(0, k - 1))
    stack = LatticeStack(grid, table, radii)
    assert stack._inside or not fits
    # The stack's routes: every member with stacked radii, one member
    # field, and the member-axis gather of k point sets, here one set per
    # point, each point with its own member, and three sets.
    per_point = members[:, None]
    _assert_same_bits(stack.gather(members)(pts[:, None, :]), _mask_clip_lattice_values(
        grid, lattice_major, np.asarray(stack.radii)[per_point], pts[:, None, :],
        members=per_point))
    # Slice f of the all-member call against member f's own corner loop.
    _assert_same_bits(stack(pts), np.stack([_mask_clip_lattice_values(
        grid, lattice_major[..., f, :, :], radius, pts)
        for f, radius in enumerate(stack.radii)]))
    _assert_same_bits(stack.member(e, label="e")(pts),
                      _mask_clip_lattice_values(grid, lattice_major[..., e, :, :],
                                                stack.radii[e], pts))
    sets = np.stack([pts, pts[::-1], -pts])
    order = [e, (e + 1) % k, 0]
    index = np.array(order)[:, None]
    _assert_same_bits(stack.gather(order)(sets), _mask_clip_lattice_values(
        grid, lattice_major, np.asarray(stack.radii)[index], sets, members=index))
    # A member of a stack on a strided table, which every call reads
    # through a copy: each lattice's last column, rows reversed.
    strided = LatticeStack(grid, table[..., ::-1, -1:], radii)
    _assert_same_bits(strided.member(e, label="e")(pts),
                      _mask_clip_lattice_values(grid, lattice_major[..., e, ::-1, -1:],
                                                radii[e], pts))


@pytest.mark.parametrize("special", [math.nan, -math.nan, math.inf, -math.inf])
def test_a_table_with_nan_or_inf_is_refused(special):
    """Every read sums the live points alone, fewer than the full-length
    loop, and which of two NaNs numpy's add keeps depends on the array's
    length and the element's place in it: on member 0 = [nan, inf] a point
    on the first node (-0.775) adds 1 * NaN and 0 * inf, two NaNs of
    opposite sign, and a shorter sum could keep the other one.  So a table
    holding NaN or +-inf anywhere, in any member, is refused."""
    grid = SpatialGrid((-0.9,), 0.25, (2,))
    with pytest.raises(ParameterError, match="NaN or infinite"):
        LatticeStack(grid, np.array([[math.nan, math.inf], [0.64, 0.1]]).reshape(2, 2, 1, 1),
                     [1.0, 1.0])
    table = np.ones((3,) + grid.shape + (1, 2))
    table[2, 1, 0, 1] = special
    with pytest.raises(ParameterError, match="NaN or infinite"):
        LatticeStack(grid, table, [1.0] * 3)


@pytest.mark.parametrize("bins, shape, radii", [
    ((4,), (1, 4, 1, 1), [1.0, 1.0, 1.0]),   # one member for three radii
    ((4,), (3, 4, 1, 1), [1.0]),             # three members for one radius
    ((4,), (2, 5, 1, 1), [1.0, 1.0]),        # five nodes on a 4-bin grid
    ((4,), (2, 4, 2, 1), [1.0, 1.0]),        # 2-row entries on a 1-D grid
    ((4,), (2, 4, 1), [1.0, 1.0]),           # no n axis
    ((4,), (2, 4, 1, 1, 1), [1.0, 1.0]),     # an extra axis
    ((3, 4), (1, 4, 3, 2, 1), [1.0]),        # the grid's axes swapped
    ((4,), (0, 4, 1, 1), []),                # no member
])
def test_a_table_that_does_not_match_its_radii_or_grid_is_refused(bins, shape, radii):
    """A (1, 4, 1, 1) table with three radii read uninitialized memory for
    members 1 and 2, and a (2, 5, 1, 1) table on a 4-bin grid was read on
    the grid's 4 nodes; both are refused, as is every other shape that is
    not (len(radii),) + grid.shape + (d, n), and a stack of no member."""
    grid = SpatialGrid((-0.5,) * len(bins), 0.25, bins)
    with pytest.raises(ParameterError, match="table has shape|at least one member"):
        LatticeStack(grid, np.ones(shape), radii)
    LatticeStack(grid, np.ones((2,) + bins + (len(bins), 5)), [1.0, 2.0])


@pytest.mark.parametrize("radius", [0.0, -0.0, -1.0, math.nan, -math.inf])
def test_a_radius_that_is_not_positive_is_refused(radius):
    """A member vanishes beyond its radius; a radius that is zero,
    negative or NaN bounds no point, and is refused."""
    grid = SpatialGrid((-0.5,), 0.25, (4,))
    with pytest.raises(ParameterError, match="radii must be positive"):
        LatticeStack(grid, np.ones((2,) + grid.shape + (1, 1)), [1.0, radius])


def _spy_positions(monkeypatch):
    """The shape of the points of every LatticeStack._position call."""
    seen = []
    position = LatticeStack._position

    def spy(self, pts):
        seen.append(pts.shape)
        return position(self, pts)
    monkeypatch.setattr(LatticeStack, "_position", spy)
    return seen


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [1, 2])
def test_both_live_point_routes_match_the_corner_loop(d, monkeypatch):
    """On a 12-bin-per-axis grid centred on the origin, whose center
    lattice ends at +-1.375, radii (0.75, 1.375) lie on it: the stack
    tests the norm alone.  Radii (0.75, 1.5) and (0.75, inf) reach beyond
    it: the points within the radius get a per-axis test as well.  Either
    way only the points within the radius get positions, and every read
    matches the corner loop bit for bit at +-R, one ulp inside and outside
    each radius, on and beside the lattice's edge, at tiny coordinates,
    NaN and +-inf, on every route."""
    grid = SpatialGrid((-1.5,) * d, 0.25, (12,) * d)
    table = np.random.default_rng(7).standard_normal((2,) + grid.shape + (d, 2))
    table[:, ::3] = -0.0
    lattice_major = np.moveaxis(table, 0, d)
    scales = [s for r in (0.75, 1.375, 1.5)
              for s in (r, np.nextafter(r, 0.0), np.nextafter(r, 9.0))]
    scales += [0.0, 5e-324, 2.0 ** -600, 2.0 ** -511]
    directions = np.eye(d) if d == 1 else np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    pts = np.concatenate([np.outer(scales, directions).reshape(-1, d),
                          -np.outer(scales, directions).reshape(-1, d),
                          np.array([[math.nan] * d, [math.inf] * d, [-math.inf] * d])])
    norms = np.linalg.norm(pts, axis=-1)
    for radii, fits in (((0.75, 1.375), True), ((0.75, 1.5), False),
                        ((0.75, math.inf), False)):
        stack = LatticeStack(grid, table, radii)
        assert stack._inside == fits
        seen = _spy_positions(monkeypatch)
        want = [_mask_clip_lattice_values(grid, lattice_major[..., e, :, :], r, pts)
                for e, r in enumerate(radii)]
        for e in range(2):
            _assert_same_bits(stack.member(e, label="e")(pts), want[e])
        _assert_same_bits(stack(pts), np.stack(want))
        _assert_same_bits(stack.gather([1, 0])(np.stack([pts, pts])), np.stack(want[::-1]))
        # Members 0 and 1, the stacked call, the gather of members 1 and 0.
        small, large = (int(np.sum(norms <= r)) for r in radii)
        assert seen == [(small, d), (large, d), (large, d), (large + small, d)]
        monkeypatch.undo()


# Points of a (8, 6)-bin grid whose center lattice is [-0.875, 0.875] x
# [-0.625, 0.625], radii 0.5 and 0.75: two live for both radii, two in the
# shell between them, and dead ones: beyond both radii, off the lattice
# (one of them within the larger radius), NaN and +-inf.
_PLANE = SpatialGrid((-1.0, -0.75), 0.25, (8, 6))
_PLANE_POINTS = np.array([[0.1, 0.1], [0.2, -0.2], [0.5, 0.3], [-0.6, 0.1],
                          [0.8, 0.5], [0.9, 0.0], [0.0, -0.7], [math.nan, 0.0],
                          [math.inf, 0.0], [0.0, -math.inf]])
_PLANE_LIVE = {0.5: [0, 1], 0.75: [0, 1, 2, 3]}


def _spy_corner_sums(monkeypatch):
    """The corner-0 rows of every fields._corner_sum call, which still runs."""
    seen = []

    def spy(flat, corners, out, term):
        assert out.shape[0] == corners[0][1].shape[0]
        seen.append(corners[0][1].copy())
        _corner_sum(flat, corners, out, term)
    monkeypatch.setattr("fbmlab.fields._corner_sum", spy)
    return seen


def _lower_rows(pts):
    """Raveled lower-corner node of each point of _PLANE's center lattice."""
    base = np.floor((pts - np.asarray(_PLANE.lower)) / _PLANE.h - 0.5).astype(int)
    return np.ravel_multi_index(tuple(base.T), _PLANE.shape)


def test_only_live_points_reach_the_corner_sum(monkeypatch):
    """Each route interpolates exactly its live points, in order: a member
    those inside the lattice and within its radius, the stacked call those
    within the largest radius (the shell is zeroed afterwards), and the
    gather each set's points within its own member's radius, at that
    member's rows."""
    table = np.random.default_rng(5).standard_normal((2,) + _PLANE.shape + (2, 1))
    stack = LatticeStack(_PLANE, table, [0.5, 0.75])
    nodes = math.prod(_PLANE.shape)
    seen = _spy_corner_sums(monkeypatch)
    pts = _PLANE_POINTS
    for e, radius in enumerate(stack.radii):
        got = stack.member(e, label="e")(pts)
        live = _PLANE_LIVE[radius]
        assert len(seen) == 1 and np.array_equal(seen.pop(), _lower_rows(pts[live]))
        dead = np.setdiff1d(np.arange(len(pts)), live)
        assert not got[dead].any() and not np.signbit(got[dead]).any()
    stack(pts)
    assert len(seen) == 2
    for rows in seen:
        assert np.array_equal(rows, _lower_rows(pts[_PLANE_LIVE[0.75]]))
    seen.clear()
    stack.gather([1, 0])(np.stack([pts, pts[::-1]]))
    backwards = len(pts) - 1 - np.array(_PLANE_LIVE[0.5])[::-1]
    want = np.concatenate([nodes + _lower_rows(pts[_PLANE_LIVE[0.75]]),
                           _lower_rows(pts[::-1][backwards])])
    assert len(seen) == 1 and np.array_equal(seen[0], want)


@pytest.mark.filterwarnings("error")
def test_an_all_dead_call_reads_positive_zeros(monkeypatch):
    """Points all off the lattice, beyond every radius, NaN or +-inf get
    +0.0 of the right shape on every route, with no warning, and no
    interpolated row."""
    table = np.random.default_rng(6).standard_normal((2,) + _PLANE.shape + (2, 3))
    stack = LatticeStack(_PLANE, table, [0.5, 0.75])
    seen = _spy_corner_sums(monkeypatch)
    pts = _PLANE_POINTS[4:].reshape(2, 3, 2)
    for got, shape in ((stack(pts), (2, 2, 3, 2, 3)),
                       (stack.member(1, label="1")(pts), (2, 3, 2, 3)),
                       (stack.member(0, label="0")(pts[0, 0]), (2, 3)),
                       (stack.gather([1, 0])(pts), (2, 3, 2, 3))):
        assert got.shape == shape
        assert not got.any() and not np.signbit(got).any()
    assert all(rows.size == 0 for rows in seen)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bins", [(4,), (3, 1), (1, 2, 3)])
def test_nan_points_interpolate_without_a_cast_warning(bins):
    """A NaN coordinate reads 0, as any point off the lattice does, through
    every route of a stack, and casts no NaN to an integer on the way."""
    d = len(bins)
    grid = SpatialGrid((-0.5,) * d, 0.25, bins)
    table = np.random.default_rng(1).standard_normal((2,) + bins + (d, 1))
    pts = np.array([[math.nan] * d, [0.0] * (d - 1) + [math.nan], [0.0] * d])
    stack = LatticeStack(grid, table, [math.inf] * 2)
    for got in (stack(pts).swapaxes(0, 1), stack.gather([1, 0, 1])(pts[:, None, :]),
                stack.member(1, label="1")(pts)):
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


@pytest.mark.parametrize("shape", [(1, 3, 1), (3, 3, 1), (2,), (1,)])
def test_a_gather_takes_one_point_set_per_member(shape):
    """Two members take two point sets, (2, ..., d); one set, which the
    live points' rows would index past, or three sets are refused."""
    grid = SpatialGrid((-0.5,), 0.25, (4,))
    evaluate = LatticeStack(grid, np.ones((2,) + grid.shape + (1, 1)), [1.0] * 2).gather([0, 1])
    assert evaluate(np.zeros((2, 3, 1))).shape == (2, 3, 1, 1)
    with pytest.raises(ParameterError, match="2 members need 2 point sets"):
        evaluate(np.zeros(shape))


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
