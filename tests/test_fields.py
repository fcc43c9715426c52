"""States, coupling profiles, conserved functionals, windowed seminorms."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfkg import (
    CouplingProfile, FieldState, SeminormSpec, charge, energy, energy_norm,
    inner_product, local_seminorm, make_grid, smooth_cutoff,
    zero_pad, zero_state,
)
from mfkg.fields import _seminorm_weights, require_same_grid


def random_state(grid, rng, scale=1.0):
    shape = grid.shape
    psi = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    pi = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return FieldState(grid, psi, pi, 0.0)


def test_field_state_validation(grid):
    good = np.zeros(grid.shape, dtype=complex)
    with pytest.raises(ValueError):
        FieldState(grid, good[:-1], good[:-1], 0.0)
    bad = good.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError):
        FieldState(grid, bad, good, 0.0)


def test_require_same_grid(grid, rho):
    other = make_grid(1, 128, 64.0)
    assert require_same_grid(rho, zero_state(grid)) == grid
    with pytest.raises(ValueError, match="grid mismatch"):
        require_same_grid(rho, zero_state(other))


def test_gaussian_profile_norm(grid):
    # the (pi w^2)^{-n/4} prefactor makes ||rho||_2 = |amplitude|
    for amp, width in [(1.0, 1.0), (2.0, 1.0), (0.5, 3.0)]:
        rho = CouplingProfile.gaussian(grid, amplitude=amp, width=width)
        assert_allclose(rho.l2_norm_sq, amp**2, rtol=1e-12)
    with pytest.raises(ValueError):
        CouplingProfile.gaussian(grid, width=0.0)


def test_profile_spectrum_roundtrip(grid, rho):
    again = CouplingProfile.from_spectrum(grid, rho.rho_hat)
    assert_allclose(again.values, rho.values, atol=1e-12)
    # a one-sided (non-Hermitian) spectrum does not come from a real profile
    with pytest.raises(ValueError, match="real profile"):
        CouplingProfile.from_spectrum(grid, np.exp(-((grid.wavenumbers[0] - 2.0) ** 2)))


def test_profile_rejects_complex_values(grid, rho):
    # complex values are refused, not cut to their real part, even when
    # every imaginary part is zero
    for values in (rho.values + 1e-3j * rho.values, rho.values.astype(complex)):
        with pytest.raises(ValueError, match="must be real"):
            CouplingProfile.from_values(grid, values)


@pytest.mark.parametrize("build, match", [
    (lambda grid: CouplingProfile.from_values(grid, np.ones(7)),
     r"profile shape \(7,\) does not match grid \(256,\)"),
    (lambda grid: CouplingProfile.from_values(grid, np.where(grid.radius < 1.0, np.nan, 1.0)),
     "coupling profile must be finite"),
    (lambda grid: CouplingProfile.from_values(grid, np.zeros(grid.shape)),
     "must not vanish identically"),
    (lambda grid: CouplingProfile.from_spectrum(grid, np.zeros(grid.shape)),
     "must not vanish identically"),
], ids=["shape", "nan", "zero-values", "zero-spectrum"])
def test_profile_rejects_bad_values(grid, build, match):
    with pytest.raises(ValueError, match=match):
        build(grid)


def test_inner_product_is_plain_quadrature(grid, rho, rng):
    state = random_state(grid, rng)
    expected = grid.cell_volume * np.sum(rho.values * state.psi)
    assert_allclose(inner_product(rho, state), expected, rtol=1e-12)


def test_charge_of_rotating_wave(grid, rng):
    """On pi = -i omega psi the charge is omega ||psi||^2."""
    psi = np.exp(-0.5 * grid.radius**2) * (1.0 + 0.3j)
    for omega in (-0.7, 0.0, 0.4):
        state = FieldState(grid, psi, -1j * omega * psi, 0.0)
        assert_allclose(charge(state), omega * grid.l2sq(psi), atol=1e-13)


def test_charge_gauge_invariance(grid, rng):
    state = random_state(grid, rng)
    assert_allclose(charge(state.rotated(1.234)), charge(state), rtol=1e-12)


def test_energy_norm_oracle(grid, rng):
    """Assemble ||pi||^2 + ||grad psi||^2 + m^2 ||psi||^2 by hand."""
    state = random_state(grid, rng)
    m = 1.3
    xi = grid.wavenumbers[0]
    grad_psi = grid.inverse(1j * xi * grid.forward(state.psi))
    expected = grid.l2sq(state.pi) + grid.l2sq(grad_psi) + m**2 * grid.l2sq(state.psi)
    assert_allclose(energy_norm(state, m) ** 2, expected, rtol=1e-11)


def test_energy_decomposition(grid, rho, pot, rng):
    state = random_state(grid, rng)
    expected = 0.5 * energy_norm(state) ** 2 + pot.value(inner_product(rho, state))
    assert_allclose(energy(state, rho, pot), expected, rtol=1e-12)
    assert energy(zero_state(grid), rho, pot) == 0.0


def test_smooth_cutoff_profile(grid):
    chi = smooth_cutoff(grid, 8.0, 4.0)
    r = grid.radius
    assert np.all(chi[r <= 8.0] == 1.0)
    assert np.all(chi[r >= 12.0] == 0.0)
    ramp = chi[(r > 8.0) & (r < 12.0)]
    assert np.all((ramp > 0.0) & (ramp < 1.0))
    with pytest.raises(ValueError):
        smooth_cutoff(grid, -1.0, 4.0)


def test_seminorm_reduces_to_energy_norm(grid, rng):
    # disabled cutoff (window does not fit) plus epsilon = 0
    state = random_state(grid, rng)
    spec = SeminormSpec(0.0, 30.0, 10.0)
    assert spec.cutoff_disabled(grid)
    assert_allclose(local_seminorm(state, spec), energy_norm(state), rtol=1e-12)


def test_seminorm_spec_validation():
    with pytest.raises(ValueError):
        SeminormSpec(1.5, 8.0, 8.0)
    with pytest.raises(ValueError):
        SeminormSpec(0.5, 0.0, 8.0)
    with pytest.raises(ValueError):
        SeminormSpec(0.5, 8.0, -2.0)


@pytest.mark.parametrize("field, value", [
    ("radius", float("nan")), ("radius", float("inf")),
    ("cutoff_width", float("nan")), ("cutoff_width", float("inf")),
])
def test_seminorm_spec_rejects_non_finite_sizes(field, value):
    # a NaN size would pass a "<= 0" test, and every windowed norm would read NaN
    sizes = {"radius": 0.5, "cutoff_width": 8.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
        SeminormSpec(0.5, sizes["radius"], sizes["cutoff_width"])


@pytest.mark.parametrize("dim, points, length, factor", [
    (1, 256, 64.0, 2),
    (1, 128, 40.0, 4),
    (2, 32, 16.0, 2),
    (1, 64, 16.0, 1),
])
def test_zero_pad_keeps_values_at_equal_coordinates(dim, points, length, factor, rng):
    grid = make_grid(dim, points, length)
    rho = CouplingProfile.gaussian(grid, amplitude=2.0, width=1.0)
    state = random_state(grid, rng)
    state = FieldState(grid, state.psi, state.pi, 3.5)
    padded, big_rho = zero_pad(state, rho, factor)
    big = padded.grid
    assert big == make_grid(dim, factor * points, factor * length) == big_rho.grid
    assert big.spacing == grid.spacing and padded.time == 3.5
    # the small grid's coordinates sit inside the big one's, starting at
    # index N_big/2 - N/2 on each axis
    start = int(np.flatnonzero(big.axis_coords[0] == grid.axis_coords[0][0])[0])
    assert start == big.points_per_axis // 2 - points // 2
    assert np.array_equal(big.axis_coords[0][start:start + points], grid.axis_coords[0])
    inner = (slice(start, start + points),) * dim
    for small, large in ((state.psi, padded.psi), (state.pi, padded.pi),
                         (rho.values, big_rho.values)):
        assert np.array_equal(large[inner], small)
        outside = np.ones(big.shape, dtype=bool)
        outside[inner] = False
        assert np.all(large[outside] == 0.0)
    # the integrals that do not see the box agree to roundoff
    assert inner_product(big_rho, padded) == pytest.approx(inner_product(rho, state), rel=1e-13)


@pytest.mark.parametrize("factor", [3, 0, 2.0, "2"])
def test_zero_pad_rejects_a_factor_that_is_not_a_power_of_two(grid, rho, factor):
    with pytest.raises(ValueError, match="factor"):
        zero_pad(zero_state(grid), rho, factor)


def test_seminorm_sees_only_the_window(grid):
    """Mass far outside the cutoff contributes nothing."""
    x = grid.axis_coords[0]
    far = np.exp(-0.5 * (np.abs(x) - 24.0) ** 2)
    near = np.exp(-0.5 * x**2)
    spec = SeminormSpec(0.5, 4.0, 4.0)
    zero = np.zeros_like(far)
    s_far = local_seminorm(FieldState(grid, far, zero, 0.0), spec)
    s_near = local_seminorm(FieldState(grid, near, zero, 0.0), spec)
    assert s_far < 1e-10 * s_near


def _uncached_seminorm(state, spec, m):
    grid = state.grid
    chi = smooth_cutoff(grid, spec.radius, spec.cutoff_width)
    sym = grid.k_squared + m * m
    psi_hat = grid.forward(chi * state.psi)
    pi_hat = grid.forward(chi * state.pi)
    total = np.sum(sym ** (1.0 - spec.epsilon) * np.abs(psi_hat) ** 2
                   + sym ** (-spec.epsilon) * np.abs(pi_hat) ** 2)
    return float(np.sqrt(total / grid.box_length**grid.dim))


def test_seminorm_weights_cache_keys_on_m_and_epsilon(grid, rng):
    state = random_state(grid, rng)
    rough, smooth = SeminormSpec(0.0, 8.0, 4.0), SeminormSpec(0.75, 8.0, 4.0)
    _seminorm_weights.cache_clear()
    # each call would reuse the previous one's tables if the key missed m or epsilon
    for spec, m in [(rough, 1.0), (rough, 2.0), (smooth, 2.0), (smooth, 1.0), (rough, 1.0)]:
        assert_allclose(local_seminorm(state, spec, m), _uncached_seminorm(state, spec, m),
                        rtol=1e-14)
    window, w1, w0 = _seminorm_weights(grid, smooth, 1.0)
    assert not (window.flags.writeable or w1.flags.writeable or w0.flags.writeable)


def _mass_entry_points():
    """Every public route that takes the mass m, each as a call of m alone."""
    import mfkg
    from mfkg import Integrator, PolynomialPotential, Sponge, build_solitary, evolve
    from mfkg.dynamics import snapshots
    from mfkg.solitary import default_omega_grid, stationarity_residual

    grid = make_grid(1, 256, 64.0)
    state = mfkg.random_state(grid, 0)
    rho = CouplingProfile.gaussian(grid, amplitude=2.0, width=1.0)
    pot = PolynomialPotential((-1.0, 1.0))
    wave = build_solitary(rho, pot, 0.5)
    integ, sponge = Integrator(0.01, 10), Integrator(0.01, 10, Sponge(20.0))
    return {
        "energy": lambda m: energy(state, rho, pot, m),
        "energy_norm": lambda m: energy_norm(state, m),
        "local_seminorm": lambda m: local_seminorm(state, SeminormSpec(0.5, 8.0, 8.0), m),
        "evolve": lambda m: evolve(state, rho, pot, integ, 0.1, m=m),
        "evolve_sponge": lambda m: evolve(state, rho, pot, sponge, 0.1, m=m),
        "snapshots": lambda m: snapshots(state, rho, pot, integ, 0.1, 1, m),
        "default_omega_grid": default_omega_grid,
        "stationarity_residual": lambda m: stationarity_residual(wave, rho, pot, m),
    }


@pytest.mark.parametrize("route", sorted(_mass_entry_points()))
@pytest.mark.parametrize("m", [float("nan"), float("inf"), 0.0, -1.0])
def test_every_mass_route_rejects_a_mass_that_is_not_finite_and_positive(route, m):
    # before the check reached them, these returned nan, the m = 1 values
    # for m = -1, or aborted a run at its first sample
    with pytest.raises(ValueError, match=f"m={m} must be finite and positive"):
        _mass_entry_points()[route](m)
