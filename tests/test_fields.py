"""States, coupling profiles, conserved functionals, windowed seminorms."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfkg import (
    CouplingProfile, FieldState, SeminormSpec, charge, energy, energy_norm,
    inner_product, local_metric_norm, local_seminorm, make_grid, smooth_cutoff,
    zero_state,
)
from mfkg.fields import _seminorm_weights, require_same_grid, seminorm_inner_product


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


def test_energy_inner_product_induces_norm(grid, rng):
    # spec=None is the global energy pairing
    a = random_state(grid, rng)
    b = random_state(grid, rng)
    assert_allclose(seminorm_inner_product(a, a, None).real, energy_norm(a) ** 2, rtol=1e-12)
    assert_allclose(seminorm_inner_product(a, b, None),
                    np.conj(seminorm_inner_product(b, a, None)), rtol=1e-12)


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


def test_seminorm_inner_product_consistency(grid, rng):
    a = random_state(grid, rng)
    spec = SeminormSpec(0.5, 8.0, 8.0)
    ip = seminorm_inner_product(a, a, spec)
    assert_allclose(np.sqrt(ip.real), local_seminorm(a, spec), rtol=1e-12)
    assert abs(ip.imag) < 1e-12 * ip.real


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


def test_local_metric_norm_keeps_the_seminorm_cache(grid, rng):
    state = random_state(grid, rng)
    spec = SeminormSpec(0.5, 8.0, 4.0)
    _seminorm_weights.cache_clear()
    local_seminorm(state, spec)
    norm = local_metric_norm(state, 0.5, 4.0)
    assert _seminorm_weights.cache_info().misses == 1
    local_seminorm(state, spec)
    assert _seminorm_weights.cache_info().hits == 1
    r_max = int(np.floor(0.5 * grid.box_length - 4.0))
    terms = [2.0**-r * local_seminorm(state, SeminormSpec(0.5, float(r), 4.0))
             for r in range(1, r_max + 1)]
    assert_allclose(norm, sum(terms), rtol=1e-14)


def test_local_metric_norm_bounds(grid, rng):
    state = random_state(grid, rng)
    norm = local_metric_norm(state, 0.5, 4.0)
    assert 0.0 < norm
    # each term is below the global seminorm, so the sum is below sum 2^-r times it
    cap = local_seminorm(state, SeminormSpec(0.5, 31.0, 4.0))
    assert norm < cap
    assert local_metric_norm(zero_state(grid), 0.5, 4.0) == 0.0
