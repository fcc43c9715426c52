"""Two-frequency counterexample: mixed couplings and persistence checks."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfkg import (
    CouplingProfile, Integrator, Observers, Sponge, build_counterexample,
    build_multifreq, build_rho, evolve, make_grid, verify_persistence,
)
from mfkg.dynamics import _StrangCore
from mfkg.multifreq import auto_widths
from mfkg.solitary import resolvent_coupling


@pytest.fixture(scope="module")
def cgrid():
    return make_grid(1, 1024, 64.0)


@pytest.fixture(scope="module")
def sol(cgrid):
    return build_counterexample(2.0, -1.0, cgrid)


def test_auto_widths_brackets():
    assert auto_widths(0.5) == pytest.approx((0.35, 3.0))
    assert auto_widths(3.0) == pytest.approx((1.0, 4.8))
    inner, outer = auto_widths(np.sqrt(3.0))
    assert 0 < inner < outer


def test_build_rho_kills_the_shell(cgrid):
    rho = build_rho(2.0, cgrid)
    sigma1 = resolvent_coupling(rho, 2.0)
    sigma0 = resolvent_coupling(rho, 2.0 / 3.0)
    assert sigma0 == pytest.approx(1.0, rel=1e-12)
    assert abs(sigma1) < 1e-10
    # the profile is genuinely real and even
    assert np.max(np.abs(rho.values.imag)) < 1e-12 * np.max(np.abs(rho.values.real))
    assert_allclose(rho.values, rho.values[::-1].take(range(-1, cgrid.shape[0] - 1)),
                    atol=1e-12 * np.max(np.abs(rho.values.real)))


def test_sigma0_target_scales_amplitudes(cgrid):
    rho = build_rho(2.0, cgrid, sigma0_target=4.0)
    assert resolvent_coupling(rho, 2.0 / 3.0) == pytest.approx(4.0, rel=1e-12)


def test_build_rho_validation(cgrid):
    with pytest.raises(ValueError, match="between m and 3m"):
        build_rho(0.9, cgrid)
    with pytest.raises(ValueError, match="between m and 3m"):
        build_rho(3.0, cgrid)
    with pytest.raises(ValueError, match="inner < outer"):
        build_rho(2.0, cgrid, widths=(2.0, 1.0))
    with pytest.raises(ValueError, match="bandwidth"):
        build_rho(2.0, make_grid(1, 64, 64.0))
    with pytest.raises(ValueError, match="bracket"):
        build_rho(2.0, cgrid, widths=(4.0, 5.0))


def test_build_multifreq_rejects_unmixed_coupling(cgrid):
    plain = CouplingProfile.gaussian(cgrid)
    with pytest.raises(ValueError, match="resonant shell"):
        build_multifreq(plain, 2.0, -1.0)
    # vanishes on the shell itself but sigma(omega1) stays finite and negative
    k_sq = cgrid.k_squared
    shellfree = CouplingProfile.from_spectrum(
        cgrid, ((k_sq - 3.0) * np.exp(-k_sq / 2.0)).astype(complex))
    with pytest.raises(ValueError, match="does not vanish"):
        build_multifreq(shellfree, 2.0, -1.0)
    mixed = build_rho(2.0, cgrid)
    with pytest.raises(ValueError, match="negative"):
        build_multifreq(mixed, 2.0, 0.5)


def test_solution_bookkeeping(sol):
    assert sol.omega0 == pytest.approx(2.0 / 3.0)
    assert sol.mixing is not None
    # sigma0 = 1, b = -1: a = 1 + 3/4 = 1.75, so u = (-0.875, 0.25)
    assert sol.linear_coeff == pytest.approx(1.75, rel=1e-12)
    assert sol.potential().coeffs == pytest.approx((-0.875, 0.25))
    # alpha(sigma0^2 gamma^2) applied to the pure tone reproduces a + b gamma^2
    assert sol.potential().force_coefficient(0.3) == pytest.approx(1.75 - 0.3)


def test_gamma_exact_is_a_pure_tone(sol, cgrid):
    # the omega1 component is invisible to rho: <rho, phi1> ~ sigma(omega1) = 0
    leak = abs(cgrid.dot(sol.rho.values, sol.phi1))
    assert leak < 1e-10 * abs(cgrid.dot(sol.rho.values, sol.phi0))
    for t in (0.0, 0.37, 2.0, 11.3):
        g = cgrid.dot(sol.rho.values, sol.exact_psi(t))
        assert g.real == pytest.approx(sol.sigma0 * np.sin(sol.omega0 * t), abs=1e-10)
        assert abs(g.imag) < 1e-12


def test_exact_state_consistency(sol):
    st = sol.exact_state(0.0)
    assert_allclose(st.psi, np.zeros_like(st.psi), atol=1e-14)
    assert_allclose(st.pi, sol.omega0 * sol.phi0 + sol.omega1 * sol.phi1, atol=1e-14)


def test_generic_evolver_tracks_the_closed_form(sol):
    traj = evolve(sol.initial_state(), sol.rho, sol.potential(),
                  Integrator(0.01, 10), 2.0, observers=Observers(snapshot_stride=0))
    assert_allclose(traj.gamma.real, sol.gamma_exact(traj.times), atol=1e-4)
    assert np.max(np.abs(traj.gamma.imag)) < 1e-12


def test_verify_persistence(sol):
    report = verify_persistence(sol, Integrator(0.01, 10), T=50.0)
    assert report.passed and report.max_relative_error < 1e-3
    assert report.gamma_error < 1e-3
    assert report.force_peaks[0] == pytest.approx(sol.omega0, abs=0.13)
    assert report.force_peaks[1] == pytest.approx(3 * sol.omega0, abs=0.13)
    assert report.force_concentration < 0.95
    # halving dt should improve tracking by roughly four
    finer = verify_persistence(sol, Integrator(0.005, 20), T=50.0)
    ratio = report.max_relative_error / finer.max_relative_error
    assert 3.0 < ratio < 5.0


def test_verify_persistence_reads_the_evolve_run(sol):
    # both go through the same sampled run, so the series agree bit for bit,
    # also when T is not a whole number of sampling intervals
    integ = Integrator(0.01, 10)
    for T in (2.0, 2.05):
        report = verify_persistence(sol, integ, T)
        traj = evolve(sol.initial_state(), sol.rho, sol.potential(), integ, T)
        assert np.array_equal(report.times, traj.times)
        assert np.array_equal(report.gamma, traj.gamma)


def persistence_errors_reference(sol, integ, T):
    """max_relative_error and gamma_error of a persistence run, by the
    per-sample formula with one temporary per term."""
    grid = sol.rho.grid
    core = _StrangCore(grid, integ, sol.rho, sol.potential(), sol.m)
    state0 = sol.initial_state()
    raw = core.to_raw(state0.psi, state0.pi)
    psi, pi = raw
    phi0_raw, phi1_raw = core.to_raw(sol.phi0, sol.phi1)
    scale = np.sqrt(grid.l2sq(sol.phi0)) + np.sqrt(grid.l2sq(sol.phi1))
    max_err = gamma_err = 0.0
    for t, _ in core.samples(raw, T, state0.time):
        s0, s1 = np.sin(sol.omega0 * t), np.sin(sol.omega1 * t)
        c0, c1 = np.cos(sol.omega0 * t), np.cos(sol.omega1 * t)
        dpsi = psi - (s0 * phi0_raw + s1 * phi1_raw)
        dpi = pi - (sol.omega0 * c0 * phi0_raw + sol.omega1 * c1 * phi1_raw)
        err_psi = np.sqrt(core.scale * np.vdot(dpsi, dpsi).real)
        err_pi = np.sqrt(core.scale * np.vdot(dpi, dpi).real) / sol.omega1
        max_err = max(max_err, max(err_psi, err_pi) / scale)
        gamma_err = max(gamma_err, abs(core.coupling(psi) - sol.sigma0 * s0) / sol.sigma0)
    return max_err, gamma_err


def test_persistence_errors_match_reference_formula(sol):
    integ = Integrator(0.01, 10)
    report = verify_persistence(sol, integ, T=20.0)
    max_err, gamma_err = persistence_errors_reference(sol, integ, 20.0)
    assert report.max_relative_error == pytest.approx(max_err, rel=1e-12)
    assert report.gamma_error == pytest.approx(gamma_err, rel=1e-12)


def test_verify_persistence_rejects_sponge(sol):
    with pytest.raises(ValueError, match="undamped"):
        verify_persistence(sol, Integrator(0.01, 10, Sponge(16.0, 1.0)))
