"""Two-frequency counterexample: mixed couplings and persistence checks."""
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mfkg.multifreq
from mfkg import (
    CouplingProfile, Integrator, Observers, PolynomialPotential, Sponge, build_counterexample,
    build_multifreq, build_rho, evolve, make_grid, verify_persistence,
)
from mfkg.dynamics import _sample_count, _ShellCore
from mfkg.multifreq import _outside_bound, auto_widths
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


def test_build_rho_validation(cgrid, monkeypatch):
    with pytest.raises(ValueError, match="between m and 3m"):
        build_rho(0.9, cgrid)
    with pytest.raises(ValueError, match="between m and 3m"):
        build_rho(3.0, cgrid)
    with pytest.raises(ValueError, match="bandwidth"):
        build_rho(2.0, make_grid(1, 64, 64.0))
    # an inner Gaussian as wide as the shell leaves I11 > 0
    monkeypatch.setattr("mfkg.multifreq.auto_widths", lambda k1: (4.0, 5.0))
    with pytest.raises(ValueError, match="bracket"):
        build_rho(2.0, cgrid)


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
    core = _ShellCore(grid, integ, sol.rho, sol.potential(), sol.m)
    state0 = sol.initial_state()
    core.load(state0.psi, state0.pi)
    phi0_raw, phi1_raw = core.to_raw(sol.phi0, sol.phi1)
    scale = np.sqrt(grid.l2sq(sol.phi0)) + np.sqrt(grid.l2sq(sol.phi1))
    pairing = core.scale * grid.raw_fft(sol.rho.values).ravel()
    max_err = gamma_err = 0.0
    for t in core.samples(_sample_count(integ, T), state0.time):
        # the whole state, every mode in natural raw order; the residual
        # flows with the blocks, every interval
        psi, pi = core.natural()
        s0, s1 = np.sin(sol.omega0 * t), np.sin(sol.omega1 * t)
        c0, c1 = np.cos(sol.omega0 * t), np.cos(sol.omega1 * t)
        dpsi = psi - (s0 * phi0_raw + s1 * phi1_raw)
        dpi = pi - (sol.omega0 * c0 * phi0_raw + sol.omega1 * c1 * phi1_raw)
        err_psi = np.sqrt(core.scale * np.vdot(dpsi, dpsi).real)
        err_pi = np.sqrt(core.scale * np.vdot(dpi, dpi).real) / sol.omega1
        max_err = max(max_err, max(err_psi, err_pi) / scale)
        # gamma by the pairing over every mode, not as the blocks hand it on
        gamma = complex(np.vdot(pairing, psi))
        gamma_err = max(gamma_err, abs(gamma - sol.sigma0 * s0) / sol.sigma0)
    return max_err, gamma_err


def test_persistence_errors_match_reference_formula(sol):
    integ = Integrator(0.01, 10)
    report = verify_persistence(sol, integ, T=20.0)
    max_err, gamma_err = persistence_errors_reference(sol, integ, 20.0)
    assert report.max_relative_error == pytest.approx(max_err, rel=1e-12)
    assert report.gamma_error == pytest.approx(gamma_err, rel=1e-12)


CHUNK = mfkg.multifreq._PERSISTENCE_CHUNK


@pytest.mark.parametrize("samples", [9, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1])
def test_persistence_chunks_match_the_reference_at_their_boundaries(sol, samples):
    # runs one sample short of, on and one sample past a whole number of
    # held chunks, and a run shorter than one chunk
    integ = Integrator(0.01, 10)
    T = (samples - 1) * integ.dt * integ.steps_per_sample
    report = verify_persistence(sol, integ, T)
    assert report.times.size == samples
    max_err, gamma_err = persistence_errors_reference(sol, integ, T)
    assert report.max_relative_error == pytest.approx(max_err, rel=1e-12)
    assert report.gamma_error == pytest.approx(gamma_err, rel=1e-12)
    traj = evolve(sol.initial_state(), sol.rho, sol.potential(), integ, T)
    assert report.gamma.tobytes() == traj.gamma.tobytes()


def test_persistence_chunk_does_not_grow_with_the_run(sol):
    """Ten times the samples add only the per-sample scalars to the run's peak.

    A sample adds its time, gamma and force (40 bytes) and its share of the
    force spectrum's arrays, within 256 bytes; holding each sample's shell
    pair would add 2 x 277 x 16 bytes per sample.
    """
    integ = Integrator(0.01, 10)
    verify_persistence(sol, integ, 20.0)
    peaks = []
    for T in (20.0, 200.0):
        tracemalloc.start()
        try:
            verify_persistence(sol, integ, T)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    extra = _sample_count(integ, 200.0) - _sample_count(integ, 20.0)
    assert peaks[1] - peaks[0] < 256 * extra


def test_a_nan_in_the_shell_pair_fails_the_persistence_check(sol, monkeypatch):
    # one sample's shell pair turns NaN mid-chunk, after its gamma was
    # handed on: its error is NaN, and the check fails instead of skipping
    # it; the next interval's gamma reads the NaN, and so does the gamma error
    integ, advance, calls = Integrator(0.01, 10), _ShellCore.advance, [0]

    def spoiled(core):
        advance(core)
        calls[0] += 1
        if calls[0] == CHUNK + 3:
            core.pair[0, 0] = complex("nan")

    monkeypatch.setattr(_ShellCore, "advance", spoiled)
    report = verify_persistence(sol, integ, 20.0)
    assert np.isnan(report.max_relative_error) and not report.passed
    assert np.isnan(report.gamma[CHUNK + 4]) and np.isnan(report.gamma_error)


@pytest.mark.parametrize("b", [-0.5, -1.0, -1.5])
def test_coupled_set_error_matches_the_all_mode_reference(cgrid, b):
    # the error summed over C plus the outside bound against the every-mode
    # reference, at the benchmark's dt and T; the two routes round differently,
    # by up to ~1.5e-13 relative either way, so neither bounds the other exactly
    sol = build_counterexample(2.0, b, cgrid)
    integ = Integrator(0.005, 10)
    report = verify_persistence(sol, integ, T=200.0)
    max_err, gamma_err = persistence_errors_reference(sol, integ, 200.0)
    assert report.max_relative_error == pytest.approx(max_err, rel=1e-12)
    assert report.gamma_error == pytest.approx(gamma_err, rel=1e-12)


@pytest.mark.parametrize("grid_args", [(1, 1024, 64.0), (1, 2048, 128.0)])
@pytest.mark.parametrize("b", [-0.5, -1.0, -1.5])
def test_outside_bound_is_roundoff_of_the_profiles(grid_args, b):
    """On the bench grid and the CLI's default one, the residuals hold only roundoff.

    The profiles and the data are resolvent profiles, parallel to rho_raw on
    every shell, so their residual is roundoff on the coupled shells as well
    as outside C.
    """
    grid = make_grid(*grid_args)
    sol = build_counterexample(2.0, b, grid)
    core = _ShellCore(grid, Integrator(0.01, 10), sol.rho, sol.potential(), sol.m)
    state0 = sol.initial_state()
    core.load(state0.psi, state0.pi)
    _, rest = core.project(core.to_raw(sol.phi0, sol.phi1))
    rest_psi, rest_pi = _outside_bound(core, rest, (sol.omega0, sol.omega1))
    scale = np.sqrt(grid.l2sq(sol.phi0)) + np.sqrt(grid.l2sq(sol.phi1))
    assert core.pair.shape[1] < core.modes.size < grid.num_points
    assert 0.0 < np.sqrt(core.scale * rest_psi) < 1e-15 * scale
    assert 0.0 < np.sqrt(core.scale * rest_pi) / sol.omega1 < 1e-15 * scale


def test_outside_bound_dominates_the_eager_run(sol):
    """At every sample of a run synced every interval, the residual's error stays below the set-up bound."""
    grid, integ = sol.rho.grid, Integrator(0.01, 10)
    core = _ShellCore(grid, integ, sol.rho, sol.potential(), sol.m)
    state0 = sol.initial_state()
    core.load(state0.psi, state0.pi)
    _, (p0, p1) = core.project(core.to_raw(sol.phi0, sol.phi1))
    bound = _outside_bound(core, np.stack((p0, p1)), (sol.omega0, sol.omega1))
    assert core.residual.shape == (2, grid.num_points)
    psi, pi = core.residual
    for t in core.samples(_sample_count(integ, 20.0), state0.time):
        # the residual lags the blocks; syncing every interval flows it with them
        core.sync()
        dpsi = psi - (np.sin(sol.omega0 * t) * p0 + np.sin(sol.omega1 * t) * p1)
        dpi = pi - (sol.omega0 * np.cos(sol.omega0 * t) * p0
                    + sol.omega1 * np.cos(sol.omega1 * t) * p1)
        assert np.vdot(dpsi, dpsi).real <= bound[0]
        assert np.vdot(dpi, dpi).real <= bound[1]


def test_persistence_gamma_matches_an_eager_core(sol):
    # the check flows the shell pair only; a run that syncs the residual
    # after every interval, as an every-mode core did, reads the same gamma
    # bit for bit
    integ = Integrator(0.005, 10)
    report = verify_persistence(sol, integ, T=20.0)
    core = _ShellCore(sol.rho.grid, integ, sol.rho, sol.potential(), sol.m)
    state0 = sol.initial_state()
    core.load(state0.psi, state0.pi)
    assert core.residual.shape == (2, sol.rho.grid.num_points)
    gamma = []
    for _ in core.samples(_sample_count(integ, 20.0), state0.time):
        core.sync()
        gamma.append(core.coupling())
    assert np.array_equal(report.gamma, gamma)


def test_persistence_reads_the_force_handed_on_with_gamma(sol, monkeypatch):
    # the force spectrum reads the F(gamma) that the core hands on with each
    # sample's gamma: the potential sees scalars alone, no array of the
    # gamma series, and the series is pot.force(gamma)'s bit for bit
    arguments, series = [], []
    force, spectrum = PolynomialPotential.force, mfkg.multifreq.windowed_spectrum
    monkeypatch.setattr(PolynomialPotential, "force",
                        lambda pot, z: arguments.append(type(z)) or force(pot, z))
    monkeypatch.setattr(mfkg.multifreq, "windowed_spectrum",
                        lambda times, values, *window: series.append(values)
                        or spectrum(times, values, *window))
    report = verify_persistence(sol, Integrator(0.01, 10), T=20.0)
    assert arguments and not any(issubclass(kind, np.ndarray) for kind in arguments)
    assert series[0].tobytes() == force(sol.potential(), report.gamma).tobytes()


@pytest.mark.parametrize("T, tol, match", [
    (0.5, 1e-3, "T = 0.5 gives 6 samples; the force spectrum needs 8"),
    (0.0, 1e-3, "T = 0 gives 1 samples"),
    (float("nan"), 1e-3, "T must be finite and tol"),
    (float("inf"), 1e-3, "T must be finite and tol"),
    (50.0, float("nan"), "tol finite and positive"),
    (50.0, -1.0, "tol finite and positive"),
    (50.0, 0.0, "tol finite and positive"),
])
def test_verify_persistence_rejects_bad_input_before_evolving(sol, monkeypatch, T, tol, match):
    def no_core(*args, **kwargs):
        raise AssertionError("a core was built")

    monkeypatch.setattr("mfkg.multifreq._ShellCore", no_core)
    with pytest.raises(ValueError, match=match):
        verify_persistence(sol, Integrator(0.01, 10), T, tol)


def test_verify_persistence_runs_on_eight_samples(sol):
    report = verify_persistence(sol, Integrator(0.01, 10), T=0.7)
    assert report.times.size == 8


def test_verify_persistence_rejects_sponge(sol):
    with pytest.raises(ValueError, match="undamped"):
        verify_persistence(sol, Integrator(0.01, 10, Sponge(16.0, 1.0)))
