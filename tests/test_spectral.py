"""Windowed spectra, support and concentration measures, shell weights."""
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.signal import get_window

from mfkg import (
    CouplingProfile, PolynomialPotential, Trajectory, concentration_ratio,
    make_grid, support_estimate, titchmarsh_check, windowed_spectrum,
)
from mfkg.solitary import default_omega_grid
from mfkg.spectral import (
    AttractionConfig, _hann, _shell_density, attraction_report, semidiscrete_transform,
)

# window with bin spacing exactly 0.05, so tones at 0.2/0.35/0.5 sit on bins
BIN = 0.05
M = 1024
WIDTH = 2.0 * np.pi / BIN
DT = WIDTH / M


def tone_series(freqs_and_amps, n_periods=1.0):
    times = DT * np.arange(int(M * n_periods))
    g = np.zeros(times.size, dtype=complex)
    for f, a in freqs_and_amps:
        g = g + a * np.exp(-1j * f * times)
    return times, g


def test_on_bin_tone_occupies_three_hann_bins():
    times, g = tone_series([(0.2, 1.0)])
    spec = windowed_spectrum(times, g, t_center=0.5 * WIDTH, width=WIDTH)
    mass = np.abs(spec.amps) ** 2
    assert spec.bin_width == pytest.approx(BIN)
    k = int(np.argmax(mass))
    # e^{-i omega0 t} peaks at +omega0 under this sign convention
    assert spec.freqs[k] == pytest.approx(0.2)
    hot = mass > 1e-20 * mass.max()
    assert hot.sum() == 3 and hot[k - 1] and hot[k + 1]
    # periodic Hann: center amplitude M dt / 2, neighbors M dt / 4
    assert_allclose(np.abs(spec.amps[k]), 0.5 * M * DT, rtol=1e-9)
    assert_allclose(np.abs(spec.amps[k - 1]), 0.25 * M * DT, rtol=1e-9)
    conc, peak = concentration_ratio(spec, cluster_bins=1)
    assert conc == pytest.approx(1.0) and peak == pytest.approx(0.2)


def test_window_start_phase_compensation():
    # the tone's bin amplitude is window-position independent (modulo taper)
    times, g = tone_series([(0.35, 1.0)], n_periods=3.0)
    for center in (0.5 * WIDTH, 1.7 * WIDTH, 2.3 * WIDTH):
        spec = windowed_spectrum(times, g, t_center=center, width=WIDTH)
        k = int(np.argmin(np.abs(spec.freqs - 0.35)))
        amp = spec.amps[k]
        assert amp.real == pytest.approx(0.5 * M * DT, rel=1e-9)
        assert abs(amp.imag) < 1e-9 * amp.real


def test_parseval(rng):
    times = 0.25 * np.arange(256)
    values = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    spec = windowed_spectrum(times, values, t_center=32.0, width=64.0)
    n = int(round(64.0 / 0.25))
    tapered = values[:n] * get_window("hann", n, fftbins=True)
    assert_allclose(spec.mass(), 2.0 * np.pi * 0.25 * np.sum(np.abs(tapered) ** 2), rtol=1e-10)


def test_windowed_spectrum_validation(rng):
    with pytest.raises(ValueError, match="uniform"):
        windowed_spectrum([0.0, 0.1, 0.3], [1.0, 1.0, 1.0], 0.15, 0.3)
    times = 0.1 * np.arange(100)
    with pytest.raises(ValueError, match="at least 8"):
        windowed_spectrum(times, np.ones(100), t_center=5.0, width=0.5)


def test_hann_matches_scipy_bit_for_bit():
    # scipy.signal is the independent reference for the package's closed form
    for n in range(8, 3000):
        assert np.array_equal(_hann(n), get_window("hann", n, fftbins=True)), n


def test_support_estimate_two_tones():
    times, g = tone_series([(0.2, 1.0), (0.5, 1.0)])
    spec = windowed_spectrum(times, g, t_center=0.5 * WIDTH, width=WIDTH)
    est = support_estimate(spec, mass_fraction=0.99)
    # Hann spreads each tone one bin to either side
    assert 0.2 - BIN - 1e-9 <= est.lower <= 0.2 + 1e-9
    assert 0.5 - 1e-9 <= est.upper <= 0.5 + BIN + 1e-9
    full = support_estimate(spec, mass_fraction=1.0)
    assert full.width == pytest.approx(0.3 + 2 * BIN)
    with pytest.raises(ValueError):
        support_estimate(spec, mass_fraction=1.5)


def test_concentration_ratio_splits_between_clusters():
    times, g = tone_series([(0.2, 1.0), (0.5, 0.98)])
    spec = windowed_spectrum(times, g, t_center=0.5 * WIDTH, width=WIDTH)
    conc, peak = concentration_ratio(spec, cluster_bins=3)
    assert peak == pytest.approx(0.2)
    assert conc == pytest.approx(1.0 / (1.0 + 0.98**2), rel=1e-6)


def test_semidiscrete_transform_interpolates_lattice_transform(grid, rho):
    lattice = grid.wavenumbers[0][[3, 17, 130]]
    vals = semidiscrete_transform(rho, lattice)
    assert_allclose(vals, rho.rho_hat[[3, 17, 130]], atol=1e-10)
    with pytest.raises(ValueError, match="one dimension"):
        semidiscrete_transform(CouplingProfile.gaussian(make_grid(2, 32, 16.0)), [1.0])


def test_shell_weight_against_continuum_gaussian(grid, rho):
    # the dispersive weight at |omega| > m = 1 is the shell density at
    # k = sqrt(omega^2 - 1) over omega^2;
    # rho_hat(xi) = 2 pi^{-1/4} sqrt(2 pi) e^{-xi^2/2} for this profile
    omega = 1.5
    k = np.sqrt(omega**2 - 1.0)
    rho_hat_k = 2.0 * np.pi**-0.25 * np.sqrt(2.0 * np.pi) * np.exp(-0.5 * k**2)
    expected = 2.0 * rho_hat_k**2 / (2.0 * np.pi * omega**2)
    assert_allclose(_shell_density(rho, k) / (omega * omega), expected, rtol=1e-10)
    with pytest.raises(ValueError, match="shell radius must be positive"):
        _shell_density(rho, 0.0)


def test_shell_weight_vanishes_at_planted_zero(grid):
    # rho_hat vanishes on |xi| = 2, the shell of omega = sqrt(5) at m = 1
    xi = grid.wavenumbers[0]
    rho0 = CouplingProfile.from_spectrum(grid, (xi**2 - 4.0) * np.exp(-0.5 * xi**2))

    def weight(omega):
        return _shell_density(rho0, float(np.sqrt(omega * omega - 1.0))) / (omega * omega)

    assert weight(np.sqrt(5.0)) < 1e-6 * weight(np.sqrt(5.0) + 0.3)


def test_titchmarsh_band_arithmetic(pot):
    times, g = tone_series([(0.2, 1.0), (0.35, 0.8), (0.5, 0.9)])
    report = titchmarsh_check(times, g, pot, t_center=0.5 * WIDTH, width=WIDTH)
    assert report.degree == 2
    a, b = report.gamma_support
    assert abs(a - 0.2) <= BIN + 1e-12 and abs(b - 0.5) <= BIN + 1e-12
    # cubic force: predicted support [2a - b, 2b - a] = [-0.1, 0.8]
    assert report.predicted_support[0] == pytest.approx(2 * a - b)
    assert report.predicted_support[1] == pytest.approx(2 * b - a)
    assert abs(report.upper_deviation_bins) <= 4.0
    assert abs(report.lower_deviation_bins) <= 4.0


def test_titchmarsh_single_tone_cubic_pattern(pot):
    """Real tone: -4 sin^3 = -(3 sin w t - sin 3 w t), so f has equal lines at w and 3w."""
    omega0 = 0.2
    times = DT * np.arange(M)
    g = np.sin(omega0 * times).astype(complex)
    force = pot.force(g)
    spec = windowed_spectrum(times, force, t_center=0.5 * WIDTH, width=WIDTH)
    mass = np.abs(spec.amps) ** 2
    at = {f: mass[np.argmin(np.abs(spec.freqs - f))] for f in (omega0, 3 * omega0)}
    assert at[3 * omega0] == pytest.approx(at[omega0], rel=1e-6)
    total = mass.sum()
    covered = sum(
        mass[np.abs(spec.freqs - f) <= BIN + 1e-9].sum()
        for f in (omega0, -omega0, 3 * omega0, -3 * omega0)
    )
    assert covered > 0.999 * total


def test_titchmarsh_warns_on_a_band_narrower_than_four_bins(pot):
    # one tone fills three Hann bins, so its support endpoints are resolution limited
    times, g = tone_series([(0.2, 1.0)])
    with pytest.warns(UserWarning, match="gamma band narrower than four bins"):
        titchmarsh_check(times, g, pot, t_center=0.5 * WIDTH, width=WIDTH)


def test_titchmarsh_nyquist_guard(pot):
    # 1.2 tone under cubic force needs bandwidth ~3.6 > pi/dt for dt = 2.5
    times = 2.5 * np.arange(64)
    g = np.exp(-1j * 1.2 * times)
    with pytest.raises(ValueError, match="sampling too coarse"):
        titchmarsh_check(times, g, pot, t_center=80.0, width=160.0)


def fake_trajectory(times, gamma, sponge=None):
    z = np.zeros_like(gamma)
    return Trajectory(
        times=times, gamma=gamma, force=z, energy=np.zeros(times.size),
        charge=np.zeros(times.size), seminorms={}, snapshots=[], sponge=sponge,
    )


def test_attraction_report_windows(grid, rho, pot):
    times = 0.1 * np.arange(1001)
    # a settled tone plus an early interloper outside the exclusion zone
    gamma = np.exp(-0.5j * times) + 0.5 * np.exp(-2.2j * times) * np.exp(-times / 10.0)
    cfg = AttractionConfig(window_width=25.0, n_windows=4, measure_distance=False)
    rep = attraction_report(fake_trajectory(times, gamma), rho, pot, cfg)
    assert not rep.trivial and not rep.sponge_active and rep.horizon_time is None
    assert [w.t_center for w in rep.windows] == [12.5, 37.5, 62.5, 87.5]
    outs = [w.outside_mass_fraction for w in rep.windows]
    assert outs[0] > 10 * outs[-1]
    assert rep.windows[-1].concentration > 0.99
    assert rep.windows[-1].dominant_frequency == pytest.approx(0.5, abs=rep.bin_width)


def test_attraction_report_horizon_and_trivial(grid, rho, pot):
    from mfkg import SeminormSpec

    times = 0.1 * np.arange(201)
    cfg = AttractionConfig(window_width=10.0, n_windows=2, measure_distance=False,
                           seminorm=SeminormSpec(0.5, 8.0, 8.0))
    rep = attraction_report(fake_trajectory(times, np.zeros(201, complex)), rho, pot, cfg)
    assert rep.trivial
    assert rep.horizon_time == pytest.approx(64.0 - 32.0)
    cfg_big = AttractionConfig(window_width=50.0, n_windows=2, measure_distance=False)
    with pytest.raises(ValueError, match="cannot hold"):
        attraction_report(fake_trajectory(times, np.zeros(201, complex)), rho, pot, cfg_big)


def test_attraction_report_flags_windows_past_horizon(grid, rho, pot):
    from mfkg import SeminormSpec, Sponge

    times = 0.1 * np.arange(401)
    gamma = np.exp(-0.5j * times)
    cfg = AttractionConfig(window_width=10.0, n_windows=4, measure_distance=False,
                           seminorm=SeminormSpec(0.5, 8.0, 8.0))
    rep = attraction_report(fake_trajectory(times, gamma), rho, pot, cfg)
    # horizon 32: only the window [30, 40) ends past it
    assert rep.horizon_time == pytest.approx(32.0)
    assert [w.past_horizon for w in rep.windows] == [False, False, False, True]
    damped = attraction_report(fake_trajectory(times, gamma, sponge=Sponge(24.0, 3.0)),
                               rho, pot, cfg)
    assert damped.horizon_time is None
    assert not any(w.past_horizon for w in damped.windows)


def test_outside_mass_spares_bands_around_embedded_candidates(grid, rho, pot):
    # an on-bin tone at z = 2.5 (bin 50, far outside [-m, m] and its three
    # exclusion bins) is inside the allowed band only when the candidate
    # frequencies hold an embedded +-z
    z = 2.5
    times, gamma = tone_series([(z, 1.0)], n_periods=2.0)
    traj = fake_trajectory(times, gamma)
    outside = []
    for omegas in (None, default_omega_grid(1.0, count=11),
                   default_omega_grid(1.0, zeros=(z,), count=11)):
        cfg = AttractionConfig(window_width=WIDTH, n_windows=1, measure_distance=False,
                               omega_grid=omegas)
        (window,) = attraction_report(traj, rho, pot, cfg).windows
        assert window.dominant_frequency == pytest.approx(z)
        outside.append(window.outside_mass_fraction)
    assert outside[0] == outside[1] > 1.0 - 1e-12
    assert outside[2] < 1e-12


@pytest.mark.parametrize("bad, match", [
    (dict(window_width=0.0), "window_width=0.0 must be finite and positive"),
    (dict(window_width=float("nan")), "window_width=nan must be finite and positive"),
    (dict(window_width=float("inf")), "window_width=inf must be finite and positive"),
    (dict(n_windows=0), "n_windows=0 must be at least 1"),
    (dict(n_windows=2.0), "n_windows=2.0 must be an integer"),
    (dict(mass_fraction=0.0), r"mass_fraction=0.0 must lie in \(0, 1\]"),
    (dict(mass_fraction=1.5), r"mass_fraction=1.5 must lie in \(0, 1\]"),
    (dict(mass_fraction=float("nan")), r"mass_fraction=nan must lie in \(0, 1\]"),
    (dict(cluster_bins=-2), "cluster_bins=-2 must be nonnegative"),
    (dict(cluster_bins=1.5), "cluster_bins=1.5 must be an integer"),
    (dict(exclusion_bins=-3), "exclusion_bins=-3 must be nonnegative"),
    (dict(exclusion_bins=3.0), "exclusion_bins=3.0 must be an integer"),
])
def test_attraction_config_rejects_what_would_report_wrong_numbers(bad, match):
    # before the check: n_windows=0 gave a report without windows,
    # exclusion_bins=-3 an outside mass fraction of 1.0 in every window and
    # cluster_bins=-2 a concentration of 0.0
    with pytest.raises(ValueError, match=match):
        AttractionConfig(**(dict(window_width=10.0) | bad))


def test_attraction_config_accepts_its_edges():
    AttractionConfig(6.25, 4, measure_distance=False)
    AttractionConfig(10.0, np.int64(1), mass_fraction=1.0, cluster_bins=0, exclusion_bins=0)


def test_concentration_ratio_rejects_negative_cluster_bins():
    times, g = tone_series([(0.2, 1.0)])
    spec = windowed_spectrum(times, g, t_center=0.5 * WIDTH, width=WIDTH)
    assert concentration_ratio(spec, cluster_bins=0)[1] == pytest.approx(0.2)
    with pytest.raises(ValueError, match="cluster_bins=-2 must be nonnegative"):
        concentration_ratio(spec, cluster_bins=-2)
