"""Acceptance runs: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The attraction experiment
(criteria 6 and 9) evolves ten T=200 trajectories, two processes at a time,
and dominates the runtime.
"""
import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad

from mfkg import (
    AttractionConfig, CouplingProfile, FieldState, Integrator, ManifoldTable, Observers,
    PolynomialPotential, SeminormSpec, Sponge, attraction_report,
    build_counterexample, build_solitary, concentration_ratio, energy_norm,
    evolve, free_flow, local_seminorm, make_grid,
    random_state, support_estimate, titchmarsh_check, verify_persistence,
    wave_packet, windowed_spectrum,
)
from mfkg.potential import lower_bound_constants
from mfkg.solitary import resolvent_coupling


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


# criteria 1 and 2 share one sponge-free evolution of random data
@pytest.fixture(scope="module")
def conservation_run():
    grid = make_grid(1, 2048, 128.0)
    rho = CouplingProfile.gaussian(grid, amplitude=0.25, width=1.0)
    pot = PolynomialPotential((-1.0, 1.0))
    state = random_state(grid, seed=0)
    # a disabled cutoff makes the recorded seminorm the full energy norm
    obs = Observers(seminorm_specs=(SeminormSpec(0.0, 64.0, 8.0),))
    traj = evolve(state, rho, pot, Integrator(0.01, 10), 100.0, obs)
    return grid, rho, pot, state, traj


def test_criterion_1_conservation(conservation_run):
    _, _, _, state, traj = conservation_run
    energy = np.asarray(traj.energy)
    charge = np.asarray(traj.charge)
    drift_h = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    scale_q = energy_norm(state, 1.0) ** 2
    drift_q = float(np.max(np.abs(charge - charge[0])) / scale_q)
    report(1, drift_h < 1e-6 and drift_q < 1e-6,
           f"rel energy drift {drift_h:.2e}, charge drift {drift_q:.2e} over T=100")


def test_criterion_2_apriori_bound(conservation_run):
    _, rho, pot, _, traj = conservation_run
    lb = lower_bound_constants(pot)  # B = 0
    assert lb.B == 0.0 and lb.admissible(1.0, rho.l2_norm_sq)
    bound = 2.0 * (np.asarray(traj.energy) - lb.A)
    norms_sq = traj.seminorms["seminorm_R64"] ** 2
    margin = float(np.max(norms_sq / bound))
    report(2, bool(np.all(norms_sq <= bound * (1.0 + 1e-12))),
           f"sup ||Psi||_E^2 / bound = {margin:.3f} over {len(traj.times)} samples")


@pytest.fixture(scope="module")
def solitary_setup():
    grid = make_grid(1, 2048, 128.0)
    rho = CouplingProfile.gaussian(grid, amplitude=2.0, width=1.0)
    pot = PolynomialPotential((-1.0, 1.0))
    wave = build_solitary(rho, pot, omega=0.5)
    return grid, rho, pot, wave


def tracking_error(wave, rho, pot, dt: float) -> float:
    traj = evolve(wave.initial_state(), rho, pot, Integrator(dt, round(0.1 / dt)),
                  50.0, Observers(snapshot_stride=100))
    scale = energy_norm(wave.initial_state(), 1.0)
    errs = []
    for snap in traj.snapshots:
        ref = wave.state_at(snap.time)
        diff = FieldState(snap.grid, snap.psi - ref.psi, snap.pi - ref.pi)
        errs.append(energy_norm(diff, 1.0) / scale)
    return max(errs)


def test_criterion_3_solitary_fidelity(solitary_setup):
    from mfkg.solitary import stationarity_residual

    _, rho, pot, wave = solitary_setup
    residual = stationarity_residual(wave, rho, pot)
    err = tracking_error(wave, rho, pot, 0.01)
    err_coarse = tracking_error(wave, rho, pot, 0.02)
    ratio = err_coarse / err
    report(3, residual < 1e-8 and err < 1e-3 and 3.0 <= ratio <= 5.0,
           f"residual {residual:.2e}, tracking {err:.2e}, dt-halving ratio {ratio:.2f}")


def test_criterion_4_free_local_decay():
    grid = make_grid(1, 2048, 128.0)
    state = wave_packet(grid, width=4.0, carrier=2.0)
    spec = SeminormSpec(0.0, 8.0, 8.0)
    before = local_seminorm(state, spec, 1.0)
    after = local_seminorm(free_flow(state, 40.0, 1.0), spec, 1.0)
    report(4, after < 0.1 * before,
           f"local seminorm ratio {after / before:.2e} at t=40")


def test_criterion_5_sigma_oracle():
    grid = make_grid(1, 2048, 128.0)
    rho = CouplingProfile.gaussian(grid, amplitude=1.0, width=1.0)

    def oracle(omega: float) -> float:
        # continuum transform of the unit Gaussian: |rho_hat|^2 = 2 sqrt(pi) e^{-xi^2}
        val, _ = quad(lambda xi: 2.0 * np.sqrt(np.pi) * np.exp(-xi * xi)
                      / (xi * xi + 1.0 - omega * omega) / (2.0 * np.pi),
                      -np.inf, np.inf)
        return val

    omegas = np.linspace(-0.95, 0.95, 20)
    worst = 0.0
    for w in omegas:
        s = resolvent_coupling(rho, w)
        s_neg = resolvent_coupling(rho, -w)
        assert s > 0 and s_neg == pytest.approx(s, rel=1e-13)
        worst = max(worst, abs(s - oracle(w)))
    report(5, worst < 1e-6, f"max |sigma - quadrature oracle| = {worst:.2e} at 20 frequencies")


# criteria 6 and 9 share ten seeded attraction runs: a solitary wave, its
# frequency bounded away from the gap center, plus a band-pass shell of
# radiation at 70% of its energy norm.  The shell (envelope_center well
# outside the coupling core) matters: a perturbation sitting on the core
# excites a linearized mode of the wave that lies far above the continuum
# threshold, at omega +- mu with mu ~ 7.85-8.  It is embedded in the
# continuum, but its width goes with |rho_hat|^2 ~ 3e-25 at k ~ 7.8, so it
# does not decay in any run the package can make.  Its beating against the
# wave floors the manifold distance near 0.02 and spoils late checkpoints,
# while incoming radiation crosses the core only transiently and hardly
# excites it.
@functools.lru_cache(maxsize=None)
def attraction_setup():
    """The grid, coupling, potential and manifold table that every attraction run shares."""
    grid = make_grid(1, 4096, 256.0)
    rho = CouplingProfile.gaussian(grid, amplitude=4.0, width=1.0)
    pot = PolynomialPotential((-1.0, 1.0))
    return grid, rho, pot, ManifoldTable(rho, pot, SeminormSpec(0.5, 24.0, 8.0))


def attraction_run(seed):
    """One seeded attraction run: its frequency, checkpoint distances and window measures."""
    grid, rho, pot, table = attraction_setup()
    rng = np.random.default_rng(1000 + seed)
    omega = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.35, 0.8))
    theta = float(rng.uniform(0.0, 2.0 * np.pi))
    wave = build_solitary(rho, pot, omega, theta)
    ws = wave.initial_state()
    pert = random_state(grid, seed, 0.7 * energy_norm(ws, 1.0),
                        envelope_width=8.0, band_limit=0.5,
                        band_center=1.2, envelope_center=30.0)
    init = FieldState(grid, ws.psi + pert.psi, ws.pi + pert.pi)
    traj = evolve(init, rho, pot, Integrator(0.01, 10, Sponge(64.0, 3.0)), 200.0,
                  Observers(snapshot_stride=500))
    # one lockstep polish of the run's snapshots, each with its lone polish's bits
    times, distances, _ = table.distances(traj.snapshots)
    dists = dict(zip(times.tolist(), distances.tolist()))
    rep = attraction_report(traj, rho, pot, AttractionConfig(
        window_width=50.0, n_windows=4, measure_distance=False))
    return {
        "omega": omega,
        "checkpoints": [dists[t] for t in (50.0, 100.0, 150.0, 200.0)],
        "concentration": rep.windows[-1].concentration,
        "outside": [w.outside_mass_fraction for w in rep.windows],
    }


@pytest.fixture(scope="module")
def attraction_runs():
    # the seeds are independent, so they run in two fresh processes
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(attraction_run, range(10)))


def test_criterion_6_attraction(attraction_runs):
    mono = conc = 0
    for r in attraction_runs:
        cps = r["checkpoints"]
        mono += all(cps[k + 1] <= 1.05 * cps[k] for k in range(3))
        conc += r["concentration"] > 0.95
    report(6, mono >= 9 and conc >= 9,
           f"manifold distance non-increasing in {mono}/10 runs, "
           f"late-window concentration > 0.95 in {conc}/10")


def test_criterion_7_titchmarsh_arithmetic():
    # bins of exactly 0.05 put the band edges on the frequency lattice
    bins = 0.05
    width = 2.0 * np.pi / bins
    m_samples = 1024
    dt = width / m_samples
    times = dt * np.arange(m_samples)
    pot = PolynomialPotential((-1.0, 1.0))

    gamma = sum(np.exp(-1j * f * times) for f in (0.2, 0.35, 0.5))
    rep = titchmarsh_check(times, gamma, pot, t_center=0.5 * width, width=width)
    sup_err = abs(rep.force_support[1] - 0.8)

    tone = np.sin(0.2 * times).astype(complex)
    spec = windowed_spectrum(times, pot.force(tone), t_center=0.5 * width, width=width)
    mass = np.abs(spec.amps) ** 2
    m1 = mass[np.abs(spec.freqs - 0.2) <= 1.5 * bins].sum()
    m3 = mass[np.abs(spec.freqs - 0.6) <= 1.5 * bins].sum()
    pattern = m3 == pytest.approx(m1, rel=1e-6) and (m1 + m3) > 0.49 * mass.sum()
    report(7, sup_err <= 4 * bins + 1e-12 and bool(pattern),
           f"sup supp force transform off by {sup_err / bins:.2f} bins; "
           f"single tone splits into equal lines at omega0 and 3 omega0")


def test_criterion_8_counterexample_persistence():
    grid = make_grid(1, 1024, 64.0)
    sol = build_counterexample(2.0, -1.0, grid)
    rep = verify_persistence(sol, Integrator(0.01, 10), T=50.0)
    bin_width = 2.0 * np.pi / 50.0
    peaks_ok = (abs(rep.force_peaks[0] - sol.omega0) <= bin_width
                and abs(rep.force_peaks[1] - 3.0 * sol.omega0) <= bin_width)
    report(8, rep.max_relative_error < 1e-3 and peaks_ok and rep.force_concentration < 0.95,
           f"tracking error {rep.max_relative_error:.2e}, force peaks "
           f"{rep.force_peaks[0]:.3f}/{rep.force_peaks[1]:.3f}, "
           f"concentration {rep.force_concentration:.3f}")


def test_criterion_9_spectral_inclusion(attraction_runs):
    # the 1e-6 floor absorbs float noise once the outside fraction has
    # already drained to the spectral-leakage level
    good = 0
    for r in attraction_runs:
        outs = r["outside"]
        good += outs[-1] < outs[0] and all(
            outs[k + 1] <= 1.05 * outs[k] + 1e-6 for k in range(len(outs) - 1))
    report(9, good >= 9,
           f"outside-band spectral mass decreasing across windows in {good}/10 runs")
