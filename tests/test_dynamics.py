"""Splitting integrator: exactness of the sub-flows, conservation, sponge."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfkg import (
    CouplingProfile, FieldState, Integrator, Observers, SeminormSpec, Sponge,
    charge, energy, energy_norm, evolve, free_flow, inner_product, kick,
    make_grid, split_chi_phi, step, zero_state,
)


def localized_state(grid, rng, scale=1.0):
    env = np.exp(-0.25 * grid.radius**2)
    psi = scale * env * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    pi = scale * env * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    return FieldState(grid, psi, pi, 0.0)


def test_integrator_validation():
    with pytest.raises(ValueError):
        Integrator(0.0)
    with pytest.raises(ValueError):
        Integrator(0.01, steps_per_sample=0)
    with pytest.raises(ValueError):
        Sponge(-1.0)
    with pytest.raises(ValueError):
        Sponge(8.0, strength=-0.1)


def test_step_size_guard(grid, rho, pot):
    state = zero_state(grid)
    with pytest.raises(ValueError, match="grid spacing"):
        step(state, rho, pot, Integrator(dt=grid.spacing))


def test_free_flow_single_mode_oracle(grid):
    """Each Fourier mode rotates with frequency sqrt(xi^2 + m^2)."""
    m, tau, j = 1.3, 0.7, 21
    xi = grid.wavenumbers[0][j]
    omega = np.sqrt(xi**2 + m**2)
    mode = np.exp(1j * xi * grid.axis_coords[0])
    a, b = 0.8 - 0.2j, 0.1 + 0.5j
    out = free_flow(FieldState(grid, a * mode, b * mode, 0.0), tau, m)
    expect_psi = (a * np.cos(omega * tau) + b * np.sin(omega * tau) / omega) * mode
    expect_pi = (b * np.cos(omega * tau) - a * omega * np.sin(omega * tau)) * mode
    assert_allclose(out.psi, expect_psi, atol=1e-12)
    assert_allclose(out.pi, expect_pi, atol=1e-12)
    assert out.time == tau


def test_free_flow_group_property(grid, rng):
    state = localized_state(grid, rng)
    one = free_flow(state, 0.9)
    two = free_flow(free_flow(state, 0.4), 0.5)
    assert_allclose(one.psi, two.psi, atol=1e-12)
    assert_allclose(one.pi, two.pi, atol=1e-12)
    back = free_flow(one, -0.9)
    assert_allclose(back.psi, state.psi, atol=1e-12)


def test_free_flow_is_energy_isometry(grid, rng):
    state = localized_state(grid, rng)
    for m in (1.0, 2.5):
        assert_allclose(energy_norm(free_flow(state, 1.7, m), m), energy_norm(state, m), rtol=1e-12)


def test_kick_oracle(grid, rho, pot, rng):
    state = localized_state(grid, rng)
    tau = 0.3
    out = kick(state, rho, pot, tau)
    gamma = inner_product(rho, state)
    assert_allclose(out.pi, state.pi + tau * pot.force(gamma) * rho.values, atol=1e-14)
    assert_allclose(out.psi, state.psi, atol=0)
    assert kick(state, None, pot, tau) is state


def test_step_requires_potential_with_coupling(grid, rho):
    with pytest.raises(ValueError, match="potential is required"):
        step(zero_state(grid), rho, None, Integrator(0.01))


def test_step_conserves_charge_exactly(grid, rho, pot, rng):
    state = localized_state(grid, rng)
    q0 = charge(state)
    out = state
    for _ in range(25):
        out = step(out, rho, pot, Integrator(0.02))
    assert_allclose(charge(out), q0, rtol=1e-12)


def test_strang_is_second_order(grid, rho, pot, rng):
    state = localized_state(grid, rng, scale=0.5)
    T = 1.0

    def endpoint(dt):
        traj = evolve(state, rho, pot, Integrator(dt, steps_per_sample=int(round(T / dt))), T)
        return traj.gamma[-1]

    ref = endpoint(0.0025)
    err_coarse = abs(endpoint(0.02) - ref)
    err_fine = abs(endpoint(0.01) - ref)
    assert 3.0 < err_coarse / err_fine < 5.0


def test_energy_and_charge_over_many_steps(grid, rho, pot, rng):
    # 10^4 steps; the splitting keeps H in an O(dt^2) band and Q to roundoff
    state = localized_state(grid, rng, scale=0.5)
    traj = evolve(state, rho, pot, Integrator(0.01, steps_per_sample=100), 100.0)
    h0 = traj.energy[0]
    assert np.max(np.abs(traj.energy - h0)) < 1e-4 * abs(h0)
    scale = energy_norm(state) ** 2
    assert np.max(np.abs(traj.charge - traj.charge[0])) < 1e-12 * scale


def test_evolve_sampling_layout(grid, rho, pot, rng):
    state = localized_state(grid, rng)
    traj = evolve(state, rho, pot, Integrator(0.01, steps_per_sample=10), 1.0)
    assert_allclose(traj.times, np.arange(11) * 0.1, atol=1e-12)
    assert traj.sample_dt == pytest.approx(0.1)
    assert len(traj.gamma) == len(traj.energy) == len(traj.charge) == 11
    # gamma recorded on the fly agrees with recomputation from snapshots
    traj2 = evolve(state, rho, pot, Integrator(0.01, steps_per_sample=5), 0.5,
                   Observers(snapshot_stride=1))
    for i, snap in enumerate(traj2.snapshots):
        assert_allclose(inner_product(rho, snap), traj2.gamma[i], atol=1e-12)


def test_runs_cover_whole_sampling_intervals(grid, rho, pot, rng):
    # T = 1.05 is not a whole number of 0.1 intervals: the run rounds up to
    # 1.1, so the series stays uniform for the spectral readers
    state = localized_state(grid, rng, scale=0.5)
    integ = Integrator(0.01, steps_per_sample=10)
    expected = np.arange(12) * 0.1
    assert_allclose(evolve(state, rho, pot, integ, 1.05).times, expected, atol=1e-12)
    for traj in split_chi_phi(state, rho, pot, integ, 1.05):
        assert_allclose(traj.times, expected, atol=1e-12)


def strang_reference(state, rho, pot, integ, nsteps, m=1.0):
    """Gamma every steps_per_sample steps and the final state, stepped with the
    public single-application ops on the Grid.forward path."""
    dt = integ.dt
    damp = None if integ.sponge is None else np.exp(-integ.sponge.rate(state.grid) * dt)
    gammas = [inner_product(rho, state)]
    for i in range(1, nsteps + 1):
        state = kick(state, rho, pot, 0.5 * dt)
        state = free_flow(state, dt, m)
        state = kick(state, rho, pot, 0.5 * dt)
        if damp is not None:
            state = FieldState(state.grid, damp * state.psi, damp * state.pi, state.time)
        if i % integ.steps_per_sample == 0:
            gammas.append(inner_product(rho, state))
    return np.array(gammas), state


@pytest.mark.parametrize("dim, points, length, sponge", [
    (1, 256, 64.0, Sponge(3.0, 2.0)),
    (1, 256, 64.0, None),
    # the cell volume 100/512 is not a power of two, so folding it into the
    # core's kick and pairing vectors rounds differently from Grid.forward
    (1, 512, 100.0, Sponge(3.0, 2.0)),
    (2, 32, 16.0, Sponge(3.0, 2.0)),
])
def test_evolve_matches_single_application_route(dim, points, length, sponge, pot):
    grid = make_grid(dim, points, length)
    rho = CouplingProfile.gaussian(grid, amplitude=2.0, width=1.0)
    state = localized_state(grid, np.random.default_rng(11), scale=0.5)
    integ = Integrator(0.02, steps_per_sample=5, sponge=sponge)
    ref_gamma, ref_final = strang_reference(state, rho, pot, integ, 200)
    traj = evolve(state, rho, pot, integ, 4.0, Observers(snapshot_stride=40))
    scale = np.max(np.abs(ref_gamma))
    assert np.max(np.abs(traj.gamma - ref_gamma)) <= 1e-10 * scale
    final = traj.snapshots[-1]
    assert final.time == pytest.approx(4.0)
    for got, want in ((final.psi, ref_final.psi), (final.pi, ref_final.pi)):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    if sponge is not None:
        # the layer is reached within T, so the comparison covers the damping
        undamped = evolve(state, rho, pot, Integrator(0.02, steps_per_sample=5), 4.0)
        assert np.max(np.abs(undamped.gamma - traj.gamma)) > 1e-6 * scale


def test_observers_reject_shared_series_label():
    # both specs would record under seminorm_R8, and the second would be lost
    with pytest.raises(ValueError, match="seminorm_R8"):
        Observers(seminorm_specs=(SeminormSpec(0.0, 8.0, 8.0), SeminormSpec(0.5, 8.0, 8.0)))
    obs = Observers(seminorm_specs=(SeminormSpec(0.0, 8.0, 8.0), SeminormSpec(0.5, 9.0, 8.0)))
    assert [spec.label for spec in obs.seminorm_specs] == ["seminorm_R8", "seminorm_R9"]


def test_uncoupled_evolution(grid, rng):
    state = localized_state(grid, rng)
    traj = evolve(state, None, None, Integrator(0.02), 1.0)
    assert np.all(traj.gamma == 0)
    assert_allclose(traj.energy, traj.energy[0], rtol=1e-12)


def test_sponge_absorbs_outgoing_packet():
    grid = make_grid(1, 512, 128.0)
    x = grid.axis_coords[0]
    psi = np.exp(-0.125 * x**2 + 2.0j * x)
    state = FieldState(grid, psi, np.zeros_like(psi), 0.0)
    integ = Integrator(0.05, steps_per_sample=20, sponge=Sponge(32.0, 2.0))
    traj = evolve(state, None, None, integ, 120.0)
    final = traj.snapshots[-1] if traj.snapshots else None
    # ball energy after the packet crosses the layer is a tiny remnant
    assert traj.energy[-1] < 1e-3 * traj.energy[0]


def test_sponge_must_fit_in_box(grid):
    state = zero_state(grid)
    integ = Integrator(0.01, sponge=Sponge(40.0, 1.0))
    with pytest.raises(ValueError, match="half the box"):
        step(state, None, None, integ)


def test_split_chi_phi_superposition(grid, rho, pot, rng):
    state = localized_state(grid, rng, scale=0.5)
    integ = Integrator(0.02, steps_per_sample=10)
    chi, phi = split_chi_phi(state, rho, pot, integ, 2.0)
    full = evolve(state, rho, pot, integ, 2.0)
    # chi is the free flow of the initial data
    for t, g in zip(chi.times, chi.gamma):
        assert_allclose(inner_product(rho, free_flow(state, t)), g, atol=1e-10)
    # phi starts from rest and carries the rest of the coupling amplitude
    assert phi.gamma[0] == 0
    assert_allclose(chi.gamma + phi.gamma, full.gamma, atol=1e-10)


def test_split_chi_phi_rejects_sponge(grid, rho, pot, rng):
    state = localized_state(grid, rng)
    integ = Integrator(0.02, sponge=Sponge(16.0, 1.0))
    with pytest.raises(ValueError, match="sponge"):
        split_chi_phi(state, rho, pot, integ, 1.0)
