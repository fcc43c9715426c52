"""Splitting integrator: exactness of the sub-flows, conservation, sponge."""
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfkg import (
    CouplingProfile, FieldState, Integrator, Observers, PolynomialPotential, SeminormSpec,
    Sponge, build_counterexample, build_solitary, charge, energy, energy_norm, evolve,
    free_flow, inner_product, kick, local_seminorm, make_grid, random_state,
    verify_persistence, zero_pad, zero_state,
)
from mfkg.dynamics import _ShellCore, _SpongeCore, snapshots
from mfkg.fields import coupled_modes
from mfkg.multifreq import TwoFrequencySolution

from conftest import per_step_advance


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


@pytest.mark.parametrize("make, match", [
    (lambda: Integrator(float("nan")), "dt=nan must be finite"),
    (lambda: Integrator(float("inf")), "dt=inf must be finite"),
    (lambda: Sponge(float("nan")), "inner_radius=nan must be finite"),
    (lambda: Sponge(10.0, float("nan")), "strength=nan must be finite"),
    (lambda: Sponge(10.0, float("inf")), "strength=inf must be finite"),
    (lambda: Sponge(10.0, 0.0), "strength=0.0 must be finite and positive"),
    (lambda: Observers(snapshot_stride=-1), "snapshot_stride=-1 must be nonnegative"),
])
def test_stepping_parameters_reject_non_finite_and_negative_values(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("make, match", [
    (lambda: Integrator(0.01, 2.5), "steps_per_sample=2.5 must be an integer"),
    (lambda: Observers(snapshot_stride=2.5), "snapshot_stride=2.5 must be an integer"),
    (lambda: Observers(snapshot_stride=0.5), "snapshot_stride=0.5 must be an integer"),
    (lambda: snapshots(zero_state(make_grid(1, 256, 64.0)), None, None, Integrator(0.01, 10),
                       1.0, 0.5), "snapshot stride=0.5 must be an integer"),
])
def test_step_and_stride_counts_must_be_integers(make, match):
    # a float count, even an integral one, is rejected where the run is set up
    with pytest.raises(ValueError, match=match):
        make()


def test_numpy_integer_counts_are_accepted(grid, rho, pot):
    state, T = localized_state(grid, np.random.default_rng(2), scale=0.5), 0.4
    integ = Integrator(0.01, np.int64(10))
    traj = evolve(state, rho, pot, integ, T, Observers(snapshot_stride=np.int32(2)))
    assert len(traj.times) == 5 and len(traj.snapshots) == 3
    taken = list(snapshots(state, rho, pot, integ, T, np.int64(2)))
    assert [s.time for s in taken] == [s.time for s in traj.snapshots]


@pytest.mark.parametrize("T", [-1.0, float("nan"), float("inf")])
def test_runs_reject_a_negative_or_non_finite_duration(grid, rho, pot, T):
    state, integ = zero_state(grid), Integrator(0.01, 10)
    with pytest.raises(ValueError, match=f"T={T} must be finite and nonnegative"):
        evolve(state, rho, pot, integ, T)
    with pytest.raises(ValueError, match=f"T={T} must be finite and nonnegative"):
        snapshots(state, rho, pot, integ, T, 1)


def test_snapshots_need_a_positive_stride(grid, rho, pot):
    with pytest.raises(ValueError, match="stride=0 must be at least 1"):
        snapshots(zero_state(grid), rho, pot, Integrator(0.01, 10), 1.0, 0)


def test_overflowing_data_abort_at_the_first_sample(grid, rho, pot):
    # |gamma| stays finite at this scale, but H and U(gamma) overflow
    wave = build_solitary(rho, pot, 0.5).initial_state()
    state = FieldState(grid, 1e150 * wave.psi, 1e150 * wave.pi)
    integ = Integrator(0.01, 10)
    with pytest.raises(RuntimeError, match=r"non-finite fields at t=0; aborting evolution"):
        evolve(state, rho, pot, integ, 1.0)
    with pytest.raises(RuntimeError, match=r"non-finite fields at t=0; aborting evolution"):
        list(snapshots(state, rho, pot, integ, 1.0, 2))


def test_snapshots_check_and_warn_at_the_call(grid, rho, pot):
    # the checks, the stride warning and the core's set-up run when snapshots
    # is called, before any snapshot is read; reading it warns no more
    state, integ = zero_state(grid), Integrator(0.01, 10)
    with pytest.raises(ValueError, match="grid spacing"):
        snapshots(state, rho, pot, Integrator(grid.spacing), 1.0, 1)
    with pytest.raises(ValueError, match="m=0.0 must be finite and positive"):
        snapshots(state, rho, pot, integ, 1.0, 1, 0.0)
    with pytest.warns(RuntimeWarning, match="snapshot stride 50 exceeds") as seen:
        run = snapshots(state, rho, pot, integ, 1.0, 50)
    assert len(seen) == 1 and seen[0].filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [snap.time for snap in run] == [0.0]


def test_streamed_snapshots_abort_at_the_first_non_finite_sample(grid, rho, pot, monkeypatch):
    # the call returns a generator without stepping; the abort comes at the
    # sample where it occurs, after the snapshots before it were yielded
    wave = build_solitary(rho, pot, 0.5).initial_state()
    huge = FieldState(grid, 1e150 * wave.psi, 1e150 * wave.pi)
    integ = Integrator(0.01, 10)
    run = snapshots(huge, rho, pot, integ, 1.0, 2)
    with pytest.raises(RuntimeError, match=r"non-finite fields at t=0; aborting evolution"):
        next(run)
    reads, terms = [], _ShellCore.coupling_terms

    def failing_at_the_sixth_sample(core):
        reads.append(1)
        g, f, u_val = terms(core)
        return (g if len(reads) < 6 else complex("nan")), f, u_val

    monkeypatch.setattr(_ShellCore, "coupling_terms", failing_at_the_sixth_sample)
    taken = []
    with pytest.raises(RuntimeError, match=r"non-finite fields at t=0.5; aborting evolution"):
        for snap in snapshots(wave, rho, pot, integ, 1.0, 2):
            taken.append(snap.time)
    assert taken == pytest.approx([0.0, 0.2, 0.4])


@pytest.mark.parametrize("dim, points, length, sponge, T, stride", [
    (1, 256, 64.0, None, 4.0, 8),  # undamped, 40 intervals
    (1, 256, 64.0, Sponge(16.0, 2.0), 4.0, 8),
    (1, 256, 64.0, Sponge(16.0, 2.0), 4.0, 7),
    (2, 64, 16.0, None, 2.0, 4),  # C a strict subset in 2-D
    (1, 256, 64.0, None, 4.0, 7),  # a stride that does not divide the 40 intervals
    (1, 256, 64.0, None, 3.93, 6),  # T rounds up to 40 whole intervals
])
def test_snapshots_are_evolves_bit_for_bit(dim, points, length, sponge, T, stride, pot,
                                           monkeypatch):
    grid = make_grid(dim, points, length)
    rho = CouplingProfile.gaussian(grid, amplitude=2.0, width=1.0)
    state = localized_state(grid, np.random.default_rng(5), scale=0.5)
    integ = Integrator(0.02, 5, sponge)
    if dim == 2:
        # fewer coupled shells than coupled modes, and fewer of those than modes
        core = _ShellCore(grid, integ, rho, pot, 1.0)
        assert core.pair.shape[1] < core.modes.size < grid.num_points
    want = evolve(state, rho, pot, integ, T, Observers(snapshot_stride=stride)).snapshots
    intervals = []
    for core_class in (_ShellCore, _SpongeCore):
        monkeypatch.setattr(core_class, "advance", lambda core, advance=core_class.advance:
                            intervals.append(1) or advance(core))
    got = list(snapshots(state, rho, pot, integ, T, stride))
    assert len(got) == len(want) > 1
    for snap, ref in zip(got, want):
        assert snap.time == ref.time
        assert np.array_equal(snap.psi, ref.psi) and np.array_equal(snap.pi, ref.pi)
    # the run ends at its last snapshot
    assert len(intervals) == (len(got) - 1) * stride


def test_step_size_guard(grid, rho, pot):
    state = zero_state(grid)
    with pytest.raises(ValueError, match="grid spacing"):
        evolve(state, rho, pot, Integrator(dt=grid.spacing), 1.0)


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
        evolve(zero_state(grid), rho, None, Integrator(0.01), 0.01)
    with pytest.raises(ValueError, match="potential is required"):
        kick(zero_state(grid), rho, None, 0.01)


@pytest.mark.parametrize("sponge", [None, Sponge(16.0, 2.0)])
def test_a_stride_past_the_run_warns(grid, rho, pot, sponge):
    # 10 sampling intervals, 11 samples: a stride of 50 keeps only the snapshot at t0
    state, integ = zero_state(grid), Integrator(0.01, 10, sponge)
    match = r"snapshot stride 50 exceeds the 10 sampling intervals of the run \(11 samples\)"
    with pytest.warns(RuntimeWarning, match=match) as seen:
        traj = evolve(state, rho, pot, integ, 1.0, Observers(snapshot_stride=50))
    with pytest.warns(RuntimeWarning, match=match) as seen_too:
        taken = list(snapshots(state, rho, pot, integ, 1.0, 50))
    assert len(seen) == len(seen_too) == 1
    assert len(traj.snapshots) == len(taken) == 1
    # a stride of the whole run keeps its end, and neither run warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(evolve(state, rho, pot, integ, 1.0, Observers(snapshot_stride=10)).snapshots) == 2
        assert len(list(snapshots(state, rho, pot, integ, 1.0, 10))) == 2


def test_step_conserves_charge_exactly(grid, rho, pot, rng):
    state = localized_state(grid, rng)
    q0 = charge(state)
    # 25 steps in one sampling interval, read back from the final snapshot
    traj = evolve(state, rho, pot, Integrator(0.02, steps_per_sample=25), 0.5,
                  Observers(snapshot_stride=1))
    out = traj.snapshots[-1]
    assert out.time == pytest.approx(0.5)
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


@pytest.mark.parametrize("steps_per_sample", [10, 1])
def test_flipping_pi_runs_the_data_back(grid, rho, pot, rng, steps_per_sample):
    """Forward by T, flip pi, forward by T, flip pi: the data comes back.

    The equation has no first-order time term, so (psi, -pi) evolves as the
    time reversal of (psi, pi), and a Strang step is symmetric: the check
    needs no reference route.  steps_per_sample 10 goes through block
    updates of 10 steps, 1 through single steps.  Measured on this 256-point
    grid over 2000 steps: 1.9e-14 (blocks) and 1.3e-13 (single steps) in the
    relative energy norm; the bound is 1e-12.
    """
    wave = build_solitary(rho, pot, 0.5)
    noise = localized_state(grid, rng, scale=0.3)
    start = FieldState(grid, wave.profile + noise.psi, -0.5j * wave.profile, 0.0)
    T, integ = 20.0, Integrator(0.01, steps_per_sample=steps_per_sample)
    last = Observers(snapshot_stride=round(T / (integ.dt * steps_per_sample)))
    end = evolve(start, rho, pot, integ, T, last).snapshots[-1]
    back = evolve(FieldState(grid, end.psi, -end.pi), rho, pot, integ, T, last).snapshots[-1]
    size = energy_norm(start)
    moved = FieldState(grid, end.psi - start.psi, end.pi - start.pi)
    assert energy_norm(moved) > 0.5 * size  # the run went somewhere
    gap = FieldState(grid, back.psi - start.psi, -back.pi - start.pi)
    assert energy_norm(gap) < 1e-12 * size


def test_evolve_sampling_layout(grid, rho, pot, rng):
    state = localized_state(grid, rng)
    traj = evolve(state, rho, pot, Integrator(0.01, steps_per_sample=10), 1.0)
    assert_allclose(traj.times, np.arange(11) * 0.1, atol=1e-12)
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
        evolve(state, None, None, integ, 0.01)


def assert_snapshots_distinct_and_correct(state, rho, pot, integ):
    """Every snapshot of a 0.4-long run owns its arrays and is the reference steps' state."""
    traj = evolve(state, rho, pot, integ, 0.4, Observers(snapshot_stride=1))
    snaps = traj.snapshots
    assert len(snaps) == len(traj.times) == 11
    arrays = [a for snap in snaps for a in (snap.psi, snap.pi)]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
    for prev, snap in zip(snaps, snaps[1:]):
        _, want = strang_reference(prev, rho, pot, integ, integ.steps_per_sample)
        assert_allclose(snap.time, want.time, rtol=1e-12)
        for got, ref in ((snap.psi, want.psi), (snap.pi, want.pi)):
            assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


def test_sponge_snapshots_are_distinct_and_correct(grid, rho, pot, rng):
    """The sponge loop transforms into reused buffers; no snapshot may alias another."""
    state = localized_state(grid, rng, scale=0.5)
    integ = Integrator(0.02, steps_per_sample=2, sponge=Sponge(16.0, 2.0))
    assert_snapshots_distinct_and_correct(state, rho, pot, integ)


def test_undamped_snapshots_are_distinct_and_correct(grid, rho, pot, rng):
    """The shell core writes each natural pair into one reused buffer; no snapshot may alias another."""
    state = localized_state(grid, rng, scale=0.5)
    assert_snapshots_distinct_and_correct(state, rho, pot, Integrator(0.02, steps_per_sample=2))


def full_grid_ball_observables(grid, psi, pi, mask, u_val, m):
    """H and Q over the ball |x| <= R by the full-grid route: density everywhere, then the mask."""
    psi_raw = grid.raw_fft(np.stack((psi, pi)))[0]
    grad_sq = np.zeros(grid.shape)
    for axis, xi in enumerate(grid.wavenumbers):
        shape = [1] * grid.dim
        shape[axis] = grid.points_per_axis
        grad_sq += np.abs(grid.raw_ifft(1j * xi.reshape(shape) * psi_raw)) ** 2
    density = np.abs(pi) ** 2 + grad_sq + m * m * np.abs(psi) ** 2
    h = 0.5 * grid.cell_volume * float(density[mask].sum()) + u_val
    q = -grid.cell_volume * float(np.vdot(psi[mask], pi[mask]).imag)
    return h, q


@pytest.mark.parametrize("dim, points, length", [(1, 512, 64.0), (2, 32, 16.0)])
def test_sponge_ball_observables_match_full_grid_route(dim, points, length, pot, rng):
    """A sponge run's H and Q equal, bit for bit, the full-grid density masked to the ball."""
    grid = make_grid(dim, points, length)
    rho = CouplingProfile.gaussian(grid, amplitude=2.0, width=1.0)
    state = localized_state(grid, rng, scale=0.5)
    sponge = Sponge(0.25 * length, 2.0)
    integ = Integrator(0.02, steps_per_sample=3, sponge=sponge)
    traj = evolve(state, rho, pot, integ, 0.6, Observers(snapshot_stride=1), m=1.2)
    mask = grid.radius <= sponge.inner_radius
    assert len(traj.snapshots) == len(traj.times) == 11
    for i, snap in enumerate(traj.snapshots):
        u_val = float(pot.value(traj.gamma[i]))
        h, q = full_grid_ball_observables(grid, snap.psi, snap.pi, mask, u_val, 1.2)
        assert np.float64(traj.energy[i]).tobytes() == np.float64(h).tobytes()
        assert np.float64(traj.charge[i]).tobytes() == np.float64(q).tobytes()


def assert_series_read_the_snapshots(traj, spec, m):
    """Each sample's seminorm is that of the sample's own snapshot (stride 1)."""
    series = traj.seminorms[spec.label]
    assert len(series) == len(traj.snapshots) == len(traj.times) > 1
    for value, snap, t in zip(series, traj.snapshots, traj.times):
        assert snap.time == t
        assert value == local_seminorm(snap, spec, m)


def test_sponge_seminorm_series_reads_each_sample(grid, rho, pot, rng):
    state = localized_state(grid, rng, scale=0.5)
    integ = Integrator(0.02, steps_per_sample=3, sponge=Sponge(16.0, 2.0))
    spec = SeminormSpec(0.5, 6.0, 4.0)
    obs = Observers(seminorm_specs=(spec,), snapshot_stride=1)
    traj = evolve(state, rho, pot, integ, 0.6, obs, m=1.2)
    assert_series_read_the_snapshots(traj, spec, 1.2)


def test_undamped_seminorm_series_reads_each_sample(pot):
    # C is a strict subset here, so every read first syncs the lagging rest
    grid, rho, integ, state, T = width_one_run(3)
    spec = SeminormSpec(0.5, 6.0, 4.0)
    traj = evolve(state, rho, pot, integ, T, Observers(seminorm_specs=(spec,), snapshot_stride=1),
                  m=1.2)
    assert_series_read_the_snapshots(traj, spec, 1.2)


@pytest.mark.parametrize("sps", [1, 3, 10, 40])
@pytest.mark.parametrize("dim, points, length", [(1, 256, 64.0), (2, 32, 16.0)])
def test_block_update_matches_per_step_route(dim, points, length, sps, pot, monkeypatch):
    # 40 steps per sample is above the block cap, so an interval takes
    # several blocks of different lengths
    grid = make_grid(dim, points, length)
    rho = CouplingProfile.gaussian(grid, amplitude=2.0, width=1.0)
    state = localized_state(grid, np.random.default_rng(5), scale=0.5)
    integ = Integrator(0.02, steps_per_sample=sps)
    # a whole number of intervals for every sps, so the last sample is the
    # end, and at least the eight samples a persistence spectrum needs
    nsteps = 360
    T = nsteps * integ.dt
    obs = Observers(snapshot_stride=nsteps // sps)
    if dim == 1:
        sol = build_counterexample(2.0, -1.0, make_grid(1, 512, 64.0))
    else:
        # no lattice coupling in 2-D vanishes on the omega1 = 2 shell, so the
        # persistence run gets two profiles that are not an exact solution
        sol = TwoFrequencySolution(rho, 2.0, 2.0 / 3.0, -1.0, 1.75, 1.0,
                                   state.psi.real, state.pi.real, 1.0)

    def runs():
        traj = evolve(state, rho, pot, integ, T, obs)
        report = verify_persistence(sol, integ, T)
        gammas = (traj.gamma, report.gamma)
        fields = [(traj.snapshots[-1].psi, traj.snapshots[-1].pi)]
        return gammas, fields

    block = runs()
    monkeypatch.setattr(_ShellCore, "advance", per_step_advance(rho, sol.rho))
    reference = runs()
    for got, want in zip(block[0], reference[0]):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    for got_pair, want_pair in zip(block[1], reference[1]):
        for got, want in zip(got_pair, want_pair):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_block_table_rows_are_capped(grid, rho, pot):
    # the table grows with steps_per_sample only up to the block cap
    core = _ShellCore(grid, Integrator(0.01, steps_per_sample=1000), rho, pot, 1.0)
    assert core.table.shape[0] <= 17
    assert _ShellCore(grid, Integrator(0.01, steps_per_sample=3), rho, pot, 1.0).table.shape[0] == 4


def test_broad_coupling_couples_every_mode(pot):
    # rho one grid spacing wide: its transform keeps e^{-pi^2 / 2} ~ 7e-3 of
    # its peak at the Nyquist mode, so every mode is coupled, the core keeps
    # one coordinate per |xi|^2 shell (each +-xi pair, plus 0 and the
    # Nyquist mode: N/2 + 1) and the block table has a column pair per shell
    grid = make_grid(1, 256, 64.0)
    rho = CouplingProfile.gaussian(grid, amplitude=2.0, width=grid.spacing)
    integ = Integrator(0.02, steps_per_sample=5)
    core = _ShellCore(grid, integ, rho, pot, 1.0)
    assert np.array_equal(np.sort(core.modes), np.arange(grid.num_points))
    assert core.pair.shape == (2, grid.num_points // 2 + 1)
    assert core.table.shape[1] == 2 * (grid.num_points // 2 + 1)
    state = localized_state(grid, np.random.default_rng(3), scale=0.5)
    ref_gamma, ref_final = strang_reference(state, rho, pot, integ, 100)
    traj = evolve(state, rho, pot, integ, 2.0, Observers(snapshot_stride=20))
    assert np.max(np.abs(traj.gamma - ref_gamma)) <= 1e-10 * np.max(np.abs(ref_gamma))
    end = traj.snapshots[-1]
    for got, want in ((end.psi, ref_final.psi), (end.pi, ref_final.pi)):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_width_one_gaussian_couples_few_modes(pot, monkeypatch):
    # the distance experiment's defaults: rho_hat ~ e^{-xi^2 / 2} falls below
    # machine epsilon of its peak at |xi| ~ 8.5, far inside the Nyquist 8 pi
    grid = make_grid(1, 2048, 128.0)
    rho = CouplingProfile.gaussian(grid, amplitude=4.0, width=1.0)
    integ = Integrator(0.01, steps_per_sample=10)
    core = _ShellCore(grid, integ, rho, pot, 1.0)
    count = core.modes.size
    assert 0 < count <= 0.2 * grid.num_points
    size = np.abs(grid.raw_fft(rho.values))
    mask = size > np.finfo(np.float64).eps * size.max()
    # the core lists the coupled modes shell by shell, each shell's ascending
    assert np.array_equal(np.sort(core.modes), np.flatnonzero(mask))
    shell = grid.shells[1][core.modes]
    step, order = np.diff(shell), np.diff(core.modes)
    assert np.all((step > 0) | ((step == 0) & (order > 0)))
    # one coordinate per coupled shell: each +-xi pair
    assert core.table.shape[1] == 2 * core.pair.shape[1] == 2 * np.unique(shell).size == count + 1
    state = localized_state(grid, np.random.default_rng(4), scale=0.5)
    core.load(state.psi, state.pi)
    for got, want in zip(core.fields(), (state.psi, state.pi)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # the block update on the coupled set against per-step stepping on the
    # full coupling, which kicks and reads every mode
    obs = Observers(snapshot_stride=20)
    block = evolve(state, rho, pot, integ, 4.0, obs)
    monkeypatch.setattr(_ShellCore, "advance", per_step_advance(rho))
    reference = evolve(state, rho, pot, integ, 4.0, obs)
    assert np.max(np.abs(block.gamma - reference.gamma)) <= 1e-10 * np.max(np.abs(reference.gamma))
    for got, want in zip(block.snapshots, reference.snapshots):
        for part in ("psi", "pi"):
            g, w = getattr(got, part), getattr(want, part)
            assert np.max(np.abs(g - w)) <= 1e-10 * np.max(np.abs(w))


def width_one_run(sps):
    # the distance experiment's coupling on a quarter of its grid: C is 17%
    # of the modes, so the core leaves 83% of them behind
    grid = make_grid(1, 512, 32.0)
    rho = CouplingProfile.gaussian(grid, amplitude=4.0, width=1.0)
    integ = Integrator(0.01, steps_per_sample=sps)
    state = localized_state(grid, np.random.default_rng(8), scale=0.5)
    # 15 sampling intervals
    return grid, rho, integ, state, 0.15 * sps


def assert_rel_close(got, want, rel=1e-10):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("sps", [1, 10, 40])
def test_lazy_core_reads_match_every_mode_flow(pot, sps, monkeypatch):
    # reads after one or several sampling intervals, an interval being one
    # block (1 and 10 steps) or blocks of 16, 16 and 8 steps (40): the core's
    # synced state is the per-step every-mode route's, to roundoff
    grid, rho, integ, state, T = width_one_run(sps)
    core = _ShellCore(grid, integ, rho, pot, 1.0)
    ref = _ShellCore(grid, integ, rho, pot, 1.0)
    assert 0 < core.modes.size <= 0.2 * grid.num_points
    assert core.residual.shape == (2, grid.num_points)
    core.load(state.psi, state.pi)
    ref.load(state.psi, state.pi)
    for intervals in (1, 3, 2, 1):
        for _ in range(intervals):
            core.advance()
            per_step_advance(rho)(ref)
        assert core.pending == intervals * sps
        for got, want in zip(core.fields(), ref.fields()):
            assert_rel_close(got, want)
        assert core.pending == 0
    # and through evolve, whose snapshots sync every 3 or 7 samples
    for stride in (3, 7):
        obs = Observers(snapshot_stride=stride)
        traj = evolve(state, rho, pot, integ, T, obs)
        with monkeypatch.context() as patch:
            patch.setattr(_ShellCore, "advance", per_step_advance(rho))
            reference = evolve(state, rho, pot, integ, T, obs)
        assert len(reference.snapshots) == len(traj.snapshots) > 1
        for snap, want in zip(traj.snapshots, reference.snapshots):
            assert_rel_close(snap.psi, want.psi)
            assert_rel_close(snap.pi, want.pi)


@pytest.mark.parametrize("sps", [1, 10, 40])
def test_lazy_invariants_match_all_mode_sums(pot, sps, monkeypatch):
    # per-sample H and Q: the coupled sums plus the rest's constant share
    # against the position-space functionals of a per-step every-mode run
    grid, rho, integ, state, T = width_one_run(sps)
    traj = evolve(state, rho, pot, integ, T)
    monkeypatch.setattr(_ShellCore, "advance", per_step_advance(rho))
    reference = evolve(state, rho, pot, integ, T, Observers(snapshot_stride=1))
    assert len(reference.snapshots) == len(traj.times)
    assert_rel_close(traj.energy, np.array([energy(s, rho, pot) for s in reference.snapshots]))
    assert_rel_close(traj.charge, np.array([charge(s) for s in reference.snapshots]))


@pytest.mark.parametrize("dim, points, length, width, sponge", [
    (1, 512, 32.0, 1.0, None),  # C a strict subset: 17% of the modes
    (2, 64, 16.0, 1.0, None),  # C a strict subset in 2-D: 1851 of 4096
    (1, 256, 64.0, 0.25, None),  # a coupling one grid spacing wide: C is every mode
    (1, 256, 64.0, 1.0, Sponge(16.0, 2.0)),  # a sponge core keeps every mode
])
def test_layout_round_trips(dim, points, length, width, sponge, pot):
    # load projects the natural raw pair onto one coordinate per coupled
    # shell, z_S = <v_S, x> with v_S the unit vector of rho_raw over the
    # shell's coupled modes, and a residual orthogonal to every v_S; fields
    # adds them back.  A sponge core keeps the natural pair.
    grid = make_grid(dim, points, length)
    rho = CouplingProfile.gaussian(grid, amplitude=2.0, width=width)
    core = (_ShellCore if sponge is None else _SpongeCore)(grid, Integrator(0.02, 10, sponge), rho,
                                                           pot, 1.0)
    state = localized_state(grid, np.random.default_rng(9), scale=0.5)
    core.load(state.psi, state.pi)
    natural = grid.raw_fft(np.stack((state.psi, state.pi))).reshape(2, -1)
    if sponge is not None:
        assert np.array_equal(core.pair, natural)
    else:
        rho_raw = grid.raw_fft(rho.values).ravel()
        mask = coupled_modes(rho_raw)
        assert mask.all() == (width != 1.0)
        _, index = grid.shells
        shells = np.unique(index[mask])
        assert core.pair.shape == (2, shells.size) and core.pair.flags.c_contiguous
        assert core.residual.shape == (2, grid.num_points)
        scale = np.max(np.abs(natural))
        for column, shell in enumerate(shells):
            modes = np.flatnonzero(mask & (index == shell))
            v = rho_raw[modes] / np.linalg.norm(rho_raw[modes])
            for row in range(2):
                z = np.vdot(v, natural[row, modes])
                assert abs(core.pair[row, column] - z) <= 1e-14 * scale
                assert abs(np.vdot(v, core.residual[row, modes])) <= 1e-14 * scale
        # the residual holds the rest of the state, and the modes outside C whole
        assert np.array_equal(core.residual[:, ~mask], natural[:, ~mask])
        assert np.max(np.abs(core.natural() - natural)) <= 1e-14 * scale
    for got, want in zip(core.fields(), (state.psi, state.pi)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("sponge", [None, Sponge(8.0, 2.0)])
def test_blocks_run_on_the_contiguous_coupled_pair(sponge, pot):
    grid, rho, integ, state, T = width_one_run(10)
    core = (_ShellCore if sponge is None else _SpongeCore)(grid, Integrator(integ.dt, 10, sponge),
                                                           rho, pot, 1.0)
    core.load(state.psi, state.pi)
    assert core.pair.flags.c_contiguous
    if sponge is None:
        # the shell pair holds one column per coupled shell, and the views
        # that the interval writes through all sit on it; the residual lags
        assert core.pair.shape[1] < core.modes.size < grid.num_points
        for view in (core.flat, core.view, core.swapped, core.columns):
            assert np.shares_memory(view, core.pair)
            assert not np.shares_memory(view, core.residual)
        before = core.residual.copy()
        core.advance()
        assert np.array_equal(core.residual, before) and core.pending == 10
    else:
        assert core.pair.shape == (2, grid.num_points) and core.pair.base is core.raw


@pytest.mark.parametrize("dim, points, length, several", [
    (1, 512, 32.0, 2),  # each +-xi pair, at unequal phases of rho_raw
    (2, 64, 16.0, 8),  # eight or more coupled modes on the fullest shell
])
def test_shell_core_matches_the_every_mode_route(dim, points, length, several, pot,
                                                 monkeypatch):
    # a real rho that is not even, so rho_raw differs in phase across each
    # shell and each shell's unit vector mixes unequal entries; against the
    # per-step route on every mode in natural raw order, with gamma, H and Q
    # of that route taken from its fields by the position-space functionals
    grid = make_grid(dim, points, length)
    axes = np.meshgrid(*grid.axis_coords, indexing="ij")
    shifted = sum((x - s) ** 2 for x, s in zip(axes, (1.3, -0.4)))
    rho = CouplingProfile.from_values(grid, 2.0 * np.exp(-0.5 * shifted)
                                      + np.exp(-grid.radius ** 2))
    integ = Integrator(0.02, 10)
    core = _ShellCore(grid, integ, rho, pot, 1.0)
    rho_raw = grid.raw_fft(rho.values).ravel()
    modes = core.modes[core.column == np.argmax(np.bincount(core.column))]
    assert modes.size >= several and np.ptp(np.angle(rho_raw[modes])) > 0.1
    state = localized_state(grid, np.random.default_rng(11), scale=0.5)
    T = 4.0  # 20 sampling intervals
    traj = evolve(state, rho, pot, integ, T, Observers(snapshot_stride=5))
    monkeypatch.setattr(_ShellCore, "advance", per_step_advance(rho))
    reference = evolve(state, rho, pot, integ, T, Observers(snapshot_stride=1)).snapshots
    assert len(reference) == len(traj.times) == 21
    assert_rel_close(traj.gamma, np.array([inner_product(rho, s) for s in reference]))
    assert_rel_close(traj.energy, np.array([energy(s, rho, pot) for s in reference]))
    assert_rel_close(traj.charge, np.array([charge(s) for s in reference]))
    assert len(traj.snapshots) == 5
    for snap, want in zip(traj.snapshots, reference[::5]):
        assert snap.time == want.time
        assert_rel_close(snap.psi, want.psi)
        assert_rel_close(snap.pi, want.pi)


def criterion_6_data(seed):
    """The initial data of one seed of criterion 6's attraction runs (test_acceptance)."""
    grid = make_grid(1, 4096, 256.0)
    rho = CouplingProfile.gaussian(grid, amplitude=4.0, width=1.0)
    pot = PolynomialPotential((-1.0, 1.0))
    rng = np.random.default_rng(1000 + seed)
    omega = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.35, 0.8))
    theta = float(rng.uniform(0.0, 2.0 * np.pi))
    ws = build_solitary(rho, pot, omega, theta).initial_state()
    pert = random_state(grid, seed, 0.7 * energy_norm(ws, 1.0),
                        envelope_width=8.0, band_limit=0.5,
                        band_center=1.2, envelope_center=30.0)
    return FieldState(grid, ws.psi + pert.psi, ws.pi + pert.pi), rho, pot


@pytest.mark.parametrize("seed", [0, 1])
def test_strang_round_trip_returns_the_data(seed):
    # Kick and free flow each satisfy Rev S(tau) Rev = S(-tau), with
    # Rev(psi, pi) = (psi, -pi), so the palindromic Strang step is inverted
    # by Rev S Rev: T forward, flip pi, T forward again and flip pi back
    # returns the data up to roundoff.  Criterion 6's data in an undamped
    # box twice as long (N=8192, L=512); the relative energy-norm error
    # measured 1.4-2.1e-13 at T=200
    data, rho, pot = criterion_6_data(seed)
    data, rho = zero_pad(data, rho, 2)
    integ, T = Integrator(0.01, 10), 200.0
    there = list(snapshots(data, rho, pot, integ, T, 2000))
    assert len(there) == 2 and there[-1].time == pytest.approx(T)
    flipped = FieldState(data.grid, there[-1].psi, -there[-1].pi)
    back = list(snapshots(flipped, rho, pot, integ, T, 2000))[-1]
    error = FieldState(data.grid, back.psi - data.psi, -back.pi - data.pi)
    assert energy_norm(error) / energy_norm(data) <= 1e-12


@pytest.mark.parametrize("sps", [10, 40])
def test_handed_on_gamma_matches_the_pairing(pot, sps, monkeypatch):
    # at every sample of an undamped evolve and of a persistence run, the
    # gamma that the last block's recurrence hands on is the pairing of the
    # synced state over every mode, to roundoff; the recorded gamma is that
    # handed-on value, and at the first sample, where no block ran, the load
    # hands on its own pairing: the shell pair with the real shell pairing,
    # which is the pairing over every mode to roundoff too
    grid, rho, integ, state, T = width_one_run(sps)
    sol = TwoFrequencySolution(rho, 2.0, 2.0 / 3.0, -1.0, 1.75, 1.0,
                               state.psi.real, state.pi.real, 1.0)
    seen = []
    coupling = _ShellCore.coupling
    rho_raw = grid.raw_fft(rho.values).ravel()

    def spy(self):
        psi = self.natural()[0]
        seen.append((self.gamma, complex(np.vdot(self.scale * rho_raw, psi)),
                     complex(np.vdot(self.read, self.pair[0]))))
        return coupling(self)

    monkeypatch.setattr(_ShellCore, "coupling", spy)
    runs = [evolve(state, rho, pot, integ, T).gamma,
            verify_persistence(sol, integ, T, tol=1.0).gamma]
    assert len(seen) == sum(len(g) for g in runs) == 2 * 16
    for gamma, read in zip(runs, (seen[:16], seen[16:])):
        handed, paired, shell = zip(*read)
        assert handed[0] == shell[0]
        assert np.array_equal(gamma, handed)
        paired = np.array(paired)
        got = np.array(handed)
        assert np.max(np.abs(got - paired)) <= 1e-13 * np.max(np.abs(paired))


def test_sponge_core_hands_gamma_on(pot):
    # the sponge twin of test_handed_on_gamma_matches_the_pairing, on the
    # attraction bench grid: at every sample, coupling() is a fresh pairing
    # of psi over the coupled span bit for bit and the pairing over every
    # mode to roundoff, coupling_terms() hands on pot.force of it bit for
    # bit, and each interval's first half kick receives that handed-on force
    # instead of pairing again
    data, rho, _ = criterion_6_data(0)
    grid = data.grid
    core = _SpongeCore(grid, Integrator(0.01, 10, Sponge(64.0, 3.0)), rho, pot, 1.0)
    rho_raw = grid.raw_fft(rho.values).ravel()
    low, high = core.span
    assert low.stop < high.start
    spanned = core.scale * np.concatenate((rho_raw[low], rho_raw[high]))
    received, half_kick = [], core.half_kick

    def spy(f):
        received.append(f)
        half_kick(f)

    core.half_kick = spy
    core.load(data.psi, data.pi)
    handed = []
    for _ in core.samples(10, 0.0):
        psi = core.pair[0]
        g = core.coupling()
        assert g == complex(np.vdot(spanned, np.concatenate((psi[low], psi[high]))))
        full = complex(np.vdot(core.scale * rho_raw, psi))
        assert abs(g - full) <= 1e-13 * abs(full)
        f = core.coupling_terms()[1]
        assert f == pot.force(g)
        handed.append(f)
    # two half kicks per step, ten steps per interval, ten intervals
    assert len(received) == 200
    assert received[::20] == handed[:-1]


def counted_force(monkeypatch):
    """A list that records every PolynomialPotential.force call from now on."""
    calls, force = [], PolynomialPotential.force

    def counted(self, z):
        calls.append(z)
        return force(self, z)

    monkeypatch.setattr(PolynomialPotential, "force", counted)
    return calls


@pytest.mark.parametrize("sps", [1, 10, 16, 40])
def test_shell_core_makes_one_force_call_per_step(pot, sps, monkeypatch):
    # each block starts from the gamma and force handed on to it, so an
    # interval of sps steps makes sps force calls, one fewer per block than
    # a block that recomputes its gamma_0; the sample reads the handed-on
    # force, which is pot.force of the handed-on gamma bit for bit
    grid, rho, integ, state, _ = width_one_run(sps)
    calls = counted_force(monkeypatch)
    core = _ShellCore(grid, integ, rho, pot, 1.0)
    core.load(state.psi, state.pi)
    assert len(calls) == 1
    for _ in range(3):
        done = len(calls)
        core.advance()
        g, f, _ = core.coupling_terms()
        assert len(calls) - done == sps and calls[-1] == g
        assert f == pot.force(g)


def test_sponge_core_makes_two_force_calls_per_step(grid, rho, pot, monkeypatch):
    # the mid-step kick's pairing and the end pairing; the first half kick
    # and the sample read the force handed on with gamma
    integ = Integrator(0.01, 10, Sponge(20.0))
    state = localized_state(grid, np.random.default_rng(4), scale=0.5)
    calls = counted_force(monkeypatch)
    core = _SpongeCore(grid, integ, rho, pot, 1.0)
    core.load(state.psi, state.pi)
    assert len(calls) == 1
    for _ in range(3):
        done = len(calls)
        core.advance()
        g, f, _ = core.coupling_terms()
        assert len(calls) - done == 2 * integ.steps_per_sample and calls[-1] == g
        assert f == pot.force(g)


def damped_reference_steps(core, rho):
    """The sponge interval before the coupled span, as a test-side copy.

    Each step kicks and pairs over every mode, with the natural raw kick and
    pairing of rho, takes the scaled inverse transform (raw_ifft) into the
    core's position buffer, multiplies by the damping exp(-sigma dt) and
    transforms back with raw_fft.  The end state's pairing over every mode
    is the core's gamma.
    """
    grid, integ = core.grid, core.integ
    damp = np.repeat(np.exp(-integ.sponge.rate(grid) * integ.dt).ravel(), 2)
    rho_raw = grid.raw_fft(rho.values).ravel()
    kick, pairing, force = (0.5 * integ.dt) * rho_raw, core.scale * rho_raw, core.pot.force
    cos, sin = core.step_flow
    psi, pi = core.pair
    view = core.pair.view(np.float64)
    shaped = core.raw.reshape(2, *grid.shape)
    fields = core.position
    damped = fields.view(np.float64).reshape(2, -1)
    for _ in range(integ.steps_per_sample):
        pi += force(complex(np.vdot(pairing, psi))) * kick
        view[:] = view * cos + sin * view[::-1]
        pi += force(complex(np.vdot(pairing, psi))) * kick
        grid.raw_ifft(shaped, out=fields)
        damped *= damp
        grid.raw_fft(fields, out=shaped)
    core.gamma = complex(np.vdot(pairing, psi))


@pytest.mark.parametrize("dim, points, length, amplitude, coupled, covered", [
    (1, 4096, 256.0, 4.0, 692, 692),  # the attraction bench grid
    (1, 2048, 128.0, 1.0, 345, 345),  # the CLI defaults
    # roundoff of the transform scatters C across the rows of a 2-D grid
    (2, 64, 16.0, 1.0, 1851, 4096),
])
def test_sponge_span_covers_the_coupled_modes(dim, points, length, amplitude, coupled,
                                              covered, pot):
    grid = make_grid(dim, points, length)
    rho = CouplingProfile.gaussian(grid, amplitude=amplitude, width=1.0)
    n = grid.num_points
    core = _SpongeCore(grid, Integrator(0.01, 10, Sponge(0.25 * length, 2.0)), rho, pot, 1.0)
    low, high = core.span
    assert low.start == 0 and low.stop <= n // 2 <= high.start and high.stop == n
    inside = np.zeros(n, dtype=bool)
    inside[low] = inside[high] = True
    mask = coupled_modes(grid.raw_fft(rho.values).ravel())
    assert np.count_nonzero(mask) == coupled and np.count_nonzero(inside) == covered
    assert not np.any(mask & ~inside)
    # each slice ends on a coupled mode, so neither can shrink
    assert mask[low.stop - 1] and mask[high.start % n]


@pytest.mark.parametrize("dim, points, length, sponge", [
    (2, 64, 16.0, Sponge(4.0, 2.0)),  # the span is every mode
    (1, 512, 32.0, Sponge(8.0, 2.0)),  # the span is 17% of the modes
])
def test_sponge_steps_match_the_every_mode_loop(dim, points, length, sponge, pot, monkeypatch):
    # the unscaled inverse with the 1/N in the damping table changes no
    # bit, so where the span is every mode the run is the every-mode
    # loop's bit for bit; elsewhere the modes left out hold only roundoff
    grid = make_grid(dim, points, length)
    rho = CouplingProfile.gaussian(grid, amplitude=1.0, width=1.0)
    integ = Integrator(0.02, 5, sponge)
    state = localized_state(grid, np.random.default_rng(6), scale=0.5)
    obs = Observers(snapshot_stride=10)
    traj = evolve(state, rho, pot, integ, 2.0, obs)
    every = _SpongeCore(grid, integ, rho, pot, 1.0).span[0].stop == grid.num_points // 2
    assert every == (dim == 2)
    monkeypatch.setattr(_SpongeCore, "advance", lambda core: damped_reference_steps(core, rho))
    reference = evolve(state, rho, pot, integ, 2.0, obs)
    assert len(traj.snapshots) == len(reference.snapshots) == 3
    got = [traj.gamma, traj.energy, traj.charge]
    want = [reference.gamma, reference.energy, reference.charge]
    for snap, ref in zip(traj.snapshots, reference.snapshots):
        got += [snap.psi, snap.pi]
        want += [ref.psi, ref.pi]
    for g, w in zip(got, want):
        if every:
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
        else:
            assert_rel_close(g, w, rel=1e-12)
