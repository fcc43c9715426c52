"""Standing-wave construction, the dispersion scalar, manifold distances."""
import copy
import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scipy.optimize import minimize_scalar

from mfkg import (
    CouplingProfile, FieldState, Grid, ManifoldTable, PolynomialPotential, SeminormSpec,
    amplitude_roots, build_counterexample, build_solitary, charge, config_from_dict,
    dispersion_curve,
    energy_norm, make_grid, manifold_distance, random_state,
    resolvent_coupling, resolvent_profile, stationarity_residual, zero_state,
)
from mfkg.config import _sigma_range
from mfkg.fields import _windowed_weighted_hats
import mfkg.solitary
from mfkg.solitary import _bounded_brent, default_omega_grid, shell_max


def test_resolvent_coupling_lattice_sum(grid, rho):
    """s(omega) is the plain lattice sum over |rho_hat|^2 / (xi^2 + m^2 - omega^2)."""
    omega, m = 0.4, 1.0
    expected = np.sum(
        np.abs(rho.rho_hat) ** 2 / (grid.k_squared + m**2 - omega**2)
    ) / grid.box_length
    assert_allclose(resolvent_coupling(rho, omega), expected, rtol=1e-13)


@pytest.mark.parametrize("dim, points, length", [(2, 64, 32.0), (3, 32, 16.0)])
def test_resolvent_route_matches_full_grid_sums(dim, points, length):
    """s(omega) and the profile over |xi|^2 shells equal the plain sums over every lattice point."""
    grid = make_grid(dim, points, length)
    rho = CouplingProfile.gaussian(grid, amplitude=2.0, width=1.0)
    for omega in (0.0, 0.4, -0.9):
        den = grid.k_squared + 1.0 - omega**2
        expected = np.sum(np.abs(rho.rho_hat) ** 2 / den) / grid.box_length**dim
        assert_allclose(resolvent_coupling(rho, omega), expected, rtol=1e-13)
        reference = grid.inverse(rho.rho_hat / den)
        assert_allclose(resolvent_profile(rho, omega), reference, rtol=0,
                        atol=1e-13 * np.max(np.abs(reference)))
    s = resolvent_coupling(rho, 0.5 + 0.2j)
    den = grid.k_squared + 1.0 - (0.5 + 0.2j) ** 2
    assert_allclose(s, np.sum(np.abs(rho.rho_hat) ** 2 / den) / grid.box_length**dim, rtol=1e-13)


@pytest.mark.parametrize("m", [float("nan"), float("inf"), -1.0, 0.0])
@pytest.mark.parametrize("route", [
    lambda rho, pot, m: resolvent_coupling(rho, 0.5, m=m),
    lambda rho, pot, m: resolvent_profile(rho, 0.5, m=m),
    lambda rho, pot, m: dispersion_curve(rho, [0.1, 0.2], m=m),
    lambda rho, pot, m: build_solitary(rho, pot, 0.5, m=m),
    lambda rho, pot, m: ManifoldTable(rho, pot, SeminormSpec(0.5, 8.0, 8.0), m=m),
], ids=["resolvent_coupling", "resolvent_profile", "dispersion_curve", "build_solitary",
        "ManifoldTable"])
def test_a_mass_that_is_not_finite_and_positive_is_rejected(rho, pot, route, m):
    """A NaN mass gave NaN values, m = -1 those of m = 1, and m = inf or 0 a frequency's message."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^m=.* must be finite and positive"):
            route(rho, pot, m)


def test_frequency_within_the_floor_of_m_needs_a_negligible_zero_mode(grid, rho):
    """Where m^2 - omega^2 lies within the floor, the xi = 0 term is dropped only if rho_hat(0) is negligible."""
    omega = 1.0 - 1e-15
    with pytest.raises(ValueError):
        resolvent_coupling(rho, omega)
    with pytest.raises(ValueError):
        resolvent_profile(rho, omega)
    k_sq = grid.k_squared
    hollow = CouplingProfile.from_spectrum(grid, k_sq * np.exp(-0.5 * k_sq))
    rest = k_sq > 0
    den = k_sq[rest] + 1.0 - omega * omega
    expected = np.sum(np.abs(hollow.rho_hat[rest]) ** 2 / den) / grid.box_length
    assert_allclose(resolvent_coupling(hollow, omega), expected, rtol=1e-14)
    assert np.isfinite(resolvent_profile(hollow, omega)).all()


def test_dispersion_curve_shape(rho):
    om = np.linspace(-0.9, 0.9, 19)
    values = dispersion_curve(rho, om)
    assert np.all(values > 0)
    assert_allclose(values, values[::-1], rtol=1e-12)  # even
    # increasing in |omega|: the gap shrinks toward the threshold
    half = values[9:]
    assert np.all(np.diff(half) > 0)


def test_dispersion_curve_matches_the_per_omega_shell_sums():
    """The chunked coupled-shell route gives the per-omega sums over every shell to 1e-15."""
    cfg = config_from_dict({"experiment": "sigma"})
    grid, m = cfg.build_grid(), cfg.m
    rho = cfg.build_rho(grid)
    omegas = np.linspace(*_sigma_range(cfg.section("sigma"), m), int(cfg.section("sigma")["count"]))
    values = dispersion_curve(rho, omegas, m)
    k2 = grid.shells[0]
    reference = np.array([np.sum(rho.shell_mass / ((k2 + m * m) - w * w)) / grid.box_length
                          for w in omegas])
    assert np.all(np.abs(values - reference) <= 1e-15 * np.abs(reference))
    assert [resolvent_coupling(rho, w, m) for w in omegas] == values.tolist()


def test_dispersion_curve_keeps_the_designed_zero_and_rejects_resonant_omega(rho):
    sol = build_counterexample(2.0, -1.0, make_grid(1, 1024, 64.0))
    values = dispersion_curve(sol.rho, [-2.0, 0.5, 2.0])
    assert values[0] == 0.0 and values[2] == 0.0 and values[1] != 0.0
    with pytest.raises(ValueError) as single:
        resolvent_coupling(rho, 1.5)
    with pytest.raises(ValueError) as curve:
        dispersion_curve(rho, [0.2, 1.5, 0.4])
    assert str(curve.value) == str(single.value)


def test_resolvent_coupling_complex_frequency(rho):
    s = resolvent_coupling(rho, 0.5 + 0.2j)
    assert isinstance(s, complex) and s.imag != 0
    with pytest.raises(ValueError, match="upper half-plane"):
        resolvent_coupling(rho, 0.5 - 0.2j)


@pytest.mark.parametrize("evaluate, match", [
    (lambda rho: resolvent_coupling(rho, float("nan")), "omega=nan must be finite"),
    (lambda rho: resolvent_coupling(rho, complex(0.5, float("inf"))),
     r"omega=\(0.5\+infj\) must be finite"),
    (lambda rho: resolvent_coupling(rho, complex(float("nan"), 0.2)),
     r"omega=\(nan\+0.2j\) must be finite"),
    (lambda rho: resolvent_profile(rho, float("nan")), "omega=nan must be finite"),
    (lambda rho: dispersion_curve(rho, [0.1, float("nan")]), "omega=nan must be finite"),
], ids=["coupling", "complex-inf", "complex-nan", "profile", "curve"])
def test_frequency_routes_reject_non_finite_omega(rho, evaluate, match):
    with pytest.raises(ValueError, match=match):
        evaluate(rho)


def test_resolvent_rejects_resonant_frequency(rho):
    # a Gaussian rho_hat never vanishes, so every shell above m is resonant
    with pytest.raises(ValueError, match="resonant shell"):
        resolvent_coupling(rho, 1.5)
    assert shell_max(rho, 1.5) > 0
    with pytest.raises(ValueError):
        shell_max(rho, 0.5)


def test_resolvent_profile_solves_division_problem(grid, rho):
    omega, m = 0.3, 1.0
    phi = resolvent_profile(rho, omega)
    back = grid.inverse((grid.k_squared + m**2 - omega**2) * grid.forward(phi))
    assert_allclose(back.real, rho.values, atol=1e-10)
    assert np.max(np.abs(back.imag)) < 1e-10


def test_resolvent_drops_exact_zero_denominators_where_rho_hat_vanishes():
    # rho_hat vanishes on the lattice shell of bin 16, and omega puts the
    # denominator within the floor there, at bins 16 and 1008 (= -16)
    grid = make_grid(1, 1024, 64.0)
    k_sq = grid.k_squared
    rho = CouplingProfile.from_spectrum(grid, (k_sq - k_sq[16]) * np.exp(-0.5 * k_sq))
    omega = float(np.sqrt(k_sq[16] + 1.0))
    den = k_sq + 1.0 - omega * omega
    hit = np.abs(den) <= mfkg.solitary._DEN_FLOOR_FRAC
    assert np.flatnonzero(hit).tolist() == [16, 1008]
    rest = ~hit
    expected = np.sum(np.abs(rho.rho_hat[rest]) ** 2 / den[rest]) / grid.box_length
    assert_allclose(resolvent_coupling(rho, omega), expected, rtol=1e-14)
    profile = resolvent_profile(rho, omega)
    assert np.isfinite(profile).all()
    kept = np.where(hit, 0.0, rho.rho_hat / np.where(hit, 1.0, den))
    assert_allclose(profile, grid.inverse(kept), rtol=0, atol=1e-13 * np.max(np.abs(profile)))


def test_amplitude_roots_closed_form(pot):
    # for u = -r + r^2 the condition 1 = s(2 - 4 r s^2) has the single root below
    for s in (0.6, 1.0, 3.0):
        expected = (2.0 * s - 1.0) / (4.0 * s**3)
        assert_allclose(amplitude_roots(pot, s), [expected], rtol=1e-10)
    assert amplitude_roots(pot, 0.4) == []  # needs s > 1/2
    with pytest.raises(ValueError):
        amplitude_roots(pot, 0.0)


def test_amplitude_roots_match_the_polynomial_class_route():
    # the companion-matrix roots of Polynomial(coeffs).roots() (identity
    # domain map) with the guard evaluated by numpy's polyval
    def reference(pot, s):
        coeffs = [-2.0 * (n + 1) * u * s ** (2 * n + 1) for n, u in enumerate(pot.coeffs)]
        coeffs[0] -= 1.0
        out = []
        for z in np.polynomial.Polynomial(coeffs).roots():
            if abs(z.imag) > 1e-9 * (1.0 + abs(z)):
                continue
            r = float(z.real)
            if -1e-12 < r < 0:
                r = 0.0
            if r >= 0 and abs(s * pot.force_coefficient(r * s * s) - 1.0) < 1e-8:
                out.append(r)
        return sorted(out)

    rng = np.random.default_rng(19)
    found = 0
    for _ in range(400):
        degree = int(rng.integers(2, 5))
        coeffs = (*rng.uniform(-3.0, 3.0, degree - 1), rng.uniform(0.1, 3.0))
        pot = PolynomialPotential(coeffs)
        s = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0))
        roots = amplitude_roots(pot, s)
        assert roots == reference(pot, s)
        found += len(roots)
    assert found > 100


def test_two_coefficient_roots_are_polyroots_bits_without_the_companion_matrix(monkeypatch):
    """p = 2 roots are numpy's two-term quotient bit for bit; p = 3 still calls polyroots."""
    from numpy.polynomial.polynomial import polyroots

    calls = []

    def counted(coeffs):
        calls.append(len(coeffs))
        return polyroots(coeffs)

    monkeypatch.setattr(mfkg.solitary, "polyroots", counted)
    pot = PolynomialPotential((-1.0, 1.0))
    found = 0
    for s in (*np.linspace(-3.0, 3.0, 600), 0.5, 1e-110, -1e-110, 1e5):
        coeffs = [-2.0 * (n + 1) * u * s ** (2 * n + 1) for n, u in enumerate(pot.coeffs)]
        coeffs[0] -= 1.0
        want = [float(z.real) for z in polyroots(coeffs)
                if float(z.real) >= 0 and abs(s * pot.force_coefficient(z.real * s * s) - 1.0) < 1e-8]
        got = amplitude_roots(pot, float(s))
        assert np.array(got).tobytes() == np.array(want).tobytes(), s
        found += len(got)
    assert found > 200 and calls == []
    # the zero coefficient of r of a tiny s has no root, as polyroots trims it
    assert amplitude_roots(pot, 1e-110) == []
    amplitude_roots(PolynomialPotential((-1.0, 0.5, 0.25)), 1.2)
    assert calls == [3]


def test_build_solitary_invariants(grid, rho, pot):
    wave = build_solitary(rho, pot, omega=0.5, theta=0.7)
    assert stationarity_residual(wave, rho, pot) < 1e-12
    state = wave.initial_state()
    # Q = omega ||phi||^2 on the pi = -i omega phi slice
    assert_allclose(charge(state), 0.5 * grid.l2sq(wave.profile), rtol=1e-12)
    assert_allclose(wave.charge, charge(state))
    # the phase theta rotates the profile but changes no invariant
    other = build_solitary(rho, pot, omega=0.5, theta=0.0)
    assert_allclose(np.abs(wave.profile), np.abs(other.profile), atol=1e-14)
    assert_allclose(wave.energy, other.energy, rtol=1e-12)


def test_build_solitary_rejects_impossible_frequency(grid, pot):
    # weak coupling keeps s below 1/2 everywhere, so no amplitude root exists
    weak = CouplingProfile.gaussian(grid, amplitude=0.3, width=1.0)
    with pytest.raises(ValueError, match="no standing-wave amplitude"):
        build_solitary(weak, pot, omega=0.0)
    with pytest.raises(ValueError, match="root_index"):
        build_solitary(CouplingProfile.gaussian(grid, amplitude=2.0), pot, 0.0, root_index=5)


def test_state_at_rotates_phase(rho, pot):
    wave = build_solitary(rho, pot, omega=0.5)
    t = 1.3
    state = wave.state_at(t)
    assert_allclose(state.psi, wave.profile * np.exp(-0.5j * t), atol=1e-14)
    assert state.time == t


def test_endpoint_report(rho):
    # a Gaussian has full mass at xi = 0, so |omega| = m is not admissible
    with pytest.raises(ValueError, match="endpoint"):
        resolvent_coupling(rho, 1.0)


def test_default_omega_grid():
    base = default_omega_grid(m=1.0, count=11)
    assert base.min() == -0.99 and base.max() == 0.99
    with_zeros = default_omega_grid(m=1.0, zeros=(2.2,), count=11)
    assert 2.2 in with_zeros and -2.2 in with_zeros


@pytest.mark.parametrize("m", [1.0, 0.7, 1.3])
@pytest.mark.parametrize("count", [201, 200, 11, 4, 3])
def test_default_omega_grid_is_symmetric(m, count):
    # mirror candidates are exact negatives and an odd count's centre is +0.0;
    # every candidate stays within half a mirror gap of the plain linspace
    base = default_omega_grid(m=m, count=count)
    assert base.size == count and np.all(np.diff(base) > 0)
    assert np.array_equal(base, -base[::-1])
    if count % 2:
        centre = base[count // 2]
        assert centre == 0.0 and not np.signbit(centre)
    spaced = np.linspace(-m + 0.01 * m, m - 0.01 * m, count)
    assert np.max(np.abs(base - spaced)) <= 2.5e-16 * m


def test_manifold_distance_vanishes_on_the_manifold(grid, rho, pot):
    spec = SeminormSpec(0.5, 8.0, 8.0)
    wave = build_solitary(rho, pot, omega=0.37, theta=2.1)
    state = wave.state_at(4.2)
    d, best = manifold_distance(state, rho, pot, spec)
    assert d < 1e-7 * energy_norm(state)
    assert best == pytest.approx(0.37, abs=1e-4)
    # the zero field lies on the manifold as well
    d0, best0 = manifold_distance(zero_state(grid), rho, pot, spec)
    assert d0 == 0.0 and best0 is None


def test_manifold_distance_sees_perturbations(grid, rho, pot, rng):
    from mfkg import local_seminorm

    spec = SeminormSpec(0.5, 8.0, 8.0)
    wave = build_solitary(rho, pot, omega=0.37)
    bump = 0.05 * np.exp(-0.5 * grid.radius**2) * (1 + 1j)
    state = FieldState(grid, wave.profile + bump, -1j * 0.37 * wave.profile, 0.0)
    d, _ = manifold_distance(state, rho, pot, spec)
    size = local_seminorm(FieldState(grid, bump, np.zeros_like(bump), 0.0), spec)
    assert 0.1 * size < d <= 1.5 * size


def test_manifold_distance_global_norm_variant(grid, rho, pot):
    wave = build_solitary(rho, pot, omega=-0.2)
    d, best = manifold_distance(wave.initial_state(), rho, pot, None)
    assert d < 1e-7 * energy_norm(wave.initial_state())
    assert best == pytest.approx(-0.2, abs=1e-4)


def reference_candidate(grid, rho, norm_spec, omega, psi_w, pi_w, m=1.0):
    """(||S||^2, |<S, Psi>|) for one candidate from its profile, three transforms each."""
    base = resolvent_profile(rho, omega, m)
    pair = FieldState(grid, base, -1j * omega * base, 0.0)
    b_psi, b_pi = _windowed_weighted_hats(pair, norm_spec, m)
    box_vol = grid.box_length**grid.dim
    base_sq = float((np.vdot(b_psi, b_psi) + np.vdot(b_pi, b_pi)).real) / box_vol
    overlap = abs((np.vdot(b_psi, psi_w) + np.vdot(b_pi, pi_w)) / box_vol)
    return base_sq, overlap


def reference_distance(state, rho, pot, norm_spec, omega_grid, m=1.0):
    """Independent per-candidate route: (squared distance, best omega, ||Psi||^2)."""
    grid = state.grid
    psi_w, pi_w = _windowed_weighted_hats(state, norm_spec, m)
    state_sq = float((np.vdot(psi_w, psi_w) + np.vdot(pi_w, pi_w)).real)
    state_sq /= grid.box_length**grid.dim

    def dist_sq_at(omega):
        try:
            roots = amplitude_roots(pot, resolvent_coupling(rho, omega, m))
        except ValueError:  # inadmissible omega, or s(omega) = 0
            return np.inf
        if not roots:
            return np.inf
        base_sq, overlap = reference_candidate(grid, rho, norm_spec, omega, psi_w, pi_w, m)
        return min(state_sq + r * base_sq - 2.0 * np.sqrt(r) * overlap for r in roots)

    best_sq, best_omega = state_sq, None
    for omega in omega_grid:
        d_sq = dist_sq_at(float(omega))
        if d_sq < best_sq:
            best_sq, best_omega = d_sq, float(omega)
    if best_omega is not None and abs(best_omega) < m:
        interior = omega_grid[np.abs(omega_grid) < m]
        pitch = float(np.max(np.diff(np.sort(interior))))
        lo = max(best_omega - pitch, -m + 1e-9 * m)
        hi = min(best_omega + pitch, m - 1e-9 * m)
        res = minimize_scalar(dist_sq_at, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-6 * m})
        if res.fun < best_sq:
            best_sq, best_omega = float(res.fun), float(res.x)
    return max(best_sq, 0.0), best_omega, state_sq


def _perturbed(wave, seed, size):
    pert = random_state(wave.grid, seed, size * energy_norm(wave.initial_state()),
                        envelope_width=3.0, band_limit=1.5)
    ws = wave.state_at(0.7)
    return FieldState(wave.grid, ws.psi + pert.psi, ws.pi + pert.pi, 0.7)


def _anisotropic_rho():
    """A 2-D Gaussian of widths 2 and 1.2: |rho_hat| varies within a shell of equal |xi|^2.

    Along the wide axis it falls to roundoff on shells where the narrow axis
    still couples, so 91 of the 378 coupled shells (of 520) also hold modes
    at roundoff.
    """
    grid = make_grid(2, 64, 32.0)
    x, y = np.meshgrid(*grid.axis_coords, indexing="ij")
    return CouplingProfile.from_values(grid, np.exp(-0.5 * (x**2 / 4.0 + y**2 / 1.44)))


def _table_case(name, grid, rho, pot):
    """(state, rho, pot, spec, omega_grid) for one comparison case; spec None is the global norm."""
    spec = SeminormSpec(0.5, 8.0, 8.0)
    omegas = default_omega_grid(1.0)
    if name == "windowed":
        return _perturbed(build_solitary(rho, pot, 0.37, 1.3), 1, 0.3), rho, pot, spec, omegas
    if name == "cutoff_disabled":
        wide = SeminormSpec(0.25, 24.0, 10.0)
        assert wide.cutoff_disabled(grid)
        return _perturbed(build_solitary(rho, pot, -0.6), 2, 0.3), rho, pot, wide, omegas
    if name == "global_norm":
        return _perturbed(build_solitary(rho, pot, 0.8), 3, 0.2), rho, pot, None, omegas
    if name == "two_dim":
        grid2 = make_grid(2, 64, 32.0)
        rho2 = CouplingProfile.gaussian(grid2, amplitude=2.0, width=1.0)
        spec2 = SeminormSpec(0.5, 6.0, 4.0)
        state = _perturbed(build_solitary(rho2, pot, 0.45, 0.4), 4, 0.3)
        return state, rho2, pot, spec2, omegas
    if name == "embedded":
        # s(+-2.0) vanishes by design, so those candidates have no amplitude
        sol = build_counterexample(2.0, -1.0, make_grid(1, 1024, 64.0))
        zeros = default_omega_grid(1.0, zeros=(2.0,))
        return sol.exact_state(1.1), sol.rho, sol.potential(), spec, zeros
    if name == "embedded_nonzero_s":
        # rho_hat vanishes on the shell |xi|^2 = 3 of omega = 2, where s = -0.705
        egrid = make_grid(1, 1024, 64.0)
        xi = egrid.wavenumbers[0]
        rho_e = CouplingProfile.from_spectrum(egrid, (xi**2 - 3.0) * np.exp(-0.5 * xi**2))
        zeros = default_omega_grid(1.0, zeros=(2.0,))
        state = _perturbed(build_solitary(rho_e, pot, 2.0, 0.4), 7, 0.1)
        return state, rho_e, pot, spec, zeros
    if name == "zero_wins":
        # odd fields are orthogonal to every (even) profile
        x = grid.axis_coords[0]
        odd = x * np.exp(-0.5 * x**2) * (1.0 + 0.5j)
        return FieldState(grid, odd, 0.3j * odd), rho, pot, spec, omegas
    if name == "on_manifold":
        return build_solitary(rho, pot, 0.37, 2.1).state_at(4.2), rho, pot, spec, omegas
    if name == "degree_3":
        # one, two or no amplitude roots depending on omega
        pot3 = PolynomialPotential((-0.08, -0.1, 0.1))
        wave = build_solitary(rho, pot3, -0.75, 0.9, root_index=1)
        return _perturbed(wave, 5, 0.1), rho, pot3, spec, omegas
    if name == "no_roots":
        # s(omega) > 0 and alpha > 0 on the gap: no omega has an amplitude root
        state = _perturbed(build_solitary(rho, pot, 0.37, 1.3), 6, 0.3)
        return state, rho, PolynomialPotential((0.5, 1.0)), spec, omegas
    if name == "three_dim":
        # the 4096 points of this grid lie on 151 shells of equal |xi|^2
        grid3 = make_grid(3, 16, 16.0)
        rho3 = CouplingProfile.gaussian(grid3, amplitude=2.0, width=1.0)
        state = _perturbed(build_solitary(rho3, pot, 0.45, 0.4), 8, 0.3)
        return state, rho3, pot, SeminormSpec(0.5, 3.0, 3.0), omegas
    if name == "anisotropic_2d":
        rho_a = _anisotropic_rho()
        state = _perturbed(build_solitary(rho_a, pot, 0.45, 0.4), 9, 0.3)
        return state, rho_a, pot, SeminormSpec(0.5, 6.0, 4.0), omegas
    if name == "one_sided":
        # no candidate has a mirror -omega
        state = _perturbed(build_solitary(rho, pot, 0.37, 1.3), 1, 0.3)
        return state, rho, pot, spec, np.linspace(0.05, 0.95, 37)
    if name == "empty_grid":
        state = build_solitary(rho, pot, 0.37, 1.3).initial_state()
        return state, rho, pot, spec, np.array([])
    raise KeyError(name)


@pytest.mark.parametrize("case", [
    "windowed", "cutoff_disabled", "global_norm", "two_dim", "embedded", "zero_wins",
    "on_manifold", "degree_3", "no_roots", "empty_grid", "embedded_nonzero_s", "three_dim",
    "anisotropic_2d", "one_sided",
])
def test_manifold_table_matches_per_candidate_route(grid, rho, pot, case):
    state, rho_c, pot_c, spec, omegas = _table_case(case, grid, rho, pot)
    table = ManifoldTable(rho_c, pot_c, spec, omegas)
    d, best = table.distance(state)
    ref_sq, ref_best, state_sq = reference_distance(state, rho_c, pot_c, spec, omegas)
    # compared squared: near d = 0 the square root amplifies roundoff
    assert abs(d * d - ref_sq) <= 1e-12 * state_sq
    assert (best is None) == (ref_best is None)
    if case == "embedded":
        # the state is real, so +-omega tie and the reference's sign is
        # roundoff's pick; the table takes omega >= 0
        assert best >= 0
        ref_best = abs(ref_best)
    if best is not None:
        assert abs(best - ref_best) <= 1e-6
    if case in ("zero_wins", "no_roots", "empty_grid"):
        assert best is None and d == pytest.approx(np.sqrt(state_sq), rel=1e-12)
    if case == "on_manifold":
        assert best == pytest.approx(0.37, abs=1e-4)
    if case == "three_dim":
        assert 20 * state.grid.shells[0].size < state.grid.num_points
    if case == "degree_3":
        assert {len(r) for r in table.roots} == {0, 1, 2}
    if case == "no_roots":
        assert not any(table.roots)
    embedded = np.flatnonzero(np.abs(omegas) > 1.0)
    if case == "embedded":
        assert embedded.size == 2
        assert not any(table.roots[k] for k in embedded)
    if case == "embedded_nonzero_s":
        # the embedded candidates use the protected resolvent terms
        psi_w, pi_w = _windowed_weighted_hats(state, spec, 1.0)
        for k in embedded:
            assert len(table.roots[k]) == 1
            ref_base, _ = reference_candidate(state.grid, rho_c, spec, float(omegas[k]),
                                              psi_w, pi_w)
            assert table.base_sq[k] == pytest.approx(ref_base, rel=1e-12)


def _shells_above_roundoff(rho):
    """The shells holding a mode with |rho_hat| > eps max |rho_hat|, mode by mode."""
    size = np.abs(rho.rho_hat.ravel())
    index = rho.grid.shells[1]
    return sorted({int(index[k]) for k in np.flatnonzero(size > np.finfo(float).eps * size.max())})


@pytest.mark.parametrize("case", ["distance_defaults", "anisotropic_2d"])
def test_table_sums_over_the_coupled_shells(pot, case):
    """The table's shells are exactly those that hold a mode above eps max |rho_hat|."""
    if case == "distance_defaults":
        cfg = config_from_dict({"experiment": "distance"})
        rho = cfg.build_rho(cfg.build_grid())
        spec = SeminormSpec(0.5, 8.0, 8.0)
    else:
        rho = _anisotropic_rho()
        spec = SeminormSpec(0.5, 6.0, 4.0)
    k2, index = rho.grid.shells
    expected = _shells_above_roundoff(rho)
    assert rho.coupled_shells.tolist() == expected
    table = ManifoldTable(rho, pot, spec)
    assert table._k2.tolist() == k2[expected].tolist()
    assert table._mass.tolist() == rho.shell_mass[expected].tolist()
    if case == "distance_defaults":
        assert (len(expected), k2.size) == (173, 1025)
    else:
        # some coupled shells also hold modes at roundoff, and some shells hold only those
        above = np.abs(rho.rho_hat.ravel()) > np.finfo(float).eps * rho.max_abs_hat
        mixed = np.flatnonzero(np.bincount(index, ~above, k2.size)[expected])
        assert (mixed.size, len(expected), k2.size) == (91, 378, 520)


def test_mirrored_candidates_share_one_profile(grid, rho, pot, monkeypatch):
    """On the default grid the 201 candidates take 101 profiles, bit-identical across +-omega."""
    rows = []
    half_inverse = Grid.half_inverse

    def counted(self, half, out=None):
        rows.append(half.size // int(np.prod(self.half_shape)))
        return half_inverse(self, half, out)

    monkeypatch.setattr(Grid, "half_inverse", counted)
    omegas = default_omega_grid(1.0)
    table = ManifoldTable(rho, pot, SeminormSpec(0.5, 8.0, 8.0), omegas)
    assert table._admissible.size == omegas.size == 201
    assert sum(rows) == np.unique(omegas * omegas).size == 101
    mirror = omegas[::-1]
    assert np.array_equal(mirror, -omegas)
    assert table.base_sq.tobytes() == table.base_sq[::-1].tobytes()
    assert all(np.array(a).tobytes() == np.array(b).tobytes()
               for a, b in zip(table.roots, table.roots[::-1]))


def test_table_builds_its_reciprocal_rows_once(grid, rho, pot, monkeypatch):
    """One block of reciprocal rows, built at construction, serves s, the profiles and the scan."""
    calls = []
    reciprocals = mfkg.solitary._reciprocals

    def counted(k2, omegas, m):
        calls.append(omegas.size)
        return reciprocals(k2, omegas, m)

    monkeypatch.setattr(mfkg.solitary, "_reciprocals", counted)
    table = ManifoldTable(rho, pot, SeminormSpec(0.5, 8.0, 8.0))
    assert calls == [101]
    assert table._recip.shape == (101, table._k2.size)
    # the zero wave wins, so no polish runs: the scan reads the stored block alone
    assert table.distance(zero_state(grid)) == (0.0, None)
    assert calls == [101]


def test_best_omega_of_a_real_state_is_nonnegative():
    # the counterexample's exact states are real: S(-omega) = conj S(omega)
    # ties every candidate with its mirror, at any global phase
    sol = build_counterexample(2.0, -1.0, make_grid(1, 1024, 64.0))
    pot, spec = sol.potential(), SeminormSpec(0.5, 8.0, 8.0)
    omegas = default_omega_grid(1.0, zeros=(2.0,))
    table = ManifoldTable(sol.rho, pot, spec, omegas)
    # one-sided tables see no mirrors, so they measure each side as it stands
    side = omegas[omegas <= 1e-12]
    sides = [ManifoldTable(sol.rho, pot, spec, w) for w in (side, -side)]
    for t in (0.3, 0.7, 1.1, 2.5, 4.0):
        for theta in np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False):
            state = sol.exact_state(t).rotated(theta)
            d, best = table.distance(state)
            assert best is None or best >= 0
            (d_neg, best_neg), (d_pos, best_pos) = (s.distance(state) for s in sides)
            assert (best is None) == (best_neg is None) == (best_pos is None)
            assert d == pytest.approx(min(d_neg, d_pos), rel=1e-12)


@pytest.mark.parametrize("dim, points, length", [(1, 256, 64.0), (2, 32, 16.0), (3, 16, 16.0)])
@pytest.mark.parametrize("windowed", [True, False])
def test_half_spectrum_base_sq_matches_complex_route(pot, dim, points, length, windowed):
    """||S||^2 from the real profiles' half spectra equals the complex round trip of each profile."""
    grid = make_grid(dim, points, length)
    rho = CouplingProfile.gaussian(grid, amplitude=2.0, width=1.0)
    spec = SeminormSpec(0.5, 3.0, 3.0) if windowed else None
    omegas = np.linspace(-0.9, 0.9, 7)
    table = ManifoldTable(rho, pot, spec, omegas)
    assert table._admissible.size == omegas.size
    zero = np.zeros(grid.shape, dtype=complex)
    for omega, base_sq in zip(omegas, table.base_sq):
        ref, _ = reference_candidate(grid, rho, spec, float(omega), zero, zero)
        assert abs(base_sq - ref) <= 1e-13 * ref


def test_profile_norms_in_chunk_buffers_allocate_no_chunk_sized_array():
    """A chunk of 16 windowed profiles at N = 2048 runs in its buffers.

    Its half spectra take 262 KiB; the round trip may allocate only what a
    row takes (a real row cast to complex is 16 KiB).
    """
    inputs, _ = _distance_run()
    table = ManifoldTable(*inputs)
    w = table.omegas[:16]
    recip = mfkg.solitary._reciprocals(table._k2, w, 1.0)
    buffers = table._chunk_buffers(16)
    want = table._profile_norms(recip, w, buffers)
    tracemalloc.start()
    try:
        got = table._profile_norms(recip, w, buffers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak < 32 * 1024


def test_the_scans_of_a_call_run_in_one_pair_of_fields(monkeypatch):
    """At the ``distance`` defaults every scan of a call runs in the call's fields.

    They are one complex (2, 2048) pair, 64 KiB, made once per call; each
    scan then allocates under twice their size, where a scan that took
    fresh temporaries allocated 354 KiB.  The distances keep their bits.
    """
    inputs, taken = _distance_run()
    table = ManifoldTable(*inputs)
    want = table.distances(taken)
    seen, peaks, scan = [], [], ManifoldTable._scan

    def measured(self, state, fields):
        seen.append(fields)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = scan(self, state, fields)
        peaks.append(tracemalloc.get_traced_memory()[1] - held)
        return result

    monkeypatch.setattr(ManifoldTable, "_scan", measured)
    tracemalloc.start()
    try:
        got = table.distances(taken)
    finally:
        tracemalloc.stop()
    assert len(seen) == len(taken) == 17 and all(fields is seen[0] for fields in seen)
    assert seen[0].shape == (2, 2048) and seen[0].dtype == complex
    assert max(peaks) < 2 * seen[0].nbytes
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    assert got[2] == want[2]


def test_designed_zero_of_s_admits_no_wave():
    # at the counterexample's omega1 the lattice sum is roundoff of a designed zero
    sol = build_counterexample(2.0, -1.0, make_grid(1, 1024, 64.0))
    assert resolvent_coupling(sol.rho, 2.0) == 0.0
    with pytest.raises(ValueError, match="s = 0"):
        build_solitary(sol.rho, sol.potential(), 2.0)


def _counted(func):
    """func wrapped to count its evaluations in calls[0]."""
    calls = [0]

    def wrapped(x):
        calls[0] += 1
        return func(x)
    return wrapped, calls


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _staircase(c, k):
    """Uneven steps around c: ties between evaluations, and parabolic steps of length zero."""
    return lambda w: float(np.ceil(k * (w - c))) if w > c else float(np.ceil(k * (c - w))) / 2


def _polish_of_a_table(rho, pot, monkeypatch):
    """(f, lo, hi, xatol) of the one search that ManifoldTable.distance polishes.

    f reads back the value the table sent the search at each frequency it
    asked for, so a search that asks for any other frequency fails.
    """
    seen, values = [], {}
    steps = mfkg.solitary._brent_steps

    def spy(lo, hi, xatol):
        seen.append((lo, hi, xatol))
        search = steps(lo, hi, xatol)
        x = next(search)
        while True:
            values[x] = fx = yield x
            try:
                x = search.send(fx)
            except StopIteration as done:
                return done.value

    monkeypatch.setattr(mfkg.solitary, "_brent_steps", spy)
    state = _perturbed(build_solitary(rho, pot, 0.37, 1.3), 1, 0.3)
    _, best = ManifoldTable(rho, pot, SeminormSpec(0.5, 8.0, 8.0)).distance(state)
    assert abs(best) < 1.0 and len(seen) == 1 and values
    return (values.__getitem__, *seen[0])


# inf - inf in a parabolic step warns in scipy as in its in-package twin
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("case", [
    "quadratic", "table", "inf_part", "endpoint", "constant", "narrow", "cap",
    "staircase_ties", "staircase_zero_step",
])
def test_bounded_brent_matches_scipy_bit_for_bit(rho, pot, monkeypatch, case):
    """The in-package polish repeats minimize_scalar(method="bounded") exactly."""
    cases = {
        "quadratic": (lambda w: (w - 0.3) ** 2 + 1.0, -1.0, 1.0, 1e-6),
        # dist_sq_at is inf where omega has no amplitude root
        "inf_part": (lambda w: np.inf if w < 0.1 else (w - 0.35) ** 2, -1.0, 1.0, 1e-6),
        "endpoint": (lambda w: 2.0 * w + 1.0, 0.2, 0.9, 1e-6),
        "constant": (lambda w: 2.5, -0.5, 0.5, 1e-6),
        "narrow": (lambda w: (w - 0.3) ** 2, 0.3, 0.3 + 1e-7, 1e-6),
        "cap": (lambda w: w * w, -1.0, 1.0, 0.0),
        "staircase_ties": (_staircase(-0.9, 1000.0), -1.0, 1.0, 1e-6),
        "staircase_zero_step": (_staircase(-0.75, 16.0), -1.0, 1.0, 1e-6),
    }
    if case == "table":
        func, lo, hi, xatol = _polish_of_a_table(rho, pot, monkeypatch)
    else:
        func, lo, hi, xatol = cases[case]
    ours, our_calls = _counted(func)
    theirs, their_calls = _counted(func)
    x, fun = _bounded_brent(ours, lo, hi, xatol)
    res = minimize_scalar(theirs, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    assert _same_bits(x, res.x) and _same_bits(fun, res.fun)
    assert our_calls[0] == their_calls[0] == res.nfev
    if case == "cap":
        assert res.nfev == 500 and res.status == 1
    if case == "endpoint":
        assert x - lo < 1e-5


def test_polish_past_the_amplitude_roots_warns_nothing(pot):
    """A polish bracket that reaches frequencies without an amplitude root stays silent."""
    grid = make_grid(1, 256, 64.0)
    rho = CouplingProfile.gaussian(grid, 0.6, 1.0)
    table = ManifoldTable(rho, pot, SeminormSpec(0.5, 8.0, 8.0))
    admissible = table.omegas[table._admissible]
    omega = admissible[admissible > 0][0]  # no amplitude root just below it
    state = build_solitary(rho, pot, omega).initial_state()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        d, best = table.distance(state)
    assert d < 1e-6 and abs(best - omega) < 1e-6


def _distance_bits(result):
    d, best = result
    return np.float64(d).tobytes(), None if best is None else np.float64(best).tobytes()


def test_manifold_distance_builds_each_table_once(grid, rho, pot, monkeypatch):
    """Repeated inputs share one table; any changed input, or a new equal rho, builds anew."""
    builds = []
    init = ManifoldTable.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    spec = SeminormSpec(0.5, 8.0, 8.0)
    state = _perturbed(build_solitary(rho, pot, 0.37, 1.3), 1, 0.3)
    fresh = _distance_bits(ManifoldTable(rho, pot, spec).distance(state))
    mfkg.solitary._manifold_table.cache_clear()
    monkeypatch.setattr(ManifoldTable, "__init__", counted)
    first = manifold_distance(state, rho, pot, spec)
    second = manifold_distance(state, rho, pot, spec)
    assert len(builds) == 1
    assert _distance_bits(first) == _distance_bits(second) == fresh and first[1] is not None
    # equal values hit the same table: the potential and spec by value, the omega grid as floats
    manifold_distance(state, rho, PolynomialPotential((-1, 1)), SeminormSpec(0.5, 8, 8),
                      list(default_omega_grid(1.0)), 1.0)
    assert len(builds) == 1
    for changed in (
        dict(spec=SeminormSpec(0.0, 8.0, 8.0)),
        dict(omega_grid=default_omega_grid(1.0, count=101)),
        dict(m=1.2),
        dict(rho=CouplingProfile.from_values(grid, rho.values)),
    ):
        count = len(builds)
        args = dict(rho=rho, pot=pot, spec=spec) | changed
        manifold_distance(state, **args)
        assert len(builds) == count + 1, changed


def test_distance_leaves_the_table_unchanged(grid, rho, pot):
    """distance and distances leave every attribute of the table as its build left it.

    So a shared table answers every caller alike, with a fresh table's bits.
    """
    table = ManifoldTable(rho, pot, SeminormSpec(0.5, 8.0, 8.0))
    before = dict(vars(table))
    # the mutable attributes' contents; every other attribute is immutable
    copies = {name: copy.deepcopy(value) for name, value in before.items()
              if isinstance(value, (np.ndarray, dict, list, set))}
    states = [_perturbed(build_solitary(rho, pot, w, 0.4), seed, 0.3)
              for seed, w in ((1, 0.37), (2, -0.6))] + [zero_state(grid)]
    results = [_distance_bits(table.distance(s)) for s in states]
    _, dists, best = table.distances(states)
    assert [_distance_bits(r) for r in zip(dists, best)] == results
    assert sum(b is not None for b in best) == 2
    assert vars(table).keys() == before.keys()
    for name, value in vars(table).items():
        assert value is before[name], name
        if isinstance(value, np.ndarray):
            assert value.dtype == copies[name].dtype, name
            assert value.tobytes() == copies[name].tobytes(), name
        elif name in copies:
            assert value == copies[name], name
    fresh = ManifoldTable(rho, pot, SeminormSpec(0.5, 8.0, 8.0))
    assert [_distance_bits(fresh.distance(s)) for s in states] == results


@pytest.mark.parametrize("spec", [SeminormSpec(0.5, 8.0, 8.0), None])
def test_polish_route_gives_the_tables_bits_on_grid_frequencies(rho, pot, spec):
    """At a grid frequency the polish's routine gives the table's roots and base_sq bit for bit.

    One row at a time and all rows in one call, so the build and the polish
    compute a frequency's data alike, whichever frequencies are beside it.
    """
    table = ManifoldTable(rho, pot, spec)
    omegas = table.omegas
    assert table._admissible.size == omegas.size
    recip = mfkg.solitary._reciprocals(table._k2, omegas, 1.0)
    roots, norms = table._roots_and_norms(recip, omegas, table._chunk_buffers(table._chunk))
    assert roots == list(table.roots) and norms.tobytes() == table.base_sq.tobytes()
    one = table._chunk_buffers(1)
    for j in range(0, omegas.size, 20):
        roots, norms = table._roots_and_norms(recip[j: j + 1], omegas[j: j + 1], one)
        assert roots == [table.roots[j]] and _same_bits(norms[0], table.base_sq[j])


def _distance_run():
    """The table and the snapshots of ``mfkg distance`` at its defaults."""
    from mfkg.cli import _distance_spec, _run_inputs
    from mfkg.dynamics import _sample_count, snapshots

    cfg = config_from_dict({"experiment": "distance"})
    state, rho, pot, integ, T = _run_inputs(cfg)
    spec, _, omegas = _distance_spec(cfg)
    taken = list(snapshots(state, rho, pot, integ, T, _sample_count(integ, T) // 16, cfg.m))
    return (rho, pot, spec, omegas, cfg.m), taken


def _counting_misses(table):
    """The polish frequencies that ``table`` computes, the build's excluded.

    Returns (misses, batches): every frequency in the order computed, and
    the number of frequencies of each batched call, one per lockstep round.
    """
    misses, batches, roots_and_norms = [], [], table._roots_and_norms

    def counted(recip, w, buffers):
        misses.extend(w.tolist())
        batches.append(w.size)
        return roots_and_norms(recip, w, buffers)

    table._roots_and_norms = counted
    return misses, batches


def test_a_dropped_table_is_freed_without_the_collector(rho, pot):
    """A table holds no reference cycle after a polish, so del frees it at once."""
    table = ManifoldTable(rho, pot, SeminormSpec(0.5, 8.0, 8.0))
    _, best = table.distance(_perturbed(build_solitary(rho, pot, 0.37, 1.3), 1, 0.3))
    assert best is not None
    ref = weakref.ref(table)
    gc.disable()
    try:
        del table
        assert ref() is None
    finally:
        gc.enable()


def _dense_2d_distance_run():
    """The table inputs and a snapshot-run maker of ``mfkg distance`` on a 2-D 64^2 grid.

    T = 10 with a snapshot every 2 samples: 51 snapshots.
    """
    from mfkg.cli import _distance_spec, _run_inputs
    from mfkg.dynamics import snapshots

    cfg = config_from_dict({"experiment": "distance",
                            "grid": {"dim": 2, "points": 64, "length": 64.0},
                            "evolve": {"T": 10.0, "snapshot_stride": 2}})
    state, rho, pot, integ, T = _run_inputs(cfg)
    spec, _, omegas = _distance_spec(cfg)
    return (rho, pot, spec, omegas, cfg.m), lambda: snapshots(state, rho, pot, integ, T, 2, cfg.m)


def test_distances_hold_one_streamed_snapshot_at_a_time(monkeypatch):
    """The snapshot run streams into the table: each snapshot is dropped once measured."""
    inputs, run = _dense_2d_distance_run()
    table = ManifoldTable(*inputs)
    made, alive = [], []
    post_init, scan = FieldState.__post_init__, ManifoldTable._scan

    def tracked(state):
        post_init(state)
        made.append(weakref.ref(state))

    def counted(self, state, fields):
        alive.append(sum(ref() is not None for ref in made))
        return scan(self, state, fields)

    monkeypatch.setattr(FieldState, "__post_init__", tracked)
    monkeypatch.setattr(ManifoldTable, "_scan", counted)
    times, _, _ = table.distances(run())
    # a list of the whole run would hold all 51 at the first distance
    assert len(times) == len(alive) == len(made) == 51
    assert max(alive) <= 2


def test_streamed_distances_are_the_listed_ones_bit_for_bit():
    inputs, run = _dense_2d_distance_run()
    times, dists, best = ManifoldTable(*inputs).distances(run())
    want_times, want_dists, want_best = ManifoldTable(*inputs).distances(list(run()))
    assert times.tobytes() == want_times.tobytes() and dists.tobytes() == want_dists.tobytes()
    assert best == want_best and len(best) == 51


@pytest.mark.parametrize("variant", ["plain", "groups_of_3"])
@pytest.mark.parametrize("run", ["defaults", "dense_2d"])
def test_lockstep_distances_are_the_single_snapshot_ones_bit_for_bit(monkeypatch, run, variant):
    """A run polished in lockstep gives each snapshot's lockstep of one, bit for bit.

    Groups of 3 snapshots split the run into several locksteps.
    """
    if run == "defaults":
        inputs, taken = _distance_run()
    else:
        inputs, make = _dense_2d_distance_run()
        taken = list(make())
    table = ManifoldTable(*inputs)
    _, batches = _counting_misses(table)
    if variant == "groups_of_3":
        monkeypatch.setattr(mfkg.solitary, "_POLISH_ENTRIES", 3 * 4 * table._k2.size)
    times, dists, best = table.distances(taken)
    single = ManifoldTable(*inputs)
    want = [_distance_bits(single.distance(snap)) for snap in taken]
    assert [_distance_bits(r) for r in zip(dists, best)] == want
    assert times.tobytes() == np.array([snap.time for snap in taken]).tobytes()
    # a lockstep round computes several frequencies at once
    assert max(batches) > 1 and sum(b is not None for b in best) > 2


def test_copies_of_one_snapshot_add_no_miss():
    """Searches that ask for one frequency in a round compute it once."""
    inputs, taken = _distance_run()
    snap = taken[-1]
    copy = FieldState(snap.grid, snap.psi, snap.pi, snap.time)
    one, two = ManifoldTable(*inputs), ManifoldTable(*inputs)
    (misses_one, _), (misses_two, _) = _counting_misses(one), _counting_misses(two)
    _, d_one, best_one = one.distances([snap])
    _, d_two, best_two = two.distances([snap, copy])
    assert best_one[0] is not None and abs(best_one[0]) < 1.0 and misses_one
    assert misses_two == misses_one
    assert d_two.tobytes() == np.repeat(d_one, 2).tobytes() and best_two == best_one * 2
