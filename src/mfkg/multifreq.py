"""Exactly solvable two-frequency solutions: attraction's failure mode.

If the coupling spectrum vanishes on the resonant shell of an embedded
frequency omega1 > m, the dispersive channel at omega1 is switched off and
the field can oscillate there forever.  This module builds such couplings
and, for omega1 = 3 omega0 with a cubic force, the closed-form solution

    psi(t) = phi0 sin(omega0 t) + phi1 sin(omega1 t),

whose coupling trace gamma(t) = sigma0 sin(omega0 t) is a pure tone: the
cubic nonlinearity converts it to forcing at omega0 and 3 omega0 = omega1,
and the phi1 component rides the dead channel.  Nothing decays, so the
trajectory stays a bounded distance from every single-frequency wave.

The coupling ansatz is rho_hat = (|xi|^2 - k1^2)(g1 + lambda g2) with two
radial Gaussians, g1 concentrated inside the shell and g2 outside; the zero
of sigma(omega1) in lambda then exists by a sign bracket and is the root of
an exact quadratic.  All identities are imposed on the lattice sums, so the
solution is exact for the discrete system up to time discretization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Integrator, _sample_count, _ShellCore
from .fields import CouplingProfile, FieldState
from .grid import Grid
from .potential import PolynomialPotential
from .solitary import resolvent_coupling, resolvent_profile
from .spectral import MIN_WINDOW_SAMPLES, concentration_ratio, windowed_spectrum

__all__ = [
    "TwoFrequencySolution",
    "PersistenceReport",
    "auto_widths",
    "build_rho",
    "build_multifreq",
    "build_counterexample",
    "verify_persistence",
]


def auto_widths(k1: float) -> tuple[float, float]:
    """Gaussian widths (inner, outer) in wavenumber units for a shell at k1.

    The inner width stays below 0.7 k1 so g1's mass sits inside the shell;
    the outer is at least 1.6 k1 so g2's mass sits outside.  These brackets
    force the sign pattern that guarantees a mixing zero.
    """
    return min(1.0, 0.7 * k1), max(3.0, 1.6 * k1)


def _mixed_coupling(
    omega1: float,
    grid: Grid,
    m: float,
    sigma0_target: float,
) -> tuple[CouplingProfile, float]:
    """The coupling of :func:`build_rho` and its mixing lambda."""
    if not m < omega1 < 3.0 * m:
        raise ValueError("omega1 must lie strictly between m and 3m")
    k1 = math.sqrt(omega1 * omega1 - m * m)
    tau1, tau2 = auto_widths(k1)
    if grid.nyquist < max(4.0 * tau2, 2.0 * k1):
        raise ValueError(
            f"grid bandwidth {grid.nyquist:g} too small for spectral widths "
            f"({tau1:g}, {tau2:g}) and shell {k1:g}"
        )
    k_sq = grid.k_squared
    base = k_sq - k1 * k1
    g1 = np.exp(-k_sq / (2.0 * tau1 * tau1))
    g2 = np.exp(-k_sq / (2.0 * tau2 * tau2))
    vol = grid.box_length**grid.dim
    # sigma(omega1; lambda) = I11 + 2 lambda I12 + lambda^2 I22 exactly
    i11 = float(np.sum(base * g1 * g1) / vol)
    i12 = float(np.sum(base * g1 * g2) / vol)
    i22 = float(np.sum(base * g2 * g2) / vol)
    if not (i11 < 0.0 < i22):
        raise ValueError(
            "spectral widths do not bracket the shell: need the inner Gaussian "
            f"inside |xi| = {k1:g} and the outer one outside (got I11={i11:g}, I22={i22:g})"
        )
    disc = math.sqrt(i12 * i12 - i11 * i22)
    q = -(i12 + math.copysign(disc, i12))
    lam = i11 / q if i12 > 0 else q / i22
    residual = i11 + 2.0 * lam * i12 + lam * lam * i22
    if abs(residual) > 1e-10 * (abs(i11) + abs(i22)):
        raise RuntimeError(f"mixing root failed to zero the shell sum (residual {residual:g})")

    shape = base * (g1 + lam * g2)
    omega0 = omega1 / 3.0
    sigma0_raw = float(np.sum(shape * shape / (k_sq + m * m - omega0 * omega0)) / vol)
    if sigma0_target <= 0:
        raise ValueError("sigma0_target must be positive")
    kappa = math.sqrt(sigma0_target / sigma0_raw)
    return CouplingProfile.from_spectrum(grid, (kappa * shape).astype(complex)), lam


def build_rho(
    omega1: float,
    grid: Grid,
    m: float = 1.0,
    sigma0_target: float = 1.0,
) -> CouplingProfile:
    """A real, even coupling whose resolvent trace vanishes at omega1.

    Normalized so sigma(omega1 / 3) = sigma0_target, which sets the amplitude
    scale of the two-frequency solution (matching the force scale keeps the
    resulting dynamics comfortably non-stiff).
    """
    return _mixed_coupling(omega1, grid, m, sigma0_target)[0]


@dataclass(eq=False)
class TwoFrequencySolution:
    """The closed-form two-tone solution and everything needed to evolve it."""

    rho: CouplingProfile
    omega1: float
    omega0: float
    b: float
    linear_coeff: float
    sigma0: float
    phi0: np.ndarray
    phi1: np.ndarray
    m: float
    mixing: float | None = None

    def potential(self) -> PolynomialPotential:
        # alpha(r) = a + b r corresponds to u = (-a/2, -b/4)
        return PolynomialPotential((-self.linear_coeff / 2.0, -self.b / 4.0))

    def exact_psi(self, t: float) -> np.ndarray:
        return self.phi0 * math.sin(self.omega0 * t) + self.phi1 * math.sin(self.omega1 * t)

    def exact_state(self, t: float) -> FieldState:
        pi = self.omega0 * math.cos(self.omega0 * t) * self.phi0 + self.omega1 * math.cos(
            self.omega1 * t
        ) * self.phi1
        return FieldState(self.rho.grid, self.exact_psi(t), pi, t)

    def initial_state(self) -> FieldState:
        return self.exact_state(0.0)

    def gamma_exact(self, times) -> np.ndarray:
        return self.sigma0 * np.sin(self.omega0 * np.asarray(times, dtype=float))


def build_multifreq(
    rho: CouplingProfile,
    omega1: float,
    b: float,
    m: float = 1.0,
) -> TwoFrequencySolution:
    """Assemble the two-frequency solution on a coupling with sigma(omega1) = 0.

    Works for any admissible coupling, not only those from :func:`build_rho`;
    raises if the coupling does not actually vanish on the resonant shell or
    if its trace at omega1 exceeds 1e-8 max(1, |sigma(omega1 / 3)|).  ``b``
    must be negative so the force derives from a confining quartic.
    """
    if b >= 0:
        raise ValueError("b must be negative (the quartic coefficient is -b/4)")
    omega0 = omega1 / 3.0
    if not 0 < omega0 < m:
        raise ValueError("omega1 must lie in (m, 3m) so omega1/3 is below the spectral gap")
    sigma1 = resolvent_coupling(rho, omega1, m)  # validates the shell condition
    sigma0 = resolvent_coupling(rho, omega0, m)
    if abs(sigma1) > 1e-8 * max(1.0, abs(sigma0)):
        raise ValueError(
            f"sigma(omega1) = {sigma1:g} does not vanish; mix the coupling first "
            "(see build_rho)"
        )
    a = (1.0 - 0.75 * b * sigma0**3) / sigma0
    phi0 = resolvent_profile(rho, omega0, m)
    phi1 = -(b * sigma0**3 / 4.0) * resolvent_profile(rho, omega1, m)
    return TwoFrequencySolution(
        rho=rho,
        omega1=float(omega1),
        omega0=float(omega0),
        b=float(b),
        linear_coeff=float(a),
        sigma0=float(sigma0),
        phi0=phi0,
        phi1=phi1,
        m=float(m),
    )


def build_counterexample(
    omega1: float,
    b: float,
    grid: Grid,
    m: float = 1.0,
    sigma0_target: float = 1.0,
) -> TwoFrequencySolution:
    """Coupling plus two-frequency solution in one step."""
    rho, lam = _mixed_coupling(omega1, grid, m, sigma0_target)
    sol = build_multifreq(rho, omega1, b, m)
    sol.mixing = lam
    return sol


@dataclass(eq=False)
class PersistenceReport:
    """How faithfully the integrator tracks the closed-form two-tone solution."""

    times: np.ndarray
    gamma: np.ndarray
    max_relative_error: float
    gamma_error: float
    force_peaks: tuple[float, float]
    force_concentration: float
    tol: float
    passed: bool


def _top_two_positive_peaks(freqs: np.ndarray, amps: np.ndarray):
    """The two largest positive-frequency peaks, at least 4 bins apart, ascending."""
    mass = np.abs(amps) ** 2
    mass = np.where(freqs > 0, mass, 0.0)
    k1 = int(np.argmax(mass))
    lo, hi = max(0, k1 - 3), min(mass.size, k1 + 4)
    mass2 = mass.copy()
    mass2[lo:hi] = 0.0
    k2 = int(np.argmax(mass2))
    return tuple(sorted((float(freqs[k1]), float(freqs[k2]))))


# verify_persistence copies each sample's shell pair into a held chunk of this
# many samples and computes the chunk's errors in a few vectorized calls: each
# chunk buffer is ~142 KB at the 277 coupled shells of a 1024-point grid of
# length 64.  A longer run adds chunks, not memory.
_PERSISTENCE_CHUNK = 16


def _outside_bound(core: _ShellCore, profiles: np.ndarray,
                   omegas: tuple[float, float]) -> tuple[float, float]:
    """Raw sums of squares that bound the psi and pi errors of the residual at any time.

    The residual is the state minus its shell pair: the modes outside C and,
    on each coupled shell, the part orthogonal to the shell's vector.  There
    the core's run moves from its loaded residual (psi0, pi0) by the free
    flow alone, so |psi| <= hypot(|psi0|, |pi0| / omega) and
    |pi| <= hypot(|pi0|, omega |psi0|) per mode; the exact solution of the
    raw profiles (P0, P1), given as their residual, keeps |psi| <= |P0| + |P1|
    and |pi| <= omega0 |P0| + omega1 |P1|.
    """
    omega = core.omega
    (psi0, pi0), (p0, p1) = np.abs(core.residual), np.abs(profiles)
    psi = np.hypot(psi0, pi0 / omega) + p0 + p1
    pi = np.hypot(pi0, omega * psi0) + omegas[0] * p0 + omegas[1] * p1
    return float(psi @ psi), float(pi @ pi)


def verify_persistence(
    sol: TwoFrequencySolution,
    integ: Integrator,
    T: float = 50.0,
    tol: float = 1e-3,
) -> PersistenceReport:
    """Evolve the two-tone initial data and compare against the exact solution.

    The error scale is the summed L2 size of the two profiles; both field and
    momentum errors count.  The run advances the shell pair only (one
    coordinate per coupled |xi|^2 shell), so the errors sum over the shell
    pair, against the profiles projected onto it, plus a bound on the
    residual's error fixed at set-up (:func:`_outside_bound`).  Both profiles
    are resolvent profiles, parallel to rho on every shell, so their residual
    is roundoff.  Each sample's shell pair is copied into a held chunk of
    ``_PERSISTENCE_CHUNK`` samples, whose errors are computed together at
    the chunk's end (at the run's end for a partial chunk): the exact pairs
    as one product of the samples' stacked 2 x 2 sin / cos matrices with the
    profiles' float64 view (2, 2 shells), one subtraction and one row-wise
    sum of squares.  The error grows with the sums, so the run keeps only
    their largest psi and pi values (a NaN among them fails the check).  The
    times, gammas and forces go into arrays of the run's sample count, and
    the gamma error is taken once, over the run's gammas (NaN if a gamma is).
    Also verifies the spectral signature: the force
    trace, the F(gamma) that the core hands on with each sample's gamma,
    carries exactly two positive-frequency peaks, at omega0 and
    3 omega0, and no single peak hoards the spectral mass.
    """
    if integ.sponge is not None:
        raise ValueError("persistence tracking needs an undamped evolution")
    if not (math.isfinite(T) and math.isfinite(tol) and tol > 0):
        raise ValueError(f"T must be finite and tol finite and positive (T={T!r}, tol={tol!r})")
    count = _sample_count(integ, T)
    if count + 1 < MIN_WINDOW_SAMPLES:
        raise ValueError(f"T = {T:g} gives {count + 1} samples; the force spectrum needs "
                         f"{MIN_WINDOW_SAMPLES}")
    grid = sol.rho.grid
    pot = sol.potential()
    core = _ShellCore(grid, integ, sol.rho, pot, sol.m)
    state0 = sol.initial_state()
    core.load(state0.psi, state0.pi)
    coupled, rest = core.project(core.to_raw(sol.phi0, sol.phi1))
    rest_sq = np.array(_outside_bound(core, rest, (sol.omega0, sol.omega1)))
    # the float64 view of the (phi0, phi1) profiles' shell pair, one row each
    profiles, pair = coupled.view(np.float64), core.pair
    omegas = np.array([sol.omega0, sol.omega1])
    # a chunk's shell pairs, as float64 (psi, pi) rows sample by sample, the
    # 2 x 2 matrices of their exact pairs and those pairs, then the differences
    held = np.empty((_PERSISTENCE_CHUNK, *pair.shape), dtype=complex)
    rows = held.view(np.float64).reshape(-1, profiles.shape[1])
    coeffs = np.empty((_PERSISTENCE_CHUNK, 2, 2))
    diff = np.empty_like(rows)
    # the largest raw sums of squares of the psi and pi differences so far
    worst = np.zeros(2)
    times, gammas = np.empty(count + 1), np.empty(count + 1, dtype=complex)
    # F(gamma) as the core hands it on with each sample's gamma
    forces = np.empty(count + 1, dtype=complex)

    def add_chunk(stop: int) -> None:
        """Take the held chunk, the samples up to ``stop``, into ``worst``."""
        size = (stop - 1) % _PERSISTENCE_CHUNK + 1
        phases = np.multiply.outer(times[stop - size: stop], omegas)
        # rows (sin omega0 t, sin omega1 t) and (omega0 cos omega0 t, omega1 cos omega1 t)
        np.sin(phases, out=coeffs[:size, 0])
        np.multiply(omegas, np.cos(phases), out=coeffs[:size, 1])
        d = diff[: 2 * size]
        np.matmul(coeffs[:size].reshape(-1, 2), profiles, out=d)
        np.subtract(rows[: 2 * size], d, out=d)
        np.maximum(worst, np.vecdot(d, d).reshape(size, 2).max(axis=0), out=worst)

    for i, t in enumerate(core.samples(count, state0.time)):
        times[i], gammas[i], forces[i] = t, core.coupling(), core.force
        slot = i % _PERSISTENCE_CHUNK
        held[slot] = pair
        if slot == _PERSISTENCE_CHUNK - 1:
            add_chunk(i + 1)
    if (count + 1) % _PERSISTENCE_CHUNK:
        add_chunk(count + 1)
    # the largest error of a sample is that of the largest sums, since the
    # error grows with them; core.scale turns raw sums of squares into L2 norms
    errors = np.sqrt(core.scale * (worst + rest_sq))
    errors[1] /= sol.omega1
    scale = math.sqrt(grid.l2sq(sol.phi0)) + math.sqrt(grid.l2sq(sol.phi1))
    max_err = float(errors.max()) / scale
    gamma_err = float(np.max(np.abs(gammas - sol.sigma0 * np.sin(sol.omega0 * times)))) / sol.sigma0

    spec = windowed_spectrum(times, forces, 0.5 * (times[0] + times[-1]),
                             times[-1] - times[0] + integ.dt * integ.steps_per_sample)
    peaks = _top_two_positive_peaks(spec.freqs, spec.amps)
    conc, _ = concentration_ratio(spec, 3)
    return PersistenceReport(
        times=times,
        gamma=gammas,
        max_relative_error=max_err,
        gamma_error=gamma_err,
        force_peaks=peaks,
        force_concentration=conc,
        tol=tol,
        passed=max_err <= tol,
    )
