"""Time evolution by Strang splitting with exact sub-flows.

The equation of motion splits into two pieces that are each integrable in
closed form:

* the free Klein-Gordon flow, diagonal per Fourier mode with frequency
  omega_xi = sqrt(|xi|^2 + m^2): a rotation of (psi_hat, pi_hat);
* the mean-field kick pi += tau rho(x) F(<rho, psi>), exact for any tau
  because psi (and hence the coupling amplitude) is frozen during it.

A step composes half-kick, free flow, half-kick; the only time-stepping
error is the O(dt^2) non-commutativity of the two flows.  The scheme is
time-symmetric, preserves the U(1) charge exactly, and keeps the energy
oscillating within an O(dt^2) band instead of drifting.

An optional absorbing sponge damps both fields multiplicatively outside an
inner radius, emulating radiation to infinity on the periodic box.

All stepping (:func:`step`, :func:`evolve`, :func:`split_chi_phi` and
``multifreq.verify_persistence``) goes through one private core,
:class:`_StrangCore`.  It keeps states in raw FFT coordinates: one complex
array of shape ``(..., 2, *grid.shape)`` holding the plain ``scipy.fft.fftn``
of (psi, pi), without the checkerboard and cell-volume factors of
:meth:`Grid.forward`.  Those factors are per-mode scalars, so the flow
tables do not see them; they are folded once, at set-up, into the kick
vector and into the pairing vector that reads gamma off raw psi.  Leading
axes stack systems that share one drive: split_chi_phi advances the full
solution, chi and phi as one (3, 2, ...) array.  With a sponge a step ends
with one stacked inverse transform, the damping multiply and one stacked
forward transform, and samples read the damped position-space fields that
this leaves behind.  The flow and the damping multiply the float64 view of
the state by interleaved real tables, and the kicks take the scalar force
from :meth:`PolynomialPotential.scalar_force`.  :func:`free_flow` and
:func:`kick` remain single applications on the :meth:`Grid.forward` path,
independent of the core.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil

import numpy as np
import scipy.fft

from .fields import (
    CouplingProfile,
    FieldState,
    SeminormSpec,
    inner_product,
    local_seminorm,
    require_same_grid,
)
from .grid import Grid
from .potential import PolynomialPotential

__all__ = [
    "Sponge",
    "Integrator",
    "Observers",
    "Trajectory",
    "free_flow",
    "kick",
    "step",
    "evolve",
    "split_chi_phi",
]


@dataclass(frozen=True)
class Sponge:
    """Absorbing layer: smooth damping ramp from inner_radius out to the box edge."""

    inner_radius: float
    strength: float = 1.0

    def __post_init__(self) -> None:
        if self.inner_radius <= 0:
            raise ValueError("sponge inner_radius must be positive")
        if self.strength < 0:
            raise ValueError("sponge strength must be nonnegative")

    def rate(self, grid: Grid) -> np.ndarray:
        """Damping rate sigma(x): 0 inside, smooth raised-cosine ramp to ``strength``."""
        half = 0.5 * grid.box_length
        if self.inner_radius >= half:
            raise ValueError("sponge inner_radius must be smaller than half the box")
        s = np.clip((grid.radius - self.inner_radius) / (half - self.inner_radius), 0.0, 1.0)
        return self.strength * np.sin(0.5 * np.pi * s) ** 2


@dataclass(frozen=True)
class Integrator:
    dt: float
    steps_per_sample: int = 1
    sponge: Sponge | None = None

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps_per_sample < 1:
            raise ValueError("steps_per_sample must be at least 1")


@dataclass(frozen=True)
class Observers:
    """What to record along a trajectory besides gamma, f, H, Q.

    Seminorm series are keyed by :attr:`SeminormSpec.label`, so the specs
    must have distinct radii.
    """

    seminorm_specs: tuple[SeminormSpec, ...] = ()
    snapshot_stride: int = 0  # in samples; 0 disables snapshots

    def __post_init__(self) -> None:
        labels = [spec.label for spec in self.seminorm_specs]
        for label in labels:
            if labels.count(label) > 1:
                raise ValueError(
                    f"two seminorm specs share the series label {label!r}; "
                    "give each a distinct radius"
                )


@dataclass(eq=False)
class Trajectory:
    """Uniformly sampled observables of one run."""

    times: np.ndarray
    gamma: np.ndarray
    force: np.ndarray
    energy: np.ndarray
    charge: np.ndarray
    seminorms: dict[str, np.ndarray]
    snapshots: list[FieldState]
    dt: float
    steps_per_sample: int
    m: float
    sponge: Sponge | None = None

    @property
    def sample_dt(self) -> float:
        return self.dt * self.steps_per_sample


def _check_step_size(grid: Grid, integ: Integrator) -> None:
    if integ.dt >= grid.spacing:
        raise ValueError(
            f"dt={integ.dt} must stay below the grid spacing {grid.spacing} "
            "(unit-speed propagation safety margin)"
        )


def _interleaved(table: np.ndarray) -> np.ndarray:
    """A real table repeated per (re, im) slot, to act on the float64 view of a complex array.

    A real-times-complex product then needs no cast of the table to complex.
    """
    return np.repeat(table, 2, axis=-1)


@lru_cache(maxsize=16)
def _flow_tables(grid: Grid, m: float, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Interleaved tables (c, s) of the exact free flow by tau on a (psi, pi) pair.

    The flow maps the pair to c * (psi, pi) + s * (pi, psi), that is
    psi' = cos psi + (sin / omega) pi and pi' = cos pi - (omega sin) psi;
    c is the cosine alone, s stacks the two sine tables.
    """
    omega = np.sqrt(grid.k_squared + m * m)
    sin = np.sin(omega * tau)
    return _interleaved(np.cos(omega * tau)), _interleaved(np.stack((sin / omega, -omega * sin)))


@lru_cache(maxsize=16)
def _sponge_factor(grid: Grid, sponge: Sponge, dt: float) -> np.ndarray:
    """Interleaved damping factor exp(-sigma(x) dt) of one step."""
    return _interleaved(np.exp(-sponge.rate(grid) * dt))


class _StrangCore:
    """Strang steps in raw FFT coordinates (see the module docstring)."""

    def __init__(
        self,
        grid: Grid,
        integ: Integrator,
        rho: CouplingProfile | None,
        pot: PolynomialPotential | None,
        m: float,
    ) -> None:
        _check_step_size(grid, integ)
        if rho is not None and pot is None:
            raise ValueError("a potential is required when a coupling profile is present")
        self.axes = tuple(range(-grid.dim, 0))
        self.pair_axis = -1 - grid.dim
        self.cos, self.sin = _flow_tables(grid, m, integ.dt)
        self.damp = None if integ.sponge is None else _sponge_factor(grid, integ.sponge, integ.dt)
        # |psi_hat|^2 / L^n = scale |psi_raw|^2, since psi_hat = +-h^n psi_raw
        self.scale = grid.cell_volume / grid.num_points
        self.energy_weight = grid.k_squared + m * m
        self.pot = pot
        self.kick = self.pairing = None
        if rho is not None:
            rho_raw = scipy.fft.fftn(rho.values)
            # pi_hat += tau F rho_hat reads pi_raw += tau F rho_raw in raw
            # coordinates, and <rho, psi> = scale * sum conj(rho_raw) psi_raw
            self.kick = (0.5 * integ.dt) * rho_raw
            self.pairing = self.scale * rho_raw

    def to_raw(self, psi: np.ndarray, pi: np.ndarray) -> np.ndarray:
        return scipy.fft.fftn(np.stack((psi, pi)), axes=self.axes)

    def to_fields(self, raw: np.ndarray) -> np.ndarray:
        return scipy.fft.ifftn(raw, axes=self.axes)

    def coupling(self, psi: np.ndarray) -> complex:
        """gamma = <rho, psi> of one raw field."""
        return complex(np.vdot(self.pairing, psi))

    def coupling_terms(self, psi: np.ndarray) -> tuple[complex, complex, float]:
        """gamma, F(gamma) and U(gamma) of one raw field; zeros without a coupling."""
        if self.pairing is None:
            return 0j, 0j, 0.0
        g = self.coupling(psi)
        return g, self.pot.scalar_force(g), float(self.pot.value(g))

    def invariants(self, pair: np.ndarray, u_val: float) -> tuple[float, float]:
        """Global H and Q of one undamped raw pair, given U(gamma)."""
        psi, pi = pair
        quadratic = np.vdot(pi, pi).real + np.vdot(psi, self.energy_weight * psi).real
        h = 0.5 * self.scale * float(quadratic) + u_val
        q = -self.scale * float(np.vdot(psi, pi).imag)
        return h, q

    def advance(self, raw: np.ndarray, psi: np.ndarray, pi: np.ndarray, nsteps: int):
        """Take nsteps Strang steps of ``raw`` in place.

        The kicks read gamma from the raw field ``psi`` and land on the raw
        momenta ``pi``; both are views into ``raw``.  Returns the damped
        position-space fields after the last step with a sponge, else None.
        """
        cos, sin, kick, damp, axes = self.cos, self.sin, self.kick, self.damp, self.axes
        force = None if kick is None else self.pot.scalar_force
        pairing = self.pairing
        view = raw.view(np.float64)
        swapped = np.flip(view, self.pair_axis)  # (pi, psi) of every pair
        rotated = np.empty_like(view)
        fields = None
        drive = None
        for _ in range(nsteps):
            if kick is not None:
                if drive is None:
                    drive = force(complex(np.vdot(pairing, psi)))
                pi += drive * kick
            np.multiply(sin, swapped, out=rotated)
            view *= cos
            view += rotated
            if kick is not None:
                # without a sponge psi is unchanged until the next flow, so
                # this drive also serves the next step's first half-kick
                drive = force(complex(np.vdot(pairing, psi)))
                pi += drive * kick
            if damp is not None:
                fields = scipy.fft.ifftn(raw, axes=axes)
                fields.view(np.float64)[...] *= damp
                raw[...] = scipy.fft.fftn(fields, axes=axes)
                drive = None
        return fields

    def run(self, raw: np.ndarray, psi: np.ndarray, pi: np.ndarray, nsteps: int, stride: int):
        """Advance nsteps in chunks of ``stride``, yielding (steps done, damped fields or None)."""
        done = 0
        while done < nsteps:
            n = min(stride, nsteps - done)
            fields = self.advance(raw, psi, pi, n)
            done += n
            yield done, fields


# public single-application operations ------------------------------------


def free_flow(state: FieldState, tau: float, m: float = 1.0) -> FieldState:
    """Exact free Klein-Gordon propagation by time tau (any tau, one application)."""
    grid = state.grid
    omega = np.sqrt(grid.k_squared + m * m)
    cos, sin = np.cos(omega * tau), np.sin(omega * tau)
    psi_hat, pi_hat = grid.forward(state.psi), grid.forward(state.pi)
    return FieldState(
        grid,
        grid.inverse(cos * psi_hat + (sin / omega) * pi_hat),
        grid.inverse(cos * pi_hat - (omega * sin) * psi_hat),
        state.time + tau,
    )


def kick(state: FieldState, rho: CouplingProfile | None, pot: PolynomialPotential, tau: float) -> FieldState:
    """Exact mean-field impulse pi += tau rho F(<rho, psi>); psi and t unchanged."""
    if rho is None:
        return state
    gamma = inner_product(rho, state)
    return FieldState(
        state.grid, state.psi, state.pi + (tau * pot.force(gamma)) * rho.values, state.time
    )


def step(
    state: FieldState,
    rho: CouplingProfile | None,
    pot: PolynomialPotential | None,
    integ: Integrator,
    m: float = 1.0,
) -> FieldState:
    """One Strang step: half kick, free flow, half kick, then sponge damping."""
    core = _StrangCore(state.grid, integ, rho, pot, m)
    raw = core.to_raw(state.psi, state.pi)
    fields = core.advance(raw, raw[0], raw[1], 1)
    if fields is None:
        fields = core.to_fields(raw)
    return FieldState(state.grid, fields[0], fields[1], state.time + integ.dt)


# sampled evolution ---------------------------------------------------------


class _Recorder:
    def __init__(self, observers: Observers, m: float):
        self.obs = observers
        self.m = m
        self.times: list[float] = []
        self.gamma: list[complex] = []
        self.force: list[complex] = []
        self.energy: list[float] = []
        self.charge: list[float] = []
        self.seminorms: dict[str, list[float]] = {
            spec.label: [] for spec in observers.seminorm_specs
        }
        self.snapshots: list[FieldState] = []
        self._sample_count = 0

    def record(self, t, gamma, f, h, q, state: FieldState | None):
        if not (np.isfinite(h) and np.isfinite(abs(gamma))):
            raise RuntimeError(f"non-finite fields at t={t:g}; aborting evolution")
        self.times.append(t)
        self.gamma.append(gamma)
        self.force.append(f)
        self.energy.append(h)
        self.charge.append(q)
        if state is not None:
            for spec in self.obs.seminorm_specs:
                self.seminorms[spec.label].append(local_seminorm(state, spec, self.m))
            stride = self.obs.snapshot_stride
            if stride > 0 and self._sample_count % stride == 0:
                self.snapshots.append(state)
        self._sample_count += 1

    def needs_state(self) -> bool:
        stride = self.obs.snapshot_stride
        due = stride > 0 and self._sample_count % stride == 0
        return bool(self.obs.seminorm_specs) or due

    def build(self, integ: Integrator, m: float) -> Trajectory:
        return Trajectory(
            times=np.asarray(self.times),
            gamma=np.asarray(self.gamma, dtype=np.complex128),
            force=np.asarray(self.force, dtype=np.complex128),
            energy=np.asarray(self.energy),
            charge=np.asarray(self.charge),
            seminorms={k: np.asarray(v) for k, v in self.seminorms.items()},
            snapshots=self.snapshots,
            dt=integ.dt,
            steps_per_sample=integ.steps_per_sample,
            m=m,
            sponge=integ.sponge,
        )


def _ball_observables(grid: Grid, fields, psi_raw: np.ndarray, mask: np.ndarray,
                      u_val: float, m: float) -> tuple[float, float]:
    """Energy and charge restricted to the observation ball (sponge runs)."""
    psi, pi = fields
    grad_sq = np.zeros(grid.shape)
    for axis, xi in enumerate(grid.wavenumbers):
        shape = [1] * grid.dim
        shape[axis] = grid.points_per_axis
        grad_sq += np.abs(scipy.fft.ifftn(1j * xi.reshape(shape) * psi_raw)) ** 2
    density = np.abs(pi) ** 2 + grad_sq + m * m * np.abs(psi) ** 2
    h = 0.5 * grid.cell_volume * float(density[mask].sum()) + u_val
    q = -grid.cell_volume * float(np.vdot(psi[mask], pi[mask]).imag)
    return h, q


def evolve(
    state: FieldState,
    rho: CouplingProfile | None,
    pot: PolynomialPotential | None,
    integ: Integrator,
    T: float,
    observers: Observers | None = None,
    m: float = 1.0,
) -> Trajectory:
    """Run Strang steps for total time >= T, sampling every steps_per_sample steps.

    Gamma, f, H and Q are recorded at every sample (plus the initial state).
    Without a sponge, H and Q are the conserved global functionals; with a
    sponge they are restricted to the ball |x| <= inner_radius, since the
    damping layer openly discards what reaches it.
    """
    grid = state.grid
    if rho is not None:
        require_same_grid(rho, state)
    core = _StrangCore(grid, integ, rho, pot, m)
    rec = _Recorder(observers or Observers(), m)
    dt = integ.dt
    nsteps = ceil(T / dt - 1e-12)
    sponge = integ.sponge
    mask = (grid.radius <= sponge.inner_radius) if sponge is not None else None
    raw = core.to_raw(state.psi, state.pi)
    psi, pi = raw
    t0 = state.time

    def sample(step_index: int, fields) -> None:
        t = t0 + step_index * dt
        g, f, u_val = core.coupling_terms(psi)
        if sponge is None:
            h, q = core.invariants(raw, u_val)
            if rec.needs_state():
                fields = core.to_fields(raw)
        else:
            h, q = _ball_observables(grid, fields, psi, mask, u_val, m)
        real_state = None if fields is None else FieldState(grid, fields[0], fields[1], t)
        rec.record(t, g, f, h, q, real_state)

    sample(0, (state.psi, state.pi) if sponge is not None else None)
    for done, fields in core.run(raw, psi, pi, nsteps, integ.steps_per_sample):
        sample(done, fields)
    return rec.build(integ, m)


def split_chi_phi(
    state: FieldState,
    rho: CouplingProfile,
    pot: PolynomialPotential,
    integ: Integrator,
    T: float,
    observers: Observers | None = None,
    m: float = 1.0,
) -> tuple[Trajectory, Trajectory]:
    """Decompose the solution as psi = chi + phi.

    chi solves the free equation with the full initial data; phi starts from
    zero and is driven by the source rho(x) f(t), with f read off the full
    nonlinear solution.  All three systems advance in lockstep with the same
    splitting, so the decomposition holds to roundoff at every sample.

    Returns the (chi, phi) trajectories; each records its own coupling
    amplitude and derived observables.  Sponge damping is not supported here
    since it would break the exact superposition.
    """
    grid = state.grid
    require_same_grid(rho, state)
    if integ.sponge is not None:
        raise ValueError("chi/phi splitting assumes undamped evolution (disable the sponge)")
    core = _StrangCore(grid, integ, rho, pot, m)
    obs = observers or Observers()
    dt = integ.dt
    nsteps = ceil(T / dt - 1e-12)
    pair = core.to_raw(state.psi, state.pi)
    # the full solution drives the kicks, which land on it and on phi only
    raw = np.stack((pair, pair, np.zeros_like(pair)))
    recorders = (_Recorder(obs, m), _Recorder(obs, m))
    t0 = state.time

    def sample(step_index: int) -> None:
        t = t0 + step_index * dt
        for part, rec in zip(raw[1:], recorders):
            g, f, u_val = core.coupling_terms(part[0])
            h, q = core.invariants(part, u_val)
            real_state = None
            if rec.needs_state():
                fields = core.to_fields(part)
                real_state = FieldState(grid, fields[0], fields[1], t)
            rec.record(t, g, f, h, q, real_state)

    sample(0)
    for done, _ in core.run(raw, raw[0, 0], raw[::2, 1], nsteps, integ.steps_per_sample):
        sample(done)
    return recorders[0].build(integ, m), recorders[1].build(integ, m)
