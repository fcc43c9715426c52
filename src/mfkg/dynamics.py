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
:class:`_StrangCore`.  A core advances one system, kept in raw FFT
coordinates: one complex array of shape ``(2, grid.num_points)`` holding
the plain FFT (:meth:`Grid.raw_fft`) of (psi, pi).  It leaves out the
checkerboard and cell-volume factors of :meth:`Grid.forward`, which are
per-mode scalars, so the flow tables do not see them; they are folded
once, at set-up, into the kick vector and into the pairing vector that
reads gamma off raw psi.
:func:`split_chi_phi` runs one core on the full solution and moves chi,
which feels no kick, by one free flow of that core's coupled modes per
sampling interval (below); phi = full - chi at every sample.

Without a sponge the core advances by block updates of up to 16 steps.
The coupling is rank one: a kick moves only pi, always along the same raw
vector, gamma reads only psi, and the free flow is diagonal per mode.  So
the gammas of a block follow from a scalar recurrence over its start state
(one product with a table of per-mode cos and sin / omega rows, plus a
memory term with K_0 = 0), and the end state is the free flow of the block
plus one more table product for the summed kicks.  This is the composition
of the block's Strang steps, rearranged; it reproduces step-by-step
stepping to roundoff.  The products, the kicks and the gamma read run over
the coupled set C = {k : |rho_raw_k| > eps max |rho_raw|} only, eps the
float64 machine epsilon: the transform of rho rounds each coefficient by
about eps times its largest one, so a smaller coefficient is roundoff, and
a mode outside C neither feels the kick nor adds to gamma (the rule is
:func:`mfkg.fields.coupled_modes`, which also picks the coupled shells of
:class:`mfkg.solitary.ManifoldTable`).  An undamped
coupled core keeps its modes in a core order that lists C first (each set
ascending), so C is a leading slice with no gather or scatter per block;
:meth:`_StrangCore.to_raw` and :meth:`_StrangCore.to_fields` apply and
undo the order.  A mode outside C moves by the free flow alone, so the
blocks flow C only and the rest lags until :meth:`_StrangCore.sync` flows
it once, which :meth:`_StrangCore.to_fields` does before every read; the
rest keeps its first sample's share of H and Q.  ``verify_persistence``
never reads it: it sums its error over C and bounds the rest's once, at
set-up.  :func:`split_chi_phi` syncs the full run after every sampling
interval and copies its rest into chi, so phi is exactly zero outside C.
Without rho, or with a rho that couples every mode, C is every mode and
nothing lags.  With a sponge the core steps one by one
over every mode in natural order: each step ends with one stacked inverse
transform into a position-space buffer, the damping multiply and one
stacked forward transform back, both transforms on the pair reshaped into
the grid's shape.  Samples read the damped fields that this leaves in the
buffer, a fresh one per sampling interval.  The flow and the damping
multiply the float64 view of the state by interleaved real tables, and the
kicks take the scalar force from :meth:`PolynomialPotential.scalar_force`.
:func:`free_flow` and :func:`kick` remain single applications on the
:meth:`Grid.forward` path, independent of the core.
Every sampled run is the generator :meth:`_StrangCore.samples`.  It covers
whole sampling intervals, so samples are uniform and the last one lies at
or past T.

One reader, :meth:`_Recorder.record`, turns a sample of one raw (psi, pi)
pair into the recorded observables: gamma, F and U from the core's pairing,
then H and Q, global and conserved without a sponge or over the observation
ball |x| <= inner_radius with one, then the non-finite check.  It builds a
:class:`FieldState` only when a seminorm series or a due snapshot needs
one, from the damped fields of a sponge run or else by
:meth:`_StrangCore.to_fields`.  :func:`evolve` feeds one recorder,
:func:`split_chi_phi` two (chi and phi).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, isfinite
from operator import mul

import numpy as np

from .fields import (
    CouplingProfile,
    FieldState,
    SeminormSpec,
    coupled_modes,
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
    """Observables of one run, sampled every :attr:`sample_dt` to at or past its end time."""

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


def _rotation_tables(omega: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Interleaved tables (c, s) of the exact free flow by tau on a (psi, pi) pair.

    The flow maps the pair to c * (psi, pi) + s * (pi, psi), that is
    psi' = cos psi + (sin / omega) pi and pi' = cos pi - (omega sin) psi;
    c is the cosine alone, s stacks the two sine tables.  Every entry is
    an elementwise function of its mode's omega, so the tables of a
    reordered omega are the reordered tables.
    """
    sin = np.sin(omega * tau)
    return _interleaved(np.cos(omega * tau)), _interleaved(np.stack((sin / omega, -omega * sin)))


@lru_cache(maxsize=16)
def _sponge_factor(grid: Grid, sponge: Sponge, dt: float) -> np.ndarray:
    """Interleaved damping factor exp(-sigma(x) dt) of one step, flattened over the grid."""
    return _interleaved(np.exp(-sponge.rate(grid) * dt).ravel())


def _sample_count(integ: Integrator, T: float) -> int:
    """Sampling intervals of a run over time T, rounded up to whole intervals."""
    return -(-ceil(T / integ.dt - 1e-12) // integ.steps_per_sample)


# An undamped run advances in block updates of at most this many steps, so
# the block table has at most _BLOCK_STEPS + 1 rows whatever steps_per_sample is.
_BLOCK_STEPS = 16

def _block_table(omega: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """Rows n = 0..steps of (cos(omega n dt), sin(omega n dt) / omega) over the given modes.

    Row n weights the (psi, pi) halves of the flattened raw pair on those
    modes into the psi half of the free flow R^n by n dt.  Read the other
    way, its (cos, sin / omega) halves are the (pi, psi) halves of R^n
    applied to (0, e).
    """
    phase = np.multiply.outer(np.arange(steps + 1) * dt, omega)
    return np.concatenate((np.cos(phase), np.sin(phase) / omega), axis=1)


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
        self.grid = grid
        self.m = m
        self.integ = integ
        # |psi_hat|^2 / L^n = scale |psi_raw|^2, since psi_hat = +-h^n psi_raw
        self.scale = grid.cell_volume / grid.num_points
        self.pot = pot
        self.kick = self.pairing = None
        # raw[:, coupled] holds the modes that rho couples: every mode with
        # a sponge or without rho, the leading slice of the core order otherwise
        self.coupled = slice(0, grid.num_points)
        self.order = None
        self.block = min(integ.steps_per_sample, _BLOCK_STEPS)
        self._flows: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}
        rho_raw = None if rho is None else grid.raw_fft(rho.values)
        if rho is not None and integ.sponge is None:
            mask = coupled_modes(rho_raw.ravel())
            self.coupled = slice(0, int(np.count_nonzero(mask)))
            if not mask.all():
                self.order = np.concatenate((np.flatnonzero(mask), np.flatnonzero(~mask)))
        # the blocks flow C only and leave the rest, the modes outside C,
        # `pending` steps behind
        self.rest = slice(self.coupled.stop, grid.num_points)
        self.pending = 0
        # the flow's scratch, large enough for C or the rest
        self.scratch = np.empty(4 * max(self.coupled.stop, self.rest.stop - self.rest.start))
        self.energy_weight = self._in_order(grid.k_squared + m * m)
        self.omega = np.sqrt(self.energy_weight)
        if rho is not None:
            rho_raw = self._in_order(rho_raw)
            # pi_hat += tau F rho_hat reads pi_raw += tau F rho_raw in raw
            # coordinates, and <rho, psi> = scale * sum conj(rho_raw) psi_raw
            self.kick = (0.5 * integ.dt) * rho_raw
            self.pairing = self.scale * rho_raw
            self.read = self.pairing[..., self.coupled]
        if integ.sponge is not None:
            self.damp = _sponge_factor(grid, integ.sponge, integ.dt)
            return
        if rho is not None:
            omega = self.omega[self.coupled]
            self.table = _block_table(omega, integ.dt, self.block)
            self.conj_read = np.conj(self.read)
            self.coupled_kick = self.kick[self.coupled]
            # a block's one buffer over C: the weighted pair, then its kicks
            self.coupled_buffer = np.empty((2, omega.size), dtype=complex)
            # memory K_n: gamma of R^n (0, kick); real, since the pairing
            # and the kick are both real multiples of rho_raw
            weight = (0.5 * integ.dt * self.scale) * np.abs(rho_raw[self.coupled]) ** 2
            memory = (self.table[:, omega.size:] @ weight).tolist()
            # lags[i] = (K_i, ..., K_1), the memory that gamma_i reads
            self.lags = [memory[i:0:-1] for i in range(self.block + 1)]

    def _in_order(self, values: np.ndarray) -> np.ndarray:
        """Per-mode values (trailing axes over the grid), flattened into the core order."""
        flat = values.reshape(*values.shape[: values.ndim - self.grid.dim], -1)
        return flat if self.order is None else np.take(flat, self.order, axis=-1)

    def to_raw(self, psi: np.ndarray, pi: np.ndarray) -> np.ndarray:
        return self._in_order(self.grid.raw_fft(np.stack((psi, pi))))

    def to_fields(self, raw: np.ndarray) -> np.ndarray:
        """Position-space (psi, pi) of a raw pair of this core's run, its rest synced first."""
        self.sync(raw)
        if self.order is None:
            return self.grid.raw_ifft(raw.reshape(2, *self.grid.shape))
        # undo the core order into the array that the inverse transform fills
        fields = np.empty_like(raw)
        fields[:, self.order] = raw
        fields = fields.reshape(2, *self.grid.shape)
        return self.grid.raw_ifft(fields, out=fields)

    def flow_tables(self, steps: int, modes: slice) -> tuple[np.ndarray, np.ndarray]:
        """Interleaved tables, in the core order, of the free flow by steps * dt over ``modes``."""
        key = (steps, modes.start, modes.stop)
        tables = self._flows.get(key)
        if tables is None:
            tables = self._flows[key] = _rotation_tables(self.omega[modes], steps * self.integ.dt)
        return tables

    def free(self, raw: np.ndarray, steps: int, modes: slice) -> None:
        """Free flow of raw[:, modes] in place by steps * dt."""
        cos, sin = self.flow_tables(steps, modes)
        view = raw[:, modes].view(np.float64)
        self._flow(view, cos, sin, self.scratch[: view.size].reshape(view.shape))

    def sync(self, raw: np.ndarray) -> np.ndarray:
        """Flow the lagging rest of the core's run by its pending steps; returns ``raw``."""
        if self.pending:
            self.free(raw, self.pending, self.rest)
            self.pending = 0
        return raw

    def coupling(self, psi: np.ndarray) -> complex:
        """gamma = <rho, psi> of one raw field, summed over the coupled modes."""
        return complex(np.vdot(self.read, psi[..., self.coupled]))

    def coupling_terms(self, psi: np.ndarray) -> tuple[complex, complex, float]:
        """gamma, F(gamma) and U(gamma) of one raw field; zeros without a coupling."""
        if self.pairing is None:
            return 0j, 0j, 0.0
        g = self.coupling(psi)
        return g, self.pot.scalar_force(g), self.pot.scalar_value(g)

    def quadratic(self, pair: np.ndarray, modes: slice) -> tuple[float, float]:
        """The quadratic part of H, and Q, of one raw pair summed over a slice of modes."""
        psi, pi = pair[:, modes]
        quadratic = np.vdot(pi, pi).real + np.vdot(psi, self.energy_weight[modes] * psi).real
        return 0.5 * self.scale * float(quadratic), -self.scale * float(np.vdot(psi, pi).imag)

    def _flow(self, view: np.ndarray, cos: np.ndarray, sin: np.ndarray, rotated: np.ndarray) -> None:
        """Free flow in place of the float64 view of a raw pair, by the tables' tau."""
        np.multiply(sin, view[::-1], out=rotated)
        view *= cos
        view += rotated

    def advance(self, raw: np.ndarray, nsteps: int):
        """Take nsteps Strang steps of the raw pair ``raw`` in place.

        Without a sponge the steps go in block updates of at most
        _BLOCK_STEPS steps each (:meth:`_block`) and None is returned.  With
        a sponge they go one by one, each ending with the damping multiply
        in position space, and the damped position-space fields after the
        last step are returned.
        """
        if self.integ.sponge is not None:
            return self._damped_steps(raw, nsteps)
        for done in range(0, nsteps, self.block):
            self._block(raw, min(self.block, nsteps - done))
        if self.order is not None:
            self.pending += nsteps
        return None

    def _block(self, raw: np.ndarray, steps: int) -> None:
        """``steps`` undamped Strang steps of ``raw`` as one update.

        A kick moves only pi, always along the raw vector e = kick; gamma
        reads only psi; the free flow R is diagonal per mode.  So from the
        start x0, with kick weights c = (d_0, 2 d_1, ..., 2 d_{s-1}, d_s)
        for s = steps and d_j = F(gamma_j):

        * gamma_i = b_i + sum_{j<i} K_{i-j} c_j, where b_i is gamma of
          R^i x0 (one product of x0 with the block table) and K is
          the memory, so the d_j follow from a scalar recurrence;
        * the end state is R^s x0 + sum_j c_j R^{s-j} (0, e), the sum again
          one product with the table.

        Both products, the pairing, the kicks and the free flow touch only
        the coupled modes, the leading slice of the core order.
        """
        # Both products are real GEMMs against the (re, im) columns of a
        # complex vector viewed as float64.  With the kick or pairing folded
        # into a complex table they would be complex GEMVs, which OpenBLAS
        # splits over threads at this size: slower on two threads than on
        # one, with first calls of ~10 ms.
        if self.kick is not None:
            coupled, buffer = self.coupled, self.coupled_buffer
            rows = self.table[: steps + 1]
            np.multiply(self.conj_read, raw[:, coupled], out=buffer)
            b = (rows @ buffer.view(np.float64).reshape(-1, 2)).view(np.complex128)
            force, lags = self.pot.scalar_force, self.lags
            weights: list[complex] = []
            for i, g in enumerate(b.ravel().tolist()):
                d = force(g + sum(map(mul, lags[i], weights)))
                weights.append(2.0 * d if 0 < i < steps else d)
            c = np.array(weights[::-1]).view(np.float64).reshape(-1, 2)
            # the (pi, psi) halves of sum_j c_j R^{s-j} (0, 1), per coupled mode
            sums = (rows.T @ c).view(np.complex128).reshape(2, -1)
            np.multiply(sums[::-1], self.coupled_kick, out=buffer)
        self.free(raw, steps, self.coupled)
        if self.kick is not None:
            raw[:, coupled] += buffer

    def _damped_steps(self, raw: np.ndarray, nsteps: int):
        """Strang steps one by one, each followed by the sponge damping; returns the damped fields.

        The round trip transforms, in the grid's shape, into a view of
        ``raw`` and one ``fields`` array per call that the caller may keep.
        """
        kick, damp = self.kick, self.damp
        force = None if kick is None else self.pot.scalar_force
        pairing = self.pairing
        fft, ifft = self.grid.raw_fft, self.grid.raw_ifft
        cos, sin = self.flow_tables(1, self.coupled)
        psi, pi = raw
        view, rotated = raw.view(np.float64), self.scratch.reshape(2, -1)
        shaped = raw.reshape(2, *self.grid.shape)
        fields = np.empty_like(shaped)
        damped = fields.view(np.float64).reshape(2, -1)
        for _ in range(nsteps):
            if kick is not None:
                pi += force(complex(np.vdot(pairing, psi))) * kick
            self._flow(view, cos, sin, rotated)
            if kick is not None:
                pi += force(complex(np.vdot(pairing, psi))) * kick
            ifft(shaped, out=fields)
            damped *= damp
            fft(fields, out=shaped)
        return fields if nsteps else None

    def samples(self, raw: np.ndarray, T: float, t0: float):
        """Advance ``raw`` over the :func:`_sample_count` intervals covering T.

        Yields (t0, None), then (t0 + steps done * dt, damped fields or None)
        after every steps_per_sample steps, each interval one call of
        :meth:`advance`.
        """
        sps = self.integ.steps_per_sample
        yield t0, None
        for done in range(sps, _sample_count(self.integ, T) * sps + 1, sps):
            yield t0 + done * self.integ.dt, self.advance(raw, sps)


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
    fields = core.advance(raw, 1)
    if fields is None:
        fields = core.to_fields(raw)
    return FieldState(state.grid, fields[0], fields[1], state.time + integ.dt)


# sampled evolution ---------------------------------------------------------


class _Recorder:
    """The one reader of a sampled run: the observables of one system, sample by sample."""

    def __init__(self, core: _StrangCore, observers: Observers):
        self.core = core
        self.obs = observers
        self.rest: tuple[float, float] | None = None
        sponge = core.integ.sponge
        self.ball = None if sponge is None else core.grid.radius <= sponge.inner_radius
        self.times: list[float] = []
        self.gamma: list[complex] = []
        self.force: list[complex] = []
        self.energy: list[float] = []
        self.charge: list[float] = []
        self.seminorms: dict[str, list[float]] = {
            spec.label: [] for spec in observers.seminorm_specs
        }
        self.snapshots: list[FieldState] = []

    def record(self, t: float, pair: np.ndarray, fields=None) -> None:
        """Record the sample at time t of the raw (psi, pi) pair ``pair``.

        ``fields`` are its position-space (psi, pi), which a sponge run
        passes; otherwise they are transformed from ``pair``, and only when
        a seminorm series or a due snapshot needs the sample's
        :class:`FieldState`.
        """
        core = self.core
        g, f, u_val = core.coupling_terms(pair[0])
        if self.ball is None:
            if self.rest is None:
                # outside C the free flow keeps each mode's share
                self.rest = core.quadratic(pair, core.rest)
            h, q = core.quadratic(pair, core.coupled)
            h, q = h + self.rest[0] + u_val, q + self.rest[1]
        else:
            h, q = _ball_observables(core.grid, fields, pair[0], self.ball, u_val, core.m)
        if not (isfinite(h) and isfinite(abs(g))):
            raise RuntimeError(f"non-finite fields at t={t:g}; aborting evolution")
        stride = self.obs.snapshot_stride
        due = stride > 0 and len(self.times) % stride == 0
        self.times.append(t)
        self.gamma.append(g)
        self.force.append(f)
        self.energy.append(h)
        self.charge.append(q)
        if self.obs.seminorm_specs or due:
            psi, pi = core.to_fields(pair) if fields is None else fields
            state = FieldState(core.grid, psi, pi, t)
            for spec in self.obs.seminorm_specs:
                self.seminorms[spec.label].append(local_seminorm(state, spec, core.m))
            if due:
                self.snapshots.append(state)

    def build(self) -> Trajectory:
        integ = self.core.integ
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
            m=self.core.m,
            sponge=integ.sponge,
        )


def _ball_observables(grid: Grid, fields, psi_raw: np.ndarray, mask: np.ndarray,
                      u_val: float, m: float) -> tuple[float, float]:
    """Energy and charge restricted to the observation ball (sponge runs).

    psi, pi and each gradient row are gathered at the ball's points first,
    so the density and its sum cover those points only.
    """
    psi, pi = (field[mask] for field in fields)
    psi_raw = psi_raw.reshape(grid.shape)
    grad_sq = np.zeros(psi.shape)
    for axis, xi in enumerate(grid.wavenumbers):
        shape = [1] * grid.dim
        shape[axis] = grid.points_per_axis
        grad_sq += np.abs(grid.raw_ifft(1j * xi.reshape(shape) * psi_raw)[mask]) ** 2
    density = np.abs(pi) ** 2 + grad_sq + m * m * np.abs(psi) ** 2
    h = 0.5 * grid.cell_volume * float(density.sum()) + u_val
    q = -grid.cell_volume * float(np.vdot(psi, pi).imag)
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
    """Run Strang steps over whole sampling intervals, to at or past time T.

    Gamma, f, H and Q are recorded every steps_per_sample steps (plus the
    initial state), so the samples are uniform.  Without a sponge, H and Q
    are the conserved global functionals; with a sponge they are restricted
    to the ball |x| <= inner_radius, since the damping layer openly discards
    what reaches it.
    """
    if rho is not None:
        require_same_grid(rho, state)
    core = _StrangCore(state.grid, integ, rho, pot, m)
    rec = _Recorder(core, observers or Observers())
    raw = core.to_raw(state.psi, state.pi)
    # a sponge run reads its fields at t0 from the data, later from the damped buffers
    initial = None if integ.sponge is None else (state.psi, state.pi)
    for t, fields in core.samples(raw, T, state.time):
        rec.record(t, raw, initial if fields is None else fields)
    return rec.build()


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
    zero and carries what the source rho(x) f(t) adds, f read off the full
    nonlinear solution.  chi feels no kick, so each sampling interval moves
    its coupled modes by one free flow over the interval; outside them the
    full solution feels no kick either, so chi's other modes are the full
    run's, synced, and phi's are zero.  phi = full - chi at every sample.

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
    full = core.to_raw(state.psi, state.pi)
    chi, phi = full.copy(), np.empty_like(full)
    recorders = (_Recorder(core, obs), _Recorder(core, obs))
    for i, (t, _) in enumerate(core.samples(full, T, state.time)):
        if i:
            # outside C the full run feels no kick: chi's rest is its synced rest
            core.free(chi, integ.steps_per_sample, core.coupled)
            chi[:, core.rest] = core.sync(full)[:, core.rest]
        np.subtract(full, chi, out=phi)
        for part, rec in zip((chi, phi), recorders):
            rec.record(t, part)
    return recorders[0].build(), recorders[1].build()
