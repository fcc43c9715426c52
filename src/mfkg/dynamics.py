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

All stepping (:func:`evolve`, :func:`snapshots` and
``multifreq.verify_persistence``) goes through a private core, one class per
boundary condition: :class:`_ShellCore` without a sponge and
:class:`_SpongeCore` with one, both built on :class:`_Core`.  A core
advances one system, its own state, kept in raw FFT coordinates: the plain FFT
(:meth:`Grid.raw_fft`) of (psi, pi).  It leaves out the checkerboard and
cell-volume factors of :meth:`Grid.forward`, which are per-mode scalars, so
the flow tables do not see them; they are folded once, at set-up, into the
kick vector and into the pairing vector that reads gamma off raw psi.

:class:`_ShellCore` advances by block updates of up to 16 steps.
The coupling is rank one: a kick moves only pi, always along the same raw
vector, gamma reads only psi, and the free flow is diagonal per mode.  So
the gammas of a block follow from a scalar recurrence over its start state
(one product with a table of cos and sin / omega rows, plus a memory term
with K_0 = 0), and the end state is the free flow of the block plus one
more table product for the summed kicks.  This is the composition of the
block's Strang steps, rearranged; it reproduces step-by-step stepping to
roundoff.  Only the coupled set C = {k : |rho_raw_k| > eps max |rho_raw|}
takes part, eps the float64 machine epsilon: the transform of rho rounds
each coefficient by about eps times its largest one, so a smaller
coefficient is roundoff, and a mode outside C neither feels the kick nor
adds to gamma (the rule is :func:`mfkg.fields.coupled_modes`, which also
picks the coupled shells of :class:`mfkg.solitary.ManifoldTable`).

The free flow rotates every mode of an |xi|^2 shell of :attr:`Grid.shells`
alike (the shell's modes share one omega, bit for bit), and the kick and
gamma see a shell S only along v_S = rho_raw / |rho_raw| over the modes of
C in S.  So an undamped core advances one complex (psi, pi) pair per
coupled shell, the shell pair z_S = <v_S, x> (:attr:`_ShellCore.pair`),
on which the pairing (scale |rho_raw|) and the kick ((dt/2) |rho_raw|) are
real vectors folded into the block tables.  The rest of the state, the
residual (the modes outside C, and on each coupled shell the part
orthogonal to v_S), moves by the free flow alone.  :meth:`_ShellCore.load`
projects the raw pair onto the shell pair and the residual, and
:meth:`_ShellCore.natural` adds them back, into the flow's scratch.  The
core binds at set-up what an interval needs: for each block its tables,
a full cosine table for the flow and its own buffers for both products
and the kick weights.  :meth:`_ShellCore.advance` runs one interval per
call and allocates no array of the pair's size: the recurrence's lists
alone.  The residual lags until
:meth:`_ShellCore.sync` flows it once, before every read of the whole
field (:meth:`_ShellCore.fields`); its share of H and Q is orthogonal to
the shell pair's and constant, so :meth:`_ShellCore.load` takes it once.
``verify_persistence`` never reads the residual: it sums its error over
the shell pairs, which it copies into a held chunk of samples, and bounds
the residual's once, at set-up.  :meth:`_ShellCore.load` pairs gamma with the
real shell pairing and takes its force F(gamma), and each block hands on
the gamma and the force that its recurrence ends with: the next block
starts its recurrence from that pair instead of recomputing gamma_0 from
its start state, so an interval of n steps makes n force calls.

:class:`_SpongeCore` steps one by one, its modes in natural order: each
step ends with one stacked inverse transform into the core's position-space
buffer, the damping multiply and one stacked forward transform back, both
transforms on the pair reshaped into the grid's shape and bound per axis
once, at set-up (:meth:`Grid._bound_passes`).  The inverse runs unscaled
(numpy's ``norm="forward"``) and its 1/N goes into the damping table;
N is a power of two, so the damped fields are raw_ifft's times the
damping, bit for bit.  The buffer holds the sample's fields:
:meth:`_SpongeCore.load` copies the data into it, and the last step of
each interval leaves its damped fields there (every reader copies or
consumes them before the next interval).  The flow and the
damping multiply the float64 view of the state by interleaved real tables.
The kicks and their gamma run over the coupled span: [0, a) up to the last
coupled mode below N/2 and [b, N) from the first one at or above it, in
flat raw indices.  The modes left out hold only roundoff of rho's
transform, as outside C in the undamped core; psi is gathered over the
span in that order, so gamma is one product, the full pairing's when the
span is every mode (a = b = N/2).  Each step pairs its end state once
and takes the force of that gamma, for the next step's first half kick
and, at an interval's end, for the sample: two force calls per step, the
other for the pairing before the second half kick.  The force comes from
:meth:`PolynomialPotential.force` on one Python complex.
:func:`free_flow` and :func:`kick` remain single applications on the
:meth:`Grid.forward` path, independent of the core.

Every sampled run is the generator ``_Core.samples(count, t0)``.  It
covers the ``count`` whole sampling intervals that a run over T takes
(:func:`_sample_count`, computed once per run), so samples are uniform and
the last one lies at or past T.  It only advances the core and yields each
sample's time; the sample is read off the core.  gamma and its force
F(gamma) have one route on both cores: ``load`` pairs gamma and takes its
force once, and each interval hands on its end state's pair
(:meth:`_Core.coupling`, :meth:`_Core.coupling_terms`).

Three runs read those samples, each in its own loop.  :func:`evolve`
records gamma, F and U (:meth:`_Core.coupling_terms`), then H and Q
(``invariants``: global and conserved on a shell core, over the
observation ball |x| <= inner_radius on a sponge core), then checks that
they are finite.  :func:`snapshots` yields every stride-th sample's fields
as the core reaches it and keeps none: it records no series, checks gamma
and U(gamma) alone, and stops at its last snapshot, whose fields are those
of ``evolve`` bit for bit.  Its checks, warning and core set-up run at the
call, its stepping as the snapshots are read, so a consumer that measures
and drops each one (:meth:`mfkg.solitary.ManifoldTable.distances`) holds
one snapshot at a time.  Both build a :class:`FieldState` only where one
is read, by :meth:`_Core.state`, and warn when the snapshot stride is
longer than the run.
``multifreq.verify_persistence`` builds a :class:`_ShellCore` and reads
gamma, its handed-on force and the shell pair alone.
"""
from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from math import ceil, isfinite
from operator import index, mul

import numpy as np

from .fields import (
    CouplingProfile,
    FieldState,
    SeminormSpec,
    coupled_modes,
    inner_product,
    local_seminorm,
    require_same_grid,
    _require_mass,
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
    "evolve",
    "snapshots",
]


def _require_integer(name: str, value) -> int:
    """``value`` as an int, for a step or stride count; a ValueError naming it if not an integer.

    An integer is what :func:`operator.index` accepts: Python and numpy
    integers, not floats, even integral ones.
    """
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name}={value!r} must be an integer") from None


@dataclass(frozen=True)
class Sponge:
    """Absorbing layer: smooth damping ramp from inner_radius out to the box edge."""

    inner_radius: float
    strength: float = 1.0

    def __post_init__(self) -> None:
        if not (isfinite(self.inner_radius) and self.inner_radius > 0):
            raise ValueError(f"sponge inner_radius={self.inner_radius} must be finite and positive")
        # a zero strength damps nothing, yet its run would count as damped
        # and leave windows past the torus horizon unflagged
        if not (isfinite(self.strength) and self.strength > 0):
            raise ValueError(f"sponge strength={self.strength} must be finite and positive")

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
        if not (isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt={self.dt} must be finite and positive")
        if _require_integer("steps_per_sample", self.steps_per_sample) < 1:
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
        if _require_integer("snapshot_stride", self.snapshot_stride) < 0:
            raise ValueError(f"snapshot_stride={self.snapshot_stride} must be nonnegative")
        labels = [spec.label for spec in self.seminorm_specs]
        for label in labels:
            if labels.count(label) > 1:
                raise ValueError(
                    f"two seminorm specs share the series label {label!r}; "
                    "give each a distinct radius"
                )


@dataclass(eq=False)
class Trajectory:
    """Observables of one run, sampled every sampling interval to at or past its end time."""

    times: np.ndarray
    gamma: np.ndarray
    force: np.ndarray
    energy: np.ndarray
    charge: np.ndarray
    seminorms: dict[str, np.ndarray]
    snapshots: list[FieldState]
    sponge: Sponge | None = None


def _check_step_size(grid: Grid, integ: Integrator) -> None:
    if integ.dt >= grid.spacing:
        raise ValueError(
            f"dt={integ.dt} must stay below the grid spacing {grid.spacing} "
            "(unit-speed propagation safety margin)"
        )


def _require_potential(rho: CouplingProfile | None, pot: PolynomialPotential | None) -> None:
    if rho is not None and pot is None:
        raise ValueError("a potential is required when a coupling profile is present")


def _interleaved(table: np.ndarray) -> np.ndarray:
    """A real table repeated per (re, im) slot, to act on the float64 view of a complex array.

    A real-times-complex product then needs no cast of the table to complex.
    """
    return np.repeat(table, 2, axis=-1)


def _rotation_tables(omega: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Interleaved tables (c, s) of the exact free flow by tau on a (psi, pi) pair.

    The flow maps the pair to c * (psi, pi) + s * (pi, psi), that is
    psi' = cos psi + (sin / omega) pi and pi' = cos pi - (omega sin) psi;
    c is the cosine alone, s stacks the two sine tables.
    """
    sin = np.sin(omega * tau)
    return _interleaved(np.cos(omega * tau)), _interleaved(np.stack((sin / omega, -omega * sin)))


def _pair_rotation_tables(omega: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_rotation_tables` with the cosine repeated over both rows of a pair.

    A full (2, 2 modes) cosine multiplies a pair's float64 view in one plain
    loop; a row broadcast over the pair's two rows runs through numpy's
    iterator buffers, about twice as slow on pairs of a few thousand modes.
    """
    cos, sin = _rotation_tables(omega, tau)
    return np.tile(cos, (2, 1)), sin


def _sample_count(integ: Integrator, T: float) -> int:
    """Sampling intervals of a run over time T, rounded up to whole intervals."""
    if not (isfinite(T) and T >= 0):
        raise ValueError(f"T={T} must be finite and nonnegative")
    return -(-ceil(T / integ.dt - 1e-12) // integ.steps_per_sample)


# An undamped run advances in block updates of at most this many steps, so
# the block tables have at most _BLOCK_STEPS + 1 rows whatever steps_per_sample is.
_BLOCK_STEPS = 16

def _block_table(omega: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """Rows n = 0..steps of (cos(omega n dt), sin(omega n dt) / omega) over the given shells.

    Row n weights the (psi, pi) halves of a flattened pair on those shells
    into the psi half of the free flow R^n by n dt.  Read the other way,
    its (cos, sin / omega) halves are the (pi, psi) halves of R^n applied
    to (0, e).
    """
    phase = np.multiply.outer(np.arange(steps + 1) * dt, omega)
    return np.concatenate((np.cos(phase), np.sin(phase) / omega), axis=1)


class _Core:
    """What both stepping cores share: set-up, the raw transform, the sample's reads and the run.

    :class:`_ShellCore` steps without a sponge and :class:`_SpongeCore`
    with one (see the module docstring); each binds what it needs from
    rho's raw transform (None without rho) in ``_bind`` and owns ``load``,
    ``fields``, ``invariants`` and ``advance``, which set :attr:`gamma` and
    its force :attr:`force` (0j without rho).
    """

    def __init__(
        self,
        grid: Grid,
        integ: Integrator,
        rho: CouplingProfile | None,
        pot: PolynomialPotential | None,
        m: float,
    ) -> None:
        _require_mass(m)
        _check_step_size(grid, integ)
        _require_potential(rho, pot)
        self.grid = grid
        self.m = m
        self.integ = integ
        # |psi_hat|^2 / L^n = scale |psi_raw|^2, since psi_hat = +-h^n psi_raw
        self.scale = grid.cell_volume / grid.num_points
        self.pot = pot
        self.coupled = rho is not None
        # the flow's scratch, large enough for the natural pair
        self.scratch = np.empty(4 * grid.num_points)
        # |xi|^2 + m^2 and omega per mode, in natural order
        self.energy_weight = (grid.k_squared + m * m).ravel()
        self.omega = np.sqrt(self.energy_weight)
        self._bind(None if rho is None else grid.raw_fft(rho.values).ravel())

    def to_raw(self, psi: np.ndarray, pi: np.ndarray) -> np.ndarray:
        """The natural raw pair (2, N) of two fields."""
        return self.grid.raw_fft(np.stack((psi, pi))).reshape(2, -1)

    def state(self, t: float) -> FieldState:
        """The current sample, at time t, as a :class:`FieldState` of :meth:`fields`."""
        psi, pi = self.fields()
        return FieldState(self.grid, psi, pi, t)

    def coupling(self) -> complex:
        """gamma = <rho, psi> of the state, as the load or the last interval handed it on."""
        return self.gamma

    def coupling_terms(self) -> tuple[complex, complex, float]:
        """gamma, F(gamma) and U(gamma) of the state; zeros without a coupling.

        F(gamma) is the force handed on with gamma (:attr:`force`).
        """
        if not self.coupled:
            return 0j, 0j, 0.0
        g = self.coupling()
        return g, self.force, self.pot.value(g)

    def _flow(self, view: np.ndarray, cos: np.ndarray, sin: np.ndarray, rotated: np.ndarray) -> None:
        """Free flow in place of the float64 view of a raw pair, by the tables' tau.

        The sine terms run row by row, (sin / omega) pi into psi's row and
        -(omega sin) psi into pi's: a product against the swapped pair
        view[::-1] would go through numpy's iterator buffers for its
        negative stride.
        """
        np.multiply(sin[0], view[1], out=rotated[0])
        np.multiply(sin[1], view[0], out=rotated[1])
        view *= cos
        view += rotated

    def samples(self, count: int, t0: float):
        """Advance the loaded state over ``count`` sampling intervals (a :func:`_sample_count`).

        Yields the time of each sample: t0, then t0 + steps done * dt after
        every steps_per_sample steps, each interval one call of
        :meth:`advance`.  A sample is read off the core (:meth:`coupling`,
        :meth:`fields`, :meth:`state`) before the generator resumes.
        """
        sps, advance = self.integ.steps_per_sample, self.advance
        yield t0
        for done in range(sps, count * sps + 1, sps):
            advance()
            yield t0 + done * self.integ.dt


class _ShellCore(_Core):
    """Undamped Strang steps on the shell pair, in block updates (see the module docstring)."""

    def _bind(self, rho_raw: np.ndarray | None) -> None:
        """Bind the coupled shells, then the views, tables and buffers of one sampling interval.

        The modes of C go shell by shell (:attr:`Grid.shells`, ascending),
        each shell's in ascending flat order; ``starts`` holds where each
        shell begins and ``column`` each mode's shell.  Shell S carries
        v = rho_raw / |rho_raw| over C and S, and its norm |rho_raw| gives
        the real pairing ``read`` = scale |rho_raw| and kick (dt/2) |rho_raw|.
        The plan lists an interval's blocks, each entry with its tables and
        its own buffers for the two products and the kick weights, so that
        :meth:`advance` allocates no array of the pair's size; the full
        blocks of an interval share one entry, and no two cores share a
        buffer.  Without rho there is no coupled shell and the whole state
        is residual: an interval only adds to its lag, and the plan is
        empty.
        """
        self._residual_flows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        k2, index = self.grid.shells
        modes = np.zeros(0, dtype=np.intp) if rho_raw is None else np.flatnonzero(coupled_modes(rho_raw))
        modes = self.modes = modes[np.argsort(index[modes], kind="stable")]
        shells = index[modes]
        new = np.diff(shells, prepend=-1) != 0
        self.starts, self.column = np.flatnonzero(new), np.cumsum(new) - 1
        # |xi|^2 + m^2 per coupled shell: its modes' energy_weight, bit for bit
        self.weight = k2[shells[self.starts]] + self.m * self.m
        self.pair = np.zeros((2, self.starts.size), dtype=complex)
        self.residual = np.zeros((2, self.grid.num_points), dtype=complex)
        # natural() writes the natural raw pair into the flow's scratch, free
        # once the residual is synced, with the coupled modes' residual
        # gathered into a buffer of their own
        self.raw = self.scratch.view(complex).reshape(2, -1)
        self.gathered = np.empty((2, modes.size), dtype=complex)
        coupled = np.zeros(0, dtype=complex) if rho_raw is None else rho_raw[modes]
        norms = np.sqrt(np.add.reduceat(np.abs(coupled) ** 2, self.starts))
        self.basis = coupled / norms[self.column]
        # gamma = sum_S read_S z_S(psi), and a kick adds (dt/2) F |rho_raw| to z_S(pi)
        self.read = self.scale * norms
        self.shell_kick = (0.5 * self.integ.dt) * norms
        self.plan = []
        if rho_raw is None:
            return
        integ, sps = self.integ, self.integ.steps_per_sample
        block = min(sps, _BLOCK_STEPS)
        size, omega = self.weight.size, np.sqrt(self.weight)
        # the shell pair flat, as float64 and as (re, im) columns, and the
        # flow's scratch over it
        self.flat, self.view = self.pair.reshape(-1), self.pair.view(np.float64)
        self.rotated = self.scratch[: self.view.size].reshape(self.view.shape)
        self.columns = self.flat.view(np.float64).reshape(-1, 2)
        # a block's summed kicks, flat over the shell pair, and their (re, im) columns
        self.buffer = np.empty_like(self.flat)
        self.sums = self.buffer.view(np.float64).reshape(-1, 2)
        trig = _block_table(omega, integ.dt, block)
        # the pairing and the kick are real per shell, so they fold into the
        # tables: gamma rows weight the trig rows by read, and kick rows hold
        # the (psi, pi) halves of R^n (0, shell_kick), (sin / omega, cos) times it
        self.table = trig * np.tile(self.read, 2)
        kicks = np.roll(trig, size, axis=1) * np.tile(self.shell_kick, 2)
        # memory K_n: gamma of R^n (0, shell_kick)
        memory = (self.table[:, size:] @ self.shell_kick).tolist()
        # lags[i] = (K_i, ..., K_1), the memory that gamma_i reads
        self.lags = [memory[i:0:-1] for i in range(block + 1)]

        def bind(steps: int) -> tuple:
            """A block of ``steps`` steps: its tables and the buffers that :meth:`advance` writes.

            (steps, gamma rows 1..steps, transposed kick rows, the flow
            tables of :func:`_pair_rotation_tables`, the float64 (steps, 2)
            product of the gamma rows with the start state and its complex
            entries b_1..b_s, the kick weights c and their (re, im) columns).
            """
            cos, sin = _pair_rotation_tables(omega, steps * integ.dt)
            products, weights = np.empty((steps, 2)), np.empty(steps + 1, dtype=complex)
            return (steps, self.table[1: steps + 1], kicks[: steps + 1].T, cos, sin,
                    products, products.view(complex).reshape(-1),
                    weights, weights.view(np.float64).reshape(-1, 2))

        # the interval's blocks: as many full ones as fit, then the remainder
        self.plan = [bind(block)] * (sps // block)
        if sps % block:
            self.plan.append(bind(sps % block))

    def project(self, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The shell pair (2, shells) and the residual (2, N) of a natural raw pair.

        z_S = sum conj(v) x over C and S, per row; the residual is raw minus
        v z_S over C, so it is orthogonal to v on every coupled shell.
        """
        pair = np.add.reduceat(np.conj(self.basis) * raw[:, self.modes], self.starts, axis=1)
        residual = raw.copy()
        residual[:, self.modes] -= self.basis * pair[:, self.column]
        return pair, residual

    def natural(self) -> np.ndarray:
        """The natural raw pair (2, N) of the synced state; undoes :meth:`project`.

        It is written into :attr:`raw`, the flow's scratch, which the next
        interval or call overwrites (:meth:`fields` transforms it in
        place); a :class:`FieldState` copies its fields, so snapshots do not
        share it.  A call allocates nothing.
        """
        self.sync()
        gathered, raw = self.gathered, self.raw
        # v z_S over the coupled modes, in the first entries of raw until the
        # residual is copied in; every index is in range, so "clip" takes the
        # same entries, straight into out (the default "raise" goes through
        # a buffered copy)
        part = raw.reshape(-1)[: gathered.size].reshape(gathered.shape)
        np.take(self.pair, self.column, axis=1, out=part, mode="clip")
        np.multiply(self.basis, part, out=part)
        np.take(self.residual, self.modes, axis=1, out=gathered, mode="clip")
        gathered += part
        np.copyto(raw, self.residual)
        raw[:, self.modes] = gathered
        return raw

    def load(self, psi: np.ndarray, pi: np.ndarray) -> None:
        """Start the core's run at the fields (psi, pi).

        The residual moves by the free flow alone, which keeps each mode's
        share of H and Q, so its share is taken here, once (:attr:`rest`).
        gamma is the shell pair's real pairing, and F(gamma) its force,
        until a block hands them on.
        """
        self.pair[:], self.residual[:] = self.project(self.to_raw(psi, pi))
        self.pending, self.gamma = 0, complex(np.vdot(self.read, self.pair[0]))
        self.force = self.pot.force(self.gamma) if self.coupled else 0j
        self.rest = self.quadratic(self.residual, self.energy_weight)

    def fields(self):
        """Position-space (psi, pi) of the synced state."""
        raw = self.natural().reshape(2, *self.grid.shape)
        return self.grid.raw_ifft(raw, out=raw)

    def sync(self) -> None:
        """Flow the lagging residual of the core's state by its pending steps."""
        if self.pending:
            tables = self._residual_flows.get(self.pending)
            if tables is None:
                tables = _pair_rotation_tables(self.omega, self.pending * self.integ.dt)
                self._residual_flows[self.pending] = tables
            view = self.residual.view(np.float64)
            self._flow(view, *tables, self.scratch.reshape(view.shape))
            self.pending = 0

    def quadratic(self, pair: np.ndarray, weight: np.ndarray) -> tuple[float, float]:
        """The quadratic part of H, and Q, of a (2, modes) raw pair; ``weight`` is |xi|^2 + m^2."""
        psi, pi = pair
        quadratic = np.vdot(pi, pi).real + np.vdot(psi, weight * psi).real
        return 0.5 * self.scale * float(quadratic), -self.scale * float(np.vdot(psi, pi).imag)

    def invariants(self, u_val: float) -> tuple[float, float]:
        """The global, conserved H and Q: the shell pair's share plus the residual's, and U."""
        h, q = self.quadratic(self.pair, self.weight)
        return h + self.rest[0] + u_val, q + self.rest[1]

    def advance(self) -> None:
        """Take one sampling interval of Strang steps of the core's state in place.

        The steps go in block updates of at most _BLOCK_STEPS steps each, on
        the shell pair.  A kick moves only pi, always along the real vector
        e = shell_kick; gamma reads only psi; the free flow R is diagonal
        per shell.  So a block of s steps from the start x0, with kick
        weights c = (d_0, 2 d_1, ..., 2 d_{s-1}, d_s) and d_j = F(gamma_j),
        is:

        * gamma_0 and d_0 are the pair handed on to the block, and for
          i >= 1 gamma_i = b_i + sum_{j<i} K_{i-j} c_j, where b_i is gamma
          of R^i x0 (one product of x0 with the gamma rows 1..s) and K is
          the memory, so the d_j follow from a scalar recurrence;
        * the end state is R^s x0 + sum_j c_j R^{s-j} (0, e), the sum one
          product with the kick rows.

        Each block hands gamma_s and d_s on to the next, the last block to
        the sample, so an interval of n steps makes n force calls; the
        residual lags one more interval.  Both products write into the
        plan entry's buffers (:meth:`_bind`): the b_i are read off the first
        as one list and c is written into its buffer in reverse.  The flow
        (:meth:`_flow`) multiplies the pair by a full cosine table, so that
        no product runs through numpy's iterator buffers.
        """
        self.pending += self.integ.steps_per_sample
        if not self.plan:
            return
        # Both products are real GEMMs against the (re, im) columns of a
        # complex vector viewed as float64.  As complex GEMVs they would be
        # split over threads by OpenBLAS at this size: slower on two threads
        # than on one, with first calls of ~10 ms.  np.dot into the plan's
        # buffers gives np.matmul's bits with ~0.4 us less overhead per call.
        view, rotated, flow = self.view, self.rotated, self._flow
        flat, columns, buffer, sums = self.flat, self.columns, self.buffer, self.sums
        force, lags, dot = self.pot.force, self.lags, np.dot
        d = self.force
        for steps, rows, kick_rows, cos, sin, products, b, c, c_columns in self.plan:
            dot(rows, columns, out=products)
            weights: list[complex] = [d]
            for i, g in enumerate(b.tolist(), 1):
                g += sum(map(mul, lags[i], weights))
                d = force(g)
                weights.append(2.0 * d if i < steps else d)
            c[::-1] = weights
            # the (psi, pi) halves of sum_j c_j R^{s-j} (0, e), per shell
            dot(kick_rows, c_columns, out=sums)
            flow(view, cos, sin, rotated)
            flat += buffer
        self.gamma, self.force = g, d


class _SpongeCore(_Core):
    """Damped Strang steps one by one, each followed by the sponge damping (see the module docstring)."""

    def _bind(self, rho_raw: np.ndarray | None) -> None:
        """Bind the natural pair, the tables, transforms and half kick of the steps, and the ball."""
        grid, integ, n = self.grid, self.integ, self.grid.num_points
        self.raw = np.zeros(2 * n, dtype=complex)
        self.pair = self.raw.reshape(2, -1)
        # the damping exp(-sigma(x) dt) of one step; the inverse transform runs
        # unscaled (norm="forward") and its 1/N goes into the damping table:
        # N is a power of two, so the damped fields are raw_ifft's times the
        # damping, bit for bit
        self.damp = _interleaved(np.exp(-integ.sponge.rate(grid) * integ.dt).ravel())
        self.damp /= n
        # the damping and the flow's cosine stay rows broadcast over the
        # pair: at N = 4096 full (2, 2N) tables took ~3.7 us per multiply
        # against ~4.2 us, for 128 KB each
        self.step_flow = _rotation_tables(self.omega, integ.dt)
        shaped = self.raw.reshape(2, *grid.shape)
        self.position = np.empty_like(shaped)
        self.round_trip = (grid._bound_passes(np.fft.ifft, shaped, self.position, norm="forward"),
                           grid._bound_passes(np.fft.fft, self.position, shaped))
        # the observation ball's flat indices, i xi per axis shaped to
        # broadcast over the grid, and one grid-shaped scratch for the
        # gradient rows
        self.ball = np.flatnonzero(grid.radius <= integ.sponge.inner_radius)
        self.ixi = []
        for axis, xi in enumerate(grid.wavenumbers):
            shape = [1] * grid.dim
            shape[axis] = grid.points_per_axis
            self.ixi.append(1j * xi.reshape(shape))
        self.gradient = np.empty(grid.shape, dtype=complex)
        self.half_kick, self.paired = None, lambda: (0j, 0j)
        if rho_raw is None:
            return
        # the coupled span: [0, a) up to the last coupled mode below N/2 and
        # [b, N) from the first one at or above it; every mode when a = b = N/2
        coupled = np.flatnonzero(coupled_modes(rho_raw))
        low, high = coupled[coupled < n // 2], coupled[coupled >= n // 2]
        a = int(low[-1]) + 1 if low.size else 0
        b = int(high[0]) if high.size else n
        self.span = (slice(0, a), slice(b, n))
        # pi_hat += tau F rho_hat reads pi_raw += tau F rho_raw in raw
        # coordinates, and <rho, psi> = scale * sum conj(rho_raw) psi_raw;
        # psi is gathered in span order, so gamma is one product: on a span of
        # every mode, the full pairing's bit for bit
        spanned = np.concatenate((rho_raw[:a], rho_raw[b:]))
        pairing, kick = self.scale * spanned, (0.5 * integ.dt) * spanned
        psi, pi = self.pair
        gathered, kicked = np.empty_like(pairing), np.empty_like(kick)
        copies = ((gathered[:a], psi[:a]), (gathered[a:], psi[b:]))
        adds = ((pi[:a], kicked[:a]), (pi[b:], kicked[a:]))
        force, copyto, add = self.pot.force, np.copyto, np.add

        def paired() -> tuple[complex, complex]:
            """gamma of the state, psi gathered over the span, and F(gamma)."""
            for part, source in copies:
                copyto(part, source)
            g = complex(np.vdot(pairing, gathered))
            return g, force(g)

        def half_kick(f: complex) -> None:
            """pi += f kick over the span, f a force."""
            np.multiply(f, kick, out=kicked)
            for part, kicks in adds:
                add(part, kicks, out=part)

        self.paired, self.half_kick = paired, half_kick

    def load(self, psi: np.ndarray, pi: np.ndarray) -> None:
        """Start the core's run at the fields (psi, pi), copied into the position buffer."""
        self.pair[:] = self.to_raw(psi, pi)
        self.position[0], self.position[1] = psi, pi
        self.gamma, self.force = self.paired()

    def fields(self):
        """Position-space (psi, pi) of the sample: the position buffer (the data, then damped fields)."""
        return self.position

    def invariants(self, u_val: float) -> tuple[float, float]:
        """Energy and charge of the sample, restricted to the observation ball.

        psi, pi and each gradient row are gathered at the ball's points
        first (``take`` reads the elements that a boolean mask would, in the
        same order), so the density and its sum cover those points only.
        """
        ball, gradient, grid, m = self.ball, self.gradient, self.grid, self.m
        psi, pi = (np.take(field, ball) for field in self.fields())
        psi_raw = self.pair[0].reshape(grid.shape)
        grad_sq = np.zeros(psi.shape)
        for ixi in self.ixi:
            grid.raw_ifft(np.multiply(ixi, psi_raw, out=gradient), out=gradient)
            grad_sq += np.abs(np.take(gradient, ball)) ** 2
        density = np.abs(pi) ** 2 + grad_sq + m * m * np.abs(psi) ** 2
        h = 0.5 * grid.cell_volume * float(density.sum()) + u_val
        q = -grid.cell_volume * float(np.vdot(psi, pi).imag)
        return h, q

    def advance(self) -> None:
        """An interval's Strang steps one by one, each followed by the sponge damping.

        The round trip transforms, in the grid's shape, from the state into
        the core's position-space buffer and back; the buffer is left
        holding the last step's damped fields, the sample's fields.  Each
        step's first half kick reads the force handed on to it, and each
        step hands on its end state's gamma and force: two force calls per
        step.
        """
        half_kick, paired, damp, flow = self.half_kick, self.paired, self.damp, self._flow
        inverse, forward = self.round_trip
        cos, sin = self.step_flow
        view, rotated = self.pair.view(np.float64), self.scratch.reshape(2, -1)
        damped = self.position.view(np.float64).reshape(2, -1)
        f = self.force
        for _ in range(self.integ.steps_per_sample):
            if half_kick is not None:
                half_kick(f)
            flow(view, cos, sin, rotated)
            if half_kick is not None:
                half_kick(paired()[1])
            for apply in inverse:
                apply()
            damped *= damp
            for apply in forward:
                apply()
            g, f = paired()
        self.gamma, self.force = g, f


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
    _require_potential(rho, pot)
    if rho is None:
        return state
    gamma = inner_product(rho, state)
    return FieldState(
        state.grid, state.psi, state.pi + (tau * pot.force(gamma)) * rho.values, state.time
    )


# sampled evolution ---------------------------------------------------------


def _require_finite(t: float, *values: float) -> None:
    """Abort a run at the sample at time t unless every value read off it is finite."""
    if not all(map(isfinite, values)):
        raise RuntimeError(f"non-finite fields at t={t:g}; aborting evolution")


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
    obs = observers or Observers()
    specs, stride = obs.seminorm_specs, obs.snapshot_stride
    core, count = _loaded_core(state, rho, pot, integ, T, m, stride)
    rows, taken = [], []
    seminorms: dict[str, list[float]] = {spec.label: [] for spec in specs}
    for i, t in enumerate(core.samples(count, state.time)):
        g, f, u_val = core.coupling_terms()
        h, q = core.invariants(u_val)
        _require_finite(t, h, abs(g))
        rows.append((t, g, f, h, q))
        due = stride > 0 and i % stride == 0
        # the sample's FieldState is built only where a seminorm or a due snapshot reads it
        if specs or due:
            sample = core.state(t)
            for spec in specs:
                seminorms[spec.label].append(local_seminorm(sample, spec, m))
            if due:
                taken.append(sample)
    times, gamma, force, energy, charge = zip(*rows)
    return Trajectory(
        times=np.asarray(times),
        gamma=np.asarray(gamma, dtype=np.complex128),
        force=np.asarray(force, dtype=np.complex128),
        energy=np.asarray(energy),
        charge=np.asarray(charge),
        seminorms={k: np.asarray(v) for k, v in seminorms.items()},
        snapshots=taken,
        sponge=integ.sponge,
    )


def snapshots(
    state: FieldState,
    rho: CouplingProfile | None,
    pot: PolynomialPotential | None,
    integ: Integrator,
    T: float,
    stride: int,
    m: float = 1.0,
) -> Iterator[FieldState]:
    """The snapshots of ``evolve(..., Observers(snapshot_stride=stride), m)``, bit for bit, as a generator.

    The run takes the same sampling intervals on the same core, but records
    no per-sample series and ends at its last snapshot.  The checks, the
    stride warning and the core's set-up happen here, at the call; the
    generator returned then steps the core to each snapshot as it is
    asked for and keeps none, so a consumer that drops each snapshot
    holds one at a time.  It aborts as :func:`evolve` does, with a
    RuntimeError at the first sample whose gamma or U(gamma) is
    non-finite; without a coupling there is nothing to read.
    """
    if _require_integer("snapshot stride", stride) < 1:
        raise ValueError(f"snapshot stride={stride} must be at least 1")
    core, count = _loaded_core(state, rho, pot, integ, T, m, stride)
    return _snapshot_run(core, count, stride, state.time)


def _snapshot_run(core: _Core, count: int, stride: int,
                  t0: float) -> Iterator[FieldState]:
    """Step the loaded ``core`` over ``count`` intervals from t0, yielding every stride-th sample."""
    last = count - count % stride
    for i, t in enumerate(core.samples(count, t0)):
        g, _, u_val = core.coupling_terms()
        _require_finite(t, abs(g), u_val)
        if i % stride == 0:
            yield core.state(t)
            if i == last:
                return


def _loaded_core(state: FieldState, rho: CouplingProfile | None,
                 pot: PolynomialPotential | None, integ: Integrator, T: float,
                 m: float, stride: int) -> tuple[_Core, int]:
    """A core for ``integ``, loaded with ``state``, and the :func:`_sample_count` of a run over T.

    The count comes first, so that a bad T fails before the core is built.
    A snapshot stride longer than the run keeps only the snapshot at t0, so
    it warns.
    """
    count = _sample_count(integ, T)
    if stride > count:
        warnings.warn(f"snapshot stride {stride} exceeds the {count} sampling intervals of the "
                      f"run ({count + 1} samples): only the snapshot at t0 is kept",
                      RuntimeWarning, stacklevel=3)
    if rho is not None:
        require_same_grid(rho, state)
    core = (_ShellCore if integ.sponge is None else _SpongeCore)(state.grid, integ, rho, pot, m)
    core.load(state.psi, state.pi)
    return core, count
