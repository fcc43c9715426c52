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
``multifreq.verify_persistence``) goes through one private core,
:class:`_StrangCore`.  A core advances one
system, its own state, kept in raw FFT coordinates: the plain FFT
(:meth:`Grid.raw_fft`) of (psi, pi).  It leaves out the checkerboard and
cell-volume factors of :meth:`Grid.forward`, which are per-mode scalars, so
the flow tables do not see them; they are folded once, at set-up, into the
kick vector and into the pairing vector that reads gamma off raw psi.

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
:class:`mfkg.solitary.ManifoldTable`).

An undamped core holds its state flat as psi_C, pi_C, psi_rest, pi_rest
(each set ascending), so the blocks run on one C-contiguous ``(2, |C|)``
pair; :meth:`_StrangCore.to_raw` and :meth:`_StrangCore.to_fields` apply
and undo the layout, the plain (psi, pi) pair when C is every mode (with a
sponge, without rho, or with a rho that couples every mode).  The core
binds at set-up what an interval needs, and :meth:`_StrangCore.advance`
runs one interval per call.  A mode outside C moves by the free flow
alone, so the rest lags until :meth:`_StrangCore.sync` flows it once,
before every read of the whole field (:meth:`_StrangCore.fields`); it keeps
its first sample's share of H and Q.  ``verify_persistence`` never reads
it: it sums its error over C and bounds the rest's once, at set-up.  The
last block hands on the gamma of the end state that its recurrence ends
with (:attr:`_StrangCore.gamma`), so readers pair psi with rho only where
no block ran (the first sample, a sponge run, a per-step reference route);
the next block computes its own gamma_0, so the trajectory never sees it.

With a sponge the core steps one by one, its modes in natural order: each
step ends with one stacked inverse transform into the core's position-space
buffer, the damping multiply and one stacked forward transform back, both
transforms on the pair reshaped into the grid's shape and bound per axis
once, at set-up (:meth:`Grid._bound_passes`).  The inverse runs unscaled
(numpy's ``norm="forward"``) and its 1/N goes into the damping table;
N is a power of two, so the damped fields are raw_ifft's times the
damping, bit for bit.  The core holds the damped fields that the last step
of an interval leaves in the buffer as its sample's fields (every reader
copies or consumes them before the next interval).  The flow and the
damping multiply the float64 view of the state by interleaved real tables.
The kicks and their gamma run over the coupled span: [0, a) up to the last
coupled mode below N/2 and [b, N) from the first one at or above it, in
flat raw indices.  The modes left out hold only roundoff of rho's
transform, as outside C in the undamped core; psi is gathered over the
span in that order, so gamma is one product, the full pairing's when the
span is every mode (a = b = N/2).  The force comes from
:meth:`PolynomialPotential.force` on one Python complex.
:func:`free_flow` and :func:`kick` remain single applications on the
:meth:`Grid.forward` path, independent of the core.

Every sampled run is the generator :meth:`_StrangCore.samples`.  It covers
whole sampling intervals, so samples are uniform and the last one lies at
or past T.  It yields each sample's time alone; the sample is read off the
core, whose :meth:`_StrangCore.fields` a sponge core holds (the data at t0,
then the damped buffer).

Three runs read those samples.  :func:`evolve` hands each to
:meth:`_Recorder.record`, which turns it into the recorded observables:
gamma, F and U, then H and Q, global and conserved without a sponge or over
the observation ball |x| <= inner_radius with one, then the non-finite
check.  :func:`snapshots` keeps only every stride-th sample's fields: it
records no series, checks gamma and U(gamma) alone, and stops at its last
snapshot, whose fields are those of ``evolve`` bit for bit.  Both build a
:class:`FieldState` only where one is read, by :meth:`_StrangCore.state`.
``multifreq.verify_persistence`` reads gamma and the coupled pair alone.
"""
from __future__ import annotations

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
        if not (isfinite(self.strength) and self.strength >= 0):
            raise ValueError(f"sponge strength={self.strength} must be finite and nonnegative")

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


def _sponge_factor(grid: Grid, sponge: Sponge, dt: float) -> np.ndarray:
    """Interleaved damping factor exp(-sigma(x) dt) of one step, flattened over the grid."""
    return _interleaved(np.exp(-sponge.rate(grid) * dt).ravel())


def _sample_count(integ: Integrator, T: float) -> int:
    """Sampling intervals of a run over time T, rounded up to whole intervals."""
    if not (isfinite(T) and T >= 0):
        raise ValueError(f"T={T} must be finite and nonnegative")
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
        self.kick = self.pairing = self.damp = self.sampled = self.half_kick = None
        n = count = grid.num_points
        # the core order lists C first; order and layout are None when C is every mode
        self.order = self.layout = None
        rho_raw = mask = None
        if rho is not None:
            rho_raw = grid.raw_fft(rho.values)
            mask = coupled_modes(rho_raw.ravel())
        if mask is not None and integ.sponge is None:
            count = int(np.count_nonzero(mask))
            if count < n:
                order = self.order = np.concatenate((np.flatnonzero(mask), np.flatnonzero(~mask)))
                # flat indices of psi_C, pi_C, psi_rest, pi_rest in the natural (psi, pi) pair
                self.layout = np.concatenate((order[:count], order[:count] + n,
                                              order[count:], order[count:] + n))
        self.coupled, self.rest = slice(0, count), slice(count, n)
        self.raw = np.zeros(2 * n, dtype=complex)
        self.pair, self.rest_pair = self.split(self.raw)
        # the blocks leave the rest `pending` steps behind; `gamma` is the
        # state's gamma as the last block handed it on, None where none ran
        self.pending, self.gamma = 0, None
        self._rest_flows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # the flow's scratch, large enough for C or the rest
        self.scratch = np.empty(4 * max(count, n - count))
        self.energy_weight = self._in_order(grid.k_squared + m * m)
        self.omega = np.sqrt(self.energy_weight)
        # |xi|^2 + m^2 over C and over the rest
        self.weight, self.rest_weight = np.split(self.energy_weight, [count])
        if rho is not None:
            rho_raw = self._in_order(rho_raw)
            # pi_hat += tau F rho_hat reads pi_raw += tau F rho_raw in raw
            # coordinates, and <rho, psi> = scale * sum conj(rho_raw) psi_raw
            self.kick = (0.5 * integ.dt) * rho_raw
            self.pairing = self.scale * rho_raw
            self.read = self.pairing[self.coupled]
        if integ.sponge is not None:
            self._bind_damped(integ, mask)
            return
        self._bind_interval(integ, rho_raw)

    def _bind_damped(self, integ: Integrator, mask: np.ndarray | None) -> None:
        """Bind the tables, transforms and half kick of the damped steps."""
        grid, n = self.grid, self.grid.num_points
        # the inverse transform runs unscaled (norm="forward") and its 1/N
        # goes into the damping table: N is a power of two, so the damped
        # fields are raw_ifft's times the damping, bit for bit
        self.damp = _sponge_factor(grid, integ.sponge, integ.dt)
        self.damp /= n
        self.step_flow = _rotation_tables(self.omega, integ.dt)
        shaped = self.raw.reshape(2, *grid.shape)
        self.position = np.empty_like(shaped)
        self.round_trip = (grid._bound_passes(np.fft.ifft, shaped, self.position, norm="forward"),
                           grid._bound_passes(np.fft.fft, self.position, shaped))
        if mask is None:
            return
        # the coupled span: [0, a) up to the last coupled mode below N/2 and
        # [b, N) from the first one at or above it; every mode when a = b = N/2
        coupled = np.flatnonzero(mask)
        low, high = coupled[coupled < n // 2], coupled[coupled >= n // 2]
        a = int(low[-1]) + 1 if low.size else 0
        b = int(high[0]) if high.size else n
        self.span = (slice(0, a), slice(b, n))
        psi, pi = self.pair
        pairing, kick = (np.concatenate((v[:a], v[b:])) for v in (self.pairing, self.kick))
        # psi is gathered in span order, so gamma is one product: on a span of
        # every mode, the full pairing's bit for bit
        gathered, kicked = np.empty_like(pairing), np.empty_like(kick)
        copies = ((gathered[:a], psi[:a]), (gathered[a:], psi[b:]))
        adds = ((pi[:a], kicked[:a]), (pi[b:], kicked[a:]))
        force, copyto, add = self.pot.force, np.copyto, np.add

        def half_kick() -> None:
            """pi += F(gamma) kick over the span, gamma paired over the span."""
            for part, source in copies:
                copyto(part, source)
            np.multiply(force(complex(np.vdot(pairing, gathered))), kick, out=kicked)
            for part, kicks in adds:
                add(part, kicks, out=part)

        self.half_kick = half_kick

    def _bind_interval(self, integ: Integrator, rho_raw: np.ndarray | None) -> None:
        """Bind the views, tables and buffers of one undamped sampling interval."""
        sps, omega = integ.steps_per_sample, self.omega[self.coupled]
        block = min(sps, _BLOCK_STEPS)
        self.lag = sps if self.layout is not None else 0
        # the coupled pair flat and as float64, and the flow's scratch over it
        self.flat, self.view = self.raw[: self.pair.size], self.pair.view(np.float64)
        self.swapped = self.view[::-1]
        self.rotated = self.scratch[: self.view.size].reshape(self.view.shape)
        table = None
        if rho_raw is not None:
            table = self.table = _block_table(omega, integ.dt, block)
            # conj of the pairing over psi_C and pi_C, to weight the flat pair
            self.conj_read = np.tile(np.conj(self.read), 2)
            self.coupled_kick = self.kick[self.coupled]
            # a block's one flat buffer over C: the weighted pair, then its
            # kicks, and its (re, im) columns and (2, |C|) views
            self.buffer = np.empty(2 * omega.size, dtype=complex)
            self.columns = self.buffer.view(np.float64).reshape(-1, 2)
            self.kicks = self.buffer.reshape(2, -1)
            # memory K_n: gamma of R^n (0, kick); real, since the pairing
            # and the kick are both real multiples of rho_raw
            weight = (0.5 * integ.dt * self.scale) * np.abs(rho_raw[self.coupled]) ** 2
            memory = (table[:, omega.size:] @ weight).tolist()
            # lags[i] = (K_i, ..., K_1), the memory that gamma_i reads
            self.lags = [memory[i:0:-1] for i in range(block + 1)]

        def bind(steps: int) -> tuple:
            """(steps, table rows, their transpose, flow tables) of a block."""
            rows = None if table is None else table[: steps + 1]
            return (steps, rows, None if rows is None else rows.T,
                    *_rotation_tables(omega, steps * integ.dt))

        # the interval's blocks: as many full ones as fit, then the remainder
        self.plan = [bind(block)] * (sps // block)
        if sps % block:
            self.plan.append(bind(sps % block))

    def _in_order(self, values: np.ndarray) -> np.ndarray:
        """Per-mode values (trailing axes over the grid), flattened into the core order."""
        flat = values.reshape(*values.shape[: values.ndim - self.grid.dim], -1)
        return flat if self.order is None else np.take(flat, self.order, axis=-1)

    def split(self, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (2, |C|) coupled pair and the (2, N - |C|) rest, as views of a raw array."""
        count = 2 * self.coupled.stop
        return raw[:count].reshape(2, -1), raw[count:].reshape(2, -1)

    def to_raw(self, psi: np.ndarray, pi: np.ndarray) -> np.ndarray:
        """The raw pair of two fields, flat in the core's layout."""
        flat = self.grid.raw_fft(np.stack((psi, pi))).reshape(-1)
        return flat if self.layout is None else flat[self.layout]

    def to_fields(self, raw: np.ndarray) -> np.ndarray:
        """Position-space (psi, pi) of a raw pair in the core's layout; undoes :meth:`to_raw`."""
        if self.layout is None:
            return self.grid.raw_ifft(raw.reshape(2, *self.grid.shape))
        # undo the layout into the array that the inverse transform fills
        fields = np.empty_like(raw)
        fields[self.layout] = raw
        fields = fields.reshape(2, *self.grid.shape)
        return self.grid.raw_ifft(fields, out=fields)

    def load(self, psi: np.ndarray, pi: np.ndarray) -> None:
        """Start the core's run at the fields (psi, pi)."""
        self.raw[:] = self.to_raw(psi, pi)
        self.pending, self.gamma = 0, None
        # a sponge core holds its sample's fields: the data at t0, later the damped buffer
        self.sampled = None if self.damp is None else (psi, pi)

    def fields(self):
        """Position-space (psi, pi) of the sample: a sponge core's held pair, else the synced state's."""
        if self.sampled is not None:
            return self.sampled
        self.sync()
        return self.to_fields(self.raw)

    def state(self, t: float) -> FieldState:
        """The current sample, at time t, as a :class:`FieldState` of :meth:`fields`."""
        psi, pi = self.fields()
        return FieldState(self.grid, psi, pi, t)

    def sync(self) -> None:
        """Flow the lagging rest of the core's state by its pending steps."""
        if self.pending:
            tables = self._rest_flows.get(self.pending)
            if tables is None:
                tables = _rotation_tables(self.omega[self.rest], self.pending * self.integ.dt)
                self._rest_flows[self.pending] = tables
            view = self.rest_pair.view(np.float64)
            self._flow(view, *tables, self.scratch[: view.size].reshape(view.shape))
            self.pending = 0

    def coupling(self) -> complex:
        """gamma = <rho, psi> of the state: as handed on, else paired over the coupled modes."""
        if self.gamma is None:
            return complex(np.vdot(self.read, self.pair[0]))
        return self.gamma

    def coupling_terms(self) -> tuple[complex, complex, float]:
        """gamma, F(gamma) and U(gamma) of the state; zeros without a coupling."""
        if self.pairing is None:
            return 0j, 0j, 0.0
        g = self.coupling()
        return g, self.pot.force(g), self.pot.value(g)

    def quadratic(self, pair: np.ndarray, weight: np.ndarray) -> tuple[float, float]:
        """The quadratic part of H, and Q, of a (2, modes) raw pair; ``weight`` is |xi|^2 + m^2."""
        psi, pi = pair
        quadratic = np.vdot(pi, pi).real + np.vdot(psi, weight * psi).real
        return 0.5 * self.scale * float(quadratic), -self.scale * float(np.vdot(psi, pi).imag)

    def _flow(self, view: np.ndarray, cos: np.ndarray, sin: np.ndarray, rotated: np.ndarray) -> None:
        """Free flow in place of the float64 view of a raw pair, by the tables' tau."""
        np.multiply(sin, view[::-1], out=rotated)
        view *= cos
        view += rotated

    def advance(self) -> None:
        """Take one sampling interval of Strang steps of the core's state in place.

        Without a sponge the steps go in block updates of at most
        _BLOCK_STEPS steps each.  A kick moves only pi,
        always along the raw vector e = kick; gamma reads only psi; the free
        flow R is diagonal per mode.  So a block of s steps from the start
        x0, with kick weights c = (d_0, 2 d_1, ..., 2 d_{s-1}, d_s) and
        d_j = F(gamma_j), is:

        * gamma_i = b_i + sum_{j<i} K_{i-j} c_j, where b_i is gamma of
          R^i x0 (one product of x0 with the block table) and K is
          the memory, so the d_j follow from a scalar recurrence;
        * the end state is R^s x0 + sum_j c_j R^{s-j} (0, e), the sum again
          one product with the table.

        Both products, the pairing, the kicks and the free flow touch only
        the coupled pair; gamma_s of the last block is handed on.  With a
        sponge the steps go one by one, each ending with the damping
        multiply in position space, and the core holds the damped
        position-space fields after the last step as its sample's.
        """
        if self.damp is not None:
            self.sampled = self._damped_steps()
            return
        # Both products are real GEMMs against the (re, im) columns of a
        # complex vector viewed as float64.  With the kick or pairing folded
        # into a complex table they would be complex GEMVs, which OpenBLAS
        # splits over threads at this size: slower on two threads than on
        # one, with first calls of ~10 ms.
        view, swapped, rotated = self.view, self.swapped, self.rotated
        if self.kick is not None:
            flat, buffer, columns, kicks = self.flat, self.buffer, self.columns, self.kicks
            kick = self.coupled_kick
            conj_read, force, lags = self.conj_read, self.pot.force, self.lags
        for steps, rows, rows_t, cos, sin in self.plan:
            if rows is not None:
                np.multiply(conj_read, flat, out=buffer)
                b = (rows @ columns).view(np.complex128)
                weights: list[complex] = []
                for i, g in enumerate(b.ravel().tolist()):
                    g += sum(map(mul, lags[i], weights))
                    d = force(g)
                    weights.append(2.0 * d if 0 < i < steps else d)
                c = np.array(weights[::-1]).view(np.float64).reshape(-1, 2)
                # the (pi, psi) halves of sum_j c_j R^{s-j} (0, 1), per coupled mode
                sums = (rows_t @ c).view(np.complex128).reshape(2, -1)
                np.multiply(sums[::-1], kick, out=kicks)
            np.multiply(sin, swapped, out=rotated)
            view *= cos
            view += rotated
            if rows is not None:
                flat += buffer
        if self.kick is not None:
            self.gamma = g
        self.pending += self.lag

    def _damped_steps(self) -> np.ndarray:
        """An interval's Strang steps one by one, each followed by the sponge damping.

        The round trip transforms, in the grid's shape, from the state into
        the core's position-space buffer and back; the buffer, left holding
        the last step's damped fields, is returned for the core to hold.
        """
        half_kick, damp, flow = self.half_kick, self.damp, self._flow
        inverse, forward = self.round_trip
        cos, sin = self.step_flow
        view, rotated = self.pair.view(np.float64), self.scratch.reshape(2, -1)
        damped = self.position.view(np.float64).reshape(2, -1)
        for _ in range(self.integ.steps_per_sample):
            if half_kick is not None:
                half_kick()
            flow(view, cos, sin, rotated)
            if half_kick is not None:
                half_kick()
            for apply in inverse:
                apply()
            damped *= damp
            for apply in forward:
                apply()
        return self.position

    def samples(self, T: float, t0: float):
        """Advance the loaded state over the :func:`_sample_count` intervals covering T.

        Yields the time of each sample: t0, then t0 + steps done * dt after
        every steps_per_sample steps, each interval one call of
        :meth:`advance`.  A sample is read off the core (:meth:`coupling`,
        :meth:`fields`, :meth:`state`) before the generator resumes.
        """
        sps, advance = self.integ.steps_per_sample, self.advance
        yield t0
        for done in range(sps, _sample_count(self.integ, T) * sps + 1, sps):
            advance()
            yield t0 + done * self.integ.dt


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


# sampled evolution ---------------------------------------------------------


class _Recorder:
    """The reader of :func:`evolve`'s samples: the observables of one system, sample by sample."""

    def __init__(self, core: _StrangCore, observers: Observers):
        self.core = core
        self.obs = observers
        self.rest: tuple[float, float] | None = None
        sponge = core.integ.sponge
        self.ball = None
        if sponge is not None:
            grid = core.grid
            # the ball's flat indices, i xi per axis shaped to broadcast over
            # the grid, and one grid-shaped scratch for the gradient rows
            self.ball = np.flatnonzero(grid.radius <= sponge.inner_radius)
            self.ixi = []
            for axis, xi in enumerate(grid.wavenumbers):
                shape = [1] * grid.dim
                shape[axis] = grid.points_per_axis
                self.ixi.append(1j * xi.reshape(shape))
            self.gradient = np.empty(grid.shape, dtype=complex)
        self.times: list[float] = []
        self.gamma: list[complex] = []
        self.force: list[complex] = []
        self.energy: list[float] = []
        self.charge: list[float] = []
        self.seminorms: dict[str, list[float]] = {
            spec.label: [] for spec in observers.seminorm_specs
        }
        self.snapshots: list[FieldState] = []

    def record(self, t: float) -> None:
        """Record the core's current sample, at time t.

        The sample's :class:`FieldState` is built only when a seminorm
        series or a due snapshot needs it.
        """
        core = self.core
        g, f, u_val = core.coupling_terms()
        if self.ball is None:
            if self.rest is None:
                # outside C the free flow keeps each mode's share
                self.rest = core.quadratic(core.rest_pair, core.rest_weight)
            h, q = core.quadratic(core.pair, core.weight)
            h, q = h + self.rest[0] + u_val, q + self.rest[1]
        else:
            h, q = self._ball_observables(u_val)
        _require_finite(t, h, abs(g))
        stride = self.obs.snapshot_stride
        due = stride > 0 and len(self.times) % stride == 0
        self.times.append(t)
        self.gamma.append(g)
        self.force.append(f)
        self.energy.append(h)
        self.charge.append(q)
        if self.obs.seminorm_specs or due:
            state = core.state(t)
            for spec in self.obs.seminorm_specs:
                self.seminorms[spec.label].append(local_seminorm(state, spec, core.m))
            if due:
                self.snapshots.append(state)

    def _ball_observables(self, u_val: float) -> tuple[float, float]:
        """Energy and charge of a sponge core's sample, restricted to the observation ball.

        psi, pi and each gradient row are gathered at the ball's points
        first (``take`` reads the elements that a boolean mask would, in the
        same order), so the density and its sum cover those points only.
        """
        core, ball, gradient = self.core, self.ball, self.gradient
        grid, m = core.grid, core.m
        psi, pi = (np.take(field, ball) for field in core.fields())
        psi_raw = core.pair[0].reshape(grid.shape)
        grad_sq = np.zeros(psi.shape)
        for ixi in self.ixi:
            grid.raw_ifft(np.multiply(ixi, psi_raw, out=gradient), out=gradient)
            grad_sq += np.abs(np.take(gradient, ball)) ** 2
        density = np.abs(pi) ** 2 + grad_sq + m * m * np.abs(psi) ** 2
        h = 0.5 * grid.cell_volume * float(density.sum()) + u_val
        q = -grid.cell_volume * float(np.vdot(psi, pi).imag)
        return h, q

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
            sponge=integ.sponge,
        )


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
    core, _ = _loaded_core(state, rho, pot, integ, T, m)
    rec = _Recorder(core, observers or Observers())
    for t in core.samples(T, state.time):
        rec.record(t)
    return rec.build()


def snapshots(
    state: FieldState,
    rho: CouplingProfile | None,
    pot: PolynomialPotential | None,
    integ: Integrator,
    T: float,
    stride: int,
    m: float = 1.0,
) -> list[FieldState]:
    """The snapshots of ``evolve(..., Observers(snapshot_stride=stride), m)``, bit for bit.

    The run takes the same sampling intervals on the same core, but records
    no per-sample series and ends at its last snapshot.  It aborts as
    :func:`evolve` does at the first sample whose gamma or U(gamma) is
    non-finite; without a coupling there is nothing to read.
    """
    if _require_integer("snapshot stride", stride) < 1:
        raise ValueError(f"snapshot stride={stride} must be at least 1")
    core, count = _loaded_core(state, rho, pot, integ, T, m)
    last = count - count % stride
    taken: list[FieldState] = []
    for i, t in enumerate(core.samples(T, state.time)):
        if rho is not None:
            g = core.coupling()
            _require_finite(t, abs(g), pot.value(g))
        if i % stride == 0:
            taken.append(core.state(t))
            if i == last:
                break
    return taken


def _loaded_core(state: FieldState, rho: CouplingProfile | None,
                 pot: PolynomialPotential | None, integ: Integrator, T: float,
                 m: float) -> tuple[_StrangCore, int]:
    """A core loaded with ``state``, and the :func:`_sample_count` of a run over T.

    The count comes first, so that a bad T fails before the core is built.
    """
    count = _sample_count(integ, T)
    if rho is not None:
        require_same_grid(rho, state)
    core = _StrangCore(state.grid, integ, rho, pot, m)
    core.load(state.psi, state.pi)
    return core, count

