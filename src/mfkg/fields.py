"""Phase-space states, coupling profiles, and energy-type norms.

A state is a pair Psi = (psi, pi) of complex fields on a :class:`Grid`.
The conserved functionals and the norms used throughout are

    H(Psi)   = 1/2 int |pi|^2 + |grad psi|^2 + m^2 |psi|^2 + U(<rho, psi>),
    Q(Psi)   = i/2 int (conj(psi) pi - conj(pi) psi),
    ||Psi||_E^2 = ||pi||^2 + ||grad psi||^2 + m^2 ||psi||^2,

with <rho, psi> = int conj(rho) psi the scalar coupling amplitude.  Local
convergence is measured by a smoothed, windowed surrogate seminorm: fields
are multiplied by a raised-cosine cutoff supported on |x| <= R + w and
weighted by fractional powers of (m^2 - Laplacian) in Fourier space.  This
module owns that window and those weights (``_seminorm_weights``, also read
by :class:`mfkg.solitary.ManifoldTable`), and the one rule for which modes
rho couples (:func:`coupled_modes`), read by the stepping core and the
manifold table.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isfinite
from operator import index

import numpy as np

from .grid import Grid

__all__ = [
    "FieldState",
    "CouplingProfile",
    "SeminormSpec",
    "zero_state",
    "zero_pad",
    "require_same_grid",
    "inner_product",
    "energy",
    "charge",
    "energy_norm",
    "smooth_cutoff",
    "local_seminorm",
]

# A mode is coupled when |rho| in Fourier space exceeds this fraction of its
# largest entry.  The transform of rho carries a roundoff of about this size
# relative to that entry, so a smaller coefficient is roundoff, not coupling.
_COUPLED_FRAC = float(np.finfo(np.float64).eps)


def _require_mass(m: float) -> None:
    """The one check of the mass m: a ValueError unless it is finite and positive."""
    if not (cmath.isfinite(m) and m > 0):
        raise ValueError(f"m={m} must be finite and positive")


def coupled_modes(spectrum: np.ndarray) -> np.ndarray:
    """Mask of the coupled modes of a transform of rho (raw or continuum scaled)."""
    size = np.abs(spectrum)
    return size > _COUPLED_FRAC * size.max()


@dataclass(frozen=True, eq=False)
class FieldState:
    """Immutable phase-space point (psi, pi) at a given time."""

    grid: Grid
    psi: np.ndarray
    pi: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        psi = np.array(self.psi, dtype=np.complex128)
        pi = np.array(self.pi, dtype=np.complex128)
        if psi.shape != self.grid.shape or pi.shape != self.grid.shape:
            raise ValueError(
                f"field shape {psi.shape}/{pi.shape} does not match grid {self.grid.shape}"
            )
        if not (np.isfinite(psi.view(np.float64)).all() and np.isfinite(pi.view(np.float64)).all()):
            raise ValueError("fields must be finite")
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "pi", pi)

    def rotated(self, theta: float) -> "FieldState":
        """Global gauge rotation e^{i theta} Psi."""
        phase = np.exp(1j * theta)
        return FieldState(self.grid, phase * self.psi, phase * self.pi, self.time)


def zero_state(grid: Grid, time: float = 0.0) -> FieldState:
    z = np.zeros(grid.shape, dtype=np.complex128)
    return FieldState(grid, z, z.copy(), time)


def require_same_grid(*objects) -> Grid:
    grids = [o.grid for o in objects]
    first = grids[0]
    for g in grids[1:]:
        if g != first:
            raise ValueError(f"grid mismatch: {first} vs {g}")
    return first


def zero_pad(state: FieldState, rho: CouplingProfile,
             factor: int) -> tuple[FieldState, CouplingProfile]:
    """(psi, pi) and rho embedded into a box ``factor`` times longer, at the same spacing.

    ``factor`` is a power of two, so the larger grid has N_big = factor N
    points per axis.  Each field starts at index N_big/2 - N/2 on every axis:
    the grids' :attr:`Grid.axis_coords` start at -L/2, so values at equal
    coordinates agree, and every other point is exactly 0.  The state keeps
    its time.
    """
    require_same_grid(state, rho)
    try:
        factor = index(factor)
    except TypeError:
        raise ValueError(f"factor={factor!r} must be an integer") from None
    if factor < 1 or factor & (factor - 1):
        raise ValueError(f"factor={factor} must be a power of two")
    grid = state.grid
    big = Grid(grid.dim, factor * grid.points_per_axis, factor * grid.box_length)
    start = big.points_per_axis // 2 - grid.points_per_axis // 2
    inner = (slice(start, start + grid.points_per_axis),) * grid.dim

    def embed(values: np.ndarray) -> np.ndarray:
        out = np.zeros(big.shape, dtype=values.dtype)
        out[inner] = values
        return out

    padded = FieldState(big, embed(state.psi), embed(state.pi), state.time)
    return padded, CouplingProfile.from_values(big, embed(rho.values))


@dataclass(frozen=True, eq=False)
class CouplingProfile:
    """Real, localized coupling profile rho with its cached transform."""

    grid: Grid
    values: np.ndarray
    rho_hat: np.ndarray
    l2_norm_sq: float

    @classmethod
    def from_values(cls, grid: Grid, values: np.ndarray) -> "CouplingProfile":
        if np.iscomplexobj(values):
            raise ValueError("coupling profile must be real, not complex")
        vals = np.array(values, dtype=np.float64)
        if vals.shape != grid.shape:
            raise ValueError(f"profile shape {vals.shape} does not match grid {grid.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("coupling profile must be finite")
        if np.max(np.abs(vals)) == 0.0:
            raise ValueError("coupling profile must not vanish identically")
        rho_hat = grid.forward(vals)
        return cls(grid, vals, rho_hat, grid.l2sq(vals))

    @classmethod
    def from_spectrum(cls, grid: Grid, spectrum: np.ndarray) -> "CouplingProfile":
        """Build from lattice samples of rho_hat; the profile must come out real."""
        vals = grid.inverse(np.asarray(spectrum, dtype=np.complex128))
        # a zero spectrum passes to from_values, which rejects the zero profile
        if np.max(np.abs(vals.imag)) > 1e-10 * np.max(np.abs(vals)):
            raise ValueError("spectrum does not correspond to a real profile")
        return cls.from_values(grid, vals.real)

    @classmethod
    def gaussian(cls, grid: Grid, amplitude: float = 1.0, width: float = 1.0) -> "CouplingProfile":
        """Centered Gaussian with L2 norm ~ |amplitude| (continuum normalization)."""
        if width <= 0:
            raise ValueError("width must be positive")
        norm = (np.pi * width**2) ** (-grid.dim / 4.0)
        vals = amplitude * norm * np.exp(-(grid.radius**2) / (2.0 * width**2))
        return cls.from_values(grid, vals)

    @cached_property
    def max_abs_hat(self) -> float:
        return float(np.max(np.abs(self.rho_hat)))

    @cached_property
    def shell_mass(self) -> np.ndarray:
        """|rho_hat|^2 summed over each |xi|^2 shell of :attr:`Grid.shells`."""
        k2, index = self.grid.shells
        return np.bincount(index, np.abs(self.rho_hat.ravel()) ** 2, k2.size)

    @cached_property
    def coupled_shells(self) -> np.ndarray:
        """Ascending indices of the :attr:`Grid.shells` shells that hold a coupled mode.

        Every other shell holds only roundoff of rho_hat (:func:`coupled_modes`).
        """
        k2, index = self.grid.shells
        count = np.bincount(index, coupled_modes(self.rho_hat.ravel()), k2.size)
        return np.flatnonzero(count)


# basic functionals ------------------------------------------------------


def inner_product(rho: CouplingProfile, state: FieldState) -> complex:
    """Coupling amplitude <rho, psi> = int conj(rho) psi dx."""
    require_same_grid(rho, state)
    return complex(state.grid.dot(rho.values, state.psi))


def charge(state: FieldState) -> float:
    """Conserved U(1) charge i/2 int (conj(psi) pi - conj(pi) psi)."""
    return -float(state.grid.dot(state.psi, state.pi).imag)


def _quadratic_energy_sq(state: FieldState, m: float) -> float:
    grid = state.grid
    psi_hat = grid.forward(state.psi)
    pi_hat = grid.forward(state.pi)
    weight = grid.k_squared + m * m
    return grid.spectral_l2sq(pi_hat) + float(
        np.vdot(psi_hat, weight * psi_hat).real
    ) / grid.box_length**grid.dim


def energy_norm(state: FieldState, m: float = 1.0) -> float:
    """Energy norm: ||Psi||_E^2 = ||pi||^2 + ||grad psi||^2 + m^2 ||psi||^2."""
    _require_mass(m)
    return float(np.sqrt(_quadratic_energy_sq(state, m)))


def energy(state: FieldState, rho: CouplingProfile, pot, m: float = 1.0) -> float:
    """Conserved Hamiltonian 1/2 ||Psi||_E^2 + U(<rho, psi>)."""
    _require_mass(m)
    require_same_grid(rho, state)
    gamma = inner_product(rho, state)
    return 0.5 * _quadratic_energy_sq(state, m) + float(pot.value(gamma))


# windowed, smoothed seminorms --------------------------------------------


def smooth_cutoff(grid: Grid, radius: float, width: float) -> np.ndarray:
    """Raised-cosine window: 1 on |x| <= radius, 0 beyond radius + width."""
    if radius <= 0 or width <= 0:
        raise ValueError("cutoff radius and width must be positive")
    r = grid.radius
    ramp = 0.5 * (1.0 + np.cos(np.pi * np.clip((r - radius) / width, 0.0, 1.0)))
    return np.where(r <= radius, 1.0, np.where(r >= radius + width, 0.0, ramp))


@dataclass(frozen=True)
class SeminormSpec:
    """Parameters of the local smoothed seminorm.

    ``epsilon`` controls spectral smoothing (0 = plain energy norm weights,
    values up to 1 trade a derivative for decay), ``radius`` is the plateau
    of the spatial window and ``cutoff_width`` the raised-cosine ramp.  A
    window with radius + cutoff_width >= L/2 no longer fits in the box and
    is treated as disabled (no spatial localization).

    Monotonicity of the seminorm in ``radius`` is only guaranteed for ramps
    that are wide on the scale 1/m; keep cutoff_width >~ 2/m.
    """

    epsilon: float
    radius: float
    cutoff_width: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1] (got {self.epsilon})")
        if not (isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be finite and positive (got {self.radius})")
        if not (isfinite(self.cutoff_width) and self.cutoff_width > 0):
            raise ValueError(f"cutoff_width must be finite and positive (got {self.cutoff_width})")

    @property
    def label(self) -> str:
        """Name of this spec's series in trajectories and CSV columns (by radius)."""
        return f"seminorm_R{self.radius:g}"

    def cutoff_disabled(self, grid: Grid) -> bool:
        return self.radius + self.cutoff_width >= 0.5 * grid.box_length

    def window(self, grid: Grid) -> np.ndarray | None:
        """Spatial window array, or None in disabled-cutoff mode."""
        if self.cutoff_disabled(grid):
            return None
        return smooth_cutoff(grid, self.radius, self.cutoff_width)


@lru_cache(maxsize=8)
def _seminorm_weights(
    grid: Grid, spec: SeminormSpec | None, m: float
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Read-only (chi, W1, W0) of the seminorm of ``spec``.

    chi is the spatial window (None when disabled), W1 = (m^2 + |xi|^2)^{(1-eps)/2}
    and W0 = (m^2 + |xi|^2)^{-eps/2}; spec=None selects the plain energy norm
    (eps = 0, no window).
    """
    eps = 0.0 if spec is None else spec.epsilon
    sym = grid.k_squared + m * m
    tables = (None if spec is None else spec.window(grid),
              sym ** (0.5 * (1.0 - eps)), sym ** (-0.5 * eps))
    for table in tables:
        if table is not None:
            table.flags.writeable = False
    return tables


def _windowed_weighted_hats(
    state: FieldState, spec: SeminormSpec | None, m: float, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(W1 * (chi psi)_hat, W0 * (chi pi)_hat) with one stacked forward transform.

    The window and weights are the cached tables of :func:`_seminorm_weights`.
    The two hats are the rows of ``out``, a complex (2, *grid.shape) array
    (a fresh one when None), written in place.
    """
    window, w1, w0 = _seminorm_weights(state.grid, spec, m)
    if out is None:
        out = np.empty((2, *state.grid.shape), dtype=complex)
    out[0], out[1] = state.psi, state.pi
    if window is not None:
        out *= window
    psi_w, pi_w = state.grid.forward(out, out=out)
    return np.multiply(w1, psi_w, out=psi_w), np.multiply(w0, pi_w, out=pi_w)


def local_seminorm(state: FieldState, spec: SeminormSpec, m: float = 1.0) -> float:
    """Windowed, spectrally smoothed energy seminorm.

    With epsilon = 0 and the cutoff disabled this reduces exactly to
    :func:`energy_norm`.
    """
    _require_mass(m)
    h1, h0 = _windowed_weighted_hats(state, spec, m)
    return float(np.sqrt(state.grid.spectral_l2sq(h1) + state.grid.spectral_l2sq(h0)))
