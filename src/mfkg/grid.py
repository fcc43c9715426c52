"""Periodic tensor-product lattices and the spectral transforms on them.

The simulation box is the centered cube [-L/2, L/2)^n with N samples per
axis, used as a proxy for free space: profiles are kept small near the
boundary and observables are read off before wrap-around can reach them.

Forward transforms approximate the continuum Fourier integral with the
e^{-i xi.x} convention, so a real, even, centered profile transforms to a
real, even spectrum.  Because the grid origin sits at -L/2 and the
wavenumbers are 2 pi k / L, the continuum phase factor collapses to a
(-1)^k checkerboard on top of the plain FFT, which makes the round trip
exact to machine precision.

The plain FFT itself is :meth:`Grid.raw_fft` / :meth:`Grid.raw_ifft`, the
one pair of full-spectrum transforms that everything in the package calls.
They are built from ``numpy.fft`` so that ``import mfkg`` loads no scipy
module, and go one axis at a time in ascending order, which gives
``scipy.fft.fftn`` / ``ifftn``'s results bit for bit on complex input (the
package's recorded trajectories came from scipy.fft).  There is one route
for every input: real input, which in the package is only the coupling
profile rho at set-up, is transformed as complex, so its spectrum is
Hermitian to roundoff rather than exactly.

Fields known to be real have a second pair, :meth:`Grid.half_forward` /
:meth:`Grid.half_inverse`: :meth:`forward` and :meth:`inverse` with the same
checkerboard and cell-volume factors, on half spectra that keep bins 0..N/2
of the last axis (the other bins are the conjugate mirror).  They go one
axis at a time in ``numpy.fft.rfftn`` / ``irfftn``'s order (forward: the
real last axis, then the others from the second last down; inverse: the
others ascending, then the real last one), which gives those functions'
bits without their n-D wrappers' overhead.  Only the candidate profiles of
:class:`mfkg.solitary.ManifoldTable` go through it, and no recorded
trajectory does, so it is not matched to scipy.

:attr:`Grid.shells` groups the lattice into the shells of equal |xi|^2 that
every resolvent sum of :mod:`mfkg.solitary` runs over.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from math import isfinite

import numpy as np

__all__ = ["Grid", "make_grid"]


def _scale_rows(array: np.ndarray, factor: np.ndarray) -> None:
    """array *= factor in place, one row of the factor's shape at a time.

    A multiply that broadcasts the factor over leading axes runs through
    numpy's iterator buffers, a transient of several rows per call; a row
    against the factor is one plain loop.
    """
    for index in np.ndindex(array.shape[: array.ndim - factor.ndim]):
        row = array[index]
        np.multiply(row, factor, out=row)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on a centered cube in dimension 1, 2, or 3."""

    dim: int
    points_per_axis: int
    box_length: float

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be one of 1, 2, 3 (got {self.dim})")
        n = self.points_per_axis
        if n < 8 or n & (n - 1):
            raise ValueError(f"points_per_axis must be a power of two >= 8 (got {n})")
        if not (isfinite(self.box_length) and self.box_length > 0):
            raise ValueError(f"box_length must be finite and positive (got {self.box_length})")

    # geometry ---------------------------------------------------------

    @property
    def spacing(self) -> float:
        """Lattice spacing h = L / N."""
        return self.box_length / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def num_points(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def cell_volume(self) -> float:
        """Quadrature weight h^n of one lattice cell."""
        return self.spacing**self.dim

    @cached_property
    def axis_coords(self) -> tuple[np.ndarray, ...]:
        x = -0.5 * self.box_length + self.spacing * np.arange(self.points_per_axis)
        return (x,) * self.dim

    @cached_property
    def radius(self) -> np.ndarray:
        """Euclidean distance from the box center, shape ``grid.shape``."""
        axes = np.meshgrid(*self.axis_coords, indexing="ij")
        return np.sqrt(sum(a**2 for a in axes))

    # Fourier lattice ----------------------------------------------------

    @cached_property
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Per-axis signed wavenumbers 2 pi k / L, k = -N/2 .. N/2-1, FFT order."""
        xi = 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)
        return (xi,) * self.dim

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|xi|^2 on the full lattice, shape ``grid.shape``."""
        axes = np.meshgrid(*self.wavenumbers, indexing="ij")
        return sum(a**2 for a in axes)

    @cached_property
    def shells(self) -> tuple[np.ndarray, np.ndarray]:
        """(k2, index): the distinct |xi|^2 ascending; k2[index] is k_squared.ravel()."""
        k2, index = np.unique(self.k_squared, return_inverse=True)
        return k2, index.ravel()

    @property
    def nyquist(self) -> float:
        """Largest resolved wavenumber magnitude pi N / L."""
        return np.pi * self.points_per_axis / self.box_length

    @property
    def mode_spacing(self) -> float:
        """Wavenumber spacing 2 pi / L."""
        return 2.0 * np.pi / self.box_length

    @cached_property
    def _transform_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(forward, inverse) factors: the checkerboard times h^n and over h^n."""
        # e^{-i xi_k x_0} with x_0 = -L/2 equals (-1)^k per axis.
        sign = np.where(np.arange(self.points_per_axis) % 2, -1.0, 1.0)
        board = sign
        for _ in range(self.dim - 1):
            board = np.multiply.outer(board, sign)
        return board * self.cell_volume, board / self.cell_volume

    # transforms ---------------------------------------------------------

    def raw_fft(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Plain FFT over the trailing ``dim`` axes; ``scipy.fft.fftn``'s bits on complex input.

        Real input takes the same complex route.  ``out``, when given, is a
        complex array of the input's shape that receives the result.
        """
        return self._raw(values, out, np.fft.fft)

    def raw_ifft(self, spectrum: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Plain inverse FFT over the trailing ``dim`` axes, by the route of :meth:`raw_fft`.

        ``scipy.fft.ifftn``'s bits on complex input.
        """
        return self._raw(spectrum, out, np.fft.ifft)

    def _raw(self, values: np.ndarray, out: np.ndarray | None, transform) -> np.ndarray:
        if out is None:
            out = np.empty(values.shape, dtype=np.result_type(values, 1j))
        for apply in self._bound_passes(transform, values, out):
            apply()
        return out

    def _bound_passes(self, transform, values: np.ndarray, out: np.ndarray, **options) -> tuple:
        """The per-axis calls of one transform of ``values`` into ``out``, bound once.

        The first axis reads ``values`` into ``out`` and the others follow
        in place, ascending; ``options`` (such as ``norm``) go to every
        axis.  A caller that repeats one transform binds them once.
        """
        first = partial(transform, values, axis=-self.dim, out=out, **options)
        return (first, *(partial(transform, out, axis=axis, out=out, **options)
                         for axis in range(1 - self.dim, 0)))

    @property
    def half_shape(self) -> tuple[int, ...]:
        """Shape of a real field's half spectrum: bins 0..N/2 of the last axis."""
        return (*self.shape[:-1], self.points_per_axis // 2 + 1)

    @cached_property
    def _half_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """:attr:`_transform_factors` on the bins of a half spectrum, as complex arrays.

        A real factor would make numpy cast it through a buffer in every
        multiply; a complex one gives the same bits without it.
        """
        half = self.points_per_axis // 2 + 1
        return tuple(np.ascontiguousarray(f[..., :half], dtype=complex)
                     for f in self._transform_factors)

    def half_forward(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """:meth:`forward` of real ``values``, on bins 0..N/2 of the last axis only.

        ``out``, when given, is a complex array of the half spectrum's shape
        that receives the result.
        """
        out = np.fft.rfft(values, axis=-1, out=out)
        for axis in range(-2, -self.dim - 1, -1):
            np.fft.fft(out, axis=axis, out=out)
        _scale_rows(out, self._half_factors[0])
        return out

    def half_inverse(self, half: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The real field whose :meth:`forward` has the half spectrum ``half``.

        ``out``, when given, is a real array of the field's shape that
        receives the result, and ``half`` is then scaled and transformed in
        place, so that a caller with its own buffers allocates no array.
        """
        if out is None:
            half = half * self._half_factors[1]
        else:
            _scale_rows(half, self._half_factors[1])
        for axis in range(-self.dim, -1):
            np.fft.ifft(half, axis=axis, out=half)
        return np.fft.irfft(half, n=self.points_per_axis, axis=-1, out=out)

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Sampled continuum Fourier transform, f_hat(xi) ~ int f e^{-i xi.x} dx.

        Acts on the trailing ``dim`` axes, so a stack (..., *grid.shape) is one call.
        """
        out = self.raw_fft(values)
        out *= self._transform_factors[0]
        return out

    def inverse(self, spectrum: np.ndarray) -> np.ndarray:
        """Exact inverse of :meth:`forward`, on the trailing ``dim`` axes."""
        return self.raw_ifft(spectrum * self._transform_factors[1])

    # quadrature ---------------------------------------------------------

    def dot(self, a: np.ndarray, b: np.ndarray) -> complex:
        """L2 pairing h^n sum conj(a) b."""
        return self.cell_volume * np.vdot(a, b)

    def l2sq(self, values: np.ndarray) -> float:
        return self.cell_volume * float(np.vdot(values, values).real)

    def spectral_l2sq(self, a_hat: np.ndarray) -> float:
        """h^n sum |a|^2 evaluated on the spectrum a_hat (discrete Parseval identity)."""
        return float(np.vdot(a_hat, a_hat).real) / self.box_length**self.dim


def make_grid(dim: int, points_per_axis: int, box_length: float) -> Grid:
    """Build a validated grid; the canonical constructor used by configs."""
    return Grid(dim, points_per_axis, float(box_length))
