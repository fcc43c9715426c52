"""Windowed Fourier diagnostics for trajectory observables.

The attraction statement is spectral: as windows slide to late times, the
spectrum of gamma(t) = <rho, psi(t)> should collapse onto a single bin
inside [-m, m] (or a resonant zero of the coupling).  This module measures
that collapse: windowed transforms, minimal-mass support intervals, peak
concentration ratios, the convolution-support (Titchmarsh) consistency
check between gamma and the force F(gamma), and the shell density of
|rho_hat|^2 at |xi| = sqrt(omega^2 - m^2): over omega^2 it is the
dispersive weight that controls how much spectral mass outside [-m, m]
is tolerable.

Transform convention: amps[k] ~ integral of g(t) e^{+i omega_k t} dt over
the window, so a mode oscillating like e^{-i omega0 t} peaks at +omega0.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from .dynamics import Trajectory, _require_integer
from .fields import CouplingProfile, SeminormSpec
from .potential import PolynomialPotential
from .solitary import ManifoldTable

__all__ = [
    "Spectrum",
    "SupportEstimate",
    "TitchmarshReport",
    "AttractionConfig",
    "WindowReport",
    "AttractionReport",
    "windowed_spectrum",
    "support_estimate",
    "concentration_ratio",
    "semidiscrete_transform",
    "titchmarsh_check",
    "attraction_report",
]

# windowed_spectrum needs at least this many samples in its window
MIN_WINDOW_SAMPLES = 8


@dataclass(eq=False)
class Spectrum:
    """Windowed Fourier transform samples, frequencies ascending."""

    freqs: np.ndarray
    amps: np.ndarray
    t_center: float
    width: float
    sample_dt: float

    @property
    def bin_width(self) -> float:
        return float(self.freqs[1] - self.freqs[0])

    @property
    def nyquist(self) -> float:
        return float(np.pi / self.sample_dt)

    def mass(self) -> float:
        """Total spectral mass, sum |amps|^2 * bin_width."""
        return float(np.sum(np.abs(self.amps) ** 2) * self.bin_width)


def _hann(M: int) -> np.ndarray:
    """Periodic Hann window 0.5 + 0.5 cos(2 pi (j - M/2) / M), j = 0..M-1.

    Summed in the order ``scipy.signal.get_window("hann", M, fftbins=True)``
    uses, so the two agree bit for bit.
    """
    w = np.zeros(M)
    w += 0.5
    w += 0.5 * np.cos(np.linspace(-np.pi, np.pi, M + 1)[:-1])
    return w


def windowed_spectrum(times, values, t_center: float, width: float) -> Spectrum:
    """Tapered Fourier transform of ``values`` over [t_center - w/2, t_center + w/2).

    Sampling must be uniform.  amps[k] = dt * sum_j v_j w_j e^{i omega_k t_j},
    a Riemann approximation of the continuum transform of the tapered signal,
    so Parseval reads sum |amps|^2 d_omega = 2 pi dt sum |v_j w_j|^2.  The
    taper w_j is the periodic Hann window in closed form (see :func:`_hann`).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values)
    if times.ndim != 1 or times.shape != values.shape:
        raise ValueError("times and values must be matching 1d arrays")
    if times.size < 2:
        raise ValueError("need at least two samples")
    dt = float(times[1] - times[0])
    if dt <= 0 or not np.allclose(np.diff(times), dt, rtol=1e-9, atol=1e-12 * max(1.0, abs(dt))):
        raise ValueError("sampling must be uniform and increasing")
    eps = 1e-9 * dt
    lo = t_center - 0.5 * width
    i0 = int(np.searchsorted(times, lo - eps, side="left"))
    i1 = int(np.searchsorted(times, lo + width - eps, side="left"))
    m_samples = i1 - i0
    if m_samples < MIN_WINDOW_SAMPLES:
        raise ValueError(
            f"window [{lo:g}, {lo + width:g}) contains only {m_samples} samples; "
            f"need at least {MIN_WINDOW_SAMPLES}"
        )
    tapered = values[i0:i1] * _hann(m_samples)
    omega = 2.0 * np.pi * np.fft.fftfreq(m_samples, d=dt)
    amps = dt * m_samples * np.fft.ifft(tapered) * np.exp(1j * omega * times[i0])
    return Spectrum(
        freqs=np.fft.fftshift(omega),
        amps=np.fft.fftshift(amps),
        t_center=float(t_center),
        width=float(width),
        sample_dt=dt,
    )


@dataclass(frozen=True)
class SupportEstimate:
    """Shortest frequency interval holding the requested mass fraction."""

    lower: float
    upper: float
    mass_fraction: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


def support_estimate(spec: Spectrum, mass_fraction: float = 0.99) -> SupportEstimate:
    """Minimal contiguous interval carrying >= mass_fraction of the spectral mass."""
    if not 0 < mass_fraction <= 1:
        raise ValueError("mass_fraction must lie in (0, 1]")
    mass = np.abs(spec.amps) ** 2
    total = float(mass.sum())
    if total == 0:
        raise ValueError("spectrum carries no mass")
    target = mass_fraction * total
    prefix = np.concatenate([[0.0], np.cumsum(mass)])
    n = mass.size
    best = (np.inf, 0, n - 1)
    j = 0
    for i in range(n):
        if j < i:
            j = i
        while j < n and prefix[j + 1] - prefix[i] < target - 1e-12 * total:
            j += 1
        if j == n:
            break
        width = spec.freqs[j] - spec.freqs[i]
        if width < best[0]:
            best = (width, i, j)
    _, i, j = best
    return SupportEstimate(float(spec.freqs[i]), float(spec.freqs[j]), mass_fraction)


def concentration_ratio(spec: Spectrum, cluster_bins: int = 3) -> tuple[float, float]:
    """(mass fraction within cluster_bins of the peak bin, peak frequency)."""
    if cluster_bins < 0:
        raise ValueError(f"cluster_bins={cluster_bins} must be nonnegative")
    mass = np.abs(spec.amps) ** 2
    total = float(mass.sum())
    if total == 0:
        raise ValueError("spectrum carries no mass")
    k = int(np.argmax(mass))
    lo = max(0, k - cluster_bins)
    hi = min(mass.size, k + cluster_bins + 1)
    return float(mass[lo:hi].sum() / total), float(spec.freqs[k])


def semidiscrete_transform(rho: CouplingProfile, xi) -> np.ndarray:
    """h * sum_j rho_j e^{-i xi x_j} at arbitrary frequencies (one dimension only).

    Agrees with Grid.forward on lattice frequencies and interpolates between
    them; used to evaluate shell densities off the lattice.
    """
    grid = rho.grid
    if grid.dim != 1:
        raise ValueError("semidiscrete transform is implemented for one dimension")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    x = grid.axis_coords[0]
    return np.exp(-1j * np.outer(xi, x)) @ (grid.cell_volume * rho.values.astype(complex))


def _shell_density(rho: CouplingProfile, eta: float) -> float:
    """|rho_hat|^2 summed over the shell |xi| = eta (the points +-eta), over 2 pi; one dimension only."""
    if eta <= 0:
        raise ValueError("shell radius must be positive")
    vals = semidiscrete_transform(rho, np.array([eta, -eta]))
    return float(np.sum(np.abs(vals) ** 2) / (2.0 * np.pi))


@dataclass(frozen=True)
class TitchmarshReport:
    """Support endpoints of the gamma and force spectra against convolution arithmetic.

    For a polynomial force of degree 2p-1 and supp of the gamma transform in
    [a, b], the force transform is supported in [pa - (p-1)b, pb - (p-1)a],
    with equality at the endpoints (supports add under convolution).
    Deviations are signed, (estimated - predicted) / bin_width.
    """

    gamma_support: tuple[float, float]
    force_support: tuple[float, float]
    predicted_support: tuple[float, float]
    lower_deviation_bins: float
    upper_deviation_bins: float
    bin_width: float
    degree: int


def titchmarsh_check(
    times,
    gamma,
    pot: PolynomialPotential,
    t_center: float,
    width: float,
    mass_fraction: float = 0.99,
) -> TitchmarshReport:
    gamma = np.asarray(gamma, dtype=complex)
    force = pot.force(gamma)
    spec_g = windowed_spectrum(times, gamma, t_center, width)
    spec_f = windowed_spectrum(times, force, t_center, width)
    est_g = support_estimate(spec_g, mass_fraction)
    a, b = est_g.lower, est_g.upper
    if b - a < 4.0 * spec_g.bin_width:
        warnings.warn(
            "gamma band narrower than four bins; support endpoints are resolution limited",
            stacklevel=2,
        )
    p = pot.degree
    predicted = (p * a - (p - 1) * b, p * b - (p - 1) * a)
    if max(abs(predicted[0]), abs(predicted[1])) > spec_f.nyquist:
        raise ValueError(
            f"sampling too coarse: predicted force support {predicted} extends beyond "
            f"the sampling bandwidth {spec_f.nyquist:g}"
        )
    est_f = support_estimate(spec_f, mass_fraction)
    return TitchmarshReport(
        gamma_support=(a, b),
        force_support=(est_f.lower, est_f.upper),
        predicted_support=predicted,
        lower_deviation_bins=(est_f.lower - predicted[0]) / spec_f.bin_width,
        upper_deviation_bins=(est_f.upper - predicted[1]) / spec_f.bin_width,
        bin_width=spec_f.bin_width,
        degree=p,
    )


@dataclass(frozen=True)
class AttractionConfig:
    """What to measure when probing convergence to the solitary manifold.

    ``omega_grid`` holds the manifold's candidate frequencies (None means
    ``default_omega_grid(m)``); spectral mass near each of its embedded
    entries, |omega| > m, counts as inside the allowed band.
    """

    window_width: float
    n_windows: int = 3
    mass_fraction: float = 0.99
    cluster_bins: int = 3
    exclusion_bins: int = 3
    seminorm: SeminormSpec | None = None
    measure_distance: bool = True
    omega_grid: np.ndarray | None = None
    use_global_norm: bool = False

    def __post_init__(self) -> None:
        if not (isfinite(self.window_width) and self.window_width > 0):
            raise ValueError(f"window_width={self.window_width} must be finite and positive")
        if _require_integer("n_windows", self.n_windows) < 1:
            raise ValueError(f"n_windows={self.n_windows} must be at least 1")
        if not 0 < self.mass_fraction <= 1:
            raise ValueError(f"mass_fraction={self.mass_fraction} must lie in (0, 1]")
        for name in ("cluster_bins", "exclusion_bins"):
            if _require_integer(name, getattr(self, name)) < 0:
                raise ValueError(f"{name}={getattr(self, name)} must be nonnegative")


@dataclass(eq=False)
class WindowReport:
    """Spectral statistics of one window.

    ``past_horizon`` is True when the window ends after the report's
    ``horizon_time``, so wrapped-around radiation may enter its statistics.
    """

    t_center: float
    dominant_frequency: float
    concentration: float
    outside_mass_fraction: float
    support: tuple[float, float]
    past_horizon: bool


@dataclass(eq=False)
class AttractionReport:
    """Per-window spectral collapse measures plus manifold distances at snapshots.

    ``horizon_time`` is the earliest time radiation can wrap around the torus
    and re-enter the observation ball (None when a sponge absorbs it); window
    statistics past the horizon on an undamped run measure the box, not the
    attractor, and each such window carries ``past_horizon``.  ``trivial``
    flags a run whose coupling never activated.
    """

    windows: list[WindowReport]
    trivial: bool
    bin_width: float
    sponge_active: bool
    horizon_time: float | None
    distance_times: np.ndarray | None = None
    distances: np.ndarray | None = None
    best_omegas: list = field(default_factory=list)


def _window_report(
    spec: Spectrum, cfg: AttractionConfig, m: float, past_horizon: bool
) -> WindowReport:
    mass = np.abs(spec.amps) ** 2
    total = float(mass.sum())
    if total == 0:
        return WindowReport(spec.t_center, 0.0, 0.0, 0.0, (0.0, 0.0), past_horizon)
    conc, peak = concentration_ratio(spec, cfg.cluster_bins)
    est = support_estimate(spec, cfg.mass_fraction)
    delta = cfg.exclusion_bins * spec.bin_width
    allowed = np.abs(spec.freqs) <= m + delta
    for z in () if cfg.omega_grid is None else cfg.omega_grid:
        if abs(z) > m:
            allowed |= np.abs(spec.freqs - z) <= delta
    outside = float(mass[~allowed].sum() / total)
    return WindowReport(spec.t_center, peak, conc, outside, (est.lower, est.upper), past_horizon)


def attraction_report(
    traj: Trajectory,
    rho: CouplingProfile,
    pot: PolynomialPotential,
    cfg: AttractionConfig,
    m: float = 1.0,
) -> AttractionReport:
    """Distill a trajectory into convergence evidence.

    Spectral windows are the last ``n_windows`` disjoint spans of width
    ``window_width`` ending at the final sample; distances to the manifold
    over the candidates ``cfg.omega_grid`` are evaluated at every stored
    snapshot in the configured seminorm.
    """
    times = np.asarray(traj.times)
    gamma = np.asarray(traj.gamma)
    t_end = float(times[-1])
    span = cfg.n_windows * cfg.window_width
    if t_end - span < float(times[0]) - 1e-9:
        raise ValueError(
            f"trajectory of length {t_end - float(times[0]):g} cannot hold "
            f"{cfg.n_windows} windows of width {cfg.window_width:g}"
        )
    trivial = bool(np.max(np.abs(gamma)) < 1e-12)
    sponge_active = traj.sponge is not None
    horizon = None
    if not sponge_active and cfg.seminorm is not None:
        box = rho.grid.box_length
        horizon = box - 2.0 * (cfg.seminorm.radius + cfg.seminorm.cutoff_width)

    windows = []
    for j in range(cfg.n_windows):
        center = t_end - (cfg.n_windows - j - 0.5) * cfg.window_width
        spec = windowed_spectrum(times, gamma, center, cfg.window_width)
        past = horizon is not None and center + 0.5 * cfg.window_width > horizon
        windows.append(_window_report(spec, cfg, m, past))

    report = AttractionReport(
        windows=windows,
        trivial=trivial,
        bin_width=2.0 * np.pi / cfg.window_width,
        sponge_active=sponge_active,
        horizon_time=horizon,
    )
    if cfg.measure_distance and traj.snapshots:
        spec = None if cfg.use_global_norm else cfg.seminorm
        table = ManifoldTable(rho, pot, spec, cfg.omega_grid, m)
        report.distance_times, report.distances, report.best_omegas = table.distances(
            traj.snapshots)
    return report
