"""The solitary-wave manifold: profiles, amplitude condition, distances.

A standing wave psi(t) = phi e^{-i omega t} solves the field equation iff
the profile is proportional to the resolvent applied to the coupling,

    phi_hat(xi) = c rho_hat(xi) / (|xi|^2 + m^2 - omega^2),

and the complex amplitude c satisfies the scalar condition

    s(omega) * alpha(|c|^2 s(omega)^2) = 1,
    s(omega)  = (2 pi)^{-n} int |rho_hat|^2 / (|xi|^2 + m^2 - omega^2) d xi,

evaluated here as a lattice sum.  Profiles exist for |omega| < m, and also
at embedded frequencies |omega| > m where rho_hat vanishes on the resonant
shell |xi| = sqrt(omega^2 - m^2) so the singularity is removable.  The zero
field is always on the manifold.

The resolvent depends on xi only through |xi|^2, so s(omega), the profiles
and the manifold table all sum over the grid's shells of equal |xi|^2
(:attr:`Grid.shells`), with one denominator per shell from ``_resolvent_den``
and its one rule: a term within ``_DEN_FLOOR_FRAC`` m^2 of zero is dropped.
s(omega) and the table's sums run over the coupled shells only
(:attr:`CouplingProfile.coupled_shells`): every term carries rho_hat, and on
the other shells rho_hat is roundoff.  s at any number of frequencies is
one sum per row of reciprocals (``_couplings_of``): :func:`resolvent_coupling`
and :func:`dispersion_curve` build those rows in chunks (``_couplings``), the
table builds its candidates' rows once and keeps those with an amplitude root.

Distances to the manifold are measured through a :class:`ManifoldTable`,
built once from rho, the potential, the seminorm and the frequency grid;
:meth:`ManifoldTable.distances` turns a run's snapshots into distances for
both the ``distance`` and ``spectrum`` experiments.
:func:`manifold_distance` takes its table from a small cache keyed by those
inputs, so repeated calls with one coupling share one table.  The
seminorm's window and Sobolev weights are owned by :mod:`mfkg.fields`,
which builds them once; the table reads them from there.
Two identities carry the table.  The norm of each unit-amplitude candidate
depends only on those inputs, so it is tabulated with s(omega) and the
amplitude roots.  The window operator T = forward o chi o inverse is
self-adjoint (the checkerboard is real and h^n cancels), so the overlap of a
snapshot with every candidate is a weighted sum of conj(rho_hat) against the
adjoint transforms T(W1 psi_w), T(W0 pi_w) of the snapshot: one stacked
round trip per snapshot instead of three transforms per candidate, summed
once per shell.  The candidate profiles are real and run on half spectra,
one per distinct omega^2, so the mirrors +-omega share theirs.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyroots

from .fields import (
    CouplingProfile,
    FieldState,
    SeminormSpec,
    charge,
    energy,
    require_same_grid,
    _require_mass,
    _seminorm_weights,
    _windowed_weighted_hats,
)
from .grid import Grid
from .potential import PolynomialPotential

__all__ = [
    "ManifoldTable",
    "SolitaryWave",
    "resolvent_coupling",
    "resolvent_profile",
    "dispersion_curve",
    "amplitude_roots",
    "build_solitary",
    "stationarity_residual",
    "default_omega_grid",
    "manifold_distance",
]

# Relative size below which rho_hat on a resonant shell counts as vanishing.
SHELL_TOL = 0.05
_DEN_FLOOR_FRAC = 1e-13
# Bounds on the working memory of candidate sums: the most entries of one
# chunk of stacked candidate arrays (profiles over the grid, reciprocals over
# the coupled shells), and the cap on omegas per chunk of profiles.  At the
# distance defaults a chunk is 16 profiles of 2048 points, whose windowed
# round trip took ~6 temporaries of 131-262 KB: glibc trimmed and refaulted
# them on every chunk, ~1300 minor faults per table build.  The build now
# runs every chunk in one set of buffers (``ManifoldTable._chunk_buffers``):
# ~270 faults and 15-25% less build time in the distance body (numpy 2.4.6,
# 2 vCPUs).  Halving the chunk instead gave 60 or 1440 faults, depending on
# the heap that the build started from.
_CHUNK_POINTS = 1 << 15
_MAX_CHUNK = 16


def shell_band(grid: Grid, k_shell: float) -> np.ndarray:
    """Lattice points within one mode spacing of the sphere |xi| = k_shell."""
    return np.abs(np.sqrt(grid.k_squared) - k_shell) <= grid.mode_spacing


def shell_max(rho: CouplingProfile, omega: float, m: float = 1.0) -> float:
    """max |rho_hat| over the discrete resonant shell of a real omega, |omega| > m."""
    k_sq = omega * omega - m * m
    if k_sq <= 0:
        raise ValueError("resonant shells exist only for |omega| > m")
    k_shell = float(np.sqrt(k_sq))
    grid = rho.grid
    if k_shell > grid.nyquist:
        raise ValueError(
            f"resonant shell |xi|={k_shell:g} lies beyond the grid bandwidth {grid.nyquist:g}"
        )
    band = shell_band(grid, k_shell)
    if not band.any():
        return 0.0
    return float(np.max(np.abs(rho.rho_hat[band])))


def _resolvent_den(k2: np.ndarray, omegas: np.ndarray, m: float) -> np.ndarray:
    """|xi|^2 + m^2 - omega^2 per omega (rows) and shell (columns); inf where |den| <= the floor.

    The shells ascend, so a row whose first entry clears the floor needs no test.
    ``_check_real_frequency`` admits a real omega only where the dropped terms are negligible.
    """
    floor = _DEN_FLOOR_FRAC * m * m
    den = (k2 + m * m)[None, :] - (omegas * omegas)[:, None]
    near = np.flatnonzero(den.real[:, 0] <= floor)
    if near.size:
        rows = den[near]
        den[near] = np.where(np.abs(rows) <= floor, np.inf, rows)
    return den


def _inside_gap(omegas, m: float):
    """True where m^2 - omega^2 clears the floor: every term is kept and the omega is admissible."""
    return m * m - omegas * omegas > _DEN_FLOOR_FRAC * m * m


def _check_real_frequency(rho: CouplingProfile, omega: float, m: float) -> None:
    if not cmath.isfinite(omega):
        raise ValueError(f"omega={omega} must be finite")
    if _inside_gap(omega, m):
        return
    if abs(omega) <= m:
        # The xi = 0 shell is dropped by the floor; require rho_hat to be negligible there.
        zero_amp = float(np.abs(rho.rho_hat[(0,) * rho.grid.dim]))
        if zero_amp > SHELL_TOL * rho.max_abs_hat:
            raise ValueError(
                "endpoint |omega| = m not admissible on this grid: the xi=0 mode of "
                f"rho_hat is {zero_amp:.3g}, not negligible"
            )
        return
    peak = shell_max(rho, omega, m)
    if peak > SHELL_TOL * rho.max_abs_hat:
        raise ValueError(
            f"omega={omega:g} is not an admissible embedded frequency: |rho_hat| reaches "
            f"{peak:.3g} on the resonant shell (tolerance {SHELL_TOL:g} relative)"
        )


def _admits(rho: CouplingProfile, omega: float, m: float) -> bool:
    """Whether ``_check_real_frequency`` admits omega."""
    try:
        _check_real_frequency(rho, omega, m)
    except ValueError:
        return False
    return True


def _reciprocals(k2: np.ndarray, omegas: np.ndarray, m: float) -> np.ndarray:
    """1 / (|xi|^2 + m^2 - omega^2) per omega (rows) and shell; 0 where the floor drops the term."""
    # The reciprocal overwrites the denominators.  A second chunk-sized
    # temporary per call let glibc trim and refault the heap top on every
    # call: twice the time of a table scan or polish at the distance defaults
    # after an undamped run.
    recip = _resolvent_den(k2, omegas, m)
    return np.divide(1.0, recip, out=recip)


def _chunks(omegas: np.ndarray, size: int):
    for lo in range(0, omegas.size, size):
        yield slice(lo, lo + size), omegas[lo:lo + size]


def _couplings_of(recip: np.ndarray, mass: np.ndarray, grid: Grid) -> np.ndarray:
    """s per row of reciprocals over the shells of ``mass`` (|rho_hat|^2 per shell).

    A real sum within N eps sum|terms| of zero (N lattice points), the
    roundoff of a designed zero such as the counterexample's embedded
    frequency, is exactly 0.
    """
    # summed row by row, so a row's s does not depend on the rows beside it
    terms = recip * mass
    total = terms.sum(axis=1)
    if not np.iscomplexobj(total):
        bound = grid.num_points * np.finfo(float).eps * np.abs(terms).sum(axis=1)
        total[np.abs(total) <= bound] = 0.0
    return total / grid.box_length**grid.dim


def _couplings(rho: CouplingProfile, omegas: np.ndarray, m: float) -> np.ndarray:
    """s(omega) at each admissible omega, over the coupled shells, in chunks of reciprocals.

    The route of :func:`resolvent_coupling` and :func:`dispersion_curve`.  A
    shell outside :attr:`CouplingProfile.coupled_shells` holds only roundoff
    of rho_hat, so its terms are dropped.
    """
    shells = rho.coupled_shells
    k2, mass = rho.grid.shells[0][shells], rho.shell_mass[shells]
    out = np.empty(omegas.shape, dtype=np.result_type(omegas, float))
    for part, w in _chunks(omegas, max(1, _CHUNK_POINTS // k2.size)):
        out[part] = _couplings_of(_reciprocals(k2, w, m), mass, rho.grid)
    return out


def resolvent_coupling(rho: CouplingProfile, omega, m: float = 1.0):
    """The scalar s(omega) = <rho, resolvent rho> as a sum over the |xi|^2 shells.

    Real for real admissible omega (|omega| < m, the endpoints, or embedded
    frequencies where rho_hat vanishes on the resonant shell); complex omega
    in the upper half-plane are evaluated directly.  A real sum that is
    roundoff of zero is exactly 0 (see ``_couplings_of``).
    """
    _require_mass(m)
    complex_omega = isinstance(omega, complex) and omega.imag != 0.0
    if complex_omega and not (cmath.isfinite(omega) and omega.imag > 0):
        raise ValueError(f"complex omega={omega} must be finite and lie in the upper half-plane")
    if not complex_omega:
        omega = float(np.real(omega))
        _check_real_frequency(rho, omega, m)
    value = _couplings(rho, np.array([omega]), m)[0]
    return complex(value) if complex_omega else float(value)


def resolvent_profile(rho: CouplingProfile, omega: float, m: float = 1.0) -> np.ndarray:
    """Profile of the unit-amplitude standing wave, (m^2 - Lap - omega^2)^{-1} rho."""
    _require_mass(m)
    grid = rho.grid
    omega = float(np.real(omega))
    _check_real_frequency(rho, omega, m)
    den = _resolvent_den(grid.shells[0], np.array([omega]), m)[0]
    return grid.inverse(rho.rho_hat / den[grid.shells[1]].reshape(grid.shape))


def dispersion_curve(rho: CouplingProfile, omegas, m: float = 1.0) -> np.ndarray:
    """s(omega) at each of ``omegas``; ValueError if one of them is not admissible."""
    _require_mass(m)
    omegas = np.asarray(omegas, dtype=float)
    for omega in omegas[~_inside_gap(omegas, m)]:
        _check_real_frequency(rho, float(omega), m)
    return _couplings(rho, omegas, m)


def amplitude_roots(pot: PolynomialPotential, s: float) -> list[float]:
    """All r = |c|^2 >= 0 with s * alpha(r s^2) = 1 (companion-matrix roots).

    An empty list means no standing wave with this coupling value exists.
    """
    if s == 0:
        raise ValueError("the amplitude condition is degenerate at s = 0")
    # polynomial in r: sum_n (-2 n u_n s^{2n-1}) r^{n-1} - 1 = 0
    coeffs = [-2.0 * (n + 1) * u * s ** (2 * n + 1) for n, u in enumerate(pot.coeffs)]
    coeffs[0] -= 1.0
    roots = polyroots(coeffs)
    out = []
    for z in roots:
        if abs(z.imag) > 1e-9 * (1.0 + abs(z)):
            continue
        r = float(z.real)
        if r < 0 and r > -1e-12:
            r = 0.0
        if r < 0:
            continue
        # guard against spurious roots from near-degenerate leading coefficients
        if abs(s * pot.force_coefficient(r * s * s) - 1.0) < 1e-8:
            out.append(r)
    out.sort()
    return out


@dataclass(eq=False)
class SolitaryWave:
    """A standing wave phi e^{-i omega t} together with its invariants."""

    grid: Grid
    omega: float
    amplitude: complex  # c = <rho, phi> / s(omega)
    profile: np.ndarray
    energy: float
    charge: float

    def initial_state(self, time: float = 0.0) -> FieldState:
        return FieldState(self.grid, self.profile, -1j * self.omega * self.profile, time)

    def state_at(self, t: float) -> FieldState:
        phase = np.exp(-1j * self.omega * t)
        return FieldState(
            self.grid, phase * self.profile, -1j * self.omega * phase * self.profile, t
        )


def build_solitary(
    rho: CouplingProfile,
    pot: PolynomialPotential,
    omega: float,
    theta: float = 0.0,
    m: float = 1.0,
    root_index: int = 0,
) -> SolitaryWave:
    """Construct the standing wave at ``omega`` for the root_index-th amplitude root.

    Roots are sorted ascending in |c|^2.  Raises if no root exists at this
    frequency, or if ``omega`` is outside the admissible set.
    """
    s = resolvent_coupling(rho, omega, m)
    roots = amplitude_roots(pot, s)
    if not roots:
        raise ValueError(f"no standing-wave amplitude exists at omega={omega:g} (s={s:g})")
    if not 0 <= root_index < len(roots):
        raise ValueError(f"root_index {root_index} out of range (found {len(roots)} roots)")
    c = np.sqrt(roots[root_index]) * np.exp(1j * theta)
    profile = c * resolvent_profile(rho, omega, m)
    state = FieldState(rho.grid, profile, -1j * omega * profile, 0.0)
    return SolitaryWave(
        grid=rho.grid,
        omega=float(omega),
        amplitude=complex(c),
        profile=profile,
        energy=energy(state, rho, pot, m),
        charge=charge(state),
    )


def stationarity_residual(
    wave: SolitaryWave, rho: CouplingProfile, pot: PolynomialPotential, m: float = 1.0
) -> float:
    """Relative L2 residual of the profile equation.

    Zero (to roundoff) for waves built by :func:`build_solitary`; useful as an
    independent check because it applies the operator rather than inverting it.
    """
    _require_mass(m)
    grid = wave.grid
    phi_hat = grid.forward(wave.profile)
    lin = grid.inverse(-(grid.k_squared + m * m - wave.omega**2) * phi_hat)
    g = complex(grid.dot(rho.values, wave.profile))
    res = lin + pot.force(g) * rho.values
    norm = np.sqrt(grid.l2sq(wave.profile))
    if norm == 0:
        return float(np.sqrt(grid.l2sq(res)))
    return float(np.sqrt(grid.l2sq(res)) / norm)


def default_omega_grid(m: float = 1.0, zeros: tuple[float, ...] = (), count: int = 201) -> np.ndarray:
    """Frequency candidates for distance scans: (-m, m) interior plus embedded zeros.

    Interior mirrors are exact negatives, and an odd count's centre is +0.0.
    """
    _require_mass(m)
    margin = 0.01 * m
    spaced = np.linspace(-m + margin, m - margin, count)
    # each point is the mean magnitude of its linspace mirror pair
    base = 0.5 * (spaced - spaced[::-1])
    extra = [*zeros, *(-w for w in zeros)]
    if extra:
        return np.concatenate([base, np.asarray(sorted(extra), dtype=float)])
    return base


# evaluation cap of the bounded polish (maxiter of minimize_scalar's "bounded")
_BRENT_MAXFUN = 500
# the most polish frequencies whose weights a table keeps; the oldest goes first
_POLISH_CACHE = 1024
# Candidates +-omega are mirrors when they agree to _MIRROR_PITCH m, and their
# squared distances tie within _MIRROR_TIE (||Psi||^2 + d^2); the roundoff gap
# measured on states real up to a global phase is ~1e-13 of ||Psi||^2.
_MIRROR_PITCH = 1e-12
_MIRROR_TIE = 1e-10


def _bounded_brent(func, lo: float, hi: float, xatol: float):
    """(x, f(x)) of Brent's bounded minimisation, scipy 1.17.1's ``_minimize_scalar_bounded``.

    The same arithmetic in the same order (numpy scalars included), so the
    iterates and the evaluation count are bit for bit those of
    ``minimize_scalar(func, bounds=(lo, hi), method="bounded",
    options={"xatol": xatol})``.
    """
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = True
        if golden:  # golden-section step into the larger part
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _BRENT_MAXFUN:
            break
    return xf, fx


class ManifoldTable:
    """Precomputed tables for distances to the solitary manifold.

    Built once from the coupling, the potential, the seminorm and the
    frequency grid; :meth:`distance` then costs one stacked round trip per
    snapshot plus sums over the |xi|^2 shells and the bounded polish.
    :meth:`distance` reads the tables and adds only to the polish cache
    (below), whose entries depend on the frequency alone, so one table
    serves any number of snapshots and callers with the bits of a fresh
    one (see :func:`manifold_distance`).  For a
    candidate omega the unit-amplitude wave is S = (b, -i omega b) with
    b_hat = rho_hat / (|xi|^2 + m^2 - omega^2), and its windowed, weighted
    hats are (W1 T b_hat, -i omega W0 T b_hat) with T = forward o chi o
    inverse.  The table stores s(omega), the amplitude roots and
    base_sq(omega) = ||S||^2 for every admissible grid omega.  T is
    self-adjoint (the checkerboard is real and h^n cancels), so the overlap
    with the state's hats (psi_w, pi_w) is

        <S, Psi> = sum_xi conj(rho_hat) (u1 + i omega u0) / (|xi|^2 + m^2 - omega^2) / L^n

    with u1 = T(W1 psi_w) and u0 = T(W0 pi_w).  Four structures of the
    manifold make every candidate sum cheap:

    * the reciprocal depends on xi only through |xi|^2, so the snapshot's
      terms conj(rho_hat) (u1, u0) are summed once per :attr:`Grid.shells`
      shell (N/2 + 1 for N points in 1-D, far fewer than points in 2-D and
      3-D), and each candidate is one real matmul over shells;
    * the coupling is rank one, so every candidate term carries rho_hat,
      and only the coupled shells (:attr:`CouplingProfile.coupled_shells`,
      those holding a mode with |rho_hat| > eps max |rho_hat|) enter s, the
      profiles and the overlaps: 173 of 1025 at the ``distance`` defaults;
    * s, the roots, the profile and the reciprocals depend on omega only
      through omega^2, so the table builds one reciprocal row and one
      profile per distinct omega^2, shared by the mirrors +-omega (101 for
      the 201 default candidates); base_sq and the roots of +-omega are
      bit-identical.  In the polish, one reciprocal row per frequency
      serves the overlap and, at a frequency new to the polish cache, s,
      the roots and the profile;
    * rho is real and the reciprocal even, so b is real: its window round
      trip runs on half spectra (:meth:`Grid.half_inverse` /
      :meth:`Grid.half_forward`), where the bins 1..N/2-1 of the last
      axis stand for their mirrors as well.

    The admissible frequencies' reciprocal rows are built once and give s;
    those with an amplitude root stay as one (frequencies x coupled shells)
    block, read by each chunk of profiles (at most ``_CHUNK_POINTS``
    entries) and by every snapshot's scan, one matmul: 101 x 173 floats in
    1-D at the ``distance`` defaults, 101 x 7124 (5.8 MB) on a 256^2 grid
    of length 128 with a width-1 Gaussian rho.

    The polish cache keeps, per polish frequency, what does not depend on
    the snapshot: (r ||S||^2, 2 sqrt(r)) for each amplitude root r, keyed
    by the exact float omega in a plain dict of at most ``_POLISH_CACHE``
    entries, the oldest dropped first.  Brent's first two frequencies
    depend only on the bracket, so snapshots that share a best candidate
    evaluate the same omegas: 16-28 of the ~100 polish evaluations of a
    ``distance`` run at its defaults, 33-41% of them with a snapshot every
    10 samples.  A hit recomputes only the reciprocal row (~4 us) for the
    overlap.  The dict holds floats and tuples alone, no reference back
    to the table, so a dropped table is freed at once.

    spec=None measures in the global energy norm.
    """

    def __init__(
        self,
        rho: CouplingProfile,
        pot: PolynomialPotential,
        spec: SeminormSpec | None,
        omega_grid=None,
        m: float = 1.0,
    ) -> None:
        _require_mass(m)
        grid = rho.grid
        self.rho, self.pot, self.spec, self.m = rho, pot, spec, m
        if omega_grid is None:
            omega_grid = default_omega_grid(m)
        self.omegas = np.asarray(omega_grid, dtype=float)
        self._box_vol = grid.box_length**grid.dim
        self._window, self._w1, self._w0 = _seminorm_weights(grid, spec, m)
        # the coupled shells, their |xi|^2 and |rho_hat|^2, each point's
        # position among them (shells.size off them), and the points on them
        # with their position and conj(rho_hat)
        shells = rho.coupled_shells
        self._k2, self._mass = grid.shells[0][shells], rho.shell_mass[shells]
        position = np.full(grid.shells[0].size, shells.size)
        position[shells] = np.arange(shells.size)
        position = position[grid.shells[1]]
        self._points = np.flatnonzero(position < shells.size)
        self._point_shell = position[self._points]
        self._conj_rho = np.conj(rho.rho_hat.ravel()[self._points])
        # profiles on half spectra: each bin's coupled shell and rho_hat there
        # (0 off the coupled shells), and the weights W1^2, W0^2 with the
        # bins 1..N/2-1 of the last axis counted twice, one row per real and
        # imaginary part of each bin
        half = grid.points_per_axis // 2 + 1
        half_position = position.reshape(grid.shape)[..., :half].ravel()
        coupled = half_position < shells.size
        self._half_position = np.where(coupled, half_position, 0)
        self._rho_half = np.where(coupled, rho.rho_hat[..., :half].ravel(), 0.0)
        twice = np.full(half, 2.0)
        twice[[0, -1]] = 1.0
        self._half_weights = np.repeat(np.stack(
            [(w * w)[..., :half] * twice for w in (self._w1, self._w0)]).reshape(2, -1).T, 2, axis=0)

        # s, the roots, the profile and the reciprocals depend on omega only
        # through omega^2, and mirrors +-omega share it bit for bit: each is
        # computed once per distinct omega^2, at its first candidate
        _, first, distinct = np.unique(self.omegas * self.omegas, return_index=True,
                                       return_inverse=True)
        reps = self.omegas[first]
        admits = np.array([_admits(rho, float(w), m) for w in reps], dtype=bool)
        # their reciprocal rows, built once: they give s, and those with a
        # root give the profiles and every snapshot's scan
        recip = _reciprocals(self._k2, reps[admits], m)
        s = np.zeros(reps.size)
        s[admits] = _couplings_of(recip, self._mass, grid)
        rep_roots = [self._roots(value) if ok else () for ok, value in zip(admits, s)]
        self.roots = tuple(rep_roots[i] for i in distinct)
        has_roots = np.array([bool(r) for r in rep_roots], dtype=bool)
        self._admissible = np.flatnonzero(has_roots[distinct])
        # the scan's frequencies: one per distinct omega^2 with a root, and
        # each admissible candidate's row among them
        scan = reps[has_roots]
        self._recip = recip[has_roots[admits]]
        self._rep_of = (np.cumsum(has_roots) - 1)[distinct[self._admissible]]
        # ||S||^2 per scan frequency, in chunks of profiles of its reciprocal
        # rows, every chunk in one set of buffers
        base_sq = np.empty(scan.size)
        chunk = int(np.clip(_CHUNK_POINTS // grid.num_points, 1, _MAX_CHUNK))
        buffers = self._chunk_buffers(min(chunk, scan.size))
        for part, w in _chunks(scan, chunk):
            base_sq[part] = self._profile_norms(self._recip[part], w, buffers)
        self.base_sq = np.full(self.omegas.size, np.inf)
        self.base_sq[self._admissible] = base_sq[self._rep_of]
        # pad each root list with its last root, which leaves the minimum unchanged
        width = max((len(r) for r in self.roots), default=0)
        padded = [r + (r[-1],) * (width - len(r)) for r in self.roots if r]
        self._r = np.array(padded, dtype=float).reshape(self._admissible.size, width)
        interior = self.omegas[np.abs(self.omegas) < m]
        self._pitch = float(np.max(np.diff(np.sort(interior)))) if interior.size > 1 else 0.1 * m
        # each admissible candidate with a mirror -omega among the others, and that mirror
        w = self.omegas[self._admissible]
        order = np.argsort(w)
        mirror = order[np.minimum(np.searchsorted(w[order], -w - _MIRROR_PITCH * m), w.size - 1)]
        paired = (np.abs(w[mirror] + w) <= _MIRROR_PITCH * m) & (mirror != np.arange(w.size))
        self._paired, self._mirror = np.flatnonzero(paired), mirror[paired]
        # the polish cache: each polish frequency's weights (see the class docstring)
        self._polish: dict[float, tuple] = {}

    def _roots(self, s: float) -> tuple:
        """Amplitude roots r = |c|^2 at an admissible omega's s; () when s = 0."""
        return tuple(amplitude_roots(self.pot, s)) if s != 0 else ()

    def _chunk_buffers(self, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scratch for :meth:`_profile_norms` of up to ``rows`` reciprocal rows.

        The gathered reciprocals, the half spectra b_half and the windowed
        fields; the field buffer is empty without a window.
        """
        grid = self.rho.grid
        field = grid.shape if self._window is not None else (0,)
        return (np.empty((rows, self._rho_half.size)),
                np.empty((rows, *grid.half_shape), dtype=complex), np.empty((rows, *field)))

    def _profile_norms(self, recip: np.ndarray, w: np.ndarray, buffers: tuple) -> np.ndarray:
        """||S||^2 = (||W1 T b_hat||^2 + omega^2 ||W0 T b_hat||^2) / L^n per reciprocal row.

        The round trip runs in ``buffers`` (:meth:`_chunk_buffers`), which
        the table build reuses for every chunk: fresh temporaries of a
        chunk's size let glibc trim and refault the heap top on every chunk.
        """
        grid = self.rho.grid
        taken, b_half, field = (buffer[: w.size] for buffer in buffers)
        np.take(recip, self._half_position, axis=1, out=taken)
        np.multiply(taken, self._rho_half, out=b_half.reshape(w.size, -1))
        if self._window is not None:
            grid.half_inverse(b_half, out=field)
            field *= self._window
            grid.half_forward(field, out=b_half)
        parts = b_half.view(np.float64)
        parts *= parts
        sq = parts.reshape(w.size, -1) @ self._half_weights
        return (sq[:, 0] + w * w * sq[:, 1]) / self._box_vol

    def _polish_weights(self, recip: np.ndarray, w: np.ndarray) -> tuple:
        """(r ||S||^2, 2 sqrt(r)) per amplitude root r at the one frequency of ``w``; () without one.

        They do not depend on the snapshot: the squared distance of a root
        is ||Psi||^2 + r ||S||^2 - 2 sqrt(r) |<S, Psi>|.
        """
        roots = self._roots(float(_couplings_of(recip, self._mass, self.rho.grid)[0]))
        if not roots:
            return ()
        base_sq = float(self._profile_norms(recip, w, self._chunk_buffers(1))[0])
        return tuple((r * base_sq, 2.0 * np.sqrt(r)) for r in roots)

    def _overlaps(self, p: np.ndarray, w: np.ndarray) -> np.ndarray:
        """|<S, Psi>| per omega from p, its reciprocal row times the shell sums ((re, im) of u1, u0)."""
        return np.abs(p[:, 0] + 1j * p[:, 1] + 1j * w * (p[:, 2] + 1j * p[:, 3])) / self._box_vol

    def distance(self, state: FieldState) -> tuple[float, float | None]:
        """(distance, best_omega) as documented in :func:`manifold_distance`."""
        require_same_grid(self.rho, state)
        m = self.m
        grid = state.grid
        psi_w, pi_w = _windowed_weighted_hats(state, self.spec, m)
        state_sq = float((np.vdot(psi_w, psi_w) + np.vdot(pi_w, pi_w)).real) / self._box_vol
        u = np.stack((self._w1 * psi_w, self._w0 * pi_w))
        if self._window is not None:
            u = grid.forward(self._window * grid.inverse(u))
        v = self._conj_rho * np.take(u.reshape(2, -1), self._points, axis=1)
        v = v.view(np.float64).reshape(2, -1, 2)
        terms = np.stack([np.bincount(self._point_shell, v[row, :, part], self._k2.size)
                          for row in (0, 1) for part in (0, 1)], axis=1)

        polish = self._polish

        def dist_sq_at(omega: float) -> float:
            # the polish bracket lies inside the spectral gap, where every
            # omega is admissible; one reciprocal row serves the overlap and,
            # at a frequency new to the polish cache, s, the roots and the profile
            w = np.array([omega])
            recip = _reciprocals(self._k2, w, m)
            weights = polish.get(omega)
            if weights is None:
                weights = self._polish_weights(recip, w)
                if len(polish) >= _POLISH_CACHE:
                    del polish[next(iter(polish))]
                polish[float(omega)] = weights
            if not weights:
                return np.inf
            overlap = float(self._overlaps(recip @ terms, w)[0])
            return min(state_sq + a - b * overlap for a, b in weights)

        best_sq = state_sq  # the zero wave
        best_omega: float | None = None
        adm = self._admissible
        mirrored = False
        if adm.size:
            products = (self._recip @ terms)[self._rep_of]
            overlap = self._overlaps(products, self.omegas[adm])
            d_sq = (state_sq + self._r * self.base_sq[adm, None]
                    - 2.0 * np.sqrt(self._r) * overlap[:, None]).min(axis=1)
            k = int(np.argmin(d_sq))
            if d_sq[k] < best_sq:
                best_sq = float(d_sq[k])
                best_omega = float(self.omegas[adm[k]])
            # A state real up to a global phase has S(-omega) = conj S(omega), so
            # every candidate ties its mirror and roundoff alone would pick the
            # sign: then the best frequency is taken, and polished, on omega >= 0.
            i, j = self._paired, self._mirror
            mirrored = i.size > 0 and bool(
                np.all(np.abs(d_sq[i] - d_sq[j]) <= _MIRROR_TIE * (state_sq + d_sq[i])))
            if mirrored and best_omega is not None:
                best_omega = abs(best_omega)

        if best_omega is not None and abs(best_omega) < m:
            # polish inside the spectral gap; embedded candidates stay on-grid.  Where
            # the bracket reaches frequencies without an amplitude root, dist_sq_at is
            # inf and a parabolic step computes inf - inf: the NaN fails the step's
            # acceptance test and a golden-section step follows, so it is not reported.
            lo = max(best_omega - self._pitch, 0.0 if mirrored else -m + 1e-9 * m)
            hi = min(best_omega + self._pitch, m - 1e-9 * m)
            with np.errstate(invalid="ignore"):
                x, fun = _bounded_brent(dist_sq_at, lo, hi, 1e-6 * m)
            if fun < best_sq:
                best_sq = float(fun)
                best_omega = float(x)
        return float(np.sqrt(max(best_sq, 0.0))), best_omega

    def distances(self, snapshots) -> tuple[np.ndarray, np.ndarray, list]:
        """(times, distances, best_omegas) of :meth:`distance` at each snapshot."""
        pairs = [self.distance(snap) for snap in snapshots]
        return (np.array([snap.time for snap in snapshots]),
                np.array([d for d, _ in pairs]), [w for _, w in pairs])


def manifold_distance(
    state: FieldState,
    rho: CouplingProfile,
    pot: PolynomialPotential,
    spec: SeminormSpec | None,
    omega_grid=None,
    m: float = 1.0,
) -> tuple[float, float | None]:
    """Distance from ``state`` to the solitary manifold.

    For each candidate frequency and amplitude root the phase minimization
    min_theta ||Psi - e^{i theta} S||^2 = ||Psi||^2 + ||S||^2 - 2 |<S, Psi>|
    is exact; the frequency is scanned on a grid, then polished by a bounded
    one-dimensional search around the best grid point so the result is not
    limited by the grid pitch.  The zero wave always competes.  Measured in
    the windowed seminorm of ``spec`` (the topology of the attraction
    statement), or the global energy norm with spec=None.

    ||S||^2 depends only on rho, the seminorm and omega, and T = forward o
    window o inverse is self-adjoint, so <S, Psi> is a closed form in the
    state's adjoint transforms (see :class:`ManifoldTable`).  The table comes
    from a small cache keyed by rho (by identity), the potential, the
    seminorm, the frequency grid and m, so calls that repeat those inputs
    build it once and pay only for the distance.

    Returns (distance, best_omega); best_omega is None when the zero wave is
    the closest point.  When the scan ties every candidate with its mirror
    -omega, as for any state real up to a global phase, best_omega is taken
    on the side omega >= 0.
    """
    if omega_grid is None:
        omega_grid = default_omega_grid(m)
    omegas = tuple(np.asarray(omega_grid, dtype=float).tolist())
    return _manifold_table(rho, pot, spec, omegas, m).distance(state)


@lru_cache(maxsize=4)
def _manifold_table(
    rho: CouplingProfile,
    pot: PolynomialPotential,
    spec: SeminormSpec | None,
    omegas: tuple[float, ...],
    m: float,
) -> ManifoldTable:
    """The shared :class:`ManifoldTable` of these inputs.

    rho hashes by identity (a frozen dataclass with eq=False), the potential
    and the seminorm by value, the candidate frequencies as a tuple of
    floats.  Sharing is safe because :meth:`ManifoldTable.distance` changes
    nothing on the table but its polish cache, whose entries are the
    frequency's own weights, the same bits whichever snapshot added them.
    """
    return ManifoldTable(rho, pot, spec, np.array(omegas), m)
