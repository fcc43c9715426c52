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
both the ``distance`` and ``spectrum`` experiments, in one pass, so the
``distance`` experiment streams its snapshot run into it.  Of each snapshot
it keeps what the frequency polish needs, its four sums per coupled shell,
the scan's best candidate and its bracket, under a fixed budget of floats
(``_POLISH_ENTRIES``), and it runs the snapshots' bounded Brent searches in
lockstep rounds: each round computes each distinct frequency once, in
chunks of profiles, for all the searches that ask for it, by the routine
that built the table's candidates.  :func:`manifold_distance` takes its
table from a small cache keyed by those inputs, so repeated calls with one
coupling share one table.  The
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
from typing import NamedTuple

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
from .grid import Grid, _scale_rows
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
    if len(coeffs) == 2:
        # numpy polyroots' own two-term branch, without its as_series call,
        # which trims a zero coefficient of r (an underflow): then no root
        roots = [-coeffs[0] / coeffs[1]] if coeffs[1] != 0 else []
    else:
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
# the most floats of shell sums (4 per coupled shell and snapshot) that
# ManifoldTable.distances holds for one lockstep polish: 1 MiB, the whole
# 1-D ``distance`` run at a snapshot every 10 samples (~100 x 692), 4
# snapshots of a 256^2 grid with 7124 coupled shells
_POLISH_ENTRIES = 1 << 17
# Candidates +-omega are mirrors when they agree to _MIRROR_PITCH m, and their
# squared distances tie within _MIRROR_TIE (||Psi||^2 + d^2); the roundoff gap
# measured on states real up to a global phase is ~1e-13 of ||Psi||^2.
_MIRROR_PITCH = 1e-12
_MIRROR_TIE = 1e-10


def _brent_steps(lo: float, hi: float, xatol: float):
    """Brent's bounded minimisation as a generator: yields each x, is sent f(x), returns (x, f(x)).

    The arithmetic of scipy 1.17.1's ``_minimize_scalar_bounded`` in the
    same order (numpy scalars included), so the iterates and the
    evaluation count are bit for bit those of ``minimize_scalar(func,
    bounds=(lo, hi), method="bounded", options={"xatol": xatol})``.  The
    caller evaluates f, so searches on different functions can run in
    lockstep (see :meth:`ManifoldTable.distances`); :func:`_bounded_brent`
    drives one search with a function.
    """
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = yield x
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
        fu = yield x
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


def _bounded_brent(func, lo: float, hi: float, xatol: float):
    """(x, f(x)) of :func:`_brent_steps` driven by ``func``: scipy's bounded ``minimize_scalar``."""
    steps = _brent_steps(lo, hi, xatol)
    x = next(steps)
    while True:
        try:
            x = steps.send(func(x))
        except StopIteration as done:
            return done.value


class _Scan(NamedTuple):
    """What the polish needs of one snapshot (:meth:`ManifoldTable._scan`)."""

    state_sq: float  # ||Psi||^2
    terms: np.ndarray  # the four sums per coupled shell: (re, im) of u1, u0
    best_sq: float  # the scan's best squared distance, the zero wave's included
    best_omega: float | None  # its frequency; None for the zero wave
    bracket: tuple[float, float] | None  # the polish bracket, inside the spectral gap


class ManifoldTable:
    """Precomputed tables for distances to the solitary manifold.

    Built once from the coupling, the potential, the seminorm and the
    frequency grid; :meth:`distance` then costs one stacked round trip per
    snapshot plus sums over the |xi|^2 shells and the bounded polish, and
    :meth:`distances` runs the polishes of many snapshots in lockstep
    (below).  The table does not change after its build, so one table
    serves any number of snapshots and callers (see
    :func:`manifold_distance`).  For a candidate omega the unit-amplitude wave is S = (b, -i omega b) with
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
      serves s, the roots, the profile and the overlap;
    * rho is real and the reciprocal even, so b is real: its window round
      trip runs on half spectra (:meth:`Grid.half_inverse` /
      :meth:`Grid.half_forward`), where the bins 1..N/2-1 of the last
      axis stand for their mirrors as well.

    One routine gives a block of frequencies' amplitude roots and ||S||^2
    from their reciprocal rows (:meth:`_roots_and_norms`): s, then the
    profiles of the rows with a root, in chunks of at most
    ``_CHUNK_POINTS`` points and ``_MAX_CHUNK`` rows, each row's ||S||^2
    its own (1, .) product, so a frequency's data are the same bits
    whichever frequencies are computed beside it.  The build runs it once
    on the admissible frequencies' reciprocal rows, of which those with an
    amplitude root stay as one (frequencies x coupled shells) block, read
    by every snapshot's scan, one matmul: 101 x 173 floats in 1-D at the
    ``distance`` defaults, 101 x 7124 (5.8 MB) on a 256^2 grid of length
    128 with a width-1 Gaussian rho.

    The polish runs in lockstep rounds (:meth:`_polished`).
    :meth:`distances` scans each snapshot as it is read (:meth:`_scan`)
    and keeps ||Psi||^2, the snapshot's four sums per coupled shell, the
    scan's best candidate and its bracket: 17 snapshots of 4 x 173 floats
    (~94 KB) at the ``distance`` defaults, but 4 x 7124 floats (228 KB) for
    one snapshot on the 256^2 grid above.  Each group of snapshots holds at
    most ``_POLISH_ENTRIES`` floats of shell sums, so larger runs polish in
    groups.  A round gathers the frequency that every unfinished Brent
    search (:func:`_brent_steps`) asks for and builds the reciprocal rows
    of the distinct ones in one array, whose roots and ||S||^2 come from
    :meth:`_roots_and_norms` in one set of chunk buffers for the whole
    polish.  Config seed 1 at the ``distance`` defaults: 16 searches take
    8 rounds, 106 evaluations and 78 distinct frequencies, at most 16 per
    round.  Every per-row operation is row-independent, so each snapshot
    gets the bits of :meth:`distance`, the lockstep of one, and a polish
    at a grid frequency gets the table's roots and base_sq.

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
        admits = np.flatnonzero([_admits(rho, float(w), m) for w in reps])
        # the rows of profiles per chunk, within _CHUNK_POINTS and _MAX_CHUNK
        self._chunk = int(np.clip(_CHUNK_POINTS // grid.num_points, 1, _MAX_CHUNK))
        # their reciprocal rows, built once: they give the roots and ||S||^2,
        # and those with a root every snapshot's scan
        recip = _reciprocals(self._k2, reps[admits], m)
        roots, norms = self._roots_and_norms(
            recip, reps[admits], self._chunk_buffers(min(self._chunk, admits.size)))
        rep_roots, rep_sq = [()] * reps.size, np.full(reps.size, np.inf)
        for i, r in zip(admits, roots):
            rep_roots[i] = r
        rep_sq[admits] = norms
        self.roots = tuple(rep_roots[i] for i in distinct)
        self.base_sq = rep_sq[distinct]
        has_roots = np.array([bool(r) for r in rep_roots], dtype=bool)
        self._admissible = np.flatnonzero(has_roots[distinct])
        # the scan's rows: one per distinct omega^2 with a root, and each
        # admissible candidate's row among them
        self._recip = recip[has_roots[admits]]
        self._rep_of = (np.cumsum(has_roots) - 1)[distinct[self._admissible]]
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

    def _roots(self, s: float) -> tuple:
        """Amplitude roots r = |c|^2 at an admissible omega's s; () when s = 0."""
        return tuple(amplitude_roots(self.pot, s)) if s != 0 else ()

    def _chunk_buffers(self, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scratch for :meth:`_profile_norms` of up to ``rows`` reciprocal rows.

        The gathered reciprocals, the half spectra b_half and the windowed
        fields; the field buffer is empty without a window.  With a window
        the gathered reciprocals lie in the field buffer's memory (the first
        k rows of each in its first entries): they are read into b_half
        before the round trip writes the fields.
        """
        grid = self.rho.grid
        size = self._rho_half.size
        half = np.empty((rows, *grid.half_shape), dtype=complex)
        if self._window is None:
            return np.empty((rows, size)), half, np.empty((rows, 0))
        field = np.empty((rows, *grid.shape))
        return field.reshape(-1)[: rows * size].reshape(rows, size), half, field

    def _profile_norms(self, recip: np.ndarray, w: np.ndarray, buffers: tuple) -> np.ndarray:
        """||S||^2 = (||W1 T b_hat||^2 + omega^2 ||W0 T b_hat||^2) / L^n per reciprocal row.

        The round trip runs in ``buffers`` (:meth:`_chunk_buffers`), which
        the table build and the polish reuse for every chunk: fresh
        temporaries of a chunk's size let glibc trim and refault the heap
        top on every chunk.  The squares of each row are reduced by one
        (1, .) product, so that a row's norm does not depend on the rows
        beside it, as one product per chunk would.
        """
        grid = self.rho.grid
        taken, b_half, field = (buffer[: w.size] for buffer in buffers)
        # every position is in range, so "clip" takes the same entries,
        # straight into taken (the default "raise" goes through a buffered copy)
        np.take(recip, self._half_position, axis=1, out=taken, mode="clip")
        # row by row: a product broadcast over the chunk runs through numpy's
        # iterator buffers, ~220 KiB here and ~65 KiB for the window at the
        # distance defaults
        for row, values in zip(b_half.reshape(w.size, -1), taken):
            np.multiply(values, self._rho_half, out=row)
        if self._window is not None:
            grid.half_inverse(b_half, out=field)
            _scale_rows(field, self._window)
            grid.half_forward(field, out=b_half)
        parts = b_half.view(np.float64)
        parts *= parts
        parts = parts.reshape(w.size, -1)
        sq = np.concatenate([parts[i: i + 1] @ self._half_weights for i in range(w.size)])
        return (sq[:, 0] + w * w * sq[:, 1]) / self._box_vol

    def _roots_and_norms(self, recip: np.ndarray, w: np.ndarray,
                         buffers: tuple) -> tuple[list[tuple], np.ndarray]:
        """(amplitude roots, ||S||^2) of each reciprocal row at the frequencies ``w``.

        () and inf at a frequency without a root.  Neither depends on the
        snapshot: the squared distance of a root r is ||Psi||^2 + r ||S||^2
        - 2 sqrt(r) |<S, Psi>|.  The rows with a root run their profiles in
        chunks of at most ``self._chunk`` rows, in ``buffers``: those of
        :meth:`_chunk_buffers` for min(``self._chunk``, ``w.size``) rows.
        """
        roots = [self._roots(s) for s in _couplings_of(recip, self._mass, self.rho.grid)]
        rooted = np.flatnonzero([bool(r) for r in roots])
        norms = np.full(w.size, np.inf)
        for _, rows in _chunks(rooted, self._chunk):
            norms[rows] = self._profile_norms(recip[rows], w[rows], buffers)
        return roots, norms

    def _overlaps(self, p: np.ndarray, w: np.ndarray) -> np.ndarray:
        """|<S, Psi>| per omega from p, its reciprocal row times the shell sums ((re, im) of u1, u0)."""
        return np.abs(p[:, 0] + 1j * p[:, 1] + 1j * w * (p[:, 2] + 1j * p[:, 3])) / self._box_vol

    def _scan_fields(self) -> np.ndarray:
        """Scratch for :meth:`_scan`: a complex (2, *grid.shape) pair of fields.

        :meth:`distance` and :meth:`distances` make one per call, which
        every snapshot of the call reuses, as :meth:`_chunk_buffers` does
        for the profiles: a snapshot's round trip then makes no full-size
        temporaries, and the table keeps no scratch between calls.
        """
        return np.empty((2, *self.rho.grid.shape), dtype=complex)

    def _scan(self, state: FieldState, fields: np.ndarray) -> _Scan:
        """What the polish needs of one snapshot, which is not kept.

        The snapshot's weighted hats and their windowed round trip run in
        ``fields`` (:meth:`_scan_fields`).  The best is the scan's over the
        candidates and the zero wave; the bracket is None unless the best
        omega lies inside the spectral gap.
        """
        require_same_grid(self.rho, state)
        m = self.m
        grid = state.grid
        psi_w, pi_w = _windowed_weighted_hats(state, self.spec, m, out=fields)
        state_sq = float((np.vdot(psi_w, psi_w) + np.vdot(pi_w, pi_w)).real) / self._box_vol
        # u = (W1 psi_w, W0 pi_w), in place of the hats
        np.multiply(self._w1, psi_w, out=psi_w)
        np.multiply(self._w0, pi_w, out=pi_w)
        u = fields
        if self._window is not None:
            grid.inverse(u, out=u)
            np.multiply(self._window, u, out=u)
            grid.forward(u, out=u)
        v = self._conj_rho * np.take(u.reshape(2, -1), self._points, axis=1)
        v = v.view(np.float64).reshape(2, -1, 2)
        terms = np.stack([np.bincount(self._point_shell, v[row, :, part], self._k2.size)
                          for row in (0, 1) for part in (0, 1)], axis=1)

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

        bracket = None
        if best_omega is not None and abs(best_omega) < m:
            # polish inside the spectral gap; embedded candidates stay on-grid
            bracket = (max(best_omega - self._pitch, 0.0 if mirrored else -m + 1e-9 * m),
                       min(best_omega + self._pitch, m - 1e-9 * m))
        return _Scan(state_sq, terms, best_sq, best_omega, bracket)

    def _polished(self, scans: list[_Scan]) -> list[tuple[float, float | None]]:
        """(distance, best_omega) of each :meth:`_scan`, every bracket's Brent search in lockstep.

        Each round gathers the frequency that every unfinished search asks
        for, builds the reciprocal rows of the distinct ones in one array
        and gets their roots and ||S||^2 from one :meth:`_roots_and_norms`
        call, in chunk buffers that every round of the call reuses.  Each
        search's overlap is its own row times its own shell sums, as a
        single search computes it, so a snapshot's result does not depend
        on the snapshots polished beside it.
        """
        m = self.m
        best = [[scan.best_sq, scan.best_omega] for scan in scans]
        searches = {i: _brent_steps(*scan.bracket, 1e-6 * m)
                    for i, scan in enumerate(scans) if scan.bracket is not None}
        asked = {i: next(steps) for i, steps in searches.items()}
        buffers = self._chunk_buffers(min(self._chunk, len(searches)))
        # Where the bracket reaches frequencies without an amplitude root the
        # distance is inf and a parabolic step computes inf - inf: the NaN
        # fails the step's acceptance test and a golden-section step follows,
        # so it is not reported.
        with np.errstate(invalid="ignore"):
            while asked:
                omegas = list(dict.fromkeys(map(float, asked.values())))
                row = {w: j for j, w in enumerate(omegas)}
                w = np.array(omegas)
                recip = _reciprocals(self._k2, w, m)
                roots, norms = self._roots_and_norms(recip, w, buffers)
                for i, x in list(asked.items()):
                    j = row[float(x)]
                    fx = np.inf
                    if roots[j]:
                        state_sq, norm = scans[i].state_sq, norms[j]
                        p = recip[j: j + 1] @ scans[i].terms
                        overlap = float(self._overlaps(p, np.array([x]))[0])
                        fx = min(state_sq + r * norm - 2.0 * np.sqrt(r) * overlap
                                 for r in roots[j])
                    try:
                        asked[i] = searches[i].send(fx)
                    except StopIteration as done:
                        del asked[i]
                        omega, fun = done.value
                        if fun < best[i][0]:
                            best[i] = [float(fun), float(omega)]
        return [(float(np.sqrt(max(d_sq, 0.0))), omega) for d_sq, omega in best]

    def distance(self, state: FieldState) -> tuple[float, float | None]:
        """(distance, best_omega) as documented in :func:`manifold_distance`: a lockstep of one."""
        return self._polished([self._scan(state, self._scan_fields())])[0]

    def distances(self, snapshots) -> tuple[np.ndarray, np.ndarray, list]:
        """(times, distances, best_omegas) of :meth:`distance` at each snapshot, bit for bit.

        ``snapshots`` is read once, each snapshot's time and :meth:`_scan`
        taken as it is read, so it may be a generator such as
        :func:`mfkg.dynamics.snapshots`: no snapshot is kept once the next
        one is read.  The scans wait in groups whose shell sums hold at
        most ``_POLISH_ENTRIES`` floats (at least one snapshot each), and
        each group is polished in lockstep (:meth:`_polished`).
        """
        times, results, group, held = [], [], [], 0
        # the generator drops each snapshot once scanned, the last one too
        fields = self._scan_fields()
        for time, scan in ((snap.time, self._scan(snap, fields)) for snap in snapshots):
            times.append(time)
            if group and held + scan.terms.size > _POLISH_ENTRIES:
                results += self._polished(group)
                group, held = [], 0
            group.append(scan)
            held += scan.terms.size
        results += self._polished(group)
        return (np.array(times), np.array([d for d, _ in results], dtype=float),
                [omega for _, omega in results])


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
    floats.  Sharing is safe because a table does not change after its
    build.
    """
    return ManifoldTable(rho, pot, spec, np.array(omegas), m)
