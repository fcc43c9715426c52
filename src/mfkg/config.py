"""Run configuration: JSON in, validated builders out.

Every experiment is described by one JSON document.  Each key is declared
once, as a leaf (default, check) of SCHEMA or of its section's table
(RHO_KINDS and INITIAL_KINDS by kind, SPONGE, SEMINORM); the check states
the accepted domain.  The fill step writes in the default of every missing
key and checks each leaf at its dotted path ("evolve.dt: must be > 0"), so
the resolved configuration (the run's config.json) lists every value the
run uses, and batch sweeps fail before they burn compute or write anything.
The cross-checks follow: step size against the grid spacing, the step
count T / dt against its cap, the sampling interval against the run's T,
sponge and window geometry (the ``distance`` window too: always for the
spectrum experiment, whose horizon it sets, and for the distance experiment
unless ``distance.use_global_norm``), the sigma
range, the spectrum windows, the counterexample's sample count (its force
spectrum needs MIN_WINDOW_SAMPLES), the experiments that need a coupling,
``omega1`` strictly inside (m, 3m), and the headers of the ``rho.path`` and
``initial.path`` files against the grid (and the mass).  Builders hand back the actual objects.
"""
from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .dynamics import Integrator, Observers, Sponge, _sample_count
from .fields import CouplingProfile, FieldState, SeminormSpec, energy_norm, zero_state
from .grid import Grid, make_grid
from .io import _read_snapshot_header, load_snapshot
from .multifreq import build_rho as _build_multifreq_rho
from .potential import PolynomialPotential
from .solitary import SolitaryWave, build_solitary
from .spectral import MIN_WINDOW_SAMPLES

__all__ = [
    "ConfigError",
    "DEFAULTS",
    "RunConfig",
    "load_config",
    "config_from_dict",
    "set_by_path",
    "table_defaults",
    "random_state",
    "wave_packet",
]

EXPERIMENTS = ("simulate", "solitary", "sigma", "distance", "spectrum", "counterexample")
# experiments that read the configured coupling rho and so reject rho.kind "none"
_NEEDS_COUPLING = ("solitary", "sigma", "distance", "spectrum")
# experiments that take time steps, and so need evolve.dt below the grid spacing
_STEPS = ("simulate", "distance", "spectrum", "counterexample")

_REQUIRED = object()  # the default of a key that has none


class ConfigError(ValueError):
    """Invalid configuration, annotated with the dotted path of the offender."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


# Leaf checks: check(value, path) returns the resolved value or raises a
# ConfigError at path.

def _number(raw, path: str, lo=None, hi=None, open_lo=False, open_hi=False):
    """A finite number within [lo, hi] (None: unbounded), an end excluded where it is open."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(path, f"expected a number, got {raw!r}")
    try:
        finite = math.isfinite(raw)
    except OverflowError:  # an integer too large for a float
        finite = False
    _require(finite, path, "must be finite")
    if lo is not None and (raw <= lo if open_lo else raw < lo):
        raise ConfigError(path, f"must be {'>' if open_lo else '>='} {lo}")
    if hi is not None and (raw >= hi if open_hi else raw > hi):
        raise ConfigError(path, f"must be {'<' if open_hi else '<='} {hi}")
    return raw


def _integer(raw, path: str, lo: int, hi: int | None = None):
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(path, f"expected an integer, got {raw!r}")
    _require(raw >= lo and (hi is None or raw <= hi), path,
             f"must be >= {lo}" if hi is None else f"must be in {lo}..{hi}")
    return raw


def _boolean(raw, path: str):
    _require(isinstance(raw, bool), path, "must be true or false")
    return raw


def _string(raw, path: str):
    _require(isinstance(raw, str), path, "must be a string")
    return raw


def _choice(options):
    """Check: one of the strings ``options``."""
    def check(raw, path: str):
        _require(isinstance(raw, str) and raw in options, path, f"must be one of {sorted(options)}")
        return raw
    return check


def _nullable(check):
    return lambda raw, path: None if raw is None else check(raw, path)


def _list_of(check):
    """Check: a list whose i-th entry ``check`` accepts at ``path[i]``."""
    def check_list(raw, path: str):
        _require(isinstance(raw, list), path, "must be a list")
        return [check(item, f"{path}[{i}]") for i, item in enumerate(raw)]
    return check_list


def _grid_points(raw, path: str):
    _integer(raw, path, lo=8)
    _require(raw & (raw - 1) == 0, path, "must be a power of two")
    return raw


def _coefficients(raw, path: str):
    _require(isinstance(raw, (list, tuple)) and len(raw) >= 2, path,
             "need at least two coefficients (degree p >= 2)")
    for i, c in enumerate(raw):
        _number(c, f"{path}[{i}]")
    _require(float(raw[-1]) > 0, path, "leading coefficient must be positive")
    return raw


def _fill(table: dict, section, path: str) -> dict:
    """``section`` with each leaf (default, check) of ``table`` filled in and checked.

    A nested table is a section whose missing keys all take their defaults.
    """
    _require(isinstance(section, dict), path or "config", "must be an object")
    prefix = f"{path}." if path else ""
    for key in section:
        _require(key in table, prefix + str(key), "unknown key")
    out = {}
    for key, node in table.items():
        if isinstance(node, dict):
            out[key] = _fill(node, section.get(key, {}), prefix + key)
            continue
        default, check = node
        value = section.get(key, default)
        _require(value is not _REQUIRED, prefix + key, "required")
        out[key] = check(copy.deepcopy(value), prefix + key)
    return out


def _kinds(tables: dict, default: str):
    """Check: a section whose keys are those of its kind's table in ``tables``."""
    def check(raw, path: str):
        _require(isinstance(raw, dict), path, "must be an object")
        kind = _choice(tables)(raw.get("kind", default), f"{path}.kind")
        return _fill({"kind": (kind, _string), **tables[kind]}, raw, path)
    return check


def table_defaults(table: dict) -> dict:
    """The default of each leaf of a flat table (``_REQUIRED`` where there is none)."""
    return {key: default for key, (default, _) in table.items()}


_POSITIVE = partial(_number, lo=0, open_lo=True)
_NONNEGATIVE = partial(_number, lo=0)
_UNIT = partial(_number, lo=0, hi=1)
_COUNT = partial(_integer, lo=0)
# the largest int64, so that config.json holds only integers numpy can read as one
_INT64_MAX = 2**63 - 1
# the most grid points (points ** dim) a run may have: 256 MiB per complex field
_MAX_GRID_POINTS = 2**24
# the most time steps (T / dt) a run may take: each sampling interval appends
# to the run's series, so an unbounded T would step until memory runs out
_MAX_STEPS = 10**8
_NUMBER_OR_NULL = _nullable(_number)

RHO_KINDS: dict = {
    "gaussian": {"amplitude": (1.0, _number), "width": (1.0, _POSITIVE)},
    "none": {},
    # omega1 null resolves to 2m; its bounds (m, 3m) depend on m and are checked in _validate
    "multifreq": {"omega1": (None, _NUMBER_OR_NULL), "sigma0": (1.0, _POSITIVE)},
    "file": {"path": (_REQUIRED, _string)},
}
INITIAL_KINDS: dict = {
    "random": {"energy_norm": (1.0, _POSITIVE), "envelope_width": (8.0, _POSITIVE),
               "band_limit": (2.0, _POSITIVE), "band_center": (0.0, _NONNEGATIVE),
               "envelope_center": (0.0, _NONNEGATIVE)},
    "zero": {},
    "packet": {"center": (0.0, _number), "width": (4.0, _POSITIVE),
               "carrier": (2.0, _number), "amplitude": (1.0, _number)},
    "solitary": {"omega": (0.5, _number), "phase": (0.0, _number), "root_index": (0, _COUNT)},
    "file": {"path": (_REQUIRED, _string)},
}
SPONGE: dict = {"inner_radius": (_REQUIRED, _POSITIVE), "strength": (1.0, _POSITIVE)}
SEMINORM: dict = {"epsilon": (0.0, _UNIT), "radius": (8.0, _POSITIVE),
                  "cutoff_width": (8.0, _POSITIVE)}

SCHEMA: dict = {
    "experiment": ("simulate", _choice(EXPERIMENTS)),
    "seed": (0, partial(_integer, lo=0, hi=_INT64_MAX)),
    "m": (1.0, _POSITIVE),
    "grid": {"dim": (1, partial(_integer, lo=1, hi=3)), "points": (2048, _grid_points),
             "length": (128.0, _POSITIVE)},
    "potential": {"coeffs": ([-1.0, 1.0], _coefficients)},
    "rho": ({}, _kinds(RHO_KINDS, "gaussian")),
    "initial": ({}, _kinds(INITIAL_KINDS, "random")),
    "evolve": {
        "dt": (0.01, _POSITIVE),
        "T": (100.0, _POSITIVE),
        "steps_per_sample": (10, partial(_integer, lo=1)),
        "snapshot_stride": (0, partial(_integer, lo=0, hi=_INT64_MAX)),
        "sponge": (None, _nullable(partial(_fill, SPONGE))),
    },
    "seminorms": ([], _list_of(partial(_fill, SEMINORM))),
    # null omega_min / omega_max read as -0.99m / 0.99m (_sigma_range)
    "sigma": {"omega_min": (None, _NUMBER_OR_NULL), "omega_max": (None, _NUMBER_OR_NULL),
              "count": (201, partial(_integer, lo=2, hi=10**6))},
    # the seminorm keys of SEMINORM, with the distance's own epsilon default
    "distance": {
        **SEMINORM,
        "epsilon": (0.5, _UNIT),
        "use_global_norm": (False, _boolean),
        "omega_count": (201, partial(_integer, lo=3)),
    },
    "spectrum": {
        "window_width": (25.0, _POSITIVE),
        "n_windows": (3, partial(_integer, lo=1)),
        "mass_fraction": (0.99, partial(_number, lo=0, hi=1, open_lo=True)),
        "cluster_bins": (3, _COUNT),
        "exclusion_bins": (3, _COUNT),
        # the only taper; kept so that older config files load
        "taper": ("hann", _choice(("hann",))),
    },
    # omega1 null resolves to 2m when the experiment runs; its bounds (m, 3m) are in _validate
    "counterexample": {"omega1": (None, _NUMBER_OR_NULL),
                       "b": (-1.0, partial(_number, hi=0, open_hi=True)), "sigma0": (1.0, _POSITIVE),
                       "T": (50.0, _POSITIVE), "tol": (1e-3, _POSITIVE)},
}
DEFAULTS: dict = _fill(SCHEMA, {}, "")


def set_by_path(cfg: dict, dotted: str, value) -> None:
    """In-place nested assignment, 'evolve.dt' style.  Creates leaf keys only."""
    parts = dotted.split(".")
    node = cfg
    for p in parts[:-1]:
        nxt = node.get(p)
        if not isinstance(nxt, dict):
            nxt = {}
            node[p] = nxt
        node = nxt
    node[parts[-1]] = value


def _seminorm_spec(sec: dict) -> SeminormSpec:
    """The SeminormSpec of a section holding the SEMINORM keys."""
    return SeminormSpec(float(sec["epsilon"]), float(sec["radius"]), float(sec["cutoff_width"]))


def _sigma_range(sec: dict, m: float) -> tuple[float, float]:
    """(omega_min, omega_max) of a sigma section, None read as -0.99 m and 0.99 m."""
    lo = -0.99 * m if sec["omega_min"] is None else float(sec["omega_min"])
    hi = 0.99 * m if sec["omega_max"] is None else float(sec["omega_max"])
    return lo, hi


def _check_rho_file(path: str, shape: tuple) -> None:
    """rho.path names a readable real .npy array of the grid's shape; reads its header only."""
    try:
        header = np.load(path, mmap_mode="r")
    except (OSError, ValueError, EOFError) as exc:
        raise ConfigError("rho.path", f"cannot read: {exc}") from exc
    if not isinstance(header, np.ndarray):  # an .npz archive
        header.close()
        raise ConfigError("rho.path", f"{path} is not a .npy array")
    _require(header.shape == shape, "rho.path",
             f"array shape {header.shape} does not match {shape}")
    # a complex array would lose its imaginary part, strings fail only mid-run
    _require(header.dtype.kind in "biuf", "rho.path",
             f"array dtype {header.dtype} is not a real number type (rho is real)")


def _check_snapshot_file(path: str, grid: Grid, m: float) -> None:
    """initial.path names an MFKG1 snapshot on the config's grid and mass; reads its header only."""
    try:
        grid_file, m_file, _ = _read_snapshot_header(path)
    except (OSError, ValueError) as exc:
        raise ConfigError("initial.path", f"cannot read: {exc}") from exc
    _require(grid_file == grid, "initial.path", "snapshot grid does not match config grid")
    _require(abs(m_file - m) <= 1e-12 * max(1.0, m), "initial.path",
             f"snapshot mass {m_file} differs from config m {m}")


def _validate(raw: dict) -> dict:
    """The checks of a filled configuration that read more than one key or a file."""
    experiment, m, g = raw["experiment"], raw["m"], raw["grid"]
    half = 0.5 * float(g["length"])
    total = g["points"] ** g["dim"]
    _require(total <= _MAX_GRID_POINTS, "grid.points",
             f"points ** dim = {total} exceeds the cap 2^24 = {_MAX_GRID_POINTS}")

    rho = raw["rho"]
    if rho["kind"] == "multifreq" and rho["omega1"] is None:
        rho["omega1"] = 2.0 * m
    elif rho["kind"] == "file":
        _check_rho_file(rho["path"], (g["points"],) * g["dim"])
    # the embedded frequency of either construction lies strictly inside (m, 3m);
    # a null counterexample.omega1 resolves to 2m when the experiment runs
    for path, omega1 in (("rho.omega1", rho.get("omega1")),
                         ("counterexample.omega1", raw["counterexample"]["omega1"])):
        if omega1 is not None:
            _number(omega1, path, lo=m, hi=3.0 * m, open_lo=True, open_hi=True)
    _require(rho["kind"] != "none" or experiment not in _NEEDS_COUPLING, "rho.kind",
             f"the {experiment} experiment needs a coupling")

    init = raw["initial"]
    _require(init["kind"] != "solitary" or rho["kind"] != "none", "initial.kind",
             "solitary data needs a coupling (rho.kind is 'none')")
    if init["kind"] == "file":
        _check_snapshot_file(init["path"], make_grid(g["dim"], g["points"], float(g["length"])), m)

    ev = raw["evolve"]
    if experiment in _STEPS:
        spacing = float(g["length"]) / g["points"]
        _require(ev["dt"] < spacing, "evolve.dt", f"must be below the grid spacing {spacing:g}")
        section = "counterexample" if experiment == "counterexample" else "evolve"
        T = raw[section]["T"]
        _require(T / ev["dt"] <= _MAX_STEPS, f"{section}.T",
                 f"T / evolve.dt = {T / ev['dt']:.3g} steps exceeds the cap 10^8 = {_MAX_STEPS}")
        # a run covers whole sampling intervals, so a longer interval would overrun T
        _require(ev["steps_per_sample"] <= (T + 1e-9) / ev["dt"], "evolve.steps_per_sample",
                 f"sampling interval evolve.dt * steps_per_sample exceeds the run's T = {T:g}")
        if experiment == "counterexample":
            # the persistence check's force spectrum spans every sample of the run
            samples = _sample_count(Integrator(ev["dt"], ev["steps_per_sample"]), T) + 1
            _require(samples >= MIN_WINDOW_SAMPLES, "counterexample.T",
                     f"gives {samples} samples; the force spectrum needs {MIN_WINDOW_SAMPLES}")
    if ev["sponge"] is not None:
        _require(ev["sponge"]["inner_radius"] < half, "evolve.sponge.inner_radius",
                 "must be inside the box (less than length/2)")

    windows = [(f"seminorms[{i}]", sn) for i, sn in enumerate(raw["seminorms"])]
    # the spectrum report reads the distance window for its horizon under the
    # global norm too; the distance experiment then reads no window
    if experiment == "spectrum" or (experiment == "distance"
                                    and not raw["distance"]["use_global_norm"]):
        windows.append(("distance.radius", raw["distance"]))
    for path, window in windows:
        _require(window["radius"] + window["cutoff_width"] < half, path,
                 "window must fit inside the box (radius + cutoff_width < length/2)")

    if experiment == "sigma":
        lo, hi = _sigma_range(raw["sigma"], m)
        _require(lo < hi, "sigma.omega_min", f"must be below sigma.omega_max ({lo:g} >= {hi:g})")
    if experiment == "spectrum":
        sp = raw["spectrum"]
        _require(sp["n_windows"] * sp["window_width"] <= ev["T"] + 1e-9, "spectrum.window_width",
                 "windows do not fit in the trajectory (n_windows * window_width > evolve.T)")
        # windowed_spectrum needs MIN_WINDOW_SAMPLES samples in each window
        interval = ev["dt"] * ev["steps_per_sample"]
        _require(sp["window_width"] >= MIN_WINDOW_SAMPLES * interval - 1e-9, "spectrum.window_width",
                 f"a window must span {MIN_WINDOW_SAMPLES} sampling intervals of {interval:g}")
    return raw


def random_state(
    grid: Grid,
    seed: int,
    energy_norm_target: float = 1.0,
    envelope_width: float = 8.0,
    band_limit: float = 2.0,
    band_center: float = 0.0,
    envelope_center: float = 0.0,
    m: float = 1.0,
) -> FieldState:
    """Reproducible localized random data with a prescribed energy norm.

    Complex white noise is shaped by a Gaussian band filter
    exp(-(|k| - band_center)^2 / 2 band_limit^2) (a low-pass for
    band_center = 0, an annulus otherwise), brought to position space,
    localized by a Gaussian envelope exp(-(r - envelope_center)^2 /
    2 envelope_width^2), and the (psi, pi) pair is scaled to the requested
    energy norm.  band_center matters when slow near-threshold components
    would linger in an observation window for the whole run;
    envelope_center > 0 produces a shell of radiation around (not on top
    of) whatever sits at the origin.
    """
    rng = np.random.default_rng(seed)
    k_radial = np.sqrt(grid.k_squared)
    band = np.exp(-((k_radial - band_center) ** 2) / (2.0 * band_limit**2))

    def draw() -> np.ndarray:
        noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        shaped = grid.inverse(noise * band)
        return shaped * np.exp(-((grid.radius - envelope_center) ** 2)
                               / (2.0 * envelope_width**2))

    state = FieldState(grid, draw(), draw())
    size = energy_norm(state, m)
    if size == 0:
        raise ValueError("random draw produced an empty state")
    scale = energy_norm_target / size
    return FieldState(grid, scale * state.psi, scale * state.pi)


def wave_packet(
    grid: Grid,
    center: float = 0.0,
    width: float = 4.0,
    carrier: float = 2.0,
    amplitude: float = 1.0,
) -> FieldState:
    """Gaussian envelope times a plane-wave carrier along the first axis, pi = 0."""
    x0 = grid.axis_coords[0].reshape((-1,) + (1,) * (grid.dim - 1))
    r_sq = (x0 - center) ** 2
    for axis in range(1, grid.dim):
        xa = grid.axis_coords[axis].reshape(
            (1,) * axis + (-1,) + (1,) * (grid.dim - 1 - axis)
        )
        r_sq = r_sq + xa**2
    psi = amplitude * np.exp(-r_sq / (2.0 * width**2)) * np.cos(carrier * (x0 - center))
    return FieldState(grid, psi.astype(complex), np.zeros(grid.shape, dtype=complex))


@dataclass(eq=False)
class RunConfig:
    """A validated configuration; builders construct the run's objects."""

    raw: dict

    @property
    def experiment(self) -> str:
        return self.raw["experiment"]

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def m(self) -> float:
        return float(self.raw["m"])

    def section(self, name: str) -> dict:
        return copy.deepcopy(self.raw[name])

    def build_grid(self) -> Grid:
        g = self.raw["grid"]
        return make_grid(g["dim"], g["points"], float(g["length"]))

    def build_potential(self) -> PolynomialPotential:
        return PolynomialPotential(tuple(float(c) for c in self.raw["potential"]["coeffs"]))

    def build_rho(self, grid: Grid) -> CouplingProfile | None:
        rho = self.raw["rho"]
        kind = rho["kind"]
        if kind == "none":
            return None
        if kind == "gaussian":
            return CouplingProfile.gaussian(grid, rho["amplitude"], rho["width"])
        if kind == "multifreq":
            return _build_multifreq_rho(float(rho["omega1"]), grid, self.m, float(rho["sigma0"]))
        return CouplingProfile.from_values(grid, np.load(Path(rho["path"])))

    def build_initial_state(self, grid: Grid, rho: CouplingProfile | None,
                            pot: PolynomialPotential) -> FieldState:
        init = self.raw["initial"]
        kind = init["kind"]
        if kind == "zero":
            return zero_state(grid)
        if kind == "random":
            return random_state(
                grid, self.seed,
                float(init["energy_norm"]),
                float(init["envelope_width"]),
                float(init["band_limit"]),
                float(init["band_center"]),
                float(init["envelope_center"]),
                self.m,
            )
        if kind == "packet":
            return wave_packet(grid, float(init["center"]), float(init["width"]),
                               float(init["carrier"]), float(init["amplitude"]))
        if kind == "solitary":
            return self.solitary_wave(rho, pot).initial_state()
        return load_snapshot(Path(init["path"]))[0]

    def solitary_wave(self, rho: CouplingProfile, pot: PolynomialPotential) -> SolitaryWave:
        """The standing wave of initial kind "solitary" (that kind's defaults for another kind)."""
        init = self.raw["initial"]
        if init["kind"] != "solitary":
            init = table_defaults(INITIAL_KINDS["solitary"])
        return build_solitary(rho, pot, float(init["omega"]), float(init["phase"]), self.m,
                              int(init["root_index"]))

    def build_integrator(self) -> Integrator:
        ev = self.raw["evolve"]
        sponge = ev["sponge"]
        if sponge is not None:
            sponge = Sponge(float(sponge["inner_radius"]), float(sponge["strength"]))
        return Integrator(float(ev["dt"]), int(ev["steps_per_sample"]), sponge)

    def seminorm_specs(self) -> tuple[SeminormSpec, ...]:
        return tuple(_seminorm_spec(sn) for sn in self.raw["seminorms"])

    def build_observers(self) -> Observers:
        return Observers(
            seminorm_specs=self.seminorm_specs(),
            snapshot_stride=int(self.raw["evolve"]["snapshot_stride"]),
        )


def config_from_dict(raw: dict) -> RunConfig:
    cfg = RunConfig(_validate(_fill(SCHEMA, raw, "")))
    try:
        cfg.build_observers()
    except ValueError as exc:  # seminorm specs whose series would collide
        raise ConfigError("seminorms", str(exc)) from exc
    return cfg


def _read_config_file(path) -> dict:
    """The JSON object in the config file at ``path``."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError("config", f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config", "top level must be an object")
    return raw


def load_config(path) -> RunConfig:
    return config_from_dict(_read_config_file(path))
