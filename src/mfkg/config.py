"""Run configuration: JSON in, validated builders out.

Every experiment is described by one JSON document deep-merged over
DEFAULTS.  The sections whose keys depend on a kind (``rho``,
``initial``), the optional ``evolve.sponge`` and each ``seminorms[i]``
entry have their keys and defaults in one table each (RHO_KINDS,
INITIAL_KINDS, SPONGE, SEMINORM); after the merge a fill step writes those
defaults in, so the resolved configuration (the run's config.json) lists
every value the run uses.  Validation is eager and addresses mistakes by
dotted path ("evolve.dt: must be positive") so batch sweeps fail before
they burn compute, and before an experiment writes anything; that covers
the cross-checks between sections (step size against the grid spacing,
sponge and window geometry, the sigma range) and the files a run reads:
``rho.path`` and ``initial.path`` are checked against the grid (and the
mass) from their headers alone.  Builders hand back the actual objects.
"""
from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import Integrator, Observers, Sponge
from .fields import CouplingProfile, FieldState, SeminormSpec, energy_norm, zero_state
from .grid import Grid, make_grid
from .io import _read_snapshot_header, load_snapshot
from .multifreq import build_rho as _build_multifreq_rho
from .potential import PolynomialPotential
from .solitary import build_solitary

__all__ = [
    "ConfigError",
    "DEFAULTS",
    "RunConfig",
    "load_config",
    "config_from_dict",
    "set_by_path",
    "random_state",
    "wave_packet",
]

EXPERIMENTS = ("simulate", "solitary", "sigma", "distance", "spectrum", "counterexample")

_REQUIRED = object()  # a table entry for a key that has no default

# keys and defaults of each kind-specific section, by kind ("kind" itself aside)
RHO_KINDS: dict = {
    "gaussian": {"amplitude": 1.0, "width": 1.0},
    "none": {},
    "multifreq": {"omega1": None, "sigma0": 1.0},  # omega1 None resolves to 2m
    "file": {"path": _REQUIRED},
}
INITIAL_KINDS: dict = {
    "random": {"energy_norm": 1.0, "envelope_width": 8.0, "band_limit": 2.0,
               "band_center": 0.0, "envelope_center": 0.0},
    "zero": {},
    "packet": {"center": 0.0, "width": 4.0, "carrier": 2.0, "amplitude": 1.0},
    "solitary": {"omega": 0.5, "phase": 0.0, "root_index": 0},
    "file": {"path": _REQUIRED},
}
SPONGE: dict = {"inner_radius": _REQUIRED, "strength": 1.0}
SEMINORM: dict = {"epsilon": 0.0, "radius": 8.0, "cutoff_width": 8.0}

DEFAULTS: dict = {
    "experiment": "simulate",
    "seed": 0,
    "m": 1.0,
    "grid": {"dim": 1, "points": 2048, "length": 128.0},
    "potential": {"coeffs": [-1.0, 1.0]},
    "rho": {"kind": "gaussian", **RHO_KINDS["gaussian"]},
    "initial": {"kind": "random", **INITIAL_KINDS["random"]},
    "evolve": {
        "dt": 0.01,
        "T": 100.0,
        "steps_per_sample": 10,
        "snapshot_stride": 0,
        "sponge": None,
    },
    "seminorms": [],
    "sigma": {"omega_min": None, "omega_max": None, "count": 201},
    "distance": {
        "epsilon": 0.5,
        "radius": 8.0,
        "cutoff_width": 8.0,
        "use_global_norm": False,
        "omega_count": 201,
    },
    "spectrum": {
        "window_width": 25.0,
        "n_windows": 3,
        "mass_fraction": 0.99,
        "cluster_bins": 3,
        "exclusion_bins": 3,
        "taper": "hann",  # the only taper; kept so that older config files load
    },
    "counterexample": {"omega1": None, "b": -1.0, "sigma0": 1.0, "T": 50.0, "tol": 1e-3},
}
# experiments that read the configured coupling rho and so reject rho.kind "none"
_NEEDS_COUPLING = ("solitary", "sigma", "distance", "spectrum")
# experiments that take time steps, and so need evolve.dt below the grid spacing
_STEPS = ("simulate", "distance", "spectrum", "counterexample")


class ConfigError(ValueError):
    """Invalid configuration, annotated with the dotted path of the offender."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _number(raw, path: str, lo=None, hi=None, strict_lo=False) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(path, f"expected a number, got {raw!r}")
    v = float(raw)
    if not math.isfinite(v):
        raise ConfigError(path, "must be finite")
    if lo is not None and (v <= lo if strict_lo else v < lo):
        raise ConfigError(path, f"must be {'>' if strict_lo else '>='} {lo}")
    if hi is not None and v > hi:
        raise ConfigError(path, f"must be <= {hi}")
    return v


def _integer(raw, path: str, lo=None) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(path, f"expected an integer, got {raw!r}")
    if lo is not None and raw < lo:
        raise ConfigError(path, f"must be >= {lo}")
    return raw


def _fill(section, table: dict, path: str) -> dict:
    """Check ``section``'s keys against ``table`` and write in the table's defaults."""
    _require(isinstance(section, dict), path, "must be an object")
    extra = set(section) - set(table)
    if extra:
        raise ConfigError(f"{path}.{sorted(extra)[0]}", "unknown key")
    for key, default in table.items():
        if key not in section:
            _require(default is not _REQUIRED, f"{path}.{key}", "required")
            section[key] = default
    return section


def _fill_kind(section: dict, kinds: dict, path: str) -> dict:
    """:func:`_fill` with the table of the section's kind."""
    kind = section["kind"]
    _require(isinstance(kind, str) and kind in kinds, f"{path}.kind",
             f"must be one of {sorted(kinds)}")
    return _fill(section, {"kind": kind, **kinds[kind]}, path)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(where, "unknown key")
        if isinstance(base[key], dict):
            _require(isinstance(value, dict), where, "must be an object")
            # changing a section's kind switches its key set: replace, don't merge
            if "kind" in value and "kind" in base[key] and value["kind"] != base[key]["kind"]:
                out[key] = copy.deepcopy(value)
            else:
                out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


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


def _sigma_range(sec: dict, m: float) -> tuple[float, float]:
    """(omega_min, omega_max) of a sigma section, None read as -0.99 m and 0.99 m."""
    lo = -0.99 * m if sec["omega_min"] is None else float(sec["omega_min"])
    hi = 0.99 * m if sec["omega_max"] is None else float(sec["omega_max"])
    return lo, hi


def _check_rho_file(path: str, shape: tuple) -> None:
    """rho.path names a readable .npy array of the grid's shape; reads its header only."""
    try:
        header = np.load(path, mmap_mode="r")
    except (OSError, ValueError, EOFError) as exc:
        raise ConfigError("rho.path", f"cannot read: {exc}") from exc
    if not isinstance(header, np.ndarray):  # an .npz archive
        header.close()
        raise ConfigError("rho.path", f"{path} is not a .npy array")
    _require(header.shape == shape, "rho.path",
             f"array shape {header.shape} does not match {shape}")


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
    _require(raw["experiment"] in EXPERIMENTS, "experiment", f"must be one of {EXPERIMENTS}")
    _integer(raw["seed"], "seed", lo=0)
    m = _number(raw["m"], "m", lo=0, strict_lo=True)

    g = raw["grid"]
    _integer(g["dim"], "grid.dim", lo=1)
    _require(g["dim"] <= 3, "grid.dim", "must be 1, 2 or 3")
    _integer(g["points"], "grid.points", lo=8)
    _require(g["points"] & (g["points"] - 1) == 0, "grid.points", "must be a power of two")
    _number(g["length"], "grid.length", lo=0, strict_lo=True)

    pcoeffs = raw["potential"]["coeffs"]
    _require(isinstance(pcoeffs, (list, tuple)) and len(pcoeffs) >= 2, "potential.coeffs",
             "need at least two coefficients (degree p >= 2)")
    for i, c in enumerate(pcoeffs):
        _number(c, f"potential.coeffs[{i}]")
    _require(float(pcoeffs[-1]) > 0, "potential.coeffs", "leading coefficient must be positive")

    rho = _fill_kind(raw["rho"], RHO_KINDS, "rho")
    if rho["kind"] == "gaussian":
        _number(rho["amplitude"], "rho.amplitude")
        _number(rho["width"], "rho.width", lo=0, strict_lo=True)
    elif rho["kind"] == "multifreq":
        if rho["omega1"] is None:
            rho["omega1"] = 2.0 * m
        _number(rho["omega1"], "rho.omega1", lo=m, hi=3.0 * m, strict_lo=True)
        _number(rho["sigma0"], "rho.sigma0", lo=0, strict_lo=True)
    elif rho["kind"] == "file":
        _require(isinstance(rho["path"], str), "rho.path", "must be a string")
        _check_rho_file(rho["path"], (g["points"],) * g["dim"])
    _require(rho["kind"] != "none" or raw["experiment"] not in _NEEDS_COUPLING, "rho.kind",
             f"the {raw['experiment']} experiment needs a coupling")

    init = _fill_kind(raw["initial"], INITIAL_KINDS, "initial")
    if init["kind"] == "random":
        _number(init["energy_norm"], "initial.energy_norm", lo=0, strict_lo=True)
        _number(init["envelope_width"], "initial.envelope_width", lo=0, strict_lo=True)
        _number(init["band_limit"], "initial.band_limit", lo=0, strict_lo=True)
        _number(init["band_center"], "initial.band_center", lo=0)
        _number(init["envelope_center"], "initial.envelope_center", lo=0)
    elif init["kind"] == "packet":
        _number(init["center"], "initial.center")
        _number(init["width"], "initial.width", lo=0, strict_lo=True)
        _number(init["carrier"], "initial.carrier")
        _number(init["amplitude"], "initial.amplitude")
    elif init["kind"] == "solitary":
        _number(init["omega"], "initial.omega")
        _number(init["phase"], "initial.phase")
        _integer(init["root_index"], "initial.root_index", lo=0)
        _require(rho["kind"] != "none", "initial.kind",
                 "solitary data needs a coupling (rho.kind is 'none')")
    elif init["kind"] == "file":
        _require(isinstance(init["path"], str), "initial.path", "must be a string")
        _check_snapshot_file(init["path"], make_grid(g["dim"], g["points"], float(g["length"])), m)

    ev = raw["evolve"]
    _number(ev["dt"], "evolve.dt", lo=0, strict_lo=True)
    if raw["experiment"] in _STEPS:
        spacing = float(g["length"]) / g["points"]
        _require(ev["dt"] < spacing, "evolve.dt", f"must be below the grid spacing {spacing:g}")
    _number(ev["T"], "evolve.T", lo=0, strict_lo=True)
    _integer(ev["steps_per_sample"], "evolve.steps_per_sample", lo=1)
    _integer(ev["snapshot_stride"], "evolve.snapshot_stride", lo=0)
    if ev["sponge"] is not None:
        sponge = _fill(ev["sponge"], SPONGE, "evolve.sponge")
        _number(sponge["inner_radius"], "evolve.sponge.inner_radius", lo=0, strict_lo=True)
        _number(sponge["strength"], "evolve.sponge.strength", lo=0, strict_lo=True)
        _require(sponge["inner_radius"] < 0.5 * raw["grid"]["length"],
                 "evolve.sponge.inner_radius", "must be inside the box (less than length/2)")

    _require(isinstance(raw["seminorms"], list), "seminorms", "must be a list")
    half = 0.5 * float(raw["grid"]["length"])
    for i, sn in enumerate(raw["seminorms"]):
        path = f"seminorms[{i}]"
        _fill(sn, SEMINORM, path)
        _number(sn["epsilon"], f"{path}.epsilon", lo=0, hi=1)
        _number(sn["radius"], f"{path}.radius", lo=0, strict_lo=True)
        _number(sn["cutoff_width"], f"{path}.cutoff_width", lo=0, strict_lo=True)
        _require(sn["radius"] + sn["cutoff_width"] < half, path,
                 "window must fit inside the box (radius + cutoff_width < length/2)")

    sig = raw["sigma"]
    _integer(sig["count"], "sigma.count", lo=2)
    for key in ("omega_min", "omega_max"):
        if sig[key] is not None:
            _number(sig[key], f"sigma.{key}")
    if raw["experiment"] == "sigma":
        lo, hi = _sigma_range(sig, m)
        _require(lo < hi, "sigma.omega_min", f"must be below sigma.omega_max ({lo:g} >= {hi:g})")

    dist = raw["distance"]
    _number(dist["epsilon"], "distance.epsilon", lo=0, hi=1)
    _number(dist["radius"], "distance.radius", lo=0, strict_lo=True)
    _number(dist["cutoff_width"], "distance.cutoff_width", lo=0, strict_lo=True)
    _require(isinstance(dist["use_global_norm"], bool), "distance.use_global_norm",
             "must be true or false")
    _integer(dist["omega_count"], "distance.omega_count", lo=3)

    sp = raw["spectrum"]
    _number(sp["window_width"], "spectrum.window_width", lo=0, strict_lo=True)
    _integer(sp["n_windows"], "spectrum.n_windows", lo=1)
    _number(sp["mass_fraction"], "spectrum.mass_fraction", lo=0, hi=1, strict_lo=True)
    _integer(sp["cluster_bins"], "spectrum.cluster_bins", lo=0)
    _integer(sp["exclusion_bins"], "spectrum.exclusion_bins", lo=0)
    _require(sp["taper"] == "hann", "spectrum.taper", 'must be "hann"')
    if raw["experiment"] == "spectrum":
        _require(sp["n_windows"] * sp["window_width"] <= ev["T"] + 1e-9, "spectrum.window_width",
                 "windows do not fit in the trajectory (n_windows * window_width > evolve.T)")

    ce = raw["counterexample"]
    if ce["omega1"] is not None:  # None resolves to 2m at run time
        _number(ce["omega1"], "counterexample.omega1", lo=m, hi=3.0 * m, strict_lo=True)
        _require(float(ce["omega1"]) < 3.0 * m, "counterexample.omega1", "must be below 3m")
    _number(ce["b"], "counterexample.b", hi=0)
    _require(float(ce["b"]) < 0, "counterexample.b", "must be negative")
    _number(ce["sigma0"], "counterexample.sigma0", lo=0, strict_lo=True)
    _number(ce["T"], "counterexample.T", lo=0, strict_lo=True)
    _number(ce["tol"], "counterexample.tol", lo=0, strict_lo=True)
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
            wave = build_solitary(rho, pot, float(init["omega"]), float(init["phase"]),
                                  self.m, int(init["root_index"]))
            return wave.initial_state()
        return load_snapshot(Path(init["path"]))[0]

    def build_integrator(self) -> Integrator:
        ev = self.raw["evolve"]
        sponge = ev["sponge"]
        if sponge is not None:
            sponge = Sponge(float(sponge["inner_radius"]), float(sponge["strength"]))
        return Integrator(float(ev["dt"]), int(ev["steps_per_sample"]), sponge)

    def seminorm_specs(self) -> tuple[SeminormSpec, ...]:
        return tuple(
            SeminormSpec(float(sn["epsilon"]), float(sn["radius"]), float(sn["cutoff_width"]))
            for sn in self.raw["seminorms"]
        )

    def build_observers(self) -> Observers:
        return Observers(
            seminorm_specs=self.seminorm_specs(),
            snapshot_stride=int(self.raw["evolve"]["snapshot_stride"]),
        )


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be an object")
    cfg = RunConfig(_validate(_merge(DEFAULTS, raw)))
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
