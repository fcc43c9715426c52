"""Run configuration: JSON in, validated builders out.

Every experiment is described by one JSON document deep-merged over
DEFAULTS.  Validation is eager and addresses mistakes by dotted path
("evolve.dt: must be positive") so batch sweeps fail before they burn
compute.  Builders hand back the actual objects; cross-checks that need
the grid (step size vs spacing, sponge and window geometry) happen there.
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
from .io import load_snapshot
from .multifreq import build_rho as _build_multifreq_rho
from .potential import PolynomialPotential
from .solitary import build_solitary
from .spectral import TAPERS

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

DEFAULTS: dict = {
    "experiment": "simulate",
    "seed": 0,
    "m": 1.0,
    "grid": {"dim": 1, "points": 2048, "length": 128.0},
    "potential": {"coeffs": [-1.0, 1.0]},
    "rho": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0},
    "initial": {
        "kind": "random",
        "energy_norm": 1.0,
        "envelope_width": 8.0,
        "band_limit": 2.0,
        "band_center": 0.0,
        "envelope_center": 0.0,
    },
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
        "taper": "hann",
    },
    "counterexample": {"omega1": None, "b": -1.0, "sigma0": 1.0, "T": 50.0, "tol": 1e-3},
}
# experiments that read the configured coupling rho and so reject rho.kind "none"
_NEEDS_COUPLING = ("solitary", "sigma", "distance", "spectrum")

_RHO_KEYS = {
    "gaussian": {"kind", "amplitude", "width"},
    "none": {"kind"},
    "multifreq": {"kind", "omega1", "sigma0"},
    "file": {"kind", "path"},
}
_INITIAL_KEYS = {
    "random": {"kind", "energy_norm", "envelope_width", "band_limit", "band_center",
               "envelope_center"},
    "zero": {"kind"},
    "packet": {"kind", "center", "width", "carrier", "amplitude"},
    "solitary": {"kind", "omega", "phase", "root_index"},
    "file": {"kind", "path"},
}


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


def _check_keys(section: dict, allowed: set, path: str) -> None:
    extra = set(section) - allowed
    if extra:
        raise ConfigError(f"{path}.{sorted(extra)[0]}", "unknown key")


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            if path in ("rho", "initial", "evolve.sponge"):
                out[key] = copy.deepcopy(value)  # kind-specific keys, checked later
                continue
            raise ConfigError(where, "unknown key")
        if isinstance(base[key], dict) and isinstance(value, dict):
            # changing a section's kind switches its key set: replace, don't merge
            if value.get("kind", base[key].get("kind")) != base[key].get("kind"):
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


def _validate(raw: dict) -> dict:
    _check_keys(raw, set(DEFAULTS), "config")
    _require(raw["experiment"] in EXPERIMENTS, "experiment", f"must be one of {EXPERIMENTS}")
    _integer(raw["seed"], "seed", lo=0)
    _number(raw["m"], "m", lo=0, strict_lo=True)

    g = raw["grid"]
    _check_keys(g, {"dim", "points", "length"}, "grid")
    _integer(g["dim"], "grid.dim", lo=1)
    _require(g["dim"] <= 3, "grid.dim", "must be 1, 2 or 3")
    _integer(g["points"], "grid.points", lo=8)
    _number(g["length"], "grid.length", lo=0, strict_lo=True)

    pcoeffs = raw["potential"].get("coeffs")
    _check_keys(raw["potential"], {"coeffs"}, "potential")
    _require(isinstance(pcoeffs, (list, tuple)) and len(pcoeffs) >= 2, "potential.coeffs",
             "need at least two coefficients (degree p >= 2)")
    for i, c in enumerate(pcoeffs):
        _number(c, f"potential.coeffs[{i}]")
    _require(float(pcoeffs[-1]) > 0, "potential.coeffs", "leading coefficient must be positive")

    rho = raw["rho"]
    kind = rho.get("kind")
    _require(kind in _RHO_KEYS, "rho.kind", f"must be one of {sorted(_RHO_KEYS)}")
    _check_keys(rho, _RHO_KEYS[kind], "rho")
    if kind == "gaussian":
        _number(rho.get("amplitude", 1.0), "rho.amplitude")
        _number(rho.get("width", 1.0), "rho.width", lo=0, strict_lo=True)
    elif kind == "multifreq":
        m = float(raw["m"])
        _number(rho.get("omega1", 2.0 * m), "rho.omega1", lo=m, hi=3.0 * m, strict_lo=True)
        _number(rho.get("sigma0", 1.0), "rho.sigma0", lo=0, strict_lo=True)
    elif kind == "file":
        _require(isinstance(rho.get("path"), str), "rho.path", "must be a string")
    _require(kind != "none" or raw["experiment"] not in _NEEDS_COUPLING, "rho.kind",
             f"the {raw['experiment']} experiment needs a coupling")

    init = raw["initial"]
    kind = init.get("kind")
    _require(kind in _INITIAL_KEYS, "initial.kind", f"must be one of {sorted(_INITIAL_KEYS)}")
    _check_keys(init, _INITIAL_KEYS[kind], "initial")
    if kind == "random":
        _number(init.get("energy_norm", 1.0), "initial.energy_norm", lo=0, strict_lo=True)
        _number(init.get("envelope_width", 8.0), "initial.envelope_width", lo=0, strict_lo=True)
        _number(init.get("band_limit", 2.0), "initial.band_limit", lo=0, strict_lo=True)
        _number(init.get("band_center", 0.0), "initial.band_center", lo=0)
        _number(init.get("envelope_center", 0.0), "initial.envelope_center", lo=0)
    elif kind == "packet":
        _number(init.get("center", 0.0), "initial.center")
        _number(init.get("width", 4.0), "initial.width", lo=0, strict_lo=True)
        _number(init.get("carrier", 2.0), "initial.carrier")
        _number(init.get("amplitude", 1.0), "initial.amplitude")
    elif kind == "solitary":
        _number(init.get("omega", 0.5), "initial.omega")
        _number(init.get("phase", 0.0), "initial.phase")
        _integer(init.get("root_index", 0), "initial.root_index", lo=0)
        _require(raw["rho"]["kind"] != "none", "initial.kind",
                 "solitary data needs a coupling (rho.kind is 'none')")
    elif kind == "file":
        _require(isinstance(init.get("path"), str), "initial.path", "must be a string")

    ev = raw["evolve"]
    _check_keys(ev, {"dt", "T", "steps_per_sample", "snapshot_stride", "sponge"}, "evolve")
    _number(ev["dt"], "evolve.dt", lo=0, strict_lo=True)
    _number(ev["T"], "evolve.T", lo=0, strict_lo=True)
    _integer(ev["steps_per_sample"], "evolve.steps_per_sample", lo=1)
    _integer(ev["snapshot_stride"], "evolve.snapshot_stride", lo=0)
    sponge = ev["sponge"]
    if sponge is not None:
        _check_keys(sponge, {"inner_radius", "strength"}, "evolve.sponge")
        _number(sponge.get("inner_radius", 0.0), "evolve.sponge.inner_radius", lo=0, strict_lo=True)
        _number(sponge.get("strength", 1.0), "evolve.sponge.strength", lo=0, strict_lo=True)
        _require(sponge["inner_radius"] < 0.5 * raw["grid"]["length"],
                 "evolve.sponge.inner_radius", "must be inside the box (less than length/2)")

    _require(isinstance(raw["seminorms"], list), "seminorms", "must be a list")
    half = 0.5 * float(raw["grid"]["length"])
    for i, sn in enumerate(raw["seminorms"]):
        path = f"seminorms[{i}]"
        _check_keys(sn, {"epsilon", "radius", "cutoff_width"}, path)
        _number(sn.get("epsilon", 0.0), f"{path}.epsilon", lo=0, hi=1)
        _number(sn.get("radius", 8.0), f"{path}.radius", lo=0, strict_lo=True)
        _number(sn.get("cutoff_width", 8.0), f"{path}.cutoff_width", lo=0, strict_lo=True)
        _require(sn["radius"] + sn["cutoff_width"] < half, path,
                 "window must fit inside the box (radius + cutoff_width < length/2)")

    sig = raw["sigma"]
    _check_keys(sig, {"omega_min", "omega_max", "count"}, "sigma")
    _integer(sig["count"], "sigma.count", lo=2)
    for key in ("omega_min", "omega_max"):
        if sig[key] is not None:
            _number(sig[key], f"sigma.{key}")

    dist = raw["distance"]
    _check_keys(dist, {"epsilon", "radius", "cutoff_width", "use_global_norm", "omega_count"},
                "distance")
    _number(dist["epsilon"], "distance.epsilon", lo=0, hi=1)
    _number(dist["radius"], "distance.radius", lo=0, strict_lo=True)
    _number(dist["cutoff_width"], "distance.cutoff_width", lo=0, strict_lo=True)
    _require(isinstance(dist["use_global_norm"], bool), "distance.use_global_norm",
             "must be true or false")
    _integer(dist["omega_count"], "distance.omega_count", lo=3)

    sp = raw["spectrum"]
    _check_keys(sp, {"window_width", "n_windows", "mass_fraction", "cluster_bins",
                     "exclusion_bins", "taper"}, "spectrum")
    _number(sp["window_width"], "spectrum.window_width", lo=0, strict_lo=True)
    _integer(sp["n_windows"], "spectrum.n_windows", lo=1)
    _number(sp["mass_fraction"], "spectrum.mass_fraction", lo=0, hi=1, strict_lo=True)
    _integer(sp["cluster_bins"], "spectrum.cluster_bins", lo=0)
    _integer(sp["exclusion_bins"], "spectrum.exclusion_bins", lo=0)
    _require(sp["taper"] in TAPERS, "spectrum.taper", f"must be one of {list(TAPERS)}")
    if raw["experiment"] == "spectrum":
        _require(sp["n_windows"] * sp["window_width"] <= ev["T"] + 1e-9, "spectrum.window_width",
                 "windows do not fit in the trajectory (n_windows * window_width > evolve.T)")

    ce = raw["counterexample"]
    _check_keys(ce, {"omega1", "b", "sigma0", "T", "tol"}, "counterexample")
    m = float(raw["m"])
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
        try:
            return make_grid(g["dim"], g["points"], float(g["length"]))
        except ValueError as exc:
            raise ConfigError("grid", str(exc)) from exc

    def build_potential(self) -> PolynomialPotential:
        return PolynomialPotential(tuple(float(c) for c in self.raw["potential"]["coeffs"]))

    def build_rho(self, grid: Grid) -> CouplingProfile | None:
        rho = self.raw["rho"]
        kind = rho["kind"]
        if kind == "none":
            return None
        if kind == "gaussian":
            return CouplingProfile.gaussian(grid, rho.get("amplitude", 1.0), rho.get("width", 1.0))
        if kind == "multifreq":
            return _build_multifreq_rho(
                float(rho.get("omega1", 2.0 * self.m)), grid, self.m,
                float(rho.get("sigma0", 1.0)),
            )
        values = np.load(Path(rho["path"]))
        if values.shape != grid.shape:
            raise ConfigError("rho.path", f"array shape {values.shape} does not match {grid.shape}")
        return CouplingProfile.from_values(grid, values)

    def build_initial_state(self, grid: Grid, rho: CouplingProfile | None,
                            pot: PolynomialPotential) -> FieldState:
        init = self.raw["initial"]
        kind = init["kind"]
        if kind == "zero":
            return zero_state(grid)
        if kind == "random":
            return random_state(
                grid, self.seed,
                float(init.get("energy_norm", 1.0)),
                float(init.get("envelope_width", 8.0)),
                float(init.get("band_limit", 2.0)),
                float(init.get("band_center", 0.0)),
                float(init.get("envelope_center", 0.0)),
                self.m,
            )
        if kind == "packet":
            return wave_packet(
                grid, float(init.get("center", 0.0)), float(init.get("width", 4.0)),
                float(init.get("carrier", 2.0)), float(init.get("amplitude", 1.0)),
            )
        if kind == "solitary":
            if rho is None:
                raise ConfigError("initial.kind", "solitary data needs a coupling")
            wave = build_solitary(
                rho, pot, float(init.get("omega", 0.5)), float(init.get("phase", 0.0)),
                self.m, int(init.get("root_index", 0)),
            )
            return wave.initial_state()
        state, m_file = load_snapshot(Path(init["path"]))
        if state.grid != grid:
            raise ConfigError("initial.path", "snapshot grid does not match config grid")
        if abs(m_file - self.m) > 1e-12 * max(1.0, self.m):
            raise ConfigError("initial.path", f"snapshot mass {m_file} differs from config m {self.m}")
        return state

    def build_integrator(self, grid: Grid) -> Integrator:
        ev = self.raw["evolve"]
        if float(ev["dt"]) >= grid.spacing:
            raise ConfigError("evolve.dt", f"must be below the grid spacing {grid.spacing:g}")
        sponge = None
        if ev["sponge"] is not None:
            sponge = Sponge(float(ev["sponge"]["inner_radius"]),
                            float(ev["sponge"].get("strength", 1.0)))
        return Integrator(float(ev["dt"]), int(ev["steps_per_sample"]), sponge)

    def seminorm_specs(self) -> tuple[SeminormSpec, ...]:
        return tuple(
            SeminormSpec(float(sn.get("epsilon", 0.0)), float(sn.get("radius", 8.0)),
                         float(sn.get("cutoff_width", 8.0)))
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


def load_config(path) -> RunConfig:
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    return config_from_dict(raw)
