"""Command line front end.

Each subcommand is an experiment: it reads one JSON config (merged over
defaults, further overridden by --set and --seed), writes its outputs into
--output-dir, and finishes with a manifest.json listing the SHA-256 of
every file it wrote.  Outputs carry no timestamps, so a rerun with the
same config and seed is byte-identical.

Exit codes: 0 success, 2 configuration problems, 3 numerical failures
and running out of memory, 4 filesystem trouble.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import (
    EXPERIMENTS, ConfigError, RunConfig, _read_config_file, _seminorm_spec, _sigma_range,
    config_from_dict, set_by_path,
)
from .dynamics import Observers, _sample_count, evolve, snapshots
from .fields import SeminormSpec
from .io import save_snapshot, write_columns_csv, write_trajectory_csv
from .multifreq import build_counterexample, verify_persistence
from .potential import lower_bound_constants
from .solitary import (
    ManifoldTable,
    default_omega_grid,
    dispersion_curve,
    resolvent_coupling,
    stationarity_residual,
)
from .spectral import AttractionConfig, attraction_report


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _parse_set(pair: str) -> tuple[str, object]:
    if "=" not in pair:
        raise ConfigError("--set", f"expected dotted.path=value, got {pair!r}")
    dotted, text = pair.split("=", 1)
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    return dotted, value


def _build_config(args, experiment: str) -> RunConfig:
    raw = {} if args.config is None else _read_config_file(args.config)
    raw["experiment"] = experiment
    for pair in args.set or ():
        dotted, value = _parse_set(pair)
        set_by_path(raw, dotted, value)
    if args.seed is not None:
        raw["seed"] = args.seed
    return config_from_dict(raw)


# the experiments that write the configured seminorm series; the others
# evolve without them, so no sample pays for a series that nothing writes
_WRITES_SEMINORMS = ("simulate",)


def _run_inputs(cfg: RunConfig):
    """The initial state, coupling, potential, integrator and T of an evolving experiment."""
    grid = cfg.build_grid()
    pot = cfg.build_potential()
    rho = cfg.build_rho(grid)
    state = cfg.build_initial_state(grid, rho, pot)
    return state, rho, pot, cfg.build_integrator(), float(cfg.section("evolve")["T"])


def _evolved(cfg: RunConfig):
    state, rho, pot, integ, T = _run_inputs(cfg)
    obs = cfg.build_observers()
    specs = obs.seminorm_specs if cfg.experiment in _WRITES_SEMINORMS else ()
    traj = evolve(state, rho, pot, integ, T, Observers(specs, obs.snapshot_stride), cfg.m)
    return state.grid, pot, rho, traj


def _emit_snapshots(outdir: Path, traj, m: float, files: list[str]) -> None:
    for i, snap in enumerate(traj.snapshots):
        name = f"snapshot_{i:04d}.mfkg"
        save_snapshot(outdir / name, snap, m)
        files.append(name)


def _run_simulate(cfg: RunConfig, outdir: Path, files: list[str]) -> None:
    _, pot, rho, traj = _evolved(cfg)
    write_trajectory_csv(outdir / "trajectory.csv", traj)
    files.append("trajectory.csv")
    _emit_snapshots(outdir, traj, cfg.m, files)
    energy = np.asarray(traj.energy)
    bound = None
    if rho is not None:
        lb = lower_bound_constants(pot)
        bound = {"A": lb.A, "B": lb.B}
    _write_json(outdir / "summary.json", {
        "samples": len(traj.times),
        "final_time": float(traj.times[-1]),
        "energy_initial": float(energy[0]),
        "energy_final": float(energy[-1]),
        "energy_drift_rel": float(np.max(np.abs(energy - energy[0]))
                                  / max(abs(energy[0]), 1e-300)),
        "charge_drift": float(np.max(np.abs(traj.charge - traj.charge[0]))),
        "charge_initial": float(traj.charge[0]),
        "charge_final": float(traj.charge[-1]),
        "max_abs_gamma": float(np.max(np.abs(traj.gamma))),
        "lower_bound": bound,
        "sponge": traj.sponge is not None,
    })
    files.append("summary.json")


def _run_solitary(cfg: RunConfig, outdir: Path, files: list[str]) -> None:
    grid = cfg.build_grid()
    pot = cfg.build_potential()
    rho = cfg.build_rho(grid)
    wave = cfg.solitary_wave(rho, pot)
    save_snapshot(outdir / "solitary.mfkg", wave.initial_state(), cfg.m)
    files.append("solitary.mfkg")
    _write_json(outdir / "solitary.json", {
        "omega": wave.omega,
        "amplitude": wave.amplitude,
        "sigma": resolvent_coupling(rho, wave.omega, cfg.m),
        "energy": wave.energy,
        "charge": wave.charge,
        "residual": stationarity_residual(wave, rho, pot, cfg.m),
    })
    files.append("solitary.json")


def _run_sigma(cfg: RunConfig, outdir: Path, files: list[str]) -> None:
    grid = cfg.build_grid()
    rho = cfg.build_rho(grid)
    sec = cfg.section("sigma")
    omegas = np.linspace(*_sigma_range(sec, cfg.m), int(sec["count"]))
    values = dispersion_curve(rho, omegas, cfg.m)
    write_columns_csv(outdir / "sigma.csv", ["omega", "sigma"], [omegas, values])
    files.append("sigma.csv")


def _distance_spec(cfg: RunConfig) -> tuple[SeminormSpec, bool, np.ndarray]:
    """The distance seminorm, the global-norm flag and the manifold's candidate frequencies."""
    sec = cfg.section("distance")
    spec = _seminorm_spec(sec)
    rho_sec = cfg.section("rho")
    zeros = (float(rho_sec["omega1"]),) if rho_sec["kind"] == "multifreq" else ()
    omegas = default_omega_grid(cfg.m, zeros, int(sec["omega_count"]))
    return spec, bool(sec["use_global_norm"]), omegas


def _run_distance(cfg: RunConfig, outdir: Path, files: list[str]) -> None:
    # the distances read the snapshots alone, so the run records no series
    state, rho, pot, integ, T = _run_inputs(cfg)
    # about 17 snapshots unless the config sets a stride
    stride = (int(cfg.section("evolve")["snapshot_stride"])
              or max(1, _sample_count(integ, T) // 16))
    spec, use_global, omegas = _distance_spec(cfg)
    table = ManifoldTable(rho, pot, None if use_global else spec, omegas, cfg.m)
    times, dists, best = table.distances(snapshots(state, rho, pot, integ, T, stride, cfg.m))
    # None (the zero wave is closest) is written as nan
    write_columns_csv(outdir / "distance.csv", ["t", "distance", "best_omega"],
                      [times, dists, np.array(best, dtype=float)])
    files.append("distance.csv")
    _write_json(outdir / "distance.json", {
        "initial": dists[0],
        "final": dists[-1],
        "min": float(np.min(dists)),
        "use_global_norm": use_global,
    })
    files.append("distance.json")


def _run_spectrum(cfg: RunConfig, outdir: Path, files: list[str]) -> None:
    grid, pot, rho, traj = _evolved(cfg)
    sec = cfg.section("spectrum")
    spec, use_global, omegas = _distance_spec(cfg)
    acfg = AttractionConfig(
        window_width=float(sec["window_width"]),
        n_windows=int(sec["n_windows"]),
        mass_fraction=float(sec["mass_fraction"]),
        cluster_bins=int(sec["cluster_bins"]),
        exclusion_bins=int(sec["exclusion_bins"]),
        seminorm=spec,
        omega_grid=omegas,
        use_global_norm=use_global,
    )
    report = attraction_report(traj, rho, pot, acfg, cfg.m)
    rows = [asdict(w) for w in report.windows]
    scalars = ["t_center", "dominant_frequency", "concentration", "outside_mass_fraction"]
    table = [[row[k] for k in scalars] + list(row["support"]) for row in rows]
    write_columns_csv(outdir / "windows.csv", scalars + ["support_lo", "support_hi"],
                      list(zip(*table)))
    files.append("windows.csv")
    payload = {
        "trivial": report.trivial,
        "bin_width": report.bin_width,
        "sponge_active": report.sponge_active,
        "horizon_time": report.horizon_time,
        "windows": rows,
    }
    if report.distances is not None:
        payload["distances"] = {
            "t": report.distance_times,
            "distance": report.distances,
            "best_omega": report.best_omegas,
        }
    _write_json(outdir / "attraction.json", payload)
    files.append("attraction.json")


def _run_counterexample(cfg: RunConfig, outdir: Path, files: list[str]) -> None:
    grid = cfg.build_grid()
    sec = cfg.section("counterexample")
    omega1 = 2.0 * cfg.m if sec["omega1"] is None else float(sec["omega1"])
    sol = build_counterexample(omega1, float(sec["b"]), grid, cfg.m,
                               float(sec["sigma0"]))
    integ = cfg.build_integrator()
    report = verify_persistence(sol, integ, float(sec["T"]), float(sec["tol"]))
    gamma_exact = sol.gamma_exact(report.times)
    write_columns_csv(
        outdir / "gamma.csv",
        ["t", "re_gamma", "im_gamma", "gamma_exact"],
        [report.times, report.gamma.real, report.gamma.imag, gamma_exact],
    )
    files.append("gamma.csv")
    _write_json(outdir / "counterexample.json", {
        "omega1": sol.omega1,
        "omega0": sol.omega0,
        "b": sol.b,
        "linear_coeff": sol.linear_coeff,
        "sigma0": sol.sigma0,
        "mixing": sol.mixing,
        "max_relative_error": report.max_relative_error,
        "gamma_error": report.gamma_error,
        "force_peaks": list(report.force_peaks),
        "force_concentration": report.force_concentration,
        "tol": report.tol,
        "passed": report.passed,
    })
    files.append("counterexample.json")


_RUNNERS = {
    "simulate": _run_simulate,
    "solitary": _run_solitary,
    "sigma": _run_sigma,
    "distance": _run_distance,
    "spectrum": _run_spectrum,
    "counterexample": _run_counterexample,
}


def run_experiment(cfg: RunConfig, outdir: Path) -> list[str]:
    """Execute the configured experiment, returning the names of files written."""
    outdir.mkdir(parents=True, exist_ok=True)
    files: list[str] = []
    _write_json(outdir / "config.json", cfg.raw)
    files.append("config.json")
    _RUNNERS[cfg.experiment](cfg, outdir, files)
    manifest = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "files": {
            name: hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in files
        },
    }
    _write_json(outdir / "manifest.json", manifest)
    files.append("manifest.json")
    return files


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfkg",
        description="Klein-Gordon field with a mean-field coupling: simulation and analysis.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file (defaults merged in)")
        p.add_argument("--output-dir", default="out", help="directory for outputs")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--set", action="append", metavar="PATH=JSON",
                       help="override one config entry, e.g. evolve.dt=0.005")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args, args.experiment)
        if cfg.raw["seminorms"] and cfg.experiment not in _WRITES_SEMINORMS:
            print(f"note: seminorms: only {' and '.join(_WRITES_SEMINORMS)} writes seminorm "
                  f"series; {cfg.experiment} records none", file=sys.stderr)
        files = run_experiment(cfg, Path(args.output_dir))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {len(files)} files to {args.output_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
