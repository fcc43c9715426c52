"""Config validation, builders, and the command line end to end."""
import csv
import hashlib
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfkg import (
    ConfigError, Observers, SeminormSpec, config_from_dict, energy_norm, evolve, load_config,
    make_grid, random_state, wave_packet, zero_state,
)
from mfkg import cli
from mfkg.config import set_by_path
from mfkg.cli import _evolved, main, run_experiment
from mfkg.config import (
    DEFAULTS, INITIAL_KINDS, RHO_KINDS, SCHEMA, SEMINORM, SPONGE, table_defaults,
)
from mfkg.dynamics import _sample_count
from mfkg.io import load_snapshot, save_snapshot
from mfkg.solitary import ManifoldTable, default_omega_grid, resolvent_coupling

SMALL = {"grid": {"points": 256, "length": 64.0}}


def test_defaults_validate():
    cfg = config_from_dict({})
    assert cfg.experiment == "simulate" and cfg.seed == 0 and cfg.m == 1.0
    grid = cfg.build_grid()
    assert grid.shape == (2048,) and grid.box_length == 128.0


def test_merge_is_deep_and_defaults_survive():
    cfg = config_from_dict({"evolve": {"dt": 0.005}})
    ev = cfg.section("evolve")
    assert ev["dt"] == 0.005 and ev["T"] == 100.0
    assert DEFAULTS["evolve"]["dt"] == 0.01  # merge never mutates the defaults


@pytest.mark.parametrize("raw, path", [
    ({"bogus": 1}, "bogus"),
    ({"experiment": "plot"}, "experiment"),
    ({"seed": -1}, "seed"),
    ({"m": 0.0}, "m"),
    ({"grid": {"dim": 4}}, "grid.dim"),
    ({"grid": {"pts": 256}}, "grid.pts"),
    ({"potential": {"coeffs": [1.0]}}, "potential.coeffs"),
    ({"potential": {"coeffs": [1.0, -1.0]}}, "potential.coeffs"),
    ({"rho": {"kind": "cosine"}}, "rho.kind"),
    ({"rho": {"kind": "gaussian", "width": 0}}, "rho.width"),
    ({"rho": {"kind": "gaussian", "sigma0": 1.0}}, "rho.sigma0"),
    ({"rho": {"kind": "multifreq", "omega1": 0.5}}, "rho.omega1"),
    ({"initial": {"kind": "random", "band_center": -1.0}}, "initial.band_center"),
    ({"initial": {"kind": "random", "envelope_center": -2.0}}, "initial.envelope_center"),
    ({"initial": {"kind": "random", "energy_norm": True}}, "initial.energy_norm"),
    ({"initial": {"kind": "solitary"}, "rho": {"kind": "none"}}, "initial.kind"),
    ({"evolve": {"dt": 0}}, "evolve.dt"),
    ({"evolve": {"steps_per_sample": 0}}, "evolve.steps_per_sample"),
    ({"evolve": {"sponge": {"inner_radius": 64.0}}}, "evolve.sponge.inner_radius"),
    ({"seminorms": [{"radius": 60.0, "cutoff_width": 8.0}]}, "seminorms[0]"),
    ({"distance": {"use_global_norm": 1}}, "distance.use_global_norm"),
    ({"distance": {"epsilon": 1.5}}, "distance.epsilon"),
    ({"experiment": "spectrum", "spectrum": {"window_width": 40.0, "n_windows": 3}},
     "spectrum.window_width"),
    ({"counterexample": {"b": 0.5}}, "counterexample.b"),
    # two specs with one radius would share the series label seminorm_R8
    ({"seminorms": [{"epsilon": 0.0, "radius": 8.0, "cutoff_width": 8.0},
                    {"epsilon": 0.5, "radius": 8.0, "cutoff_width": 8.0}]}, "seminorms"),
    ({"spectrum": {"taper": "nosuch"}}, "spectrum.taper"),
    ({"experiment": "solitary", "rho": {"kind": "none"}}, "rho.kind"),
    ({"experiment": "sigma", "rho": {"kind": "none"}}, "rho.kind"),
    ({"experiment": "distance", "rho": {"kind": "none"}}, "rho.kind"),
    ({"experiment": "spectrum", "rho": {"kind": "none"}}, "rho.kind"),
    ({"rho": 5}, "rho"),
    ({"grid": 5}, "grid"),
    ({"evolve": {"sponge": 5}}, "evolve.sponge"),
    ({"seminorms": [5]}, "seminorms[0]"),
    ({"evolve": {"sponge": {"strength": 2.0}}}, "evolve.sponge.inner_radius"),
    ({"rho": {"kind": "multifreq", "omega1": 3.0}}, "rho.omega1"),
    ({"experiment": "distance", "distance": {"radius": 60.0}}, "distance.radius"),
    ({"experiment": "spectrum", "distance": {"radius": 50.0, "cutoff_width": 14.0}},
     "distance.radius"),
    # an integer too large for a float is not finite
    ({"m": 10**400}, "m"),
    # a sigma curve of more points than fit in memory
    ({"sigma": {"count": 10**400}}, "sigma.count"),
    # a grid of more than 2^24 points, in one or in three dimensions
    ({"grid": {"points": 2**40}}, "grid.points"),
    ({"grid": {"dim": 3, "points": 512}}, "grid.points"),
    # integers beyond int64
    ({"seed": 2**63}, "seed"),
    ({"evolve": {"snapshot_stride": 2**63}}, "evolve.snapshot_stride"),
    # more than 10^8 time steps, in the T that the experiment runs
    ({"evolve": {"T": 1e300}}, "evolve.T"),
    ({"experiment": "counterexample", "counterexample": {"T": 1e7}}, "counterexample.T"),
    # a spectrum window of fewer than 8 sampling intervals (dt 0.01 * 10 steps)
    ({"experiment": "spectrum", "spectrum": {"window_width": 0.79}}, "spectrum.window_width"),
    # a counterexample run of 6 samples (dt 0.01 * 10 steps), short of its spectrum's 8
    ({"experiment": "counterexample", "counterexample": {"T": 0.5}}, "counterexample.T"),
    ({"counterexample": {"tol": -1.0}}, "counterexample.tol"),
])
def test_validation_reports_dotted_path(raw, path):
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.path == path
    assert str(err.value).startswith(path + ":")


def test_integer_and_grid_caps_admit_their_bounds():
    """2^24 grid points in one or three dimensions, int64's largest seed and stride, and 10^8 steps pass."""
    for dim, points in ((1, 2**24), (3, 2**8)):
        cfg = config_from_dict({"experiment": "sigma", "grid": {"dim": dim, "points": points}})
        assert cfg.section("grid")["points"] == points
    cfg = config_from_dict({"seed": 2**63 - 1, "evolve": {"snapshot_stride": 2**63 - 1}})
    assert cfg.seed == 2**63 - 1 and cfg.section("evolve")["snapshot_stride"] == 2**63 - 1
    for experiment, section in (("simulate", "evolve"), ("counterexample", "counterexample")):
        cfg = config_from_dict({"experiment": experiment, section: {"T": 1e6}})  # dt 0.01
        assert cfg.section(section)["T"] == 1e6


def test_spectrum_window_of_eight_sampling_intervals_runs(tmp_path):
    """windowed_spectrum needs 8 samples a window: 8 intervals of dt 0.01 * 10 steps pass and run."""
    cfg = config_from_dict({"experiment": "spectrum", "spectrum": {"window_width": 0.8}})
    assert cfg.section("spectrum")["window_width"] == 0.8
    code, out = run_cli(tmp_path, "spectrum", "--set", "grid.points=256", "--set", "grid.length=64.0",
                        "--set", "evolve.T=10.0", "--set", "spectrum.window_width=0.8")
    assert code == 0 and (out / "manifest.json").exists()


def test_counterexample_of_eight_samples_passes():
    """T = 0.69 in intervals of dt 0.01 * 10 steps rounds up to 7 intervals, so 8 samples."""
    cfg = config_from_dict({"experiment": "counterexample", "counterexample": {"T": 0.69}})
    assert cfg.section("counterexample")["T"] == 0.69


def _wrongly_typed_leaves():
    """(config, dotted path) with a wrongly typed value at each leaf of the schema tables."""
    def wrong(default, path):  # a number where a string belongs, else a string
        return 1.0 if isinstance(default, str) or path.endswith(".path") else "x"

    def walk(table, prefix):
        for key, node in table.items():
            if isinstance(node, dict):
                yield from walk(node, f"{prefix}{key}.")
            else:
                raw, path = {}, prefix + key
                set_by_path(raw, path, wrong(node[0], path))
                yield raw, path

    yield from walk(SCHEMA, "")
    for section, kinds in (("rho", RHO_KINDS), ("initial", INITIAL_KINDS)):
        yield {section: {"kind": 1.0}}, f"{section}.kind"
        for kind, table in kinds.items():
            for key, (default, _) in table.items():
                path = f"{section}.{key}"
                yield {section: {"kind": kind, key: wrong(default, path)}}, path
    for key, (default, _) in SPONGE.items():
        sponge = {"inner_radius": 20.0, key: wrong(default, key)}
        yield {"evolve": {"sponge": sponge}}, f"evolve.sponge.{key}"
    for key, (default, _) in SEMINORM.items():
        yield {"seminorms": [{key: wrong(default, key)}]}, f"seminorms[0].{key}"


@pytest.mark.parametrize("raw, path", [pytest.param(raw, path, id=path)
                                       for raw, path in _wrongly_typed_leaves()])
def test_every_leaf_rejects_a_wrong_type_at_its_path(raw, path):
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.path == path


@pytest.mark.parametrize("raw, path", [
    ({"evolve": {"sponge": {"strength": 2.0}}}, "evolve.sponge.inner_radius"),
    ({"rho": {"kind": "file"}}, "rho.path"),
    ({"initial": {"kind": "file"}}, "initial.path"),
])
def test_missing_required_key_is_named(raw, path):
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert str(err.value) == f"{path}: required"


def test_sampling_interval_must_fit_in_the_run():
    # a run covers whole sampling intervals: dt * steps_per_sample may not exceed its T
    for raw in ({"evolve": {"T": 1.0, "steps_per_sample": 1000}},
                {"experiment": "counterexample", "counterexample": {"T": 0.05}}):
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert err.value.path == "evolve.steps_per_sample"
    # equality passes, also where T / dt rounds below steps_per_sample (0.3 / 0.05 < 6)
    config_from_dict({"evolve": {"T": 1.0, "steps_per_sample": 100}})
    config_from_dict({"evolve": {"T": 0.3, "dt": 0.05, "steps_per_sample": 6}})
    # sigma takes no time steps
    config_from_dict({"experiment": "sigma", "evolve": {"T": 1.0, "steps_per_sample": 1000}})


def test_partial_seminorm_entry_takes_the_table_defaults():
    cfg = config_from_dict({"seminorms": [{"epsilon": 0.5}]})
    assert cfg.raw["seminorms"] == [{"epsilon": 0.5, "radius": 8.0, "cutoff_width": 8.0}]
    assert cfg.seminorm_specs() == (SeminormSpec(0.5, 8.0, 8.0),)


def test_multifreq_omega1_resolves_to_2m():
    multi = config_from_dict({"m": 1.5, "rho": {"kind": "multifreq"}})
    assert multi.raw["rho"] == {"kind": "multifreq", "omega1": 3.0, "sigma0": 1.0}
    # a kind switch replaces the section, so keys of the old kind are unknown
    with pytest.raises(ConfigError, match="rho.amplitude: unknown key"):
        config_from_dict({"rho": {"kind": "multifreq", "amplitude": 1.0}})


def test_set_by_path_creates_nested_leaves():
    raw = {}
    set_by_path(raw, "evolve.sponge.inner_radius", 32.0)
    set_by_path(raw, "seed", 5)
    assert raw == {"evolve": {"sponge": {"inner_radius": 32.0}}, "seed": 5}


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"seed": 11, "m": 1.5}))
    cfg = load_config(p)
    assert cfg.seed == 11 and cfg.m == 1.5
    p.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(p)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="file not found") as err:
        load_config(tmp_path / "missing.json")
    assert err.value.path == "config"


def test_random_state_reproducible_and_normalized(grid):
    a = random_state(grid, 42, energy_norm_target=2.5)
    b = random_state(grid, 42, energy_norm_target=2.5)
    assert_allclose(a.psi, b.psi, atol=0)
    assert energy_norm(a, 1.0) == pytest.approx(2.5, rel=1e-12)
    assert random_state(grid, 43).psi[0] != pytest.approx(a.psi[0])


def test_random_state_band_center_selects_annulus(grid):
    state = random_state(grid, 3, band_limit=0.3, band_center=1.5)
    psi_hat = grid.forward(state.psi)
    k = np.sqrt(grid.k_squared)
    mass = np.abs(psi_hat) ** 2
    near = mass[np.abs(k - 1.5) < 0.9].sum()
    assert near > 0.9 * mass.sum()


def test_random_state_envelope_center_makes_shell(grid):
    state = random_state(grid, 5, envelope_width=3.0, envelope_center=20.0)
    mass = np.abs(state.psi) ** 2 + np.abs(state.pi) ** 2
    shell = mass[np.abs(grid.radius - 20.0) < 9.0].sum()
    core = mass[grid.radius < 8.0].sum()
    assert shell > 0.99 * mass.sum()
    assert core < 1e-6 * mass.sum()


def test_wave_packet_formula(grid):
    x = grid.axis_coords[0]
    st = wave_packet(grid, center=3.0, width=2.0, carrier=1.5, amplitude=0.7)
    expected = 0.7 * np.exp(-((x - 3.0) ** 2) / 8.0) * np.cos(1.5 * (x - 3.0))
    assert_allclose(st.psi, expected.astype(complex), atol=1e-15)
    assert np.all(st.pi == 0)
    # in 2-D the envelope is radial about (center, 0), the carrier along the first axis
    square = make_grid(2, 32, 16.0)
    x, y = np.meshgrid(*square.axis_coords, indexing="ij")
    st = wave_packet(square, center=3.0, width=2.0, carrier=1.5, amplitude=0.7)
    expected = 0.7 * np.exp(-((x - 3.0) ** 2 + y ** 2) / 8.0) * np.cos(1.5 * (x - 3.0))
    assert_allclose(st.psi, expected.astype(complex), atol=1e-15)
    assert np.all(st.pi == 0)


def test_builders(tmp_path, grid):
    cfg = config_from_dict({
        "grid": {"points": 256, "length": 64.0},
        "rho": {"kind": "multifreq", "omega1": 2.0, "sigma0": 2.0},
        "evolve": {"sponge": {"inner_radius": 20.0, "strength": 2.0}},
        "seminorms": [{"epsilon": 0.5, "radius": 8.0, "cutoff_width": 8.0}],
    })
    g = cfg.build_grid()
    rho = cfg.build_rho(g)
    assert resolvent_coupling(rho, 2.0 / 3.0) == pytest.approx(2.0, rel=1e-12)
    integ = cfg.build_integrator()
    assert integ.sponge.inner_radius == 20.0 and integ.sponge.strength == 2.0
    obs = cfg.build_observers()
    assert len(obs.seminorm_specs) == 1 and obs.seminorm_specs[0].epsilon == 0.5

    none_cfg = config_from_dict({"rho": {"kind": "none"}})
    assert none_cfg.build_rho(g) is None

    with pytest.raises(ConfigError, match="grid spacing"):
        config_from_dict({"grid": {"points": 64, "length": 0.32}})


def test_initial_state_kinds(tmp_path, grid, rho, pot):
    zero = config_from_dict({"initial": {"kind": "zero"}})
    st = zero.build_initial_state(grid, rho, pot)
    assert not np.any(st.psi)

    sol = config_from_dict({"initial": {"kind": "solitary", "omega": 0.5}})
    ws = sol.build_initial_state(grid, rho, pot)
    assert abs(grid.dot(rho.values, ws.psi)) > 0.1

    path = tmp_path / "init.mfkg"
    save_snapshot(path, ws, 1.0)
    from_file = config_from_dict({**SMALL, "initial": {"kind": "file", "path": str(path)}})
    st2 = from_file.build_initial_state(grid, rho, pot)
    assert_allclose(st2.psi, ws.psi, atol=0)

    # the snapshot's header is checked against the config when the config is read
    with pytest.raises(ConfigError, match="initial.path: snapshot grid does not match"):
        config_from_dict({"initial": {"kind": "file", "path": str(path)}})
    with pytest.raises(ConfigError, match="initial.path: snapshot mass"):
        config_from_dict({**SMALL, "m": 2.0, "initial": {"kind": "file", "path": str(path)}})


def test_rho_file_is_checked_when_the_config_is_read(tmp_path, grid, rho):
    path = tmp_path / "rho.npy"
    np.save(path, rho.values)
    cfg = config_from_dict({**SMALL, "rho": {"kind": "file", "path": str(path)}})
    assert_allclose(cfg.build_rho(grid).values, rho.values, atol=0)
    with pytest.raises(ConfigError, match=r"rho.path: array shape \(256,\) does not match"):
        config_from_dict({"rho": {"kind": "file", "path": str(path)}})
    np.savez(tmp_path / "rho.npz", values=rho.values)
    with pytest.raises(ConfigError, match="rho.path: .* is not a .npy array"):
        config_from_dict({**SMALL, "rho": {"kind": "file", "path": str(tmp_path / "rho.npz")}})


def csv_column(path, name):
    """The named column of a CSV output, as floats."""
    with open(path, newline="") as fh:
        return np.array([float(row[name]) for row in csv.DictReader(fh)])


def run_cli(tmp_path, *argv):
    out = tmp_path / "out"
    return main([*argv, "--output-dir", str(out)]), out


def _set_args(sets):
    return [arg for key, value in sets.items() for arg in ("--set", f"{key}={json.dumps(value)}")]


def read_manifest(out):
    return json.loads((out / "manifest.json").read_text())


def test_cli_sigma_contract(tmp_path):
    code, out = run_cli(
        tmp_path, "sigma", "--set", "grid.points=256", "--set", "grid.length=64.0",
        "--set", "sigma.count=21",
    )
    assert code == 0
    lines = (out / "sigma.csv").read_text().splitlines()
    assert lines[0] == "omega,sigma"
    assert len(lines) == 22
    values = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert np.all(values > 0)
    manifest = read_manifest(out)
    assert manifest["experiment"] == "sigma"
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_cli_simulate_is_deterministic(tmp_path):
    argv = ["simulate", "--seed", "3", "--set", "grid.points=256",
            "--set", "grid.length=64.0", "--set", "evolve.T=1.0"]
    code1, out1 = run_cli(tmp_path / "a", *argv)
    code2, out2 = run_cli(tmp_path / "b", *argv)
    assert code1 == 0 and code2 == 0
    assert read_manifest(out1)["files"] == read_manifest(out2)["files"]
    assert read_manifest(out1)["seed"] == 3
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["energy_drift_rel"] < 1e-4
    cfg_echo = json.loads((out1 / "config.json").read_text())
    assert cfg_echo["seed"] == 3 and cfg_echo["evolve"]["T"] == 1.0


def test_cli_simulate_reports_charge_drift(tmp_path):
    code, out = run_cli(tmp_path / "a", "simulate", "--set", "grid.points=256",
                        "--set", "grid.length=64.0", "--set", "evolve.T=5.0")
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    charge = csv_column(out / "trajectory.csv", "Q")
    assert summary["charge_drift"] == np.max(np.abs(charge - charge[0]))
    # undamped, the drift is roundoff on the scale of the fields' energy
    assert summary["charge_drift"] <= 1e-12 * abs(summary["energy_initial"])


def test_cli_solitary_outputs(tmp_path):
    code, out = run_cli(
        tmp_path, "solitary", "--set", "grid.points=256", "--set", "grid.length=64.0",
        "--set", "rho.amplitude=2.0",
        "--set", "initial.kind=solitary", "--set", "initial.omega=0.5",
    )
    assert code == 0
    info = json.loads((out / "solitary.json").read_text())
    assert info["omega"] == 0.5 and info["residual"] < 1e-10
    assert (out / "solitary.mfkg").exists()


def test_cli_distance_outputs(tmp_path):
    code, out = run_cli(
        tmp_path, "distance", "--set", "grid.points=256", "--set", "grid.length=64.0",
        "--set", "evolve.T=2.0", "--set", "distance.omega_count=11",
        "--set", "rho.amplitude=2.0",
        "--set", "initial.kind=solitary", "--set", "initial.omega=0.5",
    )
    assert code == 0
    lines = (out / "distance.csv").read_text().splitlines()
    assert lines[0] == "t,distance,best_omega"
    info = json.loads((out / "distance.json").read_text())
    assert info["final"] < 1e-3  # exact wave stays on the manifold


def test_cli_distance_without_amplitude_roots(tmp_path):
    # alpha > 0 and s(omega) > 0 on the gap: only the zero wave is on the manifold
    code, out = run_cli(
        tmp_path, "distance", "--set", "grid.points=256", "--set", "grid.length=64.0",
        "--set", "evolve.T=1.0", "--set", "distance.omega_count=11",
        "--set", "rho.amplitude=2.0", "--set", "potential.coeffs=[0.5, 1.0]",
    )
    assert code == 0
    rows = [line.split(",") for line in (out / "distance.csv").read_text().splitlines()[1:]]
    assert rows and all(float(d) > 0 and best == "nan" for _, d, best in rows)


def test_cli_distance_global_norm_flag_selects_spec_none(tmp_path):
    sets = {"grid.points": 256, "grid.length": 64.0, "evolve.T": 2.0,
            "distance.omega_count": 11, "rho.amplitude": 2.0, "distance.use_global_norm": True}
    code, out = run_cli(tmp_path, "distance", *_set_args(sets))
    assert code == 0
    rows = [line.split(",") for line in (out / "distance.csv").read_text().splitlines()[1:]]
    raw = {}
    for key, value in sets.items():
        set_by_path(raw, key, value)
    cfg = config_from_dict({**raw, "experiment": "distance"})
    # the experiment's snapshots, by evolve at its default stride
    state, rho, pot, integ, T = cli._run_inputs(cfg)
    stride = max(1, _sample_count(integ, T) // 16)
    snaps = evolve(state, rho, pot, integ, T, Observers(snapshot_stride=stride)).snapshots
    omegas = default_omega_grid(1.0, count=11)
    table = ManifoldTable(rho, pot, None, omegas)
    windowed = ManifoldTable(rho, pot, SeminormSpec(0.5, 8.0, 8.0), omegas)
    assert len(rows) == len(snaps)
    differs = False
    for (t, d, best), snap in zip(rows, snaps):
        ref_d, ref_best = table.distance(snap)
        assert float(t) == snap.time and float(d) == ref_d
        assert best == "nan" if ref_best is None else float(best) == ref_best
        differs |= windowed.distance(snap)[0] != ref_d
    assert differs
    assert json.loads((out / "distance.json").read_text())["use_global_norm"] is True


def test_cli_spectrum_and_distance_measure_the_same_distances(tmp_path):
    # both experiments scan the distance.omega_count candidates
    argv = _set_args({"grid.points": 256, "grid.length": 64.0, "evolve.T": 12.0,
                      "evolve.snapshot_stride": 20, "distance.omega_count": 11,
                      "spectrum.window_width": 4.0, "rho.amplitude": 2.0})
    code, dist_out = run_cli(tmp_path / "distance", "distance", *argv)
    assert code == 0
    code, spec_out = run_cli(tmp_path / "spectrum", "spectrum", *argv)
    assert code == 0
    rows = [line.split(",") for line in (dist_out / "distance.csv").read_text().splitlines()[1:]]
    got = json.loads((spec_out / "attraction.json").read_text())["distances"]
    assert len(rows) == 7
    assert got["t"] == [float(t) for t, _, _ in rows]
    assert got["distance"] == [float(d) for _, d, _ in rows]
    assert got["best_omega"] == [None if best == "nan" else float(best) for _, _, best in rows]
    assert any(best is not None for best in got["best_omega"])


def test_cli_simulate_writes_hashed_snapshots(tmp_path):
    sets = {"m": 1.5, "grid.points": 256, "grid.length": 64.0, "evolve.T": 2.0,
            "evolve.snapshot_stride": 5, "rho.amplitude": 2.0}
    code, out = run_cli(tmp_path, "simulate", *_set_args(sets))
    assert code == 0
    raw = {}
    for key, value in sets.items():
        set_by_path(raw, key, value)
    _, _, _, traj = _evolved(config_from_dict({**raw, "experiment": "simulate"}))
    names = [f"snapshot_{i:04d}.mfkg" for i in range(len(traj.snapshots))]
    assert len(names) == 5
    assert sorted(path.name for path in out.glob("snapshot_*")) == names
    files = read_manifest(out)["files"]
    for name, snap in zip(names, traj.snapshots):
        assert files[name] == hashlib.sha256((out / name).read_bytes()).hexdigest()
        state, m = load_snapshot(out / name)
        assert m == 1.5 and state.time == snap.time
        assert np.array_equal(state.psi, snap.psi) and np.array_equal(state.pi, snap.pi)


def test_cli_solitary_at_a_designed_zero_of_s_fails(tmp_path, capsys):
    # the counterexample coupling has s(omega1) = 0 up to roundoff: no amplitude exists
    code, _ = run_cli(
        tmp_path, "solitary", "--set", "grid.points=1024", "--set", "grid.length=64.0",
        "--set", "rho.kind=multifreq", "--set", "initial.kind=solitary",
        "--set", "initial.omega=2.0",
    )
    assert code == 3
    assert "s = 0" in capsys.readouterr().err


def test_cli_spectrum_outputs(tmp_path):
    code, out = run_cli(
        tmp_path, "spectrum", "--set", "grid.points=256", "--set", "grid.length=64.0",
        "--set", "evolve.T=12.0", "--set", "spectrum.window_width=4.0",
        "--set", "rho.amplitude=2.0",
        "--set", "initial.kind=solitary", "--set", "initial.omega=0.5",
    )
    assert code == 0
    lines = (out / "windows.csv").read_text().splitlines()
    assert lines[0].startswith("t_center,dominant_frequency,concentration")
    assert len(lines) == 4
    report = json.loads((out / "attraction.json").read_text())
    assert report["trivial"] is False and len(report["windows"]) == 3


def test_cli_spectrum_rounds_T_up_to_whole_samples(tmp_path):
    # T = 12.05 is not a whole number of sampling intervals; the windowed
    # spectra need uniform samples, so the run extends to 12.1
    code, out = run_cli(
        tmp_path, "spectrum", "--set", "grid.points=256", "--set", "grid.length=64.0",
        "--set", "evolve.T=12.05", "--set", "spectrum.window_width=4.0",
        "--set", "rho.amplitude=2.0",
        "--set", "initial.kind=solitary", "--set", "initial.omega=0.5",
    )
    assert code == 0
    report = json.loads((out / "attraction.json").read_text())
    assert len(report["windows"]) == 3


def test_cli_spectrum_flags_windows_past_horizon(tmp_path):
    # defaults: L = 128 and a window of 8 + 8 give horizon 96; windows of 25 end at 50, 75, 100
    code, out = run_cli(tmp_path, "spectrum")
    assert code == 0
    report = json.loads((out / "attraction.json").read_text())
    assert report["horizon_time"] == pytest.approx(96.0)
    assert [w["past_horizon"] for w in report["windows"]] == [False, False, True]
    header = (out / "windows.csv").read_text().splitlines()[0]
    assert header == ("t_center,dominant_frequency,concentration,outside_mass_fraction,"
                      "support_lo,support_hi")


SMALL_SETS = ["--set", "grid.points=256", "--set", "grid.length=64.0"]
SEMINORM_SET = ["--set", 'seminorms=[{"epsilon": 0.5, "radius": 8.0, "cutoff_width": 8.0}]']


@pytest.mark.parametrize("experiment, sets, data", [
    ("distance", ["--set", "evolve.T=1.0", "--set", "distance.omega_count=11"],
     ["distance.csv", "distance.json"]),
    ("spectrum", ["--set", "evolve.T=12.0", "--set", "spectrum.window_width=4.0",
                  "--set", "initial.kind=solitary"], ["windows.csv", "attraction.json"]),
])
def test_seminorms_are_not_recorded_where_nothing_writes_them(
        tmp_path, capsys, monkeypatch, experiment, sets, data):
    def refuse(*args):
        raise AssertionError(f"{experiment} computed a seminorm series it does not write")

    monkeypatch.setattr("mfkg.dynamics.local_seminorm", refuse)
    argv = [experiment, *SMALL_SETS, "--set", "rho.amplitude=2.0", *sets]
    code, plain = run_cli(tmp_path / "plain", *argv)
    assert code == 0 and capsys.readouterr().err == ""
    code, out = run_cli(tmp_path / "seminorm", *argv, *SEMINORM_SET)
    assert code == 0
    note = capsys.readouterr().err
    assert note.startswith("note: seminorms: only simulate writes seminorm series")
    assert note.count("\n") == 1
    for name in data:
        assert (out / name).read_bytes() == (plain / name).read_bytes(), name


def test_cli_simulate_writes_its_seminorm_series(tmp_path, capsys):
    code, out = run_cli(tmp_path, "simulate", *SMALL_SETS, "--set", "evolve.T=1.0",
                        *SEMINORM_SET)
    assert code == 0 and "note" not in capsys.readouterr().err
    series = csv_column(out / "trajectory.csv", "seminorm_R8")
    assert series.size == 11 and np.all(series > 0)


def test_cli_counterexample_outputs(tmp_path):
    code, out = run_cli(
        tmp_path, "counterexample", "--set", "grid.points=1024",
        "--set", "grid.length=64.0", "--set", "counterexample.T=5.0",
    )
    assert code == 0
    report = json.loads((out / "counterexample.json").read_text())
    assert report["passed"] is True and report["max_relative_error"] < 1e-3
    lines = (out / "gamma.csv").read_text().splitlines()
    assert lines[0] == "t,re_gamma,im_gamma,gamma_exact"


def test_cli_exit_codes(tmp_path, capsys):
    code, _ = run_cli(tmp_path / "a", "simulate", "--set", "evolve.dt=-1")
    assert code == 2
    assert "config error" in capsys.readouterr().err
    # weak coupling admits no standing-wave amplitude: a numerical failure
    code, _ = run_cli(
        tmp_path / "b", "solitary", "--set", "grid.points=256",
        "--set", "grid.length=64.0", "--set", "rho.amplitude=0.3",
        "--set", "initial.kind=solitary", "--set", "initial.omega=0.2",
    )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    code, _ = run_cli(tmp_path / "c", "simulate", "--config",
                      str(tmp_path / "missing.json"))
    assert code == 2


def test_out_of_memory_exits_3_without_traceback(tmp_path, capsys, monkeypatch):
    def exhausted(cfg, outdir, files):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setitem(cli._RUNNERS, "sigma", exhausted)
    code, _ = run_cli(tmp_path, "sigma", "--set", "grid.points=256", "--set", "grid.length=64.0")
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("out of memory: Unable to allocate")
    assert "Traceback" not in err


@pytest.mark.parametrize("experiment, setting", [
    ("spectrum", "spectrum.taper=nosuch"),
    ("solitary", "rho.kind=none"),
    ("sigma", "rho.kind=none"),
    ("distance", "rho.kind=none"),
    ("spectrum", "rho.kind=none"),
    ("simulate", "evolve.sponge=5"),
    ("simulate", "evolve.dt=0.5"),
    ("counterexample", "evolve.dt=0.5"),
    ("sigma", "sigma.omega_min=1.5"),
    ("simulate", "grid.points=100"),
    ("sigma", "rho.path=missing.npy"),
    ("sigma", "rho.path=text.npy"),
    ("sigma", "rho.path=short.npy"),
    ("sigma", "rho.path=complex.npy"),
    ("sigma", "rho.path=strings.npy"),
    ("simulate", "initial.path=missing.mfkg"),
    ("simulate", "initial.path=garbage.mfkg"),
    ("simulate", "initial.path=coarse.mfkg"),
    ("simulate", "initial.path=heavy.mfkg"),
    ("sigma", "sigma.count=100000000000"),
    ("sigma", "grid.points=1099511627776"),
    ("simulate", "evolve.T=1e300"),
    ("spectrum", "spectrum.window_width=0.5"),
    ("counterexample", "counterexample.T=0.5"),
])
def test_cli_rejects_config_before_any_work(tmp_path, capsys, experiment, setting):
    sets = ["--set", setting]
    key, name = setting.split("=")
    if key in ("rho.path", "initial.path"):
        path = _input_file(tmp_path, name)
        sets = ["--set", f'{key.split(".")[0]}.kind="file"', "--set", f"{key}={json.dumps(str(path))}"]
    code, out = run_cli(tmp_path, experiment, "--set", "grid.points=256",
                        "--set", "grid.length=64.0", *sets)
    assert code == 2
    assert f"config error: {setting.split('=')[0]}:" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_checks_the_distance_window_under_the_global_norm(tmp_path, capsys):
    # the spectrum report reads the distance window for its horizon even
    # under the global norm; a radius of 60 does not fit in the default box
    # of length 128, so the run stops before any work
    sets = {"distance.use_global_norm": True, "distance.radius": 60.0, "evolve.T": 50.0,
            "spectrum.window_width": 10.0}
    code, out = run_cli(tmp_path, "spectrum", *_set_args(sets))
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: distance.radius:")
    assert not out.exists()
    # the distance experiment reads no window under the global norm
    config_from_dict({"experiment": "distance",
                      "distance": {"use_global_norm": True, "radius": 60.0}})


def test_cli_exit_codes_of_a_set_without_a_value_and_an_io_failure(tmp_path, capsys):
    # a --set without "=" is a configuration error at "--set"
    code, out = run_cli(tmp_path, "sigma", "--set", "grid.points")
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: --set:")
    assert not out.exists()
    # an output directory beneath a regular file cannot be made: exit 4
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["sigma", "--set", "grid.points=256", "--set", "grid.length=64.0",
                 "--set", "sigma.count=21", "--output-dir", str(blocker / "out")])
    assert code == 4
    assert capsys.readouterr().err.startswith("i/o failure:")


def _input_file(directory, name):
    """Write the bad input file called name (a missing one is not written); returns its path."""
    path = directory / name
    if name == "text.npy":
        path.write_text("not an array\n")
    elif name == "short.npy":  # the wrong shape for the 256-point grid
        np.save(path, np.zeros(7))
    elif name == "complex.npy":  # the right shape, but a complex dtype
        np.save(path, np.full(256, 1.0 + 0.5j))
    elif name == "strings.npy":  # the right shape, but not numbers
        np.save(path, np.full(256, "abc"))
    elif name == "garbage.mfkg":
        path.write_bytes(b"NOPE" + bytes(64))
    elif name == "coarse.mfkg":  # another grid
        save_snapshot(path, zero_state(make_grid(1, 128, 64.0)), 1.0)
    elif name == "heavy.mfkg":  # another mass
        save_snapshot(path, zero_state(make_grid(1, 256, 64.0)), 2.0)
    return path


def test_step_size_is_checked_only_for_experiments_that_step(tmp_path):
    # solitary and sigma take no time steps, so evolve.dt does not concern them
    for experiment in ("solitary", "sigma"):
        code, out = run_cli(tmp_path / experiment, experiment, "--set", "grid.points=256",
                            "--set", "grid.length=64.0", "--set", "evolve.dt=0.5",
                            "--set", "sigma.count=5")
        assert code == 0 and (out / "manifest.json").exists()


def test_run_experiment_lists_every_file(tmp_path):
    cfg = config_from_dict({"experiment": "sigma", "grid": {"points": 256, "length": 64.0},
                            "sigma": {"count": 5}})
    files = run_experiment(cfg, tmp_path / "out")
    on_disk = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert sorted(files) == on_disk
    assert "manifest.json" in files and "config.json" in files


@pytest.mark.parametrize("experiment, sets, kinds", [
    ("simulate", ["--set", "evolve.T=1.0"], {}),
    ("solitary", ["--set", "rho.amplitude=2.0"], {}),
    ("sigma", ["--set", "sigma.count=21"], {}),
    ("distance", ["--set", "evolve.T=1.0", "--set", "distance.omega_count=11",
                  "--set", "rho.amplitude=2.0"], {}),
    ("spectrum", ["--set", "evolve.T=12.0", "--set", "spectrum.window_width=4.0",
                  "--set", "rho.amplitude=2.0", "--set", "initial.kind=solitary"],
     {"initial": {"kind": "solitary", **table_defaults(INITIAL_KINDS["solitary"])}}),
    ("counterexample", ["--set", "grid.points=1024", "--set", "counterexample.T=2.0"], {}),
    ("simulate", ["--set", "evolve.T=1.0", "--set", "initial.kind=packet"],
     {"initial": {"kind": "packet", **table_defaults(INITIAL_KINDS["packet"])}}),
    ("simulate", ["--set", "evolve.T=1.0", "--set", "rho.kind=multifreq"],
     {"rho": {"kind": "multifreq", **table_defaults(RHO_KINDS["multifreq"]), "omega1": 2.0}}),
    ("simulate", ["--set", "evolve.T=1.0", "--set", "evolve.sponge.inner_radius=20.0",
                  "--set", 'seminorms=[{"epsilon": 0.5}]'],
     {"evolve.sponge": {**table_defaults(SPONGE), "inner_radius": 20.0},
      "seminorms": [{**table_defaults(SEMINORM), "epsilon": 0.5}]}),
], ids=["simulate", "solitary", "sigma", "distance", "spectrum", "counterexample",
        "packet", "multifreq", "partial-sponge-and-seminorm"])
def test_config_json_reruns_byte_for_byte(tmp_path, experiment, sets, kinds):
    code, out = run_cli(tmp_path / "a", experiment, *SMALL_SETS, *sets)
    assert code == 0
    written = json.loads((out / "config.json").read_text())
    # every value the run used is in config.json, kind-specific defaults included
    for dotted, expected in kinds.items():
        section = written
        for part in dotted.split("."):
            section = section[part]
        assert section == expected, dotted
    code, again = run_cli(tmp_path / "b", experiment, "--config", str(out / "config.json"))
    assert code == 0
    assert (again / "manifest.json").read_bytes() == (out / "manifest.json").read_bytes()
