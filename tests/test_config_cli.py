"""Config validation, builders, and the command line end to end."""
import hashlib
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfkg import (
    ConfigError, SeminormSpec, config_from_dict, energy_norm, load_config, make_grid,
    random_state, wave_packet,
)
from mfkg.config import set_by_path
from mfkg.cli import _evolved, main, run_experiment
from mfkg.config import DEFAULTS
from mfkg.io import save_snapshot
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
])
def test_validation_reports_dotted_path(raw, path):
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.path == path
    assert str(err.value).startswith(path + ":")


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
    integ = cfg.build_integrator(g)
    assert integ.sponge.inner_radius == 20.0 and integ.sponge.strength == 2.0
    obs = cfg.build_observers()
    assert len(obs.seminorm_specs) == 1 and obs.seminorm_specs[0].epsilon == 0.5

    none_cfg = config_from_dict({"rho": {"kind": "none"}})
    assert none_cfg.build_rho(g) is None

    fine = config_from_dict({"grid": {"points": 64, "length": 0.32}})
    with pytest.raises(ConfigError, match="grid spacing"):
        fine.build_integrator(fine.build_grid())


def test_initial_state_kinds(tmp_path, grid, rho, pot):
    zero = config_from_dict({"initial": {"kind": "zero"}})
    st = zero.build_initial_state(grid, rho, pot)
    assert not np.any(st.psi)

    sol = config_from_dict({"initial": {"kind": "solitary", "omega": 0.5}})
    ws = sol.build_initial_state(grid, rho, pot)
    assert abs(grid.dot(rho.values, ws.psi)) > 0.1

    path = tmp_path / "init.mfkg"
    save_snapshot(path, ws, 1.0)
    from_file = config_from_dict({"initial": {"kind": "file", "path": str(path)}})
    st2 = from_file.build_initial_state(grid, rho, pot)
    assert_allclose(st2.psi, ws.psi, atol=0)

    other_grid = make_grid(1, 512, 64.0)
    with pytest.raises(ConfigError, match="does not match"):
        from_file.build_initial_state(other_grid, None, pot)
    wrong_m = config_from_dict({"m": 2.0, "initial": {"kind": "file", "path": str(path)}})
    with pytest.raises(ConfigError, match="mass"):
        wrong_m.build_initial_state(grid, rho, pot)


def run_cli(tmp_path, *argv):
    out = tmp_path / "out"
    return main([*argv, "--output-dir", str(out)]), out


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
    argv = [arg for key, value in sets.items() for arg in ("--set", f"{key}={json.dumps(value)}")]
    code, out = run_cli(tmp_path, "distance", *argv)
    assert code == 0
    rows = [line.split(",") for line in (out / "distance.csv").read_text().splitlines()[1:]]
    raw = {}
    for key, value in sets.items():
        set_by_path(raw, key, value)
    cfg = config_from_dict({**raw, "experiment": "distance"})
    _, pot, rho, traj = _evolved(cfg, force_snapshots=True)
    omegas = default_omega_grid(1.0, count=11)
    table = ManifoldTable(rho, pot, None, omegas)
    windowed = ManifoldTable(rho, pot, SeminormSpec(0.5, 8.0, 8.0), omegas)
    assert len(rows) == len(traj.snapshots)
    differs = False
    for (t, d, best), snap in zip(rows, traj.snapshots):
        ref_d, ref_best = table.distance(snap)
        assert float(t) == snap.time and float(d) == ref_d
        assert best == "nan" if ref_best is None else float(best) == ref_best
        differs |= windowed.distance(snap)[0] != ref_d
    assert differs
    assert json.loads((out / "distance.json").read_text())["use_global_norm"] is True


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


def test_run_experiment_lists_every_file(tmp_path):
    cfg = config_from_dict({"experiment": "sigma", "grid": {"points": 256, "length": 64.0},
                            "sigma": {"count": 5}})
    files = run_experiment(cfg, tmp_path / "out")
    on_disk = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert sorted(files) == on_disk
    assert "manifest.json" in files and "config.json" in files
