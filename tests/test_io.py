import csv

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from mfkg import FieldState, load_snapshot, make_grid, save_snapshot
from mfkg.io import write_columns_csv, write_trajectory_csv


def test_snapshot_roundtrip_is_bit_exact(tmp_path, grid, rng):
    psi = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    pi = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    state = FieldState(grid, psi, pi, 12.5)
    path = tmp_path / "state.mfkg"
    save_snapshot(path, state, m=1.5)
    loaded, m = load_snapshot(path)
    assert m == 1.5
    assert loaded.time == 12.5
    assert loaded.grid == grid
    assert_array_equal(loaded.psi, state.psi)
    assert_array_equal(loaded.pi, state.pi)


def test_snapshot_rejects_garbage(tmp_path, grid):
    path = tmp_path / "bad.mfkg"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(ValueError, match="bad magic"):
        load_snapshot(path)
    state = FieldState(grid, np.zeros(grid.shape, complex), np.zeros(grid.shape, complex))
    save_snapshot(path, state)
    whole = path.read_bytes()
    path.write_bytes(whole[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_snapshot(path)
    # the magic, then fewer bytes than the header holds
    path.write_bytes(b"MFKG1" + bytes(10))
    with pytest.raises(ValueError, match=r"truncated snapshot \(15 bytes\)"):
        load_snapshot(path)
    # the format version is the first header field, after the magic
    path.write_bytes(b"MFKG1" + (2).to_bytes(4, "little") + whole[9:])
    with pytest.raises(ValueError, match="unsupported snapshot version 2"):
        load_snapshot(path)


def test_columns_roundtrip_exactly(tmp_path):
    # repr serialization keeps doubles bit-exact through the text file
    rng = np.random.default_rng(3)
    a = rng.standard_normal(17)
    b = np.array([1e-300, 1e300, np.pi, -0.0, 7.0])[np.newaxis].repeat(4, 0).ravel()[:17]
    path = tmp_path / "cols.csv"
    write_columns_csv(path, ["a", "b"], [a, b])
    text = path.read_text().splitlines()
    assert text[0] == "a,b"
    back = np.array([[float(v) for v in line.split(",")] for line in text[1:]])
    assert_array_equal(back[:, 0], a)
    assert_array_equal(back[:, 1], b)


def test_trajectory_csv_roundtrip(tmp_path, grid, rho, pot):
    from mfkg import Integrator, Observers, SeminormSpec, evolve, zero_state

    psi = np.exp(-0.5 * grid.radius**2).astype(complex)
    state = FieldState(grid, psi, -0.5j * psi, 0.0)
    obs = Observers(seminorm_specs=(SeminormSpec(0.5, 8.0, 8.0),))
    traj = evolve(state, rho, pot, Integrator(0.02, steps_per_sample=5), 1.0, obs)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = dict(zip(header, np.array([[float(v) for v in row] for row in reader]).T))
    assert header == ["t", "re_gamma", "im_gamma", "re_f", "im_f", "H", "Q", "seminorm_R8"]
    assert_array_equal(cols["t"], traj.times)
    assert_array_equal(cols["re_gamma"], traj.gamma.real)
    assert_array_equal(cols["im_gamma"], traj.gamma.imag)
    assert_array_equal(cols["re_f"], traj.force.real)
    assert_array_equal(cols["im_f"], traj.force.imag)
    assert_array_equal(cols["H"], traj.energy)
    assert_array_equal(cols["Q"], traj.charge)
    assert_array_equal(cols["seminorm_R8"], traj.seminorms["seminorm_R8"])
