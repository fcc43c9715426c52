"""What ``import mfkg`` loads, checked in a fresh interpreter."""
import json
import os
import subprocess
import sys
from pathlib import Path

import mfkg

PROBE = """
import json, sys
import mfkg
after_import = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
from mfkg import (CouplingProfile, PolynomialPotential, SeminormSpec, build_solitary,
                  make_grid, manifold_distance)
grid = make_grid(1, 256, 64.0)
rho = CouplingProfile.gaussian(grid, amplitude=2.0, width=1.0)
pot = PolynomialPotential((-1.0, 1.0))
wave = build_solitary(rho, pot, 0.5)
_, best = manifold_distance(wave.initial_state(), rho, pot, SeminormSpec(0.5, 8.0, 8.0))
after_polish = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps({"after_import": after_import, "best_omega": best,
                  "after_polish": after_polish}))
"""

# scipy made unimportable, then a default `mfkg distance` run
NO_SCIPY = """
import sys
sys.modules["scipy"] = None
import mfkg.cli
sys.exit(mfkg.cli.main(["distance", "--output-dir", sys.argv[1]]))
"""


def _run(code, *args):
    src = str(Path(mfkg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)


def test_import_and_polish_load_no_scipy():
    out = _run(PROBE)
    assert out.returncode == 0, out.stderr
    probe = json.loads(out.stdout.splitlines()[-1])
    # not even scipy.fft: the transforms come from numpy.fft
    assert probe["after_import"] == []
    # the best frequency lies in the gap, so the bounded polish ran
    assert abs(probe["best_omega"]) < 1.0
    # and the polish is the package's own
    assert probe["after_polish"] == []


def test_distance_runs_without_scipy(tmp_path):
    out = _run(NO_SCIPY, str(tmp_path / "out"))
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "out" / "distance.csv").exists()
