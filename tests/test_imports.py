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
print(json.dumps({"after_import": after_import, "best_omega": best,
                  "optimize_after_polish": "scipy.optimize" in sys.modules}))
"""


def test_import_loads_no_heavy_scipy_and_the_polish_loads_optimize():
    src = str(Path(mfkg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    probe = json.loads(out.stdout.splitlines()[-1])
    # not even scipy.fft: the transforms come from numpy.fft
    assert probe["after_import"] == []
    # the best frequency lies in the gap, so the bounded polish ran
    assert abs(probe["best_omega"]) < 1.0
    assert probe["optimize_after_polish"] is True
