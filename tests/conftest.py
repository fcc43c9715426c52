import numpy as np
import pytest

from mfkg import CouplingProfile, PolynomialPotential, make_grid


@pytest.fixture(scope="session")
def grid():
    # small enough to keep every test fast, long enough that Gaussian tails
    # at the boundary sit far below double precision
    return make_grid(1, 256, 64.0)


@pytest.fixture(scope="session")
def rho(grid):
    return CouplingProfile.gaussian(grid, amplitude=2.0, width=1.0)


@pytest.fixture(scope="session")
def pot():
    return PolynomialPotential((-1.0, 1.0))


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def per_step_advance(core, raw, nsteps):
    """Reference route for :meth:`_StrangCore.advance` without a sponge.

    The per-step loop that the block update replaced: half kick, free flow
    by dt, half kick, with the drive of a step's closing half kick reused
    for the next step's opening one.  It flows every mode at every step and
    leaves the core's pending step count at zero, so the core's reads sync
    nothing: the run is an every-mode route.
    """
    assert core.integ.sponge is None
    psi, pi = raw
    cos, sin = core.flow_tables(1, slice(0, core.grid.num_points))
    view = raw.view(np.float64)
    swapped = view[::-1]
    rotated = np.empty_like(view)
    drive = None
    for _ in range(nsteps):
        if core.kick is not None:
            if drive is None:
                drive = core.pot.scalar_force(complex(np.vdot(core.pairing, psi)))
            pi += drive * core.kick
        np.multiply(sin, swapped, out=rotated)
        view *= cos
        view += rotated
        if core.kick is not None:
            drive = core.pot.scalar_force(complex(np.vdot(core.pairing, psi)))
            pi += drive * core.kick
    return None
