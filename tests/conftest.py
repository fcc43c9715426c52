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


def per_step_advance(core):
    """Reference route for :meth:`_ShellCore.advance`.

    The per-step loop that the block update replaced: half kick, free flow
    by dt, half kick, with the drive of a step's closing half kick reused
    for the next step's opening one.  It knows nothing of the core's
    coordinates: it reads the state's position-space fields
    (:meth:`_ShellCore.fields`), steps their plain FFT with every mode in
    natural raw order, each with its own cos and sin tables and with the
    natural raw kick and pairing of rho, and loads the fields back, which
    leaves the core's pending step count at zero, so its reads sync
    nothing, and its handed-on gamma unset, so they pair psi with rho.
    """
    assert core.integ.sponge is None
    grid = core.grid
    psi, pi = grid.raw_fft(np.stack(core.fields())).reshape(2, -1)
    tau = core.integ.dt
    omega = np.sqrt(grid.k_squared.ravel() + core.m * core.m)
    cos, sin = np.cos(omega * tau), np.sin(omega * tau)
    drive = None
    for _ in range(core.integ.steps_per_sample):
        if core.kick is not None:
            if drive is None:
                drive = core.pot.force(complex(np.vdot(core.pairing, psi)))
            pi += drive * core.kick
        psi, pi = cos * psi + (sin / omega) * pi, cos * pi - (omega * sin) * psi
        if core.kick is not None:
            drive = core.pot.force(complex(np.vdot(core.pairing, psi)))
            pi += drive * core.kick
    core.load(*grid.raw_ifft(np.stack((psi, pi)).reshape(2, *grid.shape)))
    return None
