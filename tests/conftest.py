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


def per_step_advance(*profiles):
    """Reference route for :meth:`_ShellCore.advance`, for cores coupled by one of ``profiles``.

    The per-step loop that the block update replaced: half kick, free flow
    by dt, half kick, with the drive of a step's closing half kick reused
    for the next step's opening one.  It knows nothing of the core's
    coordinates: it reads the state's position-space fields
    (:meth:`_ShellCore.fields`), steps their plain FFT with every mode in
    natural raw order, each with its own cos and sin tables and with the
    natural raw kick and pairing of the profile on the core's grid, taken
    from the profile itself, and loads the fields back, which leaves the
    core's pending step count at zero, so its reads sync nothing, and its
    gamma the shell pair's real pairing.
    """

    def advance(core):
        assert core.integ.sponge is None
        grid = core.grid
        rho = next(profile for profile in profiles if profile.grid is grid)
        rho_raw = grid.raw_fft(rho.values).ravel()
        kick, pairing = (0.5 * core.integ.dt) * rho_raw, core.scale * rho_raw
        psi, pi = grid.raw_fft(np.stack(core.fields())).reshape(2, -1)
        tau = core.integ.dt
        omega = np.sqrt(grid.k_squared.ravel() + core.m * core.m)
        cos, sin = np.cos(omega * tau), np.sin(omega * tau)
        drive = None
        for _ in range(core.integ.steps_per_sample):
            if drive is None:
                drive = core.pot.force(complex(np.vdot(pairing, psi)))
            pi += drive * kick
            psi, pi = cos * psi + (sin / omega) * pi, cos * pi - (omega * sin) * psi
            drive = core.pot.force(complex(np.vdot(pairing, psi)))
            pi += drive * kick
        core.load(*grid.raw_ifft(np.stack((psi, pi)).reshape(2, *grid.shape)))

    return advance
