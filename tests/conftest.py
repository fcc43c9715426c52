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
    """Reference route for :meth:`_StrangCore.advance` without a sponge.

    The per-step loop that the block update replaced: half kick, free flow
    by dt, half kick, with the drive of a step's closing half kick reused
    for the next step's opening one.  It gathers every mode's (psi, pi) out
    of the core's flat layout (psi_C, pi_C, psi_rest, pi_rest), flows and
    kicks every mode at every step with its own cos and sin tables, writes
    the pair back and leaves the core's pending step count at zero, so the
    core's reads sync nothing, and its handed-on gamma unset, so they pair
    psi with rho: the run is an every-mode route.
    """
    assert core.integ.sponge is None and core.pending == 0
    count, n = core.coupled.stop, core.grid.num_points
    raw = core.raw
    psi = np.concatenate((raw[:count], raw[2 * count:count + n]))
    pi = np.concatenate((raw[count:2 * count], raw[count + n:]))
    tau, omega = core.integ.dt, core.omega
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
    raw[:count], raw[count:2 * count] = psi[:count], pi[:count]
    raw[2 * count:count + n], raw[count + n:] = psi[count:], pi[count:]
    core.pending, core.gamma = 0, None
    return None
