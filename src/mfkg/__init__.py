"""Mean-field Klein-Gordon: a U(1)-invariant field coupled through one profile.

The field obeys psi_tt = (Lap - m^2) psi + rho(x) F(<rho, psi>), an
infinite-dimensional Hamiltonian system whose nonlinearity acts through a
single complex coordinate.  The package provides spectrally exact standing
waves, a symplectic splitting integrator, windowed-spectrum diagnostics for
the long-time behaviour of finite energy data, and the explicitly solvable
two-frequency solutions that persist when the coupling silences the
dispersive channel at an embedded frequency.
"""
from .config import (
    ConfigError,
    RunConfig,
    config_from_dict,
    load_config,
    random_state,
    wave_packet,
)
from .dynamics import (
    Integrator,
    Observers,
    Sponge,
    Trajectory,
    evolve,
    free_flow,
    kick,
)
from .fields import (
    CouplingProfile,
    FieldState,
    SeminormSpec,
    charge,
    energy,
    energy_norm,
    inner_product,
    local_seminorm,
    smooth_cutoff,
    zero_pad,
    zero_state,
)
from .grid import Grid, make_grid
from .io import load_snapshot, save_snapshot, write_trajectory_csv
from .multifreq import (
    TwoFrequencySolution,
    build_counterexample,
    build_multifreq,
    build_rho,
    verify_persistence,
)
from .potential import PolynomialPotential, lower_bound_constants
from .solitary import (
    ManifoldTable,
    SolitaryWave,
    amplitude_roots,
    build_solitary,
    dispersion_curve,
    manifold_distance,
    resolvent_coupling,
    resolvent_profile,
    stationarity_residual,
)
from .spectral import (
    AttractionConfig,
    AttractionReport,
    Spectrum,
    attraction_report,
    concentration_ratio,
    support_estimate,
    titchmarsh_check,
    windowed_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AttractionConfig",
    "AttractionReport",
    "ConfigError",
    "CouplingProfile",
    "FieldState",
    "Grid",
    "Integrator",
    "ManifoldTable",
    "Observers",
    "PolynomialPotential",
    "RunConfig",
    "SeminormSpec",
    "SolitaryWave",
    "Spectrum",
    "Sponge",
    "Trajectory",
    "TwoFrequencySolution",
    "amplitude_roots",
    "attraction_report",
    "build_counterexample",
    "build_multifreq",
    "build_rho",
    "build_solitary",
    "charge",
    "concentration_ratio",
    "config_from_dict",
    "dispersion_curve",
    "energy",
    "energy_norm",
    "evolve",
    "free_flow",
    "inner_product",
    "kick",
    "load_config",
    "load_snapshot",
    "local_seminorm",
    "lower_bound_constants",
    "make_grid",
    "manifold_distance",
    "random_state",
    "resolvent_coupling",
    "resolvent_profile",
    "save_snapshot",
    "smooth_cutoff",
    "stationarity_residual",
    "support_estimate",
    "titchmarsh_check",
    "verify_persistence",
    "wave_packet",
    "windowed_spectrum",
    "write_trajectory_csv",
    "zero_pad",
    "zero_state",
]
