"""Longitudinal magnetization dynamics of the periodic quantum Ising chain.

Momentum-space simulation of quenches and periodic delta kicks starting
from a fully polarized ferromagnetic state, with the parity-breaking
longitudinal magnetization evaluated through Wick contractions and
Pfaffians, validated against a dense exact-diagonalization oracle.
"""

from .dynamics import DriverSpec, SystemState, evolve_kick_step, evolve_quench, init_ferro
from .model import (
    MomentumGrid,
    cat_norm_identity,
    chord_excess,
    delta_l,
    dispersion,
    gap_delta,
    sgs_energies,
    xyz_factorization,
)
from .observables import MagnetizationSample, expectation_c1, magnetization, run_series
from .pfaffian import SkewMatrix
from .wick import ModeIndex, vacuum_expectation

__all__ = [
    "DriverSpec",
    "SystemState",
    "evolve_kick_step",
    "evolve_quench",
    "init_ferro",
    "MomentumGrid",
    "cat_norm_identity",
    "chord_excess",
    "delta_l",
    "dispersion",
    "gap_delta",
    "sgs_energies",
    "xyz_factorization",
    "MagnetizationSample",
    "expectation_c1",
    "magnetization",
    "run_series",
    "SkewMatrix",
    "ModeIndex",
    "vacuum_expectation",
]

__version__ = "0.1.0"
