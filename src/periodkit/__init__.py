"""Rigorous numeric checks around lattice minima, theta series, stable
heights, interpolation constants, and explicit isogeny degree bounds."""

from .bounds import PROOF_CONSTANTS, BoundReport, ProofConstants
from .heights import CurveRecord, HeightValue, convert_height, faltings_height_silverman
from .lattice import (
    EllipticLattice,
    PolarizedTorus,
    SiegelTau,
    Subspace,
    UnimodularMap,
    avoidance_minimum,
    rho_inverse_squared,
    shortest_vector,
    siegel_reduce,
)
from .modular import j_invariant
from .serre import find_threshold
from .theta import RiemannTau, torus_l2_norm, torus_log_integral

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CurveRecord",
    "EllipticLattice",
    "HeightValue",
    "PROOF_CONSTANTS",
    "PolarizedTorus",
    "ProofConstants",
    "RiemannTau",
    "SiegelTau",
    "Subspace",
    "UnimodularMap",
    "avoidance_minimum",
    "convert_height",
    "faltings_height_silverman",
    "find_threshold",
    "j_invariant",
    "rho_inverse_squared",
    "shortest_vector",
    "siegel_reduce",
    "torus_l2_norm",
    "torus_log_integral",
    "__version__",
]
