"""Rigorous numeric checks around lattice minima, theta series, stable
heights, interpolation constants, and explicit isogeny degree bounds."""

from .bounds import BoundReport
from .heights import CurveRecord, faltings_height_silverman
from .lattice import (
    PolarizedTorus,
    SiegelTau,
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
    "PolarizedTorus",
    "RiemannTau",
    "SiegelTau",
    "UnimodularMap",
    "avoidance_minimum",
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
