"""Exact integer threshold where the prime-size test function drops below 1.

f(p) = 2 sqrt(2/3) 1778 (H(p) + 4 log p + 2.4 + log(H(p))/2) / p decreases in
p. f(p) >= 1 is the isogeny solver's inequality at field degree 1 (solver
argument 2) and Delta = p^2, so f(p) = 1 - excess(p)/p with its excess.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .isogeny import H_FLOOR, _excess, implicit_delta_solver
from .modular import SILVERMAN_CONSTANT


class SerreThreshold(NamedTuple("SerreThreshold", [
    ("p_star", int), ("f_at_p_star", float), ("f_at_p_star_plus_1", float),
])):
    __slots__ = ()

    def __new__(cls, p_star: int, f_at_p_star: float, f_at_p_star_plus_1: float) -> SerreThreshold:
        if not f_at_p_star >= 1.0 > f_at_p_star_plus_1:
            raise ValueError("threshold values do not bracket 1")
        return super().__new__(cls, p_star, f_at_p_star, f_at_p_star_plus_1)

    # namedtuple's _make, which _replace calls, skips __new__ and so this check
    _make = classmethod(lambda cls, fields: cls(*fields))


def H_of_p(p: float) -> float:
    """max(1000, pi sqrt(p)/6 + log p + 7 (log p)^2/(4 sqrt p) + 2.95)."""
    if p < 2:
        raise ValueError("p must be >= 2")
    sp = math.sqrt(p)
    lp = math.log(p)
    return max(H_FLOOR, math.pi * sp / 6.0 + lp + 7.0 * lp * lp / (4.0 * sp) + SILVERMAN_CONSTANT)


def find_threshold() -> SerreThreshold:
    """Largest integer p with f(p) >= 1: the floor of sqrt(Delta_max) from the solver at H = 1000.

    Raises ``RuntimeError`` unless H(p* + 1) is that floor: H increases in p,
    so only then is f the fixed-H solve on all of [2, p* + 1].
    """
    p = math.floor(math.sqrt(implicit_delta_solver(2.0, H_FLOOR)))
    if H_of_p(p + 1) != H_FLOOR:
        raise RuntimeError(f"H({p + 1}) = {H_of_p(p + 1)!r} is above its floor {H_FLOOR:g}")
    excess = _excess(2.0, H_FLOOR)
    return SerreThreshold(p, 1.0 - excess(p) / p, 1.0 - excess(p + 1) / (p + 1))
