"""Exact integer threshold where the prime-size test function drops below 1.

The function f combines the growth bound for log|j| at a CM point with the
height ceiling and the degree bound of the imaginary-quadratic case; it
decreases in p, so the set {f(p) >= 1} has a largest integer element.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bounds import bisect_last


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
    return max(1000.0, math.pi * sp / 6.0 + lp + 7.0 * lp * lp / (4.0 * sp) + 2.95)


def f_of_p(p: float) -> float:
    """2 sqrt(2/3) 1778 (H(p) + 4 log p + 2.4 + log(H(p))/2) / p."""
    H = H_of_p(p)
    return 2.0 * math.sqrt(2.0 / 3.0) * 1778.0 * (H + 4.0 * math.log(p) + 2.4 + 0.5 * math.log(H)) / p


def find_threshold() -> SerreThreshold:
    """Largest integer p with f(p) >= 1: the floor of the bisected crossing on [2, 10^8].

    f(2) >= 1 > f(10^8) and f decreases on the bracket; ``SerreThreshold``
    checks that the two values it returns bracket 1.
    """
    p = math.floor(bisect_last(lambda x: f_of_p(x) >= 1.0, 2.0, 1e8))
    return SerreThreshold(p, f_of_p(p), f_of_p(p + 1))
