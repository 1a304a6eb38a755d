"""Explicit elliptic isogeny-degree bounds and their derivation checkpoints.

Closed-form bound calculators for the three cases (general, complex
multiplication, real embedding without CM), the implicit inequality solver
behind the general constant, and the numeric steps the derivation asserts
along the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .bounds import BoundReport, bisect_last
from .lattice import SiegelTau

CASES = ("general", "cm", "real_place_non_cm")


@dataclass(frozen=True)
class IsogenyBoundInput:
    D_k: int
    h_F: float
    case: str = "general"

    def __post_init__(self) -> None:
        if self.D_k < 1:
            raise ValueError("D_k must be >= 1")
        if not math.isfinite(self.h_F):
            raise ValueError(f"h_F = {self.h_F} is not finite")
        if self.case not in CASES:
            raise ValueError(f"case must be one of {CASES}")


@dataclass(frozen=True)
class ChainCheckpoint:
    name: str
    report: BoundReport


class ExplicitBound(NamedTuple):
    bound: float
    simplified: Optional[float]


def explicit_bound(inp: IsogenyBoundInput) -> ExplicitBound:
    """Degree bound for the requested case.

    general: 10^7 D^2 (max(h_F, 985) + 4 log D)^2, together with the weaker
    closed form 10^13 D^2 max(h_F, log D, 1)^2. cm: 3.4e4 D^2
    max(h_F + log(D)/2, 1)^2. real_place_non_cm: 3583 D^2
    max(h_F, log D, 1)^2.
    """
    D = float(inp.D_k)
    hF = inp.h_F
    logD = math.log(D)
    if inp.case == "general":
        main = 1e7 * D**2 * (max(hF, 985.0) + 4.0 * logD) ** 2
        simplified = 1e13 * D**2 * max(hF, logD, 1.0) ** 2
        return ExplicitBound(main, simplified)
    if inp.case == "cm":
        return ExplicitBound(3.4e4 * D**2 * max(hF + 0.5 * logD, 1.0) ** 2, None)
    return ExplicitBound(3583.0 * D**2 * max(hF, logD, 1.0) ** 2, None)


def implicit_delta_solver(D: float, H: float) -> float:
    """Largest Delta with sqrt(Delta) <= 1778 D sqrt(2/3) (H + log(H)/2 + 2 log(Delta) + 2.4).

    Bisection on s = sqrt(Delta); the excess s - C(... + 4 log s) is negative
    at s = 1 and eventually positive, and crosses once in the growth region.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    if H < 1000:
        raise ValueError("H must be >= 1000")
    C = 1778.0 * D * math.sqrt(2.0 / 3.0)
    base = H + 0.5 * math.log(H) + 2.4

    def excess(s: float) -> float:
        return s - C * (base + 4.0 * math.log(s))

    lo = 1.0
    if excess(lo) > 0:
        raise RuntimeError("no admissible Delta at s = 1")
    hi = 2.0
    while excess(hi) <= 0:
        hi *= 2.0
    root = bisect_last(lambda s: excess(s) <= 0, lo, hi)
    return root * root


def _min_margin_pair(name: str, first: tuple[float, float], second: tuple[float, float],
                     labels: tuple[str, str]) -> BoundReport:
    """One report for a two-inequality step: headline is the smaller margin."""
    pairs = [first, second]
    margins = [rhs - lhs for lhs, rhs in pairs]
    k = 0 if margins[0] <= margins[1] else 1
    other = 1 - k
    return BoundReport(
        name,
        pairs[k][0],
        pairs[k][1],
        inputs={
            "headline": labels[k],
            f"{labels[other]}_lhs": pairs[other][0],
            f"{labels[other]}_rhs": pairs[other][1],
            f"{labels[other]}_margin": margins[other],
        },
    )


def chain_checkpoints() -> list[ChainCheckpoint]:
    """The seven numeric steps of the derivation, in order."""
    pi = math.pi
    s233 = math.sqrt(233.0)
    cps = [
        ChainCheckpoint(
            "log_term_absorption",
            BoundReport("log_term_absorption", 2.0 * math.log(1.545e6) / 1.545e6, 1.85e-5, inputs={}),
        ),
        ChainCheckpoint(
            "constant_1545",
            BoundReport("constant_1545", 1461.0 / (1.0 - 1461.0 * 3.7e-5), 1545.0, inputs={}),
        ),
        ChainCheckpoint(
            "cm_delta_vs_sqrt233",
            BoundReport(
                "cm_delta_vs_sqrt233",
                25.12 / (pi * math.sqrt(3.0) / 2.0 - 6.0 * math.log(s233) / s233),
                s233,
                inputs={},
            ),
        ),
        ChainCheckpoint(
            "real_delta_fixed_points",
            _min_margin_pair(
                "real_delta_fixed_points",
                (23.61 / (pi - 6.0 * math.log(12.31) / 12.31), 12.31),
                (39.74 / (pi - 6.0 * math.log(18.19) / 18.19), 18.19),
                ("at_12_31", "at_18_19"),
            ),
        ),
        ChainCheckpoint(
            "real_constant_3583",
            _min_margin_pair(
                "real_constant_3583",
                (24.62 * 36.38, 895.7),
                (895.7 * 4.0, 3583.0),
                ("product", "final"),
            ),
        ),
        ChainCheckpoint(
            "constant_1461",
            BoundReport("constant_1461", 1.006 * 1778.0 * math.sqrt(2.0 / 3.0), 1461.0, inputs={}),
        ),
        ChainCheckpoint(
            "two_periods_fallback",
            BoundReport(
                "two_periods_fallback", 1.03 * math.sqrt(4.0 / 7.0), math.sqrt(2.0 / 3.0), inputs={}
            ),
        ),
    ]
    return cps


def surface_bound_constants() -> list[BoundReport]:
    """Constants entering the surface-case mean-square bound with constant 1778.

    theta = log(2)/pi and eps = (3 sqrt2 - 4)/2 parametrize the estimate; x is
    the inverse square root of the polarization degree, at most x_max = 1e-5
    in the regime where the bound is applied. All three factors are
    increasing in x, so the worst case sits at x_max.
    """
    x_max = 1e-5
    theta = math.log(2.0) / math.pi
    eps = (3.0 * math.sqrt(2.0) - 4.0) / 2.0
    te = theta * eps
    sq = (1.5 * math.sqrt(math.pi * x_max / 4000.0) + math.sqrt(1.0 + 9.0 * math.pi * x_max / 16000.0)) ** 2
    return [
        BoundReport(
            "surface_factor_1778",
            4.0 / (math.pi * te * te) * sq,
            1778.0,
            inputs={"x_max": x_max, "theta": theta, "eps": eps},
        ),
        BoundReport(
            "surface_bracket_1_95",
            (3.77 + 3.0 * te * math.pi / 2.0 + 3.0 * math.pi * x_max / 4.0) / 2.0,
            1.95,
            inputs={"x_max": x_max},
        ),
        BoundReport(
            "surface_log_consolidation",
            5.0 * math.log(2.0) + eps * math.log(12.0),
            3.77,
            inputs={"eps": eps},
        ),
    ]


def period_norm_identity(n: int, tau: SiegelTau) -> BoundReport:
    """Norm of the constructed period against the floor-indexed ceiling.

    The squared norm (n + |tau|^2)/Im(tau) is bounded by
    (n + |tau|^2)/sqrt(|tau|^2 - 1/4) and then by 2n/sqrt(n - 1/4); requires
    n = floor(|tau|^2).
    """
    t2 = tau.re**2 + tau.im**2
    if n < 1:
        raise ValueError("n must be >= 1")
    # accept the boundary case |tau| = 1 where t2 rounds just below n
    if n != math.floor(t2) and not abs(t2 - n) <= 1e-9:
        raise ValueError(f"n must be floor(|tau|^2) = {math.floor(t2)}")
    norm_sq = (n + t2) / tau.im
    mid = (n + t2) / math.sqrt(t2 - 0.25)
    rhs = 2.0 * n / math.sqrt(n - 0.25)
    return BoundReport(
        "period_norm_ceiling",
        norm_sq,
        rhs,
        inputs={
            "n": n,
            "tau_re": tau.re,
            "tau_im": tau.im,
            "intermediate": mid,
            "first_step_margin": mid - norm_sq,
            "second_step_margin": rhs - mid,
        },
    )
