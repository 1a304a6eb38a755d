"""Explicit elliptic isogeny-degree bounds and their derivation checkpoints.

Closed-form bound calculators for the three cases (general, complex
multiplication, real embedding without CM), the implicit inequality solver
behind the general constant, and the numeric steps the derivation asserts
along the way.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from .bounds import BoundReport, bisect_last
from .lattice import SiegelTau

CASES = ("general", "cm", "real")
SURFACE_CONSTANT = 1778.0  # certified by surface_factor_1778
REAL_CONSTANT = 3583.0  # certified by real_constant_3583
H_FLOOR = 1000.0  # H = max(h, 1000); find_threshold checks that it is the floor through p* + 1
SOLVER_SHIFT = 2.4  # the 2.4 of the implicit inequality; no report proves it


class ExplicitBound(NamedTuple):
    bound: float
    simplified: Optional[float]


def explicit_bound(D_k: int, h_F: float, case: str = "general") -> ExplicitBound:
    """Degree bound for the requested case, one of ``CASES``.

    general: 10^7 D^2 (max(h_F, 985) + 4 log D)^2, together with the weaker
    closed form 10^13 D^2 max(h_F, log D, 1)^2. cm: 3.4e4 D^2
    max(h_F + log(D)/2, 1)^2. real (a real place, no CM): 3583 D^2
    max(h_F, log D, 1)^2. Raises ``OverflowError`` where a value is not finite.
    """
    if D_k < 1:
        raise ValueError("D_k must be >= 1")
    if not math.isfinite(h_F):
        raise ValueError(f"h_F = {h_F} is not finite")
    if case not in CASES:
        raise ValueError(f"case must be one of {CASES}")
    D = float(D_k)
    logD = math.log(D)
    try:
        if case == "general":
            # 10^7 and 985: general_closed_form pins them as a regression value; no report proves them
            out = ExplicitBound(1e7 * D**2 * (max(h_F, 985.0) + 4.0 * logD) ** 2,
                                1e13 * D**2 * max(h_F, logD, 1.0) ** 2)
        elif case == "cm":
            # 3.4e4: no report proves it, and none reaches the CM case
            out = ExplicitBound(3.4e4 * D**2 * max(h_F + 0.5 * logD, 1.0) ** 2, None)
        else:
            out = ExplicitBound(REAL_CONSTANT * D**2 * max(h_F, logD, 1.0) ** 2, None)
    except OverflowError:  # a float ** 2 past the largest double raises instead of giving inf
        out = ExplicitBound(math.inf, None)
    if not all(math.isfinite(x) for x in out if x is not None):
        raise OverflowError(f"{case} isogeny bound is not finite at h_F = {h_F:g}")
    return out


def _excess(D: float, H: float) -> Callable[[float], float]:
    """s -> s - 1778 D sqrt(2/3) (H + log(H)/2 + 2.4 + 4 log s), at most 0 where Delta = s^2 is admissible."""
    C = SURFACE_CONSTANT * D * math.sqrt(2.0 / 3.0)
    base = H + 0.5 * math.log(H) + SOLVER_SHIFT
    return lambda s: s - C * (base + 4.0 * math.log(s))


def implicit_delta_solver(D: float, H: float) -> float:
    """Largest Delta with sqrt(Delta) <= 1778 D sqrt(2/3) (H + log(H)/2 + 2 log(Delta) + 2.4).

    Bisection on s = sqrt(Delta); the excess s - C(... + 4 log s) is negative
    at s = 1 and eventually positive, and crosses once in the growth region.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    if H < H_FLOOR:
        raise ValueError(f"H must be >= {H_FLOOR:g}")
    excess = _excess(D, H)
    if excess(1.0) > 0:
        raise RuntimeError("no admissible Delta at s = 1")
    root = bisect_last(lambda s: excess(s) <= 0, 1.0, 2.0)
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


def chain_checkpoints() -> list[BoundReport]:
    """The seven numeric steps of the derivation, in order."""
    pi = math.pi
    s233 = math.sqrt(233.0)
    return [
        BoundReport("log_term_absorption", 2.0 * math.log(1.545e6) / 1.545e6, 1.85e-5, inputs={}),
        BoundReport("constant_1545", 1461.0 / (1.0 - 1461.0 * 3.7e-5), 1545.0, inputs={}),
        BoundReport(
            "cm_delta_vs_sqrt233",
            25.12 / (pi * math.sqrt(3.0) / 2.0 - 6.0 * math.log(s233) / s233),
            s233,
            inputs={},
        ),
        _min_margin_pair(
            "real_delta_fixed_points",
            (23.61 / (pi - 6.0 * math.log(12.31) / 12.31), 12.31),
            (39.74 / (pi - 6.0 * math.log(18.19) / 18.19), 18.19),
            ("at_12_31", "at_18_19"),
        ),
        _min_margin_pair(
            "real_constant_3583",
            (24.62 * 36.38, 895.7),
            (895.7 * 4.0, REAL_CONSTANT),
            ("product", "final"),
        ),
        BoundReport("constant_1461", 1.006 * SURFACE_CONSTANT * math.sqrt(2.0 / 3.0), 1461.0, inputs={}),
        BoundReport("two_periods_fallback", 1.03 * math.sqrt(4.0 / 7.0), math.sqrt(2.0 / 3.0), inputs={}),
    ]


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
            SURFACE_CONSTANT,
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


def _scaled_norm_sq(tau: SiegelTau) -> tuple[int, float]:
    """(e, |tau|^2 / 4^e), e = 0 unless Im tau >= 2^500, where |tau|^2 would overflow."""
    e = max(0, math.frexp(tau.im)[1] - 500)  # |Re tau| <= 1/2 < Im tau; 2^-e scaling is exact
    return e, math.ldexp(tau.re, -e) ** 2 + math.ldexp(tau.im, -e) ** 2


def floor_norm_sq(tau: SiegelTau) -> int:
    """floor(|tau|^2) as an exact integer, for every finite tau."""
    e, t2 = _scaled_norm_sq(tau)
    num, den = t2.as_integer_ratio()
    return (num << 2 * e) // den


def period_norm_identity(tau: SiegelTau) -> BoundReport:
    """Norm of the constructed period against the floor-indexed ceiling.

    With n = max(1, floor(|tau|^2)), the squared norm (n + |tau|^2)/Im(tau)
    is bounded by (n + |tau|^2)/sqrt(|tau|^2 - 1/4) and then by
    2n/sqrt(n - 1/4). All three are evaluated on n and tau scaled by 4^-e
    and 2^-e and scaled back by 2^e, so none overflows while its value fits.
    """
    n = max(1, floor_norm_sq(tau))
    e, t2 = _scaled_norm_sq(tau)
    n_s = n / 4**e
    quarter = math.ldexp(0.25, -2 * e)
    norm_sq = math.ldexp((n_s + t2) / math.ldexp(tau.im, -e), e)
    mid = math.ldexp((n_s + t2) / math.sqrt(t2 - quarter), e)
    rhs = math.ldexp(2.0 * n_s / math.sqrt(n_s - quarter), e)
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
