"""q-expansions of the discriminant form and the j-function.

Evaluation is by truncated q-series with certified geometric tail bounds; the
classical lower bounds for |j| and |Delta| on the fundamental domain are
exposed as verdict reports.

The Delta product stops at the first order whose relative tail bound is at
most 2^-70, far below the 2^-53 rounding of a double. If the absolute tail
then misses ``TAIL_TOLERANCE`` it runs on to ``ORDER`` factors, and raises
``InsufficientTruncationError`` if the tail still misses it there. On the
fundamental domain |q| <= e^{-pi sqrt 3} ~ 0.0043 and |Delta| (2 pi)^12 <=
1.8e7, so at most nine factors are multiplied and the first pass always
meets the tolerance. The E4 series always runs to ``ORDER``, from a
divisor-sum table built once.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

from .bounds import BoundReport
from .lattice import SiegelTau

ZETA3 = 1.2020569031595942854
_Y_MIN = math.sqrt(3.0) / 2.0
# Relative Delta tail at which the product stops. At 2^-60 some values
# already move by one ulp against the full-order product.
_STOP_TAIL = 2.0**-70
# Cap on the Delta product and length of the E4 series.
ORDER = 64
# Largest absolute Delta tail accepted, in the normalization asked for.
TAIL_TOLERANCE = 1e-12


class InsufficientTruncationError(ValueError):
    """Raised when the certified tail at ``ORDER`` exceeds ``TAIL_TOLERANCE``."""


class SeriesValue(NamedTuple):
    value: complex
    tail: float


def _delta_product_tail(abs_q: float, order: int) -> float:
    # |prod_{n>N} (1-q^n)^24 - 1| <= expm1(24 |q|^{N+1} / (1-|q|)^2)
    if abs_q >= 1.0:
        return math.inf
    s = 24.0 * abs_q ** (order + 1) / (1.0 - abs_q) ** 2
    return math.expm1(s) if s < 700 else math.inf


def _stop_order(abs_q: float) -> int:
    """First order n <= ORDER with relative product tail <= 2^-70, else ORDER."""
    if abs_q == 0.0:
        return 1
    if not abs_q < 1.0:
        return ORDER
    # solve 24 |q|^(n+1) / (1-|q|)^2 = 2^-70, then correct the rounding
    n = math.ceil(math.log(_STOP_TAIL * (1.0 - abs_q) ** 2 / 24.0) / math.log(abs_q)) - 1
    n = min(max(n, 1), ORDER)
    while n > 1 and _delta_product_tail(abs_q, n - 1) <= _STOP_TAIL:
        n -= 1
    while n < ORDER and _delta_product_tail(abs_q, n) > _STOP_TAIL:
        n += 1
    return n


def delta_on_upper_half_plane(z: complex, normalization: str = "ramanujan") -> SeriesValue:
    """Discriminant q-series at any point of the upper half-plane.

    normalization "ramanujan" gives q prod (1-q^n)^24; "two_pi_12" multiplies
    by (2 pi)^12. The tail field certifies |returned - true| <= tail for the
    factors actually multiplied. The product stops at the first order whose
    relative tail bound is <= 2^-70 if the scaled absolute tail then meets
    ``TAIL_TOLERANCE``; otherwise it runs to ``ORDER``, so an early stop never
    raises where the full order would not. The run-on and the raise happen
    only off the fundamental domain.
    """
    if normalization not in ("ramanujan", "two_pi_12"):
        raise ValueError(f"unknown normalization {normalization!r}")
    if z.imag <= 0:
        raise ValueError("Im z must be positive")
    q = cmath.exp(2j * math.pi * z)
    abs_q = abs(q)
    prod = complex(1.0)
    qn = complex(1.0)
    done = 0
    for order in (_stop_order(abs_q), ORDER):
        for _ in range(order - done):
            qn *= q
            prod *= (1.0 - qn) ** 24
        done = order
        value = q * prod
        tail = abs(value) * _delta_product_tail(abs_q, order)
        if normalization == "two_pi_12":
            scale = (2.0 * math.pi) ** 12
            value *= scale
            tail *= scale
        if tail <= TAIL_TOLERANCE:
            break
    if tail > TAIL_TOLERANCE:
        raise InsufficientTruncationError(
            f"Delta tail {tail:.3g} exceeds tolerance {TAIL_TOLERANCE:.3g} "
            f"after {ORDER} factors at Im z = {z.imag:.6g}"
        )
    return SeriesValue(value, tail)


def delta_tau(tau: SiegelTau, normalization: str = "ramanujan") -> SeriesValue:
    """Discriminant form at a reduced point, with certified tail."""
    return delta_on_upper_half_plane(tau.value, normalization)


@lru_cache(maxsize=8)
def _sigma3_prefix(n: int) -> tuple[int, ...]:
    """sigma_3(1..n) by sieving divisors, built once per n."""
    s = [0] * (n + 1)
    for d in range(1, n + 1):
        cube = d * d * d
        for m in range(d, n + 1, d):
            s[m] += cube
    return tuple(s[1:])


def _e4(q: complex) -> SeriesValue:
    sig = _sigma3_prefix(ORDER)
    acc = complex(1.0)
    qn = complex(1.0)
    for n in range(1, ORDER + 1):
        qn *= q
        acc += 240.0 * sig[n - 1] * qn
    # sigma_3(n) <= zeta(3) n^3; ratio of consecutive terms <= 8 zeta(3) |q|
    abs_q = abs(q)
    r = 8.0 * ZETA3 * abs_q
    if r >= 1.0:
        return SeriesValue(acc, math.inf)
    head = 240.0 * ZETA3 * (ORDER + 1) ** 3 * abs_q ** (ORDER + 1)
    return SeriesValue(acc, head / (1.0 - r))


def j_invariant(tau: SiegelTau) -> SeriesValue:
    """j = E4^3 / Delta from q-expansions, with a propagated tail bound."""
    return _j_from_delta(tau, delta_tau(tau))


def _j_from_delta(tau: SiegelTau, dl: SeriesValue) -> SeriesValue:
    """j = E4^3 / Delta at tau, given the Ramanujan Delta there."""
    e4 = _e4(cmath.exp(2j * math.pi * tau.value))
    aE, eE = abs(e4.value), e4.tail
    aD, eD = abs(dl.value), dl.tail
    if eD >= aD:
        raise InsufficientTruncationError(f"Delta tail {eD:.3g} swallows |Delta| = {aD:.3g}")
    value = e4.value**3 / dl.value
    tail = ((aE + eE) ** 3 - aE**3) / (aD - eD) + aE**3 * eD / (aD * (aD - eD))
    return SeriesValue(value, tail)


def j_series_coefficients(count: int) -> list[int]:
    """First ``count`` coefficients of the direct expansion 1/q + 744 + ...

    Exact integer series division of E4^3 by the discriminant expansion;
    index k holds the coefficient of q^{k-1}. Debug cross-check path.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = count + 1
    # 24th power of eta-quotient part: delta/q = prod (1-q^m)^24
    dq = [1] + [0] * (n - 1)
    for m in range(1, n):
        for _ in range(24):
            new = dq[:]
            for k in range(m, n):
                new[k] -= dq[k - m]
            dq = new
    sig = _sigma3_prefix(n - 1)
    e4 = [1] + [240 * sig[k - 1] for k in range(1, n)]
    e43 = [0] * n
    for a in range(n):
        if e4[a] == 0:
            continue
        for b in range(n - a):
            e43[a + b] += e4[a] * e4[b]
    cube = [0] * n
    for a in range(n):
        if e43[a] == 0:
            continue
        for b in range(n - a):
            cube[a + b] += e43[a] * e4[b]
    out = [0] * n
    for k in range(n):
        acc = cube[k]
        for i in range(k):
            acc -= out[i] * dq[k - i]
        out[k] = acc  # leading divisor coefficient is 1
    return out[:count]


def check_classical_bounds(tau: SiegelTau) -> tuple[BoundReport, BoundReport]:
    """Lower bounds for |j| and |Delta| on the fundamental domain.

    Returns (j report, Delta report): e^{2 pi y} - 1193 <= |j(tau)| and
    e^{-1/9 - 2 pi y} <= |Delta(tau)| in the plain product normalization.
    """
    y = tau.im
    dl = delta_tau(tau)
    j = _j_from_delta(tau, dl)
    j_report = BoundReport(
        "j_lower_bound",
        math.exp(2.0 * math.pi * y) - 1193.0,
        abs(j.value),
        inputs={"tau_re": tau.re, "tau_im": y, "tail": j.tail},
        tol=1e-9,
    )
    d_report = BoundReport(
        "delta_lower_bound",
        math.exp(-1.0 / 9.0 - 2.0 * math.pi * y),
        abs(dl.value),
        inputs={"tau_re": tau.re, "tau_im": y, "tail": dl.tail},
        tol=1e-9,
    )
    return j_report, d_report


def silverman_f_extrema() -> BoundReport:
    """Shape of f(y) = max(y^6 e^{-2 pi y}, y^6 (1 - 1193 e^{-2 pi y})).

    The first branch is the max exactly while 1194 e^{-2 pi y} >= 1, i.e. up
    to y0 = log(1194)/(2 pi). There sign f' = sign(6 - 2 pi y), so f increases
    up to 3/pi and decreases from 3/pi to y0, given sqrt(3)/2 < 3/pi < y0.
    Past y0 both factors of y^6 (1 - 1193 e^{-2 pi y}) are positive and
    increasing once 1 - 1193 e^{-2 pi y0} > 0. The local minimum f(y0) is
    compared with the left endpoint value f(sqrt(3)/2). The headline verdict
    is the resulting height comparison constant: log(pi)/2 + log(B)/12 <= 2.95
    with B = 1194 (2 pi / log 1194)^6 e^{1/9} (2 pi)^12.
    """

    def f(y: float) -> float:
        e = math.exp(-2.0 * math.pi * y)
        return max(y**6 * e, y**6 * (1.0 - 1193.0 * e))

    y0 = math.log(1194.0) / (2.0 * math.pi)
    y_peak = 3.0 / math.pi
    B = 1194.0 * (2.0 * math.pi / math.log(1194.0)) ** 6 * math.exp(1.0 / 9.0) * (2.0 * math.pi) ** 12
    return BoundReport(
        "silverman_height_constant",
        0.5 * math.log(math.pi) + math.log(B) / 12.0,
        2.95,
        inputs={
            "B": B,
            "increasing_to_3_over_pi": _Y_MIN < y_peak <= y0,
            "decreasing_to_y0": y_peak < y0,
            "increasing_after_y0": 1.0 - 1193.0 * math.exp(-2.0 * math.pi * y0) > 0.0,
            "f_left_endpoint": f(_Y_MIN),
            "f_local_min": f(y0),
            "local_min_below_left_endpoint": f(y0) < f(_Y_MIN),
            "y0": y0,
        },
    )
