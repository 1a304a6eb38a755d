"""q-expansions of the discriminant form and the j-function, with certified tails.

Delta is only formed through log Delta = 2 pi i z + 24 sum_{n<=N} log(1 - q^n),
so |Delta| ~ e^{-2 pi y} never underflows. N is the first order whose log tail
24 |q|^{N+1} / (1 - |q|)^2 is at most 2^-70, far below double rounding: N <= 9
on the fundamental domain, where |q| <= e^{-pi sqrt 3}. ``ORDER`` only caps N off
it, and ``InsufficientTruncationError`` is raised where 64 terms miss 2^-70.
E4 stops the same way, at the first order whose tail
240 zeta(3) (N+1)^3 |q|^(N+1) / (1 - 8 zeta(3) |q|) is at most 2^-70 (N <= 11 on
the fundamental domain), from a divisor-sum table built once.
"""

from __future__ import annotations

import cmath
import math
from functools import cache
from typing import NamedTuple

from .bounds import BoundReport
from .lattice import SiegelTau

ZETA3 = 1.2020569031595942854
_Y_MIN = math.sqrt(3.0) / 2.0
# Log tail at which the Delta sum stops, 2^-17 below the rounding of a double.
_STOP_TAIL = 2.0**-70
# Cap on the Delta and E4 sums.
ORDER = 64
# h(E) <= h(j)/12 + 2.95, certified by silverman_height_constant
SILVERMAN_CONSTANT = 2.95
# |j| >= 1/|q| - 1193 on the fundamental domain: j_lower_bound samples it at each
# input tau, and no report proves it
J_LOWER_COEFFICIENT = 1193.0


class InsufficientTruncationError(ValueError):
    """Raised when ``ORDER`` factors leave a log Delta tail above 2^-70."""


class SeriesValue(NamedTuple):
    value: complex
    tail: float


def _log_tail(abs_q: float, order: int) -> float:
    # |sum_{n>N} log(1-q^n)| <= sum_{n>N} |q|^n / (1-|q|^n) <= |q|^{N+1} / (1-|q|)^2
    if abs_q >= 1.0:
        return math.inf
    return 24.0 * abs_q ** (order + 1) / (1.0 - abs_q) ** 2


def _stop_order(abs_q: float) -> int:
    """First order n <= ORDER with log tail <= 2^-70, else ORDER."""
    n = 1
    while n < ORDER and _log_tail(abs_q, n) > _STOP_TAIL:
        n += 1
    return n


def _log_delta_over_q(q: complex) -> SeriesValue:
    """log(Delta/q) = 24 sum_{n<=N} log(1 - q^n), N = _stop_order(|q|), and its tail.

    cmath.log rounds well near |1 - q^n| = 1.
    """
    abs_q = abs(q)
    order = _stop_order(abs_q)
    tail = _log_tail(abs_q, order)
    if tail > _STOP_TAIL:
        raise InsufficientTruncationError(f"log Delta tail {tail:.3g} after {ORDER} factors at |q| = {abs_q:.6g}")
    acc = 0j
    qn = complex(1.0)
    for _ in range(order):
        qn *= q
        acc += cmath.log(1.0 - qn)
    return SeriesValue(24.0 * acc, tail)


def delta_on_upper_half_plane(z: complex) -> SeriesValue:
    """log Delta(z) = 2 pi i z + log(Delta/q), with Delta = q prod (1-q^n)^24.

    The tail certifies |returned - log Delta(z)| <= tail <= 2^-70, for the
    logarithm that sums the principal log(1 - q^n).
    """
    if z.imag <= 0:
        raise ValueError("Im z must be positive")
    log_dq = _log_delta_over_q(cmath.exp(2j * math.pi * z))
    return SeriesValue(2j * math.pi * z + log_dq.value, log_dq.tail)


@cache
def _sigma3_table() -> tuple[int, ...]:
    """sigma_3(1..ORDER) by sieving divisors, built on first use."""
    s = [0] * (ORDER + 1)
    for d in range(1, ORDER + 1):
        cube = d * d * d
        for m in range(d, ORDER + 1, d):
            s[m] += cube
    return tuple(s[1:])


def _e4(q: complex) -> SeriesValue:
    """E4 = 1 + 240 sum sigma_3(n) q^n to the first order N <= ORDER whose tail is <= 2^-70.

    sigma_3(n) <= zeta(3) n^3 and the ratio of consecutive terms is <= 8 zeta(3) |q|.
    """
    sig = _sigma3_table()
    abs_q = abs(q)
    r = 8.0 * ZETA3 * abs_q
    acc = complex(1.0)
    qn = complex(1.0)
    for n in range(1, ORDER + 1):
        qn *= q
        acc += 240.0 * sig[n - 1] * qn
        tail = 240.0 * ZETA3 * (n + 1) ** 3 * abs_q ** (n + 1) / (1.0 - r) if r < 1.0 else math.inf
        if tail <= _STOP_TAIL:
            break
    return SeriesValue(acc, tail)


def _e4_cubed_over(e4: SeriesValue, log_d: complex, t: float) -> tuple[complex, float]:
    """E4^3 exp(-log_d) and its error bound, for log_d off by at most t and E4 by e.

    The bound is (((|E4| + e)^3 - |E4|^3) e^t + |E4|^3 expm1(t)) |exp(-log_d)|, with the
    difference of cubes expanded, so an e below ulp(|E4|) does not round away.
    """
    aE, eE = abs(e4.value), e4.tail
    inverse = cmath.exp(-log_d)
    tail = (eE * (3.0 * aE * aE + 3.0 * aE * eE + eE * eE) * math.exp(t) + aE**3 * math.expm1(t)) * abs(inverse)
    return e4.value**3 * inverse, tail


def j_invariant(tau: SiegelTau) -> SeriesValue:
    """j = E4^3 exp(-log Delta) with a propagated tail; OverflowError from Im tau ~ 113."""
    log_q = 2j * math.pi * tau.value
    q = cmath.exp(log_q)
    log_dq = _log_delta_over_q(q)
    return SeriesValue(*_e4_cubed_over(_e4(q), log_q + log_dq.value, log_dq.tail))


def check_classical_bounds(tau: SiegelTau) -> tuple[BoundReport, BoundReport]:
    """Lower bounds for |j| and |Delta| on the fundamental domain, times |q| = e^{-2 pi y}.

    Returns (j report, Delta report): 1 - 1193 |q| <= |j q| = |E4|^3 / |Delta/q| and
    e^{-1/9} <= |Delta/q|, so both sides stay O(1); each tail bounds the rhs error.
    """
    y = tau.im
    q = cmath.exp(2j * math.pi * tau.value)
    log_dq = _log_delta_over_q(q)
    jq, jq_tail = _e4_cubed_over(_e4(q), log_dq.value, log_dq.tail)
    dq = math.exp(log_dq.value.real)
    j_report = BoundReport(
        "j_lower_bound",
        1.0 - J_LOWER_COEFFICIENT * math.exp(-2.0 * math.pi * y),
        abs(jq),
        inputs={"tau_re": tau.re, "tau_im": y, "tail": jq_tail},
        tol=1e-9,
    )
    d_report = BoundReport(
        "delta_lower_bound",
        math.exp(-1.0 / 9.0),
        dq,
        inputs={"tau_re": tau.re, "tau_im": y, "tail": dq * math.expm1(log_dq.tail)},
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
        return max(y**6 * e, y**6 * (1.0 - J_LOWER_COEFFICIENT * e))

    c = 1.0 + J_LOWER_COEFFICIENT  # 1194
    y0 = math.log(c) / (2.0 * math.pi)
    y_peak = 3.0 / math.pi
    B = c * (2.0 * math.pi / math.log(c)) ** 6 * math.exp(1.0 / 9.0) * (2.0 * math.pi) ** 12
    return BoundReport(
        "silverman_height_constant",
        0.5 * math.log(math.pi) + math.log(B) / 12.0,
        SILVERMAN_CONSTANT,
        inputs={
            "B": B,
            "increasing_to_3_over_pi": _Y_MIN < y_peak <= y0,
            "decreasing_to_y0": y_peak < y0,
            "increasing_after_y0": 1.0 - J_LOWER_COEFFICIENT * math.exp(-2.0 * math.pi * y0) > 0.0,
            "f_left_endpoint": f(_Y_MIN),
            "f_local_min": f(y0),
            "local_min_below_left_endpoint": f(y0) < f(_Y_MIN),
            "y0": y0,
        },
    )
