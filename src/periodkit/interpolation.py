"""Auxiliary interpolation estimates on integer nodes.

The node polynomial P with simple roots at 1-S..S-1, the normalized factorial
ratio u_S, the interpolation identity with multiplicity T at each node (an
outer trapezoid contour against exact node residues), and the two-term
comparison between the unit-disc maximum of an entire function and its
derivative data at the nodes. Where a fact has a short proof (a disc
maximum, a circle minimum, Parseval, a residue), it is evaluated.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Optional, Sequence

from .bounds import BoundReport

SINH_PI = math.sinh(math.pi)
# epsilon of the interpolation contours: each node circle has radius 1/2 - epsilon
DEFAULT_EPSILON = 1.0 / 12.0


class AnalyticTestFunction:
    """Entire test function with exact divided derivatives.

    INPUT:

    - ``coeffs`` -- the coefficients a_0, a_1, ... of the polynomial sum a_k z^k,
      or None for the exponential e^{c z}
    - ``rate`` -- the rate c of the exponential

    EXAMPLES: ``AnalyticTestFunction.monomial(3)`` is the polynomial z^3 and
    its divided derivative of order 2 at z is 3z.
    """

    def __init__(self, coeffs: Optional[Sequence[complex]], rate: complex = 0.0) -> None:
        self.coeffs = None if coeffs is None else tuple(complex(c) for c in coeffs)
        if self.coeffs == ():
            raise ValueError("need at least one coefficient")
        self.rate = complex(rate)

    @classmethod
    def monomial(cls, d: int) -> "AnalyticTestFunction":
        if d < 0:
            raise ValueError("degree must be >= 0")
        return cls([0.0] * d + [1.0])

    @classmethod
    def exponential(cls, c: complex) -> "AnalyticTestFunction":
        return cls(None, c)

    @classmethod
    def polynomial(cls, coeffs: Sequence[complex]) -> "AnalyticTestFunction":
        return cls(coeffs)

    def __call__(self, z: complex) -> complex:
        """f(z) at a complex number."""
        if self.coeffs is None:
            return cmath.exp(self.rate * z)
        acc = complex(0.0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def divided_derivative(self, ell: int, z: complex) -> complex:
        """f^(ell)(z) / ell!, in closed form."""
        if ell < 0:
            raise ValueError("ell must be >= 0")
        if self.coeffs is None:
            return self.rate**ell * cmath.exp(self.rate * z) / math.factorial(ell)
        acc = complex(0.0)
        for k in range(len(self.coeffs) - 1, ell - 1, -1):
            acc = acc * z + self.coeffs[k] * math.comb(k, ell)
        return acc

    def circle_bounds(self, r: float) -> tuple[float, float]:
        """(lower, upper) estimates of max|f| on the circle of radius r about 0.

        For a polynomial, the L2 mean sqrt(sum |a_k|^2 r^2k) (Parseval) and
        sum |a_k| r^k, both exact for a single term; for an exponential, the
        exact maximum e^{|c| r} twice.
        """
        if self.coeffs is None:
            top = math.exp(abs(self.rate) * r)
            return top, top
        mean = math.sqrt(sum(abs(a) ** 2 * r ** (2 * k) for k, a in enumerate(self.coeffs)))
        return mean, sum(abs(a) * r**k for k, a in enumerate(self.coeffs))

    def describe(self) -> str:
        if self.coeffs is None:
            return f"exp({self.rate}z)"
        d = len(self.coeffs) - 1
        if self.coeffs[d] == 1 and not any(self.coeffs[:d]):
            return f"z^{d}"
        return f"poly(deg {d})"


# ---------------------------------------------------------------------------
# The node polynomial
# ---------------------------------------------------------------------------

def poly_P(S: int, z: complex) -> complex:
    """Product of (z - j) over the integer nodes 1-S .. S-1."""
    if S < 1:
        raise ValueError("S must be >= 1")
    acc = complex(1.0)
    for j in range(1 - S, S):
        acc *= z - j
    return acc


def _half_disc_bound(S: int) -> float:
    """Upper bound for |P| on the discs of radius 1/2 about +-1.

    P is odd, so the disc about -1 gives the same bound as the disc about 1.
    There, with w = z - 1 and |w| <= 1/2, the nodes 1 +- k pair into
    |w^2 - k^2| <= k^2 + 1/4, and the unpaired nodes 1, 1-S, -S give
    |w| (S - 1/2)(S + 1/2). Factor by factor this stays below prod_{j<S}(1 + j^2).
    """
    return 0.5 * math.prod(k * k + 0.25 for k in range(1, S - 1)) * (S - 0.5) * (S + 0.5)


def _circle_min(S: int, k: int, rho: float) -> float:
    """min |P| on the circle |w - k| = rho about the node k.

    Paired nodes give |w - k - i| |w - k + i| = |(w - k)^2 - i^2| >= |rho^2 - i^2|,
    with equality at both real points. The unpaired nodes all lie on the side
    of 0, so the minimum is at k - rho for k > 0 and at k + rho for k < 0.
    """
    if k == 0:
        return min(abs(poly_P(S, rho)), abs(poly_P(S, -rho)))
    return abs(poly_P(S, k - math.copysign(rho, k)))


def lemma52_checks(S_max: int, seed: int = 7) -> list[BoundReport]:
    """Per-S verdicts for the four properties of the node polynomial.

    (1) endpoint values are +-(2S-1)! exactly; (2) |P| dominates
    (S-1)!^2 |sin(pi t)| / pi on the grid t_i = -S + i*delta of step 1e-3
    over [-S, S] (built as ``numpy.arange`` builds it); (3) |P| stays below
    (S-1)!^2 sinh(pi)/pi on the unit disc (exact maximum) and the two
    half-discs at +-1 (``_half_disc_bound``, by pairing the nodes); (4) on a
    circle about a node, drawn with ``random.Random(seed)``, the proved
    minimum (``_circle_min``) is the smaller real-point value.

    (2) reports the grid point of least rel = (|P| - lower) / max(1, |P|),
    the first one in t on a tie, and evaluates only the point nearest each
    integer in [-S, S]. No other point can hold the minimum: by the Euler
    product for sin, |P(t)| / ((S-1)!^2 |sin(pi t)| / pi) is
    prod_{j>=S} |1 - t^2/j^2|^-1 >= 1 for |t| <= S, so 1 - lower/|P| >=
    1 - exp(-t^2/S), and |P| >= lower >= (S-1)!^2 2d/pi at distance d from
    the integers. A point at least ~1e-3 from every integer therefore has
    rel >= ~3e-10, while the point nearest 0 has rel within rounding,
    ~1e-15, of 0.
    """
    if S_max < 2:
        raise ValueError("S_max must be >= 2")
    import random

    rng = random.Random(seed)
    grid_step = 1e-3
    reports: list[BoundReport] = []
    for S in range(2, S_max + 1):
        fact = math.factorial(2 * S - 1)
        p_right = math.prod(S - j for j in range(1 - S, S))
        p_left = math.prod(-S - j for j in range(1 - S, S))
        mismatch = abs(p_right - fact) + abs(p_left + fact)
        reports.append(
            BoundReport(f"node_poly_endpoints[S={S}]", float(mismatch), 0.0, inputs={"S": S})
        )

        c = math.factorial(S - 1) ** 2 / math.pi
        start = -S
        delta = (start + grid_step) - start
        worst = None
        for n in range(-S, S + 1):
            t = start + round((n - start) / delta) * delta
            # |sin(pi t)| via the reduced argument: exact at integer grid hits
            lower = c * abs(math.sin(math.pi * (t - round(t))))
            absP = abs(poly_P(S, t))
            rel = (absP - lower) / max(1.0, absP)
            if worst is None or rel < worst[0]:
                worst = (rel, t, lower, absP)
        _, t, lower, absP = worst
        reports.append(
            BoundReport(
                f"node_poly_sin_lower[S={S}]",
                lower,
                absP,
                inputs={"S": S, "worst_t": t, "grid_step": grid_step},
            )
        )

        bound = math.factorial(S - 1) ** 2 * SINH_PI / math.pi
        # on |z| <= 1, |P(z)| = |z| prod_{j<S} |z^2 - j^2| <= prod (1 + j^2), equal at z = +-i
        worst = max(float(math.prod(1 + j * j for j in range(1, S))), _half_disc_bound(S))
        reports.append(
            BoundReport(f"node_poly_region_upper[S={S}]", worst, bound, inputs={"S": S})
        )

        k = rng.randint(1 - S, S - 1)
        rho = rng.uniform(0.1, S - abs(k) + 0.5)
        reports.append(
            BoundReport(
                f"node_poly_circle_min[S={S}]",
                min(abs(poly_P(S, k + rho)), abs(poly_P(S, k - rho))),
                _circle_min(S, k, rho),
                inputs={"S": S, "k": k, "rho": rho},
                tol=1e-9,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# u_S and the two sinh constants
# ---------------------------------------------------------------------------

def u_value(S: int) -> float:
    """4^S ((S-1)!)^2 / (2S-1)! via log-gamma."""
    if S < 1:
        raise ValueError("S must be >= 1")
    return math.exp(S * math.log(4.0) + 2.0 * math.lgamma(S) - math.lgamma(2 * S))


def u_sequence(S_max: int) -> list[BoundReport]:
    """Monotonicity and bounds for u_S, plus the two sinh constants.

    The value at S=2 equals 8/3 exactly (zero margin), so the headline
    comparison against 8/3 runs over S >= 3 and the S=2 case is reported as
    an identity. Monotonicity and the bound from S = 3 are each evaluated at
    their proved worst S (S_max and 3); the ratio identity is swept over
    S = 2..S_max.
    """
    if S_max < 2:
        raise ValueError("S_max must be >= 2")
    us = {S: u_value(S) for S in range(2, S_max + 2)}
    reports = [
        BoundReport("u_at_2_is_8_3", abs(us[2] - 8.0 / 3.0), 0.0, inputs={"u_2": us[2]})
    ]
    # u_S - u_{S+1} = u_S/(2S + 1) shrinks as S grows: the last gap is the least
    reports.append(BoundReport("u_monotone_decreasing", 0.0, us[S_max] - us[S_max + 1], inputs={"S": S_max}))
    worst_ratio = 0.0
    ratio_at = 2
    for S in range(2, S_max + 1):
        dev = abs(us[S] / us[S + 1] - (1.0 + 1.0 / (2.0 * S)))
        # rounding allowance: each u is exp of lgamma combinations whose
        # absolute error scales with the largest lgamma magnitude involved
        allowance = 16.0 * sys.float_info.epsilon * max(1.0, math.lgamma(2.0 * S + 2.0))
        if dev / allowance > worst_ratio:
            worst_ratio, ratio_at = dev / allowance, S
    reports.append(
        BoundReport("u_ratio_identity", worst_ratio, 1.0, inputs={"worst_S": ratio_at})
    )
    # u decreases, so u_3 is its largest value from S = 3 on
    if S_max >= 3:
        reports.append(BoundReport("u_below_8_3_from_3", us[3], 8.0 / 3.0, inputs={"worst_S": 3}))
    reports.append(
        BoundReport("sinh_constant_10", 8.0 * SINH_PI / (3.0 * math.pi), 10.0, inputs={})
    )
    reports.append(
        BoundReport("sinh_constant_12", SINH_PI / math.cos(math.pi / 12.0), 12.0, inputs={})
    )
    return reports


# ---------------------------------------------------------------------------
# Contour-integral identity and the two-term comparison
# ---------------------------------------------------------------------------

def _node_residues(S: int, T: int, j: int, z: complex) -> list[complex]:
    """Res_{w=j} (w - j)^ell / (P(w)^T (w - z)) for ell < T, exactly.

    With u = w - j the residue is the u^(T-1-ell) Taylor coefficient of
    1 / (prod_{k != j} (u + j - k)^T (u + j - z)). The series 1 is divided
    by each linear factor a + u in turn: c[n] = (c[n] - c[n-1]) / a.
    """
    c = [complex(1.0)] + [complex(0.0)] * (T - 1)
    for a in [j - k for k in range(1 - S, S) if k != j for _ in range(T)] + [j - z]:
        c[0] /= a
        for n in range(1, T):
            c[n] = (c[n] - c[n - 1]) / a
    return c[::-1]


def hermite_identity_check(f: AnalyticTestFunction, S: int, T: int, z: complex) -> BoundReport:
    """Residue decomposition of f(z)/P(z)^T against direct quadrature.

    The outer circle |w| = S is summed by the trapezoid rule on 2048 nodes;
    each node j contributes its exact residues (``_node_residues``) weighted
    by the divided derivatives of f at j. Only derivative orders below T
    contribute at a node, so the truncated sum is exact for holomorphic f.
    z must lie outside the node discs of radius 1/2 - epsilon, the node
    circles of the paper's contour, and the residual must be at most 1e-8.
    """
    if S < 1 or T < 1:
        raise ValueError("S and T must be >= 1")
    nodes, eps = 2048, DEFAULT_EPSILON
    z = complex(z)
    if abs(z) >= S:
        raise ValueError("z must satisfy |z| < S")
    for j in range(1 - S, S):
        if abs(z - j) <= 0.5 - eps:
            raise ValueError(f"z too close to node {j}")
    circle = (S * cmath.exp(2j * math.pi * k / nodes) for k in range(nodes))
    outer = sum(f(w) * w / (poly_P(S, w) ** T * (w - z)) for w in circle) / nodes
    node_sum = complex(0.0)
    for j in range(1 - S, S):
        residues = _node_residues(S, T, j, z)
        node_sum += sum(f.divided_derivative(ell, j) * r for ell, r in enumerate(residues))
    lhs_val = f(z) / poly_P(S, z) ** T
    return BoundReport(
        "hermite_identity_residual",
        abs(lhs_val - (outer - node_sum)),
        1e-8,
        inputs={"S": S, "T": T, "epsilon": eps, "z_re": z.real, "z_im": z.imag, "nodes": nodes},
    )


def schwarz_lemma_check(f: AnalyticTestFunction, S: int, T: int) -> tuple[BoundReport, BoundReport]:
    """Both forms of the two-term comparison for |f| on the unit circle.

    Sharp form: |f|_1 <= 4 (u_S sinh(pi)/(4^S pi))^T |f|_S
    + (S T / eps) (sinh(pi)/cos(pi eps))^T max |f^(l)(j)/(2^l l!)|.
    Simplified form at eps = 1/12: 4 (10/4^S)^T |f|_S + 12 S T 12^T max(...).
    The left side takes the upper and |f|_S the lower of ``circle_bounds``,
    so both err against a PASS; for monomials and exponentials both are the
    exact maxima.
    """
    if S < 1 or T < 1:
        raise ValueError("S and T must be >= 1")
    eps = DEFAULT_EPSILON
    lhs = f.circle_bounds(1.0)[1]
    f_S = f.circle_bounds(S)[0]
    node_max = 0.0
    for j in range(1 - S, S):
        for ell in range(T):
            node_max = max(node_max, abs(f.divided_derivative(ell, j)) / 2.0**ell)
    ratio = math.factorial(S - 1) ** 2 * SINH_PI / (math.pi * math.factorial(2 * S - 1))
    sharp_rhs = 4.0 * ratio**T * f_S + (S * T / eps) * (SINH_PI / math.cos(math.pi * eps)) ** T * node_max
    simple_rhs = 4.0 * (10.0 / 4.0**S) ** T * f_S + 12.0 * S * T * 12.0**T * node_max
    common = {"S": S, "T": T, "f": f.describe(), "f_S": f_S, "node_max": node_max}
    sharp = BoundReport("schwarz_sharp", lhs, sharp_rhs, inputs={**common, "epsilon": eps})
    simple = BoundReport("schwarz_simplified", lhs, simple_rhs, inputs=common)
    return sharp, simple
