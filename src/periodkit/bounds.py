"""Closed-form inequality evaluators and verdict reports.

Every check in the package is expressed as a :class:`BoundReport`: a named
inequality ``lhs <= rhs`` with its margin and a verdict. Violated reports are
first-class outputs, not errors, so a caller can demonstrate that a false
inequality is detected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

# Relative tolerance used for verdicts: satisfied <=> margin >= -tol*max(1,|rhs|).
REPORT_TOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """One named inequality check: lhs <= rhs with margin rhs - lhs."""

    name: str
    lhs: float
    rhs: float
    inputs: dict = field(default_factory=dict)
    tol: float = REPORT_TOL

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def satisfied(self) -> bool:
        return self.margin >= -self.tol * max(1.0, abs(self.rhs))

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "satisfied": self.satisfied,
            "inputs": dict(self.inputs),
        }

    def __str__(self) -> str:
        verdict = "PASS" if self.satisfied else "FAIL"
        return f"{verdict} {self.name}: lhs={self.lhs:.12g} rhs={self.rhs:.12g} margin={self.margin:.3g}"


# c = 6 sqrt2 - 8 in the epsilon-choice inequality, and the Hermite
# constants gamma_4, gamma_6 of rank 4 and 6
EPS_COEFFICIENT = 6.0 * math.sqrt(2.0) - 8.0
GAMMA4 = math.sqrt(2.0)
GAMMA6 = 2.0 / 3.0 ** (1.0 / 6.0)


def _log_factorial(g: int) -> float:
    return math.lgamma(g + 1.0)


# ---------------------------------------------------------------------------
# Period-minimum mean bounds
# ---------------------------------------------------------------------------

def autissier_report(rho_list: Sequence[float], h: float, g: int) -> BoundReport:
    """Mean of pi/(6 rho'^2) + g log rho' against h + (g/2) log(2 pi^2 e / 3g).

    rho' clamps each period minimum at sqrt(pi/3g). Requires a principal
    polarization for the height h to be the right one; the caller owns that.
    """
    if not rho_list:
        raise ValueError("rho_list must be nonempty")
    if any(r <= 0 for r in rho_list):
        raise ValueError("period minima must be positive")
    cap = math.sqrt(math.pi / (3.0 * g))
    terms = []
    for rho in rho_list:
        rp = min(rho, cap)
        terms.append(math.pi / (6.0 * rp * rp) + g * math.log(rp))
    lhs = sum(terms) / len(terms)
    rhs = h + (g / 2.0) * math.log(2.0 * math.pi**2 * math.e / (3.0 * g))
    return BoundReport(
        "period_mean_vs_height",
        lhs,
        rhs,
        inputs={"g": g, "h": h, "n_embeddings": len(rho_list), "rho_cap": cap},
    )


def matrix_lemma_report(T: float, h: float, deg: float, g: int, variant: str = "eleven") -> BoundReport:
    """Mean inverse-square period minimum T against c * max(1, h, log deg).

    variant "eleven" takes h in the working normalization (constant 11);
    variant "fourteen" takes the Faltings-normalized height (constant 14).
    """
    if deg <= 0 or T <= 0:
        raise ValueError("T and deg must be positive")
    consts = {"eleven": 11.0, "fourteen": 14.0}
    try:
        c = consts[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None
    rhs = c * max(1.0, h, math.log(deg))
    return BoundReport(
        f"matrix_lemma_{variant}",
        T,
        rhs,
        inputs={"g": g, "h": h, "deg": deg, "variant": variant},
    )


def bisect_last(pred: Callable[[float], bool], lo: float, hi: float) -> float:
    """Bisect a bracket with pred(lo) true and pred(hi) false; returns the final lo.

    Stops once the midpoint rounds to an end of the bracket: from then on
    every further halving would leave the bracket unchanged.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo
        if pred(mid):
            lo = mid
        else:
            hi = mid


def prop_ell_delta_max(h: float) -> float:
    """Largest delta >= 3/pi with pi delta <= 3 log delta + 6h + 8.66 (bisection).

    The left side grows faster than the right for delta >= 3/pi, so the
    admissible set is an interval [3/pi, delta*]; returns delta*.
    """
    rhs_const = 6.0 * h + 8.66

    def excess(d: float) -> float:
        return math.pi * d - 3.0 * math.log(d) - rhs_const

    lo = 3.0 / math.pi
    if excess(lo) > 0:
        raise ValueError("no admissible delta: need 6h + 8.66 >= 3 - 3 log(3/pi)")
    hi = max(2.0 * lo, 2.0)
    while excess(hi) <= 0:
        hi *= 2.0
    return bisect_last(lambda d: excess(d) <= 0, lo, hi)


def prop_ell_caps(h: float) -> tuple[float, float]:
    """Elliptic mean-Im bounds (general, large height): 6.45 max(h,1) and 1.92 max(h,1000)."""
    return 6.45 * max(h, 1.0), 1.92 * max(h, 1000.0)


def prop_ell_solver(h: float) -> tuple[float, float, list[BoundReport]]:
    """The caps of :func:`prop_ell_caps`, with proof checks.

    Returns (general bound, large-height bound, constant checks). The checks
    verify 6Z + 8.66 <= pi Y - 3 log Y for (Y,Z) in {(6.45,1),(1920,1000)} and
    report the largest admissible delta of the base inequality.
    """
    t_general, t_large = prop_ell_caps(h)
    checks = []
    for Y, Z in ((6.45, 1.0), (1920.0, 1000.0)):
        checks.append(
            BoundReport(
                f"ell_proof_condition_Y{Y:g}_Z{Z:g}",
                6.0 * Z + 8.66,
                math.pi * Y - 3.0 * math.log(Y),
                inputs={"Y": Y, "Z": Z},
            )
        )
    dstar = prop_ell_delta_max(h)
    checks.append(
        BoundReport(
            "ell_base_inequality_at_delta_max",
            math.pi * dstar,
            3.0 * math.log(dstar) + 6.0 * h + 8.66,
            inputs={"h": h, "delta_max": dstar},
            tol=1e-9,
        )
    )
    return t_general, t_large, checks


# ---------------------------------------------------------------------------
# Structural constants (c1/c2, r(g,eps), the quadratic-root fact, Hermite)
# ---------------------------------------------------------------------------

def c1_of_g(g: int) -> float:
    """pi/6 - (g/2) log(11 max(1, log g!)) / (11 max(1, log g!))."""
    m = max(1.0, _log_factorial(g))
    return math.pi / 6.0 - (g / 2.0) * math.log(11.0 * m) / (11.0 * m)


def c2_of_g(g: int) -> float:
    """3/2 + max(0, (g/2) log(2 pi^2 e / 3g) - (1/2) log g!) / max(1, log g!)."""
    m = max(1.0, _log_factorial(g))
    num = max(0.0, (g / 2.0) * math.log(2.0 * math.pi**2 * math.e / (3.0 * g)) - 0.5 * _log_factorial(g))
    return 1.5 + num / m


def quadratic_root_bound(alpha: float, beta: float) -> float:
    """Upper bound for M from M - alpha sqrt(M) <= beta (exact quadratic root)."""
    if beta <= 0 or alpha < 0:
        raise ValueError("need beta > 0 and alpha >= 0")
    s = alpha / (2.0 * math.sqrt(beta)) + math.sqrt(1.0 + alpha**2 / (4.0 * beta))
    return beta * s * s


def _worst_of(candidates: Iterable[BoundReport]) -> list[BoundReport]:
    """The first report of least margin, as a one-item list; empty if none."""
    worst = min(candidates, key=lambda r: r.margin, default=None)
    return [] if worst is None else [worst]


def structural_constants(g_max: int, eps_grid: int = 200, seed: int = 0) -> list[BoundReport]:
    """Verdicts for the dimension-uniform constants used by the main bounds.

    Covers, for g = 1..g_max: (a) c2(g) <= 11 c1(g) plus the g >= 6 closed
    form and envelope monotonicity; (b) (g+eps)^g - g^g <= g^g eps/(1-eps)
    for eps in [1/eps_grid, 1), evaluated at its proved worst point; (c) the
    epsilon-choice inequality (g + (6 sqrt2 - 8) g^-g xi)^g <= g^g + xi/2
    for xi in (0, 1], likewise; (d) 200 random instances of the
    quadratic-root fact, drawn from ``seed``; (e) Hermite/Blichfeldt
    gamma_{2t} t!^{-1/t} <= 1 for t = 2..50. Aggregated checks echo their
    worst case in their inputs.
    """
    if g_max < 2:
        raise ValueError("g_max must be >= 2")
    if eps_grid < 2:
        raise ValueError("eps_grid must be >= 2")
    reports: list[BoundReport] = []

    # (a) per-g comparison, exactly as the two displayed constants are defined
    for g in range(1, g_max + 1):
        reports.append(
            BoundReport(
                f"c2_le_11c1[g={g}]",
                c2_of_g(g),
                11.0 * c1_of_g(g),
                inputs={"g": g},
            )
        )
    # g >= 6 branch: the max(...) in c2 vanishes, i.e. 3g g!^{1/g} >= 2 pi^2 e
    reports += _worst_of(
        BoundReport(
            "c2_is_three_halves_for_g_ge_6",
            2.0 * math.pi**2 * math.e,
            3.0 * g * math.exp(_log_factorial(g) / g),
            inputs={"g": g},
        )
        for g in range(6, g_max + 1)
    )

    def envelope(g: int) -> float:
        return math.pi / 6.0 - (math.log(11.0) + 2.0 * math.log(g)) / (22.0 * math.log(g) - 22.0)

    reports += _worst_of(
        BoundReport("c1_envelope_increasing_g_ge_6", 0.0, envelope(g + 1) - envelope(g), inputs={"g": g})
        for g in range(6, g_max)
    )
    reports.append(BoundReport("c1_envelope_at_6_exceeds_3_22", 3.0 / 22.0, envelope(6), inputs={}))
    reports += _worst_of(
        BoundReport("c1_dominates_envelope_g_ge_6", 0.0, c1_of_g(g) - envelope(g), inputs={"g": g})
        for g in range(6, g_max + 1)
    )

    # (b) r(g, eps) <= g^g eps/(1-eps), in log space to avoid overflow:
    # (1 + eps/g)^g <= 1/(1-eps). The margin -log(1-eps) - g log(1+eps/g)
    # has eps-derivative 1/(1-eps) - 1/(1+eps/g) > 0, and g log(1+x/g)
    # increases in g, so the margin is least at the largest g, smallest eps.
    g, eps = g_max, 1 / eps_grid
    reports.append(
        BoundReport(
            "r_g_eps_bound",
            g * math.log1p(eps / g),
            -math.log1p(-eps),
            inputs={"g": g, "eps": eps, "form": "log of (1+eps/g)^g <= 1/(1-eps)"},
        )
    )

    # (c) (g + c g^-g xi)^g <= g^g + xi/2 with c = 6 sqrt2 - 8.
    # g = 2 expands exactly: 4 + c xi + (c xi)^2/16 <= 4 + xi/2. Since
    # c + c^2/16 = 1/2 the margin is (c^2/16)(xi - xi^2), least on (0, 1] at
    # xi = 1 where it is zero; rounding leaves -1.1e-15, inside the tolerance.
    c = EPS_COEFFICIENT
    xi = 1.0
    reports.append(
        BoundReport("eps_choice_inequality_g2", c * xi + (c * xi) ** 2 / 16.0, xi / 2.0, inputs={"g": 2, "xi": xi})
    )
    # g >= 3: with t = c xi g^{-(g+1)} and s = (xi/2) g^-g the claim is
    # g log1p(t) <= log1p(s); since g t = c xi g^-g and log1p(s) >= s - s^2/2,
    # it suffices that c + (xi/4) g^-g / 2 <= 1/2, checked after dividing out
    # xi g^-g. The left side rises in xi and falls in g: worst at g = 3, xi = 1.
    if g_max >= 3:
        g = 3
        reports.append(
            BoundReport(
                "eps_choice_inequality_g_ge_3",
                c + (xi / 8.0) * math.exp(-g * math.log(g)),
                0.5,
                inputs={"g": g, "xi": xi, "form": "scaled sufficient condition"},
            )
        )

    # (d) random instances of the quadratic-root fact
    import random

    rng = random.Random(seed)

    def trial() -> BoundReport:
        alpha = rng.uniform(0.0, 10.0)
        beta = rng.uniform(0.1, 100.0)
        cap = quadratic_root_bound(alpha, beta)
        m = cap * rng.uniform(0.0, 1.0) ** 2
        # by construction m - alpha sqrt(m) <= beta; check m <= cap
        if m - alpha * math.sqrt(m) > beta + 1e-9:
            raise AssertionError("random trial violated its own hypothesis")
        return BoundReport("quadratic_root_fact", m, cap, inputs={"alpha": alpha, "beta": beta})

    reports += _worst_of(trial() for _ in range(200))
    reports.append(
        BoundReport("quadratic_root_fact_alpha0", quadratic_root_bound(0.0, 7.5), 7.5, inputs={"beta": 7.5})
    )

    # (e) gamma_{2t} t!^{-1/t} <= 1: exact values for t in {2,3}, Blichfeldt after
    for t, gamma in ((2, GAMMA4), (3, GAMMA6)):
        reports.append(
            BoundReport(
                f"hermite_ratio_t{t}",
                gamma * math.exp(-_log_factorial(t) / t),
                1.0,
                inputs={"t": t, "gamma_2t": gamma},
            )
        )
    reports += _worst_of(
        BoundReport("blichfeldt_ratio_t_ge_4", (2.0 / math.pi) * (t + 1.0) ** (1.0 / t), 1.0, inputs={"t": t})
        for t in range(4, 51)
    )
    reports += _worst_of(
        BoundReport("one_plus_t_root_le_half_pi", (1.0 + t) ** (1.0 / t), math.pi / 2.0, inputs={"t": t})
        for t in range(4, 51)
    )
    return reports


# ---------------------------------------------------------------------------
# Orthogonal splittings
# ---------------------------------------------------------------------------

def orthogonal_split_degree_report(h0_B: float, h0_Bperp: float, h0_A: float) -> BoundReport:
    """Degree of the addition isogeny B x B_perp -> A: h0(B) h0(Bperp)/h0(A) <= h0(B)^2."""
    if min(h0_B, h0_Bperp, h0_A) < 1:
        raise ValueError("section counts must be >= 1")
    return BoundReport(
        "orthogonal_split_degree",
        h0_B * h0_Bperp / h0_A,
        h0_B * h0_B,
        inputs={"h0_B": h0_B, "h0_Bperp": h0_Bperp, "h0_A": h0_A},
    )
