"""Gaussian-normalized theta sums on tori of dimension one and two.

F(p, q) = det(2Y)^(1/4) sum_n exp(i pi (n + p)^T tau (n + p) + 2 i pi n . q),
tau = X + iY, has |F|^2 of mass 1 on the doubled torus. The L2 norm is its
mean over the midpoint grid (the half-step offset keeps theta zeros at cell
corners), summed without the grid: by Poisson summation, the Jacobi
imaginary transformation (Mumford, Tata Lectures on Theta I, ch. II), it is
a few terms over the dual lattice. The log integral, g = 1 only, is by
Bost's identity (1/4) log 2y + log|eta(tau)|, read off log Delta.
"""

from __future__ import annotations

import cmath
import math
from itertools import product
from typing import NamedTuple

from .bounds import BoundReport
from .heights import H_SHIFT, CurveRecord, faltings_height_silverman
from .lattice import siegel_reduce
from .modular import delta_on_upper_half_plane

TAIL_EXPONENT = 40.0  # e^-40 sits below double-precision noise
_DUAL_EXPONENT = TAIL_EXPONENT + 10.0  # the dual sum keeps the terms down to e^-50


class RiemannTau(NamedTuple("RiemannTau", [("g", int), ("matrix", tuple)])):
    """Symmetric g x g matrix with positive-definite imaginary part; immutable, held as tuples."""

    __slots__ = ()

    def __new__(cls, g: int, matrix) -> RiemannTau:
        if g not in (1, 2):
            raise ValueError("g must be 1 or 2")
        rows = tuple(tuple(complex(z) for z in row) for row in matrix)
        if len(rows) != g or any(len(row) != g for row in rows):
            raise ValueError(f"matrix must be {g} x {g}")
        if not all(cmath.isfinite(z) for row in rows for z in row):
            raise ValueError("matrix entries must be finite")
        if abs(rows[0][-1] - rows[-1][0]) > 1e-9:
            raise ValueError("matrix must be symmetric")
        if not _eigenvalues(tuple(tuple(z.imag for z in row) for row in rows))[0] > 0:
            raise ValueError("imaginary part must be positive-definite")
        return super().__new__(cls, g, rows)

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def y(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(z.imag for z in row) for row in self.matrix)

    @property
    def lambda_min(self) -> float:
        return _eigenvalues(self.y)[0]


def _eigenvalues(y) -> tuple[float, ...]:
    """Eigenvalues of a symmetric 1 x 1 or 2 x 2 matrix, smallest first; det / largest does not cancel."""
    if len(y) == 1:
        return (y[0][0],)
    (a, b), (_, c) = y
    top = 0.5 * a + 0.5 * c + math.hypot(0.5 * a - 0.5 * c, b)
    return (a * (c / top) - b * (b / top) if top > 0 else top, top)


def default_truncation(tau: RiemannTau) -> int:
    return int(math.ceil(math.sqrt(TAIL_EXPONENT / (math.pi * tau.lambda_min)))) + 2


# ---------------------------------------------------------------------------
# Torus quadrature
# ---------------------------------------------------------------------------


def _resolution(quadrature_points_per_axis: int) -> int:
    if quadrature_points_per_axis < 16:
        raise ValueError("quadrature resolution must be >= 16 per axis")
    m = int(quadrature_points_per_axis)
    return m + (m % 2)  # even grid keeps the standard theta zero at cell corners


def _exponent(c: float, a, v) -> float:
    """c v^T a v, which must be finite."""
    e = c * sum(v[i] * a[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))
    if not math.isfinite(e):
        raise FloatingPointError(f"theta exponent {e} is not finite")
    return e


def _dual_boxes(tau: RiemannTau, m: int):
    """Y^-1, and the half-widths r sqrt((Y^-1)_ii) of the l box and r sqrt(Y_ii) of the k box."""
    y, eig = tau.y, _eigenvalues(tau.y)
    adj = y if tau.g == 1 else ((y[1][1], -y[0][1]), (-y[0][1], y[0][0]))  # y / y / y = 1 / y for g = 1
    y_inv = tuple(tuple(v / eig[-1] / eig[0] for v in row) for row in adj)
    r = math.sqrt(_DUAL_EXPONENT / (0.5 * math.pi * m * m))
    return y_inv, [r * math.sqrt(y_inv[i][i]) for i in range(tau.g)], [r * math.sqrt(y[i][i]) for i in range(tau.g)]


def _dual_sum(tau: RiemannTau, m: int) -> float:
    g, y, a, (y_inv, l_half, k_half) = tau.g, tau.y, 0.5 * math.pi * m * m, _dual_boxes(tau, m)
    terms = []
    for l in product(*(range(-int(h), int(h) + 1) for h in l_half)):
        xl = [sum(tau.matrix[i][j].real * l[j] for j in range(g)) for i in range(g)]
        ly = _exponent(a, y, l)
        for k in product(*(range(math.ceil(-u - h), math.floor(-u + h) + 1) for u, h in zip(xl, k_half))):
            e = _exponent(a, y_inv, [k[i] + xl[i] for i in range(g)]) + ly
            if e <= _DUAL_EXPONENT:
                terms.append(-math.exp(-e) if (sum(k) + sum(l)) % 2 else math.exp(-e))
    return math.fsum(terms)


def _primal_sum(tau: RiemannTau, m: int) -> float:
    y, box = tau.y, default_truncation(tau)
    shifts = [n + (j + 0.5) / m for j in range(m) for n in range(-box, box + 1)]  # n + p, per axis
    total = math.fsum(math.exp(-_exponent(2.0 * math.pi, y, u)) for u in product(shifts, repeat=tau.g))
    return math.prod(math.sqrt(2.0 * v) for v in _eigenvalues(y)) * total / m**tau.g


def torus_l2_norm(tau: RiemannTau, quadrature_points_per_axis: int = 64) -> float:
    """Midpoint quadrature of the squared modulus over (R^g/Z^g)^2; expect 1.

    For even m and untruncated n the grid mean is exactly the dual sum of
    (-1)^(sum k + sum l) e^(-(pi m^2 / 2) Q) over k, l in Z^g, with
    Q = (k + Xl)^T Y^-1 (k + Xl) + l^T Y l: the q-mean pairs n with n + ml,
    Poisson summation over the points n + p = (Z^g + 1/2) / m gives the k
    sum, and the phase e^(i pi m^2 k . l) is 1. Re tau enters only through
    the aliasing l != 0, so a folding n-box (2 box + 1 > m) needs no care.
    math.fsum adds the terms with (pi m^2 / 2) Q <= E = TAIL_EXPONENT + 10,
    in the boxes |l_i| <= r sqrt((Y^-1)_ii), |k_i + (Xl)_i| <= r sqrt(Y_ii),
    r^2 = 2E / (pi m^2). As an omitted term is below e^(1 - E - (pi m^2 / 2E) Q),
    they add up to at most, over the eigenvalues of Y, e^(1 - E) times
    (1 + sqrt(2E lambda_max) / m)^g (1 + sqrt(2E / lambda_min) / m)^g, about
    the number of terms kept. That grows like sqrt(Y_ii) / m per axis; where
    the primal form, det(2Y)^(1/2) m^-g times the sum of
    e^(-2 pi (n + p)^T Y (n + p)) over the p-grid and the n-box of
    default_truncation (omitting terms below e^-80), does not fold and has
    fewer terms, m^g (2 box + 1)^g, it is summed instead. Where neither fits
    in 2^24 terms, as only an anisotropic g = 2 tau can, this raises
    ``ValueError``; a non-finite exponent, from Im tau = 1.8e306 at g = 1,
    raises ``FloatingPointError``.
    """
    m = _resolution(quadrature_points_per_axis)
    box, (_, l_half, k_half) = default_truncation(tau), _dual_boxes(tau, m)
    dual = math.prod(2.0 * math.floor(h) + 1.0 for h in l_half) * math.prod(math.floor(2.0 * h) + 1.0 for h in k_half)
    primal, folds = float(m * (2 * box + 1)) ** tau.g, 2 * box + 1 > m
    if min(dual, math.inf if folds else primal) > 1 << 24:
        raise ValueError(f"the L2 norm at m = {m} needs {dual:.3g} dual or {primal:.3g} primal terms, over 2^24")
    return _primal_sum(tau, m) if not folds and primal < dual else _dual_sum(tau, m)


def torus_log_integral(tau: RiemannTau) -> float:
    """Integral of log|F| over the doubled torus, for g = 1, by Bost's identity.

    Bost (Duke Math. J. 82, 1996) gives it as (1/4) log 2y + log|eta(tau)|,
    and 24 log|eta(tau)| = Re log Delta(tau). Since y^(1/4) |eta(tau)| is
    SL2(Z)-invariant, tau is reduced first, where the Delta sum takes at most
    nine terms. Raises ``OverflowError`` where the value is not finite: Re log
    Delta overflows from about Im tau = 2.86e307.
    """
    if tau.g != 1:
        raise ValueError("the log integral is evaluated for g = 1 only")
    t, _ = siegel_reduce(tau.matrix[0][0])
    value = 0.25 * math.log(2.0 * t.im) + delta_on_upper_half_plane(t.value).value.real / 24.0
    if not math.isfinite(value):
        raise OverflowError(f"log integral is not finite at Im tau = {t.im:.6g}")
    return value


def bost_inequality_check(record: CurveRecord, _quad_points: int = 64) -> BoundReport:
    """Height floor against the mean log integral over the embeddings.

    lhs = -(h + (1/2) log 2 pi)/2 with h = h_F + H_SHIFT the paper's height
    of the curve; rhs = mean over embeddings of the torus log integral. The
    second argument is accepted and unused, since the log integral has no
    grid; the span test in perfbench/tests still passes a resolution here.
    """
    h = faltings_height_silverman(record) + H_SHIFT
    a = -(h + 0.5 * math.log(2.0 * math.pi)) / 2.0
    total = 0.0
    for t in record.embeddings:
        total += torus_log_integral(RiemannTau(1, [[t.value]]))
    mean = total / len(record.embeddings)
    return BoundReport(
        "height_vs_mean_log_integral",
        a,
        mean,
        inputs={"label": record.label, "h": h, "n_embeddings": record.degree},
        tol=1e-9,
    )
