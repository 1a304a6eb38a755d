"""Gaussian-normalized theta sums on tori of dimension one and two.

The central object is the weighted series F whose squared modulus integrates
to 1 over the doubled torus; the classical theta function is recovered from F
by an explicit exponential factor. Torus integrals use tensor midpoint grids
with the half-step offset keeping theta zeros at cell corners.

F is a finite Fourier series in q, so the L2 norm skips the q-grid: by
discrete Parseval the mean of |F|^2 over the m^g midpoint q-points is the
sum of its squared coefficients, folded per axis by n mod m when
2 box + 1 > m, which equals the midpoint grid sum exactly. For g = 1 the
log integral skips the grid too: the Jacobi triple product turns the mean
of log|F| over the midpoint q-points into a short sum of closed forms per
p-point. For g = 2, which has no such product, it is summed over the full
m^2 x m^2 grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .bounds import BoundReport
from .heights import CurveRecord, convert_height, faltings_height_silverman
from .modular import SeriesValue

TAIL_EXPONENT = 40.0  # e^-40 sits below double-precision noise


@dataclass(frozen=True)
class RiemannTau:
    """Symmetric g x g matrix with positive-definite imaginary part."""

    g: int
    matrix: np.ndarray

    def __init__(self, g: int, matrix) -> None:
        if g not in (1, 2):
            raise ValueError("g must be 1 or 2")
        m = np.array(matrix, dtype=complex).reshape(g, g)
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        if np.abs(m - m.T).max() > 1e-9:
            raise ValueError("matrix must be symmetric")
        y = m.imag
        if np.linalg.eigvalsh(y).min() <= 0:
            raise ValueError("imaginary part must be positive-definite")
        m.setflags(write=False)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "matrix", m)

    @property
    def y(self) -> np.ndarray:
        return self.matrix.imag

    @property
    def lambda_min(self) -> float:
        return float(np.linalg.eigvalsh(self.y).min())


@dataclass(frozen=True)
class TorusPoint:
    """Coordinates (p, q) in [0,1)^g x [0,1)^g; the point is z = tau p + q."""

    p: tuple
    q: tuple

    def __init__(self, p, q) -> None:
        pv = tuple(float(x) for x in np.atleast_1d(p))
        qv = tuple(float(x) for x in np.atleast_1d(q))
        if len(pv) != len(qv):
            raise ValueError("p and q must have equal length")
        for x in pv + qv:
            if not (0.0 <= x < 1.0):
                raise ValueError("coordinates must lie in [0, 1)")
        object.__setattr__(self, "p", pv)
        object.__setattr__(self, "q", qv)


@dataclass(frozen=True)
class AppellHumbert:
    """Hermitian form y^-1 with the standard semicharacter.

    chi on the lattice point tau m + n is (-1)^(m . n); chi_signs records the
    values on the mixed basis pairs.
    """

    H: np.ndarray
    chi_signs: np.ndarray

    def __init__(self, tau: RiemannTau) -> None:
        H = np.linalg.inv(tau.y).astype(complex)
        H.setflags(write=False)
        signs = np.where(np.eye(tau.g, dtype=bool), -1, 1)
        signs.setflags(write=False)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "chi_signs", signs)

    def pair(self, w, z) -> complex:
        """H(w, z), antilinear in w."""
        return complex(np.conj(np.asarray(w)) @ self.H @ np.asarray(z))

    def chi(self, m, n) -> float:
        return -1.0 if int(np.dot(m, n)) % 2 else 1.0

    def automorphy_factor(self, tau: RiemannTau, m, n, z) -> complex:
        """chi(omega) exp(pi H(omega, z) + (pi/2) H(omega, omega)) for omega = tau m + n."""
        omega = tau.matrix @ np.asarray(m, dtype=float) + np.asarray(n, dtype=float)
        return complex(
            self.chi(m, n)
            * np.exp(math.pi * self.pair(omega, z) + (math.pi / 2.0) * self.pair(omega, omega))
        )


def default_truncation(tau: RiemannTau) -> int:
    return int(math.ceil(math.sqrt(TAIL_EXPONENT / (math.pi * tau.lambda_min)))) + 2


def _gaussian_tail(tau: RiemannTau, box: int) -> float:
    """Sum of |terms| with some |n_i| > box, for any p in [0,1)^g."""
    lam = tau.lambda_min
    r = math.exp(-math.pi * lam)
    if r >= 1.0:
        return math.inf
    col = math.exp(-math.pi * lam * box * box) / (1.0 - r)
    line = 3.0 + 2.0 * r / (1.0 - r)
    scale = float(np.linalg.det(2.0 * tau.y)) ** 0.25
    return scale * 2.0 * tau.g * line ** (tau.g - 1) * col


def eval_F_raw(tau: RiemannTau, p, q, truncation: Optional[int] = None) -> SeriesValue:
    """The weighted series at arbitrary real (p, q), with certified tail.

    F = det(2y)^{1/4} sum over integer n of
    exp(i pi (n+p)^T tau (n+p) + 2 i pi n^T q).
    """
    box = default_truncation(tau) if truncation is None else int(truncation)
    if box < 1:
        raise ValueError("truncation must be >= 1")
    g = tau.g
    pv = np.asarray(p, dtype=float).reshape(g)
    qv = np.asarray(q, dtype=float).reshape(g)
    axes = [np.arange(-box, box + 1)] * g
    ns = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g)
    w = ns + pv
    quad = np.einsum("kj,ji,ki->k", w, tau.matrix, w)
    phase = 1j * math.pi * quad + 2j * math.pi * (ns @ qv)
    scale = float(np.linalg.det(2.0 * tau.y)) ** 0.25
    value = scale * complex(np.exp(phase).sum())
    return SeriesValue(value, _gaussian_tail(tau, box))


def eval_F(tau: RiemannTau, pt: TorusPoint, truncation: Optional[int] = None) -> SeriesValue:
    if len(pt.p) != tau.g:
        raise ValueError("point dimension does not match tau")
    return eval_F_raw(tau, pt.p, pt.q, truncation)


def theta_from_F(tau: RiemannTau, pt: TorusPoint) -> complex:
    """Classical theta value F(z) exp((pi/2) z^T y^-1 z - i pi p^T tau p).

    The quadratic form in z is complex bilinear, not Hermitian; the modulus
    identity |theta(z)| = |F(z)| exp((pi/2) H(z,z)) follows.
    """
    p = np.asarray(pt.p, dtype=float)
    q = np.asarray(pt.q, dtype=float)
    z = tau.matrix @ p + q
    yinv = np.linalg.inv(tau.y)
    expo = (math.pi / 2.0) * (z @ yinv @ z) - 1j * math.pi * (p @ tau.matrix @ p)
    return complex(eval_F_raw(tau, p, q).value * np.exp(expo))


def theta_at_z(tau: RiemannTau, z) -> complex:
    """Theta at an arbitrary complex vector, via z = tau p + q with real p, q."""
    zv = np.asarray(z, dtype=complex).reshape(tau.g)
    yinv = np.linalg.inv(tau.y)
    p = yinv @ zv.imag
    q = zv.real - tau.matrix.real @ p
    expo = (math.pi / 2.0) * (zv @ yinv @ zv) - 1j * math.pi * (p @ tau.matrix @ p)
    return complex(eval_F_raw(tau, p, q).value * np.exp(expo))


# ---------------------------------------------------------------------------
# Torus quadrature
# ---------------------------------------------------------------------------

def _axis_grid(m: int) -> np.ndarray:
    return (np.arange(m) + 0.5) / m


def _tensor_grid(g: int, m: int) -> np.ndarray:
    axes = [_axis_grid(m)] * g
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g)


def _coefficients(tau: RiemannTau, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Term indices ns, coefficients A and scale det(2y)^{1/4} of F at the points ps.

    A[k, i] = exp(i pi (n_k + p_i)^T tau (n_k + p_i)), so that
    F(p_i, q) = scale * sum_k A[k, i] exp(2 i pi n_k . q).
    """
    g = tau.g
    box = default_truncation(tau)
    axes = [np.arange(-box, box + 1)] * g
    ns = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g)
    scale = float(np.linalg.det(2.0 * tau.y)) ** 0.25
    A_blocks = []  # built in p-blocks to bound the (terms x points x g) temporary
    for j0 in range(0, ps.shape[0], 4096):
        w = ns[:, None, :] + ps[None, j0 : j0 + 4096, :]
        quad = np.einsum("kij,jl,kil->ki", w, tau.matrix, w)
        A_blocks.append(np.exp(1j * math.pi * quad))
        del w, quad
    return ns, np.concatenate(A_blocks, axis=1), scale


def _grid_log_mean(tau: RiemannTau, m: int) -> float:
    """Mean of log|F| over the m^g x m^g midpoint grid (g = 2)."""
    pts = _tensor_grid(tau.g, m)  # p and q share the grid
    ns, A, scale = _coefficients(tau, pts)
    sum_log = 0.0
    for j0 in range(0, pts.shape[0], 512):
        B = np.exp(2j * math.pi * (ns @ pts[j0 : j0 + 512].T))
        mod = np.abs(scale * (A.T @ B))
        sum_log += float(np.log(np.maximum(mod, 1e-300)).sum())
    return sum_log / pts.shape[0] ** 2


_BLOCK = 1 << 16  # entries per block in _sum_log_abs_1p_exp


def _sum_log_abs_1p_exp(z_of, n_max: int, width: int) -> float:
    """Sum of log|1 + e^z| over z = z_of(n) for n = 1..n_max.

    z_of maps an array of n to an array of width entries per n. The n run in
    blocks of at most _BLOCK entries, because n_max grows like 1/Im tau. For
    Re z > 0, log|1 + e^z| = Re z + log|1 + e^-z|, and with a = -|Re z| <= 0,
    |1 + e^(a + i Im z)|^2 = expm1(a)^2 + 4 e^a cos^2(Im z / 2), which neither
    overflows nor cancels near the zeros of 1 + e^z.
    """
    step = max(1, _BLOCK // width)
    total = 0.0
    for n0 in range(1, n_max + 1, step):
        z = z_of(np.arange(n0, min(n0 + step, n_max + 1)))
        a = -np.abs(z.real)
        mod_sq = np.expm1(a) ** 2 + 4.0 * np.exp(a) * np.cos(0.5 * z.imag) ** 2
        total += float((0.5 * np.log(mod_sq) + np.maximum(z.real, 0.0)).sum())
    return total


def _product_log_mean(tau: RiemannTau, m: int) -> float:
    """Mean of log|F| over the m x m midpoint grid for g = 1, with no grid.

    See torus_log_integral for the identity. Each factor family stops where
    its first omitted term is below e^-TAIL_EXPONENT: the product family
    log|1 - Q^2n| at 2 pi y n >= TAIL_EXPONENT, and the q-mean family, where
    |e^z| <= e^(-pi m y (2n - 3)) for n >= 2, at pi m y (2n - 3) >= TAIL_EXPONENT.
    """
    t = complex(tau.matrix[0, 0])
    y = t.imag
    n_prod = math.ceil(TAIL_EXPONENT / (2.0 * math.pi * y)) + 1
    n_mean = math.ceil(1.5 + TAIL_EXPONENT / (2.0 * math.pi * m * y)) + 1
    two_p = np.array([2.0, -2.0])[:, None, None] * _axis_grid(m)
    # 1 - Q^2n = 1 + e^(i pi (2 n tau + 1))
    product = _sum_log_abs_1p_exp(lambda n: 1j * math.pi * (2.0 * n * t + 1.0), n_prod, 1)
    # (1/m) sum over (n, +-) at each p-point, averaged over the m p-points
    q_mean = _sum_log_abs_1p_exp(
        lambda n: 1j * math.pi * m * t * ((2.0 * n - 1.0)[:, None] + two_p), n_mean, 2 * m
    ) / (m * m)
    mean_p_sq = 1.0 / 3.0 - 1.0 / (12.0 * m * m)  # exact mean of p^2 over the midpoints
    return 0.25 * math.log(2.0 * y) - math.pi * y * mean_p_sq + product + q_mean


def _fold(C: np.ndarray, axis: int, m: int) -> np.ndarray:
    """Sum the entries along one axis whose indices agree mod m; a no-op for length <= m."""
    n = C.shape[axis]
    if n <= m:
        return C
    pad = [(0, 0)] * C.ndim
    pad[axis] = (0, -n % m)
    C = np.pad(C, pad)
    return C.reshape(C.shape[:axis] + (-1, m) + C.shape[axis + 1 :]).sum(axis=axis)


def _resolution(quadrature_points_per_axis: int) -> int:
    if quadrature_points_per_axis < 16:
        raise ValueError("quadrature resolution must be >= 16 per axis")
    m = int(quadrature_points_per_axis)
    return m + (m % 2)  # even grid keeps the standard theta zero at cell corners


def torus_l2_norm(tau: RiemannTau, quadrature_points_per_axis: int = 64) -> float:
    """Midpoint quadrature of the squared modulus over (R^g/Z^g)^2; expect 1.

    Evaluated by discrete Parseval in q, without the q-grid. On the midpoint
    q-grid, exp(2 i pi n . q) = exp(i pi sum(n) / m) exp(2 i pi n . j / m), so
    F(p, .) is an m^g-point DFT of the coefficients
    C_r(p) = sum over n = r (mod m) of A_n(p) exp(i pi sum(n) / m),
    folded per axis by n mod m (nothing to fold while 2 box + 1 <= m). The
    mean of |F|^2 over the q-grid is therefore scale^2 sum_r |C_r(p)|^2, and
    the value returned, its mean over the p-grid, equals the full midpoint
    grid sum in exact arithmetic, aliasing included, at O((2 box + 1)^g m^g)
    work instead of O((2 box + 1)^g m^2g).
    """
    m = _resolution(quadrature_points_per_axis)
    ns, A, scale = _coefficients(tau, _tensor_grid(tau.g, m))
    C = A * np.exp(1j * math.pi * ns.sum(axis=1) / m)[:, None]
    C = C.reshape((2 * int(ns.max()) + 1,) * tau.g + (A.shape[1],))
    for axis in range(tau.g):
        C = _fold(C, axis, m)
    return scale * scale * float(np.vdot(C, C).real) / A.shape[1]


def torus_log_integral(tau: RiemannTau, quadrature_points_per_axis: int = 64) -> float:
    """Quadrature of log|F| over the doubled torus.

    The integrand has integrable log singularities along the theta divisor;
    the leading quadrature error from cells meeting it scales as the square
    of the step, so the midpoint mean over the m^g x m^g grid is
    Richardson-extrapolated from one internal resolution doubling.

    For g = 1 the mean is evaluated without the grid. There
    F(p, q) = (2y)^(1/4) e^(i pi p^2 tau) theta_3(p tau + q | tau), and with
    Q = e^(i pi tau) the Jacobi triple product gives
    theta_3(z | tau) = prod_n (1 - Q^2n)(1 + Q^(2n-1) e^(2 i pi z))(1 + Q^(2n-1) e^(-2 i pi z)).
    On the even midpoint grid q_j = (j + 1/2)/m, prod_j (1 + a e^(+-2 i pi q_j)) = 1 + a^m
    exactly for every complex a, so the mean of log|F(p, .)| over the q-points is
    (1/4) log 2y - pi y p^2 + sum_n log|1 - Q^2n|
    + (1/m) sum_(n, +-) log|1 + exp(i pi m tau (2n - 1 +- 2p))|,
    and a grid mean costs O(m N) for N product terms instead of
    O(m^2 (2 box + 1)). For g = 2 the grid is summed term by term.
    """
    m = _resolution(quadrature_points_per_axis)
    mean = _product_log_mean if tau.g == 1 else _grid_log_mean
    coarse = mean(tau, m)
    fine = mean(tau, 2 * m)
    return (4.0 * fine - coarse) / 3.0


def bost_inequality_check(record: CurveRecord, quadrature_points_per_axis: int = 64) -> BoundReport:
    """Height floor against the mean log integral over the embeddings.

    lhs = -(h + (1/2) log 2 pi)/2 with h the curve height in the working
    normalization; rhs = mean over embeddings of the torus log integral.
    """
    h = convert_height(faltings_height_silverman(record), "paper_h", g=1).value
    a = -(h + 0.5 * math.log(2.0 * math.pi)) / 2.0
    total = 0.0
    for t in record.embeddings:
        rt = RiemannTau(1, [[complex(t.re, t.im)]])
        total += torus_log_integral(rt, quadrature_points_per_axis)
    mean = total / len(record.embeddings)
    return BoundReport(
        "height_vs_mean_log_integral",
        a,
        mean,
        inputs={"label": record.label, "h": h, "n_embeddings": record.degree},
        tol=1e-9,
    )
