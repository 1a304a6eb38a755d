"""Gaussian-normalized theta sums on tori of dimension one and two.

The central object is the weighted series F whose squared modulus integrates
to 1 over the doubled torus. The L2 norm is a midpoint mean over the tensor
grid, with the half-step offset keeping theta zeros at cell corners, and it
builds no grid: it uses discrete Parseval in q and streams the p-grid in
blocks, so its peak memory is a few (2 box + 1)^g x block x 16 B arrays
whatever m is, and it reduces with numpy's pairwise sums rather than BLAS, so
it does not depend on the BLAS thread count. The log integral, for g = 1
only, is no quadrature at all: by Bost's identity it is
(1/4) log 2y + log|eta(tau)|, read off log Delta.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .bounds import BoundReport
from .heights import H_SHIFT, CurveRecord, faltings_height_silverman
from .lattice import siegel_reduce
from .modular import delta_on_upper_half_plane

if TYPE_CHECKING:
    import numpy as np

TAIL_EXPONENT = 40.0  # e^-40 sits below double-precision noise


class RiemannTau:
    """Symmetric g x g matrix with positive-definite imaginary part; immutable, its array read-only."""

    __slots__ = ("g", "matrix")
    g: int
    matrix: np.ndarray

    def __init__(self, g: int, matrix) -> None:
        import numpy as np

        if g not in (1, 2):
            raise ValueError("g must be 1 or 2")
        m = np.array(matrix, dtype=complex).reshape(g, g)
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        if np.abs(m - m.T).max() > 1e-9:
            raise ValueError("matrix must be symmetric")
        if not _min_eigenvalue(m.imag) > 0:
            raise ValueError("imaginary part must be positive-definite")
        m.setflags(write=False)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"RiemannTau is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @property
    def y(self) -> np.ndarray:
        return self.matrix.imag

    @property
    def lambda_min(self) -> float:
        return _min_eigenvalue(self.y)


def _min_eigenvalue(y: np.ndarray) -> float:
    """Smallest eigenvalue of a real symmetric matrix; the entry itself for g=1."""
    if y.shape == (1, 1):
        return float(y[0, 0])
    import numpy as np

    return float(np.linalg.eigvalsh(y).min())


def default_truncation(tau: RiemannTau) -> int:
    return int(math.ceil(math.sqrt(TAIL_EXPONENT / (math.pi * tau.lambda_min)))) + 2


# ---------------------------------------------------------------------------
# Torus quadrature
# ---------------------------------------------------------------------------

_BLOCK = 1 << 16  # entries per block of the L2 stream


def _fold(C: np.ndarray, axis: int, m: int) -> np.ndarray:
    """Sum the entries along one axis whose indices agree mod m; a no-op for length <= m."""
    import numpy as np

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
    C_r(p) = sum over n = r (mod m) of exp(i pi (n + p)^T tau (n + p) + i pi sum(n) / m),
    folded per axis by n mod m (nothing to fold while 2 box + 1 <= m). The
    mean of |F|^2 over the q-grid is therefore det(2y)^(1/2) sum_r |C_r(p)|^2,
    and its mean over the p-grid equals the full midpoint grid sum in exact
    arithmetic, aliasing included, at O((2 box + 1)^g m^g) work.

    The p-grid is streamed in blocks of max(1, _BLOCK // (2 box + 1)^g)
    points. A block's (2 box + 1)^g x block exponents are built in place from
    i pi (n^T tau n + sum(n) / m), i pi p^T tau p and one product
    2 i pi (tau n)_j p_j per axis, then exponentiated and folded, so peak
    memory is a few such 16 B arrays, about 1 MB each, whatever m is. Each
    block is reduced by numpy's pairwise sum, not by BLAS, whose result
    depends on its thread count, and the block sums by math.fsum. An exponent
    that overflows, from about Im tau = 6e306 at g = 1, raises
    ``FloatingPointError`` instead of giving a NaN mean.
    """
    import numpy as np

    with np.errstate(over="raise", invalid="raise"):
        m = _resolution(quadrature_points_per_axis)
        g, t = tau.g, tau.matrix
        box = default_truncation(tau)
        axes = [np.arange(-box, box + 1)] * g
        ns = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g)
        tn = [sum(t[j, l] * ns[:, l] for l in range(g)) for j in range(g)]  # (tau n)_j per term
        term = 1j * math.pi * (sum(ns[:, j] * tn[j] for j in range(g)) + ns.sum(axis=1) / m)
        cross = [2j * math.pi * u for u in tn]
        step = max(1, _BLOCK // ns.shape[0])
        sums = []
        for i0 in range(0, m**g, step):
            i = np.arange(i0, min(i0 + step, m**g))
            p = [(i // m ** (g - 1 - j) % m + 0.5) / m for j in range(g)]  # row-major p-grid
            point = 1j * math.pi * sum(p[j] * sum(t[j, l] * p[l] for l in range(g)) for j in range(g))
            E = np.add.outer(term, point)
            prod = np.empty_like(E)
            for j in range(g):
                E += np.multiply.outer(cross[j], p[j], out=prod)
            C = np.exp(E, out=E).reshape((2 * box + 1,) * g + (-1,))
            for axis in range(g):
                C = _fold(C, axis, m)
            sums.append(float((C.real**2).sum() + (C.imag**2).sum()))
        return float(np.linalg.det(2.0 * tau.y)) ** 0.5 * math.fsum(sums) / m**g


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
    t, _ = siegel_reduce(tau.matrix[0, 0])
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
