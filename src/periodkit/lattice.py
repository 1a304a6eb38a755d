"""Complex lattices in dimension one and two.

Reduction of elliptic period ratios to the standard fundamental domain,
shortest vectors of one-dimensional tori, minima avoiding a complex line,
and exact index computations for integer matrices. Both minima are
Lagrange-Gauss reductions in the plane: the shortest vector of the periods
scaled by the form, and the minimum avoiding a line the shortest vector of
the lattice projected onto the line's orthogonal complement.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_TOL = 1e-9
_BOUNDARY_EPS = 1e-12


@dataclass(frozen=True)
class SiegelTau:
    """Point of the standard fundamental domain for SL2(Z).

    INPUT:

    - ``re``, ``im`` -- real and imaginary parts; must be finite and satisfy
      |re| <= 1/2, im >= sqrt(3)/2 and re^2 + im^2 >= 1, all up to
      ``DEFAULT_TOL``.
    """

    re: float
    im: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError(f"tau = ({self.re}, {self.im}) is not finite")
        if abs(self.re) > 0.5 + DEFAULT_TOL:
            raise ValueError(f"re={self.re} outside [-1/2, 1/2]")
        if self.im < math.sqrt(3.0) / 2.0 - DEFAULT_TOL:
            raise ValueError(f"im={self.im} below sqrt(3)/2")
        # im >= 1 already clears the unit circle; squaring a huge im would overflow
        if self.im < 1.0 and self.re**2 + self.im**2 < 1.0 - DEFAULT_TOL:
            raise ValueError("re^2 + im^2 < 1: point below the unit circle")

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)


@dataclass(frozen=True)
class UnimodularMap:
    """Integer Moebius map z -> (a z + b)/(c z + d) with a d - b c = 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        for entry in (self.a, self.b, self.c, self.d):
            if not isinstance(entry, int):
                raise TypeError("entries must be integers")
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be exactly 1")

    def apply(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)

    def compose(self, other: "UnimodularMap") -> "UnimodularMap":
        """Map equal to applying ``other`` first, then self."""
        return UnimodularMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


def _as_c_array(m, shape_hint: str) -> np.ndarray:
    arr = np.array(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"{shape_hint} must be a 2-d matrix")
    return arr


class PolarizedTorus:
    """Complex torus of dimension 1 or 2 with a positive Hermitian form.

    INPUT:

    - ``g`` -- 1 or 2
    - ``periods`` -- g x 2g complex matrix; columns span the lattice
    - ``riemann_form`` -- g x g Hermitian positive matrix H; the squared
      norm of z is the real number H(z, z) = conj(z)^T H z

    H must be Hermitian and Im H integral on lattice pairs, both up to
    ``DEFAULT_TOL``.

    Instances are immutable; all arrays are copied and frozen.
    """

    __slots__ = ("g", "periods", "riemann_form")

    def __init__(self, g: int, periods, riemann_form) -> None:
        if g not in (1, 2):
            raise ValueError("g must be 1 or 2")
        P = _as_c_array(periods, "periods")
        H = _as_c_array(riemann_form, "riemann_form")
        if P.shape != (g, 2 * g):
            raise ValueError(f"periods must be {g}x{2 * g}")
        if H.shape != (g, g):
            raise ValueError(f"riemann_form must be {g}x{g}")
        if not np.allclose(H, H.conj().T, rtol=0, atol=DEFAULT_TOL):
            raise ValueError("riemann_form is not Hermitian")
        eigs = np.linalg.eigvalsh(H)
        if eigs.min() <= 0:
            raise ValueError("riemann_form is not positive-definite")
        # real rank of the 2g columns viewed in R^{2g}, each scaled to largest entry 1
        real_cols = np.vstack([P.real, P.imag])
        scale = np.abs(real_cols).max(axis=0)
        if not scale.all() or np.linalg.matrix_rank(real_cols / scale, tol=1e-12) < 2 * g:
            raise ValueError("periods do not have full real rank")
        pairings = P.conj().T @ H @ P
        if np.abs(pairings.imag - np.round(pairings.imag)).max() > DEFAULT_TOL:
            raise ValueError("Im H is not integral on the lattice")
        P.setflags(write=False)
        H.setflags(write=False)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "periods", P)
        object.__setattr__(self, "riemann_form", H)

    def __setattr__(self, name, value):
        raise AttributeError("PolarizedTorus is immutable")

    def gram(self) -> np.ndarray:
        """Real 2g x 2g Gram matrix of the period columns under the form."""
        G = self.periods.conj().T @ self.riemann_form @ self.periods
        return np.ascontiguousarray(G.real)


# ---------------------------------------------------------------------------
# Siegel reduction
# ---------------------------------------------------------------------------

def siegel_reduce(z: complex) -> tuple[SiegelTau, UnimodularMap]:
    """Reduce the period ratio z, with Im z > 0, into the standard fundamental domain.

    Returns (tau, m) with m mapping z to tau. Boundary ties are
    broken deterministically: Re tau = +1/2 is preferred to -1/2, and on the
    unit circle the representative with Re tau >= 0 is chosen.

    Each S step moves the point by at most 2^-51 |z|/Im z in the hyperbolic
    metric (translations are exact, later steps are isometries); raises
    ``ValueError`` once the sum of these bounds exceeds ``DEFAULT_TOL``.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError("periods must be finite")
    if not z.imag > 0:
        raise ValueError(f"Im tau = {z.imag} is not positive")
    im, drift = z.imag, 0.0
    word = UnimodularMap(1, 0, 0, 1)
    for _ in range(10_000):
        n = round(z.real)
        if n != 0:
            z = complex(z.real - n, z.imag)
            word = UnimodularMap(1, -n, 0, 1).compose(word)
        if abs(z) < 1.0 - _BOUNDARY_EPS:
            drift += abs(z) / z.imag
            if math.ldexp(drift, -51) > DEFAULT_TOL:
                raise ValueError(f"Im z = {im} is too close to the real axis to reduce in double precision")
            z = -1.0 / z
            word = UnimodularMap(0, -1, 1, 0).compose(word)
            continue
        break
    else:
        raise RuntimeError("reduction did not terminate")
    # boundary ties
    if abs(z.real + 0.5) <= _BOUNDARY_EPS:
        z = complex(z.real + 1.0, z.imag)
        word = UnimodularMap(1, 1, 0, 1).compose(word)
    if abs(abs(z) - 1.0) <= _BOUNDARY_EPS and z.real < -_BOUNDARY_EPS:
        z = -1.0 / z
        word = UnimodularMap(0, -1, 1, 0).compose(word)
    return SiegelTau(z.real, z.imag), word


def rho_inverse_squared(tau: SiegelTau) -> float:
    """Inverse-square lattice minimum of the reduced lattice Z + Z tau.

    With the norm |z|^2 / Im tau the shortest vector of a reduced lattice is
    1, so the inverse squared minimum equals Im tau.
    """
    return tau.im


# ---------------------------------------------------------------------------
# Shortest vectors and avoidance minima
# ---------------------------------------------------------------------------

def _cross(a: complex, b: complex) -> float:
    """Signed area of the parallelogram on a and b, viewed in R^2."""
    return (a.conjugate() * b).imag


def _gauss_reduce(a: complex, b: complex) -> tuple[complex, complex]:
    """Lagrange-Gauss reduction of an R-independent pair: a is a shortest vector of Z a + Z b."""
    if abs(a) > abs(b):
        a, b = b, a
    while True:
        b -= round((b / a).real) * a
        if abs(b) >= abs(a):
            return a, b
        a, b = b, a


def shortest_vector(torus: PolarizedTorus) -> tuple[tuple[int, int], float]:
    """Nonzero lattice vector of minimal norm on a g = 1 torus, and its norm.

    Scaled by sqrt(H), the periods lie in the plane with the norm |z|, and
    the first vector of their Lagrange-Gauss reduced pair is a shortest one.
    Its coefficients in the periods solve two signed-area equations.
    """
    if torus.g != 1:
        raise ValueError("shortest_vector is evaluated for g = 1 only")
    scale = math.sqrt(torus.riemann_form[0, 0].real)
    w1, w2 = (scale * complex(w) for w in torus.periods[0])
    a, _ = _gauss_reduce(w1, w2)
    det = _cross(w1, w2)
    return (round(_cross(a, w2) / det), round(_cross(w1, a) / det)), abs(a)


def avoidance_minimum(torus: PolarizedTorus, line) -> float:
    """Minimal H-distance to the line C v, v = ``line`` in C^2, among lattice points off it; g = 2.

    It is the shortest nonzero vector of the lattice projected onto the
    H-orthogonal complement of v: with u*Hv = 0 and u*Hu = 1, the period
    P e_k has coordinate c_k = u*H P e_k there, and |c_k| is its distance to
    the line. The c_k are folded into a Gauss-reduced pair (a, b): a residue
    of at most DEFAULT_TOL times the longest period lies on the line; any
    other residue has coordinates in [-1/2, 1/2] in (a, b), replaces a basis
    vector and so at least halves the covolume. When the line meets the
    lattice in rank 2 the projection is a lattice and the fold ends with |a|
    as the minimum. Otherwise the projection is dense, and the fold raises
    once the covolume falls below DEFAULT_TOL times its start, after at most
    30 replacements.
    """
    if torus.g != 2:
        raise ValueError("avoidance_minimum is evaluated for g = 2 only")
    v = np.asarray(line, dtype=complex).reshape(-1)
    if v.shape != (2,) or not v.any():
        raise ValueError("line must be spanned by a nonzero vector of C^2")
    H = torus.riemann_form
    h = H @ v
    h /= abs(h).max()  # H v underflows where H is tiny (Im tau ~ 1e298)
    w = np.array([h[1], -h[0]])  # conj(u), unnormalised
    coords = [complex(c) for c in (w @ H @ torus.periods) / math.sqrt((w @ H @ w.conj()).real)]
    zero = DEFAULT_TOL * math.sqrt(torus.gram().diagonal().max())
    a = max(coords, key=abs)
    a, b = _gauss_reduce(a, max(coords, key=lambda c: abs(_cross(a, c))))
    covol = abs(_cross(a, b))
    # shortest first, so the basis carries the rounding of short vectors
    pending = sorted(coords, key=abs, reverse=True)
    while pending:
        g = pending.pop()
        det = _cross(a, b)
        x, y = _cross(g, b) / det, _cross(a, g) / det
        r = g - round(x) * a - round(y) * b
        if abs(r) <= zero:
            continue
        if abs(x - round(x)) >= abs(y - round(y)):
            pending.append(a)
            a = r
        else:
            pending.append(b)
            b = r
        a, b = _gauss_reduce(a, b)
        if abs(_cross(a, b)) < DEFAULT_TOL * covol:
            raise ValueError("subspace does not intersect the lattice in a rank-2 subgroup")
    return abs(a)


def smith_index(m: Sequence[Sequence[int]]) -> tuple[int, bool]:
    """Index and cyclicity of the subgroup cut out by an integer 2x2 matrix.

    Returns (|det m|, first Smith invariant == 1); the quotient group is
    cyclic exactly when the gcd of the entries is 1. Exact integer arithmetic.
    """
    (a, b), (c, d) = m
    for entry in (a, b, c, d):
        if not isinstance(entry, int):
            raise TypeError("matrix entries must be integers")
    det = a * d - b * c
    if det == 0:
        raise ValueError("matrix is singular")
    return abs(det), math.gcd(math.gcd(a, b), math.gcd(c, d)) == 1
