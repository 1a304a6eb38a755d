"""Complex lattices in dimension one and two.

Reduction of elliptic period lattices to the standard fundamental domain,
shortest vectors of one-dimensional tori, minima avoiding a complex subspace,
and exact index computations for integer matrices. Both minima are
Lagrange-Gauss reductions in the plane: the shortest vector of the periods
scaled by the form, and the minimum avoiding a line the shortest vector of
the lattice projected onto the line's orthogonal complement.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class EllipticLattice:
    """Rank-2 lattice Z omega1 + Z omega2 with oriented basis.

    EXAMPLES: the square lattice is ``EllipticLattice(1, 1j)``.
    """

    omega1: complex
    omega2: complex

    def __post_init__(self) -> None:
        if not (cmath.isfinite(self.omega1) and cmath.isfinite(self.omega2)):
            raise ValueError("periods must be finite")
        if self.omega1 == 0:
            raise ValueError("omega1 must be nonzero")
        ratio = self.omega2 / self.omega1
        if ratio.imag == 0:
            raise ValueError("degenerate lattice: basis is real-collinear")
        if ratio.imag < 0:
            raise ValueError("basis not oriented: Im(omega2/omega1) < 0")

    @property
    def tau(self) -> complex:
        return self.omega2 / self.omega1


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
        # real rank of the 2g columns viewed in R^{2g}
        real_cols = np.vstack([P.real, P.imag])
        if np.linalg.matrix_rank(real_cols, tol=1e-12 * max(1.0, abs(P).max())) < 2 * g:
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


@dataclass(frozen=True)
class Subspace:
    """Complex subspace of dimension 0 or 1 inside C^g, spanned by ``basis``."""

    ambient_g: int
    basis: tuple

    def __init__(self, ambient_g: int, basis: Iterable = ()) -> None:
        if ambient_g not in (1, 2):
            raise ValueError("ambient_g must be 1 or 2")
        vecs = []
        for b in basis:
            v = np.asarray(b, dtype=complex).reshape(-1)
            if v.shape != (ambient_g,):
                raise ValueError("basis vector has wrong dimension")
            if not np.any(v):
                raise ValueError("basis vector must be nonzero")
            v.setflags(write=False)
            vecs.append(v)
        if len(vecs) > 1:
            raise ValueError("subspace dimension must be 0 or 1")
        object.__setattr__(self, "ambient_g", ambient_g)
        object.__setattr__(self, "basis", tuple(vecs))

    @property
    def dim(self) -> int:
        return len(self.basis)


# ---------------------------------------------------------------------------
# Siegel reduction
# ---------------------------------------------------------------------------

def siegel_reduce(lat: EllipticLattice) -> tuple[SiegelTau, UnimodularMap]:
    """Reduce omega2/omega1 into the standard fundamental domain.

    Returns (tau, m) with m mapping omega2/omega1 to tau. Boundary ties are
    broken deterministically: Re tau = +1/2 is preferred to -1/2, and on the
    unit circle the representative with Re tau >= 0 is chosen.
    """
    z = lat.tau
    word = UnimodularMap(1, 0, 0, 1)
    for _ in range(10_000):
        n = round(z.real)
        if n != 0:
            z = complex(z.real - n, z.imag)
            word = UnimodularMap(1, -n, 0, 1).compose(word)
        if abs(z) < 1.0 - _BOUNDARY_EPS:
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


def avoidance_minimum(torus: PolarizedTorus, sub: Subspace) -> float:
    """Minimal H-distance to the subspace among lattice points off the subspace.

    For the zero subspace, on a g = 1 torus only, this is the shortest-vector
    norm. For a line C v in a two-dimensional torus it is the shortest
    nonzero vector of the lattice projected onto the H-orthogonal complement
    of v: with u*Hv = 0 and u*Hu = 1, the period P e_k has coordinate
    c_k = u*H P e_k there, and |c_k| is its distance to the line. The c_k are
    folded into a Gauss-reduced pair (a, b): a residue of at most DEFAULT_TOL
    times the longest period lies on the line; any other residue has
    coordinates in [-1/2, 1/2] in (a, b), replaces a basis vector and so at
    least halves the covolume. When the line meets the lattice in rank 2 the
    projection is a lattice and the fold ends with |a| as the minimum.
    Otherwise the projection is dense, and the fold raises once the covolume
    falls below DEFAULT_TOL times its start, after at most 30 replacements.
    """
    if sub.ambient_g != torus.g:
        raise ValueError("subspace ambient dimension does not match torus")
    if sub.dim == 0:
        return shortest_vector(torus)[1]
    if sub.dim >= torus.g:
        raise ValueError("subspace must be proper")
    H = torus.riemann_form
    h = H @ sub.basis[0]
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
