"""Small dense linear algebra and certified projective cone arithmetic.

Matrices are plain float64 numpy arrays (d <= 6 is the regime).  The
projective space carries the angular metric

    rho(u, v) = min(angle(u, v), angle(u, -v))  in  [0, pi/2],

and cones are (center direction, angular radius) pairs.  The two cone
operations below return *certified* enclosures: ``map_cone`` returns a
cone guaranteed to contain the image, and ``rho_norm_bound`` returns a
guaranteed upper bound on the projective Lipschitz constant, never a
sampled estimate.

The certified bounds rest on elementary facts for unit u, v:

    sin rho(gu, gv) = |gu ^ gv| / (|gu| |gv|) <= a1(g) a2(g) sin rho(u, v)
                                                / (|gu| |gv|),
    arcsin(t sin r) <= t r                        for t <= 1,
    arcsin(min(1, t sin r)) <= (pi/2) r/arcsin(1/t)  for t > 1 (convexity),

so a sine-contraction factor K certifies a rho-Lipschitz bound that is K
for K <= 1 and (pi/2)/arcsin(1/K) <= (pi/2) K otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import asin, atan2, cos, pi, sin, sqrt

import numpy as np

from .errors import DegenerateTopSingularValue, SingularMatrix

DET_TOL = 1e-12


def require_invertible(g: np.ndarray) -> np.ndarray:
    """Reject matrices whose determinant is negligible against norm^d.

    Appropriate for externally supplied matrices of moderate condition; use
    :func:`require_nonsingular` for long orbit products, whose condition
    legitimately exceeds any fixed relative threshold.
    """
    g = np.asarray(g, dtype=float)
    d = g.shape[0]
    if g.shape != (d, d):
        raise ValueError("matrix must be square")
    scale = np.linalg.norm(g, 2)
    if scale == 0 or abs(np.linalg.det(g)) <= DET_TOL * scale**d:
        raise SingularMatrix("determinant below tolerance")
    return g


def require_nonsingular(g: np.ndarray) -> np.ndarray:
    """Reject only genuinely singular or non-finite matrices."""
    g = np.asarray(g, dtype=float)
    d = g.shape[0]
    if g.shape != (d, d):
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(g)):
        raise SingularMatrix("non-finite entries")
    sign, logdet = np.linalg.slogdet(g)
    if sign == 0 or not np.isfinite(logdet):
        raise SingularMatrix("zero determinant")
    return g


def _subsets(d: int, t: int) -> list[tuple[int, ...]]:
    return list(combinations(range(d), t))


def exterior_power(g: np.ndarray, t: int) -> np.ndarray:
    """Matrix of the induced map on t-vectors, lexicographic basis {e_I}.

    Entry (I, J) is the t x t minor det g[I, J]; multiplicative in g by
    Cauchy-Binet.  t = 1 returns g itself, t = d the 1x1 matrix [det g].
    """
    g = np.asarray(g, dtype=float)
    d = g.shape[0]
    if not 1 <= t <= d:
        raise ValueError(f"need 1 <= t <= {d}")
    if t == 1:
        return g.copy()
    idx = _subsets(d, t)
    out = np.empty((len(idx), len(idx)))
    for i, I in enumerate(idx):
        rows = g[np.array(I)]
        for j, J in enumerate(idx):
            out[i, j] = np.linalg.det(rows[:, np.array(J)])
    return out


def _ladder(g: np.ndarray, top) -> np.ndarray:
    """Rung differences of the exterior-power ladder: rung t < d is
    log top(Lambda^t g), rung d is log |det g|."""
    g = require_nonsingular(g)
    d = g.shape[0]
    logs = np.empty(d)
    prev = 0.0
    for t in range(1, d + 1):
        if t == d:
            cur = float(np.linalg.slogdet(g)[1])
        else:
            cur = float(np.log(top(exterior_power(g, t))))
        logs[t - 1] = cur - prev
        prev = cur
    return logs


def mu_vec(g: np.ndarray) -> np.ndarray:
    """Log singular values, nonincreasing.

    Computed through the ladder mu_i = log|Lambda^i g| - log|Lambda^(i-1) g|
    (norms of exterior powers, determinant for the last rung), which keeps
    the small values accurate well past the point where a direct SVD loses
    them to roundoff.  For products along long orbits prefer the per-factor
    ladder in the cocycle module.
    """
    return _ladder(g, lambda m: np.linalg.norm(m, 2))


def chi_vec(g: np.ndarray) -> np.ndarray:
    """Log eigenvalue moduli, nonincreasing (complex pairs repeat a modulus).

    Same exterior-power ladder as :func:`mu_vec`, using the spectral radius
    of each power (the top modulus of Lambda^t g is the product of the top
    t moduli of g).
    """
    return _ladder(g, lambda m: np.max(np.abs(np.linalg.eigvals(m))))


def unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("zero vector has no direction")
    return v / n


def rho(u: np.ndarray, v: np.ndarray) -> float:
    """Angular metric on projective space, in [0, pi/2].

    The sine is taken from the orthogonal rejection rather than
    sqrt(1 - cos^2), which keeps full precision for nearly parallel
    directions.
    """
    u = unit(u)
    v = unit(v)
    dot = float(u @ v)
    if dot < 0:
        v = -v
        dot = -dot
    s = float(np.linalg.norm(u - dot * v))
    return atan2(s, dot)


def rho_to_hyperplane(u: np.ndarray, normal: np.ndarray) -> float:
    """Angle from a direction to the hyperplane with the given normal,
    pi/2 - rho(u, normal)."""
    u = unit(u)
    n = unit(normal)
    dot = float(u @ n)
    if dot < 0:
        n = -n
        dot = -dot
    s = float(np.linalg.norm(u - dot * n))
    return atan2(dot, s)


def hyperplane_basis(normal: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the hyperplane normal^perp."""
    n = unit(normal)
    d = n.shape[0]
    if d == 1:
        return np.empty((1, 0))
    # householder reflection exchanging +-e1 and n; sign avoids cancellation
    e = np.zeros(d)
    e[0] = 1.0
    w = n + e if n[0] >= 0 else n - e
    w = w / np.linalg.norm(w)
    Q = np.eye(d) - 2.0 * np.outer(w, w)
    return Q[:, 1:]


def wedge_coords(columns: np.ndarray) -> np.ndarray:
    """Coordinates of col_1 ^ ... ^ col_t in the lexicographic basis."""
    d, t = columns.shape
    idx = _subsets(d, t)
    out = np.empty(len(idx))
    for i, I in enumerate(idx):
        out[i] = np.linalg.det(columns[np.array(I), :])
    return out


def hyperplane_wedge(normal: np.ndarray) -> np.ndarray:
    """Wedge-coordinate direction of the hyperplane normal^perp."""
    return unit(wedge_coords(hyperplane_basis(normal)))


@dataclass(frozen=True)
class Cone:
    """Angular cone C(center, radius) = {u : rho(u, center) <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", unit(self.center))
        if not 0.0 <= self.radius <= pi / 2:
            raise ValueError("radius must lie in [0, pi/2]")

    def contains_direction(self, v: np.ndarray, slack: float = 0.0) -> bool:
        return rho(v, self.center) <= self.radius + slack


def cone_contains_cone(outer: Cone, inner: Cone) -> bool:
    return rho(outer.center, inner.center) + inner.radius <= outer.radius


def rho_to_cone(u: np.ndarray, cone: Cone) -> float:
    """Distance from a direction to a cone: center distance less radius."""
    return max(0.0, rho(u, cone.center) - cone.radius)


def _sine_factor_to_rho_bound(k: float) -> float:
    """Turn a sine-contraction factor into a certified rho-Lipschitz bound.

    For k <= 1, arcsin(k sin r) <= k r.  For k > 1, arcsin(k sin r) is
    convex in r up to arcsin(1/k) and capped at pi/2 afterwards, which
    gives arcsin(min(1, k sin r)) <= (pi/2) r / arcsin(1/k).  The k > 1
    branch is continuous at k = 1 and never exceeds (pi/2) k.
    """
    if k <= 1.0:
        return k
    return (pi / 2.0) / asin(1.0 / k)


def _restricted_norms(g: np.ndarray, center: np.ndarray):
    """(|g c|, operator norm of g restricted to c^perp)."""
    c = unit(center)
    gc = g @ c
    if g.shape[0] == 1:
        return float(np.linalg.norm(gc)), 0.0
    S = np.linalg.norm(g @ hyperplane_basis(c), 2)
    return float(np.linalg.norm(gc)), float(S)


def rho_norm_bound(g: np.ndarray, cone: Cone | None = None) -> float:
    """Certified upper bound for sup rho(gu, gv) / rho(u, v) over the domain.

    Whole space (cone None): the sine factor is a1 a2 / ad^2.  On a cone
    C(c, delta) with delta < pi/2 the conorm ad is replaced by the certified
    lower bound  |gu| >= max(ad, cos(delta) |gc| - sin(delta) S)  where S is
    the norm of g restricted to c^perp.
    """
    g = require_invertible(g)
    alpha = np.linalg.svd(g, compute_uv=False)
    top2 = alpha[0] * alpha[1] if len(alpha) > 1 else 0.0
    if len(alpha) == 1:
        return 1.0  # projective point space for d = 1 is a single point
    if cone is None:
        low = alpha[-1]
    else:
        if cone.radius >= pi / 2:
            raise ValueError("cone must have radius < pi/2")
        gc_norm, S = _restricted_norms(g, cone.center)
        low = max(alpha[-1], cos(cone.radius) * gc_norm - sin(cone.radius) * S)
    return _sine_factor_to_rho_bound(top2 / low**2)


def map_cone(g: np.ndarray, cone: Cone) -> Cone:
    """A cone certified to contain g(cone): image center, dilated radius."""
    g = require_invertible(g)
    if cone.radius >= pi / 2:
        raise ValueError("cone must have radius < pi/2")
    center = unit(g @ cone.center)
    radius = min(pi / 2, cone.radius * rho_norm_bound(g, cone))
    return Cone(center, radius)


def ams_hyperplane(g: np.ndarray, tol: float = 1e-9):
    """Unit normal of the contraction hyperplane from the SVD.

    The hyperplane is spanned by all right-singular vectors except the top
    one; its normal is the top right-singular vector.  Raises when the top
    two singular values are relatively degenerate, in which case no
    canonical choice exists.  Accepts arbitrarily ill-conditioned inputs
    (long orbit products): only the top of the spectrum is consumed.
    """
    g = require_nonsingular(g)
    _, alpha, Vt = np.linalg.svd(g)
    if len(alpha) < 2:
        raise ValueError("no hyperplane in dimension 1")
    if alpha[0] - alpha[1] <= tol * alpha[0]:
        raise DegenerateTopSingularValue(
            f"alpha1 = {alpha[0]:.6g} and alpha2 = {alpha[1]:.6g} too close"
        )
    return unit(Vt[0])


def ams_restricted_bound(g: np.ndarray, eps: float) -> float:
    """Certified rho-norm bound of g on {u : rho(u, U_g) >= eps}.

    On that set the component along the top right-singular direction gives
    |gu| >= a1 sin(eps), so the sine factor is (a2/a1) / sin(eps)^2.
    """
    if not 0 < eps <= pi / 2:
        raise ValueError("eps must lie in (0, pi/2]")
    g = require_invertible(g)
    alpha = np.linalg.svd(g, compute_uv=False)
    if len(alpha) == 1:
        return 1.0
    k = (alpha[1] / alpha[0]) / sin(eps) ** 2
    return _sine_factor_to_rho_bound(k)
