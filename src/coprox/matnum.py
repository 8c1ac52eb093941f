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
from math import asin, atan2, cos, pi, sin

import numpy as np

from .errors import DegenerateTopSingularValue, SingularMatrix

DET_TOL = 1e-12
AMS_TOL = 1e-9
"""Least relative gap between the top two singular values that
:func:`ams_hyperplane` accepts."""


def require_invertible(g: np.ndarray) -> np.ndarray:
    """Reject matrices whose least singular value is at most ``DET_TOL``
    times the largest: unlike |det g| / |g|^d = prod sigma_i / sigma_1^d,
    that ratio does not fall with d, so well-conditioned exterior powers pass.

    Appropriate for externally supplied matrices of moderate condition; use
    :func:`require_finite` for long orbit products, whose condition
    legitimately exceeds any fixed relative threshold.
    """
    g = require_finite(g)
    sigma = np.linalg.svd(g, compute_uv=False)
    if sigma[-1] <= DET_TOL * sigma[0]:
        raise SingularMatrix("least singular value below tolerance")
    return g


def require_finite(g: np.ndarray) -> np.ndarray:
    """Finite nonzero square matrix; rank is left to the spectral tests
    (long ill-conditioned products legitimately underflow their
    determinants without affecting the top-of-spectrum data)."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(g)) or not np.any(g):
        raise SingularMatrix("non-finite or zero matrix")
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
    log top(Lambda^t g), rung d is log |det g|, so g must be nonsingular."""
    g = require_finite(g)
    sign, logdet = np.linalg.slogdet(g)
    if sign == 0:
        raise SingularMatrix("zero determinant")
    rungs = [float(np.log(top(exterior_power(g, t)))) for t in range(1, g.shape[0])]
    return np.diff(rungs + [float(logdet)], prepend=0.0)


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


def _cos_sin(u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """cos and sin of rho(u, v).  The sine is taken from the orthogonal
    rejection rather than sqrt(1 - cos^2), which keeps full precision for
    nearly parallel directions."""
    u = unit(u)
    v = unit(v)
    dot = float(u @ v)
    if dot < 0:
        v = -v
        dot = -dot
    return dot, float(np.linalg.norm(u - dot * v))


def rho(u: np.ndarray, v: np.ndarray) -> float:
    """Angular metric on projective space, in [0, pi/2]."""
    c, s = _cos_sin(u, v)
    return atan2(s, c)


def rho_to_hyperplane(u: np.ndarray, normal: np.ndarray) -> float:
    """Angle from a direction to the hyperplane with the given normal,
    pi/2 - rho(u, normal)."""
    c, s = _cos_sin(u, normal)
    return atan2(c, s)


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


@dataclass(frozen=True)
class Cone:
    """Angular cone C(center, radius) = {u : rho(u, center) <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", unit(self.center))
        if not 0.0 <= self.radius <= pi / 2:
            raise ValueError("radius must lie in [0, pi/2]")


def cone_contains_cone(outer: Cone, inner: Cone) -> bool:
    return rho(outer.center, inner.center) + inner.radius <= outer.radius


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


def restricted_operator_norm(g: np.ndarray, normal: np.ndarray) -> float:
    """Operator norm of g restricted to the hyperplane normal^perp."""
    return float(np.linalg.norm(g @ hyperplane_basis(normal), 2))


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
        c = unit(cone.center)
        low = max(alpha[-1], cos(cone.radius) * float(np.linalg.norm(g @ c))
                  - sin(cone.radius) * restricted_operator_norm(g, c))
    return _sine_factor_to_rho_bound(top2 / low**2)


def map_cone(g: np.ndarray, cone: Cone) -> Cone:
    """A cone certified to contain g(cone): image center, dilated radius."""
    g = require_invertible(g)
    if cone.radius >= pi / 2:
        raise ValueError("cone must have radius < pi/2")
    center = unit(g @ cone.center)
    radius = min(pi / 2, cone.radius * rho_norm_bound(g, cone))
    return Cone(center, radius)


def ams_hyperplane(g: np.ndarray):
    """Unit normal of the contraction hyperplane from the SVD.

    The hyperplane is spanned by all right-singular vectors except the top
    one; its normal is the top right-singular vector.  Raises when the top
    two singular values are relatively degenerate, in which case no
    canonical choice exists.  Accepts arbitrarily ill-conditioned inputs
    (rescaled long orbit products, whose lower singular values may
    underflow): only the top of the spectrum is consumed, so only a
    non-finite or zero input is rejected.
    """
    g = require_finite(g)
    _, alpha, Vt = np.linalg.svd(g)
    if len(alpha) < 2:
        raise ValueError("no hyperplane in dimension 1")
    if alpha[0] - alpha[1] <= AMS_TOL * alpha[0]:
        raise DegenerateTopSingularValue(
            f"alpha1 = {alpha[0]:.6g} and alpha2 = {alpha[1]:.6g} too close"
        )
    return unit(Vt[0])


def fit_line(xs, values) -> tuple[float, float, float, float]:
    """Least-squares line through (xs, values): slope, intercept, R^2 and
    the slope's standard error; a flat line at the mean when the xs do not
    spread."""
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(xs) < 2 or np.ptp(xs) == 0:
        return 0.0, float(values.mean()), 1.0, 0.0
    slope, intercept = np.polyfit(xs, values, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((values - fitted) ** 2))
    ss_tot = float(np.sum((values - values.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    dof = max(1, len(xs) - 2)
    se = float(np.sqrt(ss_res / dof / np.sum((xs - xs.mean()) ** 2)))
    return float(slope), float(intercept), r2, se
