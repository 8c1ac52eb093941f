"""Proximal linear maps: detection, quantified (epsilon) proximality with
certified witnesses, Tits-type cone certificates, and the norm-vs-spectral
radius defect.

A map is proximal when its top eigenvalue modulus is simple and strictly
dominant.  Quantified proximality asks for an angular gap of 2 eps between
the top eigendirection and the invariant complementary hyperplane, plus
certified cone-collapse and rho-contraction off an eps-neighborhood of
that hyperplane.  All bounds come from the spectral split u = c v_g + w
(w in the invariant hyperplane) and are explicit; nothing is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import asin, pi, sin

import numpy as np

from .errors import NotProximal
from .matnum import (
    Cone,
    _sine_factor_to_rho_bound,
    chi_vec,
    cone_contains_cone,
    map_cone,
    mu_vec,
    require_finite,
    restricted_operator_norm,
    rho_norm_bound,
    rho_to_hyperplane,
    unit,
)

PROXIMAL_TOL = 1e-9


@dataclass(frozen=True)
class ProximalData:
    """Top eigendirection, invariant complementary hyperplane, and gaps."""

    v: np.ndarray              # unit top eigendirection
    hyperplane_normal: np.ndarray  # unit normal of the g-invariant complement
    top_eig: float             # the dominant eigenvalue (real)
    spectral_gap: float        # |eig2| / |eig1| < 1
    angle: float               # rho(v, hyperplane)


def proximal_data(g: np.ndarray) -> ProximalData:
    """Eigendata of a proximal map.

    The hyperplane normal is the top eigenvector of g^T (left eigenvector),
    which annihilates the complementary invariant subspace.  Raises
    NotProximal when the top modulus is not simple and dominant within
    ``PROXIMAL_TOL``, relative, or the top eigenvalue is not real.
    """
    g = require_finite(g)
    d = g.shape[0]
    if d == 1:
        v = np.ones(1)
        return ProximalData(v, v, float(g[0, 0]), 0.0, pi / 2)
    vals, vecs = np.linalg.eig(g)
    order = np.argsort(-np.abs(vals))
    vals = vals[order]
    vecs = vecs[:, order]
    top, second = np.abs(vals[0]), np.abs(vals[1])
    if top - second <= PROXIMAL_TOL * top or abs(vals[0].imag) > PROXIMAL_TOL * top:
        raise NotProximal("no simple dominant real top eigenvalue")
    v = unit(vecs[:, 0].real)
    lvals, lvecs = np.linalg.eig(g.T)
    li = int(np.argmax(np.abs(lvals)))
    normal = unit(lvecs[:, li].real)
    return ProximalData(
        v=v,
        hyperplane_normal=normal,
        top_eig=float(vals[0].real),
        spectral_gap=float(second / top),
        angle=rho_to_hyperplane(v, normal),
    )


def is_proximal(g: np.ndarray) -> bool:
    try:
        proximal_data(g)
        return True
    except NotProximal:
        return False


@dataclass(frozen=True)
class EpsProximalWitness:
    """Certified quantities behind an epsilon-proximality verdict.

    For unit u with rho(u, hyperplane) >= eps the split u = c v_g + w gives
    |c| >= sin(eps)/sin(angle) and |g u| >= |top_eig| sin(eps), from which
    ``image_angle_sin`` bounds sin rho(gu, v_g) and ``contraction`` bounds
    the rho-Lipschitz constant on the domain.
    """

    eps: float
    angle: float            # rho(v_g, hyperplane), needs >= 2 eps
    image_angle_sin: float  # certified bound for sin rho(g u, v_g) on the domain
    contraction: float      # certified rho-norm bound on the domain
    verdict: bool
    reasons: tuple[str, ...]


def eps_proximal_witness(g: np.ndarray, eps: float) -> EpsProximalWitness:
    """Check the three quantified-proximality conditions with explicit bounds.

    Conditions: (1) rho(v_g, V^<) >= 2 eps; (2) g maps the complement of the
    eps-neighborhood of V^< into the eps-cone around v_g; (3) the rho-norm
    of g on that complement is at most eps.  (2) and (3) are certified via
    the spectral split, never sampled.
    """
    if not 0 < eps < pi / 4:
        raise ValueError("eps must lie in (0, pi/4)")
    g = require_finite(g)
    g = g / np.max(np.abs(g))  # all certified quantities are scale-invariant
    d = g.shape[0]
    if d == 1:
        return EpsProximalWitness(eps, pi / 2, 0.0, 0.0, True, ())
    try:
        data = proximal_data(g)
    except NotProximal:
        return EpsProximalWitness(eps, 0.0, 1.0, np.inf, False, ("not proximal",))
    reasons = []
    theta = data.angle
    if theta < 2 * eps:
        reasons.append("angle between top direction and hyperplane below 2 eps")
    s_theta = sin(theta)
    s_eps = sin(eps)
    v_norm = restricted_operator_norm(g, data.hyperplane_normal)
    lam = abs(data.top_eig)
    # |gu ^ v_g| <= |g w| and |gu| >= |c lam| sin(theta) with |c| >= s_eps/s_theta
    image_sin = (v_norm / (lam * s_theta)) * (1.0 + s_theta / s_eps)
    if not (image_sin < 1.0 and asin(image_sin) <= eps):
        reasons.append("certified image cone exceeds eps")
    alpha = np.linalg.svd(g, compute_uv=False)
    contraction = _sine_factor_to_rho_bound((alpha[0] * alpha[1]) / (lam * s_eps) ** 2)
    if contraction > eps:
        reasons.append("certified rho-norm on the domain exceeds eps")
    return EpsProximalWitness(
        eps=eps,
        angle=theta,
        image_angle_sin=float(image_sin),
        contraction=float(contraction),
        verdict=not reasons,
        reasons=tuple(reasons),
    )


def is_eps_proximal(g: np.ndarray, eps: float) -> bool:
    return eps_proximal_witness(g, eps).verdict


@dataclass(frozen=True)
class TitsCertificate:
    """Cone-contraction certificate: image cone inside, rho-norm below one."""

    cone: Cone
    contraction: float
    image_cone: Cone
    verdict: bool


def tits_certify(g: np.ndarray, center: np.ndarray, eps: float) -> TitsCertificate:
    """Certify that g maps C(center, 3 eps) into C(center, eps) with
    rho-contraction below 1.

    A true verdict implies g is proximal with its top eigendirection inside
    C(center, eps) and the invariant hyperplane disjoint from C(center, 3 eps).
    """
    if not 0 < 3 * eps < pi / 2:
        raise ValueError("need 0 < 3 eps < pi/2")
    cone = Cone(unit(center), 3 * eps)
    image = map_cone(g, cone)
    contraction = rho_norm_bound(g, cone)
    verdict = bool(
        cone_contains_cone(Cone(cone.center, eps), image) and contraction < 1.0
    )
    return TitsCertificate(cone, float(contraction), image, verdict)


def proximality_defect(g: np.ndarray) -> float:
    """log |g| - log (spectral radius), always >= 0; zero for normal maps."""
    return max(0.0, float(mu_vec(g)[0] - chi_vec(g)[0]))


def certified_defect_bound(g: np.ndarray) -> float:
    """Instance-wise certified upper bound for the proximality defect.

    From |g u| <= |c| |eig1| + |g restricted to V^<| (1 + |c|) with
    |c| <= 1/sin(angle):

        defect <= log( 1/sin(angle) + (|g|_V / |eig1|) (1 + 1/sin(angle)) ).
    """
    data = proximal_data(g)
    s = sin(data.angle)
    ratio = restricted_operator_norm(g, data.hyperplane_normal) / abs(data.top_eig)
    return float(np.log(1.0 / s + ratio * (1.0 + 1.0 / s)))
