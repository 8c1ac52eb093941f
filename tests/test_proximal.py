import numpy as np
import pytest

from coprox import matnum, proximal
from coprox.demos import rotation2, rotation3
from coprox.errors import NotProximal
from coprox.proximal import (
    certified_defect_bound,
    eps_proximal_witness,
    is_eps_proximal,
    is_proximal,
    proximal_data,
    proximality_defect,
    tits_certify,
)
from conftest import random_invertible


def test_proximal_data_diag():
    data = proximal_data(np.diag([3.0, 1.0, 1.0]))
    assert matnum.rho(data.v, np.array([1.0, 0.0, 0.0])) < 1e-10
    assert matnum.rho(data.hyperplane_normal, np.array([1.0, 0.0, 0.0])) < 1e-10
    assert data.spectral_gap == pytest.approx(1 / 3)
    assert data.angle == pytest.approx(np.pi / 2)


def test_not_proximal_cases():
    with pytest.raises(NotProximal):
        proximal_data(rotation2(0.7))
    with pytest.raises(NotProximal):
        proximal_data(np.diag([2.0, -2.0]))


def test_proximal_data_invariance_residuals():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 30:
        g = random_invertible(rng, 3)
        if not is_proximal(g):
            continue
        data = proximal_data(g)
        if data.spectral_gap > 0.8:
            continue  # thin gaps degrade eigenvector accuracy
        checked += 1
        # v is an eigendirection and the hyperplane is invariant
        assert matnum.rho(g @ data.v, data.v) < 1e-9
        basis = matnum.hyperplane_basis(data.hyperplane_normal)
        img = g @ basis
        assert np.max(np.abs(data.hyperplane_normal @ img)) < 1e-9 * np.linalg.norm(g, 2)


def test_2x2_brute_force_agreement():
    # quadratic-formula oracle: proximal iff |eig1| > |eig2| with real split
    rng = np.random.default_rng(1)
    for _ in range(1000):
        g = random_invertible(rng, 2)
        tr, det = np.trace(g), np.linalg.det(g)
        disc = tr * tr - 4 * det
        if disc > 1e-9 * max(1.0, tr * tr):
            r1 = (tr + np.sqrt(disc)) / 2
            r2 = (tr - np.sqrt(disc)) / 2
            expect = abs(abs(r1) - abs(r2)) > 1e-9 * max(abs(r1), abs(r2))
        else:
            expect = False  # complex pair or double root: equal moduli
        assert is_proximal(g) == expect


def test_eps_proximal_examples():
    assert is_eps_proximal(np.diag([100.0, 1.0]), 0.3)
    assert not is_eps_proximal(np.eye(3), 0.2)
    assert not is_eps_proximal(rotation2(0.5), 0.2)


def test_eps_proximal_threshold_scan():
    lam, eps = 1.0, 0.2
    passed_at = None
    while lam < 2**40:
        if is_eps_proximal(np.diag([lam, 1.0, 1.0]), eps):
            passed_at = lam
            break
        lam *= 2
    assert passed_at is not None
    # once it passes, larger gaps keep passing
    assert is_eps_proximal(np.diag([passed_at * 4, 1.0, 1.0]), eps)


def test_eps_proximal_witness_certified_against_sampling():
    # certified image-angle and contraction bounds dominate sampled behavior
    rng = np.random.default_rng(2)
    g = np.diag([600.0, 2.0, 1.0]) @ rotation3((0, 1), 0.2)
    eps = 0.25
    wit = eps_proximal_witness(g, eps)
    assert wit.verdict
    data = proximal_data(g)
    for _ in range(2000):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        if matnum.rho_to_hyperplane(u, data.hyperplane_normal) >= eps:
            angle = matnum.rho(g @ u, data.v)
            assert np.sin(angle) <= wit.image_angle_sin + 1e-9
            assert angle <= eps + 1e-9


def test_failing_witness_reports_the_certified_rho_bound():
    # diag(12.5, 1) at eps = 0.2 has sine factor k = 0.08 / sin(0.2)^2, about 2:
    # above 1 the certified rho-bound is (pi/2) / arcsin(1/k), below (pi/2) k
    eps = 0.2
    k = (1.0 / 12.5) / np.sin(eps) ** 2
    wit = eps_proximal_witness(np.diag([12.5, 1.0]), eps)
    assert k > 1 and not wit.verdict
    assert "certified rho-norm on the domain exceeds eps" in wit.reasons
    assert wit.contraction == pytest.approx((np.pi / 2) / np.arcsin(1 / k), rel=1e-12)
    assert wit.contraction < (np.pi / 2) * k


def test_proximality_defect_examples():
    assert proximality_defect(np.diag([3.0, 1.0])) == pytest.approx(0.0, abs=1e-10)
    assert proximality_defect(rotation2(0.9)) == pytest.approx(0.0, abs=1e-10)
    phi = (1 + np.sqrt(5)) / 2
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert proximality_defect(shear) == pytest.approx(np.log(phi), abs=1e-10)


def rank_one_dominated(rng, d, strength, noise=0.02):
    """Matrices close to a multiple of a rank-one projection: the natural
    habitat of strongly proximal maps."""
    u = rng.normal(size=d)
    v = rng.normal(size=d)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    if abs(u @ v) < 0.5:
        v = v + u if u @ v >= 0 else v - u
        v /= np.linalg.norm(v)
    g = strength * np.outer(u, v) + noise * rng.normal(size=(d, d))
    return g if abs(np.linalg.det(g)) > 1e-9 else None


def test_defect_bounded_by_certificate():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(500):
        g = rank_one_dominated(rng, 3, 200.0)
        if g is None or not is_eps_proximal(g, 0.1):
            continue
        checked += 1
        assert proximality_defect(g) <= certified_defect_bound(g) + 1e-9
    assert checked > 50


def test_tits_certify_examples():
    cert = tits_certify(np.diag([4.0, 1.0]), np.array([1.0, 0.0]), 0.1)
    assert cert.verdict and cert.contraction < 1.0
    assert not tits_certify(rotation2(np.pi / 2), np.array([1.0, 0.0]), 0.1).verdict
    assert not tits_certify(np.eye(2), np.array([1.0, 0.0]), 0.1).verdict


def test_tits_implies_proximal_cross_validated():
    rng = np.random.default_rng(4)
    confirmed = 0
    for _ in range(200):
        g = rank_one_dominated(rng, 3, 150.0)
        if g is None:
            continue
        # aim the cone near the expanding image direction, slightly off
        center = matnum.unit(g @ matnum.unit(rng.normal(size=3)))
        center = matnum.unit(center + 0.05 * rng.normal(size=3))
        cert = tits_certify(g, center, 0.12)
        if not cert.verdict:
            continue
        confirmed += 1
        data = proximal_data(g)  # raises if not proximal: zero false positives
        assert matnum.rho(data.v, center) <= 0.12 + 1e-9
        assert matnum.rho_to_hyperplane(center, data.hyperplane_normal) > 3 * 0.12 - 1e-9
    assert confirmed > 20
