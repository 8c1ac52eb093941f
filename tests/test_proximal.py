from math import asin, atan2, sin

import numpy as np
import pytest

from coprox import analysis, demos, matnum, proximal, synthesis, typicality
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
from test_synthesis_bytes import PINNED_ON, _platform


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


def _ref_proximal_data(g):
    """proximal_data with the eigendata of g and of g^T from two eig calls,
    the angle read from the two unit vectors as they are."""
    vals, vecs = np.linalg.eig(g)
    order = np.argsort(-np.abs(vals))
    vals = vals[order]
    vecs = vecs[:, order]
    top, second = np.abs(vals[0]), np.abs(vals[1])
    if top - second <= proximal.PROXIMAL_TOL * top or \
            abs(vals[0].imag) > proximal.PROXIMAL_TOL * top:
        raise NotProximal("no simple dominant real top eigenvalue")
    v = matnum.unit(vecs[:, 0].real)
    lvals, lvecs = np.linalg.eig(g.T)
    li = int(np.argmax(np.abs(lvals)))
    normal = matnum.unit(lvecs[:, li].real)
    return (v.tobytes(), normal.tobytes(), float(vals[0].real), float(second / top),
            atan2(*matnum.unit_cos_sin(v, normal)))


def _matrices(rng, d):
    """Random matrices: plain, with a complex pair below a real top, with
    a complex pair on top, and with a tied top."""
    q = random_invertible(rng, d)
    qi = np.linalg.inv(q)
    out = [rng.normal(size=(d, d)), q @ np.diag(np.arange(d, 0, -1.0)) @ qi]
    if d >= 3:
        pair = np.eye(d) * 0.5
        pair[:2, :2] = rotation2(0.9) * 0.5
        pair[-1, -1] = 3.0
        out.append(q @ pair @ qi)
        out.append(q @ (pair * np.array([1.0] * (d - 1) + [0.01])[None, :]) @ qi)
    out.append(q @ np.diag([2.0, -2.0] + [1.0] * (d - 2)) @ qi)
    return out


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_proximal_data_matches_two_eig_calls(d):
    rng = np.random.default_rng(d)
    seen = set()
    for _ in range(40):
        for g in _matrices(rng, d):
            pair = bool(np.iscomplexobj(np.linalg.eig(g)[0]))
            try:
                want = _ref_proximal_data(g)
            except NotProximal:
                with pytest.raises(NotProximal):
                    proximal_data(g)
                seen.add((pair, False))
                continue
            data = proximal_data(g)
            assert (data.v.tobytes(), data.hyperplane_normal.tobytes(), data.top_eig,
                    data.spectral_gap, data.angle) == want
            # rho_to_hyperplane normalizes the unit vectors again, which
            # moves the angle by a few rounding errors of its cosine
            assert abs(data.angle - matnum.rho_to_hyperplane(data.v, data.hyperplane_normal)) \
                <= 4 * np.finfo(float).eps
            seen.add((pair, True))
    # complex eigendata, proximal (a pair below a real top) or not
    assert seen >= ({(True, True), (True, False)} if d >= 3 else {(True, False)})


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


def _ref_witness(g, eps):
    """eps_proximal_witness as it was with each check and normalization
    run twice: require_finite before and inside proximal_data, and the
    angle through rho_to_hyperplane, which normalizes proximal_data's unit
    vectors again."""
    g = matnum.require_finite(g)
    g = g / np.max(np.abs(g))
    data = proximal_data(g)
    angle = matnum.rho_to_hyperplane(data.v, data.hyperplane_normal)
    s_theta, s_eps = sin(angle), sin(eps)
    v_norm = matnum.restricted_operator_norm(g, data.hyperplane_normal)
    lam = abs(data.top_eig)
    image_sin = (v_norm / (lam * s_theta)) * (1.0 + s_theta / s_eps)
    alpha = np.linalg.svd(g, compute_uv=False)
    contraction = matnum._sine_factor_to_rho_bound((alpha[0] * alpha[1]) / (lam * s_eps) ** 2)
    reasons = tuple(r for r, bad in (
        ("angle between top direction and hyperplane below 2 eps", angle < 2 * eps),
        ("certified image cone exceeds eps", not (image_sin < 1.0 and asin(image_sin) <= eps)),
        ("certified rho-norm on the domain exceeds eps", contraction > eps)) if bad)
    return angle, float(image_sin), float(contraction), reasons


def _closing_products(monkeypatch, dim6):
    """The closing products every witness of a synthesis reads, over the
    benchmark demos and the d = 6 fixture (16 and 200 symbols each)."""
    seen = []
    real = synthesis.eps_proximal_witness
    monkeypatch.setattr(synthesis, "eps_proximal_witness",
                        lambda g, eps: (seen.append(g.copy()), real(g, eps))[1])
    for A in [getattr(demos, name)() for name in (
            "typical_2x2", "typical_3x3", "radius1_2x2", "dominated_2x2")] + [dim6]:
        cert = typicality.find_typical_pair(A)[2]
        for length in (16, 200):
            synthesis.build_proximal_periodic(A, cert, analysis.markov_sample(A, length, 3), 0.05)
    return seen


def test_witness_runs_each_check_once_with_the_reference_bytes(monkeypatch, dim6):
    # one require_finite per witness, and the angle read from proximal_data's
    # unit vectors as they are; against the reference that ran both twice,
    # verdict, reasons and contraction keep their bytes and the angle moves
    # by a few rounding errors; on these closing products of synthesis it
    # keeps its bytes too, where the synthesis bytes are pinned (no report
    # holds the angle, and it moved by one unit in the last place in 1 of
    # 4,400 witnesses of the benchmark's synthesis inputs)
    checks = []
    real = proximal.require_finite
    monkeypatch.setattr(proximal, "require_finite", lambda g: (checks.append(1), real(g))[1])
    rng = np.random.default_rng(7)
    random = [g * scale for d in (2, 3, 4, 6) for _ in range(30)
              for g in _matrices(rng, d) for scale in (1.0, 1e200, 1e-200)]
    closing = _closing_products(monkeypatch, dim6)
    for mats, exact in ((random, False), (closing, _platform() == PINNED_ON)):
        compared = 0
        for g in mats:
            checks.clear()
            wit = eps_proximal_witness(g, 0.05)
            assert len(checks) == 1
            if not wit.verdict and wit.reasons == ("not proximal",):
                continue
            angle, image_sin, contraction, reasons = _ref_witness(g, 0.05)
            assert (wit.contraction, wit.reasons, wit.verdict) == (
                contraction, reasons, not reasons)
            assert abs(wit.angle - angle) <= 4 * np.finfo(float).eps
            assert abs(wit.image_angle_sin - image_sin) <= 1e-12 * image_sin
            if exact:
                assert (wit.angle, wit.image_angle_sin) == (angle, image_sin)
            compared += 1
        # every closing product is certified, so proximal
        assert compared == len(mats) if mats is closing else compared > 100


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
