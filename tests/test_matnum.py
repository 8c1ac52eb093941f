import math
from itertools import combinations
from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coprox import matnum
from coprox.demos import rotation2, rotation3
from coprox.errors import DegenerateTopSingularValue, SingularMatrix
from conftest import random_invertible


def sample_directions(rng, d, count):
    v = rng.normal(size=(count, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# mu / chi ------------------------------------------------------------------

def test_mu_identity_and_diag():
    assert np.allclose(matnum.mu_vec(np.eye(3)), 0.0)
    assert np.allclose(matnum.mu_vec(np.diag([3.0, 2.0])), np.log([3.0, 2.0]))


def test_mu_shear_golden_ratio():
    # independent oracle: eigenvalues of g g^T via the quadratic formula
    g = np.array([[1.0, 1.0], [0.0, 1.0]])
    ggt = g @ g.T
    tr, det = np.trace(ggt), np.linalg.det(ggt)
    lam = (tr + sqrt(tr**2 - 4 * det)) / 2
    expected_top = 0.5 * np.log(lam)
    phi = (1 + sqrt(5)) / 2
    assert expected_top == pytest.approx(np.log(phi), abs=1e-12)
    assert np.allclose(matnum.mu_vec(g), [np.log(phi), -np.log(phi)], atol=1e-12)


def test_chi_examples():
    assert np.allclose(matnum.chi_vec(rotation2(0.7)), 0.0, atol=1e-12)
    assert np.allclose(matnum.chi_vec(np.diag([3.0, -2.0])), np.log([3.0, 2.0]))
    assert np.allclose(matnum.chi_vec(np.array([[1.0, 1.0], [0.0, 1.0]])), 0.0,
                       atol=1e-12)


def test_singular_matrix_rejected():
    with pytest.raises(SingularMatrix):
        matnum.mu_vec(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_mu_equals_chi_for_normal():
    rng = np.random.default_rng(3)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        g = q @ np.diag(rng.uniform(0.5, 3.0, size=3)) @ q.T
        assert np.allclose(matnum.mu_vec(g), matnum.chi_vec(g), atol=1e-10)


# exterior powers -------------------------------------------------------------

def test_exterior_power_basics():
    g = random_invertible(np.random.default_rng(0), 3)
    assert np.array_equal(matnum.exterior_power(g, 1), g)
    assert np.allclose(matnum.exterior_power(g, 3), [[np.linalg.det(g)]])
    assert np.allclose(
        matnum.exterior_power(np.diag([3.0, 2.0, 1.0]), 2), np.diag([6.0, 3.0, 2.0]))


def test_exterior_power_multiplicative():
    rng = np.random.default_rng(1)
    for d in (2, 3, 4):
        for t in range(1, d + 1):
            g, h = random_invertible(rng, d), random_invertible(rng, d)
            lhs = matnum.exterior_power(g @ h, t)
            rhs = matnum.exterior_power(g, t) @ matnum.exterior_power(h, t)
            assert np.allclose(lhs, rhs, atol=1e-8 * np.linalg.norm(lhs))


def test_exterior_top_singular_value_products():
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        g = random_invertible(rng, d)
        alpha = np.linalg.svd(g, compute_uv=False)
        for t in range(1, d + 1):
            top = np.linalg.norm(matnum.exterior_power(g, t), 2)
            assert top == pytest.approx(np.prod(alpha[:t]), rel=1e-9)


def test_exterior_top_eigenvalue_sums():
    rng = np.random.default_rng(4)
    count = 0
    while count < 10:
        g = random_invertible(rng, 3)
        chi = matnum.chi_vec(g)
        if np.min(np.diff(-chi)) < 0.1:
            continue  # want clearly distinct moduli
        count += 1
        for t in (1, 2, 3):
            top = matnum.chi_vec(matnum.exterior_power(g, t))[0]
            assert top == pytest.approx(np.sum(chi[:t]), rel=1e-9, abs=1e-9)


# the angular metric ----------------------------------------------------------

def test_rho_values():
    e1, e2 = np.eye(2)
    assert matnum.rho(e1, e1) == 0.0
    assert matnum.rho(e1, e2) == pytest.approx(pi / 2)
    assert matnum.rho(e1, e1 + e2) == pytest.approx(pi / 4)
    assert matnum.rho(e1, -e1) == 0.0  # antipodal identification


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_rho_is_a_metric(seed):
    rng = np.random.default_rng(seed)
    u, v, w = sample_directions(rng, 3, 3)
    duv = matnum.rho(u, v)
    assert duv == pytest.approx(matnum.rho(v, u))
    assert matnum.rho(u, w) <= duv + matnum.rho(v, w) + 1e-12
    assert matnum.rho(u, u) < 1e-12


def test_rho_to_hyperplane():
    e = np.eye(3)
    assert matnum.rho_to_hyperplane(e[0], e[0]) == pytest.approx(pi / 2)
    assert matnum.rho_to_hyperplane(e[1], e[0]) == pytest.approx(0.0, abs=1e-12)


def test_hyperplane_basis_orthonormal():
    rng = np.random.default_rng(5)
    for d in (2, 3, 5):
        n = matnum.unit(rng.normal(size=d))
        b = matnum.hyperplane_basis(n)
        assert b.shape == (d, d - 1)
        assert np.allclose(b.T @ b, np.eye(d - 1), atol=1e-12)
        assert np.allclose(b.T @ n, 0.0, atol=1e-12)


def _hodge(d):
    """Signed permutation e_I -> (-1)^j e_j on the lexicographic basis of
    (d-1)-vectors, j the index missing from I."""
    H = np.zeros((d, d))
    for i, I in enumerate(combinations(range(d), d - 1)):
        j = (set(range(d)) - set(I)).pop()
        H[j, i] = (-1.0) ** j
    return H


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_hodge_conjugates_inverse_wedge_to_transpose(d):
    # why a hyperplane normal moved by g^T tracks the hyperplane's wedge
    # moved by the (d-1)-th exterior power of g^-1, angle for angle
    rng = np.random.default_rng(d)
    H = _hodge(d)
    assert np.array_equal(H.T @ H, np.eye(d))
    for _ in range(8):
        g = random_invertible(rng, d)
        lhs = matnum.exterior_power(np.linalg.inv(g), d - 1)
        rhs = H.T @ g.T @ H / np.linalg.det(g)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)
        n = matnum.unit(rng.normal(size=d))
        b = matnum.hyperplane_basis(n)
        wedge = np.array([np.linalg.det(b[list(I), :])
                          for I in combinations(range(d), d - 1)])
        assert min(np.linalg.norm(H @ wedge - n), np.linalg.norm(H @ wedge + n)) < 1e-12
        u, v = rng.normal(size=(2, d))
        assert matnum.rho(H @ u, H @ v) == pytest.approx(matnum.rho(u, v), abs=1e-14)


# the one-dot norms against their np.linalg.norm forms ---------------------------

def _ref_unit(v):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("zero vector has no direction")
    return v / n


def _ref_cos_sin(u, v):
    u = _ref_unit(u)
    v = _ref_unit(v)
    dot = float(u @ v)
    if dot < 0:
        v = -v
        dot = -dot
    return dot, float(np.linalg.norm(u - dot * v))


def _ref_hyperplane_basis(normal):
    n = _ref_unit(normal)
    d = n.shape[0]
    if d == 1:
        return np.empty((1, 0))
    e = np.zeros(d)
    e[0] = 1.0
    w = n + e if n[0] >= 0 else n - e
    w = w / np.linalg.norm(w)
    return (np.eye(d) - 2.0 * np.outer(w, w))[:, 1:]


def _vectors(rng, d):
    """Vectors of one dimension at many scales, contiguous and strided (a
    column of a C-ordered matrix), a unit vector and a nearly parallel pair."""
    m = rng.normal(size=(d, 3)) * 10.0 ** rng.integers(-150, 150)
    u = rng.normal(size=d)
    return [m[:, 0], m[:, 1].copy(), u, _ref_unit(u), u + 1e-9 * rng.normal(size=d),
            -u, np.eye(d)[0]]


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("seed", range(4))
def test_one_dot_norms_keep_the_norm_bytes(d, seed):
    rng = np.random.default_rng([d, seed])
    vecs = _vectors(rng, d)
    for v in vecs:
        assert _same(matnum.unit(v), _ref_unit(v))
    # 2-D input: the Frobenius norm, C-ordered, transposed and strided
    m = rng.normal(size=(d, d + 1)) * 10.0 ** rng.integers(-100, 100)
    for a in (m, m.T, m[:, ::2], np.asfortranarray(m)):
        assert _same(matnum.unit(a), _ref_unit(a))
    for u in vecs:
        for v in vecs:
            want = _ref_cos_sin(u, v)
            assert matnum._cos_sin(u, v) == want
            assert matnum.unit_cos_sin(_ref_unit(u), _ref_unit(v)) == want
            assert matnum.rho(u, v) == math.atan2(want[1], want[0])
            assert matnum.rho_to_hyperplane(u, v) == math.atan2(*want)
        assert _same(matnum.hyperplane_basis(u), _ref_hyperplane_basis(u))
        for g in (rng.normal(size=(d, d)), rng.normal(size=(d, d)) * 1e80):
            want = float(np.linalg.norm(g @ _ref_hyperplane_basis(u), 2))
            assert matnum.restricted_operator_norm(g, u) == want
    with pytest.raises(ValueError, match="zero vector"):
        matnum.unit(np.zeros(d))


# certified cone arithmetic ----------------------------------------------------

def test_rho_norm_bound_orthogonal_is_one():
    assert matnum.rho_norm_bound(rotation2(1.1)) == pytest.approx(1.0, abs=1e-6)
    r3 = rotation3((0, 2), 0.4) @ rotation3((1, 2), 1.3)
    assert matnum.rho_norm_bound(r3) == pytest.approx(1.0, abs=1e-6)


def test_rho_norm_bound_diag_formula_envelope():
    g = np.diag([3.0, 2.0, 1.0])
    bound = matnum.rho_norm_bound(g)
    # the certified bound refines the (pi/2) a1 a2 / ad^2 envelope
    assert bound <= (pi / 2) * 6.0 + 1e-12
    assert bound >= 2.0  # must dominate the true projective Lipschitz constant


def test_rho_norm_bound_contracting_cone():
    cone = matnum.Cone(np.array([1.0, 0.0]), 0.3)
    assert matnum.rho_norm_bound(np.diag([4.0, 1.0]), cone) < 1.0


def test_rho_norm_bound_soundness_sampled():
    rng = np.random.default_rng(7)
    for d in (2, 3):
        g = random_invertible(rng, d)
        bound = matnum.rho_norm_bound(g)
        u = sample_directions(rng, d, 10_000)
        v = sample_directions(rng, d, 10_000)
        num = np.array([matnum.rho(a, b) for a, b in zip(u, v)])
        img = np.array([matnum.rho(g @ a, g @ b) for a, b in zip(u, v)])
        keep = num > 1e-8
        assert np.all(img[keep] <= bound * num[keep] * (1 + 1e-9) + 1e-12)


def test_rho_norm_bound_soundness_on_cone():
    rng = np.random.default_rng(8)
    g = random_invertible(rng, 3)
    center = matnum.unit(rng.normal(size=3))
    cone = matnum.Cone(center, 0.4)
    bound = matnum.rho_norm_bound(g, cone)
    # rejection-sample directions inside the cone
    pts = sample_directions(rng, 3, 60_000)
    inside = pts[[matnum.rho(p, center) <= 0.4 for p in pts]][:5000]
    for i in range(0, len(inside) - 1, 2):
        a, b = inside[i], inside[i + 1]
        r = matnum.rho(a, b)
        if r > 1e-8:
            assert matnum.rho(g @ a, g @ b) <= bound * r * (1 + 1e-9) + 1e-12


def test_map_cone_identity_and_rotation():
    cone = matnum.Cone(np.array([1.0, 0.0]), 0.25)
    same = matnum.map_cone(np.eye(2), cone)
    assert matnum.rho(same.center, cone.center) < 1e-12
    assert same.radius == pytest.approx(cone.radius, rel=1e-6)
    rot = matnum.map_cone(rotation2(0.9), cone)
    assert matnum.rho(rot.center, rotation2(0.9) @ cone.center) < 1e-12
    assert rot.radius == pytest.approx(cone.radius, rel=1e-6)


def test_map_cone_contracts_aligned_cone():
    cone = matnum.Cone(np.array([1.0, 0.0]), 0.2)
    image = matnum.map_cone(np.diag([4.0, 1.0]), cone)
    assert image.radius < cone.radius
    # true image radius is atan(tan(0.2)/4); certified radius must cover it
    assert image.radius >= np.arctan(np.tan(0.2) / 4)


def test_map_cone_soundness_sampled():
    rng = np.random.default_rng(9)
    for d in (2, 3):
        g = random_invertible(rng, d)
        center = matnum.unit(rng.normal(size=d))
        cone = matnum.Cone(center, 0.35)
        image = matnum.map_cone(g, cone)
        pts = sample_directions(rng, d, 10_000)
        for p in pts:
            v = matnum.unit(center + np.tan(cone.radius) *
                            matnum.unit(p - (p @ center) * center))
            if matnum.rho(v, center) <= cone.radius:
                assert matnum.rho(g @ v, image.center) <= image.radius + 1e-10


# contraction hyperplane -------------------------------------------------------

def test_ams_hyperplane_diag():
    normal = matnum.ams_hyperplane(np.diag([3.0, 1.0]))
    assert matnum.rho(normal, np.array([1.0, 0.0])) < 1e-12


def test_ams_hyperplane_degenerate():
    with pytest.raises(DegenerateTopSingularValue):
        matnum.ams_hyperplane(rotation2(0.3))
