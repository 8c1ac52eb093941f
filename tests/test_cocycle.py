import json

import numpy as np
import pytest

from coprox import cocycle, demos, matnum, sft
from coprox.cocycle import (
    WindowCocycle,
    batch_log_singular,
    cocycle_from_dict,
    cocycle_to_dict,
    distortion_residual,
    exterior_cocycle,
    fiber_bunching_margin,
    global_holonomy_s,
    holonomy_loop,
    holonomy_s,
    holonomy_u,
    inverse_cocycle,
    orbit_chi_vec,
    orbit_mu_vec,
    product,
    product_scaled,
    rectangle,
    scaled_cocycle,
)
from coprox.errors import InputFormatError, NotHomoclinic, NotOnLocalLeaf


def stable_pairs(s, rng, count):
    """Pairs (x, y) with y on the local stable set of x and a genuinely
    different past (the second word is shifted into negative coordinates,
    so the bracket changes the history, not just the representation)."""
    out = []
    words = sft.enumerate_words(s, 6)
    while len(out) < count:
        w1 = words[rng.integers(len(words))]
        w2 = words[rng.integers(len(words))]
        k = int(rng.integers(1, 4))
        if w2[k] != w1[0]:
            continue
        x = sft.point_from_word(s, w1, 0)
        past = sft.point_from_word(s, w2, 0).shift(k)
        y = sft.bracket(past, x)
        if sft.dist(x, y) > 0:
            out.append((x, y))
    return out


def unstable_pairs(s, rng, count):
    """Pairs (x, y) with y on the local unstable set of x and a future
    that genuinely differs at some positive coordinate."""
    out = []
    words = sft.enumerate_words(s, 6)
    while len(out) < count:
        w1 = words[rng.integers(len(words))]
        if w1[0] != 0:
            continue
        w2 = words[rng.integers(len(words))]
        k = int(rng.integers(1, 4))
        x = sft.point_from_word(s, w1, 0)
        future = sft.point_from_word(s, w2, 0).shift(-k)
        if future.coord(0) != x.coord(0):
            continue
        y = sft.bracket(x, future)
        if sft.dist(x, y) > 0:
            out.append((x, y))
    return out


def test_product_basics(typical2, full2):
    x = sft.point_from_word(full2, (0, 1), 0)
    assert np.array_equal(product(typical2, x, 0), np.eye(2))
    q = sft.periodic_point(sft.make_periodic(full2, (0, 1)))
    # radius 0, A(0) = diag(2, 1/2), A(1) = rotation: direct two-step product
    expect = typical2.table[(1,)] @ typical2.table[(0,)]
    assert np.allclose(product(typical2, q, 2), expect)


def test_constant_cocycle_power():
    A = demos.constant_diag_4_1()
    x = sft.fixed_point(A.base, 1)
    assert np.allclose(product(A, x, 3), np.diag([64.0, 1.0]))


def test_cocycle_equation_mixed_signs(radius1):
    x = sft.point_from_word(radius1.base, (1, 0, 0, 1, 1, 0), 0)
    for m in range(-3, 4):
        for n in range(-3, 4):
            lhs = product(radius1, x, n + m)
            rhs = product(radius1, x.shift(m), n) @ product(radius1, x, m)
            assert np.allclose(lhs, rhs, atol=1e-12)


def test_holonomy_truncation_exactness(radius1):
    rng = np.random.default_rng(0)
    nontrivial = 0
    for x, y in stable_pairs(radius1.base, rng, 20):
        h_r = holonomy_s(radius1, x, y)
        h_deep = holonomy_s(radius1, x, y, steps=radius1.radius + 8)
        assert np.linalg.norm(h_r - h_deep) < 1e-12
        nontrivial += np.linalg.norm(h_r - np.eye(2)) > 1e-6
    assert nontrivial > 5  # the sampled holonomies are far from trivial
    for x, y in unstable_pairs(radius1.base, rng, 20):
        hu = holonomy_u(radius1, x, y)
        hu_deep = holonomy_u(radius1, x, y, steps=radius1.radius + 8)
        assert np.linalg.norm(hu - hu_deep) < 1e-12
        # radius-1 backward windows never see positive coordinates, so the
        # exact local unstable holonomy is the identity (depth >= 2 makes
        # it nontrivial; see the radius-2 suite)
        assert np.linalg.norm(hu - np.eye(2)) < 1e-12


def test_holonomy_radius0_is_identity(typical2):
    x = sft.point_from_word(typical2.base, (1, 0, 1), 0)
    y = sft.bracket(sft.point_from_word(typical2.base, (1, 1, 0), 0), x)
    assert np.array_equal(holonomy_s(typical2, x, y), np.eye(2))


def test_holonomy_requires_leaf(radius1):
    x = sft.point_from_word(radius1.base, (0, 1), 0)
    y = sft.point_from_word(radius1.base, (1, 0), 0)
    with pytest.raises(NotOnLocalLeaf):
        holonomy_s(radius1, x, y)


def test_equivariance_and_composition(radius1):
    rng = np.random.default_rng(1)
    pairs = stable_pairs(radius1.base, rng, 100)
    for x, y in pairs:
        lhs = radius1.at(x)
        rhs = holonomy_s(radius1, y.shift(1), x.shift(1)) @ radius1.at(y) \
            @ holonomy_s(radius1, x, y)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-10
    for (x, y), (_, z0) in zip(pairs[:50], pairs[50:]):
        if x.coord(0) != z0.coord(0):
            continue
        z = sft.bracket(z0, x)
        comp = holonomy_s(radius1, y, z) @ holonomy_s(radius1, x, y)
        assert np.linalg.norm(comp - holonomy_s(radius1, x, z)) < 1e-10


def test_global_holonomy_consistency(radius1):
    s = radius1.base
    x = sft.point_from_word(s, (1, 1, 0, 0, 1), 0)
    y = sft.point_from_word(s, (0, 1, 0, 0, 1), 0)
    ell = sft.stable_shift(x, y)
    assert ell is not None and ell > 0
    h1 = global_holonomy_s(radius1, x, y, ell)
    h2 = global_holonomy_s(radius1, x, y, ell + 3)
    assert np.linalg.norm(h1 - h2) < 1e-10
    assert np.allclose(global_holonomy_s(radius1, x, y), h1)


def test_holonomy_loop_identity(radius1, full2):
    p = sft.fixed_point(full2, 0)
    z = sft.homoclinic_point(full2, 0, (1, 1))
    psi = holonomy_loop(radius1, p, z)
    P = product(radius1, p, 1)
    ell = 4
    lhs = np.linalg.matrix_power(P, ell) @ psi
    rhs = holonomy_s(radius1, z.shift(ell), p) @ product(radius1, z, ell) \
        @ holonomy_u(radius1, p, z)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-10


def test_holonomy_loop_radius0(typical2, full2):
    # with trivial local holonomies the loop is P^-l A^l(z)
    p = sft.fixed_point(full2, 0)
    z = sft.homoclinic_point(full2, 0, (1,))
    psi = holonomy_loop(typical2, p, z)
    P = product(typical2, p, 1)
    expect = np.linalg.matrix_power(P, -2) @ product(typical2, z, 2)
    assert np.allclose(psi, expect)


def test_holonomy_loop_rejects_p(typical2, full2):
    p = sft.fixed_point(full2, 0)
    with pytest.raises(NotHomoclinic):
        holonomy_loop(typical2, p, p)


def test_rectangle_identity_and_decay(radius1, full2):
    p = sft.fixed_point(full2, 0)
    assert np.linalg.norm(rectangle(radius1, p, p) - np.eye(2)) < 1e-14
    norms = []
    for m in (0, 1, 2, 3, 4):
        # q differs from p on both sides, agreement window grows with m
        core = (1,) + (0,) * (2 * m + 1) + (1,)
        q = sft.PointSpec((0,), core, (0,), m + 1)
        norms.append(np.linalg.norm(rectangle(radius1, p, q) - np.eye(2)))
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-12


def test_distortion_identity(radius1, typical2):
    x = sft.point_from_word(radius1.base, (1, 0, 1, 1), 0)
    y = sft.point_from_word(radius1.base, (1, 0, 1, 1, 1, 0), 0)
    assert distortion_residual(radius1, x, y, 4) < 1e-10
    assert distortion_residual(typical2, x, y, 4) < 1e-12


def test_fiber_bunching_margin_conformal(full2):
    table = {(0,): 3 * demos.rotation2(0.2), (1,): 0.25 * demos.rotation2(1.0)}
    A = WindowCocycle(full2, 2, 0, table)
    assert fiber_bunching_margin(A) == pytest.approx(0.5)


def test_inverse_cocycle_involution(radius1):
    inv = inverse_cocycle(radius1)
    back = inverse_cocycle(inv)
    assert set(back.table) == set(radius1.table)
    for w in radius1.table:
        assert np.allclose(back.table[w], radius1.table[w], atol=1e-14)


def test_inverse_cocycle_constant():
    A = demos.constant_diag_4_1()
    inv = inverse_cocycle(A)
    for m in inv.table.values():
        assert np.allclose(m, np.diag([0.25, 1.0]))


def test_inverse_product_correspondence(radius1):
    x = sft.point_from_word(radius1.base, (1, 0, 0, 1, 1), 0)
    inv = inverse_cocycle(radius1)
    for n in (1, 2, 5):
        got = product(inv, sft.reverse_point(x), n)
        expect = product(radius1, x, -n)
        assert np.allclose(got, expect, atol=1e-12)


def test_inverse_loop_is_inverse(radius1, full2):
    p = sft.fixed_point(full2, 0)
    z = sft.homoclinic_point(full2, 0, (1, 1))
    psi = holonomy_loop(radius1, p, z)
    inv = inverse_cocycle(radius1)
    psi_rev = holonomy_loop(inv, sft.reverse_point(p), sft.reverse_point(z))
    assert np.linalg.norm(psi_rev - np.linalg.inv(psi)) < 1e-10


def test_exterior_cocycle_products(typical3):
    A2 = exterior_cocycle(typical3, 2)
    x = sft.point_from_word(typical3.base, (1, 0, 1), 0)
    lhs = product(A2, x, 3)
    rhs = matnum.exterior_power(product(typical3, x, 3), 2)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_scaled_cocycle(typical2):
    B = scaled_cocycle(typical2, 0.5)
    x = sft.point_from_word(typical2.base, (0, 1, 1), 0)
    assert np.allclose(product(B, x, 3), np.exp(1.5) * product(typical2, x, 3))


def test_product_scaled_consistency(typical2):
    x = sft.point_from_word(typical2.base, (1, 0, 0, 1), 0)
    m, s = product_scaled(typical2, x, 12)
    assert np.allclose(np.exp(s) * m, product(typical2, x, 12), rtol=1e-12)
    m_neg, s_neg = product_scaled(typical2, x, -5)
    assert np.allclose(np.exp(s_neg) * m_neg, product(typical2, x, -5), rtol=1e-12)


def test_orbit_ladders_match_direct(typical2, radius1):
    for A in (typical2, radius1):
        x = sft.point_from_word(A.base, (1, 0, 1, 1, 0, 0), 0)
        g = product(A, x, 6)
        assert np.allclose(orbit_mu_vec(A, x, 6), matnum.mu_vec(g), atol=1e-10)
        assert np.allclose(orbit_chi_vec(A, x, 6), matnum.chi_vec(g), atol=1e-10)


def test_orbit_ladders_long_product(typical2):
    # determinant-one factors: mu_2 = -mu_1 exactly at any length
    word = ((0,) * 10 + (1,)) * 5 + (0,) * 5
    x = sft.point_from_word(typical2.base, word, 0)
    mu = orbit_mu_vec(typical2, x, 60)
    assert mu[0] + mu[1] == pytest.approx(0.0, abs=1e-9)
    assert mu[0] > 20.0  # genuine growth far beyond float roundoff of a raw SVD


def test_batch_products_match_loop(typical3):
    words = sft.word_array(typical3.base, 5)
    idx = cocycle._window_indices(typical3, words, cocycle._pads(typical3, 0))
    prods, scales = cocycle._extend_products(
        typical3._rungs[0], idx, *cocycle._identity_trunks(typical3, len(words))[0])
    for i, w in enumerate(words.tolist()):
        x = sft.point_from_word(typical3.base, w, 0)
        assert np.allclose(np.exp(scales[i]) * prods[i], product(typical3, x, 5),
                           rtol=1e-12)


def test_batch_log_singular_matches_ladder(radius1):
    words = sft.enumerate_words(radius1.base, 6)[:40]
    logs = batch_log_singular(radius1, words, 0)
    for i, w in enumerate(words):
        x = sft.point_from_word(radius1.base, w, 0)
        assert np.allclose(logs[i], orbit_mu_vec(radius1, x, 6), atol=1e-9)


def test_batch_workers_identical(typical3):
    words = sft.enumerate_words(typical3.base, 8)
    a = batch_log_singular(typical3, words, 0, workers=1)
    b = batch_log_singular(typical3, words, 0, workers=4)
    assert np.array_equal(a, b)


def test_json_roundtrip(radius1, tmp_path):
    path = tmp_path / "c.json"
    cocycle.save_cocycle(radius1, path)
    back = cocycle.load_cocycle(path)
    assert back.base == radius1.base
    assert back.dim == radius1.dim and back.radius == radius1.radius
    for w in radius1.table:
        assert np.allclose(back.table[w], radius1.table[w], atol=1e-15)


def test_malformed_cocycle_files(tmp_path):
    with pytest.raises(InputFormatError):
        cocycle_from_dict({"alphabet": 2})
    bad = cocycle_to_dict(demos.typical_2x2())
    bad["entries"] = bad["entries"][:1]
    with pytest.raises(InputFormatError):
        cocycle_from_dict(bad)
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(InputFormatError):
        cocycle.load_cocycle(p)
