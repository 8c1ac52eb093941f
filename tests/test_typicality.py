import itertools

import numpy as np
import pytest

from coprox import cocycle, demos, matnum, sft, typicality
from coprox.cocycle import WindowCocycle, holonomy_loop, product
from coprox.errors import NoFixedSymbol, NotFixedPoint, NotHomoclinic
from coprox.typicality import (
    eigen_frame,
    family_certificate,
    find_typical_pair,
    pinching_margin,
    twisting_margin,
    typicality_check,
)


def test_pinching_margin_examples():
    assert pinching_margin(np.diag([3.0, 2.0, 1.0])) == pytest.approx(np.log(1.5))
    assert pinching_margin(np.diag([2.0, 2.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
    assert pinching_margin(demos.rotation2(0.4)) == pytest.approx(0.0, abs=1e-12)


def test_eigen_frame_data():
    P = np.array([[2.0, 1.0], [0.0, 0.5]])
    frame = eigen_frame(P)
    assert frame.eigvals == pytest.approx([2.0, 0.5])
    for i in range(2):
        res = P @ frame.vector(i) - frame.eigvals[i] * frame.vector(i)
        assert np.linalg.norm(res) < 1e-9
    # dual rows annihilate the complementary eigenvectors
    assert abs(frame.hyperplane_normal(0) @ frame.vector(1)) < 1e-12


def test_eigen_frame_rejects_unpinched():
    with pytest.raises(ValueError):
        eigen_frame(demos.rotation2(1.0))


def test_twisting_margin_identity_fails():
    frame = eigen_frame(np.diag([2.0, 1.0]))
    assert twisting_margin(np.eye(2), frame) < 1e-12


def test_twisting_margin_rotation_passes():
    frame = eigen_frame(np.diag([2.0, 1.0]))
    assert twisting_margin(demos.rotation2(np.pi / 4), frame) > 0.1


def _brute_twisting_margin(psi, frame):
    """Least smallest singular value over every collection with
    1 <= |I| + |J| <= d, one SVD each."""
    d = frame.dim
    psi_v = [matnum.unit(psi @ frame.vector(i)) for i in range(d)]
    return min(
        np.linalg.svd(np.column_stack([psi_v[i] for i in I] + [frame.vector(j) for j in J]),
                      compute_uv=False)[-1]
        for size in range(1, d + 1) for i_size in range(size + 1)
        for I in itertools.combinations(range(d), i_size)
        for J in itertools.combinations(range(d), size - i_size))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_twisting_margin_is_the_least_over_every_collection(d):
    # the margin reads only the collections of exactly d columns; the
    # smaller ones, each inside one of those, never lower it
    rng = np.random.default_rng(d)
    for _ in range(4):
        basis = rng.normal(size=(d, d))
        frame = eigen_frame(basis @ np.diag(2.0 ** -np.arange(d)) @ np.linalg.inv(basis))
        psi = rng.normal(size=(d, d))
        assert twisting_margin(psi, frame) == _brute_twisting_margin(psi, frame)
    # and where a smaller collection is singular, so is the margin
    frame = eigen_frame(np.diag(2.0 ** -np.arange(d)))
    assert twisting_margin(np.eye(d), frame) < 1e-12


def test_twisting_margin_swap_fails():
    frame = eigen_frame(np.diag([2.0, 1.0]))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])  # psi v1 = v2
    assert twisting_margin(swap, frame) < 1e-12


def test_typicality_check_demo(typical2, typical2_cert):
    p, z, cert = typical2_cert
    assert cert.passed
    assert [m.label for m in cert.per_member] == ["t=1"]
    assert z.coords(1, 1) == (1,)  # first excursion that passes is "1"


def test_typicality_demo_matches_hand_computation(typical2, full2):
    # independent route: psi = P^-2 A(z1) A(z0), then the four 2x2
    # determinant checks of the pair-collections
    p = sft.fixed_point(full2, 0)
    z = sft.homoclinic_point(full2, 0, (1,))
    P = np.diag([2.0, 0.5])
    psi = np.linalg.matrix_power(P, -2) @ demos.rotation2(np.pi / 4) @ P
    got = holonomy_loop(typical2, p, z)
    assert np.allclose(psi, got)
    for cols in ([psi[:, 0], [1, 0]], [psi[:, 0], [0, 1]],
                 [psi[:, 1], [1, 0]], [psi[:, 1], [0, 1]]):
        assert abs(np.linalg.det(np.column_stack(cols))) > 1e-3
    cert = typicality_check(typical2, p, z)
    assert cert.passed


def test_typicality_exterior_consistency(typical3, typical3_cert):
    p, z, cert = typical3_cert
    assert cert.passed
    # pinching margin of the exterior power equals the min gap of adjacent
    # sums of the base log-moduli
    P = product(typical3, p, 1)
    base = np.log(np.abs(np.linalg.eigvals(P)))
    base = np.sort(base)[::-1]
    p2 = pinching_margin(matnum.exterior_power(P, 2))
    sums = [base[0] + base[1], base[0] + base[2], base[1] + base[2]]
    assert p2 == pytest.approx(min(np.diff(-np.array(sums))), abs=1e-9)


def test_rotation_cocycle_fails(full2):
    A = demos.rotation_only_2x2()
    p = sft.fixed_point(full2, 0)
    z = sft.homoclinic_point(full2, 0, (1,))
    cert = typicality_check(A, p, z)
    assert not cert.passed
    assert cert.per_member[0].pinch_margin <= cert.tol
    assert cert.per_member[0].twist_margin is None


def test_d1_vacuous_certificate(full2):
    A = demos.scalar_2_3()
    p = sft.fixed_point(full2, 0)
    z = sft.homoclinic_point(full2, 0, (1,))
    cert = typicality_check(A, p, z)
    assert cert.passed and cert.per_member == ()


def test_check_preconditions(typical2, full2):
    q = sft.periodic_point(sft.make_periodic(full2, (0, 1)))
    z = sft.homoclinic_point(full2, 0, (1,))
    with pytest.raises(NotFixedPoint):
        typicality_check(typical2, q, z)
    p = sft.fixed_point(full2, 0)
    with pytest.raises(NotHomoclinic):
        typicality_check(typical2, p, p)


@pytest.mark.parametrize("base", ["golden", "full2", "tri_base"])
def test_excursions_are_the_brute_force_words_in_order(request, base):
    s = request.getfixturevalue(base)
    for a in s.fixed_symbols():
        for n in range(1, 6):
            expected = [u for u in itertools.product(range(s.alphabet_size), repeat=n)
                        if sft.is_admissible(s, (a,) + u + (a,)) and u != (a,) * n]
            assert list(typicality._excursions(s, a, n)) == expected


def test_find_typical_pair_demo(typical2, typical2_cert):
    p, z, cert = typical2_cert
    assert p.coord(0) == 0
    assert sft.same_point(z, sft.homoclinic_point(typical2.base, 0, (1,)))


def test_find_typical_pair_identity_none(full2):
    A = WindowCocycle(full2, 2, 0, {(0,): np.eye(2), (1,): np.eye(2)})
    assert find_typical_pair(A) is None


def test_find_typical_pair_golden_uses_zero():
    A = demos.golden_typical_2x2()
    assert A.base.fixed_symbols() == [0]
    p, z, cert = find_typical_pair(A)
    assert p.coord(0) == 0 and cert.passed


def test_no_fixed_symbol():
    s = sft.Sft.from_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    A = WindowCocycle(s, 1, 0, {(i,): [[2.0]] for i in range(3)})
    with pytest.raises(NoFixedSymbol):
        find_typical_pair(A)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_tol_must_be_positive_and_finite(typical2, typical2_cert, tol):
    p, z, _ = typical2_cert
    with pytest.raises(ValueError, match="tol must be > 0 and finite"):
        typicality_check(typical2, p, z, tol=tol)
    with pytest.raises(ValueError, match="tol must be > 0 and finite"):
        find_typical_pair(typical2, tol=tol)
    with pytest.raises(ValueError, match="tol must be > 0 and finite"):
        family_certificate([typical2], p, z, tol=tol)


def test_certificate_monotone_in_tol(typical2, typical2_cert):
    p, z, _ = typical2_cert
    loose = typicality_check(typical2, p, z, tol=1e-10)
    tight = typicality_check(typical2, p, z, tol=1e-2)
    assert loose.passed  # pass at tol implies pass at smaller tol
    if tight.passed:
        assert loose.passed


def test_orbit_shift_invariance(typical2, typical2_cert):
    # conjugation by P maps the test configurations bijectively, so the
    # pass/fail of twisting is invariant along the orbit of z
    p, z, cert = typical2_cert
    P = product(typical2, p, 1)
    psi = holonomy_loop(typical2, p, z)
    base_pass = cert.passed
    for n in (1, 2):
        zn = z.shift(n)
        psin = holonomy_loop(typical2, p, zn)
        conj = np.linalg.matrix_power(P, n) @ psi @ np.linalg.matrix_power(P, -n)
        assert np.allclose(psin, conj, atol=1e-10)
        certn = typicality_check(typical2, p, zn)
        assert certn.passed == base_pass


def test_family_certificate(typical2):
    B = cocycle.scaled_cocycle(typical2, 0.3)
    p, z, _ = find_typical_pair(typical2)
    cert = family_certificate([typical2, B], p, z)
    assert cert.passed and len(cert.per_member) == 2


def test_certificate_serialization(typical2_cert):
    cert = typical2_cert[2]
    d = cert.to_dict()
    assert d["passed"] is True
    assert d["members"][0]["pinch_margin"] > 0
