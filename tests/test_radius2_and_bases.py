"""Wider-window cocycles and bases with nontrivial bridging.

The radius-2 table (the ``radius2`` fixture in conftest) exercises the window machinery past the radius-1
demos (5-symbol windows, two-step holonomy stabilization, batch padding
with depth-2 contexts); the 3-symbol base forces nonempty bridges through
the canonical-representative and synthesis paths.
"""

import numpy as np
import pytest

from coprox import cocycle, demos, sft, synthesis, typicality
from coprox.cocycle import (
    WindowCocycle,
    batch_log_singular,
    distortion_residual,
    holonomy_loop,
    holonomy_s,
    holonomy_u,
    orbit_mu_vec,
    product,
)
from coprox.proximal import is_eps_proximal


@pytest.fixture(scope="module")
def tri_base():
    # three symbols; 0 is the only fixed symbol and 2 -> 0 is forbidden,
    # so bridging 2 back to 0 needs an intermediate symbol
    return sft.Sft.from_matrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]])


@pytest.fixture(scope="module")
def tri_cocycle(tri_base):
    table = {
        (0,): np.diag([2.0, 0.5]),
        (1,): demos.rotation2(np.pi / 4),
        (2,): demos.rotation2(0.9) @ np.diag([1.5, 1 / 1.5]),
    }
    return WindowCocycle(tri_base, 2, 0, table)


def test_radius2_holonomy_stabilizes_at_two(radius2):
    x = sft.point_from_word(radius2.base, (1, 0, 1, 1, 0, 0), 0)
    # a past that genuinely differs below coordinate 0
    past = sft.point_from_word(radius2.base, (1, 1, 1, 1, 0, 0), 0).shift(3)
    assert past.coord(0) == x.coord(0)
    y = sft.bracket(past, x)
    assert sft.dist(x, y) > 0
    h2 = holonomy_s(radius2, x, y)  # steps defaults to the radius
    h10 = holonomy_s(radius2, x, y, steps=10)
    assert np.linalg.norm(h2 - h10) < 1e-12
    assert y.coord(-1) != x.coord(-1)  # the depth-2 window sees the change
    h1 = holonomy_s(radius2, x, y, steps=1)
    assert np.linalg.norm(h1 - h10) > 1e-6  # one step is genuinely short
    xu = sft.point_from_word(radius2.base, (0, 1, 1, 0, 1, 1), 0)
    future = sft.point_from_word(radius2.base, (0, 1, 0, 1, 0, 0), 0).shift(-1)
    yu = sft.bracket(xu, future)
    assert yu.coord(1) != xu.coord(1)  # within reach of the depth-2 windows
    hu = holonomy_u(radius2, xu, yu)
    assert np.linalg.norm(hu - holonomy_u(radius2, xu, yu, steps=9)) < 1e-12
    # depth-2 backward windows reach coordinate +1, so this one is nontrivial
    assert np.linalg.norm(hu - np.eye(2)) > 1e-6


def test_radius2_identities(radius2):
    s = radius2.base
    x = sft.point_from_word(s, (1, 0, 1, 1), 0)
    y = sft.point_from_word(s, (1, 0, 1, 1, 1, 0), 0)
    assert distortion_residual(radius2, x, y, 4) < 1e-10
    p = sft.fixed_point(s, 0)
    z = sft.homoclinic_point(s, 0, (1, 1))
    psi = holonomy_loop(radius2, p, z)
    P = product(radius2, p, 1)
    ell = 5
    lhs = np.linalg.matrix_power(P, ell) @ psi
    rhs = holonomy_s(radius2, z.shift(ell), p) @ product(radius2, z, ell) \
        @ holonomy_u(radius2, p, z)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-10
    inv = cocycle.inverse_cocycle(radius2)
    assert inv.radius == 2
    psi_rev = holonomy_loop(inv, sft.reverse_point(p), sft.reverse_point(z))
    assert np.linalg.norm(psi_rev - np.linalg.inv(psi)) < 1e-9


def test_radius2_batch_matches_pointwise(radius2):
    words = sft.enumerate_words(radius2.base, 6)[:32]
    logs = batch_log_singular(radius2, words, 0)
    for i, w in enumerate(words):
        x = sft.point_from_word(radius2.base, w, 0)
        assert np.allclose(logs[i], orbit_mu_vec(radius2, x, 6), atol=1e-9)


def test_radius2_synthesis(radius2):
    found = typicality.find_typical_pair(radius2, max_excursion_len=3)
    assert found is not None
    rep = synthesis.build_proximal_periodic(radius2, found[2], (1, 1, 0), 0.05)
    assert all(w.verdict for w in rep.witnesses)
    assert rep.factorization_residual < 1e-8
    n_q = rep.n_q
    assert all(rep.q.symbols[(rep.j + i) % n_q] == (1, 1, 0)[i] for i in range(3))


def test_tri_base_bridges(tri_base):
    assert tri_base.fixed_symbols() == [0, 2]
    assert sft.bridge(tri_base, 2, 0, 0) is None  # 2 -> 0 forbidden
    assert sft.shortest_bridge(tri_base, 2, 0) == (1,)
    x = sft.point_from_word(tri_base, (2, 1, 2), 0)
    # canonical representative bridges through symbol 1 on the right
    assert x.coords(0, 5) == (2, 1, 2, 1, 0, 0)


def test_tri_base_synthesis_with_bridging(tri_cocycle):
    found = typicality.find_typical_pair(tri_cocycle)
    assert found is not None
    p, z, cert = found
    assert p.coord(0) == 0
    word = (2, 1, 2)  # ends at symbol 2: closing to p needs a real bridge
    rep = synthesis.build_proximal_periodic(tri_cocycle, cert, word, 0.05)
    assert all(w.verdict for w in rep.witnesses)
    n_q = rep.n_q
    assert all(rep.q.symbols[(rep.j + i) % n_q] == word[i] for i in range(3))
    assert sft.is_admissible(tri_cocycle.base, rep.q.symbols + rep.q.symbols[:1])


def test_tri_base_spectrum_and_pressure(tri_cocycle):
    from coprox import analysis, thermo

    spec = analysis.periodic_spectrum(tri_cocycle, 4)
    assert all(np.all(np.diff(lam) <= 1e-12) for _, lam in spec)
    est = thermo.pressure(tri_cocycle, 0.0, list(range(2, 13)))
    T = tri_cocycle.base.matrix().astype(float)
    assert est.value == pytest.approx(
        float(np.log(np.max(np.abs(np.linalg.eigvals(T))))), abs=1e-4)
