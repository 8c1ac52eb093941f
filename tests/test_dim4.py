"""Dimension-4 behavior: the full twisting index-set condition is
structurally unsatisfiable on the second exterior power (wedge families
through a common factor are never in general position), while the pairwise
conditions the constructions consume remain generic, so certification
checks those on the powers t >= 2 and the synthesizer still certifies all
exterior powers."""

import numpy as np
import pytest

from coprox import cocycle, sft, synthesis, typicality
from coprox.cli import main
from coprox.errors import SingularMatrix
from coprox.matnum import exterior_power, require_invertible, unit
from coprox.proximal import is_eps_proximal
from coprox.typicality import eigen_frame, twisting_margin
from conftest import ref_product_scaled


def test_full_collections_structurally_zero_on_wedge_square(dim4):
    p = sft.fixed_point(dim4.base, 0)
    z = sft.homoclinic_point(dim4.base, 0, (1,))
    P2 = exterior_power(cocycle.product(dim4, p, 1), 2)
    psi2 = exterior_power(cocycle.holonomy_loop(dim4, p, z), 2)
    frame = eigen_frame(P2)
    assert twisting_margin(psi2, frame, "all") < 1e-12
    assert twisting_margin(psi2, frame, "pairs") > 1e-6


def test_wedge_families_share_a_direction():
    # independent of any cocycle: {u ^ x} and {v ^ y} overlap in u ^ v
    rng = np.random.default_rng(1)
    u, v = rng.normal(size=4), rng.normal(size=4)
    rest_u = [w for w in np.eye(4) if abs(unit(w) @ unit(u)) < 0.99][:3]
    span_u = np.column_stack(
        [exterior_power(np.eye(4), 2) @ _wedge(u, w) for w in rest_u])
    shared = _wedge(u, v)
    coeffs, residual, *_ = np.linalg.lstsq(span_u, shared, rcond=None)
    assert residual.size == 0 or residual[0] < 1e-18


def _wedge(a, b):
    from itertools import combinations

    out = np.empty(6)
    for k, (i, j) in enumerate(combinations(range(4), 2)):
        out[k] = a[i] * b[j] - a[j] * b[i]
    return out


def test_pairs_mode_certifies_and_synthesizes(dim4):
    found = typicality.find_typical_pair(dim4)
    assert found is not None
    p, z, cert = found
    assert cert.passed
    rep = synthesis.build_proximal_periodic(dim4, cert, (1, 0, 1), 0.04)
    assert all(w.verdict for w in rep.witnesses)
    qpt = sft.periodic_point(rep.q)
    for t in (1, 2, 3):
        At = cocycle.exterior_cocycle(dim4, t)
        m, _ = ref_product_scaled(At, qpt, rep.n_q)
        assert is_eps_proximal(m, 0.04)
    n_q = rep.n_q
    assert all(rep.q.symbols[(rep.j + i) % n_q] == (1, 0, 1)[i] for i in range(3))


def test_default_certifies_dim4_with_pair_margins(dim4):
    # at t = 1 every collection is checked; at t >= 2 only the pairs
    found = typicality.find_typical_pair(dim4, max_excursion_len=2)
    assert found is not None
    p, z, cert = found
    assert cert.passed and [m.label for m in cert.per_member] == ["t=1", "t=2", "t=3"]
    P = cocycle.product(dim4, p, 1)
    psi = cocycle.holonomy_loop(dim4, p, z)
    for m, t in zip(cert.per_member, (1, 2, 3)):
        frame = eigen_frame(exterior_power(P, t))
        margin = twisting_margin(exterior_power(psi, t), frame, "all" if t == 1 else "pairs")
        assert m.twist_margin == margin


def test_check_cli_certifies_dim4_without_options(dim4, tmp_path):
    path = tmp_path / "dim4.json"
    cocycle.save_cocycle(dim4, path)
    assert main(["check", "--input", str(path), "--max-excursion", "2"]) == 0


def test_exterior_powers_of_an_accepted_table_are_not_checked_again():
    # cond(wedge^2 g) = cond(g)^2 = 1e14 passes the tolerance that g's 1e7
    # passes, but det(wedge^2 g) = det(g)^C(3, 1) != 0: the power is built
    q, r = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    g = np.diag([1e7, 1e7, 1.0, 1.0])
    A = cocycle.WindowCocycle(sft.full_shift(2), 4, 0, {(0,): g, (1,): q * np.sign(np.diag(r))})
    with pytest.raises(SingularMatrix):
        require_invertible(exterior_power(g, 2))
    wedge = cocycle.exterior_cocycle(A, 2)
    for w, m in wedge.table.items():
        assert np.isclose(np.linalg.det(m), np.linalg.det(A.table[w]) ** 3, rtol=1e-10, atol=0)
    assert cocycle.transpose_cocycle(wedge).dim == 6
    # the same matrices supplied as a table of their own are still checked
    with pytest.raises(SingularMatrix):
        cocycle.WindowCocycle(A.base, 6, 0, dict(wedge.table))
