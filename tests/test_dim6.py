"""Dimension 6: a well-conditioned cocycle that certifies typical also
synthesizes.  Its exterior powers are well conditioned too, but their
|det| / |g|^D falls exponentially in the size D = C(6, t), so an
invertibility test on that ratio refused every exterior cocycle built for
the synthesis."""

import numpy as np
import pytest

from coprox import cocycle, matnum, sft, synthesis, typicality
from coprox.cli import main
from coprox.errors import SingularMatrix
from coprox.proximal import is_eps_proximal
from conftest import DIM6_DIAGONAL as DIAGONAL, ref_product_scaled


def test_invertibility_test_is_free_of_size():
    wedge3 = matnum.exterior_power(DIAGONAL, 3)  # 20 x 20, condition 246
    assert abs(np.linalg.det(wedge3)) < 1e-12 * np.linalg.norm(wedge3, 2) ** 20
    assert matnum.require_invertible(wedge3) is not None
    with pytest.raises(SingularMatrix):
        matnum.require_invertible(np.diag([1.0, 1e-13]))


def test_well_conditioned_dim6_synthesizes(dim6):
    p, z, cert = typicality.find_typical_pair(dim6)
    assert cert.passed
    word = (0, 1, 1, 0, 1, 0, 0, 1, 1, 1)
    rep = synthesis.build_proximal_periodic(dim6, cert, word, 0.05)
    assert all(w.verdict for w in rep.witnesses)
    qpt = sft.periodic_point(rep.q)
    for t in range(1, 6):
        m, _ = ref_product_scaled(cocycle.exterior_cocycle(dim6, t), qpt, rep.n_q)
        assert is_eps_proximal(m, 0.05)
    assert all(rep.q.symbols[(rep.j + i) % rep.n_q] == a for i, a in enumerate(word))


def test_dim6_commands_run(dim6, tmp_path, capsys):
    path = str(tmp_path / "dim6.json")
    cocycle.save_cocycle(dim6, path)
    assert main(["check", "--input", path]) == 0
    assert main(["synthesize", "--input", path, "--word", "0110100111"]) == 0
    assert main(["verify-bound", "--input", path, "--samples", "4", "--seed", "1",
                 "--n-min", "10", "--n-max", "400"]) == 0
    assert ", 0 failed;" in capsys.readouterr().out
    # the level walk's commands step products of rungs of 15 and 20 rows; the
    # periodic gap of this cocycle is a rounding-level zero, so dominate
    # finds no evidence (exit 2), and says so on one line
    assert main(["pressure", "--input", path, "--s", "2.5", "--n-max", "8"]) == 0
    assert main(["dominate", "--input", path, "--index", "1", "--n-max", "8",
                 "--max-period", "6"]) == 2
    assert main(["spectrum", "--input", path, "--max-period", "8"]) == 0
    out, err = capsys.readouterr()
    assert "verdict = no-domination-evidence" in out
    assert out.endswith("71 periodic orbits up to period 8\n")
    assert "Traceback" not in out + err
