import os
import subprocess
import sys
import warnings
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprox import cocycle, demos, sft, thermo, typicality
from coprox.errors import NotConstant
from coprox.matnum import mu_vec
from coprox.thermo import (
    cylinder_weights,
    log_phi_s,
    pressure,
    theorem_c_experiment,
    top_exponent_differences,
)
from conftest import random_invertible


def _log_phi(g, s):
    """log phi^s of one matrix, as the pressure oracle reads it."""
    return log_phi_s(mu_vec(g), s)


def test_phi_s_examples():
    g = np.diag([4.0, 2.0])
    assert _log_phi(g, 0.0) == 0.0
    assert _log_phi(g, 1.5) == pytest.approx(np.log(4.0 * np.sqrt(2.0)))
    assert _log_phi(g, 4.0) == pytest.approx(np.log(64.0))  # s > d branch: |det|^{s/d}
    assert _log_phi(g, 1.0) == pytest.approx(np.log(4.0))


def test_phi_s_branch_agreement_at_d():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        g = random_invertible(rng, d)
        alpha = np.linalg.svd(g, compute_uv=False)
        assert _log_phi(g, float(d)) == pytest.approx(np.sum(np.log(alpha)), abs=1e-10)
        assert _log_phi(g, float(d)) == pytest.approx(
            np.linalg.slogdet(g)[1], abs=1e-10)


def test_phi_s_submultiplicative():
    rng = np.random.default_rng(1)
    svals = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
    for _ in range(500):
        g = random_invertible(rng, 2)
        h = random_invertible(rng, 2)
        for s in svals:
            assert _log_phi(g @ h, s) <= _log_phi(g, s) + _log_phi(h, s) + 1e-10


def test_constant_cocycle_oracle_is_finite_at_huge_s():
    # the oracle is read in logs: at s = 1e300 phi^s itself overflows
    A = demos.constant_diag_4_1()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = pressure(A, 1e300, list(range(2, 6)))
    assert est.oracle == np.log(2.0) + 0.5e300 * np.log(4.0)
    assert est.value == pytest.approx(est.oracle, rel=1e-12)


def test_pressure_s0_golden_oracle():
    A = demos.golden_typical_2x2()
    est = pressure(A, 0.0, list(range(2, 21)))
    oracle = np.log((1 + np.sqrt(5)) / 2)
    assert est.oracle == pytest.approx(oracle, abs=1e-12)
    assert est.value == pytest.approx(oracle, abs=1e-5)


def test_pressure_d1_weighted_oracle():
    A = demos.golden_scalar_2_3()
    est = pressure(A, 1.0, list(range(2, 19)))
    T = A.base.matrix().astype(float)
    oracle = float(np.log(np.max(np.abs(np.linalg.eigvals(np.diag([2.0, 3.0]) @ T)))))
    assert est.oracle == pytest.approx(oracle, abs=1e-12)
    assert est.value == pytest.approx(oracle, abs=1e-4)


def test_pressure_constant_cocycle_closed_form():
    A = demos.constant_diag_4_1()
    for s in (0.5, 1.0, 1.5):
        est = pressure(A, s, list(range(2, 9)))
        expect = np.log(2.0) + _log_phi(np.diag([4.0, 1.0]), s)
        assert est.oracle == pytest.approx(expect, abs=1e-12)
        assert est.value == pytest.approx(expect, abs=1e-10)


def test_pressure_scalar_covariance(typical2):
    B = cocycle.scaled_cocycle(typical2, 0.4)
    pa = pressure(typical2, 1.0, list(range(2, 9)))
    pb = pressure(B, 1.0, list(range(2, 9)))
    assert pb.value - pa.value == pytest.approx(0.4, abs=1e-10)


def _local_holonomy_log_bound(A, s):
    """Exact bound on |log phi^s(H)| over all local holonomies of a
    radius-<=1 cocycle, by enumerating window pairs."""
    if A.radius == 0:
        return 0.0
    worst = 0.0
    for w1 in A.table:
        for w2 in A.table:
            if w1[1:] == w2[1:]:  # same present and future: stable pair
                h = np.linalg.inv(A.table[w2]) @ A.table[w1]
                worst = max(worst, abs(_log_phi(h, s)),
                            abs(_log_phi(np.linalg.inv(h), s)))
    return worst


def test_pressure_subadditive_up_to_distortion(radius1, typical2):
    s = 1.0
    for A in (typical2, radius1):
        ns = list(range(1, 9))
        est = pressure(A, s, ns)
        S = {n: n * p for n, p in zip(est.n_range, est.p_n)}
        D = 4 * _local_holonomy_log_bound(A, s)
        for n in ns:
            for m in ns:
                if n + m in S:
                    assert S[n + m] <= S[n] + S[m] + D + 1e-9


def test_cylinder_weights_normalized(typical2):
    cw = cylinder_weights(typical2, 1.0, [5])[5]
    v = cw.normalized()
    assert np.all(v > 0)
    assert np.sum(v) == pytest.approx(1.0)


def test_theorem_c_scalar_multiple(typical2, monkeypatch):
    B = cocycle.scaled_cocycle(typical2, 0.3)
    p, z, _ = typicality.find_typical_pair(typical2)
    cert = typicality.family_certificate([typical2, B], p, z)
    monkeypatch.setattr(thermo, "N_RANGE", (3, 4, 5, 6, 7, 8))
    monkeypatch.setattr(thermo, "TV_LEVELS", (2, 4, 6))
    rep = theorem_c_experiment(typical2, B, cert, 5, 1e-9)
    assert rep.constant_c == pytest.approx(-0.3, abs=1e-12)
    assert rep.max_deviation < 1e-12
    assert (rep.pressure_b.value - rep.pressure_a.value) == pytest.approx(
        0.3, abs=1e-4)
    for _, tv in rep.tv_by_n:
        assert tv < 1e-12
    assert all(o["proximal_both"] for o in rep.paired_orbits)
    # the common shadowing orbits realize the same top-exponent offset
    for o in rep.paired_orbits:
        assert o["lambda1_a"] - o["lambda1_b"] == pytest.approx(-0.3, abs=1e-10)


def test_theorem_c_identical_cocycles(typical2, monkeypatch):
    p, z, _ = typicality.find_typical_pair(typical2)
    cert = typicality.family_certificate([typical2, typical2], p, z)
    monkeypatch.setattr(thermo, "N_RANGE", (3, 4, 5, 6))
    monkeypatch.setattr(thermo, "TV_LEVELS", (2, 4))
    monkeypatch.setattr(thermo, "SAMPLE_WORDS", 2)
    rep = theorem_c_experiment(typical2, typical2, cert, 4, 1e-12)
    assert rep.constant_c == pytest.approx(0.0, abs=1e-14)
    assert rep.pressure_a.value == rep.pressure_b.value
    for _, tv in rep.tv_by_n:
        assert tv == 0.0


def test_theorem_c_sweeps_each_cocycle_once(typical2, monkeypatch):
    # the pressures over N_RANGE and the weights at TV_LEVELS come from one
    # sweep per cocycle, and match a pressure and weights of their own
    B = cocycle.scaled_cocycle(typical2, 0.3)
    p, z, _ = typicality.find_typical_pair(typical2)
    cert = typicality.family_certificate([typical2, B], p, z)
    calls = []
    sweep = thermo.sweep_log_singular

    def counted(A, n_list, *args, **kwargs):
        calls.append(sorted(n_list))
        return sweep(A, n_list, *args, **kwargs)

    monkeypatch.setattr(thermo, "sweep_log_singular", counted)
    rep = theorem_c_experiment(typical2, B, cert, 5, 1e-9)
    levels = sorted(set(thermo.N_RANGE) | set(thermo.TV_LEVELS))
    assert calls == [levels, levels]
    monkeypatch.setattr(thermo, "sweep_log_singular", sweep)
    assert rep.pressure_a == pressure(typical2, 1.0, thermo.N_RANGE)
    assert rep.pressure_b == pressure(B, 1.0, thermo.N_RANGE)
    for n, tv in rep.tv_by_n:
        va = cylinder_weights(typical2, 1.0, [n])[n].normalized()
        vb = cylinder_weights(B, 1.0, [n])[n].normalized()
        assert tv == float(0.5 * np.sum(np.abs(va - vb)))


def test_theorem_c_perturbed_not_constant(typical2):
    table = {w: m.copy() for w, m in typical2.table.items()}
    table[(1,)] = table[(1,)] + 1e-2 * np.array([[1.0, 0.0], [0.0, -1.0]])
    B = cocycle.WindowCocycle(typical2.base, 2, 0, table)
    p, z, _ = typicality.find_typical_pair(typical2)
    cert = typicality.family_certificate([typical2, B], p, z)
    with pytest.raises(NotConstant) as info:
        theorem_c_experiment(typical2, B, cert, 5, 1e-9)
    lo, hi = info.value.witness
    assert lo[1] != hi[1]
    diffs = dict(top_exponent_differences(typical2, B, 5))
    assert diffs[lo[0]] == pytest.approx(lo[1])
    assert diffs[hi[0]] == pytest.approx(hi[1])


def test_pressure_rejects_repeated_or_nonpositive_lengths(typical2):
    with pytest.raises(ValueError, match="repeats a length"):
        pressure(typical2, 1.5, (4, 4, 6))
    with pytest.raises(ValueError, match="lengths must be >= 1"):
        pressure(typical2, 1.5, (0, 2))
    with pytest.raises(ValueError, match="s must be >= 0"):
        pressure(typical2, -1.0, (2, 3))


def _no_sweep(*args, **kwargs):
    raise AssertionError("the sweep ran")


def test_pressure_refuses_lengths_over_the_sweep_budget(typical2, monkeypatch):
    # typical2x2 has 2^n words of length n: 16 fit a budget of 20, 32 do
    # not; the exact counts refuse them before the sweep
    monkeypatch.setattr(thermo, "SWEEP_BUDGET", 20)
    monkeypatch.setattr(thermo, "sweep_log_singular", _no_sweep)
    message = r"^lengths 5\.\.6 have more than 20 words, the exhaustive budget$"
    with pytest.raises(ValueError, match=message):
        pressure(typical2, 1.5, (2, 4, 5, 6))
    with pytest.raises(ValueError, match=message):
        cylinder_weights(typical2, 1.5, [4, 5, 6])


def test_sweep_budget_keeps_the_documented_runs():
    # golden3x3 to n = 30 (2,178,309 words) and the full 2-shift to n = 22
    golden, full = demos.golden_typical_3x3().base, demos.typical_3x3().base
    assert list(islice(sft.word_counts(golden), 30))[-1] == 2_178_309 <= thermo.SWEEP_BUDGET
    assert list(islice(sft.word_counts(full), 22))[-1] == thermo.SWEEP_BUDGET


def test_log_phi_s_rows_match_scalar():
    rng = np.random.default_rng(4)
    logs = np.sort(rng.normal(size=(50, 4)), axis=1)[:, ::-1]
    for s in (0.0, 0.5, 1.0, 2.3, 4.0, 5.5):
        rows = thermo.log_phi_s(logs, s)
        assert np.array_equal(rows, [thermo.log_phi_s(r, s) for r in logs])


@pytest.mark.parametrize("s", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "neg"])
def test_potential_and_pressure_reject_bad_s(typical2, s):
    with pytest.raises(ValueError, match="s must be >= 0 and finite"):
        thermo.log_phi_s(np.zeros(2), s)
    with pytest.raises(ValueError, match="s must be >= 0 and finite"):
        pressure(typical2, s, (2, 3))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "neg"])
def test_theorem_c_rejects_bad_tol(typical2, tol):
    p, z, _ = typicality.find_typical_pair(typical2)
    cert = typicality.family_certificate([typical2, typical2], p, z)
    with pytest.raises(ValueError, match="tol must be >= 0 and finite"):
        theorem_c_experiment(typical2, typical2, cert, 3, tol)


SPECIALS = st.sampled_from([float("inf"), -float("inf"), float("nan")])


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 4096), scale=st.floats(1e-12, 700.0), seed=st.integers(0, 2**16),
       ties=st.lists(st.integers(0, 4095), max_size=4),
       specials=st.lists(st.tuples(st.integers(0, 4095), SPECIALS), max_size=3))
def test_logsumexp_bytes_match_scipy(n, scale, seed, ties, specials):
    # the reference P_n were computed with; scipy < 1.15 used another formula
    from scipy.special import logsumexp

    a = np.random.default_rng(seed).uniform(-scale, scale, n)
    a[[i % n for i in ties]] = a.max()
    for i, v in specials:
        a[i % n] = v
    with np.errstate(all="ignore"):
        want = np.float64(logsumexp(a))
    assert np.float64(thermo._logsumexp(a)).tobytes() == want.tobytes()


def test_import_loads_no_scipy():
    src = Path(thermo.__file__).resolve().parents[1]
    code = ("import sys, coprox, coprox.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout == "[]\n"
