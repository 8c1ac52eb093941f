"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line with the measured quantities (run with -s to see them).

Criteria are pinned here, tolerances included; nothing is deferred to
later calibration.  Sampled criteria fix their seeds, so every run is
byte-reproducible.
"""

import time

import numpy as np
import pytest

from coprox import analysis, cocycle, demos, matnum, proximal, sft, thermo, typicality
from coprox.analysis import gap_profile, markov_sample, periodic_spectrum, theorem_b_check
from coprox.cocycle import (
    batch_log_singular,
    distortion_residual,
    holonomy_loop,
    holonomy_s,
    holonomy_u,
    product,
    rectangle,
)
from coprox.errors import NotConstant
from coprox.synthesis import (
    PathSpec,
    connect,
    path_matrix,
    verify_theorem_a,
)
from conftest import cycle_array


def report(name, ok, detail):
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


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
        if not sft.same_point(x, y):
            out.append((x, y))
    return out


def unstable_pairs(s, rng, count):
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
        if not sft.same_point(x, y):
            out.append((x, y))
    return out


@pytest.fixture(scope="module")
def typical2():
    return demos.typical_2x2()


@pytest.fixture(scope="module")
def typical2_cert(typical2):
    return typicality.find_typical_pair(typical2)


@pytest.fixture(scope="module")
def theorem_a_report(typical2, typical2_cert):
    """Criterion 4 experiment, shared with criterion 7 (its C_emp)."""
    _, _, cert = typical2_cert
    words = [markov_sample(typical2, 4 + (i * 36) // 49, 700 + i) for i in range(50)]
    t0 = time.perf_counter()
    rep = verify_theorem_a(typical2, cert, words, 0.05)
    return rep, time.perf_counter() - t0


def test_criterion_1_holonomy_exactness():
    t0 = time.perf_counter()
    A = demos.radius1_2x2()
    rng = np.random.default_rng(11)
    pairs = stable_pairs(A.base, rng, 100)
    trunc_worst = 0.0
    equi_worst = 0.0
    comp_worst = 0.0
    nontrivial = 0
    for x, y in pairs:
        h1 = holonomy_s(A, x, y)  # radius 1: the exact truncation
        h9 = np.linalg.inv(product(A, y, 9)) @ product(A, x, 9)
        trunc_worst = max(trunc_worst, float(np.linalg.norm(h1 - h9)))
        nontrivial += np.linalg.norm(h1 - np.eye(2)) > 1e-6
        lhs = A.at(x)
        rhs = holonomy_s(A, y.shift(1), x.shift(1)) @ A.at(y) @ h1
        equi_worst = max(equi_worst, float(
            np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)))
    assert nontrivial > 20  # guard against vacuously trivial pairs
    for x, y in unstable_pairs(A.base, rng, 100):
        hu1 = holonomy_u(A, x, y)
        hu9 = np.linalg.inv(product(A, y, -9)) @ product(A, x, -9)
        trunc_worst = max(trunc_worst, float(np.linalg.norm(hu1 - hu9)))
    for (x, y), (_, z0) in zip(pairs[:50], pairs[50:]):
        if x.coord(0) != z0.coord(0):
            continue
        z = sft.bracket(z0, x)
        comp = holonomy_s(A, y, z) @ holonomy_s(A, x, y)
        comp_worst = max(comp_worst, float(
            np.linalg.norm(comp - holonomy_s(A, x, z))))
    elapsed = time.perf_counter() - t0
    ok = trunc_worst < 1e-12 and equi_worst < 1e-10 and comp_worst < 1e-10 \
        and elapsed < 5.0
    report("criterion 1 (holonomy exactness)", ok,
           f"truncation {trunc_worst:.2e}, equivariance {equi_worst:.2e}, "
           f"composition {comp_worst:.2e}, {elapsed:.2f} s")


def test_criterion_2_identity_suite(typical2):
    t0 = time.perf_counter()
    worst = {}
    for name, A in [("radius1", demos.radius1_2x2()), ("typical2x2", typical2)]:
        s = A.base
        p = sft.fixed_point(s, 0)
        z = sft.homoclinic_point(s, 0, (1, 1))
        # four-holonomy distortion identity on a shared cylinder
        x = sft.point_from_word(s, (1, 0, 1, 1), 0)
        y = sft.point_from_word(s, (1, 0, 1, 1, 1, 0), 0)
        worst[f"{name}/distortion"] = distortion_residual(A, x, y, 4)
        # holonomy-loop identity
        psi = holonomy_loop(A, p, z)
        P = product(A, p, 1)
        ell = 4
        lhs = np.linalg.matrix_power(P, ell) @ psi
        rhs = holonomy_s(A, z.shift(ell), p) @ product(A, z, ell) \
            @ holonomy_u(A, p, z)
        worst[f"{name}/loop"] = float(
            np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))
        # connection identity
        def mk(win, wout):
            xx = sft.point_from_word(s, win, 0)
            yy = sft.point_from_word(s, wout, 0)
            mid = (xx.coord(0),) + (0,) * 3
            carrier = sft.bracket(
                xx, sft.point_from_word(s, mid + wout, 0))
            return PathSpec(xx, carrier, len(mid), yy)

        p1, p2 = mk((1, 0, 1), (0, 1, 1)), mk((0, 1, 1), (1, 1, 0))
        joined = connect(p1, p2)
        b = path_matrix(A, joined)
        r = rectangle(A, p1.y, p1.x0.shift(p1.n))
        expect = path_matrix(A, p2) @ r @ path_matrix(A, p1)
        worst[f"{name}/connect"] = float(
            np.linalg.norm(b - expect) / np.linalg.norm(b))
    elapsed = time.perf_counter() - t0
    bad = {k: v for k, v in worst.items() if v >= 1e-8}
    ok = not bad and elapsed < 10.0
    report("criterion 2 (identity suite)", ok,
           f"max residual {max(worst.values()):.2e} over {len(worst)} identities, "
           f"{elapsed:.2f} s")


def test_criterion_3_proximality_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)

    def ensemble(d, count):
        out = []
        while len(out) < count:
            if len(out) % 2 == 0:
                g = rng.normal(size=(d, d)) * 2.0
            else:
                u = matnum.unit(rng.normal(size=d))
                v = matnum.unit(rng.normal(size=d))
                if abs(u @ v) < 0.5:
                    v = matnum.unit(v + u if u @ v >= 0 else v - u)
                g = rng.uniform(30, 300) * np.outer(u, v) \
                    + 0.05 * rng.normal(size=(d, d))
            if abs(np.linalg.det(g)) > 1e-9:
                out.append(g)
        return out

    tits_true = eps_true = 0
    false_positives = violations = 0
    for d, count in ((2, 1000), (3, 500)):
        for g in ensemble(d, count):
            center = matnum.unit(g @ matnum.unit(rng.normal(size=d)))
            cert = proximal.tits_certify(g, center, 0.1)
            if cert.verdict:
                tits_true += 1
                if not proximal.is_proximal(g):
                    false_positives += 1
            if proximal.is_eps_proximal(g, 0.1):
                eps_true += 1
                defect = proximal.proximality_defect(g)
                if defect > proximal.certified_defect_bound(g) + 1e-9:
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = (false_positives == 0 and violations == 0 and tits_true > 50
          and eps_true > 50 and elapsed < 30.0)
    report("criterion 3 (proximality oracles)", ok,
           f"tits fired {tits_true} (0 false positives), eps fired {eps_true} "
           f"(0 defect violations), {elapsed:.2f} s")


def test_criterion_4_theorem_a(theorem_a_report):
    rep, elapsed = theorem_a_report
    total = len(rep.samples) + len(rep.failures)
    success = len(rep.samples) / total
    ks = [(r.n, r.n_q - r.n) for r in rep.samples]
    k_low = max(k for n, k in ks if 10 <= n <= 22)
    k_high = max(k for n, k in ks if 10 <= n)
    ok = (success >= 0.95 and abs(rep.slope) <= 0.01 and k_low == k_high
          and elapsed < 120.0)
    report("criterion 4 (theorem A desk scale)", ok,
           f"success {100 * success:.0f}%, slope {rep.slope:+.4f}, "
           f"C_emp {rep.empirical_c:.2f}, k {k_high} (constant for n >= 10), "
           f"{elapsed:.1f} s")


def test_criterion_5_theorem_b():
    times = {}
    t0 = time.perf_counter()
    prof = gap_profile(demos.constant_diag_4_1(), 1, list(range(1, 11)))
    a_ok = (abs(prof.slope - np.log(4.0)) < 1e-6
            and prof.r_squared > 1 - 1e-12)
    times["a"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    dom = demos.dominated_2x2()
    found = typicality.find_typical_pair(dom)
    repb = theorem_b_check(dom, found[2], 1, 10, list(range(2, 15)))
    b_ok = (repb.periodic_gap > 0 and repb.profile.slope > 0
            and repb.profile.r_squared > 0.99 and repb.verdict)
    times["b"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    planted = demos.planted_rotation_2x2()
    planted_found = typicality.find_typical_pair(planted)
    repc = theorem_b_check(planted, planted_found[2] if planted_found else None,
                           1, 8, list(range(2, 11)))
    lam_scale = max(abs(l[0]) for _, l in periodic_spectrum(planted, 8))
    c_ok = (abs(repc.periodic_gap) < 1e-12
            and repc.profile.slope < 0.05 * lam_scale)
    times["c"] = time.perf_counter() - t0

    ok = a_ok and b_ok and c_ok and all(v < 60.0 for v in times.values())
    report("criterion 5 (theorem B desk scale)", ok,
           f"(a) slope-log4 {abs(prof.slope - np.log(4)):.1e}; "
           f"(b) gap {repb.periodic_gap:.3f}, slope {repb.profile.slope:.3f}, "
           f"R2 {repb.profile.r_squared:.4f}; "
           f"(c) gap {repc.periodic_gap:.1e}, slope {repc.profile.slope:.2e} "
           f"< 0.05*{lam_scale:.2f}; times {times}")


def test_criterion_6_theorem_c(typical2, monkeypatch):
    t0 = time.perf_counter()
    B = cocycle.scaled_cocycle(typical2, 0.3)
    p, z, _ = typicality.find_typical_pair(typical2)
    cert = typicality.family_certificate([typical2, B], p, z)
    monkeypatch.setattr(thermo, "N_RANGE", (3, 4, 5, 6, 7, 8, 9, 10))
    monkeypatch.setattr(thermo, "TV_LEVELS", (2, 4, 6, 8))
    rep = thermo.theorem_c_experiment(typical2, B, cert, 5, 1e-9)
    diffs_ok = rep.max_deviation < 1e-12 and abs(rep.constant_c + 0.3) < 1e-12
    gap = rep.pressure_b.value - rep.pressure_a.value
    pressure_ok = abs(gap - 0.3) < 1e-4
    weights_ok = all(tv < 1e-12 for _, tv in rep.tv_by_n)
    # perturbed non-constant case
    table = {w: m.copy() for w, m in typical2.table.items()}
    table[(1,)] = table[(1,)] + 1e-2 * np.array([[1.0, 0.0], [0.0, -1.0]])
    Bp = cocycle.WindowCocycle(typical2.base, 2, 0, table)
    certp = typicality.family_certificate([typical2, Bp], p, z)
    try:
        thermo.theorem_c_experiment(typical2, Bp, certp, 5, 1e-9)
        negative_ok = False
    except NotConstant as exc:
        negative_ok = exc.witness is not None and len(exc.witness) == 2
    elapsed = time.perf_counter() - t0
    ok = diffs_ok and pressure_ok and weights_ok and negative_ok and elapsed < 60.0
    report("criterion 6 (theorem C exact case)", ok,
           f"diff spread {rep.max_deviation:.1e}, pressure gap-0.3 "
           f"{gap - 0.3:+.1e}, max TV {max(tv for _, tv in rep.tv_by_n):.1e}, "
           f"negative witnessed {negative_ok}, {elapsed:.1f} s")


def test_criterion_8_pressure_oracles():
    t0 = time.perf_counter()
    golden = demos.golden_typical_2x2()
    est0 = thermo.pressure(golden, 0.0, list(range(2, 21)))
    gold_ok = abs(est0.value - np.log((1 + np.sqrt(5)) / 2)) < 1e-5

    weighted = demos.golden_scalar_2_3()
    est1 = thermo.pressure(weighted, 1.0, list(range(2, 19)))
    T = weighted.base.matrix().astype(float)
    oracle = float(np.log(np.max(np.abs(
        np.linalg.eigvals(np.diag([2.0, 3.0]) @ T)))))
    weighted_ok = abs(est1.value - oracle) < 1e-4

    const = demos.constant_diag_4_1()
    est2 = thermo.pressure(const, 1.5, list(range(2, 9)))
    closed = np.log(2.0) + thermo.log_phi_s(matnum.mu_vec(np.diag([4.0, 1.0])), 1.5)
    const_ok = abs(est2.value - closed) < 1e-10
    elapsed = time.perf_counter() - t0
    ok = gold_ok and weighted_ok and const_ok and elapsed < 30.0
    report("criterion 8 (pressure oracles)", ok,
           f"golden s=0 err {abs(est0.value - np.log((1 + np.sqrt(5)) / 2)):.1e}, "
           f"weighted err {abs(est1.value - oracle):.1e}, "
           f"constant err {abs(est2.value - closed):.1e}, {elapsed:.1f} s")


def test_criterion_9_performance():
    # a runtime criterion: every sweep runs in the calling thread
    A = demos.golden_typical_3x3()
    words16 = sft.enumerate_words(A.base, 16)
    assert len(words16) == 2584
    t0 = time.perf_counter()
    logs = batch_log_singular(A, words16, 0)
    prof = gap_profile(A, 1, list(range(2, 17)))
    elapsed = time.perf_counter() - t0
    assert logs.shape == (2584, 3) and len(prof.minima) == 15
    report("criterion 9 (performance)", elapsed < 10.0,
           f"n=16 enumeration + profile in {elapsed:.2f} s")


def test_criterion_10_combinatorial_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    built = 0
    checked_counts = 0
    while built < 5:
        q = int(rng.integers(2, 5))
        T = (rng.random((q, q)) < 0.5).astype(int)
        try:
            s = sft.Sft.from_matrix(T)
        except Exception:
            continue
        Tm = s.matrix().astype(object)
        if int(np.trace(np.linalg.matrix_power(Tm, 12))) > 300_000:
            continue  # keep enumeration at desk scale
        built += 1
        for n in range(1, 13):
            expect = int(np.trace(np.linalg.matrix_power(Tm, n)))
            assert len(cycle_array(s, sft.word_array(s, n))) == expect
            checked_counts += 1
        m = sft.mixing_rate(s)
        for a in range(q):
            for b in range(q):
                assert sft.bridge(s, a, b, m) is not None
    elapsed = time.perf_counter() - t0
    report("criterion 10 (combinatorial oracles)", True,
           f"5 random primitive shifts, {checked_counts} trace identities, "
           f"bridges at the mixing rate for all pairs, {elapsed:.1f} s")
