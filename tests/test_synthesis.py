from collections import Counter

import numpy as np
import pytest

from coprox import analysis, cocycle, demos, matnum, sft, synthesis, thermo, typicality
from coprox.cocycle import holonomy_loop, orbit_mu_vec, product, rectangle
from coprox.errors import SingularMatrix, TurnCapExceeded
from coprox.proximal import eps_proximal_witness, is_eps_proximal
from coprox.synthesis import (
    SYNTHESIS_ERRORS,
    EndpointMismatch,
    PathSpec,
    build_family_context,
    build_proximal_periodic,
    connect,
    exterior_family_context,
    loop_path,
    path_matrix,
    synthesize_family,
    transversal_path,
    turn_direction,
    verify_theorem_a,
)
from coprox.typicality import eigen_frame
from conftest import ref_product_scaled


def make_path(A, word_in, word_out, base_symbol=0):
    """Simple path between canonical word points through the fixed symbol."""
    s = A.base
    x = sft.point_from_word(s, word_in, base_symbol)
    y = sft.point_from_word(s, word_out, base_symbol)
    bridge1 = sft.shortest_bridge(s, x.coord(0), base_symbol)
    bridge2 = sft.shortest_bridge(s, base_symbol, y.coord(0))
    mid = (x.coord(0),) + bridge1 + (base_symbol,) * 3 + bridge2
    carrier = sft.bracket(x, sft.point_from_word(s, mid + word_out, base_symbol))
    n = len(mid)
    return PathSpec(x, carrier, n, y)


def test_path_requires_leaves(typical2, full2):
    x = sft.point_from_word(full2, (0, 1), 0)
    y = sft.point_from_word(full2, (1, 0), 0)
    with pytest.raises(ValueError):
        PathSpec(x, y, 2, x)


def test_connect_identity_radius1(radius1):
    # both sides of the concatenation identity evaluated independently
    p1 = make_path(radius1, (1, 0, 1), (0, 1, 1))
    p2 = make_path(radius1, (0, 1, 1), (1, 1, 0))
    joined = connect(p1, p2)
    assert joined.n == p1.n + p2.n
    b = path_matrix(radius1, joined)
    r = rectangle(radius1, p1.y, p1.x0.shift(p1.n))
    expect = path_matrix(radius1, p2) @ r @ path_matrix(radius1, p1)
    assert np.linalg.norm(b - expect) / np.linalg.norm(b) < 1e-9


def test_connect_radius0_plain_product(typical2):
    p1 = make_path(typical2, (1, 1), (0, 1))
    p2 = make_path(typical2, (0, 1), (1, 0))
    joined = connect(p1, p2)
    expect = path_matrix(typical2, p2) @ path_matrix(typical2, p1)
    assert np.allclose(path_matrix(typical2, joined), expect)


def test_connect_endpoint_mismatch(typical2):
    p1 = make_path(typical2, (1, 1), (0, 1))
    p2 = make_path(typical2, (1, 0), (0, 0))
    with pytest.raises(EndpointMismatch):
        connect(p1, p2)


def test_loop_path_matrix_is_power_times_loop(radius1, full2):
    p = sft.fixed_point(full2, 0)
    z = sft.homoclinic_point(full2, 0, (1, 1))
    ell = 6
    lp = loop_path(p, z, ell)
    P = product(radius1, p, 1)
    psi = holonomy_loop(radius1, p, z)
    expect = np.linalg.matrix_power(P, ell) @ psi
    assert np.linalg.norm(path_matrix(radius1, lp) - expect) < 1e-10 * np.linalg.norm(expect)


def test_turn_direction_trivial_cases():
    frame = eigen_frame(np.diag([4.0, 1.0]))
    assert turn_direction([frame], [np.array([1.0, 0.0])], 0.1, 10) == 0
    assert turn_direction([frame], [np.array([0.0, 1.0])], 0.1, 10) == 0


def test_turn_direction_derived_example():
    # tan(angle to e1) after a steps is 4^-a; need <= tan(0.1)
    frame = eigen_frame(np.diag([4.0, 1.0]))
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    assert turn_direction([frame], [u], 0.1, 16) == 2
    with pytest.raises(TurnCapExceeded):
        turn_direction([frame], [u], 1e-9, 3)


def test_turn_direction_simultaneous(typical3, typical3_cert):
    p, z, _ = typical3_cert
    ctx = exterior_family_context(typical3, p, z)
    rng = np.random.default_rng(0)
    dirs = [matnum.unit(rng.normal(size=f.dim)) for f in ctx.forward.frames]
    a = turn_direction(ctx.forward.frames, dirs, 0.08, 256)
    for f, v in zip(ctx.forward.frames, dirs):
        turned = matnum.unit(np.linalg.matrix_power(f.matrix, a) @ v)
        assert min(matnum.rho(turned, f.vector(i)) for i in range(f.dim)) <= 0.08


def test_transversal_path_demo(typical2, typical2_cert):
    p, z, _ = typical2_cert
    ctx = exterior_family_context(typical2, p, z)
    x = sft.point_from_word(typical2.base, (1, 0, 1), 0)
    dirs = [np.array([0.0, 1.0])]
    normals = [np.array([0.0, 1.0])]  # keep e2-direction away from span(e1)...
    path, margins, _ = transversal_path(ctx, p, x, dirs, normals)
    assert margins[0] > 0
    bv = path_matrix(typical2, path) @ dirs[0]
    assert matnum.rho_to_hyperplane(bv, normals[0]) == pytest.approx(margins[0], rel=1e-6)


def test_transversal_path_d3(typical3, typical3_cert):
    p, z, _ = typical3_cert
    ctx = exterior_family_context(typical3, p, z)
    rng = np.random.default_rng(1)
    x = sft.point_from_word(typical3.base, (1, 1, 0), 0)
    dirs = [matnum.unit(rng.normal(size=f.dim)) for f in ctx.forward.frames]
    normals = [matnum.unit(rng.normal(size=f.dim)) for f in ctx.forward.frames]
    path, margins, _ = transversal_path(ctx, x, x, dirs, normals)
    for A, v, nrm, m in zip(ctx.forward.family, dirs, normals, margins):
        assert m > 0
        got = matnum.rho_to_hyperplane(path_matrix(A, path) @ v, nrm)
        assert got == pytest.approx(m, rel=1e-6)


def test_build_proximal_periodic_demo(typical2, typical2_cert):
    rep = build_proximal_periodic(typical2, typical2_cert[2], (1, 1, 1), 0.05)
    n_q = rep.n_q
    assert rep.n <= n_q
    # literal shadowing
    assert all(rep.q.symbols[(rep.j + i) % n_q] == (1, 1, 1)[i] for i in range(3))
    # certified quantified proximality of the closing product
    qpt = sft.periodic_point(rep.q)
    m, _ = ref_product_scaled(typical2, qpt, n_q)
    assert is_eps_proximal(m, 0.05)
    assert all(w.verdict for w in rep.witnesses)


def test_build_oracle_independent_routes(typical2, typical2_cert):
    # every reported claim re-verified through independent computations:
    # a plain eigensolver for the gap, a direct substring scan for the
    # least offset, and the period window
    rep = build_proximal_periodic(typical2, typical2_cert[2], (1, 1), 0.05)
    target = (1, 1)
    n_q = rep.n_q
    assert rep.n <= n_q <= rep.n + (n_q - rep.n)  # window recorded
    qpt = sft.periodic_point(rep.q)
    m, _ = ref_product_scaled(typical2, qpt, n_q)
    eigs = np.sort(np.abs(np.linalg.eigvals(m)))[::-1]
    assert eigs[0] > eigs[1] * np.exp(2 * 0.05)  # decisive dominant eigenvalue
    offsets = [
        j for j in range(n_q)
        if all(rep.q.symbols[(j + i) % n_q] == target[i] for i in range(2))
    ]
    assert offsets and rep.j == min(offsets)  # least matching offset reported


def test_synthesis_determinism(typical2, typical2_cert):
    a = build_proximal_periodic(typical2, typical2_cert[2], (1, 0, 1), 0.05)
    b = build_proximal_periodic(typical2, typical2_cert[2], (1, 0, 1), 0.05)
    assert a.q.symbols == b.q.symbols
    assert a.n_q == b.n_q and a.j == b.j and a.ell_used == b.ell_used
    assert a.bound_value == b.bound_value


def test_build_rejects_without_certificate(typical2, full2):
    A = demos.rotation_only_2x2()
    p = sft.fixed_point(full2, 0)
    z = sft.homoclinic_point(full2, 0, (1,))
    cert = typicality.typicality_check(A, p, z)
    assert not cert.passed
    with pytest.raises(ValueError):
        build_proximal_periodic(A, cert, (1, 0), 0.05)


def test_build_d1_closure():
    A = demos.scalar_2_3()
    rep = build_proximal_periodic(A, None, (1, 0, 1), 0.05)
    assert rep.q.symbols == (1, 0, 1)
    assert rep.n_q == 3 and rep.j == 0
    # scalar bound telescopes exactly over the (empty) bridge
    assert rep.bound_value == pytest.approx(0.0, abs=1e-12)


def test_build_d1_golden_bridge():
    A = demos.golden_scalar_2_3()
    rep = build_proximal_periodic(A, None, (1, 0, 1), 0.05)
    # wrap 1->1 is forbidden, so a shortest bridge (one 0) is appended
    assert rep.q.symbols == (1, 0, 1, 0)
    assert rep.n_q == 4
    # bound = |Birkhoff difference| = log a(0) over the single bridge step
    assert rep.bound_value == pytest.approx(np.log(2.0), abs=1e-12)


def test_synthesis_3x3_all_powers(typical3, typical3_cert):
    rep = build_proximal_periodic(typical3, typical3_cert[2], (1, 0, 1), 0.05)
    assert len(rep.witnesses) == 2
    assert all(w.verdict for w in rep.witnesses)
    n_q = rep.n_q
    qpt = sft.periodic_point(rep.q)
    for t in (1, 2):
        At = cocycle.exterior_cocycle(typical3, t)
        m, _ = ref_product_scaled(At, qpt, n_q)
        assert is_eps_proximal(m, 0.05)


def test_family_mode_two_cocycles(typical2):
    B = cocycle.scaled_cocycle(typical2, 0.3)
    p, z, _ = typicality.find_typical_pair(typical2)
    cert = typicality.family_certificate([typical2, B], p, z)
    assert cert.passed
    ctx = build_family_context([typical2, B], p, z)
    rep = synthesize_family(ctx, (1, 0, 0, 1), 0.05)
    qpt = sft.periodic_point(rep.q)
    for A in (typical2, B):
        m, _ = ref_product_scaled(A, qpt, rep.n_q)
        assert is_eps_proximal(m, 0.05)


@pytest.mark.parametrize("tau", [0.0, 0.9, float("nan")])
@pytest.mark.parametrize("entry", ["build", "family", "theorem_c"])
def test_tau_is_checked_first(typical2, typical2_cert, monkeypatch, entry, tau):
    # each entry point names tau itself, before any sweep or synthesis runs
    def no_sweep(*args, **kwargs):
        raise AssertionError("tau must be rejected before the pressure sweeps")

    monkeypatch.setattr(thermo, "sweep_log_singular", no_sweep)
    p, z, cert = typical2_cert
    calls = {
        "build": lambda: build_proximal_periodic(typical2, cert, (0, 1, 1), tau),
        "family": lambda: synthesize_family(
            exterior_family_context(typical2, p, z), (0, 1, 1), tau),
        "theorem_c": lambda: thermo.theorem_c_experiment(
            typical2, typical2, typicality.family_certificate([typical2, typical2], p, z),
            4, 1e-9, tau=tau),
    }
    with pytest.raises(ValueError, match=r"^tau must lie in \(0, pi/4\), got "):
        calls[entry]()


def test_loop_identity_at_used_ell(typical2, typical2_cert):
    p, z, cert = typical2_cert
    rep = build_proximal_periodic(typical2, cert, (1, 1), 0.05)
    ell = rep.ell_used
    P = product(typical2, p, 1)
    psi = holonomy_loop(typical2, p, z)
    lhs = np.linalg.matrix_power(P, ell) @ psi
    rhs = cocycle.holonomy_s(typical2, z.shift(ell), p) @ product(typical2, z, ell) \
        @ cocycle.holonomy_u(typical2, p, z)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-10


def test_verify_theorem_a_small(typical2, typical2_cert):
    words = [(1, 0), (0, 1, 1), (1, 1, 0, 0), (0, 0, 1, 0, 1)]
    rep = verify_theorem_a(typical2, typical2_cert[2], words, 0.05)
    assert not rep.failures
    assert rep.empirical_c >= max(r.bound_value for r in rep.samples)
    assert rep.empirical_k == max(r.n_q - r.n for r in rep.samples)


def test_failures_collected_at_tiny_cap(typical2, typical2_cert):
    # an unreachable loop cap is reported per sample, not raised
    from coprox.errors import SynthesisFailed

    words = [(1, 1), (0, 1)]
    with pytest.raises(SynthesisFailed):
        # every sample failing is itself an error
        verify_theorem_a(typical2, typical2_cert[2], words, 0.05, ell_cap=2)


def test_period_overhead_quantized(typical2, typical2_cert):
    reps = [
        build_proximal_periodic(typical2, typical2_cert[2], w, 0.05)
        for w in [(1, 0), (0, 0, 1, 1), (1, 1, 1, 0, 1)]
    ]
    overheads = {r.n_q - r.n for r in reps}
    assert len(overheads) == 1  # one common period overhead per cocycle


@pytest.fixture(scope="module")
def synth_demos():
    """The demos the synthesis benchmark runs, with their certificates."""
    out = []
    for name in ("typical_2x2", "typical_3x3", "radius1_2x2", "dominated_2x2"):
        A = getattr(demos, name)()
        out.append((A, typicality.find_typical_pair(A)[2]))
    return out


def _traced_transversal(monkeypatch):
    """Record each transversal path the synthesis builds, with its
    directions and normals."""
    calls = []
    real = synthesis.transversal_path

    def traced(ctx, x, y, dirs, normals, **kwargs):
        out = real(ctx, x, y, dirs, normals, **kwargs)
        calls.append((out[0], dirs, normals))
        return out

    monkeypatch.setattr(synthesis, "transversal_path", traced)
    return calls


@pytest.mark.parametrize("length", [5, 24, 96, 300])
def test_shared_closing_products_match_direct_products(synth_demos, length, monkeypatch):
    # margins, witnesses and bound come from folds continued along the
    # construction; each must equal the product taken afresh
    calls = _traced_transversal(monkeypatch)
    for A, cert in synth_demos:
        word = analysis.markov_sample(A, length, 2)
        rep = build_proximal_periodic(A, cert, word, 0.05)
        members = [cocycle.exterior_cocycle(A, t) for t in range(1, A.dim)]
        path, dirs, normals = calls[-1]
        fresh = []
        for B, v, nrm in zip(members, dirs, normals):
            m, _ = ref_product_scaled(B, path.x0, path.n)
            w = cocycle.holonomy_s(B, path.end, path.y) @ (
                m @ (cocycle.holonomy_u(B, path.x, path.x0) @ matnum.unit(v)))
            fresh.append(matnum.rho_to_hyperplane(matnum.unit(w), nrm))
        assert rep.transversality_margins == tuple(fresh)
        qpt = sft.periodic_point(rep.q)
        assert rep.witnesses == tuple(
            eps_proximal_witness(ref_product_scaled(B, qpt, rep.n_q)[0], 0.05) for B in members)
        x = sft.point_from_word(A.base, word, cert.p.coord(0))
        chi = cocycle.cycle_chi_rows(A, np.array([rep.q.symbols]))[0]
        assert rep.bound_value == float(np.linalg.norm(orbit_mu_vec(A, x, rep.n) - chi))


@pytest.mark.parametrize("length", [24, 200])
def test_each_member_folds_the_orbit_once(synth_demos, length, monkeypatch):
    # kernel steps per member, by phase: each transversal attempt, then
    # everything after the transversal path.  A fold continuing another
    # multiplies its new windows plus the k tail windows the other's trunk
    # left out; nothing else is folded twice.
    steps, phase, periods, paths = Counter(), [None], [], []
    kernel, to_top = synthesis._extend_products, synthesis._path_to_top
    periodic, transversal = synthesis.make_periodic, synthesis.transversal_path

    def counted(mats, idx, prods, scales):
        steps[phase[0], id(mats)] += idx.size
        return kernel(mats, idx, prods, scales)

    def attempt(side, *args):
        if side.family[0] is cocycle.exterior_cocycle(forward, 1):  # the forward leg opens an attempt
            phase[0] = 0 if phase[0] is None else phase[0] + 1
        return to_top(side, *args)

    def closing(base, symbols):
        periods.append(len(symbols))
        return periodic(base, symbols)

    def traced(*args, **kwargs):
        out = transversal(*args, **kwargs)
        paths.append(out[0])
        phase[0] = "after"
        return out

    monkeypatch.setattr(synthesis, "_extend_products", counted)
    monkeypatch.setattr(synthesis, "_path_to_top", attempt)
    monkeypatch.setattr(synthesis, "make_periodic", closing)
    monkeypatch.setattr(synthesis, "transversal_path", traced)
    for forward, cert in synth_demos:
        word = analysis.markov_sample(forward, length, 2)
        steps.clear()
        periods.clear()
        paths.clear()
        phase[0] = None
        try:
            rep = build_proximal_periodic(forward, cert, word, 0.05)
        except SingularMatrix:
            continue  # the long-word defect ends the synthesis before any fold
        k, (path,) = forward.radius, paths
        last = max(key for key, _ in steps if isinstance(key, int))
        assert rep.n_q in periods
        for t in range(1, forward.dim):
            mats = id(cocycle.exterior_cocycle(forward, t)._mats)
            # the accepted attempt: the entry path, its loop and the path on
            # to the word, each continuing the one before
            assert steps[last, mats] <= path.n + 2 * k
            # g and the turn, then every loop once: the path through g
            # continues the transversal path, each closing the fold before
            assert steps["after", mats] <= periods[-1] - path.n + k * (1 + len(periods))


def test_closing_trunk_continued_only_on_its_own_rows(radius1):
    def fold(word, trunk=None):
        qpt = sft.periodic_point(sft.make_periodic(radius1.base, word))
        rows = cocycle._orbit_rows(radius1, qpt, len(word))
        return (rows, *synthesis._fold(radius1, rows, trunk))

    head = (0, 1, 1, 0, 1, 1)
    rows, (prods, scales), _ = fold(head + (0,) * 24)
    fresh_m, fresh_s = ref_product_scaled(radius1, sft.periodic_point(
        sft.make_periodic(radius1.base, head + (0,) * 24)), 30)
    assert np.array_equal(prods[0], fresh_m) and scales[0] == fresh_s
    _, _, (done, t_prods, t_scales) = fold(head + (0,) * 8)
    assert done.shape[1] == 13 and np.array_equal(rows[:, :13], done)
    # the rows extend the trunk's: its product is continued (an offset
    # planted in its log scale survives), giving the same matrix
    _, (prods, scales), _ = fold(head + (0,) * 24, (done, t_prods, t_scales + 1.0))
    assert np.array_equal(prods[0], fresh_m) and scales[0] != fresh_s
    assert scales[0] == pytest.approx(fresh_s + 1.0)
    # a trunk from another orbit is not continued, nor one reaching into the
    # new orbit's wrapped windows, although here its rows agree with them
    _, _, (o_done, o_prods, o_scales) = fold((1, 1, 1, 1, 0, 1) + (0,) * 8)
    _, _, (l_done, l_prods, l_scales) = fold(head + (0,) * 25)
    assert np.array_equal(rows[:, :30], l_done)
    for trunk in ((o_done, o_prods, o_scales + 1.0), (l_done, l_prods, l_scales + 1.0)):
        _, (prods, scales), _ = fold(head + (0,) * 24, trunk)
        assert np.array_equal(prods[0], fresh_m) and scales[0] == fresh_s


def test_path_trunk_continued_only_by_its_extensions(radius1, radius1_cert):
    # the turned and looped entry path continues the entry path's trunk
    # (the offset planted in its log scale survives); a path from another
    # point starts over; both give the direction of a fresh product
    p, z, _ = radius1_cert
    x = sft.point_from_word(radius1.base, (1, 1, 0), 0)
    v = np.array([1.0, 2.0])
    entry = synthesis._entry_path(radius1.base, x, p, slack=2)
    _, (done, prods, scales) = synthesis.path_direction(radius1, entry, v)
    assert done.shape[1] == entry.n - 1
    longer = connect(synthesis.extend_at_fixed_target(entry, 3), loop_path(p, z, 12))
    other = synthesis._entry_path(radius1.base, sft.point_from_word(radius1.base, (0, 1), 0),
                                  p, slack=2)
    for path, offset in ((longer, 1.0), (other, 0.0)):
        u, (_, _, got) = synthesis.path_direction(radius1, path, v, (done, prods, scales + 1.0))
        m, _ = ref_product_scaled(radius1, path.x0, path.n)
        assert np.array_equal(u, matnum.unit(
            cocycle.holonomy_s(radius1, path.end, path.y)
            @ (m @ (cocycle.holonomy_u(radius1, path.x, path.x0) @ matnum.unit(v)))))
        # the trunk handed on stops k windows short of the path's end
        trunk_scale = ref_product_scaled(radius1, path.x0, path.n - 1)[1]
        assert got[0] == pytest.approx(trunk_scale + offset)


def test_family_context_built_once_per_cocycle_and_pair(monkeypatch):
    A = demos.typical_2x2()  # a new cocycle, so nothing is memoised yet
    cert = typicality.find_typical_pair(A)[2]
    calls = []
    build = synthesis.build_family_context

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(synthesis, "build_family_context", counted)
    words = [analysis.markov_sample(A, 4 + 3 * i, i) for i in range(10)]
    rep = verify_theorem_a(A, cert, words, 0.05)
    assert len(rep.samples) + len(rep.failures) == 10
    verify_theorem_a(A, cert, words[:2], 0.05)
    assert len(calls) == 1


@pytest.mark.parametrize("error", SYNTHESIS_ERRORS)
def test_per_word_synthesis_errors_are_recorded(typical2, typical2_cert, monkeypatch, error):
    real = synthesis.build_proximal_periodic

    def failing_on_length_3(A, cert, word, tau, **kwargs):
        if len(word) == 3:
            raise error("no orbit for this word")
        return real(A, cert, word, tau, **kwargs)

    monkeypatch.setattr(synthesis, "build_proximal_periodic", failing_on_length_3)
    monkeypatch.setattr(analysis, "build_proximal_periodic", failing_on_length_3)
    words = [(1, 0), (0, 1, 1), (1, 1, 0, 0)]
    cert = typical2_cert[2]
    expect = (((0, 1, 1), "no orbit for this word"),)
    rep = verify_theorem_a(typical2, cert, words, 0.05)
    assert rep.failures == expect and len(rep.samples) == 2
    rep_d = analysis.theorem_d_check(typical2, cert, words, c_emp=40.0, tau=0.05)
    assert rep_d.failures == expect and len(rep_d.samples) == 2


def test_long_word_failure_does_not_abort_theorem_a(typical3, typical3_cert):
    # seed-5 words of length 160 hit the long-word defect on typical3x3
    # (SingularMatrix); it must cost that word only
    words = [analysis.markov_sample(typical3, n, 5) for n in (48, 160)]
    rep = verify_theorem_a(typical3, typical3_cert[2], words, 0.05)
    assert len(rep.samples) + len(rep.failures) == 2 and rep.samples


@pytest.mark.parametrize("offset", [0, 1, 5, 11])
@pytest.mark.parametrize("length", [1, 4, 12, 30])
def test_shadow_offset_is_the_least_cyclic_match(offset, length):
    q = sft.PeriodicWord((0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1))
    word = tuple(q.symbols[(offset + i) % 12] for i in range(length))
    least = next(j for j in range(12)
                 if all(q.symbols[(j + i) % 12] == word[i] for i in range(length)))
    assert synthesis._shadow_offset(q, word) == least
