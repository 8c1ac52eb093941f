import json
from collections import Counter
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from coprox import analysis, cocycle, demos, errors, matnum, sft, synthesis, thermo, typicality
from coprox.cocycle import holonomy_loop, orbit_mu_vec, product, rectangle
from coprox.errors import SynthesisFailed, TurnCapExceeded
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
from conftest import ref_eig_top, ref_product_scaled


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


def _check_transversal_path(ctx, y, normals):
    # the path runs from p, each frame's top direction moved clear of its
    # hyperplane by the margin the path matrix gives
    path, margins, _ = transversal_path(ctx, y, normals)
    assert path.x == ctx.forward.p and path.y == y
    assert len(margins) == len(ctx.forward.family)
    for A, f, nrm, m in zip(ctx.forward.family, ctx.forward.frames, normals, margins):
        assert m > 0
        got = matnum.rho_to_hyperplane(path_matrix(A, path) @ f.vector(0), nrm)
        assert got == pytest.approx(m, rel=1e-6)


def test_transversal_path_demo(typical2, typical2_cert):
    p, z, _ = typical2_cert
    ctx = exterior_family_context(typical2, p, z)
    rng = np.random.default_rng(0)
    x = sft.point_from_word(typical2.base, (1, 0, 1), 0)
    _check_transversal_path(ctx, x, [matnum.unit(rng.normal(size=2))])


def test_transversal_path_d3(typical3, typical3_cert):
    p, z, _ = typical3_cert
    ctx = exterior_family_context(typical3, p, z)
    rng = np.random.default_rng(1)
    x = sft.point_from_word(typical3.base, (1, 1, 0), 0)
    _check_transversal_path(ctx, x, [matnum.unit(rng.normal(size=f.dim))
                                     for f in ctx.forward.frames])


def test_transversal_path_takes_one_normal_per_member(typical3, typical3_cert):
    p, z, _ = typical3_cert
    ctx = exterior_family_context(typical3, p, z)
    x = sft.point_from_word(typical3.base, (1, 1, 0), 0)
    normals = [f.hyperplane_normal(1) for f in ctx.forward.frames]
    for wrong in (normals[:1], [], normals + normals[:1]):
        with pytest.raises(ValueError, match=f"{len(wrong)} normals for 2 members"):
            transversal_path(ctx, x, wrong)


def test_empty_family_is_refused_at_build(typical2_cert):
    p, z, _ = typical2_cert
    with pytest.raises(ValueError, match="empty family"):
        build_family_context([], p, z)


def test_theorem_a_refuses_no_words(typical2, typical2_cert):
    # no sample ran, so none failed
    with pytest.raises(ValueError, match="no words"):
        verify_theorem_a(typical2, typical2_cert[2], [], 0.05)


def _hyperplane_wedge(normal):
    """Unit wedge coordinates, lexicographic basis, of an orthonormal
    basis of normal^perp."""
    b = matnum.hyperplane_basis(normal)
    d = len(normal)
    return matnum.unit(np.array([np.linalg.det(b[list(I), :])
                                 for I in combinations(range(d), d - 1)]))


def _wedge_reverse_side(ctx):
    """The reverse side built the other way: each member's inverse cocycle
    over the reversed subshift, its (d-1)-th exterior power moving
    hyperplane wedges."""
    family = tuple(
        cocycle.exterior_cocycle(cocycle.WindowCocycle(
            sft.reverse_sft(B.base), B.dim, B.radius,
            {w[::-1]: np.linalg.inv(m) for w, m in B.table.items()}), B.dim - 1)
        for B in ctx.forward.family)
    return synthesis._side(family, sft.reverse_point(ctx.forward.p),
                           sft.reverse_point(ctx.forward.z))


@pytest.mark.parametrize("name", ["typical2", "typical3", "radius1", "dim4"])
def test_normals_on_the_transposed_family_keep_the_wedge_paths(name, request, monkeypatch):
    # the transposed family on normals and the inverse family's exterior
    # power on wedges are conjugate by a signed permutation, so every angle
    # the reverse leg compares is the same, and so are the paths, margins
    # and trunks
    A = request.getfixturevalue(name)
    calls = []
    real, to_top = synthesis.transversal_path, synthesis._path_to_top

    def traced(ctx, y, normals):
        calls.append((ctx, y, normals))
        return real(ctx, y, normals)

    monkeypatch.setattr(synthesis, "transversal_path", traced)
    cert = typicality.find_typical_pair(A)[2]
    for seed, length in enumerate((3, 7, 12, 20, 40, 64, 90, 130)):
        build_proximal_periodic(A, cert, analysis.markov_sample(A, length, seed), 0.05)
    assert len(calls) == 8
    ctx = calls[0][0]
    # and arbitrary hyperplanes, which send the reverse leg turning more often
    rng = np.random.default_rng(7)
    for seed in range(4):
        x = sft.point_from_word(A.base, analysis.markov_sample(A, 6, seed), ctx.forward.p.coord(0))
        calls.append((ctx, x, [matnum.unit(rng.normal(size=f.dim)) for f in ctx.forward.frames]))
    wedge = replace(ctx, reverse=_wedge_reverse_side(ctx))

    def wedge_to_top(side, x, dirs, *args):
        if side is wedge.reverse:
            dirs = [_hyperplane_wedge(nrm) for nrm in dirs]
        return to_top(side, x, dirs, *args)

    angles, worst = [], synthesis._worst_angle

    def recorded(frames, u):
        angles[-1].append(worst(frames, u))
        return angles[-1][-1]

    monkeypatch.setattr(synthesis, "_path_to_top", wedge_to_top)
    monkeypatch.setattr(synthesis, "_worst_angle", recorded)
    for _, y, normals in calls:
        angles.append([])
        path, margins, trunks = real(ctx, y, normals)
        angles.append([])
        path_w, margins_w, trunks_w = real(wedge, y, normals)
        # the angles each leg tests against its target, in the same order
        assert len(angles[-2]) == len(angles[-1])
        assert np.allclose(angles[-2], angles[-1], rtol=0, atol=1e-9)
        assert path == path_w
        assert np.array(margins).tobytes() == np.array(margins_w).tobytes()
        assert all(np.array_equal(a, b) for t, t_w in zip(trunks, trunks_w)
                   for a, b in zip(t, t_w))


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


def test_scalar_family_closes_like_a_scalar_cocycle():
    # no hyperplane in dimension 1: each word closes through a shortest
    # bridge, with no bound, as every family report
    A = demos.scalar_2_3()
    B = cocycle.scaled_cocycle(A, 0.3)
    p, z, cert = typicality.find_typical_pair(A)
    ctx = build_family_context([A, B], p, z)
    for word in [(1,), (0, 1, 1), (1, 1, 0, 1, 0)]:
        rep = synthesize_family(ctx, word, 0.05)
        assert rep == replace(build_proximal_periodic(A, cert, word, 0.05), bound_value=None)


def test_family_mixing_scalar_and_larger_members_is_refused_at_build(typical2, typical2_cert):
    # a scalar member has no hyperplane to steer clear of and a larger one
    # needs one: the mix is refused with the context, not deep in the g path
    p, z, _ = typical2_cert
    for family in ([demos.scalar_2_3(), typical2], [typical2, demos.scalar_2_3()]):
        with pytest.raises(ValueError, match=r"mixes scalar and larger members \(sizes \[1, 2\]\)"):
            build_family_context(family, p, z)


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
    """Record each transversal path the synthesis builds, with the frames'
    top directions it moves and its normals."""
    calls = []
    real = synthesis.transversal_path

    def traced(ctx, y, normals):
        out = real(ctx, y, normals)
        calls.append((out[0], [f.vector(0) for f in ctx.forward.frames], normals))
        return out

    monkeypatch.setattr(synthesis, "transversal_path", traced)
    return calls


def _traced_connect(monkeypatch):
    """Record each concatenation the synthesis makes: (path1, path2, joined)."""
    calls = []
    real = synthesis.connect

    def traced(path1, path2):
        out = real(path1, path2)
        calls.append((path1, path2, out))
        return out

    monkeypatch.setattr(synthesis, "connect", traced)
    return calls


def _ref_closing(B, n1, g, gb, qpt, n_q):
    """The closing product the declared grouping gives, one step at a time:
    the 2k joint windows continue the transversal path's fold (its first
    n1 - k windows are those of gb's carrier), one rescaled product joins
    g's fold up to g.n - k windows through A^k(x)^-1, and the closing
    windows from gb.n - k on continue that."""
    k = B.radius
    head, s_head = ref_product_scaled(B, gb.x0, n1 + k)
    tail, s_tail = ref_product_scaled(B, g.x0, g.n - k)
    m = tail @ np.linalg.solve(product(B, g.x0, k), head)
    e = int(np.frexp(np.max(np.abs(m)))[1])
    return ref_product_scaled(B, qpt, n_q, start=(np.ldexp(m, -e), s_tail + s_head + e),
                              first=gb.n - k)


@pytest.mark.parametrize("length", [5, 24, 96, 300])
def test_shared_closing_products_match_direct_products(synth_demos, length, monkeypatch):
    # margins and bound come from folds continued along the construction
    # and must equal the products taken afresh; the closing products join
    # g's fold instead of refolding g, so they must equal a reference with
    # that grouping byte for byte, and a fresh left-to-right fold to 1e-11
    # (the worst seen over these demos, n = 5..2000, is 2e-14; the bound
    # then moves by at most 1e-13)
    calls = _traced_transversal(monkeypatch)
    joins = _traced_connect(monkeypatch)
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
        (g, gb), = [(p2, out) for p1, p2, out in joins if p1 is path]
        qpt = sft.periodic_point(rep.q)
        rungs = [0.0]
        for B, witness in zip(members, rep.witnesses):
            m, s = _ref_closing(B, path.n, g, gb, qpt, rep.n_q)
            assert witness == eps_proximal_witness(m, 0.05)
            rungs.append(s * np.log(2.0) + np.log(ref_eig_top(m)))
            m_fresh, s_fresh = ref_product_scaled(B, qpt, rep.n_q)
            a, b = m / np.linalg.norm(m), m_fresh / np.linalg.norm(m_fresh)
            assert min(np.linalg.norm(a - b), np.linalg.norm(a + b)) <= 1e-11
            log_norm = s_fresh * np.log(2.0) + np.log(np.linalg.norm(m_fresh))
            assert (abs(s * np.log(2.0) + np.log(np.linalg.norm(m)) - log_norm)
                    <= 1e-11 * max(1.0, abs(log_norm)))
            assert eps_proximal_witness(m_fresh, 0.05).verdict
        # the bound: the word's ladder is orbit_mu_vec's, byte for byte;
        # the closing's reads the joined products
        logdet = 0.0
        for j in range(rep.n_q):
            logdet += np.linalg.slogdet(A.at(qpt, j))[1]
        x = sft.point_from_word(A.base, word, cert.p.coord(0))
        mu = orbit_mu_vec(A, x, rep.n)
        assert rep.bound_value == float(np.linalg.norm(mu - np.diff(rungs + [logdet])))
        chi = cocycle.cycle_chi_rows(A, np.array([rep.q.symbols]))[0]
        assert rep.bound_value == pytest.approx(float(np.linalg.norm(mu - chi)), abs=1e-10)


@pytest.mark.parametrize("length", [24, 200, 1000])
def test_each_member_folds_the_orbit_once(length, monkeypatch):
    # kernel steps per member (the rows of its block of its size group's
    # table), by phase: the context's start when the
    # context is built, the word and g before the first transversal
    # attempt, each attempt, then everything after the transversal path.
    # Each window of the word and of g is folded once; the path through g
    # folds only its 2k joint windows and its last k, and a fold continuing
    # another multiplies its new windows plus the k tail windows the
    # other's trunk left out.  Nothing else is folded twice.
    steps, phase, periods, paths = Counter(), [None], [], []
    kernel, to_top = synthesis._extend_products, synthesis._path_to_top
    periodic, transversal = synthesis.make_periodic, synthesis.transversal_path
    build = synthesis.build_family_context
    joins = _traced_connect(monkeypatch)

    def counted(mats, every, idx, prods, scales):
        for block in idx[:, :1].ravel() // windows:
            steps[phase[0], (id(mats), block)] += idx.shape[1]
        return kernel(mats, every, idx, prods, scales)

    def context(*args):
        phase[0] = "context"
        try:
            return build(*args)
        finally:
            phase[0] = None

    def attempt(side, *args):
        # the reverse leg opens an attempt
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
    monkeypatch.setattr(synthesis, "build_family_context", context)
    monkeypatch.setattr(synthesis, "_path_to_top", attempt)
    monkeypatch.setattr(synthesis, "make_periodic", closing)
    monkeypatch.setattr(synthesis, "transversal_path", traced)
    for name in SYNTH_DEMOS:
        forward, cert = _fresh_demo(name)
        windows = len(forward._mats)
        word = analysis.markov_sample(forward, length, 2)
        steps.clear()
        periods.clear()
        paths.clear()
        phase[0] = None
        rep = build_proximal_periodic(forward, cert, word, 0.05)
        ctx = exterior_family_context(forward, cert.p, cert.z)
        start = ctx.start[0]
        k, (path,) = forward.radius, paths
        (g, gb), = [(p2, out) for p1, p2, out in joins if p1 is path]
        last = max(key for key, _ in steps if isinstance(key, int))
        assert rep.n_q in periods and g.n > len(word)
        members = [(id(G.mats), j) for G in ctx.forward.groups for j in range(len(G.index))]
        assert len(members) == forward.dim - 1
        for mats in members:
            # the start, folded once with the context
            assert steps["context", mats] == start.n
            # the word's windows, then g's on from them
            assert steps[None, mats] == g.n
            # the accepted attempt: the path on from the start's trunk,
            # which stops k windows short of the start's end
            assert steps[last, mats] == path.n - start.n + k
            # the path through g joins g's fold, then every loop once, each
            # closing continuing the fold before
            assert steps["after", mats] == 3 * k + periods[-1] - gb.n + k * len(periods)
        # the word again: the context and its start are kept
        steps.clear()
        phase[0] = None
        build_proximal_periodic(forward, cert, word, 0.05)
        assert not any(key[0] == "context" for key in steps)


def test_closing_trunk_continued_only_on_its_own_rows(radius1):
    group, = synthesis._groups((radius1,))

    def fold(word, trunk=None):
        qpt = sft.periodic_point(sft.make_periodic(radius1.base, word))
        rows = cocycle._orbit_rows(radius1, qpt, len(word))
        return (rows, *synthesis._fold(group, rows, trunk))

    head = (0, 1, 1, 0, 1, 1)
    rows, (prods, scales), _ = fold(head + (0,) * 24)
    fresh_m, fresh_s = ref_product_scaled(radius1, sft.periodic_point(
        sft.make_periodic(radius1.base, head + (0,) * 24)), 30)
    assert np.array_equal(prods[:, :, 0], fresh_m) and scales[0] == fresh_s
    _, _, (done, t_prods, t_scales) = fold(head + (0,) * 8)
    assert done.shape[1] == 13 and np.array_equal(rows[:, :13], done)
    # the rows extend the trunk's: its product is continued (an offset
    # planted in its binary scale survives), giving the same matrix
    _, (prods, scales), _ = fold(head + (0,) * 24, (done, t_prods, t_scales + 1))
    assert np.array_equal(prods[:, :, 0], fresh_m) and scales[0] == fresh_s + 1
    # a trunk from another orbit is not continued, nor one reaching into the
    # new orbit's wrapped windows, although here its rows agree with them
    _, _, (o_done, o_prods, o_scales) = fold((1, 1, 1, 1, 0, 1) + (0,) * 8)
    _, _, (l_done, l_prods, l_scales) = fold(head + (0,) * 25)
    assert np.array_equal(rows[:, :30], l_done)
    for trunk in ((o_done, o_prods, o_scales + 1), (l_done, l_prods, l_scales + 1)):
        _, (prods, scales), _ = fold(head + (0,) * 24, trunk)
        assert np.array_equal(prods[:, :, 0], fresh_m) and scales[0] == fresh_s


def test_path_trunk_continued_only_by_its_extensions(radius1, radius1_cert):
    # the turned and looped entry path continues the entry path's trunk
    # (the offset planted in its binary scale survives); a path from another
    # point starts over; both give the direction of a fresh product
    p, z, _ = radius1_cert
    x = sft.point_from_word(radius1.base, (1, 1, 0), 0)
    v = np.array([1.0, 2.0])
    entry = synthesis._entry_path(radius1.base, x, p)
    side = synthesis._side((radius1,), p, z)
    _, ((done, prods, scales),) = synthesis.path_direction(side, entry, [v])
    assert done.shape[1] == entry.n - 1
    longer = connect(synthesis.extend_at_fixed_target(entry, 3), loop_path(p, z, 12))
    other = synthesis._entry_path(radius1.base, sft.point_from_word(radius1.base, (0, 1), 0),
                                  p)
    for path, offset in ((longer, 1), (other, 0)):
        (u,), ((_, _, got),) = synthesis.path_direction(side, path, [v],
                                                        ((done, prods, scales + 1),))
        m, _ = ref_product_scaled(radius1, path.x0, path.n)
        assert np.array_equal(u, matnum.unit(
            cocycle.holonomy_s(radius1, path.end, path.y)
            @ (m @ (cocycle.holonomy_u(radius1, path.x, path.x0) @ matnum.unit(v)))))
        # the trunk handed on stops k windows short of the path's end
        trunk_scale = ref_product_scaled(radius1, path.x0, path.n - 1)[1]
        assert got[0] == trunk_scale + offset


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


SYNTH_DEMOS = ("typical_2x2", "typical_3x3", "radius1_2x2", "dominated_2x2")


def _fresh_demo(name):
    """A new cocycle of the demo, nothing memoised for synthesis yet, and
    its certificate."""
    A = getattr(demos, name)()
    return A, typicality.find_typical_pair(A)[2]


def _synthesize_samples(A, cert, count):
    for i in range(count):
        try:
            build_proximal_periodic(A, cert, analysis.markov_sample(A, 3 + 7 * i, 100 + i), 0.05)
        except SYNTHESIS_ERRORS:
            pass


def _witness_floats(rep) -> bytes:
    return np.array([(w.eps, w.angle, w.image_angle_sin, w.contraction)
                     for w in rep.witnesses]).tobytes()


@pytest.mark.parametrize("name", SYNTH_DEMOS)
def test_a_word_gets_the_same_bytes_on_a_cold_and_a_warm_cocycle(name):
    # the context with its start and the holonomies are kept per cocycle,
    # under keys that hold no word: the first synthesis on a cocycle builds
    # them, and a later one reads them back with the same bytes
    A, cert = _fresh_demo(name)
    word = analysis.markov_sample(A, 40, 7)
    cold = build_proximal_periodic(A, cert, word, 0.05)
    _synthesize_samples(A, cert, 20)
    warm = build_proximal_periodic(A, cert, word, 0.05)
    assert json.dumps(cold.to_dict()) == json.dumps(warm.to_dict())
    assert _witness_floats(cold) == _witness_floats(warm)
    assert [(w.verdict, w.reasons) for w in cold.witnesses] == [
        (w.verdict, w.reasons) for w in warm.witnesses]


def _random_typical(dim, radius, index):
    """The index-th seeded random cocycle on the full 2-shift that has a
    typical pair (seeds counted from 0), with that pair's certificate."""
    base = sft.full_shift(2)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        A = cocycle.WindowCocycle(base, dim, radius, {
            w: rng.normal(size=(dim, dim)) + 2 * np.eye(dim)
            for w in sft.enumerate_words(base, 2 * radius + 1)})
        found = typicality.find_typical_pair(A)
        if found is not None:
            if index == 0:
                return A, found[2]
            index -= 1


def _same_trunks(trunks, others) -> bool:
    return len(trunks) == len(others) and all(
        a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for t, t_o in zip(trunks, others) for a, b in zip(t, t_o))


@pytest.mark.parametrize("case", [*SYNTH_DEMOS, "dim4", "dim6", *(
    pytest.param((dim, radius, index), id=f"random{dim}x{dim}-r{radius}-{index}")
    for dim in (2, 3) for radius in (0, 1) for index in range(3))])
def test_every_attempt_turns_the_tops_along_the_start(case, request):
    # each frame's top direction is an eigenvector of its return map, so
    # the forward turning pass of every transversal attempt, from p, is the
    # context's start: path and trunk bytes alike
    if isinstance(case, tuple):
        A, cert = _random_typical(*case)
    elif case in SYNTH_DEMOS:
        A, cert = _fresh_demo(case)
    else:
        A = request.getfixturevalue(case)
        cert = typicality.find_typical_pair(A)[2]
    ctx = exterior_family_context(A, cert.p, cert.z)
    fwd, (start, heads) = ctx.forward, ctx.start
    assert start == synthesis._entry_path(A.base, fwd.p, fwd.p)
    assert start.n == 2 + synthesis.ENTRY_SLACK
    assert not any(a.flags.writeable for trunk in heads for a in trunk)
    tops = [f.vector(0) for f in fwd.frames]
    eta = min(matnum.rho_to_hyperplane(f.vector(0), f.hyperplane_normal(0)) for f in fwd.frames)
    for k in range(synthesis.TRANSVERSAL_ATTEMPTS):
        path, trunks = synthesis._path_to_top(fwd, fwd.p, tops, eta / 4.0 / 2**k,
                                              0.1 / 2**k, 8 * 2**k)
        assert path == start
        assert _same_trunks(trunks, heads)


def _diag421_group():
    """Two 3x3 cocycles over the full 2-shift at different rescale
    cadences, only the first of which trips the kernel's near-subnormal
    switch on a long run of 0: diag(4, 2, 1) leaves an entry 4^-n of its
    product's peak, under 2^-600 past 300 steps."""
    rng = np.random.default_rng(3)
    q_mat, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    diag = {(0,): np.diag([4.0, 2.0, 1.0]), (1,): q_mat}
    # positive matrices: their products' entries stay within a bounded
    # ratio of the peak
    positive = {w: 10.0 + 10.0 * rng.random(size=(3, 3)) for w in diag}
    return [cocycle.WindowCocycle(sft.full_shift(2), 3, 0, table) for table in (diag, positive)]


def _member_fold(B, rows, done=0, trunk=None):
    """Member B's own fold of rows as :func:`synthesis._fold` splits it,
    at B's own cadence: the products over all rows and the trunk over the
    rows 0..n-k-1, continuing trunk's products over its first done rows."""
    cut = max(rows.shape[1] - B.radius, 0)
    prods, scales = trunk or cocycle._start(B.dim)
    prods, scales = cocycle._extend_products(B._mats, B._cadence, rows[:, done:cut],
                                             prods, scales)
    return (cocycle._extend_products(B._mats, B._cadence, rows[:, cut:], prods, scales),
            (prods, scales))


@pytest.mark.parametrize("case", [*SYNTH_DEMOS, "dim4", "dim6", "diag421"])
def test_group_folds_equal_member_folds(case, request):
    # a size group folds its members as one stack at their least cadence:
    # each member's products, scales and trunk must have the bytes of its
    # own fold, from the identity and continued, over short and long orbits
    if case == "diag421":
        family = _diag421_group()
    else:
        A = getattr(demos, case)() if case in SYNTH_DEMOS else request.getfixturevalue(case)
        family = [cocycle.exterior_cocycle(A, t) for t in range(1, A.dim)]
    groups = synthesis._groups(tuple(family))
    sizes = [B.dim for B in family]
    assert [G.index for G in groups] == [
        tuple(i for i, r in enumerate(sizes) if r == size) for size in dict.fromkeys(sizes)]
    base, k = family[0].base, family[0].radius
    word = (1, 0, 1) + (0,) * 600 + (1, 1, 0, 1) if case == "diag421" else \
        analysis.markov_sample(family[0], 700, 5)
    x = sft.point_from_word(base, word, 0)
    for n in (5, 40, len(word)):
        head = cocycle._orbit_rows(family[0], x, n // 2 + k)
        rows = cocycle._orbit_rows(family[0], x, n)
        for G in groups:
            assert G.every == min(B._cadence for B in G.members)
            _, trunk = synthesis._fold(G, head, None)
            (prods, scales), (done, t_prods, t_scales) = synthesis._fold(G, rows, trunk)
            assert np.array_equal(done, rows[:, :max(n - k, 0)])
            for j, B in enumerate(G.members):
                _, (h_prods, h_scales) = _member_fold(B, head)
                (m, s), (t_m, t_s) = _member_fold(B, rows, trunk[0].shape[1],
                                                  (h_prods, h_scales))
                assert prods[:, :, j].tobytes() == m[:, :, 0].tobytes() and scales[j] == s[0]
                assert t_prods[:, :, j].tobytes() == t_m[:, :, 0].tobytes()
                assert t_scales[j] == t_s[0]
    if case == "diag421":
        # the long run trips the switch on the first member alone
        rows = cocycle._orbit_rows(family[0], x, len(word))
        tripped = [cocycle._near_subnormal(cocycle._extend_products(
            B._mats, B._cadence, rows[:, :400], *cocycle._start(3))[0]) for B in family]
        assert tripped == [True, False]
        assert family[0]._cadence != family[1]._cadence


@pytest.mark.parametrize("name", SYNTH_DEMOS)
def test_memos_are_bounded_by_the_alphabet_and_the_radius(name):
    A, cert = _fresh_demo(name)
    _synthesize_samples(A, cert, 50)
    ctx = exterior_family_context(A, cert.p, cert.z)
    q, k = A.base.alphabet_size, A.radius
    kept = Counter()
    for B in (A, *ctx.forward.family, *ctx.reverse.family):
        for kind in ("holonomy_s", "holonomy_u"):
            keys = [key for key in B._memo if isinstance(key, tuple) and key[0] == kind]
            # two windows of 3k symbols that agree on 2k of them
            assert len(keys) <= q ** (4 * k)
            assert all(len(key[1]) == len(key[2]) == 3 * k for key in keys)
            kept[kind] += len(keys)
    # holonomies are kept at radius k >= 1 (at radius 0 they are the identity)
    assert all(kept[kind] > 0 for kind in ("holonomy_s", "holonomy_u")) == (k > 0)


def test_shortest_bridges_found_once_per_subshift_and_pair(monkeypatch):
    # canonical points, entry paths and closings ask for the same few
    # bridges in every synthesis; each is searched for once per subshift
    A = demos.golden_typical_3x3()  # a new subshift: no bridge is known yet
    cert = typicality.find_typical_pair(A)[2]
    tried, asked, bases = Counter(), [], []
    bridge, shortest = sft.bridge, sft.shortest_bridge

    def counted(s, a, b, length):
        tried[id(s), a, b, length] += 1
        bases.append(s)  # keeps each id distinct
        return bridge(s, a, b, length)

    def asking(*args):
        asked.append(args)
        return shortest(*args)

    monkeypatch.setattr(sft, "bridge", counted)
    monkeypatch.setattr(sft, "shortest_bridge", asking)
    monkeypatch.setattr(synthesis, "shortest_bridge", asking)
    for i in range(4):
        build_proximal_periodic(A, cert, analysis.markov_sample(A, 12 + 5 * i, i), 0.05)
    assert tried and max(tried.values()) == 1
    assert len(asked) >= 4 * 4 > len({key[:3] for key in tried})


@pytest.mark.parametrize("error", SYNTHESIS_ERRORS)
def test_per_word_synthesis_errors_are_recorded(typical2, typical2_cert, monkeypatch, error):
    real = synthesis.build_proximal_periodic

    def failing_on_length_3(A, cert, word, tau, **kwargs):
        if len(word) == 3:
            raise error("no orbit for this word")
        return real(A, cert, word, tau, **kwargs)

    monkeypatch.setattr(synthesis, "build_proximal_periodic", failing_on_length_3)
    words = [(1, 0), (0, 1, 1), (1, 1, 0, 0)]
    rep = verify_theorem_a(typical2, typical2_cert[2], words, 0.05)
    assert rep.failures == (((0, 1, 1), "no orbit for this word"),)
    assert len(rep.samples) == 2


def test_long_word_failure_does_not_abort_theorem_a(typical3, typical3_cert, monkeypatch):
    # a failure planted on the 160-symbol word must cost that word only;
    # both words certify on their own
    words = [analysis.markov_sample(typical3, n, 5) for n in (48, 160)]
    rep = verify_theorem_a(typical3, typical3_cert[2], words, 0.05)
    assert not rep.failures and [r.n for r in rep.samples] == [48, 160]
    real = synthesis.build_proximal_periodic

    def failing_long(A, cert, word, tau, **kwargs):
        if len(word) == 160:
            raise SynthesisFailed("planted failure")
        return real(A, cert, word, tau, **kwargs)

    monkeypatch.setattr(synthesis, "build_proximal_periodic", failing_long)
    rep = verify_theorem_a(typical3, typical3_cert[2], words, 0.05)
    assert rep.failures == ((tuple(words[1]), "planted failure"),)
    assert [r.n for r in rep.samples] == [48]


@pytest.mark.parametrize("offset", [0, 1, 5, 11])
@pytest.mark.parametrize("length", [1, 4, 12, 30])
def test_shadow_offset_is_the_least_cyclic_match(offset, length):
    q = sft.PeriodicWord((0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1))
    word = tuple(q.symbols[(offset + i) % 12] for i in range(length))
    least = next(j for j in range(12)
                 if all(q.symbols[(j + i) % 12] == word[i] for i in range(length)))
    assert synthesis._shadow_offset(q, word) == least


def test_synthesize_family_refuses_the_empty_word(typical2, typical2_cert):
    p, z, _ = typical2_cert
    with pytest.raises(ValueError, match="nonempty"):
        synthesize_family(exterior_family_context(typical2, p, z), (), 0.05)


def test_endpoint_mismatch_is_a_library_error():
    assert issubclass(EndpointMismatch, errors.CoproxError)
    assert synthesis.EndpointMismatch is errors.EndpointMismatch


def test_extend_at_fixed_target_refuses_a_carrier_off_the_target_leaf(full2):
    # the lengthened path's own stable-leaf check decides it
    x = sft.point_from_word(full2, (0, 1), 0)
    with pytest.raises(ValueError, match="local stable set"):
        synthesis.extend_at_fixed_target(PathSpec(x, x, 0, x), 1)
