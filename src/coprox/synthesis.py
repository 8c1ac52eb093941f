"""Constructive core: paths over the subshift, direction turning,
simultaneous transversality, and the shadowing periodic orbit builder.

A path from x to y is symbolic data (x, x0, n, y) with x0 on the local
unstable set of x and sigma^n x0 on the local stable set of y; its matrix
for a cocycle is  H^s(sigma^n x0 -> y) A^n(x0) H^u(x -> x0).  Two paths
meeting at a point concatenate through a bracket, and the concatenated
matrix differs from the plain product of the two by a holonomy rectangle
(an identity the tests verify).

A concatenation keeps its first path's carrier up to the joint, so a
member's rescaled product along it continues the first path's fold (see
:func:`_fold`); past the joint it follows the second path's carrier, so
its product is the second path's fold joined on through the stable
holonomy (see :func:`_join`).  The orbit builder folds each window of the
word and of the closing orbit once per member, not afresh for every path
that contains it, and never forms a raw long product.

The periodic-orbit builder works against a finite family of cocycles over
a common base with a common certified pair (p, z); exterior powers of a
single cocycle are the default instantiation.  Every existence constant
of the underlying arguments (turn depths, loop lengths, transversality
margins) is replaced by deterministic adaptive search with a posteriori
certification: the products around the constructed orbit are certified
quantitatively proximal directly, member by member.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import pi
from typing import Optional, Sequence

import numpy as np

from .cocycle import (
    WindowCocycle,
    _extend_products,
    _ladder,
    _logdet_sum,
    _memoised,
    _orbit_rows,
    cycle_chi_rows,
    exterior_cocycle,
    holonomy_s,
    holonomy_u,
    inverse_cocycle,
    orbit_mu_vec,
    product,
    require_common_base,
)
from .errors import (
    DegenerateTopSingularValue,
    SingularMatrix,
    SynthesisFailed,
    TransversalityFailed,
    TurnCapExceeded,
)
from .matnum import (
    ams_hyperplane,
    fit_line,
    hyperplane_wedge,
    rho,
    rho_to_hyperplane,
    unit,
)
from .proximal import EpsProximalWitness, eps_proximal_witness
from .sft import (
    PeriodicWord,
    PointSpec,
    Symbols,
    bracket,
    in_local_stable,
    in_local_unstable,
    least_fixed_symbol,
    make_periodic,
    periodic_point,
    point_from_word,
    reverse_point,
    same_point,
    shortest_bridge,
    stable_shift,
    unstable_shift,
)
from .typicality import EigenFrame, eigen_frame


SYNTHESIS_ERRORS = (SynthesisFailed, TransversalityFailed, TurnCapExceeded,
                    DegenerateTopSingularValue, SingularMatrix)
"""Errors that end the synthesis for one word; experiments over many words
record them per word and go on."""


class EndpointMismatch(Exception):
    """Paths being connected do not meet at a common point."""


@dataclass(frozen=True)
class PathSpec:
    """Symbolic path data x -> x0 -> sigma^n x0 -> y."""

    x: PointSpec
    x0: PointSpec
    n: int
    y: PointSpec

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("path length must be >= 0")
        if not in_local_unstable(self.x, self.x0):
            raise ValueError("x0 must lie on the local unstable set of x")
        if not in_local_stable(self.y, self.x0.shift(self.n)):
            raise ValueError("sigma^n x0 must lie on the local stable set of y")

    @property
    def end(self) -> PointSpec:
        return self.x0.shift(self.n)


def path_matrix(A: WindowCocycle, path: PathSpec) -> np.ndarray:
    """H^s(end -> y) A^n(x0) H^u(x -> x0) for the given cocycle, with the
    raw product: the reference the concatenation identity tests check,
    while it neither overflows nor underflows."""
    return (
        holonomy_s(A, path.end, path.y)
        @ product(A, path.x0, path.n)
        @ holonomy_u(A, path.x, path.x0)
    )


def _fold(B: WindowCocycle, rows: np.ndarray, trunk):
    """Member B's rescaled product over n window rows (one row of table
    rows) and the trunk a later fold continues: the product over the rows
    0..n-k-1, whose windows read no symbol past the n-th, where a path
    extending this one or the orbit closing it may differ.

    A trunk is a (rows, prods, scales) triple, None for none.  It is
    continued only when its rows are a prefix of these rows 0..n-k-1; any
    other fold starts over from the identity.  The kernel folds the windows
    strictly left to right, so a continued fold has the bytes of the
    trunk's product continued over the remaining rows.
    """
    cut = max(rows.shape[1] - B.radius, 0)
    if trunk is None or not (trunk[0].shape[1] <= cut
                             and np.array_equal(rows[:, :trunk[0].shape[1]], trunk[0])):
        trunk = (rows[:, :0], np.eye(B.dim)[None], np.zeros(1))
    done, prods, scales = trunk
    prods, scales = _extend_products(B._mats, rows[:, done.shape[1]:cut], prods, scales)
    return (_extend_products(B._mats, rows[:, cut:], prods, scales),
            (rows[:, :cut], prods, scales))


def _join(B: WindowCocycle, rows: np.ndarray, n1: int, x: PointSpec, head, tail):
    """Member B's trunk of a concatenation from the trunks of its parts.

    rows are the window rows of connect(path1, path2), path1 has n1 steps
    and head is its trunk; tail is the trunk of path2's fold from the
    identity along the orbit of its carrier x, over m >= k rows.  The
    joined carrier w shifted by n1 lies on the local stable set of x, so
    its product over n1 + m steps is

        A^m(x) A^k(x)^-1 A^(n1+k)(w):

    the 2k joint windows continue head to A^(n1+k)(w), and one rescaled
    product joins tail to it, so path2's windows are not folded again.
    """
    k = B.radius
    (prods, scales), _ = _fold(B, rows[:, :n1 + k], head)
    done, g, g_scales = tail
    m = g[0] @ np.linalg.solve(product(B, x, k), prods[0])
    peak = np.max(np.abs(m))
    return (rows[:, :n1 + done.shape[1]], (m / peak)[None],
            np.array([g_scales[0] + scales[0] + np.log(peak)]))


def path_direction(A: WindowCocycle, path: PathSpec, v: np.ndarray, trunk=None):
    """Unit direction of the path matrix applied to v, overflow-safe for
    long paths (the product is rescaled in flight), and the trunk of that
    product: passed back in for a path that extends this one, it spares
    refolding their common windows (see :func:`_fold`)."""
    (prods, _), trunk = _fold(A, _orbit_rows(A, path.x0, path.n), trunk)
    out = holonomy_s(A, path.end, path.y) @ (prods[0] @ (holonomy_u(A, path.x, path.x0) @ unit(v)))
    return unit(out), trunk


def connect(path1: PathSpec, path2: PathSpec) -> PathSpec:
    """Concatenate two paths meeting at path1.y == path2.x.

    The new carrier is w = sigma^{-n1} [sigma^{n1} x0_1, x0_2]; per cocycle
    the new matrix equals  B2 R B1  with R the holonomy rectangle through
    the meeting point and sigma^{n1} w.
    """
    if not same_point(path1.y, path2.x):
        raise EndpointMismatch("path1 must end where path2 starts")
    w = bracket(path1.end, path2.x0).shift(-path1.n)
    return PathSpec(path1.x, w, path1.n + path2.n, path2.y)


def extend_at_fixed_target(path: PathSpec, extra: int) -> PathSpec:
    """Lengthen a path ending at a fixed point by iterating the return map."""
    if extra == 0:
        return path
    a = path.y.coord(0)
    if path.x0.coords(path.n, path.n + extra) != (a,) * (extra + 1):
        raise ValueError("carrier does not stay at the fixed symbol")
    return PathSpec(path.x, path.x0, path.n + extra, path.y)


def loop_path(p: PointSpec, z: PointSpec, ell: int) -> PathSpec:
    """The path p -> z -> sigma^ell z -> p tracing the homoclinic loop.

    Needs z on the local unstable set of p and sigma^ell z on the local
    stable set of p; the matrix is then P^ell psi_z.
    """
    return PathSpec(p, z, ell, p)


def turn_direction(frames: Sequence[EigenFrame], dirs: Sequence[np.ndarray],
                   delta: float, cap: int) -> int:
    """Least a <= cap such that iterating each return map a times brings
    every direction within delta of one of its frame's eigendirections."""
    vecs = [unit(v) for v in dirs]
    for a in range(cap + 1):
        if all(
            min(rho(v, f.vector(i)) for i in range(f.dim)) <= delta
            for f, v in zip(frames, vecs)
        ):
            return a
        vecs = [unit(f.matrix @ v) for f, v in zip(frames, vecs)]
    raise TurnCapExceeded(f"directions not aligned within {delta} after {cap} turns")


TURN_CAP = 512
PERIOD_QUANTUM = 16
FRAME_TOL = 1e-10
ELL_CAP = 2**14
TRANSVERSAL_ATTEMPTS = 9
MARGIN_FLOOR = 1e-7
ENTRY_SLACK = 2


@dataclass(frozen=True)
class Side:
    """One turning pass: a cocycle family over one base subshift, each
    member's return-map eigenframe at the fixed point p, and the homoclinic
    point z aligned onto the local unstable set of p."""

    family: tuple[WindowCocycle, ...]
    frames: tuple[EigenFrame, ...]
    p: PointSpec
    z: PointSpec

    @property
    def excursion_end(self) -> int:
        return stable_shift(self.z, self.p)


def _side(family: tuple[WindowCocycle, ...], p: PointSpec, z: PointSpec) -> Side:
    frames = tuple(eigen_frame(product(A, p, 1), FRAME_TOL) for A in family)
    return Side(family, frames, p, z.shift(-unstable_shift(p, z)))


@dataclass(frozen=True)
class FamilyContext:
    """A cocycle family with a common certified pair, as two mirrored
    sides: ``forward`` turns directions with the family itself, and
    ``reverse`` steers hyperplanes with the inverse cocycles on the reversed
    subshift acting on hyperplane wedges."""

    forward: Side
    reverse: Side


def build_family_context(family: Sequence[WindowCocycle], p: PointSpec,
                         z: PointSpec) -> FamilyContext:
    family = tuple(family)
    require_common_base(family)
    forward = _side(family, p, z)
    rev_wedge = tuple(
        exterior_cocycle(inverse_cocycle(A), A.dim - 1) if A.dim > 1
        else inverse_cocycle(A)
        for A in family
    )
    return FamilyContext(forward, _side(rev_wedge, reverse_point(p), reverse_point(forward.z)))


def exterior_family_context(A: WindowCocycle, p: PointSpec, z: PointSpec) -> FamilyContext:
    """Context for the exterior powers t = 1..d-1 of a single cocycle,
    built once per cocycle and pair."""
    return _memoised(A, ("family", p, z), lambda: build_family_context(
        [exterior_cocycle(A, t) for t in range(1, A.dim)], p, z))


def _entry_path(base, x: PointSpec, p: PointSpec) -> PathSpec:
    """Shortest-bridge path from x into the local stable set of p, with
    ``ENTRY_SLACK`` extra steps at the fixed symbol."""
    a = p.coord(0)
    bridgew = shortest_bridge(base, x.coord(0), a)
    t0 = point_from_word(base, (x.coord(0),) + bridgew + (a,), a)
    w0 = bracket(x, t0)
    n0 = len(bridgew) + 2 + ENTRY_SLACK
    return PathSpec(x, w0, n0, p)


def _worst_angle(frames, u) -> float:
    return max(rho(v, f.vector(0)) for f, v in zip(frames, u))


def _path_to_top(side: Side, x, dirs, eps_target, delta, ell):
    """Path x -> p taking every direction within eps_target of its frame's
    top eigendirection, with each member's trunk of its product, or None
    if this (delta, ell) attempt falls short.  The loop extends the turned
    entry path, so its products continue the entry path's."""
    entry = _entry_path(side.family[0].base, x, side.p)
    u, trunks = zip(*(path_direction(A, entry, v) for A, v in zip(side.family, dirs)))
    try:
        a = turn_direction(side.frames, u, delta, TURN_CAP)
    except TurnCapExceeded:
        return None
    if a == 0 and _worst_angle(side.frames, u) <= eps_target:
        return entry, trunks  # already aligned with the top directions, no twist needed
    cand = connect(extend_at_fixed_target(entry, a),
                   loop_path(side.p, side.z, max(ell, side.excursion_end + 2)))
    u, trunks = zip(*(path_direction(A, cand, v, t) for A, v, t in zip(side.family, dirs, trunks)))
    return (cand, trunks) if _worst_angle(side.frames, u) <= eps_target else None


def _reversed_to_forward(path_rev: PathSpec, p: PointSpec, y: PointSpec) -> PathSpec:
    """Translate a reversed-subshift path rev(y) -> rev(p) into the forward
    path p -> y (member matrices invert under the translation)."""
    y1 = reverse_point(path_rev.x0.shift(path_rev.n))
    return PathSpec(p, y1, path_rev.n, y)


def transversal_path(ctx: FamilyContext, x: PointSpec, y: PointSpec,
                     dirs: Sequence[np.ndarray],
                     normals: Sequence[np.ndarray]) -> tuple[PathSpec, list[float], tuple]:
    """Path x -> y whose member matrices move each direction away from the
    corresponding hyperplane, its margins (computed, never assumed) and
    each member's trunk of its product (see :func:`path_direction`).

    Two turning passes into p: the given directions ride the forward family
    toward the top eigendirections while, on the reversed subshift, the
    hyperplane wedges ride the inverse family toward theirs; bracketing the
    legs at p yields the path and the angular margins are read off
    directly.  The margins are intrinsically exponential in the leg
    lengths (the legs end in long runs of the return map), so the floor
    only guards against genuine degeneracy; deterministic retries sharpen
    the turn targets and lengthen the loops when an attempt falls short.
    """
    if not dirs:
        raise ValueError("empty family")
    fwd = ctx.forward
    eta = min(
        rho_to_hyperplane(f.vector(0), f.hyperplane_normal(0)) for f in fwd.frames
    )
    wedge_dirs = [hyperplane_wedge(nrm) for nrm in normals]
    y_rev = reverse_point(y)
    for k in range(TRANSVERSAL_ATTEMPTS):
        eps = eta / 4.0 / 2**k
        delta = 0.1 / 2**k
        ell = 8 * 2**k
        leg = _path_to_top(fwd, x, dirs, eps, delta, ell)
        if leg is None:
            continue
        rev_leg = _path_to_top(ctx.reverse, y_rev, wedge_dirs, eps, delta, ell)
        if rev_leg is None:
            continue
        path = connect(leg[0], _reversed_to_forward(rev_leg[0], fwd.p, y))
        u, trunks = zip(*(path_direction(A, path, v, t)
                          for A, v, t in zip(fwd.family, dirs, leg[1])))
        margins = [rho_to_hyperplane(w, nrm) for w, nrm in zip(u, normals)]
        if min(margins) >= MARGIN_FLOOR:
            return path, margins, trunks
    raise TransversalityFailed(
        f"margins stayed below {MARGIN_FLOOR} after {TRANSVERSAL_ATTEMPTS} attempts"
    )


@dataclass(frozen=True)
class SynthesisReport:
    """Outcome of one shadowing synthesis."""

    x_word: Symbols
    n: int
    q: PeriodicWord
    n_q: int
    j: int
    tau: float
    witnesses: tuple[EpsProximalWitness, ...]
    transversality_margins: tuple[float, ...]
    bound_value: Optional[float]
    ell_used: int
    retries: int

    def to_dict(self) -> dict:
        return {
            "x_word": "".join(str(c) for c in self.x_word),
            "n": self.n,
            "q": "".join(str(c) for c in self.q.symbols),
            "n_q": self.n_q,
            "j": self.j,
            "tau": self.tau,
            "proximal_all": all(w.verdict for w in self.witnesses),
            "contractions": [w.contraction for w in self.witnesses],
            "transversality_margins": list(self.transversality_margins),
            "bound_value": self.bound_value,
            "ell_used": self.ell_used,
            "retries": self.retries,
        }


def _shadow_offset(q: PeriodicWord, word: Symbols) -> int:
    """Least j with the word on coordinates j.. of q's periodic point: a
    substring search, symbols spelled as characters."""
    text = "".join(map(chr, q.symbols * (len(word) // q.period + 2)))
    j = text.find("".join(map(chr, word)))
    if not 0 <= j < q.period:
        raise AssertionError("constructed orbit does not contain the target word")
    return j


def _require_tau(tau: float) -> None:
    if not 0 < tau < pi / 4:
        raise ValueError(f"tau must lie in (0, pi/4), got {tau}")


def synthesize_family(ctx: FamilyContext, x_word: Symbols, tau: float) -> SynthesisReport:
    """Periodic orbit q shadowing x_word whose member products are all
    certified tau-proximal.

    Pipeline: run the word into the stable set of p (the path g); take each
    member's contraction hyperplane from the top singular direction of g;
    build a transversal path from p back to the word's point keeping the
    top eigendirections clear of those hyperplanes; turn; append the
    homoclinic loop with adaptively doubled length; close into a periodic
    word and certify the products around it directly.

    The certified loop is padded so the period overhead n_q - n lands on a
    multiple of ``PERIOD_QUANTUM``: the overhead plays the role of a single
    per-cocycle constant, so batches report one common value instead of
    per-word jitter.
    """
    _require_tau(tau)
    x = point_from_word(ctx.forward.family[0].base, x_word, ctx.forward.p.coord(0))
    return _synthesize(ctx, x_word, x, tau, ELL_CAP)[0]


def _synthesize(ctx: FamilyContext, x_word: Symbols, x: PointSpec, tau: float,
                ell_cap: int):
    """:func:`synthesize_family` for x_word at its canonical point x (for
    the fixed symbol of p), returning with the report the per-member window
    rows and rescaled products over the word and around q.

    Each member folds x's windows once, from the identity (see
    :func:`_fold`): the word's n rows, then on through the path g.  The
    path through g joins g's fold to the transversal path's (see
    :func:`_join`); the first closing attempt continues that fold, and
    each attempt the next, since a longer loop only appends fixed symbols.
    An attempt multiplies only its new and its wrapped windows.
    """
    fwd = ctx.forward
    base, k = fwd.family[0].base, fwd.family[0].radius
    n = len(x_word)
    # the canonical representative already carries a bridge to the fixed
    # symbol, ending at its reach; shortly after that its orbit sits on the
    # stable set of p
    tail_start = x.reach()[1] + 1
    rows = _orbit_rows(fwd.family[0], x, n)
    word = [(rows, _extend_products(B._mats, rows, np.eye(B.dim)[None], np.zeros(1)))
            for B in fwd.family]
    trunks = [(rows, *scaled) for rows, scaled in word]
    retries = 0
    g_extra = 0
    while True:
        # at least 2k steps, so g's trunk covers the k windows the join
        # replaces
        g_path = PathSpec(x, x, max(tail_start + 3, 2 * k) + g_extra, fwd.p)
        rows = _orbit_rows(fwd.family[0], x, g_path.n)
        folds = [_fold(B, rows, t) for B, t in zip(fwd.family, trunks)]
        trunks = [t for _, t in folds]
        try:
            # the rescaled product: the hyperplane reads only the top of
            # the spectrum, which rescaling keeps
            normals = [ams_hyperplane(holonomy_s(B, g_path.end, fwd.p) @ prods[0])
                       for B, ((prods, _), _) in zip(fwd.family, folds)]
            break
        except DegenerateTopSingularValue:
            retries += 1
            g_extra = 2 ** retries
            if g_extra > 64:
                raise
    dirs = [f.vector(0) for f in fwd.frames]
    bpath, margins, heads = transversal_path(ctx, fwd.p, x, dirs, normals)
    gb = connect(bpath, g_path)
    rows = _orbit_rows(fwd.family[0], gb.x0, gb.n)
    trunks = [_join(B, rows, bpath.n, x, h, t)
              for B, h, t in zip(fwd.family, heads, trunks)]
    u, trunks = zip(*(path_direction(A, gb, v, t) for A, v, t in zip(fwd.family, dirs, trunks)))
    a_turn = turn_direction(fwd.frames, u, 0.05, TURN_CAP)
    turned = extend_at_fixed_target(gb, a_turn)
    trunks = list(trunks)

    def attempt(ell):
        final = connect(turned, loop_path(fwd.p, fwd.z, ell))
        n_q = final.n
        q = make_periodic(base, final.x0.coords(0, n_q - 1))
        qpt = periodic_point(q)
        closing = []
        for i, B in enumerate(fwd.family):
            rows = _orbit_rows(B, qpt, n_q)
            scaled, trunks[i] = _fold(B, rows, trunks[i])
            closing.append((rows, scaled))
        # the witness conditions are scale-invariant, so certify the
        # rescaled products (raw ones can overflow for large ell)
        witnesses = tuple(eps_proximal_witness(prods[0], tau) for _, (prods, _) in closing)
        return final, q, witnesses, closing

    ell = max(fwd.excursion_end + 2, 8)
    while ell <= ell_cap:
        final, q, witnesses, closing = attempt(ell)
        if all(w.verdict for w in witnesses):
            overhang = (final.n - n) % PERIOD_QUANTUM
            if overhang:
                padded = attempt(ell + PERIOD_QUANTUM - overhang)
                if all(w.verdict for w in padded[2]):
                    ell = ell + PERIOD_QUANTUM - overhang
                    final, q, witnesses, closing = padded
            return SynthesisReport(
                x_word=tuple(x_word),
                n=n,
                q=q,
                n_q=final.n,
                j=_shadow_offset(q, tuple(x_word)),
                tau=tau,
                witnesses=witnesses,
                transversality_margins=tuple(margins),
                bound_value=None,
                ell_used=ell,
                retries=retries,
            ), word, closing
        retries += 1
        ell *= 2
    raise SynthesisFailed(f"loop length cap {ell_cap} reached without certifying")


def _closure_d1(A: WindowCocycle, x_word: Symbols, base_symbol: int) -> SynthesisReport:
    """Scalar cocycles: close the word through a shortest bridge; every
    nonzero scalar is proximal, so certification is vacuous."""
    base = A.base
    u = shortest_bridge(base, x_word[-1], x_word[0])
    q = make_periodic(base, tuple(x_word) + u)
    n = len(x_word)
    x = point_from_word(base, x_word, base_symbol)
    bound = abs(float(orbit_mu_vec(A, x, n)[0]
                      - cycle_chi_rows(A, np.array([q.symbols]))[0, 0]))
    return SynthesisReport(
        x_word=tuple(x_word),
        n=n,
        q=q,
        n_q=q.period,
        j=0,
        tau=0.0,
        witnesses=(),
        transversality_margins=(),
        bound_value=bound,
        ell_used=0,
        retries=0,
    )


def build_proximal_periodic(A: WindowCocycle, cert, x_word: Symbols, tau: float,
                            *, ell_cap: int = ELL_CAP) -> SynthesisReport:
    """Shadowing periodic orbit for a typical cocycle with every exterior
    power of the closing product certified tau-proximal; ``cert`` must be a
    passing typicality certificate (its pair steers the construction)."""
    _require_tau(tau)
    if len(x_word) < 1:
        raise ValueError("x_word must be nonempty")
    if A.dim == 1:
        sym = cert.p.coord(0) if cert is not None else least_fixed_symbol(A.base)
        return _closure_d1(A, tuple(x_word), sym)
    if cert is None or not cert.passed:
        raise ValueError("a passing typicality certificate is required")
    ctx = exterior_family_context(A, cert.p, cert.z)
    x = point_from_word(A.base, x_word, cert.p.coord(0))
    report, word, closing = _synthesize(ctx, tuple(x_word), x, tau, ell_cap)
    # the members are A's exterior powers, so their products over the word
    # and around q are the rungs of A's ladders with every window already
    # applied: the word's are those orbit_mu_vec folds, byte for byte
    mu, chi = (_rung_ladder(A, folds, top) for folds, top in ((word, "svd"), (closing, "eig")))
    return replace(report, bound_value=float(np.linalg.norm(mu - chi)))


def _rung_ladder(A: WindowCocycle, folds, top: str) -> np.ndarray:
    """A's ladder row from its exterior powers' (rows, rescaled product)
    folds over one orbit."""
    rows = folds[0][0]
    return _ladder(A, rows[:, :0], [scaled for _, scaled in folds],
                   _logdet_sum(A, rows, np.zeros(1)), top)[0]


@dataclass(frozen=True)
class TheoremAReport:
    """Aggregated singular-vs-eigenvalue comparison across sampled words."""

    samples: tuple[SynthesisReport, ...]
    failures: tuple[tuple[Symbols, str], ...]
    empirical_c: float
    empirical_k: int
    slope: float
    intercept: float

    def to_dict(self) -> dict:
        return {
            "num_samples": len(self.samples) + len(self.failures),
            "num_failures": len(self.failures),
            "empirical_c": self.empirical_c,
            "empirical_k": self.empirical_k,
            "slope": self.slope,
            "intercept": self.intercept,
            "samples": [r.to_dict() for r in self.samples],
            "failures": [
                {"x_word": "".join(str(c) for c in w), "error": msg}
                for w, msg in self.failures
            ],
        }


def verify_theorem_a(A: WindowCocycle, cert, words: Sequence[Symbols], tau: float,
                     *, ell_cap: int = ELL_CAP) -> TheoremAReport:
    """Run the builder on each word and aggregate the bound values.

    ``empirical_c`` is the largest observed norm difference, ``empirical_k``
    the largest period overhead; the least-squares slope of bound against
    word length is the drift diagnostic (flat means the bound is length-free).
    """
    reports = []
    failures = []
    for w in words:
        try:
            reports.append(build_proximal_periodic(A, cert, tuple(w), tau,
                                                   ell_cap=ell_cap))
        except SYNTHESIS_ERRORS as exc:
            failures.append((tuple(w), str(exc)))
    if not reports:
        raise SynthesisFailed("every sample failed")
    bounds = np.array([r.bound_value for r in reports])
    slope, intercept, _, _ = fit_line([r.n for r in reports], bounds)
    return TheoremAReport(
        samples=tuple(reports),
        failures=tuple(failures),
        empirical_c=float(bounds.max()),
        empirical_k=int(max(r.n_q - r.n for r in reports)),
        slope=slope,
        intercept=intercept,
    )
