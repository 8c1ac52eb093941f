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
word and of the closing orbit once, for all members of one matrix size
in one stack (see :class:`Group`), not afresh for every path that
contains it, and never forms a raw long product.

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
from math import atan2, pi
from typing import Optional, Sequence

import numpy as np

from .cocycle import (
    WindowCocycle,
    _extend_products,
    _ladder,
    _logdet_sum,
    _memoised,
    _orbit_rows,
    _read_only,
    _rescale,
    _start,
    cycle_chi_rows,
    exterior_cocycle,
    holonomy_s,
    holonomy_u,
    orbit_mu_vec,
    product,
    require_common_base,
    transpose_cocycle,
)
from .errors import (
    DegenerateTopSingularValue,
    EndpointMismatch,
    SingularMatrix,
    SynthesisFailed,
    TransversalityFailed,
    TurnCapExceeded,
)
from .matnum import (
    ams_hyperplane,
    fit_line,
    rho_to_hyperplane,
    unit,
    unit_cos_sin,
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


def _fold(group: Group, rows: np.ndarray, trunk):
    """The group's rescaled products over n window rows (one row of table
    rows, which every member reads at its own offset) and the trunk a
    later fold continues: the products over the rows 0..n-k-1, whose
    windows read no symbol past the n-th, where a path extending this one
    or the orbit closing it may differ.

    A trunk is a (rows, prods, scales) triple, None for none, with one
    column-major product per member.  It is continued only when its rows
    are a prefix of these rows 0..n-k-1; any other fold starts over from
    the identity.  The kernel folds the windows strictly left to right, so
    a continued fold has the bytes of the trunk's products continued over
    the remaining rows.
    """
    cut = max(rows.shape[1] - group.members[0].radius, 0)
    if trunk is None or not (trunk[0].shape[1] <= cut
                             and np.array_equal(rows[:, :trunk[0].shape[1]], trunk[0])):
        trunk = (rows[:, :0], *_start(group.dim, len(group.members)))
    done, prods, scales = trunk
    idx = rows + group.offsets
    prods, scales = _extend_products(group.mats, group.every, idx[:, done.shape[1]:cut],
                                     prods, scales)
    return (_extend_products(group.mats, group.every, idx[:, cut:], prods, scales),
            (rows[:, :cut], prods, scales))


def _join(group: Group, rows: np.ndarray, n1: int, x: PointSpec, head, tail):
    """The group's trunk of a concatenation from the trunks of its parts.

    rows are the window rows of connect(path1, path2), path1 has n1 steps
    and head is its trunk; tail is the trunk of path2's fold from the
    identity along the orbit of its carrier x, over m >= k rows.  The
    joined carrier w shifted by n1 lies on the local stable set of x, so
    each member's product over n1 + m steps is

        A^m(x) A^k(x)^-1 A^(n1+k)(w):

    the 2k joint windows continue head to A^(n1+k)(w), and one stacked
    product, rescaled like the kernel's, joins tail to it, so path2's
    windows are not folded again.
    """
    k = group.members[0].radius
    (prods, scales), _ = _fold(group, rows[:, :n1 + k], head)
    done, g, g_scales = tail
    m = _row_major(g) @ np.linalg.solve(np.stack([product(B, x, k) for B in group.members]),
                                        _row_major(prods))
    return (rows[:, :n1 + done.shape[1]],
            *_rescale(np.ascontiguousarray(m.transpose(1, 2, 0)), g_scales + scales))


def _row_major(prods: np.ndarray) -> np.ndarray:
    """A column-major (r, r, rows) stack as contiguous (rows, r, r)
    matrices."""
    return np.ascontiguousarray(prods.transpose(2, 0, 1))


def _members(side: Side, stacks) -> list:
    """Each member's (prods, scales), in family order, from its group's
    column-major stacks: contiguous (r, r, 1) slices, so a member's
    matrix reads as the matrix of a fold of its own."""
    out = [None] * len(side.family)
    for group, (prods, scales) in zip(side.groups, stacks):
        for j, (i, m) in enumerate(zip(group.index, _row_major(prods))):
            out[i] = (m[:, :, None], scales[j:j + 1])
    return out


def _fold_family(side: Side, rows: np.ndarray, trunks):
    """Every group's :func:`_fold` over rows, continuing its trunk (none
    for None): each member's products and the groups' trunks."""
    folds = [_fold(group, rows, trunk)
             for group, trunk in zip(side.groups, trunks or (None,) * len(side.groups))]
    return _members(side, [scaled for scaled, _ in folds]), tuple(t for _, t in folds)


def path_direction(side: Side, path: PathSpec, dirs: Sequence[np.ndarray], trunks=None,
                   rows: Optional[np.ndarray] = None):
    """Each member's unit direction of its path matrix applied to its
    direction in dirs, overflow-safe for long paths (the products are
    rescaled in flight), and each group's trunk of those products: passed
    back in for a path that extends this one, they spare refolding their
    common windows (see :func:`_fold`).  The path's window rows are read
    once for the whole family (rows, when the caller has them)."""
    if rows is None:
        rows = _orbit_rows(side.family[0], path.x0, path.n)
    prods, trunks = _fold_family(side, rows, trunks)
    u = tuple(unit(holonomy_s(B, path.end, path.y)
                   @ (m[:, :, 0] @ (holonomy_u(B, path.x, path.x0) @ unit(v))))
              for B, (m, _), v in zip(side.family, prods, dirs))
    return u, trunks


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
    """Lengthen a path ending at a fixed point by iterating the return map
    (the lengthened path's stable-leaf check refuses a carrier off y's leaf)."""
    return replace(path, n=path.n + extra)


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
        if all(min(_angle(w, e) for e in f.units) <= delta
               for f, w in zip(frames, map(unit, vecs))):
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
class Group:
    """The members of a family of one matrix size, folded as one stack:
    their window tables concatenated, member j's rows offset by
    ``offsets[j]`` into the whole, at the least of their rescale cadences
    (the members share base, radius and window order, so one row of table
    rows serves them all).  Rescaling is exact, so each member's products
    have the bytes of its own fold."""

    index: tuple[int, ...]
    members: tuple[WindowCocycle, ...]
    mats: np.ndarray
    offsets: np.ndarray
    every: int

    @property
    def dim(self) -> int:
        return self.mats.shape[1]


def _groups(family: tuple[WindowCocycle, ...]) -> tuple[Group, ...]:
    """The family's members grouped by matrix size, in order of first
    appearance, each group's members in family order."""
    out = []
    for dim in dict.fromkeys(B.dim for B in family):
        index = tuple(i for i, B in enumerate(family) if B.dim == dim)
        members = tuple(family[i] for i in index)
        windows = len(members[0]._mats)
        out.append(Group(index, members, _read_only(np.concatenate([B._mats for B in members])),
                         _read_only(windows * np.arange(len(index))[:, None]),
                         min(B._cadence for B in members)))
    return tuple(out)


@dataclass(frozen=True)
class Side:
    """One turning pass: a cocycle family over one base subshift, each
    member's return-map eigenframe at the fixed point p, the homoclinic
    point z aligned onto the local unstable set of p, and the family's
    size groups (see :class:`Group`)."""

    family: tuple[WindowCocycle, ...]
    frames: tuple[EigenFrame, ...]
    p: PointSpec
    z: PointSpec
    groups: tuple[Group, ...]

    @property
    def excursion_end(self) -> int:
        return stable_shift(self.z, self.p)


def _side(family: tuple[WindowCocycle, ...], p: PointSpec, z: PointSpec) -> Side:
    frames = tuple(eigen_frame(product(A, p, 1), FRAME_TOL) for A in family)
    return Side(family, frames, p, z.shift(-unstable_shift(p, z)), _groups(family))


@dataclass(frozen=True)
class FamilyContext:
    """A cocycle family with a common certified pair, as two mirrored
    sides: ``forward`` holds the family itself, and ``reverse`` steers
    hyperplane normals with the transposed family on the reversed subshift
    (a hyperplane v^perp moved back by g is (g^T v)^perp).

    ``start`` begins every transversal path: the entry path from p to p and
    each group's read-only trunk along it of its members' frames' top
    directions, eigenvectors of the return maps, which the path keeps in
    place."""

    forward: Side
    reverse: Side
    start: tuple[PathSpec, tuple]


def build_family_context(family: Sequence[WindowCocycle], p: PointSpec,
                         z: PointSpec) -> FamilyContext:
    family = tuple(family)
    if not family:
        raise ValueError("empty family")
    require_common_base(family)
    sizes = sorted({B.dim for B in family})
    if 1 in sizes and len(sizes) > 1:
        raise ValueError(f"family mixes scalar and larger members (sizes {sizes})")
    forward = _side(family, p, z)
    start = _entry_path(family[0].base, p, p)
    _, trunks = path_direction(forward, start, _top_vectors(forward))
    return FamilyContext(forward, _side(tuple(map(transpose_cocycle, family)),
                                        reverse_point(p), reverse_point(forward.z)),
                         (start, tuple(tuple(map(_read_only, t)) for t in trunks)))


def _top_vectors(side: Side) -> list[np.ndarray]:
    """Each member's frame's top eigendirection."""
    return [f.vector(0) for f in side.frames]


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


def _angle(u: np.ndarray, v: np.ndarray) -> float:
    """rho(u, v) for the unit vectors that :func:`matnum.rho` would make of
    its arguments."""
    c, s = unit_cos_sin(u, v)
    return atan2(s, c)


def _worst_angle(frames, u) -> float:
    return max(_angle(unit(v), f.units[0]) for f, v in zip(frames, u))


def _path_to_top(side: Side, x, dirs, eps_target, delta, ell):
    """Path x -> p taking every direction within eps_target of its frame's
    top eigendirection, with each group's trunk of its products, or None
    if this (delta, ell) attempt falls short.  The loop extends the turned
    entry path, so its products continue the entry path's."""
    entry = _entry_path(side.family[0].base, x, side.p)
    u, trunks = path_direction(side, entry, dirs)
    try:
        a = turn_direction(side.frames, u, delta, TURN_CAP)
    except TurnCapExceeded:
        return None
    if a == 0 and _worst_angle(side.frames, u) <= eps_target:
        return entry, trunks  # already aligned with the top directions, no twist needed
    cand = connect(extend_at_fixed_target(entry, a),
                   loop_path(side.p, side.z, max(ell, side.excursion_end + 2)))
    u, trunks = path_direction(side, cand, dirs, trunks)
    return (cand, trunks) if _worst_angle(side.frames, u) <= eps_target else None


def _reversed_to_forward(path_rev: PathSpec, p: PointSpec, y: PointSpec) -> PathSpec:
    """Translate a reversed-subshift path rev(y) -> rev(p) into the forward
    path p -> y (member matrices transpose under the translation)."""
    y1 = reverse_point(path_rev.x0.shift(path_rev.n))
    return PathSpec(p, y1, path_rev.n, y)


def transversal_path(ctx: FamilyContext, y: PointSpec,
                     normals: Sequence[np.ndarray]) -> tuple[PathSpec, list[float], tuple]:
    """Path p -> y whose member matrices move each frame's top
    eigendirection away from the corresponding hyperplane, its margins
    (computed, never assumed) and each group's trunk of its products (see
    :func:`path_direction`).

    The path starts with the context's entry path at p, which keeps the top
    eigendirections in place; on the reversed subshift the hyperplane
    normals ride the transposed family toward their own top
    eigendirections, and bracketing that leg onto the start at p yields
    the path.  The margins are intrinsically exponential in the leg length
    (the leg ends in a long run of the return map), so the floor only
    guards against genuine degeneracy; deterministic retries sharpen the
    turn targets and lengthen the loops when an attempt falls short.
    """
    fwd = ctx.forward
    if len(normals) != len(fwd.family):
        raise ValueError(f"{len(normals)} normals for {len(fwd.family)} members")
    start, heads = ctx.start
    # each top eigendirection's angle to its hyperplane (matnum.rho_to_hyperplane)
    eta = min(atan2(*unit_cos_sin(f.units[0], f.normal_units[0])) for f in fwd.frames)
    y_rev = reverse_point(y)
    for k in range(TRANSVERSAL_ATTEMPTS):
        eps = eta / 4.0 / 2**k
        delta = 0.1 / 2**k
        ell = 8 * 2**k
        rev_leg = _path_to_top(ctx.reverse, y_rev, normals, eps, delta, ell)
        if rev_leg is None:
            continue
        path = connect(start, _reversed_to_forward(rev_leg[0], fwd.p, y))
        u, trunks = path_direction(fwd, path, _top_vectors(fwd), heads)
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
    """Length of the certified homoclinic loop, padded so that the period
    overhead n_q - n is a multiple of ``PERIOD_QUANTUM``."""
    retries: int
    """Loop-length doublings, plus the lengthenings of the path g into
    the stable set of p that a degenerate top singular value forced."""

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

    At each loop length ell the loop is padded so that the period overhead
    n_q - n lands on a multiple of ``PERIOD_QUANTUM``: the overhead plays
    the role of a single per-cocycle constant, so batches report one
    common value instead of per-word jitter.  If every member's product
    around that orbit is certified, it is the report; otherwise ell
    doubles (see :func:`_closing_loop`).

    A family of scalar cocycles has no hyperplane to steer clear of, and
    every nonzero scalar is proximal: the word closes through a shortest
    bridge.
    """
    _require_tau(tau)
    family, p = ctx.forward.family, ctx.forward.p
    x = point_from_word(family[0].base, x_word, p.coord(0))
    if all(B.dim == 1 for B in family):
        return replace(_closure_d1(family[0], tuple(x_word), p.coord(0)), bound_value=None)
    return _synthesize(ctx, x_word, x, tau)[0]


def _synthesize(ctx: FamilyContext, x_word: Symbols, x: PointSpec, tau: float):
    """:func:`synthesize_family` for x_word at its canonical point x (for
    the fixed symbol of p), returning with the report the per-member window
    rows and rescaled products over the word and around q.

    The family folds as one stack per size group (see :class:`Group`),
    so each path's window rows are read once for all members.  Each group
    folds x's windows once, from the identity (see :func:`_fold`): the
    word's n rows, then on through the path g.  The path through g joins
    g's fold to the transversal path's (see :func:`_join`), and the
    closing loops continue that fold (see :func:`_closing_loop`).
    """
    fwd = ctx.forward
    k = fwd.family[0].radius
    n = len(x_word)
    # the canonical representative already carries a bridge to the fixed
    # symbol, ending at its reach; shortly after that its orbit sits on the
    # stable set of p
    tail_start = x.reach()[1] + 1
    rows = _orbit_rows(fwd.family[0], x, n)
    stacks = [_extend_products(G.mats, G.every, rows + G.offsets, *_start(G.dim, len(G.members)))
              for G in fwd.groups]
    word = [(rows, scaled) for scaled in _members(fwd, stacks)]
    trunks = [(rows, *scaled) for scaled in stacks]
    retries = 0
    g_extra = 0
    while True:
        # at least 2k steps, so g's trunk covers the k windows the join
        # replaces
        g_path = PathSpec(x, x, max(tail_start + 3, 2 * k) + g_extra, fwd.p)
        prods, trunks = _fold_family(fwd, _orbit_rows(fwd.family[0], x, g_path.n), trunks)
        try:
            # the rescaled product: the hyperplane reads only the top of
            # the spectrum, which rescaling keeps
            normals = [ams_hyperplane(holonomy_s(B, g_path.end, fwd.p) @ m[:, :, 0])
                       for B, (m, _) in zip(fwd.family, prods)]
            break
        except DegenerateTopSingularValue:
            retries += 1
            g_extra = 2 ** retries
            if g_extra > 64:
                raise
    bpath, margins, heads = transversal_path(ctx, x, normals)
    gb = connect(bpath, g_path)
    rows = _orbit_rows(fwd.family[0], gb.x0, gb.n)
    trunks = [_join(G, rows, bpath.n, x, h, t) for G, h, t in zip(fwd.groups, heads, trunks)]
    u, trunks = path_direction(fwd, gb, _top_vectors(fwd), trunks, rows)
    a_turn = turn_direction(fwd.frames, u, 0.05, TURN_CAP)
    turned = extend_at_fixed_target(gb, a_turn)

    ell, doublings, final, q, witnesses, closing = _closing_loop(fwd, turned, trunks, n, tau)
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
        retries=retries + doublings,
    ), word, closing


def _closing_loop(side: Side, turned: PathSpec, trunks, n: int, tau: float):
    """The certified closing of turned, an n-symbol word's path turned at
    p: (loop length, doublings, closing path, q, witnesses, closing folds).

    At each loop length ell, from max(excursion end + 2, 8) up, doubling to
    ``ELL_CAP``, one loop is certified: the loop padded to ell + pad, which
    puts the period overhead on a multiple of ``PERIOD_QUANTUM``.  A padded
    length equal to the one that just failed (pad >= ell) is not certified
    again.  Each group's trunk is carried from one loop's cut to the next,
    whose rows extend it (a longer loop only appends fixed symbols).  The
    witness conditions are scale-invariant, so the rescaled products are
    certified (raw ones can overflow for large loops).
    """
    ell, doublings, failed = max(side.excursion_end + 2, 8), 0, None
    while ell <= ELL_CAP:
        length = ell + -(turned.n + ell - n) % PERIOD_QUANTUM
        if length != failed:
            final = connect(turned, loop_path(side.p, side.z, length))
            q = make_periodic(side.family[0].base, final.x0.coords(0, final.n - 1))
            rows = _orbit_rows(side.family[0], periodic_point(q), final.n)
            prods, trunks = _fold_family(side, rows, trunks)
            witnesses = tuple(eps_proximal_witness(m[:, :, 0], tau) for m, _ in prods)
            if all(w.verdict for w in witnesses):
                closing = [(rows, scaled) for scaled in prods]
                return length, doublings, final, q, witnesses, closing
            failed = length
        doublings += 1
        ell *= 2
    raise SynthesisFailed(f"loop length cap {ELL_CAP} reached without certifying")


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


def build_proximal_periodic(A: WindowCocycle, cert, x_word: Symbols,
                            tau: float) -> SynthesisReport:
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
    report, word, closing = _synthesize(ctx, tuple(x_word), x, tau)
    # the members are A's exterior powers, so their products over the word
    # and around q are the rungs of A's ladders with every window already
    # applied: the word's are those orbit_mu_vec folds, byte for byte
    mu, chi = (_rung_ladder(A, folds, top) for folds, top in ((word, "svd"), (closing, "eig")))
    return replace(report, bound_value=float(np.linalg.norm(mu - chi)))


def _rung_ladder(A: WindowCocycle, folds, top: str) -> np.ndarray:
    """A's ladder row from its exterior powers' (rows, rescaled product)
    folds over one orbit, each a member's slice of its group's stack."""
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


def verify_theorem_a(A: WindowCocycle, cert, words: Sequence[Symbols],
                     tau: float) -> TheoremAReport:
    """Run the builder on each word and aggregate the bound values.

    ``empirical_c`` is the largest observed norm difference, ``empirical_k``
    the largest period overhead (a multiple of ``PERIOD_QUANTUM`` when
    d >= 2); the least-squares slope of bound against word length is the
    drift diagnostic (flat means the bound is length-free).
    """
    if len(words) == 0:
        raise ValueError("no words to sample")
    reports = []
    failures = []
    for w in words:
        try:
            reports.append(build_proximal_periodic(A, cert, tuple(w), tau))
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
