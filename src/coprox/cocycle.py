"""Finite-window matrix cocycles and their exact canonical holonomies.

A window cocycle assigns an invertible d x d matrix to every admissible
window of 2k+1 symbols; the matrix at a point reads coordinates -k..k.
For such cocycles the stable/unstable holonomy limits stabilize after
exactly k steps (all further factors coincide on a common leaf), so
holonomies here are *exact* finite products, and fiber-bunching is not
needed for their existence.

Also provides the transposed cocycle over the time-reversed subshift,
which moves hyperplane normals backward along orbits, exterior-power
cocycles, and the one long-product kernel: symbol arrays become table
rows (``_window_rows``), and rescaled products over those rows
(``_extend_products``), each held as 2^scale times a matrix with its
peak entry in [0.5, 1), feed the spectral ladder (``_ladder``).  It
serves level sweeps over all admissible words (``sweep_log_singular``),
given words (``batch_log_singular``), single orbits as batches of one
(``orbit_mu_vec``, synthesis folds), given cycles (``cycle_chi_rows``)
and every periodic orbit up to a period, read off the admissible
prenecklaces (``lyndon_chi_rows``), with the same bytes per product on
every path.  The sweep and the prenecklaces run on one depth-first level
walk in blocks of at most ``ROW_CAP`` rows (``_levels``).  The kernel
holds its products column-major, as (r, r, rows) arrays whose every
entry is a contiguous vector over the rows: a step by one window matrix
over many rows is one GEMM, and rescales and tops are elementwise calls
on those vectors.  Rescaling is by powers of two, which is exact, so a
rescaled product holds the raw product's mantissas whatever the rescale
cadence or the calls a fold is split into, and a raw product
(``product``) is the kernel's output with its exponent put back.  The
ladder reads only the top of each rung, by one rule per row, so a row's
bytes do not depend on its batch.  A top
singular value comes from a closed form on 2 x 2 and 3 x 3 rungs and
from the top eigenvalue of the rescaled product's Gram matrix on larger
ones, accurate to a few ulps (see ``_top_singular``).  A top eigenvalue
modulus comes from the characteristic polynomial's roots on 2 x 2 and 3
x 3 rungs, and from ``np.linalg.eigvals`` on larger ones and on the rows
where a first-order error bound does not hold the closed form to a few
ulps (see ``_top_eig``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    InputFormatError,
    NotHomoclinic,
    NotOnGlobalLeaf,
    NotOnLocalLeaf,
    SymbolMismatch,
)
from .matnum import exterior_power, require_invertible
from .sft import (
    PointSpec,
    Sft,
    Symbols,
    bracket,
    enumerate_words,
    extend_words,
    in_local_stable,
    in_local_unstable,
    is_fixed_point,
    reverse_sft,
    point_from_word,
    prenecklace_step,
    same_point,
    stable_shift,
    unstable_shift,
    word_array,
)


@dataclass(frozen=True)
class WindowCocycle:
    """Map from admissible (2*radius+1)-windows to invertible matrices."""

    base: Sft
    dim: int
    radius: int
    table: Mapping[Symbols, np.ndarray]
    # data derived from the cocycle alone (its exterior powers, its transpose,
    # synthesis contexts), built once per cocycle: see ``_memoised``
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        expected = set(enumerate_words(self.base, 2 * self.radius + 1))
        got = set(self.table)
        if got != expected:
            missing = sorted(expected - got)[:3]
            extra = sorted(got - expected)[:3]
            raise ValueError(
                f"table keys must be exactly the admissible windows "
                f"(missing {missing}, extra {extra})"
            )
        frozen = {}
        for w, m in self.table.items():
            m = np.asarray(m, dtype=float)
            if m.shape != (self.dim, self.dim):
                raise ValueError(f"matrix for window {w} has shape {m.shape}")
            if not np.isfinite(m).all():
                raise ValueError(f"matrix for window {w} has non-finite entries")
            m = require_invertible(m)
            m.setflags(write=False)
            frozen[w] = m
        object.__setattr__(self, "table", frozen)

    def at(self, x: PointSpec, j: int = 0) -> np.ndarray:
        """Matrix applied at the j-th step along the orbit of x."""
        return self.table[x.coords(j - self.radius, j + self.radius)]

    @cached_property
    def _rows(self) -> dict:
        """Window -> row of the per-window stacks, lexicographic order."""
        return {w: i for i, w in enumerate(sorted(self.table))}

    @cached_property
    def _lookup(self) -> np.ndarray:
        """Base-q window code -> row, -1 for inadmissible codes."""
        q, windows = self.base.alphabet_size, np.array(list(self._rows))
        lookup = np.full(q ** windows.shape[1], -1, dtype=np.int64)
        lookup[windows @ q ** np.arange(windows.shape[1])[::-1]] = np.arange(len(windows))
        return lookup

    @cached_property
    def _mats(self) -> np.ndarray:
        """The window matrices stacked in row order."""
        return np.stack([self.table[w] for w in self._rows])

    @cached_property
    def _logdets(self) -> np.ndarray:
        return np.array([np.linalg.slogdet(m)[1] for m in self._mats])

    @cached_property
    def _rungs(self) -> tuple[np.ndarray, ...]:
        """Stacked t-th exterior powers of the window matrices, t = 1..d-1."""
        return tuple(np.stack([exterior_power(m, t) for m in self._mats]) if t > 1
                     else self._mats for t in range(1, self.dim))

    @cached_property
    def _cadence(self) -> int:
        """The kernel's rescale cadence for the window matrices."""
        return _rescale_cadence(self._mats)

    @cached_property
    def _cadences(self) -> tuple[int, ...]:
        """The kernel's rescale cadence per ladder rung."""
        return tuple(map(_rescale_cadence, self._rungs))


def _orbit_rows(A: WindowCocycle, x: PointSpec, n: int) -> np.ndarray:
    """Table rows of the n windows read along the orbit of x, as one row."""
    if n < 0:
        raise ValueError("orbit rows need n >= 0")
    k = A.radius
    return _window_rows(A, np.array([x.coords(-k, n - 1 + k)], dtype=np.int64))


def product(A: WindowCocycle, x: PointSpec, n: int) -> np.ndarray:
    """Cocycle product along the orbit: A(s^{n-1}x) ... A(x) for n >= 0.

    Negative n returns the inverse of the product along the pulled-back
    orbit, so the cocycle equation holds for all integer times.  The
    kernel's fold with its binary exponent put back: rescaling by powers
    of two is exact, so these are a plain matmul loop's bytes wherever
    that loop neither overflows nor underflows.
    """
    if n < 0:
        return np.linalg.inv(product(A, x.shift(n), -n))
    prods, scales = _extend_products(A._mats, A._cadence, _orbit_rows(A, x, n), *_start(A.dim))
    return np.ldexp(prods[:, :, 0], scales[0])


def orbit_mu_vec(A: WindowCocycle, x: PointSpec, n: int) -> np.ndarray:
    """Log singular values of the product along the orbit, any length n >= 0.

    Each exterior power of the product is accumulated with running
    rescaling, so every ladder rung is a top quantity of an accurately
    represented matrix.
    """
    return _ladder(A, _orbit_rows(A, x, n), _identity_trunks(A, 1), np.zeros(1), "svd")[0]


def cycle_chi_rows(A: WindowCocycle, cycles: np.ndarray) -> np.ndarray:
    """Log eigenvalue moduli of the product once around each periodic point
    given by a row of an array of admissible cycles, each folded from the
    identity: the rows :func:`lyndon_chi_rows` reproduces byte for byte."""
    n, k = cycles.shape[1], A.radius
    rows = _window_rows(A, cycles[:, np.arange(-k, n + k) % n])
    return _ladder(A, rows, _identity_trunks(A, len(rows)), np.zeros(len(rows)), "eig")


def lyndon_chi_rows(A: WindowCocycle, max_period: int) -> list:
    """[(cycles, rows)] per walk block, in walk order: the admissible
    Lyndon words of length n = 1..max_period with an allowed wrap pair (one
    per orbit of period n) and their :func:`cycle_chi_rows` rows, byte for
    byte.

    The level walk (:func:`_levels`) runs over the admissible prenecklaces
    (see :func:`coprox.sft.prenecklace_step`) and shares every prefix's
    product.  A level-m row is a root g, an admissible k-word standing for
    the cycle's last k symbols, and a prenecklace w[:m] with g w[:m]
    admissible; its trunk is the product over windows 0..m-1-k of g w[:m],
    with its log-determinant sum.  A row is a cycle of period n when w is
    Lyndon, its wrap pair is allowed and g = w[(-k..-1) mod n]; ``_ladder``
    then continues its trunk through windows max(0, n-k)..n-1 of g w
    w[(0..k-1) mod n].  Those are the cycle's windows from the identity,
    rescaled by exact powers of two and their log determinants added in the
    same order, hence the bytes of its fold from scratch.  The closed rows
    are kept continued and their tops read together, in one call per rung
    each time ``ROW_CAP`` rows have gathered and after the walk: a top is
    its row's alone.
    """
    s, k = A.base, A.radius

    def step(parent, words, lyn):
        keep, lyn = prenecklace_step(words[:, k:], lyn[parent])
        return parent[keep], words[keep], lyn[keep]

    roots = word_array(s, k)
    out, closed_rows = [], []
    for n, words, lyn, trunks, logdets in _levels(A, step, max_period, roots,
                                                  np.zeros(len(roots), dtype=np.int64)):
        cycles = words[:, k:]
        sel = ((lyn == n) & s._arrows[cycles[:, -1], cycles[:, 0]]
               & (words[:, :k] == cycles[:, np.arange(-k, 0) % n]).all(axis=1)).nonzero()[0]
        if len(sel):
            tail = _window_rows(A, cycles[sel][:, np.arange(max(0, n - k) - k, n + k) % n])
            trunk = [(p[:, :, sel], sc[sel]) for p, sc in trunks]
            closed_rows.append((cycles[sel], *_continued(A, tail, trunk, logdets[sel])))
            if sum(len(c) for c, _, _ in closed_rows) >= ROW_CAP:
                out += _closed_tops(closed_rows)
                closed_rows = []
    return out + _closed_tops(closed_rows) if closed_rows else out


def _closed_tops(closed_rows: list) -> list:
    """[(cycles, rows)] for a list of (cycles, continued products, log-det
    sums) per period: the ``"eig"`` tops of all their products at once,
    each rung's stacks handed to :func:`_tops` as a list, so that the
    periods and the same-size rungs are joined in one concatenation."""
    cycles, trunks, logdets = zip(*closed_rows)
    joined = [([t[i][0] for t in trunks], np.concatenate([t[i][1] for t in trunks]))
              for i in range(len(trunks[0]))]
    rows = _tops(joined, np.concatenate(logdets), "eig")
    return list(zip(cycles, np.split(rows, np.cumsum([len(c) for c in cycles])[:-1])))


def holonomy_s(A: WindowCocycle, x: PointSpec, y: PointSpec) -> np.ndarray:
    """Local stable holonomy from x to y (coordinates agree for i >= 0):
    the quotient of the products over radius steps, where it is exact
    (more steps reproduce the same matrix)."""
    if not in_local_stable(x, y):
        raise NotOnLocalLeaf("y is not in the local stable set of x")
    if A.radius == 0:
        return np.eye(A.dim)  # the empty products' quotient, exactly
    return np.linalg.inv(product(A, y, A.radius)) @ product(A, x, A.radius)


def holonomy_u(A: WindowCocycle, x: PointSpec, y: PointSpec) -> np.ndarray:
    """Local unstable holonomy from x to y (coordinates agree for i <= 0)."""
    if not in_local_unstable(x, y):
        raise NotOnLocalLeaf("y is not in the local unstable set of x")
    if A.radius == 0:
        return np.eye(A.dim)
    return np.linalg.inv(product(A, y, -A.radius)) @ product(A, x, -A.radius)


def global_holonomy_s(A: WindowCocycle, x: PointSpec, y: PointSpec) -> np.ndarray:
    """Stable holonomy extended along orbits: A^l(y)^-1 H^s(s^l x, s^l y) A^l(x)
    with l the least shift putting the pair on a local leaf (the value is
    the same for any larger shift)."""
    ell = stable_shift(x, y)
    if ell is None:
        raise NotOnGlobalLeaf("points are not on a common stable set")
    local = holonomy_s(A, x.shift(ell), y.shift(ell))
    return np.linalg.inv(product(A, y, ell)) @ local @ product(A, x, ell)


def global_holonomy_u(A: WindowCocycle, x: PointSpec, y: PointSpec) -> np.ndarray:
    """Unstable holonomy extended along backward orbits, with the least
    leaf shift."""
    ell = unstable_shift(x, y)
    if ell is None:
        raise NotOnGlobalLeaf("points are not on a common unstable set")
    local = holonomy_u(A, x.shift(-ell), y.shift(-ell))
    return product(A, y.shift(-ell), ell) @ local @ np.linalg.inv(product(A, x.shift(-ell), ell))


def holonomy_loop(A: WindowCocycle, p: PointSpec, z: PointSpec) -> np.ndarray:
    """Holonomy loop psi_z = H^s(z -> p) o H^u(p -> z) around a homoclinic z.

    Requires p to be a fixed point and z to approach p both forward and
    backward in time (z eventually-p on both sides, z != p).  z may sit at
    any position along its orbit; the required global holonomies are found
    automatically.
    """
    if not is_fixed_point(p):
        raise NotHomoclinic("p must be a fixed point of the shift")
    if same_point(p, z):
        raise NotHomoclinic("z equals p")
    if stable_shift(z, p) is None or unstable_shift(p, z) is None:
        raise NotHomoclinic("z is not homoclinic to p")
    return global_holonomy_s(A, z, p) @ global_holonomy_u(A, p, z)


def rectangle(A: WindowCocycle, p: PointSpec, q: PointSpec) -> np.ndarray:
    """Four-holonomy rectangle through p and q (requires p0 = q0).

    Composition p -> [q,p] -> q -> [p,q] -> p of alternating local stable
    and unstable holonomies; identity when q = p and, for window cocycles,
    approaches the identity as q -> p.
    """
    if p.coord(0) != q.coord(0):
        raise SymbolMismatch("rectangle needs matching zeroth symbols")
    pq = bracket(p, q)
    qp = bracket(q, p)
    return (
        holonomy_u(A, pq, p)
        @ holonomy_s(A, q, pq)
        @ holonomy_u(A, qp, q)
        @ holonomy_s(A, p, qp)
    )


def distortion_residual(A: WindowCocycle, x: PointSpec, y: PointSpec, n: int) -> float:
    """Relative error of the four-holonomy distortion identity on [x]_n.

    With z = [x, y]:
    A^n(x) = H^u(s^n z -> s^n x) H^s(s^n y -> s^n z) A^n(y) H^s(z -> y) H^u(x -> z).
    """
    if x.coords(0, n - 1) != y.coords(0, n - 1):
        raise ValueError("y must agree with x on coordinates 0..n-1")
    z = bracket(x, y)
    lhs = product(A, x, n)
    rhs = (
        global_holonomy_u(A, z.shift(n), x.shift(n))
        @ holonomy_s(A, y.shift(n), z.shift(n))
        @ product(A, y, n)
        @ holonomy_s(A, z, y)
        @ holonomy_u(A, x, z)
    )
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))


def transpose_cocycle(A: WindowCocycle) -> WindowCocycle:
    """The transposed cocycle over the time-reversed subshift.

    Windows reverse, matrices transpose; a point x corresponds to the
    reversed point with coordinates x_{-1-i}, under which products satisfy
    product(transpose, reversed x, n) = product(A, x.shift(-n), n)^T, so a
    hyperplane with normal v moved back n steps by A has normal
    product(transpose, reversed x, n) v.  Built and validated once per
    cocycle.
    """
    return _memoised(A, "transpose", lambda: WindowCocycle(
        reverse_sft(A.base), A.dim, A.radius,
        {w[::-1]: m.T for w, m in A.table.items()}))


def exterior_cocycle(A: WindowCocycle, t: int) -> WindowCocycle:
    """Cocycle of t-th exterior powers (1 <= t < d) over the same base, its
    table read from A's ladder rungs; built and validated once per cocycle
    and t."""
    if not 1 <= t < A.dim:
        raise ValueError(f"need 1 <= t <= {A.dim - 1}")
    return _memoised(A, ("exterior", t), lambda: WindowCocycle(
        A.base, A._rungs[t - 1].shape[1], A.radius,
        {w: A._rungs[t - 1][i] for w, i in A._rows.items()}))


def require_common_base(family: Sequence[WindowCocycle]) -> None:
    """Reject a family whose members live over different subshifts: a
    common pair (p, z), a common orbit or a common cylinder needs one base."""
    if any(A.base != family[0].base for A in family):
        raise ValueError("family members must share one base subshift")


def _memoised(A: WindowCocycle, key, build):
    """The value ``build()`` kept on A under a hashable key: data that
    depends on the cocycle and the key alone is built once per cocycle."""
    if key not in A._memo:
        A._memo[key] = build()
    return A._memo[key]


def scaled_cocycle(A: WindowCocycle, log_factor: float) -> WindowCocycle:
    """Cocycle with every window matrix multiplied by exp(log_factor)."""
    factor = float(np.exp(log_factor))
    table = {w: factor * m for w, m in A.table.items()}
    return WindowCocycle(A.base, A.dim, A.radius, table)


# ---------------------------------------------------------------------------
# the long-product kernel: rescaled products over window-row arrays
# ---------------------------------------------------------------------------


def _pads(A: WindowCocycle, base_symbol: int) -> tuple[np.ndarray, np.ndarray]:
    """The k symbols before and after a word in its canonical representative,
    per first (resp. last) symbol: those around the one-symbol word's."""
    k = A.radius
    points = [point_from_word(A.base, (c,), base_symbol) for c in range(A.base.alphabet_size)]
    return (np.array([x.coords(-k, -1) for x in points], dtype=np.int64),
            np.array([x.coords(1, k) for x in points], dtype=np.int64))


def _canonical(words: np.ndarray, pads) -> np.ndarray:
    """The words with their canonical representatives' k pad symbols on
    either side."""
    lpads, rpads = pads
    return np.concatenate([lpads[words[:, 0]], words, rpads[words[:, -1]]], axis=1)


def _window_rows(A: WindowCocycle, symbols: np.ndarray) -> np.ndarray:
    """Table rows of the windows of 2k+1 consecutive symbols in each row of
    a symbol array: (N, L) symbols give (N, L - 2k) rows."""
    span = symbols.shape[1] - 2 * A.radius
    codes = symbols[:, :span].astype(np.int64)
    for o in range(1, 2 * A.radius + 1):
        codes = codes * A.base.alphabet_size + symbols[:, o:o + span]
    rows = A._lookup[codes]
    if (rows < 0).any():
        raise ValueError("inadmissible window")
    return rows


LN2 = np.log(2.0)


def _rescale_cadence(mats: np.ndarray) -> int:
    """Steps the kernel takes between rescales of products of a stack of
    r x r matrices: a step moves a product's peak entry by at most
    b = log2(r max(|A|max, |A^-1|max)) binary orders, so floor(128 / b)
    steps, at most 32, keep it within 2^128 of [0.5, 1), far from overflow
    and the subnormal range (b >= 1 is taken, for 1 x 1 stacks of units)."""
    worst = max(np.abs(mats).max(), np.abs(np.linalg.inv(mats)).max())
    return int(min(32, max(1, 128 // max(np.log2(mats.shape[1] * worst), 1.0))))


def _start(dim: int, count: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """count empty products: the identity with binary scale 0, as a
    column-major (dim, dim, count) stack."""
    return np.repeat(np.eye(dim)[:, :, None], count, axis=2), np.zeros(count, dtype=np.int64)


def _extend_products(mats: np.ndarray, every: int, idx: np.ndarray, prods: np.ndarray,
                     scales: np.ndarray, take: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Multiply the products 2^scales * prods on the left by the window
    matrices of each column of idx in turn: the one long-product kernel,
    run by sweeps, word batches, raw products, single orbits and synthesis
    folds (batches of one) and cycles.  Row i of idx continues product
    ``take[i]`` (product i without ``take``), so a level of a sweep or of
    a prenecklace walk forms its children straight from their parents'
    products.

    Products are column-major, an (r, r, rows) array: entry (i, j) of
    every product is one contiguous vector over the rows.  A step by
    window matrix M over many rows is then one GEMM, M @ P.reshape(r, r *
    rows), and each step column runs one gather, one GEMM and one scatter
    per window present (see :func:`_step`).  BLAS forms each entry of
    each product as the same dot product whatever the GEMM's width (a
    tier-1 test holds every row to a per-matrix matmul), so a row gets the
    bytes it gets in a batch of one, which keeps its 2-D matmul loop.

    After every ``every``-th step (the stack's cadence, see
    :func:`_rescale_cadence`) and after the last, each product is divided
    by the power of two at its peak entry (``np.frexp``'s exponent, by
    ``np.ldexp``), which leaves the peak in [0.5, 1), and the exponent is
    added to its integer scale.  That is exact unless an entry overflows
    or goes subnormal, so the products handed on are the raw product's
    mantissas in one canonical form, their bytes independent of the
    cadence and of how a fold is split across calls.  (Entries over 2^900
    below their product's peak may go subnormal before one rescale and not
    at another; the demos keep the identity there, diag(4, 1)^n included.)
    A batch of one takes a scalar peak and exponent: the same IEEE
    operations, so the bytes of a batch row.
    """
    if take is not None:
        scales = scales[take]
        if len(idx) == 1 or not idx.shape[1]:
            prods, take = prods[:, :, take], None
    if not idx.shape[1]:
        return prods, scales
    if len(idx) == 1:
        m, s, steps = np.ascontiguousarray(prods[:, :, 0]), scales[0], mats[idx[0]]
        for c in range(0, len(steps), every):
            for step in steps[c:c + every]:
                m = np.matmul(step, m)
            e = np.frexp(np.maximum.reduce(np.abs(m), axis=None))[1]
            m, s = np.ldexp(m, -e), s + e
        return m[:, :, None], np.array([s])
    cols = np.ascontiguousarray(idx.T)
    for c in range(0, len(cols), every):
        for col in cols[c:c + every]:
            prods, take = _step(mats, col, prods, take), None
        prods, scales = _rescale(prods, scales)
    return prods, scales


def _step(mats: np.ndarray, col: np.ndarray, prods: np.ndarray,
          take: np.ndarray | None) -> np.ndarray:
    """Each product of a column-major stack (the ``take`` rows of prods,
    all of them without) multiplied on the left by the window matrix of
    its row of col: per window present, one gather of its rows, one GEMM
    and one scatter of the results; one GEMM alone when col names one
    window only and the products are all taken in order."""
    r = len(prods)
    present = np.bincount(col).nonzero()[0]
    if len(present) == 1 and take is None:
        return (mats[present[0]] @ prods.reshape(r, -1)).reshape(r, r, -1)
    out = np.empty((r, r, len(col)))
    for w in present:
        sel = (col == w).nonzero()[0]
        block = prods.take(sel if take is None else take[sel], axis=2)
        out[:, :, sel] = (mats[w] @ block.reshape(r, -1)).reshape(r, r, -1)
    return out


def _rescale(prods: np.ndarray, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2^scales * prods with each product of a column-major stack divided
    by the power of two at its peak entry and the exponent added to its
    scale.  The peaks are one maximum reduction over the entry vectors (a
    maximum is exact, so its order does not matter); prods is overwritten,
    which spares every rescale a fresh stack the size of its products."""
    e = np.frexp(np.abs(prods.reshape(len(prods) ** 2, -1)).max(axis=0))[1]
    np.negative(e, out=e)
    return np.ldexp(prods, e, out=prods), scales - e


def _identity_trunks(A: WindowCocycle, count: int) -> list:
    """Empty products (identity, binary scale 0) on every exterior rung."""
    return [_start(len(m[0]), count) for m in A._rungs]


def _logdet_sum(A: WindowCocycle, idx: np.ndarray, start: np.ndarray) -> np.ndarray:
    """start plus the log determinants of the windows of each row of idx,
    added left to right: by ``np.cumsum`` (a sequential fold) along a
    single row, column by column over several."""
    logs = A._logdets[idx]
    if len(idx) == 1:
        return np.cumsum(np.concatenate([start, logs[0]]))[-1:]
    sums = start.copy()
    for column in logs.T:
        sums += column
    return sums


CLUSTERED = 1e-2
"""A 3x3 rung's row whose Smith parameter r has 1 + r below this (its
Gram's top two eigenvalues cluster), or is nan (p = 0, a scalar Gram),
takes its top from ``np.linalg.eigvalsh``: see :func:`_top_singular`."""

ROOT_ULPS = 16
"""Most ulps of its top that a 2x2 or 3x3 row's closed-form top eigenvalue
modulus may be off by, to first order, before the row takes it from
``np.linalg.eigvals``: see :func:`_top_eig`."""


def _top_singular(prods: np.ndarray) -> np.ndarray:
    """Top singular value of each r x r matrix of a column-major stack,
    by one rule per row whatever the stack's size, so a product gets the
    same bytes in any batch.

    2 x 2, [[a, b], [c, d]]: (hypot(a + d, b - c) + hypot(a - d, b + c)) / 2,
    a sum of two nonnegative terms, which cannot cancel.  Larger rungs read
    the Gram matrix G = M^T M, each entry a dot product of two columns
    summed left to right over contiguous vectors.  3 x 3: the root of the
    top eigenvalue q + 2p cos(arccos(r) / 3) of G, with q = tr G / 3, p =
    |G - qI|_F / sqrt(6) and r = det((G - qI) / p) / 2 (Smith, CACM 1961),
    again a sum of nonnegative terms, read off G's six distinct entries
    (see :func:`_gram_entries`) with each sum accumulated in place.  It
    loses accuracy only where arccos does, as r -> -1, where the top two
    eigenvalues meet; rows with 1 + r < ``CLUSTERED`` (or r nan) take the
    root of the top ``np.linalg.eigvalsh`` eigenvalue of G, as larger
    rungs do, G built whole for those rows alone.  Forming G and solving it
    perturb it by a few ulps of its norm, its top eigenvalue, so by Weyl's
    inequality that top is good to a few ulps however the eigenvalues
    cluster.
    """
    size = len(prods)
    if size == 2:
        (a, b), (c, d) = prods
        return (np.hypot(a + d, b - c) + np.hypot(a - d, b + c)) / 2
    if size != 3:
        gram = prods[0][:, None] * prods[0][None]
        for row in prods[1:]:
            gram += row[:, None] * row[None]
        return np.sqrt(np.linalg.eigvalsh(gram.transpose(2, 0, 1))[:, -1])
    # b00, b11, b22 and the off-diagonal entries become the entries of
    # (G - qI) / p in place; a stack of one product runs on numpy scalars,
    # which round as vectors do, at a fraction of the per-call cost of
    # one-element vectors
    b00, b01, b02, b11, b12, b22 = _gram_entries(prods[:, :, 0] if prods.shape[2] == 1
                                                 else prods)
    q = b00 + b11
    q += b22
    q /= 3
    b00 -= q
    b11 -= q
    b22 -= q
    t = b00 * b00
    t += b11 * b11
    t += b22 * b22
    v = b01 * b01
    v += b02 * b02
    v += b12 * b12
    v *= 2
    t += v
    t /= 6
    p = np.sqrt(t)
    with np.errstate(invalid="ignore", divide="ignore"):
        b00 /= p
        b11 /= p
        b22 /= p
        b01 /= p
        b02 /= p
        b12 /= p
        # r = (b00 (b11 b22 - b12 b12) - b01 (b01 b22 - b12 b02)
        #      + b02 (b01 b12 - b11 b02)) / 2
        r = b11 * b22
        r -= b12 * b12
        r *= b00
        v = b01 * b22
        v -= b12 * b02
        v *= b01
        r -= v
        v = b01 * b12
        v -= b11 * b02
        v *= b02
        r += v
        r /= 2
        tops = np.arccos(np.minimum(r, 1.0))
        tops /= 3
        tops = np.cos(tops)
        p *= 2
        tops *= p
        tops += q
        tops = np.atleast_1d(np.sqrt(tops))
    fall = np.atleast_1d(~(1 + r >= CLUSTERED))
    if fall.any():
        g00, g01, g02, g11, g12, g22 = _gram_entries(prods[:, :, fall])
        gram = np.stack([g00, g01, g02, g01, g11, g12, g02, g12, g22], axis=1)
        tops[fall] = np.sqrt(np.linalg.eigvalsh(gram.reshape(-1, 3, 3))[:, -1])
    return tops


def _gram_entries(prods: np.ndarray) -> tuple:
    """The six distinct entries g00, g01, g02, g11, g12, g22 of the Gram
    matrices M^T M of a column-major 3 x 3 stack, each the dot product of
    two columns summed left to right over the rows of M (numpy scalars for
    a single 3 x 3 matrix)."""
    out = []
    for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        (xi, yi, zi), (xj, yj, zj) = prods[:, i], prods[:, j]
        g = xi * xj
        g += yi * yj
        g += zi * zj
        out.append(g)
    return tuple(out)


_EPS = np.finfo(float).eps


def _top_eig(prods: np.ndarray) -> np.ndarray:
    """Top eigenvalue modulus of each r x r matrix of a column-major stack,
    by one rule per row whatever the stack's size, so a product gets the
    same bytes in any batch.

    2 x 2, [[a, b], [c, d]]: |a + d| / 2 + sqrt(disc) when disc = ((a -
    d) / 2)^2 + bc >= 0, else sqrt(|ad - bc|).  3 x 3: the characteristic
    cubic lam^3 - c2 lam^2 + c1 lam - c0, from the trace, the sum of the
    principal 2 x 2 minors and the determinant read off the entry vectors.
    A real root comes from the stable Cardano form u = cbrt(-q/2 - sign(q)
    sqrt(D)), t = u - p / 3u (Blinn, IEEE CG&A 2006-07) when the cubic has
    one, and as the larger-modulus extreme of the trigonometric form's
    three when it has three; one Newton step on the cubic polishes it.
    Deflation leaves x^2 - (c2 - lam) x + c1 - lam (c2 - lam) for the other
    two, whose modulus is the root of that constant term when they are a
    complex pair.  The top is the larger modulus.

    Each row carries a first-order bound on its top's error: the
    coefficients' rounding (eps times the magnitudes of their terms),
    carried to the root through the polynomial's slope there, plus the
    Newton step's remainder.  It is large where the top is nearly multiple,
    whether the eigenvalues nearly coincide or the matrix is far from
    normal.  A row whose bound exceeds ``ROOT_ULPS`` ulps of its top (or is
    not finite) takes its top from ``np.linalg.eigvals``, as larger rungs
    do.  A stack of one product runs the same formulas on numpy scalars,
    whose every operation rounds as its vector counterpart does, at a
    fraction of the per-call cost of one-element vectors.
    """
    size = len(prods)
    if size > 3:
        return np.max(np.abs(np.linalg.eigvals(prods.transpose(2, 0, 1))), axis=1)
    rows = prods[:, :, 0] if prods.shape[2] == 1 else prods
    with np.errstate(all="ignore"):
        tops, err = (_quadratic_top if size == 2 else _cubic_top)(rows)
        fall = np.array(~(err <= ROOT_ULPS * _EPS * tops), ndmin=1)
    tops = np.array(tops, dtype=float, ndmin=1)
    if fall.any():
        tops[fall] = np.max(np.abs(np.linalg.eigvals(prods[:, :, fall].transpose(2, 0, 1))), axis=1)
    return tops


def _pick(cond, x, y):
    """``np.where(cond, x, y)``, kept scalar on scalars."""
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else (x if cond else y)


def _quadratic_top(m) -> tuple:
    """The 2 x 2 top eigenvalue modulus, entrywise, and its first-order
    error bound (see :func:`_top_eig`)."""
    (a, b), (c, d) = m
    half, dev, bc, ad = (a + d) / 2, (a - d) / 2, b * c, a * d
    disc, det = dev * dev + bc, ad - bc
    root = np.sqrt(abs(disc))
    tops = _pick(disc >= 0, abs(half) + root, np.sqrt(abs(det)))
    # the first term is large where disc is within its rounding of 0, so
    # that its sign, and the branch, is not sure
    err = _EPS * ((dev * dev + abs(bc)) / (2 * root)
                  + _pick(disc >= 0, abs(half), (abs(ad) + abs(bc)) / (2 * tops)))
    return tops, err


def _cubic_top(m) -> tuple:
    """The 3 x 3 top eigenvalue modulus, entrywise, and its first-order
    error bound (see :func:`_top_eig`)."""
    (a, b, c), (d, e, f), (g, h, i) = m
    ae, bd, ai, cg, ei, fh = a * e, b * d, a * i, c * g, e * i, f * h
    di, fg, dh, eg = d * i, f * g, d * h, e * g
    minor = ei - fh
    c2 = a + e + i
    c1 = (ae - bd) + (ai - cg) + minor
    c0 = a * minor - b * (di - fg) + c * (dh - eg)
    # the magnitudes of each coefficient's terms
    s2 = abs(a) + abs(e) + abs(i)
    s1 = abs(ae) + abs(bd) + abs(ai) + abs(cg) + abs(ei) + abs(fh)
    s0 = abs(a) * (abs(ei) + abs(fh)) + abs(b) * (abs(di) + abs(fg)) + abs(c) * (abs(dh) + abs(eg))
    # lam = t + c2 / 3 turns the cubic into t^3 + p t + q
    s = c2 / 3
    p, q = c1 - 3 * s * s, s * (c1 - 2 * s * s) - c0
    disc = (q / 2) * (q / 2) + (p / 3) * (p / 3) * (p / 3)
    u = np.cbrt(-q / 2 - np.copysign(np.sqrt(disc), q))
    r = np.sqrt(-p / 3)
    phi = np.arccos(np.maximum(np.minimum(-q / (2 * r * r * r), 1.0), -1.0)) / 3
    hi, lo = 2 * r * np.cos(phi) + s, 2 * r * np.cos(phi + 2 * np.pi / 3) + s
    lam = _pick(disc > 0, u - p / (3 * u) + s, _pick(abs(hi) >= abs(lo), hi, lo))
    slope = (3 * lam - 2 * c2) * lam + c1
    step = (((lam - c2) * lam + c1) * lam - c0) / slope
    lam = lam - step
    mod = abs(lam)
    err = (_EPS * (((mod + s2) * mod + s1) * mod + s0) + step * step * abs(3 * lam - c2)) / abs(slope)
    # the other two roots, rest / 2 +- sqrt(split); the split term of their
    # error is large where split's sign is not sure
    rest = c2 - lam
    prod = c1 - lam * rest
    split = rest * rest / 4 - prod
    root = np.sqrt(abs(split))
    pair = _pick(split < 0, np.sqrt(abs(prod)), abs(rest) / 2 + root)
    prod_err = _EPS * (s1 + mod * (s2 + abs(rest))) + err * (mod + abs(rest))
    split_err = prod_err + abs(rest) / 2 * (_EPS * s2 + err)
    pair_err = prod_err / (2 * pair) + split_err / (2 * root) + (_EPS * s2 + err) / 2
    return np.maximum(mod, pair), err + _pick(pair + pair_err >= mod, pair_err, 0.0)


def _ladder(A: WindowCocycle, tail: np.ndarray, trunks: list, logdets: np.ndarray,
            top: str = "svd") -> np.ndarray:
    """Rows of rung differences for products continued through the window
    rows tail from their trunks: per exterior rung, the rescaled
    column-major products over the windows before tail, and logdets, the
    left-to-right sum of those windows' log determinants (see
    :func:`_continued` and :func:`_tops`).  top="svd" gives log singular
    values, top="eig" log eigenvalue moduli: the roots of each 2 x 2 or 3 x
    3 rung's characteristic polynomial where an error bound holds them to
    a few ulps, ``np.linalg.eigvals`` elsewhere (see :func:`_top_eig`)."""
    return _tops(*_continued(A, tail, trunks, logdets), top)


def _continued(A: WindowCocycle, tail: np.ndarray, trunks: list,
               logdets: np.ndarray) -> tuple[list, np.ndarray]:
    """The trunks' rescaled products, rung by rung, and their log-determinant
    sums, continued through the window rows tail."""
    return ([_extend_products(m, every, tail, p, s)
             for m, every, (p, s) in zip(A._rungs, A._cadences, trunks)],
            _logdet_sum(A, tail, logdets))


def _tops(trunks: list, logdets: np.ndarray, top: str) -> np.ndarray:
    """Rows of rung differences read off continued products.

    Rung t < d is the log top singular value (top="svd": log singular
    values) or top eigenvalue modulus (top="eig": log eigenvalue moduli)
    of the t-th exterior power product; the determinant rung is the
    log-determinant sum.

    A rung's products come as 2^scales M, with M's peak entry in [0.5, 1)
    (or M the identity, over no windows); its log top is scales ln 2 +
    log top(M), the binary scale turned into a natural log once, here.
    Top singular values come from :func:`_top_singular`: closed forms on
    contiguous entry vectors for 2 x 2 and 3 x 3 rungs, the top eigenvalue
    of the Gram matrix M^T M from ``np.linalg.eigvalsh`` otherwise, each
    good to a few ulps, relative.  M's peak entry keeps that top at least
    1/2 and far from overflow.  Top eigenvalue moduli come from
    :func:`_top_eig`: the roots of the characteristic polynomial of 2 x 2
    and 3 x 3 rungs, read off the same entry vectors, and
    ``np.linalg.eigvals`` on larger rungs and on the rows whose closed
    form's error bound exceeds ``ROOT_ULPS`` ulps.  Each top is a function
    of its product alone, so a row's bytes do not depend on the rows it is
    read with.

    So the rungs of one matrix size are read together: their products are
    joined into one stack, read in one call and split back per rung.  At
    d = 3 both rungs are 3 x 3 and pay one closed-form pass, not two; at
    d = 4 rungs 1 and 3 share one.  A rung's products may also come as a
    list of stacks, its rows in order (:func:`_closed_tops`' periods),
    joined in that same concatenation.  A single product is read rung by
    rung on the tops' scalar path, which costs less than a 2-row read.

    The differences are written column by column into one C-ordered (N,
    d) array, the first as level - 0.0: the bytes of differencing the
    levels against a zero level.
    """
    read = _top_eig if top == "eig" else _top_singular
    count = len(logdets)
    stacks = [p if isinstance(p, list) else [p] for p, _ in trunks]
    sizes = [len(parts[0]) for parts in stacks]
    groups = ([[t] for t in range(len(trunks))] if count < 2 else
              [[t for t, r in enumerate(sizes) if r == size] for size in dict.fromkeys(sizes)])
    tops = [None] * len(trunks)
    for group in groups:
        parts = [p for t in group for p in stacks[t]]
        joined = read(parts[0] if len(parts) == 1 else np.concatenate(parts, axis=2))
        for i, t in enumerate(group):
            tops[t] = joined[i * count:(i + 1) * count]
    out = np.empty((count, len(trunks) + 1))
    below = 0.0
    for t, (rung, (_, scales)) in enumerate(zip(tops, trunks)):
        level = scales * LN2
        level += np.log(rung, out=rung)
        np.subtract(level, below, out=out[:, t])
        below = level
    np.subtract(logdets, below, out=out[:, -1])
    return out


ROW_CAP = 4096
"""Most rows one kernel batch carries: walk levels (sweeps and spectra) and
word batches with more are cut into contiguous blocks.  A walk block
makes the same numpy calls per level whatever its rows (per window a
gather, a GEMM and a scatter, one maximum reduction per rescale, and
about 80 elementwise calls for the tops of each size of rung, which both
3x3 rungs share), so blocks are large; on 3x3 rungs one holds about 0.6
MB of products.  Larger caps cost memory for no clear gain: 16,384 rows
add about 3 MB to the peak of the golden 3x3 pressure sweep to n = 20
and leave its time within the noise."""


def _blocks(count: int) -> list[slice]:
    """The fewest contiguous near-equal row blocks of at most ROW_CAP rows."""
    parts = -(-count // ROW_CAP)
    bounds = [count * i // parts for i in range(parts + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def batch_log_singular(A: WindowCocycle, words: Sequence[Symbols],
                       base_symbol: int) -> np.ndarray:
    """Log singular values (rows nonincreasing) of arbitrary equal-length
    words at their canonical representatives.

    The ladder is the one :func:`sweep_log_singular` runs, started from
    the identity for every word, so a word gets the same bytes from both.
    Words run in contiguous blocks of at most ``ROW_CAP`` rows.
    """
    if len(words) == 0:
        return np.empty((0, A.dim))
    words, pads = np.asarray(words, dtype=np.int64), _pads(A, base_symbol)
    blocks = [words[b] for b in _blocks(len(words))]
    return np.concatenate([_ladder(A, _window_rows(A, _canonical(w, pads)),
                                   _identity_trunks(A, len(w)), np.zeros(len(w)))
                           for w in blocks])


def _cut(words: np.ndarray, aux, parent: np.ndarray, trunks: list,
         logdets: np.ndarray) -> list:
    """A level's rows cut into contiguous blocks of at most ROW_CAP rows,
    each with the run of parents it extends: (words, aux, parent, trunks,
    logdets) per block.  Blocks are copies, so the level is freed once its
    caller lets go of it."""
    blocks = []
    for b in _blocks(len(words)):
        # children follow their parents' order, so a block's parents are a run
        run = slice(parent[b.start], parent[b.stop - 1] + 1)
        blocks.append((words[b].copy(), None if aux is None else aux[b].copy(),
                       parent[b] - run.start,
                       [(p[:, :, run].copy(), s[run].copy()) for p, s in trunks],
                       logdets[run].copy()))
    return blocks


def _levels(A: WindowCocycle, step, depth: int, words: np.ndarray, aux,
            parent=None, trunks=None, logdets=None, n: int = 0):
    """Blocks (n, words, aux, trunks, logdets) of levels n = 1..depth of a
    depth-first walk from level-0 roots (rows of words, per-row aux or
    None, identity trunks): the one walk of the sweep and the spectrum.

    A level extends each row by every admissible symbol (``extend_words``,
    sorted rows give sorted children); ``step`` takes (parent, words, aux)
    and returns the children kept, maybe with their words trimmed.  A row's
    trunks are its parent's per-rung rescaled products and log-determinant
    sum continued through the window its last symbol completes, read off
    its last 2k+1 symbols (none while n <= k).  A level of more than
    ``ROW_CAP`` rows is cut into contiguous blocks (see :func:`_cut`) and
    dropped; each block, whose parent, trunks and logdets are its own, is
    walked on depth-first and dropped in turn.  So no kernel batch exceeds
    ``ROW_CAP`` rows, the walk never holds a level it has moved past, and
    each level's blocks come out in sorted order.
    """
    k = A.radius
    if trunks is None:
        trunks, logdets = _identity_trunks(A, len(words)), np.zeros(len(words))
    while True:
        if parent is None:
            if n >= depth:
                return
            parent, words, aux = step(*extend_words(A.base, words), aux)
            n += 1
        if len(words) > ROW_CAP:
            blocks = _cut(words, aux, parent, trunks, logdets)[::-1]
            del words, aux, parent, trunks, logdets
            while blocks:
                yield from _levels(A, step, depth, *blocks.pop(), n)
            return
        # each level's temporaries go as soon as they are used, so that a
        # cut below this level holds nothing of it but its blocks
        col = _window_rows(A, words[:, -(2 * k + 1):]) if n > k else words[:, :0]
        trunks = [_extend_products(m, every, col, p, s, parent)
                  for m, every, (p, s) in zip(A._rungs, A._cadences, trunks)]
        logdets = _logdet_sum(A, col, logdets[parent])
        del col
        parent = None
        yield n, words, aux, trunks, logdets


def sweep_log_singular(A: WindowCocycle, n_list: Sequence[int], base_symbol: int,
                       row_map=None) -> dict[int, np.ndarray]:
    """Log singular values of every admissible word of each length in
    n_list, at canonical representatives: {n: rows, lexicographic order}.

    With a ``row_map``, a row-wise function taking an (N, d) block of
    these rows to N values, each length gets those values in place of its
    rows: the map runs on each block as it is read, so the sweep holds one
    float per word, not d, and a value is the map of its row alone.

    One level walk (:func:`_levels`) covers lengths 1..max(n_list), one
    step per exterior rung and level, so a range of lengths costs about as
    much as the longest.  A row keeps the last 2k+1 symbols of its word's
    padded form, all its windows read; its trunks cover every window that
    reads no right pad, and the k that do are applied per target length in
    ``_ladder``.  Each word's arithmetic is that of
    :func:`batch_log_singular`, so the rows are byte-identical to it.
    """
    targets = sorted(set(n_list))
    if targets and targets[0] < 1:
        raise ValueError("lengths must be >= 1")
    k = A.radius
    lpads, rpads = _pads(A, base_symbol)

    def step(parent, words, aux):
        if words.shape[1] == 1:  # length 1: put the left pad on
            words = np.concatenate([lpads[words[:, 0]], words], axis=1)
        return parent, words[:, -(2 * k + 1):], aux

    out = {n: [] for n in targets}
    root = np.zeros((1, 0), dtype=np.int64)
    for n, words, _, trunks, logdets in _levels(A, step, max(targets, default=0), root, None):
        if n in out:
            tail = np.concatenate([words[:, max(0, words.shape[1] - 2 * k):],
                                   rpads[words[:, -1]]], axis=1)
            rows = _ladder(A, _window_rows(A, tail), trunks, logdets)
            out[n].append(rows if row_map is None else row_map(rows))
    return {n: np.concatenate(blocks) for n, blocks in out.items()}


# ---------------------------------------------------------------------------
# cocycle file format
# ---------------------------------------------------------------------------

COCYCLE_SCHEMA = "coprox/cocycle/1"


def cocycle_to_dict(A: WindowCocycle) -> dict:
    return {
        "schema": COCYCLE_SCHEMA,
        "alphabet": A.base.alphabet_size,
        "adjacency": [list(row) for row in A.base.adjacency],
        "dim": A.dim,
        "radius": A.radius,
        "entries": [
            {"window": "".join(str(c) for c in w), "matrix": m.tolist()}
            for w, m in sorted(A.table.items())
        ],
    }


def cocycle_from_dict(data: dict) -> WindowCocycle:
    """The cocycle of a ``coprox/cocycle/1`` document; a document of
    another schema, or with a size (alphabet, dim, radius) that is not a
    JSON integer, is an input error."""
    try:
        schema = data["schema"]
        q, dim, radius = data["alphabet"], data["dim"], data["radius"]
        adjacency = data["adjacency"]
        entries = data["entries"]
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"cocycle file missing or malformed field: {exc}") from exc
    if schema != COCYCLE_SCHEMA:
        raise InputFormatError(f"schema must be {COCYCLE_SCHEMA!r}, got {schema!r}")
    for key, value in (("alphabet", q), ("dim", dim), ("radius", radius)):
        if type(value) is not int:  # bools, floats and strings are not sizes
            raise InputFormatError(f"{key} must be an integer, got {value!r}")
    if q > 10:
        raise InputFormatError("digit window strings support alphabets up to 10")
    if not isinstance(entries, list):
        raise InputFormatError("entries must be a list")
    try:
        if np.ndim(adjacency) != 2:
            raise ValueError("must be a matrix, a list of rows")
        base = Sft.from_matrix(adjacency)
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"adjacency: {exc}") from exc
    if base.alphabet_size != q:
        raise InputFormatError("alphabet size does not match adjacency shape")
    table = {}
    for i, entry in enumerate(entries):
        try:
            window = tuple(int(c) for c in entry["window"])
            matrix = np.asarray(entry["matrix"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"entries[{i}]: {exc}") from exc
        if len(window) != 2 * radius + 1:
            raise InputFormatError(f"entries[{i}]: window length != 2*radius+1")
        table[window] = matrix
    try:
        return WindowCocycle(base, dim, radius, table)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def save_cocycle(A: WindowCocycle, path) -> None:
    with open(path, "w") as fh:
        json.dump(cocycle_to_dict(A), fh, indent=1)


def load_cocycle(path) -> WindowCocycle:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"not valid JSON: {exc}") from exc
    return cocycle_from_dict(data)
