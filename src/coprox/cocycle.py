"""Finite-window matrix cocycles and their exact canonical holonomies.

A window cocycle assigns an invertible d x d matrix to every admissible
window of 2k+1 symbols; the matrix at a point reads coordinates -k..k.
For such cocycles the stable/unstable holonomy limits stabilize after
exactly k steps (all further factors coincide on a common leaf), so
holonomies here are *exact* finite products.  Fiber-bunching is therefore
not needed for existence and is only reported as a diagnostic.

Also provides the time-reversed (inverse) cocycle over the transposed
subshift, exterior-power cocycles, and the cylinder kernel: rescaled
products over window-index arrays with per-window tables cached on the
cocycle, run level by level over all admissible words by
``sweep_log_singular`` and over given words by ``batch_log_singular``,
with the same bytes per word and at most one worker pool per call.
"""

from __future__ import annotations

import json
import multiprocessing
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Mapping, Optional, Sequence

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
    same_point,
    shortest_bridge,
    stable_shift,
    unstable_shift,
)


@dataclass(frozen=True)
class WindowCocycle:
    """Map from admissible (2*radius+1)-windows to invertible matrices."""

    base: Sft
    dim: int
    radius: int
    table: Mapping[Symbols, np.ndarray]
    _exteriors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
            m = require_invertible(np.asarray(m, dtype=float))
            if m.shape != (self.dim, self.dim):
                raise ValueError(f"matrix for window {w} has shape {m.shape}")
            m.setflags(write=False)
            frozen[w] = m
        object.__setattr__(self, "table", frozen)

    def window_at(self, x: PointSpec, j: int = 0) -> Symbols:
        k = self.radius
        return x.coords(j - k, j + k)

    def at(self, x: PointSpec, j: int = 0) -> np.ndarray:
        """Matrix applied at the j-th step along the orbit of x."""
        return self.table[self.window_at(x, j)]

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
    def _logdets(self) -> np.ndarray:
        return np.array([np.linalg.slogdet(self.table[w])[1] for w in self._rows])

    @cached_property
    def _rungs(self) -> tuple[np.ndarray, ...]:
        """Stacked t-th exterior powers of the window matrices, t = 1..d-1."""
        return tuple(np.stack([exterior_cocycle(self, t).table[w] if t > 1 else self.table[w]
                               for w in self._rows]) for t in range(1, self.dim))


def product(A: WindowCocycle, x: PointSpec, n: int) -> np.ndarray:
    """Cocycle product along the orbit: A(s^{n-1}x) ... A(x) for n >= 0.

    Negative n returns the inverse of the product along the pulled-back
    orbit, so the cocycle equation holds for all integer times.
    """
    d = A.dim
    if n == 0:
        return np.eye(d)
    if n < 0:
        return np.linalg.inv(product(A, x.shift(n), -n))
    out = np.eye(d)
    for j in range(n):
        out = A.at(x, j) @ out
    return out


def product_scaled(A: WindowCocycle, x: PointSpec, n: int) -> tuple[np.ndarray, float]:
    """(M, s) with the cocycle product equal to e^s M and M kept at unit
    max-entry; safe for orbit lengths whose raw product would overflow."""
    out = np.eye(A.dim)
    logscale = 0.0
    if n < 0:
        m, s = product_scaled(A, x.shift(n), -n)
        inv = np.linalg.inv(m)
        peak = np.max(np.abs(inv))
        return inv / peak, float(np.log(peak)) - s
    for j in range(n):
        out = A.at(x, j) @ out
        peak = np.max(np.abs(out))
        out = out / peak
        logscale += float(np.log(peak))
    return out, logscale


def _orbit_ladder(A: WindowCocycle, x: PointSpec, n: int, top) -> np.ndarray:
    """Rung differences along the orbit: rung t < d is log top of the
    rescaled t-th exterior-power product, rung d the exact sum of
    per-factor log determinants."""
    if n < 0:
        raise ValueError("orbit spectral ladders need n >= 0")
    logs = np.empty(A.dim)
    prev = 0.0
    for t in range(1, A.dim):
        m, s = product_scaled(exterior_cocycle(A, t), x, n)
        cur = s + float(np.log(top(m)))
        logs[t - 1] = cur - prev
        prev = cur
    logdet = float(sum(A._logdets[A._rows[A.window_at(x, j)]] for j in range(n)))
    logs[A.dim - 1] = logdet - prev
    return logs


def orbit_mu_vec(A: WindowCocycle, x: PointSpec, n: int) -> np.ndarray:
    """Log singular values of the product along the orbit, any length.

    Each exterior power of the product is accumulated as a product of the
    exterior-power cocycle with running rescaling, so every ladder rung is
    a top quantity of an accurately represented matrix.
    """
    return _orbit_ladder(A, x, n, lambda m: np.linalg.norm(m, 2))


def orbit_chi_vec(A: WindowCocycle, x: PointSpec, n: int) -> np.ndarray:
    """Log eigenvalue moduli of the product along the orbit, any length."""
    return _orbit_ladder(A, x, n, lambda m: np.max(np.abs(np.linalg.eigvals(m))))


def holonomy_s(A: WindowCocycle, x: PointSpec, y: PointSpec,
               steps: Optional[int] = None) -> np.ndarray:
    """Local stable holonomy from x to y (coordinates agree for i >= 0).

    Exact at steps = radius; larger values reproduce the same matrix.
    """
    if not in_local_stable(x, y):
        raise NotOnLocalLeaf("y is not in the local stable set of x")
    m = A.radius if steps is None else steps
    return np.linalg.inv(product(A, y, m)) @ product(A, x, m)


def holonomy_u(A: WindowCocycle, x: PointSpec, y: PointSpec,
               steps: Optional[int] = None) -> np.ndarray:
    """Local unstable holonomy from x to y (coordinates agree for i <= 0)."""
    if not in_local_unstable(x, y):
        raise NotOnLocalLeaf("y is not in the local unstable set of x")
    m = A.radius if steps is None else steps
    return np.linalg.inv(product(A, y, -m)) @ product(A, x, -m)


def global_holonomy_s(A: WindowCocycle, x: PointSpec, y: PointSpec,
                      ell: Optional[int] = None) -> np.ndarray:
    """Stable holonomy extended along orbits: A^l(y)^-1 H^s(s^l x, s^l y) A^l(x).

    ``ell`` defaults to the least shift putting the pair on a local leaf;
    the value is independent of any valid choice.
    """
    if ell is None:
        ell = stable_shift(x, y)
        if ell is None:
            raise NotOnGlobalLeaf("points are not on a common stable set")
    local = holonomy_s(A, x.shift(ell), y.shift(ell))
    return np.linalg.inv(product(A, y, ell)) @ local @ product(A, x, ell)


def global_holonomy_u(A: WindowCocycle, x: PointSpec, y: PointSpec,
                      ell: Optional[int] = None) -> np.ndarray:
    """Unstable holonomy extended along backward orbits."""
    if ell is None:
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


def fiber_bunching_margin(A: WindowCocycle) -> float:
    """max over windows of |A| |A^-1| / 2; < 1 means fiber-bunched (alpha = 1).

    Diagnostic only: window cocycles have exact holonomies regardless.
    """
    worst = 0.0
    for m in A.table.values():
        worst = max(worst, np.linalg.norm(m, 2) * np.linalg.norm(np.linalg.inv(m), 2) * 0.5)
    return worst


def distortion_residual(A: WindowCocycle, x: PointSpec, y: PointSpec, n: int) -> float:
    """Relative error of the four-holonomy distortion identity on [x]_n.

    With z = [x, y]:
    A^n(x) = H^u(s^n z -> s^n x) H^s(s^n y -> s^n z) A^n(y) H^s(z -> y) H^u(x -> z).
    """
    if any(x.coord(i) != y.coord(i) for i in range(n)):
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


def inverse_cocycle(A: WindowCocycle) -> WindowCocycle:
    """The time-reversed cocycle as a window cocycle over the transposed shift.

    Windows reverse, matrices invert; a point x corresponds to the reversed
    point with coordinates x_{-1-i}, under which products satisfy
    product(inverse, reversed x, n) = product(A, x, -n).
    """
    rev = reverse_sft(A.base)
    table = {
        w: np.linalg.inv(A.table[tuple(reversed(w))])
        for w in enumerate_words(rev, 2 * A.radius + 1)
    }
    return WindowCocycle(rev, A.dim, A.radius, table)


def exterior_cocycle(A: WindowCocycle, t: int) -> WindowCocycle:
    """Cocycle of t-th exterior powers over the same base, built and
    validated once per cocycle and t."""
    from math import comb

    if t not in A._exteriors:
        table = {w: exterior_power(m, t) for w, m in A.table.items()}
        A._exteriors[t] = WindowCocycle(A.base, comb(A.dim, t), A.radius, table)
    return A._exteriors[t]


def scaled_cocycle(A: WindowCocycle, log_factor: float) -> WindowCocycle:
    """Cocycle with every window matrix multiplied by exp(log_factor)."""
    factor = float(np.exp(log_factor))
    table = {w: factor * m for w, m in A.table.items()}
    return WindowCocycle(A.base, A.dim, A.radius, table)


# ---------------------------------------------------------------------------
# the cylinder kernel: rescaled products over window-index arrays
# ---------------------------------------------------------------------------


def _pads(A: WindowCocycle, base_symbol: int) -> tuple[np.ndarray, np.ndarray]:
    """The k symbols before and after a word in its canonical representative,
    per first (resp. last) symbol: shortest bridges to the base symbol."""
    k, s = A.radius, A.base
    if k == 0:
        return (np.zeros((s.alphabet_size, 0), dtype=np.int64),) * 2
    fill, symbols = (base_symbol,) * k, range(s.alphabet_size)
    return (np.array([(fill + shortest_bridge(s, base_symbol, c))[-k:] for c in symbols]),
            np.array([(shortest_bridge(s, c, base_symbol) + fill)[:k] for c in symbols]))


def _window_indices(A: WindowCocycle, words: np.ndarray, pads,
                    positions: Optional[Sequence[int]] = None) -> np.ndarray:
    """Table rows of the windows at the given positions (default: all) of
    the canonical representatives of the words; one row per word."""
    lpads, rpads = pads
    padded = np.concatenate([lpads[words[:, 0]], words, rpads[words[:, -1]]], axis=1)
    positions = np.arange(words.shape[1]) if positions is None else np.asarray(positions)
    codes = np.zeros((len(words), len(positions)), dtype=np.int64)
    for o in range(2 * A.radius + 1):
        codes = codes * A.base.alphabet_size + padded[:, positions + o]
    idx = A._lookup[codes]
    if np.any(idx < 0):
        raise AssertionError("inadmissible window produced by padding")
    return idx


def _extend_products(mats: np.ndarray, idx: np.ndarray, prods: np.ndarray,
                     scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multiply the products e^scales * prods on the left by the window
    matrices of each column of idx in turn, rescaling every product to
    unit max-entry after each step: the one long-product kernel."""
    for col in idx.T:
        prods = mats[col] @ prods
        peak = np.max(np.abs(prods), axis=(1, 2))
        prods /= peak[:, None, None]
        scales = scales + np.log(peak)
    return prods, scales


def _identity_trunks(A: WindowCocycle, count: int) -> list:
    """Empty products (identity, log scale 0) on every exterior rung."""
    return [(np.repeat(np.eye(len(m[0]))[None], count, axis=0), np.zeros(count))
            for m in A._rungs]


def _ladder(A: WindowCocycle, idx: np.ndarray, trunks: list, first: int) -> np.ndarray:
    """Log singular value rows for words with window rows idx, each rung's
    product continued from its trunk through windows first, first+1, ...

    Rung t is the top of the t-th exterior power product; the determinant
    rung is the exact sum of per-window log determinants.
    """
    out = np.empty((len(idx), A.dim))
    prev = np.zeros(len(idx))
    for t, (mats, (prods, scales)) in enumerate(zip(A._rungs, trunks)):
        prods, scales = _extend_products(mats, idx[:, first:], prods, scales)
        rung = scales + np.log(np.linalg.svd(prods, compute_uv=False)[:, 0])
        out[:, t] = rung - prev
        prev = rung
    out[:, A.dim - 1] = A._logdets[idx].sum(axis=1) - prev
    return out


def _pin_worker_blas():
    """Pool initializer: one BLAS thread per worker so processes do not
    oversubscribe the cores (results are unaffected)."""
    try:
        from threadpoolctl import threadpool_limits

        threadpool_limits(limits=1)
    except ImportError:
        pass


class WorkerPool(AbstractContextManager):
    """Order-preserving map on at most one fork pool.

    The pool starts at the first map of more than one task and closes with
    the ``with`` block, so kernels handed the same WorkerPool as
    ``workers`` share one pool; with one worker everything runs in-process.
    """

    def __init__(self, workers: int):
        self.workers, self._pool = workers, None

    def map(self, fn, tasks: list) -> list:
        if self.workers <= 1 or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        if self._pool is None:
            self._pool = multiprocessing.get_context("fork").Pool(
                self.workers, initializer=_pin_worker_blas)
        return self._pool.map(fn, tasks)

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.terminate()


def _pool_of(workers):
    """Context giving the caller's WorkerPool, or a new one for a count."""
    return nullcontext(workers) if isinstance(workers, WorkerPool) else WorkerPool(workers)


def _blocks(count: int, workers: int) -> list[slice]:
    """Contiguous row blocks, one per worker when each gets four or more."""
    parts = workers if workers > 1 and count >= 4 * workers else 1
    bounds = np.linspace(0, count, parts + 1).astype(int)
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _batch_rows(A: WindowCocycle, pads, words: np.ndarray) -> np.ndarray:
    return _ladder(A, _window_indices(A, words, pads), _identity_trunks(A, len(words)), 0)


def batch_log_singular(A: WindowCocycle, words: Sequence[Symbols], base_symbol: int,
                       workers=1) -> np.ndarray:
    """Log singular values (rows nonincreasing) of arbitrary equal-length
    words at their canonical representatives.

    The ladder is the one :func:`sweep_log_singular` runs, started from
    the identity for every word, so a word gets the same bytes from both.
    ``workers`` is a count or a shared :class:`WorkerPool`; words go to it
    in contiguous blocks merged back in order, so results do not depend
    on the worker count.
    """
    if len(words) == 0:
        return np.empty((0, A.dim))
    words = np.asarray(words, dtype=np.int64)
    with _pool_of(workers) as pool:
        parts = pool.map(partial(_batch_rows, A, _pads(A, base_symbol)),
                         [words[b] for b in _blocks(len(words), pool.workers)])
    return np.concatenate(parts)


def _sweep(A: WindowCocycle, pads, state, targets: frozenset, top: int,
           pool: Optional[WorkerPool] = None) -> dict:
    """Rows at every target length up to top, sweeping on from a state.

    A level-L state is (words, trunks): the length-L words as sorted rows
    and, per rung, the rescaled products over windows 0..L-k-1, which stop
    at the last symbol and so are shared by every extension; the k windows
    reading the right pad are applied per target in ``_ladder``.  With a
    pool, the first level with four rows per worker is cut into contiguous
    blocks swept one per worker, whose rows concatenate in order.
    """
    words, trunks = state
    out = {}
    while words.shape[1] < top:
        blocks = _blocks(len(words), pool.workers) if pool is not None else [slice(None)]
        if len(blocks) > 1:
            parts = pool.map(partial(_sweep, A, pads, targets=targets, top=top),
                             [(words[b], [(p[b], s[b]) for p, s in trunks]) for b in blocks])
            return out | {n: np.concatenate([part[n] for part in parts]) for n in parts[0]}
        parent, words = extend_words(A.base, words)
        trunks = [(p[parent], s[parent]) for p, s in trunks]
        pos = words.shape[1] - 1 - A.radius  # the window the new symbol completes
        if pos >= 0:
            col = _window_indices(A, words, pads, [pos])
            trunks = [_extend_products(m, col, p, s) for m, (p, s) in zip(A._rungs, trunks)]
        if words.shape[1] in targets:
            idx = _window_indices(A, words, pads)
            out[words.shape[1]] = _ladder(A, idx, trunks, max(0, pos + 1))
    return out


def sweep_log_singular(A: WindowCocycle, n_list: Sequence[int], base_symbol: int,
                       workers=1) -> dict[int, np.ndarray]:
    """Log singular values of every admissible word of each length in
    n_list, at canonical representatives: {n: rows, lexicographic order}.

    One sweep over lengths 1..max(n_list) extends each length-(n-1) state
    to its admissible children with one batched step per exterior rung, so
    a range of lengths costs about as much as the longest.  Each word's
    arithmetic (identity start, per-step rescaling, left-to-right log
    scales, log-determinant sum) is that of :func:`batch_log_singular`, so
    the rows are byte-identical to it.  ``workers`` is a count or a shared
    :class:`WorkerPool`; a sweep starts at most one pool, and its rows do
    not depend on the worker count.
    """
    targets = frozenset(n_list)
    if targets and min(targets) < 1:
        raise ValueError("lengths must be >= 1")
    empty = np.zeros((1, 0), dtype=np.min_scalar_type(A.base.alphabet_size - 1))
    with _pool_of(workers) as pool:
        return _sweep(A, _pads(A, base_symbol), (empty, _identity_trunks(A, 1)),
                      targets, max(targets, default=0), pool)


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
    try:
        q = int(data["alphabet"])
        adjacency = data["adjacency"]
        dim = int(data["dim"])
        radius = int(data["radius"])
        entries = data["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"cocycle file missing or malformed field: {exc}") from exc
    if q > 10:
        raise InputFormatError("digit window strings support alphabets up to 10")
    try:
        base = Sft.from_matrix(adjacency)
    except ValueError as exc:
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
