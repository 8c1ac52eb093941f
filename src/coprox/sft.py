"""Subshift-of-finite-type core.

Alphabets and adjacency, admissible words, periodic words, eventually
periodic two-sided points, the bracket operation, the leaf shifts and
deterministic bridging between symbols.  Everything here is exact symbol
arithmetic; no floating point enters at this level.

Points are restricted to eventually periodic specs (left cycle, finite
core, right cycle): every point the downstream constructions need (fixed
points, homoclinic points, brackets of those, shifted images, canonical
cylinder representatives) is of this form, so the leaf shifts are
decidable; leaf tests, point equality and fixed points are shifts of 0.

All tie-breaking is lexicographic-least so that runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import NoFixedSymbol, NotPrimitive, SymbolMismatch

Symbol = int
Symbols = tuple[int, ...]


def _as_symbols(seq: Iterable[int]) -> Symbols:
    return tuple(map(int, seq))


@dataclass(frozen=True)
class Sft:
    """Mixing subshift of finite type given by a 0/1 adjacency matrix.

    ``adjacency[a][b] == 1`` means the two-letter word ``ab`` is allowed.
    Construction checks that every symbol is bi-extendable and that the
    matrix is primitive (some power entrywise positive).
    """

    alphabet_size: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        q = self.alphabet_size
        T = self.adjacency
        if q < 1 or len(T) != q or any(len(row) != q for row in T):
            raise ValueError(f"adjacency must be {q}x{q}")
        if any(entry not in (0, 1) for row in T for entry in row):
            raise ValueError("adjacency entries must be 0 or 1")
        for a in range(q):
            if not any(T[a][b] for b in range(q)):
                raise ValueError(f"symbol {a} has no successor")
            if not any(T[b][a] for b in range(q)):
                raise ValueError(f"symbol {a} has no predecessor")
        arrows = np.array(T, dtype=bool)
        arrows.setflags(write=False)
        object.__setattr__(self, "_arrows", arrows)
        object.__setattr__(self, "_mixing_rate", _mixing_rate(self))
        object.__setattr__(self, "_bridges", {})  # (a, b) -> shortest_bridge

    @staticmethod
    def from_matrix(T) -> "Sft":
        T = np.asarray(T, dtype=int)
        return Sft(T.shape[0], tuple(tuple(int(v) for v in row) for row in T))

    def matrix(self) -> np.ndarray:
        return np.array(self.adjacency, dtype=np.int64)

    def allowed(self, a: Symbol, b: Symbol) -> bool:
        return is_admissible(self, (a, b))

    def fixed_symbols(self) -> list[Symbol]:
        return [a for a in range(self.alphabet_size) if self.adjacency[a][a] == 1]


def least_fixed_symbol(s: Sft) -> Symbol:
    """The least symbol a with T[a][a] = 1: the fixed point that canonical
    representatives bridge to when no certified pair names one."""
    symbols = s.fixed_symbols()
    if not symbols:
        raise NoFixedSymbol("no symbol a with T[a][a] = 1")
    return symbols[0]


def _mixing_rate(s: Sft) -> int:
    """The least M with T^M entrywise positive, up to the Wielandt bound.

    Every symbol has a predecessor, so T^(M+1) = T^M T is positive once T^M
    is: the powers T^(2^i) are squared until one is positive, and the least
    M is then found by bisection with the stored ones, in about twice
    log2 of the bound products.  A product is an exact float matmul of 0/1
    matrices read as > 0."""
    cap = (s.alphabet_size - 1) ** 2 + 1  # Wielandt bound for primitive matrices
    powers = [s._arrows.astype(float)]  # T^(2^i)
    while not powers[-1].all():
        if 2 ** (len(powers) - 1) >= cap:
            raise NotPrimitive("no entrywise-positive power up to the Wielandt bound")
        powers.append((powers[-1] @ powers[-1] > 0).astype(float))
    # the last power is positive: from T^0, add each lower 2^i whose
    # product with T^m is still not positive
    m, power = 0, np.eye(s.alphabet_size)
    for i in range(len(powers) - 2, -1, -1):
        step = (power @ powers[i] > 0).astype(float)
        if not step.all():
            m, power = m + 2 ** i, step
    return m + 1


def mixing_rate(s: Sft) -> int:
    """Smallest M with adjacency^M entrywise positive."""
    return s._mixing_rate


def _pairs(s: Sft, word: Sequence[int]):
    """The word as an int64 array and whether each of its consecutive
    pairs is allowed, in one pass of numpy calls; the pairs are None when a
    symbol lies outside 0..q-1 (a symbol -1 would read the adjacency from
    its end)."""
    try:
        w = np.asarray(word, dtype=np.int64)
    except OverflowError:  # a symbol past int64 lies outside the alphabet too
        return np.array(word, dtype=object), None
    if w.size and not (0 <= w.min() and w.max() < s.alphabet_size):
        return w, None
    return w, s._arrows[w[:-1], w[1:]]


def is_admissible(s: Sft, word: Sequence[int]) -> bool:
    _, allowed = _pairs(s, word)
    return allowed is not None and bool(allowed.all())


def require_word(s: Sft, word: Sequence[int]) -> Symbols:
    w, allowed = _pairs(s, word)
    if allowed is None or not allowed.all():
        raise ValueError(f"word {tuple(w.tolist())} is not admissible")
    return tuple(w.tolist())


@dataclass(frozen=True)
class PeriodicWord:
    """Admissible word whose wrap pair (last, first) is also allowed.

    Denotes the periodic point obtained by repeating the word.
    """

    symbols: Symbols

    @property
    def period(self) -> int:
        return len(self.symbols)

    def __len__(self):
        return len(self.symbols)


def make_periodic(s: Sft, symbols: Sequence[int]) -> PeriodicWord:
    w = require_word(s, symbols)
    if len(w) == 0:
        raise ValueError("periodic word must be nonempty")
    if not s._arrows[w[-1], w[0]]:
        raise ValueError(f"wrap pair ({w[-1]},{w[0]}) is not admissible")
    return PeriodicWord(w)


@dataclass(frozen=True)
class PointSpec:
    """Eventually periodic two-sided sequence ...LLL | core | RRR...

    Internally the core occupies positions 0..len(core)-1, the right cycle
    repeats from position len(core) on, and the left cycle repeats backwards
    below position 0.  ``anchor`` is the internal position of coordinate 0,
    so ``coord(i)`` reads internal position ``anchor + i``.

    Field equality is representational; two specs may denote the same
    sequence (use :func:`same_point` for that).
    """

    left_cycle: Symbols
    core: Symbols
    right_cycle: Symbols
    anchor: int

    def _internal(self, j: int) -> Symbol:
        m = len(self.core)
        if 0 <= j < m:
            return self.core[j]
        if j >= m:
            return self.right_cycle[(j - m) % len(self.right_cycle)]
        return self.left_cycle[j % len(self.left_cycle)]

    def coord(self, i: int) -> Symbol:
        return self._internal(self.anchor + i)

    def coords(self, lo: int, hi: int) -> Symbols:
        """Symbols on coordinates lo..hi inclusive (``coord`` at each): the
        parts of the rotated, repeated left cycle, the core and the
        rotated, repeated right cycle that the window covers."""
        a, b = self.anchor + lo, self.anchor + hi + 1  # internal positions [a, b)
        if a >= b:
            return ()
        m = len(self.core)
        if 0 <= a and b <= m:
            return self.core[a:b]
        left = _cyclic(self.left_cycle, a, min(b, 0) - a) if a < 0 else ()
        right = _cyclic(self.right_cycle, max(a, m) - m, b - max(a, m)) if b > m else ()
        return left + self.core[max(a, 0):max(min(b, m), 0)] + right

    def shift(self, n: int) -> "PointSpec":
        """Left shift by n: coord(result, i) == coord(self, i + n)."""
        return PointSpec(self.left_cycle, self.core, self.right_cycle, self.anchor + n)

    def reach(self) -> tuple[int, int]:
        """Coordinates (lo, hi) outside of which the point is purely cyclic.

        coord(i) for i < lo comes from repeating left_cycle, and for
        i > hi from repeating right_cycle, with the alignment baked into
        the representation.
        """
        m = len(self.core)
        return -self.anchor, m - self.anchor - 1  # hi may be < lo for empty core


def _cyclic(cycle: Symbols, start: int, count: int) -> Symbols:
    """cycle[(start + i) % len(cycle)] for i = 0..count-1 (count >= 1), as
    one slice of the cycle repeated."""
    r = start % len(cycle)
    return (cycle * ((r + count - 1) // len(cycle) + 1))[r:r + count]


def periodic_point(w: PeriodicWord) -> PointSpec:
    """The periodic point repeating w, with coordinate 0 at w[0]."""
    return PointSpec(w.symbols, (), w.symbols, 0)


def fixed_point(s: Sft, a: Symbol) -> PointSpec:
    if not s.allowed(a, a):
        raise ValueError(f"symbol {a} is not fixed: ({a}, {a}) is not admissible")
    return periodic_point(PeriodicWord((a,)))


def is_fixed_point(x: PointSpec) -> bool:
    return same_point(x, x.shift(1))


def bridge(s: Sft, a: Symbol, b: Symbol, length: int) -> Optional[Symbols]:
    """Lexicographically least word u of the given length with a.u.b admissible.

    Returns None when no bridge of that exact length exists.
    """
    if length < 0:
        raise ValueError("bridge length must be >= 0")
    T = s._arrows
    # reach_back[k] = symbols from which b is reachable in exactly k steps
    reach_back = [np.arange(s.alphabet_size) == b]
    for _ in range(length):
        reach_back.append(T @ reach_back[-1])
    # each step takes the least successor with k edges left to b; the last
    # (k = 0) step lands on b itself
    out = [a]
    for k in range(length, -1, -1):
        nxt = (T[out[-1]] & reach_back[k]).nonzero()[0]
        if not len(nxt):
            return None
        out.append(int(nxt[0]))
    return tuple(out[1:-1])


def shortest_bridge(s: Sft, a: Symbol, b: Symbol) -> Symbols:
    """Least-length (then lexicographic-least) bridge between two symbols,
    searched for once per subshift and pair.

    Primitivity guarantees one of length <= mixing_rate(s).
    """
    if (a, b) not in s._bridges:
        s._bridges[a, b] = next((u for n in range(mixing_rate(s) + 1)
                                 if (u := bridge(s, a, b, n)) is not None), None)
    if s._bridges[a, b] is None:
        raise NotPrimitive("no bridge within mixing rate; adjacency not primitive")
    return s._bridges[a, b]


def bracket(x: PointSpec, y: PointSpec) -> PointSpec:
    """The point [x, y] with x's past (i <= 0) and y's future (i >= 0)."""
    if x.coord(0) != y.coord(0):
        raise SymbolMismatch(f"x0 = {x.coord(0)} != y0 = {y.coord(0)}")
    lo_x, _ = x.reach()
    a = min(0, lo_x)
    _, hi_y = y.reach()
    b = max(0, hi_y)
    core = x.coords(a, 0) + y.coords(1, b)
    left = _cyclic(x.left_cycle, x.anchor + a, len(x.left_cycle))
    right = _cyclic(y.right_cycle, y.anchor + b + 1 - len(y.core), len(y.right_cycle))
    return PointSpec(left, core, right, -a)


def same_point(x: PointSpec, y: PointSpec) -> bool:
    return in_local_stable(x, y) and in_local_unstable(x, y)


def extend_words(s: Sft, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(parent row, word) of every admissible one-symbol extension of the
    rows of a word array; sorted rows give sorted children, and rows of
    length 0 extend to every symbol."""
    T = s._arrows
    allowed = T[words[:, -1]] if words.shape[1] else np.ones((len(words), len(T)), dtype=bool)
    parent, child = np.nonzero(allowed)
    out = np.empty((len(parent), words.shape[1] + 1), dtype=words.dtype)
    out[:, :-1] = words[parent]
    out[:, -1] = child
    return parent, out


def word_array(s: Sft, n: int) -> np.ndarray:
    """All admissible words of length n as rows of a small-integer array,
    lexicographic order (one empty row for n = 0)."""
    if n < 0:
        raise ValueError("length must be >= 0")
    words = np.zeros((1, 0), dtype=np.min_scalar_type(s.alphabet_size - 1))
    for _ in range(n):
        _, words = extend_words(s, words)
    return words


def prenecklace_step(words: np.ndarray, lyn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(keep, lyn) for rows that append one symbol c to prenecklaces w
    (prefixes of necklaces) whose longest Lyndon prefixes have lengths lyn
    (0 for the empty word): with p = lyn and n the rows' length, c <
    w[n-1-p] leaves the prenecklaces, c > w[n-1-p] makes a Lyndon word
    (lyn n) and c = w[n-1-p] keeps p (Fredricksen and Maiorana, Discrete
    Math. 1978; Duval, TCS 1988).  A row is Lyndon when lyn equals its
    length.  Admissibility is prefix-closed, so extending the kept rows of
    word arrays walks the admissible prenecklaces and Lyndon words."""
    n = words.shape[1]
    c = words[:, -1]
    ref = words[np.arange(len(words)), n - 1 - lyn]  # c itself under the empty word
    return c >= ref, np.where((c > ref) | (lyn == 0), n, lyn)


def enumerate_words(s: Sft, n: int) -> list[Symbols]:
    """All admissible words of length n, lexicographic order."""
    return [tuple(w) for w in word_array(s, n).tolist()]


def word_counts(s: Sft) -> Iterator[int]:
    """Numbers of admissible words of lengths 1, 2, ..., exact integers,
    from one running walk: ends[b] counts the words that end in b.  The
    counts never decrease, as every symbol has a successor."""
    ends = [1] * s.alphabet_size
    while True:
        yield sum(ends)
        ends = [sum(e for e, row in zip(ends, s.adjacency) if row[b])
                for b in range(s.alphabet_size)]


def orbit_counts(s: Sft, max_period: int) -> list[int]:
    """Numbers of periodic orbits of least period n = 1..max_period, exact
    integers: the Moebius inversion of tr(T^n) = sum over m | n of m N_m,
    from one running integer power of the adjacency T.  Taken in order,
    each n's points of least period, n N_n, leave its multiples' traces.
    A power's column j sums the last power's columns of j's predecessors."""
    q, T = s.alphabet_size, s.adjacency
    preds = [[k for k in range(q) if T[k][j]] for j in range(q)]
    power, points = T, [0, sum(T[i][i] for i in range(q))]
    for _ in range(max_period - 1):
        power = [[sum(row[k] for k in ks) for ks in preds] for row in power]
        points.append(sum(power[i][i] for i in range(q)))
    for n in range(1, max_period + 1):
        for m in range(2 * n, max_period + 1, n):
            points[m] -= points[n]
    return [points[n] // n for n in range(1, max_period + 1)]


def point_from_word(s: Sft, word: Sequence[int], base_symbol: Symbol) -> PointSpec:
    """Canonical representative of the cylinder of ``word``.

    Pads both ends with least-length lexicographic-least bridges to the
    distinguished fixed symbol and continues with that symbol forever;
    coordinate 0 sits at word[0].
    """
    w = require_word(s, word)
    if not w:
        raise ValueError("word must be nonempty")
    fixed_point(s, base_symbol)  # refuses a base symbol that is not fixed
    left_pad = shortest_bridge(s, base_symbol, w[0])
    right_pad = shortest_bridge(s, w[-1], base_symbol)
    core = left_pad + w + right_pad
    return PointSpec((base_symbol,), core, (base_symbol,), len(left_pad))


def homoclinic_point(s: Sft, a: Symbol, excursion: Sequence[int]) -> PointSpec:
    """Point equal to the fixed symbol a except for the excursion at 1..e.

    The excursion must make a . excursion . a admissible and must not be
    the constant-a word (that would be the fixed point itself).
    """
    exc = _as_symbols(excursion)
    fixed_point(s, a)  # refuses a symbol that is not fixed
    if len(exc) == 0 or all(c == a for c in exc):
        raise ValueError("excursion must differ from the fixed word")
    full = (a,) + exc + (a,)
    if not is_admissible(s, full):
        raise ValueError("excursion is not admissible between the fixed symbol")
    return PointSpec((a,), (a,) + exc, (a,), 0)


def reverse_point(x: PointSpec) -> PointSpec:
    """The time-reversed point y with y_i = x_{-1-i} (an involution)."""
    return PointSpec(
        tuple(reversed(x.right_cycle)),
        tuple(reversed(x.core)),
        tuple(reversed(x.left_cycle)),
        len(x.core) - x.anchor,
    )


def reverse_sft(s: Sft) -> Sft:
    """Subshift of the reversed sequences (transposed adjacency)."""
    return Sft.from_matrix(s.matrix().T)


def in_local_stable(x: PointSpec, y: PointSpec) -> bool:
    """y in the local stable set of x: coordinates agree for all i >= 0."""
    return stable_shift(x, y) == 0


def in_local_unstable(x: PointSpec, y: PointSpec) -> bool:
    """y in the local unstable set of x: coordinates agree for all i <= 0."""
    return unstable_shift(x, y) == 0


def stable_shift(x: PointSpec, y: PointSpec) -> Optional[int]:
    """Least l >= 0 with shift(y, l) in the local stable set of shift(x, l).

    None when the two points disagree arbitrarily far to the right (their
    right tails differ), so no shift lands them on a common stable leaf.
    """
    if x is y:
        return 0
    # right-cyclic from here on: one past both reaches (PointSpec.reach)
    tail = max(len(x.core) - x.anchor, len(y.core) - y.anchor, 1)
    top = tail + _common_period(len(x.right_cycle), len(y.right_cycle)) - 1
    return _leaf_shift(x.coords(0, top), y.coords(0, top), tail)


def unstable_shift(x: PointSpec, y: PointSpec) -> Optional[int]:
    """Least l >= 0 with shift(y, -l) in the local unstable set of shift(x, -l).

    None when the left tails differ.
    """
    if x is y:
        return 0
    tail = max(x.anchor, y.anchor, 0) + 1  # left-cyclic from -tail down
    bottom = -tail - _common_period(len(x.left_cycle), len(y.left_cycle)) + 1
    return _leaf_shift(x.coords(bottom, 0)[::-1], y.coords(bottom, 0)[::-1], tail)


def _common_period(m: int, n: int) -> int:
    """lcm of two cycle lengths, read off at once when they are equal."""
    return m if m == n else lcm(m, n)


def _leaf_shift(xs: Symbols, ys: Symbols, tail: int) -> Optional[int]:
    """Least l >= 0 with xs[l:] == ys[l:], for windows read outward from
    coordinate 0 whose entries from ``tail`` on are a common period of the
    points' cycles; None when those differ, as the mismatch recurs."""
    if xs == ys:
        return 0
    if xs[tail:] != ys[tail:]:
        return None
    return next(i + 1 for i in range(tail - 1, -1, -1) if xs[i] != ys[i])


def full_shift(q: int) -> Sft:
    return Sft.from_matrix(np.ones((q, q), dtype=int))


def golden_mean_shift() -> Sft:
    return Sft.from_matrix([[1, 1], [1, 0]])
