"""Subshift-of-finite-type core.

Alphabets and adjacency, admissible words, periodic words, eventually
periodic two-sided points, the bracket operation, the 2^-k metric, and
deterministic bridging between symbols.  Everything here is exact symbol
arithmetic; no floating point enters at this level.

Points are restricted to eventually periodic specs (left cycle, finite
core, right cycle): every point the downstream constructions need (fixed
points, homoclinic points, brackets of those, shifted images, canonical
cylinder representatives) is of this form, so membership tests and the
metric are decidable.

All tie-breaking is lexicographic-least so that runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import NotPrimitive, SymbolMismatch

Symbol = int
Symbols = tuple[int, ...]


def _as_symbols(seq: Iterable[int]) -> Symbols:
    return tuple(int(s) for s in seq)


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
        object.__setattr__(self, "_mixing_rate", _mixing_rate(self))

    @staticmethod
    def from_matrix(T) -> "Sft":
        T = np.asarray(T, dtype=int)
        return Sft(T.shape[0], tuple(tuple(int(v) for v in row) for row in T))

    def matrix(self) -> np.ndarray:
        return np.array(self.adjacency, dtype=np.int64)

    def allowed(self, a: Symbol, b: Symbol) -> bool:
        return self.adjacency[a][b] == 1

    def fixed_symbols(self) -> list[Symbol]:
        return [a for a in range(self.alphabet_size) if self.adjacency[a][a] == 1]


def _mixing_rate(s: Sft) -> int:
    q = s.alphabet_size
    cap = (q - 1) ** 2 + 1  # Wielandt bound for primitive matrices
    T = s.matrix().astype(bool)
    power = T.copy()
    for m in range(1, cap + 1):
        if power.all():
            return m
        power = power @ T
    raise NotPrimitive("no entrywise-positive power up to the Wielandt bound")


def mixing_rate(s: Sft) -> int:
    """Smallest M with adjacency^M entrywise positive."""
    return s._mixing_rate


def is_admissible(s: Sft, word: Sequence[int]) -> bool:
    w = _as_symbols(word)
    if any(not 0 <= c < s.alphabet_size for c in w):
        return False
    return all(s.allowed(a, b) for a, b in zip(w, w[1:]))


def require_word(s: Sft, word: Sequence[int]) -> Symbols:
    w = _as_symbols(word)
    if not is_admissible(s, w):
        raise ValueError(f"word {w} is not admissible")
    return w


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
    if not s.allowed(w[-1], w[0]):
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
    sequence (use :func:`same_point` / ``dist(x, y) == 0`` for that).
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
        """Symbols on coordinates lo..hi inclusive."""
        return tuple(self.coord(i) for i in range(lo, hi + 1))

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


def periodic_point(w: PeriodicWord) -> PointSpec:
    """The periodic point repeating w, with coordinate 0 at w[0]."""
    return PointSpec(w.symbols, (), w.symbols, 0)


def fixed_point(s: Sft, a: Symbol) -> PointSpec:
    if not s.allowed(a, a):
        raise ValueError(f"symbol {a} is not fixed (T[{a}][{a}] = 0)")
    return periodic_point(PeriodicWord((a,)))


def is_fixed_point(x: PointSpec) -> bool:
    a = x.coord(0)
    lo, hi = x.reach()
    return all(x.coord(i) == a for i in range(lo - 1, hi + 2)) and \
        all(c == a for c in x.left_cycle) and all(c == a for c in x.right_cycle)


def bridge(s: Sft, a: Symbol, b: Symbol, length: int) -> Optional[Symbols]:
    """Lexicographically least word u of the given length with a.u.b admissible.

    Returns None when no bridge of that exact length exists.
    """
    if length < 0:
        raise ValueError("bridge length must be >= 0")
    T = s.matrix().astype(bool)
    # reach_back[k] = symbols from which b is reachable in exactly k steps
    reach_back = [np.zeros(s.alphabet_size, dtype=bool)]
    reach_back[0][b] = True
    for _ in range(length):
        reach_back.append(T @ reach_back[-1])
    if length == 0:
        return () if s.allowed(a, b) else None
    out = []
    cur = a
    for pos in range(length):
        # after placing position pos, length - pos edges remain to reach b
        nxt = next(
            (c for c in range(s.alphabet_size)
             if s.allowed(cur, c) and reach_back[length - pos][c]),
            None,
        )
        if nxt is None:
            return None
        out.append(nxt)
        cur = nxt
    return tuple(out)


def shortest_bridge(s: Sft, a: Symbol, b: Symbol) -> Symbols:
    """Least-length (then lexicographic-least) bridge between two symbols.

    Primitivity guarantees one of length <= mixing_rate(s).
    """
    for n in range(mixing_rate(s) + 1):
        u = bridge(s, a, b, n)
        if u is not None:
            return u
    raise NotPrimitive("no bridge within mixing rate; adjacency not primitive")


def bracket(x: PointSpec, y: PointSpec) -> PointSpec:
    """The point [x, y] with x's past (i <= 0) and y's future (i >= 0)."""
    if x.coord(0) != y.coord(0):
        raise SymbolMismatch(f"x0 = {x.coord(0)} != y0 = {y.coord(0)}")
    lo_x, _ = x.reach()
    a = min(0, lo_x)
    _, hi_y = y.reach()
    b = max(0, hi_y)
    core = x.coords(a, 0) + y.coords(1, b)
    nl = len(x.left_cycle)
    left = tuple(x.left_cycle[(x.anchor + a + k) % nl] for k in range(nl))
    nr = len(y.right_cycle)
    start = y.anchor + (b + 1) - len(y.core)
    right = tuple(y.right_cycle[(start + k) % nr] for k in range(nr))
    return PointSpec(left, core, right, -a)


def _equality_horizon(x: PointSpec, y: PointSpec) -> int:
    """Window radius beyond which coordinatewise agreement implies equality."""
    lo_x, hi_x = x.reach()
    lo_y, hi_y = y.reach()
    left = max(-lo_x, -lo_y, 0) + _lcm(len(x.left_cycle), len(y.left_cycle))
    right = max(hi_x, hi_y, 0) + _lcm(len(x.right_cycle), len(y.right_cycle))
    return max(left, right) + 1


def _lcm(a: int, b: int) -> int:
    return abs(a * b) // np.gcd(a, b)


def same_point(x: PointSpec, y: PointSpec) -> bool:
    h = _equality_horizon(x, y)
    return all(x.coord(i) == y.coord(i) for i in range(-h, h + 1))


def dist(x: PointSpec, y: PointSpec) -> float:
    """2^-k with k the largest integer such that x_i = y_i for all |i| < k.

    Returns 0.0 exactly when the specs denote the same sequence (decidable
    because both are eventually periodic).
    """
    if x.coord(0) != y.coord(0):
        return 1.0
    h = _equality_horizon(x, y)
    for k in range(1, h + 1):
        if x.coord(k) != y.coord(k) or x.coord(-k) != y.coord(-k):
            return 2.0 ** (-k)
    return 0.0


def extend_words(s: Sft, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(parent row, word) of every admissible one-symbol extension of the
    rows of a word array; sorted rows give sorted children, and rows of
    length 0 extend to every symbol."""
    T = s.matrix().astype(bool)
    allowed = T[words[:, -1]] if words.shape[1] else np.ones((len(words), len(T)), dtype=bool)
    parent, child = np.nonzero(allowed)
    return parent, np.column_stack([words[parent], child.astype(words.dtype)])


def word_array(s: Sft, n: int) -> np.ndarray:
    """All admissible words of length n as rows of a small-integer array,
    lexicographic order."""
    if n < 1:
        raise ValueError("length must be >= 1")
    words = np.zeros((1, 0), dtype=np.min_scalar_type(s.alphabet_size - 1))
    for _ in range(n):
        _, words = extend_words(s, words)
    return words


def enumerate_periodic(s: Sft, n: int) -> list[PeriodicWord]:
    """All admissible cycles of length n in lexicographic order.

    The count equals trace(adjacency^n).
    """
    if n < 1:
        raise ValueError("period must be >= 1")
    words = word_array(s, n)
    closed = s.matrix().astype(bool)[words[:, -1], words[:, 0]]
    return [PeriodicWord(tuple(w)) for w in words[closed].tolist()]


def enumerate_words(s: Sft, n: int) -> list[Symbols]:
    """All admissible words of length n, lexicographic order."""
    return [tuple(w) for w in word_array(s, n).tolist()]


def count_words(s: Sft, n: int) -> int:
    """Number of admissible words of length n (exact integer)."""
    if n < 1:
        raise ValueError("length must be >= 1")
    T = s.matrix().astype(object)
    return int(np.linalg.matrix_power(T, n - 1).sum()) if n > 1 else s.alphabet_size


def point_from_word(s: Sft, word: Sequence[int], base_symbol: Symbol) -> PointSpec:
    """Canonical representative of the cylinder of ``word``.

    Pads both ends with least-length lexicographic-least bridges to the
    distinguished fixed symbol and continues with that symbol forever;
    coordinate 0 sits at word[0].
    """
    w = require_word(s, word)
    if not s.allowed(base_symbol, base_symbol):
        raise ValueError("base symbol must be fixed")
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
    if not s.allowed(a, a):
        raise ValueError("symbol is not fixed")
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


def in_local_stable(x: PointSpec, y: PointSpec, horizon: Optional[int] = None) -> bool:
    """y in the local stable set of x: coordinates agree for all i >= 0."""
    if horizon is None:
        horizon = _equality_horizon(x, y)
    return all(x.coord(i) == y.coord(i) for i in range(0, horizon + 1))


def in_local_unstable(x: PointSpec, y: PointSpec, horizon: Optional[int] = None) -> bool:
    """y in the local unstable set of x: coordinates agree for all i <= 0."""
    if horizon is None:
        horizon = _equality_horizon(x, y)
    return all(x.coord(-i) == y.coord(-i) for i in range(0, horizon + 1))


def stable_shift(x: PointSpec, y: PointSpec) -> Optional[int]:
    """Least l >= 0 with shift(y, l) in the local stable set of shift(x, l).

    None when the two points disagree arbitrarily far to the right (their
    right tails differ), so no shift lands them on a common stable leaf.
    """
    r0 = max(x.reach()[1], y.reach()[1], 0) + 1
    period = _lcm(len(x.right_cycle), len(y.right_cycle))
    if any(x.coord(i) != y.coord(i) for i in range(r0, r0 + period)):
        return None  # tails strictly periodic from r0 on, so mismatches recur
    for i in range(r0 - 1, -1, -1):
        if x.coord(i) != y.coord(i):
            return i + 1
    return 0


def unstable_shift(x: PointSpec, y: PointSpec) -> Optional[int]:
    """Least l >= 0 with shift(y, -l) in the local unstable set of shift(x, -l).

    None when the left tails differ.
    """
    l0 = min(x.reach()[0], y.reach()[0], 0) - 1
    period = _lcm(len(x.left_cycle), len(y.left_cycle))
    if any(x.coord(i) != y.coord(i) for i in range(l0 - period + 1, l0 + 1)):
        return None
    for i in range(l0 + 1, 1):
        if x.coord(i) != y.coord(i):
            return 1 - i
    return 0


def cyclic_min_rotation(word: Symbols) -> Symbols:
    return min(tuple(word[i:] + word[:i]) for i in range(len(word)))


def primitive_root(word: Symbols) -> Symbols:
    n = len(word)
    for r in range(1, n + 1):
        if n % r == 0 and word == word[:r] * (n // r):
            return word[:r]
    return word


def orbit_key(w: PeriodicWord) -> Symbols:
    """Canonical key of the periodic orbit: min rotation of the primitive root."""
    return cyclic_min_rotation(primitive_root(w.symbols))


def full_shift(q: int) -> Sft:
    return Sft.from_matrix(np.ones((q, q), dtype=int))


def golden_mean_shift() -> Sft:
    return Sft.from_matrix([[1, 1], [1, 0]])
