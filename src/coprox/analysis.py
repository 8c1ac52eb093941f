"""Spectrum-level experiments: periodic Lyapunov vectors, exhaustive
periodic spectra, singular-gap profiles, and the domination and
spectrum-equality checks built on the orbit synthesizer.

Everything here is an n-indexed diagnostic at desk scale; reports carry
their budgets and never claim limits.
"""

from __future__ import annotations

import operator
from collections import abc
from dataclasses import dataclass
from functools import reduce
from itertools import islice, takewhile
from typing import Iterator, Sequence

import numpy as np

from .cocycle import ROW_CAP, WindowCocycle, cycle_chi_rows, lyndon_chi_rows, sweep_log_singular
from .matnum import fit_line
from .sft import PeriodicWord, Sft, Symbols, least_fixed_symbol, orbit_counts, word_counts
from .synthesis import SYNTHESIS_ERRORS, build_proximal_periodic


def periodic_lyapunov(A: WindowCocycle, q: PeriodicWord) -> np.ndarray:
    """Per-step log eigenvalue moduli of the product around the cycle."""
    return cycle_chi_rows(A, np.array([q.symbols]))[0] / q.period


EXHAUSTIVE_BUDGET = 200_000
"""Most words a gap-profile length, and most orbits a spectrum period, may
have: every one is evaluated.  The full 2-shift is admitted up to period
22 (401,428 orbits), the golden mean shift up to 32 (421,830): the 3x3
demos' spectra there take about 1 s and 110 MB of RSS on a 2-CPU x86-64
host."""


def _refuse_over_budget(what: str, over: Sequence[int], items: str, budget: int) -> None:
    """Raise the one-line error for lengths or periods with more than
    budget items, named as runs ("1, 3..40"): orbit counts are not
    monotone, so the refused periods need not be one run."""
    ns = sorted(set(over))
    cuts = [i for i in range(1, len(ns)) if ns[i] > ns[i - 1] + 1]
    named = ", ".join(str(ns[a]) if ns[a] == ns[b - 1] else f"{ns[a]}..{ns[b - 1]}"
                      for a, b in zip([0] + cuts, cuts + [len(ns)]))
    raise ValueError(f"{what} {named} have more than {budget} {items}, "
                     "the exhaustive budget")


def _refuse_long_lengths(s: Sft, n_list: Sequence[int], budget: int) -> None:
    """Refuse the lengths in n_list with more than budget admissible words,
    from the exact word counts, before any word is walked.  The counts
    never decrease, so every length past the last within budget is over it,
    and the counting stops there."""
    within = sum(1 for _ in takewhile(lambda count: count <= budget,
                                      islice(word_counts(s), max(n_list, default=0))))
    too_long = [n for n in n_list if n > within]
    if too_long:
        _refuse_over_budget("lengths", too_long, "words", budget)


@dataclass(frozen=True, eq=False)
class PeriodicSpectrum(abc.Sequence):
    """Periodic orbits with their exponent vectors in word order, held as
    three arrays: ``cycles``, each orbit's Lyndon word padded with -1 to
    the longest period, in a signed type so that the pad sorts before every
    symbol as a tuple's end does; ``periods``; and ``rows``, each orbit's
    log eigenvalue moduli over its period.  Indexing (by any integer) and
    iterating give (PeriodicWord, row) pairs, each word built as it is
    read; a slice is the spectrum of those orbits."""

    cycles: np.ndarray
    periods: np.ndarray
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PeriodicSpectrum(self.cycles[i], self.periods[i], self.rows[i])
        i = range(len(self))[operator.index(i)]
        return next(self._pairs(slice(i, i + 1)))

    def _cuts(self) -> Iterator[slice]:
        """Blocks of ``ROW_CAP`` orbits, whose Python lists take a few
        hundred kB."""
        return (slice(lo, lo + ROW_CAP) for lo in range(0, len(self), ROW_CAP))

    def _pairs(self, cut: slice) -> Iterator[tuple[PeriodicWord, np.ndarray]]:
        """The (word, row) pairs of the orbits in cut, each word's symbols
        a tuple of Python ints cut to its period."""
        return ((PeriodicWord(tuple(word[:n])), row)
                for word, n, row in zip(self.cycles[cut].tolist(), self.periods[cut].tolist(),
                                        self.rows[cut]))

    def __iter__(self):
        for cut in self._cuts():
            yield from self._pairs(cut)

    def table(self) -> Iterator[np.ndarray]:
        """The rows reports write, (period, word, lambda_1, ..., lambda_d)
        per orbit in order, as blocks of Python objects: the word as
        "".join(map(str, symbols)) and the exponents as floats.  A block's
        words are its padded cycles read through one array of symbol names,
        whose last entry, the one the pad -1 reads, is empty, and joined
        column by column."""
        names = np.array([str(a) for a in range(self.cycles.max(initial=-1) + 1)] + [""])
        for cut in self._cuts():
            out = np.empty((len(self.rows[cut]), 2 + self.rows.shape[1]), dtype=object)
            out[:, 0], out[:, 2:] = self.periods[cut], self.rows[cut]
            out[:, 1] = reduce(np.char.add, names[self.cycles[cut]].T)
            yield out


def periodic_spectrum(A: WindowCocycle, max_period: int) -> PeriodicSpectrum:
    """All periodic orbits of period <= max_period with their exponent
    vectors, sorted by word.  Each orbit is its Lyndon word (its orbit
    key), and its vector is :func:`coprox.cocycle.cycle_chi_rows`'s row over
    the period, byte for byte; the rows are read off one level walk over
    the admissible prenecklaces that shares every prefix's product (see
    :func:`coprox.cocycle.lyndon_chi_rows`), and the words are sorted by one
    ``np.lexsort`` of their padded arrays.  A period with more than
    ``EXHAUSTIVE_BUDGET`` orbits is an error, found from the exact orbit
    counts before any orbit is walked."""
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    counts = orbit_counts(A.base, max_period)
    over = [n for n, count in enumerate(counts, 1) if count > EXHAUSTIVE_BUDGET]
    if over:
        _refuse_over_budget("periods", over, "orbits", EXHAUSTIVE_BUDGET)
    total = sum(counts)
    cycles = np.full((total, max_period), -1, dtype=np.min_scalar_type(-A.base.alphabet_size))
    periods = np.empty(total, dtype=np.int64)
    rows = np.empty((total, A.dim))
    at = 0
    for block, chi in lyndon_chi_rows(A, max_period):
        n, end = block.shape[1], at + len(block)
        cycles[at:end, :n] = block
        periods[at:end] = n
        np.divide(chi, n, out=rows[at:end])
        at = end
    assert at == total, "the walk closes one row per orbit"
    order = np.lexsort(cycles.T[::-1])  # the last key sorts first
    return PeriodicSpectrum(cycles[order], periods[order], rows[order])


def _sampled_words(A: WindowCocycle, n: int, count: int, seed: int) -> list[Symbols]:
    """Seed-deterministic admissible words, uniform over continuations:
    each symbol after the first is drawn among its predecessor's
    successors, tabulated once per call."""
    rng = np.random.default_rng(seed)
    s = A.base
    nexts = [[c for c in range(s.alphabet_size) if s.allowed(a, c)]
             for a in range(s.alphabet_size)]
    out = []
    for _ in range(count):
        word = [int(rng.integers(s.alphabet_size))]
        for _ in range(n - 1):
            options = nexts[word[-1]]
            word.append(options[rng.integers(len(options))])
        out.append(tuple(word))
    return out


@dataclass(frozen=True)
class GapProfile:
    """Per-length minima of a singular-value log gap, with a linear fit."""

    index: int
    n_list: tuple[int, ...]
    minima: tuple[float, ...]
    mode: str         # "exhaustive": every word of each length is evaluated
    slope: float      # fitted growth rate per step
    intercept: float  # fitted offset (negative of the usual constant)
    r_squared: float
    slope_se: float   # standard error of the fitted slope

    def to_rows(self):
        return list(zip(self.n_list, self.minima))


def gap_profile(A: WindowCocycle, i: int, n_list: Sequence[int]) -> GapProfile:
    """Minimum of mu_i - mu_{i+1} over all length-n words, for each n.

    Words are evaluated at canonical representative points, and all
    lengths come from one level sweep
    (:func:`coprox.cocycle.sweep_log_singular`), whose row map keeps only
    each word's gap.
    A length with more than ``EXHAUSTIVE_BUDGET`` words is an error.
    """
    if not 1 <= i <= A.dim - 1:
        raise ValueError("need 1 <= i <= d-1")
    if len(n_list) == 0:
        raise ValueError("n_list must be nonempty")
    if min(n_list) < 1:
        raise ValueError("lengths must be >= 1")
    _refuse_long_lengths(A.base, n_list, EXHAUSTIVE_BUDGET)
    gaps = sweep_log_singular(A, n_list, least_fixed_symbol(A.base),
                              row_map=lambda rows: rows[:, i - 1] - rows[:, i])
    minima = [float(np.min(gaps[n])) for n in n_list]
    slope, intercept, r2, se = fit_line(list(n_list), minima)
    return GapProfile(i, tuple(n_list), tuple(minima), "exhaustive", slope, intercept,
                      r2, se)


@dataclass(frozen=True)
class DominationReport:
    """Periodic gap plus gap-profile fit; the verdict is evidence of an
    index-i dominated splitting, not a proof."""

    index: int
    periodic_gap: float
    profile: GapProfile
    min_gap_orbit: str
    verdict: bool
    r2_threshold: float

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "periodic_gap": self.periodic_gap,
            "min_gap_orbit": self.min_gap_orbit,
            "fit_slope": self.profile.slope,
            "fit_slope_se": self.profile.slope_se,
            "fit_intercept": self.profile.intercept,
            "r_squared": self.profile.r_squared,
            "verdict": "dominated-evidence" if self.verdict else "no-domination-evidence",
            "n_list": list(self.profile.n_list),
            "minima": list(self.profile.minima),
            "mode": self.profile.mode,
            "r2_threshold": self.r2_threshold,
        }


R2_THRESHOLD = 0.99
"""Least R^2 of the gap-profile fit that counts as evidence of domination."""

GAP_FLOOR = 1e-12
"""The rounding level of a log gap: the periodic gap and the two-sigma
lower end of the fitted slope must both exceed it.  Equal moduli or
singular values leave gaps of a few 1e-16 per step, not zero."""


def least_gap(spectrum: PeriodicSpectrum, i: int) -> tuple[float, str]:
    """The least gap lambda_i - lambda_{i+1} over a spectrum's orbits, and
    the first orbit in word order that has it, written as a digit string.
    A NaN gap (of a row such as -inf, -inf) is never the least; with no gap
    below +inf the result is (inf, "")."""
    gaps = spectrum.rows[:, i - 1] - spectrum.rows[:, i]
    gaps[~(gaps < np.inf)] = np.inf
    if not (gaps < np.inf).any():
        return np.inf, ""
    j = int(np.argmin(gaps))  # the first of equal minima
    return float(gaps[j]), "".join(map(str, spectrum[j][0].symbols))


def theorem_b_check(A: WindowCocycle, cert, i: int, max_period: int,
                    n_list: Sequence[int], *, workers: int = 1) -> DominationReport:
    """Cross-validate the periodic-gap hypothesis against the uniform
    singular-gap growth it predicts.

    Positive periodic gap c over all orbits up to max_period should co-occur
    with a positive fitted slope of the exhaustive gap profile; both must
    clear ``GAP_FLOOR``, and the fit needs at least three distinct lengths
    (a line through two points fits them exactly).  ``workers`` is accepted
    and ignored: every sweep runs in the calling thread.  It goes once the
    benchmark harness stops passing it.
    """
    if cert is not None and not cert.passed:
        raise ValueError("certificate does not pass")
    if not 1 <= i <= A.dim - 1:
        raise ValueError("need 1 <= i <= d-1")
    if len(set(n_list)) < 3:
        raise ValueError(f"the gap-profile fit needs at least 3 distinct lengths, "
                         f"got {sorted(set(n_list))}")
    gap, argmin = least_gap(periodic_spectrum(A, max_period), i)
    profile = gap_profile(A, i, n_list)
    # the gap and the slope's two-sigma interval must clear rounding
    verdict = (gap > GAP_FLOOR and profile.slope - 2 * profile.slope_se > GAP_FLOOR
               and profile.r_squared > R2_THRESHOLD)
    return DominationReport(i, gap, profile, argmin, bool(verdict), R2_THRESHOLD)


def markov_sample(A: WindowCocycle, length: int, seed: int) -> Symbols:
    """One admissible word, uniform over continuations, seed-deterministic."""
    return _sampled_words(A, length, 1, seed)[0]


@dataclass(frozen=True)
class SpectrumComparison:
    """Per-sample distance between the pointwise estimate and the scaled
    exponent vector of the synthesized shadowing orbit."""

    word: Symbols
    n: int
    n_q: int
    distance: float
    allowed: float

    @property
    def within(self) -> bool:
        return self.distance <= self.allowed


@dataclass(frozen=True)
class TheoremDReport:
    samples: tuple[SpectrumComparison, ...]
    failures: tuple[tuple[Symbols, str], ...]
    c_emp: float

    @property
    def all_within(self) -> bool:
        return all(s.within for s in self.samples)

    def to_dict(self) -> dict:
        return {
            "c_emp": self.c_emp,
            "all_within": self.all_within,
            "num_failures": len(self.failures),
            "samples": [
                {
                    "word": "".join(str(c) for c in s.word),
                    "n": s.n,
                    "n_q": s.n_q,
                    "distance": s.distance,
                    "allowed": s.allowed,
                }
                for s in self.samples
            ],
        }


THEOREM_D_SLACK = 1e-9
"""Absolute slack added to each theorem D allowance c_emp/n."""


def theorem_d_check(A: WindowCocycle, cert, words: Sequence[Symbols], c_emp: float,
                    tau: float) -> TheoremDReport:
    """For each word: synthesize a shadowing orbit q and compare
    (1/n) mu-vector against (n_q/n) times the orbit's exponent vector,
    whose distance is the synthesis report's bound over n; the allowance
    is c_emp/n + ``THEOREM_D_SLACK`` with c_emp from the bound experiment."""
    samples = []
    failures = []
    for w in words:
        w = tuple(w)
        n = len(w)
        try:
            rep = build_proximal_periodic(A, cert, w, tau)
        except SYNTHESIS_ERRORS as exc:
            failures.append((w, str(exc)))
            continue
        samples.append(SpectrumComparison(w, n, rep.n_q, rep.bound_value / n,
                                          c_emp / n + THEOREM_D_SLACK))
    return TheoremDReport(tuple(samples), tuple(failures), c_emp)
