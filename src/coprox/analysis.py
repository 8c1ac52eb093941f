"""Spectrum-level experiments: periodic Lyapunov vectors, exhaustive
periodic spectra, singular-gap profiles, and the domination and
spectrum-equality checks built on the orbit synthesizer.

Everything here is an n-indexed diagnostic at desk scale; reports carry
their budgets and never claim limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, takewhile
from typing import Sequence

import numpy as np

from .cocycle import WindowCocycle, cycle_chi_rows, lyndon_chi_rows, sweep_log_singular
from .matnum import fit_line
from .sft import PeriodicWord, Symbols, least_fixed_symbol, orbit_counts, word_counts
from .synthesis import SYNTHESIS_ERRORS, build_proximal_periodic


def periodic_lyapunov(A: WindowCocycle, q: PeriodicWord) -> np.ndarray:
    """Per-step log eigenvalue moduli of the product around the cycle."""
    return cycle_chi_rows(A, np.array([q.symbols]))[0] / q.period


EXHAUSTIVE_BUDGET = 200_000
"""Most words a gap-profile length, and most orbits a spectrum period, may
have: every one is evaluated."""


def _refuse_over_budget(what: str, over: Sequence[int], items: str) -> None:
    """Raise the one-line error for lengths or periods with more than
    ``EXHAUSTIVE_BUDGET`` items, named as runs ("1, 3..40"): orbit counts
    are not monotone, so the refused periods need not be one run."""
    ns = sorted(set(over))
    cuts = [i for i in range(1, len(ns)) if ns[i] > ns[i - 1] + 1]
    named = ", ".join(str(ns[a]) if ns[a] == ns[b - 1] else f"{ns[a]}..{ns[b - 1]}"
                      for a, b in zip([0] + cuts, cuts + [len(ns)]))
    raise ValueError(f"{what} {named} have more than {EXHAUSTIVE_BUDGET} {items}, "
                     "the exhaustive budget")


def periodic_spectrum(A: WindowCocycle, max_period: int) -> list[tuple[PeriodicWord, np.ndarray]]:
    """All periodic orbits of period <= max_period with their exponent
    vectors, sorted by word.  Each orbit is its Lyndon word (its orbit
    key), and its vector is :func:`coprox.cocycle.cycle_chi_rows`'s row over
    the period, byte for byte; the rows are read off one level walk over
    the admissible prenecklaces that shares every prefix's product (see
    :func:`coprox.cocycle.lyndon_chi_rows`).  A period with more than
    ``EXHAUSTIVE_BUDGET`` orbits is an error, found from the exact orbit
    counts before any orbit is walked."""
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    over = [n for n, count in enumerate(orbit_counts(A.base, max_period), 1)
            if count > EXHAUSTIVE_BUDGET]
    if over:
        _refuse_over_budget("periods", over, "orbits")
    out = []
    for cycles, rows in lyndon_chi_rows(A, max_period):
        n = cycles.shape[1]
        out += zip([PeriodicWord(tuple(w)) for w in cycles.tolist()], rows / n)
    return sorted(out, key=lambda item: item[0].symbols)


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
    # counts never decrease, so every length past the last within budget is over it
    within = sum(1 for _ in takewhile(lambda count: count <= EXHAUSTIVE_BUDGET,
                                      islice(word_counts(A.base), max(n_list))))
    too_long = [n for n in n_list if n > within]
    if too_long:
        _refuse_over_budget("lengths", too_long, "words")
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
    gap = np.inf
    argmin = ""
    for q, lyap in periodic_spectrum(A, max_period):
        g = float(lyap[i - 1] - lyap[i])
        if g < gap:
            gap = g
            argmin = "".join(str(c) for c in q.symbols)
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
