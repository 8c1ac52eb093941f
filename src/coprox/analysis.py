"""Spectrum-level experiments: periodic Lyapunov vectors, exhaustive
periodic spectra, singular-gap profiles, and the domination and
spectrum-equality checks built on the orbit synthesizer.

Everything here is an n-indexed diagnostic at desk scale; reports carry
their budgets and never claim limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cocycle import (WindowCocycle, WorkerPool, batch_log_singular, orbit_chi_vec,
                      orbit_mu_vec, sweep_log_singular)
from .errors import SynthesisFailed
from .sft import (
    PeriodicWord,
    Symbols,
    count_words,
    enumerate_periodic,
    make_periodic,
    orbit_key,
    periodic_point,
    point_from_word,
)
from .synthesis import build_proximal_periodic


def periodic_lyapunov(A: WindowCocycle, q: PeriodicWord) -> np.ndarray:
    """Per-step log eigenvalue moduli of the product around the cycle."""
    return orbit_chi_vec(A, periodic_point(q), q.period) / q.period


def periodic_spectrum(A: WindowCocycle, max_period: int) -> list[tuple[PeriodicWord, np.ndarray]]:
    """All periodic orbits of period <= max_period with their exponent
    vectors, deduplicated by primitive root and cyclic rotation."""
    seen = {}
    for n in range(1, max_period + 1):
        for w in enumerate_periodic(A.base, n):
            key = orbit_key(w)
            if key not in seen:
                seen[key] = (make_periodic(A.base, key), periodic_lyapunov(A, w))
    return [seen[k] for k in sorted(seen)]


def _base_symbol(A: WindowCocycle) -> int:
    symbols = A.base.fixed_symbols()
    if not symbols:
        raise ValueError("base subshift has no fixed symbol")
    return symbols[0]


def _sampled_words(A: WindowCocycle, n: int, count: int, seed: int) -> list[Symbols]:
    """Seed-deterministic admissible words, uniform over continuations."""
    rng = np.random.default_rng(seed)
    s = A.base
    out = []
    for _ in range(count):
        word = [int(rng.integers(s.alphabet_size))]
        for _ in range(n - 1):
            options = [c for c in range(s.alphabet_size) if s.allowed(word[-1], c)]
            word.append(int(options[rng.integers(len(options))]))
        out.append(tuple(word))
    return out


@dataclass(frozen=True)
class GapProfile:
    """Per-length minima of a singular-value log gap, with a linear fit."""

    index: int
    n_list: tuple[int, ...]
    minima: tuple[float, ...]
    mode: str
    slope: float      # fitted growth rate per step
    intercept: float  # fitted offset (negative of the usual constant)
    r_squared: float
    slope_se: float   # standard error of the fitted slope

    def to_rows(self):
        return list(zip(self.n_list, self.minima))


def _fit_line(ns, values):
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(ns) < 2 or np.ptp(ns) == 0:
        return 0.0, float(values.mean()), 1.0, 0.0
    slope, intercept = np.polyfit(ns, values, 1)
    fitted = slope * ns + intercept
    ss_res = float(np.sum((values - fitted) ** 2))
    ss_tot = float(np.sum((values - values.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    dof = max(1, len(ns) - 2)
    se = float(np.sqrt(ss_res / dof / np.sum((ns - ns.mean()) ** 2)))
    return float(slope), float(intercept), r2, se


def gap_profile(A: WindowCocycle, i: int, n_list: Sequence[int], *,
                exhaustive_budget: int = 200_000,
                sample_count: int = 512, seed: Optional[int] = None,
                workers: int = 1) -> GapProfile:
    """Minimum of mu_i - mu_{i+1} over length-n words, for each n.

    Exhaustive when the word count fits the budget, otherwise a
    seed-deterministic sample (seed then mandatory).  Words are evaluated
    at canonical representative points.  All exhaustive lengths come from
    one level sweep (:func:`coprox.cocycle.sweep_log_singular`); with
    workers > 1 the sweep and the sampled batches share at most one
    worker pool.
    """
    if not 1 <= i <= A.dim - 1:
        raise ValueError("need 1 <= i <= d-1")
    if len(n_list) == 0:
        raise ValueError("n_list must be nonempty")
    base_symbol = _base_symbol(A)
    exhaustive = [n for n in n_list if count_words(A.base, n) <= exhaustive_budget]
    sampled = [n for n in n_list if n not in exhaustive]
    if sampled and seed is None:
        raise ValueError("sampled mode requires a seed")
    with WorkerPool(workers) as pool:
        logs = sweep_log_singular(A, exhaustive, base_symbol, workers=pool)
        for n in sampled:
            logs[n] = batch_log_singular(A, _sampled_words(A, n, sample_count, seed + n),
                                         base_symbol, workers=pool)
    minima = [float(np.min(logs[n][:, i - 1] - logs[n][:, i])) for n in n_list]
    mode = f"sampled({sample_count},{seed})" if sampled else "exhaustive"
    slope, intercept, r2, se = _fit_line(list(n_list), minima)
    return GapProfile(i, tuple(n_list), tuple(minima), mode, slope, intercept,
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


def theorem_b_check(A: WindowCocycle, cert, i: int, max_period: int,
                    n_list: Sequence[int], *, r2_threshold: float = 0.99,
                    workers: int = 1) -> DominationReport:
    """Cross-validate the periodic-gap hypothesis against the uniform
    singular-gap growth it predicts.

    Positive periodic gap c over all orbits up to max_period should co-occur
    with a positive fitted slope of the exhaustive gap profile.
    """
    if cert is not None and not cert.passed:
        raise ValueError("certificate does not pass")
    if not 1 <= i <= A.dim - 1:
        raise ValueError("need 1 <= i <= d-1")
    gap = np.inf
    argmin = ""
    for q, lyap in periodic_spectrum(A, max_period):
        g = float(lyap[i - 1] - lyap[i])
        if g < gap:
            gap = g
            argmin = "".join(str(c) for c in q.symbols)
    profile = gap_profile(A, i, n_list, workers=workers)
    # slope must be positive with a two-sigma interval clear of zero
    verdict = (gap > 0 and profile.slope - 2 * profile.slope_se > 0
               and profile.r_squared > r2_threshold)
    return DominationReport(i, gap, profile, argmin, bool(verdict), r2_threshold)


def pointwise_estimate(A: WindowCocycle, word: Symbols) -> np.ndarray:
    """(1/n) log singular values at the canonical representative of word.

    An n-indexed estimate; no convergence claim is attached.
    """
    x = point_from_word(A.base, word, _base_symbol(A))
    n = len(word)
    return orbit_mu_vec(A, x, n) / n


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


def theorem_d_check(A: WindowCocycle, cert, words: Sequence[Symbols], c_emp: float,
                    tau: float, *, slack: float = 1e-9,
                    ell_cap: int = 2**14) -> TheoremDReport:
    """For each word: synthesize a shadowing orbit q and compare
    (1/n) mu-vector against (n_q/n) times the orbit's exponent vector;
    the allowance is c_emp/n + slack with c_emp from the bound experiment."""
    samples = []
    failures = []
    for w in words:
        w = tuple(w)
        n = len(w)
        try:
            rep = build_proximal_periodic(A, cert, w, tau, ell_cap=ell_cap)
        except SynthesisFailed as exc:
            failures.append((w, str(exc)))
            continue
        x = point_from_word(A.base, w, cert.p.coord(0) if cert else _base_symbol(A))
        mu = orbit_mu_vec(A, x, n) / n
        lam = periodic_lyapunov(A, rep.q) * (rep.n_q / n)
        dist = float(np.linalg.norm(mu - lam))
        samples.append(SpectrumComparison(w, n, rep.n_q, dist, c_emp / n + slack))
    return TheoremDReport(tuple(samples), tuple(failures), c_emp)
