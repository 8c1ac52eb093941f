"""Subadditive thermodynamic formalism at desk scale: singular value
potentials, pressure from cylinder sums with Cesaro extrapolation, a
Gibbs-ratio diagnostic, and the equal-equilibrium-state experiment for a
pair of cocycles.

The measure proxy throughout is the vector of normalized cylinder
weights; all statements are diagnostics of trends in n, never claims
about the genuine invariant measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor
from typing import Optional, Sequence

import numpy as np
from scipy.special import logsumexp

from .cocycle import batch_log_singular  # noqa: F401  (part of this module's API)
from .cocycle import WindowCocycle, product, sweep_log_singular
from .errors import NotConstant
from .matnum import chi_vec
from .sft import Symbols, enumerate_words, periodic_point, word_array
from .analysis import periodic_spectrum, _base_symbol, _sampled_words
from .synthesis import build_family_context, synthesize_family
from .typicality import TypicalityCertificate


def log_phi_s(log_alpha: np.ndarray, s: float):
    """log of the singular value potential from log singular values.

    For s in [0, d]: sum of the top floor(s) log values plus the fractional
    part of the next; for s > d: (s/d) log |det|.  One vector gives a
    float; a 2-D array gives one value per row, each equal to the float of
    that row.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    log_alpha = np.asarray(log_alpha)
    d = log_alpha.shape[-1]
    if s > d:
        out = (s / d) * np.sum(log_alpha, axis=-1)
    else:
        k = floor(s)
        out = np.sum(log_alpha[..., :k], axis=-1)
        if s > k and k < d:
            out = out + (s - k) * log_alpha[..., k]
    return float(out) if log_alpha.ndim == 1 else out


def phi_s(g: np.ndarray, s: float) -> float:
    """Singular value potential of one matrix (two-branch formula)."""
    from .matnum import mu_vec

    return float(np.exp(log_phi_s(mu_vec(np.asarray(g, dtype=float)), s)))


def _log_weights(A: WindowCocycle, s: float, n_list: Sequence[int],
                 workers: int = 1) -> dict[int, np.ndarray]:
    """Log potentials of all length-n words, lexicographic, for each n:
    one level sweep and one vectorized potential per length."""
    rows = sweep_log_singular(A, n_list, _base_symbol(A), workers=workers)
    return {n: log_phi_s(r, s) for n, r in rows.items()}


@dataclass(frozen=True)
class CylinderWeights:
    """Potential weights of all length-n cylinders plus the normalizer."""

    n: int
    s: float
    words: tuple[Symbols, ...]
    log_weights: np.ndarray

    @property
    def log_normalizer(self) -> float:
        return float(logsumexp(self.log_weights))

    def normalized(self) -> np.ndarray:
        return np.exp(self.log_weights - self.log_normalizer)


def cylinder_weights(A: WindowCocycle, s: float, n: int, *,
                     workers: int = 1) -> CylinderWeights:
    lw = _log_weights(A, s, (n,), workers)[n]
    return CylinderWeights(n, s, tuple(enumerate_words(A.base, n)), lw)


@dataclass(frozen=True)
class PressureEstimate:
    """Cylinder-sum pressures P_n with a difference-quotient extrapolation.

    ``value`` averages (n P_n - m P_m)/(n - m) over consecutive pairs in
    the top quartile of the range; raw P_n are kept so users can
    re-extrapolate.  ``oracle`` holds a closed-form value when one exists.
    """

    s: float
    n_range: tuple[int, ...]
    p_n: tuple[float, ...]
    value: float
    method: str
    oracle: Optional[float]

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "n_range": list(self.n_range),
            "p_n": list(self.p_n),
            "value": self.value,
            "method": self.method,
            "oracle": self.oracle,
        }


def _known_oracle(A: WindowCocycle, s: float) -> Optional[float]:
    """Closed-form pressure for the exactly solvable cases."""
    T = A.base.matrix().astype(float)
    if s == 0:
        return float(np.log(np.max(np.abs(np.linalg.eigvals(T)))))
    if A.dim == 1 and A.radius == 0 and s == 1:
        weights = np.array(
            [abs(A.table[(i,)][0, 0]) for i in range(A.base.alphabet_size)]
        )
        return float(np.log(np.max(np.abs(np.linalg.eigvals(np.diag(weights) @ T)))))
    mats = list(A.table.values())
    if all(np.array_equal(m, mats[0]) for m in mats) and T.all():
        g = mats[0]
        if np.allclose(g @ g.T, g.T @ g, atol=1e-12):  # normal: powers stay exact
            return float(np.log(A.base.alphabet_size) + np.log(phi_s(g, s)))
    return None


def pressure(A: WindowCocycle, s: float, n_range: Sequence[int], *,
             workers: int = 1) -> PressureEstimate:
    """P_n = (1/n) log sum over length-n words of the potential at the
    canonical representatives, extrapolated by difference quotients.

    All P_n come from one level sweep over lengths 1..max(n_range) (see
    :func:`coprox.cocycle.sweep_log_singular`); with workers > 1 it starts
    at most one worker pool.  The lengths must be distinct and >= 1.
    """
    n_range = tuple(sorted(n_range))
    if not n_range:
        raise ValueError("n_range must be nonempty")
    if n_range[0] < 1:
        raise ValueError(f"lengths must be >= 1, got {n_range[0]}")
    if len(set(n_range)) != len(n_range):
        raise ValueError(f"n_range repeats a length: {list(n_range)}")
    if s < 0:
        raise ValueError("s must be >= 0")
    lw = _log_weights(A, s, n_range, workers)
    p_n = [float(logsumexp(lw[n])) / n for n in n_range]
    if len(n_range) == 1:
        value = p_n[0]
        method = "single-n"
    else:
        s_n = [n * p for n, p in zip(n_range, p_n)]
        quotients = [
            (s_n[i] - s_n[i - 1]) / (n_range[i] - n_range[i - 1])
            for i in range(1, len(n_range))
        ]
        take = max(1, (len(quotients) + 3) // 4)
        value = float(np.mean(quotients[-take:]))
        method = f"difference-quotient-top-quartile({take})"
    return PressureEstimate(s, n_range, tuple(p_n), value, method, _known_oracle(A, s))


@dataclass(frozen=True)
class GibbsDiagnostic:
    """Spread of the measure-proxy to potential ratio over level-n cylinders.

    The proxy mass of a cylinder is the normalized weight summed over its
    depth-deeper refinements; ratios are against e^{-n P_ref} phi^s.
    """

    n: int
    depth: int
    min_ratio: float
    max_ratio: float

    @property
    def spread(self) -> float:
        return self.max_ratio / self.min_ratio


def gibbs_diagnostic(A: WindowCocycle, s: float, n: int, p_ref: float, *,
                     depth: int = 5, workers: int = 1) -> GibbsDiagnostic:
    lw = _log_weights(A, s, (n, n + depth), workers)
    deep = lw[n + depth] - float(logsumexp(lw[n + depth]))
    # the refinements of each level-n word are one contiguous run of the
    # lexicographic level-(n + depth) words, runs in level-n order
    prefixes = word_array(A.base, n + depth)[:, :n]
    starts = 1 + np.flatnonzero(np.any(prefixes[1:] != prefixes[:-1], axis=1))
    log_ratios = [
        float(logsumexp(run)) - (-n * p_ref + shallow)
        for run, shallow in zip(np.split(deep, starts), lw[n])
    ]
    return GibbsDiagnostic(
        n, depth, float(np.exp(min(log_ratios))), float(np.exp(max(log_ratios)))
    )


@dataclass(frozen=True)
class EqualStateReport:
    """Outcome of the equal-equilibrium-state experiment for two cocycles."""

    constant_c: float
    max_deviation: float
    pressure_a: PressureEstimate
    pressure_b: PressureEstimate
    tv_by_n: tuple[tuple[int, float], ...]
    paired_orbits: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "constant_c": self.constant_c,
            "max_deviation": self.max_deviation,
            "pressure_a": self.pressure_a.to_dict(),
            "pressure_b": self.pressure_b.to_dict(),
            "pressure_gap_minus_c": (self.pressure_a.value - self.pressure_b.value)
            - self.constant_c,
            "tv_by_n": [list(t) for t in self.tv_by_n],
            "paired_orbits": list(self.paired_orbits),
        }


def top_exponent_differences(A: WindowCocycle, B: WindowCocycle,
                             max_period: int) -> list[tuple[str, float]]:
    """lambda_1(A, orbit) - lambda_1(B, orbit) for every orbit up to the cap."""
    diffs = []
    spec_a = dict(
        (tuple(q.symbols), lam) for q, lam in periodic_spectrum(A, max_period)
    )
    for q, lam_b in periodic_spectrum(B, max_period):
        key = tuple(q.symbols)
        diffs.append(("".join(map(str, key)), float(spec_a[key][0] - lam_b[0])))
    return diffs


def theorem_c_experiment(A: WindowCocycle, B: WindowCocycle,
                         cert_pair: TypicalityCertificate, max_period: int,
                         tol: float, *, n_range: Sequence[int] = (4, 6, 8, 10, 12),
                         tv_levels: Sequence[int] = (2, 4, 6, 8),
                         sample_words: int = 3, sample_length: int = 6,
                         seed: int = 7, tau: float = 0.05,
                         workers: int = 1) -> EqualStateReport:
    """Decide per-orbit constancy of the top-exponent difference, then
    compare pressures and normalized cylinder-weight vectors, and exhibit
    common shadowing orbits proximal for both cocycles simultaneously.

    Raises NotConstant (with a witness pair of orbits) when the per-orbit
    differences spread beyond tol; that negative is the informative result.
    """
    if not cert_pair.passed:
        raise ValueError("the pair certificate does not pass")
    diffs = top_exponent_differences(A, B, max_period)
    values = [v for _, v in diffs]
    c = float(np.median(values))
    spread = max(values) - min(values)
    if spread > tol:
        lo = min(diffs, key=lambda t: t[1])
        hi = max(diffs, key=lambda t: t[1])
        raise NotConstant(
            f"differences spread {spread:.3e} > tol across orbits", witness=(lo, hi)
        )
    pa = pressure(A, 1.0, n_range, workers=workers)
    pb = pressure(B, 1.0, n_range, workers=workers)
    tv = []
    for n in tv_levels:
        va = cylinder_weights(A, 1.0, n, workers=workers).normalized()
        vb = cylinder_weights(B, 1.0, n, workers=workers).normalized()
        tv.append((n, float(0.5 * np.sum(np.abs(va - vb)))))
    ctx = build_family_context([A, B], cert_pair.p, cert_pair.z)
    paired = []
    for w in _sampled_words(A, sample_length, sample_words, seed):
        rep = synthesize_family(ctx, w, tau)
        qpt = periodic_point(rep.q)
        paired.append(
            {
                "word": "".join(map(str, w)),
                "q": "".join(map(str, rep.q.symbols)),
                "n_q": rep.n_q,
                "proximal_both": all(wit.verdict for wit in rep.witnesses),
                "lambda1_a": float(chi_vec(product(A, qpt, rep.n_q))[0] / rep.n_q),
                "lambda1_b": float(chi_vec(product(B, qpt, rep.n_q))[0] / rep.n_q),
            }
        )
    return EqualStateReport(
        constant_c=c,
        max_deviation=float(spread),
        pressure_a=pa,
        pressure_b=pb,
        tv_by_n=tuple(tv),
        paired_orbits=tuple(paired),
    )
