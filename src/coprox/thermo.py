"""Subadditive thermodynamic formalism at desk scale: singular value
potentials, pressure from cylinder sums with Cesaro extrapolation, and
the equal-equilibrium-state experiment for a pair of cocycles.

The measure proxy throughout is the vector of normalized cylinder
weights; all statements are diagnostics of trends in n, never claims
about the genuine invariant measures.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from math import floor, inf
from typing import Optional, Sequence

import numpy as np

from .cocycle import batch_log_singular  # noqa: F401  (part of this module's API)
from .cocycle import WindowCocycle, require_common_base, sweep_log_singular
from .errors import NotConstant
from .matnum import mu_vec
from .analysis import periodic_lyapunov, periodic_spectrum, _sampled_words
from .sft import least_fixed_symbol
from .synthesis import _require_tau, build_family_context, synthesize_family
from .typicality import TypicalityCertificate


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-D array, shifted by its maximum: the
    maximal entries are counted and split out of the shifted sum, and a
    non-finite result falls back to the direct formula.  The operations
    and their order are fixed; the tests hold the result to the bytes of
    the log-sum-exp that P_n were first computed with."""
    with np.errstate(all="ignore"):
        top = np.max(a, keepdims=True)
        at_top = a == top
        m = np.sum(at_top, dtype=float, keepdims=True)
        s = np.sum(np.exp(np.where(at_top, -inf, a) - top), keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + top
        if not np.isfinite(out[0]):
            out = np.log(np.sum(np.exp(a), keepdims=True))
    return float(out[0])


def _require_s(s: float) -> None:
    if not 0 <= s < inf:
        raise ValueError(f"s must be >= 0 and finite, got {s}")


def log_phi_s(log_alpha: np.ndarray, s: float):
    """log of the singular value potential from log singular values.

    For s in [0, d]: sum of the top floor(s) log values plus the fractional
    part of the next; for s > d: (s/d) log |det|.  One vector gives a
    float; a 2-D array gives one value per row, each equal to the float of
    that row.  A product that overflows is inf or nan, without a warning:
    :func:`pressure` rejects a P_n that is not finite.
    """
    _require_s(s)
    log_alpha = np.asarray(log_alpha)
    d = log_alpha.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        if s > d:
            out = (s / d) * np.sum(log_alpha, axis=-1)
        else:
            k = floor(s)
            out = np.sum(log_alpha[..., :k], axis=-1)
            if s > k and k < d:
                out = out + (s - k) * log_alpha[..., k]
    return float(out) if log_alpha.ndim == 1 else out


@dataclass(frozen=True)
class CylinderWeights:
    """Potential weights of all length-n cylinders plus the normalizer."""

    n: int
    s: float
    log_weights: np.ndarray

    @property
    def log_normalizer(self) -> float:
        return _logsumexp(self.log_weights)

    def normalized(self) -> np.ndarray:
        return np.exp(self.log_weights - self.log_normalizer)


def cylinder_weights(A: WindowCocycle, s: float,
                     n_list: Sequence[int]) -> dict[int, CylinderWeights]:
    """Potential weights of all length-n words, lexicographic, for each n
    in n_list: one level sweep whose row map takes each block of log
    singular values to its log potentials as it is written, so the sweep
    holds one float per word (the potential is row-wise, so these are the
    bytes of the potential of the whole level's rows)."""
    log_weights = sweep_log_singular(A, n_list, least_fixed_symbol(A.base),
                                     row_map=partial(log_phi_s, s=s))
    return {n: CylinderWeights(n, s, w) for n, w in log_weights.items()}


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

    to_dict = asdict


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
            return float(np.log(A.base.alphabet_size) + log_phi_s(mu_vec(g), s))
    return None


def pressure(A: WindowCocycle, s: float, n_range: Sequence[int], *,
             workers: int = 1) -> PressureEstimate:
    """P_n = (1/n) log sum over length-n words of the potential at the
    canonical representatives, extrapolated by difference quotients.

    All P_n come from one level sweep over lengths 1..max(n_range) (see
    :func:`coprox.cocycle.sweep_log_singular`).  The lengths must be
    distinct and >= 1.  A P_n that is not finite (the potential overflows
    at a large s) is an error.  ``workers`` is accepted and ignored: every
    sweep runs in the calling thread.  It goes once the benchmark harness
    stops passing it.
    """
    n_range = tuple(sorted(n_range))
    if not n_range:
        raise ValueError("n_range must be nonempty")
    if n_range[0] < 1:
        raise ValueError(f"lengths must be >= 1, got {n_range[0]}")
    if len(set(n_range)) != len(n_range):
        raise ValueError(f"n_range repeats a length: {list(n_range)}")
    _require_s(s)
    return _estimate(A, s, n_range, cylinder_weights(A, s, n_range))


def _estimate(A: WindowCocycle, s: float, n_range: tuple[int, ...],
              weights: dict[int, CylinderWeights]) -> PressureEstimate:
    """The pressure estimate over n_range from each length's weights; a
    P_n that is not finite is an error naming s."""
    p_n = [weights[n].log_normalizer / n for n in n_range]
    bad = [n for n, p in zip(n_range, p_n) if not np.isfinite(p)]
    if bad:
        raise ValueError(f"P_n at s = {s!r} is not finite for n = {bad}")
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
    spec_a = dict(periodic_spectrum(A, max_period))
    return [("".join(map(str, q.symbols)), float(spec_a[q][0] - lam_b[0]))
            for q, lam_b in periodic_spectrum(B, max_period)]


SAMPLE_LENGTH = 6
"""Length of the sampled words the equal-state experiment shadows."""

SAMPLE_WORDS = 3
"""Number of sampled words the equal-state experiment shadows."""

N_RANGE = (4, 6, 8, 10, 12)
"""Lengths of the equal-state experiment's two pressure estimates."""

TV_LEVELS = (2, 4, 6, 8)
"""Lengths at which the equal-state experiment compares cylinder weights."""


def theorem_c_experiment(A: WindowCocycle, B: WindowCocycle,
                         cert_pair: TypicalityCertificate, max_period: int,
                         tol: float, *, seed: int = 7,
                         tau: float = 0.05) -> EqualStateReport:
    """Decide per-orbit constancy of the top-exponent difference, then
    compare pressures and normalized cylinder-weight vectors, and exhibit
    common shadowing orbits proximal for both cocycles simultaneously.

    Raises NotConstant (with a witness pair of orbits) when the per-orbit
    differences spread beyond tol; that negative is the informative result.
    """
    _require_tau(tau)
    if not 0 <= tol < inf:
        raise ValueError(f"tol must be >= 0 and finite, got {tol}")
    require_common_base([A, B])
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
    # one sweep per cocycle serves both the pressures and the weights
    wa, wb = (cylinder_weights(C, 1.0, sorted(set(N_RANGE) | set(TV_LEVELS))) for C in (A, B))
    pa, pb = _estimate(A, 1.0, N_RANGE, wa), _estimate(B, 1.0, N_RANGE, wb)
    tv = [(n, float(0.5 * np.sum(np.abs(wa[n].normalized() - wb[n].normalized()))))
          for n in TV_LEVELS]
    ctx = build_family_context([A, B], cert_pair.p, cert_pair.z)
    paired = []
    for w in _sampled_words(A, SAMPLE_LENGTH, SAMPLE_WORDS, seed):
        rep = synthesize_family(ctx, w, tau)
        paired.append(
            {
                "word": "".join(map(str, w)),
                "q": "".join(map(str, rep.q.symbols)),
                "n_q": rep.n_q,
                "proximal_both": all(wit.verdict for wit in rep.witnesses),
                "lambda1_a": float(periodic_lyapunov(A, rep.q)[0]),
                "lambda1_b": float(periodic_lyapunov(B, rep.q)[0]),
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
