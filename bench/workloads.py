"""The four benchmark workloads and their correctness gates.

Each workload is a closed loop driven from one process: one caller, one
call at a time.  A *round* is a fixed unit of work whose inputs depend
only on (seed, round index modulo the workload's ``distinct`` rounds), so
any round can be replayed and a run's set of distinct inputs depends on
the seed alone, not on how many rounds fit in the time:

- ``synth``: one ``build_proximal_periodic`` call (tau 0.05) per demo and
  word length, on random admissible words, ``rounds`` distinct rounds of
  them, cycled until the time is up.  The per-point symbol code,
  holonomies, witnesses and synthesis stages do the work.  Long words
  raise ``SingularMatrix`` on some inputs today; those failures are part
  of the workload and are counted, not avoided.
- ``pressure``: one ``thermo.pressure`` sweep over every cylinder word of
  the golden-mean 3x3 demo, on one worker.  Recursive enumeration, the
  batched log-singular ladder and the per-row potential do the work; the
  working set grows with n.
- ``spectrum``: one ``analysis.periodic_spectrum`` of the 3x3 demo.
  Periodic enumeration, orbit deduplication and thousands of short
  per-point ladders do the work.
- ``dominate``: one ``analysis.theorem_b_check`` of the dominated 2x2
  demo with two pool workers.  It is the only workload that uses the
  worker pool, on many small batches.

The exhaustive workloads have no random input: the seed only picks the
samples their gates recompute.  Every gate check is made with plain numpy
or exact integer arithmetic written here, never with the code under test,
except where a check compares two runs of that code (determinism).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from itertools import product as cartesian
from typing import Any, Optional

import numpy as np

from coprox import analysis, demos, synthesis, thermo, typicality
from coprox.errors import CoproxError

FULL = {
    "synth": {"demos": ("typical_2x2", "typical_3x3", "radius1_2x2", "dominated_2x2"),
              "lengths": (16, 48, 128, 320, 800), "tau": 0.05, "rounds": 16},
    "pressure": {"demo": "golden_typical_3x3", "s": 1.5, "n_max": 20},
    "spectrum": {"demo": "typical_3x3", "max_period": 12},
    "dominate": {"demo": "dominated_2x2", "index": 1, "max_period": 8, "n_max": 14,
                 "workers": 2},
}
SMOKE = {
    "synth": {**FULL["synth"], "lengths": (16, 48), "rounds": 2},
    "pressure": {**FULL["pressure"], "n_max": 9},
    "spectrum": {**FULL["spectrum"], "max_period": 7},
    "dominate": {**FULL["dominate"], "max_period": 4, "n_max": 8},
}


@dataclass
class Call:
    """One timed call: its input, its output or error, and its cost."""

    spec: Any
    output: Any
    error: Optional[CoproxError]
    seconds: float
    fp_warnings: int
    speed: float = 1.0  # calibration time around the call over the reference time

    @property
    def scaled(self) -> float:
        """Duration at the reference machine speed."""
        return self.seconds / self.speed


def canonical_bytes(records: list) -> bytes:
    return json.dumps(records, sort_keys=True, separators=(",", ":")).encode()


def digest(records: list) -> str:
    return hashlib.sha256(canonical_bytes(records)).hexdigest()


def _word_str(symbols) -> str:
    return "".join(str(c) for c in symbols)


def _adjacency(A) -> np.ndarray:
    return np.array(A.base.adjacency, dtype=np.int64)


def _random_word(rng: np.random.Generator, T: np.ndarray, length: int) -> tuple:
    """Admissible word, first symbol uniform, each next uniform over the
    allowed successors."""
    succ = [np.flatnonzero(row) for row in T]
    word = [int(rng.integers(len(T)))]
    for u in rng.random(length - 1):
        options = succ[word[-1]]
        word.append(int(options[int(u * len(options))]))
    return tuple(word)


def _admissible_words(T: np.ndarray, n: int):
    return [w for w in cartesian(range(len(T)), repeat=n)
            if all(T[a, b] for a, b in zip(w, w[1:]))]


def _raw_product(A, word) -> np.ndarray:
    """Plain product A(w_{n-1}) ... A(w_0) of a radius-0 cocycle."""
    g = np.eye(A.dim)
    for c in word:
        g = A.table[(c,)] @ g
    return g


def _word_count(T: np.ndarray, n: int) -> int:
    """Admissible words of length n, exactly: sum of the entries of T^(n-1)."""
    m = np.eye(len(T), dtype=object)
    for _ in range(n - 1):
        m = m.dot(T.astype(object))
    return int(m.sum())


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _primitive_orbit_count(T: np.ndarray, n: int) -> int:
    """Periodic orbits of least period n: Moebius inversion of trace(T^d)."""
    Tobj = T.astype(object)
    traces, m = {}, np.eye(len(T), dtype=object)
    for d in range(1, n + 1):
        m = m.dot(Tobj)
        traces[d] = int(np.trace(m))
    total = sum(_mobius(n // d) * traces[d] for d in range(1, n + 1) if n % d == 0)
    return total // n


def _min_rotation(word: tuple) -> tuple:
    return min(word[i:] + word[:i] for i in range(len(word)))


def _is_primitive(word: tuple) -> bool:
    n = len(word)
    return all(word != word[r:] + word[:r] for r in range(1, n) if n % r == 0)


class Workload:
    """Setup, inputs, call, canonical record and gate of one workload."""

    name = ""
    item_label = ""  # what items_per_s counts, e.g. "certified_per_s"
    exhaustive = True  # every round repeats one call on fixed inputs

    def __init__(self, size: dict):
        self.size = size

    @property
    def distinct(self) -> int:
        """Rounds of distinct inputs: round r repeats round r % distinct."""
        return self.size.get("rounds", 1)

    def first_calls(self, rounds: list[list[Call]]) -> dict:
        """The first call on each distinct input, keyed by (round index
        modulo ``distinct``, position in the round)."""
        first = {}
        for r, calls in enumerate(rounds):
            for k, call in enumerate(calls):
                first.setdefault((r % self.distinct, k), call)
        return first

    def setup(self, seed: int) -> None:
        """Build the demos, find their typical pairs, make a warm-up call."""
        raise NotImplementedError

    def inputs(self, seed: int, round_index: int) -> list:
        raise NotImplementedError

    def call(self, spec):
        raise NotImplementedError

    def items(self, call: Call) -> int:
        raise NotImplementedError

    def record(self, call: Call) -> dict:
        """Canonical, library-independent view of one call's outcome."""
        raise NotImplementedError

    def check(self, rounds: list[list[Call]], seed: int) -> list[str]:
        """Workload-specific independent checks; returns the problems."""
        raise NotImplementedError

    def gate(self, rounds: list[list[Call]], seed: int, recorded_digest: str) -> list[str]:
        if self.exhaustive and any(c.error for calls in rounds for c in calls):
            return ["a call on fixed inputs raised an error"]
        problems = []
        first = [self.record(c) for c in rounds[0]]
        if digest(first) != recorded_digest:
            problems.append("digest of round 0 does not match its report bytes")
        return problems + self._repeats_agree(rounds) + self.check(rounds, seed)

    def _repeats_agree(self, rounds) -> list[str]:
        """Identical inputs must give identical report bytes (or the same
        error class) every time they are called."""
        first, bad = {}, set()
        for r, calls in enumerate(rounds):
            for k, call in enumerate(calls):
                got = canonical_bytes(self.record(call))
                if first.setdefault((r % self.distinct, k), got) != got:
                    bad.add(r)
        return [f"rounds {sorted(bad)} differ from earlier calls on the same inputs"] if bad else []

    def _typical(self, A):
        found = typicality.find_typical_pair(A)
        if found is None:
            raise RuntimeError(f"{self.name}: demo has no typical pair")
        return found[2]


class Synth(Workload):
    name = "synth"
    item_label = "certified_per_s"
    exhaustive = False

    def setup(self, seed):
        self.demos = []
        for demo in self.size["demos"]:
            A = getattr(demos, demo)()
            self.demos.append((demo, A, self._typical(A)))
        for i, (_, A, cert) in enumerate(self.demos):
            word = _random_word(np.random.default_rng([seed, 2**32 - 1, i]), _adjacency(A), 16)
            try:
                synthesis.build_proximal_periodic(A, cert, word, self.size["tau"])
            except CoproxError:
                pass

    def inputs(self, seed, round_index):
        round_index %= self.distinct
        specs = []
        for length in self.size["lengths"]:
            for i, (_, A, _) in enumerate(self.demos):
                rng = np.random.default_rng([seed, round_index, len(specs)])
                specs.append((i, _random_word(rng, _adjacency(A), length)))
        return specs

    def call(self, spec):
        i, word = spec
        _, A, cert = self.demos[i]
        return synthesis.build_proximal_periodic(A, cert, word, self.size["tau"])

    def items(self, call):
        return int(call.error is None)

    def record(self, call):
        i, word = call.spec
        out = {"demo": self.demos[i][0], "word": _word_str(word)}
        if call.error is not None:
            out["error"] = type(call.error).__name__
            return out
        rep = call.output
        out.update(
            q=_word_str(rep.q.symbols), n=rep.n, n_q=rep.n_q, j=rep.j,
            verdicts=[bool(w.verdict) for w in rep.witnesses],
            contractions=[float(w.contraction) for w in rep.witnesses],
            margins=[float(m) for m in rep.transversality_margins],
            bound_value=rep.bound_value, ell_used=rep.ell_used, retries=rep.retries,
        )
        return out

    def check(self, rounds, seed):
        problems = []
        for call in self.first_calls(rounds).values():
            if call.error is not None:
                continue
            i, word = call.spec
            name, A, _ = self.demos[i]
            rep = call.output
            q = tuple(rep.q.symbols)
            n, n_q, j = len(word), len(q), rep.j
            where = f"{name} n={n}"
            if tuple(rep.x_word) != tuple(word) or rep.n != n:
                problems.append(f"{where}: report is for another word")
            if rep.n_q != n_q or n_q < n:
                problems.append(f"{where}: period {rep.n_q} shorter than the word")
            if not 0 <= j < n_q or any(q[(j + k) % n_q] != word[k] for k in range(n)):
                problems.append(f"{where}: q does not contain the word at offset {j}")
            T = _adjacency(A)
            if any(not T[q[k], q[(k + 1) % n_q]] for k in range(n_q)):
                problems.append(f"{where}: q is not an admissible cycle")
            if len(rep.witnesses) != A.dim - 1 or not all(w.verdict for w in rep.witnesses):
                problems.append(f"{where}: not every exterior power is certified")
            if rep.bound_value is None or not math.isfinite(rep.bound_value):
                problems.append(f"{where}: bound value is not finite")
        return problems


class Pressure(Workload):
    name = "pressure"
    item_label = "words_per_s"

    def setup(self, seed):
        self.A = getattr(demos, self.size["demo"])()
        self._typical(self.A)
        self.n_range = tuple(range(2, self.size["n_max"] + 1))
        T = _adjacency(self.A)
        self.words_per_call = sum(_word_count(T, n) for n in self.n_range)
        self.call(None)

    def inputs(self, seed, round_index):
        return [None]

    def call(self, spec):
        return thermo.pressure(self.A, self.size["s"], self.n_range, workers=1)

    def items(self, call):
        return self.words_per_call if call.error is None else 0

    def record(self, call):
        est = call.output
        return {"s": est.s, "n_range": list(est.n_range), "p_n": list(est.p_n),
                "value": est.value, "method": est.method}

    def _log_phi(self, g: np.ndarray) -> float:
        """log of the singular value potential, s in [0, d]."""
        s = self.size["s"]
        logs = np.log(np.linalg.svd(g, compute_uv=False))
        k = int(math.floor(s))
        return float(np.sum(logs[:k]) + (s - k) * (logs[k] if k < len(logs) else 0.0))

    def check(self, rounds, seed):
        problems = []
        A, T = self.A, _adjacency(self.A)
        est = rounds[0][0].output
        for n, p in zip(est.n_range, est.p_n):
            if n > 10:
                continue
            logs = np.array([self._log_phi(_raw_product(A, w)) for w in _admissible_words(T, n)])
            top = logs.max()
            ref = float(top + np.log(np.sum(np.exp(logs - top)))) / n
            if not abs(ref - p) <= 1e-9 * max(1.0, abs(ref)):
                problems.append(f"P_{n} = {p!r}, plain numpy gives {ref!r}")
        rng = np.random.default_rng([seed, 1])
        sample = [_random_word(rng, T, int(rng.integers(2, 11))) for _ in range(64)]
        base_symbol = A.base.fixed_symbols()[0]
        for word in sample:
            got = thermo.batch_log_singular(A, [word], base_symbol)[0]
            ref = np.log(np.linalg.svd(_raw_product(A, word), compute_uv=False))
            if not np.allclose(got, ref, rtol=0, atol=1e-8):
                problems.append(f"log singular values of {_word_str(word)} disagree: "
                                f"{got.tolist()} vs {ref.tolist()}")
        return problems


class Spectrum(Workload):
    name = "spectrum"
    item_label = "orbits_per_s"

    def setup(self, seed):
        self.A = getattr(demos, self.size["demo"])()
        self._typical(self.A)
        self.call(None)

    def inputs(self, seed, round_index):
        return [None]

    def call(self, spec):
        return analysis.periodic_spectrum(self.A, self.size["max_period"])

    def items(self, call):
        return len(call.output) if call.error is None else 0

    def record(self, call):
        return [[_word_str(q.symbols), [float(v) for v in lyap]] for q, lyap in call.output]

    def check(self, rounds, seed):
        problems = []
        A, T, top = self.A, _adjacency(self.A), self.size["max_period"]
        orbits = rounds[0][0].output
        expected = sum(_primitive_orbit_count(T, n) for n in range(1, top + 1))
        if len(orbits) != expected:
            problems.append(f"{len(orbits)} orbits, Moebius inversion gives {expected}")
        keys = set()
        for q, _ in orbits:
            w = tuple(q.symbols)
            if not 1 <= len(w) <= top or not _is_primitive(w) or any(
                    not T[w[k], w[(k + 1) % len(w)]] for k in range(len(w))):
                problems.append(f"{_word_str(w)} is not a primitive admissible cycle")
            keys.add(_min_rotation(w))
        if len(keys) != len(orbits):
            problems.append("an orbit is listed twice")
        rng = np.random.default_rng([seed, 2])
        for k in rng.choice(len(orbits), size=min(32, len(orbits)), replace=False):
            q, lyap = orbits[k]
            w = tuple(q.symbols)
            moduli = np.sort(np.abs(np.linalg.eigvals(_raw_product(A, w))))[::-1]
            ref = np.log(moduli) / len(w)
            if not np.allclose(lyap, ref, rtol=0, atol=1e-7):
                problems.append(f"exponents of {_word_str(w)} disagree: "
                                f"{list(lyap)} vs {ref.tolist()}")
        return problems


class Dominate(Workload):
    name = "dominate"
    item_label = "words_per_s"

    def setup(self, seed):
        self.A = getattr(demos, self.size["demo"])()
        self.cert = self._typical(self.A)
        self.n_list = tuple(range(2, self.size["n_max"] + 1))
        self.workers = max(1, min(self.size["workers"], len(os.sched_getaffinity(0))))
        T = _adjacency(self.A)
        self.words_per_call = sum(_word_count(T, n) for n in self.n_list)
        self.call(self.workers)

    def inputs(self, seed, round_index):
        return [self.workers]

    def call(self, spec):
        return analysis.theorem_b_check(self.A, self.cert, self.size["index"],
                                        self.size["max_period"], self.n_list,
                                        workers=spec)

    def items(self, call):
        return self.words_per_call if call.error is None else 0

    def record(self, call):
        rep = call.output
        prof = rep.profile
        return {"index": rep.index, "periodic_gap": rep.periodic_gap,
                "min_gap_orbit": rep.min_gap_orbit, "verdict": bool(rep.verdict),
                "n_list": list(prof.n_list), "minima": list(prof.minima),
                "mode": prof.mode, "slope": prof.slope, "slope_se": prof.slope_se,
                "intercept": prof.intercept, "r_squared": prof.r_squared}

    def check(self, rounds, seed):
        problems = []
        first = self.record(rounds[0][0])
        single = Call(1, self.call(1), None, 0.0, 0)
        if canonical_bytes(self.record(single)) != canonical_bytes(first):
            problems.append(f"report bytes differ between workers={self.workers} and workers=1")
        A, T, i = self.A, _adjacency(self.A), self.size["index"]
        for n, got in zip(first["n_list"], first["minima"]):
            if n > 8:
                continue
            gaps = []
            for w in _admissible_words(T, n):
                logs = np.log(np.linalg.svd(_raw_product(A, w), compute_uv=False))
                gaps.append(logs[i - 1] - logs[i])
            if not abs(min(gaps) - got) <= 1e-7:
                problems.append(f"gap minimum at n={n} is {got!r}, plain numpy gives {min(gaps)!r}")
        gap = min(
            (lambda m: (m[i - 1] - m[i]) / len(w))(
                np.log(np.sort(np.abs(np.linalg.eigvals(_raw_product(A, w))))[::-1]))
            for n in range(1, self.size["max_period"] + 1)
            for w in _admissible_words(T, n) if T[w[-1], w[0]]
        )
        if not abs(gap - first["periodic_gap"]) <= 1e-7:
            problems.append(f"periodic gap {first['periodic_gap']!r}, plain numpy gives {gap!r}")
        return problems


WORKLOADS = {w.name: w for w in (Synth, Pressure, Spectrum, Dominate)}
