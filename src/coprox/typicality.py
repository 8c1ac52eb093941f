"""Pinching/twisting certification of cocycles at a fixed point p and a
homoclinic point z, for every exterior power with the common pair.

Pinching asks the return map P at p for simple eigenvalues of distinct
moduli; twisting asks the holonomy loop psi_z to put every collection
{psi v_i : i in I} u {v_j : j in J} with |I| + |J| <= d in general
position, or, on exterior powers of a base of dimension >= 4, where that
is impossible, the pair collections the constructions use.  Margins are
the minimal log-modulus gap and the minimal smallest singular value of
the unit-column test matrices; a certificate passes when every margin
exceeds the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import inf
from typing import Optional, Sequence

import numpy as np

from .cocycle import WindowCocycle, holonomy_loop, product, require_common_base
from .errors import NotFixedPoint
from .matnum import exterior_power, unit
from .sft import (PointSpec, Sft, Symbols, fixed_point, homoclinic_point, is_fixed_point,
                  least_fixed_symbol, word_array)

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class EigenFrame:
    """Real eigendata of a pinched matrix, sorted by decreasing modulus.

    ``vectors`` holds unit eigenvectors as columns; ``dual`` holds the dual
    basis as rows, so row i is (up to scale) the normal of the invariant
    hyperplane spanned by all eigenvectors except the i-th.  ``normals``
    holds the unit hyperplane normals as rows.  ``units`` and
    ``normal_units`` hold as rows what :func:`matnum.unit` makes of each
    eigenvector and each normal, which :func:`matnum.rho` would compute
    from them on every call: angles read from these rows with
    :func:`matnum.unit_cos_sin` have rho's bytes.  All three are built
    once per frame and read-only.
    """

    matrix: np.ndarray
    eigvals: np.ndarray
    vectors: np.ndarray
    dual: np.ndarray
    normals: np.ndarray = field(init=False, repr=False, compare=False)
    units: np.ndarray = field(init=False, repr=False, compare=False)
    normal_units: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        normals = np.array([unit(row) for row in self.dual])
        for name, rows in (("normals", normals),
                           ("units", np.array([unit(col) for col in self.vectors.T])),
                           ("normal_units", np.array([unit(row) for row in normals]))):
            rows.flags.writeable = False
            object.__setattr__(self, name, rows)

    @property
    def dim(self) -> int:
        return len(self.eigvals)

    def vector(self, i: int) -> np.ndarray:
        return self.vectors[:, i]

    def hyperplane_normal(self, i: int) -> np.ndarray:
        """Unit normal of span{v_j : j != i}."""
        return self.normals[i]


def pinching_margin(P: np.ndarray) -> float:
    """Min gap of consecutive log eigenvalue moduli; 0 for complex pairs."""
    moduli = np.sort(np.abs(np.linalg.eigvals(P)))[::-1]
    if len(moduli) == 1:
        return np.inf
    return float(np.min(np.diff(-np.log(moduli))))


def eigen_frame(P: np.ndarray, tol: float = DEFAULT_TOL) -> EigenFrame:
    """Eigenframe of a matrix whose pinching margin exceeds tol.

    Distinct moduli force all eigenvalues real (complex pairs share a
    modulus), so the frame is real; eigenvectors get a deterministic sign.
    """
    if pinching_margin(P) <= tol:
        raise ValueError("matrix is not pinched at this tolerance")
    vals, vecs = np.linalg.eig(P)
    order = np.argsort(-np.abs(vals))
    vals = vals[order].real
    vecs = vecs[:, order]
    out = np.empty_like(vecs, dtype=float)
    for i in range(vecs.shape[1]):
        col = vecs[:, i]
        lead = col[np.argmax(np.abs(col))]
        col = (col / (lead / abs(lead))).real
        col = col / np.linalg.norm(col)
        j = np.argmax(np.abs(col))
        if col[j] < 0:
            col = -col
        out[:, i] = col
    dual = np.linalg.inv(out)
    return EigenFrame(np.asarray(P, dtype=float), vals, out, dual)


def _index_pairs(d: int):
    # |I| + |J| = d: a collection's smallest singular value is never below
    # that of one containing it, so the smaller collections add nothing
    for i_size in range(d + 1):
        for I in combinations(range(d), i_size):
            for J in combinations(range(d), d - i_size):
                yield I, J


def _pair_index_sets(d: int):
    # {psi v_i} u {v_k : k != j}: the collections the turning constructions
    # actually consume (psi v_i clear of every invariant hyperplane)
    for i in range(d):
        for j in range(d):
            yield (i,), tuple(k for k in range(d) if k != j)


def twisting_margin(psi: np.ndarray, frame: EigenFrame,
                    collections: str = "all") -> float:
    """Min over index collections of the smallest singular value of the
    unit-column test matrix {psi v_i : i in I} u {v_j : j in J}.

    ``collections="all"`` stands for every I, J with 1 <= |I| + |J| <= d
    and takes those with |I| + |J| = d, whose minimum it is.  For
    eigenframes of exterior powers in base dimension >= 4 that set always
    contains structurally dependent collections (the wedge families
    psi(v ^ v_j) and v ^ v_j share the direction psi(v) ^ v regardless of
    psi), so the full margin is identically zero there;
    ``collections="pairs"`` restricts to the satisfiable pair conditions
    (|I| = 1, |J| = d - 1), which is what the path constructions consume.
    """
    d = frame.dim
    psi_v = np.column_stack([unit(psi @ frame.vector(i)) for i in range(d)])
    index_sets = _index_pairs(d) if collections == "all" else _pair_index_sets(d)
    worst = np.inf
    for I, J in index_sets:
        cols = [psi_v[:, i] for i in I] + [frame.vector(j) for j in J]
        m = np.column_stack(cols)
        smin = np.linalg.svd(m, compute_uv=False)[-1]
        worst = min(worst, float(smin))
    return worst


@dataclass(frozen=True)
class MemberCheck:
    label: str
    pinch_margin: float
    twist_margin: Optional[float]  # None when pinching already failed

    def passed(self, tol: float) -> bool:
        return (
            self.pinch_margin > tol
            and self.twist_margin is not None
            and self.twist_margin > tol
        )


@dataclass(frozen=True)
class TypicalityCertificate:
    """Margins for every checked family member with the common pair (p, z)."""

    p: PointSpec
    z: PointSpec
    per_member: tuple[MemberCheck, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return all(m.passed(self.tol) for m in self.per_member)

    def to_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "tol": self.tol,
            "p_symbol": self.p.coord(0),
            "z_window": "".join(str(c) for c in self.z.coords(-2, 12)),
            "members": [
                {
                    "label": m.label,
                    "pinch_margin": m.pinch_margin,
                    "twist_margin": m.twist_margin,
                }
                for m in self.per_member
            ],
        }


def _require_fixed_point(p: PointSpec) -> None:
    """The pair's own check; :func:`holonomy_loop` checks that z is
    homoclinic to p."""
    if not is_fixed_point(p):
        raise NotFixedPoint(
            "p must be a fixed point of the shift; reduce periodic p by "
            "passing to the power cocycle first"
        )


def _require_tol(tol: float) -> None:
    if not 0 < tol < inf:
        raise ValueError(f"tol must be > 0 and finite, got {tol}")


def check_members(members: Sequence[tuple[str, np.ndarray, np.ndarray, str]],
                  tol: float) -> tuple[MemberCheck, ...]:
    """Pinch/twist margins for (label, P, psi, collections) tuples."""
    out = []
    for label, P, psi, collections in members:
        pinch = pinching_margin(P)
        if pinch <= tol:
            out.append(MemberCheck(label, pinch, None))
            continue
        frame = eigen_frame(P, tol)
        out.append(MemberCheck(label, pinch,
                               twisting_margin(psi, frame, collections)))
    return tuple(out)


def typicality_check(A: WindowCocycle, p: PointSpec, z: PointSpec,
                     tol: float = DEFAULT_TOL) -> TypicalityCertificate:
    """Certify pinching and twisting of every exterior power t = 1..d-1
    with the same pair (p, z).

    Twisting checks every index collection at t = 1, and on the powers
    t >= 2 when d <= 3.  For d >= 4 the full set is unsatisfiable on those
    powers (see :func:`twisting_margin`), so they check the pair
    collections, the ones the orbit constructions consume.
    """
    _require_tol(tol)
    _require_fixed_point(p)
    P = product(A, p, 1)
    psi = holonomy_loop(A, p, z)
    members = [
        (f"t={t}", exterior_power(P, t), exterior_power(psi, t),
         "all" if t == 1 or A.dim <= 3 else "pairs")
        for t in range(1, A.dim)
    ]
    return TypicalityCertificate(p, z, check_members(members, tol), tol)


def family_certificate(cocycles: Sequence[WindowCocycle], p: PointSpec, z: PointSpec,
                       tol: float = DEFAULT_TOL) -> TypicalityCertificate:
    """Certify that every cocycle in the family is 1-typical for the common pair."""
    require_common_base(cocycles)
    _require_tol(tol)
    _require_fixed_point(p)
    members = [(f"member{i}", product(A, p, 1), holonomy_loop(A, p, z), "all")
               for i, A in enumerate(cocycles)]
    return TypicalityCertificate(p, z, check_members(members, tol), tol)


def _excursions(s: Sft, a: int, length: int) -> list[Symbols]:
    """Admissible excursions u (a.u.a admissible, u != a^len), lexicographic:
    the rows of :func:`word_array` that leave and return to a."""
    words = word_array(s, length)
    keep = s._arrows[a, words[:, 0]] & s._arrows[words[:, -1], a] & (words != a).any(axis=1)
    return [tuple(w) for w in words[keep].tolist()]


def find_typical_pair(A: WindowCocycle, max_excursion_len: int = 6,
                      tol: float = DEFAULT_TOL):
    """Deterministic scan for a passing pair: fixed symbols in order, then
    excursion words by length and lexicographic order.  A fixed symbol
    whose return map fails pinching is skipped: that fails for every z.

    Returns (p, z, certificate) for the first passing pair, or None.
    Raises NoFixedSymbol when the base has no fixed symbol.
    """
    _require_tol(tol)
    least_fixed_symbol(A.base)  # raises NoFixedSymbol when there is none
    for a in A.base.fixed_symbols():
        p = fixed_point(A.base, a)
        P = product(A, p, 1)
        if any(pinching_margin(exterior_power(P, t)) <= tol for t in range(1, A.dim)):
            continue
        for length in range(1, max_excursion_len + 1):
            for exc in _excursions(A.base, a, length):
                z = homoclinic_point(A.base, a, exc)
                cert = typicality_check(A, p, z, tol)
                if cert.passed:
                    return p, z, cert
    return None
