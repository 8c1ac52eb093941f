"""Built-in example cocycles used by the CLI demo command and the tests."""

from __future__ import annotations

from dataclasses import replace
from math import cos, pi, sin

import numpy as np

from .cocycle import WindowCocycle
from .sft import enumerate_words, full_shift, golden_mean_shift


def rotation2(theta: float) -> np.ndarray:
    return np.array([[cos(theta), -sin(theta)], [sin(theta), cos(theta)]])


def rotation3(axis_pair: tuple[int, int], theta: float) -> np.ndarray:
    m = np.eye(3)
    i, j = axis_pair
    m[i, i] = cos(theta)
    m[j, j] = cos(theta)
    m[i, j] = -sin(theta)
    m[j, i] = sin(theta)
    return m


def typical_2x2() -> WindowCocycle:
    """Full 2-shift, radius 0: diag(2, 1/2) on symbol 0, rotation pi/4 on 1.

    Passes the typicality scan with p = 0^inf and excursion "1".
    """
    base = full_shift(2)
    table = {
        (0,): np.diag([2.0, 0.5]),
        (1,): rotation2(pi / 4),
    }
    return WindowCocycle(base, 2, 0, table)


def typical_3x3() -> WindowCocycle:
    """Full 2-shift, radius 0, 3x3: pinched diagonal and a generic rotation."""
    base = full_shift(2)
    rot = rotation3((0, 1), 0.7) @ rotation3((1, 2), 0.9) @ rotation3((0, 2), 1.1)
    table = {
        (0,): np.diag([4.0, 2.0, 1.0]),
        (1,): rot,
    }
    return WindowCocycle(base, 3, 0, table)


def golden_typical_2x2() -> WindowCocycle:
    """Golden-mean shift variant of the 2x2 demo (forbidden word 11)."""
    return replace(typical_2x2(), base=golden_mean_shift())


def golden_typical_3x3() -> WindowCocycle:
    """Golden-mean shift, 3x3 (performance workloads)."""
    return replace(typical_3x3(), base=golden_mean_shift())


def radius1_2x2() -> WindowCocycle:
    """Full 2-shift, radius 1: window-dependent mix of shear, scale, rotation.

    Nontrivial holonomies at every leaf pair; used by the holonomy and
    identity tests.
    """
    base = full_shift(2)
    table = {}
    for w in enumerate_words(base, 3):
        code = w[0] + 2 * w[1] + 4 * w[2]
        scale = 1.25 + 0.25 * w[1]
        theta = 0.15 * code
        shear = np.array([[1.0, 0.1 * (code - 3.5)], [0.0, 1.0]])
        table[w] = rotation2(theta) @ np.diag([scale, 1.0 / scale]) @ shear
    return WindowCocycle(base, 2, 1, table)


def rotation_only_2x2() -> WindowCocycle:
    """Full 2-shift, radius 0, everything a rotation: fails pinching."""
    base = full_shift(2)
    table = {
        (0,): rotation2(0.6),
        (1,): rotation2(1.1),
    }
    return WindowCocycle(base, 2, 0, table)


def planted_rotation_2x2() -> WindowCocycle:
    """Full 2-shift with the fixed orbit of 0 carrying a pure rotation.

    The periodic orbit of 0 has equal exponents, so the periodic gap at
    index 1 vanishes: a counterexample input for domination checks.
    """
    base = full_shift(2)
    table = {
        (0,): rotation2(0.9),
        (1,): np.diag([2.0, 0.5]),
    }
    return WindowCocycle(base, 2, 0, table)


def dominated_2x2() -> WindowCocycle:
    """Full 2-shift with strictly positive matrices: typical and genuinely
    dominated (positive products contract the positive cone, so every
    periodic orbit keeps a uniform exponent gap)."""
    base = full_shift(2)
    table = {
        (0,): np.array([[2.0, 1.0], [1.0, 1.0]]),
        (1,): np.array([[1.0, 1.0], [1.0, 2.0]]),
    }
    return WindowCocycle(base, 2, 0, table)


def constant_diag_4_1() -> WindowCocycle:
    """Constant diag(4, 1) on the full 2-shift: trivially dominated."""
    base = full_shift(2)
    g = np.diag([4.0, 1.0])
    return WindowCocycle(base, 2, 0, {(0,): g, (1,): g})


def scalar_2_3() -> WindowCocycle:
    """d = 1 on the full 2-shift: a(0) = 2, a(1) = 3."""
    base = full_shift(2)
    return WindowCocycle(base, 1, 0, {(0,): [[2.0]], (1,): [[3.0]]})


def golden_scalar_2_3() -> WindowCocycle:
    """d = 1 on the golden-mean shift: a(0) = 2, a(1) = 3 (pressure has a
    weighted transfer-matrix closed form)."""
    return replace(scalar_2_3(), base=golden_mean_shift())


DEMOS = {
    "typical2x2": typical_2x2,
    "typical3x3": typical_3x3,
    "golden2x2": golden_typical_2x2,
    "golden3x3": golden_typical_3x3,
    "radius1": radius1_2x2,
    "rotation": rotation_only_2x2,
    "dominated2x2": dominated_2x2,
    "planted_rotation": planted_rotation_2x2,
    "constant_diag41": constant_diag_4_1,
    "scalar23": scalar_2_3,
    "goldenscalar23": golden_scalar_2_3,
}


def get_demo(name: str) -> WindowCocycle:
    try:
        return DEMOS[name]()
    except KeyError:
        raise KeyError(f"unknown demo {name!r}; choose from {sorted(DEMOS)}") from None
