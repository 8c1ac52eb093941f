"""Certified proximality and shadowing periodic orbits for matrix cocycles
over mixing subshifts of finite type.

The central objects are finite-window cocycles (``cocycle.WindowCocycle``)
whose canonical holonomies are exact finite products.  The package can
certify pinching/twisting of a cocycle at a fixed point and a homoclinic
point (``typicality``), synthesize periodic orbits that shadow a given
word while every exterior power of the closing product is certifiably
proximal (``synthesis``), and run desk-scale experiments on periodic
spectra, exponent gaps and equilibrium-state equality (``analysis``,
``thermo``).
"""

from . import analysis, cocycle, demos, matnum, proximal, sft, synthesis, thermo, typicality
from .cocycle import WindowCocycle, load_cocycle, save_cocycle
from .sft import Sft, full_shift, golden_mean_shift
from .synthesis import build_proximal_periodic, verify_theorem_a
from .typicality import find_typical_pair, typicality_check

__all__ = [
    "analysis",
    "cocycle",
    "demos",
    "matnum",
    "proximal",
    "sft",
    "synthesis",
    "thermo",
    "typicality",
    "WindowCocycle",
    "load_cocycle",
    "save_cocycle",
    "Sft",
    "full_shift",
    "golden_mean_shift",
    "build_proximal_periodic",
    "verify_theorem_a",
    "find_typical_pair",
    "typicality_check",
]

__version__ = "0.1.0"
