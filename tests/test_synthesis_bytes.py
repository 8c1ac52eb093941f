"""Synthesis bytes pinned: the sha256 of ``build_proximal_periodic(...)``'s
report (its ``to_dict`` as sorted JSON, floats at full repr) for seeded
words on each benchmark demo and on the d = 6 fixture.

README's determinism contract says identical inputs give identical
outputs; a change that claims to keep every output byte (a faster norm, a
stacked LAPACK call, a leaner leaf test) must keep these digests.  The
bytes of LAPACK and BLAS kernels depend on the numpy build and on the
CPU features that pick the kernels, so the digests hold where those match
the ones they were recorded on (``PINNED_ON``); elsewhere the test still
runs every synthesis twice on one cocycle and compares the two reports'
digests.
"""

import hashlib
import json
import platform

import numpy as np
import pytest

from coprox import demos, synthesis, typicality

PINNED_ON = ("2.4.6", "x86_64", ("AVX2", "FMA3", "AVX512F", "AVX512_SKX", "AVX512_ICL",
                                  "AVX512_SPR"))
"""numpy version, machine and kernel-picking CPU features (:func:`_platform`)
the digests were recorded on."""


def _platform() -> tuple:
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy 1.x keeps it under numpy.core
        features = {}
    return (np.__version__, platform.machine(),
            tuple(k for k in PINNED_ON[2] if features.get(k)))

TAU = 0.05

DIGESTS = {
    ("typical_2x2", 16): "e0647026b0ac4f6debe17604499b476aade3137432a99c6b25f4e8884ed59bb3",
    ("typical_2x2", 320): "4ea5ee026130bd3795fb777828d6f5d0aca68a750ef3fd3175a62525c4812bf2",
    ("typical_3x3", 16): "4a3727c05cfa8e6b9e979bcb77d23e6e1d2a85daf3620f1d774aef75fdd0c7a2",
    ("typical_3x3", 320): "a207c99652b1463aaa6dbe33cdd3e9c4a5ee767332b893b0d347375b16822e57",
    # the padded loop certifies at the first loop length, where the loop
    # it pads does not: n_q 64 at ell 12, retries 0 (the rule that
    # certified the unpadded loop first doubled ell: n_q 80 at ell 28)
    ("radius1_2x2", 16): "09091e258cb51b68bff4c9ba4f9683c9aa3bc7c1b8fb229671bc0cadae85a1d0",
    ("radius1_2x2", 320): "0149c06d6822c9561f53675ac5c6f861365708cdc5a270824576d911c1a40812",
    ("dominated_2x2", 16): "4a6d6389639e9ca63e98b8c05c7f4f163a169fab608deb4cbe4ad1a5cbebd326",
    ("dominated_2x2", 320): "fb3f8b5380ec79bcdbc1d6533ed76f725f3e788dbcdcca82ea86d5ff00d1de0c",
    ("dim6", 40): "acbcfa76b5f2d0580ea574f0f3566f802eb6ffa4be63672d88de70ce9268f9ef",
}


def _seeded_word(A, length: int, seed: int) -> tuple:
    """Admissible word: first symbol uniform, each next uniform over the
    allowed successors."""
    T = np.array(A.base.adjacency)
    succ = [np.flatnonzero(row) for row in T]
    rng = np.random.default_rng(seed)
    word = [int(rng.integers(len(T)))]
    for u in rng.random(length - 1):
        options = succ[word[-1]]
        word.append(int(options[int(u * len(options))]))
    return tuple(word)


def _digest(A, cert, word) -> str:
    report = synthesis.build_proximal_periodic(A, cert, word, TAU)
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name, length", list(DIGESTS))
def test_synthesis_bytes_are_pinned(name, length, request):
    A = request.getfixturevalue("dim6") if name == "dim6" else getattr(demos, name)()
    cert = typicality.find_typical_pair(A)[2]
    word = _seeded_word(A, length, length)
    cold = _digest(A, cert, word)
    assert _digest(A, cert, word) == cold
    if _platform() == PINNED_ON:
        assert cold == DIGESTS[name, length]
