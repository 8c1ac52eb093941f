"""Properties of the level sweep behind pressure and gap profiles.

The sweep shares each word's prefix products with its extensions, but
every word's arithmetic is the same as a from-scratch ladder, so its rows
must equal ``batch_log_singular`` on the enumerated words byte for byte,
whatever the radius, the base, the requested lengths or the worker count.
"""

import multiprocessing.pool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprox import analysis, demos, sft, thermo
from coprox.cocycle import WindowCocycle, batch_log_singular, sweep_log_singular


def _tri_radius1():
    """Radius 1 over a 3-symbol base where bridging 2 back to the fixed
    symbol 0 needs an intermediate symbol, so the pads are nontrivial."""
    base = sft.Sft.from_matrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    rng = np.random.default_rng(11)
    table = {w: rng.normal(size=(3, 3)) + 3 * np.eye(3)
             for w in sft.enumerate_words(base, 3)}
    return WindowCocycle(base, 3, 1, table)


@pytest.fixture(scope="module")
def cocycles(typical3, radius1, radius2):
    return {
        "full r0": typical3,
        "golden r0": demos.golden_typical_3x3(),
        "full r1": radius1,
        "full r2": radius2,
        "tri r1": _tri_radius1(),
    }


NAMES = ("full r0", "golden r0", "full r1", "full r2", "tri r1")
LENGTHS = st.sets(st.integers(1, 9), min_size=1, max_size=4)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(NAMES), n_set=LENGTHS)
def test_sweep_rows_equal_batch_on_enumerated_words(cocycles, name, n_set):
    A = cocycles[name]
    rows = sweep_log_singular(A, sorted(n_set), 0)
    assert sorted(rows) == sorted(n_set)
    for n in n_set:
        ref = batch_log_singular(A, sft.enumerate_words(A.base, n), 0)
        assert np.array_equal(rows[n], ref)


@settings(max_examples=8, deadline=None)
@given(name=st.sampled_from(NAMES), n_set=LENGTHS)
def test_sweep_independent_of_worker_count(cocycles, name, n_set):
    A = cocycles[name]
    one = sweep_log_singular(A, n_set, 0, workers=1)
    two = sweep_log_singular(A, n_set, 0, workers=2)
    assert sorted(one) == sorted(two)
    assert all(np.array_equal(one[n], two[n]) for n in one)


@pytest.fixture
def pool_starts(monkeypatch):
    starts = []
    init = multiprocessing.pool.Pool.__init__

    def counted(self, *args, **kwargs):
        starts.append(1)
        return init(self, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", counted)
    return starts


def test_pressure_starts_one_pool(pool_starts):
    A = demos.golden_typical_3x3()
    est = thermo.pressure(A, 1.5, range(2, 13), workers=2)
    assert len(pool_starts) == 1
    assert est.p_n == thermo.pressure(A, 1.5, range(2, 13)).p_n


def test_gap_profile_starts_at_most_one_pool(pool_starts):
    A = demos.dominated_2x2()
    prof = analysis.gap_profile(A, 1, range(2, 12), workers=2)
    assert len(pool_starts) == 1
    assert prof.minima == analysis.gap_profile(A, 1, range(2, 12)).minima
    # exhaustive and sampled lengths in one call share the one pool
    pool_starts.clear()
    mixed = analysis.gap_profile(A, 1, [3, 10, 11], exhaustive_budget=600,
                                 sample_count=64, seed=5, workers=2)
    assert len(pool_starts) <= 1
    assert mixed.mode == "sampled(64,5)"
    assert mixed.minima == analysis.gap_profile(
        A, 1, [3, 10, 11], exhaustive_budget=600, sample_count=64, seed=5).minima
