import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teesim.errors import NoAdjacentSpace, OutOfMemory
from teesim.hw_model import default_config, small_config
from teesim.ros import CmaPool, default_layout
from teesim.units import BLOCK_2M, covers, merge, subtract

G = BLOCK_2M


def granules(intervals):
    """The 2MB granules the intervals hold, by index."""
    return {g for s, e in intervals for g in range(s // G, e // G)}


def runs(blocks):
    """The maximal intervals over a set of granule indices, in order."""
    out = []
    for g in sorted(blocks):
        if out and out[-1][1] == g * G:
            out[-1] = (out[-1][0], (g + 1) * G)
        else:
            out.append((g * G, (g + 1) * G))
    return out


# Non-empty granule-aligned ranges inside 24 granules, so that random lists
# often touch, overlap or nest.
_RANGE = st.tuples(st.integers(0, 23), st.integers(1, 8)).map(
    lambda p: (p[0] * G, min(p[0] + p[1], 24) * G))
_LIST = st.lists(_RANGE, max_size=6)


@given(ivs=_LIST, rng=_RANGE)
@example(ivs=[(0, 2 * G), (2 * G, 4 * G)], rng=(G, 3 * G))          # touching
@example(ivs=[(0, 3 * G), (2 * G, 5 * G)], rng=(4 * G, 6 * G))      # overlapping
@example(ivs=[(0, 8 * G), (2 * G, 3 * G)], rng=(2 * G, 3 * G))      # nested
@example(ivs=[(2 * G, 3 * G), (3 * G, 4 * G)], rng=(G, 5 * G))      # nothing left
@example(ivs=[], rng=(0, G))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_interval_helpers_match_granule_sets(ivs, rng):
    assert merge(ivs) == runs(granules(ivs))
    assert subtract(ivs, rng) == [
        piece for iv in ivs for piece in runs(granules([iv]) - granules([rng]))]
    assert covers(ivs, rng) == (granules([rng]) <= granules(ivs))


_STEPS = st.lists(st.tuples(st.booleans(), st.integers(1, 64), st.integers(0, 2)),
                  max_size=12)


@given(steps=_STEPS)
@settings(derandomize=True, max_examples=100, deadline=None)
@pytest.mark.parametrize("config", [default_config(), small_config()],
                         ids=["default", "small"])
def test_cma_free_gaps_are_extents_minus_allocations(config, steps):
    """A step (adjacent, n, owner) takes n granules for owner, next to the
    last record if adjacent; a step that is not adjacent frees instead the
    top n granules of owner's last record, if owner holds one."""
    pool = CmaPool(default_layout(config).cma_extents)
    for adjacent, n, owner in steps:
        mine = [(s, e) for s, e, o in pool.allocations if o == owner]
        if not adjacent and mine:
            s, e = mine[-1]
            pool.free_range((max(s, e - n * G), e), owner)
            continue
        last = pool.allocations[-1][:2] if adjacent and pool.allocations else None
        try:
            pool.take(pool.find(n * G, last), owner)
        except (NoAdjacentSpace, OutOfMemory):
            pass
    assert pool._free_gaps() == runs(
        granules(pool.extents) - granules(a[:2] for a in pool.allocations))
