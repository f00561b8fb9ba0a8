import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teesim import stage2
from teesim.errors import AlignmentError, DoubleMapError, NotMappedError
from teesim.stage2 import Attr, Stage2TableSet
from teesim.units import BLOCK_2M, GB, KB, MB


def test_map_128mb_is_64_block_entries():
    ts = Stage2TableSet(1)
    # 128MB / 2MB per block
    assert ts.map_range((256 * MB, 384 * MB), Attr.NORMAL) == 64
    assert list(ts.runs()) == [(256 * MB, 384 * MB, Attr.NORMAL)]


def test_map_rejects_subblock_alignment():
    ts = Stage2TableSet(1)
    with pytest.raises(AlignmentError):
        ts.map_range((256 * MB, 256 * MB + 4 * KB), Attr.NORMAL)


def test_device_attr_uses_4k_pages():
    ts = Stage2TableSet(1)
    assert ts.map_range((3584 * MB, 3584 * MB + 64 * KB), Attr.DEVICE) == 16


def test_double_map_rejected():
    ts = Stage2TableSet(1)
    ts.map_range((0, 4 * MB), Attr.NORMAL)
    with pytest.raises(DoubleMapError):
        ts.map_range((2 * MB, 6 * MB), Attr.NORMAL)


def test_unmap_inverse_of_map():
    ts = Stage2TableSet(1)
    ts.map_range((256 * MB, 384 * MB), Attr.NORMAL)
    assert ts.unmap_range((256 * MB, 384 * MB)) == 64
    assert list(ts.runs()) == []


def test_unmap_unmapped_is_strict():
    ts = Stage2TableSet(1)
    with pytest.raises(NotMappedError):
        ts.unmap_range((0, 2 * MB))


def test_unmap_peripheral_page_then_translate_faults():
    ts = Stage2TableSet(0)
    ts.map_range((3584 * MB, 3585 * MB), Attr.DEVICE)
    assert ts.unmap_range((3584 * MB, 3584 * MB + 4 * KB)) == 1
    assert not ts.translate(3584 * MB).hit
    assert ts.translate(3584 * MB + 4 * KB).hit


def test_partial_unmap_splits_runs():
    ts = Stage2TableSet(1)
    ts.map_range((0, 8 * MB), Attr.NORMAL)
    assert ts.unmap_range((2 * MB, 4 * MB)) == 1
    assert ts.translate(0).hit
    assert not ts.translate(2 * MB).hit
    assert ts.translate(4 * MB).hit


def test_translate_identity():
    ts = Stage2TableSet(1)
    ts.map_range((256 * MB, 258 * MB), Attr.NORMAL)
    res = ts.translate(0x1000_0000)
    assert res.hit and res.pa == 0x1000_0000


def test_footprint_maximal_under_2mb():
    ts = Stage2TableSet(0)
    ts.map_range((0, 4 * GB), Attr.NORMAL)
    ts2 = Stage2TableSet(1)
    ts2.map_range((0, 3584 * MB), Attr.NORMAL)
    ts2.map_range((3584 * MB, 4 * GB), Attr.DEVICE)
    assert ts.footprint_bytes() <= 2 * MB
    assert ts2.footprint_bytes() <= 2 * MB


def test_footprint_empty_is_overhead_only():
    assert Stage2TableSet(1).footprint_bytes() == stage2.UPPER_LEVEL_BYTES


def test_footprint_eight_maximal_contexts_under_16mb():
    total = 0
    for ctx in range(8):
        ts = Stage2TableSet(ctx)
        ts.map_range((0, 3584 * MB), Attr.NORMAL)
        ts.map_range((3584 * MB, 4 * GB), Attr.DEVICE)
        total += ts.footprint_bytes()
    assert total <= 16 * MB


@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                max_size=24, unique=True))
@settings(max_examples=60, deadline=None)
def test_identity_property(blocks):
    ts = Stage2TableSet(1)
    for b in blocks:
        ts.map_range((b * BLOCK_2M, (b + 1) * BLOCK_2M), Attr.NORMAL)
    for b in blocks:
        for offset in (0, 1234, BLOCK_2M - 1):
            ipa = b * BLOCK_2M + offset
            res = ts.translate(ipa)
            assert res.hit and res.pa == ipa


def test_translate_table_agreement_randomized():
    """With empty TLBs, translate hits exactly where a valid entry covers;
    checked against a brute-force block-ownership set."""
    rng = random.Random(42)
    for _ in range(40):
        ts = Stage2TableSet(1)
        owned = set()
        for _ in range(30):
            b = rng.randrange(64)
            if b in owned:
                end = b
                while end in owned:
                    end += 1
                ts.unmap_range((b * BLOCK_2M, end * BLOCK_2M))
                owned -= set(range(b, end))
            else:
                end = b
                while end < 64 and end not in owned:
                    end += 1
                span = rng.randint(1, end - b)
                ts.map_range((b * BLOCK_2M, (b + span) * BLOCK_2M), Attr.NORMAL)
                owned |= set(range(b, b + span))
        for b in range(64):
            mid = b * BLOCK_2M + rng.randrange(BLOCK_2M)
            assert ts.translate(mid).hit == (b in owned)
            assert ts.translate(b * BLOCK_2M).hit == (b in owned)


def test_granularity_tied_to_attr():
    ts = Stage2TableSet(1)
    ts.map_range((0, 2 * MB), Attr.NORMAL)
    ts.map_range((3584 * MB, 3584 * MB + 8 * KB), Attr.DEVICE)
    for start, end, attr in ts.runs():
        gran = stage2.granularity_of(attr)
        assert start % gran == 0 and end % gran == 0
    with pytest.raises(AlignmentError):
        ts.map_range((4 * MB + 4 * KB, 6 * MB), Attr.NORMAL)
