import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teesim import stage2
from teesim.errors import AlignmentError, DoubleMapError, NotMappedError
from teesim.stage2 import Attr, Stage2TableSet
from teesim.units import BLOCK_2M, GB, KB, MB, PAGE_4K


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


P = PAGE_4K
# Ranges over four 2MB blocks, mostly on block bounds and a few entries
# long, so that runs often touch and cuts often split an entry.
_RANGE = st.builds(lambda start, n, unit: (start, start + n * unit),
                   st.builds(lambda b, p: b * BLOCK_2M + p * P, st.integers(0, 3),
                             st.sampled_from([0, 0, 0, 0, 1, 511])),
                   st.sampled_from([1, 1, 2, 3, 0]),
                   st.sampled_from([BLOCK_2M, BLOCK_2M, P]))
# Maps come twice as often as any other call, so the tables fill.
_OPS = ("map_range", "map_range", "unmap_range", "cut", "translate", "overlaps")
_STEP = st.tuples(st.sampled_from(_OPS), _RANGE, st.sampled_from(list(Attr)),
                  st.integers(0, P - 1))


def _model(pages, op, rng, attr, offset):
    """What op gives on a dict from each mapped 4KB page to its attribute:
    its result, or the type of exception it raises. Only a call that
    succeeds changes the dict."""
    start, end = rng
    if op == "translate":
        ipa = start + offset
        if ipa // P not in pages:
            return stage2.TranslationResult(False)
        return stage2.TranslationResult(True, ipa, pages[ipa // P])
    if start >= end:
        return AlignmentError
    span = range(start // P, end // P)
    if op == "overlaps":
        return any(p in pages for p in span)
    if op == "map_range":
        gran = stage2.granularity_of(attr)
        if start % gran or end % gran:
            return AlignmentError
        if any(p in pages for p in span):
            return DoubleMapError
        pages.update(dict.fromkeys(span, attr))
        return (end - start) // gran
    if op == "unmap_range" and not all(p in pages for p in span):
        return NotMappedError
    hit = [p for p in span if p in pages]
    blocks = {p * P // BLOCK_2M for p in hit if pages[p] is not Attr.DEVICE}
    if any(b * BLOCK_2M < start or (b + 1) * BLOCK_2M > end for b in blocks):
        return AlignmentError  # the cut goes through a 2MB entry
    removed = len(blocks) + sum(pages[p] is Attr.DEVICE for p in hit)
    for p in hit:
        del pages[p]
    return removed


@given(steps=st.lists(_STEP, min_size=4, max_size=30))
@example(steps=[("map_range", (0, 2 * MB), Attr.NORMAL, 0),      # join on the left
                ("map_range", (2 * MB, 4 * MB), Attr.NORMAL, 0)])
@example(steps=[("map_range", (2 * MB, 4 * MB), Attr.SHARED, 0),  # join on the right
                ("map_range", (0, 2 * MB), Attr.SHARED, 0)])
@example(steps=[("map_range", (0, 4 * MB), Attr.NORMAL, 0),       # cut through an entry
                ("cut", (0, P), Attr.NORMAL, 0),
                ("unmap_range", (2 * MB - P, 4 * MB), Attr.NORMAL, 0)])
@settings(derandomize=True, max_examples=300, deadline=None)
def test_translate_table_agreement_randomized(steps):
    """Every call agrees with a brute-force page model: the same result or
    exception type, a refused call changes nothing, and the runs stay
    sorted, disjoint, aligned and coalesced per attribute."""
    ts = Stage2TableSet(1)
    pages = {}
    for op, rng, attr, offset in steps:
        before = list(ts.runs())
        want = _model(pages, op, rng, attr, offset)
        args = {"map_range": (rng, attr), "translate": (rng[0] + offset,)}
        try:
            got = getattr(ts, op)(*args.get(op, (rng,)))
        except (AlignmentError, DoubleMapError, NotMappedError) as exc:
            assert type(exc) is want, (op, rng, attr)
            assert list(ts.runs()) == before
        else:
            assert got == want, (op, rng, attr)
        runs = list(ts.runs())
        for s, e, a in runs:
            gran = stage2.granularity_of(a)
            assert s < e and s % gran == 0 and e % gran == 0
        for (_, e1, a1), (s2, _, a2) in zip(runs, runs[1:]):
            assert e1 < s2 or (e1 == s2 and a1 is not a2)
        assert {p: a for s, e, a in runs for p in range(s // P, e // P)} == pages


def test_granularity_tied_to_attr():
    ts = Stage2TableSet(1)
    ts.map_range((0, 2 * MB), Attr.NORMAL)
    ts.map_range((3584 * MB, 3584 * MB + 8 * KB), Attr.DEVICE)
    for start, end, attr in ts.runs():
        gran = stage2.granularity_of(attr)
        assert start % gran == 0 and end % gran == 0
    with pytest.raises(AlignmentError):
        ts.map_range((4 * MB + 4 * KB, 6 * MB), Attr.NORMAL)
