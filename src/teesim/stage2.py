"""Per-context stage-2 page table sets.

A table set is the sole access-control mechanism for memory and MMIO: a
context can touch a physical address iff its set holds a valid entry
covering it. All mappings are identity mappings (intermediate physical
address equals physical address), so entries are stored as disjoint
attribute-tagged runs rather than per-block dictionaries; a run of N blocks
is semantically N individual entries and block counts are always reported
at entry granularity. Runs stay sorted, disjoint and coalesced per
attribute; `cut` unmaps whatever part of a range is mapped.

Granularity is tied to the attribute: normal memory and shared channels map
as 2MB blocks, device (MMIO) space maps as 4KB pages.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable, List, Optional, Tuple

from .errors import AlignmentError, DoubleMapError, NotMappedError
from .state import KEYED, Schema, keyed
from .units import BLOCK_2M, PAGE_4K, TABLE_SPAN_2M, TABLE_SPAN_4K, covers, subtract


class Attr(str, Enum):
    NORMAL = "normal"
    DEVICE = "device"
    SHARED = "shared"


def granularity_of(attr: Attr) -> int:
    return PAGE_4K if attr is Attr.DEVICE else BLOCK_2M


@dataclass(frozen=True)
class TranslationResult:
    hit: bool
    pa: Optional[int] = None
    attr: Optional[Attr] = None


# Modeled storage for the non-leaf levels of one table set. The acceptance
# bound is the <=2MB per-context / <=16MB total envelope, not a faithful
# descriptor layout.
UPPER_LEVEL_BYTES = 16 * 1024
TABLE_BYTES = 4 * 1024


class Stage2TableSet:
    """Identity-mapped stage-2 tables for one execution context."""

    _END = itemgetter(1)  # a run's end, the key of a window's first bisect

    def __init__(self, context_id: int):
        self.context_id = context_id
        # Sorted, disjoint (start, end, attr) runs; touching runs differ in attr.
        self._runs: List[Tuple[int, int, Attr]] = []

    # -- queries ---------------------------------------------------------

    def runs(self) -> Iterable[Tuple[int, int, Attr]]:
        return iter(self._runs)

    def _window(self, rng: Tuple[int, int]) -> Tuple[int, int]:
        """The index range [i, j) of the runs that overlap rng."""
        start, end = rng
        if start >= end:
            raise AlignmentError(f"empty range [{start:#x}, {end:#x})")
        i = bisect_right(self._runs, start, key=self._END)
        return i, bisect_left(self._runs, (end,), lo=i)

    def translate(self, ipa: int) -> TranslationResult:
        i, j = self._window((ipa, ipa + 1))
        if i == j:
            return TranslationResult(False)
        return TranslationResult(True, ipa, self._runs[i][2])

    def overlaps(self, rng: Tuple[int, int]) -> bool:
        i, j = self._window(rng)
        return i < j

    # -- mutation --------------------------------------------------------

    def map_range(self, rng: Tuple[int, int], attr: Attr) -> int:
        start, end = rng
        gran = granularity_of(attr)
        if start % gran or end % gran or start >= end:
            raise AlignmentError(
                f"range [{start:#x}, {end:#x}) not aligned to {gran:#x}"
            )
        i, j = self._window(rng)
        if i < j:
            raise DoubleMapError(
                f"ctx {self.context_id}: [{start:#x}, {end:#x}) already covered"
            )
        runs = self._runs
        # Join a neighbour that touches rng with the same attribute.
        if i and runs[i - 1][1] == start and runs[i - 1][2] is attr:
            i -= 1
            start = runs[i][0]
        if j < len(runs) and runs[j][0] == end and runs[j][2] is attr:
            end = runs[j][1]
            j += 1
        runs[i:j] = [(start, end, attr)]
        return (rng[1] - rng[0]) // gran

    def unmap_range(self, rng: Tuple[int, int]) -> int:
        """Strict unmap: every byte of rng must be mapped."""
        i, j = self._window(rng)
        if not covers([run[:2] for run in self._runs[i:j]], rng):
            raise NotMappedError(
                f"ctx {self.context_id}: [{rng[0]:#x}, {rng[1]:#x}) not fully mapped"
            )
        return self._cut(i, j, rng)

    def cut(self, rng: Tuple[int, int]) -> int:
        """Unmap whatever part of rng is mapped."""
        return self._cut(*self._window(rng), rng)

    def _cut(self, i: int, j: int, rng: Tuple[int, int]) -> int:
        """Cut rng out of runs i..j, or refuse before any change; entries removed."""
        window = self._runs[i:j]
        removed = 0
        for s, e, attr in window:
            gran = granularity_of(attr)
            lo, hi = max(s, rng[0]), min(e, rng[1])
            if lo % gran or hi % gran:
                raise AlignmentError(
                    f"cut [{lo:#x}, {hi:#x}) not aligned to entry size {gran:#x}"
                )
            removed += (hi - lo) // gran
        self._runs[i:j] = [(s, e, attr) for s0, e0, attr in window
                           for s, e in subtract([(s0, e0)], rng)]
        return removed

    # -- modeled storage ------------------------------------------------

    def footprint_bytes(self) -> int:
        """Modeled table storage: 4KB per populated last-level table plus a
        fixed upper-level overhead."""
        slots_2m = set()
        slots_4k = set()
        for start, end, attr in self._runs:
            if attr is Attr.DEVICE:
                span, acc = TABLE_SPAN_4K, slots_4k
            else:
                span, acc = TABLE_SPAN_2M, slots_2m
            for base in range(start - start % span, end, span):
                acc.add(base)
        return UPPER_LEVEL_BYTES + TABLE_BYTES * (len(slots_2m) + len(slots_4k))

    # -- plumbing --------------------------------------------------------

    STATE = Schema(
        context_id=KEYED,
        _runs=keyed(tuple, copy=list),
    )
    clone = STATE.clone
    canonical = STATE.canonical
    __eq__ = STATE.same  # so Machine.table_sets compares by value

    def __repr__(self) -> str:
        return f"Stage2TableSet(ctx={self.context_id}, runs={len(self._runs)})"
