"""Per-context stage-2 page table sets.

A table set is the sole access-control mechanism for memory and MMIO: a
context can touch a physical address iff its set holds a valid entry
covering it. All mappings are identity mappings (intermediate physical
address equals physical address), so entries are stored as disjoint
attribute-tagged runs rather than per-block dictionaries; a run of N blocks
is semantically N individual entries and block counts are always reported
at entry granularity.

Granularity is tied to the attribute: normal memory and shared channels map
as 2MB blocks, device (MMIO) space maps as 4KB pages.
"""

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Optional, Tuple

from .errors import AlignmentError, DoubleMapError, NotMappedError
from .state import KEYED, Schema, keyed
from .units import BLOCK_2M, PAGE_4K, TABLE_SPAN_2M, TABLE_SPAN_4K


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

    def __init__(self, context_id: int):
        self.context_id = context_id
        # Disjoint, sorted (start, end, attr) runs. Adjacent same-attr runs
        # are coalesced so a fully mapped context stays a handful of runs.
        self._runs: List[Tuple[int, int, Attr]] = []

    # -- queries ---------------------------------------------------------

    def runs(self) -> Iterable[Tuple[int, int, Attr]]:
        return iter(self._runs)

    def _find(self, pa: int) -> Optional[Tuple[int, int, Attr]]:
        i = bisect_right(self._runs, (pa, float("inf"))) - 1
        if i >= 0:
            run = self._runs[i]
            if run[0] <= pa < run[1]:
                return run
        return None

    def translate(self, ipa: int) -> TranslationResult:
        run = self._find(ipa)
        if run is None:
            return TranslationResult(False)
        return TranslationResult(True, ipa, run[2])

    def overlaps(self, rng: Tuple[int, int]) -> bool:
        start, end = rng
        i = bisect_right(self._runs, (start, float("inf"))) - 1
        if i >= 0 and self._runs[i][1] > start:
            return True
        return i + 1 < len(self._runs) and self._runs[i + 1][0] < end

    # -- mutation --------------------------------------------------------

    def map_range(self, rng: Tuple[int, int], attr: Attr) -> int:
        start, end = rng
        gran = granularity_of(attr)
        if start % gran or end % gran or start >= end:
            raise AlignmentError(
                f"range [{start:#x}, {end:#x}) not aligned to {gran:#x}"
            )
        if self.overlaps(rng):
            raise DoubleMapError(
                f"ctx {self.context_id}: [{start:#x}, {end:#x}) already covered"
            )
        i = bisect_right(self._runs, (start, float("inf")))
        self._runs.insert(i, (start, end, attr))
        self._coalesce(max(0, i - 1))
        return (end - start) // gran

    def unmap_range(self, rng: Tuple[int, int]) -> int:
        start, end = rng
        if start >= end:
            raise AlignmentError(f"empty range [{start:#x}, {end:#x})")
        # Strict mode: the whole range must be currently valid.
        covered = start
        touched = []
        for run in self._runs:
            if run[1] <= start or run[0] >= end:
                continue
            if run[0] > covered:
                break
            touched.append(run)
            covered = run[1]
            if covered >= end:
                break
        if covered < end or not touched or touched[0][0] > start:
            raise NotMappedError(
                f"ctx {self.context_id}: [{start:#x}, {end:#x}) not fully mapped"
            )
        removed = 0
        replacement = []
        for run in touched:
            gran = granularity_of(run[2])
            lo = max(run[0], start)
            hi = min(run[1], end)
            if lo % gran or hi % gran:
                raise AlignmentError(
                    f"cut [{lo:#x}, {hi:#x}) not aligned to entry size {gran:#x}"
                )
            removed += (hi - lo) // gran
            if run[0] < lo:
                replacement.append((run[0], lo, run[2]))
            if hi < run[1]:
                replacement.append((hi, run[1], run[2]))
        i = self._runs.index(touched[0])
        self._runs[i : i + len(touched)] = replacement
        return removed

    def _coalesce(self, start_idx: int) -> None:
        i = start_idx
        while i + 1 < len(self._runs):
            a = self._runs[i]
            b = self._runs[i + 1]
            if a[1] == b[0] and a[2] is b[2]:
                self._runs[i : i + 2] = [(a[0], b[1], a[2])]
            elif a[1] > b[0]:
                raise AssertionError("stage-2 runs overlap")  # internal bug
            else:
                i += 1
            if i > start_idx + 2:
                break

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
