"""Deterministic discrete-event engine and the measured cost table.

Time is integer nanoseconds internally and reported in microseconds, so the
measured costs (down to the 23.89us IPI) stay exact. Dispatch order is total
over (time, sequence number); identical inputs always produce a
byte-identical trace.
"""

import heapq
import json
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .units import KB, MB, MS_NS, US_NS, ns_to_us_str

TRACE_SCHEMA = "teesim-trace/1"

# One encoder for every trace line: json.dumps with options builds a new one
# per call.
_TRACE_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _ms(v: float) -> int:
    return int(round(v * MS_NS))


def _us(v: float) -> int:
    return int(round(v * US_NS))


@dataclass(frozen=True)
class CostTable:
    """Cost parameters, all integer nanoseconds.

    Defaults are the profiled values of the modeled platform: boot/shutdown,
    IPI latencies per direction, shared-memory copy anchors, core and memory
    adjustment costs (with and without the busy-wait optimization), and
    peripheral map/unmap costs per device and side.
    """

    boot_ns: int = _ms(532)
    shutdown_ns: int = _ms(629)
    ipi_ros_to_sb_ns: int = _us(23.89)
    ipi_sb_to_ros_ns: int = _us(53.12)
    # (bytes, ns) anchors; costs between anchors interpolate linearly.
    copy_anchors: Tuple[Tuple[int, int], ...] = (
        (64 * KB, _ms(16.58)),
        (256 * KB, _ms(17.69)),
        (1024 * KB, _ms(22.46)),
        (4 * MB, _ms(39.46)),
        (16 * MB, _ms(110.65)),
        (64 * MB, _ms(323.42)),
    )
    # (core_class, direction, optimized) -> ns
    core_adjust_ns: Tuple[Tuple[Tuple[str, str, bool], int], ...] = (
        (("little", "inc", False), _ms(137)),
        (("little", "inc", True), _ms(55)),
        (("big", "inc", False), _ms(199)),
        (("big", "inc", True), _ms(79)),
        (("little", "dec", False), _ms(72)),
        (("little", "dec", True), _ms(42)),
        (("big", "dec", False), _ms(92)),
        (("big", "dec", True), _ms(62)),
    )
    mem_adjust_inc_ns: int = _ms(54)
    mem_adjust_dec_ns: int = _ms(56)
    # (dev_kind, op, side) -> ns; side is where the driver work happens.
    periph_ns: Tuple[Tuple[Tuple[str, str, str], int], ...] = (
        (("gpu", "map", "ros"), _ms(55)),
        (("gpu", "map", "sandbox"), _ms(121)),
        (("wifi", "map", "ros"), _ms(193)),
        (("wifi", "map", "sandbox"), _ms(188)),
        (("bluetooth", "map", "ros"), _ms(117)),
        (("bluetooth", "map", "sandbox"), _ms(125)),
        (("gpu", "unmap", "ros"), _ms(35)),
        (("gpu", "unmap", "sandbox"), _ms(23)),
        (("wifi", "unmap", "ros"), _ms(43)),
        (("wifi", "unmap", "sandbox"), _ms(37)),
        (("bluetooth", "unmap", "ros"), _ms(33)),
        (("bluetooth", "unmap", "sandbox"), _ms(29)),
    )

    def core_adjust(self, core_class: str, direction: str, optimized: bool) -> int:
        table = dict(self.core_adjust_ns)
        return table[(core_class, direction, optimized)]

    def periph(self, kind: str, op: str, side: str) -> int:
        table = dict(self.periph_ns)
        try:
            return table[(kind, op, side)]
        except KeyError:
            # Devices without a profiled row (kind "other") borrow the
            # cheapest profiled row so the model stays closed.
            return min(ns for (k, o, s), ns in self.periph_ns if o == op)

    def copy_cost_ns(self, nbytes: int) -> int:
        """Piecewise-linear interpolation over the copy anchors, through the
        origin; sizes beyond the last anchor copy in full-anchor chunks."""
        if nbytes <= 0:
            return 0
        anchors = ((0, 0),) + self.copy_anchors
        last_bytes, last_ns = anchors[-1]
        chunks, rem = divmod(nbytes, last_bytes)
        total = chunks * last_ns
        if rem:
            for (b0, n0), (b1, n1) in zip(anchors, anchors[1:]):
                if rem <= b1:
                    total += n0 + (n1 - n0) * (rem - b0) // (b1 - b0)
                    break
        return total


class Engine:
    """Single-threaded event queue plus the structured trace."""

    costs = CostTable()  # the one cost table every engine charges from

    def __init__(self, traced: bool = True):
        self.now_ns = 0
        # End of the current (or last) run_until; no event after it runs
        # before the caller asks again.
        self.end_ns = 0
        self._seq = 0
        # (time_ns, seq, fn); seq is unique, so fn is never compared.
        self._queue: List[Tuple[int, int, Callable]] = []
        # The record sink; None keeps no records.
        self.records: Optional[List[dict]] = [] if traced else None

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay_ns: int, fn: Callable) -> int:
        if delay_ns < 0:
            raise ValueError("negative delay")
        self._seq += 1
        heapq.heappush(self._queue, (self.now_ns + delay_ns, self._seq, fn))
        return self._seq

    def cancel(self, seq: Optional[int]) -> None:
        """Drop the queued event that `schedule` numbered seq, if any."""
        self._queue[:] = [event for event in self._queue if event[1] != seq]
        heapq.heapify(self._queue)

    @property
    def next_event_ns(self) -> Optional[int]:
        """Time of the earliest queued event, or None when the queue is empty."""
        return self._queue[0][0] if self._queue else None

    def run_until(self, t_end_ns: int) -> int:
        if t_end_ns < self.now_ns:
            raise ValueError("run_until into the past")
        self.end_ns = t_end_ns
        queue = self._queue
        dispatched = 0
        while queue and queue[0][0] <= t_end_ns:
            time_ns, _, fn = heapq.heappop(queue)
            assert time_ns >= self.now_ns
            self.now_ns = time_ns
            fn()
            dispatched += 1
        self.now_ns = t_end_ns
        return dispatched

    # -- trace ------------------------------------------------------------

    def trace(self, actor: str, op: str, args: Optional[dict] = None,
              verdict: str = "ok", reason: Optional[str] = None) -> None:
        if self.records is None:
            return
        rec = {
            "t_ns": self.now_ns,
            "time_us": ns_to_us_str(self.now_ns),
            "seq": len(self.records) + 1,
            "actor": actor,
            "op": op,
            "verdict": verdict,
        }
        if args:
            rec["args"] = args
        if reason is not None:
            rec["reason"] = reason
        self.records.append(rec)

    def charge(self, actor: str, name: str, ns: int, detail: Optional[dict] = None) -> int:
        """Record a named cost; returns the duration for the caller to fold
        into its completion time."""
        if self.records is not None:
            self.trace(actor, "cost", {"name": name, "ns": ns, **(detail or {})})
        return ns

    def serialize_trace(self, header: Optional[dict] = None) -> str:
        head = {"schema": TRACE_SCHEMA}
        if header:
            head.update(header)
        encode = _TRACE_JSON.encode
        return "\n".join([encode(head), *map(encode, self.records)]) + "\n"
