"""Deterministic discrete-event engine and the measured cost table.

Time is integer nanoseconds internally and reported in microseconds, so the
measured costs (down to the 23.89us IPI) stay exact. Dispatch order is total
over (time, sequence number); identical inputs always produce a
byte-identical trace.
"""

import heapq
import json
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


# The profiled costs of the modeled platform in integer nanoseconds, keyed by
# the name a cost record carries. Core adjustment is per core class, without
# and with the busy-wait optimization; peripheral map/unmap is per device kind
# and the side doing the driver work. Kind "other" has no profiled row, so
# its rows are the cheapest profiled map and unmap.
COSTS_NS = {
    "boot": _ms(532), "shutdown": _ms(629),
    "ipi_ros_to_sb": _us(23.89), "ipi_sb_to_ros": _us(53.12),
    "mem_inc": _ms(54), "mem_dec": _ms(56),
    "core_inc_little_noopt": _ms(137), "core_inc_little_opt": _ms(55),
    "core_inc_big_noopt": _ms(199), "core_inc_big_opt": _ms(79),
    "core_dec_little_noopt": _ms(72), "core_dec_little_opt": _ms(42),
    "core_dec_big_noopt": _ms(92), "core_dec_big_opt": _ms(62),
    "periph_map_gpu_ros": _ms(55), "periph_map_gpu_sandbox": _ms(121),
    "periph_map_wifi_ros": _ms(193), "periph_map_wifi_sandbox": _ms(188),
    "periph_map_bluetooth_ros": _ms(117), "periph_map_bluetooth_sandbox": _ms(125),
    "periph_map_other_ros": _ms(55), "periph_map_other_sandbox": _ms(55),
    "periph_unmap_gpu_ros": _ms(35), "periph_unmap_gpu_sandbox": _ms(23),
    "periph_unmap_wifi_ros": _ms(43), "periph_unmap_wifi_sandbox": _ms(37),
    "periph_unmap_bluetooth_ros": _ms(33), "periph_unmap_bluetooth_sandbox": _ms(29),
    "periph_unmap_other_ros": _ms(23), "periph_unmap_other_sandbox": _ms(23),
}

# (bytes, ns) anchors of the shared-memory copy; costs between anchors
# interpolate linearly.
COPY_ANCHORS = (
    (64 * KB, _ms(16.58)),
    (256 * KB, _ms(17.69)),
    (1024 * KB, _ms(22.46)),
    (4 * MB, _ms(39.46)),
    (16 * MB, _ms(110.65)),
    (64 * MB, _ms(323.42)),
)


def copy_cost_ns(nbytes: int) -> int:
    """Piecewise-linear interpolation over the copy anchors, through the
    origin; sizes beyond the last anchor copy in full-anchor chunks."""
    if nbytes <= 0:
        return 0
    anchors = ((0, 0),) + COPY_ANCHORS
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

    def __init__(self, traced: bool = True):
        self.now_ns = 0
        # End of the current (or last) run_until; no event after it runs
        # before the caller asks again.
        self.end_ns = 0
        self._seq = 0
        # (time_ns, seq, fn, args); seq is unique, so fn is never compared.
        self._queue: List[Tuple[int, int, Callable, tuple]] = []
        # The record sink; None keeps no records.
        self.records: Optional[List[dict]] = [] if traced else None

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay_ns: int, fn: Callable, *args) -> int:
        """Queue fn(*args) delay_ns from now; returns the event's number."""
        if delay_ns < 0:
            raise ValueError("negative delay")
        self._seq += 1
        heapq.heappush(self._queue, (self.now_ns + delay_ns, self._seq, fn, args))
        return self._seq

    def cancel(self, seq: Optional[int]) -> None:
        """Drop the queued event that `schedule` numbered seq, if any."""
        if seq is not None:
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
            time_ns, _, fn, args = heapq.heappop(queue)
            assert time_ns >= self.now_ns
            self.now_ns = time_ns
            fn(*args)
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

    def charge(self, actor: str, name: str, ns: Optional[int] = None,
               detail: Optional[dict] = None) -> int:
        """Record a named cost, by default its `COSTS_NS` row; returns the
        duration for the caller to fold into its completion time."""
        if ns is None:
            ns = COSTS_NS[name]
        if self.records is not None:
            self.trace(actor, "cost", {"name": name, "ns": ns, **(detail or {})})
        return ns

    def serialize_trace(self, header: Optional[dict] = None) -> str:
        head = {"schema": TRACE_SCHEMA}
        if header:
            head.update(header)
        encode = _TRACE_JSON.encode
        return "\n".join([encode(head), *map(encode, self.records)]) + "\n"
