"""Size/time constants and alignment helpers shared across the simulator.

All physical addresses and sizes are plain ints (bytes); all simulated time
is kept in integer nanoseconds so that measured sub-microsecond costs stay
exact.
"""

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

PAGE_4K = 4 * KB
BLOCK_2M = 2 * MB

# Address range covered by one populated last-level table in the footprint
# model: 512 block entries at 2MB, or 512 page entries at 4KB.
TABLE_SPAN_2M = 512 * BLOCK_2M   # 1 GB
TABLE_SPAN_4K = 512 * PAGE_4K    # 2 MB

US_NS = 1_000
MS_NS = 1_000_000
S_NS = 1_000_000_000


def is_aligned(value: int, align: int) -> bool:
    return value % align == 0


def align_down(value: int, align: int) -> int:
    return value - (value % align)


def align_up(value: int, align: int) -> int:
    return -(-value // align) * align


def overlaps(a: tuple, b: tuple) -> bool:
    return a[0] < b[1] and b[0] < a[1]


# Interval lists: [start, end) byte ranges, each non-empty.

def merge(intervals) -> list:
    """The sorted union of intervals, touching ones joined."""
    out = []
    for s, e in sorted(intervals):
        if out and out[-1][1] >= s:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


def subtract(intervals, rng: tuple) -> list:
    """Each interval, in order, with rng cut out of it."""
    out = []
    for s, e in intervals:
        if s < rng[0]:
            out.append((s, min(e, rng[0])))
        if rng[1] < e:
            out.append((max(s, rng[1]), e))
    return out


def covers(intervals, rng: tuple) -> bool:
    """Whether the intervals together hold every byte of rng."""
    return any(s <= rng[0] and rng[1] <= e for s, e in merge(intervals))


def ns_to_us_str(ns: int) -> str:
    """Exact decimal microseconds, no float round-trip (23890 -> '23.89')."""
    whole, frac = divmod(ns, US_NS)
    if frac == 0:
        return str(whole)
    return f"{whole}.{frac:03d}".rstrip("0")


def parse_size(text: str) -> int:
    """Parse '512M', '4K', '3584M', '2G' or a bare byte count."""
    t = text.strip()
    mult = 1
    if t and t[-1] in "KMGkmg":
        mult = {"k": KB, "m": MB, "g": GB}[t[-1].lower()]
        t = t[:-1]
    return int(t, 0) * mult


def format_size(nbytes: int) -> str:
    for mult, suffix in ((GB, "G"), (MB, "M"), (KB, "K")):
        if nbytes and nbytes % mult == 0:
            return f"{nbytes // mult}{suffix}"
    return str(nbytes)


def parse_duration_ns(text: str) -> int:
    """Parse '100ms', '2s', '23890ns', '5us' or bare nanoseconds, finite and >= 0."""
    t = text.strip()
    for suffix, mult in (("ns", 1), ("us", US_NS), ("ms", MS_NS), ("s", S_NS)):
        if t.endswith(suffix) and t[: -len(suffix)]:
            ns = float(t[: -len(suffix)]) * mult
            break
    else:
        ns = int(t, 0)
    if not 0 <= ns < float("inf"):
        raise ValueError("must be finite and not negative")
    return int(round(ns))


def format_duration_ns(ns: int) -> str:
    for mult, suffix in ((S_NS, "s"), (MS_NS, "ms"), (US_NS, "us")):
        if ns and ns % mult == 0:
            return f"{ns // mult}{suffix}"
    return f"{ns}ns"
