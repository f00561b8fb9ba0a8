"""Built-in benchmark suites over the cost model.

cpu_adjust measures the busy-wait optimization payoff from simulated
transfers; dl_batch reproduces the dynamic-CPU speedup curves over batch
size; mem_query compares the flexible memory strategy against static
pre-allocations on completion time and utilization.
"""

from typing import Dict, List

from .engine import COSTS_NS
from .errors import UnknownSuite
from .hw_model import ROS_CTX, default_config
from .scenario import HEADER, VERSION, parse, run_scenario
from .units import MS_NS
from .world import World

# ---------------------------------------------------------------------------
# cpu_adjust
# ---------------------------------------------------------------------------

def run_cpu_adjust() -> dict:
    """Measure core-adjustment latencies with and without the busy-wait
    optimization from the costs that real transfers charge."""
    world = World(default_config(), instant=True, apps=[("bench", b"bench-payload")])
    sb = world.create_sandbox("bench", max_cores=3, core_pref="big")
    mon = world.monitor
    measured: Dict[str, int] = {}
    for optimized in (False, True):
        opt = "opt" if optimized else "noopt"
        for cls, core in (("big", 5), ("little", 1)):
            measured[f"core_inc_{cls}_{opt}"] = mon.transfer_core(
                core, ROS_CTX, sb, optimized=optimized)
            measured[f"core_dec_{cls}_{opt}"] = mon.transfer_core(
                core, sb, ROS_CTX, optimized=optimized)

    rows = {}
    for cls in ("big", "little"):
        for direction in ("inc", "dec"):
            noopt = measured[f"core_{direction}_{cls}_noopt"]
            opt = measured[f"core_{direction}_{cls}_opt"]
            expected = (COSTS_NS[f"core_{direction}_{cls}_noopt"]
                        / COSTS_NS[f"core_{direction}_{cls}_opt"])
            rows[f"{cls}_{direction}"] = {
                "noopt_ms": noopt / MS_NS,
                "opt_ms": opt / MS_NS,
                "ratio": noopt / opt,
                "table_ratio": round(expected, 4),
            }
    ratios = [r["ratio"] for r in rows.values()]
    return {
        "suite": "cpu_adjust",
        "rows": rows,
        "band": (min(ratios), max(ratios)),
        "table_band": (1.48, 2.52),
    }


# ---------------------------------------------------------------------------
# dl_batch
# ---------------------------------------------------------------------------

DL_BATCHES = (1, 5, 10, 20, 40)
DL_UNITS_PER_IMAGE = 500


def _dl_scenario(images: int, max_cores: int) -> str:
    horizon_ms = 1200 + images * DL_UNITS_PER_IMAGE + 4000
    return (
        f"{HEADER} v{VERSION}\n"
        "seed = 1\n"
        f"horizon = {horizon_ms}ms\n"
        "\n[apps]\n"
        "app dl dl-model-payload\n"
        "\n[timeline]\n"
        f"at 0ms create sb1 app=dl cores={max_cores} memory=512M core=big\n"
        f"at 0ms workload sb1 inference images={images} "
        f"units={DL_UNITS_PER_IMAGE}\n"
    )


def run_dl_batch() -> dict:
    """Completion time of an inference batch under core quotas 1 (static),
    2, and 3; speedups are relative to the single-core run."""
    times: Dict[int, Dict[int, int]] = {}
    for max_cores in (1, 2, 3):
        times[max_cores] = {}
        for n in DL_BATCHES:
            res = run_scenario(parse(_dl_scenario(n, max_cores)),
                               with_trace=False, check_each_directive=False)
            sb = res.handles["sb1"]
            times[max_cores][n] = res.world.metrics.completion_ns[sb]
    rows = {}
    for n in DL_BATCHES:
        base = times[1][n]
        rows[n] = {
            "single_core_ms": base / MS_NS,
            "speedup_quota1": base / times[2][n],
            "speedup_quota2": base / times[3][n],
        }
    return {"suite": "dl_batch", "batches": list(DL_BATCHES), "rows": rows}


# ---------------------------------------------------------------------------
# mem_query
# ---------------------------------------------------------------------------

QUERY_FILES_MB = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
QUERIES_PER_FILE = 25
SCAN_UNITS = 10
MISS_UNITS = 25
OS_FOOTPRINT_MB = 128
STATIC_SIZES_MB = (30, 50, 60, 80, 100, 112)


def _query_scenario(cache_mb: int, dynamic: bool) -> str:
    files = ",".join(f"{s}M" for s in QUERY_FILES_MB)
    base_mb = OS_FOOTPRINT_MB + cache_mb
    max_mb = 320 if dynamic else base_mb
    return (
        f"{HEADER} v{VERSION}\n"
        "seed = 1\n"
        "horizon = 450s\n"
        "\n[apps]\n"
        "app q query-db-payload\n"
        "\n[timeline]\n"
        f"at 0ms create sb1 app=q cores=1 memory={max_mb}M core=big "
        f"base={base_mb}M\n"
        f"at 0ms workload sb1 cipher files={files} queries={QUERIES_PER_FILE} "
        f"cache={cache_mb}M scan={SCAN_UNITS} miss={MISS_UNITS}\n"
    )


def run_mem_query() -> dict:
    """Flexible 16MB-granularity adjustment against static pre-allocations."""
    results = {}

    def one(cache_mb: int, dynamic: bool):
        res = run_scenario(parse(_query_scenario(cache_mb, dynamic)),
                           with_trace=False, check_each_directive=False)
        sb = res.handles["sb1"]
        m = res.world.metrics
        return {
            "completion_s": m.completion_ns[sb] / 1e9,
            "utilization": round(m.mem_utilization(), 4),
            "adjustments": m.adjust_count,
        }

    results["flexible"] = one(10, dynamic=True)
    for size in STATIC_SIZES_MB:
        results[f"static_{size}M"] = one(size, dynamic=False)

    flex = results["flexible"]
    comparable = {
        k: v for k, v in results.items()
        if k != "flexible"
        and abs(v["completion_s"] - flex["completion_s"])
        <= 0.05 * flex["completion_s"]
    }
    return {
        "suite": "mem_query",
        "rows": results,
        "comparable_statics": sorted(comparable),
        "flexible_beats_all_comparable": all(
            flex["utilization"] > v["utilization"] for v in comparable.values()
        ),
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _format_cpu_adjust(result: dict) -> List[str]:
    (lo, hi), (tlo, thi) = result["band"], result["table_band"]
    return [f"{'pair':<12}{'w/o opt':>10}{'w/ opt':>10}{'ratio':>9}{'table':>9}"] + [
        f"{name:<12}{row['noopt_ms']:>9.0f}m{row['opt_ms']:>9.0f}m"
        f"{row['ratio']:>9.2f}{row['table_ratio']:>9.2f}"
        for name, row in result["rows"].items()
    ] + [f"measured band {lo:.2f}x..{hi:.2f}x "
         f"(table-derived band {tlo:.2f}x..{thi:.2f}x)"]


def _format_dl_batch(result: dict) -> List[str]:
    return [f"{'images':<8}{'1 core':>12}{'quota 1':>10}{'quota 2':>10}"] + [
        f"{n:<8}{row['single_core_ms']:>10.0f}ms"
        f"{row['speedup_quota1']:>9.2f}x{row['speedup_quota2']:>9.2f}x"
        for n, row in result["rows"].items()
    ]


def _format_mem_query(result: dict) -> List[str]:
    return [f"{'strategy':<14}{'time':>10}{'util':>8}{'adjusts':>9}"] + [
        f"{name:<14}{row['completion_s']:>9.2f}s"
        f"{row['utilization'] * 100:>7.1f}%{row['adjustments']:>9}"
        for name, row in result["rows"].items()
    ] + ["flexible beats comparable statics: "
         f"{result['flexible_beats_all_comparable']} "
         f"(comparable: {', '.join(result['comparable_statics']) or 'none'})"]


# Suite name -> (run, format); `run` looks the suite up when called, so a
# wrapper set on this module later is still called.
SUITES = {
    "cpu_adjust": (lambda: run_cpu_adjust(), _format_cpu_adjust),
    "mem_query": (lambda: run_mem_query(), _format_mem_query),
    "dl_batch": (lambda: run_dl_batch(), _format_dl_batch),
}


def run_suite(name: str) -> dict:
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r} (have {', '.join(SUITES)})")
    return SUITES[name][0]()


def format_report(result: dict) -> str:
    name = result["suite"]
    return "\n".join([f"suite: {name}"] + SUITES[name][1](result))
