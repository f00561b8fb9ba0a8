"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the whole gate is also part of the default suite.
"""

import time

from teesim import bench
from teesim import scenario as sc
from teesim.adversary import (
    AttackKind,
    check_invariants,
    explore,
    make_small_world,
    run_attack,
)
from teesim.engine import COPY_ANCHORS
from teesim.hw_model import default_config
from teesim.stage2 import Attr, Stage2TableSet
from teesim.units import GB, KB, MB, MS_NS
from teesim.world import World

# Golden exploration numbers for the bundled small config at depth 12; the
# traversal is deterministic, so any drift means the protocol model changed.
GOLDEN_STATES_DEPTH12 = 169_816
GOLDEN_TRANSITIONS_DEPTH12 = 690_953

EXPECTED_MECHANISM = {
    AttackKind.MALICIOUS_IMAGE_SWAP: "integrity",
    AttackKind.OVERLAPPING_MEMORY_CONFIG: "legality check",
    AttackKind.DOUBLE_CORE_ALLOC: "legality check",
    AttackKind.IO_EAVESDROP: "stage-2",
    AttackKind.STALE_TLB_READ: "stage-2",
    AttackKind.CACHE_DIRECT_ATTACK: "sanitize",
    AttackKind.DMA_BYPASS: "SMMU",
}


def report(criterion: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion:02d} {status}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_randomized_invariant_soundness():
    t0 = time.time()
    total_violations = 0
    worst_events = 0
    for seed in range(10_000):
        scenario = sc.make_random_scenario(seed)
        res = sc.run_scenario(scenario, with_trace=False)
        total_violations += len(res.violations)
        worst_events = max(worst_events, res.world.engine._seq)
    elapsed = time.time() - t0
    report(
        1,
        total_violations == 0 and worst_events <= 200 and elapsed < 60,
        f"10000 scenarios, {total_violations} violations, "
        f"max {worst_events} events, {elapsed:.1f}s",
    )


def test_criterion_02_bounded_model_check():
    t0 = time.time()
    honest = explore(depth=12)
    ok = honest.violations == []
    detail = (f"honest: {honest.states_visited} states, "
              f"{honest.transitions} transitions")
    ok = ok and honest.states_visited == GOLDEN_STATES_DEPTH12 \
        and honest.transitions == GOLDEN_TRANSITIONS_DEPTH12
    for flag in ("no_verify", "no_sanitize", "no_legality_check", "no_smmu"):
        res = explore(world_factory=lambda: make_small_world((flag,)),
                      depth=12, stop_at_first=True)
        if not res.violations:
            ok = False
            detail += f"; {flag}: NO counterexample"
            continue
        finding = res.violations[0]
        text = sc.serialize(sc.explored_scenario(finding.trace, (flag,)))
        replay = sc.run_scenario(sc.parse(text))
        replayed = replay.exit_code == 1 and (
            replay.world.metrics.leaked_bytes > 0 if finding.kind == "attack"
            else finding.kind in {v.invariant_id for v in replay.violations})
        ok = ok and replayed
        detail += f"; {flag}: {finding.kind} in {len(finding.trace)} ops"
    elapsed = time.time() - t0
    report(2, ok and elapsed < 300, detail + f" [{elapsed:.0f}s]")


def test_criterion_03_attack_catalogue():
    ok = True
    details = []
    for kind in AttackKind:
        world = World(default_config(),
                      instant=True,
                      apps=[("demo", b"secret weights")])
        out = run_attack(world, kind)
        good = (out.blocked and out.leaked_bytes == 0
                and out.mechanism == EXPECTED_MECHANISM[kind]
                and check_invariants(world) == [])
        ok = ok and good
        details.append(f"{kind.value}:{'ok' if good else 'FAIL'}")
    report(3, ok, " ".join(details))


def test_criterion_04_parallelism_bounds():
    text = (f"{sc.HEADER} v{sc.VERSION}\nseed = 1\nhorizon = 2s\n"
            "\n[apps]\napp a0 payload\n\n[timeline]\n"
            + "".join(f"at {10 * i}ms create s{i} app=a0\n"
                      for i in range(1, 8)))
    base = sc.parse(text)
    import dataclasses

    leap = sc.run_scenario(dataclasses.replace(base, mode="leap"),
                           with_trace=False)
    tzasc = sc.run_scenario(dataclasses.replace(base, mode="tzasc"),
                            with_trace=False)
    got = (leap.world.metrics.max_concurrent,
           tzasc.world.metrics.max_concurrent)
    report(4, got == (7, 3), f"leap={got[0]} tzasc={got[1]} (want 7/3 exact)")


def test_criterion_05_adjustment_optimization_ratios():
    result = bench.run_cpu_adjust()
    targets = {"big_inc": 2.52, "little_inc": 2.49,
               "big_dec": 1.48, "little_dec": 1.71}
    ok = True
    details = []
    for pair, target in targets.items():
        ratio = result["rows"][pair]["ratio"]
        within = abs(ratio - target) / target <= 0.02
        in_band = 1.48 * 0.98 <= ratio <= 2.51 * 1.02
        ok = ok and within and in_band
        details.append(f"{pair}={ratio:.3f}")
    report(5, ok, " ".join(details) + " (each within 2% of target, in band)")


def test_criterion_06_dynamic_cpu_workload_shape():
    result = bench.run_dl_batch()
    rows = result["rows"]
    batches = result["batches"]
    q1 = [rows[n]["speedup_quota1"] for n in batches]
    q2 = [rows[n]["speedup_quota2"] for n in batches]
    eps = 1e-9
    ok = rows[1]["speedup_quota1"] == 1.0 and rows[1]["speedup_quota2"] == 1.0
    ok = ok and all(b >= a - eps for a, b in zip(q1, q1[1:]))
    ok = ok and all(1.0 - eps <= v <= 2.0 + eps for v in q1)
    ok = ok and all(1.0 - eps <= v <= 3.0 + eps for v in q2)
    ok = ok and q2[-1] > q1[-1]
    report(6, ok,
           "quota1=" + "/".join(f"{v:.2f}" for v in q1)
           + " quota2=" + "/".join(f"{v:.2f}" for v in q2))


def test_criterion_07_flexible_memory_utilization():
    result = bench.run_mem_query()
    flex = result["rows"]["flexible"]
    comparable = result["comparable_statics"]
    ok = bool(comparable) and result["flexible_beats_all_comparable"]
    gaps = [
        f"{name}:+{(flex['utilization'] - result['rows'][name]['utilization']) * 100:.1f}pts"
        for name in comparable
    ]
    report(7, ok,
           f"flexible {flex['utilization'] * 100:.1f}% vs " + " ".join(gaps))


def test_criterion_08_stage2_footprint_bounds():
    total = 0
    worst = 0
    for ctx in range(8):
        ts = Stage2TableSet(ctx)
        ts.map_range((0, 3584 * MB), Attr.NORMAL)
        ts.map_range((3584 * MB, 4 * GB), Attr.DEVICE)
        fp = ts.footprint_bytes()
        worst = max(worst, fp)
        total += fp
    report(8, worst <= 2 * MB and total <= 16 * MB,
           f"max per-context {worst / MB:.2f}MB <= 2MB, "
           f"8-context total {total / MB:.2f}MB <= 16MB")


def test_criterion_09_trace_determinism():
    mismatches = 0
    for seed in range(100):
        scenario = sc.make_random_scenario(seed)
        a = sc.run_scenario(scenario).trace_digest
        b = sc.run_scenario(scenario).trace_digest
        if a != b:
            mismatches += 1
    report(9, mismatches == 0,
           f"100 scenario/seed pairs, {mismatches} digest mismatches")


def test_criterion_10_cost_fidelity():
    anchors = [64 * KB, 256 * KB, 1024 * KB, 4 * MB, 16 * MB, 64 * MB]
    sends = "".join(
        f"at {710 + 10 * i}ms send sb1 to_sandbox {n}\n"
        for i, n in enumerate(anchors)
    )
    text = (f"{sc.HEADER} v{sc.VERSION}\nseed = 1\nhorizon = 8s\n"
            "\n[apps]\napp demo payload\n\n[timeline]\n"
            "at 0ms create sb1 app=demo\n"
            "at 700ms send sb1 to_ros 0\n"
            + sends +
            "at 900ms request_dev sb1 gpu\n"
            "at 1200ms release_dev sb1 gpu\n"
            "at 1300ms request_dev sb1 wifi\n"
            "at 1800ms release_dev sb1 wifi\n"
            "at 1900ms request_dev sb1 bluetooth\n"
            "at 2400ms release_dev sb1 bluetooth\n"
            "at 3000ms terminate sb1\n")
    res = sc.run_scenario(sc.parse(text))
    costs = {}
    copies = []
    for r in res.world.engine.records:
        if r["op"] != "cost":
            continue
        name = r["args"]["name"]
        if name == "copy":
            copies.append((r["args"]["bytes"], r["args"]["ns"]))
        else:
            costs.setdefault(name, r["args"]["ns"])
    expected = {
        "boot": 532 * MS_NS,
        "shutdown": 629 * MS_NS,
        "ipi_ros_to_sb": 23_890,
        "ipi_sb_to_ros": 53_120,
        "periph_unmap_gpu_ros": 35 * MS_NS,
        "periph_map_gpu_sandbox": 121 * MS_NS,
        "periph_unmap_gpu_sandbox": 23 * MS_NS,
        "periph_map_gpu_ros": 55 * MS_NS,
        "periph_unmap_wifi_ros": 43 * MS_NS,
        "periph_map_wifi_sandbox": 188 * MS_NS,
        "periph_unmap_wifi_sandbox": 37 * MS_NS,
        "periph_map_wifi_ros": 193 * MS_NS,
        "periph_unmap_bluetooth_ros": 33 * MS_NS,
        "periph_map_bluetooth_sandbox": 125 * MS_NS,
        "periph_unmap_bluetooth_sandbox": 29 * MS_NS,
        "periph_map_bluetooth_ros": 117 * MS_NS,
    }
    bad = [name for name, ns in expected.items() if costs.get(name) != ns]
    anchor_table = dict(COPY_ANCHORS)
    bad += [f"copy@{b}" for b, ns in copies if anchor_table.get(b) != ns]
    missing_anchors = set(anchors) - {b for b, _ in copies}
    ok = not bad and not missing_anchors and res.exit_code == 0
    report(10, ok,
           f"{len(expected)} named costs + {len(copies)} copy anchors exact"
           + (f"; MISMATCH {bad}" if bad else ""))
