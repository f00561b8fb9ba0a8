"""Record the end-to-end numbers of one or more teesim checkouts as BENCH JSON.

    python3 tools/bench_record.py --out BENCH_7.json \\
        --tree parent=/path/to/parent/checkout --tree change=. \\
        --pairs explore_bfs=10 --pairs scenario_fuzz=10 --pairs costmodel_suites=5

Every measurement runs in a fresh process, and the trees take turns (the
first tree goes first in even rounds, last in odd ones), so a drift in host
speed lands on both. Per tree it records:

* an honest `explore` at each of DEPTHS, RUNS times each: wall seconds,
  states/s, the process's peak RSS and the cyclic collector's passes per
  generation during the call (`gc_passes`: the `collections` difference of
  `gc.get_stats()` around it, generations 0, 1 and 2, taken after a
  `gc.collect()` so that no pass is already due when the call starts; a
  pass that falls due while the call keeps the collector off runs at the
  first allocation after it, and counts);
* work counters of one explore at the first of DEPTHS: `World.clone` and
  `World.canonical` calls, state keys made (calls of the `_state_keys()`
  key function), the field keys the explorer computed and reused (a child's
  keyed field whose raw value == its parent's reuses the parent's id),
  self-loops (transitions back to their parent's state), quiet answers
  (successful ops that never touched their node's world, so cost no clone
  and no key) and the collector's passes per generation (`gc_passes`, as
  above; the counting wrappers allocate a little more than a plain run);
* key cost, RUNS times: microseconds per call of the explorer's state key
  function (`_state_keys()`) over one explore at the first of DEPTHS;
* acceptance criterion 01, RUNS times: SCENARIOS random honest scenarios
  (seeds 0 to SCENARIOS - 1), each run as the criterion runs it. It records
  wall seconds, scenarios/s and invariant violations, and the work counters
  of the scenario path over that fixed seed range: events dispatched (the
  sum of `Engine.run_until`'s return values) and trace records, counted in
  a second, traced and untimed pass, since the criterion keeps no trace;
* the work counters of the cost model, RUNS times: events dispatched (the
  sum of `Engine.run_until`'s return values) by each suite of
  `teesim.bench.SUITES`, and their total; and over one pass of all suites,
  chunk costs computed (`chunk_scaled` calls of every workload class in
  `teesim.sos`), the questions the tick fold's look-ahead asks the CPU
  monitor's rule (`cpu_request` calls inside `World._quiescent_ticks`: one
  per look-ahead at most where the rule answers for a range of ticks, one
  per tick asked where it answers for one window), completion events
  dispatched (`World._completion` calls), ticks (`World._tick` calls),
  directive reads (`scenario._read` calls), window sums built afresh
  (`sos.UsageSums` objects made, 0 where the class is gone), utilization
  samples added (`World._add_utilization` calls, or
  `World._sample_utilization` where that adds them), image digests
  (`digest64` calls, wherever it is imported), working-set lookups
  (`CipherQuery.working_set_bytes` calls) and `shlex.split` calls;
* parse cost, RUNS times: microseconds per `scenario.parse` over the
  serialized texts of POOL random honest scenarios (seeds 0 to POOL - 1),
  the minimum of PASSES passes, in process time;
* the tier-1 suite (ROADMAP's verify command), RUNS times: wall seconds and
  pytest's last summary line;
* `perfbench/run.py --trace 0` of each `--pairs` workload, SECONDS per run
  at run.py's default seed, so every round runs the same items: every
  result line, and each end-to-end metric's median, min, max and
  quartiles; with two trees, also the rounds in which the second did
  better, by the directions in BENCHMARK.json.

Timed figures are given as median, min and max. Standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS = 3
DEPTHS = (8, 12)
SECONDS = 30
SCENARIOS = 10_000
POOL = 400
PASSES = 7

GC_PASSES = """
import gc
def gc_before():
    gc.collect()  # empties the young generation: no pass is due at the call
    return gc.get_stats()
def gc_passes(before):
    return [g["collections"] - b["collections"]
            for g, b in zip(gc.get_stats(), before)]
"""

EXPLORE = GC_PASSES + """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from teesim.adversary import explore
before = gc_before()
t0 = time.perf_counter()
r = explore(depth=int(sys.argv[2]))
s = time.perf_counter() - t0
print(json.dumps({"states": r.states_visited, "transitions": r.transitions,
                  "s": s, "states_per_s": r.states_visited / s,
                  "gc_passes": gc_passes(before),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""

COUNTERS = GC_PASSES + """
import json, sys
sys.path.insert(0, sys.argv[1])
from teesim import adversary
from teesim.world import World
calls = {"clone": 0, "canonical": 0, "keys": 0, "field_keys_computed": 0,
         "quiet_answers": 0}
for name in ("clone", "canonical"):
    def counted(self, _f=getattr(World, name), _n=name):
        calls[_n] += 1
        return _f(self)
    setattr(World, name, counted)
make_keys = adversary._state_keys
def counted_keys(*args):
    key = make_keys(*args)
    def counted(*args):  # a node, and its parent when it has one
        calls["keys"] += 1
        return key(*args)
    return counted
adversary._state_keys = counted_keys
def quiet(fn):
    def op(node):
        leaked = fn(node)
        calls["quiet_answers"] += node._world is None
        return leaked
    return op
ops = [(name, quiet(fn)) for name, fn in adversary.default_alphabet()]
leaves = adversary.keyed_leaves
def counted_key(key):
    def counted(value):
        calls["field_keys_computed"] += 1
        return key(value)
    return counted
adversary.keyed_leaves = lambda obj: [
    (path, f._replace(key=counted_key(f.key))) for path, f in leaves(obj)]
before = gc_before()
r = adversary.explore(op_alphabet=ops, depth=int(sys.argv[2]))
passes = gc_passes(before)
keyed = len(leaves(adversary.make_small_world())) * calls["keys"]
calls["field_keys_reused"] = keyed - calls["field_keys_computed"]
print(json.dumps(dict(calls, states=r.states_visited, transitions=r.transitions,
                      self_loops=r.self_loops, gc_passes=passes)))
"""

KEY_COST = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from teesim import adversary
make_keys, spent = adversary._state_keys, [0, 0]
def timed_keys():
    key = make_keys()
    def timed(*args):  # a node, and its parent when it has one
        t0 = time.perf_counter_ns()
        k = key(*args)
        spent[0] += time.perf_counter_ns() - t0
        spent[1] += 1
        return k
    return timed
adversary._state_keys = timed_keys
r = adversary.explore(depth=int(sys.argv[2]))
print(json.dumps({"keys": spent[1], "us_per_key": spent[0] / spent[1] / 1e3}))
"""

CRITERION_01 = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from teesim import scenario as sc
from teesim.engine import Engine
n = {"events": 0, "trace_records": 0, "violations": 0}
run_until = Engine.run_until
def counted(self, t_end_ns):
    dispatched = run_until(self, t_end_ns)
    n["events"] += dispatched
    return dispatched
Engine.run_until = counted
t0 = time.perf_counter()
for seed in range(int(sys.argv[2])):
    res = sc.run_scenario(sc.make_random_scenario(seed), with_trace=False)
    n["violations"] += len(res.violations)
s = time.perf_counter() - t0
Engine.run_until = run_until
for seed in range(int(sys.argv[2])):  # untimed: the traced runs' records
    res = sc.run_scenario(sc.make_random_scenario(seed), with_trace=True)
    n["trace_records"] += len(res.world.engine.records)
print(json.dumps(dict(n, s=s, scenarios_per_s=int(sys.argv[2]) / s)))
"""

SUITE_EVENTS = """
import json, shlex, sys
sys.path.insert(0, sys.argv[1])
from teesim import bench, scenario, secure_world, sos
from teesim.engine import Engine
from teesim.world import World
n, suite = {}, [None]
work = dict.fromkeys(("chunk_costs", "lookahead_cpu_requests", "completions", "ticks",
                      "directive_reads", "usage_sums_built", "utilization_samples",
                      "digests", "working_set_lookups", "shlex_splits"), 0)
run_until = Engine.run_until
def counted(self, t_end_ns):
    dispatched = run_until(self, t_end_ns)
    n[suite[0]] += dispatched
    return dispatched
Engine.run_until = counted
def count(owner, name, key, when=lambda: True):
    fn = getattr(owner, name)
    def counting(*args):
        work[key] += when()
        return fn(*args)
    setattr(owner, name, counting)
for cls in vars(sos).values():
    if isinstance(cls, type) and issubclass(cls, sos.Workload) \\
            and "chunk_scaled" in vars(cls):
        count(cls, "chunk_scaled", "chunk_costs")
inside = [False]
quiescent = World._quiescent_ticks
def looking_ahead(self, *args):
    inside[0] = True
    try:
        return quiescent(self, *args)
    finally:
        inside[0] = False
World._quiescent_ticks = looking_ahead
count(sos.SandboxRuntime, "cpu_request", "lookahead_cpu_requests", lambda: inside[0])
count(World, "_completion", "completions")
count(World, "_tick", "ticks")
count(scenario, "_read", "directive_reads")
for owner, name, key in ((sos, "UsageSums", "usage_sums_built"),
                         (World, "_add_utilization", "utilization_samples"),
                         (World, "_sample_utilization", "utilization_samples"),
                         (sos.CipherQuery, "working_set_bytes", "working_set_lookups"),
                         (shlex, "split", "shlex_splits")):
    if hasattr(owner, name):
        count(owner, name, key)
unhashed = secure_world.digest64
count(secure_world, "digest64", "digests")
for module in list(sys.modules.values()):  # the modules that imported it
    if getattr(module, "digest64", None) is unhashed:
        module.digest64 = secure_world.digest64
for name in bench.SUITES:
    suite[0], n[name] = name, 0
    bench.run_suite(name)
print(json.dumps({"events": dict(n, total=sum(n.values())), "work": work}))
"""

PARSE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from teesim import scenario as sc
texts = [sc.serialize(sc.make_random_scenario(s)) for s in range(int(sys.argv[2]))]
best = float("inf")
for _ in range(int(sys.argv[3])):
    t0 = time.process_time()
    for text in texts:
        sc.parse(text)
    best = min(best, time.process_time() - t0)
print(json.dumps({"us_per_parse": best / len(texts) * 1e6}))
"""


def tier1(tree: Path) -> dict:
    """One run of the tier-1 suite in tree: wall seconds, exit code and
    pytest's summary line."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q",
                          "--continue-on-collection-errors"],
                         cwd=tree, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    return {"s": time.perf_counter() - t0, "exit_code": out.returncode,
            "summary": lines[-1] if lines else ""}


def last_json(cmd, cwd=None) -> dict:
    out = subprocess.run(cmd, cwd=cwd, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    out = {"median": statistics.median(values), "min": min(values),
           "max": max(values), "n": len(values)}
    if len(values) > 1:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def wins(base_lines, new_lines, better) -> dict:
    """Per metric, the rounds in which the second tree did better."""
    out = {}
    for name in base_lines[0]["metrics"]:
        sign = 1 if better.get(name) == "higher" else -1
        out[name] = sum(sign * (n["metrics"][name]["value"]
                                - b["metrics"][name]["value"]) > 0
                        for b, n in zip(base_lines, new_lines))
    return out


def summarize(runs, fields) -> dict:
    return {f: spread([r[f] for r in runs]) for f in fields}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", required=True,
                    help="label=path of a checkout")
    ap.add_argument("--pairs", action="append", default=[],
                    help="workload=rounds of perfbench/run.py")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    trees = dict(t.split("=", 1) for t in args.tree)
    trees = {label: Path(path).resolve() for label, path in trees.items()}
    py = sys.executable

    def order(i):
        labels = list(trees)
        return labels if i % 2 == 0 else labels[::-1]

    result = {"host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "machine": platform.machine()},
              "trees": {label: {} for label in trees}}
    for depth in DEPTHS:
        runs = {label: [] for label in trees}
        for i in range(RUNS):
            for label in order(i):
                run = last_json([py, "-c", EXPLORE, str(trees[label] / "src"), str(depth)])
                print(label, f"explore depth {depth}", run, flush=True)
                runs[label].append(run)
        for label, rs in runs.items():
            result["trees"][label][f"explore_depth_{depth}"] = {
                "states": rs[0]["states"], "transitions": rs[0]["transitions"],
                "gc_passes": [r["gc_passes"] for r in rs],
                **summarize(rs, ("s", "states_per_s", "peak_rss_mb"))}
    for label, tree in trees.items():
        counters = last_json([py, "-c", COUNTERS, str(tree / "src"), str(DEPTHS[0])])
        print(label, f"counters depth {DEPTHS[0]}", counters, flush=True)
        result["trees"][label][f"work_counters_depth_{DEPTHS[0]}"] = counters
    runs = {label: [] for label in trees}
    for i in range(RUNS):
        for label in order(i):
            run = last_json([py, "-c", KEY_COST, str(trees[label] / "src"),
                             str(DEPTHS[0])])
            print(label, f"key cost depth {DEPTHS[0]}", run, flush=True)
            runs[label].append(run)
    for label, rs in runs.items():
        result["trees"][label][f"key_cost_depth_{DEPTHS[0]}"] = {
            "keys": rs[0]["keys"], **summarize(rs, ("us_per_key",))}
    runs = {label: [] for label in trees}
    for i in range(RUNS):
        for label in order(i):
            run = last_json([py, "-c", CRITERION_01, str(trees[label] / "src"),
                             str(SCENARIOS)])
            print(label, f"criterion 01, {SCENARIOS} scenarios", run, flush=True)
            runs[label].append(run)
    for label, rs in runs.items():
        counts = {k: rs[0][k] for k in ("events", "trace_records", "violations")}
        if any({k: r[k] for k in counts} != counts for r in rs):
            raise SystemExit(f"{label}: criterion 01 counters differ between runs")
        result["trees"][label]["criterion_01"] = {
            "scenarios": SCENARIOS, **counts,
            **summarize(rs, ("s", "scenarios_per_s"))}
    runs = {label: [] for label in trees}
    for i in range(RUNS):
        for label in order(i):
            run = last_json([py, "-c", SUITE_EVENTS, str(trees[label] / "src")])
            print(label, "costmodel suite events", run, flush=True)
            runs[label].append(run)
    for label, rs in runs.items():
        if any(r != rs[0] for r in rs):
            raise SystemExit(f"{label}: costmodel suite events differ between runs")
        result["trees"][label]["costmodel_suite_events"] = rs[0]["events"]
        result["trees"][label]["costmodel_work_counters"] = rs[0]["work"]
    runs = {label: [] for label in trees}
    for i in range(RUNS):
        for label in order(i):
            run = last_json([py, "-c", PARSE, str(trees[label] / "src"), str(POOL),
                             str(PASSES)])
            print(label, f"parse, {POOL} texts", run, flush=True)
            runs[label].append(run)
    for label, rs in runs.items():
        result["trees"][label]["parse"] = {
            "texts": POOL, "passes": PASSES, **summarize(rs, ("us_per_parse",))}
    runs = {label: [] for label in trees}
    for i in range(RUNS):
        for label in order(i):
            run = tier1(trees[label])
            print(label, "tier-1", run, flush=True)
            runs[label].append(run)
    for label, rs in runs.items():
        result["trees"][label]["tier1"] = {
            "summaries": [r["summary"] for r in rs],
            "exit_codes": [r["exit_code"] for r in rs], **summarize(rs, ("s",))}
    first = next(iter(trees.values()))
    better = {m["name"]: m["better"] for m in
              json.loads((first / "BENCHMARK.json").read_text())["end_to_end"]}
    for spec in args.pairs:
        workload, rounds = spec.split("=")
        runs = {label: [] for label in trees}
        for i in range(int(rounds)):
            for label in order(i):
                line = last_json([py, "perfbench/run.py", "--workload", workload,
                                  "--seconds", str(SECONDS), "--trace", "0"],
                                 cwd=trees[label])
                print(label, workload, json.dumps(line), flush=True)
                runs[label].append(line)
        for label, lines in runs.items():
            metrics = {name: spread([ln["metrics"][name]["value"] for ln in lines])
                       for name in lines[0]["metrics"]}
            result["trees"][label][f"perfbench_{workload}"] = {
                "all_correct": all(ln["correct"] for ln in lines),
                "metrics": metrics, "result_lines": lines}
        if len(trees) == 2:
            (base, base_lines), (new, new_lines) = runs.items()
            result[f"perfbench_{workload}_wins_of_{new}_over_{base}"] = {
                "rounds": len(base_lines),
                "metrics": wins(base_lines, new_lines, better)}
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
