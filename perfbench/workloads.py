"""The three benchmark workloads.

Each workload has these parts:

* ``setup(m, seed)`` builds the inputs from the seed (the program only ever
  sees these inputs);
* ``unit(m, inputs, out)`` does one unit of fixed work untraced, checks its
  outputs into ``out`` and returns the item count and per-item latencies;
  the caller repeats units for the run's length and times each one;
* ``finish(inputs, out)`` makes the checks that need the whole run and
  records the simulated statistics;
* ``fixed(m, inputs, tracer)`` does one fixed amount of work for the traced
  run; it runs untraced and once under the tracer.

``m`` is the namespace of imported teesim modules.
"""

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

# Per-item latencies are the thread's CPU time. The program is one CPU-bound
# thread, so on a host of its own this equals its wall time; on a shared
# host it leaves out the time the scheduler or the hypervisor (steal) gives
# to others, which lands on a few items and would otherwise decide p99.
clock = time.thread_time_ns

OP_FAILURES = ("BadState", "OutOfMemory", "ResourceBusy", "IntegrityError")


@dataclass
class Sizes:
    explore_depth: int = 6
    pool: int = 400


SMOKE = Sizes(explore_depth=3, pool=5)


@dataclass
class Unit:
    seconds: float
    cpu_seconds: float
    items: int
    latencies_ms: List[float]


@dataclass
class Measurement:
    units: List[Unit] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    simulated: Dict[str, object] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _canonical_json(value):
    """Suite results as their JSON form: tuples become lists, int keys
    become strings, floats keep every digit."""
    return json.loads(json.dumps(value, sort_keys=True))


# ---------------------------------------------------------------------------
# explore_bfs
# ---------------------------------------------------------------------------

class ExploreBfs:
    """Honest bounded model check: `adversary.explore` over
    `default_alphabet()` on `make_small_world()`, at a fixed depth.

    The model has no random input, so the seed changes nothing here. It
    must not permute the alphabet either: the reference counts hold only
    for the default op order, because `World.canonical()` leaves out state
    that changes successors (with shuffled orders depth 8 reaches 7,178
    states instead of 7,172)."""

    name = "explore_bfs"
    latency_item = "state expansion"

    def __init__(self, sizes: Sizes, reference: dict):
        self.sizes = sizes
        self.counts = reference["explore_bfs"]["counts"]

    def setup(self, m, seed: int):
        return m.adversary.default_alphabet()

    def _check(self, out: Measurement, result, depth: int) -> None:
        want_states, want_transitions = self.counts[str(depth)]
        out.check(not result.violations,
                  f"depth {depth}: {len(result.violations)} violations")
        out.check(result.states_visited == want_states,
                  f"depth {depth}: {result.states_visited} states, want {want_states}")
        out.check(result.transitions == want_transitions,
                  f"depth {depth}: {result.transitions} transitions, "
                  f"want {want_transitions}")

    def unit(self, m, alphabet, out: Measurement):
        # The first op runs exactly once per expanded state, so the gaps
        # between its calls are per-state expansion times: one clock read
        # per state, no tracer installed.
        stamps: List[int] = []
        ops = list(alphabet)
        first_name, first_fn = ops[0]

        def first(node, _fn=first_fn, _stamp=stamps.append):
            _stamp(clock())
            return _fn(node)

        ops[0] = (first_name, first)
        depth = self.sizes.explore_depth
        result = m.adversary.explore(world_factory=m.adversary.make_small_world,
                                     op_alphabet=ops, depth=depth)
        stamps.append(clock())
        self._check(out, result, depth)
        out.simulated = {"depth": depth, "states": result.states_visited,
                         "transitions": result.transitions,
                         "violations": len(result.violations)}
        return result.states_visited, [(b - a) / 1e6 for a, b in zip(stamps, stamps[1:])]

    def finish(self, alphabet, out: Measurement) -> None:
        pass

    def fixed(self, m, alphabet, tracer=None) -> Measurement:
        out = Measurement()
        depth = self.sizes.explore_depth
        ops = alphabet
        failed = dict.fromkeys(OP_FAILURES + ("other",), 0)
        if tracer is not None:
            ops = [(name, tracer.wrap("adversary.op", _counted(fn, failed)))
                   for name, fn in ops]
        result = m.adversary.explore(world_factory=m.adversary.make_small_world,
                                     op_alphabet=ops, depth=depth)
        self._check(out, result, depth)
        out.simulated = {"depth": depth, "states": result.states_visited,
                         "transitions": result.transitions}
        if tracer is not None:
            out.layer = {"adversary.op.failed." + k: v for k, v in failed.items()}
            out.layer["adversary.new_state_ratio"] = (
                result.states_visited / max(1, result.transitions))
        return out


def _counted(fn, failed):
    """Count an op's failures by exception class."""
    def op(node):
        try:
            return fn(node)
        except Exception as exc:
            kind = type(exc).__name__
            failed[kind if kind in failed else "other"] += 1
            raise
    return op


# ---------------------------------------------------------------------------
# scenario_fuzz
# ---------------------------------------------------------------------------

class ScenarioFuzz:
    """A stream of random honest scenarios, each parsed from text and run
    with its trace and per-directive invariant checks, as `teesim run`
    does. Set-up generates a pool from the seed's range and serializes it;
    the stream cycles through the pool, so later passes also check that
    every trace digest repeats."""

    name = "scenario_fuzz"
    latency_item = "scenario"

    def __init__(self, sizes: Sizes, reference: dict):
        self.sizes = sizes
        self.pool_digests = reference["scenario_fuzz"]["pool_digests"].get(
            str(sizes.pool), {})
        self.digests: Optional[List[str]] = None
        self.records = 0

    def seeds(self, seed: int, count: int) -> range:
        return range(seed * self.sizes.pool, seed * self.sizes.pool + count)

    def setup(self, m, seed: int):
        sc = m.scenario
        return seed, [sc.serialize(sc.make_random_scenario(s))
                      for s in self.seeds(seed, self.sizes.pool)]

    def unit(self, m, inputs, out: Measurement):
        """One pass over the pool. The first pass records every trace
        digest; later passes must reproduce them."""
        seed, texts = inputs
        sc = m.scenario
        first_pass = self.digests is None
        if first_pass:
            self.digests, self.records = [], 0
        latencies = []
        for k, text in enumerate(texts):
            t0 = clock()
            result = sc.run_scenario(sc.parse(text), with_trace=True)
            latencies.append((clock() - t0) / 1e6)
            out.check(result.exit_code == 0,
                      f"scenario {self.seeds(seed, k + 1)[k]} exited {result.exit_code}")
            if first_pass:
                self.digests.append(result.trace_digest)
                self.records += len(result.world.engine.records)
            else:
                out.check(result.trace_digest == self.digests[k],
                          f"scenario {self.seeds(seed, k + 1)[k]} trace digest "
                          "changed between passes")
        return len(texts), latencies

    def finish(self, inputs, out: Measurement) -> None:
        seed, texts = inputs
        pool_digest = hashlib.sha256("\n".join(self.digests).encode()).hexdigest()
        want = self.pool_digests.get(str(seed))
        if want is not None:
            out.check(pool_digest == want,
                      f"pool digest {pool_digest} != reference {want}")
        out.simulated = {"scenarios": len(texts), "trace_records": self.records,
                         "pool_digest": pool_digest,
                         "pool_digest_reference": want or "none for this seed"}

    def fixed(self, m, inputs, tracer=None) -> Measurement:
        seed, _ = inputs
        sc = m.scenario
        out = Measurement()
        texts = [sc.serialize(sc.make_random_scenario(s))
                 for s in self.seeds(seed, self.sizes.pool)]
        for s, text in zip(self.seeds(seed, len(texts)), texts):
            result = sc.run_scenario(sc.parse(text), with_trace=True)
            out.check(result.exit_code == 0, f"scenario {s} exited {result.exit_code}")
        return out


# ---------------------------------------------------------------------------
# costmodel_suites
# ---------------------------------------------------------------------------

class CostmodelSuites:
    """The three cost-model suites (`cpu_adjust`, `dl_batch`,
    `mem_query`) in repeated passes; the seed orders the suites within
    each pass. Every result must equal the recorded one."""

    name = "costmodel_suites"
    latency_item = "suite pass"

    def __init__(self, sizes: Sizes, reference: dict):
        self.sizes = sizes
        self.results = reference["costmodel_suites"]["results"]
        self.last: Dict[str, dict] = {}

    def setup(self, m, seed: int):
        return random.Random(seed)

    def _pass(self, m, rng, out: Measurement) -> Dict[str, dict]:
        results = {}
        for name in rng.sample(sorted(self.results), len(self.results)):
            result = _canonical_json(m.bench.run_suite(name))
            out.check(result == self.results[name],
                      f"suite {name} result differs from the reference")
            results[name] = result
        out.check(results["mem_query"]["flexible_beats_all_comparable"] is True,
                  "mem_query: flexible no longer beats all comparable statics")
        return results

    def unit(self, m, rng, out: Measurement):
        t0 = clock()
        self.last = self._pass(m, rng, out)
        return 1, [(clock() - t0) / 1e6]

    def finish(self, rng, out: Measurement) -> None:
        out.simulated = simulated_suite_stats(self.last)

    def fixed(self, m, rng, tracer=None) -> Measurement:
        out = Measurement()
        self._pass(m, rng, out)
        return out


def simulated_suite_stats(results: Dict[str, dict]) -> Dict[str, object]:
    stats: Dict[str, object] = {}
    cpu = results["cpu_adjust"]
    for pair, row in cpu["rows"].items():
        stats[f"cpu_adjust.{pair}.ratio"] = row["ratio"]
    stats["cpu_adjust.band"] = cpu["band"]
    for n, row in results["dl_batch"]["rows"].items():
        stats[f"dl_batch.images{n}.speedup_quota1"] = row["speedup_quota1"]
        stats[f"dl_batch.images{n}.speedup_quota2"] = row["speedup_quota2"]
    mem = results["mem_query"]
    for strategy, row in mem["rows"].items():
        stats[f"mem_query.{strategy}.completion_s"] = row["completion_s"]
        stats[f"mem_query.{strategy}.utilization"] = row["utilization"]
    stats["mem_query.flexible_beats_all_comparable"] = mem["flexible_beats_all_comparable"]
    return stats


WORKLOADS = {w.name: w for w in (ExploreBfs, ScenarioFuzz, CostmodelSuites)}
