import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teesim.engine import COSTS_NS, Engine, copy_cost_ns
from teesim.errors import NotOwner
from teesim.hw_model import ROS_CTX, CoreClass, DevKind, default_config
from teesim.units import KB, MB, MS_NS
from teesim.world import World


def test_same_time_dispatches_in_insertion_order():
    eng = Engine()
    out = []
    eng.schedule(0, lambda: out.append("a"))
    eng.schedule(0, lambda: out.append("b"))
    eng.run_until(1)
    assert out == ["a", "b"]


def test_time_order_wins_over_insertion():
    eng = Engine()
    out = []
    eng.schedule(5, lambda: out.append("late"))
    eng.schedule(3, lambda: out.append("early"))
    eng.run_until(10)
    assert out == ["early", "late"]


def test_cancelled_event_neither_runs_nor_bounds_the_queue():
    eng = Engine()
    out = []
    eng.schedule(5, lambda: out.append("a"))
    first = eng.schedule(2, lambda: out.append("cancelled"))
    eng.schedule(3, lambda: out.append("b"))
    eng.cancel(first)
    assert eng.next_event_ns == 3
    # An event may cancel a later one while the queue is being run.
    late = eng.schedule(7, lambda: out.append("cancelled too"))
    eng.schedule(6, lambda: eng.cancel(late))
    assert eng.run_until(10) == 3
    assert out == ["b", "a"] and eng.next_event_ns is None


def test_cancel_of_none_or_an_unknown_seq_leaves_the_queue_equal():
    eng = Engine()
    for delay in (5, 1, 3, 1):
        eng.schedule(delay, print)
    before = list(eng._queue)
    eng.cancel(None)
    assert eng._queue == before
    eng.cancel(99)
    assert eng._queue == before


def test_schedule_passes_its_args_in_time_then_insertion_order():
    eng = Engine()
    out = []
    eng.schedule(4, out.append, "late")
    eng.schedule(2, lambda *args: out.append(args), "a", 1)
    eng.schedule(2, out.append, "b")
    eng.schedule(2, lambda: out.append("no args"))
    assert eng.run_until(10) == 4
    assert out == [("a", 1), "b", "no args", "late"]


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.schedule(-1, lambda: None)


def test_empty_queue_advances_clock():
    eng = Engine()
    assert eng.run_until(1000) == 0
    assert eng.now_ns == 1000


def test_event_times_nondecreasing():
    eng = Engine()
    seen = []
    for delay in (7, 3, 3, 9, 1):
        eng.schedule(delay, lambda: seen.append(eng.now_ns))
    eng.run_until(100)
    assert seen == sorted(seen)


def test_copy_cost_anchors_exact():
    expected = {
        64 * KB: 16_580_000,
        256 * KB: 17_690_000,
        1024 * KB: 22_460_000,
        4 * MB: 39_460_000,
        16 * MB: 110_650_000,
        64 * MB: 323_420_000,
    }
    for nbytes, ns in expected.items():
        assert copy_cost_ns(nbytes) == ns


def test_copy_cost_zero_and_chunking():
    assert copy_cost_ns(0) == 0
    assert copy_cost_ns(128 * MB) == 2 * 323_420_000
    # interpolation between 64KB and 256KB anchors at the midpoint
    mid = (64 * KB + 256 * KB) // 2
    assert copy_cost_ns(mid) == (16_580_000 + 17_690_000) // 2


@given(st.integers(min_value=0, max_value=256 * MB),
       st.integers(min_value=0, max_value=256 * MB))
@settings(max_examples=120, deadline=None)
def test_copy_cost_monotone(a, b):
    lo, hi = sorted((a, b))
    assert copy_cost_ns(lo) <= copy_cost_ns(hi)


def test_ipi_costs_exact_in_ns():
    assert COSTS_NS["ipi_ros_to_sb"] == 23_890
    assert COSTS_NS["ipi_sb_to_ros"] == 53_120


def test_every_buildable_cost_name_has_a_row():
    """Every name `transfer_core` and `switch_peripheral` can charge is a
    row of the table, for each core class and device kind."""
    for cls in CoreClass:
        for direction in ("inc", "dec"):
            for opt in ("opt", "noopt"):
                assert f"core_{direction}_{cls.value}_{opt}" in COSTS_NS
    for kind in DevKind:
        for op in ("map", "unmap"):
            for side in ("ros", "sandbox"):
                assert f"periph_{op}_{kind.value}_{side}" in COSTS_NS


def test_other_rows_are_the_cheapest_profiled_rows():
    for op in ("map", "unmap"):
        profiled = [ns for name, ns in COSTS_NS.items()
                    if name.startswith(f"periph_{op}_") and "_other_" not in name]
        for side in ("ros", "sandbox"):
            assert COSTS_NS[f"periph_{op}_other_{side}"] == min(profiled)


def test_core_adjust_table_values():
    assert COSTS_NS["core_inc_big_noopt"] == 199 * MS_NS
    assert COSTS_NS["core_inc_big_opt"] == 79 * MS_NS
    assert COSTS_NS["core_dec_little_opt"] == 42 * MS_NS


def test_trace_digest_deterministic():
    def drive():
        eng = Engine()
        eng.schedule(10, lambda: eng.trace("x", "op1", {"k": 1}))
        eng.schedule(5, eng.charge, "y", "boot")
        eng.run_until(20)
        return eng.serialize_trace({"seed": 1})

    assert drive() == drive()


def test_trace_time_reported_in_exact_microseconds():
    eng = Engine()
    eng.schedule(23_890, lambda: eng.trace("x", "tick"))
    eng.run_until(1 * MS_NS)
    assert eng.records[0]["time_us"] == "23.89"


@pytest.mark.parametrize("traced", [True, False])
def test_refusal_traces_only_into_a_sink(traced):
    """A refused call writes its rejection record where it raises, unless
    the engine keeps no records; charges return their cost either way."""
    world = World(default_config(), instant=True, traced=traced)
    eng = world.engine
    with pytest.raises(NotOwner):
        world.monitor.transfer_core(1, 5, ROS_CTX)
    assert eng.charge("x", "boot", 7) == 7
    want = [("monitor", "transfer_core", "rejected", "NotOwner", 1),
            ("x", "cost", "ok", None, 2)]
    assert [(r["actor"], r["op"], r["verdict"], r.get("reason"), r["seq"])
            for r in eng.records or []] == (want if traced else [])
    assert eng.records is None or traced
