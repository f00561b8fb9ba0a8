"""The state schema: each stateful class declares every attribute once, and
clone and canonical, both derived from that declaration, keep a clone
independent of its original."""

from collections import deque
from dataclasses import fields, is_dataclass

import pytest

from teesim.adversary import default_alphabet, explore, make_small_world
from teesim.hw_model import Machine
from teesim.monitor import Monitor, ResourceLedger
from teesim.ros import CmaPool, RosActor
from teesim.scenario import make_random_scenario, run_scenario
from teesim.sos import Idle, SandboxRuntime
from teesim.stage2 import Stage2TableSet
from teesim.world import World

STATEFUL = {Stage2TableSet, Machine, ResourceLedger, Monitor, CmaPool,
            RosActor, SandboxRuntime, World}
OWNED = ("keyed", "copied")  # roles whose value the object holds alone


def _explored_worlds():
    """A fresh small world, and the world after every transition of a
    depth-6 explore. Those are clones, which carry declared fields only, so
    the fresh world is what shows an undeclared field set in `__init__`."""
    reached = [make_small_world()]

    def recording(fn):
        def op(node):
            leaked = fn(node)
            reached.append(node.world)
            return leaked
        return op

    res = explore(op_alphabet=[(name, recording(fn))
                               for name, fn in default_alphabet()], depth=6)
    assert (res.states_visited, res.transitions) == (1147, 3357)
    return reached


def _scenario_world():
    """The world after one random honest scenario; its runtimes carry
    workloads, attached memory and a device."""
    world = run_scenario(make_random_scenario(0), with_trace=False).world
    assert not any(isinstance(rt.workload, Idle) for rt in world.runtimes.values())
    return [world]


@pytest.fixture(scope="module", params=[_explored_worlds, _scenario_world],
                ids=["explore", "scenario"])
def worlds(request):
    return request.param()


def _owned_values(obj):
    for name, field in type(obj).STATE.fields.items():
        if field.role in OWNED:
            value = vars(obj)[name]
            yield from value.values() if isinstance(value, dict) else (value,)


def stateful_objects(world):
    """Every object with a schema that the world holds, each once."""
    found, todo = {}, [world]
    while todo:
        obj = todo.pop()
        if id(obj) not in found:
            found[id(obj)] = obj
            todo.extend(v for v in _owned_values(obj) if type(v) in STATEFUL)
    return list(found.values())


def test_every_attribute_is_declared_once(worlds):
    seen = set()
    for world in worlds:
        for obj in stateful_objects(world):
            cls = type(obj)
            seen.add(cls)
            declared = set(cls.STATE.fields)
            assert set(vars(obj)) == declared, \
                f"{cls.__name__}: undeclared {sorted(set(vars(obj)) - declared)}, " \
                f"missing {sorted(declared - set(vars(obj)))}"
    assert seen == STATEFUL
    for cls in STATEFUL:
        for name, field in cls.STATE.fields.items():
            assert field.role != "copied" or field.reason, f"{cls.__name__}.{name}"


def _scramble(value) -> None:
    """Empty or null every container a clone holds in a keyed or copied field.
    Immutable values are left alone; a container the clone shares with its
    original is emptied in both."""
    if type(value) in STATEFUL:
        for name, field in type(value).STATE.fields.items():
            if field.role in OWNED:
                _scramble(vars(value)[name])
    elif isinstance(value, (dict, list, set, deque)):
        for item in list(value.values() if isinstance(value, dict) else value):
            _scramble(item)
        value.clear()
    elif is_dataclass(value) and not value.__dataclass_params__.frozen:
        for f in fields(value):
            setattr(value, f.name, None)


def _snapshot(obj):
    copied = {name: repr(vars(obj)[name])
              for name, field in type(obj).STATE.fields.items()
              if field.role == "copied"}
    return obj.canonical(), copied


def test_clone_shares_no_copied_container(worlds):
    for world in worlds:
        for obj in stateful_objects(world):
            before = _snapshot(obj)
            _scramble(obj.clone())
            assert _snapshot(obj) == before, type(obj).__name__


def test_clone_rewires_back_references():
    world = make_small_world()
    world.create_sandbox("w")
    other = world.clone()
    mon, ros = other.monitor, other.ros
    assert mon.machine is ros.machine is other.machine
    assert mon.engine is ros.engine is other.engine
    assert ros.monitor is mon and mon.driver_states is ros.driver_states
    assert other.canonical() == world.canonical()
