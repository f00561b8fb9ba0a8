"""One field declaration per stateful class; clone and canonical come from it.

Each stateful class names every instance attribute once in its `STATE`
schema, with the role the attribute plays when the explorer copies a state
and when it decides whether two states are the same: keyed, copied (but not
keyed), shared, reset or rewired, as the constructors below describe. A
clone is a new instance holding the same attribute values, except that each
field with a copy function gets its own copy; the canonical key is the tuple
of the keyed fields' keys, in declaration order.

The explorer keys a state field by field: `keyed_leaves` lists every keyed
field under a world, and `FieldIds` gives each one an interned id, reusing
the parent state's id wherever the raw value is == the parent's.
"""

from operator import methodcaller
from typing import Callable, List, NamedTuple, Optional, Tuple


def clone_values(d: dict) -> dict:
    return {k: v.clone() for k, v in d.items()}


def sorted_items(d: dict) -> tuple:
    return tuple(sorted(d.items()))


class Field(NamedTuple):
    role: str
    copy: Optional[Callable] = None
    key: Optional[Callable] = None
    reason: str = ""


def keyed(key: Optional[Callable] = None, copy: Optional[Callable] = None) -> Field:
    """Keyed as `key(value)`, or as the value itself when key is None. `copy`
    makes the clone's own container; None means the value is immutable."""
    return Field("keyed", copy, key)


def copied(reason: str, copy: Optional[Callable] = None) -> Field:
    """Copied on clone but not keyed; `reason` says why leaving it out is safe."""
    return Field("copied", copy, reason=reason)


def reset(make: Callable) -> Field:
    """Replaced on clone by `make(old_value)`."""
    return Field("reset", make)


SHARED = Field("shared")  # immutable or configuration: a clone holds the same object
# A back-reference: None in a clone until the owner's `after_clone` hook
# points it at the owner's own copies.
REWIRED = Field("rewired")
KEYED = keyed()  # an immutable value, keyed as itself
DICT = keyed(sorted_items, copy=dict)
# A stateful object the owner holds alone: cloned and keyed by its own schema.
NESTED = keyed(methodcaller("canonical"), copy=methodcaller("clone"))


_GENERATED = """
def clone(obj):
    other = new(type(obj))
{copies}
{rewire}
    return other

def canonical(obj):
    return ({keys})

def same(obj, other):
    if type(other) is not type(obj):
        return NotImplemented
    return {same}
"""


class Schema:
    """The declared fields of one class, and the clone, canonical and same
    functions derived from them; assign the first two in the class body.

    `same` compares the keyed fields' raw values with ==, the immutable
    ones first as they are the cheapest. Equal raw values give equal keys,
    so a class whose objects are held in a keyed dict assigns it as
    `__eq__`, and the dict then compares by value instead of by identity.

    The functions are generated from `_GENERATED`, as dataclass methods
    are, so each runs as fast as a hand-written one: a loop over the fields
    would add about a microsecond to every canonical call. They read and
    set attributes one by one, never through `__dict__`, which would turn
    the object's compact attribute storage into a dict and slow every later
    attribute access.
    """

    def __init__(self, after_clone: Optional[Callable] = None, **fields: Field):
        self.fields = fields
        env = {"new": object.__new__, "after_clone": after_clone}
        copies, keys, scalars, containers = [], [], [], []
        for i, (name, f) in enumerate(fields.items()):
            env[f"copy{i}"], env[f"key{i}"] = f.copy, f.key
            if f.role == "rewired":
                copies.append(f"    other.{name} = None")
            elif f.copy is None:
                copies.append(f"    other.{name} = obj.{name}")
            else:
                copies.append(f"    other.{name} = copy{i}(obj.{name})")
            if f.role == "keyed":
                keys.append(f"obj.{name}, " if f.key is None
                            else f"key{i}(obj.{name}), ")
                (scalars if f.copy is None else containers).append(
                    f"obj.{name} == other.{name}")
        exec(_GENERATED.format(
            copies="\n".join(copies), keys="".join(keys),
            same=" and ".join(scalars + containers) or "True",
            rewire="    after_clone(other)" if after_clone is not None else "",
        ), env)
        self.clone = env["clone"]
        self.canonical = env["canonical"]
        self.same = env["same"]


def keyed_leaves(obj) -> List[Tuple[str, Field]]:
    """Every keyed field under obj, as (dotted attribute path, field), in the
    order `obj.canonical()` nests their keys. A NESTED field is not a leaf:
    the walk goes on through its value's own schema."""
    out = []
    for name, f in type(obj).STATE.fields.items():
        if f is NESTED:
            out += [(f"{name}.{path}", g)
                    for path, g in keyed_leaves(getattr(obj, name))]
        elif f.role == "keyed":
            out.append((name, f))
    return out


_FIELD_IDS = """
def fresh(obj):
{fresh}
    return ({ids})

def against(obj, parent, parent_ids):
{against}
    return ({ids})
"""


class FieldIds:
    """The interned ids of an object's keyed leaves, in `ids` (value -> id,
    assigned in first-seen order), as a tuple in `leaves` order.

    `fresh(obj)` keys every leaf. `against(obj, parent, parent_ids)` keys
    obj against a parent whose tuple is `parent_ids`: a leaf whose raw value
    == the parent's keeps the parent's id, and only the others are keyed
    and interned. Both are generated, like a schema's functions, so a leaf
    costs no Python call unless its key is computed.
    """

    def __init__(self, leaves: List[Tuple[str, Field]], ids: dict):
        env = {"ids": ids, "setdefault": ids.setdefault}
        # Local names for each owner object in obj and parent, read once.
        fresh, against, names = [], [], {(): ("obj", "parent")}
        for i, (path, f) in enumerate(leaves):
            *owner, attr = path.split(".")
            for n, step in enumerate(owner):
                up, at = tuple(owner[:n]), tuple(owner[:n + 1])
                if at not in names:
                    o_up, p_up = names[up]
                    o, p = names[at] = f"o{len(names)}", f"p{len(names)}"
                    fresh.append(f"    {o} = {o_up}.{step}")
                    against.append(f"    {o} = {o_up}.{step}")
                    against.append(f"    {p} = {p_up}.{step}")
            o, p = names[tuple(owner)]
            env[f"key{i}"] = f.key
            value = "v" if f.key is None else f"key{i}(v)"
            fresh.append(f"    v = {o}.{attr}")
            fresh.append(f"    i{i} = setdefault({value}, len(ids))")
            against.append(f"    v = {o}.{attr}")
            against.append(f"    i{i} = parent_ids[{i}] if v == {p}.{attr} "
                           f"else setdefault({value}, len(ids))")
        exec(_FIELD_IDS.format(
            fresh="\n".join(fresh), against="\n".join(against),
            ids="".join(f"i{i}, " for i in range(len(leaves))),
        ), env)
        # Popped from env, their globals: no cycle keeps the ids table alive.
        self.fresh = env.pop("fresh")
        self.against = env.pop("against")
