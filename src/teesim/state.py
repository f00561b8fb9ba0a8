"""One field declaration per stateful class; clone and canonical come from it.

Each stateful class names every instance attribute once in its `STATE`
schema, with the role the attribute plays when the explorer copies a state
and when it decides whether two states are the same: keyed, copied (but not
keyed), shared, reset or rewired, as the constructors below describe. A
clone is a new instance holding the same attribute values, except that each
field with a copy function gets its own copy; the canonical key is the tuple
of the keyed fields' keys, in declaration order.
"""

from operator import methodcaller
from typing import Callable, NamedTuple, Optional


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
SET = keyed(lambda s: tuple(sorted(s)), copy=set)
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
"""


class Schema:
    """The declared fields of one class, and the clone and canonical
    functions derived from them; assign both in the class body.

    Both functions are generated from `_GENERATED`, as dataclass methods
    are, so each runs as fast as a hand-written one: a loop over the fields
    would add about a microsecond to every canonical call. They read and
    set attributes one by one, never through `__dict__`, which would turn
    the object's compact attribute storage into a dict and slow every later
    attribute access.
    """

    def __init__(self, after_clone: Optional[Callable] = None, **fields: Field):
        self.fields = fields
        env = {"new": object.__new__, "after_clone": after_clone}
        copies, keys = [], []
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
        exec(_GENERATED.format(
            copies="\n".join(copies), keys="".join(keys),
            rewire="    after_clone(other)" if after_clone is not None else "",
        ), env)
        self.clone = env["clone"]
        self.canonical = env["canonical"]
