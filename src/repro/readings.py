"""The slotted, immutable sample carried end-to-end: the one wire payload.

Every message on the device bus is a :class:`Reading`: a value, its
validity flag and the simulated time it was taken.  A status is a sample
too, its state coded in the value (``pump_status`` reads 1.0 while the
supervisor has the pump stopped, ``probe_status`` 0.0 for a detached
probe).  The bus builds a Reading only for a sample somebody receives and
hands that object to every subscriber, carried opaquely through
:class:`repro.sim.channel.Channel` messages with no envelope: its ``time``
is its publish instant.  Consumers (supervisor, workflow, EHR and alarm
layers) read it natively, by attribute, with no type check.

A ``Reading`` is not a mapping: read its fields as attributes.
:meth:`Reading.as_dict` renders the dict form for serialisation.
"""

from __future__ import annotations

from typing import Any

_FIELDS = ("value", "valid", "time")
_set = object.__setattr__


class Reading:
    """One sensor sample: ``value`` measured at ``time``, flagged ``valid``.

    Instances are immutable (assignment raises), hashable, and compare equal
    to other Readings with the same three fields.
    """

    __slots__ = _FIELDS

    value: Any
    valid: bool
    time: float

    def __init__(self, value: Any, valid: bool = True, time: float = 0.0) -> None:
        _set(self, "value", value)
        _set(self, "valid", valid)
        _set(self, "time", time)

    # ---------------------------------------------------------- immutability
    def __setattr__(self, name: str, _value: Any) -> None:
        raise AttributeError(f"Reading is immutable (tried to set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Reading is immutable (tried to delete {name!r})")

    # ----------------------------------------------------------- serialising
    def as_dict(self) -> dict[str, Any]:
        """The legacy dict payload form (same key order the devices used)."""
        return {"value": self.value, "valid": self.valid, "time": self.time}

    # ------------------------------------------------------------ comparison
    def __eq__(self, other: object) -> bool:
        if type(other) is Reading:
            return (self.value == other.value and self.valid == other.valid
                    and self.time == other.time)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((Reading, self.value, self.valid, self.time))

    def __reduce__(self) -> tuple[type, tuple[Any, bool, float]]:
        # Default slot pickling restores state via setattr, which immutability
        # blocks; rebuild through the constructor instead (campaign workers
        # move objects across processes).
        return (Reading, (self.value, self.valid, self.time))

    def __repr__(self) -> str:
        return f"Reading(value={self.value!r}, valid={self.valid!r}, time={self.time!r})"

