"""The slotted, immutable per-sample sensor reading carried end-to-end.

Every sensor sample in the system used to travel as a fresh three-key dict
(``{"value": ..., "valid": ..., "time": ...}``) allocated per published
reading — multiplied by devices x sample rate x campaign size, that dict was
the last per-reading allocation on the messaging hot path.  :class:`Reading`
replaces it: a ``__slots__`` value type built only for a sample somebody
receives (the bus builds it once a subscriber is found), carried opaquely
through :class:`repro.sim.channel.Channel` messages and
:class:`repro.middleware.bus.Envelope` envelopes, and consumed natively
(attribute access, no string-keyed lookups) by the supervisor, workflow,
EHR, and alarm layers.

A ``Reading`` is not a mapping: read its fields as attributes.  It is the
only sample shape a consumer understands: a handler ignores any payload
whose type is not ``Reading`` (status dicts such as ``pump_status`` are
states, not samples), and :meth:`Reading.as_dict` renders the dict form
for serialisation.
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

