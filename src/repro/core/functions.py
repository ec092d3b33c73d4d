"""The function table: named, swappable policy slots.

The paper's A2 action is ``REPLACE(old_function_ptr, new_function_ptr)`` —
swap a misbehaving learned policy for a known-safe fallback.  In a real
kernel this would patch a function pointer (e.g. a struct ops entry); here
subsystems call through a named slot in a :class:`FunctionTable`, and
REPLACE rebinds the slot.

Slots remember their original binding so a later ``restore`` (e.g. after
retraining completes) can re-enable the learned policy.
"""

from repro.core.errors import ActionError


class FunctionSlot:
    """One indirection point.  ``current`` is what callers actually invoke."""

    __slots__ = ("name", "original", "current", "swap_count")

    def __init__(self, name, implementation):
        self.name = name
        self.original = implementation
        self.current = implementation
        self.swap_count = 0

    def __call__(self, *args, **kwargs):
        return self.current(*args, **kwargs)


class FunctionTable:
    """Named slots plus a registry of candidate implementations."""

    def __init__(self):
        self._slots = {}
        self._implementations = {}

    def register(self, name, implementation):
        """Create slot ``name`` bound to ``implementation``; returns the slot."""
        if name in self._slots:
            raise ActionError("function slot {!r} already registered".format(name))
        slot = FunctionSlot(name, implementation)
        self._slots[name] = slot
        self._implementations[name] = implementation
        return slot

    def register_implementation(self, name, implementation):
        """Register a swap candidate that is not itself a call-through slot."""
        if name in self._implementations:
            raise ActionError("implementation {!r} already registered".format(name))
        self._implementations[name] = implementation

    def slot(self, name):
        try:
            return self._slots[name]
        except KeyError:
            known = ", ".join(sorted(self._slots)) or "<none>"
            raise ActionError(
                "unknown function slot {!r}; known slots: {}".format(name, known)
            ) from None

    def __contains__(self, name):
        return name in self._slots

    def resolve_implementation(self, name):
        if name in self._implementations:
            return self._implementations[name]
        raise ActionError("unknown implementation {!r}".format(name))

    def replace(self, old, new):
        """Rebind slot ``old`` to the implementation registered as ``new``."""
        slot = self.slot(old)
        implementation = self.resolve_implementation(new)
        slot.current = implementation
        slot.swap_count += 1
        return slot
