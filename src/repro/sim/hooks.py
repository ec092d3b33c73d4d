"""Kprobe-like function hooks.

The paper's FUNCTION trigger attaches a guardrail check to a kernel function
(like a kprobe).  In the simulator, subsystems declare named
:class:`HookPoint` objects and call ``hook.fire(...)`` at the corresponding
code location; guardrail monitors (and anything else) attach :class:`Probe`
callbacks to those points through a :class:`HookRegistry`.
"""

from repro.trace.tracer import TRACER


class Probe:
    """A callback attached to a hook point.

    ``callback`` receives ``(hook_name, now, payload)`` where ``payload`` is
    whatever dict the firing site passed.  Probes can be detached; detaching
    is idempotent.
    """

    __slots__ = ("callback", "name", "_attached_to")

    def __init__(self, callback, name="probe"):
        self.callback = callback
        self.name = name
        self._attached_to = None

    def detach(self):
        if self._attached_to is not None:
            self._attached_to._remove(self)
            self._attached_to = None

    @property
    def attached(self):
        return self._attached_to is not None


class HookPoint:
    """A named location in simulated kernel code where probes may fire."""

    def __init__(self, name, engine):
        self.name = name
        self.engine = engine
        self._probes = []
        self.fire_count = 0
        self.probe_error_count = 0
        self._fire_depth = 0
        self._deferred_removals = []

    def attach(self, callback, name="probe"):
        """Attach ``callback`` and return the created :class:`Probe`."""
        probe = callback if isinstance(callback, Probe) else Probe(callback, name)
        if probe._attached_to is not None:
            raise ValueError("probe {!r} is already attached".format(probe.name))
        probe._attached_to = self
        self._probes.append(probe)
        return probe

    def _remove(self, probe):
        # Removing from the live list mid-fire would shift indices under the
        # iteration; defer until the outermost fire() unwinds.
        if self._fire_depth:
            self._deferred_removals.append(probe)
            return
        try:
            self._probes.remove(probe)
        except ValueError:
            pass

    def fire(self, **payload):
        """Invoke every attached probe with the call-site payload.

        ``fire`` runs twice per I/O even with nothing attached (0.02 of a
        ``fig2_guarded`` run), so it iterates the live probe list by index
        instead of copying it per fire.  The bound is captured first (probes
        attached during a fire wait for the next one) and detach-during-fire
        is handled by deferring list removal —
        detached probes are skipped via their ``_attached_to`` marker, same
        semantics as the old copy-then-check loop without the allocation.
        """
        self.fire_count += 1
        if TRACER.active:
            TRACER.emit("hook", self.name, self.engine.now,
                        args={"probes": len(self._probes)})
        probes = self._probes
        if not probes:
            return
        now = self.engine.now
        self._fire_depth += 1
        try:
            count = len(probes)
            for i in range(count):
                probe = probes[i]
                if probe._attached_to is self:
                    try:
                        probe.callback(self.name, now, payload)
                    except Exception as error:
                        # Crash-only: one raising probe (a sample buffer, a
                        # collector) must not abort the firing site or starve
                        # the probes behind it.  Guardrail probes contain
                        # their own crashes in the monitor; anything that
                        # reaches here is counted and traced instead of
                        # tearing the run down.
                        self.probe_error_count += 1
                        if TRACER.active:
                            TRACER.emit(
                                "supervisor", "probe_crash", now,
                                args={"hook": self.name, "probe": probe.name,
                                      "error": type(error).__name__})
        finally:
            self._fire_depth -= 1
            if not self._fire_depth and self._deferred_removals:
                for probe in self._deferred_removals:
                    try:
                        probes.remove(probe)
                    except ValueError:
                        pass
                del self._deferred_removals[:]

    @property
    def probe_count(self):
        return len(self._probes)


class HookRegistry:
    """All hook points of a simulated kernel, keyed by dotted name.

    Names follow a ``subsystem.function`` convention, e.g.
    ``storage.submit_io`` or ``sched.pick_next_task``, standing in for the
    kernel symbols a FUNCTION trigger would name.
    """

    def __init__(self, engine):
        self.engine = engine
        self._points = {}

    def declare(self, name):
        """Create (or return the existing) hook point called ``name``."""
        if name not in self._points:
            self._points[name] = HookPoint(name, self.engine)
        return self._points[name]

    def get(self, name):
        """Look up a hook point; raises ``KeyError`` with a helpful message."""
        try:
            return self._points[name]
        except KeyError:
            known = ", ".join(sorted(self._points)) or "<none>"
            raise KeyError(
                "unknown hook point {!r}; declared points: {}".format(name, known)
            ) from None

    def __contains__(self, name):
        return name in self._points

    def names(self):
        return sorted(self._points)
