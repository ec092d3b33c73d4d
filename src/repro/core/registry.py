"""The guardrail manager: incremental deployment and runtime update (§3.3, §6).

A :class:`GuardrailManager` owns every monitor loaded into one (simulated)
kernel.  Guardrails can be added incrementally while the system runs,
enabled/disabled, and *updated in place* — replacing a loaded guardrail with
a recompiled version without restarting the kernel, the paper's
"update guardrails at runtime without requiring a kernel reboot".
"""

from repro.core.compiler import CompiledGuardrail, GuardrailCompiler
from repro.core.errors import GuardrailError


class GuardrailManager:
    def __init__(self, host):
        self.host = host
        self.compiler = GuardrailCompiler()
        self._monitors = {}
        self.load_count = 0
        self.update_count = 0

    def load(self, guardrail, arm=True, cooldown=0):
        """Compile (if needed) and load a guardrail; returns its monitor.

        ``guardrail`` may be DSL text, a parsed spec, or an already compiled
        :class:`CompiledGuardrail`.
        """
        compiled = self._ensure_compiled(guardrail, cooldown)
        if compiled.name in self._monitors:
            raise GuardrailError(
                "guardrail {!r} is already loaded; use update() to replace it"
                .format(compiled.name)
            )
        monitor = compiled.instantiate(self.host)
        self._monitors[compiled.name] = monitor
        self.load_count += 1
        if arm:
            monitor.arm()
        return monitor

    def load_all(self, text):
        """Load and arm every guardrail block in a DSL file; returns the
        monitors."""
        from repro.core.spec import parse_guardrails

        return [self.load(spec) for spec in parse_guardrails(text)]

    def update(self, guardrail):
        """Replace a loaded guardrail with a recompiled, armed version, no
        reboot.

        The old monitor is disarmed first so there is no window where both
        versions fire.  Violation history does not carry over, and the new
        version has no action cooldown.
        """
        compiled = self._ensure_compiled(guardrail, 0)
        old = self._monitors.get(compiled.name)
        if old is None:
            raise GuardrailError(
                "guardrail {!r} is not loaded; use load()".format(compiled.name)
            )
        old.disarm()
        monitor = compiled.instantiate(self.host)
        self._monitors[compiled.name] = monitor
        self.update_count += 1
        monitor.arm()
        return monitor

    def unload(self, name):
        """Disarm and remove a guardrail."""
        monitor = self.get(name)
        monitor.disarm()
        del self._monitors[name]
        return monitor

    def get(self, name):
        try:
            return self._monitors[name]
        except KeyError:
            known = ", ".join(sorted(self._monitors)) or "<none>"
            raise GuardrailError(
                "no loaded guardrail named {!r}; loaded: {}".format(name, known)
            ) from None

    def __contains__(self, name):
        return name in self._monitors

    def names(self):
        return sorted(self._monitors)

    def monitors(self):
        """Loaded monitors in load order (dict insertion order)."""
        return list(self._monitors.values())

    def enable(self, name):
        self.get(name).arm()

    def disable(self, name):
        self.get(name).disarm()

    def total_overhead_ns(self):
        return sum(m.overhead.simulated_ns for m in self._monitors.values())

    def stats(self):
        return {name: self._monitors[name].stats() for name in self.names()}

    def _ensure_compiled(self, guardrail, cooldown):
        if isinstance(guardrail, CompiledGuardrail):
            return guardrail
        return self.compiler.compile(guardrail, cooldown=cooldown)
