"""Dependency-tracked property checking (§6).

"Another interesting area ... is the potential to improve over
trigger-based periodic checking by tracking a minimal set of data
dependencies, enabling such properties to be automatically checked only
when relevant system state changes."

:func:`rule_load_keys` statically extracts the feature-store keys a
guardrail's rules LOAD — the rule's exact read set, thanks to the closed
expression language.  :class:`DependencyTrigger` subscribes to store
changes and fires the monitor only when one of those keys (or a key it is
derived from) changes, instead of on a timer.  ``min_spacing`` bounds the
worst-case check rate the way the verifier's minimum TIMER interval does.
"""

from repro.core.spec import ast as A
from repro.core.triggers import Trigger


def expression_load_keys(expr):
    """All LOAD keys appearing in one expression."""
    keys = set()
    _walk(expr, keys)
    return keys


def _walk(expr, keys):
    if isinstance(expr, A.Load):
        keys.add(expr.key)
    elif isinstance(expr, A.Aggregate):
        # An aggregate reads its derived key, whose version bumps whenever
        # the source key is saved — watching it is sufficient.
        keys.add(expr.derived_name())
    elif isinstance(expr, A.UnaryOp):
        _walk(expr.operand, keys)
    elif isinstance(expr, A.BinaryOp):
        _walk(expr.left, keys)
        _walk(expr.right, keys)
    elif isinstance(expr, A.Call):
        for arg in expr.args:
            _walk(arg, keys)


def rule_load_keys(spec):
    """The read set of a guardrail spec's rules."""
    keys = set()
    for rule in spec.rules:
        keys |= expression_load_keys(rule.expression)
    return keys


class DependencyTrigger(Trigger):
    """Fires when any watched feature-store key changes.

    Derived keys (e.g. ``false_submit_rate``) change when their source key
    is saved; the store bumps the derived key's version on source saves, so
    watching the derived key's name is sufficient.
    """

    def __init__(self, keys, min_spacing=0):
        self.keys = set(keys)
        self.min_spacing = min_spacing
        self._unsubscribe = None
        self._fire = None
        self._last_fired = None

    def arm(self, host, fire):
        if self._unsubscribe is not None:
            raise RuntimeError("dependency trigger is already armed")
        self._fire = fire
        self._unsubscribe = host.store.subscribe(self._on_change)

    def _on_change(self, key, value, now):
        if key not in self.keys:
            return
        if (self.min_spacing and self._last_fired is not None
                and now - self._last_fired < self.min_spacing):
            return
        self._last_fired = now
        self._fire({"changed_key": key})

    def disarm(self):
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        self._fire = None


def convert_to_dependency_triggered(monitor, min_spacing=0):
    """Swap a loaded monitor's triggers for one dependency trigger.

    Returns the new trigger.  The monitor keeps its rules, actions, and
    stats; only the "when to check" changes — exactly the decoupling §4.1
    argues for.
    """
    keys = rule_load_keys(monitor.compiled.spec)
    was_enabled = monitor.enabled
    monitor.disarm()
    trigger = DependencyTrigger(keys, min_spacing=min_spacing)
    monitor.triggers = [trigger]
    if was_enabled:
        monitor.arm()
    return trigger
