"""Declarative fault plans: what to break, where, and when.

A :class:`FaultPlan` is an ordered list of :class:`FaultSpec` entries, each
describing one injectable fault against either a policy function slot or a
feature-store key, active inside a virtual-time window.  Plans come from
JSON documents (``--plan faults.json``) or from repeatable CLI flags
(``--fault raise@storage.pick_device:start=6,stop=9``); both forms produce
identical specs, and a plan plus a seed fully determines every injection —
fault runs are as reproducible as clean ones.

Injected policy crashes raise :class:`InjectedFault`, which is deliberately
**not** a :class:`~repro.core.errors.GuardrailError`: the whole point of the
crash-only work is that the enforcement layer survives *arbitrary*
exceptions, not just its own typed ones.
"""

import json

from repro.core.errors import FaultError
from repro.sim.units import SECOND, us

#: The closed set of injectable fault kinds (``grctl faults --list``).
FAULT_KINDS = {
    "raise": "target policy slot raises InjectedFault mid-inference",
    "nan": "target policy slot returns NaN garbage instead of a decision",
    "stall": "target policy slot stalls: adds latency_us to every decision",
    "stale": "feature-store loads of the target key serve the value frozen "
             "at the window start",
    "corrupt": "feature-store loads of the target key serve NaN",
}

#: Kinds that target a function slot (policy) vs. a feature-store key.
POLICY_KINDS = ("raise", "nan", "stall")
STORE_KINDS = ("stale", "corrupt")


class InjectedFault(RuntimeError):
    """The exception a ``raise`` fault throws from inside a policy."""


class FaultSpec:
    """One injectable fault.

    ``start_ns``/``stop_ns`` bound the active window in virtual time
    (``stop_ns=None`` means "until the run ends"); ``probability`` gates
    each opportunity through a seeded RNG stream; ``count`` caps the total
    number of injections; ``latency_ns`` is the added decision latency for
    ``stall`` faults.
    """

    __slots__ = ("kind", "target", "start_ns", "stop_ns", "probability",
                 "count", "latency_ns", "index")

    def __init__(self, kind, target, start_s=0.0, stop_s=None,
                 probability=1.0, count=None, latency_us=0.0):
        if kind not in FAULT_KINDS:
            raise FaultError(
                "unknown fault kind {!r}; known: {}".format(
                    kind, ", ".join(sorted(FAULT_KINDS))))
        if not target or not isinstance(target, str):
            raise FaultError("fault target must be a non-empty string")
        if not 0.0 < probability <= 1.0:
            raise FaultError(
                "fault probability must be in (0, 1], got {}".format(
                    probability))
        if count is not None and count < 1:
            raise FaultError("fault count must be >= 1, got {}".format(count))
        if latency_us < 0:
            raise FaultError("fault latency must be >= 0")
        if kind == "stall" and latency_us == 0:
            raise FaultError("stall faults need latency_us > 0")
        self.kind = kind
        self.target = target
        self.start_ns = int(round(start_s * SECOND))
        self.stop_ns = None if stop_s is None else int(round(stop_s * SECOND))
        if self.stop_ns is not None and self.stop_ns <= self.start_ns:
            raise FaultError(
                "fault window is empty: start={}s stop={}s".format(
                    start_s, stop_s))
        self.probability = float(probability)
        self.count = None if count is None else int(count)
        self.latency_ns = us(latency_us)
        self.index = 0  # position in the owning plan; set by FaultPlan

    def active(self, now):
        """Whether ``now`` falls inside this fault's window."""
        if now < self.start_ns:
            return False
        return self.stop_ns is None or now < self.stop_ns

    def to_dict(self):
        out = {"kind": self.kind, "target": self.target,
               "start_s": self.start_ns / SECOND}
        if self.stop_ns is not None:
            out["stop_s"] = self.stop_ns / SECOND
        if self.probability != 1.0:
            out["probability"] = self.probability
        if self.count is not None:
            out["count"] = self.count
        if self.latency_ns:
            out["latency_us"] = self.latency_ns / 1000
        return out

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise FaultError("fault entry must be an object, got {!r}".format(
                data))
        unknown = set(data) - {"kind", "target", "start_s", "stop_s",
                               "probability", "count", "latency_us"}
        if unknown:
            raise FaultError("unknown fault field(s): {}".format(
                ", ".join(sorted(unknown))))
        try:
            return cls(
                data.get("kind"), data.get("target"),
                start_s=float(data.get("start_s", 0.0)),
                stop_s=(None if data.get("stop_s") is None
                        else float(data["stop_s"])),
                probability=float(data.get("probability", 1.0)),
                count=data.get("count"),
                latency_us=float(data.get("latency_us", 0.0)),
            )
        except (TypeError, ValueError) as exc:
            raise FaultError("bad fault entry {!r}: {}".format(data, exc))

    def __repr__(self):
        window = "[{}s, {})".format(
            self.start_ns / SECOND,
            "..." if self.stop_ns is None else "{}s".format(
                self.stop_ns / SECOND))
        return "FaultSpec({}@{}, {})".format(self.kind, self.target, window)


#: ``--fault`` option keys -> FaultSpec constructor keyword + coercion.
_FLAG_KEYS = {
    "start": ("start_s", float),
    "stop": ("stop_s", float),
    "p": ("probability", float),
    "count": ("count", int),
    "latency_us": ("latency_us", float),
}


def parse_fault_flag(text):
    """Parse one ``--fault`` value: ``KIND@TARGET[:key=value,...]``.

    Keys: ``start``/``stop`` (virtual seconds), ``p`` (probability),
    ``count`` (max injections), ``latency_us`` (stall latency).
    """
    head, _, options = text.partition(":")
    kind, sep, target = head.partition("@")
    if not sep:
        raise FaultError(
            "bad --fault {!r}: expected KIND@TARGET[:key=value,...]".format(
                text))
    kwargs = {}
    for part in options.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep or key.strip() not in _FLAG_KEYS:
            raise FaultError(
                "bad --fault option {!r}; known keys: {}".format(
                    part, ", ".join(sorted(_FLAG_KEYS))))
        name, coerce = _FLAG_KEYS[key.strip()]
        try:
            kwargs[name] = coerce(value)
        except ValueError:
            raise FaultError("bad --fault option value {!r}".format(part))
    return FaultSpec(kind.strip(), target.strip(), **kwargs)


class FaultPlan:
    """An ordered, seeded collection of fault specs."""

    def __init__(self, faults=(), seed=0):
        self.faults = list(faults)
        self.seed = int(seed)
        for index, spec in enumerate(self.faults):
            spec.index = index

    def __len__(self):
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def policy_faults(self):
        """Specs targeting function slots, grouped: ``{slot: [spec, ...]}``."""
        groups = {}
        for spec in self.faults:
            if spec.kind in POLICY_KINDS:
                groups.setdefault(spec.target, []).append(spec)
        return groups

    def store_faults(self):
        """Specs targeting store keys, grouped: ``{key: [spec, ...]}``."""
        groups = {}
        for spec in self.faults:
            if spec.kind in STORE_KINDS:
                groups.setdefault(spec.target, []).append(spec)
        return groups

    def to_dict(self):
        return {"seed": self.seed,
                "faults": [spec.to_dict() for spec in self.faults]}

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise FaultError("fault plan must be an object")
        unknown = set(data) - {"seed", "faults"}
        if unknown:
            raise FaultError("unknown fault-plan field(s): {}".format(
                ", ".join(sorted(unknown))))
        entries = data.get("faults", [])
        if not isinstance(entries, list):
            raise FaultError("fault plan 'faults' must be a list")
        return cls([FaultSpec.from_dict(e) for e in entries],
                   seed=data.get("seed", 0))

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise FaultError("fault plan is not valid JSON: {}".format(exc))
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path):
        with open(path) as handle:
            return cls.from_json(handle.read())

    @classmethod
    def from_flags(cls, flags, seed=0):
        """Build a plan from repeated ``--fault`` flag values."""
        return cls([parse_fault_flag(flag) for flag in flags], seed=seed)

    def __repr__(self):
        return "FaultPlan({} fault(s), seed={})".format(
            len(self.faults), self.seed)
