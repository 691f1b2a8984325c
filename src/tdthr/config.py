"""Simulation configuration, each field declared once.

A field's declaration names its YAML section, its default (whose type is
the field's type), its range rules and, where the YAML spells it otherwise,
its key. `SimConfig.from_dict`, `to_dict` and `validate` read these
declarations through `dataclasses.fields`, and every error names the field
as the YAML spells it, `section.key`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields

from .core import NodeId, Position
from .forwarding import PROTOCOLS

PRIMARY_SINK: NodeId = 0
SECONDARY_SINK: NodeId = 1
SOURCE: NodeId = 2

# Range rules, (predicate, message). A predicate only sees values that
# passed the field's type check, so numbers are finite.
_POSITIVE = (lambda v: v > 0, "must be positive")
_UNIT = (lambda v: 0 <= v <= 1, "must lie in [0, 1]")
_UNIT_OPEN_LOW = (lambda v: 0 < v <= 1, "must lie in (0, 1]")
_UNIT_OPEN_HIGH = (lambda v: 0 <= v < 1, "must lie in [0, 1)")
# An energy in joules is run in integer nanojoules (`core.joules_to_nj`).
_FINITE_NJ = (lambda v: math.isfinite(v * 1e9), "must be finite in nanojoules")


def _at_least(lo):
    return (lambda v: v >= lo, f"must be >= {lo}")


_NON_NEGATIVE = _at_least(0)


def _f(section, default, *rules, key=None):
    """A field in YAML `section` under `key` (the attribute name if None)
    whose value must satisfy each of `rules`, in order, once it has the type
    of `default`."""
    return field(default=default,
                 metadata={"section": section, "key": key, "rules": rules})


@dataclass
class SimConfig:
    node_count: int = _f("network", 900, _at_least(4))  # sinks, source, relay
    field_width: float = _f("network", 1800.0, _POSITIVE)
    field_height: float = _f("network", 1800.0, _POSITIVE)
    node_density: float = _f("network", 0.00027, _POSITIVE)
    sink_inset: float = _f("network", 0.0, _NON_NEGATIVE)
    tx_range: float = _f("network", 100.0, _POSITIVE)

    rate_bytes_per_s: float = _f("traffic", 1000.0, _POSITIVE)
    payload_bytes: int = _f("traffic", 150, _POSITIVE)
    traffic_start: float = _f("traffic", 0.0, _NON_NEGATIVE)
    critical_rate: float = _f("traffic", 0.0, _UNIT)
    delay_responsive_rate: float = _f("traffic", 0.0, _UNIT)
    reliability_responsive_rate: float = _f("traffic", 0.0, _UNIT)
    deadline: float = _f("traffic", 0.3, _POSITIVE)

    # joules: the battery, and per action as `simkernel.energy_costs_nj` reads
    # them; sleep is validated, pinned by acceptance 9, never charged
    energy_initial: float = _f("energy", 2.0, _POSITIVE, _FINITE_NJ, key="initial")
    energy_tx: float = _f("energy", 0.0522, _POSITIVE, _FINITE_NJ, key="tx")
    energy_rx: float = _f("energy", 0.0591, _POSITIVE, _FINITE_NJ, key="rx")
    energy_sleep: float = _f("energy", 0.00006, _POSITIVE, _FINITE_NJ, key="sleep")
    energy_idle: float = _f("energy", 0.000003, _POSITIVE, _FINITE_NJ, key="idle")
    path_loss_alpha: float = _f("energy", 2.0, _at_least(2))

    prr_window: int = _f("estimators", 30, _at_least(1))
    prr_beta: float = _f("estimators", 0.6, _UNIT)
    delay_gamma: float = _f("estimators", 0.5, _UNIT)

    protocol: str = _f("protocol", "tdthr")  # a PROTOCOLS name, see validate
    hello_period: float = _f("protocol", 5.0, _POSITIVE)
    neighbor_expiry_factor: float = _f("protocol", 2.5, (lambda v: v > 1, "must be > 1"))
    duplicate_critical: bool = _f("protocol", True)
    duplicate_reliability: bool = _f("protocol", True)
    promotion_floor: float = _f("protocol", 0.010, _POSITIVE)
    promotion_fraction: float = _f("protocol", 0.5, _UNIT_OPEN_LOW)
    queue_capacity: int = _f("protocol", 64, _at_least(1))

    bandwidth_bps: float = _f("mac", 250000.0, _POSITIVE)
    backoff_window: float = _f("mac", 0.008, _NON_NEGATIVE)
    max_retries: int = _f("mac", 3, _NON_NEGATIVE)
    ack_bytes: int = _f("mac", 12, _POSITIVE)
    # the ACK timeout must outlast the ACK's round trip; at 0 the two tie
    ack_timeout_guard: float = _f("mac", 0.001, _POSITIVE)
    loss_exponent: float = _f("mac", 4.0, _POSITIVE)
    min_delivery_prob: float = _f("mac", 0.1, _UNIT_OPEN_LOW)

    duration: float = _f("run", 120.0, _NON_NEGATIVE)
    rng_seed: int = _f("run", 1)
    audit_period: float = _f("run", 1.0, _POSITIVE)
    stop_at_first_death: bool = _f("run", False)
    stop_energy_fraction: float = _f("run", 0.0, _UNIT_OPEN_HIGH)
    drain_window: float = _f("run", 0.5, _NON_NEGATIVE)

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        sections = {section for section, _ in _KEYS.values()}
        kwargs = {}
        for section, entries in data.items():
            if section not in sections:
                raise ValueError(f"unknown config section {section!r}")
            if not isinstance(entries, dict):
                raise ValueError(f"config section {section!r} must be a mapping")
            for key, value in entries.items():
                name = _NAMES.get((section, key))
                if name is None:
                    raise ValueError(f"unknown config field {section}.{key}")
                kwargs[name] = value
        return cls(**kwargs)

    def to_dict(self) -> dict:
        out = {}
        for name, (section, key) in _KEYS.items():
            out.setdefault(section, {})[key] = getattr(self, name)
        return out

    def validate(self) -> list[str]:
        # Each field's type, then its range; the checks across fields run
        # only once every field passes, since they divide by field sides.
        errors = [f"{_where(f.name)} {problem}" for f in fields(self)
                  if (problem := _problem(f, getattr(self, f.name)))]
        if isinstance(self.protocol, str) and self.protocol not in PROTOCOLS:
            errors.append(f"{_where('protocol')} must be one of {tuple(PROTOCOLS)}")
        if errors:
            return errors
        area = self.field_width * self.field_height  # may underflow to 0
        expected = self.node_count / area if area else math.inf
        if not (math.isfinite(expected) and abs(expected - self.node_density)
                <= 0.2 * max(expected, 1e-12)):
            errors.append(f"{_where('node_density')} {self.node_density} "
                          f"inconsistent with count/area ({expected:.6g}) by "
                          f"more than 20%")
        mix = (self.critical_rate + self.delay_responsive_rate
               + self.reliability_responsive_rate)
        if mix > 1.0 + 1e-9:
            errors.append(f"traffic class rates sum to {mix:.6g} > 1")
        if not self.sink_inset < min(self.field_width, self.field_height) / 2:
            errors.append(f"{_where('sink_inset')} must be less than half the "
                          f"shorter field side")
        # sinks live on the field diagonal (corners by default); source at center
        sinks = self.sink_positions
        for name, pos in (("primary sink", sinks[PRIMARY_SINK]),
                          ("secondary sink", sinks[SECONDARY_SINK]),
                          ("source", self.source_position)):
            if not (0 <= pos.x <= self.field_width
                    and 0 <= pos.y <= self.field_height):
                errors.append(f"{name} position {(pos.x, pos.y)} lies outside "
                              f"the field")
        return errors

    @property
    def sink_positions(self) -> dict:
        inset = self.sink_inset
        return {PRIMARY_SINK: Position(inset, inset),
                SECONDARY_SINK: Position(self.field_width - inset,
                                         self.field_height - inset)}

    @property
    def source_position(self) -> Position:
        return Position(self.field_width / 2, self.field_height / 2)

    @property
    def neighbor_expiry(self) -> float:
        return self.neighbor_expiry_factor * self.hello_period

    @property
    def cbr_interval(self) -> float:
        return self.payload_bytes / self.rate_bytes_per_s


# attribute name -> (section, YAML key), in declaration order
_KEYS = {f.name: (f.metadata["section"], f.metadata["key"] or f.name)
         for f in fields(SimConfig)}
_NAMES = {where: name for name, where in _KEYS.items()}
_FLOAT_MAX = sys.float_info.max


def _where(name: str) -> str:
    return "{}.{}".format(*_KEYS[name])


def _problem(f, value):
    """Why `value` cannot be field `f`'s value, or None. A bool is not an
    int, an int is accepted for a float, and a number must be finite as a
    float: not nan, not infinite, no int beyond the largest float."""
    want = type(f.default)
    accepted = (int, float) if want is float else want
    if (isinstance(value, bool) != (want is bool)
            or not isinstance(value, accepted)):
        return f"must be {want.__name__}, got {_shown(value)}"
    if want is not str and not abs(value) <= _FLOAT_MAX:  # exact for ints
        return f"must be finite, got {_shown(value)}"
    for holds, message in f.metadata["rules"]:
        if not holds(value):
            return f"{message}, got {value!r}"
    return None


def _shown(value) -> str:
    try:
        return repr(value)
    except ValueError:  # an int with more digits than str() will convert
        return f"an int of over {sys.get_int_max_str_digits()} digits"
