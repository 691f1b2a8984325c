"""Configuration declarations: every field round-trips under its YAML key
and reports errors as `section.key`, `validate` never raises, a run reads
every field but two, and the README names only real fields."""

import hashlib
import math
import re
from dataclasses import asdict, fields
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdthr.cli import config_hash, load_config
from tdthr.config import SimConfig
from tdthr.forwarding import PROTOCOLS
from tdthr.simkernel import Simulation

from helpers import battery_j, mini_config

FIELDS = fields(SimConfig)
ROOT = Path(__file__).resolve().parent.parent

# The YAML spells these fields without their attribute's prefix.
YAML_SPELLING = {"energy_initial": "initial", "energy_tx": "tx",
                 "energy_rx": "rx", "energy_sleep": "sleep",
                 "energy_idle": "idle"}


def _shipped_sections() -> dict:
    """YAML key -> section, as the shipped configs spell them."""
    out = {}
    for name in ("default.yaml", "desk.yaml"):
        with open(f"configs/{name}") as fh:
            for section, entries in yaml.safe_load(fh).items():
                out.update({key: section for key in entries})
    return out


def _another_value(default):
    if isinstance(default, bool):
        return not default
    if isinstance(default, str):
        return default + "_x"
    return default + 1


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
def test_each_field_round_trips_under_its_yaml_key(f):
    cfg = SimConfig()
    value = _another_value(f.default)
    setattr(cfg, f.name, value)
    base = SimConfig().to_dict()
    changed = [(section, key) for section, entries in cfg.to_dict().items()
               for key, v in entries.items() if base[section][key] != v]
    assert len(changed) == 1
    section, key = changed[0]
    assert key == YAML_SPELLING.get(f.name, f.name)
    assert _shipped_sections().get(key, section) == section
    assert SimConfig.from_dict({section: {key: value}}) == cfg
    # a wrong-typed value is reported under the name the YAML uses
    wrong = 1.5 if isinstance(f.default, str) else "x"
    bad = SimConfig.from_dict({section: {key: wrong}})
    assert bad.validate() == [f"{section}.{key} must be "
                              f"{type(f.default).__name__}, got {wrong!r}"]


def test_shipped_configs_keep_their_hash_and_echo():
    # to_dict() content and key order: config_hash fingerprints every CSV
    # row, and `tdthr validate` echoes the dict in order
    pinned = {"default": ("794eaca0aeac", "0154f6c3f81369a9"),
              "desk": ("3172922fcfe8", "d16fb9ca94f66b12")}
    for name, (cfg_hash, echo_sha) in pinned.items():
        cfg = load_config(f"configs/{name}.yaml")
        echo = yaml.safe_dump(cfg.to_dict(), sort_keys=False)
        assert config_hash(cfg) == cfg_hash
        assert hashlib.sha256(echo.encode()).hexdigest()[:16] == echo_sha


# an int beyond the largest float overflows wherever it meets a float
INTS = st.sampled_from([0, -1, 10**400]) | st.integers()


def _values(f):
    """Values of the field's type, 0, negatives, infinities and nan included."""
    if isinstance(f.default, bool):
        return st.booleans()
    if isinstance(f.default, int):
        return INTS
    if isinstance(f.default, float):
        special = st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan])
        return special | st.floats() | INTS
    return st.just(f.default) | st.text(max_size=12)


OVERRIDES = st.lists(st.one_of(*[st.tuples(st.just(f.name), _values(f))
                                 for f in FIELDS]), max_size=6)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(OVERRIDES)
@example([("field_width", 0.0)])
@example([("node_count", 10**5000)])  # too long for repr
@example([("protocol", 10**5000)])
def test_validate_never_raises_and_accepted_configs_round_trip(overrides):
    cfg = SimConfig(**dict(overrides))
    errors = cfg.validate()
    assert isinstance(errors, list)
    assert all(isinstance(e, str) for e in errors)
    if not errors:
        assert SimConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("name", sorted(YAML_SPELLING))
def test_energies_must_be_finite_in_nanojoules(name):
    # a run converts each energy to integer nanojoules, `round(j * 1e9)`,
    # which cannot round an infinity; just below the overflow it can
    key = YAML_SPELLING[name]
    assert SimConfig(**{name: 1.0e+300}).validate() == [
        f"energy.{key} must be finite in nanojoules, got 1e+300"]
    assert SimConfig(**{name: 1.0e+299}).validate() == []


def test_sides_whose_area_underflows_fail_the_density_check():
    cfg = SimConfig(field_width=1e-200, field_height=1e-200)
    assert [e.split()[0] for e in cfg.validate()] == ["network.node_density"]


_FIELD_NAMES = {f.name for f in FIELDS}


class _RecordingConfig(SimConfig):
    """A config that records which of its fields are read, outside
    `validate`."""

    def __init__(self, **values):
        super().__init__(**values)
        self.validating = False
        self.read = set()

    def validate(self):
        self.validating = True
        try:
            return super().validate()
        finally:
            self.validating = False

    def __getattribute__(self, name):
        get = super().__getattribute__
        if name in _FIELD_NAMES and not get("validating"):
            get("read").add(name)
        return get(name)


def test_every_config_field_reaches_the_engine():
    # small batteries and all four classes reach deaths, partitions, the
    # drain and every protocol's rules
    read = set()
    battery = battery_j(mini_config(), tx=3, rx=2)
    for protocol in sorted(PROTOCOLS):
        for seed in (1, 2, 3):
            cfg = _RecordingConfig(**asdict(mini_config(
                protocol=protocol, rng_seed=seed, critical_rate=0.25,
                delay_responsive_rate=0.25, reliability_responsive_rate=0.25,
                energy_initial=battery, stop_energy_fraction=0.0,
                duration=60.0)))
            Simulation(cfg).run()
            read |= cfg.read
    assert _FIELD_NAMES - read == {
        # only cross-checks count/area: a ROADMAP small leftover, settled
        # alongside item 1a
        "node_density",
        "energy_sleep",  # never charged: ROADMAP item 1a decides its meaning
    }


def test_readme_names_only_config_fields():
    # every `section.key` in the README is a field as the YAML spells it
    spelled = {f"{section}.{key}" for section, entries
               in SimConfig().to_dict().items() for key in entries}
    sections = "|".join({name.split(".")[0] for name in spelled})
    named = re.findall(rf"`((?:{sections})\.\w+)`",
                       (ROOT / "README.md").read_text())
    assert len(named) > 5
    assert sorted(set(named) - spelled) == []
