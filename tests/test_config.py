"""Configuration declarations: every field round-trips under its YAML key
and reports errors as `section.key`, and `validate` never raises."""

import hashlib
import math
from dataclasses import fields

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdthr.cli import config_hash, load_config
from tdthr.config import SimConfig

FIELDS = fields(SimConfig)

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
    pinned = {"default": ("990f7014c05d", "a45ac6420e585ede"),
              "desk": ("52348ded136a", "4094ab452503f85e")}
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
