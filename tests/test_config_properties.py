"""Property tests of the flat config-key table."""

import dataclasses
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import squidsim as sq
from squidsim import ConfigError
from squidsim.scenarios import _KEYS, STATE_KINDS

NUMERIC_KEYS = sorted(k.name for k in _KEYS.values() if k.parse is not str)
BASE = dataclasses.replace(sq.builtin_scenario("decohere-cat"), name="custom")


def _value(key):
    """Strategy for the text of one valid value of `key` at dim >= 64."""
    if key.parse is str:
        if key.field == "kind":
            return st.sampled_from(STATE_KINDS)
        return st.text(st.characters(categories=("L", "N", "Pd")), min_size=1)
    if key.parse is int:
        low = 2 if key.name in ("grid.x_points", "grid.p_points") else 1
        return st.integers(low, 63).map(repr)
    if key.section in ("squid", "bath"):
        return st.floats(1e-30, 1e30).map(repr)
    if key.name in ("run.dtau", "sweep.step", "run.tau_max"):
        return st.floats(0.0, exclude_min=key.name != "run.tau_max",
                         allow_infinity=False).map(repr)
    return st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def flat_configs(draw):
    names = draw(st.sets(st.sampled_from(sorted(_KEYS))))
    names.discard("squid.critical_current_a" if draw(st.booleans())
                  else "squid.josephson_energy_j")
    mapping = {name: draw(_value(_KEYS[name])) for name in sorted(names)}
    mapping["run.dim"] = repr(draw(st.integers(64, 128)))
    return mapping


def _is_finite_number(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


@settings(deadline=None, max_examples=200)
@given(flat_configs())
def test_flat_round_trip(mapping):
    def value(section, name):
        return float(mapping.get(f"{section}.{name}",
                                 getattr(getattr(BASE, section), name)))

    assume(value("sweep", "stop") >= value("sweep", "start"))
    assume(value("grid", "x_max") > value("grid", "x_min"))
    assume(value("grid", "p_max") > value("grid", "p_min"))
    spec = sq.ScenarioSpec.from_flat(mapping, defaults=BASE)
    assert sq.ScenarioSpec.from_flat(spec.to_flat()) == spec
    # each key sets its own field and every other field keeps the base value
    touched = {(k.section, k.field) for k in map(_KEYS.get, mapping)}
    for key in _KEYS.values():
        if key.name in mapping:
            assert key.read(spec) == key.parse(mapping[key.name])
        elif (key.section, key.field) not in touched:
            assert key.read(spec) == key.read(BASE)


@pytest.mark.parametrize("name", NUMERIC_KEYS)
@settings(deadline=None, max_examples=25)
@given(text=st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e999"]),
    st.text().filter(lambda t: not _is_finite_number(t))))
def test_bad_numbers_rejected(name, text):
    with pytest.raises(ConfigError):
        sq.ScenarioSpec.from_flat({name: text})
