from __future__ import annotations

from dataclasses import fields, replace

import pytest

from gesturec.config import SECTIONS, ConfigError, load_config
from gesturec.errors import DomainError, ScheduleError
from gesturec.pipeline import PipelineSettings

DEFAULTS = PipelineSettings()
KEYS = [(section, f.name) for section in SECTIONS for f in fields(getattr(DEFAULTS, section))]


def test_defaults_without_keys():
    settings = load_config("# just comments\n")
    assert settings == DEFAULTS
    assert settings.extravert.max_rate == 2.0
    assert settings.introvert.expanse_offset == -10.0
    spec = settings.adaptation
    assert (spec.expanse_delta, spec.height_delta, spec.outwardness_delta) == (18.0, 10.0, 10.0)
    assert (spec.speed_factor, spec.scale_factor) == (1.25, 1.5)
    scheduler = settings.scheduler
    assert scheduler.hold_threshold_s == 2.5
    assert scheduler.prep_duration_s == 0.3
    assert scheduler.retract_duration_s == 0.5
    assert scheduler.stroke_lead_s == 0.2


def test_settable_values():
    assert len(KEYS) == 21


@pytest.mark.parametrize("section,name", KEYS)
def test_every_field_is_a_key(section, name):
    expected = getattr(getattr(DEFAULTS, section), name) + 0.25
    settings = load_config(f"{section}.{name} = {expected!r}\n")
    assert getattr(getattr(settings, section), name) == expected
    # no other value moves
    assert replace(settings, **{section: getattr(DEFAULTS, section)}) == DEFAULTS


def test_overrides():
    text = """
    # tighter experiment
    adaptation.expanse_delta = 12
    adaptation.speed_factor = 1.1
    scheduler.hold_threshold_s = 2.0
    introvert.speed_multiplier = 0.7
    """
    given = PipelineSettings(extraversion={"A": 1.0, "B": 7.0}, strict=False)
    settings = load_config(text, given)
    assert settings.adaptation.expanse_delta == 12.0
    assert settings.adaptation.speed_factor == 1.1
    assert settings.scheduler.hold_threshold_s == 2.0
    assert settings.introvert.speed_multiplier == 0.7
    assert settings.extraversion == {"A": 1.0, "B": 7.0}
    assert settings.strict is False


def test_unknown_key_rejected():
    for key in ("scheduler.hold_treshold_s", "hold_threshold_s", "adaptation.rate_band", "strict",
                "scheduler.retract_on_turn_end"):
        with pytest.raises(ConfigError) as err:
            load_config(f"# first line\n{key} = 0.1\n")
        assert "line 2: unknown key" in str(err.value)
        assert repr(key) in str(err.value)


def test_bad_lines():
    with pytest.raises(ConfigError):
        load_config("just words\n")
    with pytest.raises(ConfigError, match="line 2: duplicate"):
        load_config("adaptation.speed_factor = 1\nadaptation.speed_factor = 2\n")
    with pytest.raises(ConfigError, match="line 1: scheduler.hold_threshold_s: expected a number, got 'often'"):
        load_config("scheduler.hold_threshold_s = often\n")
    # values are checked by the settings object they fill
    with pytest.raises(ScheduleError):
        load_config("scheduler.prep_duration_s = 0\n")
    with pytest.raises(ScheduleError, match="hold_threshold_s"):
        load_config("scheduler.hold_threshold_s = 2.0004\n")
    for bad in ("nan", "inf"):
        with pytest.raises(ScheduleError, match="stroke_lead_s must be finite"):
            load_config(f"scheduler.stroke_lead_s = {bad}\n")
    with pytest.raises(ScheduleError, match="stroke_lead_s = 0.2005 is not a whole number of milliseconds"):
        load_config("scheduler.stroke_lead_s = 0.2005\n")
    for key in ("extravert.expanse_offset", "introvert.height_offset", "adaptation.speed_factor"):
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(DomainError, match=f"{key.split('.')[1]} must be finite"):
                load_config(f"{key} = {bad}\n")


def test_a_refused_section_names_the_line_and_key_of_each_value_set_in_it():
    with pytest.raises(DomainError) as err:
        load_config("# comment\nextravert.expanse_offset = nan\n")
    assert str(err.value) == "line 2: extravert.expanse_offset: expanse_offset must be finite, got nan"
    # the values of other sections are not named
    with pytest.raises(ScheduleError) as err:
        load_config(
            "scheduler.prep_duration_s = 2\nadaptation.speed_factor = 2\nscheduler.hold_threshold_s = 2.4\n"
        )
    assert str(err.value) == (
        "line 1: scheduler.prep_duration_s; line 3: scheduler.hold_threshold_s: "
        "hold threshold must cover prep + retract"
    )
