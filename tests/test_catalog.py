from __future__ import annotations

import re

import pytest

from conftest import DATA_DIR
from gesturec.catalog import GestureDef, load_catalog, lookup
from gesturec.dsl import GESTURE_NAME
from gesturec.emitter import document_from_timeline, read_script
from gesturec.errors import CatalogError, DuplicateGestureError, UnknownGestureError
from gesturec.pipeline import PipelineSettings, compile_dialog
from gesturec.stimuli import speaker_scripts

# stroke durations the shipped stories carry for each catalog gesture
FIXTURE_DURATIONS = {
    "Cup": 0.46,
    "PointingAbstract": 0.37,
    "Cup_Horizontal": 0.57,
    "SweepSide1": 0.35,
    "Cup_Down_alt": 0.21,
    "CupBeats_Small": 0.37,
    "Cup_Vert": 0.54,
    "Regressive": 1.14,
    "Cup_Up": 0.34,
    "Eruptive": 0.76,
    "WeighOptions": 0.6,
    "ShortProgressive": 0.38,
    "Dismiss": 0.47,
    "Away": 0.4,
    "Reject": 0.44,
    "SideArc": 0.57,
}


def test_shipped_catalog_durations(catalog, stories):
    # a stroke's duration is annotated in the dialog; every shipped
    # annotation uses its gesture's one duration, and the catalog holds
    # exactly those gestures
    assert list(catalog.entries) == list(FIXTURE_DURATIONS)
    for dialog, _ in stories.values():
        for turn in dialog.turns:
            for ann in turn.annotations:
                assert ann.stroke_duration == FIXTURE_DURATIONS[ann.gesture_name]
                if ann.alternative is not None:
                    alt = ann.alternative
                    assert alt.stroke_duration == FIXTURE_DURATIONS[alt.gesture_name]


def test_lookup_cup(catalog):
    assert lookup(catalog, "Cup") == GestureDef("Cup", 25.0, 0.0, 20.0)


def test_lookup_weigh_options(catalog):
    assert lookup(catalog, "WeighOptions") == GestureDef("WeighOptions", 25.0, 0.0, 20.0)


def test_lookup_unknown_name(catalog):
    with pytest.raises(UnknownGestureError):
        lookup(catalog, "NoSuchGesture")


def test_load_single_entry():
    c = load_catalog("Cup, 31, 7.5, -2\n")
    cup = lookup(c, "Cup")
    assert (cup.base_expanse, cup.base_height, cup.base_outwardness) == (31.0, 7.5, -2.0)


def test_empty_document_rejected():
    with pytest.raises(CatalogError):
        load_catalog("# nothing here\n\n")


def test_duplicate_name_rejected():
    doc = "Cup, 25, 0, 20\nCup, 30, 0, 20\n"
    with pytest.raises(DuplicateGestureError):
        load_catalog(doc)


def test_malformed_line_rejected():
    with pytest.raises(CatalogError):
        load_catalog("Cup 25 0 20\n")
    with pytest.raises(CatalogError, match="line 1: could not convert"):
        load_catalog("Cup, wide, 0, 20\n")
    # the former columns (duration, hands, category) are no longer accepted
    with pytest.raises(CatalogError, match="expected 4 comma-separated fields, got 7"):
        load_catalog("Cup, 0.46, RH, metaphoric, 25, 0, 20\n")


def test_name_that_no_dialog_can_reference_rejected(catalog):
    # every shipped name follows the rule, so a dialog can name each of them
    assert all(re.fullmatch(GESTURE_NAME, name) for name in catalog.entries)
    with pytest.raises(CatalogError, match=re.escape("line 1: gesture name 'Bad Name' is not a gesture name")):
        load_catalog("Bad Name, 1, 2, 3\nx-y, 1, 2, 3\n")
    with pytest.raises(CatalogError, match=re.escape("line 2: gesture name 'x-y' is not a gesture name")):
        load_catalog("Good_Name2, 1, 2, 3\nx-y, 1, 2, 3\n")
    with pytest.raises(CatalogError, match=re.escape("line 1: gesture name '' is not a gesture name")):
        load_catalog(", 1, 2, 3\n")


def test_negative_expanse_rejected():
    with pytest.raises(CatalogError):
        load_catalog("Cup, -1, 0, 20\n")
    for bad in ("nan", "inf"):
        with pytest.raises(CatalogError, match="must be finite"):
            load_catalog(f"Cup, 25, {bad}, 20\n")


def test_catalog_version():
    assert load_catalog("Cup, 25, 0, 20\n").version == "1"
    assert load_catalog("# catalog-version: 2b\nCup, 25, 0, 20\n").version == "2b"
    doc = "# catalog-version: 2\nCup, 25, 0, 20\n\n# catalog-version: 3\n"
    with pytest.raises(CatalogError, match="line 4: a second '# catalog-version:' line"):
        load_catalog(doc)


def test_load_is_deterministic():
    text = (DATA_DIR / "catalog.txt").read_text(encoding="utf-8")
    assert load_catalog(text) == load_catalog(text)


def test_comments_and_blank_lines_ignored():
    doc = "# comment\n\nCup, 25, 0, 20\n  \n# more\n"
    assert list(load_catalog(doc).entries) == ["Cup"]


def _strokes(catalog, text, track, settings):
    scripts = speaker_scripts(compile_dialog(text, catalog, track, settings).schedule)
    return [document_from_timeline(read_script(scripts[f"{speaker}.script.json"])) for speaker in ("A", "B")]


def test_per_gesture_geometry_reaches_the_script(catalog, protest_text, protest_track):
    # the shipped entries all share (25, 0, 20); give Cup its own geometry
    shipped = (DATA_DIR / "catalog.txt").read_text(encoding="utf-8")
    assert "\nCup, 25, 0, 20\n" in shipped
    own = load_catalog(shipped.replace("\nCup, 25, 0, 20\n", "\nCup, 31, 7.5, 12\n"))
    settings = PipelineSettings(extraversion={"A": 7.0, "B": 1.0})
    offsets = {"A": settings.profile("A"), "B": settings.profile("B")}
    before = _strokes(catalog, protest_text, protest_track, settings)
    after = _strokes(own, protest_text, protest_track, settings)
    cups = {"A": 0, "B": 0}
    for speaker, old_events, new_events in zip("AB", before, after):
        assert len(old_events) == len(new_events)
        for old, new in zip(old_events, new_events):
            if new.gesture != "Cup":
                assert new == old
                continue
            cups[speaker] += 1
            params = offsets[speaker]
            assert new.expanse == pytest.approx(31 + params.expanse_offset)
            assert new.height == pytest.approx(7.5 + params.height_offset)
            assert new.outward == pytest.approx(12 + params.outwardness_offset)
            assert (new.start, new.end, new.speed, new.scale) == (old.start, old.end, old.speed, old.scale)
    assert cups["A"] > 0 and cups["B"] > 0
