from __future__ import annotations

import pytest

from conftest import DATA_DIR
from gesturec.catalog import load_catalog, lookup
from gesturec.errors import (
    BadCategoryError,
    BadDurationError,
    CatalogError,
    DuplicateGestureError,
    UnknownGestureError,
)

# stroke durations the shipped catalog must carry
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


def test_shipped_catalog_durations(catalog):
    for name, duration in FIXTURE_DURATIONS.items():
        assert lookup(catalog, name).default_stroke_duration == pytest.approx(duration)


def test_lookup_cup(catalog):
    assert lookup(catalog, "Cup").default_stroke_duration == 0.46


def test_lookup_weigh_options(catalog):
    assert lookup(catalog, "WeighOptions").default_stroke_duration == 0.6


def test_lookup_unknown_name(catalog):
    with pytest.raises(UnknownGestureError):
        lookup(catalog, "NoSuchGesture")


def test_load_single_entry():
    c = load_catalog("Cup, 0.46, RH, metaphoric, 25, 0, 20\n")
    assert lookup(c, "Cup").default_stroke_duration == 0.46
    assert lookup(c, "Cup").hands == "RH"


def test_empty_document_rejected():
    with pytest.raises(CatalogError):
        load_catalog("# nothing here\n\n")


def test_duplicate_name_rejected():
    doc = "Cup, 0.46, RH, metaphoric, 25, 0, 20\nCup, 0.5, LH, beat, 25, 0, 20\n"
    with pytest.raises(DuplicateGestureError):
        load_catalog(doc)


def test_nonpositive_duration_rejected():
    with pytest.raises(BadDurationError):
        load_catalog("Cup, 0, RH, metaphoric, 25, 0, 20\n")


def test_unknown_category_rejected():
    with pytest.raises(BadCategoryError):
        load_catalog("Cup, 0.46, RH, emphatic, 25, 0, 20\n")


def test_malformed_line_rejected():
    with pytest.raises(CatalogError):
        load_catalog("Cup 0.46 RH\n")


def test_negative_expanse_rejected():
    with pytest.raises(CatalogError):
        load_catalog("Cup, 0.46, RH, metaphoric, -1, 0, 20\n")


def test_load_is_deterministic():
    text = (DATA_DIR / "catalog.txt").read_text(encoding="utf-8")
    assert load_catalog(text) == load_catalog(text)


def test_comments_and_blank_lines_ignored():
    doc = "# comment\n\nCup, 0.46, any, metaphoric, 25, 0, 20\n  \n# more\n"
    assert list(load_catalog(doc).entries) == ["Cup"]
