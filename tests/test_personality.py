from __future__ import annotations

import dataclasses
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturec.align import align_strokes
from gesturec.dsl import parse_dialog, segment_sentences
from gesturec import personality
from gesturec.errors import DomainError, UnknownGestureError
from gesturec.personality import (
    EXTRAVERT_ANCHOR,
    INTROVERT_ANCHOR,
    ParameterSet,
    apply_personality,
    profile_from_extraversion,
)
from gesturec.scheduler import schedule

_NUMERIC_FIELDS = (
    "max_rate",
    "expanse_offset",
    "height_offset",
    "outwardness_offset",
    "speed_multiplier",
    "scale_multiplier",
)


def test_extravert_anchor_at_seven():
    assert profile_from_extraversion(7.0) == EXTRAVERT_ANCHOR
    assert EXTRAVERT_ANCHOR.max_rate == 2.0
    assert EXTRAVERT_ANCHOR.speed_multiplier == 1.0


def test_introvert_anchor_at_one():
    assert profile_from_extraversion(1.0) == INTROVERT_ANCHOR


def test_midpoint_interpolation():
    # independent check: midpoint of each anchor pair
    mid = profile_from_extraversion(4.0)
    assert mid.expanse_offset == pytest.approx((INTROVERT_ANCHOR.expanse_offset + 0.0) / 2) == -5.0
    assert mid.height_offset == pytest.approx(-2.5)
    assert mid.outwardness_offset == pytest.approx(-5.0)
    assert mid.speed_multiplier == pytest.approx(0.9)
    assert mid.scale_multiplier == pytest.approx(0.9)
    assert mid.max_rate == pytest.approx(1.5)


def test_anchors_far_apart_give_themselves_at_the_ends_and_finite_values_between():
    # 1e308 - (-1e308) overflows, and 0.8 + (1e-300 - 0.8) cancels to 0
    introvert = dataclasses.replace(INTROVERT_ANCHOR, expanse_offset=-1e308)
    extravert = dataclasses.replace(EXTRAVERT_ANCHOR, expanse_offset=1e308, scale_multiplier=1e-300)
    assert profile_from_extraversion(1.0, introvert, extravert) == introvert
    assert profile_from_extraversion(7.0, introvert, extravert) == extravert
    mid = profile_from_extraversion(4.0, introvert, extravert)
    assert mid.expanse_offset == 0.0
    assert mid.scale_multiplier == pytest.approx(0.4)


def test_a_profile_is_made_once_per_score_and_anchors():
    assert profile_from_extraversion(4.0) is profile_from_extraversion(4.0)
    # anchors equal field by field, but for the sign of a zero offset, which e=1
    # hands on when the extravert offset is negative: 1 * -0.0 + 0 * -1.0 is -0.0
    negative, positive = (
        dataclasses.replace(INTROVERT_ANCHOR, expanse_offset=zero) for zero in (-0.0, 0.0)
    )
    extravert = dataclasses.replace(EXTRAVERT_ANCHOR, expanse_offset=-1.0)
    assert negative == positive
    for order in ((negative, positive), (positive, negative)):
        profiles = [profile_from_extraversion(1.0, anchor, extravert) for anchor in order]
        signs = [math.copysign(1, profile.expanse_offset) for profile in profiles]
        assert signs == [math.copysign(1, anchor.expanse_offset) for anchor in order]


def test_out_of_range_extraversion():
    with pytest.raises(DomainError):
        profile_from_extraversion(0.5)
    with pytest.raises(DomainError):
        profile_from_extraversion(7.2)


def test_parameter_set_validation():
    with pytest.raises(DomainError):
        ParameterSet(max_rate=-1.0, expanse_offset=0, height_offset=0,
                     outwardness_offset=0, speed_multiplier=1.0, scale_multiplier=1.0)
    with pytest.raises(DomainError):
        ParameterSet(max_rate=2.0, expanse_offset=0, height_offset=0,
                     outwardness_offset=0, speed_multiplier=5.0, scale_multiplier=1.0)
    for name in _NUMERIC_FIELDS:
        for bad in (float("nan"), float("inf"), float("-inf")):
            values = {f: getattr(EXTRAVERT_ANCHOR, f) for f in _NUMERIC_FIELDS}
            with pytest.raises(DomainError, match=f"{name} must be finite"):
                ParameterSet(**{**values, name: bad})


@given(
    e1=st.floats(min_value=1.0, max_value=7.0),
    e2=st.floats(min_value=1.0, max_value=7.0),
)
@settings(max_examples=200, deadline=None)
def test_profile_monotone_in_extraversion(e1, e2):
    if e1 > e2:
        e1, e2 = e2, e1
    lo, hi = profile_from_extraversion(e1), profile_from_extraversion(e2)
    for name in _NUMERIC_FIELDS:
        assert getattr(lo, name) <= getattr(hi, name) + 1e-12


def _aligned_fixture(protest_dialog, protest_track):
    return align_strokes(protest_dialog, protest_track)


def _gesture_names(dialog, speaker):
    return [
        a.gesture_name for t in dialog.turns if t.speaker == speaker for a in t.annotations
    ]


def test_extravert_params_keep_all_gestures(protest_dialog, protest_track, catalog):
    dialog = _aligned_fixture(protest_dialog, protest_track)
    out = apply_personality(dialog, "A", EXTRAVERT_ANCHOR, catalog)
    assert _gesture_names(out, "A") == _gesture_names(dialog, "A")
    assert _gesture_names(out, "B") == _gesture_names(dialog, "B")


def test_introvert_drops_pointing_abstract_first(protest_dialog, protest_track, catalog):
    dialog = _aligned_fixture(protest_dialog, protest_track)
    out = apply_personality(dialog, "A", INTROVERT_ANCHOR, catalog)
    a1 = out.turns[0]
    # sentence 1 had Cup then PointingAbstract; the cap keeps the earliest
    names = [a.gesture_name for a in a1.annotations]
    assert "PointingAbstract" not in names
    assert names[0] == "Cup"
    for _, bucket in segment_sentences(a1):
        assert len([a for a in bucket if not a.rate_added]) <= 1


def test_copy_protected_from_removal(catalog):
    source = "A1: [1.00s](SweepSide1, RH 0.35s) one two [3.00s](!Cup, RH 0.46s) three four.\n"
    dialog = parse_dialog(source)
    out = apply_personality(dialog, "A", INTROVERT_ANCHOR, catalog)
    names = [a.gesture_name for a in out.turns[0].annotations]
    # the later gesture survives because it is a form copy
    assert names == ["Cup"]


def test_rate_added_exempt_from_cap(catalog):
    source = (
        "A1: [1.00s](SweepSide1, RH 0.35s) one [3.00s]*(Reject, RH 0.44s) two "
        "[5.00s](Cup, RH 0.46s) three four.\n"
    )
    dialog = parse_dialog(source)
    out = apply_personality(dialog, "A", INTROVERT_ANCHOR, catalog)
    names = [a.gesture_name for a in out.turns[0].annotations]
    assert names == ["SweepSide1", "Reject"]  # cap 1 keeps earliest; the extra is exempt


@pytest.mark.parametrize("words", ["", "one "], ids=["no words", "one word"])
def test_a_turn_without_words_is_held_to_the_rate_cap(catalog, words):
    # a turn of annotations only is one sentence, so the introvert keeps its earliest gesture
    source = f"A1: {words}[1.00s](Cup, RH 0.46s) [2.00s](Cup, RH 0.46s) [3.00s](Cup, RH 0.46s)\n"
    out = apply_personality(parse_dialog(source), "A", INTROVERT_ANCHOR, catalog)
    assert [a.stroke_begin for a in out.turns[0].annotations] == [1.0]


def test_features_stamped_with_offsets(catalog):
    dialog = parse_dialog("A1: [1.00s](Cup, RH 0.46s) word.\n")
    out = apply_personality(dialog, "A", INTROVERT_ANCHOR, catalog)
    f = out.turns[0].annotations[0].features
    assert f.expanse_cm == 25.0 - 10.0
    assert f.height_cm == 0.0 - 5.0
    assert f.outwardness_cm == 20.0 - 10.0
    assert f.speed == 0.8 and f.scale == 0.8


def test_alternative_features_stamped(catalog):
    dialog = parse_dialog("A1: [1.00s](!WeighOptions, 2H 0.60s / Cup, 2H 0.46s) word.\n")
    out = apply_personality(dialog, "A", EXTRAVERT_ANCHOR, catalog)
    ann = out.turns[0].annotations[0]
    assert ann.features is not None and ann.alt_features is not None


def test_each_gesture_gets_one_features_record_per_call(catalog):
    source = (
        "A1: [1.00s](Cup, RH 0.46s) one [3.00s](!WeighOptions, 2H 0.60s / Cup, 2H 0.46s) two.\n"
        "B1: [6.00s](Cup, RH 0.46s) three.\n"
    )
    out = apply_personality(parse_dialog(source), "A", EXTRAVERT_ANCHOR, catalog)
    out = apply_personality(out, "B", INTROVERT_ANCHOR, catalog)
    cup, weigh = out.turns[0].annotations
    assert weigh.alt_features is cup.features  # the alternative shares the main gesture's record
    assert cup.features == (25.0, 0.0, 20.0, 1.0, 1.0)
    assert out.turns[1].annotations[0].features == (15.0, -5.0, 10.0, 0.8, 0.8)


def test_unknown_alternative_named_after_a_known_gesture(catalog):
    dialog = parse_dialog("A1: [1.00s](Cup, RH 0.46s) one [3.00s](Cup, RH 0.46s / Nonesuch, RH 0.40s) two.\n")
    with pytest.raises(UnknownGestureError, match="Nonesuch"):
        apply_personality(dialog, "A", EXTRAVERT_ANCHOR, catalog)


@pytest.mark.parametrize("n,kept", [(2, 2), (3, 2)])
def test_a_turn_at_the_cap_keeps_every_gesture(catalog, n, kept):
    words = " ".join(f"[{i + 1}.00s](Cup, RH 0.46s) w{i}" for i in range(n))
    out = apply_personality(parse_dialog(f"A1: {words}.\n"), "A", EXTRAVERT_ANCHOR, catalog)  # cap 2
    assert [a.stroke_begin for a in out.turns[0].annotations] == [float(i + 1) for i in range(kept)]


def test_unknown_gesture_name(catalog):
    dialog = parse_dialog("A1: [1.00s](Nonesuch, RH 0.40s) word.\n")
    with pytest.raises(UnknownGestureError):
        apply_personality(dialog, "A", EXTRAVERT_ANCHOR, catalog)


def test_an_unknown_gesture_names_its_turn_and_story(catalog, monkeypatch):
    looked_up = []
    real_lookup = personality.lookup

    def counting_lookup(catalog, name):
        looked_up.append(name)
        return real_lookup(catalog, name)

    monkeypatch.setattr(personality, "lookup", counting_lookup)
    source = (
        "story: s\nA1: [1.00s](Cup, RH 0.46s) one [2.00s](Cup, RH 0.46s) two.\n"
        "B1: three.\nA2: [5.00s](Cup, RH 0.46s / Cupx, RH 0.40s) four.\n"
    )
    with pytest.raises(UnknownGestureError) as err:
        apply_personality(parse_dialog(source), "A", EXTRAVERT_ANCHOR, catalog)
    assert str(err.value) == "turn A2: unknown gesture 'Cupx' at 5.00s"
    assert looked_up == ["Cup", "Cupx"]  # once per distinct name


def test_an_unknown_gesture_the_cap_drops_is_refused(catalog):
    source = "A1: one [1.00s](Cup, RH 0.46s) two [2.00s](Cup, RH 0.46s) three [3.00s](Cupx, RH 0.46s) four.\n"
    with pytest.raises(UnknownGestureError, match=re.escape("turn A1: unknown gesture 'Cupx' at 3.00s")):
        apply_personality(parse_dialog(source), "A", EXTRAVERT_ANCHOR, catalog)  # cap 2


def test_speed_multiplier_divides_stroke_duration(catalog):
    dialog = parse_dialog("audio: 5.00s\nA1: [1.00s](Cup, RH 0.46s) word.\nB1: fine.\n")
    out = apply_personality(dialog, "A", INTROVERT_ANCHOR, catalog)
    out = apply_personality(out, "B", EXTRAVERT_ANCHOR, catalog)
    timeline = schedule(out).for_speaker("A")
    stroke = next(p for p in timeline.tracks["right"] if p.kind == "stroke")
    assert stroke.start == 1000
    assert stroke.end - stroke.start == round(0.46 / 0.8 * 1000)


def test_output_annotations_subset_of_input(protest_dialog, protest_track, catalog):
    dialog = _aligned_fixture(protest_dialog, protest_track)
    out = apply_personality(dialog, "B", INTROVERT_ANCHOR, catalog)
    for before, after in zip(dialog.turns, out.turns):
        kept = {(a.stroke_begin, a.gesture_name) for a in after.annotations}
        original = {(a.stroke_begin, a.gesture_name) for a in before.annotations}
        assert kept <= original


def test_removal_is_idempotent(protest_dialog, protest_track, catalog):
    dialog = _aligned_fixture(protest_dialog, protest_track)
    once = apply_personality(dialog, "B", INTROVERT_ANCHOR, catalog)
    twice = apply_personality(once, "B", INTROVERT_ANCHOR, catalog)
    assert twice == once
    features_once = [a.features for t in once.turns for a in t.annotations]
    features_twice = [a.features for t in twice.turns for a in t.annotations]
    assert features_twice == features_once
