from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_dialog
from gesturec.dsl import (
    Alternative,
    AnnotatedDialog,
    GestureAnnotation,
    Turn,
    copy_with,
    format_dialog,
    parse_dialog,
    segment_sentences,
    sentence_spans,
)
from gesturec.errors import AnnotationOrderError, DialogParseError


def test_parse_simple_annotation():
    dialog = parse_dialog("A1: [1.90s](Cup, RH 0.46s) Hey, there.\n")
    ann = dialog.turns[0].annotations[0]
    assert ann.stroke_begin == 1.90
    assert ann.gesture_name == "Cup"
    assert ann.hand == "RH"
    assert ann.stroke_duration == 0.46
    assert not ann.rate_added and not ann.form_copied and ann.alternative is None
    assert ann.word_index == 0


def test_parse_full_marker_combination():
    dialog = parse_dialog("B1: [29.13s]*(!Cup, RH 0.46s / ShortProgressive, RH 0.38s) run.\n")
    ann = dialog.turns[0].annotations[0]
    assert ann.rate_added
    assert ann.form_copied
    assert ann.alternative == Alternative("ShortProgressive", "RH", 0.38)


def test_parse_missing_comma_is_error():
    with pytest.raises(DialogParseError) as err:
        parse_dialog("A1: [5.00s](Cup RH) word.\n")
    assert err.value.line == 1
    assert err.value.column > 0


def test_parse_unknown_speaker():
    with pytest.raises(DialogParseError):
        parse_dialog("C1: hello.\n")


def test_parse_bad_turn_numbering():
    with pytest.raises(DialogParseError):
        parse_dialog("A2: hello.\n")


def test_parse_non_alternating_speakers():
    with pytest.raises(DialogParseError):
        parse_dialog("A1: hello.\nA2: again.\n")


def test_parse_non_increasing_times():
    source = "A1: [2.00s](Cup, RH 0.46s) one [1.50s](Cup, RH 0.46s) two.\n"
    with pytest.raises(AnnotationOrderError):
        parse_dialog(source)


def test_parse_zero_stroke_duration_rejected():
    for source in ("A1: [1.00s](Cup, RH 0s) word.\n", "A1: [1.00s](Cup, RH 0.46s / Away, 2H 0.00s) word.\n"):
        with pytest.raises(DialogParseError, match="stroke duration must be > 0"):
            parse_dialog(source)


def test_copy_marker_on_alternative_rejected():
    with pytest.raises(DialogParseError):
        parse_dialog("A1: [1.00s](Cup, RH 0.46s / !Away, 2H 0.40s) word.\n")


def test_annotation_past_audio_rejected():
    source = "audio: 1.00s\nA1: [0.90s](Cup, RH 0.46s) word.\n"
    with pytest.raises(DialogParseError):
        parse_dialog(source)


def test_reserved_brackets_in_text():
    with pytest.raises(DialogParseError):
        parse_dialog("A1: odd]token here.\n")


def test_fixture_turn_a1_has_four_annotations(protest_dialog):
    a1 = protest_dialog.turns[0]
    assert a1.speaker == "A"
    assert len(a1.annotations) == 4
    assert [a.gesture_name for a in a1.annotations] == [
        "Cup", "PointingAbstract", "Cup_Horizontal", "SweepSide1",
    ]


def test_fixture_turn_b2_marker_census(protest_dialog):
    b2 = protest_dialog.turns[3]
    assert b2.speaker == "B"
    assert len(b2.annotations) == 4
    assert sum(a.form_copied for a in b2.annotations) == 4
    assert sum(a.alternative is not None for a in b2.annotations) == 2
    assert sum(a.rate_added for a in b2.annotations) == 1


def test_fixture_round_trip_is_byte_stable(protest_text, protest_dialog):
    once = format_dialog(protest_dialog)
    twice = format_dialog(parse_dialog(once))
    assert once == twice
    assert once == protest_text


def test_dialog_without_annotations():
    dialog = parse_dialog("story: tiny\nA1: Just words here.\nB1: Yes.\n")
    assert dialog.audio_duration == 0.0
    text = format_dialog(dialog)
    assert "[" not in text
    assert parse_dialog(text) == dialog


def test_alternative_round_trip():
    source = "A1: [1.00s](!WeighOptions, 2H 0.60s / Cup, 2H 0.46s) word.\n"
    dialog = parse_dialog(source)
    assert parse_dialog(format_dialog(dialog)) == dialog
    assert "!WeighOptions, 2H 0.60s / Cup, 2H 0.46s" in format_dialog(dialog)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200, deadline=None)
def test_parse_format_identity_on_generated_dialogs(seed):
    dialog = make_random_dialog(random.Random(seed))
    assert parse_dialog(format_dialog(dialog)) == dialog


def test_sentence_spans_quotes_and_ellipses():
    assert sentence_spans('He said "go." Then left.') == [(0, 3), (3, 5)]
    assert sentence_spans("It ended....") == [(0, 2)]
    assert sentence_spans("four to six months old...a bit bigger.") == [(0, 7)]
    assert sentence_spans("no terminator here") == [(0, 3)]


def test_segment_fixture_a1_two_by_two(protest_dialog):
    a1 = protest_dialog.turns[0]
    buckets = segment_sentences(a1)
    assert len(buckets) == 2
    assert [len(anns) for _, anns in buckets] == [2, 2]


def test_segment_single_sentence_no_gestures():
    turn = Turn(speaker="A", index=1, text="Just one sentence.", annotations=[])
    assert segment_sentences(turn) == [("Just one sentence.", [])]


def test_segment_single_bucket():
    ann = GestureAnnotation(1.0, "Cup", "RH", 0.46, word_index=0)
    turn = Turn(speaker="A", index=1, text="Yeah, exactly.", annotations=[ann])
    assert segment_sentences(turn) == [("Yeah, exactly.", [ann])]


def test_segment_empty_text_returns_nothing():
    turn = Turn(speaker="A", index=1, text="", annotations=[])
    assert segment_sentences(turn) == []


def test_segment_counts_preserved(protest_dialog):
    for turn in protest_dialog.turns:
        buckets = segment_sentences(turn)
        assert sum(len(anns) for _, anns in buckets) == len(turn.annotations)


def test_trailing_annotation_lands_in_last_sentence():
    ann = GestureAnnotation(1.0, "Cup", "RH", 0.46, word_index=99)
    turn = Turn(speaker="A", index=1, text="First one. Second one.", annotations=[ann])
    dialog = AnnotatedDialog(story_id="t", turns=[turn], audio_duration=5.0)
    buckets = segment_sentences(dialog.turns[0])
    assert [len(anns) for _, anns in buckets] == [0, 1]
    assert parse_dialog(format_dialog(dialog)).turns[0].annotations[0].word_index == 4


def test_copy_with_copies_every_field_and_rejects_unknown_names():
    ann = GestureAnnotation(1.0, "Cup", "RH", 0.46, alternative=Alternative("Reject", "LH", 0.4), word_index=2)
    ann.features = object()
    moved = copy_with(ann, stroke_begin=1.5)
    assert moved is not ann and type(moved) is GestureAnnotation
    assert vars(moved) == {**vars(ann), "stroke_begin": 1.5}
    assert ann.stroke_begin == 1.0 and moved.stroke_end == 1.96
    turn = Turn("A", 1, "one", [ann])
    copied = copy_with(turn, annotations=[moved])
    assert (copied.speaker, copied.index, copied.text, copied.annotations) == ("A", 1, "one", [moved])
    assert turn.annotations == [ann]
    for record, name in ((ann, "begin"), (turn, "turns"), (ann, "stroke_end")):
        with pytest.raises(TypeError, match=repr(name)):
            copy_with(record, **{name: 1})
