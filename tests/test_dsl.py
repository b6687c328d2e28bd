from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, make_random_dialog
from gesturec import dsl
from gesturec.dsl import (
    Alternative,
    AnnotatedDialog,
    Features,
    GestureAnnotation,
    Turn,
    format_dialog,
    parse_dialog,
    segment_sentences,
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


@pytest.mark.parametrize(
    "source, line, column, key",
    [
        ("story: a\nstory: b\naudio: 5.00s\naudio: 9.00s\nA1: hello [1.00s](Cup, RH 0.40s) there\nstory: c\n", 2, 1, "story"),
        ("story: a\naudio: 5.00s\nA1: hello [1.00s](Cup, RH 0.40s) there\n  audio: 9.00s\n", 4, 3, "audio"),
    ],
)
def test_parse_repeated_header_is_error(source, line, column, key):
    with pytest.raises(DialogParseError, match=f"repeated header line '{key}:'") as err:
        parse_dialog(source)
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize(
    "source, line, column, message",
    [
        ("A1: [1.234s](Cup, RH 0.46s) word.\n", 1, 5, "stroke begin 1.234s"),
        ("A1: word [1.23s](Cup, RH 0.456s) word.\n", 1, 10, "stroke duration 0.456s"),
        ("A1: [1.23s](Cup, RH 0.46s / Away, 2H 0.401s) word.\n", 1, 5, "stroke duration 0.401s"),
        ("story: s\n  audio: 9.005s\n", 2, 3, "audio duration 9.005s"),
        ("audio: nans\n", 1, 1, "audio duration nans"),
        ("audio: 1e3s\n", 1, 1, "audio duration 1e3s"),
        ("A1: [" + "9" * 400 + "s](Cup, RH 0.46s) word.\n", 1, 5, "stroke begin " + "9" * 400 + "s"),
    ],
)
def test_parse_refuses_times_off_the_centisecond_grid(source, line, column, message):
    with pytest.raises(DialogParseError) as err:
        parse_dialog(source)
    assert str(err.value) == f"line {line}, col {column}: {message} is not on the centisecond grid"


def test_parse_non_increasing_times():
    source = "A1: [2.00s](Cup, RH 0.46s) one [1.50s](Cup, RH 0.46s) two.\n"
    with pytest.raises(AnnotationOrderError):
        parse_dialog(source)


def test_parse_zero_stroke_duration_rejected():
    for source in ("A1: [1.00s](Cup, RH 0s) word.\n", "A1: [1.00s](Cup, RH 0.46s / Away, 2H 0.00s) word.\n"):
        with pytest.raises(DialogParseError, match="stroke duration must be > 0"):
            parse_dialog(source)


def test_a_repeated_annotation_text_keeps_its_marker_time_and_word():
    dialog = parse_dialog(
        "A1: [1.00s](Cup, RH 0.46s) one [2.00s]*(Cup, RH 0.46s) two.\n"
        "B1: three [3.00s]*(Cup, RH 0.46s) four [4.00s](Cup, RH 0.46s) five.\n"
    )
    annotations = [a for turn in dialog.turns for a in turn.annotations]
    assert [(a.stroke_begin, a.rate_added, a.word_index) for a in annotations] == [
        (1.0, False, 0), (2.0, True, 1), (3.0, True, 1), (4.0, False, 2),
    ]
    assert {(a.gesture_name, a.hand, a.stroke_duration, a.form_copied, a.alternative) for a in annotations} == {
        ("Cup", "RH", 0.46, False, None)
    }


def test_a_repeated_malformed_variant_fails_at_its_first_place():
    source = (
        "A1: [1.00s](Cup, RH 0.46s) one.\n"
        "B1: two [2.00s](Cup RH 0.46s) x.\n"
        "A2: [3.00s](Cup RH 0.46s) y.\n"
    )
    with pytest.raises(DialogParseError) as err:
        parse_dialog(source)
    assert str(err.value) == "line 2, col 9: malformed gesture variant 'Cup RH 0.46s'"
    # each call parses its own texts: another document fails at its own first place
    with pytest.raises(DialogParseError) as err:
        parse_dialog(source.replace("two [2.00s](Cup RH 0.46s) x.", "two x."))
    assert str(err.value) == "line 3, col 5: malformed gesture variant 'Cup RH 0.46s'"


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


@pytest.mark.parametrize(
    "source,error,message,column",
    [
        ("A1: odd]token here.\n", DialogParseError, "square brackets are reserved for annotations", 8),
        ("A1: [5.00s](Cup RH) word.\n", DialogParseError, "malformed gesture variant 'Cup RH'", 5),
        ("\t  A1:   [5.00s](Cup RH) word.\n", DialogParseError, "malformed gesture variant 'Cup RH'", 10),
        ("A1: one [2.00s(Cup, RH 0.46s) two.\n", DialogParseError, "malformed annotation", 9),
        ("A1: one[2.00s](Cup, RH 0.46s) two.\n", DialogParseError, "square brackets are reserved for annotations", 8),
        (
            "A1: [2.00s](Cup, RH 0.46s) one [1.50s](Cup, RH 0.46s) two.\n",
            AnnotationOrderError,
            "stroke times must strictly increase within a turn (1.50s after 2.00s)",
            32,
        ),
        ("  C1: hello.\n", DialogParseError, "unknown speaker label 'C'", 3),
        ("audio: 5.00\n", DialogParseError, "audio duration must end with 's'", 1),
        ("hello\n", DialogParseError, "expected a turn line like 'A1: ...'", 1),
    ],
    ids=[
        "stray-bracket", "variant", "indented-variant", "annotation", "glued", "order", "indented-label",
        "audio-without-unit", "no-turn-label",
    ],
)
def test_error_columns_point_into_the_source_line(source, error, message, column):
    with pytest.raises(error) as err:
        parse_dialog(source)
    assert type(err.value) is error
    assert (err.value.line, err.value.column) == (1, column)
    assert str(err.value) == f"line 1, col {column}: {message}"


@pytest.mark.parametrize("body,message,column", [
    ("[1.00s](Cup, RH 0.46s) one t]wo [2.00s](Cup, RH 0.46s) three.", "square brackets are reserved for annotations", 33),
    ("[1.00s](Cup, RH 0.46s) one tw[o [2.00s](Cup, RH 0.46s) three.", "square brackets are reserved for annotations", 34),
    ("[1.00s](Cup, RH 0.46s) one two]", "square brackets are reserved for annotations", 35),
    ("[1.00s](Cup, RH 0.46s) one [two", "malformed annotation", 32),
    ("[1.00s](Cup, RH 0.46s) one word[2.00s](Cup, RH 0.46s) two.", "square brackets are reserved for annotations", 36),
    ("word[2.00s](Cup, RH 0.46s) two.", "square brackets are reserved for annotations", 9),
    ("one.[2.00s](Cup, RH 0.46s) two.", "square brackets are reserved for annotations", 9),
    ("[1.00s](Cup, RH 0.46s) one [two [2.00s](Cup, RH 0.46s) three.", "malformed annotation", 32),
    ("[1.00s](Cup, RH 0.46s)[two [2.00s](Cup, RH 0.46s) three.", "malformed annotation", 27),
    ("one ] two [2.00s](Cup, RH 0.46s) three.", "square brackets are reserved for annotations", 9),
    ("[1.00s](Cup, RH 0.46s) one ] two", "square brackets are reserved for annotations", 32),
], ids=[
    "in-a-gap", "open-in-a-gap", "in-the-tail", "token-start-in-the-tail", "glued-to-a-word", "glued-first",
    "glued-to-punctuation", "token-start-in-a-gap", "token-start-after-an-annotation", "lone-close",
    "lone-close-in-the-tail",
])
def test_each_bracket_case_keeps_its_message_and_column(body, message, column):
    """The parser checks a gap between annotations only when it holds a
    bracket or ends glued to the next annotation, and the tail only when it
    holds a bracket; each case gives the message and column it gave when
    every gap was checked."""
    with pytest.raises(DialogParseError) as err:
        parse_dialog(f"A1: {body}\n")
    assert type(err.value) is DialogParseError
    assert str(err.value) == f"line 1, col {column}: {message}"


@pytest.mark.parametrize("space", [" ", "\t", "\u00a0", "\u2003"])
def test_an_annotation_after_any_whitespace_starts_a_token(space):
    dialog = parse_dialog(f"A1: one{space}[2.00s](Cup, RH 0.46s) two.\n")
    assert dialog.turns[0].text == "one two."
    assert dialog.turns[0].annotations[0].word_index == 1


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


def test_fixture_round_trip_is_byte_stable():
    # every shipped dialog is written in the canonical form
    paths = sorted((DATA_DIR / "stories").glob("*.dialog"))
    assert [path.stem for path in paths] == ["garden", "pet", "protest", "storm"]
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert format_dialog(parse_dialog(text)) == text, path.name


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


def test_sentence_ends_quotes_and_ellipses():
    def sentences(text):
        words = text.split()
        ends = [end for end, _ in segment_sentences(Turn("A", 1, text, ()))]
        return [" ".join(words[start:end]) for start, end in zip([0, *ends], ends)]

    assert sentences('He said "go." Then left.') == ['He said "go."', "Then left."]
    assert sentences("It ended....") == ["It ended...."]
    assert sentences("four to six months old...a bit bigger.") == ["four to six months old...a bit bigger."]
    assert sentences("no terminator here") == ["no terminator here"]


SENTENCE_TEXT = st.lists(
    st.one_of(
        st.sampled_from(["word", "end.", "so...", "why?!", "old...a", "ok…", "‘hm’", "’", "…", ".", "!?", "a.b"]),
        st.text(st.sampled_from(list("ab.!?…\"'”’ \t\n\xa0\u2003")), max_size=6),
    ),
    max_size=12,
).map("".join)


@given(SENTENCE_TEXT)
@settings(max_examples=500, deadline=None)
def test_sentence_ends_match_the_per_word_rule(text):
    words = text.split()
    ends = [i for i, word in enumerate(words, start=1) if re.search(r"[.!?…]+[\"'”’]*$", word)]
    if words and (not ends or ends[-1] < len(words)):
        ends.append(len(words))
    assert [end for end, _ in segment_sentences(Turn("A", 1, text, ()))] == ends


def test_segment_fixture_a1_two_by_two(protest_dialog):
    a1 = protest_dialog.turns[0]
    buckets = segment_sentences(a1)
    assert len(buckets) == 2
    assert [len(anns) for _, anns in buckets] == [2, 2]


def test_segment_single_sentence_no_gestures():
    turn = Turn(speaker="A", index=1, text="Just one sentence.", annotations=())
    assert segment_sentences(turn) == [(3, [])]


def test_segment_single_bucket():
    ann = GestureAnnotation(1.0, "Cup", "RH", 0.46, word_index=0)
    turn = Turn(speaker="A", index=1, text="Yeah, exactly.", annotations=(ann,))
    assert segment_sentences(turn) == [(2, [ann])]


def test_segment_empty_text_returns_nothing():
    turn = Turn(speaker="A", index=1, text="", annotations=())
    assert segment_sentences(turn) == []


def test_segment_counts_preserved(protest_dialog):
    wordless = parse_dialog("A1: [1.00s](Cup, RH 0.46s) [2.00s](Cup, RH 0.46s) [3.00s](Cup, RH 0.46s)\n").turns
    for turn in protest_dialog.turns + wordless:
        buckets = segment_sentences(turn)
        assert sum(len(anns) for _, anns in buckets) == len(turn.annotations)


def test_a_turn_of_annotations_without_words_is_one_sentence():
    anns = tuple(GestureAnnotation(t, "Cup", "RH", 0.46, word_index=0) for t in (1.0, 2.0, 3.0))
    assert segment_sentences(Turn(speaker="A", index=1, text=" ", annotations=anns)) == [(0, list(anns))]


def test_trailing_annotation_lands_in_last_sentence():
    ann = GestureAnnotation(1.0, "Cup", "RH", 0.46, word_index=99)
    turn = Turn(speaker="A", index=1, text="First one. Second one.", annotations=(ann,))
    dialog = AnnotatedDialog(story_id="t", turns=(turn,), audio_duration=5.0)
    buckets = segment_sentences(dialog.turns[0])
    assert [len(anns) for _, anns in buckets] == [0, 1]
    assert parse_dialog(format_dialog(dialog)).turns[0].annotations[0].word_index == 4


def test_replace_derives_a_record_and_records_are_values():
    features = Features(25.0, 0.0, 20.0, 1.0, 1.0)
    ann = GestureAnnotation(1.0, "Cup", "RH", 0.46, alternative=Alternative("Reject", "LH", 0.4), word_index=2,
                            features=features)
    moved = ann._replace(stroke_begin=1.5)
    assert type(moved) is GestureAnnotation
    assert moved._asdict() == {**ann._asdict(), "stroke_begin": 1.5}
    assert ann.stroke_begin == 1.0 and moved.stroke_end == 1.96
    turn = Turn("A", 1, "one", (ann,))
    derived = turn._replace(annotations=(moved,))
    assert derived == ("A", 1, "one", (moved,)) and turn.annotations == (ann,)
    # equality compares features too
    assert ann != ann._replace(features=features._replace(speed=1.25))
    assert ann == GestureAnnotation(*ann)
    for record, name in ((ann, "begin"), (turn, "turns"), (ann, "stroke_end")):
        with pytest.raises(ValueError, match=repr(name)):
            record._replace(**{name: 1})
    for record, name in ((ann, "features"), (turn, "annotations"), (features, "speed")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def reference_parse_turn_body(body: str) -> tuple[str, tuple[GestureAnnotation, ...]]:
    """The character-at-a-time turn scanner the parser replaced, followed by
    the order check ``parse_dialog`` ran after it; columns count from the
    start of the body, and an order error names column 1.  The oracle for
    ``dsl._parse_turn_body``."""
    words: list[str] = []
    annotations: list[GestureAnnotation] = []
    pos = 0
    while pos < len(body):
        if body[pos].isspace():
            pos += 1
            continue
        if body[pos] == "[":
            m = dsl._ANNOT_RE.match(body, pos)
            if not m:
                raise DialogParseError("malformed annotation", 1, pos + 1)
            annotations.append(dsl._parse_annotation(m, 1, m.start() + 1, len(words), {}))
            pos = m.end()
            continue
        end = pos
        while end < len(body) and not body[end].isspace():
            if body[end] in "[]":
                raise DialogParseError("square brackets are reserved for annotations", 1, end + 1)
            end += 1
        words.append(body[pos:end])
        pos = end
    last = -1.0
    for ann in annotations:
        if ann.stroke_begin <= last:
            raise AnnotationOrderError(
                f"stroke times must strictly increase within a turn "
                f"({ann.stroke_begin:.2f}s after {last:.2f}s)",
                1, 1,
            )
        last = ann.stroke_begin
    return " ".join(words), tuple(annotations)


BODY_WORDS = st.sampled_from(["word", "Hey,", "so...", "end.", '"go."', "s)", "()"])
BODY_ANNOTATIONS = st.builds(
    "[{}s]{}({})".format,
    st.sampled_from(["0.5", "1.00", "1.5", "2.5", "2.50", "3", "10.25"]),
    st.sampled_from(["", "*"]),
    st.sampled_from(["Cup, RH 0.46s", "!Cup, 2H 0.60s / Away, LH 0.40s", " Cup ,LH 1s "]),
)
BODY_FAULTS = st.sampled_from([
    "a]b", "x[y", "]", "[", "[]",
    "[1.00s](Cup RH)", "[1.00s](Cup, RH 0s)", "[1.00s](Cup, RH 0.46s / !Away, LH 0.4s)",
    "[1.00s](a / b / c)", "[1.00s]([Cup, RH 0.46s)", "[1.00s] (Cup, RH 0.46s)",
    "[x s](Cup, RH 0.46s)", "[1.00s(Cup, RH 0.46s)", "[1.00s]*Cup", "[2.00s](Cup, RH 0.46s",
])
# Words and annotations three times as often as a fault.
BODY_PIECES = st.one_of(*[BODY_WORDS, BODY_ANNOTATIONS] * 3, BODY_FAULTS)
SEPARATORS = st.sampled_from(["", " ", "  ", "\t", "\xa0", " \u2003"])


@given(st.lists(st.tuples(BODY_PIECES, SEPARATORS), max_size=8), SEPARATORS)
@settings(max_examples=1000, deadline=None)
def test_parser_matches_reference_scanner(pieces, lead):
    body = lead + "".join(piece + sep for piece, sep in pieces)
    try:
        expected = reference_parse_turn_body(body)
    except DialogParseError as exc:
        expected = exc
    try:
        got = dsl._parse_turn_body(body, 1, 0, {})
    except DialogParseError as exc:
        got = exc
    if not isinstance(expected, Exception):
        assert got == expected
        return
    assert type(got) is type(expected)
    if type(got) is AnnotationOrderError:
        assert str(got).partition(": ")[2] == str(expected).partition(": ")[2]
        # the column names the offending annotation, whose time the message gives first
        m = dsl._ANNOT_RE.match(body, got.column - 1)
        assert m and f"({float(m.group(1)):.2f}s after" in str(got)
    else:
        assert (str(got), got.column) == (str(expected), expected.column)
