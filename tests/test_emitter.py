from __future__ import annotations

import json
import random
import re
from dataclasses import FrozenInstanceError, replace

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gesturec.emitter
from conftest import DATA_DIR, count_emitter_calls, make_stroke_dialog, reference_render
from gesturec.align import align_strokes, parse_word_timings
from gesturec.dsl import GESTURE_NAME, HANDS, SPEAKERS, parse_dialog
from gesturec.emitter import (
    ARMS,
    FEATURES,
    KINDS,
    STROKE,
    ScriptEvent,
    Timeline,
    document_from_timeline,
    emit_document,
    emit_script,
    read_script,
    validate_timeline,
)
from gesturec.errors import EmitError, ScriptError
from gesturec.personality import EXTRAVERT_ANCHOR, apply_personality
from gesturec.pipeline import PipelineSettings, compile_dialog
from gesturec.scheduler import schedule

SHIPPED = {
    path.stem: (
        path.read_text(encoding="utf-8"),
        parse_word_timings((DATA_DIR / "timings" / f"{path.stem}.tsv").read_text(encoding="utf-8")),
    )
    for path in sorted((DATA_DIR / "stories").glob("*.dialog"))
}


@pytest.fixture()
def fixture_timelines(protest_dialog, protest_track, catalog):
    dialog = align_strokes(protest_dialog, protest_track)
    for speaker in ("A", "B"):
        dialog = apply_personality(dialog, speaker, EXTRAVERT_ANCHOR, catalog)
    result = schedule(dialog)
    return result.for_speaker("A"), result.for_speaker("B")


def test_first_stroke_record_speaker_a(fixture_timelines):
    timeline_a, _ = fixture_timelines
    events = document_from_timeline(timeline_a)
    stroke = next(e for e in events if e.kind == "stroke")
    assert (stroke.start, stroke.end) == (1900, 2360)
    assert stroke.gesture == "Cup"
    assert stroke.hand == "RH"


def test_emit_twice_identical_bytes(fixture_timelines):
    timeline_a, _ = fixture_timelines
    assert emit_script(timeline_a) == emit_script(timeline_a)
    assert emit_script(timeline_a, "text") == emit_script(timeline_a, "text")


def test_three_decimal_formatting(fixture_timelines):
    timeline_a, _ = fixture_timelines
    text = emit_script(timeline_a, "text").decode()
    first_event = next(line for line in text.splitlines() if not line.startswith("#"))
    assert first_event.split()[0] == "1.600"  # prep before the 1.900 stroke
    data = emit_script(timeline_a, "json").decode()
    assert '"start": 1.900' in data


@pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)])
def test_a_zero_feature_keeps_its_sign(zeros):
    # 0.0 == -0.0 and they hash alike, but the writer prints 0.000 and -0.000
    first, second = (
        ScriptEvent(start, start + 460, STROKE, "right", "Cup", "RH", zero, 0.0, 20.0, 1.0, 1.0)
        for start, zero in zip((1000, 5000), zeros)
    )
    track = [
        ScriptEvent(700, 1000, "prep", "right"), first, ScriptEvent(1460, 1960, "retract", "right"),
        ScriptEvent(4700, 5000, "prep", "right"), second, ScriptEvent(5460, 5960, "retract", "right"),
    ]
    timeline = Timeline("A", {"left": [], "right": track}, 8000, "zeros", "cfg")
    for fmt in ("json", "text"):
        blob = emit_script(timeline, fmt)
        assert blob == reference_render(timeline, fmt)
        assert re.findall(rb'(?:"expanse": |:RH )(-?0\.000)', blob) == [f"{zero:.3f}".encode() for zero in zeros]
        assert emit_document(read_script(blob), fmt) == blob


def test_equal_features_print_each_as_it_prints():
    # 1 == 1.0 and 0 == 0.0 == -0.0, and each pair hashes alike: an int
    # prints as the float of its value, but -0.0 prints -0.000
    features = [(0, 0.0, -0.0, 1, 1.0), (0.0, -0.0, 0, 1.0, 1), (-0.0, 0, 0.0, 1, 1)]
    track = []
    for k, values in enumerate(features):
        start = 1000 + 4000 * k
        track += [
            ScriptEvent(start - 300, start, "prep", "right"),
            ScriptEvent(start, start + 460, STROKE, "right", "Cup", "RH", *values),
            ScriptEvent(start + 460, start + 960, "retract", "right"),
        ]
    timeline = Timeline("A", {"left": [], "right": track}, 14000, "numbers", "cfg")
    for fmt in ("json", "text"):
        blob = emit_script(timeline, fmt)
        assert blob == reference_render(timeline, fmt)
        assert emit_document(read_script(blob), fmt) == blob
    strokes = [line.split()[5:] for line in emit_script(timeline, "text").decode().splitlines() if ":RH " in line]
    assert strokes == [[f"{value:.3f}" for value in values] for values in features]


@given(name=st.from_regex(GESTURE_NAME, fullmatch=True) | st.sampled_from(KINDS + ARMS + HANDS + SPEAKERS))
def test_the_words_a_script_holds_need_no_json_escaping(name):
    # so the writer quotes a gesture name or vocabulary word as it is
    assert json.dumps(name) == f'"{name}"'


def test_empty_timeline_round_trips():
    timeline = Timeline(
        speaker="A",
        tracks={"left": [], "right": []},
        audio_ms=10000,
        story_id="empty",
        config_fingerprint="cfg",
    )
    for fmt in ("json", "text"):
        doc = read_script(emit_script(timeline, fmt))
        assert document_from_timeline(doc) == []
        assert doc.story_id == "empty"
        assert doc == timeline


def test_read_emit_round_trip(fixture_timelines):
    for timeline in fixture_timelines:
        for fmt in ("json", "text"):
            blob = emit_script(timeline, fmt)
            doc = read_script(blob)
            assert doc == timeline
            assert emit_document(doc, fmt) == blob  # canonical fixed point


def test_round_trip_on_generated_timelines():
    rng = random.Random(99)
    for _ in range(100):
        timeline = schedule(make_stroke_dialog(rng)).for_speaker("A")
        for fmt in ("json", "text"):
            blob = emit_script(timeline, fmt)
            doc = read_script(blob)
            assert doc == timeline
            assert emit_document(doc, fmt) == blob


@given(
    a=st.floats(min_value=1.0, max_value=7.0),
    b=st.floats(min_value=1.0, max_value=7.0),
    story=st.sampled_from(sorted(SHIPPED)),
    variant=st.sampled_from(["adapted", "nonadapted"]),
)
@settings(max_examples=100, deadline=None)
def test_shipped_stories_round_trip_at_any_extraversion(catalog, a, b, story, variant):
    source, track = SHIPPED[story]
    lenient = PipelineSettings(extraversion={"A": a, "B": b}, strict=False)
    result = compile_dialog(source, catalog, timings=track, settings=lenient, variant=variant)
    for speaker in ("A", "B"):
        for fmt in ("json", "text"):
            blob = emit_script(result.schedule.for_speaker(speaker), fmt)
            assert emit_document(read_script(blob), fmt) == blob


@pytest.mark.parametrize("variant", ["adapted", "nonadapted"])
@pytest.mark.parametrize("story", sorted(SHIPPED))
@given(a=st.floats(min_value=1.0, max_value=7.0), b=st.floats(min_value=1.0, max_value=7.0))
@settings(max_examples=10, deadline=None)
def test_render_matches_reference_renderer(catalog, story, variant, a, b):
    source, track = SHIPPED[story]
    lenient = PipelineSettings(extraversion={"A": a, "B": b}, strict=False)
    result = compile_dialog(source, catalog, timings=track, settings=lenient, variant=variant)
    for speaker in ("A", "B"):
        timeline = result.schedule.for_speaker(speaker)
        # both documents render on the first call, whichever format it asks for
        for copy, formats in ((timeline, ("json", "text")), (replace(timeline), ("text", "json"))):
            for fmt in formats:
                assert emit_document(copy, fmt) == reference_render(timeline, fmt)


@pytest.mark.parametrize("times,audio", [
    ([0, 999, 1000, 1001, 59_999, 2**31 - 1], 2**31 - 1),
    ([0, 2**31 - 1, 2**31, 2**31 + 1, 2**60], 2**60),
    ([-1, -999, -1000, -1001, 0, 1], 1),
], ids=["second-edges", "beyond-2-31", "negative"])
def test_the_seconds_of_a_timeline_are_those_format_seconds_prints(times, audio):
    """The renderer, which inlines ``format_seconds``, prints each time as
    it does, at the edges of a second and beyond ``2**31`` ms:
    ``emit_document``, which does not check the phase rules, renders what
    the reference renderer, which prints each time with ``format_seconds``,
    renders."""
    events = [ScriptEvent(ms, ms, "hold", "left") for ms in times]
    timeline = Timeline("A", {"left": events, "right": []}, audio)
    for fmt in ("json", "text"):
        assert emit_document(timeline, fmt) == reference_render(timeline, fmt)


def test_render_matches_reference_renderer_on_escaped_strings():
    stroke = ("Cup_2", "2H", 25.0, -0.5, 20.125, 1.25, 0.8)
    tracks = {
        arm: [ScriptEvent(700, 1000, "prep", arm), ScriptEvent(1000, 1460, STROKE, arm, *stroke),
              ScriptEvent(1460, 1960, "retract", arm)]
        for arm in ARMS
    }
    timeline = Timeline("B", tracks, 5000, 'say "hi" \\ café ✓', "cfg\t\u00e9\"x")
    for fmt in ("json", "text"):
        blob = emit_script(timeline, fmt)
        assert blob == reference_render(timeline, fmt)
        assert read_script(blob) == timeline


def test_invalid_timeline_rejected():
    timeline = Timeline(
        speaker="A",
        tracks={"left": [], "right": [ScriptEvent(1000, 1500, "stroke", "right")]},
        audio_ms=10000,
    )
    with pytest.raises(EmitError):
        emit_script(timeline)


def test_unknown_script_format_is_refused():
    timeline = Timeline("A", {"left": [], "right": []}, 1000)
    with pytest.raises(EmitError) as err:
        emit_document(timeline, "xml")
    assert str(err.value) == "unknown script format 'xml'"


def test_unknown_hand_rejected_before_writing(catalog):
    # Only code that builds annotations itself can set a hand the parser
    # does not admit; the scheduler treats it as two-handed.
    dialog = parse_dialog("A1: [1.00s](Cup, RH 0.46s) one two\n")
    turn = dialog.turns[0]
    dialog = dialog._replace(turns=(turn._replace(annotations=(turn.annotations[0]._replace(hand="XH"),)),))
    timeline = schedule(apply_personality(dialog, "A", EXTRAVERT_ANCHOR, catalog)).for_speaker("A")
    assert "right[1]: unknown hand 'XH'" in validate_timeline(timeline)
    with pytest.raises(EmitError, match="unknown hand 'XH'"):
        emit_script(timeline)


def test_truncated_document():
    with pytest.raises(ScriptError):
        read_script(b'{"header": {"story": "x"')
    with pytest.raises(ScriptError):
        read_script(b"")


def test_deeply_nested_json_is_a_script_error():
    with pytest.raises(ScriptError, match="not valid JSON"):
        read_script(b'{"header": ' + b"[" * 100_000 + b"]" * 100_000 + b"}")


def test_end_before_start_names_the_record(fixture_timelines):
    timeline_a, _ = fixture_timelines
    right = list(timeline_a.tracks["right"])
    right[3] = right[3]._replace(end=right[3].start - 1000)
    blob = emit_document(replace(timeline_a, tracks={**timeline_a.tracks, "right": right}))
    with pytest.raises(ScriptError) as err:
        read_script(blob)
    assert err.value.path == "events"
    assert "right[3]: start" in str(err.value)


def test_unsorted_events_rejected(fixture_timelines):
    timeline_a, _ = fixture_timelines
    raw = json.loads(emit_script(timeline_a).decode())
    raw["events"].reverse()
    with pytest.raises(ScriptError) as err:
        read_script(json.dumps(raw).encode())
    assert err.value.path == "events"
    assert "right[0]: track must begin with a prep" in str(err.value)


_STROKE_TIMELINE = Timeline(
    "A",
    {"left": [], "right": [
        ScriptEvent(700, 1000, "prep", "right"),
        ScriptEvent(1000, 2000, STROKE, "right", "Cup", "RH", 25.0, 0.0, 20.0, 1.0, 1.0),
        ScriptEvent(2000, 2500, "retract", "right"),
    ]},
    5000, "x", "c",
)


def _stroke_document(**changes) -> bytes:
    """The writer's JSON bytes for one prep, stroke, retract script; each of
    ``changes`` writes its value, as ``json.dumps`` does, in place of its key's
    value on the header line or the stroke line (line 2 or 5)."""
    lines = emit_document(_STROKE_TIMELINE).decode().split("\n")
    for key, value in changes.items():
        at = 1 if key in ("story", "speaker", "audio", "config") else 4
        lines[at] = re.sub(f'"{key}": [^,}}]+', lambda _: f'"{key}": {json.dumps(value)}', lines[at], count=1)
    return "\n".join(lines).encode()


def _refused_at(written: bytes, lineno: int) -> str:
    """The reader's message for a script that first differs from ``written``, the writer's bytes, at ``lineno``."""
    return f"line {lineno}: the writer writes {written.splitlines(keepends=True)[lineno - 1].decode()!r} here"


def test_extra_precision_rejected():
    for field in ("start", "speed"):  # a time and a feature, both 1.0 to 3 decimals
        with pytest.raises(ScriptError) as err:
            read_script(_stroke_document(**{field: 1.0001}))
        assert str(err.value) == _refused_at(_stroke_document(), 5)


@pytest.mark.parametrize("field", ["audio", "start", "expanse"])
@pytest.mark.parametrize("bad", [float("inf"), float("nan"), pytest.param(10**400, id="401-digit-int")])
def test_non_finite_numbers_rejected(field, bad):
    with pytest.raises(ScriptError) as err:
        read_script(_stroke_document(**{field: bad}))
    assert "finite" in str(err.value)


@pytest.mark.parametrize(
    "edit, lineno",
    [
        pytest.param(lambda blob: blob.replace(b"{\n", b'{\n  "extra": 3,\n', 1), 2, id="document-extra-extra"),
        pytest.param(lambda blob: blob.replace(b'"},\n', b'", "extra": 3},\n', 1), 2, id="header-extra-header.extra"),
        pytest.param(
            lambda blob: blob.replace(b"1.000},\n", b'1.000, "bogus": 3},\n', 1), 5, id="stroke-bogus-events[1].bogus"
        ),
        pytest.param(lambda blob: json.dumps(json.loads(blob), indent=2).encode(), 2, id="reindented"),
        pytest.param(
            lambda blob: blob.replace(b'{"story": "protest", "speaker": "A"', b'{"speaker": "A", "story": "protest"'),
            2, id="reordered-keys",
        ),
    ],
)
def test_json_reader_refuses_a_field_the_writer_never_writes(fixture_timelines, edit, lineno):
    # a field, a layout or a key order the writer never writes, in the
    # script of a shipped story: each holds a timeline the rules admit, and
    # is refused at the first line that differs from the writer's
    blob = emit_script(fixture_timelines[0])
    edited = edit(blob)
    assert edited != blob
    with pytest.raises(ScriptError) as err:
        read_script(edited)
    assert str(err.value) == _refused_at(blob, lineno)


@pytest.mark.parametrize(
    "old, new, lineno, story",
    [
        pytest.param(
            '"story": "x"', '"story": "x", "story": "y"', 2, "y",
            id='''"story": "x"-"story": "x", "story": "y"-header: key 'story' appears more than once''',
        ),
        pytest.param(
            '"speed": 1.0', '"speed": 2.0, "speed": 1.0', 5, "x",
            id='''"speed": 1.0-"speed": 2.0, "speed": 1.0-events[1]: key 'speed' appears more than once''',
        ),
        pytest.param(
            '{\n  "header"', '{\n  "events": [],\n  "header"', 2, "x",
            id='''{"header"-{"events": [], "header"-$: key 'events' appears more than once''',
        ),
    ],
)
def test_json_reader_refuses_a_repeated_key(old, new, lineno, story):
    # the reader keeps a repeated key's last value, and holds a timeline with
    # ``story``, whose writer's bytes differ from the document only by the key
    blob = _stroke_document()
    assert old.encode() in blob
    with pytest.raises(ScriptError) as err:
        read_script(blob.replace(old.encode(), new.encode(), 1))
    assert str(err.value) == _refused_at(_stroke_document(story=story), lineno)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("story", None), ("story", 7), ("story", "a\nb"), ("story", "a\u2028b"), ("story", " a"), ("story", "a\t"),
        ("config", 7), ("config", None), ("config", "c\r"), ("config", ["c"]),
        ("speaker", "C"), ("speaker", 1), ("speaker", None), ("speaker", "a"),
        ("gesture", 5), ("gesture", "Cup Big"), ("gesture", "Cup:RH"), ("gesture", "9Cup"), ("gesture", "Cup\n"),
        ("gesture", ["Cup"]),
    ],
)
def test_reader_rejects_bad_header_strings_and_gesture_names(field, bad):
    with pytest.raises(ScriptError) as err:
        read_script(_stroke_document(**{field: bad}))
    if field == "gesture":  # a validate_timeline rule, named by arm[i]
        assert err.value.path == "events"
        assert f"right[1]: gesture {bad!r} is not a gesture name" in str(err.value)
    else:
        assert err.value.path == f"header.{field}"


@pytest.mark.parametrize(
    "change, field",
    [
        ({"story_id": "a\nb"}, "header.story"),
        ({"story_id": " padded"}, "header.story"),
        ({"speaker": "C"}, "header.speaker"),
        ({"config_fingerprint": "x\ny"}, "header.config"),
        ({"gesture": "Cup Big"}, "right[1]: gesture 'Cup Big'"),
        ({"story_id": "\ud800x"}, "header.story"),
        ({"config_fingerprint": "\ud800x"}, "header.config"),
        ({"expanse": 1.2345}, "right[1]: expanse 1.2345 is not on the 0.001 grid"),
    ],
)
def test_writer_refuses_what_the_reader_refuses(fixture_timelines, change, field):
    timeline, _ = fixture_timelines
    if "gesture" in change or "expanse" in change:
        right = list(timeline.tracks["right"])
        assert right[1].kind == STROKE and right[1].hand == "RH"
        right[1] = right[1]._replace(**change)
        timeline = replace(timeline, tracks={**timeline.tracks, "right": right})
    else:
        timeline = replace(timeline, **change)
    for fmt in ("json", "text"):
        with pytest.raises(EmitError, match=re.escape(field)):
            emit_script(timeline, fmt)


@pytest.mark.parametrize(
    "line, replacement",
    [("# speaker: A", "# speaker: C"), ("Cup:RH", "5:RH"), ("Cup:RH", "Cup-Big:RH")],
)
def test_text_reader_rejects_unknown_speaker_and_bad_gesture_names(line, replacement):
    text = emit_document(_STROKE_TIMELINE, "text")
    assert line.encode() in text
    with pytest.raises(ScriptError):
        read_script(text.replace(line.encode(), replacement.encode()))


@pytest.mark.parametrize("change", [{"story_id": "\ud800x"}, {"config_fingerprint": "\ud800x"}])
def test_json_reader_refuses_a_lone_surrogate_as_the_writer_does(fixture_timelines, change):
    timeline = replace(fixture_timelines[0], **change)
    with pytest.raises(EmitError) as written:
        emit_script(timeline, "text")
    with pytest.raises(ScriptError) as read:
        read_script(emit_document(timeline, "json"))  # JSON escapes the surrogate
    assert str(read.value) == str(written.value)


@pytest.mark.parametrize(
    "old, new, message",
    [
        pytest.param(
            b"0.700 1.000 prep", b"0.700  1.000 prep",
            "line 6: the writer writes '0.700 1.000 prep right - - - - - -\\n' here",
            id="doubled-spaces-between-columns",
        ),
        pytest.param(
            b"# story: x\n", b"# story:    x\n", "line 2: the writer writes '# story: x\\n' here",
            id="padded-header-value",
        ),
        pytest.param(
            b"# config: c\n", b"# config: c\n\n",
            "line 6: the writer writes '0.700 1.000 prep right - - - - - -\\n' here",
            id="blank-line",
        ),
        pytest.param(
            b"\n", b"\r\n", "line 1: the writer writes '# gesture-script v1\\n' here", id="crlf-line-ends"
        ),
    ],
)
def test_text_reader_refuses_what_the_writer_never_writes(old, new, message):
    text = emit_document(_STROKE_TIMELINE, "text")
    assert old in text
    with pytest.raises(ScriptError) as err:
        read_script(text.replace(old, new))
    assert str(err.value) == message


def test_reader_accepts_every_header_string_the_text_form_keeps():
    blob = _stroke_document(story="my story: ünïcode \"q\"", config="a\tb")
    document = read_script(blob)
    text = emit_document(document, "text")
    assert read_script(text) == document
    assert emit_document(read_script(text), "json") == emit_document(document, "json")


def test_stroke_event_requires_features():
    raw = json.loads(_stroke_document())
    for name in FEATURES:
        del raw["events"][1][name]
    with pytest.raises(ScriptError, match=r"right\[1\]: stroke without effective features"):
        read_script(json.dumps(raw).encode())


def test_emitted_json_matches_shipped_schema(fixture_timelines):
    from pathlib import Path

    schema = json.loads(
        (Path(__file__).resolve().parent.parent / "docs" / "script.schema.json").read_text()
    )
    for timeline in fixture_timelines:
        jsonschema.validate(json.loads(emit_script(timeline).decode()), schema)


def test_schema_gesture_pattern_is_the_dialog_gesture_name():
    from pathlib import Path

    from gesturec.dsl import GESTURE_NAME

    schema = json.loads((Path(__file__).resolve().parent.parent / "docs" / "script.schema.json").read_text())
    assert schema["properties"]["events"]["items"]["properties"]["gesture"]["pattern"] == f"^{GESTURE_NAME}$"


def test_events_sorted_by_start_arm_kind(fixture_timelines):
    _, timeline_b = fixture_timelines
    keys = [(e.start, e.arm, e.kind) for e in document_from_timeline(timeline_b)]
    assert keys == sorted(keys)


def test_text_and_json_carry_same_events(fixture_timelines):
    timeline_a, _ = fixture_timelines
    doc_json = read_script(emit_script(timeline_a, "json"))
    doc_text = read_script(emit_script(timeline_a, "text"))
    assert doc_json == doc_text


def test_script_event_is_value_object():
    event = ScriptEvent(start=1000, end=2000, kind="prep", arm="left")
    assert event == ScriptEvent(start=1000, end=2000, kind="prep", arm="left")
    assert event != ScriptEvent(start=1000, end=2001, kind="prep", arm="left")
    assert hash(event) == hash(ScriptEvent(1000, 2000, "prep", "left"))
    assert len({event, ScriptEvent(1000, 2000, "prep", "left")}) == 1
    with pytest.raises(AttributeError):
        event.start = 0


def test_a_timeline_is_immutable(fixture_timelines):
    timeline_a, _ = fixture_timelines
    assert all(type(track) is tuple for track in timeline_a.tracks.values())
    with pytest.raises(TypeError):
        timeline_a.tracks["left"] = ()
    with pytest.raises(FrozenInstanceError):
        timeline_a.audio_ms = 0
    # a list handed in is copied, so changing it later changes no timeline
    left, right = list(timeline_a.tracks["left"]), list(timeline_a.tracks["right"])
    copy = Timeline("A", {"left": left, "right": right}, timeline_a.audio_ms, timeline_a.story_id,
                    timeline_a.config_fingerprint)
    blob = emit_script(copy, "text")
    right.clear()
    assert copy == timeline_a and emit_script(copy, "text") == blob == emit_script(timeline_a, "text")


def test_a_refused_timeline_stays_refused(fixture_timelines, monkeypatch):
    timeline_a, _ = fixture_timelines
    right = list(timeline_a.tracks["right"])
    right[1] = right[1]._replace(start=right[1].end)
    refused = replace(timeline_a, tracks={**timeline_a.tracks, "right": right})
    calls = count_emitter_calls(monkeypatch, "validate_timeline")
    for _ in range(2):
        for fmt in ("json", "text"):
            with pytest.raises(EmitError, match=re.escape(f"right[1]: start {right[1].start} not before end")):
                emit_script(refused, fmt)
    assert calls == {"validate_timeline": 1}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_read_script_is_checked_once_when_written_again(fixture_timelines, monkeypatch, fmt):
    blob = emit_script(fixture_timelines[1], fmt)
    calls = count_emitter_calls(monkeypatch, "validate_timeline", "document_from_timeline")
    timeline = read_script(blob)
    assert emit_script(timeline, "json") + emit_script(timeline, "text") == (
        reference_render(timeline, "json") + reference_render(timeline, "text")
    )
    assert calls == {"validate_timeline": 1, "document_from_timeline": 1}
    # a direct call still checks afresh
    assert gesturec.emitter.validate_timeline(timeline) == []
    assert calls["validate_timeline"] == 2
