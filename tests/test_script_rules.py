"""The script reader accepts exactly what the writer would write: both run
``validate_timeline`` and the header rules, so a script breaking a phase,
gesture-name or header rule is refused on reading as it is on writing."""

from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, reference_render
from gesturec.align import parse_word_timings
from gesturec.catalog import load_catalog
from gesturec.dsl import HANDS
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
    format_seconds,
    read_script,
    to_ms,
    validate_timeline,
)
from gesturec.errors import EmitError, ScriptError
from gesturec.pipeline import PipelineSettings, compile_dialog

FORMATS = ("json", "text")


def _prep(start, end, arm="right"):
    return ScriptEvent(start, end, "prep", arm)


def _retract(start, end, arm="right"):
    return ScriptEvent(start, end, "retract", arm)


def _stroke(start, end, arm="right", hand="RH"):
    return ScriptEvent(start, end, STROKE, arm, "Cup", hand, 25.0, 0.0, 20.0, 1.0, 1.0)


def _document(events, audio_ms=5000, speaker="A", story_id="x", config_fingerprint="c"):
    """The timeline of ``events``, each on its own arm's track in time order."""
    tracks = {arm: sorted((e for e in events if e.arm == arm), key=lambda e: (e.start, e.kind)) for arm in ARMS}
    return Timeline(speaker, tracks, audio_ms, story_id, config_fingerprint)


def test_a_prep_stroke_retract_script_reads_back():
    document = _document([_prep(700, 1000), _stroke(1000, 2000), _retract(2000, 2500)])
    for fmt in FORMATS:
        assert read_script(emit_document(document, fmt)) == document


@given(k=st.integers(0, 10**12))
def test_every_whole_millisecond_is_a_fixed_point_of_the_time_base(k):
    assert to_ms(float(format_seconds(k))) == k
    prep = [_prep(0, k)] if k else []
    document = _document([*prep, _stroke(k, k + 1), _retract(k + 1, k + 2)], audio_ms=k + 2)
    for fmt in FORMATS:
        assert read_script(emit_script(document, fmt)) == document


def test_tracks_other_than_one_per_arm_are_refused():
    document = _document([_prep(700, 1000), _stroke(1000, 2000), _retract(2000, 2500)])
    for tracks, problem in (
        (list(document.tracks.values()), "tracks is a list, not a dict of arm tracks"),
        ({**document.tracks, "middle": []}, "track 'middle' is not on an arm"),
        ({"left": document.tracks["left"]}, "right: track missing"),
        ({**document.tracks, "left": 5}, "left: track of type int is not a list of events"),
        ({**document.tracks, "left": "prep"}, "left: track of type str is not a list of events"),
        ({**document.tracks, "left": [(1, 2)]}, "left[0]: (1, 2) is not an event of 11 fields"),
        ({**document.tracks, "left": [{"kind": "prep"}]}, "left[0]: {'kind': 'prep'} is not an event of 11 fields"),
    ):
        timeline = replace(document, tracks=tracks)
        assert validate_timeline(timeline) == [problem]
        with pytest.raises(EmitError, match=re.escape(problem)):
            emit_script(timeline)


@pytest.mark.parametrize(
    "events, audio_ms, problem",
    [
        pytest.param(
            [ScriptEvent(400, 700, "hold", "right"), _prep(700, 1000), _stroke(1000, 2000), _retract(2000, 2500)],
            5000, "right[0]: track must begin with a prep", id="hold-first",
        ),
        pytest.param(
            [_prep(700, 1000), _stroke(1000, 2000), _retract(2000, 9000)],
            3000, "right[2]: outside [0, 3000]", id="retract-past-audio",
        ),
        pytest.param(
            [_prep(700, 1000, "left"), _stroke(1000, 2000, "left", "RH"), _retract(2000, 2500, "left")],
            5000, "left[1]: RH stroke on the left arm", id="right-hand-on-left-arm",
        ),
        pytest.param(
            [_prep(700, 1000, "left"), _stroke(1000, 2000, "left", "2H"), _retract(2000, 2500, "left")],
            5000, "left: two-hand stroke at 1000 ms has no synchronized twin on the right arm", id="2H-without-twin",
        ),
        pytest.param(
            [_prep(700, 1000), _stroke(1000, 2000), _stroke(1500, 2500), _retract(2500, 3000)],
            5000, "right[1->2]: phases overlap (stroke ends 2000, stroke starts 1500)", id="overlapping-strokes",
        ),
    ],
)
def test_reader_refuses_what_the_writer_would_not_write(events, audio_ms, problem):
    document = _document(events, audio_ms)
    for fmt in FORMATS:
        with pytest.raises(ScriptError) as err:
            read_script(emit_document(document, fmt))
        assert err.value.path == "events"
        assert problem in str(err.value)


def _text_script() -> bytes:
    return emit_document(_document([_prep(700, 1000), _stroke(1000, 2000), _retract(2000, 2500)]), "text")


def test_text_reader_refuses_features_on_an_event_without_a_gesture():
    text = _text_script()
    line = b"0.700 1.000 prep right - - - - - -"
    assert text.splitlines()[5] == line
    with pytest.raises(ScriptError) as err:
        read_script(text.replace(line, b"0.700 1.000 prep right - 1.0 2.0 junk 4.0 5.0"))
    assert str(err.value) == "line 6: the writer writes '0.700 1.000 prep right - - - - - -\\n' here"


def test_text_reader_refuses_a_repeated_header_line():
    text = _text_script()
    line = b"# config: c\n"
    assert text.splitlines()[4] + b"\n" == line
    with pytest.raises(ScriptError) as err:
        read_script(text.replace(line, line + b"# config: d\n"))
    assert str(err.value) == "line 6: the writer writes '0.700 1.000 prep right - - - - - -\\n' here"


def _compiled_timelines():
    catalog = load_catalog((DATA_DIR / "catalog.txt").read_text(encoding="utf-8"))
    settings = PipelineSettings(extraversion={"A": 7.0, "B": 1.0})
    timelines = []
    for path in sorted((DATA_DIR / "stories").glob("*.dialog")):
        track = parse_word_timings((DATA_DIR / "timings" / f"{path.stem}.tsv").read_text(encoding="utf-8"))
        result = compile_dialog(path.read_text(encoding="utf-8"), catalog, timings=track, settings=settings)
        for speaker in ("A", "B"):
            timelines.append(result.schedule.for_speaker(speaker))
    return timelines


COMPILED = _compiled_timelines()


@st.composite
def _mutated(draw):
    """A compiled script with one event shifted, re-kinded, moved to the
    other arm, given another hand, dropped or duplicated."""
    timeline = draw(st.sampled_from(COMPILED))
    events = document_from_timeline(timeline)
    mutation = draw(st.sampled_from(["shift", "kind", "arm", "hand", "drop", "duplicate"]))
    if mutation == "hand":
        i = draw(st.sampled_from([i for i, e in enumerate(events) if e.kind == STROKE]))
    else:
        i = draw(st.integers(0, len(events) - 1))
    e = events[i]
    if mutation == "shift":
        field = draw(st.sampled_from(["start", "end"]))
        delta = draw(st.integers(-700, 700).filter(bool))
        events[i] = e._replace(**{field: getattr(e, field) + delta})
    elif mutation == "kind":
        kind = draw(st.sampled_from([k for k in KINDS if k != e.kind]))
        if kind == STROKE:
            hand = draw(st.sampled_from(HANDS))
            events[i] = ScriptEvent(e.start, e.end, STROKE, e.arm, "Cup", hand, 25.0, 0.0, 20.0, 1.0, 1.0)
        else:
            events[i] = ScriptEvent(e.start, e.end, kind, e.arm)
    elif mutation == "arm":
        events[i] = e._replace(arm=next(arm for arm in ARMS if arm != e.arm))
    elif mutation == "hand":
        events[i] = e._replace(hand=draw(st.sampled_from([h for h in HANDS if h != e.hand])))
    elif mutation == "drop":
        del events[i]
    else:
        events.insert(i, e)
    return _document(events, timeline.audio_ms, timeline.speaker, timeline.story_id, timeline.config_fingerprint)


@given(document=_mutated())
@settings(max_examples=200, deadline=None)
def test_reader_refuses_a_mutated_script_exactly_when_the_validator_does(document):
    problems = validate_timeline(document)
    for fmt in FORMATS:
        blob = emit_document(document, fmt)
        if problems:
            with pytest.raises(ScriptError) as err:
                read_script(blob)
            assert err.value.path == "events"
            assert str(err.value) == "events: " + "; ".join(problems)
        else:
            assert emit_document(read_script(blob), fmt) == blob


# st.text() never draws a lone surrogate, which no UTF-8 script can hold
_TEXT = st.text() | st.text(st.characters(categories=["Cs", "L", "N", "Zs"]))


@st.composite
def _relabelled(draw):
    """A compiled timeline with one of its speaker, story and config drawn
    from any text, one stroke's gesture from any text or a non-string, one
    stroke's features from finite numbers on and off the 0.001 grid, a
    track added under a key that is not an arm, or an arm's track replaced
    by a non-list or by a list of plain tuples, short tuples or dicts."""
    timeline = draw(st.sampled_from([t for t in COMPILED if document_from_timeline(t)]))
    field = draw(st.sampled_from(["speaker", "story_id", "config_fingerprint", "gesture", "features", "track", "arm"]))
    if field == "track":
        key = draw((_TEXT | st.none() | st.integers()).filter(lambda key: key not in ARMS))
        events = draw(st.sampled_from([[], *timeline.tracks.values()]))
        return replace(timeline, tracks={**timeline.tracks, key: events})
    if field == "arm":
        arm = draw(st.sampled_from(ARMS))
        events = timeline.tracks[arm]
        track = draw(
            st.integers() | _TEXT | st.lists(st.tuples(st.integers(), st.integers()), min_size=1, max_size=2)
            | st.sampled_from([[tuple(e) for e in events], [e._asdict() for e in events]])
        )
        return replace(timeline, tracks={**timeline.tracks, arm: track})
    if field not in ("gesture", "features"):
        return replace(timeline, **{field: draw(_TEXT)})
    tracks = {arm: list(events) for arm, events in timeline.tracks.items()}
    arm, i = draw(st.sampled_from(
        [(arm, i) for arm in ARMS for i, e in enumerate(tracks[arm]) if e.kind == STROKE]
    ))
    if field == "gesture":
        gesture = draw(_TEXT | st.none() | st.booleans() | st.integers() | st.lists(st.text(), max_size=2))
        tracks[arm][i] = tracks[arm][i]._replace(gesture=gesture)
    else:
        number = st.floats(-1e6, 1e6) | st.integers(-10**9, 10**9).map(lambda k: k / 1000)
        tracks[arm][i] = tracks[arm][i]._replace(**{name: draw(number) for name in FEATURES})
    return replace(timeline, tracks=tracks)


@given(timeline=_relabelled())
@settings(max_examples=200, deadline=None)
def test_the_writer_refuses_what_the_reader_refuses_or_reads_back_changed(timeline):
    for fmt in FORMATS:
        try:
            rendered = reference_render(timeline, fmt)  # what an unchecked writer would write
        # a lone surrogate has no UTF-8 form (a ValueError), a malformed track no rendering
        except (LookupError, TypeError, ValueError):
            rendered = None
        try:
            back = None if rendered is None else read_script(rendered)
        except ScriptError:
            back = None
        try:
            blob = emit_script(timeline, fmt)
        except EmitError:
            assert back != timeline
            continue
        assert blob == rendered
        assert back == timeline
        assert emit_document(back, fmt) == blob


def _json_value(data: bytes):
    """A JSON document as what it means: key order is free and 1 equals
    1.0, but a bool is no number and a repeated key is an error."""

    def members(pairs):
        assert len(dict(pairs)) == len(pairs), f"repeated key in {pairs}"
        return {key: (value, type(value) is bool) for key, value in pairs}

    return json.loads(data, object_pairs_hook=members)


_NUMBER = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)
_JSON_LEAF = st.none() | st.booleans() | st.integers(-3, 3) | _NUMBER | st.text(max_size=3)


def _respelled(draw, number: float):
    """``number`` spelled otherwise: the same value or a close one."""
    return draw(st.sampled_from([int(number), number + 0.0001, number - 0.001, round(number, 2), True, str(number)]))


@st.composite
def _mutated_json(draw, raw):
    """A JSON script with a field inserted, deleted or respelled, its keys
    or events reordered, or only its layout changed."""
    raw = json.loads(json.dumps(raw))
    objects = [raw, raw["header"], *raw["events"]]
    target = draw(st.sampled_from(objects))
    mutation = draw(st.sampled_from(["insert", "delete", "respell", "reorder keys", "reorder events", "layout"]))
    if mutation == "insert":
        key = draw(st.sampled_from(["bogus", "gesture", "hand", "speed", "events", "story"]) | st.text(max_size=3))
        target[key] = draw(_JSON_LEAF)
    elif mutation == "delete":
        del target[draw(st.sampled_from(sorted(target)))]
    elif mutation == "respell":
        target = raw["header"] if target is raw else target
        key = draw(st.sampled_from(sorted(k for k, v in target.items() if isinstance(v, float))))
        target[key] = _respelled(draw, target[key])
    elif mutation == "reorder keys":
        items = draw(st.permutations(list(target.items())))
        target.clear()
        target.update(items)
    elif mutation == "reorder events" and len(raw["events"]) > 1:
        i, j = draw(st.lists(st.integers(0, len(raw["events"]) - 1), min_size=2, max_size=2, unique=True))
        raw["events"][i], raw["events"][j] = raw["events"][j], raw["events"][i]
    indent = draw(st.sampled_from([None, 0, 2, 4]))
    return json.dumps(raw, indent=indent, ensure_ascii=draw(st.booleans())).encode()


@st.composite
def _mutated_text(draw, text: bytes):
    """A text script with a line padded, duplicated, moved or given a
    respelled number, or a header line inserted."""
    lines = text.decode().splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    mutation = draw(st.sampled_from(["pad", "duplicate", "move", "respell", "insert header"]))
    if mutation == "pad":
        line = lines[i]
        at = draw(st.integers(0, len(line)))
        lines[i] = line[:at] + draw(st.sampled_from([" ", "  ", "\t"])) + line[at:]
    elif mutation == "duplicate":
        lines.insert(i, lines[i])
    elif mutation == "move":
        lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
    elif mutation == "respell":
        cols = lines[i].split(" ")
        numeric = [k for k, col in enumerate(cols) if col.replace(".", "", 1).isdigit()]
        if numeric:
            k = draw(st.sampled_from(numeric))
            number = float(cols[k])
            spellings = [f"{number:.1f}", f"{number:g}", f"{number:.4f}", f"{number + 0.001:.3f}"]
            cols[k] = draw(st.sampled_from(spellings))
        lines[i] = " ".join(cols)
    else:
        lines.insert(i, draw(st.sampled_from(["# extra: 1", "# story: other", "#", "# audio: 1.000"])))
    return ("\n".join(lines) + "\n").encode()


@st.composite
def _mutated_document(draw):
    timeline = draw(st.sampled_from(COMPILED))
    fmt = draw(st.sampled_from(FORMATS))
    written = emit_document(timeline, fmt)
    if fmt == "json":
        return fmt, draw(_mutated_json(json.loads(written)))
    return fmt, draw(_mutated_text(written))


@given(case=_mutated_document())
@settings(max_examples=300, deadline=None)
def test_the_reader_accepts_a_mutated_script_only_as_the_writer_writes_it(case):
    fmt, data = case
    try:
        timeline = read_script(data)
    except ScriptError:
        return
    if fmt == "json":
        assert _json_value(emit_document(timeline, fmt)) == _json_value(data)
    else:
        assert emit_document(timeline, fmt) == data
