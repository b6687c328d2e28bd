"""Deterministic gesture-script serialization.

A script document is one speaker's ``Timeline``: a header (story, speaker,
audio duration, scheduler-config fingerprint) and per-arm phase events,
written flat and sorted by (start, arm, kind).  ``read_script`` returns the
``Timeline`` that ``emit_script`` wrote, and both refuse a timeline for the
same reason, ``_refusal``: a header rule, or a phase or gesture-name rule of
``validate_timeline``.  Times are ``int`` milliseconds, as in the timeline.
The writers print them as seconds through ``format_seconds``, and the
readers turn them back into milliseconds through one checked function,
``_check_ms``, which rejects a time that is not a whole number of
milliseconds.  The scheduler rounds features to 3 decimals when it builds a
stroke event.  Every number is printed with exactly three decimal places,
which makes emission a canonical form: read(emit(t)) == t and
emit(read(emit(t))) == emit(t) byte for byte.

Two formats are supported.  JSON (see ``docs/script.schema.json``) and a
line-oriented text form, one event per line::

    start end kind arm gesture expanse height outward speed scale

where ``gesture`` is ``name:hand`` for stroke events and ``-`` otherwise,
as are the feature columns.
"""

from __future__ import annotations

import json
from operator import itemgetter

from .dsl import HANDS, SPEAKERS
from .errors import EmitError, ScriptError
from .scheduler import (
    ARMS, FEATURES, KINDS, STROKE, ScriptEvent, Timeline, finite_number, format_seconds, validate_timeline,
)

_TEXT_MAGIC = "# gesture-script v1"
_NO_FEATURES = ["-"] * len(FEATURES)
_EVENT_ORDER = itemgetter(0, 3, 2)  # (start, arm, kind)


def document_from_timeline(timeline: Timeline) -> list[ScriptEvent]:
    """The events of both arms in canonical (start, arm, kind) order."""
    events = [*timeline.tracks["left"], *timeline.tracks["right"]]
    events.sort(key=_EVENT_ORDER)
    return events


def _refusal(timeline: Timeline) -> ScriptError | None:
    """Why the reader would refuse the timeline, as the error it raises, or
    None: a header rule, then the phase and gesture-name rules of
    ``validate_timeline``.  ``emit_script`` raises it as an ``EmitError``.

    The text form writes ``story`` and ``config`` on one header line each
    and strips them on reading, so neither may hold a line break or leading
    or trailing whitespace.  Both forms are UTF-8, so neither may hold a lone
    surrogate either."""
    if timeline.speaker not in SPEAKERS:
        return ScriptError(f"unknown speaker {timeline.speaker!r}", path="header.speaker")
    for field, value in (("story", timeline.story_id), ("config", timeline.config_fingerprint)):
        if not (isinstance(value, str) and value == value.strip() and len(value.splitlines()) <= 1):
            message = "expected a string with no line break and no leading or trailing whitespace"
            return ScriptError(message, path=f"header.{field}")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            return ScriptError(f"not UTF-8: {exc.reason} at {exc.start}", path=f"header.{field}")
    problems = validate_timeline(timeline)
    return ScriptError("; ".join(problems), path="events") if problems else None


# Vocabulary words need no JSON escaping; any other string goes through json.dumps.
_JSON_WORDS = {word: f'"{word}"' for word in KINDS + ARMS + HANDS}


def _json_string(value) -> str:
    return _JSON_WORDS.get(value) or json.dumps(value)


def emit_document(timeline: Timeline, format: str = "json") -> bytes:
    """Render a timeline without checking it; ``emit_script`` checks first."""
    events = document_from_timeline(timeline)
    if format == "json":
        lines = [
            "{",
            '  "header": {'
            f'"story": {json.dumps(timeline.story_id)}, '
            f'"speaker": {json.dumps(timeline.speaker)}, '
            f'"audio": {format_seconds(timeline.audio_ms)}, '
            f'"config": {json.dumps(timeline.config_fingerprint)}'
            "},",
            '  "events": [',
        ]
        rendered = []
        for start, end, kind, arm, gesture, hand, expanse, height, outward, speed, scale in events:
            if kind == STROKE:
                rendered.append(
                    f'    {{"start": {format_seconds(start)}, "end": {format_seconds(end)}, '
                    f'"kind": "stroke", "arm": {_json_string(arm)}, '
                    f'"gesture": {json.dumps(gesture)}, "hand": {_json_string(hand)}, '
                    f'"expanse": {expanse:.3f}, "height": {height:.3f}, "outward": {outward:.3f}, '
                    f'"speed": {speed:.3f}, "scale": {scale:.3f}}}'
                )
            else:
                rendered.append(
                    f'    {{"start": {format_seconds(start)}, "end": {format_seconds(end)}, '
                    f'"kind": {_json_string(kind)}, "arm": {_json_string(arm)}}}'
                )
        lines.append(",\n".join(rendered))
        lines += ["  ]", "}", ""]
        return "\n".join(lines).encode("utf-8")
    if format == "text":
        lines = [
            _TEXT_MAGIC,
            f"# story: {timeline.story_id}",
            f"# speaker: {timeline.speaker}",
            f"# audio: {format_seconds(timeline.audio_ms)}",
            f"# config: {timeline.config_fingerprint}",
        ]
        for start, end, kind, arm, gesture, hand, expanse, height, outward, speed, scale in events:
            if kind == STROKE:
                lines.append(
                    f"{format_seconds(start)} {format_seconds(end)} {kind} {arm} {gesture}:{hand} "
                    f"{expanse:.3f} {height:.3f} {outward:.3f} {speed:.3f} {scale:.3f}"
                )
            else:
                lines.append(f"{format_seconds(start)} {format_seconds(end)} {kind} {arm} - - - - - -")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise EmitError(f"unknown script format {format!r}")


def emit_script(timeline: Timeline, format: str = "json") -> bytes:
    """Serialize a timeline; a timeline the reader would refuse is rejected."""
    error = _refusal(timeline)
    if error:
        raise EmitError(str(error))
    return emit_document(timeline, format=format)


def _require(condition: bool, message: str, path: str):
    if not condition:
        raise ScriptError(message, path=path)


def _check_number(value, path: str) -> float:
    _require(finite_number(value), "expected a finite number", path)
    _require(round(value, 3) == value, "numbers carry exactly 3 decimals", path)
    return float(value)


def _check_ms(value, path: str) -> int:
    """A time in seconds as ``int`` milliseconds; any other time is rejected."""
    _require(finite_number(value) and finite_number(value * 1000), "expected a finite number", path)
    ms = round(value * 1000)
    _require(ms / 1000 == value, "times carry at most 3 decimals", path)
    return ms


def _event(path: str, start, end, kind: str, arm: str, gesture=None, hand=None, features=()) -> ScriptEvent:
    """One event checked against the format rules; times in seconds,
    ``features`` as in ``FEATURES``.  The phase rules are ``validate_timeline``'s."""
    _require(arm in ARMS, f"unknown arm {arm!r}", f"{path}.arm")
    return ScriptEvent(
        _check_ms(start, f"{path}.start"),
        _check_ms(end, f"{path}.end"),
        kind,
        arm,
        gesture,
        hand,
        *(None if v is None else _check_number(v, f"{path}.{name}") for name, v in zip(FEATURES, features)),
    )


def _float(text: str, message: str, path: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ScriptError(message, path=path) from None


def _timeline(header: dict, events: list[ScriptEvent]) -> Timeline:
    """The timeline of a read script, held to the rules ``emit_script``
    writes by: the event order and ``_refusal``."""
    for key in ("story", "speaker", "audio", "config"):
        _require(key in header, f"missing header field {key!r}", f"header.{key}")
    audio = _check_ms(header["audio"], "header.audio")
    order = list(map(_EVENT_ORDER, events))
    _require(order == sorted(order), "events must be sorted by (start, arm, kind)", "events")
    timeline = Timeline(header["speaker"], {arm: [] for arm in ARMS}, audio, header["story"], header["config"])
    for e in events:
        timeline.tracks[e.arm].append(e)
    error = _refusal(timeline)
    if error:
        raise error
    return timeline


def _read_json(data: bytes) -> Timeline:
    try:
        raw = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ScriptError(f"not valid JSON: {exc}") from None
    _require(isinstance(raw, dict), "document must be an object", "$")
    _require(isinstance(raw.get("header"), dict), "missing header object", "header")
    _require(isinstance(raw.get("events"), list), "missing events array", "events")
    events = []
    for i, item in enumerate(raw["events"]):
        path = f"events[{i}]"
        _require(isinstance(item, dict), "event must be an object", path)
        for key in ("start", "end", "kind", "arm"):
            _require(key in item, f"missing field {key!r}", f"{path}.{key}")
        features = [item.get(name) for name in FEATURES]
        events.append(_event(
            path, item["start"], item["end"], str(item["kind"]), str(item["arm"]),
            item.get("gesture"), item.get("hand"), features,
        ))
    return _timeline(raw["header"], events)


def _read_text(text: str) -> Timeline:
    meta = {}
    events = []
    lines = text.splitlines()
    _require(bool(lines) and lines[0].strip() == _TEXT_MAGIC, "missing script magic line", "$")
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            key = key.strip()
            _require(key not in meta, f"line {lineno}: repeated header line {key!r}", f"header.{key}")
            value = value.strip()
            meta[key] = _float(value, "bad audio duration", "header.audio") if key == "audio" else value
            continue
        path = f"events[{len(events)}]"
        cols = line.split()
        _require(len(cols) == 10, f"line {lineno}: expected 10 columns, got {len(cols)}", path)
        start, end = (_float(c, f"line {lineno}: bad times", path) for c in cols[:2])
        gesture = hand = None
        features = ()
        if cols[4] != "-":
            gesture, _, hand = cols[4].partition(":")
            features = [_float(c, f"line {lineno}: bad feature columns", path) for c in cols[5:]]
        else:
            _require(cols[5:] == _NO_FEATURES, f"line {lineno}: features without a gesture", path)
        events.append(_event(path, start, end, cols[2], cols[3], gesture, hand or None, features))
    return _timeline(meta, events)


def _not_as_written(data: bytes, written: bytes) -> ScriptError:
    """The first line of a text script that differs from the writer's."""
    ours, theirs = written.splitlines(keepends=True), data.splitlines(keepends=True)
    n = 0
    while n < len(ours) and n < len(theirs) and ours[n] == theirs[n]:
        n += 1
    expected = repr(ours[n].decode("utf-8")) if n < len(ours) else "no line"
    return ScriptError(f"line {n + 1}: the writer writes {expected} here")


def read_script(data: bytes) -> Timeline:
    """Parse a script document (either format) into the ``Timeline`` it
    was written from, checked by the rules ``emit_script`` writes by.

    Raises :class:`ScriptError` naming the offending field on a format or
    header rule, or at path ``events`` naming ``arm[i]`` on a phase or
    gesture-name rule.  A text script must be byte for byte what the writer
    writes for the timeline it holds; otherwise the error names the first
    line that differs.
    """
    if not data:
        raise ScriptError("empty document")
    if data.lstrip().startswith(b"{"):
        return _read_json(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScriptError(f"not UTF-8: {exc}") from None
    timeline = _read_text(text)
    written = emit_document(timeline, "text")
    if written != data:
        raise _not_as_written(data, written)
    return timeline
