"""Deterministic gesture-script serialization.

A script document is the flat, renderer-facing form of one speaker's
timeline: a header (story, speaker, audio duration, scheduler-config
fingerprint) and phase events sorted by (start, arm, kind).  Times are
``int`` milliseconds, as in the timeline.  The writers print them as
seconds through ``format_seconds``, and the readers turn them back into
milliseconds through one checked function, ``_check_ms``, which rejects a
time that is not a whole number of milliseconds.  The scheduler rounds
features to 3 decimals when it builds a stroke event.  Every number is
printed with exactly three decimal places, which makes emission a canonical
form: emit(read(emit(t))) == emit(t) byte for byte.

Two formats are supported.  JSON (see ``docs/script.schema.json``) and a
line-oriented text form, one event per line::

    start end kind arm gesture expanse height outward speed scale

where ``gesture`` is ``name:hand`` for stroke events and ``-`` otherwise,
as are the feature columns.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from operator import itemgetter

from .dsl import GESTURE_NAME, HANDS, SPEAKERS
from .errors import EmitError, ScriptError
from .scheduler import ARMS, FEATURES, KINDS, STROKE, ScriptEvent, Timeline, format_seconds, validate_timeline

_TEXT_MAGIC = "# gesture-script v1"
_NO_FEATURES = ["-"] * len(FEATURES)
_GESTURE_RE = re.compile(GESTURE_NAME)


@dataclass(frozen=True)
class ScriptHeader:
    story_id: str
    speaker: str
    audio_ms: int
    config_fingerprint: str


@dataclass(frozen=True)
class ScriptDocument:
    header: ScriptHeader
    events: tuple[ScriptEvent, ...]


_EVENT_ORDER = itemgetter(0, 3, 2)  # (start, arm, kind)


def document_from_timeline(timeline: Timeline) -> ScriptDocument:
    """The events of both arms in canonical order under the timeline's header."""
    events = [*timeline.tracks["left"], *timeline.tracks["right"]]
    events.sort(key=_EVENT_ORDER)
    header = ScriptHeader(
        story_id=timeline.story_id,
        speaker=timeline.speaker,
        audio_ms=timeline.audio_ms,
        config_fingerprint=timeline.config_fingerprint,
    )
    return ScriptDocument(header=header, events=tuple(events))


# Vocabulary words need no JSON escaping; any other string goes through json.dumps.
_JSON_WORDS = {word: f'"{word}"' for word in KINDS + ARMS + HANDS}


def _json_string(value) -> str:
    return _JSON_WORDS.get(value) or json.dumps(value)


def emit_document(document: ScriptDocument, format: str = "json") -> bytes:
    h = document.header
    if format == "json":
        lines = [
            "{",
            '  "header": {'
            f'"story": {json.dumps(h.story_id)}, '
            f'"speaker": {json.dumps(h.speaker)}, '
            f'"audio": {format_seconds(h.audio_ms)}, '
            f'"config": {json.dumps(h.config_fingerprint)}'
            "},",
            '  "events": [',
        ]
        events = []
        for start, end, kind, arm, gesture, hand, expanse, height, outward, speed, scale in document.events:
            if kind == STROKE:
                events.append(
                    f'    {{"start": {format_seconds(start)}, "end": {format_seconds(end)}, '
                    f'"kind": "stroke", "arm": {_json_string(arm)}, '
                    f'"gesture": {json.dumps(gesture)}, "hand": {_json_string(hand)}, '
                    f'"expanse": {expanse:.3f}, "height": {height:.3f}, "outward": {outward:.3f}, '
                    f'"speed": {speed:.3f}, "scale": {scale:.3f}}}'
                )
            else:
                events.append(
                    f'    {{"start": {format_seconds(start)}, "end": {format_seconds(end)}, '
                    f'"kind": {_json_string(kind)}, "arm": {_json_string(arm)}}}'
                )
        lines.append(",\n".join(events))
        lines += ["  ]", "}", ""]
        return "\n".join(lines).encode("utf-8")
    if format == "text":
        lines = [
            _TEXT_MAGIC,
            f"# story: {h.story_id}",
            f"# speaker: {h.speaker}",
            f"# audio: {format_seconds(h.audio_ms)}",
            f"# config: {h.config_fingerprint}",
        ]
        for start, end, kind, arm, gesture, hand, expanse, height, outward, speed, scale in document.events:
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
    """Serialize a timeline; invalid timelines are rejected."""
    problems = validate_timeline(timeline)
    if problems:
        raise EmitError("invalid timeline: " + "; ".join(problems))
    return emit_document(document_from_timeline(timeline), format=format)


def _require(condition: bool, message: str, path: str):
    if not condition:
        raise ScriptError(message, path=path)


def _finite(value) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _check_number(value, path: str) -> float:
    _require(_finite(value), "expected a finite number", path)
    _require(round(value, 3) == value, "numbers carry exactly 3 decimals", path)
    return float(value)


def _check_ms(value, path: str) -> int:
    """A time in seconds as ``int`` milliseconds; any other time is rejected."""
    _require(_finite(value) and _finite(value * 1000), "expected a finite number", path)
    ms = round(value * 1000)
    _require(ms / 1000 == value, "times carry at most 3 decimals", path)
    return ms


def _event(path: str, start, end, kind: str, arm: str, gesture=None, hand=None, features=()) -> ScriptEvent:
    """One event checked against the format rules; times in seconds,
    ``features`` as in ``FEATURES``.  The phase rules are ``validate_timeline``'s."""
    _require(arm in ARMS, f"unknown arm {arm!r}", f"{path}.arm")
    _require(
        gesture is None or (isinstance(gesture, str) and _GESTURE_RE.fullmatch(gesture) is not None),
        f"gesture {gesture!r} is not a gesture name", f"{path}.gesture",
    )
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


def _header_line(value, key: str) -> str:
    """A header string that the text form writes on one line and reads back as is."""
    _require(
        isinstance(value, str) and value == value.strip() and len(value.splitlines()) <= 1,
        "expected a string with no line break and no leading or trailing whitespace",
        f"header.{key}",
    )
    return value


def _header(story, speaker, audio, config) -> ScriptHeader:
    _require(speaker in SPEAKERS, f"unknown speaker {speaker!r}", "header.speaker")
    return ScriptHeader(
        _header_line(story, "story"), speaker, _check_ms(audio, "header.audio"), _header_line(config, "config")
    )


def _read_json(data: bytes) -> ScriptDocument:
    try:
        raw = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ScriptError(f"not valid JSON: {exc}") from None
    _require(isinstance(raw, dict), "document must be an object", "$")
    _require(isinstance(raw.get("header"), dict), "missing header object", "header")
    _require(isinstance(raw.get("events"), list), "missing events array", "events")
    h = raw["header"]
    for key in ("story", "speaker", "audio", "config"):
        _require(key in h, f"missing header field {key!r}", f"header.{key}")
    header = _header(h["story"], h["speaker"], h["audio"], h["config"])
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
    return ScriptDocument(header=header, events=tuple(events))


def _read_text(text: str) -> ScriptDocument:
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
            meta[key] = value.strip()
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
    for key in ("story", "speaker", "audio", "config"):
        _require(key in meta, f"missing header line {key!r}", f"header.{key}")
    audio = _float(meta["audio"], "bad audio duration", "header.audio")
    header = _header(meta["story"], meta["speaker"], audio, meta["config"])
    return ScriptDocument(header=header, events=tuple(events))


def read_script(data: bytes) -> ScriptDocument:
    """Parse a script document (either format) and check its events with
    ``validate_timeline``, the rules ``emit_script`` writes by.

    Raises :class:`ScriptError` naming the offending field on a format
    violation, or at path ``events`` naming ``arm[i]`` on a phase rule.
    """
    if not data:
        raise ScriptError("empty document")
    stripped = data.lstrip()
    if stripped.startswith(b"{"):
        doc = _read_json(data)
    else:
        try:
            doc = _read_text(data.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ScriptError(f"not UTF-8: {exc}") from None
    order = list(map(_EVENT_ORDER, doc.events))
    _require(order == sorted(order), "events must be sorted by (start, arm, kind)", "events")
    tracks = {arm: [] for arm in ARMS}
    for e in doc.events:
        tracks[e.arm].append(e)
    h = doc.header
    problems = validate_timeline(Timeline(h.speaker, tracks, h.audio_ms, h.story_id, h.config_fingerprint))
    _require(not problems, "; ".join(problems), "events")
    return doc
