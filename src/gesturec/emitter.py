"""Deterministic gesture-script serialization.

A script document is the flat, renderer-facing form of one speaker's
timeline: a header (story, speaker, audio duration, scheduler-config
fingerprint) and phase events sorted by (start, arm, kind).  Times are
``int`` milliseconds, as in the timeline.  The writers print them as
seconds through ``format_seconds``, and the readers turn them back into
milliseconds through one checked function, ``_check_ms``, which rejects a
time that is not a whole number of milliseconds.  Features are rounded to
3 decimals when a timeline is flattened.  Every number is printed with
exactly three decimal places, which makes emission a canonical form:
emit(read(emit(t))) == emit(t) byte for byte.

Two formats are supported.  JSON (see ``docs/script.schema.json``) and a
line-oriented text form, one event per line::

    start end kind arm gesture expanse height outward speed scale

where ``gesture`` is ``name:hand`` for stroke events and ``-`` otherwise,
as are the feature columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .dsl import HANDS
from .errors import EmitError, ScriptError
from .scheduler import ARMS, KINDS, STROKE, Timeline, format_seconds, validate_timeline

FEATURES = ("expanse", "height", "outward", "speed", "scale")

_TEXT_MAGIC = "# gesture-script v1"


@dataclass(frozen=True)
class ScriptEvent:
    start: int  # ms
    end: int  # ms
    kind: str
    arm: str
    gesture: str | None = None
    hand: str | None = None
    expanse: float | None = None
    height: float | None = None
    outward: float | None = None
    speed: float | None = None
    scale: float | None = None


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


def document_from_timeline(timeline: Timeline) -> ScriptDocument:
    """Flatten a timeline into canonical event records; features are
    rounded to 3 decimals here."""
    events = []
    for arm in ARMS:
        for phase in timeline.tracks[arm].phases:
            if phase.kind == STROKE:
                f = phase.features
                events.append(
                    ScriptEvent(
                        start=phase.start,
                        end=phase.end,
                        kind=phase.kind,
                        arm=arm,
                        gesture=phase.gesture.gesture_name,
                        hand=phase.gesture.hand,
                        expanse=round(f.expanse_cm, 3),
                        height=round(f.height_cm, 3),
                        outward=round(f.outwardness_cm, 3),
                        speed=round(f.speed, 3),
                        scale=round(f.scale, 3),
                    )
                )
            else:
                events.append(
                    ScriptEvent(start=phase.start, end=phase.end, kind=phase.kind, arm=arm)
                )
    events.sort(key=lambda e: (e.start, e.arm, e.kind))
    header = ScriptHeader(
        story_id=timeline.story_id,
        speaker=timeline.speaker,
        audio_ms=timeline.audio_ms,
        config_fingerprint=timeline.config_fingerprint,
    )
    return ScriptDocument(header=header, events=tuple(events))


def _json_event(e: ScriptEvent) -> str:
    parts = [
        f'"start": {format_seconds(e.start)}',
        f'"end": {format_seconds(e.end)}',
        f'"kind": {json.dumps(e.kind)}',
        f'"arm": {json.dumps(e.arm)}',
    ]
    if e.kind == STROKE:
        parts += [f'"gesture": {json.dumps(e.gesture)}', f'"hand": {json.dumps(e.hand)}']
        parts += [f'"{name}": {getattr(e, name):.3f}' for name in FEATURES]
    return "    {" + ", ".join(parts) + "}"


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
        lines.append(",\n".join(_json_event(e) for e in document.events))
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
        for e in document.events:
            if e.kind == STROKE:
                tail = " ".join([f"{e.gesture}:{e.hand}"] + [f"{getattr(e, name):.3f}" for name in FEATURES])
            else:
                tail = "- - - - - -"
            lines.append(f"{format_seconds(e.start)} {format_seconds(e.end)} {e.kind} {e.arm} {tail}")
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
    """One checked event; times in seconds, ``features`` as in ``FEATURES``."""
    e = ScriptEvent(
        _check_ms(start, f"{path}.start"),
        _check_ms(end, f"{path}.end"),
        kind,
        arm,
        gesture,
        hand,
        *(None if v is None else _check_number(v, f"{path}.{name}") for name, v in zip(FEATURES, features)),
    )
    _require(e.kind in KINDS, f"unknown kind {e.kind!r}", f"{path}.kind")
    _require(e.arm in ARMS, f"unknown arm {e.arm!r}", f"{path}.arm")
    _require(
        e.end > e.start, f"end {format_seconds(e.end)} not after start {format_seconds(e.start)}", f"{path}.end"
    )
    _require(e.start >= 0, "start must be >= 0", f"{path}.start")
    if e.kind == STROKE:
        _require(bool(e.gesture), "stroke events need a gesture", f"{path}.gesture")
        _require(e.hand in HANDS, f"unknown hand {e.hand!r}", f"{path}.hand")
        for name in FEATURES:
            _require(getattr(e, name) is not None, f"stroke events need {name}", f"{path}.{name}")
        _require(e.speed > 0 and e.scale > 0, "speed and scale must be > 0", f"{path}.speed")
    else:
        for name in ("gesture", "hand") + FEATURES:
            _require(getattr(e, name) is None, f"{e.kind} events carry no {name}", f"{path}.{name}")
    return e


def _float(text: str, message: str, path: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ScriptError(message, path=path) from None


def _header(story, speaker, audio, config) -> ScriptHeader:
    return ScriptHeader(str(story), str(speaker), _check_ms(audio, "header.audio"), str(config))


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
            meta[key.strip()] = value.strip()
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
        events.append(_event(path, start, end, cols[2], cols[3], gesture, hand or None, features))
    for key in ("story", "speaker", "audio", "config"):
        _require(key in meta, f"missing header line {key!r}", f"header.{key}")
    audio = _float(meta["audio"], "bad audio duration", "header.audio")
    header = _header(meta["story"], meta["speaker"], audio, meta["config"])
    return ScriptDocument(header=header, events=tuple(events))


def read_script(data: bytes) -> ScriptDocument:
    """Parse and validate a script document (either format).

    Raises :class:`ScriptError` naming the offending field on any schema
    violation.
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
    order = [(e.start, e.arm, e.kind) for e in doc.events]
    _require(order == sorted(order), "events must be sorted by (start, arm, kind)", "events")
    return doc
