"""Deterministic gesture-script serialization.

A script document is the flat, renderer-facing form of one speaker's
timeline: a header (story, speaker, audio duration, scheduler-config
fingerprint) and phase events sorted by (start, arm, kind).  All numeric
fields are printed with exactly three decimal places (millisecond
precision), which makes emission a canonical form: emit(read(emit(t)))
== emit(t) byte for byte.

Two formats are supported.  JSON (see ``docs/script.schema.json``) and a
line-oriented text form, one event per line::

    start end kind arm gesture expanse height outward speed scale

where ``gesture`` is ``name:hand`` for stroke events and ``-`` otherwise,
as are the feature columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import EmitError, ScriptError
from .scheduler import ARMS, STROKE, Timeline, validate_timeline

KINDS = ("prep", "stroke", "hold", "retract")
HANDS = ("LH", "RH", "2H")

_TEXT_MAGIC = "# gesture-script v1"


@dataclass(frozen=True)
class ScriptEvent:
    start: float
    end: float
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
    audio_duration: float
    config_fingerprint: str


@dataclass(frozen=True)
class ScriptDocument:
    header: ScriptHeader
    events: tuple[ScriptEvent, ...]


def document_from_timeline(timeline: Timeline) -> ScriptDocument:
    """Flatten a timeline into canonical (3-decimal) event records.

    Times are already on the millisecond grid; features are rounded here.
    """
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
        audio_duration=timeline.audio_duration,
        config_fingerprint=timeline.config_fingerprint,
    )
    return ScriptDocument(header=header, events=tuple(events))


def _json_event(e: ScriptEvent) -> str:
    parts = [
        f'"start": {e.start:.3f}',
        f'"end": {e.end:.3f}',
        f'"kind": {json.dumps(e.kind)}',
        f'"arm": {json.dumps(e.arm)}',
    ]
    if e.kind == STROKE:
        parts += [
            f'"gesture": {json.dumps(e.gesture)}',
            f'"hand": {json.dumps(e.hand)}',
            f'"expanse": {e.expanse:.3f}',
            f'"height": {e.height:.3f}',
            f'"outward": {e.outward:.3f}',
            f'"speed": {e.speed:.3f}',
            f'"scale": {e.scale:.3f}',
        ]
    return "    {" + ", ".join(parts) + "}"


def emit_document(document: ScriptDocument, format: str = "json") -> bytes:
    h = document.header
    if format == "json":
        lines = [
            "{",
            '  "header": {'
            f'"story": {json.dumps(h.story_id)}, '
            f'"speaker": {json.dumps(h.speaker)}, '
            f'"audio": {h.audio_duration:.3f}, '
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
            f"# audio: {h.audio_duration:.3f}",
            f"# config: {h.config_fingerprint}",
        ]
        for e in document.events:
            if e.kind == STROKE:
                tail = (
                    f"{e.gesture}:{e.hand} {e.expanse:.3f} {e.height:.3f} "
                    f"{e.outward:.3f} {e.speed:.3f} {e.scale:.3f}"
                )
            else:
                tail = "- - - - - -"
            lines.append(f"{e.start:.3f} {e.end:.3f} {e.kind} {e.arm} {tail}")
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


def _check_number(value, path: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), "expected a number", path)
    _require(round(float(value), 3) == float(value), "numbers carry exactly 3 decimals", path)
    return float(value)


def _validate_event(e: ScriptEvent, path: str) -> None:
    _require(e.kind in KINDS, f"unknown kind {e.kind!r}", f"{path}.kind")
    _require(e.arm in ARMS, f"unknown arm {e.arm!r}", f"{path}.arm")
    _require(e.end > e.start, f"end {e.end} not after start {e.start}", f"{path}.end")
    _require(e.start >= 0, "start must be >= 0", f"{path}.start")
    if e.kind == STROKE:
        _require(bool(e.gesture), "stroke events need a gesture", f"{path}.gesture")
        _require(e.hand in HANDS, f"unknown hand {e.hand!r}", f"{path}.hand")
        for name in ("expanse", "height", "outward", "speed", "scale"):
            _require(getattr(e, name) is not None, f"stroke events need {name}", f"{path}.{name}")
        _require(e.speed > 0 and e.scale > 0, "speed and scale must be > 0", f"{path}.speed")
    else:
        _require(e.gesture is None, f"{e.kind} events carry no gesture", f"{path}.gesture")


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
    header = ScriptHeader(
        story_id=str(h["story"]),
        speaker=str(h["speaker"]),
        audio_duration=_check_number(h["audio"], "header.audio"),
        config_fingerprint=str(h["config"]),
    )
    events = []
    for i, item in enumerate(raw["events"]):
        path = f"events[{i}]"
        _require(isinstance(item, dict), "event must be an object", path)
        for key in ("start", "end", "kind", "arm"):
            _require(key in item, f"missing field {key!r}", f"{path}.{key}")
        kind = str(item["kind"])
        event = ScriptEvent(
            start=_check_number(item["start"], f"{path}.start"),
            end=_check_number(item["end"], f"{path}.end"),
            kind=kind,
            arm=str(item["arm"]),
            gesture=item.get("gesture"),
            hand=item.get("hand"),
            expanse=_check_number(item["expanse"], f"{path}.expanse") if "expanse" in item else None,
            height=_check_number(item["height"], f"{path}.height") if "height" in item else None,
            outward=_check_number(item["outward"], f"{path}.outward") if "outward" in item else None,
            speed=_check_number(item["speed"], f"{path}.speed") if "speed" in item else None,
            scale=_check_number(item["scale"], f"{path}.scale") if "scale" in item else None,
        )
        _validate_event(event, path)
        events.append(event)
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
        try:
            start, end = float(cols[0]), float(cols[1])
        except ValueError:
            raise ScriptError(f"line {lineno}: bad times", path=path) from None
        gesture = hand = None
        features = [None] * 5
        if cols[4] != "-":
            gesture, _, hand = cols[4].partition(":")
            try:
                features = [float(c) for c in cols[5:]]
            except ValueError:
                raise ScriptError(f"line {lineno}: bad feature columns", path=path) from None
        event = ScriptEvent(
            start=_check_number(start, f"{path}.start"),
            end=_check_number(end, f"{path}.end"),
            kind=cols[2],
            arm=cols[3],
            gesture=gesture,
            hand=hand or None,
            expanse=features[0],
            height=features[1],
            outward=features[2],
            speed=features[3],
            scale=features[4],
        )
        _validate_event(event, path)
        events.append(event)
    for key in ("story", "speaker", "audio", "config"):
        _require(key in meta, f"missing header line {key!r}", f"header.{key}")
    try:
        audio = float(meta["audio"])
    except ValueError:
        raise ScriptError("bad audio duration", path="header.audio") from None
    header = ScriptHeader(
        story_id=meta["story"],
        speaker=meta["speaker"],
        audio_duration=_check_number(audio, "header.audio"),
        config_fingerprint=meta["config"],
    )
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
