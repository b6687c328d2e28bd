"""The gesture script: its record, rules, time base, writer and reader.

A script document is one speaker's ``Timeline``: a header (story, speaker,
audio duration, scheduler-config fingerprint) and per-arm tracks of
``ScriptEvent`` phases, written flat and sorted by (start, arm, kind).
Times are ``int`` milliseconds.  Seconds become milliseconds only through
``to_ms``, in the scheduler, alignment and the reader alike, and are
printed as seconds through ``format_seconds``.  ``to_ms`` is exact, and
all but near-ties take one float product and one ``round``.  The scheduler
rounds features to 3 decimals, and every number is printed with exactly
three, so emission is a canonical form.  ``validate_timeline`` holds the
phase and gesture-name rules and checks afresh on each call;
``emit_script`` refuses a timeline for a header rule or one of those
(``Timeline._refusal``).  ``read_script``
has one format rule for both formats: a document is the bytes
``emit_document`` writes for the timeline it holds.  So read(emit(t)) == t,
and every document the reader accepts re-emits to itself.
``emit_document`` renders a timeline whose values the rules admit and does
not check its phase rules.

A ``Timeline`` is immutable: frozen fields and a read-only mapping of arm
tracks, each a tuple of events, which in an accepted timeline hold only
ints, strings, floats and None.  So its verdict under the rules, its
canonical event order, its seconds strings and its two documents are each
computed once per timeline and kept with it: the seconds strings in one
pass over the ordered events, and the JSON and text documents together in
one walk over them, each encoded to UTF-8 only when its format is asked
for.  Writing it in both formats, or reading a script and writing it
again, checks, orders, formats and renders it once.  A refused timeline
stays refused, since no value of a wrong type can change into a right one.

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
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

from .dsl import GESTURE_NAME, HANDS, SPEAKERS
from .errors import EmitError, ScriptError

PREP = "prep"
STROKE = "stroke"
HOLD = "hold"
RETRACT = "retract"
KINDS = (PREP, STROKE, HOLD, RETRACT)

ARMS = ("left", "right")
ARMS_OF_HAND = {"LH": ("left",), "RH": ("right",), "2H": ARMS}  # the arms a stroke of each hand uses
FEATURES = ("expanse", "height", "outward", "speed", "scale")


_FAST_MS = 2.0**31  # below this many milliseconds a product is within 2**-23 ms of the exact one


def to_ms(seconds: float) -> int:
    """Seconds as whole milliseconds, half a millisecond rounded as
    ``round(seconds, 3)`` rounds it: the one seconds-to-milliseconds rule.

    The fast path is exact.  ``round(seconds, 3)`` is correctly rounded, so
    the rule gives the integer on the side of the nearest half millisecond
    that the exact product ``seconds * 1000`` lies on.  Below ``2**31`` ms
    the float product ``x`` is within ``2**-23`` (1.2e-7) ms of the exact
    one, so when ``x`` is more than 1e-6 ms from every half millisecond,
    both lie on the same side of each, and ``round(x)`` is the rule's
    integer.  ``round(x)`` is the nearest integer, so ``x`` is within 1e-6
    ms of a half millisecond exactly when ``x - round(x)`` is outside
    (-0.499999, 0.499999).  Near-ties, larger values, nan and inf take the
    rule itself, which gives the same result or raises the same exception."""
    x = seconds * 1000
    if -_FAST_MS < x < _FAST_MS:
        ms = round(x)
        if -0.499999 < x - ms < 0.499999:
            return ms
    return round(round(seconds, 3) * 1000)


def format_seconds(ms: int) -> str:
    """Milliseconds as seconds with 3 decimals, the inverse of ``to_ms``."""
    return f"{ms / 1000:.3f}"


def finite_number(value) -> bool:
    """Whether ``value`` is a finite ``int`` or ``float``; a bool is not."""
    if type(value) is bool or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


TIMES_ONLY = (None,) * 7  # the gesture, hand and features of a prep, hold or retract


class ScriptEvent(NamedTuple):
    """One phase of one arm: the record from the scheduler to the script
    reader.  A stroke carries its gesture name, hand and features rounded to
    3 decimals; the other phases carry times only."""

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
class Timeline:
    """One speaker's script, immutable (see the module docstring): a dict
    of tracks is kept as a read-only mapping of each arm to a tuple."""

    speaker: str
    tracks: Mapping[str, tuple[ScriptEvent, ...]]  # per arm, in time order
    audio_ms: int
    story_id: str = ""
    config_fingerprint: str = ""

    def __post_init__(self):
        tracks = self.tracks
        if isinstance(tracks, (dict, MappingProxyType)):  # any other value stays, for the rules to refuse
            tracks = {arm: tuple(e) if isinstance(e, (list, tuple)) else e for arm, e in tracks.items()}
            object.__setattr__(self, "tracks", MappingProxyType(tracks))

    @cached_property
    def _refusal(self) -> ScriptError | None:
        """Why the reader would refuse the timeline, as the error it raises,
        or None: a header rule, then the phase and gesture-name rules of
        ``validate_timeline``.  ``emit_script`` raises it as an ``EmitError``.

        The text form writes ``story`` and ``config`` on one header line
        each and strips them on reading, so neither may hold a line break or
        leading or trailing whitespace.  Both forms are UTF-8, so neither may
        hold a lone surrogate either."""
        if self.speaker not in SPEAKERS:
            return ScriptError(f"unknown speaker {self.speaker!r}", path="header.speaker")
        for field, value in (("story", self.story_id), ("config", self.config_fingerprint)):
            if not (isinstance(value, str) and value == value.strip() and len(value.splitlines()) <= 1):
                message = "expected a string with no line break and no leading or trailing whitespace"
                return ScriptError(message, path=f"header.{field}")
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                return ScriptError(f"not UTF-8: {exc.reason} at {exc.start}", path=f"header.{field}")
        problems = validate_timeline(self)
        return ScriptError("; ".join(problems), path="events") if problems else None

    @cached_property
    def _order(self) -> list[ScriptEvent]:
        return document_from_timeline(self)

    @cached_property
    def _seconds(self) -> dict[int, str]:
        """``format_seconds`` of the audio duration and of each event time, each printed once."""
        order = self._order
        times = {self.audio_ms, *map(itemgetter(0), order), *map(itemgetter(1), order)}
        return {ms: f"{ms / 1000:.3f}" for ms in times}  # format_seconds, inlined

    @cached_property
    def _documents(self) -> tuple[str, str]:
        return _render(self)


_AFTER = {  # the kinds that may follow each kind
    PREP: frozenset((STROKE,)),
    STROKE: frozenset((HOLD, PREP, RETRACT)),
    HOLD: frozenset((PREP,)),
    RETRACT: frozenset((PREP,)),
}
_GESTURE_RE = re.compile(GESTURE_NAME)
_INF = math.inf
_NAN = math.nan


def _is_event(value) -> bool:
    """Whether ``value`` has the shape of a ``ScriptEvent``: a tuple of 11 fields."""
    return isinstance(value, tuple) and len(value) == 11


def _feature_problem(features: tuple) -> str | None:
    """What breaks the feature rules of a stroke, or None: every feature is
    a finite number (``finite_number``) on the 0.001 grid the writer prints,
    and speed and scale are above 0."""
    if None in features:
        return "stroke without effective features"
    for name, value in zip(FEATURES, features):
        if not finite_number(value):
            return f"{name} {value!r} is not a finite number"
        if round(value, 3) != value:
            return f"{name} {value!r} is not on the 0.001 grid"
    if not (features[3] > 0 and features[4] > 0):
        return "speed and scale must be > 0"
    return None


def validate_timeline(timeline: Timeline) -> list[str]:
    """Every phase rule of a script and the gesture-name rule
    (``dsl.GESTURE_NAME``); empty means the timeline is well formed.

    ``emit_script`` and ``read_script`` run it through the timeline's
    verdict, once per timeline, so the reader accepts exactly what the
    writer would write; a direct call checks afresh.
    Every time must be an ``int`` of milliseconds and every feature a finite
    number on the 0.001 grid; the tracks are a dict with a key per arm and
    no other key, each a list or tuple of 11-field event tuples (``Timeline``
    keeps them as a read-only mapping of tuples).  Messages give times in ms
    and name an event ``arm[i]``, its index on its arm's track.  A
    value of the wrong type or shape is reported, never raised on, and the
    order checks pass over an event whose times are not ints or that is no
    event at all.
    """
    problems: list[str] = []
    report = problems.append
    audio = last = timeline.audio_ms  # ``last``: the latest time an event may end
    if type(audio) is not int:
        report(f"audio duration {audio!r} is not integer milliseconds")
        last = _INF
    tracks = timeline.tracks
    if not isinstance(tracks, MappingProxyType):
        report(f"tracks is a {type(tracks).__name__}, not a dict of arm tracks")
        return problems
    for key in tracks:
        if key not in ARMS:
            report(f"track {key!r} is not on an arm")
    twins = {}  # two-hand strokes per arm, without the arm
    names = set()  # gesture names already matched, so each is matched once
    passed_features = set()  # feature tuples of exact floats that passed, so each is checked once
    for arm in ARMS:
        events = tracks.get(arm)
        twins[arm] = two_hand = set()
        if events is None:
            report(f"{arm}: track missing")
            continue
        if not isinstance(events, tuple):
            report(f"{arm}: track of type {type(events).__name__} is not a list of events")
            continue
        prev_kind = prev_end = None  # a kind of None: no event before, or no event checked
        for i, e in enumerate(events):
            if not (isinstance(e, tuple) and len(e) == 11):  # _is_event, inlined
                report(f"{arm}[{i}]: {e!r} is not an event of 11 fields")
                prev_kind = None
                continue
            start, end, kind, on_arm, gesture, hand, expanse, height, outward, speed, scale = e
            timed = type(start) is int and type(end) is int
            if on_arm != arm:
                report(f"{arm}[{i}]: {on_arm} event on the {arm} track")
            if kind == STROKE:
                if isinstance(gesture, str) and (gesture in names or _GESTURE_RE.fullmatch(gesture)):
                    names.add(gesture)
                else:
                    report(f"{arm}[{i}]: gesture {gesture!r} is not a gesture name")
                    gesture = None  # keeps the two-hand key hashable
                if hand not in HANDS:
                    report(f"{arm}[{i}]: unknown hand {hand!r}")
                elif arm not in ARMS_OF_HAND[hand]:
                    report(f"{arm}[{i}]: {hand} stroke on the {arm} arm")
                # exact floats already passed skip the check (and the type
                # test keeps the lookup from hashing a list or matching a bool)
                features = e[6:]
                if not (
                    type(expanse) is type(height) is type(outward) is type(speed) is type(scale) is float
                    and features in passed_features
                ):
                    if problem := _feature_problem(features):
                        report(f"{arm}[{i}]: {problem}")
                        expanse = height = outward = speed = scale = None  # keeps the two-hand key hashable
                    else:
                        passed_features.add(features)
                if hand == "2H" and timed:
                    two_hand.add((start, end, gesture, expanse, height, outward, speed, scale))
            elif kind not in KINDS:
                report(f"{arm}[{i}]: unknown phase kind {kind!r}")
                kind = str(kind)  # the same in messages, and usable as a key by the next event's check
            elif (
                not (gesture is hand is expanse is height is outward is speed is scale is None)
                and e[4:] != TIMES_ONLY  # the deciding test: a value equal to None passes it
            ):
                report(f"{arm}[{i}]: {kind} must not carry a gesture reference, hand or features")
            if not timed:
                report(f"{arm}[{i}]: times {start!r}, {end!r} are not integer milliseconds")
                start = end = _NAN  # fails every comparison below and in the next event's checks
            else:
                if not start < end:
                    report(f"{arm}[{i}]: start {start} not before end {end}")
                if start < 0 or end > last:
                    report(f"{arm}[{i}]: outside [0, {audio}]")
            if prev_kind is not None:
                if start < prev_end:
                    report(
                        f"{arm}[{i - 1}->{i}]: phases overlap ({prev_kind} ends {prev_end}, {kind} starts {start})"
                    )
                if kind not in _AFTER.get(prev_kind, ()):
                    report(f"{arm}[{i - 1}->{i}]: {prev_kind} may not be followed by {kind}")
                # only retract->prep may leave a rest gap
                if prev_kind != RETRACT and start > prev_end:
                    report(f"{arm}[{i - 1}->{i}]: gap between {prev_kind} and {kind}")
            prev_kind, prev_end = kind, end
        if events:
            head, tail = events[0], events[-1]
            if _is_event(head) and head[2] != PREP and not (head[2] == STROKE and head[0] == 0):
                report(f"{arm}[0]: track must begin with a prep")
            if _is_event(tail) and tail[2] != RETRACT and tail[1] != audio:
                report(f"{arm}[{len(events) - 1}]: track must end with a retract")
    for arm, other in (("left", "right"), ("right", "left")):
        for key in sorted(twins[arm] - twins[other], key=itemgetter(0)):
            report(f"{arm}: two-hand stroke at {key[0]} ms has no synchronized twin on the {other} arm")
    return problems


_EVENT_ORDER = itemgetter(0, 3, 2)  # (start, arm, kind)


def document_from_timeline(timeline: Timeline) -> list[ScriptEvent]:
    """The events of both arms in canonical (start, arm, kind) order."""
    events = [*timeline.tracks["left"], *timeline.tracks["right"]]
    events.sort(key=_EVENT_ORDER)
    return events


def _render(timeline: Timeline) -> tuple[str, str]:
    """The JSON and the text document of a timeline, rendered in one walk
    over its canonical event order (``emit_document`` has the value rules).

    Each distinct time and stroke is printed once: a phase starts where the
    one before it ends, and a gesture keeps its hand and features.  A stroke
    keys its pair of tails by its values, a zero by its text, since
    ``0.0 == -0.0`` but they print apart; an int and a float of one value
    print alike."""
    seconds = timeline._seconds
    story, speaker, config = timeline.story_id, timeline.speaker, timeline.config_fingerprint
    audio = seconds[timeline.audio_ms]
    json_lines: list[str] = []
    text_lines = ["# gesture-script v1", f"# story: {story}", f"# speaker: {speaker}", f"# audio: {audio}",
                  f"# config: {config}"]
    add_json, add_text = json_lines.append, text_lines.append
    strokes: dict[tuple, tuple[str, str]] = {}
    for start, end, kind, arm, gesture, hand, expanse, height, outward, speed, scale in timeline._order:
        start, end = seconds[start], seconds[end]
        if kind == STROKE:
            key = (gesture, hand, expanse or str(expanse), height or str(height), outward or str(outward),
                   speed or str(speed), scale or str(scale))
            tails = strokes.get(key)
            if tails is None:
                tails = strokes[key] = (
                    f'"gesture": "{gesture}", "hand": "{hand}", '
                    f'"expanse": {expanse:.3f}, "height": {height:.3f}, "outward": {outward:.3f}, '
                    f'"speed": {speed:.3f}, "scale": {scale:.3f}',
                    f"{gesture}:{hand} {expanse:.3f} {height:.3f} {outward:.3f} {speed:.3f} {scale:.3f}",
                )
            json_tail, text_tail = tails
            add_json(f'    {{"start": {start}, "end": {end}, "kind": "stroke", "arm": "{arm}", {json_tail}}}')
            add_text(f"{start} {end} {kind} {arm} {text_tail}")
        else:
            add_json(f'    {{"start": {start}, "end": {end}, "kind": "{kind}", "arm": "{arm}"}}')
            add_text(f"{start} {end} {kind} {arm} - - - - - -")
    text_lines.append("")
    return (
        '{\n  "header": {'
        f'"story": {encode_basestring_ascii(story)}, "speaker": "{speaker}", '
        f'"audio": {audio}, "config": {encode_basestring_ascii(config)}'
        '},\n  "events": [\n' + ",\n".join(json_lines) + "\n  ]\n}\n",
        "\n".join(text_lines),
    )


def emit_document(timeline: Timeline, format: str = "json") -> bytes:
    """Render a timeline whose values the rules admit (int times, vocabulary
    words and gesture names, which JSON quotes as they are, and finite
    features) without its phase rules; ``emit_script`` checks them first.

    The first call renders both formats (``_render``) and keeps them with
    the timeline; each call encodes only the format it asks for, so a
    timeline whose text form has no UTF-8 still writes as JSON."""
    if format == "json":
        return timeline._documents[0].encode("utf-8")
    if format == "text":
        return timeline._documents[1].encode("utf-8")
    raise EmitError(f"unknown script format {format!r}")


def emit_script(timeline: Timeline, format: str = "json") -> bytes:
    """Serialize a timeline; a timeline the reader would refuse is rejected."""
    error = timeline._refusal
    if error:
        raise EmitError(str(error))
    return emit_document(timeline, format=format)


def _require(condition: bool, message: str, path: str):
    if not condition:
        raise ScriptError(message, path=path)


def _ms(value, path: str) -> int:
    """A read time in seconds as ``int`` milliseconds, once it is a finite number."""
    _require(finite_number(value) and finite_number(value * 1000), "expected a finite number", path)
    return to_ms(value)


def _feature(value):
    """A read feature; a float goes onto the writer's 0.001 grid, as a read time
    goes onto the millisecond grid, so the comparison with the writer's
    document, not the feature rules, names a value written with more decimals."""
    return round(value, 3) if type(value) is float else value


def _timeline(header: dict, events: list[ScriptEvent]) -> Timeline:
    """The timeline a read script holds, refused as ``emit_script`` refuses it.
    An event on neither arm is left out, so the phase rules or the comparison refuse it."""
    for key in ("story", "speaker", "audio", "config"):
        _require(key in header, f"missing header field {key!r}", f"header.{key}")
    audio = _ms(header["audio"], "header.audio")
    tracks = {arm: [e for e in events if e.arm == arm] for arm in ARMS}
    timeline = Timeline(header["speaker"], tracks, audio, header["story"], header["config"])
    error = timeline._refusal
    if error:
        raise error
    return timeline


def _read_json(text: str) -> Timeline:
    """The timeline a JSON script holds."""
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ScriptError(f"not valid JSON: {exc}") from None
    _require(isinstance(raw.get("header"), dict), "missing header object", "header")
    _require(isinstance(raw.get("events"), list), "missing events array", "events")
    events = []
    for i, item in enumerate(raw["events"]):
        path = f"events[{i}]"
        _require(isinstance(item, dict), "event must be an object", path)
        for key in ("start", "end", "kind", "arm"):
            _require(key in item, f"missing field {key!r}", f"{path}.{key}")
        events.append(ScriptEvent(
            _ms(item["start"], f"{path}.start"), _ms(item["end"], f"{path}.end"), item["kind"], item["arm"],
            item.get("gesture"), item.get("hand"), *(_feature(item.get(name)) for name in FEATURES),
        ))
    return _timeline(raw["header"], events)


def _read_text(text: str) -> Timeline:
    """The timeline a text script holds.  Padding, blank lines, a repeated header
    line and features on a line with no gesture are left for the byte check to name."""
    header, events = {}, []
    for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1):
        path = f"line {lineno}"
        try:
            if line.startswith("#"):  # the magic line too, as a key with no value
                key, _, value = (part.strip() for part in line[1:].partition(":"))
                header.setdefault(key, float(value) if key == "audio" else value)
            elif line:
                cols = line.split()
                _require(len(cols) == 10, f"expected 10 columns, got {len(cols)}", path)
                stroke = cols[4] != "-"
                start, end, *features = map(float, cols[:2] + (cols[5:] if stroke else []))
                gesture, _, hand = cols[4].partition(":") if stroke else (None, None, None)
                events.append(ScriptEvent(
                    _ms(start, path), _ms(end, path), *cols[2:4], gesture, hand, *map(_feature, features)
                ))
        except ValueError as exc:  # only float() raises it
            raise ScriptError(str(exc), path=path) from None
    return _timeline(header, events)


def _not_as_written(data: bytes, written: bytes) -> ScriptError:
    """The first line of a script that differs from the writer's."""
    ours, theirs = written.splitlines(keepends=True), data.splitlines(keepends=True)
    n = 0
    while n < len(ours) and n < len(theirs) and ours[n] == theirs[n]:
        n += 1
    expected = repr(ours[n].decode("utf-8")) if n < len(ours) else "no line"
    return ScriptError(f"line {n + 1}: the writer writes {expected} here")


def read_script(data: bytes) -> Timeline:
    """Parse a script document (either format) into the ``Timeline`` it
    holds, if the document is the bytes ``emit_document`` writes for it.

    A timeline that ``emit_script`` refuses raises its :class:`ScriptError`
    (naming a header field, or ``arm[i]`` at path ``events``).  Otherwise a
    script of either format must be the writer's bytes, or the error names
    the first line that differs.
    """
    fmt = "json" if data.lstrip().startswith(b"{") else "text"
    try:
        timeline = (_read_json if fmt == "json" else _read_text)(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ScriptError(f"not UTF-8: {exc}") from None
    written = emit_document(timeline, fmt)
    if written != data:
        raise _not_as_written(data, written)
    return timeline
