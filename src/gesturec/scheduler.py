"""Compile resolved annotations into per-agent, per-arm phase timelines.

Every gesture unfolds in up to four phases: prep (arms move from rest or
from the previous gesture's end to the stroke start), stroke (the
meaning-bearing movement), hold (freeze at the stroke end) and retract
(return to rest).  For two consecutive strokes on the same arm with gap
``g`` between stroke end and next stroke start:

* ``g`` below the hold threshold (2.5s): a hold bridges to a connecting
  prep that ends exactly at the next stroke.  When the gap is shorter than
  the prep itself, the hold is dropped and the prep compresses to ``g``.
* otherwise: a retraction, rest, and a fresh prep before the next stroke.

A prep precedes the first stroke of each arm and a retract follows the
last one (compressed or omitted when the audio ends first).  Stroke start
times are never moved; in strict mode conflicting or overrunning strokes
raise, in lenient mode they are dropped with a diagnostic.

Each arm's track is a list of ``ScriptEvent`` records, the same records a
script document holds, and ``validate_timeline`` is the one set of rules
they obey, run by both the script writer and the script reader.

Every time in a timeline is an ``int`` of milliseconds, and the scheduler
compares and subtracts only those.  Seconds become milliseconds in one
helper, ``_ms``: once per stroke (start, end and the end of its retract,
which lies a fixed duration after the exact stroke end) and once per run
for the audio, the prep duration and the hold threshold.  Config values and
annotations stay in seconds.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .dsl import GESTURE_NAME, HANDS, SPEAKERS, AnnotatedDialog, GestureAnnotation
from .errors import EmptyStrokeError, ScheduleError, StrokeOverlapError, StrokeOverrunError

PREP = "prep"
STROKE = "stroke"
HOLD = "hold"
RETRACT = "retract"
KINDS = (PREP, STROKE, HOLD, RETRACT)

ARMS = ("left", "right")


def _ms(seconds: float) -> int:
    """Seconds as whole milliseconds, half a millisecond rounded as
    ``round(seconds, 3)`` rounds it."""
    return round(round(seconds, 3) * 1000)


def format_seconds(ms: int) -> str:
    return f"{ms / 1000:.3f}"


@dataclass(frozen=True)
class SchedulerConfig:
    hold_threshold_s: float = 2.5
    prep_duration_s: float = 0.3
    retract_duration_s: float = 0.5
    stroke_lead_s: float = 0.2  # consumed by the alignment stage
    retract_on_turn_end: bool = False

    def __post_init__(self):
        if not 0 <= self.stroke_lead_s < math.inf:  # before the grid loop, which also refuses nan and inf
            raise ScheduleError(f"stroke_lead_s must be finite and >= 0, got {self.stroke_lead_s!r}")
        for name in ("hold_threshold_s", "prep_duration_s", "retract_duration_s", "stroke_lead_s"):
            value = getattr(self, name)
            if not math.isfinite(value) or _ms(value) / 1000 != value:
                raise ScheduleError(f"{name} = {value!r} is not a whole number of milliseconds")
        if self.prep_duration_s <= 0 or self.retract_duration_s <= 0:
            raise ScheduleError("prep and retract durations must be > 0")
        if self.hold_threshold_s < self.prep_duration_s + self.retract_duration_s:
            raise ScheduleError("hold threshold must cover prep + retract")

    def fingerprint(self) -> str:
        text = (
            f"hold={self.hold_threshold_s!r};prep={self.prep_duration_s!r};"
            f"retract={self.retract_duration_s!r};lead={self.stroke_lead_s!r};"
            f"turn_end={self.retract_on_turn_end!r}"
        )
        return hashlib.sha256(text.encode()).hexdigest()[:12]


FEATURES = ("expanse", "height", "outward", "speed", "scale")


def finite_number(value) -> bool:
    """Whether ``value`` is a finite ``int`` or ``float``; a bool is not."""
    if type(value) is bool or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


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


@dataclass
class Timeline:
    speaker: str
    tracks: dict[str, list[ScriptEvent]]  # per arm, in time order
    audio_ms: int
    story_id: str = ""
    config_fingerprint: str = ""


@dataclass
class ScheduleResult:
    a: Timeline
    b: Timeline
    diagnostics: list[str]

    def for_speaker(self, speaker: str) -> Timeline:
        if speaker not in SPEAKERS:
            raise ScheduleError(f"no timeline for speaker {speaker!r}; speakers are A and B")
        return self.a if speaker == "A" else self.b


class _Stroke(NamedTuple):
    start: int
    end: int
    retract_end: int
    turn_index: int
    annotation: GestureAnnotation
    fields: tuple  # gesture, hand and rounded features of each of its stroke events


_ARMS_OF = {"LH": ("left",), "RH": ("right",)}  # any other hand uses both arms


def _collect_strokes(dialog: AnnotatedDialog, speaker: str, retract_s: float) -> list[_Stroke]:
    strokes = []
    for turn in dialog.turns:
        if turn.speaker != speaker:
            continue
        for ann in turn.annotations:
            if ann.features is None:
                raise ScheduleError(
                    f"annotation at {ann.stroke_begin:.2f}s has no effective features; "
                    "apply personality before scheduling"
                )
            f = ann.features
            end = ann.stroke_begin + ann.stroke_duration / f.speed
            fields = (
                ann.gesture_name, ann.hand, round(f.expanse_cm, 3), round(f.height_cm, 3),
                round(f.outwardness_cm, 3), round(f.speed, 3), round(f.scale, 3),
            )
            strokes.append(
                _Stroke(_ms(ann.stroke_begin), _ms(end), _ms(end + retract_s), turn.index, ann, fields)
            )
    strokes.sort(key=lambda s: (s.start, s.annotation.hand))
    return strokes


def _reject(error: type[ScheduleError], message: str, strict: bool, diagnostics: list[str]) -> None:
    if strict:
        raise error(message)
    diagnostics.append(f"dropped: {message}")


def _admit_strokes(
    strokes: list[_Stroke],
    audio: int,
    speaker: str,
    strict: bool,
    diagnostics: list[str],
) -> dict[str, list[_Stroke]]:
    """Assign strokes to arms, rejecting conflicts.

    A stroke must last at least 1 ms, start strictly after the previous
    stroke ends on every arm it uses, and end within the audio.  A rejected
    2H stroke is dropped from both arms.
    """
    per_arm: dict[str, list[_Stroke]] = {arm: [] for arm in ARMS}
    last_end = {arm: -1 for arm in ARMS}
    for stroke in strokes:
        ann = stroke.annotation
        arms = _ARMS_OF.get(ann.hand, ARMS)
        if stroke.end <= stroke.start:
            message = (
                f"{speaker}: stroke {ann.gesture_name!r} at {format_seconds(stroke.start)}s lasts 0 ms "
                f"({ann.stroke_duration}s at speed {ann.features.speed:g})"
            )
            _reject(EmptyStrokeError, message, strict, diagnostics)
            continue
        if stroke.end > audio:
            message = (
                f"{speaker}: stroke {ann.gesture_name!r} at {format_seconds(stroke.start)}s "
                f"runs past the audio end ({format_seconds(stroke.end)}s > {format_seconds(audio)}s)"
            )
            _reject(StrokeOverrunError, message, strict, diagnostics)
            continue
        blocked = next((arm for arm in arms if stroke.start <= last_end[arm]), None)
        if blocked is not None:
            message = (
                f"{speaker}/{blocked}: stroke {ann.gesture_name!r} at "
                f"{format_seconds(stroke.start)}s overlaps the previous stroke ending at "
                f"{format_seconds(last_end[blocked])}s"
            )
            _reject(StrokeOverlapError, message, strict, diagnostics)
            continue
        for arm in arms:
            per_arm[arm].append(stroke)
            last_end[arm] = stroke.end
    return per_arm


def _build_track(
    arm: str, strokes: list[_Stroke], audio: int, prep: int, hold: int, turn_end: bool
) -> list[ScriptEvent]:
    track: list[ScriptEvent] = []
    if not strokes:
        return track
    first = strokes[0]
    if first.start > 0:
        track.append(ScriptEvent(max(0, first.start - prep), first.start, PREP, arm))
    for i, cur in enumerate(strokes):
        track.append(ScriptEvent._make((cur.start, cur.end, STROKE, arm) + cur.fields))
        if i + 1 == len(strokes):
            break
        nxt = strokes[i + 1]
        prep_start = nxt.start - prep
        retract = nxt.start - cur.end >= hold or (turn_end and nxt.turn_index != cur.turn_index)
        # a retract needs room for itself and the next prep
        if retract and cur.retract_end <= prep_start:
            track.append(ScriptEvent(cur.end, cur.retract_end, RETRACT, arm))
        elif prep_start > cur.end:
            track.append(ScriptEvent(cur.end, prep_start, HOLD, arm))
        else:  # the prep compresses to the gap
            prep_start = cur.end
        track.append(ScriptEvent(prep_start, nxt.start, PREP, arm))
    retract_end = min(cur.retract_end, audio)
    if retract_end > cur.end:
        track.append(ScriptEvent(cur.end, retract_end, RETRACT, arm))
    return track


def schedule(
    dialog: AnnotatedDialog,
    config: SchedulerConfig = SchedulerConfig(),
    strict: bool = True,
) -> ScheduleResult:
    """Build per-arm timelines for both speakers."""
    diagnostics: list[str] = []
    timelines = {}
    audio = _ms(dialog.audio_duration)
    prep, hold = _ms(config.prep_duration_s), _ms(config.hold_threshold_s)
    for speaker in ("A", "B"):
        strokes = _collect_strokes(dialog, speaker, config.retract_duration_s)
        per_arm = _admit_strokes(strokes, audio, speaker, strict, diagnostics)
        tracks = {
            arm: _build_track(arm, per_arm[arm], audio, prep, hold, config.retract_on_turn_end)
            for arm in ARMS
        }
        timelines[speaker] = Timeline(
            speaker=speaker,
            tracks=tracks,
            audio_ms=audio,
            story_id=dialog.story_id,
            config_fingerprint=config.fingerprint(),
        )
    return ScheduleResult(a=timelines["A"], b=timelines["B"], diagnostics=diagnostics)


_AFTER = {
    PREP: (STROKE,),
    STROKE: (HOLD, PREP, RETRACT),
    HOLD: (PREP,),
    RETRACT: (PREP,),
}
_TIMES_ONLY = (None,) * 7  # gesture, hand and features of a prep, hold or retract
_WRONG_HAND = {"left": "RH", "right": "LH"}
_GESTURE_RE = re.compile(GESTURE_NAME)
_INF = math.inf
_NAN = math.nan


def _feature_problem(features: tuple) -> str | None:
    """What breaks the feature rules of a stroke, or None: every feature is
    a finite number (``finite_number``), and speed and scale are above 0."""
    if None in features:
        return "stroke without effective features"
    for name, value in zip(FEATURES, features):
        if not finite_number(value):
            return f"{name} {value!r} is not a finite number"
    if not (features[3] > 0 and features[4] > 0):
        return "speed and scale must be > 0"
    return None


def validate_timeline(timeline: Timeline) -> list[str]:
    """Every phase rule of a script and the gesture-name rule
    (``dsl.GESTURE_NAME``); empty means the timeline is well formed.

    ``emit_script`` runs it before writing and ``read_script`` after
    reading, so the reader accepts exactly what the writer would write.
    Every time must be an ``int`` of milliseconds and every feature a finite
    number; messages give times in ms and name an event ``arm[i]``, its index
    on its arm's track.  A value of the wrong type is reported, never raised
    on, and the order checks pass over an event whose times are not ints.
    """
    problems: list[str] = []
    report = problems.append
    audio = last = timeline.audio_ms  # ``last``: the latest time an event may end
    if type(audio) is not int:
        report(f"audio duration {audio!r} is not integer milliseconds")
        last = _INF
    twins = {}  # two-hand strokes per arm, without the arm
    names = set()  # gesture names already matched, so each is matched once
    for arm in ARMS:
        events = timeline.tracks.get(arm)
        twins[arm] = two_hand = set()
        if events is None:
            report(f"{arm}: track missing")
            continue
        wrong_hand = _WRONG_HAND[arm]
        prev_kind = prev_end = None
        for i, e in enumerate(events):
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
                elif hand == wrong_hand:
                    report(f"{arm}[{i}]: {hand} stroke on the {arm} arm")
                # exact types on the common path (a finite sum has finite
                # terms); the slow path finds and names the problem, if any
                if not (
                    type(expanse) is type(height) is type(outward) is type(speed) is type(scale) is float
                    and -_INF < expanse + height + outward < _INF and 0 < speed < _INF and 0 < scale < _INF
                ) and (problem := _feature_problem(e[6:])):
                    report(f"{arm}[{i}]: {problem}")
                    expanse = height = outward = speed = scale = None  # keeps the two-hand key hashable
                if hand == "2H" and timed:
                    two_hand.add((start, end, gesture, expanse, height, outward, speed, scale))
            elif kind not in KINDS:
                report(f"{arm}[{i}]: unknown phase kind {kind!r}")
                kind = str(kind)  # the same in messages, and usable as a key by the next event's check
            elif e[4:] != _TIMES_ONLY:
                report(f"{arm}[{i}]: {kind} must not carry a gesture reference, hand or features")
            if not timed:
                report(f"{arm}[{i}]: times {start!r}, {end!r} are not integer milliseconds")
                start = end = _NAN  # fails every comparison below and in the next event's checks
            else:
                if not start < end:
                    report(f"{arm}[{i}]: start {start} not before end {end}")
                if start < 0 or end > last:
                    report(f"{arm}[{i}]: outside [0, {audio}]")
            if i:
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
            if head.kind != PREP and not (head.kind == STROKE and head.start == 0):
                report(f"{arm}[0]: track must begin with a prep")
            if tail.kind != RETRACT and tail.end != audio:
                report(f"{arm}[{len(events) - 1}]: track must end with a retract")
    for arm, other in (("left", "right"), ("right", "left")):
        for key in sorted(twins[arm] - twins[other], key=itemgetter(0)):
            report(f"{arm}: two-hand stroke at {key[0]} ms has no synchronized twin on the {other} arm")
    return problems
