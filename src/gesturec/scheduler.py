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
from dataclasses import dataclass, field

from .dsl import HANDS, AnnotatedDialog, Features, GestureAnnotation
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
        for name in ("hold_threshold_s", "prep_duration_s", "retract_duration_s"):
            value = getattr(self, name)
            if not math.isfinite(value) or _ms(value) / 1000 != value:
                raise ScheduleError(f"{name} = {value!r} is not a whole number of milliseconds")
        if self.prep_duration_s <= 0 or self.retract_duration_s <= 0:
            raise ScheduleError("prep and retract durations must be > 0")
        if self.hold_threshold_s < self.prep_duration_s + self.retract_duration_s:
            raise ScheduleError("hold threshold must cover prep + retract")
        if not 0 <= self.stroke_lead_s < math.inf:
            raise ScheduleError(f"stroke_lead_s must be finite and >= 0, got {self.stroke_lead_s!r}")

    def fingerprint(self) -> str:
        text = (
            f"hold={self.hold_threshold_s!r};prep={self.prep_duration_s!r};"
            f"retract={self.retract_duration_s!r};lead={self.stroke_lead_s!r};"
            f"turn_end={self.retract_on_turn_end!r}"
        )
        return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass
class GesturePhase:
    kind: str
    start: int  # ms
    end: int  # ms
    gesture: GestureAnnotation | None = None
    features: Features | None = None


@dataclass
class ArmTrack:
    arm: str
    phases: list[GesturePhase] = field(default_factory=list)

    def strokes(self) -> list[GesturePhase]:
        return [p for p in self.phases if p.kind == STROKE]


@dataclass
class Timeline:
    speaker: str
    tracks: dict[str, ArmTrack]
    audio_ms: int
    story_id: str = ""
    config_fingerprint: str = ""


@dataclass
class ScheduleResult:
    a: Timeline
    b: Timeline
    diagnostics: list[str]

    def for_speaker(self, speaker: str) -> Timeline:
        return self.a if speaker == "A" else self.b


@dataclass(frozen=True)
class _Stroke:
    start: int
    end: int
    retract_end: int
    turn_index: int
    annotation: GestureAnnotation


def _arms_of(hand: str) -> tuple[str, ...]:
    if hand == "LH":
        return ("left",)
    if hand == "RH":
        return ("right",)
    return ARMS


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
            end = ann.stroke_begin + ann.stroke_duration / ann.features.speed
            strokes.append(
                _Stroke(
                    start=_ms(ann.stroke_begin),
                    end=_ms(end),
                    retract_end=_ms(end + retract_s),
                    turn_index=turn.index,
                    annotation=ann,
                )
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
        arms = _arms_of(ann.hand)
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


def _connect(track: ArmTrack, cur: _Stroke, nxt: _Stroke, prep: int, hold: int, turn_end: bool) -> None:
    prep_start = nxt.start - prep
    retract = nxt.start - cur.end >= hold or (turn_end and nxt.turn_index != cur.turn_index)
    # a retract needs room for itself and the next prep
    if retract and cur.retract_end <= prep_start:
        track.phases.append(GesturePhase(RETRACT, cur.end, cur.retract_end))
        track.phases.append(GesturePhase(PREP, prep_start, nxt.start))
    elif prep_start > cur.end:
        track.phases.append(GesturePhase(HOLD, cur.end, prep_start))
        track.phases.append(GesturePhase(PREP, prep_start, nxt.start))
    else:
        track.phases.append(GesturePhase(PREP, cur.end, nxt.start))


def _build_track(arm: str, strokes: list[_Stroke], audio: int, prep: int, hold: int, turn_end: bool) -> ArmTrack:
    track = ArmTrack(arm=arm)
    if not strokes:
        return track
    first = strokes[0]
    if first.start > 0:
        track.phases.append(GesturePhase(PREP, max(0, first.start - prep), first.start))
    for i, stroke in enumerate(strokes):
        track.phases.append(
            GesturePhase(
                STROKE,
                stroke.start,
                stroke.end,
                gesture=stroke.annotation,
                features=stroke.annotation.features,
            )
        )
        if i + 1 < len(strokes):
            _connect(track, stroke, strokes[i + 1], prep, hold, turn_end)
    last = strokes[-1]
    retract_end = min(last.retract_end, audio)
    if retract_end > last.end:
        track.phases.append(GesturePhase(RETRACT, last.end, retract_end))
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


def validate_timeline(timeline: Timeline) -> list[str]:
    """Structural diagnostics; empty means the timeline is well formed.

    Every time must be an ``int`` of milliseconds; messages give times in ms.
    """
    problems: list[str] = []
    audio = timeline.audio_ms
    if type(audio) is not int:
        problems.append(f"audio duration {audio!r} is not integer milliseconds")
    for arm in ARMS:
        track = timeline.tracks.get(arm)
        if track is None:
            problems.append(f"{arm}: track missing")
            continue
        phases = track.phases
        for i, p in enumerate(phases):
            where = f"{arm}[{i}]"
            if p.kind not in _AFTER:
                problems.append(f"{where}: unknown phase kind {p.kind!r}")
                continue
            if type(p.start) is not int or type(p.end) is not int:
                problems.append(f"{where}: times {p.start!r}, {p.end!r} are not integer milliseconds")
            if not p.start < p.end:
                problems.append(f"{where}: start {p.start} not before end {p.end}")
            if p.start < 0 or p.end > audio:
                problems.append(f"{where}: outside [0, {audio}]")
            if p.kind == STROKE:
                if p.gesture is None:
                    problems.append(f"{where}: stroke without a gesture reference")
                elif p.gesture.hand not in HANDS:
                    problems.append(f"{where}: unknown hand {p.gesture.hand!r}")
                if p.features is None:
                    problems.append(f"{where}: stroke without effective features")
            elif p.gesture is not None:
                problems.append(f"{where}: {p.kind} must not carry a gesture reference")
        for i in range(len(phases) - 1):
            p, q = phases[i], phases[i + 1]
            where = f"{arm}[{i}->{i + 1}]"
            if q.start < p.end:
                problems.append(f"{where}: phases overlap ({p.kind} ends {p.end}, {q.kind} starts {q.start})")
            if q.kind not in _AFTER.get(p.kind, ()):
                problems.append(f"{where}: {p.kind} may not be followed by {q.kind}")
            # only retract->prep may leave a rest gap
            if p.kind != RETRACT and q.start > p.end:
                problems.append(f"{where}: gap between {p.kind} and {q.kind}")
        if phases:
            head, tail = phases[0], phases[-1]
            if head.kind != PREP and not (head.kind == STROKE and head.start == 0):
                problems.append(f"{arm}[0]: track must begin with a prep")
            if tail.kind != RETRACT and tail.end != audio:
                problems.append(f"{arm}[{len(phases) - 1}]: track must end with a retract")
    problems.extend(_check_two_hand_sync(timeline))
    return problems


def _check_two_hand_sync(timeline: Timeline) -> list[str]:
    problems = []
    sides = {}
    for arm in ARMS:
        track = timeline.tracks.get(arm)
        sides[arm] = {
            (p.start, p.end, p.gesture.gesture_name)
            for p in (track.phases if track else [])
            if p.kind == STROKE and p.gesture is not None and p.gesture.hand == "2H"
        }
    for arm, other in (("left", "right"), ("right", "left")):
        for key in sides[arm] - sides[other]:
            problems.append(
                f"{arm}: two-hand stroke at {key[0]} ms has no synchronized twin on the {other} arm"
            )
    return problems
