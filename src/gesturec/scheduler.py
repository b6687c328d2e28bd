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

This is the one rule, within a turn and across a change of turn alike.

A prep precedes the first stroke of each arm and a retract follows the
last one (compressed or omitted when the audio ends first).  Stroke start
times are never moved; in strict mode conflicting or overrunning strokes
raise, in lenient mode they are dropped with a diagnostic.

Tracks of ``emitter.ScriptEvent`` are built as lists, held as tuples by
``Timeline``, in ``int`` milliseconds from ``emitter.to_ms``: once per
stroke (start, end and the end of its retract, a fixed duration after the
exact stroke end) and once per run for the audio, prep duration and hold
threshold.  Config values and annotations stay in seconds.  A
``SchedulerConfig`` computes its fingerprint once, when it is made.  Each
features record is rounded to 3 decimals once per call, where a feature
that overflowed a float, or a speed or scale that rounds to 0, is refused
in either mode.  Each stroke
record and each event is built positionally, in class order, by
``tuple.__new__`` on one tuple of every field: no keyword constructor,
``_make`` or ``_replace`` runs per stroke or per event.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import NamedTuple

from .dsl import SPEAKERS, AnnotatedDialog, GestureAnnotation
from .emitter import (
    ARMS, ARMS_OF_HAND, FEATURES, HOLD, PREP, RETRACT, STROKE, TIMES_ONLY, ScriptEvent, Timeline, format_seconds, to_ms,
)
from .errors import EmptyStrokeError, ScheduleError, StrokeOverlapError, StrokeOverrunError


@dataclass(frozen=True)
class SchedulerConfig:
    hold_threshold_s: float = 2.5
    prep_duration_s: float = 0.3
    retract_duration_s: float = 0.5
    stroke_lead_s: float = 0.2  # consumed by the alignment stage

    def __post_init__(self):
        if not 0 <= self.stroke_lead_s < math.inf:  # before the grid loop, which also refuses nan and inf
            raise ScheduleError(f"stroke_lead_s must be finite and >= 0, got {self.stroke_lead_s!r}")
        for name in ("hold_threshold_s", "prep_duration_s", "retract_duration_s", "stroke_lead_s"):
            value = getattr(self, name)
            if not math.isfinite(value) or to_ms(value) / 1000 != value:
                raise ScheduleError(f"{name} = {value!r} is not a whole number of milliseconds")
        if self.prep_duration_s <= 0 or self.retract_duration_s <= 0:
            raise ScheduleError("prep and retract durations must be > 0")
        if self.hold_threshold_s < self.prep_duration_s + self.retract_duration_s:
            raise ScheduleError("hold threshold must cover prep + retract")
        # "turn_end=False" is the one retract policy; the literal keeps every script's `# config:` line
        text = (
            f"hold={self.hold_threshold_s!r};prep={self.prep_duration_s!r};"
            f"retract={self.retract_duration_s!r};lead={self.stroke_lead_s!r};turn_end=False"
        )
        # not a field, so neither the config keys nor equality see it
        object.__setattr__(self, "_fingerprint", hashlib.sha256(text.encode()).hexdigest()[:12])

    def fingerprint(self) -> str:
        return self._fingerprint


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
    annotation: GestureAnnotation
    fields: tuple  # gesture, hand and rounded features of each of its stroke events


_new_stroke = partial(tuple.__new__, _Stroke)
_STROKE_ORDER = attrgetter("start", "annotation.hand")
_new_event = partial(tuple.__new__, ScriptEvent)


def _collect_strokes(dialog: AnnotatedDialog, speaker: str, retract_s: float) -> list[_Stroke]:
    strokes = []
    # each features record rounded once, keyed by identity, which keeps 0.0 and -0.0
    # apart (they are equal, but print apart); apply_personality shares a gesture's record
    rounded: dict[int, tuple] = {}
    for turn in dialog.turns:
        if turn.speaker != speaker:
            continue
        for ann in turn.annotations:
            f = ann.features
            if f is None:
                raise ScheduleError(
                    f"annotation at {ann.stroke_begin:.2f}s has no effective features; "
                    "apply personality before scheduling"
                )
            end = ann.stroke_begin + ann.stroke_duration / f.speed
            features = rounded.get(id(f))
            if features is None:
                features = rounded[id(f)] = (
                    round(f.expanse_cm, 3), round(f.height_cm, 3), round(f.outwardness_cm, 3),
                    round(f.speed, 3), round(f.scale, 3),
                )
                if not (all(map(math.isfinite, features)) and features[3] and features[4]):
                    for name, value, exact in zip(FEATURES, features, f):
                        if name != "speed" and not math.isfinite(value):  # an infinite speed gives a 0 ms stroke
                            problem = f"{value}, which overflows a float"
                        elif name in ("speed", "scale") and value == 0:
                            problem = f"{exact}, which rounds to 0.000"
                        else:
                            continue
                        raise ScheduleError(
                            f"{speaker}: stroke {ann.gesture_name!r} at {format_seconds(to_ms(ann.stroke_begin))}s "
                            f"has {name} {problem}"
                        )
            fields = (ann.gesture_name, ann.hand) + features
            strokes.append(_new_stroke((to_ms(ann.stroke_begin), to_ms(end), to_ms(end + retract_s), ann, fields)))
    strokes.sort(key=_STROKE_ORDER)
    return strokes


def _reject(error: type[ScheduleError], message: str, strict: bool, diagnostics: list[str]) -> None:
    if strict:
        raise error(message)
    diagnostics.append(f"dropped: {message}")


def _admit_strokes(
    strokes: list[_Stroke], audio: int, speaker: str, strict: bool, diagnostics: list[str]
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
        arms = ARMS_OF_HAND.get(ann.hand, ARMS)
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
        for arm in arms:
            if stroke.start <= last_end[arm]:
                message = (
                    f"{speaker}/{arm}: stroke {ann.gesture_name!r} at "
                    f"{format_seconds(stroke.start)}s overlaps the previous stroke ending at "
                    f"{format_seconds(last_end[arm])}s"
                )
                _reject(StrokeOverlapError, message, strict, diagnostics)
                break
        else:  # no arm is blocked
            for arm in arms:
                per_arm[arm].append(stroke)
                last_end[arm] = stroke.end
    return per_arm


def _build_track(arm: str, strokes: list[_Stroke], audio: int, prep: int, hold: int) -> list[ScriptEvent]:
    track: list[ScriptEvent] = []
    if not strokes:
        return track
    # every field of an event after its start and end, for each phase other than a stroke
    prep_tail, hold_tail, retract_tail = ((kind, arm) + TIMES_ONLY for kind in (PREP, HOLD, RETRACT))
    add = track.append
    first = strokes[0].start
    if first > 0:
        add(_new_event((max(0, first - prep), first) + prep_tail))
    for (start, end, retract_end, _, fields), nxt in zip(strokes, strokes[1:]):
        add(_new_event((start, end, STROKE, arm) + fields))
        nxt_start = nxt.start
        prep_start = nxt_start - prep
        # a retract needs room for itself and the next prep
        if nxt_start - end >= hold and retract_end <= prep_start:
            add(_new_event((end, retract_end) + retract_tail))
        elif prep_start > end:
            add(_new_event((end, prep_start) + hold_tail))
        else:  # the prep compresses to the gap
            prep_start = end
        add(_new_event((prep_start, nxt_start) + prep_tail))
    start, end, retract_end, _, fields = strokes[-1]
    add(_new_event((start, end, STROKE, arm) + fields))
    retract_end = min(retract_end, audio)
    if retract_end > end:
        add(_new_event((end, retract_end) + retract_tail))
    return track


def schedule(
    dialog: AnnotatedDialog,
    config: SchedulerConfig = SchedulerConfig(),
    strict: bool = True,
) -> ScheduleResult:
    """Build per-arm timelines for both speakers."""
    diagnostics: list[str] = []
    timelines = {}
    audio = to_ms(dialog.audio_duration)
    prep, hold = to_ms(config.prep_duration_s), to_ms(config.hold_threshold_s)
    fingerprint = config.fingerprint()
    for speaker in SPEAKERS:
        strokes = _collect_strokes(dialog, speaker, config.retract_duration_s)
        per_arm = _admit_strokes(strokes, audio, speaker, strict, diagnostics)
        tracks = {arm: _build_track(arm, per_arm[arm], audio, prep, hold) for arm in ARMS}
        timelines[speaker] = Timeline(
            speaker=speaker,
            tracks=tracks,
            audio_ms=audio,
            story_id=dialog.story_id,
            config_fingerprint=fingerprint,
        )
    return ScheduleResult(a=timelines["A"], b=timelines["B"], diagnostics=diagnostics)
