"""Word timing tracks and the stroke-lead alignment rule.

A timing track is TSV text, one word per line::

    turn_index<TAB>word<TAB>onset_seconds

Onsets are finite, at least 0, non-decreasing across the track and
strictly increasing within a turn.  Alignment rewrites every stroke begin
to sit a fixed lead (0.2s by default) before its following word, the first
word of the same turn whose onset is strictly greater than the annotated
time.  Times are kept on the millisecond grid so the lead is exact, not
float-approximate; seconds become milliseconds by the scheduler's rule.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

from .dsl import AnnotatedDialog, Turn, copy_with
from .errors import (
    NoFollowingWordError,
    StrokeCollisionError,
    TimingError,
    TimingFormatError,
    TimingOrderError,
)
from .scheduler import SchedulerConfig, _ms


class TimedWord(NamedTuple):
    turn_index: int
    word: str
    onset: float


@dataclass(frozen=True)
class WordTimingTrack:
    """A parsed timing track.  Equality is by ``entries``; the per-turn
    onset index is derived from them by :func:`parse_word_timings`."""

    entries: tuple[TimedWord, ...]
    onset_index: dict[int, tuple[float, ...]] = field(compare=False, repr=False)

    def turn_onsets(self, turn_index: int) -> tuple[float, ...]:
        """The turn's onsets in increasing order; empty for a turn the
        track does not time."""
        return self.onset_index.get(turn_index, ())


def parse_word_timings(source: str) -> WordTimingTrack:
    entries: list[TimedWord] = []
    last_overall = 0.0
    by_turn: dict[int, list[float]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        stripped = line.lstrip()
        if not stripped or stripped[0] == "#":
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise TimingFormatError(f"line {lineno}: expected 3 tab-separated fields")
        try:
            turn_index = int(parts[0])
            onset = float(parts[2])
        except ValueError as exc:
            raise TimingFormatError(f"line {lineno}: {exc}") from None
        word = parts[1]
        if turn_index < 1 or not word:
            raise TimingFormatError(f"line {lineno}: bad turn index or empty word")
        if not 0 <= onset < math.inf:
            raise TimingFormatError(f"line {lineno}: onset {parts[2]!r} is not a finite number >= 0")
        if onset < last_overall:
            raise TimingOrderError(f"line {lineno}: onset {onset} decreases across the track")
        onsets = by_turn.setdefault(turn_index, [])
        if onsets and onset <= onsets[-1]:
            raise TimingOrderError(f"line {lineno}: onset {onset} not increasing within turn {turn_index}")
        last_overall = onset
        onsets.append(onset)
        entries.append(TimedWord(turn_index, word, onset))
    if not entries:
        raise TimingError("timing track has no entries")
    return WordTimingTrack(
        entries=tuple(entries),
        onset_index={turn: tuple(onsets) for turn, onsets in by_turn.items()},
    )


def align_strokes(
    dialog: AnnotatedDialog,
    track: WordTimingTrack,
    lead: float = SchedulerConfig.stroke_lead_s,
) -> AnnotatedDialog:
    """Rewrite stroke begins to (following-word onset - lead), clamped at 0.

    Raises :class:`NoFollowingWordError` when a turn has no timing entries
    or an annotation sits after its turn's last word, and
    :class:`StrokeCollisionError` when realignment breaks the
    strictly-increasing stroke order (two annotations sharing a following
    word collide).
    """
    lead_ms = _ms(lead)
    new_turns: list[Turn] = []
    for turn in dialog.turns:
        onsets = track.turn_onsets(turn.index)
        if not onsets:
            raise NoFollowingWordError(f"turn {turn.index}: no timing entries")
        new_annotations = []
        last_ms = None
        for ann in turn.annotations:
            i = bisect_right(onsets, ann.stroke_begin)
            if i == len(onsets):
                raise NoFollowingWordError(
                    f"turn {turn.index}: annotation at {ann.stroke_begin:.2f}s has no following word"
                )
            begin_ms = max(0, _ms(onsets[i]) - lead_ms)
            if last_ms is not None and begin_ms <= last_ms:
                raise StrokeCollisionError(
                    f"turn {turn.index}: aligned strokes collide at {begin_ms / 1000:.3f}s"
                )
            last_ms = begin_ms
            new_annotations.append(copy_with(ann, stroke_begin=begin_ms / 1000))
        new_turns.append(copy_with(turn, annotations=new_annotations))
    return copy_with(dialog, turns=new_turns)
