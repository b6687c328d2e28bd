"""Word timing tracks and the stroke-lead alignment rule.

A timing track is TSV text, one word per line::

    turn_index<TAB>word<TAB>onset_seconds

Turn indices (at least 1) and onsets are written in plain decimal
digits, an onset with at most one decimal point.  A word is not empty and
holds no whitespace, as ``str.split`` finds it.  Onsets are finite, at
least 0, non-decreasing across the track and strictly increasing within
a turn.  A stroke's word, its lexical
affiliate, is the word the dialog writes it before: word ``word_index`` of
its turn.  Alignment rewrites the stroke begin to sit a fixed lead (0.2s by
default) before that word's onset, clamped at 0.  The written time is only
checked: it must fall in that word's window, at or after the previous
word's onset and before the word's own.  Each dialog turn's track words must
equal its text; the track may time turns past the dialog's last.  Times are
kept on the millisecond grid so the lead is exact, not float-approximate:
the onset of a stroke's word must lie on that grid, and becomes
milliseconds by the script's one rule, ``emitter.to_ms``.
``parse_word_timings`` splits each line once, parses a turn field once per
run of lines with that turn, and checks each distinct word once; a line
that goes on with a run skips the blank and comment test.
A parsed track keeps only what alignment reads, each turn's onsets and
text, and is equal to another by both; its ``entries`` is a view derived
from them, in turn order rather than line order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .dsl import AnnotatedDialog, GestureAnnotation, Turn, new_annotation, new_turn, turn_label
from .errors import (
    AlignError,
    NoFollowingWordError,
    StrokeCollisionError,
    TimingError,
    TimingFormatError,
    TimingOrderError,
    WordMismatchError,
)
from .emitter import format_seconds, to_ms
from .scheduler import SchedulerConfig


class TimedWord(NamedTuple):
    turn_index: int
    word: str
    onset: float


@dataclass(frozen=True)
class WordTimingTrack:
    """A parsed timing track: per turn, its onsets in increasing order and
    its text, the words joined by single spaces as ``Turn.text`` holds them.
    Equality is by both."""

    onset_index: dict[int, tuple[float, ...]]
    text_index: dict[int, str]

    def turn_onsets(self, turn_index: int) -> tuple[float, ...]:
        """The turn's onsets in increasing order; empty for a turn the
        track does not time."""
        return self.onset_index.get(turn_index, ())

    @cached_property
    def entries(self) -> tuple[TimedWord, ...]:
        """Every timed word, turn by turn in increasing turn index, built once
        per track.  Only the benchmark's inputs (``perfbench/inputs.py``) and
        its tests (``perfbench/test_perfbench.py``) read it."""
        return tuple(
            TimedWord(turn, word, onset)
            for turn in sorted(self.onset_index)
            for word, onset in zip(self.text_index[turn].split(), self.onset_index[turn])
        )


def parse_word_timings(source: str) -> WordTimingTrack:
    last_overall = 0.0  # the track's last onset before the run being read
    by_turn: dict[int, tuple[list[float], list[str]]] = {}  # onsets and words
    field = None  # the turn field of the run of lines being read, parsed once per run
    onsets: list[float] = []  # the run's turn's onsets, whose last is the track's last within the run
    words_seen = set()  # words that passed the word check, so each is checked once
    for lineno, line in enumerate(source.splitlines(), start=1):
        parts = line.split("\t")
        in_run = parts[0] == field
        # a line that goes on with the run, or starts with a digit, is no blank or comment line
        if not in_run and not "0" <= line[:1] <= "9":
            stripped = line.lstrip()
            if not stripped or stripped[0] == "#":
                continue
        try:
            turn_field, word, onset_field = parts
        except ValueError:
            raise TimingFormatError(f"line {lineno}: expected 3 tab-separated fields") from None
        if not in_run:
            turn_index = int(turn_field) if turn_field.isascii() and turn_field.isdigit() else 0
            if turn_index < 1:
                raise TimingFormatError(f"line {lineno}: turn index {turn_field!r} is not a decimal whole number >= 1")
            if onsets:
                last_overall = onsets[-1]
            field = turn_field
            turn = by_turn.get(turn_index)
            if turn is None:
                turn = by_turn[turn_index] = ([], [])
            onsets, words = turn
        if word not in words_seen:
            if word.split() != [word]:  # a word as ``str.split`` finds it in a turn's text
                raise TimingFormatError(f"line {lineno}: word {word!r} is empty or holds whitespace")
            words_seen.add(word)
        # digits with at most one decimal point; 309 digits or more overflow to inf
        onset = float(onset_field) if onset_field.isascii() and onset_field.replace(".", "", 1).isdigit() else math.inf
        if onset == math.inf:
            raise TimingFormatError(
                f"line {lineno}: onset {onset_field!r} is not a finite number >= 0 in decimal digits"
            )
        if onset < (onsets[-1] if in_run else last_overall):
            raise TimingOrderError(f"line {lineno}: onset {onset} decreases across the track")
        if onsets and onset <= onsets[-1]:
            raise TimingOrderError(f"line {lineno}: onset {onset} not increasing within turn {turn_index}")
        onsets.append(onset)
        words.append(word)
    if not by_turn:
        raise TimingError("timing track has no entries")
    return WordTimingTrack(
        onset_index={turn: tuple(onsets) for turn, (onsets, _) in by_turn.items()},
        text_index={turn: " ".join(words) for turn, (_, words) in by_turn.items()},
    )


def _word_mismatch(dialog: AnnotatedDialog, turn: Turn, track: WordTimingTrack) -> WordMismatchError:
    """The first word at which the turn's text and its track words differ."""
    ours = turn.text.split()
    theirs = track.text_index[turn.index].split()
    k = 0
    while k < len(ours) and k < len(theirs) and ours[k] == theirs[k]:
        k += 1
    ours_k, theirs_k = (repr(words[k]) if k < len(words) else "missing" for words in (ours, theirs))
    return WordMismatchError(
        f"{turn_label(dialog, turn)}: word {k} is {ours_k} in the dialog but {theirs_k} in the timing track"
    )


def _time_mismatch(
    dialog: AnnotatedDialog, turn: Turn, ann: GestureAnnotation, onsets: tuple[float, ...]
) -> WordMismatchError:
    """A written time outside the window of the word it is written before."""
    i, words = ann.word_index, turn.text.split()
    window = f"before {words[i]!r} at {onsets[i]}s"
    if i:
        window = f"at or after {words[i - 1]!r} at {onsets[i - 1]}s and " + window
    return WordMismatchError(
        f"{turn_label(dialog, turn)}: the stroke at {ann.stroke_begin:.2f}s is written before word {i} "
        f"{words[i]!r}, so it must fall {window}"
    )


def align_strokes(
    dialog: AnnotatedDialog,
    track: WordTimingTrack,
    lead: float = SchedulerConfig.stroke_lead_s,
) -> AnnotatedDialog:
    """Rewrite each stroke begin to (onset of its word - lead), clamped at 0,
    where a stroke's word is word ``word_index`` of its turn.

    Raises :class:`NoFollowingWordError` when a turn has no timing entries
    or an annotation sits after its turn's last word,
    :class:`WordMismatchError` when a turn's track words differ from its
    text or a written time falls outside its word's window, and
    :class:`StrokeCollisionError` when realignment breaks the
    strictly-increasing stroke order (two annotations before one word
    collide), and :class:`AlignError` when a stroke's word has an onset off
    the millisecond grid, which would shift the lead.  Each error names the
    turn by its label as the dialog writes it (``turn A1``, ``turn B2``).  An
    annotation that alignment does not move, and a turn with no moved
    annotation, are handed on as they are.
    """
    lead_ms = to_ms(lead)
    new_turns: list[Turn] = []
    for turn in dialog.turns:
        onsets = track.turn_onsets(turn.index)
        if not onsets:
            raise NoFollowingWordError(f"{turn_label(dialog, turn)}: no timing entries with turn index {turn.index}")
        text = track.text_index[turn.index]
        if text != turn.text:  # track words hold no whitespace, so equal texts are equal words
            raise _word_mismatch(dialog, turn, track)
        new_annotations = []
        last_ms = None
        for ann in turn.annotations:
            i = ann.word_index
            if not 0 <= i < len(onsets):
                raise NoFollowingWordError(
                    f"{turn_label(dialog, turn)}: annotation at {ann.stroke_begin:.2f}s has no following word"
                )
            if not (ann.stroke_begin < onsets[i] and (i == 0 or onsets[i - 1] <= ann.stroke_begin)):
                raise _time_mismatch(dialog, turn, ann, onsets)
            onset_ms = to_ms(onsets[i])
            if onset_ms / 1000 != onsets[i]:  # rounding it would shift the lead by under a millisecond
                raise AlignError(
                    f"{turn_label(dialog, turn)}: word {i} {turn.text.split()[i]!r} has onset {onsets[i]}s, "
                    "off the millisecond grid"
                )
            begin_ms = max(0, onset_ms - lead_ms)
            if last_ms is not None and begin_ms <= last_ms:
                raise StrokeCollisionError(
                    f"{turn_label(dialog, turn)}: aligned strokes collide at {format_seconds(begin_ms)}s"
                )
            last_ms = begin_ms
            begin = begin_ms / 1000
            new_annotations.append(ann if ann.stroke_begin == begin else new_annotation((begin,) + ann[1:]))
        annotations = tuple(new_annotations)
        new_turns.append(turn if annotations == turn.annotations else new_turn(turn[:3] + (annotations,)))
    return dialog._replace(turns=tuple(new_turns))
