"""Gesture-annotated dialog format: parsing, canonical serialization, sentence segmentation.

A dialog document is UTF-8 text with optional header lines followed by one
turn per line::

    story: protest
    audio: 54.00s

    A1: [1.90s](Cup, RH 0.46s) Hey, do you remember [3.17s](PointingAbstract, RH 0.37s) that day?
    B1: Yeah, ...

Turn labels are a speaker letter (A or B) plus that speaker's 1-based turn
count.  An annotation sits immediately before its following word::

    [stroke_begin s] *? ( !? name, hand duration s  [/ name, hand duration s] )

``*`` after the time bracket marks a rate-added gesture (present only when
the performance is adapted), ``!`` before the name marks a copied gesture
form, and the variant after ``/`` is the non-adapted alternative.  Seconds
are printed with exactly two decimals in canonical form, and the parser
refuses a time off that centisecond grid.  Square brackets are reserved
for annotations and may not appear in turn text.  ``parse_dialog`` parses
the text between an annotation's parentheses once per distinct text in a
document; its time and ``*`` marker are read at each annotation.

The dialog records (:class:`AnnotatedDialog`, :class:`Turn`,
:class:`GestureAnnotation`, :class:`Alternative`, :class:`Features`) are
immutable ``NamedTuple`` values whose sequences are tuples, so a stage can
hand on an unchanged record as it is.  Equality compares every field,
features included.  On the per-annotation and per-turn paths (here, in
``align``, ``personality`` and ``adaptation``) annotations, turns and
features are built by ``new_annotation``, ``new_turn`` and
``new_features``, which call ``tuple.__new__``
on one tuple of every field, positional and in class order, with no
keyword constructor, ``_make`` or ``_replace``.  The result is the record
the keyword constructor gives.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from functools import partial
from typing import NamedTuple, NoReturn

from .errors import AnnotationOrderError, DialogParseError

SPEAKERS = ("A", "B")
HANDS = ("LH", "RH", "2H")
# A gesture name, in dialogs and in scripts (see docs/script.schema.json).
GESTURE_NAME = r"[A-Za-z_][A-Za-z0-9_]*"

_TURN_RE = re.compile(r"^([A-Za-z]+)(\d+):\s*(.*)$")
_ANNOT_RE = re.compile(r"\[(\d+(?:\.\d+)?)s\](\*)?\(([^()]*)\)")
_BRACKET_RE = re.compile(r"[][]")
_VARIANT_RE = re.compile(rf"^(!)?({GESTURE_NAME})\s*,\s*({'|'.join(HANDS)})\s+(\d+(?:\.\d+)?)s$")
_CENTISECONDS_RE = re.compile(r"\d+(?:\.\d\d?0*)?")  # at most two decimals, trailing zeros aside

# A word ends a sentence when it closes with terminal punctuation,
# optionally followed by closing quotes.  Mid-word punctuation ("old...a")
# does not split.  Matched in words joined by single spaces.
_SENTENCE_END_RE = re.compile(r"[.!?…]+[\"'”’]*(?= |$)")


class Features(NamedTuple):
    """Effective per-gesture performance features, filled by the personality
    and adaptation stages and consumed by the scheduler.

    Geometry in centimeters; ``speed`` divides the annotated stroke
    duration; ``scale`` is the overall size multiplier.
    """

    expanse_cm: float
    height_cm: float
    outwardness_cm: float
    speed: float
    scale: float


class Alternative(NamedTuple):
    gesture_name: str
    hand: str
    stroke_duration: float


class GestureAnnotation(NamedTuple):
    stroke_begin: float
    gesture_name: str
    hand: str
    stroke_duration: float
    rate_added: bool = False
    form_copied: bool = False
    alternative: Alternative | None = None
    # Position of the following word within the turn text (count of words
    # before the annotation): the stroke's word.  Anchors serialization,
    # sentence assignment and alignment, which times the stroke to this
    # word's onset and requires ``stroke_begin`` to fall in its window.
    word_index: int = 0
    # Stamped by the personality and adaptation stages.
    features: Features | None = None
    alt_features: Features | None = None

    @property
    def stroke_end(self) -> float:
        return self.stroke_begin + self.stroke_duration


class Turn(NamedTuple):
    speaker: str
    index: int  # global 1-based position in the dialog
    text: str
    annotations: tuple[GestureAnnotation, ...]


class AnnotatedDialog(NamedTuple):
    story_id: str
    turns: tuple[Turn, ...]
    audio_duration: float


# Each takes one tuple of every field in class order (see the module docstring).
new_annotation = partial(tuple.__new__, GestureAnnotation)
new_turn = partial(tuple.__new__, Turn)
new_features = partial(tuple.__new__, Features)


def _seconds(text: str, what: str, lineno: int, col: int) -> float:
    """A dialog time, which must lie on the centisecond grid ``format_dialog`` writes."""
    value = _CENTISECONDS_RE.fullmatch(text) and float(text)
    if value is None or value == math.inf:  # 309 digits or more overflow to inf
        raise DialogParseError(f"{what} {text}s is not on the centisecond grid", lineno, col)
    return value


def _parse_variant(text: str, lineno: int, col: int, allow_copy: bool) -> tuple[bool, str, str, float]:
    m = _VARIANT_RE.match(text.strip())
    if not m:
        raise DialogParseError(f"malformed gesture variant {text.strip()!r}", lineno, col)
    copied, name, hand = bool(m.group(1)), m.group(2), m.group(3)
    dur = _seconds(m.group(4), "stroke duration", lineno, col)
    if copied and not allow_copy:
        raise DialogParseError("copy marker not allowed on the alternative variant", lineno, col)
    if dur <= 0:
        raise DialogParseError(f"stroke duration must be > 0, got {dur}", lineno, col)
    return copied, name, hand, dur


# An annotation's form, the text between its parentheses parsed: gesture
# name, hand, stroke duration, copy marker and alternative.
_Form = tuple[str, str, float, bool, Alternative | None]


def _parse_form(inner: str, lineno: int, col: int) -> _Form:
    pieces = inner.split("/")
    if len(pieces) > 2:
        raise DialogParseError("at most one alternative per annotation", lineno, col)
    copied, name, hand, dur = _parse_variant(pieces[0], lineno, col, allow_copy=True)
    alternative = None
    if len(pieces) == 2:
        _, alt_name, alt_hand, alt_dur = _parse_variant(pieces[1], lineno, col, allow_copy=False)
        alternative = Alternative(alt_name, alt_hand, alt_dur)
    return name, hand, dur, copied, alternative


def _parse_annotation(
    m: re.Match, lineno: int, col: int, word_index: int, forms: dict[str, _Form]
) -> GestureAnnotation:
    """The annotation ``m`` matched.  ``forms`` holds the forms parsed so
    far in the document by their text, so each distinct text is parsed
    once; a text that fails is not stored, and fails again where it recurs."""
    begin_text, star, inner = m.groups()
    begin = _seconds(begin_text, "stroke begin", lineno, col)
    form = forms.get(inner)
    if form is None:
        form = forms[inner] = _parse_form(inner, lineno, col)
    name, hand, dur, copied, alternative = form
    return new_annotation((begin, name, hand, dur, star is not None, copied, alternative, word_index, None, None))


def _check_brackets(body: str, end: int, stop: int, lineno: int, offset: int) -> NoReturn:
    """Raise the error of the gap ``body[end:stop]``, the text after the
    annotation that ends at ``end``.  The caller calls it only on a gap that
    fails: one that holds a bracket, or one glued to the annotation at
    ``stop`` (whose ``[`` is then the gap's first bracket).  It names the
    first bracket from ``end`` on: a ``[`` that starts a token (at ``end``
    or after whitespace) is a malformed annotation; any other bracket is
    reserved."""
    pos = _BRACKET_RE.search(body, end, stop + 1).start()
    if body[pos] == "[" and (pos == end or body[pos - 1].isspace()):
        raise DialogParseError("malformed annotation", lineno, offset + pos + 1)
    raise DialogParseError("square brackets are reserved for annotations", lineno, offset + pos + 1)


def _parse_turn_body(
    body: str, lineno: int, offset: int, forms: dict[str, _Form]
) -> tuple[str, tuple[GestureAnnotation, ...]]:
    """The text and the annotations of a turn body that starts ``offset``
    characters into its line, with the document's ``forms`` (see
    :func:`_parse_annotation`).  Only words may stand between annotations."""
    words: list[str] = []
    annotations: list[GestureAnnotation] = []
    disorder = None  # raised after the scan, so a later syntax error comes first
    end = 0
    for m in _ANNOT_RE.finditer(body):
        start = m.start()
        gap = body[end:start]
        # only a bracket, or an annotation glued to a word, can fail the check
        if gap and ("[" in gap or "]" in gap or not gap[-1].isspace()):
            _check_brackets(body, end, start, lineno, offset)
        words += gap.split()
        ann = _parse_annotation(m, lineno, offset + start + 1, len(words), forms)
        if disorder is None and annotations and ann.stroke_begin <= annotations[-1].stroke_begin:
            disorder = AnnotationOrderError(
                f"stroke times must strictly increase within a turn "
                f"({ann.stroke_begin:.2f}s after {annotations[-1].stroke_begin:.2f}s)",
                lineno, offset + start + 1,
            )
        annotations.append(ann)
        end = m.end()
    tail = body[end:]
    if "[" in tail or "]" in tail:
        _check_brackets(body, end, len(body), lineno, offset)
    words += tail.split()
    if disorder is not None:
        raise disorder
    return " ".join(words), tuple(annotations)


def parse_dialog(source: str, story_id: str = "") -> AnnotatedDialog:
    """Parse a dialog document, validating all structural invariants.

    Raises :class:`DialogParseError` (with line and 1-based column in the
    source line) on malformed annotations, unknown speaker labels, label
    numbering gaps, and :class:`AnnotationOrderError` when stroke times
    fail to strictly increase within a turn.
    """
    turns: list[Turn] = []
    audio_duration: float | None = None
    speaker_counts = dict.fromkeys(SPEAKERS, 0)
    headers = set()
    forms: dict[str, _Form] = {}  # annotation text -> its form, for this document only
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        indent = len(raw) - len(raw.lstrip())
        key, _, value = line.partition(":")
        if key in ("story", "audio"):
            if key in headers:
                raise DialogParseError(f"repeated header line '{key}:'", lineno, indent + 1)
            headers.add(key)
            if key == "story":
                story_id = value.strip()
                continue
            spec = value.strip()
            if not spec.endswith("s"):
                raise DialogParseError("audio duration must end with 's'", lineno, indent + 1)
            audio_duration = _seconds(spec[:-1], "audio duration", lineno, indent + 1)
            continue
        m = _TURN_RE.match(line)
        if not m:
            raise DialogParseError("expected a turn line like 'A1: ...'", lineno, indent + 1)
        speaker, suffix = m.group(1), int(m.group(2))
        if speaker not in SPEAKERS:
            raise DialogParseError(f"unknown speaker label {speaker!r}", lineno, indent + 1)
        if turns and turns[-1].speaker == speaker:
            raise DialogParseError(f"speakers must alternate, got {speaker} twice", lineno, indent + 1)
        speaker_counts[speaker] += 1
        if suffix != speaker_counts[speaker]:
            raise DialogParseError(
                f"expected turn label {speaker}{speaker_counts[speaker]}, got {speaker}{suffix}",
                lineno, indent + 1,
            )
        text, annotations = _parse_turn_body(m.group(3), lineno, indent + m.start(3), forms)
        turns.append(new_turn((speaker, len(turns) + 1, text, annotations)))

    ends = [a.stroke_end for t in turns for a in t.annotations]
    if audio_duration is None:
        audio_duration = round(max(ends), 2) if ends else 0.0
    elif ends and max(ends) > audio_duration + 1e-9:
        raise DialogParseError(
            f"annotation ends at {max(ends):.2f}s, past audio duration {audio_duration:.2f}s"
        )
    return AnnotatedDialog(story_id=story_id, turns=tuple(turns), audio_duration=audio_duration)


def _format_variant(copied: bool, name: str, hand: str, duration: float) -> str:
    return f"{'!' if copied else ''}{name}, {hand} {duration:.2f}s"


def _format_annotation(ann: GestureAnnotation) -> str:
    star = "*" if ann.rate_added else ""
    body = _format_variant(ann.form_copied, ann.gesture_name, ann.hand, ann.stroke_duration)
    if ann.alternative is not None:
        alt = ann.alternative
        body += " / " + _format_variant(False, alt.gesture_name, alt.hand, alt.stroke_duration)
    return f"[{ann.stroke_begin:.2f}s]{star}({body})"


def format_dialog(dialog: AnnotatedDialog) -> str:
    """Canonical serialization; parse_dialog(format_dialog(d)) == d.

    Each annotation goes before its following word, and one past the last
    word goes after the text."""
    lines: list[str] = []
    if dialog.story_id:
        lines.append(f"story: {dialog.story_id}")
    lines.append(f"audio: {dialog.audio_duration:.2f}s")
    lines.append("")
    speaker_counts = dict.fromkeys(SPEAKERS, 0)
    for turn in dialog.turns:
        speaker_counts[turn.speaker] += 1
        words = turn.text.split()
        pieces: list[str] = []
        done = 0
        for ann in sorted(turn.annotations, key=lambda a: min(a.word_index, len(words))):
            if ann.word_index > done:
                pieces += words[done:ann.word_index]
                done = ann.word_index
            pieces.append(_format_annotation(ann))
        pieces += words[done:]
        lines.append(f"{turn.speaker}{speaker_counts[turn.speaker]}: " + " ".join(pieces))
    return "\n".join(lines) + "\n"


def segment_sentences(turn: Turn) -> list[tuple[int, list[GestureAnnotation]]]:
    """Split a turn into sentences, each as its end (one past its last word
    in ``turn.text.split()``) with its annotations.  A sentence ends at a
    word that closes with terminal punctuation or at the end of the turn.
    An annotation belongs to the sentence containing its following word;
    trailing annotations fall into the last sentence.  A turn with
    annotations but no words is one sentence, of end 0, that holds them.
    """
    words = turn.text.split()
    if not words:
        return [(0, list(turn.annotations))] if turn.annotations else []
    text = " ".join(words)
    ends = []
    end = spaces = 0  # a sentence end's word count is one more than the spaces before it
    for m in _SENTENCE_END_RE.finditer(text):
        spaces += text.count(" ", end, m.end())
        end = m.end()
        ends.append(spaces + 1)
    if not ends or ends[-1] < len(words):
        ends.append(len(words))
    buckets: list[list[GestureAnnotation]] = [[] for _ in ends]
    for ann in turn.annotations:
        buckets[bisect_right(ends, min(ann.word_index, len(words) - 1))].append(ann)
    return list(zip(ends, buckets))


def turn_label(dialog: AnnotatedDialog, turn: Turn) -> str:
    """The turn's label as the dialog writes it, as in ``turn B2``;
    ``turn.index`` is its 1-based position in ``dialog.turns``."""
    return f"turn {turn.speaker}{sum(t.speaker == turn.speaker for t in dialog.turns[:turn.index])}"


def truncate_dialog(dialog: AnnotatedDialog, n_turns: int) -> AnnotatedDialog:
    """First ``n_turns`` turns with the original audio reference."""
    return dialog._replace(turns=dialog.turns[:n_turns])
