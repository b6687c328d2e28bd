from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import pytest

import gesturec.emitter
from gesturec.align import WordTimingTrack, parse_word_timings
from gesturec.catalog import load_catalog
from gesturec.dsl import (
    Alternative,
    AnnotatedDialog,
    Features,
    GestureAnnotation,
    Turn,
    parse_dialog,
)
from gesturec.emitter import FEATURES, STROKE, ScriptEvent, Timeline, document_from_timeline, format_seconds

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "gesturec" / "data"

# (dialog, speaker A's extraversion) whose first stroke ends within half a
# millisecond of a phase boundary.  At A=6.3867 the Cup stroke ends at
# 1.4696s, which rounds onto the next stroke's start; at A=5.7501 it ends at
# 1.47999s, which rounds onto the start of the prep before the next stroke.
TOUCHING_STROKES = ("audio: 5.00s\nA1: [1.00s](Cup, RH 0.46s) one [1.47s](Reject, RH 0.44s) two\n", 6.3867)
EMPTY_HOLD = ("audio: 5.00s\nA1: [1.00s](Cup, RH 0.46s) one two [1.78s](Reject, RH 0.44s) three\n", 5.7501)


def count_emitter_calls(monkeypatch, *names) -> Counter:
    """Calls of each named ``gesturec.emitter`` function from here on, by
    name: each is wrapped at its module global, where its callers find it."""
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _real=getattr(gesturec.emitter, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(gesturec.emitter, name, counted)
    return calls


WORDS = (
    "the a storm garden cat we saw big wind rain dog fence they ran home "
    "yeah right so then it was really over there here came went still"
).split()

GESTURES = (
    ("Cup", "RH", 0.46),
    ("PointingAbstract", "RH", 0.37),
    ("Cup_Horizontal", "2H", 0.57),
    ("SweepSide1", "RH", 0.35),
    ("Cup_Up", "2H", 0.34),
    ("Eruptive", "LH", 0.76),
    ("WeighOptions", "2H", 0.6),
    ("ShortProgressive", "RH", 0.38),
    ("Dismiss", "2H", 0.47),
    ("Reject", "RH", 0.44),
)


@pytest.fixture(scope="session")
def catalog():
    return load_catalog((DATA_DIR / "catalog.txt").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def protest_text():
    return (DATA_DIR / "stories" / "protest.dialog").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def protest_dialog(protest_text):
    return parse_dialog(protest_text)


@pytest.fixture(scope="session")
def protest_track():
    return parse_word_timings((DATA_DIR / "timings" / "protest.tsv").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def stories(catalog):
    loaded = {}
    for path in sorted((DATA_DIR / "stories").glob("*.dialog")):
        dialog = parse_dialog(path.read_text(encoding="utf-8"))
        track = parse_word_timings(
            (DATA_DIR / "timings" / f"{path.stem}.tsv").read_text(encoding="utf-8")
        )
        loaded[dialog.story_id] = (dialog, track)
    return loaded


def neutral_features() -> Features:
    return Features(expanse_cm=25.0, height_cm=0.0, outwardness_cm=20.0, speed=1.0, scale=1.0)


def random_features(rng: random.Random) -> Features:
    return Features(
        expanse_cm=round(rng.uniform(10, 45), 2),
        height_cm=round(rng.uniform(-10, 30), 2),
        outwardness_cm=round(rng.uniform(5, 35), 2),
        speed=round(rng.uniform(0.8, 1.5), 2),
        scale=round(rng.uniform(0.8, 1.6), 2),
    )


def random_sentence(rng: random.Random) -> list[str]:
    words = [rng.choice(WORDS) for _ in range(rng.randint(3, 8))]
    words[-1] += rng.choice(".!?")
    return words


def make_random_dialog(rng: random.Random, max_turns: int = 4, with_markers: bool = True) -> AnnotatedDialog:
    """A structurally valid dialog on the centisecond grid."""
    turns = []
    time = round(rng.uniform(0.5, 2.0), 2)
    for index in range(1, rng.randint(1, max_turns) + 1):
        words: list[str] = []
        annotations: list[GestureAnnotation] = []
        for _ in range(rng.randint(1, 3)):
            sentence_start = len(words)
            sentence = random_sentence(rng)
            words.extend(sentence)
            count = min(rng.randint(0, 2), len(sentence))
            # text order must follow stroke-time order
            positions = sorted(rng.sample(range(sentence_start, len(words)), count))
            for wi in positions:
                name, hand, duration = rng.choice(GESTURES)
                time = round(time + rng.uniform(0.4, 2.5), 2)
                alternative = None
                if with_markers and rng.random() < 0.3:
                    alt_name, alt_hand, alt_duration = rng.choice(GESTURES)
                    alternative = Alternative(alt_name, alt_hand, alt_duration)
                annotations.append(
                    GestureAnnotation(
                        stroke_begin=time,
                        gesture_name=name,
                        hand=hand,
                        stroke_duration=duration,
                        rate_added=with_markers and rng.random() < 0.2,
                        form_copied=with_markers and rng.random() < 0.3,
                        alternative=alternative,
                        word_index=wi,
                    )
                )
        turns.append(Turn("AB"[(index - 1) % 2], index, " ".join(words), tuple(annotations)))
        time = round(time + rng.uniform(0.5, 1.5), 2)
    ends = [a.stroke_end for t in turns for a in t.annotations]
    audio = round((max(ends) if ends else time) + rng.uniform(1.0, 3.0), 2)
    return AnnotatedDialog(story_id=f"story{rng.randint(0, 999)}", turns=tuple(turns), audio_duration=audio)


def make_aligned_pair(rng: random.Random) -> tuple[AnnotatedDialog, WordTimingTrack, str]:
    """Dialog plus a complete timing track, parsed and as TSV text.

    Word onsets keep gaps above the alignment lead so that realignment
    targets the same following words.
    """
    turns = []
    tsv_lines: list[str] = []
    onset = round(rng.uniform(0.05, 1.0), 2)
    for index in range(1, rng.randint(1, 4) + 1):
        words = []
        for _ in range(rng.randint(1, 2)):
            words.extend(random_sentence(rng))
        onsets = []
        for word in words:
            onsets.append(onset)
            tsv_lines.append(f"{index}\t{word}\t{onset:.2f}")
            onset = round(onset + rng.uniform(0.25, 0.6), 2)
        annotations = []
        positions = sorted(rng.sample(range(len(words)), k=min(len(words), rng.randint(0, 3))))
        last_begin = -1.0
        for wi in positions:
            name, hand, duration = rng.choice(GESTURES)
            offset = round(rng.uniform(0.01, 0.2), 2)
            begin = max(0.0, round(onsets[wi] - offset, 2))
            if begin <= last_begin:  # keep the pre-alignment order invariant
                continue
            last_begin = begin
            annotations.append(
                GestureAnnotation(
                    stroke_begin=begin,
                    gesture_name=name,
                    hand=hand,
                    stroke_duration=duration,
                    word_index=wi,
                )
            )
        turns.append(Turn("AB"[(index - 1) % 2], index, " ".join(words), tuple(annotations)))
        onset = round(onset + rng.uniform(0.5, 1.5), 2)
    audio = round(onset + 3.0, 2)
    dialog = AnnotatedDialog(story_id="aligned", turns=tuple(turns), audio_duration=audio)
    tsv = "\n".join(tsv_lines) + "\n"
    return dialog, parse_word_timings(tsv), tsv


def make_stroke_dialog(rng: random.Random, n_strokes: int | None = None,
                       gap_range: tuple[float, float] = (0.35, 6.0)) -> AnnotatedDialog:
    """Two-turn dialog with feature-stamped annotations at controlled gaps,
    ready for the scheduler."""
    n = n_strokes if n_strokes is not None else rng.randint(1, 8)
    annotations = []
    time = round(rng.uniform(0.5, 2.0), 2)
    for _ in range(n):
        name, hand, duration = rng.choice(GESTURES)
        features = random_features(rng)
        annotations.append(
            GestureAnnotation(
                stroke_begin=time,
                gesture_name=name,
                hand=hand,
                stroke_duration=duration,
                word_index=0,
                features=features,
            )
        )
        time = round(time + duration / features.speed + rng.uniform(*gap_range), 2)
    turn_a = Turn(speaker="A", index=1, text="so it went.", annotations=tuple(annotations))
    turn_b = Turn(speaker="B", index=2, text="yeah.", annotations=())
    return AnnotatedDialog(story_id="strokes", turns=(turn_a, turn_b), audio_duration=round(time + 2.0, 2))


def _reference_json_event(e: ScriptEvent) -> str:
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


def reference_render(timeline: Timeline, format: str) -> bytes:
    """The renderer field by field (``getattr``, ``json.dumps`` and
    ``format_seconds`` per field): the oracle for ``emit_document``, and an
    unchecked writer that renders what the script rules refuse too."""
    events = [ScriptEvent._make(e) for e in document_from_timeline(timeline)]
    if format == "json":
        lines = [
            "{",
            '  "header": {'
            f'"story": {json.dumps(timeline.story_id)}, '
            f'"speaker": {json.dumps(timeline.speaker)}, '
            f'"audio": {format_seconds(timeline.audio_ms)}, '
            f'"config": {json.dumps(timeline.config_fingerprint)}'
            "},",
            '  "events": [',
        ]
        lines.append(",\n".join(_reference_json_event(e) for e in events))
        lines += ["  ]", "}", ""]
        return "\n".join(lines).encode("utf-8")
    lines = [
        "# gesture-script v1",
        f"# story: {timeline.story_id}",
        f"# speaker: {timeline.speaker}",
        f"# audio: {format_seconds(timeline.audio_ms)}",
        f"# config: {timeline.config_fingerprint}",
    ]
    for e in events:
        if e.kind == STROKE:
            tail = " ".join([f"{e.gesture}:{e.hand}"] + [f"{getattr(e, name):.3f}" for name in FEATURES])
        else:
            tail = "- - - - - -"
        lines.append(f"{format_seconds(e.start)} {format_seconds(e.end)} {e.kind} {e.arm} {tail}")
    return ("\n".join(lines) + "\n").encode("utf-8")
