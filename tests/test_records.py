"""The records the pipeline builds: every dialog, turn, annotation, features
record and script event is exactly its ``NamedTuple`` type, equals the
record its keyword constructor builds from the same fields, and holds in
each field a value of the field's annotated type.  The hot paths build
them positionally with ``tuple.__new__``, so a field count or a field
order that goes wrong shows here."""

from __future__ import annotations

import random
import types
import typing

import pytest

from conftest import DATA_DIR, make_aligned_pair
from gesturec.adaptation import resolve_variant, strip_adaptation
from gesturec.align import align_strokes, parse_word_timings
from gesturec.dsl import AnnotatedDialog, Alternative, Features, GestureAnnotation, Turn, format_dialog, parse_dialog
from gesturec.emitter import ScriptEvent
from gesturec.personality import apply_personality
from gesturec.pipeline import PipelineSettings
from gesturec.scheduler import schedule

SETTINGS = PipelineSettings(extraversion={"A": 7.0, "B": 1.0}, strict=False)


def _fits(value, hint) -> bool:
    """Whether ``value`` is of the type ``hint`` names; ``float`` admits an int, as in typing."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:  # a tuple[X, ...] field
        return type(value) is tuple and all(_fits(v, typing.get_args(hint)[0]) for v in value)
    if hint is type(None):
        return value is None
    if hint is float:
        return type(value) in (int, float)
    return type(value) is hint


def _check(record, cls) -> None:
    assert type(record) is cls
    assert record == cls(**record._asdict())
    for name, hint in typing.get_type_hints(cls).items():
        assert _fits(getattr(record, name), hint), (cls.__name__, name, getattr(record, name))


def _check_dialog(dialog: AnnotatedDialog) -> None:
    _check(dialog, AnnotatedDialog)
    for turn in dialog.turns:
        _check(turn, Turn)
        for ann in turn.annotations:
            _check(ann, GestureAnnotation)
            for record, cls in ((ann.alternative, Alternative), (ann.features, Features), (ann.alt_features, Features)):
                if record is not None:
                    _check(record, cls)


def _check_pipeline(source: str, track, catalog) -> int:
    """Check every dialog and event that compiling ``source`` builds, stage
    by stage, in both variants; the number of events checked."""
    dialog = parse_dialog(source)
    _check_dialog(dialog)
    if track is not None:
        dialog = align_strokes(dialog, track, lead=SETTINGS.scheduler.stroke_lead_s)
        _check_dialog(dialog)
    for speaker in ("A", "B"):
        dialog = apply_personality(dialog, speaker, SETTINGS.profile(speaker), catalog)
        _check_dialog(dialog)
    events = 0
    for resolved in (resolve_variant(dialog, SETTINGS.adaptation), strip_adaptation(dialog)):
        _check_dialog(resolved)
        result = schedule(resolved, SETTINGS.scheduler, strict=False)
        for speaker in ("A", "B"):
            for track_events in result.for_speaker(speaker).tracks.values():
                for event in track_events:
                    _check(event, ScriptEvent)
                    events += 1
    return events


@pytest.mark.parametrize("story", sorted(p.stem for p in (DATA_DIR / "stories").glob("*.dialog")))
def test_every_record_of_a_shipped_story_is_its_type(story, catalog):
    source = (DATA_DIR / "stories" / f"{story}.dialog").read_text(encoding="utf-8")
    track = parse_word_timings((DATA_DIR / "timings" / f"{story}.tsv").read_text(encoding="utf-8"))
    assert _check_pipeline(source, track, catalog) > 0


def test_every_record_of_an_aligned_pair_is_its_type(catalog):
    events = 0
    for seed in range(60):
        dialog, track, _ = make_aligned_pair(random.Random(seed))
        events += _check_pipeline(format_dialog(dialog), track, catalog)
    assert events > 0


def test_a_record_built_with_a_field_out_of_place_is_caught():
    ann = GestureAnnotation(1.0, "Cup", "RH", 0.46, word_index=2)
    _check(ann, GestureAnnotation)
    swapped = tuple.__new__(GestureAnnotation, (1.0, "Cup", "RH", 0.46, False, False, None, None, 2, None))
    with pytest.raises(AssertionError):
        _check(swapped, GestureAnnotation)
    short = tuple.__new__(ScriptEvent, (0, 300, "prep", "left") + (None,) * 6)
    with pytest.raises(AssertionError):
        _check(short, ScriptEvent)
