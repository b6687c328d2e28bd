"""Rules the shipped stories keep.  The files under ``src/gesturec/data/``
are the only source of the stories, tracks, catalog and judgments, so a
hand edit to them must keep what both experiments rely on.  Elsewhere:
the canonical dialog form (``test_dsl.py::test_fixture_round_trip_is_byte_stable``),
alignment moving no stroke (``test_align.py::test_fixture_alignment_is_noop``),
context invariance, the bundle counts and the judgment tables (criteria 5
to 7 in ``test_acceptance.py``)."""

from __future__ import annotations

import pytest

from gesturec.adaptation import check_copy_provenance, strip_adaptation
from gesturec.dsl import segment_sentences, truncate_dialog
from gesturec.emitter import validate_timeline
from gesturec.pipeline import PipelineSettings, prepare_dialog
from gesturec.scheduler import schedule
from gesturec.stimuli import ADAPTATION_TASKS


def test_no_sentence_holds_more_gestures_than_the_rate_band(stories):
    # at most 2 gestures written for every speaker, and 3 with those the
    # adapted response adds
    for story_id, (dialog, _) in stories.items():
        for turn in dialog.turns:
            for _, bucket in segment_sentences(turn):
                where = f"{story_id} turn {turn.index}"
                assert len([a for a in bucket if not a.rate_added]) <= 2, where
                assert len(bucket) <= 3, where


@pytest.mark.parametrize("a, b", [(7.0, 7.0), (7.0, 1.0), (1.0, 7.0)])
def test_every_story_schedules_strictly(stories, catalog, a, b):
    settings = PipelineSettings(extraversion={"A": a, "B": b})
    for story_id, (dialog, track) in stories.items():
        prepared = prepare_dialog(dialog, catalog, track, settings)
        result = schedule(strip_adaptation(prepared), settings.scheduler, strict=True)
        assert result.diagnostics == [], story_id
        for speaker in ("A", "B"):
            assert validate_timeline(result.for_speaker(speaker)) == [], f"{story_id} {speaker}"


@pytest.mark.parametrize("story_id, structure", ADAPTATION_TASKS, ids=[f"{s}_{t}" for s, t in ADAPTATION_TASKS])
def test_every_task_copies_a_gesture_with_a_source(stories, story_id, structure):
    # a copy with no source is reported, not refused; each task needs one with
    pairs = check_copy_provenance(truncate_dialog(stories[story_id][0], len(structure)))
    assert any(pair.source is not None for pair in pairs)
