from __future__ import annotations

import copy
import random
import re

import pytest

from conftest import make_random_dialog
from gesturec.adaptation import (
    AdaptationSpec,
    check_copy_provenance,
    resolve_variant,
    strip_adaptation,
)
from gesturec.align import align_strokes
from gesturec.dsl import AnnotatedDialog, parse_dialog, truncate_dialog
from gesturec.errors import DomainError, PlanError
from gesturec.personality import EXTRAVERT_ANCHOR, apply_personality
from gesturec.pipeline import compile_dialog


@pytest.fixture()
def prepared_b2(protest_dialog, protest_track, catalog):
    """Protest dialog truncated after B2 (the 4-turn task), features stamped."""
    dialog = align_strokes(protest_dialog, protest_track)
    dialog = truncate_dialog(dialog, 4)
    for speaker in ("A", "B"):
        dialog = apply_personality(dialog, speaker, EXTRAVERT_ANCHOR, catalog)
    return dialog


@pytest.mark.parametrize("stage", ["align", "personality-A", "personality-B", "resolve", "strip"])
def test_stages_leave_their_input_unchanged_and_unshared(stage, protest_dialog, protest_track, catalog):
    prepared = align_strokes(protest_dialog, protest_track)
    for speaker in ("A", "B"):
        prepared = apply_personality(prepared, speaker, EXTRAVERT_ANCHOR, catalog)
    run, dialog = {
        "align": (lambda d: align_strokes(d, protest_track), protest_dialog),
        "personality-A": (lambda d: apply_personality(d, "A", EXTRAVERT_ANCHOR, catalog), protest_dialog),
        "personality-B": (lambda d: apply_personality(d, "B", EXTRAVERT_ANCHOR, catalog), prepared),
        "resolve": (resolve_variant, prepared),
        "strip": (strip_adaptation, prepared),
    }[stage]
    before = copy.deepcopy(dialog)
    result = run(dialog)
    assert dialog == before  # features included
    # unshared: the result holds nothing mutable that a later stage could change under its input
    assert type(result.turns) is tuple and all(type(turn.annotations) is tuple for turn in result.turns)
    hash(result)  # raises TypeError for a mutable object anywhere inside
    annotation = next(a for turn in result.turns for a in turn.annotations)
    for record, name in ((result, "turns"), (result.turns[0], "annotations"), (annotation, "features")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_spec_validation():
    with pytest.raises(DomainError):
        AdaptationSpec(expanse_delta=-1.0)
    with pytest.raises(DomainError):
        AdaptationSpec(speed_factor=0.9)
    for name in ("expanse_delta", "height_delta", "outwardness_delta", "speed_factor", "scale_factor"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DomainError, match=name):
                AdaptationSpec(**{name: bad})


def test_adapted_response_turn_b2(prepared_b2):
    out = resolve_variant(prepared_b2)
    response = out.turns[-1]
    names = [a.gesture_name for a in response.annotations]
    assert names == ["Cup_Up", "Regressive", "WeighOptions", "Cup"]
    assert any(a.rate_added for a in response.annotations)
    for ann in response.annotations:
        f = ann.features
        assert f.expanse_cm == pytest.approx(25.0 + 18.0)
        assert f.height_cm == pytest.approx(0.0 + 10.0)
        assert f.outwardness_cm == pytest.approx(20.0 + 10.0)
        assert f.speed == pytest.approx(1.25)
        assert f.scale == pytest.approx(1.5)


def test_nonadapted_response_turn_b2(prepared_b2):
    out = strip_adaptation(prepared_b2)
    response = out.turns[-1]
    names = [a.gesture_name for a in response.annotations]
    # the rate-added gesture is gone; the slash alternative replaces the copy
    assert names == ["Cup_Up", "Eruptive", "WeighOptions"]
    for ann in response.annotations:
        assert not ann.rate_added and not ann.form_copied and ann.alternative is None
        assert ann.features.expanse_cm == pytest.approx(25.0)
        assert ann.features.speed == pytest.approx(1.0)


def test_context_turns_identical_across_variants(prepared_b2):
    adapted = resolve_variant(prepared_b2)
    nonadapted = strip_adaptation(prepared_b2)
    assert adapted.turns[:-1] == nonadapted.turns[:-1]
    features_a = [a.features for t in adapted.turns[:-1] for a in t.annotations]
    features_n = [a.features for t in nonadapted.turns[:-1] for a in t.annotations]
    assert features_a == features_n


def test_adapted_count_at_least_nonadapted(prepared_b2):
    adapted = resolve_variant(prepared_b2)
    nonadapted = strip_adaptation(prepared_b2)
    assert len(adapted.turns[-1].annotations) >= len(nonadapted.turns[-1].annotations)


def test_marker_free_dialog_keeps_gestures(catalog):
    dialog = parse_dialog("audio: 9.00s\nA1: [1.00s](Cup, RH 0.46s) word here.\n")
    dialog = apply_personality(dialog, "A", EXTRAVERT_ANCHOR, catalog)
    out = resolve_variant(dialog)
    assert [a.gesture_name for a in out.turns[0].annotations] == ["Cup"]
    assert out.turns[0].annotations[0].features.expanse_cm == pytest.approx(43.0)


def test_deltas_stack_on_personality_offsets(catalog):
    from gesturec.personality import INTROVERT_ANCHOR

    dialog = parse_dialog("audio: 9.00s\nA1: [1.00s](Cup, RH 0.46s) word here.\n")
    dialog = apply_personality(dialog, "A", INTROVERT_ANCHOR, catalog)
    out = resolve_variant(dialog)
    f = out.turns[0].annotations[0].features
    assert f.expanse_cm == pytest.approx(25.0 - 10.0 + 18.0)
    assert f.height_cm == pytest.approx(0.0 - 5.0 + 10.0)
    assert f.outwardness_cm == pytest.approx(20.0 - 10.0 + 10.0)
    assert f.speed == pytest.approx(0.8 * 1.25)
    assert f.scale == pytest.approx(0.8 * 1.5)


def test_nonadapted_resolution_idempotent(prepared_b2):
    once = strip_adaptation(prepared_b2)
    twice = strip_adaptation(once)
    assert twice == once


def test_plan_errors():
    # a dialog without turns has no response turn to adapt
    with pytest.raises(PlanError, match="no turns"):
        resolve_variant(AnnotatedDialog(story_id="empty", turns=(), audio_duration=5.0))


@pytest.mark.parametrize("variant", [None, "", "Adapted"])
def test_compile_names_its_variant(catalog, protest_text, variant):
    # "nonadapted" is the default and the one spelling of no adaptation
    with pytest.raises(PlanError, match=re.escape(f"unknown variant {variant!r}")):
        compile_dialog(protest_text, catalog, variant=variant)
    assert compile_dialog(protest_text, catalog) == compile_dialog(protest_text, catalog, variant="nonadapted")


def test_adapted_requires_features(protest_dialog):
    dialog = truncate_dialog(protest_dialog, 4)
    with pytest.raises(PlanError, match="no effective features"):
        resolve_variant(dialog)


def test_strip_adaptation_removes_all_markers(protest_dialog):
    out = strip_adaptation(protest_dialog)
    for turn in out.turns:
        for ann in turn.annotations:
            assert not ann.rate_added and not ann.form_copied and ann.alternative is None


def test_context_invariance_on_generated_dialogs(catalog, protest_dialog, protest_track):
    # property over random dialogs: only the response turn may differ
    for seed in range(120):
        rng = random.Random(seed)
        dialog = make_random_dialog(rng, max_turns=4)
        if not dialog.turns or not any(t.annotations for t in dialog.turns):
            continue
        adapted = resolve_variant(_with_neutral_features(dialog), AdaptationSpec())
        nonadapted = strip_adaptation(_with_neutral_features(dialog))
        assert adapted.turns[:-1] == nonadapted.turns[:-1]
        assert len(adapted.turns[-1].annotations) >= len(nonadapted.turns[-1].annotations)


def _with_neutral_features(dialog):
    from conftest import neutral_features

    turns = tuple(
        t._replace(annotations=tuple(
            a._replace(features=neutral_features(), alt_features=neutral_features())
            for a in t.annotations
        ))
        for t in dialog.turns
    )
    return dialog._replace(turns=turns)


def test_provenance_b2_final(protest_dialog):
    dialog = truncate_dialog(protest_dialog, 4)
    pairs = {p.copy.gesture_name: p for p in check_copy_provenance(dialog)}
    assert set(pairs) == {"Cup_Up", "Regressive", "WeighOptions", "Cup"}
    assert pairs["Cup"].source_turn == 3  # picked up from the other speaker's previous turn
    assert pairs["Cup"].source.stroke_begin == pytest.approx(20.72)
    assert pairs["Regressive"].source_turn == 3
    assert pairs["Cup_Up"].source is None
    assert pairs["WeighOptions"].source is None


def test_provenance_a3_final(protest_dialog):
    dialog = truncate_dialog(protest_dialog, 5)
    pairs = {p.copy.gesture_name: p for p in check_copy_provenance(dialog)}
    assert pairs["WeighOptions"].source_turn == 4
    assert pairs["WeighOptions"].source.stroke_begin == pytest.approx(26.77)
    assert pairs["Cup_Up"].source_turn == 4
    assert pairs["Cup_Up"].source.stroke_begin == pytest.approx(22.08)


def test_orphan_copy_reported():
    dialog = parse_dialog("A1: plain words.\nB1: [1.00s](!Cup, RH 0.46s) word.\n")
    pairs = check_copy_provenance(dialog)
    assert len(pairs) == 1
    assert pairs[0].source is None
