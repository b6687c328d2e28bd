from __future__ import annotations

import json

import pytest

from gesturec.dsl import format_dialog, parse_dialog
from gesturec.errors import PlanError
from gesturec.personality import EXTRAVERT_ANCHOR
from gesturec.pipeline import PipelineSettings, compile_dialog
from gesturec.stimuli import (
    ADAPTATION_TASKS,
    build_adaptation_pair,
    build_personality_pair,
    run_adaptation_batch,
    run_personality_batch,
    speaker_scripts,
    write_bundles,
)


def test_personality_batch_emits_eight_bundles(stories, catalog):
    bundles = run_personality_batch(stories, catalog)
    assert len(bundles) == 8
    assert len({b.name for b in bundles}) == 8


def test_adaptation_batch_emits_sixteen_bundles(stories, catalog):
    bundles = run_adaptation_batch(stories, catalog)
    assert len(bundles) == 16
    tasks = {b.metadata["task"] for b in bundles}
    assert tasks == {f"{story}_{structure}" for story, structure in ADAPTATION_TASKS}


def test_personality_pair_scripts_identical(stories, catalog):
    dialog, track = stories["garden"]
    first, second = build_personality_pair(dialog, catalog, track=track)
    assert first.scripts == second.scripts
    assert first.metadata["gender_assignment"] == "F-extravert"
    assert second.metadata["gender_assignment"] == "M-extravert"
    assert first.metadata["agents"] != second.metadata["agents"]


def test_gender_swap_is_an_involution(stories, catalog):
    dialog, track = stories["garden"]
    first, second = build_personality_pair(dialog, catalog, track=track)
    swap = {"F": "M", "M": "F"}
    swapped_back = {
        speaker: swap[agent["gender"]] for speaker, agent in second.metadata["agents"].items()
    }
    assert swapped_back == {
        speaker: agent["gender"] for speaker, agent in first.metadata["agents"].items()
    }


def test_identical_profiles_differ_only_in_metadata(stories, catalog):
    dialog, track = stories["storm"]
    # with equal anchors both scores give the same profile
    settings = PipelineSettings(introvert=EXTRAVERT_ANCHOR)
    first, second = build_personality_pair(dialog, catalog, settings, track)
    assert first.scripts == second.scripts
    meta_a = {k: v for k, v in first.metadata.items() if k not in ("agents", "gender_assignment", "label")}
    meta_b = {k: v for k, v in second.metadata.items() if k not in ("agents", "gender_assignment", "label")}
    assert meta_a == meta_b


@pytest.mark.parametrize("role", ["A", "B"])
def test_personality_metadata_states_the_scripts_extraversion(stories, catalog, role):
    dialog, track = stories["protest"]
    first, _ = build_personality_pair(dialog, catalog, track=track, extraverted_role=role)
    extraversion = first.metadata["extraversion"]
    assert extraversion == {role: 7.0, "B" if role == "A" else "A": 1.0}
    settings = PipelineSettings(extraversion=extraversion)
    result = compile_dialog(format_dialog(dialog), catalog, track, settings)
    assert first.scripts == speaker_scripts(result.schedule)


def test_adaptation_pair_context_bytes_identical(stories, catalog):
    for story_id, structure in ADAPTATION_TASKS:
        dialog, track = stories[story_id]
        adapted, nonadapted = build_adaptation_pair(dialog, structure, catalog, track=track)
        response_first = min(
            a.stroke_begin for a in dialog.turns[len(structure) - 1].annotations
        )
        cutoff = response_first - PipelineSettings().scheduler.prep_duration_s
        for speaker in ("A", "B"):
            name = f"{speaker}.script.txt"
            context_a = [
                line for line in adapted.scripts[name].decode().splitlines()
                if not line.startswith("#") and float(line.split()[0]) < cutoff
            ]
            context_n = [
                line for line in nonadapted.scripts[name].decode().splitlines()
                if not line.startswith("#") and float(line.split()[0]) < cutoff
            ]
            assert context_a == context_n, f"{story_id}_{structure}/{speaker}"


def test_non_responder_script_fully_identical(stories, catalog):
    dialog, track = stories["protest"]
    adapted, nonadapted = build_adaptation_pair(dialog, "ABAB", catalog, track=track)
    assert adapted.metadata["responder"] == "B"
    assert adapted.scripts["A.script.json"] == nonadapted.scripts["A.script.json"]
    assert adapted.scripts["A.script.txt"] == nonadapted.scripts["A.script.txt"]


def test_adaptation_pair_audio_reference_shared(stories, catalog):
    dialog, track = stories["pet"]
    adapted, nonadapted = build_adaptation_pair(dialog, "ABABA", catalog, track=track)
    assert adapted.metadata["audio"] == nonadapted.metadata["audio"]
    assert adapted.metadata["context_turns"] == 4


def test_structure_must_match_dialog(stories, catalog):
    dialog, track = stories["garden"]
    with pytest.raises(PlanError):
        build_adaptation_pair(dialog, "ABABAB", catalog, track=track)


def test_structure_pattern_mismatch(catalog):
    dialog = parse_dialog("story: odd\nB1: one.\nA1: two.\nB2: three.\n")
    with pytest.raises(PlanError):
        build_adaptation_pair(dialog, "ABA", catalog)


def test_write_bundles_and_manifest(tmp_path, stories, catalog):
    bundles = run_personality_batch(stories, catalog)
    manifest = write_bundles(bundles, tmp_path, "personality")
    assert manifest["bundle_count"] == 8
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk == manifest
    for entry in on_disk["bundles"]:
        bundle_dir = tmp_path / entry["path"]
        assert (bundle_dir / "bundle.json").exists()
        for script in ("A.script.json", "A.script.txt", "B.script.json", "B.script.txt"):
            assert (bundle_dir / script).exists()


def test_bundle_labels_are_letter_marks(stories, catalog):
    bundles = run_adaptation_batch(stories, catalog)
    by_task = {}
    for bundle in bundles:
        by_task.setdefault(bundle.metadata["task"], []).append(bundle.metadata["label"])
    assert all(sorted(labels) == ["A", "B"] for labels in by_task.values())
