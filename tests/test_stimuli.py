from __future__ import annotations

import gc
import hashlib
import json
import math
import os
from collections import Counter
from pathlib import Path

import pytest

import gesturec.stimuli
from conftest import DATA_DIR, count_emitter_calls
from gesturec.adaptation import resolve_variant, strip_adaptation
from gesturec.align import parse_word_timings
from gesturec.config import load_config
from gesturec.dsl import format_dialog, parse_dialog, truncate_dialog
from gesturec.errors import EmptyStrokeError, PlanError, StrokeOverlapError, UnknownGestureError, WordMismatchError
from gesturec.personality import EXTRAVERT_ANCHOR
from gesturec.pipeline import PipelineSettings, compile_dialog, prepare_dialog
from gesturec.scheduler import schedule
from gesturec.stimuli import (
    ADAPTATION_TASKS,
    build_adaptation_pair,
    build_personality_pair,
    run_adaptation_batch,
    run_personality_batch,
    speaker_scripts,
    write_bundles,
)
from gesturec.files import write_file, write_json

BUILD_DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "build_digests.json"


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


def test_personality_metadata_states_the_scripts_extraversion(stories, catalog):
    dialog, track = stories["protest"]
    first, _ = build_personality_pair(dialog, catalog, track=track)
    assert first.metadata["extraverted_role"] == "A"
    extraversion = first.metadata["extraversion"]
    assert extraversion == {"A": 7.0, "B": 1.0}
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


def test_adaptation_pair_emits_the_non_responders_scripts_once(stories, catalog, monkeypatch):
    emitted = Counter()
    real_emit = gesturec.stimuli.emit_script

    def counting_emit(timeline, fmt):
        emitted[timeline.speaker, fmt] += 1
        return real_emit(timeline, fmt)

    monkeypatch.setattr(gesturec.stimuli, "emit_script", counting_emit)
    dialog, track = stories["storm"]
    adapted, nonadapted = build_adaptation_pair(dialog, "ABABA", catalog, track=track)
    # the responder A in both variants, the non-responder B once
    assert emitted == {("A", "json"): 2, ("A", "text"): 2, ("B", "json"): 1, ("B", "text"): 1}
    # and each bundle holds what emitting its own schedule gives
    prepared = prepare_dialog(truncate_dialog(dialog, 5), catalog, track, PipelineSettings())
    for bundle, resolved in ((adapted, resolve_variant(prepared)), (nonadapted, strip_adaptation(prepared))):
        assert bundle.scripts == speaker_scripts(schedule(resolved))


def test_speaker_scripts_check_and_order_each_timeline_once(stories, catalog, monkeypatch):
    dialog, track = stories["garden"]
    result = schedule(strip_adaptation(prepare_dialog(dialog, catalog, track, PipelineSettings())))
    calls = count_emitter_calls(monkeypatch, "validate_timeline", "document_from_timeline", "_render")
    scripts = speaker_scripts(result)
    assert sorted(scripts) == ["A.script.json", "A.script.txt", "B.script.json", "B.script.txt"]
    assert calls == {"validate_timeline": 2, "document_from_timeline": 2, "_render": 2}


def test_each_bundle_carries_the_diagnostics_of_its_schedule(stories, catalog):
    dialog = parse_dialog("story: x\naudio: 5.00s\nA1: [1.00s](Cup, RH 0.46s) one [1.20s](Reject, RH 0.44s) two.\n")
    overlap = "dropped: A/right: stroke 'Reject' at 1.200s overlaps the previous stroke ending at 1.460s"
    pair = build_personality_pair(dialog, catalog, PipelineSettings(strict=False))
    assert [bundle.diagnostics for bundle in pair] == [(overlap,), (overlap,)]
    # at 1000x only the adapted response turn loses strokes; the metadata does not list them
    settings = load_config("adaptation.speed_factor = 1000\n", PipelineSettings(strict=False))
    dialog, track = stories["garden"]
    adapted, nonadapted = build_adaptation_pair(dialog, "ABAB", catalog, settings, track)
    assert len(adapted.diagnostics) == 3
    assert adapted.diagnostics[0] == "dropped: B: stroke 'Cup' at 21.230s lasts 0 ms (0.46s at speed 1000)"
    assert nonadapted.diagnostics == ()
    assert not any("diagnostics" in bundle.metadata for bundle in (*pair, adapted, nonadapted))


def test_a_strict_schedule_error_names_its_bundles_and_story(stories, catalog):
    dialog = parse_dialog("story: x\naudio: 5.00s\nA1: [1.00s](Cup, RH 0.46s) one [1.20s](Reject, RH 0.44s) two.\n")
    with pytest.raises(StrokeOverlapError) as err:
        build_personality_pair(dialog, catalog)
    assert str(err.value) == (
        "x/F-extravert, x/M-extravert: A/right: stroke 'Reject' at 1.200s overlaps the previous stroke ending at 1.460s"
    )
    assert err.value.story_id is None  # only a batch knows which story an error is about
    dialog, track = stories["garden"]
    with pytest.raises(EmptyStrokeError) as err:
        build_adaptation_pair(dialog, "ABAB", catalog, load_config("adaptation.speed_factor = 1000\n"), track)
    assert str(err.value) == "garden_ABAB/adapted: B: stroke 'Cup' at 21.230s lasts 0 ms (0.46s at speed 1000)"


def test_adaptation_pair_audio_reference_shared(stories, catalog):
    dialog, track = stories["pet"]
    adapted, nonadapted = build_adaptation_pair(dialog, "ABABA", catalog, track=track)
    assert adapted.metadata["audio"] == nonadapted.metadata["audio"]
    assert adapted.metadata["context_turns"] == 4


def test_structure_must_match_dialog(stories, catalog):
    dialog, track = stories["garden"]
    with pytest.raises(PlanError):
        build_adaptation_pair(dialog, "ABABAB", catalog, track=track)


def test_structure_too_short(stories, catalog):
    dialog, track = stories["garden"]
    with pytest.raises(PlanError) as err:
        build_adaptation_pair(dialog, "A", catalog, track=track)
    assert str(err.value) == "turn structure too short: 'A'"


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


@pytest.mark.parametrize("value", [
    {},
    [],
    {"b": [1, 2.5, -0.0, None, True, "x"], "a": {"d": [], "c": {}}, "é": "line\n\"quoted\"\x00"},
    {"z": [math.nan, math.inf, 10**30, (1, (2, 3))]},
    [[[{"deep": [{}]}]]],
    "scalar",
])
def test_write_json_writes_the_bytes_of_indented_key_sorted_json(tmp_path, value):
    write_json(tmp_path / "v.json", value)
    assert (tmp_path / "v.json").read_bytes() == (json.dumps(value, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {"b": object()}}])
def test_write_json_refuses_a_key_that_is_no_string_and_a_value_json_cannot_write(tmp_path, value):
    with pytest.raises(TypeError):
        write_json(tmp_path / "v.json", value)


@pytest.mark.parametrize("path", ["compile", "personality", "adaptation"])
def test_compile_and_build_paths_leave_no_reference_cycles(tmp_path, stories, catalog, path):
    """The adapted garden compile with its scripts, and each build with its
    bundle files and manifest, leave nothing for the cycle collector: no
    timeline is kept alive by a cycle through what it keeps of itself."""
    source = (DATA_DIR / "stories" / "garden.dialog").read_text(encoding="utf-8")
    run_batch = {"personality": run_personality_batch, "adaptation": run_adaptation_batch}.get(path)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        if run_batch is None:
            speaker_scripts(compile_dialog(source, catalog, timings=stories["garden"][1], variant="adapted").schedule)
        else:
            write_bundles(run_batch(stories, catalog), tmp_path / path, path)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("old", [None, b"", b"x" * 40, b"abc"], ids=["missing", "empty", "longer", "shorter"])
def test_write_file_leaves_exactly_the_new_bytes(tmp_path, old):
    path = tmp_path / "f.txt"
    if old is not None:
        path.write_bytes(old)
    write_file(path, b"new bytes\n")
    assert path.read_bytes() == b"new bytes\n"


def test_write_file_gives_a_new_file_the_mode_of_open_wb(tmp_path):
    for umask in (0o022, 0o077, 0o002):
        previous = os.umask(umask)
        try:
            write_file(tmp_path / f"ours-{umask:o}", b"x")
            with open(tmp_path / f"theirs-{umask:o}", "wb") as f:
                f.write(b"x")
        finally:
            os.umask(previous)
        ours, theirs = ((tmp_path / f"{who}-{umask:o}").stat().st_mode for who in ("ours", "theirs"))
        assert ours == theirs


def test_a_rebuild_over_changed_files_gives_the_shipped_bytes(tmp_path, stories, catalog):
    def build():
        write_bundles(run_personality_batch(stories, catalog), tmp_path / "personality", "personality")
        write_bundles(run_adaptation_batch(stories, catalog), tmp_path / "adaptation", "adaptation")

    build()
    padded = tmp_path / "personality" / "storm" / "F-extravert" / "B.script.txt"
    padded.write_bytes(padded.read_bytes() + b"# stale tail\n" * 50)
    cut = tmp_path / "adaptation" / "garden_ABA" / "adapted" / "A.script.json"
    cut.write_bytes(cut.read_bytes()[:100])
    build()
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*") if path.is_file()
    }
    assert digests == json.loads(BUILD_DIGESTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("config", ["", "adaptation.speed_factor = 1000\n"], ids=["default", "speed-1000"])
@pytest.mark.parametrize("extraversion", [{"A": 7.0, "B": 7.0}, {"A": 3.5, "B": 6.0}], ids=["7-7", "3.5-6"])
def test_one_prepare_per_story_gives_the_bundles_of_one_prepare_per_task(
    stories, catalog, monkeypatch, config, extraversion
):
    settings = load_config(config, PipelineSettings(extraversion=extraversion, strict=not config))
    per_task = [
        bundle for story_id, structure in ADAPTATION_TASKS
        for bundle in build_adaptation_pair(stories[story_id][0], structure, catalog, settings, stories[story_id][1])
    ]
    prepares = Counter()
    real_prepare = gesturec.stimuli.prepare_dialog

    def counting_prepare(dialog, *args):
        prepares[dialog.story_id] += 1
        return real_prepare(dialog, *args)

    monkeypatch.setattr(gesturec.stimuli, "prepare_dialog", counting_prepare)
    batch = run_adaptation_batch(stories, catalog, settings)
    assert prepares == {story_id: 1 for story_id in stories}
    # names, metadata, script bytes and diagnostics
    assert batch == per_task
    assert any(bundle.diagnostics for bundle in batch) == bool(config)


def test_a_story_is_prepared_through_its_longest_structure_before_its_first_task_schedules(stories, catalog):
    # garden_ABA overlaps two strokes of A1; garden_ABAB adds B2, which names an unknown gesture
    text = (DATA_DIR / "stories" / "garden.dialog").read_text(encoding="utf-8")
    text = text.replace("[1.46s](Cup, RH 0.46s)", "[1.46s](Cup, RH 3.46s)", 1)
    text = text.replace("[25.52s](Cup_Vert, RH 0.54s)", "[25.52s](Cupx, RH 0.54s)", 1)
    garden = parse_dialog(text, story_id="garden")
    untimed = {story_id: (dialog, None) for story_id, (dialog, _) in stories.items()} | {"garden": (garden, None)}
    with pytest.raises(StrokeOverlapError) as err:
        build_adaptation_pair(garden, "ABA", catalog)
    assert str(err.value) == (
        "garden_ABA/adapted: A/right: stroke 'ShortProgressive' at 4.430s overlaps the previous stroke ending at 4.920s"
    )
    with pytest.raises(UnknownGestureError) as err:
        run_adaptation_batch(untimed, catalog)
    assert str(err.value) == "turn B2: unknown gesture 'Cupx' at 25.52s"
    assert err.value.story_id == "garden"
    # a structure the story cannot hold is named before the story is prepared
    with pytest.raises(PlanError) as err:
        run_adaptation_batch(untimed | {"garden": (truncate_dialog(garden, 3), None)}, catalog)
    assert str(err.value) == "structure 'ABAB' needs 4 turns, dialog 'garden' has 3"


def _broken(story, kind):
    """The shipped dialog and track of ``story``, broken by ``kind``."""
    text = (DATA_DIR / "stories" / f"{story}.dialog").read_text(encoding="utf-8")
    track = (DATA_DIR / "timings" / f"{story}.tsv").read_text(encoding="utf-8")
    if kind == "track word":
        turn, _, rest = track.split("\t", 2)  # the first word of the track
        track = f"{turn}\tx\t{rest}"
    elif kind in ("unknown gesture", "overlap"):  # each story's first stroke is a 0.46 s RH Cup
        broken = "(Cupx, RH 0.46s)" if kind == "unknown gesture" else "(Cup, RH 3.46s)"
        text = text.replace("(Cup, RH 0.46s)", broken, 1)
    elif kind == "story id":
        text = text.replace(f"story: {story}", f"story: {story[:2]}/{story[2:]}", 1)
    dialog = parse_dialog(text, story_id=story)
    if kind == "structure":
        dialog = truncate_dialog(dialog, len(dialog.turns) - 1)
    return dialog, parse_word_timings(track)


_REFUSED_ID = "cannot name a bundle directory (empty, '.', '..', '/', '\\' or NUL)"


_BATCH_ERRORS = [  # experiment, broken story, how it is broken, and the error its batch raises
    ("personality", "garden", "track word", WordMismatchError,
     "turn A1: word 0 is 'So' in the dialog but 'x' in the timing track"),
    ("personality", "garden", "unknown gesture", UnknownGestureError, "turn A1: unknown gesture 'Cupx' at 1.46s"),
    ("personality", "garden", "overlap", StrokeOverlapError,
     "garden/F-extravert, garden/M-extravert: A/right: stroke 'ShortProgressive' at 4.430s "
     "overlaps the previous stroke ending at 4.920s"),
    ("personality", "garden", "story id", PlanError, f"story id 'ga/rden' {_REFUSED_ID}"),
    ("personality", "storm", "track word", WordMismatchError,
     "turn A1: word 0 is 'Do' in the dialog but 'x' in the timing track"),
    ("personality", "storm", "unknown gesture", UnknownGestureError, "turn A1: unknown gesture 'Cupx' at 1.79s"),
    ("personality", "storm", "overlap", StrokeOverlapError,
     "storm/F-extravert, storm/M-extravert: A/right: stroke 'SweepSide1' at 4.100s "
     "overlaps the previous stroke ending at 5.250s"),
    ("personality", "storm", "story id", PlanError, f"story id 'st/orm' {_REFUSED_ID}"),
    ("adaptation", "garden", "track word", WordMismatchError,
     "turn A1: word 0 is 'So' in the dialog but 'x' in the timing track"),
    ("adaptation", "garden", "unknown gesture", UnknownGestureError, "turn A1: unknown gesture 'Cupx' at 1.46s"),
    ("adaptation", "garden", "overlap", StrokeOverlapError,
     "garden_ABA/adapted: A/right: stroke 'ShortProgressive' at 4.430s overlaps the previous stroke ending at 4.920s"),
    ("adaptation", "garden", "story id", PlanError, f"story id 'ga/rden' {_REFUSED_ID}"),
    ("adaptation", "garden", "structure", PlanError, "structure 'ABAB' needs 4 turns, dialog 'garden' has 3"),
    ("adaptation", "storm", "track word", WordMismatchError,
     "turn A1: word 0 is 'Do' in the dialog but 'x' in the timing track"),
    ("adaptation", "storm", "unknown gesture", UnknownGestureError, "turn A1: unknown gesture 'Cupx' at 1.79s"),
    ("adaptation", "storm", "overlap", StrokeOverlapError,
     "storm_ABABA/adapted: A/right: stroke 'SweepSide1' at 4.100s overlaps the previous stroke ending at 5.250s"),
    ("adaptation", "storm", "story id", PlanError, f"story id 'st/orm' {_REFUSED_ID}"),
    ("adaptation", "storm", "structure", PlanError, "structure 'ABABAB' needs 6 turns, dialog 'storm' has 5"),
]


@pytest.mark.parametrize(
    "experiment, story, kind, error, message", _BATCH_ERRORS, ids=["-".join(case[:3]) for case in _BATCH_ERRORS]
)
def test_a_batch_error_carries_the_key_of_the_story_being_built(
    stories, catalog, experiment, story, kind, error, message
):
    # garden is built first and storm last; every other story is as shipped, and
    # only the adaptation batch has turn structures to check
    batch = run_personality_batch if experiment == "personality" else run_adaptation_batch
    with pytest.raises(error) as err:
        batch(stories | {story: _broken(story, kind)}, catalog)
    assert type(err.value) is error
    assert str(err.value) == message
    assert err.value.story_id == story  # the key, not the dialog's id, when they differ


@pytest.mark.parametrize("as_path", [str, Path], ids=["str", "Path"])
def test_write_bundles_writes_one_tree_for_a_str_and_a_path(tmp_path, stories, catalog, as_path):
    bundles = run_personality_batch(stories, catalog)
    write_bundles(bundles, as_path(tmp_path / "out"), "personality")
    tree = {path.relative_to(tmp_path / "out").as_posix(): path.read_bytes()
            for path in (tmp_path / "out").rglob("*") if path.is_file()}
    digests = json.loads(BUILD_DIGESTS.read_text(encoding="utf-8"))
    assert {name: hashlib.sha256(data).hexdigest() for name, data in tree.items()} == {
        name.removeprefix("personality/"): digest for name, digest in digests.items()
        if name.startswith("personality/")
    }


@pytest.mark.parametrize("blocked,error", [
    ("out", FileExistsError),
    ("out/garden", NotADirectoryError),  # a bundle directory's parent
    ("out/garden/F-extravert", FileExistsError),
])
def test_write_bundles_refuses_a_file_where_a_directory_goes(tmp_path, stories, catalog, blocked, error):
    (tmp_path / blocked).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / blocked).write_bytes(b"not a directory\n")
    with pytest.raises(error):
        write_bundles(run_personality_batch(stories, catalog), str(tmp_path / "out"), "personality")
    assert (tmp_path / blocked).read_bytes() == b"not a directory\n"
