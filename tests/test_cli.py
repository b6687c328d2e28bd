from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gesturec
import gesturec.stimuli

from conftest import DATA_DIR, EMPTY_HOLD, TOUCHING_STROKES
from gesturec.align import parse_word_timings
from gesturec.analysis import anova
from gesturec.catalog import load_catalog
from gesturec.cli import main
from gesturec.emitter import emit_document, read_script
from gesturec.errors import PlanError, WordMismatchError
from gesturec.pipeline import PipelineSettings, compile_dialog
from gesturec.stimuli import run_personality_batch

SCRIPTS = ("A.script.json", "A.script.txt", "B.script.json", "B.script.txt")
# SHA-256 of every script `compile --extraversion A=7,B=1` writes for each
# shipped story and variant, as "<story>/<variant>/<script>"
COMPILE_DIGESTS = Path(__file__).resolve().parent / "compile_digests.json"


@pytest.fixture()
def shipped(tmp_path):
    return {
        "catalog": str(DATA_DIR / "catalog.txt"),
        "stories": str(DATA_DIR / "stories"),
        "timings": str(DATA_DIR / "timings"),
        "out": str(tmp_path / "out"),
    }


def test_compile_writes_scripts(tmp_path, shipped, capsys):
    code = main([
        "compile",
        "--dialog", str(DATA_DIR / "stories" / "protest.dialog"),
        "--timings", str(DATA_DIR / "timings" / "protest.tsv"),
        "--catalog", shipped["catalog"],
        "--out", shipped["out"],
    ])
    assert code == 0
    out_dir = tmp_path / "out"
    for name in SCRIPTS:
        assert (out_dir / name).exists()
    header = json.loads((out_dir / "A.script.json").read_text())["header"]
    assert header["story"] == "protest"


def test_compile_writes_the_recorded_bytes_for_every_story_and_variant(tmp_path, shipped):
    # the full-story adapted turn and the A=7/B=1 profile pair reach the scripts only through compile
    digests = {}
    for dialog in sorted((DATA_DIR / "stories").glob("*.dialog")):
        for variant in ("adapted", "nonadapted"):
            out_dir = tmp_path / dialog.stem / variant
            code = main([
                "compile",
                "--dialog", str(dialog),
                "--timings", str(DATA_DIR / "timings" / f"{dialog.stem}.tsv"),
                "--catalog", shipped["catalog"],
                "--extraversion", "A=7,B=1",
                "--variant", variant,
                "--out", str(out_dir),
            ])
            assert code == 0
            assert sorted(path.name for path in out_dir.iterdir()) == sorted(SCRIPTS)
            for name in SCRIPTS:  # each reads back to its bytes
                data = (out_dir / name).read_bytes()
                assert emit_document(read_script(data), "json" if name.endswith(".json") else "text") == data
                digests[f"{dialog.stem}/{variant}/{name}"] = hashlib.sha256(data).hexdigest()
    assert digests == json.loads(COMPILE_DIGESTS.read_text(encoding="utf-8"))


def test_compile_variant_and_extraversion(tmp_path, shipped):
    code = main([
        "compile",
        "--dialog", str(DATA_DIR / "stories" / "garden.dialog"),
        "--timings", str(DATA_DIR / "timings" / "garden.tsv"),
        "--catalog", shipped["catalog"],
        "--extraversion", "A=7,B=7",
        "--variant", "adapted",
        "--out", shipped["out"],
    ])
    assert code == 0
    data = json.loads((tmp_path / "out" / "B.script.json").read_text())
    speeds = {e["speed"] for e in data["events"] if e["kind"] == "stroke"}
    assert 1.25 in speeds  # the response turn runs at the adapted speed


@pytest.mark.parametrize("scores", ["A=7,A=1", "B=2,a=3,b=4"])
def test_compile_refuses_a_speaker_given_twice(shipped, capsys, scores):
    with pytest.raises(SystemExit) as exc:
        main([
            "compile",
            "--dialog", str(DATA_DIR / "stories" / "garden.dialog"),
            "--catalog", shipped["catalog"],
            "--extraversion", scores,
            "--out", shipped["out"],
        ])
    assert exc.value.code == 2
    speaker = scores.split(",")[-1][0].upper()
    assert f"speaker {speaker} is given more than once in {scores!r}" in capsys.readouterr().err


def test_compile_refuses_a_score_that_is_no_number(shipped, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "compile",
            "--dialog", str(DATA_DIR / "stories" / "garden.dialog"),
            "--catalog", shipped["catalog"],
            "--extraversion", "A=7,B=x",
            "--out", shipped["out"],
        ])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --extraversion: expected A=<score>,B=<score>, got 'A=7,B=x'\n")


@pytest.mark.parametrize("scores", ["A=abc", "A=", "C=1", "7"])
def test_compile_refuses_a_malformed_score(shipped, capsys, scores):
    # a score that is no number, and a piece that names no speaker
    with pytest.raises(SystemExit) as exc:
        main([
            "compile",
            "--dialog", str(DATA_DIR / "stories" / "garden.dialog"),
            "--catalog", shipped["catalog"],
            "--extraversion", scores,
            "--out", shipped["out"],
        ])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --extraversion: expected A=<score>,B=<score>, got {scores!r}\n")


@pytest.mark.parametrize("scores, message", [
    ("A=9", "speaker A: extraversion must be in [1, 7], got 9.0"),
    ("A=7,B=0.5", "speaker B: extraversion must be in [1, 7], got 0.5"),
    ("A=nan", "speaker A: extraversion must be in [1, 7], got nan"),
    ("A=inf", "speaker A: extraversion must be in [1, 7], got inf"),
], ids=["A=9", "B=0.5", "A=nan", "A=inf"])
def test_compile_refuses_a_score_out_of_range(shipped, capsys, scores, message):
    with pytest.raises(SystemExit) as exc:
        main([
            "compile",
            "--dialog", str(DATA_DIR / "stories" / "garden.dialog"),
            "--catalog", shipped["catalog"],
            "--extraversion", scores,
            "--out", shipped["out"],
        ])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument --extraversion: {message}\n")
    assert not Path(shipped["out"]).exists()


def _garden_disagreeing(case):
    """garden's dialog and track, with the track's words or the first
    stroke's written time no longer agreeing with the dialog."""
    dialog = (DATA_DIR / "stories" / "garden.dialog").read_text(encoding="utf-8")
    lines = (DATA_DIR / "timings" / "garden.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    if case == "every track word x":
        lines = ["\t".join((turn, "x", onset)) for turn, _, onset in (line.split("\t") for line in lines)]
    elif case == "turn 1's second word missing":
        assert lines[1] == "1\tthe\t1.33\n"
        del lines[1]
    else:
        assert dialog.count("[1.46s](Cup, RH 0.46s) tomatoes") == 1
        dialog = dialog.replace("[1.46s]", "[2.46s]")
    return dialog, "".join(lines)


@pytest.mark.parametrize("flags", [(), ("--lenient",)])
@pytest.mark.parametrize("case, message", [  # ids name the case, so a reworded message keeps them
    pytest.param(
        "every track word x", "turn A1: word 0 is 'So' in the dialog but 'x' in the timing track",
        id="every track word x",
    ),
    pytest.param(
        "turn 1's second word missing",
        "turn A1: word 1 is 'the' in the dialog but 'tomatoes' in the timing track",
        id="turn 1's second word missing",
    ),
    pytest.param(
        "first stroke timed 1 s later",
        "turn A1: the stroke at 2.46s is written before word 2 'tomatoes', "
        "so it must fall at or after 'the' at 1.33s and before 'tomatoes' at 1.66s",
        id="first stroke timed 1 s later",
    ),
])
def test_compile_refuses_a_track_that_disagrees_with_the_dialog(tmp_path, shipped, capsys, case, message, flags):
    dialog, track = _garden_disagreeing(case)
    (tmp_path / "garden.dialog").write_text(dialog, encoding="utf-8")
    (tmp_path / "garden.tsv").write_text(track, encoding="utf-8")
    code = main([
        "compile",
        "--dialog", str(tmp_path / "garden.dialog"),
        "--timings", str(tmp_path / "garden.tsv"),
        "--catalog", shipped["catalog"],
        "--out", shipped["out"],
        *flags,
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'garden.dialog'}, {tmp_path / 'garden.tsv'}: {message}\n"
    assert not (tmp_path / "out").exists()
    catalog = load_catalog((DATA_DIR / "catalog.txt").read_text(encoding="utf-8"))
    settings = PipelineSettings(strict=not flags)
    with pytest.raises(WordMismatchError):
        compile_dialog(dialog, catalog, timings=parse_word_timings(track), settings=settings)


def test_compile_names_both_files_of_an_onset_off_the_millisecond_grid(tmp_path, shipped, capsys):
    # rounded to the millisecond, the strokes would begin 200.5 and 199.5 ms before their words
    dialog, track = tmp_path / "case.dialog", tmp_path / "case.tsv"
    dialog.write_text("audio: 5.00s\nA1: [1.00s](Cup, RH 0.46s) one [2.00s](Cup, RH 0.46s) two\n", encoding="utf-8")
    track.write_text("1\tone\t1.2345\n1\ttwo\t2.0005\n", encoding="utf-8")
    argv = ["compile", "--dialog", str(dialog), "--timings", str(track), "--catalog", shipped["catalog"]]
    assert main([*argv, "--out", shipped["out"]]) == 1
    assert capsys.readouterr().err == (
        f"error: {dialog}, {track}: turn A1: word 0 'one' has onset 1.2345s, off the millisecond grid\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["personality", "adaptation"])
def test_build_names_both_files_of_a_track_that_disagrees_with_its_dialog(tmp_path, shipped, capsys, experiment):
    stories, timings = tmp_path / "stories", tmp_path / "timings"
    stories.mkdir()
    timings.mkdir()
    for path in (DATA_DIR / "stories").glob("*.dialog"):
        (stories / path.name).write_bytes(path.read_bytes())
        (timings / f"{path.stem}.tsv").write_bytes((DATA_DIR / "timings" / f"{path.stem}.tsv").read_bytes())
    _, track = _garden_disagreeing("every track word x")
    (timings / "garden.tsv").write_text(track, encoding="utf-8")
    code = main([
        "build", "--experiment", experiment,
        "--stories", str(stories),
        "--timings", str(timings),
        "--catalog", shipped["catalog"],
        "--out", shipped["out"],
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {stories / 'garden.dialog'}, {timings / 'garden.tsv'}: "
        "turn A1: word 0 is 'So' in the dialog but 'x' in the timing track\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["personality", "adaptation"])
def test_build_names_the_files_of_the_last_story_when_its_track_disagrees(tmp_path, shipped, capsys, experiment):
    # storm is built last, after every other story has built
    stories, timings = tmp_path / "stories", tmp_path / "timings"
    shutil.copytree(DATA_DIR / "stories", stories)
    shutil.copytree(DATA_DIR / "timings", timings)
    track = (timings / "storm.tsv").read_text(encoding="utf-8")
    (timings / "storm.tsv").write_text(track.replace("1\tDo\t", "1\tx\t", 1), encoding="utf-8")
    code = main([
        "build", "--experiment", experiment,
        "--stories", str(stories),
        "--timings", str(timings),
        "--catalog", shipped["catalog"],
        "--out", shipped["out"],
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {stories / 'storm.dialog'}, {timings / 'storm.tsv'}: "
        "turn A1: word 0 is 'Do' in the dialog but 'x' in the timing track\n"
    )
    assert not (tmp_path / "out").exists()


def test_build_personality(tmp_path, shipped):
    code = main([
        "build", "--experiment", "personality",
        "--stories", shipped["stories"],
        "--timings", shipped["timings"],
        "--catalog", shipped["catalog"],
        "--out", shipped["out"],
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["bundle_count"] == 8


def test_build_adaptation(tmp_path, shipped):
    code = main([
        "build", "--experiment", "adaptation",
        "--stories", shipped["stories"],
        "--timings", shipped["timings"],
        "--catalog", shipped["catalog"],
        "--out", shipped["out"],
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["bundle_count"] == 16


@pytest.mark.parametrize("case", ["no dialog", "no track for pet", "no storm"])
def test_build_names_the_directory_or_file_an_input_is_missing_from(tmp_path, shipped, capsys, case):
    stories, timings = tmp_path / "stories", tmp_path / "timings"
    stories.mkdir()
    timings.mkdir()
    for story in () if case == "no dialog" else ("garden", "pet", "protest"):
        (stories / f"{story}.dialog").write_bytes((DATA_DIR / "stories" / f"{story}.dialog").read_bytes())
        if not (case == "no track for pet" and story == "pet"):
            (timings / f"{story}.tsv").write_bytes((DATA_DIR / "timings" / f"{story}.tsv").read_bytes())
    message = {
        "no dialog": f"no .dialog files in {stories}",
        "no track for pet": f"no timing track for story 'pet' at {timings / 'pet.tsv'}",
        "no storm": f"{stories}: no story 'storm' for task storm_ABABA",
    }[case]
    code = main([
        "build", "--experiment", "adaptation",
        "--stories", str(stories),
        "--timings", str(timings),
        "--catalog", shipped["catalog"],
        "--out", shipped["out"],
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_build_refuses_two_files_naming_one_story(tmp_path, shipped, capsys):
    stories, timings = tmp_path / "stories", tmp_path / "timings"
    stories.mkdir()
    timings.mkdir()
    for name in ("a", "b"):
        (stories / f"{name}.dialog").write_bytes((DATA_DIR / "stories" / "garden.dialog").read_bytes())
        (timings / f"{name}.tsv").write_bytes((DATA_DIR / "timings" / "garden.tsv").read_bytes())
    code = main([
        "build", "--experiment", "personality",
        "--stories", str(stories),
        "--timings", str(timings),
        "--catalog", shipped["catalog"],
        "--out", shipped["out"],
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "story 'garden' is named by both" in err
    assert str(stories / "a.dialog") in err and str(stories / "b.dialog") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("story", ["", "../../x", "absolute", "a\x00b"])
def test_build_refuses_a_story_id_that_is_no_directory_name(tmp_path, shipped, capsys, monkeypatch, story):
    # each bundle's path begins with its story id: "/F-extravert" at the
    # root for an empty id, two levels above --out for "../../x"
    story = str(tmp_path / "elsewhere") if story == "absolute" else story
    written = []
    monkeypatch.setattr(gesturec.stimuli, "write_bundles", lambda *args: written.append(args))  # build imports it
    stories, timings = tmp_path / "stories", tmp_path / "timings"
    stories.mkdir()
    timings.mkdir()
    dialog = (DATA_DIR / "stories" / "garden.dialog").read_text(encoding="utf-8")
    (stories / "garden.dialog").write_text(dialog.replace("story: garden", f"story: {story}"), encoding="utf-8")
    (timings / "garden.tsv").write_bytes((DATA_DIR / "timings" / "garden.tsv").read_bytes())
    out = tmp_path / "deep" / "er" / "out"
    before = sorted(tmp_path.rglob("*"))
    code = main([
        "build", "--experiment", "personality",
        "--stories", str(stories),
        "--timings", str(timings),
        "--catalog", shipped["catalog"],
        "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stories / 'garden.dialog'}: story id {story!r} cannot name a bundle directory")
    assert sorted(tmp_path.rglob("*")) == before
    assert written == []


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        (
            "stories/garden.dialog", b"(Cup, RH 0.46s)", b"(Cup RH 0.46s)",
            "line 4, col 12: malformed gesture variant 'Cup RH 0.46s'",
        ),
        ("timings/garden.tsv", b"1\tthe\t1.33\n", b"1\tthe\n", "line 2: expected 3 tab-separated fields"),
        ("catalog.txt", b"Cup, 25, 0, 20\n", b"Cup, 25, 0\n", "line 3: expected 4 comma-separated fields, got 3"),
        ("run.cfg", b"# no overrides\n", b"scheduler.bogus = 1\n", "line 1: unknown key 'scheduler.bogus'"),
        (
            "run.cfg", b"# no overrides\n", b"extravert.expanse_offset = nan\n",
            "line 1: extravert.expanse_offset: expanse_offset must be finite, got nan",
        ),
    ],
    ids=["dialog", "timings", "catalog", "config", "config-value"],
)
def test_build_names_the_file_it_cannot_load(tmp_path, capsys, name, old, new, message):
    # among several stories and the other inputs, the one error names the file it comes from
    stories, timings = tmp_path / "stories", tmp_path / "timings"
    stories.mkdir()
    timings.mkdir()
    for story in ("garden", "pet"):
        (stories / f"{story}.dialog").write_bytes((DATA_DIR / "stories" / f"{story}.dialog").read_bytes())
        (timings / f"{story}.tsv").write_bytes((DATA_DIR / "timings" / f"{story}.tsv").read_bytes())
    (tmp_path / "catalog.txt").write_bytes((DATA_DIR / "catalog.txt").read_bytes())
    (tmp_path / "run.cfg").write_bytes(b"# no overrides\n")
    broken = tmp_path / name
    data = broken.read_bytes()
    assert old in data
    broken.write_bytes(data.replace(old, new, 1))
    code = main([
        "build", "--experiment", "personality",
        "--stories", str(stories),
        "--timings", str(timings),
        "--catalog", str(tmp_path / "catalog.txt"),
        "--config", str(tmp_path / "run.cfg"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {broken}: {message}\n"
    assert not (tmp_path / "out").exists()


def _run_with_garden_annotation(tmp_path, shipped, command, annotation: bytes):
    """Run ``command`` (``compile``, or the ``build`` experiment) on the shipped
    stories with garden's first annotation written as ``annotation``; returns
    its exit code and the garden dialog file."""
    stories = tmp_path / "stories"
    stories.mkdir()
    for path in (DATA_DIR / "stories").glob("*.dialog"):
        (stories / path.name).write_bytes(path.read_bytes())
    broken = stories / "garden.dialog"
    broken.write_bytes(broken.read_bytes().replace(b"[1.46s](Cup, RH 0.46s)", annotation, 1))
    if command == "compile":
        argv = ["compile", "--dialog", str(broken), "--timings", str(DATA_DIR / "timings" / "garden.tsv")]
    else:
        argv = ["build", "--experiment", command, "--stories", str(stories), "--timings", shipped["timings"]]
    return main([*argv, "--catalog", shipped["catalog"], "--out", shipped["out"]]), broken


@pytest.mark.parametrize("command", ["compile", "personality", "adaptation"])
def test_an_unknown_gesture_names_its_dialog_and_turn(tmp_path, shipped, capsys, command):
    code, broken = _run_with_garden_annotation(tmp_path, shipped, command, b"[1.46s](Cupx, RH 0.46s)")
    assert code == 1
    message = "turn A1: unknown gesture 'Cupx' at 1.46s"
    assert capsys.readouterr().err == f"error: {broken}, {shipped['catalog']}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["compile", "personality", "adaptation"])
def test_an_unknown_gesture_names_its_written_time_not_its_aligned_one(tmp_path, shipped, capsys, command):
    # alignment moves the stroke written at 1.40s to 1.46s, 0.2s before 'tomatoes'
    code, broken = _run_with_garden_annotation(tmp_path, shipped, command, b"[1.40s](Cupx, RH 0.46s)")
    assert code == 1
    message = "turn A1: unknown gesture 'Cupx' at 1.40s"
    assert capsys.readouterr().err == f"error: {broken}, {shipped['catalog']}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_bundles_refuse_a_story_id_that_is_no_directory_name(catalog, stories):
    dialog, track = stories["garden"]
    with pytest.raises(PlanError, match=re.escape("story id '..' cannot name a bundle directory")):
        run_personality_batch({"garden": (dialog._replace(story_id=".."), track)}, catalog)


def test_build_with_config_override(tmp_path, shipped):
    config = tmp_path / "run.cfg"
    config.write_text("adaptation.expanse_delta = 5\n", encoding="utf-8")
    code = main([
        "build", "--experiment", "adaptation",
        "--stories", shipped["stories"],
        "--timings", shipped["timings"],
        "--catalog", shipped["catalog"],
        "--config", str(config),
        "--out", shipped["out"],
    ])
    assert code == 0
    script = (tmp_path / "out" / "garden_ABA" / "adapted" / "A.script.json").read_text()
    events = json.loads(script)["events"]
    assert any(e.get("expanse") == 30.0 for e in events if e["kind"] == "stroke")


def test_misspelled_config_key_exits_1(tmp_path, shipped, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("scheduler.hold_treshold_s = 0.1\n", encoding="utf-8")
    code = main([
        "compile",
        "--dialog", str(DATA_DIR / "stories" / "protest.dialog"),
        "--catalog", shipped["catalog"],
        "--config", str(config),
        "--out", shipped["out"],
    ])
    assert code == 1
    assert "line 1: unknown key 'scheduler.hold_treshold_s'" in capsys.readouterr().err


@pytest.mark.parametrize("setting,flags", [
    ("extravert.expanse_offset = nan", ()),
    ("extravert.height_offset = inf", ()),
    ("adaptation.speed_factor = nan", ("--variant", "adapted")),
])
def test_non_finite_setting_exits_1(tmp_path, shipped, capsys, setting, flags):
    config = tmp_path / "run.cfg"
    config.write_text(setting + "\n", encoding="utf-8")
    code = main([
        "compile",
        "--dialog", str(DATA_DIR / "stories" / "garden.dialog"),
        "--catalog", shipped["catalog"],
        "--config", str(config),
        "--out", shipped["out"],
        *flags,
    ])
    assert code == 1
    field = setting.split(".")[1].split()[0]
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [(), ("--lenient",)])
@pytest.mark.parametrize("command", ["compile", "build"])
def test_a_feature_that_overflows_a_float_names_its_stroke(tmp_path, shipped, capsys, command, flags):
    # each setting passes its own check, but the adapted scale is 4 * 1e308
    config = tmp_path / "run.cfg"
    config.write_text("adaptation.scale_factor = 1e308\nextravert.scale_multiplier = 4\n", encoding="utf-8")
    dialog = DATA_DIR / "stories" / "garden.dialog"
    if command == "compile":
        argv = ["compile", "--dialog", str(dialog), "--timings", str(DATA_DIR / "timings" / "garden.tsv"),
                "--variant", "adapted"]
        message = "B: stroke 'Cup' at 21.230s has scale inf, which overflows a float"
    else:
        argv = ["build", "--experiment", "adaptation", "--stories", shipped["stories"], "--timings", shipped["timings"]]
        message = "garden_ABA/adapted: A: stroke 'Cup_Horizontal' at 15.410s has scale inf, which overflows a float"
    code = main([*argv, "--catalog", shipped["catalog"], "--config", str(config), "--out", shipped["out"], *flags])
    assert code == 1
    assert capsys.readouterr().err == f"error: {dialog}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scores", ["A=7,B=1", "A=4,B=4"])
def test_anchors_whose_difference_overflows_build_and_compile(tmp_path, shipped, scores):
    # each setting passes its own check, and the profiles never form 1e308 - (-1e308)
    config = tmp_path / "run.cfg"
    config.write_text("extravert.expanse_offset = 1e308\nintrovert.expanse_offset = -1e308\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main([
        "compile", "--dialog", str(DATA_DIR / "stories" / "garden.dialog"),
        "--timings", str(DATA_DIR / "timings" / "garden.tsv"), "--catalog", shipped["catalog"],
        "--config", str(config), "--extraversion", scores, "--out", str(out / "garden"),
    ])
    assert code == 0
    for experiment in ("personality", "adaptation"):
        code = main([
            "build", "--experiment", experiment, "--stories", shipped["stories"], "--timings", shipped["timings"],
            "--catalog", shipped["catalog"], "--config", str(config), "--out", str(out / experiment),
        ])
        assert code == 0
    scripts = sorted(out.rglob("*.script.*"))
    assert len(scripts) == 4 + 4 * 8 + 4 * 16
    for path in scripts:
        read_script(path.read_bytes())


@pytest.mark.parametrize("flags", [(), ("--lenient",)])
@pytest.mark.parametrize("setting,argv,message", [
    (
        "introvert.scale_multiplier = 1e-300",
        ["compile", "--extraversion", "A=7,B=1"],
        "B: stroke 'Cup_Horizontal' at 8.600s has scale 1e-300, which rounds to 0.000",
    ),
    (
        "introvert.scale_multiplier = 1e-300",
        ["build", "--experiment", "personality"],
        "garden/F-extravert, garden/M-extravert: B: stroke 'Cup_Horizontal' at 8.600s has scale 1e-300, "
        "which rounds to 0.000",
    ),
    (
        "extravert.scale_multiplier = 1e-300",
        ["compile"],
        "A: stroke 'Cup' at 1.460s has scale 1e-300, which rounds to 0.000",
    ),
    (
        "introvert.speed_multiplier = 0.0001",
        ["compile", "--extraversion", "A=7,B=1"],
        "B: stroke 'Cup_Horizontal' at 8.600s has speed 0.0001, which rounds to 0.000",
    ),
    (  # the stroke would end at infinity, which has no milliseconds
        "introvert.speed_multiplier = 1e-320",
        ["compile", "--extraversion", "A=7,B=1"],
        "B: stroke 'Cup_Horizontal' at 8.600s has speed 1e-320, which rounds to 0.000",
    ),
], ids=[
    "introvert-scale-compile", "introvert-scale-build", "extravert-scale-compile", "introvert-speed-compile",
    "subnormal-speed-compile",
])
def test_a_speed_or_scale_that_rounds_to_zero_names_its_stroke(tmp_path, shipped, capsys, setting, argv, message, flags):
    # the profile is valid, but the script prints features to 3 decimals
    config = tmp_path / "run.cfg"
    config.write_text(setting + "\n", encoding="utf-8")
    dialog = DATA_DIR / "stories" / "garden.dialog"
    if argv[0] == "compile":
        inputs = ["--dialog", str(dialog), "--timings", str(DATA_DIR / "timings" / "garden.tsv")]
    else:
        inputs = ["--stories", shipped["stories"], "--timings", shipped["timings"]]
    code = main([*argv, *inputs, "--catalog", shipped["catalog"], "--config", str(config), "--out", shipped["out"],
                 *flags])
    assert code == 1
    assert capsys.readouterr().err == f"error: {dialog}: {message}\n"
    assert not (tmp_path / "out").exists()


def _compile_garden_at_speed_1000(tmp_path, shipped, *flags):
    config = tmp_path / "run.cfg"
    config.write_text("adaptation.speed_factor = 1000\n", encoding="utf-8")
    return main([
        "compile",
        "--dialog", str(DATA_DIR / "stories" / "garden.dialog"),
        "--catalog", shipped["catalog"],
        "--config", str(config),
        "--variant", "adapted",
        "--out", shipped["out"],
        *flags,
    ])


def test_zero_length_stroke_exits_1(tmp_path, shipped, capsys):
    # at 1000x speed the response turn's 0.46s Cup lasts 0.4 ms, 0 when rounded
    assert _compile_garden_at_speed_1000(tmp_path, shipped) == 1
    dialog = DATA_DIR / "stories" / "garden.dialog"
    assert capsys.readouterr().err == f"error: {dialog}: B: stroke 'Cup' at 21.230s lasts 0 ms (0.46s at speed 1000)\n"
    assert not (tmp_path / "out").exists()


def test_zero_length_stroke_dropped_in_lenient_mode(tmp_path, shipped, capsys):
    assert _compile_garden_at_speed_1000(tmp_path, shipped, "--lenient") == 0
    notes = [line for line in capsys.readouterr().err.splitlines() if "lasts 0 ms" in line]
    assert notes and all(line.startswith("note: dropped: B: stroke ") for line in notes)
    for name in SCRIPTS:
        read_script((tmp_path / "out" / name).read_bytes())


def _build_adaptation_at_speed_1000(tmp_path, shipped, *flags):
    config = tmp_path / "run.cfg"
    config.write_text("adaptation.speed_factor = 1000\n", encoding="utf-8")
    return main([
        "build", "--experiment", "adaptation",
        "--stories", shipped["stories"],
        "--timings", shipped["timings"],
        "--catalog", shipped["catalog"],
        "--config", str(config),
        "--out", shipped["out"],
        *flags,
    ])


def test_strict_build_names_the_dialog_and_bundle_of_a_refused_stroke(tmp_path, shipped, capsys):
    assert _build_adaptation_at_speed_1000(tmp_path, shipped) == 1
    dialog = Path(shipped["stories"]) / "garden.dialog"
    assert capsys.readouterr().err == (
        f"error: {dialog}: garden_ABA/adapted: A: stroke 'CupBeats_Small' at 17.060s lasts 0 ms (0.37s at speed 1000)\n"
    )
    assert not (tmp_path / "out").exists()


def test_lenient_build_prints_what_it_dropped(tmp_path, shipped, capsys):
    assert _build_adaptation_at_speed_1000(tmp_path, shipped, "--lenient") == 0
    # only the adapted response turns run at 1000x; each note names its bundle
    notes = capsys.readouterr().err.splitlines()
    assert len(notes) == 19
    assert all(re.match(r"note: [a-z]+_AB[AB]*/adapted: dropped: ", line) for line in notes)
    assert "note: garden_ABAB/adapted: dropped: B: stroke 'Cup' at 21.230s lasts 0 ms (0.46s at speed 1000)" in notes
    scripts = sorted(Path(shipped["out"]).rglob("*.script.*"))
    assert len(scripts) == 64
    for path in scripts:  # what is left of each timeline reads back to its bytes
        data = path.read_bytes()
        assert emit_document(read_script(data), "json" if path.suffix == ".json" else "text") == data


def _compile_case(tmp_path, shipped, case, *flags):
    source, score = case
    dialog = tmp_path / "case.dialog"
    dialog.write_text(source, encoding="utf-8")
    return main([
        "compile", "--dialog", str(dialog), "--catalog", shipped["catalog"],
        "--extraversion", f"A={score}", "--out", shipped["out"], *flags,
    ])


def test_stroke_rounded_onto_next_start_exits_1(tmp_path, shipped, capsys):
    assert _compile_case(tmp_path, shipped, TOUCHING_STROKES) == 1
    assert "overlaps the previous stroke" in capsys.readouterr().err
    assert _compile_case(tmp_path, shipped, TOUCHING_STROKES, "--lenient") == 0
    for name in SCRIPTS:
        read_script((tmp_path / "out" / name).read_bytes())


def test_hold_rounded_to_nothing_compiles(tmp_path, shipped):
    assert _compile_case(tmp_path, shipped, EMPTY_HOLD) == 0
    for name in SCRIPTS:
        read_script((tmp_path / "out" / name).read_bytes())


def test_written_gap_of_exactly_the_threshold_retracts(tmp_path, shipped):
    # A's Cup stroke ends at 2.470s and the next right-arm stroke starts at
    # 4.970s: a gap of exactly the 2.5s hold threshold gets a retract
    code = main([
        "compile",
        "--dialog", str(DATA_DIR / "stories" / "protest.dialog"),
        "--catalog", shipped["catalog"],
        "--extraversion", "A=1.2186,B=2.5145",
        "--out", shipped["out"],
    ])
    assert code == 0
    lines = (tmp_path / "out" / "A.script.txt").read_text().splitlines()
    assert "2.470 4.670 hold right - - - - - -" not in lines
    assert "2.470 2.970 retract right - - - - - -" in lines
    assert "4.670 4.970 prep right - - - - - -" in lines


def test_analyze_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main([
        "analyze",
        "--in", str(DATA_DIR / "adaptation_judgments.csv"),
        "--report", str(report),
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "garden_ABAB" in output
    data = json.loads(report.read_text())
    assert data["preference"]["totals"]["count_a"] == 109
    assert 2.13 <= data["ttest_vs_50"]["t"] <= 2.17
    assert data["why"]["garden_ABAB"]["adapted_animated"] == pytest.approx(59.1)


TIPI_CSV = (
    "subject_id,stimulus_id,kind,payload\n"
    "s1,storm/F-extravert/A,tipi,7|2|5|3|6|1|4|4|5|2\n"
    "s2,storm/F-extravert/A,tipi,6|3|4|3|5|2|5|3|4|3\n"
    "s1,storm/F-extravert/B,tipi,2|4|4|5|3|6|4|4|3|5\n"
)


# TIPI_CSV with some items written with leading zeros
ZERO_PADDED_TIPI_CSV = (
    "subject_id,stimulus_id,kind,payload\n"
    "s1,storm/F-extravert/A,tipi,7|2|5|3|6|1|4|4|5|2\n"
    "s2,storm/F-extravert/A,tipi,06|03|004|3|5|2|5|3|4|3\n"
    "s1,storm/F-extravert/B,tipi,02|4|04|5|3|006|4|4|3|5\n"
)


def test_analyze_reports_tipi_means(tmp_path, capsys):
    # items written with leading zeros score as the same numbers
    for name, csv in (("plain", TIPI_CSV), ("zero-padded", ZERO_PADDED_TIPI_CSV)):
        infile, report = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        infile.write_text(csv, encoding="utf-8")
        assert main(["analyze", "--in", str(infile), "--report", str(report)]) == 0
        # trait = (direct item + 8 - reverse item) / 2, averaged over the stimulus's raters
        assert json.loads(report.read_text())["tipi_means"] == {
            "storm/F-extravert/A": {
                "extraversion": 6.5, "agreeableness": 5.0, "conscientiousness": 4.5,
                "emotional_stability": 4.75, "openness": 5.5,
            },
            "storm/F-extravert/B": {
                "extraversion": 2.0, "agreeableness": 4.0, "conscientiousness": 4.0,
                "emotional_stability": 3.0, "openness": 3.0,
            },
        }
        assert "storm/F-extravert/A: extraversion=6.5" in capsys.readouterr().out


def test_analyze_bad_tipi_row_exits_1(tmp_path, capsys):
    # too few items, then an item out of range: one error line naming the CSV and the row
    for payload in ("1|2", "1|1|1|1|1|1|1|1|1|08"):
        infile = tmp_path / "tipi.csv"
        infile.write_text(TIPI_CSV + f"s2,storm/F-extravert/B,tipi,{payload}\n", encoding="utf-8")
        assert main(["analyze", "--in", str(infile), "--report", str(tmp_path / "report.json")]) == 1
        assert capsys.readouterr().err == f"error: {infile}: row 5: bad tipi payload {payload!r}\n"
        assert not (tmp_path / "report.json").exists()


def test_missing_file_is_clean_error(tmp_path, capsys):
    code = main([
        "compile",
        "--dialog", str(tmp_path / "nope.dialog"),
        "--catalog", str(DATA_DIR / "catalog.txt"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["dialog", "timings", "catalog", "config", "judgments"])
def test_input_that_is_not_utf8_exits_1(tmp_path, shipped, capsys, kind):
    sources = {
        "dialog": (DATA_DIR / "stories" / "garden.dialog").read_bytes(),
        "timings": (DATA_DIR / "timings" / "garden.tsv").read_bytes(),
        "catalog": (DATA_DIR / "catalog.txt").read_bytes(),
        "config": b"# no overrides\n",
        "judgments": (DATA_DIR / "adaptation_judgments.csv").read_bytes(),
    }
    paths = {name: tmp_path / f"input.{name}" for name in sources}
    for name, data in sources.items():
        paths[name].write_bytes(data[:10] + b"\xff" + data[10:] if name == kind else data)
    if kind == "judgments":
        argv = ["analyze", "--in", str(paths[kind]), "--report", str(tmp_path / "out" / "report.json")]
    else:
        argv = ["compile", *(f"--{name}={paths[name]}" for name in ("dialog", "timings", "catalog", "config"))]
        argv += ["--out", shipped["out"]]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {paths[kind]}: not UTF-8: invalid start byte at byte 10\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, data, message", [
    ("dialog", "A1: [1.00s](Cup RH 0.46s) one.\n", "line 1, col 5: malformed gesture variant 'Cup RH 0.46s'"),
    ("timings", "1\tone.\tx\n", "line 1: onset 'x' is not a finite number >= 0 in decimal digits"),
    ("catalog", "Cup, 25, 0\n", "line 1: expected 4 comma-separated fields, got 3"),
    ("config", "scheduler.bogus = 1\n", "line 1: unknown key 'scheduler.bogus'"),
    (
        "judgments", "subject_id,stimulus_id,kind,payload\ns1,garden_ABA,preference,maybe\n",
        "row 2: preference must be A or NA, got 'maybe'",
    ),
], ids=["dialog", "timings", "catalog", "config", "judgments"])
def test_malformed_input_names_its_file(tmp_path, shipped, capsys, kind, data, message):
    sources = {
        "dialog": (DATA_DIR / "stories" / "garden.dialog").read_text(encoding="utf-8"),
        "timings": (DATA_DIR / "timings" / "garden.tsv").read_text(encoding="utf-8"),
        "catalog": (DATA_DIR / "catalog.txt").read_text(encoding="utf-8"),
        "config": "# no overrides\n",
        "judgments": (DATA_DIR / "adaptation_judgments.csv").read_text(encoding="utf-8"),
    }
    paths = {name: tmp_path / f"input.{name}" for name in sources}
    for name, text in sources.items():
        paths[name].write_text(data if name == kind else text, encoding="utf-8")
    if kind == "judgments":
        argv = ["analyze", "--in", str(paths[kind]), "--report", str(tmp_path / "out" / "report.json")]
    else:
        argv = ["compile", *(f"--{name}={paths[name]}" for name in ("dialog", "timings", "catalog", "config"))]
        argv += ["--out", shipped["out"]]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {paths[kind]}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_only_analyze_loads_numpy():
    """``compile`` and ``build`` start without numpy: importing the CLI leaves
    it unloaded, and ``analyze`` imports the analysis module itself."""
    src = str(Path(gesturec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, gesturec.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


def test_analyze_loads_no_compiler_module(tmp_path):
    """``analyze`` imports only what it runs: no pipeline stage, and not the
    batch module, whose file writers it shares through ``gesturec.files``."""
    code = (
        "import sys\n"
        "from gesturec import cli\n"
        "status = cli.main(['analyze', '--in', sys.argv[1], '--report', sys.argv[2]])\n"
        "names = ('dsl', 'emitter', 'scheduler', 'pipeline', 'stimuli')\n"
        "print(status, [name for name in names if f'gesturec.{name}' in sys.modules])\n"
    )
    src = str(Path(gesturec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable, "-c", code, str(DATA_DIR / "adaptation_judgments.csv"), str(tmp_path / "report.json")]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "0 []"


def test_analyze_leaves_numpy_unloaded_until_the_first_anova(tmp_path):
    """``analyze`` scores preference, why and TIPI rows without numpy, and
    ``analysis.anova`` leaves it unloaded too while it gives the F values of
    a call in this process."""
    tipi = tmp_path / "tipi.csv"
    tipi.write_text(ZERO_PADDED_TIPI_CSV, encoding="utf-8")
    responses = [6.5, 6.0, 5.5, 5.0, 6.0, 4.5, 2.0, 2.5, 3.0, 3.5, 1.5, 2.5]
    cells = [(p, g) for p in ("extravert", "introvert") for g in ("F", "M") for _ in range(3)]
    observations = [({"personality": p, "gender": g}, y) for (p, g), y in zip(cells, responses)]
    code = (
        "import json, sys\n"
        "from gesturec import analysis, cli\n"
        "for path in sys.argv[1:3]:\n"
        "    if cli.main(['analyze', '--in', path, '--report', sys.argv[3]]) != 0:\n"
        "        sys.exit(f'analyze {path} failed')\n"
        "before = 'numpy' in sys.modules\n"
        "results = analysis.anova(json.loads(sys.argv[4]), ['personality', 'gender'], [('personality', 'gender')])\n"
        "print(json.dumps([before, 'numpy' in sys.modules, [r.value for r in results]]))\n"
    )
    src = str(Path(gesturec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    csvs = [str(DATA_DIR / "adaptation_judgments.csv"), str(tipi)]
    argv = [sys.executable, "-c", code, *csvs, str(tmp_path / "report.json"), json.dumps(observations)]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    before, after, f_values = json.loads(result.stdout.splitlines()[-1])
    assert (before, after) == (False, False)
    expected = anova(observations, ["personality", "gender"], [("personality", "gender")])
    assert f_values == [r.value for r in expected]


def test_compile_names_a_dialog_with_no_turn_to_adapt(tmp_path, shipped, capsys):
    dialog = tmp_path / "empty.dialog"
    dialog.write_text("story: garden\naudio: 28.05s\n", encoding="utf-8")
    argv = ["compile", "--dialog", str(dialog), "--catalog", shipped["catalog"], "--out", shipped["out"]]
    assert main([*argv, "--variant", "adapted"]) == 1
    assert capsys.readouterr().err == f"error: {dialog}: dialog has no turns\n"
    assert not (tmp_path / "out").exists()


def test_build_names_a_dialog_too_short_for_its_task(tmp_path, shipped, capsys):
    stories = tmp_path / "stories"
    stories.mkdir()
    for path in (DATA_DIR / "stories").glob("*.dialog"):
        (stories / path.name).write_bytes(path.read_bytes())
    broken = stories / "garden.dialog"
    lines = broken.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[3].startswith("A1: ") and lines[4].startswith("B1: ")
    broken.write_text("".join(lines[:4]), encoding="utf-8")  # the headers and turn A1
    code = main([
        "build", "--experiment", "adaptation", "--stories", str(stories), "--timings", shipped["timings"],
        "--catalog", shipped["catalog"], "--out", shipped["out"],
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {broken}: structure 'ABA' needs 3 turns, dialog 'garden' has 1\n"
    assert not (tmp_path / "out").exists()
