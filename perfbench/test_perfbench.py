"""Tests of the benchmark's own generators and output checks.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

G = run.import_program()


@pytest.fixture(scope="module")
def stories():
    return inputs.load_stories(run.DATA)


@pytest.fixture(scope="module")
def compiler():
    return run.CompileLong(G, seed=3)


@pytest.mark.parametrize("story_id", inputs.STORY_IDS)
def test_one_tile_reproduces_compiled_bytes(stories, compiler, story_id):
    story = stories[story_id]
    tiled = compiler.compile_text(*inputs.tile_dialog([story], story_id))
    assert tiled == compiler.compile_text(story.dialog, story.timings)


def test_tiles_renumber_turns_and_shift_times(stories):
    first, second = stories["garden"], stories["storm"]
    text, tsv = inputs.tile_dialog([first, second], "tiled")
    dialog = G.dsl.parse_dialog(text)
    track = G.align.parse_word_timings(tsv)
    assert len(dialog.turns) == first.turns + second.turns
    assert dialog.audio_duration == pytest.approx(float(first.audio + second.audio))
    assert len(track.entries) == first.words + second.words
    garden = G.dsl.parse_dialog(first.dialog)
    storm = G.dsl.parse_dialog(second.dialog)
    shifted = dialog.turns[first.turns].annotations[0].stroke_begin
    assert shifted == pytest.approx(storm.turns[0].annotations[0].stroke_begin + float(first.audio))
    assert dialog.turns[0].annotations == garden.turns[0].annotations
    assert track.entries[first.words].turn_index == first.turns + 1


def test_long_dialog_is_seeded_and_balanced(stories):
    one = inputs.make_long_dialog(stories, 7, 10_000, G.dsl, G.align)
    again = inputs.make_long_dialog(stories, 7, 10_000, G.dsl, G.align)
    other = inputs.make_long_dialog(stories, 8, 10_000, G.dsl, G.align)
    assert (one.dialog, one.timings) == (again.dialog, again.timings)
    assert one.stories != other.stories
    assert 10_000 <= one.words < 10_000 + max(s.words for s in stories.values())
    counts = [one.stories.count(s) for s in inputs.STORY_IDS]
    assert max(counts) - min(counts) <= 1


def _parse_csv(text: str):
    pref, why, tipi = {}, {}, []
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        subject, stimulus, kind, payload = row
        if kind == "preference":
            pref.setdefault(stimulus, [0, 0])[0 if payload == "A" else 1] += 1
        elif kind == "why":
            n, cats = why.get(stimulus, (0, {c: 0 for c in inputs.WHY_CATEGORIES}))
            for label in filter(None, payload.split("|")):
                cats[label] += 1
            why[stimulus] = (n + 1, cats)
        else:
            items = [int(x) for x in payload.split("|")]
            tipi.append((stimulus, (items[0] + 8 - items[5]) / 2))
    return pref, why, tipi


def test_study_tallies_match_the_csv():
    study = inputs.make_study(random.Random(5), 176, G.stimuli.ADAPTATION_TASKS)
    pref, why, tipi = _parse_csv(study.csv)
    assert pref == study.preference
    assert why == study.why
    assert [y for _, y in tipi] == [y for _, y in study.observations]
    assert study.records == 4 * 176
    cells = {}
    for factors, _ in study.observations:
        key = tuple(factors[f] for f in inputs.ANOVA_FACTORS)
        cells[key] = cells.get(key, 0) + 1
    assert len(cells) == 16 and set(cells.values()) == {176 // 8}


def test_study_sizes_span_one_to_ten_times_the_shipped_study():
    sizes = inputs.STUDY_SUBJECTS
    assert inputs.SHIPPED_SUBJECTS <= min(sizes) and max(sizes) <= 10 * inputs.SHIPPED_SUBJECTS
    assert all(n % 8 == 0 for n in sizes)


def test_anova_oracle_agrees_with_the_program():
    w = run.Analyze(G, seed=2)
    for i in (0, w.inputs - 1):
        w.check(i, w.op(i, None))


def test_analysis_check_fails_on_a_wrong_tally():
    w = run.Analyze(G, seed=2)
    result = w.op(0, None)
    study = w.studies[0]
    stimulus = next(iter(study.preference))
    study.preference[stimulus][0] += 1
    with pytest.raises(checks.CheckFailed, match="preference counts"):
        w.check(0, result)


def test_build_check_passes_and_fails_on_stale_or_corrupted_files():
    w = run.BuildBoth(G, seed=0)
    out = w.op(0, w.prepare(0))
    w.check(0, out)
    with pytest.raises(checks.CheckFailed, match="not rewritten"):
        w.check(1, out)
    out = w.op(2, w.prepare(2))
    target = out / "adaptation" / "pet_ABABA" / "adapted" / "B.script.txt"
    target.write_bytes(target.read_bytes().replace(b" stroke ", b" stroke  ", 1))
    with pytest.raises(checks.CheckFailed, match="B.script.txt: bytes differ"):
        w.check(2, out)


def test_round_trip_check_reports_a_reader_rejection():
    bad = b"# gesture-script v1\n# story: s\n# speaker: A\n# audio: 2.000\n# config: x\n" \
          b"1.470 1.470 prep right - - - - - -\n"
    with pytest.raises(checks.CheckFailed, match="reader rejects"):
        checks.check_round_trip(bad, "text", G.emitter)


def test_compile_checks_pass_and_catch_a_moved_stroke_or_misordered_phases(compiler):
    scripts = compiler.op(0, None)
    compiler.check(0, scripts)
    doc = json.loads(scripts[("A", "json")])
    events = doc["events"]
    stroke = next(i for i, e in enumerate(events) if e["kind"] == "stroke")
    moved = [dict(e) for e in events]
    moved[stroke]["start"] = round(moved[stroke]["start"] + 0.001, 3)
    with pytest.raises(checks.CheckFailed, match="before a word onset"):
        checks.check_stroke_leads(moved, compiler.long.onsets_ms, "A")
    arm = events[stroke]["arm"]
    swapped = [e for e in events if e["arm"] == arm]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    with pytest.raises(checks.CheckFailed, match="followed by|first phase|ends"):
        checks.check_phase_order(swapped, doc["header"]["audio"], "A")


def test_compile_check_fails_on_a_corrupted_script(compiler):
    scripts = dict(compiler.op(0, None))
    scripts[("B", "json")] = scripts[("B", "json")].replace(b'"kind": "hold"', b'"kind": "rest"', 1)
    with pytest.raises(checks.CheckFailed, match="reader rejects"):
        checks.check_compile(scripts, compiler.long.onsets_ms, G.emitter)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(x) for x in range(100)]) == (89.0, 90.0)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_every_metric_of_benchmark_json(trace, section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", "analyze", "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
