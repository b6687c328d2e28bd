"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see
them all).  Tolerances are pinned here, not configurable."""

from __future__ import annotations

import filecmp
import hashlib
import json
import random
import time
from pathlib import Path

import pytest

from conftest import DATA_DIR, make_aligned_pair, make_random_dialog, make_stroke_dialog
from test_analysis import FULL_MODEL, _balanced_dataset, balanced_three_way_oracle
from gesturec.align import align_strokes
from gesturec.analysis import anova, one_sample_ttest, preference_table, why_category_table
from gesturec.dsl import format_dialog, parse_dialog
from gesturec.emitter import (
    document_from_timeline, emit_document, emit_script, read_script, to_ms, validate_timeline,
)
from gesturec.pipeline import PipelineSettings, compile_dialog
from gesturec.scheduler import schedule
from gesturec.stimuli import (
    ADAPTATION_TASKS,
    run_adaptation_batch,
    run_personality_batch,
    write_bundles,
)

PREP_S = PipelineSettings().scheduler.prep_duration_s
HOLD_THRESHOLD_MS = to_ms(PipelineSettings().scheduler.hold_threshold_s)
BUILD_DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "build_digests.json"


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


def _load_judgments():
    from gesturec.analysis import read_judgments

    return read_judgments((DATA_DIR / "adaptation_judgments.csv").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def adaptation_bundles(stories, catalog):
    return run_adaptation_batch(stories, catalog)


def _strokes_of(script_text: str) -> list[str]:
    return [
        line for line in script_text.splitlines()
        if not line.startswith("#") and line.split()[2] == "stroke"
    ]


def test_criterion_1_fixture_compile(catalog, protest_text, protest_track):
    started = time.perf_counter()
    result = compile_dialog(protest_text, catalog, timings=protest_track)
    diagnostics = list(result.schedule.diagnostics)
    for speaker in ("A", "B"):
        diagnostics += validate_timeline(result.schedule.for_speaker(speaker))
    elapsed = time.perf_counter() - started

    first = next(e for e in document_from_timeline(result.schedule.for_speaker("A")) if e.kind == "stroke")
    ok = (
        not diagnostics
        and (first.start, first.gesture, first.hand, first.end - first.start)
        == (1900, "Cup", "RH", 460)
        and elapsed < 1.0
    )
    _report(1, ok, (
        f"fixture compiles with {len(diagnostics)} diagnostics, first A stroke "
        f"({first.start} ms, {first.gesture}, {first.hand}, {first.end - first.start} ms), "
        f"{elapsed * 1000:.0f}ms"
    ))


def test_criterion_2_alignment_rule(stories):
    lead_ms = 200
    checked = 0
    violations = 0

    def check(dialog, track):
        nonlocal checked, violations
        aligned = align_strokes(dialog, track)
        for turn in aligned.turns:
            onsets = track.turn_onsets(turn.index)
            for ann in turn.annotations:
                following = next(o for o in onsets if o > ann.stroke_begin)
                checked += 1
                delta = round(following * 1000) - round(ann.stroke_begin * 1000)
                if delta != lead_ms and ann.stroke_begin != 0.0:
                    violations += 1

    for dialog, track in stories.values():
        check(dialog, track)
    assert any(t.annotations for d, _ in stories.values() for t in d.turns)
    for seed in range(1000):
        dialog, track, _ = make_aligned_pair(random.Random(seed))
        check(dialog, track)
    _report(2, violations == 0, (
        f"{checked} aligned strokes across shipped fixtures and 1000 generated "
        f"dialog/track pairs, {violations} lead violations"
    ))


def test_criterion_3_hold_retract_dichotomy():
    pairs = 0
    violations = 0
    for seed in range(1000):
        dialog = make_stroke_dialog(random.Random(seed))
        timeline = schedule(dialog).for_speaker("A")
        for arm in ("left", "right"):
            phases = timeline.tracks[arm]
            stroke_idx = [i for i, p in enumerate(phases) if p.kind == "stroke"]
            for a, b in zip(stroke_idx, stroke_idx[1:]):
                gap = phases[b].start - phases[a].end
                between = [p.kind for p in phases[a + 1:b]]
                pairs += 1
                if gap < HOLD_THRESHOLD_MS:
                    if between != ["hold", "prep"] and between != ["prep"]:
                        violations += 1
                elif between != ["retract", "prep"]:
                    violations += 1
    _report(3, violations == 0, (
        f"1000 generated timelines, {pairs} adjacent same-arm stroke pairs, "
        f"{violations} bridge violations"
    ))


def test_criterion_4_adaptation_deltas(stories, adaptation_bundles):
    checked = 0
    mismatches = []
    for bundle in adaptation_bundles:
        if bundle.metadata["variant"] != "adapted":
            continue
        story_id = bundle.metadata["story"]
        structure = bundle.metadata["turn_structure"]
        responder = bundle.metadata["responder"]
        dialog, _ = stories[story_id]
        response_turn = dialog.turns[len(structure) - 1]
        expected_lines = []
        for ann in response_turn.annotations:
            start = round(ann.stroke_begin, 3)
            end = round(ann.stroke_begin + ann.stroke_duration / 1.25, 3)
            arms = {"LH": ["left"], "RH": ["right"], "2H": ["left", "right"]}[ann.hand]
            for arm in arms:
                expected_lines.append(
                    f"{start:.3f} {end:.3f} stroke {arm} {ann.gesture_name}:{ann.hand} "
                    f"{25 + 18:.3f} {0 + 10:.3f} {20 + 10:.3f} {1.25:.3f} {1.5:.3f}"
                )
        script = bundle.scripts[f"{responder}.script.txt"].decode()
        response_start = round(min(a.stroke_begin for a in response_turn.annotations), 3)
        got_lines = [
            line for line in _strokes_of(script) if float(line.split()[0]) >= response_start
        ]
        checked += len(expected_lines)
        if sorted(got_lines) != sorted(expected_lines):
            mismatches.append(bundle.name)
    _report(4, checked > 0 and not mismatches, (
        f"{checked} adapted response strokes across 8 bundles carry base+18/+10/+10 cm, "
        f"speed x1.25, scale x1.5 bit-exactly at 3 decimals"
        + (f"; mismatches in {mismatches}" if mismatches else "")
    ))


def test_criterion_5_context_invariance(stories, adaptation_bundles):
    tasks = {}
    for bundle in adaptation_bundles:
        tasks.setdefault(bundle.metadata["task"], {})[bundle.metadata["variant"]] = bundle
    compared = 0
    broken = []
    for task, pair in sorted(tasks.items()):
        adapted, nonadapted = pair["adapted"], pair["nonadapted"]
        story_id = adapted.metadata["story"]
        structure = adapted.metadata["turn_structure"]
        dialog, _ = stories[story_id]
        response_turn = dialog.turns[len(structure) - 1]
        cutoff = min(a.stroke_begin for a in response_turn.annotations) - PREP_S
        for speaker in ("A", "B"):
            name = f"{speaker}.script.txt"

            def context(blob: bytes) -> bytes:
                lines = [
                    line for line in blob.decode().splitlines()
                    if not line.startswith("#") and float(line.split()[0]) < cutoff
                ]
                return "\n".join(lines).encode()

            compared += 1
            if context(adapted.scripts[name]) != context(nonadapted.scripts[name]):
                broken.append(f"{task}/{speaker}")
    _report(5, compared == 16 and not broken, (
        f"context event lists byte-identical for {compared} speaker scripts over 8 tasks"
        + (f"; broken: {broken}" if broken else "")
    ))


def test_criterion_6_stimulus_counts(tmp_path, stories, catalog, adaptation_bundles):
    personality = run_personality_batch(stories, catalog)
    manifest_p = write_bundles(personality, tmp_path / "personality", "personality")
    manifest_a = write_bundles(adaptation_bundles, tmp_path / "adaptation", "adaptation")
    ok = (
        len(stories) == 4
        and manifest_p["bundle_count"] == 8
        and manifest_a["bundle_count"] == 16
    )
    _report(6, ok, (
        f"4 stories -> {manifest_p['bundle_count']} personality bundles, "
        f"{manifest_a['bundle_count']} adaptation bundles"
    ))


TABLE_COUNTS = {
    "garden_ABA": (11, 9),
    "garden_ABAB": (20, 2),
    "pet_ABABA": (10, 13),
    "pet_ABABAB": (19, 5),
    "protest_ABAB": (8, 11),
    "protest_ABABA": (11, 11),
    "storm_ABABA": (16, 4),
    "storm_ABABAB": (14, 5),
}

WHY_TARGETS = {
    # version: (adapted good, nonadapted good, adapted animated, nonadapted realistic), percent
    "garden_ABA": (30, 30, 20, 30),
    "garden_ABAB": (41, 9, 59, 0),
    "pet_ABABA": (22, 43, 13, 9),
    "pet_ABABAB": (54, 13, 33, 0),
    "protest_ABAB": (21, 32, 26, 0),
    "protest_ABABA": (27, 32, 23, 9),
    "storm_ABABA": (20, 15, 45, 0),
    "storm_ABABAB": (32, 21, 47, 0),
    "total": (31, 24, 33, 6),
}

WHY_COLUMNS = (
    "adapted_good_gestures",
    "nonadapted_good_gestures",
    "adapted_animated",
    "nonadapted_realistic",
)

# subjects per version whose why set holds each of WHY_COLUMNS, in the shipped CSV
WHY_COUNTS = {
    "garden_ABA": (6, 6, 4, 6),
    "garden_ABAB": (9, 2, 13, 0),
    "pet_ABABA": (5, 10, 3, 2),
    "pet_ABABAB": (13, 3, 8, 0),
    "protest_ABAB": (4, 6, 5, 0),
    "protest_ABABA": (6, 7, 5, 2),
    "storm_ABABA": (4, 3, 9, 0),
    "storm_ABABAB": (6, 4, 9, 0),
}


def test_criterion_7_statistics_reproduction():
    records = _load_judgments()
    table = preference_table([r for r in records if r.kind == "preference"])
    counts_ok = all(
        (row.count_a, row.count_na) == TABLE_COUNTS[row.version] for row in table.rows
    ) and len(table.rows) == 8
    totals_ok = (
        (table.totals.count_a, table.totals.count_na) == (109, 60)
        and round(table.totals.pct_a) == 64
        and round(table.totals.pct_na) == 36
    )
    ttest = one_sample_ttest([row.pct_a for row in table.rows], 50.0)
    ttest_ok = ttest.df == (7,) and 2.13 <= ttest.value <= 2.17 and 0.06 <= ttest.p_value <= 0.08

    why = why_category_table([r for r in records if r.kind == "why"])
    why_rows = {row.version: row for row in why.rows}
    why_rows["total"] = why.totals
    why_ok = all(
        abs(why_rows[version].percentages[col] - target) <= 1.0
        for version, targets in WHY_TARGETS.items()
        for col, target in zip(WHY_COLUMNS, targets)
    )
    why_counts = {
        row.version: tuple(round(row.percentages[col] * row.n_subjects / 100) for col in WHY_COLUMNS)
        for row in why.rows
    }
    _report(7, counts_ok and totals_ok and ttest_ok and why_ok and why_counts == WHY_COUNTS, (
        f"preference counts exact, total split {round(table.totals.pct_a)}%/"
        f"{round(table.totals.pct_na)}%, t({ttest.df[0]:.0f}) = {ttest.value:.3f}, "
        f"p = {ttest.p_value:.3f}, why-category counts exact, percentages within 1%"
        + ("" if why_counts == WHY_COUNTS else f"; why-category counts {why_counts}")
    ))


def test_criterion_8_anova_oracle_equivalence():
    rng = random.Random(314159)
    worst = 0.0
    for _ in range(100):
        observations, factors, _ = _balanced_dataset(rng, shape=(2, 2, 4), per_cell=rng.randint(3, 8))
        results = {tuple(r.name.split(":")): r.value for r in anova(observations, factors, FULL_MODEL)}
        oracle = balanced_three_way_oracle(observations, factors)
        for term, expected in oracle.items():
            rel = abs(results[term] - expected) / abs(expected)
            worst = max(worst, rel)
    _report(8, worst <= 1e-9, (
        f"100 balanced 2x2x4 datasets, worst relative F deviation from the "
        f"mean-decomposition oracle {worst:.2e} (<= 1e-9)"
    ))


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_criterion_9_determinism(tmp_path, stories, catalog):
    for run in ("one", "two"):
        base = tmp_path / run
        write_bundles(run_personality_batch(stories, catalog), base / "personality", "personality")
        write_bundles(run_adaptation_batch(stories, catalog), base / "adaptation", "adaptation")
    first = _tree_bytes(tmp_path / "one")
    second = _tree_bytes(tmp_path / "two")
    identical = first == second
    comparison = filecmp.dircmp(tmp_path / "one", tmp_path / "two")
    # the shipped bytes, as recorded for the benchmark's build check
    recorded = json.loads(BUILD_DIGESTS.read_text(encoding="utf-8"))
    digests = {Path(name).as_posix(): hashlib.sha256(data).hexdigest() for name, data in first.items()}
    changed = sorted(name for name in recorded.keys() | digests.keys() if recorded.get(name) != digests.get(name))
    # the reader accepts every script written, and re-emitting it gives its bytes
    formats = {".json": "json", ".txt": "text"}
    scripts = {name: data for name, data in first.items() if ".script." in name}
    unread = sorted(
        name for name, data in scripts.items() if emit_document(read_script(data), formats[Path(name).suffix]) != data
    )
    _report(9, identical and not changed and bool(scripts) and not unread, (
        f"two full batch runs produced byte-identical trees "
        f"({len(first)} files compared), checked against {len(recorded)} recorded shipped digests; "
        f"{len(scripts)} scripts read back to their bytes"
        + ("" if identical else f"; differing: {comparison.diff_files}")
        + (f"; not as recorded: {changed}" if changed else "")
        + (f"; changed by a read and re-emit: {unread}" if unread else "")
    ))


def test_criterion_10_round_trips():
    failures = 0
    cases = 0
    for seed in range(5000):
        dialog = make_random_dialog(random.Random(seed), max_turns=2)
        cases += 1
        if parse_dialog(format_dialog(dialog)) != dialog:
            failures += 1
    for seed in range(5000):
        rng = random.Random(10_000 + seed)
        timeline = schedule(make_stroke_dialog(rng, n_strokes=rng.randint(1, 4))).for_speaker("A")
        fmt = "json" if seed % 2 == 0 else "text"
        blob = emit_script(timeline, fmt)
        doc = read_script(blob)
        cases += 1
        if doc != timeline or emit_document(doc, fmt) != blob:
            failures += 1
    _report(10, cases == 10_000 and failures == 0, (
        f"{cases} round-trip cases (dialog parse/format and script read/emit), "
        f"{failures} failures"
    ))
