from __future__ import annotations

import math
import random
import re

import pytest

from conftest import EMPTY_HOLD, TOUCHING_STROKES, make_stroke_dialog
from gesturec.align import align_strokes
from gesturec.dsl import parse_dialog
from gesturec.emitter import ScriptEvent, Timeline, emit_script, read_script, to_ms, validate_timeline
from gesturec.errors import EmitError, ScheduleError, StrokeOverlapError, StrokeOverrunError
from gesturec.personality import EXTRAVERT_ANCHOR, apply_personality
from gesturec.pipeline import PipelineSettings, compile_dialog
from gesturec.scheduler import SchedulerConfig, schedule


def _single(catalog, source):
    dialog = parse_dialog(source)
    for speaker in ("A", "B"):
        dialog = apply_personality(dialog, speaker, EXTRAVERT_ANCHOR, catalog)
    return dialog


def _kinds(timeline, arm):
    return [p.kind for p in timeline.tracks[arm]]


def _strokes(track):
    return [p for p in track if p.kind == "stroke"]


def test_fixture_hold_between_close_strokes(protest_dialog, protest_track, catalog):
    dialog = align_strokes(protest_dialog, protest_track)
    for speaker in ("A", "B"):
        dialog = apply_personality(dialog, speaker, EXTRAVERT_ANCHOR, catalog)
    timeline = schedule(dialog).for_speaker("A")
    phases = timeline.tracks["right"]
    # Cup stroke [1.90, 2.36], PointingAbstract stroke at 3.17: gap 0.81 < 2.5
    assert phases[1].kind == "stroke" and phases[1].gesture == "Cup"
    hold, prep = phases[2], phases[3]
    assert (hold.kind, hold.start, hold.end) == ("hold", 2360, 2870)
    assert (prep.kind, prep.start, prep.end) == ("prep", 2870, 3170)


def test_far_strokes_get_retract_then_prep(catalog):
    source = "audio: 12.00s\nA1: [1.00s](Cup, RH 0.46s) one two three four [6.00s](Reject, RH 0.44s) five.\n"
    timeline = schedule(_single(catalog, source)).for_speaker("A")
    assert _kinds(timeline, "right") == ["prep", "stroke", "retract", "prep", "stroke", "retract"]
    retract = timeline.tracks["right"][2]
    assert (retract.start, retract.end) == (1460, 1960)
    prep = timeline.tracks["right"][3]
    assert (prep.start, prep.end) == (5700, 6000)


def test_single_gesture_prep_stroke_retract(catalog):
    timeline = schedule(_single(catalog, "audio: 5.00s\nA1: [1.00s](Cup, RH 0.46s) word.\n")).for_speaker("A")
    assert _kinds(timeline, "right") == ["prep", "stroke", "retract"]
    assert _kinds(timeline, "left") == []


def test_gap_shorter_than_prep_compresses(catalog):
    source = "audio: 6.00s\nA1: [1.00s](Cup, RH 0.46s) one [1.66s](Reject, RH 0.44s) two.\n"
    timeline = schedule(_single(catalog, source)).for_speaker("A")
    kinds = _kinds(timeline, "right")
    assert kinds == ["prep", "stroke", "prep", "stroke", "retract"]
    bridge = timeline.tracks["right"][2]
    assert (bridge.start, bridge.end) == (1460, 1660)
    assert validate_timeline(timeline) == []


def test_threshold_boundary_uses_retract(catalog):
    # a written gap of exactly 2.5 is not "less than": retract, also where
    # the float difference of the written times is below 2.5 (4.97 - 2.47)
    assert 4.97 - 2.47 < 2.5
    for first, duration, second in (("1.00", "0.46", "3.96"), ("2.00", "0.47", "4.97")):
        source = (
            f"audio: 10.00s\nA1: [{first}s](Cup, RH {duration}s) one two three "
            f"[{second}s](Reject, RH 0.44s) four.\n"
        )
        timeline = schedule(_single(catalog, source)).for_speaker("A")
        assert _kinds(timeline, "right")[:4] == ["prep", "stroke", "retract", "prep"], source


def test_two_hand_gesture_locks_both_arms(catalog):
    source = "audio: 8.00s\nA1: [1.00s](Cup_Up, 2H 0.34s) one word.\n"
    timeline = schedule(_single(catalog, source)).for_speaker("A")
    left = _strokes(timeline.tracks["left"])[0]
    right = _strokes(timeline.tracks["right"])[0]
    assert (left.start, left.end) == (right.start, right.end)
    assert validate_timeline(timeline) == []


def test_overlap_strict_raises(catalog):
    source = "audio: 8.00s\nA1: [1.00s](Regressive, RH 1.14s) one [1.50s](Cup, RH 0.46s) two.\n"
    with pytest.raises(StrokeOverlapError):
        schedule(_single(catalog, source), strict=True)


def test_overlap_lenient_drops_later(catalog):
    source = "audio: 8.00s\nA1: [1.00s](Regressive, RH 1.14s) one [1.50s](Cup, RH 0.46s) two.\n"
    result = schedule(_single(catalog, source), strict=False)
    names = [p.gesture for p in _strokes(result.for_speaker("A").tracks["right"])]
    assert names == ["Regressive"]
    assert len(result.diagnostics) == 1
    assert "overlaps" in result.diagnostics[0]
    assert validate_timeline(result.for_speaker("A")) == []


def test_schedule_requires_features():
    dialog = parse_dialog("audio: 8.00s\nA1: [1.00s](Cup, RH 0.46s) one.\n")
    with pytest.raises(ScheduleError, match="no effective features"):
        schedule(dialog)


@pytest.mark.parametrize("signs", [(0.0, -0.0), (-0.0, 0.0)])
def test_each_stroke_keeps_the_sign_of_its_zero_features(catalog, signs):
    # 0.0 == -0.0 and they hash alike, but the scripts print 0.000 and -0.000
    source = "audio: 12.00s\nA1: [1.00s](Cup, RH 0.46s) one two three four [6.00s](Cup, RH 0.46s) five.\n"
    dialog = _single(catalog, source)
    turn = dialog.turns[0]
    annotations = tuple(
        ann._replace(features=ann.features._replace(expanse_cm=zero, height_cm=zero))
        for ann, zero in zip(turn.annotations, signs)
    )
    assert annotations[0].features == annotations[1].features
    dialog = dialog._replace(turns=(turn._replace(annotations=annotations),))
    strokes = _strokes(schedule(dialog).for_speaker("A").tracks["right"])
    assert [(math.copysign(1, s.expanse), math.copysign(1, s.height)) for s in strokes] == [
        (math.copysign(1, zero),) * 2 for zero in signs
    ]


@pytest.mark.parametrize("speaker", ["C", "a", "", "AB"])
def test_for_speaker_refuses_an_unknown_speaker(catalog, speaker):
    dialog = parse_dialog("audio: 8.00s\nA1: [1.00s](Cup, RH 0.46s) one.\n")
    result = schedule(apply_personality(dialog, "A", EXTRAVERT_ANCHOR, catalog))
    assert (result.for_speaker("A"), result.for_speaker("B")) == tuple(result.timelines.values())
    with pytest.raises(ScheduleError, match=f"no timeline for speaker {speaker!r}"):
        result.for_speaker(speaker)


def test_one_hand_conflicting_with_two_hand(catalog):
    source = "audio: 8.00s\nA1: [1.00s](Cup_Up, 2H 0.34s) one [1.20s](Cup, RH 0.46s) two.\n"
    with pytest.raises(StrokeOverlapError):
        schedule(_single(catalog, source), strict=True)


def test_overrun_strict_and_lenient(catalog):
    from gesturec.personality import INTROVERT_ANCHOR

    # stroke fits as annotated but overruns once slowed to introvert speed
    dialog = parse_dialog("audio: 1.50s\nA1: [1.00s](Cup, RH 0.46s) word.\n")
    dialog = apply_personality(dialog, "A", INTROVERT_ANCHOR, catalog)
    with pytest.raises(StrokeOverrunError):
        schedule(dialog, strict=True)
    result = schedule(dialog, strict=False)
    assert result.for_speaker("A").tracks["right"] == ()
    assert len(result.diagnostics) == 1


def test_stroke_times_never_move(catalog):
    rng = random.Random(7)
    for _ in range(50):
        dialog = make_stroke_dialog(rng)
        expected = [round(a.stroke_begin * 1000) for t in dialog.turns for a in t.annotations]
        timeline = schedule(dialog).for_speaker("A")
        starts = sorted(
            {p.start for arm in ("left", "right") for p in _strokes(timeline.tracks[arm])}
        )
        assert starts == sorted(set(expected))


def test_schedule_is_deterministic(catalog, protest_dialog, protest_track):
    dialog = align_strokes(protest_dialog, protest_track)
    for speaker in ("A", "B"):
        dialog = apply_personality(dialog, speaker, EXTRAVERT_ANCHOR, catalog)
    from gesturec.emitter import emit_script

    one = schedule(dialog)
    two = schedule(dialog)
    assert emit_script(one.for_speaker("A")) == emit_script(two.for_speaker("A"))
    assert emit_script(one.for_speaker("B")) == emit_script(two.for_speaker("B"))


def test_short_gap_across_a_turn_change_holds(catalog):
    source = (
        "audio: 12.00s\n"
        "A1: [1.00s](Cup, RH 0.46s) one.\n"
        "B1: word.\n"
        "A2: [3.00s](Reject, RH 0.44s) two.\n"
    )
    timeline = schedule(_single(catalog, source)).for_speaker("A")
    assert _kinds(timeline, "right") == ["prep", "stroke", "hold", "prep", "stroke", "retract"]  # gap 1.54 < 2.5


@pytest.mark.parametrize(
    "config,fingerprint",
    [
        (SchedulerConfig(), "b960a17d6ef9"),
        (SchedulerConfig(hold_threshold_s=2.0), "91fa97f73f8e"),
        (SchedulerConfig(prep_duration_s=0.25, stroke_lead_s=0.1), "8f3210995069"),
    ],
)
def test_config_fingerprint_is_pinned(config, fingerprint):
    # every script's `# config:` line carries it
    assert config.fingerprint() == fingerprint


def test_retract_policy_is_not_a_setting():
    with pytest.raises(TypeError):
        SchedulerConfig(retract_on_turn_end=True)


def _compile(catalog, case, strict):
    source, score = case
    settings = PipelineSettings(extraversion={"A": score, "B": 7.0}, strict=strict)
    return compile_dialog(source, catalog, settings=settings).schedule


def _assert_readable(result):
    for speaker in ("A", "B"):
        for fmt in ("json", "text"):
            read_script(emit_script(result.for_speaker(speaker), fmt))


def test_stroke_rounded_onto_next_start_overlaps(catalog):
    with pytest.raises(StrokeOverlapError):
        _compile(catalog, TOUCHING_STROKES, strict=True)
    result = _compile(catalog, TOUCHING_STROKES, strict=False)
    assert [p.gesture for p in _strokes(result.for_speaker("A").tracks["right"])] == ["Cup"]
    assert "overlaps the previous stroke ending at 1.470s" in result.diagnostics[0]
    _assert_readable(result)


@pytest.mark.parametrize("strict", [True, False])
def test_hold_rounded_to_nothing_is_left_out(catalog, strict):
    result = _compile(catalog, EMPTY_HOLD, strict)
    phases = result.for_speaker("A").tracks["right"]
    assert [p.kind for p in phases] == ["prep", "stroke", "prep", "stroke", "retract"]
    assert (phases[1].end, phases[2].start, phases[2].end) == (1480, 1480, 1780)
    _assert_readable(result)


def test_config_validation():
    with pytest.raises(ScheduleError):
        SchedulerConfig(prep_duration_s=0.0)
    with pytest.raises(ScheduleError):
        SchedulerConfig(hold_threshold_s=0.5, prep_duration_s=0.3, retract_duration_s=0.5)
    for name in ("hold_threshold_s", "prep_duration_s", "retract_duration_s"):
        with pytest.raises(ScheduleError, match=name):
            SchedulerConfig(**{name: getattr(SchedulerConfig(), name) + 0.0004})


def test_validate_flags_overlapping_phases():
    phases = [_phase("prep", 500, 1000), _stroke(900, 1400)]
    timeline = _timeline(right=phases)
    problems = validate_timeline(timeline)
    assert any("overlap" in p for p in problems)


def test_validate_flags_off_grid_times():
    phases = [_phase("prep", 500, 1000.4), _stroke(1000.4, 1400), _phase("retract", 1400, 1900)]
    problems = validate_timeline(_timeline(right=phases, audio_ms=30000.0))
    assert [p for p in problems if "integer milliseconds" in p] == [
        "audio duration 30000.0 is not integer milliseconds",
        "right[0]: times 500, 1000.4 are not integer milliseconds",
        "right[1]: times 1000.4, 1400 are not integer milliseconds",
    ]


def test_validate_flags_stroke_without_gesture():
    phases = [_phase("prep", 500, 1000), _phase("stroke", 1000, 1400)]
    timeline = _timeline(right=phases)
    problems = validate_timeline(timeline)
    assert "right[1]: gesture None is not a gesture name" in problems


def test_validate_flags_bad_transition():
    phases = [
        _phase("prep", 500, 1000),
        _stroke(1000, 1400),
        _phase("hold", 1400, 2000),
        _phase("retract", 2000, 2500),
    ]
    timeline = _timeline(right=phases)
    assert any("hold may not be followed by retract" in p for p in problems_of(timeline))


def test_validate_ok_on_scheduled_fixture(protest_dialog, protest_track, catalog):
    dialog = align_strokes(protest_dialog, protest_track)
    for speaker in ("A", "B"):
        dialog = apply_personality(dialog, speaker, EXTRAVERT_ANCHOR, catalog)
    result = schedule(dialog)
    assert validate_timeline(result.for_speaker("A")) == []
    assert validate_timeline(result.for_speaker("B")) == []


def problems_of(timeline):
    return validate_timeline(timeline)


def _phase(kind, start, end, arm="right"):
    return ScriptEvent(start, end, kind, arm)


def _stroke(start, end, arm="right", hand="RH"):
    return ScriptEvent(start, end, "stroke", arm, "Cup", hand, 25.0, 0.0, 20.0, 1.0, 1.0)


def _timeline(right=None, left=None, audio_ms=30000):
    return Timeline(
        speaker="A",
        tracks={"left": list(left or []), "right": list(right or [])},
        audio_ms=audio_ms,
        story_id="t",
        config_fingerprint="x",
    )


def _prep_stroke_retract(**stroke_changes):
    return [_phase("prep", 500, 1000), _stroke(1000, 1400)._replace(**stroke_changes), _phase("retract", 1400, 1900)]


@pytest.mark.parametrize(
    "right, problem",
    [
        (_prep_stroke_retract(arm="left"), "right[1]: left event on the right track"),
        (_prep_stroke_retract(hand="LH"), "right[1]: LH stroke on the right arm"),
        (_prep_stroke_retract(speed=0.0), "right[1]: speed and scale must be > 0"),
        (_prep_stroke_retract(scale=-1.0), "right[1]: speed and scale must be > 0"),
        (_prep_stroke_retract(height=None), "right[1]: stroke without effective features"),
        (
            [_phase("prep", 500, 1000)._replace(expanse=25.0), _stroke(1000, 1400), _phase("retract", 1400, 1900)],
            "right[0]: prep must not carry a gesture reference, hand or features",
        ),
    ],
)
def test_validate_flags_each_event_rule(right, problem):
    assert validate_timeline(_timeline(right=right)) == [problem]


@pytest.mark.parametrize(
    "right, problem",
    [
        (
            [_phase(["prep"], 500, 1000), _stroke(1000, 1400), _phase("retract", 1400, 1900)],
            "right[0]: unknown phase kind ['prep']",
        ),
        (_prep_stroke_retract(speed="1"), "right[1]: speed '1' is not a finite number"),
        (_prep_stroke_retract(expanse="x"), "right[1]: expanse 'x' is not a finite number"),
        (_prep_stroke_retract(height=True), "right[1]: height True is not a finite number"),
        (_prep_stroke_retract(outward=math.nan), "right[1]: outward nan is not a finite number"),
        (_prep_stroke_retract(scale=math.inf), "right[1]: scale inf is not a finite number"),
        (
            [_phase("prep", "0.3", 1000), _stroke(1000, 1400), _phase("retract", 1400, 1900)],
            "right[0]: times '0.3', 1000 are not integer milliseconds",
        ),
        (
            [_phase("prep", 500, 1000), _stroke([1000], 1400), _phase("retract", 1400, 1900)],
            "right[1]: times [1000], 1400 are not integer milliseconds",
        ),
    ],
)
def test_validate_reports_values_of_the_wrong_type(right, problem):
    timeline = _timeline(right=right)
    problems = validate_timeline(timeline)
    assert problems[0] == problem
    for fmt in ("json", "text"):
        with pytest.raises(EmitError, match=re.escape(problem)):
            emit_script(timeline, fmt)


def test_hold_retract_dichotomy_generated():
    rng = random.Random(123)
    for _ in range(150):
        dialog = make_stroke_dialog(rng)
        timeline = schedule(dialog).for_speaker("A")
        assert validate_timeline(timeline) == []
        for arm in ("left", "right"):
            check_dichotomy(timeline.tracks[arm])


def check_dichotomy(phases, threshold=to_ms(SchedulerConfig().hold_threshold_s)):
    """Brute-force gap oracle: recompute stroke gaps (integer ms) and assert
    the bridge."""
    stroke_idx = [i for i, p in enumerate(phases) if p.kind == "stroke"]
    for a, b in zip(stroke_idx, stroke_idx[1:]):
        gap = phases[b].start - phases[a].end
        between = [p.kind for p in phases[a + 1:b]]
        if gap < threshold:
            assert between in (["hold", "prep"], ["prep"]), (gap, between)
        else:
            assert between == ["retract", "prep"], (gap, between)
