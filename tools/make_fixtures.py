#!/usr/bin/env python3
"""Regenerate the shipped data fixtures under src/gesturec/data/.

Authoring model: each story is a list of turns, each turn a text plus
annotation placements (word index, gesture, hand, markers).  The protest
story's opening five turns carry fixed stroke times; everywhere else the
generator lays out word onsets at a steady cadence and derives stroke
times as onset minus the 0.2s lead, so the shipped timing tracks make
alignment a no-op.  The generator rebuilds every fixture, re-runs the
full pipeline on it, and refuses to write anything that does not
validate.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "gesturec" / "data"

from gesturec.adaptation import check_copy_provenance
from gesturec.align import align_strokes, parse_word_timings
from gesturec.catalog import load_catalog
from gesturec.dsl import (
    Alternative,
    AnnotatedDialog,
    GestureAnnotation,
    Turn,
    format_dialog,
    parse_dialog,
    segment_sentences,
    truncate_dialog,
)
from gesturec.emitter import validate_timeline
from gesturec.pipeline import PipelineSettings, prepare_dialog
from gesturec.scheduler import schedule
from gesturec.stimuli import ADAPTATION_TASKS, build_adaptation_pair, run_personality_batch

LEAD = 0.2
BASE_CADENCE = 0.33
TAIL_CADENCE = 0.28
TURN_PAUSE = 1.2
ANCHORED_MIN_GAP = 0.3
FIRST_TURN_START = 1.0
AUDIO_TAIL = 2.0

# Stroke duration (s) of each gesture, in catalog order.  Every annotation
# is authored with its gesture's duration from this table.
DUR = {
    "Cup": 0.46,
    "PointingAbstract": 0.37,
    "Cup_Horizontal": 0.57,
    "SweepSide1": 0.35,
    "Cup_Down_alt": 0.21,
    "CupBeats_Small": 0.37,
    "Cup_Vert": 0.54,
    "Regressive": 1.14,
    "Cup_Up": 0.34,
    "Eruptive": 0.76,
    "WeighOptions": 0.6,
    "ShortProgressive": 0.38,
    "Dismiss": 0.47,
    "Away": 0.4,
    "Reject": 0.44,
    "SideArc": 0.57,
}

# Default base geometry (cm): the catalog format requires explicit values.
BASE_GEOMETRY = (25, 0, 20)


def ann(wi, name, hand, *, rate=False, copy=False, alt=None, at=None):
    """Annotation placement: word index, gesture, hand, markers.

    ``alt`` is (gesture, hand); ``at`` pins the stroke time (otherwise the
    word onset minus the lead decides).
    """
    return {
        "wi": wi,
        "name": name,
        "hand": hand,
        "rate": rate,
        "copy": copy,
        "alt": alt,
        "at": at,
    }


PROTEST = [
    ("A", "Hey, do you remember that day? It was a work day, I remember there was some big "
          "event going on.",
     [ann(0, "Cup", "RH", at=1.90),
      ann(4, "PointingAbstract", "RH", at=3.17),
      ann(9, "Cup_Horizontal", "2H", at=4.97),
      ann(18, "SweepSide1", "RH", at=7.23)]),
    ("B", "Yeah, that day was the start of the G20 summit. It's an event that happens every year.",
     [ann(7, "Cup_Down_alt", "2H", at=9.43),
      ann(15, "CupBeats_Small", "2H", at=12.55)]),
    ("A", "Oh yeah, right, it's that meeting where 20 of the leaders of the world come together. "
          "They talk about how to run their governments effectively.",
     [ann(2, "Cup_Vert", "RH", at=14.20),
      ann(14, "Regressive", "RH", copy=True, at=17.31),
      ann(24, "Cup", "RH", copy=True, at=20.72)]),
    ("B", "Yeah, exactly. There were many leaders coming together. They had some pretty different "
          "ideas about what's the best way to run a government.",
     [ann(1, "Cup_Up", "2H", copy=True, at=22.08),
      ann(6, "Regressive", "LH", copy=True, alt=("Eruptive", "LH"), at=24.38),
      ann(12, "WeighOptions", "2H", copy=True, at=26.77),
      ann(20, "Cup", "RH", rate=True, copy=True, alt=("ShortProgressive", "RH"), at=29.13)]),
    ("A", "And the people who follow the governments also have different ideas. Whenever world "
          "leaders meet, there will be protesters expressing different opinions. I remember the "
          "protest that happened just along the street where we work.",
     [ann(1, "PointingAbstract", "RH", rate=True, at=30.25),
      ann(9, "WeighOptions", "2H", copy=True, alt=("Cup", "2H"), at=32.56),
      ann(12, "Cup_Up", "2H", copy=True, alt=("Dismiss", "2H"), at=34.67),
      ann(20, "Away", "2H", at=37.80),
      ann(25, "Reject", "RH", rate=True, at=39.87),
      ann(29, "SideArc", "2H", at=41.28)]),
    ("B", "It looked peaceful at the beginning....",
     [ann(2, "Cup_Horizontal", "2H")]),
    ("A", "Right, until a bunch of people started rebelling and creating a riot.",
     [ann(1, "Cup", "RH"), ann(7, "Eruptive", "LH")]),
    ("B", "Oh my gosh, it was such a riot, police cars were burned, and things were thrown at cops.",
     [ann(3, "Cup_Up", "2H"), ann(13, "Away", "2H")]),
    ("A", "Police were in full riot gear to stop the violence.",
     [ann(2, "Cup_Vert", "RH")]),
    ("B", "Yeah, they were. When things got worse, the protesters smashed the windows of stores.",
     [ann(0, "CupBeats_Small", "2H"), ann(7, "Dismiss", "2H")]),
    ("A", "Uh huh. And then police fired tear gas and bean bag bullets.",
     [ann(4, "ShortProgressive", "RH"), ann(9, "Reject", "RH")]),
    ("B", "That's right, tear gas and bean bag bullets... It all happened right in front of our store.",
     [ann(2, "Cup", "RH"), ann(10, "SideArc", "2H")]),
    ("A", "That's so scary.",
     [ann(1, "Cup_Down_alt", "2H")]),
    ("B", "It was kind of scary, but I had never seen a riot before, so it was kind of "
          "interesting for me.",
     [ann(2, "Cup_Horizontal", "2H"), ann(10, "WeighOptions", "2H")]),
]

PET = [
    ("A", "I have always felt like I was a dog person but our two cats are great. They are much "
          "more low maintenance than dogs are.",
     [ann(1, "Cup", "RH"), ann(8, "PointingAbstract", "RH"), ann(18, "Cup_Horizontal", "2H")]),
    ("B", "Yeah, I'm really glad we got our first one at a no-kill shelter.",
     [ann(1, "Cup_Up", "2H"), ann(8, "SweepSide1", "RH")]),
    ("A", "I had wanted a little kitty, but the only baby kitten they had scratched the crap out "
          "of me the minute I picked it up so that was a big \"NO\".",
     [ann(2, "Cup_Vert", "RH"), ann(13, "Eruptive", "LH")]),
    ("B", "Well, the no-kill shelter also had what they called \"teenagers\", which were cats "
          "around four to six months old...a bit bigger than the little kitties.",
     [ann(3, "Cup", "RH"), ann(13, "WeighOptions", "2H")]),
    ("A", "Oh yeah, I saw those \"teenagers\". They weren't exactly adults, but they were a bit "
          "bigger than the little kittens.",
     [ann(1, "Cup_Up", "2H", copy=True, alt=("Cup_Down_alt", "2H")),
      ann(4, "CupBeats_Small", "2H", rate=True),
      ann(9, "WeighOptions", "2H", copy=True, alt=("Dismiss", "2H")),
      ann(15, "SweepSide1", "RH")]),
    ("B", "Yeah one of them really stood out to me then-- mostly because she jumped up on a shelf "
          "behind us and smacked me in the head with her paw.",
     [ann(1, "Cup_Vert", "RH", copy=True, alt=("ShortProgressive", "RH")),
      ann(13, "Eruptive", "LH", rate=True),
      ann(21, "PointingAbstract", "RH", copy=True, alt=("Reject", "RH"))]),
    ("A", "Yeah, we definitely had a winner!",
     [ann(1, "Cup_Up", "2H")]),
    ("B", "I had no idea how much personality a cat can have. Our first kitty loves playing. "
          "She will play until she is out of breath.",
     [ann(2, "Cup_Horizontal", "2H"), ann(13, "CupBeats_Small", "2H"), ann(18, "Regressive", "RH")]),
    ("A", "Yeah, and then after playing for a long time she likes to look at you like she's "
          "saying, \"Just give me a minute, I'll get my breath back and be good to go.\"",
     [ann(2, "ShortProgressive", "RH"), ann(12, "Cup", "RH")]),
    ("B", "Sometimes I wish I had that much enthusiasm for anything in my life.",
     [ann(4, "Dismiss", "2H")]),
    ("A", "Yeah, me too. Man, she has so much enthusiasm for chasing string too! To her it's the "
          "best thing ever. Well ok, maybe it runs a close second to hair scrunchies.",
     [ann(0, "CupBeats_Small", "2H"), ann(8, "Cup_Vert", "RH"), ann(16, "Cup_Up", "2H"),
      ann(24, "SweepSide1", "RH")]),
    ("B", "Oh I love playing fetch with her with hair scrunchies!",
     [ann(2, "Eruptive", "LH"), ann(7, "ShortProgressive", "RH")]),
    ("A", "Yeah, you can just throw the scrunchies down the stairs and she runs at top speed to "
          "fetch them. And she always does this until she's out of breath!",
     [ann(4, "Away", "2H"), ann(12, "ShortProgressive", "RH"), ann(22, "Regressive", "RH")]),
    ("B", "If only I could work out that hard before I was out of breath... I'd probably be thinner.",
     [ann(4, "WeighOptions", "2H"), ann(16, "Cup_Down_alt", "2H")]),
]

STORM = [
    ("A", "Do you remember that huge storm last fall? The sky turned almost green before it hit.",
     [ann(3, "Cup", "RH"), ann(10, "SweepSide1", "RH")]),
    ("B", "Oh I remember. The wind came up so fast that our patio chairs flew across the yard.",
     [ann(1, "CupBeats_Small", "2H"), ann(8, "Eruptive", "LH"), ann(13, "Away", "2H")]),
    ("A", "And then the rain just poured down in sheets. We watched the street turn into a river "
          "in about ten minutes.",
     [ann(3, "Regressive", "RH"), ann(12, "Cup_Horizontal", "2H"), ann(17, "PointingAbstract", "RH")]),
    ("B", "A river is right! Our basement started taking water within the hour. We were hauling "
          "buckets like crazy.",
     [ann(1, "Cup_Up", "2H"), ann(6, "Cup_Down_alt", "2H"), ann(14, "WeighOptions", "2H")]),
    ("A", "Right, the water just kept coming. I remember you bailing all night while the wind howled.",
     [ann(1, "Cup_Up", "2H", copy=True, alt=("Cup", "2H")),
      ann(4, "CupBeats_Small", "2H", rate=True),
      ann(9, "WeighOptions", "2H", copy=True, alt=("SideArc", "2H")),
      ann(13, "Reject", "RH")]),
    ("B", "I could not believe how loud it got. The next morning half the fence was just gone.",
     [ann(2, "Cup", "RH", copy=True, alt=("ShortProgressive", "RH")),
      ann(6, "Cup_Vert", "RH", rate=True),
      ann(11, "Cup_Horizontal", "2H", copy=True, alt=("Away", "2H")),
      ann(14, "SideArc", "2H")]),
]

GARDEN = [
    ("A", "So the tomatoes finally came up this week. After all that digging I was starting to "
          "lose hope.",
     [ann(2, "Cup", "RH"), ann(11, "ShortProgressive", "RH"), ann(16, "Dismiss", "2H")]),
    ("B", "You put in so much work on those beds. I still think the rabbits did more digging "
          "than you did.",
     [ann(3, "Cup_Horizontal", "2H"), ann(13, "Regressive", "LH")]),
    ("A", "Ha, they sure tried. But the fence held and now there are little green tomatoes "
          "everywhere.",
     [ann(1, "Cup_Horizontal", "2H", copy=True, alt=("Cup_Vert", "2H")),
      ann(6, "CupBeats_Small", "2H", rate=True),
      ann(10, "Regressive", "LH", copy=True, alt=("Eruptive", "LH")),
      ann(15, "Away", "2H")]),
    ("B", "Everywhere is right! You can already smell the vines when you walk past the gate.",
     [ann(0, "Cup", "RH", copy=True, alt=("ShortProgressive", "RH")),
      ann(5, "Cup_Up", "2H", rate=True),
      ann(9, "Dismiss", "2H", copy=True, alt=("SideArc", "2H")),
      ann(13, "Cup_Vert", "RH")]),
]

STORIES = {"protest": PROTEST, "pet": PET, "storm": STORM, "garden": GARDEN}

# Preference counts per task version: (#A, #NA).
PREFERENCES = {
    "garden_ABA": (11, 9),
    "garden_ABAB": (20, 2),
    "pet_ABABA": (10, 13),
    "pet_ABABAB": (19, 5),
    "protest_ABAB": (8, 11),
    "protest_ABABA": (11, 11),
    "storm_ABABA": (16, 4),
    "storm_ABABAB": (14, 5),
}

# Why-category membership counts per version:
# (adapted_good_gestures, nonadapted_good_gestures, adapted_animated, nonadapted_realistic)
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


def layout_onsets(words: list[str], anchors: dict[int, float], floor: float) -> list[float]:
    """Word onsets for one turn, honoring anchored (paper-fixed) onsets."""
    n = len(words)
    onsets: list[float] = [0.0] * n
    if not anchors:
        start = floor + TURN_PAUSE if floor > 0 else FIRST_TURN_START
        return [round(start + j * BASE_CADENCE, 2) for j in range(n)]
    order = sorted(anchors)
    for wi, onset in anchors.items():
        onsets[wi] = onset
    first = order[0]
    if first > 0:
        upper = anchors[first] - LEAD  # last prefix word may not pass the stroke time
        start_floor = floor + ANCHORED_MIN_GAP
        step = (upper - start_floor) / first
        assert step >= 0.009, f"no room for {first} words before onset {anchors[first]}"
        for j in range(first):
            onsets[j] = start_floor + (j + 1) * step
    for a, b in zip(order, order[1:]):
        step = (anchors[b] - anchors[a]) / (b - a)
        assert step >= LEAD - 1e-9, f"cadence {step:.3f} before anchored word {b} undercuts the lead"
        for j in range(a + 1, b):
            onsets[j] = anchors[a] + (j - a) * step
    last = order[-1]
    for j in range(last + 1, n):
        onsets[j] = anchors[last] + (j - last) * TAIL_CADENCE
    out = [round(o, 2) for o in onsets]
    assert all(b > a for a, b in zip(out, out[1:])), f"onsets not increasing: {out}"
    return out


def build_story(story_id: str, spec: list) -> tuple[AnnotatedDialog, str]:
    """(dialog, timing TSV text) for one authored story."""
    turns: list[Turn] = []
    tsv_lines: list[str] = []
    floor = 0.0
    for turn_number, (speaker, text, anns) in enumerate(spec, start=1):
        words = text.split()
        anchors = {}
        for a in anns:
            assert a["wi"] < len(words), f"{story_id} turn {turn_number}: word index out of range"
            if a["at"] is not None:
                anchors[a["wi"]] = round(a["at"] + LEAD, 2)
        onsets = layout_onsets(words, anchors, floor)
        assert floor <= onsets[0], f"{story_id} turn {turn_number} starts before previous turn ends"
        floor = onsets[-1]
        for word, onset in zip(words, onsets):
            tsv_lines.append(f"{turn_number}\t{word}\t{onset:.2f}")
        annotations = []
        for a in anns:
            onset = onsets[a["wi"]]
            prev = onsets[a["wi"] - 1] if a["wi"] > 0 else None
            time = a["at"] if a["at"] is not None else round(onset - LEAD, 2)
            assert abs((onset - time) - LEAD) < 1e-9, (
                f"{story_id} turn {turn_number}: stroke at {time} not {LEAD}s before {onset}"
            )
            assert prev is None or prev <= time + 1e-9, (
                f"{story_id} turn {turn_number}: word before index {a['wi']} passes the stroke time"
            )
            alternative = None
            if a["alt"] is not None:
                alt_name, alt_hand = a["alt"]
                alternative = Alternative(alt_name, alt_hand, DUR[alt_name])
            annotations.append(
                GestureAnnotation(
                    stroke_begin=time,
                    gesture_name=a["name"],
                    hand=a["hand"],
                    stroke_duration=DUR[a["name"]],
                    rate_added=a["rate"],
                    form_copied=a["copy"],
                    alternative=alternative,
                    word_index=a["wi"],
                )
            )
        turns.append(Turn(speaker=speaker, index=turn_number, text=" ".join(words), annotations=tuple(annotations)))
    audio = round(floor + AUDIO_TAIL, 2)
    dialog = AnnotatedDialog(story_id=story_id, turns=tuple(turns), audio_duration=audio)
    return dialog, "\n".join(tsv_lines) + "\n"


def catalog_text() -> str:
    lines = [
        "# catalog-version: 1",
        "# name, expanse_cm, height_cm, outwardness_cm",
    ]
    e, h, o = BASE_GEOMETRY
    for name in DUR:
        lines.append(f"{name}, {e}, {h}, {o}")
    return "\n".join(lines) + "\n"


def judgments_csv() -> str:
    lines = ["subject_id,stimulus_id,kind,payload"]
    counter = 0
    for version in sorted(PREFERENCES):
        n_a, n_na = PREFERENCES[version]
        subjects = []
        for _ in range(n_a + n_na):
            counter += 1
            subjects.append(f"s{counter:03d}")
        a_subjects, na_subjects = subjects[:n_a], subjects[n_a:]
        why_sets: dict[str, set[str]] = {s: set() for s in subjects}
        c_ag, c_ng, c_aa, c_nr = WHY_COUNTS[version]
        for i in range(c_ag):
            why_sets[a_subjects[i % len(a_subjects)]].add("adapted_good_gestures")
        for i in range(c_aa):
            why_sets[a_subjects[(c_ag + i) % len(a_subjects)]].add("adapted_animated")
        for i in range(c_ng):
            why_sets[na_subjects[i % len(na_subjects)]].add("nonadapted_good_gestures")
        for i in range(c_nr):
            why_sets[na_subjects[(c_ng + i) % len(na_subjects)]].add("nonadapted_realistic")
        for subject in subjects:
            choice = "A" if subject in a_subjects else "NA"
            lines.append(f"{subject},{version},preference,{choice}")
            lines.append(f"{subject},{version},why," + "|".join(sorted(why_sets[subject])))
    return "\n".join(lines) + "\n"


def verify(stories, catalog) -> None:
    from gesturec.analysis import preference_table, read_judgments, why_category_table

    for story_id, (dialog, track) in stories.items():
        text = format_dialog(dialog)
        parsed = parse_dialog(text)
        assert parsed == dialog, f"{story_id}: parse/format round trip failed"
        aligned = align_strokes(parsed, track)
        for t_before, t_after in zip(parsed.turns, aligned.turns):
            for x, y in zip(t_before.annotations, t_after.annotations):
                assert x.stroke_begin == y.stroke_begin, (
                    f"{story_id} turn {t_before.index}: alignment moved "
                    f"{x.gesture_name} {x.stroke_begin} -> {y.stroke_begin}"
                )
        for turn in parsed.turns:
            for _, bucket in segment_sentences(turn):
                plain = [a for a in bucket if not a.rate_added]
                assert len(plain) <= 2, f"{story_id} turn {turn.index}: {len(plain)} base gestures in one sentence"
                assert len(bucket) <= 3, f"{story_id} turn {turn.index}: sentence over the adapted band"

        # neutral compile and the personality pair must schedule cleanly
        for extraversion in ({"A": 7.0, "B": 7.0}, {"A": 7.0, "B": 1.0}, {"A": 1.0, "B": 7.0}):
            settings = PipelineSettings(extraversion=dict(extraversion))
            prepared = prepare_dialog(parsed, catalog, track, settings)
            from gesturec.adaptation import strip_adaptation

            result = schedule(strip_adaptation(prepared), settings.scheduler, strict=True)
            assert not result.diagnostics
            for speaker in ("A", "B"):
                problems = validate_timeline(result.for_speaker(speaker))
                assert not problems, f"{story_id} ({extraversion}): {problems}"

    for story_id, structure in ADAPTATION_TASKS:
        dialog, track = stories[story_id]
        adapted, nonadapted = build_adaptation_pair(dialog, structure, catalog, track=track)
        # context events must be byte-identical up to the response turn
        response_first = min(
            a.stroke_begin for a in dialog.turns[len(structure) - 1].annotations
        )
        cutoff = response_first - 0.3
        for speaker in ("A", "B"):
            name = f"{speaker}.script.txt"
            lines_a = [
                line for line in adapted.scripts[name].decode().splitlines()
                if not line.startswith("#") and float(line.split()[0]) < cutoff
            ]
            lines_n = [
                line for line in nonadapted.scripts[name].decode().splitlines()
                if not line.startswith("#") and float(line.split()[0]) < cutoff
            ]
            assert lines_a == lines_n, f"{story_id}_{structure} {speaker}: context events differ"
        # every response turn carries at least one traceable copy; orphan
        # copies are allowed (they are reported, not fatal)
        pairs = check_copy_provenance(truncate_dialog(dialog, len(structure)))
        assert any(p.source is not None for p in pairs), (
            f"{story_id}_{structure}: no traceable copied gesture in the response turn"
        )

    bundles = run_personality_batch(stories, catalog)
    assert len(bundles) == 8

    records = read_judgments(judgments_csv())
    table = preference_table([r for r in records if r.kind == "preference"])
    assert (table.totals.count_a, table.totals.count_na) == (109, 60), table.totals
    for row in table.rows:
        assert (row.count_a, row.count_na) == PREFERENCES[row.version]
    why = why_category_table([r for r in records if r.kind == "why"])
    for row in why.rows:
        expected = WHY_COUNTS[row.version]
        got = (
            round(row.percentages["adapted_good_gestures"] * row.n_subjects / 100),
            round(row.percentages["nonadapted_good_gestures"] * row.n_subjects / 100),
            round(row.percentages["adapted_animated"] * row.n_subjects / 100),
            round(row.percentages["nonadapted_realistic"] * row.n_subjects / 100),
        )
        assert got == expected, f"{row.version}: {got} != {expected}"


def build_fixtures() -> dict[str, str]:
    """The text of every fixture by its path under ``DATA``.  Raises unless
    the rebuilt fixtures pass :func:`verify`."""
    catalog = load_catalog(catalog_text())
    files = {"catalog.txt": catalog_text(), "adaptation_judgments.csv": judgments_csv()}
    stories = {}
    for story_id, spec in STORIES.items():
        dialog, tsv = build_story(story_id, spec)
        stories[story_id] = (dialog, parse_word_timings(tsv))
        files[f"stories/{story_id}.dialog"] = format_dialog(dialog)
        files[f"timings/{story_id}.tsv"] = tsv
    verify(stories, catalog)
    return files


def main() -> int:
    for name, text in build_fixtures().items():
        (DATA / name).parent.mkdir(parents=True, exist_ok=True)
        (DATA / name).write_text(text, encoding="utf-8")
    print(f"fixtures written to {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
