"""Seeded input generators for the benchmark workloads.

Everything here is made from the shipped data and a seed; the program
under test only ever sees the generated text.

* :func:`tile_dialog` joins shipped stories into one long dialog and its
  timing track, working on the text so that it does not depend on the
  program's own serializer.
* :func:`make_study` writes a synthetic judgment CSV and keeps its own
  tallies and ANOVA observations for the output checks.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

STORY_IDS = ("garden", "pet", "protest", "storm")

_TURN_RE = re.compile(r"^([AB])(\d+):(.*)$")
_TIME_RE = re.compile(r"\[(\d+(?:\.\d+)?)s\]")


@dataclass(frozen=True)
class Story:
    story_id: str
    dialog: str  # dialog document text
    timings: str  # word-timing TSV text
    audio: Decimal
    turns: int
    words: int


def load_stories(data_dir: Path) -> dict[str, Story]:
    stories = {}
    for story_id in STORY_IDS:
        dialog = (data_dir / "stories" / f"{story_id}.dialog").read_text(encoding="utf-8")
        timings = (data_dir / "timings" / f"{story_id}.tsv").read_text(encoding="utf-8")
        audio = next(
            Decimal(line.split(":", 1)[1].strip()[:-1])
            for line in dialog.splitlines()
            if line.startswith("audio:")
        )
        turns = sum(1 for line in dialog.splitlines() if _TURN_RE.match(line.strip()))
        words = sum(1 for line in timings.splitlines() if line.strip())
        stories[story_id] = Story(story_id, dialog, timings, audio, turns, words)
    return stories


def draw_stories(rng: random.Random, stories: dict[str, Story], target_words: int) -> list[str]:
    """Story ids drawn from shuffled decks of all stories until the drawn
    stories hold at least ``target_words`` timed words.  Dealing whole
    decks keeps the story mix, and so the work per word, the same for
    every seed."""
    drawn: list[str] = []
    total = 0
    while total < target_words:
        deck = sorted(stories)
        rng.shuffle(deck)
        for story_id in deck:
            drawn.append(story_id)
            total += stories[story_id].words
            if total >= target_words:
                break
    return drawn


def tile_dialog(stories: list[Story], story_id: str) -> tuple[str, str]:
    """Join ``stories`` end to end into one dialog text and timing TSV.

    Turn labels and global turn indices are renumbered; stroke times and
    word onsets are shifted by the audio length of the stories before.
    Every shipped story has an even number of turns and starts with A, so
    the speakers keep alternating across the joins.
    """
    turn_lines: list[str] = []
    tsv_lines: list[str] = []
    counts = {"A": 0, "B": 0}
    turn_offset = 0
    shift = Decimal(0)
    for story in stories:
        if story.turns % 2:
            raise ValueError(f"story {story.story_id!r} has an odd number of turns")

        def shifted(m: re.Match) -> str:
            return f"[{Decimal(m.group(1)) + shift:.2f}s]"

        for raw in story.dialog.splitlines():
            m = _TURN_RE.match(raw.strip())
            if not m:
                continue
            speaker = m.group(1)
            counts[speaker] += 1
            turn_lines.append(f"{speaker}{counts[speaker]}:" + _TIME_RE.sub(shifted, m.group(3)))
        for raw in story.timings.splitlines():
            if not raw.strip():
                continue
            turn, word, onset = raw.split("\t")
            tsv_lines.append(f"{int(turn) + turn_offset}\t{word}\t{Decimal(onset) + shift:.2f}")
        turn_offset += story.turns
        shift += story.audio
    header = [f"story: {story_id}", f"audio: {shift:.2f}s", ""]
    return "\n".join(header + turn_lines) + "\n", "\n".join(tsv_lines) + "\n"


@dataclass
class LongDialog:
    dialog: str
    timings: str
    stories: list[str]
    words: int
    annotations: int
    onsets_ms: frozenset[int]  # every word onset of the track, in ms

    @property
    def tokens(self) -> int:
        return self.words + self.annotations


def make_long_dialog(
    stories: dict[str, Story], seed: int, target_words: int, dsl, align
) -> LongDialog:
    """A seeded tiled dialog of at least ``target_words`` timed words,
    validated through ``dsl.parse_dialog`` and ``align.parse_word_timings``."""
    drawn = draw_stories(random.Random(seed), stories, target_words)
    story_id = drawn[0] if len(drawn) == 1 else "tiled"
    text, tsv = tile_dialog([stories[s] for s in drawn], story_id)
    dialog = dsl.parse_dialog(text)
    track = align.parse_word_timings(tsv)
    words_per_turn: dict[int, int] = {}
    for entry in track.entries:
        words_per_turn[entry.turn_index] = words_per_turn.get(entry.turn_index, 0) + 1
    expected_turns = sum(stories[s].turns for s in drawn)
    if len(dialog.turns) != expected_turns:
        raise ValueError(f"tiled dialog has {len(dialog.turns)} turns, expected {expected_turns}")
    for turn in dialog.turns:
        if words_per_turn.get(turn.index) != len(turn.text.split()):
            raise ValueError(f"turn {turn.index}: timing track and text disagree on word count")
    return LongDialog(
        dialog=text,
        timings=tsv,
        stories=drawn,
        words=len(track.entries),
        annotations=sum(len(t.annotations) for t in dialog.turns),
        onsets_ms=frozenset(round(e.onset * 1000) for e in track.entries),
    )


# --- judgment studies -------------------------------------------------------

WHY_CATEGORIES = (
    "adapted_good_gestures",
    "nonadapted_good_gestures",
    "adapted_animated",
    "nonadapted_realistic",
    "other",
)
ASSIGNMENTS = ("F-extravert", "M-extravert")
ANOVA_FACTORS = ("personality", "gender", "story")
ANOVA_INTERACTIONS = (
    ("personality", "gender"),
    ("personality", "story"),
    ("gender", "story"),
    ("personality", "gender", "story"),
)

SHIPPED_SUBJECTS = 169
# Ten study sizes from just above the shipped study to just under ten times
# it, each a multiple of 8 so every personality cell gets the same count.
STUDY_SUBJECTS = tuple(176 + 168 * k for k in range(10))


def adaptation_stimuli(tasks) -> list[str]:
    return [f"{story}_{structure}" for story, structure in tasks]


def personality_stimuli() -> list[tuple[str, str, str]]:
    """(stimulus id, story, assignment) of the 8 personality bundles."""
    return [(f"{story}/{a}", story, a) for story in STORY_IDS for a in ASSIGNMENTS]


def tipi_factors(story: str, assignment: str, speaker: str) -> dict[str, str]:
    """ANOVA factors of the agent rated in a personality stimulus.  Role A
    is the extraverted agent; the assignment names the extravert's gender."""
    extravert_gender = assignment[0]
    other_gender = "M" if extravert_gender == "F" else "F"
    return {
        "personality": "extravert" if speaker == "A" else "introvert",
        "gender": extravert_gender if speaker == "A" else other_gender,
        "story": story,
    }


@dataclass
class Study:
    csv: str
    subjects: int
    records: int
    # stimulus -> [count A, count NA]
    preference: dict[str, list[int]] = field(default_factory=dict)
    # stimulus -> (subjects, {category: subjects naming it})
    why: dict[str, tuple[int, dict[str, int]]] = field(default_factory=dict)
    # (factor levels, extraversion score) per TIPI record, in file order
    observations: list[tuple[dict[str, str], float]] = field(default_factory=list)


def _clamp(x: float) -> int:
    return min(7, max(1, round(x)))


def make_study(rng: random.Random, subjects: int, tasks) -> Study:
    """One synthetic judgment study.

    Subject ``i`` judges adaptation task ``i mod 8`` (a preference and a
    why record) and rates both agents of personality stimulus ``i mod 8``
    (two TIPI records), so the TIPI cells are balanced.
    """
    if subjects % 8:
        raise ValueError("subjects must be a multiple of 8")
    adapt_ids = adaptation_stimuli(tasks)
    pers = personality_stimuli()
    bias = {s: rng.uniform(0.35, 0.85) for s in adapt_ids}
    story_shift = {s: rng.uniform(-0.4, 0.4) for s in STORY_IDS}
    study = Study(csv="", subjects=subjects, records=0)
    lines = ["subject_id,stimulus_id,kind,payload"]
    for i in range(subjects):
        subject = f"s{i + 1:05d}"
        stimulus = adapt_ids[i % len(adapt_ids)]
        choice = "A" if rng.random() < bias[stimulus] else "NA"
        lines.append(f"{subject},{stimulus},preference,{choice}")
        tally = study.preference.setdefault(stimulus, [0, 0])
        tally[0 if choice == "A" else 1] += 1

        leaning = "adapted" if choice == "A" else "nonadapted"
        weights = {
            "adapted_good_gestures": 0.5 if leaning == "adapted" else 0.1,
            "nonadapted_good_gestures": 0.5 if leaning == "nonadapted" else 0.1,
            "adapted_animated": 0.4 if leaning == "adapted" else 0.15,
            "nonadapted_realistic": 0.4 if leaning == "nonadapted" else 0.15,
            "other": 0.08,
        }
        labels = [c for c in WHY_CATEGORIES if rng.random() < weights[c]]
        lines.append(f"{subject},{stimulus},why,{'|'.join(labels)}")
        n, per_cat = study.why.setdefault(stimulus, (0, {c: 0 for c in WHY_CATEGORIES}))
        for c in labels:
            per_cat[c] += 1
        study.why[stimulus] = (n + 1, per_cat)

        pers_id, story, assignment = pers[i % len(pers)]
        for speaker in ("A", "B"):
            factors = tipi_factors(story, assignment, speaker)
            level = 5.2 if factors["personality"] == "extravert" else 3.1
            level += story_shift[story] + (0.25 if factors["gender"] == "F" else -0.25)
            items = [_clamp(rng.gauss(4.0, 1.4)) for _ in range(10)]
            items[0] = _clamp(rng.gauss(level, 1.2))  # item 1: extraverted
            items[5] = _clamp(rng.gauss(8 - level, 1.2))  # item 6: reserved (reverse)
            lines.append(f"{subject},{pers_id}/{speaker},tipi,{'|'.join(map(str, items))}")
            study.observations.append((factors, (items[0] + 8 - items[5]) / 2.0))
    study.csv = "\n".join(lines) + "\n"
    study.records = len(lines) - 1
    return study


def make_studies(seed: int, tasks) -> list[Study]:
    rng = random.Random(seed)
    return [make_study(rng, n, tasks) for n in STUDY_SUBJECTS]
